//! `bench_robust` — cost of the resource-budget machinery.
//!
//! Emits `BENCH_robust.json` (override with the first argument) with three
//! sections:
//!
//! * **overhead** — each hot simulation path timed twice over the same
//!   workload: the infallible entry point versus the budget-guarded one
//!   with generous (never-tripping) limits, so the delta is purely the
//!   cost of the checks. The robustness contract targets < 3%.
//! * **tiers** — per circuit, the latency of each estimation tier of the
//!   degradation chain answering alone, plus a degraded end-to-end run
//!   (node-capped, so the exact tier fails first) to show what a fallback
//!   actually costs.
//! * **obs_overhead** — the same hot paths with the default (disabled)
//!   observability handle versus a fully enabled one collecting counters
//!   and shard gauges. The obs contract targets < 2%: instrumentation
//!   only ever runs at shard-merge boundaries, never per event.
//!
//! Both overhead sections time their two sides with
//! [`harness::paired`]; each tier latency is [`harness::per_call`].
//!
//! ```text
//! cargo run --release -p bench --bin bench_robust [out.json]
//! ```
//!
//! There is no check mode: `ci/check_obs_overhead.sh` gates the obs
//! overhead from the JSON, and `--check` is rejected.

use std::fmt::Write as _;

use bench::harness::{self, paired};
use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen;
use lowpower::obs::Obs;
use lowpower::netlist::Netlist;
use lowpower::power::chain::{estimate_activity, ChainConfig, Tier};
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::seq::SeqSim;
use lowpower::sim::stimulus::Stimulus;

/// Every limit set, none reachable: the checks run, the branches never
/// take, which is exactly the hot-path configuration the overhead target
/// is about.
fn generous() -> ResourceBudget {
    ResourceBudget::unlimited()
        .with_max_bdd_nodes(u64::MAX / 2)
        .with_max_event_queue(u64::MAX / 2)
        .with_max_sim_steps(u64::MAX / 2)
        .with_deadline_ms(3_600_000)
}

struct Overhead {
    name: &'static str,
    unguarded_secs: f64,
    guarded_secs: f64,
}

impl Overhead {
    fn percent(&self) -> f64 {
        100.0 * (self.guarded_secs - self.unguarded_secs) / self.unguarded_secs
    }
}

fn overheads() -> Vec<Overhead> {
    let budget = generous();
    let (wallace, _) = gen::wallace_multiplier(8);
    let (mult, _) = gen::array_multiplier(6);
    let pipe = gen::pipelined_multiplier(4);
    let wallace_pat = Stimulus::uniform(wallace.num_inputs()).patterns(4096, 5);
    let mult_pat = Stimulus::uniform(mult.num_inputs()).patterns(1024, 5);
    let pipe_pat = Stimulus::uniform(pipe.num_inputs()).patterns(2048, 5);

    let comb = CombSim::new(&wallace);
    // Analytic delays keep both runs on the event-queue engine: with a
    // uniform (unit) delay model the unguarded run takes the dense 64-lane
    // path that finite step/queue budgets are excluded from by design, and
    // the comparison would measure engine choice, not check cost.
    let event = EventSim::new(&mult, &DelayModel::Analytic { resolution: 4 });
    let seq = SeqSim::new(&pipe);

    let (comb_un, comb_g) = paired(
        || {
            comb.activity_jobs(&wallace_pat, 1);
        },
        || {
            comb.try_activity_jobs(&wallace_pat, 1, &budget).unwrap();
        },
    );
    let (event_un, event_g) = paired(
        || {
            event.activity_jobs(&mult_pat, 1);
        },
        || {
            event.try_activity_jobs(&mult_pat, 1, &budget).unwrap();
        },
    );
    let (seq_un, seq_g) = paired(
        || {
            seq.activity_jobs(&pipe_pat, 1);
        },
        || {
            seq.try_activity_jobs(&pipe_pat, 1, &budget).unwrap();
        },
    );
    vec![
        Overhead {
            name: "comb/wallace_multiplier_8",
            unguarded_secs: comb_un,
            guarded_secs: comb_g,
        },
        Overhead {
            name: "event/array_multiplier_6",
            unguarded_secs: event_un,
            guarded_secs: event_g,
        },
        Overhead {
            name: "seq/pipelined_multiplier_4",
            unguarded_secs: seq_un,
            guarded_secs: seq_g,
        },
    ]
}

struct ObsOverhead {
    name: &'static str,
    disabled_secs: f64,
    enabled_secs: f64,
}

impl ObsOverhead {
    fn percent(&self) -> f64 {
        100.0 * (self.enabled_secs - self.disabled_secs) / self.disabled_secs
    }
}

/// The cost of observability on the unguarded hot paths: the default
/// handle (one null check per boundary) versus an enabled handle feeding
/// counters and gauges every run.
fn obs_overheads() -> Vec<ObsOverhead> {
    let (wallace, _) = gen::wallace_multiplier(8);
    let (mult, _) = gen::array_multiplier(6);
    let pipe = gen::pipelined_multiplier(4);
    let wallace_pat = Stimulus::uniform(wallace.num_inputs()).patterns(4096, 5);
    let mult_pat = Stimulus::uniform(mult.num_inputs()).patterns(1024, 5);
    let pipe_pat = Stimulus::uniform(pipe.num_inputs()).patterns(2048, 5);

    let obs = Obs::enabled();
    let comb = CombSim::new(&wallace);
    let comb_obs = CombSim::new(&wallace).with_obs(obs.clone());
    let event = EventSim::new(&mult, &DelayModel::Unit);
    let event_obs = EventSim::new(&mult, &DelayModel::Unit).with_obs(obs.clone());
    let seq = SeqSim::new(&pipe);
    let seq_obs = SeqSim::new(&pipe).with_obs(obs);

    let (comb_off, comb_on) = paired(
        || {
            comb.activity_jobs(&wallace_pat, 1);
        },
        || {
            comb_obs.activity_jobs(&wallace_pat, 1);
        },
    );
    let (event_off, event_on) = paired(
        || {
            event.activity_jobs(&mult_pat, 1);
        },
        || {
            event_obs.activity_jobs(&mult_pat, 1);
        },
    );
    let (seq_off, seq_on) = paired(
        || {
            seq.activity_jobs(&pipe_pat, 1);
        },
        || {
            seq_obs.activity_jobs(&pipe_pat, 1);
        },
    );
    vec![
        ObsOverhead {
            name: "comb/wallace_multiplier_8",
            disabled_secs: comb_off,
            enabled_secs: comb_on,
        },
        ObsOverhead {
            name: "event/array_multiplier_6",
            disabled_secs: event_off,
            enabled_secs: event_on,
        },
        ObsOverhead {
            name: "seq/pipelined_multiplier_4",
            disabled_secs: seq_off,
            enabled_secs: seq_on,
        },
    ]
}

struct TierLatency {
    circuit: &'static str,
    exact_secs: f64,
    prob_secs: f64,
    sampled_secs: f64,
    /// End-to-end with a 256-node cap: exact fails, the chain degrades.
    degraded_secs: f64,
    degraded_tier: &'static str,
}

fn tier_cfg(tiers: Vec<Tier>) -> ChainConfig {
    ChainConfig {
        tiers,
        sample_cycles: 1024,
        ..ChainConfig::default()
    }
}

fn tier_latency(circuit: &'static str, nl: &Netlist) -> TierLatency {
    let unlimited = ResourceBudget::unlimited();
    let capped = ResourceBudget::unlimited().with_max_bdd_nodes(256);
    let degraded_tier = estimate_activity(nl, &capped, &tier_cfg(vec![
        Tier::ExactBdd,
        Tier::Probabilistic,
        Tier::SampledSim,
    ]))
    .map(|est| est.tier.name())
    .unwrap_or("exhausted");
    TierLatency {
        circuit,
        exact_secs: harness::per_call(|| {
            let _ = estimate_activity(nl, &unlimited, &tier_cfg(vec![Tier::ExactBdd]));
        }),
        prob_secs: harness::per_call(|| {
            let _ = estimate_activity(nl, &unlimited, &tier_cfg(vec![Tier::Probabilistic]));
        }),
        sampled_secs: harness::per_call(|| {
            let _ = estimate_activity(nl, &unlimited, &tier_cfg(vec![Tier::SampledSim]));
        }),
        degraded_secs: harness::per_call(|| {
            let _ = estimate_activity(nl, &capped, &tier_cfg(vec![
                Tier::ExactBdd,
                Tier::Probabilistic,
                Tier::SampledSim,
            ]));
        }),
        degraded_tier,
    }
}

fn tiers() -> Vec<TierLatency> {
    let (adder, _) = gen::ripple_adder(8);
    let (mult, _) = gen::array_multiplier(6);
    let parity = gen::parity_tree(12);
    vec![
        tier_latency("ripple_adder_8", &adder),
        tier_latency("array_multiplier_6", &mult),
        tier_latency("parity_tree_12", &parity),
    ]
}

fn to_json(loads: &[Overhead], obs_loads: &[ObsOverhead], lats: &[TierLatency]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"robust\",\n  \"overhead_target_percent\": 3.0,\n");
    out.push_str("  \"obs_overhead_target_percent\": 2.0,\n");
    out.push_str("  \"overhead\": [\n");
    for (i, o) in loads.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unguarded_seconds\": {:.6}, \"guarded_seconds\": {:.6}, \
             \"overhead_percent\": {:.2}}}",
            o.name, o.unguarded_secs, o.guarded_secs, o.percent()
        );
        out.push_str(if i + 1 < loads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"obs_overhead\": [\n");
    for (i, o) in obs_loads.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"disabled_seconds\": {:.6}, \"enabled_seconds\": {:.6}, \
             \"obs_overhead_percent\": {:.2}}}",
            o.name, o.disabled_secs, o.enabled_secs, o.percent()
        );
        out.push_str(if i + 1 < obs_loads.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"fallback_tiers\": [\n");
    for (i, t) in lats.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"circuit\": \"{}\", \"exact_bdd_seconds\": {:.6}, \
             \"probabilistic_seconds\": {:.6}, \"sampled_sim_seconds\": {:.6}, \
             \"degraded_seconds\": {:.6}, \"degraded_answering_tier\": \"{}\"}}",
            t.circuit, t.exact_secs, t.prob_secs, t.sampled_secs, t.degraded_secs,
            t.degraded_tier
        );
        out.push_str(if i + 1 < lats.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (out_path, check) = harness::args("BENCH_robust.json");
    if check {
        eprintln!("error: bench_robust has no --check mode\nusage: bench_robust [out.json]");
        std::process::exit(1);
    }
    let loads = overheads();
    let obs_loads = obs_overheads();
    let lats = tiers();
    let json = to_json(&loads, &obs_loads, &lats);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!("wrote {out_path}");
    for o in &loads {
        println!(
            "  {:<28} unguarded {:.3} ms, guarded {:.3} ms, overhead {:+.2}%",
            o.name,
            1e3 * o.unguarded_secs,
            1e3 * o.guarded_secs,
            o.percent()
        );
    }
    for o in &obs_loads {
        println!(
            "  {:<28} obs off {:.3} ms, obs on {:.3} ms, overhead {:+.2}%",
            o.name,
            1e3 * o.disabled_secs,
            1e3 * o.enabled_secs,
            o.percent()
        );
    }
    for t in &lats {
        println!(
            "  {:<20} exact {:.3} ms | prob {:.3} ms | sampled {:.3} ms | degraded {:.3} ms -> {}",
            t.circuit,
            1e3 * t.exact_secs,
            1e3 * t.prob_secs,
            1e3 * t.sampled_secs,
            1e3 * t.degraded_secs,
            t.degraded_tier
        );
    }
}
