//! The four batch workloads. Each is a fixed op list over generated
//! circuits; each op is one cold command (BLIF text in, report or netlist
//! out) built from the same public calls `lpopt` makes, with a span around
//! every call into a layer. Ops run single-threaded (`jobs = 1`), so every
//! output is bit-deterministic per seed.

use std::time::Instant;

use lowpower::bdd::ReorderSchedule;
use lowpower::budget::ResourceBudget;
use lowpower::circuit::sizing::SizedCircuit;
use lowpower::logicopt::balance::{balance_delta, tighten_balance_delta};
use lowpower::logicopt::dontcare::optimize_dontcares_sim;
use lowpower::logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use lowpower::netlist::blif::{parse_text, write_text};
use lowpower::netlist::gen::{self, RandomDagConfig};
use lowpower::netlist::{Netlist, Rng64};
use lowpower::obs::Obs;
use lowpower::power::exact::try_circuit_bdds_reorder;
use lowpower::power::model::{PowerParams, PowerReport};
use lowpower::power::order::ReorderConfig;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::incr::IncrementalEventSim;
use lowpower::sim::stimulus::Stimulus;
use lowpower::sim::ActivityProfile;

use crate::harness::{self, Digest, Sample, Scaler, Tracer};
use crate::oracle;
use crate::report::{Outcome, Tally, Traced};
use crate::{Length, Mode, Workload};

/// Stimulus cycles of a `power-sim` op (an `lpopt power` run).
const POWER_SIM_CYCLES: usize = 4096;
/// Resident stimulus of the incremental engines, as `bench_incr` uses.
const INCR_CYCLES: usize = 256;
/// `lpopt rewrite`'s default stimulus length.
const REWRITE_CYCLES: usize = 512;
/// The dynamic-reordering policy and node budget under which the 8-bit
/// multiplier's exact tier completes (natural order peaks at ~52k nodes).
const REORDER_SPEC: &str = "dfs+threshold:256";
const REORDER_NODE_BUDGET: u64 = 40_000;

#[derive(Debug, Clone, Copy)]
enum Kind {
    PowerSim,
    PowerExact {
        reorder: ReorderConfig,
        max_nodes: Option<u64>,
    },
    BalanceSweep,
    Downsize,
    DontcareSim,
    Rewrite,
}

#[derive(Clone)]
struct Op {
    name: String,
    kind: Kind,
    blif: String,
    stim_seed: u64,
    smoke: bool,
}

/// What one op produced, kept whole only for the reference round.
enum Output {
    /// Power report text plus the activity profile behind it (functional
    /// profile for the event simulator, exact profile for the BDD tier).
    Report {
        text: String,
        profile: ActivityProfile,
    },
    /// Balance sweep: the fully balanced netlist, glitches per cycle at
    /// every threshold, and glitch-aware switched capacitance at the ends.
    Balanced {
        netlist: Netlist,
        glitches: Vec<f64>,
        cap_before: f64,
        cap_after: f64,
    },
    Sized {
        sizes: Vec<f64>,
        constraint: f64,
    },
    /// Don't-care or rewrite result: the netlist as written, the report
    /// line, and simulated switched capacitance before and after.
    Optimized {
        text: String,
        summary: String,
        cap_before: f64,
        cap_after: f64,
    },
}

impl Output {
    fn digest(&self) -> u64 {
        let d = Digest::default();
        match self {
            Output::Report { text, profile } => d
                .text(text)
                .floats(&profile.toggles)
                .floats(&profile.probability),
            Output::Balanced {
                netlist,
                glitches,
                cap_before,
                cap_after,
            } => d
                .text(&write_text(netlist))
                .floats(glitches)
                .float(*cap_before)
                .float(*cap_after),
            Output::Sized { sizes, constraint } => d.floats(sizes).float(*constraint),
            Output::Optimized {
                text,
                summary,
                cap_before,
                cap_after,
            } => d
                .text(text)
                .text(summary)
                .float(*cap_before)
                .float(*cap_after),
        }
        .finish()
    }
}

fn digest_of(result: &Result<Output, String>) -> u64 {
    match result {
        Ok(out) => out.digest(),
        Err(e) => Digest::default().text("error").text(e).finish(),
    }
}

/// Per-op execution context: the span recorder, the obs handle the layers
/// publish their counters to (enabled only in traced rounds), and the
/// counts the layers return instead of publishing.
struct Ctx {
    tr: Tracer,
    obs: Obs,
    tally: Tally,
}

impl Ctx {
    fn untraced(origin: Instant) -> Ctx {
        Ctx {
            tr: Tracer::new(origin),
            obs: Obs::disabled(),
            tally: Tally::default(),
        }
    }
}

/// The BLIF text an op receives. Internal nets are renamed from the
/// writer's `n<index>` to `w<index>`: the writer names new, unnamed nets
/// `n<index>` too, so an optimized netlist that renumbers nets would
/// otherwise be written with two gates of one name (a known writer bug,
/// see README.md).
fn blif(nl: &Netlist) -> String {
    write_text(nl)
        .lines()
        .map(|line| {
            let mut fields: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if matches!(fields.first().map(String::as_str), Some(".gate" | ".latch")) {
                for f in &mut fields[1..] {
                    if f.len() > 1
                        && f.starts_with('n')
                        && f[1..].bytes().all(|b| b.is_ascii_digit())
                    {
                        f.replace_range(..1, "w");
                    }
                }
            }
            fields.join(" ") + "\n"
        })
        .collect()
}

fn random_dag(inputs: usize, gates: usize, outputs: usize, window: usize, seed: u64) -> Netlist {
    let config = RandomDagConfig {
        inputs,
        gates,
        outputs,
        max_fanin: 3,
        window,
    };
    gen::random_dag(&config, seed)
}

/// The workload's op list. The circuits are fixed — the random DAGs use
/// constant generator seeds, because search cost varies several-fold
/// between random structures — and `seed` draws every op's stimulus.
/// Multiplicities put the median and the tail percentile inside one op's
/// group of samples, not on the boundary between two groups (in
/// `power-exact`, pipe8's three copies hold the median).
fn ops(workload: Workload, seed: u64) -> Vec<Op> {
    let exact = |spec: &str, max_nodes: Option<u64>| Kind::PowerExact {
        reorder: ReorderConfig::parse(spec).expect("built-in reorder spec parses"),
        max_nodes,
    };
    let natural = exact("natural", None);
    let dfs = exact("dfs", None);
    let sifted = exact(REORDER_SPEC, Some(REORDER_NODE_BUDGET));
    let rand40 = || random_dag(6, 40, 3, 10, 21);
    let rand60 = || random_dag(8, 60, 4, 12, 60);
    let rand100 = || random_dag(12, 100, 6, 16, 100);
    let rand200 = || random_dag(16, 200, 8, 24, 7);
    let mult = |n| gen::array_multiplier(n).0;
    let wallace = |n| gen::wallace_multiplier(n).0;
    // (name, kind, circuit, in the smoke run, copies per round)
    let table: Vec<(&str, Kind, Netlist, bool, usize)> = match workload {
        Workload::PowerSim => vec![
            (
                "ks64",
                Kind::PowerSim,
                gen::kogge_stone_adder(64).0,
                true,
                1,
            ),
            ("wallace16", Kind::PowerSim, wallace(16), false, 1),
            ("array16", Kind::PowerSim, mult(16), false, 1),
            ("wallace32", Kind::PowerSim, wallace(32), false, 1),
            ("array32", Kind::PowerSim, mult(32), false, 1),
        ],
        Workload::PowerExact => vec![
            ("cmp16/dfs", dfs, gen::comparator_gt(16).0, true, 1),
            ("ks16/dfs", dfs, gen::kogge_stone_adder(16).0, false, 1),
            ("alu8", natural, gen::alu4(8), false, 1),
            ("pipe6", natural, gen::pipelined_multiplier(6), true, 1),
            ("mult8", natural, mult(8), false, 1),
            ("pipe8", natural, gen::pipelined_multiplier(8), false, 3),
            ("wallace8", natural, wallace(8), false, 1),
            ("mult6/sift", sifted, mult(6), false, 1),
            ("mult8/sift", sifted, mult(8), false, 2),
        ],
        Workload::OptIncr => vec![
            ("dontcare/rand100", Kind::DontcareSim, rand100(), true, 1),
            ("dontcare/rand200", Kind::DontcareSim, rand200(), false, 1),
            ("downsize/wallace8", Kind::Downsize, wallace(8), false, 1),
            ("downsize/mult8", Kind::Downsize, mult(8), true, 1),
            ("balance/mult6", Kind::BalanceSweep, mult(6), true, 2),
            ("balance/wallace8", Kind::BalanceSweep, wallace(8), false, 2),
            ("balance/mult8", Kind::BalanceSweep, mult(8), false, 2),
        ],
        Workload::Rewrite => vec![
            ("rewrite/rand40", Kind::Rewrite, rand40(), true, 1),
            ("rewrite/rand60", Kind::Rewrite, rand60(), true, 1),
            ("rewrite/mult4", Kind::Rewrite, mult(4), false, 1),
            ("rewrite/rand100", Kind::Rewrite, rand100(), false, 1),
            ("rewrite/wallace8", Kind::Rewrite, wallace(8), false, 1),
        ],
        Workload::Serve => unreachable!("serve is not a batch workload"),
    };
    let mut rng = Rng64::new(seed ^ 0x1b_be9c_4e5a);
    table
        .into_iter()
        .flat_map(|(name, kind, nl, smoke, copies)| {
            let op = Op {
                name: name.to_string(),
                kind,
                blif: blif(&nl),
                stim_seed: rng.next_u64(),
                smoke,
            };
            std::iter::repeat_n(op, copies)
        })
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One op, end to end, with a span around each call into a layer.
fn run_op(op: &Op, cx: &mut Ctx) -> Result<Output, String> {
    let unlimited = ResourceBudget::unlimited();
    let nl = cx
        .tr
        .span("netlist.blif.parse", || parse_text(&op.blif))
        .map_err(err)?;
    let traced = cx.tr.enabled();
    if traced {
        cx.tally.parsed_bytes += op.blif.len() as u64;
    }
    let probs = vec![0.5; nl.num_inputs()];
    let params = PowerParams::default();
    Ok(match op.kind {
        Kind::PowerSim => {
            let patterns = cx.tr.span("sim.stimulus.gen", || {
                Stimulus::uniform(nl.num_inputs()).patterns(POWER_SIM_CYCLES, op.stim_seed)
            });
            let sim = cx.tr.span("sim.event.build", || {
                EventSim::new(&nl, &DelayModel::Unit).with_obs(cx.obs.clone())
            });
            let timing = cx
                .tr
                .span("sim.event.run", || {
                    sim.try_activity_jobs(&patterns, 1, &unlimited)
                })
                .map_err(err)?;
            let text = cx.tr.span("power.model.report", || {
                let report = PowerReport::from_activity(&nl, &timing.total, &params);
                format!(
                    "{report}\nglitch fraction: {:.1}%\nestimator: event-driven\n",
                    100.0 * timing.glitch_fraction()
                )
            });
            Output::Report {
                text,
                profile: timing.functional,
            }
        }
        Kind::PowerExact { reorder, max_nodes } => {
            let budget = max_nodes.map_or(unlimited, |n| unlimited.with_max_bdd_nodes(n));
            let layer = if reorder.schedule == ReorderSchedule::Off {
                "bdd.build_static"
            } else {
                "bdd.build_reorder"
            };
            let bdds = cx
                .tr
                .span(layer, || {
                    try_circuit_bdds_reorder(&nl, &budget, &reorder, &cx.obs)
                })
                .map_err(err)?;
            let profile = cx.tr.span("power.exact.prob", || bdds.activity(&probs));
            let text = cx.tr.span("power.model.report", || {
                let report = PowerReport::from_activity(&nl, &profile, &params);
                format!("{report}\nestimator: exact-bdd\n")
            });
            Output::Report { text, profile }
        }
        Kind::BalanceSweep => {
            let packed = cx.tr.span("sim.stimulus.gen", || {
                Stimulus::uniform(nl.num_inputs()).packed(INCR_CYCLES, op.stim_seed)
            });
            let mut engine = cx
                .tr
                .span("sim.incr.build", || {
                    IncrementalEventSim::try_from_full_eval(
                        &nl,
                        &DelayModel::Unit,
                        &packed,
                        &unlimited,
                        cx.obs.clone(),
                    )
                })
                .map_err(err)?;
            let cap_before = cx.tr.span("sim.incr.activity", || engine.switched_cap());
            let levels = nl.levels().map_err(err)?;
            let mut current = nl.clone();
            let mut glitches = Vec::new();
            let mut from = None;
            // Every threshold from the depth down to 0 on one resident
            // engine, reading the activity after each step.
            for t in (0..=nl.depth()).rev() {
                let delta = cx.tr.span("logicopt.balance.delta", || {
                    let (delta, _) = match from {
                        None => balance_delta(&nl, &levels, t),
                        Some(f) => tighten_balance_delta(&current, nl.len(), &levels, f, t),
                    };
                    delta.apply_to(&mut current);
                    delta
                });
                from = Some(t);
                if !delta.is_empty() {
                    cx.tr
                        .span("sim.incr.apply", || {
                            engine.try_apply_delta(&delta, &unlimited)
                        })
                        .map_err(err)?;
                    if traced {
                        cx.tally.incr_full_equiv += engine.netlist().len() as u64;
                    }
                }
                glitches.push(cx.tr.span("sim.incr.activity", || {
                    engine.activity().total_glitches_per_cycle()
                }));
            }
            let cap_after = cx.tr.span("sim.incr.activity", || engine.switched_cap());
            Output::Balanced {
                netlist: current,
                glitches,
                cap_before,
                cap_after,
            }
        }
        Kind::Downsize => {
            let (sizes, constraint, trials, evals) = cx.tr.span("circuit.sizing.sta", || {
                let mut sized = SizedCircuit::new(&nl, 4.0);
                let constraint = 1.15 * sized.timing(1e9).critical;
                let mut sta = sized.sta_cache();
                sized.downsize_for_power_with(constraint, &mut sta);
                (sized.sizes, constraint, sta.trials, sta.arrival_evals)
            });
            if traced {
                cx.tally.sizing_trials += trials;
                cx.tally.sizing_arrival_evals += evals;
                cx.tally.sizing_full_equiv += trials * nl.len() as u64;
            }
            Output::Sized { sizes, constraint }
        }
        Kind::DontcareSim => {
            let packed = cx.tr.span("sim.stimulus.gen", || {
                Stimulus::uniform(nl.num_inputs()).packed(INCR_CYCLES, op.stim_seed)
            });
            let (optimized, report) = cx.tr.span("logicopt.dontcare.sim", || {
                optimize_dontcares_sim(&nl, &probs, 5, &packed)
            });
            if traced {
                cx.tally.dontcare_tried += report.rewrites_tried as u64;
                cx.tally.dontcare_accepted += report.nodes_changed as u64;
            }
            let text = cx.tr.span("netlist.blif.write", || write_text(&optimized));
            Output::Optimized {
                text,
                summary: format!(
                    "{} nodes rewritten of {} tried",
                    report.nodes_changed, report.rewrites_tried
                ),
                cap_before: report.cap_before,
                cap_after: report.cap_after,
            }
        }
        Kind::Rewrite => {
            let packed = cx.tr.span("sim.stimulus.gen", || {
                Stimulus::uniform(nl.num_inputs()).packed(REWRITE_CYCLES, op.stim_seed)
            });
            let cfg = RewriteConfig {
                obs: cx.obs.clone(),
                ..RewriteConfig::default()
            };
            let (optimized, report) = cx
                .tr
                .span("logicopt.rewrite.search", || {
                    try_rewrite_sim(&nl, &probs, &packed, &unlimited, &cfg)
                })
                .map_err(err)?;
            if traced {
                cx.tally.rewrite_tried += report.tried.total();
                cx.tally.rewrite_accepted += report.accepted.total();
                cx.tally.rewrite_nets_reevaluated += report.nets_reevaluated;
            }
            let text = cx.tr.span("netlist.blif.write", || write_text(&optimized));
            Output::Optimized {
                text,
                summary: format!(
                    "{} chains accepted of {} moves tried; unit critical path {:.2} -> {:.2}",
                    report.chains_accepted,
                    report.tried.total(),
                    report.crit_before,
                    report.crit_after
                ),
                cap_before: report.cap_before,
                cap_after: report.cap_after,
            }
        }
    })
}

/// Check one reference output against the independent oracles. Returns the
/// op's switched-capacitance ratio (after / before) for optimization ops.
fn check(op: &Op, out: &Output) -> Result<Option<f64>, String> {
    let nl = parse_text(&op.blif).map_err(err)?;
    match out {
        Output::Report { profile, .. } => {
            if let Kind::PowerSim = op.kind {
                let patterns =
                    Stimulus::uniform(nl.num_inputs()).patterns(POWER_SIM_CYCLES, op.stim_seed);
                let (toggles, ones) = oracle::functional_counts(&nl, &patterns)?;
                let denom = (POWER_SIM_CYCLES - 1) as f64;
                for i in 0..nl.len() {
                    let want_t = toggles[i] as f64 / denom;
                    let want_p = ones[i] as f64 / POWER_SIM_CYCLES as f64;
                    if profile.toggles[i] != want_t || profile.probability[i] != want_p {
                        return Err(format!(
                            "net {i}: functional toggles {} / probability {} vs oracle {want_t} / {want_p}",
                            profile.toggles[i], profile.probability[i]
                        ));
                    }
                }
            } else if let Some(exact) = oracle::exhaustive_probabilities(&nl)? {
                for (i, (&p, &q)) in profile.probability.iter().zip(&exact).enumerate() {
                    if (p - q).abs() > 1e-9 {
                        return Err(format!("net {i}: probability {p} vs exhaustive {q}"));
                    }
                }
            }
            Ok(None)
        }
        Output::Balanced {
            netlist,
            glitches,
            cap_before,
            cap_after,
        } => {
            oracle::equivalent(&nl, netlist, op.stim_seed)?;
            // Fully balanced paths cannot glitch under unit delay.
            match glitches.last() {
                Some(&g) if g.abs() < 1e-9 => Ok(Some(cap_after / cap_before)),
                other => Err(format!("glitches left at threshold 0: {other:?}")),
            }
        }
        Output::Sized { sizes, constraint } => {
            let mut sized = SizedCircuit::new(&nl, 4.0);
            if sizes.len() != sized.sizes.len() || sizes.iter().any(|s| !(1.0..=4.0).contains(s)) {
                return Err("sizes out of range".to_string());
            }
            let activity = {
                let patterns =
                    Stimulus::uniform(nl.num_inputs()).patterns(INCR_CYCLES, op.stim_seed);
                let (toggles, _) = oracle::functional_counts(&nl, &patterns)?;
                let denom = (INCR_CYCLES - 1) as f64;
                ActivityProfile {
                    toggles: toggles.iter().map(|&t| t as f64 / denom).collect(),
                    probability: vec![0.5; nl.len()],
                    cycles: INCR_CYCLES,
                }
            };
            let cap_before = sized.switched_capacitance(&activity);
            sized.sizes = sizes.clone();
            let critical = sized.timing(*constraint).critical;
            if critical > constraint + 1e-9 {
                return Err(format!(
                    "critical path {critical} misses the constraint {constraint}"
                ));
            }
            Ok(Some(sized.switched_capacitance(&activity) / cap_before))
        }
        Output::Optimized {
            text,
            cap_before,
            cap_after,
            ..
        } => {
            let optimized = parse_text(text).map_err(err)?;
            oracle::equivalent(&nl, &optimized, op.stim_seed)?;
            Ok(Some(cap_after / cap_before))
        }
    }
}

/// Run one batch workload: set-up (input generation plus the warm-up
/// round) `mode.setup_reps` times, then whole timed rounds, then the
/// checks. Every set-up and op is followed by a probe of the host's speed
/// ([`Scaler`]).
pub fn run(workload: Workload, mode: &Mode) -> Outcome {
    let origin = Instant::now();
    let mut outcome = Outcome::new(workload);
    let mut scaler = Scaler::new();
    let mut reference: Vec<Result<Output, String>> = Vec::new();
    let mut ops_list: Vec<Op> = Vec::new();
    let mut ref_digests: Vec<u64> = Vec::new();
    for rep in 0..mode.setup_reps {
        let start = Instant::now();
        let mut ops = ops(workload, mode.seed);
        if mode.smoke {
            ops.retain(|op| op.smoke);
            ops.dedup_by(|a, b| a.name == b.name);
        }
        let mut cx = Ctx::untraced(origin);
        let outs: Vec<Result<Output, String>> = ops.iter().map(|op| run_op(op, &mut cx)).collect();
        outcome.setup_secs.push(start.elapsed().as_secs_f64());
        scaler.probe();
        let digests: Vec<u64> = outs.iter().map(digest_of).collect();
        if rep > 0 && digests != ref_digests {
            outcome.failures.push(format!(
                "set-up repetition {rep} produced different outputs"
            ));
        }
        ref_digests = digests;
        reference = outs;
        ops_list = ops;
    }
    let ops = ops_list;
    outcome.op_names = ops.iter().map(|op| op.name.clone()).collect();

    // Timed rounds. A traced run alternates untraced and traced rounds, so
    // the tracing overhead is measured in one process.
    let traced_obs = Obs::enabled();
    let mut cx = Ctx::untraced(origin);
    let mut seq = 0u64;
    let mut traced_samples: Vec<Sample> = Vec::new();
    let mut mismatched = vec![false; ops.len()];
    let mut round = |traced: bool, samples: &mut Vec<Sample>, outcome: &mut Outcome| {
        cx.tr.set_enabled(traced);
        cx.obs = if traced {
            traced_obs.clone()
        } else {
            Obs::disabled()
        };
        for (i, op) in ops.iter().enumerate() {
            cx.tr.set_op(seq, i);
            seq += 1;
            let root = cx.tr.begin("op");
            let start = Instant::now();
            let out = run_op(op, &mut cx);
            let secs = start.elapsed().as_secs_f64();
            cx.tr.end(root);
            samples.push(Sample { op: i, secs });
            scaler.probe();
            if !traced {
                outcome.attempted += 1;
                outcome.failed += out.is_err() as usize;
            }
            if digest_of(&out) != ref_digests[i] && !mismatched[i] {
                mismatched[i] = true;
                outcome
                    .failures
                    .push(format!("{}: output changed between rounds", op.name));
            }
        }
        ops.len()
    };
    let mut samples = Vec::new();
    match mode.length {
        Length::OneRound => {
            round(false, &mut samples, &mut outcome);
            if mode.trace {
                round(true, &mut traced_samples, &mut outcome);
            }
        }
        Length::Seconds(seconds) if mode.trace => {
            harness::run_rounds(seconds, 0, || {
                round(false, &mut samples, &mut outcome);
                round(true, &mut traced_samples, &mut outcome)
            });
        }
        Length::Seconds(seconds) => {
            // Enough samples that the tail has ten beyond it.
            let min = harness::min_samples(workload.tail_permille());
            harness::run_rounds(seconds, min, || round(false, &mut samples, &mut outcome));
        }
    }
    // Batch throughput counts the program's time only, not the checks
    // between ops.
    outcome.rates = samples
        .chunks(ops.len())
        .map(|round| ops.len() as f64 / round.iter().map(|s| s.secs).sum::<f64>())
        .collect();
    outcome.samples = samples;
    outcome.probes = scaler.seen;
    if mode.trace {
        let secs = |s: &[Sample]| s.iter().map(|s| s.secs).sum::<f64>();
        let traced_secs = secs(&traced_samples);
        outcome.traced = Some(Traced {
            overhead: 1.0 - secs(&outcome.samples) / traced_secs,
            ops: traced_samples.len(),
            wall: traced_secs,
            spans: cx.tr.into_spans(),
            snapshot: traced_obs.snapshot(),
            tally: cx.tally,
            extra: Vec::new(),
        });
    }

    // Checks on the reference round (untimed), once per distinct op.
    let mut ratios = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (op, out) in ops.iter().zip(&reference) {
        if !seen.insert(&op.name) {
            continue;
        }
        outcome.digests.push((op.name.clone(), digest_of(out)));
        match out.as_ref().map(|o| check(op, o)) {
            Ok(Ok(Some(ratio))) => ratios.push(ratio),
            Ok(Ok(None)) => {}
            Ok(Err(e)) => outcome.failures.push(format!("{}: {e}", op.name)),
            Err(e) => outcome
                .failures
                .push(format!("{}: op failed: {e}", op.name)),
        }
    }
    if !ratios.is_empty() {
        let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        outcome.cap_ratio = Some(log_mean.exp());
    }
    outcome
}
