//! `bench_json` — machine-readable serial-vs-parallel throughput harness.
//!
//! Emits `BENCH_sim.json` (override with the first non-flag argument): for
//! each simulator workload, the wall-clock seconds, patterns/second, and
//! speedup-vs-serial at several worker-thread counts, plus a bit-identity
//! check of the parallel activity profiles against the serial run. The
//! host core count is recorded and every run notes whether it was
//! oversubscribed (`jobs > host_cores`), so a single-core CI run is
//! self-describing — speedups above 1x only appear when the host actually
//! has the cores.
//!
//! The event workloads also record the engine's obs counters from a
//! serial run. Their **work ratio** — transitions per event a naive engine
//! would have enqueued, one per input change and one per fanout visit
//! (`processed / (processed + coalesced)`) — is deterministic: it depends
//! only on the netlist and pattern stream, never on machine speed.
//!
//! ```text
//! cargo run --release -p bench --bin bench_json [out.json] [--check]
//! ```
//!
//! With `--check` the harness exits nonzero if any parallel run diverges
//! bitwise from serial, if an event counter invariant breaks
//! (`processed == enqueued`, `cancelled <= processed`), or if the event
//! engine loses its rewrite win: work ratio above [`MAX_WORK_RATIO`]. The
//! ratio is deterministic, so the gate means the same on a noisy CI box
//! as anywhere else; no timing can pass or fail it. The comb workloads
//! also time a serial run of the same kernel instantiated at one lane
//! (`activity_packed_one_lane`): the wide/one-lane throughput **ratio**
//! compares two runs on the same machine in the same process, so like the
//! work ratio it survives slow CI hardware, and on the primary wallace
//! workload it must clear [`MIN_WIDE_RATIO`] (wall-clock rescue:
//! [`WIDE_RESCUE_PATTERNS_PER_SEC`]). The `--jobs 4` speedup gate
//! [`MIN_SPEEDUP_4CORE`] fires only when that run actually had 4 cores to
//! itself (`oversubscribed: false`).

use std::fmt::Write as _;

use bench::harness;
use lowpower::netlist::gen;
use lowpower::obs::Obs;
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::seq::SeqSim;
use lowpower::sim::stimulus::{PatternSet, Stimulus};
use lowpower::sim::ActivityProfile;

/// Thread counts swept per workload (independent of the host core count:
/// oversubscribed runs still complete and stay bit-identical).
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// `--check`: highest acceptable event work ratio. Measured ~0.59 on the
/// glitch workload and ~0.57 on the balanced adder (the rest of a naive
/// engine's events are fanout visits that change nothing); 0.75 leaves
/// headroom without letting the win erode to nothing.
const MAX_WORK_RATIO: f64 = 0.75;

/// `--check`: required `--jobs 4` speedup, enforced only when the 4-job
/// run was not oversubscribed (an oversubscribed sweep says nothing
/// about sharding).
const MIN_SPEEDUP_4CORE: f64 = 1.5;

/// `--check`: required serial wide/one-lane throughput ratio on the
/// primary comb workload (`comb/wallace_multiplier_8`). The 256-bit
/// instantiation evaluates four blocks per sweep; 2x leaves room for
/// memory-bound netlists while still proving the lanes are engaged. Ratio
/// of two runs in the same process, so it is robust to slow CI hardware.
const MIN_WIDE_RATIO: f64 = 2.0;

/// `--check`: wall-clock rescue for a wide-ratio miss — 2.5x the
/// pre-wide committed wallace baseline of ~15.2M patterns/s. A host fast
/// enough to clear this absolute bar has nothing to prove about lanes.
const WIDE_RESCUE_PATTERNS_PER_SEC: f64 = 38_000_000.0;

/// Workload gated by [`MIN_WIDE_RATIO`].
const WIDE_PRIMARY_WORKLOAD: &str = "comb/wallace_multiplier_8";

struct Run {
    jobs: usize,
    seconds: f64,
    patterns_per_sec: f64,
    speedup: f64,
    bit_identical: bool,
    /// More workers than host cores: timing reflects oversubscription,
    /// not sharding quality.
    oversubscribed: bool,
}

/// Serial-run obs counters for an event workload.
struct EventStats {
    processed: u64,
    enqueued: u64,
    cancelled: u64,
    coalesced: u64,
    /// `processed / (processed + coalesced)`: transitions per event a
    /// naive engine would have enqueued. Deterministic.
    work_ratio: f64,
}

/// Serial wide-vs-one-lane comparison for a comb workload.
struct WideStats {
    /// Serial throughput of the kernel instantiated at one lane.
    one_lane_patterns_per_sec: f64,
    /// Serial wide throughput / one-lane throughput (same process, same
    /// machine — robust to absolute host speed).
    ratio: f64,
}

struct Workload {
    name: &'static str,
    patterns: usize,
    runs: Vec<Run>,
    events: Option<EventStats>,
    wide: Option<WideStats>,
}

/// Exact bit pattern of a profile: the determinism contract is that these
/// match for every thread count, not merely agree to within epsilon.
fn profile_bits(p: &ActivityProfile) -> Vec<u64> {
    p.toggles
        .iter()
        .chain(p.probability.iter())
        .map(|x| x.to_bits())
        .collect()
}

/// One untimed call for the profile, then [`harness::per_call`]'s seconds
/// per call.
fn time(f: impl Fn() -> ActivityProfile) -> (f64, ActivityProfile) {
    let profile = f();
    let seconds = harness::per_call(|| {
        std::hint::black_box(f());
    });
    (seconds, profile)
}

fn measure(
    name: &'static str,
    patterns: usize,
    host_cores: usize,
    f: impl Fn(usize) -> ActivityProfile,
) -> Workload {
    let (serial_secs, serial_profile) = time(|| f(1));
    let serial_bits = profile_bits(&serial_profile);
    let runs = JOBS
        .iter()
        .map(|&jobs| {
            let (seconds, profile) = if jobs == 1 {
                (serial_secs, serial_profile.clone())
            } else {
                time(|| f(jobs))
            };
            Run {
                jobs,
                seconds,
                patterns_per_sec: patterns as f64 / seconds,
                speedup: serial_secs / seconds,
                bit_identical: profile_bits(&profile) == serial_bits,
                oversubscribed: jobs > host_cores,
            }
        })
        .collect();
    Workload {
        name,
        patterns,
        runs,
        events: None,
        wide: None,
    }
}

/// One serial obs-enabled run to collect the event engine's counters.
fn event_stats(nl: &lowpower::netlist::Netlist, patterns: &PatternSet) -> EventStats {
    let obs = Obs::enabled();
    let sim = EventSim::new(nl, &DelayModel::Unit).with_obs(obs.clone());
    let _ = sim.activity_jobs(patterns, 1);
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let (processed, coalesced) = (counter("sim.event.processed"), counter("sim.event.coalesced"));
    EventStats {
        processed,
        enqueued: counter("sim.event.enqueued"),
        cancelled: counter("sim.event.cancelled"),
        coalesced,
        work_ratio: processed as f64 / (processed + coalesced).max(1) as f64,
    }
}

fn workloads(host_cores: usize) -> Vec<Workload> {
    let cycles = 4096;
    let (wallace, _) = gen::wallace_multiplier(8);
    let (ks, _) = gen::kogge_stone_adder(16);
    let (mult, _) = gen::array_multiplier(6);
    let pipe = gen::pipelined_multiplier(4);

    let wallace_pat = Stimulus::uniform(wallace.num_inputs()).patterns(cycles, 5);
    let ks_pat = Stimulus::uniform(ks.num_inputs()).patterns(cycles, 5);
    let glitch_pat = Stimulus::uniform(mult.num_inputs()).patterns(cycles / 4, 5);
    let event_ks_pat = Stimulus::uniform(ks.num_inputs()).patterns(cycles / 4, 5);
    let seq_pat = Stimulus::uniform(pipe.num_inputs()).patterns(cycles / 2, 5);

    let comb_wallace = CombSim::new(&wallace);
    let comb_ks = CombSim::new(&ks);
    let event_mult = EventSim::new(&mult, &DelayModel::Unit);
    let event_ks = EventSim::new(&ks, &DelayModel::Unit);
    let seq_pipe = SeqSim::new(&pipe);

    let mut loads = vec![
        measure("comb/wallace_multiplier_8", wallace_pat.len(), host_cores, |jobs| {
            comb_wallace.activity_jobs(&wallace_pat, jobs)
        }),
        measure("comb/kogge_stone_adder_16", ks_pat.len(), host_cores, |jobs| {
            comb_ks.activity_jobs(&ks_pat, jobs)
        }),
        // The glitch workload: event-driven timing simulation of an
        // unbalanced array multiplier, where most events are spurious.
        measure("event_glitch/array_multiplier_6", glitch_pat.len(), host_cores, |jobs| {
            event_mult.activity_jobs(&glitch_pat, jobs).total
        }),
        measure("event/kogge_stone_adder_16", event_ks_pat.len(), host_cores, |jobs| {
            event_ks.activity_jobs(&event_ks_pat, jobs).total
        }),
        measure("seq/pipelined_multiplier_4", seq_pat.len(), host_cores, |jobs| {
            seq_pipe.activity_jobs(&seq_pat, jobs).profile
        }),
    ];
    for (name, nl, pat) in [
        ("event_glitch/array_multiplier_6", &mult, &glitch_pat),
        ("event/kogge_stone_adder_16", &ks, &event_ks_pat),
    ] {
        if let Some(wl) = loads.iter_mut().find(|wl| wl.name == name) {
            wl.events = Some(event_stats(nl, pat));
        }
    }
    // Serial wide-vs-one-lane ratio on the comb workloads: same netlist,
    // same stream, same kernel at `L = LANES` and at `L = 1`. The two
    // sides are timed interleaved by `harness::paired` — a comb rep is
    // sub-millisecond, so measuring the sides minutes apart (as reusing
    // the main sweep's serial time would) lets box-level drift pollute
    // the ratio the gate rides on.
    for (name, sim, pat) in [
        ("comb/wallace_multiplier_8", &comb_wallace, &wallace_pat),
        ("comb/kogge_stone_adder_16", &comb_ks, &ks_pat),
    ] {
        // Pre-pack once: pattern packing costs the same on both sides and
        // would only dilute the evaluation ratio the gate is about.
        let packed = lowpower::sim::stimulus::PackedPatterns::pack(pat);
        let (wide_secs, one_lane_secs) = harness::paired(
            || {
                let _ = sim.activity_packed(&packed);
            },
            || {
                let _ = sim.activity_packed_one_lane(&packed);
            },
        );
        if let Some(wl) = loads.iter_mut().find(|wl| wl.name == name) {
            wl.wide = Some(WideStats {
                one_lane_patterns_per_sec: pat.len() as f64 / one_lane_secs,
                ratio: one_lane_secs / wide_secs,
            });
        }
    }
    loads
}

fn to_json(host_cores: usize, loads: &[Workload]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"sim\",");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        out,
        "  \"jobs_swept\": [{}],",
        JOBS.map(|j| j.to_string()).join(",")
    );
    out.push_str("  \"workloads\": [\n");
    for (w, wl) in loads.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", wl.name);
        let _ = writeln!(out, "      \"patterns\": {},", wl.patterns);
        if let Some(ev) = &wl.events {
            let _ = writeln!(
                out,
                "      \"events\": {{\"processed\": {}, \"enqueued\": {}, \"cancelled\": {}, \
                 \"coalesced\": {}, \"work_ratio\": {:.4}}},",
                ev.processed, ev.enqueued, ev.cancelled, ev.coalesced, ev.work_ratio
            );
        }
        if let Some(w) = &wl.wide {
            let _ = writeln!(
                out,
                "      \"wide\": {{\"one_lane_patterns_per_sec\": {:.1}, \"ratio\": {:.3}}},",
                w.one_lane_patterns_per_sec, w.ratio
            );
        }
        out.push_str("      \"runs\": [\n");
        for (r, run) in wl.runs.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"jobs\": {}, \"seconds\": {:.6}, \"patterns_per_sec\": {:.1}, \
                 \"speedup\": {:.3}, \"bit_identical\": {}, \"oversubscribed\": {}}}",
                run.jobs,
                run.seconds,
                run.patterns_per_sec,
                run.speedup,
                run.bit_identical,
                run.oversubscribed
            );
            out.push_str(if r + 1 < wl.runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if w + 1 < loads.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (out_path, check) = harness::args("BENCH_sim.json");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loads = workloads(host_cores);
    let json = to_json(host_cores, &loads);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!("wrote {out_path} (host cores: {host_cores})");
    for wl in &loads {
        let serial = wl.runs[0].patterns_per_sec;
        let best = wl
            .runs
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("runs nonempty");
        let deterministic = wl.runs.iter().all(|r| r.bit_identical);
        println!(
            "  {:<36} {:>10.0} pat/s serial, best {:.2}x at {} jobs, bit-identical: {}",
            wl.name, serial, best.speedup, best.jobs, deterministic
        );
        if let Some(ev) = &wl.events {
            println!(
                "  {:<36} {:>10} events processed, work ratio {:.3}",
                "", ev.processed, ev.work_ratio
            );
        }
        if let Some(w) = &wl.wide {
            println!(
                "  {:<36} {:>10.0} pat/s at one lane, wide ratio {:.2}x",
                "", w.one_lane_patterns_per_sec, w.ratio
            );
        }
    }

    if check {
        let mut ok = true;
        for wl in &loads {
            for run in &wl.runs {
                if !run.bit_identical {
                    eprintln!(
                        "check FAILED: {} at {} jobs diverged bitwise from serial",
                        wl.name, run.jobs
                    );
                    ok = false;
                }
            }
            if let Some(ev) = &wl.events {
                if ev.processed != ev.enqueued {
                    eprintln!(
                        "check FAILED: {} processed {} != enqueued {}",
                        wl.name, ev.processed, ev.enqueued
                    );
                    ok = false;
                }
                if ev.cancelled > ev.processed {
                    eprintln!(
                        "check FAILED: {} cancelled {} > processed {}",
                        wl.name, ev.cancelled, ev.processed
                    );
                    ok = false;
                }
                if ev.work_ratio > MAX_WORK_RATIO {
                    eprintln!(
                        "check FAILED: {} work ratio {:.3} > {MAX_WORK_RATIO}",
                        wl.name, ev.work_ratio
                    );
                    ok = false;
                }
            }
            if let Some(w) = &wl.wide {
                // Like the work ratio, the wide ratio compares two runs
                // on the same host, so it is the primary criterion; the
                // absolute bar rescues machines whose memory system (not
                // ALU width) bounds the packed sweep.
                let serial = wl.runs[0].patterns_per_sec;
                if wl.name == WIDE_PRIMARY_WORKLOAD
                    && w.ratio < MIN_WIDE_RATIO
                    && serial < WIDE_RESCUE_PATTERNS_PER_SEC
                {
                    eprintln!(
                        "check FAILED: {} wide/one-lane ratio {:.2}x < {MIN_WIDE_RATIO}x and \
                         serial {serial:.0} pat/s < {WIDE_RESCUE_PATTERNS_PER_SEC:.0}",
                        wl.name, w.ratio
                    );
                    ok = false;
                }
            }
            // Only a non-oversubscribed 4-job run says anything about
            // sharding quality; on smaller hosts the run still executes
            // (bit-identity above) but its timing is not gated.
            if let Some(run4) = wl.runs.iter().find(|r| r.jobs == 4 && !r.oversubscribed) {
                if run4.speedup < MIN_SPEEDUP_4CORE {
                    eprintln!(
                        "check FAILED: {} speedup {:.2}x at 4 jobs < {MIN_SPEEDUP_4CORE}x \
                         on a {host_cores}-core host",
                        wl.name, run4.speedup
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check ok: event rewrite holds its win, wide lanes engaged, shards stay bit-identical"
        );
    }
}
