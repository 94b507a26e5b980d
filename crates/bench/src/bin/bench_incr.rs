//! `bench_incr` — incremental-evaluation regression harness.
//!
//! Times the optimization inner loops that the incremental engines
//! accelerate, from-scratch (or the engine's own `force_full` twin) vs
//! incremental, on the golden circuits:
//!
//! * **balance-sweep** (`mult4`): tighten the skew threshold from the
//!   circuit depth down to 0, measuring glitch activity after every step.
//!   From-scratch rebalances and re-simulates the whole netlist per
//!   threshold; the incremental sweep applies `tighten_balance_delta`
//!   against one resident [`IncrementalEventSim`].
//! * **sizing-loop** (`mult4`): `downsize_for_power` on a `StaCache`
//!   that re-times only the resized gate's cone vs its `force_full` twin
//!   that re-times every gate per shrink trial.
//! * **dontcare-pass** (`rand40`, a seeded random DAG with genuine
//!   observability don't-cares — the arithmetic goldens have none): the
//!   simulation-driven don't-care pass judging every rewrite on a resident
//!   `IncrementalSim` vs its `force_full` twin that re-evaluates the whole
//!   netlist per candidate.
//! * **rewrite-search** (`rand200`, a larger seeded random DAG, and
//!   `wallace8`, the 8-bit Wallace-tree multiplier): the activity-driven
//!   rewriting search on its resident incremental engine vs its
//!   `force_full` twin that makes identical decisions while re-evaluating
//!   and re-timing the whole netlist per speculative move, and rebuilding
//!   every gate's circuit BDD per changed enumeration. Besides the work
//!   ratio these sections record a timing ratio (unit-size arrival times
//!   the engine recomputed per arrival the twin recomputed), a BDD ratio
//!   (gates the search's resident circuit BDDs built per gate the twin
//!   built) and where the search's don't-care candidates went.
//! * **rewrite-flow** (same circuits): the combined rewriting pass
//!   (rewrite → balance → size) against the sequential pipeline
//!   (balance → don't-cares → size), both sized to one shared delay
//!   constraint, compared on glitch-aware switched capacitance. Each flow
//!   also records where the sequential pipeline's don't-care candidates
//!   went: settled by the simulation witness, unreachable, settled by the
//!   probability bound, or through the full BDD analysis.
//!
//! Emits `BENCH_incr.json` (override with the first non-flag argument).
//!
//! ```text
//! cargo run --release -p bench --bin bench_incr [out.json] [--check]
//! ```
//!
//! With `--check` the harness exits nonzero unless every section holds
//! its headline win: a work ratio (incremental evaluations per
//! from-scratch evaluation) of at most 1/3, and on the rewrite-search
//! sections timing and BDD ratios of at most 1/2 and at most two full
//! don't-care analyses per rewrite they found. All of these are
//! deterministic counts, so the check means the same on a noisy CI box;
//! wall-clock times are reported, never gated. Result identity (bitwise
//! sizes, bitwise capacitance, glitch totals to 1e-9, node-for-node
//! netlists and equal move and don't-care candidate counts from the
//! rewrite twins) is always enforced, as are the rewrite-flow
//! criteria: combined switched capacitance no worse than the sequential
//! pipeline's at the shared delay constraint, and on wallace8 at most 150
//! full BDD don't-care analyses in the sequential pipeline (a
//! deterministic count).

use std::fmt::Write as _;
use std::time::Instant;

use bench::harness;
use budget::ResourceBudget;
use circuit::sizing::{SizedCircuit, StaCache};
use logicopt::balance::{balance_delta, balance_paths, tighten_balance_delta};
use logicopt::dontcare::{
    optimize_dontcares_sim, optimize_dontcares_sim_with, CandidateCounts, DontCareSimReport,
};
use logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use netlist::Netlist;
use sim::event::{DelayModel, EventSim};
use sim::incr::{IncrementalEventSim, IncrementalSim};
use sim::stimulus::{PackedPatterns, Stimulus};

const CYCLES: usize = 256;
const SEED: u64 = 42;

struct Section {
    name: &'static str,
    circuit: &'static str,
    scratch_seconds: f64,
    incr_seconds: f64,
    speedup: f64,
    /// Incremental work per from-scratch work (lower is better;
    /// deterministic, unlike wall time).
    work_ratio: f64,
    /// What the work ratio counts.
    work_unit: &'static str,
    /// Arrival times recomputed per arrival the force-full twin
    /// recomputed (rewrite-search only; deterministic).
    timing_ratio: Option<f64>,
    /// Circuit-BDD gates built per gate the force-full twin built
    /// (rewrite-search only; deterministic).
    bdd_ratio: Option<f64>,
    /// Where the search's don't-care candidates went (rewrite-search
    /// only; deterministic).
    dontcare_candidates: Option<CandidateCounts>,
    identical: bool,
}

/// `counts` as one JSON object.
fn candidates_json(c: &CandidateCounts) -> String {
    format!(
        "{{\"witnessed\": {}, \"unreachable\": {}, \"unprofitable\": {}, \"analyzed\": {}, \
         \"rewritten\": {}}}",
        c.witnessed, c.unreachable, c.unprofitable, c.analyzed, c.rewritten
    )
}

/// From-scratch balance sweep: rebalance and fully re-simulate per
/// threshold. Returns the glitch totals the incremental sweep must match.
fn balance_scratch(nl: &Netlist, patterns: &sim::stimulus::PatternSet, sweep: &[usize]) -> Vec<f64> {
    sweep
        .iter()
        .map(|&t| {
            let (balanced, _) = balance_paths(nl, t);
            EventSim::new(&balanced, &DelayModel::Unit)
                .activity(patterns)
                .total_glitches_per_cycle()
        })
        .collect()
}

/// Incremental balance sweep: one resident engine, deltas only. Also
/// returns the nets the functional layer re-evaluated (dirty cones plus
/// the initial build counted as one whole-netlist evaluation). The balance
/// work ratio counts only those: the event layer re-times every net of
/// the edited netlist per delta with one `EventSim` run.
fn balance_incr(nl: &Netlist, packed: &PackedPatterns, sweep: &[usize]) -> (Vec<f64>, u64) {
    let levels = nl.levels().expect("acyclic");
    let mut engine = IncrementalEventSim::from_full_eval(nl, &DelayModel::Unit, packed);
    let mut current = nl.clone();
    let mut from = usize::MAX;
    let glitches = sweep
        .iter()
        .map(|&t| {
            let (delta, _) = if from == usize::MAX {
                balance_delta(nl, &levels, t)
            } else {
                tighten_balance_delta(&current, nl.len(), &levels, from, t)
            };
            from = t;
            if !delta.is_empty() {
                delta.apply_to(&mut current);
                engine.apply_delta(&delta);
            }
            engine.activity().total_glitches_per_cycle()
        })
        .collect();
    (glitches, engine.stats().nets_reevaluated + nl.len() as u64)
}

fn bench_balance() -> Section {
    let nl = harness::golden("mult4");
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(CYCLES, SEED);
    let packed = PackedPatterns::pack(&patterns);
    let sweep: Vec<usize> = (0..=nl.depth()).rev().collect();

    let scratch = balance_scratch(&nl, &patterns, &sweep);
    let (incr, reevaluated) = balance_incr(&nl, &packed, &sweep);
    // The tightened netlist is isomorphic (not id-identical) to the
    // one-shot result, so glitch totals match to rounding, not bits.
    let identical = scratch
        .iter()
        .zip(&incr)
        .all(|(a, b)| (a - b).abs() < 1e-9);

    // From-scratch evaluates every net at every threshold (plus buffers,
    // uncounted — the ratio is conservative).
    let scratch_evals = (sweep.len() * nl.len()) as u64;
    let scratch_seconds = harness::per_call(|| {
        std::hint::black_box(balance_scratch(&nl, &patterns, &sweep));
    });
    let incr_seconds = harness::per_call(|| {
        std::hint::black_box(balance_incr(&nl, &packed, &sweep));
    });
    Section {
        name: "balance-sweep",
        circuit: "mult4",
        scratch_seconds,
        incr_seconds,
        speedup: scratch_seconds / incr_seconds,
        work_ratio: reevaluated as f64 / scratch_evals as f64,
        work_unit: "net evaluations",
        timing_ratio: None,
        bdd_ratio: None,
        dontcare_candidates: None,
        identical,
    }
}

/// `downsize_for_power` from size 4 on a cache with the given
/// `force_full`; returns the final sizes and the cache.
fn downsize(nl: &Netlist, constraint: f64, force_full: bool) -> (Vec<f64>, StaCache) {
    let mut c = SizedCircuit::new(nl, 4.0);
    let mut sta = c.sta_cache();
    sta.set_force_full(force_full);
    c.downsize_for_power_with(constraint, &mut sta);
    (c.sizes, sta)
}

fn bench_sizing() -> Section {
    let nl = harness::golden("mult4");
    let fastest = SizedCircuit::new(&nl, 4.0).timing(1e9).critical;
    let constraint = fastest * 1.15;

    let (full_sizes, full_sta) = downsize(&nl, constraint, true);
    let (sizes, sta) = downsize(&nl, constraint, false);
    let identical = full_sizes
        .iter()
        .zip(&sizes)
        .all(|(a, b)| a.to_bits() == b.to_bits());

    // The twin re-times every gate per shrink trial; the cache only
    // touches the resized gate's fanout cone.
    let scratch_seconds = harness::per_call(|| {
        std::hint::black_box(downsize(&nl, constraint, true));
    });
    let incr_seconds = harness::per_call(|| {
        std::hint::black_box(downsize(&nl, constraint, false));
    });
    Section {
        name: "sizing-loop",
        circuit: "mult4",
        scratch_seconds,
        incr_seconds,
        speedup: scratch_seconds / incr_seconds,
        work_ratio: sta.arrival_evals as f64 / full_sta.arrival_evals.max(1) as f64,
        work_unit: "arrival-time evaluations",
        timing_ratio: None,
        bdd_ratio: None,
        dontcare_candidates: None,
        identical,
    }
}

/// The simulation-driven don't-care pass on an engine with the given
/// `force_full`; returns the optimized netlist and the report.
fn dontcare(
    nl: &Netlist,
    probs: &[f64],
    packed: &PackedPatterns,
    force_full: bool,
) -> (Netlist, DontCareSimReport) {
    let mut engine = IncrementalSim::from_full_eval(nl, packed);
    engine.set_force_full(force_full);
    let report = optimize_dontcares_sim_with(&mut engine, probs, 5);
    (engine.netlist().clone(), report)
}

fn bench_dontcare() -> Section {
    // The arithmetic goldens are don't-care-free; a seeded random DAG
    // exercises the accept/rollback loop for real (12 candidates, 8
    // accepted at this seed).
    let config = netlist::gen::RandomDagConfig {
        inputs: 6,
        gates: 40,
        outputs: 3,
        max_fanin: 3,
        window: 10,
    };
    let nl = netlist::gen::random_dag(&config, 21);
    let probs = vec![0.5; nl.num_inputs()];
    let packed = Stimulus::uniform(nl.num_inputs()).packed(CYCLES, SEED);

    let (incr_nl, incr_report) = dontcare(&nl, &probs, &packed, false);
    let (full_nl, full_report) = dontcare(&nl, &probs, &packed, true);
    let identical = incr_report.cap_after.to_bits() == full_report.cap_after.to_bits()
        && incr_report.nodes_changed == full_report.nodes_changed
        && incr_nl.len() == full_nl.len()
        && incr_nl
            .iter_nets()
            .all(|n| incr_nl.kind(n) == full_nl.kind(n) && incr_nl.fanins(n) == full_nl.fanins(n));

    // Each candidate rewrite costs the twin a whole-netlist
    // re-evaluation; the engine replays the rewrite's fanout cone.
    let scratch_seconds = harness::per_call(|| {
        std::hint::black_box(dontcare(&nl, &probs, &packed, true));
    });
    let incr_seconds = harness::per_call(|| {
        std::hint::black_box(dontcare(&nl, &probs, &packed, false));
    });
    Section {
        name: "dontcare-pass",
        circuit: "rand40",
        scratch_seconds,
        incr_seconds,
        speedup: scratch_seconds / incr_seconds,
        work_ratio: incr_report.nets_reevaluated as f64
            / full_report.nets_reevaluated.max(1) as f64,
        work_unit: "net evaluations",
        timing_ratio: None,
        bdd_ratio: None,
        dontcare_candidates: None,
        identical,
    }
}

/// The larger random DAG the search sections run on: enough gates that
/// search-phase wins clear timer noise, wide enough (16 inputs, window
/// 24) that edit cones stay local instead of sweeping the whole DAG.
fn rand200() -> Netlist {
    let config = netlist::gen::RandomDagConfig {
        inputs: 16,
        gates: 200,
        outputs: 8,
        max_fanin: 3,
        window: 24,
    };
    netlist::gen::random_dag(&config, 7)
}

fn search_config() -> RewriteConfig {
    RewriteConfig {
        max_fanin: 5,
        ..RewriteConfig::default()
    }
}

/// Rewriting search on the resident incremental engine vs the
/// `force_full` twin: same moves, same decisions, whole-netlist
/// re-evaluation and re-timing per speculative apply and a fresh
/// circuit-BDD build per changed enumeration.
fn bench_rewrite_search(circuit: &'static str, nl: &Netlist) -> Section {
    let probs = vec![0.5; nl.num_inputs()];
    let packed = Stimulus::uniform(nl.num_inputs()).packed(CYCLES, SEED);
    let cfg = search_config();
    let full_cfg = RewriteConfig {
        force_full: true,
        ..cfg.clone()
    };

    let unlimited = ResourceBudget::unlimited();
    let search =
        |cfg| try_rewrite_sim(nl, &probs, &packed, &unlimited, cfg).expect("unlimited budget");
    let (incr_nl, incr_report) = search(&cfg);
    let (full_nl, full_report) = search(&full_cfg);
    let identical = incr_report.cap_after.to_bits() == full_report.cap_after.to_bits()
        && incr_report.chains_accepted == full_report.chains_accepted
        && incr_report.tried == full_report.tried
        && incr_report.accepted == full_report.accepted
        && incr_report.dontcare_candidates == full_report.dontcare_candidates
        && incr_nl.len() == full_nl.len()
        && incr_nl
            .iter_nets()
            .all(|n| incr_nl.kind(n) == full_nl.kind(n) && incr_nl.fanins(n) == full_nl.fanins(n));

    let scratch_seconds = harness::per_call(|| {
        std::hint::black_box(search(&full_cfg));
    });
    let incr_seconds = harness::per_call(|| {
        std::hint::black_box(search(&cfg));
    });
    Section {
        name: "rewrite-search",
        circuit,
        scratch_seconds,
        incr_seconds,
        speedup: scratch_seconds / incr_seconds,
        work_ratio: incr_report.nets_reevaluated as f64 / full_report.nets_reevaluated.max(1) as f64,
        work_unit: "net evaluations",
        timing_ratio: Some(
            incr_report.arrivals_retimed as f64 / full_report.arrivals_retimed.max(1) as f64,
        ),
        bdd_ratio: Some(
            incr_report.bdd_gates_built as f64 / full_report.bdd_gates_built.max(1) as f64,
        ),
        dontcare_candidates: Some(incr_report.dontcare_candidates),
        identical,
    }
}

/// One combined-vs-sequential quality comparison at a shared delay
/// constraint.
struct FlowSection {
    circuit: &'static str,
    /// Shared timing constraint both variants are sized to (1.15x the
    /// slower variant's fastest achievable critical path at max size).
    constraint: f64,
    /// Glitch-aware switched capacitance, balance → don't-cares → size.
    sequential_cap: f64,
    /// Glitch-aware switched capacitance, rewrite → balance → size.
    combined_cap: f64,
    /// Single-run pipeline seconds (the flow runs once; speed claims live
    /// in the rewrite-search section).
    sequential_seconds: f64,
    combined_seconds: f64,
    /// Both sized variants meet the shared constraint.
    meets_constraint: bool,
    /// Where the sequential pipeline's don't-care candidates went.
    sequential_candidates: CandidateCounts,
    /// Bound on the sequential pipeline's full BDD analyses, if gated.
    max_analyses: Option<u64>,
}

/// Size `nl` for minimum power at `constraint` and report its switched
/// capacitance under unit-delay event activity (glitches included).
fn sized_cap(nl: &Netlist, patterns: &sim::stimulus::PatternSet, constraint: f64) -> (f64, bool) {
    let mut sized = SizedCircuit::new(nl, 4.0);
    sized.downsize_for_power(constraint);
    let activity = EventSim::new(nl, &DelayModel::Unit).activity(patterns).total;
    (
        sized.switched_capacitance(&activity),
        sized.timing(constraint).critical <= constraint + 1e-9,
    )
}

fn bench_rewrite_flow(
    circuit: &'static str,
    nl: &Netlist,
    max_analyses: Option<u64>,
) -> FlowSection {
    let probs = vec![0.5; nl.num_inputs()];
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(CYCLES, SEED);
    let packed = PackedPatterns::pack(&patterns);

    let start = Instant::now();
    let (balanced, _) = balance_paths(nl, 0);
    let (seq_nl, seq_report) = optimize_dontcares_sim(&balanced, &probs, 5, &packed);
    let sequential_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let unlimited = ResourceBudget::unlimited();
    let (rewritten, _) = try_rewrite_sim(nl, &probs, &packed, &unlimited, &search_config())
        .expect("unlimited budget");
    let (comb_nl, _) = balance_paths(&rewritten, 0);
    let combined_seconds = start.elapsed().as_secs_f64();

    // Equal delay: one constraint, derived from whichever variant is
    // slower at maximum drive, with the sizing benches' usual 15% margin.
    let fastest = |n: &Netlist| SizedCircuit::new(n, 4.0).timing(1e9).critical;
    let constraint = 1.15 * fastest(&seq_nl).max(fastest(&comb_nl));
    let (sequential_cap, seq_ok) = sized_cap(&seq_nl, &patterns, constraint);
    let (combined_cap, comb_ok) = sized_cap(&comb_nl, &patterns, constraint);
    FlowSection {
        circuit,
        constraint,
        sequential_cap,
        combined_cap,
        sequential_seconds,
        combined_seconds,
        meets_constraint: seq_ok && comb_ok,
        sequential_candidates: seq_report.candidates,
        max_analyses,
    }
}

fn to_json(sections: &[Section], flows: &[FlowSection]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"incr\",\n");
    out.push_str(
        "  \"baseline\": \"from-scratch re-simulation (balance) / force_full twin \
         (sizing, dontcare, rewrite) per candidate edit\",\n",
    );
    out.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
        let _ = writeln!(out, "      \"circuit\": \"{}\",", s.circuit);
        let _ = writeln!(out, "      \"scratch_seconds\": {:.3e},", s.scratch_seconds);
        let _ = writeln!(out, "      \"incr_seconds\": {:.3e},", s.incr_seconds);
        let _ = writeln!(out, "      \"speedup\": {:.3},", s.speedup);
        let _ = writeln!(out, "      \"work_ratio\": {:.4},", s.work_ratio);
        let _ = writeln!(out, "      \"work_unit\": \"{}\",", s.work_unit);
        if let Some(t) = s.timing_ratio {
            let _ = writeln!(out, "      \"timing_ratio\": {t:.4},");
        }
        if let Some(b) = s.bdd_ratio {
            let _ = writeln!(out, "      \"bdd_ratio\": {b:.4},");
        }
        if let Some(c) = &s.dontcare_candidates {
            let c = candidates_json(c);
            let _ = writeln!(out, "      \"dontcare_candidates\": {c},");
        }
        let _ = writeln!(out, "      \"identical\": {}", s.identical);
        out.push_str(if i + 1 < sections.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"flow_sections\": [\n");
    for (i, f) in flows.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"rewrite-flow\",");
        let _ = writeln!(out, "      \"circuit\": \"{}\",", f.circuit);
        let _ = writeln!(out, "      \"constraint\": {:.4},", f.constraint);
        let _ = writeln!(out, "      \"sequential_cap\": {:.4},", f.sequential_cap);
        let _ = writeln!(out, "      \"combined_cap\": {:.4},", f.combined_cap);
        let _ = writeln!(
            out,
            "      \"sequential_seconds\": {:.3e},",
            f.sequential_seconds
        );
        let _ = writeln!(out, "      \"combined_seconds\": {:.3e},", f.combined_seconds);
        let c = candidates_json(&f.sequential_candidates);
        let _ = writeln!(out, "      \"sequential_candidates\": {c},");
        let _ = writeln!(out, "      \"meets_constraint\": {}", f.meets_constraint);
        out.push_str(if i + 1 < flows.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (out_path, check) = harness::args("BENCH_incr.json");

    let rand = rand200();
    let (wallace, _) = netlist::gen::wallace_multiplier(8);
    let sections = vec![
        bench_balance(),
        bench_sizing(),
        bench_dontcare(),
        bench_rewrite_search("rand200", &rand),
        bench_rewrite_search("wallace8", &wallace),
    ];
    let flows = vec![
        bench_rewrite_flow("rand200", &rand, None),
        bench_rewrite_flow("wallace8", &wallace, Some(150)),
    ];
    std::fs::write(&out_path, to_json(&sections, &flows)).expect("write benchmark JSON");

    println!("wrote {out_path}");
    for s in &sections {
        let timing = s
            .timing_ratio
            .map(|t| format!("timing {:.1}% of scratch  ", t * 100.0))
            .unwrap_or_default();
        let bdd = s
            .bdd_ratio
            .map(|b| format!("bdd {:.1}% of scratch  ", b * 100.0))
            .unwrap_or_default();
        let dontcare = s
            .dontcare_candidates
            .map(|c| {
                format!(
                    "{} don't-care analyses for {} rewrites  ",
                    c.analyzed, c.rewritten
                )
            })
            .unwrap_or_default();
        println!(
            "  {:<14} {:<8} scratch {:>9.3e} s  incr {:>9.3e} s ({:.2}x faster)  \
             work {:.1}% of scratch  {timing}{bdd}{dontcare}identical: {}",
            s.name,
            s.circuit,
            s.scratch_seconds,
            s.incr_seconds,
            s.speedup,
            s.work_ratio * 100.0,
            s.identical,
        );
    }
    for f in &flows {
        println!(
            "  {:<14} {:<8} sequential {:>8.1} fF/cycle  combined {:>8.1} fF/cycle \
             ({:+.1}%) at delay {:.1}  meets constraint: {}",
            "rewrite-flow",
            f.circuit,
            f.sequential_cap,
            f.combined_cap,
            100.0 * (f.combined_cap - f.sequential_cap) / f.sequential_cap,
            f.constraint,
            f.meets_constraint,
        );
        let c = f.sequential_candidates;
        println!(
            "  {:<14} {:<8} sequential don't-care candidates: {} witnessed, {} unreachable, \
             {} unprofitable, {} analyzed ({} rewritten)",
            "",
            f.circuit,
            c.witnessed,
            c.unreachable,
            c.unprofitable,
            c.analyzed,
            c.rewritten,
        );
    }

    if check {
        let mut ok = true;
        for s in &sections {
            if !s.identical {
                eprintln!(
                    "check FAILED: {} ({}) results diverged from from-scratch",
                    s.name, s.circuit
                );
                ok = false;
            }
        }
        for s in &sections {
            // The deterministic ratios decide alone; wall clock varies
            // with the host and is only reported.
            if s.work_ratio > 1.0 / 3.0 {
                eprintln!(
                    "check FAILED: {} ({}) work ratio {:.3} > 0.333",
                    s.name, s.circuit, s.work_ratio
                );
                ok = false;
            }
            if let Some(t) = s.timing_ratio.filter(|&t| t > 0.5) {
                eprintln!(
                    "check FAILED: {} ({}) timing ratio {t:.3} > 0.5",
                    s.name, s.circuit
                );
                ok = false;
            }
            if let Some(b) = s.bdd_ratio.filter(|&b| b > 0.5) {
                eprintln!(
                    "check FAILED: {} ({}) BDD ratio {b:.3} > 0.5",
                    s.name, s.circuit
                );
                ok = false;
            }
            // The witness and the probability bound settle every
            // candidate the analysis cannot pay for but a few.
            if let Some(c) = s
                .dontcare_candidates
                .filter(|c| c.analyzed > 2 * c.rewritten)
            {
                eprintln!(
                    "check FAILED: {} ({}) ran {} full don't-care analyses for {} rewrites \
                     (more than two per rewrite)",
                    s.name, s.circuit, c.analyzed, c.rewritten
                );
                ok = false;
            }
        }
        for f in &flows {
            // The combined pass must hold the ROADMAP's quality bar:
            // no worse than the sequential pipeline on switched
            // capacitance at the shared delay constraint. Both inputs
            // are deterministic, so equality-with-epsilon is stable.
            if !f.meets_constraint {
                eprintln!(
                    "check FAILED: rewrite-flow ({}) missed the shared delay constraint",
                    f.circuit
                );
                ok = false;
            }
            if f.combined_cap > f.sequential_cap + 1e-9 {
                eprintln!(
                    "check FAILED: rewrite-flow ({}) combined cap {:.4} exceeds sequential {:.4}",
                    f.circuit, f.combined_cap, f.sequential_cap
                );
                ok = false;
            }
            // The simulation witness settles nearly every don't-care
            // candidate before the BDD analysis; a deterministic count.
            if let Some(max) = f.max_analyses {
                if f.sequential_candidates.analyzed > max {
                    eprintln!(
                        "check FAILED: rewrite-flow ({}) sequential pipeline ran {} BDD \
                         analyses > {max}",
                        f.circuit, f.sequential_candidates.analyzed
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("check ok: incremental engines hold their win");
    }
}
