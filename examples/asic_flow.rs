//! A complete "synthesis flow" walk-through: one datapath block taken from
//! RTL-ish generation through every logic-level stage the survey covers.
//!
//! ```text
//! cargo run --example asic_flow
//! ```
//!
//! Stages: architecture exploration (array vs Wallace multiplier), then on
//! a comparator block: don't-care optimization (§III.A.1) → selective path
//! balancing (§III.A.2, threshold chosen by measurement) → technology
//! mapping for power (§III.B, reported at cell level, where internal nets
//! are hidden inside cells) → glitch-aware power sign-off.

use lowpower::budget::ResourceBudget;
use lowpower::logicopt::balance::balance_paths;
use lowpower::logicopt::dontcare::{try_optimize_dontcares, Mode};
use lowpower::logicopt::mapping::{map, standard_library, MapObjective};
use lowpower::netlist::gen::{array_multiplier, comparator_gt, wallace_multiplier};
use lowpower::netlist::{Netlist, NetlistStats};
use lowpower::power::exact::CircuitBddCache;
use lowpower::power::model::{PowerParams, PowerReport};
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::stimulus::Stimulus;

fn measure(nl: &Netlist, params: &PowerParams) -> (PowerReport, f64, f64) {
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(512, 21);
    let timing = EventSim::new(nl, &DelayModel::Unit).activity(&patterns);
    (
        PowerReport::from_activity(nl, &timing.total, params),
        timing.glitch_fraction(),
        timing.total.switched_capacitance(nl),
    )
}

fn main() {
    let params = PowerParams::default();

    println!("== architecture exploration: 6x6 multiplier ==");
    for (label, nl) in [
        ("array  ", array_multiplier(6).0),
        ("wallace", wallace_multiplier(6).0),
    ] {
        let (report, glitch, _) = measure(&nl, &params);
        println!(
            "  {label}: depth {:>2}, {}  (glitch {:.0}%)",
            nl.depth(),
            report,
            100.0 * glitch
        );
    }
    println!("  -> pick the Wallace tree: same function, ~30% less power\n");

    // Take the comparator (small enough for the BDD passes) through the
    // logic-level flow.
    let (rtl, _) = comparator_gt(6);
    println!("== logic-level flow on {} ==", rtl.name());
    println!("  0 rtl:       {}", NetlistStats::of(&rtl));

    // 1. Don't-care optimization.
    let probs = vec![0.5; rtl.num_inputs()];
    let mut cache = CircuitBddCache::new();
    let unlimited = ResourceBudget::unlimited();
    let (after_dc, dc_report) =
        try_optimize_dontcares(&rtl, &probs, Mode::FanoutAware, 6, &mut cache, &unlimited)
            .expect("unlimited budget");
    println!(
        "  1 dontcare:  {} nodes rewritten, est. cap {:.1} -> {:.1} fF/cycle",
        dc_report.nodes_changed, dc_report.cap_before, dc_report.cap_after
    );

    // 2. Selective path balancing: sweep thresholds, keep the best by
    //    *measured* switched capacitance (the survey's "minimal number of
    //    buffers" point).
    let mut best: Option<(usize, Netlist, f64, usize)> = None;
    for threshold in [usize::MAX / 2, 6, 3, 1, 0] {
        let (candidate, report) = balance_paths(&after_dc, threshold);
        let (_, _, cap) = measure(&candidate, &params);
        if best.as_ref().map(|&(_, _, c, _)| cap < c).unwrap_or(true) {
            best = Some((threshold, candidate, cap, report.buffers_added));
        }
    }
    let (threshold, balanced, cap, buffers) = best.expect("sweep nonempty");
    println!(
        "  2 balance:   best threshold {} ({} buffers) -> {:.1} fF/cycle measured",
        if threshold > 1000 { "none".into() } else { threshold.to_string() },
        buffers,
        cap
    );

    // 3. Technology mapping for power, evaluated at the cell level (cell
    //    internals are hidden inside the cells in real silicon, so the
    //    mapped power is the cover's visible-net estimate).
    let library = standard_library();
    for objective in [MapObjective::Area, MapObjective::Power] {
        let mapping = map(&balanced, &library, objective, &probs);
        println!(
            "  3 map {:>5}: {} cells, area {:.0}, visible-net power {:.1} fF/cycle",
            format!("{objective:?}"),
            mapping.cover.len(),
            mapping.area,
            mapping.power
        );
        // Verify the cover functionally.
        let mapped = mapping.to_netlist(&library);
        let patterns = Stimulus::uniform(rtl.num_inputs()).patterns(128, 7);
        assert_eq!(
            lowpower::sim::comb::CombSim::new(&balanced).equivalent_on(&mapped, &patterns),
            None,
            "mapping must preserve function"
        );
    }

    // 4. Sign-off: the flow output vs the original RTL.
    println!();
    println!("== sign-off (glitch-aware event simulation) ==");
    for (stage, nl) in [("rtl", &rtl), ("optimized", &balanced)] {
        let (report, glitch, _) = measure(nl, &params);
        println!("  {stage:<9} {report}  (glitch {:.1}%)", 100.0 * glitch);
    }
    let patterns = Stimulus::uniform(rtl.num_inputs()).patterns(256, 5);
    let sim = lowpower::sim::comb::CombSim::new(&rtl);
    assert_eq!(sim.equivalent_on(&balanced, &patterns), None);
    println!();
    println!("functional equivalence rtl == optimized: verified on 256 vectors");
}
