//! E3, E4, E7, E8, E9: combinational logic-level experiments.

use crate::table::{f, pct, Table};
use budget::ResourceBudget;
use logicopt::balance::balance_paths;
use logicopt::dontcare::{try_optimize_dontcares, Mode};
use logicopt::factor::{CostFn, Cube, Sop, SopNetwork};
use logicopt::mapping::{map, standard_library, MapObjective};
use lowpower::par;
use netlist::gen;
use netlist::Rng64;
use power::exact::CircuitBddCache;
use sim::event::{DelayModel, EventSim};
use sim::stimulus::Stimulus;

/// E3 — fraction of transitions that are spurious.
///
/// Paper claim (§III.A.2, \[16\]): "Spurious transitions account for between
/// 10% and 40% of the switching activity power in typical combinational
/// logic circuits" (array multipliers are the known extreme case, \[25\]).
pub fn glitch_fraction() -> String {
    let circuits: Vec<(netlist::Netlist, &str)> = vec![
        (gen::parity_tree(16), "balanced tree (best case)"),
        (gen::ripple_adder(8).0, "typical"),
        (gen::carry_select_adder(8, 2).0, "typical"),
        (gen::comparator_gt(8).0, "typical"),
        (gen::alu4(6), "typical"),
        (
            gen::random_dag(&gen::RandomDagConfig::default(), 7),
            "deep reconvergent (above range)",
        ),
        (gen::array_multiplier(6).0, "extreme (motivates [25])"),
    ];
    let mut t = Table::new(&["circuit", "class", "glitch fraction"]);
    let mut typical = Vec::new();
    // Each circuit's timing run is independent: fan them out across cores.
    let jobs = par::jobs_from_env();
    let fractions = par::par_map(&circuits, jobs, |_, (nl, _)| {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(400, 11);
        EventSim::new(nl, &DelayModel::Unit).activity(&patterns).glitch_fraction()
    });
    for ((nl, class), fraction) in circuits.iter().zip(&fractions) {
        if *class == "typical" {
            typical.push(*fraction);
        }
        t.row(&[nl.name().to_string(), class.to_string(), pct(*fraction)]);
    }
    let lo = typical.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = typical.iter().cloned().fold(0.0f64, f64::max);
    // Architecture ablation: the same function implemented with balanced
    // structure glitches far less — the structural root cause the survey's
    // path-balancing section addresses.
    let mut t2 = Table::new(&["function", "structure", "depth", "glitch fraction"]);
    let pairs: Vec<(&str, netlist::Netlist)> = vec![
        ("8-bit add", gen::ripple_adder(8).0),
        ("8-bit add", gen::kogge_stone_adder(8).0),
        ("6x6 multiply", gen::array_multiplier(6).0),
        ("6x6 multiply", gen::wallace_multiplier(6).0),
    ];
    for (func, nl) in &pairs {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(400, 11);
        let timing = EventSim::new(nl, &DelayModel::Unit).activity(&patterns);
        t2.row(&[
            func.to_string(),
            nl.name().to_string(),
            nl.depth().to_string(),
            pct(timing.glitch_fraction()),
        ]);
    }
    format!(
        "E3  Spurious-transition fraction under unit-delay timing simulation\n\
         paper: 10-40% of switching activity in typical combinational circuits\n\n{}\n\
         measured range over 'typical' circuits: {} .. {}\n\n\
         same function, different structure (balanced trees glitch less):\n\n{}",
        t.render(),
        pct(lo),
        pct(hi),
        t2.render()
    )
}

/// E4 — path balancing: glitch elimination vs buffer overhead.
///
/// Paper claims (§III.A.2, \[25\]): balancing delays eliminates spurious
/// transitions without hurting critical delay, but "the addition of
/// buffers increases capacitance which may offset the reduction".
pub fn path_balance() -> String {
    let (nl, _) = gen::array_multiplier(6);
    let patterns = Stimulus::uniform(12).patterns(300, 13);
    let mut t = Table::new(&[
        "skew threshold",
        "buffers",
        "glitch fraction",
        "switched cap (fF/cycle)",
        "depth",
    ]);
    let mut best: Option<(usize, f64)> = None;
    // The sweep points are independent balance+simulate runs; fan them out.
    let thresholds = [usize::MAX / 2, 8, 4, 2, 1, 0];
    let sweep = par::par_map(&thresholds, par::jobs_from_env(), |_, &threshold| {
        let (balanced, report) = balance_paths(&nl, threshold);
        let timing = EventSim::new(&balanced, &DelayModel::Unit).activity(&patterns);
        let cap = timing.total.switched_capacitance(&balanced);
        (report.buffers_added, timing.glitch_fraction(), cap, balanced.depth())
    });
    for (&threshold, &(buffers, glitch, cap, depth)) in thresholds.iter().zip(&sweep) {
        let label = if threshold > 1000 {
            "none".to_string()
        } else {
            threshold.to_string()
        };
        if best.map(|(_, c)| cap < c).unwrap_or(true) {
            best = Some((threshold, cap));
        }
        t.row(&[
            label,
            buffers.to_string(),
            pct(glitch),
            f(cap, 0),
            depth.to_string(),
        ]);
    }
    let (best_threshold, _) = best.expect("nonempty sweep");
    format!(
        "E4  Path balancing on a 6x6 array multiplier\n\
         paper: buffers kill glitches but add capacitance; insert a *minimal* number\n\n{}\n\
         lowest switched capacitance at threshold {}; glitch *transitions* fall\n\
         monotonically with the threshold while buffer capacitance rises — the\n\
         survey's \"may offset the reduction\" caveat, quantified\n",
        t.render(),
        if best_threshold > 1000 { "none".to_string() } else { best_threshold.to_string() }
    )
}

/// E7 — don't-care optimization for activity.
///
/// Paper claims (§III.A.1): \[38\] re-biases node probabilities inside the
/// don't-care set; \[19\] improves it by accounting for the transitive
/// fanout.
pub fn dontcare() -> String {
    let mut t = Table::new(&[
        "circuit",
        "mode",
        "nodes rewritten",
        "cap before",
        "cap after",
        "saving",
    ]);
    let mut rng = Rng64::new(3);
    for seed in 0..4u64 {
        let config = gen::RandomDagConfig {
            inputs: 7,
            gates: 40,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let nl = gen::random_dag(&config, 100 + seed * 17 + rng.next_below(5));
        let probs = vec![0.5; 7];
        for (mode, label) in [(Mode::NodeLocal, "node-local [38]"), (Mode::FanoutAware, "fanout-aware [19]")] {
            let mut cache = CircuitBddCache::new();
            let unlimited = ResourceBudget::unlimited();
            let (_, report) = try_optimize_dontcares(&nl, &probs, mode, 5, &mut cache, &unlimited)
                .expect("unlimited budget");
            t.row(&[
                nl.name().to_string(),
                label.to_string(),
                report.nodes_changed.to_string(),
                f(report.cap_before, 1),
                f(report.cap_after, 1),
                pct(1.0 - report.cap_after / report.cap_before),
            ]);
        }
    }
    format!(
        "E7  Don't-care-based node optimization (exact ODCs via BDDs)\n\
         paper: probabilities can be moved inside the DC set to cut activity;\n\
         the fanout-aware variant [19] never worsens the network\n\n{}",
        t.render()
    )
}

/// E8 — kernel extraction with area vs activity cost.
///
/// Paper claim (§III.A.3, \[35\]): "When targeting power dissipation, the
/// cost function is not literal count but switching activity."
pub fn factoring() -> String {
    // A network where the *quiet* kernel (skewed signals, vars 5..9) saves
    // more literals, while the *hot* kernel (uniform signals, vars 0..5)
    // saves more switching — so the two cost functions genuinely disagree
    // about what to extract first.
    let cube = |vars: &[usize]| -> Cube {
        vars.iter().fold(Cube::ONE, |acc, &v| {
            acc.and(Cube::literal(v, true)).expect("no clash")
        })
    };
    let build = || {
        // f1 = (a+b)(c+d) over hot vars 0..4.
        let f1 = Sop::new(vec![cube(&[0, 2]), cube(&[0, 3]), cube(&[1, 2]), cube(&[1, 3])]);
        // f2 = (e+f)(g+h+i) over quiet vars 5..10: bigger kernel, bigger
        // literal saving.
        let f2 = Sop::new(vec![
            cube(&[5, 7]),
            cube(&[5, 8]),
            cube(&[5, 9]),
            cube(&[6, 7]),
            cube(&[6, 8]),
            cube(&[6, 9]),
        ]);
        let probs = vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.95, 0.95, 0.95, 0.95, 0.95];
        SopNetwork::new(10, probs, vec![f1, f2])
    };
    let kernel_name = |k: &Sop| -> String {
        // The hot kernel lives on vars 0..5, the quiet one on 5..10.
        let on_hot = k
            .cubes
            .iter()
            .all(|c| (c.pos | c.neg) & 0b11111 == (c.pos | c.neg));
        if on_hot {
            "hot (p=0.5 signals)".into()
        } else {
            "quiet (p=0.95 signals)".into()
        }
    };
    let mut t = Table::new(&[
        "cost function",
        "first kernel extracted",
        "gain (own metric)",
        "final literals",
        "final activity cost",
    ]);
    for (cost, label) in [
        (CostFn::Literals, "literal count [5]"),
        (CostFn::Activity, "switching activity [35]"),
    ] {
        let mut network = build();
        let first = network
            .extract_best_kernel(&cost)
            .expect("a kernel is profitable");
        network.extract_kernels(&cost);
        t.row(&[
            label.to_string(),
            kernel_name(&first.0),
            f(first.1, 3),
            network.literal_count().to_string(),
            f(network.cost(&CostFn::Activity), 3),
        ]);
    }
    let flat = build();
    format!(
        "E8  Kernel extraction: area-driven vs power-driven cost\n\
         paper: replace literal count with switching activity in the extractor —\n\
         the area extractor goes for the biggest literal saving (the quiet\n\
         kernel) while the power extractor goes for the hot logic first\n\n\
         flat network: {} literals, activity cost {:.3}\n\n{}",
        flat.literal_count(),
        flat.cost(&CostFn::Activity),
        t.render()
    )
}

/// E9 — technology mapping objectives.
///
/// Paper claims (§III.B, \[20\]\[43\]\[48\]): tree covering extends to a power
/// cost; each objective optimizes its own metric.
pub fn techmap() -> String {
    let library = standard_library();
    let mut t = Table::new(&["circuit", "objective", "area", "delay", "power (fF/cycle)"]);
    for (nl, probs) in [
        (gen::ripple_adder(6).0, vec![0.5; 12]),
        (gen::comparator_gt(6).0, vec![0.5; 12]),
        (gen::alu4(4), vec![0.5; 10]),
    ] {
        for objective in [MapObjective::Area, MapObjective::Delay, MapObjective::Power] {
            let result = map(&nl, &library, objective, &probs);
            t.row(&[
                nl.name().to_string(),
                format!("{objective:?}"),
                f(result.area, 1),
                f(result.delay, 1),
                f(result.power, 1),
            ]);
        }
    }
    format!(
        "E9  Tree-covering technology mapping (DAGON formulation)\n\
         paper: the graph-covering formulation extends from area/delay to power;\n\
         complex cells hide high-activity internal nets\n\n{}",
        t.render()
    )
}
