//! Tree-covering technology mapping (survey §III.B).
//!
//! The classic DAGON formulation (\[20\]): decompose the network into a
//! subject graph of 2-input NANDs and inverters, split it into trees at
//! multi-fanout points, then cover each tree by dynamic programming with
//! cell patterns from a library. The cost function is pluggable — area,
//! delay, or power (\[43\]\[48\]):
//!
//! * **area** — sum of cell areas;
//! * **delay** — arrival time through cell intrinsic delays;
//! * **power** — switched capacitance: each *visible* net (a cell boundary)
//!   charges its activity times the sink pin caps. Complex cells hide
//!   high-activity internal nodes, which is exactly how mapping saves power
//!   under the zero-delay model.

use netlist::{GateKind, NetId, Netlist};
use power::prob::propagate;

/// A pattern tree over the subject graph's NAND2/INV primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// A pattern input (binds to any subject net).
    Leaf,
    /// An inverter.
    Inv(Box<Pattern>),
    /// A 2-input NAND.
    Nand(Box<Pattern>, Box<Pattern>),
}

impl Pattern {
    fn leaf() -> Box<Pattern> {
        Box::new(Pattern::Leaf)
    }

    fn inv(p: Box<Pattern>) -> Box<Pattern> {
        Box::new(Pattern::Inv(p))
    }

    fn nand(a: Box<Pattern>, b: Box<Pattern>) -> Box<Pattern> {
        Box::new(Pattern::Nand(a, b))
    }
}

/// A library cell: a named pattern with electrical costs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name, e.g. `"aoi21"`.
    pub name: &'static str,
    /// The pattern it implements.
    pub pattern: Pattern,
    /// Area in arbitrary units (≈ transistor pairs).
    pub area: f64,
    /// Intrinsic delay.
    pub delay: f64,
    /// Input pin capacitance (fF), same for all pins.
    pub pin_cap: f64,
    /// Output (intrinsic) capacitance (fF).
    pub out_cap: f64,
}

/// The built-in library: INV, NAND2/3/4, AND2, OR2, AOI21, OAI21.
pub fn standard_library() -> Vec<Cell> {
    use Pattern as P;
    let leaf = Pattern::leaf;
    vec![
        Cell {
            name: "inv",
            pattern: P::Inv(leaf()),
            area: 1.0,
            delay: 0.5,
            pin_cap: 2.0,
            out_cap: 2.0,
        },
        Cell {
            name: "nand2",
            pattern: P::Nand(leaf(), leaf()),
            area: 2.0,
            delay: 1.0,
            pin_cap: 2.0,
            out_cap: 3.0,
        },
        Cell {
            name: "and2",
            pattern: *P::inv(P::nand(leaf(), leaf())),
            area: 3.0,
            delay: 1.4,
            pin_cap: 2.0,
            out_cap: 3.0,
        },
        Cell {
            name: "nand3",
            pattern: *P::nand(P::inv(P::nand(leaf(), leaf())), leaf()),
            area: 3.0,
            delay: 1.4,
            pin_cap: 2.2,
            out_cap: 3.5,
        },
        Cell {
            name: "nand4",
            pattern: *P::nand(
                P::inv(P::nand(leaf(), leaf())),
                P::inv(P::nand(leaf(), leaf())),
            ),
            area: 4.0,
            delay: 1.8,
            pin_cap: 2.4,
            out_cap: 4.0,
        },
        Cell {
            name: "or2",
            pattern: *P::nand(P::inv(leaf()), P::inv(leaf())),
            area: 3.0,
            delay: 1.4,
            pin_cap: 2.0,
            out_cap: 3.0,
        },
        Cell {
            name: "nor2",
            pattern: *P::inv(P::nand(P::inv(leaf()), P::inv(leaf()))),
            area: 2.0,
            delay: 1.0,
            pin_cap: 2.0,
            out_cap: 3.0,
        },
        Cell {
            name: "aoi21",
            // !(a·b + c) = INV( NAND(NAND(a,b), INV(c)) )
            pattern: *P::inv(P::nand(P::nand(leaf(), leaf()), P::inv(leaf()))),
            area: 3.0,
            delay: 1.5,
            pin_cap: 2.2,
            out_cap: 3.5,
        },
        Cell {
            name: "oai21",
            // !((a+b)·c) = NAND( NAND(INV(a),INV(b))... ) — (a+b)·c =
            // INV(NAND(or, c)), or = NAND(INV a, INV b); so
            // !((a+b)·c) = NAND( NAND(INV(a), INV(b)), c )
            pattern: *P::nand(P::nand(P::inv(leaf()), P::inv(leaf())), leaf()),
            area: 3.0,
            delay: 1.5,
            pin_cap: 2.2,
            out_cap: 3.5,
        },
    ]
}

/// Mapping objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapObjective {
    /// Minimize total cell area.
    Area,
    /// Minimize worst-case arrival time.
    Delay,
    /// Minimize switched capacitance at visible nets.
    Power,
}

/// One chosen match in the final cover.
#[derive(Debug, Clone)]
pub struct Match {
    /// Root subject net of the match.
    pub root: NetId,
    /// Index of the cell in the library.
    pub cell: usize,
    /// Subject nets bound to the pattern leaves.
    pub leaves: Vec<NetId>,
}

/// Result of mapping.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The subject (decomposed NAND2/INV) netlist that was covered.
    pub subject: Netlist,
    /// The chosen matches, one per visible root.
    pub cover: Vec<Match>,
    /// Total area of the cover.
    pub area: f64,
    /// Estimated critical-path delay through the cover.
    pub delay: f64,
    /// Estimated switched capacitance (fF/cycle) at visible nets.
    pub power: f64,
}

/// Decompose an arbitrary netlist into 2-input NANDs and inverters.
///
/// Function-preserving; `Mux` and wide gates are expanded.
///
/// # Panics
///
/// Panics on sequential netlists.
pub fn decompose(nl: &Netlist) -> Netlist {
    assert!(nl.is_combinational(), "mapping needs combinational logic");
    let mut out = Netlist::new(format!("{}_subject", nl.name()));
    let mut map: Vec<Option<NetId>> = vec![None; nl.len()];
    for &pi in nl.inputs() {
        let name = nl.net_name(pi).unwrap_or("pi").to_string();
        map[pi.index()] = Some(out.add_input(name));
    }
    let order = nl.topo_order().expect("acyclic");
    let nand = |out: &mut Netlist, a: NetId, b: NetId| out.add_gate(GateKind::Nand, &[a, b]);
    let inv = |out: &mut Netlist, a: NetId| out.add_gate(GateKind::Not, &[a]);
    let and2 = |out: &mut Netlist, a: NetId, b: NetId| {
        let n = nand(out, a, b);
        inv(out, n)
    };
    let or2 = |out: &mut Netlist, a: NetId, b: NetId| {
        let na = inv(out, a);
        let nb = inv(out, b);
        nand(out, na, nb)
    };
    for net in order {
        let kind = nl.kind(net);
        if kind == GateKind::Input {
            continue;
        }
        let ins: Vec<NetId> = nl
            .fanins(net)
            .iter()
            .map(|f| map[f.index()].expect("topo order"))
            .collect();
        let new = match kind {
            GateKind::Input | GateKind::Dff => unreachable!("combinational only"),
            GateKind::Const(v) => out.add_const(v),
            GateKind::Buf => {
                let n = inv(&mut out, ins[0]);
                inv(&mut out, n)
            }
            GateKind::Not => inv(&mut out, ins[0]),
            GateKind::And => {
                let mut acc = ins[0];
                for &x in &ins[1..] {
                    acc = and2(&mut out, acc, x);
                }
                if ins.len() == 1 {
                    let n = inv(&mut out, acc);
                    inv(&mut out, n)
                } else {
                    acc
                }
            }
            GateKind::Or => {
                let mut acc = ins[0];
                for &x in &ins[1..] {
                    acc = or2(&mut out, acc, x);
                }
                if ins.len() == 1 {
                    let n = inv(&mut out, acc);
                    inv(&mut out, n)
                } else {
                    acc
                }
            }
            GateKind::Nand => {
                if ins.len() == 1 {
                    inv(&mut out, ins[0])
                } else {
                    let mut acc = ins[0];
                    for &x in &ins[1..ins.len() - 1] {
                        acc = and2(&mut out, acc, x);
                    }
                    nand(&mut out, acc, ins[ins.len() - 1])
                }
            }
            GateKind::Nor => {
                if ins.len() == 1 {
                    inv(&mut out, ins[0])
                } else {
                    let mut acc = ins[0];
                    for &x in &ins[1..] {
                        acc = or2(&mut out, acc, x);
                    }
                    inv(&mut out, acc)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // a ^ b = NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b)))
                let mut acc = ins[0];
                for &x in &ins[1..] {
                    let ab = nand(&mut out, acc, x);
                    let l = nand(&mut out, acc, ab);
                    let r = nand(&mut out, x, ab);
                    acc = nand(&mut out, l, r);
                }
                let acc = if ins.len() == 1 {
                    let n = inv(&mut out, acc);
                    inv(&mut out, n)
                } else {
                    acc
                };
                if kind == GateKind::Xnor {
                    inv(&mut out, acc)
                } else {
                    acc
                }
            }
            GateKind::Mux => {
                // sel ? b : a = NAND(NAND(sel, b), NAND(INV(sel), a))
                let nsel = inv(&mut out, ins[0]);
                let l = nand(&mut out, ins[0], ins[2]);
                let r = nand(&mut out, nsel, ins[1]);
                nand(&mut out, l, r)
            }
        };
        map[net.index()] = Some(new);
    }
    for (net, name) in nl.outputs() {
        out.mark_output(map[net.index()].expect("mapped"), name.clone());
    }
    out
}

/// Try to match `pattern` rooted at `net`; on success, push the bound
/// leaves. Matching never crosses a multi-fanout net except at the root.
fn match_pattern(
    subject: &Netlist,
    fanout: &[usize],
    net: NetId,
    pattern: &Pattern,
    is_root: bool,
    leaves: &mut Vec<NetId>,
) -> bool {
    match pattern {
        Pattern::Leaf => {
            leaves.push(net);
            true
        }
        Pattern::Inv(sub) => {
            if subject.kind(net) != GateKind::Not {
                return false;
            }
            if !is_root && fanout[net.index()] > 1 {
                return false;
            }
            match_pattern(subject, fanout, subject.fanins(net)[0], sub, false, leaves)
        }
        Pattern::Nand(a, b) => {
            if subject.kind(net) != GateKind::Nand {
                return false;
            }
            if !is_root && fanout[net.index()] > 1 {
                return false;
            }
            let ins = subject.fanins(net);
            // Try both input orders.
            let mut trial = leaves.clone();
            if match_pattern(subject, fanout, ins[0], a, false, &mut trial)
                && match_pattern(subject, fanout, ins[1], b, false, &mut trial)
            {
                *leaves = trial;
                return true;
            }
            let mut trial = leaves.clone();
            if match_pattern(subject, fanout, ins[1], a, false, &mut trial)
                && match_pattern(subject, fanout, ins[0], b, false, &mut trial)
            {
                *leaves = trial;
                return true;
            }
            false
        }
    }
}

/// Map a netlist onto the library, minimizing `objective`.
///
/// Returns the cover plus its area/delay/power summary (all three metrics
/// are reported regardless of which one was optimized).
pub fn map(
    nl: &Netlist,
    library: &[Cell],
    objective: MapObjective,
    input_probs: &[f64],
) -> Mapping {
    let subject = decompose(nl);
    let fanout = subject.fanout_counts();
    let order = subject.topo_order().expect("acyclic");
    let probs = propagate(&subject, input_probs, 10, 1e-9).probability;
    let activity: Vec<f64> = probs.iter().map(|&p| 2.0 * p * (1.0 - p)).collect();

    // DP over all nets: best cost to produce each net as a cell output.
    let inf = f64::INFINITY;
    let mut best_cost = vec![inf; subject.len()];
    let mut best_match: Vec<Option<Match>> = (0..subject.len()).map(|_| None).collect();
    let mut best_delay = vec![0.0f64; subject.len()];
    let mut best_area = vec![0.0f64; subject.len()];
    let mut best_power = vec![0.0f64; subject.len()];

    for &net in &order {
        let kind = subject.kind(net);
        if kind.is_source() {
            best_cost[net.index()] = 0.0;
            continue;
        }
        for (ci, cell) in library.iter().enumerate() {
            let mut leaves = Vec::new();
            if !match_pattern(&subject, &fanout, net, &cell.pattern, true, &mut leaves) {
                continue;
            }
            if leaves.iter().any(|l| best_cost[l.index()].is_infinite()) {
                continue;
            }
            let area: f64 = cell.area + leaves.iter().map(|l| best_area[l.index()]).sum::<f64>();
            let delay: f64 = cell.delay
                + leaves
                    .iter()
                    .map(|l| best_delay[l.index()])
                    .fold(0.0, f64::max);
            // Power: each leaf net is visible — its activity charges this
            // cell's pin cap; the root's activity charges the cell's output
            // cap (sink pins are charged by the fanout cells).
            let power: f64 = activity[net.index()] * cell.out_cap
                + leaves
                    .iter()
                    .map(|l| activity[l.index()] * cell.pin_cap + best_power[l.index()])
                    .sum::<f64>();
            let cost = match objective {
                MapObjective::Area => area,
                MapObjective::Delay => delay,
                MapObjective::Power => power,
            };
            if cost < best_cost[net.index()] - 1e-12 {
                best_cost[net.index()] = cost;
                best_area[net.index()] = area;
                best_delay[net.index()] = delay;
                best_power[net.index()] = power;
                best_match[net.index()] = Some(Match {
                    root: net,
                    cell: ci,
                    leaves,
                });
            }
        }
    }

    // Trace the cover from the outputs.
    let mut needed: Vec<NetId> = subject.outputs().iter().map(|(n, _)| *n).collect();
    let mut visible = vec![false; subject.len()];
    let mut cover = Vec::new();
    while let Some(net) = needed.pop() {
        if visible[net.index()] || subject.kind(net).is_source() {
            continue;
        }
        visible[net.index()] = true;
        let m = best_match[net.index()]
            .clone()
            .expect("every net must be coverable (library has inv+nand2)");
        for &leaf in &m.leaves {
            needed.push(leaf);
        }
        cover.push(m);
    }

    // Aggregate metrics over the actual cover (avoids double counting
    // shared leaves in the tree DP sums).
    let mut area = 0.0;
    let mut power = 0.0;
    for m in &cover {
        let cell = &library[m.cell];
        area += cell.area;
        power += activity[m.root.index()] * cell.out_cap;
        for &leaf in &m.leaves {
            power += activity[leaf.index()] * cell.pin_cap;
        }
    }
    let delay = subject
        .outputs()
        .iter()
        .map(|(n, _)| best_delay[n.index()])
        .fold(0.0, f64::max);
    Mapping {
        subject,
        cover,
        area,
        delay,
        power,
    }
}

impl Mapping {
    /// Materialize the cover as a gate-level netlist (each cell expanded to
    /// its NAND2/INV pattern structure over the visible nets).
    ///
    /// Useful for equivalence checking the cover and for feeding the mapped
    /// design to downstream passes.
    pub fn to_netlist(&self, library: &[Cell]) -> Netlist {
        let mut out = Netlist::new(format!("{}_mapped", self.subject.name()));
        let mut net_of: Vec<Option<NetId>> = vec![None; self.subject.len()];
        for &pi in self.subject.inputs() {
            let name = self.subject.net_name(pi).unwrap_or("pi").to_string();
            net_of[pi.index()] = Some(out.add_input(name));
        }
        for net in self.subject.iter_nets() {
            if let GateKind::Const(v) = self.subject.kind(net) {
                net_of[net.index()] = Some(out.add_const(v));
            }
        }
        // Matches keyed by root, instantiated in subject topological order.
        let mut match_of: Vec<Option<&Match>> = vec![None; self.subject.len()];
        for m in &self.cover {
            match_of[m.root.index()] = Some(m);
        }
        let order = self.subject.topo_order().expect("acyclic");
        for net in order {
            let Some(m) = match_of[net.index()] else {
                continue;
            };
            let leaf_nets: Vec<NetId> = m
                .leaves
                .iter()
                .map(|l| net_of[l.index()].expect("leaves precede roots in topo order"))
                .collect();
            let mut iter = leaf_nets.iter().copied();
            let root_net = instantiate_pattern(&mut out, &library[m.cell].pattern, &mut iter);
            assert!(iter.next().is_none(), "all leaves consumed");
            net_of[net.index()] = Some(root_net);
        }
        for (net, name) in self.subject.outputs() {
            out.mark_output(net_of[net.index()].expect("output covered"), name.clone());
        }
        out
    }
}

/// Expand a pattern over leaf nets, consuming leaves in match order.
fn instantiate_pattern(
    nl: &mut Netlist,
    pattern: &Pattern,
    leaves: &mut impl Iterator<Item = NetId>,
) -> NetId {
    match pattern {
        Pattern::Leaf => leaves.next().expect("leaf available"),
        Pattern::Inv(sub) => {
            let inner = instantiate_pattern(nl, sub, leaves);
            nl.add_gate(GateKind::Not, &[inner])
        }
        Pattern::Nand(a, b) => {
            let na = instantiate_pattern(nl, a, leaves);
            let nb = instantiate_pattern(nl, b, leaves);
            nl.add_gate(GateKind::Nand, &[na, nb])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{comparator_gt, ripple_adder};
    use sim::comb::equivalent_exhaustive;

    #[test]
    fn decompose_preserves_function() {
        let (nl, _) = ripple_adder(3);
        let subject = decompose(&nl);
        assert!(equivalent_exhaustive(&nl, &subject));
        // Subject graph only has inputs, consts, NAND2 and INV.
        for net in subject.iter_nets() {
            let kind = subject.kind(net);
            assert!(
                matches!(
                    kind,
                    GateKind::Input | GateKind::Const(_) | GateKind::Not | GateKind::Nand
                ),
                "unexpected {kind}"
            );
            if kind == GateKind::Nand {
                assert_eq!(subject.fanins(net).len(), 2);
            }
        }
    }

    #[test]
    fn decompose_handles_every_kind() {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let gates = vec![
            nl.add_gate(GateKind::And, &[a, b, c]),
            nl.add_gate(GateKind::Or, &[a, b, c]),
            nl.add_gate(GateKind::Nand, &[a, b, c]),
            nl.add_gate(GateKind::Nor, &[a, b, c]),
            nl.add_gate(GateKind::Xor, &[a, b, c]),
            nl.add_gate(GateKind::Xnor, &[a, b]),
            nl.add_gate(GateKind::Mux, &[a, b, c]),
            nl.add_gate(GateKind::Buf, &[a]),
            nl.add_gate(GateKind::Not, &[b]),
        ];
        for (i, g) in gates.iter().enumerate() {
            nl.mark_output(*g, format!("y{i}"));
        }
        let subject = decompose(&nl);
        assert!(equivalent_exhaustive(&nl, &subject));
    }

    #[test]
    fn cover_exists_and_metrics_positive() {
        let (nl, _) = comparator_gt(4);
        let library = standard_library();
        let mapping = map(&nl, &library, MapObjective::Area, &[0.5; 8]);
        assert!(!mapping.cover.is_empty());
        assert!(mapping.area > 0.0);
        assert!(mapping.delay > 0.0);
        assert!(mapping.power > 0.0);
    }

    #[test]
    fn area_mapping_beats_naive_nand_cover() {
        let (nl, _) = ripple_adder(4);
        let library = standard_library();
        let mapping = map(&nl, &library, MapObjective::Area, &[0.5; 8]);
        // Naive cover: one cell per subject gate.
        let naive: f64 = mapping
            .subject
            .iter_nets()
            .map(|n| match mapping.subject.kind(n) {
                GateKind::Nand => 2.0,
                GateKind::Not => 1.0,
                _ => 0.0,
            })
            .sum();
        assert!(
            mapping.area < naive,
            "tree covering should beat naive: {} vs {naive}",
            mapping.area
        );
    }

    #[test]
    fn objectives_optimize_their_own_metric() {
        let (nl, _) = comparator_gt(5);
        let library = standard_library();
        let probs = vec![0.5; 10];
        let by_area = map(&nl, &library, MapObjective::Area, &probs);
        let by_delay = map(&nl, &library, MapObjective::Delay, &probs);
        let by_power = map(&nl, &library, MapObjective::Power, &probs);
        assert!(by_area.area <= by_delay.area + 1e-9);
        assert!(by_area.area <= by_power.area + 1e-9);
        assert!(by_delay.delay <= by_area.delay + 1e-9);
        assert!(by_delay.delay <= by_power.delay + 1e-9);
        assert!(by_power.power <= by_area.power + 1e-9);
        assert!(by_power.power <= by_delay.power + 1e-9);
    }

    #[test]
    fn power_mapping_hides_hot_nets() {
        // With biased inputs, power mapping should differ from area mapping
        // and produce strictly less switched cap on this circuit.
        let (nl, _) = ripple_adder(5);
        let library = standard_library();
        let probs = vec![0.3; 10];
        let by_area = map(&nl, &library, MapObjective::Area, &probs);
        let by_power = map(&nl, &library, MapObjective::Power, &probs);
        assert!(by_power.power <= by_area.power + 1e-9);
    }

    #[test]
    fn cover_cells_are_from_library() {
        let (nl, _) = ripple_adder(3);
        let library = standard_library();
        let mapping = map(&nl, &library, MapObjective::Power, &[0.5; 6]);
        for m in &mapping.cover {
            assert!(m.cell < library.len());
            assert!(!m.leaves.is_empty() || library[m.cell].name == "const");
        }
    }
}

#[cfg(test)]
mod to_netlist_tests {
    use super::*;
    use netlist::gen::{alu4, comparator_gt, ripple_adder};
    use sim::comb::equivalent_exhaustive;

    #[test]
    fn mapped_netlist_is_equivalent_for_every_objective() {
        let library = standard_library();
        for nl in [ripple_adder(4).0, comparator_gt(5).0, alu4(3)] {
            let probs = vec![0.5; nl.num_inputs()];
            for objective in [MapObjective::Area, MapObjective::Delay, MapObjective::Power] {
                let mapping = map(&nl, &library, objective, &probs);
                let mapped = mapping.to_netlist(&library);
                assert!(
                    equivalent_exhaustive(&nl, &mapped),
                    "{} under {objective:?}",
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn mapped_netlist_validates_and_names_outputs() {
        let library = standard_library();
        let (nl, _) = ripple_adder(3);
        let mapping = map(&nl, &library, MapObjective::Area, &[0.5; 6]);
        let mapped = mapping.to_netlist(&library);
        mapped.validate().unwrap();
        assert_eq!(mapped.num_outputs(), nl.num_outputs());
        let names_a: Vec<_> = nl.outputs().iter().map(|(_, n)| n.clone()).collect();
        let names_b: Vec<_> = mapped.outputs().iter().map(|(_, n)| n.clone()).collect();
        assert_eq!(names_a, names_b);
    }
}
