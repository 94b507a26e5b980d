//! Guarded evaluation (survey §III.C.4, \[44\]).
//!
//! When a multiplexer selects one of two subcircuits, the unselected cone's
//! output is unobservable: transparent latches can freeze its inputs so it
//! stops switching. This module
//!
//! * **finds** guarding opportunities — mux data inputs whose entire
//!   transitive-fanin cone feeds nothing else ([`find_guards`]), together
//!   with the observability condition derived from the select signal
//!   (the ODC-based detection of \[44\]);
//! * **evaluates** them with a cycle simulator in which guarded cone inputs
//!   hold their previous value whenever the guard condition says
//!   "unobservable" ([`GuardedSim`]), verifying output equivalence on the
//!   fly and reporting the saved switching activity.

use std::collections::HashSet;

use netlist::{GateKind, NetId, Netlist};
use sim::stimulus::PatternSet;
use sim::sweep;

/// One guarding opportunity.
#[derive(Debug, Clone)]
pub struct Guard {
    /// The mux whose data input is guarded.
    pub mux: NetId,
    /// Which data input (0 = the `sel=0` side, 1 = the `sel=1` side).
    pub side: usize,
    /// Nets of the guarded cone (exclusively feeding this mux input).
    pub cone: Vec<NetId>,
    /// The select net; the cone is observable when `sel == side`.
    pub select: NetId,
}

/// Find all guardable mux data cones.
///
/// A cone qualifies if every net in it feeds only nets inside the cone (the
/// mux data input is the única escape). Primary inputs and outputs are
/// never part of a cone.
pub fn find_guards(nl: &Netlist) -> Vec<Guard> {
    let fanouts = nl.fanouts();
    let output_nets: HashSet<usize> = nl.outputs().iter().map(|(n, _)| n.index()).collect();
    let mut guards = Vec::new();
    for net in nl.iter_nets() {
        if nl.kind(net) != GateKind::Mux {
            continue;
        }
        let fanins = nl.fanins(net);
        let select = fanins[0];
        for side in 0..2 {
            let root = fanins[1 + side];
            if nl.kind(root).is_source() || output_nets.contains(&root.index()) {
                continue;
            }
            // Collect the cone: nets reachable from `root` going backwards
            // whose every fanout stays inside the candidate set.
            let mut cone: Vec<NetId> = Vec::new();
            let mut in_cone: HashSet<usize> = HashSet::new();
            let mut stack = vec![root];
            in_cone.insert(root.index());
            // The root must feed only this mux.
            if fanouts[root.index()].len() != 1 || output_nets.contains(&root.index()) {
                continue;
            }
            while let Some(v) = stack.pop() {
                cone.push(v);
                for &fi in nl.fanins(v) {
                    if nl.kind(fi).is_source() || in_cone.contains(&fi.index()) {
                        continue;
                    }
                    // fi joins the cone only if all its fanouts are in it.
                    let escapes = fanouts[fi.index()]
                        .iter()
                        .any(|s| !in_cone.contains(&s.index()))
                        || output_nets.contains(&fi.index());
                    if !escapes {
                        in_cone.insert(fi.index());
                        stack.push(fi);
                    }
                }
            }
            if !cone.is_empty() {
                guards.push(Guard {
                    mux: net,
                    side,
                    cone,
                    select,
                });
            }
        }
    }
    guards
}

/// Result of a guarded run.
#[derive(Debug, Clone)]
pub struct GuardedActivity {
    /// Total transitions/cycle without guarding.
    pub baseline_toggles: f64,
    /// Total transitions/cycle with guarding.
    pub guarded_toggles: f64,
    /// Transitions saved inside guarded cones per cycle.
    pub saved_toggles: f64,
    /// Fraction of cycles each guard was disabled (cone frozen).
    pub freeze_fraction: Vec<f64>,
}

impl GuardedActivity {
    /// Relative saving over the baseline.
    pub fn saving(&self) -> f64 {
        if self.baseline_toggles == 0.0 {
            0.0
        } else {
            self.saved_toggles / self.baseline_toggles
        }
    }
}

/// Cycle simulator with guarded cones frozen when unobservable.
#[derive(Debug)]
pub struct GuardedSim<'a> {
    nl: &'a Netlist,
    order: Vec<NetId>,
    guards: Vec<Guard>,
    cone_of: Vec<Option<usize>>, // guard index per net
}

impl<'a> GuardedSim<'a> {
    /// Bind a simulator with the given guards.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential, cyclic, or two guards overlap.
    pub fn new(nl: &'a Netlist, guards: Vec<Guard>) -> GuardedSim<'a> {
        assert!(
            nl.is_combinational(),
            "guarded evaluation of combinational logic"
        );
        let order = nl.topo_order().expect("acyclic");
        let mut cone_of = vec![None; nl.len()];
        for (gi, g) in guards.iter().enumerate() {
            for &net in &g.cone {
                assert!(cone_of[net.index()].is_none(), "overlapping guards");
                cone_of[net.index()] = Some(gi);
            }
        }
        GuardedSim {
            nl,
            order,
            guards,
            cone_of,
        }
    }

    /// Run the pattern stream, asserting output equivalence with the
    /// unguarded circuit each cycle, and report the activity split.
    ///
    /// # Panics
    ///
    /// Panics if guarding ever changes a primary output (i.e. the guard
    /// analysis was wrong).
    pub fn run(&self, patterns: &PatternSet) -> GuardedActivity {
        let n = self.nl.len();
        // One-lane words, read at bit 0: the previous cycle's settled
        // values and this cycle's, without and with guarding.
        let mut base = vec![0u64; n];
        let mut guarded = vec![0u64; n];
        let mut next_base = vec![0u64; n];
        let mut next_guarded = vec![0u64; n];
        let mut spill = Vec::new();
        let mut frozen = vec![false; self.guards.len()];
        let mut base_toggles = vec![0u64; n];
        let mut guarded_toggles = vec![0u64; n];
        let mut freezes = vec![0u64; self.guards.len()];
        for (c, pattern) in patterns.iter().enumerate() {
            // A frozen cone net holds its previous value.
            next_guarded.copy_from_slice(&guarded);
            for (i, &pi) in self.nl.inputs().iter().enumerate() {
                next_base[pi.index()] = u64::from(pattern[i]);
                next_guarded[pi.index()] = u64::from(pattern[i]);
            }
            sweep::settle::<1>(self.nl, &self.order, &mut next_base, &mut spill, |_| false);
            // The select decides observability this cycle. It lies outside
            // every cone, so it settles the same with or without guarding.
            for (gi, g) in self.guards.iter().enumerate() {
                frozen[gi] = (next_base[g.select.index()] & 1) as usize != g.side;
                freezes[gi] += u64::from(frozen[gi]);
            }
            let held = |net: NetId| self.cone_of[net.index()].is_some_and(|gi| frozen[gi]);
            sweep::settle::<1>(self.nl, &self.order, &mut next_guarded, &mut spill, held);
            if c > 0 {
                for i in 0..n {
                    base_toggles[i] += (next_base[i] ^ base[i]) & 1;
                    guarded_toggles[i] += (next_guarded[i] ^ guarded[i]) & 1;
                }
            }
            // Outputs must agree.
            for (out, name) in self.nl.outputs() {
                assert_eq!(
                    next_base[out.index()] & 1,
                    next_guarded[out.index()] & 1,
                    "guarding changed output {name}"
                );
            }
            std::mem::swap(&mut base, &mut next_base);
            std::mem::swap(&mut guarded, &mut next_guarded);
        }
        let denom = (patterns.len().saturating_sub(1)).max(1) as f64;
        let baseline: f64 = base_toggles.iter().sum::<u64>() as f64 / denom;
        let with_guard: f64 = guarded_toggles.iter().sum::<u64>() as f64 / denom;
        GuardedActivity {
            baseline_toggles: baseline,
            guarded_toggles: with_guard,
            saved_toggles: baseline - with_guard,
            freeze_fraction: freezes
                .iter()
                .map(|&f| f as f64 / patterns.len().max(1) as f64)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, ripple_adder};
    use sim::stimulus::Stimulus;

    /// y = sel ? (a+b) : (a*b) over 3-bit operands: two guardable cones.
    fn shared_alu() -> Netlist {
        let mut nl = Netlist::new("shared_alu");
        let sel = nl.add_input("sel");
        let a: Vec<NetId> = (0..3).map(|i| nl.add_input(format!("a{i}"))).collect();
        let b: Vec<NetId> = (0..3).map(|i| nl.add_input(format!("b{i}"))).collect();
        // Copy in an adder cone.
        let (add, add_nets) = ripple_adder(3);
        let add_map = copy_into(&mut nl, &add, &a, &b);
        // Copy in a multiplier cone (truncate to 3 bits).
        let (mul, mul_nets) = array_multiplier(3);
        let mul_map = copy_into(&mut nl, &mul, &a, &b);
        for i in 0..3 {
            let s = add_map[add_nets.sum[i].index()];
            let p = mul_map[mul_nets.product[i].index()];
            let y = nl.add_gate(GateKind::Mux, &[sel, p, s]);
            nl.mark_output(y, format!("y{i}"));
        }
        nl
    }

    fn copy_into(nl: &mut Netlist, src: &Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        let mut map = vec![NetId::from_index(0); src.len()];
        let n = a.len();
        for (i, &pi) in src.inputs().iter().enumerate() {
            map[pi.index()] = if i < n { a[i] } else { b[i - n] };
        }
        for net in src.topo_order().unwrap() {
            let kind = src.kind(net);
            if kind == GateKind::Input {
                continue;
            }
            let ins: Vec<NetId> = src.fanins(net).iter().map(|f| map[f.index()]).collect();
            map[net.index()] = match kind {
                GateKind::Const(v) => nl.add_const(v),
                _ => nl.add_gate(kind, &ins),
            };
        }
        map
    }

    #[test]
    fn finds_mux_cones() {
        let nl = shared_alu();
        let guards = find_guards(&nl);
        // Three muxes, but cones overlap across bits (shared product/sum
        // logic), so at minimum the detector finds the exclusive parts.
        assert!(!guards.is_empty(), "should find at least one guard");
        for g in &guards {
            assert!(!g.cone.is_empty());
            assert_eq!(nl.kind(g.mux), GateKind::Mux);
        }
    }

    #[test]
    fn guarded_run_preserves_outputs_and_saves_toggles() {
        let nl = shared_alu();
        let mut guards = find_guards(&nl);
        // Keep a non-overlapping subset.
        let mut used: HashSet<usize> = HashSet::new();
        guards.retain(|g| {
            if g.cone.iter().any(|c| used.contains(&c.index())) {
                false
            } else {
                used.extend(g.cone.iter().map(|c| c.index()));
                true
            }
        });
        assert!(!guards.is_empty());
        let sim = GuardedSim::new(&nl, guards);
        // Select mostly picks the adder: multiplier cone mostly frozen.
        let mut patterns = Stimulus::uniform(7).patterns(300, 3);
        for p in patterns.iter_mut() {
            // Bias sel toward 1 (adder side of our mux ordering).
            if p[0] {
                p[0] = true;
            }
        }
        let result = sim.run(&patterns); // panics inside if outputs diverge
        assert!(result.saved_toggles >= 0.0);
        assert!(result.guarded_toggles <= result.baseline_toggles + 1e-9);
    }

    #[test]
    fn saving_grows_with_idle_probability() {
        let nl = shared_alu();
        let mut guards = find_guards(&nl);
        let mut used: HashSet<usize> = HashSet::new();
        guards.retain(|g| {
            if g.cone.iter().any(|c| used.contains(&c.index())) {
                false
            } else {
                used.extend(g.cone.iter().map(|c| c.index()));
                true
            }
        });
        let sim = GuardedSim::new(&nl, guards);
        let mut savings = Vec::new();
        for sel_prob in [0.1, 0.5, 0.9] {
            let mut probs = vec![0.5; 7];
            probs[0] = sel_prob;
            let patterns = Stimulus::biased(probs).patterns(400, 11);
            savings.push(sim.run(&patterns).saving());
        }
        // All runs preserve outputs (asserted inside); savings nonneg.
        assert!(savings.iter().all(|&s| s >= -1e-9), "{savings:?}");
    }

    /// Every `GuardedActivity` field, as f64 bits, on `shared_alu` with its
    /// disjoint guards over a seeded stream whose select is high with
    /// probability 0.7. The values were recorded from the engine that read
    /// each guard's select from a separate full-netlist settle per guard
    /// and pattern.
    #[test]
    fn guarded_activity_is_pinned() {
        let nl = shared_alu();
        let mut guards = find_guards(&nl);
        let mut used: HashSet<usize> = HashSet::new();
        guards.retain(|g| {
            if g.cone.iter().any(|c| used.contains(&c.index())) {
                false
            } else {
                used.extend(g.cone.iter().map(|c| c.index()));
                true
            }
        });
        let mut probs = vec![0.5; 7];
        probs[0] = 0.7;
        let patterns = Stimulus::biased(probs).patterns(500, 0x6A);
        let result = GuardedSim::new(&nl, guards).run(&patterns);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&[
                result.baseline_toggles,
                result.guarded_toggles,
                result.saved_toggles
            ]),
            [0x4034bed87f3aff7d, 0x40336510ee0b495d, 0x3ff59c7912fb6200]
        );
        let (frozen, open) = (0x3fe6f9db22d0e560, 0x3fd20c49ba5e353f);
        assert_eq!(
            bits(&result.freeze_fraction),
            [frozen, open, frozen, open, frozen, open]
        );
    }

    #[test]
    fn no_guards_no_change() {
        let (nl, _) = ripple_adder(3);
        let guards = find_guards(&nl);
        assert!(guards.is_empty(), "pure adder has no muxes");
        let sim = GuardedSim::new(&nl, guards);
        let patterns = Stimulus::uniform(6).patterns(100, 5);
        let result = sim.run(&patterns);
        assert!((result.saved_toggles).abs() < 1e-9);
    }
}
