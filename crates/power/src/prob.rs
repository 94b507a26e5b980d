//! Fast correlation-free probability and activity propagation.
//!
//! Propagates one-probabilities through the netlist assuming spatial
//! independence of gate inputs (exact on trees, approximate on DAGs with
//! reconvergent fanout). Sequential circuits are handled by a fixpoint
//! iteration over the flip-flop probabilities. This is the cheap estimator
//! synthesis loops use when calling [`crate::exact`] for every candidate is
//! too slow.

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, Netlist};
use sim::ActivityProfile;

/// Result of probability propagation.
#[derive(Debug, Clone)]
pub struct Propagated {
    /// One-probability per net.
    pub probability: Vec<f64>,
    /// Number of fixpoint sweeps performed (1 for combinational).
    pub sweeps: usize,
}

fn gate_probability(kind: GateKind, ins: &[f64]) -> f64 {
    match kind {
        GateKind::Input | GateKind::Dff => unreachable!("sources handled by caller"),
        GateKind::Const(v) => v as u8 as f64,
        GateKind::Buf => ins[0],
        GateKind::Not => 1.0 - ins[0],
        GateKind::And => ins.iter().product(),
        GateKind::Or => 1.0 - ins.iter().map(|p| 1.0 - p).product::<f64>(),
        GateKind::Nand => 1.0 - ins.iter().product::<f64>(),
        GateKind::Nor => ins.iter().map(|p| 1.0 - p).product(),
        GateKind::Xor => ins
            .iter()
            .fold(0.0, |acc, &p| acc * (1.0 - p) + p * (1.0 - acc)),
        GateKind::Xnor => {
            1.0 - ins
                .iter()
                .fold(0.0, |acc, &p| acc * (1.0 - p) + p * (1.0 - acc))
        }
        GateKind::Mux => (1.0 - ins[0]) * ins[1] + ins[0] * ins[2],
    }
}

/// Propagate one-probabilities through the netlist.
///
/// `input_probs[i]` is the one-probability of primary input `i`. For
/// sequential netlists the flip-flop probabilities start at 0.5 and the
/// combinational sweep repeats until convergence (`tolerance`) or
/// `max_sweeps`.
///
/// # Panics
///
/// Panics if `input_probs` does not match the input count or the
/// combinational part is cyclic.
pub fn propagate(nl: &Netlist, input_probs: &[f64], max_sweeps: usize, tolerance: f64) -> Propagated {
    match try_propagate(nl, input_probs, max_sweeps, tolerance, &ResourceBudget::unlimited()) {
        Ok(p) => p,
        Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
    }
}

/// [`propagate`] under a [`ResourceBudget`]: each fixpoint sweep costs
/// `nets` simulation steps against the step limit, and the deadline is
/// polled once per sweep. Propagation is the middle tier of the
/// degradation chain — cheap, but a slowly-converging sequential fixpoint
/// can still eat a deadline, so it is guarded too.
pub fn try_propagate(
    nl: &Netlist,
    input_probs: &[f64],
    max_sweeps: usize,
    tolerance: f64,
    budget: &ResourceBudget,
) -> Result<Propagated, BudgetExceeded> {
    assert_eq!(input_probs.len(), nl.num_inputs(), "input prob width");
    let order = nl.topo_order().expect("acyclic");
    let mut p = vec![0.5f64; nl.len()];
    for (i, &pi) in nl.inputs().iter().enumerate() {
        p[pi.index()] = input_probs[i];
    }
    let sweep_cost = nl.len().max(1) as u64;
    let mut sweeps = 0;
    loop {
        budget.check_sim_steps((sweeps as u64 + 1) * sweep_cost)?;
        budget.check_deadline()?;
        sweeps += 1;
        let mut delta: f64 = 0.0;
        for &net in &order {
            let kind = nl.kind(net);
            if kind == GateKind::Input || kind == GateKind::Dff {
                continue;
            }
            let ins: Vec<f64> = nl.fanins(net).iter().map(|x| p[x.index()]).collect();
            p[net.index()] = gate_probability(kind, &ins);
        }
        // Update flip-flop outputs toward their data-input probability
        // (steady state of the Markov chain); respect load-enables.
        for &dff in nl.dffs() {
            let fanins = nl.fanins(dff);
            let pd = p[fanins[0].index()];
            let target = if fanins.len() == 2 {
                let pe = p[fanins[1].index()];
                // With enable e: q' = e·d + (1−e)·q; steady state keeps the
                // stationary distribution of d when loads happen, so blend.
                if pe <= 1e-12 {
                    p[dff.index()]
                } else {
                    pd
                }
            } else {
                pd
            };
            delta = delta.max((p[dff.index()] - target).abs());
            p[dff.index()] = target;
        }
        if nl.is_combinational() || delta < tolerance || sweeps >= max_sweeps {
            break;
        }
    }
    Ok(Propagated {
        probability: p,
        sweeps,
    })
}

/// Fixpoint sweep cap of [`activity`] on a sequential netlist.
const MAX_SWEEPS: usize = 50;
/// Convergence tolerance of [`activity`]'s fixpoint on a sequential
/// netlist: the largest flip-flop probability change of a sweep.
const TOLERANCE: f64 = 1e-9;

/// Estimate zero-delay switching activity under temporal independence:
/// `toggles = 2·p·(1−p)` per net.
pub fn activity(nl: &Netlist, input_probs: &[f64]) -> ActivityProfile {
    profile_from(propagate(nl, input_probs, MAX_SWEEPS, TOLERANCE))
}

/// [`activity`] under a [`ResourceBudget`].
pub fn try_activity(
    nl: &Netlist,
    input_probs: &[f64],
    budget: &ResourceBudget,
) -> Result<ActivityProfile, BudgetExceeded> {
    Ok(profile_from(try_propagate(nl, input_probs, MAX_SWEEPS, TOLERANCE, budget)?))
}

fn profile_from(propagated: Propagated) -> ActivityProfile {
    let toggles = propagated
        .probability
        .iter()
        .map(|&p| 2.0 * p * (1.0 - p))
        .collect();
    ActivityProfile {
        toggles,
        probability: propagated.probability,
        cycles: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::circuit_bdds;
    use netlist::gen::{parity_tree, random_dag, ripple_adder, RandomDagConfig};

    #[test]
    fn exact_on_trees() {
        // Parity trees are fanout-free: propagation is exact.
        let nl = parity_tree(6);
        let propagated = propagate(&nl, &[0.3; 6], 10, 1e-9);
        let bdds = circuit_bdds(&nl);
        let exact = bdds.probabilities(&[0.3; 6]);
        for net in nl.iter_nets() {
            assert!(
                (propagated.probability[net.index()] - exact[net.index()]).abs() < 1e-9,
                "net {net}"
            );
        }
    }

    #[test]
    fn approximate_on_dags_but_close() {
        let (nl, _) = ripple_adder(6);
        let propagated = propagate(&nl, &[0.5; 12], 10, 1e-9);
        let bdds = circuit_bdds(&nl);
        let exact = bdds.probabilities(&[0.5; 12]);
        for net in nl.iter_nets() {
            let e = exact[net.index()];
            let a = propagated.probability[net.index()];
            assert!((e - a).abs() < 0.2, "net {net}: exact {e} approx {a}");
        }
    }

    #[test]
    fn basic_gate_probabilities() {
        assert!((gate_probability(GateKind::And, &[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((gate_probability(GateKind::Or, &[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((gate_probability(GateKind::Xor, &[0.3, 0.3]) - 0.42).abs() < 1e-12);
        assert!((gate_probability(GateKind::Nand, &[1.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!((gate_probability(GateKind::Mux, &[0.5, 0.2, 0.8]) - 0.5).abs() < 1e-12);
        assert!((gate_probability(GateKind::Not, &[0.1]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn counter_fixpoint_is_half() {
        let nl = netlist::gen::counter(4);
        let propagated = propagate(&nl, &[1.0], 100, 1e-6);
        // Counter bits spend half their time at 1 (and 0.5 is already the
        // fixpoint of the symmetric XOR update, so one sweep suffices).
        for &dff in nl.dffs() {
            let p = propagated.probability[dff.index()];
            assert!((p - 0.5).abs() < 0.1, "dff prob {p}");
        }
    }

    #[test]
    fn sequential_fixpoint_iterates_on_decaying_register() {
        // q' = q AND a with P(a)=0.9: probability decays geometrically to 0,
        // which takes many sweeps to converge.
        let mut nl = netlist::Netlist::new("decay");
        let a = nl.add_input("a");
        let q = nl.add_dff_placeholder(true);
        let d = nl.add_gate(GateKind::And, &[q, a]);
        nl.set_dff_data(q, d);
        nl.mark_output(q, "q");
        let propagated = propagate(&nl, &[0.9], 500, 1e-6);
        assert!(propagated.sweeps > 10, "sweeps {}", propagated.sweeps);
        assert!(propagated.probability[q.index()] < 0.01);
    }

    #[test]
    fn activity_profile_has_expected_shape() {
        let config = RandomDagConfig::default();
        let nl = random_dag(&config, 4);
        let profile = activity(&nl, &vec![0.5; nl.num_inputs()]);
        for net in nl.iter_nets() {
            let t = profile.toggles[net.index()];
            assert!((0.0..=0.5 + 1e-12).contains(&t), "2p(1-p) bound, got {t}");
        }
    }
}
