//! Property tests of the BDD kernel against ground truth.
//!
//! The kernel rewrite (complement edges, open-addressed tables, GC) must
//! be invisible at the semantic level. These properties pin that down on
//! random circuits:
//!
//! * the BDD of every output agrees with gate-level simulation on every
//!   one of the `2^inputs` assignments;
//! * a garbage collection changes no observable number — evaluation and
//!   signal probabilities are bit-identical before and after;
//! * the degradation chain returns bit-identical profiles with and
//!   without a [`CircuitBddCache`], on hits as well as misses.

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{random_dag, RandomDagConfig};
use lowpower::netlist::Netlist;
use lowpower::power::chain::{estimate_activity, estimate_activity_resident, ChainConfig};
use lowpower::power::exact::{try_circuit_bdds, CircuitBddCache};
use lowpower::sim::ActivityProfile;
use proptest::prelude::*;

/// Six inputs: small enough to check all 64 assignments exhaustively.
fn dag(seed: u64, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs: 6,
        gates,
        outputs: 3,
        max_fanin: 3,
        window: 10,
    };
    random_dag(&config, seed)
}

fn bits_of(profile: &ActivityProfile) -> Vec<u64> {
    profile
        .toggles
        .iter()
        .chain(profile.probability.iter())
        .map(|x| x.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_gate_level_simulation_exhaustively(
        seed in 0u64..5000,
        gates in 5usize..40,
    ) {
        let nl = dag(seed, gates);
        let bdds = try_circuit_bdds(&nl, &ResourceBudget::unlimited()).unwrap();
        let num_vars = bdds.mgr.num_vars();
        for m in 0..1usize << nl.num_inputs() {
            let bits: Vec<bool> = (0..nl.num_inputs()).map(|i| m >> i & 1 == 1).collect();
            let simulated = nl.eval_comb(&bits);
            let mut env = vec![false; num_vars];
            for (i, &var) in bdds.input_vars.iter().enumerate() {
                env[var as usize] = bits[i];
            }
            for (o, (out, _)) in nl.outputs().iter().enumerate() {
                prop_assert_eq!(
                    bdds.mgr.eval(bdds.func(*out), &env),
                    simulated[o],
                    "assignment {m:06b}, output {o}"
                );
            }
        }
    }

    #[test]
    fn gc_changes_no_observable_number(
        seed in 0u64..5000,
        gates in 5usize..40,
        pbits in 0u32..64,
    ) {
        let nl = dag(seed, gates);
        let probs: Vec<f64> = (0..nl.num_inputs())
            .map(|i| if pbits >> i & 1 == 1 { 0.8 } else { 0.3 })
            .collect();
        let mut bdds = try_circuit_bdds(&nl, &ResourceBudget::unlimited()).unwrap();
        let probs_before = bdds.probabilities(&probs);
        let num_vars = bdds.mgr.num_vars();
        let env_of = |m: usize| {
            let mut env = vec![false; num_vars];
            for (i, &var) in bdds.input_vars.iter().enumerate() {
                env[var as usize] = m >> i & 1 == 1;
            }
            env
        };
        let evals_before: Vec<Vec<bool>> = (0..64)
            .map(|m| {
                let env = env_of(m);
                nl.outputs()
                    .iter()
                    .map(|(out, _)| bdds.mgr.eval(bdds.func(*out), &env))
                    .collect()
            })
            .collect();

        bdds.mgr.gc();

        let probs_after = bdds.probabilities(&probs);
        for (b, a) in probs_before.iter().zip(probs_after.iter()) {
            prop_assert_eq!(b.to_bits(), a.to_bits(), "probability drifted across GC");
        }
        for (m, before) in evals_before.iter().enumerate() {
            let env = env_of(m);
            for (o, (out, _)) in nl.outputs().iter().enumerate() {
                prop_assert_eq!(
                    bdds.mgr.eval(bdds.func(*out), &env),
                    before[o],
                    "eval drifted across GC at assignment {m:06b}"
                );
            }
        }
    }

    #[test]
    fn chain_with_cache_is_bit_identical(
        seed in 0u64..5000,
        gates in 5usize..40,
    ) {
        let nl = dag(seed, gates);
        let cfg = ChainConfig::default();
        let budget = ResourceBudget::unlimited();
        let plain = estimate_activity(&nl, &budget, &cfg).unwrap();

        let mut cache = CircuitBddCache::new();
        let missed = estimate_activity_resident(&nl, &budget, &cfg, &mut cache, None).unwrap();
        let hit = estimate_activity_resident(&nl, &budget, &cfg, &mut cache, None).unwrap();
        prop_assert_eq!((cache.hits(), cache.misses()), (1, 1));
        prop_assert_eq!(bits_of(&plain.profile), bits_of(&missed.profile));
        prop_assert_eq!(bits_of(&missed.profile), bits_of(&hit.profile));
    }
}
