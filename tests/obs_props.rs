//! Property tests of the observability counters' structural invariants.
//!
//! The metric names are an API: downstream dashboards and the golden
//! suite interpret them. These properties pin the conservation laws the
//! numbers must obey for any circuit, stimulus, and budget:
//!
//! * BDD computed-table hits never exceed lookups, and every unique-table
//!   lookup either hit or created a node.
//! * The event simulator processes exactly what it enqueues (one event
//!   per transition), and cancels at most what it processes.
//! * Every degradation-chain attempt is either the (single) answer or a
//!   typed abandonment — nothing is dropped silently.

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{random_dag, RandomDagConfig};
use lowpower::netlist::Netlist;
use lowpower::obs::Obs;
use lowpower::power::chain::{estimate_activity, ChainConfig};
use lowpower::power::exact::try_circuit_bdds_reorder;
use lowpower::power::order::ReorderConfig;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::stimulus::Stimulus;
use proptest::prelude::*;

fn dag(seed: u64, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs: 8,
        gates,
        outputs: 4,
        max_fanin: 3,
        window: 12,
    };
    random_dag(&config, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bdd_counters_obey_table_conservation(
        seed in 0u64..5000,
        gates in 5usize..60,
        node_cap in 64u64..20_000,
    ) {
        let nl = dag(seed, gates);
        let obs = Obs::enabled();
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(node_cap);
        // Counters must hold whether the build finished or was abandoned.
        let _ = try_circuit_bdds_reorder(&nl, &budget, &ReorderConfig::default(), &obs);
        let snap = obs.snapshot();
        let hits = snap.counter("bdd.cache_hits").unwrap_or(0);
        let lookups = snap.counter("bdd.cache_lookups").unwrap_or(0);
        prop_assert!(hits <= lookups, "cache hits {hits} > lookups {lookups}");
        let unique_hits = snap.counter("bdd.unique_hits").unwrap_or(0);
        let unique_lookups = snap.counter("bdd.unique_lookups").unwrap_or(0);
        let created = snap.counter("bdd.nodes_created").unwrap_or(0);
        prop_assert_eq!(unique_lookups, unique_hits + created);
        let peak = snap.gauge("bdd.peak_nodes").unwrap_or(0.0);
        let freed = snap.counter("bdd.nodes_freed").unwrap_or(0);
        // Peak tracks *live* nodes, so GC'd nodes are the only way the
        // total ever created can exceed it. (Freed slots are recycled, so
        // created counts allocations, not distinct arena slots.)
        prop_assert!(peak + freed as f64 >= created as f64,
            "peak {peak} + freed {freed} < created {created}");
        let gc_runs = snap.counter("bdd.gc_runs").unwrap_or(0);
        prop_assert!(gc_runs > 0 || freed == 0, "freed {freed} nodes without a GC run");
    }

    #[test]
    fn event_counters_obey_queue_conservation(
        seed in 0u64..5000,
        gates in 5usize..60,
        cycles in 1usize..200,
        jobs in 1usize..5,
    ) {
        let nl = dag(seed, gates);
        let obs = Obs::enabled();
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, seed);
        EventSim::new(&nl, &DelayModel::Unit)
            .with_obs(obs.clone())
            .activity_jobs(&patterns, jobs);
        let snap = obs.snapshot();
        let processed = snap.counter("sim.event.processed").unwrap_or(0);
        let enqueued = snap.counter("sim.event.enqueued").unwrap_or(0);
        let cancelled = snap.counter("sim.event.cancelled").unwrap_or(0);
        prop_assert_eq!(processed, enqueued, "every enqueued event is processed");
        prop_assert!(cancelled <= processed);
        prop_assert_eq!(snap.counter("sim.event.cycles"), Some(cycles as u64));
    }

    #[test]
    fn chain_attempts_balance_answers_and_abandonments(
        seed in 0u64..5000,
        gates in 5usize..60,
        node_cap in 16u64..50_000,
    ) {
        let nl = dag(seed, gates);
        let obs = Obs::enabled();
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(node_cap);
        let cfg = ChainConfig {
            sample_cycles: 64,
            obs: obs.clone(),
            ..ChainConfig::default()
        };
        let result = estimate_activity(&nl, &budget, &cfg);
        let snap = obs.snapshot();
        let attempts = snap.counter("chain.attempts").unwrap_or(0);
        let answered = snap.counter("chain.answered").unwrap_or(0);
        let abandoned = snap.counter_sum("chain.abandoned.");
        prop_assert_eq!(attempts, answered + abandoned);
        prop_assert!(answered <= 1, "at most one tier answers");
        match result {
            Ok(est) => {
                prop_assert_eq!(answered, 1);
                prop_assert_eq!(attempts, est.attempts.len() as u64);
            }
            Err(e) => {
                prop_assert_eq!(answered, 0);
                prop_assert_eq!(attempts, e.attempts.len() as u64);
            }
        }
    }
}
