//! Property tests of the event kernel against the scalar reference
//! simulator of `crates/sim/tests/event_reference`.
//!
//! The event engine's determinism contract: pending transitions apply in
//! `(time, net)` order, the **last** value scheduled for a `(net, time)`
//! pair wins, and sinks evaluate through `GateKind::eval`. The reference
//! runs that contract one pattern at a time; `EventSim`'s window kernel,
//! 256 patterns per block with each gate reading its fanins its own delay
//! earlier, must reproduce its activity and event counters exactly, under
//! non-uniform delays as under unit ones.

#[path = "../crates/sim/tests/event_reference/mod.rs"]
mod event_reference;

use lowpower::logicopt::balance::balance_paths;
use lowpower::netlist::gen::{array_multiplier, random_dag, RandomDagConfig};
use lowpower::netlist::{Netlist, Rng64};
use lowpower::obs::Obs;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::stimulus::{PatternSet, Stimulus};
use proptest::prelude::*;

/// Stream lengths: one lane (cycle 0, a transition from itself), one real
/// transition, a full 256-lane block plus a one-lane or a masked 44-lane
/// block, and three blocks, so that jobs 3 runs three shards.
const CYCLES: [usize; 5] = [1, 2, 257, 300, 600];

/// A random DAG with n-ary gates of fanin up to 5.
fn dag(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs,
        gates,
        outputs: 4,
        max_fanin: 5,
        window: 24,
    };
    random_dag(&config, seed)
}

/// Run the kernel at jobs 1 and 3 and compare both activity profiles and
/// every `sim.event.*` counter with one reference run over the stream.
fn check(nl: &Netlist, model: &DelayModel, patterns: &PatternSet) -> Result<(), TestCaseError> {
    let delays: Vec<u32> = nl.iter_nets().map(|net| model.delay(nl, net)).collect();
    let reference = event_reference::run(nl, &delays, None, patterns);
    for jobs in [1, 3] {
        let obs = Obs::enabled();
        let timing = EventSim::new(nl, model)
            .with_obs(obs.clone())
            .activity_jobs(patterns, jobs);
        prop_assert_eq!(&timing.total.toggles, &reference.total_rates());
        prop_assert_eq!(&timing.functional.toggles, &reference.functional_rates());
        prop_assert_eq!(&timing.total.probability, &reference.probability());
        let counters = event_reference::event_counters(&obs.snapshot().counters);
        prop_assert_eq!(counters, reference.counters());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random per-net delays of 1 to 5 ticks, so reconvergent paths of
    /// one depth arrive at different ticks.
    #[test]
    fn kernel_matches_reference_under_random_per_net_delays(
        seed in 0u64..1 << 48,
        inputs in 3usize..12,
        gates in 8usize..150,
        length in 0usize..CYCLES.len(),
    ) {
        let nl = dag(seed, inputs, gates);
        let mut rng = Rng64::new(seed ^ 0xde1a);
        let delays = (0..nl.len()).map(|_| 1 + rng.range(0, 5) as u32).collect();
        let patterns = Stimulus::uniform(inputs).patterns(CYCLES[length], seed ^ 0x5eed);
        check(&nl, &DelayModel::PerNet(delays), &patterns)?;
    }

    /// The analytic model, whose delays depend on gate kind and fanin, at
    /// 4 and 8 ticks per unit.
    #[test]
    fn kernel_matches_reference_under_analytic_delays(
        seed in 0u64..1 << 48,
        inputs in 3usize..12,
        gates in 8usize..150,
        length in 0usize..CYCLES.len(),
        fine in any::<bool>(),
    ) {
        let nl = dag(seed, inputs, gates);
        let model = DelayModel::Analytic { resolution: if fine { 8 } else { 4 } };
        let patterns = Stimulus::uniform(inputs).patterns(CYCLES[length], seed ^ 0x5eed);
        check(&nl, &model, &patterns)?;
    }
}

/// The kernel against the reference on a fully balanced 8-bit array
/// multiplier, where every tick of a window changes only the few nets of
/// one level, for streams of 1, 2 and 300 patterns on 1 to 3 shards (each
/// shard after the first starts from a seed pattern). Every activity field
/// and every event counter must agree.
#[test]
fn event_kernel_matches_reference_on_balanced_multiplier() {
    let (balanced, _) = balance_paths(&array_multiplier(8).0, 0);
    let delays = vec![1; balanced.len()];
    for cycles in [1, 2, 300] {
        let patterns = Stimulus::uniform(16).patterns(cycles, 43);
        let reference = event_reference::run(&balanced, &delays, None, &patterns);
        for jobs in [1, 2, 3] {
            let obs = Obs::enabled();
            let timing = EventSim::new(&balanced, &DelayModel::Unit)
                .with_obs(obs.clone())
                .activity_jobs(&patterns, jobs);
            let case = format!("{cycles} patterns, jobs {jobs}");
            assert_eq!(timing.total.toggles, reference.total_rates(), "{case}");
            assert_eq!(
                timing.functional.toggles,
                reference.functional_rates(),
                "{case}"
            );
            assert_eq!(timing.total.probability, reference.probability(), "{case}");
            let counters = event_reference::event_counters(&obs.snapshot().counters);
            assert_eq!(counters, reference.counters(), "{case}");
            assert_eq!(
                timing.glitch_fraction(),
                0.0,
                "balanced paths cannot glitch"
            );
        }
    }
}
