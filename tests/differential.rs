//! Differential tests at realistic size: two engines that must agree bit
//! for bit, run side by side on the circuits lpbench drives (32-bit
//! Wallace and array multipliers, a 64-bit Kogge-Stone adder) and a
//! 10,000-gate random DAG.

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{self, random_dag, RandomDagConfig};
use lowpower::obs::Obs;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::stimulus::Stimulus;
use lowpower::sim::ActivityProfile;

/// Exact bit pattern of a profile (bitwise f64 comparison, not epsilon).
fn bits(p: &ActivityProfile) -> (Vec<u64>, Vec<u64>, usize) {
    (
        p.toggles.iter().map(|x| x.to_bits()).collect(),
        p.probability.iter().map(|x| x.to_bits()).collect(),
        p.cycles,
    )
}

/// The dense event kernel against the calendar queue. A queue-length
/// limit is what sends a unit-delay run through the queue. 260 patterns
/// are two 256-lane blocks, the second partial, so three jobs run two
/// shards; array32 gets one partial block, because its queue runs, at
/// about 60,000 events per pattern, cost most of the test's time in a
/// debug build. Both activity profiles and every `sim.event.*` counter
/// must agree, and the kernel's at jobs 3 with its own at jobs 1.
#[test]
fn dense_event_kernel_matches_calendar_queue_at_size() {
    let dag_config = RandomDagConfig {
        inputs: 64,
        gates: 10_000,
        outputs: 32,
        max_fanin: 3,
        window: 64,
    };
    let circuits = [
        (gen::wallace_multiplier(32).0, 260),
        (gen::array_multiplier(32).0, 40),
        (gen::kogge_stone_adder(64).0, 260),
        (random_dag(&dag_config, 7), 260),
    ];
    let queue = ResourceBudget::unlimited().with_max_event_queue(1 << 30);
    for (nl, cycles) in &circuits {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(*cycles, 0xD1);
        let mut serial = None;
        for jobs in [1, 3] {
            let run = |budget: &ResourceBudget| {
                let obs = Obs::enabled();
                let timing = EventSim::new(nl, &DelayModel::Unit)
                    .with_obs(obs.clone())
                    .try_activity_jobs(&patterns, jobs, budget)
                    .expect("roomy budget");
                (timing, obs.snapshot().counters)
            };
            let (dense, dense_counters) = run(&ResourceBudget::unlimited());
            let (queued, queue_counters) = run(&queue);
            let case = format!("{} at jobs {jobs}", nl.name());
            assert_eq!(bits(&dense.total), bits(&queued.total), "{case}");
            assert_eq!(bits(&dense.functional), bits(&queued.functional), "{case}");
            let event = |counters: &[(String, u64)]| -> Vec<(String, u64)> {
                counters
                    .iter()
                    .filter(|(name, _)| name.starts_with("sim.event."))
                    .cloned()
                    .collect()
            };
            assert_eq!(event(&dense_counters).len(), 5, "{case}");
            assert_eq!(event(&dense_counters), event(&queue_counters), "{case}");
            let profiles = (bits(&dense.total), bits(&dense.functional));
            assert_eq!(serial.get_or_insert(profiles.clone()), &profiles, "{case}");
        }
    }
}
