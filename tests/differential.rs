//! Differential tests at realistic size: the event kernel against the
//! scalar reference simulator of `crates/sim/tests/event_reference`, bit
//! for bit, on the circuits lpbench drives (32-bit Wallace and array
//! multipliers, a 64-bit Kogge-Stone adder) and a 10,000-gate random DAG.

#[path = "../crates/sim/tests/event_reference/mod.rs"]
mod event_reference;

use lowpower::netlist::gen::{self, random_dag, RandomDagConfig};
use lowpower::netlist::Netlist;
use lowpower::obs::Obs;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::stimulus::Stimulus;

/// Exact bit patterns of per-net rates (bitwise f64, not epsilon).
fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|x| x.to_bits()).collect()
}

/// The 10,000-gate random DAG.
fn dag() -> Netlist {
    let config = RandomDagConfig {
        inputs: 64,
        gates: 10_000,
        outputs: 32,
        max_fanin: 3,
        window: 64,
    };
    random_dag(&config, 7)
}

/// Run the kernel at jobs 1 and 3 on `cycles` patterns and compare both
/// activity profiles and every `sim.event.*` counter with one reference
/// run over the same stream.
fn check_against_reference(nl: &Netlist, model: &DelayModel, cycles: usize) {
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, 0xD1);
    let delays: Vec<u32> = nl.iter_nets().map(|net| model.delay(nl, net)).collect();
    let reference = event_reference::run(nl, &delays, None, &patterns);
    for jobs in [1, 3] {
        let obs = Obs::enabled();
        let timing = EventSim::new(nl, model)
            .with_obs(obs.clone())
            .activity_jobs(&patterns, jobs);
        let case = format!("{} under {model:?} at jobs {jobs}", nl.name());
        assert_eq!(
            bits(&timing.total.toggles),
            bits(&reference.total_rates()),
            "{case}"
        );
        assert_eq!(
            bits(&timing.functional.toggles),
            bits(&reference.functional_rates()),
            "{case}"
        );
        assert_eq!(
            bits(&timing.total.probability),
            bits(&reference.probability()),
            "{case}"
        );
        let counters = event_reference::event_counters(&obs.snapshot().counters);
        assert_eq!(counters, reference.counters(), "{case}");
    }
}

/// Unit delays. 260 patterns are two 256-lane blocks, the second partial,
/// so three jobs run two shards; array32 gets one partial block, because
/// its reference run, at about 60,000 transitions per pattern, would cost
/// most of the test's time in a debug build.
#[test]
fn event_kernel_matches_reference_at_size() {
    let circuits = [
        (gen::wallace_multiplier(32).0, 260),
        (gen::array_multiplier(32).0, 40),
        (gen::kogge_stone_adder(64).0, 260),
        (dag(), 260),
    ];
    for (nl, cycles) in &circuits {
        check_against_reference(nl, &DelayModel::Unit, *cycles);
    }
}

/// The analytic delay model at 4 ticks per unit, where gate delays differ
/// by kind and fanin. The DAG gets one partial block: it glitches at about
/// 45,000 transitions per pattern under these delays, as array32 does
/// under unit delays.
#[test]
fn event_kernel_matches_reference_at_size_under_analytic_delays() {
    let circuits = [
        (gen::wallace_multiplier(32).0, 260),
        (gen::kogge_stone_adder(64).0, 260),
        (dag(), 40),
    ];
    for (nl, cycles) in &circuits {
        check_against_reference(nl, &DelayModel::Analytic { resolution: 4 }, *cycles);
    }
}
