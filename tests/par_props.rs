//! Workspace property tests of the parallel simulation engine: for random
//! netlists, stimuli, and thread counts 1–8, each sharded simulator must
//! produce an activity profile **bit-identical** to its serial run — not
//! merely equal to within floating-point tolerance. This is the
//! determinism contract the experiment harness and the power estimators
//! rely on: `--jobs N` can never change a reported number. One further
//! test holds every sharded engine to it on circuits of 6k–10k nets.

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{self, random_dag, RandomDagConfig};
use lowpower::power::estimate::{measure_sequence, measure_sequence_jobs};
use lowpower::power::model::PowerParams;
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::fault::{all_stuck_at_faults, FaultSim};
use lowpower::sim::seq::{SeqActivity, SeqSim};
use lowpower::sim::stimulus::Stimulus;
use lowpower::sim::ActivityProfile;
use proptest::prelude::*;

/// Exact bit pattern of a profile (bitwise f64 comparison, not epsilon).
fn bits(p: &ActivityProfile) -> (Vec<u64>, Vec<u64>, usize) {
    (
        p.toggles.iter().map(|x| x.to_bits()).collect(),
        p.probability.iter().map(|x| x.to_bits()).collect(),
        p.cycles,
    )
}

type SeqBits = ((Vec<u64>, Vec<u64>, usize), [Vec<u64>; 3]);

/// Exact bit pattern of a sequential activity: the profile, then the
/// per-flip-flop output toggles, input toggles and load fractions.
fn seq_bits(a: &SeqActivity) -> SeqBits {
    let fbits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        bits(&a.profile),
        [
            fbits(&a.ff_output_toggles),
            fbits(&a.ff_input_toggles),
            fbits(&a.ff_load_fraction),
        ],
    )
}

fn comb_dag(seed: u64, gates: usize) -> lowpower::netlist::Netlist {
    let config = RandomDagConfig {
        inputs: 8,
        gates,
        outputs: 4,
        max_fanin: 3,
        window: 12,
    };
    random_dag(&config, seed)
}

/// A random stimulus family: uniform, biased, correlated, or counting.
fn stimulus(kind: usize, bias: u32, width: usize) -> Stimulus {
    let p = f64::from(bias.clamp(1, 99)) / 100.0;
    match kind % 4 {
        0 => Stimulus::uniform(width),
        1 => Stimulus::biased(vec![p; width]),
        2 => Stimulus::correlated(vec![p; width]),
        _ => Stimulus::counting(width),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn comb_parallel_is_bit_identical(
        seed in 0u64..5000,
        gates in 10usize..80,
        cycles in 1usize..400,
        kind in 0usize..4,
        bias in 1u32..100,
        jobs in 1usize..9,
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = stimulus(kind, bias, 8).patterns(cycles, seed ^ 0x51);
        let sim = CombSim::new(&nl);
        let serial = sim.activity(&patterns);
        let par = sim.activity_jobs(&patterns, jobs);
        prop_assert_eq!(bits(&par), bits(&serial));
    }

    #[test]
    fn event_parallel_is_bit_identical(
        seed in 0u64..5000,
        gates in 10usize..60,
        cycles in 1usize..800,
        kind in 0usize..4,
        bias in 1u32..100,
        jobs in 1usize..9,
        analytic in any::<bool>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = stimulus(kind, bias, 8).patterns(cycles, seed ^ 0xE7);
        let model = if analytic {
            DelayModel::Analytic { resolution: 4 }
        } else {
            DelayModel::Unit
        };
        let sim = EventSim::new(&nl, &model);
        let serial = sim.activity(&patterns);
        let par = sim.activity_jobs(&patterns, jobs);
        prop_assert_eq!(bits(&par.total), bits(&serial.total));
        prop_assert_eq!(bits(&par.functional), bits(&serial.functional));
    }

    #[test]
    fn seq_parallel_is_bit_identical(
        circuit in 0usize..4,
        width in 3usize..6,
        cycles in 1usize..300,
        kind in 0usize..4,
        bias in 1u32..100,
        jobs in 1usize..9,
        seed in 0u64..5000,
    ) {
        let nl = match circuit {
            0 => gen::counter(width),
            1 => gen::shift_register(width),
            2 => gen::lfsr(width + 2, &[0, width]),
            _ => gen::pipelined_multiplier(width),
        };
        let patterns = stimulus(kind, bias, nl.num_inputs()).patterns(cycles, seed ^ 0x5E);
        let sim = SeqSim::new(&nl);
        let serial = sim.activity(&patterns);
        let par = sim.activity_jobs(&patterns, jobs);
        prop_assert_eq!(seq_bits(&par), seq_bits(&serial));
    }

    #[test]
    fn power_report_is_jobs_invariant(
        width in 3usize..6,
        cycles in 2usize..200,
        jobs in 1usize..9,
        seed in 0u64..5000,
    ) {
        let nl = gen::pipelined_multiplier(width);
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, seed ^ 0x9A);
        let params = PowerParams::default();
        let serial = measure_sequence(&nl, &patterns, &params);
        let par = measure_sequence_jobs(&nl, &patterns, &params, jobs);
        prop_assert_eq!(par.total().to_bits(), serial.total().to_bits());
    }
}

/// `--jobs` invariance at realistic size: jobs 2, 3 and 8 give results
/// bit-identical to jobs 1 for the combinational and unit-delay event
/// engines on a 32-bit Wallace multiplier and a 10,000-gate random DAG,
/// for the sequential engine on a pipelined 8-bit multiplier, and for a
/// stuck-at campaign over an 8-bit array multiplier. Event shards are
/// whole 256-pattern blocks, so the event runs take 600 patterns: three
/// blocks, split two ways at jobs 2 and three ways at jobs 3 and 8.
#[test]
fn realistic_circuits_are_jobs_invariant() {
    let (wallace, _) = gen::wallace_multiplier(32);
    assert_eq!(wallace.len(), 6_350);
    let dag_config = RandomDagConfig {
        inputs: 64,
        gates: 10_000,
        outputs: 32,
        max_fanin: 3,
        window: 64,
    };
    let dag = random_dag(&dag_config, 7);
    assert_eq!(dag.len(), 10_064);
    for (nl, comb_cycles, event_cycles) in [(&wallace, 1024, 600), (&dag, 1024, 600)] {
        let stimulus = Stimulus::uniform(nl.num_inputs());
        let comb = CombSim::new(nl);
        let patterns = stimulus.patterns(comb_cycles, 0xC0);
        let serial = comb.activity_jobs(&patterns, 1);
        let event = EventSim::new(nl, &DelayModel::Unit);
        let timed = stimulus.patterns(event_cycles, 0xE0);
        let timed_serial = event.activity_jobs(&timed, 1);
        for jobs in [2, 3, 8] {
            let name = nl.name();
            let par = comb.activity_jobs(&patterns, jobs);
            assert_eq!(bits(&par), bits(&serial), "comb {name} jobs={jobs}");
            let par = event.activity_jobs(&timed, jobs);
            assert_eq!(bits(&par.total), bits(&timed_serial.total), "event {name} jobs={jobs}");
            assert_eq!(bits(&par.functional), bits(&timed_serial.functional));
        }
    }

    let pipe = gen::pipelined_multiplier(8);
    let seq = SeqSim::new(&pipe);
    let patterns = Stimulus::uniform(pipe.num_inputs()).patterns(1024, 0x5E);
    let serial = seq_bits(&seq.activity_jobs(&patterns, 1));
    for jobs in [2, 3, 8] {
        assert_eq!(seq_bits(&seq.activity_jobs(&patterns, jobs)), serial, "seq jobs={jobs}");
    }

    let (mult, _) = gen::array_multiplier(8);
    let faults = all_stuck_at_faults(&mult);
    assert_eq!(faults.len(), 728);
    let patterns = Stimulus::uniform(mult.num_inputs()).patterns(256, 0xFA);
    let fsim = FaultSim::new(&mult);
    let unlimited = ResourceBudget::unlimited();
    let campaign = |jobs| {
        let report = fsim
            .campaign(&patterns, &faults, jobs, &unlimited)
            .expect("unlimited budget");
        (report.reports, report.cycles)
    };
    let serial = campaign(1);
    for jobs in [2, 3, 8] {
        assert_eq!(campaign(jobs), serial, "fault campaign jobs={jobs}");
    }
}
