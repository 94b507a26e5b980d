//! Differential tests at realistic size, each engine against an oracle
//! that shares none of its evaluation code, bit for bit, on the circuits
//! lpbench drives (32-bit Wallace and array multipliers, a 64-bit
//! Kogge-Stone adder), a 10,000-gate random DAG and a 32-bit pipelined
//! multiplier:
//!
//! * the event kernel and the zero-delay `CombSim` against the scalar
//!   reference simulator of `crates/sim/tests/event_reference`;
//! * `FaultSim::campaign` against structural stuck-at injection evaluated
//!   by `Netlist::eval_comb`;
//! * `SeqSim` against a per-cycle stepper local to this file.

#[path = "../crates/sim/tests/event_reference/mod.rs"]
mod event_reference;

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{self, random_dag, RandomDagConfig};
use lowpower::netlist::{GateKind, Netlist, Rng64};
use lowpower::obs::Obs;
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::fault::{all_stuck_at_faults, inject_stuck_at, FaultKind, FaultSim};
use lowpower::sim::seq::SeqSim;
use lowpower::sim::stimulus::{PatternSet, Stimulus};

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

/// Run the kernel and `CombSim` at jobs 1 and 3 on `cycles` patterns and
/// compare the kernel's activity profiles and every `sim.event.*` counter,
/// and `CombSim`'s profile, with one reference run over the same stream.
fn check_against_reference(nl: &Netlist, model: &DelayModel, cycles: usize) {
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, 0xD1);
    let delays: Vec<u32> = nl.iter_nets().map(|net| model.delay(nl, net)).collect();
    let reference = event_reference::run(nl, &delays, None, &patterns);
    for jobs in [1, 3] {
        let comb = CombSim::new(nl).activity_jobs(&patterns, jobs);
        let case = format!("{} zero-delay at jobs {jobs}", nl.name());
        assert_eq!(
            bits(&comb.toggles),
            bits(&reference.functional_rates()),
            "{case}"
        );
        assert_eq!(
            bits(&comb.probability),
            bits(&reference.probability()),
            "{case}"
        );
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

/// `FaultSim::campaign` on a seeded sample of stuck-at faults against
/// `inject_stuck_at` copies evaluated pattern by pattern with
/// `Netlist::eval_comb`: the first cycle any output differs from the
/// fault-free outputs. 300 patterns are one full 256-cycle group and a
/// ragged one, and the campaign runs at jobs 1 and 3.
#[test]
fn fault_campaign_matches_structural_injection_at_size() {
    for nl in [gen::wallace_multiplier(32).0, gen::kogge_stone_adder(64).0] {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(300, 0xFA);
        let all = all_stuck_at_faults(&nl);
        let mut rng = Rng64::new(0x5A);
        let faults: Vec<_> = (0..24).map(|_| all[rng.range(0, all.len())]).collect();
        let golden: Vec<Vec<bool>> = patterns.iter().map(|p| nl.eval_comb(p)).collect();
        let expected: Vec<Option<usize>> = faults
            .iter()
            .map(|f| {
                let faulty = inject_stuck_at(&nl, f.net, f.kind == FaultKind::StuckAt1).unwrap();
                patterns
                    .iter()
                    .zip(&golden)
                    .position(|(p, g)| faulty.eval_comb(p) != *g)
            })
            .collect();
        assert!(
            expected.iter().any(Option::is_some) && expected.iter().any(|d| d != &Some(0)),
            "{}: the sample should hold detected faults found after cycle 0",
            nl.name()
        );
        for jobs in [1, 3] {
            let report = FaultSim::new(&nl)
                .campaign(&patterns, &faults, jobs, &ResourceBudget::unlimited())
                .unwrap();
            let got: Vec<Option<usize>> = report.reports.iter().map(|r| r.first_detected).collect();
            assert_eq!(got, expected, "{} at jobs {jobs}", nl.name());
            assert!(report.reports.iter().all(|r| !r.state_corrupted));
        }
    }
}

/// Per-net and per-register integer counts of one sequential run.
#[derive(Default)]
struct SeqCounts {
    toggles: Vec<u64>,
    ones: Vec<u64>,
    ff_out: Vec<u64>,
    ff_in: Vec<u64>,
    ff_load: Vec<u64>,
}

/// Step `nl` one cycle at a time from its declared initial state: settle
/// every gate through `GateKind::eval` in topological order, then load
/// each register (`d` when its enable is high or absent, else its value).
fn step_counts(nl: &Netlist, patterns: &PatternSet) -> SeqCounts {
    let order = nl.topo_order().unwrap();
    let dffs = nl.dffs();
    let mut state: Vec<bool> = dffs.iter().map(|&d| nl.dff_init(d)).collect();
    let mut counts = SeqCounts {
        toggles: vec![0; nl.len()],
        ones: vec![0; nl.len()],
        ff_out: vec![0; dffs.len()],
        ff_in: vec![0; dffs.len()],
        ff_load: vec![0; dffs.len()],
    };
    let mut prev: Option<(Vec<bool>, Vec<bool>)> = None;
    for p in patterns {
        let mut values = vec![false; nl.len()];
        for (&pi, &v) in nl.inputs().iter().zip(p) {
            values[pi.index()] = v;
        }
        for (&dff, &q) in dffs.iter().zip(&state) {
            values[dff.index()] = q;
        }
        for &net in &order {
            match nl.kind(net) {
                GateKind::Input | GateKind::Dff => {}
                kind => {
                    let ins: Vec<bool> = nl.fanins(net).iter().map(|f| values[f.index()]).collect();
                    values[net.index()] = kind.eval(&ins);
                }
            }
        }
        let d: Vec<bool> = dffs
            .iter()
            .map(|&r| values[nl.fanins(r)[0].index()])
            .collect();
        for (ones, &v) in counts.ones.iter_mut().zip(&values) {
            *ones += u64::from(v);
        }
        if let Some((prev_values, prev_d)) = &prev {
            for i in 0..nl.len() {
                counts.toggles[i] += u64::from(values[i] != prev_values[i]);
            }
            for r in 0..dffs.len() {
                counts.ff_in[r] += u64::from(d[r] != prev_d[r]);
            }
        }
        for (r, &dff) in dffs.iter().enumerate() {
            let en = nl.fanins(dff).get(1).is_none_or(|e| values[e.index()]);
            let next = if en { d[r] } else { state[r] };
            counts.ff_load[r] += u64::from(en);
            counts.ff_out[r] += u64::from(next != state[r]);
            state[r] = next;
        }
        prev = Some((values, d));
    }
    counts
}

/// `SeqSim` at jobs 1 and 3 against the per-cycle stepper on a 32-bit
/// pipelined multiplier (6,208 nets, 128 flip-flops). 700 cycles give the
/// word-parallel pass three steps per lane with a ragged last step, and
/// three jobs run three shards.
#[test]
fn seq_sim_matches_per_cycle_stepping_at_size() {
    let nl = gen::pipelined_multiplier(32);
    let cycles = 700;
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, 0x5E);
    let counts = step_counts(&nl, &patterns);
    let per_pair =
        |c: &[u64]| -> Vec<f64> { c.iter().map(|&x| x as f64 / (cycles - 1) as f64).collect() };
    let per_cycle =
        |c: &[u64]| -> Vec<f64> { c.iter().map(|&x| x as f64 / cycles as f64).collect() };
    for jobs in [1, 3] {
        let seq = SeqSim::new(&nl).activity_jobs(&patterns, jobs);
        let case = format!("pipelined_multiplier(32) at jobs {jobs}");
        assert_eq!(seq.profile.cycles, cycles, "{case}");
        assert_eq!(
            bits(&seq.profile.toggles),
            bits(&per_pair(&counts.toggles)),
            "{case}"
        );
        assert_eq!(
            bits(&seq.profile.probability),
            bits(&per_cycle(&counts.ones)),
            "{case}"
        );
        assert_eq!(
            bits(&seq.ff_output_toggles),
            bits(&per_cycle(&counts.ff_out)),
            "{case}"
        );
        assert_eq!(
            bits(&seq.ff_input_toggles),
            bits(&per_pair(&counts.ff_in)),
            "{case}"
        );
        assert_eq!(
            bits(&seq.ff_load_fraction),
            bits(&per_cycle(&counts.ff_load)),
            "{case}"
        );
    }
}
