//! Property tests pinning each word-parallel engine to an independent
//! oracle.
//!
//! Every engine runs one lane-generic kernel at `LANES` words, so each is
//! checked against something that does not share that kernel's width: comb
//! against the same kernel at one lane, event against the scalar reference
//! simulator of `event_reference`, seq against per-cycle stepping, fault
//! against per-fault reports, and the incremental engine against `CombSim`
//! from scratch. Random DAGs and
//! cycle counts deliberately straddling block (64) and wide-group (256)
//! boundaries keep ragged-tail masking in play.

mod event_reference;

use budget::ResourceBudget;
use netlist::gen::{random_dag, RandomDagConfig};
use netlist::{GateKind, NetId, Netlist, Rng64};
use proptest::prelude::*;
use sim::comb::CombSim;
use sim::event::{DelayModel, EventSim};
use sim::fault::{all_stuck_at_faults, Fault, FaultKind, FaultSim};
use sim::incr::{Delta, IncrementalSim};
use sim::seq::{SeqActivity, SeqSim};
use sim::stimulus::{PackedPatterns, Stimulus};
use sim::ActivityProfile;

/// A small random combinational DAG; sized so a case stays cheap even on
/// a one-core CI host while still covering multi-level reconvergence.
fn small_dag(seed: u64, inputs: usize, gates: usize) -> Netlist {
    random_dag(
        &RandomDagConfig {
            inputs,
            gates,
            outputs: 4.min(gates),
            max_fanin: 3,
            window: 24,
        },
        seed,
    )
}

/// A random sequential netlist: `dffs` feedback registers over a random
/// gate cloud, some with load-enables, registers and late gates marked
/// as outputs. Placeholder flops keep the graph acyclic at build time.
fn random_seq(seed: u64, inputs: usize, gates: usize, dffs: usize) -> Netlist {
    let mut rng = Rng64::new(seed);
    let mut nl = Netlist::new(format!("random_seq_s{seed}"));
    let ins: Vec<NetId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    let regs: Vec<NetId> = (0..dffs)
        .map(|_| nl.add_dff_placeholder(rng.next_u64() & 1 == 1))
        .collect();
    let mut pool: Vec<NetId> = ins.iter().chain(regs.iter()).copied().collect();
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xnor,
    ];
    for _ in 0..gates {
        let kind = kinds[rng.range(0, kinds.len())];
        let a = pool[rng.range(0, pool.len())];
        let b = pool[rng.range(0, pool.len())];
        pool.push(nl.add_gate(kind, &[a, b]));
    }
    for (i, &q) in regs.iter().enumerate() {
        // Feed each register from one of the last few gates so the
        // feedback cone is non-trivial; give a quarter of them enables.
        let d = pool[pool.len() - 1 - rng.range(0, gates.min(8))];
        nl.set_dff_data(q, d);
        if rng.next_u64() & 3 == 0 {
            let en = pool[rng.range(0, pool.len())];
            nl.set_dff_enable(q, en);
        }
        nl.mark_output(q, format!("q{i}"));
    }
    for i in 0..2 {
        nl.mark_output(pool[pool.len() - 1 - i], format!("y{i}"));
    }
    nl
}

/// Per-cycle reference for [`SeqSim::activity`]: step the stream one
/// cycle at a time through `settle` and `next_state`, counting every
/// comparison the activity numbers are defined by.
fn stepped_activity(nl: &Netlist, patterns: &[Vec<bool>]) -> SeqActivity {
    let sim = SeqSim::new(nl);
    let dffs = nl.dffs();
    let n = nl.len();
    let (mut toggles, mut ones) = (vec![0u64; n], vec![0u64; n]);
    let mut ff_out = vec![0u64; dffs.len()];
    let mut ff_in = vec![0u64; dffs.len()];
    let mut ff_load = vec![0u64; dffs.len()];
    let mut state = sim.initial_state();
    let mut prev: Option<Vec<bool>> = None;
    for p in patterns {
        let values = sim.settle(&state, p);
        let next = sim.next_state(&state, &values);
        for i in 0..n {
            ones[i] += values[i] as u64;
            toggles[i] += prev.as_ref().is_some_and(|pv| pv[i] != values[i]) as u64;
        }
        for (r, &q) in dffs.iter().enumerate() {
            let fanins = nl.fanins(q);
            let d = fanins[0].index();
            ff_in[r] += prev.as_ref().is_some_and(|pv| pv[d] != values[d]) as u64;
            ff_out[r] += (next[r] != state[r]) as u64;
            ff_load[r] += (fanins.len() < 2 || values[fanins[1].index()]) as u64;
        }
        prev = Some(values);
        state = next;
    }
    let cycles = patterns.len();
    let pairs = cycles.saturating_sub(1).max(1) as f64;
    let per_cycle = |v: &[u64]| v.iter().map(|&x| x as f64 / cycles.max(1) as f64).collect();
    SeqActivity {
        profile: ActivityProfile {
            toggles: toggles.iter().map(|&t| t as f64 / pairs).collect(),
            probability: per_cycle(&ones),
            cycles,
        },
        ff_output_toggles: per_cycle(&ff_out),
        ff_input_toggles: ff_in.iter().map(|&t| t as f64 / pairs).collect(),
        ff_load_fraction: per_cycle(&ff_load),
    }
}

fn assert_seq_eq(got: &SeqActivity, want: &SeqActivity, what: &str) {
    assert_eq!(got.profile, want.profile, "{what} profile");
    assert_eq!(
        got.ff_output_toggles, want.ff_output_toggles,
        "{what} Q toggles"
    );
    assert_eq!(
        got.ff_input_toggles, want.ff_input_toggles,
        "{what} D toggles"
    );
    assert_eq!(got.ff_load_fraction, want.ff_load_fraction, "{what} loads");
}

/// Cycle counts that straddle the interesting boundaries: sub-block,
/// exact block, ragged wide group, exact wide group, multi-group tails.
fn ragged_cycles() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..64,
        Just(64usize),
        65usize..256,
        Just(256usize),
        257usize..700,
        Just(512usize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Comb: the kernel at `LANES` words reports exactly the profile of the
    /// same kernel at one lane, and both agree with the unpacked
    /// PatternSet path, so toggle counts are conserved across them.
    #[test]
    fn comb_wide_matches_one_lane(
        seed in 0u64..1 << 48,
        inputs in 4usize..12,
        gates in 12usize..120,
        cycles in ragged_cycles(),
        jobs in 1usize..4,
    ) {
        let nl = small_dag(seed, inputs, gates);
        let patterns = Stimulus::uniform(inputs).patterns(cycles, seed ^ 0x9e37);
        let packed = PackedPatterns::pack(&patterns);
        let sim = CombSim::new(&nl);
        let wide = sim.activity_packed(&packed);
        prop_assert_eq!(&wide, &sim.activity_packed_one_lane(&packed));
        // Conservation: the bool-vector path counts the same transitions.
        let unpacked = sim.activity_jobs(&patterns, jobs);
        prop_assert_eq!(&wide, &unpacked);
        // Per-net toggle totals are integral transition counts: toggles
        // are normalized over the cycles-1 consecutive-pattern pairs.
        let pairs = cycles.saturating_sub(1).max(1);
        for &t in &wide.toggles {
            let total = t * pairs as f64;
            prop_assert!((total - total.round()).abs() < 1e-6);
            prop_assert!(total.round() as usize <= pairs);
        }
    }

    /// Event: the window kernel, 256 lanes at a time with a masked last
    /// chunk, reports the same timing activity (total and functional,
    /// glitches included) and the same event counters as the scalar
    /// reference, which simulates one pattern at a time.
    #[test]
    fn event_kernel_matches_reference(
        seed in 0u64..1 << 48,
        inputs in 4usize..10,
        gates in 12usize..80,
        cycles in ragged_cycles(),
        delay in 1u32..4,
    ) {
        let nl = small_dag(seed, inputs, gates);
        let delays = vec![delay; nl.len()];
        let patterns = Stimulus::uniform(inputs).patterns(cycles, seed ^ 0x51ed);
        let obs = obs::Obs::enabled();
        let timing = EventSim::new(&nl, &DelayModel::PerNet(delays.clone()))
            .with_obs(obs.clone())
            .activity(&patterns);
        let reference = event_reference::run(&nl, &delays, None, &patterns);
        prop_assert_eq!(&timing.total.toggles, &reference.total_rates());
        prop_assert_eq!(&timing.functional.toggles, &reference.functional_rates());
        prop_assert_eq!(&timing.total.probability, &reference.probability());
        let counters = event_reference::event_counters(&obs.snapshot().counters);
        prop_assert_eq!(counters, reference.counters());
    }

    /// Incr: resident packed words, the masked last group and the wide
    /// early cut-off reproduce `CombSim` from scratch, both at build time
    /// and after random rewire deltas.
    #[test]
    fn incr_matches_comb_from_scratch(
        seed in 0u64..1 << 48,
        inputs in 4usize..10,
        gates in 20usize..90,
        cycles in ragged_cycles(),
        edits in 1usize..4,
    ) {
        let nl = small_dag(seed, inputs, gates);
        let packed = Stimulus::uniform(inputs).packed(cycles, seed ^ 0xabcd);
        let mut incr = IncrementalSim::from_full_eval(&nl, &packed);
        prop_assert_eq!(&incr.activity(), &CombSim::new(&nl).activity_packed(&packed));

        let mut rng = Rng64::new(seed ^ 0xfeed);
        let mut current = nl.clone();
        let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand];
        for _ in 0..edits {
            // Rewire a random gate to earlier nets: indices stay strictly
            // decreasing along fanin edges, so the DAG stays acyclic.
            let target = rng.range(inputs, current.len());
            let a = NetId::from_index(rng.range(0, target));
            let b = NetId::from_index(rng.range(0, target));
            let kind = kinds[rng.range(0, kinds.len())];
            let mut delta = Delta::for_netlist(incr.netlist());
            delta.set_gate(NetId::from_index(target), kind, &[a, b]);
            incr.apply_delta(&delta);
            delta.apply_to(&mut current);
            let oracle = CombSim::new(&current).activity_packed(&packed);
            prop_assert_eq!(&incr.activity(), &oracle);
        }
    }

    /// Fault: the packed combinational campaign reports the same
    /// first-detection cycle for every stuck-at and bit-flip as each
    /// fault's per-cycle `report`.
    #[test]
    fn fault_packed_matches_per_fault_reports(
        seed in 0u64..1 << 48,
        inputs in 4usize..10,
        gates in 10usize..60,
        cycles in 1usize..420,
        flips in 0usize..12,
        jobs in 1usize..3,
    ) {
        let nl = small_dag(seed, inputs, gates);
        let patterns = Stimulus::uniform(inputs).patterns(cycles, seed ^ 0x7777);
        let mut faults = all_stuck_at_faults(&nl);
        let mut rng = Rng64::new(seed ^ 0x1234);
        faults.extend((0..flips).map(|_| Fault {
            net: NetId::from_index(rng.range(0, nl.len())),
            kind: FaultKind::BitFlip { cycle: rng.range(0, cycles) },
        }));
        let sim = FaultSim::new(&nl);
        let packed = sim
            .campaign(&patterns, &faults, jobs, &ResourceBudget::unlimited())
            .unwrap();
        let golden = sim.golden(&patterns);
        let stepped: Vec<_> = faults
            .iter()
            .map(|&f| sim.report(&patterns, f, &golden).unwrap())
            .collect();
        prop_assert_eq!(&packed.reports, &stepped);
    }
}

proptest! {
    // Seq cases step the oracle cycle by cycle; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seq: the virtual-stream kernel reproduces per-cycle stepping
    /// exactly — net activity, register D/Q toggles, and load fractions —
    /// from one cycle (one lane per cycle) up through chunk boundaries
    /// and ragged tails, in and out of sharded (`jobs`) mode.
    #[test]
    fn seq_matches_stepping(
        seed in 0u64..1 << 48,
        inputs in 3usize..8,
        gates in 10usize..50,
        dffs in 1usize..6,
        cycles in prop_oneof![ragged_cycles(), 1024usize..1600],
        jobs in 1usize..4,
    ) {
        let nl = random_seq(seed, inputs, gates, dffs);
        let patterns = Stimulus::uniform(inputs).patterns(cycles, seed ^ 0xbeef);
        let got = SeqSim::new(&nl).activity_jobs(&patterns, jobs);
        let want = stepped_activity(&nl, &patterns);
        prop_assert_eq!(&got.profile, &want.profile);
        prop_assert_eq!(&got.ff_output_toggles, &want.ff_output_toggles);
        prop_assert_eq!(&got.ff_input_toggles, &want.ff_input_toggles);
        prop_assert_eq!(&got.ff_load_fraction, &want.ff_load_fraction);
    }
}

/// Seq on the generators, including an input-less LFSR; lengths not a
/// multiple of `64 * LANES` leave trailing chunks partial or empty.
#[test]
fn seq_matches_stepping_on_generators() {
    use netlist::gen::{counter, lfsr, pipelined_multiplier};
    let cases: [(Netlist, usize); 4] = [
        (pipelined_multiplier(3), 1500),
        (counter(5), 1100),
        (lfsr(7, &[6, 5]), 1024),
        (lfsr(5, &[4, 2]), 37),
    ];
    for (nl, cycles) in &cases {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(*cycles, 23);
        let want = stepped_activity(nl, &patterns);
        for jobs in [1, 2, 5] {
            let got = SeqSim::new(nl).activity_jobs(&patterns, jobs);
            assert_seq_eq(&got, &want, &format!("{} jobs={jobs}", nl.name()));
        }
    }
}
