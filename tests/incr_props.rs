//! Workspace property tests of the incremental evaluation engines and the
//! undo stack of the functional one: for random netlists and random edit
//! sequences (one live mark per pass, as the optimization loops hold it)
//! and random interleavings of apply / checkpoint / rollback_to / commit,
//! [`IncrementalSim`] must stay **bit-identical** to a from-scratch
//! `CombSim` run on the matching netlist snapshot after every single step
//! (and its live cap and unit-size critical delay to a from-scratch
//! analysis of the swept snapshot),
//! and [`IncrementalEventSim`], which only applies, to an `EventSim` run
//! after every accepted edit, a starved apply leaving it as it was. This
//! is the contract that lets the optimization passes judge candidate
//! edits on the resident engine instead of re-simulating: incrementality
//! can never change a reported number. Rolling back past a commit must be rejected without touching
//! the engine, and a starved budget must unwind the rewriting search to
//! its last committed state, never a torn one.
//!
//! The rewriting search's resident circuit BDDs ride on the same edits:
//! synced to the engine's netlist after every apply, rollback and commit,
//! a [`ResidentBdds`] must hold exactly the functions a fresh build of
//! that netlist computes.
//!
//! Edits are generated acyclic **by construction**: rewires only draw
//! fanins from strictly lower indices, inserted buffer chains feed
//! forward from an existing edge, and `replace_uses` replacements read
//! primary inputs only. Each delta is additionally validated by applying
//! it to a clone and checking `topo_order()` — a generator bug should
//! fail loudly here, not as a mysterious bit mismatch.

use lowpower::bdd::ResourceBudget;
use lowpower::circuit::sizing::SizedCircuit;
use lowpower::logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use lowpower::netlist::gen::{array_multiplier, random_dag, wallace_multiplier, RandomDagConfig};
use lowpower::netlist::{GateKind, NetId, Netlist, Rng64};
use lowpower::obs::Obs;
use lowpower::power::exact::{try_circuit_bdds, ResidentBdds};
use lowpower::sim::comb::{equivalent_exhaustive, CombSim};
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::incr::{Delta, IncrementalEventSim, IncrementalSim, Mark};
use lowpower::sim::stimulus::{PackedPatterns, PatternSet, Stimulus};
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

fn comb_dag(seed: u64, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs: 8,
        gates,
        outputs: 4,
        max_fanin: 3,
        window: 12,
    };
    random_dag(&config, seed)
}

const NARY: [GateKind; 6] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// Gates eligible for editing: n-ary logic with at least two fanins,
/// restricted to *original* ids (`index < base_len`). Gates added by
/// earlier deltas are never edited again — a rewire of an added gate
/// could pick one of its own users as a fanin and close a cycle, since
/// added nets sit past the end of the index-topological order.
fn editable(nl: &Netlist, base_len: usize) -> Vec<NetId> {
    nl.iter_nets()
        .filter(|&g| {
            g.index() < base_len && NARY.contains(&nl.kind(g)) && nl.fanins(g).len() >= 2
        })
        .collect()
}

/// One random edit against `nl`, or `None` if nothing is editable.
///
/// Every produced delta leaves the netlist acyclic (see module docs).
fn random_delta(nl: &Netlist, base_len: usize, rng: &mut Rng64) -> Option<Delta> {
    let targets = editable(nl, base_len);
    if targets.is_empty() {
        return None;
    }
    let victim = *rng.choose(&targets);
    let mut delta = Delta::for_netlist(nl);
    match rng.range(0, 4) {
        0 => {
            // Function flip: new n-ary kind over the same fanins.
            let mut kind = *rng.choose(&NARY);
            if kind == nl.kind(victim) {
                kind = GateKind::Xor;
            }
            if kind == nl.kind(victim) {
                kind = GateKind::Nand;
            }
            delta.set_gate(victim, kind, nl.fanins(victim));
        }
        1 => {
            // Rewire: fresh fanins drawn strictly below the victim. All
            // indices below an original gate are original nets, so the
            // edit stays inside the index-topological prefix.
            let lo = victim.index();
            let fanins: Vec<NetId> = (0..rng.range(2, 4))
                .map(|_| NetId::from_index(rng.range(0, lo)))
                .collect();
            delta.set_gate(victim, *rng.choose(&NARY), &fanins);
        }
        2 => {
            // Buffer chain spliced into one fanin edge. The buffers land
            // past the end of the index order (an intentional stress of
            // the engine's cone-local levelization) but only ever feed
            // forward, so no cycle can form.
            let edge = rng.range(0, nl.fanins(victim).len());
            let mut head = nl.fanins(victim)[edge];
            for _ in 0..rng.range(1, 3) {
                head = delta.add_gate(GateKind::Buf, &[head]);
            }
            let mut fanins = nl.fanins(victim).to_vec();
            fanins[edge] = head;
            delta.set_gate(victim, nl.kind(victim), &fanins);
        }
        _ => {
            // Replace every use of the victim with a new gate over primary
            // inputs (the replacement cannot reach the victim's cone).
            let ins = nl.inputs();
            let a = *rng.choose(ins);
            let b = *rng.choose(ins);
            let fresh = delta.add_gate(*rng.choose(&NARY), &[a, b]);
            delta.replace_uses(victim, fresh);
        }
    }
    Some(delta)
}

/// Whether two netlists agree net for net and output for output.
fn same_netlist(a: &Netlist, b: &Netlist) -> bool {
    a.len() == b.len()
        && a.outputs() == b.outputs()
        && a.iter_nets().all(|n| a.kind(n) == b.kind(n) && a.fanins(n) == b.fanins(n))
}

/// Assert the functional engine matches from-scratch simulation of
/// `reference`, and its live cap and unit-size critical delay match a
/// from-scratch analysis of the swept netlist.
fn check_engine(
    engine: &IncrementalSim,
    reference: &Netlist,
    patterns: &PatternSet,
) -> Result<(), TestCaseError> {
    let comb = CombSim::new(reference).activity(patterns);
    prop_assert_eq!(bits(&engine.activity()), bits(&comb));
    prop_assert_eq!(
        engine.switched_cap().to_bits(),
        comb.switched_capacitance(reference).to_bits()
    );
    let mut swept = reference.clone();
    swept.sweep_dead();
    let live = CombSim::new(&swept).activity(patterns);
    prop_assert_eq!(
        engine.switched_cap_live().to_bits(),
        live.switched_capacitance(&swept).to_bits()
    );
    let critical = SizedCircuit::new(&swept, 1.0).timing(1e9).critical;
    prop_assert_eq!(engine.critical_delay().to_bits(), critical.to_bits());
    Ok(())
}

/// An event engine over `nl` under unit delays (unlimited budget).
fn event_engine(nl: &Netlist, packed: &PackedPatterns) -> IncrementalEventSim {
    let unlimited = ResourceBudget::unlimited();
    IncrementalEventSim::try_from_full_eval(
        nl,
        &DelayModel::Unit,
        packed,
        &unlimited,
        Obs::disabled(),
    )
    .expect("unlimited budget")
}

/// Apply `delta` to the event engine under an unlimited budget.
fn apply_event(event: &mut IncrementalEventSim, delta: &Delta) {
    event
        .try_apply_delta(delta, &ResourceBudget::unlimited())
        .expect("unlimited budget");
}

/// Assert the event engine matches a from-scratch `EventSim` run of
/// `reference`.
fn check_event(
    event: &IncrementalEventSim,
    reference: &Netlist,
    patterns: &PatternSet,
) -> Result<(), TestCaseError> {
    let timing = EventSim::new(reference, &DelayModel::Unit).activity(patterns);
    let got = event.activity();
    prop_assert_eq!(bits(&got.total), bits(&timing.total));
    prop_assert_eq!(bits(&got.functional), bits(&timing.functional));
    Ok(())
}

/// Assert the store mirrors `nl` and holds a fresh build's functions:
/// every net's exact probability under the (non-dyadic) `probs` bit for
/// bit, and as many nodes reachable from the net functions.
fn check_store(store: &ResidentBdds, nl: &Netlist, probs: &[f64]) -> Result<(), TestCaseError> {
    prop_assert!(
        same_netlist(store.netlist(), nl),
        "store mirrors another netlist"
    );
    let fresh = try_circuit_bdds(nl, &ResourceBudget::unlimited())
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let to_bits = |p: Vec<f64>| -> Vec<u64> { p.iter().map(|x| x.to_bits()).collect() };
    prop_assert_eq!(
        to_bits(store.bdds().probabilities(probs)),
        to_bits(fresh.probabilities(probs))
    );
    prop_assert_eq!(
        store.bdds().reachable_nodes(usize::MAX),
        fresh.reachable_nodes(usize::MAX)
    );
    Ok(())
}

/// Random applies, checkpoints, rollbacks and commits on an engine over
/// `nl`, with a [`ResidentBdds`] synced to the engine's netlist and
/// checked against a fresh build after every step.
fn resident_bdds_follow_the_engine(
    nl: &Netlist,
    ops: usize,
    op_seed: u64,
) -> Result<(), TestCaseError> {
    let unlimited = ResourceBudget::unlimited();
    let packed = Stimulus::uniform(nl.num_inputs()).packed(16, op_seed);
    let mut engine = IncrementalSim::from_full_eval(nl, &packed);
    let mut rng = Rng64::new(op_seed);
    // Biases off every dyadic rational, so nets whose functions differ
    // almost surely differ in probability too.
    let probs: Vec<f64> = (0..nl.num_inputs())
        .map(|_| 0.05 + 0.9 * rng.next_f64())
        .collect();
    let fail = |e: lowpower::bdd::BudgetExceeded| TestCaseError::fail(e.to_string());
    let mut store = ResidentBdds::try_build(nl, false, &unlimited).map_err(fail)?;
    check_store(&store, nl, &probs)?;
    let base_len = nl.len();
    let mut marks: Vec<Mark> = Vec::new();
    for _ in 0..ops {
        match rng.range(0, 5) {
            0 | 1 => {
                let Some(delta) = random_delta(engine.netlist(), base_len, &mut rng) else {
                    continue;
                };
                engine.apply_delta(&delta);
            }
            2 => marks.push(engine.checkpoint()),
            3 => {
                if marks.is_empty() {
                    continue;
                }
                marks.truncate(rng.range(0, marks.len()) + 1);
                let m = *marks.last().expect("picked live mark");
                prop_assert!(engine.rollback_to(m), "live mark must roll back");
            }
            _ => {
                if marks.is_empty() {
                    continue;
                }
                let pick = rng.range(0, marks.len());
                let m = marks[pick];
                prop_assert!(engine.commit(m), "live mark must commit");
                marks.retain(|&a| a > m);
            }
        }
        store = store.try_sync(engine.netlist(), &unlimited).map_err(fail)?;
        check_store(&store, engine.netlist(), &probs)?;
    }
    Ok(())
}

/// The resident store against a fresh build on the arithmetic circuits,
/// where one edit moves the functions of long reconvergent XOR cones.
#[test]
fn resident_bdds_match_a_fresh_build_on_multipliers() {
    for nl in [array_multiplier(4).0, wallace_multiplier(4).0] {
        for op_seed in 0..6 {
            if let Err(e) = resident_bdds_follow_the_engine(&nl, 16, op_seed) {
                panic!("{} op seed {op_seed}: {e}", nl.name());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The resident store of the rewriting search: synced after every
    /// apply, rollback and commit on random DAGs, it holds exactly a fresh
    /// build's functions (see [`check_store`]).
    #[test]
    fn resident_bdds_match_a_fresh_build_after_every_step(
        seed in 0u64..5000,
        gates in 12usize..48,
        ops in 3usize..16,
        op_seed in any::<u64>(),
    ) {
        resident_bdds_follow_the_engine(&comb_dag(seed, gates), ops, op_seed)?;
    }

    /// The core contract: a random sequence of edits, some rolled back and
    /// some committed, leaves the functional engine bit-identical to
    /// from-scratch simulation after **every** step. It holds one live
    /// mark the way the optimization loops do: a rejected edit rolls back
    /// to it and the mark stays live for the next speculation; an accepted
    /// edit commits it and a fresh mark is taken. The event engine applies
    /// only the accepted edits, as its callers do, and matches `EventSim`
    /// after each one; a starved apply of the edit first leaves it as it
    /// was.
    #[test]
    fn edit_sequences_are_bit_identical_to_from_scratch(
        seed in 0u64..5000,
        gates in 12usize..48,
        cycles in 2usize..180,
        steps in 1usize..5,
        edit_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = Stimulus::uniform(8).patterns(cycles, seed ^ 0xC4);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let mut event = event_engine(&nl, &packed);
        check_engine(&engine, &nl, &patterns)?;
        check_event(&event, &nl, &patterns)?;

        let mut rng = Rng64::new(edit_seed);
        let base_len = nl.len();
        let mut current = nl;
        let mut mark = engine.checkpoint();
        for _ in 0..steps {
            let Some(delta) = random_delta(&current, base_len, &mut rng) else {
                break;
            };
            let mut edited = current.clone();
            delta.apply_to(&mut edited);
            prop_assert!(edited.topo_order().is_ok(), "generator produced a cycle");

            engine.apply_delta(&delta);
            check_engine(&engine, &edited, &patterns)?;

            if rng.chance(0.4) {
                // Roll back and verify the pre-edit bits are restored.
                prop_assert!(engine.rollback_to(mark), "live mark must roll back");
                check_engine(&engine, &current, &patterns)?;
            } else {
                prop_assert!(engine.commit(mark), "live mark must commit");
                // A starved apply leaves the event engine as it was; the
                // delta then applies under an unlimited budget.
                let starved = ResourceBudget::unlimited().with_max_sim_steps(1);
                if event.try_apply_delta(&delta, &starved).is_err() {
                    prop_assert!(
                        same_netlist(event.netlist(), &current),
                        "starved apply tore the netlist"
                    );
                    check_event(&event, &current, &patterns)?;
                    apply_event(&mut event, &delta);
                }
                check_event(&event, &edited, &patterns)?;
                current = edited;
                mark = engine.checkpoint();
            }
        }
    }

    /// The undo-stack contract under arbitrary interleavings: after every
    /// apply, rollback_to and commit, the functional engine is
    /// bit-identical to from-scratch simulation of the netlist snapshot
    /// the surviving marks describe. Marks invalidated by a commit are rejected and the
    /// failed call leaves the engine untouched.
    #[test]
    fn checkpoint_interleavings_are_bit_identical_to_from_scratch(
        seed in 0u64..5000,
        gates in 12usize..48,
        cycles in 2usize..180,
        ops in 3usize..10,
        op_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = Stimulus::uniform(8).patterns(cycles, seed ^ 0x5EED);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);

        let mut rng = Rng64::new(op_seed);
        let base_len = nl.len();
        // Live checkpoints, innermost last: the netlist snapshot each
        // mark must restore. Marks below `dead` (committed away) must be
        // rejected by rollback_to.
        let mut stack: Vec<(Mark, Netlist)> = Vec::new();
        let mut dead: Vec<Mark> = Vec::new();
        let mut current = nl;
        for _ in 0..ops {
            match rng.range(0, 5) {
                // Speculative apply.
                0 | 1 => {
                    let Some(delta) = random_delta(&current, base_len, &mut rng) else {
                        continue;
                    };
                    let mut edited = current.clone();
                    delta.apply_to(&mut edited);
                    prop_assert!(edited.topo_order().is_ok(), "generator produced a cycle");
                    engine.apply_delta(&delta);
                    current = edited;
                    check_engine(&engine, &current, &patterns)?;
                }
                // Push a checkpoint.
                2 => {
                    stack.push((engine.checkpoint(), current.clone()));
                }
                // Roll back to a random live mark; it stays live.
                3 => {
                    if stack.is_empty() {
                        continue;
                    }
                    let pick = rng.range(0, stack.len());
                    stack.truncate(pick + 1);
                    let (m, snapshot) = stack.last().expect("picked live mark");
                    prop_assert!(engine.rollback_to(*m), "live mark must roll back");
                    current = snapshot.clone();
                    check_engine(&engine, &current, &patterns)?;
                }
                // Commit a random live mark: everything at or below it
                // becomes permanent and those marks die.
                _ => {
                    if stack.is_empty() {
                        continue;
                    }
                    let pick = rng.range(0, stack.len());
                    let committed: Vec<(Mark, Netlist)> = stack.drain(..=pick).collect();
                    let (m, _) = committed.last().expect("picked live mark");
                    prop_assert!(engine.commit(*m), "live mark must commit");
                    // The commit floor is `m` itself; only marks strictly
                    // below it are invalidated. Marks minted at the same
                    // depth as `m` are released too: the next apply may
                    // trim past them.
                    dead.extend(
                        committed[..committed.len() - 1]
                            .iter()
                            .map(|(a, _)| *a)
                            .filter(|a| a < m),
                    );
                    stack.retain(|(a, _)| a > m);
                    // Committing never moves the evaluated state.
                    check_engine(&engine, &current, &patterns)?;
                }
            }
            // Rolling back past the committed floor is rejected and the
            // rejected call changes nothing.
            if let Some(&m) = dead.last() {
                prop_assert!(!engine.rollback_to(m), "committed-away mark must be rejected");
                check_engine(&engine, &current, &patterns)?;
            }
        }
    }

    /// Forced full re-evaluation (the `LPOPT_INCR_STRESS=1` chaos mode)
    /// must be indistinguishable from the incremental path, bit for bit.
    /// The event engine, which has no fast path to force off, rides along
    /// and matches `EventSim` after every edit.
    #[test]
    fn forced_full_eval_is_bit_identical(
        seed in 0u64..5000,
        gates in 12usize..40,
        cycles in 2usize..120,
        edit_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = Stimulus::uniform(8).patterns(cycles, seed ^ 0x77);
        let packed = PackedPatterns::pack(&patterns);
        let mut fast = IncrementalSim::from_full_eval(&nl, &packed);
        let mut slow = IncrementalSim::from_full_eval(&nl, &packed);
        slow.set_force_full(true);
        let mut event = event_engine(&nl, &packed);

        let mut rng = Rng64::new(edit_seed);
        let base_len = nl.len();
        let mut current = nl;
        for _ in 0..3 {
            let Some(delta) = random_delta(&current, base_len, &mut rng) else {
                break;
            };
            delta.apply_to(&mut current);
            fast.apply_delta(&delta);
            let info = slow.apply_delta(&delta);
            prop_assert!(info.full_eval, "force_full must not take the fast path");
            apply_event(&mut event, &delta);

            prop_assert_eq!(bits(&slow.activity()), bits(&fast.activity()));
            prop_assert_eq!(
                slow.switched_cap().to_bits(),
                fast.switched_cap().to_bits()
            );
            prop_assert_eq!(
                slow.switched_cap_live().to_bits(),
                fast.switched_cap_live().to_bits()
            );
            prop_assert_eq!(slow.critical_delay().to_bits(), fast.critical_delay().to_bits());
            check_event(&event, &current, &patterns)?;
        }
        prop_assert_eq!(slow.stats().full_evals, slow.stats().deltas);
    }

    /// The observability query is exact and read-only. After a random
    /// run of edits, rollbacks and commits (the last edit still
    /// speculative above a live mark), the mask of a random live gate
    /// equals the XOR of the primary outputs between `CombSim` on the
    /// netlist and on a copy with that gate's output inverted, padding bits
    /// stay clear, and the engine's words, activity, stats, journal and
    /// netlist are untouched, also by a query the budget cuts short.
    #[test]
    fn observability_mask_matches_an_inverted_copy(
        seed in 0u64..5000,
        gates in 12usize..48,
        cycles in 2usize..300,
        steps in 0usize..5,
        edit_seed in any::<u64>(),
    ) {
        let nl = comb_dag(seed, gates);
        let patterns = Stimulus::uniform(8).patterns(cycles, seed ^ 0x0B5);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let mut rng = Rng64::new(edit_seed);
        let base_len = nl.len();
        let mut current = nl;
        let mut mark = engine.checkpoint();
        for step in 0..=steps {
            let Some(delta) = random_delta(&current, base_len, &mut rng) else {
                break;
            };
            engine.apply_delta(&delta);
            if step == steps || rng.chance(0.6) {
                delta.apply_to(&mut current);
                if step < steps {
                    prop_assert!(engine.commit(mark), "live mark must commit");
                    mark = engine.checkpoint();
                }
            } else {
                prop_assert!(engine.rollback_to(mark), "live mark must roll back");
            }
        }
        let reference = CombSim::new(&current).eval_outputs(&patterns);
        let live = current.live_mask();
        let targets: Vec<NetId> = current
            .iter_nets()
            .filter(|&g| live[g.index()] && !current.kind(g).is_source())
            .collect();
        for _ in 0..4 {
            if targets.is_empty() {
                break;
            }
            let node = *rng.choose(&targets);
            let state = |e: &IncrementalSim| {
                let words: Vec<u64> =
                    current.iter_nets().flat_map(|n| e.net_words(n).to_vec()).collect();
                (words, bits(&e.activity()), e.stats(), e.pending_frames())
            };
            let before = state(&engine);
            let mask = engine
                .observability_mask(node, &ResourceBudget::unlimited())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(state(&engine), before.clone());
            prop_assert!(same_netlist(engine.netlist(), &current), "query edited the netlist");
            // A query the budget cuts short restores the engine too.
            let starved = ResourceBudget::unlimited().with_max_sim_steps(1);
            if let Ok(partial) = engine.observability_mask(node, &starved) {
                prop_assert_eq!(&partial, &mask, "only a query with no fanout fits one step");
            }
            prop_assert_eq!(state(&engine), before);

            // The same gate, inverted: its function moves to a duplicate
            // and the gate itself becomes the duplicate's inverter.
            let mut inverted = current.clone();
            let mut delta = Delta::for_netlist(&current);
            let dup = delta.add_gate(current.kind(node), current.fanins(node));
            delta.set_gate(node, GateKind::Not, &[dup]);
            delta.apply_to(&mut inverted);
            let flipped = CombSim::new(&inverted).eval_outputs(&patterns);
            prop_assert_eq!(mask.len(), packed.num_blocks());
            for k in 0..64 * mask.len() {
                let observed = k < cycles && reference[k] != flipped[k];
                let got = mask[k / 64] >> (k % 64) & 1 == 1;
                prop_assert_eq!(got, observed, "{} cycle {}", node, k);
            }
        }
    }

    /// Budget exhaustion mid-search unwinds the rewriting pass to its
    /// last committed state: whatever netlist comes back is functionally
    /// equivalent to the input, never a torn intermediate.
    #[test]
    fn starved_rewrite_search_unwinds_to_safe_state(
        seed in 0u64..5000,
        divisor in 1u64..40,
    ) {
        let nl = comb_dag(seed, 30);
        let probs = vec![0.5; nl.num_inputs()];
        let packed = Stimulus::uniform(nl.num_inputs()).packed(64, seed ^ 0xB0D);
        let cfg = RewriteConfig {
            max_rounds: 4,
            ..RewriteConfig::default()
        };
        // Scale the starvation off the unlimited run's true appetite:
        // enough for the initial build plus a shrinking slice of the
        // search, so large divisors exhaust genuinely mid-search.
        let unlimited = ResourceBudget::unlimited();
        let (_, reference) =
            try_rewrite_sim(&nl, &probs, &packed, &unlimited, &cfg).expect("unlimited budget");
        let steps = (64 * nl.len() as u64 + reference.nets_reevaluated / divisor).max(1);
        let budget = ResourceBudget::unlimited().with_max_sim_steps(steps);
        // The initial full build alone can exceed a starved budget; a
        // typed error (not a panic, not a torn result) is the contract
        // there, so only an Ok result carries obligations.
        if let Ok((out, report)) = try_rewrite_sim(&nl, &probs, &packed, &budget, &cfg) {
            prop_assert!(equivalent_exhaustive(&nl, &out));
            if !report.budget_exhausted {
                prop_assert_eq!(report.chains_accepted, reference.chains_accepted);
            }
        }
    }
}

/// Chaos case: the `LPOPT_INCR_STRESS=1` environment switch flips every
/// functional engine built while it is set into forced-full mode — the
/// static-timing cache included — and the numbers still cannot move; an
/// event engine built beside them still matches `EventSim`. (Engines
/// capture the flag at construction, so the variable is restored
/// immediately after the builds; the bit-identity asserts in this binary
/// are unaffected either way.)
#[test]
fn chaos_stress_env_forces_full_eval() {
    let nl = comb_dag(0xC0FFEE, 30);
    let patterns = Stimulus::uniform(8).patterns(96, 5);
    let packed = PackedPatterns::pack(&patterns);
    let mut sized = SizedCircuit::new(&nl, 2.0);

    let prior = std::env::var_os("LPOPT_INCR_STRESS");
    std::env::set_var("LPOPT_INCR_STRESS", "1");
    let mut stressed = IncrementalSim::from_full_eval(&nl, &packed);
    let mut stressed_ev = event_engine(&nl, &packed);
    let mut stressed_sta = sized.sta_cache();
    match prior {
        Some(v) => std::env::set_var("LPOPT_INCR_STRESS", v),
        None => std::env::remove_var("LPOPT_INCR_STRESS"),
    }

    let gates = nl.iter_nets().filter(|&g| !nl.kind(g).is_source()).count();
    let victim = nl
        .iter_nets()
        .find(|&g| !nl.kind(g).is_source())
        .expect("gate");
    let critical = stressed_sta.resize(&mut sized, victim, 1.0);
    assert_eq!(
        stressed_sta.arrival_evals, gates as u64,
        "every gate re-timed"
    );
    assert_eq!(critical.to_bits(), sized.timing(1e9).critical.to_bits());

    let mut rng = Rng64::new(99);
    let base_len = nl.len();
    let mut current = nl;
    for _ in 0..4 {
        let delta = random_delta(&current, base_len, &mut rng).expect("editable circuit");
        delta.apply_to(&mut current);
        let info = stressed.apply_delta(&delta);
        assert!(info.full_eval, "stress env must force full re-evaluation");
        apply_event(&mut stressed_ev, &delta);

        let comb = CombSim::new(&current).activity(&patterns);
        assert_eq!(bits(&stressed.activity()), bits(&comb));
        let timing = EventSim::new(&current, &DelayModel::Unit).activity(&patterns);
        let got = stressed_ev.activity();
        assert_eq!(bits(&got.total), bits(&timing.total));
        assert_eq!(bits(&got.functional), bits(&timing.functional));
    }
    assert_eq!(stressed.stats().full_evals, stressed.stats().deltas);
}
