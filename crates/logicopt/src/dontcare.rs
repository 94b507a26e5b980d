//! Don't-care-based node optimization for low power (survey §III.A.1).
//!
//! The power dissipated at a gate depends on the probability of the gate
//! evaluating to 1; that probability can be *changed* inside the node's
//! observability don't-care set without affecting any primary output. The
//! pass computes, for each internal node:
//!
//! 1. the global ODC via BDDs (replace the node by a fresh variable, take
//!    the Boolean difference of every output, complement the union);
//! 2. the node's **local** care set: which fanin minterms can occur while
//!    the node is observable;
//! 3. a new local truth table that keeps all care minterms and sets the
//!    don't-care minterms so the node's one-probability moves as far from
//!    0.5 as possible (activity `2p(1−p)` is maximal at 0.5).
//!
//! Two acceptance modes, matching the two papers the survey cites:
//! [`Mode::NodeLocal`] accepts any change that lowers the node's own
//! weighted activity (\[38\]); [`Mode::FanoutAware`] re-propagates
//! probabilities and accepts only if the *whole network's* estimated
//! switched capacitance drops (\[19\]).
//!
//! Most candidates never need the BDD analysis, and two cheap steps settle
//! them first. The **witness**: each candidate asks an [`IncrementalSim`]
//! which fanin minterms it has *seen* as care. A pattern that drives the
//! fanins to the minterm while inverting the node flips an output is a
//! point of the minterm's condition and the node's observability, so the
//! analysis would mark it care too. A candidate whose minterms are all
//! witnessed, or whose unwitnessed minterms cannot occur at all, is
//! skipped. The **bound**: a witnessed minterm is care whatever the
//! analysis finds and an unreachable one is don't-care; the rest are
//! *open*. The analysis can only settle on one split of the open minterms
//! into care and don't-care, so when no split lets the table step push the
//! node's one-probability further from 0.5 profitably, the candidate is
//! settled as unprofitable from the fanin-minterm probabilities alone.
//! Only what survives both steps pays for the global observability
//! substitution. Reports count where the candidates went
//! ([`CandidateCounts`]).
//!
//! The estimate-driven pass ([`try_optimize_dontcares`], under the
//! caller's budget and BDD cache), the simulation-driven pass
//! ([`optimize_dontcares_sim`], or [`optimize_dontcares_sim_with`] on the
//! caller's engine) and the dontcare class of [`crate::rewrite`] run every
//! candidate through one step: witness, bound, analyze, count, and return
//! a profitable table as a [`Delta`]. Each driver builds one `Analyzer`
//! per netlist it enumerates, whose one scratch manager every candidate's
//! BDD work shares. The simulation-driven drivers apply the delta to their
//! engine; the estimate-driven pass replays it onto a copy of the netlist.

use bdd::{Bdd, BudgetExceeded, Ref, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};
use power::exact::{try_circuit_bdds, try_gate_bdd, CircuitBddCache, CircuitBdds, ResidentBdds};
use sim::incr::{Delta, IncrementalSim};
use sim::stimulus::{PackedPatterns, Stimulus};

/// Acceptance criterion for a node rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Accept when the node's own activity (weighted by its fanout count)
    /// improves (\[38\]).
    NodeLocal,
    /// Accept when the whole network's estimated switched capacitance
    /// improves (\[19\]).
    FanoutAware,
}

/// Where the don't-care candidates of one driver run went, in the order
/// the steps settle them: the simulation witness, the fanin-condition
/// check, the probability bound, the full BDD analysis. Each candidate
/// lands in exactly one of `witnessed`, `unreachable`, `unprofitable` and
/// `analyzed`; `rewritten` counts the analyzed ones that yielded a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateCounts {
    /// Skipped on the simulation witness alone: every fanin minterm seen
    /// as care.
    pub witnessed: u64,
    /// Skipped after the fanin-condition check: every minterm the witness
    /// missed cannot occur.
    pub unreachable: u64,
    /// Skipped on the probability bound: no split of the open minterms
    /// into care and don't-care yields a profitable table.
    pub unprofitable: u64,
    /// The full BDD observability analysis ran.
    pub analyzed: u64,
    /// The analysis returned a rebiased truth table.
    pub rewritten: u64,
}

impl CandidateCounts {
    fn record(&mut self, analysis: &Analysis) {
        match analysis {
            Analysis::Witnessed => self.witnessed += 1,
            Analysis::Unreachable => self.unreachable += 1,
            Analysis::Unprofitable => self.unprofitable += 1,
            Analysis::Analyzed(rewrite) => {
                self.analyzed += 1;
                self.rewritten += rewrite.is_some() as u64;
            }
        }
    }

    /// Publish as the `dontcare.candidates.{witnessed,unreachable,
    /// unprofitable,analyzed,rewritten}` counters.
    pub fn publish(&self, obs: &obs::Obs) {
        obs.add("dontcare.candidates.witnessed", self.witnessed);
        obs.add("dontcare.candidates.unreachable", self.unreachable);
        obs.add("dontcare.candidates.unprofitable", self.unprofitable);
        obs.add("dontcare.candidates.analyzed", self.analyzed);
        obs.add("dontcare.candidates.rewritten", self.rewritten);
    }
}

/// Outcome of the don't-care optimization pass.
#[derive(Debug, Clone)]
pub struct DontCareReport {
    /// Nodes rewritten.
    pub nodes_changed: usize,
    /// Estimated switched capacitance before (fF/cycle, exact probabilities).
    pub cap_before: f64,
    /// Estimated switched capacitance after.
    pub cap_after: f64,
    /// Where the candidates went.
    pub candidates: CandidateCounts,
    /// The budget ran out mid-pass; the result is the last accepted
    /// netlist, still functionally equivalent to the input.
    pub budget_exhausted: bool,
}

/// Estimated switched capacitance from exact probabilities (fF/cycle).
fn try_estimated_cap(
    nl: &Netlist,
    input_probs: &[f64],
    budget: &ResourceBudget,
) -> Result<f64, BudgetExceeded> {
    let bdds = try_circuit_bdds(nl, budget)?;
    Ok(bdds.activity(input_probs).switched_capacitance(nl))
}

/// [`try_estimated_cap`] through a caller-owned BDD cache: structurally
/// repeated queries (the original netlist during a rewrite loop, the same
/// circuit before and after an unrelated pass) reuse one build.
fn try_estimated_cap_cached(
    nl: &Netlist,
    input_probs: &[f64],
    cache: &mut CircuitBddCache,
    budget: &ResourceBudget,
) -> Result<f64, BudgetExceeded> {
    let bdds = cache.get_or_build(nl, budget)?;
    Ok(bdds.activity(input_probs).switched_capacitance(nl))
}

/// Patterns in the witness stimulus of the estimate-driven driver.
const WITNESS_CYCLES: usize = 4096;
/// Seed of the witness stimulus (any input vector is a legal witness).
const WITNESS_SEED: u64 = 0x0DC5;

/// Run don't-care node optimization under a budget.
///
/// Only nodes with `fanin ≤ max_fanin` are considered (the local truth
/// table enumeration is `2^fanin`). The result is functionally equivalent
/// to the input on every primary output.
///
/// The pass reads the original circuit's BDDs through the caller's
/// `cache`, so a caller that estimates power on the same netlist before
/// or after pays for that build once, and every fixpoint iteration's
/// rebuild also lands in the cache. One-off candidate evaluations stay
/// uncached: they are unique structures that would only evict useful
/// entries.
///
/// The budget bounds the circuit-BDD builds (through
/// [`CircuitBddCache::get_or_build`]), the deadline (checked once per
/// candidate) and the witness simulation (each engine build, and each
/// candidate's re-evaluated nets as `cycles` steps apiece). The witness
/// only skips analyses, so a witness the budget cannot afford is dropped
/// and the bound and the analyses run without it: it never fails or
/// shortens a pass. The analyses of one fixpoint pass share one
/// unbudgeted scratch clone of that pass's circuit manager. `Err`
/// is returned only when the first pass's circuit-BDD build exhausts;
/// exhaustion later keeps the last accepted netlist and sets
/// [`DontCareReport::budget_exhausted`]. Under
/// [`ResourceBudget::unlimited`] the pass cannot fail.
///
/// # Panics
///
/// Panics if the netlist is sequential, cyclic, or `input_probs` has the
/// wrong width.
pub fn try_optimize_dontcares(
    nl: &Netlist,
    input_probs: &[f64],
    mode: Mode,
    max_fanin: usize,
    cache: &mut CircuitBddCache,
    budget: &ResourceBudget,
) -> Result<(Netlist, DontCareReport), BudgetExceeded> {
    assert!(nl.is_combinational(), "don't-care pass needs combinational logic");
    assert_eq!(input_probs.len(), nl.num_inputs());
    let mut current = nl.clone();
    let cap_before = try_estimated_cap_cached(&current, input_probs, cache, budget)?;
    // Capacitance of `current`, for a report whose final estimate the
    // budget no longer affords.
    let mut cap_current = cap_before;
    let stimulus = Stimulus::uniform(nl.num_inputs()).packed(WITNESS_CYCLES, WITNESS_SEED);
    let mut candidates_seen = CandidateCounts::default();
    let mut budget_exhausted = false;
    let mut nodes_changed = 0;

    // Iterate to a fixpoint (bounded): each accepted rewrite invalidates
    // the ODCs of other nodes, so we recompute after every change.
    let mut pass = 0;
    'outer: loop {
        pass += 1;
        if pass > 8 {
            break;
        }
        let bdds = match cache.get_or_build(&current, budget) {
            Ok(bdds) => bdds,
            Err(e) if pass == 1 => return Err(e),
            Err(_) => {
                budget_exhausted = true;
                break;
            }
        };
        // `sweep_dead` renumbers nets, so every pass simulates afresh.
        let mut witness =
            IncrementalSim::try_from_full_eval(&current, &stimulus, budget, obs::Obs::disabled())
                .ok();
        let fanout_counts = current.fanout_counts();
        let candidates: Vec<NetId> = current
            .iter_nets()
            .filter(|&net| {
                let kind = current.kind(net);
                !kind.is_source()
                    && kind != GateKind::Dff
                    && !current.fanins(net).is_empty()
                    && current.fanins(net).len() <= max_fanin
                    && fanout_counts[net.index()] > 0
            })
            .collect();
        let mut analyzer = Analyzer::new(&current, &bdds, input_probs);
        for node in candidates {
            let verdict = budget.check_deadline().and_then(|()| {
                let counts = &mut candidates_seen;
                let engine = witness.as_mut();
                match candidate_delta(&mut analyzer, node, engine, budget, counts) {
                    Some(delta) => try_rewrite(&current, &delta, input_probs, mode, cache, budget),
                    None => Ok(None),
                }
            });
            match verdict {
                Ok(Some((improved, cap))) => {
                    current = improved;
                    cap_current = cap;
                    nodes_changed += 1;
                    continue 'outer;
                }
                Ok(None) => {}
                Err(_) => {
                    budget_exhausted = true;
                    break;
                }
            }
        }
        break;
    }
    let cap_after = match try_estimated_cap_cached(&current, input_probs, cache, budget) {
        Ok(cap) => cap,
        Err(_) => {
            budget_exhausted = true;
            cap_current
        }
    };
    Ok((
        current,
        DontCareReport {
            nodes_changed,
            cap_before,
            cap_after,
            candidates: candidates_seen,
            budget_exhausted,
        },
    ))
}

/// Outcome of the simulation-driven don't-care pass.
#[derive(Debug, Clone)]
pub struct DontCareSimReport {
    /// Nodes rewritten.
    pub nodes_changed: usize,
    /// Simulated switched capacitance before (fF/cycle, live nets only).
    pub cap_before: f64,
    /// Simulated switched capacitance after.
    pub cap_after: f64,
    /// Candidate rewrites evaluated (applied then accepted or rolled back).
    pub rewrites_tried: usize,
    /// Nets the engine re-evaluated to judge the candidates: dirty cones,
    /// or every gate per candidate on a force-full engine. The ratio of
    /// the two is the deterministic work saving.
    pub nets_reevaluated: u64,
    /// Where the candidates went.
    pub candidates: CandidateCounts,
}

/// Don't-care optimization driven by *simulated* activity instead of exact
/// probabilities: each candidate rewrite is applied to a resident
/// [`IncrementalSim`] as a [`Delta`], judged by the engine's live-net
/// switched capacitance, and rolled back in place when it does not pay —
/// no re-simulation from scratch anywhere in the loop.
///
/// # Panics
///
/// Panics if the netlist is sequential/cyclic or the stimulus width does
/// not match.
pub fn optimize_dontcares_sim(
    nl: &Netlist,
    input_probs: &[f64],
    max_fanin: usize,
    packed: &PackedPatterns,
) -> (Netlist, DontCareSimReport) {
    let mut engine = IncrementalSim::from_full_eval(nl, packed);
    let report = optimize_dontcares_sim_with(&mut engine, input_probs, max_fanin);
    (engine.netlist().clone(), report)
}

/// [`optimize_dontcares_sim`] on a caller-owned engine, which holds the
/// optimized netlist afterwards and whose resident words are the witness.
/// The circuit BDDs stay resident too: one [`ResidentBdds`], built by the
/// first pass and synced to the engine's netlist by every later one, so an
/// accepted rewrite costs a rebuild of the cones it changed. On an engine
/// with [`IncrementalSim::set_force_full`] every candidate re-evaluates the
/// whole netlist and every changed pass rebuilds the circuit BDDs fresh:
/// the pass's A/B twin, identical in decisions and result.
///
/// # Panics
///
/// Panics if `input_probs` does not match the engine's input count.
pub fn optimize_dontcares_sim_with(
    engine: &mut IncrementalSim,
    input_probs: &[f64],
    max_fanin: usize,
) -> DontCareSimReport {
    assert_eq!(input_probs.len(), engine.netlist().num_inputs());
    let unlimited = ResourceBudget::unlimited();
    let nets_before = engine.stats().nets_reevaluated;
    let cap_before = engine.switched_cap_live();
    let mut cap_current = cap_before;
    let mut store: Option<ResidentBdds> = None;
    let mut candidates_seen = CandidateCounts::default();
    let mut nodes_changed = 0;
    let mut rewrites_tried = 0;
    let mut pass = 0;
    'outer: loop {
        pass += 1;
        if pass > 8 {
            break;
        }
        let synced = match store.take() {
            None => ResidentBdds::try_build(engine.netlist(), engine.force_full(), &unlimited),
            Some(resident) => resident.try_sync(engine.netlist(), &unlimited),
        };
        let resident = store.insert(synced.expect("unlimited budget"));
        // The store mirrors the engine's netlist at the pass mark, which
        // every rejected rewrite unwinds to. Rewrites leave their victim's
        // dead cone in place (net ids stay stable for the engine), so
        // candidates are filtered to live nets.
        let current = resident.netlist();
        let mut analyzer = Analyzer::new(current, resident.bdds(), input_probs);
        // One live mark per pass: a rejected rewrite unwinds to it, an
        // accepted one is sealed (which releases the mark) and the next
        // pass re-takes it.
        let mark = engine.checkpoint();
        for node in sim_candidates(current, max_fanin) {
            let witness = Some(&mut *engine);
            let counts = &mut candidates_seen;
            let Some(delta) = candidate_delta(&mut analyzer, node, witness, &unlimited, counts)
            else {
                continue;
            };
            rewrites_tried += 1;
            engine.apply_delta(&delta);
            let cap_new = engine.switched_cap_live();
            if cap_new < cap_current - 1e-9 {
                // Seal the apply itself, not just the pass mark below it,
                // so no undo frame outlives the pass.
                let sealed = engine.checkpoint();
                engine.commit(sealed);
                cap_current = cap_new;
                nodes_changed += 1;
                continue 'outer;
            }
            engine.rollback_to(mark);
        }
        engine.commit(mark);
        break;
    }
    DontCareSimReport {
        nodes_changed,
        cap_before,
        cap_after: cap_current,
        rewrites_tried,
        nets_reevaluated: engine.stats().nets_reevaluated - nets_before,
        candidates: candidates_seen,
    }
}

/// Candidate nodes for the simulation-driven pass: live internal gates
/// small enough to enumerate.
pub(crate) fn sim_candidates(nl: &Netlist, max_fanin: usize) -> Vec<NetId> {
    let live = nl.live_mask();
    nl.iter_nets()
        .filter(|&net| {
            let kind = nl.kind(net);
            live[net.index()]
                && !kind.is_source()
                && kind != GateKind::Dff
                && !nl.fanins(net).is_empty()
                && nl.fanins(net).len() <= max_fanin
        })
        .collect()
}

/// One don't-care candidate, the step all three drivers share: witness
/// `node`'s care minterms on `witness` (when given, it must hold the
/// analyzer's netlist), run the bound and the analysis, tally where the
/// candidate went in `counts`, and return a profitable rewrite as a
/// [`Delta`] against that netlist: `node`'s users moved to the rebiased
/// table's logic.
pub(crate) fn candidate_delta(
    analyzer: &mut Analyzer,
    node: NetId,
    witness: Option<&mut IncrementalSim>,
    budget: &ResourceBudget,
    counts: &mut CandidateCounts,
) -> Option<Delta> {
    let nl = analyzer.netlist();
    let known = match witness {
        Some(engine) => care_witness(engine, node, budget),
        None => vec![false; 1 << nl.fanins(node).len()],
    };
    let analysis = find_rewrite(analyzer, node, &known);
    counts.record(&analysis);
    let Analysis::Analyzed(Some(rewrite)) = analysis else {
        return None;
    };
    let mut delta = Delta::for_netlist(nl);
    let root = synthesize_table_delta(&mut delta, &rewrite.fanins, &rewrite.table);
    delta.replace_uses(node, root);
    Some(delta)
}

/// Synthesize a truth table over existing nets as two-level logic,
/// recorded into `delta`; returns the net computing the table.
fn synthesize_table_delta(delta: &mut Delta, fanins: &[NetId], table: &[bool]) -> NetId {
    let k = fanins.len();
    let ones = table.iter().filter(|&&b| b).count();
    if ones == 0 {
        return delta.add_gate(GateKind::Const(false), &[]);
    }
    if ones == table.len() {
        return delta.add_gate(GateKind::Const(true), &[]);
    }
    // Use the sparser phase; invert at the end if we covered the zeros.
    let cover_ones = ones <= table.len() / 2;
    let mut terms = Vec::new();
    let mut inverted: Vec<Option<NetId>> = vec![None; k];
    for (m, &bit) in table.iter().enumerate() {
        if bit != cover_ones {
            continue;
        }
        let mut literals = Vec::with_capacity(k);
        for (i, &fi) in fanins.iter().enumerate() {
            if m >> i & 1 == 1 {
                literals.push(fi);
            } else {
                let inv = match inverted[i] {
                    Some(x) => x,
                    None => {
                        let x = delta.add_gate(GateKind::Not, &[fi]);
                        inverted[i] = Some(x);
                        x
                    }
                };
                literals.push(inv);
            }
        }
        let term = if literals.len() == 1 {
            literals[0]
        } else {
            delta.add_gate(GateKind::And, &literals)
        };
        terms.push(term);
    }
    let sum = if terms.len() == 1 {
        terms[0]
    } else {
        delta.add_gate(GateKind::Or, &terms)
    };
    if cover_ones {
        sum
    } else {
        delta.add_gate(GateKind::Not, &[sum])
    }
}

/// Judge the rewrite `delta` of `nl` by `mode`. On acceptance returns the
/// rewritten netlist, dead logic swept, with its estimated switched
/// capacitance; the candidate's BDD build is the budgeted work.
fn try_rewrite(
    nl: &Netlist,
    delta: &Delta,
    input_probs: &[f64],
    mode: Mode,
    cache: &mut CircuitBddCache,
    budget: &ResourceBudget,
) -> Result<Option<(Netlist, f64)>, BudgetExceeded> {
    let mut rebuilt = nl.clone();
    delta.apply_to(&mut rebuilt);
    debug_assert!(rebuilt.validate().is_ok());
    rebuilt.sweep_dead();

    match mode {
        // Accepted outright; the next pass builds this netlist's BDDs
        // anyway, so building them through the cache now costs nothing.
        Mode::NodeLocal => {
            let cap = try_estimated_cap_cached(&rebuilt, input_probs, cache, budget)?;
            Ok(Some((rebuilt, cap)))
        }
        Mode::FanoutAware => {
            // `nl` repeats across every candidate of a pass: cached. The
            // candidate itself is a throwaway structure: built directly.
            let before = try_estimated_cap_cached(nl, input_probs, cache, budget)?;
            let after = try_estimated_cap(&rebuilt, input_probs, budget)?;
            Ok((after < before - 1e-9).then_some((rebuilt, after)))
        }
    }
}

/// A profitable node rewrite found by the ODC analysis: replace `node`
/// with the truth table `table` over `fanins`.
struct Rewrite {
    fanins: Vec<NetId>,
    table: Vec<bool>,
}

/// How [`find_rewrite`] settled one candidate.
enum Analysis {
    /// Every fanin minterm was witnessed care: no BDD work at all.
    Witnessed,
    /// Every unwitnessed minterm's fanin condition is `FALSE`: settled
    /// before the substitution.
    Unreachable,
    /// No split of the open minterms into care and don't-care yields a
    /// table: settled by the probability bound, before the substitution.
    Unprofitable,
    /// The full analysis ran; `Some` when it found a profitable table.
    Analyzed(Option<Rewrite>),
}

/// `node`'s fanin minterms that `engine`'s resident stimulus proves care:
/// entry `m` (fanin `i` is bit `i` of `m`) is set when some pattern drives
/// the fanins to `m` while inverting `node` flips a primary output. Such a
/// pattern satisfies both the minterm's fanin condition and the node's
/// observability, so a witnessed minterm is care in [`find_rewrite`]. A
/// query `budget` cannot afford witnesses nothing: the analysis then runs
/// in full, as it would without a witness.
///
/// `engine` must hold the netlist the candidate belongs to.
fn care_witness(
    engine: &mut IncrementalSim,
    node: NetId,
    budget: &ResourceBudget,
) -> Vec<bool> {
    let mut known = vec![false; 1 << engine.netlist().fanins(node).len()];
    let Ok(observed) = engine.observability_mask(node, budget) else {
        return known;
    };
    let fanins: Vec<&[u64]> = engine
        .netlist()
        .fanins(node)
        .iter()
        .map(|&f| engine.net_words(f))
        .collect();
    for (b, &obs_word) in observed.iter().enumerate() {
        if obs_word == 0 {
            continue;
        }
        for (m, seen) in known.iter_mut().enumerate() {
            if *seen {
                continue;
            }
            let hits = fanins.iter().enumerate().fold(obs_word, |acc, (i, words)| {
                acc & if m >> i & 1 == 1 { words[b] } else { !words[b] }
            });
            *seen = hits != 0;
        }
    }
    known
}

/// Open minterms above which [`find_rewrite`] skips the bound: it tries
/// `2^open` splits, so the cap holds it to 256 table steps per candidate.
const BOUND_OPEN_CAP: usize = 8;

/// The scratch manager collects once its live node count reaches this
/// multiple of what its last collection (or the clone) left.
const SCRATCH_GROWTH: usize = 2;

/// The BDD state every don't-care candidate of one netlist shares: the
/// netlist, its circuit BDDs, the per-variable probabilities, one scratch
/// manager and the topological order. Build one per netlist a driver
/// enumerates (a rewrite enumeration, a pass of either don't-care pass);
/// its candidates then share one clone of the circuit manager instead of
/// cloning it each.
///
/// The scratch manager never collects on its own: an analysis holds refs
/// no root protects (the minterm conditions, the substituted cones, the
/// observability union). It collects between candidates instead, once
/// its live count has doubled; the circuit functions are its roots, and
/// BDDs are canonical, so the analyses find the same functions either way.
pub(crate) struct Analyzer<'a> {
    nl: &'a Netlist,
    bdds: &'a CircuitBdds,
    /// A non-collecting clone of `bdds.mgr` the analyses build in.
    scratch: Bdd,
    /// Live node count after the scratch manager's last collection.
    collected_at: usize,
    /// The observability's fresh variable: the first one past the
    /// circuit's variables.
    w: u32,
    /// One-probability of each variable, `w` included (0.5 outside the
    /// primary inputs).
    var_probs: Vec<f64>,
    /// `nl`'s nets in topological order.
    order: Vec<NetId>,
}

impl<'a> Analyzer<'a> {
    /// The analyzer of `nl`, whose circuit BDDs are `bdds`, under the
    /// primary-input one-probabilities `input_probs`.
    ///
    /// # Panics
    ///
    /// Panics if `nl` is cyclic.
    pub(crate) fn new(nl: &'a Netlist, bdds: &'a CircuitBdds, input_probs: &[f64]) -> Analyzer<'a> {
        let mut scratch = bdds.mgr.clone();
        scratch.set_auto_gc(false);
        let w = bdds.mgr.num_vars() as u32;
        let mut var_probs = vec![0.5; w as usize + 1];
        for (i, &var) in bdds.input_vars.iter().enumerate() {
            if i < input_probs.len() {
                var_probs[var as usize] = input_probs[i];
            }
        }
        Analyzer {
            nl,
            bdds,
            collected_at: scratch.node_count(),
            scratch,
            w,
            var_probs,
            order: nl.topo_order().expect("acyclic"),
        }
    }

    /// The netlist the candidates belong to.
    pub(crate) fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Collect the scratch manager if it has doubled since its last
    /// collection. Only between candidates: no analysis holds a ref then.
    fn collect_if_grown(&mut self) {
        if self.scratch.node_count() >= SCRATCH_GROWTH * self.collected_at {
            self.scratch.gc();
            self.collected_at = self.scratch.node_count();
        }
    }

    /// The fanin condition of each local minterm of `node` (fanin `i` is
    /// bit `i` of the minterm), in the scratch manager.
    fn minterm_conditions(&mut self, node: NetId) -> Vec<Ref> {
        let (fanins, funcs) = (self.nl.fanins(node), &self.bdds.funcs);
        let mgr = &mut self.scratch;
        (0..1usize << fanins.len())
            .map(|m| {
                let mut cond = Ref::TRUE;
                for (i, &fi) in fanins.iter().enumerate() {
                    let f = funcs[fi.index()];
                    let lit = if m >> i & 1 == 1 { f } else { mgr.not(f) };
                    cond = mgr.and(cond, lit);
                }
                cond
            })
            .collect()
    }

    /// The global observability of `node`: replace it by the fresh
    /// variable `w`, rebuild every dependent net, and OR the Boolean
    /// difference of each dependent output with respect to `w`.
    fn observability(&mut self, node: NetId) -> Ref {
        let unlimited = ResourceBudget::unlimited();
        let (nl, w, mgr) = (self.nl, self.w, &mut self.scratch);
        let mut subst: Vec<Ref> = self.bdds.funcs.to_vec();
        subst[node.index()] = mgr.var(w);
        let mut dependent = vec![false; nl.len()];
        dependent[node.index()] = true;
        for &net in &self.order {
            if net == node {
                continue;
            }
            let kind = nl.kind(net);
            if kind.is_source() || kind == GateKind::Dff {
                continue;
            }
            if !nl.fanins(net).iter().any(|f| dependent[f.index()]) {
                continue;
            }
            dependent[net.index()] = true;
            let ins: Vec<Ref> = nl.fanins(net).iter().map(|f| subst[f.index()]).collect();
            subst[net.index()] =
                try_gate_bdd(mgr, kind, &ins, &unlimited).expect("unlimited budget");
        }
        let mut sensitive = Ref::FALSE;
        for (out, _) in nl.outputs() {
            if !dependent[out.index()] {
                continue;
            }
            let s = mgr.boolean_difference(subst[out.index()], w);
            sensitive = mgr.or(sensitive, s);
        }
        sensitive
    }
}

/// The don't-care analysis of [`candidate_delta`]: compute `node`'s
/// observability don't-cares and, if its one-probability can be pushed
/// further from 0.5 inside them, return the rebiased local truth table.
///
/// `known_care` holds one flag per fanin minterm (from [`care_witness`]);
/// a set flag asserts the minterm is care. When every minterm is known
/// care, or every unknown one cannot occur, the analysis could only
/// return nothing and stops early. Otherwise the bound runs before the
/// substitution: the analysis's care flags are known care on witnessed
/// minterms and don't-care on unreachable ones, so they are one split of
/// the open rest, and when [`rebias`] yields no table on any split of at
/// most [`BOUND_OPEN_CAP`] open minterms the analysis could not either.
/// Otherwise it runs in full.
fn find_rewrite(analyzer: &mut Analyzer, node: NetId, known_care: &[bool]) -> Analysis {
    let nl = analyzer.netlist();
    let fanins = nl.fanins(node).to_vec();
    let k = fanins.len();
    assert_eq!(known_care.len(), 1 << k, "one witness flag per fanin minterm");
    if known_care.iter().all(|&c| c) {
        return Analysis::Witnessed;
    }
    analyzer.collect_if_grown();
    // An unwitnessed minterm that cannot occur is a don't-care of
    // probability exactly 0.0: rebiasing it moves neither the table's
    // probability nor its activity.
    let conds = analyzer.minterm_conditions(node);
    if known_care
        .iter()
        .zip(&conds)
        .all(|(&known, &cond)| known || cond == Ref::FALSE)
    {
        return Analysis::Unreachable;
    }

    let probs = analyzer
        .scratch
        .probability_many(&conds, &analyzer.var_probs);
    let kind = nl.kind(node);
    let table: Vec<bool> = (0..1usize << k)
        .map(|m| {
            let bits: Vec<bool> = (0..k).map(|i| m >> i & 1 == 1).collect();
            kind.eval(&bits)
        })
        .collect();
    let open: Vec<usize> = (0..1usize << k)
        .filter(|&m| !known_care[m] && conds[m] != Ref::FALSE)
        .collect();
    if open.len() <= BOUND_OPEN_CAP && !some_split_pays(&table, known_care, &open, &probs) {
        return Analysis::Unprofitable;
    }

    let sensitive = analyzer.observability(node);
    let mgr = &mut analyzer.scratch;
    let care: Vec<bool> = conds
        .iter()
        .map(|&cond| mgr.and(cond, sensitive) != Ref::FALSE)
        .collect();
    Analysis::Analyzed(rebias(&table, &care, &probs).map(|table| Rewrite { fanins, table }))
}

/// Whether [`rebias`] yields a table on some split of the `open` minterms
/// into care and don't-care, every other minterm care exactly where
/// `fixed_care` says.
fn some_split_pays(table: &[bool], fixed_care: &[bool], open: &[usize], probs: &[f64]) -> bool {
    let mut care = fixed_care.to_vec();
    (0..1u64 << open.len()).any(|split| {
        for (bit, &m) in open.iter().enumerate() {
            care[m] = split >> bit & 1 == 1;
        }
        rebias(table, &care, probs).is_some()
    })
}

/// The table step of the analysis. `table` is a node's local truth table,
/// `care` flags its care minterms and `probs` holds each minterm's
/// probability. Set the don't-care minterms all to 0 or all to 1,
/// whichever moves the node's one-probability further from 0.5 (ties to
/// 0), and return the new table when it lowers the node's activity
/// `2p(1−p)`, which is maximal at 0.5.
fn rebias(table: &[bool], care: &[bool], probs: &[f64]) -> Option<Vec<bool>> {
    // The one-probability of the table that is 1 on the minterms `on`
    // accepts, summed in minterm order.
    let p_of = |on: &dyn Fn(usize) -> bool| -> f64 {
        probs
            .iter()
            .enumerate()
            .filter(|&(m, _)| on(m))
            .map(|(_, &p)| p)
            .sum()
    };
    let p_orig = p_of(&|m| table[m]);
    let p_low = p_of(&|m| care[m] && table[m]);
    let p_high = p_of(&|m| !care[m] || table[m]);
    let (fill, p_new) = if (p_low - 0.5).abs() >= (p_high - 0.5).abs() {
        (false, p_low)
    } else {
        (true, p_high)
    };
    // Every don't-care already reads `fill`: the table would not change.
    if (0..table.len()).all(|m| care[m] || table[m] == fill) {
        return None;
    }
    let activity = |p: f64| 2.0 * p * (1.0 - p);
    if activity(p_new) >= activity(p_orig) - 1e-12 {
        return None;
    }
    Some(
        (0..table.len())
            .map(|m| if care[m] { table[m] } else { fill })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::blif::write_text;
    use power::exact::circuit_bdds;
    use proptest::prelude::*;
    use sim::comb::{equivalent_exhaustive, CombSim};

    /// The estimate-driven pass with no limit and a fresh cache.
    fn optimize(
        nl: &Netlist,
        probs: &[f64],
        mode: Mode,
        max_fanin: usize,
    ) -> (Netlist, DontCareReport) {
        let mut cache = CircuitBddCache::new();
        let unlimited = ResourceBudget::unlimited();
        try_optimize_dontcares(nl, probs, mode, max_fanin, &mut cache, &unlimited)
            .expect("unlimited budget")
    }

    /// out = (a & b) | a — the AND is unobservable when a = 1, so it can be
    /// rewritten to constant 0 (probability pushed to an extreme).
    fn redundant_and() -> (Netlist, NetId) {
        let mut nl = Netlist::new("redundant");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]);
        let out = nl.add_gate(GateKind::Or, &[y, a]);
        nl.mark_output(out, "f");
        (nl, y)
    }

    #[test]
    fn rewrites_redundant_node() {
        let (nl, _) = redundant_and();
        let (optimized, report) =
            optimize(&nl, &[0.5, 0.5], Mode::FanoutAware, 6);
        assert!(report.nodes_changed >= 1, "should find the redundancy");
        assert!(equivalent_exhaustive(&nl, &optimized));
        assert!(
            report.cap_after < report.cap_before,
            "{} -> {}",
            report.cap_before,
            report.cap_after
        );
    }

    #[test]
    fn node_local_mode_also_preserves_function() {
        let (nl, _) = redundant_and();
        let (optimized, _) = optimize(&nl, &[0.5, 0.5], Mode::NodeLocal, 6);
        assert!(equivalent_exhaustive(&nl, &optimized));
    }

    #[test]
    fn fully_observable_circuit_untouched() {
        // XOR tree: every node fully observable, no don't-cares.
        let nl = netlist::gen::parity_tree(4);
        let (optimized, report) =
            optimize(&nl, &[0.5; 4], Mode::FanoutAware, 6);
        assert_eq!(report.nodes_changed, 0);
        assert!(equivalent_exhaustive(&nl, &optimized));
        assert!((report.cap_after - report.cap_before).abs() < 1e-9);
    }

    #[test]
    fn mux_shadowed_cone_is_simplified() {
        // out = MUX(s, a&b, a|b); when s=1 the AND is unobservable and vice
        // versa — with biased s the pass can rebias the shadowed node.
        let mut nl = Netlist::new("mux_shadow");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, &[a, b]);
        let or = nl.add_gate(GateKind::Or, &[a, b]);
        let out = nl.add_gate(GateKind::Mux, &[s, and, or]);
        nl.mark_output(out, "f");
        let (optimized, _) = optimize(&nl, &[0.9, 0.5, 0.5], Mode::FanoutAware, 6);
        assert!(equivalent_exhaustive(&nl, &optimized));
    }

    #[test]
    fn comparator_is_preserved() {
        let (nl, _) = netlist::gen::comparator_gt(3);
        let (optimized, _) = optimize(&nl, &[0.5; 6], Mode::FanoutAware, 6);
        assert!(equivalent_exhaustive(&nl, &optimized));
    }

    #[test]
    fn synthesize_table_covers_all_functions_of_two_vars() {
        for truth in 0u32..16 {
            let mut nl = Netlist::new("tt");
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let table: Vec<bool> = (0..4).map(|m| truth >> m & 1 == 1).collect();
            let mut delta = Delta::for_netlist(&nl);
            let root = synthesize_table_delta(&mut delta, &[a, b], &table);
            delta.apply_to(&mut nl);
            nl.mark_output(root, "f");
            for m in 0..4usize {
                let bits = vec![m & 1 == 1, m >> 1 & 1 == 1];
                assert_eq!(
                    nl.eval_comb(&bits)[0],
                    table[m],
                    "truth {truth:04b} minterm {m}"
                );
            }
        }
    }

    /// Switched capacitance of `nl`'s live nets, simulated from scratch.
    fn swept_cap(nl: &Netlist, packed: &PackedPatterns) -> f64 {
        let mut swept = nl.clone();
        swept.sweep_dead();
        CombSim::new(&swept)
            .activity_packed(packed)
            .switched_capacitance(&swept)
    }

    #[test]
    fn sim_driven_pass_matches_force_full_twin() {
        use sim::stimulus::Stimulus;
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        for seed in [1, 4, 9] {
            let nl = netlist::gen::random_dag(&config, seed);
            let packed = Stimulus::uniform(6).packed(512, seed);
            let (incr, ri) = optimize_dontcares_sim(&nl, &[0.5; 6], 5, &packed);
            let mut twin = IncrementalSim::from_full_eval(&nl, &packed);
            twin.set_force_full(true);
            let rf = optimize_dontcares_sim_with(&mut twin, &[0.5; 6], 5);
            let full = twin.netlist();
            assert_eq!(ri.nodes_changed, rf.nodes_changed, "seed {seed}");
            assert_eq!(ri.rewrites_tried, rf.rewrites_tried);
            assert_eq!(ri.cap_before.to_bits(), rf.cap_before.to_bits());
            assert_eq!(ri.cap_after.to_bits(), rf.cap_after.to_bits());
            assert_eq!(incr.len(), full.len());
            for net in incr.iter_nets() {
                assert_eq!(incr.kind(net), full.kind(net), "{net} seed {seed}");
                assert_eq!(incr.fanins(net), full.fanins(net), "{net} seed {seed}");
            }
            // Both caps match from-scratch simulation of the swept netlists.
            assert_eq!(ri.cap_before.to_bits(), swept_cap(&nl, &packed).to_bits());
            assert_eq!(ri.cap_after.to_bits(), swept_cap(&incr, &packed).to_bits());
            assert!(equivalent_exhaustive(&nl, &incr), "seed {seed}");
            assert!(ri.cap_after <= ri.cap_before + 1e-9);
        }
    }

    #[test]
    fn sim_driven_pass_seals_an_accept_at_the_pass_limit() {
        // On these seeds the eighth pass ends right after an accept.
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 40,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        for seed in [21, 9] {
            let nl = netlist::gen::random_dag(&config, seed);
            let packed = Stimulus::uniform(6).packed(256, 42);
            let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
            let report = optimize_dontcares_sim_with(&mut engine, &[0.5; 6], 5);
            assert_eq!(report.nodes_changed, 8, "seed {seed}");
            assert_eq!(engine.pending_frames(), 0, "seed {seed}");
        }
    }

    #[test]
    fn sim_driven_pass_finds_the_redundancy() {
        use sim::stimulus::Stimulus;
        let (nl, _) = redundant_and();
        let packed = Stimulus::uniform(2).packed(256, 3);
        let (optimized, report) = optimize_dontcares_sim(&nl, &[0.5, 0.5], 6, &packed);
        assert!(report.nodes_changed >= 1);
        assert!(equivalent_exhaustive(&nl, &optimized));
        assert!(report.cap_after < report.cap_before);
    }

    #[test]
    fn fanout_aware_never_worse_than_original() {
        // On a random DAG the fanout-aware mode must never increase the
        // estimated switched capacitance.
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        for seed in [1, 2, 3] {
            let nl = netlist::gen::random_dag(&config, seed);
            let (optimized, report) =
                optimize(&nl, &[0.5; 6], Mode::FanoutAware, 5);
            assert!(equivalent_exhaustive(&nl, &optimized));
            assert!(
                report.cap_after <= report.cap_before + 1e-9,
                "seed {seed}: {} -> {}",
                report.cap_before,
                report.cap_after
            );
        }
    }

    /// The BDD analysis's care flag of every fanin minterm of `node`: the
    /// minterm's condition meets the node's observability. Computed in a
    /// fresh analyzer, apart from any under test.
    fn bdd_care(nl: &Netlist, bdds: &CircuitBdds, node: NetId) -> Vec<bool> {
        let mut fresh = Analyzer::new(nl, bdds, &[]);
        let sensitive = fresh.observability(node);
        let conds = fresh.minterm_conditions(node);
        conds
            .iter()
            .map(|&cond| fresh.scratch.and(cond, sensitive) != Ref::FALSE)
            .collect()
    }

    /// Each fanin minterm of `node`, in a fresh analyzer: whether its
    /// condition can hold, its probability under `probs`, and the node's
    /// value on it.
    fn minterms(
        nl: &Netlist,
        bdds: &CircuitBdds,
        node: NetId,
        probs: &[f64],
    ) -> (Vec<bool>, Vec<f64>, Vec<bool>) {
        let mut fresh = Analyzer::new(nl, bdds, probs);
        let conds = fresh.minterm_conditions(node);
        let minterm_probs = fresh.scratch.probability_many(&conds, &fresh.var_probs);
        let k = nl.fanins(node).len();
        let table = (0..1usize << k)
            .map(|m| {
                let bits: Vec<bool> = (0..k).map(|i| m >> i & 1 == 1).collect();
                nl.kind(node).eval(&bits)
            })
            .collect();
        let reachable = conds.iter().map(|&cond| cond != Ref::FALSE).collect();
        (reachable, minterm_probs, table)
    }

    fn found(analysis: Analysis) -> Option<(Vec<NetId>, Vec<bool>)> {
        match analysis {
            Analysis::Analyzed(Some(rewrite)) => Some((rewrite.fanins, rewrite.table)),
            _ => None,
        }
    }

    /// Witness every candidate of `nl` on a `cycles`-long stimulus: each
    /// witnessed minterm must be care in the BDD analysis, and the witness
    /// flags must not change what `find_rewrite` returns. Returns how many
    /// minterms were witnessed.
    fn check_witness(nl: &Netlist, cycles: usize, seed: u64) -> Result<usize, TestCaseError> {
        let bdds = circuit_bdds(nl);
        let packed = Stimulus::uniform(nl.num_inputs()).packed(cycles, seed);
        let mut engine = IncrementalSim::from_full_eval(nl, &packed);
        let probs = biased_probs(nl, seed);
        let mut analyzer = Analyzer::new(nl, &bdds, &probs);
        let mut witnessed = 0;
        for node in sim_candidates(nl, 6) {
            let known = care_witness(&mut engine, node, &ResourceBudget::unlimited());
            let care = bdd_care(nl, &bdds, node);
            for (m, (&seen, &is_care)) in known.iter().zip(&care).enumerate() {
                prop_assert!(!seen || is_care, "{node}: minterm {m} witnessed but not care");
            }
            witnessed += known.iter().filter(|&&k| k).count();
            let blind = vec![false; known.len()];
            prop_assert_eq!(
                found(find_rewrite(&mut analyzer, node, &known)),
                found(find_rewrite(&mut analyzer, node, &blind)),
                "{} at {} cycles",
                node,
                cycles
            );
        }
        Ok(witnessed)
    }

    /// Input one-probabilities away from 0.5, drawn from `seed`.
    fn biased_probs(nl: &Netlist, seed: u64) -> Vec<f64> {
        (0..nl.num_inputs())
            .map(|i| if seed >> (i % 64) & 1 == 1 { 0.8 } else { 0.3 })
            .collect()
    }

    /// Run every candidate of `nl` (fanin up to `max_fanin`) through
    /// `find_rewrite` on the witness of a `cycles`-long stimulus, against
    /// `rebias` on the full analysis's care flags: an unprofitable verdict
    /// needs it to find nothing, and any other verdict must return what it
    /// finds. With at most `BOUND_OPEN_CAP` open minterms (unwitnessed and
    /// reachable), the bound must settle exactly the candidates on which
    /// no care set between the witnessed and the reachable minterms pays.
    /// Returns how many candidates the bound settled and how many had too
    /// many open minterms for it.
    fn check_bound(
        nl: &Netlist,
        max_fanin: usize,
        cycles: usize,
        seed: u64,
    ) -> Result<(usize, usize), TestCaseError> {
        let bdds = circuit_bdds(nl);
        let packed = Stimulus::uniform(nl.num_inputs()).packed(cycles, seed);
        let mut engine = IncrementalSim::from_full_eval(nl, &packed);
        let probs = biased_probs(nl, seed);
        let mut analyzer = Analyzer::new(nl, &bdds, &probs);
        let (mut settled, mut past_cap) = (0, 0);
        for node in sim_candidates(nl, max_fanin) {
            let known = care_witness(&mut engine, node, &ResourceBudget::unlimited());
            let (reachable, minterm_probs, table) = minterms(nl, &bdds, node, &probs);
            let want = rebias(&table, &bdd_care(nl, &bdds, node), &minterm_probs);
            let verdict = find_rewrite(&mut analyzer, node, &known);
            let unprofitable = matches!(verdict, Analysis::Unprofitable);
            if unprofitable {
                prop_assert!(
                    want.is_none(),
                    "{node}: settled unprofitable, but the analysis pays"
                );
                settled += 1;
            } else {
                prop_assert_eq!(found(verdict).map(|(_, table)| table), want, "{}", node);
            }
            let open: Vec<usize> = (0..known.len())
                .filter(|&m| !known[m] && reachable[m])
                .collect();
            if open.len() > BOUND_OPEN_CAP {
                prop_assert!(!unprofitable, "{node}: bound ran past its cap");
                past_cap += 1;
            } else if !open.is_empty() {
                let pays = (0..1u64 << open.len()).any(|split| {
                    let care: Vec<bool> = (0..known.len())
                        .map(|m| match open.iter().position(|&o| o == m) {
                            Some(bit) => split >> bit & 1 == 1,
                            None => known[m],
                        })
                        .collect();
                    rebias(&table, &care, &minterm_probs).is_some()
                });
                prop_assert_eq!(unprofitable, !pays, "{}: open minterms {:?}", node, open);
            }
        }
        Ok((settled, past_cap))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The witness is sound and only ever skips a `None`: on random
        /// DAGs and ragged stimulus lengths, every witnessed minterm is
        /// care, and `find_rewrite` answers the same with the witness
        /// flags as with none.
        #[test]
        fn witness_only_skips_what_the_analysis_rejects(
            seed in 0u64..10_000,
            inputs in 6usize..13,
            gates in 30usize..121,
            len in 0usize..3,
        ) {
            let config = netlist::gen::RandomDagConfig {
                inputs,
                gates,
                outputs: 4,
                max_fanin: 3,
                window: 12,
            };
            let nl = netlist::gen::random_dag(&config, seed);
            let witnessed = check_witness(&nl, [100, 512, 1000][len], seed)?;
            prop_assert!(witnessed > 0, "the stimulus witnessed nothing");
        }
    }

    #[test]
    fn witness_only_skips_what_the_analysis_rejects_on_multipliers() {
        let circuits = [
            netlist::gen::array_multiplier(4).0,
            netlist::gen::wallace_multiplier(4).0,
        ];
        for nl in &circuits {
            for cycles in [100, 512, 1000] {
                let witnessed = check_witness(nl, cycles, 7).unwrap_or_else(|e| panic!("{e}"));
                assert!(witnessed > 0, "{cycles} cycles witnessed nothing");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The bound is exact: on random DAGs with fanin-4 and fanin-5
        /// gates (whose open minterms can pass the cap) and ragged stimulus
        /// lengths, it settles only candidates the full analysis rejects,
        /// and every other verdict is the analysis's own.
        #[test]
        fn bound_only_settles_what_the_analysis_rejects(
            seed in 0u64..10_000,
            inputs in 6usize..11,
            gates in 30usize..81,
            len in 0usize..3,
        ) {
            let config = netlist::gen::RandomDagConfig {
                inputs,
                gates,
                outputs: 4,
                max_fanin: 5,
                window: 12,
            };
            let nl = netlist::gen::random_dag(&config, seed);
            check_bound(&nl, 5, [100, 512, 1000][len], seed)?;
        }
    }

    #[test]
    fn bound_only_settles_what_the_analysis_rejects_on_multipliers() {
        let circuits = [
            netlist::gen::array_multiplier(4).0,
            netlist::gen::wallace_multiplier(4).0,
        ];
        for nl in &circuits {
            for cycles in [100, 512, 1000] {
                check_bound(nl, 6, cycles, 7).unwrap_or_else(|e| panic!("{e}"));
            }
        }
        // A fixed fanin-5 DAG where the bound settles candidates and some
        // candidates carry more open minterms than it takes.
        let config = netlist::gen::RandomDagConfig {
            inputs: 8,
            gates: 60,
            outputs: 4,
            max_fanin: 5,
            window: 12,
        };
        let nl = netlist::gen::random_dag(&config, 2);
        let (settled, past_cap) = check_bound(&nl, 5, 100, 2).unwrap_or_else(|e| panic!("{e}"));
        assert!(settled > 0, "the bound settled nothing");
        assert!(past_cap > 0, "no candidate passed the cap");
    }

    #[test]
    fn witness_settles_parity_without_bdd_work() {
        // Every XOR node of a parity tree is fully observable, and 256
        // uniform patterns show every fanin minterm of each.
        let nl = netlist::gen::parity_tree(8);
        let (_, report) = optimize(&nl, &[0.5; 8], Mode::FanoutAware, 6);
        let c = report.candidates;
        assert!(c.witnessed > 0);
        assert_eq!(
            (c.unreachable, c.unprofitable, c.analyzed, c.rewritten),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn candidate_counts_add_up() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let nl = netlist::gen::random_dag(&config, 4);
        let (_, report) = optimize(&nl, &[0.5; 6], Mode::FanoutAware, 5);
        let c = report.candidates;
        assert!(c.rewritten <= c.analyzed);
        assert!(c.rewritten as usize >= report.nodes_changed);
        let packed = Stimulus::uniform(6).packed(512, 4);
        let (_, sim_report) = optimize_dontcares_sim(&nl, &[0.5; 6], 5, &packed);
        let c = sim_report.candidates;
        assert_eq!(c.rewritten as usize, sim_report.rewrites_tried);
    }

    /// The smallest node budget the circuit BDDs of `nl` build under.
    fn least_node_budget(nl: &Netlist) -> u64 {
        let (mut lo, mut hi) = (1u64, circuit_bdds(nl).mgr.peak_live_nodes() as u64 + 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let budget = ResourceBudget::unlimited().with_max_bdd_nodes(mid);
            if try_circuit_bdds(nl, &budget).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Starved budgets on random DAGs, from just enough nodes for the
    /// input's BDDs upward: every answer is equivalent to the input, an
    /// unstarved one equals the unlimited run, some rung runs out
    /// mid-pass, and a budget too small for the first build fails typed.
    /// A step budget too small for the witness engine only drops the
    /// witness: the pass still runs to the unlimited answer.
    #[test]
    fn starved_dontcare_pass_keeps_an_equivalent_netlist() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 7,
            gates: 40,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let mode = Mode::FanoutAware;
        let mut exhausted = 0;
        for seed in [12u64, 16, 19] {
            let nl = netlist::gen::random_dag(&config, seed);
            let probs = [0.5; 7];
            let (reference, _) = optimize(&nl, &probs, mode, 5);
            let least = least_node_budget(&nl);
            for extra in [0u64, 1, 2, 4, 8, 16, 32, 64] {
                let budget = ResourceBudget::unlimited().with_max_bdd_nodes(least + extra);
                // A rung too tight for the first build fails typed; only
                // an answer carries obligations.
                let mut cache = CircuitBddCache::new();
                let run = try_optimize_dontcares(&nl, &probs, mode, 5, &mut cache, &budget);
                if let Ok((out, report)) = run {
                    assert!(equivalent_exhaustive(&nl, &out), "seed {seed} +{extra}");
                    if report.budget_exhausted {
                        exhausted += 1;
                    } else {
                        let (got, want) = (write_text(&out), write_text(&reference));
                        assert_eq!(got, want, "seed {seed} +{extra}");
                    }
                }
            }
            let no_witness = ResourceBudget::unlimited().with_max_sim_steps(2000);
            let mut cache = CircuitBddCache::new();
            let (out, report) =
                try_optimize_dontcares(&nl, &probs, mode, 5, &mut cache, &no_witness)
                    .expect("steps meter only the witness");
            assert!(!report.budget_exhausted, "seed {seed}");
            assert_eq!(report.candidates.witnessed, 0, "seed {seed}");
            assert_eq!(write_text(&out), write_text(&reference), "seed {seed}");
            // A budget too small for the first build fails typed.
            let starved = ResourceBudget::unlimited().with_max_bdd_nodes(4);
            let mut cache = CircuitBddCache::new();
            let run = try_optimize_dontcares(&nl, &probs, mode, 5, &mut cache, &starved);
            assert!(run.is_err());
        }
        assert!(exhausted > 0, "no rung ran out mid-pass");
    }
}
