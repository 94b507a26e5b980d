//! Activity-driven rewriting search (survey §III.A, \[5\]\[19\]\[35\]\[38\]).
//!
//! The single-move passes ([`crate::dontcare`], [`crate::factor`]) each walk
//! one move class; this module runs a *search* over three classes at once,
//! judging every candidate by the live switched capacitance of a resident
//! [`IncrementalSim`] and keeping the circuit no slower than it started:
//!
//! * **resub** — resubstitution: when two live nets compute the same global
//!   function (or complements, detected on the circuit BDDs), redirect the
//!   deeper net's users to the shallower one and let its cone die;
//! * **extract** — structural sharing: pull a common fanin pair out of two
//!   AND/NAND (or OR/NOR) gates into one shared subgate, and re-factor
//!   OR-of-AND cones through [`crate::factor`] kernels (`f = q·k + r`);
//! * **dontcare** — the observability-don't-care table rewrites of
//!   [`crate::dontcare`], reused verbatim as one move class: the engine's
//!   words witness each candidate, the probability bound settles the ones
//!   no don't-care set could pay for, and the rest share one scratch
//!   manager per enumeration for their BDD analysis.
//!
//! The driver is greedy with lookahead: each round it scores every legal
//! move on the engine (apply, read the live cap, check the equal-delay
//! guard, roll back), then probes the `LOOKAHEAD_WIDTH` most promising
//! heads one move deeper — an extraction that *adds* capacitance can still
//! win the round when the sharing it creates unlocks a bigger second move.
//! Chains are speculated under [`IncrementalSim::checkpoint`] marks and
//! either committed or unwound; the engine guarantees every depth is
//! bit-identical to from-scratch replay, so decisions (and the final
//! netlist) are identical under `force_full`.
//!
//! The delay guard compares unit-sized critical paths of the live logic
//! ([`IncrementalSim::critical_delay`]): a move is legal only while the
//! candidate stays within `1 +` [`DELAY_SLACK`] of the input circuit's
//! critical path. The engine keeps live loads and arrival times resident
//! and re-times only the nets an apply moves, so scoring a move reads the
//! guard and the live cap without cloning, sweeping or re-timing the
//! circuit; both equal a from-scratch analysis of the swept candidate bit
//! for bit. Sharing moves concentrate fanout load on the surviving net, so
//! they trade a bounded unit-delay slip for capacitance; downstream gate
//! sizing recovers the slip, which is how the `bench_incr` equal-delay
//! comparison holds both flows to one timing constraint.
//!
//! The circuit BDDs the resub and dontcare classes read stay resident too:
//! the search owns one [`ResidentBdds`], built fresh by the first
//! enumeration and synced to the engine's netlist by every later one.
//! Resub and extraction keep every existing net's function, so a sync
//! rebuilds the gates a move added or re-gated and stops wherever a
//! rebuilt function equals the old one. Under `force_full` every changed
//! enumeration rebuilds every gate in a fresh manager instead; the
//! functions, and so the decisions, are the same either way. The
//! don't-care class's node count is redone only after a sync moved a
//! function, and pair extraction finds the gate pairs that share two
//! fanins through a fanin index instead of testing every pair.
//!
//! Obs counters: `rewrite.moves.tried.{resub,extract,dontcare}`,
//! `rewrite.moves.accepted.{resub,extract,dontcare}`, and where the
//! dontcare class's candidates went,
//! `dontcare.candidates.{witnessed,unreachable,unprofitable,analyzed,
//! rewritten}`; the engine itself publishes
//! `sim.incr.checkpoints/rollbacks/commits`.

use std::collections::HashMap;

use bdd::{BudgetExceeded, Ref, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};
use power::exact::{CircuitBdds, ResidentBdds};
use sim::incr::{Delta, IncrementalSim, Mark};
use sim::stimulus::PackedPatterns;

use crate::dontcare::{candidate_delta, sim_candidates, Analyzer, CandidateCounts};
use crate::factor::{Cube, Sop};

/// One move class of the rewriting search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Redirect users of a net to an equivalent (or complemented) existing net.
    Resub,
    /// Common-fanin pair extraction or kernel re-factoring.
    Extract,
    /// Observability-don't-care table rewrite.
    DontCare,
}

impl MoveKind {
    /// Lowercase name, as used in the obs counter keys.
    pub fn name(self) -> &'static str {
        match self {
            MoveKind::Resub => "resub",
            MoveKind::Extract => "extract",
            MoveKind::DontCare => "dontcare",
        }
    }

    fn tried_key(self) -> &'static str {
        match self {
            MoveKind::Resub => "rewrite.moves.tried.resub",
            MoveKind::Extract => "rewrite.moves.tried.extract",
            MoveKind::DontCare => "rewrite.moves.tried.dontcare",
        }
    }

    fn accepted_key(self) -> &'static str {
        match self {
            MoveKind::Resub => "rewrite.moves.accepted.resub",
            MoveKind::Extract => "rewrite.moves.accepted.extract",
            MoveKind::DontCare => "rewrite.moves.accepted.dontcare",
        }
    }
}

/// Per-class move counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveCounts {
    /// Resubstitution moves.
    pub resub: u64,
    /// Extraction / kernel moves.
    pub extract: u64,
    /// Don't-care table rewrites.
    pub dontcare: u64,
}

impl MoveCounts {
    fn bump(&mut self, kind: MoveKind) {
        match kind {
            MoveKind::Resub => self.resub += 1,
            MoveKind::Extract => self.extract += 1,
            MoveKind::DontCare => self.dontcare += 1,
        }
    }

    /// Sum over all classes.
    pub fn total(self) -> u64 {
        self.resub + self.extract + self.dontcare
    }
}

/// Relative slack of the delay guard: a move is legal while the
/// unit-sized critical path stays within `(1 + DELAY_SLACK)` of the input
/// circuit's. Sharing moves (resub, extraction) add fanout load on the
/// surviving net, so a zero slack would reject nearly all of them; the
/// slack is what gate sizing recovers afterwards.
pub const DELAY_SLACK: f64 = 0.2;

/// How many of a round's best-scoring moves (heads) are probed one move
/// deeper; a chain is at most a head and one follow-up move.
const LOOKAHEAD_WIDTH: usize = 3;

/// Enumeration cap per move class per round (a deterministic prefix in
/// net-id order).
const MOVES_PER_CLASS: usize = 48;

/// Skip the don't-care move class while the circuit BDDs hold more than
/// this many nodes. The count is [`CircuitBdds::reachable_nodes`]: the
/// nodes reachable from the net functions, terminal included, which is
/// what a fresh build of the netlist holds once collected. It counts
/// neither a build's n-ary fold intermediates nor the functions a sync
/// replaced, so the class switches on and off with the netlist alone,
/// whatever the manager's GC mode or history. The witness and the
/// probability bound settle most candidates without BDD work, but each
/// one left to the analysis substitutes through every dependent cone, so
/// the class's cost still scales with those candidates × manager size —
/// prohibitive exactly on the BDD-heavy arithmetic circuits that carry no
/// observability don't-cares in the first place.
const DONTCARE_NODE_LIMIT: usize = 10_000;

/// Whether the don't-care class runs on `bdds` ([`DONTCARE_NODE_LIMIT`]).
/// The manager's live count bounds the reachable count from above, so a
/// manager already within the limit skips the traversal, and the
/// traversal stops past the limit. The answer depends on the net
/// functions alone, so the search asks again only after a build or a sync
/// that moved one of them ([`ResidentBdds::functions_moved`]).
fn dontcare_class_fits(bdds: &CircuitBdds) -> bool {
    bdds.mgr.node_count() <= DONTCARE_NODE_LIMIT
        || bdds.reachable_nodes(DONTCARE_NODE_LIMIT) <= DONTCARE_NODE_LIMIT
}

/// Settings of [`try_rewrite_sim`].
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Fanin bound for the don't-care table class (enumeration is `2^fanin`).
    pub max_fanin: usize,
    /// Bound on accepted chains (each accepted chain starts a new round).
    pub max_rounds: usize,
    /// Force full re-evaluation inside the engine (A/B twin: identical
    /// decisions, no incremental speedup).
    pub force_full: bool,
    /// Metrics sink; counters are skipped when disabled.
    pub obs: obs::Obs,
}

impl Default for RewriteConfig {
    fn default() -> RewriteConfig {
        RewriteConfig {
            max_fanin: 4,
            max_rounds: 32,
            force_full: false,
            obs: obs::Obs::disabled(),
        }
    }
}

/// Outcome of the rewriting search.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    /// Simulated switched capacitance before (fF/cycle, live nets only).
    pub cap_before: f64,
    /// Simulated switched capacitance after.
    pub cap_after: f64,
    /// Unit-sized critical path before.
    pub crit_before: f64,
    /// Unit-sized critical path after (guarded: within
    /// `(1 +` [`DELAY_SLACK`]`)` of `crit_before`).
    pub crit_after: f64,
    /// Accepted move chains (rounds that improved the circuit).
    pub chains_accepted: usize,
    /// Moves speculated on the engine, by class.
    pub tried: MoveCounts,
    /// Moves in accepted chains, by class.
    pub accepted: MoveCounts,
    /// Nets (re-)evaluated by the engine across the whole search — the
    /// deterministic work metric `bench_incr` compares against the
    /// force-full twin.
    pub nets_reevaluated: u64,
    /// Unit-size arrival times the engine recomputed across the search
    /// (its timing work, compared the same way).
    pub arrivals_retimed: u64,
    /// Where the dontcare class's candidates went, over every enumeration.
    pub dontcare_candidates: CandidateCounts,
    /// Gates the search's circuit BDDs were built for: every gate of the
    /// first enumeration's build plus the gates each later enumeration's
    /// sync rebuilt (every gate per changed netlist under `force_full`).
    /// The search's BDD work, compared the same way.
    pub bdd_gates_built: u64,
    /// The budget ran out mid-search; the result is the last committed
    /// (safe) state, still functionally equivalent to the input.
    pub budget_exhausted: bool,
}

/// One candidate move: a delta against the round's base netlist.
struct Move {
    kind: MoveKind,
    delta: Delta,
}

/// Run the activity-driven rewriting search under a budget.
///
/// Returns the optimized netlist (dead cones swept) and a report. The
/// result is functionally equivalent to the input on every primary output
/// and no slower at unit sizing. The budget bounds the engine build, every
/// speculative apply, and the first move enumeration's circuit-BDD build
/// and each later one's sync. `Err` is only returned when the *initial*
/// engine build exhausts the budget; exhaustion mid-search unwinds to the
/// last committed mark and returns that state with
/// [`RewriteReport::budget_exhausted`] set. Under
/// [`ResourceBudget::unlimited`] the search cannot fail.
///
/// # Panics
///
/// Panics if the netlist is sequential/cyclic or `input_probs` /
/// `packed` have the wrong width.
pub fn try_rewrite_sim(
    nl: &Netlist,
    input_probs: &[f64],
    packed: &PackedPatterns,
    budget: &ResourceBudget,
    cfg: &RewriteConfig,
) -> Result<(Netlist, RewriteReport), BudgetExceeded> {
    assert!(
        nl.is_combinational(),
        "rewriting search needs combinational logic"
    );
    assert_eq!(input_probs.len(), nl.num_inputs());
    let mut engine = IncrementalSim::try_from_full_eval(nl, packed, budget, cfg.obs.clone())?;
    if cfg.force_full {
        engine.set_force_full(true);
    }
    let cap_before = engine.switched_cap_live();
    let crit_before = engine.critical_delay();
    let mut search = Search {
        engine,
        store: None,
        dontcare_fits: false,
        input_probs,
        budget,
        guard: crit_before * (1.0 + DELAY_SLACK) + 1e-9,
        cfg,
        report: RewriteReport {
            cap_before,
            cap_after: cap_before,
            crit_before,
            crit_after: crit_before,
            chains_accepted: 0,
            tried: MoveCounts::default(),
            accepted: MoveCounts::default(),
            nets_reevaluated: 0,
            arrivals_retimed: 0,
            dontcare_candidates: CandidateCounts::default(),
            bdd_gates_built: 0,
            budget_exhausted: false,
        },
    };
    let mut cap_current = cap_before;
    for _round in 0..cfg.max_rounds {
        let base_mark = search.engine.checkpoint();
        match search.round(base_mark, cap_current) {
            Ok(Some((kinds, chain_cap))) => {
                debug_assert_eq!(
                    search.engine.switched_cap_live().to_bits(),
                    chain_cap.to_bits(),
                    "replayed chain must reproduce its speculated score"
                );
                let sealed = search.engine.checkpoint();
                search.engine.commit(sealed);
                cap_current = chain_cap;
                search.report.chains_accepted += 1;
                for kind in kinds {
                    search.report.accepted.bump(kind);
                    if cfg.obs.is_enabled() {
                        cfg.obs.add(kind.accepted_key(), 1);
                    }
                }
            }
            Ok(None) => break,
            // The one exit on exhaustion: unwind to the last sealed chain.
            Err(_) => {
                search.report.budget_exhausted = true;
                search.engine.rollback_to(base_mark);
                break;
            }
        }
    }

    let Search {
        engine, mut report, ..
    } = search;
    // No accepted chain leaves the input untouched (net ids intact for
    // callers holding resident engines); otherwise return the live logic.
    let out = if report.chains_accepted == 0 {
        nl.clone()
    } else {
        let mut swept = engine.netlist().clone();
        swept.sweep_dead();
        swept
    };
    report.cap_after = cap_current;
    report.crit_after = engine.critical_delay();
    report.nets_reevaluated = engine.stats().nets_reevaluated;
    report.arrivals_retimed = engine.stats().arrivals_retimed;
    report.dontcare_candidates.publish(&cfg.obs);
    Ok((out, report))
}

/// One search's state across its rounds.
struct Search<'a> {
    engine: IncrementalSim,
    /// The circuit BDDs of the last enumeration's netlist; `None` before
    /// the first enumeration builds them and after a sync ran out.
    store: Option<ResidentBdds>,
    /// Whether `store` fits [`DONTCARE_NODE_LIMIT`], recounted only when
    /// a build or sync moved a function or the net count.
    dontcare_fits: bool,
    input_probs: &'a [f64],
    budget: &'a ResourceBudget,
    /// Largest legal unit-sized critical path.
    guard: f64,
    cfg: &'a RewriteConfig,
    report: RewriteReport,
}

impl Search<'_> {
    /// One round from the engine's netlist, the state at `base_mark`:
    /// score every move, probe the best heads one move deeper, and leave
    /// the best chain applied when it beats `cap_current`. Returns the
    /// chain's move classes and cap; `None` when no chain improves (the
    /// engine is then back at `base_mark`).
    fn round(
        &mut self,
        base_mark: Mark,
        cap_current: f64,
    ) -> Result<Option<(Vec<MoveKind>, f64)>, BudgetExceeded> {
        let moves = self.enumerate_moves()?;
        let scored = self.score_moves(&moves)?;
        // The chain score of a head is the best cap reachable in at most
        // two moves from it: (head index, follow-up move, chain cap).
        let mut best: Option<(usize, Option<Move>, f64)> = None;
        for &(head, cap_head) in scored.iter().take(LOOKAHEAD_WIDTH) {
            let head_mark = self.engine.checkpoint();
            let head_delta = &moves[head].delta;
            self.engine.try_apply_delta(head_delta, self.budget)?;
            let mut next_moves = self.enumerate_moves()?;
            let next_scored = self.score_moves(&next_moves)?;
            let mut chain = (head, None, cap_head);
            if let Some(&(next, cap_next)) = next_scored.first() {
                if cap_next < cap_head - 1e-9 {
                    chain = (head, Some(next_moves.swap_remove(next)), cap_next);
                }
            }
            self.engine.rollback_to(head_mark);
            if best.as_ref().is_none_or(|b| chain.2 < b.2 - 1e-9) {
                best = Some(chain);
            }
        }
        let Some((head, follow, chain_cap)) = best else {
            return Ok(None);
        };
        if chain_cap >= cap_current - 1e-9 {
            self.engine.rollback_to(base_mark);
            return Ok(None);
        }
        // Re-apply the winning chain; the caller seals it.
        let mut kinds = vec![moves[head].kind];
        let head_delta = &moves[head].delta;
        self.engine.try_apply_delta(head_delta, self.budget)?;
        if let Some(follow) = follow {
            self.engine.try_apply_delta(&follow.delta, self.budget)?;
            kinds.push(follow.kind);
        }
        Ok(Some((kinds, chain_cap)))
    }

    /// Score every move on the engine: apply, read the live cap, check the
    /// equal-delay guard, roll back. Returns the feasible moves sorted best
    /// cap first (ties broken by enumeration order, so the search is
    /// deterministic).
    fn score_moves(&mut self, moves: &[Move]) -> Result<Vec<(usize, f64)>, BudgetExceeded> {
        let engine = &mut self.engine;
        let mut scored = Vec::new();
        for (i, mv) in moves.iter().enumerate() {
            self.report.tried.bump(mv.kind);
            if self.cfg.obs.is_enabled() {
                self.cfg.obs.add(mv.kind.tried_key(), 1);
            }
            let mark = engine.checkpoint();
            if let Err(e) = engine.try_apply_delta(&mv.delta, self.budget) {
                engine.rollback_to(mark);
                return Err(e);
            }
            let cap = engine.switched_cap_live();
            let crit = engine.critical_delay();
            engine.rollback_to(mark);
            if crit <= self.guard {
                scored.push((i, cap));
            }
        }
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        Ok(scored)
    }

    /// Enumerate all candidate moves against the engine's netlist, per
    /// class, in deterministic net-id order, each class capped at
    /// [`MOVES_PER_CLASS`]. The engine's resident words witness the
    /// dontcare class's care minterms.
    ///
    /// The resub and dontcare classes read the search's one
    /// [`ResidentBdds`]: the first enumeration builds it fresh, and every
    /// later one syncs it to the engine's netlist, rebuilding only the
    /// gates that the moves applied or rolled back since the last
    /// enumeration changed (and every gate under `force_full`, the
    /// from-scratch twin). Both run under the search's budget; a sync that
    /// runs out drops the store. The [`DONTCARE_NODE_LIMIT`] count depends
    /// on the net functions alone, so it is redone only after a build or a
    /// sync that moved one of them or the net count.
    fn enumerate_moves(&mut self) -> Result<Vec<Move>, BudgetExceeded> {
        let nl = self.engine.netlist();
        let store = match self.store.take() {
            None => ResidentBdds::try_build(nl, self.engine.force_full(), self.budget)?,
            Some(store) => store.try_sync(nl, self.budget)?,
        };
        self.report.bdd_gates_built = store.gates_built();
        if store.functions_moved() {
            self.dontcare_fits = dontcare_class_fits(store.bdds());
        }
        let store = self.store.insert(store);
        let (nl, bdds) = (store.netlist(), store.bdds());
        // Rewrites leave dead cones in place (net ids stay stable for the
        // engine), so moves only target live logic.
        let live = nl.live_mask();
        let mut out = Vec::new();
        resub_moves(nl, bdds, &live, MOVES_PER_CLASS, &mut out);
        pair_extract_moves(nl, &live, MOVES_PER_CLASS, &mut out);
        kernel_moves(nl, &live, MOVES_PER_CLASS, &mut out);
        if self.dontcare_fits {
            let mut analyzer = Analyzer::new(nl, bdds, self.input_probs);
            let counts = &mut self.report.dontcare_candidates;
            let max_fanin = self.cfg.max_fanin;
            dontcare_moves(&mut analyzer, &mut self.engine, max_fanin, counts, &mut out);
        }
        Ok(out)
    }
}

/// Resubstitution: redirect users of a net to a no-deeper net with the same
/// (or complemented) global function. The level check makes the move
/// acyclic: fanin edges strictly decrease level, so with
/// `level(d) ≤ level(net)` no user of `net` (always deeper than `net`) can
/// sit inside `d`'s transitive fanin.
fn resub_moves(nl: &Netlist, bdds: &CircuitBdds, live: &[bool], cap: usize, out: &mut Vec<Move>) {
    let Ok(levels) = nl.levels() else {
        return;
    };
    // Representative for each global function: the shallowest live net
    // (ties to the lowest id, so enumeration is deterministic).
    let mut rep: HashMap<Ref, NetId> = HashMap::new();
    for net in nl.iter_nets() {
        let i = net.index();
        if !live[i] || bdds.funcs[i].is_const() {
            continue;
        }
        rep.entry(bdds.funcs[i])
            .and_modify(|r| {
                if (levels[i], i) < (levels[r.index()], r.index()) {
                    *r = net;
                }
            })
            .or_insert(net);
    }
    let mut count = 0;
    for net in nl.iter_nets() {
        if count >= cap {
            break;
        }
        let i = net.index();
        let kind = nl.kind(net);
        if !live[i] || kind.is_source() || kind == GateKind::Dff || bdds.funcs[i].is_const() {
            continue;
        }
        if let Some(&d) = rep.get(&bdds.funcs[i]) {
            if d != net && levels[d.index()] <= levels[i] {
                let mut delta = Delta::for_netlist(nl);
                delta.replace_uses(net, d);
                out.push(Move {
                    kind: MoveKind::Resub,
                    delta,
                });
                count += 1;
                continue;
            }
        }
        let complement = bdds.mgr.not(bdds.funcs[i]);
        if let Some(&d) = rep.get(&complement) {
            if d != net && levels[d.index()] <= levels[i] {
                let mut delta = Delta::for_netlist(nl);
                let inv = delta.add_gate(GateKind::Not, &[d]);
                delta.replace_uses(net, inv);
                out.push(Move {
                    kind: MoveKind::Resub,
                    delta,
                });
                count += 1;
            }
        }
    }
}

/// Common-fanin pair extraction: two AND-family (or OR-family) gates sharing
/// ≥ 2 fanins get the shared set pulled into one subgate. Sound because the
/// families are associative/idempotent over fanin *sets*:
/// `NAND(a,b,c) = NAND(AND(a,b), c)`, likewise OR/NOR over OR.
///
/// Pairs come in all-pairs order (`a` ascending, then `b > a` ascending),
/// but only the pairs that share two fanins are visited: a fanin→gates
/// index finds each gate's later partners.
fn pair_extract_moves(nl: &Netlist, live: &[bool], cap: usize, out: &mut Vec<Move>) {
    let mut count = 0;
    for (sub_kind, members) in [
        (GateKind::And, [GateKind::And, GateKind::Nand]),
        (GateKind::Or, [GateKind::Or, GateKind::Nor]),
    ] {
        let gates: Vec<(NetId, Vec<NetId>)> = nl
            .iter_nets()
            .filter(|&n| {
                live[n.index()] && members.contains(&nl.kind(n)) && nl.fanins(n).len() >= 2
            })
            .map(|n| {
                let mut fan = nl.fanins(n).to_vec();
                fan.sort_unstable();
                fan.dedup();
                (n, fan)
            })
            .collect();
        // The family's gates reading each net, in ascending order.
        let mut users: Vec<Vec<usize>> = vec![Vec::new(); nl.len()];
        for (g, (_, fan)) in gates.iter().enumerate() {
            for x in fan {
                users[x.index()].push(g);
            }
        }
        // Per later gate, how many of gate `a`'s fanins it reads.
        let mut hits = vec![0usize; gates.len()];
        let mut partners = Vec::new();
        for (a, (ga, fa)) in gates.iter().enumerate() {
            let later = |x: &NetId| {
                let readers = &users[x.index()];
                &readers[readers.partition_point(|&b| b <= a)..]
            };
            for b in fa.iter().flat_map(later) {
                hits[*b] += 1;
                if hits[*b] == 2 {
                    partners.push(*b);
                }
            }
            for b in fa.iter().flat_map(later) {
                hits[*b] = 0;
            }
            partners.sort_unstable();
            for b in partners.drain(..) {
                if count >= cap {
                    return;
                }
                let (gb, fb) = &gates[b];
                let shared: Vec<NetId> = fa
                    .iter()
                    .copied()
                    .filter(|x| fb.binary_search(x).is_ok())
                    .collect();
                let rest_a: Vec<NetId> = fa
                    .iter()
                    .copied()
                    .filter(|x| shared.binary_search(x).is_err())
                    .collect();
                let rest_b: Vec<NetId> = fb
                    .iter()
                    .copied()
                    .filter(|x| shared.binary_search(x).is_err())
                    .collect();
                if rest_a.is_empty() && rest_b.is_empty() {
                    // Identical fanin sets: that's resubstitution's job.
                    continue;
                }
                let mut delta = Delta::for_netlist(nl);
                let sub = delta.add_gate(sub_kind, &shared);
                refanin_through(&mut delta, nl, *ga, sub, &rest_a);
                refanin_through(&mut delta, nl, *gb, sub, &rest_b);
                out.push(Move {
                    kind: MoveKind::Extract,
                    delta,
                });
                count += 1;
            }
        }
    }
}

/// Rewrite gate `g` as `kind(sub, rest...)`; when the shared subgate covers
/// the whole fanin set the gate collapses to a Buf (non-inverting family) or
/// Not (inverting family) of `sub`.
fn refanin_through(delta: &mut Delta, nl: &Netlist, g: NetId, sub: NetId, rest: &[NetId]) {
    let kind = nl.kind(g);
    if rest.is_empty() {
        let wrap = match kind {
            GateKind::Nand | GateKind::Nor => GateKind::Not,
            _ => GateKind::Buf,
        };
        delta.set_gate(g, wrap, &[sub]);
    } else {
        let mut fan = Vec::with_capacity(1 + rest.len());
        fan.push(sub);
        fan.extend_from_slice(rest);
        delta.set_gate(g, kind, &fan);
    }
}

/// Kernel extraction on OR-of-AND cones: flatten an OR gate (whose terms are
/// single-fanout AND gates or plain literals) into an [`Sop`], pick the
/// kernel with the best literal saving, and rebuild as `q·k + r` — an exact
/// algebraic identity, so the cone's function is unchanged.
fn kernel_moves(nl: &Netlist, live: &[bool], cap: usize, out: &mut Vec<Move>) {
    let fanout = nl.fanout_counts();
    let mut count = 0;
    'gates: for g in nl.iter_nets() {
        if count >= cap {
            break;
        }
        if !live[g.index()] || nl.kind(g) != GateKind::Or || nl.fanins(g).len() < 2 {
            continue;
        }
        // Flatten g into an SOP over base literals (a net, or a net behind a
        // Not gate). AND terms must be single-fanout so the rewrite retires
        // them instead of duplicating logic.
        let mut vars: Vec<NetId> = Vec::new();
        let mut var_of: HashMap<NetId, usize> = HashMap::new();
        let mut cubes: Vec<Cube> = Vec::new();
        for &term in nl.fanins(g) {
            let literals: Vec<NetId> =
                if nl.kind(term) == GateKind::And && fanout[term.index()] == 1 {
                    nl.fanins(term).to_vec()
                } else {
                    vec![term]
                };
            let mut cube = Some(Cube::ONE);
            for lit in literals {
                let (base, positive) = if nl.kind(lit) == GateKind::Not {
                    (nl.fanins(lit)[0], false)
                } else {
                    (lit, true)
                };
                let v = *var_of.entry(base).or_insert_with(|| {
                    vars.push(base);
                    vars.len() - 1
                });
                if vars.len() > 16 {
                    continue 'gates; // keep kernel enumeration cheap
                }
                cube = cube.and_then(|c| c.and(Cube::literal(v, positive)));
            }
            match cube {
                // x·x̄ inside a term: the term is constant false, dropping it
                // from the OR preserves the function.
                None => {}
                Some(c) => cubes.push(c),
            }
        }
        let sop = Sop::new(cubes);
        if sop.cubes.len() < 2 {
            continue;
        }
        let mut best: Option<(Sop, Sop, Sop, isize)> = None;
        for k in sop.kernels() {
            if k.cubes.len() < 2 {
                continue;
            }
            let (q, r) = sop.divide(&k);
            if q.cubes.is_empty() {
                continue;
            }
            // +2 literals for the q·k product node itself.
            let rebuilt = q.literal_count() + k.literal_count() + r.literal_count() + 2;
            let saving = sop.literal_count() as isize - rebuilt as isize;
            if best.as_ref().map(|b| saving > b.3).unwrap_or(saving > 0) {
                best = Some((k, q, r, saving));
            }
        }
        let Some((k, q, r, _)) = best else {
            continue;
        };
        let mut delta = Delta::for_netlist(nl);
        let mut inverters: HashMap<NetId, NetId> = HashMap::new();
        let kn = emit_sop(&mut delta, &k, &vars, &mut inverters);
        let qn = emit_sop(&mut delta, &q, &vars, &mut inverters);
        let product = delta.add_gate(GateKind::And, &[qn, kn]);
        let mut terms = vec![product];
        for &c in &r.cubes {
            terms.push(emit_cube(&mut delta, c, &vars, &mut inverters));
        }
        if terms.len() == 1 {
            delta.set_gate(g, GateKind::Buf, &terms);
        } else {
            delta.set_gate(g, GateKind::Or, &terms);
        }
        out.push(Move {
            kind: MoveKind::Extract,
            delta,
        });
        count += 1;
    }
}

fn emit_literal(
    delta: &mut Delta,
    var: usize,
    positive: bool,
    vars: &[NetId],
    inverters: &mut HashMap<NetId, NetId>,
) -> NetId {
    let base = vars[var];
    if positive {
        base
    } else {
        *inverters
            .entry(base)
            .or_insert_with(|| delta.add_gate(GateKind::Not, &[base]))
    }
}

fn emit_cube(
    delta: &mut Delta,
    cube: Cube,
    vars: &[NetId],
    inverters: &mut HashMap<NetId, NetId>,
) -> NetId {
    let mut literals = Vec::new();
    for v in 0..vars.len() {
        if cube.pos >> v & 1 == 1 {
            literals.push(emit_literal(delta, v, true, vars, inverters));
        } else if cube.neg >> v & 1 == 1 {
            literals.push(emit_literal(delta, v, false, vars, inverters));
        }
    }
    match literals.len() {
        0 => delta.add_gate(GateKind::Const(true), &[]),
        1 => literals[0],
        _ => delta.add_gate(GateKind::And, &literals),
    }
}

fn emit_sop(
    delta: &mut Delta,
    sop: &Sop,
    vars: &[NetId],
    inverters: &mut HashMap<NetId, NetId>,
) -> NetId {
    let terms: Vec<NetId> = sop
        .cubes
        .iter()
        .map(|&c| emit_cube(delta, c, vars, inverters))
        .collect();
    match terms.len() {
        0 => delta.add_gate(GateKind::Const(false), &[]),
        1 => terms[0],
        _ => delta.add_gate(GateKind::Or, &terms),
    }
}

/// The don't-care table rewrites of [`crate::dontcare`] as one move class,
/// witnessed on `engine`'s resident words. The analyses run unbudgeted in
/// the analyzer's one scratch manager, a clone of the circuit BDDs the
/// search built under its budget; the budget also meters the scoring.
fn dontcare_moves(
    analyzer: &mut Analyzer,
    engine: &mut IncrementalSim,
    max_fanin: usize,
    counts: &mut CandidateCounts,
    out: &mut Vec<Move>,
) {
    let nl = analyzer.netlist();
    // The search enumerates from the engine's own netlist, whether it sits
    // on the round's base or on a lookahead head.
    assert_eq!(
        engine.netlist().len(),
        nl.len(),
        "witness engine holds another netlist"
    );
    let unlimited = ResourceBudget::unlimited();
    let mut count = 0;
    for node in sim_candidates(nl, max_fanin) {
        if count >= MOVES_PER_CLASS {
            break;
        }
        let witness = Some(&mut *engine);
        if let Some(delta) = candidate_delta(analyzer, node, witness, &unlimited, counts) {
            out.push(Move {
                kind: MoveKind::DontCare,
                delta,
            });
            count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::comb::equivalent_exhaustive;
    use sim::stimulus::Stimulus;

    /// Two structurally duplicated AND cones: resubstitution should merge
    /// them (one becomes a user of the other and its cone dies).
    fn duplicated_cones() -> Netlist {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.add_gate(GateKind::And, &[a, b]);
        let y = nl.add_gate(GateKind::And, &[a, b]);
        let f = nl.add_gate(GateKind::Or, &[x, c]);
        let g = nl.add_gate(GateKind::Xor, &[y, c]);
        nl.mark_output(f, "f");
        nl.mark_output(g, "g");
        nl
    }

    #[test]
    fn resub_merges_duplicate_cones() {
        let nl = duplicated_cones();
        let packed = Stimulus::uniform(3).packed(256, 7);
        let cfg = RewriteConfig::default();
        let unlimited = ResourceBudget::unlimited();
        let (optimized, report) =
            try_rewrite_sim(&nl, &[0.5; 3], &packed, &unlimited, &cfg).expect("unlimited budget");
        assert!(equivalent_exhaustive(&nl, &optimized));
        assert!(report.accepted.resub >= 1, "{:?}", report.accepted);
        assert!(report.cap_after < report.cap_before);
        assert!(report.crit_after <= report.crit_before * (1.0 + DELAY_SLACK) + 1e-9);
    }

    #[test]
    fn pair_extraction_deltas_preserve_function() {
        // Nand(a,b,c) and And(a,b,d) share {a,b}: extractable.
        let mut nl = Netlist::new("pairs");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let x = nl.add_gate(GateKind::Nand, &[a, b, c]);
        let y = nl.add_gate(GateKind::And, &[a, b, d]);
        let f = nl.add_gate(GateKind::Or, &[x, y]);
        nl.mark_output(f, "f");
        let live = nl.live_mask();
        let mut moves = Vec::new();
        pair_extract_moves(&nl, &live, 16, &mut moves);
        assert!(!moves.is_empty(), "shared pair {{a,b}} should be found");
        for mv in &moves {
            let mut rebuilt = nl.clone();
            mv.delta.apply_to(&mut rebuilt);
            assert!(equivalent_exhaustive(&nl, &rebuilt));
        }
    }

    /// The all-pairs scan the indexed one replaced: every pair `(a, b)`,
    /// `a < b`, of a family's gates, in order, capped across families.
    fn all_pairs_extract_moves(nl: &Netlist, live: &[bool], cap: usize, out: &mut Vec<Move>) {
        let mut count = 0;
        for (sub_kind, members) in [
            (GateKind::And, [GateKind::And, GateKind::Nand]),
            (GateKind::Or, [GateKind::Or, GateKind::Nor]),
        ] {
            let gates: Vec<(NetId, Vec<NetId>)> = nl
                .iter_nets()
                .filter(|&n| {
                    live[n.index()] && members.contains(&nl.kind(n)) && nl.fanins(n).len() >= 2
                })
                .map(|n| {
                    let mut fan = nl.fanins(n).to_vec();
                    fan.sort_unstable();
                    fan.dedup();
                    (n, fan)
                })
                .collect();
            for a in 0..gates.len() {
                for b in a + 1..gates.len() {
                    if count >= cap {
                        return;
                    }
                    let ((ga, fa), (gb, fb)) = (&gates[a], &gates[b]);
                    let shared: Vec<NetId> = fa
                        .iter()
                        .copied()
                        .filter(|x| fb.binary_search(x).is_ok())
                        .collect();
                    if shared.len() < 2 {
                        continue;
                    }
                    let rest = |f: &[NetId]| -> Vec<NetId> {
                        f.iter()
                            .copied()
                            .filter(|x| shared.binary_search(x).is_err())
                            .collect()
                    };
                    let (rest_a, rest_b) = (rest(fa), rest(fb));
                    if rest_a.is_empty() && rest_b.is_empty() {
                        continue;
                    }
                    let mut delta = Delta::for_netlist(nl);
                    let sub = delta.add_gate(sub_kind, &shared);
                    refanin_through(&mut delta, nl, *ga, sub, &rest_a);
                    refanin_through(&mut delta, nl, *gb, sub, &rest_b);
                    out.push(Move {
                        kind: MoveKind::Extract,
                        delta,
                    });
                    count += 1;
                }
            }
        }
    }

    /// The indexed pair scan against the all-pairs oracle on `nl`, under
    /// every cap from 0 to one past its move count and uncapped: the same
    /// deltas in the same order. Returns the uncapped moves' shared
    /// subgate kinds, in order.
    fn check_pair_scan(nl: &Netlist) -> Vec<GateKind> {
        let live = nl.live_mask();
        let scan = |extract: fn(&Netlist, &[bool], usize, &mut Vec<Move>), cap| {
            let mut moves = Vec::new();
            extract(nl, &live, cap, &mut moves);
            moves
                .iter()
                .map(|mv| format!("{:?}", mv.delta))
                .collect::<Vec<_>>()
        };
        let all = scan(all_pairs_extract_moves, usize::MAX);
        for cap in (0..=all.len() + 1).chain([usize::MAX]) {
            assert_eq!(
                scan(pair_extract_moves, cap),
                scan(all_pairs_extract_moves, cap),
                "{} at cap {cap}",
                nl.name()
            );
        }
        let mut moves = Vec::new();
        pair_extract_moves(nl, &live, usize::MAX, &mut moves);
        moves
            .iter()
            .map(|mv| match mv.delta.ops().first() {
                Some(sim::incr::DeltaOp::AddGate { kind, .. }) => *kind,
                op => panic!("an extraction starts with its subgate, not {op:?}"),
            })
            .collect()
    }

    #[test]
    fn indexed_pair_scan_matches_all_pairs() {
        // Narrow windows and wide gates make shared fanin pairs common.
        let mut and_then_or = false;
        for seed in 0..24u64 {
            let config = netlist::gen::RandomDagConfig {
                inputs: 6 + seed as usize % 5,
                gates: 40 + 10 * (seed as usize % 7),
                outputs: 4,
                max_fanin: 2 + seed as usize % 4,
                window: 4 + seed as usize % 9,
            };
            let kinds = check_pair_scan(&netlist::gen::random_dag(&config, seed));
            // Both families found moves, the AND family at least two, so
            // some cap binds inside each family.
            let ands = kinds.iter().filter(|&&k| k == GateKind::And).count();
            and_then_or |= ands >= 2 && kinds.len() > ands;
        }
        assert!(and_then_or, "no DAG had a cap bind inside each family");
        for nl in [
            netlist::gen::array_multiplier(6).0,
            netlist::gen::wallace_multiplier(8).0,
        ] {
            check_pair_scan(&nl);
        }
    }

    #[test]
    fn kernel_deltas_preserve_function() {
        // f = a·b·c + a·b·d + a·b·e + g — kernel (c + d + e), co-kernel a·b:
        // 10 literals flattened, 8 rebuilt as q·k + r.
        let mut nl = Netlist::new("kern");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let e = nl.add_input("e");
        let g = nl.add_input("g");
        let t1 = nl.add_gate(GateKind::And, &[a, b, c]);
        let t2 = nl.add_gate(GateKind::And, &[a, b, d]);
        let t3 = nl.add_gate(GateKind::And, &[a, b, e]);
        let f = nl.add_gate(GateKind::Or, &[t1, t2, t3, g]);
        nl.mark_output(f, "f");
        let live = nl.live_mask();
        let mut moves = Vec::new();
        kernel_moves(&nl, &live, 16, &mut moves);
        assert!(!moves.is_empty(), "the (c + d + e) kernel should be found");
        for mv in &moves {
            let mut rebuilt = nl.clone();
            mv.delta.apply_to(&mut rebuilt);
            assert!(equivalent_exhaustive(&nl, &rebuilt));
        }
    }

    #[test]
    fn search_preserves_function_on_random_dags() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        for seed in [2, 5, 11] {
            let nl = netlist::gen::random_dag(&config, seed);
            let packed = Stimulus::uniform(6).packed(256, seed);
            let cfg = RewriteConfig::default();
            let unlimited = ResourceBudget::unlimited();
            let (optimized, report) = try_rewrite_sim(&nl, &[0.5; 6], &packed, &unlimited, &cfg)
                .expect("unlimited budget");
            assert!(equivalent_exhaustive(&nl, &optimized), "seed {seed}");
            assert!(report.cap_after <= report.cap_before + 1e-9, "seed {seed}");
            assert!(
                report.crit_after <= report.crit_before * (1.0 + DELAY_SLACK) + 1e-9,
                "seed {seed}: delay guard violated ({} -> {})",
                report.crit_before,
                report.crit_after
            );
            assert!(!report.budget_exhausted);
        }
    }

    #[test]
    fn force_full_twin_makes_identical_decisions() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 5,
            gates: 24,
            outputs: 2,
            max_fanin: 3,
            window: 8,
        };
        let nl = netlist::gen::random_dag(&config, 3);
        let packed = Stimulus::uniform(5).packed(256, 3);
        let incr_cfg = RewriteConfig::default();
        let full_cfg = RewriteConfig {
            force_full: true,
            ..RewriteConfig::default()
        };
        let unlimited = ResourceBudget::unlimited();
        let run = |cfg| try_rewrite_sim(&nl, &[0.5; 5], &packed, &unlimited, cfg);
        let (a, ra) = run(&incr_cfg).expect("unlimited budget");
        let (b, rb) = run(&full_cfg).expect("unlimited budget");
        assert_eq!(ra.cap_after.to_bits(), rb.cap_after.to_bits());
        assert_eq!(ra.chains_accepted, rb.chains_accepted);
        assert_eq!(ra.tried, rb.tried);
        assert_eq!(ra.accepted, rb.accepted);
        assert_eq!(ra.dontcare_candidates, rb.dontcare_candidates);
        assert_eq!(a.len(), b.len());
        for net in a.iter_nets() {
            assert_eq!(a.kind(net), b.kind(net), "{net}");
            assert_eq!(a.fanins(net), b.fanins(net), "{net}");
        }
    }

    #[test]
    fn budget_exhaustion_unwinds_to_safe_state() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 40,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let nl = netlist::gen::random_dag(&config, 8);
        let packed = Stimulus::uniform(6).packed(256, 8);
        let cfg = RewriteConfig::default();
        // Unlimited reference tells us the total step cost; any smaller
        // budget must exhaust mid-search yet still return a valid circuit.
        let unlimited = ResourceBudget::unlimited();
        let (reference, ref_report) =
            try_rewrite_sim(&nl, &[0.5; 6], &packed, &unlimited, &cfg).expect("unlimited budget");
        for divisor in [2u64, 5, 20] {
            let steps = (256 * nl.len() as u64) + ref_report.nets_reevaluated / divisor;
            let budget = ResourceBudget::unlimited().with_max_sim_steps(steps.max(1));
            match try_rewrite_sim(&nl, &[0.5; 6], &packed, &budget, &cfg) {
                Ok((optimized, report)) => {
                    assert!(
                        equivalent_exhaustive(&nl, &optimized),
                        "divisor {divisor}: exhaustion must land on a safe state"
                    );
                    assert!(report.cap_after <= report.cap_before + 1e-9);
                    if !report.budget_exhausted {
                        // Enough budget after all: must match the reference.
                        assert!(equivalent_exhaustive(&reference, &optimized));
                    }
                }
                Err(_) => {
                    // Initial build alone exceeded the budget: acceptable
                    // only for the tightest divisor.
                    assert!(divisor >= 20, "divisor {divisor} should build");
                }
            }
        }
    }

    #[test]
    fn a_sync_that_runs_out_unwinds_to_the_last_sealed_chain() {
        let config = netlist::gen::RandomDagConfig {
            inputs: 6,
            gates: 30,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let nl = netlist::gen::random_dag(&config, 2);
        let packed = Stimulus::uniform(6).packed(256, 2);
        let unlimited = ResourceBudget::unlimited();
        let nodes = |n| ResourceBudget::unlimited().with_max_bdd_nodes(n);
        let cfg = RewriteConfig::default();
        // From the least node budget the first enumeration's fresh build
        // fits, the first one a later sync runs out of (syncs add the
        // functions the moves create) once a chain has sealed. Which one
        // that is depends on the GC mode and on `force_full`.
        let least = (1..)
            .find(|&n| power::exact::try_circuit_bdds(&nl, &nodes(n)).is_ok())
            .expect("some budget fits");
        let (out, report) = (least..least + 64)
            .map(|n| {
                try_rewrite_sim(&nl, &[0.5; 6], &packed, &nodes(n), &cfg)
                    .expect("the engine build meters no BDD nodes")
            })
            .find(|(_, r)| r.budget_exhausted && r.chains_accepted > 0)
            .expect("a budget that runs out after a sealed chain");
        assert!(equivalent_exhaustive(&nl, &out));
        // The output is the last sealed chain: what an unlimited search
        // stopped after as many rounds returns.
        let sealed_cfg = RewriteConfig {
            max_rounds: report.chains_accepted,
            ..RewriteConfig::default()
        };
        let (sealed, sealed_report) =
            try_rewrite_sim(&nl, &[0.5; 6], &packed, &unlimited, &sealed_cfg)
                .expect("unlimited budget");
        assert!(!sealed_report.budget_exhausted);
        assert_eq!(
            netlist::blif::write_text(&out),
            netlist::blif::write_text(&sealed)
        );
        assert_eq!(
            report.cap_after.to_bits(),
            sealed_report.cap_after.to_bits()
        );
    }

    #[test]
    fn dontcare_gate_counts_what_a_collected_fresh_build_holds() {
        // Fanin-4 gates leave fold intermediates in a fresh build, and the
        // syncs below leave replaced functions behind; the gate counts
        // neither, whatever the GC mode.
        let config = netlist::gen::RandomDagConfig {
            inputs: 8,
            gates: 60,
            outputs: 4,
            max_fanin: 4,
            window: 12,
        };
        let nl = netlist::gen::random_dag(&config, 9);
        let packed = Stimulus::uniform(8).packed(64, 9);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let unlimited = ResourceBudget::unlimited();
        let mut store = ResidentBdds::try_build(&nl, false, &unlimited).expect("unlimited budget");
        let base = engine.checkpoint();
        for step in 0..8 {
            let current = engine.netlist().clone();
            let mut delta = Delta::for_netlist(&current);
            if step % 2 == 0 {
                // One of the search's own moves.
                let live = current.live_mask();
                let mut moves = Vec::new();
                resub_moves(&current, store.bdds(), &live, MOVES_PER_CLASS, &mut moves);
                pair_extract_moves(&current, &live, MOVES_PER_CLASS, &mut moves);
                kernel_moves(&current, &live, MOVES_PER_CLASS, &mut moves);
                delta = moves.swap_remove(step % moves.len()).delta;
            } else {
                // A function change: flip an AND-family gate to OR.
                let gate = current
                    .iter_nets()
                    .filter(|&n| matches!(current.kind(n), GateKind::And | GateKind::Nand))
                    .nth(step)
                    .expect("an AND-family gate");
                delta.set_gate(gate, GateKind::Or, current.fanins(gate));
            }
            engine.apply_delta(&delta);
            if step % 3 == 2 {
                engine.rollback_to(base);
            }
            store = store
                .try_sync(engine.netlist(), &unlimited)
                .expect("unlimited budget");
            let mut fresh = power::exact::try_circuit_bdds(engine.netlist(), &unlimited)
                .expect("unlimited budget");
            fresh.mgr.gc();
            let want = fresh.mgr.node_count();
            let bdds = store.bdds();
            assert_eq!(bdds.reachable_nodes(usize::MAX), want, "step {step}");
            assert_eq!(bdds.reachable_nodes(want), want, "step {step}");
            assert!(bdds.reachable_nodes(want - 1) > want - 1, "step {step}");
            assert_eq!(dontcare_class_fits(bdds), want <= DONTCARE_NODE_LIMIT);
        }
    }

    #[test]
    fn enumeration_builds_its_bdds_under_the_search_budget() {
        // The engine build meters no BDD nodes, so a node budget too small
        // for the circuit BDDs runs out in the first enumeration and the
        // search returns its input.
        let nl = duplicated_cones();
        let packed = Stimulus::uniform(3).packed(256, 7);
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(2);
        let cfg = RewriteConfig::default();
        let (out, report) =
            try_rewrite_sim(&nl, &[0.5; 3], &packed, &budget, &cfg).expect("the engine build fits");
        assert!(report.budget_exhausted);
        assert_eq!(report.chains_accepted, 0);
        assert_eq!(report.tried.total(), 0);
        assert_eq!(
            netlist::blif::write_text(&out),
            netlist::blif::write_text(&nl)
        );
    }
}
