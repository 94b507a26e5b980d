//! Incremental fanout-cone re-evaluation.
//!
//! The optimization passes of this workspace (path balancing, don't-care
//! rewriting, transistor sizing) are iterative-improvement loops: propose a
//! small structural edit, re-estimate power, accept or revert. Re-running a
//! full [`crate::comb::CombSim`] per candidate makes every pass
//! O(gates × candidates). [`IncrementalSim`] keeps the packed 64-wide
//! per-net words of the last full evaluation resident, applies a
//! [`Delta`], marks the structural fanout cone of the edit dirty, and
//! re-evaluates **only** dirtied nets in levelized order — with an early
//! cut-off wherever a re-evaluated net's words come out unchanged. Toggle
//! and one counts are updated by subtracting the old cone contribution and
//! adding the new one, never by recounting the stream.
//!
//! [`IncrementalSim::activity`] is **bit-identical** to `CombSim::activity`
//! on the same netlist and stimulus. When a delta dirties more than half
//! the netlist (or under `LPOPT_INCR_STRESS=1`), the engine falls back to
//! a full re-evaluation through the same code path — results are
//! identical either way, the fallback merely skips pointless cone
//! bookkeeping.
//!
//! [`IncrementalEventSim`] is the glitch-inclusive engine of the balance
//! sweeps. It keeps no words of its own: an apply edits its netlist in
//! place and runs one [`crate::event::EventSim`] over the result, so its
//! answer *is* `EventSim`'s; under uniform delays that run takes the
//! word-parallel dense kernel. A run the budget cuts short puts the
//! netlist back from a record of that one apply.
//!
//! [`IncrementalSim`] also keeps three values per net resident for the
//! live logic (the nets [`Netlist::sweep_dead`] keeps): how many live
//! sinks the net drives, their summed input-pin capacitance, and the
//! net's unit-size arrival time under the [`crate::sta`] delay model.
//! Reference counts keep the first two exact as edits kill and revive
//! cones: a net lives while it is a primary input, a primary output or a
//! fanin of a live net, and one that dies or comes alive moves one edge
//! off or onto each of its fanins. An apply then re-times only the nets
//! whose load or fanins moved, plus their fanout, in level order with a
//! bitwise-equal cut-off (the [`crate::sta::Retimer`] that
//! `circuit::sizing::StaCache` uses). Loads are sums of multiples of
//! 0.5 fF, exact in any order, and arrivals are a max plus an add, so
//! [`IncrementalSim::switched_cap_live`] and
//! [`IncrementalSim::critical_delay`] equal a from-scratch analysis of the
//! swept netlist bit for bit. Under `force_full` every net is re-timed.
//! Timing is not metered: the step budget charges re-evaluated words only.
//!
//! The functional engine journals applied deltas on a multi-slot **undo
//! stack** (one [`Journal`], the type `circuit::sizing::StaCache` uses
//! too): a search can take a [`Mark`] with [`IncrementalSim::checkpoint`],
//! speculatively apply a chain of deltas, score each state on the resident
//! engine, and either unwind to any live mark with
//! [`IncrementalSim::rollback_to`] (bit-identical to never having applied
//! the chain) or make the chain permanent with [`IncrementalSim::commit`].
//! An apply's frame holds the old value of every entry it changed: gate
//! structure, output slots, levels, words and counts, live references and
//! arrival times. Only frames above the oldest outstanding mark are kept,
//! so a caller that never checkpoints holds no journal at all and memory
//! stays constant. The event-driven engine has no undo stack: its callers
//! only build, apply and read.
//!
//! [`IncrementalSim::observability_mask`] asks the resident words which
//! patterns observe a node: it inverts the node's words in place,
//! propagates the inversion through the fanout cone with the same levelized
//! cut-off an apply uses, XORs the primary outputs against their saved
//! words, and restores every slot it wrote. It is a query, not a delta: no
//! journal frame, no `stats()` or counter change, and the engine is left
//! bit for bit as it was.
//!
//! Observability: every delta the functional engine applies publishes
//! `sim.incr.deltas`, `sim.incr.nets_dirtied`, `sim.incr.nets_reevaluated`,
//! `sim.incr.cutoffs`, and `sim.incr.full_evals`; the undo stack adds
//! `sim.incr.checkpoints`, `sim.incr.rollbacks`, and `sim.incr.commits`.
//! The event engine's `EventSim` runs publish the usual whole-netlist
//! `sim.event.*` counters and nothing else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};

use crate::event::{DelayModel, EventSim, TimingActivity};
use crate::profile::ActivityProfile;
use crate::sta::{self, Retimer};
use crate::stimulus::{PackedPatterns, PatternSet};
use crate::wide::{prefix_mask, LANES};

/// One structural edit inside a [`Delta`].
#[derive(Debug, Clone)]
pub enum DeltaOp {
    /// Replace the kind and fanins of an existing gate.
    SetGate {
        /// Target net (must not be a primary input).
        net: NetId,
        /// New gate function.
        kind: GateKind,
        /// New fanins.
        fanins: Vec<NetId>,
    },
    /// Append a new gate; its id is `base_len + gates added so far`.
    AddGate {
        /// Gate function.
        kind: GateKind,
        /// Fanins (may reference earlier `AddGate` results).
        fanins: Vec<NetId>,
    },
    /// Redirect every use of `old` (fanin or primary output) to `new`.
    ReplaceUses {
        /// Net being replaced.
        old: NetId,
        /// Replacement net.
        new: NetId,
    },
}

/// A batch of structural edits against a netlist of known size.
///
/// Built by a pass, applied atomically by an incremental engine (or to a
/// plain [`Netlist`] clone via [`Delta::apply_to`]); ids assigned by
/// [`Delta::add_gate`] are exactly the ids `Netlist::add_gate` will return
/// when the ops replay in order, so delta-built and directly-built
/// netlists are identical node for node.
#[derive(Debug, Clone)]
pub struct Delta {
    base_len: usize,
    added: usize,
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// Start an empty delta against the current size of `nl`.
    pub fn for_netlist(nl: &Netlist) -> Delta {
        Delta {
            base_len: nl.len(),
            added: 0,
            ops: Vec::new(),
        }
    }

    /// Netlist length this delta was built against.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of gates this delta appends.
    pub fn num_added(&self) -> usize {
        self.added
    }

    /// Whether the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Replace the function and fanins of an existing gate.
    pub fn set_gate(&mut self, net: NetId, kind: GateKind, fanins: &[NetId]) {
        assert!(net.index() < self.base_len, "set_gate target must exist");
        assert!(kind != GateKind::Input, "cannot rewrite a net into an input");
        self.ops.push(DeltaOp::SetGate {
            net,
            kind,
            fanins: fanins.to_vec(),
        });
    }

    /// Append a gate; returns the id it will occupy once applied.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[NetId]) -> NetId {
        let id = NetId::from_index(self.base_len + self.added);
        self.added += 1;
        self.ops.push(DeltaOp::AddGate {
            kind,
            fanins: fanins.to_vec(),
        });
        id
    }

    /// Redirect every use of `old` to `new`.
    pub fn replace_uses(&mut self, old: NetId, new: NetId) {
        if old != new {
            self.ops.push(DeltaOp::ReplaceUses { old, new });
        }
    }

    /// Apply the delta to a plain netlist (no incremental state).
    ///
    /// # Panics
    ///
    /// Panics if `nl` is not the size the delta was built against, or if an
    /// op violates the netlist's arity/range invariants.
    pub fn apply_to(&self, nl: &mut Netlist) {
        assert_eq!(nl.len(), self.base_len, "delta built against different netlist");
        for op in &self.ops {
            op.apply_to(nl);
        }
    }
}

impl DeltaOp {
    fn apply_to(&self, nl: &mut Netlist) {
        match self {
            DeltaOp::AddGate { kind, fanins } => {
                nl.add_gate(*kind, fanins);
            }
            DeltaOp::SetGate { net, kind, fanins } => set_gate_in(nl, *net, *kind, fanins),
            DeltaOp::ReplaceUses { old, new } => nl.replace_uses(*old, *new),
        }
    }
}

/// Order `set_kind`/`set_fanins` so the netlist's per-call arity asserts
/// hold for any legal (kind, fanins) pair.
fn set_gate_in(nl: &mut Netlist, net: NetId, kind: GateKind, fanins: &[NetId]) {
    if nl.kind(net) == kind {
        nl.set_fanins(net, fanins);
    } else if kind.arity_ok(nl.fanins(net).len()) {
        nl.set_kind(net, kind);
        nl.set_fanins(net, fanins);
    } else {
        nl.set_fanins(net, fanins);
        nl.set_kind(net, kind);
    }
}

/// What one [`IncrementalSim::apply_delta`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyInfo {
    /// Nets in the structural fanout cone of the edit.
    pub dirtied: usize,
    /// Nets actually re-evaluated.
    pub reevaluated: usize,
    /// Re-evaluations whose words came out unchanged (propagation stopped).
    pub cutoffs: usize,
    /// Whether the full-eval fallback path ran.
    pub full_eval: bool,
    /// Unit-size arrival times recomputed.
    pub retimed: usize,
}

/// Cumulative counters mirroring the `sim.incr.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Deltas applied (successful `apply_delta` calls).
    pub deltas: u64,
    /// Total nets marked dirty across all deltas.
    pub nets_dirtied: u64,
    /// Total nets re-evaluated.
    pub nets_reevaluated: u64,
    /// Total early cut-offs (re-evaluated, words unchanged).
    pub cutoffs: u64,
    /// Deltas that took the full re-evaluation fallback.
    pub full_evals: u64,
    /// Checkpoints taken ([`IncrementalSim::checkpoint`]).
    pub checkpoints: u64,
    /// Rollbacks performed (`rollback_to` calls that unwound).
    pub rollbacks: u64,
    /// Commits performed (`commit` calls that raised the floor).
    pub commits: u64,
    /// Unit-size arrival times recomputed across all deltas (kept out of
    /// the obs counters, which the golden transcripts pin).
    pub arrivals_retimed: u64,
}

/// A position in an engine's undo stack, minted by `checkpoint()`.
///
/// Marks are absolute (the number of applies recorded when the checkpoint
/// was taken) and totally ordered: a later checkpoint compares greater.
/// A mark stays valid until a `commit` at or above it raises the
/// journal floor past it, or — for marks released by a rollback/commit —
/// until a later apply trims the journal past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mark(u64);

/// The undo-stack policy of every incremental engine: one frame per apply
/// above the committed floor, kept only while an outstanding [`Mark`] can
/// still reach it.
///
/// An engine builds a frame per apply (whatever inverts that apply) and
/// records it with [`Journal::push`]; [`Journal::rollback_to`] hands the
/// frames above a mark back, newest first, for the engine to undo. A
/// journal nobody checkpoints holds no frames at all.
#[derive(Debug)]
pub struct Journal<F> {
    /// Frames for applies in `(floor, applied]`, oldest first.
    frames: Vec<F>,
    /// Applies recorded over the journal's lifetime (monotone).
    applied: u64,
    /// Committed floor: applies at or below it can no longer be unwound.
    floor: u64,
    /// Outstanding checkpoint marks (nondecreasing). The oldest entry
    /// pins the trim: frames above it survive new applies.
    marks: Vec<u64>,
}

// Written out because `#[derive(Default)]` would require `F: Default`.
impl<F> Default for Journal<F> {
    fn default() -> Journal<F> {
        Journal {
            frames: Vec::new(),
            applied: 0,
            floor: 0,
            marks: Vec::new(),
        }
    }
}

impl<F> Journal<F> {
    /// Record one apply's frame, then drop every frame no outstanding mark
    /// can reach: all frames at or below the oldest mark, or all of them
    /// when no mark is outstanding.
    pub fn push(&mut self, frame: F) {
        self.frames.push(frame);
        self.applied += 1;
        let keep_from = self.marks.first().copied().unwrap_or(self.applied);
        if keep_from > self.floor {
            self.frames.drain(..(keep_from - self.floor) as usize);
            self.floor = keep_from;
        }
    }

    /// Mark the current state. While the mark is outstanding, every frame
    /// above it is retained, so a chain of applies can be unwound to any
    /// mark between the checkpoint and the present.
    pub fn checkpoint(&mut self) -> Mark {
        self.marks.push(self.applied);
        Mark(self.applied)
    }

    /// Hand every frame above `mark` to `undo`, newest first.
    ///
    /// Returns false (and changes nothing) if a commit has passed the
    /// mark — rollback past the committed floor is rejected, never
    /// partially applied. The mark itself stays live: the same mark can be
    /// rolled back to repeatedly, but marks *above* it are released.
    pub fn rollback_to(&mut self, mark: Mark, undo: impl FnMut(F)) -> bool {
        if !self.is_live(mark) {
            return false;
        }
        self.frames
            .drain((mark.0 - self.floor) as usize..)
            .rev()
            .for_each(undo);
        self.applied = mark.0;
        while self.marks.last().is_some_and(|&m| m > mark.0) {
            self.marks.pop();
        }
        true
    }

    /// Make every apply at or below `mark` permanent: its frames are
    /// dropped, the floor rises to the mark, and every outstanding mark at
    /// or below it is released. Returns false (and changes nothing) if the
    /// mark is already below the floor.
    pub fn commit(&mut self, mark: Mark) -> bool {
        if !self.is_live(mark) {
            return false;
        }
        self.frames.drain(..(mark.0 - self.floor) as usize);
        self.floor = mark.0;
        self.marks.retain(|&m| m > mark.0);
        true
    }

    /// Number of frames currently held (applies above the floor).
    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether `mark` lies between the committed floor and the present.
    fn is_live(&self, mark: Mark) -> bool {
        self.floor <= mark.0 && mark.0 <= self.applied
    }
}

/// Undo frame for one applied delta (the inverse of that apply).
#[derive(Debug, Default)]
struct Undo {
    prev_len: usize,
    /// `(output slot, old net)` for outputs rewired by `ReplaceUses`.
    outputs: Vec<(usize, NetId)>,
    /// `(net, old kind, old fanins)` for rewired existing nets.
    structure: Vec<(NetId, GateKind, Vec<NetId>)>,
    /// `(net, old level)` for existing nets whose level changed.
    levels: Vec<(NetId, u32)>,
    /// `(net, old words, old toggles, old ones)` for re-counted nets.
    words: Vec<(NetId, Vec<u64>, u64, u64)>,
    /// `(net, old references)` per change, oldest first (a net may repeat).
    refs: Vec<(NetId, Refs)>,
    /// `(net, old arrival)` for every re-timed arrival that moved.
    arrivals: Vec<(NetId, f64)>,
}

/// What keeps a net live and the load its live sinks put on it.
#[derive(Debug, Clone, Copy, Default)]
struct Refs {
    /// Fanin edges from live nets (one per edge, so a sink reading the net
    /// twice counts twice).
    sinks: u32,
    /// Primary-output slots reading the net.
    outs: u32,
    /// Summed input-pin capacitance of the `sinks` edges.
    pins: f64,
}

impl Refs {
    /// One fanin edge into a live sink of `kind`.
    fn edge(kind: GateKind) -> Refs {
        Refs {
            sinks: 1,
            outs: 0,
            pins: kind.input_cap(),
        }
    }
}

/// Unit-size arrival of net `idx` from its fanins' `arrival`s and its live
/// load in `refs`.
fn unit_arrival(nl: &Netlist, refs: &[Refs], idx: usize, arrival: &[f64]) -> f64 {
    let net = NetId::from_index(idx);
    let fanins = nl.fanins(net);
    let Refs { sinks, pins, .. } = refs[idx];
    let delay = sta::gate_delay(nl.kind(net), fanins.len(), 1.0, sinks as usize, pins);
    sta::arrival_at(fanins, arrival, delay)
}

/// Incremental zero-delay (functional) engine.
///
/// Owns a netlist clone plus the packed per-net words, integer toggle/one
/// counts, levels, fanout lists, live loads and unit-size arrival times of
/// the last evaluation, and keeps all of them consistent under
/// [`IncrementalSim::apply_delta`] / [`IncrementalSim::rollback_to`].
#[derive(Debug)]
pub struct IncrementalSim {
    nl: Netlist,
    cycles: usize,
    nblocks: usize,
    /// Words per net: `nblocks` rounded up to whole [`LANES`]-block groups.
    stride: usize,
    /// Net-major packed values: `words[net * stride + block]`, masked to
    /// the stream length (padding blocks stay zero). Each net's blocks are
    /// contiguous, so every group of [`LANES`] blocks is a ready-made wide
    /// word with no gather.
    words: Vec<u64>,
    toggles: Vec<u64>,
    ones: Vec<u64>,
    levels: Vec<u32>,
    fanouts: Vec<Vec<NetId>>,
    refs: Vec<Refs>,
    /// Unit-size arrival time per net.
    arrival: Vec<f64>,
    force_full: bool,
    obs: obs::Obs,
    stats: IncrStats,
    journal: Journal<Undo>,
    // Per-apply scratch: the edited nets and their structural fanout cone.
    cone: Vec<NetId>,
    touched: Vec<NetId>,
    // Epoch-stamped scratch (no per-delta clearing).
    epoch: u64,
    cone_stamp: Vec<u64>,
    queued_stamp: Vec<u64>,
    struct_stamp: Vec<u64>,
    lvl_done: Vec<u64>,
    lvl_onstack: Vec<u64>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    ins: Vec<u64>,
    new_words: Vec<u64>,
    retimer: Retimer,
    ref_stack: Vec<(NetId, Refs)>,
}

/// Whether `LPOPT_INCR_STRESS` is set (to anything but `0`): the default
/// `force_full` of every [`IncrementalSim`] and `circuit::sizing::StaCache`
/// built while it is.
pub fn stress_env() -> bool {
    std::env::var_os("LPOPT_INCR_STRESS").is_some_and(|v| v != "0")
}

/// Evaluate `kind` over the group of [`LANES`] blocks starting at block
/// `b` (`ins` holds its fanins' words lane-grouped), with every bit at or
/// past `cycles` cleared.
fn eval_group(kind: GateKind, ins: &[u64], b: usize, cycles: usize) -> [u64; LANES] {
    let mut out = kind.eval_wide::<LANES>(ins);
    if 64 * (b + LANES) > cycles {
        let valid = prefix_mask::<LANES>(cycles - 64 * b);
        for l in 0..LANES {
            out[l] &= valid[l];
        }
    }
    out
}

fn remove_one(list: &mut Vec<NetId>, x: NetId) {
    let pos = list
        .iter()
        .position(|&y| y == x)
        .expect("fanout edge must be present");
    list.swap_remove(pos);
}

impl IncrementalSim {
    /// Build from a full evaluation of `nl` over `packed` (unlimited
    /// budget, no obs).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential/cyclic or the stimulus width
    /// does not match.
    pub fn from_full_eval(nl: &Netlist, packed: &PackedPatterns) -> IncrementalSim {
        match Self::try_from_full_eval(nl, packed, &ResourceBudget::unlimited(), obs::Obs::disabled())
        {
            Ok(sim) => sim,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`IncrementalSim::from_full_eval`] under a budget, with an obs
    /// handle. The initial full evaluation publishes the same
    /// `sim.comb.cycles` / `sim.comb.gate_evals` counters a
    /// [`crate::comb::CombSim`] run would.
    pub fn try_from_full_eval(
        nl: &Netlist,
        packed: &PackedPatterns,
        budget: &ResourceBudget,
        obs: obs::Obs,
    ) -> Result<IncrementalSim, BudgetExceeded> {
        assert!(nl.is_combinational(), "incremental engine requires combinational netlist");
        assert_eq!(packed.width(), nl.num_inputs(), "stimulus width");
        let topo = nl.topology().expect("netlist must be acyclic");
        let n = nl.len();
        let cycles = packed.cycles();
        let nblocks = packed.num_blocks();
        let stride = nblocks.next_multiple_of(LANES);
        budget.check_sim_steps(cycles as u64 * n.max(1) as u64)?;
        budget.check_deadline()?;
        let mut words = vec![0u64; n * stride];
        for (i, &pi) in nl.inputs().iter().enumerate() {
            for b in 0..nblocks {
                words[pi.index() * stride + b] = packed.word(i, b);
            }
        }
        let mut ins = Vec::new();
        for (step, &net) in topo.order().iter().enumerate() {
            if step & 0xF == 0 {
                budget.check_deadline()?;
            }
            let kind = nl.kind(net);
            if kind == GateKind::Input {
                continue;
            }
            for b in (0..stride).step_by(LANES) {
                ins.clear();
                for &f in nl.fanins(net) {
                    ins.extend_from_slice(&words[f.index() * stride + b..][..LANES]);
                }
                let out = eval_group(kind, &ins, b, cycles);
                words[net.index() * stride + b..][..LANES].copy_from_slice(&out);
            }
        }
        let mut toggles = vec![0u64; n];
        let mut ones = vec![0u64; n];
        for i in 0..n {
            let (t, o) = count_words(&words[i * stride..][..nblocks], cycles);
            toggles[i] = t;
            ones[i] = o;
        }
        let live = nl.live_mask();
        let mut refs = vec![Refs::default(); n];
        for (net, _) in nl.outputs() {
            refs[net.index()].outs += 1;
        }
        for net in nl.iter_nets().filter(|net| live[net.index()]) {
            let pin = nl.kind(net).input_cap();
            for &f in nl.fanins(net) {
                refs[f.index()].sinks += 1;
                refs[f.index()].pins += pin;
            }
        }
        let mut arrival = vec![0.0; n];
        for &net in topo.order() {
            arrival[net.index()] = unit_arrival(nl, &refs, net.index(), &arrival);
        }
        if obs.is_enabled() {
            obs.add("sim.comb.cycles", cycles as u64);
            let evaluated = n - nl.num_inputs();
            obs.add("sim.comb.gate_evals", nblocks as u64 * evaluated as u64);
        }
        Ok(IncrementalSim {
            fanouts: nl.iter_nets().map(|net| topo.fanouts(net).to_vec()).collect(),
            refs,
            arrival,
            nl: nl.clone(),
            cycles,
            nblocks,
            stride,
            words,
            toggles,
            ones,
            levels: topo.levels().to_vec(),
            force_full: stress_env(),
            obs,
            stats: IncrStats::default(),
            journal: Journal::default(),
            cone: Vec::new(),
            touched: Vec::new(),
            epoch: 0,
            cone_stamp: vec![0; n],
            queued_stamp: vec![0; n],
            struct_stamp: vec![0; n],
            lvl_done: vec![0; n],
            lvl_onstack: vec![0; n],
            heap: BinaryHeap::new(),
            ins: Vec::new(),
            new_words: vec![0; stride],
            retimer: Retimer::default(),
            ref_stack: Vec::new(),
        })
    }

    /// The engine's current netlist (base netlist plus all applied deltas).
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Cumulative incremental-evaluation statistics.
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Force the full re-evaluation fallback on every delta (also enabled
    /// by `LPOPT_INCR_STRESS=1`). Results are bit-identical either way;
    /// this exists for stress tests and A/B timing.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// Whether every delta takes the full re-evaluation fallback (see
    /// [`IncrementalSim::set_force_full`]).
    pub fn force_full(&self) -> bool {
        self.force_full
    }

    /// Apply a delta (unlimited budget).
    ///
    /// # Panics
    ///
    /// Panics if the delta creates a combinational cycle or violates
    /// netlist invariants.
    pub fn apply_delta(&mut self, delta: &Delta) -> ApplyInfo {
        match self.try_apply_delta(delta, &ResourceBudget::unlimited()) {
            Ok(info) => info,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// Apply a delta under a budget: edit the netlist, re-evaluate the
    /// dirty nets, journal the frame that undoes the apply, and count it
    /// in `stats()` and the obs counters. Each re-evaluated net is metered
    /// as `cycles` simulation steps (the unit the full engines use),
    /// checked every 16 nets along with the deadline. On exhaustion the
    /// partial apply is rolled back and the engine is exactly as before
    /// the call, with no trace in the journal, `stats()` or the counters.
    pub fn try_apply_delta(
        &mut self,
        delta: &Delta,
        budget: &ResourceBudget,
    ) -> Result<ApplyInfo, BudgetExceeded> {
        assert_eq!(
            delta.base_len,
            self.nl.len(),
            "delta built against a different netlist size"
        );
        let prev_len = self.nl.len();
        let new_len = prev_len + delta.added;
        self.epoch += 1;
        self.grow_scratch(new_len);
        let mut undo = Undo {
            prev_len,
            ..Undo::default()
        };
        self.touched.clear();

        // Phase 1: structural application (cheap; no evaluation).
        for op in &delta.ops {
            match op {
                DeltaOp::AddGate { kind, fanins } => {
                    let id = self.nl.add_gate(*kind, fanins);
                    self.fanouts.push(Vec::new());
                    for &f in fanins {
                        self.fanouts[f.index()].push(id);
                    }
                    self.levels.push(0);
                    self.refs.push(Refs::default());
                    self.arrival.push(0.0);
                    self.words.extend(std::iter::repeat_n(0, self.stride));
                    self.toggles.push(0);
                    self.ones.push(0);
                    self.touched.push(id);
                }
                DeltaOp::SetGate { net, kind, fanins } => {
                    assert!(
                        self.nl.kind(*net) != GateKind::Input,
                        "cannot rewrite primary input {net}"
                    );
                    self.journal_structure(&mut undo, *net);
                    let old_kind = self.nl.kind(*net);
                    let old_fanins = self.nl.fanins(*net).to_vec();
                    for &f in &old_fanins {
                        remove_one(&mut self.fanouts[f.index()], *net);
                    }
                    set_gate_in(&mut self.nl, *net, *kind, fanins);
                    for &f in fanins {
                        self.fanouts[f.index()].push(*net);
                    }
                    // A live gate's fanin edges are live. The new edges go
                    // on first, so a fanin it keeps never dies in between.
                    if self.is_live(*net) {
                        for &f in fanins {
                            self.shift_refs(&mut undo, f, Refs::edge(*kind), true);
                        }
                        for &f in &old_fanins {
                            self.shift_refs(&mut undo, f, Refs::edge(old_kind), false);
                        }
                    }
                    self.touched.push(*net);
                }
                DeltaOp::ReplaceUses { old, new } => {
                    assert!(new.index() < self.nl.len(), "replacement {new} out of range");
                    for (idx, (net, _)) in self.nl.outputs().iter().enumerate() {
                        if net == old {
                            undo.outputs.push((idx, *old));
                        }
                    }
                    let users = std::mem::take(&mut self.fanouts[old.index()]);
                    for &user in &users {
                        self.journal_structure(&mut undo, user);
                    }
                    // Each entry in `users` is one fanin edge user -> old;
                    // all of them move to `new`.
                    for &user in &users {
                        if self.cone_stamp[user.index()] != self.epoch {
                            self.cone_stamp[user.index()] = self.epoch;
                            self.touched.push(user);
                        }
                    }
                    self.fanouts[new.index()].extend(users);
                    self.nl.replace_uses(*old, *new);
                    // Every live reference to `old` now reads `new`.
                    let moved = self.refs[old.index()];
                    self.shift_refs(&mut undo, *new, moved, true);
                    self.shift_refs(&mut undo, *old, moved, false);
                }
            }
        }
        // `touched` dedup above borrowed cone_stamp; restart the epoch use
        // for the cone BFS proper.
        self.epoch += 1;

        // Phase 2: structural fanout cone of the edit.
        self.cone.clear();
        for i in 0..self.touched.len() {
            let t = self.touched[i];
            if self.cone_stamp[t.index()] != self.epoch {
                self.cone_stamp[t.index()] = self.epoch;
                self.cone.push(t);
            }
        }
        let mut head = 0;
        while head < self.cone.len() {
            let net = self.cone[head];
            head += 1;
            for fi in 0..self.fanouts[net.index()].len() {
                let sink = self.fanouts[net.index()][fi];
                if self.cone_stamp[sink.index()] != self.epoch {
                    self.cone_stamp[sink.index()] = self.epoch;
                    self.cone.push(sink);
                }
            }
        }
        let full = self.force_full || self.cone.len() * 2 > self.nl.len();

        // Phase 3: recompute levels (full Kahn pass in fallback mode, a
        // memoized DFS over the cone otherwise; both journal changes and
        // detect delta-created cycles).
        if full {
            let fresh = self
                .nl
                .levels()
                .unwrap_or_else(|e| panic!("delta created a combinational cycle: {e}"));
            for (i, l) in fresh.into_iter().enumerate() {
                let l = l as u32;
                if self.levels[i] != l {
                    if i < prev_len {
                        undo.levels.push((NetId::from_index(i), self.levels[i]));
                    }
                    self.levels[i] = l;
                }
            }
        } else {
            self.recompute_cone_levels(&mut undo);
        }

        // Phase 4: levelized re-evaluation with early cut-off.
        self.heap.clear();
        if full {
            for i in 0..self.nl.len() {
                if self.nl.kind(NetId::from_index(i)) != GateKind::Input {
                    self.queued_stamp[i] = self.epoch;
                    self.heap.push(Reverse((self.levels[i], i as u32)));
                }
            }
        } else {
            for i in 0..self.touched.len() {
                let t = self.touched[i];
                if self.queued_stamp[t.index()] != self.epoch {
                    self.queued_stamp[t.index()] = self.epoch;
                    self.heap.push(Reverse((self.levels[t.index()], t.index() as u32)));
                }
            }
        }
        let evaluated = self.propagate(budget, |sim, idx| {
            let slot = &mut sim.words[idx * sim.stride..(idx + 1) * sim.stride];
            if idx < prev_len {
                undo.words.push((
                    NetId::from_index(idx),
                    slot.to_vec(),
                    sim.toggles[idx],
                    sim.ones[idx],
                ));
            }
            slot.copy_from_slice(&sim.new_words);
            let (t, o) = count_words(&sim.words[idx * sim.stride..][..sim.nblocks], sim.cycles);
            sim.toggles[idx] = t;
            sim.ones[idx] = o;
        });
        let (reevaluated, cutoffs) = match evaluated {
            Ok(counts) => counts,
            Err(e) => {
                self.undo_frame(undo);
                return Err(e);
            }
        };

        let retimed = self.retime(&mut undo);
        let dirtied = if full {
            self.nl.len() - self.nl.num_inputs()
        } else {
            self.cone.len()
        };
        self.journal.push(undo);
        self.stats.deltas += 1;
        self.stats.nets_dirtied += dirtied as u64;
        self.stats.nets_reevaluated += reevaluated as u64;
        self.stats.cutoffs += cutoffs as u64;
        self.stats.full_evals += full as u64;
        self.stats.arrivals_retimed += retimed as u64;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.deltas", 1);
            self.obs.add("sim.incr.nets_dirtied", dirtied as u64);
            self.obs
                .add("sim.incr.nets_reevaluated", reevaluated as u64);
            self.obs.add("sim.incr.cutoffs", cutoffs as u64);
            self.obs.add("sim.incr.full_evals", full as u64);
        }
        Ok(ApplyInfo {
            dirtied,
            reevaluated,
            cutoffs,
            full_eval: full,
            retimed,
        })
    }

    /// Phase 5 of an apply: re-time the nets whose fanins moved (the
    /// touched nets) or whose load moved (the nets `undo` journaled
    /// references for), then their fanout while arrivals keep moving, in
    /// level order; every net under `force_full`. Journals each moved
    /// arrival of an existing net and returns the arrivals recomputed.
    fn retime(&mut self, undo: &mut Undo) -> usize {
        let IncrementalSim {
            nl,
            levels,
            fanouts,
            refs,
            arrival,
            touched,
            retimer,
            ..
        } = self;
        retimer.start(nl.len());
        let mut seed = |net: NetId| {
            if !nl.kind(net).is_source() {
                retimer.enqueue(net.index(), levels[net.index()]);
            }
        };
        if self.force_full {
            nl.iter_nets().for_each(&mut seed);
        } else {
            touched.iter().copied().for_each(&mut seed);
            undo.refs.iter().for_each(|&(net, _)| seed(net));
        }
        let prev_len = undo.prev_len;
        let retimed = retimer.run(
            arrival,
            levels,
            |idx| fanouts[idx].as_slice(),
            |idx, arrival| unit_arrival(nl, refs, idx, arrival),
            |idx, old| {
                if idx < prev_len {
                    undo.arrivals.push((NetId::from_index(idx), old));
                }
            },
        );
        retimed as usize
    }

    /// Whether a sweep keeps `net`: a primary input, a primary output, or
    /// a fanin of a live net.
    fn is_live(&self, net: NetId) -> bool {
        let r = self.refs[net.index()];
        r.sinks > 0 || r.outs > 0 || self.nl.kind(net) == GateKind::Input
    }

    /// Add `by` to `net`'s references (take it off when `add` is false),
    /// journaling each old entry. A net that comes alive or dies puts one
    /// edge onto or takes one off each of its fanins in turn.
    fn shift_refs(&mut self, undo: &mut Undo, net: NetId, by: Refs, add: bool) {
        let mut stack = std::mem::take(&mut self.ref_stack);
        stack.push((net, by));
        while let Some((net, by)) = stack.pop() {
            let was_live = self.is_live(net);
            let r = &mut self.refs[net.index()];
            if net.index() < undo.prev_len {
                undo.refs.push((net, *r));
            }
            if add {
                r.sinks += by.sinks;
                r.outs += by.outs;
                r.pins += by.pins;
            } else {
                r.sinks -= by.sinks;
                r.outs -= by.outs;
                r.pins -= by.pins;
            }
            if self.is_live(net) != was_live {
                let edge = Refs::edge(self.nl.kind(net));
                stack.extend(self.nl.fanins(net).iter().map(|&f| (f, edge)));
            }
        }
        self.ref_stack = stack;
    }

    /// Levelized evaluation with early cut-off, shared by an apply's phase
    /// 4 and [`IncrementalSim::observability_mask`]: pop the queued nets in
    /// level order, evaluate each from its fanins' words into `new_words`,
    /// and stop wherever the result equals the resident words. Every net
    /// whose words changed goes to `store`, which must write `new_words`
    /// into its slot, then its fanouts are queued. Each evaluation is
    /// metered as `cycles` simulation steps, checked with the deadline
    /// every 16 nets. Returns the nets evaluated and the cut-offs among
    /// them.
    fn propagate(
        &mut self,
        budget: &ResourceBudget,
        mut store: impl FnMut(&mut Self, usize),
    ) -> Result<(usize, usize), BudgetExceeded> {
        let max_steps = budget.max_sim_steps_or(u64::MAX);
        let mut tally = 0u64;
        let mut reevaluated = 0usize;
        let mut cutoffs = 0usize;
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let idx = raw as usize;
            tally += self.cycles as u64;
            if reevaluated & 0xF == 0 {
                if tally >= max_steps {
                    return Err(budget.sim_steps_exceeded(tally));
                }
                budget.check_deadline()?;
            }
            reevaluated += 1;
            let net = NetId::from_index(idx);
            let kind = self.nl.kind(net);
            let mut changed = false;
            for b in (0..self.stride).step_by(LANES) {
                self.ins.clear();
                for &f in self.nl.fanins(net) {
                    self.ins
                        .extend_from_slice(&self.words[f.index() * self.stride + b..][..LANES]);
                }
                let out = eval_group(kind, &self.ins, b, self.cycles);
                self.new_words[b..b + LANES].copy_from_slice(&out);
                // Wide word-equality early cut-off: all lanes at once.
                changed |= out.as_slice() != &self.words[idx * self.stride + b..][..LANES];
            }
            if !changed {
                cutoffs += 1;
                continue;
            }
            store(self, idx);
            self.queue_fanouts(idx);
        }
        Ok((reevaluated, cutoffs))
    }

    /// Queue every fanout of net `idx` not yet queued this epoch.
    fn queue_fanouts(&mut self, idx: usize) {
        for fi in 0..self.fanouts[idx].len() {
            let sink = self.fanouts[idx][fi];
            if self.queued_stamp[sink.index()] != self.epoch {
                self.queued_stamp[sink.index()] = self.epoch;
                self.heap
                    .push(Reverse((self.levels[sink.index()], sink.index() as u32)));
            }
        }
    }

    /// Which patterns of the resident stimulus observe `node`: one word per
    /// stimulus block, where bit `k` of word `b` is set when inverting
    /// `node`'s output at cycle `64 b + k` flips at least one primary
    /// output.
    ///
    /// A read-only query: the node's words are inverted in place and the
    /// inversion propagates through the fanout cone in level order, cut
    /// off wherever a net comes out as it is resident. Every overwritten
    /// slot is saved first and restored before returning, on exhaustion
    /// too, so the words, counts, netlist, journal, `stats()` and obs
    /// counters are left exactly as they were; the scratch it needs grows
    /// with the cone, not the netlist. Each evaluated net is metered as
    /// `cycles` simulation steps, checked with the deadline every 16 nets,
    /// as an apply meters.
    pub fn observability_mask(
        &mut self,
        node: NetId,
        budget: &ResourceBudget,
    ) -> Result<Vec<u64>, BudgetExceeded> {
        assert!(node.index() < self.nl.len(), "node {node} out of range");
        self.epoch += 1;
        // The primary outputs, stamped in the epoch-scoped cone scratch.
        for (out, _) in self.nl.outputs() {
            self.cone_stamp[out.index()] = self.epoch;
        }
        let mut mask = vec![0u64; self.nblocks];
        // Overwritten nets and their resident words, `stride` per net.
        let mut saved_nets = Vec::new();
        let mut saved_words = Vec::new();
        let mut store = |sim: &mut Self, idx: usize| {
            let slot = &mut sim.words[idx * sim.stride..(idx + 1) * sim.stride];
            saved_nets.push(idx);
            saved_words.extend_from_slice(slot);
            if sim.cone_stamp[idx] == sim.epoch {
                for ((m, &old), &new) in mask.iter_mut().zip(&*slot).zip(&sim.new_words) {
                    *m |= old ^ new;
                }
            }
            slot.copy_from_slice(&sim.new_words);
        };
        // An inverter over the node's words: masked to the stream length,
        // so padding bits stay zero.
        let base = node.index() * self.stride;
        for b in (0..self.stride).step_by(LANES) {
            let resident = &self.words[base + b..][..LANES];
            let flipped = eval_group(GateKind::Not, resident, b, self.cycles);
            self.new_words[b..b + LANES].copy_from_slice(&flipped);
        }
        store(self, node.index());
        self.heap.clear();
        self.queue_fanouts(node.index());
        let evaluated = self.propagate(budget, &mut store);
        for (i, &idx) in saved_nets.iter().enumerate() {
            self.words[idx * self.stride..(idx + 1) * self.stride]
                .copy_from_slice(&saved_words[i * self.stride..(i + 1) * self.stride]);
        }
        evaluated.map(|_| mask)
    }

    /// The resident packed words of `net`: one per 64-cycle block, masked
    /// to the stream length.
    pub fn net_words(&self, net: NetId) -> &[u64] {
        &self.words[net.index() * self.stride..][..self.nblocks]
    }

    fn grow_scratch(&mut self, n: usize) {
        self.cone_stamp.resize(n, 0);
        self.queued_stamp.resize(n, 0);
        self.struct_stamp.resize(n, 0);
        self.lvl_done.resize(n, 0);
        self.lvl_onstack.resize(n, 0);
    }

    fn journal_structure(&mut self, undo: &mut Undo, net: NetId) {
        if net.index() >= undo.prev_len {
            return; // appended this delta; truncation reverts it
        }
        if self.struct_stamp[net.index()] == self.epoch {
            return;
        }
        self.struct_stamp[net.index()] = self.epoch;
        undo.structure
            .push((net, self.nl.kind(net), self.nl.fanins(net).to_vec()));
    }

    /// Recompute levels of every cone member via iterative DFS; fanins
    /// outside the cone keep their (still valid) stored levels. Detects
    /// delta-created cycles (any new cycle passes through the cone).
    fn recompute_cone_levels(&mut self, undo: &mut Undo) {
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for ci in 0..self.cone.len() {
            let root = self.cone[ci];
            if self.lvl_done[root.index()] == self.epoch {
                continue;
            }
            self.lvl_onstack[root.index()] = self.epoch;
            stack.push((root.index() as u32, 0));
            while let Some(top) = stack.last_mut() {
                let idx = top.0 as usize;
                let net = NetId::from_index(idx);
                let fanins = self.nl.fanins(net);
                if top.1 < fanins.len() {
                    let child = fanins[top.1];
                    top.1 += 1;
                    if self.cone_stamp[child.index()] == self.epoch
                        && self.lvl_done[child.index()] != self.epoch
                    {
                        assert!(
                            self.lvl_onstack[child.index()] != self.epoch,
                            "delta created a combinational cycle through {child}"
                        );
                        self.lvl_onstack[child.index()] = self.epoch;
                        stack.push((child.index() as u32, 0));
                    }
                } else {
                    let kind = self.nl.kind(net);
                    let lvl = if kind.is_source() {
                        0
                    } else {
                        fanins
                            .iter()
                            .map(|f| self.levels[f.index()] + 1)
                            .max()
                            .unwrap_or(0)
                    };
                    if self.levels[idx] != lvl {
                        if idx < undo.prev_len {
                            undo.levels.push((net, self.levels[idx]));
                        }
                        self.levels[idx] = lvl;
                    }
                    self.lvl_done[idx] = self.epoch;
                    stack.pop();
                }
            }
        }
    }

    /// Mark the current state for a later `rollback_to` or
    /// [`IncrementalSim::commit`]; see [`Journal::checkpoint`].
    pub fn checkpoint(&mut self) -> Mark {
        self.stats.checkpoints += 1;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.checkpoints", 1);
        }
        self.journal.checkpoint()
    }

    /// Unwind every delta applied after `mark`, restoring the engine
    /// bit-identically to its state when the checkpoint was taken.
    ///
    /// Returns false (and changes nothing) if the mark has been passed by
    /// a [`IncrementalSim::commit`]; see [`Journal::rollback_to`].
    pub fn rollback_to(&mut self, mark: Mark) -> bool {
        let mut journal = std::mem::take(&mut self.journal);
        let live = journal.rollback_to(mark, |undo| self.undo_frame(undo));
        self.journal = journal;
        if live {
            self.stats.rollbacks += 1;
            if self.obs.is_enabled() {
                self.obs.add("sim.incr.rollbacks", 1);
            }
        }
        live
    }

    /// Make every delta at or below `mark` permanent; see
    /// [`Journal::commit`].
    pub fn commit(&mut self, mark: Mark) -> bool {
        if !self.journal.commit(mark) {
            return false;
        }
        self.stats.commits += 1;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.commits", 1);
        }
        true
    }

    /// Number of journal frames currently held (applies above the floor).
    pub fn pending_frames(&self) -> usize {
        self.journal.len()
    }

    /// Restore the state journaled in one frame (the inverse of the apply
    /// that produced it; frames must be undone LIFO).
    fn undo_frame(&mut self, undo: Undo) {
        let prev_len = undo.prev_len;
        for (net, old_words, t, o) in undo.words {
            let idx = net.index();
            self.words[idx * self.stride..(idx + 1) * self.stride].copy_from_slice(&old_words);
            self.toggles[idx] = t;
            self.ones[idx] = o;
        }
        for (net, kind, fanins) in undo.structure {
            for &f in self.nl.fanins(net).to_vec().iter() {
                remove_one(&mut self.fanouts[f.index()], net);
            }
            set_gate_in(&mut self.nl, net, kind, &fanins);
            for &f in &fanins {
                self.fanouts[f.index()].push(net);
            }
        }
        // Reverse order: a chained `ReplaceUses` (x→y, then y→z) journals
        // the same slot twice ((idx,x) then (idx,y)); the oldest snapshot
        // must be the one that sticks.
        for (idx, net) in undo.outputs.into_iter().rev() {
            self.nl.set_output_net(idx, net);
        }
        for (net, lvl) in undo.levels {
            self.levels[net.index()] = lvl;
        }
        for (net, refs) in undo.refs.into_iter().rev() {
            self.refs[net.index()] = refs;
        }
        for (net, a) in undo.arrivals {
            self.arrival[net.index()] = a;
        }
        // Drop appended nets: first detach their fanin edges, then truncate
        // every parallel array back to the journal point.
        for idx in prev_len..self.nl.len() {
            let net = NetId::from_index(idx);
            for &f in self.nl.fanins(net).to_vec().iter() {
                if f.index() < prev_len {
                    remove_one(&mut self.fanouts[f.index()], net);
                }
            }
        }
        self.nl.truncate(prev_len);
        self.fanouts.truncate(prev_len);
        self.levels.truncate(prev_len);
        self.refs.truncate(prev_len);
        self.arrival.truncate(prev_len);
        self.toggles.truncate(prev_len);
        self.ones.truncate(prev_len);
        self.words.truncate(prev_len * self.stride);
    }

    /// The functional activity profile, bit-identical to
    /// `CombSim::new(self.netlist()).activity(..)` on the same stimulus.
    pub fn activity(&self) -> ActivityProfile {
        let denom = (self.cycles.saturating_sub(1)).max(1) as f64;
        ActivityProfile {
            toggles: self.toggles.iter().map(|&t| t as f64 / denom).collect(),
            probability: self
                .ones
                .iter()
                .map(|&o| o as f64 / self.cycles.max(1) as f64)
                .collect(),
            cycles: self.cycles,
        }
    }

    /// Switched capacitance per cycle: [`ActivityProfile::switched_capacitance`]
    /// on [`IncrementalSim::activity`].
    pub fn switched_cap(&self) -> f64 {
        self.activity().switched_capacitance(&self.nl)
    }

    /// [`IncrementalSim::switched_cap`] restricted to the nets and sinks
    /// [`Netlist::live_mask`] marks (those a [`Netlist::sweep_dead`]
    /// keeps), read from the resident live loads in one pass.
    ///
    /// Bit-identical to calling `switched_capacitance` on the swept clone:
    /// sweeping preserves the relative order of live nodes, so both sums
    /// visit the same toggle rates in the same order, and each load is an
    /// exact sum of multiples of 0.5 fF.
    pub fn switched_cap_live(&self) -> f64 {
        let denom = (self.cycles.saturating_sub(1)).max(1) as f64;
        let mut total = 0.0;
        for net in self.nl.iter_nets() {
            if !self.is_live(net) {
                continue;
            }
            let fanin = self.nl.fanins(net).len();
            let load = self.nl.kind(net).intrinsic_cap(fanin) + self.refs[net.index()].pins;
            total += load * (self.toggles[net.index()] as f64 / denom);
        }
        total
    }

    /// Unit-size critical delay of the live logic: the worst resident
    /// arrival over the primary outputs. Bit-identical to the critical
    /// delay `circuit::sizing::SizedCircuit` computes at size 1 on the
    /// swept clone.
    pub fn critical_delay(&self) -> f64 {
        sta::worst_arrival(&self.nl, &self.arrival)
    }
}

/// Toggle/one counts of one net's packed (pre-masked) word stream, using
/// the same integer expressions as the full engines' shard counters.
fn count_words(words: &[u64], cycles: usize) -> (u64, u64) {
    let mut toggles = 0u64;
    let mut ones = 0u64;
    let mut prev_last = false;
    let mut have_prev = false;
    for (b, &v) in words.iter().enumerate() {
        let w = (cycles - b * 64).min(64);
        ones += v.count_ones() as u64;
        let within = (v ^ (v >> 1)) & if w >= 1 { (1u64 << (w - 1)) - 1 } else { 0 };
        toggles += within.count_ones() as u64;
        if have_prev && prev_last != (v & 1 == 1) {
            toggles += 1;
        }
        prev_last = v >> (w - 1) & 1 == 1;
        have_prev = true;
    }
    (toggles, ones)
}

/// What one apply overwrote in a netlist, enough to put it back: the old
/// length, the old kind and fanins of each rewired gate, and the old net
/// of each rewired output slot, oldest first.
#[derive(Debug, Default)]
struct NetlistUndo {
    prev_len: usize,
    gates: Vec<(NetId, GateKind, Vec<NetId>)>,
    outputs: Vec<(usize, NetId)>,
}

impl NetlistUndo {
    /// Apply `delta` to `nl` exactly as [`Delta::apply_to`] does,
    /// recording what each op overwrites.
    fn apply(delta: &Delta, nl: &mut Netlist) -> NetlistUndo {
        assert_eq!(
            nl.len(),
            delta.base_len,
            "delta built against different netlist"
        );
        let prev_len = nl.len();
        let mut undo = NetlistUndo {
            prev_len,
            ..NetlistUndo::default()
        };
        for op in &delta.ops {
            let mut save = |net: NetId| {
                undo.gates
                    .push((net, nl.kind(net), nl.fanins(net).to_vec()));
            };
            match op {
                DeltaOp::AddGate { .. } => {}
                DeltaOp::SetGate { net, .. } => save(*net),
                DeltaOp::ReplaceUses { old, .. } => {
                    // Gates appended by this delta go with the truncation.
                    nl.iter_nets()
                        .take(prev_len)
                        .filter(|&net| nl.fanins(net).contains(old))
                        .for_each(&mut save);
                    for (idx, (net, _)) in nl.outputs().iter().enumerate() {
                        if net == old {
                            undo.outputs.push((idx, *old));
                        }
                    }
                }
            }
            op.apply_to(nl);
        }
        undo
    }

    /// Put `nl` back as it was before the apply. Records are restored
    /// newest first, so a gate or slot an apply overwrote twice ends at
    /// its oldest value.
    fn restore(self, nl: &mut Netlist) {
        for (net, kind, fanins) in self.gates.into_iter().rev() {
            set_gate_in(nl, net, kind, &fanins);
        }
        for (idx, net) in self.outputs.into_iter().rev() {
            nl.set_output_net(idx, net);
        }
        nl.truncate(self.prev_len);
    }
}

/// Incremental event-driven (timing) engine.
///
/// Holds the current netlist and the last [`EventSim`] answer on it. An
/// apply edits the netlist in place as [`Delta::apply_to`] does and runs
/// one [`EventSim`] over the result, so [`IncrementalEventSim::activity`]
/// is `EventSim`'s answer by construction. A run the budget cuts short
/// puts the netlist back from a record of that one apply and keeps the
/// previous answer. There is no undo stack: callers build, apply and
/// read.
#[derive(Debug)]
pub struct IncrementalEventSim {
    nl: Netlist,
    model: DelayModel,
    /// The stimulus, unpacked once for the event runs.
    patterns: PatternSet,
    obs: obs::Obs,
    /// `EventSim`'s answer on the current netlist.
    activity: TimingActivity,
}

impl IncrementalEventSim {
    /// Build from one [`EventSim`] run of `nl` over `packed` under a
    /// budget. Every run of the engine publishes its `sim.event.*`
    /// counters to `obs`.
    ///
    /// # Panics
    ///
    /// Panics on sequential/cyclic netlists or stimulus width mismatch.
    pub fn try_from_full_eval(
        nl: &Netlist,
        model: &DelayModel,
        packed: &PackedPatterns,
        budget: &ResourceBudget,
        obs: obs::Obs,
    ) -> Result<IncrementalEventSim, BudgetExceeded> {
        assert_eq!(packed.width(), nl.num_inputs(), "stimulus width");
        let patterns: PatternSet = (0..packed.cycles())
            .map(|k| (0..packed.width()).map(|i| packed.bit(i, k)).collect())
            .collect();
        let activity = EventSim::new(nl, model)
            .with_obs(obs.clone())
            .try_activity(&patterns, budget)?;
        Ok(IncrementalEventSim {
            nl: nl.clone(),
            model: model.clone(),
            patterns,
            obs,
            activity,
        })
    }

    /// The engine's current netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Apply a delta under a budget. The edited netlist's event run meters
    /// its processed events against the step limit and its pending events
    /// against the event-queue limit. On exhaustion the netlist and the
    /// activity are exactly as before the call and the error is returned.
    ///
    /// # Panics
    ///
    /// Panics if the delta creates a cycle, violates netlist invariants, or
    /// (for [`DelayModel::PerNet`]) appends nets beyond the delay table.
    pub fn try_apply_delta(
        &mut self,
        delta: &Delta,
        budget: &ResourceBudget,
    ) -> Result<(), BudgetExceeded> {
        let undo = NetlistUndo::apply(delta, &mut self.nl);
        let run = EventSim::new(&self.nl, &self.model)
            .with_obs(self.obs.clone())
            .try_activity(&self.patterns, budget);
        match run {
            Ok(activity) => {
                self.activity = activity;
                Ok(())
            }
            Err(e) => {
                undo.restore(&mut self.nl);
                Err(e)
            }
        }
    }

    /// The timing activity, bit-identical to
    /// `EventSim::new(self.netlist(), model).activity(..)` on the same
    /// stimulus.
    pub fn activity(&self) -> &TimingActivity {
        &self.activity
    }

    /// Switched capacitance per cycle under the *total* (glitch-inclusive)
    /// toggle rates: `switched_capacitance` on the total profile of
    /// [`IncrementalEventSim::activity`].
    pub fn switched_cap(&self) -> f64 {
        self.activity.total.switched_capacitance(&self.nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombSim;
    use crate::event::EventSim;
    use crate::stimulus::Stimulus;
    use netlist::blif::write_text;
    use netlist::gen::{array_multiplier, ripple_adder};

    fn iter_rev(nl: &Netlist) -> impl Iterator<Item = NetId> + '_ {
        (0..nl.len()).rev().map(NetId::from_index)
    }

    fn bits(p: &ActivityProfile) -> (Vec<u64>, Vec<u64>) {
        (
            p.toggles.iter().map(|t| t.to_bits()).collect(),
            p.probability.iter().map(|t| t.to_bits()).collect(),
        )
    }

    /// An event engine over `nl` built under an unlimited budget.
    fn event_engine(
        nl: &Netlist,
        model: &DelayModel,
        packed: &PackedPatterns,
    ) -> IncrementalEventSim {
        let unlimited = ResourceBudget::unlimited();
        IncrementalEventSim::try_from_full_eval(nl, model, packed, &unlimited, obs::Obs::disabled())
            .expect("unlimited budget")
    }

    fn apply_event(engine: &mut IncrementalEventSim, delta: &Delta) {
        engine
            .try_apply_delta(delta, &ResourceBudget::unlimited())
            .expect("unlimited budget");
    }

    #[test]
    fn journal_keeps_only_frames_a_mark_can_reach() {
        let mut journal = Journal::default();
        journal.push(1);
        assert_eq!(journal.len(), 0, "no mark outstanding: nothing kept");
        let mark = journal.checkpoint();
        journal.push(2);
        journal.push(3);
        let mut undone = Vec::new();
        assert!(journal.rollback_to(mark, |f| undone.push(f)));
        assert_eq!(undone, [3, 2], "frames come back newest first");
        journal.push(4);
        let top = journal.checkpoint();
        assert!(journal.commit(top));
        assert_eq!(journal.len(), 0, "committed frames are dropped");
        assert!(
            !journal.rollback_to(mark, |_| unreachable!()),
            "mark below the floor"
        );
    }

    #[test]
    fn from_full_eval_matches_combsim() {
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(200, 7);
        let packed = PackedPatterns::pack(&patterns);
        let engine = IncrementalSim::from_full_eval(&nl, &packed);
        let reference = CombSim::new(&nl).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
        let cap = engine.activity().switched_capacitance(&nl);
        assert_eq!(engine.switched_cap().to_bits(), cap.to_bits());
    }

    #[test]
    fn rewire_delta_matches_from_scratch() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(130, 3);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        // Flip one gate's function.
        let victim = nl
            .iter_nets()
            .find(|&g| nl.kind(g) == GateKind::And)
            .expect("adder has AND gates");
        let mut delta = Delta::for_netlist(&nl);
        delta.set_gate(victim, GateKind::Or, nl.fanins(victim));
        let mark = engine.checkpoint();
        let info = engine.apply_delta(&delta);
        assert!(info.reevaluated >= 1);
        let mut edited = nl.clone();
        delta.apply_to(&mut edited);
        let reference = CombSim::new(&edited).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
        // Rolling back restores the original bits.
        assert!(engine.rollback_to(mark));
        let original = CombSim::new(&nl).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&original));
        assert_eq!(engine.pending_frames(), 0, "nothing left on the undo stack");
        // With the mark released, an apply keeps no journal frame at all.
        assert!(engine.commit(mark));
        engine.apply_delta(&delta);
        assert_eq!(engine.pending_frames(), 0);
    }

    #[test]
    fn checkpoint_rollback_commit_stack() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(130, 17);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let base = bits(&engine.activity());
        let gates: Vec<NetId> = nl
            .iter_nets()
            .filter(|&g| nl.kind(g) == GateKind::And)
            .take(3)
            .collect();
        assert_eq!(gates.len(), 3, "adder has three AND gates");

        // Speculate a three-deep chain with a mark at every depth.
        let m0 = engine.checkpoint();
        let mut marks = vec![m0];
        let mut states = vec![base.clone()];
        for &g in &gates {
            let mut delta = Delta::for_netlist(engine.netlist());
            delta.set_gate(g, GateKind::Or, engine.netlist().fanins(g));
            engine.apply_delta(&delta);
            marks.push(engine.checkpoint());
            states.push(bits(&engine.activity()));
        }
        // Unwind to the middle mark: bit-identical to that depth.
        assert!(engine.rollback_to(marks[1]));
        assert_eq!(bits(&engine.activity()), states[1]);
        // Re-speculate from there, then unwind all the way home.
        let mut delta = Delta::for_netlist(engine.netlist());
        delta.set_gate(gates[2], GateKind::Nand, engine.netlist().fanins(gates[2]));
        engine.apply_delta(&delta);
        assert!(engine.rollback_to(m0));
        assert_eq!(bits(&engine.activity()), base);

        // Commit a one-move chain; rollback past the floor is rejected.
        let mut delta = Delta::for_netlist(engine.netlist());
        delta.set_gate(gates[0], GateKind::Or, engine.netlist().fanins(gates[0]));
        engine.apply_delta(&delta);
        let committed = bits(&engine.activity());
        let m_done = engine.checkpoint();
        assert!(engine.commit(m_done));
        assert!(!engine.rollback_to(m0), "rollback past commit must fail");
        assert_eq!(engine.pending_frames(), 0, "committed frames are gone");
        assert_eq!(bits(&engine.activity()), committed, "rejection changed nothing");

        let mut edited = nl.clone();
        edited.set_kind(gates[0], GateKind::Or);
        let reference = CombSim::new(&edited).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
        let stats = engine.stats();
        assert!(stats.checkpoints >= 5 && stats.rollbacks >= 2 && stats.commits == 1);
    }

    #[test]
    fn buffer_insertion_cuts_off_immediately() {
        if stress_env() {
            // The assertions below pin the *fast path*; under forced full
            // re-evaluation there is no cut-off to observe.
            return;
        }
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(256, 11);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        // Insert a buffer on some gate's first fanin: the buffer takes its
        // driver's words, the sink sees identical words -> cut-off.
        let sink = iter_rev(&nl)
            .find(|&g| !nl.kind(g).is_source() && !nl.fanins(g).is_empty())
            .expect("gate with fanins");
        let mut delta = Delta::for_netlist(&nl);
        let mut fanins = nl.fanins(sink).to_vec();
        let buf = delta.add_gate(GateKind::Buf, &[fanins[0]]);
        fanins[0] = buf;
        delta.set_gate(sink, nl.kind(sink), &fanins);
        let info = engine.apply_delta(&delta);
        assert!(!info.full_eval);
        // The buffer evaluates (new words), the sink evaluates and cuts off.
        assert_eq!(info.cutoffs, 1, "sink words unchanged -> early cut-off");
        let mut edited = nl.clone();
        delta.apply_to(&mut edited);
        let reference = CombSim::new(&edited).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
    }

    #[test]
    fn force_full_is_bit_identical() {
        if stress_env() {
            // Both engines take the full path under the stress env; the
            // incremental-vs-full contrast this test pins is unavailable.
            return;
        }
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(100, 5);
        let packed = PackedPatterns::pack(&patterns);
        let mut a = IncrementalSim::from_full_eval(&nl, &packed);
        let mut b = IncrementalSim::from_full_eval(&nl, &packed);
        b.set_force_full(true);
        let victim = iter_rev(&nl)
            .find(|&g| nl.kind(g) == GateKind::Xor)
            .expect("multiplier has XOR gates");
        let mut delta = Delta::for_netlist(&nl);
        delta.set_gate(victim, GateKind::Xnor, nl.fanins(victim));
        let ia = a.apply_delta(&delta);
        let ib = b.apply_delta(&delta);
        assert!(!ia.full_eval && ib.full_eval);
        assert!(ia.retimed < ib.retimed, "the twin re-times every net");
        assert_eq!(bits(&a.activity()), bits(&b.activity()));
        assert_eq!(a.switched_cap().to_bits(), b.switched_cap().to_bits());
        assert_eq!(a.critical_delay().to_bits(), b.critical_delay().to_bits());
    }

    #[test]
    fn event_engine_matches_eventsim_through_edits() {
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(150, 9);
        let packed = PackedPatterns::pack(&patterns);
        for model in [DelayModel::Unit, DelayModel::Analytic { resolution: 4 }] {
            let mut engine = event_engine(&nl, &model, &packed);
            let reference = EventSim::new(&nl, &model).activity(&patterns);
            assert_eq!(bits(&engine.activity().total), bits(&reference.total));
            assert_eq!(
                bits(&engine.activity().functional),
                bits(&reference.functional)
            );
            // Edit: insert a buffer chain on a late gate (balance-style).
            let sink = iter_rev(&nl)
                .find(|&g| !nl.kind(g).is_source() && nl.fanins(g).len() >= 2)
                .expect("gate with fanins");
            let mut delta = Delta::for_netlist(&nl);
            let mut fanins = nl.fanins(sink).to_vec();
            let b1 = delta.add_gate(GateKind::Buf, &[fanins[1]]);
            let b2 = delta.add_gate(GateKind::Buf, &[b1]);
            fanins[1] = b2;
            delta.set_gate(sink, nl.kind(sink), &fanins);
            apply_event(&mut engine, &delta);
            let mut edited = nl.clone();
            delta.apply_to(&mut edited);
            let edited_ref = EventSim::new(&edited, &model).activity(&patterns);
            let got = engine.activity();
            assert_eq!(bits(&got.total), bits(&edited_ref.total), "{model:?}");
            assert_eq!(bits(&got.functional), bits(&edited_ref.functional));
        }

        // A two-edit chain under analytic delays: rewire one gate, then
        // buffer another's fanin. Each depth matches a from-scratch run.
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(110, 23);
        let packed = PackedPatterns::pack(&patterns);
        let model = DelayModel::Analytic { resolution: 4 };
        let mut engine = event_engine(&nl, &model, &packed);
        let victim = nl
            .iter_nets()
            .find(|&g| nl.kind(g) == GateKind::And)
            .expect("adder has AND gates");
        let mut edited = nl.clone();
        let mut d1 = Delta::for_netlist(&edited);
        d1.set_gate(victim, GateKind::Or, nl.fanins(victim));
        apply_event(&mut engine, &d1);
        d1.apply_to(&mut edited);
        let ref1 = EventSim::new(&edited, &model).activity(&patterns);
        assert_eq!(bits(&engine.activity().total), bits(&ref1.total));
        let sink = iter_rev(&nl)
            .find(|&g| !nl.kind(g).is_source() && nl.fanins(g).len() >= 2)
            .expect("gate with fanins");
        let mut d2 = Delta::for_netlist(&edited);
        let mut fanins = edited.fanins(sink).to_vec();
        let buf = d2.add_gate(GateKind::Buf, &[fanins[0]]);
        fanins[0] = buf;
        d2.set_gate(sink, edited.kind(sink), &fanins);
        apply_event(&mut engine, &d2);
        d2.apply_to(&mut edited);
        let ref2 = EventSim::new(&edited, &model).activity(&patterns);
        assert_eq!(bits(&engine.activity().total), bits(&ref2.total));
    }

    #[test]
    fn budget_exhaustion_rolls_back() {
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(128, 2);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        let before = bits(&engine.activity());
        let victim = nl
            .iter_nets()
            .find(|&g| nl.kind(g) == GateKind::And)
            .expect("multiplier has AND gates");
        let mut delta = Delta::for_netlist(&nl);
        delta.set_gate(victim, GateKind::Nand, nl.fanins(victim));
        let tight = ResourceBudget::unlimited().with_max_sim_steps(1);
        let err = engine.try_apply_delta(&delta, &tight).unwrap_err();
        assert_eq!(err.resource, budget::Resource::SimSteps);
        assert_eq!(bits(&engine.activity()), before, "rolled back");
        assert_eq!(engine.netlist().kind(victim), GateKind::And);
        // And the same delta still applies cleanly afterwards.
        engine.apply_delta(&delta);
        let mut edited = nl.clone();
        delta.apply_to(&mut edited);
        let reference = CombSim::new(&edited).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
    }

    #[test]
    fn starved_event_apply_restores_netlist_and_profiles() {
        // x1 = a ^ b, s = x1 ^ c (an output that also feeds y), y = s & a.
        let mut nl = Netlist::new("xxa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x1 = nl.add_gate(GateKind::Xor, &[a, b]);
        let s = nl.add_gate(GateKind::Xor, &[x1, c]);
        let y = nl.add_gate(GateKind::And, &[s, a]);
        nl.mark_output(s, "s");
        nl.mark_output(y, "y");
        let patterns = Stimulus::uniform(3).patterns(256, 1);
        let packed = PackedPatterns::pack(&patterns);
        let obs = obs::Obs::enabled();
        let unlimited = ResourceBudget::unlimited();
        let mut engine = IncrementalEventSim::try_from_full_eval(
            &nl,
            &DelayModel::Unit,
            &packed,
            &unlimited,
            obs.clone(),
        )
        .expect("unlimited budget");
        // One delta that appends gates, rewires two gates, and replaces the
        // uses of a primary-output net that also drives one of them, so y
        // is overwritten twice and must come back to its first state.
        let mut delta = Delta::for_netlist(&nl);
        let buf = delta.add_gate(GateKind::Buf, &[b]);
        delta.set_gate(x1, GateKind::Xnor, &[a, buf]);
        delta.set_gate(y, GateKind::Or, &[s, buf]);
        let fresh = delta.add_gate(GateKind::Nand, &[x1, c]);
        delta.replace_uses(s, fresh);
        let text = write_text(engine.netlist());
        let before = engine.activity().clone();
        let processed = obs.snapshot().counter("sim.event.processed");
        let tight = ResourceBudget::unlimited().with_max_sim_steps(1);
        let err = engine.try_apply_delta(&delta, &tight).unwrap_err();
        assert_eq!(err.resource, budget::Resource::SimSteps);
        // The netlist, both profiles and the counters are as before.
        assert_eq!(write_text(engine.netlist()), text);
        let got = engine.activity();
        assert_eq!(bits(&got.total), bits(&before.total));
        assert_eq!(bits(&got.functional), bits(&before.functional));
        assert_eq!(obs.snapshot().counter("sim.event.processed"), processed);
        // The same delta then applies and matches a from-scratch run.
        apply_event(&mut engine, &delta);
        let mut edited = nl.clone();
        delta.apply_to(&mut edited);
        assert_eq!(write_text(engine.netlist()), write_text(&edited));
        let reference = EventSim::new(&edited, &DelayModel::Unit).activity(&patterns);
        let got = engine.activity();
        assert_eq!(bits(&got.total), bits(&reference.total));
        assert_eq!(bits(&got.functional), bits(&reference.functional));
        let cap = reference.total.switched_capacitance(&edited);
        assert_eq!(engine.switched_cap().to_bits(), cap.to_bits());
    }

    #[test]
    fn replace_uses_and_added_gate_match() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(96, 13);
        let packed = PackedPatterns::pack(&patterns);
        let mut engine = IncrementalSim::from_full_eval(&nl, &packed);
        // Don't-care-style rewrite: replace a gate's uses with a fresh gate
        // over low-index nets.
        let victim = iter_rev(&nl)
            .find(|&g| !nl.kind(g).is_source())
            .expect("gate");
        let a = nl.inputs()[0];
        let b = nl.inputs()[1];
        let mut delta = Delta::for_netlist(&nl);
        let fresh = delta.add_gate(GateKind::Nor, &[a, b]);
        delta.replace_uses(victim, fresh);
        let mark = engine.checkpoint();
        engine.apply_delta(&delta);
        let mut edited = nl.clone();
        delta.apply_to(&mut edited);
        let reference = CombSim::new(&edited).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&reference));
        let cap = engine.activity().switched_capacitance(&edited);
        assert_eq!(engine.switched_cap().to_bits(), cap.to_bits());
        // Live-only cap matches the swept netlist's cap bit for bit.
        let mut swept = edited.clone();
        let map = swept.sweep_dead();
        let swept_profile = CombSim::new(&swept).activity(&patterns);
        let swept_cap = swept_profile.switched_capacitance(&swept);
        assert_eq!(engine.switched_cap_live().to_bits(), swept_cap.to_bits());
        assert!(map[victim.index()].is_none(), "victim actually went dead");
        // So does the resident timing: a build on the swept netlist times
        // it from scratch.
        let swept_engine = IncrementalSim::from_full_eval(&swept, &packed);
        assert_eq!(
            engine.critical_delay().to_bits(),
            swept_engine.critical_delay().to_bits()
        );
        // Rolling back restores everything, including the netlist length.
        let crit_before = IncrementalSim::from_full_eval(&nl, &packed).critical_delay();
        assert!(engine.rollback_to(mark));
        assert_eq!(engine.netlist().len(), nl.len());
        let original = CombSim::new(&nl).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&original));
        assert_eq!(engine.critical_delay().to_bits(), crit_before.to_bits());
    }
}
