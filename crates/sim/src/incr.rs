//! Incremental fanout-cone re-evaluation.
//!
//! The optimization passes of this workspace (path balancing, don't-care
//! rewriting, transistor sizing) are iterative-improvement loops: propose a
//! small structural edit, re-estimate power, accept or revert. Re-running a
//! full [`crate::comb::CombSim`] / [`crate::event::EventSim`] per candidate
//! makes every pass O(gates × candidates). The engines here keep the packed
//! 64-wide per-net words of the last full evaluation resident, apply a
//! [`Delta`], mark the structural fanout cone of the edit dirty, and
//! re-evaluate **only** dirtied nets in levelized order — with an early
//! cut-off wherever a re-evaluated net's words come out unchanged. Toggle
//! and one counts are updated by subtracting the old cone contribution and
//! adding the new one, never by recounting the stream.
//!
//! Both engines are **bit-identical** to their from-scratch counterparts:
//! [`IncrementalSim::activity`] equals `CombSim::activity` and
//! [`IncrementalEventSim::activity`] equals `EventSim::activity` on the
//! same netlist and stimulus, bit for bit. The event-driven variant replays
//! the existing event queue, but seeds each cycle's wave from the recorded
//! transition waveforms of the dirty cone's *boundary* (fanins just outside
//! the cone) instead of the primary inputs, so replay cost is proportional
//! to the cone's event traffic.
//!
//! When a delta dirties more than half the netlist (or under
//! `LPOPT_INCR_STRESS=1`), the engines fall back to a full re-evaluation
//! through the same code path — results are identical either way, the
//! fallback merely skips pointless cone bookkeeping.
//!
//! Applied deltas are journaled on a multi-slot **undo stack**: a search
//! can take a [`Mark`] with [`IncrementalSim::checkpoint`], speculatively
//! apply a chain of deltas, score each state on the resident engine, and
//! either unwind to any live mark with [`IncrementalSim::rollback_to`]
//! (bit-identical to never having applied the chain) or make the chain
//! permanent with [`IncrementalSim::commit`]. Only frames above the
//! oldest outstanding mark are kept, so a caller that never checkpoints
//! holds no journal at all and memory stays constant.
//!
//! Observability: every applied delta publishes `sim.incr.deltas`,
//! `sim.incr.nets_dirtied`, `sim.incr.nets_reevaluated`,
//! `sim.incr.cutoffs`, and `sim.incr.full_evals`; the undo stack adds
//! `sim.incr.checkpoints`, `sim.incr.rollbacks`, and `sim.incr.commits`;
//! the event engine also publishes the usual `sim.event.*` counters for
//! its (restricted) replays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};

use crate::event::{DelayModel, TimingActivity};
use crate::profile::ActivityProfile;
use crate::queue::{CalendarQueue, Scheduled};
use crate::stimulus::PackedPatterns;
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
            match op {
                DeltaOp::AddGate { kind, fanins } => {
                    nl.add_gate(*kind, fanins);
                }
                DeltaOp::SetGate { net, kind, fanins } => {
                    set_gate_in(nl, *net, *kind, fanins);
                }
                DeltaOp::ReplaceUses { old, new } => {
                    nl.replace_uses(*old, *new);
                }
            }
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
}

/// A position in an engine's undo stack, minted by `checkpoint()`.
///
/// Marks are absolute (the number of deltas applied when the checkpoint
/// was taken) and totally ordered: a later checkpoint compares greater.
/// A mark stays valid until a `commit` at or above it raises the
/// journal floor past it, or — for marks released by a rollback/commit —
/// until a later apply trims the journal past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mark(u64);

/// Undo journal frame for one applied delta. Frames stack: the engines
/// keep one per apply above the committed floor, undone LIFO.
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
}

/// Incremental zero-delay (functional) engine.
///
/// Owns a netlist clone plus the packed per-net words, integer toggle/one
/// counts, levels and fanout lists of the last evaluation, and keeps all of
/// them consistent under [`IncrementalSim::apply_delta`] /
/// [`IncrementalSim::rollback_to`].
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
    force_full: bool,
    obs: obs::Obs,
    stats: IncrStats,
    /// Journal frames for applies in `(floor, applied]`, oldest first.
    undo: Vec<Undo>,
    /// Deltas applied over the engine's lifetime (monotone).
    applied: u64,
    /// Committed floor: applies at or below it can no longer be unwound.
    floor: u64,
    /// Outstanding checkpoint marks (nondecreasing). The oldest entry
    /// pins the auto-trim: frames above it survive new applies.
    cps: Vec<u64>,
    // Last-apply info consumed by the event engine.
    cone: Vec<NetId>,
    touched: Vec<NetId>,
    last_full: bool,
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
}

/// Whether `LPOPT_INCR_STRESS` is set (to anything but `0`): the default
/// `force_full` of every incremental engine built while it is, including
/// `circuit::sizing::StaCache`.
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
        let sim = Self::build(nl, packed, budget, obs)?;
        if sim.obs.is_enabled() {
            sim.obs.add("sim.comb.cycles", sim.cycles as u64);
            let evaluated = sim.nl.len() - sim.nl.num_inputs();
            sim.obs
                .add("sim.comb.gate_evals", sim.nblocks as u64 * evaluated as u64);
        }
        Ok(sim)
    }

    pub(crate) fn build(
        nl: &Netlist,
        packed: &PackedPatterns,
        budget: &ResourceBudget,
        obs: obs::Obs,
    ) -> Result<IncrementalSim, BudgetExceeded> {
        assert!(nl.is_combinational(), "incremental engine requires combinational netlist");
        assert_eq!(packed.width(), nl.num_inputs(), "stimulus width");
        let order = nl.topo_order().expect("netlist must be acyclic");
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
        for (step, &net) in order.iter().enumerate() {
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
        let levels = nl
            .levels()
            .expect("netlist must be acyclic")
            .into_iter()
            .map(|l| l as u32)
            .collect();
        Ok(IncrementalSim {
            fanouts: nl.fanouts(),
            nl: nl.clone(),
            cycles,
            nblocks,
            stride,
            words,
            toggles,
            ones,
            levels,
            force_full: stress_env(),
            obs,
            stats: IncrStats::default(),
            undo: Vec::new(),
            applied: 0,
            floor: 0,
            cps: Vec::new(),
            cone: Vec::new(),
            touched: Vec::new(),
            last_full: false,
            epoch: 0,
            cone_stamp: vec![0; n],
            queued_stamp: vec![0; n],
            struct_stamp: vec![0; n],
            lvl_done: vec![0; n],
            lvl_onstack: vec![0; n],
            heap: BinaryHeap::new(),
            ins: Vec::new(),
            new_words: vec![0; stride],
        })
    }

    /// The engine's current netlist (base netlist plus all applied deltas).
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Cycles in the resident stimulus.
    pub fn cycles(&self) -> usize {
        self.cycles
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

    /// Attach an observability handle (counters flush per applied delta).
    pub fn with_obs(mut self, obs: obs::Obs) -> IncrementalSim {
        self.obs = obs;
        self
    }

    #[inline]
    fn word_bit(&self, idx: usize, cycle: usize) -> bool {
        self.words[idx * self.stride + cycle / 64] >> (cycle % 64) & 1 == 1
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

    /// Apply a delta under a budget. Each re-evaluated net is metered as
    /// `cycles` simulation steps (the unit the full engines use), checked
    /// every 16 nets along with the deadline. On exhaustion the partial
    /// apply is rolled back and the engine is exactly as before the call.
    pub fn try_apply_delta(
        &mut self,
        delta: &Delta,
        budget: &ResourceBudget,
    ) -> Result<ApplyInfo, BudgetExceeded> {
        let info = self.try_apply_delta_noflush(delta, budget)?;
        self.auto_trim();
        self.flush_incr(&info);
        Ok(info)
    }

    /// Count a successful apply in `stats()` and the obs counters. Called
    /// only once every layer has accepted the delta, so an apply rolled
    /// back on budget exhaustion leaves no trace in either.
    pub(crate) fn flush_incr(&mut self, info: &ApplyInfo) {
        self.stats.deltas += 1;
        self.stats.nets_dirtied += info.dirtied as u64;
        self.stats.nets_reevaluated += info.reevaluated as u64;
        self.stats.cutoffs += info.cutoffs as u64;
        self.stats.full_evals += info.full_eval as u64;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.deltas", 1);
            self.obs.add("sim.incr.nets_dirtied", info.dirtied as u64);
            self.obs
                .add("sim.incr.nets_reevaluated", info.reevaluated as u64);
            self.obs.add("sim.incr.cutoffs", info.cutoffs as u64);
            self.obs.add("sim.incr.full_evals", info.full_eval as u64);
        }
    }

    pub(crate) fn try_apply_delta_noflush(
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
        self.undo.push(Undo {
            prev_len,
            ..Undo::default()
        });
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
                    self.journal_structure(*net);
                    for &f in self.nl.fanins(*net).to_vec().iter() {
                        remove_one(&mut self.fanouts[f.index()], *net);
                    }
                    set_gate_in(&mut self.nl, *net, *kind, fanins);
                    for &f in fanins {
                        self.fanouts[f.index()].push(*net);
                    }
                    self.touched.push(*net);
                }
                DeltaOp::ReplaceUses { old, new } => {
                    assert!(new.index() < self.nl.len(), "replacement {new} out of range");
                    for (idx, (net, _)) in self.nl.outputs().iter().enumerate() {
                        if net == old {
                            self.undo.last_mut().expect("undo live").outputs.push((idx, *old));
                        }
                    }
                    let users = std::mem::take(&mut self.fanouts[old.index()]);
                    for &user in &users {
                        self.journal_structure(user);
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
        self.last_full = full;

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
                        self.undo
                            .last_mut()
                            .expect("undo live")
                            .levels
                            .push((NetId::from_index(i), self.levels[i]));
                    }
                    self.levels[i] = l;
                }
            }
        } else {
            self.recompute_cone_levels(prev_len);
        }

        // Phase 4: levelized re-evaluation with early cut-off.
        let max_steps = budget.max_sim_steps_or(u64::MAX);
        let mut tally = 0u64;
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
        let mut reevaluated = 0usize;
        let mut cutoffs = 0usize;
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let idx = raw as usize;
            tally += self.cycles as u64;
            if reevaluated & 0xF == 0 {
                if tally >= max_steps {
                    self.pop_frame();
                    return Err(budget.sim_steps_exceeded(tally));
                }
                if let Err(e) = budget.check_deadline() {
                    self.pop_frame();
                    return Err(e);
                }
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
            let slot = &mut self.words[idx * self.stride..(idx + 1) * self.stride];
            if idx < prev_len {
                self.undo.last_mut().expect("undo live").words.push((
                    net,
                    slot.to_vec(),
                    self.toggles[idx],
                    self.ones[idx],
                ));
            }
            slot.copy_from_slice(&self.new_words);
            let (t, o) = count_words(&self.words[idx * self.stride..][..self.nblocks], self.cycles);
            self.toggles[idx] = t;
            self.ones[idx] = o;
            for fi in 0..self.fanouts[idx].len() {
                let sink = self.fanouts[idx][fi];
                if self.queued_stamp[sink.index()] != self.epoch {
                    self.queued_stamp[sink.index()] = self.epoch;
                    self.heap
                        .push(Reverse((self.levels[sink.index()], sink.index() as u32)));
                }
            }
        }

        let dirtied = if full {
            self.nl.len() - self.nl.num_inputs()
        } else {
            self.cone.len()
        };
        self.applied += 1;
        Ok(ApplyInfo {
            dirtied,
            reevaluated,
            cutoffs,
            full_eval: full,
        })
    }

    fn grow_scratch(&mut self, n: usize) {
        self.cone_stamp.resize(n, 0);
        self.queued_stamp.resize(n, 0);
        self.struct_stamp.resize(n, 0);
        self.lvl_done.resize(n, 0);
        self.lvl_onstack.resize(n, 0);
    }

    fn journal_structure(&mut self, net: NetId) {
        if net.index() >= self.undo.last().expect("undo live").prev_len {
            return; // appended this delta; truncation reverts it
        }
        if self.struct_stamp[net.index()] == self.epoch {
            return;
        }
        self.struct_stamp[net.index()] = self.epoch;
        self.undo.last_mut().expect("undo live").structure.push((
            net,
            self.nl.kind(net),
            self.nl.fanins(net).to_vec(),
        ));
    }

    /// Recompute levels of every cone member via iterative DFS; fanins
    /// outside the cone keep their (still valid) stored levels. Detects
    /// delta-created cycles (any new cycle passes through the cone).
    fn recompute_cone_levels(&mut self, prev_len: usize) {
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
                        if idx < prev_len {
                            self.undo
                                .last_mut()
                                .expect("undo live")
                                .levels
                                .push((net, self.levels[idx]));
                        }
                        self.levels[idx] = lvl;
                    }
                    self.lvl_done[idx] = self.epoch;
                    stack.pop();
                }
            }
        }
    }

    /// Mark the current state for a later [`IncrementalSim::rollback_to`]
    /// or [`IncrementalSim::commit`]. While a mark is outstanding, every
    /// frame above it is retained, so chains of speculative applies can be
    /// unwound to any mark between the checkpoint and the present.
    pub fn checkpoint(&mut self) -> Mark {
        self.stats.checkpoints += 1;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.checkpoints", 1);
        }
        self.cps.push(self.applied);
        Mark(self.applied)
    }

    /// Unwind every delta applied after `mark`, restoring the engine
    /// bit-identically to its state when the checkpoint was taken.
    ///
    /// Returns false (and changes nothing) if the mark has been passed by
    /// a [`IncrementalSim::commit`] — rollback past the committed floor is
    /// rejected, never partially applied. The mark itself stays live: the
    /// same mark can be rolled back to repeatedly (speculate, unwind,
    /// speculate again), but marks *above* it are released.
    pub fn rollback_to(&mut self, mark: Mark) -> bool {
        if !self.is_live(mark) {
            return false;
        }
        while self.applied > mark.0 {
            self.pop_frame();
            self.applied -= 1;
        }
        while self.cps.last().is_some_and(|&m| m > mark.0) {
            self.cps.pop();
        }
        self.stats.rollbacks += 1;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.rollbacks", 1);
        }
        true
    }

    /// Make every delta at or below `mark` permanent: their journal frames
    /// are dropped, the floor rises to the mark, and later rollbacks past
    /// it are rejected. Releases every outstanding mark at or below `mark`.
    ///
    /// Returns false (and changes nothing) if the mark is already below
    /// the floor.
    pub fn commit(&mut self, mark: Mark) -> bool {
        if !self.is_live(mark) {
            return false;
        }
        let frames = (mark.0 - self.floor) as usize;
        self.undo.drain(..frames);
        self.floor = mark.0;
        self.cps.retain(|&m| m > mark.0);
        self.stats.commits += 1;
        if self.obs.is_enabled() {
            self.obs.add("sim.incr.commits", 1);
        }
        true
    }

    /// Number of journal frames currently held (applies above the floor).
    pub fn pending_frames(&self) -> usize {
        self.undo.len()
    }

    /// Whether `mark` lies between the committed floor and the present.
    fn is_live(&self, mark: Mark) -> bool {
        self.floor <= mark.0 && mark.0 <= self.applied
    }

    /// Drop journal frames no outstanding checkpoint can reach: every
    /// frame at or below the oldest mark, or all of them when no mark is
    /// outstanding. Returns the number of frames dropped.
    fn auto_trim(&mut self) -> usize {
        let keep_from = self.cps.first().copied().unwrap_or(self.applied);
        if keep_from > self.floor {
            let frames = (keep_from - self.floor) as usize;
            self.undo.drain(..frames);
            self.floor = keep_from;
            frames
        } else {
            0
        }
    }

    /// Pop and undo the top journal frame (no `applied` bookkeeping);
    /// false if the stack is empty.
    fn pop_frame(&mut self) -> bool {
        match self.undo.pop() {
            Some(undo) => {
                self.undo_frame(undo);
                true
            }
            None => false,
        }
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

    /// Switched capacitance per cycle, bit-identical to
    /// [`ActivityProfile::switched_capacitance`] on
    /// [`IncrementalSim::activity`] (same iteration and summation order).
    pub fn switched_cap(&self) -> f64 {
        let fanouts = self.nl.fanouts();
        let denom = (self.cycles.saturating_sub(1)).max(1) as f64;
        let mut total = 0.0;
        for net in self.nl.iter_nets() {
            let kind = self.nl.kind(net);
            let fanin = self.nl.fanins(net).len();
            let mut load = kind.intrinsic_cap(fanin);
            for &sink in &fanouts[net.index()] {
                load += self.nl.kind(sink).input_cap();
            }
            total += load * (self.toggles[net.index()] as f64 / denom);
        }
        total
    }

    /// [`IncrementalSim::switched_cap`] restricted to live nets (those a
    /// [`Netlist::sweep_dead`] would keep) and live sinks.
    ///
    /// Bit-identical to calling `switched_capacitance` on the swept clone:
    /// sweeping preserves the relative order of live nodes, so both sums
    /// visit the same loads and toggle rates in the same order.
    pub fn switched_cap_live(&self) -> f64 {
        let n = self.nl.len();
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        for (net, _) in self.nl.outputs() {
            stack.push(net.index());
        }
        for &pi in self.nl.inputs() {
            stack.push(pi.index());
        }
        while let Some(v) = stack.pop() {
            if live[v] {
                continue;
            }
            live[v] = true;
            for &f in self.nl.fanins(NetId::from_index(v)) {
                stack.push(f.index());
            }
        }
        let fanouts = self.nl.fanouts();
        let denom = (self.cycles.saturating_sub(1)).max(1) as f64;
        let mut total = 0.0;
        for net in self.nl.iter_nets() {
            if !live[net.index()] {
                continue;
            }
            let kind = self.nl.kind(net);
            let fanin = self.nl.fanins(net).len();
            let mut load = kind.intrinsic_cap(fanin);
            for &sink in &fanouts[net.index()] {
                if live[sink.index()] {
                    load += self.nl.kind(sink).input_cap();
                }
            }
            total += load * (self.toggles[net.index()] as f64 / denom);
        }
        total
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

/// One recorded transition: in cycle `cycle`, net changed to `value` at
/// event time `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tr {
    cycle: u32,
    time: u64,
    value: bool,
}

/// Undo journal frame for the event layer of one applied delta; stacks in
/// lockstep with the functional layer's frames.
#[derive(Debug, Default)]
struct EventUndo {
    prev_len: usize,
    delays: Vec<(NetId, u32)>,
    /// `(net, old total, old wave)` for dirty existing nets.
    totals: Vec<(NetId, u64, Vec<Tr>)>,
}

/// Counters from one event replay.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayCounts {
    processed: u64,
    enqueued: u64,
    cancelled: u64,
    /// Schedules the calendar queue folded into a pending slot plus fanout
    /// sinks already evaluated in the current bucket (work the old heap
    /// engine enqueued and then cancelled).
    coalesced: u64,
}

/// Incremental event-driven (timing) engine.
///
/// Wraps an [`IncrementalSim`] for the functional layer and keeps per-net
/// *total* transition counts plus the recorded transition waveform of every
/// net. A delta replays the event waves of the structural cone only,
/// seeding each cycle from the recorded transitions of the cone's boundary
/// fanins — the waveforms outside the cone cannot have changed, so the
/// replayed counts are bit-identical to a from-scratch
/// [`crate::event::EventSim`] run on the edited netlist.
#[derive(Debug)]
pub struct IncrementalEventSim {
    func: IncrementalSim,
    model: DelayModel,
    delays: Vec<u32>,
    total: Vec<u64>,
    /// Recorded applied transitions per net, ordered by (cycle, time).
    waves: Vec<Vec<Tr>>,
    /// Event-layer journal frames, one per functional frame, oldest first.
    undo: Vec<EventUndo>,
    // Scratch.
    sepoch: u64,
    in_cone: Vec<u64>,
    in_boundary: Vec<u64>,
    boundary: Vec<NetId>,
    cursors: Vec<usize>,
    values: Vec<bool>,
    ins: Vec<bool>,
    queue: CalendarQueue,
    /// True when an aborted replay may have left events in the queue.
    queue_dirty: bool,
    /// Largest per-net delay ever seen (monotone; sizes the queue wheel).
    max_delay: u32,
    batch: Vec<(u32, bool)>,
    toggled: Vec<u32>,
    sink_stamp: Vec<u64>,
    sink_epoch: u64,
    replay_total: Vec<u64>,
    wave_buf: Vec<Vec<Tr>>,
}

impl IncrementalEventSim {
    /// Build from a full evaluation plus a full event replay (unlimited
    /// budget, no obs).
    ///
    /// # Panics
    ///
    /// Panics on sequential/cyclic netlists or stimulus width mismatch.
    pub fn from_full_eval(
        nl: &Netlist,
        model: &DelayModel,
        packed: &PackedPatterns,
    ) -> IncrementalEventSim {
        match Self::try_from_full_eval(nl, model, packed, &ResourceBudget::unlimited(), obs::Obs::disabled())
        {
            Ok(sim) => sim,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`IncrementalEventSim::from_full_eval`] under a budget, with an obs
    /// handle. The initial build publishes the same `sim.event.*` counters
    /// an [`crate::event::EventSim`] activity run would (plus the
    /// functional layer's `sim.comb.*`).
    pub fn try_from_full_eval(
        nl: &Netlist,
        model: &DelayModel,
        packed: &PackedPatterns,
        budget: &ResourceBudget,
        obs: obs::Obs,
    ) -> Result<IncrementalEventSim, BudgetExceeded> {
        let func = IncrementalSim::build(nl, packed, budget, obs)?;
        let n = nl.len();
        let delays: Vec<u32> = nl.iter_nets().map(|net| model.delay(nl, net)).collect();
        let max_delay = delays.iter().copied().max().unwrap_or(1);
        let mut sim = IncrementalEventSim {
            func,
            model: model.clone(),
            delays,
            total: vec![0; n],
            waves: vec![Vec::new(); n],
            undo: Vec::new(),
            sepoch: 0,
            in_cone: vec![0; n],
            in_boundary: vec![0; n],
            boundary: Vec::new(),
            cursors: Vec::new(),
            values: Vec::new(),
            ins: Vec::new(),
            queue: CalendarQueue::new(),
            queue_dirty: true,
            max_delay,
            batch: Vec::new(),
            toggled: Vec::new(),
            sink_stamp: Vec::new(),
            sink_epoch: 0,
            replay_total: vec![0; n],
            wave_buf: vec![Vec::new(); n],
        };
        let counts = sim.replay(true, budget)?;
        for i in 0..n {
            sim.total[i] = sim.replay_total[i];
            sim.waves[i] = std::mem::take(&mut sim.wave_buf[i]);
        }
        if sim.func.obs.is_enabled() {
            sim.func.obs.add("sim.comb.cycles", sim.func.cycles as u64);
            let evaluated = n - sim.func.nl.num_inputs();
            sim.func.obs.add(
                "sim.comb.gate_evals",
                sim.func.nblocks as u64 * evaluated as u64,
            );
            sim.flush_event(&counts);
        }
        Ok(sim)
    }

    fn flush_event(&self, counts: &ReplayCounts) {
        if self.func.obs.is_enabled() {
            self.func
                .obs
                .add("sim.event.cycles", self.func.cycles as u64);
            self.func.obs.add("sim.event.processed", counts.processed);
            self.func.obs.add("sim.event.enqueued", counts.enqueued);
            self.func.obs.add("sim.event.cancelled", counts.cancelled);
            self.func.obs.add("sim.event.coalesced", counts.coalesced);
        }
    }

    /// The engine's current netlist.
    pub fn netlist(&self) -> &Netlist {
        self.func.netlist()
    }

    /// Cycles in the resident stimulus.
    pub fn cycles(&self) -> usize {
        self.func.cycles
    }

    /// Cumulative incremental-evaluation statistics (functional layer).
    pub fn stats(&self) -> IncrStats {
        self.func.stats()
    }

    /// See [`IncrementalSim::set_force_full`].
    pub fn set_force_full(&mut self, on: bool) {
        self.func.set_force_full(on);
    }

    /// Per-net delay in ticks.
    pub fn delay_of(&self, net: NetId) -> u32 {
        self.delays[net.index()]
    }

    /// Apply a delta (unlimited budget).
    ///
    /// # Panics
    ///
    /// Panics if the delta creates a cycle, violates netlist invariants, or
    /// (for [`DelayModel::PerNet`]) appends nets beyond the delay table.
    pub fn apply_delta(&mut self, delta: &Delta) -> ApplyInfo {
        match self.try_apply_delta(delta, &ResourceBudget::unlimited()) {
            Ok(info) => info,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// Apply a delta under a budget: the functional layer meters
    /// re-evaluated nets as `cycles` steps each, the event replay meters
    /// processed events against the same step limit plus the event-queue
    /// limit. On exhaustion everything (functional + event state) is rolled
    /// back and the error returned.
    pub fn try_apply_delta(
        &mut self,
        delta: &Delta,
        budget: &ResourceBudget,
    ) -> Result<ApplyInfo, BudgetExceeded> {
        let prev_len = self.func.nl.len();
        let info = self.func.try_apply_delta_noflush(delta, budget)?;
        let full = self.func.last_full;
        let n = self.func.nl.len();

        // Delay layer: only edited/added nets can change (delay depends on
        // kind + fanin count alone).
        let mut undo = EventUndo {
            prev_len,
            ..EventUndo::default()
        };
        for i in 0..self.func.touched.len() {
            let t = self.func.touched[i];
            if t.index() < prev_len {
                undo.delays.push((t, self.delays[t.index()]));
            }
        }
        for idx in prev_len..n {
            let net = NetId::from_index(idx);
            self.delays.push(self.model.delay(&self.func.nl, net));
            self.total.push(0);
            self.waves.push(Vec::new());
            self.replay_total.push(0);
            self.wave_buf.push(Vec::new());
            self.in_cone.push(0);
            self.in_boundary.push(0);
        }
        for &(net, _) in &undo.delays {
            self.delays[net.index()] = self.model.delay(&self.func.nl, net);
        }
        // The queue wheel is sized by the largest delay ever seen; keeping
        // the maximum monotone (rollbacks never shrink it) means a stale
        // oversized wheel at worst, never an undersized one.
        for idx in prev_len..n {
            self.max_delay = self.max_delay.max(self.delays[idx]);
        }
        for &(net, _) in &undo.delays {
            self.max_delay = self.max_delay.max(self.delays[net.index()]);
        }

        // Event layer: replay the cone's waves.
        let counts = match self.replay(full, budget) {
            Ok(c) => c,
            Err(e) => {
                for &(net, d) in &undo.delays {
                    self.delays[net.index()] = d;
                }
                self.truncate_event(prev_len);
                // The functional apply succeeded; unwind just that frame
                // (earlier frames stay intact for outstanding marks).
                self.func.pop_frame();
                self.func.applied -= 1;
                return Err(e);
            }
        };
        let dirty: Vec<NetId> = if full {
            (0..n).map(NetId::from_index).collect()
        } else {
            self.func.cone.clone()
        };
        for &d in &dirty {
            let idx = d.index();
            let new_wave = std::mem::take(&mut self.wave_buf[idx]);
            let old_wave = std::mem::replace(&mut self.waves[idx], new_wave);
            if idx < prev_len {
                undo.totals.push((d, self.total[idx], old_wave));
            }
            self.total[idx] = self.replay_total[idx];
        }
        self.undo.push(undo);
        let dropped = self.func.auto_trim();
        self.undo.drain(..dropped);
        self.func.flush_incr(&info);
        self.flush_event(&counts);
        Ok(info)
    }

    fn truncate_event(&mut self, prev_len: usize) {
        self.delays.truncate(prev_len);
        self.total.truncate(prev_len);
        self.waves.truncate(prev_len);
        self.replay_total.truncate(prev_len);
        self.wave_buf.truncate(prev_len);
        self.in_cone.truncate(prev_len);
        self.in_boundary.truncate(prev_len);
        self.sink_stamp.truncate(prev_len);
    }

    /// Mark the current state for a later rollback or commit; shares the
    /// functional layer's mark space (see [`IncrementalSim::checkpoint`]).
    pub fn checkpoint(&mut self) -> Mark {
        self.func.checkpoint()
    }

    /// Unwind both layers to `mark`, bit-identical to the state at the
    /// checkpoint. Rejects (returns false, changes nothing) marks below
    /// the committed floor; see [`IncrementalSim::rollback_to`].
    pub fn rollback_to(&mut self, mark: Mark) -> bool {
        if !self.func.is_live(mark) {
            return false;
        }
        for _ in mark.0..self.func.applied {
            self.pop_event_frame();
        }
        self.func.rollback_to(mark)
    }

    /// Make every delta at or below `mark` permanent in both layers; see
    /// [`IncrementalSim::commit`].
    pub fn commit(&mut self, mark: Mark) -> bool {
        if !self.func.is_live(mark) {
            return false;
        }
        self.undo.drain(..(mark.0 - self.func.floor) as usize);
        self.func.commit(mark)
    }

    /// Pop and undo the top event-layer frame (delays, totals, waves).
    fn pop_event_frame(&mut self) {
        if let Some(undo) = self.undo.pop() {
            for &(net, d) in &undo.delays {
                self.delays[net.index()] = d;
            }
            for (net, t, wave) in undo.totals {
                self.total[net.index()] = t;
                self.waves[net.index()] = wave;
            }
            self.truncate_event(undo.prev_len);
        }
    }

    /// Replay event waves. With `full` set, every net is in the cone and
    /// input seeds come straight from the packed words (this is exactly an
    /// `EventSim` run). Otherwise only the functional layer's structural
    /// cone is waved, seeded per cycle by the recorded transitions of the
    /// cone's boundary fanins; everything outside the cone keeps its
    /// already-recorded waveform and count.
    fn replay(&mut self, full: bool, budget: &ResourceBudget) -> Result<ReplayCounts, BudgetExceeded> {
        const FLUSH: u64 = 1024;
        let n = self.func.nl.len();
        let cycles = self.func.cycles;
        let max_steps = budget.max_sim_steps_or(u64::MAX);
        let max_queue = budget.max_event_queue_or(u64::MAX);
        let mut local_steps = 0u64;
        let mut tally = 0u64;
        let mut counts = ReplayCounts::default();
        self.sepoch += 1;
        self.boundary.clear();
        if full {
            self.values.clear();
            self.values.resize(n, false);
            for i in 0..n {
                self.in_cone[i] = self.sepoch;
                self.values[i] = self.func.word_bit(i, 0);
                self.replay_total[i] = 0;
                self.wave_buf[i].clear();
            }
        } else {
            self.values.resize(n, false);
            for i in 0..self.func.cone.len() {
                let c = self.func.cone[i];
                self.in_cone[c.index()] = self.sepoch;
            }
            for ci in 0..self.func.cone.len() {
                let c = self.func.cone[ci];
                let idx = c.index();
                self.replay_total[idx] = 0;
                self.wave_buf[idx].clear();
                self.values[idx] = self.func.word_bit(idx, 0);
                for &f in self.func.nl.fanins(c) {
                    if self.in_cone[f.index()] != self.sepoch
                        && self.in_boundary[f.index()] != self.sepoch
                    {
                        self.in_boundary[f.index()] = self.sepoch;
                        self.boundary.push(f);
                    }
                }
            }
            for bi in 0..self.boundary.len() {
                let b = self.boundary[bi];
                self.values[b.index()] = self.func.word_bit(b.index(), 0);
            }
        }
        if cycles == 0 {
            return Ok(counts);
        }
        self.cursors.clear();
        self.cursors.resize(self.boundary.len(), 0);
        // An early (budget) return below can leave scheduled events in the
        // queue; the flag makes the next replay start from a full reset.
        if self.queue_dirty {
            self.queue.reset(n, self.max_delay);
        } else {
            self.queue.ensure(n, self.max_delay);
        }
        self.queue_dirty = true;
        self.sink_stamp.resize(n, 0);
        for c in 1..cycles {
            budget.check_deadline()?;
            self.queue.begin_cycle();
            if full {
                // Seed from primary-input changes, in input order (the
                // order EventSim assigns seed sequence numbers).
                let inputs = self.func.nl.inputs();
                for &pi in inputs {
                    let cur = self.func.word_bit(pi.index(), c);
                    if self.values[pi.index()] != cur {
                        if self.queue.pending() >= max_queue {
                            return Err(budget.event_queue_exceeded(self.queue.pending() + 1));
                        }
                        self.queue.schedule(pi.index() as u32, 0, cur);
                        counts.enqueued += 1;
                    }
                }
            } else {
                // Seed from the recorded boundary transitions of cycle c.
                // Boundary nets sit outside the cone, so they are never
                // rescheduled as sinks; their recorded per-cycle times are
                // strictly increasing, satisfying the queue's per-net
                // nondecreasing-time contract.
                for bi in 0..self.boundary.len() {
                    let b = self.boundary[bi];
                    let wave = &self.waves[b.index()];
                    while self.cursors[bi] < wave.len() && wave[self.cursors[bi]].cycle == c as u32 {
                        let tr = wave[self.cursors[bi]];
                        self.cursors[bi] += 1;
                        if self.queue.pending() >= max_queue {
                            return Err(budget.event_queue_exceeded(self.queue.pending() + 1));
                        }
                        self.queue.schedule(b.index() as u32, tr.time, tr.value);
                        counts.enqueued += 1;
                    }
                    // Skip any transitions of cycles this replay never
                    // waved (possible only if earlier cycles enqueued
                    // nothing — cursors advance monotonically).
                    while self.cursors[bi] < wave.len() && wave[self.cursors[bi]].cycle < c as u32 {
                        self.cursors[bi] += 1;
                    }
                }
            }
            while let Some(time) = self.queue.pop_bucket(&mut self.batch) {
                counts.processed += self.batch.len() as u64;
                local_steps += self.batch.len() as u64;
                if local_steps >= FLUSH {
                    tally += local_steps;
                    local_steps = 0;
                    if tally >= max_steps {
                        return Err(budget.sim_steps_exceeded(tally));
                    }
                    budget.check_deadline()?;
                }
                // Apply the whole bucket (one entry per net, net order),
                // recording waves for in-cone nets.
                self.toggled.clear();
                for &(raw, value) in &self.batch {
                    let idx = raw as usize;
                    if self.values[idx] == value {
                        counts.cancelled += 1;
                        continue;
                    }
                    self.values[idx] = value;
                    if self.in_cone[idx] == self.sepoch {
                        self.replay_total[idx] += 1;
                        self.wave_buf[idx].push(Tr {
                            cycle: c as u32,
                            time,
                            value,
                        });
                    }
                    self.toggled.push(raw);
                }
                // Evaluate each distinct in-cone sink once per bucket.
                self.sink_epoch += 1;
                for ti in 0..self.toggled.len() {
                    let idx = self.toggled[ti] as usize;
                    for fi in 0..self.func.fanouts[idx].len() {
                        let sink = self.func.fanouts[idx][fi];
                        let si = sink.index();
                        if self.in_cone[si] != self.sepoch {
                            continue;
                        }
                        if self.sink_stamp[si] == self.sink_epoch {
                            counts.coalesced += 1;
                            continue;
                        }
                        self.sink_stamp[si] = self.sink_epoch;
                        let kind = self.func.nl.kind(sink);
                        self.ins.clear();
                        for &f in self.func.nl.fanins(sink) {
                            self.ins.push(self.values[f.index()]);
                        }
                        let out = kind.eval(&self.ins);
                        let t = time + self.delays[si] as u64;
                        if self.queue.pending() >= max_queue {
                            return Err(budget.event_queue_exceeded(self.queue.pending() + 1));
                        }
                        match self.queue.schedule(si as u32, t, out) {
                            Scheduled::New => counts.enqueued += 1,
                            // `schedule` never suppresses; only the fused
                            // `schedule_transition` path does.
                            Scheduled::Coalesced | Scheduled::Suppressed => counts.coalesced += 1,
                        }
                    }
                }
            }
            #[cfg(debug_assertions)]
            {
                for i in 0..n {
                    if self.in_cone[i] == self.sepoch || self.in_boundary[i] == self.sepoch {
                        debug_assert_eq!(
                            self.values[i],
                            self.func.word_bit(i, c),
                            "replayed net n{i} must settle to its functional value in cycle {c}"
                        );
                    }
                }
            }
        }
        tally += local_steps;
        if local_steps > 0 && tally >= max_steps {
            return Err(budget.sim_steps_exceeded(tally));
        }
        self.queue_dirty = false;
        Ok(counts)
    }

    /// The timing activity, bit-identical to
    /// `EventSim::new(self.netlist(), model).activity(..)` on the same
    /// stimulus.
    pub fn activity(&self) -> TimingActivity {
        let cycles = self.func.cycles;
        let denom = cycles.saturating_sub(1).max(1) as f64;
        let probability: Vec<f64> = self
            .func
            .ones
            .iter()
            .map(|&o| o as f64 / cycles.max(1) as f64)
            .collect();
        let make = |toggles: &[u64]| ActivityProfile {
            toggles: toggles.iter().map(|&t| t as f64 / denom).collect(),
            probability: probability.clone(),
            cycles,
        };
        TimingActivity {
            total: make(&self.total),
            functional: make(&self.func.toggles),
        }
    }

    /// Switched capacitance per cycle under the *total* (glitch-inclusive)
    /// toggle counts; bit-identical to `switched_capacitance` on the total
    /// profile of [`IncrementalEventSim::activity`].
    pub fn switched_cap(&self) -> f64 {
        let nl = &self.func.nl;
        let fanouts = nl.fanouts();
        let denom = (self.func.cycles.saturating_sub(1)).max(1) as f64;
        let mut total = 0.0;
        for net in nl.iter_nets() {
            let kind = nl.kind(net);
            let fanin = nl.fanins(net).len();
            let mut load = kind.intrinsic_cap(fanin);
            for &sink in &fanouts[net.index()] {
                load += nl.kind(sink).input_cap();
            }
            total += load * (self.total[net.index()] as f64 / denom);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombSim;
    use crate::event::EventSim;
    use crate::stimulus::Stimulus;
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
    fn event_stack_matches_from_scratch_at_every_depth() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(110, 23);
        let packed = PackedPatterns::pack(&patterns);
        let model = DelayModel::Analytic { resolution: 4 };
        let mut engine = IncrementalEventSim::from_full_eval(&nl, &model, &packed);
        let m0 = engine.checkpoint();
        let base = bits(&engine.activity().total);
        // Chain: rewire one gate, then buffer another's fanin.
        let victim = nl
            .iter_nets()
            .find(|&g| nl.kind(g) == GateKind::And)
            .expect("adder has AND gates");
        let mut d1 = Delta::for_netlist(engine.netlist());
        d1.set_gate(victim, GateKind::Or, nl.fanins(victim));
        engine.apply_delta(&d1);
        let m1 = engine.checkpoint();
        let sink = iter_rev(&nl)
            .find(|&g| !nl.kind(g).is_source() && nl.fanins(g).len() >= 2)
            .expect("gate with fanins");
        let mut d2 = Delta::for_netlist(engine.netlist());
        let mut fanins = engine.netlist().fanins(sink).to_vec();
        let buf = d2.add_gate(GateKind::Buf, &[fanins[0]]);
        fanins[0] = buf;
        d2.set_gate(sink, engine.netlist().kind(sink), &fanins);
        engine.apply_delta(&d2);
        // Depth 2 matches a from-scratch run on the doubly-edited netlist.
        let mut edited = nl.clone();
        d1.apply_to(&mut edited);
        d2.apply_to(&mut edited);
        let ref2 = EventSim::new(&edited, &model).activity(&patterns);
        assert_eq!(bits(&engine.activity().total), bits(&ref2.total));
        // Unwind one frame: matches depth 1; unwind home: matches base.
        assert!(engine.rollback_to(m1));
        let mut once = nl.clone();
        d1.apply_to(&mut once);
        let ref1 = EventSim::new(&once, &model).activity(&patterns);
        assert_eq!(bits(&engine.activity().total), bits(&ref1.total));
        assert!(engine.rollback_to(m0));
        assert_eq!(bits(&engine.activity().total), base);
        assert_eq!(engine.netlist().len(), nl.len());
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
        assert_eq!(bits(&a.activity()), bits(&b.activity()));
        assert_eq!(a.switched_cap().to_bits(), b.switched_cap().to_bits());
    }

    #[test]
    fn event_engine_matches_eventsim_through_edits() {
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(150, 9);
        let packed = PackedPatterns::pack(&patterns);
        for model in [DelayModel::Unit, DelayModel::Analytic { resolution: 4 }] {
            let mut engine = IncrementalEventSim::from_full_eval(&nl, &model, &packed);
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
            let mark = engine.checkpoint();
            engine.apply_delta(&delta);
            let mut edited = nl.clone();
            delta.apply_to(&mut edited);
            let edited_ref = EventSim::new(&edited, &model).activity(&patterns);
            let got = engine.activity();
            assert_eq!(bits(&got.total), bits(&edited_ref.total), "{model:?}");
            assert_eq!(bits(&got.functional), bits(&edited_ref.functional));
            // Rolling back restores the original timing activity.
            assert!(engine.rollback_to(mark));
            let back = engine.activity();
            assert_eq!(bits(&back.total), bits(&reference.total));
        }
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
    fn stats_skip_an_apply_the_event_replay_rolls_back() {
        // XOR-XOR-AND: the functional layer re-evaluates three nets within
        // the budget, then the event replay of 256 cycles exceeds it.
        let mut nl = Netlist::new("xxa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x1 = nl.add_gate(GateKind::Xor, &[a, b]);
        let x2 = nl.add_gate(GateKind::Xor, &[x1, c]);
        let y = nl.add_gate(GateKind::And, &[x2, a]);
        nl.mark_output(y, "y");
        let packed = Stimulus::uniform(3).packed(256, 1);
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
        let mut delta = Delta::for_netlist(&nl);
        delta.set_gate(x1, GateKind::Xnor, &[a, b]);
        let tight = ResourceBudget::unlimited().with_max_sim_steps(257);
        assert!(engine.try_apply_delta(&delta, &tight).is_err());
        assert_eq!(engine.stats(), IncrStats::default());
        assert_eq!(obs.snapshot().counter("sim.incr.deltas"), None);
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
        // Rolling back restores everything, including the netlist length.
        assert!(engine.rollback_to(mark));
        assert_eq!(engine.netlist().len(), nl.len());
        let original = CombSim::new(&nl).activity(&patterns);
        assert_eq!(bits(&engine.activity()), bits(&original));
    }
}
