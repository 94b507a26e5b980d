//! Event-driven timing simulation with transport delays.
//!
//! Applies each input vector, propagates events through per-gate delays and
//! counts **every** transition, including the spurious ones caused by
//! unequal path delays. Comparing against the zero-delay count from
//! [`crate::comb`] isolates glitch power — the 10–40% of switching activity
//! the survey attributes to spurious transitions (§III.A.2, \[16\]).

use std::sync::atomic::{AtomicU64, Ordering};

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist, Topology};

use crate::par;
use crate::profile::{ActivityProfile, QueueOccupancy};
use crate::queue::{CalendarQueue, Scheduled};
use crate::stimulus::PatternSet;
use crate::wide::{prefix_mask, LANES};

/// Reusable per-worker buffers for the event loop: net values, the settled
/// state, the calendar queue, its batch/dedup buffers and the dense
/// kernel's windows. Nothing in the hot path allocates once the arena has
/// warmed up, and [`par_map_with`](crate::par::par_map_with) builds one
/// arena per worker thread, not one per shard.
#[derive(Debug, Default)]
pub struct EventArena {
    values: Vec<bool>,
    settled: Vec<bool>,
    queue: CalendarQueue,
    /// Transitions drained from one popped bucket, sorted by net.
    batch: Vec<(u32, bool)>,
    /// Nets in the batch whose value actually changed.
    toggled: Vec<u32>,
    /// The dense kernel's lane words, `LANES` per slot, laid out by
    /// [`WindowPlan`].
    words: Vec<u64>,
    /// One tick's fanin words of an n-ary or `Mux` gate, gathered for
    /// [`GateKind::eval_wide`].
    gather: Vec<u64>,
    /// Each net's window in the current block, cut to its changes.
    live: Vec<Window>,
    /// Per-net stamp (`== sink_epoch`) marking sinks already evaluated for
    /// the current bucket.
    sink_stamp: Vec<u64>,
    sink_epoch: u64,
}

impl EventArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> EventArena {
        EventArena::default()
    }
}

/// Raw integer counts from one contiguous shard of the stream.
struct EventCounts {
    total: Vec<u64>,
    functional: Vec<u64>,
    ones: Vec<u64>,
    /// Events popped off the queue. Every enqueued event is eventually
    /// popped (the per-cycle loop drains the queue), so across a successful
    /// run `processed == enqueued`.
    processed: u64,
    /// Event nodes created (input changes + first-time fanout schedules).
    enqueued: u64,
    /// Pops that caused no transition: evaluations that matched the
    /// current value by the time they applied. Always `<= processed`.
    cancelled: u64,
    /// Work the calendar queue never had to carry: same-instant duplicate
    /// schedules folded into a pending slot, fanout sinks already
    /// evaluated in the current bucket's batch, and no-change evaluations
    /// suppressed at schedule time. The old heap engine enqueued (and
    /// popped, and mostly cancelled) each of these individually, so
    /// `enqueued + coalesced` here equals the old engine's `enqueued`.
    coalesced: u64,
    /// Popped-bucket size histogram (empty unless obs is enabled).
    occupancy: QueueOccupancy,
}

/// One shard's count of processed events, flushed in batches to the
/// run's shared tally, which the step limit is checked against.
struct StepMeter<'s> {
    shared: &'s AtomicU64,
    limit: u64,
    local: u64,
}

impl StepMeter<'_> {
    /// Move the local count, if any, into the shared tally and poll the
    /// deadline; fail once the tally reaches the limit.
    fn flush(&mut self, budget: &ResourceBudget) -> Result<(), BudgetExceeded> {
        if self.local > 0 {
            let tally = self.shared.fetch_add(self.local, Ordering::Relaxed) + self.local;
            self.local = 0;
            if tally >= self.limit {
                return Err(budget.sim_steps_exceeded(tally));
            }
        }
        budget.check_deadline()
    }
}

/// The `LANES` words of arena slot `s`.
#[inline(always)]
fn slot(words: &[u64], s: usize) -> [u64; LANES] {
    let w = &words[s * LANES..][..LANES];
    std::array::from_fn(|l| w[l])
}

/// Write window `w` of a one- or two-input gate from its fanins' windows
/// `wa` and `wb`: slot `k` applies the truth table `lut`, in algebraic
/// normal form `f(a, b) = c ^ a·ca ^ b·cb ^ a·b·cab` as a branch-free mask
/// select, to the fanins' words at tick `w.start + k - 1`.
#[inline(never)]
fn lut_window(words: &mut [u64], w: Window, wa: Window, wb: Window, lut: u32) {
    let row = |r: u32| 0u64.wrapping_sub(u64::from(lut >> r & 1));
    let (c, ca, cb) = (row(0), row(0) ^ row(2), row(0) ^ row(1));
    let cab = ca ^ row(1) ^ row(3);
    for k in 0..=w.len {
        let t = w.start - 1 + k;
        let (x, y) = (slot(words, wa.at(t)), slot(words, wb.at(t)));
        let v: [u64; LANES] =
            std::array::from_fn(|l| c ^ (x[l] & ca) ^ (y[l] & cb) ^ (x[l] & y[l] & cab));
        words[(w.base + k) as usize * LANES..][..LANES].copy_from_slice(&v);
    }
}

/// Set bits in `LANES` words.
#[inline(always)]
fn popcount(v: [u64; LANES]) -> u64 {
    v.iter().map(|x| u64::from(x.count_ones())).sum()
}

/// Patterns per dense block and per shard unit: one lane bit each.
const BLOCK: usize = 64 * LANES;

/// Window slots the dense kernel evaluates between two step-tally flushes.
const POLL_SLOTS: usize = 1 << 16;

/// Where the dense kernel keeps one net's lane words: slots `base ..=
/// base + len`, holding the net's value at ticks `start ..= start + len`.
/// Ticks count from 1, the inputs' switch; the net holds slot 0's value
/// (its initial settled word) before `start` and its last slot's after.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    start: u32,
    len: u32,
    base: u32,
}

impl Window {
    /// Arena slot of this net's value at tick `t`.
    #[inline(always)]
    fn at(self, t: u32) -> usize {
        (self.base + t.saturating_sub(self.start).min(self.len)) as usize
    }

    /// The window at arena slot `base` of a gate whose fanins change in
    /// `fanins`: it can change one tick after any of them does.
    #[inline(always)]
    fn spanning(fanins: impl IntoIterator<Item = Window>, base: u32) -> Window {
        let (mut start, mut end) = (u32::MAX, 0);
        for f in fanins.into_iter().filter(|f| f.len > 0) {
            start = start.min(f.start + 1);
            end = end.max(f.start + f.len + 1);
        }
        // No fanin changes: start at 1, so the kernel's `start - 1` holds.
        let (start, len) = (start.min(end.max(1)), end.saturating_sub(start));
        Window { start, len, base }
    }

    /// This window cut to the ticks where its `words` change (the slot
    /// before the first change still holds the initial word).
    fn trimmed(mut self, words: &[u64]) -> Window {
        let changes = |k: &u32| slot(words, *k as usize) != slot(words, *k as usize - 1);
        let Some(first) = (1..=self.len).find(changes) else {
            return Window { len: 0, ..self };
        };
        let last = (first..=self.len).rev().find(changes).unwrap_or(first);
        let skip = first - 1;
        (self.start, self.base, self.len) = (self.start + skip, self.base + skip, last - skip);
        self
    }
}

/// The dense kernel's layout, planned once per uniform-delay simulator:
/// every net's [`Window`] and the arena size. Input `j` owns slots `2j`
/// and `2j + 1` (before and after its switch); the arena holds only the
/// live frontier of the topological walk.
#[derive(Debug)]
struct WindowPlan {
    windows: Vec<Window>,
    slots: usize,
}

impl WindowPlan {
    /// Walk the kernel's topological order once: span each gate's window
    /// over its fanins', give it the lowest free run of slots that holds
    /// it (first fit), and free a net's run once its last fanout has taken
    /// its own, or at once if nothing reads it.
    fn new(sim: &EventSim) -> WindowPlan {
        /// Return `w`'s run to the address-ordered list, merging neighbours.
        fn release(free: &mut Vec<(u32, u32)>, w: Window) {
            let (base, size) = (w.base, w.len + 1);
            let i = free.partition_point(|&(b, _)| b < base);
            if base + size == free[i].0 {
                free[i] = (base, size + free[i].1);
            } else {
                free.insert(i, (base, size));
            }
            if i > 0 && free[i - 1].0 + free[i - 1].1 == base {
                free[i - 1].1 += free[i].1;
                free.remove(i);
            }
        }
        let inputs = 2 * sim.nl.num_inputs() as u32;
        let mut windows = vec![Window::default(); sim.kinds.len()];
        for (j, &pi) in sim.nl.inputs().iter().enumerate() {
            (windows[pi.index()].len, windows[pi.index()].base) = (1, 2 * j as u32);
        }
        // The last run is the arena's unused top: it never runs out.
        let mut free = vec![(inputs, u32::MAX / 2)];
        // Fanout edges not yet evaluated, per net; inputs are never freed.
        let mut unread = vec![u32::MAX; windows.len()];
        let mut top = inputs;
        for &net in sim.topo.order() {
            let si = net.index();
            if sim.kinds[si] == GateKind::Input {
                continue;
            }
            let fanins = sim.fanins(si).iter().map(|&f| windows[f as usize]);
            let w = Window::spanning(fanins, 0);
            let size = w.len + 1;
            let i = free.iter().position(|&(_, len)| len >= size);
            let i = i.unwrap_or(free.len() - 1);
            let (base, len) = free[i];
            if len == size {
                free.remove(i);
            } else {
                free[i] = (base + size, len - size);
            }
            (windows[si], top) = (Window { base, ..w }, top.max(base + size));
            unread[si] = sim.topo.fanouts(net).len() as u32;
            if unread[si] == 0 {
                release(&mut free, windows[si]);
            }
            for &f in sim.fanins(si) {
                let f = f as usize;
                unread[f] = unread[f].wrapping_sub(1);
                if unread[f] == 0 {
                    release(&mut free, windows[f]);
                }
            }
        }
        WindowPlan {
            windows,
            slots: top as usize,
        }
    }
}

/// How per-gate delays are assigned.
#[derive(Debug, Clone)]
pub enum DelayModel {
    /// Every gate has delay 1 (buffers included).
    Unit,
    /// Analytic delays: `base_delay(kind, fanin)` scaled to integer ticks.
    Analytic {
        /// Ticks per delay unit (resolution of the analytic model).
        resolution: u32,
    },
    /// Explicit per-net delays in ticks (indexed by raw net id).
    PerNet(Vec<u32>),
}

impl DelayModel {
    pub(crate) fn delay(&self, nl: &Netlist, net: NetId) -> u32 {
        match self {
            DelayModel::Unit => 1,
            DelayModel::Analytic { resolution } => {
                let kind = nl.kind(net);
                let fanin = nl.fanins(net).len();
                ((kind.base_delay(fanin) * *resolution as f64).round() as u32).max(1)
            }
            DelayModel::PerNet(d) => d[net.index()].max(1),
        }
    }
}

/// Result of a timing simulation.
#[derive(Debug, Clone)]
pub struct TimingActivity {
    /// All transitions per net per cycle (functional + spurious).
    pub total: ActivityProfile,
    /// Functional (zero-delay) transitions per net per cycle.
    pub functional: ActivityProfile,
}

impl TimingActivity {
    /// Glitch (spurious) transitions per cycle on net `i`.
    pub fn glitch_rate(&self, net: NetId) -> f64 {
        (self.total.toggles[net.index()] - self.functional.toggles[net.index()]).max(0.0)
    }

    /// Total glitch transitions per cycle over all nets.
    pub fn total_glitches_per_cycle(&self) -> f64 {
        self.total
            .toggles
            .iter()
            .zip(self.functional.toggles.iter())
            .map(|(t, f)| (t - f).max(0.0))
            .sum()
    }

    /// Fraction of all transitions that are spurious (the §III.A.2 number).
    pub fn glitch_fraction(&self) -> f64 {
        let total = self.total.total_toggles_per_cycle();
        if total == 0.0 {
            0.0
        } else {
            self.total_glitches_per_cycle() / total
        }
    }
}

/// Event-driven simulator bound to one combinational netlist.
///
/// ```
/// use netlist::gen::array_multiplier;
/// use sim::event::{DelayModel, EventSim};
/// use sim::stimulus::Stimulus;
///
/// let (mult, _) = array_multiplier(4);
/// let patterns = Stimulus::uniform(8).patterns(200, 1);
/// let timing = EventSim::new(&mult, &DelayModel::Unit).activity(&patterns);
/// // Array multipliers glitch heavily (survey §III.A.2).
/// assert!(timing.glitch_fraction() > 0.1);
/// ```
#[derive(Debug)]
pub struct EventSim<'a> {
    nl: &'a Netlist,
    /// Topological order and fanout lists (CSR), from one
    /// [`Netlist::topology`] pass.
    topo: Topology,
    /// Flat copies of the netlist's per-net tables in CSR layout. The
    /// event hot loop reads only these contiguous arrays — gate kind,
    /// fanin ids and fanout ids are each one indexed load away, with none
    /// of the netlist's per-gate vector indirections.
    kinds: Vec<GateKind>,
    fanin_off: Vec<u32>,
    fanin_idx: Vec<u32>,
    /// One packed record per net for the drain loop: a sink evaluation is
    /// one 16-byte load plus two value loads and a shift.
    sinks: Vec<SinkEval>,
    /// Largest per-net delay; sizes the calendar queue's wheel.
    max_delay: u32,
    /// Present when every net has the same delay: event propagation is
    /// then synchronous relaxation, and runs without a queue limit take
    /// the dense kernel (see [`EventSim::window_block`]).
    plan: Option<WindowPlan>,
    obs: obs::Obs,
}

/// Packed evaluation record for one net, sized to four per cache line.
///
/// Gates with one or two fanins — the overwhelming majority of real
/// netlists — evaluate as a 4-entry truth table: `lut >> ((a << 1) | b)`,
/// no gate-kind match, no fanin-slice walk. One-input gates duplicate
/// their fanin into both slots so only the `a == b` LUT rows are ever
/// addressed. `a == GENERIC` routes wider gates (e.g. `Mux`, n-ary
/// `And`/`Xor`) to [`EventSim::eval_net`]. `delay` rides along so the
/// reschedule that follows every evaluation hits the same cache line.
#[derive(Debug, Clone, Copy)]
struct SinkEval {
    a: u32,
    b: u32,
    lut: u32,
    delay: u32,
}

/// Marker in [`SinkEval::a`] for nets outside the 2-input LUT fast path.
const GENERIC: u32 = u32::MAX;

impl<'a> EventSim<'a> {
    /// Bind a simulator with the given delay model.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or cyclic.
    pub fn new(nl: &'a Netlist, model: &DelayModel) -> EventSim<'a> {
        assert!(
            nl.is_combinational(),
            "EventSim requires combinational netlist"
        );
        let topo = nl.topology().expect("netlist must be acyclic");
        let n = nl.len();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin_idx = Vec::new();
        let mut sinks = Vec::with_capacity(n);
        let (mut min_delay, mut max_delay) = (u32::MAX, 1);
        fanin_off.push(0u32);
        for net in nl.iter_nets() {
            let (kind, ins) = (nl.kind(net), nl.fanins(net));
            kinds.push(kind);
            fanin_idx.extend(ins.iter().map(|x| x.index() as u32));
            fanin_off.push(fanin_idx.len() as u32);
            let delay = model.delay(nl, net);
            (min_delay, max_delay) = (min_delay.min(delay), max_delay.max(delay));
            // Row `(a << 1) | b` of the truth table is bit 1 of 0b1100 and
            // bit 0 of 0b1010; a one-input gate reads its fanin as both.
            let lut = |rows: &[u64]| kind.eval_wide::<1>(rows)[0] as u32 & 0b1111;
            let (a, b, lut) = match *ins {
                [a] => (a.index() as u32, a.index() as u32, lut(&[0b1100])),
                [a, b] => (a.index() as u32, b.index() as u32, lut(&[0b1100, 0b1010])),
                _ => (GENERIC, 0, 0),
            };
            sinks.push(SinkEval { a, b, lut, delay });
        }
        let mut sim = EventSim {
            nl,
            topo,
            kinds,
            fanin_off,
            fanin_idx,
            sinks,
            max_delay,
            plan: None,
            obs: obs::Obs::disabled(),
        };
        if min_delay >= max_delay {
            // One delay everywhere (or no nets at all).
            sim.plan = Some(WindowPlan::new(&sim));
        }
        sim
    }

    /// The fanin ids of net `si`, off the CSR tables.
    #[inline(always)]
    fn fanins(&self, si: usize) -> &[u32] {
        &self.fanin_idx[self.fanin_off[si] as usize..self.fanin_off[si + 1] as usize]
    }

    /// Evaluate net `si` straight off the CSR tables, reading fanin values
    /// in place — no gather into a scratch buffer. Matches
    /// [`GateKind::eval`] exactly for every evaluable kind.
    ///
    /// The n-ary kinds fold with non-short-circuiting `&`/`|`/`^`: fanin
    /// values are effectively random, so `all`/`any`-style early exits
    /// would cost a mispredicted branch per fanin where the plain bit op
    /// costs one ALU instruction.
    #[inline(always)]
    fn eval_net(&self, si: usize, values: &[bool]) -> bool {
        let ins = self.fanins(si);
        match self.kinds[si] {
            GateKind::And => ins.iter().fold(true, |a, &x| a & values[x as usize]),
            GateKind::Or => ins.iter().fold(false, |a, &x| a | values[x as usize]),
            GateKind::Nand => !ins.iter().fold(true, |a, &x| a & values[x as usize]),
            GateKind::Nor => !ins.iter().fold(false, |a, &x| a | values[x as usize]),
            GateKind::Not => !values[ins[0] as usize],
            GateKind::Buf | GateKind::Dff => values[ins[0] as usize],
            GateKind::Xor => ins.iter().fold(false, |a, &x| a ^ values[x as usize]),
            GateKind::Xnor => !ins.iter().fold(false, |a, &x| a ^ values[x as usize]),
            GateKind::Mux => {
                if values[ins[0] as usize] {
                    values[ins[2] as usize]
                } else {
                    values[ins[1] as usize]
                }
            }
            GateKind::Const(v) => v,
            // Inputs have no fanin and are never anyone's fanout sink.
            GateKind::Input => {
                debug_assert!(false, "inputs are never evaluated as sinks");
                values[si]
            }
        }
    }

    /// Attach an observability handle. Event counters (`sim.event.cycles`,
    /// `.processed`, `.enqueued`, `.cancelled`, `.coalesced`) accumulate as
    /// plain `u64`s inside each shard and flush once per successful
    /// activity run, along with the `sim.event.occupancy.*` bucket-size
    /// histogram gauges. The histogram profiles the queue, so runs that
    /// take the dense kernel (uniform delays, no event-queue limit) report
    /// counters only.
    pub fn with_obs(mut self, obs: obs::Obs) -> EventSim<'a> {
        self.obs = obs;
        self
    }

    /// Settle every gate in topological order through [`EventSim::eval_net`].
    fn settle(&self, values: &mut [bool]) {
        for &net in self.topo.order() {
            let si = net.index();
            if self.kinds[si] != GateKind::Input {
                values[si] = self.eval_net(si, values);
            }
        }
    }

    /// Cross-check that `values` is the settled state of `pattern` (the
    /// invariant the settled-diff functional counting rests on).
    #[cfg(debug_assertions)]
    fn debug_check_settled(&self, pattern: &[bool], values: &[bool]) {
        let mut chk = vec![false; values.len()];
        self.apply_and_settle(pattern, &mut chk);
        debug_assert_eq!(chk, values, "event sim must settle to functional values");
    }

    /// Apply `pattern` to the inputs of `values` and settle in place.
    fn apply_and_settle(&self, pattern: &[bool], values: &mut [bool]) {
        assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = pattern[i];
        }
        self.settle(values);
    }

    /// Simulate up to [`BLOCK`] cycle transitions word-parallel (lane bit
    /// `k` = the transition into `chunk[k]` from the pattern before it).
    ///
    /// Under a uniform delay, event propagation *is* synchronous
    /// relaxation: with the inputs switching at tick 1, a gate's value at
    /// tick `t` is its function of its fanins' values at tick `t - 1`. A
    /// net can change only inside its [`Window`], so one walk of the
    /// topological order writes each net's waveform in one contiguous
    /// loop from its fanins' windows, cut to the ticks where they changed.
    ///
    /// Toggles are popcounts of consecutive words of a window, functional
    /// toggles and signal probabilities of its first and last word (only
    /// `ones` needs the valid-lane mask: padding lanes never switch). The
    /// event counters derive from the toggles and equal the queue's: an
    /// event is enqueued and processed exactly when a net toggles; each
    /// lane toggle of `u` visits `u`'s fanout edges one tick later, and
    /// every visit that enqueues no gate toggle is coalesced; with one
    /// delay no pop is cancelled. The toggles flush to the step tally, and
    /// the deadline is polled, every [`POLL_SLOTS`] slots and at block
    /// end, so a step limit fails the run exactly when the queue's does.
    #[allow(clippy::too_many_arguments)]
    fn window_block(
        &self,
        plan: &WindowPlan,
        prev: &[bool],
        chunk: &[Vec<bool>],
        arena: &mut EventArena,
        counts: &mut EventCounts,
        meter: &mut StepMeter,
        budget: &ResourceBudget,
    ) -> Result<(), BudgetExceeded> {
        const L: usize = LANES;
        let m = chunk.len();
        debug_assert!((1..=BLOCK).contains(&m));
        let valid = prefix_mask::<L>(m);
        let inputs = self.nl.num_inputs();
        arena.words.resize(plan.slots * L, 0);
        let words = &mut arena.words[..];
        words[..2 * inputs * L].fill(0);
        for (k, pattern) in chunk.iter().enumerate() {
            let before = if k == 0 { prev } else { &chunk[k - 1] };
            for j in 0..inputs {
                words[2 * j * L + k / 64] |= (before[j] as u64) << (k % 64);
                words[(2 * j + 1) * L + k / 64] |= (pattern[j] as u64) << (k % 64);
            }
        }
        if cfg!(debug_assertions) {
            arena.values.resize(self.nl.len(), false);
        }
        arena.live.resize(self.nl.len(), Window::default());
        let live = &mut arena.live[..];
        let mut polled = 0;
        for &net in self.topo.order() {
            let si = net.index();
            let base = plan.windows[si].base;
            // Slot k holds tick `w.start + k`; inputs are already packed.
            let e = self.sinks[si];
            let w = if e.a != GENERIC {
                let (wa, wb) = (live[e.a as usize], live[e.b as usize]);
                let w = Window::spanning([wa, wb], base);
                lut_window(words, w, wa, wb, e.lut);
                w
            } else if self.kinds[si] != GateKind::Input {
                let ins = self.fanins(si);
                let w = Window::spanning(ins.iter().map(|&f| live[f as usize]), base);
                arena.gather.resize(ins.len() * L, 0);
                for k in 0..=w.len {
                    let t = w.start - 1 + k;
                    for (i, &f) in ins.iter().enumerate() {
                        let x = slot(words, live[f as usize].at(t));
                        arena.gather[i * L..][..L].copy_from_slice(&x);
                    }
                    let v = self.kinds[si].eval_wide::<L>(&arena.gather);
                    words[(base + k) as usize * L..][..L].copy_from_slice(&v);
                }
                w
            } else {
                plan.windows[si]
            };
            let len = w.len as usize;
            let window = &words[w.base as usize * L..][..(len + 1) * L];
            let deltas = window.iter().zip(&window[L..]);
            let toggles: u64 = deltas.map(|(x, y)| u64::from((x ^ y).count_ones())).sum();
            let (first, last) = (slot(window, 0), slot(window, len));
            // A window of one tick has one delta, `first ^ last`.
            counts.functional[si] += match len {
                0 | 1 => toggles,
                _ => popcount(std::array::from_fn(|l| first[l] ^ last[l])),
            };
            counts.ones[si] += popcount(std::array::from_fn(|l| last[l] & valid[l]));
            counts.total[si] += toggles;
            meter.local += toggles;
            if cfg!(debug_assertions) {
                arena.values[si] = last[(m - 1) / 64] >> ((m - 1) % 64) & 1 != 0;
            }
            live[si] = w.trimmed(window);
            polled += len + 1;
            if polled >= POLL_SLOTS {
                polled = 0;
                meter.flush(budget)?;
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_settled(&chunk[m - 1], &arena.values);
        meter.flush(budget)
    }

    /// Count transitions over one contiguous shard.
    ///
    /// The shard's first transition starts from `prev_pattern`, the
    /// pattern just before the shard (uncounted: its shard counted its
    /// cycle), or for the stream's first shard from `patterns[0]` itself,
    /// so cycle 0 is a transition that changes nothing and counts only its
    /// signal probabilities. A combinational settled state depends only on
    /// the current pattern, so one settle reconstructs exactly the state
    /// the serial run would have carried in: shards are embarrassingly
    /// parallel and the merged counts stay bit-identical.
    ///
    /// Uniform-delay runs without an event-queue limit go through
    /// [`EventSim::window_block`], [`BLOCK`] transitions per chunk, and
    /// derive their event counters from the toggles. Every other run
    /// drains the calendar queue pattern by pattern. Events processed
    /// count toward the shared `steps` tally (flushed every 1024 pops on
    /// the queue and every [`POLL_SLOTS`] window slots and block in the
    /// dense kernel, so the atomic stays off the per-event path); queue
    /// length is compared against the pre-resolved limit before every
    /// node creation (one register compare); the wall clock is polled once
    /// per cycle and once per flush. Unlike the cycle-based engines,
    /// event-driven cost is unknowable up front — a glitchy circuit can
    /// schedule orders of magnitude more events than cycles — so these are
    /// the runtime guards that make the engine safe to call under a budget
    /// at all.
    ///
    /// The queue loop drains the calendar queue one *timestamp* at a time:
    /// first every transition in the bucket is applied (they touch
    /// distinct nets, so application order is immaterial), then each
    /// distinct fanout sink is evaluated exactly once and rescheduled.
    /// This is bit-identical to the old per-event loop: the heap's
    /// peek-ahead coalescing kept only the last same-instant evaluation of
    /// a sink, which — because events at one instant popped in net order —
    /// was always the one that saw every same-instant fanin transition
    /// already applied. Evaluating once after applying the whole batch
    /// computes exactly that value, while skipping the redundant earlier
    /// evaluations instead of enqueueing and cancelling them.
    fn shard_counts(
        &self,
        prev_pattern: Option<&[bool]>,
        patterns: &[Vec<bool>],
        arena: &mut EventArena,
        budget: &ResourceBudget,
        steps: &AtomicU64,
    ) -> Result<EventCounts, BudgetExceeded> {
        const FLUSH: u64 = 1024;
        let max_queue = budget.max_event_queue_or(u64::MAX);
        let mut meter = StepMeter {
            shared: steps,
            limit: budget.max_sim_steps_or(u64::MAX),
            local: 0,
        };
        let n = self.nl.len();
        // A queue-length limit is enforced on the queue, so only runs
        // without one may take the dense kernel.
        let plan = self.plan.as_ref().filter(|_| max_queue == u64::MAX);
        // The occupancy histogram profiles the *queue*: it is recorded only
        // on runs that use it. The choice depends on the delay model and
        // budget, never on sharding, so the gauges stay `--jobs` invariant.
        let record_occupancy = self.obs.is_enabled() && plan.is_none();
        let mut counts = EventCounts {
            total: vec![0u64; n],
            functional: vec![0u64; n],
            ones: vec![0u64; n],
            processed: 0,
            enqueued: 0,
            cancelled: 0,
            coalesced: 0,
            occupancy: QueueOccupancy::default(),
        };
        let Some(first) = patterns.first() else {
            return Ok(counts);
        };
        let seed = prev_pattern.unwrap_or(first);
        for pattern in std::iter::once(seed).chain(patterns.iter().map(Vec::as_slice)) {
            assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
        }
        if let Some(plan) = plan {
            let mut prev = seed;
            for chunk in patterns.chunks(BLOCK) {
                self.window_block(plan, prev, chunk, arena, &mut counts, &mut meter, budget)?;
                prev = &chunk[chunk.len() - 1];
            }
            // Derived, not traced (see `window_block`).
            let (mut visits, mut gate_events) = (0, 0);
            for &x in self.topo.order() {
                let toggles = counts.total[x.index()];
                visits += self.topo.fanouts(x).len() as u64 * toggles;
                gate_events += toggles * u64::from(self.kinds[x.index()] != GateKind::Input);
                counts.processed += toggles;
            }
            (counts.enqueued, counts.coalesced) = (counts.processed, visits - gate_events);
            return Ok(counts);
        }
        arena.sink_stamp.clear();
        arena.sink_stamp.resize(n, 0);
        arena.sink_epoch = 0;
        arena.values.clear();
        arena.values.resize(n, false);
        arena.settled.clear();
        arena.settled.resize(n, false);
        arena.queue.reset(n, self.max_delay);
        self.apply_and_settle(seed, &mut arena.values);
        for pattern in patterns {
            budget.check_deadline()?;
            // Snapshot the previous settled state. Functional toggles are
            // the settled-to-settled diff, and the event loop provably
            // converges to the zero-delay settled state — so the diff is
            // taken after the queue drains, replacing the full per-cycle
            // settle pass the old engine ran just to count them.
            arena.settled.copy_from_slice(&arena.values);
            // Event-driven propagation from the input changes.
            arena.queue.begin_cycle();
            for (i, &pi) in self.nl.inputs().iter().enumerate() {
                if arena.values[pi.index()] != pattern[i] {
                    if arena.queue.pending() >= max_queue {
                        return Err(budget.event_queue_exceeded(arena.queue.pending() + 1));
                    }
                    arena.queue.schedule(pi.index() as u32, 0, pattern[i]);
                    counts.enqueued += 1;
                }
            }
            while let Some(time) = arena.queue.pop_bucket(&mut arena.batch) {
                if record_occupancy {
                    counts.occupancy.record(arena.batch.len());
                }
                counts.processed += arena.batch.len() as u64;
                meter.local += arena.batch.len() as u64;
                if meter.local >= FLUSH {
                    meter.flush(budget)?;
                }
                // Apply the whole batch (one entry per net), remembering
                // which nets actually changed.
                arena.toggled.clear();
                for &(raw, value) in &arena.batch {
                    let i = raw as usize;
                    if arena.values[i] == value {
                        counts.cancelled += 1;
                        continue;
                    }
                    arena.values[i] = value;
                    counts.total[i] += 1;
                    arena.toggled.push(raw);
                }
                // Evaluate each distinct sink of the changed nets once.
                arena.sink_epoch += 1;
                for &raw in &arena.toggled {
                    for &sink in self.topo.fanouts(NetId::from_index(raw as usize)) {
                        let si = sink.index();
                        if arena.sink_stamp[si] == arena.sink_epoch {
                            counts.coalesced += 1;
                            continue;
                        }
                        arena.sink_stamp[si] = arena.sink_epoch;
                        let e = self.sinks[si];
                        let out = if e.a != GENERIC {
                            let row = ((arena.values[e.a as usize] as u32) << 1)
                                | arena.values[e.b as usize] as u32;
                            e.lut >> row & 1 != 0
                        } else {
                            self.eval_net(si, &arena.values)
                        };
                        let t = time + e.delay as u64;
                        if arena.queue.pending() >= max_queue {
                            return Err(budget.event_queue_exceeded(arena.queue.pending() + 1));
                        }
                        // No-change outputs on a sink with no pending
                        // event are suppressed inside the queue (the old
                        // engine enqueued, popped and cancelled them).
                        match arena.queue.schedule_transition(
                            si as u32,
                            t,
                            out,
                            out == arena.values[si],
                        ) {
                            Scheduled::New => counts.enqueued += 1,
                            Scheduled::Coalesced | Scheduled::Suppressed => counts.coalesced += 1,
                        }
                    }
                }
            }
            // Functional toggles and signal probabilities from the
            // settled-state diff.
            for i in 0..n {
                counts.functional[i] += (arena.settled[i] != arena.values[i]) as u64;
                counts.ones[i] += arena.values[i] as u64;
            }
            #[cfg(debug_assertions)]
            self.debug_check_settled(pattern, &arena.values);
        }
        meter.flush(budget)?;
        Ok(counts)
    }

    /// Simulate a pattern stream and return total + functional activity.
    ///
    /// Each vector is applied after the previous one has fully settled
    /// (transport-delay semantics, no inertial filtering — a conservative
    /// upper bound on glitching, as in \[16\]).
    pub fn activity(&self, patterns: &PatternSet) -> TimingActivity {
        self.activity_jobs(patterns, 1)
    }

    /// [`EventSim::activity`] under a [`ResourceBudget`] (serial).
    pub fn try_activity(
        &self,
        patterns: &PatternSet,
        budget: &ResourceBudget,
    ) -> Result<TimingActivity, BudgetExceeded> {
        self.try_activity_jobs(patterns, 1, budget)
    }

    /// [`EventSim::activity`] sharded over up to `jobs` worker threads
    /// (`0` = all cores).
    ///
    /// Each shard re-settles the pattern preceding it (combinational state
    /// has no deeper history) and then simulates its cycles with a private
    /// arena; integer counts merge in fixed shard order, so the result is
    /// **bit-identical** to the serial run for every thread count.
    pub fn activity_jobs(&self, patterns: &PatternSet, jobs: usize) -> TimingActivity {
        match self.try_activity_jobs(patterns, jobs, &ResourceBudget::unlimited()) {
            Ok(a) => a,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`EventSim::activity_jobs`] under a [`ResourceBudget`].
    ///
    /// The step limit counts *events processed* (summed across shards via
    /// a shared counter, flushed every 1024 pops on the queue and every
    /// 65,536 window slots and block in the dense kernel), the queue limit
    /// bounds the pending events of each shard's calendar queue, and the
    /// deadline is polled per cycle and per flush. On exhaustion the run
    /// stops with a typed [`BudgetExceeded`]; a successful run is
    /// bit-identical to the unbudgeted one.
    pub fn try_activity_jobs(
        &self,
        patterns: &PatternSet,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<TimingActivity, BudgetExceeded> {
        let n = self.nl.len();
        budget.check_deadline()?;
        let steps = AtomicU64::new(0);
        // Work items are blocks of the dense kernel's lane width, as in
        // `CombSim`: at most one shard per block, and only the stream's
        // last block is partial. Shard `s` covers patterns `[a, b)` of
        // whole blocks, seeded by `patterns[a - 1]` (shard 0 by none).
        let blocks = patterns.len().div_ceil(BLOCK).max(1);
        let shards = par::num_threads(jobs).min(blocks);
        // One shard's work: (uncounted seed pattern, counted patterns).
        type Shard<'a> = (Option<&'a [bool]>, &'a [Vec<bool>]);
        let work: Vec<Shard> = par::shard_ranges(blocks, shards)
            .into_iter()
            .map(|r| {
                let (a, b) = (r.start * BLOCK, (r.end * BLOCK).min(patterns.len()));
                (
                    a.checked_sub(1).map(|s| patterns[s].as_slice()),
                    &patterns[a..b],
                )
            })
            .collect();
        if self.obs.is_enabled() {
            let sizes: Vec<usize> = work.iter().map(|(_, slice)| slice.len().max(1)).collect();
            par::record_shard_gauges(&self.obs, "event", &sizes);
        }
        // Shards reuse one arena per worker thread (par_map_with), so
        // queue wheels and window arenas warm up once per core.
        let counts =
            par::par_map_with(&work, shards, EventArena::new, |_, (prev, slice), arena| {
                self.shard_counts(*prev, slice, arena, budget, &steps)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        // Fixed-order deterministic reduction.
        let mut total = vec![0u64; n];
        let mut functional = vec![0u64; n];
        let mut ones = vec![0u64; n];
        for c in &counts {
            for i in 0..n {
                total[i] += c.total[i];
                functional[i] += c.functional[i];
                ones[i] += c.ones[i];
            }
        }
        if self.obs.is_enabled() {
            // Event totals are thread-count invariant: each shard replays
            // exactly the event waves the serial run would, so the merged
            // sums match for every `jobs` setting. Only successful runs
            // flush (an exhausted budget abandons partial shard counts).
            self.obs.add("sim.event.cycles", patterns.len() as u64);
            self.obs.add(
                "sim.event.processed",
                counts.iter().map(|c| c.processed).sum(),
            );
            self.obs.add(
                "sim.event.enqueued",
                counts.iter().map(|c| c.enqueued).sum(),
            );
            self.obs.add(
                "sim.event.cancelled",
                counts.iter().map(|c| c.cancelled).sum(),
            );
            self.obs.add(
                "sim.event.coalesced",
                counts.iter().map(|c| c.coalesced).sum(),
            );
            let mut occupancy = QueueOccupancy::default();
            for c in &counts {
                occupancy.merge(&c.occupancy);
            }
            occupancy.flush(&self.obs);
        }
        let cycles = patterns.len();
        let denom = cycles.saturating_sub(1).max(1) as f64;
        let make = |toggles: Vec<u64>| ActivityProfile {
            toggles: toggles.iter().map(|&t| t as f64 / denom).collect(),
            probability: ones
                .iter()
                .map(|&o| o as f64 / cycles.max(1) as f64)
                .collect(),
            cycles,
        };
        Ok(TimingActivity {
            total: make(total),
            functional: make(functional),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::Stimulus;
    use netlist::gen::{
        alu4, array_multiplier, carry_select_adder, parity_tree, random_dag, ripple_adder,
        RandomDagConfig,
    };

    fn glitchy_pair() -> netlist::Netlist {
        // y = a & !a through different depths: a classic static-1 hazard
        // shape, y = (a AND b) where b = NOT(NOT(NOT a)) — when a rises,
        // the AND sees (1, old 1) briefly.
        let mut nl = netlist::Netlist::new("hazard");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(netlist::GateKind::Not, &[a]);
        let n2 = nl.add_gate(netlist::GateKind::Not, &[n1]);
        let n3 = nl.add_gate(netlist::GateKind::Not, &[n2]);
        let y = nl.add_gate(netlist::GateKind::And, &[a, n3]);
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn hazard_produces_glitches() {
        let nl = glitchy_pair();
        let patterns: PatternSet = (0..50).map(|k| vec![k % 2 == 1]).collect();
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        let activity = sim.activity(&patterns);
        // Functionally y is always 0 (a & !a), so functional toggles = 0,
        // but rising a reaches the AND before the inverter chain flips.
        let y = nl.outputs()[0].0;
        assert!(activity.functional.toggles[y.index()] < 1e-9);
        assert!(
            activity.total.toggles[y.index()] > 0.5,
            "glitch rate {}",
            activity.total.toggles[y.index()]
        );
        assert!(activity.glitch_fraction() > 0.0);
    }

    #[test]
    fn event_sim_settles_to_functional_values() {
        let (nl, _) = ripple_adder(6);
        let patterns = Stimulus::uniform(12).patterns(50, 17);
        let sim = EventSim::new(&nl, &DelayModel::Analytic { resolution: 4 });
        // The debug_assert inside activity() verifies settling every cycle.
        let activity = sim.activity(&patterns);
        // Total >= functional on every net.
        for i in 0..nl.len() {
            assert!(
                activity.total.toggles[i] >= activity.functional.toggles[i] - 1e-9,
                "net {i}"
            );
        }
    }

    /// The dense kernel's test circuits: two-input gates only (the
    /// multiplier), n-ary gates with duplicate fanins and inverters (random
    /// DAGs with fanin up to 5), constants and `Mux` (the carry-select
    /// adder, whose speculative chains start from constants, and alu4),
    /// and a gate fed only by constants, which has no window.
    fn kernel_circuits() -> Vec<netlist::Netlist> {
        let mut consts = netlist::Netlist::new("consts");
        let (x, y) = (consts.add_input("x"), consts.add_input("y"));
        let (one, zero) = (consts.add_const(true), consts.add_const(false));
        let k = consts.add_gate(GateKind::Xor, &[one, zero]);
        let g = consts.add_gate(GateKind::And, &[k, x]);
        let h = consts.add_gate(GateKind::Or, &[g, y, k]);
        consts.mark_output(h, "h");
        consts.mark_output(k, "k");
        let dag = |seed| {
            let config = RandomDagConfig {
                inputs: 12,
                gates: 150,
                outputs: 8,
                max_fanin: 5,
                window: 30,
            };
            random_dag(&config, seed)
        };
        vec![
            array_multiplier(5).0,
            dag(1),
            dag(2),
            dag(3),
            carry_select_adder(8, 3).0,
            alu4(4),
            consts,
        ]
    }

    #[test]
    fn dense_kernel_matches_calendar_queue_bit_exactly() {
        // With no queue limit a uniform-delay run takes the dense kernel
        // (a step limit keeps it there); a roomy queue limit sends the same
        // patterns through the calendar queue. Every activity number and
        // every derived event counter must agree exactly. 257
        // and 300 patterns are a full 256-lane block plus a one-lane or a
        // masked 44-lane block, so the block-chaining handoff and the
        // ragged tail are covered too; 1 and 2 patterns are a stream whose
        // one lane is cycle 0 (a transition from itself) and one with a
        // single real transition. A seeded shard (every
        // shard after the first) starts from the pattern before it without
        // counting that pattern's cycle.
        let unlimited = ResourceBudget::unlimited();
        let steps = ResourceBudget::unlimited().with_max_sim_steps(1 << 40);
        let queue = ResourceBudget::unlimited().with_max_event_queue(1 << 20);
        for nl in kernel_circuits() {
            let stream = Stimulus::uniform(nl.num_inputs()).patterns(301, 41);
            for delay in [1u32, 3] {
                let sim = EventSim::new(&nl, &DelayModel::PerNet(vec![delay; nl.len()]))
                    .with_obs(obs::Obs::enabled());
                for len in [1, 2, 257, 300] {
                    for seeded in [false, true] {
                        let (seed, patterns) = if seeded {
                            (Some(stream[0].as_slice()), &stream[1..=len])
                        } else {
                            (None, &stream[..len])
                        };
                        let run = |budget: &ResourceBudget| {
                            let (mut arena, steps) = (EventArena::new(), AtomicU64::new(0));
                            sim.shard_counts(seed, patterns, &mut arena, budget, &steps)
                                .expect("budget never trips")
                        };
                        let dense = run(&unlimited);
                        let case = format!(
                            "{}, delay {delay}, {len} patterns, seeded {seeded}",
                            nl.name()
                        );
                        for other in [run(&steps), run(&queue)] {
                            assert_eq!(dense.total, other.total, "{case}");
                            assert_eq!(dense.functional, other.functional, "{case}");
                            assert_eq!(dense.ones, other.ones, "{case}");
                            assert_eq!(dense.processed, other.processed, "{case}");
                            assert_eq!(dense.enqueued, other.enqueued, "{case}");
                            assert_eq!(dense.cancelled, other.cancelled, "{case}");
                            assert_eq!(dense.coalesced, other.coalesced, "{case}");
                        }
                        // The occupancy histogram profiles the queue,
                        // so only the queue run records it.
                        assert_eq!(dense.occupancy, QueueOccupancy::default());
                        assert_eq!(run(&steps).occupancy, QueueOccupancy::default());
                        let profiled = run(&queue).occupancy.total() > 0;
                        assert_eq!(profiled, dense.processed > 0, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_kernel_trips_step_limits_where_the_queue_does() {
        // A step limit fails a run once the events processed reach it. The
        // kernel flushes its toggles at other points than the queue's
        // 1024-pop batches, so the count an error reports may differ, but
        // whether the run fails may not: at every limit around the run's
        // total, on one shard and on three.
        let queue = ResourceBudget::unlimited().with_max_event_queue(1 << 20);
        for nl in kernel_circuits() {
            let patterns = Stimulus::uniform(nl.num_inputs()).patterns(600, 43);
            let obs = obs::Obs::enabled();
            let sim = EventSim::new(&nl, &DelayModel::Unit).with_obs(obs.clone());
            sim.activity(&patterns);
            let total = obs.snapshot().counter("sim.event.processed").unwrap_or(0);
            assert!(total > 0, "{}", nl.name());
            for limit in [1, total / 2, total - 1, total, total + 1, 2 * total] {
                for jobs in [1, 3] {
                    let verdict = |budget: ResourceBudget| {
                        let budget = budget.with_max_sim_steps(limit);
                        match sim.try_activity_jobs(&patterns, jobs, &budget) {
                            Ok(_) => None,
                            Err(e) => Some(e.resource),
                        }
                    };
                    let dense = verdict(ResourceBudget::unlimited());
                    assert_eq!(dense, verdict(queue), "{}, limit {limit}", nl.name());
                    let tripped = limit <= total;
                    assert_eq!(dense, tripped.then_some(budget::Resource::SimSteps));
                }
            }
        }
    }

    #[test]
    fn multiplier_glitch_fraction_in_survey_range() {
        let (nl, _) = array_multiplier(6);
        let patterns = Stimulus::uniform(12).patterns(200, 23);
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        let activity = sim.activity(&patterns);
        let fraction = activity.glitch_fraction();
        assert!(
            fraction > 0.10,
            "array multipliers glitch heavily, got {fraction}"
        );
    }

    #[test]
    fn balanced_tree_barely_glitches() {
        let nl = parity_tree(8);
        let patterns = Stimulus::uniform(8).patterns(200, 29);
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        let activity = sim.activity(&patterns);
        // A perfectly balanced XOR tree with unit delays has equal path
        // lengths everywhere: no glitches at all.
        assert!(
            activity.glitch_fraction() < 1e-9,
            "balanced tree glitched: {}",
            activity.glitch_fraction()
        );
    }

    #[test]
    fn parallel_timing_activity_is_bit_identical() {
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(150, 41);
        let sim = EventSim::new(&nl, &DelayModel::Analytic { resolution: 4 });
        let serial = sim.activity(&patterns);
        for jobs in [1, 2, 3, 4, 7, 8] {
            let par = sim.activity_jobs(&patterns, jobs);
            assert_eq!(par.total, serial.total, "total, jobs={jobs}");
            assert_eq!(par.functional, serial.functional, "functional, jobs={jobs}");
        }
    }

    #[test]
    fn event_budget_trips_on_glitchy_run() {
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(400, 41);
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        // A multiplier schedules far more than 2000 events over 400 cycles.
        let tight = ResourceBudget::unlimited().with_max_sim_steps(2000);
        let err = sim.try_activity(&patterns, &tight).unwrap_err();
        assert_eq!(err.resource, budget::Resource::SimSteps);
        assert!(err.used >= 1024, "tripped after at least one flush");
        // Parallel runs trip too (shared counter across shards).
        for jobs in [2, 4] {
            assert!(sim.try_activity_jobs(&patterns, jobs, &tight).is_err());
        }
        // A one-event queue cannot hold any fanout wave.
        let starved = ResourceBudget::unlimited().with_max_event_queue(1);
        let err = sim.try_activity(&patterns, &starved).unwrap_err();
        assert_eq!(err.resource, budget::Resource::EventQueue);
    }

    #[test]
    fn budgeted_event_run_matches_unbudgeted() {
        let (nl, _) = ripple_adder(5);
        let patterns = Stimulus::uniform(10).patterns(120, 19);
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        let plain = sim.activity(&patterns);
        let roomy = ResourceBudget::unlimited()
            .with_max_sim_steps(1 << 30)
            .with_max_event_queue(1 << 20)
            .with_deadline_ms(60_000);
        for jobs in [1, 3] {
            let guarded = sim.try_activity_jobs(&patterns, jobs, &roomy).unwrap();
            assert_eq!(guarded.total, plain.total, "jobs={jobs}");
            assert_eq!(guarded.functional, plain.functional, "jobs={jobs}");
        }
    }

    #[test]
    fn event_counters_are_consistent_and_jobs_invariant() {
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(150, 41);
        // Mixed per-net delays exercise the general calendar queue; unit
        // delays take the dense kernel. Counter invariants and
        // jobs-invariance must hold on both.
        let mixed = DelayModel::PerNet((0..nl.len()).map(|i| 1 + (i as u32 & 1)).collect());
        for model in [DelayModel::Unit, mixed] {
            let run = |jobs: usize| {
                let obs = obs::Obs::enabled();
                let sim = EventSim::new(&nl, &model).with_obs(obs.clone());
                sim.activity_jobs(&patterns, jobs);
                obs.snapshot()
            };
            let serial = run(1);
            let processed = serial.counter("sim.event.processed").unwrap();
            let enqueued = serial.counter("sim.event.enqueued").unwrap();
            let cancelled = serial.counter("sim.event.cancelled").unwrap();
            let coalesced = serial.counter("sim.event.coalesced").unwrap();
            assert!(processed > 0);
            assert_eq!(processed, enqueued, "every enqueued event is popped");
            assert!(cancelled <= processed);
            assert!(coalesced > 0, "a multiplier reconverges heavily");
            assert_eq!(serial.counter("sim.event.cycles"), Some(150));
            // The occupancy histogram covers every popped bucket — but
            // only on runs that exercise a queue; the dense word path
            // (unit delays, unlimited budget) reports counters only.
            let buckets: u64 = ["le1", "le2", "le4", "le8", "le16", "gt16"]
                .iter()
                .map(|b| {
                    serial
                        .gauge(&format!("sim.event.occupancy.{b}"))
                        .unwrap_or(0.0) as u64
                })
                .sum();
            if matches!(model, DelayModel::Unit) {
                assert_eq!(buckets, 0, "dense-eligible runs skip the histogram");
            } else {
                assert!(buckets > 0 && buckets <= processed);
            }
            for jobs in [2, 4] {
                let par = run(jobs);
                assert_eq!(par.counters, serial.counters, "jobs={jobs}");
                assert_eq!(
                    par.gauge("sim.event.occupancy.le1"),
                    serial.gauge("sim.event.occupancy.le1"),
                    "occupancy is jobs-invariant"
                );
            }
        }
    }

    #[test]
    fn unit_vs_analytic_delays() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(100, 31);
        let unit = EventSim::new(&nl, &DelayModel::Unit).activity(&patterns);
        let analytic =
            EventSim::new(&nl, &DelayModel::Analytic { resolution: 8 }).activity(&patterns);
        // Functional activity is delay-independent.
        for i in 0..nl.len() {
            assert!((unit.functional.toggles[i] - analytic.functional.toggles[i]).abs() < 1e-9);
        }
    }
}
