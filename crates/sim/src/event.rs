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
use crate::profile::ActivityProfile;
use crate::stimulus::PatternSet;
use crate::wide::{prefix_mask, LANES};

/// Reusable per-worker buffers for the window kernel. Nothing in the hot
/// path allocates once the arena has warmed up, and
/// [`par_map_with`](crate::par::par_map_with) builds one arena per worker
/// thread, not one per shard.
#[derive(Debug, Default)]
pub struct EventArena {
    /// Each net's value after the block's last pattern, kept in debug
    /// builds for the settled-state check.
    values: Vec<bool>,
    /// The kernel's lane words, `LANES` per slot, laid out by
    /// [`WindowPlan`].
    words: Vec<u64>,
    /// One tick's fanin words of an n-ary or `Mux` gate, gathered for
    /// [`GateKind::eval_wide`].
    gather: Vec<u64>,
    /// Each net's window in the current block, cut to its changes.
    live: Vec<Window>,
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

/// Write window `w` of a one- or two-input gate with delay `d` from its
/// fanins' windows `wa` and `wb`: slot `k` applies the truth table `lut`,
/// in algebraic normal form `f(a, b) = c ^ a·ca ^ b·cb ^ a·b·cab` as a
/// branch-free mask select, to the fanins' words at tick `w.start - d + k`.
#[inline(never)]
fn lut_window(words: &mut [u64], w: Window, d: u32, wa: Window, wb: Window, lut: u32) {
    let row = |r: u32| 0u64.wrapping_sub(u64::from(lut >> r & 1));
    let (c, ca, cb) = (row(0), row(0) ^ row(2), row(0) ^ row(1));
    let cab = ca ^ row(1) ^ row(3);
    for k in 0..=w.len {
        let t = w.start - d + k;
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

/// Patterns per kernel block and per shard unit: one lane bit each.
const BLOCK: usize = 64 * LANES;

/// Window slots the kernel evaluates between two step-tally flushes.
const POLL_SLOTS: usize = 1 << 16;

/// Where the kernel keeps one net's lane words: slots `base ..= base +
/// len`, holding the net's value at ticks `start ..= start + len`.
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

    /// The window at arena slot `base` of a gate with delay `d` whose
    /// fanins change in `fanins`: it can change `d` ticks after any of them
    /// does.
    #[inline(always)]
    fn spanning(fanins: impl IntoIterator<Item = Window>, d: u32, base: u32) -> Window {
        let (mut start, mut end) = (u32::MAX, 0);
        for f in fanins.into_iter().filter(|f| f.len > 0) {
            start = start.min(f.start + d);
            end = end.max(f.start + f.len + d);
        }
        // No fanin changes: start at `d`, so the kernel's `start - d` holds.
        let (start, len) = (start.min(end.max(d)), end.saturating_sub(start));
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

/// The kernel's layout, planned once per simulator: every net's
/// [`Window`] and the arena size. Input `j` owns slots `2j` and `2j + 1`
/// (before and after its switch); the arena holds only the live frontier
/// of the topological walk.
#[derive(Debug, Default)]
struct WindowPlan {
    windows: Vec<Window>,
    slots: usize,
}

impl WindowPlan {
    /// Walk the kernel's topological order once: span each gate's window
    /// over its fanins', give it the lowest free run of slots that holds
    /// it (first fit), and free a net's run once its last fanout has taken
    /// its own, or at once if nothing reads it.
    ///
    /// # Panics
    ///
    /// Panics if a gate's delay added to the latest tick of the windows
    /// planned before it passes `u32::MAX`, or if the windows need more
    /// than `u32::MAX` arena slots.
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
        // The last run is the arena's unused top.
        let mut free = vec![(inputs, u32::MAX - inputs)];
        // Fanout edges not yet evaluated, per net; inputs are never freed.
        let mut unread = vec![u32::MAX; windows.len()];
        let mut top = inputs;
        // The latest tick any window planned so far reaches.
        let mut horizon = 1u32;
        for &net in sim.topo.order() {
            let si = net.index();
            if sim.kinds[si] == GateKind::Input {
                continue;
            }
            let d = sim.sinks[si].delay;
            assert!(
                horizon.checked_add(d).is_some(),
                "event ticks overflow: a window could reach past tick u32::MAX"
            );
            let fanins = sim.fanins(si).iter().map(|&f| windows[f as usize]);
            let w = Window::spanning(fanins, d, 0);
            horizon = horizon.max(w.start + w.len);
            let size = w.len + 1;
            let i = free.iter().position(|&(_, len)| len >= size);
            let Some(i) = i else {
                panic!("event window arena overflows: more than u32::MAX slots");
            };
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
    /// The delay of `net` in ticks (at least 1).
    pub fn delay(&self, nl: &Netlist, net: NetId) -> u32 {
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
    /// kernel reads only these contiguous arrays — gate kind, fanin ids and
    /// fanout ids are each one indexed load away, with none of the
    /// netlist's per-gate vector indirections.
    kinds: Vec<GateKind>,
    fanin_off: Vec<u32>,
    fanin_idx: Vec<u32>,
    /// One packed record per net for the kernel's walk.
    sinks: Vec<SinkEval>,
    /// Every net's window (see [`EventSim::window_block`]).
    plan: WindowPlan,
    obs: obs::Obs,
}

/// Packed evaluation record for one net, sized to four per cache line.
///
/// Gates with one or two fanins — the overwhelming majority of real
/// netlists — evaluate as a 4-entry truth table (see [`lut_window`]): no
/// gate-kind match, no fanin-slice walk. One-input gates duplicate their
/// fanin into both slots so only the `a == b` LUT rows are ever addressed.
/// `a == GENERIC` routes wider gates (e.g. `Mux`, n-ary `And`/`Xor`) and
/// constants to [`GateKind::eval_wide`]. `delay` is the net's delay in
/// ticks.
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
    /// Bind a simulator with the given delay model and plan its kernel's
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or cyclic, or if its delays are
    /// too long for the kernel's `u32` ticks and slots: a gate's delay plus
    /// the latest tick any net before it in topological order can change
    /// at passes `u32::MAX`, or the windows need more than `u32::MAX`
    /// arena slots.
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
        fanin_off.push(0u32);
        for net in nl.iter_nets() {
            let (kind, ins) = (nl.kind(net), nl.fanins(net));
            kinds.push(kind);
            fanin_idx.extend(ins.iter().map(|x| x.index() as u32));
            fanin_off.push(fanin_idx.len() as u32);
            let delay = model.delay(nl, net);
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
            plan: WindowPlan::default(),
            obs: obs::Obs::disabled(),
        };
        sim.plan = WindowPlan::new(&sim);
        sim
    }

    /// The fanin ids of net `si`, off the CSR tables.
    #[inline(always)]
    fn fanins(&self, si: usize) -> &[u32] {
        &self.fanin_idx[self.fanin_off[si] as usize..self.fanin_off[si + 1] as usize]
    }

    /// Attach an observability handle. Each successful activity run adds
    /// `sim.event.cycles` and four event counters derived from its
    /// transitions, the same for every thread count and delay model:
    /// `sim.event.processed` and `.enqueued` count the transitions,
    /// `.cancelled` is 0, and `.coalesced` counts the fanout edges the
    /// transitions visit, less the gate transitions.
    pub fn with_obs(mut self, obs: obs::Obs) -> EventSim<'a> {
        self.obs = obs;
        self
    }

    /// Cross-check that `values` is the settled state of `pattern` (the
    /// invariant functional counting rests on) against a one-lane
    /// [`crate::sweep::settle`].
    #[cfg(debug_assertions)]
    fn debug_check_settled(&self, pattern: &[bool], values: &[bool]) {
        let mut words = vec![0u64; values.len()];
        for (&pi, &v) in self.nl.inputs().iter().zip(pattern) {
            words[pi.index()] = u64::from(v);
        }
        let order = self.topo.order();
        crate::sweep::settle::<1>(self.nl, order, &mut words, &mut Vec::new(), |_| false);
        let settled: Vec<bool> = words.iter().map(|&w| w & 1 == 1).collect();
        debug_assert_eq!(
            settled, values,
            "event sim must settle to functional values"
        );
    }

    /// Simulate up to [`BLOCK`] cycle transitions word-parallel (lane bit
    /// `k` = the transition into `chunk[k]` from the pattern before it).
    ///
    /// Under transport delays, with the inputs switching at tick 1, a
    /// gate's value at tick `t` is its function of its fanins' values at
    /// tick `t - d`, `d` its delay: the value that an event simulator
    /// applying transitions in `(time, net)` order, last write winning,
    /// schedules for it. A net can change only inside its [`Window`], so
    /// one walk of the topological order writes each net's waveform in one
    /// contiguous loop from its fanins' windows, cut to the ticks where
    /// they changed.
    ///
    /// Toggles are popcounts of consecutive words of a window, functional
    /// toggles and signal probabilities of its first and last word (only
    /// `ones` needs the valid-lane mask: padding lanes never switch). Each
    /// toggle is one event processed: the toggles flush to the step tally,
    /// and the deadline is polled, every [`POLL_SLOTS`] slots and at block
    /// end.
    fn window_block(
        &self,
        prev: &[bool],
        chunk: &[Vec<bool>],
        arena: &mut EventArena,
        counts: &mut EventCounts,
        meter: &mut StepMeter,
        budget: &ResourceBudget,
    ) -> Result<(), BudgetExceeded> {
        const L: usize = LANES;
        let plan = &self.plan;
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
                let w = Window::spanning([wa, wb], e.delay, base);
                lut_window(words, w, e.delay, wa, wb, e.lut);
                w
            } else if self.kinds[si] != GateKind::Input {
                let ins = self.fanins(si);
                let w = Window::spanning(ins.iter().map(|&f| live[f as usize]), e.delay, base);
                arena.gather.resize(ins.len() * L, 0);
                for k in 0..=w.len {
                    let t = w.start - e.delay + k;
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

    /// Count transitions over one contiguous shard, [`BLOCK`] patterns per
    /// [`EventSim::window_block`] call.
    ///
    /// The shard's first transition starts from `prev_pattern`, the
    /// pattern just before the shard (uncounted: its shard counted its
    /// cycle), or for the stream's first shard from `patterns[0]` itself,
    /// so cycle 0 is a transition that changes nothing and counts only its
    /// signal probabilities. A combinational settled state depends only on
    /// the current pattern, so the seed pattern alone reconstructs exactly
    /// the state the serial run would have carried in: shards are
    /// embarrassingly parallel and the merged counts stay bit-identical.
    ///
    /// Unlike the cycle-based engines, event-driven cost is unknowable up
    /// front — a glitchy circuit can make orders of magnitude more
    /// transitions than cycles — so the step tally and the deadline polls
    /// of [`EventSim::window_block`] are the runtime guards that make the
    /// engine safe to call under a budget at all.
    fn shard_counts(
        &self,
        prev_pattern: Option<&[bool]>,
        patterns: &[Vec<bool>],
        arena: &mut EventArena,
        budget: &ResourceBudget,
        steps: &AtomicU64,
    ) -> Result<EventCounts, BudgetExceeded> {
        let mut meter = StepMeter {
            shared: steps,
            limit: budget.max_sim_steps_or(u64::MAX),
            local: 0,
        };
        let n = self.nl.len();
        let mut counts = EventCounts {
            total: vec![0u64; n],
            functional: vec![0u64; n],
            ones: vec![0u64; n],
        };
        let Some(first) = patterns.first() else {
            return Ok(counts);
        };
        let mut prev = prev_pattern.unwrap_or(first);
        for pattern in std::iter::once(prev).chain(patterns.iter().map(Vec::as_slice)) {
            assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
        }
        for chunk in patterns.chunks(BLOCK) {
            self.window_block(prev, chunk, arena, &mut counts, &mut meter, budget)?;
            prev = &chunk[chunk.len() - 1];
        }
        Ok(counts)
    }

    /// The `(processed, coalesced)` event counts of a run whose per-net
    /// transitions are `total`. Every transition is one event processed
    /// (and enqueued; none is cancelled), and visits each of its net's
    /// fanout edges; every visit that makes no gate transition is
    /// coalesced. A gate transition at tick `t` needs a fanin transition
    /// at `t - d`, so the visits cover the gate transitions under every
    /// delay model.
    fn event_counters(&self, total: &[u64]) -> (u64, u64) {
        let (mut processed, mut visits, mut gate_events) = (0, 0, 0);
        for &x in self.topo.order() {
            let toggles = total[x.index()];
            processed += toggles;
            visits += self.topo.fanouts(x).len() as u64 * toggles;
            gate_events += toggles * u64::from(self.kinds[x.index()] != GateKind::Input);
        }
        (processed, visits - gate_events)
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
    /// The step limit counts *events processed*, one per transition,
    /// summed across shards via a shared counter that each shard adds to
    /// every 65,536 window slots and at the end of every block of 256
    /// patterns. The deadline is polled at each of those points. On
    /// exhaustion the run stops with a typed [`BudgetExceeded`]; a
    /// successful run is bit-identical to the unbudgeted one.
    pub fn try_activity_jobs(
        &self,
        patterns: &PatternSet,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<TimingActivity, BudgetExceeded> {
        let n = self.nl.len();
        budget.check_deadline()?;
        let steps = AtomicU64::new(0);
        // Work items are blocks of the kernel's lane width, as in
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
        // window arenas warm up once per core.
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
            // Derived from the merged transitions, so the counters match
            // for every `jobs` setting. Only successful runs flush (an
            // exhausted budget abandons partial shard counts).
            let (processed, coalesced) = self.event_counters(&total);
            self.obs.add("sim.event.cycles", patterns.len() as u64);
            self.obs.add("sim.event.processed", processed);
            self.obs.add("sim.event.enqueued", processed);
            self.obs.add("sim.event.cancelled", 0);
            self.obs.add("sim.event.coalesced", coalesced);
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
#[path = "../tests/event_reference/mod.rs"]
mod event_reference;

#[cfg(test)]
mod tests {
    use super::event_reference;
    use super::*;
    use crate::stimulus::Stimulus;
    use netlist::gen::{
        alu4, array_multiplier, carry_select_adder, parity_tree, random_dag, ripple_adder,
        RandomDagConfig,
    };
    use netlist::Rng64;

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

    /// The kernel's test circuits: two-input gates only (the
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

    /// Every net's delay under `model`, as the reference takes them.
    fn delays(nl: &netlist::Netlist, model: &DelayModel) -> Vec<u32> {
        nl.iter_nets().map(|net| model.delay(nl, net)).collect()
    }

    /// The delay models the kernel is checked under on a netlist of `n`
    /// nets: uniform 1 and 3, alternating 1 and 2, random 1–5, and the
    /// analytic model at two resolutions.
    fn delay_models(n: usize, seed: u64) -> Vec<(&'static str, DelayModel)> {
        let mut rng = Rng64::new(seed);
        vec![
            ("uniform 1", DelayModel::PerNet(vec![1; n])),
            ("uniform 3", DelayModel::PerNet(vec![3; n])),
            (
                "alternating 1/2",
                DelayModel::PerNet((0..n).map(|i| 1 + (i as u32 & 1)).collect()),
            ),
            (
                "random 1-5",
                DelayModel::PerNet((0..n).map(|_| 1 + rng.range(0, 5) as u32).collect()),
            ),
            ("analytic 4", DelayModel::Analytic { resolution: 4 }),
            ("analytic 8", DelayModel::Analytic { resolution: 8 }),
        ]
    }

    #[test]
    fn kernel_matches_reference_bit_exactly() {
        // Every activity count and both derived event counters must equal
        // what the scalar reference traces. 257 and 300 patterns are a
        // full 256-lane block plus a one-lane or a masked 44-lane block,
        // so the block-chaining handoff and the ragged tail are covered
        // too; 1 and 2 patterns are a stream whose one lane is cycle 0 (a
        // transition from itself) and one with a single real transition.
        // A seeded shard (every shard after the first) starts from the
        // pattern before it without counting that pattern's cycle.
        let unlimited = ResourceBudget::unlimited();
        for nl in kernel_circuits() {
            let stream = Stimulus::uniform(nl.num_inputs()).patterns(301, 41);
            for (label, model) in delay_models(nl.len(), 47) {
                let sim = EventSim::new(&nl, &model);
                let delays = delays(&nl, &model);
                for len in [1, 2, 257, 300] {
                    for seeded in [false, true] {
                        let (seed, patterns) = if seeded {
                            (Some(stream[0].as_slice()), &stream[1..=len])
                        } else {
                            (None, &stream[..len])
                        };
                        let (mut arena, steps) = (EventArena::new(), AtomicU64::new(0));
                        let kernel = sim
                            .shard_counts(seed, patterns, &mut arena, &unlimited, &steps)
                            .expect("budget never trips");
                        let reference = event_reference::run(&nl, &delays, seed, patterns);
                        let case =
                            format!("{}, {label}, {len} patterns, seeded {seeded}", nl.name());
                        assert_eq!(kernel.total, reference.total, "{case}");
                        assert_eq!(kernel.functional, reference.functional, "{case}");
                        assert_eq!(kernel.ones, reference.ones, "{case}");
                        let counters = (reference.processed(), reference.coalesced());
                        assert_eq!(sim.event_counters(&kernel.total), counters, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_trips_step_limits_at_the_reference_event_count() {
        // A step limit fails a run once the events processed, one per
        // transition, reach it: at every limit around the reference's
        // count, on one shard and on three.
        for nl in kernel_circuits() {
            let patterns = Stimulus::uniform(nl.num_inputs()).patterns(600, 43);
            for model in [DelayModel::Unit, DelayModel::Analytic { resolution: 4 }] {
                let sim = EventSim::new(&nl, &model);
                let total =
                    event_reference::run(&nl, &delays(&nl, &model), None, &patterns).processed();
                assert!(total > 0, "{}", nl.name());
                for limit in [1, total / 2, total - 1, total, total + 1, 2 * total] {
                    for jobs in [1, 3] {
                        let budget = ResourceBudget::unlimited().with_max_sim_steps(limit);
                        let verdict = match sim.try_activity_jobs(&patterns, jobs, &budget) {
                            Ok(_) => None,
                            Err(e) => Some(e.resource),
                        };
                        let tripped = limit <= total;
                        assert_eq!(
                            verdict,
                            tripped.then_some(budget::Resource::SimSteps),
                            "{}, {model:?}, limit {limit}, jobs {jobs}",
                            nl.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "event ticks overflow")]
    fn delays_past_the_tick_range_are_rejected() {
        // Three buffers of 2^31 ticks each: the last would change past
        // tick u32::MAX.
        let mut nl = netlist::Netlist::new("slow");
        let mut x = nl.add_input("x");
        for _ in 0..3 {
            x = nl.add_gate(GateKind::Buf, &[x]);
        }
        nl.mark_output(x, "y");
        EventSim::new(&nl, &DelayModel::PerNet(vec![1 << 31; nl.len()]));
    }

    #[test]
    #[should_panic(expected = "event window arena overflows")]
    fn windows_past_the_slot_range_are_rejected() {
        // Each XOR sees one fanin change at tick 2 and the other 3·2^30
        // ticks later, so its window needs 3·2^30 slots; both are live
        // until the OR reads them. The plan fails before allocating any.
        let mut nl = netlist::Netlist::new("wide");
        let x = nl.add_input("x");
        let (fast, slow) = (
            nl.add_gate(GateKind::Buf, &[x]),
            nl.add_gate(GateKind::Not, &[x]),
        );
        let a = nl.add_gate(GateKind::Xor, &[fast, slow]);
        let b = nl.add_gate(GateKind::Xnor, &[fast, slow]);
        let y = nl.add_gate(GateKind::Or, &[a, b]);
        nl.mark_output(y, "y");
        let mut delays = vec![1; nl.len()];
        delays[slow.index()] = 3 << 30;
        EventSim::new(&nl, &DelayModel::PerNet(delays));
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
        // 600 patterns are three blocks, so jobs 2 and up run 2 or 3 shards.
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(600, 41);
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
    }

    #[test]
    fn budgeted_event_run_matches_unbudgeted() {
        let (nl, _) = ripple_adder(5);
        let patterns = Stimulus::uniform(10).patterns(120, 19);
        let sim = EventSim::new(&nl, &DelayModel::Unit);
        let plain = sim.activity(&patterns);
        let roomy = ResourceBudget::unlimited()
            .with_max_sim_steps(1 << 30)
            .with_deadline_ms(60_000);
        for jobs in [1, 3] {
            let guarded = sim.try_activity_jobs(&patterns, jobs, &roomy).unwrap();
            assert_eq!(guarded.total, plain.total, "jobs={jobs}");
            assert_eq!(guarded.functional, plain.functional, "jobs={jobs}");
        }
    }

    #[test]
    fn event_counters_are_consistent_and_jobs_invariant() {
        // 600 patterns are three blocks, so jobs 2 and 4 run 2 and 3 shards.
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(600, 41);
        // Counter invariants and jobs-invariance hold on uniform and mixed
        // per-net delays alike.
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
            assert!(processed > 0);
            assert_eq!(serial.counter("sim.event.enqueued"), Some(processed));
            assert_eq!(serial.counter("sim.event.cancelled"), Some(0));
            let coalesced = serial.counter("sim.event.coalesced").unwrap();
            assert!(coalesced > 0, "a multiplier reconverges heavily");
            assert_eq!(serial.counter("sim.event.cycles"), Some(600));
            for jobs in [2, 4] {
                assert_eq!(run(jobs).counters, serial.counters, "jobs={jobs}");
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
