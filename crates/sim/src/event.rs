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
/// reference state, fanin scratch, the calendar queue and the per-bucket
/// batch/dedup buffers. Nothing in the per-cycle hot path allocates once
/// the arena has warmed up, and [`par_map_with`](crate::par::par_map_with)
/// builds one arena per worker thread, not one per shard.
#[derive(Debug, Default)]
pub struct EventArena {
    values: Vec<bool>,
    settled: Vec<bool>,
    ins: Vec<bool>,
    queue: CalendarQueue,
    /// Transitions drained from one popped bucket, sorted by net.
    batch: Vec<(u32, bool)>,
    /// Nets in the batch whose value actually changed.
    toggled: Vec<u32>,
    /// Word-parallel state for the dense kernel: the current per-net lane
    /// words, one tick's staged outputs of the nets that toggled (`L`
    /// words each, in `wtoggled_next` order), the chunk's initial settled
    /// words, the `(net, toggled-lane-count)` frontier lists and the input
    /// words before/after each lane's transition.
    wcur: Vec<u64>,
    wstaged: Vec<u64>,
    wsettled: Vec<u64>,
    wtoggled: Vec<(u32, u32)>,
    wtoggled_next: Vec<(u32, u32)>,
    win_init: Vec<u64>,
    win_next: Vec<u64>,
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
    /// Move the local count into the shared tally; fail once the tally
    /// reaches the limit.
    fn flush(&mut self, budget: &ResourceBudget) -> Result<(), BudgetExceeded> {
        let tally = self.shared.fetch_add(self.local, Ordering::Relaxed) + self.local;
        self.local = 0;
        if tally >= self.limit {
            return Err(budget.sim_steps_exceeded(tally));
        }
        Ok(())
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
    /// Every net has the same delay, so event propagation is synchronous
    /// relaxation and runs without a queue limit take the dense kernel
    /// (see [`EventSim::dense_block`]).
    uniform: bool,
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
        assert!(nl.is_combinational(), "EventSim requires combinational netlist");
        let topo = nl.topology().expect("netlist must be acyclic");
        let n = nl.len();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin_idx = Vec::new();
        fanin_off.push(0u32);
        for net in nl.iter_nets() {
            kinds.push(nl.kind(net));
            fanin_idx.extend(nl.fanins(net).iter().map(|x| x.index() as u32));
            fanin_off.push(fanin_idx.len() as u32);
        }
        let delays: Vec<u32> = nl.iter_nets().map(|net| model.delay(nl, net)).collect();
        let max_delay = delays.iter().copied().max().unwrap_or(1);
        let uniform = delays.iter().all(|&d| d == max_delay);
        let mut sinks = Vec::with_capacity(n);
        for si in 0..n {
            let mut e = SinkEval { a: GENERIC, b: 0, lut: 0, delay: delays[si] };
            let kind = kinds[si];
            if !matches!(kind, GateKind::Input | GateKind::Const(_)) {
                let ins = &fanin_idx[fanin_off[si] as usize..fanin_off[si + 1] as usize];
                match *ins {
                    [a] => {
                        e.a = a;
                        e.b = a;
                        for bits in 0..4u32 {
                            // Duplicated fanin: only rows with a == b occur.
                            if bits >> 1 == bits & 1 && kind.eval(&[bits & 1 != 0]) {
                                e.lut |= 1 << bits;
                            }
                        }
                    }
                    [a, b] => {
                        e.a = a;
                        e.b = b;
                        for bits in 0..4u32 {
                            if kind.eval(&[bits >> 1 != 0, bits & 1 != 0]) {
                                e.lut |= 1 << bits;
                            }
                        }
                    }
                    _ => {}
                }
            }
            sinks.push(e);
        }
        EventSim {
            nl,
            topo,
            kinds,
            fanin_off,
            fanin_idx,
            sinks,
            max_delay,
            uniform,
            obs: obs::Obs::disabled(),
        }
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
        let ins = &self.fanin_idx[self.fanin_off[si] as usize..self.fanin_off[si + 1] as usize];
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

    /// [`EventSim::eval_net`] on `L` lane words (`64 * L` lanes) at once:
    /// the same CSR walk, with [`GateKind::eval_wide`] semantics. `w` is
    /// lane-grouped: net `x`'s words sit at `w[x*L .. +L]`.
    #[inline(always)]
    fn eval_net_wide<const L: usize>(&self, si: usize, w: &[u64]) -> [u64; L] {
        #[inline(always)]
        fn ld<const L: usize>(w: &[u64], x: u32) -> [u64; L] {
            let mut out = [0u64; L];
            out.copy_from_slice(&w[x as usize * L..][..L]);
            out
        }
        #[inline(always)]
        fn fold<const L: usize>(
            ins: &[u32],
            w: &[u64],
            init: u64,
            f: impl Fn(u64, u64) -> u64,
        ) -> [u64; L] {
            let mut acc = [init; L];
            for &x in ins {
                let base = x as usize * L;
                for l in 0..L {
                    acc[l] = f(acc[l], w[base + l]);
                }
            }
            acc
        }
        #[inline(always)]
        fn notl<const L: usize>(mut a: [u64; L]) -> [u64; L] {
            for l in 0..L {
                a[l] = !a[l];
            }
            a
        }
        let ins = &self.fanin_idx[self.fanin_off[si] as usize..self.fanin_off[si + 1] as usize];
        match self.kinds[si] {
            GateKind::And => fold(ins, w, u64::MAX, |a, x| a & x),
            GateKind::Or => fold(ins, w, 0, |a, x| a | x),
            GateKind::Nand => notl(fold(ins, w, u64::MAX, |a, x| a & x)),
            GateKind::Nor => notl(fold(ins, w, 0, |a, x| a | x)),
            GateKind::Not => notl(ld(w, ins[0])),
            GateKind::Buf | GateKind::Dff => ld(w, ins[0]),
            GateKind::Xor => fold(ins, w, 0, |a, x| a ^ x),
            GateKind::Xnor => notl(fold(ins, w, 0, |a, x| a ^ x)),
            GateKind::Mux => {
                let (s, a, b) = (ld::<L>(w, ins[0]), ld::<L>(w, ins[1]), ld::<L>(w, ins[2]));
                let mut out = [0u64; L];
                for l in 0..L {
                    out[l] = (s[l] & b[l]) | (!s[l] & a[l]);
                }
                out
            }
            GateKind::Const(v) => [if v { u64::MAX } else { 0 }; L],
            GateKind::Input => {
                debug_assert!(false, "inputs are never evaluated as sinks");
                ld(w, si as u32)
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

    fn settle(&self, values: &mut [bool], ins: &mut Vec<bool>) {
        for &net in self.topo.order() {
            let kind = self.nl.kind(net);
            if kind.is_source() {
                if let GateKind::Const(v) = kind {
                    values[net.index()] = v;
                }
                continue;
            }
            ins.clear();
            ins.extend(self.nl.fanins(net).iter().map(|x| values[x.index()]));
            values[net.index()] = kind.eval(ins);
        }
    }

    /// Cross-check event-loop convergence against a real settle pass (the
    /// invariant the settled-diff functional counting rests on).
    #[cfg(debug_assertions)]
    fn debug_check_settled(&self, pattern: &[bool], arena: &mut EventArena) {
        let mut chk = arena.settled.clone();
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            chk[pi.index()] = pattern[i];
        }
        self.settle(&mut chk, &mut arena.ins);
        debug_assert_eq!(chk, arena.values, "event sim must settle to functional values");
    }

    /// Apply `pattern` to the inputs of `values` and settle in place.
    fn apply_and_settle(&self, pattern: &[bool], values: &mut [bool], ins: &mut Vec<bool>) {
        assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = pattern[i];
        }
        self.settle(values, ins);
    }

    /// Simulate up to `64 * L` consecutive cycle transitions word-parallel
    /// (lane bit `k` = the transition into `chunk[k]`, starting from the
    /// settled state of the pattern before it), with `L` lane-grouped
    /// words per net.
    ///
    /// Under a uniform delay, transport-delay event propagation *is*
    /// synchronous relaxation: every net's value at tick `t` is its gate
    /// function applied to its fanins' values at tick `t - 1`, and the
    /// sparse event queue is merely a work-list implementation of that
    /// iteration. Since a combinational cycle depends only on its
    /// (previous, current) pattern pair, independent transitions pack
    /// into lane words per net and relax together; per-net toggle counts
    /// fall out of `popcount(prev ^ next)` per tick, functional toggles
    /// and signal probabilities out of popcounts of the settled-word diff.
    /// Results — activity *and* event counters — are bit-identical to the
    /// calendar queue by construction (and by the
    /// `dense_kernel_matches_calendar_queue_bit_exactly` test):
    ///
    /// * `processed`/`enqueued`: an event is enqueued exactly when an
    ///   evaluation toggles, so both equal seed toggles + gate toggles —
    ///   pure popcounts.
    /// * `coalesced` (sink-stamp hits + suppressed no-change evals): each
    ///   lane toggle of net `u` visits every fanout edge of `u` next tick,
    ///   and each visit either enqueues or coalesces, so per tick it is
    ///   `Σ_toggled popcount(u) · fanout(u) − next-tick enqueues`.
    /// * `cancelled` is identically 0: with one delay everywhere, a net's
    ///   next pop is always the event that changes it.
    ///
    /// Each tick evaluates its sinks against the current words, stages the
    /// outputs of the sinks that toggled, and then writes back only those:
    /// `Σ toggled · L` words per tick instead of a copy of all `n · L`.
    ///
    /// Lanes evolve independently, and a lane that has settled
    /// contributes zero toggles, visits and enqueues to later ticks. A
    /// short last chunk leaves its trailing lanes without an input
    /// transition (initial word = next word), so only `ones` needs the
    /// valid-lane mask. Each tick's events flush to the shared step tally
    /// before the next tick runs, so a step limit trips at the same
    /// "events processed ≥ limit" verdict as the queue; the deadline is
    /// polled every tick. Obs counters are derived exactly from the
    /// popcounts above at no marginal cost; the per-wave occupancy
    /// histogram is the one diagnostic this kernel does not produce —
    /// there is no queue to profile, and recovering per-lane wave sizes
    /// costs ~O(events), which would break the <2% obs overhead contract.
    fn dense_block<const L: usize>(
        &self,
        prev: &[bool],
        chunk: &[Vec<bool>],
        arena: &mut EventArena,
        counts: &mut EventCounts,
        budget: &ResourceBudget,
        meter: &mut StepMeter,
    ) -> Result<(), BudgetExceeded> {
        let m = chunk.len();
        debug_assert!((1..=64 * L).contains(&m));
        let n = self.nl.len();
        let inputs = self.nl.inputs();
        arena.wcur.clear();
        arena.wcur.resize(n * L, 0);
        arena.wsettled.clear();
        arena.wsettled.resize(n * L, 0);
        arena.win_init.clear();
        arena.win_init.resize(inputs.len() * L, 0);
        arena.win_next.clear();
        arena.win_next.resize(inputs.len() * L, 0);
        for j in 0..inputs.len() {
            for k in 0..m {
                let before = if k == 0 { prev[j] } else { chunk[k - 1][j] };
                arena.win_init[j * L + k / 64] |= (before as u64) << (k % 64);
                arena.win_next[j * L + k / 64] |= (chunk[k][j] as u64) << (k % 64);
            }
        }
        // Settle every lane's initial state in topological order.
        for (j, &pi) in inputs.iter().enumerate() {
            arena.wcur[pi.index() * L..][..L].copy_from_slice(&arena.win_init[j * L..][..L]);
        }
        for &net in self.topo.order() {
            let si = net.index();
            if self.kinds[si] != GateKind::Input {
                let out = self.eval_net_wide::<L>(si, &arena.wcur);
                arena.wcur[si * L..][..L].copy_from_slice(&out);
            }
        }
        arena.wsettled.copy_from_slice(&arena.wcur);
        // Tick 0: the input transitions seed the frontier.
        arena.wtoggled.clear();
        for (j, &pi) in inputs.iter().enumerate() {
            let i = pi.index();
            let mut pc = 0u32;
            for l in 0..L {
                pc += (arena.win_init[j * L + l] ^ arena.win_next[j * L + l]).count_ones();
            }
            if pc != 0 {
                arena.wcur[i * L..][..L].copy_from_slice(&arena.win_next[j * L..][..L]);
                counts.total[i] += pc as u64;
                counts.processed += pc as u64;
                counts.enqueued += pc as u64;
                meter.local += pc as u64;
                arena.wtoggled.push((i as u32, pc));
            }
        }
        // Jacobi relaxation: each tick evaluates the distinct sinks of the
        // previous tick's toggled nets against the *old* words, exactly the
        // event engine's apply-then-evaluate order; the toggled outputs are
        // staged and written back only once every sink has been evaluated.
        while !arena.wtoggled.is_empty() {
            meter.flush(budget)?;
            budget.check_deadline()?;
            arena.sink_epoch += 1;
            arena.wtoggled_next.clear();
            arena.wstaged.clear();
            let mut visits = 0u64;
            let mut enq = 0u64;
            for &(u, pc) in &arena.wtoggled {
                let sinks = self.topo.fanouts(NetId::from_index(u as usize));
                visits += sinks.len() as u64 * pc as u64;
                for &sink in sinks {
                    let si = sink.index();
                    if arena.sink_stamp[si] == arena.sink_epoch {
                        continue;
                    }
                    arena.sink_stamp[si] = arena.sink_epoch;
                    let out = self.eval_net_wide::<L>(si, &arena.wcur);
                    let mut pc = 0u32;
                    for l in 0..L {
                        pc += (out[l] ^ arena.wcur[si * L + l]).count_ones();
                    }
                    if pc != 0 {
                        arena.wstaged.extend_from_slice(&out);
                        counts.total[si] += pc as u64;
                        enq += pc as u64;
                        arena.wtoggled_next.push((si as u32, pc));
                    }
                }
            }
            for (&(si, _), out) in arena.wtoggled_next.iter().zip(arena.wstaged.chunks_exact(L)) {
                arena.wcur[si as usize * L..][..L].copy_from_slice(out);
            }
            counts.processed += enq;
            counts.enqueued += enq;
            counts.coalesced += visits - enq;
            meter.local += enq;
            std::mem::swap(&mut arena.wtoggled, &mut arena.wtoggled_next);
        }
        // Functional toggles and signal probabilities for the valid lanes
        // (padding lanes never leave their settled state).
        let valid = prefix_mask::<L>(m);
        for i in 0..n {
            for l in 0..L {
                let cur = arena.wcur[i * L + l];
                counts.functional[i] += u64::from((arena.wsettled[i * L + l] ^ cur).count_ones());
                counts.ones[i] += u64::from((cur & valid[l]).count_ones());
            }
        }
        #[cfg(debug_assertions)]
        {
            let (lane, bit) = ((m - 1) / 64, (m - 1) % 64);
            let mut chk = vec![false; n];
            self.apply_and_settle(&chunk[m - 1], &mut chk, &mut arena.ins);
            for (i, &v) in chk.iter().enumerate() {
                let got = arena.wcur[i * L + lane] >> bit & 1 != 0;
                debug_assert_eq!(got, v, "dense block must exit on the settled state");
            }
        }
        Ok(())
    }

    /// Count transitions over one contiguous shard.
    ///
    /// `prev_pattern` is the pattern applied in the cycle just before this
    /// shard: a combinational settled state depends only on the current
    /// pattern, so one uncounted settle reconstructs exactly the state the
    /// serial run would have carried in — shards are embarrassingly
    /// parallel and the merged counts stay bit-identical.
    ///
    /// Uniform-delay runs without an event-queue limit go through
    /// [`EventSim::dense_block`], `64 * LANES` transitions per chunk.
    /// Each block settles its lanes' starting states itself, so that path
    /// runs no scalar settle of the seed pattern and never resets the
    /// calendar queue: cycle 0's one-counts are bit 0 of the first block's
    /// settled words. A one-pattern stream has no block and keeps the
    /// scalar settle. Every other run drains the calendar queue pattern by
    /// pattern.
    /// Events processed count toward the shared `steps` tally (flushed
    /// every 1024 pops on the queue and every tick in the dense kernel, so
    /// the atomic stays off the per-event path); queue length is compared
    /// against the pre-resolved limit before every node creation (one
    /// register compare); the wall clock is polled once per cycle and
    /// once per flush. Unlike the cycle-based engines, event-driven cost is
    /// unknowable up front — a glitchy circuit can schedule orders of
    /// magnitude more events than cycles — so these are the runtime
    /// guards that make the engine safe to call under a budget at all.
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
        let dense = self.uniform && max_queue == u64::MAX;
        // The occupancy histogram profiles the *queue*: it is recorded only
        // on runs that use it. The choice depends on the delay model and
        // budget, never on sharding, so the gauges stay `--jobs` invariant.
        let record_occupancy = self.obs.is_enabled() && !dense;
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
        // The seed pattern: the previous shard's last one (uncounted: that
        // shard already counted its cycle), or this shard's cycle 0.
        let (seed, rest): (&[bool], _) = match prev_pattern {
            Some(p) => (p, patterns),
            None => {
                let Some((head, rest)) = patterns.split_first() else {
                    return Ok(counts);
                };
                (head, rest)
            }
        };
        arena.sink_stamp.clear();
        arena.sink_stamp.resize(n, 0);
        arena.sink_epoch = 0;
        if dense && !rest.is_empty() {
            assert_eq!(seed.len(), self.nl.num_inputs(), "pattern width");
            let mut prev = seed;
            for (c, chunk) in rest.chunks(64 * LANES).enumerate() {
                for pattern in chunk {
                    assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
                }
                self.dense_block::<LANES>(prev, chunk, arena, &mut counts, budget, &mut meter)?;
                if c == 0 && prev_pattern.is_none() {
                    // Cycle 0's ones: lane 0 of the seed's settled words.
                    for i in 0..n {
                        counts.ones[i] += arena.wsettled[i * LANES] & 1;
                    }
                }
                prev = &chunk[chunk.len() - 1];
            }
            // Every tick flushed its events, so the tally is complete.
            return Ok(counts);
        }
        arena.values.clear();
        arena.values.resize(n, false);
        arena.settled.clear();
        arena.settled.resize(n, false);
        arena.queue.reset(n, self.max_delay);
        self.apply_and_settle(seed, &mut arena.values, &mut arena.ins);
        if prev_pattern.is_none() {
            for i in 0..n {
                counts.ones[i] += arena.values[i] as u64;
            }
        }
        for pattern in rest {
            assert_eq!(pattern.len(), self.nl.num_inputs(), "pattern width");
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
                    budget.check_deadline()?;
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
            self.debug_check_settled(pattern, arena);
        }
        if meter.local > 0 {
            meter.flush(budget)?;
        }
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
    /// relaxation tick in the dense kernel), the queue limit bounds
    /// the pending events of each shard's calendar queue, and the deadline
    /// is polled per cycle. On exhaustion the run stops with a typed
    /// [`BudgetExceeded`] — a successful run is still bit-identical to the
    /// unbudgeted one.
    pub fn try_activity_jobs(
        &self,
        patterns: &PatternSet,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<TimingActivity, BudgetExceeded> {
        let n = self.nl.len();
        budget.check_deadline()?;
        let steps = AtomicU64::new(0);
        // Work items are the cycles *after* the first; each shard needs at
        // least one.
        let transitions = patterns.len().saturating_sub(1);
        let shards = par::num_threads(jobs).min(transitions.max(1)).max(1);
        let counts = if shards <= 1 {
            par::record_shard_gauges(&self.obs, "event", &[transitions.max(1)]);
            vec![self.shard_counts(None, patterns, &mut EventArena::new(), budget, &steps)?]
        } else {
            // Shards reuse one arena per worker thread (par_map_with), so
            // queue wheels and value buffers warm up once per core.
            // Shard s covers transition range r => patterns[r.start+1 ..
            // r.end+1), seeded by patterns[r.start]; shard 0 also owns the
            // initialization cycle 0.
            // One shard's work: (uncounted seed pattern, counted patterns).
            type Shard<'a> = (Option<&'a [bool]>, &'a [Vec<bool>]);
            let work: Vec<Shard> = par::shard_ranges(transitions, shards)
                .into_iter()
                .enumerate()
                .map(|(s, r)| {
                    if s == 0 {
                        (None, &patterns[0..r.end + 1])
                    } else {
                        (
                            Some(patterns[r.start].as_slice()),
                            &patterns[r.start + 1..r.end + 1],
                        )
                    }
                })
                .collect();
            if self.obs.is_enabled() {
                let sizes: Vec<usize> = work.iter().map(|(_, slice)| slice.len()).collect();
                par::record_shard_gauges(&self.obs, "event", &sizes);
            }
            par::par_map_with(&work, shards, EventArena::new, |_, (prev, slice), arena| {
                self.shard_counts(*prev, slice, arena, budget, &steps)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
        };
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
            self.obs
                .add("sim.event.processed", counts.iter().map(|c| c.processed).sum());
            self.obs
                .add("sim.event.enqueued", counts.iter().map(|c| c.enqueued).sum());
            self.obs
                .add("sim.event.cancelled", counts.iter().map(|c| c.cancelled).sum());
            self.obs
                .add("sim.event.coalesced", counts.iter().map(|c| c.coalesced).sum());
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
            probability: ones.iter().map(|&o| o as f64 / cycles.max(1) as f64).collect(),
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
    use netlist::gen::{array_multiplier, parity_tree, ripple_adder};

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

    #[test]
    fn dense_kernel_matches_calendar_queue_bit_exactly() {
        // With no queue limit a uniform-delay run takes the dense kernel
        // (a step limit keeps it there); a roomy queue limit sends the same
        // patterns through the calendar queue. Every activity number and
        // every derived event counter must agree exactly. 300 patterns =
        // one full 256-lane chunk plus a masked 43-lane chunk, so the
        // chunk-chaining handoff and the ragged tail are covered too; 1 and
        // 2 patterns are a stream with no transition and one with a single
        // lane. A seeded shard (every shard after the first) starts from
        // the pattern before it without counting that pattern's cycle.
        let (nl, _) = array_multiplier(5);
        let stream = Stimulus::uniform(10).patterns(301, 41);
        let unlimited = ResourceBudget::unlimited();
        let steps = ResourceBudget::unlimited().with_max_sim_steps(1 << 40);
        let queue = ResourceBudget::unlimited().with_max_event_queue(1 << 20);
        for delay in [1u32, 3] {
            let sim = EventSim::new(&nl, &DelayModel::PerNet(vec![delay; nl.len()]))
                .with_obs(obs::Obs::enabled());
            for len in [1, 2, 300] {
                for seeded in [false, true] {
                    let (seed, patterns) = if seeded {
                        (Some(stream[0].as_slice()), &stream[1..=len])
                    } else {
                        (None, &stream[..len])
                    };
                    let run = |budget: &ResourceBudget| {
                        let mut arena = EventArena::new();
                        sim.shard_counts(seed, patterns, &mut arena, budget, &AtomicU64::new(0))
                            .expect("budget never trips")
                    };
                    let dense = run(&unlimited);
                    let case = format!("delay {delay}, {len} patterns, seeded {seeded}");
                    for other in [run(&steps), run(&queue)] {
                        assert_eq!(dense.total, other.total, "{case}");
                        assert_eq!(dense.functional, other.functional, "{case}");
                        assert_eq!(dense.ones, other.ones, "{case}");
                        assert_eq!(dense.processed, other.processed, "{case}");
                        assert_eq!(dense.enqueued, other.enqueued, "{case}");
                        assert_eq!(dense.cancelled, other.cancelled, "{case}");
                        assert_eq!(dense.coalesced, other.coalesced, "{case}");
                    }
                    // The occupancy histogram profiles the queue, so only
                    // the queue run records it.
                    assert_eq!(dense.occupancy, QueueOccupancy::default());
                    assert_eq!(run(&steps).occupancy, QueueOccupancy::default());
                    if seeded || len > 1 {
                        assert!(run(&queue).occupancy.total() > 0, "{case}");
                    }
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
            assert!(
                (unit.functional.toggles[i] - analytic.functional.toggles[i]).abs() < 1e-9
            );
        }
    }
}
