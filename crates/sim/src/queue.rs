//! Bucketed calendar/time-wheel event queue for the timing simulators.
//!
//! The event engine ([`crate::event::EventSim`]) used to order pending
//! events with a global `BinaryHeap<Reverse<(time, net, seq, value)>>`:
//! every push and pop paid an `O(log n)` sift over 24-byte tuples, and
//! same-instant duplicates for one net were only coalesced lazily at pop
//! time. This queue replaces the heap with the classic calendar-queue
//! layout:
//!
//! * a power-of-two **wheel** of `W` buckets, one bucket per timestamp in
//!   the sliding window `[cursor, cursor + W)` (bucket `t & (W-1)`), with a
//!   one-bit-per-bucket occupancy bitmap so the next timestamp is found by
//!   a circular `trailing_zeros` scan instead of a heap sift;
//! * a small **overflow heap** for the rare event scheduled at or beyond
//!   `cursor + W` (only delays past the largest wheel reach it); entries
//!   migrate into the wheel lazily as the cursor advances past their
//!   window;
//! * a pooled **node arena**, cleared per cycle, so events are `(u32, bool)`
//!   pool slots instead of heap-allocated tuples; and
//! * a per-net **pending slot**: at most one scheduled event per net is
//!   live at a time, so re-scheduling a net at the same timestamp
//!   overwrites the pending value in place (a coalesce) instead of
//!   enqueueing a duplicate to cancel later.
//!
//! # Determinism contract
//!
//! [`CalendarQueue::pop_bucket`] drains one whole timestamp per call,
//! returning its transitions sorted by raw net index. That reproduces the
//! old heap's `(time, net, seq)` pop order bit-exactly: events at a given
//! instant come out in net order, and the last value scheduled for a
//! `(net, time)` pair wins — exactly what the heap's peek-ahead coalescing
//! rule (`seq` tiebreak + skip-if-next-is-same-net-and-time) computed.
//!
//! # Caller obligations
//!
//! * Timestamps passed to [`CalendarQueue::schedule`] must not precede the
//!   last popped timestamp (gate delays are clamped `>= 1`, so fanout
//!   events always land strictly after the bucket being processed).
//! * Per net, schedule times must be nondecreasing within a cycle. The
//!   event engine satisfies this naturally: a net's events are produced by
//!   pops at nondecreasing times plus one fixed per-net delay.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Smallest wheel ever allocated (one occupancy word).
const MIN_WHEEL: u32 = 64;
/// Largest wheel: beyond this, distant events go to the overflow heap.
const MAX_WHEEL: u32 = 4096;

/// One pending transition: `net` will take `value` at the bucket's time.
#[derive(Debug, Clone, Copy)]
struct Node {
    net: u32,
    value: bool,
}

/// A bucketed calendar queue over `(time, net, value)` events.
///
/// See the module docs for layout and the determinism contract.
#[derive(Debug, Default)]
pub struct CalendarQueue {
    /// Pooled event nodes for the current cycle.
    nodes: Vec<Node>,
    /// Wheel buckets holding node ids; bucket `b` owns at most one
    /// timestamp `t` with `t & mask == b` at a time.
    buckets: Vec<Vec<u32>>,
    /// One occupancy bit per bucket.
    occupied: Vec<u64>,
    /// `wheel_size - 1` (wheel size is a power of two).
    mask: u64,
    /// All pending times are `>= cursor`; the wheel covers
    /// `[cursor, cursor + wheel_size)`.
    cursor: u64,
    /// Events scheduled at or beyond `cursor + wheel_size` at insert time.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Live (scheduled, not yet popped) node count.
    pending: u64,
    /// Per-net pending slots; see [`Slot`].
    slots: Vec<Slot>,
    /// Bumped by [`CalendarQueue::begin_cycle`]; invalidates all slots.
    /// Never 0 after the first cycle, and slots reset stamps to 0 on wrap,
    /// so a stale stamp can never alias a live epoch.
    epoch: u32,
}

/// Per-net pending-slot record, packed to 16 bytes so the scheduling fast
/// path (`stamp` check + `time` compare + node overwrite) touches one
/// cache line. `stamp == epoch` means the net has a live node at `time`,
/// stored at pool index `node`.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    time: u64,
    stamp: u32,
    node: u32,
}

/// What [`CalendarQueue::schedule`] did with the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduled {
    /// A new pending node was created.
    New,
    /// The net already had a pending node at this exact time; its value
    /// was overwritten in place (last write wins, as the old heap's
    /// coalescing rule dictated).
    Coalesced,
    /// Nothing was scheduled: the event was a no-change marked `unchanged`
    /// by the caller and the net had no pending node, so it could not
    /// affect the value trajectory
    /// (see [`CalendarQueue::schedule_transition`]).
    Suppressed,
}

impl CalendarQueue {
    /// An empty queue; call [`CalendarQueue::reset`] before use.
    pub fn new() -> CalendarQueue {
        CalendarQueue::default()
    }

    /// Size the queue for `nets` nets and delays up to `max_delay` ticks,
    /// clearing any leftover state from a previous (possibly aborted) run.
    ///
    /// The wheel spans `(max_delay + 1).next_power_of_two()` buckets,
    /// clamped to `[64, 4096]`: every fanout event scheduled while draining
    /// the cursor bucket then lands inside the wheel window, so only delays
    /// beyond the clamp touch the overflow heap.
    pub fn reset(&mut self, nets: usize, max_delay: u32) {
        let wheel = (max_delay.saturating_add(1))
            .next_power_of_two()
            .clamp(MIN_WHEEL, MAX_WHEEL) as usize;
        if self.buckets.len() != wheel {
            self.buckets = vec![Vec::new(); wheel];
            self.occupied = vec![0u64; wheel / 64];
            self.mask = wheel as u64 - 1;
        } else {
            for b in &mut self.buckets {
                b.clear();
            }
            self.occupied.fill(0);
        }
        self.nodes.clear();
        self.overflow.clear();
        self.pending = 0;
        self.cursor = 0;
        self.epoch = 0;
        self.slots.clear();
        self.slots.resize(nets, Slot::default());
    }

    /// Start a new cycle: recycle the node pool, rewind the cursor and
    /// invalidate every per-net slot. The queue must be drained
    /// (`pending() == 0`) — each cycle's pop loop guarantees that.
    pub fn begin_cycle(&mut self) {
        debug_assert_eq!(self.pending, 0, "queue must drain between cycles");
        self.nodes.clear();
        self.cursor = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // `u32` stamp wrap (once per 2^32 cycles): clear stamps so a
            // slot from 4 billion cycles ago cannot look live again.
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 1;
        }
    }

    /// Number of live (scheduled, not yet popped) events.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedule `net` to take `value` at `time`.
    ///
    /// Returns [`Scheduled::Coalesced`] when the net already has a pending
    /// event at exactly `time` (the value is overwritten in place and the
    /// queue does not grow), [`Scheduled::New`] otherwise.
    pub fn schedule(&mut self, net: u32, time: u64, value: bool) -> Scheduled {
        debug_assert!(time >= self.cursor, "cannot schedule into the past");
        let s = self.slots[net as usize];
        if s.stamp == self.epoch && s.time == time {
            self.nodes[s.node as usize].value = value;
            return Scheduled::Coalesced;
        }
        self.push_node(net, time, value);
        Scheduled::New
    }

    /// [`CalendarQueue::schedule`] with no-change suppression folded into
    /// the same slot lookup. `unchanged` is the caller's verdict that
    /// `value` equals the net's current settled value: when the net also
    /// has no pending node, the event is suppressed entirely — every
    /// future event for the net lands strictly later (pop times rise and
    /// its delay is fixed), so by its apply time the value would still be
    /// in place and the old engine would have enqueued, popped, and
    /// cancelled it. A pending node at an earlier time means the value
    /// *will* change before `time`, so the event schedules normally.
    ///
    /// Only valid from the drain loop (between [`CalendarQueue::pop_bucket`]
    /// calls): right after seeding, pending events at the cursor time
    /// itself would be mistaken for popped ones.
    pub fn schedule_transition(
        &mut self,
        net: u32,
        time: u64,
        value: bool,
        unchanged: bool,
    ) -> Scheduled {
        debug_assert!(time > self.cursor, "fanout events land after the cursor");
        let s = self.slots[net as usize];
        if s.stamp == self.epoch {
            if s.time == time {
                self.nodes[s.node as usize].value = value;
                return Scheduled::Coalesced;
            }
            if s.time > self.cursor {
                // A live earlier node: the net's value changes before
                // `time`, so even an `unchanged` event must apply.
                self.push_node(net, time, value);
                return Scheduled::New;
            }
        }
        if unchanged {
            return Scheduled::Suppressed;
        }
        self.push_node(net, time, value);
        Scheduled::New
    }

    fn push_node(&mut self, net: u32, time: u64, value: bool) {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { net, value });
        self.slots[net as usize] = Slot {
            time,
            stamp: self.epoch,
            node: id,
        };
        let wheel = self.mask + 1;
        if time < self.cursor + wheel {
            self.bucket_insert(time, id);
        } else {
            self.overflow.push(Reverse((time, id)));
        }
        self.pending += 1;
    }

    fn bucket_insert(&mut self, time: u64, id: u32) {
        let b = (time & self.mask) as usize;
        self.buckets[b].push(id);
        self.occupied[b / 64] |= 1u64 << (b % 64);
    }

    /// Pop the next pending timestamp, draining its whole bucket into
    /// `out` as `(net, value)` pairs sorted by net index (one entry per
    /// net — same-time duplicates were coalesced at schedule time).
    ///
    /// Returns the timestamp, or `None` when the queue is empty.
    pub fn pop_bucket(&mut self, out: &mut Vec<(u32, bool)>) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let wheel_min = self.scan_wheel();
        let over_min = self.overflow.peek().map(|&Reverse((t, _))| t);
        let time = match (wheel_min, over_min) {
            // `o == w` must take this branch: an overflow event tied with
            // a wheel resident has to migrate into the bucket before the
            // drain, or one timestamp would split into two waves.
            (Some(w), Some(o)) if o <= w => {
                self.advance_to(o);
                o
            }
            (Some(w), _) => {
                self.cursor = w;
                w
            }
            (None, Some(o)) => {
                self.advance_to(o);
                o
            }
            (None, None) => {
                debug_assert!(false, "pending > 0 but no event found");
                return None;
            }
        };
        let b = (time & self.mask) as usize;
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        out.clear();
        // The bucket is moved out so `self.nodes` stays borrowable; its
        // capacity comes back with it.
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        for &id in &bucket {
            let node = self.nodes[id as usize];
            out.push((node.net, node.value));
        }
        self.pending -= bucket.len() as u64;
        bucket.clear();
        self.buckets[b] = bucket;
        // One live node per net per time, so sorting by net alone is a
        // total order; values never tie-break.
        out.sort_unstable_by_key(|&(net, _)| net);
        Some(time)
    }

    /// Advance the cursor to `time` (taken from the overflow heap) and
    /// migrate every overflow event now inside the wheel window. Wheel
    /// residents stay valid: they all have times in `[old_cursor, time)`'s
    /// complement — at least `time` is impossible since `time` was the
    /// global minimum outside the wheel, and below `old_cursor + wheel`
    /// they remain below `time + wheel`.
    fn advance_to(&mut self, time: u64) {
        self.cursor = time;
        let horizon = time + self.mask + 1;
        while let Some(&Reverse((t, id))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            self.overflow.pop();
            self.bucket_insert(t, id);
        }
    }

    /// Minimum pending timestamp inside the wheel, if any: a circular scan
    /// of the occupancy bitmap starting at the cursor's bucket.
    fn scan_wheel(&self) -> Option<u64> {
        let wheel = self.mask + 1;
        let base = (self.cursor & self.mask) as usize;
        let nwords = self.occupied.len();
        let (w0, b0) = (base / 64, base % 64);
        // Bits at or after the cursor inside the cursor's own word.
        let head = self.occupied[w0] >> b0;
        if head != 0 {
            return Some(self.cursor + head.trailing_zeros() as u64);
        }
        for k in 1..=nwords {
            let w = (w0 + k) % nwords;
            let word = self.occupied[w];
            if word != 0 {
                let pos = (w * 64) as u64 + word.trailing_zeros() as u64;
                let dist = (pos + wheel - base as u64) & self.mask;
                return Some(self.cursor + dist);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue) -> Vec<(u64, Vec<(u32, bool)>)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = q.pop_bucket(&mut batch) {
            out.push((t, batch.clone()));
        }
        out
    }

    #[test]
    fn pops_in_time_then_net_order() {
        let mut q = CalendarQueue::new();
        q.reset(8, 1);
        q.begin_cycle();
        q.schedule(3, 5, true);
        q.schedule(1, 2, false);
        q.schedule(7, 5, false);
        q.schedule(0, 2, true);
        let waves = drain_all(&mut q);
        assert_eq!(
            waves,
            vec![
                (2, vec![(0, true), (1, false)]),
                (5, vec![(3, true), (7, false)]),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_net_same_time_coalesces_last_value_wins() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1);
        q.begin_cycle();
        assert_eq!(q.schedule(2, 3, true), Scheduled::New);
        assert_eq!(q.schedule(2, 3, false), Scheduled::Coalesced);
        assert_eq!(q.schedule(2, 3, true), Scheduled::Coalesced);
        assert_eq!(q.pending(), 1);
        let waves = drain_all(&mut q);
        assert_eq!(waves, vec![(3, vec![(2, true)])]);
    }

    #[test]
    fn same_net_later_time_is_a_new_event() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1);
        q.begin_cycle();
        assert_eq!(q.schedule(2, 3, true), Scheduled::New);
        assert_eq!(q.schedule(2, 9, false), Scheduled::New);
        let waves = drain_all(&mut q);
        assert_eq!(waves, vec![(3, vec![(2, true)]), (9, vec![(2, false)])]);
    }

    #[test]
    fn overflow_events_migrate_into_the_wheel() {
        let mut q = CalendarQueue::new();
        // Wheel clamps to 64 buckets; times past 63 overflow at insert.
        q.reset(4, 1);
        q.begin_cycle();
        q.schedule(0, 1, true);
        q.schedule(1, 1000, true);
        q.schedule(2, 70, false);
        q.schedule(3, 1000, false);
        let waves = drain_all(&mut q);
        assert_eq!(
            waves,
            vec![
                (1, vec![(0, true)]),
                (70, vec![(2, false)]),
                (1000, vec![(1, true), (3, false)]),
            ]
        );
    }

    #[test]
    fn overflow_tied_with_wheel_resident_drains_as_one_wave() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1); // 64-bucket wheel
        q.begin_cycle();
        q.schedule(1, 100, true); // beyond the window: overflow
        q.schedule(0, 50, false);
        let mut batch = Vec::new();
        assert_eq!(q.pop_bucket(&mut batch), Some(50));
        // Cursor is now 50, so time 100 fits the wheel window [50, 114).
        q.schedule(2, 100, false);
        // Both the migrated overflow event and the wheel resident sit at
        // t=100: they must come out as one wave, not two.
        assert_eq!(q.pop_bucket(&mut batch), Some(100));
        assert_eq!(batch, vec![(1, true), (2, false)]);
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraparound_keeps_order() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1); // 64-bucket wheel
        q.begin_cycle();
        q.schedule(0, 60, true);
        let mut batch = Vec::new();
        assert_eq!(q.pop_bucket(&mut batch), Some(60));
        // 61 and 100 map to buckets 61 and 36: 36 < 61 in bucket index but
        // 100 > 61 in time; the circular scan from the cursor gets it right.
        q.schedule(1, 100, true);
        q.schedule(2, 61, false);
        assert_eq!(q.pop_bucket(&mut batch), Some(61));
        assert_eq!(batch, vec![(2, false)]);
        assert_eq!(q.pop_bucket(&mut batch), Some(100));
        assert_eq!(batch, vec![(1, true)]);
    }

    #[test]
    fn begin_cycle_recycles_the_pool() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1);
        for cycle in 0..3 {
            q.begin_cycle();
            q.schedule(0, 1, cycle % 2 == 0);
            q.schedule(1, 2, true);
            let waves = drain_all(&mut q);
            assert_eq!(waves.len(), 2, "cycle {cycle}");
            assert_eq!(waves[0].1, vec![(0, cycle % 2 == 0)]);
        }
    }

    #[test]
    fn reset_clears_leftover_state() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1);
        q.begin_cycle();
        q.schedule(0, 5, true);
        q.schedule(1, 500, true); // overflow
                                  // Simulate an aborted run: reset without draining.
        q.reset(4, 1);
        assert!(q.is_empty());
        q.begin_cycle();
        q.schedule(2, 1, true);
        let waves = drain_all(&mut q);
        assert_eq!(waves, vec![(1, vec![(2, true)])]);
    }

    #[test]
    fn wheel_sizes_follow_max_delay() {
        let mut q = CalendarQueue::new();
        q.reset(4, 1);
        assert_eq!(q.buckets.len(), 64, "clamped to one bitmap word");
        q.reset(4, 100);
        assert_eq!(q.buckets.len(), 128);
        q.reset(4, 1 << 20);
        assert_eq!(q.buckets.len(), 4096, "clamped at the top");
    }
}
