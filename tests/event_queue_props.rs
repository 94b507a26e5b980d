//! Property tests of the calendar event queue against a reference model of
//! the `BinaryHeap<Reverse<(time, net, seq, value)>>` it replaced.
//!
//! The event engines' determinism contract says the queue must reproduce
//! the old heap's pop order bit-exactly: events drain in `(time, net)`
//! order and the **last** value scheduled for a `(net, time)` pair wins
//! (the heap expressed that with a `seq` tiebreak plus peek-ahead
//! skipping). These properties drive both structures with identical random
//! streams — including same-timestamp collisions, schedules interleaved
//! with pops, and times far past the wheel span so events overflow and
//! wrap the cursor — and demand identical waves. The queue is in turn the
//! reference for `EventSim`'s dense word kernel, which must reproduce its
//! activity and event counters exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lowpower::budget::ResourceBudget;
use lowpower::logicopt::balance::balance_paths;
use lowpower::netlist::gen::array_multiplier;
use lowpower::obs::Obs;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::queue::{CalendarQueue, Scheduled};
use lowpower::sim::stimulus::Stimulus;
use proptest::prelude::*;

/// The old event queue, verbatim semantics: a min-heap on
/// `(time, net, seq)` with coalescing done lazily at pop time by skipping
/// an entry whenever the next one carries the same `(time, net)`.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(u64, u32, u64, bool)>>,
    seq: u64,
}

impl RefHeap {
    fn schedule(&mut self, net: u32, time: u64, value: bool) {
        self.heap.push(Reverse((time, net, self.seq, value)));
        self.seq += 1;
    }

    /// Drain one timestamp: transitions sorted by net, later seq wins.
    fn pop_wave(&mut self) -> Option<(u64, Vec<(u32, bool)>)> {
        let &Reverse((t0, ..)) = self.heap.peek()?;
        let mut wave = Vec::new();
        while let Some(&Reverse((t, net, _, value))) = self.heap.peek() {
            if t != t0 {
                break;
            }
            self.heap.pop();
            if let Some(&Reverse((t2, n2, _, _))) = self.heap.peek() {
                if t2 == t && n2 == net {
                    continue; // superseded by a later schedule
                }
            }
            wave.push((net, value));
        }
        Some((t0, wave))
    }
}

const NETS: u32 = 32;

/// Schedule `seeds` into both queues up front (sorted by time so per-net
/// schedule times are nondecreasing — the engines' caller obligation),
/// then drain both, feeding `followups` in after each popped wave the way
/// fanout evaluation schedules successor events. Returns the two full
/// drain transcripts.
#[allow(clippy::type_complexity)]
fn drive(
    max_delay: u32,
    mut seeds: Vec<(u32, u64, bool)>,
    followups: &[(u32, u64, bool)],
) -> (Vec<(u64, Vec<(u32, bool)>)>, Vec<(u64, Vec<(u32, bool)>)>) {
    let mut q = CalendarQueue::new();
    q.reset(NETS as usize, max_delay);
    q.begin_cycle();
    let mut r = RefHeap::default();
    // Last scheduled time per net, to keep per-net times nondecreasing.
    let mut last = vec![0u64; NETS as usize];

    seeds.sort_by_key(|&(_, t, _)| t);
    let mut news = 0u64;
    let mut coalesced = 0u64;
    for &(net, t, v) in &seeds {
        match q.schedule(net, t, v) {
            Scheduled::New => news += 1,
            Scheduled::Coalesced | Scheduled::Suppressed => coalesced += 1,
        }
        r.schedule(net, t, v);
        last[net as usize] = t;
    }
    assert_eq!(q.pending(), news, "pending counts live nodes only");

    let mut got = Vec::new();
    let mut expect = Vec::new();
    let mut batch = Vec::new();
    let mut next = 0usize;
    while let Some(t) = q.pop_bucket(&mut batch) {
        got.push((t, batch.clone()));
        expect.push(r.pop_wave().expect("reference drained early"));
        // Interleave one follow-up schedule per popped wave, strictly
        // after the popped time and never before the net's last schedule.
        if next < followups.len() {
            let (net, delta, v) = followups[next];
            next += 1;
            let time = t.max(last[net as usize]) + 1 + delta;
            match q.schedule(net, time, v) {
                Scheduled::New => news += 1,
                Scheduled::Coalesced | Scheduled::Suppressed => coalesced += 1,
            }
            r.schedule(net, time, v);
            last[net as usize] = time;
        }
    }
    assert!(q.is_empty());
    assert!(r.pop_wave().is_none(), "queue drained early");
    assert_eq!(
        news,
        got.iter().map(|(_, w)| w.len() as u64).sum::<u64>(),
        "every non-coalesced schedule pops exactly once"
    );
    let _ = coalesced;
    (got, expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random streams with same-timestamp collisions and far-future times
    /// (the wheel spans at most `(max_delay+1).next_power_of_two()`
    /// buckets, so times up to 4000 force overflow-heap migration and
    /// cursor wraparound) drain bit-identically to the reference heap.
    #[test]
    fn calendar_queue_matches_reference_heap(
        max_delay in 1u32..200,
        seeds in proptest::collection::vec((0..NETS, 0u64..4000, any::<bool>()), 1..150),
        followups in proptest::collection::vec((0..NETS, 0u64..40, any::<bool>()), 0..150),
    ) {
        let (got, expect) = drive(max_delay, seeds, &followups);
        prop_assert_eq!(got, expect);
    }

    /// `begin_cycle` fully recycles the pool and per-net slots: reusing
    /// one queue across cycles gives the same waves as a fresh reference
    /// heap per cycle.
    #[test]
    fn queue_reuse_across_cycles_is_clean(
        max_delay in 1u32..64,
        cycles in proptest::collection::vec(
            proptest::collection::vec((0..NETS, 0u64..300, any::<bool>()), 1..40),
            1..5,
        ),
    ) {
        let mut q = CalendarQueue::new();
        q.reset(NETS as usize, max_delay);
        let mut batch = Vec::new();
        for mut seeds in cycles {
            q.begin_cycle();
            let mut r = RefHeap::default();
            seeds.sort_by_key(|&(_, t, _)| t);
            for &(net, t, v) in &seeds {
                q.schedule(net, t, v);
                r.schedule(net, t, v);
            }
            while let Some(t) = q.pop_bucket(&mut batch) {
                let (rt, rwave) = r.pop_wave().expect("reference drained early");
                prop_assert_eq!(t, rt);
                prop_assert_eq!(&batch, &rwave);
            }
            prop_assert!(r.pop_wave().is_none());
        }
    }
}

/// The dense kernel against the calendar queue on a fully balanced 8-bit
/// array multiplier, where every relaxation tick writes back only the few
/// nets of one level, for streams of 1, 2 and 300 patterns on 1 to 3
/// shards (each shard after the first starts from a seed pattern). A
/// queue-length limit is what sends a unit-delay run through the queue;
/// every activity field and every event counter must agree.
#[test]
fn dense_kernel_matches_calendar_queue_on_balanced_multiplier() {
    let (balanced, _) = balance_paths(&array_multiplier(8).0, 0);
    let queue = ResourceBudget::unlimited().with_max_event_queue(1 << 20);
    for cycles in [1, 2, 300] {
        let patterns = Stimulus::uniform(16).patterns(cycles, 43);
        for jobs in [1, 2, 3] {
            let run = |budget: &ResourceBudget| {
                let obs = Obs::enabled();
                let timing = EventSim::new(&balanced, &DelayModel::Unit)
                    .with_obs(obs.clone())
                    .try_activity_jobs(&patterns, jobs, budget)
                    .expect("roomy budget");
                (timing, obs.snapshot().counters)
            };
            let (dense, dense_counters) = run(&ResourceBudget::unlimited());
            let (queued, queue_counters) = run(&queue);
            let case = format!("{cycles} patterns, jobs {jobs}");
            assert_eq!(dense.total, queued.total, "{case}");
            assert_eq!(dense.functional, queued.functional, "{case}");
            assert_eq!(dense_counters, queue_counters, "{case}");
            assert_eq!(dense.glitch_fraction(), 0.0, "balanced paths cannot glitch");
        }
    }
}
