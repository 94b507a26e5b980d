//! Fork-join parallelism for the simulation engines.
//!
//! The whole experiment suite funnels through the simulators, so they are
//! the natural place to spend every core the host has. This module keeps
//! the workspace's zero-runtime-dependency policy: all parallelism is
//! `std::thread`.
//!
//! Each parallel call is one fork-join: [`par_map_with`] starts up to
//! `threads - 1` helper threads inside one `std::thread::scope`, works
//! beside them on the calling thread, and returns once the scope has
//! joined them all, so no thread outlives the call. A helper the host
//! cannot start is skipped; the threads that did start drain the work
//! between them. A process makes at most a few parallel calls (the
//! optimization loops judge their candidates on incremental engines that
//! never shard), so one thread spawn per helper per call is all the setup
//! there is.
//!
//! Invariants every caller relies on:
//!
//! * **Determinism** — [`par_map`] returns results in item order, and the
//!   simulators merge per-shard integer counts in fixed shard order, so an
//!   [`crate::ActivityProfile`] is bit-identical for every thread count —
//!   including however many helpers actually started.
//! * **Arena locality** — [`par_map_with`] gives each participant one
//!   `init()`-built state reused across every item it steals, so the hot
//!   loops allocate nothing per shard: simulation arenas warm up once per
//!   participant, not once per work item.
//! * **Panic isolation** — a panic inside `f` does not poison the other
//!   shards. [`par_map`] catches it, lets every healthy shard finish, then
//!   retries the failed items serially in index order. Only a
//!   deterministic second failure propagates, so a transient panic (e.g. a
//!   fault-injection experiment tripping an assert on one shard) costs a
//!   retry instead of the whole run — and the fixed-order merge the
//!   simulators rely on is unaffected because results still come back in
//!   item order. A caught panic never ends a participant either: it
//!   rebuilds its state and goes on to the next item.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a requested job count: `0` means "all available cores".
pub fn num_threads(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Split `n` items into at most `shards` contiguous, near-equal ranges.
/// Earlier ranges get the remainder; empty ranges are never returned.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Publish the shard shape of one parallel run as observability gauges:
/// `sim.par.<engine>.shards` (peak shard count across runs) and
/// `sim.par.<engine>.balance` (mean shard size / max shard size; 1.0 means
/// perfectly even). Gauges — not counters — because both values depend on
/// the thread count and host, unlike the engines' work counters, which are
/// defined to be thread-count invariant.
pub fn record_shard_gauges(obs: &obs::Obs, engine: &str, shard_sizes: &[usize]) {
    if !obs.is_enabled() || shard_sizes.is_empty() {
        return;
    }
    let shards = shard_sizes.len();
    let total: usize = shard_sizes.iter().sum();
    let max = shard_sizes.iter().copied().max().unwrap_or(1).max(1);
    let balance = total as f64 / (shards as f64 * max as f64);
    obs.gauge_max(&format!("sim.par.{engine}.shards"), shards as f64);
    obs.gauge_set(&format!("sim.par.{engine}.balance"), balance);
}

/// Map `f` over `items` on up to `jobs` worker threads
/// (work-stealing by atomic index), returning results in item order.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` or fewer than two
/// items, runs inline with no thread spawns.
///
/// A panic in `f` on a worker thread is caught per item: the remaining
/// shards run to completion, the panicked items are retried serially in
/// index order on the calling thread, and only a retry that panics again
/// propagates. The inline (single-thread) path has no first-chance catch —
/// a panic there is already deterministic.
pub fn par_map<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(items, jobs, || (), |i, t, _: &mut ()| f(i, t))
}

/// [`par_map`] with reusable per-worker state.
///
/// Each worker thread builds its state once with `init()` and threads it
/// through every item it steals, so expensive scratch (simulation arenas)
/// is constructed `threads` times instead of `items` times.
/// The inline (`jobs <= 1`) path builds one state and reuses it across all
/// items — exactly what a serial caller holding its own arena would do.
///
/// Panic isolation matches [`par_map`], with one addition: a caught panic
/// may have left the worker's state torn mid-update, so the worker rebuilds
/// it with `init()` before stealing the next item, and the serial retry
/// pass runs with a fresh state of its own.
pub fn par_map_with<T, U, S, F, I>(items: &[T], jobs: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &T, &mut S) -> U + Sync,
{
    let n = items.len();
    let threads = num_threads(jobs).min(n);
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(i, t, &mut state))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let sink: Mutex<(Vec<Option<U>>, Vec<usize>)> = Mutex::new((slots, Vec::new()));
    let work = || {
        let mut state = init();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // Swallow the payload here; the serial retry below will
            // reproduce it deterministically if the failure is real.
            let out = catch_unwind(AssertUnwindSafe(|| f(i, &items[i], &mut state))).ok();
            let rebuild = out.is_none();
            {
                let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
                match out {
                    Some(v) => sink.0[i] = Some(v),
                    None => sink.1.push(i),
                }
            }
            if rebuild {
                // The panic may have torn the state mid-update.
                state = init();
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            // A helper that cannot start is skipped, not fatal: the caller
            // and the helpers that did start drain the work index.
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
    let (mut results, mut failed) = sink.into_inner().unwrap_or_else(|e| e.into_inner());
    // Retry panicked items serially, in index order, on this thread with a
    // fresh state. A second panic is deterministic and propagates.
    failed.sort_unstable();
    if !failed.is_empty() {
        let mut state = init();
        for i in failed {
            results[i] = Some(f(i, &items[i], &mut state));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("worker produced every index"))
        .collect()
}

/// Run `f` with the global panic hook silenced, restoring it afterwards.
///
/// [`par_map`]'s first-chance `catch_unwind` still lets the default hook
/// print a backtrace for a panic that the serial retry then absorbs; tests
/// that inject panics on purpose wrap the call in this to keep output
/// clean. Takes a process-wide lock — panics from *other* threads are
/// silenced too while `f` runs, so this is for tests, not the library
/// hot path.
pub fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    use std::sync::Mutex;
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    drop(guard);
    match out {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_exactly() {
        for n in 0..40 {
            for shards in 1..9 {
                let ranges = shard_ranges(n, shards);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} shards={shards}");
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                assert!(ranges.iter().all(|r| !r.is_empty()));
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    #[test]
    fn par_map_is_order_preserving() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 3, 8] {
            let out = par_map(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_gauges_report_count_and_balance() {
        let obs = obs::Obs::enabled();
        record_shard_gauges(&obs, "comb", &[10, 10, 10, 10]);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("sim.par.comb.shards"), Some(4.0));
        assert_eq!(snap.gauge("sim.par.comb.balance"), Some(1.0));
        // Uneven shards lower balance; shard count keeps its peak.
        record_shard_gauges(&obs, "comb", &[30, 10]);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("sim.par.comb.shards"), Some(4.0), "gauge_max");
        assert_eq!(snap.gauge("sim.par.comb.balance"), Some(40.0 / 60.0));
        // Disabled handles record nothing and cost nothing.
        record_shard_gauges(&obs::Obs::disabled(), "comb", &[1, 2]);
    }

    #[test]
    fn num_threads_resolves_zero() {
        assert!(num_threads(0) >= 1);
        assert_eq!(num_threads(3), 3);
    }

    #[test]
    fn par_map_retries_transient_panics_serially() {
        use std::sync::atomic::AtomicUsize;
        // Item 7 panics on its first (parallel) attempt only; the serial
        // retry succeeds. Every other item must be unaffected.
        let items: Vec<usize> = (0..32).collect();
        let attempts = AtomicUsize::new(0);
        let out = with_quiet_panics(|| {
            par_map(&items, 4, |i, &x| {
                if i == 7 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient shard failure");
                }
                x * 10
            })
        });
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one retry");
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        // Count how many states are ever built: at most one per worker
        // (plus none extra for the retry path, unused here).
        use std::sync::atomic::AtomicUsize;
        let builds = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 4] {
            builds.store(0, Ordering::SeqCst);
            let out = par_map_with(
                &items,
                jobs,
                || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    Vec::<usize>::new()
                },
                |i, &x, scratch| {
                    scratch.push(i); // state persists across items
                    x * 2
                },
            );
            assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
            assert!(
                builds.load(Ordering::SeqCst) <= jobs,
                "jobs={jobs}: built {} states",
                builds.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn par_map_with_rebuilds_state_after_panic() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..32).collect();
        let attempts = AtomicUsize::new(0);
        let out = with_quiet_panics(|| {
            par_map_with(
                &items,
                4,
                || 0usize,
                |i, &x, poisoned| {
                    assert_eq!(*poisoned, 0, "torn state must not leak across items");
                    if i == 7 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        *poisoned = 1; // tear the state, then die
                        panic!("transient shard failure");
                    }
                    x + 100
                },
            )
        });
        assert_eq!(out, (0..32).map(|x| x + 100).collect::<Vec<_>>());
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "one retry");
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // A shard that itself fans out opens a fork-join of its own inside
        // the outer one and waits only on its own helpers.
        let items: Vec<usize> = (0..8).collect();
        let out = par_map(&items, 4, |_, &x| {
            let inner: Vec<usize> = (0..8).collect();
            par_map(&inner, 2, |_, &y| y + x).iter().sum::<usize>()
        });
        assert_eq!(out[0], (0..8).sum::<usize>());
        assert_eq!(out[3], (0..8).map(|y| y + 3).sum::<usize>());
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        // Several threads race whole par_map calls; each call's helpers
        // share only that call's work index and result sink.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let items: Vec<usize> = (0..200).collect();
                    for _ in 0..10 {
                        let out = par_map(&items, 3, |_, &x| x * 2);
                        assert_eq!(out[9], 18);
                        assert_eq!(out[199], 398);
                    }
                });
            }
        });
    }

    #[test]
    fn par_map_propagates_deterministic_panics() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_quiet_panics(|| {
                par_map(&items, 4, |i, &x| {
                    if i == 3 {
                        panic!("always fails");
                    }
                    x
                })
            })
        });
        assert!(result.is_err(), "second failure must propagate");
    }

    #[test]
    fn par_map_survives_many_simultaneous_panics() {
        use std::sync::atomic::AtomicUsize;
        // Every odd item panics once: all retried serially, in order.
        let items: Vec<usize> = (0..24).collect();
        let first_round = AtomicUsize::new(0);
        let out = with_quiet_panics(|| {
            let counter = &first_round;
            par_map(&items, 8, move |i, &x| {
                if i % 2 == 1 && counter.fetch_add(1, Ordering::SeqCst) < 100 && is_first(i) {
                    panic!("odd shard {i} first attempt");
                }
                x + 1
            })
        });
        assert_eq!(out, (0..24).map(|x| x + 1).collect::<Vec<_>>());

        // Tracks which (odd) indices have already panicked once.
        fn is_first(i: usize) -> bool {
            use std::sync::Mutex;
            static SEEN: Mutex<Option<[bool; 24]>> = Mutex::new(None);
            let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
            let seen = seen.get_or_insert([false; 24]);
            let first = !seen[i];
            seen[i] = true;
            first
        }
    }
}
