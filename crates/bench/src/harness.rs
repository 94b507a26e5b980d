//! What the `BENCH_*` regression binaries share: their two timers, the
//! golden-circuit loader and the `[out.json] [--check]` command line.
//!
//! Every repeated timing in those binaries goes through one of two timers.
//! [`per_call`] times one side on its own; [`paired`] interleaves two
//! sides whose ratio or difference is the reported number.

use std::time::Instant;

use netlist::blif::parse_text;
use netlist::Netlist;

/// A batch must run longer than this before [`per_call`] times it.
const BATCH_FLOOR_SECS: f64 = 0.05;
/// Timed batches per [`per_call`]; the fastest is reported.
const BATCHES: usize = 5;
/// Untimed pairs before [`paired`] measures, so caches and allocators
/// settle first.
const WARMUP_PAIRS: usize = 2;
/// Timed pairs per [`paired`]; the median per side is reported.
const TIMED_PAIRS: usize = 9;

/// Seconds per call of `f`: best of 5 batches, each batching enough calls
/// to run past 50 ms so sub-millisecond work times the work, not the
/// clock.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    best_batch(|calls| {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_secs_f64()
    })
}

/// [`per_call`]'s schedule over `batch(calls)`, which runs `calls` calls
/// and returns their seconds: double the batch until one runs past the
/// floor, then report the best per-call time of [`BATCHES`] batches of
/// that size.
fn best_batch(mut batch: impl FnMut(usize) -> f64) -> f64 {
    let mut calls = 1usize;
    while batch(calls) <= BATCH_FLOOR_SECS {
        calls *= 2;
    }
    (0..BATCHES)
        .map(|_| batch(calls) / calls as f64)
        .fold(f64::INFINITY, f64::min)
}

/// Median seconds of `a` and of `b`, timed in alternating calls so clock
/// ramps, cache state and background load drift hit both sides equally.
/// Timing the two sides in separate back-to-back blocks systematically
/// favors whichever ran second (warmer). The median, unlike the minimum,
/// does not report whichever run caught the quietest scheduler moment, so
/// the two sides stay comparable.
pub fn paired(a: impl Fn(), b: impl Fn()) -> (f64, f64) {
    for _ in 0..WARMUP_PAIRS {
        a();
        b();
    }
    let mut sa = [0.0f64; TIMED_PAIRS];
    let mut sb = [0.0f64; TIMED_PAIRS];
    for i in 0..TIMED_PAIRS {
        let start = Instant::now();
        a();
        sa[i] = start.elapsed().as_secs_f64();
        let start = Instant::now();
        b();
        sb[i] = start.elapsed().as_secs_f64();
    }
    (median(&mut sa), median(&mut sb))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The golden netlist `tests/golden/{name}.blif`.
pub fn golden(name: &str) -> Netlist {
    let path = format!(
        "{}/../../tests/golden/{name}.blif",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_text(&text).expect("golden BLIF parses")
}

/// The command line `[out.json] [--check]`: the JSON path (the last
/// non-flag argument, else `default_out`) and whether `--check` was given.
pub fn args(default_out: &str) -> (String, bool) {
    let mut out_path = default_out.to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    (out_path, check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::time::Duration;

    #[test]
    fn paired_alternates_two_warmup_then_nine_timed_pairs() {
        let calls = RefCell::new(String::new());
        paired(
            || calls.borrow_mut().push('a'),
            || calls.borrow_mut().push('b'),
        );
        // 2 warm-up pairs, then 9 timed pairs: 22 calls.
        assert_eq!(*calls.borrow(), "ab".repeat(11));
    }

    #[test]
    fn per_call_doubles_past_the_floor_then_times_five_batches() {
        // A fake clock: every call takes 20 ms, so batches of 1 and 2
        // stay under the 50 ms floor and a batch of 4 clears it.
        let mut sizes = Vec::new();
        let secs = best_batch(|calls| {
            sizes.push(calls);
            calls as f64 * 0.02
        });
        assert_eq!(sizes, [1, 2, 4, 4, 4, 4, 4, 4]);
        assert_eq!(secs, 0.02);
    }

    #[test]
    fn per_call_reports_at_least_the_sleep() {
        // One sleeping call already runs past the floor, so the schedule
        // is one probe call plus five timed batches of one.
        let calls = Cell::new(0);
        let secs = per_call(|| {
            calls.set(calls.get() + 1);
            std::thread::sleep(Duration::from_millis(60));
        });
        assert_eq!(calls.get(), 6);
        assert!(secs >= 0.06, "per_call reported {secs} s for a 60 ms sleep");
    }
}
