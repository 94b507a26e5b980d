//! Vendored minimal benchmark harness, API-compatible with the subset of
//! `criterion` this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `criterion` cannot be fetched. This crate implements the same surface —
//! [`Criterion`], [`Bencher::iter`]/[`Bencher::iter_batched`],
//! [`criterion_group!`]/[`criterion_main!`] — with a plain
//! warmup-then-sample loop and a one-line-per-bench text report
//! (median, min, and mean nanoseconds per iteration).
//!
//! There is no statistical outlier analysis, HTML report, or baseline
//! comparison; `crates/bench`'s `bench_json` binary is the persistent
//! performance record for this repository.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export so bench code can use `criterion::black_box` too.
pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost. All variants behave the same
/// here: setup runs outside the timed region for every batch of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Fresh input per iteration.
    PerIteration,
}

/// Benchmark driver: collects samples and prints a summary line.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Time spent warming up before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Run one benchmark and print its summary.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut samples = bencher.samples_ns;
        if samples.is_empty() {
            println!("bench {name:<45} (no samples)");
            return self;
        }
        samples.sort_unstable_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!(
            "bench {name:<45} median {:>12} min {:>12} mean {:>12}",
            format_ns(median),
            format_ns(min),
            format_ns(mean)
        );
        self
    }

    /// Compatibility no-op (the real crate finalizes reports here).
    pub fn final_summary(&mut self) {}
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Per-benchmark measurement context handed to the closure.
#[derive(Debug)]
pub struct Bencher {
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Time a routine, recording nanoseconds per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm up and estimate per-iteration cost.
        let warm_until = Instant::now() + self.warm_up_time;
        let mut warm_iters = 0u64;
        let warm_start = Instant::now();
        while Instant::now() < warm_until {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        // Split the measurement budget into sample_size samples.
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).max(1);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed().as_secs_f64();
            self.samples_ns.push(elapsed * 1e9 / iters_per_sample as f64);
        }
    }

    /// Time a routine with untimed per-batch setup.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm up once to estimate cost.
        let warm_until = Instant::now() + self.warm_up_time;
        let mut per_iter = f64::INFINITY;
        while Instant::now() < warm_until {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            per_iter = per_iter.min(start.elapsed().as_secs_f64());
        }
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).max(1);
        for _ in 0..self.sample_size {
            let mut total = 0.0f64;
            for _ in 0..iters_per_sample {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                total += start.elapsed().as_secs_f64();
            }
            self.samples_ns.push(total * 1e9 / iters_per_sample as f64);
        }
    }
}

/// Group benchmark functions under one entry point.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` for a set of benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
