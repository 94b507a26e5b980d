//! Measurement machinery shared by every workload: the timed loop,
//! nearest-rank percentiles and the samples a tail needs, quartiles, the
//! scaler that takes the host's speed drift out of timings, peak resident
//! memory, output digests, and the span recorder the traced run attributes
//! time with.

use std::time::Instant;

/// One timed op: which entry of the workload's op list ran, and its wall
/// time.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: usize,
    pub secs: f64,
}

/// The fixed op loop: call `round` (one whole pass over the op list,
/// returning how many samples it took) until `seconds` have passed and at
/// least `min_samples` were taken. The warm-up round belongs to set-up and
/// is run by the caller first.
pub fn run_rounds(seconds: f64, min_samples: usize, mut round: impl FnMut() -> usize) {
    let start = Instant::now();
    let mut taken = round();
    while start.elapsed().as_secs_f64() < seconds || taken < min_samples {
        taken += round();
    }
}

/// 1-based nearest rank of the `permille`-th per-mille percentile among
/// `n` samples: the smallest rank with at least that share of the samples
/// at or below it. Integer arithmetic, so `n = 100` at 900‰ is exactly 90.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Index into an ascending slice of `n` samples of the `permille`-th
/// percentile. Nearest rank never interpolates: the answer is always one
/// measured sample, so the op it came from is well defined.
pub fn percentile_index(n: usize, permille: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    rank(n, permille) - 1
}

/// The fewest samples that leave at least ten beyond the `permille`-th
/// percentile. A workload's tail percentile is fixed; its runs take at
/// least this many samples, however fast the program gets.
pub const fn min_samples(permille: usize) -> usize {
    assert!(permille < 1000, "no sample lies beyond the maximum");
    let mut n = 1;
    while n - (permille * n).div_ceil(1000) < 10 {
        n += 1;
    }
    n
}

/// `p90`-style label of a per-mille percentile.
pub fn percentile_label(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method), which is how run-to-run spread is
/// judged.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j`: extrapolation, as in Python.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of a non-empty sample (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Seconds one probe takes on the host the README's numbers come from
/// (2-core x86-64 VM at 2.1 GHz), rounded; only the unit of scaled times
/// depends on it.
pub const PROBE_REFERENCE_SECS: f64 = 4.0e-3;

/// The probe's two parts, which take about the same time: one chain of
/// dependent random read-modify-writes over 8 MiB, which misses the core's
/// own cache, and eight independent chains over 1 MiB, which stays in it
/// and keeps the core's execution units busy. A shared host slows the
/// first through the shared cache and memory and the second through the
/// sibling hardware thread; the program's ops feel both. While the host's
/// speed changed, the simulator and optimization ops slowed 1.1–1.4 times
/// as much as the first part alone (in log terms), 0.65–0.75 times as much
/// as the second, and about as much as the two together (README.md).
const PROBE_LATENCY_ENTRIES: usize = 1 << 21;
const PROBE_LATENCY_STEPS: usize = 250_000;
const PROBE_PARALLEL_ENTRIES: usize = 1 << 18;
const PROBE_PARALLEL_CHAINS: usize = 8;
const PROBE_PARALLEL_STEPS: usize = 100_000;

/// MiB the probe's tables keep resident, which `peak_rss_mb` leaves out.
pub const PROBE_MIB: f64 =
    ((PROBE_LATENCY_ENTRIES + PROBE_PARALLEL_ENTRIES) * 4) as f64 / (1 << 20) as f64;

/// One xorshift step of a probe chain.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Measures how fast the host runs while a workload runs. On a shared host
/// the speed of a core drifts by 20–40% over minutes with the load of other
/// guests, and every op slows with it. The workloads call
/// [`Scaler::probe`] (a fixed piece of CPU and memory work) between ops, so
/// the probes sample the host's state evenly through the run, and
/// [`speed_factor`] turns them into one factor that scales the whole run's
/// timings to reference speed. The probe calls no code of the program, so
/// a change to the program moves scaled times exactly as it moves wall
/// times.
pub struct Scaler {
    latency: Vec<u32>,
    parallel: Vec<u32>,
    /// Every probe time so far.
    pub seen: Vec<f64>,
}

impl Scaler {
    pub fn new() -> Scaler {
        // Filled with ones, so every page is touched before the first probe.
        Scaler {
            latency: vec![1; PROBE_LATENCY_ENTRIES],
            parallel: vec![1; PROBE_PARALLEL_ENTRIES],
            seen: Vec::new(),
        }
    }

    /// Run the probe once and record its wall time.
    pub fn probe(&mut self) {
        let start = Instant::now();
        // Table lengths are powers of two.
        let mask = self.latency.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..PROBE_LATENCY_STEPS {
            let slot = &mut self.latency[xorshift(&mut x) as usize & mask];
            *slot = slot.wrapping_add(x as u32);
        }
        let mask = self.parallel.len() - 1;
        let mut chains: [u64; PROBE_PARALLEL_CHAINS] =
            std::array::from_fn(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(2 * i as u64 + 1));
        for _ in 0..PROBE_PARALLEL_STEPS {
            for x in &mut chains {
                let slot = &mut self.parallel[xorshift(x) as usize & mask];
                *slot = slot.wrapping_add(*x as u32);
            }
        }
        std::hint::black_box((&self.latency, &self.parallel));
        self.seen.push(start.elapsed().as_secs_f64());
    }
}

/// The factor that scales a run's wall times to reference speed:
/// `PROBE_REFERENCE_SECS` over the median probe time of the run.
pub fn speed_factor(probes: &[f64]) -> f64 {
    PROBE_REFERENCE_SECS / median(probes)
}

/// Peak resident set size of this process in MiB (`VmHWM`), where the
/// platform publishes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Byte accumulator for an output digest (FNV-1a over everything fed in).
#[derive(Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn text(mut self, s: &str) -> Digest {
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(0);
        self
    }

    pub fn num(mut self, v: u64) -> Digest {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn float(self, v: f64) -> Digest {
        self.num(v.to_bits())
    }

    pub fn floats(self, vs: &[f64]) -> Digest {
        vs.iter()
            .fold(self.num(vs.len() as u64), |d, &v| d.float(v))
    }

    pub fn finish(&self) -> u64 {
        lowpower::bdd::store::fnv1a(&self.0)
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Seconds since the run's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Sequence number of the executed op (or job) the span belongs to.
    pub op_seq: u64,
    /// Index of that op in the workload's op list (or job stream).
    pub op: usize,
}

/// In-memory span recorder. A disabled recorder costs one
/// branch per span; spans are written out only when the run ends.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op_seq: u64,
    op: usize,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            op_seq: 0,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with the op they belong to.
    pub fn set_op(&mut self, op_seq: u64, op: usize) {
        self.op_seq = op_seq;
        self.op = op;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`]. Returns `None` when off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op_seq: self.op_seq,
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end = self.now();
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Run `f` inside a span named after the layer it calls into.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            children[p].push((s.start.max(parent.start), s.end.min(parent.end)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| ((s.end - s.start) - union_len(kids)).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            op_seq: 0,
            op: 0,
        }
    }

    #[test]
    fn nearest_rank_percentiles_land_on_samples() {
        assert_eq!(percentile_index(100, 500), 49);
        assert_eq!(percentile_index(100, 900), 89);
        assert_eq!(percentile_index(101, 500), 50);
        assert_eq!(percentile_index(1, 990), 0);
        assert_eq!(percentile_index(150, 900), 134);
    }

    #[test]
    fn min_samples_leave_ten_beyond_the_percentile() {
        assert_eq!(min_samples(500), 20);
        assert_eq!(min_samples(900), 100);
        assert_eq!(min_samples(990), 1000);
        assert_eq!(min_samples(999), 10_000);
        for p in [500, 900, 990, 999] {
            let n = min_samples(p);
            assert!(n - rank(n, p) >= 10);
            assert!(n - 1 - rank(n - 1, p) < 10, "not the fewest at {p}");
        }
        assert_eq!(percentile_label(990), "p99");
        assert_eq!(percentile_label(999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn speed_factor_uses_the_median_probe() {
        let factor = speed_factor(&[0.002, 0.008, 0.004]);
        assert_eq!(factor, PROBE_REFERENCE_SECS / 0.004);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,10] > mid [2,8] > leaf [3,5]
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("mid", 2.0, 8.0, Some(0)),
            span("leaf", 3.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn self_time_subtracts_overlapping_siblings_once() {
        // Two disjoint children and one overlapping the second and running
        // past the parent's end: coverage is a clipped union.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 7.0, Some(0)),
            span("c", 6.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 10.0 - 2.0 - 6.0);
        assert_eq!(&t[1..], &[2.0, 3.0, 6.0]);
    }

    #[test]
    fn tracer_records_nesting() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("off", || ());
        assert!(tr.spans.is_empty(), "disabled tracer records nothing");
        tr.set_enabled(true);
        for _ in 0..2 {
            let root = tr.begin("op");
            tr.span("leaf", || ());
            tr.end(root);
        }
        let spans = tr.into_spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
    }
}
