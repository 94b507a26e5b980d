//! What a workload run hands back, and how it becomes metrics: the
//! end-to-end numbers (untraced), the per-layer numbers (traced rounds),
//! the printed lines, the JSON result line and the JSONL span trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use lowpower::obs::Snapshot;

use crate::harness::{self, Sample, SpanRec};
use crate::Workload;

/// Counts layers return to their caller instead of publishing to obs,
/// summed over the traced ops.
#[derive(Debug, Default)]
pub struct Tally {
    pub parsed_bytes: u64,
    /// Net count of the engine's netlist at every applied delta: the work a
    /// from-scratch re-evaluation per delta would do.
    pub incr_full_equiv: u64,
    pub sizing_trials: u64,
    pub sizing_arrival_evals: u64,
    /// `trials × nets`: the work a full STA per sizing trial would do.
    pub sizing_full_equiv: u64,
    pub dontcare_tried: u64,
    pub dontcare_accepted: u64,
    pub rewrite_tried: u64,
    pub rewrite_accepted: u64,
    pub rewrite_nets_reevaluated: u64,
}

/// The traced rounds (or phases) of a run.
pub struct Traced {
    /// Every span; each op's root span is named `op`.
    pub spans: Vec<SpanRec>,
    /// Wall seconds of the traced ops.
    pub wall: f64,
    pub ops: usize,
    /// `1 - traced / untraced` throughput, measured in the same process.
    pub overhead: f64,
    pub snapshot: Snapshot,
    pub tally: Tally,
    /// Per-layer values only one workload can compute (serve).
    pub extra: Vec<(&'static str, f64)>,
}

/// Everything a workload run produced.
pub struct Outcome {
    pub workload: Workload,
    /// Op (or job-spec) names, indexed like `Sample::op`.
    pub op_names: Vec<String>,
    /// Untraced timed samples.
    pub samples: Vec<Sample>,
    /// Throughput of every round (batch) or window of jobs (serve); the
    /// reported throughput is their median, so a burst of host noise in
    /// one of them does not move it.
    pub rates: Vec<f64>,
    pub setup_secs: Vec<f64>,
    /// Every probe time of the run ([`harness::Scaler`]).
    pub probes: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Check failures: any one makes the run incorrect.
    pub failures: Vec<String>,
    /// Reference output digest of every distinct op, in op order.
    pub digests: Vec<(String, u64)>,
    pub cap_ratio: Option<f64>,
    pub traced: Option<Traced>,
}

impl Outcome {
    pub fn new(workload: Workload) -> Outcome {
        Outcome {
            workload,
            op_names: Vec::new(),
            samples: Vec::new(),
            rates: Vec::new(),
            setup_secs: Vec::new(),
            probes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            digests: Vec::new(),
            cap_ratio: None,
            traced: None,
        }
    }

    /// One digest over every op's reference output, for comparing two
    /// builds on any seed.
    pub fn workload_digest(&self) -> u64 {
        self.digests
            .iter()
            .fold(harness::Digest::default(), |d, (name, v)| {
                d.text(name).num(*v)
            })
            .finish()
    }
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and where a percentile landed.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        note,
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds, from the untraced
/// samples. Timings are scaled to reference speed by the run's
/// [`harness::speed_factor`].
pub fn end_to_end(o: &Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    let factor = harness::speed_factor(&o.probes);
    let mut sorted = o.samples.clone();
    sorted.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    let n = sorted.len();
    let at = |permille: usize| {
        let s = sorted[harness::percentile_index(n, permille)];
        (s.secs * factor * 1e3, o.op_names[s.op].as_str())
    };
    let (p50, p50_op) = at(500);
    let tail = o.workload.tail_permille();
    let (tail_ms, tail_op) = at(tail);
    vec![
        metric(
            "ops_per_s",
            "ops/s",
            harness::median(&o.rates) / factor,
            format!("n={n} (median of {} rounds or passes)", o.rates.len()),
        ),
        metric("latency_p50_ms", "ms", p50, format!("n={n} op={p50_op}")),
        metric(
            "latency_tail_ms",
            "ms",
            tail_ms,
            format!("n={n} pct={} op={tail_op}", harness::percentile_label(tail)),
        ),
        metric(
            "setup_s",
            "s",
            harness::median(&o.setup_secs) * factor,
            format!("n={} (median)", o.setup_secs.len()),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            peak_rss_mib,
            "n=1 (VmHWM less the probe tables)".to_string(),
        ),
    ]
}

/// Reported with the end-to-end metrics but not bounded: the error rate is
/// zero on every workload (`failed` carries it), the capacitance ratio
/// exists only where ops optimize, and the wall-clock latencies on this
/// host move with its load. `host_speed` is the run's speed factor: how
/// fast the host ran the probe, relative to the reference host.
pub fn unbounded(o: &Outcome) -> Vec<Metric> {
    let mut wall: Vec<f64> = o.samples.iter().map(|s| s.secs * 1e3).collect();
    wall.sort_by(f64::total_cmp);
    let n = wall.len();
    let tail = o.workload.tail_permille();
    let mut out = vec![
        metric(
            "error_rate",
            "failed/attempted",
            o.failed as f64 / o.attempted.max(1) as f64,
            format!("n={}", o.attempted),
        ),
        metric(
            "wall_latency_p50_ms",
            "ms",
            wall[harness::percentile_index(n, 500)],
            format!("n={n}"),
        ),
        metric(
            "wall_latency_tail_ms",
            "ms",
            wall[harness::percentile_index(n, tail)],
            format!("n={n} pct={}", harness::percentile_label(tail)),
        ),
        metric(
            "host_speed",
            "ratio",
            harness::speed_factor(&o.probes),
            format!("n={} probes (median)", o.probes.len()),
        ),
    ];
    if let Some(r) = o.cap_ratio {
        out.push(metric(
            "cap_ratio",
            "after/before",
            r,
            "geomean over optimization ops".into(),
        ));
    }
    out
}

/// Per-op self time of every span name, summed over the traced ops.
fn self_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(harness::self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Names of the serve-only per-layer values, in print order.
pub const SERVE_LAYER_METRICS: [(&str, &str); 16] = [
    ("power.chain.answered.exact-bdd", "ratio"),
    ("power.chain.answered.probabilistic", "ratio"),
    ("power.chain.answered.sampled-sim", "ratio"),
    ("power.chain.abandoned", "count"),
    ("serve.power.p50_ms", "ms"),
    ("serve.power.p90_ms", "ms"),
    ("serve.stats.p50_ms", "ms"),
    ("serve.stats.p90_ms", "ms"),
    ("serve.dontcare.p50_ms", "ms"),
    ("serve.dontcare.p90_ms", "ms"),
    ("serve.fsm.p50_ms", "ms"),
    ("serve.fsm.p90_ms", "ms"),
    ("serve.handoff_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.patterns.reuse", "count"),
    ("serve.queue.depth.peak", "count"),
];

/// Every per-layer metric, in one fixed list for all workloads (a layer a
/// workload does not reach reads 0). Times and counts are means per op.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let selfs = self_by_name(&t.spans);
    let ops = t.ops.max(1) as f64;
    let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| t.snapshot.counter(name).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let tl = &t.tally;
    let note = || format!("n={}", t.ops);
    let s = |name: &'static str, span: &str| metric(name, "s", layer(span) / ops, note());
    let per_op = |name: &'static str, v: f64| metric(name, "count", v / ops, note());
    let r = |name: &'static str, v: f64| metric(name, "ratio", v, note());
    let unattributed = ratio(layer("op"), total_of(&t.spans, "op"));
    let mut out = vec![
        s("netlist.blif.parse_s", "netlist.blif.parse"),
        metric(
            "netlist.blif.parse_mb_per_s",
            "MB/s",
            ratio(tl.parsed_bytes as f64 / 1e6, layer("netlist.blif.parse")),
            note(),
        ),
        s("netlist.blif.write_s", "netlist.blif.write"),
        s("sim.stimulus.gen_s", "sim.stimulus.gen"),
        s("sim.event.build_s", "sim.event.build"),
        s("sim.event.run_s", "sim.event.run"),
        per_op("sim.event.processed", c("sim.event.processed")),
        per_op("sim.event.coalesced", c("sim.event.coalesced")),
        metric(
            "sim.event.ns_per_event",
            "ns",
            ratio(layer("sim.event.run") * 1e9, c("sim.event.processed")),
            note(),
        ),
        s("sim.incr.build_s", "sim.incr.build"),
        s("sim.incr.apply_s", "sim.incr.apply"),
        s("sim.incr.activity_s", "sim.incr.activity"),
        per_op("sim.incr.deltas", c("sim.incr.deltas")),
        per_op("sim.incr.nets_reevaluated", c("sim.incr.nets_reevaluated")),
        r(
            "sim.incr.work_ratio",
            ratio(c("sim.incr.nets_reevaluated"), tl.incr_full_equiv as f64),
        ),
        s("logicopt.balance.delta_s", "logicopt.balance.delta"),
        s("circuit.sizing.sta_s", "circuit.sizing.sta"),
        per_op("circuit.sizing.trials", tl.sizing_trials as f64),
        per_op(
            "circuit.sizing.arrival_evals",
            tl.sizing_arrival_evals as f64,
        ),
        r(
            "circuit.sizing.work_ratio",
            ratio(tl.sizing_arrival_evals as f64, tl.sizing_full_equiv as f64),
        ),
        s("logicopt.dontcare.sim_s", "logicopt.dontcare.sim"),
        per_op("logicopt.dontcare.tried", tl.dontcare_tried as f64),
        r(
            "logicopt.dontcare.accept_ratio",
            ratio(tl.dontcare_accepted as f64, tl.dontcare_tried as f64),
        ),
        s("logicopt.rewrite.search_s", "logicopt.rewrite.search"),
        per_op("logicopt.rewrite.moves_tried", tl.rewrite_tried as f64),
        per_op(
            "logicopt.rewrite.moves_accepted",
            tl.rewrite_accepted as f64,
        ),
        r(
            "logicopt.rewrite.accept_ratio",
            ratio(tl.rewrite_accepted as f64, tl.rewrite_tried as f64),
        ),
        per_op(
            "logicopt.rewrite.nets_reevaluated",
            tl.rewrite_nets_reevaluated as f64,
        ),
        metric(
            "logicopt.rewrite.us_per_move",
            "us",
            ratio(
                layer("logicopt.rewrite.search") * 1e6,
                tl.rewrite_tried as f64,
            ),
            note(),
        ),
        s("bdd.build_reorder_s", "bdd.build_reorder"),
        per_op("bdd.reorder.runs", c("bdd.reorder.runs")),
        per_op("bdd.reorder.swaps", c("bdd.reorder.swaps")),
        metric(
            "bdd.reorder.us_per_swap",
            "us",
            ratio(layer("bdd.build_reorder") * 1e6, c("bdd.reorder.swaps")),
            note(),
        ),
        metric(
            "bdd.peak_nodes",
            "count",
            t.snapshot.gauge("bdd.peak_nodes").unwrap_or(0.0),
            "peak over the run".into(),
        ),
        s("bdd.build_static_s", "bdd.build_static"),
        per_op("bdd.ite_calls", c("bdd.ite_calls")),
        r(
            "bdd.cache_hit_rate",
            ratio(c("bdd.cache_hits"), c("bdd.cache_lookups")),
        ),
        per_op("bdd.gc_runs", c("bdd.gc_runs")),
        s("power.exact.prob_s", "power.exact.prob"),
        s("power.model.report_s", "power.model.report"),
    ];
    for (name, unit) in SERVE_LAYER_METRICS {
        let value = t
            .extra
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        out.push(metric(name, unit, value, note()));
    }
    out.push(r("trace.overhead", t.overhead));
    out.push(r("trace.unattributed", unattributed));
    out
}

fn total_of(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

/// `layer` lines: every span name's self time per op and its share of the
/// traced wall time, largest first. The op root's self time is the time
/// no layer span covers.
pub fn layer_lines(workload: &str, t: &Traced) -> Vec<String> {
    let mut selfs: Vec<(&str, f64)> = self_by_name(&t.spans).into_iter().collect();
    selfs.sort_by(|a, b| b.1.total_cmp(&a.1));
    selfs
        .into_iter()
        .map(|(name, secs)| {
            let name = if name == "op" { "(unattributed)" } else { name };
            format!(
                "{workload} layer {name} self_s_per_op={:.6e} share={:.1}%",
                secs / t.ops.max(1) as f64,
                100.0 * secs / t.wall
            )
        })
        .collect()
}

/// Latency quartiles per op name (reference speed) and the median wall
/// time on this host, in the order names first appear.
pub fn op_lines(o: &Outcome) -> Vec<String> {
    let factor = harness::speed_factor(&o.probes);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &o.samples {
        by_name
            .entry(&o.op_names[s.op])
            .or_default()
            .push(s.secs * 1e3);
    }
    let mut out = Vec::new();
    for name in &o.op_names {
        let Some(wall) = by_name.remove(name.as_str()) else {
            continue;
        };
        let ms: Vec<f64> = wall.iter().map(|w| w * factor).collect();
        let q = harness::quartiles(&ms);
        out.push(format!(
            "{} op {name} n={} q1/median/q3_ms={:.3}/{:.3}/{:.3} wall_median_ms={:.3}",
            o.workload.name(),
            ms.len(),
            q[0],
            q[1],
            q[2],
            harness::median(&wall)
        ));
    }
    out
}

/// The last line of standard output.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The span trace as JSONL: one object per span.
pub fn trace_jsonl(o: &Outcome, t: &Traced) -> String {
    let mut out = String::new();
    for (id, s) in t.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\": \"{}\", \"id\": {id}, \"parent\": {parent}, \
             \"op\": {}, \"op_name\": \"{}\", \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}}}",
            o.workload.name(),
            s.op_seq,
            o.op_names.get(s.op).map_or("", String::as_str),
            s.name,
            s.start,
            s.end
        );
    }
    out
}
