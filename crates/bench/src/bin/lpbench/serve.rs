//! The `serve` workload: a closed-loop client that waits for each answer
//! before sending the next job (as `lpopt submit` callers do), against a
//! one-worker [`Server`]. The stream mixes power, stats, don't-care and
//! FSM jobs in `bench_serve`'s honest-job proportions (see [`stream`]),
//! over 22 generated circuits — more than the worker's 16-entry BDD cache
//! holds.
//!
//! One client and one worker keep the run steady: the worker sees the jobs
//! in the same order on every run, so its cache hits do not depend on which
//! of several workers took a job, and the client can probe the host's
//! speed between jobs while nothing is in flight.

use std::ops::Range;
use std::time::Instant;

use lowpower::netlist::blif::write_text;
use lowpower::netlist::{gen, Netlist, Rng64};
use lowpower::obs::Obs;
use lowpower::serve::worker::{cold_run, execute, ExecPolicy, WorkerState};
use lowpower::serve::{JobKind, JobOutput, JobSpec, ServeConfig, Server};

use crate::harness::{self, Digest, Sample, Scaler, Tracer};
use crate::report::{Outcome, Tally, Traced};
use crate::{Length, Mode, Workload};

const WORKERS: usize = 1;
/// Distinct job specs; the warm-up pass runs each once, timed jobs cycle
/// through them.
const STREAM: usize = 200;
/// Jobs between two probes of the host's speed (about 0.1 s of jobs).
const PROBE_EVERY: usize = 10;
const SMOKE_JOBS: usize = 50;
/// Timed jobs a run takes at least, so the tail has ten samples beyond it.
const MIN_JOBS: usize = harness::min_samples(Workload::Serve.tail_permille());
/// Job weights, power : stats : don't-care : FSM (see [`stream`]).
const MIX: [usize; 4] = [55, 15, 10, 7];
const MIX_TOTAL: usize = MIX[0] + MIX[1] + MIX[2] + MIX[3];
/// Node cap of the power jobs whose exact tier is meant to give up, as
/// `bench_serve`'s starved jobs set it.
const CAPPED_NODES: u64 = 16;
/// Every this-many-th spec is re-run cold and compared.
const COLD_SAMPLE: usize = 17;
/// Seed of the stream's fixed job order.
const ORDER_SEED: u64 = 0x0bde_7a11;
/// Jobs per phase when a traced run alternates servers.
const TRACE_PHASE_JOBS: usize = 200;

/// Sample labels; `Sample::op` indexes this.
const KINDS: [&str; 4] = ["power", "stats", "dontcare", "fsm"];
const JOB_SPANS: [&str; 4] = [
    "serve.job.power",
    "serve.job.stats",
    "serve.job.dontcare",
    "serve.job.fsm",
];

fn kind_index(kind: JobKind) -> usize {
    match kind {
        JobKind::Power => 0,
        JobKind::Stats => 1,
        JobKind::Dontcare => 2,
        _ => 3,
    }
}

/// The circuit pool. Structures are fixed (the random DAGs use constant
/// generator seeds): don't-care and exact-tier cost varies several-fold
/// between random structures, which would swamp every bound. The smoke
/// pool keeps only small circuits.
fn circuits(smoke: bool) -> Vec<Netlist> {
    if smoke {
        return vec![
            gen::ripple_adder(4).0,
            gen::array_multiplier(4).0,
            gen::wallace_multiplier(4).0,
            gen::alu4(4),
            gen::pipelined_multiplier(4),
            random_dag(0),
        ];
    }
    let mut out = vec![
        gen::ripple_adder(4).0,
        gen::ripple_adder(8).0,
        gen::ripple_adder(16).0,
        gen::kogge_stone_adder(8).0,
        gen::kogge_stone_adder(12).0,
        gen::array_multiplier(4).0,
        gen::array_multiplier(6).0,
        gen::wallace_multiplier(4).0,
        gen::wallace_multiplier(6).0,
        gen::comparator_gt(8).0,
        gen::comparator_gt(12).0,
        gen::parity_tree(12),
        gen::alu4(4),
        gen::pipelined_multiplier(4),
    ];
    out.extend((0..8).map(random_dag));
    out
}

/// The `k`-th random DAG of the pool: 8 + k inputs, 40 + 20k gates.
fn random_dag(k: usize) -> Netlist {
    let config = gen::RandomDagConfig {
        inputs: 8 + k,
        gates: 40 + 20 * k,
        outputs: 4 + k / 2,
        max_fanin: 3,
        window: 12 + 2 * k,
    };
    gen::random_dag(&config, k as u64 + 1)
}

/// A complete KISS2 machine with `.i`/`.o` headers.
fn machine(rng: &mut Rng64) -> String {
    let states = rng.range(3, 9);
    let input_bits = rng.range(1, 3);
    let output_bits = rng.range(1, 3);
    let mut text = format!(".i {input_bits}\n.o {output_bits}\n.s {states}\n");
    for s in 0..states {
        for symbol in 0..1usize << input_bits {
            let input: String = (0..input_bits)
                .rev()
                .map(|b| if symbol >> b & 1 == 1 { '1' } else { '0' })
                .collect();
            let output: String = (0..output_bits)
                .map(|_| if rng.flip() { '1' } else { '0' })
                .collect();
            text.push_str(&format!(
                "{input} s{s} s{} {output}\n",
                rng.range(0, states)
            ));
        }
    }
    text.push_str(".e\n");
    text
}

/// The job stream. No measured serve traffic exists, so its composition is
/// an assumption taken from `bench_serve`'s honest jobs: weights 55 power,
/// 15 stats, 10 don't-care and 7 FSM (`bench_serve`'s KISS share, all sent
/// as FSM jobs here because a KISS payload under the stats kind fails),
/// with 8% of power jobs under a 16-node BDD cap and stimuli of 32 to 256
/// cycles. Counts, circuits (round-robin), stimulus lengths and job order
/// are fixed, so the work in one pass does not move with the seed; the
/// seed draws the FSMs and each job's stimulus.
fn stream(seed: u64, smoke: bool) -> Vec<JobSpec> {
    let mut rng = Rng64::new(seed ^ 0x5e_47e5_0b5e);
    let nets = circuits(smoke);
    let blifs: Vec<String> = nets.iter().map(write_text).collect();
    let dontcare: Vec<&String> = (0..nets.len())
        .filter(|&i| nets[i].is_combinational() && nets[i].num_inputs() <= 16)
        .map(|i| &blifs[i])
        .collect();
    let machines: Vec<String> = (0..6).map(|_| machine(&mut rng)).collect();
    let len = if smoke { SMOKE_JOBS } else { STREAM };
    let share = |weight: usize| (len * weight + MIX_TOTAL / 2) / MIX_TOTAL;
    let (power, stats, dc) = (share(MIX[0]), share(MIX[1]), share(MIX[2]));
    let mut specs: Vec<JobSpec> = (0..power)
        .map(|j| {
            let mut spec = JobSpec::new(JobKind::Power, blifs[j % blifs.len()].clone());
            if j % 25 < 2 {
                spec.max_bdd_nodes = Some(CAPPED_NODES);
            }
            spec
        })
        .chain((0..stats).map(|j| JobSpec::new(JobKind::Stats, blifs[j % blifs.len()].clone())))
        .chain(
            (0..dc).map(|j| JobSpec::new(JobKind::Dontcare, dontcare[j % dontcare.len()].clone())),
        )
        .chain(
            (power + stats + dc..len)
                .map(|j| JobSpec::new(JobKind::Fsm, machines[j % machines.len()].clone())),
        )
        .collect();
    for (j, spec) in specs.iter_mut().enumerate() {
        spec.cycles = 32 << (j % 4);
        spec.seed = rng.next_u64();
    }
    Rng64::new(ORDER_SEED).shuffle(&mut specs);
    specs
}

fn answer_digest(result: &Result<JobOutput, lowpower::serve::JobError>) -> u64 {
    match result {
        Ok(out) => Digest::default()
            .text(&out.text)
            .text(out.tier.as_deref().unwrap_or("-"))
            .finish(),
        Err(e) => Digest::default()
            .text("error")
            .text(&e.to_string())
            .finish(),
    }
}

struct JobSample {
    spec: usize,
    kind: usize,
    /// Wall time from submission to answer.
    secs: f64,
    digest: u64,
    ok: bool,
    tier: Option<String>,
}

/// Run the closed loop over stream indices `jobs`: send each job, wait for
/// its answer, send the next. With a scaler, every [`PROBE_EVERY`] jobs are
/// followed by a probe, run while no job is in flight. Returns the samples
/// and the client's wall time, probes excluded.
fn closed_loop(
    server: &Server,
    specs: &[JobSpec],
    jobs: Range<usize>,
    tr: &mut Tracer,
    mut scaler: Option<&mut Scaler>,
) -> (Vec<JobSample>, f64) {
    let mut out = Vec::with_capacity(jobs.len());
    let mut wall = 0.0;
    let mut start = Instant::now();
    for i in jobs {
        let spec = specs[i % specs.len()].clone();
        let kind = kind_index(spec.kind);
        tr.set_op(i as u64, kind);
        let root = tr.begin("op");
        let t = Instant::now();
        let response = tr.span(JOB_SPANS[kind], || server.run(spec));
        let secs = t.elapsed().as_secs_f64();
        tr.end(root);
        out.push(JobSample {
            spec: i % specs.len(),
            kind,
            secs,
            digest: answer_digest(&response.result),
            ok: response.result.is_ok(),
            tier: response.result.ok().and_then(|o| o.tier),
        });
        if let Some(scaler) = scaler.as_mut().filter(|_| out.len() % PROBE_EVERY == 0) {
            wall += start.elapsed().as_secs_f64();
            scaler.probe();
            start = Instant::now();
        }
    }
    (out, wall + start.elapsed().as_secs_f64())
}

fn start_server(obs: Obs) -> Server {
    Server::start(ServeConfig {
        workers: WORKERS,
        obs,
        ..ServeConfig::default()
    })
}

fn percentile_ms(mut secs: Vec<f64>, permille: usize) -> f64 {
    if secs.is_empty() {
        return 0.0;
    }
    secs.sort_by(f64::total_cmp);
    secs[harness::percentile_index(secs.len(), permille)] * 1e3
}

pub fn run(mode: &Mode) -> Outcome {
    let origin = Instant::now();
    let mut outcome = Outcome::new(Workload::Serve);
    outcome.op_names = KINDS.iter().map(|k| k.to_string()).collect();
    let traced_obs = Obs::enabled();
    let mut ref_digests: Vec<u64> = Vec::new();
    let mut specs = Vec::new();
    let mut servers: Vec<Server> = Vec::new();

    // Set-up: generate the stream, start the server(s), one warm-up pass;
    // then a probe of the host's speed.
    let mut scaler = Scaler::new();
    for rep in 0..mode.setup_reps {
        for old in servers.drain(..) {
            old.shutdown_drain();
        }
        let start = Instant::now();
        specs = stream(mode.seed, mode.smoke);
        let mut observers = vec![Obs::disabled()];
        if mode.trace {
            observers.push(traced_obs.clone());
        }
        for obs in observers {
            let server = start_server(obs);
            let (warm, _) = closed_loop(
                &server,
                &specs,
                0..specs.len(),
                &mut Tracer::new(origin),
                None,
            );
            let mut digests = vec![0u64; specs.len()];
            for s in &warm {
                digests[s.spec] = s.digest;
            }
            if !ref_digests.is_empty() && digests != ref_digests {
                outcome
                    .failures
                    .push(format!("warm-up answers changed (set-up repetition {rep})"));
            }
            ref_digests = digests;
            servers.push(server);
        }
        outcome.setup_secs.push(start.elapsed().as_secs_f64());
        scaler.probe();
    }
    let specs = &specs;

    // Timed phases. An untraced run takes whole passes over the stream; a
    // traced run alternates the plain and the traced server over the same
    // stretch of it, so the tracing overhead is measured in one process.
    let mut untraced: Vec<JobSample> = Vec::new();
    let mut traced: Vec<JobSample> = Vec::new();
    let mut plain_tr = Tracer::new(origin);
    let mut tr = Tracer::new(origin);
    tr.set_enabled(true);
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    // The traced server counted its warm-up too; only the timed phases'
    // share of its counters is reported.
    let stats_before = servers[servers.len() - 1].stats();
    let counters_before = traced_obs.snapshot();
    let (phase_jobs, seconds, min_jobs) = match mode.length {
        Length::OneRound => (SMOKE_JOBS / 2, 0.0, 0),
        Length::Seconds(s) if mode.trace => (TRACE_PHASE_JOBS, s, 0),
        Length::Seconds(s) => (specs.len(), s, MIN_JOBS),
    };
    let start = Instant::now();
    let mut phase = 0;
    while phase < servers.len()
        || untraced.len() < min_jobs
        || start.elapsed().as_secs_f64() < seconds
    {
        let first = phase / servers.len() * phase_jobs;
        let jobs = first..first + phase_jobs;
        if phase % servers.len() == 1 {
            let (s, wall) = closed_loop(&servers[1], specs, jobs, &mut tr, Some(&mut scaler));
            traced.extend(s);
            traced_wall += wall;
        } else {
            let (s, wall) = closed_loop(&servers[0], specs, jobs, &mut plain_tr, Some(&mut scaler));
            outcome.rates.push(s.len() as f64 / wall);
            untraced.extend(s);
            untraced_wall += wall;
        }
        phase += 1;
    }
    outcome.probes = scaler.seen;
    let stats_after = servers[servers.len() - 1].stats();
    for server in servers {
        server.shutdown_drain();
    }

    // Checks: every answer matches its spec's warm-up answer, and a
    // deterministic sample of specs matches a cold single-process run.
    let mut mismatches = 0;
    for s in untraced.iter().chain(&traced) {
        if s.digest != ref_digests[s.spec] {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        outcome.failures.push(format!(
            "{mismatches} answers differ from the warm-up answer of their spec"
        ));
    }
    for (i, spec) in specs.iter().enumerate().step_by(COLD_SAMPLE) {
        let (cold, _) = cold_run(spec, &ExecPolicy::default());
        if answer_digest(&cold) != ref_digests[i] {
            outcome.failures.push(format!(
                "spec {i} ({}): warm answer differs from a cold run",
                spec.kind.name()
            ));
        }
    }
    outcome.digests = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let stream = if mode.smoke { "smoke" } else { "job" };
            (
                format!("{stream}-{i:03}/{}", spec.kind.name()),
                ref_digests[i],
            )
        })
        .collect();
    outcome.attempted = untraced.len();
    outcome.failed = untraced.iter().filter(|s| !s.ok).count();
    outcome.samples = untraced
        .iter()
        .map(|s| Sample {
            op: s.kind,
            secs: s.secs,
        })
        .collect();

    if !traced.is_empty() {
        let power: Vec<&JobSample> = traced.iter().filter(|s| s.kind == 0).collect();
        let n_power = power.len().max(1) as f64;
        let tier_share = |tier: &str| {
            power
                .iter()
                .filter(|s| s.tier.as_deref() == Some(tier))
                .count() as f64
                / n_power
        };
        let kind_ms = |kind: usize, permille: usize| {
            percentile_ms(
                untraced
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.secs)
                    .collect(),
                permille,
            )
        };
        // Hand-off cost: a stats job through the server against the same
        // specs executed directly on this thread.
        let policy = ExecPolicy::default();
        let mut direct = Vec::new();
        for spec in specs.iter().filter(|s| s.kind == JobKind::Stats) {
            let mut state = WorkerState::new(1);
            for _ in 0..5 {
                let t = Instant::now();
                let _ = execute(spec, None, &mut state, &policy);
                direct.push(t.elapsed().as_secs_f64());
            }
        }
        let mut snapshot = traced_obs.snapshot();
        for (name, total) in &mut snapshot.counters {
            *total -= counters_before.counter(name).unwrap_or(0);
        }
        let hits = (stats_after.cache_hits - stats_before.cache_hits) as f64;
        let lookups = hits + (stats_after.cache_misses - stats_before.cache_misses) as f64;
        let extra = vec![
            ("power.chain.answered.exact-bdd", tier_share("exact-bdd")),
            (
                "power.chain.answered.probabilistic",
                tier_share("probabilistic"),
            ),
            (
                "power.chain.answered.sampled-sim",
                tier_share("sampled-sim"),
            ),
            (
                "power.chain.abandoned",
                snapshot.counter_sum("chain.abandoned.") as f64 / n_power,
            ),
            ("serve.power.p50_ms", kind_ms(0, 500)),
            ("serve.power.p90_ms", kind_ms(0, 900)),
            ("serve.stats.p50_ms", kind_ms(1, 500)),
            ("serve.stats.p90_ms", kind_ms(1, 900)),
            ("serve.dontcare.p50_ms", kind_ms(2, 500)),
            ("serve.dontcare.p90_ms", kind_ms(2, 900)),
            ("serve.fsm.p50_ms", kind_ms(3, 500)),
            ("serve.fsm.p90_ms", kind_ms(3, 900)),
            (
                "serve.handoff_us",
                (kind_ms(1, 500) - percentile_ms(direct, 500)) * 1e3,
            ),
            (
                "serve.cache_hit_rate",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            (
                "serve.patterns.reuse",
                snapshot.counter("serve.patterns.reuse").unwrap_or(0) as f64 / n_power,
            ),
            (
                "serve.queue.depth.peak",
                snapshot.gauge("serve.queue.depth.peak").unwrap_or(0.0),
            ),
        ];
        let throughput = |n: usize, secs: f64| n as f64 / secs;
        outcome.traced = Some(Traced {
            overhead: 1.0
                - throughput(traced.len(), traced_wall) / throughput(untraced.len(), untraced_wall),
            ops: traced.len(),
            wall: traced_wall,
            spans: tr.into_spans(),
            snapshot,
            tally: Tally::default(),
            extra,
        });
    }
    outcome
}
