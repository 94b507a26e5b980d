//! Job execution: one worker's resident state, panic isolation, and the
//! degraded-retry policy.
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking payload
//! becomes a typed [`JobError::Panicked`] and the worker keeps serving.
//! Because the panic may have torn the worker's caches mid-update, they are
//! discarded and rebuilt — correctness first, warmth second.
//!
//! Retries are never blind re-execution. Only a *transient* failure — the
//! degradation chain exhausted with a wall-clock overrun among the
//! abandonments, on a job that carries a deadline — earns one retry, and
//! that retry runs with a fresh deadline on the cheaper tiers only (the
//! exact BDD tier is skipped). Deterministic exhaustion (node or step caps)
//! fails identically every time, so it is reported immediately.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::time::Instant;

use budget::{Resource, ResourceBudget};
use netlist::blif::parse_text;
use netlist::NetlistStats;
use power::chain::{
    estimate_power_resident, ChainConfig, ChainError, ChainEstimate, StimulusCache, Tier,
};
use power::exact::CircuitBddCache;
use power::model::PowerParams;

use crate::job::{JobError, JobKind, JobOutput, JobSpec};

/// Maximum primary inputs the don't-care BDD pass accepts (mirrors the
/// CLI's guard — beyond this the global BDDs blow up).
const DONTCARE_INPUT_LIMIT: usize = 18;

/// One worker thread's resident state. Never shared: each worker owns its
/// cache, so a poisoned job can only tear state the recovery path rebuilds.
pub struct WorkerState {
    /// Warm circuit-BDD cache feeding the exact estimation tier.
    pub cache: CircuitBddCache,
    /// Resident stimulus for the sampled tier: built once, reused across
    /// every job on this worker that shares a stimulus spec. Reuse is
    /// surfaced as the `serve.patterns.reuse` counter.
    pub patterns: StimulusCache,
    /// Jobs this worker has finished (drives periodic checkpoints).
    pub jobs_done: u64,
    cache_capacity: usize,
}

impl WorkerState {
    /// Fresh state with an empty cache of the given capacity.
    pub fn new(cache_capacity: usize) -> WorkerState {
        WorkerState {
            cache: CircuitBddCache::with_capacity(cache_capacity),
            patterns: StimulusCache::new(),
            jobs_done: 0,
            cache_capacity,
        }
    }

    /// Discard every cache (after a caught panic may have torn them).
    pub fn reset_caches(&mut self) {
        self.cache = CircuitBddCache::with_capacity(self.cache_capacity);
        self.patterns.clear();
    }
}

/// Execution knobs shared by all workers of one server.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Honor [`JobKind::InjectPanic`] jobs (soak tests); otherwise they are
    /// rejected with a typed error.
    pub fault_injection: bool,
    /// Sleep before the one degraded retry of a transient failure.
    pub retry_backoff_ms: u64,
    /// Variable-ordering policy for the exact tier of power jobs. Part of
    /// the warm cache key, so a warm hit always replays the policy it was
    /// built under and stays bit-identical to a cold run with the same
    /// policy.
    pub reorder: power::order::ReorderConfig,
    /// Observability handle for the estimation chain's own counters.
    pub obs: obs::Obs,
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy {
            fault_injection: false,
            retry_backoff_ms: 25,
            reorder: power::order::ReorderConfig::default(),
            obs: obs::Obs::disabled(),
        }
    }
}

/// Internal failure split: typed job errors pass through; chain exhaustion
/// keeps its attempts so the retry policy can classify it.
enum RunError {
    Job(JobError),
    Chain(ChainError),
}

/// Run one job to completion under panic isolation and the retry policy.
/// Returns the result and the number of execution attempts (0 = refused
/// before running, e.g. an expired deadline at pickup).
pub fn execute(
    spec: &JobSpec,
    admitted: Option<Instant>,
    state: &mut WorkerState,
    policy: &ExecPolicy,
) -> (Result<JobOutput, JobError>, u32) {
    // Deadline check at pickup: a job that spent its whole deadline queued
    // is refused without burning worker time on it.
    let remaining_ms = match (spec.deadline_ms, admitted) {
        (Some(limit), Some(t0)) => {
            let elapsed = t0.elapsed().as_millis() as u64;
            if elapsed >= limit {
                return (Err(JobError::DeadlineExpired { limit_ms: limit }), 0);
            }
            Some(limit - elapsed)
        }
        (Some(limit), None) => Some(limit),
        (None, _) => None,
    };

    let mut attempts = 0u32;
    let mut skip_exact = false;
    let mut deadline_ms = remaining_ms;
    loop {
        attempts += 1;
        let budget = job_budget(spec, deadline_ms);
        let outcome = quiet_catch(AssertUnwindSafe(|| {
            run_kind(spec, &budget, state, skip_exact, policy)
        }));
        match outcome {
            Err(payload) => {
                // The panic may have torn the cache mid-insert; discard it.
                state.reset_caches();
                return (Err(JobError::Panicked(panic_message(payload.as_ref()))), attempts);
            }
            Ok(Ok(output)) => return (Ok(output), attempts),
            Ok(Err(RunError::Job(e))) => return (Err(e), attempts),
            Ok(Err(RunError::Chain(e))) => {
                let transient = spec.deadline_ms.is_some()
                    && e.attempts.iter().any(|a| {
                        a.outcome
                            .abandoned()
                            .is_some_and(|b| b.resource == Resource::WallClock)
                    });
                if transient && attempts == 1 {
                    // One retry: fresh deadline, cheaper tiers only.
                    if policy.retry_backoff_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(
                            policy.retry_backoff_ms,
                        ));
                    }
                    skip_exact = true;
                    deadline_ms = spec.deadline_ms;
                    continue;
                }
                return (Err(JobError::Exhausted(e.to_string())), attempts);
            }
        }
    }
}

/// Run `spec` against a cold, freshly-built state — the reference a warm
/// in-daemon execution must match bit-for-bit. Same code path, same
/// budgets, empty caches.
pub fn cold_run(spec: &JobSpec, policy: &ExecPolicy) -> (Result<JobOutput, JobError>, u32) {
    let mut state = WorkerState::new(1);
    execute(spec, None, &mut state, policy)
}

/// Per-job resource budget (the deadline is the remaining span).
fn job_budget(spec: &JobSpec, deadline_ms: Option<u64>) -> ResourceBudget {
    let mut budget = ResourceBudget::unlimited();
    if let Some(n) = spec.max_bdd_nodes {
        budget = budget.with_max_bdd_nodes(n);
    }
    if let Some(n) = spec.max_sim_steps {
        budget = budget.with_max_sim_steps(n);
    }
    if let Some(ms) = deadline_ms {
        budget = budget.with_deadline_ms(ms);
    }
    budget
}

fn run_kind(
    spec: &JobSpec,
    budget: &ResourceBudget,
    state: &mut WorkerState,
    skip_exact: bool,
    policy: &ExecPolicy,
) -> Result<JobOutput, RunError> {
    match spec.kind {
        JobKind::Power => run_power(spec, budget, state, skip_exact, policy),
        JobKind::Stats => run_stats(spec),
        JobKind::Dontcare => run_dontcare(spec, budget, state),
        JobKind::Fsm => run_fsm(spec),
        JobKind::InjectPanic => {
            if !policy.fault_injection {
                Err(RunError::Job(JobError::Unsupported(
                    "inject-panic requires fault injection to be enabled".into(),
                )))
            } else {
                panic!("injected fault (inject-panic job)");
            }
        }
    }
}

fn run_power(
    spec: &JobSpec,
    budget: &ResourceBudget,
    state: &mut WorkerState,
    skip_exact: bool,
    policy: &ExecPolicy,
) -> Result<JobOutput, RunError> {
    let nl = parse_text(&spec.payload)
        .map_err(|e| RunError::Job(JobError::Parse(e.to_string())))?;
    if spec.cycles == 0 {
        return Err(RunError::Job(JobError::Unsupported(
            "need at least one stimulus cycle".into(),
        )));
    }
    let mut cfg = ChainConfig {
        sample_cycles: spec.cycles,
        seed: spec.seed,
        jobs: 1, // concurrency lives across jobs, not inside one
        reorder: policy.reorder,
        obs: policy.obs.clone(),
        ..ChainConfig::default()
    };
    if skip_exact {
        cfg.tiers = vec![Tier::Probabilistic, Tier::SampledSim];
    }
    let params = PowerParams::default();
    let hits_before = state.patterns.hits();
    let (report, est) = estimate_power_resident(
        &nl,
        budget,
        &cfg,
        &params,
        &mut state.cache,
        &mut state.patterns,
    )
    .map_err(RunError::Chain)?;
    let reused = state.patterns.hits() - hits_before;
    if reused > 0 {
        policy.obs.add("serve.patterns.reuse", reused);
    }
    Ok(JobOutput {
        text: describe_power(&report.to_string(), &est),
        tier: Some(est.tier.name().to_string()),
    })
}

/// Deterministic power answer: the report, the answering tier, and — per
/// abandoned tier — only the resource *slug* (a wall-clock overrun's used
/// milliseconds would differ run to run and break bit-identity audits).
fn describe_power(report: &str, est: &ChainEstimate) -> String {
    let mut text = format!("{report}\nestimator: {}\n", est.tier.name());
    for attempt in &est.attempts {
        if let Some(e) = attempt.outcome.abandoned() {
            text.push_str(&format!(
                "degraded: {} ({})\n",
                attempt.tier.name(),
                e.resource.slug()
            ));
        }
    }
    text
}

fn run_stats(spec: &JobSpec) -> Result<JobOutput, RunError> {
    let nl = parse_text(&spec.payload)
        .map_err(|e| RunError::Job(JobError::Parse(e.to_string())))?;
    Ok(JobOutput {
        text: format!("{nl}\n{}\n", NetlistStats::of(&nl)),
        tier: None,
    })
}

/// The don't-care pass under the job budget. A budget too small for the
/// first circuit-BDD build fails the job as exhausted; one that runs out
/// later keeps the last accepted netlist and says so.
fn run_dontcare(
    spec: &JobSpec,
    budget: &ResourceBudget,
    state: &mut WorkerState,
) -> Result<JobOutput, RunError> {
    use logicopt::dontcare::{try_optimize_dontcares, Mode};
    let nl = parse_text(&spec.payload)
        .map_err(|e| RunError::Job(JobError::Parse(e.to_string())))?;
    if !nl.is_combinational() {
        return Err(RunError::Job(JobError::Unsupported(
            "don't-care optimization needs a combinational netlist".to_string(),
        )));
    }
    if nl.num_inputs() > DONTCARE_INPUT_LIMIT {
        return Err(RunError::Job(JobError::Unsupported(format!(
            "dontcare BDD pass limited to {DONTCARE_INPUT_LIMIT} inputs (got {})",
            nl.num_inputs()
        ))));
    }
    let probs = vec![0.5; nl.num_inputs()];
    let (_, report) =
        try_optimize_dontcares(&nl, &probs, Mode::FanoutAware, 6, &mut state.cache, budget)
            .map_err(|e| RunError::Job(JobError::Exhausted(e.to_string())))?;
    let exhausted = if report.budget_exhausted {
        " (budget exhausted: last accepted netlist kept)"
    } else {
        ""
    };
    Ok(JobOutput {
        text: format!(
            "{} nodes rewritten, switched cap {:.1} -> {:.1} fF/cycle{exhausted}\n",
            report.nodes_changed, report.cap_before, report.cap_after
        ),
        tier: None,
    })
}

fn run_fsm(spec: &JobSpec) -> Result<JobOutput, RunError> {
    let stg = seqopt::kiss::parse_kiss(&spec.payload)
        .map_err(|e| RunError::Job(JobError::Parse(e.to_string())))?;
    let minimized = seqopt::minimize::minimize(&stg);
    if minimized.stg.num_states() < 2 {
        // The encoder needs two states; a machine that collapsed to one
        // has no state register left to optimize.
        return Ok(JobOutput {
            text: format!(
                "{} states -> 1 after minimization; no state register remains\n",
                stg.num_states()
            ),
            tier: None,
        });
    }
    let symbols = 1usize << minimized.stg.input_bits;
    let probs = vec![1.0 / symbols as f64; symbols];
    let codes = seqopt::encoding::encode_low_power(&minimized.stg, &probs);
    let bits = seqopt::encoding::min_bits(minimized.stg.num_states());
    let weights = minimized.stg.edge_weights(&probs, 300);
    let base = seqopt::stg::weighted_switching(
        &weights,
        &seqopt::encoding::encode_sequential(minimized.stg.num_states()),
    );
    let lp = seqopt::stg::weighted_switching(&weights, &codes);
    Ok(JobOutput {
        text: format!(
            "{} states -> {} after minimization; {} code bits\nweighted FF switching: binary {:.3} -> low-power {:.3} ({:.1}% less)\n",
            stg.num_states(),
            minimized.stg.num_states(),
            bits,
            base,
            lp,
            100.0 * (1.0 - lp / base.max(1e-12)),
        ),
        tier: None,
    })
}

// ----------------------------------------------------------------------
// Panic plumbing
// ----------------------------------------------------------------------

thread_local! {
    /// Set while this thread executes a job under `catch_unwind`, so the
    /// process panic hook stays silent for isolated job panics but keeps
    /// printing for genuine bugs elsewhere.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Install (once per process) a panic hook that suppresses output for
/// panics caught by job isolation and forwards everything else to the
/// previous hook. Unlike a take-and-restore wrapper this never serializes
/// concurrent jobs.
pub fn install_job_panic_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_JOB.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

/// `catch_unwind` with the in-job flag raised for the duration.
fn quiet_catch<R>(
    f: AssertUnwindSafe<impl FnOnce() -> R>,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    IN_JOB.with(|flag| flag.set(true));
    let out = catch_unwind(f);
    IN_JOB.with(|flag| flag.set(false));
    out
}

/// Best-effort panic payload text (panics carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::blif::write_text;
    use netlist::gen;

    fn adder_blif() -> String {
        write_text(&gen::ripple_adder(4).0)
    }

    #[test]
    fn power_job_answers_and_matches_cold_run() {
        install_job_panic_hook();
        let spec = JobSpec::new(JobKind::Power, adder_blif());
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(4);
        let (warm1, a1) = execute(&spec, None, &mut state, &policy);
        let (warm2, _) = execute(&spec, None, &mut state, &policy);
        let (cold, _) = cold_run(&spec, &policy);
        let warm1 = warm1.unwrap();
        let warm2 = warm2.unwrap();
        let cold = cold.unwrap();
        assert_eq!(a1, 1);
        assert_eq!(warm1, warm2, "cache hit must not change the answer");
        assert_eq!(warm1, cold, "warm answer must equal a cold run bit-for-bit");
        assert_eq!(warm1.tier.as_deref(), Some("exact-bdd"));
        assert_eq!(state.cache.hits(), 1);
    }

    #[test]
    fn panic_jobs_become_typed_errors_and_state_recovers() {
        install_job_panic_hook();
        let policy = ExecPolicy {
            fault_injection: true,
            ..ExecPolicy::default()
        };
        let mut state = WorkerState::new(4);
        // Warm the cache, then poison the worker, then use it again.
        let good = JobSpec::new(JobKind::Power, adder_blif());
        let (r1, _) = execute(&good, None, &mut state, &policy);
        let baseline = r1.unwrap();
        let bad = JobSpec::new(JobKind::InjectPanic, "");
        let (r2, attempts) = execute(&bad, None, &mut state, &policy);
        match r2 {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected fault"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(attempts, 1);
        assert!(state.cache.is_empty(), "torn caches must be discarded");
        let (r3, _) = execute(&good, None, &mut state, &policy);
        assert_eq!(r3.unwrap(), baseline, "post-panic answers stay bit-identical");
    }

    #[test]
    fn inject_panic_rejected_without_fault_injection() {
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(2);
        let spec = JobSpec::new(JobKind::InjectPanic, "");
        let (r, _) = execute(&spec, None, &mut state, &policy);
        assert!(matches!(r, Err(JobError::Unsupported(_))));
    }

    #[test]
    fn malformed_payloads_are_parse_errors() {
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(2);
        for kind in [JobKind::Power, JobKind::Stats, JobKind::Dontcare, JobKind::Fsm] {
            let spec = JobSpec::new(kind, ".broken garbage\x01");
            let (r, _) = execute(&spec, None, &mut state, &policy);
            assert!(
                matches!(r, Err(JobError::Parse(_))),
                "{kind:?} should be a parse error"
            );
        }
    }

    #[test]
    fn expired_deadline_at_pickup_is_refused_without_running() {
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(2);
        let mut spec = JobSpec::new(JobKind::Power, adder_blif());
        spec.deadline_ms = Some(1);
        let admitted = Instant::now() - std::time::Duration::from_millis(50);
        let (r, attempts) = execute(&spec, Some(admitted), &mut state, &policy);
        assert_eq!(r, Err(JobError::DeadlineExpired { limit_ms: 1 }));
        assert_eq!(attempts, 0, "never executed");
        assert_eq!(state.cache.misses(), 0, "no work was done");
    }

    #[test]
    fn deterministic_exhaustion_fails_once_without_retry() {
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(2);
        let mut spec = JobSpec::new(JobKind::Power, adder_blif());
        // Node and step caps so tight every tier dies deterministically
        // (no deadline → not transient → exactly one attempt).
        spec.max_bdd_nodes = Some(2);
        spec.max_sim_steps = Some(1);
        let (r, attempts) = execute(&spec, None, &mut state, &policy);
        assert!(matches!(r, Err(JobError::Exhausted(_))), "{r:?}");
        assert_eq!(attempts, 1, "deterministic failures are not retried");
    }

    #[test]
    fn dontcare_job_runs_under_its_budget() {
        let policy = ExecPolicy::default();
        let generous = JobSpec::new(JobKind::Dontcare, adder_blif());
        let mut starved = generous.clone();
        // Too few nodes for the first circuit-BDD build.
        starved.max_bdd_nodes = Some(4);
        let mut state = WorkerState::new(2);
        let (r, attempts) = execute(&starved, None, &mut state, &policy);
        assert!(matches!(r, Err(JobError::Exhausted(_))), "{r:?}");
        assert_eq!(attempts, 1, "deterministic failures are not retried");
        assert_eq!(cold_run(&starved, &policy), (r, 1));
        // Once the cache holds the adder's BDDs the starved job still
        // fails: a hit is charged the cached build's peak.
        let (answer, _) = execute(&generous, None, &mut state, &policy);
        assert!(answer.is_ok(), "{answer:?}");
        let (warm, attempts) = execute(&starved, None, &mut state, &policy);
        assert!(matches!(warm, Err(JobError::Exhausted(_))), "{warm:?}");
        assert_eq!(attempts, 1);
    }

    #[test]
    fn stats_and_fsm_and_dontcare_jobs_answer() {
        let policy = ExecPolicy::default();
        let mut state = WorkerState::new(4);
        let (stats, _) = execute(
            &JobSpec::new(JobKind::Stats, adder_blif()),
            None,
            &mut state,
            &policy,
        );
        assert!(stats.unwrap().text.contains("depth"));

        // A 3-state ring counter: states are pairwise distinguishable, so
        // minimization keeps all three and the encoder has work to do.
        let kiss = "\
.i 1
.o 1
0 s0 s0 0
1 s0 s1 0
0 s1 s1 0
1 s1 s2 0
0 s2 s2 1
1 s2 s0 1
";
        let (fsm, _) = execute(&JobSpec::new(JobKind::Fsm, kiss), None, &mut state, &policy);
        let fsm = fsm.unwrap().text;
        assert!(fsm.contains("3 states -> 3 after minimization"), "{fsm}");

        // A machine that collapses to one state is answered, not panicked.
        let trivial = ".i 1\n.o 1\n0 a a 0\n1 a a 0\n";
        let (one, _) = execute(&JobSpec::new(JobKind::Fsm, trivial), None, &mut state, &policy);
        assert!(one.unwrap().text.contains("no state register remains"));

        let (dc, _) = execute(
            &JobSpec::new(JobKind::Dontcare, adder_blif()),
            None,
            &mut state,
            &policy,
        );
        assert!(dc.unwrap().text.contains("fF/cycle"));
    }
}
