//! Chaos suite: randomized fault/budget scenarios against every engine.
//!
//! 200 deterministic pseudo-random scenarios drive CombSim, EventSim,
//! SeqSim, the fault engine and the estimator chain with hostile budgets
//! (tiny node counts, starved step limits, zero-millisecond deadlines) and
//! occasionally invalid fault sites. The contract under
//! test is the robustness tentpole:
//!
//! * zero panics — every failure is a typed error;
//! * successful runs are bit-identical between serial and sharded
//!   execution (deadline-free budgets only: a wall clock is the one
//!   resource whose verdict may legitimately differ between runs).

use std::panic::{catch_unwind, AssertUnwindSafe};

use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen;
use lowpower::netlist::{NetId, Netlist, Rng64};
use lowpower::power::chain::{estimate_activity, ChainConfig};
use lowpower::sim::comb::CombSim;
use lowpower::sim::event::{DelayModel, EventSim};
use lowpower::sim::fault::{all_stuck_at_faults, Fault, FaultKind, FaultSim};
use lowpower::sim::par::with_quiet_panics;
use lowpower::sim::seq::SeqSim;
use lowpower::sim::stimulus::Stimulus;

fn circuit_pool() -> Vec<Netlist> {
    vec![
        gen::ripple_adder(4).0,
        gen::kogge_stone_adder(4).0,
        gen::array_multiplier(4).0,
        gen::comparator_gt(4).0,
        gen::parity_tree(6),
        gen::counter(5),
        gen::pipelined_multiplier(3),
    ]
}

/// A random budget; the bool says whether it contains a wall-clock
/// deadline (non-deterministic verdicts, excluded from identity checks).
fn random_budget(rng: &mut Rng64) -> (ResourceBudget, bool) {
    let mut budget = ResourceBudget::unlimited();
    if rng.chance(0.4) {
        budget = budget.with_max_bdd_nodes(1 << rng.range(4, 14));
    }
    if rng.chance(0.4) {
        budget = budget.with_max_sim_steps(1 << rng.range(6, 22));
    }
    let deadline = rng.chance(0.15);
    if deadline {
        budget = budget.with_deadline_ms(rng.range(0, 3) as u64);
    }
    (budget, deadline)
}

fn random_faults(rng: &mut Rng64, nl: &Netlist, cycles: usize) -> Vec<Fault> {
    (0..rng.range(1, 40))
        .map(|_| {
            // One in ten sites is deliberately out of range, and bit-flip
            // cycles may point past the stream: both must come back as
            // typed `FaultError`s, never panics.
            let net = if rng.chance(0.1) {
                NetId::from_index(nl.len() + rng.range(0, 5))
            } else {
                NetId::from_index(rng.range(0, nl.len()))
            };
            let kind = match rng.range(0, 3) {
                0 => FaultKind::StuckAt0,
                1 => FaultKind::StuckAt1,
                _ => FaultKind::BitFlip {
                    cycle: rng.range(0, cycles * 2),
                },
            };
            Fault { net, kind }
        })
        .collect()
}

/// Run one scenario; the returned string is a human-readable outcome (for
/// the failure dump) — the assertions live inside.
fn run_scenario(scenario: usize, pool: &[Netlist]) -> String {
    let mut rng = Rng64::new(0x0C4A05 ^ (scenario as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let nl = &pool[rng.range(0, pool.len())];
    let cycles = rng.range(8, 129);
    let jobs = rng.range(2, 5);
    let seed = rng.next_u64();
    let (budget, deadline) = random_budget(&mut rng);
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(cycles, seed);
    let comb = nl.is_combinational();
    match rng.range(0, 6) {
        0 if comb => {
            let serial = CombSim::new(nl).try_activity(&patterns, &budget);
            let sharded = CombSim::new(nl).try_activity_jobs(&patterns, jobs, &budget);
            if !deadline {
                if let (Ok(a), Ok(b)) = (&serial, &sharded) {
                    assert_eq!(a, b, "scenario {scenario}: comb shard mismatch");
                }
                assert_eq!(
                    serial.is_ok(),
                    sharded.is_ok(),
                    "scenario {scenario}: comb verdict depends on sharding"
                );
            }
            format!("comb: {}", verdict(&serial.map(|_| ())))
        }
        1 if comb => {
            let sim = EventSim::new(nl, &DelayModel::Unit);
            let serial = sim.try_activity(&patterns, &budget);
            let sharded = sim.try_activity_jobs(&patterns, jobs, &budget);
            if !deadline {
                if let (Ok(a), Ok(b)) = (&serial, &sharded) {
                    assert_eq!(a.total, b.total, "scenario {scenario}: event shard mismatch");
                }
                assert_eq!(
                    serial.is_ok(),
                    sharded.is_ok(),
                    "scenario {scenario}: event verdict depends on sharding"
                );
            }
            format!("event: {}", verdict(&serial.map(|_| ())))
        }
        0..=2 => {
            let sim = SeqSim::new(nl);
            let serial = sim.try_activity(&patterns, &budget);
            let sharded = sim.try_activity_jobs(&patterns, jobs, &budget);
            if !deadline {
                if let (Ok(a), Ok(b)) = (&serial, &sharded) {
                    assert_eq!(
                        a.profile, b.profile,
                        "scenario {scenario}: seq shard mismatch"
                    );
                }
                assert_eq!(
                    serial.is_ok(),
                    sharded.is_ok(),
                    "scenario {scenario}: seq verdict depends on sharding"
                );
            }
            format!("seq: {}", verdict(&serial.map(|_| ())))
        }
        3 => {
            let cfg = ChainConfig {
                sample_cycles: cycles,
                seed,
                jobs,
                input_probs: if rng.chance(0.3) {
                    Some((0..rng.range(1, 12)).map(|_| rng.next_f64() * 2.0 - 0.5).collect())
                } else {
                    None
                },
                ..ChainConfig::default()
            };
            match estimate_activity(nl, &budget, &cfg) {
                Ok(est) => {
                    // Tier-tagged estimate: the answering tier is the last
                    // attempt and carries no error.
                    let last = est.attempts.last().unwrap();
                    assert_eq!(last.tier, est.tier, "scenario {scenario}");
                    assert!(last.outcome.is_answered(), "scenario {scenario}");
                    format!("chain: ok via {}", est.tier.name())
                }
                Err(e) => {
                    assert!(
                        !e.attempts.is_empty()
                            && e.attempts.iter().all(|a| a.outcome.abandoned().is_some()),
                        "scenario {scenario}: exhaustion must record every tier"
                    );
                    format!("chain: {e}")
                }
            }
        }
        4 => {
            let sim = FaultSim::new(nl);
            let faults = random_faults(&mut rng, nl, cycles);
            let serial = sim.campaign(&patterns, &faults, 1, &budget);
            let sharded = sim.campaign(&patterns, &faults, jobs, &budget);
            if !deadline {
                if let (Ok(a), Ok(b)) = (&serial, &sharded) {
                    assert_eq!(
                        a.reports, b.reports,
                        "scenario {scenario}: campaign shard mismatch"
                    );
                }
            }
            format!("campaign: {}", verdict(&serial.map(|_| ())))
        }
        _ => {
            let sim = FaultSim::new(nl);
            let count = rng.range(1, 60);
            let serial = sim.seu_sweep(&patterns, count, seed, 1, &budget);
            let sharded = sim.seu_sweep(&patterns, count, seed, jobs, &budget);
            if !deadline {
                if let (Ok(a), Ok(b)) = (&serial, &sharded) {
                    assert_eq!(
                        a.reports, b.reports,
                        "scenario {scenario}: SEU shard mismatch"
                    );
                }
            }
            format!("seu: {}", verdict(&serial.map(|_| ())))
        }
    }
}

fn verdict<E: std::fmt::Display>(r: &Result<(), E>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("typed error: {e}"),
    }
}

#[test]
fn two_hundred_hostile_scenarios_never_panic() {
    let pool = circuit_pool();
    let mut panics = Vec::new();
    with_quiet_panics(|| {
        for scenario in 0..200 {
            if catch_unwind(AssertUnwindSafe(|| run_scenario(scenario, &pool))).is_err() {
                panics.push(scenario);
            }
        }
    });
    assert!(
        panics.is_empty(),
        "scenarios panicked instead of failing typed: {panics:?}"
    );
}

#[test]
fn stuck_at_everything_still_yields_typed_results() {
    // Degenerate extreme: every stuck-at fault on every net of every pool
    // circuit under a modest budget — either a campaign report or a typed
    // budget error, never a crash.
    for nl in circuit_pool() {
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(32, 1);
        let sim = FaultSim::new(&nl);
        let faults = all_stuck_at_faults(&nl);
        let budget = ResourceBudget::unlimited().with_max_sim_steps(1 << 20);
        match sim.campaign(&patterns, &faults, 4, &budget) {
            Ok(report) => assert_eq!(report.reports.len(), faults.len()),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
}

// ----------------------------------------------------------------------
// Optimization passes under short deadlines.
// ----------------------------------------------------------------------

use std::time::{Duration, Instant};

use lowpower::logicopt::dontcare::{try_optimize_dontcares, Mode};
use lowpower::logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use lowpower::power::exact::CircuitBddCache;

/// The rewrite search and the don't-care pass under 1, 10 and 100 ms
/// deadlines, on circuits whose circuit BDDs a short deadline cannot
/// afford (ks32, cmp32), on multipliers and on lpbench's rand200. Each
/// call fails typed or returns a netlist equivalent to its input. In
/// release builds each call also returns within its deadline plus 1 s;
/// debug builds and BDD GC stress run the unbudgeted work between polls
/// too slowly for that bound, so there only the verdicts are checked.
#[test]
fn optimization_passes_return_within_short_deadlines() {
    let rand200 = gen::RandomDagConfig {
        inputs: 16,
        gates: 200,
        outputs: 8,
        max_fanin: 3,
        window: 24,
    };
    let circuits = [
        ("ks32", gen::kogge_stone_adder(32).0),
        ("cmp32", gen::comparator_gt(32).0),
        ("mult6", gen::array_multiplier(6).0),
        ("wallace8", gen::wallace_multiplier(8).0),
        ("rand200", gen::random_dag(&rand200, 7)),
    ];
    let gc_stress = std::env::var_os("LPOPT_BDD_GC_STRESS").is_some_and(|v| v != "0");
    let check_clock = !cfg!(debug_assertions) && !gc_stress;
    for (name, nl) in &circuits {
        let probs = vec![0.5; nl.num_inputs()];
        let packed = Stimulus::uniform(nl.num_inputs()).packed(512, 42);
        let check = Stimulus::uniform(nl.num_inputs()).patterns(1024, 7);
        let reference = CombSim::new(nl);
        for deadline_ms in [1u64, 10, 100] {
            for pass in ["rewrite", "dontcare"] {
                let budget = ResourceBudget::unlimited().with_deadline_ms(deadline_ms);
                let start = Instant::now();
                let result = if pass == "rewrite" {
                    let cfg = RewriteConfig::default();
                    try_rewrite_sim(nl, &probs, &packed, &budget, &cfg).map(|(out, _)| out)
                } else {
                    let mut cache = CircuitBddCache::new();
                    try_optimize_dontcares(nl, &probs, Mode::FanoutAware, 6, &mut cache, &budget)
                        .map(|(out, _)| out)
                };
                let elapsed = start.elapsed();
                let case = format!("{pass} on {name} at {deadline_ms} ms");
                if let Ok(out) = &result {
                    assert_eq!(reference.equivalent_on(out, &check), None, "{case}");
                }
                if check_clock {
                    let bound = Duration::from_millis(deadline_ms + 1000);
                    assert!(elapsed <= bound, "{case} took {elapsed:?}");
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Serve-loop chaos: the same hostility, aimed at the resident daemon.
// ----------------------------------------------------------------------

use lowpower::netlist::blif::write_text;
use lowpower::serve::worker::{cold_run, ExecPolicy};
use lowpower::serve::{JobError, JobKind, JobSpec, ServeConfig, Server};

const CHAOS_KISS: &str = "0 s0 s0 0\n1 s0 s1 0\n0 s1 s1 0\n1 s1 s2 0\n0 s2 s2 1\n1 s2 s0 1\n";

/// A random job: mostly well-formed requests over the circuit pool, with
/// poison payloads, injected panics, starved budgets, and already-expired
/// deadlines mixed in. The bool says whether the job is deterministic
/// (eligible for the bit-identity check against a cold run).
fn random_job(rng: &mut Rng64, blifs: &[String]) -> (JobSpec, bool) {
    let mut payload = match rng.range(0, 10) {
        0 => "telnet, not BLIF\n".to_string(),
        1 => {
            // Truncated mid-gate: parses must fail typed.
            let full = &blifs[rng.range(0, blifs.len())];
            full[..full.len() / 2].to_string()
        }
        _ => blifs[rng.range(0, blifs.len())].clone(),
    };
    let kind = match rng.range(0, 12) {
        0 => JobKind::InjectPanic,
        1 => JobKind::Fsm, // BLIF payload under a KISS kind: typed parse error
        2..=3 => JobKind::Stats,
        4 => JobKind::Dontcare,
        _ => JobKind::Power,
    };
    if kind == JobKind::Fsm && rng.chance(0.5) {
        // Half the FSM jobs get a well-formed KISS payload and must succeed.
        payload = CHAOS_KISS.to_string();
    }
    let mut spec = JobSpec::new(kind, payload);
    spec.cycles = rng.range(8, 65);
    spec.seed = rng.next_u64();
    // Budget churn: every job carries its own limits, some hostile.
    if rng.chance(0.25) {
        spec.max_bdd_nodes = Some(1 << rng.range(2, 10));
    }
    if rng.chance(0.2) {
        spec.max_sim_steps = Some(1 << rng.range(4, 16));
    }
    let deterministic = spec.deadline_ms.is_none();
    if rng.chance(0.15) {
        // Already expired at admission for the zero case.
        spec.deadline_ms = Some(if rng.chance(0.5) { 0 } else { 5_000 });
        return (spec, false);
    }
    (spec, deterministic)
}

/// 150 hostile jobs against one resident server: panics stay isolated,
/// every failure is typed, and each deterministic success is bit-identical
/// to a cold single-process run of the same spec.
#[test]
fn serve_loop_survives_hostile_job_stream() {
    let blifs: Vec<String> = circuit_pool().iter().map(write_text).collect();
    let server = Server::start(ServeConfig {
        workers: 3,
        queue_capacity: 256,
        fault_injection: true,
        retry_backoff_ms: 0,
        ..ServeConfig::default()
    });
    let mut rng = Rng64::new(0x5EE7_C0DE);
    let mut jobs = Vec::new();
    let mut pending = Vec::new();
    for _ in 0..150 {
        let (spec, deterministic) = random_job(&mut rng, &blifs);
        pending.push(server.submit(spec.clone()).expect("queue sized for the stream"));
        jobs.push((spec, deterministic));
    }
    let mut injected = 0;
    for ((spec, deterministic), pending) in jobs.into_iter().zip(pending) {
        let response = pending.wait();
        match response.result {
            Ok(ref output) => {
                assert!(!output.text.is_empty());
                if deterministic {
                    let (cold, _) = cold_run(&spec, &ExecPolicy::default());
                    assert_eq!(
                        cold.as_ref().expect("cold run of a served job"),
                        output,
                        "served answer must be bit-identical to a cold run"
                    );
                }
            }
            Err(ref e) => {
                // Typed, classified, non-empty: the whole robustness deal.
                assert!(!e.class().is_empty());
                assert!(!e.to_string().is_empty());
                if spec.kind == JobKind::InjectPanic {
                    // A poison job whose deadline expired first is refused
                    // before it can blow up; otherwise it must be caught.
                    assert!(
                        matches!(e.class(), "panic" | "deadline"),
                        "inject-panic came back as {}",
                        e.class()
                    );
                    if e.class() == "panic" {
                        injected += 1;
                    }
                } else {
                    assert_ne!(
                        e.class(),
                        "panic",
                        "a {} job panicked instead of failing typed: {e} \
                         (payload starts {:?})",
                        spec.kind.name(),
                        &spec.payload[..spec.payload.len().min(60)]
                    );
                }
            }
        }
    }
    assert!(injected > 0, "the stream must have exercised panic isolation");
    // The daemon is still healthy after every panic: one more clean job.
    let clean = server.run(JobSpec::new(JobKind::Stats, blifs[0].clone()));
    assert!(clean.result.is_ok(), "server must keep serving after panics");
    let stats = server.shutdown_drain();
    assert_eq!(stats.panics, injected);
    assert_eq!(stats.submitted, 151);
    assert_eq!(stats.completed + stats.failed, 151);
}

/// Submitters keep hammering while the server drains: everything admitted
/// before the drain is answered, everything after is refused with a typed
/// shutdown error, and nothing panics or hangs.
#[test]
fn shutdown_while_draining_stays_typed() {
    let blifs: Vec<String> = circuit_pool().iter().map(write_text).collect();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 512,
        retry_backoff_ms: 0,
        ..ServeConfig::default()
    });
    let answered = std::sync::atomic::AtomicUsize::new(0);
    let refused = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let server = &server;
            let blifs = &blifs;
            let answered = &answered;
            let refused = &refused;
            scope.spawn(move || {
                let mut rng = Rng64::new(0x00D1_2A17 + t);
                loop {
                    let spec = JobSpec::new(
                        JobKind::Stats,
                        blifs[rng.range(0, blifs.len())].clone(),
                    );
                    match server.submit(spec) {
                        Ok(pending) => {
                            assert!(
                                pending.wait().result.is_ok(),
                                "admitted jobs must be answered even mid-drain"
                            );
                            answered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(JobError::Shutdown) => {
                            refused.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            break;
                        }
                        Err(JobError::QueueFull { .. }) => std::thread::yield_now(),
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
            });
        }
        // Let the submitters get some work admitted, then pull the plug
        // while they are still pushing.
        std::thread::sleep(std::time::Duration::from_millis(30));
        server.begin_drain();
    });
    let stats = server.shutdown_drain();
    assert!(answered.load(std::sync::atomic::Ordering::Relaxed) > 0);
    assert_eq!(refused.load(std::sync::atomic::Ordering::Relaxed), 3);
    assert_eq!(stats.completed, answered.load(std::sync::atomic::Ordering::Relaxed) as u64);
    assert_eq!(stats.failed, 0, "a drain drops nothing");
}

/// Mid-stream budget churn never poisons a neighbor: the same payload
/// alternates between a starved and a generous budget, and every generous
/// run answers bit-identically to a cold process while every starved run
/// fails typed.
#[test]
fn budget_churn_does_not_leak_between_jobs() {
    let (mult, _) = gen::array_multiplier(5);
    let blif = write_text(&mult);
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        retry_backoff_ms: 0,
        ..ServeConfig::default()
    });
    let generous = JobSpec::new(JobKind::Power, blif.clone());
    let mut starved = JobSpec::new(JobKind::Power, blif);
    starved.max_bdd_nodes = Some(16);
    starved.max_sim_steps = Some(16);
    let (cold, _) = cold_run(&generous, &ExecPolicy::default());
    let cold = cold.unwrap();
    let pending: Vec<_> = (0..20)
        .map(|i| {
            let spec = if i % 2 == 0 { generous.clone() } else { starved.clone() };
            (i, server.submit(spec).unwrap())
        })
        .collect();
    for (i, p) in pending {
        let response = p.wait();
        if i % 2 == 0 {
            assert_eq!(
                response.result.as_ref().expect("generous budget must answer"),
                &cold,
                "budget churn on neighbors must not change job {i}"
            );
        } else {
            let err = response.result.expect_err("starved budget must fail");
            assert_eq!(err.class(), "budget", "job {i}: {err}");
        }
    }
    drop(server);
}

/// The hostile stream again, served under a reorder-enabled policy: BDD
/// sifting fires inside worker threads while budgets churn, panics
/// inject, and payloads poison — yet every deterministic success is
/// bit-identical to a cold single-process run under the *same* reorder
/// policy, and no reorder pass ever turns into a stray panic. (Cold
/// references share the policy because budget verdicts are trip-point
/// sensitive: a reordered build peaks at different node counts, so a
/// starved job may exhaust at a different tier than a fixed-order one.
/// That is a resource outcome, not a semantic one.)
#[test]
fn serve_with_reordering_is_bit_identical_to_cold_runs() {
    let blifs: Vec<String> = circuit_pool().iter().map(write_text).collect();
    let reorder = lowpower::power::order::ReorderConfig::parse("dfs+threshold:64").unwrap();
    let server = Server::start(ServeConfig {
        workers: 3,
        queue_capacity: 256,
        fault_injection: true,
        retry_backoff_ms: 0,
        reorder,
        ..ServeConfig::default()
    });
    let policy = ExecPolicy {
        fault_injection: true,
        retry_backoff_ms: 0,
        reorder,
        ..ExecPolicy::default()
    };
    let mut rng = Rng64::new(0x0D05_51F7);
    let mut jobs = Vec::new();
    let mut pending = Vec::new();
    for _ in 0..120 {
        let (spec, deterministic) = random_job(&mut rng, &blifs);
        pending.push(server.submit(spec.clone()).expect("queue sized for the stream"));
        jobs.push((spec, deterministic));
    }
    let mut compared = 0;
    for ((spec, deterministic), pending) in jobs.into_iter().zip(pending) {
        let response = pending.wait();
        match response.result {
            Ok(ref output) => {
                if deterministic {
                    let (cold, _) = cold_run(&spec, &policy);
                    assert_eq!(
                        cold.as_ref().expect("cold run of a served job"),
                        output,
                        "reordered served answer must be bit-identical to a \
                         cold run under the same policy"
                    );
                    compared += 1;
                }
            }
            Err(ref e) => {
                assert!(!e.class().is_empty());
                if spec.kind != JobKind::InjectPanic {
                    assert_ne!(
                        e.class(),
                        "panic",
                        "a {} job panicked under reordering: {e}",
                        spec.kind.name()
                    );
                }
            }
        }
    }
    assert!(compared > 20, "the stream must have exercised reordered serving");
    // Under a generous budget the exact tier completes whatever the
    // order, and reordering changes the diagram, never the verdict: the
    // reorder-policy answer equals the fixed-order answer outright.
    let generous = JobSpec::new(JobKind::Power, blifs[0].clone());
    let (reordered, _) = cold_run(&generous, &policy);
    let (fixed, _) = cold_run(&generous, &ExecPolicy::default());
    assert_eq!(
        reordered.expect("generous reordered run"),
        fixed.expect("generous fixed-order run"),
        "order policy must not change a generously-budgeted verdict"
    );
    let stats = server.shutdown_drain();
    assert_eq!(stats.submitted, 120);
    assert_eq!(stats.completed + stats.failed, 120);
}

/// A deadline that is already over at admission is refused before any
/// work happens, with the typed deadline class and zero attempts.
#[test]
fn expired_deadline_at_admission_is_refused_typed() {
    let blif = write_text(&gen::ripple_adder(4).0);
    let server = Server::start(ServeConfig {
        workers: 1,
        retry_backoff_ms: 0,
        ..ServeConfig::default()
    });
    let mut spec = JobSpec::new(JobKind::Power, blif);
    spec.deadline_ms = Some(0);
    let response = server.run(spec);
    let err = response.result.expect_err("expired deadline must refuse");
    assert_eq!(err.class(), "deadline");
    assert_eq!(response.attempts, 0, "no execution may be attempted");
    let stats = server.shutdown_drain();
    assert_eq!(stats.failed_by_class.get("deadline"), Some(&1));
}
