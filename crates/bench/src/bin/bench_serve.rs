//! `bench_serve` — soak harness for the resident optimization service.
//!
//! Drives three phases against real [`Server`] instances and emits
//! `BENCH_serve.json` (override with the first non-flag argument):
//!
//! * **soak** — ≥1000 mixed jobs (valid power/stats/dontcare/fsm over a
//!   circuit pool, malformed payloads, injected panics, budget-starved
//!   and deadline-expired requests) through a fault-injecting server.
//!   Audited invariants: the daemon never crashes, every failure carries
//!   a typed class, panics are isolated to exactly the poison jobs, and
//!   a deterministic sample of successful answers is bit-identical to
//!   cold single-process runs of the same specs (zero cross-job
//!   interference).
//! * **restart** — the first server is killed abruptly mid-soak
//!   (periodic checkpoints only, like a real crash); a second server
//!   warm-starts from the snapshot directory and replays the rest of the
//!   stream. Gate: snapshots load and the warm cache hit rate recovers.
//! * **corruption** — a snapshot file is bit-flipped on disk; the next
//!   server must reject it (checksum), keep serving, and rebuild a valid
//!   snapshot at drain.
//!
//! ```text
//! cargo run --release -p bench --bin bench_serve [out.json] [--check]
//! ```
//!
//! With `--check` the harness exits nonzero unless every deterministic
//! gate holds (typed-only failures, zero identity mismatches, zero stray
//! panics, warm-start recovery, corruption rejection) plus a generous
//! sustained-throughput floor that only a hung daemon could miss.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lowpower::netlist::blif::write_text;
use lowpower::netlist::{gen, Rng64};
use lowpower::serve::snapshot::read_valid_snapshots;
use lowpower::serve::worker::{cold_run, ExecPolicy};
use lowpower::serve::{JobError, JobKind, JobSpec, PendingJob, ServeConfig, Server};

const SOAK_JOBS: usize = 1000;
/// Jobs left in flight when the first server is killed.
const DROP_BURST: usize = 50;
/// Every Nth deterministic success is re-run cold and compared.
const IDENTITY_SAMPLE: usize = 17;

const KISS_RING: &str = "0 s0 s0 0\n1 s0 s1 0\n0 s1 s1 0\n1 s1 s2 0\n0 s2 s2 1\n1 s2 s0 1\n";
const KISS_TOGGLE: &str = "0 a a 0\n1 a b 1\n0 b b 1\n1 b a 0\n";

fn payload_pool() -> Vec<String> {
    vec![
        write_text(&gen::ripple_adder(4).0),
        write_text(&gen::ripple_adder(8).0),
        write_text(&gen::kogge_stone_adder(4).0),
        write_text(&gen::array_multiplier(4).0),
        write_text(&gen::array_multiplier(5).0),
        write_text(&gen::comparator_gt(6).0),
        write_text(&gen::parity_tree(8)),
        write_text(&gen::parity_tree(12)),
    ]
}

struct PlannedJob {
    spec: JobSpec,
    /// Eligible for the cold bit-identity audit (no wall clock involved).
    deterministic: bool,
    injected_panic: bool,
}

/// The deterministic mixed stream: mostly honest work with hostile
/// payloads, poison, starvation, and dead-on-arrival deadlines mixed in.
fn plan_job(rng: &mut Rng64, blifs: &[String]) -> PlannedJob {
    let roll = rng.range(0, 100);
    let mut spec = if roll < 5 {
        // Poison: the worker must catch the panic and keep its pool.
        JobSpec::new(JobKind::InjectPanic, "boom".to_string())
    } else if roll < 13 {
        // Malformed: token soup or a truncated netlist.
        let payload = if rng.chance(0.5) {
            "HELO not a netlist\n".to_string()
        } else {
            let full = &blifs[rng.range(0, blifs.len())];
            full[..full.len() / 2].to_string()
        };
        JobSpec::new(JobKind::Power, payload)
    } else if roll < 20 {
        JobSpec::new(
            if rng.chance(0.5) { JobKind::Fsm } else { JobKind::Stats },
            if rng.chance(0.5) { KISS_RING } else { KISS_TOGGLE },
        )
    } else if roll < 30 {
        JobSpec::new(JobKind::Dontcare, blifs[rng.range(0, blifs.len())].clone())
    } else if roll < 45 {
        JobSpec::new(JobKind::Stats, blifs[rng.range(0, blifs.len())].clone())
    } else {
        JobSpec::new(JobKind::Power, blifs[rng.range(0, blifs.len())].clone())
    };
    spec.cycles = 1 << rng.range(5, 9);
    spec.seed = rng.next_u64();
    if rng.chance(0.08) {
        // Starved: both the exact and the sampled tier must trip, so the
        // failure class is `budget`, not a silent degrade.
        spec.max_bdd_nodes = Some(16);
        spec.max_sim_steps = Some(16);
    }
    let mut deterministic = true;
    if rng.chance(0.05) {
        // Dead on arrival: refused with the deadline class, zero attempts.
        spec.deadline_ms = Some(0);
        deterministic = false;
    }
    // An FSM payload under the Stats kind (and vice versa) fails typed;
    // that is part of the point, so no kind/payload consistency fix-up.
    PlannedJob {
        injected_panic: spec.kind == JobKind::InjectPanic && spec.deadline_ms.is_none(),
        deterministic,
        spec,
    }
}

/// Submit with backpressure: a full queue is a typed refusal, so admission
/// spins politely instead of dropping work.
fn admit(server: &Server, spec: &JobSpec) -> PendingJob {
    loop {
        match server.submit(spec.clone()) {
            Ok(p) => return p,
            Err(JobError::QueueFull { .. }) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("soak admission refused: {e}"),
        }
    }
}

#[derive(Default)]
struct Audit {
    completed: u64,
    failed: u64,
    failed_by_class: BTreeMap<String, u64>,
    panics_isolated: u64,
    stray_panics: u64,
    identity_sampled: u64,
    identity_mismatches: u64,
    dropped_by_kill: u64,
}

impl Audit {
    /// Fold one response in; `job` is the plan that produced it.
    fn absorb(&mut self, job: &PlannedJob, result: &Result<lowpower::serve::JobOutput, JobError>) {
        match result {
            Ok(output) => {
                self.completed += 1;
                if job.deterministic
                    && (self.completed + self.failed).is_multiple_of(IDENTITY_SAMPLE as u64)
                {
                    self.identity_sampled += 1;
                    let (cold, _) = cold_run(&job.spec, &ExecPolicy::default());
                    if cold.as_ref() != Ok(output) {
                        self.identity_mismatches += 1;
                    }
                }
            }
            Err(e) => {
                self.failed += 1;
                *self.failed_by_class.entry(e.class().to_string()).or_insert(0) += 1;
                match e {
                    JobError::Panicked(_) if job.injected_panic => self.panics_isolated += 1,
                    JobError::Panicked(_) => self.stray_panics += 1,
                    JobError::Shutdown => self.dropped_by_kill += 1,
                    _ => {}
                }
            }
        }
    }
}

/// Run `jobs` against `server`, wait for every answer, fold into `audit`.
fn run_stream(server: &Server, jobs: &[PlannedJob], audit: &mut Audit) {
    // Admit in chunks so backpressure engages without serializing the pool.
    for chunk in jobs.chunks(128) {
        let pending: Vec<_> = chunk.iter().map(|j| admit(server, &j.spec)).collect();
        for (job, p) in chunk.iter().zip(pending) {
            let response = p.wait();
            audit.absorb(job, &response.result);
        }
    }
}

fn corrupt_one_snapshot(dir: &Path) -> PathBuf {
    let victim = std::fs::read_dir(dir)
        .expect("snapshot dir readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "lpc"))
        .expect("a checkpoint must exist to corrupt");
    let mut bytes = std::fs::read(&victim).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, bytes).expect("write corrupted checkpoint");
    victim
}

fn main() {
    let (out_path, check) = bench::harness::args("BENCH_serve.json");

    let snapshot_dir = std::env::temp_dir().join(format!("bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    std::fs::create_dir_all(&snapshot_dir).expect("create snapshot dir");
    let cfg = ServeConfig {
        workers: 4,
        queue_capacity: 256,
        snapshot_dir: Some(snapshot_dir.clone()),
        checkpoint_every: 8,
        fault_injection: true,
        retry_backoff_ms: 0,
        ..ServeConfig::default()
    };

    let blifs = payload_pool();
    let mut rng = Rng64::new(0x50AC_BEEF);
    let jobs: Vec<PlannedJob> = (0..SOAK_JOBS).map(|_| plan_job(&mut rng, &blifs)).collect();
    let half = SOAK_JOBS / 2;
    let mut audit = Audit::default();

    // ---- Phase 1: first half of the soak, then an abrupt kill with a
    // burst still in flight (periodic checkpoints only, like a crash).
    let soak_started = Instant::now();
    let server = Server::start(cfg.clone());
    run_stream(&server, &jobs[..half - DROP_BURST], &mut audit);
    let burst: Vec<_> = jobs[half - DROP_BURST..half]
        .iter()
        .map(|j| admit(&server, &j.spec))
        .collect();
    let killed_stats = server.shutdown_abort();
    for (job, p) in jobs[half - DROP_BURST..half].iter().zip(burst) {
        audit.absorb(job, &p.wait().result);
    }
    assert!(
        killed_stats.checkpoints > 0,
        "the kill must land after periodic checkpoints exist"
    );

    // ---- Phase 2: restart from whatever the crash left behind, finish
    // the stream (re-running the dropped burst — a crash loses no *work*,
    // only in-flight requests, which came back typed).
    let server = Server::start(cfg.clone());
    let restart_scan = server.snapshot_scan();
    run_stream(&server, &jobs[half - DROP_BURST..], &mut audit);
    let restart_stats = server.shutdown_drain();
    let soak_secs = soak_started.elapsed().as_secs_f64();
    let total_answered = audit.completed + audit.failed;

    // ---- Phase 3: corrupt a checkpoint; the next server must reject it,
    // keep serving, and leave a valid snapshot behind at drain.
    corrupt_one_snapshot(&snapshot_dir);
    let server = Server::start(cfg);
    let corruption_scan = server.snapshot_scan();
    let probe = server.run(JobSpec::new(JobKind::Power, blifs[0].clone()));
    let served_after_rejection = probe.result.is_ok();
    server.shutdown_drain();
    let (rebuilt, rebuilt_scan) = read_valid_snapshots(&snapshot_dir);
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    let jobs_per_sec = total_answered as f64 / soak_secs.max(1e-3);
    let hit_rate_after_restart = restart_stats.cache_hit_rate();

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"serve\",\n  \"soak\": {\n");
    let _ = write!(
        json,
        "    \"jobs\": {},\n    \"answered\": {},\n    \"completed\": {},\n    \"failed\": {},\n",
        SOAK_JOBS + DROP_BURST,
        total_answered,
        audit.completed,
        audit.failed
    );
    json.push_str("    \"failed_by_class\": {");
    for (i, (class, n)) in audit.failed_by_class.iter().enumerate() {
        let _ = write!(json, "{}\"{class}\": {n}", if i == 0 { "" } else { ", " });
    }
    json.push_str("},\n");
    let _ = write!(
        json,
        "    \"panics_isolated\": {},\n    \"stray_panics\": {},\n    \
         \"dropped_by_kill\": {},\n    \"identity_sampled\": {},\n    \
         \"identity_mismatches\": {},\n    \"jobs_per_sec\": {:.2}\n  }},\n",
        audit.panics_isolated,
        audit.stray_panics,
        audit.dropped_by_kill,
        audit.identity_sampled,
        audit.identity_mismatches,
        jobs_per_sec
    );
    let _ = write!(
        json,
        "  \"restart\": {{\n    \"snapshots_loaded\": {},\n    \"snapshots_rejected\": {},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {},\n    \"hit_rate_after_restart\": {:.4}\n  }},\n",
        restart_scan.files_valid,
        restart_scan.files_rejected,
        restart_stats.cache_hits,
        restart_stats.cache_misses,
        hit_rate_after_restart
    );
    let _ = write!(
        json,
        "  \"corruption\": {{\n    \"files_rejected\": {},\n    \"served_after_rejection\": {},\n    \
         \"valid_snapshots_after_drain\": {},\n    \"rejected_after_drain\": {}\n  }}\n}}\n",
        corruption_scan.files_rejected,
        served_after_rejection,
        rebuilt.len(),
        rebuilt_scan.files_rejected
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    println!("wrote {out_path}");
    println!(
        "  soak: {}/{} answered ({} ok, {} typed failures, {:.1} jobs/sec)",
        total_answered,
        SOAK_JOBS + DROP_BURST,
        audit.completed,
        audit.failed,
        jobs_per_sec
    );
    println!(
        "  isolation: {} injected panics caught, {} stray, {} identity samples, {} mismatches",
        audit.panics_isolated, audit.stray_panics, audit.identity_sampled, audit.identity_mismatches
    );
    println!(
        "  restart: {} snapshot file(s) loaded, hit rate {:.1}% ({} hits / {} misses)",
        restart_scan.files_valid,
        100.0 * hit_rate_after_restart,
        restart_stats.cache_hits,
        restart_stats.cache_misses
    );
    println!(
        "  corruption: {} file(s) rejected, served after rejection: {}, {} valid snapshot(s) rebuilt",
        corruption_scan.files_rejected,
        served_after_rejection,
        rebuilt.len()
    );

    if check {
        let mut failures = Vec::new();
        if total_answered != (SOAK_JOBS + DROP_BURST) as u64 {
            failures.push(format!(
                "answered {total_answered} of {} jobs — the daemon lost work",
                SOAK_JOBS + DROP_BURST
            ));
        }
        if audit.stray_panics > 0 {
            failures.push(format!(
                "{} panic(s) escaped from non-poison jobs",
                audit.stray_panics
            ));
        }
        if audit.panics_isolated == 0 {
            failures.push("the stream never exercised panic isolation".to_string());
        }
        if audit.identity_sampled == 0 {
            failures.push("the identity audit sampled nothing".to_string());
        }
        if audit.identity_mismatches > 0 {
            failures.push(format!(
                "{} warm answer(s) diverged from cold runs — cross-job interference",
                audit.identity_mismatches
            ));
        }
        if restart_scan.files_valid == 0 {
            failures.push("restart found no usable checkpoint".to_string());
        }
        if hit_rate_after_restart < 0.5 {
            failures.push(format!(
                "warm-start hit rate {:.2} below 0.5 — the snapshot did not help",
                hit_rate_after_restart
            ));
        }
        if corruption_scan.files_rejected == 0 {
            failures.push("the corrupted checkpoint was not rejected".to_string());
        }
        if !served_after_rejection {
            failures.push("the daemon failed to serve after rejecting corruption".to_string());
        }
        if rebuilt.is_empty() || rebuilt_scan.files_rejected > 0 {
            failures.push("no valid snapshot was rebuilt after the corruption".to_string());
        }
        // Throughput floor: deliberately far below any healthy run; only a
        // hung or thrashing daemon can miss it on a shared CI box.
        if jobs_per_sec < 1.0 {
            failures.push(format!("jobs/sec {jobs_per_sec:.2} below the 1.0 floor"));
        }
        if !failures.is_empty() {
            eprintln!("bench_serve --check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        println!("  --check: all serve gates hold");
    }
}
