//! The resident optimization server: bounded admission, a worker pool with
//! per-worker warm caches, two shutdown paths, and periodic checkpoints.
//!
//! Scheduling is deliberately simple: one bounded FIFO queue, `N` worker
//! threads each owning its own [`WorkerState`] (the circuit-BDD cache is
//! `Rc`-based and must not cross threads). Concurrency comes from running
//! independent jobs on independent workers — a single job never fans out,
//! which keeps every answer bit-identical to a cold single-threaded run.
//!
//! Shutdown has two flavors mirroring a real daemon's lifecycle:
//!
//! * [`Server::shutdown_drain`] — SIGTERM path: stop admitting, finish
//!   every queued job, write a final checkpoint per worker, join.
//! * [`Server::shutdown_abort`] — simulated kill: pending jobs are failed
//!   as dropped, no final checkpoint is written. Warm-start tests restart
//!   from whatever periodic checkpoint survived, exactly like a crash.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::job::{JobError, JobResponse, JobSpec};
use crate::queue::{JobQueue, PushError};
use crate::snapshot::{self, SnapshotScan};
use crate::worker::{self, ExecPolicy, WorkerState};

/// Circuits each worker's BDD cache holds.
const WORKER_CACHE_CAPACITY: usize = 16;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = all cores).
    pub workers: usize,
    /// Pending jobs admitted before backpressure kicks in.
    pub queue_capacity: usize,
    /// Where checkpoints live; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Checkpoint each worker after this many of its jobs (`0` = only at
    /// drain).
    pub checkpoint_every: u64,
    /// Honor `inject-panic` jobs (soak tests only).
    pub fault_injection: bool,
    /// Backoff before the one degraded retry of a transient failure.
    pub retry_backoff_ms: u64,
    /// Variable-ordering policy for the exact tier of power jobs (see
    /// [`power::order::ReorderConfig`]); the default is the fixed order.
    pub reorder: power::order::ReorderConfig,
    /// Observability handle; all `serve.*` metrics flow through it.
    pub obs: obs::Obs,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            snapshot_dir: None,
            checkpoint_every: 32,
            fault_injection: false,
            retry_backoff_ms: 25,
            reorder: power::order::ReorderConfig::default(),
            obs: obs::Obs::disabled(),
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    admitted: Instant,
    reply: mpsc::Sender<JobResponse>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    checkpoints: AtomicU64,
    failed_by_class: Mutex<BTreeMap<&'static str, u64>>,
}

struct Shared {
    queue: JobQueue<QueuedJob>,
    draining: AtomicBool,
    abort: AtomicBool,
    counters: Counters,
    obs: obs::Obs,
    started: Instant,
}

/// A submitted job's handle; [`PendingJob::wait`] blocks for the answer.
pub struct PendingJob {
    /// Admission-assigned id.
    pub id: u64,
    rx: mpsc::Receiver<JobResponse>,
}

impl PendingJob {
    /// Block until the job completes. A job dropped by an aborting server
    /// resolves to a typed shutdown error, never a hang or a panic.
    pub fn wait(self) -> JobResponse {
        let id = self.id;
        self.rx.recv().unwrap_or(JobResponse {
            id,
            result: Err(JobError::Shutdown),
            attempts: 0,
        })
    }
}

/// Point-in-time server statistics (also the `METRICS` wire payload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that answered.
    pub completed: u64,
    /// Jobs that failed (typed).
    pub failed: u64,
    /// Failure counts by class.
    pub failed_by_class: BTreeMap<String, u64>,
    /// Degraded retries taken.
    pub retries: u64,
    /// Panics caught and isolated.
    pub panics: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Circuit-BDD cache hits across all workers.
    pub cache_hits: u64,
    /// Circuit-BDD cache misses across all workers.
    pub cache_misses: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Snapshot files that validated at startup.
    pub snapshots_loaded: u64,
    /// Snapshot files rejected (corrupt / version skew) at startup.
    pub snapshots_rejected: u64,
    /// Completed jobs per wall-clock second since start.
    pub jobs_per_sec: f64,
}

impl ServerStats {
    /// Cache hit rate in `[0, 1]` (0 when the cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Stable `name value` lines (the `METRICS` endpoint payload).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("serve.jobs.submitted {}\n", self.submitted));
        out.push_str(&format!("serve.jobs.completed {}\n", self.completed));
        out.push_str(&format!("serve.jobs.failed {}\n", self.failed));
        for (class, n) in &self.failed_by_class {
            out.push_str(&format!("serve.jobs.failed.{class} {n}\n"));
        }
        out.push_str(&format!("serve.retries {}\n", self.retries));
        out.push_str(&format!("serve.panics {}\n", self.panics));
        out.push_str(&format!("serve.queue.depth {}\n", self.queue_depth));
        out.push_str(&format!("serve.cache.hits {}\n", self.cache_hits));
        out.push_str(&format!("serve.cache.misses {}\n", self.cache_misses));
        out.push_str(&format!("serve.cache.hit_rate {:.4}\n", self.cache_hit_rate()));
        out.push_str(&format!("serve.snapshot.saved {}\n", self.checkpoints));
        out.push_str(&format!("serve.snapshot.loaded {}\n", self.snapshots_loaded));
        out.push_str(&format!("serve.snapshot.rejected {}\n", self.snapshots_rejected));
        out.push_str(&format!("serve.jobs_per_sec {:.2}\n", self.jobs_per_sec));
        out
    }

    /// Parse [`ServerStats::to_text`] output (client side of `METRICS`).
    pub fn from_text(text: &str) -> ServerStats {
        let mut stats = ServerStats::default();
        for line in text.lines() {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            match name {
                "serve.jobs.submitted" => stats.submitted = value.parse().unwrap_or(0),
                "serve.jobs.completed" => stats.completed = value.parse().unwrap_or(0),
                "serve.jobs.failed" => stats.failed = value.parse().unwrap_or(0),
                "serve.retries" => stats.retries = value.parse().unwrap_or(0),
                "serve.panics" => stats.panics = value.parse().unwrap_or(0),
                "serve.queue.depth" => stats.queue_depth = value.parse().unwrap_or(0),
                "serve.cache.hits" => stats.cache_hits = value.parse().unwrap_or(0),
                "serve.cache.misses" => stats.cache_misses = value.parse().unwrap_or(0),
                "serve.snapshot.saved" => stats.checkpoints = value.parse().unwrap_or(0),
                "serve.snapshot.loaded" => stats.snapshots_loaded = value.parse().unwrap_or(0),
                "serve.snapshot.rejected" => {
                    stats.snapshots_rejected = value.parse().unwrap_or(0)
                }
                "serve.jobs_per_sec" => stats.jobs_per_sec = value.parse().unwrap_or(0.0),
                _ => {
                    if let Some(class) = name.strip_prefix("serve.jobs.failed.") {
                        stats
                            .failed_by_class
                            .insert(class.to_string(), value.parse().unwrap_or(0));
                    }
                }
            }
        }
        stats
    }
}

/// The running daemon. Dropping it closes the queue and joins the workers
/// (a drain); use the explicit shutdown methods to pick the path.
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    scan: SnapshotScan,
    workers: usize,
}

impl Server {
    /// Start the worker pool, warm-starting every worker from the union of
    /// validated snapshot files in `cfg.snapshot_dir`.
    pub fn start(cfg: ServeConfig) -> Server {
        worker::install_job_panic_hook();
        let workers = sim::par::num_threads(cfg.workers);
        let (texts, scan) = match &cfg.snapshot_dir {
            Some(dir) => snapshot::read_valid_snapshots(dir),
            None => (Vec::new(), SnapshotScan::default()),
        };
        cfg.obs
            .add("serve.snapshot.loaded", scan.files_valid as u64);
        cfg.obs
            .add("serve.snapshot.rejected", scan.files_rejected as u64);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            draining: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            counters: Counters::default(),
            obs: cfg.obs.clone(),
            started: Instant::now(),
        });
        let texts = Arc::new(texts);
        let policy = ExecPolicy {
            fault_injection: cfg.fault_injection,
            retry_backoff_ms: cfg.retry_backoff_ms,
            reorder: cfg.reorder,
            obs: cfg.obs.clone(),
        };
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let texts = Arc::clone(&texts);
                let policy = policy.clone();
                let snapshot_dir = cfg.snapshot_dir.clone();
                let checkpoint_every = cfg.checkpoint_every;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            i,
                            &shared,
                            &texts,
                            &policy,
                            snapshot_dir.as_deref(),
                            checkpoint_every,
                        )
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            shared,
            handles,
            next_id: AtomicU64::new(0),
            scan,
            workers,
        }
    }

    /// Worker threads actually running.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// What the startup snapshot scan found.
    pub fn snapshot_scan(&self) -> SnapshotScan {
        self.scan
    }

    /// Admit one job, or refuse immediately with a typed error
    /// (backpressure or shutdown) — admission never blocks.
    pub fn submit(&self, spec: JobSpec) -> Result<PendingJob, JobError> {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Err(JobError::Shutdown);
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let (reply, rx) = mpsc::channel();
        let job = QueuedJob {
            id,
            spec,
            admitted: Instant::now(),
            reply,
        };
        match self.shared.queue.push(job) {
            Ok(()) => {
                self.shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.shared.obs.add("serve.jobs.submitted", 1);
                self.shared
                    .obs
                    .gauge_max("serve.queue.depth.peak", self.shared.queue.len() as f64);
                Ok(PendingJob { id, rx })
            }
            Err((_, PushError::Full { capacity })) => Err(JobError::QueueFull { capacity }),
            Err((_, PushError::Closed)) => Err(JobError::Shutdown),
        }
    }

    /// Submit and wait: the synchronous client path. Admission refusals
    /// come back as a response with id 0 and the typed error.
    pub fn run(&self, spec: JobSpec) -> JobResponse {
        match self.submit(spec) {
            Ok(pending) => pending.wait(),
            Err(e) => JobResponse {
                id: 0,
                result: Err(e),
                attempts: 0,
            },
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let completed = c.completed.load(Ordering::Relaxed);
        let elapsed = self.shared.started.elapsed().as_secs_f64().max(1e-3);
        ServerStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed,
            failed: c.failed.load(Ordering::Relaxed),
            failed_by_class: c
                .failed_by_class
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            retries: c.retries.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.len() as u64,
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            snapshots_loaded: self.scan.files_valid as u64,
            snapshots_rejected: self.scan.files_rejected as u64,
            jobs_per_sec: completed as f64 / elapsed,
        }
    }

    /// Stop admitting new work and let the queue run dry, without waiting.
    /// Every already-admitted job will still be answered; every later
    /// [`Server::submit`] is refused with a typed shutdown error. Callers
    /// that also want to wait use [`Server::shutdown_drain`].
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// Graceful shutdown (the SIGTERM path): stop admitting, run every
    /// queued job to completion, write one final checkpoint per worker,
    /// join the pool. Returns the final statistics.
    pub fn shutdown_drain(mut self) -> ServerStats {
        self.begin_drain();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }

    /// Abrupt shutdown (simulated kill): pending jobs are failed as
    /// dropped, workers finish only their in-flight job, and **no** final
    /// checkpoint is written — restart recovery sees exactly the periodic
    /// checkpoints a crash would have left behind.
    pub fn shutdown_abort(mut self) -> ServerStats {
        self.shared.abort.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        for job in self.shared.queue.close_and_drain() {
            self.shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            record_class(&self.shared, "shutdown");
            let _ = job.reply.send(JobResponse {
                id: job.id,
                result: Err(JobError::Shutdown),
                attempts: 0,
            });
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn record_class(shared: &Shared, class: &'static str) {
    *shared
        .counters
        .failed_by_class
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(class)
        .or_insert(0) += 1;
    shared.obs.add(&format!("serve.jobs.failed.{class}"), 1);
}

fn worker_loop(
    index: usize,
    shared: &Shared,
    texts: &[String],
    policy: &ExecPolicy,
    snapshot_dir: Option<&std::path::Path>,
    checkpoint_every: u64,
) {
    let mut state = WorkerState::new(WORKER_CACHE_CAPACITY);
    let warmed = snapshot::load_texts(texts, &mut state.cache);
    shared
        .obs
        .add("serve.snapshot.circuits_warmed", warmed as u64);
    let (mut last_hits, mut last_misses) = (state.cache.hits(), state.cache.misses());
    while let Some(job) = shared.queue.pop() {
        shared
            .obs
            .gauge_set("serve.queue.depth", shared.queue.len() as f64);
        let (result, attempts) =
            worker::execute(&job.spec, Some(job.admitted), &mut state, policy);
        if attempts > 1 {
            let extra = u64::from(attempts - 1);
            shared.counters.retries.fetch_add(extra, Ordering::Relaxed);
            shared.obs.add("serve.retries", extra);
        }
        match &result {
            Ok(_) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                shared.obs.add("serve.jobs.completed", 1);
            }
            Err(e) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                shared.obs.add("serve.jobs.failed", 1);
                record_class(shared, e.class());
                if matches!(e, JobError::Panicked(_)) {
                    shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                    shared.obs.add("serve.panics", 1);
                }
            }
        }
        // Cache traffic deltas; a post-panic reset restarts the worker's
        // counters at zero, which saturating_sub treats as "no new traffic".
        let (hits, misses) = (state.cache.hits(), state.cache.misses());
        shared
            .counters
            .cache_hits
            .fetch_add(hits.saturating_sub(last_hits), Ordering::Relaxed);
        shared
            .counters
            .cache_misses
            .fetch_add(misses.saturating_sub(last_misses), Ordering::Relaxed);
        (last_hits, last_misses) = (hits, misses);
        let _ = job.reply.send(JobResponse {
            id: job.id,
            result,
            attempts,
        });
        state.jobs_done += 1;
        if let Some(dir) = snapshot_dir {
            if checkpoint_every > 0
                && state.jobs_done.is_multiple_of(checkpoint_every)
                && save_checkpoint(shared, dir, index, &state)
            {
                // counted inside save_checkpoint
            }
        }
    }
    // Drained: persist the warm state — unless this is a simulated crash.
    if !shared.abort.load(Ordering::SeqCst) {
        if let Some(dir) = snapshot_dir {
            save_checkpoint(shared, dir, index, &state);
        }
    }
}

fn save_checkpoint(
    shared: &Shared,
    dir: &std::path::Path,
    index: usize,
    state: &WorkerState,
) -> bool {
    match snapshot::save_worker_snapshot(dir, index, &state.cache) {
        Ok(()) => {
            shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            shared.obs.add("serve.snapshot.saved", 1);
            true
        }
        Err(_) => {
            shared.obs.add("serve.snapshot.save_failed", 1);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;
    use netlist::blif::write_text;
    use netlist::gen;

    fn cfg_small() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            retry_backoff_ms: 0,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn jobs_answer_and_match_cold_runs() {
        let server = Server::start(cfg_small());
        let blif = write_text(&gen::ripple_adder(4).0);
        let spec = JobSpec::new(JobKind::Power, blif);
        let pending: Vec<_> = (0..6)
            .map(|_| server.submit(spec.clone()).unwrap())
            .collect();
        let answers: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let (cold, _) = worker::cold_run(&spec, &ExecPolicy::default());
        let cold = cold.unwrap();
        for a in &answers {
            assert_eq!(a.result.as_ref().unwrap(), &cold);
        }
        let stats = server.shutdown_drain();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert!(stats.cache_hits >= 4, "two workers, six jobs: most must hit");
    }

    #[test]
    fn full_queue_backpressures_with_typed_error() {
        // One worker, capacity 1: the third submit in a burst must see a
        // typed queue-full (the first may already be in flight).
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            retry_backoff_ms: 0,
            ..ServeConfig::default()
        });
        let blif = write_text(&gen::array_multiplier(5).0);
        let spec = JobSpec::new(JobKind::Power, blif);
        let mut rejected = 0;
        let mut pending = Vec::new();
        for _ in 0..12 {
            match server.submit(spec.clone()) {
                Ok(p) => pending.push(p),
                Err(JobError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected admission error: {other:?}"),
            }
        }
        assert!(rejected > 0, "burst must hit backpressure");
        for p in pending {
            assert!(p.wait().result.is_ok());
        }
        drop(server);
    }

    #[test]
    fn draining_refuses_new_work() {
        let server = Server::start(cfg_small());
        let stats = server.shutdown_drain();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn abort_fails_pending_jobs_as_shutdown() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            retry_backoff_ms: 0,
            ..ServeConfig::default()
        });
        let blif = write_text(&gen::array_multiplier(6).0);
        let pending: Vec<_> = (0..6)
            .map(|_| server.submit(JobSpec::new(JobKind::Power, blif.clone())).unwrap())
            .collect();
        let stats = server.shutdown_abort();
        let mut dropped = 0;
        for p in pending {
            if p.wait().result == Err(JobError::Shutdown) {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "queued jobs must fail as dropped");
        assert_eq!(stats.failed_by_class.get("shutdown"), Some(&(dropped as u64)));
    }

    #[test]
    fn stats_text_round_trips() {
        let server = Server::start(cfg_small());
        let blif = write_text(&gen::ripple_adder(3).0);
        server.run(JobSpec::new(JobKind::Stats, blif));
        server.run(JobSpec::new(JobKind::Power, "garbage".to_string()));
        let stats = server.stats();
        let parsed = ServerStats::from_text(&stats.to_text());
        assert_eq!(parsed.submitted, stats.submitted);
        assert_eq!(parsed.completed, stats.completed);
        assert_eq!(parsed.failed_by_class, stats.failed_by_class);
        assert_eq!(parsed.failed_by_class.get("parse"), Some(&1));
        drop(server);
    }
}
