//! `lpbench` — the end-to-end and per-layer benchmark of what `lpopt`
//! users wait for: cold commands (BLIF text in, report or netlist out) and
//! serve jobs (submit → answer). README.md in this directory documents the
//! workloads, metrics and bounds.
//!
//! ```text
//! cargo run --release -p bench --bin lpbench -- [--workload W] [--seed N]
//!     [--seconds S] [--trace 0|1|FILE] [--smoke] [--bless]
//! ```
//!
//! Without `--workload` every workload runs in its own child process (the
//! binary re-executes itself with `--workload W`); a traced all-workload
//! run writes `FILE.W` per workload. Every output is checked, and any
//! digest or oracle failure makes the command exit nonzero. The last line
//! of a single-workload run is one JSON object: end-to-end metrics
//! untraced, per-layer metrics with `--trace`. `--bless` prints a new
//! `expected/seed-1.digests` to standard output.

mod batch;
mod harness;
mod oracle;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Outcome;

/// The workloads, each stressing a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PowerSim,
    PowerExact,
    OptIncr,
    Rewrite,
    Serve,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::PowerSim,
        Workload::PowerExact,
        Workload::OptIncr,
        Workload::Rewrite,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PowerSim => "power-sim",
            Workload::PowerExact => "power-exact",
            Workload::OptIncr => "opt-incr",
            Workload::Rewrite => "rewrite",
            Workload::Serve => "serve",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports, in per mille: p90 on the
    /// batch workloads, p99 on serve. Fixed, so two builds are always
    /// compared on the same percentile.
    pub const fn tail_permille(self) -> usize {
        match self {
            Workload::Serve => 990,
            _ => 900,
        }
    }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Whole rounds until this many seconds have passed (and the tail
    /// percentile has enough samples).
    Seconds(f64),
    /// One round (one phase pair for serve): smoke and bless runs.
    OneRound,
}

/// How a workload runs.
#[derive(Debug, Clone)]
pub struct Mode {
    pub seed: u64,
    pub length: Length,
    /// Alternate traced rounds with untraced ones and report per layer.
    pub trace: bool,
    /// Only the smallest ops (and 50 serve jobs).
    pub smoke: bool,
    /// Set-up runs this often; `setup_s` is the median.
    pub setup_reps: usize,
}

const SETUP_REPS: usize = 3;
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: lpbench [--workload power-sim|power-exact|opt-incr|rewrite|serve] \
[--seed N] [--seconds S] [--trace 0|1|FILE] [--smoke] [--bless]";

/// Per-op output digests at `--seed 1`, regenerated with `--bless`.
const EXPECTED: &str = include_str!("expected/seed-1.digests");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None` untraced; `Some(None)` traced to the default file.
    trace: Option<Option<String>>,
    smoke: bool,
    bless: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        match flag {
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = inline
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("{flag}: missing value"))?;
                match flag {
                    "--workload" => {
                        args.workload = Some(
                            Workload::from_name(&value)
                                .ok_or_else(|| format!("unknown workload {value:?}"))?,
                        )
                    }
                    "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                    "--seconds" => {
                        args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                            return Err("--seconds must be positive".to_string());
                        }
                    }
                    _ => {
                        args.trace = match value.as_str() {
                            "0" => None,
                            "1" => Some(None),
                            path => Some(Some(path.to_string())),
                        }
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(workload: Workload, mode: &Mode) -> Outcome {
    match workload {
        Workload::Serve => serve::run(mode),
        batch => batch::run(batch, mode),
    }
}

/// Compare an outcome's reference digests with the `--seed 1` file; one
/// line names the first few mismatches.
fn expected_failure(o: &Outcome) -> Option<String> {
    let workload = o.workload.name();
    let mismatched: Vec<String> = o
        .digests
        .iter()
        .filter_map(|(name, digest)| {
            let want = EXPECTED.lines().find_map(|line| {
                let mut f = line.split_whitespace();
                (f.next() == Some(workload) && f.next() == Some(name.as_str()))
                    .then(|| f.next())
                    .flatten()
            });
            let got = format!("{digest:016x}");
            (want != Some(got.as_str()))
                .then(|| format!("{name} {got} (expected {})", want.unwrap_or("none")))
        })
        .collect();
    (!mismatched.is_empty()).then(|| {
        format!(
            "{} of {} output digests differ from expected/seed-1.digests (rerun --bless \
             only for an intended output change): {}",
            mismatched.len(),
            o.digests.len(),
            mismatched[..mismatched.len().min(3)].join(", ")
        )
    })
}

/// Where a traced run writes its spans by default: under the build's
/// target directory, which stays inside the checkout.
fn default_trace_path(workload: Workload, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("lpbench")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()))
}

/// Run one workload in this process, print its lines and the JSON result.
/// Returns whether every check passed.
fn run_one(workload: Workload, mode: &Mode, trace_path: Option<PathBuf>) -> bool {
    let outcome = run_workload(workload, mode);
    let mut failures = outcome.failures.clone();
    if mode.seed == 1 {
        failures.extend(expected_failure(&outcome));
    }
    let name = workload.name();
    let rss = harness::peak_rss_mib().map_or(0.0, |mib| mib - harness::PROBE_MIB);
    let e2e = report::end_to_end(&outcome, rss);
    for m in e2e.iter().chain(&report::unbounded(&outcome)) {
        println!("{name} {} {:.6} {} {}", m.name, m.value, m.unit, m.note);
    }
    for line in report::op_lines(&outcome) {
        println!("{line}");
    }
    println!(
        "{name} digest {:016x} seed={}",
        outcome.workload_digest(),
        mode.seed
    );
    let mut metrics = e2e;
    if let Some(t) = &outcome.traced {
        metrics = report::per_layer(t);
        for m in &metrics {
            println!("{name} {} {:.6} {} {}", m.name, m.value, m.unit, m.note);
        }
        for line in report::layer_lines(name, t) {
            println!("{line}");
        }
        if let Some(path) = trace_path {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, report::trace_jsonl(&outcome, t)));
            match written {
                Ok(()) => println!("{name} trace {}", path.display()),
                Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
            }
        }
    }
    for f in &failures {
        println!("{name} CHECK FAILED {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        report::json_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    correct
}

/// Every workload in its own child process, with the same arguments.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("lpbench: cannot find own executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        match &args.trace {
            None => {}
            Some(None) => {
                cmd.args(["--trace", "1"]);
            }
            Some(Some(path)) => {
                cmd.args(["--trace", &format!("{path}.{}", w.name())]);
            }
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("lpbench: workload {} failed ({status})", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("lpbench: cannot run workload {}: {e}", w.name());
                ok = false;
            }
        }
    }
    ok
}

/// One round of each workload's smallest ops (50 serve jobs), traced,
/// with every check.
fn smoke(seed: u64, workloads: &[Workload]) -> bool {
    let mode = Mode {
        seed,
        length: Length::OneRound,
        trace: true,
        smoke: true,
        setup_reps: 1,
    };
    workloads
        .iter()
        .filter(|&&w| !run_one(w, &mode, None))
        .count()
        == 0
}

/// The contents of `expected/seed-1.digests`, from one round of every op.
fn bless() -> Result<String, String> {
    let mode = Mode {
        seed: 1,
        length: Length::OneRound,
        trace: false,
        smoke: false,
        setup_reps: 1,
    };
    let smoke = Mode {
        smoke: true,
        ..mode.clone()
    };
    let mut text =
        String::from("# lpbench per-op output digests at --seed 1; regenerate with --bless\n");
    // Batch smoke ops are a subset of the full lists; the serve smoke run
    // has a stream of its own.
    let runs = Workload::ALL
        .iter()
        .map(|&w| (w, &mode))
        .chain([(Workload::Serve, &smoke)]);
    for (w, mode) in runs {
        let outcome = run_workload(w, mode);
        if let Some(f) = outcome.failures.first() {
            return Err(format!("{}: {f}", w.name()));
        }
        for (name, digest) in &outcome.digests {
            text.push_str(&format!("{} {name} {digest:016x}\n", w.name()));
        }
    }
    Ok(text)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.bless {
        match bless() {
            Ok(text) => {
                print!("{text}");
                true
            }
            Err(e) => {
                eprintln!("lpbench: bless failed: {e}");
                false
            }
        }
    } else if args.smoke {
        match args.workload {
            Some(w) => smoke(args.seed, &[w]),
            None => smoke(args.seed, &Workload::ALL),
        }
    } else if let Some(w) = args.workload {
        let mode = Mode {
            seed: args.seed,
            length: Length::Seconds(args.seconds),
            trace: args.trace.is_some(),
            smoke: false,
            setup_reps: SETUP_REPS,
        };
        let path = args.trace.as_ref().map(|p| {
            p.clone()
                .map_or_else(|| default_trace_path(w, args.seed), PathBuf::from)
        });
        run_one(w, &mode, path)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_run_passes_every_check() {
        assert!(
            super::smoke(1, &super::Workload::ALL),
            "see the CHECK FAILED lines above"
        );
    }
}
