//! Golden-file regression suite over the `lpopt` CLI.
//!
//! Each case runs the real binary in a scratch directory with
//! `LPOPT_OBS_FAKE_CLOCK` set (all span timings pinned to zero) and
//! `--jobs 1` (shard gauges pinned), then byte-compares stdout plus every
//! produced artifact against `tests/golden/<name>.expected`.
//!
//! Regenerate after an intentional output change with
//! `UPDATE_GOLDEN=1 cargo test --test golden`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use obs::json::{self, Value};

struct Case {
    name: &'static str,
    /// Arguments; `{IN}` expands to the committed `tests/golden` dir.
    args: &'static [&'static str],
    /// Files the command writes into the scratch dir, folded into the
    /// golden output after stdout.
    artifacts: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "stats-adder4",
        args: &["--jobs", "1", "stats", "{IN}/adder4.blif"],
        artifacts: &[],
    },
    Case {
        name: "power-event-adder4",
        args: &[
            "--jobs",
            "1",
            "--report",
            "--metrics-json",
            "metrics.json",
            "power",
            "{IN}/adder4.blif",
            "64",
        ],
        artifacts: &["metrics.json"],
    },
    Case {
        // A tiny step budget abandons the event-driven engine and
        // exercises the degradation chain (exact BDD answers).
        name: "power-chain-mult4",
        args: &[
            "--jobs",
            "1",
            "--budget-steps",
            "4",
            "--report",
            "--metrics-json",
            "metrics.json",
            "power",
            "{IN}/mult4.blif",
            "64",
        ],
        artifacts: &["metrics.json"],
    },
    Case {
        name: "balance-mult4",
        args: &[
            "--jobs",
            "1",
            "--report",
            "balance",
            "{IN}/mult4.blif",
            "balanced.blif",
        ],
        artifacts: &["balanced.blif"],
    },
    Case {
        name: "dontcare-parity8",
        args: &[
            "--jobs",
            "1",
            "--report",
            "--metrics-json",
            "metrics.json",
            "dontcare",
            "{IN}/parity8.blif",
            "dc.blif",
        ],
        artifacts: &["dc.blif", "metrics.json"],
    },
    Case {
        // `bench_incr`'s rand40 (`random_dag`, 40 gates, seed 21), a DAG
        // with genuine observability don't-cares: all three move classes
        // enumerate, and resub and dontcare moves win.
        name: "rewrite-rand40",
        args: &[
            "--jobs",
            "1",
            "--report",
            "--metrics-json",
            "metrics.json",
            "rewrite",
            "{IN}/rand40.blif",
            "rw.blif",
        ],
        artifacts: &["rw.blif", "metrics.json"],
    },
    Case {
        // Unlike parity8, candidates here reach the full BDD analysis.
        name: "dontcare-rand40",
        args: &[
            "--jobs",
            "1",
            "--report",
            "--metrics-json",
            "metrics.json",
            "dontcare",
            "{IN}/rand40.blif",
            "dc.blif",
        ],
        artifacts: &["dc.blif", "metrics.json"],
    },
    Case {
        name: "fsm-counter4",
        args: &[
            "--jobs",
            "1",
            "--report",
            "fsm",
            "{IN}/counter4.kiss",
            "fsm.blif",
        ],
        artifacts: &["fsm.blif"],
    },
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Run the binary in a fresh scratch dir; return (stdout, scratch dir).
/// The caller removes the dir when done.
fn run_lpopt(tag: &str, args: &[String]) -> (String, PathBuf) {
    let scratch = std::env::temp_dir().join(format!("lpopt-golden-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_lpopt"))
        .args(args)
        .env("LPOPT_OBS_FAKE_CLOCK", "1")
        // Goldens pin the default kernel behavior; an ambient GC stress
        // run would perturb the embedded bdd.* counters, and forced full
        // re-evaluation would perturb the sim.incr.* ones.
        .env_remove("LPOPT_BDD_GC_STRESS")
        .env_remove("LPOPT_INCR_STRESS")
        .current_dir(&scratch)
        .output()
        .expect("run lpopt");
    assert!(
        out.status.success(),
        "lpopt {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        scratch,
    )
}

fn compose_output(case: &Case) -> String {
    let input_dir = golden_dir();
    let args: Vec<String> = case
        .args
        .iter()
        .map(|a| a.replace("{IN}", input_dir.to_str().expect("utf-8 path")))
        .collect();
    let (stdout, scratch) = run_lpopt(case.name, &args);
    let mut composed = format!("== stdout ==\n{stdout}");
    for artifact in case.artifacts {
        let text = fs::read_to_string(scratch.join(artifact))
            .unwrap_or_else(|e| panic!("{}: missing artifact {artifact}: {e}", case.name));
        composed.push_str(&format!("== {artifact} ==\n{text}"));
    }
    let _ = fs::remove_dir_all(&scratch);
    composed
}

#[test]
fn golden_outputs_match() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut mismatches = Vec::new();
    for case in CASES {
        let got = compose_output(case);
        let path = golden_dir().join(format!("{}.expected", case.name));
        if update {
            fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: cannot read {}: {e}\n(run UPDATE_GOLDEN=1 cargo test --test golden)",
                case.name,
                path.display()
            )
        });
        if got != want {
            let diff = first_difference(&want, &got);
            mismatches.push(format!("{}: {diff}", case.name));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (UPDATE_GOLDEN=1 to accept):\n{}",
        mismatches.join("\n")
    );
}

fn first_difference(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}: expected {w:?}, got {g:?}", i + 1);
        }
    }
    format!(
        "line count: expected {}, got {}",
        want.lines().count(),
        got.lines().count()
    )
}

/// Counters are defined to be thread-count invariant; gauges under
/// `sim.par.` legitimately describe the sharding environment. Everything
/// else in `metrics.json` must be identical across `--jobs` settings.
#[test]
fn metrics_are_jobs_invariant() {
    let input = golden_dir().join("mult4.blif");
    let input = input.to_str().expect("utf-8 path");
    let mut metrics = Vec::new();
    for jobs in ["1", "4"] {
        let args: Vec<String> = [
            "--jobs",
            jobs,
            "--metrics-json",
            "metrics.json",
            "power",
            input,
            "64",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, scratch) = run_lpopt(&format!("jobs{jobs}"), &args);
        let text = fs::read_to_string(scratch.join("metrics.json")).expect("metrics.json");
        let _ = fs::remove_dir_all(&scratch);
        metrics.push(json::parse(&text).expect("valid metrics json"));
    }
    for doc in &metrics {
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("lpopt-metrics-v1")
        );
    }
    assert_eq!(
        object(&metrics[0], "counters"),
        object(&metrics[1], "counters"),
        "counter totals must not depend on --jobs"
    );
    let drop_env = |m: &BTreeMap<String, Value>| -> BTreeMap<String, Value> {
        m.iter()
            .filter(|(k, _)| !k.starts_with("sim.par."))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    assert_eq!(
        drop_env(&object(&metrics[0], "gauges")),
        drop_env(&object(&metrics[1], "gauges")),
        "non-sharding gauges must not depend on --jobs"
    );
}

fn object(doc: &Value, key: &str) -> BTreeMap<String, Value> {
    match doc.get(key) {
        Some(Value::Object(map)) => map.clone(),
        other => panic!("expected object at {key:?}, found {other:?}"),
    }
}

/// The `--trace` sink must emit one self-contained JSON document per line,
/// each tagged with a known record type.
#[test]
fn trace_is_schema_valid_jsonl() {
    let input = golden_dir().join("adder4.blif");
    let args: Vec<String> = [
        "--jobs",
        "2",
        "--trace",
        "trace.jsonl",
        "power",
        input.to_str().expect("utf-8 path"),
        "64",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (_, scratch) = run_lpopt("trace", &args);
    let text = fs::read_to_string(scratch.join("trace.jsonl")).expect("trace.jsonl");
    let _ = fs::remove_dir_all(&scratch);
    assert!(!text.is_empty());
    for (i, line) in text.lines().enumerate() {
        let doc = json::parse(line)
            .unwrap_or_else(|e| panic!("trace line {} is not valid JSON: {e}", i + 1));
        let kind = doc.get("type").and_then(Value::as_str).unwrap_or("");
        match kind {
            "span" => {
                assert!(doc.get("name").and_then(Value::as_str).is_some());
                assert!(doc.get("start_us").and_then(Value::as_u64).is_some());
            }
            "counter" => {
                assert!(doc.get("value").and_then(Value::as_u64).is_some());
            }
            "gauge" => {
                assert!(doc.get("value").is_some());
            }
            other => panic!("trace line {}: unknown record type {other:?}", i + 1),
        }
    }
}
