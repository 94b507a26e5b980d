//! End-to-end tests of the `lpopt` command-line tool: generate, inspect,
//! optimize and re-check netlists through the text format.

use std::process::Command;

fn lpopt(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_lpopt"))
        .args(args)
        .output()
        .expect("lpopt runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("lpopt-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn gen_stats_power_pipeline() {
    let file = temp_path("mult4.blif");
    let (ok, out, err) = lpopt(&["gen", "multiplier", "4", &file]);
    assert!(ok, "{err}");
    assert!(out.contains("wrote"));

    let (ok, out, _) = lpopt(&["stats", &file]);
    assert!(ok);
    assert!(out.contains("transistors"));

    let (ok, out, _) = lpopt(&["power", &file, "128"]);
    assert!(ok);
    assert!(out.contains("switching"));
    assert!(out.contains("glitch fraction"));
}

#[test]
fn balance_preserves_function_through_files() {
    let input = temp_path("adder6.blif");
    let output = temp_path("adder6_balanced.blif");
    assert!(lpopt(&["gen", "adder", "6", &input]).0);
    let (ok, out, err) = lpopt(&["balance", &input, &output, "0"]);
    assert!(ok, "{err}");
    assert!(out.contains("buffers added"));
    // Reload both and check equivalence.
    let a = lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let b =
        lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&output).unwrap()).unwrap();
    assert!(lowpower::sim::comb::equivalent_exhaustive(&a, &b));
}

#[test]
fn dontcare_pass_runs_on_small_circuit() {
    let input = temp_path("cmp4.blif");
    let output = temp_path("cmp4_dc.blif");
    assert!(lpopt(&["gen", "comparator", "4", &input]).0);
    let (ok, out, err) = lpopt(&["dontcare", &input, &output]);
    assert!(ok, "{err}");
    assert!(out.contains("nodes rewritten"));
    let a = lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let b =
        lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&output).unwrap()).unwrap();
    assert!(lowpower::sim::comb::equivalent_exhaustive(&a, &b));
}

#[test]
fn dontcare_step_budget_only_drops_the_witness() {
    let input = temp_path("cmp4_steps.blif");
    let free = temp_path("cmp4_steps_free.blif");
    let capped = temp_path("cmp4_steps_capped.blif");
    assert!(lpopt(&["gen", "comparator", "4", &input]).0);
    let (ok, _, err) = lpopt(&["dontcare", &input, &free]);
    assert!(ok, "{err}");
    // 2000 steps cannot afford the witness simulation, only the BDD pass.
    let (ok, out, err) = lpopt(&["--budget-steps=2000", "dontcare", &input, &capped]);
    assert!(ok, "{err}");
    assert!(!out.contains("budget exhausted"), "{out}");
    let read = |path: &str| std::fs::read_to_string(path).expect("dontcare wrote its output");
    assert_eq!(read(&capped), read(&free));
}

#[test]
fn dontcare_budget_too_small_for_the_first_build_fails_typed() {
    let input = temp_path("cmp4_budget.blif");
    let output = temp_path("cmp4_budget_dc.blif");
    let _ = std::fs::remove_file(&output);
    assert!(lpopt(&["gen", "comparator", "4", &input]).0);
    let (ok, _, err) = lpopt(&["--budget-nodes=4", "dontcare", &input, &output]);
    assert!(!ok);
    assert!(err.contains("dontcare: budget exceeded: BDD nodes"), "{err}");
    assert!(!std::path::Path::new(&output).exists(), "left {output}");
}

#[test]
fn rewrite_search_runs_and_preserves_function() {
    let input = temp_path("wal4.blif");
    let output = temp_path("wal4_rw.blif");
    assert!(lpopt(&["gen", "wallace", "4", &input]).0);
    let (ok, out, err) = lpopt(&["rewrite", &input, &output, "256"]);
    assert!(ok, "{err}");
    assert!(out.contains("chains accepted"), "{out}");
    assert!(out.contains("switched cap"), "{out}");
    let a = lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&input).unwrap()).unwrap();
    let b =
        lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&output).unwrap()).unwrap();
    assert!(lowpower::sim::comb::equivalent_exhaustive(&a, &b));
}

#[test]
fn map_reports_cover() {
    let input = temp_path("ks8.blif");
    assert!(lpopt(&["gen", "ksadder", "8", &input]).0);
    for objective in ["area", "delay", "power"] {
        let (ok, out, err) = lpopt(&["map", &input, objective]);
        assert!(ok, "{objective}: {err}");
        assert!(out.contains("cover:"), "{objective}: {out}");
    }
}

#[test]
fn jobs_flag_gives_identical_power_report() {
    let file = temp_path("mult5.blif");
    assert!(lpopt(&["gen", "multiplier", "5", &file]).0);
    let (ok, serial, err) = lpopt(&["power", &file, "256"]);
    assert!(ok, "{err}");
    for jobs in ["1", "2", "4", "8"] {
        let (ok, par, err) = lpopt(&["--jobs", jobs, "power", &file, "256"]);
        assert!(ok, "{err}");
        assert_eq!(par, serial, "jobs={jobs}");
    }
    // --jobs=N spelling too.
    let (ok, par, err) = lpopt(&["--jobs=3", "power", &file, "256"]);
    assert!(ok, "{err}");
    assert_eq!(par, serial);
    // Bad counts fail cleanly.
    let (ok, _, err) = lpopt(&["--jobs", "banana", "power", &file]);
    assert!(!ok);
    assert!(err.contains("bad thread count"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, _, err) = lpopt(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage"));
    let (ok, _, err) = lpopt(&[]);
    assert!(!ok);
    assert!(err.contains("missing command"));
    let (ok, _, err) = lpopt(&["gen", "unknown-kind", "4", "/tmp/x.blif"]);
    assert!(!ok);
    assert!(err.contains("unknown kind"));
}

#[test]
fn fsm_command_minimizes_encodes_and_synthesizes() {
    let kiss = temp_path("ctrl.kiss");
    let blif = temp_path("ctrl.blif");
    // A 5-state machine with one redundant state (d duplicates b).
    std::fs::write(
        &kiss,
        "
.i 1
.o 1
0 a b 0
1 a c 1
0 b a 1
1 b d 0
0 c a 0
1 c b 1
0 d a 1
1 d d 0
.e
",
    )
    .unwrap();
    let (ok, out, err) = lpopt(&["fsm", &kiss, &blif]);
    assert!(ok, "{err}");
    assert!(out.contains("states"), "{out}");
    assert!(out.contains("wrote"));
    // The synthesized netlist parses and validates.
    let nl = lowpower::netlist::blif::parse_text(&std::fs::read_to_string(&blif).unwrap()).unwrap();
    assert!(nl.num_dffs() > 0);
}

#[test]
fn malformed_blif_fails_with_one_line_diagnostic() {
    let bad = temp_path("malformed.blif");
    std::fs::write(&bad, ".model broken\n.names a b\n.garbage\n").unwrap();
    let (ok, out, err) = lpopt(&["stats", &bad]);
    assert!(!ok);
    assert!(out.is_empty(), "no partial stdout: {out}");
    assert!(err.contains("cannot parse"), "{err}");
    // A runtime failure is a single diagnostic line, not a usage dump.
    assert!(!err.contains("usage"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}

#[test]
fn missing_input_file_fails_cleanly() {
    let (ok, _, err) = lpopt(&["power", "/nonexistent/never/x.blif"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "{err}");
    assert!(!err.contains("usage"), "{err}");
}

#[test]
fn zero_cycle_stimulus_is_rejected() {
    let file = temp_path("zc.blif");
    assert!(lpopt(&["gen", "parity", "4", &file]).0);
    let (ok, _, err) = lpopt(&["power", &file, "0"]);
    assert!(!ok);
    assert!(err.contains("at least one"), "{err}");
    let (ok, _, err) = lpopt(&["fault", &file, "0"]);
    assert!(!ok);
    assert!(err.contains("at least one"), "{err}");
}

#[test]
fn failed_commands_leave_no_partial_output_file() {
    let bad = temp_path("bad_input.blif");
    std::fs::write(&bad, "not a netlist at all\n").unwrap();
    let out = temp_path("must_not_exist.blif");
    let _ = std::fs::remove_file(&out);
    for cmd in ["balance", "dontcare"] {
        let (ok, _, _) = lpopt(&[cmd, &bad, &out]);
        assert!(!ok, "{cmd}");
        assert!(!std::path::Path::new(&out).exists(), "{cmd} left {out}");
    }
    // An unwritable output directory fails without a stray temp file.
    let (ok, _, err) = lpopt(&["gen", "adder", "4", "/nonexistent-dir/x.blif"]);
    assert!(!ok);
    assert!(err.contains("cannot write"), "{err}");
}

#[test]
fn combinational_only_commands_reject_sequential_input() {
    // A one-latch toggle: the balance, don't-care, rewrite and mapping
    // passes take combinational logic only.
    let seq = temp_path("toggle.blif");
    std::fs::write(
        &seq,
        ".model toggle\n.inputs en\n.outputs q\n.latch q d 0\n.gate xor d q en\n.end\n",
    )
    .unwrap();
    for cmd in ["balance", "dontcare", "rewrite", "map"] {
        let out = temp_path(&format!("toggle_{cmd}.blif"));
        let _ = std::fs::remove_file(&out);
        let last = if cmd == "map" { "area" } else { out.as_str() };
        let output = Command::new(env!("CARGO_BIN_EXE_lpopt"))
            .args([cmd, &seq, last])
            .output()
            .expect("lpopt runs");
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{cmd}: {err}");
        assert!(output.stdout.is_empty(), "{cmd} wrote to stdout");
        assert_eq!(err.trim_end().lines().count(), 1, "{cmd}: {err}");
        assert!(!err.contains("panicked"), "{cmd}: {err}");
        assert!(err.contains("needs a combinational netlist"), "{cmd}: {err}");
        assert!(!std::path::Path::new(&out).exists(), "{cmd} left {out}");
    }
}

#[test]
fn budget_flags_degrade_power_estimation() {
    let file = temp_path("budget_mult.blif");
    assert!(lpopt(&["gen", "multiplier", "5", &file]).0);
    // Unlimited: full-fidelity event-driven estimate.
    let (ok, out, err) = lpopt(&["power", &file, "64"]);
    assert!(ok, "{err}");
    assert!(out.contains("estimator: event-driven"), "{out}");
    // A node + step budget forces the chain down to propagation, which
    // still answers (exit 0) and reports what was abandoned.
    let (ok, out, err) = lpopt(&[
        "--budget-nodes=64",
        "--budget-steps=2000",
        "power",
        &file,
        "64",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("estimator: probabilistic"), "{out}");
    assert!(out.contains("abandoned exact-bdd"), "{out}");
    assert!(out.contains("abandoned event-driven"), "{out}");
    // A budget too small for any tier is a typed failure, not a panic.
    let (ok, _, err) = lpopt(&["--budget-nodes=4", "--budget-steps=4", "power", &file]);
    assert!(!ok);
    assert!(err.contains("all estimation tiers exhausted"), "{err}");
    // Bad flag values get usage help.
    let (ok, _, err) = lpopt(&["--budget-steps", "many", "power", &file]);
    assert!(!ok);
    assert!(err.contains("bad value"), "{err}");
}

#[test]
fn power_supports_sequential_netlists_via_chain() {
    let kiss = temp_path("seqpow.kiss");
    let blif = temp_path("seqpow.blif");
    std::fs::write(&kiss, "\n.i 1\n.o 1\n0 a b 0\n1 a a 1\n0 b a 1\n1 b b 0\n.e\n")
        .unwrap();
    assert!(lpopt(&["fsm", &kiss, &blif]).0);
    let (ok, out, err) = lpopt(&["power", &blif, "128"]);
    assert!(ok, "{err}");
    assert!(out.contains("estimator:"), "{out}");
    assert!(out.contains("switching"), "{out}");
}

#[test]
fn fault_command_reports_coverage_and_respects_budget() {
    let file = temp_path("fault_add.blif");
    assert!(lpopt(&["gen", "adder", "4", &file]).0);
    let (ok, out, err) = lpopt(&["fault", &file, "64"]);
    assert!(ok, "{err}");
    assert!(out.contains("stuck-at campaign"), "{out}");
    assert!(out.contains("detected"), "{out}");
    // Deterministic across thread counts.
    let (_, again, _) = lpopt(&["--jobs", "4", "fault", &file, "64"]);
    assert_eq!(out, again);
    // SEU mode.
    let (ok, out, err) = lpopt(&["fault", &file, "64", "--seu", "50"]);
    assert!(ok, "{err}");
    assert!(out.contains("SEU sweep: 50 upsets"), "{out}");
    assert!(out.contains("propagated"), "{out}");
    // A starved step budget is a typed one-line failure.
    let (ok, _, err) = lpopt(&["--budget-steps", "10", "fault", &file, "64"]);
    assert!(!ok);
    assert!(err.contains("budget exceeded"), "{err}");
    assert!(!err.contains("usage"), "{err}");
}
