//! Experiment harness regenerating every quantitative exhibit (E1–E20) of
//! the survey reproduction. Each experiment is a pure function returning
//! its report as text; the `exp_*` binaries print them, `exp_all` prints
//! the full suite ([`all_exhibits`]), `tests/exhibits.rs` pins that to
//! the committed `experiments_output.txt`, and `EXPERIMENTS.md` records
//! the measured numbers against the paper's claims. [`harness`] holds the
//! timers and plumbing the `BENCH_*` regression binaries share.

#![forbid(unsafe_code)]

// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

use std::fmt::Write as _;

pub mod exps;
pub mod harness;
pub mod table;

/// One registered experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Every exhibit's report in exhibit order, each under a banner naming it:
/// what `exp_all` prints and `experiments_output.txt` records.
pub fn all_exhibits() -> String {
    let rule = "=".repeat(66);
    let mut out = String::new();
    for (id, title, run) in all_experiments() {
        let _ = writeln!(out, "{rule}\n{id}: {title}\n{rule}\n{}", run());
    }
    out
}

/// All experiments, in exhibit order.
pub fn all_experiments() -> Vec<Experiment> {
    use exps::*;
    vec![
        ("E1", "Power decomposition: switching > 90%", foundation::power_breakdown),
        ("E2", "Precomputation comparator (Fig. 1)", logic_seq::precomputation),
        ("E3", "Spurious-transition fraction (10-40%)", logic_comb::glitch_fraction),
        ("E4", "Path balancing buffer/glitch tradeoff", logic_comb::path_balance),
        ("E5", "Transistor reordering", circuit_level::reorder),
        ("E6", "Slack-based transistor sizing", circuit_level::sizing),
        ("E7", "Don't-care optimization", logic_comb::dontcare),
        ("E8", "Power-aware kernel extraction", logic_comb::factoring),
        ("E9", "Technology mapping objectives", logic_comb::techmap),
        ("E10", "Low-power state encoding", logic_seq::state_encoding),
        ("E11", "Retiming for low power", logic_seq::retiming),
        ("E12", "Gated clocks / guarded evaluation", logic_seq::clock_gating),
        ("E13", "Bus-invert and limited-weight codes", logic_seq::bus_coding),
        ("E14", "Transformations + voltage scaling", arch::voltage_scaling),
        ("E15", "Module selection & binding", arch::binding),
        ("E16", "Memory traversal power", arch::memory),
        ("E17", "Instruction-level energy: codegen", software::sw_energy),
        ("E18", "Instruction scheduling: DSP vs CPU", software::sw_scheduling),
        ("E19", "One-hot residue arithmetic", logic_seq::residue),
        ("E20", "Architecture-level estimation accuracy", foundation::arch_estimation),
        ("EA", "Ablations of framework design choices", ablations::ablations),
    ]
}
