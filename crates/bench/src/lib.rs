//! Experiment harness regenerating every quantitative exhibit (E1–E20) of
//! the survey reproduction. Each experiment is a pure function returning
//! its report as text; the `exp_*` binaries print them, `exp_all` runs the
//! full suite, and `EXPERIMENTS.md` records the measured numbers against
//! the paper's claims. [`harness`] holds the timers and plumbing the
//! `BENCH_*` regression binaries share.

#![forbid(unsafe_code)]

// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod exps;
pub mod harness;
pub mod table;

/// One registered experiment: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

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

#[cfg(test)]
mod tests {
    #[test]
    fn every_experiment_runs_and_reports() {
        for (id, title, run) in super::all_experiments() {
            let report = run();
            assert!(!report.trim().is_empty(), "{id} {title}: empty report");
            assert!(report.contains(id), "{id}: report should carry its id");
        }
    }
}
