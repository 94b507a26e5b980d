//! Behavioral (architecture-level) synthesis for low power (survey §IV).
//!
//! * [`dfg`] — the data-flow-graph substrate plus generators for the DSP
//!   kernels the survey's behavioral papers evaluate (FIR, biquad, random
//!   expression DAGs) and a value-trace evaluator for correlation-aware
//!   cost functions.
//! * [`sched`] — ASAP/ALAP/mobility analysis and resource-constrained list
//!   scheduling.
//! * [`modsel`] — module selection over a power/delay library (\[17\]).
//! * [`binding`] — functional-unit binding minimizing switched
//!   capacitance, accounting for operand correlations (\[33\]\[34\]).
//! * [`regbind`] — register binding: left-edge minimum-register
//!   allocation plus the activity-aware occupant assignment.
//! * [`transform`] — concurrency transformations enabling supply-voltage
//!   scaling at fixed throughput (\[7\]\[10\]): the quadratic power win that
//!   "can compensate for the additional capacitance introduced".
//! * [`memory`] — loop reordering for memory power (\[14\]): off-chip
//!   accesses dominate; bigger memories switch more capacitance per
//!   access.

#![forbid(unsafe_code)]

// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod binding;
pub mod dfg;
pub mod memory;
pub mod modsel;
pub mod regbind;
pub mod sched;
pub mod transform;
