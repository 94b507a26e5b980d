//! Sequential logic optimization for low power (survey §III.C).
//!
//! * [`stg`] — the State Transition Graph substrate: stationary state
//!   probabilities, weighted edge activity, synthesis to a gate-level
//!   netlist under a chosen encoding.
//! * [`encoding`] — state assignment minimizing weighted flip-flop
//!   switching (\[35\]\[47\]) and re-encoding of existing machines (\[18\]).
//! * [`minimize`] — classic state minimization (partition refinement),
//!   run before encoding so the assignment doesn't pay for redundant
//!   states.
//! * [`retime`] — Leiserson–Saxe retiming (\[24\]) plus the low-power
//!   variant that positions registers to filter glitchy nodes (\[29\]).
//! * [`clockgate`] — gated clocks for idle registers (\[9\]) and FSM
//!   self-loop gating (\[4\]).
//! * [`precompute`] — the precomputation architecture of Fig. 1 (\[1\]\[30\]):
//!   derive load-disabling conditions by universal quantification and shut
//!   off the non-predictor registers.
//! * [`buscode`] — bus-invert and limited-weight bus codes (\[39\]).
//! * [`residue`] — one-hot residue arithmetic (\[11\]).

#![forbid(unsafe_code)]

// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod buscode;
pub mod clockgate;
pub mod encoding;
pub mod kiss;
pub mod minimize;
pub mod precompute;
pub mod residue;
pub mod retime;
pub mod stg;
