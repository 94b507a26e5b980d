//! Combinational logic optimization for low power (survey §III.A–B).
//!
//! * [`balance`] — path balancing: insert unit-delay buffers so converging
//!   path delays match, eliminating spurious transitions (§III.A.2,
//!   \[16\]\[25\]).
//! * [`factor`] — algebraic factoring / kernel extraction with either a
//!   literal-count (area) or switching-activity (power) cost function
//!   (§III.A.3, \[5\]\[35\]).
//! * [`dontcare`] — don't-care-based node optimization that re-biases node
//!   probabilities away from 0.5 to cut activity (§III.A.1, \[38\]\[19\]).
//! * [`mapping`] — tree-covering technology mapping onto a small cell
//!   library with area, delay and power cost functions (§III.B,
//!   \[20\]\[43\]\[48\]\[26\]).
//! * [`guard`] — guarded evaluation: freeze the inputs of subcircuits whose
//!   outputs are unobservable this cycle (§III.C.4, \[44\]).
//! * [`rewrite`] — activity-driven rewriting search: resubstitution,
//!   kernel/cube extraction and don't-care rewrites as one move pool,
//!   searched greedily with lookahead over a resident incremental
//!   simulator's live switched capacitance under an equal-delay guard.
//! * [`twolevel`] — espresso-lite two-level minimization with don't-cares,
//!   the foundation the node-level passes and FSM synthesis build on.

#![forbid(unsafe_code)]
// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod balance;
pub mod dontcare;
pub mod factor;
pub mod guard;
pub mod mapping;
pub mod rewrite;
pub mod twolevel;
