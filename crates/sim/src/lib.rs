//! Simulation engines for switching-activity measurement.
//!
//! Three engines, matching the needs of the survey's experiments:
//!
//! * [`comb`] — 64-way bit-parallel **zero-delay** functional simulation.
//!   Counts *functional* transitions (value changes between settled
//!   states); this is the activity a glitch-free circuit would exhibit.
//! * [`event`] — **event-driven timing** simulation with per-gate delays.
//!   Counts *all* transitions including the spurious ones (glitches) that
//!   §III.A.2 of the survey attributes 10–40% of switching power to.
//! * [`seq`] — cycle-based **sequential** simulation of netlists with
//!   flip-flops (with load-enable support for gated-clock and
//!   precomputation architectures), counting toggles at register inputs
//!   and outputs separately (the observation behind low-power retiming).
//!
//! [`stimulus`] provides the input-pattern sources: uniform, biased,
//! temporally correlated and counting streams. [`sta`] is the static-timing
//! model (gate delay and cone re-timer) that transistor sizing and the
//! incremental engine of [`incr`] share.
//!
//! # Example
//!
//! ```
//! use netlist::gen::ripple_adder;
//! use sim::{comb::CombSim, stimulus::Stimulus};
//!
//! let (nl, _) = ripple_adder(8);
//! let patterns = Stimulus::uniform(16).patterns(256, 7);
//! let activity = CombSim::new(&nl).activity(&patterns);
//! assert!(activity.avg_toggles_per_cycle() > 0.0);
//! ```

#![forbid(unsafe_code)]
// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod comb;
pub mod event;
pub mod fault;
pub mod incr;
pub mod par;
pub mod seq;
pub mod sta;
pub mod stimulus;
pub mod wide;

mod profile;

pub use profile::ActivityProfile;
