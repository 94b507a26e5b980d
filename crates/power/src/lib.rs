//! CMOS power models and switching-activity estimators.
//!
//! Implements the survey's Eqn. (1),
//!
//! ```text
//! P = 1/2 · C · V_DD² · f · N  +  Q_SC · V_DD · f · N  +  I_leak · V_DD
//! ```
//!
//! as [`model::PowerReport`], plus the estimation techniques the survey's
//! optimization passes rely on:
//!
//! * [`exact`] — exact signal probabilities via global BDDs (the basis for
//!   don't-care optimization and precomputation analysis);
//! * [`prob`] — fast correlation-free probability/activity propagation,
//!   with a fixpoint iteration for sequential feedback;
//! * [`density`] — transition-density propagation through Boolean
//!   differences (Najm-style, cited in the survey as \[31\]);
//! * [`macro_model`] — architecture-level per-module capacitance models
//!   (PFA-style \[15\], activity-weighted \[21\]\[22\], isolated-average \[36\]);
//! * [`order`] — netlist-seeded BDD variable orders (fanin-DFS, FORCE)
//!   and the exact tier's dynamic-reorder policy;
//! * [`estimate`] — sequential power under user-specified input sequences
//!   (\[28\]): measured vs sequence-aware vs workload-blind.
//! * [`chain`] — graceful degradation across the estimators: exact BDD →
//!   probabilistic propagation → sampled simulation, falling back
//!   automatically when a [`budget::ResourceBudget`] is exhausted and
//!   tagging the answer with the tier that produced it.
//!
//! # Example
//!
//! ```
//! use netlist::gen::ripple_adder;
//! use sim::{comb::CombSim, stimulus::Stimulus};
//! use power::model::{PowerParams, PowerReport};
//!
//! let (nl, _) = ripple_adder(8);
//! let activity = CombSim::new(&nl).activity(&Stimulus::uniform(16).patterns(512, 1));
//! let report = PowerReport::from_activity(&nl, &activity, &PowerParams::default());
//! // In well-designed CMOS, switching dominates (survey §I: > 90%).
//! assert!(report.switching_fraction() > 0.9);
//! ```

#![forbid(unsafe_code)]

pub mod chain;
pub mod density;
pub mod estimate;
pub mod exact;
pub mod macro_model;
pub mod model;
pub mod order;
pub mod prob;
