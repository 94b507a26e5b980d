//! `lowpower` — the facade crate of the low-power CAD framework.
//!
//! This workspace reproduces, as a working system, every optimization
//! technique surveyed in *"A Survey of Optimization Techniques Targeting
//! Low Power VLSI Circuits"* (Devadas & Malik, DAC 1995). The facade
//! re-exports the per-level crates and adds end-to-end [`flows`] that chain
//! passes the way a synthesis system would.
//!
//! | Abstraction level | Crate | Techniques |
//! |---|---|---|
//! | circuit (§II) | [`circuit`] | transistor reordering, slack-based sizing |
//! | logic, combinational (§III.A–B) | [`logicopt`] | don't-cares, path balancing, factoring, technology mapping, guarded evaluation |
//! | logic, sequential (§III.C) | [`seqopt`] | state encoding, retiming, gated clocks, precomputation, bus codes, one-hot residue |
//! | architecture (§IV) | [`behav`] | scheduling, module selection, binding, voltage scaling, memory transformations |
//! | system/software (§V) | [`soft`] | instruction-level energy, codegen, scheduling, pairing |
//! | substrates | [`netlist`], [`bdd`], [`sim`], [`power`] | netlist infra, BDDs, simulation, power models |
//!
//! # Quickstart
//!
//! ```
//! use lowpower::flows::combinational::{optimize, CombFlowConfig};
//! use lowpower::netlist::gen::array_multiplier;
//!
//! let (mult, _) = array_multiplier(4);
//! let result = optimize(&mult, &CombFlowConfig::default());
//! // Path balancing eliminates the multiplier's spurious transitions.
//! assert!(result.glitch_fraction_before > 0.1);
//! assert!(result.glitch_fraction_after < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub use bdd;
pub use behav;
pub use budget;
pub use circuit;
pub use logicopt;
pub use netlist;
pub use obs;
pub use power;
pub use seqopt;
pub use serve;
pub use sim;
pub use soft;

pub mod flows;
pub mod par;
