//! Gate-level netlist substrate for the low-power CAD framework.
//!
//! This crate provides the data structures every other crate in the workspace
//! builds on: a gate-level [`Netlist`] (a DAG of logic gates plus D
//! flip-flops), stable [`NetId`] handles, topological traversal, structural
//! validation, a BLIF-like text format ([`blif`]), procedural circuit
//! generators ([`gen`]) for the circuit classes the DAC'95 survey discusses
//! (adders, array multipliers, comparators, ALUs, random logic, FSM
//! datapaths), and a small deterministic PRNG ([`rng`]) so that library
//! results are reproducible and independent of external crate versions.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, GateKind};
//!
//! // Build f = (a & b) | c by hand.
//! let mut nl = Netlist::new("example");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let c = nl.add_input("c");
//! let ab = nl.add_gate(GateKind::And, &[a, b]);
//! let f = nl.add_gate(GateKind::Or, &[ab, c]);
//! nl.mark_output(f, "f");
//! assert_eq!(nl.num_inputs(), 3);
//! assert_eq!(nl.eval_comb(&[true, false, true])[0], true);
//! ```

#![forbid(unsafe_code)]

// Index-based loops are idiomatic for the parallel-array structures used
// throughout this EDA codebase.
#![allow(clippy::needless_range_loop)]

pub mod blif;
pub mod gate;
pub mod gen;
pub mod graph;
pub mod rng;
pub mod stats;

mod error;

pub use error::NetlistError;
pub use gate::GateKind;
pub use graph::{NetId, Netlist, Topology};
pub use rng::Rng64;
pub use stats::NetlistStats;
