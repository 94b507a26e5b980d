//! Reproduction harness for *"A Survey of Optimization Techniques
//! Targeting Low Power VLSI Circuits"* (Devadas & Malik, DAC 1995).
//!
//! This root package hosts the runnable examples and the cross-crate
//! integration tests; the library functionality lives in the workspace
//! crates, re-exported here through [`lowpower`].
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every exhibit.

#![forbid(unsafe_code)]

pub use lowpower::*;
