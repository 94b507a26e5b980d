//! System/software-level power (survey §V).
//!
//! The survey's software section rests on instruction-level power models
//! measured on real CPUs (\[46\], Tiwari et al.): each instruction has a
//! base energy cost, consecutive instructions add a *circuit-state
//! overhead* that depends on how different they are, and memory operands
//! cost far more than register operands. From those observations follow
//! the three software claims reproduced here:
//!
//! * **faster code almost always implies lower energy code** — fewer
//!   cycles, fewer base costs (\[45\]\[46\]);
//! * **register allocation matters** — register operands are much cheaper
//!   than memory operands (\[46\]);
//! * **instruction scheduling matters on small DSPs but not on large
//!   CPUs** — the circuit-state overhead is a large fraction of a DSP's
//!   per-instruction energy and a small one of a big CPU's (\[40\]\[23\]\[46\]).
//!
//! * [`isa`] — the small load/store ISA + cycle-accurate machine.
//! * [`energy`] — instruction-level energy models (big CPU vs DSP).
//! * [`codegen`] — expression compilation, memory-stack vs
//!   register-allocated (Sethi–Ullman).
//! * [`schedule`] — low-power instruction scheduling and DSP pairing.

#![forbid(unsafe_code)]

pub mod codegen;
pub mod energy;
pub mod isa;
pub mod programs;
pub mod schedule;
