//! Circuit-level optimization (survey §II).
//!
//! Two techniques:
//!
//! * [`reorder`] — placement of transistors within a complex CMOS gate's
//!   series stack: late-arriving signals go near the output for delay,
//!   low-ON-probability signals go near the rail to quiet the internal
//!   parasitic nodes (§II.A, refs \[32\]\[42\]).
//! * [`sizing`] — slack-based transistor sizing: downsize every gate whose
//!   slack allows it until slack hits zero or the transistors reach minimum
//!   size, trading delay margin for power (§II.B, refs \[42\]\[3\]).

#![forbid(unsafe_code)]

pub mod reorder;
pub mod sizing;
