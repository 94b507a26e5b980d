//! The static-timing model every arrival time in the workspace is computed
//! with: one gate-delay expression and one level-ordered cone re-timer.
//!
//! `circuit::sizing` times sized gates with them (its full arrival pass
//! and its incremental `StaCache`), and [`crate::incr::IncrementalSim`]
//! keeps unit-size arrival times resident with them. Because both go
//! through [`gate_delay`] and [`arrival_at`], and both re-time through
//! [`Retimer`], a resident arrival is bit-identical to a from-scratch
//! analysis of the same netlist and sizes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netlist::{GateKind, NetId, Netlist};

/// Load sensitivity of the gate delay (`γ`).
const GAMMA: f64 = 0.3;

/// Capacitive load a driver sees: one wire unit, half a wire unit per sink
/// pin, plus the sinks' summed input-pin capacitance `pin_cap`.
pub fn load(sinks: usize, pin_cap: f64) -> f64 {
    1.0 + 0.5 * sinks as f64 + pin_cap
}

/// Delay of a gate of `kind` with `fanin` inputs at size factor `size`
/// driving `sinks` pins of summed capacitance `pin_cap`:
/// `d0 · (1 + γ · load / size)`, with `d0` the kind's base delay and the
/// load from [`load`]. Sources take no time.
pub fn gate_delay(kind: GateKind, fanin: usize, size: f64, sinks: usize, pin_cap: f64) -> f64 {
    if kind.is_source() {
        return 0.0;
    }
    kind.base_delay(fanin) * (1.0 + GAMMA * load(sinks, pin_cap) / size)
}

/// Arrival time of a net with the given `fanins` and gate `delay`: the
/// latest fanin arrival (0 for sources) plus the delay.
pub fn arrival_at(fanins: &[NetId], arrival: &[f64], delay: f64) -> f64 {
    let input = fanins
        .iter()
        .map(|f| arrival[f.index()])
        .fold(0.0f64, f64::max);
    input + delay
}

/// Worst arrival over `nl`'s primary outputs (0 when it has none).
pub fn worst_arrival(nl: &Netlist, arrival: &[f64]) -> f64 {
    nl.outputs()
        .iter()
        .map(|(net, _)| arrival[net.index()])
        .fold(0.0f64, f64::max)
}

/// Level-ordered arrival propagation with a bitwise-equal cut-off.
///
/// A caller [`start`](Retimer::start)s a propagation, queues the nets
/// whose delay or fanins changed, and [`run`](Retimer::run)s it: queued
/// nets are recomputed lowest level first, and a net whose new arrival
/// equals the stored one bit for bit stops there, since nothing
/// downstream can move. Every other net is stored and its fanouts queued.
/// Each net is recomputed at most once per propagation.
#[derive(Debug, Default)]
pub struct Retimer {
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<u64>,
    epoch: u64,
}

impl Retimer {
    /// Begin a propagation over a netlist of `n` nets, with nothing queued.
    pub fn start(&mut self, n: usize) {
        self.epoch += 1;
        self.heap.clear();
        self.queued.resize(n, 0);
    }

    /// Queue net `idx` (at level `level`) unless it is already queued in
    /// this propagation.
    pub fn enqueue(&mut self, idx: usize, level: u32) {
        if self.queued[idx] != self.epoch {
            self.queued[idx] = self.epoch;
            self.heap.push(Reverse((level, idx as u32)));
        }
    }

    /// Recompute the queued nets in level order with `arrival_at(net,
    /// arrival)`. Each arrival that moves goes to `moved(net, old)` before
    /// it is stored, then the sinks `fanouts(net)` returns are queued.
    /// Returns the number of arrivals recomputed.
    pub fn run<'f>(
        &mut self,
        arrival: &mut [f64],
        levels: &[u32],
        fanouts: impl Fn(usize) -> &'f [NetId],
        arrival_at: impl Fn(usize, &[f64]) -> f64,
        mut moved: impl FnMut(usize, f64),
    ) -> u64 {
        let mut evals = 0;
        while let Some(Reverse((_, raw))) = self.heap.pop() {
            let idx = raw as usize;
            evals += 1;
            let a = arrival_at(idx, arrival);
            if a.to_bits() == arrival[idx].to_bits() {
                continue;
            }
            moved(idx, arrival[idx]);
            arrival[idx] = a;
            for &sink in fanouts(idx) {
                self.enqueue(sink.index(), levels[sink.index()]);
            }
        }
        evals
    }
}
