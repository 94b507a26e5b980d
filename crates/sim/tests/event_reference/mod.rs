//! A scalar event-driven simulator, the independent reference that the
//! window kernel of `sim::event::EventSim` is tested against. The sim
//! crate's unit and integration tests and the workspace's root tests
//! include this file as a module through `#[path]`; it is never part of
//! the library build.
//!
//! It runs one pattern at a time under the contract the kernel must meet
//! (DESIGN.md, "Event simulation"):
//!
//! * pending transitions apply in `(time, net)` order;
//! * the last value scheduled for a `(net, time)` pair wins;
//! * a net that changes has each of its fanout sinks evaluated through
//!   [`GateKind::eval`], and the result scheduled the sink's delay later.
//!
//! Pending transitions sit in one bucket per tick, in the order they were
//! scheduled; a stable sort by net puts a bucket in `(time, net)` order
//! with each net's last value last. The reference traces what the kernel
//! counts: transitions, settled-to-settled transitions and settled ones per
//! net, and the fanout visits behind the event counters.

#![allow(dead_code)]

use netlist::{GateKind, NetId, Netlist};

/// What one reference run traced.
#[derive(Debug)]
pub struct Trace {
    /// Transitions per net, spurious ones included.
    pub total: Vec<u64>,
    /// Settled-to-settled transitions per net.
    pub functional: Vec<u64>,
    /// Patterns after which each net settled at 1.
    pub ones: Vec<u64>,
    /// Fanout edges visited: one per sink of every transition.
    pub visits: u64,
    /// Transitions on gate outputs (inputs excluded).
    pub gate_toggles: u64,
    /// Patterns counted.
    pub cycles: usize,
}

impl Trace {
    /// Events processed (and enqueued): one per transition.
    pub fn processed(&self) -> u64 {
        self.total.iter().sum()
    }

    /// Fanout visits that made no gate transition.
    pub fn coalesced(&self) -> u64 {
        self.visits - self.gate_toggles
    }

    /// `counts` per cycle, as `ActivityProfile::toggles` holds them: over
    /// the `cycles - 1` transitions between patterns, at least one.
    fn per_cycle(&self, counts: &[u64]) -> Vec<f64> {
        let pairs = self.cycles.saturating_sub(1).max(1) as f64;
        counts.iter().map(|&c| c as f64 / pairs).collect()
    }

    /// Total toggles per cycle per net.
    pub fn total_rates(&self) -> Vec<f64> {
        self.per_cycle(&self.total)
    }

    /// Functional toggles per cycle per net.
    pub fn functional_rates(&self) -> Vec<f64> {
        self.per_cycle(&self.functional)
    }

    /// One-probability per net.
    pub fn probability(&self) -> Vec<f64> {
        let cycles = self.cycles.max(1) as f64;
        self.ones.iter().map(|&o| o as f64 / cycles).collect()
    }

    /// The `sim.event.*` counters a kernel run over the same stream
    /// reports, in snapshot (name) order. No event is cancelled.
    pub fn counters(&self) -> Vec<(String, u64)> {
        [
            ("cancelled", 0),
            ("coalesced", self.coalesced()),
            ("cycles", self.cycles as u64),
            ("enqueued", self.processed()),
            ("processed", self.processed()),
        ]
        .into_iter()
        .map(|(name, value)| (format!("sim.event.{name}"), value))
        .collect()
    }
}

/// The `sim.event.*` entries of a snapshot's counters.
pub fn event_counters(counters: &[(String, u64)]) -> Vec<(String, u64)> {
    counters
        .iter()
        .filter(|(name, _)| name.starts_with("sim.event."))
        .cloned()
        .collect()
}

/// Simulate `patterns` on the combinational netlist `nl` with `delays[i]`
/// ticks on net `i`. The stream starts from the settled state of `seed`,
/// or of `patterns[0]` when there is none, so that cycle 0 changes nothing
/// and counts only its ones.
///
/// # Panics
///
/// Panics if `nl` is cyclic or a delay is 0.
pub fn run(nl: &Netlist, delays: &[u32], seed: Option<&[bool]>, patterns: &[Vec<bool>]) -> Trace {
    assert!(delays.iter().all(|&d| d >= 1), "delays are at least 1");
    let n = nl.len();
    let fanouts = nl.fanouts();
    let mut trace = Trace {
        total: vec![0; n],
        functional: vec![0; n],
        ones: vec![0; n],
        visits: 0,
        gate_toggles: 0,
        cycles: patterns.len(),
    };
    let Some(first) = patterns.first() else {
        return trace;
    };
    let mut values = settle(nl, seed.unwrap_or(first));
    // `pending[t]`: the `(net, value)` transitions scheduled for tick `t`.
    let mut pending: Vec<Vec<(usize, bool)>> = vec![Vec::new()];
    let mut ins = Vec::new();
    for pattern in patterns {
        let before = values.clone();
        for (&pi, &value) in nl.inputs().iter().zip(pattern) {
            pending[0].push((pi.index(), value));
        }
        let mut time = 0;
        while time < pending.len() {
            let mut bucket = std::mem::take(&mut pending[time]);
            bucket.sort_by_key(|&(net, _)| net);
            for (k, &(net, value)) in bucket.iter().enumerate() {
                let superseded = bucket.get(k + 1).is_some_and(|&(next, _)| next == net);
                if superseded || values[net] == value {
                    continue;
                }
                values[net] = value;
                trace.total[net] += 1;
                if nl.kind(NetId::from_index(net)) != GateKind::Input {
                    trace.gate_toggles += 1;
                }
                for &sink in &fanouts[net] {
                    trace.visits += 1;
                    ins.clear();
                    ins.extend(nl.fanins(sink).iter().map(|f| values[f.index()]));
                    let at = time + delays[sink.index()] as usize;
                    if pending.len() <= at {
                        pending.resize_with(at + 1, Vec::new);
                    }
                    pending[at].push((sink.index(), nl.kind(sink).eval(&ins)));
                }
            }
            // Hand the bucket's buffer back for a later pattern.
            bucket.clear();
            pending[time] = bucket;
            time += 1;
        }
        for i in 0..n {
            trace.functional[i] += u64::from(before[i] != values[i]);
            trace.ones[i] += u64::from(values[i]);
        }
    }
    trace
}

/// Every net's settled value under `pattern`.
fn settle(nl: &Netlist, pattern: &[bool]) -> Vec<bool> {
    let mut values = vec![false; nl.len()];
    for (&pi, &value) in nl.inputs().iter().zip(pattern) {
        values[pi.index()] = value;
    }
    for net in nl.topo_order().expect("acyclic netlist") {
        let kind = nl.kind(net);
        if kind != GateKind::Input {
            let ins: Vec<bool> = nl.fanins(net).iter().map(|f| values[f.index()]).collect();
            values[net.index()] = kind.eval(&ins);
        }
    }
    values
}
