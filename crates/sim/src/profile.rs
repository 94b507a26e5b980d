//! Per-net switching-activity profiles.

use netlist::{NetId, Netlist};

/// Per-net activity measured (or estimated) over a stream of cycles.
///
/// `toggles[i]` is the average number of transitions per clock cycle on net
/// `i`; `probability[i]` is the fraction of time the net is 1. For
/// zero-delay profiles `toggles[i] ≤ 1`; for timing (event-driven) profiles
/// glitches can push it above 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    /// Average transitions per cycle per net.
    pub toggles: Vec<f64>,
    /// One-probability per net.
    pub probability: Vec<f64>,
    /// Number of cycles observed.
    pub cycles: usize,
}

impl ActivityProfile {
    /// An all-zero profile for `n` nets.
    pub fn zeros(n: usize) -> ActivityProfile {
        ActivityProfile {
            toggles: vec![0.0; n],
            probability: vec![0.0; n],
            cycles: 0,
        }
    }

    /// Average toggles per cycle on `net`.
    pub fn toggle_rate(&self, net: NetId) -> f64 {
        self.toggles[net.index()]
    }

    /// One-probability of `net`.
    pub fn prob(&self, net: NetId) -> f64 {
        self.probability[net.index()]
    }

    /// Sum of toggle rates over all nets (total transitions per cycle).
    pub fn total_toggles_per_cycle(&self) -> f64 {
        self.toggles.iter().sum()
    }

    /// Mean toggle rate across nets.
    pub fn avg_toggles_per_cycle(&self) -> f64 {
        if self.toggles.is_empty() {
            0.0
        } else {
            self.total_toggles_per_cycle() / self.toggles.len() as f64
        }
    }

    /// Capacitance-weighted switched capacitance per cycle:
    /// `Σ_i C_load(i) · toggles(i)` in fF per cycle.
    ///
    /// Uses the netlist's analytic load model (intrinsic cap + fanout pin
    /// caps). This is the `C·N` product of the survey's Eqn. (1).
    pub fn switched_capacitance(&self, nl: &Netlist) -> f64 {
        let fanouts = nl.fanouts();
        let mut total = 0.0;
        for net in nl.iter_nets() {
            let kind = nl.kind(net);
            let fanin = nl.fanins(net).len();
            let mut load = kind.intrinsic_cap(fanin);
            for &sink in &fanouts[net.index()] {
                load += nl.kind(sink).input_cap();
            }
            total += load * self.toggles[net.index()];
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;

    #[test]
    fn aggregate_measures() {
        let mut p = ActivityProfile::zeros(4);
        p.toggles = vec![0.5, 1.0, 0.0, 0.5];
        assert!((p.total_toggles_per_cycle() - 2.0).abs() < 1e-12);
        assert!((p.avg_toggles_per_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn switched_capacitance_weighs_fanout() {
        // Net with large fanout should contribute more than a leaf net at
        // the same toggle rate.
        let mut nl = Netlist::new("fanout");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let hub = nl.add_gate(GateKind::And, &[a, b]);
        let g1 = nl.add_gate(GateKind::Not, &[hub]);
        let g2 = nl.add_gate(GateKind::Not, &[hub]);
        let g3 = nl.add_gate(GateKind::Not, &[hub]);
        nl.mark_output(g1, "y1");
        nl.mark_output(g2, "y2");
        nl.mark_output(g3, "y3");

        let mut hub_only = ActivityProfile::zeros(nl.len());
        hub_only.toggles[hub.index()] = 1.0;
        let mut leaf_only = ActivityProfile::zeros(nl.len());
        leaf_only.toggles[g1.index()] = 1.0;
        assert!(hub_only.switched_capacitance(&nl) > leaf_only.switched_capacitance(&nl));
    }
}
