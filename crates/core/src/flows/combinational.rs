//! Combinational low-power flow: optional activity-driven rewriting
//! search, don't-care optimization, then path balancing, with power
//! measured by event-driven (glitch-aware) timing simulation before and
//! after. Each pass runs through its one driver under an unlimited budget,
//! and each side is measured with one `EventSim` run over the same
//! stimulus.

use budget::ResourceBudget;
use logicopt::balance::balance_paths;
use logicopt::dontcare::{try_optimize_dontcares, Mode};
use logicopt::rewrite::{try_rewrite_sim, RewriteConfig};
use netlist::Netlist;
use power::exact::CircuitBddCache;
use power::model::{PowerParams, PowerReport};
use sim::comb::CombSim;
use sim::event::{DelayModel, EventSim};
use sim::stimulus::{PackedPatterns, PatternSet, Stimulus};

/// Configuration of the combinational flow.
#[derive(Debug, Clone)]
pub struct CombFlowConfig {
    /// Path-balancing skew threshold (0 = full balancing).
    pub balance_threshold: usize,
    /// Run the (BDD-based) don't-care pass; practical up to ~16 inputs.
    pub dontcares: bool,
    /// Run the activity-driven rewriting search (resubstitution, kernel
    /// extraction and don't-care moves judged by live switched
    /// capacitance) before the other passes; practical up to ~16 inputs.
    pub rewrite: bool,
    /// Maximum node fanin considered by the don't-care pass.
    pub dontcare_max_fanin: usize,
    /// Simulation cycles for power measurement.
    pub cycles: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Technology parameters.
    pub params: PowerParams,
    /// Observability handle; per-pass spans, rewrite counters and
    /// before/after power gauges are recorded when enabled.
    pub obs: obs::Obs,
}

impl Default for CombFlowConfig {
    fn default() -> CombFlowConfig {
        CombFlowConfig {
            balance_threshold: 0,
            dontcares: false,
            rewrite: false,
            dontcare_max_fanin: 5,
            cycles: 512,
            seed: 42,
            params: PowerParams::default(),
            obs: obs::Obs::disabled(),
        }
    }
}

/// Result of the combinational flow.
#[derive(Debug)]
pub struct CombFlowResult {
    /// The optimized netlist.
    pub netlist: Netlist,
    /// Power of the input circuit under glitch-aware simulation.
    pub baseline_power: PowerReport,
    /// Power of the optimized circuit under the same stimulus.
    pub optimized_power: PowerReport,
    /// Glitch fraction before optimization.
    pub glitch_fraction_before: f64,
    /// Glitch fraction after optimization.
    pub glitch_fraction_after: f64,
    /// Buffers inserted by balancing.
    pub buffers_added: usize,
    /// Nodes rewritten by the don't-care pass.
    pub dontcare_rewrites: usize,
    /// Move chains accepted by the rewriting search.
    pub rewrite_chains: usize,
}

/// Power and glitch fraction of `nl` from one unit-delay `EventSim` run
/// over `patterns`.
fn measure(nl: &Netlist, patterns: &PatternSet, config: &CombFlowConfig) -> (PowerReport, f64) {
    let timing = EventSim::new(nl, &DelayModel::Unit)
        .with_obs(config.obs.clone())
        .activity(patterns);
    let report = PowerReport::from_activity(nl, &timing.total, &config.params);
    (report, timing.glitch_fraction())
}

/// Run the flow on a combinational netlist.
///
/// The passes run in order: the rewriting search when
/// [`CombFlowConfig::rewrite`] is set, the don't-care pass when
/// [`CombFlowConfig::dontcares`] is set, then path balancing at
/// [`CombFlowConfig::balance_threshold`]. The result is functionally
/// equivalent to the input (verified internally on a prefix of the
/// measurement stimulus).
///
/// # Panics
///
/// Panics if the netlist is sequential, or if an internal pass ever breaks
/// equivalence (which would be a bug).
pub fn optimize(nl: &Netlist, config: &CombFlowConfig) -> CombFlowResult {
    assert!(nl.is_combinational(), "combinational flow");
    let obs = &config.obs;
    let flow_span = obs.span("flow.comb");
    let unlimited = ResourceBudget::unlimited();

    // One stimulus for both measurements and the rewrite search.
    let patterns = Stimulus::uniform(nl.num_inputs()).patterns(config.cycles, config.seed);

    let span = obs.span("pass.measure-baseline");
    let (baseline_power, glitch_before) = measure(nl, &patterns, config);
    span.close();

    let span = obs.span("pass.rewrite");
    let (after_rw, rewrite_chains) = if config.rewrite {
        let probs = vec![0.5; nl.num_inputs()];
        let rw_cfg = RewriteConfig {
            max_fanin: config.dontcare_max_fanin,
            obs: obs.clone(),
            ..RewriteConfig::default()
        };
        let packed = PackedPatterns::pack(&patterns);
        let (opt, report) = try_rewrite_sim(nl, &probs, &packed, &unlimited, &rw_cfg)
            .expect("unlimited budget");
        (opt, report.chains_accepted)
    } else {
        (nl.clone(), 0)
    };
    span.close();
    obs.add("flow.comb.rewrite_chains", rewrite_chains as u64);

    let span = obs.span("pass.dontcare");
    let (after_dc, dc_rewrites) = if config.dontcares {
        let probs = vec![0.5; nl.num_inputs()];
        let mut cache = CircuitBddCache::new();
        let (opt, report) = try_optimize_dontcares(
            &after_rw,
            &probs,
            Mode::FanoutAware,
            config.dontcare_max_fanin,
            &mut cache,
            &unlimited,
        )
        .expect("unlimited budget");
        (opt, report.nodes_changed)
    } else {
        (after_rw, 0)
    };
    span.close();
    obs.add("flow.comb.dontcare_rewrites", dc_rewrites as u64);

    let span = obs.span("pass.balance");
    let (balanced, balance) = balance_paths(&after_dc, config.balance_threshold);
    span.close();
    obs.add("flow.comb.buffers_added", balance.buffers_added as u64);

    // Safety net: the flow must preserve function.
    let span = obs.span("pass.equiv-check");
    let check = Stimulus::uniform(nl.num_inputs()).patterns(config.cycles.min(256), config.seed);
    assert_eq!(
        CombSim::new(nl).equivalent_on(&balanced, &check),
        None,
        "flow broke functional equivalence"
    );
    span.close();

    let span = obs.span("pass.measure-optimized");
    let (optimized_power, glitch_after) = measure(&balanced, &patterns, config);
    span.close();

    obs.gauge_set("flow.comb.power.before", baseline_power.total());
    obs.gauge_set("flow.comb.power.after", optimized_power.total());
    obs.gauge_set("flow.comb.glitch.before", glitch_before);
    obs.gauge_set("flow.comb.glitch.after", glitch_after);
    flow_span.close();
    CombFlowResult {
        netlist: balanced,
        baseline_power,
        optimized_power,
        glitch_fraction_before: glitch_before,
        glitch_fraction_after: glitch_after,
        buffers_added: balance.buffers_added,
        dontcare_rewrites: dc_rewrites,
        rewrite_chains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, ripple_adder};

    #[test]
    fn flow_removes_glitches_on_multiplier() {
        let (nl, _) = array_multiplier(4);
        let result = optimize(&nl, &CombFlowConfig::default());
        assert!(result.glitch_fraction_before > 0.1);
        assert!(result.glitch_fraction_after < 1e-9);
        assert!(result.buffers_added > 0);
    }

    #[test]
    fn flow_with_dontcares_runs_on_small_circuits() {
        let (nl, _) = ripple_adder(3);
        let config = CombFlowConfig {
            dontcares: true,
            ..CombFlowConfig::default()
        };
        let result = optimize(&nl, &config);
        // Equivalence is asserted inside; power numbers must exist.
        assert!(result.baseline_power.total() > 0.0);
        assert!(result.optimized_power.total() > 0.0);
    }

    #[test]
    fn flow_publishes_pass_spans_and_power_gauges() {
        let (nl, _) = ripple_adder(3);
        let obs = obs::Obs::enabled();
        let config = CombFlowConfig {
            obs: obs.clone(),
            ..CombFlowConfig::default()
        };
        let result = optimize(&nl, &config);
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "flow.comb",
            "pass.measure-baseline",
            "pass.rewrite",
            "pass.dontcare",
            "pass.balance",
            "pass.equiv-check",
            "pass.measure-optimized",
        ] {
            assert!(names.contains(&expected), "missing span {expected}");
        }
        assert_eq!(
            snap.gauge("flow.comb.power.before"),
            Some(result.baseline_power.total())
        );
        assert_eq!(
            snap.gauge("flow.comb.power.after"),
            Some(result.optimized_power.total())
        );
        assert_eq!(
            snap.counter("flow.comb.buffers_added"),
            Some(result.buffers_added as u64)
        );
        // The event-driven measurement sims publish through the same handle.
        assert!(snap.counter("sim.event.processed").unwrap_or(0) > 0);
    }

    #[test]
    fn flow_with_rewrite_search_preserves_function() {
        let (nl, _) = ripple_adder(3);
        let config = CombFlowConfig {
            rewrite: true,
            dontcares: true,
            ..CombFlowConfig::default()
        };
        let result = optimize(&nl, &config);
        // Equivalence is asserted inside the flow; the reports must exist.
        assert!(result.baseline_power.total() > 0.0);
        assert!(result.optimized_power.total() > 0.0);
    }

    #[test]
    fn selective_balancing_inserts_fewer_buffers() {
        let (nl, _) = array_multiplier(4);
        let full = optimize(&nl, &CombFlowConfig::default());
        let partial = optimize(
            &nl,
            &CombFlowConfig {
                balance_threshold: 3,
                ..CombFlowConfig::default()
            },
        );
        assert!(partial.buffers_added < full.buffers_added);
        assert!(partial.glitch_fraction_after >= full.glitch_fraction_after);
    }
}
