//! Slack-based transistor sizing under a delay constraint (survey §II.B).
//!
//! Each gate gets a continuous size factor `s ≥ 1` (1 = minimum size).
//! Bigger gates drive their load faster but present more input capacitance
//! to their fanins and switch more capacitance themselves:
//!
//! * gate delay: `d = d0 · (1 + γ · load / s)` where
//!   `load = Σ sink pin caps (scaled by sink size) + wire`, the one delay
//!   model of [`sim::sta`] (which the incremental engine times with too),
//! * switched capacitance: `(intrinsic·s + load)` per toggle.
//!
//! The survey's recipe (\[42\]\[3\]): compute slack at every gate; while some
//! gate has positive slack, shrink it until slack reaches zero or minimum
//! size. [`SizedCircuit::downsize_for_power`] implements that recipe from
//! an all-large start; TILOS-style upsizing of critical gates under a
//! violated constraint is not implemented.

use netlist::{NetId, Netlist, Topology};
use power::model::{PowerParams, PowerReport};
use sim::incr::{Journal, Mark};
use sim::sta::{self, Retimer};
use sim::ActivityProfile;

/// A netlist with per-gate continuous size factors and timing/power views.
#[derive(Debug)]
pub struct SizedCircuit<'a> {
    nl: &'a Netlist,
    /// Order, levels and fanouts from one [`Netlist::topology`] pass.
    topo: Topology,
    /// Size factor per net (1.0 = minimum size; sources stay 1.0).
    pub sizes: Vec<f64>,
}

/// Timing snapshot of a sized circuit.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Arrival time per net.
    pub arrival: Vec<f64>,
    /// Slack per net (against the constraint used to compute it).
    pub slack: Vec<f64>,
    /// Worst arrival over primary outputs (critical delay).
    pub critical: f64,
}

impl<'a> SizedCircuit<'a> {
    /// Wrap a combinational netlist with all gates at the maximum size
    /// `initial_size` (the "fast but hot" starting point the downsizing
    /// pass then relaxes).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or cyclic.
    pub fn new(nl: &'a Netlist, initial_size: f64) -> SizedCircuit<'a> {
        assert!(nl.is_combinational(), "sizing operates on combinational logic");
        let topo = nl.topology().expect("acyclic");
        let sizes = nl
            .iter_nets()
            .map(|net| {
                if nl.kind(net).is_source() {
                    1.0
                } else {
                    initial_size.max(1.0)
                }
            })
            .collect();
        SizedCircuit { nl, topo, sizes }
    }

    /// Summed input-pin capacitance of `net`'s sinks, each scaled by the
    /// sink's size.
    fn pin_cap(&self, net: NetId) -> f64 {
        self.topo
            .fanouts(net)
            .iter()
            .map(|&sink| self.nl.kind(sink).input_cap() * self.sizes[sink.index()])
            .sum::<f64>()
    }

    fn gate_delay(&self, net: NetId) -> f64 {
        let sinks = self.topo.fanouts(net).len();
        let (kind, size) = (self.nl.kind(net), self.sizes[net.index()]);
        sta::gate_delay(kind, self.nl.fanins(net).len(), size, sinks, self.pin_cap(net))
    }

    /// `net`'s arrival time given its fanins' arrivals. Every timing view
    /// (full or incremental) uses this one expression — same fanin order,
    /// same `max` fold — so they agree bit for bit.
    fn arrival_at(&self, net: NetId, arrival: &[f64]) -> f64 {
        sta::arrival_at(self.nl.fanins(net), arrival, self.gate_delay(net))
    }

    /// Arrival time of every net (sources arrive at 0), in one
    /// topological pass.
    fn arrivals(&self) -> Vec<f64> {
        let mut arrival = vec![0.0f64; self.nl.len()];
        for &net in self.topo.order() {
            if !self.nl.kind(net).is_source() {
                arrival[net.index()] = self.arrival_at(net, &arrival);
            }
        }
        arrival
    }

    /// Worst arrival over primary outputs.
    fn worst_output(&self, arrival: &[f64]) -> f64 {
        sta::worst_arrival(self.nl, arrival)
    }

    /// Static timing analysis against a required time `constraint` at every
    /// primary output.
    pub fn timing(&self, constraint: f64) -> Timing {
        let n = self.nl.len();
        let arrival = self.arrivals();
        let critical = self.worst_output(&arrival);
        // Required times propagate backwards.
        let mut required = vec![f64::INFINITY; n];
        for (net, _) in self.nl.outputs() {
            required[net.index()] = constraint;
        }
        for &net in self.topo.order().iter().rev() {
            let r = required[net.index()];
            if r.is_finite() {
                let own = self.gate_delay(net);
                for &fi in self.nl.fanins(net) {
                    required[fi.index()] = required[fi.index()].min(r - own);
                }
            }
        }
        let slack = (0..n)
            .map(|i| {
                if required[i].is_finite() {
                    required[i] - arrival[i]
                } else {
                    constraint - arrival[i]
                }
            })
            .collect();
        Timing {
            arrival,
            slack,
            critical,
        }
    }

    /// Switched capacitance per cycle under `activity`, honoring sizes.
    pub fn switched_capacitance(&self, activity: &ActivityProfile) -> f64 {
        let mut total = 0.0;
        for net in self.nl.iter_nets() {
            let kind = self.nl.kind(net);
            let intrinsic = kind.intrinsic_cap(self.nl.fanins(net).len());
            let load = sta::load(self.topo.fanouts(net).len(), self.pin_cap(net));
            let cap = intrinsic * self.sizes[net.index()] + load;
            total += cap * activity.toggles[net.index()];
        }
        total
    }

    /// Full power report under `activity`.
    pub fn power(&self, activity: &ActivityProfile, params: &PowerParams) -> PowerReport {
        let cap = self.switched_capacitance(activity);
        let transitions: f64 = activity.toggles.iter().sum();
        PowerReport::from_raw(self.nl, cap, transitions, params)
    }

    /// Downsize gates with positive slack until every gate is at zero slack
    /// or minimum size (the survey's §II.B recipe). Returns the number of
    /// gates changed.
    ///
    /// `constraint` is the required arrival time at the outputs; if the
    /// circuit cannot meet it even fully upsized, the pass leaves the
    /// critical path at maximum size and shrinks the rest.
    pub fn downsize_for_power(&mut self, constraint: f64) -> usize {
        let mut sta = self.sta_cache();
        self.downsize_for_power_with(constraint, &mut sta)
    }

    /// [`SizedCircuit::downsize_for_power`] over a caller-owned
    /// [`StaCache`] (so a driver alternating passes keeps one cache, and
    /// the bench harness can read the trial counters afterwards).
    pub fn downsize_for_power_with(&mut self, constraint: f64, sta: &mut StaCache) -> usize {
        let mut changed = 0;
        // Iterate: shrink in small steps, most-slack-first, roll back on
        // violation. Converges because sizes only decrease.
        let shrink = 0.8;
        let mut progress = true;
        while progress {
            progress = false;
            let timing = self.timing(constraint);
            // Candidate gates sorted by slack, largest first.
            let mut candidates: Vec<NetId> = self
                .nl
                .iter_nets()
                .filter(|&net| {
                    !self.nl.kind(net).is_source()
                        && self.sizes[net.index()] > 1.0
                        && timing.slack[net.index()] > 1e-9
                })
                .collect();
            candidates.sort_by(|&a, &b| {
                timing.slack[b.index()]
                    .partial_cmp(&timing.slack[a.index()])
                    .expect("finite slack")
            });
            // One live mark per pass: a rejected shrink unwinds to it, an
            // accepted one is committed and the mark re-taken past it.
            let mut mark = sta.checkpoint();
            for net in candidates {
                let old = self.sizes[net.index()];
                let candidate = (old * shrink).max(1.0);
                let critical = sta.resize(self, net, candidate);
                if critical <= constraint + 1e-9 {
                    changed += 1;
                    progress = true;
                    sta.commit(mark);
                    mark = sta.checkpoint();
                } else {
                    sta.rollback_to(self, mark);
                }
            }
            sta.commit(mark);
        }
        changed
    }

    /// Build an incremental-STA cache holding the current arrival times.
    /// It starts in force-full mode when `LPOPT_INCR_STRESS` is set (see
    /// [`StaCache::set_force_full`]).
    pub fn sta_cache(&self) -> StaCache {
        StaCache {
            arrival: self.arrivals(),
            levels: self.topo.levels().to_vec(),
            retimer: Retimer::default(),
            journal: Journal::default(),
            force_full: sim::incr::stress_env(),
            trials: 0,
            arrival_evals: 0,
        }
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }
}

/// Incremental static timing for sizing trials.
///
/// Resizing one gate changes its own delay and (through the load term) its
/// fanins' delays; everything else moves only via arrival propagation. The
/// cache keeps the last arrival times resident, re-evaluates the affected
/// cone in level order through [`sim::sta::Retimer`], and stops wherever a
/// recomputed arrival is bit-identical to the stored one — so a shrink
/// trial on a gate with small downstream cone touches a handful of nets
/// instead of the whole netlist.
///
/// Arrivals are computed with the same expression [`SizedCircuit::timing`]
/// uses, so the returned critical delay is bit-identical to a from-scratch
/// analysis and every accept/reject decision made through the cache
/// matches the full-STA driver.
///
/// Trials journal onto the incremental simulators' undo stack
/// ([`sim::incr::Journal`]): [`StaCache::checkpoint`] mints a [`Mark`],
/// chains of speculative resizes can be unwound to any live mark with
/// [`StaCache::rollback_to`] (restoring sizes and arrivals bit-identically)
/// or sealed with [`StaCache::commit`]. Only frames above the oldest
/// outstanding mark are kept, so a cache nobody checkpoints journals
/// nothing.
///
/// [`StaCache::set_force_full`] turns the cache into its own A/B twin:
/// every trial re-times every gate, with identical results.
#[derive(Debug)]
pub struct StaCache {
    arrival: Vec<f64>,
    levels: Vec<u32>,
    retimer: Retimer,
    journal: Journal<StaFrame>,
    /// Re-time every gate per trial instead of the resized gate's cone.
    force_full: bool,
    /// Resize trials performed.
    pub trials: u64,
    /// Arrival recomputations across all trials (the full-STA equivalent
    /// is `trials × nets` — the ratio is the work saved).
    pub arrival_evals: u64,
}

/// Undo frame for one [`StaCache::resize`] trial.
#[derive(Debug)]
struct StaFrame {
    /// `(net index, previous size)` of the resized gate.
    size: (usize, f64),
    /// `(net index, previous arrival)` for every arrival that moved.
    arrivals: Vec<(usize, f64)>,
}

impl StaCache {
    /// Set `net`'s size and propagate arrivals; returns the new critical
    /// delay. While a checkpoint is outstanding the previous size and
    /// arrivals are journaled, and [`StaCache::rollback_to`] unwinds the
    /// trial (or a whole chain of them) in place.
    ///
    /// # Panics
    ///
    /// Panics if `net` is a source (sources are never sized).
    pub fn resize(&mut self, c: &mut SizedCircuit<'_>, net: NetId, new_size: f64) -> f64 {
        assert!(!c.nl.kind(net).is_source(), "sources are never sized");
        self.trials += 1;
        let mut frame = StaFrame {
            size: (net.index(), c.sizes[net.index()]),
            arrivals: Vec::new(),
        };
        c.sizes[net.index()] = new_size;
        let levels = &self.levels;
        self.retimer.start(c.nl.len());
        // The resized gate's delay changed; so did its fanins' (their load
        // includes the resized gate's input capacitance).
        self.retimer.enqueue(net.index(), levels[net.index()]);
        for &f in c.nl.fanins(net) {
            if !c.nl.kind(f).is_source() {
                self.retimer.enqueue(f.index(), levels[f.index()]);
            }
        }
        // The force-full twin re-times every gate instead.
        if self.force_full {
            for &g in c.topo.order() {
                if !c.nl.kind(g).is_source() {
                    self.retimer.enqueue(g.index(), levels[g.index()]);
                }
            }
        }
        let circuit = &*c;
        self.arrival_evals += self.retimer.run(
            &mut self.arrival,
            levels,
            |idx| circuit.topo.fanouts(NetId::from_index(idx)),
            |idx, arrival| circuit.arrival_at(NetId::from_index(idx), arrival),
            |idx, old| frame.arrivals.push((idx, old)),
        );
        self.journal.push(frame);
        self.critical(c)
    }

    /// Re-time every gate on every trial (also the default under
    /// `LPOPT_INCR_STRESS=1`). Results are bit-identical either way; this
    /// exists for stress tests and A/B timing.
    pub fn set_force_full(&mut self, on: bool) {
        self.force_full = on;
    }

    /// Worst arrival over primary outputs under the cached arrivals.
    pub fn critical(&self, c: &SizedCircuit<'_>) -> f64 {
        c.worst_output(&self.arrival)
    }

    /// Mark the current state for a later [`StaCache::rollback_to`] or
    /// [`StaCache::commit`]; see [`Journal::checkpoint`].
    pub fn checkpoint(&mut self) -> Mark {
        self.journal.checkpoint()
    }

    /// Unwind every resize applied after `mark`, restoring sizes and
    /// arrivals bit-identically to the state at the checkpoint. Returns
    /// false (and changes nothing) if a [`StaCache::commit`] has passed
    /// the mark; see [`Journal::rollback_to`].
    pub fn rollback_to(&mut self, c: &mut SizedCircuit<'_>, mark: Mark) -> bool {
        self.journal.rollback_to(mark, |frame| {
            let (idx, old) = frame.size;
            c.sizes[idx] = old;
            for (i, a) in frame.arrivals {
                self.arrival[i] = a;
            }
        })
    }

    /// Make every resize at or below `mark` permanent; see
    /// [`Journal::commit`].
    pub fn commit(&mut self, mark: Mark) -> bool {
        self.journal.commit(mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, ripple_adder};
    use sim::comb::CombSim;
    use sim::stimulus::Stimulus;

    fn activity_of(nl: &Netlist, cycles: usize) -> ActivityProfile {
        CombSim::new(nl).activity(&Stimulus::uniform(nl.num_inputs()).patterns(cycles, 7))
    }

    #[test]
    fn timing_monotone_in_size() {
        let (nl, _) = ripple_adder(6);
        let big = SizedCircuit::new(&nl, 4.0);
        let small = SizedCircuit::new(&nl, 1.0);
        let tb = big.timing(1e9).critical;
        let ts = small.timing(1e9).critical;
        assert!(tb < ts, "bigger gates are faster: {tb} vs {ts}");
    }

    #[test]
    fn power_monotone_in_size() {
        let (nl, _) = ripple_adder(6);
        let activity = activity_of(&nl, 256);
        let big = SizedCircuit::new(&nl, 4.0);
        let small = SizedCircuit::new(&nl, 1.0);
        assert!(big.switched_capacitance(&activity) > small.switched_capacitance(&activity));
    }

    #[test]
    fn downsizing_saves_power_meeting_constraint() {
        let (nl, _) = ripple_adder(8);
        let activity = activity_of(&nl, 256);
        let mut circuit = SizedCircuit::new(&nl, 4.0);
        let fastest = circuit.timing(1e9).critical;
        let before = circuit.switched_capacitance(&activity);
        // Allow 40% timing margin.
        let constraint = fastest * 1.4;
        let changed = circuit.downsize_for_power(constraint);
        assert!(changed > 0, "some gates must shrink");
        let after = circuit.switched_capacitance(&activity);
        assert!(after < before, "power must drop: {after} vs {before}");
        assert!(circuit.timing(constraint).critical <= constraint + 1e-9);
    }

    #[test]
    fn looser_constraint_means_lower_power() {
        let (nl, _) = array_multiplier(4);
        let activity = activity_of(&nl, 256);
        let fastest = SizedCircuit::new(&nl, 4.0).timing(1e9).critical;
        let mut caps = Vec::new();
        for margin in [1.05, 1.3, 2.0] {
            let mut c = SizedCircuit::new(&nl, 4.0);
            c.downsize_for_power(fastest * margin);
            caps.push(c.switched_capacitance(&activity));
        }
        assert!(caps[0] >= caps[1] && caps[1] >= caps[2], "{caps:?}");
        assert!(caps[2] < caps[0], "loosest should strictly beat tightest");
    }

    #[test]
    fn tight_constraint_keeps_critical_path_fat() {
        let (nl, _) = ripple_adder(6);
        let mut circuit = SizedCircuit::new(&nl, 4.0);
        let fastest = circuit.timing(1e9).critical;
        circuit.downsize_for_power(fastest); // zero margin
        // Constraint still met (we never make it worse than the start).
        assert!(circuit.timing(fastest).critical <= fastest + 1e-9);
        // Some gate stays above minimum size (the carry chain).
        assert!(circuit.sizes.iter().any(|&s| s > 1.0 + 1e-9));
    }

    #[test]
    fn slack_signs_are_sensible() {
        let (nl, _) = ripple_adder(4);
        let circuit = SizedCircuit::new(&nl, 2.0);
        let critical = circuit.timing(1e9).critical;
        let tight = circuit.timing(critical);
        // On-path gates have ~zero slack; all slacks non-negative.
        assert!(tight.slack.iter().all(|&s| s > -1e-9));
        let loose = circuit.timing(critical * 2.0);
        assert!(loose.slack.iter().all(|&s| s >= critical - 1e-9 || s > 0.0));
    }

    #[test]
    fn incremental_sta_retimes_a_fraction_of_full_sta() {
        if sim::incr::stress_env() {
            // Every trial re-times every gate under the stress env; there
            // is no work saving to observe.
            return;
        }
        let (nl, _) = ripple_adder(8);
        let fastest = SizedCircuit::new(&nl, 4.0).timing(1e9).critical;
        let mut c = SizedCircuit::new(&nl, 4.0);
        let mut sta = c.sta_cache();
        c.downsize_for_power_with(fastest * 1.4, &mut sta);
        // Full STA would evaluate `trials × nets` arrivals.
        assert!(sta.trials > 0);
        assert!(sta.arrival_evals < sta.trials * nl.len() as u64);
    }

    #[test]
    fn power_report_integrates() {
        let (nl, _) = ripple_adder(4);
        let activity = activity_of(&nl, 128);
        let circuit = SizedCircuit::new(&nl, 2.0);
        let report = circuit.power(&activity, &PowerParams::default());
        assert!(report.total() > 0.0);
        assert!(report.switching_fraction() > 0.5);
    }
}
