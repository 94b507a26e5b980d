//! Fault injection: stuck-at faults and transient bit flips (SEUs).
//!
//! Two complementary mechanisms:
//!
//! * **Structural** injection ([`inject_stuck_at`]) rewrites a copy of the
//!   netlist so every consumer of the faulty net reads a constant — the
//!   classic stuck-at-0/1 model used for test-pattern grading. The
//!   interface (inputs, outputs, flip-flops) is preserved exactly, so the
//!   faulty copy drops into any simulator or estimator unchanged.
//! * **Behavioral** forcing ([`FaultSim`]) overrides the value of one net
//!   *during* a running simulation without cloning the netlist — either
//!   for the whole run (stuck-at) or for a single cycle (a single-event
//!   upset). This is what the coverage and SEU-propagation loops use: one
//!   golden run, then thousands of cheap forced runs in parallel.
//!
//! Fault campaigns accept a [`ResourceBudget`]: total work is counted as
//! `cycles × nets` per faulty run against the step limit (shared across
//! worker threads), with deadline checks between runs, so an oversized
//! campaign fails with a typed error instead of running all night.

use std::sync::atomic::{AtomicU64, Ordering};

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};

use crate::par;
use crate::stimulus::PatternSet;
use crate::wide::{prefix_mask, LANES};

/// The supported fault models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Net permanently reads 0 to all consumers.
    StuckAt0,
    /// Net permanently reads 1 to all consumers.
    StuckAt1,
    /// Transient single-event upset: the net's settled value is inverted
    /// for exactly one cycle, then the circuit runs on normally (a flip
    /// captured by a register persists in state, as in a real SEU).
    BitFlip {
        /// The 0-based cycle at which the flip occurs.
        cycle: usize,
    },
}

impl FaultKind {
    /// Short mnemonic for diagnostics (`sa0`, `sa1`, `seu@<cycle>`).
    pub fn describe(self) -> String {
        match self {
            FaultKind::StuckAt0 => "sa0".to_string(),
            FaultKind::StuckAt1 => "sa1".to_string(),
            FaultKind::BitFlip { cycle } => format!("seu@{cycle}"),
        }
    }
}

/// One fault site: a net and the model applied to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The faulty net.
    pub net: NetId,
    /// The fault model.
    pub kind: FaultKind,
}

/// Typed errors from fault construction and campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The fault names a net the netlist does not contain.
    UnknownNet {
        /// The offending net index.
        net: usize,
        /// Number of nets in the netlist.
        len: usize,
    },
    /// A transient fault names a cycle outside the pattern stream.
    CycleOutOfRange {
        /// The requested flip cycle.
        cycle: usize,
        /// Number of cycles in the stream.
        cycles: usize,
    },
    /// The campaign ran out of budget.
    Budget(BudgetExceeded),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::UnknownNet { net, len } => {
                write!(f, "fault site n{net} out of range (netlist has {len} nets)")
            }
            FaultError::CycleOutOfRange { cycle, cycles } => {
                write!(f, "flip cycle {cycle} out of range (stream has {cycles} cycles)")
            }
            FaultError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<BudgetExceeded> for FaultError {
    fn from(e: BudgetExceeded) -> FaultError {
        FaultError::Budget(e)
    }
}

/// A structurally faulty copy of `nl`: every consumer of `net` (fanins and
/// primary outputs) is rewired to a fresh constant. The original gate
/// remains in place driving nothing, so net indices, interface and state
/// elements are unchanged.
pub fn inject_stuck_at(nl: &Netlist, net: NetId, value: bool) -> Result<Netlist, FaultError> {
    if net.index() >= nl.len() {
        return Err(FaultError::UnknownNet {
            net: net.index(),
            len: nl.len(),
        });
    }
    let mut faulty = nl.clone();
    let stuck = faulty.add_const(value);
    faulty.replace_uses(net, stuck);
    Ok(faulty)
}

/// Every stuck-at fault on every net that could plausibly matter: both
/// polarities on each net except constants (a constant stuck at its own
/// value is undetectable by construction).
pub fn all_stuck_at_faults(nl: &Netlist) -> Vec<Fault> {
    let mut faults = Vec::with_capacity(2 * nl.len());
    for net in nl.iter_nets() {
        match nl.kind(net) {
            GateKind::Const(v) => faults.push(Fault {
                net,
                kind: if v { FaultKind::StuckAt0 } else { FaultKind::StuckAt1 },
            }),
            _ => {
                faults.push(Fault { net, kind: FaultKind::StuckAt0 });
                faults.push(Fault { net, kind: FaultKind::StuckAt1 });
            }
        }
    }
    faults
}

/// Result of simulating one fault against the golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The simulated fault.
    pub fault: Fault,
    /// First cycle at which any primary output differed, if any.
    pub first_detected: Option<usize>,
    /// For sequential circuits: whether register state still differed from
    /// the golden run when the stream ended (the fault is *latent* if this
    /// is true but no output ever differed).
    pub state_corrupted: bool,
}

impl FaultReport {
    /// Whether the fault was observable at a primary output.
    pub fn detected(&self) -> bool {
        self.first_detected.is_some()
    }
}

/// Aggregate result of a fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-fault outcomes, in campaign order.
    pub reports: Vec<FaultReport>,
    /// Cycles in the stimulus stream.
    pub cycles: usize,
}

impl CampaignReport {
    /// Number of faults whose effect reached a primary output.
    pub fn detected(&self) -> usize {
        self.reports.iter().filter(|r| r.detected()).count()
    }

    /// Detected / total (0.0 for an empty campaign).
    pub fn coverage(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.detected() as f64 / self.reports.len() as f64
        }
    }

    /// Number of faults that corrupted state without ever reaching an
    /// output (silent data corruption — the dangerous kind).
    pub fn latent(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.state_corrupted && !r.detected())
            .count()
    }
}

/// Reusable scratch for faulty runs: the settled-value and fanin buffers
/// survive across faults, so a campaign allocates once per worker thread
/// instead of once per run.
#[derive(Debug, Default)]
pub struct FaultArena {
    values: Vec<bool>,
    ins: Vec<bool>,
    /// Lane-grouped word buffers for the packed combinational campaign.
    w_vals: Vec<u64>,
    w_ins: Vec<u64>,
}

/// Behavioral fault simulator bound to one netlist (combinational or
/// sequential).
#[derive(Debug)]
pub struct FaultSim<'a> {
    nl: &'a Netlist,
    order: Vec<NetId>,
}

impl<'a> FaultSim<'a> {
    /// Bind a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part of the netlist is cyclic.
    pub fn new(nl: &'a Netlist) -> FaultSim<'a> {
        let order = nl.topo_order().expect("combinational part must be acyclic");
        FaultSim { nl, order }
    }

    /// Settle one cycle with an optional forced net value, writing all net
    /// values into `values`. `state` is the flip-flop state (empty for
    /// combinational netlists).
    fn settle_forced(
        &self,
        state: &[bool],
        inputs: &[bool],
        force: Option<(NetId, bool)>,
        values: &mut Vec<bool>,
        ins: &mut Vec<bool>,
    ) {
        assert_eq!(inputs.len(), self.nl.num_inputs(), "pattern width");
        values.clear();
        values.resize(self.nl.len(), false);
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for (i, &dff) in self.nl.dffs().iter().enumerate() {
            values[dff.index()] = state[i];
        }
        if let Some((net, v)) = force {
            // Sources and registers are skipped by the sweep below, so the
            // override must land before downstream gates read them.
            values[net.index()] = v;
        }
        for &net in &self.order {
            let kind = self.nl.kind(net);
            if kind.is_source() || kind == GateKind::Dff {
                if let GateKind::Const(c) = kind {
                    if force.map(|(f, _)| f) != Some(net) {
                        values[net.index()] = c;
                    }
                }
                continue;
            }
            ins.clear();
            ins.extend(self.nl.fanins(net).iter().map(|x| values[x.index()]));
            values[net.index()] = kind.eval(ins);
            if let Some((fnet, v)) = force {
                if fnet == net {
                    values[net.index()] = v;
                }
            }
        }
    }

    fn next_state(&self, values: &[bool]) -> Vec<bool> {
        self.nl
            .dffs()
            .iter()
            .map(|&dff| {
                let fanins = self.nl.fanins(dff);
                if fanins.len() == 2 && !values[fanins[1].index()] {
                    // Hold — but a forced register value must persist, so
                    // read the (possibly forced) current value, not the
                    // pre-force state.
                    values[dff.index()]
                } else {
                    values[fanins[0].index()]
                }
            })
            .collect()
    }

    /// The fault-free output trace (and final register state) for a stream.
    pub fn golden(&self, patterns: &PatternSet) -> (Vec<Vec<bool>>, Vec<bool>) {
        match self.trace(patterns, None, &mut FaultArena::default()) {
            Ok(t) => t,
            Err(e) => unreachable!("fault-free run failed: {e}"),
        }
    }

    /// Output trace and final state with `fault` active.
    pub fn faulty(
        &self,
        patterns: &PatternSet,
        fault: Fault,
    ) -> Result<(Vec<Vec<bool>>, Vec<bool>), FaultError> {
        self.trace(patterns, Some(fault), &mut FaultArena::default())
    }

    /// [`FaultSim::faulty`] reusing `arena`'s scratch buffers.
    pub fn faulty_with(
        &self,
        patterns: &PatternSet,
        fault: Fault,
        arena: &mut FaultArena,
    ) -> Result<(Vec<Vec<bool>>, Vec<bool>), FaultError> {
        self.trace(patterns, Some(fault), arena)
    }

    fn trace(
        &self,
        patterns: &PatternSet,
        fault: Option<Fault>,
        arena: &mut FaultArena,
    ) -> Result<(Vec<Vec<bool>>, Vec<bool>), FaultError> {
        if let Some(f) = fault {
            if f.net.index() >= self.nl.len() {
                return Err(FaultError::UnknownNet {
                    net: f.net.index(),
                    len: self.nl.len(),
                });
            }
            if let FaultKind::BitFlip { cycle } = f.kind {
                if cycle >= patterns.len() {
                    return Err(FaultError::CycleOutOfRange {
                        cycle,
                        cycles: patterns.len(),
                    });
                }
            }
        }
        let mut state: Vec<bool> =
            self.nl.dffs().iter().map(|&d| self.nl.dff_init(d)).collect();
        let FaultArena { values, ins, .. } = arena;
        let mut trace = Vec::with_capacity(patterns.len());
        let dff_slot = fault.and_then(|f| {
            self.nl.dffs().iter().position(|&d| d == f.net)
        });
        for (c, p) in patterns.iter().enumerate() {
            let force = match fault {
                Some(Fault { net, kind: FaultKind::StuckAt0 }) => Some((net, false)),
                Some(Fault { net, kind: FaultKind::StuckAt1 }) => Some((net, true)),
                Some(Fault { net, kind: FaultKind::BitFlip { cycle } }) if cycle == c => {
                    // Invert what the net would have carried this cycle.
                    let clean = self.clean_value(net, &state, p, values, ins);
                    Some((net, !clean))
                }
                _ => None,
            };
            if let (Some(slot), Some((_, v))) = (dff_slot, force) {
                // A forced register bit is a *state* upset: patch the
                // stored bit so hold cycles keep the forced value.
                state[slot] = v;
            }
            self.settle_forced(&state, p, force, values, ins);
            trace.push(
                self.nl
                    .outputs()
                    .iter()
                    .map(|(net, _)| values[net.index()])
                    .collect(),
            );
            state = self.next_state(values);
        }
        Ok((trace, state))
    }

    /// The value `net` would settle to this cycle with no fault active.
    fn clean_value(
        &self,
        net: NetId,
        state: &[bool],
        pattern: &[bool],
        values: &mut Vec<bool>,
        ins: &mut Vec<bool>,
    ) -> bool {
        self.settle_forced(state, pattern, None, values, ins);
        values[net.index()]
    }

    /// Compare one fault against a precomputed golden run.
    pub fn report(
        &self,
        patterns: &PatternSet,
        fault: Fault,
        golden: &(Vec<Vec<bool>>, Vec<bool>),
    ) -> Result<FaultReport, FaultError> {
        self.report_with(patterns, fault, golden, &mut FaultArena::default())
    }

    /// [`FaultSim::report`] reusing `arena`'s scratch buffers.
    pub fn report_with(
        &self,
        patterns: &PatternSet,
        fault: Fault,
        golden: &(Vec<Vec<bool>>, Vec<bool>),
        arena: &mut FaultArena,
    ) -> Result<FaultReport, FaultError> {
        let (trace, end_state) = self.faulty_with(patterns, fault, arena)?;
        let first_detected = trace
            .iter()
            .zip(golden.0.iter())
            .position(|(a, b)| a != b);
        Ok(FaultReport {
            fault,
            first_detected,
            state_corrupted: end_state != golden.1,
        })
    }

    /// Run a fault campaign: simulate every fault in `faults` against the
    /// golden run, in parallel over up to `jobs` threads, under `budget`.
    ///
    /// Work is metered as `cycles × nets` per faulty run against the step
    /// limit (shared across threads); the deadline is polled between runs.
    /// Reports come back in campaign order regardless of thread count.
    pub fn campaign(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<CampaignReport, FaultError> {
        // Combinational campaigns run word-parallel: a faulty settle
        // covers 64·LANES cycles at once, and a stuck-at run stops at the
        // first differing group. State feedback makes the packed scheme
        // unsound for sequential netlists, so those step cycle by cycle.
        if self.nl.num_dffs() == 0 {
            self.campaign_packed(patterns, faults, jobs, budget)
        } else {
            self.campaign_sequential(patterns, faults, jobs, budget)
        }
    }

    fn campaign_sequential(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<CampaignReport, FaultError> {
        budget.check_deadline()?;
        let golden = self.golden(patterns);
        let run_cost = patterns.len() as u64 * self.nl.len().max(1) as u64;
        let max_steps = budget.max_sim_steps_or(u64::MAX);
        let steps = AtomicU64::new(run_cost); // the golden run counts too
        if run_cost >= max_steps {
            return Err(budget.sim_steps_exceeded(run_cost).into());
        }
        let reports = par::par_map_with(faults, jobs, FaultArena::default, |_, &fault, arena| {
            let tally = steps.fetch_add(run_cost, Ordering::Relaxed) + run_cost;
            if tally >= max_steps {
                return Err(FaultError::Budget(budget.sim_steps_exceeded(tally)));
            }
            budget.check_deadline()?;
            self.report_with(patterns, fault, &golden, arena)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport {
            reports,
            cycles: patterns.len(),
        })
    }

    /// Settle one wide group (64·LANES consecutive cycles) with an
    /// optional forced net word. `input_words` is lane-grouped
    /// (`input * LANES + lane`), as is the `values` output
    /// (`net * LANES + lane`). Mirrors [`FaultSim::settle_forced`]:
    /// the force lands before downstream gates read it and survives the
    /// sweep even on sources.
    fn settle_words_forced(
        &self,
        input_words: &[u64],
        force: Option<(NetId, [u64; LANES])>,
        values: &mut Vec<u64>,
        ins: &mut Vec<u64>,
    ) {
        values.clear();
        values.resize(self.nl.len() * LANES, 0);
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index() * LANES..][..LANES]
                .copy_from_slice(&input_words[i * LANES..][..LANES]);
        }
        if let Some((net, w)) = force {
            values[net.index() * LANES..][..LANES].copy_from_slice(&w);
        }
        for &net in &self.order {
            let kind = self.nl.kind(net);
            if kind.is_source() {
                if let GateKind::Const(c) = kind {
                    if force.map(|(f, _)| f) != Some(net) {
                        values[net.index() * LANES..][..LANES]
                            .fill(if c { u64::MAX } else { 0 });
                    }
                }
                continue;
            }
            ins.clear();
            for f in self.nl.fanins(net) {
                ins.extend_from_slice(&values[f.index() * LANES..][..LANES]);
            }
            let out = kind.eval_wide::<LANES>(ins);
            values[net.index() * LANES..][..LANES].copy_from_slice(&out);
            if let Some((fnet, w)) = force {
                if fnet == net {
                    values[net.index() * LANES..][..LANES].copy_from_slice(&w);
                }
            }
        }
    }

    /// Word-parallel campaign over a combinational netlist. Bit-identical
    /// to [`FaultSim::report`] per fault: a stuck-at fault settles group
    /// by group against the packed golden outputs and reports the first
    /// differing cycle bit; a transient flip only ever differs in its own
    /// cycle's bit column, so a single group settles with the clean word
    /// xor'd at that bit. Work metering is unchanged
    /// (`cycles × nets` per fault, golden counted once).
    fn campaign_packed(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<CampaignReport, FaultError> {
        budget.check_deadline()?;
        let cycles = patterns.len();
        let ninp = self.nl.num_inputs();
        let nout = self.nl.num_outputs();
        let ngroups = cycles.div_ceil(64).div_ceil(LANES);
        let gsize = ninp * LANES;
        let osize = nout * LANES;
        // Pack the stream lane-grouped: group g, input i, lane w holds
        // cycles `(g*LANES + w)*64 .. +64`; tail bits stay zero.
        let mut iw = vec![0u64; ngroups * gsize];
        for (c, p) in patterns.iter().enumerate() {
            let b = c / 64;
            let (g, w, bit) = (b / LANES, b % LANES, c % 64);
            for (i, &v) in p.iter().enumerate() {
                if v {
                    iw[g * gsize + i * LANES + w] |= 1 << bit;
                }
            }
        }
        let mut golden = vec![0u64; ngroups * osize];
        {
            let mut vals = Vec::new();
            let mut ins = Vec::new();
            for g in 0..ngroups {
                self.settle_words_forced(&iw[g * gsize..][..gsize], None, &mut vals, &mut ins);
                for (o, (net, _)) in self.nl.outputs().iter().enumerate() {
                    golden[g * osize + o * LANES..][..LANES]
                        .copy_from_slice(&vals[net.index() * LANES..][..LANES]);
                }
            }
        }
        let run_cost = cycles as u64 * self.nl.len().max(1) as u64;
        let max_steps = budget.max_sim_steps_or(u64::MAX);
        let steps = AtomicU64::new(run_cost); // the golden run counts too
        if run_cost >= max_steps {
            return Err(budget.sim_steps_exceeded(run_cost).into());
        }
        let reports = par::par_map_with(faults, jobs, FaultArena::default, |_, &fault, arena| {
            let tally = steps.fetch_add(run_cost, Ordering::Relaxed) + run_cost;
            if tally >= max_steps {
                return Err(FaultError::Budget(budget.sim_steps_exceeded(tally)));
            }
            budget.check_deadline()?;
            self.report_packed(fault, cycles, &iw, gsize, &golden, osize, ngroups, arena)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport { reports, cycles })
    }

    #[allow(clippy::too_many_arguments)]
    fn report_packed(
        &self,
        fault: Fault,
        cycles: usize,
        iw: &[u64],
        gsize: usize,
        golden: &[u64],
        osize: usize,
        ngroups: usize,
        arena: &mut FaultArena,
    ) -> Result<FaultReport, FaultError> {
        if fault.net.index() >= self.nl.len() {
            return Err(FaultError::UnknownNet {
                net: fault.net.index(),
                len: self.nl.len(),
            });
        }
        let first_detected = match fault.kind {
            FaultKind::StuckAt0 | FaultKind::StuckAt1 => {
                let fw = if fault.kind == FaultKind::StuckAt1 {
                    [u64::MAX; LANES]
                } else {
                    [0u64; LANES]
                };
                let mut hit = None;
                'groups: for g in 0..ngroups {
                    self.settle_words_forced(
                        &iw[g * gsize..][..gsize],
                        Some((fault.net, fw)),
                        &mut arena.w_vals,
                        &mut arena.w_ins,
                    );
                    let valid = prefix_mask::<LANES>(cycles - g * 64 * LANES);
                    for w in 0..LANES {
                        let mut diff = 0u64;
                        for (o, (net, _)) in self.nl.outputs().iter().enumerate() {
                            diff |= arena.w_vals[net.index() * LANES + w]
                                ^ golden[g * osize + o * LANES + w];
                        }
                        diff &= valid[w];
                        if diff != 0 {
                            hit = Some((g * LANES + w) * 64 + diff.trailing_zeros() as usize);
                            break 'groups;
                        }
                    }
                }
                hit
            }
            FaultKind::BitFlip { cycle } => {
                if cycle >= cycles {
                    return Err(FaultError::CycleOutOfRange { cycle, cycles });
                }
                let b = cycle / 64;
                let (g, w, bit) = (b / LANES, b % LANES, cycle % 64);
                // Clean settle of the flip's group to learn the net's
                // word, then re-settle with that one bit inverted. Every
                // other bit column sees clean values, so the diff is
                // confined to the flip's own column.
                self.settle_words_forced(
                    &iw[g * gsize..][..gsize],
                    None,
                    &mut arena.w_vals,
                    &mut arena.w_ins,
                );
                let mut fw = [0u64; LANES];
                fw.copy_from_slice(&arena.w_vals[fault.net.index() * LANES..][..LANES]);
                fw[w] ^= 1 << bit;
                self.settle_words_forced(
                    &iw[g * gsize..][..gsize],
                    Some((fault.net, fw)),
                    &mut arena.w_vals,
                    &mut arena.w_ins,
                );
                let mut diff = 0u64;
                for (o, (net, _)) in self.nl.outputs().iter().enumerate() {
                    diff |= arena.w_vals[net.index() * LANES + w]
                        ^ golden[g * osize + o * LANES + w];
                }
                if diff & (1 << bit) != 0 { Some(cycle) } else { None }
            }
        };
        Ok(FaultReport {
            fault,
            first_detected,
            state_corrupted: false,
        })
    }

    /// Single-event-upset sweep: one bit flip per (net, cycle) pair drawn
    /// deterministically from `seed`, `count` injections total. Returns
    /// the campaign report; [`CampaignReport::coverage`] is then the SEU
    /// *propagation fraction* — how many upsets reached an output.
    pub fn seu_sweep(
        &self,
        patterns: &PatternSet,
        count: usize,
        seed: u64,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<CampaignReport, FaultError> {
        let mut rng = netlist::Rng64::new(seed);
        let cycles = patterns.len().max(1);
        let faults: Vec<Fault> = (0..count)
            .map(|_| Fault {
                net: NetId::from_index(rng.range(0, self.nl.len())),
                kind: FaultKind::BitFlip { cycle: rng.range(0, cycles) },
            })
            .collect();
        self.campaign(patterns, &faults, jobs, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombSim;
    use crate::stimulus::Stimulus;
    use netlist::gen::{counter, ripple_adder};

    #[test]
    fn structural_injection_preserves_interface() {
        let (nl, _) = ripple_adder(4);
        let victim = nl.outputs()[0].0;
        let faulty = inject_stuck_at(&nl, victim, true).unwrap();
        assert_eq!(faulty.num_inputs(), nl.num_inputs());
        assert_eq!(faulty.num_outputs(), nl.num_outputs());
        // The faulted output is pinned high for every pattern.
        let patterns = Stimulus::uniform(8).patterns(64, 5);
        let outs = CombSim::new(&faulty).eval_outputs(&patterns);
        assert!(outs.iter().all(|o| o[0]));
        // Out-of-range sites are a typed error.
        let bogus = NetId::from_index(nl.len() + 7);
        assert!(matches!(
            inject_stuck_at(&nl, bogus, false),
            Err(FaultError::UnknownNet { .. })
        ));
    }

    #[test]
    fn behavioral_stuck_at_matches_structural() {
        let (nl, _) = ripple_adder(3);
        let patterns = Stimulus::uniform(6).patterns(80, 11);
        let sim = FaultSim::new(&nl);
        for net in nl.iter_nets() {
            for value in [false, true] {
                let structural = inject_stuck_at(&nl, net, value).unwrap();
                let expect = CombSim::new(&structural).eval_outputs(&patterns);
                let kind = if value { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
                let (got, _) = sim.faulty(&patterns, Fault { net, kind }).unwrap();
                assert_eq!(got, expect, "net {net} sa{}", value as u8);
            }
        }
    }

    #[test]
    fn adder_coverage_is_high_under_random_patterns() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(128, 3);
        let sim = FaultSim::new(&nl);
        let faults = all_stuck_at_faults(&nl);
        let report = sim
            .campaign(&patterns, &faults, 2, &ResourceBudget::unlimited())
            .unwrap();
        // Adders are highly testable: random patterns detect nearly all
        // stuck-at faults.
        assert!(report.coverage() > 0.9, "coverage {}", report.coverage());
    }

    #[test]
    fn seu_on_counter_persists_in_state() {
        // Flip the LSB register of a free-running counter: the corrupted
        // count persists (state_corrupted) and shows at the outputs.
        let nl = counter(4);
        let patterns: PatternSet = (0..20).map(|_| vec![true]).collect();
        let sim = FaultSim::new(&nl);
        let golden = sim.golden(&patterns);
        let lsb = nl.dffs()[0];
        let report = sim
            .report(
                &patterns,
                Fault { net: lsb, kind: FaultKind::BitFlip { cycle: 7 } },
                &golden,
            )
            .unwrap();
        assert_eq!(report.first_detected, Some(7), "upset visible immediately");
        // A flipped count stays wrong forever on a counter.
        assert!(report.state_corrupted);
        // Flip cycle past the stream is a typed error.
        let err = sim
            .faulty(&patterns, Fault { net: lsb, kind: FaultKind::BitFlip { cycle: 99 } })
            .unwrap_err();
        assert!(matches!(err, FaultError::CycleOutOfRange { .. }));
    }

    #[test]
    fn packed_campaign_matches_per_fault_reports() {
        // Cycle counts straddling block and group boundaries, including a
        // ragged tail; every stuck-at plus a deterministic SEU mix. The
        // oracle is the per-cycle `report` of each fault.
        let (nl, _) = ripple_adder(5);
        let sim = FaultSim::new(&nl);
        for cycles in [0, 63, 64, 200, 256, 300] {
            let patterns = Stimulus::uniform(10).patterns(cycles, 17);
            let mut faults = all_stuck_at_faults(&nl);
            let mut rng = netlist::Rng64::new(41);
            faults.extend((0..40).map(|_| Fault {
                net: NetId::from_index(rng.range(0, nl.len())),
                kind: FaultKind::BitFlip { cycle: rng.range(0, cycles.max(1)) },
            }));
            let golden = sim.golden(&patterns);
            let stepped: Vec<_> = faults
                .iter()
                .map(|&f| sim.report(&patterns, f, &golden))
                .collect();
            if cycles == 0 {
                // Every flip cycle is out of range: the campaign fails typed.
                assert!(stepped.iter().any(Result::is_err));
                let packed = sim.campaign(&patterns, &faults, 2, &ResourceBudget::unlimited());
                assert!(matches!(packed, Err(FaultError::CycleOutOfRange { .. })));
                continue;
            }
            let stepped: Vec<FaultReport> = stepped.into_iter().map(Result::unwrap).collect();
            let packed = sim
                .campaign(&patterns, &faults, 2, &ResourceBudget::unlimited())
                .unwrap();
            assert_eq!(packed.reports, stepped, "cycles={cycles}");
        }
    }

    #[test]
    fn campaign_budget_trips() {
        let (nl, _) = ripple_adder(4);
        let patterns = Stimulus::uniform(8).patterns(64, 9);
        let sim = FaultSim::new(&nl);
        let faults = all_stuck_at_faults(&nl);
        let run = 64 * nl.len() as u64;
        // Room for the golden run and a handful of faulty ones only.
        let tight = ResourceBudget::unlimited().with_max_sim_steps(run * 4);
        let err = sim.campaign(&patterns, &faults, 2, &tight).unwrap_err();
        assert!(matches!(err, FaultError::Budget(_)), "{err}");
        // Generous budget completes and matches the unbudgeted campaign.
        let roomy = ResourceBudget::unlimited()
            .with_max_sim_steps(run * (faults.len() as u64 + 2));
        let a = sim.campaign(&patterns, &faults, 2, &roomy).unwrap();
        let b = sim
            .campaign(&patterns, &faults, 1, &ResourceBudget::unlimited())
            .unwrap();
        assert_eq!(a.reports, b.reports, "campaign order is deterministic");
    }

    #[test]
    fn seu_sweep_is_deterministic() {
        let nl = counter(5);
        let patterns: PatternSet = (0..30).map(|_| vec![true]).collect();
        let sim = FaultSim::new(&nl);
        let a = sim
            .seu_sweep(&patterns, 40, 7, 2, &ResourceBudget::unlimited())
            .unwrap();
        let b = sim
            .seu_sweep(&patterns, 40, 7, 4, &ResourceBudget::unlimited())
            .unwrap();
        assert_eq!(a.reports, b.reports);
        assert!(a.coverage() > 0.0, "some upsets must propagate");
    }
}
