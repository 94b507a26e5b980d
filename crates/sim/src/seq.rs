//! Cycle-based sequential simulation.
//!
//! Evaluates one clock cycle at a time: combinational settle, then all
//! flip-flops capture simultaneously (respecting load-enables). Counts
//! toggles at register *outputs* and register *inputs* separately — the
//! survey's retiming section (§III.C.2, \[29\]) rests on the observation that
//! flip-flops filter glitches, so their outputs switch less than their
//! inputs.

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};

use crate::par;
use crate::profile::ActivityProfile;
use crate::stimulus::PatternSet;
use crate::wide::{prefix_mask, LANES};

/// Cycle-accurate sequential simulator.
#[derive(Debug)]
pub struct SeqSim<'a> {
    nl: &'a Netlist,
    order: Vec<NetId>,
    /// `order` restricted to the fanin cone of the flip-flop D/enable
    /// nets: the only nets the state-forwarding pass of
    /// [`SeqSim::activity_jobs`] has to evaluate.
    state_order: Vec<NetId>,
    obs: obs::Obs,
}

/// Reusable per-worker buffers for sequential simulation.
#[derive(Debug, Default)]
struct SeqArena {
    values: Vec<bool>,
    prev_values: Vec<bool>,
    ins: Vec<bool>,
    state: Vec<bool>,
    /// Lane-grouped word buffers (`net * L + w`).
    w_vals: Vec<u64>,
    w_prev: Vec<u64>,
    w_ins: Vec<u64>,
    w_state: Vec<u64>,
    w_prev_d: Vec<u64>,
}

/// Raw integer counts from one contiguous shard of a sequential run.
struct SeqCounts {
    toggles: Vec<u64>,
    ones: Vec<u64>,
    ff_out: Vec<u64>,
    ff_in: Vec<u64>,
    ff_load: Vec<u64>,
}

/// Activity measured by a sequential run.
#[derive(Debug, Clone)]
pub struct SeqActivity {
    /// Zero-delay per-net activity (registers included).
    pub profile: ActivityProfile,
    /// Per-flip-flop toggles/cycle at the register *output* (Q).
    pub ff_output_toggles: Vec<f64>,
    /// Per-flip-flop toggles/cycle at the register *data input* (D).
    pub ff_input_toggles: Vec<f64>,
    /// Per-flip-flop fraction of cycles the register actually loaded
    /// (1.0 when no enable is attached).
    pub ff_load_fraction: Vec<f64>,
}

impl<'a> SeqSim<'a> {
    /// Bind a simulator to a (possibly sequential) netlist.
    ///
    /// # Panics
    ///
    /// Panics if the combinational part is cyclic.
    pub fn new(nl: &'a Netlist) -> SeqSim<'a> {
        let order = nl.topo_order().expect("combinational part must be acyclic");
        // Mark the cone of nets feeding any flip-flop input (D or enable).
        let mut in_cone = vec![false; nl.len()];
        let mut stack: Vec<NetId> = nl
            .dffs()
            .iter()
            .flat_map(|&d| nl.fanins(d).iter().copied())
            .collect();
        while let Some(net) = stack.pop() {
            if std::mem::replace(&mut in_cone[net.index()], true) {
                continue;
            }
            stack.extend(nl.fanins(net).iter().copied());
        }
        let state_order = order
            .iter()
            .copied()
            .filter(|n| in_cone[n.index()])
            .collect();
        SeqSim {
            nl,
            order,
            state_order,
            obs: obs::Obs::disabled(),
        }
    }

    /// Attach an observability handle. Work counters (`sim.seq.cycles`,
    /// `sim.seq.ff_loads`) flush once per successful activity run; the
    /// per-cycle hot loop never touches the handle. The state-forwarding
    /// pass is deliberately *not* counted — its extra settles depend on
    /// the shard layout, and counters must stay thread-count invariant.
    pub fn with_obs(mut self, obs: obs::Obs) -> SeqSim<'a> {
        self.obs = obs;
        self
    }

    /// Initial register state from the netlist's declared init values.
    pub fn initial_state(&self) -> Vec<bool> {
        self.nl
            .dffs()
            .iter()
            .map(|&d| self.nl.dff_init(d))
            .collect()
    }

    /// Evaluate the combinational logic for one cycle.
    ///
    /// `state` holds flip-flop values in [`Netlist::dffs`] order. Returns
    /// all net values (flip-flop nets carry the *current* state).
    pub fn settle(&self, state: &[bool], inputs: &[bool]) -> Vec<bool> {
        let mut values = Vec::new();
        let mut ins = Vec::new();
        self.settle_into(state, inputs, &mut values, &mut ins, &self.order);
        values
    }

    /// Settle into caller-provided buffers, evaluating only `subset`
    /// (either the full topological order or the flip-flop input cone).
    fn settle_into(
        &self,
        state: &[bool],
        inputs: &[bool],
        values: &mut Vec<bool>,
        ins: &mut Vec<bool>,
        subset: &[NetId],
    ) {
        assert_eq!(inputs.len(), self.nl.num_inputs(), "input width");
        assert_eq!(state.len(), self.nl.num_dffs(), "state width");
        values.clear();
        values.resize(self.nl.len(), false);
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[pi.index()] = inputs[i];
        }
        for (i, &dff) in self.nl.dffs().iter().enumerate() {
            values[dff.index()] = state[i];
        }
        for &net in subset {
            let kind = self.nl.kind(net);
            if kind.is_source() || kind == GateKind::Dff {
                if let GateKind::Const(v) = kind {
                    values[net.index()] = v;
                }
                continue;
            }
            ins.clear();
            ins.extend(self.nl.fanins(net).iter().map(|x| values[x.index()]));
            values[net.index()] = kind.eval(ins);
        }
    }

    /// Next register state given settled values.
    pub fn next_state(&self, state: &[bool], values: &[bool]) -> Vec<bool> {
        self.nl
            .dffs()
            .iter()
            .enumerate()
            .map(|(i, &dff)| {
                let fanins = self.nl.fanins(dff);
                let d = values[fanins[0].index()];
                if fanins.len() == 2 && !values[fanins[1].index()] {
                    state[i] // hold: enable low
                } else {
                    d
                }
            })
            .collect()
    }

    /// Run one cycle: returns (primary outputs, next state).
    pub fn step(&self, state: &[bool], inputs: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let values = self.settle(state, inputs);
        let outputs = self
            .nl
            .outputs()
            .iter()
            .map(|(net, _)| values[net.index()])
            .collect();
        let next = self.next_state(state, &values);
        (outputs, next)
    }

    /// Run a whole pattern stream from the declared initial state and
    /// return the output trace.
    pub fn run(&self, patterns: &PatternSet) -> Vec<Vec<bool>> {
        let mut state = self.initial_state();
        let mut trace = Vec::with_capacity(patterns.len());
        for p in patterns {
            let (out, next) = self.step(&state, p);
            trace.push(out);
            state = next;
        }
        trace
    }

    /// Count activity over one contiguous shard of the stream.
    ///
    /// `start_state` is the register state before the shard's first
    /// counted cycle. `prev_pattern` is the pattern of the cycle just
    /// before the shard (None for the stream head): the worker re-settles
    /// it, uncounted, to reconstruct the settled values and D inputs the
    /// first counted cycle compares against.
    ///
    /// The shard's cycle stream is split into `64 * L` contiguous chunks
    /// ("virtual streams"), one per lane bit, and the whole netlist
    /// settles all chunks together with one [`GateKind::eval_wide`] sweep
    /// per step. Register state still feeds forward serially *within*
    /// each chunk (that dependence is inherent), so a cone-only forwarding
    /// pass — the same trick the sharded path already plays across
    /// threads — first computes the state entering every chunk, and one
    /// full settle per chunk boundary seeds the cross-chunk toggle and
    /// D-input comparisons. A shard shorter than `64 * L` cycles gets one
    /// cycle per lane, so its forwarding pass is one full settle per
    /// cycle. All counts are exact integer popcounts over the per-cycle
    /// comparisons [`SeqSim::step`] implies, so the result is
    /// bit-identical to stepping the stream one cycle at a time.
    fn shard_counts<const L: usize>(
        &self,
        start_state: &[bool],
        prev_pattern: Option<&[bool]>,
        patterns: &[Vec<bool>],
        arena: &mut SeqArena,
        budget: &ResourceBudget,
    ) -> Result<SeqCounts, BudgetExceeded> {
        let lane_bits = 64 * L;
        let n = self.nl.len();
        let ndff = self.nl.num_dffs();
        let cycles = patterns.len();
        let len = cycles.div_ceil(lane_bits);
        let mut counts = SeqCounts {
            toggles: vec![0u64; n],
            ones: vec![0u64; n],
            ff_out: vec![0u64; ndff],
            ff_in: vec![0u64; ndff],
            ff_load: vec![0u64; ndff],
        };
        arena.w_state.clear();
        arena.w_state.resize(ndff * L, 0);
        arena.w_prev.clear();
        arena.w_prev.resize(n * L, 0);
        arena.w_prev_d.clear();
        arena.w_prev_d.resize(ndff * L, 0);
        arena.w_vals.clear();
        arena.w_vals.resize(n * L, 0);
        // Lanes whose step-0 cycle has a predecessor to compare against.
        let mut prev_valid = [0u64; L];

        // Chunk 0 starts from the shard's entry state: re-settle the
        // uncounted previous pattern if the shard has one.
        arena.state.clear();
        arena.state.extend_from_slice(start_state);
        if let Some(p) = prev_pattern {
            self.settle_into(
                &arena.state,
                p,
                &mut arena.prev_values,
                &mut arena.ins,
                &self.order,
            );
            prev_valid[0] |= 1;
            for i in 0..n {
                if arena.prev_values[i] {
                    arena.w_prev[i * L] |= 1;
                }
            }
            for (r, &dff) in self.nl.dffs().iter().enumerate() {
                if arena.prev_values[self.nl.fanins(dff)[0].index()] {
                    arena.w_prev_d[r * L] |= 1;
                }
            }
            let next = self.next_state(&arena.state, &arena.prev_values);
            arena.state.clear();
            arena.state.extend_from_slice(&next);
        }
        for (r, &s) in arena.state.iter().enumerate() {
            if s {
                arena.w_state[r * L] |= 1;
            }
        }

        // Serial forwarding pass over the flip-flop cone: register state
        // entering each chunk, plus a full settle at each chunk boundary.
        let mut c = 0usize;
        for lane in 1..lane_bits {
            let target = lane * len;
            if target >= cycles {
                break; // this chunk (and all later ones) is empty
            }
            while c < target {
                if c & 0x3F == 0 {
                    budget.check_deadline()?;
                }
                let boundary = c == target - 1;
                let subset = if boundary {
                    &self.order
                } else {
                    &self.state_order
                };
                self.settle_into(
                    &arena.state,
                    &patterns[c],
                    &mut arena.values,
                    &mut arena.ins,
                    subset,
                );
                let next = self.next_state(&arena.state, &arena.values);
                if boundary {
                    let (w, b) = (lane / 64, lane % 64);
                    prev_valid[w] |= 1 << b;
                    for i in 0..n {
                        if arena.values[i] {
                            arena.w_prev[i * L + w] |= 1 << b;
                        }
                    }
                    for (r, &dff) in self.nl.dffs().iter().enumerate() {
                        if arena.values[self.nl.fanins(dff)[0].index()] {
                            arena.w_prev_d[r * L + w] |= 1 << b;
                        }
                    }
                    for (r, &s) in next.iter().enumerate() {
                        if s {
                            arena.w_state[r * L + w] |= 1 << b;
                        }
                    }
                }
                arena.state.clear();
                arena.state.extend_from_slice(&next);
                c += 1;
            }
        }

        // Word-parallel main pass: step `t` evaluates cycle
        // `lane * len + t` of every still-live chunk at once. Live lanes
        // always form a prefix (chunk starts are evenly spaced), so tail
        // masking is a prefix mask.
        for t in 0..len {
            budget.check_deadline()?;
            let nvalid = (cycles - 1 - t) / len + 1;
            let mask = prefix_mask::<L>(nvalid);
            for (i, &pi) in self.nl.inputs().iter().enumerate() {
                let base = pi.index() * L;
                arena.w_vals[base..base + L].fill(0);
                for s in 0..nvalid {
                    if patterns[s * len + t][i] {
                        arena.w_vals[base + s / 64] |= 1 << (s % 64);
                    }
                }
            }
            for (r, &dff) in self.nl.dffs().iter().enumerate() {
                arena.w_vals[dff.index() * L..][..L].copy_from_slice(&arena.w_state[r * L..][..L]);
            }
            for &net in &self.order {
                let kind = self.nl.kind(net);
                if kind.is_source() || kind == GateKind::Dff {
                    if let GateKind::Const(v) = kind {
                        arena.w_vals[net.index() * L..][..L].fill(if v { u64::MAX } else { 0 });
                    }
                    continue;
                }
                arena.w_ins.clear();
                for f in self.nl.fanins(net) {
                    arena
                        .w_ins
                        .extend_from_slice(&arena.w_vals[f.index() * L..][..L]);
                }
                let out = kind.eval_wide::<L>(&arena.w_ins);
                arena.w_vals[net.index() * L..][..L].copy_from_slice(&out);
            }
            // Toggles at step 0 only count lanes with a seeded predecessor.
            let tmask: [u64; L] = if t == 0 {
                std::array::from_fn(|w| mask[w] & prev_valid[w])
            } else {
                mask
            };
            for i in 0..n {
                let vw = &arena.w_vals[i * L..][..L];
                let pw = &arena.w_prev[i * L..][..L];
                for w in 0..L {
                    counts.ones[i] += u64::from((vw[w] & mask[w]).count_ones());
                    counts.toggles[i] += u64::from(((vw[w] ^ pw[w]) & tmask[w]).count_ones());
                }
            }
            for (r, &dff) in self.nl.dffs().iter().enumerate() {
                let fanins = self.nl.fanins(dff);
                let d_base = fanins[0].index() * L;
                for w in 0..L {
                    let d = arena.w_vals[d_base + w];
                    counts.ff_in[r] +=
                        u64::from(((d ^ arena.w_prev_d[r * L + w]) & tmask[w]).count_ones());
                    let en = if fanins.len() == 2 {
                        arena.w_vals[fanins[1].index() * L + w]
                    } else {
                        u64::MAX
                    };
                    let st = arena.w_state[r * L + w];
                    let next = (en & d) | (!en & st);
                    counts.ff_out[r] += u64::from(((next ^ st) & mask[w]).count_ones());
                    counts.ff_load[r] += u64::from((en & mask[w]).count_ones());
                    arena.w_state[r * L + w] = next;
                    arena.w_prev_d[r * L + w] = d;
                }
            }
            std::mem::swap(&mut arena.w_vals, &mut arena.w_prev);
        }
        Ok(counts)
    }

    /// Measure sequential activity over a pattern stream.
    pub fn activity(&self, patterns: &PatternSet) -> SeqActivity {
        self.activity_jobs(patterns, 1)
    }

    /// [`SeqSim::activity`] under a [`ResourceBudget`] (serial).
    pub fn try_activity(
        &self,
        patterns: &PatternSet,
        budget: &ResourceBudget,
    ) -> Result<SeqActivity, BudgetExceeded> {
        self.try_activity_jobs(patterns, 1, budget)
    }

    /// [`SeqSim::activity`] sharded over up to `jobs` worker threads
    /// (`0` = all cores).
    ///
    /// Register state carries across every cycle, so a cheap serial
    /// forward pass first computes the state at each shard boundary — it
    /// evaluates only the fanin cone of the flip-flop D/enable nets
    /// ([`state_order`](SeqSim::new)), not the whole netlist. Workers then
    /// measure their shards in parallel with full settles, and integer
    /// counts merge in fixed shard order: the result is **bit-identical**
    /// to the serial run for every thread count. (Amdahl caps the speedup
    /// at full-settle-cost / cone-settle-cost; circuits whose combinational
    /// bulk does not feed state parallelize best.)
    pub fn activity_jobs(&self, patterns: &PatternSet, jobs: usize) -> SeqActivity {
        match self.try_activity_jobs(patterns, jobs, &ResourceBudget::unlimited()) {
            Ok(a) => a,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`SeqSim::activity_jobs`] under a [`ResourceBudget`].
    ///
    /// Like the zero-delay combinational engine, total work is known up
    /// front (`cycles × nets` evaluations, plus the state-forwarding pass),
    /// so the step limit is enforced by a single precheck; the deadline is
    /// polled once per 64 cycles inside each shard.
    pub fn try_activity_jobs(
        &self,
        patterns: &PatternSet,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<SeqActivity, BudgetExceeded> {
        let n = patterns.len();
        budget.check_sim_steps(n as u64 * self.nl.len().max(1) as u64)?;
        budget.check_deadline()?;
        let shards = par::num_threads(jobs).min(n.max(1)).max(1);
        let ranges = par::shard_ranges(n, shards);
        let counts = if ranges.len() <= 1 {
            par::record_shard_gauges(&self.obs, "seq", &[n]);
            vec![self.shard_counts::<LANES>(
                &self.initial_state(),
                None,
                patterns,
                &mut SeqArena::default(),
                budget,
            )?]
        } else {
            // Serial state-forwarding pass over the flip-flop cone: record
            // the register state entering cycle `start - 1` of every shard
            // after the first.
            let mut checkpoints: Vec<Vec<bool>> = Vec::with_capacity(ranges.len() - 1);
            let mut state = self.initial_state();
            let mut values = Vec::new();
            let mut ins = Vec::new();
            let last_needed = ranges.last().expect("nonempty").start - 1;
            for (c, p) in patterns.iter().enumerate().take(last_needed + 1) {
                if c & 0x3F == 0 {
                    budget.check_deadline()?;
                }
                if ranges[checkpoints.len() + 1].start - 1 == c {
                    checkpoints.push(state.clone());
                    if checkpoints.len() == ranges.len() - 1 {
                        break;
                    }
                }
                self.settle_into(&state, p, &mut values, &mut ins, &self.state_order);
                state = self.next_state(&state, &values);
            }
            // One shard's work: (register state entering the shard,
            // uncounted previous pattern, counted patterns).
            type Shard<'a> = (Vec<bool>, Option<&'a [bool]>, &'a [Vec<bool>]);
            let work: Vec<Shard> = ranges
                .iter()
                .enumerate()
                .map(|(s, r)| {
                    if s == 0 {
                        (self.initial_state(), None, &patterns[r.start..r.end])
                    } else {
                        (
                            checkpoints[s - 1].clone(),
                            Some(patterns[r.start - 1].as_slice()),
                            &patterns[r.start..r.end],
                        )
                    }
                })
                .collect();
            if self.obs.is_enabled() {
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                par::record_shard_gauges(&self.obs, "seq", &sizes);
            }
            par::par_map_with(
                &work,
                shards,
                SeqArena::default,
                |_, (start, prev, slice), arena| {
                    self.shard_counts::<LANES>(start, *prev, slice, arena, budget)
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
        };
        // Fixed-order deterministic reduction.
        let nn = self.nl.len();
        let ndff = self.nl.num_dffs();
        let mut toggles = vec![0u64; nn];
        let mut ones = vec![0u64; nn];
        let mut ff_out = vec![0u64; ndff];
        let mut ff_in = vec![0u64; ndff];
        let mut ff_load = vec![0u64; ndff];
        for c in &counts {
            for i in 0..nn {
                toggles[i] += c.toggles[i];
                ones[i] += c.ones[i];
            }
            for i in 0..ndff {
                ff_out[i] += c.ff_out[i];
                ff_in[i] += c.ff_in[i];
                ff_load[i] += c.ff_load[i];
            }
        }
        if self.obs.is_enabled() {
            self.obs.add("sim.seq.cycles", n as u64);
            self.obs
                .add("sim.seq.ff_loads", ff_load.iter().copied().sum());
        }
        let cycles = n;
        let denom = cycles.saturating_sub(1).max(1) as f64;
        Ok(SeqActivity {
            profile: ActivityProfile {
                toggles: toggles.iter().map(|&t| t as f64 / denom).collect(),
                probability: ones
                    .iter()
                    .map(|&o| o as f64 / cycles.max(1) as f64)
                    .collect(),
                cycles,
            },
            ff_output_toggles: ff_out
                .iter()
                .map(|&t| t as f64 / cycles.max(1) as f64)
                .collect(),
            ff_input_toggles: ff_in.iter().map(|&t| t as f64 / denom).collect(),
            ff_load_fraction: ff_load
                .iter()
                .map(|&l| l as f64 / cycles.max(1) as f64)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{counter, lfsr, pipelined_multiplier, shift_register};

    #[test]
    fn counter_trace() {
        let nl = counter(4);
        let sim = SeqSim::new(&nl);
        let patterns: PatternSet = (0..10).map(|_| vec![true]).collect();
        let trace = sim.run(&patterns);
        for (k, out) in trace.iter().enumerate() {
            let v: usize = out
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as usize) << i)
                .sum();
            assert_eq!(v, k % 16, "cycle {k}");
        }
    }

    #[test]
    fn lfsr_activity_is_high() {
        let nl = lfsr(8, &[7, 5, 4, 3]);
        let sim = SeqSim::new(&nl);
        let patterns: PatternSet = (0..300).map(|_| vec![]).collect();
        let activity = sim.activity(&patterns);
        // A maximal-ish LFSR keeps its bits near p=0.5 and toggling.
        let avg: f64 = activity.ff_output_toggles.iter().sum::<f64>() / 8.0;
        assert!(avg > 0.3, "avg ff toggle {avg}");
    }

    #[test]
    fn shift_register_ff_toggles_track_input() {
        let nl = shift_register(4);
        let sim = SeqSim::new(&nl);
        // Constant input: after flushing, no toggles at all.
        let patterns: PatternSet = (0..50).map(|_| vec![true]).collect();
        let activity = sim.activity(&patterns);
        for (i, &t) in activity.ff_output_toggles.iter().enumerate() {
            assert!(t < 0.15, "stage {i} toggles {t}");
        }
    }

    #[test]
    fn enabled_dff_holds_and_load_fraction_measured() {
        // Register with enable tied to an input; data toggles every cycle.
        let mut nl = netlist::Netlist::new("gated");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.add_dff_en(d, en, false);
        nl.mark_output(q, "q");
        let sim = SeqSim::new(&nl);
        // Enable low half the time.
        let patterns: PatternSet = (0..100).map(|k| vec![k % 2 == 0, k % 4 < 2]).collect();
        let activity = sim.activity(&patterns);
        assert!((activity.ff_load_fraction[0] - 0.5).abs() < 0.05);
        // Output toggles less often than data input.
        assert!(activity.ff_output_toggles[0] < activity.ff_input_toggles[0]);
    }

    #[test]
    fn parallel_seq_activity_is_bit_identical() {
        use crate::stimulus::Stimulus;
        let nl = pipelined_multiplier(4);
        let sim = SeqSim::new(&nl);
        let patterns = Stimulus::uniform(8).patterns(333, 19);
        let serial = sim.activity(&patterns);
        for jobs in [1, 2, 3, 4, 7, 8] {
            let par = sim.activity_jobs(&patterns, jobs);
            assert_eq!(par.profile, serial.profile, "profile, jobs={jobs}");
            assert_eq!(
                par.ff_output_toggles, serial.ff_output_toggles,
                "jobs={jobs}"
            );
            assert_eq!(par.ff_input_toggles, serial.ff_input_toggles, "jobs={jobs}");
            assert_eq!(par.ff_load_fraction, serial.ff_load_fraction, "jobs={jobs}");
        }
    }

    #[test]
    fn seq_step_budget_prechecks_work() {
        use crate::stimulus::Stimulus;
        let nl = pipelined_multiplier(4);
        let sim = SeqSim::new(&nl);
        let patterns = Stimulus::uniform(8).patterns(50, 3);
        let work = 50 * nl.len() as u64;
        let tight = ResourceBudget::unlimited().with_max_sim_steps(work);
        assert!(sim.try_activity(&patterns, &tight).is_err());
        let roomy = ResourceBudget::unlimited().with_max_sim_steps(work + 1);
        let guarded = sim.try_activity(&patterns, &roomy).unwrap();
        let plain = sim.activity(&patterns);
        assert_eq!(
            guarded.profile, plain.profile,
            "budget path is bit-identical"
        );
        for jobs in [2, 4] {
            let p = sim.try_activity_jobs(&patterns, jobs, &roomy).unwrap();
            assert_eq!(p.profile, plain.profile, "jobs={jobs}");
        }
    }

    #[test]
    fn pipelined_multiplier_outputs_eventually_correct() {
        let nl = pipelined_multiplier(4);
        let sim = SeqSim::new(&nl);
        let a = 11u64;
        let b = 13u64;
        let input: Vec<bool> = (0..4)
            .map(|i| a >> i & 1 == 1)
            .chain((0..4).map(|i| b >> i & 1 == 1))
            .collect();
        let patterns: PatternSet = (0..4).map(|_| input.clone()).collect();
        let trace = sim.run(&patterns);
        let last = trace.last().unwrap();
        let v: u64 = last.iter().enumerate().map(|(i, &x)| (x as u64) << i).sum();
        assert_eq!(v, a * b);
    }

    #[test]
    fn ff_outputs_switch_less_than_inputs_on_glitchless_counter() {
        // Even without glitches, the D of high counter bits computes
        // carries that change more often than the stored bit flips.
        let nl = counter(6);
        let sim = SeqSim::new(&nl);
        let patterns: PatternSet = (0..200).map(|_| vec![true]).collect();
        let activity = sim.activity(&patterns);
        let in_total: f64 = activity.ff_input_toggles.iter().sum();
        let out_total: f64 = activity.ff_output_toggles.iter().sum();
        assert!(out_total <= in_total + 1e-9);
    }
}
