//! Bit-parallel zero-delay functional simulation.
//!
//! Packs 64 consecutive input patterns into one machine word per net and
//! evaluates the whole netlist in topological order. Transition counts are
//! *functional* (settled value changes between cycles) — the lower bound a
//! perfectly path-balanced circuit would achieve.

use budget::{BudgetExceeded, ResourceBudget};
use netlist::{NetId, Netlist};

use crate::par;
use crate::profile::ActivityProfile;
use crate::stimulus::{PackedPatterns, PatternSet};
use crate::sweep;
use crate::wide::{prefix_mask, LANES};

/// Reusable scratch buffers for [`CombSim`] hot loops.
///
/// One arena per worker thread: the estimation loops evaluate thousands of
/// 64-pattern blocks, and reusing these buffers removes every per-block
/// allocation (`values`, fanin scratch, packed input words).
#[derive(Debug, Default)]
pub struct CombArena {
    values: Vec<u64>,
    scratch: Vec<u64>,
    words: Vec<u64>,
}

impl CombArena {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> CombArena {
        CombArena::default()
    }
}

/// Raw integer counts from one contiguous shard of a pattern stream.
/// Merged in fixed shard order by [`CombSim::activity_jobs`].
struct ShardCounts {
    toggles: Vec<u64>,
    ones: Vec<u64>,
    /// Settled values of the shard's first cycle (for the cross-shard
    /// boundary toggle with the previous shard's `last`).
    first: Vec<bool>,
    last: Vec<bool>,
    cycles: usize,
}

/// Zero-delay bit-parallel simulator bound to one netlist.
#[derive(Debug)]
pub struct CombSim<'a> {
    nl: &'a Netlist,
    order: Vec<NetId>,
    obs: obs::Obs,
}

impl<'a> CombSim<'a> {
    /// Bind a simulator to a combinational netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or cyclic (use
    /// [`crate::seq::SeqSim`] for sequential circuits).
    pub fn new(nl: &'a Netlist) -> CombSim<'a> {
        assert!(
            nl.is_combinational(),
            "CombSim requires combinational netlist"
        );
        let order = nl.topo_order().expect("netlist must be acyclic");
        CombSim {
            nl,
            order,
            obs: obs::Obs::disabled(),
        }
    }

    /// Attach an observability handle. Work counters (`sim.comb.cycles`,
    /// `sim.comb.gate_evals`) flush once per successful activity run; the
    /// per-block hot loop never touches the handle.
    pub fn with_obs(mut self, obs: obs::Obs) -> CombSim<'a> {
        self.obs = obs;
        self
    }

    /// Evaluate a block of up to 64 patterns; `words[i]` holds the packed
    /// values of input `i` (bit `k` = value in pattern `k`). Returns packed
    /// values per net.
    pub fn eval_words(&self, words: &[u64]) -> Vec<u64> {
        assert_eq!(words.len(), self.nl.num_inputs(), "input word count");
        let mut values = Vec::new();
        self.eval_wide_into::<1>(words, 1, &mut values, &mut Vec::new());
        values
    }

    /// Evaluate `L` 64-pattern blocks in one pass over the netlist (one
    /// wide word — 256 patterns at `L = LANES` — per net).
    ///
    /// Input `i`'s `L` lane words are read from
    /// `inputs[i * stride ..][..L]`, so a sub-slice of one
    /// [`PackedPatterns::wide_block`] (stride [`LANES`]) feeds any `L` that
    /// divides [`LANES`] with no gather. `values` comes back lane-grouped
    /// (`values[L*net + lane]` is block `lane`'s word for `net`), as
    /// [`sweep::settle`] lays it out, so each gate's lanes sit in one cache
    /// line and the per-gate fold vectorizes with **no per-block gather**.
    /// Lane `lane` is bit-identical to the same sweep at `L = 1` over that
    /// lane's block.
    fn eval_wide_into<const L: usize>(
        &self,
        inputs: &[u64],
        stride: usize,
        values: &mut Vec<u64>,
        scratch: &mut Vec<u64>,
    ) {
        values.clear();
        values.resize(L * self.nl.len(), 0);
        for (i, &pi) in self.nl.inputs().iter().enumerate() {
            values[L * pi.index()..][..L].copy_from_slice(&inputs[i * stride..][..L]);
        }
        sweep::settle::<L>(self.nl, &self.order, values, scratch, |_| false);
    }

    /// Evaluate a full pattern set; returns the output values per cycle.
    pub fn eval_outputs(&self, patterns: &PatternSet) -> Vec<Vec<bool>> {
        let mut arena = CombArena::new();
        let mut out = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks(64) {
            pack_into(chunk, self.nl.num_inputs(), &mut arena.words);
            self.eval_wide_into::<1>(&arena.words, 1, &mut arena.values, &mut arena.scratch);
            for (k, _) in chunk.iter().enumerate() {
                out.push(
                    self.nl
                        .outputs()
                        .iter()
                        .map(|(net, _)| arena.values[net.index()] >> k & 1 == 1)
                        .collect(),
                );
            }
        }
        out
    }

    /// Count toggles/ones over one contiguous run of pre-packed 64-cycle
    /// blocks, `L` blocks per pass over the netlist
    /// ([`CombSim::eval_wide_into`], zero input gather), reusing the
    /// arena's buffers. The stream's last group may hold fewer than
    /// `64 * L` valid cycles; [`accumulate_group`] masks it. Deadline
    /// checks are amortized to one clock read per 16 blocks (~1024
    /// cycles) so the budgeted path adds nothing measurable to the hot
    /// loop.
    ///
    /// Shard boundaries are aligned to [`LANES`]-block groups by the
    /// caller, so `blocks.start` is a multiple of `L`.
    fn shard_counts<const L: usize>(
        &self,
        packed: &PackedPatterns,
        blocks: std::ops::Range<usize>,
        arena: &mut CombArena,
        budget: &ResourceBudget,
    ) -> Result<ShardCounts, BudgetExceeded> {
        const {
            assert!(
                LANES.is_multiple_of(L),
                "a group must sit inside one packed wide block"
            )
        };
        let n = self.nl.len();
        let mut counts = ShardCounts {
            toggles: vec![0u64; n],
            ones: vec![0u64; n],
            first: vec![false; n],
            last: vec![false; n],
            cycles: 0,
        };
        for block in blocks.clone().step_by(L) {
            if (block - blocks.start) & 0xF == 0 {
                budget.check_deadline()?;
            }
            let group = &packed.wide_block(block / LANES)[block % LANES..];
            self.eval_wide_into::<L>(group, LANES, &mut arena.values, &mut arena.scratch);
            let valid = (packed.cycles() - 64 * block).min(64 * L);
            accumulate_group::<L>(&mut counts, &arena.values, valid, block > blocks.start);
            counts.cycles += valid;
        }
        Ok(counts)
    }

    /// Measure the zero-delay activity profile over a pattern stream.
    ///
    /// Toggles are counted between consecutive cycles, including across
    /// 64-pattern block boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the patterns' width is not the netlist's input count, as
    /// every activity entry point does.
    pub fn activity(&self, patterns: &PatternSet) -> ActivityProfile {
        self.activity_jobs(patterns, 1)
    }

    /// [`CombSim::activity`] under a [`ResourceBudget`] (serial).
    pub fn try_activity(
        &self,
        patterns: &PatternSet,
        budget: &ResourceBudget,
    ) -> Result<ActivityProfile, BudgetExceeded> {
        self.try_activity_jobs(patterns, 1, budget)
    }

    /// [`CombSim::activity`] sharded over up to `jobs` worker threads
    /// (`0` = all cores).
    ///
    /// The stream splits into contiguous runs of 64-pattern blocks, one
    /// worker arena per shard; per-shard integer counts merge in fixed
    /// shard order (adding the one boundary toggle between consecutive
    /// shards), so the result is **bit-identical** to the serial profile
    /// for every thread count.
    pub fn activity_jobs(&self, patterns: &PatternSet, jobs: usize) -> ActivityProfile {
        match self.try_activity_jobs(patterns, jobs, &ResourceBudget::unlimited()) {
            Ok(p) => p,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`CombSim::activity_jobs`] under a [`ResourceBudget`].
    ///
    /// Simulation work is `cycles × nets` net evaluations, checked against
    /// the step limit **up front** (the cost of a zero-delay run is known
    /// exactly before it starts), so an over-budget request fails in O(1)
    /// instead of wasting the whole allowance first. The deadline is
    /// polled once per 1024 cycles inside each shard.
    pub fn try_activity_jobs(
        &self,
        patterns: &PatternSet,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<ActivityProfile, BudgetExceeded> {
        self.try_activity_packed_jobs(&PackedPatterns::pack(patterns), jobs, budget)
    }

    /// [`CombSim::activity`] over a pre-packed stream (serial).
    ///
    /// Packing is O(cycles × inputs); optimization loops that re-measure
    /// the same stimulus per candidate should pack once with
    /// [`PackedPatterns::pack`] and call this (or the incremental engine in
    /// [`crate::incr`]) instead of re-packing through the `PatternSet`
    /// entry points.
    pub fn activity_packed(&self, packed: &PackedPatterns) -> ActivityProfile {
        match self.try_activity_packed_jobs(packed, 1, &ResourceBudget::unlimited()) {
            Ok(p) => p,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`CombSim::activity_packed`] with the same kernel instantiated at
    /// one lane: one pass over the netlist per 64 patterns instead of per
    /// `64 * LANES`. Bit-identical to [`CombSim::activity_packed`]; tests
    /// pin the lane-generic kernel against it and benchmarks time the
    /// lanes' speedup in-process.
    pub fn activity_packed_one_lane(&self, packed: &PackedPatterns) -> ActivityProfile {
        match self.try_activity_packed_lanes::<1>(packed, 1, &ResourceBudget::unlimited()) {
            Ok(p) => p,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// [`CombSim::try_activity_jobs`] over a pre-packed stream. All
    /// `PatternSet` entry points funnel here after packing once, so the
    /// counts (and the obs counters) are bit-identical between the packed
    /// and unpacked APIs.
    pub fn try_activity_packed_jobs(
        &self,
        packed: &PackedPatterns,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<ActivityProfile, BudgetExceeded> {
        self.try_activity_packed_lanes::<LANES>(packed, jobs, budget)
    }

    fn try_activity_packed_lanes<const L: usize>(
        &self,
        packed: &PackedPatterns,
        jobs: usize,
        budget: &ResourceBudget,
    ) -> Result<ActivityProfile, BudgetExceeded> {
        // Every activity entry point funnels here.
        assert!(
            packed.cycles() == 0 || packed.width() == self.nl.num_inputs(),
            "pattern width"
        );
        let n = self.nl.len();
        budget.check_sim_steps(packed.cycles() as u64 * n.max(1) as u64)?;
        budget.check_deadline()?;
        let blocks = packed.num_blocks();
        // Shard over wide groups so every shard's block range starts
        // group-aligned.
        let groups = packed.num_wide_blocks();
        let shards = par::num_threads(jobs).min(groups).max(1);
        let counts = if shards <= 1 {
            par::record_shard_gauges(&self.obs, "comb", &[packed.cycles()]);
            vec![self.shard_counts::<L>(packed, 0..blocks, &mut CombArena::new(), budget)?]
        } else {
            let ranges: Vec<std::ops::Range<usize>> = par::shard_ranges(groups, shards)
                .into_iter()
                .map(|r| (r.start * LANES)..(r.end * LANES).min(blocks))
                .collect();
            if self.obs.is_enabled() {
                let sizes: Vec<usize> = ranges
                    .iter()
                    .map(|r| (r.end * 64).min(packed.cycles()) - r.start * 64)
                    .collect();
                par::record_shard_gauges(&self.obs, "comb", &sizes);
            }
            par::par_map_with(&ranges, shards, CombArena::new, |_, range, arena| {
                self.shard_counts::<L>(packed, range.clone(), arena, budget)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
        };
        // Fixed-order deterministic reduction.
        let mut toggles = vec![0u64; n];
        let mut ones = vec![0u64; n];
        let mut cycles = 0usize;
        for (s, c) in counts.iter().enumerate() {
            cycles += c.cycles;
            for i in 0..n {
                toggles[i] += c.toggles[i];
                ones[i] += c.ones[i];
                // Boundary toggle between shard s-1's last and s's first cycle.
                if s > 0 && counts[s - 1].last[i] != c.first[i] {
                    toggles[i] += 1;
                }
            }
        }
        if self.obs.is_enabled() {
            // Counted analytically at the merge point (never per block):
            // every block evaluates each non-source net exactly once, and
            // both totals depend only on the stream, so they are identical
            // for every `jobs` setting.
            self.obs.add("sim.comb.cycles", cycles as u64);
            let evaluated = self.nl.len() - self.nl.num_inputs();
            self.obs
                .add("sim.comb.gate_evals", blocks as u64 * evaluated as u64);
        }
        let denom = (cycles.saturating_sub(1)).max(1) as f64;
        Ok(ActivityProfile {
            toggles: toggles.iter().map(|&t| t as f64 / denom).collect(),
            probability: ones
                .iter()
                .map(|&o| o as f64 / cycles.max(1) as f64)
                .collect(),
            cycles,
        })
    }

    /// Check functional equivalence with another netlist over a pattern set
    /// (same input count and output count required). Returns the first
    /// mismatching cycle, if any.
    pub fn equivalent_on(&self, other: &Netlist, patterns: &PatternSet) -> Option<usize> {
        let other_sim = CombSim::new(other);
        let a = self.eval_outputs(patterns);
        let b = other_sim.eval_outputs(patterns);
        a.iter().zip(b.iter()).position(|(x, y)| x != y)
    }
}

/// Fold one evaluated group of `L` blocks (lane-grouped as produced by
/// [`CombSim::eval_wide_into`]) holding `valid` cycles into the shard
/// counts, in a single pass over `values`. Bits past `valid` (a ragged
/// last group's padding) are cut off with a [`prefix_mask`]. Within a
/// lane, toggles are `v XOR (v >> 1)` over the valid positions; across
/// lanes they compare lane `l - 1`'s bit 63 with lane `l`'s bit 0; across
/// groups they go through `counts.last`. One pass instead of `L` strided
/// ones matters: accumulation is roughly half the packed sweep, and this
/// keeps each net's lanes in one cache line with the popcounts pipelined.
#[inline(always)]
fn accumulate_group<const L: usize>(
    counts: &mut ShardCounts,
    values: &[u64],
    valid: usize,
    have_prev: bool,
) {
    let n = counts.toggles.len();
    let mask = prefix_mask::<L>(valid);
    // Position `k` toggles when bit `k + 1` differs, so it needs both valid.
    let within: [u64; L] = std::array::from_fn(|l| mask[l] >> 1);
    let (last_lane, last_bit) = ((valid - 1) / 64, (valid - 1) % 64);
    for i in 0..n {
        let v: &[u64] = &values[i * L..(i + 1) * L];
        let mut ones = 0u64;
        let mut toggles = 0u64;
        for l in 0..L {
            ones += (v[l] & mask[l]).count_ones() as u64;
            toggles += ((v[l] ^ (v[l] >> 1)) & within[l]).count_ones() as u64;
        }
        for l in 1..L {
            toggles += ((v[l - 1] >> 63) ^ v[l]) & mask[l] & 1;
        }
        if have_prev && counts.last[i] != (v[0] & 1 == 1) {
            toggles += 1;
        }
        if !have_prev {
            counts.first[i] = v[0] & 1 == 1;
        }
        counts.last[i] = v[last_lane] >> last_bit & 1 == 1;
        counts.ones[i] += ones;
        counts.toggles[i] += toggles;
    }
}

/// Pack per-cycle patterns into one word per input, reusing `words`.
fn pack_into(chunk: &[Vec<bool>], width: usize, words: &mut Vec<u64>) {
    words.clear();
    words.resize(width, 0);
    for (k, pattern) in chunk.iter().enumerate() {
        assert_eq!(pattern.len(), width, "pattern width");
        for (i, &b) in pattern.iter().enumerate() {
            if b {
                words[i] |= 1 << k;
            }
        }
    }
}

/// Exhaustively check two small combinational netlists for equivalence.
///
/// # Panics
///
/// Panics if the netlists have more than 20 inputs or differing interfaces.
pub fn equivalent_exhaustive(a: &Netlist, b: &Netlist) -> bool {
    assert_eq!(a.num_inputs(), b.num_inputs(), "input count differs");
    assert_eq!(a.num_outputs(), b.num_outputs(), "output count differs");
    let n = a.num_inputs();
    assert!(n <= 20, "too many inputs for exhaustive check");
    let patterns: PatternSet = (0..1usize << n)
        .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
        .collect();
    CombSim::new(a).equivalent_on(b, &patterns).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stimulus::Stimulus;
    use netlist::gen::{array_multiplier, parity_tree, ripple_adder};

    #[test]
    fn words_match_scalar_eval() {
        let (nl, _) = ripple_adder(4);
        let sim = CombSim::new(&nl);
        let patterns = Stimulus::uniform(8).patterns(64, 5);
        let outs = sim.eval_outputs(&patterns);
        for (k, pattern) in patterns.iter().enumerate() {
            assert_eq!(outs[k], nl.eval_comb(pattern), "cycle {k}");
        }
    }

    #[test]
    fn partial_block_handled() {
        let nl = parity_tree(6);
        let sim = CombSim::new(&nl);
        let patterns = Stimulus::uniform(6).patterns(37, 9); // not a multiple of 64
        let outs = sim.eval_outputs(&patterns);
        assert_eq!(outs.len(), 37);
        for (k, pattern) in patterns.iter().enumerate() {
            assert_eq!(outs[k], nl.eval_comb(pattern));
        }
    }

    #[test]
    fn activity_counts_known_stream() {
        // Single inverter; input toggles every cycle.
        let mut nl = netlist::Netlist::new("inv");
        let a = nl.add_input("a");
        let y = nl.add_gate(netlist::GateKind::Not, &[a]);
        nl.mark_output(y, "y");
        let patterns: PatternSet = (0..100).map(|k| vec![k % 2 == 1]).collect();
        let profile = CombSim::new(&nl).activity(&patterns);
        assert!((profile.toggles[a.index()] - 1.0).abs() < 1e-9);
        assert!((profile.toggles[y.index()] - 1.0).abs() < 1e-9);
        assert!((profile.probability[a.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn activity_across_block_boundaries() {
        // 130 cycles of alternating input: 129 toggles over 129 steps.
        let mut nl = netlist::Netlist::new("buf");
        let a = nl.add_input("a");
        let y = nl.add_gate(netlist::GateKind::Buf, &[a]);
        nl.mark_output(y, "y");
        let patterns: PatternSet = (0..130).map(|k| vec![k % 2 == 0]).collect();
        let profile = CombSim::new(&nl).activity(&patterns);
        assert!((profile.toggles[y.index()] - 1.0).abs() < 1e-9);
        assert_eq!(profile.cycles, 130);
    }

    #[test]
    fn uniform_inputs_give_half_probability() {
        let (nl, _) = array_multiplier(4);
        let patterns = Stimulus::uniform(8).patterns(2000, 11);
        let profile = CombSim::new(&nl).activity(&patterns);
        for &pi in nl.inputs() {
            assert!((profile.probability[pi.index()] - 0.5).abs() < 0.05);
            assert!((profile.toggles[pi.index()] - 0.5).abs() < 0.05);
        }
    }

    #[test]
    fn exhaustive_equivalence_detects_difference() {
        let (a, _) = ripple_adder(3);
        let (b, _) = ripple_adder(3);
        assert!(equivalent_exhaustive(&a, &b));
        // Build a same-interface circuit that is clearly not an adder.
        let mut c = netlist::Netlist::new("broken");
        let inputs: Vec<_> = (0..6).map(|i| c.add_input(format!("x{i}"))).collect();
        for w in 0..a.num_outputs() {
            let g = c.add_gate(
                netlist::GateKind::Xor,
                &[inputs[w % 6], inputs[(w + 1) % 6]],
            );
            c.mark_output(g, format!("s{w}"));
        }
        assert_eq!(c.num_outputs(), a.num_outputs());
        assert!(!equivalent_exhaustive(&a, &c));
    }

    #[test]
    fn parallel_activity_is_bit_identical() {
        let (nl, _) = array_multiplier(5);
        let sim = CombSim::new(&nl);
        // 1000 cycles: 16 blocks, exercising uneven shard splits and the
        // partial final block.
        let patterns = Stimulus::uniform(10).patterns(1000, 13);
        let serial = sim.activity(&patterns);
        for jobs in [1, 2, 3, 4, 7, 8] {
            let par = sim.activity_jobs(&patterns, jobs);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn eval_wide_matches_single_block_lanes() {
        let (nl, _) = array_multiplier(5);
        let sim = CombSim::new(&nl);
        let packed = Stimulus::uniform(10).packed(64 * LANES, 21);
        let mut wide = vec![0xDEAD_BEEFu64; 3]; // stale garbage must be cleared
        let mut scratch = vec![7u64; 9];
        sim.eval_wide_into::<LANES>(packed.wide_block(0), LANES, &mut wide, &mut scratch);
        for lane in 0..LANES {
            let words: Vec<u64> = (0..10).map(|i| packed.word(i, lane)).collect();
            let narrow = sim.eval_words(&words);
            for i in 0..nl.len() {
                assert_eq!(wide[LANES * i + lane], narrow[i], "net {i} lane {lane}");
            }
        }
    }

    #[test]
    fn one_lane_instantiation_is_bit_identical() {
        let (nl, _) = array_multiplier(5);
        let sim = CombSim::new(&nl);
        for cycles in [1, 64, 100, 256, 777] {
            let packed = Stimulus::correlated(vec![0.4; 10]).packed(cycles, 19);
            assert_eq!(
                sim.activity_packed(&packed),
                sim.activity_packed_one_lane(&packed),
                "cycles={cycles}"
            );
        }
    }

    #[test]
    fn masked_tail_group_matches_per_cycle_eval() {
        // 300 cycles: one full wide group (256) plus a 44-cycle tail group
        // whose padding lanes must not add or lose toggles.
        let (nl, _) = ripple_adder(6);
        let sim = CombSim::new(&nl);
        let patterns = Stimulus::correlated(vec![0.3; 12]).patterns(300, 77);
        let fast = sim.activity(&patterns);
        // Reference: per-cycle evaluation.
        let mut toggles = vec![0u64; nl.len()];
        let mut ones = vec![0u64; nl.len()];
        let mut words = Vec::new();
        let mut prev: Vec<u64> = Vec::new();
        for (k, p) in patterns.iter().enumerate() {
            pack_into(std::slice::from_ref(p), nl.num_inputs(), &mut words);
            let values: Vec<u64> = sim.eval_words(&words).iter().map(|&v| v & 1).collect();
            for i in 0..nl.len() {
                ones[i] += values[i];
                if k > 0 && prev[i] != values[i] {
                    toggles[i] += 1;
                }
            }
            prev = values;
        }
        let denom = (patterns.len() - 1) as f64;
        for i in 0..nl.len() {
            assert!(
                (fast.toggles[i] - toggles[i] as f64 / denom).abs() < 1e-12,
                "net {i}"
            );
            assert!(
                (fast.probability[i] - ones[i] as f64 / patterns.len() as f64).abs() < 1e-12,
                "net {i}"
            );
        }
    }

    #[test]
    fn step_budget_prechecks_work() {
        let (nl, _) = ripple_adder(4);
        let sim = CombSim::new(&nl);
        let patterns = Stimulus::uniform(8).patterns(100, 7);
        let work = 100 * nl.len() as u64;
        let tight = ResourceBudget::unlimited().with_max_sim_steps(work);
        let err = sim.try_activity(&patterns, &tight).unwrap_err();
        assert_eq!(err.resource, budget::Resource::SimSteps);
        assert_eq!(err.used, work);
        let roomy = ResourceBudget::unlimited().with_max_sim_steps(work + 1);
        let ok = sim.try_activity(&patterns, &roomy).unwrap();
        assert_eq!(ok, sim.activity(&patterns), "budget path is bit-identical");
        // Parallel budgeted path matches too.
        for jobs in [2, 4] {
            assert_eq!(sim.try_activity_jobs(&patterns, jobs, &roomy).unwrap(), ok);
        }
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn narrower_stream_is_rejected() {
        let (nl, _) = ripple_adder(2);
        CombSim::new(&nl).activity(&Stimulus::uniform(3).patterns(100, 1));
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wider_stream_is_rejected() {
        let (nl, _) = ripple_adder(2);
        CombSim::new(&nl).activity(&Stimulus::uniform(5).patterns(100, 1));
    }

    #[test]
    fn biased_stream_lowers_activity() {
        let (nl, _) = array_multiplier(4);
        let uniform = Stimulus::uniform(8).patterns(2000, 3);
        let quiet = Stimulus::correlated(vec![0.05; 8]).patterns(2000, 3);
        let sim = CombSim::new(&nl);
        let a_uniform = sim.activity(&uniform).total_toggles_per_cycle();
        let a_quiet = sim.activity(&quiet).total_toggles_per_cycle();
        assert!(
            a_quiet < 0.5 * a_uniform,
            "correlated inputs should slash activity: {a_quiet} vs {a_uniform}"
        );
    }
}
