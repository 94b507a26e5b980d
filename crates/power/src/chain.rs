//! Graceful-degradation estimation chain.
//!
//! Power estimation in this workspace has three tiers of decreasing
//! fidelity and decreasing cost:
//!
//! 1. **Exact BDD** ([`crate::exact`]) — exact signal probabilities, but
//!    exponential on hostile cones;
//! 2. **Probabilistic propagation** ([`crate::prob`]) — linear sweeps,
//!    approximate on reconvergent fanout;
//! 3. **Sampled simulation** ([`sim::comb`] / [`sim::seq`]) — Monte-Carlo
//!    over a pseudo-random stimulus, always applicable, noisy.
//!
//! [`estimate_activity`] walks the tiers in order under one shared
//! [`ResourceBudget`]: a tier that exhausts the budget is recorded and the
//! next one runs with whatever wall-clock remains (node and step limits
//! are per-resource, so a blown BDD budget does not starve the samplers).
//! The answer carries the tier that produced it plus every failed attempt,
//! so callers — the `lpopt` CLI, optimization passes — can report *how*
//! degraded their number is instead of silently lying.

use std::time::Duration;

use budget::{BudgetExceeded, ResourceBudget};
use netlist::Netlist;
use sim::comb::CombSim;
use sim::seq::SeqSim;
use sim::stimulus::{PackedPatterns, PatternSet, Stimulus};
use sim::ActivityProfile;

use crate::exact;
use crate::model::{PowerParams, PowerReport};
use crate::prob;

/// One estimation tier, in decreasing fidelity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Exact signal probabilities via global BDDs.
    ExactBdd,
    /// Correlation-free probability propagation.
    Probabilistic,
    /// Monte-Carlo simulation over a sampled stimulus.
    SampledSim,
}

impl Tier {
    /// Stable lowercase name, used in CLI output and logs.
    pub fn name(self) -> &'static str {
        match self {
            Tier::ExactBdd => "exact-bdd",
            Tier::Probabilistic => "probabilistic",
            Tier::SampledSim => "sampled-sim",
        }
    }
}

/// What happened when one tier ran.
///
/// The abandonment reason is kept as the full typed [`BudgetExceeded`] —
/// resource, limit, *and* actual usage — so a deadline overrun and a node
/// blowup stay distinguishable all the way up to the CLI report and the
/// `chain.abandoned.<resource>` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierOutcome {
    /// The tier produced the estimate.
    Answered,
    /// The tier exhausted the budget and the chain moved on.
    Abandoned(BudgetExceeded),
}

impl TierOutcome {
    /// The exhaustion error, if this tier was abandoned.
    pub fn abandoned(&self) -> Option<&BudgetExceeded> {
        match self {
            TierOutcome::Abandoned(e) => Some(e),
            TierOutcome::Answered => None,
        }
    }

    /// Whether this tier produced the answer.
    pub fn is_answered(&self) -> bool {
        matches!(self, TierOutcome::Answered)
    }
}

/// Outcome of trying one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierAttempt {
    /// The tier that was tried.
    pub tier: Tier,
    /// How the tier ended.
    pub outcome: TierOutcome,
    /// Time spent in the tier, read from the chain's observability clock
    /// ([`ChainConfig::obs`]). [`Duration::ZERO`] when no handle is
    /// attached, and deterministic (usually zero) under an injected
    /// manual clock — which is what lets golden tests compare reports
    /// byte-for-byte.
    pub elapsed: Duration,
}

/// Configuration for the degradation chain.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Per-primary-input one-probabilities (`None` = uniform 0.5). Wrong
    /// widths are normalized: extra entries ignored, missing ones 0.5.
    pub input_probs: Option<Vec<f64>>,
    /// Cycles the sampled tier simulates (shrunk automatically to fit the
    /// step budget).
    pub sample_cycles: usize,
    /// Seed for the sampled tier's stimulus.
    pub seed: u64,
    /// Worker threads for the sampled tier (`0` = all cores).
    pub jobs: usize,
    /// Tiers to try, in order. Defaults to all three; tests pin a single
    /// tier to compare it against its ground truth directly.
    pub tiers: Vec<Tier>,
    /// Variable-ordering policy for the exact tier: a static seed order
    /// plus a dynamic reorder schedule (see [`crate::order`]). The
    /// default (`natural+off`) is the fixed-order build, bit for bit.
    pub reorder: crate::order::ReorderConfig,
    /// Observability handle threaded into every tier: per-tier spans
    /// (`tier.<name>`), attempt counters (`chain.attempts`,
    /// `chain.answered`, `chain.abandoned.<resource>`), BDD manager
    /// counters and the simulators' work counters. The default (disabled)
    /// handle costs one null check per operation.
    pub obs: obs::Obs,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            input_probs: None,
            sample_cycles: 1024,
            seed: 42,
            jobs: 1,
            tiers: vec![Tier::ExactBdd, Tier::Probabilistic, Tier::SampledSim],
            reorder: crate::order::ReorderConfig::default(),
            obs: obs::Obs::disabled(),
        }
    }
}

/// A tier-tagged activity estimate.
#[derive(Debug, Clone)]
pub struct ChainEstimate {
    /// The estimated per-net activity profile.
    pub profile: ActivityProfile,
    /// The tier that answered.
    pub tier: Tier,
    /// Every tier tried, in order (the last one has `error: None`).
    pub attempts: Vec<TierAttempt>,
}

impl ChainEstimate {
    /// Whether a higher-fidelity tier had to be abandoned.
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// The chain failed: every configured tier exhausted the budget.
#[derive(Debug, Clone)]
pub struct ChainError {
    /// Every failed attempt, in order.
    pub attempts: Vec<TierAttempt>,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all estimation tiers exhausted:")?;
        for a in &self.attempts {
            match a.outcome.abandoned() {
                Some(e) => write!(f, " [{}: {e}]", a.tier.name())?,
                None => write!(f, " [{}: ok]", a.tier.name())?,
            }
        }
        Ok(())
    }
}

impl std::error::Error for ChainError {}

/// Everything that determines a generated stimulus stream, so a resident
/// cache can tell "same stream again" from "new stream".
#[derive(Debug, Clone, PartialEq)]
struct StimKey {
    width: usize,
    cycles: usize,
    seed: u64,
    /// Bit patterns of the biased per-input probabilities; `None` for the
    /// uniform stimulus. Bits, not floats, so the key stays `Eq`-clean.
    bias: Option<Vec<u64>>,
}

impl StimKey {
    fn new(cfg: &ChainConfig, probs: &[f64], width: usize, cycles: usize) -> StimKey {
        StimKey {
            width,
            cycles,
            seed: cfg.seed,
            bias: cfg
                .input_probs
                .is_some()
                .then(|| probs.iter().map(|p| p.to_bits()).collect()),
        }
    }
}

/// Resident stimulus for the sampled tier: the packed (combinational) and
/// per-cycle (sequential) forms of the last stream generated, keyed on
/// everything that determines the stream. Long-lived callers — the serve
/// workers hold one next to their [`exact::CircuitBddCache`] — regenerate
/// and re-transpose nothing when consecutive jobs share a stimulus spec,
/// which is the common case for optimization loops hammering one circuit
/// family with a fixed seed.
#[derive(Debug, Default)]
pub struct StimulusCache {
    packed_key: Option<StimKey>,
    packed: Option<PackedPatterns>,
    seq_key: Option<StimKey>,
    seq: Option<PatternSet>,
    hits: u64,
}

impl StimulusCache {
    /// An empty cache.
    pub fn new() -> StimulusCache {
        StimulusCache::default()
    }

    /// Streams served from the cache instead of regenerated, over the
    /// cache's lifetime. Serve workers report the per-job delta as the
    /// `serve.patterns.reuse` counter.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Drop all resident streams (the hit count survives). Used by the
    /// serve workers' post-panic quarantine reset.
    pub fn clear(&mut self) {
        self.packed_key = None;
        self.packed = None;
        self.seq_key = None;
        self.seq = None;
    }

    fn packed_for(&mut self, stimulus: &Stimulus, key: StimKey) -> &PackedPatterns {
        let (cycles, seed) = (key.cycles, key.seed);
        if self.packed.is_some() && self.packed_key.as_ref() == Some(&key) {
            self.hits += 1;
        } else {
            self.packed_key = Some(key);
            self.packed = None;
        }
        self.packed
            .get_or_insert_with(|| stimulus.packed(cycles, seed))
    }

    fn patterns_for(&mut self, stimulus: &Stimulus, key: StimKey) -> &PatternSet {
        let (cycles, seed) = (key.cycles, key.seed);
        if self.seq.is_some() && self.seq_key.as_ref() == Some(&key) {
            self.hits += 1;
        } else {
            self.seq_key = Some(key);
            self.seq = None;
        }
        self.seq
            .get_or_insert_with(|| stimulus.patterns(cycles, seed))
    }
}

/// `input_probs` normalized to exactly `width` entries (0.5 fills gaps).
fn normalized_probs(cfg: &ChainConfig, width: usize) -> Vec<f64> {
    let mut probs = vec![0.5; width];
    if let Some(given) = &cfg.input_probs {
        for (slot, &p) in probs.iter_mut().zip(given.iter()) {
            *slot = p.clamp(0.0, 1.0);
        }
    }
    probs
}

/// Estimate per-net switching activity, degrading through the configured
/// tiers as the budget allows. See the module docs for the contract.
///
/// Each call builds the exact tier's BDDs from scratch. Callers that
/// estimate the same (or a structurally identical) circuit repeatedly —
/// optimization loops, before/after comparisons — should thread a
/// [`CircuitBddCache`](exact::CircuitBddCache) through
/// [`estimate_activity_resident`] instead.
pub fn estimate_activity(
    nl: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
) -> Result<ChainEstimate, ChainError> {
    let mut cache = exact::CircuitBddCache::with_capacity(1);
    estimate_activity_resident(nl, budget, cfg, &mut cache, None)
}

/// [`estimate_activity`] with a caller-owned [`exact::CircuitBddCache`]
/// feeding the exact tier and, optionally, a resident [`StimulusCache`]
/// feeding the sampled one.
///
/// A BDD cache hit skips the build entirely, so repeated estimates of
/// structurally unchanged circuits pay the kernel cost once; the
/// tier-degradation contract is unchanged (the cache never stores failed
/// builds, so a budget that killed the exact tier once will kill it again
/// rather than resurrect a stale answer). When consecutive calls share a
/// stimulus spec (width, cycles after budget fitting, seed, bias), the
/// generated — and, for combinational circuits, packed — stream is reused
/// instead of rebuilt.
pub fn estimate_activity_resident(
    nl: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
    cache: &mut exact::CircuitBddCache,
    mut stim: Option<&mut StimulusCache>,
) -> Result<ChainEstimate, ChainError> {
    let probs = normalized_probs(cfg, nl.num_inputs());
    let obs = &cfg.obs;
    let _chain_span = obs.span("chain.estimate");
    let mut attempts: Vec<TierAttempt> = Vec::with_capacity(cfg.tiers.len());
    for &tier in &cfg.tiers {
        let span = obs.span(format!("tier.{}", tier.name()));
        let t0 = obs.now();
        let result = match tier {
            Tier::ExactBdd => cache
                .get_or_build_reorder(nl, budget, &cfg.reorder, obs)
                .map(|b| b.activity(&probs)),
            Tier::Probabilistic => prob::try_activity(nl, &probs, budget),
            Tier::SampledSim => sampled_activity(nl, budget, cfg, &probs, stim.as_deref_mut()),
        };
        let elapsed = obs.now().saturating_sub(t0);
        span.close();
        obs.add("chain.attempts", 1);
        match result {
            Ok(profile) => {
                obs.add("chain.answered", 1);
                attempts.push(TierAttempt {
                    tier,
                    outcome: TierOutcome::Answered,
                    elapsed,
                });
                return Ok(ChainEstimate {
                    profile,
                    tier,
                    attempts,
                });
            }
            Err(e) => {
                obs.add(&format!("chain.abandoned.{}", e.resource.slug()), 1);
                attempts.push(TierAttempt {
                    tier,
                    outcome: TierOutcome::Abandoned(e),
                    elapsed,
                });
            }
        }
    }
    Err(ChainError { attempts })
}

/// The sampled (Monte-Carlo) tier: a deterministic pseudo-random stimulus
/// through the zero-delay engine (combinational) or the cycle-accurate
/// sequential engine. Cycle count shrinks to fit the step budget before
/// the run starts, so this tier only fails when the budget leaves no room
/// for even a two-cycle sample (or the deadline expires mid-run).
///
/// Both engines shard over `cfg.jobs` worker threads with per-worker
/// arenas built once and reused across shards ([`sim::par::par_map_with`]),
/// so `jobs > 1` pays the allocation cost once per thread, not once per
/// shard. Results stay bit-identical for every thread count.
fn sampled_activity(
    nl: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
    probs: &[f64],
    stim: Option<&mut StimulusCache>,
) -> Result<ActivityProfile, BudgetExceeded> {
    let nets = nl.len().max(1) as u64;
    let fit = (budget.max_sim_steps_or(u64::MAX).saturating_sub(1) / nets) as usize;
    let cycles = cfg.sample_cycles.max(2).min(fit);
    if cycles < 2 {
        return Err(budget.sim_steps_exceeded(2 * nets));
    }
    let stimulus = if cfg.input_probs.is_some() {
        Stimulus::biased(probs.to_vec())
    } else {
        Stimulus::uniform(nl.num_inputs())
    };
    // The key holds post-fitting cycles: a budget that shrinks the sample
    // is a different stream, never a false cache hit.
    let key = StimKey::new(cfg, probs, nl.num_inputs(), cycles);
    if nl.is_combinational() {
        // Pack straight into the engine's word layout; the per-call
        // transpose in try_activity_jobs is skipped.
        let mut local = None;
        let packed: &PackedPatterns = match stim {
            Some(cache) => cache.packed_for(&stimulus, key),
            None => local.insert(stimulus.packed(cycles, cfg.seed)),
        };
        CombSim::new(nl)
            .with_obs(cfg.obs.clone())
            .try_activity_packed_jobs(packed, cfg.jobs, budget)
    } else {
        let mut local = None;
        let patterns: &PatternSet = match stim {
            Some(cache) => cache.patterns_for(&stimulus, key),
            None => local.insert(stimulus.patterns(cycles, cfg.seed)),
        };
        Ok(SeqSim::new(nl)
            .with_obs(cfg.obs.clone())
            .try_activity_jobs(patterns, cfg.jobs, budget)?
            .profile)
    }
}

/// [`estimate_activity`] converted to a power report with the survey's
/// Eqn. (1) model. Returns the report together with the tier-tagged
/// estimate so callers can surface the fidelity.
pub fn estimate_power(
    nl: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
    params: &PowerParams,
) -> Result<(PowerReport, ChainEstimate), ChainError> {
    let estimate = estimate_activity(nl, budget, cfg)?;
    let report = PowerReport::from_activity(nl, &estimate.profile, params);
    Ok((report, estimate))
}

/// [`estimate_power`] on the caches of [`estimate_activity_resident`].
/// This is the serve workers' entry point: both caches live for the
/// worker's lifetime, so back-to-back jobs with a shared stimulus spec
/// skip the stream generation and pack entirely.
pub fn estimate_power_resident(
    nl: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
    params: &PowerParams,
    cache: &mut exact::CircuitBddCache,
    stim: &mut StimulusCache,
) -> Result<(PowerReport, ChainEstimate), ChainError> {
    let estimate = estimate_activity_resident(nl, budget, cfg, cache, Some(stim))?;
    let report = PowerReport::from_activity(nl, &estimate.profile, params);
    Ok((report, estimate))
}

/// The power of `before` and `after` estimated on one tier, for
/// not-worse checks: a comparison of figures from two tiers would
/// measure the estimators, not the circuits.
///
/// Both netlists go through the chain under `budget`, sharing `cache`.
/// When they answer from different tiers, the side that answered from
/// the stronger one runs again with the chain starting at the weaker
/// tier ([`Tier`] orders exact < probabilistic < sampled), until both
/// answer from the same tier. Returns both reports and that tier.
pub fn estimate_power_pair(
    before: &Netlist,
    after: &Netlist,
    budget: &ResourceBudget,
    cfg: &ChainConfig,
    params: &PowerParams,
    cache: &mut exact::CircuitBddCache,
) -> Result<(PowerReport, PowerReport, Tier), ChainError> {
    let mut estimate =
        |nl: &Netlist, cfg: &ChainConfig| estimate_activity_resident(nl, budget, cfg, cache, None);
    let mut cfg = cfg.clone();
    let mut a = estimate(before, &cfg)?;
    let mut b = estimate(after, &cfg)?;
    while a.tier != b.tier {
        let weaker = a.tier.max(b.tier);
        cfg.tiers.retain(|&t| t >= weaker);
        if a.tier < weaker {
            a = estimate(before, &cfg)?;
        }
        if b.tier < weaker {
            b = estimate(after, &cfg)?;
        }
    }
    let report =
        |nl: &Netlist, e: &ChainEstimate| PowerReport::from_activity(nl, &e.profile, params);
    Ok((report(before, &a), report(after, &b), a.tier))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, parity_tree, pipelined_multiplier, ripple_adder};
    use sim::stimulus::PatternSet;

    #[test]
    fn unlimited_budget_answers_from_the_exact_tier() {
        let nl = parity_tree(6);
        let est = estimate_activity(&nl, &ResourceBudget::unlimited(), &ChainConfig::default())
            .unwrap();
        assert_eq!(est.tier, Tier::ExactBdd);
        assert!(!est.degraded());
        // Parity of uniform bits toggles 2·0.5·0.5 = 0.5 per cycle.
        let (out, _) = nl.outputs()[0].clone();
        assert!((est.profile.toggles[out.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn node_budget_pushes_multiplier_to_probabilistic() {
        // Multiplier output cones blow past a small node limit; propagation
        // costs nl.len() steps and succeeds.
        let (nl, _) = array_multiplier(6);
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(64);
        let est = estimate_activity(&nl, &budget, &ChainConfig::default()).unwrap();
        assert_eq!(est.tier, Tier::Probabilistic);
        assert!(est.degraded());
        assert_eq!(est.attempts.len(), 2);
        assert_eq!(est.attempts[0].tier, Tier::ExactBdd);
        assert_eq!(
            est.attempts[0].outcome.abandoned().unwrap().resource,
            budget::Resource::BddNodes
        );
        assert!(est.attempts[1].outcome.is_answered());
    }

    #[test]
    fn step_budget_falls_through_to_sampling() {
        // Node cap kills the exact tier; a step cap small enough for the
        // fixpoint sweep but large enough for a short sample run forces
        // the last tier. (Propagation needs nets steps per sweep; sampling
        // shrinks its cycle count to fit.)
        let (nl, _) = array_multiplier(5);
        let nets = nl.len() as u64;
        let budget = ResourceBudget::unlimited()
            .with_max_bdd_nodes(64)
            .with_max_sim_steps(nets); // 1 sweep needs `nets` steps: denied
        let cfg = ChainConfig {
            tiers: vec![Tier::ExactBdd, Tier::Probabilistic],
            ..ChainConfig::default()
        };
        let err = estimate_activity(&nl, &budget, &cfg).unwrap_err();
        assert_eq!(err.attempts.len(), 2, "{err}");
        // With the sampled tier appended, the same budget still fails
        // (a 2-cycle sample needs 2·nets steps).
        let cfg = ChainConfig::default();
        assert!(estimate_activity(&nl, &budget, &cfg).is_err());
        // Skip the (cheaper) probabilistic tier: a budget with room for a
        // few cycles lands on sampling with a shrunken run.
        let cfg = ChainConfig {
            tiers: vec![Tier::ExactBdd, Tier::SampledSim],
            ..ChainConfig::default()
        };
        let budget = ResourceBudget::unlimited()
            .with_max_bdd_nodes(64)
            .with_max_sim_steps(nets * 8 + 2);
        let est = estimate_activity(&nl, &budget, &cfg).unwrap();
        assert_eq!(est.tier, Tier::SampledSim);
        assert_eq!(est.attempts.len(), 2);
        assert!(est.profile.cycles >= 2 && est.profile.cycles <= 8);
    }

    #[test]
    fn sampled_tier_matches_comb_sim_bit_for_bit() {
        let (nl, _) = ripple_adder(4);
        let cfg = ChainConfig {
            tiers: vec![Tier::SampledSim],
            sample_cycles: 200,
            seed: 9,
            ..ChainConfig::default()
        };
        let est = estimate_activity(&nl, &ResourceBudget::unlimited(), &cfg).unwrap();
        let patterns = Stimulus::uniform(nl.num_inputs()).patterns(200, 9);
        let direct = CombSim::new(&nl).activity(&patterns);
        assert_eq!(est.profile, direct, "sampled tier must be the plain engine");
    }

    #[test]
    fn sampled_tier_matches_measure_sequence_on_sequential() {
        let nl = pipelined_multiplier(3);
        let cfg = ChainConfig {
            tiers: vec![Tier::SampledSim],
            sample_cycles: 300,
            seed: 17,
            ..ChainConfig::default()
        };
        let params = PowerParams::default();
        let (report, est) =
            estimate_power(&nl, &ResourceBudget::unlimited(), &cfg, &params).unwrap();
        assert_eq!(est.tier, Tier::SampledSim);
        let patterns: PatternSet = Stimulus::uniform(nl.num_inputs()).patterns(300, 17);
        let reference = crate::estimate::measure_sequence(&nl, &patterns, &params);
        assert_eq!(
            report.total().to_bits(),
            reference.total().to_bits(),
            "chain sampled tier must equal measure_sequence bit-for-bit"
        );
    }

    #[test]
    fn resident_stimulus_cache_reuses_streams_bit_identically() {
        let (comb, _) = ripple_adder(4);
        let seq = pipelined_multiplier(3);
        let cfg = ChainConfig {
            tiers: vec![Tier::SampledSim],
            sample_cycles: 200,
            seed: 9,
            ..ChainConfig::default()
        };
        let budget = ResourceBudget::unlimited();
        let mut bdd = exact::CircuitBddCache::with_capacity(1);
        let mut stim = StimulusCache::new();
        let first =
            estimate_activity_resident(&comb, &budget, &cfg, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 0, "first stream is a miss");
        let again =
            estimate_activity_resident(&comb, &budget, &cfg, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 1, "same spec reuses the packed stream");
        assert_eq!(first.profile, again.profile);
        assert_eq!(
            first.profile,
            estimate_activity(&comb, &budget, &cfg).unwrap().profile,
            "cached stream must not change the answer"
        );
        // Sequential streams cache independently of packed ones.
        let seq_first =
            estimate_activity_resident(&seq, &budget, &cfg, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 1, "different form, different slot: miss");
        let seq_again =
            estimate_activity_resident(&seq, &budget, &cfg, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 2);
        assert_eq!(seq_first.profile, seq_again.profile);
        // A different seed is a different stream, never a false hit.
        let reseeded = ChainConfig { seed: 10, ..cfg.clone() };
        estimate_activity_resident(&comb, &budget, &reseeded, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 2, "seed change must miss");
        // clear() drops the streams but keeps the lifetime hit count.
        stim.clear();
        estimate_activity_resident(&comb, &budget, &reseeded, &mut bdd, Some(&mut stim)).unwrap();
        assert_eq!(stim.hits(), 2, "cleared cache rebuilds");
    }

    #[test]
    fn exhaustion_reports_every_attempt() {
        let (nl, _) = array_multiplier(5);
        let budget = ResourceBudget::unlimited()
            .with_max_bdd_nodes(16)
            .with_max_sim_steps(4);
        let err = estimate_activity(&nl, &budget, &ChainConfig::default()).unwrap_err();
        assert_eq!(err.attempts.len(), 3);
        assert!(err.attempts.iter().all(|a| a.outcome.abandoned().is_some()));
        let msg = err.to_string();
        assert!(msg.contains("exact-bdd"), "{msg}");
        assert!(msg.contains("probabilistic"), "{msg}");
        assert!(msg.contains("sampled-sim"), "{msg}");
    }

    #[test]
    fn abandonment_reason_distinguishes_deadline_from_node_budget() {
        let (nl, _) = array_multiplier(6);
        // Node cap: the exact tier dies on BddNodes with the limit intact.
        let node_capped = ResourceBudget::unlimited().with_max_bdd_nodes(64);
        let est = estimate_activity(&nl, &node_capped, &ChainConfig::default()).unwrap();
        let err = est.attempts[0].outcome.abandoned().unwrap();
        assert_eq!(err.resource, budget::Resource::BddNodes);
        assert_eq!(err.limit, 64);
        assert!(err.used >= 64);

        // Expired deadline: every tier dies on WallClock, and `used`
        // reports the actual overrun (not a fabricated limit + 1).
        let expired = ResourceBudget::unlimited().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let err = estimate_activity(&nl, &expired, &ChainConfig::default()).unwrap_err();
        for a in &err.attempts {
            let e = a.outcome.abandoned().unwrap();
            assert_eq!(e.resource, budget::Resource::WallClock, "{:?}", a.tier);
            assert!(e.used > e.limit, "{e}");
            assert!(e.used >= 5, "used={} must track real lateness", e.used);
        }
    }

    #[test]
    fn chain_metrics_count_attempts_and_reasons() {
        let (nl, _) = array_multiplier(6);
        let obs = obs::Obs::enabled();
        let cfg = ChainConfig {
            obs: obs.clone(),
            ..ChainConfig::default()
        };
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(64);
        let est = estimate_activity(&nl, &budget, &cfg).unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("chain.attempts"), Some(2));
        assert_eq!(snap.counter("chain.answered"), Some(1));
        assert_eq!(snap.counter("chain.abandoned.bdd-nodes"), Some(1));
        // attempts == answered + all abandonments, i.e. abandoned + 1 on a
        // successful run.
        assert_eq!(
            snap.counter("chain.attempts").unwrap(),
            snap.counter("chain.answered").unwrap() + snap.counter_sum("chain.abandoned."),
        );
        // The abandoned exact tier still published its BDD growth.
        assert!(snap.counter("bdd.nodes_created").unwrap() > 0);
        // Spans: chain.estimate wraps one span per attempted tier.
        assert_eq!(snap.spans.len(), 1 + est.attempts.len());
        assert_eq!(snap.spans[0].name, "chain.estimate");
        assert_eq!(snap.spans[1].name, "tier.exact-bdd");
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[2].name, "tier.probabilistic");
    }

    #[test]
    fn elapsed_reads_the_injected_clock() {
        let nl = parity_tree(4);
        let cfg = ChainConfig {
            obs: obs::Obs::with_clock(obs::clock::ManualClock::new()),
            ..ChainConfig::default()
        };
        let est = estimate_activity(&nl, &ResourceBudget::unlimited(), &cfg).unwrap();
        // A pinned manual clock makes every duration exactly zero — the
        // property the golden suite relies on.
        assert!(est.attempts.iter().all(|a| a.elapsed == Duration::ZERO));
        // Without any handle, elapsed is defined to be zero too.
        let est = estimate_activity(&nl, &ResourceBudget::unlimited(), &ChainConfig::default())
            .unwrap();
        assert_eq!(est.attempts[0].elapsed, Duration::ZERO);
    }

    #[test]
    fn cached_chain_is_bit_identical_and_skips_rebuilds() {
        let (nl, _) = ripple_adder(4);
        let budget = ResourceBudget::unlimited();
        let cfg = ChainConfig::default();
        let plain = estimate_activity(&nl, &budget, &cfg).unwrap();

        let mut cache = exact::CircuitBddCache::new();
        let first = estimate_activity_resident(&nl, &budget, &cfg, &mut cache, None).unwrap();
        let second = estimate_activity_resident(&nl, &budget, &cfg, &mut cache, None).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first.tier, Tier::ExactBdd);
        assert_eq!(second.tier, Tier::ExactBdd);
        // Hit or miss, cached or not: the same numbers to the last bit.
        assert_eq!(plain.profile, first.profile);
        assert_eq!(first.profile, second.profile);

        // A budget that kills the exact tier is not papered over by a
        // previously cached success from a *different* budget run: the
        // fingerprint is structural, so the full cache answers. But a
        // fresh cache under the same tight budget degrades as usual.
        let tight = ResourceBudget::unlimited().with_max_bdd_nodes(4);
        let mut fresh = exact::CircuitBddCache::new();
        let est = estimate_activity_resident(&nl, &tight, &cfg, &mut fresh, None).unwrap();
        assert_eq!(est.tier, Tier::Probabilistic);
        assert!(fresh.is_empty(), "failed builds must not be cached");
    }

    #[test]
    fn pair_estimates_answer_from_one_tier() {
        // 1,000 nodes fit the adder's exact build, not the multiplier's.
        let (adder, _) = ripple_adder(4);
        let (mult, _) = array_multiplier(6);
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(1000);
        let cfg = ChainConfig::default();
        let params = PowerParams::default();
        let alone = |nl: &Netlist, cfg: &ChainConfig| estimate_power(nl, &budget, cfg, &params);
        assert_eq!(alone(&adder, &cfg).unwrap().1.tier, Tier::ExactBdd);
        assert_eq!(alone(&mult, &cfg).unwrap().1.tier, Tier::Probabilistic);
        // Either way round, both sides answer from the weaker tier, with
        // that tier's own figures.
        let weaker = ChainConfig {
            tiers: vec![Tier::Probabilistic, Tier::SampledSim],
            ..ChainConfig::default()
        };
        let total = |nl: &Netlist| alone(nl, &weaker).unwrap().0.total().to_bits();
        let mut cache = exact::CircuitBddCache::new();
        for (before, after) in [(&adder, &mult), (&mult, &adder)] {
            let (b, a, tier) =
                estimate_power_pair(before, after, &budget, &cfg, &params, &mut cache).unwrap();
            assert_eq!(tier, Tier::Probabilistic);
            assert_eq!(b.total().to_bits(), total(before));
            assert_eq!(a.total().to_bits(), total(after));
        }
        // With room for both exact builds the pair answers exact.
        let roomy = ResourceBudget::unlimited();
        let (_, _, tier) =
            estimate_power_pair(&adder, &mult, &roomy, &cfg, &params, &mut cache).unwrap();
        assert_eq!(tier, Tier::ExactBdd);
    }

    #[test]
    fn biased_probs_are_normalized_and_used() {
        let nl = parity_tree(4);
        // Deliberately wrong width: 2 entries for 4 inputs.
        let cfg = ChainConfig {
            input_probs: Some(vec![0.9, 0.9]),
            ..ChainConfig::default()
        };
        let est = estimate_activity(&nl, &ResourceBudget::unlimited(), &cfg).unwrap();
        assert_eq!(est.tier, Tier::ExactBdd);
        let probs = &est.profile.probability;
        let inputs = nl.inputs();
        assert!((probs[inputs[0].index()] - 0.9).abs() < 1e-12);
        assert!((probs[inputs[3].index()] - 0.5).abs() < 1e-12);
    }
}
