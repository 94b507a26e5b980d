//! Property tests of BDD/netlist serialization (`bdd::store` and the
//! `CircuitBddCache` snapshot envelope).
//!
//! The persistence layer exists so `lpopt serve` can warm-start after a
//! crash, which only works if a reloaded manager is indistinguishable
//! from the one that was saved. Random circuits pin that down:
//!
//! * a write/read round trip preserves every observable number —
//!   probability under random input biases, satisfying-assignment
//!   counts, and variable support are bit-identical;
//! * a cache snapshot reloads into a fresh process and answers the
//!   degradation chain bit-identically, with every reload a cache hit;
//! * corruption never slips through: truncating the text or flipping a
//!   byte is rejected with a typed [`StoreError`], never a wrong answer
//!   or a panic.

use lowpower::bdd::store::{read_bdd, write_bdd, StoreError};
use lowpower::budget::ResourceBudget;
use lowpower::netlist::gen::{random_dag, RandomDagConfig};
use lowpower::netlist::Netlist;
use lowpower::power::chain::{estimate_activity_resident, ChainConfig};
use lowpower::power::exact::{try_circuit_bdds, verify_snapshot_text, CircuitBddCache};
use lowpower::power::order::ReorderConfig;
use lowpower::sim::ActivityProfile;
use proptest::prelude::*;

fn dag(seed: u64, gates: usize) -> Netlist {
    let config = RandomDagConfig {
        inputs: 6,
        gates,
        outputs: 3,
        max_fanin: 3,
        window: 10,
    };
    random_dag(&config, seed)
}

fn bits_of(profile: &ActivityProfile) -> Vec<u64> {
    profile
        .toggles
        .iter()
        .chain(profile.probability.iter())
        .map(|x| x.to_bits())
        .collect()
}

/// Deterministic input biases derived from the seed (skewed away from
/// 0.5 so probability mismatches cannot hide behind symmetry).
fn biases(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64 * 0x85EB_CA6B);
            0.05 + 0.9 * ((x >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_round_trip_preserves_probability_sat_count_support(
        seed in 0u64..5000,
        gates in 5usize..40,
    ) {
        let nl = dag(seed, gates);
        let bdds = try_circuit_bdds(&nl, &ResourceBudget::unlimited()).unwrap();
        let roots: Vec<_> = nl
            .outputs()
            .iter()
            .map(|(net, _)| bdds.funcs[net.index()])
            .collect();
        let text = write_bdd(&bdds.mgr, &roots);
        let (mgr2, roots2) = read_bdd(&text).unwrap();
        prop_assert_eq!(roots.len(), roots2.len());
        let nvars = bdds.mgr.num_vars() as u32;
        let p = biases(seed, nvars as usize);
        for (&a, &b) in roots.iter().zip(&roots2) {
            prop_assert_eq!(
                bdds.mgr.probability(a, &p).to_bits(),
                mgr2.probability(b, &p).to_bits(),
                "probability must survive the round trip bit-identically"
            );
            prop_assert_eq!(
                bdds.mgr.sat_count(a, nvars).to_bits(),
                mgr2.sat_count(b, nvars).to_bits(),
                "sat count must survive the round trip bit-identically"
            );
            prop_assert_eq!(bdds.mgr.support(a), mgr2.support(b));
        }
        // One trip normalizes (a manager reloads with only the variables
        // its nodes reference); after that the text is a fixed point.
        let text2 = write_bdd(&mgr2, &roots2);
        let (mgr3, roots3) = read_bdd(&text2).unwrap();
        prop_assert_eq!(text2, write_bdd(&mgr3, &roots3));
    }

    #[test]
    fn cache_snapshot_warm_starts_bit_identically(
        seed in 0u64..2000,
        gates in 5usize..30,
    ) {
        let circuits = [dag(seed, gates), dag(seed ^ 0xDEAD, gates + 3)];
        let budget = ResourceBudget::unlimited();
        let cfg = ChainConfig { sample_cycles: 64, seed, ..ChainConfig::default() };
        let mut warm = CircuitBddCache::new();
        let cold_answers: Vec<_> = circuits
            .iter()
            .map(|nl| estimate_activity_resident(nl, &budget, &cfg, &mut warm, None).unwrap())
            .collect();
        let text = warm.snapshot_text();
        verify_snapshot_text(&text).unwrap();

        // "Restart": a fresh cache in what would be a fresh process.
        let mut restored = CircuitBddCache::new();
        prop_assert_eq!(restored.load_snapshot_text(&text).unwrap(), circuits.len());
        for (nl, cold) in circuits.iter().zip(&cold_answers) {
            let again = estimate_activity_resident(nl, &budget, &cfg, &mut restored, None).unwrap();
            prop_assert_eq!(again.tier, cold.tier);
            prop_assert_eq!(
                bits_of(&again.profile),
                bits_of(&cold.profile),
                "warm-start answer must be bit-identical to the pre-crash one"
            );
        }
        prop_assert_eq!(restored.misses(), 0, "every reload must be a cache hit");
    }

    #[test]
    fn truncated_snapshots_are_rejected(
        seed in 0u64..2000,
        cut_permille in 0u32..1000,
    ) {
        let mut cache = CircuitBddCache::new();
        cache
            .get_or_build(&dag(seed, 12), &ResourceBudget::unlimited())
            .unwrap();
        let text = cache.snapshot_text();
        let keep = text.len() * cut_permille as usize / 1000;
        if keep == text.len() {
            return Ok(()); // not truncated
        }
        let err = verify_snapshot_text(&text[..keep]);
        prop_assert!(err.is_err(), "truncation to {keep} bytes must be rejected");
        let mut fresh = CircuitBddCache::new();
        prop_assert!(fresh.load_snapshot_text(&text[..keep]).is_err());
        prop_assert!(fresh.is_empty(), "a rejected snapshot must load nothing");
    }

    #[test]
    fn bit_flipped_snapshots_are_rejected_or_detected(
        seed in 0u64..2000,
        pos_permille in 0u32..1000,
        bit in 0u8..7,
    ) {
        let mut cache = CircuitBddCache::new();
        cache
            .get_or_build(&dag(seed, 12), &ResourceBudget::unlimited())
            .unwrap();
        let text = cache.snapshot_text();
        let mut bytes = text.clone().into_bytes();
        let i = (bytes.len() * pos_permille as usize / 1000) % bytes.len();
        bytes[i] ^= 1 << bit;
        if bytes == text.as_bytes() {
            return Ok(());
        }
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        // Any single corrupted byte must fail the checksum (or an earlier
        // structural check); a quietly-accepted corruption would poison
        // every later warm start.
        let verdict = verify_snapshot_text(&corrupt);
        prop_assert!(verdict.is_err(), "flipped byte {i} accepted: {verdict:?}");
        let mut fresh = CircuitBddCache::new();
        prop_assert!(fresh.load_snapshot_text(&corrupt).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A manager the sifter has reordered serializes its `var2level` map
    /// in the blob (`.order` line) and reloads under exactly that order:
    /// every observable is bit-identical and — because the order is
    /// restored rather than rediscovered — the reloaded diagram is the
    /// same size node for node.
    #[test]
    fn reordered_round_trip_preserves_semantics(
        seed in 0u64..3000,
        gates in 5usize..30,
    ) {
        let nl = dag(seed, gates);
        let mut bdds = try_circuit_bdds(&nl, &ResourceBudget::unlimited()).unwrap();
        bdds.mgr.reorder_now();
        let roots: Vec<_> = nl
            .outputs()
            .iter()
            .map(|(net, _)| bdds.funcs[net.index()])
            .collect();
        let text = write_bdd(&bdds.mgr, &roots);
        let (mgr2, roots2) = read_bdd(&text).unwrap();
        if bdds.mgr.has_custom_order() {
            prop_assert!(
                text.contains("\n.order "),
                "a non-identity order must be serialized"
            );
            prop_assert_eq!(bdds.mgr.var_order(), mgr2.var_order());
        }
        let nvars = bdds.mgr.num_vars() as u32;
        let p = biases(seed, nvars as usize);
        for (&a, &b) in roots.iter().zip(&roots2) {
            prop_assert_eq!(
                bdds.mgr.probability(a, &p).to_bits(),
                mgr2.probability(b, &p).to_bits()
            );
            prop_assert_eq!(
                bdds.mgr.sat_count(a, nvars).to_bits(),
                mgr2.sat_count(b, nvars).to_bits()
            );
            prop_assert_eq!(bdds.mgr.support(a), mgr2.support(b));
            prop_assert_eq!(bdds.mgr.size(a), mgr2.size(b));
        }
    }

    /// Warm starts replay reordered builds bit for bit: a cache whose
    /// entries were built under a reorder config snapshots, reloads into
    /// a "fresh process", and answers the chain with zero misses and
    /// zero drift — the reorder config is part of the entry key, so a
    /// warm hit can never serve a fixed-order build to a reorder-enabled
    /// caller.
    #[test]
    fn reordered_cache_snapshot_warm_starts_bit_identically(
        seed in 0u64..2000,
        gates in 5usize..24,
    ) {
        let circuits = [dag(seed, gates), dag(seed ^ 0xBEEF, gates + 3)];
        let budget = ResourceBudget::unlimited();
        let reorder = ReorderConfig::parse("dfs+threshold:8").unwrap();
        let cfg = ChainConfig { sample_cycles: 64, seed, reorder, ..ChainConfig::default() };
        let mut warm = CircuitBddCache::new();
        let cold_answers: Vec<_> = circuits
            .iter()
            .map(|nl| estimate_activity_resident(nl, &budget, &cfg, &mut warm, None).unwrap())
            .collect();
        let text = warm.snapshot_text();
        verify_snapshot_text(&text).unwrap();

        let mut restored = CircuitBddCache::new();
        prop_assert_eq!(restored.load_snapshot_text(&text).unwrap(), circuits.len());
        for (nl, cold) in circuits.iter().zip(&cold_answers) {
            let again = estimate_activity_resident(nl, &budget, &cfg, &mut restored, None).unwrap();
            prop_assert_eq!(again.tier, cold.tier);
            prop_assert_eq!(
                bits_of(&again.profile),
                bits_of(&cold.profile),
                "reordered warm-start answer must be bit-identical"
            );
        }
        prop_assert_eq!(restored.misses(), 0, "every reordered reload must be a cache hit");
        // A different ordering policy is a different entry: it must miss
        // rather than silently reuse the reordered build.
        let other = ChainConfig {
            sample_cycles: 64,
            seed,
            reorder: ReorderConfig::parse("force+always").unwrap(),
            ..ChainConfig::default()
        };
        estimate_activity_resident(&circuits[0], &budget, &other, &mut restored, None).unwrap();
        prop_assert_eq!(restored.misses(), 1);
    }

    /// Corrupting a byte anywhere in an order-carrying snapshot — the
    /// `.order` line included — is rejected by the envelope checksum,
    /// never loaded as a subtly different variable order.
    #[test]
    fn corrupted_order_carrying_snapshots_are_rejected(
        seed in 0u64..1000,
        offset in 0usize..64,
        bit in 0u8..7,
    ) {
        let reorder = ReorderConfig::parse("dfs+always").unwrap();
        let mut cache = CircuitBddCache::new();
        cache
            .get_or_build_reorder(
                &dag(seed, 16),
                &ResourceBudget::unlimited(),
                &reorder,
                &obs::Obs::disabled(),
            )
            .unwrap();
        let text = cache.snapshot_text();
        let Some(pos) = text.find("\n.order ") else {
            return Ok(()); // this seed's best order happened to be the identity
        };
        let line_len = text[pos + 1..].find('\n').unwrap();
        let mut bytes = text.clone().into_bytes();
        let i = pos + 1 + offset % line_len;
        bytes[i] ^= 1 << bit;
        if bytes == text.as_bytes() {
            return Ok(());
        }
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(verify_snapshot_text(&corrupt).is_err());
        let mut fresh = CircuitBddCache::new();
        prop_assert!(fresh.load_snapshot_text(&corrupt).is_err());
        prop_assert!(fresh.is_empty());
    }
}

/// Version skew on a snapshot that carries a non-identity variable order
/// must be rejected outright — a future format revision cannot be
/// half-read into a manager that would then build under the wrong order.
#[test]
fn version_skew_rejected_on_order_carrying_snapshot() {
    let reorder = ReorderConfig::parse("dfs+always").unwrap();
    let mut cache = CircuitBddCache::new();
    // Seed chosen so the fanin-DFS seed is a non-identity permutation;
    // the assert below fails loudly if that premise ever rots.
    let mut found = None;
    for seed in 0..64 {
        let mut probe = CircuitBddCache::new();
        probe
            .get_or_build_reorder(
                &dag(seed, 16),
                &ResourceBudget::unlimited(),
                &reorder,
                &obs::Obs::disabled(),
            )
            .unwrap();
        if probe.snapshot_text().contains("\n.order ") {
            found = Some(seed);
            break;
        }
    }
    let seed = found.expect("some seed in 0..64 must produce a non-identity order");
    cache
        .get_or_build_reorder(
            &dag(seed, 16),
            &ResourceBudget::unlimited(),
            &reorder,
            &obs::Obs::disabled(),
        )
        .unwrap();
    let text = cache.snapshot_text();
    assert!(text.contains("\n.order "));
    let skewed = text.replacen(".lpsnap 1", ".lpsnap 999", 1);
    assert!(verify_snapshot_text(&skewed).is_err());
    let mut fresh = CircuitBddCache::new();
    assert!(fresh.load_snapshot_text(&skewed).is_err());
    assert!(fresh.is_empty());
}

#[test]
fn version_skew_is_a_typed_error() {
    let mut cache = CircuitBddCache::new();
    cache
        .get_or_build(&dag(7, 10), &ResourceBudget::unlimited())
        .unwrap();
    let text = cache.snapshot_text();
    let skewed = text.replacen(".lpsnap 1", ".lpsnap 999", 1);
    match verify_snapshot_text(&skewed) {
        Err(StoreError::Version(_)) => {}
        // The checksum trips first if the version line feeds it; either
        // way the snapshot must not load.
        Err(_) => {}
        Ok(()) => panic!("version-skewed snapshot accepted"),
    }
    let mut fresh = CircuitBddCache::new();
    assert!(fresh.load_snapshot_text(&skewed).is_err());
    assert!(fresh.is_empty());
}
