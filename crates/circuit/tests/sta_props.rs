//! Property tests of the incremental static-timing cache: for random
//! netlists and random interleavings of resize / checkpoint / rollback_to /
//! commit, the critical delay a [`StaCache`] reports equals a from-scratch
//! [`SizedCircuit::timing`] bit for bit after every single step — for the
//! incremental cache and for its force-full twin alike, which must also
//! agree with each other on every returned delay and every size. Rolling
//! back past a commit must be rejected without touching either cache.

use circuit::sizing::{SizedCircuit, StaCache};
use netlist::gen::{random_dag, RandomDagConfig};
use netlist::{NetId, Rng64};
use proptest::prelude::*;
use sim::incr::Mark;

/// Assert the cache's critical delay equals a full analysis of `c`.
fn check(c: &SizedCircuit<'_>, sta: &StaCache) -> Result<(), TestCaseError> {
    prop_assert_eq!(sta.critical(c).to_bits(), c.timing(1e9).critical.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sta_cache_matches_full_timing_after_every_step(
        seed in 0u64..5000,
        gates in 8usize..60,
        ops in 4usize..24,
        op_seed in any::<u64>(),
    ) {
        let config = RandomDagConfig {
            inputs: 6,
            gates,
            outputs: 3,
            max_fanin: 3,
            window: 10,
        };
        let nl = random_dag(&config, seed);
        let sizable: Vec<NetId> = nl.iter_nets().filter(|&g| !nl.kind(g).is_source()).collect();
        let mut incr = SizedCircuit::new(&nl, 2.0);
        let mut full = SizedCircuit::new(&nl, 2.0);
        let mut sta = incr.sta_cache();
        sta.set_force_full(false);
        let mut full_sta = full.sta_cache();
        full_sta.set_force_full(true);

        let mut rng = Rng64::new(op_seed);
        // Live marks, oldest first, with the sizes each must restore, and
        // the latest mark a commit left below the floor.
        let mut marks: Vec<(Mark, Mark, Vec<f64>)> = Vec::new();
        let mut dead: Option<(Mark, Mark)> = None;
        for _ in 0..ops {
            match rng.range(0, 5) {
                0 | 1 => {
                    let g = *rng.choose(&sizable);
                    let size = 1.0 + 3.0 * rng.next_f64();
                    let a = sta.resize(&mut incr, g, size);
                    let b = full_sta.resize(&mut full, g, size);
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                2 => marks.push((sta.checkpoint(), full_sta.checkpoint(), incr.sizes.clone())),
                3 => {
                    if marks.is_empty() {
                        continue;
                    }
                    marks.truncate(rng.range(0, marks.len()) + 1);
                    let (m, fm, sizes) = marks.last().expect("picked live mark");
                    prop_assert!(sta.rollback_to(&mut incr, *m), "live mark must roll back");
                    prop_assert!(full_sta.rollback_to(&mut full, *fm), "live mark must roll back");
                    prop_assert_eq!(&incr.sizes, sizes);
                }
                _ => {
                    if marks.is_empty() {
                        continue;
                    }
                    let pick = rng.range(0, marks.len());
                    let committed: Vec<_> = marks.drain(..=pick).collect();
                    let (m, fm, _) = committed.last().expect("picked live mark");
                    prop_assert!(sta.commit(*m), "live mark must commit");
                    prop_assert!(full_sta.commit(*fm), "live mark must commit");
                    if let Some((d, fd, _)) = committed.iter().rfind(|(a, _, _)| a < m) {
                        dead = Some((*d, *fd));
                    }
                    // A commit releases every mark at or below it.
                    marks.retain(|(a, _, _)| a > m);
                }
            }
            if let Some((d, fd)) = dead {
                let sizes = incr.sizes.clone();
                prop_assert!(!sta.rollback_to(&mut incr, d), "committed-away mark rolled back");
                prop_assert!(!full_sta.rollback_to(&mut full, fd), "committed-away mark rolled back");
                prop_assert_eq!(&incr.sizes, &sizes);
            }
            check(&incr, &sta)?;
            check(&full, &full_sta)?;
            prop_assert_eq!(&incr.sizes, &full.sizes);
        }
    }
}
