//! Workspace-level property tests: optimization passes preserve function
//! on random circuits, codecs round-trip arbitrary streams, retimings stay
//! legal.

use lowpower::logicopt::balance::balance_paths;
use lowpower::logicopt::mapping::decompose;
use lowpower::netlist::gen::{random_dag, RandomDagConfig};
use lowpower::seqopt::buscode::{BusCodec, BusInvert, GrayCode, LimitedWeightCode};
use lowpower::seqopt::residue::OneHotResidue;
use lowpower::sim::comb::CombSim;
use lowpower::sim::stimulus::Stimulus;
use proptest::prelude::*;

fn small_dag(seed: u64, gates: usize) -> lowpower::netlist::Netlist {
    let config = RandomDagConfig {
        inputs: 8,
        gates,
        outputs: 4,
        max_fanin: 3,
        window: 12,
    };
    random_dag(&config, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn balancing_preserves_function_on_random_dags(
        seed in 0u64..5000,
        gates in 20usize..80,
        threshold in 0usize..4,
    ) {
        let nl = small_dag(seed, gates);
        let (balanced, _) = balance_paths(&nl, threshold);
        let patterns = Stimulus::uniform(8).patterns(128, seed ^ 0xABCD);
        prop_assert_eq!(CombSim::new(&nl).equivalent_on(&balanced, &patterns), None);
    }

    #[test]
    fn decomposition_preserves_function_on_random_dags(
        seed in 0u64..5000,
        gates in 20usize..60,
    ) {
        let nl = small_dag(seed, gates);
        let subject = decompose(&nl);
        let patterns = Stimulus::uniform(8).patterns(128, seed ^ 0x1234);
        prop_assert_eq!(CombSim::new(&nl).equivalent_on(&subject, &patterns), None);
    }

    #[test]
    fn bus_invert_round_trips_any_stream(
        words in proptest::collection::vec(0u64..256, 1..200),
    ) {
        let mut tx = BusInvert::new(8);
        let mut rx = BusInvert::new(8);
        for &w in &words {
            let wire = tx.encode(w);
            prop_assert_eq!(rx.decode(wire), w);
        }
    }

    #[test]
    fn bus_invert_never_exceeds_half_plus_one(
        words in proptest::collection::vec(0u64..256, 2..200),
    ) {
        let mut tx = BusInvert::new(8);
        let mut last = 0u64;
        for &w in &words {
            let wire = tx.encode(w);
            let flips = (wire ^ last).count_ones();
            prop_assert!(flips <= 5, "flips {} for word {:#x}", flips, w);
            last = wire;
        }
    }

    #[test]
    fn gray_code_round_trips(words in proptest::collection::vec(0u64..1024, 1..100)) {
        let mut codec = GrayCode::new(10);
        for &w in &words {
            let wire = codec.encode(w);
            prop_assert_eq!(codec.decode(wire), w);
        }
    }

    #[test]
    fn limited_weight_round_trips(words in proptest::collection::vec(0u64..64, 1..100)) {
        let mut codec = LimitedWeightCode::new(6, 2);
        for &w in &words {
            let wire = codec.encode(w);
            prop_assert_eq!(codec.decode(wire), w);
        }
    }

    #[test]
    fn residue_addition_is_modular_addition(
        a in 0u64..992,
        b in 0u64..992,
    ) {
        let rns = OneHotResidue::new(vec![31, 32]);
        let sum = rns.add(&rns.encode(a), &rns.encode(b));
        prop_assert_eq!(rns.decode(&sum), (a + b) % 992);
    }

    #[test]
    fn stg_synthesis_matches_table(seed in 0u64..1000) {
        use lowpower::seqopt::stg::Stg;
        use lowpower::sim::seq::SeqSim;
        let stg = Stg::random(5, 1, 2, seed);
        let codes: Vec<u64> = (0..5).collect();
        let nl = stg.synthesize(&codes, 3, "prop_fsm");
        let sim = SeqSim::new(&nl);
        let mut state = 0usize;
        let mut regs = sim.initial_state();
        let patterns = Stimulus::uniform(1).patterns(60, seed ^ 0x77);
        for p in &patterns {
            let symbol = p[0] as usize;
            let values = sim.settle(&regs, p);
            let (next, out) = stg.step(state, symbol);
            let z: u64 = nl
                .outputs()
                .iter()
                .enumerate()
                .map(|(o, (net, _))| (values[net.index()] as u64) << o)
                .sum();
            prop_assert_eq!(z, out);
            regs = sim.next_state(&regs, &values);
            state = next;
        }
    }

    #[test]
    fn retiming_stays_legal_and_meets_period(slack in 0u64..20) {
        use lowpower::seqopt::retime::correlator;
        let g = correlator();
        let (min_c, _) = g.min_period_retiming();
        let c = min_c + slack as f64;
        if let Some(r) = g.feasible_retiming(c) {
            prop_assert!(g.is_legal(&r));
            prop_assert!(g.period(&r) <= c + 1e-9);
        } else {
            prop_assert!(false, "period above minimum must be feasible");
        }
    }

    #[test]
    fn blif_round_trip_on_random_dags(seed in 0u64..3000) {
        use lowpower::netlist::blif::{parse_text, write_text};
        let nl = small_dag(seed, 30);
        let back = parse_text(&write_text(&nl)).expect("round trip parses");
        let patterns = Stimulus::uniform(8).patterns(64, seed);
        prop_assert_eq!(CombSim::new(&nl).equivalent_on(&back, &patterns), None);
    }
}
