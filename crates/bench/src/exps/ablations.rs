//! EA — ablations of the framework's own design choices: how much each
//! heuristic ingredient contributes, and where the approximations sit
//! relative to exact references.

use crate::table::{f, pct, Table};
use netlist::gen;
use power::exact::circuit_bdds;
use power::prob::propagate;
use seqopt::buscode::{count_transitions, random_stream, BusInvert, Unencoded};
use seqopt::encoding::{encode_greedy, encode_low_power, encode_sequential};
use seqopt::precompute::precompute;
use seqopt::stg::{weighted_switching, Stg};

/// EA — the ablation suite (one table per design choice).
pub fn ablations() -> String {
    let mut sections = Vec::new();

    // ------------------------------------------------------------------
    // A1: encoding — greedy seed vs greedy + pairwise-swap polishing.
    // ------------------------------------------------------------------
    {
        let mut t = Table::new(&[
            "machine",
            "binary",
            "greedy only",
            "greedy+polish",
            "polish contribution",
        ]);
        for (name, stg, probs) in [
            ("counter-8", Stg::counter(8), vec![0.5, 0.5]),
            ("random-8", Stg::random(8, 2, 2, 5), vec![0.25; 4]),
            ("random-12", Stg::random(12, 2, 2, 9), vec![0.25; 4]),
        ] {
            let weights = stg.edge_weights(&probs, 300);
            let base = weighted_switching(&weights, &encode_sequential(stg.num_states()));
            let greedy = weighted_switching(&weights, &encode_greedy(&stg, &probs));
            let polished = weighted_switching(&weights, &encode_low_power(&stg, &probs));
            t.row(&[
                name.to_string(),
                f(base, 3),
                f(greedy, 3),
                f(polished, 3),
                pct(1.0 - polished / greedy.max(1e-12)),
            ]);
        }
        sections.push(format!(
            "A1  State-encoding heuristic (greedy seed + swap polishing)\n\n{}",
            t.render()
        ));
    }

    // ------------------------------------------------------------------
    // A2: precomputation — predictor subset size sweep on the comparator.
    // ------------------------------------------------------------------
    {
        let n = 6;
        let (comb, _) = gen::comparator_gt(n);
        let probs = vec![0.5; 2 * n];
        let mut t = Table::new(&["predictor", "size", "P(disable)", "precompute logic"]);
        let subsets: Vec<(String, Vec<usize>)> = vec![
            ("MSB pair".into(), vec![n - 1, 2 * n - 1]),
            (
                "top-2 MSB pairs".into(),
                vec![n - 2, n - 1, 2 * n - 2, 2 * n - 1],
            ),
            (
                "top-3 MSB pairs".into(),
                vec![n - 3, n - 2, n - 1, 2 * n - 3, 2 * n - 2, 2 * n - 1],
            ),
            ("LSB pair (bad)".into(), vec![0, n]),
        ];
        for (label, subset) in subsets {
            match precompute(&comb, &subset, &probs) {
                Some(pre) => {
                    // Count the precomputation logic gates (nets beyond the
                    // baseline's).
                    let overhead = pre.netlist.len() as i64 - pre.baseline.len() as i64;
                    t.row(&[
                        label,
                        subset.len().to_string(),
                        f(pre.disable_probability, 3),
                        format!("{overhead} extra nets"),
                    ]);
                }
                None => {
                    t.row(&[label, subset.len().to_string(), "0 (no power-down)".into(), "-".into()]);
                }
            }
        }
        sections.push(format!(
            "A2  Precomputation predictor choice (6-bit comparator)\n\
             bigger predictors disable more often but pay more logic;\n\
             the wrong subset (LSBs) buys nothing\n\n{}",
            t.render()
        ));
    }

    // ------------------------------------------------------------------
    // A3: estimator accuracy — correlation-free propagation vs exact BDDs.
    // ------------------------------------------------------------------
    {
        let mut t = Table::new(&[
            "circuit",
            "mean |p_prop - p_exact|",
            "max error",
            "worst-net note",
        ]);
        for nl in [
            gen::parity_tree(10),
            gen::ripple_adder(5).0,
            gen::comparator_gt(5).0,
            gen::array_multiplier(3).0,
        ] {
            let n = nl.num_inputs();
            let exact = circuit_bdds(&nl).probabilities(&vec![0.5; n]);
            let approx = propagate(&nl, &vec![0.5; n], 10, 1e-12).probability;
            let mut errors: Vec<f64> = nl
                .iter_nets()
                .map(|net| (exact[net.index()] - approx[net.index()]).abs())
                .collect();
            let mean = errors.iter().sum::<f64>() / errors.len() as f64;
            errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let max = *errors.last().expect("nonempty");
            let note = if max < 1e-9 {
                "exact (fanout-free)"
            } else {
                "reconvergence error"
            };
            t.row(&[nl.name().to_string(), f(mean, 4), f(max, 4), note.into()]);
        }
        sections.push(format!(
            "A3  Probability estimator: correlation-free propagation vs exact BDDs\n\
             (the fast estimator drives the mapping/factoring cost functions;\n\
             exact BDDs drive don't-cares and precomputation)\n\n{}",
            t.render()
        ));
    }

    // ------------------------------------------------------------------
    // A4: BDD variable order — natural vs sifted node counts.
    // ------------------------------------------------------------------
    {
        let mut t = Table::new(&["function", "natural order", "after sifting", "reduction"]);
        // Interleaved chain: the textbook exponential/linear gap.
        let mut mgr = bdd::Bdd::new();
        let mut chain = bdd::Ref::FALSE;
        for (a, b) in [(0u32, 3u32), (1, 4), (2, 5)] {
            let va = mgr.var(a);
            let vb = mgr.var(b);
            let and = mgr.and(va, vb);
            chain = mgr.or(chain, and);
        }
        let before = mgr.size(chain);
        mgr.protect(chain);
        mgr.reorder_now();
        let after = mgr.size(chain);
        t.row(&[
            "x0x3 + x1x4 + x2x5".into(),
            before.to_string(),
            after.to_string(),
            pct(1.0 - after as f64 / before as f64),
        ]);
        // Comparator output: the MSB-first order is better than LSB-first.
        let (cmp, nets) = gen::comparator_gt(5);
        let mut bdds = circuit_bdds(&cmp);
        let froot = bdds.func(nets.gt);
        let before = bdds.mgr.size(froot);
        // Sift for this one output: only its root may stay live.
        bdds.mgr.clear_roots();
        bdds.mgr.protect(froot);
        bdds.mgr.reorder_now();
        let after = bdds.mgr.size(froot);
        t.row(&[
            "comparator_gt_5".into(),
            before.to_string(),
            after.to_string(),
            pct(1.0 - after as f64 / before as f64),
        ]);
        sections.push(format!(
            "A4  BDD variable reordering (greedy sifting)\n\n{}",
            t.render()
        ));
    }

    // ------------------------------------------------------------------
    // A5: bus-invert width sweep — the saving shrinks with bus width.
    // ------------------------------------------------------------------
    {
        let mut t = Table::new(&["width", "plain (tr/transfer)", "bus-invert", "saving"]);
        for width in [4usize, 8, 16, 32] {
            let stream = random_stream(width, 20_000, 7);
            let plain = count_transitions(&mut Unencoded::new(width), &stream);
            let coded = count_transitions(&mut BusInvert::new(width), &stream);
            t.row(&[
                width.to_string(),
                f(plain.per_transfer, 3),
                f(coded.per_transfer, 3),
                pct(1.0 - coded.per_transfer / plain.per_transfer),
            ]);
        }
        sections.push(format!(
            "A5  Bus-invert saving vs bus width (random data)\n\
             the binomial distribution concentrates around n/2 as n grows, so\n\
             one invert line helps less — [39]'s motivation for partitioned and\n\
             limited-weight codes on wide buses\n\n{}",
            t.render()
        ));
    }

    format!(
        "EA  Ablations of the framework's design choices\n\n{}",
        sections.join("\n")
    )
}
