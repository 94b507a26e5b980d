//! Path balancing by buffer insertion (survey §III.A.2).
//!
//! Under a unit-delay model, a gate glitches when its inputs settle at
//! different times. Inserting unit-delay buffers on the early edges makes
//! every pair of converging paths equal in length, which eliminates
//! spurious transitions entirely — at the cost of the buffers' own
//! capacitance, which is why the survey notes the buffer count must be kept
//! minimal. [`balance_paths`] at threshold 0 balances completely; a larger
//! threshold only fixes skews above it, trading residual glitches for fewer
//! buffers (the "reduce rather than completely eliminate" approach).

use netlist::{GateKind, NetId, Netlist};
use sim::incr::Delta;

/// Outcome of a balancing pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceReport {
    /// Buffers inserted.
    pub buffers_added: usize,
    /// Combinational depth before balancing (levels).
    pub depth_before: usize,
    /// Combinational depth after (never worse: we only pad short paths).
    pub depth_after: usize,
}

/// Balance the edges whose skew exceeds `threshold` levels (unit-delay
/// model). `threshold = 0` balances every converging path; larger
/// thresholds insert fewer buffers and leave proportionally more glitching
/// behind.
///
/// ```
/// use logicopt::balance::balance_paths;
/// use netlist::gen::array_multiplier;
///
/// let (mult, _) = array_multiplier(4);
/// let (balanced, report) = balance_paths(&mult, 0);
/// assert!(report.buffers_added > 0);
/// assert_eq!(report.depth_before, report.depth_after); // critical path intact
/// # assert!(sim::comb::equivalent_exhaustive(&mult, &balanced));
/// ```
///
/// Functionally equivalent to the input (only buffers are added).
///
/// # Panics
///
/// Panics if the netlist is sequential or cyclic.
pub fn balance_paths(nl: &Netlist, threshold: usize) -> (Netlist, BalanceReport) {
    let levels = nl.levels().expect("acyclic");
    let depth_before = levels.iter().copied().max().unwrap_or(0);
    let (delta, buffers_added) = balance_delta(nl, &levels, threshold);
    let mut out = nl.clone();
    delta.apply_to(&mut out);
    let depth_after = out.depth();
    (
        out,
        BalanceReport {
            buffers_added,
            depth_before,
            depth_after,
        },
    )
}

/// The balancing edit as a [`Delta`] instead of a rebuilt netlist, for the
/// incremental engines: apply it to an `IncrementalEventSim` holding `nl`
/// and only the buffered edges' fanout cones re-evaluate functionally
/// before the engine re-times the edited netlist.
///
/// `levels` must be `nl.levels()`. Replaying the delta on a clone of `nl`
/// produces exactly the netlist [`balance_paths`] returns
/// (same node ids, same order). Returns the delta and the buffer count.
///
/// # Panics
///
/// Panics if the netlist is sequential.
pub fn balance_delta(nl: &Netlist, levels: &[usize], threshold: usize) -> (Delta, usize) {
    assert!(nl.is_combinational(), "balancing operates on combinational logic");
    let mut delta = Delta::for_netlist(nl);
    let mut buffers_added = 0;

    // For each gate, pad early fanin edges up to the latest fanin level.
    for net in nl.iter_nets() {
        let kind = nl.kind(net);
        if kind.is_source() || kind == GateKind::Buf {
            continue;
        }
        let fanins: Vec<NetId> = nl.fanins(net).to_vec();
        if fanins.len() < 2 {
            continue;
        }
        let arrive: Vec<usize> = fanins.iter().map(|f| levels[f.index()]).collect();
        let latest = *arrive.iter().max().expect("nonempty");
        let mut new_fanins = fanins.clone();
        for (k, &fi) in fanins.iter().enumerate() {
            let skew = latest - arrive[k];
            if skew > threshold {
                let mut cur = fi;
                for _ in 0..skew {
                    cur = delta.add_gate(GateKind::Buf, &[cur]);
                    buffers_added += 1;
                }
                new_fanins[k] = cur;
            }
        }
        if new_fanins != fanins {
            delta.set_gate(net, kind, &new_fanins);
        }
    }
    (delta, buffers_added)
}

/// Tighten an already-balanced netlist from threshold `from` down to
/// threshold `to` (`to < from`) as a [`Delta`] against `current`.
///
/// `current` must be `nl` balanced at threshold `from` (by
/// [`balance_delta`] applications starting from an `original_len`-node
/// netlist), and `levels` the *original* netlist's levels. Once an edge is
/// buffered it is padded to zero skew and never revisited, so a descending
/// threshold sweep can reuse one incremental engine: apply the tightening
/// delta for each step instead of re-balancing from scratch.
///
/// Returns the delta and the number of buffers it adds. The resulting
/// netlist is isomorphic to `balance_paths(nl, to)` (same
/// gates and connectivity; buffer ids are appended in sweep order rather
/// than one-shot order).
pub fn tighten_balance_delta(
    current: &Netlist,
    original_len: usize,
    levels: &[usize],
    from: usize,
    to: usize,
) -> (Delta, usize) {
    assert!(to < from, "tightening must lower the threshold");
    let mut delta = Delta::for_netlist(current);
    let mut buffers_added = 0;
    for idx in 0..original_len {
        let net = NetId::from_index(idx);
        let kind = current.kind(net);
        if kind.is_source() || kind == GateKind::Buf {
            continue;
        }
        let fanins: Vec<NetId> = current.fanins(net).to_vec();
        if fanins.len() < 2 {
            continue;
        }
        // Already-buffered edges are padded to zero skew; the max-skew edge
        // is never buffered, so `latest` is always computable from the
        // original edges that remain.
        let latest = fanins
            .iter()
            .filter(|f| f.index() < original_len)
            .map(|f| levels[f.index()])
            .max()
            .expect("at least the latest fanin edge is unbuffered");
        let mut new_fanins = fanins.clone();
        for (k, &fi) in fanins.iter().enumerate() {
            if fi.index() >= original_len {
                continue;
            }
            let skew = latest - levels[fi.index()];
            debug_assert!(skew <= from, "edge above `from` should already be buffered");
            if skew > to {
                let mut cur = fi;
                for _ in 0..skew {
                    cur = delta.add_gate(GateKind::Buf, &[cur]);
                    buffers_added += 1;
                }
                new_fanins[k] = cur;
            }
        }
        if new_fanins != fanins {
            delta.set_gate(net, kind, &new_fanins);
        }
    }
    (delta, buffers_added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{array_multiplier, ripple_adder};
    use sim::comb::equivalent_exhaustive;
    use sim::event::{DelayModel, EventSim};
    use sim::stimulus::Stimulus;

    #[test]
    fn balancing_preserves_function() {
        let (nl, _) = ripple_adder(4);
        let (balanced, report) = balance_paths(&nl, 0);
        assert!(report.buffers_added > 0);
        assert!(equivalent_exhaustive(&nl, &balanced));
    }

    #[test]
    fn balanced_circuit_has_no_glitches_under_unit_delay() {
        let (nl, _) = array_multiplier(4);
        let (balanced, _) = balance_paths(&nl, 0);
        let patterns = Stimulus::uniform(8).patterns(200, 3);
        let before = EventSim::new(&nl, &DelayModel::Unit).activity(&patterns);
        let after = EventSim::new(&balanced, &DelayModel::Unit).activity(&patterns);
        assert!(before.glitch_fraction() > 0.1, "multiplier must glitch");
        assert!(
            after.glitch_fraction() < 1e-9,
            "balanced circuit glitched: {}",
            after.glitch_fraction()
        );
    }

    #[test]
    fn depth_never_increases() {
        let (nl, _) = array_multiplier(4);
        let (balanced, report) = balance_paths(&nl, 0);
        assert_eq!(report.depth_before, report.depth_after);
        assert_eq!(balanced.depth(), report.depth_before);
    }

    #[test]
    fn threshold_trades_buffers_for_glitches() {
        let (nl, _) = array_multiplier(5);
        let patterns = Stimulus::uniform(10).patterns(200, 5);
        let mut buffer_counts = Vec::new();
        let mut glitch_fractions = Vec::new();
        for threshold in [0usize, 2, 5, usize::MAX / 2] {
            let (balanced, report) = balance_paths(&nl, threshold);
            buffer_counts.push(report.buffers_added);
            let t = EventSim::new(&balanced, &DelayModel::Unit).activity(&patterns);
            glitch_fractions.push(t.glitch_fraction());
            assert!(equivalent_exhaustive(&nl, &balanced));
        }
        // Fewer buffers as threshold grows; more residual glitching.
        assert!(buffer_counts.windows(2).all(|w| w[0] >= w[1]), "{buffer_counts:?}");
        assert_eq!(*buffer_counts.last().unwrap(), 0);
        assert!(glitch_fractions[0] < 1e-9);
        assert!(
            glitch_fractions.windows(2).all(|w| w[0] <= w[1] + 1e-9),
            "{glitch_fractions:?}"
        );
    }

    #[test]
    fn tighten_sweep_matches_one_shot() {
        let (nl, _) = array_multiplier(4);
        let levels = nl.levels().unwrap();
        let patterns = Stimulus::uniform(8).patterns(200, 17);
        let mut cur = nl.clone();
        let mut from = usize::MAX;
        for t in [5usize, 2, 0] {
            let (delta, added) = if from == usize::MAX {
                balance_delta(&nl, &levels, t)
            } else {
                tighten_balance_delta(&cur, nl.len(), &levels, from, t)
            };
            delta.apply_to(&mut cur);
            from = t;
            let (one_shot, report) = balance_paths(&nl, t);
            // The swept netlist is isomorphic to the one-shot result: same
            // node count, same function, same glitch behaviour.
            assert_eq!(cur.len(), one_shot.len(), "threshold {t}");
            assert!(added <= report.buffers_added);
            assert!(equivalent_exhaustive(&nl, &cur));
            let swept = EventSim::new(&cur, &DelayModel::Unit).activity(&patterns);
            let shot = EventSim::new(&one_shot, &DelayModel::Unit).activity(&patterns);
            assert!(
                (swept.total_glitches_per_cycle() - shot.total_glitches_per_cycle()).abs() < 1e-9,
                "threshold {t}"
            );
        }
        // Fully balanced at the end of the sweep.
        let fin = EventSim::new(&cur, &DelayModel::Unit).activity(&patterns);
        assert!(fin.glitch_fraction() < 1e-9);
    }

    #[test]
    fn delta_replay_is_byte_identical_to_one_shot() {
        let (nl, _) = array_multiplier(4);
        let levels = nl.levels().unwrap();
        for t in [0usize, 1, 3] {
            let (delta, added) = balance_delta(&nl, &levels, t);
            let mut replayed = nl.clone();
            delta.apply_to(&mut replayed);
            let (one_shot, report) = balance_paths(&nl, t);
            assert_eq!(added, report.buffers_added);
            assert_eq!(replayed.len(), one_shot.len(), "threshold {t}");
            for net in replayed.iter_nets() {
                assert_eq!(replayed.kind(net), one_shot.kind(net), "{net} at {t}");
                assert_eq!(replayed.fanins(net), one_shot.fanins(net), "{net} at {t}");
            }
        }
    }

    #[test]
    fn already_balanced_untouched() {
        let nl = netlist::gen::parity_tree(8);
        let (_, report) = balance_paths(&nl, 0);
        assert_eq!(report.buffers_added, 0);
    }

    #[test]
    fn buffer_capacitance_offsets_part_of_the_win() {
        // The survey's caveat verbatim: "the addition of buffers increases
        // capacitance which may offset the reduction in switching activity".
        // On a small multiplier, full balancing removes every glitch
        // *transition* yet the buffers themselves switch, so the
        // capacitance-weighted total can go either way — which is exactly
        // why the threshold variant exists (E4 sweeps it).
        let (nl, _) = array_multiplier(4);
        let (balanced, report) = balance_paths(&nl, 0);
        let stats_before = netlist::NetlistStats::of(&nl);
        let stats_after = netlist::NetlistStats::of(&balanced);
        assert!(stats_after.total_cap > stats_before.total_cap);
        assert!(report.buffers_added > 0);

        let patterns = Stimulus::uniform(8).patterns(300, 9);
        let t_before = EventSim::new(&nl, &DelayModel::Unit).activity(&patterns);
        let t_after = EventSim::new(&balanced, &DelayModel::Unit).activity(&patterns);
        // Glitch transitions on the *original* nets disappear entirely.
        assert!(t_before.total_glitches_per_cycle() > 0.0);
        assert!(t_after.total_glitches_per_cycle() < 1e-9);
        // Transition count on shared (non-buffer) logic strictly drops.
        let shared_before: f64 = nl
            .iter_nets()
            .map(|n| t_before.total.toggles[n.index()])
            .sum();
        let shared_after: f64 = nl
            .iter_nets()
            .map(|n| t_after.total.toggles[n.index()])
            .sum();
        assert!(
            shared_after < shared_before,
            "glitch removal must cut toggles on original nets: {shared_after} vs {shared_before}"
        );
    }
}
