//! The one settle sweep under every zero-delay engine.
//!
//! A zero-delay engine settles a netlist by walking a topological order and
//! evaluating each gate from its fanins' words. This module is that walk,
//! lane-generic, and the flip-flop load rule that closes a clock cycle:
//!
//! * [`eval_net`] — one gate's `L` lane words from its fanins' words;
//! * [`settle`] — the walk over a topological order, in place, leaving
//!   alone the sources, the flip-flops and every net a caller holds;
//! * [`capture`] — the word a flip-flop loads at the clock edge.
//!
//! Words are lane-grouped: a net's `L` lane words sit contiguously. At
//! `L = 1` the same code is the scalar path, read at bit 0: every gate is
//! a bitwise function of its fanin words, so bit 0 of a one-lane word is
//! the gate's boolean value whatever the other 63 bits hold.
//!
//! The engines are instantiations of it:
//!
//! * [`crate::comb::CombSim`] settles at [`LANES`] lanes, and at one lane
//!   for its per-block and one-lane entry points;
//! * [`crate::seq::SeqSim`] settles and captures at [`LANES`] lanes in its
//!   word-parallel pass, and at one lane in its state-forwarding pass and
//!   its public `settle`, `next_state` and `step`;
//! * [`crate::fault::FaultSim`] steps at one lane and runs packed
//!   campaigns at [`LANES`] lanes, holding the forced net;
//! * [`crate::incr::IncrementalSim`] evaluates its full build and each
//!   re-evaluated net with [`eval_net`] over its contiguous per-net blocks,
//!   and masks the stream tail itself;
//! * `logicopt`'s `GuardedSim` settles at one lane, holding frozen cones;
//! * [`crate::event::EventSim`] checks its settled state against a
//!   one-lane settle in debug builds.
//!
//! The event engine's window kernel evaluates its own slot layout and
//! truth-table records, and `Netlist::eval_comb` stays the netlist crate's
//! independent scalar oracle; neither runs through here.
//!
//! [`LANES`]: crate::wide::LANES

use netlist::{GateKind, NetId, Netlist};

/// `L` lane words of gate `net`, evaluated from its fanins' words: fanin
/// `f`'s lanes are `words[f.index() * stride..][..L]`.
///
/// One to three fanins (every gate the generators emit) are gathered into
/// a fixed-size stack array, so the slice reaching
/// [`GateKind::eval_wide`] has a compile-time length and the gather and
/// fold stay unrolled in vector registers. Wider gates, and constants,
/// which have none, go through the `spill` buffer.
///
/// # Panics
///
/// Panics if `net` is a primary input, which has no evaluation.
#[inline(always)]
pub fn eval_net<const L: usize>(
    nl: &Netlist,
    net: NetId,
    words: &[u64],
    stride: usize,
    spill: &mut Vec<u64>,
) -> [u64; L] {
    #[inline(always)]
    fn gather<const L: usize, const F: usize>(
        words: &[u64],
        stride: usize,
        fanins: &[NetId],
    ) -> [[u64; L]; F] {
        let mut buf = [[0u64; L]; F];
        for (f, &x) in fanins.iter().enumerate() {
            buf[f].copy_from_slice(&words[stride * x.index()..][..L]);
        }
        buf
    }
    let kind = nl.kind(net);
    let fanins = nl.fanins(net);
    match fanins.len() {
        1 => kind.eval_wide::<L>(gather::<L, 1>(words, stride, fanins).as_flattened()),
        2 => kind.eval_wide::<L>(gather::<L, 2>(words, stride, fanins).as_flattened()),
        3 => kind.eval_wide::<L>(gather::<L, 3>(words, stride, fanins).as_flattened()),
        _ => {
            spill.clear();
            for &x in fanins {
                spill.extend_from_slice(&words[stride * x.index()..][..L]);
            }
            kind.eval_wide::<L>(spill)
        }
    }
}

/// Settle `values` (`L` lane words per net, net `i`'s at
/// `values[L * i..][..L]`) by walking `order` in place. `order` is a
/// topological order, or a subset of one closed under fanins.
///
/// Constants are written. Primary inputs and flip-flops are sources whose
/// words the caller loads first, and are skipped; so is every net `held`
/// names, which keeps whatever words it has (a forced net, a frozen cone).
/// Every other net is evaluated with [`eval_net`].
#[inline]
pub fn settle<const L: usize>(
    nl: &Netlist,
    order: &[NetId],
    values: &mut [u64],
    spill: &mut Vec<u64>,
    held: impl Fn(NetId) -> bool,
) {
    for &net in order {
        if held(net) {
            continue;
        }
        let out = match nl.kind(net) {
            GateKind::Input | GateKind::Dff => continue,
            GateKind::Const(v) => [if v { u64::MAX } else { 0 }; L],
            _ => eval_net::<L>(nl, net, values, L, spill),
        };
        values[L * net.index()..][..L].copy_from_slice(&out);
    }
}

/// The words flip-flop `dff` loads at the clock edge from the settled
/// `values` (laid out as [`settle`] lays them out): `d` in every bit
/// where its enable is high, or in all of them when it has none, and its
/// current word `q` where the enable is low. `q` is read from `values`, so
/// a register whose settled word was forced keeps the forced value while
/// it holds.
#[inline]
pub fn capture<const L: usize>(nl: &Netlist, dff: NetId, values: &[u64]) -> [u64; L] {
    let fanins = nl.fanins(dff);
    let word = |net: NetId| &values[L * net.index()..][..L];
    let (d, q) = (word(fanins[0]), word(dff));
    let en = fanins.get(1).map(|&e| word(e));
    std::array::from_fn(|l| {
        let en = en.map_or(u64::MAX, |en| en[l]);
        (en & d[l]) | (!en & q[l])
    })
}

/// Clock every register of the settled `values`: each flip-flop's words
/// become the words [`capture`] gives it. All captures read the values
/// before any register changes; `next` is scratch.
pub(crate) fn clock<const L: usize>(nl: &Netlist, values: &mut [u64], next: &mut Vec<u64>) {
    next.clear();
    for &dff in nl.dffs() {
        next.extend_from_slice(&capture::<L>(nl, dff, values));
    }
    for (&dff, q) in nl.dffs().iter().zip(next.chunks_exact(L)) {
        values[L * dff.index()..][..L].copy_from_slice(q);
    }
}
