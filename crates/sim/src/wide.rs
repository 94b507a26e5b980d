//! Wide-word constants shared by every bit-parallel engine.
//!
//! A wide word is `[u64; L]`: `L` consecutive 64-cycle blocks (256
//! patterns at the default [`LANES`] = 4), stored lane-grouped so that a
//! gate's fanin words sit contiguously and rustc's autovectorizer can keep
//! the whole fold in one 256-bit register on stable — no `std::simd`, no
//! intrinsics. Every engine folds plain arrays through
//! `GateKind::eval_wide` or the event engine's CSR evaluator. Widening the
//! entire stack to 512 bits is a one-line change here.
//!
//! Lane `l` of a wide group holds block `wb * LANES + l`, i.e. cycles
//! `64*(wb*LANES + l) .. +64`. Cross-lane concerns (toggles across block
//! boundaries) stay with the per-lane `u64` bit tricks the engines
//! already use, and a stream's ragged last group is evaluated whole and
//! then cut to its valid cycles with a `prefix_mask`: every engine runs
//! one kernel for every stream length.

/// Lanes per wide word: 4 × 64 = 256 patterns per evaluation step.
pub const LANES: usize = 4;

/// `L` lane words with the first `nbits` bits set, counting from bit 0 of
/// lane 0: the valid cycles of a group that holds `nbits` of them.
/// `nbits >= 64 * L` sets every bit.
pub(crate) fn prefix_mask<const L: usize>(nbits: usize) -> [u64; L] {
    std::array::from_fn(|l| match nbits.saturating_sub(64 * l) {
        0 => 0,
        k if k >= 64 => u64::MAX,
        k => (1u64 << k) - 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_mask_covers_valid_bits() {
        assert_eq!(prefix_mask::<4>(0), [0; 4]);
        assert_eq!(prefix_mask::<4>(1), [1, 0, 0, 0]);
        assert_eq!(prefix_mask::<4>(64), [u64::MAX, 0, 0, 0]);
        assert_eq!(prefix_mask::<4>(130), [u64::MAX, u64::MAX, 0b11, 0]);
        assert_eq!(prefix_mask::<4>(256), [u64::MAX; 4]);
        assert_eq!(prefix_mask::<1>(1000), [u64::MAX]);
    }
}
