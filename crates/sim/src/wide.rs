//! Wide-word primitives shared by every bit-parallel engine.
//!
//! A [`WideWord`] packs `L` consecutive 64-cycle blocks (256 patterns at
//! the default [`LANES`] = 4), stored lane-grouped so that a gate's fanin
//! words sit contiguously and rustc's autovectorizer can keep the whole
//! fold in one 256-bit register on stable — no `std::simd`, no intrinsics.
//! Widening the entire stack to 512 bits is a one-line change here.
//!
//! Lane `l` of a wide group holds block `wb * LANES + l`, i.e. cycles
//! `64*(wb*LANES + l) .. +64`. Cross-lane concerns (toggles across block
//! boundaries) stay with the per-lane `u64` bit tricks the engines
//! already use, and a stream's ragged last group is evaluated whole and
//! then cut to its valid cycles with a `prefix_mask`: every engine runs
//! one kernel for every stream length.

/// Lanes per wide word: 4 × 64 = 256 patterns per evaluation step.
pub const LANES: usize = 4;

/// A wide word at the crate's default lane count.
pub type WideWord = Wide<LANES>;

/// `L` independent 64-pattern words evaluated together.
///
/// `#[repr(transparent)]` over `[u64; L]`, so slices of lane-grouped
/// storage reinterpret freely as single words.
#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wide<const L: usize>(pub [u64; L]);

impl<const L: usize> Wide<L> {
    /// All lanes zero.
    pub const ZERO: Wide<L> = Wide([0; L]);

    /// The same word in every lane.
    #[inline(always)]
    pub fn splat(w: u64) -> Wide<L> {
        Wide([w; L])
    }

    /// Load from the first `L` words of a lane-grouped slice.
    #[inline(always)]
    pub fn from_slice(words: &[u64]) -> Wide<L> {
        let mut out = [0u64; L];
        out.copy_from_slice(&words[..L]);
        Wide(out)
    }

    /// Store into the first `L` words of a lane-grouped slice.
    #[inline(always)]
    pub fn write_to(self, out: &mut [u64]) {
        out[..L].copy_from_slice(&self.0);
    }

    /// Total set bits across all lanes.
    #[inline(always)]
    pub fn count_ones(self) -> u64 {
        let mut n = 0u64;
        for l in 0..L {
            n += u64::from(self.0[l].count_ones());
        }
        n
    }
}

impl<const L: usize> std::ops::BitAnd for Wide<L> {
    type Output = Wide<L>;
    #[inline(always)]
    fn bitand(mut self, rhs: Wide<L>) -> Wide<L> {
        for l in 0..L {
            self.0[l] &= rhs.0[l];
        }
        self
    }
}

impl<const L: usize> std::ops::BitOr for Wide<L> {
    type Output = Wide<L>;
    #[inline(always)]
    fn bitor(mut self, rhs: Wide<L>) -> Wide<L> {
        for l in 0..L {
            self.0[l] |= rhs.0[l];
        }
        self
    }
}

impl<const L: usize> std::ops::BitXor for Wide<L> {
    type Output = Wide<L>;
    #[inline(always)]
    fn bitxor(mut self, rhs: Wide<L>) -> Wide<L> {
        for l in 0..L {
            self.0[l] ^= rhs.0[l];
        }
        self
    }
}

impl<const L: usize> std::ops::Not for Wide<L> {
    type Output = Wide<L>;
    #[inline(always)]
    fn not(mut self) -> Wide<L> {
        for l in 0..L {
            self.0[l] = !self.0[l];
        }
        self
    }
}

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
    fn ops_are_per_lane() {
        let a = Wide([0b1100, 0b1010, u64::MAX, 0]);
        let b = Wide([0b1010, 0b1100, 0, u64::MAX]);
        assert_eq!((a & b).0, [0b1000, 0b1000, 0, 0]);
        assert_eq!((a | b).0, [0b1110, 0b1110, u64::MAX, u64::MAX]);
        assert_eq!((a ^ b).0, [0b0110, 0b0110, u64::MAX, u64::MAX]);
        assert_eq!((!Wide::<4>::ZERO).0, [u64::MAX; 4]);
        assert_eq!(a.count_ones(), 2 + 2 + 64);
    }

    #[test]
    fn prefix_mask_covers_valid_bits() {
        assert_eq!(prefix_mask::<4>(0), [0; 4]);
        assert_eq!(prefix_mask::<4>(1), [1, 0, 0, 0]);
        assert_eq!(prefix_mask::<4>(64), [u64::MAX, 0, 0, 0]);
        assert_eq!(prefix_mask::<4>(130), [u64::MAX, u64::MAX, 0b11, 0]);
        assert_eq!(prefix_mask::<4>(256), [u64::MAX; 4]);
        assert_eq!(prefix_mask::<1>(1000), [u64::MAX]);
    }

    #[test]
    fn slice_roundtrip() {
        let mut buf = [0u64; LANES];
        let w = WideWord::splat(0xDEAD_BEEF);
        w.write_to(&mut buf);
        assert_eq!(WideWord::from_slice(&buf), w);
    }
}
