//! Input-pattern sources for activity measurement.
//!
//! The survey's architecture-level section stresses that *known signal
//! statistics* give better power estimates than random streams (\[21\]\[22\]);
//! these generators produce streams with controlled one-probability and
//! temporal correlation so experiments can sweep those statistics.

use netlist::Rng64;

use crate::wide::LANES;

/// A stream of input patterns (one `Vec<bool>` per clock cycle).
pub type PatternSet = Vec<Vec<bool>>;

/// Statistical description of an input stream.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// Independent uniform bits (`P(1) = 0.5`, no temporal correlation).
    Uniform {
        /// Number of input bits per pattern.
        width: usize,
    },
    /// Independent biased bits: `P(input_i = 1) = probs[i]`.
    Biased {
        /// Per-input one-probabilities.
        probs: Vec<f64>,
    },
    /// Temporally correlated bits: each input is a two-state Markov chain
    /// that *toggles* with probability `toggle[i]` per cycle (steady-state
    /// one-probability 0.5, switching activity `toggle[i]`).
    Correlated {
        /// Per-input per-cycle toggle probabilities.
        toggle: Vec<f64>,
    },
    /// A binary up-counter over the inputs (LSB is input 0); models
    /// address-bus style sequential data for the bus-coding experiments.
    Counting {
        /// Number of input bits per pattern.
        width: usize,
    },
}

impl Stimulus {
    /// Uniform stream over `width` inputs.
    pub fn uniform(width: usize) -> Stimulus {
        Stimulus::Uniform { width }
    }

    /// Biased stream with the given per-input one-probabilities.
    pub fn biased(probs: Vec<f64>) -> Stimulus {
        Stimulus::Biased { probs }
    }

    /// Correlated stream with the given per-input toggle rates.
    pub fn correlated(toggle: Vec<f64>) -> Stimulus {
        Stimulus::Correlated { toggle }
    }

    /// Counting (address-like) stream over `width` inputs.
    pub fn counting(width: usize) -> Stimulus {
        Stimulus::Counting { width }
    }

    /// Number of bits per pattern.
    pub fn width(&self) -> usize {
        match self {
            Stimulus::Uniform { width } | Stimulus::Counting { width } => *width,
            Stimulus::Biased { probs } => probs.len(),
            Stimulus::Correlated { toggle } => toggle.len(),
        }
    }

    /// Generate `cycles` patterns deterministically from `seed`.
    pub fn patterns(&self, cycles: usize, seed: u64) -> PatternSet {
        let mut rng = Rng64::new(seed);
        let width = self.width();
        let mut out = Vec::with_capacity(cycles);
        match self {
            Stimulus::Uniform { .. } => {
                for _ in 0..cycles {
                    out.push((0..width).map(|_| rng.flip()).collect());
                }
            }
            Stimulus::Biased { probs } => {
                for _ in 0..cycles {
                    out.push(probs.iter().map(|&p| rng.chance(p)).collect());
                }
            }
            Stimulus::Correlated { toggle } => {
                let mut state: Vec<bool> = (0..width).map(|_| rng.flip()).collect();
                for _ in 0..cycles {
                    out.push(state.clone());
                    for (bit, &t) in state.iter_mut().zip(toggle.iter()) {
                        if rng.chance(t) {
                            *bit = !*bit;
                        }
                    }
                }
            }
            Stimulus::Counting { .. } => {
                for k in 0..cycles {
                    out.push((0..width).map(|i| k >> i & 1 == 1).collect());
                }
            }
        }
        out
    }

    /// The expected per-input one-probability of this stream.
    pub fn expected_probability(&self, input: usize) -> f64 {
        match self {
            Stimulus::Uniform { .. } | Stimulus::Correlated { .. } => 0.5,
            Stimulus::Biased { probs } => probs[input],
            Stimulus::Counting { .. } => 0.5,
        }
    }
}

/// A pattern set pre-packed into 64-cycle words (bit `k` of block `b` is
/// the input's value in cycle `64*b + k`).
///
/// The bit-parallel engines consume patterns in exactly this layout;
/// packing once per pass instead of once per `activity` call removes a
/// per-candidate O(cycles × width) transpose from the optimization inner
/// loops.
///
/// Storage is **wide-word-major**: blocks are grouped [`LANES`] at a time,
/// and within a group each input's lanes sit contiguously —
/// `words[wb * width * LANES + input * LANES + lane]` holds block
/// `wb * LANES + lane`. A gate's wide evaluation therefore reads its
/// fanin group as one contiguous `[u64; LANES]` with no per-block gather;
/// blocks past the stream's end pad their lanes with zeros.
#[derive(Debug, Clone)]
pub struct PackedPatterns {
    width: usize,
    cycles: usize,
    /// Wide-word-major, lane-grouped per input (see the type docs).
    words: Vec<u64>,
}

impl PackedPatterns {
    /// Pack a [`PatternSet`] into words.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set is ragged.
    pub fn pack(patterns: &PatternSet) -> PackedPatterns {
        let width = patterns.first().map_or(0, Vec::len);
        let cycles = patterns.len();
        let nwide = cycles.div_ceil(64).div_ceil(LANES);
        let mut words = vec![0u64; nwide * width * LANES];
        for (k, p) in patterns.iter().enumerate() {
            assert_eq!(p.len(), width, "ragged pattern set");
            let block = k / 64;
            let base = (block / LANES) * width * LANES + block % LANES;
            let bit = k % 64;
            for (i, &b) in p.iter().enumerate() {
                words[base + i * LANES] |= (b as u64) << bit;
            }
        }
        PackedPatterns {
            width,
            cycles,
            words,
        }
    }

    /// Number of input bits per pattern.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cycles in the stream.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Number of 64-cycle blocks (the last may be partial).
    pub fn num_blocks(&self) -> usize {
        self.cycles.div_ceil(64)
    }

    /// Number of [`LANES`]-block wide groups (the last may cover blocks
    /// past the stream's end; their lanes are zero).
    pub fn num_wide_blocks(&self) -> usize {
        self.num_blocks().div_ceil(LANES)
    }

    /// The packed words of wide group `wb`: `width * LANES` words, input
    /// `i`'s lanes at `[i * LANES .. (i + 1) * LANES]`.
    pub fn wide_block(&self, wb: usize) -> &[u64] {
        let stride = self.width * LANES;
        &self.words[wb * stride..(wb + 1) * stride]
    }

    /// The packed word of `input` in block `b`.
    pub fn word(&self, input: usize, b: usize) -> u64 {
        debug_assert!(input < self.width && b < self.num_blocks());
        self.words[(b / LANES) * self.width * LANES + input * LANES + b % LANES]
    }

    /// Value of `input` in `cycle`.
    pub fn bit(&self, input: usize, cycle: usize) -> bool {
        debug_assert!(input < self.width && cycle < self.cycles);
        self.word(input, cycle / 64) >> (cycle % 64) & 1 == 1
    }
}

impl Stimulus {
    /// Generate `cycles` patterns from `seed`, pre-packed into words.
    pub fn packed(&self, cycles: usize, seed: u64) -> PackedPatterns {
        PackedPatterns::pack(&self.patterns(cycles, seed))
    }
}

/// Measured per-input statistics of a pattern set.
#[derive(Debug, Clone, PartialEq)]
pub struct InputStats {
    /// Fraction of cycles each input was 1.
    pub probability: Vec<f64>,
    /// Per-cycle toggle rate of each input.
    pub toggle_rate: Vec<f64>,
}

/// Measure one-probability and toggle rate of each input column.
///
/// # Panics
///
/// Panics if the pattern set is empty or ragged.
pub fn measure(patterns: &PatternSet) -> InputStats {
    assert!(!patterns.is_empty(), "need at least one pattern");
    let width = patterns[0].len();
    let mut ones = vec![0usize; width];
    let mut toggles = vec![0usize; width];
    for (k, p) in patterns.iter().enumerate() {
        assert_eq!(p.len(), width, "ragged pattern set");
        for (i, &b) in p.iter().enumerate() {
            ones[i] += b as usize;
            if k > 0 && patterns[k - 1][i] != b {
                toggles[i] += 1;
            }
        }
    }
    let n = patterns.len() as f64;
    InputStats {
        probability: ones.iter().map(|&o| o as f64 / n).collect(),
        toggle_rate: toggles.iter().map(|&t| t as f64 / (n - 1.0).max(1.0)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_statistics() {
        let patterns = Stimulus::uniform(8).patterns(4000, 1);
        let stats = measure(&patterns);
        for i in 0..8 {
            assert!((stats.probability[i] - 0.5).abs() < 0.05, "p[{i}]");
            assert!((stats.toggle_rate[i] - 0.5).abs() < 0.05, "t[{i}]");
        }
    }

    #[test]
    fn biased_statistics() {
        let probs = vec![0.1, 0.5, 0.9];
        let patterns = Stimulus::biased(probs.clone()).patterns(6000, 2);
        let stats = measure(&patterns);
        for i in 0..3 {
            assert!(
                (stats.probability[i] - probs[i]).abs() < 0.04,
                "p[{i}] = {}",
                stats.probability[i]
            );
        }
        // Independent bias p has toggle rate 2p(1-p).
        let expected_toggle = 2.0 * 0.1 * 0.9;
        assert!((stats.toggle_rate[0] - expected_toggle).abs() < 0.04);
    }

    #[test]
    fn correlated_statistics() {
        let patterns = Stimulus::correlated(vec![0.05, 0.8]).patterns(6000, 3);
        let stats = measure(&patterns);
        assert!((stats.toggle_rate[0] - 0.05).abs() < 0.02);
        assert!((stats.toggle_rate[1] - 0.8).abs() < 0.03);
    }

    #[test]
    fn counting_statistics() {
        let patterns = Stimulus::counting(4).patterns(16, 0);
        // LSB toggles every cycle; bit 3 toggles twice in 16 cycles... once
        // going 0111->1000 and that's it within 0..15.
        let stats = measure(&patterns);
        assert!((stats.toggle_rate[0] - 1.0).abs() < 1e-9);
        assert!(stats.toggle_rate[3] < stats.toggle_rate[1]);
        // Pattern k encodes k.
        for (k, p) in patterns.iter().enumerate() {
            let v: usize = p.iter().enumerate().map(|(i, &b)| (b as usize) << i).sum();
            assert_eq!(v, k);
        }
    }

    #[test]
    fn packed_roundtrip_matches_patterns() {
        // 100 cycles: one full block plus a 36-cycle tail.
        let patterns = Stimulus::uniform(5).patterns(100, 42);
        let packed = PackedPatterns::pack(&patterns);
        assert_eq!(packed.width(), 5);
        assert_eq!(packed.cycles(), 100);
        assert_eq!(packed.num_blocks(), 2);
        for (k, p) in patterns.iter().enumerate() {
            for (i, &b) in p.iter().enumerate() {
                assert_eq!(packed.bit(i, k), b, "input {i} cycle {k}");
            }
        }
        // Tail bits beyond the stream are zero.
        for i in 0..packed.width() {
            assert_eq!(packed.word(i, 1) >> 36, 0);
        }
        // Padding lanes of the last wide group are zero too.
        assert_eq!(packed.num_wide_blocks(), 1);
        let wide = packed.wide_block(0);
        for i in 0..packed.width() {
            assert_eq!(wide[i * LANES], packed.word(i, 0));
            assert_eq!(wide[i * LANES + 1], packed.word(i, 1));
            assert_eq!(wide[i * LANES + 2], 0);
            assert_eq!(wide[i * LANES + 3], 0);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Stimulus::uniform(5).patterns(100, 42);
        let b = Stimulus::uniform(5).patterns(100, 42);
        assert_eq!(a, b);
        let c = Stimulus::uniform(5).patterns(100, 43);
        assert_ne!(a, c);
    }
}
