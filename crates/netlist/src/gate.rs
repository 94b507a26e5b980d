//! Gate kinds and their electrical/logical characteristics.
//!
//! The analytic per-gate numbers here (transistor counts, intrinsic
//! capacitance, drive, delay) substitute for a SPICE-characterized library —
//! see DESIGN.md. They preserve the *relative* costs the survey's
//! optimizations act on: more transistors ⇒ more capacitance, larger fanin ⇒
//! slower gate, inverting CMOS gates cheaper than non-inverting ones.

use std::fmt;

/// The logic function computed by a netlist node.
///
/// `And`/`Or`/`Nand`/`Nor`/`Xor`/`Xnor` are n-ary (arity ≥ 1); `Not` and
/// `Buf` are unary; [`GateKind::Mux`] takes `(sel, a, b)` and computes
/// `if sel { b } else { a }`; [`GateKind::Dff`] takes `(d)` or `(d, en)`
/// where `en` is a synchronous load-enable (the clock itself is implicit).
///
/// ```
/// use netlist::GateKind;
/// assert!(GateKind::Nand.eval(&[true, true]) == false);
/// assert!(GateKind::Xor.eval(&[true, false, false]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// Constant 0 or 1 (no fanin).
    Const(bool),
    /// Non-inverting buffer (also used for inserted path-balancing buffers).
    Buf,
    /// Inverter.
    Not,
    /// n-ary AND.
    And,
    /// n-ary OR.
    Or,
    /// n-ary NAND.
    Nand,
    /// n-ary NOR.
    Nor,
    /// n-ary XOR (odd parity).
    Xor,
    /// n-ary XNOR (even parity).
    Xnor,
    /// 2:1 multiplexer; inputs are `(sel, a, b)`, output `sel ? b : a`.
    Mux,
    /// D flip-flop; inputs `(d)` or `(d, en)`. Output is the stored state.
    Dff,
}

impl GateKind {
    /// Evaluate the gate on concrete Boolean inputs.
    ///
    /// For [`GateKind::Dff`] this returns the *data* input (`d`), i.e. the
    /// value the register would capture; sequential semantics live in the
    /// simulator.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is invalid for the kind (the netlist
    /// builder validates arity, so this only fires on hand-rolled calls).
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Input => panic!("primary inputs have no evaluation"),
            GateKind::Const(v) => v,
            GateKind::Buf => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
            GateKind::Dff => inputs[0],
        }
    }

    /// Evaluate `L` 64-pattern words at once (`64 * L` patterns per call).
    ///
    /// `inputs` holds the fanin words lane-grouped: fanin `f` occupies
    /// `inputs[L*f .. L*f+L]`. Bit `k` of lane `l` of the result is
    /// exactly [`GateKind::eval`] over bit `k` of lane `l` of every fanin.
    /// `L = 1` is the single-word case; the L-wide unroll exists so the
    /// compiler can keep the fold in one wide vector register (256-bit at
    /// `L = 4`) instead of chasing a serial dependency chain of single
    /// words. Plain array loops only: rustc autovectorizes this on stable,
    /// and widening to 512-bit is `L = 8` at the call site.
    ///
    /// # Panics
    ///
    /// Panics for [`GateKind::Input`], which has no evaluation.
    pub fn eval_wide<const L: usize>(self, inputs: &[u64]) -> [u64; L] {
        #[inline(always)]
        fn fold<const L: usize>(
            inputs: &[u64],
            init: u64,
            f: impl Fn(u64, u64) -> u64,
        ) -> [u64; L] {
            let mut acc = [init; L];
            for fanin in inputs.chunks_exact(L) {
                for l in 0..L {
                    acc[l] = f(acc[l], fanin[l]);
                }
            }
            acc
        }
        #[inline(always)]
        fn notl<const L: usize>(mut w: [u64; L]) -> [u64; L] {
            for l in 0..L {
                w[l] = !w[l];
            }
            w
        }
        #[inline(always)]
        fn first<const L: usize>(inputs: &[u64]) -> [u64; L] {
            let mut out = [0u64; L];
            out.copy_from_slice(&inputs[..L]);
            out
        }
        match self {
            GateKind::Input => panic!("primary inputs have no evaluation"),
            GateKind::Const(v) => [if v { u64::MAX } else { 0 }; L],
            GateKind::Buf | GateKind::Dff => first(inputs),
            GateKind::Not => notl(first::<L>(inputs)),
            GateKind::And => fold(inputs, u64::MAX, |a, w| a & w),
            GateKind::Or => fold(inputs, 0, |a, w| a | w),
            GateKind::Nand => notl(fold(inputs, u64::MAX, |a, w| a & w)),
            GateKind::Nor => notl(fold(inputs, 0, |a, w| a | w)),
            GateKind::Xor => fold(inputs, 0, |a, w| a ^ w),
            GateKind::Xnor => notl(fold(inputs, 0, |a, w| a ^ w)),
            GateKind::Mux => {
                let mut out = [0u64; L];
                for l in 0..L {
                    let (sel, a, b) = (inputs[l], inputs[L + l], inputs[2 * L + l]);
                    out[l] = (sel & b) | (!sel & a);
                }
                out
            }
        }
    }

    /// Whether the arity `n` is legal for this kind.
    pub fn arity_ok(self, n: usize) -> bool {
        match self {
            GateKind::Input | GateKind::Const(_) => n == 0,
            GateKind::Buf | GateKind::Not => n == 1,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => n >= 1,
            GateKind::Xor | GateKind::Xnor => n >= 1,
            GateKind::Mux => n == 3,
            GateKind::Dff => n == 1 || n == 2,
        }
    }

    /// Textual arity requirement, for error messages.
    pub fn arity_spec(self) -> &'static str {
        match self {
            GateKind::Input | GateKind::Const(_) => "exactly 0",
            GateKind::Buf | GateKind::Not => "exactly 1",
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => "at least 1",
            GateKind::Xor | GateKind::Xnor => "at least 1",
            GateKind::Mux => "exactly 3 (sel, a, b)",
            GateKind::Dff => "1 (d) or 2 (d, en)",
        }
    }

    /// Number of transistors in a static-CMOS realization with `fanin`
    /// inputs. XOR/XNOR/MUX use transmission-gate style counts; the DFF is a
    /// standard master–slave latch pair.
    pub fn transistor_count(self, fanin: usize) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::Buf => 4,
            GateKind::Not => 2,
            GateKind::Nand | GateKind::Nor => 2 * fanin,
            // Non-inverting forms are NAND/NOR plus an output inverter.
            GateKind::And | GateKind::Or => 2 * fanin + 2,
            // Chain of 2-input XOR cells, ~10T each.
            GateKind::Xor => 10 * fanin.saturating_sub(1).max(1),
            GateKind::Xnor => 10 * fanin.saturating_sub(1).max(1) + 2,
            GateKind::Mux => 12,
            GateKind::Dff => 24,
        }
    }

    /// Intrinsic output capacitance (fF) of the gate itself, before wire and
    /// fanout load. Scales with transistor count.
    pub fn intrinsic_cap(self, fanin: usize) -> f64 {
        1.0 + 0.5 * self.transistor_count(fanin) as f64
    }

    /// Input pin capacitance (fF) presented to each driver.
    pub fn input_cap(self) -> f64 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0.0,
            GateKind::Buf | GateKind::Not => 2.0,
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => 2.0,
            GateKind::Xor | GateKind::Xnor => 4.0,
            GateKind::Mux => 3.0,
            GateKind::Dff => 3.0,
        }
    }

    /// Nominal propagation delay (arbitrary units) at unit drive with `fanin`
    /// inputs. Stacked series transistors slow a gate roughly linearly.
    pub fn base_delay(self, fanin: usize) -> f64 {
        match self {
            GateKind::Input | GateKind::Const(_) => 0.0,
            GateKind::Buf => 1.0,
            GateKind::Not => 0.5,
            GateKind::Nand | GateKind::Nor => 0.5 + 0.3 * fanin as f64,
            GateKind::And | GateKind::Or => 1.0 + 0.3 * fanin as f64,
            GateKind::Xor | GateKind::Xnor => 1.2 * fanin as f64,
            GateKind::Mux => 1.5,
            GateKind::Dff => 1.0,
        }
    }

    /// Whether this kind is a state element.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Whether this kind is a source (has no fanin).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const(_))
    }

    /// Short lowercase mnemonic, used by the text format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const(false) => "const0",
            GateKind::Const(true) => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux => "mux",
            GateKind::Dff => "dff",
        }
    }

    /// Parse a mnemonic produced by [`GateKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        Some(match s {
            "input" => GateKind::Input,
            "const0" => GateKind::Const(false),
            "const1" => GateKind::Const(true),
            "buf" => GateKind::Buf,
            "not" | "inv" => GateKind::Not,
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "mux" => GateKind::Mux,
            "dff" => GateKind::Dff,
            _ => return None,
        })
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic_gates() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false, true]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nor.eval(&[true, false]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Const(true).eval(&[]));
        assert!(!GateKind::Const(false).eval(&[]));
    }

    #[test]
    fn eval_mux_selects() {
        // sel=0 -> a, sel=1 -> b
        assert!(GateKind::Mux.eval(&[false, true, false]));
        assert!(!GateKind::Mux.eval(&[true, true, false]));
    }

    #[test]
    fn wide_eval_matches_scalar_eval_bitwise() {
        let kinds = [
            GateKind::Const(true),
            GateKind::Const(false),
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Dff,
        ];
        // Deterministic pseudo-random fanin words.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        fn check<const L: usize>(kind: GateKind, fanin: usize, next: &mut impl FnMut() -> u64) {
            let lanes: Vec<u64> = (0..fanin * L).map(|_| next()).collect();
            let wide = kind.eval_wide::<L>(&lanes);
            for l in 0..L {
                for bit in 0..64 {
                    let ins: Vec<bool> =
                        (0..fanin).map(|f| lanes[L * f + l] >> bit & 1 == 1).collect();
                    let got = wide[l] >> bit & 1 == 1;
                    assert_eq!(got, kind.eval(&ins), "{kind} L={L} lane {l} bit {bit}");
                }
            }
        }
        for kind in kinds {
            let fanins: &[usize] = match kind {
                GateKind::Const(_) => &[0],
                GateKind::Buf | GateKind::Not | GateKind::Dff => &[1],
                GateKind::Mux => &[3],
                _ => &[1, 2, 3, 5],
            };
            for &fanin in fanins {
                check::<1>(kind, fanin, &mut next);
                check::<4>(kind, fanin, &mut next);
            }
        }
    }

    #[test]
    fn arity_rules() {
        assert!(GateKind::Mux.arity_ok(3));
        assert!(!GateKind::Mux.arity_ok(2));
        assert!(GateKind::Dff.arity_ok(1));
        assert!(GateKind::Dff.arity_ok(2));
        assert!(!GateKind::Dff.arity_ok(3));
        assert!(GateKind::Input.arity_ok(0));
        assert!(!GateKind::Input.arity_ok(1));
        assert!(GateKind::And.arity_ok(5));
        assert!(!GateKind::Not.arity_ok(2));
    }

    #[test]
    fn mnemonic_round_trip() {
        let kinds = [
            GateKind::Input,
            GateKind::Const(false),
            GateKind::Const(true),
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
            GateKind::Dff,
        ];
        for kind in kinds {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(GateKind::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn transistor_counts_scale_with_fanin() {
        assert_eq!(GateKind::Not.transistor_count(1), 2);
        assert_eq!(GateKind::Nand.transistor_count(2), 4);
        assert_eq!(GateKind::Nand.transistor_count(4), 8);
        assert!(GateKind::And.transistor_count(2) > GateKind::Nand.transistor_count(2));
        assert!(GateKind::Xor.transistor_count(3) > GateKind::Xor.transistor_count(2));
    }

    #[test]
    fn delays_grow_with_fanin() {
        assert!(GateKind::Nand.base_delay(4) > GateKind::Nand.base_delay(2));
        assert!(GateKind::Not.base_delay(1) < GateKind::Xor.base_delay(2));
    }
}
