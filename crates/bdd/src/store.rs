//! Serialization of BDD graphs (DDDMP-style text, `lpbdd-v1`).
//!
//! A store blob captures the subgraph reachable from a set of root
//! functions so a manager can be rebuilt in another process — the warm
//! persistence layer under `lpopt serve`'s crash-safe snapshots. The
//! format is line-oriented and versioned, and the whole payload is
//! covered by an FNV-1a checksum: a truncated, bit-flipped or
//! version-skewed blob comes back as a typed [`StoreError`], never a
//! panic and never a silently different function.
//!
//! ```text
//! .lpbdd 1
//! .nvars 3
//! .nnodes 2
//! .nroots 1
//! .nodes
//! 2 0 1
//! 0 2 4
//! .roots
//! 5
//! .checksum 1234abcd1234abcd
//! ```
//!
//! Interior nodes are listed in bottom-up order and numbered 1..=nnodes
//! (serial 0 is the terminal); an edge is encoded as `serial * 2 + c`
//! where `c` is the complement bit, so `0` is constant FALSE and `1`
//! constant TRUE. A node line `var lo hi` may only reference serials
//! already listed. Reconstruction funnels every node through the
//! manager's ITE, so a loaded function is canonical in its new manager
//! and — canonicity being unique — produces bit-identical
//! `probability` / `sat_count` / `support` answers.
//!
//! A manager whose variable order was changed (statically seeded or by a
//! dynamic-reorder pass) writes one extra header line between `.nroots`
//! and `.nodes`: `.order l0 l1 …` — the var→level permutation. Reading
//! such a blob into a **fresh** manager replays the build under that
//! order, so the restored graph is node-for-node the writer's; loading
//! into a populated manager ignores the line (functions do not depend on
//! it). Identity-order managers never emit the line, so their blobs are
//! byte-identical to pre-order-aware builds and still version 1.
//!
//! ```
//! use bdd::{Bdd, store};
//!
//! let mut mgr = Bdd::new();
//! let a = mgr.var(0);
//! let b = mgr.var(1);
//! let f = mgr.and(a, b);
//! let blob = store::write_bdd(&mgr, &[f]);
//! let (back, roots) = store::read_bdd(&blob).unwrap();
//! assert_eq!(back.probability(roots[0], &[0.5, 0.25]),
//!            mgr.probability(f, &[0.5, 0.25]));
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::manager::{Bdd, Ref};

/// Store format version this build writes and accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Why a blob was rejected. Every variant is a clean refusal: the caller
/// discards the snapshot and rebuilds from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The version line is missing or names a format this build does not
    /// speak.
    Version(String),
    /// Structurally unreadable: truncated, token soup, out-of-range
    /// serials, counts that do not match the payload.
    Malformed(String),
    /// The payload parsed but its checksum does not match — bit rot or a
    /// torn write.
    Checksum {
        /// Checksum recorded in the blob.
        stored: u64,
        /// Checksum of the payload actually read.
        computed: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Version(v) => write!(f, "unsupported store version: {v}"),
            StoreError::Malformed(what) => write!(f, "malformed store blob: {what}"),
            StoreError::Checksum { stored, computed } => write!(
                f,
                "store checksum mismatch: recorded {stored:016x}, payload hashes to {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn malformed(what: impl Into<String>) -> StoreError {
    StoreError::Malformed(what.into())
}

/// FNV-1a over a byte slice — the same cheap hash the circuit fingerprint
/// uses; collision resistance here guards against bit rot, not attackers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize the subgraph reachable from `roots` as an `lpbdd-v1` blob.
///
/// Roots may repeat and may be constants; order is preserved and
/// [`read_bdd`] returns the rebuilt refs in the same order.
pub fn write_bdd(mgr: &Bdd, roots: &[Ref]) -> String {
    // Post-order DFS assigning serials so children precede parents.
    let mut serial: HashMap<usize, u64> = HashMap::new();
    let mut lines: Vec<(u32, u64, u64)> = Vec::new();
    let mut stack: Vec<(Ref, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
    while let Some((f, expanded)) = stack.pop() {
        if f.is_const() || serial.contains_key(&f.store_index()) {
            continue;
        }
        if expanded {
            let id = lines.len() as u64 + 1;
            serial.insert(f.store_index(), id);
            let lo = encode_edge(mgr.stored_low(f), &serial);
            let hi = encode_edge(mgr.stored_high(f), &serial);
            lines.push((mgr.top_var(f), lo, hi));
        } else {
            stack.push((f, true));
            stack.push((mgr.stored_high(f), false));
            stack.push((mgr.stored_low(f), false));
        }
    }
    let mut out = String::new();
    out.push_str(&format!(".lpbdd {FORMAT_VERSION}\n"));
    out.push_str(&format!(".nvars {}\n", mgr.num_vars()));
    out.push_str(&format!(".nnodes {}\n", lines.len()));
    out.push_str(&format!(".nroots {}\n", roots.len()));
    if mgr.has_custom_order() {
        out.push_str(".order");
        for level in mgr.var_order() {
            out.push_str(&format!(" {level}"));
        }
        out.push('\n');
    }
    out.push_str(".nodes\n");
    for (var, lo, hi) in &lines {
        out.push_str(&format!("{var} {lo} {hi}\n"));
    }
    out.push_str(".roots\n");
    for &r in roots {
        out.push_str(&format!("{}\n", encode_edge(r, &serial)));
    }
    let checksum = fnv1a(out.as_bytes());
    out.push_str(&format!(".checksum {checksum:016x}\n"));
    out
}

fn encode_edge(f: Ref, serial: &HashMap<usize, u64>) -> u64 {
    if f.is_const() {
        return u64::from(f.const_value());
    }
    let id = serial[&f.store_index()];
    id * 2 + u64::from(f.store_complemented())
}

/// Parse an `lpbdd-v1` blob into a fresh manager, returning it together
/// with the rebuilt roots (same order as [`write_bdd`] was given).
pub fn read_bdd(text: &str) -> Result<(Bdd, Vec<Ref>), StoreError> {
    let mut mgr = Bdd::new();
    let roots = read_bdd_into(&mut mgr, text)?;
    Ok((mgr, roots))
}

/// [`read_bdd`] loading into an existing manager. Nodes are funneled
/// through the manager's ITE, so loading the same blob twice — or a blob
/// overlapping functions already present — shares structure instead of
/// duplicating it.
pub fn read_bdd_into(mgr: &mut Bdd, text: &str) -> Result<Vec<Ref>, StoreError> {
    let (roots, consumed) = read_bdd_prefix(mgr, text)?;
    if text[consumed..].bytes().any(|b| !b.is_ascii_whitespace()) {
        return Err(malformed("trailing data after .checksum"));
    }
    Ok(roots)
}

/// Read one blob from the front of `text` (which may hold further data
/// after it — snapshot envelopes embed several blobs back to back),
/// returning the rebuilt roots and the number of bytes consumed.
pub fn read_bdd_prefix(mgr: &mut Bdd, text: &str) -> Result<(Vec<Ref>, usize), StoreError> {
    let mut parser = Parser::new(text);
    let version = parser.header_line(".lpbdd")?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(StoreError::Version(version.to_string()));
    }
    let nvars = parser.header_line(".nvars")?;
    let nnodes = parser.header_line(".nnodes")?;
    let nroots = parser.header_line(".nroots")?;
    let line = parser
        .next_line()
        .ok_or_else(|| malformed("missing .nodes section"))?;
    match line.trim_end() {
        ".nodes" => {}
        l if l.starts_with(".order") => {
            let mut levels: Vec<u32> = Vec::with_capacity(nvars as usize);
            for tok in l[".order".len()..].split_ascii_whitespace() {
                levels.push(parse_num(Some(tok), ".order level")? as u32);
            }
            if levels.len() as u64 != nvars {
                return Err(malformed(format!(
                    ".order lists {} levels for {nvars} variables",
                    levels.len()
                )));
            }
            let mut seen = vec![false; levels.len()];
            for &l in &levels {
                if (l as usize) >= levels.len() || seen[l as usize] {
                    return Err(malformed(".order is not a permutation"));
                }
                seen[l as usize] = true;
            }
            // Replay the build under the writer's order so the restored
            // graph matches node for node. A populated manager keeps its
            // own order — the functions read back identically either way.
            if mgr.is_empty() {
                mgr.set_order(&levels);
            }
            parser.expect_line(".nodes")?;
        }
        _ => return Err(malformed(format!("expected .nodes, found {line:?}"))),
    }
    // refs[serial]: serial 0 is the terminal FALSE.
    let mut refs: Vec<Ref> = Vec::with_capacity(nnodes as usize + 1);
    refs.push(Ref::FALSE);
    for i in 0..nnodes {
        let line = parser
            .next_line()
            .ok_or_else(|| malformed("truncated node list"))?;
        let mut it = line.split_ascii_whitespace();
        let var = parse_num(it.next(), "node var")?;
        let lo = parse_num(it.next(), "node lo edge")?;
        let hi = parse_num(it.next(), "node hi edge")?;
        if it.next().is_some() {
            return Err(malformed(format!("trailing tokens on node line {}", i + 1)));
        }
        if var >= nvars {
            return Err(malformed(format!(
                "node {} var {var} outside domain {nvars}",
                i + 1
            )));
        }
        let lo = decode_edge(mgr, lo, &refs)?;
        let hi = decode_edge(mgr, hi, &refs)?;
        let v = mgr.var(var as u32);
        refs.push(mgr.ite(v, hi, lo));
    }
    parser.expect_line(".roots")?;
    let mut roots = Vec::with_capacity(nroots as usize);
    for _ in 0..nroots {
        let line = parser
            .next_line()
            .ok_or_else(|| malformed("truncated root list"))?;
        let edge = parse_num(Some(line.trim()), "root edge")?;
        roots.push(decode_edge(mgr, edge, &refs)?);
    }
    // Everything up to here is covered by the checksum line that follows.
    let payload_end = parser.consumed;
    let line = parser
        .next_line()
        .ok_or_else(|| malformed("missing .checksum line"))?;
    let stored = line
        .strip_prefix(".checksum ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| malformed("unreadable .checksum line"))?;
    let computed = fnv1a(&text.as_bytes()[..payload_end]);
    if stored != computed {
        return Err(StoreError::Checksum { stored, computed });
    }
    Ok((roots, parser.consumed))
}

fn parse_num(token: Option<&str>, what: &str) -> Result<u64, StoreError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| malformed(format!("unreadable {what}")))
}

fn decode_edge(mgr: &mut Bdd, edge: u64, refs: &[Ref]) -> Result<Ref, StoreError> {
    let serial = (edge / 2) as usize;
    let complemented = edge % 2 == 1;
    let base = *refs.get(serial).ok_or_else(|| {
        malformed(format!(
            "edge {edge} references serial {serial} before definition"
        ))
    })?;
    Ok(if complemented { mgr.not(base) } else { base })
}

/// Line cursor that tracks how many bytes it has consumed (the checksum
/// covers the exact prefix the parser read).
struct Parser<'a> {
    text: &'a str,
    consumed: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, consumed: 0 }
    }

    fn next_line(&mut self) -> Option<&'a str> {
        if self.consumed >= self.text.len() {
            return None;
        }
        let rest = &self.text[self.consumed..];
        let (line, advance) = match rest.find('\n') {
            Some(i) => (&rest[..i], i + 1),
            None => (rest, rest.len()),
        };
        self.consumed += advance;
        Some(line)
    }

    fn header_line(&mut self, key: &str) -> Result<u64, StoreError> {
        let line = self
            .next_line()
            .ok_or_else(|| malformed(format!("missing {key} line")))?;
        let value = line.strip_prefix(key).map(str::trim);
        match value {
            Some(v) if key == ".lpbdd" => v.parse().map_err(|_| StoreError::Version(v.to_string())),
            Some(v) => v
                .parse()
                .map_err(|_| malformed(format!("unreadable {key} value {v:?}"))),
            None if key == ".lpbdd" => Err(StoreError::Version(line.to_string())),
            None => Err(malformed(format!("expected {key}, found {line:?}"))),
        }
    }

    fn expect_line(&mut self, expected: &str) -> Result<(), StoreError> {
        match self.next_line() {
            Some(line) if line.trim_end() == expected => Ok(()),
            Some(line) => Err(malformed(format!("expected {expected}, found {line:?}"))),
            None => Err(malformed(format!("missing {expected} section"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Bdd, Vec<Ref>) {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.xor(ab, c);
        let g = mgr.or(f, a);
        let h = mgr.not(f);
        (mgr, vec![f, g, h, Ref::TRUE, Ref::FALSE])
    }

    #[test]
    fn round_trip_preserves_functions() {
        let (mgr, roots) = sample();
        let blob = write_bdd(&mgr, &roots);
        let (back, rebuilt) = read_bdd(&blob).expect("round trip");
        assert_eq!(rebuilt.len(), roots.len());
        let p = [0.3, 0.7, 0.5];
        for (&orig, &new) in roots.iter().zip(&rebuilt) {
            assert_eq!(
                mgr.probability(orig, &p).to_bits(),
                back.probability(new, &p).to_bits()
            );
            assert_eq!(
                mgr.sat_count(orig, 3).to_bits(),
                back.sat_count(new, 3).to_bits()
            );
            assert_eq!(mgr.support(orig), back.support(new));
        }
        // Complement pair survives as a complement pair.
        assert_eq!(rebuilt[2], back.not(rebuilt[0]));
    }

    #[test]
    fn read_into_shares_structure() {
        let (mgr, roots) = sample();
        let blob = write_bdd(&mgr, &roots);
        let mut target = Bdd::new();
        let first = read_bdd_into(&mut target, &blob).unwrap();
        let nodes_after_first = target.node_count();
        let second = read_bdd_into(&mut target, &blob).unwrap();
        assert_eq!(first, second, "same functions must intern to same refs");
        assert_eq!(target.node_count(), nodes_after_first, "no duplication");
    }

    #[test]
    fn version_skew_is_rejected() {
        let (mgr, roots) = sample();
        let blob = write_bdd(&mgr, &roots).replace(".lpbdd 1", ".lpbdd 99");
        match read_bdd(&blob) {
            Err(StoreError::Version(v)) => assert_eq!(v, "99"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (mgr, roots) = sample();
        let blob = write_bdd(&mgr, &roots);
        for cut in [1, blob.len() / 4, blob.len() / 2, blob.len() - 2] {
            let err = read_bdd(&blob[..cut]).expect_err("truncated blob must fail");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn corruption_is_rejected_by_checksum() {
        let (mgr, roots) = sample();
        let blob = write_bdd(&mgr, &roots);
        // Flip one digit inside the node list: still parseable, but the
        // checksum no longer matches.
        let node_section = blob.find(".nodes\n").unwrap() + 7;
        let mut bytes = blob.into_bytes();
        let target = (node_section..bytes.len())
            .find(|&i| bytes[i].is_ascii_digit())
            .unwrap();
        bytes[target] = if bytes[target] == b'0' { b'1' } else { b'0' };
        let corrupt = String::from_utf8(bytes).unwrap();
        match read_bdd(&corrupt) {
            Err(StoreError::Checksum { stored, computed }) => assert_ne!(stored, computed),
            Err(other) => {
                // A flip may instead break structure (e.g. a serial now out
                // of range); that is an equally clean rejection.
                assert!(matches!(other, StoreError::Malformed(_)));
            }
            Ok(_) => panic!("corrupted blob must be rejected"),
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicking() {
        for garbage in ["", "hello", ".lpbdd one\n", ".lpbdd 1\n.nvars x\n"] {
            assert!(read_bdd(garbage).is_err(), "{garbage:?}");
        }
    }

    fn reordered_sample() -> (Bdd, Vec<Ref>) {
        let mut mgr = Bdd::new();
        // Non-identity order: interleaved pair partners become adjacent.
        mgr.set_order(&[0, 2, 1, 3]);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ac = mgr.and(a, c);
        let bd = mgr.and(b, d);
        let f = mgr.or(ac, bd);
        let g = mgr.xor(f, a);
        (mgr, vec![f, g])
    }

    #[test]
    fn identity_order_writes_no_order_line() {
        let (mgr, roots) = sample();
        assert!(!write_bdd(&mgr, &roots).contains(".order"));
    }

    #[test]
    fn reordered_round_trip_restores_order_and_semantics() {
        let (mgr, roots) = reordered_sample();
        let blob = write_bdd(&mgr, &roots);
        assert!(blob.contains(".order 0 2 1 3\n"), "order must be recorded");
        let (back, rebuilt) = read_bdd(&blob).expect("round trip");
        assert_eq!(back.var_order(), mgr.var_order());
        let p = [0.25, 0.75, 0.5, 0.125];
        for (&orig, &new) in roots.iter().zip(&rebuilt) {
            assert_eq!(
                mgr.probability(orig, &p).to_bits(),
                back.probability(new, &p).to_bits()
            );
            assert_eq!(
                mgr.sat_count(orig, 4).to_bits(),
                back.sat_count(new, 4).to_bits()
            );
            assert_eq!(mgr.support(orig), back.support(new));
        }
        // Node-for-node replay: the rebuilt graph is the writer's size.
        assert_eq!(back.size_many(&rebuilt), mgr.size_many(&roots));
    }

    #[test]
    fn order_line_into_populated_manager_is_ignored_but_correct() {
        let (mgr, roots) = reordered_sample();
        let blob = write_bdd(&mgr, &roots);
        let mut target = Bdd::new();
        let x = target.var(0);
        let y = target.var(1);
        let keep = target.and(x, y);
        let rebuilt = read_bdd_into(&mut target, &blob).unwrap();
        assert!(
            !target.has_custom_order(),
            "populated manager keeps its order"
        );
        for (&orig, &new) in roots.iter().zip(&rebuilt) {
            for bits in 0u32..16 {
                let env: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(mgr.eval(orig, &env), target.eval(new, &env));
            }
        }
        assert!(target.eval(keep, &[true, true]));
    }

    #[test]
    fn corrupt_order_line_is_rejected() {
        let (mgr, roots) = reordered_sample();
        let blob = write_bdd(&mgr, &roots);
        let order_start = blob.find(".order").expect("reordered blob has .order");
        let line_end = blob[order_start..].find('\n').unwrap() + order_start;
        // Duplicate level: parseable but not a permutation.
        let dup = format!(
            "{}.order 0 0 1 2\n{}",
            &blob[..order_start],
            &blob[line_end + 1..]
        );
        assert!(matches!(read_bdd(&dup), Err(StoreError::Malformed(_))));
        // Wrong arity.
        let short = format!(
            "{}.order 0 1\n{}",
            &blob[..order_start],
            &blob[line_end + 1..]
        );
        assert!(matches!(read_bdd(&short), Err(StoreError::Malformed(_))));
        // Bit-flip inside the order digits: caught by checksum (or parse).
        let mut bytes = blob.clone().into_bytes();
        let digit = (order_start..line_end)
            .find(|&i| bytes[i].is_ascii_digit())
            .unwrap();
        bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(
            read_bdd(&flipped).is_err(),
            "order corruption must be rejected"
        );
    }

    #[test]
    fn sifted_manager_round_trips() {
        // An order produced by an actual reorder pass (not a seeded one)
        // must round-trip the same way.
        let mut mgr = Bdd::new();
        let pairs = [(0u32, 3u32), (1, 4), (2, 5)];
        let mut f = Ref::FALSE;
        for (a, b) in pairs {
            let va = mgr.var(a);
            let vb = mgr.var(b);
            let t = mgr.and(va, vb);
            f = mgr.or(f, t);
        }
        mgr.protect(f);
        mgr.reorder_now();
        let blob = write_bdd(&mgr, &[f]);
        let (back, rebuilt) = read_bdd(&blob).unwrap();
        assert_eq!(back.var_order(), mgr.var_order());
        assert_eq!(back.size(rebuilt[0]), mgr.size(f));
        for bits in 0u32..64 {
            let env: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(mgr.eval(f, &env), back.eval(rebuilt[0], &env));
        }
    }

    #[test]
    fn version_skew_rejected_on_order_carrying_blob() {
        let (mgr, roots) = reordered_sample();
        let blob = write_bdd(&mgr, &roots).replace(".lpbdd 1", ".lpbdd 2");
        assert!(matches!(read_bdd(&blob), Err(StoreError::Version(_))));
    }
}
