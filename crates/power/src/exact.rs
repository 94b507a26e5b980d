//! Exact signal probabilities through global BDDs.
//!
//! Builds one BDD per net of a combinational netlist (inputs become BDD
//! variables in primary-input order) and evaluates exact one-probabilities
//! under independent input statistics. Under the standard
//! temporal-independence assumption, the per-cycle switching activity of a
//! net with one-probability `p` is `2·p·(1−p)`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::rc::Rc;

use bdd::{Bdd, Ref};
use budget::{BudgetExceeded, ResourceBudget};
use netlist::{GateKind, NetId, Netlist};
use sim::ActivityProfile;

use crate::order::{static_order, ReorderConfig};

/// BDDs for every net of a combinational netlist.
#[derive(Debug)]
pub struct CircuitBdds {
    /// The manager owning all nodes.
    pub mgr: Bdd,
    /// One function per net, indexed by raw net id.
    pub funcs: Vec<Ref>,
    /// Input variable index per primary input (position in `nl.inputs()`).
    pub input_vars: Vec<u32>,
}

/// Build global BDDs for all nets of a combinational netlist.
///
/// ```
/// use netlist::gen::parity_tree;
/// use power::exact::circuit_bdds;
///
/// let nl = parity_tree(6);
/// let bdds = circuit_bdds(&nl);
/// let (out, _) = nl.outputs()[0].clone();
/// // Parity of uniform bits is 1 exactly half the time.
/// let p = bdds.probabilities(&[0.5; 6])[out.index()];
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
///
/// Flip-flop outputs are treated as free variables appended after the
/// primary inputs, so the function also works on the combinational core of
/// a sequential circuit.
///
/// # Panics
///
/// Panics if the combinational part is cyclic.
pub fn circuit_bdds(nl: &Netlist) -> CircuitBdds {
    match try_circuit_bdds(nl, &ResourceBudget::unlimited()) {
        Ok(b) => b,
        Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
    }
}

/// [`circuit_bdds`] under a [`ResourceBudget`]: BDD construction stops
/// with a typed error as soon as the manager's node count crosses the
/// limit or the deadline passes, instead of growing exponentially on a
/// hostile cone (multiplier outputs, wide comparators). This is the guard
/// the degradation chain in [`crate::chain`] relies on to give up on the
/// exact tier cheaply.
pub fn try_circuit_bdds(
    nl: &Netlist,
    budget: &ResourceBudget,
) -> Result<CircuitBdds, BudgetExceeded> {
    try_circuit_bdds_reorder(nl, budget, &ReorderConfig::default(), &obs::Obs::disabled())
}

/// [`try_circuit_bdds`] under an explicit [`ReorderConfig`], publishing to
/// `obs`: the manager is seeded with the config's static order (fanin-DFS
/// or FORCE, computed from the netlist) and runs its dynamic schedule
/// during the build. The default config reproduces the fixed
/// natural-order build bit for bit.
///
/// Published: the manager's operation counters (`bdd.ite_calls`,
/// `bdd.cache_lookups`, `bdd.cache_hits`, `bdd.cache_evictions`,
/// `bdd.unique_lookups`, `bdd.unique_hits`, `bdd.nodes_created`,
/// `bdd.gc_runs`, `bdd.nodes_freed`), the reorder pass counters
/// (`bdd.reorder.runs`, `bdd.reorder.swaps`, `bdd.reorder.nodes_before`,
/// `bdd.reorder.nodes_after`) and the peak live node count (gauge
/// `bdd.peak_nodes`). Metrics publish on success **and** on budget
/// exhaustion — an abandoned exact tier is precisely when "how far did
/// the BDD get" matters — which is why this lives here and not in the
/// obs-free `bdd` crate: the manager counts its own work as plain
/// integers, and this caller flushes them at the run boundary.
pub fn try_circuit_bdds_reorder(
    nl: &Netlist,
    budget: &ResourceBudget,
    reorder: &ReorderConfig,
    obs: &obs::Obs,
) -> Result<CircuitBdds, BudgetExceeded> {
    let mut mgr = Bdd::new();
    // Every completed net function is rooted below, so under node-budget
    // pressure the manager can sweep dead intermediates and the budget
    // meters live nodes, not lifetime allocations. The same rooting makes
    // reorder passes safe: a pass collects, and only unrooted abandoned
    // intermediates can be swept.
    mgr.set_auto_gc(true);
    if let Some(order) = static_order(nl, reorder.initial) {
        mgr.set_order(&order);
    }
    mgr.set_reorder_schedule(reorder.schedule);
    let result = build_funcs(&mut mgr, nl, budget);
    if obs.is_enabled() {
        let c = mgr.op_counts();
        obs.add("bdd.ite_calls", c.ite_calls);
        obs.add("bdd.cache_lookups", c.cache_lookups);
        obs.add("bdd.cache_hits", c.cache_hits);
        obs.add("bdd.cache_evictions", c.cache_evictions);
        obs.add("bdd.unique_lookups", c.unique_lookups);
        obs.add("bdd.unique_hits", c.unique_hits);
        obs.add("bdd.nodes_created", c.nodes_created);
        obs.add("bdd.gc_runs", c.gc_runs);
        obs.add("bdd.nodes_freed", c.nodes_freed);
        obs.add("bdd.reorder.runs", c.reorder_runs);
        obs.add("bdd.reorder.swaps", c.reorder_swaps);
        obs.add("bdd.reorder.nodes_before", c.reorder_nodes_before);
        obs.add("bdd.reorder.nodes_after", c.reorder_nodes_after);
        obs.gauge_max("bdd.peak_nodes", mgr.peak_live_nodes() as f64);
    }
    let (funcs, input_vars) = result?;
    Ok(CircuitBdds {
        mgr,
        funcs,
        input_vars,
    })
}

type Funcs = (Vec<Ref>, Vec<u32>);

fn build_funcs(
    mgr: &mut Bdd,
    nl: &Netlist,
    budget: &ResourceBudget,
) -> Result<Funcs, BudgetExceeded> {
    let mut funcs = vec![Ref::FALSE; nl.len()];
    let mut next_var = 0u32;
    let mut input_vars = Vec::with_capacity(nl.num_inputs());
    for &pi in nl.inputs() {
        let v = mgr.var(next_var);
        mgr.protect(v);
        funcs[pi.index()] = v;
        input_vars.push(next_var);
        next_var += 1;
    }
    for &dff in nl.dffs() {
        let v = mgr.var(next_var);
        mgr.protect(v);
        funcs[dff.index()] = v;
        next_var += 1;
    }
    let order = nl.topo_order().expect("acyclic");
    for (done, net) in order.into_iter().enumerate() {
        // The ITE guard amortizes its deadline poll per *call* and each
        // gate is a fresh call, so a netlist of small gates could otherwise
        // run arbitrarily long past an expired deadline. One clock read per
        // 8 gates keeps the guard off the hot path while still bounding
        // the overrun.
        if done & 0x7 == 0 {
            budget.check_deadline()?;
        }
        let kind = nl.kind(net);
        if kind == GateKind::Input || kind == GateKind::Dff {
            continue;
        }
        let ins: Vec<Ref> = nl.fanins(net).iter().map(|x| funcs[x.index()]).collect();
        let func = try_gate_bdd(mgr, kind, &ins, budget)?;
        // Root the completed function so GC under budget pressure only
        // reclaims abandoned intermediates.
        mgr.protect(func);
        funcs[net.index()] = func;
    }
    Ok((funcs, input_vars))
}

/// The function of one gate of `kind` over its fanin functions `ins`, in
/// `mgr`. Circuit builds and the don't-care pass's observability
/// substitution both build gates here, so they apply the same operations
/// in the same order.
///
/// # Panics
///
/// Panics on [`GateKind::Input`] and [`GateKind::Dff`]: sources are
/// variables, not gates.
pub fn try_gate_bdd(
    mgr: &mut Bdd,
    kind: GateKind,
    ins: &[Ref],
    budget: &ResourceBudget,
) -> Result<Ref, BudgetExceeded> {
    let all = ins.iter().copied();
    Ok(match kind {
        GateKind::Const(v) => mgr.constant(v),
        GateKind::Buf => ins[0],
        GateKind::Not => mgr.try_not(ins[0], budget)?,
        GateKind::And => mgr.try_and_all(all, budget)?,
        GateKind::Or => mgr.try_or_all(all, budget)?,
        GateKind::Nand => {
            let a = mgr.try_and_all(all, budget)?;
            mgr.try_not(a, budget)?
        }
        GateKind::Nor => {
            let o = mgr.try_or_all(all, budget)?;
            mgr.try_not(o, budget)?
        }
        GateKind::Xor => mgr.try_xor_all(all, budget)?,
        GateKind::Xnor => {
            let x = mgr.try_xor_all(all, budget)?;
            mgr.try_not(x, budget)?
        }
        GateKind::Mux => mgr.try_ite(ins[0], ins[2], ins[1], budget)?,
        GateKind::Input | GateKind::Dff => unreachable!("sources are variables"),
    })
}

impl CircuitBdds {
    /// The BDD of a specific net.
    pub fn func(&self, net: NetId) -> Ref {
        self.funcs[net.index()]
    }

    /// Exact one-probability of every net, given per-primary-input
    /// one-probabilities (flip-flop variables default to 0.5).
    pub fn probabilities(&self, input_probs: &[f64]) -> Vec<f64> {
        let nvars = self.mgr.num_vars();
        let mut var_probs = vec![0.5; nvars];
        for (i, &v) in self.input_vars.iter().enumerate() {
            if i < input_probs.len() {
                var_probs[v as usize] = input_probs[i];
            }
        }
        self.mgr.probability_many(&self.funcs, &var_probs)
    }

    /// Exact zero-delay activity profile under temporal independence:
    /// toggles per cycle on each net is `2·p·(1−p)`.
    pub fn activity(&self, input_probs: &[f64]) -> ActivityProfile {
        let probability = self.probabilities(input_probs);
        let toggles = probability.iter().map(|&p| 2.0 * p * (1.0 - p)).collect();
        ActivityProfile {
            toggles,
            probability,
            cycles: 0,
        }
    }

    /// Check two nets for functional equivalence (canonical compare).
    pub fn equivalent(&self, a: NetId, b: NetId) -> bool {
        self.funcs[a.index()] == self.funcs[b.index()]
    }

    /// The manager's final var→level permutation — identity unless a
    /// static seed order or a dynamic reorder pass moved variables.
    /// Snapshot entries carry it (via the store's `.order` line), so a
    /// warm start replays under the same order this build ended with.
    pub fn variable_order(&self) -> Vec<u32> {
        self.mgr.var_order()
    }
}

/// Structural fingerprint of a netlist, the cache key: FNV-1a over
/// everything that determines its circuit BDDs (gate kinds, fanin wiring,
/// input/dff order). Names are deliberately excluded — renaming a net
/// cannot change its BDD.
fn fingerprint(nl: &Netlist) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(nl.len() as u64);
    mix(nl.num_inputs() as u64);
    for net in nl.iter_nets() {
        let code = match nl.kind(net) {
            GateKind::Input => 1,
            GateKind::Const(false) => 2,
            GateKind::Const(true) => 3,
            GateKind::Buf => 4,
            GateKind::Not => 5,
            GateKind::And => 6,
            GateKind::Or => 7,
            GateKind::Nand => 8,
            GateKind::Nor => 9,
            GateKind::Xor => 10,
            GateKind::Xnor => 11,
            GateKind::Mux => 12,
            GateKind::Dff => 13,
        };
        mix(code);
        let fanins = nl.fanins(net);
        mix(fanins.len() as u64);
        for x in fanins {
            mix(x.index() as u64);
        }
    }
    for &pi in nl.inputs() {
        mix(pi.index() as u64);
    }
    for &d in nl.dffs() {
        mix(d.index() as u64);
    }
    h
}

/// Cross-pass cache of [`CircuitBdds`] keyed by netlist structure.
///
/// A flow typically asks for the same circuit's BDDs several times — the
/// degradation chain's exact tier, the don't-care optimizer's fixpoint
/// loop, and the before/after power check all start from the identical
/// netlist. Building once and sharing an `Rc` turns every repeat into a
/// lookup. Only successful builds are cached: a budget-abandoned build
/// must re-attempt (a later caller may carry a bigger budget).
///
/// ```
/// use budget::ResourceBudget;
/// use netlist::gen::parity_tree;
/// use power::exact::CircuitBddCache;
///
/// let nl = parity_tree(4);
/// let mut cache = CircuitBddCache::new();
/// let b1 = cache.get_or_build(&nl, &ResourceBudget::unlimited())?;
/// let b2 = cache.get_or_build(&nl, &ResourceBudget::unlimited())?;
/// assert!(std::rc::Rc::ptr_eq(&b1, &b2));
/// assert_eq!(cache.hits(), 1);
/// # Ok::<(), budget::BudgetExceeded>(())
/// ```
#[derive(Debug, Default)]
pub struct CircuitBddCache {
    entries: HashMap<u64, Rc<CircuitBdds>>,
    /// Insertion order, oldest first, for capacity eviction.
    order: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// Default capacity: a don't-care fixpoint loop re-fingerprints after every
/// accepted rewrite, so the cache must tolerate a stream of near-duplicate
/// netlists without holding every generation's manager alive.
const DEFAULT_CIRCUIT_CACHE_CAPACITY: usize = 16;

impl CircuitBddCache {
    /// An empty cache with the default capacity.
    pub fn new() -> CircuitBddCache {
        CircuitBddCache::with_capacity(DEFAULT_CIRCUIT_CACHE_CAPACITY)
    }

    /// An empty cache holding at most `capacity` circuits (oldest evicted).
    pub fn with_capacity(capacity: usize) -> CircuitBddCache {
        CircuitBddCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups that found an existing build.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cached circuits currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The circuit BDDs of `nl`, building them on first sight.
    pub fn get_or_build(
        &mut self,
        nl: &Netlist,
        budget: &ResourceBudget,
    ) -> Result<Rc<CircuitBdds>, BudgetExceeded> {
        self.get_or_build_reorder(nl, budget, &ReorderConfig::default(), &obs::Obs::disabled())
    }

    /// [`CircuitBddCache::get_or_build`] under an explicit
    /// [`ReorderConfig`], publishing cache traffic as
    /// `bdd.circuit_cache.hits` / `bdd.circuit_cache.misses` and, on a
    /// miss, the underlying build's kernel counters (via
    /// [`try_circuit_bdds_reorder`]). A hit publishes no kernel counters —
    /// they count actual work, and a hit does none.
    ///
    /// A hit still honors the caller's node budget: if the cached
    /// manager's peak live count exceeds `max_bdd_nodes`, the entry is
    /// *not* served and the call fails exactly as the build would have.
    /// Without this check a warm cache would let a starved job succeed
    /// that a cold process rejects, and budget verdicts would depend on
    /// what ran before — the opposite of the fault-isolation contract.
    ///
    /// The config is mixed into the cache key, so the same circuit built
    /// under different ordering policies occupies distinct entries — a
    /// warm hit always replays the order it was built (and snapshotted)
    /// with, and never serves a fixed-order build to a reorder-enabled
    /// caller or vice versa. The default config's key is the bare
    /// structural fingerprint, keeping snapshots from order-unaware builds
    /// warm.
    pub fn get_or_build_reorder(
        &mut self,
        nl: &Netlist,
        budget: &ResourceBudget,
        reorder: &ReorderConfig,
        obs: &obs::Obs,
    ) -> Result<Rc<CircuitBdds>, BudgetExceeded> {
        let key = fingerprint(nl) ^ reorder.cache_key();
        if let Some(b) = self.entries.get(&key) {
            let peak = b.mgr.peak_live_nodes() as u64;
            if peak > budget.max_bdd_nodes_or(u64::MAX) {
                return Err(budget.bdd_nodes_exceeded(peak));
            }
            self.hits += 1;
            obs.add("bdd.circuit_cache.hits", 1);
            return Ok(Rc::clone(b));
        }
        self.misses += 1;
        obs.add("bdd.circuit_cache.misses", 1);
        let built = Rc::new(try_circuit_bdds_reorder(nl, budget, reorder, obs)?);
        self.insert(key, Rc::clone(&built));
        Ok(built)
    }

    /// Hold `circuit` under `key`, evicting the oldest entries beyond
    /// capacity.
    fn insert(&mut self, key: u64, circuit: Rc<CircuitBdds>) {
        while self.entries.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    self.entries.remove(&old);
                }
                None => break,
            }
        }
        self.entries.insert(key, circuit);
        self.order.push_back(key);
    }
}

// ----------------------------------------------------------------------
// Snapshot persistence (crash-safe warm starts for `lpopt serve`)
// ----------------------------------------------------------------------

/// Snapshot envelope version; bumped when the entry layout changes.
const SNAPSHOT_VERSION: u32 = 1;

impl CircuitBdds {
    /// Serialize as one store entry: the per-net functions are the blob's
    /// roots (in net-id order), prefixed by the input-variable map.
    fn snapshot_entry(&self, key: u64) -> String {
        let mut out = format!(".entry {key:016x} {}\n", self.input_vars.len());
        out.push_str(".inputvars");
        for &v in &self.input_vars {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
        out.push_str(&bdd::store::write_bdd(&self.mgr, &self.funcs));
        out
    }

    /// Rebuild from the front of `text` (one `.entry` record), returning
    /// the fingerprint key, the circuit, and the bytes consumed.
    fn from_snapshot_entry(text: &str) -> Result<(u64, CircuitBdds, usize), bdd::store::StoreError> {
        use bdd::store::StoreError;
        let malformed = |w: &str| StoreError::Malformed(w.to_string());
        let header_end = text.find('\n').ok_or_else(|| malformed("truncated .entry header"))?;
        let mut it = text[..header_end].split_ascii_whitespace();
        if it.next() != Some(".entry") {
            return Err(malformed("expected .entry header"));
        }
        let key = it
            .next()
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| malformed("unreadable entry fingerprint"))?;
        let n_inputs: usize = it
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| malformed("unreadable entry input count"))?;
        let rest = &text[header_end + 1..];
        let vars_end = rest.find('\n').ok_or_else(|| malformed("truncated .inputvars"))?;
        let vars_line = &rest[..vars_end];
        let mut vars_it = vars_line.split_ascii_whitespace();
        if vars_it.next() != Some(".inputvars") {
            return Err(malformed("expected .inputvars line"));
        }
        let input_vars: Vec<u32> = vars_it
            .map(|t| t.parse().map_err(|_| malformed("unreadable input variable")))
            .collect::<Result<_, _>>()?;
        if input_vars.len() != n_inputs {
            return Err(malformed("input variable count mismatch"));
        }
        let blob = &rest[vars_end + 1..];
        let mut mgr = bdd::Bdd::new();
        let (funcs, blob_consumed) = bdd::store::read_bdd_prefix(&mut mgr, blob)?;
        // Mirror a fresh build: every net function is rooted, so a later
        // consumer enabling auto-GC cannot sweep warm-started functions.
        for &f in &funcs {
            mgr.protect(f);
        }
        let consumed = header_end + 1 + vars_end + 1 + blob_consumed;
        Ok((key, CircuitBdds { mgr, funcs, input_vars }, consumed))
    }
}

impl CircuitBddCache {
    /// Serialize every cached circuit as a versioned, checksummed snapshot
    /// suitable for [`CircuitBddCache::load_snapshot_text`] after a process
    /// restart. Entries appear oldest first, so reloading preserves the
    /// eviction order.
    pub fn snapshot_text(&self) -> String {
        let mut out = format!(".lpsnap {SNAPSHOT_VERSION}\n.entries {}\n", self.order.len());
        for key in &self.order {
            if let Some(entry) = self.entries.get(key) {
                out.push_str(&entry.snapshot_entry(*key));
            }
        }
        let checksum = bdd::store::fnv1a(out.as_bytes());
        out.push_str(&format!(".endsnap {checksum:016x}\n"));
        out
    }

    /// Warm-start from a snapshot produced by
    /// [`CircuitBddCache::snapshot_text`]. All-or-nothing: a version skew,
    /// checksum mismatch or malformed entry rejects the whole snapshot
    /// with a typed error and leaves the cache untouched — a corrupt
    /// snapshot is discarded, never trusted. Returns the number of
    /// circuits loaded; entries already present (by fingerprint) are
    /// skipped, and capacity eviction applies as usual.
    pub fn load_snapshot_text(&mut self, text: &str) -> Result<usize, bdd::store::StoreError> {
        let malformed = |w: &str| bdd::store::StoreError::Malformed(w.to_string());
        // Verify the envelope checksum before rebuilding anything.
        let Envelope { count, end_at } = parse_envelope(text)?;
        // Parse every entry before touching the cache (all-or-nothing).
        let mut cursor = text
            .find("\n.entry ")
            .map(|i| i + 1)
            .unwrap_or(end_at + 1);
        let mut parsed = Vec::with_capacity(count);
        for _ in 0..count {
            if cursor >= end_at {
                return Err(malformed("fewer entries than .entries declares"));
            }
            let (key, circuit, consumed) = CircuitBdds::from_snapshot_entry(&text[cursor..])?;
            parsed.push((key, circuit));
            cursor += consumed;
        }
        if text[cursor..end_at + 1].bytes().any(|b| !b.is_ascii_whitespace()) {
            return Err(malformed("more entries than .entries declares"));
        }
        let mut loaded = 0;
        for (key, circuit) in parsed {
            if self.entries.contains_key(&key) {
                continue;
            }
            self.insert(key, Rc::new(circuit));
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Validate a snapshot's envelope — format version, `.entries` header and
/// checksum — without rebuilding any BDDs. This is the cheap admission
/// check a daemon runs once per file before handing the text to per-worker
/// caches (which cannot be shared across threads): any bit flip,
/// truncation or version skew is caught here, and
/// [`CircuitBddCache::load_snapshot_text`] re-verifies everything anyway.
pub fn verify_snapshot_text(text: &str) -> Result<(), bdd::store::StoreError> {
    parse_envelope(text).map(|_| ())
}

/// A snapshot's verified envelope.
struct Envelope {
    /// Entries the `.entries` header declares.
    count: usize,
    /// Byte offset of the newline before the `.endsnap` trailer; the
    /// checksum covers everything up to and including it.
    end_at: usize,
}

/// Parse and check a snapshot's version line, `.entries` header and
/// `.endsnap` checksum.
fn parse_envelope(text: &str) -> Result<Envelope, bdd::store::StoreError> {
    use bdd::store::StoreError;
    let malformed = |w: &str| StoreError::Malformed(w.to_string());
    let mut lines = text.lines();
    let version_line = lines.next().ok_or_else(|| malformed("empty snapshot"))?;
    let version = version_line
        .strip_prefix(".lpsnap ")
        .ok_or_else(|| StoreError::Version(version_line.to_string()))?;
    if version.trim().parse::<u32>() != Ok(SNAPSHOT_VERSION) {
        return Err(StoreError::Version(version.trim().to_string()));
    }
    let entries_line = lines.next().ok_or_else(|| malformed("missing .entries"))?;
    let count = entries_line
        .strip_prefix(".entries ")
        .and_then(|n| n.trim().parse::<usize>().ok())
        .ok_or_else(|| malformed("unreadable .entries line"))?;
    let end_at = text
        .rfind("\n.endsnap ")
        .ok_or_else(|| malformed("missing .endsnap trailer"))?;
    let trailer = text[end_at + 1..].trim_end();
    let stored = trailer
        .strip_prefix(".endsnap ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| malformed("unreadable .endsnap trailer"))?;
    let computed = bdd::store::fnv1a(&text.as_bytes()[..end_at + 1]);
    if stored != computed {
        return Err(StoreError::Checksum { stored, computed });
    }
    Ok(Envelope { count, end_at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::gen::{comparator_gt, parity_tree, ripple_adder};
    use sim::comb::CombSim;
    use sim::stimulus::Stimulus;

    #[test]
    fn parity_probability_is_half() {
        let nl = parity_tree(7);
        let bdds = circuit_bdds(&nl);
        let probs = bdds.probabilities(&[0.5; 7]);
        let (out, _) = nl.outputs()[0];
        assert!((probs[out.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn comparator_gt_probability() {
        // P(C > D) for uniform independent n-bit C, D is (4^n - 2^n) / (2 · 4^n).
        let n = 4;
        let (nl, nets) = comparator_gt(n);
        let bdds = circuit_bdds(&nl);
        let probs = bdds.probabilities(&[0.5; 8]);
        let expected = ((1u64 << (2 * n)) - (1 << n)) as f64 / (2.0 * (1u64 << (2 * n)) as f64);
        assert!(
            (probs[nets.gt.index()] - expected).abs() < 1e-12,
            "got {}, want {expected}",
            probs[nets.gt.index()]
        );
    }

    #[test]
    fn exact_matches_simulation() {
        let (nl, _) = ripple_adder(5);
        let bdds = circuit_bdds(&nl);
        let exact = bdds.probabilities(&[0.5; 10]);
        let sim_profile =
            CombSim::new(&nl).activity(&Stimulus::uniform(10).patterns(20_000, 7));
        for net in nl.iter_nets() {
            let e = exact[net.index()];
            let m = sim_profile.probability[net.index()];
            assert!((e - m).abs() < 0.03, "net {net}: exact {e} vs sim {m}");
        }
    }

    #[test]
    fn biased_inputs_shift_probabilities() {
        let (nl, nets) = comparator_gt(3);
        let bdds = circuit_bdds(&nl);
        // C bits likely 1, D bits likely 0: C > D almost surely.
        let mut probs = vec![0.95; 3];
        probs.extend([0.05; 3]);
        let p = bdds.probabilities(&probs)[nets.gt.index()];
        assert!(p > 0.85, "got {p}");
    }

    #[test]
    fn activity_peaks_at_half() {
        let nl = parity_tree(4);
        let bdds = circuit_bdds(&nl);
        let (out, _) = nl.outputs()[0];
        let a_half = bdds.activity(&[0.5; 4]).toggles[out.index()];
        let a_biased = bdds.activity(&[0.9; 4]).toggles[out.index()];
        assert!(a_half >= a_biased);
        assert!((a_half - 0.5).abs() < 1e-12); // 2·0.5·0.5
    }

    #[test]
    fn equivalence_between_nets() {
        // Two structurally different builds of the same XOR.
        let mut nl = netlist::Netlist::new("eq");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let direct = nl.add_gate(GateKind::Xor, &[a, b]);
        let na = nl.add_gate(GateKind::Not, &[a]);
        let nb = nl.add_gate(GateKind::Not, &[b]);
        let t1 = nl.add_gate(GateKind::And, &[a, nb]);
        let t2 = nl.add_gate(GateKind::And, &[na, b]);
        let rebuilt = nl.add_gate(GateKind::Or, &[t1, t2]);
        nl.mark_output(direct, "x1");
        nl.mark_output(rebuilt, "x2");
        let bdds = circuit_bdds(&nl);
        assert!(bdds.equivalent(direct, rebuilt));
        assert!(!bdds.equivalent(direct, t1));
    }

    #[test]
    fn obs_metrics_publish_on_success_and_failure() {
        let (nl, _) = ripple_adder(4);
        let obs = obs::Obs::enabled();
        let natural = ReorderConfig::default();
        try_circuit_bdds_reorder(&nl, &ResourceBudget::unlimited(), &natural, &obs).unwrap();
        let snap = obs.snapshot();
        let lookups = snap.counter("bdd.cache_lookups").unwrap();
        let hits = snap.counter("bdd.cache_hits").unwrap();
        assert!(lookups > 0);
        assert!(hits <= lookups);
        assert_eq!(
            snap.counter("bdd.unique_lookups").unwrap(),
            snap.counter("bdd.unique_hits").unwrap()
                + snap.counter("bdd.nodes_created").unwrap()
        );
        assert!(snap.gauge("bdd.peak_nodes").unwrap() > 2.0);

        // An exhausted build still reports how far the manager got.
        let (hostile, _) = netlist::gen::array_multiplier(6);
        let obs = obs::Obs::enabled();
        let tight = ResourceBudget::unlimited().with_max_bdd_nodes(64);
        assert!(try_circuit_bdds_reorder(&hostile, &tight, &natural, &obs).is_err());
        let snap = obs.snapshot();
        assert!(snap.counter("bdd.nodes_created").unwrap() > 0);
        assert!(snap.gauge("bdd.peak_nodes").unwrap() >= 64.0);
    }

    #[test]
    fn sequential_core_gets_state_variables() {
        let nl = netlist::gen::counter(3);
        let bdds = circuit_bdds(&nl);
        // 1 input (en) + 3 state variables.
        assert_eq!(bdds.mgr.num_vars(), 4);
    }

    #[test]
    fn circuit_cache_shares_builds_by_structure() {
        let nl = parity_tree(5);
        let mut cache = CircuitBddCache::new();
        let unlimited = ResourceBudget::unlimited();
        let b1 = cache.get_or_build(&nl, &unlimited).unwrap();
        let b2 = cache.get_or_build(&nl, &unlimited).unwrap();
        assert!(Rc::ptr_eq(&b1, &b2), "same structure => same build");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A structurally different netlist misses.
        let other = parity_tree(6);
        let b3 = cache.get_or_build(&other, &unlimited).unwrap();
        assert!(!Rc::ptr_eq(&b1, &b3));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
        // Renaming nets must not change the fingerprint (BDDs ignore names).
        assert_eq!(super::fingerprint(&nl), super::fingerprint(&parity_tree(5)));
    }

    #[test]
    fn circuit_cache_never_caches_failures() {
        let (hostile, _) = netlist::gen::array_multiplier(6);
        let mut cache = CircuitBddCache::new();
        let tight = ResourceBudget::unlimited().with_max_bdd_nodes(64);
        assert!(cache.get_or_build(&hostile, &tight).is_err());
        assert!(cache.is_empty(), "failed builds must not be cached");
        // A retry with a real budget succeeds and gets cached.
        let b = cache
            .get_or_build(&hostile, &ResourceBudget::unlimited())
            .unwrap();
        assert!(!b.funcs.is_empty());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn circuit_cache_evicts_oldest_beyond_capacity() {
        let mut cache = CircuitBddCache::with_capacity(2);
        let unlimited = ResourceBudget::unlimited();
        for n in 3..6 {
            cache.get_or_build(&parity_tree(n), &unlimited).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // The first build (parity 3) was evicted: rebuilding it misses.
        cache.get_or_build(&parity_tree(3), &unlimited).unwrap();
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn snapshot_round_trip_warm_starts_bit_identically() {
        let circuits = [parity_tree(5), ripple_adder(4).0, netlist::gen::counter(3)];
        let unlimited = ResourceBudget::unlimited();
        let mut cache = CircuitBddCache::new();
        for nl in &circuits {
            cache.get_or_build(nl, &unlimited).unwrap();
        }
        let snap = cache.snapshot_text();

        let mut warm = CircuitBddCache::new();
        assert_eq!(warm.load_snapshot_text(&snap).unwrap(), circuits.len());
        assert_eq!(warm.len(), circuits.len());
        for nl in &circuits {
            let cold = cache.get_or_build(nl, &unlimited).unwrap();
            let loaded = warm.get_or_build(nl, &unlimited).unwrap();
            let probs = vec![0.3; nl.num_inputs()];
            for (a, b) in cold
                .probabilities(&probs)
                .iter()
                .zip(loaded.probabilities(&probs).iter())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "warm start must be bit-identical");
            }
            assert_eq!(cold.input_vars, loaded.input_vars);
        }
        // Every lookup above was a warm hit: nothing was rebuilt.
        assert_eq!(warm.misses(), 0);
        assert_eq!(warm.hits(), circuits.len() as u64);
        // Loading again is idempotent (entries already present are kept).
        assert_eq!(warm.load_snapshot_text(&snap).unwrap(), 0);
    }

    #[test]
    fn corrupt_or_skewed_snapshots_are_rejected_untouched() {
        let mut cache = CircuitBddCache::new();
        cache
            .get_or_build(&parity_tree(4), &ResourceBudget::unlimited())
            .unwrap();
        let snap = cache.snapshot_text();

        let mut target = CircuitBddCache::new();
        // Version skew.
        let skewed = snap.replace(".lpsnap 1", ".lpsnap 7");
        assert!(matches!(
            target.load_snapshot_text(&skewed),
            Err(bdd::store::StoreError::Version(_))
        ));
        // Bit flip in the payload: the envelope checksum catches it.
        let mut bytes = snap.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        if let Ok(corrupt) = String::from_utf8(bytes) {
            assert!(target.load_snapshot_text(&corrupt).is_err());
        }
        // Truncation at every quarter.
        for cut in [1, snap.len() / 4, snap.len() / 2, snap.len() - 3] {
            assert!(target.load_snapshot_text(&snap[..cut]).is_err(), "cut {cut}");
        }
        assert!(target.is_empty(), "rejected snapshots must not leak entries");
        // The intact snapshot still loads afterwards.
        assert_eq!(target.load_snapshot_text(&snap).unwrap(), 1);
    }

    #[test]
    fn reordered_build_matches_fixed_order_bit_identically() {
        use crate::order::ReorderConfig;
        let (nl, _) = ripple_adder(6);
        let unlimited = ResourceBudget::unlimited();
        let fixed = circuit_bdds(&nl);
        let probs = vec![0.5; nl.num_inputs()];
        let want = fixed.probabilities(&probs);
        for spec in ["dfs", "force", "always", "dfs+threshold:64", "force+always"] {
            let cfg = ReorderConfig::parse(spec).unwrap();
            let b = try_circuit_bdds_reorder(&nl, &unlimited, &cfg, &obs::Obs::disabled())
                .unwrap();
            for (a, g) in want.iter().zip(b.probabilities(&probs).iter()) {
                assert_eq!(a.to_bits(), g.to_bits(), "{spec}");
            }
        }
    }

    #[test]
    fn dfs_order_shrinks_adder_peak() {
        use crate::order::ReorderConfig;
        let (nl, _) = ripple_adder(10);
        let unlimited = ResourceBudget::unlimited();
        let fixed = circuit_bdds(&nl);
        let cfg = ReorderConfig::parse("dfs").unwrap();
        let seeded =
            try_circuit_bdds_reorder(&nl, &unlimited, &cfg, &obs::Obs::disabled()).unwrap();
        assert!(
            seeded.mgr.peak_live_nodes() < fixed.mgr.peak_live_nodes(),
            "dfs seed {} vs natural {}",
            seeded.mgr.peak_live_nodes(),
            fixed.mgr.peak_live_nodes()
        );
        assert!(seeded.mgr.has_custom_order());
    }

    #[test]
    fn cache_keeps_reorder_configs_separate() {
        use crate::order::ReorderConfig;
        let (nl, _) = ripple_adder(4);
        let mut cache = CircuitBddCache::new();
        let unlimited = ResourceBudget::unlimited();
        let off = ReorderConfig::default();
        let dfs = ReorderConfig::parse("dfs").unwrap();
        let o = &obs::Obs::disabled();
        let a = cache.get_or_build_reorder(&nl, &unlimited, &off, o).unwrap();
        let b = cache.get_or_build_reorder(&nl, &unlimited, &dfs, o).unwrap();
        assert!(!Rc::ptr_eq(&a, &b), "configs must not share entries");
        assert_eq!(cache.misses(), 2);
        // Each config warm-hits its own entry.
        let a2 = cache.get_or_build_reorder(&nl, &unlimited, &off, o).unwrap();
        let b2 = cache.get_or_build_reorder(&nl, &unlimited, &dfs, o).unwrap();
        assert!(Rc::ptr_eq(&a, &a2));
        assert!(Rc::ptr_eq(&b, &b2));
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn reordered_snapshot_warm_starts_bit_identically() {
        use crate::order::ReorderConfig;
        let (nl, _) = ripple_adder(6);
        let unlimited = ResourceBudget::unlimited();
        let cfg = ReorderConfig::parse("dfs+always").unwrap();
        let o = &obs::Obs::disabled();
        let mut cache = CircuitBddCache::new();
        let cold = cache.get_or_build_reorder(&nl, &unlimited, &cfg, o).unwrap();
        assert!(cold.mgr.has_custom_order(), "test needs a non-identity order");
        let snap = cache.snapshot_text();

        let mut warm = CircuitBddCache::new();
        assert_eq!(warm.load_snapshot_text(&snap).unwrap(), 1);
        let loaded = warm.get_or_build_reorder(&nl, &unlimited, &cfg, o).unwrap();
        assert_eq!(warm.misses(), 0, "order-carrying snapshot must warm-hit");
        assert_eq!(loaded.variable_order(), cold.variable_order());
        let probs = vec![0.5; nl.num_inputs()];
        for (a, b) in cold
            .probabilities(&probs)
            .iter()
            .zip(loaded.probabilities(&probs).iter())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A different config against the same warm cache misses — a
        // fixed-order caller never gets served the reordered build.
        warm.get_or_build_reorder(&nl, &unlimited, &ReorderConfig::default(), o)
            .unwrap();
        assert_eq!(warm.misses(), 1);
    }

    #[test]
    fn gc_under_node_budget_reclaims_intermediates() {
        // Wide gates churn partial accumulators (only the final product is
        // a net, so only it gets rooted); with auto-GC a budget well below
        // the lifetime allocation count still succeeds.
        let mut nl = netlist::Netlist::new("wide");
        let ins: Vec<netlist::NetId> = (0..16).map(|i| nl.add_input(format!("i{i}"))).collect();
        let and = nl.add_gate(GateKind::And, &ins);
        let or = nl.add_gate(GateKind::Or, &ins);
        nl.mark_output(and, "a");
        nl.mark_output(or, "o");
        let mut unlimited = circuit_bdds(&nl);
        let lifetime = unlimited.mgr.op_counts().nodes_created;
        // The net functions stay rooted after the build, so an explicit
        // sweep reveals how many nodes were churn.
        unlimited.mgr.gc();
        let live = unlimited.mgr.node_count() as u64;
        assert!(lifetime > live, "wide gates must churn intermediates");
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(live + 4);
        let tight = try_circuit_bdds(&nl, &budget).expect("GC keeps live nodes under budget");
        let c = tight.mgr.op_counts();
        assert!(c.gc_runs > 0, "budget pressure must trigger GC: {c:?}");
        assert!(c.nodes_freed > 0);
        // Same functions either way.
        let p_a = unlimited.probabilities(&[0.5; 16]);
        let p_b = tight.probabilities(&[0.5; 16]);
        for (a, b) in p_a.iter().zip(&p_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
