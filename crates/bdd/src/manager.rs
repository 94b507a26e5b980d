//! The BDD manager: complement-edged nodes, an open-addressed unique
//! table, a lossy direct-mapped ITE cache, and a mark-and-sweep GC.
//!
//! All construction funnels through a budget-guarded ITE: the `try_*`
//! operations accept a [`ResourceBudget`] and return a typed
//! [`BudgetExceeded`] instead of growing the unique table without bound —
//! the known failure mode of BDD-derived analysis on wide reconvergent
//! cones. The classic infallible operations remain and simply run with an
//! unlimited budget.
//!
//! # Kernel layout
//!
//! A [`Ref`] packs a node index and a complement bit (`index << 1 | c`),
//! so negation is a bit flip, a function and its complement share one
//! subgraph, and there is a single terminal node (`FALSE` is the plain
//! terminal, `TRUE` its complement). Canonicity requires one extra
//! invariant on top of the usual ROBDD reduction rules: the stored `hi`
//! edge of every node is regular (non-complemented); [`Bdd::ite`]
//! normalizes its arguments with the standard-triple rules before probing
//! the cache so equivalent calls share cache entries.
//!
//! The unique table is a power-of-two open-addressing (linear probing)
//! array of node indices under a cheap multiplicative integer hash; the
//! ITE cache is direct-mapped and lossy (a colliding insert evicts). Both
//! avoid SipHash and per-entry allocation on the hot path. A reorder pass
//! swaps the one global table for one table per variable, so a swap
//! touches only the tables of the two levels it exchanges.
//!
//! Nodes unreachable from the [`Bdd::protect`]ed roots can be reclaimed by
//! [`Bdd::gc`]; managers with [`Bdd::set_auto_gc`] enabled collect
//! automatically when a node budget trips, so [`ResourceBudget`]'s node
//! meter bounds *live* nodes rather than lifetime allocations. Freed slots
//! are chained into a free list and reused by later allocations.

use budget::{BudgetExceeded, ResourceBudget};

/// Reference to a BDD node. Copyable and cheap; only meaningful together
/// with the [`Bdd`] manager that created it.
///
/// Internally this packs a node index and a complement bit, which is why
/// negation never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

impl Ref {
    /// The constant-false function.
    pub const FALSE: Ref = Ref(0);
    /// The constant-true function.
    pub const TRUE: Ref = Ref(1);

    /// Whether this is one of the two constant functions.
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// For terminals, the constant value.
    ///
    /// # Panics
    ///
    /// Panics on non-terminal references.
    pub fn const_value(self) -> bool {
        match self.0 {
            0 => false,
            1 => true,
            _ => panic!("not a terminal"),
        }
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    #[inline]
    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn complement(self) -> Ref {
        Ref(self.0 ^ 1)
    }

    /// Plain node index, for the serialization layer (`crate::store`).
    #[inline]
    pub(crate) fn store_index(self) -> usize {
        self.index()
    }

    /// Complement bit, for the serialization layer (`crate::store`).
    #[inline]
    pub(crate) fn store_complemented(self) -> bool {
        self.is_complemented()
    }
}

/// Variable tag of the terminal node.
const TERMINAL_VAR: u32 = u32::MAX;
/// Variable tag of free-list entries (never a legal variable).
const FREE_VAR: u32 = u32::MAX - 1;
/// Empty slot in the open-addressed unique table.
const EMPTY: u32 = u32::MAX;
/// Free-list terminator.
const NIL: u32 = u32::MAX;
/// Upper bound on ITE-cache entries (the cache tracks arena size below it).
const MAX_CACHE: usize = 1 << 22;
/// The global unique table doubles once three quarters of its slots fill.
const GLOBAL_LOAD_QUARTERS: usize = 3;
/// A reorder pass's per-variable tables double once a quarter fills: every
/// swap removes and re-inserts nodes by the thousand, and short probe runs
/// repay the extra slots, which exist only while the pass runs.
const PASS_LOAD_QUARTERS: usize = 1;

/// `lo`/`hi` hold raw [`Ref`] bits; `hi` is always regular.
#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

impl CacheEntry {
    const INVALID: CacheEntry = CacheEntry {
        f: u32::MAX,
        g: u32::MAX,
        h: u32::MAX,
        r: u32::MAX,
    };
}

/// Cheap multiplicative (Fx-style) hash of a node or ITE triple. The
/// default SipHash is measurably slower on this 12-byte fixed-size key.
#[inline]
fn triple_hash(a: u32, b: u32, c: u32) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = (a as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(K);
    h = (h.rotate_left(26) ^ b as u64).wrapping_mul(K);
    h = (h.rotate_left(26) ^ c as u64).wrapping_mul(K);
    h ^ (h >> 32)
}

/// An open-addressed (linear probing) set of node indices, keyed by the
/// nodes' contents in the arena. The manager's global unique table and a
/// reorder pass's per-variable tables are instances of it. Every method
/// that reads slots adds the number it read to its `probes` argument.
#[derive(Debug, Clone)]
struct UniqueTable {
    /// Node indices or [`EMPTY`]; the length is a power of two.
    slots: Vec<u32>,
    len: usize,
    /// The table doubles once `len` reaches this many quarters of its slots.
    load_quarters: usize,
}

impl UniqueTable {
    /// An empty table of `cap` slots, a power of two.
    fn with_capacity(cap: usize, load_quarters: usize) -> UniqueTable {
        debug_assert!(cap.is_power_of_two());
        UniqueTable {
            slots: vec![EMPTY; cap],
            len: 0,
            load_quarters,
        }
    }

    /// An empty table with room for `n` nodes below its load bound.
    fn with_room_for(n: usize, load_quarters: usize) -> UniqueTable {
        let mut cap = 8;
        while n * 4 >= cap * load_quarters {
            cap *= 2;
        }
        UniqueTable::with_capacity(cap, load_quarters)
    }

    /// The node interned with contents `(var, lo, hi)`, or else the empty
    /// slot that ends its probe run, where [`UniqueTable::insert_at`] puts
    /// it.
    #[inline]
    fn find(
        &self,
        nodes: &[Node],
        var: u32,
        lo: u32,
        hi: u32,
        probes: &mut u64,
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = triple_hash(var, lo, hi) as usize & mask;
        loop {
            *probes += 1;
            let idx = self.slots[slot];
            if idx == EMPTY {
                return Err(slot);
            }
            let n = nodes[idx as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(idx);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The first empty slot of the probe run of contents `n`.
    fn vacant(&self, n: Node, probes: &mut u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = triple_hash(n.var, n.lo, n.hi) as usize & mask;
        loop {
            *probes += 1;
            if self.slots[slot] == EMPTY {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Store node `idx` in `slot`, the empty slot [`UniqueTable::find`]
    /// returned for its contents. Returns whether the table has reached its
    /// load bound, where the caller must double it.
    fn insert_at(&mut self, slot: usize, idx: u32) -> bool {
        self.slots[slot] = idx;
        self.len += 1;
        self.len * 4 >= self.slots.len() * self.load_quarters
    }

    /// Double the table, re-interning every entry in slot order.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, nodes: &[Node], probes: &mut u64) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for i in old.into_iter().filter(|&i| i != EMPTY) {
            let slot = self.vacant(nodes[i as usize], probes);
            self.slots[slot] = i;
        }
        #[cfg(test)]
        reorder_tests::note_growth();
    }

    /// Intern node `idx`, which the table does not hold, under its current
    /// contents, and double the table once it reaches its load bound.
    fn insert(&mut self, nodes: &[Node], idx: u32, probes: &mut u64) {
        let slot = self.vacant(nodes[idx as usize], probes);
        if self.insert_at(slot, idx) {
            self.grow(nodes, probes);
        }
    }

    /// Remove node `idx`, interned under its current contents. Later
    /// entries of the probe run shift back into the hole, so every
    /// remaining node stays findable by linear probing.
    fn remove(&mut self, nodes: &[Node], idx: u32, probes: &mut u64) {
        let mask = self.slots.len() - 1;
        let home = |k: u32| {
            let m = nodes[k as usize];
            triple_hash(m.var, m.lo, m.hi) as usize & mask
        };
        let mut hole = home(idx);
        loop {
            *probes += 1;
            if self.slots[hole] == idx {
                break;
            }
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            *probes += 1;
            let k = self.slots[j];
            if k == EMPTY {
                break;
            }
            // `k` moves back unless its home lies cyclically in (hole, j].
            if j.wrapping_sub(home(k)) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = k;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }
}

/// Whether `LPOPT_BDD_GC_STRESS` forces a full collection on every
/// allocation (CI uses this to prove no live node is ever unrooted).
fn gc_stress_enabled() -> bool {
    static STRESS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *STRESS.get_or_init(|| std::env::var_os("LPOPT_BDD_GC_STRESS").is_some_and(|v| v != "0"))
}

/// Size statistics of a manager, see [`Bdd::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddStats {
    /// Live interned nodes (including the terminal).
    pub nodes: usize,
    /// Number of distinct variables seen.
    pub vars: usize,
    /// Valid entries in the ITE cache.
    pub cache_entries: usize,
}

/// Operation counters accumulated by a manager over its lifetime, see
/// [`Bdd::op_counts`].
///
/// Plain `u64` fields incremented inline: this crate sits below the
/// observability layer, so the manager counts its own work and callers
/// (the power estimators) publish the totals. The counts are deterministic
/// for a given construction sequence, which makes them safe to compare in
/// golden tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Recursive ITE invocations (including terminal-resolved ones).
    pub ite_calls: u64,
    /// ITE memo-cache probes.
    pub cache_lookups: u64,
    /// ITE memo-cache probes that hit.
    pub cache_hits: u64,
    /// Direct-mapped cache inserts that displaced a different live entry.
    pub cache_evictions: u64,
    /// Unique-table probes (one per candidate node with `lo != hi`).
    pub unique_lookups: u64,
    /// Unique-table probes that found an existing node.
    pub unique_hits: u64,
    /// Nodes interned (unique-table misses).
    pub nodes_created: u64,
    /// Garbage collections run (explicit, budget-pressure, or stress).
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection over the manager's lifetime.
    pub nodes_freed: u64,
    /// Dynamic-reorder passes run (growth-triggered or explicit).
    pub reorder_runs: u64,
    /// Adjacent-level swaps performed across all reorder passes.
    pub reorder_swaps: u64,
    /// Sum over passes of the reachable node count entering each pass.
    pub reorder_nodes_before: u64,
    /// Sum over passes of the reachable node count leaving each pass.
    pub reorder_nodes_after: u64,
    /// Unique-table slots read while reorder passes ran: lookups, inserts
    /// and each removal's search and backward-shift scan, over the pass's
    /// per-variable tables and the global table it rebuilds at its end.
    pub reorder_probes: u64,
}

/// When the manager runs an in-place reorder pass ([`Bdd::reorder_now`])
/// automatically. Checked at the top of every [`Bdd::try_ite`] — a safe
/// point where no ITE recursion is in flight — so a pass can rewrite the
/// level structure without invalidating in-flight cofactors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderSchedule {
    /// Never reorder automatically (the fixed-order kernel behavior).
    #[default]
    Off,
    /// Reorder whenever live nodes grew at all since the last pass.
    Always,
    /// Reorder when live nodes reach `min_nodes` and have grown by
    /// `growth_percent` percent since the last pass ended.
    Threshold {
        /// Growth since the last pass that triggers the next one (percent).
        growth_percent: u32,
        /// Floor below which no pass ever triggers (tiny graphs never pay).
        min_nodes: usize,
    },
    /// Like [`ReorderSchedule::Threshold`] with the default growth factor,
    /// but each pass stops starting new sift walks once `slice_ms` of wall
    /// time has elapsed (OBDDimal-style time-sliced reordering). The walk
    /// in progress always completes, so the manager is never left
    /// mid-swap.
    TimeSliced {
        /// Wall-clock slice per pass, in milliseconds.
        slice_ms: u64,
    },
}

/// Default growth trigger: reorder when live nodes double.
const REORDER_GROWTH_PERCENT: u32 = 100;
/// Default floor: never reorder managers smaller than this.
const REORDER_MIN_NODES: usize = 512;
/// A sift walk abandons a direction once the graph grows past
/// `size * REORDER_MAX_GROWTH_NUM / REORDER_MAX_GROWTH_DEN`.
const REORDER_MAX_GROWTH_NUM: usize = 6;
const REORDER_MAX_GROWTH_DEN: usize = 5;

impl ReorderSchedule {
    /// [`ReorderSchedule::Threshold`] with the default trigger parameters
    /// (double-the-nodes growth, 512-node floor).
    pub fn threshold() -> ReorderSchedule {
        ReorderSchedule::Threshold {
            growth_percent: REORDER_GROWTH_PERCENT,
            min_nodes: REORDER_MIN_NODES,
        }
    }

    /// Parse a schedule spec: `off`, `always`, `threshold`,
    /// `threshold:<min_nodes>`, `timeslice` or `timeslice:<ms>`.
    pub fn parse(spec: &str) -> Result<ReorderSchedule, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        match (head, arg) {
            ("off", None) => Ok(ReorderSchedule::Off),
            ("always", None) => Ok(ReorderSchedule::Always),
            ("threshold", None) => Ok(ReorderSchedule::threshold()),
            ("threshold", Some(n)) => n
                .parse()
                .map(|min_nodes| ReorderSchedule::Threshold {
                    growth_percent: REORDER_GROWTH_PERCENT,
                    min_nodes,
                })
                .map_err(|_| format!("bad threshold node count: {n:?}")),
            ("timeslice", None) => Ok(ReorderSchedule::TimeSliced { slice_ms: 50 }),
            ("timeslice", Some(ms)) => ms
                .parse()
                .map(|slice_ms| ReorderSchedule::TimeSliced { slice_ms })
                .map_err(|_| format!("bad timeslice milliseconds: {ms:?}")),
            _ => Err(format!(
                "unknown reorder schedule {spec:?} (want off|always|threshold[:N]|timeslice[:MS])"
            )),
        }
    }
}

impl std::fmt::Display for ReorderSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorderSchedule::Off => write!(f, "off"),
            ReorderSchedule::Always => write!(f, "always"),
            ReorderSchedule::Threshold { min_nodes, .. } => write!(f, "threshold:{min_nodes}"),
            ReorderSchedule::TimeSliced { slice_ms } => write!(f, "timeslice:{slice_ms}"),
        }
    }
}

/// A reduced ordered BDD manager (arena + unique table + ITE cache).
///
/// Variables are `u32` indices ordered by value: smaller indices are closer
/// to the root. All functions returned by the manager are canonical: two
/// [`Ref`]s are equal iff the Boolean functions are equal.
#[derive(Debug, Clone)]
pub struct Bdd {
    nodes: Vec<Node>,
    /// The unique table of every live node; released (no slots) while a
    /// reorder pass keeps its own per-variable tables.
    table: UniqueTable,
    /// Direct-mapped lossy ITE cache.
    cache: Vec<CacheEntry>,
    cache_mask: usize,
    /// Head of the free list threaded through freed nodes' `lo` fields.
    free_head: u32,
    live_nodes: usize,
    peak_live: usize,
    num_vars: u32,
    counts: OpCounts,
    /// Externally protected roots (raw ref bits); GC keeps these alive.
    roots: Vec<u32>,
    /// Refs held by in-flight recursions (raw ref bits); GC-protected.
    guard: Vec<u32>,
    /// Collect under node-budget pressure (and under the stress env var).
    auto_gc: bool,
    stress_gc: bool,
    /// `var2level[v]` = level of variable `v` (smaller = nearer the root).
    /// Extended lazily as variables appear; vars beyond the vector sit at
    /// their identity level.
    var2level: Vec<u32>,
    /// Inverse permutation of `var2level`.
    level2var: Vec<u32>,
    /// Automatic in-place reorder policy (see [`ReorderSchedule`]).
    schedule: ReorderSchedule,
    /// Live-node count when the last reorder pass finished (trigger base).
    reorder_baseline: usize,
    /// Reference counts, per-variable node lists and unique tables of the
    /// running reorder pass; empty outside [`Bdd::reorder_now`].
    pass: PassState,
}

/// What adjacent-level swaps need to stay local to their two levels: exact
/// reference counts, a node list per variable and a unique table per
/// variable. Filled after the pass's opening collection, when every
/// interior node is reachable, and dropped when the pass ends.
#[derive(Debug, Clone, Default)]
struct PassState {
    /// Per node index: one per parent edge from a live node plus one per
    /// `roots`/`guard` entry (duplicates included).
    rc: Vec<u32>,
    /// Per variable: indices of its live nodes, plus entries of slots
    /// freed since (and perhaps recycled) that a swap drops when it takes
    /// the list.
    var_nodes: Vec<Vec<u32>>,
    /// Per variable: the unique table of its live nodes, kept below a
    /// quarter load ([`PASS_LOAD_QUARTERS`]).
    tables: Vec<UniqueTable>,
    /// Nodes whose count reached zero in the running swap.
    dead: Vec<u32>,
    /// Work stack of the release cascade.
    stack: Vec<u32>,
    /// `nodes_freed` when the pass began.
    freed_at_begin: u64,
}

impl Default for Bdd {
    fn default() -> Bdd {
        Bdd::new()
    }
}

const INITIAL_TABLE: usize = 1 << 10;
const INITIAL_CACHE: usize = 1 << 10;

impl Bdd {
    /// Create an empty manager. GC is off by default: short-lived managers
    /// (the common case in tests and one-shot analyses) never pay for
    /// rooting. Long-lived builders opt in with [`Bdd::set_auto_gc`].
    pub fn new() -> Bdd {
        Bdd {
            nodes: vec![Node {
                var: TERMINAL_VAR,
                lo: 0,
                hi: 0,
            }],
            table: UniqueTable::with_capacity(INITIAL_TABLE, GLOBAL_LOAD_QUARTERS),
            cache: vec![CacheEntry::INVALID; INITIAL_CACHE],
            cache_mask: INITIAL_CACHE - 1,
            free_head: NIL,
            live_nodes: 1,
            peak_live: 1,
            num_vars: 0,
            counts: OpCounts::default(),
            roots: Vec::new(),
            guard: Vec::new(),
            auto_gc: false,
            stress_gc: false,
            var2level: Vec::new(),
            level2var: Vec::new(),
            schedule: ReorderSchedule::Off,
            reorder_baseline: 1,
            pass: PassState::default(),
        }
    }

    /// Lifetime operation counters (monotonic; never reset by operations).
    pub fn op_counts(&self) -> OpCounts {
        self.counts
    }

    /// The constant function `value`.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    /// The projection function of variable `index`.
    pub fn var(&mut self, index: u32) -> Ref {
        self.mk(index, Ref::FALSE, Ref::TRUE)
    }

    /// The negated projection of variable `index`.
    pub fn nvar(&mut self, index: u32) -> Ref {
        self.mk(index, Ref::TRUE, Ref::FALSE)
    }

    /// Number of variables the manager has seen.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Whether the manager holds nothing but the terminal — the state in
    /// which [`Bdd::set_order`] may install a custom variable order.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 1 && self.nodes.len() == 1
    }

    /// Manager statistics.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.live_nodes,
            vars: self.num_vars as usize,
            cache_entries: self.cache.iter().filter(|e| e.f != u32::MAX).count(),
        }
    }

    // ------------------------------------------------------------------
    // Allocation: unique table + free list
    // ------------------------------------------------------------------

    /// Reduced, complement-normalized node constructor.
    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        // Canonical form: the stored hi edge is regular. mk(v, l, !h) is
        // the complement of mk(v, !l, h).
        if hi.is_complemented() {
            return self
                .mk_raw(var, lo.complement(), hi.complement())
                .complement();
        }
        self.mk_raw(var, lo, hi)
    }

    /// `hi` regular, `lo != hi`. Never runs during a reorder pass: swaps
    /// intern through [`Bdd::mk_counted`].
    fn mk_raw(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        debug_assert!(!hi.is_complemented());
        debug_assert_ne!(lo, hi);
        if self.stress_gc {
            // Pin the children: the caller may hold them unrooted.
            let base = self.guard.len();
            self.guard.push(lo.0);
            self.guard.push(hi.0);
            self.gc_run();
            self.guard.truncate(base);
        }
        self.num_vars = self.num_vars.max(var + 1);
        if (self.var2level.len() as u32) < self.num_vars && !self.var2level.is_empty() {
            // A custom order is in force: append the new variables at the
            // bottom identity levels so the maps stay inverse permutations.
            while (self.var2level.len() as u32) < self.num_vars {
                let v = self.var2level.len() as u32;
                self.var2level.push(v);
                self.level2var.push(v);
            }
        }
        self.counts.unique_lookups += 1;
        // Only reorder passes count their probes (on their own tables).
        let slot = match self.table.find(&self.nodes, var, lo.0, hi.0, &mut 0) {
            Ok(idx) => {
                self.counts.unique_hits += 1;
                return Ref(idx << 1);
            }
            Err(slot) => slot,
        };
        let idx = self.alloc(var, lo, hi);
        if self.table.insert_at(slot, idx) {
            // Re-intern in arena order: reading the nodes in sequence costs
            // less than reading them in the old table's slot order, as
            // `UniqueTable::grow` does for a pass's small tables.
            let cap = self.table.slots.len() * 2;
            self.rebuild_table(UniqueTable::with_capacity(cap, GLOBAL_LOAD_QUARTERS));
        }
        Ref(idx << 1)
    }

    /// Place a new node in the free list's first slot (or at the arena's
    /// end) and count it created and live.
    fn alloc(&mut self, var: u32, lo: Ref, hi: Ref) -> u32 {
        self.counts.nodes_created += 1;
        let node = Node {
            var,
            lo: lo.0,
            hi: hi.0,
        };
        let idx = if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.nodes[i as usize].lo;
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.live_nodes += 1;
        self.peak_live = self.peak_live.max(self.live_nodes);
        idx
    }

    /// Replace the global table with `table`, filled with every live node
    /// in arena order (growth, post-GC and end-of-pass rebuilds), so the
    /// layout depends only on the arena. Returns the slots it read.
    fn rebuild_table(&mut self, mut table: UniqueTable) -> u64 {
        let mut probes = 0;
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var != FREE_VAR {
                table.insert(&self.nodes, i as u32, &mut probes);
            }
        }
        self.table = table;
        probes
    }

    fn node(&self, r: Ref) -> Node {
        self.nodes[r.index()]
    }

    /// Top variable of `f` ([`u32::MAX`] for terminals).
    pub fn top_var(&self, f: Ref) -> u32 {
        self.node(f).var
    }

    /// Low (variable = 0) cofactor of the root node.
    pub fn low(&self, f: Ref) -> Ref {
        Ref(self.node(f).lo ^ (f.0 & 1))
    }

    /// High (variable = 1) cofactor of the root node.
    pub fn high(&self, f: Ref) -> Ref {
        Ref(self.node(f).hi ^ (f.0 & 1))
    }

    /// Raw stored low edge of `f`'s node — the plain node's cofactor,
    /// ignoring `f`'s own complement bit. Serialization walks plain nodes
    /// so a function and its complement share one stored subgraph.
    pub(crate) fn stored_low(&self, f: Ref) -> Ref {
        Ref(self.node(f).lo)
    }

    /// Raw stored high edge of `f`'s node (regular by the canonicity
    /// invariant), ignoring `f`'s own complement bit.
    pub(crate) fn stored_high(&self, f: Ref) -> Ref {
        Ref(self.node(f).hi)
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    /// Enable (or disable) automatic collection: when a node budget
    /// trips, the manager first sweeps garbage and only errors if *live*
    /// nodes still exceed the limit. With auto-GC on, any [`Ref`] held
    /// across an allocating call must be kept alive via [`Bdd::protect`].
    pub fn set_auto_gc(&mut self, on: bool) {
        self.auto_gc = on;
        self.stress_gc = on && gc_stress_enabled();
    }

    /// Whether automatic collection is enabled.
    pub fn auto_gc(&self) -> bool {
        self.auto_gc
    }

    /// Root `f`: it (and its subgraph) survives garbage collection.
    pub fn protect(&mut self, f: Ref) {
        self.roots.push(f.0);
    }

    /// Drop one earlier [`Bdd::protect`] of `f` (no-op if not rooted).
    pub fn unprotect(&mut self, f: Ref) {
        if let Some(pos) = self.roots.iter().rposition(|&r| r == f.0) {
            self.roots.remove(pos);
        }
    }

    /// Drop every root.
    pub fn clear_roots(&mut self) {
        self.roots.clear();
    }

    /// Mark-and-sweep: free every node unreachable from the protected
    /// roots, wipe the ITE cache, and rebuild the unique table. Returns
    /// the number of nodes freed. Unrooted [`Ref`]s dangle afterwards.
    pub fn gc(&mut self) -> usize {
        self.gc_run()
    }

    fn gc_run(&mut self) -> usize {
        self.counts.gc_runs += 1;
        let n = self.nodes.len();
        let mut marked = vec![false; n];
        marked[0] = true;
        let mut stack: Vec<usize> = self
            .roots
            .iter()
            .chain(self.guard.iter())
            .map(|&r| (r >> 1) as usize)
            .collect();
        while let Some(i) = stack.pop() {
            if marked[i] {
                continue;
            }
            marked[i] = true;
            let node = self.nodes[i];
            stack.push((node.lo >> 1) as usize);
            stack.push((node.hi >> 1) as usize);
        }
        let mut freed = 0usize;
        for (i, &alive) in marked.iter().enumerate().skip(1) {
            if !alive && self.nodes[i].var != FREE_VAR {
                self.nodes[i] = Node {
                    var: FREE_VAR,
                    lo: self.free_head,
                    hi: 0,
                };
                self.free_head = i as u32;
                freed += 1;
            }
        }
        if freed > 0 {
            self.live_nodes -= freed;
            self.counts.nodes_freed += freed as u64;
            // Freed entries would otherwise false-hit recycled indices.
            let cap = self.table.slots.len();
            self.rebuild_table(UniqueTable::with_capacity(cap, GLOBAL_LOAD_QUARTERS));
            for e in self.cache.iter_mut() {
                *e = CacheEntry::INVALID;
            }
        }
        freed
    }

    /// High-water mark of live nodes over the manager's lifetime.
    pub fn peak_live_nodes(&self) -> usize {
        self.peak_live
    }

    // ------------------------------------------------------------------
    // Core operations
    // ------------------------------------------------------------------

    /// If-then-else: `ite(f, g, h) = f·g + f'·h`. All other Boolean
    /// operations are derived from this.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        match self.try_ite(f, g, h, &ResourceBudget::unlimited()) {
            Ok(r) => r,
            Err(e) => unreachable!("unlimited budget reported exhaustion: {e}"),
        }
    }

    /// Budget-guarded [`Bdd::ite`]: fails with a typed error once *live*
    /// nodes reach `budget.max_bdd_nodes` (after attempting a GC when
    /// auto-GC is on) or the deadline passes, leaving the manager in a
    /// usable (partially grown) state.
    pub fn try_ite(
        &mut self,
        f: Ref,
        g: Ref,
        h: Ref,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        // Top of a fresh recursion is the one safe point for an automatic
        // in-place reorder: no cofactor pair chosen under the old order is
        // held by a caller frame. The operands are pinned first — a reorder
        // pass frees every node no root or pin reaches, and e.g. an n-ary
        // fold's accumulator may be neither rooted nor anyone's child.
        if self.reorder_due() {
            let base = self.guard.len();
            self.guard.push(f.0);
            self.guard.push(g.0);
            self.guard.push(h.0);
            self.reorder_now();
            self.guard.truncate(base);
        }
        let limit = budget.max_bdd_nodes_or(u64::MAX);
        self.ite_guarded(f, g, h, budget, &mut 0, limit)
    }

    /// The one recursion every construction goes through. `ops` counts
    /// cache misses so the (syscall-cost) deadline check can be amortized;
    /// `limit` is the pre-resolved node bound.
    fn ite_guarded(
        &mut self,
        mut f: Ref,
        mut g: Ref,
        mut h: Ref,
        budget: &ResourceBudget,
        ops: &mut u64,
        limit: u64,
    ) -> Result<Ref, BudgetExceeded> {
        self.counts.ite_calls += 1;
        // Terminal cases.
        if f == Ref::TRUE {
            return Ok(g);
        }
        if f == Ref::FALSE {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        // Standard-triple reduction: replace g/h when they repeat f.
        if g == f {
            g = Ref::TRUE;
        } else if g == f.complement() {
            g = Ref::FALSE;
        }
        if h == f {
            h = Ref::FALSE;
        } else if h == f.complement() {
            h = Ref::TRUE;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return Ok(f);
        }
        if g == Ref::FALSE && h == Ref::TRUE {
            return Ok(f.complement());
        }
        if g == h {
            return Ok(g);
        }
        // Canonical argument order for the commutative forms, so e.g.
        // or(a, b) and or(b, a) share one cache entry.
        if g == Ref::TRUE {
            if self.precedes(h, f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if g == Ref::FALSE {
            if self.precedes(h, f) {
                let t = f;
                f = h.complement();
                h = t.complement();
            }
        } else if h == Ref::TRUE {
            if self.precedes(g, f) {
                let t = f;
                f = g.complement();
                g = t.complement();
            }
        } else if h == Ref::FALSE {
            if self.precedes(g, f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if g == h.complement() && self.precedes(g, f) {
            std::mem::swap(&mut f, &mut g);
            h = g.complement();
        }
        // Canonical complement marks: regular first argument ...
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        // ... and regular then-branch: ite(f, !g, !h) = !ite(f, g, h).
        let negate = g.is_complemented();
        if negate {
            g = g.complement();
            h = h.complement();
        }
        self.counts.cache_lookups += 1;
        let slot = triple_hash(f.0, g.0, h.0) as usize & self.cache_mask;
        let e = self.cache[slot];
        if e.f == f.0 && e.g == g.0 && e.h == h.0 {
            self.counts.cache_hits += 1;
            let r = Ref(e.r);
            return Ok(if negate { r.complement() } else { r });
        }
        // Cache miss: the only place nodes (and real work) can grow. Pin
        // the operands first — a top-level caller's operand (e.g. the
        // accumulator of an n-ary fold) may be neither rooted nor anyone's
        // child, and the budget check below may collect.
        let base = self.guard.len();
        self.guard.push(f.0);
        self.guard.push(g.0);
        self.guard.push(h.0);
        if self.live_nodes as u64 >= limit {
            if self.auto_gc {
                self.gc_run();
            }
            if self.live_nodes as u64 >= limit {
                self.guard.truncate(base);
                return Err(budget.bdd_nodes_exceeded(self.live_nodes as u64));
            }
        }
        *ops += 1;
        if *ops & 0xFFF == 0 {
            if let Err(e) = budget.check_deadline() {
                self.guard.truncate(base);
                return Err(e);
            }
        }
        let (vf, vg, vh) = (self.top_var(f), self.top_var(g), self.top_var(h));
        let (lf, lg, lh) = (self.level_of(vf), self.level_of(vg), self.level_of(vh));
        let lv = lf.min(lg).min(lh);
        let v = if lf == lv {
            vf
        } else if lg == lv {
            vg
        } else {
            vh
        };
        let (f0, f1) = self.cofactors_at(f, v);
        let (g0, g1) = self.cofactors_at(g, v);
        let (h0, h1) = self.cofactors_at(h, v);
        let lo = match self.ite_guarded(f0, g0, h0, budget, ops, limit) {
            Ok(r) => r,
            Err(e) => {
                self.guard.truncate(base);
                return Err(e);
            }
        };
        self.guard.push(lo.0);
        let hi = match self.ite_guarded(f1, g1, h1, budget, ops, limit) {
            Ok(r) => r,
            Err(e) => {
                self.guard.truncate(base);
                return Err(e);
            }
        };
        let r = self.mk(v, lo, hi);
        self.guard.truncate(base);
        self.cache_insert(f, g, h, r);
        Ok(if negate { r.complement() } else { r })
    }

    /// Deterministic operand order for commutative-form canonicalization:
    /// variable level first, allocation index as tie-break.
    #[inline]
    fn precedes(&self, a: Ref, b: Ref) -> bool {
        let (av, bv) = (
            self.level_of(self.top_var(a)),
            self.level_of(self.top_var(b)),
        );
        av < bv || (av == bv && a.index() < b.index())
    }

    /// Level of variable `var` under the current order (identity until a
    /// custom order or a reorder pass changes it). Sentinel tags
    /// ([`TERMINAL_VAR`], [`FREE_VAR`]) map to themselves, keeping
    /// terminals below every real level.
    #[inline]
    fn level_of(&self, var: u32) -> u32 {
        match self.var2level.get(var as usize) {
            Some(&l) => l,
            None => var,
        }
    }

    fn cache_insert(&mut self, f: Ref, g: Ref, h: Ref, r: Ref) {
        if self.cache.len() < self.nodes.len() && self.cache.len() < MAX_CACHE {
            let old = std::mem::replace(
                &mut self.cache,
                vec![CacheEntry::INVALID; (self.cache_mask + 1) * 2],
            );
            self.cache_mask = self.cache.len() - 1;
            for e in old {
                if e.f != u32::MAX {
                    let slot = triple_hash(e.f, e.g, e.h) as usize & self.cache_mask;
                    self.cache[slot] = e;
                }
            }
        }
        let slot = triple_hash(f.0, g.0, h.0) as usize & self.cache_mask;
        let e = self.cache[slot];
        if e.f != u32::MAX && (e.f, e.g, e.h) != (f.0, g.0, h.0) {
            self.counts.cache_evictions += 1;
        }
        self.cache[slot] = CacheEntry {
            f: f.0,
            g: g.0,
            h: h.0,
            r: r.0,
        };
    }

    fn cofactors_at(&self, f: Ref, v: u32) -> (Ref, Ref) {
        let n = self.node(f);
        if n.var == v {
            let s = f.0 & 1;
            (Ref(n.lo ^ s), Ref(n.hi ^ s))
        } else {
            (f, f)
        }
    }

    /// Negation. With complement edges this is a bit flip: no allocation,
    /// no cache traffic.
    pub fn not(&self, f: Ref) -> Ref {
        f.complement()
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g.complement(), g)
    }

    /// Exclusive nor (equivalence).
    pub fn xnor(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, g.complement())
    }

    /// Implication `f -> g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::TRUE)
    }

    /// n-ary conjunction.
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        fs.into_iter().fold(Ref::TRUE, |acc, f| self.and(acc, f))
    }

    /// n-ary disjunction.
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        fs.into_iter().fold(Ref::FALSE, |acc, f| self.or(acc, f))
    }

    // ------------------------------------------------------------------
    // Budget-guarded operations (typed errors instead of unbounded growth)
    // ------------------------------------------------------------------

    /// Budget-guarded negation (never fails: negation is free).
    pub fn try_not(&mut self, f: Ref, _budget: &ResourceBudget) -> Result<Ref, BudgetExceeded> {
        Ok(f.complement())
    }

    /// Budget-guarded conjunction.
    pub fn try_and(
        &mut self,
        f: Ref,
        g: Ref,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        self.try_ite(f, g, Ref::FALSE, budget)
    }

    /// Budget-guarded disjunction.
    pub fn try_or(
        &mut self,
        f: Ref,
        g: Ref,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        self.try_ite(f, Ref::TRUE, g, budget)
    }

    /// Budget-guarded exclusive or.
    pub fn try_xor(
        &mut self,
        f: Ref,
        g: Ref,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        self.try_ite(f, g.complement(), g, budget)
    }

    /// Budget-guarded exclusive nor.
    pub fn try_xnor(
        &mut self,
        f: Ref,
        g: Ref,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        self.try_ite(f, g, g.complement(), budget)
    }

    /// Budget-guarded n-ary conjunction.
    pub fn try_and_all<I: IntoIterator<Item = Ref>>(
        &mut self,
        fs: I,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        let mut acc = Ref::TRUE;
        for f in fs {
            acc = self.try_and(acc, f, budget)?;
        }
        Ok(acc)
    }

    /// Budget-guarded n-ary disjunction.
    pub fn try_or_all<I: IntoIterator<Item = Ref>>(
        &mut self,
        fs: I,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        let mut acc = Ref::FALSE;
        for f in fs {
            acc = self.try_or(acc, f, budget)?;
        }
        Ok(acc)
    }

    /// Budget-guarded n-ary exclusive or (parity accumulation).
    pub fn try_xor_all<I: IntoIterator<Item = Ref>>(
        &mut self,
        fs: I,
        budget: &ResourceBudget,
    ) -> Result<Ref, BudgetExceeded> {
        let mut acc = Ref::FALSE;
        for f in fs {
            acc = self.try_xor(acc, f, budget)?;
        }
        Ok(acc)
    }

    /// Live interned node count (including the terminal) — the quantity
    /// [`ResourceBudget::max_bdd_nodes`] bounds. Freed nodes don't count.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Restrict variable `var` to `value` (Shannon cofactor).
    pub fn restrict(&mut self, f: Ref, var: u32, value: bool) -> Ref {
        if f.is_const() {
            return f;
        }
        let n = self.node(f);
        if self.level_of(n.var) > self.level_of(var) {
            return f; // var does not appear
        }
        let s = f.0 & 1;
        if n.var == var {
            return Ref(if value { n.hi } else { n.lo } ^ s);
        }
        let base = self.guard.len();
        self.guard.push(f.0);
        let lo = self.restrict(Ref(n.lo ^ s), var, value);
        self.guard.push(lo.0);
        let hi = self.restrict(Ref(n.hi ^ s), var, value);
        self.guard.truncate(base);
        self.mk(n.var, lo, hi)
    }

    /// Existential quantification over one variable.
    pub fn exists(&mut self, f: Ref, var: u32) -> Ref {
        let base = self.guard.len();
        let f0 = self.restrict(f, var, false);
        self.guard.push(f0.0);
        let f1 = self.restrict(f, var, true);
        self.guard.push(f1.0);
        let r = self.or(f0, f1);
        self.guard.truncate(base);
        r
    }

    /// Universal quantification over one variable.
    pub fn forall(&mut self, f: Ref, var: u32) -> Ref {
        let base = self.guard.len();
        let f0 = self.restrict(f, var, false);
        self.guard.push(f0.0);
        let f1 = self.restrict(f, var, true);
        self.guard.push(f1.0);
        let r = self.and(f0, f1);
        self.guard.truncate(base);
        r
    }

    /// Existential quantification over a set of variables.
    pub fn exists_many(&mut self, f: Ref, vars: &[u32]) -> Ref {
        vars.iter().fold(f, |acc, &v| self.exists(acc, v))
    }

    /// Universal quantification over a set of variables.
    pub fn forall_many(&mut self, f: Ref, vars: &[u32]) -> Ref {
        vars.iter().fold(f, |acc, &v| self.forall(acc, v))
    }

    /// Boolean difference `∂f/∂var = f|var=0 XOR f|var=1`.
    ///
    /// The probability of the Boolean difference is the core of
    /// transition-density power estimation.
    pub fn boolean_difference(&mut self, f: Ref, var: u32) -> Ref {
        let base = self.guard.len();
        let f0 = self.restrict(f, var, false);
        self.guard.push(f0.0);
        let f1 = self.restrict(f, var, true);
        self.guard.push(f1.0);
        let r = self.xor(f0, f1);
        self.guard.truncate(base);
        r
    }

    /// Substitute function `g` for variable `var` in `f`.
    pub fn compose(&mut self, f: Ref, var: u32, g: Ref) -> Ref {
        let base = self.guard.len();
        let f0 = self.restrict(f, var, false);
        self.guard.push(f0.0);
        let f1 = self.restrict(f, var, true);
        self.guard.push(f1.0);
        let r = self.ite(g, f1, f0);
        self.guard.truncate(base);
        r
    }

    /// Support: the set of variables `f` depends on, ascending.
    ///
    /// A function and its complement share one subgraph, so traversal
    /// tracks plain node indices, not signed refs.
    pub fn support(&self, f: Ref) -> Vec<u32> {
        let mut seen = std::collections::BTreeSet::new();
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![f.index()];
        while let Some(i) = stack.pop() {
            if i == 0 || visited[i] {
                continue;
            }
            visited[i] = true;
            let n = self.nodes[i];
            seen.insert(n.var);
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        seen.into_iter().collect()
    }

    /// Number of nodes in the graph of `f` (excluding terminals).
    pub fn size(&self, f: Ref) -> usize {
        self.size_many(std::slice::from_ref(&f))
    }

    /// Total node count of a set of roots (shared nodes counted once).
    pub fn size_many(&self, roots: &[Ref]) -> usize {
        self.size_many_capped(roots, usize::MAX)
    }

    /// [`Bdd::size_many`], with the traversal stopped once the count
    /// passes `cap`: exact when the total is at most `cap`, `cap + 1`
    /// otherwise. A bound check on a large graph then costs what the bound
    /// costs, not what the graph does.
    pub fn size_many_capped(&self, roots: &[Ref], cap: usize) -> usize {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if i == 0 || visited[i] {
                continue;
            }
            if count == cap {
                return count + 1;
            }
            visited[i] = true;
            count += 1;
            let n = self.nodes[i];
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        count
    }

    // ------------------------------------------------------------------
    // Evaluation / counting
    // ------------------------------------------------------------------

    /// Evaluate `f` on an assignment (index `i` gives variable `i`).
    ///
    /// Variables beyond the slice default to `false`.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut r = f;
        while !r.is_const() {
            let n = self.node(r);
            let v = assignment.get(n.var as usize).copied().unwrap_or(false);
            // Carry the accumulated complement parity down the path.
            r = Ref(if v { n.hi } else { n.lo } ^ (r.0 & 1));
        }
        r.const_value()
    }

    /// Number of satisfying assignments over `nvars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `nvars` is smaller than some variable index in `f`'s
    /// support.
    pub fn sat_count(&self, f: Ref, nvars: u32) -> f64 {
        // Satisfying *fraction* per plain node (memoized densely by node
        // index); complemented refs read 1 - fraction. Fractions are
        // dyadic, so the final scale by 2^nvars is exact in f64 for any
        // count below 2^53 — same as the pre-complement-edge kernel.
        let mut memo = vec![f64::NAN; self.nodes.len()];
        self.frac_rec(f, nvars, &mut memo) * 2f64.powi(nvars as i32)
    }

    fn frac_rec(&self, f: Ref, nvars: u32, memo: &mut [f64]) -> f64 {
        if f == Ref::FALSE {
            return 0.0;
        }
        if f == Ref::TRUE {
            return 1.0;
        }
        let idx = f.index();
        let mut v = memo[idx];
        if v.is_nan() {
            let n = self.nodes[idx];
            assert!(n.var < nvars, "variable {} outside domain {nvars}", n.var);
            let lo = self.frac_rec(Ref(n.lo), nvars, memo);
            let hi = self.frac_rec(Ref(n.hi), nvars, memo);
            v = 0.5 * (lo + hi);
            memo[idx] = v;
        }
        if f.is_complemented() {
            1.0 - v
        } else {
            v
        }
    }

    /// Exact signal probability of `f` given independent per-variable
    /// one-probabilities `p` (index `i` gives `P(var_i = 1)`).
    ///
    /// Variables beyond the slice default to probability 0.5.
    pub fn probability(&self, f: Ref, p: &[f64]) -> f64 {
        self.probability_many(std::slice::from_ref(&f), p)[0]
    }

    /// [`Bdd::probability`] of every root in `fs`, over one memo shared by
    /// all of them: one arena-sized allocation instead of one per root.
    /// Bit-identical to per-root calls — a plain node's value is the same
    /// expression of its children whichever root reaches it first.
    pub fn probability_many(&self, fs: &[Ref], p: &[f64]) -> Vec<f64> {
        let mut memo = vec![f64::NAN; self.nodes.len()];
        fs.iter().map(|&f| self.prob_rec(f, p, &mut memo)).collect()
    }

    /// Dense memo keyed by plain node index (`NAN` = unvisited; computed
    /// probabilities of live interior nodes are never `NAN`).
    fn prob_rec(&self, f: Ref, p: &[f64], memo: &mut [f64]) -> f64 {
        if f == Ref::FALSE {
            return 0.0;
        }
        if f == Ref::TRUE {
            return 1.0;
        }
        let idx = f.index();
        let mut v = memo[idx];
        if v.is_nan() {
            let n = self.nodes[idx];
            let pv = p.get(n.var as usize).copied().unwrap_or(0.5);
            let lo = self.prob_rec(Ref(n.lo), p, memo);
            let hi = self.prob_rec(Ref(n.hi), p, memo);
            v = (1.0 - pv) * lo + pv * hi;
            memo[idx] = v;
        }
        if f.is_complemented() {
            1.0 - v
        } else {
            v
        }
    }

    /// One satisfying assignment of `f` (as `(var, value)` pairs for the
    /// variables on the chosen path), or `None` if unsatisfiable.
    pub fn any_sat(&self, f: Ref) -> Option<Vec<(u32, bool)>> {
        if f == Ref::FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut r = f;
        while !r.is_const() {
            let n = self.node(r);
            let s = r.0 & 1;
            let hi = Ref(n.hi ^ s);
            if hi != Ref::FALSE {
                path.push((n.var, true));
                r = hi;
            } else {
                path.push((n.var, false));
                r = Ref(n.lo ^ s);
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut mgr = Bdd::new();
        assert_eq!(mgr.constant(true), Ref::TRUE);
        assert_eq!(mgr.constant(false), Ref::FALSE);
        let a = mgr.var(0);
        let a2 = mgr.var(0);
        assert_eq!(a, a2, "canonicity of projections");
        let na = mgr.not(a);
        assert_eq!(mgr.nvar(0), na);
        assert_ne!(a, na);
    }

    #[test]
    fn truth_tables() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let and = mgr.and(a, b);
        let or = mgr.or(a, b);
        let xor = mgr.xor(a, b);
        for bits in 0u32..4 {
            let assignment = [bits & 1 == 1, bits >> 1 & 1 == 1];
            assert_eq!(mgr.eval(and, &assignment), assignment[0] && assignment[1]);
            assert_eq!(mgr.eval(or, &assignment), assignment[0] || assignment[1]);
            assert_eq!(mgr.eval(xor, &assignment), assignment[0] ^ assignment[1]);
        }
    }

    #[test]
    fn canonicity_detects_equivalence() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        // De Morgan: !(a & b) == !a | !b
        let ab = mgr.and(a, b);
        let lhs = mgr.not(ab);
        let na = mgr.not(a);
        let nb = mgr.not(b);
        let rhs = mgr.or(na, nb);
        assert_eq!(lhs, rhs);
        // Distribution: a & (b | c) == a&b | a&c
        let c = mgr.var(2);
        let bc = mgr.or(b, c);
        let l = mgr.and(a, bc);
        let ab = mgr.and(a, b);
        let ac = mgr.and(a, c);
        let r = mgr.or(ab, ac);
        assert_eq!(l, r);
    }

    #[test]
    fn double_negation() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let nf = mgr.not(f);
        assert_eq!(mgr.not(nf), f);
    }

    #[test]
    fn negation_is_free() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let before = mgr.op_counts();
        let nodes = mgr.node_count();
        let nf = mgr.not(f);
        assert_ne!(nf, f);
        assert_eq!(mgr.node_count(), nodes, "complement edge: no new node");
        assert_eq!(mgr.op_counts(), before, "complement edge: no table traffic");
        // And a function xor'd against constants reduces to complement.
        assert_eq!(mgr.xor(f, Ref::TRUE), nf);
    }

    #[test]
    fn commutative_forms_share_cache_entries() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        assert_eq!(mgr.and(a, b), mgr.and(b, a));
        assert_eq!(mgr.or(a, b), mgr.or(b, a));
        assert_eq!(mgr.xor(a, b), mgr.xor(b, a));
        let after_pairs = mgr.op_counts();
        // The swapped forms hit the normalized cache entries: zero new
        // nodes were interned for the repeats.
        assert_eq!(after_pairs.nodes_created as usize, mgr.node_count() - 1);
    }

    #[test]
    fn restrict_and_compose() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let f = {
            let bc = mgr.or(b, c);
            mgr.and(a, bc)
        };
        // f|a=0 == 0, f|a=1 == b|c
        assert_eq!(mgr.restrict(f, 0, false), Ref::FALSE);
        let bc = mgr.or(b, c);
        assert_eq!(mgr.restrict(f, 0, true), bc);
        // compose b := a gives a & (a | c) = a
        let g = mgr.compose(f, 1, a);
        assert_eq!(g, a);
    }

    #[test]
    fn quantification() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        // ∃b. a&b == a ; ∀b. a&b == 0
        assert_eq!(mgr.exists(f, 1), a);
        assert_eq!(mgr.forall(f, 1), Ref::FALSE);
        let g = mgr.or(a, b);
        // ∀b. a|b == a ; ∃b. a|b == 1
        assert_eq!(mgr.forall(g, 1), a);
        assert_eq!(mgr.exists(g, 1), Ref::TRUE);
        // Multi-variable forms.
        assert_eq!(mgr.exists_many(f, &[0, 1]), Ref::TRUE);
        assert_eq!(mgr.forall_many(f, &[0, 1]), Ref::FALSE);
    }

    #[test]
    fn boolean_difference_of_and() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        // ∂(a&b)/∂a = b
        assert_eq!(mgr.boolean_difference(f, 0), b);
        // ∂(a xor b)/∂a = 1
        let g = mgr.xor(a, b);
        assert_eq!(mgr.boolean_difference(g, 0), Ref::TRUE);
    }

    #[test]
    fn sat_count_small() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let f = mgr.and(a, b);
        assert_eq!(mgr.sat_count(f, 3), 2.0); // a&b over 3 vars: 2 assignments
        let g = mgr.or_all([a, b, c]);
        assert_eq!(mgr.sat_count(g, 3), 7.0);
        assert_eq!(mgr.sat_count(Ref::TRUE, 3), 8.0);
        assert_eq!(mgr.sat_count(Ref::FALSE, 3), 0.0);
    }

    #[test]
    fn probability_uniform_matches_sat_count() {
        let mut mgr = Bdd::new();
        let vars: Vec<Ref> = (0..4).map(|i| mgr.var(i)).collect();
        let ab = mgr.and(vars[0], vars[1]);
        let cd = mgr.and(vars[2], vars[3]);
        let f = mgr.or(ab, cd);
        let p = mgr.probability(f, &[0.5; 4]);
        let count = mgr.sat_count(f, 4);
        assert!((p - count / 16.0).abs() < 1e-12);
    }

    #[test]
    fn probability_biased() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.or(a, b);
        // P(a|b) = 1 - (1-0.1)(1-0.2) = 0.28
        let p = mgr.probability(f, &[0.1, 0.2]);
        assert!((p - 0.28).abs() < 1e-12);
    }

    #[test]
    fn support_and_size() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let c = mgr.var(2);
        let f = mgr.xor(a, c);
        assert_eq!(mgr.support(f), vec![0, 2]);
        assert!(mgr.size(f) >= 2);
        assert_eq!(mgr.support(Ref::TRUE), Vec::<u32>::new());
        assert_eq!(mgr.size(Ref::FALSE), 0);
    }

    #[test]
    fn any_sat_finds_assignment() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let nb = mgr.not(b);
        let f = mgr.and(a, nb);
        let sat = mgr.any_sat(f).unwrap();
        let mut assignment = vec![false; 2];
        for (v, val) in sat {
            assignment[v as usize] = val;
        }
        assert!(mgr.eval(f, &assignment));
        assert_eq!(mgr.any_sat(Ref::FALSE), None);
        // A complemented ref is satisfiable exactly when it isn't TRUE's
        // complement... i.e. always, except FALSE itself.
        let nf = mgr.not(f);
        let sat = mgr.any_sat(nf).unwrap();
        let mut env = vec![false; 2];
        for (v, val) in sat {
            env[v as usize] = val;
        }
        assert!(mgr.eval(nf, &env));
    }

    #[test]
    fn adder_bit_is_canonical() {
        // sum bit of full adder built two different ways.
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let cin = mgr.var(2);
        let ab = mgr.xor(a, b);
        let s1 = mgr.xor(ab, cin);
        let bc = mgr.xor(b, cin);
        let s2 = mgr.xor(a, bc);
        assert_eq!(s1, s2);
    }

    #[test]
    fn gc_reclaims_unrooted_nodes() {
        let mut mgr = Bdd::new();
        let vars: Vec<Ref> = (0..8).map(|i| mgr.var(i)).collect();
        let keep = mgr.and(vars[0], vars[1]);
        mgr.protect(keep);
        // Build garbage: a chain over the remaining variables.
        let junk = mgr.and_all(vars[2..].iter().copied());
        assert!(!junk.is_const());
        let before = mgr.node_count();
        let freed = mgr.gc();
        assert!(freed > 0, "the unrooted chain must be collected");
        assert_eq!(mgr.node_count(), before - freed);
        let c = mgr.op_counts();
        assert_eq!(c.nodes_freed, freed as u64);
        assert!(c.gc_runs >= 1);
        // The rooted function survives and stays canonical: rebuilding it
        // from fresh projections finds the same interned nodes. (The old
        // `vars` refs dangle — their projection nodes were unrooted.)
        let a = mgr.var(0);
        let b = mgr.var(1);
        assert_eq!(mgr.and(a, b), keep);
        assert!(mgr.eval(keep, &[true, true]));
        // Freed slots are recycled by later allocations.
        let arena_before = mgr.node_count();
        let fresh: Vec<Ref> = (2..5).map(|i| mgr.var(i)).collect();
        let _rebuilt = mgr.and_all(fresh);
        assert!(mgr.node_count() > arena_before);
    }

    #[test]
    fn gc_preserves_probability_and_eval() {
        let mut mgr = Bdd::new();
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.xor(a, b);
        let f = mgr.or(ab, c);
        mgr.protect(f);
        let p = &[0.3, 0.7, 0.2];
        let prob_before = mgr.probability(f, p);
        let junk_vars: Vec<Ref> = (3..10).map(|i| mgr.var(i)).collect();
        let junk = mgr.and_all(junk_vars);
        assert!(!junk.is_const());
        mgr.gc();
        assert_eq!(prob_before.to_bits(), mgr.probability(f, p).to_bits());
        for bits in 0u32..8 {
            let env: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = (env[0] ^ env[1]) || env[2];
            assert_eq!(mgr.eval(f, &env), expect, "{bits:03b}");
        }
    }

    #[test]
    fn budget_counts_live_nodes_after_gc() {
        // Lifetime allocations exceed the limit, live nodes don't: with
        // auto-GC the build must succeed anyway.
        let mut mgr = Bdd::new();
        mgr.set_auto_gc(true);
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(24);
        for round in 0u32..6 {
            // With auto-GC on, refs held across allocations must be rooted.
            let a = mgr.var(round * 2);
            mgr.protect(a);
            let b = mgr.var(round * 2 + 1);
            mgr.protect(b);
            let f = mgr.try_and(a, b, &budget).expect("live nodes stay small");
            assert!(!f.is_const());
            // Drop the roots: every round's nodes become garbage.
            mgr.clear_roots();
        }
        let c = mgr.op_counts();
        assert!(
            c.nodes_created > 24 / 2,
            "enough lifetime churn to matter: {c:?}"
        );
        assert!(mgr.node_count() <= 24);
    }

    #[test]
    fn node_budget_trips_on_wide_cone() {
        // x0·x3 + x1·x4 + x2·x5 under the interleaved order needs more
        // live nodes than a 12-node budget allows even with complement
        // edges; the result must be a typed error, not growth.
        let mut mgr = Bdd::new();
        let budget = ResourceBudget::unlimited().with_max_bdd_nodes(12);
        let mut f = Ref::FALSE;
        let mut failed = None;
        for (a, b) in [(0, 3), (1, 4), (2, 5)] {
            let (va, vb) = (mgr.var(a), mgr.var(b));
            let t = match mgr.try_and(va, vb, &budget) {
                Ok(t) => t,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            };
            match mgr.try_or(f, t, &budget) {
                Ok(r) => f = r,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let err = failed.expect("12-node budget must be exceeded");
        assert_eq!(err.resource, budget::Resource::BddNodes);
        assert!(err.used >= err.limit);
        assert!(mgr.node_count() <= 14, "growth stopped near the limit");
        // The manager stays usable after exhaustion.
        let a = mgr.var(0);
        assert!(mgr.eval(a, &[true]));
    }

    #[test]
    fn guarded_ops_match_unguarded_under_no_limit() {
        let mut guarded = Bdd::new();
        let mut plain = Bdd::new();
        let unlimited = ResourceBudget::unlimited();
        let (a1, b1, c1) = (guarded.var(0), guarded.var(1), guarded.var(2));
        let (a2, b2, c2) = (plain.var(0), plain.var(1), plain.var(2));
        let g = {
            let x = guarded.try_xor(a1, b1, &unlimited).unwrap();
            let o = guarded.try_or_all([x, c1], &unlimited).unwrap();
            guarded.try_and_all([o, a1], &unlimited).unwrap()
        };
        let p = {
            let x = plain.xor(a2, b2);
            let o = plain.or_all([x, c2]);
            plain.and_all([o, a2])
        };
        for bits in 0u32..8 {
            let env: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(guarded.eval(g, &env), plain.eval(p, &env), "{bits:03b}");
        }
        // Same construction order => same canonical node ids.
        assert_eq!(g, p);
        assert_eq!(guarded.node_count(), plain.node_count());
    }

    #[test]
    fn deadline_budget_fails_eventually() {
        // An already-expired deadline trips on the first chunk of misses.
        let mut mgr = Bdd::new();
        let budget = ResourceBudget::unlimited().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let vars: Vec<Ref> = (0..24).map(|i| mgr.var(i)).collect();
        let mut result = Ok(Ref::FALSE);
        for (a, b) in (0..12).map(|i| (vars[i], vars[i + 12])) {
            result = mgr
                .try_and(a, b, &budget)
                .and_then(|t| result.and_then(|acc| mgr.try_or(acc, t, &budget)));
            if result.is_err() {
                break;
            }
        }
        // Amortization means tiny graphs may finish under an expired
        // deadline; a node limit composed with it always trips.
        let tight = ResourceBudget::unlimited()
            .with_max_bdd_nodes(4)
            .with_deadline_ms(0);
        let v = mgr.var(30);
        let w = mgr.var(31);
        assert!(mgr.try_and(v, w, &tight).is_err());
    }

    #[test]
    fn op_counts_track_work_consistently() {
        let mut mgr = Bdd::new();
        assert_eq!(mgr.op_counts(), OpCounts::default());
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let _again = mgr.and(a, b); // pure cache hit
        let c = mgr.op_counts();
        assert!(c.ite_calls > 0);
        assert!(c.cache_hits <= c.cache_lookups, "{c:?}");
        assert!(c.unique_hits <= c.unique_lookups, "{c:?}");
        assert_eq!(c.unique_lookups, c.unique_hits + c.nodes_created, "{c:?}");
        // Every live node beyond the single terminal came through mk.
        assert_eq!(c.nodes_created as usize, mgr.node_count() - 1);
        assert!(!f.is_const());
    }

    #[test]
    fn op_counts_are_deterministic() {
        let build = || {
            let mut mgr = Bdd::new();
            let vars: Vec<Ref> = (0..6).map(|i| mgr.var(i)).collect();
            let x = mgr.xor(vars[0], vars[3]);
            let y = mgr.and(vars[1], vars[4]);
            let z = mgr.or(vars[2], vars[5]);
            let xy = mgr.or(x, y);
            let _f = mgr.and(xy, z);
            mgr.op_counts()
        };
        assert_eq!(build(), build(), "same construction => same counts");
    }

    #[test]
    fn stats_reflect_growth() {
        let mut mgr = Bdd::new();
        let initial = mgr.stats().nodes;
        let vars: Vec<Ref> = (0..8).map(|i| mgr.var(i)).collect();
        let _f = mgr.and_all(vars);
        let s = mgr.stats();
        assert!(s.nodes > initial);
        assert_eq!(s.vars, 8);
        assert!(mgr.peak_live_nodes() >= s.nodes);
    }
}

// ----------------------------------------------------------------------
// Dynamic (in-place) variable reordering
// ----------------------------------------------------------------------

impl Bdd {
    /// Extend the level maps with identity entries up to `num_vars`.
    fn ensure_level_maps(&mut self) {
        while (self.var2level.len() as u32) < self.num_vars {
            let v = self.var2level.len() as u32;
            self.var2level.push(v);
            self.level2var.push(v);
        }
    }

    /// Install a variable order on an **empty** manager: `var2level[v]` is
    /// the level variable `v` will occupy (level 0 is the root). Used to
    /// seed a build with a netlist-derived static order, and by the store
    /// layer to replay a snapshot under the order it was written with.
    ///
    /// # Panics
    ///
    /// Panics if `var2level` is not a permutation or the manager already
    /// holds interior nodes (reordering a populated manager is
    /// [`Bdd::reorder_now`]'s job — it keeps every [`Ref`] valid).
    pub fn set_order(&mut self, var2level: &[u32]) {
        assert!(
            self.live_nodes == 1 && self.nodes.len() == 1,
            "set_order requires an empty manager"
        );
        let n = var2level.len();
        let mut level2var = vec![u32::MAX; n];
        for (v, &l) in var2level.iter().enumerate() {
            assert!(
                (l as usize) < n && level2var[l as usize] == u32::MAX,
                "order must be a permutation"
            );
            level2var[l as usize] = v as u32;
        }
        self.var2level = var2level.to_vec();
        self.level2var = level2var;
        // The order declares the variable domain up front, so a reloaded
        // manager reports the same `var_order` arity as the one that
        // wrote it even when some variables go unreferenced.
        self.num_vars = self.num_vars.max(n as u32);
    }

    /// The current `var2level` permutation over the variables seen so far
    /// (identity until a custom order or a reorder pass changes it).
    pub fn var_order(&self) -> Vec<u32> {
        (0..self.num_vars).map(|v| self.level_of(v)).collect()
    }

    /// Whether any variable sits away from its identity level.
    pub fn has_custom_order(&self) -> bool {
        (0..self.num_vars).any(|v| self.level_of(v) != v)
    }

    /// Install an automatic reorder policy. Like [`Bdd::set_auto_gc`], any
    /// schedule other than [`ReorderSchedule::Off`] requires every [`Ref`]
    /// held across an allocating call to be kept alive via
    /// [`Bdd::protect`]: a pass begins with a collection and frees what
    /// its swaps orphan.
    pub fn set_reorder_schedule(&mut self, schedule: ReorderSchedule) {
        self.schedule = schedule;
        self.reorder_baseline = self.live_nodes.max(1);
    }

    /// The installed automatic reorder policy.
    pub fn reorder_schedule(&self) -> ReorderSchedule {
        self.schedule
    }

    /// Whether the schedule wants a pass before the next top-level ITE.
    fn reorder_due(&self) -> bool {
        if self.num_vars < 2 {
            return false;
        }
        match self.schedule {
            ReorderSchedule::Off => false,
            ReorderSchedule::Always => self.live_nodes > self.reorder_baseline,
            ReorderSchedule::Threshold {
                growth_percent,
                min_nodes,
            } => {
                self.live_nodes >= min_nodes.max(2)
                    && self.live_nodes
                        >= self.reorder_baseline
                            + self.reorder_baseline * growth_percent as usize / 100
            }
            ReorderSchedule::TimeSliced { .. } => {
                self.live_nodes >= REORDER_MIN_NODES
                    && self.live_nodes
                        >= self.reorder_baseline
                            + self.reorder_baseline * REORDER_GROWTH_PERCENT as usize / 100
            }
        }
    }

    /// Run one in-place sifting pass now, regardless of the schedule.
    ///
    /// Every variable is sifted (densest first) through adjacent-level
    /// swaps and parked at the level minimizing the live node count. All
    /// [`Ref`]s stay valid — nodes are rewritten in place, so a ref keeps
    /// denoting the same Boolean function — but the pass begins with a
    /// collection and every swap frees the nodes it orphans, so unprotected
    /// refs follow the same rooting contract as [`Bdd::set_auto_gc`].
    /// Returns `(nodes_before, nodes_after)` live counts.
    pub fn reorder_now(&mut self) -> (usize, usize) {
        self.ensure_level_maps();
        self.counts.reorder_runs += 1;
        // Collect first so occupancy and sizes reflect reachable structure
        // only (swap garbage from a previous pass, dead intermediates).
        self.gc_run();
        let before = self.live_nodes;
        let n = self.num_vars as usize;
        if n >= 2 {
            self.begin_pass();
            // Sift densest variables first: moving them is where the big
            // wins are, and a fixed order keeps passes deterministic.
            let occupancy: Vec<usize> = self.pass.var_nodes.iter().map(Vec::len).collect();
            let mut vars: Vec<u32> = (0..n as u32).collect();
            vars.sort_by(|&a, &b| {
                occupancy[b as usize]
                    .cmp(&occupancy[a as usize])
                    .then(a.cmp(&b))
            });
            let slice_ends = match self.schedule {
                ReorderSchedule::TimeSliced { slice_ms } => {
                    Some(std::time::Instant::now() + std::time::Duration::from_millis(slice_ms))
                }
                _ => None,
            };
            for var in vars {
                if occupancy[var as usize] == 0 {
                    continue;
                }
                // Time-sliced: stop *starting* walks past the slice; the
                // walk in progress always completes, so the level maps and
                // table are never left mid-swap.
                if let Some(ends) = slice_ends {
                    if std::time::Instant::now() >= ends {
                        break;
                    }
                }
                self.sift_one(var);
            }
            self.end_pass();
        }
        let after = self.live_nodes;
        self.counts.reorder_nodes_before += before as u64;
        self.counts.reorder_nodes_after += after as u64;
        self.reorder_baseline = after.max(1);
        (before, after)
    }

    /// Sift one variable: walk it to the bottom, then to the top, then
    /// back to the best level seen. Each step is one adjacent-level swap;
    /// a direction is abandoned once the graph grows 20% past the best.
    fn sift_one(&mut self, var: u32) {
        let n = self.num_vars as usize;
        let mut level = self.var2level[var as usize] as usize;
        let mut best_size = self.live_nodes;
        let mut best_level = level;
        let grow_limit = |best: usize| best * REORDER_MAX_GROWTH_NUM / REORDER_MAX_GROWTH_DEN + 2;
        while level + 1 < n {
            self.swap_levels(level);
            level += 1;
            if self.live_nodes < best_size {
                best_size = self.live_nodes;
                best_level = level;
            } else if self.live_nodes > grow_limit(best_size) {
                break;
            }
        }
        while level > 0 {
            self.swap_levels(level - 1);
            level -= 1;
            if self.live_nodes < best_size {
                best_size = self.live_nodes;
                best_level = level;
            } else if self.live_nodes > grow_limit(best_size) {
                break;
            }
        }
        while level < best_level {
            self.swap_levels(level);
            level += 1;
        }
        while level > best_level {
            self.swap_levels(level - 1);
            level -= 1;
        }
    }

    /// Fill the pass state. Runs right after the pass's opening
    /// collection, so every interior node is reachable and one arena walk
    /// gives exact counts.
    fn begin_pass(&mut self) {
        let mut rc = vec![0u32; self.nodes.len()];
        let mut var_nodes = vec![Vec::new(); self.num_vars as usize];
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if node.var == FREE_VAR {
                continue;
            }
            rc[(node.lo >> 1) as usize] += 1;
            rc[(node.hi >> 1) as usize] += 1;
            var_nodes[node.var as usize].push(i as u32);
        }
        for &r in self.roots.iter().chain(&self.guard) {
            rc[(r >> 1) as usize] += 1;
        }
        // Nothing reads the global table until `end_pass` rebuilds it, so
        // its slots go before the subtables take theirs.
        self.table.slots = Vec::new();
        let tables = var_nodes
            .iter()
            .map(|list| {
                let mut table = UniqueTable::with_room_for(list.len(), PASS_LOAD_QUARTERS);
                for &i in list {
                    table.insert(&self.nodes, i, &mut self.counts.reorder_probes);
                }
                table
            })
            .collect();
        self.pass = PassState {
            rc,
            var_nodes,
            tables,
            freed_at_begin: self.counts.nodes_freed,
            ..PassState::default()
        };
    }

    /// Drop the pass state and rebuild the global table, sized for the
    /// live nodes. No ITE runs during a pass, so the cache only needs the
    /// wipe a collection gives it when a swap freed a node whose slot a
    /// later allocation may recycle.
    fn end_pass(&mut self) {
        if self.counts.nodes_freed != self.pass.freed_at_begin {
            self.cache.fill(CacheEntry::INVALID);
        }
        self.pass = PassState::default();
        let table = UniqueTable::with_room_for(self.live_nodes, GLOBAL_LOAD_QUARTERS);
        self.counts.reorder_probes += self.rebuild_table(table);
        #[cfg(test)]
        self.assert_swap_left_no_garbage();
    }

    /// Swap adjacent levels `level` and `level + 1` in place.
    ///
    /// Let `u`/`w` be the variables at the two levels. Every `u`-node with
    /// a `w`-topped child is rewritten in place to a `w`-node over fresh
    /// `u`-children (`f = w'·(u', f00, f10) + w·(u', f01, f11)`); nodes of
    /// either variable not entangled with the other just have their level
    /// reassigned via the maps. Rewriting in place keeps every external
    /// [`Ref`] — GC roots, guard pins, cached ITE results — valid, because
    /// a ref's function never changes; complement-edge canonicity is
    /// preserved because the new hi child is built from the old (regular)
    /// stored-hi cofactors, so it is always regular itself.
    ///
    /// The swap touches only `u`'s node list, the nodes whose count it
    /// changes and the unique tables of their variables: each rewritten
    /// candidate moves from `u`'s table to `w`'s. Nodes orphaned by the
    /// rewrites (at `w` or below; `u`-nodes keep their parents) stay
    /// interned and counted live until the swap ends, then leave their
    /// tables for the free list in ascending index order — the state a
    /// full collection would leave.
    fn swap_levels(&mut self, level: usize) {
        let u = self.level2var[level];
        let w = self.level2var[level + 1];
        // `u`'s live nodes in ascending index order, as an arena scan would
        // meet them; entries gone stale since the list was last taken drop
        // out here.
        let mut keep = std::mem::take(&mut self.pass.var_nodes[u as usize]);
        keep.retain(|&i| self.nodes[i as usize].var == u);
        keep.sort_unstable();
        keep.dedup();
        // Candidates have a w-topped child. The new u-children created
        // below have all their children strictly under `w`, so they are
        // never candidates themselves.
        let mut candidates = Vec::new();
        keep.retain(|&i| {
            let node = self.nodes[i as usize];
            let entangled = self.nodes[(node.lo >> 1) as usize].var == w
                || self.nodes[(node.hi >> 1) as usize].var == w;
            if entangled {
                candidates.push(i);
            }
            !entangled
        });
        for &ci in &candidates {
            let node = self.nodes[ci as usize];
            let (f00, f01) = self.cofactors_at(Ref(node.lo), w);
            let (f10, f11) = self.cofactors_at(Ref(node.hi), w);
            let g0 = self.mk_counted(u, f00, f10, &mut keep);
            let g1 = self.mk_counted(u, f01, f11, &mut keep);
            // The candidate depends on `w`, so its two new cofactors
            // differ; and g1 is built from regular stored-hi edges, so the
            // rewritten node keeps the hi-regular invariant.
            debug_assert_ne!(g0, g1);
            debug_assert!(!g1.is_complemented());
            // New children are counted before old ones are released, so a
            // grandchild both share never touches zero.
            self.pass.rc[g0.index()] += 1;
            self.pass.rc[g1.index()] += 1;
            let probes = &mut self.counts.reorder_probes;
            self.pass.tables[u as usize].remove(&self.nodes, ci, probes);
            self.nodes[ci as usize] = Node {
                var: w,
                lo: g0.0,
                hi: g1.0,
            };
            self.pass.tables[w as usize].insert(&self.nodes, ci, probes);
            self.release(node.lo);
            self.release(node.hi);
        }
        self.pass.var_nodes[u as usize] = keep;
        self.pass.var_nodes[w as usize].extend_from_slice(&candidates);
        self.level2var.swap(level, level + 1);
        self.var2level[u as usize] = (level + 1) as u32;
        self.var2level[w as usize] = level as u32;
        self.counts.reorder_swaps += 1;
        // Free the orphans as `gc_run`'s sweep would: ascending, each
        // pushed onto the free list, so later allocations recycle the same
        // slots in the same order.
        let mut dead = std::mem::take(&mut self.pass.dead);
        dead.sort_unstable();
        for &i in &dead {
            let var = self.nodes[i as usize].var as usize;
            self.pass.tables[var].remove(&self.nodes, i, &mut self.counts.reorder_probes);
            self.nodes[i as usize] = Node {
                var: FREE_VAR,
                lo: self.free_head,
                hi: 0,
            };
            self.free_head = i;
        }
        self.live_nodes -= dead.len();
        self.counts.nodes_freed += dead.len() as u64;
        dead.clear();
        self.pass.dead = dead;
        #[cfg(test)]
        self.assert_swap_left_no_garbage();
    }

    /// [`Bdd::mk`] inside a swap, on `var`'s table, with the same
    /// normalization and counts. A node it interns (always a `u`-node)
    /// starts from a zero count — its slot may be a recycled one — counts
    /// its children, and joins `u`'s list.
    fn mk_counted(&mut self, var: u32, lo: Ref, hi: Ref, list: &mut Vec<u32>) -> Ref {
        if lo == hi {
            return lo;
        }
        // The stored hi edge is regular, as in `mk`.
        let sign = hi.0 & 1;
        let (lo, hi) = (Ref(lo.0 ^ sign), Ref(hi.0 ^ sign));
        self.counts.unique_lookups += 1;
        let table = &self.pass.tables[var as usize];
        let probes = &mut self.counts.reorder_probes;
        let slot = match table.find(&self.nodes, var, lo.0, hi.0, probes) {
            Ok(i) => {
                self.counts.unique_hits += 1;
                return Ref(i << 1 | sign);
            }
            Err(slot) => slot,
        };
        let i = self.alloc(var, lo, hi);
        let table = &mut self.pass.tables[var as usize];
        if table.insert_at(slot, i) {
            table.grow(&self.nodes, &mut self.counts.reorder_probes);
        }
        let rc = &mut self.pass.rc;
        if i as usize >= rc.len() {
            rc.resize(i as usize + 1, 0);
        }
        rc[i as usize] = 0;
        rc[lo.index()] += 1;
        rc[hi.index()] += 1;
        list.push(i);
        Ref(i << 1 | sign)
    }

    /// Drop one reference along raw edge `edge`. A node whose count reaches
    /// zero is recorded as dead and releases its own children; the
    /// terminal is never freed.
    fn release(&mut self, edge: u32) {
        self.pass.stack.push(edge >> 1);
        while let Some(i) = self.pass.stack.pop() {
            if i == 0 {
                continue;
            }
            let count = &mut self.pass.rc[i as usize];
            *count -= 1;
            if *count == 0 {
                self.pass.dead.push(i);
                let node = self.nodes[i as usize];
                self.pass.stack.push(node.lo >> 1);
                self.pass.stack.push(node.hi >> 1);
            }
        }
    }
}

/// Traversal oracle for the reference-counted swap, run after every swap
/// and at the end of every pass in this crate's tests.
#[cfg(test)]
impl Bdd {
    fn assert_swap_left_no_garbage(&self) {
        let mut reached = vec![false; self.nodes.len()];
        reached[0] = true;
        let mut reachable = 1;
        let mut stack: Vec<usize> = self
            .roots
            .iter()
            .chain(&self.guard)
            .map(|&r| (r >> 1) as usize)
            .collect();
        while let Some(i) = stack.pop() {
            if reached[i] {
                continue;
            }
            reached[i] = true;
            reachable += 1;
            let n = self.nodes[i];
            stack.push((n.lo >> 1) as usize);
            stack.push((n.hi >> 1) as usize);
        }
        assert_eq!(
            self.node_count(),
            reachable,
            "live count must equal the nodes reachable from roots and guard pins"
        );
        let mut free = self.free_head;
        while free != NIL {
            assert!(
                !reached[free as usize],
                "reachable node {free} is on the free list"
            );
            free = self.nodes[free as usize].lo;
        }
        // During a pass every live node sits in its own variable's table
        // and the global table holds no slots; after it, all sit in the
        // global table.
        let in_pass = !self.pass.tables.is_empty();
        let tables = if in_pass {
            assert!(self.table.slots.is_empty(), "a pass kept the global table");
            &self.pass.tables[..]
        } else {
            std::slice::from_ref(&self.table)
        };
        let mut interned = 0;
        for (v, table) in tables.iter().enumerate() {
            let entries: Vec<u32> = table
                .slots
                .iter()
                .copied()
                .filter(|&k| k != EMPTY)
                .collect();
            assert_eq!(entries.len(), table.len, "table {v} miscounts its entries");
            assert!(
                table.len * 4 < table.slots.len() * table.load_quarters,
                "table {v} is past its load bound"
            );
            for &k in &entries {
                assert!(reached[k as usize], "a unique table holds dead node {k}");
                if in_pass {
                    let var = self.nodes[k as usize].var;
                    assert_eq!(var as usize, v, "node {k} sits in table {v}");
                }
            }
            interned += entries.len();
        }
        assert_eq!(
            interned,
            reachable - 1,
            "the unique tables must hold each live node once"
        );
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var == FREE_VAR {
                continue;
            }
            let table = if in_pass {
                &self.pass.tables[n.var as usize]
            } else {
                &self.table
            };
            match table.find(&self.nodes, n.var, n.lo, n.hi, &mut 0) {
                Ok(k) => assert_eq!(k as usize, i, "two live nodes share contents"),
                Err(_) => panic!("live node {i} is not in its unique table"),
            }
        }
    }
}

#[cfg(test)]
mod reorder_tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Doublings by [`UniqueTable::grow`] on this thread. Only a
        /// reorder pass's tables grow that way; the global table grows by
        /// an arena-order rebuild.
        static SUBTABLE_GROWTHS: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by [`UniqueTable::grow`] each time a table doubles.
    pub(super) fn note_growth() {
        SUBTABLE_GROWTHS.with(|g| g.set(g.get() + 1));
    }

    /// f = x0·x1 + x2·x3 + x4·x5 — linear under the natural order,
    /// exponential under the interleaved order (x0,x2,x4,x1,x3,x5).
    fn chain_function(mgr: &mut Bdd, pairs: &[(u32, u32)]) -> Ref {
        let mut f = Ref::FALSE;
        for &(a, b) in pairs {
            let va = mgr.var(a);
            let vb = mgr.var(b);
            let t = mgr.and(va, vb);
            f = mgr.or(f, t);
        }
        f
    }

    #[test]
    fn good_order_is_linear_bad_is_larger() {
        // Natural (paired) order.
        let mut good = Bdd::new();
        let fg = chain_function(&mut good, &[(0, 1), (2, 3), (4, 5)]);
        // Interleaved order: pair partners maximally separated.
        let mut bad = Bdd::new();
        let fb = chain_function(&mut bad, &[(0, 3), (1, 4), (2, 5)]);
        assert!(
            bad.size(fb) > good.size(fg),
            "interleaved {} vs paired {}",
            bad.size(fb),
            good.size(fg)
        );
    }

    /// [`chain_function`] under the auto-GC/reorder rooting contract:
    /// every ref held across an allocating call is protected, so a pass
    /// (which begins with a collection) can fire inside any operation.
    fn chain_function_rooted(mgr: &mut Bdd, pairs: &[(u32, u32)]) -> Ref {
        let mut f = Ref::FALSE;
        mgr.protect(f);
        for &(a, b) in pairs {
            let va = mgr.var(a);
            mgr.protect(va);
            let vb = mgr.var(b);
            mgr.protect(vb);
            let t = mgr.and(va, vb);
            mgr.protect(t);
            let nf = mgr.or(f, t);
            mgr.unprotect(t);
            mgr.unprotect(vb);
            mgr.unprotect(va);
            mgr.unprotect(f);
            f = nf;
            mgr.protect(f);
        }
        f
    }

    fn truth_table(mgr: &Bdd, f: Ref, nvars: u32) -> Vec<bool> {
        (0u32..1 << nvars)
            .map(|bits| {
                let env: Vec<bool> = (0..nvars).map(|i| bits >> i & 1 == 1).collect();
                mgr.eval(f, &env)
            })
            .collect()
    }

    #[test]
    fn single_swap_preserves_semantics_in_place() {
        let mut mgr = Bdd::new();
        let f = chain_function(&mut mgr, &[(0, 1), (2, 3), (4, 5)]);
        let nf = mgr.not(f);
        mgr.protect(f);
        mgr.protect(nf);
        let want_f = truth_table(&mgr, f, 6);
        // Set up the pass state as `reorder_now` does: collect, then count.
        mgr.ensure_level_maps();
        mgr.gc();
        mgr.begin_pass();
        // Walk every adjacent pair, twice — same external refs throughout.
        for pass in 0..2 {
            for l in 0..5 {
                mgr.swap_levels(l);
                assert_eq!(truth_table(&mgr, f, 6), want_f, "pass {pass} swap {l}");
                let got_nf = truth_table(&mgr, nf, 6);
                assert!(got_nf.iter().zip(&want_f).all(|(a, b)| *a != *b));
            }
        }
        mgr.end_pass();
        assert!(mgr.op_counts().reorder_swaps >= 10);
    }

    /// Deterministic xorshift64 stream for the random-function tests.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random function over `nvars` variables: `terms` random two- or
    /// three-literal products, folded by random OR/XOR. Intermediates are
    /// left unrooted, so a pass's opening collection has garbage to sweep.
    fn random_function(mgr: &mut Bdd, rng: &mut u64, nvars: u32, terms: usize) -> Ref {
        let mut f = Ref::FALSE;
        for _ in 0..terms {
            let mut t = Ref::TRUE;
            for _ in 0..2 + next(rng) % 2 {
                let r = next(rng);
                let v = (r % nvars as u64) as u32;
                let lit = if r >> 32 & 1 == 1 {
                    mgr.var(v)
                } else {
                    mgr.nvar(v)
                };
                t = mgr.and(t, lit);
            }
            f = if next(rng) & 1 == 1 {
                mgr.or(f, t)
            } else {
                mgr.xor(f, t)
            };
        }
        f
    }

    #[test]
    fn reference_counted_swaps_free_exactly_the_unreachable_nodes() {
        // Full passes over random rooted functions. Every swap and every
        // pass ends with `assert_swap_left_no_garbage`: the live count
        // equals a traversal count from roots and guard pins, the unique
        // tables find every live node by its contents, in its variable's
        // table during the pass and in the global one after it, and no
        // reachable node is free.
        let mut grown = 0;
        for seed in 1..=16u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let nvars = 6 + (seed % 4) as u32;
            let mut mgr = Bdd::new();
            let mut rooted = Vec::new();
            for k in 0..4 {
                let f = random_function(&mut mgr, &mut rng, nvars, 6 + k);
                // Complemented and duplicate roots count like any other.
                let f = if k % 2 == 1 { mgr.not(f) } else { f };
                mgr.protect(f);
                if k == 0 {
                    mgr.protect(f);
                }
                rooted.push(f);
            }
            // Operands pinned the way `try_ite` pins them before it starts
            // a pass: one unrooted, one also a rooted node's child.
            let pinned = random_function(&mut mgr, &mut rng, nvars, 8);
            let child = mgr.low(rooted[3]);
            let want: Vec<Vec<bool>> = rooted
                .iter()
                .chain([&pinned, &child])
                .map(|&f| truth_table(&mgr, f, nvars))
                .collect();
            let base = mgr.guard.len();
            mgr.guard.push(pinned.0);
            mgr.guard.push(child.0);
            // The pass sizes each variable's table at the smallest
            // capacity holding its nodes, so swaps that intern new nodes
            // or move candidates in before freeing the orphans must grow
            // tables mid-swap (which re-interns the orphans awaiting their
            // free).
            mgr.gc();
            let growths = SUBTABLE_GROWTHS.with(Cell::get);
            mgr.reorder_now();
            grown += SUBTABLE_GROWTHS.with(Cell::get) - growths;
            // A second pass from the found order, after dropping one root
            // and one of a duplicate pair: its opening collection frees
            // the dropped function, and the counts restart from what stays.
            mgr.unprotect(rooted[0]);
            mgr.unprotect(rooted[1]);
            let (_, after) = mgr.reorder_now();
            mgr.guard.truncate(base);
            let kept = [rooted[0], rooted[2], rooted[3], pinned, child];
            let wanted = [&want[0], &want[2], &want[3], &want[4], &want[5]];
            for (&f, want) in kept.iter().zip(wanted) {
                assert_eq!(&truth_table(&mgr, f, nvars), want, "seed {seed}");
            }
            assert_eq!(after, mgr.node_count());
            let c = mgr.op_counts();
            assert!(c.reorder_swaps > 0, "seed {seed}: no swap ran");
            assert_eq!(
                c.gc_runs, 3,
                "seed {seed}: the explicit collection, then one per pass"
            );
        }
        assert!(grown > 0, "no pass grew a subtable mid-swap");
    }

    #[test]
    fn reorder_now_recovers_linear_size() {
        let mut mgr = Bdd::new();
        let f = chain_function(&mut mgr, &[(0, 3), (1, 4), (2, 5)]);
        mgr.protect(f);
        let want = truth_table(&mgr, f, 6);
        let before_size = mgr.size(f);
        let (before, after) = mgr.reorder_now();
        assert!(after < before, "reorder {before} -> {after}");
        // Sifting should find a pairing order: 6 internal nodes.
        assert_eq!(mgr.size(f), 6, "was {before_size}");
        assert!(mgr.has_custom_order());
        // The same Ref still denotes the same function.
        assert_eq!(truth_table(&mgr, f, 6), want);
        let c = mgr.op_counts();
        assert_eq!(c.reorder_runs, 1);
        assert!(c.reorder_swaps > 0);
        assert!(c.reorder_nodes_after < c.reorder_nodes_before);
    }

    #[test]
    fn reorder_preserves_probability_and_counts() {
        let mut mgr = Bdd::new();
        let f = chain_function(&mut mgr, &[(0, 4), (1, 5), (2, 6), (3, 7)]);
        mgr.protect(f);
        // Dyadic biases: every intermediate probability is an exactly
        // representable dyadic, so reordering is bit-identical.
        let p: Vec<f64> = (0..8).map(|i| (i + 4) as f64 / 16.0).collect();
        let prob = mgr.probability(f, &p);
        let sat = mgr.sat_count(f, 8);
        let sup = mgr.support(f);
        mgr.reorder_now();
        assert_eq!(mgr.probability(f, &p).to_bits(), prob.to_bits());
        assert_eq!(mgr.sat_count(f, 8).to_bits(), sat.to_bits());
        assert_eq!(mgr.support(f), sup);
    }

    #[test]
    fn threshold_schedule_fires_during_growth() {
        let mut mgr = Bdd::new();
        mgr.set_auto_gc(true);
        mgr.set_reorder_schedule(ReorderSchedule::Threshold {
            growth_percent: 20,
            min_nodes: 8,
        });
        let f = chain_function_rooted(&mut mgr, &[(0, 4), (1, 5), (2, 6), (3, 7)]);
        mgr.protect(f);
        // Keep building so post-install growth trips the trigger.
        let g = chain_function_rooted(&mut mgr, &[(0, 6), (1, 7), (2, 4), (3, 5)]);
        mgr.protect(g);
        assert!(mgr.op_counts().reorder_runs >= 1, "threshold never fired");
        // Both functions match fixed-order reference managers.
        let mut fix = Bdd::new();
        let ff = chain_function(&mut fix, &[(0, 4), (1, 5), (2, 6), (3, 7)]);
        let gg = chain_function(&mut fix, &[(0, 6), (1, 7), (2, 4), (3, 5)]);
        assert_eq!(truth_table(&mgr, f, 8), truth_table(&fix, ff, 8));
        assert_eq!(truth_table(&mgr, g, 8), truth_table(&fix, gg, 8));
    }

    #[test]
    fn always_schedule_matches_fixed_order() {
        let mut mgr = Bdd::new();
        mgr.set_reorder_schedule(ReorderSchedule::Always);
        let f = chain_function_rooted(&mut mgr, &[(0, 2), (1, 3)]);
        mgr.protect(f);
        let mut fix = Bdd::new();
        let ff = chain_function(&mut fix, &[(0, 2), (1, 3)]);
        assert_eq!(truth_table(&mgr, f, 4), truth_table(&fix, ff, 4));
    }

    #[test]
    fn timesliced_schedule_completes_current_walk() {
        let mut mgr = Bdd::new();
        mgr.set_reorder_schedule(ReorderSchedule::TimeSliced { slice_ms: 1000 });
        let f = chain_function_rooted(&mut mgr, &[(0, 3), (1, 4), (2, 5)]);
        mgr.protect(f);
        let want = truth_table(&mgr, f, 6);
        mgr.reorder_now();
        assert_eq!(truth_table(&mgr, f, 6), want);
    }

    #[test]
    fn set_order_seeds_build_and_round_trips() {
        let mut mgr = Bdd::new();
        let order: Vec<u32> = (0..6).rev().collect();
        mgr.set_order(&order);
        let f = chain_function(&mut mgr, &[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(mgr.var_order(), order);
        assert!(mgr.has_custom_order());
        // Pairs stay adjacent under full reversal: still the linear size.
        assert_eq!(mgr.size(f), 6);
        let mut fix = Bdd::new();
        let ff = chain_function(&mut fix, &[(0, 1), (2, 3), (4, 5)]);
        assert_eq!(truth_table(&mgr, f, 6), truth_table(&fix, ff, 6));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn set_order_rejects_non_permutation() {
        let mut mgr = Bdd::new();
        mgr.set_order(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "empty manager")]
    fn set_order_rejects_populated_manager() {
        let mut mgr = Bdd::new();
        let _ = mgr.var(0);
        mgr.set_order(&[0]);
    }

    #[test]
    fn reorder_schedule_parse_round_trip() {
        for spec in ["off", "always", "threshold", "threshold:64", "timeslice:25"] {
            let s = ReorderSchedule::parse(spec).unwrap();
            let shown = s.to_string();
            assert_eq!(ReorderSchedule::parse(&shown).unwrap(), s);
        }
        assert_eq!(
            ReorderSchedule::parse("threshold").unwrap(),
            ReorderSchedule::threshold()
        );
        assert!(ReorderSchedule::parse("sift-harder").is_err());
        assert!(ReorderSchedule::parse("threshold:x").is_err());
    }

    #[test]
    fn reorder_under_restrict_and_exists() {
        // Quantification recurses through ops that may trigger a reorder;
        // results must match a fixed-order manager.
        let mut mgr = Bdd::new();
        mgr.set_reorder_schedule(ReorderSchedule::Always);
        let f = chain_function_rooted(&mut mgr, &[(0, 3), (1, 4), (2, 5)]);
        mgr.protect(f);
        let e = mgr.exists(f, 3);
        mgr.protect(e);
        let r = mgr.restrict(f, 0, true);
        mgr.protect(r);
        let mut fix = Bdd::new();
        let ff = chain_function(&mut fix, &[(0, 3), (1, 4), (2, 5)]);
        let ee = fix.exists(ff, 3);
        let rr = fix.restrict(ff, 0, true);
        assert_eq!(truth_table(&mgr, e, 6), truth_table(&fix, ee, 6));
        assert_eq!(truth_table(&mgr, r, 6), truth_table(&fix, rr, 6));
    }
}
