//! The [`Netlist`] graph: gates, flip-flops, nets and traversals.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Handle to a net (equivalently, the node driving it).
///
/// `NetId`s are stable: optimization passes rewire fanins but never
/// invalidate existing ids (dead nodes are only removed by
/// [`Netlist::sweep_dead`], which returns a remapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net in the netlist's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Intended for tools that serialize ids.
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The combinational structure of a [`Netlist`], from one pass over its
/// edges ([`Netlist::topology`]): a topological order, the logic level of
/// every net, and the fanout lists in CSR layout (one offsets array plus
/// one flat array of sinks). Flip-flops' fanin edges are cut.
#[derive(Debug, Clone)]
pub struct Topology {
    order: Vec<NetId>,
    levels: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout_idx: Vec<NetId>,
}

impl Topology {
    /// Every net, each after all of its combinational fanins.
    #[inline]
    pub fn order(&self) -> &[NetId] {
        &self.order
    }

    /// Logic level per net, indexed by raw net id (sources and flip-flops
    /// at 0, a gate one above its deepest fanin).
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The combinational sinks of `net` in ascending order, one entry per
    /// fanin pin: a gate that reads `net` twice appears twice.
    #[inline]
    pub fn fanouts(&self, net: NetId) -> &[NetId] {
        let i = net.index();
        &self.fanout_idx[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }
}

#[derive(Debug, Clone)]
struct Node {
    kind: GateKind,
    inputs: Vec<NetId>,
    name: Option<String>,
    /// Initial state; meaningful only for `Dff` nodes.
    init: bool,
}

/// A gate-level netlist: a DAG of combinational gates plus D flip-flops.
///
/// Flip-flops break cycles: the only legal cycles in the graph pass through a
/// [`GateKind::Dff`] node. All construction methods validate arity; rewiring
/// methods defer cycle checking to [`Netlist::validate`] /
/// [`Netlist::topo_order`].
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NetId>,
    outputs: Vec<(NetId, String)>,
    dffs: Vec<NetId>,
}

impl Netlist {
    /// Create an empty netlist with the given model name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a primary input and return its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.push(Node {
            kind: GateKind::Input,
            inputs: Vec::new(),
            name: Some(name.into()),
            init: false,
        });
        self.inputs.push(id);
        id
    }

    /// Add a constant-value net.
    pub fn add_const(&mut self, value: bool) -> NetId {
        self.push(Node {
            kind: GateKind::Const(value),
            inputs: Vec::new(),
            name: None,
            init: false,
        })
    }

    /// Add a combinational gate.
    ///
    /// # Panics
    ///
    /// Panics if the arity is illegal for `kind`, if `kind` is
    /// [`GateKind::Input`]/[`GateKind::Dff`] (use the dedicated methods), or
    /// if any input id is out of range.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        assert!(
            !matches!(kind, GateKind::Input | GateKind::Dff),
            "use add_input/add_dff for {kind}"
        );
        assert!(
            kind.arity_ok(inputs.len()),
            "gate kind {kind} requires {} inputs, got {}",
            kind.arity_spec(),
            inputs.len()
        );
        for &input in inputs {
            assert!(
                input.index() < self.nodes.len(),
                "input {input} out of range"
            );
        }
        self.push(Node {
            kind,
            inputs: inputs.to_vec(),
            name: None,
            init: false,
        })
    }

    /// Add a combinational gate with a debug name.
    pub fn add_gate_named(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        name: impl Into<String>,
    ) -> NetId {
        let id = self.add_gate(kind, inputs);
        self.nodes[id.index()].name = Some(name.into());
        id
    }

    /// Add a D flip-flop with data input `d` and initial state `init`.
    ///
    /// The returned net carries the register's *output* (current state).
    /// The data input may be a net defined later; pass a placeholder and
    /// rewire with [`Netlist::set_dff_data`] when building feedback loops,
    /// or use [`Netlist::add_dff_placeholder`].
    pub fn add_dff(&mut self, d: NetId, init: bool) -> NetId {
        assert!(d.index() < self.nodes.len(), "dff data {d} out of range");
        let id = self.push(Node {
            kind: GateKind::Dff,
            inputs: vec![d],
            name: None,
            init,
        });
        self.dffs.push(id);
        id
    }

    /// Add a D flip-flop with a synchronous load-enable input `en`.
    ///
    /// When `en` is low the register holds its value (the gated-clock /
    /// precomputation architectures of the survey use this).
    pub fn add_dff_en(&mut self, d: NetId, en: NetId, init: bool) -> NetId {
        assert!(d.index() < self.nodes.len(), "dff data {d} out of range");
        assert!(en.index() < self.nodes.len(), "dff enable {en} out of range");
        let id = self.push(Node {
            kind: GateKind::Dff,
            inputs: vec![d, en],
            name: None,
            init,
        });
        self.dffs.push(id);
        id
    }

    /// Add a flip-flop whose data input will be connected later (for
    /// feedback). The placeholder initially feeds back on itself.
    pub fn add_dff_placeholder(&mut self, init: bool) -> NetId {
        let id = self.push(Node {
            kind: GateKind::Dff,
            inputs: Vec::new(),
            name: None,
            init,
        });
        self.nodes[id.index()].inputs = vec![id];
        self.dffs.push(id);
        id
    }

    /// Connect (or reconnect) the data input of flip-flop `dff`.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop.
    pub fn set_dff_data(&mut self, dff: NetId, d: NetId) {
        assert_eq!(self.nodes[dff.index()].kind, GateKind::Dff, "{dff} not a dff");
        assert!(d.index() < self.nodes.len());
        self.nodes[dff.index()].inputs[0] = d;
    }

    /// Attach (or replace) a load-enable input on flip-flop `dff`.
    pub fn set_dff_enable(&mut self, dff: NetId, en: NetId) {
        assert_eq!(self.nodes[dff.index()].kind, GateKind::Dff, "{dff} not a dff");
        assert!(en.index() < self.nodes.len());
        let node = &mut self.nodes[dff.index()];
        if node.inputs.len() == 1 {
            node.inputs.push(en);
        } else {
            node.inputs[1] = en;
        }
    }

    /// Mark a net as a primary output under `name`.
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        assert!(net.index() < self.nodes.len(), "output {net} out of range");
        self.outputs.push((net, name.into()));
    }

    fn push(&mut self, node: Node) -> NetId {
        let id = NetId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of nodes (nets) including inputs and flip-flops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs `(net, name)`, in declaration order.
    pub fn outputs(&self) -> &[(NetId, String)] {
        &self.outputs
    }

    /// Flip-flop nets, in declaration order.
    pub fn dffs(&self) -> &[NetId] {
        &self.dffs
    }

    /// The gate kind of `net`.
    pub fn kind(&self, net: NetId) -> GateKind {
        self.nodes[net.index()].kind
    }

    /// Fanin nets of `net`.
    pub fn fanins(&self, net: NetId) -> &[NetId] {
        &self.nodes[net.index()].inputs
    }

    /// Optional debug name of `net`.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.nodes[net.index()].name.as_deref()
    }

    /// Initial state of flip-flop `net` (false for non-flip-flops).
    pub fn dff_init(&self, net: NetId) -> bool {
        self.nodes[net.index()].init
    }

    /// Whether the netlist is purely combinational.
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    /// Iterate over all net ids in index order.
    pub fn iter_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nodes.len() as u32).map(NetId)
    }

    /// Replace the fanins of a combinational gate (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics on illegal arity or out-of-range inputs. Cycle freedom is
    /// re-checked by [`Netlist::validate`].
    pub fn set_fanins(&mut self, net: NetId, inputs: &[NetId]) {
        let kind = self.nodes[net.index()].kind;
        assert!(kind.arity_ok(inputs.len()) || kind == GateKind::Dff);
        for &input in inputs {
            assert!(input.index() < self.nodes.len());
        }
        self.nodes[net.index()].inputs = inputs.to_vec();
    }

    /// Replace the kind of a gate, keeping its fanins.
    ///
    /// # Panics
    ///
    /// Panics if the current fanin count is illegal for the new kind.
    pub fn set_kind(&mut self, net: NetId, kind: GateKind) {
        let n = self.nodes[net.index()].inputs.len();
        assert!(kind.arity_ok(n), "kind {kind} cannot take {n} inputs");
        self.nodes[net.index()].kind = kind;
    }

    /// Redirect every use of `old` (as a fanin or primary output) to `new`.
    pub fn replace_uses(&mut self, old: NetId, new: NetId) {
        for node in &mut self.nodes {
            for input in &mut node.inputs {
                if *input == old {
                    *input = new;
                }
            }
        }
        for (net, _) in &mut self.outputs {
            if *net == old {
                *net = new;
            }
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Fanout lists for every net.
    pub fn fanouts(&self) -> Vec<Vec<NetId>> {
        let mut fo = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &input in &node.inputs {
                fo[input.index()].push(NetId(i as u32));
            }
        }
        fo
    }

    /// Fanout *count* for every net (cheaper than [`Netlist::fanouts`]).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut fo = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for &input in &node.inputs {
                fo[input.index()] += 1;
            }
        }
        fo
    }

    /// The combinational structure in one pass over the edges: topological
    /// order, logic levels and fanout lists (see [`Topology`]).
    ///
    /// Flip-flops are sources: their fanin edges are cut, so they appear in
    /// no fanout list and sit at level 0. The order is Kahn's, with the
    /// zero-indegree nets seeded in index order and each popped net's sinks
    /// visited in ascending order; a gate listing a fanin twice appears
    /// twice in that fanin's list.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`], naming the lowest net
    /// left unordered, if a cycle exists that does not pass through a
    /// flip-flop.
    pub fn topology(&self) -> Result<Topology, NetlistError> {
        let n = self.nodes.len();
        // Counting sort of the combinational edges by source: count, take
        // inclusive prefix sums (each net's end offset), then fill back to
        // front so every list ends up in ascending sink order and every
        // offset at its list's start.
        let mut fanout_off = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind == GateKind::Dff {
                continue; // sequential edges are cut
            }
            indegree[i] = node.inputs.len() as u32;
            for &input in &node.inputs {
                fanout_off[input.index()] += 1;
            }
        }
        for i in 1..=n {
            fanout_off[i] += fanout_off[i - 1];
        }
        let mut fanout_idx = vec![NetId(0); fanout_off[n] as usize];
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if node.kind == GateKind::Dff {
                continue;
            }
            for &input in &node.inputs {
                let slot = &mut fanout_off[input.index()];
                *slot -= 1;
                fanout_idx[*slot as usize] = NetId(i as u32);
            }
        }
        // Kahn's pass, with `order` doubling as its queue. A sink is queued
        // only after its last fanin pops, so its level is final by then.
        let mut order: Vec<NetId> = Vec::with_capacity(n);
        order.extend((0..n as u32).filter(|&i| indegree[i as usize] == 0).map(NetId));
        let mut levels = vec![0u32; n];
        let mut head = 0;
        while head < order.len() {
            let v = order[head].index();
            head += 1;
            let next = levels[v] + 1;
            for &w in &fanout_idx[fanout_off[v] as usize..fanout_off[v + 1] as usize] {
                let w_i = w.index();
                levels[w_i] = levels[w_i].max(next);
                indegree[w_i] -= 1;
                if indegree[w_i] == 0 {
                    order.push(w);
                }
            }
        }
        if order.len() != n {
            let net = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(NetlistError::CombinationalCycle { net });
        }
        Ok(Topology {
            order,
            levels,
            fanout_off,
            fanout_idx,
        })
    }

    /// Topological order of the combinational graph: the order of
    /// [`Netlist::topology`].
    ///
    /// Flip-flop outputs are treated as sources (their fanin edges are cut),
    /// so the order is valid for single-cycle evaluation. Sources (inputs,
    /// constants, flip-flops) appear in the order too.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if a cycle exists that
    /// does not pass through a flip-flop.
    pub fn topo_order(&self) -> Result<Vec<NetId>, NetlistError> {
        Ok(self.topology()?.order)
    }

    /// Combinational logic level of every net (sources and flip-flops at
    /// level 0): the levels of [`Netlist::topology`].
    ///
    /// # Errors
    ///
    /// Propagates cycle errors from [`Netlist::topology`].
    pub fn levels(&self) -> Result<Vec<usize>, NetlistError> {
        Ok(self.topology()?.levels.into_iter().map(|l| l as usize).collect())
    }

    /// Maximum combinational logic level.
    pub fn depth(&self) -> usize {
        self.levels().map(|l| l.into_iter().max().unwrap_or(0)).unwrap_or(0)
    }

    /// Structural validation: arity, dangling nets, cycles, duplicate output
    /// names.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for node in &self.nodes {
            if !node.kind.arity_ok(node.inputs.len()) {
                return Err(NetlistError::ArityMismatch {
                    kind: node.kind.mnemonic(),
                    expected: node.kind.arity_spec(),
                    got: node.inputs.len(),
                });
            }
            for &input in &node.inputs {
                if input.index() >= self.nodes.len() {
                    return Err(NetlistError::DanglingNet { net: input.index() });
                }
            }
        }
        let mut seen = HashMap::new();
        for (_, name) in &self.outputs {
            if seen.insert(name.clone(), ()).is_some() {
                return Err(NetlistError::DuplicateName { name: name.clone() });
            }
        }
        self.topo_order()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate a purely combinational netlist on one input pattern.
    ///
    /// Returns primary output values in output order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is sequential or the pattern width is wrong;
    /// use [`Netlist::try_eval_comb`] for a fallible variant.
    pub fn eval_comb(&self, pattern: &[bool]) -> Vec<bool> {
        self.try_eval_comb(pattern).expect("eval_comb")
    }

    /// Fallible variant of [`Netlist::eval_comb`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::NotCombinational`] for sequential netlists,
    /// [`NetlistError::PatternWidth`] on width mismatch, plus cycle errors.
    pub fn try_eval_comb(&self, pattern: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if !self.is_combinational() {
            return Err(NetlistError::NotCombinational);
        }
        if pattern.len() != self.inputs.len() {
            return Err(NetlistError::PatternWidth {
                expected: self.inputs.len(),
                got: pattern.len(),
            });
        }
        let order = self.topo_order()?;
        let mut values = vec![false; self.nodes.len()];
        for (idx, &input) in self.inputs.iter().enumerate() {
            values[input.index()] = pattern[idx];
        }
        let mut scratch = Vec::new();
        for net in order {
            let node = &self.nodes[net.index()];
            if node.kind.is_source() {
                if let GateKind::Const(v) = node.kind {
                    values[net.index()] = v;
                }
                continue;
            }
            scratch.clear();
            scratch.extend(node.inputs.iter().map(|i| values[i.index()]));
            values[net.index()] = node.kind.eval(&scratch);
        }
        Ok(self.outputs.iter().map(|(net, _)| values[net.index()]).collect())
    }

    // ------------------------------------------------------------------
    // Surgery
    // ------------------------------------------------------------------

    /// Which nets are live: reachable from a primary output or flip-flop,
    /// plus the primary inputs (kept so the interface is stable). Exactly
    /// the nets [`Netlist::sweep_dead`] keeps.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self
            .outputs
            .iter()
            .map(|(net, _)| net.index())
            .chain(self.dffs.iter().chain(&self.inputs).map(|net| net.index()))
            .collect();
        while let Some(v) = stack.pop() {
            if !live[v] {
                live[v] = true;
                stack.extend(self.nodes[v].inputs.iter().map(|input| input.index()));
            }
        }
        live
    }

    /// Remove nodes not reachable from any primary output or flip-flop.
    ///
    /// Returns the mapping `old id -> new id` (`None` for removed nodes).
    pub fn sweep_dead(&mut self) -> Vec<Option<NetId>> {
        let n = self.nodes.len();
        let live = self.live_mask();
        let mut map: Vec<Option<NetId>> = vec![None; n];
        let mut new_nodes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if live[i] {
                map[i] = Some(NetId(new_nodes.len() as u32));
                new_nodes.push(node.clone());
            }
        }
        for node in &mut new_nodes {
            for input in &mut node.inputs {
                *input = map[input.index()].expect("live node references dead fanin");
            }
        }
        self.nodes = new_nodes;
        for input in &mut self.inputs {
            *input = map[input.index()].expect("primary input swept");
        }
        for (net, _) in &mut self.outputs {
            *net = map[net.index()].expect("primary output swept");
        }
        self.dffs.retain(|d| map[d.index()].is_some());
        for dff in &mut self.dffs {
            *dff = map[dff.index()].expect("dff swept");
        }
        map
    }

    /// Remove every node with index `>= len`, restoring the node table to
    /// an earlier append point.
    ///
    /// This is the inverse of a run of `add_gate`/`add_const` calls; it
    /// lets incremental engines revert speculative gate insertions in
    /// place without the renumbering a [`Netlist::sweep_dead`] would do.
    ///
    /// # Panics
    ///
    /// Panics if a surviving node, primary input, primary output, or
    /// flip-flop still references a removed net — rewire those first.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.nodes.len(), "truncate beyond node table");
        for (i, node) in self.nodes[..len].iter().enumerate() {
            for &input in &node.inputs {
                assert!(
                    input.index() < len,
                    "net n{i} references removed net {input}"
                );
            }
        }
        for &pi in &self.inputs {
            assert!(pi.index() < len, "primary input {pi} removed");
        }
        for (net, name) in &self.outputs {
            assert!(net.index() < len, "output {name} ({net}) removed");
        }
        for &dff in &self.dffs {
            assert!(dff.index() < len, "flip-flop {dff} removed");
        }
        self.nodes.truncate(len);
    }

    /// Re-point primary output slot `idx` (in [`Netlist::outputs`] order)
    /// at `net`, keeping its name. Used by incremental engines to undo the
    /// output rewiring of [`Netlist::replace_uses`].
    pub fn set_output_net(&mut self, idx: usize, net: NetId) {
        assert!(net.index() < self.nodes.len(), "output net {net} out of range");
        self.outputs[idx].0 = net;
    }

    /// Extract the transitive-fanin cone of `roots` as a fresh combinational
    /// netlist. Flip-flop outputs become primary inputs of the cone.
    ///
    /// Returns the cone plus the mapping from old ids to cone ids.
    pub fn extract_cone(&self, roots: &[NetId]) -> (Netlist, HashMap<NetId, NetId>) {
        let mut cone = Netlist::new(format!("{}_cone", self.name));
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        // Depth-first, post-order copy.
        let mut stack: Vec<(NetId, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((net, expanded)) = stack.pop() {
            if map.contains_key(&net) {
                continue;
            }
            let node = &self.nodes[net.index()];
            let as_input = node.kind == GateKind::Dff || node.kind == GateKind::Input;
            if as_input {
                let name = node
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("n{}", net.0));
                let new = cone.add_input(name);
                map.insert(net, new);
                continue;
            }
            if expanded {
                let inputs: Vec<NetId> = node.inputs.iter().map(|i| map[i]).collect();
                let new = if let GateKind::Const(v) = node.kind {
                    cone.add_const(v)
                } else {
                    cone.add_gate(node.kind, &inputs)
                };
                map.insert(net, new);
            } else {
                stack.push((net, true));
                for &input in node.inputs.iter().rev() {
                    if !map.contains_key(&input) {
                        stack.push((input, false));
                    }
                }
            }
        }
        for (i, &root) in roots.iter().enumerate() {
            let mapped = map[&root];
            cone.mark_output(mapped, format!("o{i}"));
        }
        (cone, map)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gates = self
            .nodes
            .iter()
            .filter(|n| !n.kind.is_source() && n.kind != GateKind::Dff)
            .count();
        write!(
            f,
            "netlist {} ({} inputs, {} outputs, {} gates, {} dffs)",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            gates,
            self.dffs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use proptest::prelude::*;

    fn majority3() -> Netlist {
        let mut nl = Netlist::new("maj3");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(GateKind::And, &[a, b]);
        let bc = nl.add_gate(GateKind::And, &[b, c]);
        let ac = nl.add_gate(GateKind::And, &[a, c]);
        let m = nl.add_gate(GateKind::Or, &[ab, bc, ac]);
        nl.mark_output(m, "maj");
        nl
    }

    #[test]
    fn build_and_eval_majority() {
        let nl = majority3();
        assert!(nl.validate().is_ok());
        for pattern in 0u32..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            let expected = bits.iter().filter(|&&b| b).count() >= 2;
            assert_eq!(nl.eval_comb(&bits), vec![expected], "{bits:?}");
        }
    }

    #[test]
    fn topo_order_is_consistent() {
        let nl = majority3();
        let order = nl.topo_order().unwrap();
        assert_eq!(order.len(), nl.len());
        let mut position = vec![0usize; nl.len()];
        for (pos, net) in order.iter().enumerate() {
            position[net.index()] = pos;
        }
        for net in nl.iter_nets() {
            if nl.kind(net) == GateKind::Dff {
                continue;
            }
            for &input in nl.fanins(net) {
                assert!(position[input.index()] < position[net.index()]);
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let nl = majority3();
        let levels = nl.levels().unwrap();
        let (out, _) = nl.outputs()[0];
        assert_eq!(levels[out.index()], 2);
        assert_eq!(nl.depth(), 2);
    }

    #[test]
    fn dff_feedback_loop_is_legal() {
        // Toggle flip-flop: q' = !q
        let mut nl = Netlist::new("toggle");
        let q = nl.add_dff_placeholder(false);
        let nq = nl.add_gate(GateKind::Not, &[q]);
        nl.set_dff_data(q, nq);
        nl.mark_output(q, "q");
        assert!(nl.validate().is_ok());
        assert_eq!(nl.num_dffs(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("cycle");
        let a = nl.add_input("a");
        let g1 = nl.add_gate(GateKind::And, &[a, a]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, a]);
        // Force a combinational cycle g1 <-> g2.
        nl.set_fanins(g1, &[a, g2]);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn eval_rejects_bad_width() {
        let nl = majority3();
        assert!(matches!(
            nl.try_eval_comb(&[true, false]),
            Err(NetlistError::PatternWidth { expected: 3, got: 2 })
        ));
    }

    #[test]
    fn eval_rejects_sequential() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, false);
        nl.mark_output(q, "q");
        assert!(matches!(
            nl.try_eval_comb(&[true]),
            Err(NetlistError::NotCombinational)
        ));
    }

    #[test]
    fn duplicate_output_name_rejected() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        nl.mark_output(a, "y");
        nl.mark_output(a, "y");
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn sweep_dead_removes_unreachable() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let live = nl.add_gate(GateKind::And, &[a, b]);
        let _dead = nl.add_gate(GateKind::Xor, &[a, b]);
        nl.mark_output(live, "y");
        let before = nl.len();
        let map = nl.sweep_dead();
        assert_eq!(nl.len(), before - 1);
        assert!(map.iter().filter(|m| m.is_none()).count() == 1);
        assert!(nl.validate().is_ok());
        assert_eq!(nl.eval_comb(&[true, true]), vec![true]);
        assert_eq!(nl.eval_comb(&[true, false]), vec![false]);
    }

    #[test]
    fn replace_uses_rewires_everything() {
        let mut nl = Netlist::new("rep");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]);
        nl.mark_output(g, "y");
        // Replace uses of b with a: gate becomes AND(a, a) = a.
        nl.replace_uses(b, a);
        assert_eq!(nl.fanins(g), &[a, a]);
        assert_eq!(nl.eval_comb(&[true, false]), vec![true]);
    }

    #[test]
    fn extract_cone_copies_function() {
        let nl = majority3();
        let (out, _) = nl.outputs()[0];
        let (cone, map) = nl.extract_cone(&[out]);
        assert!(cone.is_combinational());
        assert_eq!(cone.num_inputs(), 3);
        assert!(map.contains_key(&out));
        for pattern in 0u32..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(cone.eval_comb(&bits), nl.eval_comb(&bits));
        }
    }

    #[test]
    fn cone_treats_dff_as_input() {
        let mut nl = Netlist::new("seqcone");
        let a = nl.add_input("a");
        let q = nl.add_dff_placeholder(false);
        let f = nl.add_gate(GateKind::Xor, &[a, q]);
        nl.set_dff_data(q, f);
        nl.mark_output(f, "y");
        let (cone, _) = nl.extract_cone(&[f]);
        assert!(cone.is_combinational());
        assert_eq!(cone.num_inputs(), 2); // a and the register output
    }

    #[test]
    fn fanout_counts_match_fanouts() {
        let nl = majority3();
        let counts = nl.fanout_counts();
        let lists = nl.fanouts();
        for net in nl.iter_nets() {
            assert_eq!(counts[net.index()], lists[net.index()].len());
        }
        // b feeds two AND gates.
        let b = nl.inputs()[1];
        assert_eq!(counts[b.index()], 2);
    }

    /// The per-net `Vec` Kahn pass that [`Netlist::topology`] replaced,
    /// kept as its oracle: the order, the levels (the old second pass over
    /// the order) and the fanout lists with flip-flop fanin edges cut.
    #[allow(clippy::type_complexity)]
    fn kahn_oracle(
        nl: &Netlist,
    ) -> Result<(Vec<NetId>, Vec<usize>, Vec<Vec<NetId>>), NetlistError> {
        let n = nl.len();
        let mut indegree = vec![0usize; n];
        let mut fanouts: Vec<Vec<NetId>> = vec![Vec::new(); n];
        for net in nl.iter_nets() {
            if nl.kind(net) == GateKind::Dff {
                continue;
            }
            indegree[net.index()] = nl.fanins(net).len();
            for &input in nl.fanins(net) {
                fanouts[input.index()].push(net);
            }
        }
        let mut order: Vec<NetId> = nl.iter_nets().filter(|v| indegree[v.index()] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in &fanouts[v.index()] {
                indegree[w.index()] -= 1;
                if indegree[w.index()] == 0 {
                    order.push(w);
                }
            }
        }
        if order.len() != n {
            let net = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(NetlistError::CombinationalCycle { net });
        }
        let mut level = vec![0usize; n];
        for &net in &order {
            let kind = nl.kind(net);
            if kind == GateKind::Dff || kind.is_source() {
                continue;
            }
            level[net.index()] = nl
                .fanins(net)
                .iter()
                .map(|i| level[i.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        Ok((order, level, fanouts))
    }

    fn check_topology(nl: &Netlist) -> Result<(), TestCaseError> {
        let got = nl.topology();
        match kahn_oracle(nl) {
            Ok((order, levels, fanouts)) => {
                let Ok(topo) = got else {
                    return Err(TestCaseError::fail(format!("spurious cycle: {got:?}")));
                };
                prop_assert_eq!(topo.order(), &order[..]);
                prop_assert_eq!(nl.topo_order(), Ok(order));
                prop_assert_eq!(nl.levels(), Ok(levels));
                for net in nl.iter_nets() {
                    let sinks = topo.fanouts(net);
                    prop_assert_eq!(sinks, &fanouts[net.index()][..], "fanouts of {}", net);
                    prop_assert!(sinks.windows(2).all(|w| w[0] <= w[1]));
                }
            }
            Err(cycle) => {
                prop_assert_eq!(got.map(|_| ()), Err(cycle.clone()));
                prop_assert_eq!(nl.topo_order(), Err(cycle));
            }
        }
        Ok(())
    }

    /// A random graph for the oracle: gates whose fanins are drawn with
    /// replacement from every earlier net (so duplicate fanins are common),
    /// flip-flops fed from anywhere (feedback through them is legal), and,
    /// when `rewire` is set, one gate made to read itself or a later net,
    /// which closes a combinational cycle whenever that net depends on it.
    fn random_graph(seed: u64, gates: usize, rewire: bool) -> Netlist {
        let mut rng = Rng64::new(seed);
        let mut nl = Netlist::new("topo");
        for i in 0..rng.range(1, 5) {
            nl.add_input(format!("x{i}"));
        }
        if rng.flip() {
            nl.add_const(rng.flip());
        }
        let kinds = [GateKind::And, GateKind::Xor, GateKind::Nor, GateKind::Not, GateKind::Mux];
        let mut dffs = Vec::new();
        let mut combinational = Vec::new();
        for _ in 0..gates {
            if rng.chance(0.1) {
                dffs.push(nl.add_dff_placeholder(rng.flip()));
                continue;
            }
            let kind = *rng.choose(&kinds);
            let arity = match kind {
                GateKind::Not => 1,
                GateKind::Mux => 3,
                _ => rng.range(1, 5),
            };
            let fanins: Vec<NetId> = (0..arity)
                .map(|_| NetId::from_index(rng.range(0, nl.len())))
                .collect();
            combinational.push(nl.add_gate(kind, &fanins));
        }
        for d in dffs {
            nl.set_dff_data(d, NetId::from_index(rng.range(0, nl.len())));
            if rng.flip() {
                nl.set_dff_enable(d, NetId::from_index(rng.range(0, nl.len())));
            }
        }
        if rewire && !combinational.is_empty() {
            let g = *rng.choose(&combinational);
            let mut fanins = nl.fanins(g).to_vec();
            let pin = rng.range(0, fanins.len());
            fanins[pin] = NetId::from_index(rng.range(g.index(), nl.len()));
            nl.set_fanins(g, &fanins);
        }
        nl
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn topology_matches_the_vec_kahn_pass(
            seed in any::<u64>(),
            gates in 0usize..80,
            rewire in any::<bool>(),
        ) {
            check_topology(&random_graph(seed, gates, rewire))?;
        }
    }

    #[test]
    fn topology_matches_the_vec_kahn_pass_on_generated_circuits() {
        use crate::gen::{pipelined_multiplier, random_dag, wallace_multiplier, RandomDagConfig};
        let big_dag = RandomDagConfig {
            inputs: 64,
            gates: 10_000,
            outputs: 32,
            max_fanin: 4,
            window: 96,
        };
        let circuits = [
            pipelined_multiplier(4),
            pipelined_multiplier(8),
            wallace_multiplier(32).0,
            random_dag(&big_dag, 10),
        ];
        for nl in &circuits {
            if let Err(e) = check_topology(nl) {
                panic!("{}: {e:?}", nl.name());
            }
        }
        // Each pipelined multiplier's registers are order sources whose
        // fanin edges are cut.
        let pipe = &circuits[1];
        let topo = pipe.topology().unwrap();
        for &d in pipe.dffs() {
            assert_eq!(topo.levels()[d.index()], 0);
            for &f in pipe.fanins(d) {
                assert!(!topo.fanouts(f).contains(&d), "sequential edge {f} -> {d} kept");
            }
        }
    }

    #[test]
    fn dff_enable_attach() {
        let mut nl = Netlist::new("en");
        let d = nl.add_input("d");
        let en = nl.add_input("en");
        let q = nl.add_dff(d, false);
        nl.set_dff_enable(q, en);
        assert_eq!(nl.fanins(q), &[d, en]);
        // Replacing the enable works too.
        let en2 = nl.add_input("en2");
        nl.set_dff_enable(q, en2);
        assert_eq!(nl.fanins(q), &[d, en2]);
    }
}
