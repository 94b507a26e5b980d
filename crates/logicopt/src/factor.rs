//! Algebraic factoring and kernel extraction (survey §III.A.3).
//!
//! Implements the classic MIS-style flow (\[5\]): compute the kernels of each
//! expression, pick the kernel whose extraction as a shared intermediate
//! node most improves the cost function, substitute, repeat. The cost
//! function is pluggable:
//!
//! * [`CostFn::Literals`] — classic area-driven extraction;
//! * [`CostFn::Activity`] — the power-driven variant of \[35\] (SYCLOP):
//!   every literal is weighted by the switching activity of its signal, so
//!   the extractor prefers sharing logic on *quiet* signals and leaving hot
//!   signals unshared.
//!
//! Expressions are sum-of-products over up to 64 variables; intermediate
//! nodes introduced by extraction get fresh variable indices.

use std::collections::BTreeMap;

use netlist::{GateKind, NetId, Netlist};

/// A product term: positive and negative literal masks (bit `i` = var `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    /// Variables appearing positively.
    pub pos: u64,
    /// Variables appearing negatively.
    pub neg: u64,
}

impl Cube {
    /// The cube with no literals (constant 1).
    pub const ONE: Cube = Cube { pos: 0, neg: 0 };

    /// A single positive or negative literal.
    pub fn literal(var: usize, positive: bool) -> Cube {
        assert!(var < 64, "at most 64 variables");
        if positive {
            Cube {
                pos: 1 << var,
                neg: 0,
            }
        } else {
            Cube {
                pos: 0,
                neg: 1 << var,
            }
        }
    }

    /// Number of literals.
    pub fn literal_count(self) -> usize {
        (self.pos.count_ones() + self.neg.count_ones()) as usize
    }

    /// Whether this cube contains all literals of `other`.
    pub fn contains(self, other: Cube) -> bool {
        self.pos & other.pos == other.pos && self.neg & other.neg == other.neg
    }

    /// Conjunction; `None` if the cubes clash (x and !x).
    pub fn and(self, other: Cube) -> Option<Cube> {
        let pos = self.pos | other.pos;
        let neg = self.neg | other.neg;
        if pos & neg != 0 {
            None
        } else {
            Some(Cube { pos, neg })
        }
    }

    /// Remove the literals of `other` (algebraic cofactor w.r.t. a cube).
    pub fn without(self, other: Cube) -> Cube {
        Cube {
            pos: self.pos & !other.pos,
            neg: self.neg & !other.neg,
        }
    }

    /// Evaluate on an assignment.
    pub fn eval(self, assignment: u64) -> bool {
        (assignment & self.pos) == self.pos && (!assignment & self.neg) == self.neg
    }
}

/// A sum-of-products expression.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sop {
    /// The product terms (OR of these).
    pub cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-0 expression.
    pub fn zero() -> Sop {
        Sop { cubes: Vec::new() }
    }

    /// Build from cubes, deduplicating.
    pub fn new(mut cubes: Vec<Cube>) -> Sop {
        cubes.sort_unstable();
        cubes.dedup();
        Sop { cubes }
    }

    /// Total literal count.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(|c| c.literal_count()).sum()
    }

    /// Evaluate on an assignment (bit `i` of `assignment` = var `i`).
    pub fn eval(&self, assignment: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }

    /// The common cube (largest cube dividing every term).
    pub fn common_cube(&self) -> Cube {
        let mut pos = u64::MAX;
        let mut neg = u64::MAX;
        for c in &self.cubes {
            pos &= c.pos;
            neg &= c.neg;
        }
        if self.cubes.is_empty() {
            Cube::ONE
        } else {
            Cube { pos, neg }
        }
    }

    /// Whether the expression is cube-free (no common literal).
    pub fn is_cube_free(&self) -> bool {
        self.common_cube() == Cube::ONE
    }

    /// Make cube-free by dividing out the common cube.
    pub fn cube_free(&self) -> Sop {
        let common = self.common_cube();
        Sop::new(self.cubes.iter().map(|c| c.without(common)).collect())
    }

    /// Algebraic (weak) division by a single cube.
    pub fn divide_by_cube(&self, divisor: Cube) -> Sop {
        Sop::new(
            self.cubes
                .iter()
                .filter(|c| c.contains(divisor))
                .map(|c| c.without(divisor))
                .collect(),
        )
    }

    /// Algebraic division by an expression: `self = quotient·divisor +
    /// remainder` with quotient maximal.
    pub fn divide(&self, divisor: &Sop) -> (Sop, Sop) {
        if divisor.cubes.is_empty() {
            return (Sop::zero(), self.clone());
        }
        // Quotient = intersection of cube-quotients.
        let mut quotient: Option<Vec<Cube>> = None;
        for &d in &divisor.cubes {
            let q = self.divide_by_cube(d);
            quotient = Some(match quotient {
                None => q.cubes,
                Some(prev) => prev.into_iter().filter(|c| q.cubes.contains(c)).collect(),
            });
            if quotient.as_ref().map(|q| q.is_empty()).unwrap_or(false) {
                break;
            }
        }
        let quotient = Sop::new(quotient.unwrap_or_default());
        if quotient.cubes.is_empty() {
            return (Sop::zero(), self.clone());
        }
        // Remainder = self minus quotient×divisor.
        let mut product = Vec::new();
        for &q in &quotient.cubes {
            for &d in &divisor.cubes {
                if let Some(c) = q.and(d) {
                    product.push(c);
                }
            }
        }
        let remainder = Sop::new(
            self.cubes
                .iter()
                .copied()
                .filter(|c| !product.contains(c))
                .collect(),
        );
        (quotient, remainder)
    }

    /// All level-0..n kernels (cube-free quotients by cubes) and their
    /// co-kernels. Includes the expression itself if cube-free with ≥ 2
    /// cubes.
    pub fn kernels(&self) -> Vec<Sop> {
        let mut seen: Vec<Sop> = Vec::new();
        self.kernel_rec(0, &mut seen);
        let me = self.cube_free();
        if me.cubes.len() >= 2 && !seen.contains(&me) {
            seen.push(me);
        }
        seen
    }

    fn kernel_rec(&self, min_var: usize, out: &mut Vec<Sop>) {
        for var in min_var..64 {
            for positive in [true, false] {
                let lit = Cube::literal(var, positive);
                let count = self.cubes.iter().filter(|c| c.contains(lit)).count();
                if count < 2 {
                    continue;
                }
                let quotient = self.divide_by_cube(lit).cube_free();
                if quotient.cubes.len() < 2 {
                    continue;
                }
                if !out.contains(&quotient) {
                    out.push(quotient.clone());
                    quotient.kernel_rec(var + 1, out);
                }
            }
        }
    }
}

/// The extraction cost function.
#[derive(Debug, Clone)]
pub enum CostFn {
    /// Count literals (classic area extraction, \[5\]).
    Literals,
    /// Weight each literal by the switching activity of its signal
    /// (`2·p·(1−p)` for the variable's one-probability), the power cost of
    /// \[35\]. New intermediate variables get the activity implied by their
    /// expression under independence.
    Activity,
}

/// A multi-output Boolean network in SOP form, the substrate for
/// extraction.
#[derive(Debug, Clone)]
pub struct SopNetwork {
    /// Number of primary-input variables (vars `0..primary`).
    pub primary: usize,
    /// One-probability per variable (primaries first, then intermediates).
    pub probs: Vec<f64>,
    /// Intermediate definitions: `(var index, expression)`, in creation
    /// order (an intermediate may use earlier intermediates).
    pub intermediates: Vec<(usize, Sop)>,
    /// The output expressions.
    pub outputs: Vec<Sop>,
}

impl SopNetwork {
    /// Create a network over `primary` input variables with the given
    /// one-probabilities and output expressions.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree or `primary > 60` (intermediates need
    /// room below 64).
    pub fn new(primary: usize, probs: Vec<f64>, outputs: Vec<Sop>) -> SopNetwork {
        assert!(primary <= 60, "too many primary variables");
        assert_eq!(probs.len(), primary, "probability per primary input");
        SopNetwork {
            primary,
            probs,
            intermediates: Vec::new(),
            outputs,
        }
    }

    /// Next free variable index.
    fn next_var(&self) -> usize {
        self.primary + self.intermediates.len()
    }

    /// One-probability of an expression under variable independence.
    fn sop_probability(&self, sop: &Sop) -> f64 {
        // P(OR of cubes) via inclusion-exclusion is exponential; use the
        // standard independent-OR approximation over disjoint-ish cubes.
        let mut p_none = 1.0;
        for c in &sop.cubes {
            let mut pc = 1.0;
            for v in 0..self.probs.len() {
                if c.pos >> v & 1 == 1 {
                    pc *= self.probs[v];
                }
                if c.neg >> v & 1 == 1 {
                    pc *= 1.0 - self.probs[v];
                }
            }
            p_none *= 1.0 - pc;
        }
        1.0 - p_none
    }

    fn literal_weight(&self, var: usize, cost: &CostFn) -> f64 {
        match cost {
            CostFn::Literals => 1.0,
            CostFn::Activity => {
                let p = self.probs[var];
                2.0 * p * (1.0 - p)
            }
        }
    }

    /// Cost of one expression under the cost function.
    fn sop_cost(&self, sop: &Sop, cost: &CostFn) -> f64 {
        let mut total = 0.0;
        for c in &sop.cubes {
            for v in 0..self.probs.len() {
                if c.pos >> v & 1 == 1 || c.neg >> v & 1 == 1 {
                    total += self.literal_weight(v, cost);
                }
            }
        }
        total
    }

    /// Total network cost.
    pub fn cost(&self, cost: &CostFn) -> f64 {
        let mut total = 0.0;
        for (_, sop) in &self.intermediates {
            total += self.sop_cost(sop, cost);
        }
        for sop in &self.outputs {
            total += self.sop_cost(sop, cost);
        }
        total
    }

    /// Total literal count (area proxy).
    pub fn literal_count(&self) -> usize {
        self.intermediates
            .iter()
            .map(|(_, s)| s.literal_count())
            .sum::<usize>()
            + self
                .outputs
                .iter()
                .map(|s| s.literal_count())
                .sum::<usize>()
    }

    /// One round of extraction: find and apply the single kernel that most
    /// improves the cost. Returns the kernel and its gain, or `None`.
    pub fn extract_best_kernel(&mut self, cost: &CostFn) -> Option<(Sop, f64)> {
        let round = self.best_kernel_round(cost);
        if let Some((next, kernel, gain)) = round {
            *self = next;
            Some((kernel, gain))
        } else {
            None
        }
    }

    fn best_kernel_round(&self, cost: &CostFn) -> Option<(SopNetwork, Sop, f64)> {
        // Gather candidate kernels from every expression.
        let mut candidates: Vec<Sop> = Vec::new();
        let exprs: Vec<&Sop> = self
            .intermediates
            .iter()
            .map(|(_, s)| s)
            .chain(self.outputs.iter())
            .collect();
        for sop in &exprs {
            for k in sop.kernels() {
                if !candidates.contains(&k) {
                    candidates.push(k);
                }
            }
        }
        let before = self.cost(cost);
        let mut best: Option<(SopNetwork, Sop, f64)> = None;
        for kernel in &candidates {
            if self.next_var() >= 64 {
                break;
            }
            let mut trial = self.clone();
            if trial.substitute(kernel) == 0 {
                continue;
            }
            let after = trial.cost(cost);
            if after < before - 1e-9 {
                let gain = before - after;
                if best.as_ref().map(|&(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((trial, kernel.clone(), gain));
                }
            }
        }
        best
    }

    /// Run greedy kernel extraction until no kernel improves the cost.
    /// Returns the number of intermediates introduced.
    pub fn extract_kernels(&mut self, cost: &CostFn) -> usize {
        let mut introduced = 0;
        while self.extract_best_kernel(cost).is_some() {
            introduced += 1;
        }
        introduced
    }

    /// Introduce `kernel` as a new intermediate and substitute it wherever
    /// division yields a nonempty quotient. Returns the number of
    /// substitutions (0 leaves the network unchanged; even a single use
    /// can pay off — `ac + ad + bc + bd` → `t = c + d; at + bt` drops two
    /// literals).
    pub fn substitute(&mut self, kernel: &Sop) -> usize {
        let var = self.next_var();
        if var >= 64 {
            return 0;
        }
        // The kernel may reference earlier intermediates; those definitions
        // must stay *before* the new one and must NOT be rewritten in terms
        // of it (that would create a definition cycle and break the
        // in-order evaluation invariant). Compute the kernel's transitive
        // support closure over intermediate variables.
        let support_of = |sop: &Sop, primary: usize| -> Vec<usize> {
            let mut vars = Vec::new();
            for c in &sop.cubes {
                let mask = c.pos | c.neg;
                for v in primary..64 {
                    if mask >> v & 1 == 1 {
                        vars.push(v);
                    }
                }
            }
            vars
        };
        let mut closure: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut frontier: Vec<usize> = support_of(kernel, self.primary);
        while let Some(v) = frontier.pop() {
            if !closure.insert(v) {
                continue;
            }
            if let Some((_, def)) = self.intermediates.iter().find(|(iv, _)| *iv == v) {
                frontier.extend(support_of(def, self.primary));
            }
        }

        let lit = Cube::literal(var, true);
        let mut hits = 0;
        let rewrite = |sop: &Sop, hits: &mut usize| -> Sop {
            let (q, r) = sop.divide(kernel);
            if q.cubes.is_empty() || sop == kernel {
                return sop.clone();
            }
            *hits += 1;
            let mut cubes = r.cubes;
            for &qc in &q.cubes {
                if let Some(c) = qc.and(lit) {
                    cubes.push(c);
                }
            }
            Sop::new(cubes)
        };
        // Rewrite only intermediates outside the closure; the closure ones
        // stay verbatim so they can precede the new definition.
        let mut before: Vec<(usize, Sop)> = Vec::new();
        let mut after: Vec<(usize, Sop)> = Vec::new();
        for (v, s) in &self.intermediates {
            if closure.contains(v) {
                before.push((*v, s.clone()));
            } else {
                after.push((*v, rewrite(s, &mut hits)));
            }
        }
        let new_outputs: Vec<Sop> = self.outputs.iter().map(|s| rewrite(s, &mut hits)).collect();
        if hits < 1 {
            return 0;
        }
        let p = self.sop_probability(kernel);
        // Topological order: kernel's dependencies, the kernel, the rest.
        before.push((var, kernel.clone()));
        before.extend(after);
        self.intermediates = before;
        self.outputs = new_outputs;
        self.probs.push(p);
        hits
    }

    /// Evaluate output `o` on a primary-input assignment.
    pub fn eval_output(&self, o: usize, assignment: u64) -> bool {
        let mut full = assignment & ((1u64 << self.primary) - 1);
        // Evaluate intermediates in order.
        for (var, sop) in &self.intermediates {
            if sop.eval(full) {
                full |= 1 << var;
            } else {
                full &= !(1 << var);
            }
        }
        self.outputs[o].eval(full)
    }

    /// Convert to a gate-level netlist (AND per cube, OR per expression).
    pub fn to_netlist(&self, name: &str) -> Netlist {
        let mut nl = Netlist::new(name);
        let mut var_nets: BTreeMap<usize, NetId> = BTreeMap::new();
        let mut inv_nets: BTreeMap<usize, NetId> = BTreeMap::new();
        for v in 0..self.primary {
            let id = nl.add_input(format!("x{v}"));
            var_nets.insert(v, id);
        }
        let build_sop = |nl: &mut Netlist,
                         sop: &Sop,
                         var_nets: &BTreeMap<usize, NetId>,
                         inv_nets: &mut BTreeMap<usize, NetId>|
         -> NetId {
            if sop.cubes.is_empty() {
                return nl.add_const(false);
            }
            let mut terms = Vec::new();
            for c in &sop.cubes {
                let mut literals = Vec::new();
                for v in 0..64 {
                    if c.pos >> v & 1 == 1 {
                        literals.push(var_nets[&v]);
                    }
                    if c.neg >> v & 1 == 1 {
                        let inv = *inv_nets.entry(v).or_insert_with(|| {
                            let base = var_nets[&v];
                            nl.add_gate(GateKind::Not, &[base])
                        });
                        literals.push(inv);
                    }
                }
                let term = match literals.len() {
                    0 => nl.add_const(true),
                    1 => literals[0],
                    _ => nl.add_gate(GateKind::And, &literals),
                };
                terms.push(term);
            }
            if terms.len() == 1 {
                terms[0]
            } else {
                nl.add_gate(GateKind::Or, &terms)
            }
        };
        for (var, sop) in &self.intermediates {
            let id = build_sop(&mut nl, sop, &var_nets.clone(), &mut inv_nets);
            var_nets.insert(*var, id);
        }
        for (o, sop) in self.outputs.iter().enumerate() {
            let id = build_sop(&mut nl, sop, &var_nets.clone(), &mut inv_nets);
            nl.mark_output(id, format!("f{o}"));
        }
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: usize) -> Cube {
        Cube::literal(v, true)
    }

    fn cube(vars: &[usize]) -> Cube {
        vars.iter()
            .fold(Cube::ONE, |acc, &v| acc.and(var(v)).expect("no clash"))
    }

    #[test]
    fn cube_algebra() {
        let ab = cube(&[0, 1]);
        let a = var(0);
        assert!(ab.contains(a));
        assert!(!a.contains(ab));
        assert_eq!(ab.without(a), var(1));
        assert_eq!(ab.literal_count(), 2);
        // a and !a clash.
        assert_eq!(var(0).and(Cube::literal(0, false)), None);
    }

    #[test]
    fn textbook_factoring_example() {
        // The survey's own example: ac + ad + bc + bd = (a+b)(c+d).
        let f = Sop::new(vec![
            cube(&[0, 2]),
            cube(&[0, 3]),
            cube(&[1, 2]),
            cube(&[1, 3]),
        ]);
        assert_eq!(f.literal_count(), 8);
        let kernels = f.kernels();
        // (a+b) and (c+d) must both be kernels.
        let a_or_b = Sop::new(vec![var(0), var(1)]);
        let c_or_d = Sop::new(vec![var(2), var(3)]);
        assert!(kernels.contains(&a_or_b), "{kernels:?}");
        assert!(kernels.contains(&c_or_d));
        // Division works.
        let (q, r) = f.divide(&c_or_d);
        assert_eq!(q, a_or_b);
        assert!(r.cubes.is_empty());
    }

    #[test]
    fn extraction_reduces_literals() {
        let f = Sop::new(vec![
            cube(&[0, 2]),
            cube(&[0, 3]),
            cube(&[1, 2]),
            cube(&[1, 3]),
        ]);
        let g = Sop::new(vec![cube(&[4, 2]), cube(&[4, 3])]); // e·c + e·d
        let mut network = SopNetwork::new(5, vec![0.5; 5], vec![f, g]);
        let before = network.literal_count();
        let introduced = network.extract_kernels(&CostFn::Literals);
        assert!(introduced >= 1);
        assert!(
            network.literal_count() < before,
            "{} -> {}",
            before,
            network.literal_count()
        );
        // Function preserved.
        let check = |network: &SopNetwork| {
            for assignment in 0u64..32 {
                let direct_f = (assignment & 1 != 0 || assignment & 2 != 0)
                    && (assignment & 4 != 0 || assignment & 8 != 0);
                let direct_g =
                    (assignment & 16 != 0) && (assignment & 4 != 0 || assignment & 8 != 0);
                assert_eq!(
                    network.eval_output(0, assignment),
                    direct_f,
                    "{assignment:b}"
                );
                assert_eq!(
                    network.eval_output(1, assignment),
                    direct_g,
                    "{assignment:b}"
                );
            }
        };
        check(&network);
    }

    #[test]
    fn activity_cost_prefers_quiet_signals() {
        // Two candidate kernels with the same literal savings, one over
        // quiet variables (p near 1) and one over hot variables (p = 0.5).
        // The activity cost must choose the quiet one first.
        let hot = Sop::new(vec![
            cube(&[0, 2]),
            cube(&[0, 3]),
            cube(&[1, 2]),
            cube(&[1, 3]),
        ]);
        let quiet = Sop::new(vec![
            cube(&[4, 6]),
            cube(&[4, 7]),
            cube(&[5, 6]),
            cube(&[5, 7]),
        ]);
        let probs = vec![0.5, 0.5, 0.5, 0.5, 0.95, 0.95, 0.95, 0.95];
        let network = SopNetwork::new(8, probs.clone(), vec![hot.clone(), quiet.clone()]);
        let lit_cost = network.cost(&CostFn::Literals);
        let act_cost = network.cost(&CostFn::Activity);
        assert!(act_cost < lit_cost, "activity weights < 1 for all p");
        // Activity cost of the hot half exceeds the quiet half.
        let hot_only = SopNetwork::new(8, probs.clone(), vec![hot]);
        let quiet_only = SopNetwork::new(8, probs, vec![quiet]);
        assert!(hot_only.cost(&CostFn::Activity) > quiet_only.cost(&CostFn::Activity));
    }

    #[test]
    fn extraction_to_netlist_is_equivalent() {
        let f = Sop::new(vec![
            cube(&[0, 2]),
            cube(&[0, 3]),
            cube(&[1, 2]),
            cube(&[1, 3]),
        ]);
        let g = Sop::new(vec![cube(&[1, 2]), cube(&[1, 3]), cube(&[0])]);
        let mut network = SopNetwork::new(4, vec![0.5; 4], vec![f, g]);
        let flat = network.to_netlist("flat");
        network.extract_kernels(&CostFn::Literals);
        let factored = network.to_netlist("factored");
        assert!(sim::comb::equivalent_exhaustive(&flat, &factored));
    }

    #[test]
    fn division_with_remainder() {
        // f = ab + ac + d ; divide by (b+c): q = a, r = d.
        let f = Sop::new(vec![cube(&[0, 1]), cube(&[0, 2]), cube(&[3])]);
        let d = Sop::new(vec![var(1), var(2)]);
        let (q, r) = f.divide(&d);
        assert_eq!(q, Sop::new(vec![var(0)]));
        assert_eq!(r, Sop::new(vec![cube(&[3])]));
    }

    #[test]
    fn negative_literals_supported() {
        // f = a·!b + c·!b = (a+c)·!b
        let nb = Cube::literal(1, false);
        let f = Sop::new(vec![var(0).and(nb).unwrap(), var(2).and(nb).unwrap()]);
        let kernels = f.kernels();
        let a_or_c = Sop::new(vec![var(0), var(2)]);
        assert!(kernels.contains(&a_or_c), "{kernels:?}");
        let (q, r) = f.divide(&a_or_c);
        assert_eq!(q, Sop::new(vec![nb]));
        assert!(r.cubes.is_empty());
    }

    #[test]
    fn sop_eval_matches_semantics() {
        let f = Sop::new(vec![cube(&[0, 1]), Cube::literal(2, false)]);
        // f = ab + !c
        for assignment in 0u64..8 {
            let a = assignment & 1 != 0;
            let b = assignment & 2 != 0;
            let c = assignment & 4 != 0;
            assert_eq!(f.eval(assignment), (a && b) || !c);
        }
    }
}
