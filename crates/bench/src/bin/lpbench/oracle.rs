//! Independent output oracles. Everything here evaluates netlists one
//! pattern at a time through `GateKind::eval`, the semantic source of truth,
//! and calls none of the simulators, BDD code or `_reference` drivers it
//! checks, so those can change or go away without weakening the checks.

use lowpower::netlist::{GateKind, Netlist, Rng64};

/// Most free variables an exhaustive check enumerates.
pub const EXHAUSTIVE_VARS: usize = 18;

/// Random vectors an equivalence check uses above 16 inputs.
const RANDOM_VECTORS: usize = 1024;

/// A netlist prepared for repeated single-pattern evaluation. Primary
/// inputs, then flip-flop outputs, are the free variables.
pub struct Evaluator<'a> {
    nl: &'a Netlist,
    order: Vec<usize>,
    vars: Vec<usize>,
    values: Vec<bool>,
    scratch: Vec<bool>,
}

impl<'a> Evaluator<'a> {
    pub fn new(nl: &'a Netlist) -> Result<Evaluator<'a>, String> {
        let order = nl
            .topo_order()
            .map_err(|e| format!("oracle: {e}"))?
            .into_iter()
            .filter(|&n| !matches!(nl.kind(n), GateKind::Input | GateKind::Dff))
            .map(|n| n.index())
            .collect();
        let vars = nl
            .inputs()
            .iter()
            .chain(nl.dffs())
            .map(|n| n.index())
            .collect();
        Ok(Evaluator {
            nl,
            order,
            vars,
            values: vec![false; nl.len()],
            scratch: Vec::new(),
        })
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Settle every net with variable `v` set to `assign(v)`.
    pub fn eval(&mut self, assign: impl Fn(usize) -> bool) -> &[bool] {
        for (v, &net) in self.vars.iter().enumerate() {
            self.values[net] = assign(v);
        }
        for &net in &self.order {
            let id = lowpower::netlist::NetId::from_index(net);
            self.scratch.clear();
            self.scratch
                .extend(self.nl.fanins(id).iter().map(|f| self.values[f.index()]));
            self.values[net] = self.nl.kind(id).eval(&self.scratch);
        }
        &self.values
    }

    fn outputs(&self) -> Vec<bool> {
        self.nl
            .outputs()
            .iter()
            .map(|(n, _)| self.values[n.index()])
            .collect()
    }
}

/// Zero-delay toggle and one counts per net over a pattern stream (a
/// toggle is a change between consecutive settled patterns).
pub fn functional_counts(
    nl: &Netlist,
    patterns: &[Vec<bool>],
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let mut ev = Evaluator::new(nl)?;
    let mut toggles = vec![0u64; nl.len()];
    let mut ones = vec![0u64; nl.len()];
    let mut prev: Vec<bool> = Vec::new();
    for p in patterns {
        let values = ev.eval(|v| p[v]);
        for (i, &b) in values.iter().enumerate() {
            ones[i] += b as u64;
            toggles[i] += (!prev.is_empty() && prev[i] != b) as u64;
        }
        prev.clear();
        prev.extend_from_slice(values);
    }
    Ok((toggles, ones))
}

/// Exact one-probability of every net under uniform independent
/// variables, by enumerating all assignments; `None` above
/// [`EXHAUSTIVE_VARS`] variables.
pub fn exhaustive_probabilities(nl: &Netlist) -> Result<Option<Vec<f64>>, String> {
    let mut ev = Evaluator::new(nl)?;
    let vars = ev.num_vars();
    if vars > EXHAUSTIVE_VARS {
        return Ok(None);
    }
    let mut ones = vec![0u64; nl.len()];
    for a in 0u64..1 << vars {
        for (i, &b) in ev.eval(|v| a >> v & 1 == 1).iter().enumerate() {
            ones[i] += b as u64;
        }
    }
    let total = (1u64 << vars) as f64;
    Ok(Some(ones.into_iter().map(|o| o as f64 / total).collect()))
}

/// Check that two combinational netlists compute the same outputs, in
/// output order: exhaustively up to 16 inputs, else on 1024 vectors.
pub fn equivalent(a: &Netlist, b: &Netlist, seed: u64) -> Result<(), String> {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(format!(
            "interface changed: {}/{} inputs, {}/{} outputs",
            a.num_inputs(),
            b.num_inputs(),
            a.num_outputs(),
            b.num_outputs()
        ));
    }
    let n = a.num_inputs();
    let vectors: Vec<u64> = if n <= 16 {
        (0..1u64 << n).collect()
    } else {
        let mut rng = Rng64::new(seed);
        (0..RANDOM_VECTORS).map(|_| rng.next_u64()).collect()
    };
    let mut ea = Evaluator::new(a)?;
    let mut eb = Evaluator::new(b)?;
    for x in vectors {
        // Above 64 inputs the high inputs reuse low bits; the vectors stay
        // deterministic, which is all the check needs.
        let bit = |v: usize| x >> (v % 64) & 1 == 1;
        ea.eval(bit);
        eb.eval(bit);
        if ea.outputs() != eb.outputs() {
            return Err(format!("outputs differ on input vector {x:#x}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowpower::netlist::gen;

    #[test]
    fn exhaustive_probability_of_parity_is_one_half() {
        let nl = gen::parity_tree(5);
        let p = exhaustive_probabilities(&nl).unwrap().unwrap();
        let (out, _) = &nl.outputs()[0];
        assert_eq!(p[out.index()], 0.5);
    }

    #[test]
    fn equivalence_catches_a_changed_gate() {
        let (nl, _) = gen::ripple_adder(3);
        assert!(equivalent(&nl, &nl.clone(), 1).is_ok());
        let mut broken = nl.clone();
        let victim = broken
            .iter_nets()
            .find(|&n| broken.kind(n) == GateKind::Xor)
            .unwrap();
        broken.set_kind(victim, GateKind::Xnor);
        assert!(equivalent(&nl, &broken, 1).is_err());
    }
}
