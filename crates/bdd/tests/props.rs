//! Property-based tests for the BDD manager: random expression trees must
//! agree with direct Boolean evaluation, and algebraic laws must hold
//! structurally (canonicity makes them checkable with `==`).

use bdd::{Bdd, Ref};
use proptest::prelude::*;

const NVARS: usize = 6;

/// A small expression AST we can both evaluate directly and translate to a
/// BDD.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &[bool]) -> bool {
        match self {
            Expr::Var(i) => env[*i as usize],
            Expr::Const(b) => *b,
            Expr::Not(e) => !e.eval(env),
            Expr::And(a, b) => a.eval(env) && b.eval(env),
            Expr::Or(a, b) => a.eval(env) || b.eval(env),
            Expr::Xor(a, b) => a.eval(env) ^ b.eval(env),
        }
    }

    fn build(&self, mgr: &mut Bdd) -> Ref {
        match self {
            Expr::Var(i) => mgr.var(*i),
            Expr::Const(b) => mgr.constant(*b),
            Expr::Not(e) => {
                let f = e.build(mgr);
                mgr.not(f)
            }
            Expr::And(a, b) => {
                let (fa, fb) = (a.build(mgr), b.build(mgr));
                mgr.and(fa, fb)
            }
            Expr::Or(a, b) => {
                let (fa, fb) = (a.build(mgr), b.build(mgr));
                mgr.or(fa, fb)
            }
            Expr::Xor(a, b) => {
                let (fa, fb) = (a.build(mgr), b.build(mgr));
                mgr.xor(fa, fb)
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS as u32).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #[test]
    fn bdd_matches_direct_evaluation(expr in arb_expr()) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        for bits in 0u32..(1 << NVARS) {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(f, &env), expr.eval(&env));
        }
    }

    #[test]
    fn canonical_equality_iff_equivalent(a in arb_expr(), b in arb_expr()) {
        let mut mgr = Bdd::new();
        let fa = a.build(&mut mgr);
        let fb = b.build(&mut mgr);
        let equivalent = (0u32..(1 << NVARS)).all(|bits| {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            a.eval(&env) == b.eval(&env)
        });
        prop_assert_eq!(fa == fb, equivalent);
    }

    #[test]
    fn de_morgan_structural(a in arb_expr(), b in arb_expr()) {
        let mut mgr = Bdd::new();
        let fa = a.build(&mut mgr);
        let fb = b.build(&mut mgr);
        let and = mgr.and(fa, fb);
        let lhs = mgr.not(and);
        let na = mgr.not(fa);
        let nb = mgr.not(fb);
        let rhs = mgr.or(na, nb);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn shannon_expansion(expr in arb_expr(), var in 0..NVARS as u32) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        let f0 = mgr.restrict(f, var, false);
        let f1 = mgr.restrict(f, var, true);
        let v = mgr.var(var);
        let rebuilt = mgr.ite(v, f1, f0);
        prop_assert_eq!(rebuilt, f);
    }

    #[test]
    fn quantifier_duality(expr in arb_expr(), var in 0..NVARS as u32) {
        // ∀x.f == !(∃x.!f)
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        let all = mgr.forall(f, var);
        let nf = mgr.not(f);
        let ex = mgr.exists(nf, var);
        let dual = mgr.not(ex);
        prop_assert_eq!(all, dual);
    }

    #[test]
    fn sat_count_matches_enumeration(expr in arb_expr()) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        let expected = (0u32..(1 << NVARS)).filter(|&bits| {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            expr.eval(&env)
        }).count() as f64;
        let got = mgr.sat_count(f, NVARS as u32);
        prop_assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }

    #[test]
    fn probability_uniform_is_density(expr in arb_expr()) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        let p = mgr.probability(f, &[0.5; NVARS]);
        let count = mgr.sat_count(f, NVARS as u32);
        prop_assert!((p - count / (1 << NVARS) as f64).abs() < 1e-9);
    }

    /// One memo shared across roots gives every root the value a fresh
    /// memo gives it, bit for bit, under non-dyadic biases.
    #[test]
    fn shared_memo_probabilities_match_per_root(
        exprs in proptest::collection::vec(arb_expr(), 1..6),
        weights in proptest::collection::vec(1u32..1000, NVARS..NVARS + 1),
    ) {
        let mut mgr = Bdd::new();
        let plain: Vec<Ref> = exprs.iter().map(|e| e.build(&mut mgr)).collect();
        // Complements read their plain node's memo entry.
        let complements = plain.iter().map(|&f| mgr.not(f));
        let roots: Vec<Ref> = plain.iter().copied().chain(complements).collect();
        let p: Vec<f64> = weights.iter().map(|&w| w as f64 / 1000.0).collect();
        let shared = mgr.probability_many(&roots, &p);
        prop_assert_eq!(shared.len(), roots.len());
        for (&f, got) in roots.iter().zip(&shared) {
            prop_assert_eq!(got.to_bits(), mgr.probability(f, &p).to_bits());
        }
    }

    #[test]
    fn compose_is_substitution(expr in arb_expr(), g in arb_expr(), var in 0..NVARS as u32) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        let fg = g.build(&mut mgr);
        let composed = mgr.compose(f, var, fg);
        for bits in 0u32..(1 << NVARS) {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            // f[var := g](env) == f(env with env[var] = g(env))
            let mut substituted = env.clone();
            substituted[var as usize] = g.eval(&env);
            prop_assert_eq!(mgr.eval(composed, &env), expr.eval(&substituted));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sifting_preserves_function_and_never_grows(expr in arb_expr()) {
        let mut mgr = Bdd::new();
        let f = expr.build(&mut mgr);
        mgr.protect(f);
        let before = mgr.size(f);
        mgr.reorder_now();
        prop_assert!(mgr.size(f) <= before);
        for bits in 0u32..(1 << NVARS) {
            let env: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(f, &env), expr.eval(&env));
        }
    }
}
