//! A reduced ordered binary decision diagram (ROBDD) package.
//!
//! BDDs are the workhorse substrate for the logic-level techniques in the
//! DAC'95 survey: exact signal probabilities (power estimation), don't-care
//! sets (§III.A.1), observability conditions for guarded evaluation
//! (§III.C.4, \[44\]) and the universal quantification that derives
//! precomputation logic (§III.C.4, \[30\]).
//!
//! The manager is an arena with complement edges: a [`Ref`] carries a
//! negation bit, nodes are interned in an open-addressed unique table, and
//! ITE results land in a lossy direct-mapped cache. Nodes unreachable from
//! [`Bdd::protect`]ed roots can be reclaimed by a free-list mark-and-sweep
//! GC ([`Bdd::gc`]); managers with [`Bdd::set_auto_gc`] enabled collect
//! automatically under node-budget pressure, so budget errors report
//! *live* nodes. Short-lived managers can ignore all of this — GC is off
//! by default and nothing requires rooting then.
//!
//! # Example
//!
//! ```
//! use bdd::Bdd;
//!
//! let mut mgr = Bdd::new();
//! let a = mgr.var(0);
//! let b = mgr.var(1);
//! let f = mgr.and(a, b);
//! assert_eq!(mgr.eval(f, &[true, true]), true);
//! assert_eq!(mgr.eval(f, &[true, false]), false);
//! // P(a & b) with P(a)=0.5, P(b)=0.25:
//! let p = mgr.probability(f, &[0.5, 0.25]);
//! assert!((p - 0.125).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

mod manager;
pub mod store;

pub use budget::{BudgetExceeded, Resource, ResourceBudget};
pub use manager::{Bdd, BddStats, OpCounts, Ref, ReorderSchedule};
