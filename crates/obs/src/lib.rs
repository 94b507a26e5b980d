//! Lightweight observability for the estimation stack.
//!
//! The survey's quantitative claims (switching power dominating total
//! power, glitches 10–40% of switching activity) are only credible if a
//! run can show *where* estimator time and activity went. This crate is
//! the substrate every other crate reports into:
//!
//! * **Spans** — hierarchical wall-clock timings read from an injectable
//!   [`clock::Clock`], so tests and golden files can pin every duration
//!   to zero with a [`clock::ManualClock`].
//! * **Counters** — named monotonic `u64` totals (atomic adds, flushed
//!   once per run by the hot loops, never per-event). Counter totals are
//!   defined to be **thread-count invariant**: the same work produces the
//!   same counts whether it ran on 1 shard or 16.
//! * **Gauges** — named `f64` last-value/max samples for quantities that
//!   legitimately depend on the environment (shard counts, utilization,
//!   peak table sizes). Golden tests normalize these away; counters they
//!   compare exactly.
//! * **Sinks** — render a [`Snapshot`] as a human-readable tree, a JSONL
//!   trace, or an aggregate `metrics.json`.
//!
//! The whole crate follows one overhead rule, mirroring the budget crate's
//! amortization contract: a **disabled** handle ([`Obs::disabled`]) costs
//! one pointer-null check per call and allocates nothing, so instrumented
//! hot paths stay on the `bench_robust` <2% overhead budget; an **enabled**
//! handle is only ever touched at run boundaries (shard merge, tier
//! attempt, pass entry/exit), never inside per-event loops.
//!
//! ```
//! use obs::Obs;
//!
//! let obs = Obs::enabled();
//! {
//!     let _span = obs.span("estimate");
//!     obs.add("bdd.cache_hits", 3);
//!     obs.add("bdd.cache_lookups", 5);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("bdd.cache_hits"), Some(3));
//! assert_eq!(snap.spans.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod json;
mod metrics;
pub mod sink;

pub use metrics::{Counter, Gauge, Obs, Snapshot, SpanGuard, SpanRecord};
