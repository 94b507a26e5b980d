//! Resource budgets for the estimation stack.
//!
//! Exact BDD-based probability estimation blows up exponentially on wide
//! reconvergent cones, event-driven simulation of a glitchy circuit can
//! schedule orders of magnitude more events than cycles, and a synthesis
//! loop calling either cannot afford to find that out the hard way. Every
//! estimator in this workspace therefore accepts a [`ResourceBudget`] and
//! returns a typed [`BudgetExceeded`] instead of growing without bound —
//! the degradation chain in `power::chain` catches that error and falls
//! back to a cheaper tier.
//!
//! This crate sits at the bottom of the dependency graph (no dependencies)
//! so that `bdd`, `sim` and `power` can all accept the same budget type;
//! the facade crate re-exports it as `lowpower::budget`.
//!
//! Budget checks are designed for hot loops: every limit is pre-resolvable
//! to a plain integer compare (see [`ResourceBudget::max_sim_steps_or`]),
//! and wall-clock checks are expected to be amortized by the caller (check
//! every few thousand events, not every event).

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// The resource classes a budget can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Interned nodes in a BDD manager.
    BddNodes,
    /// Simulation work: net evaluations (cycle-based engines) or events
    /// processed (event-driven engine).
    SimSteps,
    /// Wall-clock deadline.
    WallClock,
}

impl Resource {
    /// Short human-readable name, used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Resource::BddNodes => "BDD nodes",
            Resource::SimSteps => "simulation steps",
            Resource::WallClock => "wall-clock deadline",
        }
    }

    /// Stable kebab-case identifier, used as a metric-name suffix
    /// (e.g. `chain.abandoned.wall-clock`).
    pub fn slug(self) -> &'static str {
        match self {
            Resource::BddNodes => "bdd-nodes",
            Resource::SimSteps => "sim-steps",
            Resource::WallClock => "wall-clock",
        }
    }
}

/// Typed budget-exhaustion error: which resource ran out, the configured
/// limit, and how much was in use when the guard tripped.
///
/// For [`Resource::WallClock`], `limit` and `used` are milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The exhausted resource.
    pub resource: Resource,
    /// The configured limit.
    pub limit: u64,
    /// Usage observed at the check (≥ `limit`).
    pub used: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = if self.resource == Resource::WallClock {
            " ms"
        } else {
            ""
        };
        write!(
            f,
            "budget exceeded: {} at {}{unit} (limit {}{unit})",
            self.resource.name(),
            self.used,
            self.limit
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A wall-clock deadline (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
    total_ms: u64,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_millis(ms: u64) -> Deadline {
        Deadline {
            at: Instant::now() + Duration::from_millis(ms),
            total_ms: ms,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Milliseconds until expiry (0 if already expired).
    pub fn remaining_millis(&self) -> u64 {
        self.at
            .saturating_duration_since(Instant::now())
            .as_millis() as u64
    }

    /// The total span this deadline was created with, in milliseconds.
    pub fn total_millis(&self) -> u64 {
        self.total_ms
    }

    fn exceeded(&self) -> BudgetExceeded {
        // Report the actual overrun, not a fabricated `limit + 1`: the
        // degradation chain records this error verbatim, and "how late
        // were we" distinguishes a near-miss from a blowup. Clamp to at
        // least limit + 1 so `used > limit` always holds.
        let over_ms = Instant::now()
            .saturating_duration_since(self.at)
            .as_millis() as u64;
        BudgetExceeded {
            resource: Resource::WallClock,
            limit: self.total_ms,
            used: self.total_ms + over_ms.max(1),
        }
    }
}

/// Resource limits for one estimation call. `None` means unlimited.
///
/// ```
/// use budget::{Resource, ResourceBudget};
///
/// let b = ResourceBudget::unlimited()
///     .with_max_bdd_nodes(10_000)
///     .with_max_sim_steps(1 << 20);
/// assert!(b.check_bdd_nodes(9_999).is_ok());
/// let err = b.check_bdd_nodes(10_000).unwrap_err();
/// assert_eq!(err.resource, Resource::BddNodes);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    /// Maximum interned nodes a BDD manager may hold.
    pub max_bdd_nodes: Option<u64>,
    /// Maximum simulation steps (net evaluations or events processed).
    pub max_sim_steps: Option<u64>,
    /// Wall-clock deadline for the whole call.
    pub deadline: Option<Deadline>,
}

impl ResourceBudget {
    /// No limits at all (every check passes).
    pub const fn unlimited() -> ResourceBudget {
        ResourceBudget {
            max_bdd_nodes: None,
            max_sim_steps: None,
            deadline: None,
        }
    }

    /// Bound the BDD manager's node count.
    pub fn with_max_bdd_nodes(mut self, n: u64) -> ResourceBudget {
        self.max_bdd_nodes = Some(n);
        self
    }

    /// Bound the total simulation work.
    pub fn with_max_sim_steps(mut self, n: u64) -> ResourceBudget {
        self.max_sim_steps = Some(n);
        self
    }

    /// Set a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> ResourceBudget {
        self.deadline = Some(Deadline::after_millis(ms));
        self
    }

    /// Whether no limit is configured at all.
    pub fn is_unlimited(&self) -> bool {
        self.max_bdd_nodes.is_none() && self.max_sim_steps.is_none() && self.deadline.is_none()
    }

    /// The step limit as a plain integer (`u64::MAX` when unlimited), so
    /// hot loops compare against a register instead of matching an
    /// `Option` per iteration.
    pub fn max_sim_steps_or(&self, default: u64) -> u64 {
        self.max_sim_steps.unwrap_or(default)
    }

    /// The BDD node limit as a plain integer (`u64::MAX` when unlimited),
    /// so the ITE recursion compares against a register per cache miss.
    pub fn max_bdd_nodes_or(&self, default: u64) -> u64 {
        self.max_bdd_nodes.unwrap_or(default)
    }

    fn check(limit: Option<u64>, used: u64, resource: Resource) -> Result<(), BudgetExceeded> {
        match limit {
            Some(max) if used >= max => Err(BudgetExceeded {
                resource,
                limit: max,
                used,
            }),
            _ => Ok(()),
        }
    }

    /// Fail if `used` BDD nodes reaches the node limit.
    pub fn check_bdd_nodes(&self, used: usize) -> Result<(), BudgetExceeded> {
        Self::check(self.max_bdd_nodes, used as u64, Resource::BddNodes)
    }

    /// Fail if `used` steps of simulation work reaches the step limit.
    pub fn check_sim_steps(&self, used: u64) -> Result<(), BudgetExceeded> {
        Self::check(self.max_sim_steps, used, Resource::SimSteps)
    }

    /// Fail if the wall-clock deadline has passed. Costs one monotonic
    /// clock read — amortize in hot loops.
    pub fn check_deadline(&self) -> Result<(), BudgetExceeded> {
        match &self.deadline {
            Some(d) if d.expired() => Err(d.exceeded()),
            _ => Ok(()),
        }
    }

    /// `BudgetExceeded` for a step overrun detected by a caller that
    /// pre-resolved the limit via [`ResourceBudget::max_sim_steps_or`].
    pub fn sim_steps_exceeded(&self, used: u64) -> BudgetExceeded {
        BudgetExceeded {
            resource: Resource::SimSteps,
            limit: self.max_sim_steps.unwrap_or(u64::MAX),
            used,
        }
    }

    /// `BudgetExceeded` for a node overrun detected by a caller that
    /// pre-resolved the limit via [`ResourceBudget::max_bdd_nodes_or`].
    /// `used` is the *live* node count observed at the check.
    pub fn bdd_nodes_exceeded(&self, used: u64) -> BudgetExceeded {
        BudgetExceeded {
            resource: Resource::BddNodes,
            limit: self.max_bdd_nodes.unwrap_or(u64::MAX),
            used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_passes_everything() {
        let b = ResourceBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check_bdd_nodes(usize::MAX).is_ok());
        assert!(b.check_sim_steps(u64::MAX).is_ok());
        assert!(b.check_deadline().is_ok());
        assert_eq!(b.max_sim_steps_or(u64::MAX), u64::MAX);
    }

    #[test]
    fn limits_trip_at_the_boundary() {
        let b = ResourceBudget::unlimited()
            .with_max_bdd_nodes(100)
            .with_max_sim_steps(1000);
        assert!(b.check_bdd_nodes(99).is_ok());
        assert!(b.check_bdd_nodes(100).is_err());
        assert!(b.check_sim_steps(999).is_ok());
        let err = b.check_sim_steps(1000).unwrap_err();
        assert_eq!(err.resource, Resource::SimSteps);
        assert_eq!(err.limit, 1000);
        assert_eq!(err.used, 1000);
    }

    #[test]
    fn deadline_expires() {
        let b = ResourceBudget::unlimited().with_deadline_ms(0);
        // A zero-millisecond deadline is already in the past.
        std::thread::sleep(Duration::from_millis(2));
        let err = b.check_deadline().unwrap_err();
        assert_eq!(err.resource, Resource::WallClock);
        let generous = ResourceBudget::unlimited().with_deadline_ms(60_000);
        assert!(generous.check_deadline().is_ok());
        assert!(generous.deadline.unwrap().remaining_millis() > 50_000);
    }

    #[test]
    fn deadline_reports_actual_overrun() {
        let b = ResourceBudget::unlimited().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(5));
        let err = b.check_deadline().unwrap_err();
        assert!(err.used > err.limit);
        // `used` must reflect real elapsed time past the deadline, not a
        // fabricated limit + 1.
        assert!(
            err.used >= 5,
            "used={} should track actual lateness",
            err.used
        );
    }

    #[test]
    fn resource_slugs_are_stable() {
        for r in [Resource::BddNodes, Resource::SimSteps, Resource::WallClock] {
            let slug = r.slug();
            assert!(!slug.is_empty());
            assert!(
                slug.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{slug}"
            );
        }
        assert_eq!(Resource::WallClock.slug(), "wall-clock");
    }

    #[test]
    fn display_is_informative() {
        let err = ResourceBudget::unlimited()
            .with_max_bdd_nodes(5)
            .check_bdd_nodes(7)
            .unwrap_err();
        let s = err.to_string();
        assert!(s.contains("BDD nodes"), "{s}");
        assert!(s.contains('5'), "{s}");
        assert!(s.contains('7'), "{s}");
    }
}
