//! Workspace-level parallelism helpers.
//!
//! Re-exports the fork-join primitives of [`sim::par`] (one scoped
//! fork-join per call) that the experiment binaries use to spread
//! independent circuits (or whole exhibits) across cores, plus the
//! `LPOPT_JOBS` lookup. Everything here preserves the determinism
//! contract: results come back in item order, so a parallel experiment
//! renders its report rows in exactly the serial order.

pub use sim::par::{num_threads, par_map, shard_ranges};

/// Job count requested via the `LPOPT_JOBS` environment variable:
/// unset/unparsable means `0` (all available cores).
pub fn jobs_from_env() -> usize {
    std::env::var("LPOPT_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_from_env_defaults_to_all_cores() {
        // Not set in the test environment (or set to a number): both parse.
        let jobs = jobs_from_env();
        assert!(num_threads(jobs) >= 1);
    }
}
