#!/bin/sh
# Gate against new panic paths in the substrate and optimization crates.
#
# The robustness contract is that crates/netlist, crates/sim,
# crates/power and the passes in crates/logicopt and crates/circuit fail
# with typed errors, not panics. This script counts
# `.unwrap()` / `.expect(` occurrences in their non-test code (everything
# above the first `#[cfg(test)]` in each file) and fails if any crate
# exceeds its frozen baseline. Baselines are the audited survivors —
# each a documented invariant (e.g. "unlimited budget cannot trip") —
# so the only way the count goes up is a review that raises the number
# here, on purpose.
set -eu

cd "$(dirname "$0")/.."

fail=0
check() {
    crate=$1
    unwrap_base=$2
    expect_base=$3
    stripped=$(find "crates/$crate/src" -name '*.rs' -print | sort | while read -r f; do
        awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"
    done)
    unwraps=$(printf '%s\n' "$stripped" | grep -c '\.unwrap()' || true)
    expects=$(printf '%s\n' "$stripped" | grep -c '\.expect(' || true)
    echo "crates/$crate: ${unwraps} unwrap (baseline ${unwrap_base}), ${expects} expect (baseline ${expect_base})"
    if [ "$unwraps" -gt "$unwrap_base" ] || [ "$expects" -gt "$expect_base" ]; then
        echo "ERROR: crates/$crate grew new unwrap/expect in non-test code." >&2
        echo "       Return a typed error instead, or raise the baseline in ci/check_unwrap.sh" >&2
        echo "       with a justification in the review." >&2
        fail=1
    fi
}

check netlist 0 8
# sim's 8: acyclicity, fanout-edge and shard invariants. The incremental
# engines build each undo frame as a local, so their bookkeeping needs
# no guard.
check sim 0 8
check power 0 3
# logicopt's 4 unwraps are doc examples in twolevel.rs; its 16 expects
# are acyclicity/topo-order and mapping-cover invariants plus two
# unlimited-budget BDD builds in dontcare.rs.
check logicopt 4 16
# circuit's 4: acyclicity and finite arrival/slack/probability orderings.
check circuit 0 4

exit "$fail"
