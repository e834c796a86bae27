//! Pins how many all-pairs shortest-path (Floyd–Warshall) runs a
//! [`HardwareContext`] costs: one at uncalibrated construction, none
//! when its cached artifacts are read or the context is cloned.
//!
//! This file holds a SINGLE test: `qgraph::shortest_path::apsp_invocations`
//! is a process-global counter, and sibling tests in the same binary run
//! concurrently and would race the deltas.

use std::sync::Arc;

use qgraph::shortest_path::apsp_invocations;
use qhw::{HardwareContext, Topology};

#[test]
fn construction_runs_apsp_once_and_clones_share_matrices() {
    let before = apsp_invocations();
    let ctx = HardwareContext::new(Topology::linear(5));
    let mid = apsp_invocations();
    assert_eq!(mid - before, 1, "uncalibrated construction is one run");
    // Consuming the cached artifacts must not trigger recomputation.
    let _ = ctx.distances().get(0, 4);
    let _ = ctx.profile().connectivity_strength(0);
    let _d2 = Arc::clone(ctx.distances());
    assert_eq!(apsp_invocations(), mid);

    let ctx = HardwareContext::new(Topology::grid(4, 4));
    let before = apsp_invocations();
    let clone = ctx.clone();
    assert_eq!(apsp_invocations(), before);
    assert!(Arc::ptr_eq(ctx.distances(), clone.distances()));
}
