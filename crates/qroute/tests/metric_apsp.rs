//! Pins that a [`RoutingMetric`] built from a [`HardwareContext`] reuses
//! the context's cached distance matrices instead of rerunning
//! Floyd–Warshall.
//!
//! This file holds a SINGLE test: `qgraph::shortest_path::apsp_invocations`
//! is a process-global counter, and sibling tests in the same binary run
//! concurrently and would race the deltas.

use qgraph::shortest_path::apsp_invocations;
use qhw::{Calibration, HardwareContext};
use qroute::RoutingMetric;

#[test]
fn from_context_recomputes_nothing() {
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let ctx = HardwareContext::with_calibration(topo, cal);
    let before = apsp_invocations();
    let _hops = RoutingMetric::from_context(&ctx, false).unwrap();
    let _vic = RoutingMetric::from_context(&ctx, true).unwrap();
    assert_eq!(apsp_invocations(), before);
}
