//! Readers for the timings the program already records: the per-pass
//! `PassTrace` of every compile and the service's per-tenant
//! histograms. Nothing here adds tracing inside the program.

use std::collections::BTreeMap;

use qcompile::PassTrace;
use qserve::Service;

use crate::stats::Ledger;

/// The ledger layer a compile pass belongs to, by its `PassTrace` name.
pub fn pass_layer(name: &str) -> Option<&'static str> {
    match name {
        "naive" | "greedy-v" | "dense" | "qaim" => Some("qcompile.mapping"),
        "random-order" | "ip-pack" => Some("qcompile.ordering"),
        "route" | "incremental-hops" | "incremental-reliability" => Some("qcompile.routing"),
        "lower-to-basis" => Some("qcompile.lowering"),
        _ => None,
    }
}

/// Files every pass of one compile under its layer, and its SWAPs under
/// `qcompile.routing.swaps_total`.
pub fn record_passes(ledger: &mut Ledger, trace: &PassTrace) {
    for record in trace.records() {
        if let Some(layer) = pass_layer(record.name) {
            ledger.record(layer, record.elapsed);
        }
    }
    ledger.add("qcompile.routing.swaps_total", trace.swaps_added() as f64);
    ledger.add("qcompile.compiles", 1.0);
}

/// A log2-bucketed nanosecond distribution read from a qtrace manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
}

impl Hist {
    /// Observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// What `self` recorded beyond the earlier snapshot `before`.
    pub fn since(&self, before: &Hist) -> Hist {
        let buckets = self
            .buckets
            .iter()
            .map(|(&lo, &c)| {
                (
                    lo,
                    c.saturating_sub(before.buckets.get(&lo).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, c)| c > 0)
            .collect();
        Hist {
            buckets,
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
        }
    }

    /// Median in microseconds, interpolated linearly inside its log2
    /// bucket (0 when empty).
    pub fn p50_us(&self) -> f64 {
        let total: u64 = self.buckets.values().sum();
        if total == 0 {
            return 0.0;
        }
        let target = total as f64 / 2.0;
        let mut seen = 0u64;
        for (&lo, &c) in &self.buckets {
            if (seen + c) as f64 >= target {
                let width = lo.max(1) as f64;
                let frac = (target - seen as f64) / c as f64;
                return (lo as f64 + frac * width) / 1e3;
            }
            seen += c;
        }
        0.0
    }
}

/// The service's cumulative `queue_wait_ns` and `compile_ns`
/// histograms, summed over tenants. The service exports them through
/// `flush_telemetry` into the qtrace recorder, which is switched on
/// only for this drain.
pub fn service_histograms(service: &Service) -> (Hist, Hist) {
    let recorder = qtrace::global();
    let was_enabled = recorder.is_enabled();
    recorder.enable();
    service.flush_telemetry();
    let manifest = recorder.take_manifest("ledger");
    if !was_enabled {
        recorder.disable();
    }
    let mut queue_wait = Hist::default();
    let mut compile = Hist::default();
    for (name, hist) in &manifest.histograms {
        let target = if name.ends_with("/queue_wait_ns") {
            &mut queue_wait
        } else if name.ends_with("/compile_ns") {
            &mut compile
        } else {
            continue;
        };
        for (lo, c) in hist.buckets() {
            *target.buckets.entry(lo).or_insert(0) += c;
        }
        target.count += hist.count();
        target.sum += hist.sum();
    }
    (queue_wait, compile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pipeline_pass_has_a_layer() {
        for name in [
            "naive",
            "qaim",
            "random-order",
            "ip-pack",
            "route",
            "incremental-hops",
            "incremental-reliability",
            "lower-to-basis",
        ] {
            assert!(pass_layer(name).is_some(), "{name}");
        }
    }

    #[test]
    fn histogram_difference_and_median() {
        let snap = |pairs: &[(u64, u64)], sum| Hist {
            buckets: pairs.iter().copied().collect(),
            count: pairs.iter().map(|p| p.1).sum(),
            sum,
        };
        let before = snap(&[(1024, 2)], 2500);
        let after = snap(&[(1024, 4), (2048, 4)], 15_000);
        let delta = after.since(&before);
        assert_eq!(delta.count(), 6);
        assert_eq!(delta.sum_ns(), 12_500);
        // 6 samples: 2 in [1024, 2048), 4 in [2048, 4096); the median
        // sits a quarter into the upper bucket.
        assert!((delta.p50_us() - 2.56).abs() < 1e-9);
    }
}
