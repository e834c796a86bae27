//! Sample collection: durations, quantiles and the per-layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Hist;

/// A bag of nanosecond observations with nearest-rank quantiles, cut
/// into chunks of like work (see [`Samples::cut`]).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    /// Ends of the chunks closed so far (indices into `ns`).
    cuts: Vec<usize>,
}

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observation in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Records one duration into the open chunk, and closes the chunk
    /// once it holds `size` observations.
    pub fn push_chunked(&mut self, d: Duration, size: usize) {
        self.push(d);
        let start = self.cuts.last().copied().unwrap_or(0);
        if self.ns.len() >= start + size {
            self.cut();
        }
    }

    /// Closes the current chunk: the observations since the last cut are
    /// one unit of like work (one instance, one burst, one round). A
    /// chunk of fewer than [`CHUNK_MIN`] observations stays open and
    /// joins the next one.
    pub fn cut(&mut self) {
        let start = self.cuts.last().copied().unwrap_or(0);
        if self.ns.len() >= start + CHUNK_MIN {
            self.cuts.push(self.ns.len());
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Sum of all observations, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
    }

    /// Nearest-rank quantile `q` in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_ns(&self.ns, q) / 1e3
    }

    /// Quantile `q` in microseconds, read over the faster chunks: the
    /// nearest-rank `q` quantile of each chunk, then [`fast_low`] of
    /// those. The open chunk after the last cut counts when it holds at
    /// least [`CHUNK_MIN`] observations or is the only one.
    pub fn robust_us(&self, q: f64) -> f64 {
        let mut start = 0;
        let mut per_chunk = Vec::with_capacity(self.cuts.len() + 1);
        for &end in &self.cuts {
            per_chunk.push(quantile_ns(&self.ns[start..end], q) / 1e3);
            start = end;
        }
        let rest = &self.ns[start..];
        if rest.len() >= CHUNK_MIN || (per_chunk.is_empty() && !rest.is_empty()) {
            per_chunk.push(quantile_ns(rest, q) / 1e3);
        }
        fast_low(&per_chunk)
    }
}

/// Nearest-rank quantile `q` of `ns` (0 for none).
fn quantile_ns(ns: &[u64], q: f64) -> f64 {
    quantile(&ns.iter().map(|&v| v as f64).collect::<Vec<_>>(), q)
}

/// Nearest-rank quantile `q` of `values` (0 for none).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Fewest observations in one chunk of [`Samples::robust_us`].
pub const CHUNK_MIN: usize = 8;

/// Share of chunks, at the fast end, that [`fast_low`] and [`fast_high`]
/// drop as one chunk's luck.
pub const FAST_SKIP: f64 = 0.05;

/// The mean of the faster half of `values`, each a time per chunk, less
/// the fastest [`FAST_SKIP`] (0 for none).
///
/// The shared host the benchmark runs on runs the same work at up to
/// twice the speed in some stretches as in others, switching every tenth
/// of a second to a few seconds, and the mix of stretches changes from
/// run to run. A mean or a median over all chunks follows the mix; a
/// single rank near the fast end reads well while fast stretches are
/// common and jumps when they are rare. The mean of the faster half
/// moves little with either.
pub fn fast_low(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    fast_half(&sorted)
}

/// The mean of the faster half of `values`, each a rate per chunk, less
/// the fastest [`FAST_SKIP`] (0 for none); see [`fast_low`].
pub fn fast_high(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    fast_half(&sorted)
}

/// Mean of `sorted` (fastest first) from rank [`FAST_SKIP`] to the
/// middle.
fn fast_half(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let skip = (FAST_SKIP * n as f64) as usize;
    let end = n.div_ceil(2).max(skip + 1).min(n);
    mean(&sorted[skip..end])
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Per-layer accounting of one workload run: span samples keyed by
/// layer name plus named counts. Spans are recorded only when the run is
/// traced, so the untraced run pays one branch per call site.
#[derive(Debug, Default)]
pub struct Ledger {
    traced: bool,
    spans: BTreeMap<&'static str, Samples>,
    histograms: BTreeMap<&'static str, Hist>,
    counts: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// An empty ledger; `traced` switches span recording on.
    pub fn new(traced: bool) -> Ledger {
        Ledger {
            traced,
            ..Ledger::default()
        }
    }

    /// Whether spans are recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f`, recording its duration under `layer` when traced.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let (out, elapsed) = timed(f);
        self.record(layer, elapsed);
        out
    }

    /// Records a duration measured elsewhere (only when traced).
    pub fn record(&mut self, layer: &'static str, elapsed: Duration) {
        if self.traced {
            self.spans.entry(layer).or_default().push(elapsed);
        }
    }

    /// Adds `delta` to the count `name`.
    pub fn add(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    /// Sets the count `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// The samples recorded under `layer`.
    pub fn spans(&self, layer: &str) -> Option<&Samples> {
        self.spans.get(layer)
    }

    /// Files a layer the program measured itself, as a histogram.
    pub fn set_histogram(&mut self, layer: &'static str, hist: Hist) {
        self.histograms.insert(layer, hist);
    }

    /// The histogram filed under `layer`.
    pub fn histogram(&self, layer: &str) -> Option<&Hist> {
        self.histograms.get(layer)
    }

    /// The count `name` (0 when never set).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push_ns(v * 1000);
        }
        assert_eq!(s.quantile_us(0.5), 50.0);
        assert_eq!(s.quantile_us(0.99), 99.0);
        assert_eq!(s.quantile_us(1.0), 100.0);
        assert_eq!(Samples::default().quantile_us(0.5), 0.0);
    }

    #[test]
    fn robust_quantile_reads_the_fast_chunks() {
        let mut s = Samples::default();
        for chunk in 0..40u64 {
            // Two host states (1 us in three fifths of the chunks, 2 us
            // in the rest) and a stall in one slow chunk.
            let base = if chunk % 5 < 3 { 1000 } else { 2000 };
            for i in 0..50u64 {
                s.push_ns(if chunk == 8 && i < 30 {
                    9_000_000
                } else {
                    base
                });
            }
            s.cut();
        }
        assert!(s.quantile_us(0.99) > 1000.0);
        // Ranks 3 to 20 of 40 chunks from the fast end: fast chunks.
        assert_eq!(s.robust_us(0.5), 1.0);
        assert_eq!(s.robust_us(0.99), 1.0);
        let mut few = Samples::default();
        few.push_ns(5000);
        assert_eq!(few.robust_us(0.99), 5.0);
        assert_eq!(Samples::default().robust_us(0.5), 0.0);
    }

    #[test]
    fn short_chunks_join_the_next() {
        let mut s = Samples::default();
        for _ in 0..CHUNK_MIN - 1 {
            s.push_ns(1000);
        }
        s.cut();
        for _ in 0..CHUNK_MIN {
            s.push_ns(3000);
        }
        s.cut();
        // One chunk of both: its median is a 3 us observation.
        assert_eq!(s.robust_us(0.5), 3.0);
        // An open tail shorter than CHUNK_MIN does not count.
        s.push_ns(1);
        assert_eq!(s.robust_us(0.0), 1.0);
        assert_eq!(s.robust_us(0.5), 3.0);
    }

    #[test]
    fn fast_ranks_from_either_end() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // Ranks 3 to 20 from either end.
        assert_eq!(fast_low(&v), 11.5);
        assert_eq!(fast_high(&v), 29.5);
        assert_eq!(fast_low(&[1.0, 2.0, 3.0]), 1.5);
        assert_eq!(fast_low(&[7.0]), 7.0);
        assert_eq!(fast_high(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn untraced_ledger_records_no_spans() {
        let mut ledger = Ledger::new(false);
        assert_eq!(ledger.span("x", || 7), 7);
        ledger.record("x", Duration::from_micros(3));
        assert!(ledger.spans("x").is_none());
        let mut ledger = Ledger::new(true);
        ledger.span("x", || ());
        assert_eq!(ledger.spans("x").map(Samples::len), Some(1));
    }
}
