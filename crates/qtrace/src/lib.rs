//! Zero-dependency run telemetry for the QAOA compilation stack.
//!
//! The crate provides five primitives, all recorded into a thread-safe
//! [`Recorder`]:
//!
//! * **Spans** — scoped wall-clock timers with parent/child nesting.
//!   Nesting is encoded in the span *path* (`"qcompile/compile/route"`);
//!   a child created with [`Span::child`] extends its parent's path.
//!   Stats aggregate per path: call count, total, min, max and exact
//!   p50/p90/p99 nanoseconds (from a bounded per-path reservoir).
//! * **Counters** — monotonically increasing `u64` sums (SWAPs inserted,
//!   kernel dispatches, routed layers).
//! * **Gauges** — high-water marks (`max` of every observation): peak
//!   live amplitudes, worker threads used.
//! * **Histograms** — log2-bucketed distributions of `u64` observations
//!   (fused-run lengths, per-layer SWAP counts).
//! * **Events** — opt-in timestamped span begin/end and instant markers
//!   captured into bounded per-thread-shard rings (see [`event`]), the
//!   raw material for Chrome-Trace/Perfetto timelines ([`export`]).
//!
//! Draining a recorder yields a [`Manifest`] — a canonical,
//! deterministically ordered JSON document (see [`manifest`]) that the
//! `bench` crate writes next to figure tables (`--manifest <path>`) and
//! that the `regress` binary diffs against committed baselines in CI.
//!
//! # The global recorder
//!
//! Deep call sites (simulator kernels, the router's layer loop) cannot
//! thread a `&Recorder` through their signatures without polluting every
//! public API, so the crate exposes a process-global recorder behind
//! [`global`]. It starts **disabled**: every hot-path hook first checks
//! [`enabled`] (one relaxed atomic load) and records nothing until a
//! driver opts in with [`enable`]. Spans still *measure* while disabled —
//! [`Span::finish`] always returns the elapsed wall time, so callers like
//! `qcompile`'s `PassTrace` get their per-run timings for free — they
//! just skip the shared-state write. Event capture is a second opt-in on
//! top ([`Recorder::capture_events`]): aggregate-only runs never pay for
//! event storage.
//!
//! # Drain generations
//!
//! Every [`Recorder::take_manifest`] and [`Recorder::disable`] bumps an
//! internal generation counter, and a [`Span`] only records into the
//! generation it was created in. A span that outlives a drain (or a
//! disable) is discarded instead of polluting the *next* manifest.
//!
//! ```
//! qtrace::enable();
//! {
//!     let run = qtrace::global().span("demo/run");
//!     let step = run.child("step");
//!     qtrace::global().add("demo/widgets", 3);
//!     qtrace::global().observe("demo/sizes", 17);
//!     step.finish();
//! } // `run` records on drop
//! let manifest = qtrace::take("demo");
//! assert_eq!(manifest.counters["demo/widgets"], 3);
//! assert!(manifest.spans.contains_key("demo/run/step"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod manifest;

pub use event::{Event, EventKind};
pub use manifest::{Histogram, Manifest, ManifestError, SpanStat};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use event::{EventRing, DEFAULT_EVENT_CAPACITY, EVENT_SHARDS};

/// Per-path reservoir size for exact quantiles. Spans are per-pass /
/// per-run — hundreds to low thousands per drain — so quantiles are
/// exact in practice; beyond the cap the reservoir keeps a sliding
/// window of the most recent `SPAN_RESERVOIR` occurrences.
pub const SPAN_RESERVOIR: usize = 512;

/// Thread-safe telemetry sink: spans, counters, gauges, histograms and
/// (opt-in) timeline events.
///
/// All mutating methods take `&self`. Both the aggregate state and the
/// timeline rings are sharded by thread ordinal, so concurrent batch
/// workers almost never contend on a lock: each recording call locks
/// only its own thread's shard, and [`Recorder::take_manifest`] merges
/// the shards (sum/min/max/bucket-wise — all order-independent) at drain
/// time. When the recorder is disabled every recording method is a no-op
/// after one atomic load.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    events_on: AtomicBool,
    generation: AtomicU64,
    event_capacity: AtomicUsize,
    state: [Mutex<State>; STATE_SHARDS],
    shards: [Mutex<EventRing>; EVENT_SHARDS],
}

/// Per-path span aggregate plus the bounded quantile reservoir.
#[derive(Debug, Default)]
struct SpanAgg {
    stat: SpanStat,
    samples: Vec<u64>,
}

impl SpanAgg {
    /// Folds another shard's aggregate for the same path into this one.
    /// All fields combine order-independently except the reservoir, which
    /// keeps the first `SPAN_RESERVOIR` samples in shard order; the
    /// quantiles derived from it are wall-time data and are zeroed by
    /// manifest normalization anyway.
    fn absorb(&mut self, other: SpanAgg) {
        self.stat.count = self.stat.count.saturating_add(other.stat.count);
        self.stat.total_ns = self.stat.total_ns.saturating_add(other.stat.total_ns);
        self.stat.min_ns = self.stat.min_ns.min(other.stat.min_ns);
        self.stat.max_ns = self.stat.max_ns.max(other.stat.max_ns);
        for sample in other.samples {
            if self.samples.len() >= SPAN_RESERVOIR {
                break;
            }
            self.samples.push(sample);
        }
    }

    fn merge(&mut self, ns: u64) {
        self.stat.merge(ns);
        if self.samples.len() < SPAN_RESERVOIR {
            self.samples.push(ns);
        } else {
            // Deterministic sliding window: overwrite round-robin.
            let slot = (self.stat.count - 1) as usize % SPAN_RESERVOIR;
            self.samples[slot] = ns;
        }
    }

    /// The aggregate with p50/p90/p99 computed from the reservoir
    /// (nearest-rank on the sorted samples).
    fn finalized(&self) -> SpanStat {
        let mut stat = self.stat;
        if !self.samples.is_empty() {
            let mut sorted = self.samples.clone();
            sorted.sort_unstable();
            let rank = |q: f64| {
                let n = sorted.len();
                let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                sorted[idx]
            };
            stat.p50_ns = rank(0.50);
            stat.p90_ns = rank(0.90);
            stat.p99_ns = rank(0.99);
        }
        stat
    }
}

#[derive(Debug, Default)]
struct State {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl State {
    const fn new() -> State {
        State {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

/// Aggregate-state shard count. Matches the event-ring sharding: both
/// are indexed by thread ordinal, so a batch worker touches exactly one
/// state shard and one event shard.
const STATE_SHARDS: usize = EVENT_SHARDS;

/// Workaround for pre-inline-const array initialization of non-`Copy`
/// shards. The interior mutability is the point: each constant is used
/// once per array slot as an initializer, never read as a shared value.
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SHARD: Mutex<EventRing> = Mutex::new(EventRing::new());
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_STATE: Mutex<State> = Mutex::new(State::new());

impl Recorder {
    /// A new, disabled recorder with no recorded data.
    pub const fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            events_on: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            event_capacity: AtomicUsize::new(DEFAULT_EVENT_CAPACITY),
            state: [EMPTY_STATE; STATE_SHARDS],
            shards: [EMPTY_SHARD; EVENT_SHARDS],
        }
    }

    /// The calling thread's aggregate-state shard.
    fn state_shard(&self) -> &Mutex<State> {
        &self.state[event::thread_ordinal() as usize % STATE_SHARDS]
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Already-recorded data is kept, but spans
    /// created before the disable no longer record (the drain generation
    /// advances).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Turns timeline-event capture on or off. Events are only recorded
    /// while the recorder is *also* enabled.
    pub fn capture_events(&self, on: bool) {
        self.events_on.store(on, Ordering::Relaxed);
    }

    /// Whether timeline events are being captured right now.
    pub fn events_enabled(&self) -> bool {
        self.is_enabled() && self.events_on.load(Ordering::Relaxed)
    }

    /// Caps each event shard at `capacity` events (further events are
    /// dropped and counted). Mainly for tests; the default is
    /// [`DEFAULT_EVENT_CAPACITY`].
    pub fn set_event_capacity(&self, capacity: usize) {
        self.event_capacity.store(capacity, Ordering::Relaxed);
    }

    fn push_event(&self, path: &Arc<str>, kind: EventKind, ts_ns: u64) {
        let tid = event::thread_ordinal();
        let ev = Event {
            path: Arc::clone(path),
            kind,
            tid,
            ts_ns,
        };
        let capacity = self.event_capacity.load(Ordering::Relaxed);
        let shard = &self.shards[tid as usize % EVENT_SHARDS];
        shard.lock().expect("event shard lock").push(ev, capacity);
    }

    /// Records an instant marker event at `path`. No-op unless event
    /// capture is on.
    pub fn instant(&self, path: &str) {
        if self.events_enabled() {
            self.push_event(&Arc::from(path), EventKind::Instant, event::now_ns());
        }
    }

    /// Records one pre-timestamped instant marker at `path` per entry in
    /// `ts_list`, all under a single shard lock. Timestamps come from
    /// [`event::now_ns`] captured when each moment occurred; hot loops
    /// should buffer those locally and flush once here instead of calling
    /// [`Recorder::instant`] per iteration.
    pub fn instants_at(&self, path: &str, ts_list: &[u64]) {
        if ts_list.is_empty() || !self.events_enabled() {
            return;
        }
        let tid = event::thread_ordinal();
        let path: Arc<str> = Arc::from(path);
        let capacity = self.event_capacity.load(Ordering::Relaxed);
        let shard = &self.shards[tid as usize % EVENT_SHARDS];
        let mut ring = shard.lock().expect("event shard lock");
        for &ts_ns in ts_list {
            ring.push(
                Event {
                    path: Arc::clone(&path),
                    kind: EventKind::Instant,
                    tid,
                    ts_ns,
                },
                capacity,
            );
        }
    }

    /// Starts a root span at `path`. The span measures wall time from now
    /// until [`Span::finish`] (or drop) and records into this recorder —
    /// unless the recorder was disabled at creation, in which case it
    /// only measures.
    pub fn span(&self, path: &str) -> Span<'_> {
        let path: Option<Arc<str>> = self.is_enabled().then(|| Arc::from(path));
        let start = Instant::now();
        if let Some(path) = &path {
            if self.events_enabled() {
                // The begin event reuses the start instant: one clock
                // read stamps both the span and its timeline event.
                self.push_event(path, EventKind::Begin, event::ns_since(start));
            }
        }
        Span {
            rec: self,
            path,
            generation: self.generation.load(Ordering::Relaxed),
            start,
        }
    }

    /// Records one completed span occurrence at `path` directly.
    pub fn record_span(&self, path: &str, elapsed: Duration) {
        if !self.is_enabled() {
            return;
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut state = self.state_shard().lock().expect("recorder lock");
        state.spans.entry_or_default(path).merge(ns);
    }

    /// Records many completed span occurrences at `path` (durations in
    /// nanoseconds) under a single lock acquisition — the span analogue
    /// of [`Recorder::observe_many`]. Serving loops that collect
    /// thousands of per-request latencies should buffer locally and
    /// flush once instead of paying a lock round-trip per request.
    pub fn record_spans(&self, path: &str, elapsed_ns: &[u64]) {
        if elapsed_ns.is_empty() || !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        let agg = state.spans.entry_or_default(path);
        for &ns in elapsed_ns {
            agg.merge(ns);
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        let slot = state.counters.entry_or_default(name);
        *slot = slot.saturating_add(delta);
    }

    /// Raises gauge `name` to `value` if `value` exceeds its current max.
    pub fn gauge_max(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        let slot = state.gauges.entry_or_default(name);
        *slot = (*slot).max(value);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        state.histograms.entry_or_default(name).record(value);
    }

    /// Records every value in `values` into histogram `name` under a
    /// single lock acquisition. Hot loops that would otherwise call
    /// [`Recorder::observe`] per iteration should buffer locally and
    /// flush once — same result, a fraction of the lock traffic.
    pub fn observe_many(&self, name: &str, values: &[u64]) {
        if values.is_empty() || !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        let hist = state.histograms.entry_or_default(name);
        for value in values {
            hist.record(*value);
        }
    }

    /// Absorbs an externally accumulated [`Histogram`] into histogram
    /// `name` under one lock acquisition (bucket-wise add). The drain
    /// path for subsystems that keep their own histograms — e.g. the
    /// qserve ops plane's per-tenant latency histograms — instead of
    /// calling [`Recorder::observe`] per sample. Empty histograms are
    /// skipped so a no-op drain leaves the manifest untouched.
    pub fn observe_histogram(&self, name: &str, hist: &Histogram) {
        if hist.count() == 0 || !self.is_enabled() {
            return;
        }
        let mut state = self.state_shard().lock().expect("recorder lock");
        state.histograms.entry_or_default(name).absorb(hist);
    }

    /// Drains everything recorded so far into a [`Manifest`] named
    /// `name`, leaving the recorder empty (but keeping its enabled
    /// state). Spans created before the drain stop recording (the drain
    /// generation advances), and any captured timeline events are drained
    /// into the manifest's `events` section in timestamp order.
    pub fn take_manifest(&self, name: &str) -> Manifest {
        self.generation.fetch_add(1, Ordering::Relaxed);
        // Merge the per-thread state shards. Every combination rule is
        // order-independent (sum, min/max, bucket-wise add), so the
        // merged aggregates cannot depend on scheduling; only the span
        // quantile reservoirs keep shard order, and those are wall-time
        // data that normalization zeroes.
        let mut merged = State::new();
        for shard in &self.state {
            let state = std::mem::take(&mut *shard.lock().expect("recorder lock"));
            for (path, agg) in state.spans {
                match merged.spans.entry(path) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(agg);
                    }
                    std::collections::btree_map::Entry::Occupied(slot) => {
                        slot.into_mut().absorb(agg);
                    }
                }
            }
            for (name, value) in state.counters {
                let slot = merged.counters.entry(name).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            for (name, value) in state.gauges {
                let slot = merged.gauges.entry(name).or_insert(0);
                *slot = (*slot).max(value);
            }
            for (name, hist) in state.histograms {
                merged.histograms.entry(name).or_default().absorb(&hist);
            }
        }
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for shard in &self.shards {
            let (evs, d) = shard.lock().expect("event shard lock").drain();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by(|a, b| {
            (a.ts_ns, a.tid, &a.path, a.kind).cmp(&(b.ts_ns, b.tid, &b.path, b.kind))
        });
        let mut counters = merged.counters;
        if dropped > 0 {
            let slot = counters
                .entry("qtrace/dropped_events".to_owned())
                .or_insert(0);
            *slot = slot.saturating_add(dropped);
        }
        Manifest {
            name: name.to_owned(),
            created_unix_ms: unix_ms(),
            spans: merged
                .spans
                .into_iter()
                .map(|(path, agg)| (path, agg.finalized()))
                .collect(),
            counters,
            gauges: merged.gauges,
            histograms: merged.histograms,
            events,
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// `BTreeMap::entry(..).or_default()` without allocating a `String` key
/// when the entry already exists — recording hits existing keys almost
/// always.
trait EntryOrDefault<V: Default> {
    fn entry_or_default(&mut self, key: &str) -> &mut V;
}

impl<V: Default> EntryOrDefault<V> for BTreeMap<String, V> {
    fn entry_or_default(&mut self, key: &str) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.to_owned(), V::default());
        }
        self.get_mut(key).expect("just inserted")
    }
}

/// A scoped wall-clock timer. Created by [`Recorder::span`] /
/// [`Span::child`]; records its elapsed time into the recorder when
/// finished or dropped (if the recorder was enabled at creation and no
/// drain happened in between).
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; finish() or let it drop at scope end"]
pub struct Span<'a> {
    rec: &'a Recorder,
    /// Full span path; `None` when the recorder was disabled at creation
    /// (the span then only measures).
    path: Option<Arc<str>>,
    /// Drain generation at creation; the span only records while the
    /// recorder is still in this generation.
    generation: u64,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts a child span whose path is `self.path + "/" + name`.
    ///
    /// The child borrows nothing from the parent besides the recorder, so
    /// parent and child may finish in any order; the *path* is what
    /// encodes nesting.
    pub fn child(&self, name: &str) -> Span<'a> {
        let path: Option<Arc<str>> = self.path.as_ref().map(|p| Arc::from(format!("{p}/{name}")));
        let start = Instant::now();
        if let Some(path) = &path {
            if self.rec.events_enabled() {
                self.rec
                    .push_event(path, EventKind::Begin, event::ns_since(start));
            }
        }
        Span {
            rec: self.rec,
            path,
            generation: self.rec.generation.load(Ordering::Relaxed),
            start,
        }
    }

    /// Wall time since the span started, without finishing it.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the span, records it, and returns the measured wall time
    /// (measured even when the recorder is disabled).
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, elapsed: Duration) {
        let Some(path) = self.path.take() else {
            return;
        };
        // A drain or disable since creation invalidates the span: its
        // begin event and siblings went into the previous manifest, so
        // recording now would pollute the next one.
        if self.rec.generation.load(Ordering::Relaxed) != self.generation {
            return;
        }
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if self.rec.events_enabled() {
            // start + elapsed stamps the end event without another
            // clock read.
            let ts = event::ns_since(self.start).saturating_add(ns);
            self.rec.push_event(&path, EventKind::End, ts);
        }
        let mut state = self.rec.state_shard().lock().expect("recorder lock");
        state.spans.entry_or_default(&path).merge(ns);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record(self.start.elapsed());
    }
}

static GLOBAL: Recorder = Recorder::new();

/// The process-global recorder. Starts disabled; see the crate docs.
pub fn global() -> &'static Recorder {
    &GLOBAL
}

/// Whether the global recorder is recording.
pub fn enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Enables the global recorder.
pub fn enable() {
    GLOBAL.enable();
}

/// Disables the global recorder (recorded data is kept until [`take`]).
pub fn disable() {
    GLOBAL.disable();
}

/// Drains the global recorder into a [`Manifest`] named `name`.
pub fn take(name: &str) -> Manifest {
    GLOBAL.take_manifest(name)
}

/// FNV-1a 64 over raw bytes: a fast, dependency-free, stable hash for
/// checksums and seeds that must not change between builds (corruption
/// *detection*, not authentication).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Milliseconds since the Unix epoch (0 if the clock predates it).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn disabled_recorder_measures_but_records_nothing() {
        let rec = Recorder::new();
        let span = rec.span("a/b");
        let d = span.finish();
        assert!(d >= Duration::ZERO);
        rec.add("c", 5);
        rec.gauge_max("g", 5);
        rec.observe("h", 5);
        rec.instant("i");
        rec.enable();
        let m = rec.take_manifest("t");
        assert!(m.spans.is_empty());
        assert!(m.counters.is_empty());
        assert!(m.gauges.is_empty());
        assert!(m.histograms.is_empty());
        assert!(m.events.is_empty());
    }

    #[test]
    fn record_spans_batch_matches_per_call_recording() {
        let one = Recorder::new();
        one.enable();
        for ns in [100u64, 2500, 7, 900_000] {
            one.record_span("serve/req", Duration::from_nanos(ns));
        }
        let batch = Recorder::new();
        batch.enable();
        batch.record_spans("serve/req", &[100, 2500, 7, 900_000]);
        batch.record_spans("serve/req", &[]); // no-op

        let am = one.take_manifest("m");
        let bm = batch.take_manifest("m");
        let (a, b) = (&am.spans["serve/req"], &bm.spans["serve/req"]);
        assert_eq!(a.count, b.count);
        assert_eq!(a.total_ns, b.total_ns);
        assert_eq!(a.min_ns, b.min_ns);
        assert_eq!(a.max_ns, b.max_ns);
        assert_eq!(a.p50_ns, b.p50_ns);
        assert_eq!(a.p99_ns, b.p99_ns);

        let disabled = Recorder::new();
        disabled.record_spans("serve/req", &[1, 2, 3]);
        disabled.enable();
        assert!(disabled.take_manifest("m").spans.is_empty());
    }

    #[test]
    fn spans_aggregate_by_path_and_nest_via_child() {
        let rec = Recorder::new();
        rec.enable();
        {
            let root = rec.span("run");
            root.child("pass").finish();
            root.child("pass").finish();
            let pass = root.child("pass");
            pass.child("inner").finish();
            pass.finish();
        }
        let m = rec.take_manifest("t");
        assert_eq!(m.spans["run"].count, 1);
        assert_eq!(m.spans["run/pass"].count, 3);
        assert_eq!(m.spans["run/pass/inner"].count, 1);
        let s = &m.spans["run/pass"];
        assert!(s.min_ns <= s.max_ns && s.total_ns >= s.max_ns);
        assert!(s.p50_ns >= s.min_ns && s.p99_ns <= s.max_ns);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let rec = Recorder::new();
        rec.enable();
        rec.add("swaps", 3);
        rec.add("swaps", 4);
        rec.gauge_max("peak", 10);
        rec.gauge_max("peak", 7);
        rec.observe("lens", 0);
        rec.observe("lens", 1);
        rec.observe("lens", 5);
        let m = rec.take_manifest("t");
        assert_eq!(m.counters["swaps"], 7);
        assert_eq!(m.gauges["peak"], 10);
        let h = &m.histograms["lens"];
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 6);
        // 0 and 1 share the first bucket; 5 lands in [4, 8).
        assert_eq!(h.buckets(), vec![(0, 2), (4, 1)]);
    }

    #[test]
    fn take_drains_the_recorder() {
        let rec = Recorder::new();
        rec.enable();
        rec.add("x", 1);
        assert_eq!(rec.take_manifest("a").counters.len(), 1);
        assert!(rec.take_manifest("b").counters.is_empty());
        assert!(rec.is_enabled(), "draining keeps the enabled state");
    }

    #[test]
    fn span_does_not_leak_across_drain() {
        // Regression test: a span created while enabled must NOT record
        // into the next manifest after a drain (or a disable) happened.
        let rec = Recorder::new();
        rec.enable();
        let leaker = rec.span("leaky");
        let first = rec.take_manifest("first");
        assert!(first.spans.is_empty());
        drop(leaker); // would previously merge into the *next* manifest
        let second = rec.take_manifest("second");
        assert!(
            second.spans.is_empty(),
            "span crossed the drain boundary: {:?}",
            second.spans.keys().collect::<Vec<_>>()
        );

        // Same story for disable(): the generation advances, so spans
        // created before it are discarded on drop.
        let stale = rec.span("stale");
        rec.disable();
        rec.enable();
        drop(stale);
        assert!(rec.take_manifest("third").spans.is_empty());
    }

    #[test]
    fn exact_quantiles_for_small_counts() {
        let rec = Recorder::new();
        rec.enable();
        for ns in 1..=100u64 {
            rec.record_span("q", Duration::from_nanos(ns));
        }
        let m = rec.take_manifest("t");
        let s = &m.spans["q"];
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p90_ns, 90);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 100);
    }

    #[test]
    fn reservoir_slides_beyond_capacity() {
        let rec = Recorder::new();
        rec.enable();
        // 2 * SPAN_RESERVOIR samples: the window retains the last 512, so
        // quantiles move with the distribution tail instead of freezing.
        for ns in 0..(2 * SPAN_RESERVOIR as u64) {
            rec.record_span("q", Duration::from_nanos(1000 + ns));
        }
        let m = rec.take_manifest("t");
        let s = &m.spans["q"];
        assert_eq!(s.count, 2 * SPAN_RESERVOIR as u64);
        assert!(s.p50_ns >= 1000 + SPAN_RESERVOIR as u64);
    }

    #[test]
    fn events_capture_spans_and_instants() {
        let rec = Recorder::new();
        rec.enable();
        rec.capture_events(true);
        {
            let root = rec.span("run");
            rec.instant("mark");
            root.child("pass").finish();
        }
        let m = rec.take_manifest("t");
        let kinds: Vec<(&str, EventKind)> = m.events.iter().map(|e| (&*e.path, e.kind)).collect();
        assert!(kinds.contains(&("run", EventKind::Begin)));
        assert!(kinds.contains(&("run", EventKind::End)));
        assert!(kinds.contains(&("run/pass", EventKind::Begin)));
        assert!(kinds.contains(&("run/pass", EventKind::End)));
        assert!(kinds.contains(&("mark", EventKind::Instant)));
        // Timestamps are drained in order.
        assert!(m.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // Capture off: no further events.
        rec.capture_events(false);
        rec.span("quiet").finish();
        assert!(rec.take_manifest("t2").events.is_empty());
    }

    #[test]
    fn event_capacity_bounds_and_counts_drops() {
        let rec = Recorder::new();
        rec.enable();
        rec.capture_events(true);
        rec.set_event_capacity(4);
        for _ in 0..10 {
            rec.instant("burst");
        }
        let m = rec.take_manifest("t");
        assert_eq!(m.events.len(), 4);
        assert_eq!(m.counters["qtrace/dropped_events"], 6);
        // The drop counter resets with the drain.
        rec.instant("one");
        let m2 = rec.take_manifest("t2");
        assert_eq!(m2.events.len(), 1);
        assert!(!m2.counters.contains_key("qtrace/dropped_events"));
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        rec.enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.add("n", 1);
                        rec.observe("v", 2);
                    }
                    rec.span("worker").finish();
                });
            }
        });
        let m = rec.take_manifest("t");
        assert_eq!(m.counters["n"], 400);
        assert_eq!(m.histograms["v"].count(), 400);
        assert_eq!(m.spans["worker"].count, 4);
    }
}
