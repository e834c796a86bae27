//! The compile service: admission, per-tenant fair queuing, worker
//! pool, overload shedding, fault tolerance and calibration hot-reload.
//!
//! ## Admission-time determinism
//!
//! `submit` classifies every request — hit, miss, shed, reject, or a
//! fail-fast (quarantine / breaker / throttle) — under one lock, in
//! arrival order, before any worker touches it. Workers never make
//! cache decisions; they compile the job admission reserved and fill
//! its completion slot. The outcome sequence (and every `qserve/*`
//! counter) is therefore a pure function of the request stream,
//! whatever the worker count — the property the CI manifest gate and
//! the cross-worker determinism proptest pin.
//!
//! Failure-driven state (negative-cache TTLs, quarantine strikes,
//! breaker trips) transitions at compile *completion*. For submitters
//! that wait for each response before the next submit (the chaos
//! campaign's discipline), those transitions interleave with admissions
//! in one deterministic order, so even the fault-plane counters gate
//! byte-identical across worker counts.
//!
//! ## The logical clock
//!
//! Deadlines, negative-cache backoff, breaker cooldowns and token
//! buckets all run on a logical `u64` tick count: +1 per admission,
//! plus explicit [`Service::advance`] steps. Wall time never feeds a
//! policy decision. Every clock movement sweeps the deadline plane:
//! expired queued jobs are reaped before dispatch (their waiters get
//! [`ServeError::DeadlineExceeded`]), and expired in-flight compiles
//! have their [`qcompile::CancelToken`] tripped so the pipeline aborts
//! at its next pass boundary.
//!
//! ## Fairness and overload
//!
//! Each tenant owns a FIFO; workers pop round-robin across tenants, so
//! one tenant's backlog cannot starve another's single request. When
//! the shared queue is at capacity, a miss walks its
//! [`CompileOptions::ladder`] looking for an already-cached cheaper
//! rung (VIC → IC → NAIVE) to serve instead — degraded service beats no
//! service — and only rejects with [`ServeError::Overloaded`] when no
//! rung holds a servable (non-failed) entry.
//!
//! ## Fault tolerance
//!
//! - **Retry with backoff** — a failed compile is negatively cached
//!   with a seeded, jittered exponential TTL ([`BackoffConfig`]); once
//!   it lapses the next request retries the compile, carrying the
//!   strike count into the next window. Non-recoverable program errors
//!   cache forever (retrying cannot fix an invalid spec).
//! - **Poison-pill quarantine** — a spec fingerprint whose compiles
//!   panic or blow their deadline `quarantine_threshold` times is
//!   quarantined: all further requests for that *program* (any option
//!   set) fail fast with [`ServeError::Quarantined`] until
//!   [`Service::release_quarantine`].
//! - **Per-tenant circuit breaker + token bucket** — consecutive
//!   compile failures trip a tenant's breaker open
//!   ([`ServeError::CircuitOpen`] until the cooldown admits a single
//!   probe); an optional bucket bounds a tenant's compile admission
//!   rate ([`ServeError::Throttled`]). Cache hits bypass both: serving
//!   an `Arc` clone needs no protection.
//! - **Crash-safe warm start** — with [`ServiceConfig::spill_dir`] set,
//!   every compiled artifact is spilled to disk content-addressed by
//!   its cache fingerprint; a restarted service recovers every
//!   checksum-verified entry and drops stale-epoch VIC spills exactly
//!   like a hot reload would (see [`crate::spill`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcompile::{
    try_compile_artifact_with_context_cancellable, CancelToken, CompileError, CompileOptions,
    CompiledArtifact, QaoaSpec,
};
use qhw::fault::{ServiceFault, ServiceFaultPlane};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::breaker::{
    BreakerConfig, BreakerDecision, BreakerTransition, BucketConfig, CircuitBreaker, TokenBucket,
};
use crate::cache::{spec_fingerprint, ArtifactCache, CacheKey, Completion, Lookup, SlotState};
use crate::deadline::{BackoffConfig, InflightDeadlines, PoisonLedger, QuarantineReason};
use crate::ops::{JournalEvent, OpsConfig, OpsState, RequestTrace, Requester, Stage};
use crate::spill::SpillStore;

/// Why the service could not produce an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queue was full and no ladder rung of the request was cached.
    Overloaded {
        /// Jobs queued at admission time.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The compile itself failed (shared verbatim with every request
    /// coalesced onto the same cache entry).
    Compile(CompileError),
    /// The request's deadline lapsed before a worker finished it: either
    /// reaped from the queue, or cancelled in flight at a pass boundary.
    DeadlineExceeded {
        /// The absolute logical-tick deadline that lapsed.
        deadline: u64,
        /// The logical clock when the service gave up on it.
        now: u64,
    },
    /// The program is quarantined: its compiles crashed or timed out
    /// repeatedly, so the service fails fast instead of re-detonating a
    /// worker. [`Service::release_quarantine`] lifts it.
    Quarantined {
        /// [`spec_fingerprint`] of the quarantined program.
        spec_fp: u64,
        /// What the program did to earn it.
        reason: QuarantineReason,
    },
    /// The tenant's circuit breaker is open after repeated compile
    /// failures; misses fail fast until the cooldown admits a probe.
    CircuitOpen {
        /// The tenant whose breaker is open.
        tenant: u32,
        /// Logical ticks until the next half-open probe is admitted.
        retry_in: u64,
    },
    /// The tenant's token bucket is empty: its compile admission rate
    /// exceeded the configured budget.
    Throttled {
        /// The tenant that ran dry.
        tenant: u32,
    },
}

impl ServeError {
    /// Stable machine-readable code, the label every ops-plane metric
    /// and journal line carries. The set is pinned by test — renaming a
    /// code forks every dashboard series keyed on it, so a rename must
    /// be a deliberate, test-visible decision.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Compile(_) => "compile_failed",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Quarantined { .. } => "quarantined",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::Throttled { .. } => "throttled",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "service overloaded ({queued}/{capacity} jobs queued)")
            }
            ServeError::Compile(e) => write!(f, "compile failed: {e}"),
            ServeError::DeadlineExceeded { deadline, now } => {
                write!(f, "deadline exceeded (deadline tick {deadline}, now {now})")
            }
            ServeError::Quarantined { spec_fp, reason } => write!(
                f,
                "spec {spec_fp:#018x} is quarantined ({})",
                reason.label()
            ),
            ServeError::CircuitOpen { tenant, retry_in } => write!(
                f,
                "tenant {tenant} circuit breaker open (next probe in {retry_in} ticks)"
            ),
            ServeError::Throttled { tenant } => {
                write!(f, "tenant {tenant} throttled (token bucket empty)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// How admission classified a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the cache (ready, coalesced onto an in-flight compile
    /// of the same key, or a live negative entry).
    Hit,
    /// Admitted for compilation.
    Miss,
    /// Queue full; served from a cached lower ladder rung (`rungs` steps
    /// below the requested configuration).
    Shed {
        /// Ladder steps taken below the requested rung.
        rungs: u8,
    },
    /// Queue full and no ladder rung was cached.
    Rejected,
    /// Failed fast: the program is quarantined.
    Quarantined,
    /// Failed fast: the tenant's circuit breaker is open.
    BreakerOpen,
    /// Failed fast: the tenant's token bucket is empty.
    Throttled,
}

/// One compile request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Fair-queuing identity; mapped onto a tenant queue modulo
    /// [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// The program to compile.
    pub spec: QaoaSpec,
    /// The requested configuration.
    pub options: CompileOptions,
    /// RNG seed a compile of this request uses. Coalescing note: the
    /// *first* requester of a key wins the compile, so the seed of later
    /// coalesced requests is ignored — key identity deliberately excludes
    /// the seed.
    pub seed: u64,
    /// Deadline in logical ticks **relative to admission**; `None`
    /// waits forever. On a miss, the compile must finish within this
    /// many clock movements or its waiters get
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<u64>,
}

impl Request {
    /// Builds a request with no deadline.
    pub fn new(tenant: u32, spec: QaoaSpec, options: CompileOptions, seed: u64) -> Request {
        Request {
            tenant,
            spec,
            options,
            seed,
            deadline: None,
        }
    }

    /// Attaches a deadline `ticks` logical clock steps after admission.
    pub fn with_deadline(mut self, ticks: u64) -> Request {
        self.deadline = Some(ticks);
        self
    }
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The artifact (shared, never copied) or the structured failure.
    pub result: Result<Arc<CompiledArtifact>, ServeError>,
    /// Admission's classification.
    pub outcome: Outcome,
    /// Position in the service's completion order (1-based); cache hits
    /// take theirs at admission, compiles when the worker finishes.
    pub served_order: u64,
    /// Submit-to-resolution wall time for this request.
    pub latency: Duration,
}

/// A submitted request: already resolved (hit / shed / reject /
/// fail-fast) or pending on an in-flight compile. Borrows the service,
/// so tickets cannot outlive it.
pub struct Ticket<'a> {
    _service: &'a Service,
    state: TicketState,
}

#[derive(Debug)]
enum TicketState {
    Ready(Response),
    Pending {
        completion: Arc<Completion>,
        outcome: Outcome,
        submitted: Instant,
    },
}

impl Ticket<'_> {
    /// Whether the response is already available without blocking.
    pub fn is_ready(&self) -> bool {
        match &self.state {
            TicketState::Ready(_) => true,
            TicketState::Pending { completion, .. } => {
                completion.slot.lock().expect("completion lock").is_some()
            }
        }
    }

    /// Admission's classification of this request.
    pub fn outcome(&self) -> Outcome {
        match &self.state {
            TicketState::Ready(r) => r.outcome,
            TicketState::Pending { outcome, .. } => *outcome,
        }
    }

    /// Blocks until the response is available.
    pub fn wait(self) -> Response {
        match self.state {
            TicketState::Ready(response) => response,
            TicketState::Pending {
                completion,
                outcome,
                submitted,
            } => {
                let mut slot = completion.slot.lock().expect("completion lock");
                while slot.is_none() {
                    slot = completion.ready.wait(slot).expect("completion lock");
                }
                let (result, served_order, resolved_at) =
                    slot.as_ref().expect("loop exits on Some").clone();
                Response {
                    result,
                    outcome,
                    served_order,
                    latency: resolved_at.saturating_duration_since(submitted),
                }
            }
        }
    }
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling queued jobs. `0` is valid and means no
    /// background compilation: jobs queue until [`Service::drain_one`]
    /// runs them inline (deterministic tests drive the queue this way).
    pub workers: usize,
    /// Artifact-cache capacity in entries (min 1).
    pub cache_capacity: usize,
    /// Queued-job bound across all tenants; admission beyond it sheds
    /// down the ladder, then rejects.
    pub queue_capacity: usize,
    /// Number of tenant FIFOs (min 1); request tenants map in modulo.
    pub tenants: usize,
    /// Panics/timeouts of one spec fingerprint before it is quarantined
    /// (0 disables quarantine).
    pub quarantine_threshold: u32,
    /// Negative-cache TTL policy for failed compiles.
    pub backoff: BackoffConfig,
    /// Per-tenant circuit-breaker policy (`failure_threshold: 0`
    /// disables it).
    pub breaker: BreakerConfig,
    /// Per-tenant compile-admission token bucket; `None` = unlimited.
    pub bucket: Option<BucketConfig>,
    /// Directory for crash-safe artifact spill; `None` disables
    /// persistence. A restarted service pointed at the same directory
    /// warm-starts from every verifiable spilled artifact.
    pub spill_dir: Option<PathBuf>,
    /// Seeded fault-injection schedule for chaos testing; faults key on
    /// the compile admission sequence number, so the injected behavior
    /// is independent of worker count.
    pub fault_plane: Option<Arc<ServiceFaultPlane>>,
    /// Ops-plane switches: per-request lifecycle tracing and the
    /// failure-plane journal (both on by default; see [`OpsConfig`]).
    pub ops: OpsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: qcompile::default_workers().min(4),
            cache_capacity: 256,
            queue_capacity: 4096,
            tenants: 4,
            quarantine_threshold: 3,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            bucket: None,
            spill_dir: None,
            fault_plane: None,
            ops: OpsConfig::default(),
        }
    }
}

/// Deterministic service counters, derived on demand from the
/// structures that own them: per-request outcomes are summed over the
/// per-tenant registry, per-event counts come from the cache, deadline
/// plane, poison ledger, breakers and spill store (DESIGN.md §5.10).
/// [`Service::flush_telemetry`] emits the `qserve/*` qtrace series from
/// this same snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted (including warm calls).
    pub requests: u64,
    /// Cache hits (ready, coalesced, or live negative).
    pub hits: u64,
    /// Admitted compiles.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Requests served from a cached lower ladder rung under overload.
    pub shed: u64,
    /// Requests rejected under overload.
    pub rejected: u64,
    /// Entries dropped by calibration hot-reloads.
    pub invalidated: u64,
    /// Calibration hot-reloads performed.
    pub epoch_bumps: u64,
    /// Current calibration epoch.
    pub epoch: u64,
    /// Artifacts (and reservations) currently cached.
    pub cached_entries: usize,
    /// Jobs currently queued.
    pub queued: usize,
    /// Order-sensitive fingerprint folded over every admission outcome
    /// `(key fingerprint, classification)` — two runs with identical
    /// values served identical sequences.
    pub sequence_fp: u64,
    /// Queued jobs reaped because their deadline lapsed before dispatch.
    pub deadline_reaped: u64,
    /// In-flight compiles cancelled by a deadline sweep.
    pub cancelled: u64,
    /// Negative-cache entries that lapsed and were reaped at lookup
    /// (each one re-admits the compile — the retry count).
    pub negative_expired: u64,
    /// Requests failed fast because their program is quarantined.
    pub quarantine_rejects: u64,
    /// Programs currently quarantined.
    pub quarantined_specs: u64,
    /// Quarantines imposed since startup (releases do not subtract).
    pub quarantine_adds: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Requests failed fast on an open breaker.
    pub breaker_rejects: u64,
    /// Tenant breakers currently open (snapshot).
    pub breakers_open: u64,
    /// Requests failed fast on an empty token bucket.
    pub throttled: u64,
    /// Artifacts spilled to disk.
    pub spill_saved: u64,
    /// Artifacts recovered from disk at startup.
    pub spill_recovered: u64,
    /// Spill files rejected at recovery (checksum/parse/fingerprint).
    pub spill_corrupt: u64,
    /// Spill files dropped at recovery as stale (epoch or topology).
    pub spill_stale: u64,
    /// The logical clock (admissions + explicit advances).
    pub now_tick: u64,
}

struct Job {
    fp: u64,
    id: u64,
    key: CacheKey,
    spec_fp: u64,
    tenant: u32,
    seed: u64,
    /// Absolute logical-tick deadline, if any.
    deadline: Option<u64>,
    /// The request whose miss admitted this compile.
    origin: Requester,
    /// Compile admission ordinal — the fault plane's key.
    fault_seq: u64,
    /// Consecutive prior failures of this key (from an expired negative
    /// entry); the next failure's backoff builds on it.
    strikes: u32,
    /// This job is its tenant's half-open breaker probe. If it is
    /// reaped from the queue before dispatch, the probe slot must be
    /// returned ([`CircuitBreaker::abort_probe`]); a dispatched probe's
    /// completion decides the breaker instead.
    probe: bool,
    token: CancelToken,
    context: Arc<HardwareContext>,
    completion: Arc<Completion>,
}

struct Inner {
    cache: ArtifactCache,
    queues: Vec<std::collections::VecDeque<Job>>,
    queued: usize,
    rr_cursor: usize,
    context: Arc<HardwareContext>,
    epoch: u64,
    /// Calibration hot-reloads performed.
    epoch_bumps: u64,
    topology_fp: u64,
    /// Queued jobs reaped because their deadline lapsed before dispatch.
    deadline_reaped: u64,
    shutdown: bool,
    /// The logical clock: +1 per admission plus explicit advances.
    now: u64,
    backoff: BackoffConfig,
    inflight: InflightDeadlines,
    poison: PoisonLedger,
    breakers: Vec<CircuitBreaker>,
    buckets: Option<Vec<TokenBucket>>,
    next_fault_seq: u64,
    ops: OpsState,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
    served: AtomicU64,
    spill: Option<SpillStore>,
    fault_plane: Option<Arc<ServiceFaultPlane>>,
}

/// The in-process compile service. See the crate docs for the example
/// and the module docs for the serving policy.
pub struct Service {
    shared: Arc<Shared>,
    config: ServiceConfig,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service for one hardware target, spawning
    /// [`ServiceConfig::workers`] compile threads. With
    /// [`ServiceConfig::spill_dir`] set, warm-starts from every
    /// verifiable spilled artifact: entries are checksum- and
    /// fingerprint-verified before they serve, and VIC spills from a
    /// different calibration (per the spill directory's epoch sidecar)
    /// are dropped as stale.
    pub fn new(
        topology: Topology,
        calibration: Option<Calibration>,
        config: ServiceConfig,
    ) -> Self {
        let topology_fp = topology.fingerprint();
        let calibration_fp = calibration.as_ref().map(Calibration::fingerprint);
        let context = Arc::new(HardwareContext::from_parts(topology, calibration));
        let tenants = config.tenants.max(1);

        // Warm-start recovery before the service goes live.
        let mut cache = ArtifactCache::new(config.cache_capacity);
        let mut ops = OpsState::new(&config.ops, tenants);
        let mut epoch = 0;
        let spill = config.spill_dir.clone().and_then(|dir| {
            let mut store = SpillStore::new(dir).ok()?;
            // VIC spills are only trusted when the sidecar proves the
            // calibration is the one they were compiled against.
            let vic_epoch = match store.read_meta() {
                Some((saved, saved_cal)) if saved_cal == calibration_fp => {
                    epoch = saved;
                    Some(saved)
                }
                Some((saved, _)) => {
                    epoch = saved + 1;
                    None
                }
                None => None,
            };
            for (fp, key, artifact) in store.recover(topology_fp, vic_epoch) {
                for victim in cache.insert_ready(fp, key, artifact) {
                    store.unlink(victim);
                }
            }
            ops.journal.push(
                JournalEvent::new(0, "spill_recovery")
                    .field("recovered", store.recovered)
                    .field("corrupt", store.corrupt)
                    .field("stale", store.stale)
                    .field("epoch", epoch),
            );
            let _ = store.write_meta(epoch, calibration_fp);
            Some(store)
        });

        let inner = Inner {
            cache,
            queues: (0..tenants).map(|_| Default::default()).collect(),
            queued: 0,
            rr_cursor: 0,
            context,
            epoch,
            epoch_bumps: 0,
            topology_fp,
            deadline_reaped: 0,
            shutdown: false,
            now: 0,
            backoff: config.backoff,
            inflight: InflightDeadlines::default(),
            poison: PoisonLedger::new(config.quarantine_threshold),
            breakers: (0..tenants)
                .map(|_| CircuitBreaker::new(config.breaker))
                .collect(),
            buckets: config
                .bucket
                .map(|b| (0..tenants).map(|_| TokenBucket::new(b)).collect()),
            next_fault_seq: 0,
            ops,
        };
        let shared = Arc::new(Shared {
            inner: Mutex::new(inner),
            work: Condvar::new(),
            served: AtomicU64::new(0),
            spill,
            fault_plane: config.fault_plane.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qserve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn qserve worker")
            })
            .collect();
        Service {
            shared,
            config,
            workers,
        }
    }

    /// Submits a request, classifying it immediately; the returned
    /// ticket is resolved for hits/sheds/rejects/fail-fasts and pending
    /// for misses.
    pub fn submit(&self, request: Request) -> Ticket<'_> {
        self.admit(request, AdmitMode::Queue)
    }

    /// `submit` + `wait`.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Like [`Service::call`], but a miss compiles inline on the calling
    /// thread, bypassing the queue, its capacity, and the fail-fast
    /// admission gates (so it can never shed, reject, or be throttled).
    /// Deterministic cache warming uses this.
    pub fn warm(&self, request: Request) -> Response {
        self.admit(request, AdmitMode::Inline).wait()
    }

    /// Advances the logical clock by `ticks` and sweeps the deadline
    /// plane: queued jobs past their deadline are reaped (waiters get
    /// [`ServeError::DeadlineExceeded`]) and expired in-flight compiles
    /// are cancelled at their next pass boundary. Admissions advance
    /// the clock by one implicitly; tests and long-poll loops advance
    /// it explicitly.
    pub fn advance(&self, ticks: u64) {
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.now += ticks;
        sweep_deadlines(&mut inner, &self.shared.served);
    }

    fn admit(&self, request: Request, mode: AdmitMode) -> Ticket<'_> {
        let submitted = Instant::now();
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.now += 1;
        sweep_deadlines(&mut inner, &self.shared.served);
        let now = inner.now;

        let key = CacheKey::new(
            request.spec,
            request.options,
            inner.topology_fp,
            inner.epoch,
        );
        let fp = key.fingerprint();
        let spec_fp = spec_fingerprint(&key.spec);
        let tenant_idx = request.tenant as usize % inner.queues.len();
        // Stable request id: the admission ordinal, assigned under the
        // submit lock — the key every lifecycle transition and journal
        // line refers back to.
        let who = Requester {
            req_id: inner.ops.on_admit(tenant_idx, spec_fp, fp, now),
            tenant: tenant_idx,
            admit_tick: now,
            admit_at: submitted,
        };
        let mut strikes = 0;
        match inner.cache.lookup(fp, &key, now) {
            Lookup::Hit { state, entry_id } => {
                inner.ops.note(fp, 2);
                inner.ops.tenants[tenant_idx].hits += 1;
                match &state {
                    SlotState::Ready(_) => inner.ops.finish(&who, Stage::Completed, now, None),
                    SlotState::Failed { error, .. } => {
                        inner
                            .ops
                            .finish(&who, Stage::Failed, now, Some(error.code()));
                    }
                    // Whether the reservation is still pending or
                    // already filled at this instant is a wall-clock
                    // race against the workers, so the terminal is
                    // *deferred*: the waiter parks on the producing
                    // reservation and settles with that compile's
                    // deterministic outcome, stamped at this admit
                    // tick — identical bytes either way.
                    SlotState::Pending(_) => inner.ops.park(entry_id, who),
                }
                return self.resolve(state, Outcome::Hit, submitted);
            }
            Lookup::ExpiredNegative { strikes: prior } => {
                // The backoff window lapsed: retry the compile, but keep
                // the failure history so the next TTL keeps growing.
                strikes = prior;
                inner.ops.journal.push(
                    JournalEvent::new(now, "negative_expire")
                        .tenant(tenant_idx as u32)
                        .spec(spec_fp)
                        .request(who.req_id)
                        .field("strikes", u64::from(prior)),
                );
            }
            Lookup::Miss => {}
        }

        let mut probe = false;
        if matches!(mode, AdmitMode::Queue) {
            // Fail-fast gates. Cache hits never reach them: a cached
            // artifact is safe to serve no matter how sick the
            // program's compiles are. The order matters twice over: the
            // token bucket comes last so only a request that actually
            // queues a compile pays a token, and every exit past the
            // breaker returns a consumed half-open probe slot
            // (`abort_probe`) — a probe admission that is then shed,
            // rejected or throttled dispatches no compile, and without
            // the abort no completion would ever move the breaker out
            // of half-open again.
            let early = 'gates: {
                if let Some(reason) = inner.poison.quarantined(spec_fp) {
                    let error = ServeError::Quarantined { spec_fp, reason };
                    break 'gates Some((Outcome::Quarantined, fp, Err(error)));
                }
                match inner.breakers[tenant_idx].admit(now) {
                    BreakerDecision::Admit => {}
                    BreakerDecision::Probe => {
                        probe = true;
                        inner.ops.journal.push(
                            JournalEvent::new(now, "breaker_probe")
                                .tenant(tenant_idx as u32)
                                .request(who.req_id),
                        );
                    }
                    BreakerDecision::Reject { retry_in } => {
                        let tenant = request.tenant;
                        let error = ServeError::CircuitOpen { tenant, retry_in };
                        break 'gates Some((Outcome::BreakerOpen, fp, Err(error)));
                    }
                }
                if inner.queued >= self.config.queue_capacity {
                    // Shed: serve a cached cheaper rung before
                    // rejecting. A negatively cached rung is no
                    // substitute — serving one key's error for another
                    // key's request helps nobody — and the probe is
                    // read-only: an expired negative rung keeps its
                    // strike history for its own next admission (see
                    // [`ArtifactCache::probe_servable`]).
                    for (steps, rung) in key.options.ladder().into_iter().enumerate().skip(1) {
                        let alt =
                            CacheKey::new(key.spec.clone(), rung, inner.topology_fp, inner.epoch);
                        let alt_fp = alt.fingerprint();
                        if let Some(state) = inner.cache.probe_servable(alt_fp, &alt) {
                            let shed = Outcome::Shed { rungs: steps as u8 };
                            break 'gates Some((shed, alt_fp, Ok(state)));
                        }
                    }
                    let error = ServeError::Overloaded {
                        queued: inner.queued,
                        capacity: self.config.queue_capacity,
                    };
                    break 'gates Some((Outcome::Rejected, fp, Err(error)));
                }
                let throttled = inner
                    .buckets
                    .as_mut()
                    .is_some_and(|buckets| !buckets[tenant_idx].try_take(now));
                throttled.then(|| {
                    let error = ServeError::Throttled {
                        tenant: request.tenant,
                    };
                    (Outcome::Throttled, fp, Err(error))
                })
            };
            if let Some((outcome, fp, served)) = early {
                return self.exit_early(&mut inner, &who, probe, outcome, fp, served);
            }
        }

        inner.ops.tenants[tenant_idx].misses += 1;
        inner.ops.note(fp, 1);
        let completion = Arc::new(Completion::default());
        let (id, evicted) = inner
            .cache
            .reserve(fp, key.clone(), Arc::clone(&completion));
        if let Some(store) = &self.shared.spill {
            for victim in evicted {
                store.unlink(victim);
            }
        }
        let fault_seq = inner.next_fault_seq;
        inner.next_fault_seq += 1;
        let job = Job {
            fp,
            id,
            key,
            spec_fp,
            tenant: request.tenant,
            seed: request.seed,
            deadline: request.deadline.map(|d| now + d),
            origin: who,
            fault_seq,
            strikes,
            probe,
            token: CancelToken::new(),
            context: Arc::clone(&inner.context),
            completion: Arc::clone(&completion),
        };
        let ticket = Ticket {
            _service: self,
            state: TicketState::Pending {
                completion,
                outcome: Outcome::Miss,
                submitted,
            },
        };
        match mode {
            AdmitMode::Queue => {
                inner.ops.lifecycle.push(who.req_id, Stage::Queued, now);
                inner.queues[tenant_idx].push_back(job);
                inner.queued += 1;
                drop(inner);
                self.shared.work.notify_one();
            }
            AdmitMode::Inline => {
                inner.ops.lifecycle.push(who.req_id, Stage::Dispatched, now);
                drop(inner);
                execute(&self.shared, job);
            }
        }
        ticket
    }

    /// The one fail-fast exit of [`Service::admit`]: the request ends at
    /// admission without queueing a compile, either shed onto the
    /// cached ladder rung `fp` (`Ok`) or refused with an error. Folds
    /// the outcome into the sequence fingerprint, returns a consumed
    /// half-open `probe` slot, records the lifecycle terminal (which
    /// counts the outcome in the tenant registry) and resolves the
    /// ticket.
    fn exit_early(
        &self,
        inner: &mut Inner,
        who: &Requester,
        probe: bool,
        outcome: Outcome,
        fp: u64,
        served: Result<SlotState, ServeError>,
    ) -> Ticket<'_> {
        let (stage, code) = match outcome {
            Outcome::Shed { .. } => (Stage::Shed, 3),
            Outcome::Rejected => (Stage::Rejected, 4),
            Outcome::Quarantined => (Stage::Quarantined, 5),
            Outcome::BreakerOpen => (Stage::CircuitOpen, 6),
            Outcome::Throttled => (Stage::Throttled, 7),
            Outcome::Hit | Outcome::Miss => unreachable!("hits and misses are not fail-fast"),
        };
        inner.ops.note(fp, code);
        if probe {
            abort_probe(inner, who.tenant, who.admit_tick, who.req_id);
        }
        let error = served.as_ref().err().map(ServeError::code);
        inner.ops.finish(who, stage, who.admit_tick, error);
        match served {
            Ok(state) => self.resolve(state, outcome, who.admit_at),
            Err(error) => self.ready(Err(error), outcome, who.admit_at),
        }
    }

    /// A ticket resolved at admission, taking the next served order.
    fn ready(
        &self,
        result: Result<Arc<CompiledArtifact>, ServeError>,
        outcome: Outcome,
        submitted: Instant,
    ) -> Ticket<'_> {
        let served_order = self.shared.served.fetch_add(1, Ordering::SeqCst) + 1;
        Ticket {
            _service: self,
            state: TicketState::Ready(Response {
                result,
                outcome,
                served_order,
                latency: submitted.elapsed(),
            }),
        }
    }

    /// A ticket for a cache slot: resolved when the slot is, pending on
    /// its completion otherwise.
    fn resolve(&self, state: SlotState, outcome: Outcome, submitted: Instant) -> Ticket<'_> {
        let result = match state {
            SlotState::Ready(artifact) => Ok(artifact),
            SlotState::Failed { error, .. } => Err(error),
            SlotState::Pending(completion) => {
                return Ticket {
                    _service: self,
                    state: TicketState::Pending {
                        completion,
                        outcome,
                        submitted,
                    },
                }
            }
        };
        self.ready(result, outcome, submitted)
    }

    /// Swaps in a new calibration table (or removes it), bumps the
    /// epoch, and invalidates exactly the cached entries that consumed
    /// calibration — including their disk spills, so a later restart
    /// cannot resurrect a stale-epoch VIC artifact. In-flight compiles
    /// of invalidated keys complete against the context their
    /// requesters saw at admission — their waiters get the pre-reload
    /// artifact they asked for — but the cache forgets them, so
    /// post-reload requests always recompile. Returns the number of
    /// invalidated entries.
    pub fn reload_calibration(&self, calibration: Option<Calibration>) -> usize {
        let calibration_fp = calibration.as_ref().map(Calibration::fingerprint);
        let mut inner = self.shared.inner.lock().expect("service lock");
        let topology = inner.context.topology().clone();
        inner.context = Arc::new(HardwareContext::from_parts(topology, calibration));
        inner.epoch += 1;
        inner.epoch_bumps += 1;
        let dropped = inner.cache.invalidate_calibration_dependent();
        let reload_event = JournalEvent::new(inner.now, "calibration_reload")
            .field("epoch", inner.epoch)
            .field("invalidated", dropped.len() as u64);
        inner.ops.journal.push(reload_event);
        if let Some(store) = &self.shared.spill {
            for victim in &dropped {
                store.unlink(*victim);
            }
            let _ = store.write_meta(inner.epoch, calibration_fp);
        }
        dropped.len()
    }

    /// Lifts the quarantine of `spec_fp` (and clears its strikes), e.g.
    /// after a compiler fix ships. Returns whether it was quarantined.
    pub fn release_quarantine(&self, spec_fp: u64) -> bool {
        let mut inner = self.shared.inner.lock().expect("service lock");
        let released = inner.poison.release(spec_fp);
        if released {
            let event = JournalEvent::new(inner.now, "quarantine_release").spec(spec_fp);
            inner.ops.journal.push(event);
        }
        released
    }

    /// The current calibration epoch (starts at 0 or the recovered
    /// spill epoch, +1 per reload).
    pub fn epoch(&self) -> u64 {
        self.shared.inner.lock().expect("service lock").epoch
    }

    /// A snapshot of the deterministic service counters.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.shared.inner.lock().expect("service lock");
        inner.stats(self.shared.spill.as_ref())
    }

    /// Runs one queued job inline on the calling thread, if any. With
    /// `workers: 0` this is the only way jobs execute, which gives tests
    /// full control over completion order.
    pub fn drain_one(&self) -> bool {
        let job = {
            let mut inner = self.shared.inner.lock().expect("service lock");
            pop_job(&mut inner)
        };
        match job {
            Some(job) => {
                execute(&self.shared, job);
                true
            }
            None => false,
        }
    }

    /// Emits the `qserve/*` qtrace series from one [`ServiceStats`]
    /// snapshot, plus the per-tenant and per-spec series of the ops
    /// registry. Counters accumulate in the recorder, so call it once
    /// per service before draining a manifest. Counters are emitted only
    /// when nonzero — so fault-free manifests carry no fault-plane
    /// series — except `qserve/cache/invalidated`, which every service
    /// that reloaded calibration emits, even at 0. Two runs with equal
    /// `qserve/cache/sequence_fp` gauges served identical outcome
    /// sequences; the gauge carries the 32-bit xor-fold of
    /// [`ServiceStats::sequence_fp`], because manifest numbers must stay
    /// exactly representable as f64 (`qtrace::json` rejects integers
    /// beyond 2^53 on read-back) and the fold keeps sensitivity to
    /// every admission in the sequence.
    pub fn flush_telemetry(&self) {
        let inner = self.shared.inner.lock().expect("service lock");
        let s = inner.stats(self.shared.spill.as_ref());
        let q = qtrace::global();
        let nonzero = |value: u64| (value > 0).then_some(value);
        let counters = [
            ("qserve/requests", nonzero(s.requests)),
            ("qserve/cache/hits", nonzero(s.hits)),
            ("qserve/cache/misses", nonzero(s.misses)),
            ("qserve/cache/evictions", nonzero(s.evictions)),
            // A reload emits its count even when it dropped nothing.
            (
                "qserve/cache/invalidated",
                (s.epoch_bumps > 0).then_some(s.invalidated),
            ),
            ("qserve/shed", nonzero(s.shed)),
            ("qserve/rejected", nonzero(s.rejected)),
            ("qserve/epoch_bumps", nonzero(s.epoch_bumps)),
            ("qserve/negative/expired", nonzero(s.negative_expired)),
            ("qserve/quarantine/rejects", nonzero(s.quarantine_rejects)),
            ("qserve/quarantine/new", nonzero(s.quarantine_adds)),
            ("qserve/breaker/rejects", nonzero(s.breaker_rejects)),
            ("qserve/breaker/trips", nonzero(s.breaker_trips)),
            ("qserve/throttled", nonzero(s.throttled)),
            ("qserve/deadline/reaped", nonzero(s.deadline_reaped)),
            ("qserve/deadline/cancelled", nonzero(s.cancelled)),
            ("qserve/spill/saved", nonzero(s.spill_saved)),
            ("qserve/spill/recovered", nonzero(s.spill_recovered)),
            ("qserve/spill/corrupt", nonzero(s.spill_corrupt)),
            ("qserve/spill/stale", nonzero(s.spill_stale)),
        ];
        for (name, value) in counters {
            if let Some(value) = value {
                q.add(name, value);
            }
        }
        let fp = s.sequence_fp;
        q.gauge_max("qserve/cache/sequence_fp", (fp >> 32) ^ (fp & 0xffff_ffff));
        q.gauge_max("qserve/cache/entries", s.cached_entries as u64);
        if s.quarantined_specs > 0 {
            q.gauge_max("qserve/quarantine/entries", s.quarantined_specs);
        }
        inner.ops.flush_metrics(q);
        for (idx, breaker) in inner.breakers.iter().enumerate() {
            let code = breaker.state_code();
            if code > 0 {
                q.gauge_max(&format!("qserve/tenant/{idx}/breaker_state"), code);
            }
        }
        if let Some(buckets) = inner.buckets.as_ref() {
            for (idx, bucket) in buckets.iter().enumerate() {
                q.gauge_max(
                    &format!("qserve/tenant/{idx}/bucket_level"),
                    bucket.level(inner.now),
                );
            }
        }
        let dropped = inner.ops.lifecycle.dropped();
        if dropped > 0 {
            q.gauge_max("qserve/ops/lifecycle_dropped", dropped);
        }
    }

    /// Drains the ops journal: every failure-plane action since the last
    /// drain, in deterministic occurrence order. Render with
    /// [`crate::ops::render_journal`].
    pub fn take_journal(&self) -> Vec<JournalEvent> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.ops.journal.take()
    }

    /// Drains the request lifecycle log: one trace per admitted request,
    /// in admission (request-id) order. Render with
    /// [`crate::ops::render_lifecycle`] or export via
    /// [`crate::ops::lifecycle_manifest`].
    pub fn take_lifecycle(&self) -> Vec<RequestTrace> {
        let mut inner = self.shared.inner.lock().expect("service lock");
        inner.ops.lifecycle.take()
    }

    /// How many lifecycle records were dropped to the capacity bound
    /// since startup. Zero in every deterministic-campaign baseline.
    pub fn lifecycle_dropped(&self) -> u64 {
        let inner = self.shared.inner.lock().expect("service lock");
        inner.ops.lifecycle.dropped()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("service lock");
            inner.shutdown = true;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[derive(Clone, Copy)]
enum AdmitMode {
    Queue,
    Inline,
}

impl Inner {
    /// The service counters, each read from the one structure that owns
    /// it: per-request outcomes summed over the tenant registry,
    /// per-event counts from the cache, deadline plane, poison ledger,
    /// breakers and spill store.
    fn stats(&self, spill: Option<&SpillStore>) -> ServiceStats {
        let mut s = ServiceStats {
            evictions: self.cache.evictions,
            invalidated: self.cache.invalidated,
            negative_expired: self.cache.negative_expired,
            epoch_bumps: self.epoch_bumps,
            epoch: self.epoch,
            cached_entries: self.cache.len(),
            queued: self.queued,
            sequence_fp: self.ops.sequence_fp,
            deadline_reaped: self.deadline_reaped,
            cancelled: self.inflight.cancelled,
            quarantined_specs: self.poison.len() as u64,
            quarantine_adds: self.poison.added,
            breaker_trips: self.breakers.iter().map(|b| b.trips).sum(),
            breakers_open: self.breakers.iter().filter(|b| b.is_open()).count() as u64,
            now_tick: self.now,
            ..ServiceStats::default()
        };
        if let Some(store) = spill {
            s.spill_saved = store.saved();
            s.spill_recovered = store.recovered;
            s.spill_corrupt = store.corrupt;
            s.spill_stale = store.stale;
        }
        for m in &self.ops.tenants {
            s.requests += m.requests;
            s.hits += m.hits;
            s.misses += m.misses;
            s.shed += m.shed;
            s.rejected += m.rejected;
            s.quarantine_rejects += m.quarantined;
            s.breaker_rejects += m.breaker_open;
            s.throttled += m.throttled;
        }
        s
    }
}

/// Returns an undispatched probe slot to the tenant's breaker and
/// journals the abort, so a half-open breaker is never left wedged by
/// an admission that terminated before reaching a worker.
fn abort_probe(inner: &mut Inner, tenant_idx: usize, now: u64, req_id: u64) {
    inner.breakers[tenant_idx].abort_probe(now);
    inner.ops.journal.push(
        JournalEvent::new(now, "breaker_probe_abort")
            .tenant(tenant_idx as u32)
            .request(req_id),
    );
}

/// Sweeps the deadline plane at the current clock: reaps expired queued
/// jobs (their waiters get [`ServeError::DeadlineExceeded`], their
/// reservations are forgotten — a deadline lapse is not a negative
/// verdict on the key) and cancels expired in-flight compiles. Runs
/// under the admission lock on every clock movement.
fn sweep_deadlines(inner: &mut Inner, served: &AtomicU64) {
    let now = inner.now;
    let mut reaped: Vec<Job> = Vec::new();
    for queue in &mut inner.queues {
        for _ in 0..queue.len() {
            let job = queue.pop_front().expect("iterating queue.len() items");
            if job.deadline.is_some_and(|d| now > d) {
                reaped.push(job);
            } else {
                queue.push_back(job);
            }
        }
    }
    inner.queued -= reaped.len();
    inner.deadline_reaped += reaped.len() as u64;
    for job in reaped {
        inner.cache.forget(job.fp, job.id);
        if job.probe {
            // The probe never reached a worker, so no completion will
            // decide it: return the slot instead of leaving the
            // tenant's breaker wedged in half-open.
            abort_probe(inner, job.origin.tenant, now, job.origin.req_id);
        }
        let error = ServeError::DeadlineExceeded {
            deadline: job.deadline.expect("reaped implies a deadline"),
            now,
        };
        // Pending-hit waiters parked on this reservation share its
        // fate: the fill below resolves them all with the same
        // DeadlineExceeded, so their terminal is the same reap at the
        // same sweep tick.
        inner.ops.settle(
            &job.origin,
            job.id,
            Stage::Reaped,
            Some(now),
            Some(error.code()),
        );
        let served_order = served.fetch_add(1, Ordering::SeqCst) + 1;
        job.completion.fill(Err(error), served_order);
    }
    inner.inflight.sweep(now);
}

/// Round-robin pop across tenant queues, resuming after the last-served
/// tenant so a busy tenant cannot starve the others. Dispatched
/// deadline-bearing jobs are registered with the in-flight sweep so a
/// later clock movement can cancel them mid-compile.
fn pop_job(inner: &mut Inner) -> Option<Job> {
    let tenants = inner.queues.len();
    for offset in 0..tenants {
        let idx = (inner.rr_cursor + offset) % tenants;
        if let Some(job) = inner.queues[idx].pop_front() {
            inner.rr_cursor = (idx + 1) % tenants;
            inner.queued -= 1;
            if let Some(deadline) = job.deadline {
                inner.inflight.register(job.id, deadline, job.token.clone());
            }
            // Dispatch is scheduler-dependent, so it is stamped with the
            // admit tick: the lifecycle log stays a pure function of the
            // request stream regardless of worker count.
            inner
                .ops
                .lifecycle
                .push(job.origin.req_id, Stage::Dispatched, job.origin.admit_tick);
            return Some(job);
        }
    }
    None
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut inner = shared.inner.lock().expect("service lock");
            loop {
                if let Some(job) = pop_job(&mut inner) {
                    break Some(job);
                }
                if inner.shutdown {
                    break None;
                }
                inner = shared.work.wait(inner).expect("service lock");
            }
        };
        match job {
            Some(job) => execute(shared, job),
            None => return,
        }
    }
}

/// Compiles one reserved job and publishes the result: cache state
/// first (so later admissions see `Ready`/`Failed` directly), then the
/// completion slot for the waiters. Panics are contained exactly like
/// `qcompile::compile_batch` does it; injected service faults (worker
/// panics, virtual stalls) detonate here, keyed by the job's compile
/// admission ordinal.
fn execute(shared: &Shared, job: Job) {
    let dispatched_at = Instant::now();
    let fault = shared
        .fault_plane
        .as_ref()
        .and_then(|plane| plane.fault_for(job.fault_seq));
    if let Some(ServiceFault::SlowCompile { ticks }) = fault {
        // A virtual stall: if losing `ticks` to it would blow the
        // job's deadline, the compile is cancelled exactly as a real
        // sweep would — no wall-clock sleeping, so the campaign stays
        // fast and deterministic.
        if job
            .deadline
            .is_some_and(|deadline| job.origin.admit_tick + ticks > deadline)
        {
            job.token.cancel();
        }
    }
    let inject_panic = matches!(fault, Some(ServiceFault::WorkerPanic));
    let compile_start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected worker panic (fault plane)");
        }
        let mut rng = StdRng::seed_from_u64(job.seed);
        try_compile_artifact_with_context_cancellable(
            &job.key.spec,
            &job.context,
            &job.key.options,
            &mut rng,
            &job.token,
        )
    }));
    let compile_elapsed = compile_start.elapsed();
    let panicked = attempt.is_err();
    let attempt = attempt.unwrap_or_else(|_| {
        Err(CompileError::Internal(format!(
            "compile worker panicked (spec {:#018x}, tenant {})",
            job.spec_fp, job.tenant
        )))
    });
    let timed_out = matches!(attempt, Err(CompileError::Cancelled));
    let deadline_error = timed_out.then_some(job.deadline).flatten();
    let result: Result<Arc<CompiledArtifact>, ServeError> = match attempt {
        Ok(artifact) => Ok(Arc::new(artifact)),
        // A deadline cancellation surfaces as the service-level error,
        // not a compiler internal.
        Err(CompileError::Cancelled) if deadline_error.is_some() => {
            Err(ServeError::DeadlineExceeded {
                deadline: deadline_error.expect("guarded by is_some"),
                now: 0, // patched to the completion tick under the lock
            })
        }
        Err(e) => Err(ServeError::Compile(e)),
    };
    // Spill before publishing: recovery independently verifies bytes,
    // so an orphaned file (entry evicted mid-compile) is harmless and
    // unlinked below.
    let spilled = match (&result, &shared.spill) {
        (Ok(artifact), Some(store)) => store
            .save(job.fp, &job.key, artifact)
            .is_ok()
            .then_some(store),
        _ => None,
    };
    let served_order = shared.served.fetch_add(1, Ordering::SeqCst) + 1;
    let result = {
        let mut inner = shared.inner.lock().expect("service lock");
        let now = inner.now;
        let tenant_idx = job.origin.tenant;
        inner.inflight.complete(job.id);
        // Patch the completion tick into a deadline error.
        let result = match result {
            Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                Err(ServeError::DeadlineExceeded { deadline, now })
            }
            other => other,
        };
        // Negative-cache policy: failures that retrying can plausibly
        // fix (recoverable errors, timeouts, panics) get a backoff TTL;
        // structurally invalid programs are cached forever.
        let (expires_at, strikes) = match &result {
            Ok(_) => (None, 0),
            Err(error) => {
                let strikes = job.strikes + 1;
                let retryable = panicked
                    || timed_out
                    || matches!(
                        error,
                        ServeError::Compile(e) if e.recoverable()
                    );
                let expires_at = retryable.then(|| now + inner.backoff.ttl(job.fp, strikes));
                (expires_at, strikes)
            }
        };
        if let Some(expiry) = expires_at {
            inner.ops.journal.push(
                JournalEvent::new(now, "negative_strike")
                    .tenant(tenant_idx as u32)
                    .spec(job.spec_fp)
                    .request(job.origin.req_id)
                    .field("strikes", u64::from(strikes))
                    .field("ttl", expiry.saturating_sub(now)),
            );
        }
        let live = inner
            .cache
            .complete(job.fp, job.id, &result, expires_at, strikes);
        if let Some(store) = spilled {
            store.settle(job.fp, live);
        }
        // Poison ledger: panics and deadline timeouts strike the
        // *program*; enough of them quarantine it under every option
        // set.
        let verdict = if panicked {
            inner.poison.strike_panic(job.spec_fp)
        } else if timed_out {
            inner.poison.strike_timeout(job.spec_fp)
        } else {
            None
        };
        if let Some(reason) = verdict {
            let total = match reason {
                QuarantineReason::Panicked { strikes } | QuarantineReason::TimedOut { strikes } => {
                    strikes
                }
            };
            inner.ops.journal.push(
                JournalEvent::new(now, "quarantine_add")
                    .tenant(tenant_idx as u32)
                    .spec(job.spec_fp)
                    .request(job.origin.req_id)
                    .note(reason.label())
                    .field("strikes", u64::from(total)),
            );
        }
        // The tenant's breaker watches every compile completion.
        match inner.breakers[tenant_idx].record(now, result.is_ok()) {
            BreakerTransition::Tripped => {
                inner.ops.journal.push(
                    JournalEvent::new(now, "breaker_trip")
                        .tenant(tenant_idx as u32)
                        .request(job.origin.req_id),
                );
            }
            BreakerTransition::Closed => {
                inner.ops.journal.push(
                    JournalEvent::new(now, "breaker_close")
                        .tenant(tenant_idx as u32)
                        .request(job.origin.req_id),
                );
            }
            BreakerTransition::None => {}
        }
        // Terminal lifecycle stamp, shared with the pending-hit waiters
        // parked on this reservation: the completion hands them this
        // exact result. Completion/failure order across workers is
        // scheduler-dependent, so scheduler-reached terminals are
        // stamped with each request's admit tick; a deadline
        // cancellation is stamped with the deadline itself. Either way
        // the stamp is a pure function of the request stream.
        let (stage, stamp) = match &result {
            Ok(_) => (Stage::Completed, None),
            Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                (Stage::Cancelled, Some(*deadline))
            }
            Err(_) => (Stage::Failed, None),
        };
        let error = result.as_ref().err().map(ServeError::code);
        inner.ops.settle(&job.origin, job.id, stage, stamp, error);
        inner.ops.observe_execution(
            tenant_idx,
            dispatched_at.saturating_duration_since(job.origin.admit_at),
            compile_elapsed,
        );
        result
    };
    job.completion.fill(result, served_order);
}
