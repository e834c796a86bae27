//! The serving workloads: a seeded request stream against one `qserve`
//! service, driven from this thread in two phases — an open loop at
//! fixed due times (latency counted from each request's due time) and
//! back-to-back bursts for capacity — interleaved in rounds so that each
//! phase samples the whole run.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use qcompile::{CompileOptions, CompiledArtifact, QaoaSpec};
use qhw::{Calibration, HardwareContext, Topology};
use qserve::{spec_fingerprint, CacheKey, Outcome, Request, Response, Service, ServiceConfig};
use qserve::{ServiceStats, Ticket};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check;
use crate::report::RunResult;
use crate::stats::{timed, Ledger, Samples};
use crate::trace::record_passes;

/// One cacheable compile product of the key universe.
#[derive(Debug, Clone)]
pub struct ServeKey {
    /// The parametric program.
    pub spec: QaoaSpec,
    /// The requested strategy.
    pub options: CompileOptions,
    /// The compile seed (fixed per key, so a direct compile can
    /// reproduce the served artifact).
    pub seed: u64,
}

/// One open-loop request: when it is due and what it asks for.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Index into [`ServePlan::keys`].
    pub key: u32,
    /// Tenant tag.
    pub tenant: u32,
}

/// A whole serving run, generated from the seed at set-up.
pub struct ServePlan {
    /// The device.
    pub topology: Topology,
    /// The calibration the service starts with.
    pub calibration: Calibration,
    /// The calibration reloaded mid-run, if any.
    pub reload: Option<Calibration>,
    /// The key universe.
    pub keys: Vec<ServeKey>,
    /// `keys[..warm]` are compiled into the cache at set-up.
    pub warm: usize,
    /// Open-loop arrivals, by due time.
    pub arrivals: Vec<Arrival>,
    /// The arrival index before which the calibration reloads.
    pub reload_at: Option<usize>,
    /// Keys of the back-to-back phase, in order (sliced over rounds).
    pub burst: Vec<u32>,
    /// Rounds the run is split into.
    pub rounds: usize,
    /// Deadline (logical ticks) every request carries.
    pub deadline: Option<u64>,
    /// Service sizing.
    pub config: ServiceConfig,
}

impl ServePlan {
    /// The request for `key` from `tenant`.
    fn request(&self, key: u32, tenant: u32) -> Request {
        let k = &self.keys[key as usize];
        let mut request = Request::new(tenant, k.spec.clone(), k.options, k.seed);
        request.deadline = self.deadline;
        request
    }

    /// Starts the service and compiles the warm keys into its cache.
    pub fn start(&self) -> Service {
        let service = Service::new(
            self.topology.clone(),
            Some(self.calibration.clone()),
            self.config.clone(),
        );
        for key in 0..self.warm {
            service.warm(self.request(key as u32, key as u32));
        }
        service
    }
}

/// What the serving phases measured.
#[derive(Debug, Default)]
pub struct ServeTally {
    /// Open-loop hit latency from due time.
    pub hits: Samples,
    /// Open-loop miss latency from due time until the ticket resolves.
    pub misses: Samples,
    /// How late the generator submitted each open-loop request.
    pub lags: Samples,
    /// Requests that completed with an artifact.
    pub completed: u64,
    /// Open-loop wall time, summed over segments.
    pub open_wall: Duration,
    /// Back-to-back phase wall time, first submit until the last ticket
    /// resolved, summed over rounds.
    pub burst_wall: Duration,
    /// Back-to-back requests submitted.
    pub burst_requests: usize,
    /// Requests per second of each back-to-back burst.
    pub burst_rates: Vec<f64>,
    /// Artifacts seen per (key, calibration epoch), held weakly so the
    /// tally never keeps an evicted artifact alive.
    seen: BTreeMap<(u32, u8), Vec<Weak<CompiledArtifact>>>,
    /// Artifacts served for the first time since the verifier last ran.
    fresh: Vec<((u32, u8), Arc<CompiledArtifact>)>,
    /// Service counters over both phases.
    pub stats: ServiceStats,
}

impl ServeTally {
    /// Books one response.
    fn settle(
        &mut self,
        key: (u32, u8),
        outcome: Outcome,
        response: Response,
        latency: Option<Duration>,
        ledger: &mut Ledger,
        result: &mut RunResult,
    ) {
        result.attempted += 1;
        let artifact = match response.result {
            Ok(artifact) => artifact,
            Err(e) => {
                result.failed_ops += 1;
                result
                    .facts
                    .entry("first_service_error")
                    .or_insert(e.to_string());
                return;
            }
        };
        match (outcome, latency) {
            (Outcome::Hit, Some(l)) => self.hits.push_chunked(l, HIT_CHUNK),
            (Outcome::Miss, Some(l)) => self.misses.push(l),
            (Outcome::Hit | Outcome::Miss, None) => {}
            (other, _) => {
                // Shed requests get an artifact, but not the one asked for.
                result.failed_ops += 1;
                result
                    .facts
                    .entry("first_service_error")
                    .or_insert(format!("{other:?}"));
                return;
            }
        }
        self.completed += 1;
        let seen = self.seen.entry(key).or_default();
        if !seen
            .iter()
            .any(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(&artifact)))
        {
            if outcome == Outcome::Miss {
                record_passes(ledger, artifact.template().trace());
            }
            // A dead weak's allocation is still reserved, so its address
            // cannot be reused by a later artifact; dropping it here is
            // what lets that memory go.
            seen.retain(|w| w.strong_count() > 0);
            seen.push(Arc::downgrade(&artifact));
            self.fresh.push((key, artifact));
        }
    }
}

/// Open-loop hits in one chunk of [`ServeTally::hits`] (tens of
/// milliseconds of the open loop).
pub const HIT_CHUNK: usize = 1024;

/// Most requests in one back-to-back burst (a round's slice at 30 s,
/// about 50 ms). Nearly every burst holds a miss, whose wait for the
/// service worker to wake can take a millisecond or more on a virtual
/// machine; a long burst keeps that wait a small part of its time.
pub const BURST_CHUNK: usize = 8192;

/// Keys the reference compile sweep of every round compiles: all of
/// `serve_hot`'s, a fixed slice of `serve_cold`'s.
pub const SWEEP_KEYS: usize = 96;

/// A ticket still waiting on a compile.
struct Pending<'a> {
    key: (u32, u8),
    outcome: Outcome,
    lag: Duration,
    ticket: Ticket<'a>,
}

/// Spins until `due` after `start`. The generator never sleeps: on a
/// virtual machine a sleeping CPU may be descheduled, and waking it
/// again can take milliseconds, which would read as request latency.
fn wait_until(start: Instant, due: Duration) {
    while start.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// Resolves pending tickets: all of them, or only those already ready.
fn collect(
    pending: &mut Vec<Pending<'_>>,
    only_ready: bool,
    tally: &mut ServeTally,
    ledger: &mut Ledger,
    result: &mut RunResult,
) {
    let mut i = 0;
    while i < pending.len() {
        if only_ready && !pending[i].ticket.is_ready() {
            i += 1;
            continue;
        }
        let p = pending.swap_remove(i);
        let (response, waited) = timed(|| p.ticket.wait());
        ledger.record("qserve.wait", waited);
        let latency = p.lag + response.latency;
        tally.settle(p.key, p.outcome, response, Some(latency), ledger, result);
    }
}

/// Times, from outside, the fingerprinting admission does under its
/// lock: the spec hash and the cache-key hash.
fn time_fingerprint(request: &Request, topology_fp: u64, epoch: u64, ledger: &mut Ledger) {
    let key = CacheKey::new(request.spec.clone(), request.options, topology_fp, epoch);
    let (fp, elapsed) = timed(|| {
        std::hint::black_box(spec_fingerprint(&key.spec)) ^ std::hint::black_box(key.fingerprint())
    });
    std::hint::black_box(fp);
    ledger.record("qserve.fingerprint", elapsed);
}

/// Checks served artifacts as they appear: every distinct artifact must
/// equal a direct compile of its key and seed against the calibration of
/// its epoch, and respect the coupling map. Untimed; the depth and CNOT
/// count of every checked artifact are kept for `depth_mean` and
/// `cx_mean`. Each round it also times a direct compile of each of the
/// first [`SWEEP_KEYS`] keys, the same work every round, for
/// `compile_p50_us`.
pub struct Verifier {
    contexts: Vec<Arc<HardwareContext>>,
    /// Direct compile times of the sweeps, one chunk per round.
    pub compiles: Samples,
    /// Basis depth of each checked artifact.
    pub depth: Vec<f64>,
    /// CNOT count of each checked artifact.
    pub cx: Vec<f64>,
}

impl Verifier {
    /// A verifier for `plan`'s device and calibrations.
    pub fn new(plan: &ServePlan) -> Verifier {
        let contexts = [Some(&plan.calibration), plan.reload.as_ref()]
            .into_iter()
            .flatten()
            .map(|cal| {
                Arc::new(HardwareContext::from_parts(
                    plan.topology.clone(),
                    Some(cal.clone()),
                ))
            })
            .collect();
        Verifier {
            contexts,
            compiles: Samples::default(),
            depth: Vec::new(),
            cx: Vec::new(),
        }
    }

    /// Times a direct compile of each of the first [`SWEEP_KEYS`] keys
    /// against the calibration of `epoch`, as one chunk.
    pub fn sweep(&mut self, plan: &ServePlan, epoch: u8, result: &mut RunResult) {
        let context = &self.contexts[usize::from(epoch).min(self.contexts.len() - 1)];
        for k in plan.keys.iter().take(SWEEP_KEYS) {
            let mut rng = StdRng::seed_from_u64(k.seed);
            let (compiled, elapsed) = timed(|| {
                qcompile::try_compile_artifact_with_context(&k.spec, context, &k.options, &mut rng)
            });
            result.attempted += 1;
            match compiled {
                Ok(_) => self.compiles.push(elapsed),
                Err(e) => result.fail(format!("sweep compile failed: {e}")),
            }
        }
        self.compiles.cut();
    }

    /// Checks, then releases, every artifact served for the first time
    /// since the last call.
    pub fn check_fresh(
        &mut self,
        plan: &ServePlan,
        tally: &mut ServeTally,
        result: &mut RunResult,
    ) {
        for ((key, epoch), artifact) in tally.fresh.drain(..) {
            let k = &plan.keys[key as usize];
            let context = &self.contexts[usize::from(epoch).min(self.contexts.len() - 1)];
            let mut rng = StdRng::seed_from_u64(k.seed);
            let reference =
                qcompile::try_compile_artifact_with_context(&k.spec, context, &k.options, &mut rng);
            result.attempted += 1;
            let verdict = reference
                .map_err(|e| format!("direct compile failed: {e}"))
                .and_then(|reference| check::same_artifact(&artifact, &reference))
                .and_then(|()| check::coupling(artifact.template(), &plan.topology));
            if let Err(e) = verdict {
                result.fail(format!("key {key} (epoch {epoch}): {e}"));
            }
            self.depth.push(artifact.template().depth() as f64);
            self.cx.push(artifact.template().cx_count() as f64);
        }
    }
}

/// Runs `plan` against `service` in `plan.rounds` rounds. Each round is
/// an open-loop segment (its requests resolved before it ends), a
/// back-to-back slice of the burst, the reference compile sweep, the
/// check of newly served artifacts and then `between_rounds`. The open-loop schedule pauses outside its
/// segments, so due times never fall inside another phase.
pub fn drive(
    plan: &ServePlan,
    service: &Service,
    ledger: &mut Ledger,
    result: &mut RunResult,
    between_rounds: &mut dyn FnMut(&mut RunResult),
) -> (ServeTally, Verifier) {
    let mut tally = ServeTally::default();
    let mut verifier = Verifier::new(plan);
    let before = service.stats();
    let topology_fp = plan.topology.fingerprint();
    let mut epoch = 0u8;
    let mut queue_max = 0usize;
    let traced = ledger.traced();
    let rounds = plan.rounds.max(1);
    let horizon = plan.arrivals.last().map_or(0, |a| a.due_ns + 1);
    let segment_ns = horizon.div_ceil(rounds as u64).max(1);
    let burst_slice = plan.burst.len().div_ceil(rounds);
    let mut next = 0usize;

    for round in 0..rounds {
        // Open-loop segment.
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let offset = round as u64 * segment_ns;
        let start = Instant::now();
        while next < plan.arrivals.len() && plan.arrivals[next].due_ns < offset + segment_ns {
            let i = next;
            let arrival = plan.arrivals[i];
            next += 1;
            if plan.reload_at == Some(i) {
                if let Some(calibration) = &plan.reload {
                    service.reload_calibration(Some(calibration.clone()));
                    epoch = 1;
                }
            }
            let due = Duration::from_nanos(arrival.due_ns - offset);
            wait_until(start, due);
            let request = plan.request(arrival.key, arrival.tenant);
            if traced {
                time_fingerprint(&request, topology_fp, u64::from(epoch), ledger);
            }
            let submit_at = start.elapsed();
            let ticket = service.submit(request);
            let returned = start.elapsed();
            let outcome = ticket.outcome();
            let layer = if outcome == Outcome::Hit {
                "qserve.submit_hit"
            } else {
                "qserve.submit_miss"
            };
            ledger.record(layer, returned - submit_at);
            let lag = submit_at.saturating_sub(due);
            tally.lags.push(lag);
            let key = (arrival.key, epoch);
            if outcome == Outcome::Hit && ticket.is_ready() {
                let (response, waited) = timed(|| ticket.wait());
                ledger.record("qserve.wait", waited);
                let latency = returned.saturating_sub(due);
                tally.settle(key, outcome, response, Some(latency), ledger, result);
            } else {
                pending.push(Pending {
                    key,
                    outcome,
                    lag,
                    ticket,
                });
            }
            if i % 64 == 63 {
                collect(&mut pending, true, &mut tally, ledger, result);
                if traced {
                    queue_max = queue_max.max(service.stats().queued);
                }
            }
        }
        collect(&mut pending, false, &mut tally, ledger, result);
        tally.open_wall += start.elapsed();
        tally.hits.cut();
        tally.misses.cut();

        // Back-to-back: the slice in bursts of BURST_CHUNK, each
        // submitted, then waited for.
        let end = plan.burst.len().min((round + 1) * burst_slice);
        let slice = &plan.burst[(round * burst_slice).min(end)..end];
        for burst in slice.chunks(BURST_CHUNK) {
            let start = Instant::now();
            let mut tickets = Vec::with_capacity(burst.len());
            for (i, &key) in burst.iter().enumerate() {
                let request = plan.request(key, key);
                if traced {
                    time_fingerprint(&request, topology_fp, u64::from(epoch), ledger);
                }
                let (ticket, submitted) = timed(|| service.submit(request));
                let layer = if ticket.outcome() == Outcome::Hit {
                    "qserve.submit_hit"
                } else {
                    "qserve.submit_miss"
                };
                ledger.record(layer, submitted);
                tickets.push((key, ticket));
                if traced && i % 64 == 63 {
                    queue_max = queue_max.max(service.stats().queued);
                }
            }
            for (key, ticket) in tickets {
                let outcome = ticket.outcome();
                let (response, waited) = timed(|| ticket.wait());
                ledger.record("qserve.wait", waited);
                tally.settle((key, epoch), outcome, response, None, ledger, result);
            }
            let elapsed = start.elapsed();
            tally.burst_wall += elapsed;
            tally.burst_requests += burst.len();
            tally
                .burst_rates
                .push(burst.len() as f64 / elapsed.as_secs_f64());
        }

        verifier.sweep(plan, epoch, result);
        verifier.check_fresh(plan, &mut tally, result);
        between_rounds(result);
    }

    let after = service.stats();
    tally.stats = ServiceStats {
        requests: after.requests - before.requests,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        shed: after.shed - before.shed,
        rejected: after.rejected - before.rejected,
        invalidated: after.invalidated - before.invalidated,
        deadline_reaped: after.deadline_reaped - before.deadline_reaped,
        ..after
    };
    ledger.set("qserve.queue_depth.max", queue_max as f64);
    (tally, verifier)
}
