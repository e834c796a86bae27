//! The three workloads and the metrics each run reports.
//!
//! * `paper_arg` — the paper's ARG loop on ibmq_16_melbourne; the
//!   simulator layers do nearly all the work.
//! * `serve_hot` — hit-dominated serving of fig09-class programs on
//!   ibmq_20_tokyo; admission, fingerprinting and cache lookup dominate.
//! * `serve_cold` — miss-dominated serving of 20–40-node programs on a
//!   129-qubit heavy-hex device; compile passes and queue wait dominate.
//!
//! Every workload reports every end-to-end metric. The serve workloads
//! take the paper-path metrics (`eval_*`, `approx_ratio`, `arg_pct`)
//! from a fixed paper probe stepped after every round; `paper_arg`
//! compiles through the compile service and a second client re-fetches
//! its artifacts back to back, which gives it the serving metrics.

use std::time::{Duration, Instant};

use qaoa::MaxCut;
use qcompile::{CompileOptions, QaoaSpec};
use qgraph::generators;
use qhw::{Calibration, Topology};
use qserve::{Outcome, Request, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host;
use crate::paper::{self, mix, PaperConfig, PaperSession, PaperTally};
use crate::report::{RunResult, LAYERS, LAYER_EXTRAS};
use crate::serve::{self, Arrival, ServeKey, ServePlan, ServeTally};
use crate::stats::{fast_high, mean, median, timed, Ledger, Samples};
use crate::trace::service_histograms;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper_arg", "serve_hot"];

/// Workloads that run by hand but are not in `BENCHMARK.json`: on a
/// two-CPU virtual machine their figures move with where the host places
/// the two CPUs (see `README.md`), beyond any bound the benchmark may set.
pub const EXTRA_WORKLOADS: &[&str] = &["serve_cold"];

/// Seed of the paper probe the serve workloads run: fixed, so the probe
/// does the same work on every run.
pub const PROBE_SEED: u64 = 0x11B_A26;

/// Least share of `paper_arg`'s busy time its named layers must account
/// for in a traced run.
pub const MIN_COVERAGE_PERMILLE: f64 = 900.0;

/// How one run is invoked.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Record per-layer spans and report per-layer metrics.
    pub traced: bool,
    /// Shrink every size so unoptimized test builds finish quickly.
    pub tiny: bool,
}

/// Runs `workload`.
///
/// # Errors
///
/// Names an unknown workload.
pub fn run(workload: &str, settings: &Settings) -> Result<RunResult, String> {
    match workload {
        "paper_arg" => Ok(paper_arg(settings)),
        "serve_hot" => Ok(serve_workload(settings, hot_plan)),
        "serve_cold" => Ok(serve_workload(settings, cold_plan)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?})"
        )),
    }
}

/// Service workers: one thread is the load generator, the rest of the
/// host's CPUs compile (at least one).
fn service_workers() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

/// Builds with `build` `times` times, keeping the last result, and
/// returns it with the median build time in seconds.
fn set_up<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut kept = None;
    let mut seconds = Vec::with_capacity(times);
    for _ in 0..times {
        // Tear the previous copy down first, so no two services (and
        // their worker threads) are ever alive together.
        drop(kept.take());
        let (value, elapsed) = timed(&mut build);
        seconds.push(elapsed.as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("set-up runs at least once"), median(&seconds))
}

/// Set-up repetitions: the reported `setup_s` is their median.
fn setups(settings: &Settings) -> usize {
    if settings.tiny {
        1
    } else {
        9
    }
}

/// `<prefix>_p50_us`, the gated tail `<prefix>_p<tail>_us` and the
/// ungated `tail.<prefix>_p99_us` (see [`Samples::robust_us`]). On a
/// shared virtual machine the 1% tail mostly measures host stalls, too
/// unsteady to gate on; `tail` is the highest percentile that reads
/// steadily there.
fn put_quantiles(result: &mut RunResult, prefix: &str, tail: u32, samples: &Samples) {
    for (name, q) in [
        (format!("{prefix}_p50_us"), 0.50),
        (format!("{prefix}_p{tail}_us"), f64::from(tail) / 100.0),
        (format!("tail.{prefix}_p99_us"), 0.99),
    ] {
        result.metric(&name, samples.robust_us(q), samples.len());
    }
}

/// Gated tail percentile of hits and misses. On `serve_hot` a tenth of
/// the misses wait for the host to wake the idle service worker, and
/// when the host steals a tenth of the CPU time a tenth of the hits wait
/// for the descheduled generator: both take from under a millisecond to
/// several, so p90 spread up to 0.69 (quartile distance over median)
/// over ten seeds.
const SERVE_TAIL: u32 = 75;

/// The paper-path metrics of a paper-loop tally: the median evaluation
/// time of each level (`eval_p1_us`, `eval_p2_us`: a level's circuits
/// are about twice the gates of the level below, so one quantile over
/// both levels would jump between them as their mix in a chunk changes),
/// the p99 of the highest level, and the ratios.
fn put_paper_metrics(result: &mut RunResult, tally: &PaperTally) {
    for (level, samples) in tally.evals.iter().enumerate() {
        let name = format!("eval_p{}_us", level + 1);
        result.metric(&name, samples.robust_us(0.5), samples.len());
    }
    if let Some(top) = tally.evals.last() {
        result.metric("tail.eval_p99_us", top.robust_us(0.99), top.len());
    }
    result.metric("approx_ratio", mean(&tally.r0), tally.r0.len());
    result.metric("arg_pct", mean(&tally.arg), tally.arg.len());
}

/// Back-to-back artifact fetches of `requests`, round robin, for
/// `duration` (at least one); each fetch is timed into `hits`. Returns
/// the fetches made.
fn fetch_burst(
    service: &Service,
    requests: &[Request],
    duration: Duration,
    hits: &mut Samples,
    ledger: &mut Ledger,
    result: &mut RunResult,
) -> usize {
    let start = Instant::now();
    let mut done = 0usize;
    while done == 0 || start.elapsed() < duration {
        let request = requests[done % requests.len()].clone();
        let (response, elapsed) = timed(|| service.call(request));
        result.attempted += 1;
        if response.outcome == Outcome::Hit && response.result.is_ok() {
            hits.push(elapsed);
            ledger.record("qserve.submit_hit", elapsed);
        } else {
            result.failed_ops += 1;
        }
        done += 1;
    }
    done
}

/// `paper_arg`: the fig11b-class ARG loop. Tunes keys in order until 80%
/// of the run has passed (whole instances only, so every level and
/// strategy keeps its share), compiling the session's keys paced over
/// that time and the remainder after it. After each key a second client
/// re-fetches the four artifacts of the instance being tuned, back to
/// back, for 0.2% of the run: its fetches are the hits, and each burst is
/// one chunk of hits and one rate. Every burst cycles over the same
/// number of keys, so a burst late in the run does the same work as an
/// early one.
fn paper_arg(settings: &Settings) -> RunResult {
    let cfg = if settings.tiny {
        PaperConfig::tiny()
    } else {
        PaperConfig::paper_arg()
    };
    let mut result = RunResult::default();
    let mut ledger = Ledger::new(settings.traced);
    let (session, setup_s) = set_up(setups(settings), || PaperSession::new(&cfg, settings.seed));
    let hist_before = settings
        .traced
        .then(|| service_histograms(&session.service));

    let run_start = Instant::now();
    let loop_time = settings.seconds * 0.8;
    let deadline = run_start + Duration::from_secs_f64(loop_time);
    let mut tally = PaperTally::default();
    let keys = session.keys.len();
    let per_instance = cfg.keys_per_instance();
    let mut artifacts = Vec::with_capacity(keys);
    let requests: Vec<Request> = session.keys.iter().map(|k| k.request.clone()).collect();
    let max_keys = if settings.tiny {
        per_instance
    } else {
        usize::MAX
    };
    let slice = Duration::from_secs_f64(settings.seconds * 0.002);
    let mut burst_rates = Vec::new();
    let mut burst_n = 0usize;
    let mut hits = Samples::default();
    for index in 0..keys.min(max_keys) {
        if index % per_instance == 0 {
            if Instant::now() >= deadline {
                break;
            }
            // Compiles are paced over the loop, so they sample the
            // whole run; the instance about to be tuned is always ready.
            let share = run_start.elapsed().as_secs_f64() / loop_time;
            let paced = (keys as f64 * share).ceil() as usize;
            let upto = paced.max(index + per_instance);
            paper::compile_next(
                &session,
                &mut artifacts,
                upto,
                &mut ledger,
                &mut tally,
                &mut result,
            );
        }
        let Some(artifact) = artifacts[index].clone() else {
            continue;
        };
        paper::tune(
            &session,
            &cfg,
            index,
            &artifact,
            &mut ledger,
            &mut tally,
            &mut result,
        );
        let (n, elapsed) = timed(|| {
            let first = index - index % per_instance;
            fetch_burst(
                &session.service,
                &requests[first..first + per_instance],
                slice,
                &mut hits,
                &mut ledger,
                &mut result,
            )
        });
        tally.busy += elapsed;
        burst_n += n;
        burst_rates.push(n as f64 / elapsed.as_secs_f64());
        hits.cut();
    }
    // The rest of the pool, so every run compiles (and checks) all keys.
    paper::compile_next(
        &session,
        &mut artifacts,
        keys,
        &mut ledger,
        &mut tally,
        &mut result,
    );

    result.metric("setup_s", setup_s, setups(settings));
    let evals = tally.eval_count();
    result.metric("ops_per_s", evals as f64 / tally.busy.as_secs_f64(), evals);
    put_paper_metrics(&mut result, &tally);
    put_quantiles(&mut result, "hit", SERVE_TAIL, &hits);
    put_quantiles(&mut result, "miss", SERVE_TAIL, &tally.misses);
    result.metric("capacity_rps", fast_high(&burst_rates), burst_n);
    result.metric(
        "compile_p50_us",
        tally.compiles.robust_us(0.5),
        tally.compiles.len(),
    );
    result.metric("depth_mean", mean(&tally.depth), tally.depth.len());
    result.metric("cx_mean", mean(&tally.cx), tally.cx.len());

    result.fact("keys_compiled", session.keys.len());
    result.fact("keys_tuned", tally.keys);
    result.fact("evaluations_per_parameter", cfg.budget_per_param);
    result.fact("threads_generator", 1);
    result.fact("threads_workers", 0);
    result.fact("threads_simulator", simulator_threads(&session.topology));
    result.fact("run_s", format!("{:.3}", run_start.elapsed().as_secs_f64()));

    if settings.traced {
        ledger.set(
            "qsim.simulate.gates_per_eval",
            tally.gates as f64 / tally.eval_count().max(1) as f64,
        );
        let main_thread = [
            "qcompile.bind",
            "qsim.simulate",
            "qsim.sample",
            "qsim.noise",
            "qaoa.score",
            "qaoa.optimizer.self",
            "qserve.submit_hit",
            "qserve.submit_miss",
        ];
        put_coverage(&mut ledger, &main_thread, tally.busy);
        let coverage = ledger.count("bench.coverage_permille");
        if coverage < MIN_COVERAGE_PERMILLE {
            result.fail(format!(
                "the named layers cover {coverage:.0}‰ of the busy time, \
                 below {MIN_COVERAGE_PERMILLE}‰: a large cost is unattributed"
            ));
        }
        if let Some(before) = hist_before {
            put_service_layers(&mut ledger, &session.service, before);
        }
    }
    finish(&mut result, &mut ledger, tally.busy);
    result
}

/// Simulator threads for statevectors on `topology`: the engine runs
/// registers below its crossover width serially.
fn simulator_threads(topology: &Topology) -> usize {
    if topology.num_qubits() < qsim::SimOptions::default().crossover_qubits {
        1
    } else {
        qsim::default_threads()
    }
}

/// Records `bench.coverage_permille`: how much of `busy` the named
/// layers account for.
fn put_coverage(ledger: &mut Ledger, layers: &[&str], busy: Duration) {
    let covered: u64 = layers
        .iter()
        .filter_map(|l| ledger.spans(l))
        .map(Samples::total_ns)
        .sum();
    let busy_ns = busy.as_nanos().max(1) as f64;
    ledger.set("bench.coverage_permille", covered as f64 / busy_ns * 1e3);
}

/// Records the service's queue-wait and compile histograms since
/// `before` as the `qserve.queue_wait` and `qserve.compile` layers.
fn put_service_layers(
    ledger: &mut Ledger,
    service: &Service,
    before: (crate::trace::Hist, crate::trace::Hist),
) {
    let (queue_wait, compile) = service_histograms(service);
    let layers = [
        ("qserve.queue_wait", queue_wait.since(&before.0)),
        ("qserve.compile", compile.since(&before.1)),
    ];
    for (layer, hist) in layers {
        ledger.set_histogram(layer, hist);
    }
}

/// Fills the per-layer metrics from `ledger` over `busy`, and the
/// failure ratio.
fn finish(result: &mut RunResult, ledger: &mut Ledger, busy: Duration) {
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    result.metric("peak_rss_mb", rss, 1);
    let failed_ratio = result.failed() as f64 / result.attempted.max(1) as f64;
    result.metric("failed_ratio", failed_ratio, result.attempted as usize);
    if !ledger.traced() {
        return;
    }
    let busy_ns = busy.as_nanos().max(1) as f64;
    for layer in LAYERS {
        let (p50, total, count) = match (ledger.spans(layer), ledger.histogram(layer)) {
            (Some(s), _) => (s.quantile_us(0.5), s.total_ns() as f64, s.len()),
            (None, Some(h)) => (h.p50_us(), h.sum_ns() as f64, h.count() as usize),
            (None, None) => (0.0, 0.0, 0),
        };
        result.metric(&format!("{layer}.p50_us"), p50, count);
        result.metric(
            &format!("{layer}.share_permille"),
            total / busy_ns * 1e3,
            count,
        );
        result.metric(&format!("{layer}.count"), count as f64, count);
    }
    let compiles = ledger.count("qcompile.compiles");
    ledger.set(
        "qcompile.routing.swaps_added",
        ledger.count("qcompile.routing.swaps_total") / compiles.max(1.0),
    );
    ledger.set("bench.busy_s", busy.as_secs_f64());
    for (name, e2e) in [
        ("traced.eval_p2_us", "eval_p2_us"),
        ("traced.hit_p50_us", "hit_p50_us"),
        ("traced.capacity_rps", "capacity_rps"),
    ] {
        let value = result.metrics.get(e2e).map_or(0.0, |m| m.0);
        ledger.set(name, value);
    }
    for &(name, _) in LAYER_EXTRAS {
        if !result.metrics.contains_key(name) {
            result.metric(name, ledger.count(name), 1);
        }
    }
}

/// The paper probe the serve workloads run for the paper-path metrics:
/// the four keys (p ∈ {1, 2} × {IC, VIC}) of one 8-node instance at
/// [`PROBE_SEED`], tuned on a small budget after every round, one
/// strategy at both levels per round, so the probe samples the whole run
/// and every other step is the same work.
struct Probe {
    cfg: PaperConfig,
    session: PaperSession,
    artifacts: Vec<Option<std::sync::Arc<qcompile::CompiledArtifact>>>,
    tally: PaperTally,
    steps: usize,
}

impl Probe {
    fn new(settings: &Settings, result: &mut RunResult) -> Probe {
        let base = if settings.tiny {
            PaperConfig::tiny()
        } else {
            PaperConfig::paper_arg()
        };
        let cfg = PaperConfig {
            nodes: 8,
            instances: 1,
            budget_per_param: base.budget_per_param.min(5),
            noisy_shots: base.noisy_shots.min(512),
            trajectories: base.trajectories.min(4),
            ..base
        };
        let session = PaperSession::new(&cfg, PROBE_SEED);
        let mut artifacts = Vec::new();
        let all = session.keys.len();
        paper::compile_next(
            &session,
            &mut artifacts,
            all,
            &mut Ledger::new(false),
            &mut PaperTally::default(),
            result,
        );
        Probe {
            cfg,
            session,
            artifacts,
            tally: PaperTally::default(),
            steps: 0,
        }
    }

    /// Tunes the keys of one strategy at every level, the strategies
    /// taking turns from step to step.
    fn step(&mut self, result: &mut RunResult) {
        let mut ledger = Ledger::new(false);
        let turns = paper::strategies().len();
        let turn = self.steps % turns;
        self.steps += 1;
        for (index, artifact) in self.artifacts.iter().enumerate() {
            if index % turns != turn {
                continue;
            }
            if let Some(artifact) = artifact {
                paper::tune(
                    &self.session,
                    &self.cfg,
                    index,
                    artifact,
                    &mut ledger,
                    &mut self.tally,
                    result,
                );
            }
        }
    }
}

/// `serve_hot` / `serve_cold`: set up, then drive the plan's rounds with
/// a probe step between rounds.
fn serve_workload(settings: &Settings, plan_for: fn(&Settings) -> ServePlan) -> RunResult {
    let mut result = RunResult::default();
    let mut ledger = Ledger::new(settings.traced);
    let ((plan, service), setup_s) = set_up(setups(settings), || {
        let plan = plan_for(settings);
        let service = plan.start();
        (plan, service)
    });
    let mut probe = Probe::new(settings, &mut result);
    let hist_before = settings.traced.then(|| service_histograms(&service));
    let run_start = Instant::now();
    let (tally, verifier) = serve::drive(&plan, &service, &mut ledger, &mut result, &mut |r| {
        probe.step(r)
    });
    if let Some(before) = hist_before {
        put_service_layers(&mut ledger, &service, before);
    }
    drop(service);

    let busy = tally.open_wall + tally.burst_wall;
    result.metric("setup_s", setup_s, setups(settings));
    result.metric(
        "ops_per_s",
        tally.completed as f64 / busy.as_secs_f64(),
        tally.completed as usize,
    );
    put_quantiles(&mut result, "hit", SERVE_TAIL, &tally.hits);
    put_quantiles(&mut result, "miss", SERVE_TAIL, &tally.misses);
    result.metric(
        "capacity_rps",
        fast_high(&tally.burst_rates),
        tally.burst_requests,
    );
    let compiles = &verifier.compiles;
    result.metric("compile_p50_us", compiles.robust_us(0.5), compiles.len());
    result.metric("depth_mean", mean(&verifier.depth), verifier.depth.len());
    result.metric("cx_mean", mean(&verifier.cx), verifier.cx.len());
    put_paper_metrics(&mut result, &probe.tally);

    result.fact("keys", plan.keys.len());
    result.fact("open_loop_requests", plan.arrivals.len());
    result.fact("burst_requests", tally.burst_requests);
    result.fact("rounds", plan.rounds);
    result.fact("probe_keys_tuned", probe.tally.keys);
    result.fact("threads_generator", 1);
    result.fact("threads_workers", plan.config.workers);
    result.fact(
        "threads_simulator",
        simulator_threads(&probe.session.topology),
    );
    result.fact("run_s", format!("{:.3}", run_start.elapsed().as_secs_f64()));

    if settings.traced {
        put_serve_counts(&mut ledger, &tally);
        let generator = [
            "qserve.fingerprint",
            "qserve.submit_hit",
            "qserve.submit_miss",
            "qserve.wait",
        ];
        put_coverage(&mut ledger, &generator, busy);
    }
    finish(&mut result, &mut ledger, busy);
    result
}

/// Service counters of the measured phases.
fn put_serve_counts(ledger: &mut Ledger, tally: &ServeTally) {
    let s = &tally.stats;
    ledger.set("qserve.hits", s.hits as f64);
    ledger.set("qserve.misses", s.misses as f64);
    ledger.set("qserve.evictions", s.evictions as f64);
    ledger.set("qserve.shed", s.shed as f64);
    ledger.set("qserve.rejected", s.rejected as f64);
    ledger.set("qserve.reaped", s.deadline_reaped as f64);
    ledger.set("qserve.invalidated", s.invalidated as f64);
    ledger.set(
        "qserve.hit_permille",
        s.hits as f64 * 1e3 / s.requests.max(1) as f64,
    );
    ledger.set("bench.generator.lag_us_p99", tally.lags.quantile_us(0.99));
}

/// Rounds of a serve run.
fn rounds(settings: &Settings) -> usize {
    if settings.tiny {
        2
    } else {
        48
    }
}

/// Exponential inter-arrival gap (Poisson arrivals) at `rate` per second.
fn poisson_gap_ns(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() / rate * 1e9) as u64
}

/// The four paper configurations.
fn all_strategies() -> [CompileOptions; 4] {
    [
        CompileOptions::qaim_only(),
        CompileOptions::ip(),
        CompileOptions::ic(),
        CompileOptions::vic(),
    ]
}

/// `serve_hot`: fig09-class parametric programs (six 20-node ER(0.3) and
/// six 3-regular, p ∈ {1, 2}) × {QAIM, IP, IC, VIC} on ibmq_20_tokyo;
/// 80/20 key skew; a warm cache six entries short of the key universe;
/// one calibration reload halfway through the open loop.
fn hot_plan(settings: &Settings) -> ServePlan {
    let seed = settings.seed;
    let (nodes, per_family) = if settings.tiny { (8, 1) } else { (20, 6) };
    let topology = Topology::ibmq_20_tokyo();
    let mut cal_rng = StdRng::seed_from_u64(mix(seed, 0xCA1));
    let calibration = Calibration::random_normal(&topology, 2e-2, 8e-3, &mut cal_rng);
    let reload = calibration.drifted(0.5, &mut cal_rng);

    let mut keys = Vec::new();
    for index in 0..2 * per_family {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x600 + index as u64));
        let graph = if index % 2 == 0 {
            generators::connected_erdos_renyi(nodes, 0.3, 10_000, &mut rng)
                .expect("connected ER(0.3) sample within the retry budget")
        } else {
            generators::connected_random_regular(nodes, 3, 10_000, &mut rng)
                .expect("connected 3-regular sample within the retry budget")
        };
        let problem = MaxCut::without_optimum(graph);
        for p in 1..=2 {
            let spec = QaoaSpec::from_maxcut_parametric(&problem, p, true);
            for options in all_strategies() {
                let key_seed = mix(seed ^ 0x5E12_E407, keys.len() as u64);
                keys.push(ServeKey {
                    spec: spec.clone(),
                    options,
                    seed: key_seed,
                });
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(mix(seed, 0xA11));
    // The hot keys are every fifth key, so they span every program, level
    // and strategy, and the cost of a hit does not hang on one program.
    let hot = keys.len().div_ceil(5);
    let pick = |rng: &mut StdRng| -> u32 {
        if rng.gen_bool(0.8) {
            (rng.gen_range(0..hot) * 5) as u32
        } else {
            rng.gen_range(0..keys.len()) as u32
        }
    };
    let (rate, open_share, burst_n) = if settings.tiny {
        (2_000.0, 0.5, 200)
    } else {
        (20_000.0, 0.55, (settings.seconds * 12_000.0) as usize)
    };
    let horizon_ns = (settings.seconds * open_share * 1e9) as u64;
    let mut arrivals = Vec::new();
    let mut due = 0u64;
    loop {
        due += poisson_gap_ns(&mut rng, rate);
        if due >= horizon_ns {
            break;
        }
        arrivals.push(Arrival {
            due_ns: due,
            key: pick(&mut rng),
            tenant: rng.gen_range(0..4),
        });
    }
    let burst = (0..burst_n).map(|_| pick(&mut rng)).collect();
    let reload_at = Some(arrivals.len() / 2);
    let slack = if settings.tiny { 2 } else { 6 };
    ServePlan {
        config: ServiceConfig {
            workers: service_workers(),
            tenants: 4,
            cache_capacity: keys.len() - slack,
            queue_capacity: 4096,
            ..ServiceConfig::default()
        },
        warm: keys.len(),
        topology,
        calibration,
        reload: Some(reload),
        keys,
        arrivals,
        reload_at,
        burst,
        rounds: rounds(settings),
        deadline: None,
    }
}

/// `serve_cold`: a seeded universe of 20–40-node ER(0.1) programs × the
/// four strategies on a 129-qubit heavy-hex device with a random-normal
/// calibration; a cache far smaller than the universe; a small warm hot
/// slice requested at a steady rate; cold misses arriving in bursts (250
/// at 20 µs spacing every 500 ms) that leave a backlog of about 250
/// compiles draining for a fifth of the run, so hits arrive behind it;
/// a generous deadline on every request. Bursts arrive at once, so miss
/// latency grows in proportion to compile time rather than to its excess
/// over the arrival spacing, and the service stays far from saturation
/// even on a host running half as fast.
fn cold_plan(settings: &Settings) -> ServePlan {
    let seed = settings.seed;
    let tiny = settings.tiny;
    let topology = Topology::heavy_hex(6, 7);
    let mut cal_rng = StdRng::seed_from_u64(mix(seed, 0xC01D));
    let calibration = Calibration::random_normal(&topology, 1e-2, 5e-3, &mut cal_rng);

    let (programs, min_n, max_n) = if tiny { (6, 8, 12) } else { (2_000, 20, 40) };
    let mut keys = Vec::with_capacity(programs * 4);
    for index in 0..programs {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x7000 + index as u64));
        let n = rng.gen_range(min_n..=max_n);
        let graph = generators::erdos_renyi(n, 0.1, &mut rng).expect("valid ER(0.1) parameters");
        let spec = QaoaSpec::from_maxcut_parametric(&MaxCut::without_optimum(graph), 1, true);
        for options in all_strategies() {
            let key_seed = mix(seed ^ 0xC01D_5EED, keys.len() as u64);
            keys.push(ServeKey {
                spec: spec.clone(),
                options,
                seed: key_seed,
            });
        }
    }
    let hot = if tiny { 4 } else { 16 };

    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB0057));
    let (hit_rate, burst_size, burst_every_ns, open_share, burst_n) = if tiny {
        (200.0, 4, 50_000_000, 0.5, 8)
    } else {
        (2_000.0, 250, 500_000_000, 0.55, 2_000)
    };
    let horizon_ns = (settings.seconds * open_share * 1e9) as u64;
    let mut arrivals = Vec::new();
    let mut due = 0u64;
    loop {
        due += poisson_gap_ns(&mut rng, hit_rate);
        if due >= horizon_ns {
            break;
        }
        arrivals.push(Arrival {
            due_ns: due,
            key: rng.gen_range(0..hot) as u32,
            tenant: rng.gen_range(0..4),
        });
    }
    let mut start = burst_every_ns / 2;
    while start < horizon_ns {
        for i in 0..burst_size {
            arrivals.push(Arrival {
                due_ns: start + i * 20_000,
                key: rng.gen_range(hot..keys.len()) as u32,
                tenant: rng.gen_range(0..4),
            });
        }
        start += burst_every_ns;
    }
    arrivals.sort_by_key(|a| a.due_ns);
    let burst = (0..burst_n)
        .map(|i| {
            if i % 2 == 0 {
                rng.gen_range(0..hot) as u32
            } else {
                rng.gen_range(hot..keys.len()) as u32
            }
        })
        .collect();
    ServePlan {
        config: ServiceConfig {
            workers: service_workers(),
            tenants: 4,
            cache_capacity: if tiny { 8 } else { 1024 },
            queue_capacity: 1 << 16,
            ..ServiceConfig::default()
        },
        warm: hot,
        topology,
        calibration,
        reload: None,
        keys,
        arrivals,
        reload_at: None,
        burst,
        rounds: rounds(settings),
        // Generous: far beyond the admissions of a whole run, so the
        // deadline sweep runs on every admission but reaps nothing.
        deadline: Some(1 << 40),
    }
}
