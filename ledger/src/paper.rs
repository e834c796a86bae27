//! The paper's ARG loop (the fig11b class): compile each (instance,
//! level, strategy) once through the compile service, tune its angles
//! with Nelder–Mead on a fixed objective-evaluation budget, then sample
//! the tuned circuit under trajectory noise to get rh and the ARG.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qaoa::optimize::{nelder_mead, NelderMeadOptions};
use qaoa::{analytic, approximation_ratio_from_counts, approximation_ratio_gap, MaxCut};
use qcircuit::ParamValues;
use qcompile::{
    try_compile_artifact_with_context, CompileOptions, CompiledArtifact, CompiledCircuit, QaoaSpec,
};
use qgraph::{generators, Graph};
use qhw::{Calibration, HardwareContext, Topology};
use qserve::{Outcome, Request, Service, ServiceConfig};
use qsim::{NoiseModel, Sampler, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check;
use crate::report::RunResult;
use crate::stats::{timed, Ledger, Samples};
use crate::trace::record_passes;

/// Sizes of one paper-loop run.
#[derive(Debug, Clone, Copy)]
pub struct PaperConfig {
    /// Nodes per MaxCut instance.
    pub nodes: usize,
    /// Highest QAOA level; every level `1..=max_p` is run.
    pub max_p: usize,
    /// Objective evaluations per parameter of a key (exact: evaluations
    /// beyond `budget_per_param × 2p` are refused without work).
    pub budget_per_param: usize,
    /// Shots per objective evaluation.
    pub shots: u64,
    /// Shots of the noisy run at the optimum.
    pub noisy_shots: u64,
    /// Noise trajectories of that run.
    pub trajectories: u32,
    /// Points per axis of the analytic p=1 grid that seeds the simplex.
    pub grid: usize,
    /// Instances generated at set-up (2 × `max_p` keys each).
    pub instances: usize,
}

impl PaperConfig {
    /// Keys per instance: every level × both strategies.
    pub fn keys_per_instance(&self) -> usize {
        self.max_p * strategies().len()
    }
}

impl PaperConfig {
    /// The `paper_arg` workload: 12-node instances as in Figure 11(b).
    pub fn paper_arg() -> PaperConfig {
        PaperConfig {
            nodes: 12,
            max_p: 2,
            budget_per_param: 20,
            shots: 1024,
            noisy_shots: 2048,
            trajectories: 16,
            grid: 8,
            instances: 256,
        }
    }

    /// A size small enough for unoptimized test builds.
    pub fn tiny() -> PaperConfig {
        PaperConfig {
            nodes: 8,
            max_p: 2,
            budget_per_param: 3,
            shots: 64,
            noisy_shots: 64,
            trajectories: 2,
            grid: 4,
            instances: 2,
        }
    }
}

/// The strategies the loop compares: the paper's IC and VIC.
pub fn strategies() -> [CompileOptions; 2] {
    [CompileOptions::ic(), CompileOptions::vic()]
}

/// SplitMix64 step: derives independent seeds from one master seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Instance `index` of the alternating ER(0.5) / 6-regular family.
fn instance_graph(nodes: usize, seed: u64, index: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(mix(seed, index as u64));
    if index.is_multiple_of(2) {
        generators::connected_erdos_renyi(nodes, 0.5, 10_000, &mut rng)
            .expect("connected ER(0.5) sample within the retry budget")
    } else {
        generators::connected_random_regular(nodes, 6, 10_000, &mut rng)
            .expect("connected 6-regular sample within the retry budget")
    }
}

/// One compile key of the loop.
#[derive(Debug, Clone)]
pub struct Key {
    /// Index into [`PaperSession::problems`].
    pub instance: usize,
    /// The compile request (parametric spec, strategy, seed).
    pub request: Request,
}

/// Everything the loop needs, built at set-up.
pub struct PaperSession {
    /// The device: ibmq_16_melbourne.
    pub topology: Topology,
    /// The context direct reference compiles run against.
    pub context: Arc<HardwareContext>,
    /// The noise model of the 2020-04-08 calibration.
    pub noise: TrajectorySimulator,
    /// The compile service the keys are compiled through, inline.
    pub service: Service,
    /// MaxCut instances with their optima.
    pub problems: Vec<MaxCut>,
    /// Keys in run order.
    pub keys: Vec<Key>,
}

impl PaperSession {
    /// Builds the session for `seed`. The service has no worker threads:
    /// the loop compiles inline through [`Service::warm`], so the whole
    /// paper path runs on the calling thread.
    pub fn new(cfg: &PaperConfig, seed: u64) -> PaperSession {
        let (topology, calibration) = Calibration::melbourne_2020_04_08();
        let context = Arc::new(HardwareContext::from_parts(
            topology.clone(),
            Some(calibration.clone()),
        ));
        let problems: Vec<MaxCut> = (0..cfg.instances)
            .map(|i| MaxCut::new(instance_graph(cfg.nodes, seed, i)))
            .collect();
        let mut keys = Vec::new();
        for (instance, problem) in problems.iter().enumerate() {
            for p in 1..=cfg.max_p {
                let spec = QaoaSpec::from_maxcut_parametric(problem, p, true);
                for options in strategies() {
                    let key_seed = mix(seed ^ 0x00C0_4B11_E5EE_D000, keys.len() as u64);
                    keys.push(Key {
                        instance,
                        request: Request::new(0, spec.clone(), options, key_seed),
                    });
                }
            }
        }
        let service = Service::new(
            topology.clone(),
            Some(calibration.clone()),
            ServiceConfig {
                workers: 0,
                tenants: 1,
                cache_capacity: keys.len() + 1,
                ..ServiceConfig::default()
            },
        );
        // One throwaway compile of a program outside the key set, so the
        // first measured compile does not pay for lazy first-use work.
        let ring = MaxCut::without_optimum(generators::cycle(cfg.nodes));
        let warm_up = QaoaSpec::from_maxcut_parametric(&ring, 1, true);
        service.warm(Request::new(0, warm_up, CompileOptions::vic(), seed));
        PaperSession {
            topology,
            context,
            noise: TrajectorySimulator::new(NoiseModel::new(calibration)),
            service,
            problems,
            keys,
        }
    }
}

/// What one run of the loop measured.
#[derive(Debug, Default)]
pub struct PaperTally {
    /// bind → statevector → sample → ratio, per objective evaluation,
    /// by QAOA level (index p − 1), cut into chunks of [`EVAL_CHUNK`]
    /// consecutive evaluations of one key.
    pub evals: Vec<Samples>,
    /// Inline compiles through the service (misses), per key.
    pub misses: Samples,
    /// Direct reference compiles (`try_compile_artifact_with_context`).
    pub compiles: Samples,
    /// Noiseless approximation ratio at each key's optimum.
    pub r0: Vec<f64>,
    /// ARG of each key, percent.
    pub arg: Vec<f64>,
    /// Basis-circuit depth of each compiled key (every key of the
    /// session is compiled, whether or not time allows tuning it).
    pub depth: Vec<f64>,
    /// CNOT count of each compiled key.
    pub cx: Vec<f64>,
    /// Keys tuned.
    pub keys: usize,
    /// Compile and tuning wall time, without the untimed checks.
    pub busy: Duration,
    /// Physical gates simulated, summed over evaluations.
    pub gates: u64,
}

impl PaperTally {
    /// The evaluation samples of level `p`.
    fn evals_at(&mut self, p: usize) -> &mut Samples {
        if self.evals.len() < p {
            self.evals.resize_with(p, Samples::default);
        }
        &mut self.evals[p - 1]
    }

    /// Objective evaluations made, at every level.
    pub fn eval_count(&self) -> usize {
        self.evals.iter().map(Samples::len).sum()
    }
}

/// Consecutive evaluations of one key in one chunk of
/// [`PaperTally::evals`]: tens of milliseconds, so a chunk reads one host
/// state.
pub const EVAL_CHUNK: usize = 8;

/// Compiles in one chunk of [`PaperTally::compiles`].
pub const COMPILE_CHUNK: usize = 16;

/// Per-key objective state shared with the simplex closure.
struct Objective<'a> {
    artifact: &'a CompiledArtifact,
    level: usize,
    problem: &'a MaxCut,
    phys_of: Vec<usize>,
    shots: u64,
    rng: StdRng,
    calls: usize,
    last: Option<CompiledCircuit>,
}

impl Objective<'_> {
    /// One objective evaluation: bind → statevector → sample →
    /// approximation ratio.
    fn eval(
        &mut self,
        x: &[f64],
        ledger: &mut Ledger,
        tally: &mut PaperTally,
        result: &mut RunResult,
    ) -> f64 {
        self.calls += 1;
        result.attempted += 1;
        let start = Instant::now();
        let values = ParamValues::from(x);
        let artifact = self.artifact;
        let bound = match ledger.span("qcompile.bind", || artifact.bind(&values)) {
            Ok(bound) => bound,
            Err(e) => {
                result.fail(format!("bind failed: {e}"));
                return f64::NEG_INFINITY;
            }
        };
        let state = match ledger.span("qsim.simulate", || {
            StateVector::try_from_bound(bound.physical())
        }) {
            Ok(state) => state,
            Err(e) => {
                result.fail(format!("simulation failed: {e}"));
                return f64::NEG_INFINITY;
            }
        };
        let shots = self.shots;
        let rng = &mut self.rng;
        let counts = ledger.span("qsim.sample", || {
            Sampler::new(&state).sample_counts(shots, rng)
        });
        let (problem, phys_of) = (self.problem, &self.phys_of);
        let ratio = ledger.span("qaoa.score", || {
            approximation_ratio_from_counts(problem, &check::logical_counts(&counts, phys_of))
        });
        tally
            .evals_at(self.level)
            .push_chunked(start.elapsed(), EVAL_CHUNK);
        tally.gates += bound.physical().len() as u64;
        self.last = Some(bound);
        ratio.value()
    }
}

/// Compiles the session's keys from `artifacts.len()` up to `upto`
/// through the service, inline (each a miss), appending the artifacts
/// (`None` for a failed compile). Each is gated against a direct compile
/// of the same key and seed and against the coupling map.
pub fn compile_next(
    session: &PaperSession,
    artifacts: &mut Vec<Option<Arc<CompiledArtifact>>>,
    upto: usize,
    ledger: &mut Ledger,
    tally: &mut PaperTally,
    result: &mut RunResult,
) {
    let upto = upto.min(session.keys.len());
    while artifacts.len() < upto {
        let index = artifacts.len();
        let request = &session.keys[index].request;
        result.attempted += 1;
        let start = Instant::now();
        let response = session.service.warm(request.clone());
        let elapsed = start.elapsed();
        ledger.record("qserve.submit_miss", elapsed);
        tally.busy += elapsed;
        let artifact = match (response.outcome, response.result) {
            (Outcome::Miss, Ok(artifact)) => artifact,
            (outcome, result_) => {
                result.fail(format!(
                    "key {index}: compile request was {outcome:?} ({:?}), not a miss",
                    result_.err()
                ));
                artifacts.push(None);
                continue;
            }
        };
        tally.misses.push(elapsed);
        let template = artifact.template();
        record_passes(ledger, template.trace());
        tally.depth.push(template.depth() as f64);
        tally.cx.push(template.cx_count() as f64);

        // Untimed gate.
        result.attempted += 1;
        let mut rng = StdRng::seed_from_u64(request.seed);
        let (reference, compile_time) = timed(|| {
            try_compile_artifact_with_context(
                &request.spec,
                &session.context,
                &request.options,
                &mut rng,
            )
        });
        tally.compiles.push_chunked(compile_time, COMPILE_CHUNK);
        let verdict = reference
            .map_err(|e| format!("direct compile failed: {e}"))
            .and_then(|reference| check::same_artifact(&artifact, &reference))
            .and_then(|()| check::coupling(template, &session.topology));
        if let Err(e) = verdict {
            result.fail(format!("key {index}: {e}"));
        }
        artifacts.push(Some(artifact));
    }
    tally.misses.cut();
    tally.compiles.cut();
}

/// Tunes key `index` of the session: Nelder–Mead on the key's fixed
/// evaluation budget (each evaluation binds the compiled artifact, then
/// statevector → sample → ratio), one more
/// noiseless evaluation at the optimum for r0, and a trajectory-noise
/// run there for rh and the ARG.
pub fn tune(
    session: &PaperSession,
    cfg: &PaperConfig,
    index: usize,
    artifact: &CompiledArtifact,
    ledger: &mut Ledger,
    tally: &mut PaperTally,
    result: &mut RunResult,
) {
    let key_start = Instant::now();
    let key = &session.keys[index];
    let problem = &session.problems[key.instance];
    let request = &key.request;

    let p = request.spec.levels().len();
    let budget = cfg.budget_per_param * 2 * p;
    let simplex = NelderMeadOptions {
        max_evals: budget,
        // Never converge early: every key spends the full budget.
        tolerance: 0.0,
        initial_step: 0.1,
    };
    let mut objective = Objective {
        artifact,
        level: p,
        problem,
        phys_of: check::phys_of(artifact.template().final_layout(), problem.num_vars()),
        shots: cfg.shots,
        rng: StdRng::seed_from_u64(mix(request.seed, 1)),
        calls: 0,
        last: None,
    };
    let simplex_start = Instant::now();
    let ((g0, b0), _) = analytic::grid_search_p1(problem, cfg.grid);
    let x0: Vec<f64> = (0..p).flat_map(|_| [g0, b0]).collect();
    let mut in_objective = Duration::ZERO;
    let (best, _) = nelder_mead(
        |x| {
            if objective.calls >= budget {
                return f64::NEG_INFINITY;
            }
            let (value, elapsed) = timed(|| objective.eval(x, ledger, tally, result));
            in_objective += elapsed;
            value
        },
        &x0,
        &simplex,
    );
    ledger.record(
        "qaoa.optimizer.self",
        simplex_start.elapsed().saturating_sub(in_objective),
    );

    // r0: one more noiseless evaluation, at the optimum.
    objective.last = None;
    let r0 = objective.eval(&best, ledger, tally, result);
    let Some(bound) = objective.last.take() else {
        tally.busy += key_start.elapsed();
        return;
    };
    // rh: trajectory-noise sampling of the tuned circuit.
    let noise = &session.noise;
    let rng = &mut objective.rng;
    let counts = ledger.span("qsim.noise", || {
        noise.sample(bound.physical(), cfg.noisy_shots, cfg.trajectories, rng)
    });
    let phys_of = &objective.phys_of;
    let rh = ledger.span("qaoa.score", || {
        approximation_ratio_from_counts(problem, &check::logical_counts(&counts, phys_of))
    });
    tally.evals_at(p).cut();
    let r0 = qaoa::ApproximationRatio::new(r0);
    tally.r0.push(r0.value());
    tally.arg.push(approximation_ratio_gap(r0, rh));
    tally.keys += 1;
    tally.busy += key_start.elapsed();

    // Untimed gate: the tuned physical circuit prepares the logical
    // QAOA state.
    result.attempted += 1;
    if let Err(e) = check::expectation(problem, &best, bound.physical(), bound.final_layout()) {
        result.fail(format!("key {index}: {e}"));
    }
}
