//! Self-test of the benchmark: the correctness gate trips on tampered
//! artifacts, every workload emits every named metric with its unit at a
//! tiny size, and `BENCHMARK.json` names exactly the metrics the
//! benchmark emits.

use std::sync::Arc;

use ledger::check;
use ledger::report::{per_layer_metrics, result_line, END_TO_END};
use ledger::workloads::{self, Settings, EXTRA_WORKLOADS, WORKLOADS};
use qaoa::MaxCut;
use qcircuit::{Angle, Circuit, Gate, Instruction, ParamValues};
use qcompile::{
    try_compile_artifact_with_context, CompileOptions, CompiledArtifact, CompiledCircuit, QaoaSpec,
};
use qhw::{Calibration, HardwareContext};
use qtrace::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A VIC compile of a 6-regular 12-node MaxCut on melbourne (it needs
/// SWAPs), with the problem it encodes.
fn compiled() -> (MaxCut, CompiledArtifact, HardwareContext) {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = qgraph::generators::connected_random_regular(12, 6, 1000, &mut rng).unwrap();
    let problem = MaxCut::new(graph);
    let (topology, calibration) = Calibration::melbourne_2020_04_08();
    let context = HardwareContext::from_parts(topology, Some(calibration));
    let spec = QaoaSpec::from_maxcut_parametric(&problem, 1, true);
    let artifact = try_compile_artifact_with_context(
        &spec,
        &context,
        &CompileOptions::vic(),
        &mut StdRng::seed_from_u64(9),
    )
    .unwrap();
    assert!(artifact.template().swap_count() > 0, "the test needs SWAPs");
    (problem, artifact, context)
}

/// `circuit` with instruction `index` replaced by `with` (or dropped).
fn edited(circuit: &Circuit, index: usize, with: Option<Instruction>) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    out.set_param_table(circuit.param_table().clone());
    for (i, instr) in circuit.iter().enumerate() {
        match (i == index, with) {
            (false, _) => out.push(*instr).unwrap(),
            (true, Some(replacement)) => out.push(replacement).unwrap(),
            (true, None) => {}
        }
    }
    out
}

#[test]
fn untampered_artifacts_pass_every_gate() {
    let (problem, artifact, context) = compiled();
    let params = [0.4, 0.3];
    let bound = artifact.bind(&ParamValues::from(&params[..])).unwrap();
    check::expectation(&problem, &params, bound.physical(), bound.final_layout()).unwrap();
    check::coupling(artifact.template(), context.topology()).unwrap();
    let reference = artifact.clone();
    check::same_artifact(&artifact, &reference).unwrap();
}

#[test]
fn perturbed_bound_angle_trips_the_expectation_gate() {
    let (problem, artifact, _) = compiled();
    let params = [0.4, 0.3];
    let bound = artifact.bind(&ParamValues::from(&params[..])).unwrap();
    let physical = bound.physical();
    let (index, instr) = physical
        .iter()
        .enumerate()
        .find(|(_, i)| matches!(i.gate(), Gate::Rzz(Angle::Const(_))))
        .expect("a bound cost gate");
    let Gate::Rzz(Angle::Const(theta)) = instr.gate() else {
        unreachable!()
    };
    let tampered = Instruction::two(
        Gate::Rzz(Angle::Const(theta + 0.05)),
        instr.q0(),
        instr.q1(),
    );
    let physical = edited(physical, index, Some(tampered));
    let verdict = check::expectation(&problem, &params, &physical, bound.final_layout());
    assert!(verdict.is_err(), "a perturbed angle must trip the gate");
}

#[test]
fn dropped_swap_trips_the_artifact_and_expectation_gates() {
    let (problem, artifact, _) = compiled();
    let template = artifact.template();
    let index = template
        .physical()
        .iter()
        .position(|i| i.gate() == Gate::Swap)
        .expect("a SWAP");
    let tampered = CompiledCircuit::from_recovered_parts(
        edited(template.physical(), index, None),
        template.basis_circuit().clone(),
        template.initial_layout().clone(),
        template.final_layout().clone(),
        template.swap_count(),
    );
    let tampered = CompiledArtifact::from_recovered_template(tampered, artifact.num_params());
    let verdict = check::same_artifact(&tampered, &artifact);
    assert!(
        verdict.is_err(),
        "a dropped SWAP must trip the artifact gate"
    );

    let params = [0.4, 0.3];
    let bound = tampered.bind(&ParamValues::from(&params[..])).unwrap();
    let verdict = check::expectation(&problem, &params, bound.physical(), bound.final_layout());
    assert!(
        verdict.is_err(),
        "a dropped SWAP must trip the expectation gate"
    );

    // The same recovery path without tampering passes.
    let intact = CompiledArtifact::from_recovered_template(
        CompiledCircuit::from_recovered_parts(
            template.physical().clone(),
            template.basis_circuit().clone(),
            template.initial_layout().clone(),
            template.final_layout().clone(),
            template.swap_count(),
        ),
        artifact.num_params(),
    );
    check::same_artifact(&Arc::new(intact), &artifact).unwrap();
}

#[test]
fn every_workload_emits_every_metric_at_a_tiny_size() {
    let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for workload in WORKLOADS.iter().chain(EXTRA_WORKLOADS) {
        for traced in [false, true] {
            let settings = Settings {
                seed: 3,
                seconds: 0.4,
                traced,
                tiny: true,
            };
            let result = workloads::run(workload, &settings).unwrap();
            assert!(
                result.correct(),
                "{workload}: {:?} ({} failed)",
                result.failures,
                result.failed()
            );
            let names = if traced {
                per_layer_metrics()
            } else {
                e2e.clone()
            };
            let line = result_line(&result, &names)
                .unwrap_or_else(|e| panic!("{workload} traced={traced}: {e}"));
            let parsed = Json::parse(&line).unwrap();
            let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), names.len(), "{workload}");
            for (name, unit) in &names {
                let metric = &metrics[name];
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(metric.get("value").and_then(Json::as_f64).is_some());
            }
        }
    }
    assert!(workloads::run(
        "no_such_workload",
        &Settings {
            seed: 1,
            seconds: 1.0,
            traced: false,
            tiny: true,
        }
    )
    .is_err());
}

#[test]
fn benchmark_json_names_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).unwrap();
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(list("per_layer"), layers);
}
