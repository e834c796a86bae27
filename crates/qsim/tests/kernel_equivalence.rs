//! Property-based equivalence tests for the kernel engine: every engine
//! configuration (fused/unfused diagonals, any thread count) must produce
//! the same state as the serial gate-by-gate reference, within
//! 1e-12 per amplitude. With fusion on, the state keeps a storage frame
//! (SWAPs relabel, a wire is stored only once a gate touches it), so
//! routed circuits with SWAP chains and idle wires get their own cases,
//! and every reader is checked bit for bit against the dense formula run
//! over `to_dense()`.

use std::collections::BTreeMap;
use std::sync::RwLock;

use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Instruction};
use qhw::{Calibration, Topology};
use qsim::{
    Counts, NoiseModel, Sampler, SimError, SimOptions, StateVector, TrajectorySimulator, MAX_QUBITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The qtrace recorder is process-global: the dispatch-count test holds
/// this for writing while it records, every other test holds it for
/// reading, so no concurrent simulation pollutes the counts.
static RECORDER: RwLock<()> = RwLock::new(());

fn shared_recorder() -> std::sync::RwLockReadGuard<'static, ()> {
    RECORDER.read().unwrap_or_else(|e| e.into_inner())
}

/// A gate mix covering every kernel class: diagonal 1q/2q (fusable),
/// flips, permutations, structured mixers, and generic dense unitaries.
fn arb_unitary_instruction(n: usize) -> impl Strategy<Value = Instruction> {
    let angle = -6.0f64..6.0;
    prop_oneof![
        (0..n).prop_map(|q| Instruction::one(Gate::H, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::X, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::Y, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::Z, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::T, q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rx(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Ry(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rz(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::U1(t.into()), q)),
        (0..n, angle.clone(), angle.clone(), angle.clone())
            .prop_map(|(q, t, p, l)| Instruction::one(Gate::U3(t.into(), p.into(), l.into()), q)),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Cnot, a, (a + d) % n)),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Cz, a, (a + d) % n)),
        (0..n, 1..n, angle.clone()).prop_map(move |(a, d, t)| Instruction::two(
            Gate::Rzz(t.into()),
            a,
            (a + d) % n
        )),
        (0..n, 1..n, angle).prop_map(move |(a, d, t)| Instruction::two(
            Gate::CPhase(t.into()),
            a,
            (a + d) % n
        )),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Swap, a, (a + d) % n)),
    ]
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_unitary_instruction(n), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(n);
        for i in instrs {
            c.push(i).expect("in range");
        }
        c
    })
}

/// A QAOA-shaped circuit: H wall, diagonal cost layers, RX mixers — the
/// workload the diagonal-fusion path is built for.
fn arb_qaoa_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    (
        proptest::collection::vec((0..n, 1..n), 1..3 * n),
        -3.0f64..3.0,
        -3.0f64..3.0,
    )
        .prop_map(move |(edges, gamma, beta)| {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            for (a, d) in edges {
                c.rzz(gamma, a, (a + d) % n);
            }
            for q in 0..n {
                c.rx(2.0 * beta, q);
            }
            c
        })
}

/// A routed-shaped circuit on `wires` wires: gates over `live` logical
/// qubits placed from a random wire offset, with random SWAP chains
/// before each gate that move logical qubits (and idle wires) around.
/// Wires that only ever carry idle qubits are never touched by a
/// non-SWAP gate.
fn arb_routed_circuit(wires: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    (2..=wires).prop_flat_map(move |live| {
        (
            proptest::collection::vec(arb_unitary_instruction(live), 0..max_len),
            proptest::collection::vec(
                proptest::collection::vec((0..wires, 1..wires), 0..4),
                max_len..=max_len,
            ),
            0..wires,
        )
            .prop_map(move |(gates, chains, offset)| {
                let mut wire_of: Vec<usize> = (0..wires).map(|q| (q + offset) % wires).collect();
                let mut c = Circuit::new(wires);
                for (gate, chain) in gates.iter().zip(&chains) {
                    for &(a, d) in chain {
                        let b = (a + d) % wires;
                        c.swap(a, b);
                        for w in wire_of.iter_mut() {
                            if *w == a {
                                *w = b;
                            } else if *w == b {
                                *w = a;
                            }
                        }
                    }
                    let placed = if gate.gate().arity() == 1 {
                        Instruction::one(gate.gate(), wire_of[gate.q0()])
                    } else {
                        Instruction::two(gate.gate(), wire_of[gate.q0()], wire_of[gate.q1()])
                    };
                    c.push(placed).expect("in range");
                }
                c
            })
    })
}

/// A non-|0…0⟩ state with weight on every wire, idle ones included.
fn excited_state(wires: usize) -> StateVector {
    let mut prep = Circuit::new(wires);
    for q in 0..wires {
        prep.h(q);
        prep.ry(0.3 + 0.2 * q as f64, q);
        prep.rz(0.1 * q as f64, q);
    }
    StateVector::from_circuit_with(&prep, &SimOptions::serial().with_fused_diagonals(false))
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.to_dense()
        .iter()
        .zip(b.to_dense())
        .map(|(x, y)| (*x - y).abs())
        .fold(0.0, f64::max)
}

/// The dense reader formulas, as they stood before the state kept only
/// its support: each walks every basis index of `to_dense()` in order.
mod dense {
    use super::*;
    use qcircuit::math::{Complex, ZERO};

    pub fn probabilities(amps: &[Complex]) -> Vec<f64> {
        amps.iter().map(|a| a.norm_sqr()).collect()
    }

    pub fn norm_sqr(amps: &[Complex]) -> f64 {
        amps.iter().map(|a| a.norm_sqr()).sum()
    }

    pub fn expectation_diagonal(amps: &[Complex], value: impl Fn(usize) -> f64) -> f64 {
        amps.iter()
            .enumerate()
            .map(|(idx, a)| a.norm_sqr() * value(idx))
            .sum()
    }

    pub fn fidelity(a: &[Complex], b: &[Complex]) -> f64 {
        let mut inner = ZERO;
        for (x, y) in a.iter().zip(b) {
            inner += x.conj() * *y;
        }
        inner.norm_sqr()
    }

    /// Cumulative table over every basis state, one tree insert per shot.
    pub fn sample_counts(amps: &[Complex], shots: u64, rng: &mut StdRng) -> Counts {
        let mut cumulative = probabilities(amps);
        let mut acc = 0.0;
        for c in &mut cumulative {
            acc += *c;
            *c = acc;
        }
        let total = *cumulative.last().expect("non-empty");
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let x: f64 = rng.gen_range(0.0..total);
            let state = cumulative
                .partition_point(|&c| c <= x)
                .min(cumulative.len() - 1);
            *counts.entry(state).or_insert(0) += 1;
        }
        counts
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

proptest! {
    /// Fused diagonal application agrees with gate-by-gate application.
    #[test]
    fn fused_diagonals_match_unfused(c in arb_circuit(6, 60)) {
        let _recorder = shared_recorder();
        let fused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(true),
        );
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
    }

    /// The QAOA fast path (single parity-class cost layer) agrees with
    /// the generic engine.
    #[test]
    fn qaoa_cost_layer_fusion_matches(c in arb_qaoa_circuit(6)) {
        let _recorder = shared_recorder();
        let fused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(true),
        );
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
    }

    /// Program frame on routed circuits: SWAP chains become relabels and
    /// idle wires are never stored, yet every fresh-state entry point
    /// matches gate-by-gate application.
    #[test]
    fn program_frame_matches_unfused_on_routed_circuits(c in arb_routed_circuit(7, 40)) {
        let _recorder = shared_recorder();
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        let fused = StateVector::from_circuit_with(&c, &SimOptions::serial());
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
        let bound = StateVector::try_from_bound_with(&c, &SimOptions::serial()).expect("bound");
        prop_assert_eq!(bound.to_dense(), fused.to_dense());
    }

    /// `apply_circuit_with` on a fresh state widens the wires the circuit
    /// touches, one at a time, and still matches gate-by-gate application.
    #[test]
    fn widening_a_fresh_state_matches_unfused(c in arb_routed_circuit(7, 40)) {
        let _recorder = shared_recorder();
        let mut widened = StateVector::new(7);
        widened.apply_circuit_with(&c, &SimOptions::serial());
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        prop_assert!(max_amp_diff(&widened, &unfused) < 1e-12);
        // One gate at a time through the public single-gate entry.
        let mut stepped = StateVector::new(7);
        for instr in c.iter() {
            stepped.apply(instr);
        }
        prop_assert!(max_amp_diff(&stepped, &unfused) < 1e-12);
    }

    /// Every reader walks the support in ascending basis-index order, so
    /// it adds the same nonzero terms in the same order as the dense
    /// formula: probabilities, norm, diagonal expectation, fidelity and
    /// sampled counts are bit-for-bit those of `to_dense()`.
    #[test]
    fn support_readers_match_dense_formulas_bitwise(
        c in arb_routed_circuit(7, 40),
        d in arb_routed_circuit(7, 20),
        seed in 0u64..1000,
    ) {
        let _recorder = shared_recorder();
        let state = StateVector::from_circuit_with(&c, &SimOptions::serial());
        let amps = state.to_dense();
        let probs = state.probabilities();
        let want = dense::probabilities(&amps);
        prop_assert!(probs.iter().zip(&want).all(|(a, b)| same_bits(*a, *b)));
        prop_assert!(same_bits(state.norm_sqr(), dense::norm_sqr(&amps)));
        let value = |idx: usize| idx.count_ones() as f64 - 0.37 * (idx % 5) as f64;
        prop_assert!(same_bits(
            state.expectation_diagonal(value),
            dense::expectation_diagonal(&amps, value),
        ));
        let other = StateVector::from_circuit_with(&d, &SimOptions::serial());
        prop_assert!(same_bits(
            state.fidelity(&other),
            dense::fidelity(&amps, &other.to_dense()),
        ));
        let shots = 300;
        let got = Sampler::new(&state).sample_counts(shots, &mut StdRng::seed_from_u64(seed));
        let want = dense::sample_counts(&amps, shots, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(got, want);
        // Single draws agree with the dense table too.
        let sampler = Sampler::new(&state);
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let single: Counts = (0..50).fold(Counts::new(), |mut m, _| {
            *m.entry(sampler.sample(&mut a)).or_insert(0) += 1;
            m
        });
        prop_assert_eq!(single, dense::sample_counts(&amps, 50, &mut b));
    }

    /// `apply_circuit_with` on an excited state stored over every wire:
    /// wires the circuit leaves idle keep their (non-|0⟩) content.
    #[test]
    fn program_frame_on_excited_state_matches_unfused(c in arb_routed_circuit(6, 30)) {
        let _recorder = shared_recorder();
        let mut fused = excited_state(6);
        fused.apply_circuit_with(&c, &SimOptions::serial());
        let mut unfused = excited_state(6);
        unfused.apply_circuit_with(&c, &SimOptions::serial().with_fused_diagonals(false));
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
    }
}

// Thread-equivalence cases spawn thousands of scoped threads each (every
// gate pass forks); fewer, fatter cases keep the suite quick without
// losing coverage.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N oversubscribed threads produce the same state as serial — the
    /// chunking rules never split a gate's coupled amplitudes.
    #[test]
    fn thread_counts_match_serial(c in arb_circuit(6, 50), threads in 2usize..9) {
        let _recorder = shared_recorder();
        let serial = StateVector::from_circuit_with(&c, &SimOptions::serial());
        let parallel = StateVector::from_circuit_with(
            &c,
            &SimOptions::default()
                .with_threads(threads)
                .with_crossover_qubits(0),
        );
        prop_assert!(
            max_amp_diff(&serial, &parallel) < 1e-12,
            "threads={threads}"
        );
        // Stronger than the contract: chunking must not reassociate any
        // floating-point operation, so the match is exact.
        prop_assert_eq!(serial.to_dense(), parallel.to_dense());
    }

    /// Threading and fusion composed still match the serial reference.
    #[test]
    fn threaded_fused_matches_serial_unfused(c in arb_qaoa_circuit(5), threads in 2usize..5) {
        let _recorder = shared_recorder();
        let reference = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        let tuned = StateVector::from_circuit_with(
            &c,
            &SimOptions::default()
                .with_threads(threads)
                .with_crossover_qubits(0)
                .with_fused_diagonals(true),
        );
        prop_assert!(max_amp_diff(&reference, &tuned) < 1e-12);
    }

    /// The storage frame (relabels, widening) is bit-identical across
    /// thread counts.
    #[test]
    fn program_frame_thread_counts_match_serial(
        c in arb_routed_circuit(7, 30),
        threads in 2usize..5,
    ) {
        let _recorder = shared_recorder();
        let threaded = SimOptions::default()
            .with_threads(threads)
            .with_crossover_qubits(0);
        let serial = StateVector::from_circuit_with(&c, &SimOptions::serial());
        let parallel = StateVector::from_circuit_with(&c, &threaded);
        prop_assert_eq!(serial.to_dense(), parallel.to_dense());
        let mut serial = excited_state(7);
        serial.apply_circuit_with(&c, &SimOptions::serial());
        let mut parallel = excited_state(7);
        parallel.apply_circuit_with(&c, &threaded);
        prop_assert_eq!(serial.to_dense(), parallel.to_dense());
    }

    /// Trajectories with frequent forced Pauli injections (each flushes
    /// the open runs and lands through the relabelled frame) match the
    /// unfused engine: the random stream does not depend on the state, so
    /// both runs inject the same Paulis at the same points.
    #[test]
    fn trajectories_with_injections_match_unfused(c in arb_routed_circuit(6, 30), seed in 0u64..1000) {
        let _recorder = shared_recorder();
        let topo = Topology::fully_connected(6);
        let cal = Calibration::uniform(&topo, 0.3, 0.2, 0.0);
        let model = NoiseModel::new(cal).with_idle_error(0.1);
        let fused = TrajectorySimulator::with_options(model.clone(), SimOptions::serial());
        let unfused = TrajectorySimulator::with_options(
            model,
            SimOptions::serial().with_fused_diagonals(false),
        );
        let a = fused.run_trajectory(&c, &mut StdRng::seed_from_u64(seed));
        let b = unfused.run_trajectory(&c, &mut StdRng::seed_from_u64(seed));
        prop_assert!(max_amp_diff(&a, &b) < 1e-12);
        // The reused state and applier across trajectories.
        let ideal = StateVector::from_circuit(&c);
        let fa = fused.mean_fidelity(&c, &ideal, 4, &mut StdRng::seed_from_u64(seed));
        let fb = unfused.mean_fidelity(&c, &ideal, 4, &mut StdRng::seed_from_u64(seed));
        prop_assert!((fa - fb).abs() < 1e-12, "{} vs {}", fa, fb);
    }
}

/// A routed melbourne p-level QAOA circuit: each routed cost layer is one
/// fused diagonal pass, every SWAP is a relabel, only the 12 live wires are
/// ever stored (`2^12` amplitudes, never permuted into the 15-wire frame),
/// and the dispatch section still accounts for every unitary.
#[test]
fn routed_qaoa_fuses_one_diagonal_run_per_level() {
    let topo = Topology::ibmq_16_melbourne();
    let (_, cal) = Calibration::melbourne_2020_04_08();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for p in 1..=2usize {
        let n = 12;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(0.5) {
                    edges.push((a, b));
                }
            }
        }
        let levels = (0..p)
            .map(|l| {
                let gamma = 0.4 + 0.1 * l as f64;
                let ops = edges
                    .iter()
                    .map(|&(a, b)| qcompile::CphaseOp::new(a, b, gamma))
                    .collect();
                (ops, 0.3)
            })
            .collect();
        let spec = qcompile::QaoaSpec::new(n, levels, true);
        for options in [
            qcompile::CompileOptions::ic(),
            qcompile::CompileOptions::vic(),
        ] {
            let compiled = qcompile::compile(&spec, &topo, Some(&cal), &options, &mut rng);
            let physical = compiled.physical();
            let unitaries = physical.iter().filter(|i| i.gate().is_unitary()).count() as u64;
            let swaps = physical.count_gate("swap") as u64;
            assert!(swaps > 0, "routing must insert SWAPs for the test to bite");

            let manifest = {
                let _exclusive = RECORDER.write().unwrap_or_else(|e| e.into_inner());
                let _ = qtrace::take("drain");
                qtrace::enable();
                let sv = StateVector::from_circuit(physical);
                qtrace::disable();
                assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
                qtrace::take("routed")
            };
            let counter = |name: &str| manifest.counters.get(name).copied().unwrap_or(0);
            let runs = manifest
                .histograms
                .get("qsim/fused_diag_run_len")
                .map_or(0, |h| h.count());
            assert_eq!(runs, p as u64, "one fused diagonal pass per level");
            assert_eq!(counter("qsim/dispatch/swap"), 0);
            assert_eq!(counter("qsim/dispatch/relabel"), swaps);
            assert_eq!(counter("qsim/dispatch/permute"), 0);
            assert_eq!(
                manifest.gauges.get("qsim/peak_live_amplitudes").copied(),
                Some(1 << n),
                "only the live wires are stored"
            );
            let unitary_dispatches: u64 = manifest
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("qsim/dispatch/"))
                .map(|(_, v)| v)
                .sum();
            assert_eq!(unitary_dispatches, unitaries);
        }
    }
}

#[test]
fn try_new_reports_structured_error() {
    match StateVector::try_new(MAX_QUBITS + 3) {
        Err(SimError::RegisterTooLarge {
            qubits,
            limit,
            representation,
        }) => {
            assert_eq!(qubits, MAX_QUBITS + 3);
            assert_eq!(limit, MAX_QUBITS);
            assert_eq!(representation, "statevector");
        }
        other => panic!("expected RegisterTooLarge, got {other:?}"),
    }
    // In-range widths succeed (kept small — the limit itself would
    // allocate the full 4 GiB vector).
    assert!(StateVector::try_new(10).is_ok());
}
