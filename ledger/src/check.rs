//! Correctness gates. Each reference is independent of the compiled
//! circuit under test: the logical ansatz simulated directly, the
//! closed-form p=1 expectation, the coupling map, and a fresh direct
//! compile of the same key and seed.

use qaoa::{analytic, MaxCut, QaoaParams};
use qcircuit::Circuit;
use qcompile::{CompiledArtifact, CompiledCircuit};
use qhw::Topology;
use qroute::Layout;
use qsim::{Counts, StateVector};

/// Largest tolerated gap between the physical and the logical
/// expectation.
pub const EXPECTATION_TOLERANCE: f64 = 1e-9;

/// For each logical qubit, the physical qubit holding it at the end of
/// the circuit.
pub fn phys_of(final_layout: &Layout, num_logical: usize) -> Vec<usize> {
    (0..num_logical).map(|l| final_layout.phys(l)).collect()
}

/// The logical basis state a physical basis state encodes.
pub fn to_logical(phys_state: usize, phys_of: &[usize]) -> usize {
    phys_of
        .iter()
        .enumerate()
        .fold(0, |acc, (l, &p)| acc | ((phys_state >> p) & 1) << l)
}

/// Physical measurement counts folded onto logical basis states.
pub fn logical_counts(counts: &Counts, phys_of: &[usize]) -> Counts {
    let mut out = Counts::new();
    for (&state, &k) in counts {
        *out.entry(to_logical(state, phys_of)).or_insert(0) += k;
    }
    out
}

/// The cut expectation of a physical state read through `phys_of`.
pub fn physical_expectation(problem: &MaxCut, state: &StateVector, phys_of: &[usize]) -> f64 {
    state.expectation_diagonal(|bits| problem.cut_value(to_logical(bits, phys_of)) as f64)
}

/// Checks that the bound physical circuit prepares the logical QAOA
/// state: its cut expectation, read through `final_layout`, equals the
/// logical ansatz's (and, for p=1, the closed form's) within
/// [`EXPECTATION_TOLERANCE`].
///
/// # Errors
///
/// Describes the mismatch.
pub fn expectation(
    problem: &MaxCut,
    params: &[f64],
    physical: &Circuit,
    final_layout: &Layout,
) -> Result<(), String> {
    let state = StateVector::try_from_bound(physical).map_err(|e| e.to_string())?;
    let got = physical_expectation(problem, &state, &phys_of(final_layout, problem.num_vars()));
    let logical = qaoa::expectation(problem, &QaoaParams::from_flat(params));
    if (got - logical).abs() > EXPECTATION_TOLERANCE {
        return Err(format!(
            "physical expectation {got} differs from the logical ansatz's {logical}"
        ));
    }
    if let [gamma, beta] = *params {
        let closed = analytic::expectation_p1(problem, gamma, beta);
        if (got - closed).abs() > EXPECTATION_TOLERANCE {
            return Err(format!(
                "physical expectation {got} differs from the p=1 closed form {closed}"
            ));
        }
    }
    Ok(())
}

/// Checks that every two-qubit gate of the physical and the basis
/// circuit acts on a coupled pair.
///
/// # Errors
///
/// Names the circuit that breaks the coupling map.
pub fn coupling(compiled: &CompiledCircuit, topology: &Topology) -> Result<(), String> {
    if !qroute::satisfies_coupling(compiled.physical(), topology) {
        return Err(format!(
            "physical circuit breaks the {} coupling map",
            topology.name()
        ));
    }
    if !qroute::satisfies_coupling(compiled.basis_circuit(), topology) {
        return Err(format!(
            "basis circuit breaks the {} coupling map",
            topology.name()
        ));
    }
    Ok(())
}

/// Checks that a served artifact equals a direct compile of the same key
/// and seed: circuits, layouts, SWAP count and arity.
///
/// # Errors
///
/// Names the first part that differs.
pub fn same_artifact(
    served: &CompiledArtifact,
    reference: &CompiledArtifact,
) -> Result<(), String> {
    let (s, r) = (served.template(), reference.template());
    let differs = if served.num_params() != reference.num_params() {
        Some("parameter count")
    } else if s.swap_count() != r.swap_count() {
        Some("SWAP count")
    } else if s.initial_layout() != r.initial_layout() {
        Some("initial layout")
    } else if s.final_layout() != r.final_layout() {
        Some("final layout")
    } else if s.physical() != r.physical() {
        Some("physical circuit")
    } else if s.basis_circuit() != r.basis_circuit() {
        Some("basis circuit")
    } else {
        None
    };
    match differs {
        Some(part) => Err(format!(
            "served artifact differs from a direct compile: {part}"
        )),
        None => Ok(()),
    }
}
