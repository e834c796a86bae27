//! Shot sampling from statevectors.
//!
//! QAOA evaluates its cost function over a finite number of samples
//! ("shots") from the circuit output (§II "QAOA Optimization Flow"); the
//! hardware experiments of §V-G use 40960 shots per circuit. This module
//! provides an efficient multi-shot sampler (cumulative distribution +
//! binary search) and the counts container shared by the noiseless and
//! noisy paths.

use std::collections::BTreeMap;

use rand::Rng;

use crate::state::Support;
use crate::StateVector;

/// Measurement outcome counts: basis state → number of shots.
pub type Counts = BTreeMap<usize, u64>;

/// Normalizes counts into a probability distribution over basis states.
///
/// Returns an empty vector when `counts` is empty; otherwise the vector has
/// `1 << num_qubits` entries.
pub fn counts_to_distribution(counts: &Counts, num_qubits: usize) -> Vec<f64> {
    let total: u64 = counts.values().sum();
    let mut dist = vec![0.0; 1usize << num_qubits];
    if total == 0 {
        return dist;
    }
    for (&state, &n) in counts {
        dist[state] = n as f64 / total as f64;
    }
    dist
}

/// Samples computational-basis measurement outcomes from a statevector.
///
/// The cumulative table covers only the state's support (`2^12` entries
/// for a 12-node instance on 15-qubit melbourne), in ascending basis-index
/// order. Skipped entries have probability zero, so the table holds
/// exactly the dense table's distinct values, a binary search for a
/// draw lands on the same basis state, and sampled counts are
/// bit-identical to sampling the dense layout with the same `rng`.
/// Construction is `O(2^support)`; each shot is `O(support)`.
#[derive(Debug, Clone)]
pub struct Sampler {
    cumulative: Vec<f64>,
    /// The support walk of the last state, rebuilt only when a state
    /// arrives in another storage frame.
    support: Support,
    /// The storage frame `support` was built for.
    frame: Vec<usize>,
}

impl Sampler {
    /// Builds a sampler over the Born-rule distribution of `state`.
    pub fn new(state: &StateVector) -> Self {
        let mut sampler = Sampler {
            cumulative: Vec::new(),
            support: state.support(),
            frame: state.slot.clone(),
        };
        sampler.rebuild(state);
        sampler
    }

    /// Rebuilds the sampler over a new state, reusing the table
    /// allocation — the resampling counterpart of [`Sampler::new`] for
    /// trajectory loops. A state in the same storage frame as the last
    /// one (every trajectory) reuses the support walk too, so this
    /// allocates nothing.
    pub fn rebuild(&mut self, state: &StateVector) {
        if self.frame != state.slot {
            self.support = state.support();
            self.frame.clone_from(&state.slot);
        }
        self.cumulative.clear();
        let mut acc = 0.0;
        self.cumulative.extend(self.support.iter().map(|(_, j)| {
            acc += state.amps[j].norm_sqr();
            acc
        }));
    }

    /// Draws one support index.
    fn sample_support<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty state");
        let x: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// Draws one basis state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.support.circuit_of.map(self.sample_support(rng))
    }

    /// Draws `shots` basis states and tallies them.
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        let mut tally = Tally::new(shots);
        for _ in 0..shots {
            tally.add(self.sample_support(rng));
        }
        tally.into_counts(|c| self.support.circuit_of.map(c))
    }
}

/// Drawn outcomes, tallied without a tree insert per draw: the draws are
/// kept, sorted once, and [`Tally::into_counts`] reads the counts off the
/// sorted runs, so the map is built in one bulk load. The cost is bounded
/// by the number of draws, whatever the outcome domain.
pub(crate) struct Tally(Vec<usize>);

impl Tally {
    pub(crate) fn new(draws: u64) -> Self {
        Tally(Vec::with_capacity(usize::try_from(draws).unwrap_or(0)))
    }

    pub(crate) fn add(&mut self, outcome: usize) {
        self.0.push(outcome);
    }

    /// The counts, with each outcome renamed by `label`, which must be
    /// increasing (so the runs stay sorted).
    pub(crate) fn into_counts(mut self, label: impl Fn(usize) -> usize) -> Counts {
        self.0.sort_unstable();
        let mut runs: Vec<(usize, u64)> = Vec::new();
        for c in self.0 {
            match runs.last_mut() {
                Some((last, n)) if *last == c => *n += 1,
                _ => runs.push((c, 1)),
            }
        }
        runs.into_iter().map(|(c, n)| (label(c), n)).collect()
    }
}

/// Applies independent per-qubit readout bit-flips to sampled counts.
///
/// `flip_probability(q)` is the readout error rate of physical qubit `q`.
/// This models the measurement errors of real devices on top of either
/// noiseless or trajectory sampling.
pub fn apply_readout_error<R, F>(
    counts: &Counts,
    num_qubits: usize,
    mut flip_probability: F,
    rng: &mut R,
) -> Counts
where
    R: Rng + ?Sized,
    F: FnMut(usize) -> f64,
{
    let flip_p: Vec<f64> = (0..num_qubits).map(&mut flip_probability).collect();
    let mut tally = Tally::new(counts.values().sum());
    for (&state, &n) in counts {
        for _ in 0..n {
            let mut s = state;
            for (q, &p) in flip_p.iter().enumerate() {
                if p > 0.0 && rng.gen_bool(p) {
                    s ^= 1usize << q;
                }
            }
            tally.add(s);
        }
    }
    tally.into_counts(|s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_state_always_samples_itself() {
        let mut c = Circuit::new(3);
        c.x(1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(0);
        let counts = Sampler::new(&sv).sample_counts(100, &mut rng);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&0b010], 100);
    }

    #[test]
    fn bell_state_sampling_is_balanced() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = Sampler::new(&sv).sample_counts(10_000, &mut rng);
        let n00 = counts.get(&0b00).copied().unwrap_or(0) as f64;
        let n11 = counts.get(&0b11).copied().unwrap_or(0) as f64;
        assert_eq!(n00 + n11, 10_000.0);
        assert!((n00 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn distribution_normalizes() {
        let counts = Counts::from([(0b00, 30), (0b11, 70)]);
        let d = counts_to_distribution(&counts, 2);
        assert_eq!(d.len(), 4);
        assert!((d[0] - 0.3).abs() < 1e-12);
        assert!((d[3] - 0.7).abs() < 1e-12);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_give_zero_distribution() {
        let d = counts_to_distribution(&Counts::new(), 2);
        assert_eq!(d, vec![0.0; 4]);
    }

    #[test]
    fn readout_error_zero_is_identity() {
        let counts = Counts::from([(5, 10), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = apply_readout_error(&counts, 3, |_| 0.0, &mut rng);
        assert_eq!(out, counts);
    }

    #[test]
    fn readout_error_one_flips_everything() {
        let counts = Counts::from([(0b000, 10)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = apply_readout_error(&counts, 3, |_| 1.0, &mut rng);
        assert_eq!(out, Counts::from([(0b111, 10)]));
    }

    #[test]
    fn readout_error_rate_statistics() {
        let counts = Counts::from([(0b0, 20_000)]);
        let mut rng = StdRng::seed_from_u64(9);
        let out = apply_readout_error(&counts, 1, |_| 0.25, &mut rng);
        let flipped = out.get(&1).copied().unwrap_or(0) as f64 / 20_000.0;
        assert!((flipped - 0.25).abs() < 0.02, "flip rate {flipped}");
    }

    #[test]
    fn tally_matches_per_draw_inserts() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        // (domain, draws): many repeats, then almost none.
        for (domain, draws) in [(64usize, 500u64), (1 << 20, 40)] {
            let mut tally = Tally::new(draws);
            let mut want = Counts::new();
            for _ in 0..draws {
                let x = rng.gen_range(0..domain);
                tally.add(x);
                *want.entry(3 * x).or_insert(0) += 1;
            }
            assert_eq!(tally.into_counts(|x| 3 * x), want);
        }
    }

    #[test]
    fn sampler_matches_probabilities() {
        let mut c = Circuit::new(2);
        c.rx(1.0, 0);
        c.ry(0.7, 1);
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        let mut rng = StdRng::seed_from_u64(17);
        let counts = Sampler::new(&sv).sample_counts(50_000, &mut rng);
        for (state, &p) in probs.iter().enumerate() {
            let freq = counts.get(&state).copied().unwrap_or(0) as f64 / 50_000.0;
            assert!((freq - p).abs() < 0.02, "state {state}: {freq} vs {p}");
        }
    }
}
