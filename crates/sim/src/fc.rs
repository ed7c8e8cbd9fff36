//! Functional-corruptibility (FC) estimation.
//!
//! The paper (Eq. 1) defines the functional corruptibility of a `b`-unrolled
//! locked circuit as the fraction of `(input sequence, key sequence)` pairs
//! for which at least one output bit differs from the original circuit over
//! the `b` functional cycles following the `κ` key-loading cycles.
//!
//! Exhausting the `2^{(κ+b)|I|}` pairs is infeasible beyond toy circuits, so
//! the paper estimates FC with 800 random samples per configuration; this
//! module implements both the exhaustive and the Monte-Carlo estimator.
//!
//! Both estimators run on the 64-lane [`crate::packed`] engine: the samples
//! of a configuration are packed into ⌈samples/64⌉ word-parallel runs, with
//! one `(input, key)` pair per lane. The stimuli are drawn from the RNG
//! straight into the lanes of the packed words
//! ([`stimulus::random_sequence_into_lane`]), in exactly the per-sample order of the scalar reference implementations
//! ([`estimate_fc_scalar`], [`estimate_fc_for_key_scalar`]), so packed and
//! scalar estimates agree **exactly** for the same seed — a property the
//! differential test suite pins on every benchmark profile.

use rand::Rng;

use netlist::Netlist;

use crate::packed::{self, PackedSimulator, LANES};
use crate::simulator::{check_same_interface, SimError, Simulator};
use crate::stimulus;

/// Result of an FC estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FcEstimate {
    /// Estimated functional corruptibility in `[0, 1]`.
    pub fc: f64,
    /// Number of `(input, key)` pairs evaluated.
    pub samples: usize,
    /// Number of pairs that produced at least one output mismatch.
    pub mismatches: usize,
}

/// Runs the locked circuit on `key ++ inputs` and the original circuit on
/// `inputs`, returning `true` if any output bit differs during the functional
/// cycles. This is the scalar single-trace primitive; Monte-Carlo consumers
/// use the packed lane-parallel path instead.
///
/// # Errors
///
/// Propagates simulator errors (interface mismatches).
pub fn outputs_differ(
    original: &mut Simulator<'_>,
    locked: &mut Simulator<'_>,
    key: &[Vec<bool>],
    inputs: &[Vec<bool>],
) -> Result<bool, SimError> {
    original.reset();
    locked.reset();
    for cycle in key {
        locked.step(cycle)?;
    }
    for cycle in inputs {
        let expected = original.step(cycle)?;
        let got = locked.step(cycle)?;
        if expected != got {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Packed analogue of [`outputs_differ`]: runs up to 64 executions at once
/// (`key_words` may differ per lane) and returns the word whose bit *i* is
/// set iff lane *i* observed at least one output mismatch. Only the low
/// `lanes` bits are meaningful.
///
/// # Errors
///
/// Propagates simulator errors (interface mismatches).
fn corrupted_lanes(
    original: &mut PackedSimulator<'_>,
    locked: &mut PackedSimulator<'_>,
    key_words: &[Vec<u64>],
    input_words: &[Vec<u64>],
    lanes: usize,
) -> Result<u64, SimError> {
    let mask = packed::lane_mask(lanes);
    original.reset();
    locked.reset();
    for cycle in key_words {
        locked.step(cycle)?;
    }
    let mut corrupted = 0u64;
    for cycle in input_words {
        let expected = original.step(cycle)?;
        let got = locked.step(cycle)?;
        for (e, g) in expected.iter().zip(&got) {
            corrupted |= e ^ g;
        }
        if corrupted & mask == mask {
            break;
        }
    }
    Ok(corrupted & mask)
}

/// Monte-Carlo FC estimate with `samples` random `(input, key)` pairs, `kappa`
/// key cycles and `cycles` functional cycles (the paper's `b`), evaluated on
/// the 64-lane packed engine (one sample per lane).
///
/// Seeded with the same RNG, this returns the exact same estimate as the
/// scalar reference [`estimate_fc_scalar`].
///
/// # Errors
///
/// Returns [`SimError::InvalidNetlist`] if either netlist fails validation and
/// [`SimError::InputWidthMismatch`] if the two circuits have different
/// primary-input counts.
pub fn estimate_fc<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    kappa: usize,
    cycles: usize,
    samples: usize,
    rng: &mut R,
) -> Result<FcEstimate, SimError> {
    let mut orig_sim = PackedSimulator::new(original)?;
    let mut lock_sim = PackedSimulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    let mut key_words = vec![vec![0u64; width]; kappa];
    let mut input_words = vec![vec![0u64; width]; cycles];
    let mut mismatches = 0usize;
    let mut done = 0usize;
    while done < samples {
        let lanes = (samples - done).min(LANES);
        // Draw per sample in the scalar reference order: key, then inputs.
        for lane in 0..lanes {
            stimulus::random_sequence_into_lane(rng, &mut key_words, lane);
            stimulus::random_sequence_into_lane(rng, &mut input_words, lane);
        }
        let corrupted = corrupted_lanes(
            &mut orig_sim,
            &mut lock_sim,
            &key_words,
            &input_words,
            lanes,
        )?;
        mismatches += corrupted.count_ones() as usize;
        done += lanes;
    }
    Ok(FcEstimate {
        fc: mismatches as f64 / samples.max(1) as f64,
        samples,
        mismatches,
    })
}

/// Scalar reference implementation of [`estimate_fc`]: one [`Simulator`] run
/// per sample. Kept as the differential-testing baseline for the packed
/// estimator; production callers should use [`estimate_fc`].
///
/// # Errors
///
/// Same contract as [`estimate_fc`].
pub fn estimate_fc_scalar<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    kappa: usize,
    cycles: usize,
    samples: usize,
    rng: &mut R,
) -> Result<FcEstimate, SimError> {
    let mut orig_sim = Simulator::new(original)?;
    let mut lock_sim = Simulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    let mut mismatches = 0;
    for _ in 0..samples {
        let key = stimulus::random_sequence(rng, width, kappa);
        let inputs = stimulus::random_sequence(rng, width, cycles);
        if outputs_differ(&mut orig_sim, &mut lock_sim, &key, &inputs)? {
            mismatches += 1;
        }
    }
    Ok(FcEstimate {
        fc: mismatches as f64 / samples.max(1) as f64,
        samples,
        mismatches,
    })
}

/// FC of a *specific* key over random input sequences: the probability that
/// the locked circuit configured with `key` produces an output error within
/// `cycles` functional cycles. The correct key must yield 0. The key phase is
/// broadcast across all 64 lanes; the random input sequences fill one lane
/// each.
///
/// # Errors
///
/// Propagates simulator and interface errors.
pub fn estimate_fc_for_key<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    key: &[Vec<bool>],
    cycles: usize,
    samples: usize,
    rng: &mut R,
) -> Result<FcEstimate, SimError> {
    let mut orig_sim = PackedSimulator::new(original)?;
    let mut lock_sim = PackedSimulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    let key_words = packed::broadcast_sequence(key);
    let mut input_words = vec![vec![0u64; width]; cycles];
    let mut mismatches = 0usize;
    let mut done = 0usize;
    while done < samples {
        let lanes = (samples - done).min(LANES);
        for lane in 0..lanes {
            stimulus::random_sequence_into_lane(rng, &mut input_words, lane);
        }
        let corrupted = corrupted_lanes(
            &mut orig_sim,
            &mut lock_sim,
            &key_words,
            &input_words,
            lanes,
        )?;
        mismatches += corrupted.count_ones() as usize;
        done += lanes;
    }
    Ok(FcEstimate {
        fc: mismatches as f64 / samples.max(1) as f64,
        samples,
        mismatches,
    })
}

/// Scalar reference implementation of [`estimate_fc_for_key`] (differential
/// baseline; agrees exactly with the packed version for the same seed).
///
/// # Errors
///
/// Propagates simulator and interface errors.
pub fn estimate_fc_for_key_scalar<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    key: &[Vec<bool>],
    cycles: usize,
    samples: usize,
    rng: &mut R,
) -> Result<FcEstimate, SimError> {
    let mut orig_sim = Simulator::new(original)?;
    let mut lock_sim = Simulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    let mut mismatches = 0;
    for _ in 0..samples {
        let inputs = stimulus::random_sequence(rng, width, cycles);
        if outputs_differ(&mut orig_sim, &mut lock_sim, key, &inputs)? {
            mismatches += 1;
        }
    }
    Ok(FcEstimate {
        fc: mismatches as f64 / samples.max(1) as f64,
        samples,
        mismatches,
    })
}

/// Exhaustive FC over every `(input, key)` pair; only feasible when
/// `(kappa + cycles) * |I|` is small (paper Fig. 3 scale). The input space of
/// each key is swept 64 values per packed run.
///
/// # Errors
///
/// Returns [`SimError::InvalidNetlist`] for invalid netlists. Panics are
/// avoided by refusing interfaces wider than 24 total bits via
/// [`SimError::InputWidthMismatch`].
pub fn exhaustive_fc(
    original: &Netlist,
    locked: &Netlist,
    kappa: usize,
    cycles: usize,
) -> Result<FcEstimate, SimError> {
    let width = original.num_inputs();
    let key_bits = kappa * width;
    let input_bits = cycles * width;
    if key_bits + input_bits > 24 {
        return Err(SimError::InputWidthMismatch {
            expected: 24,
            got: key_bits + input_bits,
        });
    }
    let mut orig_sim = PackedSimulator::new(original)?;
    let mut lock_sim = PackedSimulator::new(locked)?;
    check_same_interface(original, locked)?;
    let mut mismatches = 0usize;
    let mut samples = 0usize;
    let total_inputs = 1u64 << input_bits;
    for key_value in 0..(1u64 << key_bits) {
        let key = stimulus::sequence_from_value(key_value, width, kappa);
        let key_words = packed::broadcast_sequence(&key);
        let mut base = 0u64;
        while base < total_inputs {
            let lanes = ((total_inputs - base) as usize).min(LANES);
            // Lane l sweeps input value `base + l`.
            let mut input_words = vec![vec![0u64; width]; cycles];
            for l in 0..lanes {
                let value = base + l as u64;
                for (t, cycle_words) in input_words.iter_mut().enumerate() {
                    for (j, word) in cycle_words.iter_mut().enumerate() {
                        *word |= ((value >> (t * width + j)) & 1) << l;
                    }
                }
            }
            let corrupted = corrupted_lanes(
                &mut orig_sim,
                &mut lock_sim,
                &key_words,
                &input_words,
                lanes,
            )?;
            mismatches += corrupted.count_ones() as usize;
            samples += lanes;
            base += lanes as u64;
        }
    }
    Ok(FcEstimate {
        fc: mismatches as f64 / samples.max(1) as f64,
        samples,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Original: out = in. Locked (toy): out = in XOR wrong_key_bit where the
    /// "key" is the single input during the first cycle and the correct key
    /// is 0 — i.e. applying key 1 corrupts every subsequent output.
    fn original() -> Netlist {
        let mut nl = Netlist::new("orig");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a], "o").unwrap();
        nl.mark_output(buf).unwrap();
        nl
    }

    fn locked() -> Netlist {
        let mut nl = Netlist::new("locked");
        let a = nl.add_input("a");
        // Capture the first-cycle input as the key bit: armed register stays 0
        // after the first cycle; captured key is XORed onto the output forever.
        let captured = nl.declare_dff("captured", false).unwrap();
        let armed = nl.declare_dff("armed", true).unwrap();
        // captured' = armed ? a : captured
        let sel = nl
            .add_gate(GateKind::Mux, &[armed, captured, a], "cap_next")
            .unwrap();
        nl.bind_dff(captured, sel).unwrap();
        // armed' = 0
        let zero = nl.add_gate(GateKind::Const0, &[], "zero").unwrap();
        nl.bind_dff(armed, zero).unwrap();
        let out = nl.add_gate(GateKind::Xor, &[a, captured], "o").unwrap();
        nl.mark_output(out).unwrap();
        nl
    }

    #[test]
    fn correct_key_has_zero_fc() {
        let orig = original();
        let lock = locked();
        let mut rng = StdRng::seed_from_u64(7);
        let key = vec![vec![false]]; // correct key: 0
        let est = estimate_fc_for_key(&orig, &lock, &key, 4, 50, &mut rng).unwrap();
        assert_eq!(est.mismatches, 0);
        assert_eq!(est.fc, 0.0);
    }

    #[test]
    fn wrong_key_always_corrupts() {
        let orig = original();
        let lock = locked();
        let mut rng = StdRng::seed_from_u64(7);
        let key = vec![vec![true]];
        let est = estimate_fc_for_key(&orig, &lock, &key, 4, 50, &mut rng).unwrap();
        assert_eq!(est.mismatches, 50);
    }

    #[test]
    fn random_estimate_is_close_to_half() {
        // Half of the keys (the single bit) are wrong and always corrupt, so
        // FC over random keys is ~0.5.
        let orig = original();
        let lock = locked();
        let mut rng = StdRng::seed_from_u64(3);
        let est = estimate_fc(&orig, &lock, 1, 3, 400, &mut rng).unwrap();
        assert!((est.fc - 0.5).abs() < 0.1, "fc = {}", est.fc);
    }

    #[test]
    fn packed_and_scalar_estimates_agree_exactly() {
        let orig = original();
        let lock = locked();
        for samples in [1, 63, 64, 65, 130, 400] {
            let packed_est =
                estimate_fc(&orig, &lock, 1, 3, samples, &mut StdRng::seed_from_u64(11)).unwrap();
            let scalar_est =
                estimate_fc_scalar(&orig, &lock, 1, 3, samples, &mut StdRng::seed_from_u64(11))
                    .unwrap();
            assert_eq!(packed_est, scalar_est, "samples = {samples}");
        }
        let key = vec![vec![true]];
        let packed_est =
            estimate_fc_for_key(&orig, &lock, &key, 4, 100, &mut StdRng::seed_from_u64(5)).unwrap();
        let scalar_est =
            estimate_fc_for_key_scalar(&orig, &lock, &key, 4, 100, &mut StdRng::seed_from_u64(5))
                .unwrap();
        assert_eq!(packed_est, scalar_est);
    }

    #[test]
    fn exhaustive_fc_is_exact() {
        let orig = original();
        let lock = locked();
        let est = exhaustive_fc(&orig, &lock, 1, 3).unwrap();
        // Exactly the 8 input sequences under the wrong key mismatch out of 16.
        assert_eq!(est.samples, 16);
        assert_eq!(est.mismatches, 8);
        assert!((est.fc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_fc_sweeps_spaces_wider_than_one_word_batch() {
        // 7 input bits per key → 128 input values → two packed batches; the
        // identity-vs-corrupting pair still yields FC = 0.5 exactly.
        let orig = original();
        let lock = locked();
        let est = exhaustive_fc(&orig, &lock, 1, 7).unwrap();
        assert_eq!(est.samples, 256);
        assert_eq!(est.mismatches, 128);
    }

    #[test]
    fn exhaustive_fc_refuses_huge_spaces() {
        let orig = original();
        let lock = locked();
        assert!(exhaustive_fc(&orig, &lock, 30, 30).is_err());
    }
}
