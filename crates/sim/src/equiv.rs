//! Randomized sequential equivalence checking.
//!
//! Full sequential equivalence checking is PSPACE-hard; for the purposes of
//! the attack loop (candidate-key validation) and of the locking flow
//! (correct-key sanity check) a randomized simulation-based check over many
//! independent input sequences is the standard practical substitute and is
//! what this module provides.
//!
//! The checks run on the 64-lane [`crate::packed`] engine: every packed pass
//! drives up to 64 random sequences at once (one per lane), so a 64-sequence
//! validation costs two synchronized circuit traversals instead of 128. The
//! returned [`Counterexample`] is identical to what the scalar reference
//! implementations ([`random_equiv_check_scalar`],
//! [`key_restores_function_scalar`]) produce for the same seed: the
//! first-drawn mismatching sequence with its earliest mismatch cycle.

use rand::Rng;

use netlist::Netlist;

use crate::packed::{self, PackedSimulator, LANES};
use crate::simulator::{check_same_interface, SimError, Simulator};
use crate::stimulus;

/// A witness that two circuits differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Key sequence applied to the locked circuit (empty for plain checks).
    pub key: Vec<Vec<bool>>,
    /// Functional input sequence that exposes the difference.
    pub inputs: Vec<Vec<bool>>,
    /// Cycle (0-based, within the functional phase) of the first mismatch.
    pub cycle: usize,
}

/// Steps both packed simulators through `input_words` (after applying
/// `key_words` to `b` only) and returns the first mismatching lane in draw
/// order together with its earliest mismatch cycle — exactly the scalar
/// iteration order, since lane index equals draw order.
fn first_mismatching_lane(
    sim_a: &mut PackedSimulator<'_>,
    sim_b: &mut PackedSimulator<'_>,
    key_words: &[Vec<u64>],
    input_words: &[Vec<u64>],
    lanes: usize,
) -> Result<Option<(usize, usize)>, SimError> {
    sim_a.reset();
    sim_b.reset();
    for cycle in key_words {
        sim_b.step(cycle)?;
    }
    let mask = packed::lane_mask(lanes);
    let mut seen = 0u64;
    let mut first_cycle = [0usize; LANES];
    for (t, cycle_words) in input_words.iter().enumerate() {
        let out_a = sim_a.step(cycle_words)?;
        let out_b = sim_b.step(cycle_words)?;
        let mut diff = 0u64;
        for (a, b) in out_a.iter().zip(&out_b) {
            diff |= a ^ b;
        }
        let mut fresh = diff & !seen & mask;
        if fresh != 0 {
            seen |= fresh;
            while fresh != 0 {
                let lane = fresh.trailing_zeros() as usize;
                first_cycle[lane] = t;
                fresh &= fresh - 1;
            }
            // The result can no longer change once every lane has mismatched
            // or once lane 0 has: no lower-indexed (earlier-drawn) lane can
            // overtake it, and its earliest cycle is already recorded.
            if seen == mask || seen & 1 == 1 {
                break;
            }
        }
    }
    if seen == 0 {
        Ok(None)
    } else {
        let lane = seen.trailing_zeros() as usize;
        Ok(Some((lane, first_cycle[lane])))
    }
}

/// Compares two circuits with identical interfaces over `sequences` random
/// input sequences of `cycles` cycles each, 64 sequences per packed pass.
/// Returns `None` if no difference was observed.
///
/// This is exactly [`key_restores_function`] with an empty key phase (the
/// returned [`Counterexample::key`] is empty).
///
/// # Errors
///
/// Propagates simulator errors (invalid netlists, interface mismatches).
pub fn random_equiv_check<R: Rng + ?Sized>(
    a: &Netlist,
    b: &Netlist,
    cycles: usize,
    sequences: usize,
    rng: &mut R,
) -> Result<Option<Counterexample>, SimError> {
    key_restores_function(a, b, &[], cycles, sequences, rng)
}

/// Scalar reference implementation of [`random_equiv_check`]: one
/// [`Simulator`] pass per sequence. Kept as the differential-testing baseline
/// for the packed checker.
///
/// # Errors
///
/// Propagates simulator errors (invalid netlists, interface mismatches).
pub fn random_equiv_check_scalar<R: Rng + ?Sized>(
    a: &Netlist,
    b: &Netlist,
    cycles: usize,
    sequences: usize,
    rng: &mut R,
) -> Result<Option<Counterexample>, SimError> {
    key_restores_function_scalar(a, b, &[], cycles, sequences, rng)
}

/// Checks that the locked circuit configured with `key` behaves like the
/// original over `sequences` random input sequences of `cycles` cycles, 64
/// sequences per packed pass (the key phase is broadcast to every lane).
///
/// The key sequence is applied to the locked circuit right after reset; the
/// original circuit starts directly with the functional inputs, exactly as in
/// the paper's threat model.
///
/// # Errors
///
/// Propagates simulator errors (invalid netlists, interface mismatches).
pub fn key_restores_function<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    key: &[Vec<bool>],
    cycles: usize,
    sequences: usize,
    rng: &mut R,
) -> Result<Option<Counterexample>, SimError> {
    let mut orig_sim = PackedSimulator::new(original)?;
    let mut lock_sim = PackedSimulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    let key_words = packed::broadcast_sequence(key);
    let mut input_words = vec![vec![0u64; width]; cycles];
    let mut done = 0usize;
    while done < sequences {
        let lanes = (sequences - done).min(LANES);
        for lane in 0..lanes {
            stimulus::random_sequence_into_lane(rng, &mut input_words, lane);
        }
        if let Some((lane, cycle)) = first_mismatching_lane(
            &mut orig_sim,
            &mut lock_sim,
            &key_words,
            &input_words,
            lanes,
        )? {
            return Ok(Some(Counterexample {
                key: key.to_vec(),
                inputs: packed::unpack_lane(&input_words, lane),
                cycle,
            }));
        }
        done += lanes;
    }
    Ok(None)
}

/// Scalar reference implementation of [`key_restores_function`]
/// (differential baseline; returns the same counterexample as the packed
/// checker for the same seed).
///
/// # Errors
///
/// Propagates simulator errors (invalid netlists, interface mismatches).
pub fn key_restores_function_scalar<R: Rng + ?Sized>(
    original: &Netlist,
    locked: &Netlist,
    key: &[Vec<bool>],
    cycles: usize,
    sequences: usize,
    rng: &mut R,
) -> Result<Option<Counterexample>, SimError> {
    let mut orig_sim = Simulator::new(original)?;
    let mut lock_sim = Simulator::new(locked)?;
    check_same_interface(original, locked)?;
    let width = original.num_inputs();
    for _ in 0..sequences {
        let inputs = stimulus::random_sequence(rng, width, cycles);
        orig_sim.reset();
        lock_sim.reset();
        for key_cycle in key {
            lock_sim.step(key_cycle)?;
        }
        for (t, cycle_inputs) in inputs.iter().enumerate() {
            let expected = orig_sim.step(cycle_inputs)?;
            let got = lock_sim.step(cycle_inputs)?;
            if expected != got {
                return Ok(Some(Counterexample {
                    key: key.to_vec(),
                    inputs,
                    cycle: t,
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_circuit(invert: bool) -> Netlist {
        let mut nl = Netlist::new(if invert { "b" } else { "a" });
        let x = nl.add_input("x");
        let y = nl.add_input("y");
        let kind = if invert {
            GateKind::Xnor
        } else {
            GateKind::Xor
        };
        let o = nl.add_gate(kind, &[x, y], "o").unwrap();
        nl.mark_output(o).unwrap();
        nl
    }

    #[test]
    fn identical_circuits_are_equivalent() {
        let a = xor_circuit(false);
        let b = xor_circuit(false);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_equiv_check(&a, &b, 4, 16, &mut rng)
            .unwrap()
            .is_none());
    }

    #[test]
    fn different_circuits_yield_a_counterexample() {
        let a = xor_circuit(false);
        let b = xor_circuit(true);
        let mut rng = StdRng::seed_from_u64(1);
        let cex = random_equiv_check(&a, &b, 4, 16, &mut rng).unwrap();
        let cex = cex.expect("xor and xnor must differ");
        assert_eq!(cex.cycle, 0);
        assert!(cex.key.is_empty());
    }

    #[test]
    fn packed_counterexample_matches_the_scalar_reference() {
        let a = xor_circuit(false);
        let b = xor_circuit(true);
        for sequences in [1, 16, 64, 100] {
            let packed_cex =
                random_equiv_check(&a, &b, 4, sequences, &mut StdRng::seed_from_u64(9)).unwrap();
            let scalar_cex =
                random_equiv_check_scalar(&a, &b, 4, sequences, &mut StdRng::seed_from_u64(9))
                    .unwrap();
            assert_eq!(packed_cex, scalar_cex, "sequences = {sequences}");
        }
    }

    #[test]
    fn key_check_skips_the_key_phase() {
        // Original: out = x. "Locked": after one key cycle the output equals x
        // regardless of key value (trivially correct for any key).
        let mut original = Netlist::new("o");
        let x = original.add_input("x");
        let o = original.add_gate(GateKind::Buf, &[x], "o").unwrap();
        original.mark_output(o).unwrap();

        let mut locked = Netlist::new("l");
        let x = locked.add_input("x");
        let o = locked.add_gate(GateKind::Buf, &[x], "o").unwrap();
        locked.mark_output(o).unwrap();

        let mut rng = StdRng::seed_from_u64(5);
        let key = vec![vec![true]];
        assert!(
            key_restores_function(&original, &locked, &key, 3, 8, &mut rng)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = xor_circuit(false);
        let mut b = Netlist::new("one_input");
        let x = b.add_input("x");
        let o = b.add_gate(GateKind::Buf, &[x], "o").unwrap();
        b.mark_output(o).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_equiv_check(&a, &b, 2, 2, &mut rng).is_err());
    }

    #[test]
    fn output_count_mismatch_is_an_error_not_a_truncated_comparison() {
        // Same input count, different output count: the comparison must fail
        // loudly (scalar reference included) rather than zip-truncate the
        // extra output away and report equivalence.
        let a = xor_circuit(false);
        let mut b = xor_circuit(false);
        let x = b.net_id("x").unwrap();
        let extra = b.add_gate(GateKind::Not, &[x], "extra").unwrap();
        b.mark_output(extra).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let expected = SimError::OutputWidthMismatch {
            expected: 1,
            got: 2,
        };
        assert_eq!(
            random_equiv_check(&a, &b, 2, 4, &mut rng).unwrap_err(),
            expected
        );
        assert_eq!(
            random_equiv_check_scalar(&a, &b, 2, 4, &mut rng).unwrap_err(),
            expected
        );
        assert_eq!(
            key_restores_function(&a, &b, &[], 2, 4, &mut rng).unwrap_err(),
            expected
        );
    }
}
