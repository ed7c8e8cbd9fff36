//! Deterministic pseudo-random stimulus generation.
//!
//! All generators take an explicit [`rand::Rng`] so that experiments are
//! reproducible from a seed, matching the methodology of the paper's
//! evaluation (fixed number of random input/key samples per configuration).

use rand::Rng;

/// A multi-cycle stimulus: one `Vec<bool>` of primary-input values per cycle.
pub type Sequence = Vec<Vec<bool>>;

/// Generates a random input vector of the given width.
pub fn random_vector<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Vec<bool> {
    (0..width).map(|_| rng.gen_bool(0.5)).collect()
}

/// Generates a random sequence of `cycles` input vectors of the given width.
pub fn random_sequence<R: Rng + ?Sized>(rng: &mut R, width: usize, cycles: usize) -> Sequence {
    (0..cycles).map(|_| random_vector(rng, width)).collect()
}

/// Packed counterpart of [`random_sequence`]: draws one random sequence
/// into lane `lane` of `words` (one `Vec<u64>` per cycle, one word per
/// input), consuming the RNG exactly as `random_sequence` would for the same
/// shape. The other lanes are left untouched.
///
/// # Panics
///
/// Panics if `lane >= 64`.
pub fn random_sequence_into_lane<R: Rng + ?Sized>(
    rng: &mut R,
    words: &mut [Vec<u64>],
    lane: usize,
) {
    assert!(lane < 64, "lane {lane} out of range");
    let bit = 1u64 << lane;
    for word in words.iter_mut().flatten() {
        *word = if rng.gen_bool(0.5) {
            *word | bit
        } else {
            *word & !bit
        };
    }
}

/// Encodes an unsigned value as a single input vector (LSB-first), padding
/// with zeros to `width` bits.
///
/// # Panics
///
/// Panics if the value needs more than `width` bits.
pub fn vector_from_value(value: u64, width: usize) -> Vec<bool> {
    assert!(
        width >= 64 - value.leading_zeros() as usize || value == 0,
        "value {value} does not fit in {width} bits"
    );
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Encodes a multi-cycle unsigned value as a sequence: cycle `t` carries bits
/// `[t*width, (t+1)*width)` of `value`, LSB-first within each cycle. This is
/// the enumeration order used when exhaustively sweeping small input/key
/// spaces (paper Fig. 3).
pub fn sequence_from_value(value: u64, width: usize, cycles: usize) -> Sequence {
    (0..cycles)
        .map(|t| {
            (0..width)
                .map(|i| (value >> (t * width + i)) & 1 == 1)
                .collect()
        })
        .collect()
}

/// Flattens a sequence back into the packed unsigned value used by
/// [`sequence_from_value`].
///
/// # Panics
///
/// Panics if the sequence packs to more than 64 bits.
pub fn value_from_sequence(sequence: &[Vec<bool>]) -> u64 {
    let total: usize = sequence.iter().map(Vec::len).sum();
    assert!(total <= 64, "sequence too wide to pack into u64");
    let mut value = 0u64;
    let mut bit = 0;
    for cycle in sequence {
        for &b in cycle {
            value |= (b as u64) << bit;
            bit += 1;
        }
    }
    value
}

/// Concatenates two sequences (e.g. a key sequence followed by a functional
/// input sequence).
pub fn concat(a: &[Vec<bool>], b: &[Vec<bool>]) -> Sequence {
    a.iter().chain(b.iter()).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_sequence_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let seq = random_sequence(&mut rng, 5, 7);
        assert_eq!(seq.len(), 7);
        assert!(seq.iter().all(|v| v.len() == 5));
    }

    #[test]
    fn same_seed_same_stimulus() {
        let a = random_sequence(&mut StdRng::seed_from_u64(42), 8, 16);
        let b = random_sequence(&mut StdRng::seed_from_u64(42), 8, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn lane_draw_matches_the_scalar_sequence() {
        let mut words = vec![vec![u64::MAX; 5]; 7];
        let mut packed_rng = StdRng::seed_from_u64(42);
        let mut scalar_rng = StdRng::seed_from_u64(42);
        for lane in [0, 17, 63] {
            random_sequence_into_lane(&mut packed_rng, &mut words, lane);
            let expected = random_sequence(&mut scalar_rng, 5, 7);
            for (cycle, vector) in words.iter().zip(&expected) {
                for (&word, &bit) in cycle.iter().zip(vector) {
                    assert_eq!((word >> lane) & 1 == 1, bit);
                }
            }
        }
        // Lanes never drawn keep their previous bits.
        assert!(words.iter().flatten().all(|w| (w >> 1) & 1 == 1));
    }

    #[test]
    fn value_round_trip() {
        for v in 0..64u64 {
            let seq = sequence_from_value(v, 3, 2);
            assert_eq!(value_from_sequence(&seq), v);
        }
    }

    #[test]
    fn vector_from_value_is_lsb_first() {
        assert_eq!(vector_from_value(5, 4), vec![true, false, true, false]);
    }

    #[test]
    fn concat_preserves_order() {
        let a = sequence_from_value(1, 2, 1);
        let b = sequence_from_value(2, 2, 1);
        let joined = concat(&a, &b);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0], a[0]);
        assert_eq!(joined[1], b[0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        vector_from_value(16, 4);
    }
}
