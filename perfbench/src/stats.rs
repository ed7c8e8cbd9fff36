//! Order statistics over repeated samples.

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]` (NaN when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(data, n=4)`, so reported spreads match the ones a
/// reader computes from the raw samples. A single sample is its own
/// quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let len = sorted.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&data), 5.5);
    }

    #[test]
    fn percentile_interpolates() {
        let data: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.95), 95.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
