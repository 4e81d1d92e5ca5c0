//! Order statistics over timing samples.
//!
//! Percentiles are nearest-rank: the smallest sample with at least a
//! `q` share of the samples at or below it. A percentile is therefore
//! always a measured value, never a blend of two jobs of different
//! kinds (a corpus pass mixes 3 ms and 900 ms jobs). Quartiles follow
//! Python's `statistics.quantiles(xs, n=4)` ("exclusive" method), which
//! is what the spread checks in the README are stated over.

/// Sorts a copy of `xs` (NaN-free timing samples).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The nearest-rank `q`-quantile (`0.0..=1.0`) of `xs`; 0 for an empty
/// slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (the lower middle sample of an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives
/// them. Needs at least two samples; a single sample is its own spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    match xs.len() {
        0 => (0.0, 0.0),
        1 => (xs[0], xs[0]),
        n => {
            let v = sorted(xs);
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Samples strictly beyond the `q`-quantile's rank in `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((n as f64 * q).ceil() as usize).min(n)
}

/// Whether a `q`-quantile over `n` samples has the ten samples beyond it
/// that make it worth reporting.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= 10
}

/// Sum of the slowest `share` of `xs` divided by the sum of all of them:
/// how much of the total the tail holds. At least one sample counts as
/// the tail when `xs` is non-empty.
pub fn tail_share(xs: &[f64], share: f64) -> f64 {
    let total: f64 = xs.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let v = sorted(xs);
    let k = ((v.len() as f64 * share).ceil() as usize).clamp(1, v.len());
    v[v.len() - k..].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.91), 10.0);
        // Never a blend: a fast and a slow job give one of the two.
        assert_eq!(percentile(&[3.0, 900.0], 0.9), 900.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(percentile_supported(100, 0.9));
        assert!(!percentile_supported(99, 0.9));
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(20, 0.5));
        assert!(!percentile_supported(19, 0.5));
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn tail_share_takes_the_slowest_samples() {
        let mut xs = vec![1.0; 99];
        xs.push(101.0);
        assert!((tail_share(&xs, 0.01) - 0.505).abs() < 1e-12);
        assert_eq!(tail_share(&[2.0], 0.01), 1.0);
        assert_eq!(tail_share(&[], 0.01), 0.0);
    }
}
