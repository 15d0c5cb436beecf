//! Order statistics over host-time samples.

use std::fmt;

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The closure check's trusted band: the per-layer times of a traced run
/// must sum to within 15% of the measured end-to-end time.
pub const CLOSURE_BAND: (f64, f64) = (0.85, 1.15);

/// A percentile that cannot be reported honestly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TooFewSamples {
    pub pct: u32,
    pub samples: usize,
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.pct, self.samples, self.beyond
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the same interpolation as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match those computed from the JSON results.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let im = i * (n + 1);
        let j = (im / 4).clamp(1, n - 1);
        let delta = im as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median(&v), q(3))
}

/// The nearest-rank `pct`-th percentile, refused unless at least
/// [`MIN_BEYOND`] samples lie above it.
pub fn percentile(xs: &[f64], pct: u32) -> Result<f64, TooFewSamples> {
    let v = sorted(xs);
    let n = v.len();
    let rank = (pct as usize * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            pct,
            samples: n,
            beyond,
        });
    }
    Ok(v[rank - 1])
}

/// Geometric mean of positive values; `NaN` for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Per-layer time accounted for by the replays, over the measured time of
/// the same cells. 1.0 means the layers explain the end-to-end time.
pub fn closure_ratio(layers_ns: f64, measured_ns: f64) -> f64 {
    layers_ns / measured_ns
}

/// Whether a closure ratio lies in [`CLOSURE_BAND`].
pub fn closure_trusted(ratio: f64) -> bool {
    (CLOSURE_BAND.0..=CLOSURE_BAND.1).contains(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Ok(90.0));
        assert_eq!(percentile(&xs, 50), Ok(50.0));
        let err = percentile(&xs, 95).unwrap_err();
        assert_eq!((err.samples, err.beyond), (100, 5));
        assert!(
            percentile(&xs[..99], 90).is_err(),
            "99 samples leave 9 above p90"
        );
        assert!(percentile(&[], 50).is_err());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn closure_ratio_and_band() {
        assert_eq!(closure_ratio(900.0, 1000.0), 0.9);
        assert!(closure_trusted(closure_ratio(1_100.0, 1_000.0)));
        assert!(!closure_trusted(closure_ratio(800.0, 1_000.0)));
        assert!(!closure_trusted(closure_ratio(1_200.0, 1_000.0)));
        assert!(!closure_trusted(f64::NAN));
    }
}
