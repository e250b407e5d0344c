//! Order statistics over timing samples.
//!
//! Every reported percentile must keep at least [`MIN_BEYOND`] samples
//! beyond it; a percentile with fewer is refused rather than reported,
//! because its value would be decided by a handful of outliers.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was not reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Refused {
    /// The requested quantile, in `(0, 1)`.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refusing p{}: {} samples leave {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.n,
            self.beyond
        )
    }
}

/// The nearest-rank `q`-quantile of `samples`.
///
/// # Errors
///
/// [`Refused`] when fewer than [`MIN_BEYOND`] samples lie above the
/// quantile's rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, Refused> {
    let n = samples.len();
    let rank = rank(n, q);
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(Refused { q, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of a non-empty sample (interpolated for an even count).
/// Used for small repeated measurements such as set-up time, where no
/// tail is claimed.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples needed before the `q`-quantile keeps [`MIN_BEYOND`] beyond it.
pub fn min_samples(q: f64) -> u64 {
    (1..)
        .find(|&n| n - rank(n as usize, q) as u64 >= MIN_BEYOND as u64)
        .expect("some count suffices")
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_refusal_boundary() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
        assert_eq!(percentile(&xs, 0.95).unwrap_err().beyond, 5);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
