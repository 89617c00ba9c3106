//! Percentiles and small summaries over latency samples.

/// A percentile read off a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample value.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly above the selected one.
    pub beyond: usize,
}

impl Percentile {
    /// The reporting rule: a percentile is only trusted when at least
    /// ten samples lie beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// value with at least `p` % of the samples at or below it. `None` for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median (the mean of the two middle values of an even set); 0 for an
/// empty set.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must not depend on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_of_a_hundred_has_exactly_ten_beyond() {
        let p = percentile(&ramp(100), 90.0).expect("non-empty");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        assert!(p.supported());
    }

    #[test]
    fn p90_of_ninety_nine_is_not_supported() {
        let p = percentile(&ramp(99), 90.0).expect("non-empty");
        // ceil(0.9 × 99) = 90 → nine samples beyond.
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 9);
        assert!(!p.supported());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert!(percentile(&ramp(20), 50.0).expect("non-empty").supported());
        assert!(!percentile(&ramp(19), 50.0).expect("non-empty").supported());
        assert_eq!(percentile(&ramp(20), 50.0).expect("non-empty").value, 10.0);
    }

    #[test]
    fn edges_and_empty_sets() {
        assert!(percentile(&[], 50.0).is_none());
        let one = percentile(&[7.0], 90.0).expect("non-empty");
        assert_eq!((one.value, one.beyond), (7.0, 0));
        assert_eq!(percentile(&ramp(10), 100.0).expect("non-empty").value, 10.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[6.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
