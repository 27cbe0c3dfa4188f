//! Order statistics of a small sample. The quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default *exclusive*
//! method), so a spread computed here is the spread the acceptance
//! driver computes from the same values.

/// Median, quartiles and range of one metric over the samples of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values`.
    ///
    /// # Panics
    /// Panics on an empty sample or a NaN: both are harness bugs, not
    /// measurements.
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
    v
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `(q1, median, q3)` of an ascending slice. A single value is its own
/// quartiles (Python raises there; a one-sample run still has to print).
fn quartiles_sorted(s: &[f64]) -> (f64, f64, f64) {
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 2.0, 2));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
