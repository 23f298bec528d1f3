//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method) because that is what the benchmark driver applies
//! to the per-run values this runner reports; using the same rule inside
//! a run keeps the two levels comparable.

/// Median, quartiles and sample count of one metric within one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that is computed or counted once, not sampled.
    pub fn single(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// The `p`-quantile (0 < p < 1) by the exclusive method: position
/// `p * (n + 1)` in the 1-based sorted sample, linearly interpolated and
/// clamped to the sample's range.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let j = pos.floor();
    let frac = pos - j;
    let j = j as usize;
    if j < 1 {
        return sorted[0];
    }
    if j >= n {
        return sorted[n - 1];
    }
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The 99th percentile, reported only where at least ten samples lie
/// beyond it (n ≥ 1000); below that the tail is not resolved.
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < 1000 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    Some(quantile(&s, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-checked against Python 3.11:
    //   statistics.quantiles([1, 2, 3, 4, 5], n=4)             -> [1.5, 3.0, 4.5]
    //   statistics.quantiles([10, 20, 30, 40], n=4)            -> [12.5, 25.0, 37.5]
    //   statistics.quantiles([7, 1, 3], n=4)                   -> [1.0, 3.0, 7.0]
    //   statistics.quantiles(range(1, 12), n=4)                -> [3.0, 6.0, 9.0]
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        let s = summarize(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        let s = summarize(&[7.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 7.0));
        let v: Vec<f64> = (1..12).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[4.25]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.25, 4.25, 4.25, 1));
        assert_eq!(Summary::single(2.0).median, 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        // 1..=1000: position 0.99 * 1001 = 990.99 -> 990 + 0.99 * 1.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = p99(&many).unwrap();
        assert!((p - 990.99).abs() < 1e-9, "{p}");
    }
}
