//! Order statistics over host timings.

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Integer percentile (nearest rank).
    pub percentile: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples ranked after it.
    pub beyond: usize,
}

/// 1-based nearest rank of the `p`th percentile among `n` samples.
fn rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest integer percentile (at least the median) whose nearest
/// rank among `n` samples leaves at least `beyond` samples after it; the
/// median when `n` is too small for that.
pub fn tail_rank(n: usize, beyond: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n >= rank(p, n) + beyond)
        .unwrap_or(50)
}

/// The `percentile`th percentile of `values` (nearest rank).
pub fn tail_at(values: &[f64], percentile: u32) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let r = rank(percentile, v.len());
    Tail {
        percentile,
        value: v.get(r - 1).copied().unwrap_or(0.0),
        beyond: v.len().saturating_sub(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_enough_samples_beyond() {
        assert_eq!(tail_rank(100, 10), 90);
        assert_eq!(tail_rank(50, 10), 80);
        assert_eq!(tail_rank(40, 10), 75);
        assert_eq!(tail_rank(12, 10), 50);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_at(&v, 90);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let t = tail_at(&v[..50], 80);
        assert_eq!((t.percentile, t.value, t.beyond), (80, 40.0, 10));
    }
}
