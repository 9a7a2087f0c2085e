//! Welford-style running moments.
//!
//! The wander-join estimators (§6.1) update a join-size estimate one random
//! walk at a time; [`RunningMoments`] provides numerically stable online
//! mean and variance for that purpose, matching the paper's
//! `|J|_{S∪t0} = |J|_S + (1/(m+1)) (1/p(t0) − |J|_S)` update rule.

/// Numerically stable running mean / variance accumulator (Welford).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (`m2 / (n − 1)`); `0.0` for fewer than two
    /// observations. This is the `T_{n,2}` term of §6.2.
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev_sample(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Merges another accumulator into this one (parallel Welford / Chan).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn matches_naive_computation() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.5];
        let mut rm = RunningMoments::new();
        for &x in &xs {
            rm.push(x);
        }
        let (mean, var) = naive_mean_var(&xs);
        assert!((rm.mean() - mean).abs() < 1e-12);
        assert!((rm.variance_sample() - var).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_are_safe() {
        let mut rm = RunningMoments::new();
        assert_eq!(rm.mean(), 0.0);
        assert_eq!(rm.variance_sample(), 0.0);
        rm.push(7.0);
        assert_eq!(rm.mean(), 7.0);
        assert_eq!(rm.variance_sample(), 0.0);
        assert_eq!(rm.count(), 1);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64).collect();
        let mut all = RunningMoments::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for &x in &xs[..33] {
            left.push(x);
        }
        for &x in &xs[33..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance_sample() - all.variance_sample()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningMoments::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&RunningMoments::new());
        assert_eq!(a, before);

        let mut empty = RunningMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn constant_stream_has_zero_variance() {
        let mut rm = RunningMoments::new();
        for _ in 0..1000 {
            rm.push(5.5);
        }
        assert!((rm.mean() - 5.5).abs() < 1e-12);
        assert!(rm.variance_sample().abs() < 1e-12);
    }
}
