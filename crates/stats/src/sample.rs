//! Weighted categorical sampling.
//!
//! Join selection in the union framework draws a join index `j` with
//! probability `|J'_j| / |U|` on every iteration (Algorithm 1 line 6).
//! [`Categorical`] does it by cumulative weights and binary search,
//! O(log n) per draw and cheap to rebuild when the weights change
//! (Algorithm 2 updates them after every backtracking round). A fixed
//! distribution drawn from millions of times — the Exact-Weight join
//! sampler's root and per-key selections — is a segment of an
//! [`AliasArena`](crate::arena::AliasArena) instead: Walker/Vose, O(1)
//! per draw.

use crate::rng::SujRng;

/// Cumulative-distribution categorical sampler.
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
    total: f64,
}

impl Categorical {
    /// Builds a sampler from non-negative weights. Returns `None` if the
    /// weights are empty, contain a negative/NaN entry, or all are zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return None;
            }
            acc += w;
            cumulative.push(acc);
        }
        if acc <= 0.0 {
            return None;
        }
        Some(Self {
            cumulative,
            total: acc,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler has zero categories (never true for a
    /// successfully constructed sampler).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Probability of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }

    /// Draws a category index.
    pub fn draw(&self, rng: &mut SujRng) -> usize {
        let x = rng.next_f64() * self.total;
        // partition_point returns the first index with cumulative > x.
        let idx = self.cumulative.partition_point(|&c| c <= x);
        idx.min(self.cumulative.len() - 1)
    }
}

/// Zipf-distributed index sampler: `P(i) ∝ 1/(i+1)^s` over `[0, n)`.
///
/// Exponent `s = 0` degenerates to the uniform distribution. Used by the
/// TPC-H generator's skew knob (the paper's §11 names "the impact of
/// data skew on approximations" as future work; the skew ablation
/// explores it).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    total: f64,
}

impl Zipf {
    /// Builds a Zipf sampler over `n` ranks with exponent `s ≥ 0`.
    /// Returns `None` for `n == 0` or non-finite/negative exponents.
    pub fn new(n: usize, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return None;
        }
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        Some(Self {
            cumulative,
            total: acc,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of rank `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        (self.cumulative[i] - prev) / self.total
    }

    /// Draws a rank (0 is the hottest).
    pub fn draw(&self, rng: &mut SujRng) -> usize {
        let x = rng.next_f64() * self.total;
        let idx = self.cumulative.partition_point(|&c| c <= x);
        idx.min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::AliasArenaBuilder;

    fn empirical(draws: usize, n: usize, mut f: impl FnMut(&mut SujRng) -> usize) -> Vec<f64> {
        let mut rng = SujRng::seed_from_u64(1234);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[f(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn categorical_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let cat = Categorical::new(&weights).unwrap();
        let freqs = empirical(100_000, 4, |rng| cat.draw(rng));
        for (i, &f) in freqs.iter().enumerate() {
            let expect = weights[i] / 10.0;
            assert!((f - expect).abs() < 0.01, "cat {i}: {f} vs {expect}");
            assert!((cat.probability(i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_weight_categories_never_drawn() {
        let weights = [0.0, 1.0, 0.0];
        let cat = Categorical::new(&weights).unwrap();
        let mut rng = SujRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert_eq!(cat.draw(&mut rng), 1);
        }
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(Categorical::new(&[]).is_none());
        assert!(Categorical::new(&[0.0, 0.0]).is_none());
        assert!(Categorical::new(&[1.0, -1.0]).is_none());
        assert!(Categorical::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn single_category_always_zero() {
        let cat = Categorical::new(&[3.0]).unwrap();
        let mut rng = SujRng::seed_from_u64(77);
        for _ in 0..100 {
            assert_eq!(cat.draw(&mut rng), 0);
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0).unwrap();
        for i in 0..10 {
            assert!((z.probability(i) - 0.1).abs() < 1e-12);
        }
        let freqs = empirical(100_000, 10, |rng| z.draw(rng));
        for &f in &freqs {
            assert!((f - 0.1).abs() < 0.01);
        }
    }

    #[test]
    fn zipf_probabilities_decay_with_rank() {
        let z = Zipf::new(20, 1.2).unwrap();
        for i in 1..20 {
            assert!(z.probability(i) < z.probability(i - 1));
        }
        // Analytic check of the head probability.
        let h: f64 = (1..=20).map(|i| 1.0 / (i as f64).powf(1.2)).sum();
        assert!((z.probability(0) - 1.0 / h).abs() < 1e-12);
        // Empirical head frequency.
        let freqs = empirical(100_000, 20, |rng| z.draw(rng));
        assert!((freqs[0] - 1.0 / h).abs() < 0.01);
    }

    #[test]
    fn zipf_rejects_bad_inputs() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(5, -1.0).is_none());
        assert!(Zipf::new(5, f64::NAN).is_none());
    }

    #[test]
    fn categorical_and_alias_agree_statistically() {
        let weights: Vec<f64> = (1..=16).map(|i| (i * i) as f64).collect();
        let cat = Categorical::new(&weights).unwrap();
        let mut alias = AliasArenaBuilder::new();
        alias.push_segment(&weights);
        let alias = alias.finish();
        let fc = empirical(200_000, 16, |rng| cat.draw(rng));
        let fa = empirical(200_000, 16, |rng| alias.draw(0, rng) as usize);
        for i in 0..16 {
            assert!((fc[i] - fa[i]).abs() < 0.01, "category {i}");
        }
    }
}
