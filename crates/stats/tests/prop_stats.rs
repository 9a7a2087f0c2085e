//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use suj_stats::binom::binomial;
use suj_stats::chi2::{chi_square_survival, ln_gamma, regularized_gamma_q};
use suj_stats::{AliasArenaBuilder, Categorical, HorvitzThompson, RunningMoments, SujRng};

proptest! {
    #[test]
    fn rng_bounds_hold(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = SujRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.index(n) < n);
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn rng_range_i64_bounds(seed in any::<u64>(), lo in -1000i64..1000, span in 1i64..1000) {
        let mut rng = SujRng::seed_from_u64(seed);
        let hi = lo + span;
        for _ in 0..32 {
            let v = rng.range_i64(lo, hi);
            prop_assert!(v >= lo && v < hi);
        }
    }

    #[test]
    fn rng_sample_indices_are_distinct(seed in any::<u64>(), n in 1usize..200, kfrac in 0.0f64..1.0) {
        let mut rng = SujRng::seed_from_u64(seed);
        let k = ((n as f64) * kfrac) as usize;
        let got = rng.sample_indices(n, k);
        prop_assert_eq!(got.len(), k);
        let set: std::collections::HashSet<_> = got.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(got.iter().all(|&i| i < n));
    }

    #[test]
    fn running_moments_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..64)) {
        let mut rm = RunningMoments::new();
        for &x in &xs {
            rm.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let scale = mean.abs().max(1.0);
        prop_assert!((rm.mean() - mean).abs() / scale < 1e-9);
        let vscale = var.abs().max(1.0);
        prop_assert!((rm.variance_sample() - var).abs() / vscale < 1e-6);
    }

    #[test]
    fn running_moments_merge_any_split(
        xs in prop::collection::vec(-1e3f64..1e3, 2..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((xs.len() as f64) * cut_frac) as usize;
        let mut whole = RunningMoments::new();
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < cut {
                left.push(x);
            } else {
                right.push(x);
            }
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance_sample() - whole.variance_sample()).abs() < 1e-6);
    }

    #[test]
    fn binomial_pascal_and_symmetry(n in 1u64..40, k in 0u64..40) {
        prop_assume!(k <= n);
        prop_assert_eq!(binomial(n, k), binomial(n, n - k));
        if k >= 1 {
            prop_assert_eq!(
                binomial(n, k),
                binomial(n - 1, k - 1) + binomial(n - 1, k)
            );
        }
    }

    #[test]
    fn chi2_survival_is_a_probability_and_decreasing(
        x in 0.0f64..200.0,
        dx in 0.01f64..50.0,
        dof in 1u64..30,
    ) {
        let a = chi_square_survival(x, dof);
        let b = chi_square_survival(x + dx, dof);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!(b <= a + 1e-12, "survival must decrease: {} then {}", a, b);
    }

    #[test]
    fn gamma_q_bounds(a in 0.1f64..50.0, x in 0.0f64..100.0) {
        let q = regularized_gamma_q(a, x);
        prop_assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn ln_gamma_recurrence(x in 0.5f64..50.0) {
        // Γ(x+1) = x·Γ(x)  ⇒  lnΓ(x+1) − lnΓ(x) = ln x.
        let lhs = ln_gamma(x + 1.0) - ln_gamma(x);
        prop_assert!((lhs - x.ln()).abs() < 1e-8, "x = {}, got {}", x, lhs);
    }

    #[test]
    fn categorical_probabilities_match_weights(
        weights in prop::collection::vec(0.0f64..100.0, 1..16),
    ) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 0.0);
        let cat = Categorical::new(&weights).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            prop_assert!((cat.probability(i) - w / total).abs() < 1e-9);
        }
    }

    #[test]
    fn alias_never_emits_zero_weight(
        seed in any::<u64>(),
        pattern in prop::collection::vec(prop::bool::ANY, 2..12),
    ) {
        prop_assume!(pattern.iter().any(|&b| b));
        let weights: Vec<f64> = pattern.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let mut alias = AliasArenaBuilder::new();
        alias.push_segment(&weights);
        let alias = alias.finish();
        let mut rng = SujRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = alias.draw(0, &mut rng) as usize;
            prop_assert!(pattern[i], "zero-weight category {} drawn", i);
        }
    }

    #[test]
    fn ht_estimator_exact_under_uniform_probability(
        pop in 1u64..100_000,
        m in 1u64..50,
    ) {
        let p = 1.0 / pop as f64;
        let mut ht = HorvitzThompson::new();
        for _ in 0..m {
            ht.push_success(p);
        }
        prop_assert!((ht.estimate() - pop as f64).abs() < 1e-6 * pop as f64);
        prop_assert!(ht.variance() < 1e-6 * pop as f64);
    }

    #[test]
    fn ht_failures_scale_estimate(pop in 10u64..10_000, fails in 0u64..20) {
        let p = 1.0 / pop as f64;
        let mut ht = HorvitzThompson::new();
        ht.push_success(p);
        for _ in 0..fails {
            ht.push_failure();
        }
        let expected = pop as f64 / (1.0 + fails as f64);
        prop_assert!((ht.estimate() - expected).abs() < 1e-9 * pop as f64);
    }
}
