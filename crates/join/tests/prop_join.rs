//! Property-based tests for the join substrate: execution, trees,
//! samplers, decomposition, and templates over randomized instances.

use proptest::prelude::*;
use std::sync::Arc;
use suj_join::exec::execute;
use suj_join::graph::{classify, gyo_acyclic, JoinShape};
use suj_join::residual::decompose_cyclic;
use suj_join::weights::{build_sampler, exact_join_size};
use suj_join::{
    CyclicJoinSampler, ExactWeightSampler, JoinSampler, JoinSpec, JoinTree, MembershipOracle,
    RowDraw, WanderJoin, WeightKind,
};
use suj_stats::SujRng;
use suj_storage::{FxHashMap, FxHashSet, Relation, Schema, Tuple, Value};

fn rel(name: &str, attrs: [&str; 2], rows: &[(i64, i64)]) -> Arc<Relation> {
    let schema = Schema::new(attrs).unwrap();
    let mut seen = FxHashSet::default();
    let tuples: Vec<Tuple> = rows
        .iter()
        .filter(|&&p| seen.insert(p))
        .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
        .collect();
    Arc::new(Relation::new(name, schema, tuples).unwrap())
}

/// Strategy: a star join c(a,b) with leaves l1(a,x), l2(b,y).
fn star() -> impl Strategy<Value = JoinSpec> {
    (
        prop::collection::vec((0i64..6, 0i64..6), 1..16),
        prop::collection::vec((0i64..6, 0i64..20), 1..16),
        prop::collection::vec((0i64..6, 0i64..20), 1..16),
    )
        .prop_map(|(c, l1, l2)| {
            JoinSpec::natural(
                "star",
                vec![
                    rel("c", ["a", "b"], &c),
                    rel("l1", ["a", "x"], &l1),
                    rel("l2", ["b", "y"], &l2),
                ],
            )
            .unwrap()
        })
}

/// Strategy: a triangle join x(a,b), y(b,c), z(c,a).
fn triangle() -> impl Strategy<Value = JoinSpec> {
    (
        prop::collection::vec((0i64..4, 0i64..4), 1..12),
        prop::collection::vec((0i64..4, 0i64..4), 1..12),
        prop::collection::vec((0i64..4, 0i64..4), 1..12),
    )
        .prop_map(|(x, y, z)| {
            JoinSpec::natural(
                "tri",
                vec![
                    rel("x", ["a", "b"], &x),
                    rel("y", ["b", "c"], &y),
                    rel("z", ["c", "a"], &z),
                ],
            )
            .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn star_is_classified_and_sized_correctly(spec in star()) {
        prop_assert!(matches!(classify(&spec), JoinShape::Chain | JoinShape::Acyclic));
        prop_assert!(gyo_acyclic(&spec));
        prop_assert_eq!(
            exact_join_size(&spec).unwrap(),
            execute(&spec).len() as f64
        );
    }

    #[test]
    fn star_membership_oracle_exact(spec in star()) {
        let oracle = MembershipOracle::for_spec(&spec);
        let set = execute(&spec).distinct_set();
        for t in set.iter().take(30) {
            prop_assert!(oracle.contains(t));
        }
        // Grid of candidate non-members.
        for a in 0..3i64 {
            for b in 0..3i64 {
                let t = Tuple::new(vec![
                    Value::int(a),
                    Value::int(b),
                    Value::int(0),
                    Value::int(0),
                ]);
                prop_assert_eq!(oracle.contains(&t), set.contains(&t));
            }
        }
    }

    #[test]
    fn triangle_execution_matches_oracle(spec in triangle()) {
        let oracle = MembershipOracle::for_spec(&spec);
        let set = execute(&spec).distinct_set();
        for a in 0..4i64 {
            for b in 0..4i64 {
                for c in 0..4i64 {
                    let t = Tuple::new(vec![Value::int(a), Value::int(b), Value::int(c)]);
                    prop_assert_eq!(oracle.contains(&t), set.contains(&t));
                }
            }
        }
    }

    #[test]
    fn triangle_decomposition_is_lossless(spec in triangle()) {
        prop_assume!(classify(&spec) == JoinShape::Cyclic);
        let dec = decompose_cyclic(&spec).unwrap();
        let original = execute(&spec);
        let mapping = dec.spec.projection_from(spec.output_schema()).unwrap();
        let reordered = execute(&dec.spec).reordered(spec.output_schema(), &mapping);
        prop_assert_eq!(original.distinct_set(), reordered.distinct_set());
    }

    #[test]
    fn cyclic_samplers_emit_only_true_results(spec in triangle(), seed in 0u64..500) {
        let spec = Arc::new(spec);
        let set = execute(&spec).distinct_set();
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        for kind in [WeightKind::Exact, WeightKind::ExtendedOlken] {
            let sampler = build_sampler(spec.clone(), kind).unwrap();
            let mut emitted = 0;
            for _ in 0..64 {
                if sampler.sample_rows(&mut rng, &mut draw) {
                    let t = sampler.materialize(&draw);
                    prop_assert!(set.contains(&t), "non-member from {:?}", kind);
                    emitted += 1;
                }
            }
            if set.is_empty() {
                prop_assert_eq!(emitted, 0);
            }
        }
    }

    #[test]
    fn agm_box_bound_lies_between_the_join_and_the_root_bound(spec in triangle()) {
        // `rel` drops duplicate rows, so every max block is 1 and the
        // sampler's bound is the frontier's Σ_F itself: no less than
        // the join, no more (to rounding) than the root's AGM bound.
        let out = execute(&spec).len() as f64;
        let sampler = CyclicJoinSampler::new(Arc::new(spec)).unwrap();
        let bound = sampler.size_info().bound;
        prop_assert!(out <= bound * (1.0 + 1e-12), "OUT {} > bound {}", out, bound);
        prop_assert!(bound <= sampler.agm_root() * (1.0 + 1e-12));
    }

    #[test]
    fn wander_bound_dominates_walk_probabilities(spec in star(), seed in 0u64..500) {
        let wander = WanderJoin::new(Arc::new(spec)).unwrap();
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        for _ in 0..32 {
            if let Some(probability) = wander.walk_rows(&mut rng, &mut draw) {
                prop_assert!(1.0 / probability <= wander.bound() + 1e-9);
            }
        }
    }

    #[test]
    fn tree_distance_is_a_metric_on_stars(spec in star()) {
        let tree = JoinTree::new(&spec).unwrap();
        let n = spec.n_relations();
        for i in 0..n {
            prop_assert_eq!(tree.distance(i, i), 0);
            for j in 0..n {
                prop_assert_eq!(tree.distance(i, j), tree.distance(j, i));
                for k in 0..n {
                    prop_assert!(
                        tree.distance(i, k) <= tree.distance(i, j) + tree.distance(j, k)
                    );
                }
            }
        }
    }

    #[test]
    fn spanning_tree_covers_all_relations(spec in triangle()) {
        let tree = JoinTree::spanning(&spec, 0).unwrap();
        let mut seen: Vec<usize> = tree.order().to_vec();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..spec.n_relations()).collect::<Vec<_>>());
        // Exactly n−1 parent links.
        let parents = (0..spec.n_relations())
            .filter(|&v| tree.parent(v).is_some())
            .count();
        prop_assert_eq!(parents, spec.n_relations() - 1);
    }

    #[test]
    fn olken_bound_dominates_on_stars(spec in star()) {
        let bound = suj_join::bounds::olken_bound(&spec).unwrap();
        prop_assert!(bound >= execute(&spec).len() as f64);
    }

    #[test]
    fn ew_sampling_has_no_rejections_on_acyclic(spec in star(), seed in 0u64..500) {
        let size = execute(&spec).len();
        let sampler = build_sampler(Arc::new(spec), WeightKind::Exact).unwrap();
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        for _ in 0..32 {
            prop_assert_eq!(sampler.sample_rows(&mut rng, &mut draw), size > 0);
        }
    }

    /// The alias cascade and the linear-scan reference path draw from
    /// the *same* per-tuple distribution (uniform over the join
    /// result): their RNG streams differ, so the comparison is
    /// distributional — full-support equality plus per-tuple empirical
    /// frequencies within a 6σ binomial envelope of each other.
    #[test]
    fn cascade_and_linear_paths_share_per_tuple_marginals(
        spec in star(),
        seed in 0u64..1_000,
    ) {
        let result = execute(&spec);
        let size = result.len();
        // Small non-empty joins: every tuple's expected count is large
        // enough for a tight envelope, and full coverage is certain
        // (miss probability ≈ e^{-N/|J|} ≈ e^{-125}).
        prop_assume!(size > 0 && size <= 64);
        let set = result.distinct_set();
        let sampler = ExactWeightSampler::new(Arc::new(spec)).unwrap();

        const N: usize = 8_000;
        let mut draw = RowDraw::new();
        let mut cascade: FxHashMap<Tuple, i64> = FxHashMap::default();
        let mut rng = SujRng::seed_from_u64(seed);
        for _ in 0..N {
            prop_assert!(
                sampler.sample_rows(&mut rng, &mut draw),
                "cascade rejected a draw on an acyclic spec"
            );
            *cascade.entry(sampler.materialize(&draw)).or_insert(0) += 1;
        }
        let mut linear: FxHashMap<Tuple, i64> = FxHashMap::default();
        let mut rng = SujRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        for _ in 0..N {
            prop_assert!(
                sampler.sample_rows_linear(&mut rng, &mut draw),
                "linear scan rejected a draw on an acyclic spec"
            );
            *linear.entry(sampler.materialize(&draw)).or_insert(0) += 1;
        }

        // Both paths cover exactly the join result, nothing else.
        prop_assert_eq!(cascade.len(), size, "cascade support");
        prop_assert_eq!(linear.len(), size, "linear support");
        for t in cascade.keys().chain(linear.keys()) {
            prop_assert!(set.contains(t), "non-member emitted: {:?}", t);
        }

        // Per-tuple counts are Binomial(N, 1/|J|) on both sides; the
        // difference of two independent estimates stays within 6σ
        // (≈1e-9 per-tuple false-positive rate — negligible across the
        // whole sweep).
        let p = 1.0 / size as f64;
        let tol = 6.0 * (2.0 * N as f64 * p * (1.0 - p)).sqrt() + 8.0;
        for t in set.iter() {
            let a = cascade.get(t).copied().unwrap_or(0);
            let b = linear.get(t).copied().unwrap_or(0);
            prop_assert!(
                (a - b).abs() as f64 <= tol,
                "marginals diverge on {:?}: cascade {} vs linear {} (tol {:.1})",
                t, a, b, tol
            );
        }
    }
}
