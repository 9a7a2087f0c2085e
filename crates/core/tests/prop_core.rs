//! Property-based tests for the union framework over randomized
//! two-join workloads.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use std::sync::Arc;
use suj_core::prelude::*;
use suj_join::weights::build_sampler;
use suj_join::{JoinSpec, RowDraw, WeightKind};
use suj_stats::SujRng;
use suj_storage::{FxHashSet, Relation, Schema, Tuple, Value};

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

/// A random two-join workload over (a, b, c) with a shared second
/// relation (guaranteeing non-trivial overlap potential).
fn workload() -> impl Strategy<Value = UnionWorkload> {
    (
        prop::collection::vec((0i64..10, 0i64..5), 2..20),
        prop::collection::vec((0i64..10, 0i64..5), 2..20),
        prop::collection::vec((0i64..5, 0i64..8), 2..16),
    )
        .prop_map(|(r1, r2, s)| {
            let j1 = JoinSpec::chain(
                "j1",
                vec![rel("r1", ["a", "b"], &r1), rel("s1", ["b", "c"], &s)],
            )
            .unwrap();
            let j2 = JoinSpec::chain(
                "j2",
                vec![rel("r2", ["a", "b"], &r2), rel("s2", ["b", "c"], &s)],
            )
            .unwrap();
            UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap()
        })
}

/// A random three-join workload over (a, b, c) whose members each list
/// the attributes in another order: a chain in canonical order, the
/// same chain declared back to front (local order c, b, a), and a
/// triangle (local order c, a, b) — one structurally cyclic member.
fn reordered_workload() -> impl Strategy<Value = UnionWorkload> {
    (
        prop::collection::vec((0i64..6, 0i64..4), 2..16),
        prop::collection::vec((0i64..4, 0i64..5), 2..16),
        prop::collection::vec((0i64..5, 0i64..6), 2..16),
    )
        .prop_map(|(ab, bc, ca)| {
            let flip = |rows: &[(i64, i64)]| -> Vec<(i64, i64)> {
                rows.iter().map(|&(x, y)| (y, x)).collect()
            };
            let forward = JoinSpec::chain(
                "forward",
                vec![rel("r1", ["a", "b"], &ab), rel("s1", ["b", "c"], &bc)],
            )
            .unwrap();
            let backward = JoinSpec::chain(
                "backward",
                vec![
                    rel("s2", ["c", "b"], &flip(&bc)),
                    rel("r2", ["b", "a"], &flip(&ab)),
                ],
            )
            .unwrap();
            let triangle = JoinSpec::natural(
                "triangle",
                vec![
                    rel("x", ["c", "a"], &ca),
                    rel("y", ["a", "b"], &ab),
                    rel("z", ["b", "c"], &bc),
                ],
            )
            .unwrap();
            UnionWorkload::new(vec![
                Arc::new(forward),
                Arc::new(backward),
                Arc::new(triangle),
            ])
            .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The one gather, in canonical order, is what canonicalizing the
    /// join's own materialization gives — under every weight kind, for
    /// members that order their attributes differently, the cyclic one
    /// included.
    #[test]
    fn canonical_gather_equals_reordered_materialization(
        w in reordered_workload(),
        seed in 0u64..1000,
    ) {
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        for kind in [
            WeightKind::Exact,
            WeightKind::ExtendedOlken,
            WeightKind::WanderJoin,
            WeightKind::AgmBox,
        ] {
            for j in 0..w.n_joins() {
                let sampler = build_sampler(w.join(j).clone(), kind).unwrap();
                for _ in 0..8 {
                    // An empty member spends its budget and moves on.
                    let (accepted, tries) = sampler.sample_rows_within(500, &mut rng, &mut draw);
                    prop_assert!(if accepted { tries >= 1 } else { tries == 500 });
                    if !accepted {
                        break;
                    }
                    let gathered = w.gather(j, draw.rows());
                    prop_assert_eq!(&gathered, &w.to_canonical(j, &sampler.materialize(&draw)));
                    prop_assert!(w.contains(j, &gathered));
                }
            }
        }
    }

    /// Exact overlaps: union identities and cover partitioning hold on
    /// every random workload.
    #[test]
    fn exact_overlap_identities(w in workload()) {
        let exact = full_join_union(&w).unwrap();
        let truth = exact.union_size() as f64;
        prop_assert!((exact.overlap.union_size() - truth).abs() < 1e-6);
        for strategy in [CoverStrategy::AsGiven, CoverStrategy::DescendingSize] {
            let cover = Cover::build(&exact.overlap, strategy);
            prop_assert!((cover.union_size() - truth).abs() < 1e-6);
            // Cover sizes never exceed their join sizes.
            for j in 0..w.n_joins() {
                prop_assert!(cover.sizes()[j] <= exact.join_size(j) as f64 + 1e-9);
            }
        }
    }

    /// Every sampler output is a member; requested counts are exact.
    #[test]
    fn algorithm1_counts_and_membership(w in workload(), seed in 0u64..1000) {
        let exact = full_join_union(&w).unwrap();
        prop_assume!(!exact.union_set.is_empty());
        let w = Arc::new(w);
        for policy in [CoverPolicy::Record, CoverPolicy::MembershipOracle] {
            let config = UnionSamplerConfig {
                estimator: Estimator::Exact,
                policy,
                ..Default::default()
            };
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .strategy(suj_core::session::Strategy::Rejection(config))
                .build()
                .unwrap();
            let mut rng = SujRng::seed_from_u64(seed);
            let (samples, report) = sampler.sample(25, &mut rng).unwrap();
            prop_assert_eq!(samples.len(), 25);
            prop_assert!(report.accepted >= 25);
            for t in &samples {
                prop_assert!(exact.union_set.contains(t));
            }
        }
    }

    /// The histogram estimator's Max-mode pairwise bound dominates
    /// truth; Avg mode never exceeds Max mode.
    #[test]
    fn histogram_modes_ordered(w in workload()) {
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let max_est =
            HistogramEstimator::new(&w, DegreeMode::Max, sizes.clone()).unwrap();
        let avg_est = HistogramEstimator::new(&w, DegreeMode::Avg, sizes).unwrap();
        let max_b = max_est.estimate_overlap(&[0, 1]);
        let avg_b = avg_est.estimate_overlap(&[0, 1]);
        prop_assert!(max_b >= exact.overlap.overlap(&[0, 1]) - 1e-6);
        prop_assert!(avg_b <= max_b + 1e-6);
    }

    /// Disjoint-union sampling: membership + exact counts with either
    /// weight kind.
    #[test]
    fn disjoint_union_members(w in workload(), seed in 0u64..1000) {
        let exact = full_join_union(&w).unwrap();
        prop_assume!(exact.join_size(0) + exact.join_size(1) > 0);
        let w = Arc::new(w);
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(suj_core::session::Strategy::Disjoint)
            .build()
            .unwrap();
        let mut rng = SujRng::seed_from_u64(seed);
        let (samples, _) = sampler.sample(20, &mut rng).unwrap();
        prop_assert_eq!(samples.len(), 20);
        for t in &samples {
            prop_assert!(w.contains(0, t) || w.contains(1, t));
        }
    }

    /// Walk-based estimation never produces negative overlaps and its
    /// overlap never exceeds the anchor's size estimate.
    #[test]
    fn walk_estimates_are_consistent(w in workload(), seed in 0u64..1000) {
        let exact = full_join_union(&w).unwrap();
        prop_assume!(!exact.union_set.is_empty());
        let mut rng = SujRng::seed_from_u64(seed);
        let cfg = WalkEstimatorConfig {
            max_walks_per_join: 300,
            min_walks_per_join: 64,
            ..Default::default()
        };
        let walkers = suj_core::walk_estimator::walkers(&w).unwrap();
        let est = suj_core::walk_estimator::walk_warmup(&w, &walkers, &cfg, &mut rng).unwrap();
        let o = est.estimate_overlap(&[0, 1]);
        prop_assert!(o >= 0.0);
        let anchor = est.anchor_of(&[0, 1]);
        prop_assert!(o <= est.join_sizes[anchor] + 1e-9);
    }

    /// The membership-based mask agrees with per-join oracles.
    #[test]
    fn membership_masks_consistent(w in workload()) {
        let exact = full_join_union(&w).unwrap();
        for t in exact.union_set.iter().take(30) {
            let mask = w.membership_mask(t);
            prop_assert_eq!(mask & 1 != 0, w.contains(0, t));
            prop_assert_eq!(mask & 2 != 0, w.contains(1, t));
            prop_assert!(mask != 0);
        }
    }
}
