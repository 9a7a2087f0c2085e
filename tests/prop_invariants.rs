//! Property-based tests (proptest) on the framework's core invariants:
//! overlap algebra (Theorem 3 / Eq. 1 / covers), membership oracles,
//! exact-weight sizes, and sampler well-formedness over randomly
//! generated set systems and join instances.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::overlap::OverlapMap;
use suj_join::exec::execute;
use suj_join::weights::{build_sampler, exact_join_size};
use suj_join::WeightKind;
use suj_storage::FxHashSet;

// ---------------------------------------------------------------------
// Overlap algebra over random set systems.
// ---------------------------------------------------------------------

/// A random system of n ≤ 4 sets over a universe of ≤ 32 elements,
/// encoded as membership bitmask per element.
fn set_system() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (2usize..=4).prop_flat_map(|n| {
        let element = 0u8..(1u8 << n);
        (Just(n), prop::collection::vec(element, 1..48))
    })
}

fn overlap_map_of(n: usize, elems: &[u8]) -> OverlapMap {
    OverlapMap::from_fn(n, |idx| {
        let mut delta = 0u8;
        for &j in idx {
            delta |= 1 << j;
        }
        elems.iter().filter(|&&m| m & delta == delta).count() as f64
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Eq. 1 (k-overlap union size) equals inclusion–exclusion equals
    /// the direct count for any set system.
    #[test]
    fn union_size_identities((n, elems) in set_system()) {
        let map = overlap_map_of(n, &elems);
        let truth = elems.iter().filter(|&&m| m != 0).count() as f64;
        prop_assert!((map.union_size() - truth).abs() < 1e-6);
        prop_assert!((map.union_size_inclusion_exclusion() - truth).abs() < 1e-6);
    }

    /// Σ_k |A_j^k| = |J_j| and each k-overlap matches a direct count.
    #[test]
    fn k_overlap_decomposition((n, elems) in set_system()) {
        let map = overlap_map_of(n, &elems);
        for j in 0..n {
            let a = map.k_overlaps(j);
            let size = elems.iter().filter(|&&m| m & (1 << j) != 0).count() as f64;
            let total: f64 = a.iter().sum();
            prop_assert!((total - size).abs() < 1e-6, "join {} total {} size {}", j, total, size);
            for (k0, &ak) in a.iter().enumerate() {
                let direct = elems
                    .iter()
                    .filter(|&&m| m & (1 << j) != 0 && m.count_ones() as usize == k0 + 1)
                    .count() as f64;
                prop_assert!((ak - direct).abs() < 1e-6);
            }
        }
    }

    /// Cover sizes partition the union under every permutation, and
    /// each |J'_i| matches the direct first-owner count.
    #[test]
    fn covers_partition_union((n, elems) in set_system(), perm_seed in 0u64..24) {
        let map = overlap_map_of(n, &elems);
        // Build a permutation from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = perm_seed;
        for i in (1..n).rev() {
            let j = (s % (i as u64 + 1)) as usize;
            order.swap(i, j);
            s /= i as u64 + 1;
        }
        let sizes = map.cover_sizes(&order);
        let truth = elems.iter().filter(|&&m| m != 0).count() as f64;
        let total: f64 = sizes.iter().sum();
        prop_assert!((total - truth).abs() < 1e-6);

        // Direct check: |J'_i| counts elements whose earliest owner in
        // cover order is i.
        for (pos, &i) in order.iter().enumerate() {
            let direct = elems
                .iter()
                .filter(|&&m| {
                    m & (1 << i) != 0
                        && order[..pos].iter().all(|&earlier| m & (1 << earlier) == 0)
                })
                .count() as f64;
            prop_assert!((sizes[i] - direct).abs() < 1e-6);
        }
    }
}

// ---------------------------------------------------------------------
// Join-level invariants over random two-relation chains.
// ---------------------------------------------------------------------

/// A random chain join r(a,b) ⋈ s(b,c) with controllable skew.
fn random_chain() -> impl Strategy<Value = JoinSpec> {
    let r_rows = prop::collection::vec((0i64..12, 0i64..6), 1..24);
    let s_rows = prop::collection::vec((0i64..6, 0i64..12), 1..24);
    (r_rows, s_rows).prop_map(|(r, s)| {
        let mk = |name: &str, attrs: [&str; 2], rows: Vec<(i64, i64)>| {
            let schema = Schema::new(attrs).unwrap();
            let mut seen = FxHashSet::default();
            let tuples: Vec<Tuple> = rows
                .into_iter()
                .filter(|&p| seen.insert(p))
                .map(|(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
                .collect();
            Arc::new(Relation::new(name, schema, tuples).unwrap())
        };
        JoinSpec::chain("prop", vec![mk("r", ["a", "b"], r), mk("s", ["b", "c"], s)]).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EW total weight equals the materialized join size.
    #[test]
    fn exact_weight_size_matches_execution(spec in random_chain()) {
        let exec_size = execute(&spec).len() as f64;
        prop_assert_eq!(exact_join_size(&spec).unwrap(), exec_size);
    }

    /// The Olken bound dominates the true size.
    #[test]
    fn olken_bound_dominates(spec in random_chain()) {
        let bound = suj_join::bounds::olken_bound(&spec).unwrap();
        prop_assert!(bound >= execute(&spec).len() as f64);
    }

    /// The membership oracle agrees with materialization on members and
    /// a grid of non-members.
    #[test]
    fn membership_oracle_is_exact(spec in random_chain()) {
        let oracle = MembershipOracle::for_spec(&spec);
        let result = execute(&spec);
        let set = result.distinct_set();
        for t in result.tuples().iter().take(50) {
            prop_assert!(oracle.contains(t));
        }
        for a in 0..4i64 {
            for b in 0..3i64 {
                for c in 0..4i64 {
                    let t = Tuple::new(vec![Value::int(a), Value::int(b), Value::int(c)]);
                    prop_assert_eq!(oracle.contains(&t), set.contains(&t));
                }
            }
        }
    }

    /// Samplers only ever emit true join results.
    #[test]
    fn samplers_emit_members_only(spec in random_chain(), seed in 0u64..1000) {
        let spec = Arc::new(spec);
        let set = execute(&spec).distinct_set();
        let mut rng = SujRng::seed_from_u64(seed);
        for kind in [WeightKind::Exact, WeightKind::ExtendedOlken] {
            let sampler = build_sampler(spec.clone(), kind).unwrap();
            for _ in 0..20 {
                if let suj_join::SampleOutcome::Accepted(t) = sampler.sample(&mut rng) {
                    prop_assert!(set.contains(&t));
                }
            }
        }
    }

    /// Wander-join walk probabilities are valid and bounded by B.
    #[test]
    fn walk_probabilities_are_consistent(spec in random_chain(), seed in 0u64..1000) {
        let spec = Arc::new(spec);
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(seed);
        for _ in 0..20 {
            if let WalkOutcome::Success { probability, .. } = wander.walk(&mut rng) {
                prop_assert!(probability > 0.0 && probability <= 1.0);
                prop_assert!(1.0 / probability <= wander.bound() + 1e-9);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Histogram estimator bounds over random union workloads.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 4's bound dominates the true overlap for random pairs of
    /// chain joins with a shared output schema.
    #[test]
    fn histogram_bound_dominates_random_overlap(
        r1 in prop::collection::vec((0i64..10, 0i64..5), 4..20),
        r2 in prop::collection::vec((0i64..10, 0i64..5), 4..20),
        s in prop::collection::vec((0i64..5, 0i64..8), 4..16),
    ) {
        let mk = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
            let schema = Schema::new(attrs).unwrap();
            let mut seen = FxHashSet::default();
            let tuples: Vec<Tuple> = rows
                .iter()
                .filter(|&&p| seen.insert(p))
                .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
                .collect();
            Arc::new(Relation::new(name, schema, tuples).unwrap())
        };
        // Both joins share the s relation, so overlap is non-trivial.
        let j1 = JoinSpec::chain("p1", vec![mk("r1", ["a", "b"], &r1), mk("s1", ["b", "c"], &s)]).unwrap();
        let j2 = JoinSpec::chain("p2", vec![mk("r2", ["a", "b"], &r2), mk("s2", ["b", "c"], &s)]).unwrap();
        let w = UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap();
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes).unwrap();
        let bound = est.estimate_overlap(&[0, 1]);
        let truth = exact.overlap.overlap(&[0, 1]);
        prop_assert!(bound >= truth - 1e-6, "bound {} < truth {}", bound, truth);
    }
}
