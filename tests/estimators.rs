//! Cross-crate integration tests: estimator quality on the paper's
//! workloads — Theorem 3/Eq. 1 identities, histogram bounds (Theorem 4),
//! and random-walk convergence (§6).

use sample_union_joins::prelude::*;
use suj_core::walk_estimator::{walk_warmup, WalkEstimatorConfig};

/// With exact overlaps, the three union-size views (Eq. 1 over
/// k-overlaps, inclusion–exclusion, and cover sums) agree exactly on
/// every workload and every cover order.
#[test]
fn union_size_identities_on_all_workloads() {
    for (name, w) in [
        ("uq1", uq1(&UqOptions::new(1, 31, 0.25)).unwrap()),
        ("uq2", uq2(&UqOptions::new(1, 31, 0.25)).unwrap()),
        ("uq3", uq3(&UqOptions::new(1, 31, 0.25)).unwrap()),
    ] {
        let exact = full_join_union(&w).unwrap();
        let truth = exact.union_size() as f64;
        let eq1 = exact.overlap.union_size();
        let ie = exact.overlap.union_size_inclusion_exclusion();
        assert!((eq1 - truth).abs() < 1e-6, "{name}: Eq.1 {eq1} vs {truth}");
        assert!((ie - truth).abs() < 1e-6, "{name}: IE {ie} vs {truth}");

        let n = w.n_joins();
        let forward: Vec<usize> = (0..n).collect();
        let backward: Vec<usize> = (0..n).rev().collect();
        for order in [forward, backward] {
            let total: f64 = exact.overlap.cover_sizes(&order).iter().sum();
            assert!(
                (total - truth).abs() < 1e-6,
                "{name}: cover order {order:?} sums to {total}, want {truth}"
            );
        }
    }
}

/// k-overlaps partition each join: Σ_k |A_j^k| = |J_j| exactly.
#[test]
fn k_overlaps_partition_each_join() {
    for w in [
        uq1(&UqOptions::new(1, 32, 0.3)).unwrap(),
        uq3(&UqOptions::new(1, 32, 0.3)).unwrap(),
    ] {
        let exact = full_join_union(&w).unwrap();
        for j in 0..w.n_joins() {
            let total: f64 = exact.overlap.k_overlaps(j).iter().sum();
            let size = exact.join_size(j) as f64;
            assert!(
                (total - size).abs() < 1e-6,
                "join {j}: k-overlaps sum {total} vs |J| {size}"
            );
        }
    }
}

/// The histogram estimator in Max mode yields true upper bounds on
/// every pairwise and full overlap of every workload.
#[test]
fn histogram_bounds_dominate_truth() {
    for (name, w) in [
        ("uq1", uq1(&UqOptions::new(1, 33, 0.3)).unwrap()),
        ("uq2", uq2(&UqOptions::new(1, 33, 0.3)).unwrap()),
        ("uq3", uq3(&UqOptions::new(1, 33, 0.3)).unwrap()),
    ] {
        let exact = full_join_union(&w).unwrap();
        let sizes = w.exact_join_sizes().unwrap();
        let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes).unwrap();
        let n = w.n_joins();
        for a in 0..n {
            for b in (a + 1)..n {
                let bound = est.estimate_overlap(&[a, b]);
                let truth = exact.overlap.overlap(&[a, b]);
                assert!(
                    bound >= truth - 1e-6,
                    "{name}: O[{a},{b}] bound {bound} < truth {truth}"
                );
            }
        }
        let all: Vec<usize> = (0..n).collect();
        assert!(est.estimate_overlap(&all) >= exact.overlap.overlap(&all) - 1e-6);
    }
}

/// Random-walk estimation converges to the true sizes and overlaps on
/// UQ1 (the paper's "extremely accurate and stable" claim, §9.1.2).
#[test]
fn random_walk_estimates_converge_on_uq1() {
    let w = uq1(&UqOptions::new(1, 34, 0.3)).unwrap();
    let exact = full_join_union(&w).unwrap();
    let cfg = WalkEstimatorConfig {
        max_walks_per_join: 60_000,
        min_walks_per_join: 20_000,
        rel_threshold: 0.005,
        ..Default::default()
    };
    let mut rng = SujRng::seed_from_u64(77);
    let est = walk_warmup(&w, &cfg, &mut rng).unwrap();

    for j in 0..w.n_joins() {
        let truth = exact.join_size(j) as f64;
        let got = est.join_sizes[j];
        assert!(
            (got - truth).abs() / truth < 0.1,
            "join {j}: HT {got} vs {truth}"
        );
    }
    let est_u = est.overlap_map().unwrap().union_size();
    let truth_u = exact.union_size() as f64;
    assert!(
        (est_u - truth_u).abs() / truth_u < 0.15,
        "union: {est_u} vs {truth_u}"
    );
}

/// The paper's §9.1 observation: histogram ratio error shrinks as the
/// overlap scale grows ("the higher the overlap, the more accurate
/// histogram-based becomes").
#[test]
fn histogram_ratio_error_improves_with_overlap() {
    let err_at = |p: f64| -> f64 {
        let w = uq1(&UqOptions::new(1, 35, p)).unwrap();
        let exact = full_join_union(&w).unwrap();
        let est = HistogramEstimator::with_olken(&w, DegreeMode::Max).unwrap();
        let map = est.overlap_map().unwrap();
        let est_u = map.union_size();
        let truth_u = exact.union_size() as f64;
        (0..w.n_joins())
            .map(|j| {
                let e = map.join_size(j) / est_u;
                let t = exact.join_size(j) as f64 / truth_u;
                (e - t).abs() / t
            })
            .sum::<f64>()
            / w.n_joins() as f64
    };
    let low = err_at(0.1);
    let high = err_at(0.9);
    assert!(
        high <= low * 1.5,
        "error at P=0.9 ({high:.3}) should not exceed error at P=0.1 ({low:.3}) by much"
    );
}

/// Eq. 3 confidence intervals are finite and positive once walks exist.
#[test]
fn walk_overlap_ci_is_well_formed() {
    let w = uq2(&UqOptions::new(1, 36, 0.2)).unwrap();
    let mut rng = SujRng::seed_from_u64(5);
    let est = walk_warmup(&w, &WalkEstimatorConfig::default(), &mut rng).unwrap();
    let ci = est.overlap_ci(&[0, 1], 0.9);
    assert!(ci.estimate >= 0.0);
    assert!(ci.half_width.is_finite());
    assert!(ci.half_width >= 0.0);
    let wider = est.overlap_ci(&[0, 1], 0.99);
    assert!(wider.half_width >= ci.half_width);
}

/// Selection predicates: push-down (UQ2's construction) equals
/// filter-after-join semantics end to end.
#[test]
fn uq2_pushdown_semantics() {
    use suj_core::predicate_mode::push_down;
    use suj_storage::{CompareOp, Predicate, Value};

    let opts = UqOptions::new(1, 37, 0.2);
    // Rebuild the unfiltered base chain exactly as workload::uq2 does.
    let cfg = opts.config;
    let region = std::sync::Arc::new(suj_tpch::gen::region());
    let nation = std::sync::Arc::new(suj_tpch::gen::nation());
    let supplier = std::sync::Arc::new(suj_tpch::gen::supplier(&cfg, "supplier", 0, 1.0));
    let partsupp = std::sync::Arc::new(suj_tpch::gen::partsupp(&cfg, "partsupp", 0, 1.0));
    let part = std::sync::Arc::new(suj_tpch::gen::part(&cfg, "part", 0, 1.0));
    let base = JoinSpec::chain("base", vec![region, nation, supplier, partsupp, part]).unwrap();

    let pred = Predicate::cmp("psize", CompareOp::Le, Value::int(30));
    let pushed = push_down(&base, &pred, "filtered").unwrap();

    let full = suj_join::exec::execute(&base);
    let compiled = pred.compile(base.output_schema()).unwrap();
    let expected: suj_storage::FxHashSet<Tuple> = full
        .tuples()
        .iter()
        .filter(|t| compiled.eval(t))
        .cloned()
        .collect();
    assert_eq!(suj_join::exec::execute(&pushed).distinct_set(), expected);
    assert!(!expected.is_empty());
}

/// Cyclic joins: the histogram estimator decomposes into skeleton +
/// residual (§8.2) and its Max-mode bounds still dominate truth.
#[test]
fn histogram_bounds_hold_on_cyclic_workload() {
    let w = uq4_cyclic(&UqOptions::new(1, 38, 0.3)).unwrap();
    let exact = full_join_union(&w).unwrap();
    let sizes = w.exact_join_sizes().unwrap();
    let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes).unwrap();
    for a in 0..3 {
        for b in (a + 1)..3 {
            let bound = est.estimate_overlap(&[a, b]);
            let truth = exact.overlap.overlap(&[a, b]);
            assert!(bound >= truth - 1e-6, "O[{a},{b}]: {bound} < {truth}");
        }
    }
}

/// Cyclic joins: wander-join estimation (spanning walks + consistency
/// failures) converges to the true cyclic sizes.
#[test]
fn random_walk_estimates_cyclic_sizes() {
    let w = uq4_cyclic(&UqOptions::new(1, 39, 0.3)).unwrap();
    let exact = full_join_union(&w).unwrap();
    let cfg = WalkEstimatorConfig {
        max_walks_per_join: 150_000,
        min_walks_per_join: 50_000,
        rel_threshold: 0.01,
        ..Default::default()
    };
    let mut rng = SujRng::seed_from_u64(40);
    let est = suj_core::walk_estimator::walk_warmup(&w, &cfg, &mut rng).unwrap();
    for j in 0..3 {
        let truth = exact.join_size(j) as f64;
        let got = est.join_sizes[j];
        assert!(
            (got - truth).abs() / truth < 0.2,
            "cyclic join {j}: HT {got} vs truth {truth}"
        );
    }
}

/// Everything the §5 probe computes for `w`, as bits: `olken_bound` per
/// join, then every subset entry (mask 1..2ⁿ) of the Max-mode overlap
/// map over Olken hints, then of the Avg-mode map. Also checks that the
/// all-subsets pass and the single-subset entry point are one function:
/// `overlap_map()` ≡ `from_fn(estimate_overlap)` entry for entry.
fn probe_bits(w: &UnionWorkload) -> Vec<u64> {
    let n = w.n_joins();
    let mut bits: Vec<u64> = w
        .joins()
        .iter()
        .map(|j| suj_join::bounds::olken_bound(j).unwrap().to_bits())
        .collect();
    for mode in [DegreeMode::Max, DegreeMode::Avg] {
        let est = HistogramEstimator::with_olken(w, mode).unwrap();
        let map = est.overlap_map().unwrap();
        let one_by_one = OverlapMap::from_fn(n, |s| est.estimate_overlap(s)).unwrap();
        for mask in 1..(1u32 << n) {
            let entry = map.overlap_mask(mask).to_bits();
            assert_eq!(
                entry,
                one_by_one.overlap_mask(mask).to_bits(),
                "{mode:?} mask {mask:#b}: overlap_map and estimate_overlap disagree"
            );
            bits.push(entry);
        }
    }
    bits
}

fn probe_rel(name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> std::sync::Arc<Relation> {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows.into_iter().map(Tuple::new).collect();
    std::sync::Arc::new(Relation::new(name, schema, tuples).unwrap())
}

/// Two chains `r(a, s) ⋈ t(s, c)` whose link attribute `s` is a string
/// (with a NULL), so Theorem 4's K(1) compares values held in four
/// different dictionary pools.
fn string_link_union() -> UnionWorkload {
    let chain = |name: &str, shift: i64| {
        let s = |i: i64| Value::str(format!("k{}", i % 11 + shift));
        let mut r: Vec<Vec<Value>> = (0..40).map(|i| vec![Value::int(i), s(i * i)]).collect();
        r.push(vec![Value::int(99), Value::Null]);
        let mut t: Vec<Vec<Value>> = (0..30).map(|i| vec![s(i), Value::int(i % 7)]).collect();
        t.push(vec![Value::Null, Value::int(3)]);
        JoinSpec::chain(
            name,
            vec![
                probe_rel(&format!("{name}_r"), &["a", "s"], r),
                probe_rel(&format!("{name}_t"), &["s", "c"], t),
            ],
        )
        .unwrap()
    };
    UnionWorkload::new(vec![
        std::sync::Arc::new(chain("s0", 0)),
        std::sync::Arc::new(chain("s1", 4)),
        std::sync::Arc::new(chain("s2", 7)),
    ])
    .unwrap()
}

/// Two triangles over overlapping edge sets: the §8.2 skeleton +
/// residual path of the probe.
fn two_triangle_union() -> UnionWorkload {
    let tri = |name: &str, from: i64| {
        let edge = |m: i64, k: i64| -> Vec<Vec<Value>> {
            (from..from + 24)
                .map(|i| vec![Value::int(i % m), Value::int(i % k)])
                .collect()
        };
        JoinSpec::natural(
            name,
            vec![
                probe_rel(&format!("{name}_x"), &["a", "b"], edge(6, 4)),
                probe_rel(&format!("{name}_y"), &["b", "c"], edge(4, 5)),
                probe_rel(&format!("{name}_z"), &["c", "a"], edge(5, 6)),
            ],
        )
        .unwrap()
    };
    UnionWorkload::new(vec![
        std::sync::Arc::new(tri("t0", 0)),
        std::sync::Arc::new(tri("t1", 7)),
    ])
    .unwrap()
}

/// A three-relation chain beside a member whose relations are empty.
fn empty_member_union() -> UnionWorkload {
    let chain = |name: &str, rows: i64, shift: i64| {
        let ints = |f: &dyn Fn(i64) -> [i64; 2]| -> Vec<Vec<Value>> {
            (0..rows)
                .map(|i| f(i).iter().map(|&v| Value::int(v)).collect())
                .collect()
        };
        JoinSpec::chain(
            name,
            vec![
                probe_rel(
                    &format!("{name}_r"),
                    &["a", "b"],
                    ints(&|i| [i, i % 9 + shift]),
                ),
                probe_rel(
                    &format!("{name}_s"),
                    &["b", "c"],
                    ints(&|i| [i % 13 + shift, i % 4 + shift]),
                ),
                probe_rel(
                    &format!("{name}_t"),
                    &["c", "d"],
                    ints(&|i| [i % 5 + shift, i]),
                ),
            ],
        )
        .unwrap()
    };
    UnionWorkload::new(vec![
        std::sync::Arc::new(chain("full", 50, 0)),
        std::sync::Arc::new(chain("empty", 0, 0)),
        std::sync::Arc::new(chain("half", 25, 2)),
    ])
    .unwrap()
}

/// The probe's output, pinned: every number `Planner::plan` reads from
/// the §5 statistics — Olken bounds and both overlap maps — recorded as
/// `f64::to_bits` at the commit before column statistics were typed and
/// K(1) became one pass per domain. A plan, a `sizing=` label and a
/// Bernoulli RNG stream all hang off these bits.
#[test]
fn probe_output_is_pinned_bit_for_bit() {
    let opts = UqOptions::new(4, 41, 0.3);
    let cases: [(&str, UnionWorkload, &[u64]); 6] = [
        ("uq1", uq1(&opts).unwrap(), PROBE_UQ1),
        ("uq2", uq2(&opts).unwrap(), PROBE_UQ2),
        ("uq3", uq3(&opts).unwrap(), PROBE_UQ3),
        ("string-link", string_link_union(), PROBE_STRING_LINK),
        ("two-triangle", two_triangle_union(), PROBE_TWO_TRIANGLE),
        ("empty-member", empty_member_union(), PROBE_EMPTY_MEMBER),
    ];
    for (name, w, want) in cases {
        let got = probe_bits(&w);
        assert_eq!(got, want, "{name}: probe output moved");
    }
}

const PROBE_UQ1: &[u64] = &[
    0x40c82b8000000000,
    0x40c3c68000000000,
    0x40d01d0000000000,
    0x40ca5e0000000000,
    0x40cfa40000000000,
    0x40c82b8000000000,
    0x40c3c68000000000,
    0x40c1148000000000,
    0x40d01d0000000000,
    0x40c0aa0000000000,
    0x40c0a88000000000,
    0x40bc1d0000000000,
    0x40ca5e0000000000,
    0x40c08d8000000000,
    0x40be900000000000,
    0x40ba8e0000000000,
    0x40c6600000000000,
    0x40baf40000000000,
    0x40b9860000000000,
    0x40b7850000000000,
    0x40cfa40000000000,
    0x40c02f0000000000,
    0x40c10e8000000000,
    0x40bc020000000000,
    0x40c6840000000000,
    0x40bb990000000000,
    0x40bc0b0000000000,
    0x40b9230000000000,
    0x40c5a20000000000,
    0x40ba490000000000,
    0x40ba5e0000000000,
    0x40b7550000000000,
    0x40c1fc0000000000,
    0x40b77c0000000000,
    0x40b7430000000000,
    0x40b5c60000000000,
    0x40c82b8000000000,
    0x40c3c68000000000,
    0x40c1148000000000,
    0x40d01d0000000000,
    0x40c0aa0000000000,
    0x40c0a88000000000,
    0x40bc1d0000000000,
    0x40ca5e0000000000,
    0x40c08d8000000000,
    0x40be900000000000,
    0x40ba8e0000000000,
    0x40c6600000000000,
    0x40baf40000000000,
    0x40b9860000000000,
    0x40b7850000000000,
    0x40cfa40000000000,
    0x40c02f0000000000,
    0x40c10e8000000000,
    0x40bc020000000000,
    0x40c6840000000000,
    0x40bb990000000000,
    0x40bc0b0000000000,
    0x40b9230000000000,
    0x40c5a20000000000,
    0x40ba490000000000,
    0x40ba5e0000000000,
    0x40b7550000000000,
    0x40c1fc0000000000,
    0x40b77c0000000000,
    0x40b7430000000000,
    0x40b5c60000000000,
];
const PROBE_UQ2: &[u64] = &[
    0x4080e00000000000,
    0x408c200000000000,
    0x408c200000000000,
    0x4080e00000000000,
    0x408c200000000000,
    0x407ee00000000000,
    0x408c200000000000,
    0x4080e00000000000,
    0x407ee00000000000,
    0x407ee00000000000,
    0x4080e00000000000,
    0x408c200000000000,
    0x407ee00000000000,
    0x408c200000000000,
    0x4080e00000000000,
    0x407ee00000000000,
    0x407ee00000000000,
];
const PROBE_UQ3: &[u64] = &[
    0x409c200000000000,
    0x409c200000000000,
    0x409b800000000000,
    0x409c200000000000,
    0x409c200000000000,
    0x4080e00000000000,
    0x409b800000000000,
    0x4080e00000000000,
    0x4080e00000000000,
    0x4080e00000000000,
    0x409c200000000000,
    0x409c200000000000,
    0x40756db6db6db6db,
    0x409b800000000000,
    0x40756db6db6db6db,
    0x4076800000000000,
    0x40756db6db6db6db,
];
const PROBE_STRING_LINK: &[u64] = &[
    0x405ec00000000000,
    0x405ec00000000000,
    0x405ec00000000000,
    0x405ec00000000000,
    0x405ec00000000000,
    0x4048000000000000,
    0x405ec00000000000,
    0x3ff0000000000000,
    0x4041000000000000,
    0x3ff0000000000000,
    0x405ec00000000000,
    0x405ec00000000000,
    0x4048000000000000,
    0x405ec00000000000,
    0x3ff0000000000000,
    0x4041000000000000,
    0x3ff0000000000000,
];
const PROBE_TWO_TRIANGLE: &[u64] = &[
    0x4082000000000000,
    0x4082000000000000,
    0x4082000000000000,
    0x4082000000000000,
    0x405ac00000000000,
    0x4082000000000000,
    0x4082000000000000,
    0x405ac00000000000,
];
const PROBE_EMPTY_MEMBER: &[u64] = &[
    0x409f400000000000,
    0x0000000000000000,
    0x406f400000000000,
    0x409f400000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x406f400000000000,
    0x4068600000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x409f400000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x406f400000000000,
    0x406691c71c71c71c,
    0x0000000000000000,
    0x0000000000000000,
];
