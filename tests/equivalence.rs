//! Determinism / equivalence suite for the one construction pipeline.
//!
//! * **Per-sampler pins.** For a fixed `SujRng` seed, every explicit
//!   `SamplerBuilder` configuration (consumed through the
//!   `UnionSampler` trait or a `SampleStream`) reproduces, tuple for
//!   tuple, what the legacy direct constructors produced at the last
//!   commit that had them — recorded here as golden first tuples plus a
//!   checksum of the whole batch, so a refactor of the construction
//!   path cannot drift a stream unnoticed. Samplers that never retract
//!   also get stream-vs-batch parity.
//! * **One case per plan rule**, and one more for the only plan that
//!   estimates by random walks. A fresh `Engine::prepare`, a
//!   catalog-free freeze (`PreparedQuery::auto` wherever the default
//!   planner reaches the rule, else the builder configured as the plan
//!   names) and a
//!   snapshot-restored replica must agree on the `summary()` string and
//!   on `sample(n, seed)` bit for bit, and match the golden recorded
//!   from the same commit.
//!
//! The suite closes with a chi-squared uniformity check run entirely
//! through `Box<dyn UnionSampler>`.

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::algorithm2::OnlineConfig;
use suj_core::walk_estimator::WalkEstimatorConfig;
use suj_storage::{CompareOp, FxHashMap, Predicate, Value};

fn workload() -> Arc<UnionWorkload> {
    Arc::new(uq3(&UqOptions::new(1, 61, 0.3)).expect("uq3"))
}

fn batch(sampler: &mut dyn UnionSampler, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = SujRng::seed_from_u64(seed);
    sampler.sample(n, &mut rng).expect("sampling").0
}

fn streamed(sampler: &mut dyn UnionSampler, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = SujRng::seed_from_u64(seed);
    SampleStream::over(sampler, &mut rng)
        .take(n)
        .collect::<Result<_, _>>()
        .expect("stream")
}

/// Order-sensitive digest of a batch (the workspace's own Fx hash of
/// each tuple's values, so it is stable across runs and toolchains).
fn checksum(tuples: &[Tuple]) -> u64 {
    tuples.iter().fold(0u64, |h, t| {
        h.rotate_left(5) ^ suj_storage::hash_values(t.values())
    })
}

/// Algorithm 1 with the given estimator and cover policy.
fn rejection(estimator: Estimator, policy: CoverPolicy) -> Strategy {
    Strategy::Rejection(UnionSamplerConfig {
        estimator,
        policy,
        ..Default::default()
    })
}

/// Asserts a batch equals the recorded one: first tuple verbatim (a
/// readable failure) and the checksum of all of it.
#[track_caller]
fn assert_golden(out: &[Tuple], first: &str, sum: u64) {
    assert_eq!(out[0].to_string(), first, "first tuple drifted");
    assert_eq!(checksum(out), sum, "batch drifted after its first tuple");
}

#[test]
fn algorithm1_oracle_builder_and_stream_match_legacy() {
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .strategy(rejection(Estimator::Exact, CoverPolicy::MembershipOracle))
            .build()
            .unwrap()
    };
    let out = batch(&mut build(), 300, 7);
    assert_golden(
        &out,
        "[9, 0, Customer#000000009, 2, 762594, Supplier#000000002, 10, 6629053, 362453]",
        0x65233a0c3f66973f,
    );
    // The oracle policy never retracts → streaming is byte-identical
    // too.
    assert_eq!(streamed(&mut build(), 300, 7), out);
}

#[test]
fn algorithm1_record_builder_matches_legacy() {
    // UQ2 is the high-overlap workload: the record machinery (cover
    // rejections and revisions) actually fires here.
    let w = Arc::new(uq2(&UqOptions::new(1, 62, 0.2)).expect("uq2"));
    let mut via_builder = SamplerBuilder::for_workload(w)
        .strategy(rejection(Estimator::Exact, CoverPolicy::Record))
        .build()
        .unwrap();
    let out = batch(&mut via_builder, 300, 8);
    assert!(
        via_builder.report().revised > 0 || via_builder.report().rejected_cover > 0,
        "workload must exercise the record machinery"
    );
    assert_golden(
        &out,
        "[4, MIDDLE EAST, 9, INDONESIA, 7, 305600, Supplier#000000007, 14, 45547, \
         blanched steel, ECONOMY POLISHED NICKEL, 33]",
        0x53b6b6d65a052132,
    );
}

#[test]
fn algorithm1_walk_estimator_builder_matches_legacy() {
    // The legacy path hand-wired `walk_warmup` under seed 123 into the
    // constructor; the builder's estimation seed must drive the same
    // warm-up.
    let mut via_builder = SamplerBuilder::for_workload(workload())
        .strategy(rejection(
            Estimator::Walk(WalkEstimatorConfig {
                max_walks_per_join: 300,
                ..Default::default()
            }),
            CoverPolicy::MembershipOracle,
        ))
        .estimation_seed(123)
        .build()
        .unwrap();
    assert_golden(
        &batch(&mut via_builder, 200, 9),
        "[21, 21, Customer#000000021, 4, 674471, Supplier#000000004, 44, 42638152, 556570]",
        0x96d4863ce2ed2ea3,
    );
}

#[test]
fn online_builder_matches_legacy() {
    let cfg = OnlineConfig {
        phi: 64,
        warmup: WalkEstimatorConfig {
            max_walks_per_join: 200,
            min_walks_per_join: 64,
            ..Default::default()
        },
        ..Default::default()
    };
    let parts = Arc::new(OnlineParts::new(workload()).unwrap());
    let mut direct = OnlineUnionSampler::new(parts, cfg, CoverStrategy::AsGiven);
    assert_golden(
        &batch(&mut direct, 250, 10),
        "[19, 10, Customer#000000019, 9, 892173, Supplier#000000009, 38, 31758618, -35783]",
        0x293a63c27d3ceb6c,
    );
}

#[test]
fn bernoulli_builder_and_stream_match_legacy() {
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .build()
            .unwrap()
    };
    let out = batch(&mut build(), 300, 11);
    assert_golden(
        &out,
        "[19, 10, Customer#000000019, 9, 892173, Supplier#000000009, 36, 37027113, -35783]",
        0xc30833d890ab922e,
    );
    assert_eq!(streamed(&mut build(), 300, 11), out);
}

#[test]
fn disjoint_builder_and_stream_match_legacy() {
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Disjoint)
            .build()
            .unwrap()
    };
    let out = batch(&mut build(), 300, 12);
    assert_golden(
        &out,
        "[9, 10, Customer#000000009, 9, 892173, Supplier#000000009, 5, 8608423, -55883]",
        0x9c5e591b4d7fb43,
    );
    assert_eq!(streamed(&mut build(), 300, 12), out);
}

/// Reject mode (§8.3) under every eager strategy: a disjunction, which
/// cannot be pushed down, filters what the draw step returns. Each case
/// pins the checksum of `sample(200, 13)` (whose first tuple they
/// share) and the predicate rejections it took; every returned tuple
/// passes.
#[test]
fn reject_mode_filters_every_strategy() {
    let w = Arc::new(uq2(&UqOptions::new(1, 62, 0.2)).expect("uq2"));
    let pred = Predicate::Or(vec![
        Predicate::cmp("psize", CompareOp::Gt, Value::int(25)),
        Predicate::cmp("nationkey", CompareOp::Ge, Value::int(20)),
    ]);
    let compiled = pred.compile(w.canonical_schema()).unwrap();
    let first = "[1, AMERICA, 6, FRANCE, 4, 865955, Supplier#000000004, 4, 2426, \
                 blanched steel, PROMO PLATED TIN, 31]";
    let designated = Strategy::Bernoulli;
    let cases = [
        (
            rejection(Estimator::Exact, CoverPolicy::Record),
            0xfb41f9027a3112a4,
            190,
        ),
        (
            rejection(Estimator::Exact, CoverPolicy::MembershipOracle),
            0xe7100ec7725de9c5,
            173,
        ),
        (Strategy::Disjoint, 0x87debf207f5c30ea, 214),
        (
            designated(DesignationPolicy::Record),
            0xf098c962389b0efa,
            162,
        ),
        (
            designated(DesignationPolicy::Oracle),
            0xa9860d3b7c092e00,
            154,
        ),
    ];
    for (strategy, sum, rejected) in cases {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(strategy)
            .predicate(pred.clone(), PredicateMode::Reject)
            .build()
            .unwrap();
        let out = batch(&mut sampler, 200, 13);
        assert!(out.iter().all(|t| compiled.eval(t)), "{strategy:?}");
        assert_eq!(
            sampler.report().rejected_predicate,
            rejected,
            "{strategy:?}"
        );
        assert_golden(&out, first, sum);
    }
}

#[test]
fn repeated_batches_continue_deterministically() {
    // Two half-size batches over one sampler equal one full batch over
    // a fresh sampler for never-retracting strategies: state persists
    // and the RNG stream is the only source of randomness.
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .strategy(rejection(Estimator::Exact, CoverPolicy::MembershipOracle))
            .build()
            .unwrap()
    };
    let mut whole = build();
    let whole_out = batch(&mut whole, 200, 14);

    let mut split = build();
    let mut rng = SujRng::seed_from_u64(14);
    let (mut first, _) = split.sample(100, &mut rng).unwrap();
    let (second, _) = split.sample(100, &mut rng).unwrap();
    first.extend(second);
    assert_eq!(first, whole_out);
}

// ---------------------------------------------------------------------
// One case per plan rule: fresh prepare ≡ builder ≡ restored replica.
// ---------------------------------------------------------------------

fn relation(name: &str, attrs: [&str; 2], rows: impl Iterator<Item = [i64; 2]>) -> Relation {
    let schema = Schema::new(attrs).unwrap();
    let tuples = rows
        .map(|r| r.iter().map(|&v| Value::int(v)).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

/// One chain `{name}_r(a, b) ⋈ {name}_s(b, c)` per `(name, range)`:
/// `|range|` result tuples `(a, b, 100 + b)` with `b = a mod 20`,
/// shifted past every small value when `a ≥ 1000` so such a chain
/// shares no value with one over small `a`.
fn chains(ranges: &[(&str, std::ops::Range<i64>)]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, range) in ranges {
        let base = if range.start >= 1000 { 1000 } else { 0 };
        let r = relation(
            &format!("{name}_r"),
            ["a", "b"],
            range.clone().map(|i| [i, base + i % 20]),
        );
        let s = relation(
            &format!("{name}_s"),
            ["b", "c"],
            (base..base + 20).map(|b| [b, 100 + b]),
        );
        catalog.register(r).unwrap();
        catalog.register(s).unwrap();
    }
    catalog
}

fn chain_union(query: UnionQuery, names: &[&str]) -> UnionQuery {
    names.iter().fold(query, |q, name| {
        q.chain(*name, [format!("{name}_r"), format!("{name}_s")])
            .unwrap()
    })
}

/// A triangle `x ⋈ y ⋈ z` and the sub-triangle over a shrunken `z2`.
fn triangles() -> Catalog {
    let mut catalog = Catalog::new();
    for rel in [
        relation(
            "x",
            ["a", "b"],
            [[1, 2], [1, 9], [5, 2], [5, 6]].into_iter(),
        ),
        relation(
            "y",
            ["b", "c"],
            [[2, 3], [2, 4], [9, 4], [6, 3]].into_iter(),
        ),
        relation(
            "z",
            ["c", "a"],
            [[3, 1], [4, 5], [4, 1], [3, 5]].into_iter(),
        ),
        relation("z2", ["c", "a"], [[3, 1], [4, 5]].into_iter()),
    ] {
        catalog.register(rel).unwrap();
    }
    catalog
}

/// [`triangles`] over the symmetric edges of one G(`vertices`, ¼)
/// random graph, `z2` keeping the edges among the first half of the
/// vertices: past the exact-estimation threshold at 64 vertices.
fn graph_triangles(vertices: i64) -> Catalog {
    let mut rng = SujRng::seed_from_u64(2023);
    let mut edges = Vec::new();
    for u in 0..vertices {
        for v in (u + 1)..vertices {
            if rng.bernoulli(0.25) {
                edges.extend([[u, v], [v, u]]);
            }
        }
    }
    let hub = edges
        .iter()
        .copied()
        .filter(|e| e.iter().all(|&v| v < vertices / 2));
    let mut catalog = Catalog::new();
    for rel in [
        relation("x", ["a", "b"], edges.iter().copied()),
        relation("y", ["b", "c"], edges.iter().copied()),
        relation("z", ["c", "a"], edges.iter().copied()),
        relation("z2", ["c", "a"], hub),
    ] {
        catalog.register(rel).unwrap();
    }
    catalog
}

struct RuleCase {
    rule: PlanRule,
    planner: Planner,
    catalog: Catalog,
    query: UnionQuery,
    /// Whether `PreparedQuery::auto` (default planner, set semantics)
    /// reaches the rule; otherwise the builder leg pins the
    /// configuration the plan names, and its summary carries no rule.
    auto: bool,
    /// The summary, first tuple and checksum of `sample(48, 3)`.
    golden: (&'static str, &'static str, u64),
}

fn rule_cases() -> Vec<RuleCase> {
    let two_small = || chains(&[("p", 0..12), ("q", 6..18)]);
    vec![
        RuleCase {
            rule: PlanRule::DisjointSemantics,
            planner: Planner::default(),
            catalog: two_small(),
            query: chain_union(UnionQuery::disjoint_union(), &["p", "q"]),
            auto: false,
            golden: (
                "strategy=disjoint weights=exact sizing=exact \
                 rule=disjoint-semantics",
                "[8, 8, 108]",
                0xebd5c6e72c4b77f9,
            ),
        },
        RuleCase {
            rule: PlanRule::CyclicJoin,
            planner: Planner::default(),
            catalog: triangles(),
            query: UnionQuery::set_union()
                .join(JoinDef::natural("t1", ["x", "y", "z"]))
                .unwrap()
                .join(JoinDef::natural("t2", ["x", "y", "z2"]))
                .unwrap(),
            auto: true,
            golden: (
                "strategy=rejection estimator=exact weights=agm-box cover=as-given \
                 sizing=exact rule=cyclic-join",
                "[1, 2, 4]",
                0x3bb3a421927c63b0,
            ),
        },
        // Without statistics and past the exact-estimation threshold,
        // Algorithm 1's parameters come from random walks: the one plan
        // that emits `Estimator::Walk`.
        RuleCase {
            rule: PlanRule::CyclicJoin,
            planner: Planner::without_statistics(),
            catalog: graph_triangles(64),
            query: UnionQuery::set_union()
                .join(JoinDef::natural("t1", ["x", "y", "z"]))
                .unwrap()
                .join(JoinDef::natural("t2", ["x", "y", "z2"]))
                .unwrap(),
            auto: false,
            golden: (
                "strategy=rejection estimator=walk weights=agm-box cover=as-given \
                 sizing=walk rule=cyclic-join",
                "[9, 48, 34]",
                0x82f52c808a0149b6,
            ),
        },
        RuleCase {
            rule: PlanRule::SingleJoin,
            planner: Planner::default(),
            catalog: chains(&[("p", 0..12)]),
            query: chain_union(UnionQuery::set_union(), &["p"]),
            auto: true,
            golden: (
                "strategy=disjoint weights=exact sizing=exact rule=single-join",
                "[2, 2, 102]",
                0xcf5a54dc8bb90333,
            ),
        },
        RuleCase {
            rule: PlanRule::NoStatistics,
            planner: Planner::without_statistics(),
            catalog: two_small(),
            query: chain_union(UnionQuery::set_union(), &["p", "q"]),
            auto: false,
            golden: (
                "strategy=bernoulli(oracle) weights=exact sizing=exact \
                 rule=no-statistics",
                "[1, 1, 101]",
                0x49dbff8133680ace,
            ),
        },
        // 640 base rows: past the exact-estimation threshold, so these
        // two also cover histogram estimation and the hand-over of the
        // planner's probed map and samplers to the freeze.
        RuleCase {
            rule: PlanRule::LowOverlap,
            planner: Planner::default(),
            catalog: chains(&[("p", 0..300), ("q", 1000..1300)]),
            query: chain_union(UnionQuery::set_union(), &["p", "q"]),
            auto: true,
            golden: (
                "strategy=bernoulli(record) weights=exact \
                 sizing=exact rule=low-overlap",
                "[1057, 1017, 1117]",
                0x49dd6e2f6252190d,
            ),
        },
        RuleCase {
            rule: PlanRule::HighOverlap,
            planner: Planner::default(),
            catalog: chains(&[("p", 0..300), ("q", 0..300)]),
            query: chain_union(UnionQuery::set_union(), &["p", "q"]),
            auto: true,
            golden: (
                "strategy=rejection estimator=histogram(EO) weights=exact cover=as-given \
                 sizing=histogram rule=high-overlap",
                "[57, 17, 117]",
                0xe7c99c4c3dfba0b1,
            ),
        },
    ]
}

#[test]
fn every_plan_rule_agrees_across_prepare_builder_and_restore() {
    for case in rule_cases() {
        let rule = case.rule.name();
        let engine = Engine::with_planner(case.catalog, case.planner);
        let fresh = engine.prepare(&case.query).unwrap();
        assert_eq!(fresh.plan().rule, case.rule);
        let (summary, first, sum) = case.golden;
        assert_eq!(fresh.summary().to_string(), summary, "{rule}");
        let (expected, _) = fresh.sample(48, 3).unwrap();
        assert_golden(&expected, first, sum);

        // Without the catalog: the default planner, or the builder
        // with the knobs the plan names.
        let workload = case.query.resolve(engine.catalog()).unwrap().workload;
        let mut builder_summary = *fresh.summary();
        let built = if case.auto {
            PreparedQuery::auto(workload).unwrap()
        } else {
            let plan = fresh.plan();
            let mut builder = SamplerBuilder::for_workload(workload).strategy(plan.strategy);
            if let Some(weights) = plan.weights {
                builder = builder.weights(weights);
            }
            // No rule fired; the sizing label is the freeze's, stamped
            // from the sizes it read, whoever configured it.
            builder_summary.rule = None;
            builder.freeze().unwrap()
        };
        assert_eq!(built.summary(), &builder_summary, "{rule}: builder summary");

        // A replica restored from the engine's snapshot.
        let bytes = engine.snapshot_to_bytes().unwrap();
        let replica = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = replica.prepare(&case.query).unwrap();
        assert_eq!(restored.estimations(), 0, "{rule}: restore re-estimated");
        assert_eq!(
            restored.summary(),
            fresh.summary(),
            "{rule}: replica summary"
        );
        assert_eq!(
            restored.explain(),
            fresh.explain(),
            "{rule}: replica EXPLAIN"
        );
        assert_eq!(
            replica.snapshot_to_bytes().unwrap(),
            bytes,
            "{rule}: re-taken snapshot"
        );

        for seed in [3u64, 99] {
            let (expected, _) = fresh.sample(48, seed).unwrap();
            assert_eq!(
                built.sample(48, seed).unwrap().0,
                expected,
                "{rule}: builder"
            );
            assert_eq!(
                restored.sample(48, seed).unwrap().0,
                expected,
                "{rule}: replica"
            );
        }
    }
}

#[test]
fn chi_squared_uniformity_through_trait_object() {
    let w = workload();
    let exact = full_join_union(&w).unwrap();
    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    let mut sampler: Box<dyn UnionSampler> = SamplerBuilder::for_workload(w)
        .strategy(rejection(Estimator::Exact, CoverPolicy::MembershipOracle))
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(15);
    let n = 500 * universe.len();
    let (samples, _) = sampler.sample(n, &mut rng).unwrap();
    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(
        outcome.p_value > 1e-3,
        "not uniform through the trait object: p = {:e}",
        outcome.p_value
    );
}
