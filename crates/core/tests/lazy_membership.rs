//! Membership indexes are built by the first probe that needs them —
//! never by a plan that does not probe, once by concurrent first
//! probes, and before the first draw for the configurations that probe
//! while drawing or estimating.
//!
//! One `#[test]` on purpose: [`suj_join::membership_builds`] is a
//! process-global counter, and exact-delta assertions are only
//! race-free when no other test thread builds indexes concurrently
//! (cargo runs test binaries sequentially). The phases below run in
//! order on one thread.

use std::sync::{Arc, Barrier};
use suj_core::prelude::*;
use suj_join::{membership_builds, JoinError, JoinSpec, MembershipOracle};
use suj_storage::{Relation, Schema, Tuple, Value};
use suj_tpch::{uq1, UqOptions};

/// UQ1 at scale 2 (> 512 base rows, so the default planner probes
/// histograms rather than executing the joins).
fn uq1_workload() -> Arc<UnionWorkload> {
    Arc::new(uq1(&UqOptions::new(2, 7, 0.2)).unwrap())
}

/// One membership index per (join, base relation) pair.
fn index_count(workload: &UnionWorkload) -> u64 {
    workload
        .joins()
        .iter()
        .map(|j| j.n_relations() as u64)
        .sum()
}

/// UQ1 as a caller of the engine holds it: every base relation
/// registered once under its own name…
fn uq1_engine(planner: Planner) -> Engine {
    let mut catalog = Catalog::new();
    for spec in uq1_workload().joins() {
        for relation in spec.relations() {
            if !catalog.contains(relation.name()) {
                catalog.register_arc(relation.clone()).unwrap();
            }
        }
    }
    Engine::with_planner(catalog, planner)
}

/// …and its five joins over those names, added to `query` (which
/// carries the union semantics).
fn uq1_query(mut query: UnionQuery) -> UnionQuery {
    for spec in uq1_workload().joins() {
        let names = spec.relations().iter().map(|r| r.name().to_string());
        let def = JoinDef::with_edges(spec.name(), names, spec.edges().to_vec());
        query = query.join(def).unwrap();
    }
    query
}

/// 1000 draws on four threads, seeds disjoint per thread.
fn draw_on_four_threads(prepared: &PreparedQuery) {
    std::thread::scope(|scope| {
        for thread in 0..4u64 {
            scope.spawn(move || {
                for request in 0..5 {
                    let (tuples, _) = prepared.sample(50, thread * 100 + request).unwrap();
                    assert_eq!(tuples.len(), 50);
                }
            });
        }
    });
}

/// Prepare → sample → snapshot → restore → replica sample under the
/// plans the planner emits by default: nothing is ever indexed.
fn default_plans_never_build_an_index() {
    let engine = uq1_engine(Planner::default());
    let set_union = uq1_query(UnionQuery::set_union());
    let disjoint_union = uq1_query(UnionQuery::disjoint_union());
    let seeds = [1u64, 7, 42];
    let mut donors = Vec::new();
    for (query, rule) in [
        (&set_union, "low-overlap"),
        (&disjoint_union, "disjoint-semantics"),
    ] {
        let prepared = engine.prepare(query).unwrap();
        assert!(prepared.plan().stats.total_base_rows > 512);
        assert_eq!(prepared.plan().rule.name(), rule);
        let batches: Vec<_> = seeds
            .iter()
            .map(|&seed| prepared.sample(64, seed).unwrap().0)
            .collect();
        let oracles = prepared.workload().oracles();
        assert!(oracles.iter().all(|o| o.memory_bytes() == 0));
        donors.push((query, prepared.prepared_bytes(), batches));
    }
    let bytes = engine.snapshot_to_bytes().unwrap();
    let replica = Engine::load_snapshot_bytes(&bytes).unwrap();
    for (query, prepared_bytes, batches) in donors {
        let restored = replica.prepare(query).unwrap();
        assert_eq!(restored.estimations(), 0);
        assert_eq!(restored.prepared_bytes(), prepared_bytes);
        for (&seed, batch) in seeds.iter().zip(&batches) {
            assert_eq!(&restored.sample(64, seed).unwrap().0, batch, "seed {seed}");
        }
    }
    assert_eq!(
        membership_builds(),
        0,
        "a default plan must not index membership on prepare, draw, snapshot or restore"
    );
}

/// The four configurations that probe membership while drawing or
/// estimating are fully indexed when the freeze returns, pay for the
/// indexes in `prepared_bytes`, and build nothing while drawing.
fn probing_plans_are_indexed_by_the_freeze() {
    type Configure = fn(SamplerBuilder) -> SamplerBuilder;
    let configurations: [(&str, Configure); 4] = [
        ("bernoulli(oracle)", |b| {
            b.strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        }),
        ("rejection + membership-oracle cover", |b| {
            b.strategy(Strategy::Rejection)
                .cover_policy(CoverPolicy::MembershipOracle)
        }),
        ("online", |b| {
            b.strategy(Strategy::Online(OnlineConfig::default()))
        }),
        ("walk estimator", |b| {
            b.strategy(Strategy::Rejection)
                .estimator(Estimator::Walk(WalkEstimatorConfig::default()))
        }),
    ];
    for (name, configure) in configurations {
        let workload = uq1_workload();
        let unindexed = workload.memory_bytes();
        let before = membership_builds();
        let prepared = configure(SamplerBuilder::for_workload(workload.clone()))
            .freeze()
            .unwrap();
        assert_eq!(
            membership_builds() - before,
            index_count(&workload),
            "{name}: every index exists when the freeze returns"
        );
        assert!(workload.memory_bytes() > unindexed, "{name}");
        assert!(
            prepared.prepared_bytes() >= workload.memory_bytes() as u64,
            "{name}: prepared_bytes counts the indexes the freeze built"
        );
        let frozen = membership_builds();
        draw_on_four_threads(&prepared);
        assert_eq!(membership_builds(), frozen, "{name}: a draw built an index");
    }

    // The same holds across a restore: an engine whose planner serves
    // Algorithm 2 re-indexes at load, not at the replica's first draw.
    let engine = uq1_engine(Planner::without_statistics());
    let query = uq1_query(UnionQuery::set_union());
    let donor = engine.prepare(&query).unwrap();
    assert!(matches!(donor.plan().strategy, Strategy::Online(_)));
    let bytes = engine.snapshot_to_bytes().unwrap();
    let before = membership_builds();
    let replica = Engine::load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(membership_builds() - before, index_count(donor.workload()));
    let restored = replica.prepare(&query).unwrap();
    assert_eq!(restored.prepared_bytes(), donor.prepared_bytes());
    let loaded = membership_builds();
    draw_on_four_threads(&restored);
    assert_eq!(
        membership_builds(),
        loaded,
        "a replica's draw built an index"
    );
}

fn rel(name: &str, attrs: [&str; 2], rows: impl Iterator<Item = [i64; 2]>) -> Arc<Relation> {
    let tuples = rows
        .map(|r| r.iter().map(|&v| Value::int(v)).collect())
        .collect();
    Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
}

/// `r(a, b) ⋈ s(b, c) ⋈ t(c, d)`: result tuple `a` is
/// `(a, a % 16, a % 16 + 100, 2 · (a % 16 + 100))` for `a < 256`.
fn chain_spec() -> JoinSpec {
    JoinSpec::chain(
        "j",
        vec![
            rel("r", ["a", "b"], (0..256).map(|a| [a, a % 16])),
            rel("s", ["b", "c"], (0..16).map(|b| [b, b + 100])),
            rel("t", ["c", "d"], (100..116).map(|c| [c, 2 * c])),
        ],
    )
    .unwrap()
}

fn chain_tuple(a: i64, d_offset: i64) -> Tuple {
    let c = a % 16 + 100;
    [a, a % 16, c, 2 * c + d_offset]
        .into_iter()
        .map(Value::int)
        .collect()
}

/// Eight threads released together onto one fresh oracle: answers
/// agree with an oracle indexed up front, and each relation a probe
/// reached was indexed exactly once.
fn concurrent_first_probes_build_each_index_once() {
    let spec = chain_spec();
    let warmed = MembershipOracle::for_spec(&spec);
    let before = membership_builds();
    warmed.build_indexes();
    warmed.build_indexes();
    assert_eq!(membership_builds() - before, 3);

    let members: Vec<Tuple> = (0..256).map(|a| chain_tuple(a, 0)).collect();
    // `a ≥ 256` misses in `r`, the first relation checked…
    let miss_first: Vec<Tuple> = (256..512).map(|a| chain_tuple(a, 0)).collect();
    // …a wrong `d` passes `r` and `s` and misses in `t`.
    let miss_last: Vec<Tuple> = (0..256).map(|a| chain_tuple(a, 1)).collect();

    let fresh = MembershipOracle::for_spec(&spec);
    let probe_from_eight_threads = |tuples: &[Tuple], expected: bool| {
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    for t in tuples {
                        assert_eq!(warmed.contains(t), expected, "{t}");
                        assert_eq!(fresh.contains(t), expected, "{t}");
                    }
                });
            }
        });
    };

    let before = membership_builds();
    assert_eq!(fresh.memory_bytes(), 0);
    probe_from_eight_threads(&miss_first, false);
    assert_eq!(
        membership_builds() - before,
        1,
        "a miss in the first relation indexes that relation only"
    );
    probe_from_eight_threads(&members, true);
    probe_from_eight_threads(&miss_last, false);
    assert_eq!(membership_builds() - before, 3, "one build per relation");
    assert_eq!(fresh.memory_bytes(), warmed.memory_bytes());
}

/// Validation happens in the constructors, as before: the errors are
/// raised there, with the same content, and nothing is indexed first.
fn constructor_errors_are_raised_at_construction() {
    let before = membership_builds();
    let spec = chain_spec();
    let short = Schema::new(["a", "b", "c"]).unwrap();
    match MembershipOracle::new(&spec, &short) {
        Err(JoinError::Invalid(msg)) => assert_eq!(
            msg,
            format!("canonical schema {short} lacks attribute `d` of `t`")
        ),
        other => panic!("expected JoinError::Invalid, got {other:?}"),
    }
    let other = JoinSpec::natural("k", vec![rel("u", ["a", "z"], std::iter::empty())]).unwrap();
    match UnionWorkload::new(vec![Arc::new(spec), Arc::new(other)]) {
        Err(CoreError::SchemaMismatch { join }) => assert_eq!(join, "k"),
        other => panic!("expected CoreError::SchemaMismatch, got {other:?}"),
    }
    assert_eq!(membership_builds(), before);
}

#[test]
fn membership_indexes_are_built_by_their_first_probe_only() {
    // First, while the process-wide counter still reads zero.
    default_plans_never_build_an_index();
    probing_plans_are_indexed_by_the_freeze();
    concurrent_first_probes_build_each_index_once();
    constructor_errors_are_raised_at_construction();
}
