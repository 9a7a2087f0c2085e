//! Cyclic-join integration tests: the planner routes cyclic
//! topologies to the AGM box-splitting sampler (planner rule
//! `cyclic-join`, weights `agm-box`), the accepted stream is exactly
//! uniform over the union by chi-square against materialized ground
//! truth, and the full determinism contract holds — same root seed and
//! request ids give bit-identical samples in-process, over TCP, from a
//! snapshot-restored replica, and at any worker count.

use proptest::prelude::*;
use sample_union_joins::prelude::*;
use sample_union_joins::{Client, Server};
use std::sync::Arc;
use suj_join::exec::execute;
use suj_join::{CyclicJoinSampler, JoinSampler, JoinSpec, RowDraw};
use suj_storage::{FxHashMap, FxHashSet};

fn relation(name: &str, attrs: &[&str], rows: &[[i64; 2]]) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .iter()
        .map(|r| r.iter().map(|&v| Value::int(v)).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

/// A catalog holding a triangle `x(a,b) ⋈ y(b,c) ⋈ z(c,a)` (six
/// triangles), a shrunken copy `z2` of `z` (so a second join member
/// overlaps the first), and a 4-cycle `p ⋈ q ⋈ r ⋈ s` (twelve cycles).
fn cyclic_engine() -> Engine {
    let mut catalog = Catalog::new();
    let regs = [
        relation("x", &["a", "b"], &[[1, 2], [1, 9], [5, 2], [5, 6]]),
        relation("y", &["b", "c"], &[[2, 3], [2, 4], [9, 4], [6, 3]]),
        relation("z", &["c", "a"], &[[3, 1], [4, 5], [4, 1], [3, 5]]),
        relation("z2", &["c", "a"], &[[3, 1], [4, 5]]),
        relation("p", &["a", "b"], &[[1, 2], [1, 3], [4, 2], [4, 3]]),
        relation("q", &["b", "c"], &[[2, 5], [3, 5], [2, 6], [3, 7]]),
        relation("r", &["c", "d"], &[[5, 8], [6, 8], [7, 9], [5, 9]]),
        relation("s", &["d", "a"], &[[8, 1], [9, 4], [8, 4], [9, 1]]),
    ];
    for rel in regs {
        catalog.register(rel).unwrap();
    }
    Engine::new(catalog)
}

/// Union of two triangle joins sharing `x` and `y`; the second is a
/// strict subset of the first, so the union exercises the rejection
/// machinery on top of the cyclic per-join samplers.
fn triangle_union() -> UnionQuery {
    UnionQuery::set_union()
        .join(JoinDef::natural("t1", ["x", "y", "z"]))
        .unwrap()
        .join(JoinDef::natural("t2", ["x", "y", "z2"]))
        .unwrap()
}

/// A single 4-cycle join (union of one).
fn four_cycle_union() -> UnionQuery {
    UnionQuery::set_union()
        .join(JoinDef::natural("c4", ["p", "q", "r", "s"]))
        .unwrap()
}

/// Draws `draws_per_tuple·|U|` samples through the fully-planned
/// `PreparedQuery` path and chi-square-tests them against the uniform
/// distribution over the materialized union.
fn assert_prepared_uniform(prepared: &PreparedQuery, seed: u64, draws_per_tuple: usize) {
    let exact = full_join_union(prepared.workload()).expect("ground truth");
    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    assert!(universe.len() >= 4, "universe too small to test");

    let n = draws_per_tuple * universe.len();
    let (samples, _) = prepared.sample(n, seed).expect("sampling");
    assert_eq!(samples.len(), n);

    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        assert!(exact.union_set.contains(t), "sampled non-member {t}");
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(
        outcome.p_value > 1e-3,
        "not uniform (chi2 = {:.1}, dof = {}, p = {:e})",
        outcome.statistic,
        outcome.dof,
        outcome.p_value
    );
}

/// The planner detects the cycle, explains the choice, and the sampled
/// stream is uniform.
#[test]
fn auto_routes_triangle_union_to_cyclic_join_and_stays_uniform() {
    let engine = cyclic_engine();
    let prepared = engine.prepare(&triangle_union()).unwrap();

    assert_eq!(prepared.plan().rule, PlanRule::CyclicJoin);
    let summary = prepared.plan().summary().to_string();
    assert!(summary.contains("rule=cyclic-join"), "summary: {summary}");
    assert!(summary.contains("weights=agm-box"), "summary: {summary}");
    let explain = prepared.explain();
    assert!(
        explain.contains("AGM") && explain.contains("Atserias"),
        "explain must cite the AGM bound: {explain}"
    );

    assert_prepared_uniform(&prepared, 11, 600);
}

#[test]
fn auto_routes_four_cycle_to_cyclic_join_and_stays_uniform() {
    let engine = cyclic_engine();
    let prepared = engine.prepare(&four_cycle_union()).unwrap();

    assert_eq!(prepared.plan().rule, PlanRule::CyclicJoin);
    let summary = prepared.plan().summary().to_string();
    assert!(summary.contains("weights=agm-box"), "summary: {summary}");

    assert_prepared_uniform(&prepared, 23, 600);
}

/// Determinism across transports: for each cyclic query, samples drawn
/// (a) in-process, (b) over TCP from the original engine, and (c) over
/// TCP from a snapshot-restored replica are identical tuple-for-tuple,
/// and the replica prepares without a single estimation pass (a
/// snapshot stores no part of the box sampler: the replica rebuilds the
/// sorted indexes and the frontier from the restored relations, and
/// both are functions of those alone).
#[test]
fn cyclic_wire_and_replica_match_in_process() {
    let engine = cyclic_engine();
    let queries = [triangle_union(), four_cycle_union()];
    let n = 24usize;
    let seeds = [0u64, 7, 41, 1000];

    // Warm the prepared-plan cache first: the snapshot ships the frozen
    // plans, which is what lets the replica skip estimation entirely.
    for query in &queries {
        engine.prepare(query).unwrap();
    }
    let bytes = engine.snapshot_to_bytes().unwrap();
    let restored = Engine::load_snapshot_bytes(&bytes).unwrap();

    let server_a = Server::bind(engine.clone(), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let server_b = Server::bind(restored, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client_a = Client::connect(server_a.addr()).unwrap();
    let mut client_b = Client::connect(server_b.addr()).unwrap();

    for query in &queries {
        let prepared = engine.prepare(query).unwrap();
        let local: Vec<Vec<Tuple>> = seeds
            .iter()
            .map(|&s| prepared.sample(n, s).unwrap().0)
            .collect();

        let remote_a = client_a.prepare(query).unwrap();
        let remote_b = client_b.prepare(query).unwrap();
        assert_eq!(
            remote_b.estimations, 0,
            "snapshot-restored replica must serve cyclic queries without re-estimating"
        );
        assert_eq!(remote_a.summary, remote_b.summary, "plans must coincide");
        assert!(
            remote_a.summary.contains("weights=agm-box"),
            "wire summary must carry the cyclic routing: {}",
            remote_a.summary
        );

        for (i, &seed) in seeds.iter().enumerate() {
            let a = client_a.sample(&remote_a, n, seed).unwrap();
            let b = client_b.sample(&remote_b, n, seed).unwrap();
            assert_eq!(a.tuples.len(), n);
            assert_eq!(
                a.tuples, local[i],
                "wire vs in-process diverged at seed {seed}"
            );
            assert_eq!(
                b.tuples, local[i],
                "replica vs in-process diverged at seed {seed}"
            );
            assert_eq!(a.attrs, b.attrs);
        }
    }

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    server_a.join().unwrap();
    server_b.join().unwrap();
}

/// Serves ids `0..requests` of `query` and returns responses by id.
fn serve(
    engine: &Engine,
    query: &UnionQuery,
    workers: usize,
    requests: u64,
) -> Vec<SampleResponse> {
    let prepared = engine.prepare(query).unwrap();
    let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(workers));
    let batch = (0..requests)
        .map(|id| SampleRequest::prepared(id, 16, &prepared))
        .collect();
    let mut responses = service.run_batch(batch).unwrap();
    responses.sort_by_key(|r| r.id);
    let stats = service.shutdown();
    assert_eq!(stats.completed, requests);
    assert_eq!(stats.failed, 0);
    responses
}

/// Same prepared query + request ids ⇒ bit-identical samples at any worker
/// count, for both cyclic shapes.
#[test]
fn cyclic_serving_is_worker_count_invariant() {
    let engine = cyclic_engine();
    for query in [triangle_union(), four_cycle_union()] {
        let one = serve(&engine, &query, 1, 12);
        let four = serve(&engine, &query, 4, 12);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tuples, b.tuples);
            assert_eq!(a.tuples.len(), 16);
        }
    }
}

fn arc_rel(name: &str, attrs: &[&str], rows: &[(i64, i64)]) -> Arc<suj_storage::Relation> {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .iter()
        .map(|&(u, v)| Tuple::new(vec![Value::int(u), Value::int(v)]))
        .collect();
    Arc::new(suj_storage::Relation::new(name, schema, tuples).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every accepted draw from the box sampler is a member of the
    /// materialized join, and the AGM hint upper-bounds `OUT` — on
    /// arbitrary (bag-semantics, collision-heavy) triangle data.
    #[test]
    fn cyclic_acceptance_implies_membership(
        xs in prop::collection::vec((0i64..4, 0i64..4), 1..8),
        ys in prop::collection::vec((0i64..4, 0i64..4), 1..8),
        zs in prop::collection::vec((0i64..4, 0i64..4), 1..8),
        seed in 0u64..1 << 20,
    ) {
        let spec = Arc::new(
            JoinSpec::natural(
                "tri",
                vec![
                    arc_rel("x", &["a", "b"], &xs),
                    arc_rel("y", &["b", "c"], &ys),
                    arc_rel("z", &["c", "a"], &zs),
                ],
            )
            .unwrap(),
        );
        let sampler = CyclicJoinSampler::new(spec.clone()).unwrap();
        let members: FxHashSet<Tuple> = execute(&spec).tuples().iter().cloned().collect();
        prop_assert!(
            sampler.size_info().bound + 1e-9 >= members.len() as f64,
            "AGM hint {} below OUT {}",
            sampler.size_info().bound,
            members.len()
        );
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        let mut accepted = 0usize;
        for _ in 0..400 {
            if sampler.sample_rows(&mut rng, &mut draw) {
                let t = sampler.materialize(&draw);
                prop_assert!(members.contains(&t), "accepted non-member {t}");
                accepted += 1;
            }
        }
        if members.is_empty() {
            prop_assert_eq!(accepted, 0, "accepted draws from an empty join");
        }
    }
}
