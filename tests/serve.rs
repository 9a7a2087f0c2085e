//! Concurrent-serving integration tests: cross-thread determinism,
//! estimate-once semantics, and the `Send`/`Sync` surface of the
//! serving API.
//!
//! The release-mode CI stress step runs the `#[ignore]`d test at the
//! bottom across several worker counts (`cargo test --release --test
//! serve -- --ignored`).

use proptest::prelude::*;
use sample_union_joins::prelude::*;
use std::sync::Arc;

fn relation(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .into_iter()
        .map(|vals| vals.into_iter().map(Value::int).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

/// A catalog with two overlapping chain joins, parameterized by rows so
/// property tests can vary the data.
fn engine_for(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> Engine {
    let to_rows = |rows: &[(i64, i64)]| rows.iter().map(|&(x, y)| vec![x, y]).collect();
    let shared: Vec<Vec<i64>> = (0..4).map(|v| vec![v, 100 + v]).collect();
    let mut catalog = Catalog::new();
    catalog
        .register(relation("ra", &["a", "b"], to_rows(rows_a)))
        .unwrap();
    catalog
        .register(relation("rb", &["a", "b"], to_rows(rows_b)))
        .unwrap();
    catalog
        .register(relation("s", &["b", "c"], shared))
        .unwrap();
    Engine::new(catalog)
}

fn default_engine() -> Engine {
    engine_for(
        &[(1, 0), (2, 0), (3, 1), (4, 2)],
        &[(1, 0), (9, 1), (8, 3), (7, 2)],
    )
}

fn union_query() -> UnionQuery {
    UnionQuery::set_union()
        .chain("j1", ["ra", "s"])
        .unwrap()
        .chain("j2", ["rb", "s"])
        .unwrap()
}

/// Serves ids `0..requests` and returns the responses sorted by id.
fn serve(engine: &Engine, workers: usize, requests: u64, n: usize) -> Vec<SampleResponse> {
    let prepared = engine.prepare(&union_query()).unwrap();
    let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(workers));
    let batch = (0..requests)
        .map(|id| SampleRequest::prepared(id, n, &prepared))
        .collect();
    let mut responses = service.run_batch(batch).unwrap();
    responses.sort_by_key(|r| r.id);
    let stats = service.shutdown();
    assert_eq!(stats.completed, requests);
    assert_eq!(stats.failed, 0);
    responses
}

/// Compile-time: the serving surface is thread-shareable exactly as
/// the API promises — `Engine` / `PreparedQuery` cross and are shared
/// between threads, built samplers cross threads.
#[test]
fn serving_surface_is_send_sync() {
    fn assert_send<T: Send + ?Sized>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<Arc<PreparedQuery>>();
    assert_send_sync::<SamplingService>();
    assert_send::<Box<dyn UnionSampler>>();
    assert_send::<Box<dyn UnionSampler + Send>>();
}

/// `SamplerBuilder::build` hands back a sampler that moves to another
/// thread (the `Box<dyn UnionSampler + Send>` acceptance criterion,
/// exercised rather than just typed).
#[test]
fn built_sampler_moves_across_threads() {
    let engine = default_engine();
    let prepared = engine.prepare(&union_query()).unwrap();
    let mut handle = prepared.sampler(3).unwrap();
    let mut rng = prepared.rng(3);
    let (here, _) = handle.sample(10, &mut rng).unwrap();
    let there = std::thread::spawn(move || {
        let mut handle = prepared.sampler(3).unwrap();
        let mut rng = prepared.rng(3);
        handle.sample(10, &mut rng).unwrap().0
    })
    .join()
    .unwrap();
    assert_eq!(here, there);
}

/// Concurrent `prepare` calls for the same query share one plan and pay
/// estimation once.
#[test]
fn concurrent_prepares_share_one_estimation() {
    let engine = default_engine();
    let prepared: Vec<Arc<PreparedQuery>> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let engine = engine.clone();
                scope.spawn(move || engine.prepare(&union_query()).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for p in &prepared[1..] {
        assert!(
            Arc::ptr_eq(&prepared[0], p),
            "all threads must share one prepared plan"
        );
    }
    assert!(prepared[0].estimations() <= 1);
    assert_eq!(engine.cached_queries(), 1);
    // Sampling from every thread re-estimates nothing: per-request
    // reports carry zero warm-up time.
    let (_, report) = prepared[0].sample(8, 1).unwrap();
    assert_eq!(report.warmup_time, std::time::Duration::ZERO);
}

/// The prepared query owns the seed root: a pipeline frozen under its
/// own root (`estimation_seed`) is served from exactly the streams
/// `prepared.sample` draws from, at any worker count.
#[test]
fn served_samples_equal_library_samples_under_a_custom_root() {
    let workload = union_query()
        .resolve(default_engine().catalog())
        .unwrap()
        .workload;
    let prepared = Arc::new(
        SamplerBuilder::for_workload(workload)
            .estimation_seed(99)
            .freeze()
            .unwrap(),
    );
    for workers in [1, 4] {
        let service =
            SamplingService::start(Engine::default(), ServiceConfig::with_workers(workers));
        let batch = (0..12)
            .map(|id| SampleRequest::prepared(id, 9, &prepared).with_seed(1000 + id))
            .collect();
        for response in service.run_batch(batch).unwrap() {
            let (library, _) = prepared.sample(9, 1000 + response.id).unwrap();
            assert_eq!(
                response.tuples, library,
                "workers={workers}: request {} left the library's stream",
                response.id
            );
        }
        service.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE 3 satellite: N requests served on 1 worker and on 4
    /// workers yield identical per-request samples, for arbitrary
    /// two-join data and request counts.
    #[test]
    fn worker_count_never_changes_samples(
        rows_a in prop::collection::vec((0i64..8, 0i64..4), 2..12),
        rows_b in prop::collection::vec((0i64..8, 0i64..4), 2..12),
        requests in 1u64..10,
        n in 1usize..8,
    ) {
        let engine = engine_for(&rows_a, &rows_b);
        let one = serve(&engine, 1, requests, n);
        let four = serve(&engine, 4, requests, n);
        prop_assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(&a.tuples, &b.tuples);
            prop_assert_eq!(a.tuples.len(), n);
        }
    }
}

/// Release-mode stress: sustained traffic across several worker
/// counts, with determinism re-checked against the single-worker
/// reference and counters audited. Time-bounded by construction
/// (fixed request count per worker configuration).
#[test]
#[ignore = "stress profile: run via CI's release-mode serve step"]
fn stress_worker_pools_stay_deterministic_under_load() {
    let engine = default_engine();
    let prepared = engine.prepare(&union_query()).unwrap();
    let requests = 512u64;
    let n = 64usize;
    let reference = serve(&engine, 1, requests, n);
    for workers in [2usize, 4, 8] {
        let service = SamplingService::start(
            engine.clone(),
            ServiceConfig::with_workers(workers).queue_capacity(32),
        );
        let batch = (0..requests)
            .map(|id| SampleRequest::prepared(id, n, &prepared))
            .collect();
        let mut responses = service.run_batch(batch).unwrap();
        responses.sort_by_key(|r| r.id);
        let stats = service.shutdown();
        assert_eq!(stats.completed, requests, "workers={workers}");
        assert_eq!(stats.failed, 0, "workers={workers}");
        assert_eq!(stats.tuples_served, requests * n as u64);
        assert!(stats.aggregate.draw_latency.p99().is_some());
        for (a, b) in reference.iter().zip(&responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.tuples, b.tuples,
                "workers={workers}: request {} diverged",
                a.id
            );
        }
        println!("workers={workers}: {stats}");
    }
    // The shared plan was estimated once for the entire stress run.
    assert!(prepared.estimations() <= 1);
}
