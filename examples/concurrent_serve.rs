//! Concurrent serving: share one prepared plan across several threads.
//!
//! Demonstrates the serving workflow end to end:
//!
//! 1. register relations and `prepare()` a union query once
//!    (estimation is paid here, and only here),
//! 2. start a [`SamplingService`], which runs each request on the
//!    thread that submits it, at most `workers` at once,
//! 3. serve a batch of seed-addressed requests (`run_batch` submits
//!    them from up to `workers` lanes, the calling thread one of them)
//!    and collect responses,
//! 4. read the service counters (throughput, p50/p99 draw latency),
//! 5. verify the determinism contract: re-serving the same request ids
//!    against the same prepared query reproduces every sample bit for
//!    bit, regardless of worker count.
//!
//! Run with: `cargo run --release --example concurrent_serve`

use sample_union_joins::prelude::*;

fn serve_once(engine: &Engine, workers: usize) -> Vec<SampleResponse> {
    let prepared = engine
        .prepare(
            &UnionQuery::set_union()
                .chain("shop_a", ["a_items", "a_sales"])
                .unwrap()
                .chain("shop_b", ["b_items", "b_sales"])
                .unwrap(),
        )
        .expect("prepare");
    println!(
        "prepared once: estimations={} (plan: {})",
        prepared.estimations(),
        prepared.plan().summary()
    );

    let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(workers));
    let requests = (0..32u64)
        .map(|id| SampleRequest::prepared(id, 25, &prepared))
        .collect();
    let mut responses = service.run_batch(requests).expect("serve batch");
    responses.sort_by_key(|r| r.id);

    let stats = service.shutdown();
    println!("workers={workers}: {stats}");
    responses
}

fn main() {
    let mut catalog = Catalog::new();
    for (name, header, rows) in [
        ("a_items", "sku,cat", vec![(1, 7), (2, 7), (3, 9), (4, 9)]),
        (
            "a_sales",
            "sale,sku",
            vec![(100, 1), (101, 1), (102, 2), (103, 3)],
        ),
        ("b_items", "sku,cat", vec![(1, 7), (5, 9), (6, 9)]),
        ("b_sales", "sale,sku", vec![(100, 1), (200, 5), (201, 6)]),
    ] {
        let csv = std::iter::once(header.to_string())
            .chain(rows.iter().map(|(x, y)| format!("{x},{y}")))
            .collect::<Vec<_>>()
            .join("\n");
        catalog.register_csv(name, csv.as_bytes()).expect(name);
    }
    let engine = Engine::new(catalog);

    // Serve the same ids on one slot and on several.
    let single = serve_once(&engine, 1);
    let pooled = serve_once(&engine, ServiceConfig::default().workers.max(2));

    // Determinism contract: same prepared query + same request ids ⇒
    // identical per-request samples, whatever the interleaving.
    assert_eq!(single.len(), pooled.len());
    for (a, b) in single.iter().zip(&pooled) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.tuples, b.tuples, "request {} diverged", a.id);
    }
    println!(
        "determinism: {} requests bit-identical across worker counts ✓",
        single.len()
    );
    println!("sample of request 0: {:?}", single[0].tuples.first());
}
