//! Chaos suite: deterministic fault injection across the serving tier.
//!
//! Built only with `--features faults`. A seeded [`FaultPlan`] injects
//! delays, connection drops, short writes, and byte flips into every
//! connection's byte stream, on both sides of the wire. The contract
//! under fire:
//!
//! - every request ends in a typed outcome — a successful batch or a
//!   [`NetError`] — never a hang, a panic, or a poisoned lock;
//! - the server stays serveable afterwards: a clean client connects,
//!   prepares, and samples;
//! - every *successful* response is bit-identical to the fault-free
//!   reference under the same seed — faults can kill a request, they
//!   can never corrupt one.
//!
//! The release-mode CI chaos step also runs the `#[ignore]`d stress
//! variant (`cargo test --release --features faults --test chaos --
//! --include-ignored`).

#![cfg(feature = "faults")]

use sample_union_joins::prelude::*;
use sample_union_joins::{
    Client, FaultConfig, FaultPlan, NetError, Server, ServerOptions, ServiceConfig,
};
use std::time::Duration;

fn relation(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .into_iter()
        .map(|vals| vals.into_iter().map(Value::int).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn default_engine() -> Engine {
    let mut catalog = Catalog::new();
    catalog
        .register(relation(
            "ra",
            &["a", "b"],
            (0..32).map(|i| vec![i, i % 5]).collect(),
        ))
        .unwrap();
    catalog
        .register(relation(
            "rb",
            &["a", "b"],
            (0..24).map(|i| vec![100 + i, i % 4]).collect(),
        ))
        .unwrap();
    catalog
        .register(relation(
            "s",
            &["b", "c"],
            (0..5).map(|v| vec![v, 100 + v]).collect(),
        ))
        .unwrap();
    Engine::new(catalog)
}

fn union_query() -> UnionQuery {
    UnionQuery::set_union()
        .chain("j1", ["ra", "s"])
        .unwrap()
        .chain("j2", ["rb", "s"])
        .unwrap()
}

fn chaos_options(plan: FaultPlan) -> ServerOptions {
    ServerOptions::default()
        .with_io_grace(Duration::from_millis(300))
        .with_drain_grace(Duration::from_millis(200))
        .with_fault_plan(plan)
}

fn chaos_client(addr: std::net::SocketAddr, plan_seed: u64, seq: u64) -> Option<Client> {
    let client = Client::connect(addr)
        .ok()?
        .with_busy_retries(64)
        .with_retry_seed(plan_seed ^ seq)
        .with_reconnect(4)
        .with_io_timeout(Duration::from_secs(2))
        .ok()?;
    // The plan seed varies with `seq`: a fresh connection must draw a
    // fresh fault schedule, otherwise one unlucky schedule (drop on
    // the first write) would kill every reconnect attempt identically.
    Some(client.with_fault_plan(FaultPlan::new(
        plan_seed ^ 0x5eed ^ seq.wrapping_mul(0x9E37_79B9),
        FaultConfig::standard(),
    )))
}

/// The flagship chaos run: a seeded fault storm on both sides of the
/// wire. Every request resolves to a typed outcome, successes are
/// bit-identical to the fault-free reference, and after the storm a
/// clean client finds the server fully serveable — no panicked
/// workers, no poisoned registry, no stuck connections.
#[test]
fn fault_storm_yields_typed_outcomes_and_bit_identical_successes() {
    let engine = default_engine();
    let query = union_query();
    let prepared = engine.prepare(&query).unwrap();
    let n = 24usize;
    let requests = 48u64;

    // Fault-free reference, same seeds the wire requests will use.
    let reference: Vec<Vec<Tuple>> = (0..requests)
        .map(|seed| prepared.sample(n, seed).unwrap().0)
        .collect();

    let root_seed = 0xC0FFEE;
    let server = Server::bind_with(
        engine.clone(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(2),
        chaos_options(FaultPlan::new(root_seed, FaultConfig::standard())),
    )
    .unwrap();
    let addr = server.addr();

    let mut conn_seq = 0u64;
    let mut client = chaos_client(addr, root_seed, conn_seq);
    let mut remote = None;
    let mut successes = 0usize;
    let mut failures = 0usize;
    for seed in 0..requests {
        if client.is_none() {
            conn_seq += 1;
            client = chaos_client(addr, root_seed, conn_seq);
            remote = None;
        }
        let Some(c) = client.as_mut() else {
            failures += 1;
            continue;
        };
        if remote.is_none() {
            match c.prepare(&query) {
                Ok(r) => remote = Some(r),
                Err(_) => {
                    // Typed outcome for the prepare; rebuild next turn.
                    client = None;
                    failures += 1;
                    continue;
                }
            }
        }
        let r = remote.as_ref().unwrap().clone();
        match c.sample(&r, n, seed) {
            Ok(batch) => {
                assert_eq!(
                    batch.tuples, reference[seed as usize],
                    "seed {seed}: a successful faulted response diverged from the \
                     fault-free reference — faults may kill requests, never corrupt them"
                );
                successes += 1;
            }
            Err(e) => {
                // Every failure is a typed NetError; formatting it
                // proves it is structured, not a panic payload.
                let _ = e.to_string();
                failures += 1;
                client = None;
            }
        }
    }
    println!("storm: {successes} ok, {failures} typed failures");
    assert!(
        successes > 0,
        "the standard plan must let some requests through"
    );

    // After the storm the server must still be serveable. The server
    // keeps injecting faults into every connection (the plan is
    // server-wide), so the checking client carries no fault plan of
    // its own but leans on the retry policy; with bounded retries it
    // must still get correct answers out.
    let mut verified = 0;
    for round in 0..8u64 {
        let Ok(connected) = Client::connect(addr) else {
            continue;
        };
        let Ok(mut clean) = connected
            .with_busy_retries(64)
            .with_retry_seed(round)
            .with_reconnect(16)
            .with_io_timeout(Duration::from_secs(2))
        else {
            continue;
        };
        let Ok(remote) = clean.prepare(&query) else {
            continue;
        };
        for seed in [0u64, 7, 31] {
            if let Ok(batch) = clean.sample(&remote, n, seed) {
                assert_eq!(batch.tuples, reference[seed as usize]);
                verified += 1;
            }
        }
        if verified >= 3 {
            let _ = clean.shutdown();
            break;
        }
    }
    assert!(
        verified >= 3,
        "server must remain serveable after the storm (verified {verified}/3)"
    );
    server.stop();
    server.join().unwrap();
}

/// Two identical storms under the same root seeds produce the same
/// sequence of per-request outcomes — the fault schedule is a pure
/// function of the seeds, so chaos failures are replayable.
#[test]
fn fault_storms_are_reproducible() {
    let run = |root_seed: u64| -> Vec<bool> {
        let engine = default_engine();
        let query = union_query();
        let server = Server::bind_with(
            engine,
            "127.0.0.1:0",
            ServiceConfig::with_workers(1),
            chaos_options(FaultPlan::new(root_seed, FaultConfig::standard())),
        )
        .unwrap();
        let addr = server.addr();
        let mut outcomes = Vec::new();
        // One connection per request keeps the fault schedule aligned
        // with the connection index regardless of earlier outcomes.
        for seed in 0..24u64 {
            // No client-side retries: retries would consume server
            // connections unevenly across runs.
            let outcome = (|| -> Result<(), NetError> {
                let mut c = Client::connect(addr)?
                    .with_busy_retries(64)
                    .with_io_timeout(Duration::from_secs(2))?;
                let remote = c.prepare(&query)?;
                c.sample(&remote, 8, seed)?;
                Ok(())
            })();
            outcomes.push(outcome.is_ok());
        }
        server.stop();
        server.join().unwrap();
        outcomes
    };
    let a = run(41);
    let b = run(41);
    assert_eq!(a, b, "same seeds must replay the same outcome sequence");
}

/// The wire panic pill (`n == u64::MAX`) panics inside the service,
/// on the connection thread that runs it while a slot is free; the
/// panic is contained into a typed error frame and the service, the
/// registry, and the connection all keep working.
#[test]
fn wire_panic_pill_is_contained_and_typed() {
    let engine = default_engine();
    let query = union_query();
    let server = Server::bind(engine, "127.0.0.1:0", ServiceConfig::with_workers(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client.prepare(&query).unwrap();

    match client.sample(&remote, usize::MAX, 3) {
        Err(NetError::Remote { message, .. }) => {
            assert!(
                message.contains("panic"),
                "pill must surface as a typed panic report, got: {message}"
            );
        }
        other => panic!("expected typed remote error for the panic pill, got {other:?}"),
    }

    // Same connection, same service: still serving, still typed.
    let batch = client.sample(&remote, 8, 3).unwrap();
    assert_eq!(batch.tuples.len(), 8);
    let stats = client.stats().unwrap();
    assert!(stats.failed >= 1, "the pill must count as a failure");
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Ignored stress variant for the release-mode CI chaos step: more
/// requests, more clients, bigger batches — same three invariants.
#[test]
#[ignore = "stress profile: run via CI's release-mode chaos step"]
fn stress_fault_storm_across_concurrent_clients() {
    let engine = default_engine();
    let query = union_query();
    let prepared = engine.prepare(&query).unwrap();
    let n = 32usize;
    let per_client = 64u64;
    let clients = 4u64;

    let root_seed = 0xDEAD_BEEF;
    let server = Server::bind_with(
        engine.clone(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(4).queue_capacity(16),
        chaos_options(FaultPlan::new(root_seed, FaultConfig::standard())),
    )
    .unwrap();
    let addr = server.addr();

    let totals: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|cid| {
                let query = query.clone();
                let prepared = &prepared;
                scope.spawn(move || {
                    let mut conn_seq = cid * 1000;
                    let mut client = chaos_client(addr, root_seed, conn_seq);
                    let mut remote = None;
                    let mut ok = 0usize;
                    let mut failed = 0usize;
                    for r in 0..per_client {
                        let seed = cid * 10_000 + r;
                        if client.is_none() {
                            conn_seq += 1;
                            client = chaos_client(addr, root_seed, conn_seq);
                            remote = None;
                        }
                        let Some(c) = client.as_mut() else {
                            failed += 1;
                            continue;
                        };
                        if remote.is_none() {
                            match c.prepare(&query) {
                                Ok(h) => remote = Some(h),
                                Err(_) => {
                                    client = None;
                                    failed += 1;
                                    continue;
                                }
                            }
                        }
                        let handle = remote.as_ref().unwrap().clone();
                        match c.sample(&handle, n, seed) {
                            Ok(batch) => {
                                let reference = prepared.sample(n, seed).unwrap().0;
                                assert_eq!(
                                    batch.tuples, reference,
                                    "client {cid} seed {seed} diverged under faults"
                                );
                                ok += 1;
                            }
                            Err(_) => {
                                failed += 1;
                                client = None;
                            }
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok: usize = totals.iter().map(|t| t.0).sum();
    let failed: usize = totals.iter().map(|t| t.1).sum();
    println!("stress storm: {ok} ok, {failed} typed failures");
    assert!(ok > 0);

    // Server remains serveable after the storm. The server-side plan
    // still injects on every connection, so the check retries across
    // a few fresh connections.
    let mut served = false;
    for round in 0..8u64 {
        let Ok(connected) = Client::connect(addr) else {
            continue;
        };
        let Ok(mut clean) = connected
            .with_busy_retries(64)
            .with_retry_seed(round)
            .with_reconnect(16)
            .with_io_timeout(Duration::from_secs(2))
        else {
            continue;
        };
        let Ok(remote) = clean.prepare(&query) else {
            continue;
        };
        if let Ok(batch) = clean.sample(&remote, n, 1) {
            assert_eq!(batch.tuples, prepared.sample(n, 1).unwrap().0);
            served = true;
            let _ = clean.shutdown();
            break;
        }
    }
    assert!(served, "server must remain serveable after the storm");
    server.stop();
    server.join().unwrap();
}
