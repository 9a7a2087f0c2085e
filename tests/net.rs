//! Wire-protocol integration tests: the TCP serving tier preserves
//! the in-process determinism contract end-to-end, snapshot-restored
//! replicas answer bit-identically without re-estimation, and
//! protocol-level failures surface as typed responses rather than
//! hangups.
//!
//! The release-mode CI smoke step runs the `#[ignore]`d stress test at
//! the bottom (`cargo test --release --test net -- --ignored`).

use sample_union_joins::prelude::*;
use sample_union_joins::{Client, NetError, Server, ServerOptions, ServiceConfig};
use std::time::Duration;
use suj_net::protocol::{
    self, decode_payload, ErrorReply, Frame, SamplePayload, ERR_BAD_REQUEST, ERR_UNKNOWN_PREPARED,
};
use suj_storage::snapshot::Codec;

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
            vec![vec![1, 0], vec![2, 0], vec![3, 1], vec![4, 2]],
        ))
        .unwrap();
    catalog
        .register(relation(
            "rb",
            &["a", "b"],
            vec![vec![1, 0], vec![9, 1], vec![8, 3], vec![7, 2]],
        ))
        .unwrap();
    catalog
        .register(relation(
            "s",
            &["b", "c"],
            (0..4).map(|v| vec![v, 100 + v]).collect(),
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

/// The flagship determinism check: for the same prepared query, root
/// seed, and request seed, samples drawn (a) in-process, (b) over TCP
/// from the original engine, and (c) over TCP from a snapshot-restored
/// replica are identical tuple-for-tuple — and the replica restores
/// without a single estimation pass.
#[test]
fn wire_samples_match_in_process_and_restored_replica() {
    let engine = default_engine();
    let query = union_query();
    let prepared = engine.prepare(&query).unwrap();
    let n = 32usize;
    let seeds = [0u64, 7, 41, 1000];
    let local: Vec<Vec<Tuple>> = seeds
        .iter()
        .map(|&s| prepared.sample(n, s).unwrap().0)
        .collect();

    // Cold replica: restore catalog + prepared cache from bytes alone.
    let bytes = engine.snapshot_to_bytes().unwrap();
    let restored = Engine::load_snapshot_bytes(&bytes).unwrap();

    let server_a = Server::bind(engine.clone(), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let server_b = Server::bind(restored, "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client_a = Client::connect(server_a.addr()).unwrap();
    let mut client_b = Client::connect(server_b.addr()).unwrap();

    let remote_a = client_a.prepare(&query).unwrap();
    let remote_b = client_b.prepare(&query).unwrap();
    assert_eq!(
        remote_b.estimations, 0,
        "snapshot-restored replica must serve without re-estimating"
    );
    assert_eq!(remote_a.summary, remote_b.summary, "plans must coincide");

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

    // Counters travelled too: both servers served every request.
    let stats = client_a.stats().unwrap();
    assert_eq!(stats.completed, seeds.len() as u64);
    assert_eq!(stats.failed, 0);
    let replica_stats = client_b.stats().unwrap();
    assert!(
        replica_stats.snapshot_bytes > 0,
        "replica stats must report the snapshot it was restored from"
    );

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    server_a.join().unwrap();
    server_b.join().unwrap();
}

/// Unknown prepared ids come back as a typed remote error, and the
/// connection stays usable afterwards.
#[test]
fn unknown_prepared_id_is_a_typed_error() {
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.sample_by_id(12345, 4, 0) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ERR_UNKNOWN_PREPARED),
        other => panic!("expected typed remote error, got {other:?}"),
    }
    // Same connection still serves.
    let remote = client.prepare(&union_query()).unwrap();
    assert_eq!(client.sample(&remote, 4, 0).unwrap().tuples.len(), 4);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// A frame with an unknown opcode gets an `Error` response (code
/// `ERR_BAD_REQUEST`), not a dropped connection.
#[test]
fn unknown_opcode_gets_error_frame() {
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let request = Frame::empty(0x7777, 99);
    request.write_to(&mut stream).unwrap();
    let response = Frame::read_from(&mut stream).unwrap();
    assert_eq!(response.opcode, protocol::OP_ERROR);
    assert_eq!(response.request_id, 99);
    let ErrorReply { code, message } = decode_payload("Error", &response.payload).unwrap();
    assert_eq!(code, ERR_BAD_REQUEST);
    assert!(message.contains("opcode"));
    drop(stream);
    server.stop();
    server.join().unwrap();
}

/// A `Sample` payload is exactly four words: the three-word shape a
/// version-1 peer sent and a payload with trailing bytes are both
/// refused by name, and the server answers each with a typed `Error`
/// frame — never a sample — on a connection that stays usable.
#[test]
fn mis_sized_sample_payloads_are_refused_by_name() {
    let well_formed = (1u64, 4u64, 0u64, 0u64).to_bytes();
    assert_eq!(well_formed.len(), 32);
    let mut long = well_formed.clone();
    long.extend_from_slice(&[0u8; 8]);
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    for (request_id, payload) in [(7, well_formed[..24].to_vec()), (8, long)] {
        let got = payload.len();
        match decode_payload::<SamplePayload>("Sample", &payload) {
            Err(NetError::Protocol(message)) => {
                assert!(message.contains("Sample payload"), "{message}");
                assert!(message.contains(&got.to_string()), "{message}");
            }
            other => panic!("{got}-byte payload: expected a protocol error, got {other:?}"),
        }
        let request = Frame {
            opcode: protocol::OP_SAMPLE,
            request_id,
            payload,
        };
        request.write_to(&mut stream).unwrap();
        let response = Frame::read_from(&mut stream).unwrap();
        assert_eq!(response.opcode, protocol::OP_ERROR);
        assert_eq!(response.request_id, request_id);
        let ErrorReply { code, message } = decode_payload("Error", &response.payload).unwrap();
        assert_eq!(code, ERR_BAD_REQUEST);
        assert!(message.contains("Sample payload"), "{message}");
    }
    drop(stream);
    server.stop();
    server.join().unwrap();
}

/// A `Prepare` payload is the query and nothing after it: one trailing
/// byte is answered `ERR_BAD_REQUEST` instead of preparing the query
/// the bytes before it spell, and the connection stays usable.
#[test]
fn prepare_payload_with_a_trailing_byte_is_a_bad_request() {
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let exact = union_query().to_bytes();
    let mut long = exact.clone();
    long.push(0);
    for (request_id, payload, opcode) in [
        (5, long, protocol::OP_ERROR),
        (6, exact, protocol::OP_PREPARED),
    ] {
        let request = Frame {
            opcode: protocol::OP_PREPARE,
            request_id,
            payload,
        };
        request.write_to(&mut stream).unwrap();
        let response = Frame::read_from(&mut stream).unwrap();
        assert_eq!((response.opcode, response.request_id), (opcode, request_id));
        if opcode == protocol::OP_ERROR {
            let ErrorReply { code, message } = decode_payload("Error", &response.payload).unwrap();
            assert_eq!(code, ERR_BAD_REQUEST);
            assert!(message.contains("Prepare payload"), "{message}");
        }
    }
    drop(stream);
    server.stop();
    server.join().unwrap();
}

/// The bytes of [`union_query`] with a predicate built by hand: `Some`,
/// then `levels` (one per nesting level), then `True`. A `Predicate`
/// value that deep could not even be dropped without overflowing the
/// stack, so the test never builds one.
fn prepare_with_nested_predicate(levels: &[u8]) -> Vec<u8> {
    let plain = union_query().to_bytes();
    // The query ends with its predicate (`false`: none) and its
    // predicate mode (tag 0: none).
    let tail = [false.to_bytes(), 0u8.to_bytes()].concat();
    assert!(plain.ends_with(&tail));
    let mut bytes = plain[..plain.len() - tail.len()].to_vec();
    bytes.extend(true.to_bytes());
    bytes.extend(levels);
    bytes.extend(0u8.to_bytes()); // `True`
    bytes.extend(0u8.to_bytes()); // no predicate mode
    bytes
}

/// A predicate nested past the decoder's depth bound is refused as
/// corrupt — by `decode_payload`, and by a live server as
/// `ERR_BAD_REQUEST` on a connection that still answers the next
/// request — instead of overflowing the stack, which would abort the
/// process.
#[test]
fn deeply_nested_predicates_are_refused_not_a_stack_overflow() {
    let not = 4u8.to_bytes();
    let and_of_one = [2u8.to_bytes(), 1u64.to_bytes()].concat();
    let shallow = prepare_with_nested_predicate(&[not.repeat(8), and_of_one.repeat(8)].concat());
    let query = decode_payload::<UnionQuery>("Prepare", &shallow).unwrap();
    assert_eq!(query.to_bytes(), shallow);
    let deep_not = prepare_with_nested_predicate(&not.repeat(1 << 20));
    let deep_and = prepare_with_nested_predicate(&and_of_one.repeat(1 << 17));
    for deep in [&deep_not, &deep_and] {
        let err = decode_payload::<UnionQuery>("Prepare", deep).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }

    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    for (request_id, payload, opcode) in [
        (7, deep_not, protocol::OP_ERROR),
        (8, union_query().to_bytes(), protocol::OP_PREPARED),
    ] {
        let request = Frame {
            opcode: protocol::OP_PREPARE,
            request_id,
            payload,
        };
        request.write_to(&mut stream).unwrap();
        let response = Frame::read_from(&mut stream).unwrap();
        assert_eq!((response.opcode, response.request_id), (opcode, request_id));
        if opcode == protocol::OP_ERROR {
            let ErrorReply { code, message } = decode_payload("Error", &response.payload).unwrap();
            assert_eq!(code, ERR_BAD_REQUEST);
            assert!(message.contains("nested deeper"), "{message}");
        }
    }
    drop(stream);
    server.stop();
    server.join().unwrap();
}

/// A request whose deadline budget cannot possibly be met comes back
/// as the typed [`NetError::DeadlineExceeded`] — and a generous budget
/// changes nothing about the sampled bits.
#[test]
fn wire_deadlines_are_typed_and_do_not_change_samples() {
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client.prepare(&union_query()).unwrap();

    // A 1ns budget expires before the worker can even dequeue.
    match client.sample_within(&remote, 1000, 7, Duration::from_nanos(1)) {
        Err(NetError::DeadlineExceeded) => {}
        other => panic!("expected typed deadline error, got {other:?}"),
    }

    // The connection survives, and a generous budget is bit-identical
    // to no budget at all: the deadline check never alters the draw
    // sequence.
    let unbounded = client.sample(&remote, 32, 7).unwrap();
    let budgeted = client
        .sample_within(&remote, 32, 7, Duration::from_secs(60))
        .unwrap();
    assert_eq!(unbounded.tuples, budgeted.tuples);

    // The failed request is a counted, typed failure — not a lost one.
    let stats = client.stats().unwrap();
    assert!(stats.failed >= 1);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// After `Server::stop`, a connection in its drain window answers
/// queued requests with typed `ShuttingDown` errors instead of a raw
/// EOF.
#[test]
fn stopped_server_drains_with_typed_shutting_down_frames() {
    let server = Server::bind_with(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
        ServerOptions::default().with_drain_grace(Duration::from_secs(3)),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client.prepare(&union_query()).unwrap();
    assert_eq!(client.sample(&remote, 8, 0).unwrap().tuples.len(), 8);

    server.stop();
    // The established connection is draining: requests sent now get a
    // typed answer, not a hangup.
    match client.sample(&remote, 8, 1) {
        Err(NetError::ShuttingDown) => {}
        other => panic!("expected typed shutting-down error, got {other:?}"),
    }
    match client.stats() {
        Err(NetError::ShuttingDown) => {}
        other => panic!("expected typed shutting-down error, got {other:?}"),
    }
    server.join().unwrap();
}

/// A peer that starts a frame and then stalls is dropped once the I/O
/// grace expires — it cannot pin its connection thread — and the
/// server keeps serving everyone else.
#[test]
fn stalled_mid_frame_peer_is_dropped_after_the_grace() {
    use std::io::{Read, Write};
    let server = Server::bind_with(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
        ServerOptions::default().with_io_grace(Duration::from_millis(200)),
    )
    .unwrap();

    // Send half a header, then stall.
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(b"SUJN\x02\x00").unwrap();
    stalled.flush().unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = std::time::Instant::now();
    let mut buf = [0u8; 1];
    // The server must close the connection (read yields 0/EOF or a
    // reset) well before our 5s read timeout.
    let dropped = matches!(stalled.read(&mut buf), Ok(0) | Err(_));
    assert!(dropped, "server must drop a stalled mid-frame peer");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drop must come from the server's grace, not our timeout"
    );

    // Other connections were never affected.
    let mut client = Client::connect(server.addr()).unwrap();
    let remote = client.prepare(&union_query()).unwrap();
    assert_eq!(client.sample(&remote, 8, 0).unwrap().tuples.len(), 8);
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// `Server::stop` shuts the accept loop down without a wire request,
/// and `join` returns.
#[test]
fn local_stop_terminates_the_server() {
    let server = Server::bind(
        default_engine(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(1),
    )
    .unwrap();
    assert!(!server.is_shutting_down());
    server.stop();
    assert!(server.is_shutting_down());
    server.join().unwrap();
}

/// Release-mode stress: concurrent clients over a deliberately tiny
/// queue. `Busy` frames occur and are absorbed by the client's bounded
/// retry; every request eventually succeeds and every response matches
/// the in-process reference bit-for-bit.
#[test]
#[ignore = "stress profile: run via CI's release-mode net smoke step"]
fn stress_concurrent_tcp_clients_stay_deterministic() {
    let engine = default_engine();
    let query = union_query();
    let prepared = engine.prepare(&query).unwrap();
    let n = 16usize;
    let requests_per_client = 64u64;
    let clients = 8u64;

    let server = Server::bind(
        engine.clone(),
        "127.0.0.1:0",
        ServiceConfig::with_workers(4).queue_capacity(8),
    )
    .unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let query = query.clone();
            let prepared = &prepared;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap().with_busy_retries(1 << 20);
                let remote = client.prepare(&query).unwrap();
                for r in 0..requests_per_client {
                    let seed = c * 10_000 + r;
                    let batch = client.sample(&remote, n, seed).unwrap();
                    let (reference, _) = prepared.sample(n, seed).unwrap();
                    assert_eq!(
                        batch.tuples, reference,
                        "client {c} request {r} diverged from in-process reference"
                    );
                }
            });
        }
    });

    let mut closer = Client::connect(addr).unwrap();
    let stats = closer.stats().unwrap();
    assert_eq!(stats.completed, clients * requests_per_client);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.tuples_served,
        clients * requests_per_client * n as u64
    );
    println!(
        "served {} requests across {clients} clients: {stats:?}",
        stats.completed
    );
    closer.shutdown().unwrap();
    server.join().unwrap();
}
