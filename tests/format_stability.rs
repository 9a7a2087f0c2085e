//! Stored and transmitted bytes do not depend on which build wrote
//! them: an engine snapshot and a `Sample`/`Batch` frame pair must
//! load, replay and re-encode byte-identically today — so
//! `ENGINE_FORMAT_VERSION`, `NET_VERSION` and every checksum are
//! provably unchanged across a change of code.
//!
//! The files under `tests/data/` are the output of `write_fixtures`
//! below (`cargo test --test format_stability -- --ignored`), in two
//! generations:
//!
//! * `engine-v3.snap` and `sample-batch-v3.frames`, written at commit
//!   `0881a68` (byte-wise CRC-32, eager membership indexes, Bernoulli
//!   rounds over an estimated `|U|`, whose overlap map the snapshot
//!   carries). They pin reading: every CRC verifies, the snapshot
//!   restores without estimating and serves what a fresh prepare
//!   serves, and the frames re-encode from their own tuples.
//! * `engine-v3-bound-selection.snap` and
//!   `sample-batch-v3-bound-selection.frames`, written once the set
//!   union selected one join per draw by its sampler's bound (no map is
//!   stored). They also pin the stream and the re-taken bytes.
//!
//! Regenerate the second pair only together with a format version bump
//! or a deliberate change of the default stream.

use sample_union_joins::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use suj_net::protocol::{
    decode_batch, decode_sample, encode_batch, encode_sample, Frame, OP_BATCH, OP_SAMPLE,
};

/// Request seed and batch size of the recorded exchange.
const SEED: u64 = 0x5eed_f00d;
const N: usize = 48;
const REQUEST_ID: u64 = 9;
const PREPARED_ID: u64 = 1;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// UQ1 at scale 1 as a caller of the engine holds it: string, integer
/// and float columns, five chain joins, the default `low-overlap` plan
/// over exact-weight samplers (so the snapshot carries relation,
/// prepared and EW-artifact sections).
fn uq1_engine() -> (Engine, UnionQuery) {
    let uq1 = uq1(&UqOptions::new(1, 7, 0.2)).unwrap();
    let mut catalog = Catalog::new();
    let mut query = UnionQuery::set_union();
    for spec in uq1.joins() {
        for relation in spec.relations() {
            if !catalog.contains(relation.name()) {
                catalog.register_arc(relation.clone()).unwrap();
            }
        }
        let names = spec.relations().iter().map(|r| r.name().to_string());
        let def = JoinDef::with_edges(spec.name(), names, spec.edges().to_vec());
        query = query.join(def).unwrap();
    }
    (Engine::new(catalog), query)
}

/// The request frame followed by its reply, as they cross the wire.
fn exchange(attrs: &[Arc<str>], tuples: &[Tuple]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (opcode, payload) in [
        (OP_SAMPLE, encode_sample(PREPARED_ID, N as u64, SEED, 0)),
        (OP_BATCH, encode_batch(attrs, tuples)),
    ] {
        let frame = Frame {
            opcode,
            request_id: REQUEST_ID,
            payload,
        };
        frame.write_to(&mut bytes).unwrap();
    }
    bytes
}

/// The newest fixtures' file names.
const SNAPSHOT: &str = "engine-v3-bound-selection.snap";
const FRAMES: &str = "sample-batch-v3-bound-selection.frames";

#[test]
#[ignore = "writes tests/data/; run at the commit whose formats the fixtures pin"]
fn write_fixtures() {
    let (engine, query) = uq1_engine();
    let prepared = engine.prepare(&query).unwrap();
    let (tuples, _) = prepared.sample(N, SEED).unwrap();
    let attrs = prepared.workload().canonical_schema().attrs().to_vec();
    std::fs::create_dir_all(data("")).unwrap();
    std::fs::write(data(SNAPSHOT), engine.snapshot_to_bytes().unwrap()).unwrap();
    std::fs::write(data(FRAMES), exchange(&attrs, &tuples)).unwrap();
}

/// A stored pair, read back: the replica restored from the snapshot
/// (every section CRC verified), the reply's tuples, and the stored
/// frames' bytes, which must re-encode from those tuples.
fn load(snapshot: &str, frames: &str) -> (Vec<u8>, Engine, Vec<Tuple>) {
    let snapshot = std::fs::read(data(snapshot)).unwrap();
    let frames = std::fs::read(data(frames)).unwrap();
    let replica = Engine::load_snapshot_bytes(&snapshot).unwrap();

    // Both frame CRCs verify under today's kernel.
    let mut wire = frames.as_slice();
    let request = Frame::read_from(&mut wire).unwrap();
    let reply = Frame::read_from(&mut wire).unwrap();
    assert!(wire.is_empty());
    assert_eq!((request.opcode, reply.opcode), (OP_SAMPLE, OP_BATCH));
    assert_eq!(
        decode_sample(&request.payload).unwrap(),
        (PREPARED_ID, N as u64, SEED, 0)
    );
    let (attrs, tuples) = decode_batch(&reply.payload).unwrap();
    assert_eq!(tuples.len(), N);
    let attrs: Vec<Arc<str>> = attrs.into_iter().map(Arc::from).collect();
    assert!(exchange(&attrs, &tuples) == frames);
    (snapshot, replica, tuples)
}

#[test]
fn parent_written_snapshot_and_frames_load_replay_and_reencode() {
    let (_, replica, _) = load("engine-v3.snap", "sample-batch-v3.frames");
    // The replica serves without estimating, sample for sample what a
    // fresh prepare of the same inputs serves.
    let (fresh, query) = uq1_engine();
    let restored = replica.prepare(&query).unwrap();
    assert_eq!(restored.estimations(), 0);
    assert_eq!(
        restored.sample(N, SEED).unwrap().0,
        fresh.prepare(&query).unwrap().sample(N, SEED).unwrap().0
    );
}

#[test]
fn stored_stream_replays_and_snapshot_retakes_byte_identically() {
    let (snapshot, replica, golden) = load(SNAPSHOT, FRAMES);
    // The recorded reply is the golden: the replica replays it without
    // estimating, and so does a fresh prepare of the same inputs.
    let (fresh, query) = uq1_engine();
    let restored = replica.prepare(&query).unwrap();
    assert_eq!(restored.estimations(), 0);
    assert_eq!(restored.sample(N, SEED).unwrap().0, golden);
    assert_eq!(
        fresh.prepare(&query).unwrap().sample(N, SEED).unwrap().0,
        golden
    );

    // Re-taking reproduces the stored bytes.
    assert!(replica.snapshot_to_bytes().unwrap() == snapshot);
    assert!(fresh.snapshot_to_bytes().unwrap() == snapshot);
}
