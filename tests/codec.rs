//! The codec is total: for every type that crosses the disk or the
//! wire, encode → decode → encode reproduces the bytes, every strict
//! prefix fails with a named [`SnapshotError`], and every single-byte
//! flip of the bare payload either fails by name or decodes to a value
//! that re-encodes to exactly the flipped bytes — one byte string per
//! value, so nothing decodes to something it does not spell. Nothing
//! panics. The property is one generic function over [`Codec`], run on
//! random values of each type; the decoding rules it rests on each have
//! a test below that an earlier reader failed.

use sample_union_joins::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use suj_core::snapshot::PreparedEntry;
use suj_join::EwArtifacts;
use suj_net::protocol::{
    decode_batch, decode_payload, Batch, ErrorReply, PreparedPayload, SamplePayload, WireStats,
};
use suj_net::NetError;
use suj_stats::AliasArena;
use suj_storage::snapshot::{
    read_sections, write_sections, ByteWriter, Codec, Labeled, SECTION_RELATION,
};
use suj_storage::{Column, SnapshotError};

/// Random cases per type.
const CASES: u64 = 48;

/// The totality property of one value.
fn assert_total<T: Codec>(value: &T) {
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("own bytes refused: {e}"));
    assert!(back.to_bytes() == bytes, "decode → encode moved the bytes");
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                T::from_bytes(&bytes[..cut]),
                Err(SnapshotError::Truncated | SnapshotError::Corrupt(_))
            ),
            "prefix of {cut} of {} bytes",
            bytes.len()
        );
    }
    let mut flipped = bytes.clone();
    for pos in 0..bytes.len() {
        for mask in [1u8 << (pos % 8), 0xFF] {
            flipped[pos] ^= mask;
            if let Ok(v) = T::from_bytes(&flipped) {
                assert!(
                    v.to_bytes() == flipped,
                    "flip {mask:#04x} at byte {pos} decoded to another byte string"
                );
            }
            flipped[pos] ^= mask;
        }
    }
}

/// Runs the property on `CASES` values drawn by `make`.
fn for_random<T: Codec>(stream: u64, make: impl Fn(&mut SujRng) -> T) {
    for case in 0..CASES {
        assert_total(&make(&mut SujRng::derive(stream, case)));
    }
}

fn pick<T: Copy>(rng: &mut SujRng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn string(rng: &mut SujRng) -> String {
    let len = rng.index(4);
    (0..len).map(|_| pick(rng, &['a', 'b', 'c', 'ω'])).collect()
}

fn value(rng: &mut SujRng) -> Value {
    match rng.index(4) {
        0 => Value::Null,
        1 => Value::int(rng.range_i64(-50, 50)),
        2 => Value::float(rng.next_f64() * 100.0 - 50.0),
        _ => Value::str(string(rng)),
    }
}

/// A relation of arity 1–3 and up to 24 rows, each column `Int64`,
/// `Float64`, `Str` or `Mixed`, every kind salted with NULLs.
fn relation(rng: &mut SujRng) -> Relation {
    let arity = 1 + rng.index(3);
    let kinds: Vec<usize> = (0..arity).map(|_| rng.index(4)).collect();
    let rows = rng.index(25);
    let tuples = (0..rows)
        .map(|_| {
            let cells = kinds.iter().map(|&kind| {
                let v = value(rng);
                match (kind, &v) {
                    (_, Value::Null) | (3, _) => v,
                    (0, _) => Value::int(rng.range_i64(-50, 50)),
                    (1, _) => Value::float(rng.next_f64()),
                    _ => Value::str(string(rng)),
                }
            });
            Tuple::new(cells.collect())
        })
        .collect();
    let schema = Schema::new(["a", "b", "c"][..arity].to_vec()).unwrap();
    let rel = Relation::new("r", schema, tuples).unwrap();
    if rng.bernoulli(0.5) {
        rel.with_original_size(rng.index(1000))
    } else {
        rel
    }
}

fn predicate(rng: &mut SujRng, depth: usize) -> Predicate {
    let leaf = depth == 0 || rng.bernoulli(0.4);
    match if leaf { rng.index(2) } else { 2 + rng.index(3) } {
        0 => Predicate::True,
        1 => Predicate::cmp(string(rng), pick(rng, CompareOp::TABLE).0, value(rng)),
        2 => Predicate::And(
            (0..rng.index(3))
                .map(|_| predicate(rng, depth - 1))
                .collect(),
        ),
        3 => Predicate::Or(
            (0..rng.index(3))
                .map(|_| predicate(rng, depth - 1))
                .collect(),
        ),
        _ => Predicate::Not(Box::new(predicate(rng, depth - 1))),
    }
}

/// A query of 1–3 joins, each chain, natural or explicit edges, with an
/// optional predicate and pinned mode.
fn query(rng: &mut SujRng) -> UnionQuery {
    let mut q = if rng.bernoulli(0.5) {
        UnionQuery::set_union()
    } else {
        UnionQuery::disjoint_union()
    };
    for j in 0..1 + rng.index(3) {
        let name = format!("j{j}");
        let relations: Vec<String> = (0..1 + rng.index(3)).map(|_| string(rng)).collect();
        let def = match rng.index(3) {
            0 => JoinDef::chain(name, relations),
            1 => JoinDef::natural(name, relations),
            _ => {
                let edges = (0..rng.index(3))
                    .map(|_| JoinEdge {
                        left: rng.index(4),
                        right: rng.index(4),
                        attrs: (0..rng.index(3)).map(|_| Arc::from(string(rng))).collect(),
                    })
                    .collect();
                JoinDef::with_edges(name, relations, edges)
            }
        };
        q = q.join(def).unwrap();
    }
    if rng.bernoulli(0.6) {
        q = q.predicate(predicate(rng, 3));
    }
    if rng.bernoulli(0.5) {
        q = q.predicate_mode(pick(rng, PredicateMode::TABLE).0);
    }
    q
}

fn maybe<T>(rng: &mut SujRng, make: impl FnOnce(&mut SujRng) -> T) -> Option<T> {
    rng.bernoulli(0.7).then(|| make(rng))
}

/// A prepared entry: a random query and seed, with or without size
/// hints (one per join, `|∪Jᵢ|` beside them) and an overlap map.
fn entry(rng: &mut SujRng) -> PreparedEntry {
    let n_joins = 1 + rng.index(4);
    PreparedEntry {
        id: rng.next_u64() as u32,
        query: query(rng),
        root_seed: rng.next_u64(),
        estimates: maybe(rng, |rng| {
            let hints = (0..n_joins).map(|_| rng.next_f64() * 1e6).collect();
            (rng.next_f64() * 1e6, hints)
        }),
        map: maybe(rng, overlap_map),
    }
}

fn overlap_map(rng: &mut SujRng) -> OverlapMap {
    let n = 1 + rng.index(4);
    let sizes = (0..1usize << n)
        .map(|mask| {
            if mask == 0 {
                0.0
            } else {
                rng.next_f64() * 100.0
            }
        })
        .collect();
    OverlapMap::new(n, sizes).unwrap()
}

/// A structurally valid alias arena of up to four segments.
fn arena(rng: &mut SujRng) -> AliasArena {
    let mut offsets = vec![0u32];
    let (mut prob, mut alias) = (Vec::new(), Vec::new());
    for _ in 0..1 + rng.index(4) {
        let len = rng.index(5) as u32;
        for _ in 0..len {
            prob.push(rng.next_f64());
            alias.push(rng.index(len as usize) as u32);
        }
        offsets.push(offsets.last().unwrap() + len);
    }
    AliasArena::from_parts(offsets, prob, alias).unwrap()
}

fn ew_artifacts(rng: &mut SujRng) -> EwArtifacts {
    let n = 1 + rng.index(3);
    let slab = |rng: &mut SujRng| (0..rng.index(6)).map(|_| rng.next_u64() >> 40).collect();
    EwArtifacts {
        counts: (0..n).map(|_| slab(rng)).collect(),
        key_counts: (0..n).map(|_| slab(rng)).collect(),
        arenas: (0..n).map(|_| maybe(rng, arena)).collect(),
        root_arena: arena(rng),
        total: rng.next_u64(),
        exact: rng.bernoulli(0.5),
    }
}

#[test]
fn values_and_predicates_are_total() {
    for_random(1, value);
    for_random(2, |rng| predicate(rng, 4));
}

#[test]
fn relations_are_total() {
    for_random(3, relation);
}

#[test]
fn queries_are_total() {
    for_random(4, query);
}

#[test]
fn prepared_entries_maps_and_planner_configs_are_total() {
    for_random(5, entry);
    for_random(6, |rng| maybe(rng, overlap_map));
    for_random(7, |rng| PlannerConfig {
        bernoulli_max_overlap_ratio: rng.next_f64() * 2.0,
        use_statistics: rng.bernoulli(0.5),
    });
}

#[test]
fn ew_artifacts_are_total() {
    for_random(8, ew_artifacts);
}

/// Every opcode's payload: `Prepare`, `Sample`, `Prepared`, `Batch`,
/// `Stats`, `Busy` and `Error`.
#[test]
fn wire_payloads_are_total() {
    for_random(9, query);
    for_random(10, |rng| -> SamplePayload {
        (
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        )
    });
    for_random(11, |rng| -> PreparedPayload {
        (rng.next_u64(), rng.next_u64(), string(rng))
    });
    for_random(12, |rng| {
        let rel = relation(rng);
        Batch {
            attrs: rel.schema().attrs().to_vec(),
            columns: rel.columns().to_vec(),
        }
    });
    for_random(13, |rng| WireStats {
        workers: rng.next_u64(),
        submitted: rng.next_u64(),
        completed: rng.next_u64(),
        failed: rng.next_u64(),
        tuples_served: rng.next_u64(),
        prepared_bytes: rng.next_u64(),
        snapshot_bytes: rng.next_u64(),
        restore_time_ns: rng.next_u64(),
    });
    for_random(14, |rng| Duration::from_nanos(rng.next_u64()));
    for_random(15, |rng| ErrorReply {
        code: rng.index(1 << 16) as u16,
        message: string(rng),
    });
}

/// A `Batch` payload decodes to the tuples its columns hold.
#[test]
fn batches_decode_to_their_rows() {
    for case in 0..CASES {
        let rel = relation(&mut SujRng::derive(12, case));
        let batch = Batch {
            attrs: rel.schema().attrs().to_vec(),
            columns: rel.columns().to_vec(),
        };
        let (attrs, tuples) = decode_batch(&batch.to_bytes()).unwrap();
        assert_eq!(attrs, ["a", "b", "c"][..attrs.len()]);
        assert_eq!(tuples, rel.tuples());
    }
}

// ---------------------------------------------------------------------
// One test per decoding rule, each on a whole engine snapshot.
// ---------------------------------------------------------------------

fn engine_snapshot() -> Vec<u8> {
    let rows = |k: i64| {
        (0..20)
            .map(|i| Tuple::new(vec![Value::int(i % 7), Value::int((i * k) % 5)]))
            .collect()
    };
    let mut catalog = Catalog::new();
    let r = Relation::new("r", Schema::new(["a", "b"]).unwrap(), rows(3)).unwrap();
    let s = Relation::new("s", Schema::new(["b", "c"]).unwrap(), rows(2)).unwrap();
    catalog.register(r).unwrap();
    catalog.register(s).unwrap();
    let engine = Engine::new(catalog);
    engine
        .prepare(&UnionQuery::set_union().chain("q", ["r", "s"]).unwrap())
        .unwrap();
    engine.snapshot_to_bytes().unwrap()
}

fn owned_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let sections = read_sections(bytes).unwrap();
    sections.into_iter().map(|(k, p)| (k, p.to_vec())).collect()
}

fn load_error(bytes: &[u8]) -> SnapshotError {
    match Engine::load_snapshot_bytes(bytes) {
        Err(CoreError::Snapshot(e)) => e,
        other => panic!("expected a snapshot error, got {:?}", other.map(|_| ())),
    }
}

/// The leftover rule: a relation section with 8 more zero bytes (its
/// CRC recomputed) is not the relation the bytes before them spell.
#[test]
fn a_section_with_bytes_left_over_is_corrupt() {
    let mut sections = owned_sections(&engine_snapshot());
    let relation = sections
        .iter_mut()
        .find(|(k, _)| *k == SECTION_RELATION)
        .unwrap();
    relation.1.extend_from_slice(&[0; 8]);
    assert!(matches!(
        load_error(&write_sections(&sections)),
        SnapshotError::Corrupt(_)
    ));
}

/// `bytes` with the one occurrence of `from` spelled `to` instead.
fn respell(bytes: &mut [u8], from: &[u8], to: &[u8]) {
    let at: Vec<usize> = (0..bytes.len().saturating_sub(from.len() - 1))
        .filter(|&i| bytes[i..].starts_with(from))
        .collect();
    assert_eq!(at.len(), 1, "{} occurs once", String::from_utf8_lossy(from));
    bytes[at[0]..at[0] + to.len()].copy_from_slice(to);
}

/// The pool rule: a dictionary pool is a set, so a `Str` column whose
/// pool spells one string twice is corrupt — in an engine snapshot's
/// relation section (its CRC recomputed) and in a wire `Batch`.
#[test]
fn a_duplicate_pool_string_is_corrupt() {
    let names = ["pool-one", "pool-two", "pool-one"].map(|s| Tuple::new(vec![Value::str(s)]));
    let rel = Relation::new("n", Schema::new(["name"]).unwrap(), names.to_vec()).unwrap();
    let mut catalog = Catalog::new();
    catalog.register(rel.clone()).unwrap();
    let bytes = Engine::new(catalog).snapshot_to_bytes().unwrap();
    let mut sections = owned_sections(&bytes);
    let relation = sections
        .iter_mut()
        .find(|(k, _)| *k == SECTION_RELATION)
        .unwrap();
    respell(&mut relation.1, b"pool-two", b"pool-one");
    match load_error(&write_sections(&sections)) {
        SnapshotError::Corrupt(why) => assert!(why.contains("duplicate string"), "{why}"),
        other => panic!("expected a corrupt snapshot, got {other:?}"),
    }

    let mut payload = Batch {
        attrs: rel.schema().attrs().to_vec(),
        columns: rel.columns().to_vec(),
    }
    .to_bytes();
    assert_eq!(decode_batch(&payload).unwrap().1, rel.tuples());
    respell(&mut payload, b"pool-two", b"pool-one");
    match Batch::from_bytes(&payload) {
        Err(SnapshotError::Corrupt(why)) => assert!(why.contains("duplicate string"), "{why}"),
        other => panic!("expected a corrupt batch, got {:?}", other.map(|_| ())),
    }
    match decode_payload::<Batch>("Batch", &payload) {
        Err(NetError::Protocol(why)) => assert!(why.contains("duplicate string"), "{why}"),
        other => panic!("expected a refused batch, got {:?}", other.map(|_| ())),
    }
}

/// The padding rule: the 13-byte meta section is followed by three
/// padding bytes no CRC covers; a non-zero one is corruption, not a
/// second spelling of the same snapshot.
#[test]
fn a_non_zero_padding_byte_between_sections_is_corrupt() {
    let bytes = engine_snapshot();
    // Preamble (16) + meta header (16) + meta payload (13).
    assert_eq!(owned_sections(&bytes)[0].1.len(), 13);
    for pos in 45..48 {
        assert_eq!(bytes[pos], 0);
        let mut bad = bytes.clone();
        bad[pos] = 1;
        assert!(
            matches!(load_error(&bad), SnapshotError::Corrupt(_)),
            "byte {pos}"
        );
    }
}

/// The flag rule: meta's use-statistics byte reads 0 or 1, never "any
/// non-zero value is true".
#[test]
fn a_flag_byte_of_two_is_corrupt() {
    let mut sections = owned_sections(&engine_snapshot());
    let meta = &mut sections[0].1;
    assert_eq!(meta[12], 1);
    meta[12] = 2;
    assert!(matches!(
        load_error(&write_sections(&sections)),
        SnapshotError::Corrupt(_)
    ));
}

/// One byte string per value: a padding byte, a flag byte, a
/// validity bitmap or a leftover byte that `encode` would not write
/// is corruption, not an alias of the value.
#[test]
fn every_value_has_one_byte_string() {
    let mut w = ByteWriter::new();
    7u8.encode(&mut w);
    w.put_slab(&[1i64, 2, 3]);
    let slab = w.into_bytes();
    let mut padded = slab.clone();
    padded[3] = 1;
    let decode = |b: &[u8]| <(u8, Vec<i64>)>::from_bytes(b);
    assert_eq!(decode(&slab).unwrap(), (7, vec![1, 2, 3]));
    assert!(matches!(decode(&padded), Err(SnapshotError::Corrupt(_))));

    assert_eq!(bool::from_bytes(&[1]), Ok(true));
    assert!(matches!(
        bool::from_bytes(&[2]),
        Err(SnapshotError::Corrupt(_))
    ));
    assert!(matches!(
        u32::from_bytes(&[0; 5]),
        Err(SnapshotError::Corrupt(_))
    ));

    // A bitmap with no NULL, or a bit past the last row.
    let column = |words: Vec<u64>, rows: usize| {
        let mut w = ByteWriter::new();
        0u8.encode(&mut w);
        Some(words).encode(&mut w);
        w.put_slab(&vec![0i64; rows]);
        Column::from_bytes(&w.into_bytes())
    };
    assert!(column(vec![0b101], 3).is_ok());
    assert!(matches!(
        column(vec![0b111], 3),
        Err(SnapshotError::Corrupt(_))
    ));
    assert!(matches!(
        column(vec![0b1001], 3),
        Err(SnapshotError::Corrupt(_))
    ));
    assert!(matches!(
        column(vec![0, 0], 3),
        Err(SnapshotError::Corrupt(_))
    ));

    // A dictionary pool: its strings, then each row's code.
    let str_column = |pool: &[&str], codes: &[u32]| {
        let mut w = ByteWriter::new();
        2u8.encode(&mut w);
        None::<Vec<u64>>.encode(&mut w);
        let pool: Vec<Arc<str>> = pool.iter().map(|&s| Arc::from(s)).collect();
        w.put_seq64(&pool);
        w.put_slab(codes);
        Column::from_bytes(&w.into_bytes())
    };
    assert!(str_column(&["a", "b"], &[1, 0, 1]).is_ok());
    assert!(matches!(
        str_column(&["a", "b", "a"], &[0, 1, 2]),
        Err(SnapshotError::Corrupt(_))
    ));
    assert!(matches!(
        str_column(&["a", "b"], &[0, 2]),
        Err(SnapshotError::Corrupt(_))
    ));
    // Each pooled string takes at least its `u64` length, so three
    // strings cannot fit in the 16 bytes left: refused before any is
    // read (read, the two empty strings there would be a duplicate).
    let mut w = ByteWriter::new();
    2u8.encode(&mut w);
    None::<Vec<u64>>.encode(&mut w);
    (3u64, 0u64, 0u64).encode(&mut w);
    assert!(matches!(
        Column::from_bytes(&w.into_bytes()),
        Err(SnapshotError::Truncated)
    ));
}
