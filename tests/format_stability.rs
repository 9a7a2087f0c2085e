//! Stored and transmitted bytes do not depend on which build wrote
//! them: an engine snapshot and a `Sample`/`Batch` frame pair must
//! load, replay and re-encode byte-identically today — so
//! `ENGINE_FORMAT_VERSION`, `NET_VERSION` and every checksum are
//! provably unchanged across a change of code.
//!
//! The files under `tests/data/` were written by `write_fixtures` below
//! (`cargo test --test format_stability -- --ignored`, which writes the
//! engine snapshots and checks that today's build spells the frames as
//! stored), in four generations:
//!
//! * `engine-v3.snap` and `sample-batch-v3.frames`, written at commit
//!   `0881a68` (byte-wise CRC-32, eager membership indexes, Bernoulli
//!   rounds over an estimated `|U|`). The frames still pin reading:
//!   both CRCs verify and they re-encode from their own tuples. The
//!   snapshot is the one format-3 read pin: format 4 refuses it by
//!   version, without falling back to a loadable `.prev`.
//! * `sample-batch-v3-bound-selection.frames`, written once the set
//!   union selected one join per draw by its sampler's bound. It pins
//!   the default uq1 stream, which the format-4 snapshot of the same
//!   engine replays.
//! * `opcodes-v3.frames`, written by the last commit whose three codecs
//!   were hand-written (one per crate), before one `Codec` trait
//!   replaced them: one frame of every opcode. It pins that the trait
//!   writes the same bytes.
//! * `engine-v4-bound-selection.snap` and `engine-v4-rules-*.snap`, the
//!   first format-4 snapshots (no plan tags: a restore decides each plan
//!   again from the stored statistics). The rule snapshots are one per
//!   planner configuration — together every section kind, every plan
//!   rule, estimator, weights, cover and predicate mode, every
//!   topology, comparison, value and column layout. They replace the
//!   format-3 snapshots of the same engines, and every query of each
//!   replays [`GOLDENS`]: the summary and stream checksum that the last
//!   format-3 build served from those format-3 snapshots.
//!
//! Regenerate a snapshot only together with a format version bump, and
//! then against [`GOLDENS`], which are not regenerated: a change that
//! moved both a fixture and a fresh prepare would otherwise pass.

use sample_union_joins::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use suj_net::protocol::{
    decode_batch, decode_payload, encode_batch, Frame, SamplePayload, OP_BATCH, OP_SAMPLE,
};
use suj_storage::snapshot::Codec;

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
        (OP_SAMPLE, (PREPARED_ID, N as u64, SEED, 0u64).to_bytes()),
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

/// The format-3 read pin, and the frames written beside it.
const V3_SNAPSHOT: &str = "engine-v3.snap";
const V3_FRAMES: &str = "sample-batch-v3.frames";
/// The default uq1 engine's snapshot and the exchange it serves.
const SNAPSHOT: &str = "engine-v4-bound-selection.snap";
const FRAMES: &str = "sample-batch-v3-bound-selection.frames";

#[test]
#[ignore = "writes tests/data/; run at the commit whose formats the fixtures pin"]
fn write_fixtures() {
    let (engine, query) = uq1_engine();
    let prepared = engine.prepare(&query).unwrap();
    let (tuples, _) = prepared.sample(N, SEED).unwrap();
    let attrs = prepared.workload().canonical_schema().attrs().to_vec();
    std::fs::write(data(SNAPSHOT), engine.snapshot_to_bytes().unwrap()).unwrap();
    for (file, engine) in rule_engines() {
        std::fs::write(data(file), engine.snapshot_to_bytes().unwrap()).unwrap();
    }
    // The frames are `NET_VERSION` 3's, which no format-4 change
    // rewrites: this build must spell them as stored.
    assert!(exchange(&attrs, &tuples) == std::fs::read(data(FRAMES)).unwrap());
    assert!(opcode_frames() == std::fs::read(data(OPCODE_FRAMES)).unwrap());
}

// ---------------------------------------------------------------------
// The rule snapshots: one engine snapshot per planner configuration,
// which together carry every section kind and every rule a plan can
// hold, and one frame of every opcode.
// ---------------------------------------------------------------------

/// Snapshot of the default planner's engine.
const RULES_DEFAULT: &str = "engine-v4-rules-default.snap";
/// Snapshot of the engine whose planner threshold is 0.
const RULES_THRESHOLD_0: &str = "engine-v4-rules-threshold-0.snap";
/// Snapshot of the engine whose planner reads no statistics.
const RULES_NO_STATISTICS: &str = "engine-v4-rules-no-statistics.snap";
/// One frame of every opcode, in `opcode_frames` order.
const OPCODE_FRAMES: &str = "opcodes-v3.frames";

/// Per fixture, per query (in `rule_configs` order): the summary and
/// the [`checksum`] of `sample(N, SEED)` that the last format-3 build
/// served after loading the format-3 snapshot of the same engine
/// (`engine-v3-bound-selection.snap`, `engine-v3-rules-default.snap`,
/// `engine-v3-rules-threshold-0.snap`, and both
/// `engine-v3-rules-no-statistics.snap` and its `-owner` successor,
/// which agreed). `engine-v3.snap` served the uq1 golden too.
const GOLDENS: &[(&str, &[(&str, u64)])] = &[
    (
        SNAPSHOT,
        &[(
            "strategy=bernoulli(record) weights=exact sizing=exact \
             rule=low-overlap",
            0x309c00f1cf44cb9a,
        )],
    ),
    (
        RULES_DEFAULT,
        &[
            (
                "strategy=rejection estimator=histogram(EO) weights=exact cover=as-given \
                 sizing=histogram rule=high-overlap",
                0x7b224edeaaddebc5,
            ),
            (
                "strategy=disjoint weights=exact sizing=exact \
                 rule=disjoint-semantics",
                0x7b4c3712cb4ed924,
            ),
            (
                "strategy=disjoint weights=exact sizing=exact \
                 rule=single-join",
                0x7b224edeaaddebc5,
            ),
            (
                "strategy=rejection estimator=histogram(EO) weights=agm-box cover=as-given \
                 sizing=histogram rule=cyclic-join",
                0x5236b23a38b49042,
            ),
            (
                "strategy=bernoulli(record) weights=exact sizing=exact \
                 rule=low-overlap",
                0x5d6851ae87203b51,
            ),
            (
                "strategy=rejection estimator=histogram(EO) weights=exact cover=as-given \
                 predicate=push-down sizing=histogram rule=high-overlap",
                0xc7be2f8be0e3d90e,
            ),
            (
                "strategy=rejection estimator=histogram(EO) weights=exact cover=as-given \
                 predicate=reject sizing=histogram rule=high-overlap",
                0x875866e1db3e30ca,
            ),
        ],
    ),
    (
        RULES_THRESHOLD_0,
        &[(
            "strategy=rejection estimator=histogram(EO) weights=exact cover=descending-size \
             sizing=histogram rule=high-overlap",
            0x7b224edeaaddebc5,
        )],
    ),
    (
        RULES_NO_STATISTICS,
        &[
            (
                "strategy=bernoulli(oracle) weights=exact sizing=exact \
                 rule=no-statistics",
                0x7b4c3712cb4ed924,
            ),
            (
                "strategy=disjoint weights=exact sizing=exact \
                 rule=disjoint-semantics",
                0x7b4c3712cb4ed924,
            ),
        ],
    ),
];

/// Order-sensitive digest of a batch, as `tests/equivalence.rs` takes
/// it (the workspace's own Fx hash of each tuple's values).
fn checksum(tuples: &[Tuple]) -> u64 {
    tuples.iter().fold(0u64, |h, t| {
        h.rotate_left(5) ^ suj_storage::hash_values(t.values())
    })
}

/// The recorded goldens of `file`'s queries.
fn goldens(file: &str) -> &'static [(&'static str, u64)] {
    GOLDENS.iter().find(|(f, _)| *f == file).unwrap().1
}

/// Asserts that `prepared` serves the recorded golden without
/// estimating.
#[track_caller]
fn assert_replays(prepared: &PreparedQuery, (summary, sum): (&str, u64), what: &str) {
    assert_eq!(prepared.estimations(), 0, "{what}");
    assert_eq!(prepared.summary().to_string(), summary, "{what}");
    assert_eq!(
        checksum(&prepared.sample(N, SEED).unwrap().0),
        sum,
        "{what}: stream"
    );
}

/// A relation of `rows` rows, one column per `(attr, cell)` pair.
fn relation(name: &str, cols: &[(&str, &dyn Fn(i64) -> Value)], rows: i64) -> Relation {
    let schema = Schema::new(cols.iter().map(|(a, _)| *a)).unwrap();
    let tuples = (0..rows)
        .map(|i| Tuple::new(cols.iter().map(|(_, cell)| cell(i)).collect()))
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

/// Every relation the rule queries read: two overlapping shops (integer
/// keys, `Float64` prices, strings with NULLs, a `Mixed` note column),
/// a small shop whose join is 1/8 the size of the others, a 40-vertex
/// graph's three triangle sides plus a hub side, and two toy relations
/// small enough for the exact estimator.
fn rules_catalog() -> Catalog {
    let int = |m: i64| move |i: i64| Value::int(i % m);
    let price = |i: i64| {
        if i % 11 == 0 {
            Value::Null
        } else {
            Value::float((i % 17) as f64 * 0.5)
        }
    };
    let tag = |i: i64| match i % 5 {
        0 => Value::Null,
        k => Value::str(["x", "y", "zz", "ω"][k as usize - 1]),
    };
    let note = |i: i64| match i % 4 {
        0 => Value::int(i),
        1 => Value::str(format!("n{}", i % 7)),
        2 => Value::float(i as f64 / 4.0),
        _ => Value::Null,
    };
    let sku = |i: i64| Value::int(i);
    let sku_b = |i: i64| Value::int(i + 200);
    let sale_sku = |i: i64| Value::int(i % 300);
    let sale_sku_b = |i: i64| Value::int(200 + i % 300);
    let cat = int(9);
    let mut catalog = Catalog::new();
    for rel in [
        relation(
            "items",
            &[
                ("sku", &sku),
                ("cat", &cat),
                ("price", &price),
                ("tag", &tag),
            ],
            300,
        ),
        relation(
            "sales",
            &[("sale", &sku), ("sku", &sale_sku), ("note", &note)],
            300,
        ),
        relation(
            "items_b",
            &[
                ("sku", &sku_b),
                ("cat", &cat),
                ("price", &price),
                ("tag", &tag),
            ],
            300,
        ),
        relation(
            "sales_b",
            &[("sale", &sku), ("sku", &sale_sku_b), ("note", &note)],
            300,
        ),
        relation(
            "items_small",
            &[
                ("sku", &sku),
                ("cat", &cat),
                ("price", &price),
                ("tag", &tag),
            ],
            12,
        ),
        relation("tiny_r", &[("a", &int(6)), ("b", &int(4))], 10),
        relation("tiny_r2", &[("a", &int(5)), ("b", &int(3))], 8),
        relation("tiny_s", &[("b", &int(4)), ("c", &sku)], 9),
    ] {
        catalog.register(rel).unwrap();
    }
    let mut rng = SujRng::seed_from_u64(31);
    let mut edges = Vec::new();
    for u in 0..40i64 {
        for v in (u + 1)..40 {
            if rng.bernoulli(0.3) {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
    }
    let hub: Vec<(i64, i64)> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| u < 20 && v < 20)
        .collect();
    for (name, attrs, rows) in [
        ("e_ab", ["a", "b"], &edges),
        ("e_bc", ["b", "c"], &edges),
        ("e_ca", ["c", "a"], &edges),
        ("e_ca_hub", ["c", "a"], &hub),
    ] {
        let tuples = rows
            .iter()
            .map(|&(u, v)| Tuple::new(vec![Value::int(u), Value::int(v)]))
            .collect();
        let rel = Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap();
        catalog.register(rel).unwrap();
    }
    catalog
}

/// The two shops as a set or disjoint union of chain joins.
fn shops(union: UnionQuery) -> UnionQuery {
    union
        .chain("shop_a", ["items", "sales"])
        .unwrap()
        .chain("shop_b", ["items_b", "sales_b"])
        .unwrap()
}

/// The shops joined by explicit edges under a pushed-down conjunction:
/// the query the opcode frames prepare and sample.
fn edges_query() -> UnionQuery {
    let edge = || {
        vec![JoinEdge {
            left: 0,
            right: 1,
            attrs: vec!["sku".into()],
        }]
    };
    UnionQuery::set_union()
        .join(JoinDef::with_edges("edges_a", ["items", "sales"], edge()))
        .unwrap()
        .join(JoinDef::with_edges(
            "edges_b",
            ["items_b", "sales_b"],
            edge(),
        ))
        .unwrap()
        .predicate(Predicate::And(vec![
            Predicate::cmp("cat", CompareOp::Le, Value::int(6)),
            Predicate::cmp("price", CompareOp::Gt, Value::float(1.5)),
            Predicate::cmp("tag", CompareOp::Ne, Value::str("zz")),
            Predicate::True,
        ]))
        .predicate_mode(PredicateMode::PushDown)
}

/// The default planner's queries: low-overlap (EW arenas), disjoint
/// semantics, a single join, the cyclic union (AGM box, histogram map),
/// the exact estimator on toy relations, the pushed-down edges query,
/// and a natural join under a rejected `Or`/`Not` predicate.
fn default_queries() -> Vec<UnionQuery> {
    vec![
        shops(UnionQuery::set_union()),
        shops(UnionQuery::disjoint_union()),
        UnionQuery::set_union()
            .chain("only_a", ["items", "sales"])
            .unwrap(),
        UnionQuery::set_union()
            .join(JoinDef::natural("triangles", ["e_ab", "e_bc", "e_ca"]))
            .unwrap()
            .join(JoinDef::natural(
                "hub_triangles",
                ["e_ab", "e_bc", "e_ca_hub"],
            ))
            .unwrap(),
        UnionQuery::set_union()
            .chain("toy_a", ["tiny_r", "tiny_s"])
            .unwrap()
            .chain("toy_b", ["tiny_r2", "tiny_s"])
            .unwrap(),
        edges_query(),
        UnionQuery::set_union()
            .join(JoinDef::natural("nat_a", ["items", "sales"]))
            .unwrap()
            .join(JoinDef::natural("nat_b", ["items_b", "sales_b"]))
            .unwrap()
            .predicate(Predicate::Or(vec![
                Predicate::cmp("cat", CompareOp::Eq, Value::int(3)),
                Predicate::Not(Box::new(Predicate::cmp(
                    "price",
                    CompareOp::Lt,
                    Value::float(2.0),
                ))),
                Predicate::cmp("note", CompareOp::Ge, Value::str("n3")),
                Predicate::cmp("tag", CompareOp::Eq, Value::Null),
            ]))
            .predicate_mode(PredicateMode::Reject),
    ]
}

/// Each planner configuration with the queries it prepares: the
/// default; threshold 0, which routes the skewed shops to high-overlap
/// with a descending-size cover; and no statistics, which plans the
/// membership-oracle owner sampler and, over more than 512 rows, the
/// walk estimator.
fn rule_configs() -> Vec<(&'static str, Planner, Vec<UnionQuery>)> {
    let skewed = UnionQuery::set_union()
        .chain("big", ["items", "sales"])
        .unwrap()
        .chain("small", ["items_small", "sales"])
        .unwrap();
    vec![
        (RULES_DEFAULT, Planner::default(), default_queries()),
        (
            RULES_THRESHOLD_0,
            Planner::new(PlannerConfig {
                bernoulli_max_overlap_ratio: 0.0,
                ..PlannerConfig::default()
            }),
            vec![skewed],
        ),
        (
            RULES_NO_STATISTICS,
            Planner::without_statistics(),
            vec![
                shops(UnionQuery::set_union()),
                shops(UnionQuery::disjoint_union()),
            ],
        ),
    ]
}

/// Each configuration's engine with its queries prepared.
fn rule_engines() -> Vec<(&'static str, Engine)> {
    rule_configs()
        .into_iter()
        .map(|(file, planner, queries)| {
            let engine = Engine::with_planner(rules_catalog(), planner);
            for q in &queries {
                engine.prepare(q).unwrap();
            }
            (file, engine)
        })
        .collect()
}

/// Request id of the first opcode frame; each later frame takes the
/// next one.
const OPCODE_REQUEST_ID: u64 = 40;
/// The deadline budget the recorded `Sample` request carries.
const BUDGET_NS: u64 = 2_000_000_000;

/// One frame of every opcode, as a default-planner server and its
/// client exchange them over the edges query: `Prepare`, `Prepared`,
/// `Sample` (with a budget), `Batch`, `Stats` and its reply, `Busy`,
/// `Error`, `Shutdown`, `ShutdownAck`.
fn opcode_frames() -> Vec<u8> {
    use suj_net::protocol::*;
    let engine = Engine::new(rules_catalog());
    let query = edges_query();
    let prepared = engine.prepare(&query).unwrap();
    let (tuples, _) = prepared.sample(N, SEED).unwrap();
    let attrs = prepared.workload().canonical_schema().attrs().to_vec();
    let stats = WireStats {
        workers: 2,
        submitted: 17,
        completed: 15,
        failed: 1,
        tuples_served: 720,
        prepared_bytes: 81_920,
        snapshot_bytes: 40_960,
        restore_time_ns: 1_234_567,
    };
    let summary = prepared.summary().to_string();
    let error = ErrorReply {
        code: ERR_ENGINE,
        message: "every join ran out of its attempt budget".into(),
    };
    let frames = [
        (OP_PREPARE, query.to_bytes()),
        (
            OP_PREPARED,
            (PREPARED_ID, prepared.estimations(), summary).to_bytes(),
        ),
        (
            OP_SAMPLE,
            (PREPARED_ID, N as u64, SEED, BUDGET_NS).to_bytes(),
        ),
        (OP_BATCH, encode_batch(&attrs, &tuples)),
        (OP_STATS, Vec::new()),
        (OP_STATS_REPLY, stats.to_bytes()),
        (OP_BUSY, std::time::Duration::from_micros(250).to_bytes()),
        (OP_ERROR, error.to_bytes()),
        (OP_SHUTDOWN, Vec::new()),
        (OP_SHUTDOWN_ACK, Vec::new()),
    ];
    let mut bytes = Vec::new();
    for (k, (opcode, payload)) in frames.into_iter().enumerate() {
        let frame = Frame {
            opcode,
            request_id: OPCODE_REQUEST_ID + k as u64,
            payload,
        };
        frame.write_to(&mut bytes).unwrap();
    }
    bytes
}

/// A stored frame pair, read back: both CRCs verify, and the bytes
/// re-encode from the reply's tuples, which are returned.
fn load_frames(frames: &str) -> Vec<Tuple> {
    let frames = std::fs::read(data(frames)).unwrap();
    let mut wire = frames.as_slice();
    let request = Frame::read_from(&mut wire).unwrap();
    let reply = Frame::read_from(&mut wire).unwrap();
    assert!(wire.is_empty());
    assert_eq!((request.opcode, reply.opcode), (OP_SAMPLE, OP_BATCH));
    assert_eq!(
        decode_payload::<SamplePayload>("Sample", &request.payload).unwrap(),
        (PREPARED_ID, N as u64, SEED, 0)
    );
    let (attrs, tuples) = decode_batch(&reply.payload).unwrap();
    assert_eq!(tuples.len(), N);
    let attrs: Vec<Arc<str>> = attrs.into_iter().map(Arc::from).collect();
    assert!(exchange(&attrs, &tuples) == frames);
    tuples
}

/// Format 4 refuses the format-3 snapshot by its version — through the
/// file loader too, which does not fall back to the loadable format-4
/// `.prev` beside it: serving an older generation would mask the
/// deployment mismatch. The frames written with it still verify and
/// re-encode.
#[test]
fn format_3_snapshot_is_refused_by_version_and_its_frames_reencode() {
    load_frames(V3_FRAMES);
    let v3 = std::fs::read(data(V3_SNAPSHOT)).unwrap();
    let refused = |result: Result<Engine, CoreError>| {
        matches!(
            result,
            Err(CoreError::Snapshot(SnapshotError::UnsupportedVersion(3)))
        )
    };
    assert!(refused(Engine::load_snapshot_bytes(&v3)));

    let dir = std::env::temp_dir().join("suj_format_3_refusal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.snap");
    let prev = suj_storage::snapshot::snapshot_prev_path(&path);
    std::fs::write(&prev, std::fs::read(data(SNAPSHOT)).unwrap()).unwrap();
    assert_eq!(Engine::load_snapshot(&prev).unwrap().cached_queries(), 1);
    std::fs::write(&path, &v3).unwrap();
    assert!(refused(Engine::load_snapshot(&path)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_stream_replays_and_snapshot_retakes_byte_identically() {
    let snapshot = std::fs::read(data(SNAPSHOT)).unwrap();
    let replica = Engine::load_snapshot_bytes(&snapshot).unwrap();
    let golden = load_frames(FRAMES);
    // The recorded reply is the golden: the replica replays it without
    // estimating, and so does a fresh prepare of the same inputs.
    let (fresh, query) = uq1_engine();
    let restored = replica.prepare(&query).unwrap();
    assert_replays(&restored, goldens(SNAPSHOT)[0], SNAPSHOT);
    assert_eq!(restored.sample(N, SEED).unwrap().0, golden);
    assert_eq!(
        fresh.prepare(&query).unwrap().sample(N, SEED).unwrap().0,
        golden
    );

    // Re-taking reproduces the stored bytes.
    assert!(replica.snapshot_to_bytes().unwrap() == snapshot);
    assert!(fresh.snapshot_to_bytes().unwrap() == snapshot);
}

/// Each configuration's snapshot restores without estimating, serves
/// the summary and stream recorded before format 4 (as does a fresh
/// prepare), and re-takes to the stored bytes — from the replica and
/// from a fresh engine alike.
#[test]
fn rule_snapshots_load_replay_and_retake_byte_identically() {
    for ((file, _, queries), (_, fresh)) in rule_configs().into_iter().zip(rule_engines()) {
        let stored = std::fs::read(data(file)).unwrap();
        let replica = Engine::load_snapshot_bytes(&stored).unwrap();
        assert_eq!(replica.cached_queries(), queries.len(), "{file}");
        assert!(
            replica.snapshot_to_bytes().unwrap() == stored,
            "{file}: replica re-take"
        );
        assert!(
            fresh.snapshot_to_bytes().unwrap() == stored,
            "{file}: fresh take"
        );
        let goldens = goldens(file);
        assert_eq!(goldens.len(), queries.len(), "{file}");
        for (q, &golden) in queries.iter().zip(goldens) {
            let what = format!("{file}: {q:?}");
            assert_replays(&replica.prepare(q).unwrap(), golden, &what);
            let donor = fresh.prepare(q).unwrap();
            assert_eq!(donor.summary().to_string(), golden.0, "{what}");
            assert_eq!(checksum(&donor.sample(N, SEED).unwrap().0), golden.1);
        }
    }
}

/// Every opcode's stored frame verifies, decodes, and re-encodes from
/// its decoded value to the stored bytes; the `Prepare`d query replays
/// the recorded summary and batch on a replica of the default snapshot.
#[test]
fn every_opcode_frame_decodes_replays_and_reencodes() {
    use suj_net::protocol::*;
    let stored = std::fs::read(data(OPCODE_FRAMES)).unwrap();
    let mut wire = stored.as_slice();
    let mut frames = Vec::new();
    while !wire.is_empty() {
        frames.push(Frame::read_from(&mut wire).unwrap());
    }
    let opcodes: Vec<u16> = frames.iter().map(|f| f.opcode).collect();
    assert_eq!(
        opcodes,
        [
            OP_PREPARE,
            OP_PREPARED,
            OP_SAMPLE,
            OP_BATCH,
            OP_STATS,
            OP_STATS_REPLY,
            OP_BUSY,
            OP_ERROR,
            OP_SHUTDOWN,
            OP_SHUTDOWN_ACK
        ]
    );
    let payload = |k: usize| frames[k].payload.as_slice();

    let query: UnionQuery = decode_payload("Prepare", payload(0)).unwrap();
    assert_eq!(format!("{query:?}"), format!("{:?}", edges_query()));
    let prepared: PreparedPayload = decode_payload("Prepared", payload(1)).unwrap();
    let sample: SamplePayload = decode_payload("Sample", payload(2)).unwrap();
    assert_eq!(sample, (PREPARED_ID, N as u64, SEED, BUDGET_NS));
    let batch: Batch = decode_payload("Batch", payload(3)).unwrap();
    let (_, tuples) = decode_batch(payload(3)).unwrap();
    let stats: WireStats = decode_payload("Stats", payload(5)).unwrap();
    let busy: std::time::Duration = decode_payload("Busy", payload(6)).unwrap();
    let error: ErrorReply = decode_payload("Error", payload(7)).unwrap();

    let stored_replica = std::fs::read(data(RULES_DEFAULT)).unwrap();
    let replica = Engine::load_snapshot_bytes(&stored_replica).unwrap();
    let restored = replica.prepare(&query).unwrap();
    assert_eq!(restored.summary().to_string(), prepared.2);
    assert_eq!(restored.sample(N, SEED).unwrap().0, tuples);

    let reencoded = [
        query.to_bytes(),
        prepared.to_bytes(),
        sample.to_bytes(),
        batch.to_bytes(),
        Vec::new(),
        stats.to_bytes(),
        busy.to_bytes(),
        error.to_bytes(),
        Vec::new(),
        Vec::new(),
    ];
    let mut bytes = Vec::new();
    for (frame, payload) in frames.iter().zip(reencoded) {
        let frame = Frame {
            payload,
            ..frame.clone()
        };
        frame.write_to(&mut bytes).unwrap();
    }
    assert!(bytes == stored);
}
