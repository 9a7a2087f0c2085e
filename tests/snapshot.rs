//! Engine snapshot files: corrupted, truncated, or wrong-version files
//! always fail with a named [`SnapshotError`] — never a panic — and a
//! crash at any instant leaves a loadable generation behind. What each
//! section's payload decodes to is `tests/codec.rs`'s totality
//! property.

use proptest::prelude::*;
use std::sync::OnceLock;
use suj_core::catalog::{Catalog, Engine};
use suj_core::query::UnionQuery;
use suj_core::CoreError;
use suj_storage::snapshot::{read_sections, write_sections, Codec};
use suj_storage::{Relation, Schema, SnapshotError, Tuple, Value};

// ---------------------------------------------------------------------
// Deterministic edge cases the random sweeps don't pin precisely.
// ---------------------------------------------------------------------

/// The container-level failures, seen through both readers of the
/// container: the section parser and the engine loader on top of it.
fn container_error(bytes: &[u8]) -> SnapshotError {
    let parsed = read_sections(bytes).unwrap_err();
    match Engine::load_snapshot_bytes(bytes) {
        Err(CoreError::Snapshot(loaded)) => assert_eq!(loaded, parsed),
        other => panic!("engine load must fail like the parser ({parsed:?}), got {other:?}"),
    }
    parsed
}

#[test]
fn wrong_version_fails_with_unsupported_version() {
    let mut bytes = engine_snapshot_bytes().to_vec();
    // Layout: 8-byte magic, then the u32 format version.
    bytes[8] = 99;
    assert_eq!(
        container_error(&bytes),
        SnapshotError::UnsupportedVersion(99)
    );
}

#[test]
fn flipped_magic_fails_with_bad_magic() {
    let mut bytes = engine_snapshot_bytes().to_vec();
    bytes[0] ^= 0xff;
    assert_eq!(container_error(&bytes), SnapshotError::BadMagic);
}

#[test]
fn empty_file_fails_with_named_error() {
    // An empty file has no magic to speak of; either structural error
    // is acceptable, a panic is not.
    assert!(matches!(
        container_error(&[]),
        SnapshotError::BadMagic | SnapshotError::Truncated
    ));
}

#[test]
fn trailing_bytes_fail_as_corrupt() {
    // A corrupted section count would otherwise drop sections silently.
    let mut bytes = engine_snapshot_bytes().to_vec();
    bytes.extend_from_slice(&[0; 8]);
    assert!(matches!(container_error(&bytes), SnapshotError::Corrupt(_)));
}

// ---------------------------------------------------------------------
// Engine-level snapshots: random corruption of a full engine snapshot
// (catalog + prepared cache) never panics either.
// ---------------------------------------------------------------------

fn small_engine() -> Engine {
    let schema_r = Schema::new(["a", "b"]).unwrap();
    let schema_s = Schema::new(["b", "c"]).unwrap();
    let rows = |k: i64| {
        (0..20)
            .map(|i| Tuple::new(vec![Value::int(i % 7), Value::int((i * k) % 5)]))
            .collect()
    };
    let mut catalog = Catalog::new();
    catalog
        .register(Relation::new("r", schema_r, rows(3)).unwrap())
        .unwrap();
    catalog
        .register(Relation::new("s", schema_s, rows(2)).unwrap())
        .unwrap();
    let engine = Engine::new(catalog);
    let query = UnionQuery::set_union().chain("q", ["r", "s"]).unwrap();
    engine.prepare(&query).unwrap();
    engine
}

fn engine_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| small_engine().snapshot_to_bytes().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Single-byte corruption of an engine snapshot (catalog +
    /// prepared-query cache) is always either rejected with a named
    /// error or restores an engine with the original catalog.
    #[test]
    fn corrupted_engine_snapshots_never_panic(
        flip_seed in 0usize..100_000,
        flip_bit in 0u8..8,
    ) {
        let bytes = engine_snapshot_bytes();
        let mut corrupted = bytes.to_vec();
        let pos = flip_seed % corrupted.len();
        corrupted[pos] ^= 1 << flip_bit;
        match Engine::load_snapshot_bytes(&corrupted) {
            Err(_) => {}
            Ok(engine) => {
                let names: Vec<&str> = engine.catalog().names().collect();
                prop_assert_eq!(names, vec!["r", "s"]);
            }
        }
    }

    /// Truncating an engine snapshot anywhere fails with a named
    /// error.
    #[test]
    fn truncated_engine_snapshots_fail(cut_seed in 0usize..100_000) {
        let bytes = engine_snapshot_bytes();
        let cut = cut_seed % bytes.len();
        prop_assert!(Engine::load_snapshot_bytes(&bytes[..cut]).is_err());
    }
}

// ---------------------------------------------------------------------
// Exact-weight alias arenas ride in their own section (kind 18),
// paired by entry id with the prepared entry they belong to.
// ---------------------------------------------------------------------

use suj_core::snapshot::{SECTION_EW_ARENAS, SECTION_PREPARED};

/// Byte span `(offset, len)` of the EW arenas payload inside the
/// engine snapshot, located via the payload slice's position in the
/// original buffer.
fn ew_arena_span() -> (usize, usize) {
    let bytes = engine_snapshot_bytes();
    let sections = read_sections(bytes).unwrap();
    let payload = sections
        .iter()
        .find(|(kind, _)| *kind == SECTION_EW_ARENAS)
        .map(|(_, payload)| *payload)
        .expect("acyclic prepared query must persist an EW arenas section");
    let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    (offset, payload.len())
}

/// Entry id leading a prepared or arenas payload.
fn entry_id(payload: &[u8]) -> u32 {
    u32::from_le_bytes(payload[..4].try_into().unwrap())
}

/// An acyclic prepared query persists its count tables + alias arenas
/// as a `SECTION_EW_ARENAS` entry carrying the id of its prepared
/// section — the pairing the restore path depends on. Section order
/// carries no meaning: a shuffled file restores the same engine, and
/// arenas naming no prepared entry are corruption, never a mis-pairing.
#[test]
fn engine_snapshots_carry_ew_arena_sections() {
    let engine = small_engine();
    let second = UnionQuery::set_union().chain("q2", ["s", "r"]).unwrap();
    engine.prepare(&second).unwrap();
    let bytes = engine.snapshot_to_bytes().unwrap();
    let sections = read_sections(&bytes).unwrap();
    let ids = |kind: u32| -> Vec<u32> {
        sections
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, payload)| entry_id(payload))
            .collect()
    };
    assert_eq!(ids(SECTION_PREPARED), vec![0, 1]);
    assert_eq!(ids(SECTION_EW_ARENAS), vec![0, 1], "one per prepared entry");
    let (_, len) = ew_arena_span();
    assert!(len > 4, "arena payload must hold more than its id");

    // Arenas first, in reverse: pairing is by id, so nothing changes.
    let mut shuffled: Vec<(u32, Vec<u8>)> = sections
        .iter()
        .map(|(kind, payload)| (*kind, payload.to_vec()))
        .collect();
    shuffled.sort_by_key(|(kind, payload)| match *kind {
        SECTION_EW_ARENAS => (1, u32::MAX - entry_id(payload)),
        SECTION_PREPARED => (2, entry_id(payload)),
        _ => (0, 0),
    });
    let replica = Engine::load_snapshot_bytes(&write_sections(&shuffled)).unwrap();
    for query in [
        UnionQuery::set_union().chain("q", ["r", "s"]).unwrap(),
        second,
    ] {
        let donor = engine.prepare(&query).unwrap();
        let restored = replica.prepare(&query).unwrap();
        assert_eq!(restored.estimations(), 0);
        assert_eq!(
            restored.sample(32, 5).unwrap().0,
            donor.sample(32, 5).unwrap().0
        );
    }

    // An arenas section whose id names no prepared entry.
    let mut orphaned = shuffled.clone();
    let arenas = orphaned
        .iter_mut()
        .find(|(kind, _)| *kind == SECTION_EW_ARENAS)
        .unwrap();
    arenas.1[..4].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Engine::load_snapshot_bytes(&write_sections(&orphaned)),
        Err(CoreError::Snapshot(SnapshotError::Corrupt(_)))
    ));
}

/// Restoring an engine snapshot and re-snapshotting it reproduces the
/// exact original bytes, alias arenas included: the restored samplers
/// hold bit-identical count tables and arena slabs, and the section
/// writer is deterministic (fingerprint order).
#[test]
fn engine_snapshot_round_trip_is_bit_identical_with_arenas() {
    let bytes = engine_snapshot_bytes();
    let restored = Engine::load_snapshot_bytes(bytes).unwrap();
    let again = restored.snapshot_to_bytes().unwrap();
    assert_eq!(
        again, bytes,
        "re-snapshotting a restored engine must be bit-identical"
    );
}

/// Engine format 4 keeps format 3's meta layout: the two planner
/// settings a deployment can change. A file whose meta section is laid
/// out as format 2 wrote it (four planner fields) is refused by its
/// version, before any of it is decoded under the new layout.
#[test]
fn format_2_engine_files_are_refused_by_version() {
    use suj_core::snapshot::SECTION_ENGINE_META;
    let mut sections = owned_sections(engine_snapshot_bytes());
    let (kind, meta) = &mut sections[0];
    assert_eq!(*kind, SECTION_ENGINE_META);
    // Version, Bernoulli threshold, use-statistics flag.
    assert_eq!(meta.len(), 4 + 8 + 1);
    assert_eq!(meta[..4], 4u32.to_le_bytes());

    *meta = ((2u32, 1.25f64), (512u64, 8.0f64, true)).to_bytes();
    assert!(matches!(
        Engine::load_snapshot_bytes(&write_sections(&sections)),
        Err(CoreError::Snapshot(SnapshotError::UnsupportedVersion(2)))
    ));
}

// ---------------------------------------------------------------------
// A restore decides each plan again from what the entry stores, so what
// drives that decision is validated: each payload below is hand-built
// from a good one and must be refused as corrupt.
// ---------------------------------------------------------------------

use suj_core::overlap::OverlapMap;
use suj_core::snapshot::PreparedEntry;

fn owned_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let sections = read_sections(bytes).unwrap();
    sections.into_iter().map(|(k, p)| (k, p.to_vec())).collect()
}

/// `bytes` with its first prepared entry replaced by `edit` of it.
fn with_entry(bytes: &[u8], edit: impl FnOnce(&mut PreparedEntry)) -> Vec<u8> {
    let mut sections = owned_sections(bytes);
    let (_, payload) = sections
        .iter_mut()
        .find(|(kind, _)| *kind == SECTION_PREPARED)
        .unwrap();
    let mut entry = PreparedEntry::from_bytes(payload).unwrap();
    edit(&mut entry);
    *payload = entry.to_bytes();
    write_sections(&sections)
}

#[track_caller]
fn assert_corrupt(bytes: &[u8]) {
    match Engine::load_snapshot_bytes(bytes) {
        Err(CoreError::Snapshot(SnapshotError::Corrupt(_))) => {}
        other => panic!("expected a corrupt snapshot, got {:?}", other.map(|_| ())),
    }
}

/// The small engine's two joins taken twice over (`r ⋈ s` and
/// `s ⋈ r`): total overlap, so the `high-overlap` rule decides
/// Algorithm 1, whose freeze consults the stored overlap map.
fn overlap_snapshot_bytes() -> Vec<u8> {
    let engine = small_engine();
    let query = UnionQuery::set_union()
        .chain("q", ["r", "s"])
        .unwrap()
        .chain("q2", ["s", "r"])
        .unwrap();
    let prepared = engine.prepare(&query).unwrap();
    assert_eq!(prepared.summary().rule, Some("high-overlap"));
    let bytes = engine.snapshot_to_bytes().unwrap();
    let replica = Engine::load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(replica.prepare(&query).unwrap().estimations(), 0);
    bytes
}

#[test]
fn a_hint_count_other_than_the_join_count_is_corrupt() {
    let one_join = engine_snapshot_bytes();
    assert_corrupt(&with_entry(one_join, |e| {
        e.estimates.as_mut().unwrap().1.push(3.0)
    }));
    assert_corrupt(&with_entry(&overlap_snapshot_bytes(), |e| {
        e.estimates.as_mut().unwrap().1.pop();
    }));
}

#[test]
fn a_non_finite_or_negative_estimate_is_corrupt() {
    let bytes = engine_snapshot_bytes();
    assert!(Engine::load_snapshot_bytes(&with_entry(bytes, |e| {
        e.estimates.as_mut().unwrap().0 = 0.0
    }))
    .is_ok());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        assert_corrupt(&with_entry(bytes, |e| {
            e.estimates.as_mut().unwrap().0 = bad
        }));
        assert_corrupt(&with_entry(bytes, |e| {
            e.estimates.as_mut().unwrap().1[0] = bad
        }));
    }
}

#[test]
fn a_non_finite_or_negative_threshold_is_corrupt() {
    let with_threshold = |threshold: f64| {
        let mut sections = owned_sections(engine_snapshot_bytes());
        sections[0].1[4..12].copy_from_slice(&threshold.to_le_bytes());
        write_sections(&sections)
    };
    assert!(Engine::load_snapshot_bytes(&with_threshold(0.0)).is_ok());
    for bad in [f64::NAN, f64::INFINITY, -0.5] {
        assert_corrupt(&with_threshold(bad));
    }
}

/// A stored map must be exactly the one the decided plan consults: a
/// missing one would make the freeze estimate silently, a surplus or a
/// mis-sized one means the entry is not what its plan reads.
#[test]
fn a_stored_map_must_match_the_decided_plan() {
    let one_join_map = || Some(OverlapMap::new(1, vec![0.0, 3.0]).unwrap());
    // The small engine's single join decides one join per draw: no map.
    assert_corrupt(&with_entry(engine_snapshot_bytes(), |e| {
        e.map = one_join_map()
    }));
    let overlap = overlap_snapshot_bytes();
    assert_corrupt(&with_entry(&overlap, |e| e.map = None));
    assert_corrupt(&with_entry(&overlap, |e| e.map = one_join_map()));
}

// ---------------------------------------------------------------------
// Crash-safe on-disk protocol: temp-file staging, atomic rename, and
// fallback to the previous generation.
// ---------------------------------------------------------------------

/// A scratch snapshot path (plus its `.tmp`/`.prev` siblings), cleaned
/// up on drop so reruns start fresh.
struct SnapDir {
    path: std::path::PathBuf,
}

impl SnapDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join("suj_snapshot_crash_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let this = SnapDir { path };
        this.clean();
        this
    }

    fn clean(&self) {
        std::fs::remove_file(&self.path).ok();
        std::fs::remove_file(snapshot_prev_path(&self.path)).ok();
        std::fs::remove_file(snapshot_tmp_path(&self.path)).ok();
    }
}

impl Drop for SnapDir {
    fn drop(&mut self) {
        self.clean();
    }
}

use suj_storage::snapshot::{snapshot_prev_path, snapshot_tmp_path};

/// Builds the two-generation fixture: generation 1 (one prepared
/// query) lives in `.prev`, generation 2 (two prepared queries) is the
/// main file. Returns the engine and the main file's bytes.
fn two_generations(scratch: &SnapDir) -> (Engine, Vec<u8>) {
    let engine = small_engine();
    engine.save_snapshot(&scratch.path).unwrap();
    let second = UnionQuery::set_union().chain("q2", ["s", "r"]).unwrap();
    engine.prepare(&second).unwrap();
    engine.save_snapshot(&scratch.path).unwrap();
    assert!(
        snapshot_prev_path(&scratch.path).exists(),
        "saving twice must keep the previous generation"
    );
    let v2 = std::fs::read(&scratch.path).unwrap();
    (engine, v2)
}

/// A crash while writing the staging file leaves the previous
/// generation untouched: for every prefix length of the new bytes left
/// in `.tmp`, the main file still loads the newest good generation.
#[test]
fn kill_mid_tmp_write_never_affects_the_main_snapshot() {
    let scratch = SnapDir::new("tmp_torn.snap");
    let (_engine, v2) = two_generations(&scratch);
    let tmp = snapshot_tmp_path(&scratch.path);
    // Sweep every prefix (bounded stride keeps the sweep exhaustive
    // for small snapshots and fast for large ones), plus the exact
    // boundary cases.
    let stride = (v2.len() / 512).max(1);
    let cuts = (0..v2.len()).step_by(stride).chain([0, 1, v2.len() - 1]);
    for cut in cuts {
        std::fs::write(&tmp, &v2[..cut]).unwrap();
        let restored = Engine::load_snapshot(&scratch.path).unwrap();
        assert_eq!(restored.cached_queries(), 2, "cut {cut}");
    }
}

/// A torn main file (crash mid-overwrite, disk corruption) falls back
/// to the previous generation for every possible truncation point.
#[test]
fn torn_main_snapshot_falls_back_at_every_prefix() {
    let scratch = SnapDir::new("main_torn.snap");
    let (_engine, v2) = two_generations(&scratch);
    let stride = (v2.len() / 512).max(1);
    let cuts = (0..v2.len()).step_by(stride).chain([0, 1, v2.len() - 1]);
    for cut in cuts {
        std::fs::write(&scratch.path, &v2[..cut]).unwrap();
        let restored = Engine::load_snapshot(&scratch.path)
            .unwrap_or_else(|e| panic!("cut {cut}: no fallback ({e})"));
        assert_eq!(
            restored.cached_queries(),
            1,
            "cut {cut} must restore the previous generation"
        );
    }
    // Restore the intact main file: the newest generation wins again.
    std::fs::write(&scratch.path, &v2).unwrap();
    assert_eq!(
        Engine::load_snapshot(&scratch.path)
            .unwrap()
            .cached_queries(),
        2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Single-byte corruption of the main file with an intact `.prev`:
    /// the load must succeed — either the flip was benign (newest
    /// generation) or the fallback kicks in (previous generation). The
    /// only acceptable failure is a version-field flip, which is
    /// deliberately not eligible for fallback (a deployment mismatch
    /// must not silently serve stale data).
    #[test]
    fn corrupted_main_with_good_prev_always_recovers(
        flip_seed in 0usize..100_000,
        flip_bit in 0u8..8,
    ) {
        let scratch = SnapDir::new(&format!("flip_{flip_seed}_{flip_bit}.snap"));
        let (_engine, v2) = two_generations(&scratch);
        let mut corrupted = v2.clone();
        let pos = flip_seed % corrupted.len();
        corrupted[pos] ^= 1 << flip_bit;
        std::fs::write(&scratch.path, &corrupted).unwrap();
        match Engine::load_snapshot(&scratch.path) {
            Ok(engine) => {
                let queries = engine.cached_queries();
                prop_assert!(
                    queries == 1 || queries == 2,
                    "flip at {} restored {} prepared queries",
                    pos,
                    queries
                );
                let names: Vec<&str> = engine.catalog().names().collect();
                prop_assert_eq!(names, vec!["r", "s"]);
            }
            Err(e) => {
                // Only an unsupported-version rejection may refuse the
                // fallback.
                prop_assert!(
                    e.to_string().contains("version"),
                    "flip at {} failed with non-version error: {}",
                    pos,
                    e
                );
            }
        }
    }
}
