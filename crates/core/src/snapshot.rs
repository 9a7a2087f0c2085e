//! Engine snapshot persistence: save and restore prepared artifacts.
//!
//! A cold replica should serve the first request without re-running
//! parameter estimation. [`Engine::save_snapshot`] persists the
//! catalog plus every cached prepared query — its declarative query,
//! root seed, the statistics its plan was decided over, and the
//! *estimator's overlap map* the freeze consulted — into the storage
//! layer's sectioned, checksummed container ([`suj_storage::snapshot`]).
//! [`Engine::load_snapshot`] rebuilds the catalog, re-resolves each
//! query, decides each plan again and re-freezes each pipeline
//! **consuming the restored map instead of estimating**: after a
//! restore,
//! [`PreparedQuery::estimations`](crate::catalog::PreparedQuery::estimations) is 0 and samples are bit-identical
//! to the donor engine's for the same root seed and request seed.
//!
//! # File format
//!
//! The container is the storage layer's: magic `SUJSNAP\0`, version,
//! section count, then per section a 16-byte header (`kind: u32`,
//! `len: u64`, `crc: u32`) and an 8-aligned payload. Every payload is
//! one value of the storage layer's [`Codec`], decoded by
//! [`Codec::from_bytes`] under its decoding rules (counts checked,
//! padding zero, flags 0 or 1, no bytes left over), so each engine
//! state has one byte string and a restored engine re-takes the bytes
//! it was restored from. This module adds three section kinds on top of
//! [`SECTION_RELATION`], each a `Codec` impl:
//!
//! | kind | payload |
//! |------|---------|
//! | 16 ([`SECTION_ENGINE_META`]) | [`PlannerConfig`]: engine format version `u32` (4), `f64` Bernoulli threshold (finite, `≥ 0`), use-statistics flag |
//! | 1 ([`SECTION_RELATION`]) | one relation, in catalog registration order |
//! | 17 ([`SECTION_PREPARED`]) | one [`PreparedEntry`]: entry id `u32`, query, root seed `u64`, optional `(f64` `|∪Jᵢ|` hint, `f64` slab of `|Jᵢ|` hints`)`, optional overlap map |
//! | 18 ([`SECTION_EW_ARENAS`]) | entry id `u32` of the prepared entry it belongs to, then its per-join Exact-Weight artifacts (count tables + alias arenas) |
//!
//! A plan is not stored: it is cheap to work out, so the restore works
//! it out again. The planner splits into a costly *gather* (the §5
//! histogram probe and the Exact-Weight samplers whose counts refine
//! it) and a pure *decide* over the workload's shape, the semantics,
//! the gathered [`WorkloadStats`] and the [`PlannerConfig`]. A prepare
//! runs both; a restore decodes the stored size hints, takes the base
//! row and join counts from the restored workload, and runs the same
//! decide (`Planner::decide`) — so a replica's plan, summary and
//! `EXPLAIN` equal the donor's, and a routing change needs no
//! compatibility shim. What the snapshot keeps is data and the two
//! costly artifacts: the overlap map and the Exact-Weight arenas. The
//! predicate mode is a function of the query. Prepared entries that did
//! not come through the engine (no source query, e.g.
//! [`PreparedQuery::auto`](crate::catalog::PreparedQuery::auto)) are
//! not persisted. Any other engine format version — format 3's plan
//! tags included — is refused by version before the rest is read.
//!
//! The restore checks what now drives a decision: a size hint or
//! threshold that is not a finite, non-negative number, a hint count
//! other than the workload's join count, and an overlap map stored for
//! a plan that consults none, missing for one that consults one, or
//! over another join count are all [`SnapshotError::Corrupt`].
//!
//! The overlap map is what the freeze asked its estimator for — the
//! restore path's substitute for estimation; join sizes are not stored
//! beside it, the freeze reads them from the revived samplers as it
//! does on a fresh prepare, and stamps the same `sizing=` label. A
//! pipeline that estimated nothing (one join per draw over exact-weight
//! members) stores no map. The map and the hints describe the workload
//! *after* any predicate push-down rewrite; restoring replays the
//! rewrite deterministically (it is the first stage of the one prepare
//! pipeline) and hands the map to the freeze as given.
//!
//! When every member sampler of a prepared entry is exact-weight, its
//! factorized count tables and alias arenas travel in a
//! [`SECTION_EW_ARENAS`] section carrying the entry's id (section
//! order is irrelevant). The restore revives the samplers from those
//! artifacts — validated slab-by-slab — so a restored replica performs
//! **zero** alias builds ([`suj_join::alias_builds`] is flat across a
//! restore) and serves draw streams bit-identical to the donor's.
//!
//! What a restore does, then: verify each section's CRC-32, decode the
//! relations, decode the artifacts, revive the samplers, decide each
//! plan, re-run the freeze over what was given. What it never does:
//! probe statistics, estimate, build an alias table, or — unless the
//! decided plan probes membership while drawing — build a membership
//! index ([`suj_join::membership_builds`] is flat across a default-plan
//! restore; the freeze indexes for the plans that need it).

use crate::catalog::{Catalog, Engine};
use crate::error::CoreError;
use crate::overlap::OverlapMap;
use crate::planner::{Planner, PlannerConfig, WorkloadStats};
use crate::query::UnionQuery;
use crate::session::{Given, Strategy};
use crate::workload::UnionWorkload;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use suj_join::{EwArtifacts, ExactWeightSampler, JoinSampler};
use suj_storage::snapshot::{
    read_sections, write_sections, ByteReader, ByteWriter, Codec, SECTION_RELATION,
};
use suj_storage::{FxHashMap, Relation, SnapshotError};

/// Section kind: engine metadata (format version + planner config).
pub const SECTION_ENGINE_META: u32 = 16;
/// Section kind: one serialized prepared-query entry.
pub const SECTION_PREPARED: u32 = 17;
/// Section kind: the Exact-Weight artifacts (count tables + alias
/// arenas) of the prepared entry whose id leads the payload.
pub const SECTION_EW_ARENAS: u32 = 18;
/// Version of the engine sections' encoding (independent of the
/// container version). Version 4 stores, per prepared entry, the
/// statistics its plan is decided over rather than the plan itself;
/// files of any other version are refused.
pub const ENGINE_FORMAT_VERSION: u32 = 4;

fn corrupt(what: &str, got: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt(format!("{what}: unexpected value {got}"))
}

/// The meta section: [`ENGINE_FORMAT_VERSION`], the Bernoulli
/// threshold, the use-statistics flag. Any other format version is
/// refused before the rest is read.
impl Codec for PlannerConfig {
    fn encode(&self, w: &mut ByteWriter) {
        ENGINE_FORMAT_VERSION.encode(w);
        self.bernoulli_max_overlap_ratio.encode(w);
        self.use_statistics.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match u32::decode(r)? {
            ENGINE_FORMAT_VERSION => {
                let ratio = f64::decode(r)?;
                if !finite_non_negative(ratio) {
                    return Err(corrupt("Bernoulli overlap-ratio threshold", ratio));
                }
                Ok(PlannerConfig {
                    bernoulli_max_overlap_ratio: ratio,
                    use_statistics: Codec::decode(r)?,
                })
            }
            format => Err(SnapshotError::UnsupportedVersion(format)),
        }
    }
}

/// The join count `n` as a `u32`, then all `2^n` sizes as one slab.
/// Entry 0 (the empty overlap) is identically 0 and is written anyway,
/// so the decode is one validated slab.
impl Codec for OverlapMap {
    fn encode(&self, w: &mut ByteWriter) {
        let n = self.n();
        (n as u32).encode(w);
        let sizes: Vec<f64> = (0..1u32 << n)
            .map(|mask| {
                if mask == 0 {
                    0.0
                } else {
                    self.overlap_mask(mask)
                }
            })
            .collect();
        sizes.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let n = u32::decode(r)? as usize;
        let sizes: Vec<f64> = r.get_slab()?;
        if sizes.first().is_some_and(|s| s.to_bits() != 0) {
            return Err(corrupt("empty-overlap size", sizes[0]));
        }
        OverlapMap::new(n, sizes)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid overlap map: {e}")))
    }
}

/// One [`SECTION_PREPARED`] payload: entry id, query, root seed, the
/// statistics the plan was decided over — `|∪Jᵢ|` and the per-join
/// `|Jᵢ|` hints, which exist together or not at all — and the overlap
/// map the freeze consulted (if any). A restore decides the plan again
/// from the statistics (`Planner::decide`), so the entry stores no
/// plan. The decode refuses a hint that is not a finite, non-negative
/// size; what the hints must match (the workload's join count) is
/// checked against the restored workload.
pub struct PreparedEntry {
    /// Pairs the entry with its [`SECTION_EW_ARENAS`] section.
    pub id: u32,
    /// The declarative query the entry was prepared from.
    pub query: UnionQuery,
    /// Root of the entry's per-handle stream derivation.
    pub root_seed: u64,
    /// `(|∪Jᵢ| hint, |Jᵢ| hints)`, when statistics were available.
    pub estimates: Option<(f64, Vec<f64>)>,
    /// The overlap map the freeze consulted, if any.
    pub map: Option<OverlapMap>,
}

impl Codec for PreparedEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.id.encode(w);
        self.query.encode(w);
        self.root_seed.encode(w);
        self.estimates.encode(w);
        self.map.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let id = Codec::decode(r)?;
        let query = Codec::decode(r)?;
        let root_seed = Codec::decode(r)?;
        let estimates: Option<(f64, Vec<f64>)> = Codec::decode(r)?;
        if let Some((union, hints)) = &estimates {
            if let Some(bad) = std::iter::once(union)
                .chain(hints)
                .find(|&&x| !finite_non_negative(x))
            {
                return Err(corrupt("size estimate", bad));
            }
        }
        Ok(Self {
            id,
            query,
            root_seed,
            estimates,
            map: Codec::decode(r)?,
        })
    }
}

/// Whether `x` can be a size or a ratio threshold.
fn finite_non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// One [`SECTION_EW_ARENAS`] payload: the id of the prepared entry it
/// belongs to, then its per-join Exact-Weight artifacts (`u32` count).
struct EwEntry {
    id: u32,
    artifacts: Vec<EwArtifacts>,
}

impl Codec for EwEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.id.encode(w);
        w.put_seq32(&self.artifacts);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: Codec::decode(r)?,
            artifacts: r.get_seq32()?,
        })
    }
}

// ---------------------------------------------------------------------
// Engine save / load
// ---------------------------------------------------------------------

/// Whether a failed load should try the `.prev` fallback: exactly the
/// storage layer's crash modes
/// ([`fallback_eligible`](suj_storage::snapshot::fallback_eligible)).
/// Non-snapshot errors (e.g. a query that no longer resolves) mean the
/// file decoded fine and the problem is semantic — fallback would only
/// mask it.
fn snapshot_fallback_eligible(e: &CoreError) -> bool {
    matches!(e, CoreError::Snapshot(s) if suj_storage::snapshot::fallback_eligible(s))
}

impl Engine {
    /// Serializes this engine — catalog relations plus every cached
    /// prepared query with the overlap map its freeze consulted — into
    /// the sectioned snapshot container.
    ///
    /// Prepared entries that did not come through the engine (no
    /// source query) are skipped; everything else restores via
    /// [`load_snapshot_bytes`](Self::load_snapshot_bytes) without
    /// re-estimating. Cache entries are written in fingerprint order,
    /// so the same engine state always produces the same bytes.
    pub fn snapshot_to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut sections = vec![(SECTION_ENGINE_META, self.planner().config().to_bytes())];
        for name in self.catalog().names() {
            sections.push((SECTION_RELATION, self.catalog().get(name)?.to_bytes()));
        }
        let mut id = 0u32;
        for (_fingerprint, prepared) in self.cached_entries() {
            let Some(query) = prepared.source_query() else {
                continue;
            };
            let stats = &prepared.plan().stats;
            let entry = PreparedEntry {
                id,
                query: query.clone(),
                root_seed: prepared.root_seed(),
                estimates: stats.union_size_hint.zip(stats.size_hints.clone()),
                map: prepared.overlap_map().cloned(),
            };
            sections.push((SECTION_PREPARED, entry.to_bytes()));
            // Exact-weight pipelines also persist their count tables
            // and alias arenas under the entry's id, so a restore
            // revives the samplers without rebuilding either.
            if let Some(artifacts) = prepared.ew_artifacts() {
                let entry = EwEntry { id, artifacts };
                sections.push((SECTION_EW_ARENAS, entry.to_bytes()));
            }
            id += 1;
        }
        Ok(write_sections(&sections))
    }

    /// [`snapshot_to_bytes`](Self::snapshot_to_bytes) written to a
    /// file; returns the bytes written.
    ///
    /// The write is crash-safe
    /// ([`atomic_replace`](suj_storage::snapshot::atomic_replace)):
    /// the bytes are staged at a temp path, fsynced, and atomically
    /// renamed into place, with the previous good snapshot preserved
    /// at `<path>.prev` — a kill at any instant leaves a loadable
    /// snapshot behind ([`load_snapshot`](Self::load_snapshot) falls
    /// back to `.prev` when the newest file is torn).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, CoreError> {
        let bytes = self.snapshot_to_bytes()?;
        suj_storage::snapshot::atomic_replace(path, &bytes).map_err(CoreError::Snapshot)
    }

    /// Restores an engine from a snapshot file: catalog, planner
    /// config, and every persisted prepared query — **without
    /// re-running parameter estimation** (each restored query reports
    /// [`estimations`](crate::catalog::PreparedQuery::estimations)` == 0`). The measured restore
    /// cost (snapshot size + wall time) is stamped into every report
    /// the restored queries mint.
    /// When the newest snapshot is missing, truncated, or corrupt, the
    /// load falls back to the previous good snapshot that
    /// [`save_snapshot`](Self::save_snapshot) preserved at
    /// `<path>.prev` (an unsupported format version does *not* fall
    /// back — serving stale data would mask a deployment mismatch).
    /// Only if both fail is the original error returned.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Engine, CoreError> {
        let start = Instant::now();
        let path = path.as_ref();
        let primary = std::fs::read(path)
            .map_err(|e| CoreError::Snapshot(SnapshotError::Io(e.to_string())))
            .and_then(|bytes| Self::load_snapshot_bytes_from(&bytes, start));
        match primary {
            Ok(engine) => Ok(engine),
            Err(e) if snapshot_fallback_eligible(&e) => {
                let prev = suj_storage::snapshot::snapshot_prev_path(path);
                match std::fs::read(prev)
                    .ok()
                    .and_then(|bytes| Self::load_snapshot_bytes_from(&bytes, start).ok())
                {
                    Some(engine) => Ok(engine),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// [`load_snapshot`](Self::load_snapshot) over an in-memory buffer.
    pub fn load_snapshot_bytes(bytes: &[u8]) -> Result<Engine, CoreError> {
        Self::load_snapshot_bytes_from(bytes, Instant::now())
    }

    /// [`load_snapshot`](Self::load_snapshot) over an in-memory
    /// buffer, with the restore clock started at `start`.
    fn load_snapshot_bytes_from(bytes: &[u8], start: Instant) -> Result<Engine, CoreError> {
        let sections = read_sections(bytes)?;
        let mut iter = sections.into_iter();

        let Some((SECTION_ENGINE_META, meta)) = iter.next() else {
            return Err(CoreError::Snapshot(SnapshotError::Corrupt(
                "engine snapshot must start with a meta section".into(),
            )));
        };
        let planner_config = PlannerConfig::from_bytes(meta)?;

        let mut catalog = Catalog::new();
        let mut prepared: Vec<PreparedEntry> = Vec::new();
        let mut arenas: FxHashMap<u32, Vec<EwArtifacts>> = FxHashMap::default();
        for (kind, payload) in iter {
            match kind {
                SECTION_RELATION => {
                    catalog.register_arc(Arc::new(Relation::from_bytes(payload)?))?;
                }
                SECTION_PREPARED => {
                    let entry = PreparedEntry::from_bytes(payload)?;
                    if prepared.iter().any(|other| other.id == entry.id) {
                        return Err(CoreError::Snapshot(corrupt(
                            "duplicate prepared id",
                            entry.id,
                        )));
                    }
                    prepared.push(entry);
                }
                SECTION_EW_ARENAS => {
                    let EwEntry { id, artifacts } = EwEntry::from_bytes(payload)?;
                    if arenas.insert(id, artifacts).is_some() {
                        return Err(CoreError::Snapshot(corrupt("duplicate EW arenas id", id)));
                    }
                }
                other => {
                    return Err(CoreError::Snapshot(SnapshotError::Corrupt(format!(
                        "unknown engine section kind {other}"
                    ))))
                }
            }
        }

        let engine = Engine::with_planner(catalog, Planner::new(planner_config));
        let snapshot_bytes = bytes.len() as u64;
        for entry in prepared {
            let PreparedEntry {
                id,
                query,
                root_seed,
                estimates,
                map,
            } = entry;
            let artifacts = arenas.remove(&id);
            // The one prepare pipeline, deciding the plan over the
            // stored statistics instead of probed ones, with everything
            // already computed for the rewritten workload given.
            let restored = engine.prepare_via(&query, root_seed, |workload, semantics| {
                let n = workload.n_joins();
                let (union_size_hint, size_hints) = estimates.unzip();
                if let Some(hints) = size_hints.as_ref().filter(|h| h.len() != n) {
                    let problem = format!("{} size hints for {n} joins", hints.len());
                    return Err(CoreError::Snapshot(SnapshotError::Corrupt(problem)));
                }
                let stats = WorkloadStats {
                    size_hints,
                    union_size_hint,
                    ..WorkloadStats::unavailable(workload)
                };
                let plan = engine.planner().decide(workload, semantics, stats);
                // Only Algorithm 1 consults a map, over every join; its
                // freeze would estimate a missing one silently.
                let expected = matches!(plan.strategy, Strategy::Rejection(_)).then_some(n);
                let stored = map.as_ref().map(OverlapMap::n);
                if stored != expected {
                    let problem = format!(
                        "an overlap map over {stored:?} joins where a {} plan reads {expected:?}",
                        plan.strategy
                    );
                    return Err(CoreError::Snapshot(SnapshotError::Corrupt(problem)));
                }
                let given = Given {
                    map,
                    samplers: artifacts.map(|a| revive(workload, a)).transpose()?,
                    restore: Some((snapshot_bytes, start)),
                };
                Ok((plan, given))
            })?;
            engine.install_prepared(&query, Arc::new(restored));
        }
        if let Some(id) = arenas.keys().next() {
            return Err(CoreError::Snapshot(corrupt(
                "EW arenas for an absent prepared entry",
                id,
            )));
        }
        Ok(engine)
    }
}

/// Revives the per-join Exact-Weight samplers of `workload` from
/// persisted artifacts — no count recomputation, no alias build;
/// `from_artifacts` validates every shape against the join spec before
/// anything is served from them.
fn revive(
    workload: &UnionWorkload,
    artifacts: Vec<EwArtifacts>,
) -> Result<Vec<Arc<dyn JoinSampler>>, CoreError> {
    if artifacts.len() != workload.n_joins() {
        return Err(CoreError::Invalid(format!(
            "restored EW artifacts cover {} joins but the workload has {}",
            artifacts.len(),
            workload.n_joins()
        )));
    }
    workload
        .joins()
        .iter()
        .cloned()
        .zip(artifacts)
        .map(|(spec, art)| {
            ExactWeightSampler::from_artifacts(spec, art)
                .map(|s| Arc::new(s) as Arc<dyn JoinSampler>)
                .map_err(CoreError::Join)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate_mode::PredicateMode;
    use crate::report::RunReport;
    use suj_storage::{CompareOp, Predicate, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn shop_engine() -> Engine {
        let mut c = Catalog::new();
        c.register(rel(
            "a_items",
            &["sku", "cat"],
            vec![vec![1, 7], vec![2, 7], vec![3, 9]],
        ))
        .unwrap();
        c.register(rel(
            "a_sales",
            &["sale", "sku"],
            vec![vec![100, 1], vec![101, 1], vec![102, 2]],
        ))
        .unwrap();
        c.register(rel(
            "b_items",
            &["sku", "cat"],
            vec![vec![1, 7], vec![5, 9]],
        ))
        .unwrap();
        c.register(rel(
            "b_sales",
            &["sale", "sku"],
            vec![vec![100, 1], vec![200, 5]],
        ))
        .unwrap();
        Engine::new(c)
    }

    /// The sections of a snapshot, owned, so a test can patch one.
    fn owned_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
        read_sections(bytes)
            .unwrap()
            .into_iter()
            .map(|(kind, payload)| (kind, payload.to_vec()))
            .collect()
    }

    fn shop_query() -> UnionQuery {
        UnionQuery::set_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap()
    }

    #[test]
    fn query_codec_round_trip_preserves_debug_identity() {
        let queries = vec![
            shop_query(),
            UnionQuery::disjoint_union()
                .chain("only_a", ["a_items", "a_sales"])
                .unwrap(),
            shop_query().predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7))),
            shop_query()
                .predicate(Predicate::cmp("cat", CompareOp::Gt, Value::int(1)))
                .predicate_mode(PredicateMode::Reject),
        ];
        for q in queries {
            let bytes = q.to_bytes();
            let restored = UnionQuery::from_bytes(&bytes).unwrap();
            // Fingerprint stability: Debug formatting must coincide.
            assert_eq!(format!("{q:?}"), format!("{restored:?}"));
            assert_eq!(restored.to_bytes(), bytes);
        }
    }

    #[test]
    fn engine_round_trip_restores_catalog_and_planner() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored = Engine::load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.catalog().len(), engine.catalog().len());
        let names: Vec<&str> = restored.catalog().names().collect();
        assert_eq!(names, vec!["a_items", "a_sales", "b_items", "b_sales"]);
        assert_eq!(
            restored.catalog().total_rows(),
            engine.catalog().total_rows()
        );
        assert_eq!(restored.cached_queries(), 1);
    }

    #[test]
    fn restored_queries_skip_estimation_and_replay_samples() {
        let engine = shop_engine();
        let original = engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&shop_query()).unwrap();
        // The restore installed the entry in the cache: prepare() was a
        // cache hit and paid no estimation.
        assert_eq!(
            restored.estimations(),
            0,
            "restore must not re-run estimation"
        );
        let mut reports = (RunReport::default(), RunReport::default());
        for seed in [0u64, 7, 41] {
            let (a, donor) = original.sample(10, seed).unwrap();
            let (b, replica) = restored.sample(10, seed).unwrap();
            assert_eq!(a, b, "seed {seed} diverged after restore");
            reports.0.merge(&donor);
            reports.1.merge(&replica);
        }
        // Restore cost is stamped into reports.
        let report = &reports.1;
        assert_eq!(report.snapshot_bytes, bytes.len() as u64);
        assert!(report.restore_time > std::time::Duration::ZERO);
        assert!(report.summary().contains("snapshot_bytes="));
        // The donor never carried a restore cost.
        assert_eq!(reports.0.snapshot_bytes, 0);
    }

    #[test]
    fn pushed_down_predicate_survives_restore() {
        let engine = shop_engine();
        let q = shop_query().predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7)));
        let original = engine.prepare(&q).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&q).unwrap();
        assert_eq!(restored.estimations(), 0);
        let (a, _) = original.sample(12, 3).unwrap();
        let (b, _) = restored.sample(12, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disjoint_semantics_survive_restore() {
        let engine = shop_engine();
        let q = UnionQuery::disjoint_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap();
        let original = engine.prepare(&q).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&q).unwrap();
        assert_eq!(restored.estimations(), 0);
        let (a, _) = original.sample(9, 5).unwrap();
        let (b, _) = restored.sample(9, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_and_load_via_file() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let dir = std::env::temp_dir().join("suj_core_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        let written = engine.save_snapshot(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let restored = Engine::load_snapshot(&path).unwrap();
        assert_eq!(restored.cached_queries(), 1);
        let prepared = restored.prepare(&shop_query()).unwrap();
        assert_eq!(prepared.estimations(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_previous_good_one() {
        let dir = std::env::temp_dir().join("suj_core_snapshot_fallback_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_prev_path(&path)).ok();

        // Snapshot v1: one prepared query.
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        engine.save_snapshot(&path).unwrap();
        // Snapshot v2: two prepared queries; v1 survives as `.prev`.
        engine
            .prepare(
                &UnionQuery::set_union()
                    .chain("only_a", ["a_items", "a_sales"])
                    .unwrap(),
            )
            .unwrap();
        engine.save_snapshot(&path).unwrap();
        assert!(suj_storage::snapshot::snapshot_prev_path(&path).exists());
        assert_eq!(Engine::load_snapshot(&path).unwrap().cached_queries(), 2);

        // Kill-mid-write simulation: the newest file is torn.
        let v2 = std::fs::read(&path).unwrap();
        std::fs::write(&path, &v2[..v2.len() / 2]).unwrap();
        let fallback = Engine::load_snapshot(&path).unwrap();
        assert_eq!(
            fallback.cached_queries(),
            1,
            "torn newest snapshot must fall back to the previous good one"
        );
        // A torn staging file never affects the load.
        std::fs::write(suj_storage::snapshot::snapshot_tmp_path(&path), b"junk").unwrap();
        assert_eq!(Engine::load_snapshot(&path).unwrap().cached_queries(), 1);

        // Both generations bad: the original (primary) error surfaces.
        std::fs::write(suj_storage::snapshot::snapshot_prev_path(&path), b"junk").unwrap();
        assert!(matches!(
            Engine::load_snapshot(&path),
            Err(CoreError::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_prev_path(&path)).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_tmp_path(&path)).ok();
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let make = || {
            let engine = shop_engine();
            engine.prepare(&shop_query()).unwrap();
            engine
                .prepare(
                    &UnionQuery::set_union()
                        .chain("only_a", ["a_items", "a_sales"])
                        .unwrap(),
                )
                .unwrap();
            engine.snapshot_to_bytes().unwrap()
        };
        assert_eq!(make(), make(), "same state must serialize identically");
    }

    #[test]
    fn corrupted_engine_snapshots_fail_with_named_errors() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        // Truncation at every prefix must error, never panic.
        for cut in [0, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Engine::load_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // A flipped payload byte breaks a checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        match Engine::load_snapshot_bytes(&bad) {
            Err(CoreError::Snapshot(
                SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated,
            )) => {}
            other => panic!("expected checksum/truncated error, got {other:?}"),
        }
        // A wrong magic is named.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Engine::load_snapshot_bytes(&bad),
            Err(CoreError::Snapshot(SnapshotError::BadMagic))
        ));
    }

    #[test]
    fn other_engine_format_versions_are_refused_by_name() {
        // A snapshot from before the plan/arena layout changed (engine
        // format 1) must be refused up front, never half-decoded.
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let mut sections = owned_sections(&engine.snapshot_to_bytes().unwrap());
        assert_eq!(sections[0].0, SECTION_ENGINE_META);
        sections[0].1[..4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Engine::load_snapshot_bytes(&write_sections(&sections)),
            Err(CoreError::Snapshot(SnapshotError::UnsupportedVersion(1)))
        ));
    }

    #[test]
    fn a_map_over_another_join_count_is_corrupt_not_a_panic() {
        // The entry re-encoded with a one-join map in place of its own:
        // selection would index the map by join.
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let mut sections = owned_sections(&engine.snapshot_to_bytes().unwrap());
        let slot = sections
            .iter_mut()
            .find(|(kind, _)| *kind == SECTION_PREPARED)
            .unwrap();
        let entry = PreparedEntry {
            map: Some(OverlapMap::new(1, vec![0.0, 3.0]).unwrap()),
            ..PreparedEntry::from_bytes(&slot.1).unwrap()
        };
        slot.1 = entry.to_bytes();
        assert!(matches!(
            Engine::load_snapshot_bytes(&write_sections(&sections)),
            Err(CoreError::Snapshot(SnapshotError::Corrupt(_)))
        ));
    }

    #[test]
    fn empty_cache_snapshot_restores_catalog_only() {
        let engine = shop_engine();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored = Engine::load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.cached_queries(), 0);
        assert_eq!(restored.catalog().len(), 4);
        // The restored replica can still prepare from scratch.
        assert!(restored.prepare(&shop_query()).is_ok());
    }
}
