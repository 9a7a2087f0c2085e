//! The serving entry point: a relation [`Catalog`], the planning
//! [`Engine`], and shareable [`PreparedQuery`] plans.
//!
//! This is the declarative counterpart to
//! [`SamplerBuilder`](crate::session::SamplerBuilder): register
//! relations once (in memory, from CSV, or imported from a generated
//! catalog), describe a [`UnionQuery`] by relation *name*, and let the
//! engine's [`Planner`] pick the configuration: the strategy (for
//! Algorithm 1, with its estimator and cover), the weights and the
//! predicate mode.
//!
//! # Concurrency model
//!
//! `Engine` and `PreparedQuery` are `Send + Sync` and designed for
//! serving:
//!
//! * [`Engine::prepare`] returns an `Arc<PreparedQuery>` from a
//!   fingerprint-keyed cache — concurrent `prepare` calls for the same
//!   query against the same catalog snapshot pay planning + parameter
//!   estimation exactly once and share the result.
//! * A `PreparedQuery` is an immutable plan: frozen estimator state and
//!   shared per-join samplers. It mints any number of independent
//!   `Send` sampler handles via [`PreparedQuery::sampler`]; each handle
//!   is its own i.i.d. sampling process, so threads never contend.
//! * Determinism: a handle's output depends only on the frozen state
//!   and the RNG stream it is driven with. [`PreparedQuery::sample`]
//!   derives that stream from `(root seed, request seed)` via
//!   [`SujRng::derive`], so the same request seed reproduces the same
//!   sample on any thread, under any interleaving.
//!
//! ```
//! use suj_core::catalog::{Catalog, Engine};
//! use suj_core::query::UnionQuery;
//! use suj_stats::SujRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! catalog.register_csv("items", "sku,cat\n1,7\n2,9\n".as_bytes())?;
//! catalog.register_csv("sales", "sale,sku\n100,1\n101,2\n".as_bytes())?;
//!
//! let query = UnionQuery::set_union().chain("shop", ["items", "sales"])?;
//! let engine = Engine::new(catalog);
//! let prepared = engine.prepare(&query)?;   // plans + estimates once
//! println!("{}", prepared.plan().explain());
//!
//! // Seed-addressed serving: same seed, same sample, any thread.
//! let (samples, _report) = prepared.sample(2, 7)?;
//! assert_eq!(samples, prepared.sample(2, 7)?.0);
//!
//! // Or drive a minted handle with your own RNG.
//! let mut handle = prepared.sampler(7)?;
//! let mut rng = SujRng::seed_from_u64(7);
//! let (samples, _report) = handle.sample(2, &mut rng)?;
//! assert_eq!(samples.len(), 2);
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::planner::{Plan, Planner};
use crate::predicate_mode::{can_push_down, PredicateMode};
use crate::query::{UnionQuery, UnionSemantics};
use crate::report::RunReport;
use crate::session::{freeze, lock, rewrite, FreezeConfig, Given, DEFAULT_ROOT_SEED};
use crate::workload::UnionWorkload;
use std::sync::{Arc, Mutex};
use suj_stats::SujRng;
use suj_storage::{FxHashMap, Predicate, Tuple};

pub use crate::session::PreparedQuery;
pub use suj_storage::Catalog;

/// One cache slot: filled by the first successful prepare of its
/// fingerprint, then shared.
type CacheSlot = Arc<Mutex<Option<Arc<PreparedQuery>>>>;

/// The fingerprint-keyed prepared-query cache. The key is the full
/// canonical fingerprint string (not its hash), so distinct queries can
/// never collide into one slot. Slots are two-level so concurrent
/// `prepare` calls for the *same* query serialize on their slot (the
/// second caller waits and receives the first caller's result —
/// estimation is paid once) while different queries prepare in
/// parallel. Cloned engines share the cache.
#[derive(Debug, Clone, Default)]
struct PreparedCache {
    slots: Arc<Mutex<FxHashMap<String, CacheSlot>>>,
}

impl PreparedCache {
    fn slot(&self, fingerprint: &str) -> CacheSlot {
        lock(&self.slots)
            .entry(fingerprint.to_string())
            .or_default()
            .clone()
    }

    /// Drops a slot that was created for a prepare that failed, so an
    /// ongoing stream of invalid queries cannot grow the map. Only
    /// removes the entry while it is still empty (a concurrent
    /// successful fill of the same query keeps its slot).
    fn discard_if_empty(&self, fingerprint: &str) {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(fingerprint) {
            if lock(slot).is_none() {
                slots.remove(fingerprint);
            }
        }
    }

    fn len(&self) -> usize {
        lock(&self.slots)
            .values()
            .filter(|slot| lock(slot).is_some())
            .count()
    }

    /// Every filled slot, sorted by fingerprint so callers iterating
    /// the cache (snapshot serialization) see a deterministic order.
    fn entries(&self) -> Vec<(String, Arc<PreparedQuery>)> {
        let mut out: Vec<(String, Arc<PreparedQuery>)> = lock(&self.slots)
            .iter()
            .filter_map(|(fp, slot)| lock(slot).as_ref().map(|p| (fp.clone(), p.clone())))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Catalog + planner: resolves declarative queries, plans their
/// configuration, and builds ready-to-serve samplers.
///
/// `Engine` is `Send + Sync`: all serving entry points take `&self`, so
/// one engine (or clones of it, which share the prepared-query cache)
/// can serve every worker thread. The catalog is fixed when the engine
/// is built and its relations are shared by `Arc`, so a prepared query
/// keeps serving exactly the data it was planned against.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    catalog: Catalog,
    planner: Planner,
    cache: PreparedCache,
}

impl Engine {
    /// An engine over a catalog, with default planner thresholds.
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            planner: Planner::default(),
            cache: PreparedCache::default(),
        }
    }

    /// An engine with explicit planner thresholds.
    pub fn with_planner(catalog: Catalog, planner: Planner) -> Self {
        Self {
            catalog,
            planner,
            cache: PreparedCache::default(),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The planner.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The stages every route to a sampler shares before the freeze:
    /// resolve against the catalog, pick the predicate mode (pinned,
    /// else by the predicate's shape — §8.3: push down conjunctive
    /// comparisons, reject-during-sampling for everything else), apply
    /// the push-down rewrite, and only then plan — so `plan_for` (the
    /// planner's probe, or a snapshot's persisted plan) sees the
    /// workload that is actually sampled. Returns that workload, the
    /// plan, what `plan_for` already computed, and the predicate when
    /// it is left to reject mode.
    fn planned(
        &self,
        query: &UnionQuery,
        plan_for: impl FnOnce(&Arc<UnionWorkload>, UnionSemantics) -> Result<(Plan, Given), CoreError>,
    ) -> Result<(Arc<UnionWorkload>, Plan, Given, Option<Predicate>), CoreError> {
        let resolved = query.resolve(&self.catalog)?;
        let mode = resolved.predicate.as_ref().map(|p| {
            resolved.predicate_mode.unwrap_or(if can_push_down(p) {
                PredicateMode::PushDown
            } else {
                PredicateMode::Reject
            })
        });
        let workload = rewrite(&resolved.workload, resolved.predicate.as_ref().zip(mode))?;
        let (mut plan, given) = plan_for(&workload, resolved.semantics)?;
        plan.predicate_mode = mode;
        let reject_predicate = resolved
            .predicate
            .filter(|_| mode == Some(PredicateMode::Reject));
        Ok((workload, plan, given, reject_predicate))
    }

    /// Resolves and plans a query without freezing a sampler — the
    /// `EXPLAIN` path. No estimator pass beyond the planner's histogram
    /// probe, but not cheap on an acyclic workload: the overlap rule
    /// reads exact join sizes from the Exact-Weight samplers, which
    /// know them only once their count tables and alias arenas are
    /// built (see [`Planner::plan`]) — most of what
    /// [`prepare`](Self::prepare) costs, paid here for the plan alone.
    pub fn plan(&self, query: &UnionQuery) -> Result<Plan, CoreError> {
        Ok(self
            .planned(query, |w, s| Ok(self.planner.plan_with_given(w, s)))?
            .1)
    }

    /// Identity of a query against this engine: the declarative shape
    /// plus the *data* it resolves to (relation `Arc` pointers — two
    /// queries naming the same relations of the same catalog snapshot
    /// coincide; re-registered data does not) plus the planner
    /// thresholds. The full string is the cache key, so distinct
    /// queries can never alias.
    fn fingerprint(&self, query: &UnionQuery) -> String {
        use std::fmt::Write;
        let mut key = format!("{query:?}|{:?}|", self.planner);
        for def in query.joins() {
            for name in def.relations() {
                match self.catalog.get(name) {
                    Ok(rel) => {
                        let _ = write!(key, "{:p},", Arc::as_ptr(&rel));
                    }
                    // Unknown relation: mark it; the actual prepare
                    // reports the real error (and errors are never
                    // cached).
                    Err(_) => key.push_str("?,"),
                }
            }
        }
        key
    }

    /// Resolves, plans, and estimates a query, returning a shareable
    /// [`PreparedQuery`] from the engine's fingerprint-keyed cache.
    ///
    /// Concurrent calls for the same query serialize on the query's
    /// cache slot: the first pays planning + estimation, the rest
    /// receive the same `Arc`. Errors are not cached — a failed prepare
    /// is retried by the next caller, and its slot is reclaimed.
    pub fn prepare(&self, query: &UnionQuery) -> Result<Arc<PreparedQuery>, CoreError> {
        let fingerprint = self.fingerprint(query);
        let slot = self.cache.slot(&fingerprint);
        let result = {
            let mut guard = lock(&slot);
            if let Some(prepared) = guard.as_ref() {
                return Ok(prepared.clone());
            }
            self.prepare_uncached(query).map(|prepared| {
                let prepared = Arc::new(prepared);
                *guard = Some(prepared.clone());
                prepared
            })
        };
        if result.is_err() {
            // Reclaim the empty slot so streams of invalid queries
            // cannot grow the cache (the guard is released above).
            self.cache.discard_if_empty(&fingerprint);
        }
        result
    }

    /// [`prepare`](Self::prepare) without consulting or filling the
    /// cache — pays planning and estimation unconditionally.
    pub fn prepare_uncached(&self, query: &UnionQuery) -> Result<PreparedQuery, CoreError> {
        self.prepare_via(query, DEFAULT_ROOT_SEED, |w, s| {
            Ok(self.planner.plan_with_given(w, s))
        })
    }

    /// The whole pipeline — resolve → rewrite → plan → freeze — with
    /// the plan and whatever is already computed for the rewritten
    /// workload supplied by `plan_for`: gather and decide on a fresh
    /// prepare; on a snapshot restore the same decide over the stored
    /// statistics, with the stored map and artifacts given.
    pub(crate) fn prepare_via(
        &self,
        query: &UnionQuery,
        root_seed: u64,
        plan_for: impl FnOnce(&Arc<UnionWorkload>, UnionSemantics) -> Result<(Plan, Given), CoreError>,
    ) -> Result<PreparedQuery, CoreError> {
        let (workload, plan, given, reject_predicate) = self.planned(query, plan_for)?;
        let config = FreezeConfig {
            plan,
            reject_predicate,
            root_seed,
            source: Some(query.clone()),
        };
        freeze(workload, config, given)
    }

    /// Prepared queries currently cached.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Every cached prepared query with its fingerprint, sorted by
    /// fingerprint (deterministic snapshot serialization order).
    pub(crate) fn cached_entries(&self) -> Vec<(String, Arc<PreparedQuery>)> {
        self.cache.entries()
    }

    /// Installs an externally restored prepared query into the cache
    /// under its query's fingerprint against *this* engine's catalog
    /// (relation `Arc` pointers are recomputed, so a restored replica
    /// fingerprints consistently with its own `prepare` calls). An
    /// already-filled slot is left as is.
    pub(crate) fn install_prepared(&self, query: &UnionQuery, prepared: Arc<PreparedQuery>) {
        let fingerprint = self.fingerprint(query);
        let slot = self.cache.slot(&fingerprint);
        let mut guard = lock(&slot);
        if guard.is_none() {
            *guard = Some(prepared);
        }
    }

    /// One-shot convenience: prepare (cached), then draw `n` samples.
    pub fn run(
        &self,
        query: &UnionQuery,
        n: usize,
        rng: &mut SujRng,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.prepare(query)?.run(n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlanRule;
    use crate::predicate_mode::PredicateMode;
    use suj_storage::{CompareOp, Predicate, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn shop_catalog() -> Catalog {
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
        c
    }

    fn shop_query() -> UnionQuery {
        UnionQuery::set_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap()
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(rel("r", &["x"], vec![vec![1]])).unwrap();
        assert!(c.contains("r"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_rows(), 1);
        assert_eq!(c.get("r").unwrap().name(), "r");
        assert!(c.get("missing").is_err());
        // Duplicate name rejected.
        assert!(c.register(rel("r", &["x"], vec![])).is_err());
    }

    #[test]
    fn catalog_loads_csv() {
        let mut c = Catalog::new();
        let r = c
            .register_csv("items", "sku,cat\n1,coffee\n2,tea\n".as_bytes())
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(c.contains("items"));
    }

    #[test]
    fn catalog_imports_storage_catalogs() {
        let mut source = Catalog::new();
        source.register(rel("x", &["a"], vec![vec![1]])).unwrap();
        source.register(rel("y", &["a"], vec![vec![2]])).unwrap();
        let mut c = Catalog::new();
        assert_eq!(c.import(&source).unwrap(), 2);
        assert!(c.contains("x") && c.contains("y"));
        // A second import collides and changes nothing.
        assert!(c.import(&source).is_err());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn engine_plans_without_building() {
        let engine = Engine::new(shop_catalog());
        let plan = engine.plan(&shop_query()).unwrap();
        // Tiny data: exact estimation; overlapping shops: some
        // set-union strategy. The point: planning succeeds and
        // explains itself.
        assert!(plan.explain().contains("rule:"));
    }

    #[test]
    fn prepared_query_runs_and_reuses_state() {
        let engine = Engine::new(shop_catalog());
        let prepared = engine.prepare(&shop_query()).unwrap();
        let exact = crate::exact::full_join_union(prepared.workload()).unwrap();
        let mut rng = SujRng::seed_from_u64(3);
        let (first, report) = prepared.run(10, &mut rng).unwrap();
        assert_eq!(first.len(), 10);
        assert!(report.config.is_some(), "plan summary must be stamped");
        for t in &first {
            assert!(exact.union_set.contains(t));
        }
        // Second run reuses the frozen estimator state (no
        // re-estimation); its report covers that run only.
        let (second, report2) = prepared.run(5, &mut rng).unwrap();
        assert_eq!(second.len(), 5);
        assert_eq!(report2.accepted, 5);
        assert_eq!(report2.config, report.config);
        // Estimation was paid at prepare time, once; runs only minted
        // handles.
        assert!(prepared.estimations() <= 1);
        assert_eq!(prepared.handles(), 2);
        assert_eq!(report2.warmup_time, std::time::Duration::ZERO);
    }

    #[test]
    fn prepare_is_cached_by_fingerprint() {
        let engine = Engine::new(shop_catalog());
        assert_eq!(engine.cached_queries(), 0);
        let a = engine.prepare(&shop_query()).unwrap();
        let b = engine.prepare(&shop_query()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same query must share one plan");
        assert_eq!(engine.cached_queries(), 1);
        // A different query gets its own slot…
        let other = UnionQuery::set_union()
            .chain("only_a", ["a_items", "a_sales"])
            .unwrap();
        let c = engine.prepare(&other).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.cached_queries(), 2);
        // …and clones share the cache.
        let clone = engine.clone();
        let d = clone.prepare(&shop_query()).unwrap();
        assert!(Arc::ptr_eq(&a, &d));
        // prepare_uncached always pays again.
        let fresh = engine.prepare_uncached(&shop_query()).unwrap();
        assert_eq!(fresh.handles(), 0);
    }

    #[test]
    fn prepare_errors_are_not_cached() {
        let engine = Engine::new(shop_catalog());
        let query = UnionQuery::set_union()
            .chain("j", ["a_items", "missing"])
            .unwrap();
        assert!(engine.prepare(&query).is_err());
        assert!(engine.prepare(&query).is_err(), "errors are not cached");
        assert_eq!(engine.cached_queries(), 0);
        // The failed attempts left nothing poisoned: the engine still
        // prepares valid queries, and an engine whose catalog has the
        // relation prepares this one.
        assert!(engine.prepare(&shop_query()).is_ok());
        let mut catalog = shop_catalog();
        catalog
            .register(rel("missing", &["sale", "sku"], vec![vec![5, 1]]))
            .unwrap();
        assert!(Engine::new(catalog).prepare(&query).is_ok());
    }

    #[test]
    fn minted_handles_are_independent_and_deterministic() {
        let engine = Engine::new(shop_catalog());
        let prepared = engine.prepare(&shop_query()).unwrap();
        // Same seed → bit-identical samples.
        let (a, _) = prepared.sample(12, 9).unwrap();
        let (b, _) = prepared.sample(12, 9).unwrap();
        assert_eq!(a, b);
        let (c, _) = prepared.sample(12, 10).unwrap();
        assert_ne!(a, c, "different request seeds must differ");
        // A manually minted handle driven with rng(seed) replays
        // sample(n, seed).
        let mut handle = prepared.sampler(9).unwrap();
        let mut rng = prepared.rng(9);
        let (d, _) = handle.sample(12, &mut rng).unwrap();
        assert_eq!(a, d);
        assert_eq!(handle.report().accepted, 12);
    }

    #[test]
    fn prepared_query_is_shareable_across_threads() {
        let engine = Engine::new(shop_catalog());
        let prepared = engine.prepare(&shop_query()).unwrap();
        let estimations = prepared.estimations();
        let mut expected: Vec<Vec<Tuple>> = Vec::new();
        for seed in 0..4u64 {
            expected.push(prepared.sample(8, seed).unwrap().0);
        }
        let results: Vec<Vec<Tuple>> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|seed| {
                    let prepared = prepared.clone();
                    scope.spawn(move || prepared.sample(8, seed).unwrap().0)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(results, expected, "thread interleaving must not matter");
        assert_eq!(
            prepared.estimations(),
            estimations,
            "sampling must never re-estimate"
        );
    }

    #[test]
    fn engine_one_shot_run() {
        let engine = Engine::new(shop_catalog());
        let mut rng = SujRng::seed_from_u64(4);
        let (samples, report) = engine.run(&shop_query(), 6, &mut rng).unwrap();
        assert_eq!(samples.len(), 6);
        assert!(report.config.is_some());
    }

    #[test]
    fn disjoint_query_plans_disjoint_sampling() {
        let query = UnionQuery::disjoint_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap();
        let engine = Engine::new(shop_catalog());
        let plan = engine.plan(&query).unwrap();
        assert_eq!(plan.rule, PlanRule::DisjointSemantics);
        let mut rng = SujRng::seed_from_u64(5);
        let (samples, _) = engine.run(&query, 8, &mut rng).unwrap();
        assert_eq!(samples.len(), 8);
    }

    #[test]
    fn predicate_mode_planned_and_applied() {
        // Conjunctive comparison → push-down.
        let q = shop_query().predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7)));
        let engine = Engine::new(shop_catalog());
        let plan = engine.plan(&q).unwrap();
        assert_eq!(plan.predicate_mode, Some(PredicateMode::PushDown));
        let mut rng = SujRng::seed_from_u64(6);
        let (samples, _) = engine.run(&q, 12, &mut rng).unwrap();
        let prepared = engine.prepare(&q).unwrap();
        let compiled = Predicate::cmp("cat", CompareOp::Le, Value::int(7))
            .compile(prepared.workload().canonical_schema())
            .unwrap();
        for t in &samples {
            assert!(compiled.eval(t));
        }

        // Non-decomposable predicate → reject-during-sampling.
        let q = shop_query().predicate(Predicate::Not(Box::new(Predicate::cmp(
            "cat",
            CompareOp::Gt,
            Value::int(7),
        ))));
        let plan = engine.plan(&q).unwrap();
        assert_eq!(plan.predicate_mode, Some(PredicateMode::Reject));

        // A pinned mode wins over the planner.
        let q = shop_query()
            .predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7)))
            .predicate_mode(PredicateMode::Reject);
        let plan = engine.plan(&q).unwrap();
        assert_eq!(plan.predicate_mode, Some(PredicateMode::Reject));
    }
}
