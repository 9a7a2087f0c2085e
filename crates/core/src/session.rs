//! One validated place to assemble a sampling pipeline.
//!
//! A pipeline is a *sampling strategy* (Algorithm 1 rejection,
//! Bernoulli union trick, disjoint union), per-join *weights* and a
//! *predicate mode* (push-down / reject). *Parameter estimation*
//! (exact / histogram / random walk) is not a fourth axis: only
//! Algorithm 1 reads an estimate, so its estimator, cover policy and
//! cover order travel in its own variant, [`Strategy::Rejection`], as a
//! [`UnionSamplerConfig`], and the eager strategies cannot be given
//! one. [`SamplerBuilder`] owns the whole pipeline:
//!
//! ```
//! use std::sync::Arc;
//! use suj_core::prelude::*;
//! use suj_stats::SujRng;
//! use suj_storage::{Relation, Schema, Tuple, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
//! #     let tuples = rows.iter()
//! #         .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
//! #         .collect();
//! #     Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
//! # };
//! # let j1 = suj_join::JoinSpec::chain("j1", vec![
//! #     rel("r1", ["a", "b"], &[(1, 10), (2, 20)]),
//! #     rel("s1", ["b", "c"], &[(10, 100), (20, 200)]),
//! # ])?;
//! # let j2 = suj_join::JoinSpec::chain("j2", vec![
//! #     rel("r2", ["a", "b"], &[(1, 10), (3, 30)]),
//! #     rel("s2", ["b", "c"], &[(10, 100), (30, 300)]),
//! # ])?;
//! # let workload = Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)])?);
//! let config = UnionSamplerConfig {
//!     estimator: Estimator::Exact,
//!     policy: CoverPolicy::MembershipOracle,
//!     ..Default::default()
//! };
//! let mut sampler = SamplerBuilder::for_workload(workload)
//!     .strategy(Strategy::Rejection(config))
//!     .build()?;
//! let mut rng = SujRng::seed_from_u64(7);
//! let (samples, _report) = sampler.sample(5, &mut rng)?;
//! assert_eq!(samples.len(), 5);
//! # Ok(())
//! # }
//! ```
//!
//! `build()` returns a `Box<dyn UnionSampler + Send>`, so every
//! strategy is interchangeable behind one type: batch via
//! [`UnionSampler::sample`], incremental via
//! [`SampleStream`](crate::stream::SampleStream). For serving, split
//! the pipeline with [`SamplerBuilder::freeze`]: the frozen
//! [`PreparedQuery`] pays estimation and per-join precomputation
//! once, is `Send + Sync`, and mints an independent `Send` handle per
//! thread via [`PreparedQuery::sampler`].
//!
//! Every serving sampler — built here explicitly, planned by
//! [`PreparedQuery::auto`] or the [`Engine`](crate::catalog::Engine),
//! or restored from a snapshot — is assembled by the same chain:
//! push-down `rewrite` → plan the rewritten workload →
//! `freeze(workload, config, given)`, where `given` carries whatever
//! the planner's probe or the snapshot already holds (Algorithm 1's
//! overlap map, per-join samplers) and the freeze computes the rest.
//! The freeze completes nothing but the weights: a plan arrives with
//! its strategy whole. A reject-mode predicate is compiled once by the
//! freeze and tested in each handle's draw step, so a handle is always
//! one sampler.

use crate::algorithm1::{CoverPolicy, SetUnionSampler, UnionSamplerConfig};
use crate::disjoint::{DesignationPolicy, DisjointUnionSampler};
use crate::error::CoreError;
use crate::exact::full_join_union;
use crate::hist_estimator::{DegreeMode, HistogramEstimator};
use crate::overlap::OverlapMap;
use crate::planner::{Plan, PlanRule, Planner, Sizing, WorkloadStats};
use crate::predicate_mode::{push_down, PredicateMode};
use crate::query::{UnionQuery, UnionSemantics};
use crate::report::{PlanSummary, RunReport};
use crate::sampler::UnionSampler;
use crate::walk_estimator::{walk_warmup, walkers, WalkEstimatorConfig};
use crate::workload::UnionWorkload;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use suj_join::weights::build_sampler;
use suj_join::{JoinSampler, JoinSpec, WeightKind};
use suj_stats::SujRng;
use suj_storage::{CompiledPredicate, Predicate, Tuple};

/// Histogram-estimator options for Algorithm 1. Its estimator runs on
/// maximum degrees ([`DegreeMode::Max`], §5.1's strict
/// upper bound); [`HistogramEstimator::new`] takes the mode directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramOptions {
    /// Use exact join sizes as hints instead of extended-Olken bounds
    /// (§9's hist+EW vs hist+EO configurations) — read from the per-join
    /// samplers that know theirs, counted for the rest.
    pub exact_size_hints: bool,
}

/// How Algorithm 1's union/overlap parameters are obtained before
/// sampling ([`UnionSamplerConfig::estimator`]).
#[derive(Debug, Clone, Copy)]
pub enum Estimator {
    /// Ground truth via `FullJoinUnion` (§9 baseline — expensive but
    /// exact; the right choice for tests and small data).
    Exact,
    /// Histogram-based bounds (§5, §8): statistics only, no data
    /// access — the decentralized / data-market configuration.
    Histogram(HistogramOptions),
    /// Random-walk warm-up estimation (§6): centralized configuration.
    /// Walks consume the builder's estimation RNG (see
    /// [`SamplerBuilder::estimation_seed`]) and probe membership.
    Walk(WalkEstimatorConfig),
}

/// Which sampling algorithm runs over the estimated parameters — one
/// per strategy a [`PreparedQuery`] can freeze. Algorithm 2 (§6–§7) is
/// not among them: it is only asymptotically uniform, and it is built
/// directly as an
/// [`OnlineUnionSampler`](crate::algorithm2::OnlineUnionSampler) over
/// [`OnlineParts`](crate::algorithm2::OnlineParts). To let the planner
/// choose, use [`PreparedQuery::auto`] or
/// [`Engine::prepare`](crate::catalog::Engine::prepare).
#[derive(Debug, Clone, Copy)]
pub enum Strategy {
    /// Algorithm 1: non-Bernoulli cover selection with rejection and
    /// revision, over the overlap map its configuration's estimator
    /// produces — the only strategy that estimates.
    Rejection(UnionSamplerConfig),
    /// The §3 union trick: one join per draw in proportion to its
    /// sampler's size bound, a tuple kept only by the join the given
    /// policy designates — the set union, estimating nothing.
    Bernoulli(DesignationPolicy),
    /// Disjoint-union sampling (Definition 1): one join per draw in
    /// proportion to its sampler's size bound, every tuple kept.
    Disjoint,
}

impl fmt::Display for Estimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl Estimator {
    /// Stable label, as the plan summary prints it.
    pub fn label(&self) -> &'static str {
        match self {
            Estimator::Exact => "exact",
            Estimator::Histogram(opts) if opts.exact_size_hints => "histogram(EW)",
            Estimator::Histogram(_) => "histogram(EO)",
            Estimator::Walk(_) => "walk",
        }
    }
}

impl Strategy {
    /// Stable label, as the plan summary prints it.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Rejection(_) => "rejection",
            Strategy::Bernoulli(DesignationPolicy::Oracle) => "bernoulli(oracle)",
            Strategy::Bernoulli(DesignationPolicy::Record) => "bernoulli(record)",
            Strategy::Disjoint => "disjoint",
        }
    }
}

/// Root of the per-handle RNG stream derivation (and seed of build-time
/// estimation) unless [`SamplerBuilder::estimation_seed`] names another.
pub(crate) const DEFAULT_ROOT_SEED: u64 = 0x5eed;

/// Fluent assembly of a union sampling pipeline.
///
/// Defaults: [`Strategy::Rejection`] with
/// [`UnionSamplerConfig::default`] (histogram estimation with
/// extended-Olken hints, the paper's record policy, workload cover
/// order), exact weights, no predicate.
pub struct SamplerBuilder {
    workload: Arc<UnionWorkload>,
    strategy: Strategy,
    weights: Option<WeightKind>,
    predicate: Option<(Predicate, PredicateMode)>,
    estimation_seed: u64,
}

impl SamplerBuilder {
    /// Starts a pipeline over a validated workload.
    pub fn for_workload(workload: Arc<UnionWorkload>) -> Self {
        Self {
            workload,
            strategy: Strategy::Rejection(UnionSamplerConfig::default()),
            weights: None,
            predicate: None,
            estimation_seed: DEFAULT_ROOT_SEED,
        }
    }

    /// Builds the workload from join specs first, then starts the
    /// pipeline.
    pub fn for_joins(joins: Vec<Arc<JoinSpec>>) -> Result<Self, CoreError> {
        Ok(Self::for_workload(Arc::new(UnionWorkload::new(joins)?)))
    }

    /// Selects the sampling strategy (default:
    /// `Strategy::Rejection(UnionSamplerConfig::default())`).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Weight instantiation for the per-join subroutine (§3.2; default
    /// exact weights).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn weights(mut self, weights: WeightKind) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Applies a selection predicate in the given mode.
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn predicate(mut self, predicate: Predicate, mode: PredicateMode) -> Self {
        self.predicate = Some((predicate, mode));
        self
    }

    /// Seed of the RNG used by build-time estimation
    /// ([`Estimator::Walk`]); sampling itself always uses the RNG the
    /// caller passes to `draw` / `sample`. Doubles as the root of the
    /// per-handle stream derivation of [`PreparedQuery::sample`].
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn estimation_seed(mut self, seed: u64) -> Self {
        self.estimation_seed = seed;
        self
    }

    /// Validates the configuration, pays parameter estimation and
    /// per-join precomputation once, and returns the frozen
    /// [`PreparedQuery`] — a `Send + Sync` artifact that mints any
    /// number of independent sampler handles via
    /// [`sampler`](PreparedQuery::sampler).
    ///
    /// The same pipeline as [`Engine::prepare`](crate::catalog::Engine::prepare),
    /// with the caller's knobs in place of the planner's: push-down
    /// rewrite, then the freeze.
    pub fn freeze(self) -> Result<PreparedQuery, CoreError> {
        let predicate = self.predicate.as_ref().map(|(p, mode)| (p, *mode));
        let workload = rewrite(&self.workload, predicate)?;
        let plan = Plan {
            strategy: self.strategy,
            weights: self.weights,
            predicate_mode: predicate.map(|(_, mode)| mode),
            sizing: None,
            rule: PlanRule::Explicit,
            stats: WorkloadStats::unavailable(&workload),
        };
        let config = FreezeConfig {
            plan,
            reject_predicate: match self.predicate {
                Some((p, PredicateMode::Reject)) => Some(p),
                _ => None,
            },
            root_seed: self.estimation_seed,
            source: None,
        };
        freeze(workload, config, Given::default())
    }

    /// Validates the configuration and assembles one sampler — the
    /// single-handle convenience over [`freeze`](Self::freeze) +
    /// [`sampler`](PreparedQuery::sampler). The returned trait object
    /// is `Send`, so it can be built on one thread and driven on
    /// another.
    pub fn build(self) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        self.freeze()?.mint()
    }
}

/// What the caller of [`freeze`] already holds *for exactly the
/// workload being frozen* — from the planner's probe or from a
/// snapshot. Anything absent is computed.
#[derive(Default)]
pub(crate) struct Given {
    /// The overlap map of Algorithm 1's estimator; when used, the freeze
    /// pays no estimation pass ([`PreparedQuery::estimations`] stays 0).
    pub map: Option<OverlapMap>,
    /// Exact-Weight per-join samplers (count tables + alias arenas);
    /// consulted only when the configuration's weights are exact.
    pub samplers: Option<Vec<Arc<dyn JoinSampler>>>,
    /// Size of the snapshot being restored and when the restore began;
    /// the measured cost is stamped into every minted handle's report.
    pub restore: Option<(u64, Instant)>,
}

/// Everything [`freeze`] commits to besides the workload.
pub(crate) struct FreezeConfig {
    /// Strategy, weights and predicate mode — unset weights are exact —
    /// plus the rule and statistics that chose them.
    pub plan: Plan,
    /// The predicate of [`PredicateMode::Reject`], compiled once by the
    /// freeze; a push-down predicate is already folded into the
    /// workload.
    pub reject_predicate: Option<Predicate>,
    /// Estimation seed and root of per-handle stream derivation.
    pub root_seed: u64,
    /// The declarative query, when the pipeline came through the
    /// engine (snapshots persist and re-fingerprint it).
    pub source: Option<UnionQuery>,
}

/// §8.3 push-down: filters every join's base relations with the
/// predicate's conjuncts. Runs before planning and estimation, so both
/// see the workload that is actually sampled; any other mode leaves the
/// workload as it is.
pub(crate) fn rewrite(
    workload: &Arc<UnionWorkload>,
    predicate: Option<(&Predicate, PredicateMode)>,
) -> Result<Arc<UnionWorkload>, CoreError> {
    let Some((p, PredicateMode::PushDown)) = predicate else {
        return Ok(workload.clone());
    };
    let filtered = workload
        .joins()
        .iter()
        .map(|j| push_down(j, p, &format!("{}__σ", j.name())).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Arc::new(UnionWorkload::new(filtered)?))
}

/// Per-join samplers built once and shared by every handle a frozen
/// pipeline mints ([`JoinSampler`] samples through `&self`).
pub(crate) fn shared_samplers(
    workload: &UnionWorkload,
    weights: WeightKind,
) -> Result<Vec<Arc<dyn JoinSampler>>, CoreError> {
    workload
        .joins()
        .iter()
        .map(|j| build_sampler(j.clone(), weights).map(Arc::from))
        .collect::<Result<Vec<_>, _>>()
        .map_err(CoreError::Join)
}

/// Runs Algorithm 1's estimator for what no single join can know: the
/// overlap structure its cover is built from.
fn estimate(
    workload: &Arc<UnionWorkload>,
    estimator: &Estimator,
    samplers: &[Arc<dyn JoinSampler>],
    seed: u64,
) -> Result<OverlapMap, CoreError> {
    match estimator {
        Estimator::Exact => Ok(full_join_union(workload)?.overlap),
        Estimator::Histogram(opts) => {
            // Exact hints are read from the samplers that know them;
            // only a bound-only member pays a count of its own.
            let hints = samplers
                .iter()
                .zip(workload.joins())
                .map(|(s, j)| {
                    if !opts.exact_size_hints {
                        suj_join::bounds::olken_bound(j)
                    } else if let Some(n) = s.size_info().exact {
                        Ok(n as f64)
                    } else {
                        suj_join::weights::exact_join_size(j)
                    }
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(CoreError::Join)?;
            HistogramEstimator::new(workload, DegreeMode::Max, hints)?.overlap_map()
        }
        Estimator::Walk(cfg) => {
            let mut rng = SujRng::seed_from_u64(seed);
            walk_warmup(workload, &walkers(workload)?, cfg, &mut rng)?.overlap_map()
        }
    }
}

/// Provenance of the sizes Algorithm 1 selects by: exact join sizes
/// when every one was `counted`, else whatever the estimator's are.
fn sizing(estimator: &Estimator, counted: bool) -> Sizing {
    match estimator {
        _ if counted => Sizing::Exact,
        Estimator::Exact => Sizing::Exact,
        Estimator::Histogram(_) => Sizing::Histogram,
        Estimator::Walk(_) => Sizing::Walk,
    }
}

/// The one place a serving sampler is assembled: takes the per-join
/// samplers from `given` or builds them, and consults the estimator
/// (`given.map`, else one pass) only for Algorithm 1, whose cover needs
/// the overlap structure; the eager one-join-per-draw strategies select
/// by the bounds their member samplers reject against and estimate
/// nothing. Builder freezes, planned prepares and snapshot restores
/// differ only in where `config` and `given` come from.
pub(crate) fn freeze(
    workload: Arc<UnionWorkload>,
    config: FreezeConfig,
    given: Given,
) -> Result<PreparedQuery, CoreError> {
    let FreezeConfig {
        mut plan,
        reject_predicate,
        root_seed,
        source,
    } = config;
    let mut estimation_passes = 0u64;

    // Given samplers are exact-weight, so any other weight kind builds
    // fresh.
    let weights = *plan.weights.get_or_insert(WeightKind::Exact);
    let samplers = match given.samplers {
        Some(s) if weights == WeightKind::Exact && s.len() == workload.n_joins() => s,
        _ => shared_samplers(&workload, weights)?,
    };

    let map = match plan.strategy {
        Strategy::Rejection(config) => {
            // Algorithm 1's cover sizes are a function of the whole
            // map, the estimator's own join sizes included. A given map
            // replaces the estimation pass (the estimations-paid
            // counter served workloads assert on).
            let map = match given.map {
                Some(map) => map,
                None => {
                    estimation_passes += 1;
                    estimate(&workload, &config.estimator, &samplers, root_seed)?
                }
            };
            let hinted = matches!(config.estimator, Estimator::Histogram(o) if o.exact_size_hints);
            plan.sizing = Some(sizing(&config.estimator, hinted));
            Some(map)
        }
        Strategy::Disjoint | Strategy::Bernoulli(_) => {
            // Selection reads each member's own bound — its exact size
            // wherever it knows one — so there is nothing to estimate.
            let counted = samplers.iter().all(|s| s.size_info().exact.is_some());
            plan.sizing = Some(if counted {
                Sizing::Exact
            } else {
                Sizing::Bound
            });
            None
        }
    };

    let predicate = reject_predicate
        .map(|p| p.compile(workload.canonical_schema()).map(Arc::new))
        .transpose()
        .map_err(CoreError::Storage)?;

    // Membership indexes are built by their first probe. The
    // configurations that probe while drawing or estimating get theirs
    // here, so "frozen" keeps meaning "first batch requestable" and no
    // draw pays a build; every other plan never builds one.
    let probes_membership = match plan.strategy {
        Strategy::Rejection(config) => {
            config.policy == CoverPolicy::MembershipOracle
                || matches!(config.estimator, Estimator::Walk(_))
        }
        Strategy::Bernoulli(policy) => policy == DesignationPolicy::Oracle,
        Strategy::Disjoint => false,
    };
    if probes_membership {
        workload.build_membership_indexes();
    }

    // Resident footprint of the frozen pipeline: base relations, the
    // membership indexes just built (if any), and everything the
    // per-join samplers precomputed (hash indexes, edge-key tables,
    // count tables, alias arenas).
    let sampler_bytes: usize = samplers.iter().map(|s| s.memory_bytes()).sum();
    let summary = plan.summary();
    let (snapshot_bytes, restore_time) = match given.restore {
        Some((bytes, started)) => (bytes, started.elapsed()),
        None => (0, Duration::ZERO),
    };
    Ok(PreparedQuery {
        prepared_bytes: (workload.memory_bytes() + sampler_bytes) as u64,
        workload,
        samplers,
        map,
        predicate,
        plan,
        summary,
        root_seed,
        estimation_passes,
        snapshot_bytes,
        restore_time,
        minted: AtomicU64::new(0),
        source,
    })
}

/// Locks a mutex, recovering from poisoning (a panicked sampling
/// request must not wedge the whole engine).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A frozen, estimation-complete, ready-to-serve sampling pipeline.
///
/// Produced by [`SamplerBuilder::freeze`] and
/// [`Engine::prepare`](crate::catalog::Engine::prepare): overlap maps,
/// covers, estimator state, and the per-join weight precomputation ran
/// exactly once and are immutable — `PreparedQuery` is `Send + Sync`
/// and meant to be shared as `Arc<PreparedQuery>` across every serving
/// thread. Threads draw by minting independent handles
/// ([`sampler`](Self::sampler)) or through the seed-addressed
/// conveniences ([`sample`](Self::sample), [`run`](Self::run)), each
/// of which returns the report of its own call. Handles start with
/// fresh record/report state, making every handle its own i.i.d.
/// sampling process whose output depends only on the RNG it is driven
/// with — the determinism contract concurrent serving relies on.
pub struct PreparedQuery {
    workload: Arc<UnionWorkload>,
    /// Per-join samplers built once and shared by every handle.
    /// They own the join sizes: selection reads `size_info()`.
    samplers: Vec<Arc<dyn JoinSampler>>,
    /// The estimator's overlap map, when the freeze consulted one —
    /// held here only: Algorithm 1 handles are minted over it and
    /// snapshots persist it, so a restore pays no estimation.
    map: Option<OverlapMap>,
    /// Reject-mode predicate, compiled once and tested in every
    /// handle's draw step (push-down predicates were already folded
    /// into `workload`).
    predicate: Option<Arc<CompiledPredicate>>,
    /// The resolved configuration (weights filled in) with the rule
    /// and statistics that chose it; minting reads its strategy.
    plan: Plan,
    /// `plan.summary()`, rendered once and stamped into every report.
    summary: PlanSummary,
    root_seed: u64,
    estimation_passes: u64,
    /// Resident bytes of the workload's base relations, its built
    /// membership indexes and the shared per-join samplers, stamped
    /// into every minted handle's report.
    prepared_bytes: u64,
    /// Size of the snapshot this pipeline was restored from and wall
    /// time of that restore (both zero when frozen in-process);
    /// stamped into every handle's report for load-vs-prepare
    /// comparisons.
    snapshot_bytes: u64,
    restore_time: Duration,
    minted: AtomicU64,
    /// The declarative query this was prepared from, when it came
    /// through the engine — retained so snapshots can persist and
    /// re-fingerprint it.
    source: Option<UnionQuery>,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("plan", &self.summary)
            .field("estimations", &self.estimations())
            .field("handles", &self.handles())
            .finish_non_exhaustive()
    }
}

impl PreparedQuery {
    /// Plans and freezes a set-union workload with the default planner
    /// — the catalog-free entry point benches and embedded callers use
    /// to get a shareable `PreparedQuery` straight from a
    /// [`UnionWorkload`]. The plan, with the rule that fired, is
    /// stamped into every handle's
    /// [`RunReport::config`](crate::report::RunReport::config); the
    /// freeze consumes what the planner's probe already computed, as
    /// [`Engine::prepare`](crate::catalog::Engine::prepare) does.
    pub fn auto(workload: Arc<UnionWorkload>) -> Result<Self, CoreError> {
        let (plan, given) = Planner::default().plan_with_given(&workload, UnionSemantics::Set);
        let config = FreezeConfig {
            plan,
            reject_predicate: None,
            root_seed: DEFAULT_ROOT_SEED,
            source: None,
        };
        freeze(workload, config, given)
    }

    /// The configuration that was frozen, with the rule and statistics
    /// that selected it ([`PlanRule::Explicit`] when the caller pinned
    /// it on the builder).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// [`Plan::explain`] for this query.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// The resolved configuration summary — the same one every
    /// [`RunReport`] from this query carries in its `config`.
    pub fn summary(&self) -> &PlanSummary {
        &self.summary
    }

    /// The workload being sampled (after any predicate push-down).
    pub fn workload(&self) -> &Arc<UnionWorkload> {
        &self.workload
    }

    /// Mints an independent sampler handle over the frozen state.
    ///
    /// Cheap by construction: no estimation, no weight precomputation,
    /// no index build — only fresh per-handle record/report state.
    pub(crate) fn mint(&self) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        let (workload, samplers) = (self.workload.clone(), self.samplers.clone());
        let predicate = self.predicate.clone();
        let mut sampler: Box<dyn UnionSampler + Send> = match self.plan.strategy {
            Strategy::Rejection(config) => {
                let map = self
                    .map
                    .as_ref()
                    .expect("a rejection freeze always commits to a map");
                let sampler = SetUnionSampler::new(workload, map, config, samplers, predicate)?;
                Box::new(sampler)
            }
            Strategy::Bernoulli(policy) => Box::new(DisjointUnionSampler::new(
                workload,
                samplers,
                Some(policy),
                predicate,
            )?),
            Strategy::Disjoint => Box::new(DisjointUnionSampler::new(
                workload, samplers, None, predicate,
            )?),
        };
        let report = sampler.report_mut();
        report.config = Some(self.summary);
        report.prepared_bytes = self.prepared_bytes;
        report.snapshot_bytes = self.snapshot_bytes;
        report.restore_time = self.restore_time;
        self.minted.fetch_add(1, Ordering::Relaxed);
        Ok(sampler)
    }

    /// Mints an independent `Send` sampler handle over the frozen
    /// state; `seed` names the handle's RNG stream. Minting is cheap
    /// and re-estimates nothing; every handle is a fresh i.i.d.
    /// sampling process, safe to use concurrently with any number of
    /// sibling handles.
    ///
    /// The handle itself carries no mint-time randomness: two handles
    /// minted with different seeds are identical until driven. The seed
    /// realizes its stream through the paired [`rng(seed)`](Self::rng)
    /// — drive the handle with that RNG (as [`sample`](Self::sample)
    /// and the [`SamplingService`](crate::serve::SamplingService)
    /// workers do) to get the deterministic per-seed output; driving it
    /// with any other RNG is equally valid but keyed by that RNG
    /// instead.
    pub fn sampler(&self, seed: u64) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        let _ = seed; // stream identity lives in `rng(seed)`; eager strategies carry no mint-time randomness
        self.mint()
    }

    /// The deterministic RNG stream for handle/request `seed`, derived
    /// from the prepared root seed by
    /// [`SujRng::derive`] — independent of
    /// threads, interleaving, and mint order.
    pub fn rng(&self, seed: u64) -> SujRng {
        SujRng::derive(self.root_seed, seed)
    }

    /// Seed-addressed sampling: mints a handle and drives it with
    /// [`rng(seed)`](Self::rng). Same `(prepared state, n, seed)` →
    /// bit-identical samples, on any thread — the serving determinism
    /// contract. The returned report covers this call only; callers
    /// that want a total [`merge`](RunReport::merge) the reports they
    /// get back.
    pub fn sample(&self, n: usize, seed: u64) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.run(n, &mut self.rng(seed))
    }

    /// Draws `n` i.i.d. samples with a caller-supplied RNG — the thin
    /// convenience over one minted handle. Reuses the frozen estimator
    /// state (no re-estimation); the returned report covers this call
    /// only.
    pub fn run(&self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.mint()?.sample(n, rng)
    }

    /// Parameter-estimation passes paid when this query was prepared:
    /// 1 normally, 0 when the planner's probe or a snapshot already
    /// held the parameters. Constant afterwards: minting handles and
    /// sampling never repeat prepare-time estimation — the "estimate
    /// once, serve many" assertion for served workloads.
    pub fn estimations(&self) -> u64 {
        self.estimation_passes
    }

    /// Sampler handles minted so far (via [`sampler`](Self::sampler),
    /// [`sample`](Self::sample), or [`run`](Self::run)).
    pub fn handles(&self) -> u64 {
        self.minted.load(Ordering::Relaxed)
    }

    /// Approximate resident bytes of the prepared workload's base
    /// relations, the membership indexes the freeze built (none unless
    /// the plan probes membership) and the shared per-join samplers
    /// (the number stamped into every handle's report).
    pub fn prepared_bytes(&self) -> u64 {
        self.prepared_bytes
    }

    /// The root of per-handle RNG stream derivation (the builder's
    /// [`estimation_seed`](SamplerBuilder::estimation_seed)), persisted
    /// by snapshots.
    pub(crate) fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The declarative query this was prepared from, when known.
    pub(crate) fn source_query(&self) -> Option<&UnionQuery> {
        self.source.as_ref()
    }

    /// The estimator's overlap map the freeze consulted, if any
    /// (snapshot serialization).
    pub(crate) fn overlap_map(&self) -> Option<&OverlapMap> {
        self.map.as_ref()
    }

    /// Per-join Exact-Weight artifacts (count tables + alias arenas)
    /// when *every* member sampler is exact-weight — what a snapshot
    /// persists so a restore can revive the samplers without any count
    /// recomputation or alias rebuild. `None` when any member is not
    /// EW (nothing to persist).
    pub(crate) fn ew_artifacts(&self) -> Option<Vec<suj_join::EwArtifacts>> {
        self.samplers
            .iter()
            .map(|s| s.as_exact().map(|e| e.artifacts()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Draw;
    use suj_storage::{CompareOp, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// Algorithm 1 over exact parameters.
    fn exact_rejection() -> Strategy {
        Strategy::Rejection(UnionSamplerConfig {
            estimator: Estimator::Exact,
            ..Default::default()
        })
    }

    fn workload() -> Arc<UnionWorkload> {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel(
                    "r1",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel("r2", &["a", "b"], vec![vec![1, 10], vec![9, 90]]),
                rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    #[test]
    fn every_strategy_builds_and_samples() {
        let w = workload();
        let exact = crate::exact::full_join_union(&w).unwrap();
        let strategies = [
            exact_rejection(),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
            Strategy::Disjoint,
        ];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .strategy(strategy)
                .build()
                .unwrap();
            let mut rng = SujRng::seed_from_u64(100 + i as u64);
            let (samples, report) = sampler.sample(40, &mut rng).unwrap();
            assert_eq!(samples.len(), 40, "strategy #{i}");
            assert!(report.accepted >= 40);
            for t in &samples {
                assert!(exact.union_set.contains(t), "strategy #{i}: non-member");
            }
        }
    }

    #[test]
    fn histogram_and_walk_estimators_build() {
        let w = workload();
        for estimator in [
            Estimator::Histogram(HistogramOptions::default()),
            Estimator::Histogram(HistogramOptions {
                exact_size_hints: true,
            }),
            Estimator::Walk(WalkEstimatorConfig {
                max_walks_per_join: 200,
                ..Default::default()
            }),
        ] {
            let config = UnionSamplerConfig {
                estimator,
                policy: CoverPolicy::MembershipOracle,
                ..Default::default()
            };
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .strategy(Strategy::Rejection(config))
                .build()
                .unwrap();
            let mut rng = SujRng::seed_from_u64(5);
            let (samples, _) = sampler.sample(25, &mut rng).unwrap();
            assert_eq!(samples.len(), 25);
        }
    }

    #[test]
    fn prepared_bytes_accounts_sampler_footprint() {
        let w = workload();
        // Exact weights build count tables + alias arenas per join, so
        // the frozen footprint must exceed the bare workload's bytes…
        let prepared = SamplerBuilder::for_workload(w.clone())
            .strategy(exact_rejection())
            .weights(WeightKind::Exact)
            .freeze()
            .unwrap();
        let workload_bytes = w.memory_bytes() as u64;
        assert!(
            prepared.prepared_bytes() > workload_bytes,
            "prepared_bytes ({}) must include the samplers' count \
             tables and arenas on top of the workload ({workload_bytes})",
            prepared.prepared_bytes()
        );
        // …and exactly by the samplers' own accounting.
        let artifacts = prepared.ew_artifacts().expect("EW pipeline");
        assert_eq!(artifacts.len(), w.n_joins());

        // Wander-join samplers own a hash index and an edge-key table
        // per non-root relation, and count them.
        let walker_bytes: usize = walkers(&w)
            .unwrap()
            .iter()
            .map(suj_join::WanderJoin::memory_bytes)
            .sum();
        assert!(walker_bytes > 0);
        let wander = SamplerBuilder::for_workload(w.clone())
            .strategy(exact_rejection())
            .weights(WeightKind::WanderJoin)
            .freeze()
            .unwrap();
        assert_eq!(
            wander.prepared_bytes(),
            workload_bytes + walker_bytes as u64
        );
        assert!(wander.ew_artifacts().is_none());
    }

    #[test]
    fn predicate_reject_mode_filters_output() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let compiled = p.compile(w.canonical_schema()).unwrap();
        for strategy in [
            exact_rejection(),
            Strategy::Disjoint,
            Strategy::Bernoulli(DesignationPolicy::Record),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
        ] {
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .strategy(strategy)
                .predicate(p.clone(), PredicateMode::Reject)
                .build()
                .unwrap();
            let mut rng = SujRng::seed_from_u64(6);
            let (samples, report) = sampler.sample(60, &mut rng).unwrap();
            assert_eq!(samples.len(), 60, "{strategy}");
            for t in &samples {
                assert!(compiled.eval(t), "{strategy}");
            }
            // Only returned tuples are accepted. (9, 90, 900) fails the
            // predicate and must have been rejected at least once in 60
            // returned draws, which counts as an attempt.
            assert_eq!(report.accepted, samples.len() as u64, "{strategy}");
            assert!(report.rejected_predicate > 0, "{strategy}");
            assert!(report.acceptance_ratio() < 1.0, "{strategy}");
        }
    }

    #[test]
    fn predicate_pushdown_mode_rewrites_workload() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let mut sampler = SamplerBuilder::for_workload(w)
            .strategy(exact_rejection())
            .predicate(p.clone(), PredicateMode::PushDown)
            .build()
            .unwrap();
        let compiled = p.compile(sampler.workload().canonical_schema()).unwrap();
        let mut rng = SujRng::seed_from_u64(7);
        let (samples, report) = sampler.sample(60, &mut rng).unwrap();
        for t in &samples {
            assert!(compiled.eval(t));
        }
        // Push-down filters at the base relations: no predicate-phase
        // rejections.
        assert_eq!(report.rejected_predicate, 0);
    }

    #[test]
    fn built_samplers_are_trait_objects() {
        let w = workload();
        let mut samplers: Vec<Box<dyn UnionSampler>> = vec![
            SamplerBuilder::for_workload(w.clone())
                .strategy(exact_rejection())
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w.clone())
                .strategy(Strategy::Disjoint)
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w)
                .strategy(Strategy::Bernoulli(DesignationPolicy::Record))
                .build()
                .unwrap(),
        ];
        let mut rng = SujRng::seed_from_u64(8);
        for sampler in &mut samplers {
            let mut seen = 0;
            while seen < 10 {
                if let Draw::Tuple(..) = sampler.draw(&mut rng).unwrap() {
                    seen += 1;
                }
            }
            assert!(sampler.report().accepted >= 10);
        }
    }

    #[test]
    fn for_joins_validates_schemas() {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r", &["a", "b"], vec![vec![1, 10]]),
                rel("s", &["b", "c"], vec![vec![10, 100]]),
            ],
        )
        .unwrap();
        let j_bad = suj_join::JoinSpec::chain(
            "bad",
            vec![
                rel("x", &["a", "d"], vec![vec![1, 10]]),
                rel("y", &["d", "e"], vec![vec![10, 100]]),
            ],
        )
        .unwrap();
        assert!(SamplerBuilder::for_joins(vec![Arc::new(j1), Arc::new(j_bad)]).is_err());
    }

    /// The freeze hands the estimated parameters and shared samplers to
    /// the sampler's constructor unchanged: building through the
    /// builder is byte-identical to constructing over the same parts by
    /// hand (same seed, same estimator inputs).
    #[test]
    fn builder_matches_direct_construction() {
        let w = workload();
        let exact = crate::exact::full_join_union(&w).unwrap();
        let config = UnionSamplerConfig::default();
        let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
        let mut direct =
            SetUnionSampler::new(w.clone(), &exact.overlap, config, samplers, None).unwrap();
        let mut built = SamplerBuilder::for_workload(w)
            .strategy(exact_rejection())
            .build()
            .unwrap();
        let mut rng_a = SujRng::seed_from_u64(9);
        let mut rng_b = SujRng::seed_from_u64(9);
        let (a, _) = direct.sample(120, &mut rng_a).unwrap();
        let (b, _) = built.sample(120, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_accessor_exposes_schema() {
        let w = workload();
        let sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(exact_rejection())
            .build()
            .unwrap();
        assert_eq!(sampler.workload().canonical_schema(), w.canonical_schema());
    }
}
