//! One validated place to assemble a sampling pipeline.
//!
//! The framework has three orthogonal axes — *parameter estimation*
//! (exact / histogram / random walk), *sampling strategy* (Algorithm 1
//! rejection, Algorithm 2 online, Bernoulli union trick, disjoint
//! union), and *predicate handling* (push-down / reject) — that every
//! caller previously hand-wired. [`SamplerBuilder`] owns the whole
//! pipeline:
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
//! let mut sampler = SamplerBuilder::for_workload(workload)
//!     .estimator(Estimator::Exact)
//!     .strategy(Strategy::Rejection)
//!     .cover_policy(CoverPolicy::MembershipOracle)
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
//! [`Strategy::Auto`], prepared by the
//! [`Engine`](crate::catalog::Engine), or restored from a snapshot — is
//! assembled by the same chain: push-down `rewrite` → plan the
//! rewritten workload → `freeze(workload, config, given)`, where
//! `given` carries whatever the planner's probe or the snapshot already
//! holds (union parameters, per-join samplers) and the freeze computes
//! the rest.

use crate::algorithm1::{CoverPolicy, SetUnionSampler, UnionSamplerConfig};
use crate::algorithm2::{OnlineConfig, OnlineUnionSampler};
use crate::cover::CoverStrategy;
use crate::disjoint::{DesignationPolicy, DisjointUnionSampler};
use crate::error::CoreError;
use crate::exact::full_join_union;
use crate::hist_estimator::{DegreeMode, HistogramEstimator};
use crate::overlap::OverlapMap;
use crate::planner::{Plan, PlanRule, Planner, Sizing, WorkloadStats};
use crate::predicate_mode::{push_down, PredicateMode, PredicateSampler};
use crate::query::{UnionQuery, UnionSemantics};
use crate::report::{PlanSummary, RunReport};
use crate::sampler::UnionSampler;
use crate::walk_estimator::{walk_warmup, WalkEstimatorConfig};
use crate::workload::UnionWorkload;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use suj_join::weights::build_sampler;
use suj_join::{JoinSampler, JoinSpec, WeightKind};
use suj_stats::SujRng;
use suj_storage::{Predicate, Tuple};

/// Histogram-estimator options for the builder. The builder's
/// estimator runs on maximum degrees ([`DegreeMode::Max`], §5.1's strict
/// upper bound); [`HistogramEstimator::new`] takes the mode directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramOptions {
    /// Use exact join sizes as hints instead of extended-Olken bounds
    /// (§9's hist+EW vs hist+EO configurations) — read from the per-join
    /// samplers that know theirs, counted for the rest.
    pub exact_size_hints: bool,
}

/// How union/overlap parameters are obtained before sampling.
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
    /// [`SamplerBuilder::estimation_seed`]).
    Walk(WalkEstimatorConfig),
}

/// Which sampling algorithm runs over the estimated parameters.
#[derive(Debug, Clone, Copy)]
pub enum Strategy {
    /// Algorithm 1: non-Bernoulli cover selection with rejection and
    /// revision. Tune with [`SamplerBuilder::cover_policy`],
    /// [`SamplerBuilder::cover_strategy`], and
    /// [`SamplerBuilder::weights`].
    Rejection,
    /// Algorithm 2: online estimation while sampling, with sample reuse
    /// and backtracking. Pairs with [`Estimator::Walk`] (which then
    /// configures the warm-up) or no explicit estimator.
    Online(OnlineConfig),
    /// The §3 union trick: one join per draw in proportion to its
    /// sampler's size bound, a tuple kept only by the join the given
    /// policy designates — the set union, estimating nothing.
    Bernoulli(DesignationPolicy),
    /// Disjoint-union sampling (Definition 1): one join per draw in
    /// proportion to its sampler's size bound, every tuple kept.
    Disjoint,
    /// Let the [`Planner`] pick the strategy
    /// (and any estimator / weights / cover left unset) from cheap
    /// workload statistics. The planned configuration — including the
    /// rule that fired — is recorded in the sampler's
    /// [`RunReport::config`](crate::report::RunReport::config).
    Auto,
}

impl fmt::Display for Estimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimator::Exact => write!(f, "exact"),
            Estimator::Histogram(opts) if opts.exact_size_hints => write!(f, "histogram(EW)"),
            Estimator::Histogram(_) => write!(f, "histogram(EO)"),
            Estimator::Walk(_) => write!(f, "walk"),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Rejection => write!(f, "rejection"),
            Strategy::Online(_) => write!(f, "online"),
            Strategy::Bernoulli(DesignationPolicy::Oracle) => write!(f, "bernoulli(oracle)"),
            Strategy::Bernoulli(DesignationPolicy::Record) => write!(f, "bernoulli(record)"),
            Strategy::Disjoint => write!(f, "disjoint"),
            Strategy::Auto => write!(f, "auto"),
        }
    }
}

impl Estimator {
    /// Snapshot tag. Only the variant is persisted: the planner emits
    /// default-configured estimators, which [`from_tag`](Self::from_tag)
    /// reconstructs.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Estimator::Exact => 0,
            Estimator::Histogram(_) => 1,
            Estimator::Walk(_) => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Estimator::Exact),
            1 => Some(Estimator::Histogram(HistogramOptions::default())),
            2 => Some(Estimator::Walk(WalkEstimatorConfig::default())),
            _ => None,
        }
    }
}

impl Strategy {
    /// Snapshot tag (variant plus designation policy; configurations
    /// are the planner's defaults). `None` for [`Strategy::Auto`],
    /// which is resolved before anything is frozen or persisted.
    pub(crate) fn tag(&self) -> Option<u8> {
        match self {
            Strategy::Rejection => Some(0),
            Strategy::Online(_) => Some(1),
            Strategy::Bernoulli(DesignationPolicy::Oracle) => Some(2),
            Strategy::Bernoulli(DesignationPolicy::Record) => Some(3),
            Strategy::Disjoint => Some(4),
            Strategy::Auto => None,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Strategy::Rejection),
            1 => Some(Strategy::Online(OnlineConfig::default())),
            2 => Some(Strategy::Bernoulli(DesignationPolicy::Oracle)),
            3 => Some(Strategy::Bernoulli(DesignationPolicy::Record)),
            4 => Some(Strategy::Disjoint),
            _ => None,
        }
    }
}

/// Root of the per-handle RNG stream derivation (and seed of build-time
/// estimation) unless [`SamplerBuilder::estimation_seed`] names another.
pub(crate) const DEFAULT_ROOT_SEED: u64 = 0x5eed;

/// Fluent assembly of a union sampling pipeline.
///
/// Defaults: histogram estimation with extended-Olken hints,
/// [`Strategy::Rejection`] with the paper's record policy, exact
/// weights, workload cover order, no predicate.
pub struct SamplerBuilder {
    workload: Arc<UnionWorkload>,
    estimator: Option<Estimator>,
    strategy: Strategy,
    weights: Option<WeightKind>,
    cover_policy: Option<CoverPolicy>,
    cover_strategy: Option<CoverStrategy>,
    predicate: Option<(Predicate, PredicateMode)>,
    estimation_seed: u64,
}

impl SamplerBuilder {
    /// Starts a pipeline over a validated workload.
    pub fn for_workload(workload: Arc<UnionWorkload>) -> Self {
        Self {
            workload,
            estimator: None,
            strategy: Strategy::Rejection,
            weights: None,
            cover_policy: None,
            cover_strategy: None,
            predicate: None,
            estimation_seed: DEFAULT_ROOT_SEED,
        }
    }

    /// Builds the workload from join specs first, then starts the
    /// pipeline.
    pub fn for_joins(joins: Vec<Arc<JoinSpec>>) -> Result<Self, CoreError> {
        Ok(Self::for_workload(Arc::new(UnionWorkload::new(joins)?)))
    }

    /// Selects the parameter estimator (default:
    /// `Estimator::Histogram(HistogramOptions::default())`).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Selects the sampling strategy (default: `Strategy::Rejection`).
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

    /// Cover ownership policy for [`Strategy::Rejection`] (default: the
    /// paper's record policy).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn cover_policy(mut self, policy: CoverPolicy) -> Self {
        self.cover_policy = Some(policy);
        self
    }

    /// Cover ordering strategy (default: workload order).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn cover_strategy(mut self, strategy: CoverStrategy) -> Self {
        self.cover_strategy = Some(strategy);
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
    /// The same pipeline as [`Engine::prepare`](crate::catalog::Engine::prepare):
    /// push-down rewrite, then (for [`Strategy::Auto`]) planning of the
    /// rewritten workload with explicit knobs winning over planned
    /// ones, then the freeze — so an `Auto` build is seed-for-seed
    /// identical to the explicit configuration the planner selected.
    pub fn freeze(self) -> Result<PreparedQuery, CoreError> {
        let predicate = self.predicate.as_ref().map(|(p, mode)| (p, *mode));
        let workload = rewrite(&self.workload, predicate)?;
        let predicate_mode = predicate.map(|(_, mode)| mode);
        let (plan, given) = match self.strategy {
            Strategy::Auto => {
                let (planned, mut given) =
                    Planner::default().plan_with_given(&workload, UnionSemantics::Set);
                if self.estimator.is_some() {
                    // The probed map belongs to the planned estimator.
                    given.map = None;
                }
                let plan = Plan {
                    estimator: self.estimator.or(planned.estimator),
                    weights: self.weights.or(planned.weights),
                    cover_strategy: self.cover_strategy.or(planned.cover_strategy),
                    predicate_mode,
                    ..planned
                };
                (plan, given)
            }
            strategy => {
                let plan = Plan {
                    strategy,
                    estimator: self.estimator,
                    weights: self.weights,
                    cover_strategy: self.cover_strategy,
                    predicate_mode,
                    sizing: None,
                    rule: PlanRule::Explicit,
                    stats: WorkloadStats::unavailable(&workload),
                };
                (plan, Given::default())
            }
        };
        let (planned, rule) = (plan.strategy, plan.rule);
        let config = FreezeConfig {
            plan,
            cover_policy: self.cover_policy,
            reject_predicate: match self.predicate {
                Some((p, PredicateMode::Reject)) => Some(p),
                _ => None,
            },
            root_seed: self.estimation_seed,
            source: None,
        };
        freeze(workload, config, given).map_err(|e| match e {
            // A knob the caller pinned can be incompatible with the
            // strategy the planner picked for *this data*; say so
            // instead of blaming a strategy the caller never chose.
            CoreError::Invalid(msg) if rule != PlanRule::Explicit => CoreError::Invalid(format!(
                "Strategy::Auto planned `{planned}` (rule {}): {msg}",
                rule.name()
            )),
            other => other,
        })
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
    /// The configured estimator's overlap map; when used, the freeze
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
    /// Strategy (never `Auto`), estimator, weights, cover ordering, and
    /// predicate mode — unset knobs take the documented defaults — plus
    /// the rule and statistics that chose them.
    pub plan: Plan,
    /// Cover ownership policy (the planner never picks one).
    pub cover_policy: Option<CoverPolicy>,
    /// The predicate of [`PredicateMode::Reject`], compiled per handle;
    /// a push-down predicate is already folded into the workload.
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

/// Runs the configured estimator for what no single join can know: the
/// overlap structure Algorithm 1 builds its cover from.
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
            walk_warmup(workload, cfg, &mut rng)?.overlap_map()
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

/// Rejects a knob that the selected strategy cannot honor.
fn reject_knob(set: bool, knob: &str, strategy: &str) -> Result<(), CoreError> {
    if set {
        Err(CoreError::Invalid(format!(
            "`{knob}` does not apply to {strategy}; remove the call or pick a \
             strategy that uses it"
        )))
    } else {
        Ok(())
    }
}

/// The one place a serving sampler is assembled: validates the
/// configuration, takes the per-join samplers from `given` or builds
/// them, and consults the estimator (`given.map`, else one pass) only
/// for Algorithm 1, whose cover needs the overlap structure; the eager
/// one-join-per-draw strategies select by the bounds their member
/// samplers reject against and estimate nothing. Fresh prepares,
/// [`Strategy::Auto`] and snapshot restores differ only in where
/// `config` and `given` come from.
pub(crate) fn freeze(
    workload: Arc<UnionWorkload>,
    config: FreezeConfig,
    given: Given,
) -> Result<PreparedQuery, CoreError> {
    let FreezeConfig {
        mut plan,
        cover_policy,
        reject_predicate,
        root_seed,
        source,
    } = config;
    let n_joins = workload.n_joins();
    let mut estimation_passes = 0u64;

    // Given samplers are exact-weight, so any other weight kind builds
    // fresh.
    let samplers_for = |weights: WeightKind| match given.samplers {
        Some(s) if weights == WeightKind::Exact && s.len() == n_joins => Ok(s),
        _ => shared_samplers(&workload, weights),
    };
    let default_estimator = Estimator::Histogram(HistogramOptions::default());

    let (kind, samplers, map) = match plan.strategy {
        Strategy::Rejection => {
            let estimator = *plan.estimator.get_or_insert(default_estimator);
            let config = UnionSamplerConfig {
                weights: *plan.weights.get_or_insert(WeightKind::Exact),
                policy: cover_policy.unwrap_or(CoverPolicy::Record),
                strategy: *plan.cover_strategy.get_or_insert(CoverStrategy::AsGiven),
            };
            let samplers = samplers_for(config.weights)?;
            // Algorithm 1's cover sizes are a function of the whole
            // map, the estimator's own join sizes included. A given map
            // replaces the estimation pass (the estimations-paid
            // counter served workloads assert on).
            let map = match given.map {
                Some(map) => map,
                None => {
                    estimation_passes += 1;
                    estimate(&workload, &estimator, &samplers, root_seed)?
                }
            };
            let hinted = matches!(estimator, Estimator::Histogram(o) if o.exact_size_hints);
            plan.sizing = Some(sizing(&estimator, hinted));
            (PreparedKind::Rejection { config }, samplers, Some(map))
        }
        Strategy::Online(mut config) => {
            // Algorithm 2 always uses wander-join walks with the
            // record policy; knobs it cannot honor are errors, not
            // silent no-ops.
            reject_knob(plan.weights.is_some(), "weights", "Strategy::Online")?;
            reject_knob(cover_policy.is_some(), "cover_policy", "Strategy::Online")?;
            // An explicit Walk estimator configures its warm-up,
            // anything else is a contradiction worth surfacing.
            match plan.estimator.take() {
                None => {}
                Some(Estimator::Walk(warmup)) => config.warmup = warmup,
                Some(_) => {
                    return Err(CoreError::Invalid(
                        "Strategy::Online estimates parameters online; combine it \
                         with Estimator::Walk (warm-up configuration) or no \
                         estimator"
                            .into(),
                    ));
                }
            }
            plan.strategy = Strategy::Online(config);
            let cover_strategy = *plan.cover_strategy.get_or_insert(CoverStrategy::AsGiven);
            let kind = PreparedKind::Online {
                config,
                cover_strategy,
            };
            (kind, Vec::new(), None)
        }
        Strategy::Disjoint | Strategy::Bernoulli(_) => {
            let (name, designation) = match plan.strategy {
                Strategy::Bernoulli(policy) => ("Strategy::Bernoulli", Some(policy)),
                _ => ("Strategy::Disjoint", None),
            };
            reject_knob(cover_policy.is_some(), "cover_policy", name)?;
            reject_knob(plan.cover_strategy.is_some(), "cover_strategy", name)?;
            plan.estimator.get_or_insert(default_estimator);
            let samplers = samplers_for(*plan.weights.get_or_insert(WeightKind::Exact))?;
            // Selection reads each member's own bound — its exact size
            // wherever it knows one — so there is nothing to estimate.
            let counted = samplers.iter().all(|s| s.size_info().exact.is_some());
            plan.sizing = Some(if counted {
                Sizing::Exact
            } else {
                Sizing::Bound
            });
            (PreparedKind::Disjoint { designation }, samplers, None)
        }
        Strategy::Auto => unreachable!("Auto is planned before the freeze"),
    };

    // Membership indexes are built by their first probe. The
    // configurations that probe while drawing or estimating get theirs
    // here, so "frozen" keeps meaning "first batch requestable" and no
    // draw pays a build; every other plan never builds one.
    let probes_membership = match &kind {
        PreparedKind::Rejection { config } => {
            config.policy == CoverPolicy::MembershipOracle
                || matches!(plan.estimator, Some(Estimator::Walk(_)))
        }
        PreparedKind::Online { .. } => true,
        PreparedKind::Disjoint { designation } => *designation == Some(DesignationPolicy::Oracle),
    };
    if probes_membership {
        workload.build_membership_indexes();
    }

    // Resident footprint of the frozen pipeline: base relations, the
    // membership indexes just built (if any), and everything the
    // per-join samplers precomputed (hash indexes, count tables, alias
    // arenas).
    let sampler_bytes: u64 = samplers.iter().map(|s| s.memory_bytes() as u64).sum();
    let summary = plan.summary();
    let mut aggregate = RunReport::new(n_joins);
    aggregate.config = Some(summary.clone());
    let (snapshot_bytes, restore_time) = match given.restore {
        Some((bytes, started)) => (bytes, started.elapsed()),
        None => (0, Duration::ZERO),
    };
    Ok(PreparedQuery {
        prepared_bytes: workload.memory_bytes() as u64 + sampler_bytes,
        workload,
        kind,
        samplers,
        map,
        reject_predicate,
        plan,
        summary,
        root_seed,
        estimation_passes,
        snapshot_bytes,
        restore_time,
        minted: AtomicU64::new(0),
        source,
        aggregate: Mutex::new(aggregate),
    })
}

/// What a frozen pipeline needs, besides the shared per-join samplers
/// and the estimator's map, to mint a handle (everything immutable);
/// per-handle record/report state is created fresh at mint time.
enum PreparedKind {
    /// Algorithm 1 (rejection + revision) over the frozen map.
    Rejection { config: UnionSamplerConfig },
    /// Algorithm 2: estimates online, so each handle owns its own
    /// estimation state (warm-up consumes the handle's RNG).
    Online {
        config: OnlineConfig,
        cover_strategy: CoverStrategy,
    },
    /// One join per draw in proportion to its sampler's bound: the
    /// disjoint union (Definition 1), or the set union under the §3
    /// designation rule.
    Disjoint {
        designation: Option<DesignationPolicy>,
    },
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
/// conveniences ([`sample`](Self::sample), [`run`](Self::run));
/// per-handle reports fold into a cumulative aggregate readable via
/// [`report`](Self::report). Handles start with fresh record/report
/// state, making every handle its own i.i.d. sampling process whose
/// output depends only on the RNG it is driven with — the determinism
/// contract concurrent serving relies on.
pub struct PreparedQuery {
    workload: Arc<UnionWorkload>,
    kind: PreparedKind,
    /// Per-join samplers built once and shared by every handle (none
    /// for online pipelines, whose handles walk the base relations).
    /// They own the join sizes: selection reads `size_info()`.
    samplers: Vec<Arc<dyn JoinSampler>>,
    /// The estimator's overlap map, when the freeze consulted one —
    /// held here only: Algorithm 1 handles are minted over it and
    /// snapshots persist it, so a restore pays no estimation.
    map: Option<OverlapMap>,
    /// Reject-mode predicate, compiled per handle (push-down
    /// predicates were already folded into `workload`).
    reject_predicate: Option<Predicate>,
    /// The resolved configuration (defaults filled in) with the rule
    /// and statistics that chose it.
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
    aggregate: Mutex<RunReport>,
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
    /// [`UnionWorkload`].
    pub fn auto(workload: Arc<UnionWorkload>) -> Result<Self, CoreError> {
        SamplerBuilder::for_workload(workload)
            .strategy(Strategy::Auto)
            .freeze()
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
    /// Cheap by construction: no estimation, no weight precomputation —
    /// only fresh per-handle record/report state (plus, for
    /// [`Strategy::Online`], the lazily-initialized online estimation
    /// state, which by design is per-handle).
    pub(crate) fn mint(&self) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        let (workload, samplers) = (self.workload.clone(), self.samplers.clone());
        let base: Box<dyn UnionSampler + Send> = match &self.kind {
            PreparedKind::Rejection { config } => {
                let map = self
                    .map
                    .as_ref()
                    .expect("a rejection freeze always commits to a map");
                Box::new(SetUnionSampler::new(workload, map, *config, samplers)?)
            }
            PreparedKind::Online {
                config,
                cover_strategy,
            } => Box::new(OnlineUnionSampler::new(workload, *config, *cover_strategy)),
            PreparedKind::Disjoint { designation } => {
                Box::new(DisjointUnionSampler::new(workload, samplers, *designation)?)
            }
        };
        let mut sampler: Box<dyn UnionSampler + Send> = match &self.reject_predicate {
            Some(p) => Box::new(PredicateSampler::new(base, p)?),
            None => base,
        };
        let report = sampler.report_mut();
        report.config = Some(self.summary.clone());
        report.prepared_bytes = self.prepared_bytes;
        report.snapshot_bytes = self.snapshot_bytes;
        report.restore_time = self.restore_time;
        self.minted.fetch_add(1, Ordering::Relaxed);
        Ok(sampler)
    }

    /// Mints an independent `Send` sampler handle over the frozen
    /// state; `seed` names the handle's RNG stream. Minting is cheap
    /// and re-estimates nothing (exception: an online plan estimates
    /// per handle *by design* — see [`estimations`](Self::estimations));
    /// every handle is a fresh i.i.d. sampling process, safe to use
    /// concurrently with any number of sibling handles.
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

    /// Seed-addressed sampling: mints a handle, drives it with
    /// [`rng(seed)`](Self::rng), and folds the per-request report into
    /// the cumulative aggregate. Same `(prepared state, n, seed)` →
    /// bit-identical samples, on any thread — the serving determinism
    /// contract.
    pub fn sample(&self, n: usize, seed: u64) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.run(n, &mut self.rng(seed))
    }

    /// Draws `n` i.i.d. samples with a caller-supplied RNG — the thin
    /// convenience over one minted handle. Reuses the frozen estimator
    /// state (no re-estimation); the returned report covers this call
    /// only.
    pub fn run(&self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        let mut handle = self.mint()?;
        let (tuples, report) = handle.sample(n, rng)?;
        lock(&self.aggregate).merge(&report);
        Ok((tuples, report))
    }

    /// Cumulative counters across every [`sample`](Self::sample) /
    /// [`run`](Self::run) on this prepared query (reports of handles
    /// minted via [`sampler`](Self::sampler) are the caller's to
    /// aggregate), including the stamped configuration.
    pub fn report(&self) -> RunReport {
        lock(&self.aggregate).clone()
    }

    /// Parameter-estimation passes paid when this query was prepared:
    /// 1 normally, 0 when the planner's probe or a snapshot already
    /// held the parameters. Constant afterwards: minting handles and
    /// sampling never repeat prepare-time estimation — the "estimate
    /// once, serve many" assertion for served workloads.
    ///
    /// Exception: plans using [`Strategy::Online`] (the no-statistics
    /// rule) estimate *while sampling* by design — Algorithm 2's
    /// warm-up and refinement consume each handle's own RNG stream, so
    /// that work is inherently per-handle, is not counted here, and
    /// shows up as `warmup_time` in per-request reports instead.
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
    /// recomputation or alias rebuild. `None` for online pipelines or
    /// any non-EW member (nothing to persist).
    pub(crate) fn ew_artifacts(&self) -> Option<Vec<suj_join::EwArtifacts>> {
        if self.samplers.is_empty() {
            return None;
        }
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
            Strategy::Rejection,
            Strategy::Online(OnlineConfig {
                warmup: WalkEstimatorConfig {
                    max_walks_per_join: 100,
                    min_walks_per_join: 32,
                    ..Default::default()
                },
                ..Default::default()
            }),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
            Strategy::Disjoint,
        ];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let builder = SamplerBuilder::for_workload(w.clone()).strategy(strategy);
            let builder = match strategy {
                Strategy::Online(_) => builder,
                _ => builder.estimator(Estimator::Exact),
            };
            let mut sampler = builder.build().unwrap();
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
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .estimator(estimator)
                .cover_policy(CoverPolicy::MembershipOracle)
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
            .estimator(Estimator::Exact)
            .strategy(Strategy::Rejection)
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

        // Online builds no per-join samplers: workload bytes only — which
        // now include the membership indexes its freeze built (the
        // rejection plan above, under the record policy, built none).
        let online = SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .freeze()
            .unwrap();
        assert_eq!(online.prepared_bytes(), w.memory_bytes() as u64);
        assert!(online.prepared_bytes() > workload_bytes);
        assert!(online.ew_artifacts().is_none());
    }

    #[test]
    fn online_rejects_incompatible_estimator() {
        let w = workload();
        let err = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Online(OnlineConfig::default()))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn inapplicable_knobs_are_rejected_not_ignored() {
        let w = workload();
        // Online honors neither per-join weights nor a cover policy.
        assert!(SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .weights(WeightKind::ExtendedOlken)
            .build()
            .is_err());
        assert!(SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .is_err());
        // Bernoulli and Disjoint have no cover.
        assert!(SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .cover_strategy(CoverStrategy::DescendingSize)
            .build()
            .is_err());
        assert!(SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Disjoint)
            .cover_policy(CoverPolicy::Record)
            .build()
            .is_err());
        // Applicable knobs still work.
        assert!(SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .weights(WeightKind::Exact)
            .build()
            .is_ok());
    }

    #[test]
    fn predicate_reject_mode_filters_output() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let mut sampler = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .predicate(p.clone(), PredicateMode::Reject)
            .build()
            .unwrap();
        let compiled = p.compile(sampler.workload().canonical_schema()).unwrap();
        let mut rng = SujRng::seed_from_u64(6);
        let (samples, report) = sampler.sample(60, &mut rng).unwrap();
        assert_eq!(samples.len(), 60);
        for t in &samples {
            assert!(compiled.eval(t));
        }
        // (9, 90, 900) fails the predicate and must have been rejected
        // at least once in 60 accepted draws.
        assert!(report.rejected_predicate > 0);
    }

    #[test]
    fn predicate_pushdown_mode_rewrites_workload() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let mut sampler = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
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
                .estimator(Estimator::Exact)
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w.clone())
                .estimator(Estimator::Exact)
                .strategy(Strategy::Disjoint)
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w)
                .estimator(Estimator::Exact)
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
            assert!(sampler.emitted() >= 10);
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
        let samplers = shared_samplers(&w, config.weights).unwrap();
        let mut direct = SetUnionSampler::new(w.clone(), &exact.overlap, config, samplers).unwrap();
        let mut built = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
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
            .estimator(Estimator::Exact)
            .build()
            .unwrap();
        assert_eq!(sampler.workload().canonical_schema(), w.canonical_schema());
    }
}
