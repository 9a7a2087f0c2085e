//! Cost-based planning of the estimator × algorithm configuration.
//!
//! §9's evaluation is a matrix of estimator × algorithm configurations
//! whose winner flips with overlap ratio, join-size skew, and
//! statistics availability. The [`Planner`] encodes those findings as
//! explicit rules so callers can say *what* to sample (a
//! [`UnionQuery`](crate::query::UnionQuery) through the
//! [`Engine`](crate::catalog::Engine), or a bare workload through
//! [`PreparedQuery::auto`](crate::session::PreparedQuery::auto)) and
//! let the system decide *how*:
//!
//! | Rule | Condition | Configuration | Paper |
//! |---|---|---|---|
//! | `DisjointSemantics` | query asks for `⊎` | one join per draw, by its sampler's bound | Definition 1 |
//! | `CyclicJoin` | some join graph is cyclic | AGM box-splitting weights | §8.2 + AGM bound |
//! | `SingleJoin` | one join | per-join sampling, no union machinery | §2, §3.2 |
//! | `NoStatistics` | no catalog statistics | one join per draw, kept by the first join that contains it | §3 + membership oracle |
//! | `LowOverlap` | `Σ|Jᵢ|/|∪Jᵢ|` near 1 | one join per draw, kept by its designated join | §3 |
//! | `HighOverlap` | otherwise | Algorithm 1 (cover selection) | §4–§5 |
//!
//! Only Algorithm 1 reads an estimate, so only the two rules that emit
//! it — `HighOverlap`, and `CyclicJoin` over more than one join — pick
//! an estimator (exact on small data, the histogram with statistics, §6
//! random walks without) and a cover order; the plan carries both in
//! [`Strategy::Rejection`]. Every other rule selects by the bounds the
//! member samplers own and names no estimator.
//!
//! Cyclicity is decided *before* the statistics rules on purpose: the
//! histogram probe can fail on cyclic shapes, and that failure must not
//! change how a cyclic workload is planned.
//!
//! Every [`Plan`] carries the statistics that drove the decision and an
//! [`explain`](Plan::explain) rendering that cites the rule, so served
//! configurations stay auditable.
//!
//! Planning is two steps: a costly *gather* (the probe, and the
//! Exact-Weight samplers whose counts make the size hints exact) and a
//! pure *decide* over the workload's shape, the semantics, the
//! statistics and the [`PlannerConfig`]. A snapshot stores the
//! statistics, not the plan, and a restore runs the same decide.

use crate::algorithm1::{CoverPolicy, UnionSamplerConfig};
use crate::cover::CoverStrategy;
use crate::disjoint::DesignationPolicy;
use crate::error::CoreError;
use crate::fan_out::{fan_out, parallelism};
use crate::hist_estimator::{DegreeMode, HistogramEstimator};
use crate::overlap::OverlapMap;
use crate::predicate_mode::PredicateMode;
use crate::query::UnionSemantics;
use crate::report::PlanSummary;
use crate::session::{shared_samplers, Estimator, Given, HistogramOptions, Strategy};
use crate::walk_estimator::WalkEstimatorConfig;
use crate::workload::UnionWorkload;
use std::sync::Arc;
use suj_join::{JoinSampler, WeightKind};
use suj_storage::snapshot::Labeled;

/// Cheap statistics the planner gathers before choosing a
/// configuration: histogram-derived join-size hints and an
/// overlap-ratio probe (§5's statistics-only estimates — no data is
/// scanned beyond per-attribute frequency histograms).
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// `|J_j|` per join, when statistics are available: the exact sizes
    /// the Exact-Weight samplers report on an all-acyclic workload,
    /// histogram bounds otherwise.
    pub size_hints: Option<Vec<f64>>,
    /// Estimated `|∪ J_j|`, when statistics are available.
    pub union_size_hint: Option<f64>,
    /// Total rows across all distinct base relations (relations shared
    /// by several joins count once; used to spot workloads small enough
    /// for exact estimation).
    pub total_base_rows: usize,
    /// Number of joins.
    pub n_joins: usize,
}

impl WorkloadStats {
    /// Probes the workload with the §5 histogram estimator. Statistics
    /// failures (e.g. shapes the estimator cannot bound) degrade to
    /// [`WorkloadStats::unavailable`] rather than erroring: planning
    /// must always succeed.
    pub fn probe(workload: &UnionWorkload) -> Self {
        Self::probe_with_map(workload).0
    }

    /// [`probe`](Self::probe), also returning the overlap map the
    /// estimator produced so a plan that keeps the same estimator can
    /// hand it to the freeze instead of estimating a second time.
    fn probe_with_map(workload: &UnionWorkload) -> (Self, Option<OverlapMap>) {
        let mut stats = Self::unavailable(workload);
        let map = HistogramEstimator::with_olken(workload, DegreeMode::Max)
            .and_then(|est| est.overlap_map())
            .ok();
        if let Some(map) = &map {
            stats.size_hints = Some((0..workload.n_joins()).map(|j| map.join_size(j)).collect());
            stats.union_size_hint = Some(map.union_size());
        }
        (stats, map)
    }

    /// Statistics-free stats (the decentralized cold start): only row
    /// and join counts, which are always known.
    pub fn unavailable(workload: &UnionWorkload) -> Self {
        // Count each relation once, even when several joins share it
        // (the common union-of-joins shape): `Arc` identity
        // deduplicates.
        let mut seen = suj_storage::FxHashSet::default();
        let total_base_rows = workload
            .joins()
            .iter()
            .flat_map(|j| j.relations())
            .filter(|r| seen.insert(std::sync::Arc::as_ptr(r) as usize))
            .map(|r| r.len())
            .sum();
        Self {
            size_hints: None,
            union_size_hint: None,
            total_base_rows,
            n_joins: workload.n_joins(),
        }
    }

    /// Whether the probe produced size estimates.
    pub fn available(&self) -> bool {
        self.size_hints.is_some() && self.union_size_hint.is_some()
    }

    /// `Σ |Jᵢ|` over the hints.
    pub fn sum_join_sizes(&self) -> Option<f64> {
        self.size_hints.as_ref().map(|h| h.iter().sum())
    }

    /// The §3 overlap ratio `Σ|Jᵢ| / |∪Jᵢ|`, clamped to `≥ 1` (exact
    /// values cannot go below 1; estimates may). An estimated-empty
    /// union with empty joins is trivially overlap-free (ratio 1);
    /// `None` only when statistics are unavailable or inconsistent
    /// (zero union under non-zero joins).
    pub fn overlap_ratio(&self) -> Option<f64> {
        let sum = self.sum_join_sizes()?;
        let union = self.union_size_hint?;
        if union <= 0.0 {
            if sum <= 0.0 {
                Some(1.0)
            } else {
                None
            }
        } else {
            Some((sum / union).max(1.0))
        }
    }

    /// Join-size skew: largest hint over smallest non-zero hint.
    /// `None` without statistics or with all-empty joins.
    pub fn size_skew(&self) -> Option<f64> {
        let hints = self.size_hints.as_ref()?;
        let max = hints.iter().cloned().fold(0.0f64, f64::max);
        let min = hints
            .iter()
            .cloned()
            .filter(|&h| h > 0.0)
            .fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !min.is_finite() {
            None
        } else {
            Some(max / min)
        }
    }
}

/// Which paper-derived rule selected the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanRule {
    /// The query asked for disjoint-union semantics.
    DisjointSemantics,
    /// Some join's relation graph contains a cycle: route the cyclic
    /// members to the AGM-bound box-splitting sampler.
    CyclicJoin,
    /// A single join needs no union machinery.
    SingleJoin,
    /// No statistics: the union trick under the exact membership oracle,
    /// which needs no `|∪Jᵢ|` and no overlap map, only the bounds the
    /// member samplers own.
    NoStatistics,
    /// Overlap ratio near 1: the union trick's designation rarely
    /// rejects.
    LowOverlap,
    /// Overlapping joins: non-Bernoulli cover selection wastes nothing.
    HighOverlap,
    /// No rule fired: the caller pinned the configuration through
    /// [`SamplerBuilder`](crate::session::SamplerBuilder).
    Explicit,
}

impl PlanRule {
    /// Stable rule name (used in summaries and assertions).
    pub fn name(&self) -> &'static str {
        self.label()
    }

    /// The paper section(s) justifying the rule.
    pub fn citation(&self) -> &'static str {
        match self {
            PlanRule::DisjointSemantics => "Definition 1, §2",
            PlanRule::CyclicJoin => {
                "§8.2; AGM bound (Atserias–Grohe–Marx); box splitting (Wang & Tao, PODS'23)"
            }
            PlanRule::SingleJoin => "§2, §3.2",
            PlanRule::NoStatistics => {
                "§3 (union trick, membership-oracle designation; Kamat & Nandi)"
            }
            PlanRule::LowOverlap => "§3 (Bernoulli union trick)",
            PlanRule::HighOverlap => "§4–§5 (Algorithm 1, cover selection)",
            PlanRule::Explicit => "caller's choice",
        }
    }
}

/// Use exact (full-join) estimation when the base data has at most
/// this many rows — the §9 ground-truth configuration, affordable at
/// toy scale and the most accurate.
const EXACT_MAX_BASE_ROWS: usize = 512;

/// Gather the §5 probe and the member builds side by side only when the
/// base data has at least this many rows. Below it each half takes
/// about a millisecond or less, mostly fixed costs, so a helper thread
/// buys nothing measurable: on `chatty_hot` (uq3 at scale 4, 1 260
/// rows) it left `setup_s` even and read `wire_p50_ms` ×1.2 against a
/// gather on the caller alone; on `overlap_rej` (24 109 rows) it takes
/// `setup_s` ×0.57.
const SIDE_BY_SIDE_MIN_BASE_ROWS: usize = 8192;

/// Order the cover by descending size when the largest join hint
/// exceeds the smallest by this factor (claiming overlaps early leaves
/// later joins small residuals, §3.1).
const SKEWED_COVER_RATIO: f64 = 8.0;

/// What a deployment decides about planning. Defaults follow the §9
/// evaluation's crossover points.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Pick Bernoulli when `Σ|Jᵢ|/|∪Jᵢ|` is at most this (§3: the
    /// expected rejection fraction is `1 − 1/ratio`, so 1.25 caps it
    /// at 20%).
    pub bernoulli_max_overlap_ratio: f64,
    /// Probe catalog statistics at all; `false` models the
    /// decentralized cold start. Disjoint semantics, cyclic joins and
    /// single joins keep their own rules, which read no statistics;
    /// every other set union is then planned by the `no-statistics`
    /// rule.
    pub use_statistics: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            bernoulli_max_overlap_ratio: 1.25,
            use_statistics: true,
        }
    }
}

/// The planner: consumes a workload (or resolved query) plus cheap
/// statistics, emits an explainable [`Plan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {
    config: PlannerConfig,
}

/// What one half of the planner's gather returns.
enum Gathered {
    /// The members' Exact-Weight samplers.
    Samplers(Result<Vec<Arc<dyn JoinSampler>>, CoreError>),
    /// The §5 probe's statistics and overlap map.
    Probe((WorkloadStats, Option<OverlapMap>)),
}

impl Planner {
    /// A planner with explicit thresholds.
    pub fn new(config: PlannerConfig) -> Self {
        Self { config }
    }

    /// A planner that never consults catalog statistics (the
    /// decentralized / cold-start setting). The rules that read no
    /// statistics still decide first (disjoint semantics, a cyclic
    /// join, a single join); any other set union is planned by the
    /// `no-statistics` rule: one join per draw in proportion to its
    /// sampler's bound, a tuple kept only by the first join whose
    /// membership index contains it — exactly uniform, with no
    /// `|∪Jᵢ|` and no overlap map.
    pub fn without_statistics() -> Self {
        Self::new(PlannerConfig {
            use_statistics: false,
            ..PlannerConfig::default()
        })
    }

    /// The active thresholds.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans a workload under the given union semantics. Plan the
    /// workload that will actually be sampled: a push-down predicate is
    /// applied *before* planning, so the statistics describe the
    /// filtered data.
    ///
    /// Not cheap on an acyclic workload: the overlap rule divides
    /// `Σ|Jᵢ|` by `|∪Jᵢ|`, join sizes are read from the join samplers,
    /// and a sampler knows its size only once its count tables exist —
    /// so planning builds every member's hash indexes, count tables and
    /// alias arenas (half of a cold prepare). A prepare loses nothing
    /// by it: the freeze serves from those same samplers. The other
    /// half is the §5 probe, which costs what its data costs: each
    /// column counted once, K(1) of every subset in one pass per
    /// domain. The halves are independent, so on a machine with two or
    /// more CPUs and at least `SIDE_BY_SIDE_MIN_BASE_ROWS` (8 192) base
    /// rows they run side by side — the caller builds the members, a
    /// helper thread probes — and with a core free a plan costs about
    /// its longer half. On `bulk_cold`'s 1.13 M rows the probe takes
    /// ≈ 58 ms and the five builds ≈ 50 ms (DESIGN.md, "What planning
    /// costs").
    pub fn plan(&self, workload: &UnionWorkload, semantics: UnionSemantics) -> Plan {
        self.plan_with_given(workload, semantics).0
    }

    /// [`plan`](Self::plan), also handing over what the probe already
    /// computed for exactly this workload — the overlap map (when the
    /// plan is Algorithm 1 over the probe's estimator) and the
    /// Exact-Weight samplers behind the exact sizes — so the freeze
    /// computes neither twice. Gather, then [`decide`](Self::decide).
    pub(crate) fn plan_with_given(
        &self,
        workload: &UnionWorkload,
        semantics: UnionSemantics,
    ) -> (Plan, Given) {
        let rows = WorkloadStats::unavailable(workload).total_base_rows;
        let threads = if rows < SIDE_BY_SIDE_MIN_BASE_ROWS {
            1
        } else {
            parallelism()
        };
        self.plan_on(workload, semantics, threads)
    }

    /// [`plan_with_given`](Self::plan_with_given), gathering on at most
    /// `threads` threads.
    fn plan_on(
        &self,
        workload: &UnionWorkload,
        semantics: UnionSemantics,
        threads: usize,
    ) -> (Plan, Given) {
        let (stats, mut given) = self.gather(workload, threads);
        let plan = self.decide(workload, semantics, stats);
        // The probe ran the default histogram estimator; only an
        // Algorithm 1 plan over exactly that estimator may reuse its map.
        if !matches!(
            plan.strategy,
            Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Histogram(_),
                ..
            })
        ) {
            given.map = None;
        }
        (plan, given)
    }

    /// The costly half of planning: the §5 histogram probe and, on an
    /// all-acyclic workload, the Exact-Weight samplers whose counts
    /// refine its size hints. Returns the statistics and what was built
    /// on the way (the probe's overlap map, the samplers).
    ///
    /// The probe and the member builds are pure functions of the
    /// workload, so they run side by side when `threads` allows two
    /// lanes. A cyclic workload builds no member here, so its gather
    /// starts no thread.
    fn gather(&self, workload: &UnionWorkload, threads: usize) -> (WorkloadStats, Given) {
        if !self.config.use_statistics {
            return (WorkloadStats::unavailable(workload), Given::default());
        }
        let samplers: fn(&UnionWorkload) -> Gathered =
            |w| Gathered::Samplers(shared_samplers(w, WeightKind::Exact));
        let probe: fn(&UnionWorkload) -> Gathered =
            |w| Gathered::Probe(WorkloadStats::probe_with_map(w));
        // The members come first, so the caller builds every sampler
        // while a helper lane probes: the samplers' long-lived tables
        // stay where a one-thread gather allocates them, which keeps the
        // wire face even (DESIGN.md, "What planning costs").
        let halves = if is_cyclic(workload) {
            vec![probe]
        } else {
            vec![samplers, probe]
        };
        let (mut probed, mut built) = (None, None);
        for half in fan_out(halves, threads, |half| half(workload)) {
            match half {
                Gathered::Samplers(samplers) => built = Some(samplers),
                Gathered::Probe(stats_and_map) => probed = Some(stats_and_map),
            }
        }
        let (mut stats, map) = probed.expect("the probe is one of the halves");
        let samplers = built.and_then(|samplers| Self::refine_exact_sizes(&mut stats, samplers));
        let given = Given {
            map,
            samplers,
            restore: None,
        };
        (stats, given)
    }

    /// The cheap half of planning: a pure function of the workload's
    /// shape (join count, cyclicity), the semantics, the statistics and
    /// the planner's thresholds. A fresh prepare decides over what
    /// [`gather`](Self::gather) measured; a snapshot restore decides
    /// over the statistics it stored, so the two reach the same plan.
    pub(crate) fn decide(
        &self,
        workload: &UnionWorkload,
        semantics: UnionSemantics,
        stats: WorkloadStats,
    ) -> Plan {
        let cyclic = is_cyclic(workload);

        let (rule, strategy) = if semantics == UnionSemantics::Disjoint {
            (PlanRule::DisjointSemantics, Strategy::Disjoint)
        } else if cyclic {
            // Decided before the statistics rules: the histogram probe
            // can fail on cyclic shapes, and that failure must not
            // change the plan.
            let strategy = if stats.n_joins == 1 {
                Strategy::Disjoint
            } else {
                Strategy::Rejection(algorithm1(&stats))
            };
            (PlanRule::CyclicJoin, strategy)
        } else if stats.n_joins == 1 {
            // One join: the disjoint sampler degenerates to plain
            // per-join sampling — no oracles, no cover, no rejection.
            (PlanRule::SingleJoin, Strategy::Disjoint)
        } else if !stats.available() {
            // Designation by the exact membership oracle needs no
            // |∪Jᵢ| and no overlap map, only the members' own bounds.
            (
                PlanRule::NoStatistics,
                Strategy::Bernoulli(DesignationPolicy::Oracle),
            )
        } else {
            // Inconsistent estimates (zero union under non-zero joins,
            // a shape upper-bound estimators cannot produce but that
            // guards against future estimators) default to the
            // conservative high-overlap path.
            match stats.overlap_ratio() {
                Some(r) if r <= self.config.bernoulli_max_overlap_ratio => (
                    PlanRule::LowOverlap,
                    Strategy::Bernoulli(DesignationPolicy::Record),
                ),
                _ => (
                    PlanRule::HighOverlap,
                    Strategy::Rejection(algorithm1(&stats)),
                ),
            }
        };

        // Weights are the exact (EW) instantiation on acyclic
        // workloads: extended-Olken weights exist for the decentralized
        // setting where base data cannot be scanned (§5, §9), but an
        // engine that holds the relations can afford exact per-tuple
        // weights, and they cut the join-subroutine rejection rate by
        // an order of magnitude on skewed data. Cyclic workloads get
        // AGM box weights instead;
        // `build_sampler` routes each member join by its own shape, so
        // acyclic members of a mixed union still tree-walk.
        let weight_kind = if cyclic {
            WeightKind::AgmBox
        } else {
            WeightKind::Exact
        };
        Plan {
            strategy,
            weights: Some(weight_kind),
            predicate_mode: None,
            sizing: None,
            rule,
            stats,
        }
    }

    /// On an all-acyclic workload, takes the Exact-Weight samplers the
    /// gather built — their count tables yield *exact* integer join
    /// sizes — and (when the probe's statistics are available to supply
    /// overlap context) replaces the histogram's size hints with the
    /// exact figures, clamping the union estimate into its sound
    /// bracket `[max |Jᵢ|, Σ|Jᵢ|]`. Returns the samplers so the freeze
    /// reuses their alias arenas instead of building them a second
    /// time. The hints stay as probed when any count saturated `u64`
    /// (they would not be exact); `None` when a sampler failed to
    /// build.
    fn refine_exact_sizes(
        stats: &mut WorkloadStats,
        samplers: Result<Vec<Arc<dyn JoinSampler>>, CoreError>,
    ) -> Option<Vec<Arc<dyn JoinSampler>>> {
        let samplers = samplers.ok()?;
        let exact: Option<Vec<u64>> = samplers.iter().map(|s| s.size_info().exact).collect();
        if let (Some(exact), true) = (exact, stats.available()) {
            let hints: Vec<f64> = exact.iter().map(|&n| n as f64).collect();
            let sum: f64 = hints.iter().sum();
            let max = hints.iter().cloned().fold(0.0f64, f64::max);
            // The union estimate keeps the probe's overlap information
            // (exact member sizes say nothing about overlap) but is
            // clamped into the bracket the exact sizes prove.
            stats.union_size_hint = stats.union_size_hint.map(|u| u.clamp(max, sum));
            stats.size_hints = Some(hints);
        }
        Some(samplers)
    }
}

/// Algorithm 1's configuration under the paper's record policy: the
/// estimator by data size and statistics availability, the cover order
/// by join-size skew.
fn algorithm1(stats: &WorkloadStats) -> UnionSamplerConfig {
    let estimator = if stats.total_base_rows <= EXACT_MAX_BASE_ROWS {
        Estimator::Exact
    } else if stats.available() {
        Estimator::Histogram(HistogramOptions::default())
    } else {
        Estimator::Walk(WalkEstimatorConfig::default())
    };
    let strategy = match stats.size_skew() {
        Some(skew) if skew >= SKEWED_COVER_RATIO => CoverStrategy::DescendingSize,
        _ => CoverStrategy::AsGiven,
    };
    UnionSamplerConfig {
        estimator,
        policy: CoverPolicy::Record,
        strategy,
    }
}

/// Whether some join's relation graph contains a cycle.
fn is_cyclic(workload: &UnionWorkload) -> bool {
    workload
        .joins()
        .iter()
        .any(|j| suj_join::graph::has_graph_cycle(j))
}

/// Provenance of the join sizes a frozen pipeline selects joins by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// Every size is an exact `|Jⱼ|`: read from the member samplers'
    /// [`size_info`](suj_join::JoinSampler::size_info), or counted by
    /// the full-join estimator.
    Exact,
    /// Some size is a §5 histogram bound.
    Histogram,
    /// Some size is a §6 random-walk estimate.
    Walk,
    /// Some size is the upper bound its member sampler rejects against
    /// (extended-Olken, wander-join, AGM box, saturated exact weights).
    Bound,
}

/// An executable configuration: strategy (Algorithm 1's with its
/// estimator and cover), weights, predicate mode — plus the statistics
/// and rule that produced it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The sampling strategy.
    pub strategy: Strategy,
    /// Per-join weight instantiation; `None` until the freeze fills in
    /// the default for a caller who pinned none.
    pub weights: Option<WeightKind>,
    /// Predicate execution mode, when the query carries a predicate.
    pub predicate_mode: Option<PredicateMode>,
    /// Where the join sizes the sampler selects by came from. `None`
    /// until the freeze stamps what it actually read (a planner's plan
    /// has selected nothing yet).
    pub sizing: Option<Sizing>,
    /// The rule that fired.
    pub rule: PlanRule,
    /// The statistics that drove the decision.
    pub stats: WorkloadStats,
}

impl Plan {
    /// The compact configuration record stamped into
    /// [`RunReport::config`](crate::report::RunReport::config) — the
    /// one place a configuration is rendered, whether a rule chose it,
    /// the caller pinned it, or a snapshot restored it.
    pub fn summary(&self) -> PlanSummary {
        let algorithm1 = match &self.strategy {
            Strategy::Rejection(config) => Some(config),
            _ => None,
        };
        PlanSummary {
            strategy: self.strategy.label(),
            estimator: algorithm1.map(|c| c.estimator.label()),
            weights: self.weights.map(Labeled::label),
            cover: algorithm1.map(|c| c.strategy.label()),
            predicate: self.predicate_mode.map(Labeled::label),
            sizing: self.sizing.map(Labeled::label),
            rule: (self.rule != PlanRule::Explicit).then(|| self.rule.name()),
        }
    }

    /// Whether a multi-join plan's `|∪Jᵢ|` hint equals `Σ|Jᵢ|` — where
    /// [`Planner`]'s clamp leaves a histogram bound that exceeded it.
    fn union_hint_is_sum(&self) -> bool {
        let (hint, sum) = (self.stats.union_size_hint, self.stats.sum_join_sizes());
        self.stats.n_joins > 1 && hint.is_some() && hint == sum
    }

    /// A human-readable account of the decision, citing the
    /// paper-derived rule that fired.
    pub fn explain(&self) -> String {
        let mut out = format!("plan: {}\n", self.summary());
        let detail = match self.rule {
            PlanRule::DisjointSemantics => {
                "query asks for the disjoint union: each join contributes its full \
                 result, so sample joins in proportion to the bound each member's \
                 sampler rejects against (|Jᵢ| under exact weights), with no \
                 overlap correction"
                    .to_string()
            }
            PlanRule::CyclicJoin => {
                "some join's relation graph contains a cycle: spanning-tree walks \
                 would drop the cycle-closing equalities and reject by consistency \
                 re-checks, so cyclic member joins sample by AGM-bound box \
                 splitting (accepted draws exactly uniform; acceptance rate \
                 OUT/Σ_F AGM over the pre-split frontier F of the box tree), \
                 while acyclic members keep exact tree weights"
                    .to_string()
            }
            PlanRule::SingleJoin => {
                "one join: the union equals the join, so per-join sampling applies \
                 with no cover, oracle, or rejection overhead"
                    .to_string()
            }
            PlanRule::NoStatistics => {
                "no catalog statistics available, so no |∪Jᵢ| and no overlap map: \
                 sample one join per draw in proportion to the bound its sampler \
                 rejects against (|Jᵢ| under exact weights), and keep a tuple only \
                 if that join is the first whose membership index contains it — \
                 exactly uniform over the set union, estimating nothing"
                    .to_string()
            }
            // Exact member sizes clamp the union estimate into
            // [max |Jᵢ|, Σ|Jᵢ|]; an estimate sitting on the upper end
            // says nothing about overlap, and the text must not claim
            // it does.
            PlanRule::LowOverlap if self.union_hint_is_sum() => format!(
                "Σ|Jᵢ|/|∪Jᵢ| ≈ {:.3}, but the histogram bound on |∪Jᵢ| reached Σ|Jᵢ| \
                 and was clamped: the ratio carries no overlap information, and a \
                 ratio of 1 selects the union trick — one join per draw, a tuple \
                 kept only by its designated join",
                self.stats.overlap_ratio().unwrap_or(f64::NAN),
            ),
            PlanRule::LowOverlap => format!(
                "Σ|Jᵢ|/|∪Jᵢ| ≈ {:.3} is near 1: joins barely overlap, so the union \
                 trick — one join per draw, a tuple kept only by its designated \
                 join — rarely rejects",
                self.stats.overlap_ratio().unwrap_or(f64::NAN),
            ),
            PlanRule::HighOverlap => format!(
                "Σ|Jᵢ|/|∪Jᵢ| ≈ {:.3}: overlapping joins make Bernoulli \
                 rejection-heavy, so use Algorithm 1's non-Bernoulli cover \
                 selection, which wastes no samples",
                self.stats.overlap_ratio().unwrap_or(f64::NAN),
            ),
            PlanRule::Explicit => "the caller pinned this configuration on the builder; no \
                 planner rule was consulted"
                .to_string(),
        };
        out.push_str(&format!(
            "rule: {} — {} [{}]\n",
            self.rule.name(),
            detail,
            self.rule.citation()
        ));
        out.push_str(&format!(
            "stats: joins={} base_rows={} Σ|Jᵢ|≈{} |∪Jᵢ|≈{} skew≈{} sizing={}",
            self.stats.n_joins,
            self.stats.total_base_rows,
            fmt_opt(self.stats.sum_join_sizes()),
            fmt_opt(self.stats.union_size_hint),
            fmt_opt(self.stats.size_skew()),
            self.sizing.map_or("none", Labeled::label),
        ));
        out
    }
}

impl Labeled for Sizing {
    const TABLE: &'static [(Self, &'static str)] = &[
        (Sizing::Exact, "exact"),
        (Sizing::Histogram, "histogram"),
        (Sizing::Walk, "walk"),
        (Sizing::Bound, "bound"),
    ];
}

impl Labeled for CoverStrategy {
    const TABLE: &'static [(Self, &'static str)] = &[
        (CoverStrategy::AsGiven, "as-given"),
        (CoverStrategy::DescendingSize, "descending-size"),
    ];
}

impl Labeled for PredicateMode {
    const TABLE: &'static [(Self, &'static str)] = &[
        (PredicateMode::PushDown, "push-down"),
        (PredicateMode::Reject, "reject"),
    ];
}

impl Labeled for PlanRule {
    const TABLE: &'static [(Self, &'static str)] = &[
        (PlanRule::DisjointSemantics, "disjoint-semantics"),
        (PlanRule::SingleJoin, "single-join"),
        (PlanRule::NoStatistics, "no-statistics"),
        (PlanRule::LowOverlap, "low-overlap"),
        (PlanRule::HighOverlap, "high-overlap"),
        (PlanRule::CyclicJoin, "cyclic-join"),
        (PlanRule::Explicit, "explicit"),
    ];
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use suj_storage::{Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn chain(name: &str, a: Vec<Vec<i64>>, b: Vec<Vec<i64>>) -> Arc<suj_join::JoinSpec> {
        Arc::new(
            suj_join::JoinSpec::chain(
                name,
                vec![
                    rel(&format!("{name}_r"), &["a", "b"], a),
                    rel(&format!("{name}_s"), &["b", "c"], b),
                ],
            )
            .unwrap(),
        )
    }

    /// Two joins with zero value overlap.
    fn disjoint_data_workload() -> Arc<UnionWorkload> {
        let j1 = chain(
            "j1",
            vec![vec![1, 10], vec![2, 20]],
            vec![vec![10, 100], vec![20, 200]],
        );
        let j2 = chain(
            "j2",
            vec![vec![7, 70], vec![8, 80]],
            vec![vec![70, 700], vec![80, 800]],
        );
        Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
    }

    /// Two identical joins (total overlap).
    fn identical_workload() -> Arc<UnionWorkload> {
        let rows_r = vec![vec![1, 10], vec![2, 20], vec![3, 20]];
        let rows_s = vec![vec![10, 100], vec![20, 200]];
        let j1 = chain("j1", rows_r.clone(), rows_s.clone());
        let j2 = chain("j2", rows_r, rows_s);
        Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap())
    }

    #[test]
    fn low_overlap_picks_bernoulli() {
        let w = disjoint_data_workload();
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::LowOverlap);
        assert!(matches!(plan.strategy, Strategy::Bernoulli(_)));
        let explain = plan.explain();
        assert!(explain.contains("§3"), "{explain}");
        assert!(explain.contains("Bernoulli"), "{explain}");
    }

    #[test]
    fn high_overlap_picks_rejection() {
        let w = identical_workload();
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::HighOverlap);
        assert!(matches!(plan.strategy, Strategy::Rejection(_)));
        assert!(plan.summary().cover.is_some());
        let explain = plan.explain();
        assert!(explain.contains("§4"), "{explain}");
        assert!(explain.contains("cover"), "{explain}");
    }

    #[test]
    fn disjoint_semantics_always_wins() {
        let w = identical_workload();
        let plan = Planner::default().plan(&w, UnionSemantics::Disjoint);
        assert_eq!(plan.rule, PlanRule::DisjointSemantics);
        assert!(matches!(plan.strategy, Strategy::Disjoint));
        assert!(plan.explain().contains("Definition 1"));
    }

    #[test]
    fn single_join_needs_no_union_machinery() {
        let j = chain("only", vec![vec![1, 10]], vec![vec![10, 100]]);
        let w = Arc::new(UnionWorkload::new(vec![j]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::SingleJoin);
        assert!(matches!(plan.strategy, Strategy::Disjoint));
    }

    #[test]
    fn no_statistics_plans_owner_sampler() {
        let w = identical_workload();
        let plan = Planner::without_statistics().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::NoStatistics);
        assert!(matches!(
            plan.strategy,
            Strategy::Bernoulli(DesignationPolicy::Oracle)
        ));
        assert_eq!(plan.weights, Some(WeightKind::Exact));
        // Designation reads no estimate and builds no cover.
        let summary = plan.summary();
        assert!(summary.estimator.is_none() && summary.cover.is_none());
        let explain = plan.explain();
        assert!(explain.contains("§3"), "{explain}");
        assert!(explain.contains("membership"), "{explain}");
    }

    #[test]
    fn tiny_workloads_get_exact_estimation() {
        let w = identical_workload();
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert!(matches!(
            plan.strategy,
            Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Exact,
                ..
            })
        ));
    }

    #[test]
    fn big_workloads_get_histogram_estimation() {
        // Two identical chains over 300 + 20 rows each: past
        // `EXACT_MAX_BASE_ROWS`.
        let side = |name| {
            chain(
                name,
                (0..300).map(|i| vec![i, i % 20]).collect(),
                (0..20).map(|b| vec![b, 100 + b]).collect(),
            )
        };
        let w = UnionWorkload::new(vec![side("j1"), side("j2")]).unwrap();
        let (plan, given) = Planner::default().plan_with_given(&w, UnionSemantics::Set);
        assert!(plan.stats.total_base_rows > EXACT_MAX_BASE_ROWS);
        assert!(matches!(
            plan.strategy,
            Strategy::Rejection(UnionSamplerConfig {
                estimator: Estimator::Histogram(_),
                ..
            })
        ));
        assert!(matches!(plan.weights, Some(WeightKind::Exact)));
        // The plan keeps the probe's estimator, so the probed map is
        // handed to the freeze instead of being estimated again.
        assert!(given.map.is_some());
    }

    #[test]
    fn empty_join_workload_still_plans() {
        let j1 = chain("full", vec![vec![1, 10]], vec![vec![10, 100]]);
        let j2 = chain("empty", vec![], vec![]);
        let w = Arc::new(UnionWorkload::new(vec![j1, j2]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        // The empty join adds nothing to either Σ|Jᵢ| or |∪|: ratio 1.
        assert_eq!(plan.rule, PlanRule::LowOverlap);
    }

    fn triangle(name: &str, shift: i64) -> Arc<suj_join::JoinSpec> {
        let s = shift;
        Arc::new(
            suj_join::JoinSpec::natural(
                name,
                vec![
                    rel(
                        &format!("{name}_x"),
                        &["a", "b"],
                        vec![vec![1 + s, 2 + s], vec![1 + s, 9 + s]],
                    ),
                    rel(
                        &format!("{name}_y"),
                        &["b", "c"],
                        vec![vec![2 + s, 3 + s], vec![9 + s, 3 + s]],
                    ),
                    rel(&format!("{name}_z"), &["c", "a"], vec![vec![3 + s, 1 + s]]),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn cyclic_union_routes_to_agm_box_before_statistics() {
        let w = Arc::new(UnionWorkload::new(vec![triangle("t1", 0), triangle("t2", 100)]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::CyclicJoin);
        assert!(matches!(plan.strategy, Strategy::Rejection(_)));
        assert_eq!(plan.weights, Some(WeightKind::AgmBox));
        let summary = plan.summary();
        assert_eq!(summary.rule, Some("cyclic-join"));
        assert_eq!(summary.weights, Some("agm-box"));
        let explain = plan.explain();
        assert!(explain.contains("AGM"), "{explain}");
        assert!(explain.contains("cyclic-join"), "{explain}");
        assert!(explain.contains("Atserias"), "{explain}");
    }

    #[test]
    fn single_cyclic_join_goes_disjoint_with_agm_weights() {
        let w = Arc::new(UnionWorkload::new(vec![triangle("t", 0)]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::CyclicJoin);
        assert!(matches!(plan.strategy, Strategy::Disjoint));
        assert_eq!(plan.weights, Some(WeightKind::AgmBox));
    }

    #[test]
    fn mixed_cyclic_acyclic_union_still_routes_to_agm_box() {
        let acyc = chain("c", vec![vec![1, 10]], vec![vec![10, 100]]);
        let w = Arc::new(UnionWorkload::new(vec![acyc, triangle("t", 0)]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        assert_eq!(plan.rule, PlanRule::CyclicJoin);
        assert_eq!(plan.weights, Some(WeightKind::AgmBox));
    }

    #[test]
    fn disjoint_semantics_on_cyclic_workload_keeps_agm_weights() {
        let w = Arc::new(UnionWorkload::new(vec![triangle("t1", 0), triangle("t2", 100)]).unwrap());
        let plan = Planner::default().plan(&w, UnionSemantics::Disjoint);
        assert_eq!(plan.rule, PlanRule::DisjointSemantics);
        assert_eq!(plan.weights, Some(WeightKind::AgmBox));
    }

    #[test]
    fn acyclic_plans_still_use_exact_weights() {
        let plan = Planner::default().plan(&identical_workload(), UnionSemantics::Set);
        assert_eq!(plan.weights, Some(WeightKind::Exact));
        assert_eq!(plan.summary().weights, Some("exact"));
    }

    #[test]
    fn stats_expose_ratio_and_skew() {
        let stats = WorkloadStats::probe(&identical_workload());
        assert!(stats.available());
        let ratio = stats.overlap_ratio().unwrap();
        assert!(
            ratio > 1.5,
            "two identical joins must look overlapping: {ratio}"
        );
        assert!(stats.size_skew().unwrap() >= 1.0);
    }

    #[test]
    fn summary_records_rule_and_config() {
        let w = identical_workload();
        let plan = Planner::default().plan(&w, UnionSemantics::Set);
        let summary = plan.summary();
        assert_eq!(summary.strategy, "rejection");
        assert_eq!(summary.rule, Some("high-overlap"));
        assert!(summary.cover.is_some());
    }

    #[test]
    fn acyclic_stats_carry_exact_sizes() {
        let w = identical_workload();
        let (plan, given) = Planner::default().plan_with_given(&w, UnionSemantics::Set);
        // Each member joins to exactly (1,10,100),(2,20,200),(3,20,200).
        assert_eq!(plan.stats.size_hints.as_deref(), Some(&[3.0, 3.0][..]));
        // The union estimate is clamped into the bracket the exact
        // member sizes prove: [max |Jᵢ|, Σ|Jᵢ|].
        let union = plan.stats.union_size_hint.unwrap();
        assert!(
            (3.0..=6.0).contains(&union),
            "union {union} outside bracket"
        );
        // The samplers built for the probe are handed over for freeze
        // reuse; tiny data plans exact estimation, so no map is.
        assert_eq!(given.samplers.map(|s| s.len()), Some(2));
        assert!(given.map.is_none());
        // What the sampler sizes by is the freeze's to stamp.
        assert_eq!(plan.sizing, None);
        assert!(plan.explain().contains("sizing=none"), "{}", plan.explain());
    }

    #[test]
    fn cyclic_plans_never_claim_exact_sizes() {
        let w = Arc::new(UnionWorkload::new(vec![triangle("t1", 0), triangle("t2", 100)]).unwrap());
        let (plan, given) = Planner::default().plan_with_given(&w, UnionSemantics::Set);
        // No Exact-Weight probe on a cyclic workload: no samplers are
        // handed over and the hints stay the histogram's bounds.
        assert!(given.samplers.is_none());
        assert!(plan.stats.available());
    }

    #[test]
    fn without_statistics_skips_exact_size_probe() {
        let (plan, given) = Planner::without_statistics()
            .plan_with_given(&identical_workload(), UnionSemantics::Set);
        assert!(!plan.stats.available());
        assert!(given.samplers.is_none() && given.map.is_none());
    }

    /// Everything a gather hands on, bit for bit, and the draws of the
    /// query frozen from it.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        summary: String,
        size_hints: Option<Vec<u64>>,
        union_size_hint: Option<u64>,
        map: Option<Vec<u8>>,
        artifacts: Option<Vec<Option<Vec<u8>>>>,
        draws: Vec<Vec<suj_storage::Tuple>>,
    }

    fn gathered_on(planner: &Planner, workload: &Arc<UnionWorkload>, threads: usize) -> Outcome {
        use crate::session::{freeze, FreezeConfig, DEFAULT_ROOT_SEED};
        use suj_storage::snapshot::Codec;
        let (plan, given) = planner.plan_on(workload, UnionSemantics::Set, threads);
        let size_hints = plan.stats.size_hints.as_ref();
        let size_hints = size_hints.map(|h| h.iter().map(|x| x.to_bits()).collect());
        let union_size_hint = plan.stats.union_size_hint.map(f64::to_bits);
        let map = given.map.as_ref().map(Codec::to_bytes);
        let artifacts = given.samplers.as_ref().map(|samplers| {
            let artifacts = samplers.iter().map(|s| s.as_exact().map(|e| e.artifacts()));
            artifacts.map(|a| a.as_ref().map(Codec::to_bytes)).collect()
        });
        let config = FreezeConfig {
            plan,
            reject_predicate: None,
            root_seed: DEFAULT_ROOT_SEED,
            source: None,
        };
        let prepared = freeze(workload.clone(), config, given).unwrap();
        let draws = [1, 2, 3].map(|seed| prepared.sample(64, seed).unwrap().0);
        Outcome {
            summary: prepared.summary().to_string(),
            size_hints,
            union_size_hint,
            map,
            artifacts,
            draws: draws.into(),
        }
    }

    #[test]
    fn fan_out_width_changes_no_plan() {
        use suj_tpch::{uq1, uq2, uq3, UqOptions};
        // The TPC-H workloads come from the library build of this
        // crate; their joins make this build's workload.
        let tpch = |joins: &[Arc<suj_join::JoinSpec>]| {
            Arc::new(UnionWorkload::new(joins.to_vec()).unwrap())
        };
        let algorithm1 = Planner::new(PlannerConfig {
            bernoulli_max_overlap_ratio: 0.0,
            ..PlannerConfig::default()
        });
        let uq1 = tpch(uq1(&UqOptions::new(4, 7, 0.2)).unwrap().joins());
        let cases = [
            ("uq1@4", Planner::default(), uq1.clone()),
            (
                "uq2@8, threshold 0",
                algorithm1,
                tpch(uq2(&UqOptions::new(8, 7, 0.2)).unwrap().joins()),
            ),
            (
                "uq3@2",
                Planner::default(),
                tpch(uq3(&UqOptions::new(2, 7, 0.2)).unwrap().joins()),
            ),
            (
                "two triangles",
                Planner::default(),
                Arc::new(UnionWorkload::new(vec![triangle("t1", 0), triangle("t2", 100)]).unwrap()),
            ),
            ("uq1@4, no statistics", Planner::without_statistics(), uq1),
        ];
        for (name, planner, workload) in cases {
            let alone = gathered_on(&planner, &workload, 1);
            assert_eq!(alone, gathered_on(&planner, &workload, 4), "{name}");
        }
    }
}
