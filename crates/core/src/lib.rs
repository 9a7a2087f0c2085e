//! Sampling over the union of joins — the paper's primary contribution.
//!
//! Given joins `S = {J_1 … J_n}` with a common output schema, this crate
//! returns independent uniform samples from `J_1 ∪ … ∪ J_n` (set union)
//! or `J_1 ⊎ … ⊎ J_n` (disjoint union) without materializing any join:
//!
//! * [`workload`] — a validated union workload: joins canonicalized to a
//!   shared attribute order, with membership oracles.
//! * [`overlap`] — the `OverlapMap` over all join subsets, k-overlap
//!   decomposition `A_j^k` (Theorem 3), union size (Eq. 1), and
//!   inclusion–exclusion cover sizes (§3.1).
//! * [`exact`] — the `FullJoinUnion` ground-truth baseline (§9).
//! * [`hist_estimator`] — the histogram-based overlap estimator
//!   (Theorem 4 over split joins; §5, §8).
//! * [`walk_estimator`] — the random-walk overlap estimator with the
//!   Eq. 3 confidence interval (§6), producing the reuse pools.
//! * [`cover`] — cover construction over join orderings.
//! * [`disjoint`] — one join per draw, in proportion to its sampler's
//!   size bound: the disjoint union (Definition 1), and the set union
//!   under the §3 union trick's designation rule.
//! * [`algorithm1`] — non-Bernoulli union sampling with rejection and
//!   revision (Algorithm 1).
//! * [`algorithm2`] — online union sampling with sample reuse and
//!   backtracking (Algorithm 2, §7).
//! * [`predicate_mode`] — selection predicates: push-down and
//!   reject-during-sampling (§8.3).
//! * [`report`] — run reports: acceptance/rejection/revision counters
//!   and phase timing breakdowns (Fig. 5f–h).
//! * [`sampler`] — the unified [`UnionSampler`] trait (a `Send`
//!   object-safe surface) and its incremental [`Draw`] event model.
//! * [`session`] — the fluent [`SamplerBuilder`]: strategy selection
//!   (Algorithm 1's with its estimator and cover), weights, predicate
//!   push-down, all in one validated place; [`SamplerBuilder::freeze`] yields the `Send + Sync`
//!   [`PreparedQuery`] that mints independent per-thread handles.
//! * [`serve`] — [`SamplingService`]: a slot gate serving deterministic
//!   sampling requests over a shared engine on the callers' threads,
//!   at most `workers` at once.
//! * [`snapshot`] — engine snapshot persistence: save/restore the
//!   catalog and every cached prepared query with its frozen estimated
//!   parameters, so a cold replica serves without re-estimating.
//! * [`stream`] — [`SampleStream`], lazy iteration over any built
//!   sampler.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use suj_core::prelude::*;
//! use suj_join::JoinSpec;
//! use suj_stats::SujRng;
//! use suj_storage::{Relation, Schema, Tuple, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
//!     let tuples = rows.iter()
//!         .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
//!         .collect();
//!     Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
//! };
//! // Two joins with one shared result tuple.
//! let j1 = JoinSpec::chain("j1", vec![
//!     rel("r1", ["a", "b"], &[(1, 10), (2, 20)]),
//!     rel("s1", ["b", "c"], &[(10, 100), (20, 200)]),
//! ])?;
//! let j2 = JoinSpec::chain("j2", vec![
//!     rel("r2", ["a", "b"], &[(1, 10), (3, 30)]),
//!     rel("s2", ["b", "c"], &[(10, 100), (30, 300)]),
//! ])?;
//!
//! // One validated pipeline: strategy (Algorithm 1 over exact
//! // parameters) → sampler.
//! let config = UnionSamplerConfig { estimator: Estimator::Exact, ..Default::default() };
//! let mut sampler = SamplerBuilder::for_joins(vec![Arc::new(j1), Arc::new(j2)])?
//!     .strategy(Strategy::Rejection(config))
//!     .build()?;
//! let mut rng = SujRng::seed_from_u64(7);
//!
//! // Batch…
//! let (samples, _report) = sampler.sample(5, &mut rng)?;
//! assert_eq!(samples.len(), 5);
//!
//! // …or lazy streaming with early stop.
//! let trickle: Vec<Tuple> = SampleStream::over(&mut sampler, &mut rng)
//!     .take(2)
//!     .collect::<Result<_, _>>()?;
//! assert_eq!(trickle.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod algorithm2;
pub mod catalog;
pub mod cover;
pub mod disjoint;
mod draw_step;
pub mod error;
pub mod exact;
mod fan_out;
pub mod hist_estimator;
pub mod overlap;
pub mod planner;
pub mod predicate_mode;
pub mod query;
mod record;
pub mod report;
pub mod sampler;
pub mod serve;
pub mod session;
pub mod snapshot;
pub mod stream;
pub mod walk_estimator;
pub mod workload;

/// Commonly used items — the crate's public vocabulary, listed once;
/// the crate root re-exports exactly this set.
pub mod prelude {
    pub use crate::algorithm1::{CoverPolicy, UnionSamplerConfig};
    pub use crate::algorithm2::{OnlineConfig, OnlineParts, OnlineUnionSampler};
    pub use crate::catalog::{Catalog, Engine, PreparedQuery};
    pub use crate::cover::{Cover, CoverStrategy};
    pub use crate::disjoint::DesignationPolicy;
    pub use crate::error::CoreError;
    pub use crate::exact::{full_join_union, ExactUnion};
    pub use crate::hist_estimator::{DegreeMode, HistogramEstimator};
    pub use crate::overlap::OverlapMap;
    pub use crate::planner::{Plan, PlanRule, Planner, PlannerConfig, Sizing, WorkloadStats};
    pub use crate::predicate_mode::{can_push_down, push_down, PredicateMode};
    pub use crate::query::{JoinDef, ResolvedQuery, UnionQuery, UnionSemantics};
    pub use crate::report::{LatencyHistogram, PlanSummary, RunReport};
    pub use crate::sampler::{Draw, UnionSampler};
    pub use crate::serve::{
        RequestTarget, SampleRequest, SampleResponse, SamplingService, ServiceConfig, ServiceStats,
        SubmitError, Ticket,
    };
    pub use crate::session::{Estimator, HistogramOptions, SamplerBuilder, Strategy};
    pub use crate::stream::SampleStream;
    pub use crate::walk_estimator::{WalkEstimate, WalkEstimatorConfig};
    pub use crate::workload::{UnionWorkload, MAX_JOINS};
}

pub use prelude::*;
