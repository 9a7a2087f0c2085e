//! Join specifications, execution, and random sampling over joins.
//!
//! This crate is the "sampling over a single join" substrate the union
//! framework builds on (§3.2 of the paper adopts Zhao et al.'s SIGMOD'18
//! framework as its subroutine; we implement it from scratch here):
//!
//! * [`spec`] — multi-way equi-join specifications over named relations
//!   with natural-join semantics and canonical output schemas.
//! * [`graph`] — join graph analysis: connectivity, GYO hypergraph
//!   acyclicity, chain/acyclic/cyclic classification.
//! * [`tree`] — rooted join trees (the processing order for execution
//!   and sampling).
//! * [`exec`] — full join materialization (the `FullJoinUnion` baseline's
//!   engine) via pipelined hash joins.
//! * [`membership`] — the membership oracle: decide `t ∈ J` with hash
//!   lookups only (§6.2's "(N−1)×(M−1) queries with key").
//! * [`bounds`] — extended Olken join-size upper bounds (§3.2).
//! * [`weights`] — Exact-Weight and Extended-Olken weight instantiation
//!   plus the accept/reject samplers built on them.
//! * [`wander`] — wander-join random walks and the walk-based uniform
//!   sampler (§6.1).
//! * [`cyclic`] — AGM-bound box-splitting sampling for graph-cyclic
//!   joins: LP-free fractional edge covers plus a box descent over
//!   sorted-index range oracles (exactly uniform, no residual
//!   re-check).
//! * [`residual`] — cyclic joins: cycle breaking into a skeleton join
//!   plus a materialized residual relation (§8.2).
//! * [`template`] — the splitting method: standard templates, pairwise
//!   attribute scores, two-attribute split joins with degree-bound
//!   propagation (§5.2, §8.1).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use suj_join::{JoinSpec, JoinSampler, RowDraw, WeightKind};
//! use suj_join::weights::build_sampler;
//! use suj_stats::SujRng;
//! use suj_storage::{Relation, Schema, Tuple, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r = Arc::new(Relation::new("r", Schema::new(["a", "b"])?, vec![
//!     Tuple::new(vec![Value::int(1), Value::int(10)]),
//!     Tuple::new(vec![Value::int(2), Value::int(10)]),
//! ])?);
//! let s = Arc::new(Relation::new("s", Schema::new(["b", "c"])?, vec![
//!     Tuple::new(vec![Value::int(10), Value::int(7)]),
//! ])?);
//! let spec = Arc::new(JoinSpec::chain("demo", vec![r, s])?);
//!
//! // Exact-weight sampling: uniform over the join result, no rejection.
//! let sampler = build_sampler(spec, WeightKind::Exact)?;
//! assert_eq!(sampler.size_info().exact, Some(2));
//! let mut rng = SujRng::seed_from_u64(1);
//! let mut draw = RowDraw::new();
//! assert!(sampler.sample_rows(&mut rng, &mut draw), "EW never rejects here");
//! assert_eq!(sampler.materialize(&draw).arity(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cyclic;
pub mod error;
pub mod exec;
pub mod graph;
pub mod membership;
pub mod residual;
pub mod spec;
pub mod template;
pub mod tree;
pub mod wander;
pub mod weights;

/// Commonly used items — the crate's public vocabulary, listed once;
/// the crate root re-exports exactly this set.
pub mod prelude {
    pub use crate::bounds::olken_bound;
    pub use crate::cyclic::{CyclicJoinSampler, FractionalEdgeCover};
    pub use crate::error::JoinError;
    pub use crate::exec::JoinResult;
    pub use crate::graph::JoinShape;
    pub use crate::membership::{membership_builds, MembershipOracle};
    pub use crate::residual::decompose_cyclic;
    pub use crate::spec::{JoinEdge, JoinSpec};
    pub use crate::template::{SplitJoin, Template};
    pub use crate::tree::JoinTree;
    pub use crate::wander::{WanderJoin, WanderSampler};
    pub use crate::weights::{
        alias_builds, EwArtifacts, ExactWeightSampler, JoinSampler, OlkenSampler, RowDraw,
        SizeInfo, WeightKind,
    };
}

pub use prelude::*;
