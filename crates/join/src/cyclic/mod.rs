//! Cyclic-join sampling: AGM-bound box splitting over sorted-index
//! range oracles.
//!
//! The tree-walk samplers ([`ExactWeightSampler`], [`OlkenSampler`],
//! [`WanderSampler`]) handle cyclic joins by walking a spanning tree
//! and rejecting draws that violate the dropped cycle-closing
//! equalities — correct, but the rejection rate degrades with how much
//! the dropped edges filter. This module provides the structurally
//! cyclic alternative: a sampler whose acceptance probability is
//! governed by the AGM output bound instead.
//!
//! * [`cover`] — LP-free fractional edge covers (exact for cycles and
//!   cliques, greedy integral fallback) and the [`agm_bound`] they
//!   parameterize.
//! * [`sampler`] — [`CyclicJoinSampler`], the box-splitting descent:
//!   repeatedly halve a box of the output space, branching with
//!   probability proportional to each half's AGM bound, until every
//!   attribute is pinned; accepted draws are exactly uniform over the
//!   (bag-semantics) join result.
//!
//! The storage half lives in [`suj_storage::sorted`]: per-relation
//! sorted permutations whose O(1) distinct counts and order-preserving
//! `i64` key runs make each split one `partition_point` per relation.
//!
//! [`ExactWeightSampler`]: crate::weights::ExactWeightSampler
//! [`OlkenSampler`]: crate::weights::OlkenSampler
//! [`WanderSampler`]: crate::wander::WanderSampler

pub mod cover;
pub mod sampler;

pub use cover::{agm_bound, CoverKind, FractionalEdgeCover};
pub use sampler::CyclicJoinSampler;
