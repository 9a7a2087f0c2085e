//! TPC-H style data generation and the paper's union workloads (§9).
//!
//! The evaluation "uses three datasets consisting of different types of
//! joins tailored from the TPC-H benchmark", generated with TPCH-DBGen
//! at various scales and overlap ratios. This crate is the dbgen
//! substitute: a deterministic, seeded generator producing the eight
//! TPC-H tables with the official cardinality ratios at laptop scales,
//! plus builders for the three union workloads:
//!
//! * **UQ1** — five chain joins over nation ⋈ supplier ⋈ customer ⋈
//!   orders ⋈ lineitem, one per database variant, with a controllable
//!   overlap scale `P%` (a `P%` prefix of each base relation is shared
//!   across variants, the rest re-drawn per variant).
//! * **UQ2** — three chain joins over region ⋈ nation ⋈ supplier ⋈
//!   partsupp ⋈ part on the *same* data with different selection
//!   predicates pushed down (`Q2_N ∪ Q2_P ∪ Q2_S`) — a large-overlap
//!   workload.
//! * **UQ3** — one acyclic join and two chain joins over supplier,
//!   customer, and orders, split vertically and horizontally into
//!   different schemas — the workload that exercises the splitting
//!   method (§5.2) and template selection (§8.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod tables;
pub mod text;
pub mod workload;

/// Commonly used items — the crate's public vocabulary, listed once;
/// the crate root re-exports exactly this set.
pub mod prelude {
    pub use crate::gen::{generate_catalog, TpchConfig};
    pub use crate::workload::{uq1, uq2, uq3, uq4_cyclic, UqOptions};
}

pub use prelude::*;
