//! Statistics substrate for the sampling-over-union-of-joins framework.
//!
//! This crate bundles the numerical machinery the paper's estimators rely
//! on, kept independent of any relational concept so it can be tested in
//! isolation:
//!
//! * [`rng`] — a seedable pseudo-random number generator facade so the rest
//!   of the workspace never touches the `rand` API surface directly.
//! * [`running`] — Welford running moments (mean / variance / merge).
//! * [`ht`] — the Horvitz–Thompson size estimator used by wander join
//!   (§6.1 of the paper), with online updates.
//! * [`ci`] — normal-approximation confidence intervals and z-values.
//! * [`chi2`] — chi-square goodness-of-fit testing, used by the test suite
//!   to check sampler uniformity against materialized ground truth.
//! * [`sample`] — categorical sampling by cumulative weights, Zipf
//!   ranks included.
//! * [`arena`] — flat arenas of alias tables (one Walker/Vose table per
//!   key id, shared slabs) powering the Exact-Weight alias cascade.
//! * [`binom`] — exact binomial coefficients for the k-overlap recurrence
//!   (Theorem 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod binom;
pub mod chi2;
pub mod ci;
pub mod ht;
pub mod rng;
pub mod running;
pub mod sample;

pub use arena::{AliasArena, AliasArenaBuilder};
pub use binom::binomial;
pub use chi2::{chi_square_statistic, chi_square_test, ChiSquareOutcome};
pub use ci::{half_width, z_value, ConfidenceInterval};
pub use ht::HorvitzThompson;
pub use rng::SujRng;
pub use running::RunningMoments;
pub use sample::Categorical;
