//! Lazy, incremental consumption of any [`UnionSampler`].
//!
//! [`SampleStream`] adapts a sampler's [`Draw`]
//! event stream into an `Iterator<Item = Result<Tuple, CoreError>>`, so
//! Algorithm 2's backtracking/refinement runs *while* the caller
//! consumes samples, and the caller can stop at any point — no batch
//! size decided up front:
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
//! # let workload = Arc::new(UnionWorkload::new(vec![Arc::new(j1)])?);
//! let config = UnionSamplerConfig { estimator: Estimator::Exact, ..Default::default() };
//! let mut sampler = SamplerBuilder::for_workload(workload)
//!     .strategy(Strategy::Rejection(config))
//!     .build()?;
//! let mut rng = SujRng::seed_from_u64(7);
//! let first_three: Vec<Tuple> = SampleStream::over(&mut sampler, &mut rng)
//!     .take(3)
//!     .collect::<Result<_, _>>()?;
//! assert_eq!(first_three.len(), 3);
//! # Ok(())
//! # }
//! ```
//!
//! # Retraction semantics
//!
//! A stream cannot un-yield a tuple it already handed to the caller, so
//! [`Draw::Retract`](crate::sampler::Draw) events are counted (see
//! [`SampleStream::retracted`]) rather than applied. For samplers that
//! never retract (disjoint, Bernoulli, Algorithm 1 with the membership
//! oracle policy) the stream is exactly i.i.d. uniform; for the record
//! policy and Algorithm 2 it carries the same asymptotic-uniformity
//! guarantee the paper proves for their output. Callers needing exact
//! finite-sample semantics under retraction should use
//! [`UnionSampler::sample`] instead. A reject-mode predicate adds no
//! events: a tuple it fails is never emitted, so it is never retracted
//! either.

use crate::error::CoreError;
use crate::sampler::{Draw, UnionSampler};
use suj_stats::SujRng;
use suj_storage::Tuple;

/// A lazy iterator of i.i.d. samples over a built sampler.
///
/// The stream is infinite (sampling is with replacement) — bound it
/// with [`Iterator::take`]. After the first error the stream fuses and
/// yields `None`.
pub struct SampleStream<'a, S: UnionSampler + ?Sized> {
    sampler: &'a mut S,
    rng: &'a mut SujRng,
    retracted: u64,
    yielded: u64,
    failed: bool,
}

impl<'a, S: UnionSampler + ?Sized> SampleStream<'a, S> {
    /// Streams over any sampler: a concrete one, a
    /// `Box<dyn UnionSampler>`, or a `&mut dyn UnionSampler`.
    pub fn over(sampler: &'a mut S, rng: &'a mut SujRng) -> Self {
        Self {
            sampler,
            rng,
            retracted: 0,
            yielded: 0,
            failed: false,
        }
    }

    /// Tuples yielded so far.
    pub fn yielded(&self) -> u64 {
        self.yielded
    }

    /// Retraction events observed so far (revision / backtracking of
    /// already-yielded samples).
    pub fn retracted(&self) -> u64 {
        self.retracted
    }

    /// The underlying sampler's cumulative report.
    pub fn report(&self) -> &crate::report::RunReport {
        self.sampler.report()
    }
}

impl<S: UnionSampler + ?Sized> Iterator for SampleStream<'_, S> {
    type Item = Result<Tuple, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            match self.sampler.draw(self.rng) {
                Ok(Draw::Tuple(_, t)) => {
                    self.yielded += 1;
                    return Some(Ok(t));
                }
                Ok(Draw::Retract(_)) => {
                    self.retracted += 1;
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{CoverPolicy, SetUnionSampler, UnionSamplerConfig};
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, Estimator, SamplerBuilder, Strategy};
    use crate::workload::UnionWorkload;
    use std::sync::Arc;
    use suj_storage::{Relation, Schema, Value};

    fn workload() -> Arc<UnionWorkload> {
        let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
            let tuples = rows
                .iter()
                .map(|&(x, y)| suj_storage::Tuple::new(vec![Value::int(x), Value::int(y)]))
                .collect();
            Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
        };
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r1", ["a", "b"], &[(1, 10), (2, 10), (3, 20)]),
                rel("s1", ["b", "c"], &[(10, 100), (20, 200)]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel("r2", ["a", "b"], &[(1, 10), (9, 90)]),
                rel("s2", ["b", "c"], &[(10, 100), (90, 900)]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    /// Algorithm 1 with the never-retracting oracle policy over exact
    /// parameters.
    fn oracle_sampler(w: Arc<UnionWorkload>) -> Box<dyn UnionSampler + Send> {
        let config = UnionSamplerConfig {
            estimator: Estimator::Exact,
            policy: CoverPolicy::MembershipOracle,
            ..Default::default()
        };
        SamplerBuilder::for_workload(w)
            .strategy(Strategy::Rejection(config))
            .build()
            .unwrap()
    }

    #[test]
    fn stream_yields_members_lazily() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = oracle_sampler(w);
        let mut rng = SujRng::seed_from_u64(1);
        let samples: Vec<_> = SampleStream::over(&mut sampler, &mut rng)
            .take(50)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(samples.len(), 50);
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
    }

    #[test]
    fn oracle_stream_matches_batch_seed_for_seed() {
        let w = workload();
        let mut a = oracle_sampler(w.clone());
        let mut b = oracle_sampler(w);
        let mut rng_a = SujRng::seed_from_u64(2);
        let mut rng_b = SujRng::seed_from_u64(2);
        let (batch, _) = a.sample(100, &mut rng_a).unwrap();
        let streamed: Vec<_> = SampleStream::over(&mut b, &mut rng_b)
            .take(100)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn stream_fuses_after_error() {
        let w = workload();
        // A zero overlap map → empty union → draw errors.
        let map = crate::overlap::OverlapMap::new(2, vec![0.0; 4]).unwrap();
        let config = UnionSamplerConfig::default();
        let samplers = shared_samplers(&w, suj_join::WeightKind::Exact).unwrap();
        let mut sampler = SetUnionSampler::new(w, &map, config, samplers, None).unwrap();
        let mut rng = SujRng::seed_from_u64(3);
        let mut stream = SampleStream::over(&mut sampler, &mut rng);
        assert!(matches!(stream.next(), Some(Err(_))));
        assert!(stream.next().is_none());
    }
}
