//! The unified sampler abstraction every union sampler implements.
//!
//! The paper presents one problem — i.i.d. sampling from a union of
//! joins — realized by four algorithms (Algorithm 1 rejection sampling,
//! Algorithm 2 online sampling, the Bernoulli union trick, and disjoint
//! union sampling); the three a prepared query serves apply a
//! reject-mode selection predicate (§8.3) in their shared draw step.
//! [`UnionSampler`] is the
//! object-safe common surface: an incremental [`draw`](UnionSampler::draw)
//! producing one [`Draw`] event at a time, a cumulative
//! [`report`](UnionSampler::report), and a provided batch
//! [`sample`](UnionSampler::sample) built on top of
//! [`draw_block`](UnionSampler::draw_block), which is one `draw` unless
//! a sampler can overlap several (the one-join-per-draw sampler runs up
//! to 64 selections per block, bit-identical to one draw at a time). The
//! batch checks its deadline before every block and records each event's
//! latency as a share of its block's time.
//!
//! # The event model
//!
//! Uniformity devices in Algorithms 1 and 2 occasionally *remove*
//! previously produced samples: Algorithm 1's revision purges every
//! copy of a tuple whose cover ownership moves (lines 10–12), and
//! Algorithm 2's backtracking thins returned samples as parameter
//! estimates shift (§7). An incremental API must surface those
//! removals, so `draw` yields either
//!
//! * [`Draw::Tuple`] — the next accepted sample, or
//! * [`Draw::Retract`] — the *emission index* of an earlier
//!   `Draw::Tuple` that the algorithm has withdrawn.
//!
//! Batch consumers (the provided [`sample`](UnionSampler::sample))
//! honor retractions exactly, preserving the batch semantics of the
//! paper's algorithms (the equivalence suite pins the builder, trait,
//! and stream paths to one another seed-for-seed). Streaming consumers
//! ([`SampleStream`](crate::stream::SampleStream)) cannot unconsume an
//! already-yielded tuple; they count retractions instead, which leaves
//! the stream asymptotically uniform (the same guarantee the paper
//! proves for the record policy). Samplers that never retract —
//! disjoint union, Bernoulli designation, Algorithm 1 under
//! [`CoverPolicy::MembershipOracle`](crate::algorithm1::CoverPolicy) —
//! stream exactly i.i.d.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_stats::SujRng;
use suj_storage::{FxHashMap, Tuple};

/// One step of an incremental sampling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Draw {
    /// The next accepted sample, tagged with its emission index
    /// (indices are assigned in order of acceptance; burst copies
    /// queued inside the sampler keep the indices they were assigned
    /// at acceptance time, so a consumer can resolve any later
    /// [`Draw::Retract`] unambiguously).
    Tuple(u64, Tuple),
    /// Withdraws the sample with the given emission index (revision /
    /// backtracking). Consumers maintaining a sample set should drop
    /// that element; consumers that already released it may count the
    /// retraction instead.
    Retract(u64),
}

/// An incremental i.i.d. sampler over a union of joins.
///
/// Object safe: every built sampler is usable as
/// `Box<dyn UnionSampler>`, which is what
/// [`SamplerBuilder`](crate::session::SamplerBuilder) returns.
///
/// # Concurrency
///
/// `Send` is a supertrait: every sampler can move to a worker thread,
/// so `Box<dyn UnionSampler + Send>` handles minted by
/// [`PreparedQuery::sampler`](crate::catalog::PreparedQuery::sampler)
/// can be served from a [`SamplingService`](crate::serve::SamplingService)
/// pool. A sampler handle itself stays single-threaded (`draw` takes
/// `&mut self`); concurrency comes from minting one independent handle
/// per thread over shared frozen state, never from sharing a handle.
pub trait UnionSampler: Send {
    /// Advances the sampler until the next event.
    ///
    /// Returns [`Draw::Tuple`] for each accepted sample and
    /// [`Draw::Retract`] for each withdrawn one. Errors are
    /// non-recoverable for the current run (e.g. the union is
    /// estimated positive but every join is empty).
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError>;

    /// Advances the sampler by a block of events for a caller that
    /// still needs `demand ≥ 1` live tuples, handing each event to
    /// `sink` in order.
    ///
    /// A block is a whole number of the sampler's selection steps —
    /// exactly the ones successive [`draw`](UnionSampler::draw) calls
    /// would make, with the same events, counters and RNG advance —
    /// and never more than the caller's demand could need, so a batch
    /// built from blocks is bit-identical to one built from draws. A
    /// block may end without an event (its steps were all rejected).
    /// The default is one `draw`; a sampler that can overlap the work
    /// of several steps (see
    /// [`DisjointUnionSampler`](crate::disjoint::DisjointUnionSampler))
    /// runs up to 64 of them.
    fn draw_block(
        &mut self,
        demand: usize,
        rng: &mut SujRng,
        sink: &mut dyn FnMut(Draw),
    ) -> Result<(), CoreError> {
        let _ = demand;
        sink(self.draw(rng)?);
        Ok(())
    }

    /// Cumulative counters and timings since construction.
    fn report(&self) -> &RunReport;

    /// Mutable access to the report the sampler counts into. Exists so
    /// the builder and engine can stamp the resolved configuration
    /// ([`RunReport::config`]) into the sampler they assembled, and so
    /// a batch call can count into a fresh report; not intended for
    /// mutating counters.
    fn report_mut(&mut self) -> &mut RunReport;

    /// The workload being sampled.
    fn workload(&self) -> &Arc<UnionWorkload>;

    /// Whether this sampler can ever emit [`Draw::Retract`]. Samplers
    /// returning `false` (disjoint union, Bernoulli designation,
    /// Algorithm 1 under the membership-oracle policy) stream exactly
    /// i.i.d. and let a batch skip retraction bookkeeping.
    fn may_retract(&self) -> bool {
        true
    }

    /// Draws until `n` samples are *live* (emitted and not retracted),
    /// returning them with the report of this call.
    ///
    /// This reproduces the batch semantics of the paper's algorithms:
    /// retractions arriving during the batch remove their tuples from
    /// the batch (matched by emission index, so surplus copies queued
    /// across batch boundaries resolve correctly), and the loop
    /// continues until `n` live samples remain. Retractions of tuples
    /// returned by earlier calls are already out of reach; they are
    /// counted in the report only.
    fn sample(&mut self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.sample_within(n, rng, None)
    }

    /// [`sample`](UnionSampler::sample) with an optional deadline,
    /// checked before every [block](UnionSampler::draw_block) (at most
    /// 64 draws): once `deadline` passes the run aborts with
    /// [`CoreError::DeadlineExceeded`] instead of running unbounded.
    ///
    /// The check piggybacks on the latency timestamp — one clock read
    /// per block: the end of one block is the start of the next, and
    /// each of a block's events is recorded with an equal share of its
    /// time — so it costs nothing extra, and it never alters the draw
    /// sequence: a run that finishes before the deadline is
    /// bit-identical to [`sample`](UnionSampler::sample) with no
    /// deadline at all (the serving tier's determinism contract depends
    /// on this).
    ///
    /// The call counts into a fresh report (zero counters, the handle's
    /// configuration and footprint), which is merged into the handle's
    /// cumulative [`report`](UnionSampler::report) on every way out —
    /// a deadline or a draw error included — and returned on success.
    fn sample_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<Instant>,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        let fresh = self.report().fresh();
        let cumulative = std::mem::replace(self.report_mut(), fresh);
        let out = draw_live(self, n, rng, deadline);
        let call = std::mem::replace(self.report_mut(), cumulative);
        self.report_mut().merge(&call);
        Ok((out?, call))
    }
}

/// The batch loop of [`UnionSampler::sample_within`]: draws blocks
/// until `n` samples are live, recording each event's latency in the
/// sampler's report as its share of the time since the last event.
fn draw_live<S: UnionSampler + ?Sized>(
    sampler: &mut S,
    n: usize,
    rng: &mut SujRng,
    deadline: Option<Instant>,
) -> Result<Vec<Tuple>, CoreError> {
    let mut out: Vec<Tuple> = Vec::with_capacity(n);
    // Retraction books, kept only for samplers that can retract:
    // emission index → position in `out`, and which positions died.
    let books = sampler.may_retract();
    let mut position: FxHashMap<u64, usize> = FxHashMap::default();
    let mut removed: Vec<bool> = Vec::new();
    let mut live = 0usize;
    // `since` is where the time of events not yet recorded starts: a
    // block without an event passes its time on to the next event.
    let mut since = Instant::now();
    let mut now = since;
    while live < n {
        if deadline.is_some_and(|d| now >= d) {
            return Err(CoreError::DeadlineExceeded);
        }
        let mut events = 0u32;
        let block = sampler.draw_block(n - live, rng, &mut |event| {
            events += 1;
            match event {
                Draw::Tuple(idx, t) => {
                    if books {
                        position.insert(idx, out.len());
                        removed.push(false);
                    }
                    out.push(t);
                    live += 1;
                }
                Draw::Retract(idx) => {
                    // Indices absent from the map belong to earlier
                    // batches the caller already consumed.
                    if let Some(&i) = position.get(&idx) {
                        if !removed[i] {
                            removed[i] = true;
                            live -= 1;
                        }
                    }
                }
            }
        });
        now = Instant::now();
        // A failed draw is an event too, as it was when each draw was
        // timed on its own.
        let timed = events + u32::from(block.is_err());
        if timed > 0 {
            let latency = &mut sampler.report_mut().draw_latency;
            latency.record_shares(now - since, timed);
            since = now;
        }
        block?;
    }
    if live < out.len() {
        let mut dead = removed.into_iter();
        out.retain(|_| !dead.next().expect("one flag per emission"));
    }
    Ok(out)
}

impl<S: UnionSampler + ?Sized> UnionSampler for Box<S> {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        (**self).draw(rng)
    }

    fn report(&self) -> &RunReport {
        (**self).report()
    }

    fn report_mut(&mut self) -> &mut RunReport {
        (**self).report_mut()
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        (**self).workload()
    }

    fn may_retract(&self) -> bool {
        (**self).may_retract()
    }

    fn draw_block(
        &mut self,
        demand: usize,
        rng: &mut SujRng,
        sink: &mut dyn FnMut(Draw),
    ) -> Result<(), CoreError> {
        (**self).draw_block(demand, rng, sink)
    }

    fn sample(&mut self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        (**self).sample(n, rng)
    }

    fn sample_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<Instant>,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        (**self).sample_within(n, rng, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::UnionWorkload;
    use std::collections::VecDeque;
    use suj_storage::{Relation, Schema, Value};

    /// Scripted sampler: replays a fixed event sequence, mimicking a
    /// sampler whose queued burst copies straddle batch boundaries.
    struct Scripted {
        events: VecDeque<Draw>,
        /// Wall time each draw takes.
        pause: std::time::Duration,
        report: RunReport,
        workload: Arc<UnionWorkload>,
    }

    impl Scripted {
        fn new(events: Vec<Draw>) -> Self {
            let rel = Arc::new(
                Relation::new(
                    "r",
                    Schema::new(["a"]).unwrap(),
                    vec![Tuple::new(vec![Value::int(1)])],
                )
                .unwrap(),
            );
            let spec = suj_join::JoinSpec::chain("j", vec![rel]).unwrap();
            let workload = Arc::new(UnionWorkload::new(vec![Arc::new(spec)]).unwrap());
            Self {
                events: events.into(),
                pause: std::time::Duration::ZERO,
                report: RunReport::new(1),
                workload,
            }
        }
    }

    impl UnionSampler for Scripted {
        fn draw(&mut self, _rng: &mut SujRng) -> Result<Draw, CoreError> {
            std::thread::sleep(self.pause);
            let event = self.events.pop_front().expect("script exhausted");
            if let Draw::Tuple(..) = &event {
                self.report.accepted += 1;
            }
            self.events
                .push_back(Draw::Tuple(u64::MAX, Tuple::new(vec![Value::int(-1)]))); // padding so scripts never run dry mid-test
            Ok(event)
        }

        fn report(&self) -> &RunReport {
            &self.report
        }

        fn report_mut(&mut self) -> &mut RunReport {
            &mut self.report
        }

        fn workload(&self) -> &Arc<UnionWorkload> {
            &self.workload
        }
    }

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::int(v)])
    }

    /// `Send` is a supertrait, so boxed trait objects cross threads —
    /// the contract the serving layer builds on (compile-time check).
    #[test]
    fn union_sampler_trait_objects_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn UnionSampler>();
        assert_send::<Box<dyn UnionSampler>>();
        assert_send::<Box<dyn UnionSampler + Send>>();
    }

    /// A retraction arriving in batch 2 that targets an emission queued
    /// during batch 1 (a surplus burst copy) must remove that exact
    /// tuple from batch 2 — not a mis-mapped neighbor, and not be
    /// dropped.
    #[test]
    fn batch_retractions_resolve_across_queue_boundaries() {
        let mut sampler = Scripted::new(vec![
            // Batch 1 consumes one tuple; emission 1 was queued at the
            // same time (burst) and spills into batch 2.
            Draw::Tuple(0, t(10)),
            Draw::Tuple(1, t(11)),
            // Batch 2: retract the spilled emission #1 mid-batch, then
            // continue.
            Draw::Retract(1),
            Draw::Tuple(2, t(12)),
            Draw::Tuple(3, t(13)),
        ]);
        let mut rng = SujRng::seed_from_u64(0);
        let (batch1, _) = sampler.sample(1, &mut rng).unwrap();
        assert_eq!(batch1, vec![t(10)]);
        let (batch2, _) = sampler.sample(2, &mut rng).unwrap();
        // Emission #1 (tuple 11) was retracted mid-batch; #2 and #3
        // survive.
        assert_eq!(batch2, vec![t(12), t(13)]);
    }

    /// Retractions of emissions returned by *earlier* batches are out
    /// of reach and must be ignored without disturbing the current
    /// batch.
    #[test]
    fn batch_ignores_retractions_of_prior_batches() {
        let mut sampler = Scripted::new(vec![
            Draw::Tuple(0, t(20)),
            Draw::Retract(0), // targets batch 1's tuple
            Draw::Tuple(1, t(21)),
            Draw::Tuple(2, t(22)),
        ]);
        let mut rng = SujRng::seed_from_u64(0);
        let (batch1, _) = sampler.sample(1, &mut rng).unwrap();
        assert_eq!(batch1, vec![t(20)]);
        let (batch2, _) = sampler.sample(2, &mut rng).unwrap();
        assert_eq!(batch2, vec![t(21), t(22)]);
    }

    /// A call cut short by its deadline still folds what it counted
    /// into the handle's cumulative report, and the next call's report
    /// counts that call alone.
    #[test]
    fn deadline_folds_partial_counts_into_the_cumulative_report() {
        let mut sampler = Scripted::new(vec![Draw::Tuple(0, t(1))]);
        sampler.pause = std::time::Duration::from_millis(2);
        let mut rng = SujRng::seed_from_u64(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        assert!(matches!(
            sampler.sample_within(10_000, &mut rng, Some(deadline)),
            Err(CoreError::DeadlineExceeded)
        ));
        let partial = sampler.report().accepted;
        assert!((1..10_000).contains(&partial), "{partial} draws");
        assert_eq!(sampler.report().draw_latency.count(), partial);

        sampler.pause = std::time::Duration::ZERO;
        let (tuples, call) = sampler.sample(3, &mut rng).unwrap();
        assert_eq!((tuples.len(), call.accepted), (3, 3));
        assert_eq!(call.draw_latency.count(), 3);
        assert_eq!(sampler.report().accepted, partial + 3);
        assert_eq!(sampler.report().draw_latency.count(), partial + 3);
    }
}
