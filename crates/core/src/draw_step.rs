//! The draw step under the eager union samplers.
//!
//! The one-join-per-draw sampler (disjoint, or designated for a set
//! union) and Algorithm 1 differ in how they select a join and in who
//! owns a drawn tuple. In between is the paper's one
//! join-sampling subroutine, here once: attempt the join's sampler on
//! row ids, count the rejections, gather the accepted rows into a
//! canonical tuple, give up on a join that never accepts — and, in
//! §8.3's reject mode, test a tuple its owner kept against the
//! selection predicate before it is emitted.
//!
//! The step books a join attempt whoever made it: the one-join-per-draw
//! sampler walks most of its attempts in blocks of up to 64 from
//! pre-drawn words (see [`disjoint`](crate::disjoint)) and hands the
//! outcomes to [`DrawStep::book`], timing them as shares of the block's
//! time; its first unplanned selection and Algorithm 1's attempts run
//! through `attempt` and `until_accepted` here.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::sampler::Draw;
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::{JoinSampler, RowDraw};
use suj_stats::SujRng;
use suj_storage::{CompiledPredicate, Tuple};

/// Consecutive rejected attempts after which a join is dead (estimate
/// said nonempty, data says empty). This bounds a single draw, inside
/// which no deadline is consulted (a deadline is checked between
/// blocks of at most 64 draws).
const MAX_JOIN_TRIES: u64 = 1_000_000;

/// One sampler handle's join draws and their books.
pub(crate) struct DrawStep {
    pub(crate) workload: Arc<UnionWorkload>,
    /// Per-join samplers, shared with every other handle of the same
    /// prepared query (sampling goes through `&self`).
    samplers: Vec<Arc<dyn JoinSampler>>,
    /// Reusable row-id scratch: rejected attempts allocate nothing.
    draw: RowDraw,
    /// Per join: rejected attempts since its last accepted one.
    misses: Vec<u64>,
    /// The reject-mode predicate, compiled once by the freeze.
    predicate: Option<Arc<CompiledPredicate>>,
    pub(crate) report: RunReport,
    pub(crate) emitted: u64,
}

impl DrawStep {
    pub(crate) fn new(
        workload: Arc<UnionWorkload>,
        samplers: Vec<Arc<dyn JoinSampler>>,
        predicate: Option<Arc<CompiledPredicate>>,
    ) -> Result<Self, CoreError> {
        let n_joins = workload.n_joins();
        if samplers.len() != n_joins {
            return Err(CoreError::Invalid(format!(
                "{} join samplers for {n_joins} joins",
                samplers.len()
            )));
        }
        Ok(Self {
            workload,
            samplers,
            draw: RowDraw::new(),
            misses: vec![0; n_joins],
            predicate,
            report: RunReport::new(n_joins),
            emitted: 0,
        })
    }

    /// Whether join `j` may be selected (a dead join is skipped). With
    /// every join dead there is nothing to draw from: an error.
    pub(crate) fn live(&self, j: usize) -> Result<bool, CoreError> {
        let dead = |&misses: &u64| misses >= MAX_JOIN_TRIES;
        if self.misses.iter().all(dead) {
            return Err(CoreError::Invalid(format!(
                "every join ran out of its attempt budget ({MAX_JOIN_TRIES} \
                     consecutive rejected attempts): all joins are empty"
            )));
        }
        Ok(!dead(&self.misses[j]))
    }

    /// Whether join `j` is live for an attempt made `ahead` attempts
    /// from now, however those end: a block plans an attempt on `j` only
    /// where none of the attempts before it in the block can kill `j`.
    pub(crate) fn live_ahead(&self, j: usize, ahead: u64) -> bool {
        self.misses[j] + ahead < MAX_JOIN_TRIES
    }

    /// Join `j`'s sampler.
    pub(crate) fn sampler(&self, j: usize) -> &dyn JoinSampler {
        self.samplers[j].as_ref()
    }

    /// One attempt on join `j`: the accepted rows as a canonical tuple.
    pub(crate) fn attempt(&mut self, j: usize, rng: &mut SujRng) -> Option<Tuple> {
        self.within(1, j, rng)
    }

    /// Attempts on join `j` until one is accepted; `None` means its
    /// budget ran out and it is now dead.
    pub(crate) fn until_accepted(&mut self, j: usize, rng: &mut SujRng) -> Option<Tuple> {
        self.within(MAX_JOIN_TRIES, j, rng)
    }

    fn within(&mut self, max_tries: u64, j: usize, rng: &mut SujRng) -> Option<Tuple> {
        let budget = max_tries.min(MAX_JOIN_TRIES.saturating_sub(self.misses[j]));
        let (accepted, tries) = self.samplers[j].sample_rows_within(budget, rng, &mut self.draw);
        self.book(j, tries, accepted);
        accepted.then(|| self.workload.gather(j, self.draw.rows()))
    }

    /// Books `tries` attempts on join `j`, the last of them accepted iff
    /// `accepted`.
    pub(crate) fn book(&mut self, j: usize, tries: u64, accepted: bool) {
        self.report.rejected_join += tries - u64::from(accepted);
        if accepted {
            self.misses[j] = 0;
        } else {
            self.misses[j] += tries;
        }
    }

    /// Whether `t` satisfies the reject-mode predicate (always, without
    /// one).
    pub(crate) fn passes(&self, t: &Tuple) -> bool {
        self.predicate.as_ref().is_none_or(|p| p.eval(t))
    }

    /// Counts a tuple its owner kept but the predicate did not, drawn
    /// since `start`; the caller selects a join again.
    pub(crate) fn reject_predicate(&mut self, start: Instant) {
        self.report.rejected_predicate += 1;
        self.report.rejected_time += start.elapsed();
    }

    /// Emits `t`, drawn since `start`, under the next emission index.
    pub(crate) fn emit(&mut self, t: Tuple, start: Instant) -> Draw {
        self.report.accepted_time += start.elapsed();
        self.number(t)
    }

    /// Emits `t` under the next emission index; the caller books its
    /// time.
    pub(crate) fn number(&mut self, t: Tuple) -> Draw {
        self.emitted += 1;
        self.report.accepted += 1;
        Draw::Tuple(self.emitted - 1, t)
    }
}
