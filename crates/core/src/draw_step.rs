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
/// which no deadline is consulted.
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
        self.report.rejected_join += tries - u64::from(accepted);
        if accepted {
            self.misses[j] = 0;
            Some(self.workload.gather(j, self.draw.rows()))
        } else {
            self.misses[j] += tries;
            None
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
        self.emitted += 1;
        self.report.accepted += 1;
        self.report.accepted_time += start.elapsed();
        Draw::Tuple(self.emitted - 1, t)
    }
}
