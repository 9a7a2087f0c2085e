//! The ownership record: the paper's `orig_join` (Algorithm 1 lines
//! 4–12), which §7's Algorithm 2 and §3's record designation reuse.
//!
//! One map from each *seen* tuple to its owning join and the emission
//! indices of its copies still live in the result. A drawn tuple makes
//! one [`claim`](OwnershipRecord::claim) — one hash of the tuple.

use crate::report::RunReport;
use crate::sampler::Draw;
use std::collections::VecDeque;
use std::ops::Range;
use suj_storage::{FxHashMap, Tuple};

/// What a [`claim`](OwnershipRecord::claim) decided.
#[derive(Debug)]
pub(crate) enum Claim<'a> {
    /// First sighting, or the owner drew the tuple again: emit it.
    Accepted,
    /// The recorded owner precedes the claiming join: reject (line 8).
    Rejected,
    /// The claiming join precedes the recorded owner and takes the tuple
    /// (lines 10–12): emit it once these copies — exactly the ones live
    /// before the claim — are withdrawn.
    Revised(std::vec::Drain<'a, u64>),
}

impl Claim<'_> {
    /// Whether the claimed draw is emitted. A revision first queues one
    /// [`Draw::Retract`] per withdrawn copy (ahead of the emission the
    /// caller queues next), counts them, and tells `withdrawn` each.
    pub(crate) fn settle(
        self,
        pending: &mut VecDeque<Draw>,
        report: &mut RunReport,
        mut withdrawn: impl FnMut(u64),
    ) -> bool {
        match self {
            Claim::Accepted => true,
            Claim::Rejected => false,
            Claim::Revised(copies) => {
                for idx in copies {
                    withdrawn(idx);
                    pending.push_back(Draw::Retract(idx));
                    report.revision_removed += 1;
                }
                report.revised += 1;
                true
            }
        }
    }
}

/// The `orig_join` record of one sampler handle: per seen tuple, its
/// owner and the emission indices not yet withdrawn (none for a caller
/// that tracks no copies; an empty `Vec` owns no heap).
#[derive(Debug, Default)]
pub(crate) struct OwnershipRecord {
    seen: FxHashMap<Tuple, (usize, Vec<u64>)>,
}

impl OwnershipRecord {
    /// Join `j` drew `t` and, unless rejected, emits it under the
    /// emission indices `copies` (empty for a caller that never
    /// retracts), tracked as live from here on. `owner_precedes(i)`
    /// says whether recorded owner `i` precedes `j`.
    pub(crate) fn claim(
        &mut self,
        t: &Tuple,
        j: usize,
        copies: Range<u64>,
        owner_precedes: impl FnOnce(usize) -> bool,
    ) -> Claim<'_> {
        // A first sighting is its own owner drawing it.
        let (owner, live) = self.seen.entry(t.clone()).or_insert((j, Vec::new()));
        if *owner != j && owner_precedes(*owner) {
            return Claim::Rejected;
        }
        let withdrawn = live.len();
        live.extend(copies);
        if *owner == j {
            return Claim::Accepted;
        }
        *owner = j;
        Claim::Revised(live.drain(..withdrawn))
    }

    /// Whether no tuple has been seen yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Makes room for `additional` more distinct tuples at once, so a
    /// batch that knows its size does not grow the map one doubling at
    /// a time.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.seen.reserve(additional);
    }

    /// Forgets live copy `idx` of `t`, which the caller withdrew itself
    /// (Algorithm 2's backtracking): no revision retracts it again.
    pub(crate) fn forget(&mut self, t: &Tuple, idx: u64) {
        if let Some((_, live)) = self.seen.get_mut(t) {
            live.retain(|&p| p != idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::tuple;

    /// Cover order = join order: owner `i` precedes `j` iff `i < j`.
    fn claim(record: &mut OwnershipRecord, t: &Tuple, j: usize, idx: u64) -> Option<Vec<u64>> {
        match record.claim(t, j, idx..idx + 1, |i| i < j) {
            Claim::Accepted => Some(Vec::new()),
            Claim::Rejected => None,
            Claim::Revised(copies) => Some(copies.collect()),
        }
    }

    #[test]
    fn first_sighting_accepts_and_the_owner_accepts_again() {
        let mut record = OwnershipRecord::default();
        let t = tuple![1i64, 10i64];
        assert_eq!(claim(&mut record, &t, 1, 0), Some(vec![]));
        assert_eq!(claim(&mut record, &t, 1, 1), Some(vec![]));
        // Both copies are tracked: a revision withdraws exactly them.
        assert_eq!(claim(&mut record, &t, 0, 2), Some(vec![0, 1]));
    }

    #[test]
    fn a_later_cover_join_is_rejected_and_tracks_nothing() {
        let mut record = OwnershipRecord::default();
        let t = tuple![1i64, 10i64];
        assert_eq!(claim(&mut record, &t, 1, 0), Some(vec![]));
        assert_eq!(claim(&mut record, &t, 2, 1), None);
        assert_eq!(claim(&mut record, &t, 2, 2), None);
        // Ownership stayed with join 1; the rejected indices were never live.
        assert_eq!(claim(&mut record, &t, 0, 3), Some(vec![0]));
        assert_eq!(claim(&mut record, &t, 1, 4), None);
    }

    #[test]
    fn an_earlier_cover_join_revises_and_a_retracted_copy_is_never_returned_twice() {
        let mut record = OwnershipRecord::default();
        let t = tuple![7i64];
        for idx in 0..3 {
            assert_eq!(claim(&mut record, &t, 2, idx), Some(vec![]));
        }
        // The caller withdraws copy 1 itself (backtracking).
        record.forget(&t, 1);
        // Join 1 precedes the owner: exactly the live copies come back ...
        assert_eq!(claim(&mut record, &t, 1, 3), Some(vec![0, 2]));
        // ... once: the next revision finds only the reviser's own copy,
        assert_eq!(claim(&mut record, &t, 0, 4), Some(vec![3]));
        // and a revision dropped unread has withdrawn its copies all the same.
        drop(record.claim(&tuple![8i64], 1, 5..7, |_| false));
        drop(record.claim(&tuple![8i64], 0, 7..8, |_| false));
        let revised = record.claim(&tuple![8i64], 2, 8..9, |_| false);
        assert!(matches!(revised, Claim::Revised(copies) if copies.as_slice() == [7]));
    }

    #[test]
    fn settling_a_revision_queues_one_retraction_per_withdrawn_copy() {
        let mut record = OwnershipRecord::default();
        let t = tuple![9i64];
        let mut pending = VecDeque::new();
        let mut report = RunReport::new(2);
        let mut told = Vec::new();
        let mut settle =
            |claim: Claim<'_>| claim.settle(&mut pending, &mut report, |p| told.push(p));
        // A burst of three copies from join 1, a rejected claim from
        // join 2, then join 0 takes the tuple.
        assert!(settle(record.claim(&t, 1, 0..3, |_| unreachable!())));
        assert!(!settle(record.claim(&t, 2, 3..4, |owner| owner < 2)));
        assert!(settle(record.claim(&t, 0, 3..4, |_| false)));
        assert_eq!(told, vec![0, 1, 2]);
        assert_eq!(
            pending,
            VecDeque::from([Draw::Retract(0), Draw::Retract(1), Draw::Retract(2)])
        );
        assert_eq!((report.revised, report.revision_removed), (1, 3));
    }

    #[test]
    fn a_claim_that_tracks_no_copies_only_designates() {
        // Bernoulli's record designation: the first join a value was
        // sampled from keeps it, and nothing is ever withdrawn.
        let mut record = OwnershipRecord::default();
        let t = tuple![3i64];
        assert!(matches!(
            record.claim(&t, 1, 0..0, |_| true),
            Claim::Accepted
        ));
        assert!(matches!(
            record.claim(&t, 0, 0..0, |_| true),
            Claim::Rejected
        ));
        assert!(matches!(
            record.claim(&t, 1, 0..0, |_| true),
            Claim::Accepted
        ));
    }
}
