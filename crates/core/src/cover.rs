//! Covers over join orderings (§3.1).
//!
//! A cover `C = {J'_1, …, J'_n}` is an ordering over the joins such that
//! `J'_i = {t ∈ J_i | t ∉ ∪_{j<i} J'_j}` — each tuple of the union is
//! assigned to exactly one join, the earliest (in cover order) that
//! contains it. Join selection then draws `J_i` with probability
//! `|J'_i| / |U|` (non-Bernoulli selection), eliminating the union
//! trick's duplicate-region waste.

use crate::overlap::OverlapMap;
use suj_stats::Categorical;

/// How the cover orders the joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverStrategy {
    /// Workload order (the paper's default).
    AsGiven,
    /// Largest estimated join first (claims overlaps early, giving later
    /// joins small residuals).
    DescendingSize,
}

/// A materialized cover: order, per-join cover sizes, and the induced
/// selection distribution.
#[derive(Debug, Clone)]
pub struct Cover {
    order: Vec<usize>,
    /// `rank[j]` = position of join `j` in the cover order.
    rank: Vec<usize>,
    /// `sizes[j]` = `|J'_j|` (indexed by join).
    sizes: Vec<f64>,
    union_size: f64,
}

impl Cover {
    /// Builds a cover from (estimated or exact) overlaps.
    pub fn build(overlap: &OverlapMap, strategy: CoverStrategy) -> Cover {
        let n = overlap.n();
        let mut order: Vec<usize> = (0..n).collect();
        if strategy == CoverStrategy::DescendingSize {
            order.sort_by(|&a, &b| overlap.join_size(b).total_cmp(&overlap.join_size(a)));
        }
        let sizes = overlap.cover_sizes(&order);
        let union_size: f64 = sizes.iter().sum();
        let mut rank = vec![0usize; n];
        for (pos, &j) in order.iter().enumerate() {
            rank[j] = pos;
        }
        Cover {
            order,
            rank,
            sizes,
            union_size,
        }
    }

    /// The cover order (join indices, earliest first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Position of join `j` in the cover order.
    pub fn rank(&self, j: usize) -> usize {
        self.rank[j]
    }

    /// Whether join `a` precedes join `b` in the cover.
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        self.rank[a] < self.rank[b]
    }

    /// `|J'_j|` indexed by join.
    pub fn sizes(&self) -> &[f64] {
        &self.sizes
    }

    /// `Σ_j |J'_j|` — equals `|U|` when overlaps are exact; with
    /// estimates this is the normalization constant for selection.
    pub fn union_size(&self) -> f64 {
        self.union_size
    }

    /// The join-selection distribution `P(J_j) = |J'_j| / Σ |J'_i|`.
    /// `None` when every cover size is zero (empty union).
    pub fn selection(&self) -> Option<Categorical> {
        Categorical::new(&self.sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;

    fn map_three() -> OverlapMap {
        // J0 = {1..10}, J1 = {6..13}, J2 = {9..20} (see overlap.rs tests).
        let j0: Vec<i32> = (1..=10).collect();
        let j1: Vec<i32> = (6..=13).collect();
        let j2: Vec<i32> = (9..=20).collect();
        let sets = [j0, j1, j2];
        OverlapMap::from_fn(3, |idx| {
            let first = &sets[idx[0]];
            first
                .iter()
                .filter(|x| idx.iter().all(|&j| sets[j].contains(x)))
                .count() as f64
        })
        .unwrap()
    }

    #[test]
    fn as_given_cover() {
        let cover = Cover::build(&map_three(), CoverStrategy::AsGiven);
        assert_eq!(cover.order(), &[0, 1, 2]);
        assert_eq!(cover.sizes(), &[10.0, 3.0, 7.0]);
        assert!((cover.union_size() - 20.0).abs() < 1e-9);
        assert!(cover.precedes(0, 2));
        assert!(!cover.precedes(2, 0));
        assert_eq!(cover.rank(1), 1);
    }

    #[test]
    fn descending_puts_biggest_first() {
        let cover = Cover::build(&map_three(), CoverStrategy::DescendingSize);
        // |J2| = 12 > |J0| = 10 > |J1| = 8.
        assert_eq!(cover.order(), &[2, 0, 1]);
        // Still partitions the union.
        assert!((cover.union_size() - 20.0).abs() < 1e-9);
        // J1 is fully covered by J0 ∪ J2 → its cover size is 0.
        assert_eq!(cover.sizes()[1], 0.0);
    }

    #[test]
    fn selection_distribution_matches_sizes() {
        let cover = Cover::build(&map_three(), CoverStrategy::AsGiven);
        let cat = cover.selection().unwrap();
        assert!((cat.probability(0) - 0.5).abs() < 1e-12);
        assert!((cat.probability(1) - 0.15).abs() < 1e-12);
        assert!((cat.probability(2) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn empty_union_has_no_selection() {
        let m = OverlapMap::new(1, vec![0.0, 0.0]).unwrap();
        let cover = Cover::build(&m, CoverStrategy::AsGiven);
        assert!(cover.selection().is_none());
        let _ = CoreError::NoJoins; // silence unused-import lint paths
    }
}
