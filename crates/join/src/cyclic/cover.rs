//! LP-free fractional edge covers for the AGM bound.
//!
//! The AGM inequality bounds a join's output by
//! `Π_i |R_i|^{w_i}` for any *fractional edge cover* `w`: per-relation
//! weights such that every output attribute `A` satisfies
//! `Σ_{i : A ∈ R_i} w_i ≥ 1`. The same condition is exactly what makes
//! the bound *subadditive under box splits on `A`* — the invariant the
//! box-splitting sampler's accept probability rests on — so any valid
//! cover yields a correct (if looser) sampler.
//!
//! Computing the *optimal* cover is a linear program; this module stays
//! LP-free by recognizing the two structures the workload actually
//! ships (where the LP optimum is known in closed form) and falling
//! back to a greedy integral cover everywhere else:
//!
//! * **Cycles** — every relation binary, every attribute in exactly two
//!   relations: `w_i = 1/2` (the optimum for odd cycles; for a
//!   triangle of `N`-row relations this is the classic `N^{3/2}`).
//! * **Cliques `K_k`** — all `k(k−1)/2` attribute pairs present as
//!   binary relations: `w_i = 1/(k−1)`.
//! * **Greedy fallback** — repeatedly take the relation covering the
//!   most uncovered attributes at weight 1. Always valid; the bound
//!   degrades toward a cross product of the chosen relations.
//!
//! A hypergraph where some attribute belongs to *no* relation has no
//! cover at all; that surfaces as the named
//! [`JoinError::UnsupportedHypergraph`] (unreachable through
//! [`JoinSpec`] — whose output schema is the union of relation schemas
//! — but the hypergraph API is public and must be total).

use crate::error::JoinError;
use crate::spec::JoinSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which rule produced a cover (surfaced in planner explanations and
/// bench reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverKind {
    /// All relations binary, every attribute in exactly two: `w = 1/2`.
    Cycle,
    /// A `K_k` clique of binary relations: `w = 1/(k−1)`.
    Clique,
    /// Greedy integral set cover (weights 0/1).
    Greedy,
}

impl std::fmt::Display for CoverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverKind::Cycle => write!(f, "cycle(w=1/2)"),
            CoverKind::Clique => write!(f, "clique(w=1/(k-1))"),
            CoverKind::Greedy => write!(f, "greedy(w∈{{0,1}})"),
        }
    }
}

/// A fractional edge cover: one weight per relation, in spec order.
#[derive(Debug, Clone)]
pub struct FractionalEdgeCover {
    weights: Vec<f64>,
    kind: CoverKind,
}

impl FractionalEdgeCover {
    /// Computes a cover for `spec`'s hypergraph (vertices = output
    /// attributes, hyperedges = relation schemas).
    pub fn for_spec(spec: &JoinSpec) -> Result<Self, JoinError> {
        let attrs: Vec<Arc<str>> = spec.output_schema().attrs().to_vec();
        let hyperedges: Vec<BTreeSet<Arc<str>>> = spec
            .relations()
            .iter()
            .map(|r| r.schema().attrs().iter().cloned().collect())
            .collect();
        Self::for_hypergraph(spec.name(), &attrs, &hyperedges)
    }

    /// Computes a cover for an explicit hypergraph. Errors with
    /// [`JoinError::UnsupportedHypergraph`] if some attribute is in no
    /// hyperedge (then no cover exists).
    pub fn for_hypergraph(
        join: &str,
        attrs: &[Arc<str>],
        hyperedges: &[BTreeSet<Arc<str>>],
    ) -> Result<Self, JoinError> {
        let mut degree: BTreeMap<&Arc<str>, usize> = attrs.iter().map(|a| (a, 0)).collect();
        for he in hyperedges {
            for a in he {
                if let Some(d) = degree.get_mut(a) {
                    *d += 1;
                }
            }
        }
        if let Some((&a, _)) = degree.iter().find(|(_, &d)| d == 0) {
            return Err(JoinError::UnsupportedHypergraph {
                join: join.to_string(),
                attr: a.to_string(),
            });
        }

        let all_binary = hyperedges.iter().all(|he| he.len() == 2);

        // Cycle rule: binary relations, every attribute in exactly two.
        // (Counting degrees shows #edges = #attrs — one or more disjoint
        // cycles, each attribute's weight sum exactly 1.)
        if !hyperedges.is_empty() && all_binary && degree.values().all(|&d| d == 2) {
            return Ok(Self {
                weights: vec![0.5; hyperedges.len()],
                kind: CoverKind::Cycle,
            });
        }

        // Clique rule: all k(k−1)/2 attribute pairs present exactly once.
        let k = attrs.len();
        if all_binary && k >= 3 && hyperedges.len() == k * (k - 1) / 2 {
            let pairs: BTreeSet<&BTreeSet<Arc<str>>> = hyperedges.iter().collect();
            let distinct_pairs = pairs.len() == hyperedges.len();
            if distinct_pairs && degree.values().all(|&d| d == k - 1) {
                return Ok(Self {
                    weights: vec![1.0 / (k - 1) as f64; hyperedges.len()],
                    kind: CoverKind::Clique,
                });
            }
        }

        // Greedy integral cover: always succeeds once every attribute
        // has a home. Deterministic tie-break on lowest index.
        let mut weights = vec![0.0; hyperedges.len()];
        let mut uncovered: BTreeSet<&Arc<str>> = attrs.iter().collect();
        while !uncovered.is_empty() {
            let (best, gain) = hyperedges
                .iter()
                .enumerate()
                .map(|(i, he)| (i, he.iter().filter(|a| uncovered.contains(a)).count()))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("non-empty hyperedge list");
            debug_assert!(gain > 0, "zero-degree attribute slipped through");
            weights[best] = 1.0;
            uncovered.retain(|a| !hyperedges[best].contains(*a));
        }
        Ok(Self {
            weights,
            kind: CoverKind::Greedy,
        })
    }

    /// Per-relation weights, in spec order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Which rule produced the cover.
    pub fn kind(&self) -> CoverKind {
        self.kind
    }

    /// Sum of the weights (the exponent of the AGM bound's growth in a
    /// uniform-size workload).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Whether `Σ_{i : a ∈ R_i} w_i ≥ 1` holds for every attribute —
    /// the cover validity condition (and the split-subadditivity
    /// condition). Exposed for tests and debug assertions.
    pub fn covers(&self, attrs: &[Arc<str>], hyperedges: &[BTreeSet<Arc<str>>]) -> bool {
        attrs.iter().all(|a| {
            let sum: f64 = hyperedges
                .iter()
                .zip(&self.weights)
                .filter(|(he, _)| he.contains(a))
                .map(|(_, w)| w)
                .sum();
            sum >= 1.0 - 1e-9
        })
    }
}

/// The AGM bound of one box: `Π_i counts[i]^{weights[i]}`, with an
/// empty relation (count 0) collapsing the bound to 0 regardless of
/// its weight — a box missing tuples of *any* relation holds no join
/// result.
pub fn agm_bound(counts: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(counts.len(), weights.len());
    let mut bound = 1.0f64;
    for (&c, &w) in counts.iter().zip(weights) {
        if c <= 0.0 {
            return 0.0;
        }
        bound *= pow_weight(c, w);
    }
    bound
}

/// `count^weight` for a positive count, the one place a cover weight is
/// applied: the weights the covers of this module emit are ½ (cycles),
/// 0 and 1 (greedy) and `1/(k−1)` (cliques), and only the last needs
/// `powf` — a box descent raises six counts per level, and `sqrt` costs
/// a fraction of it.
#[inline]
pub(super) fn pow_weight(count: f64, weight: f64) -> f64 {
    if weight == 0.5 {
        count.sqrt()
    } else if weight == 1.0 {
        count
    } else if weight == 0.0 {
        1.0
    } else {
        count.powf(weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(list: &[&[&str]]) -> Vec<BTreeSet<Arc<str>>> {
        list.iter()
            .map(|he| he.iter().map(|a| Arc::from(*a)).collect())
            .collect()
    }

    fn attrs(list: &[&str]) -> Vec<Arc<str>> {
        list.iter().map(|a| Arc::from(*a)).collect()
    }

    #[test]
    fn triangle_gets_half_weights() {
        let a = attrs(&["a", "b", "c"]);
        let he = edges(&[&["a", "b"], &["b", "c"], &["c", "a"]]);
        let cover = FractionalEdgeCover::for_hypergraph("tri", &a, &he).unwrap();
        assert_eq!(cover.kind(), CoverKind::Cycle);
        assert_eq!(cover.weights(), &[0.5, 0.5, 0.5]);
        assert!(cover.covers(&a, &he));
        assert_eq!(cover.total_weight(), 1.5);
    }

    #[test]
    fn four_cycle_gets_half_weights() {
        let a = attrs(&["a", "b", "c", "d"]);
        let he = edges(&[&["a", "b"], &["b", "c"], &["c", "d"], &["d", "a"]]);
        let cover = FractionalEdgeCover::for_hypergraph("c4", &a, &he).unwrap();
        assert_eq!(cover.kind(), CoverKind::Cycle);
        assert!(cover.covers(&a, &he));
        assert_eq!(cover.total_weight(), 2.0);
    }

    #[test]
    fn k4_gets_third_weights() {
        let a = attrs(&["a", "b", "c", "d"]);
        let he = edges(&[
            &["a", "b"],
            &["a", "c"],
            &["a", "d"],
            &["b", "c"],
            &["b", "d"],
            &["c", "d"],
        ]);
        let cover = FractionalEdgeCover::for_hypergraph("k4", &a, &he).unwrap();
        assert_eq!(cover.kind(), CoverKind::Clique);
        for &w in cover.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!(cover.covers(&a, &he));
    }

    #[test]
    fn chain_falls_back_to_greedy_and_still_covers() {
        let a = attrs(&["a", "b", "c", "d"]);
        let he = edges(&[&["a", "b"], &["b", "c"], &["c", "d"]]);
        let cover = FractionalEdgeCover::for_hypergraph("chain", &a, &he).unwrap();
        assert_eq!(cover.kind(), CoverKind::Greedy);
        assert!(cover.covers(&a, &he));
        assert!(cover.weights().iter().all(|&w| w == 0.0 || w == 1.0));
    }

    #[test]
    fn triangle_with_payload_attrs_is_greedy_but_valid() {
        // Payload columns break the pure-cycle shape.
        let a = attrs(&["a", "b", "c", "p"]);
        let he = edges(&[&["a", "b", "p"], &["b", "c"], &["c", "a"]]);
        let cover = FractionalEdgeCover::for_hypergraph("trip", &a, &he).unwrap();
        assert_eq!(cover.kind(), CoverKind::Greedy);
        assert!(cover.covers(&a, &he));
    }

    #[test]
    fn uncovered_attribute_is_a_named_error() {
        let a = attrs(&["a", "b", "ghost"]);
        let he = edges(&[&["a", "b"]]);
        let err = FractionalEdgeCover::for_hypergraph("bad", &a, &he).unwrap_err();
        match err {
            JoinError::UnsupportedHypergraph { join, attr } => {
                assert_eq!(join, "bad");
                assert_eq!(attr, "ghost");
            }
            other => panic!("expected UnsupportedHypergraph, got {other}"),
        }
    }

    #[test]
    fn agm_bound_matches_hand_computation() {
        // Triangle over N-row relations: N^{3/2}.
        assert_eq!(agm_bound(&[4.0, 4.0, 4.0], &[0.5, 0.5, 0.5]), 8.0);
        // Any empty relation kills the bound.
        assert_eq!(agm_bound(&[4.0, 0.0, 4.0], &[0.5, 0.5, 0.5]), 0.0);
        // Zero-weight relations contribute nothing.
        assert_eq!(agm_bound(&[7.0, 3.0], &[0.0, 1.0]), 3.0);
    }
}
