//! Extended Olken join-size upper bounds.
//!
//! §3.2 extends Olken's bound to joins of arbitrary length:
//! `|J| ≤ |R_1| · Π_{i} M_{A_i}(R_{i+1})`, where `M_{A_i}(R_{i+1})` is
//! the maximum frequency of any join-attribute value in the next
//! relation. For tree-shaped joins the product runs over every non-root
//! node's probe attributes; for cyclic joins the bound over any spanning
//! tree remains valid (the dropped edges only filter tuples out).
//!
//! A maximum degree is a column statistic, so the bounds read it from
//! the [`StatsCache`] the rest of a §5 probe shares (the splitting
//! method's histograms and path pre-estimates, [`crate::template`]) —
//! no index is built to learn one number.

use crate::error::JoinError;
use crate::spec::JoinSpec;
use std::sync::Arc;
use suj_storage::{FrequencyHistogram, FxHashMap, HashIndex, Relation};

/// The column statistics of one §5 probe, counted once: every
/// `(relation, attribute)` histogram the Olken bounds, the path
/// pre-estimates and the split relations of *any* member join ask for
/// is built on first use and shared afterwards. Relations are keyed by
/// `Arc` identity, so a relation several joins share is counted once.
#[derive(Debug, Default)]
pub struct StatsCache {
    /// Keyed by (relation address, attribute).
    hists: FxHashMap<(usize, Arc<str>), Counted>,
}

/// A histogram and the relation it was counted from — pinned, so the
/// address in the key cannot be reused while the cache lives.
#[derive(Debug)]
struct Counted {
    _relation: Arc<Relation>,
    hist: Arc<FrequencyHistogram>,
}

impl StatsCache {
    /// The frequency histogram of `attr` in `relation`.
    pub fn histogram(
        &mut self,
        relation: &Arc<Relation>,
        attr: &Arc<str>,
    ) -> Arc<FrequencyHistogram> {
        let key = (Arc::as_ptr(relation) as usize, attr.clone());
        let counted = self.hists.entry(key).or_insert_with(|| Counted {
            _relation: relation.clone(),
            hist: Arc::new(FrequencyHistogram::build(relation, attr)),
        });
        counted.hist.clone()
    }

    /// `M_key(R)`: the maximum multiplicity of any key over `attrs` in
    /// `relation`. A single-attribute key reads its histogram (NULL
    /// counts as a key value there exactly as in a [`HashIndex`]); a
    /// composite key has no histogram and builds the index.
    pub fn max_degree(&mut self, relation: &Arc<Relation>, attrs: &[Arc<str>]) -> usize {
        match attrs {
            [attr] => self.histogram(relation, attr).max_degree() as usize,
            _ => HashIndex::build(relation, attrs).max_degree(),
        }
    }
}

/// Per-node maximum degrees along a spanning tree of the join graph,
/// rooted at relation 0. `max_degrees[i]` is `M(probe attrs)(R_i)` for
/// non-root nodes and 1 for the root.
fn spanning_max_degrees(spec: &JoinSpec, stats: &mut StatsCache) -> Vec<usize> {
    let n = spec.n_relations();
    let mut degrees = vec![1usize; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0usize);
    visited[0] = true;
    while let Some(v) = queue.pop_front() {
        for u in spec.neighbors(v) {
            if !visited[u] {
                visited[u] = true;
                let edge = spec.edge_between(v, u).expect("neighbor implies edge");
                degrees[u] = stats.max_degree(spec.relation(u), &edge.attrs);
                queue.push_back(u);
            }
        }
    }
    degrees
}

/// The extended Olken upper bound on the join size.
///
/// Exact-zero relations yield a bound of zero. Works for chain, acyclic,
/// and cyclic specs (spanning-tree relaxation).
pub fn olken_bound(spec: &JoinSpec) -> Result<f64, JoinError> {
    olken_bound_with(spec, &mut StatsCache::default())
}

/// [`olken_bound`] reading its maximum degrees through a probe's shared
/// statistics cache.
pub fn olken_bound_with(spec: &JoinSpec, stats: &mut StatsCache) -> Result<f64, JoinError> {
    if spec.n_relations() == 0 {
        return Err(JoinError::NoRelations);
    }
    let root_size = spec.relation(0).len() as f64;
    let product: f64 = spanning_max_degrees(spec, stats)
        .iter()
        .skip(1)
        .map(|&m| m as f64)
        .product();
    Ok(root_size * product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::spec::JoinSpec;
    use std::sync::Arc;
    use suj_storage::{Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    #[test]
    fn bound_dominates_true_size_chain() {
        let spec = JoinSpec::chain(
            "j",
            vec![
                rel(
                    "r",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20]],
                ),
                rel(
                    "s",
                    &["b", "c"],
                    vec![vec![10, 100], vec![10, 101], vec![20, 200]],
                ),
                rel(
                    "t",
                    &["c", "d"],
                    vec![vec![100, 1], vec![200, 2], vec![200, 3]],
                ),
            ],
        )
        .unwrap();
        let bound = olken_bound(&spec).unwrap();
        let actual = execute(&spec).len() as f64;
        assert!(bound >= actual, "bound {bound} < actual {actual}");
        // |r|=3, M_b(s)=2, M_c(t)=2 → 12.
        assert_eq!(bound, 12.0);
        // r⋈s has 5 rows; joining t keeps c∈{100,200}: 2·1 + 1·2 = 4.
        assert_eq!(actual, 4.0);
    }

    #[test]
    fn bound_exact_for_key_joins() {
        // When every join attribute is a key on the probe side, the
        // Olken bound equals |R1| and the join is at most that size.
        let spec = JoinSpec::chain(
            "j",
            vec![
                rel(
                    "fact",
                    &["k", "x"],
                    vec![vec![1, 0], vec![2, 0], vec![3, 0]],
                ),
                rel("dim", &["k", "y"], vec![vec![1, 5], vec![2, 6]]),
            ],
        )
        .unwrap();
        let bound = olken_bound(&spec).unwrap();
        assert_eq!(bound, 3.0);
        assert_eq!(execute(&spec).len(), 2);
    }

    #[test]
    fn empty_relation_gives_zero_bound() {
        let spec = JoinSpec::chain(
            "j",
            vec![
                rel("r", &["a", "b"], vec![vec![1, 10]]),
                rel("s", &["b", "c"], vec![]),
            ],
        )
        .unwrap();
        assert_eq!(olken_bound(&spec).unwrap(), 0.0);
    }

    #[test]
    fn cyclic_bound_still_dominates() {
        let spec = JoinSpec::natural(
            "tri",
            vec![
                rel("x", &["a", "b"], vec![vec![1, 2], vec![1, 9], vec![5, 2]]),
                rel("y", &["b", "c"], vec![vec![2, 3], vec![2, 4], vec![9, 4]]),
                rel("z", &["c", "a"], vec![vec![3, 1], vec![4, 5], vec![4, 1]]),
            ],
        )
        .unwrap();
        let bound = olken_bound(&spec).unwrap();
        let actual = execute(&spec).len() as f64;
        assert!(bound >= actual, "bound {bound} < actual {actual}");
    }

    #[test]
    fn star_bound() {
        let spec = JoinSpec::natural(
            "star",
            vec![
                rel("c", &["a", "b"], vec![vec![1, 2], vec![3, 2]]),
                rel(
                    "l1",
                    &["a", "x"],
                    vec![vec![1, 10], vec![1, 11], vec![3, 12]],
                ),
                rel("l2", &["b", "y"], vec![vec![2, 20], vec![2, 21]]),
            ],
        )
        .unwrap();
        // |c|=2 × M_a(l1)=2 × M_b(l2)=2 = 8.
        assert_eq!(olken_bound(&spec).unwrap(), 8.0);
        assert!(execute(&spec).len() as f64 <= 8.0);
    }

    #[test]
    fn single_relation_bound_is_its_size() {
        let spec =
            JoinSpec::natural("one", vec![rel("r", &["a"], vec![vec![1], vec![2]])]).unwrap();
        assert_eq!(olken_bound(&spec).unwrap(), 2.0);
    }
}
