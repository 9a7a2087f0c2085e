//! Join graph analysis.
//!
//! Classifies joins into the paper's three classes — chain, acyclic,
//! cyclic (§2) — and provides the acyclicity machinery: simple-graph
//! cycle detection over the relation graph and the GYO ear-removal test
//! for hypergraph (α-)acyclicity, which is the textbook-correct notion
//! for join queries.

use crate::spec::JoinSpec;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Topological class of a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinShape {
    /// Relations form a path: `R1 ⋈ R2 ⋈ … ⋈ Rn`.
    Chain,
    /// The join graph is a tree (but not a path), or trivially a single
    /// relation.
    Acyclic,
    /// The join graph contains a cycle (e.g. the self-join query `J_W` of
    /// Fig. 1 or a triangle query).
    Cyclic,
}

/// Classifies a join spec by the shape of its relation graph.
pub fn classify(spec: &JoinSpec) -> JoinShape {
    let n = spec.n_relations();
    if n <= 1 {
        return JoinShape::Chain;
    }
    if has_graph_cycle(spec) {
        return JoinShape::Cyclic;
    }
    // Tree: a chain iff every node has degree ≤ 2.
    let is_path = (0..n).all(|i| spec.neighbors(i).len() <= 2);
    if is_path {
        JoinShape::Chain
    } else {
        JoinShape::Acyclic
    }
}

/// Whether the relation graph (nodes = relations, edges = join edges)
/// contains a cycle.
pub fn has_graph_cycle(spec: &JoinSpec) -> bool {
    let n = spec.n_relations();
    // Distinct undirected edges.
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in spec.edges() {
        if e.left != e.right {
            edges.insert((e.left.min(e.right), e.left.max(e.right)));
        }
    }
    // Union-find: a cycle exists iff some edge connects already-joined
    // components.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b) in edges {
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra == rb {
            return true;
        }
        parent[ra] = rb;
    }
    false
}

/// GYO ear-removal test for hypergraph α-acyclicity.
///
/// The hypergraph has one hyperedge per relation: its attribute set.
/// Repeat until fixpoint: (1) delete attributes that occur in exactly one
/// hyperedge; (2) delete a hyperedge that is a subset of another.
/// Acyclic iff everything is eventually deleted.
pub fn gyo_acyclic(spec: &JoinSpec) -> bool {
    let mut hyperedges: Vec<Option<BTreeSet<Arc<str>>>> = spec
        .relations()
        .iter()
        .map(|r| Some(r.schema().attrs().iter().cloned().collect()))
        .collect();

    loop {
        let mut changed = false;

        // Rule 1: remove attributes appearing in exactly one hyperedge.
        let mut attr_count: std::collections::HashMap<Arc<str>, usize> =
            std::collections::HashMap::new();
        for he in hyperedges.iter().flatten() {
            for a in he {
                *attr_count.entry(a.clone()).or_insert(0) += 1;
            }
        }
        for he in hyperedges.iter_mut().flatten() {
            let before = he.len();
            he.retain(|a| attr_count[a] > 1);
            if he.len() != before {
                changed = true;
            }
        }

        // Rule 2: remove a hyperedge contained in another (or now empty).
        let live: Vec<usize> = (0..hyperedges.len())
            .filter(|&i| hyperedges[i].is_some())
            .collect();
        'outer: for &i in &live {
            let hi = hyperedges[i].as_ref().unwrap().clone();
            if hi.is_empty() {
                hyperedges[i] = None;
                changed = true;
                continue;
            }
            for &j in &live {
                if i == j {
                    continue;
                }
                if let Some(hj) = hyperedges[j].as_ref() {
                    if hi.is_subset(hj) {
                        hyperedges[i] = None;
                        changed = true;
                        continue 'outer;
                    }
                }
            }
        }

        let remaining = hyperedges.iter().filter(|h| h.is_some()).count();
        if remaining <= 1 {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JoinSpec;
    use std::sync::Arc;
    use suj_storage::{Relation, Schema};

    fn rel(name: &str, attrs: &[&str]) -> Arc<Relation> {
        Arc::new(Relation::new(name, Schema::new(attrs.iter().copied()).unwrap(), vec![]).unwrap())
    }

    fn spec(name: &str, rels: Vec<Arc<Relation>>) -> JoinSpec {
        JoinSpec::natural(name, rels).unwrap()
    }

    #[test]
    fn chain_is_chain() {
        let s = spec(
            "c",
            vec![
                rel("r1", &["a", "b"]),
                rel("r2", &["b", "c"]),
                rel("r3", &["c", "d"]),
            ],
        );
        assert_eq!(classify(&s), JoinShape::Chain);
        assert!(!has_graph_cycle(&s));
        assert!(gyo_acyclic(&s));
    }

    #[test]
    fn star_is_acyclic_not_chain() {
        // Fig. 3a-like: center with three leaves.
        let s = spec(
            "star",
            vec![
                rel("c", &["a", "b", "d"]),
                rel("l1", &["a", "x"]),
                rel("l2", &["b", "y"]),
                rel("l3", &["d", "z"]),
            ],
        );
        assert_eq!(classify(&s), JoinShape::Acyclic);
        assert!(gyo_acyclic(&s));
    }

    #[test]
    fn triangle_is_cyclic() {
        let s = spec(
            "tri",
            vec![
                rel("x", &["a", "b"]),
                rel("y", &["b", "c"]),
                rel("z", &["c", "a"]),
            ],
        );
        assert_eq!(classify(&s), JoinShape::Cyclic);
        assert!(has_graph_cycle(&s));
        assert!(!gyo_acyclic(&s));
    }

    #[test]
    fn fig3b_cycle_is_cyclic() {
        // Fig. 3b: AB, BCD, DE, CF, EF — the EF relation closes a cycle.
        let s = spec(
            "fig3b",
            vec![
                rel("ab", &["a", "b"]),
                rel("bcd", &["b", "c", "d"]),
                rel("de", &["d", "e"]),
                rel("cf", &["c", "f"]),
                rel("ef", &["e", "f"]),
            ],
        );
        assert_eq!(classify(&s), JoinShape::Cyclic);
        assert!(!gyo_acyclic(&s));
    }

    #[test]
    fn single_relation_is_chain() {
        let s = spec("one", vec![rel("r", &["a"])]);
        assert_eq!(classify(&s), JoinShape::Chain);
        assert!(gyo_acyclic(&s));
    }

    #[test]
    fn two_relations_are_chain() {
        let s = spec("two", vec![rel("r", &["a", "b"]), rel("t", &["b", "c"])]);
        assert_eq!(classify(&s), JoinShape::Chain);
    }

    #[test]
    fn gyo_accepts_alpha_acyclic_nonsimple_case() {
        // R(a,b,c) with ears S(a,b), T(b,c): graph has a triangle of
        // pairwise shared attrs, but the hypergraph is α-acyclic (S and T
        // are subsets of R after rule application).
        let s = spec(
            "ears",
            vec![
                rel("r", &["a", "b", "c"]),
                rel("s", &["a", "b"]),
                rel("t", &["b", "c"]),
            ],
        );
        assert!(gyo_acyclic(&s));
        // The simple-graph classification is conservative here (sees a
        // cycle); this is exactly why the residual machinery treats
        // graph-cyclic specs by decomposition.
        assert_eq!(classify(&s), JoinShape::Cyclic);
    }
}
