//! Multi-way equi-join specifications.
//!
//! A [`JoinSpec`] is the paper's `J_j = R_{j,1} ⋈ R_{j,2} ⋈ … ⋈ R_{j,n}`
//! (§2): an ordered list of relations plus equality edges over
//! standardized attribute names. Semantics are those of the natural join
//! over the (ordered) union of attribute names, which is what makes a
//! result tuple's identity (`t.val`) well defined across joins, and what
//! makes the membership oracle exact. Self-joins are expressed by
//! renaming (e.g. `orderkey` → `orderkey2`), exactly as Fig. 1 does.

use crate::error::JoinError;
use std::fmt;
use std::sync::Arc;
use suj_storage::snapshot::{ByteReader, ByteWriter, Codec};
use suj_storage::{Relation, Schema, SnapshotError, Tuple};

/// An equality edge between two relations of a join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index of the first relation.
    pub left: usize,
    /// Index of the second relation.
    pub right: usize,
    /// Attribute names equated (same name on both sides — standardized
    /// names per §2).
    pub attrs: Vec<Arc<str>>,
}

/// `left` and `right` as `u64`, then the attributes (`u32` count).
impl Codec for JoinEdge {
    fn encode(&self, w: &mut ByteWriter) {
        (self.left as u64, self.right as u64).encode(w);
        w.put_seq32(&self.attrs);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let (left, right) = <(u64, u64)>::decode(r)?;
        let index = |i: u64| {
            usize::try_from(i).map_err(|_| SnapshotError::Corrupt("edge index overflow".into()))
        };
        Ok(JoinEdge {
            left: index(left)?,
            right: index(right)?,
            attrs: r.get_seq32()?,
        })
    }
}

/// A multi-way equi-join over named relations.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    name: Arc<str>,
    relations: Vec<Arc<Relation>>,
    edges: Vec<JoinEdge>,
    output_schema: Schema,
    /// Per relation: position of each of its attributes in the output
    /// schema.
    out_positions: Vec<Vec<usize>>,
    /// The output fill plan (inverse of `out_positions`): output position
    /// `p` is read from relation `out_sources[p].0`, column `.1`.
    pub(crate) out_sources: Vec<(u32, u32)>,
}

/// Builds the output fill plan: the first relation (in spec order)
/// carrying an attribute supplies it. In a result row combination every
/// carrier agrees on the value, so which one is read is immaterial.
fn fill_plan(out_positions: &[Vec<usize>], arity: usize) -> Vec<(u32, u32)> {
    let mut sources = vec![(0, 0); arity];
    // The last write wins, so the relations are visited backwards.
    for (i, positions) in out_positions.iter().enumerate().rev() {
        for (k, &p) in positions.iter().enumerate() {
            sources[p] = (i as u32, k as u32);
        }
    }
    sources
}

impl JoinSpec {
    /// Builds a join with explicit edges, validating natural-join
    /// closure: every attribute name shared between two relations must be
    /// equated by an edge between them.
    pub fn with_edges(
        name: impl AsRef<str>,
        relations: Vec<Arc<Relation>>,
        edges: Vec<JoinEdge>,
    ) -> Result<Self, JoinError> {
        if relations.is_empty() {
            return Err(JoinError::NoRelations);
        }
        let n = relations.len();
        for e in &edges {
            if e.left >= n {
                return Err(JoinError::BadRelationIndex(e.left));
            }
            if e.right >= n {
                return Err(JoinError::BadRelationIndex(e.right));
            }
            if e.attrs.is_empty() {
                return Err(JoinError::EmptyEdge {
                    left: relations[e.left].name().to_string(),
                    right: relations[e.right].name().to_string(),
                });
            }
            for a in &e.attrs {
                for idx in [e.left, e.right] {
                    if !relations[idx].schema().contains(a) {
                        return Err(JoinError::Invalid(format!(
                            "edge attribute `{a}` not in relation `{}`",
                            relations[idx].name()
                        )));
                    }
                }
            }
        }

        // Natural-join closure: every shared attribute must be equated,
        // directly or transitively. Two relations sharing attribute `a`
        // are fine iff they are connected in the subgraph of edges that
        // equate `a` (e.g. a chain nation ⋈ supplier ⋈ customer equates
        // `nationkey` across all three through consecutive edges).
        for i in 0..n {
            for j in (i + 1)..n {
                let shared = relations[i].schema().shared_with(relations[j].schema());
                for a in shared {
                    if !attr_connected(&edges, n, &a, i, j) {
                        return Err(JoinError::UncoveredSharedAttrs {
                            left: relations[i].name().to_string(),
                            right: relations[j].name().to_string(),
                            attr: a.to_string(),
                        });
                    }
                }
            }
        }

        // Connectivity over the edge graph.
        if n > 1 {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                for e in &edges {
                    let other = if e.left == v {
                        Some(e.right)
                    } else if e.right == v {
                        Some(e.left)
                    } else {
                        None
                    };
                    if let Some(o) = other {
                        if !seen[o] {
                            seen[o] = true;
                            stack.push(o);
                        }
                    }
                }
            }
            if seen.iter().any(|s| !s) {
                return Err(JoinError::Disconnected);
            }
        }

        // Output schema: ordered union of attribute names.
        let mut output_schema = relations[0].schema().clone();
        for r in &relations[1..] {
            output_schema = output_schema.union(r.schema())?;
        }
        let out_positions: Vec<Vec<usize>> = relations
            .iter()
            .map(|r| {
                r.schema()
                    .attrs()
                    .iter()
                    .map(|a| output_schema.position(a).expect("attr in union"))
                    .collect()
            })
            .collect();
        let out_sources = fill_plan(&out_positions, output_schema.arity());

        Ok(Self {
            name: Arc::from(name.as_ref()),
            relations,
            edges,
            output_schema,
            out_positions,
            out_sources,
        })
    }

    /// Builds a natural join: edges are derived from shared attribute
    /// names between every pair of relations.
    pub fn natural(
        name: impl AsRef<str>,
        relations: Vec<Arc<Relation>>,
    ) -> Result<Self, JoinError> {
        let n = relations.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let shared = relations[i].schema().shared_with(relations[j].schema());
                if !shared.is_empty() {
                    edges.push(JoinEdge {
                        left: i,
                        right: j,
                        attrs: shared,
                    });
                }
            }
        }
        Self::with_edges(name, relations, edges)
    }

    /// Builds a chain join: edges are created only between consecutive
    /// relations (the paper's chain join class). A shared attribute
    /// between non-consecutive relations is legal when it is equated
    /// transitively along the chain (e.g. `nationkey` in
    /// nation ⋈ supplier ⋈ customer) and rejected otherwise.
    pub fn chain(name: impl AsRef<str>, relations: Vec<Arc<Relation>>) -> Result<Self, JoinError> {
        let n = relations.len();
        let mut edges = Vec::new();
        for i in 0..n.saturating_sub(1) {
            let shared = relations[i].schema().shared_with(relations[i + 1].schema());
            if shared.is_empty() {
                return Err(JoinError::Invalid(format!(
                    "chain join `{}` is missing an edge between positions {i} and {}",
                    name.as_ref(),
                    i + 1
                )));
            }
            edges.push(JoinEdge {
                left: i,
                right: i + 1,
                attrs: shared,
            });
        }
        Self::with_edges(name, relations, edges)
    }

    /// Join name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relations in join order.
    pub fn relations(&self) -> &[Arc<Relation>] {
        &self.relations
    }

    /// Relation at index `i`.
    pub fn relation(&self, i: usize) -> &Arc<Relation> {
        &self.relations[i]
    }

    /// Number of relations.
    pub fn n_relations(&self) -> usize {
        self.relations.len()
    }

    /// Equality edges.
    pub fn edges(&self) -> &[JoinEdge] {
        &self.edges
    }

    /// The output schema (ordered union of attribute names).
    pub fn output_schema(&self) -> &Schema {
        &self.output_schema
    }

    /// For relation `i`: positions of its attributes in the output schema.
    pub fn out_positions(&self, i: usize) -> &[usize] {
        &self.out_positions[i]
    }

    /// Gathers a row combination (`rows[i]` = chosen row id of relation
    /// `i`) into a tuple whose `k`-th value is output position `order[k]`
    /// (`0..arity` for the spec's own order) — the one place row ids
    /// become a [`Tuple`]. Values go straight from the columns (string
    /// cells are an `Arc` bump) into the tuple's single allocation.
    pub fn gather(&self, rows: &[u32], order: impl Iterator<Item = usize>) -> Tuple {
        order
            .map(|p| {
                let (r, k) = self.out_sources[p];
                self.relations[r as usize]
                    .column(k as usize)
                    .value(rows[r as usize] as usize)
            })
            .collect()
    }

    /// The edge between relations `i` and `j`, if any.
    pub fn edge_between(&self, i: usize, j: usize) -> Option<&JoinEdge> {
        self.edges
            .iter()
            .find(|e| (e.left == i && e.right == j) || (e.left == j && e.right == i))
    }

    /// Neighbors of relation `i` in the join graph.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter_map(|e| {
                if e.left == i {
                    Some(e.right)
                } else if e.right == i {
                    Some(e.left)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Indices of relations whose schema contains `attr`.
    pub fn relations_with_attr(&self, attr: &str) -> Vec<usize> {
        (0..self.relations.len())
            .filter(|&i| self.relations[i].schema().contains(attr))
            .collect()
    }

    /// Position mapping from `canonical` schema order to this join's
    /// output order: `result[k]` is the local position of canonical
    /// attribute `k`. Fails if the attribute sets differ.
    pub fn projection_from(&self, canonical: &Schema) -> Result<Vec<usize>, JoinError> {
        if canonical.arity() != self.output_schema.arity() {
            return Err(JoinError::Invalid(format!(
                "join `{}` output schema {} is incompatible with canonical {}",
                self.name, self.output_schema, canonical
            )));
        }
        canonical
            .attrs()
            .iter()
            .map(|a| {
                self.output_schema.position(a).ok_or_else(|| {
                    JoinError::Invalid(format!(
                        "canonical attribute `{a}` missing from join `{}`",
                        self.name
                    ))
                })
            })
            .collect()
    }
}

/// Whether relations `i` and `j` are connected in the subgraph of edges
/// equating attribute `a`.
fn attr_connected(edges: &[JoinEdge], n: usize, a: &Arc<str>, i: usize, j: usize) -> bool {
    let mut seen = vec![false; n];
    let mut stack = vec![i];
    seen[i] = true;
    while let Some(v) = stack.pop() {
        if v == j {
            return true;
        }
        for e in edges {
            if !e.attrs.contains(a) {
                continue;
            }
            let other = if e.left == v {
                Some(e.right)
            } else if e.right == v {
                Some(e.left)
            } else {
                None
            };
            if let Some(o) = other {
                if !seen[o] {
                    seen[o] = true;
                    stack.push(o);
                }
            }
        }
    }
    false
}

impl fmt::Display for JoinSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, r) in self.relations.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}", r.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use suj_storage::Value;

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn chain_rels() -> Vec<Arc<Relation>> {
        vec![
            rel("r1", &["a", "b"], vec![vec![1, 10], vec![2, 20]]),
            rel("r2", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            rel("r3", &["c", "d"], vec![vec![100, 7]]),
        ]
    }

    #[test]
    fn natural_join_derives_edges() {
        let spec = JoinSpec::natural("j", chain_rels()).unwrap();
        assert_eq!(spec.edges().len(), 2);
        assert_eq!(spec.n_relations(), 3);
        let e = spec.edge_between(0, 1).unwrap();
        assert_eq!(e.attrs[0].as_ref(), "b");
        assert!(spec.edge_between(0, 2).is_none());
    }

    #[test]
    fn output_schema_is_ordered_union() {
        let spec = JoinSpec::natural("j", chain_rels()).unwrap();
        let names: Vec<&str> = spec
            .output_schema()
            .attrs()
            .iter()
            .map(|a| a.as_ref())
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        assert_eq!(spec.out_positions(1), &[1, 2]);
    }

    #[test]
    fn chain_constructor_accepts_paths_only() {
        assert!(JoinSpec::chain("c", chain_rels()).is_ok());

        // A triangle is not a chain.
        let tri = vec![
            rel("x", &["a", "b"], vec![]),
            rel("y", &["b", "c"], vec![]),
            rel("z", &["c", "a"], vec![]),
        ];
        assert!(JoinSpec::chain("t", tri).is_err());
    }

    #[test]
    fn disconnected_join_rejected() {
        let rels = vec![rel("p", &["a", "b"], vec![]), rel("q", &["x", "y"], vec![])];
        assert!(matches!(
            JoinSpec::natural("d", rels),
            Err(JoinError::Disconnected)
        ));
    }

    #[test]
    fn empty_relation_list_rejected() {
        assert!(matches!(
            JoinSpec::natural("e", vec![]),
            Err(JoinError::NoRelations)
        ));
    }

    #[test]
    fn uncovered_shared_attribute_rejected() {
        // r1 and r2 share `b`, but the explicit edge equates nothing
        // between them.
        let rels = chain_rels();
        let edges = vec![
            JoinEdge {
                left: 1,
                right: 2,
                attrs: vec![Arc::from("c")],
            },
            // Missing edge between 0 and 1 — shared attr `b` uncovered.
            JoinEdge {
                left: 0,
                right: 2,
                attrs: vec![Arc::from("d")], // also invalid: d not in r1
            },
        ];
        assert!(JoinSpec::with_edges("bad", rels, edges).is_err());
    }

    #[test]
    fn bad_indexes_rejected() {
        let rels = chain_rels();
        let edges = vec![JoinEdge {
            left: 0,
            right: 9,
            attrs: vec![Arc::from("b")],
        }];
        assert!(matches!(
            JoinSpec::with_edges("bad", rels, edges),
            Err(JoinError::BadRelationIndex(9))
        ));
    }

    #[test]
    fn single_relation_join_is_valid() {
        let spec = JoinSpec::natural("one", vec![rel("r", &["a"], vec![vec![1]])]).unwrap();
        assert_eq!(spec.n_relations(), 1);
        assert_eq!(spec.output_schema().arity(), 1);
    }

    #[test]
    fn neighbors_and_attr_lookup() {
        let spec = JoinSpec::natural("j", chain_rels()).unwrap();
        assert_eq!(spec.neighbors(1), vec![0, 2]);
        assert_eq!(spec.relations_with_attr("b"), vec![0, 1]);
        assert_eq!(spec.relations_with_attr("zz"), Vec::<usize>::new());
    }

    #[test]
    fn projection_from_canonical_schema() {
        let spec = JoinSpec::natural("j", chain_rels()).unwrap();
        let canonical = Schema::new(["d", "a", "c", "b"]).unwrap();
        let proj = spec.projection_from(&canonical).unwrap();
        assert_eq!(proj, vec![3, 0, 2, 1]);

        let wrong = Schema::new(["a", "b"]).unwrap();
        assert!(spec.projection_from(&wrong).is_err());
    }

    #[test]
    fn display_shows_pipeline() {
        let spec = JoinSpec::natural("j", chain_rels()).unwrap();
        assert_eq!(spec.to_string(), "j: r1 ⋈ r2 ⋈ r3");
    }
}
