//! Declarative union queries.
//!
//! A [`UnionQuery`] describes *what* to sample — joins named by
//! relation, chain/edge topology, set or disjoint semantics, an
//! optional selection predicate — without committing to *how*: no
//! estimator, strategy, cover, or predicate mode appears here. The
//! query is validated and resolved against a
//! [`Catalog`], and the resulting
//! [`ResolvedQuery`] is what the [`Planner`](crate::planner::Planner)
//! consumes to pick the execution configuration (§9's estimator ×
//! algorithm matrix) on the caller's behalf.
//!
//! ```
//! use suj_core::catalog::Catalog;
//! use suj_core::query::{JoinDef, UnionQuery};
//! use suj_storage::{Relation, Schema, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! # let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
//! #     let tuples = rows.iter()
//! #         .map(|&(x, y)| vec![Value::int(x), Value::int(y)].into_iter().collect())
//! #         .collect();
//! #     Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap()
//! # };
//! catalog.register(rel("items", ["sku", "cat"], &[(1, 7)]))?;
//! catalog.register(rel("sales", ["sale", "sku"], &[(100, 1)]))?;
//! let query = UnionQuery::set_union()
//!     .join(JoinDef::chain("shop", ["items", "sales"]))?;
//! let resolved = query.resolve(&catalog)?;
//! assert_eq!(resolved.workload.n_joins(), 1);
//! # Ok(())
//! # }
//! ```

use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::predicate_mode::PredicateMode;
use crate::workload::UnionWorkload;
use std::sync::Arc;
use suj_join::{JoinEdge, JoinSpec};
use suj_storage::snapshot::{ByteReader, ByteWriter, Codec, Labeled};
use suj_storage::{Predicate, SnapshotError};

/// Whether the query samples the set union (`J_1 ∪ … ∪ J_n`, §2) or
/// the disjoint union (`J_1 ⊎ … ⊎ J_n`, Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionSemantics {
    /// Set union: duplicates across joins count once.
    Set,
    /// Disjoint union (bag): each join contributes its full result.
    Disjoint,
}

impl Labeled for UnionSemantics {
    const TABLE: &'static [(Self, &'static str)] = &[
        (UnionSemantics::Set, "set"),
        (UnionSemantics::Disjoint, "disjoint"),
    ];
}

/// How a declared join connects its relations.
#[derive(Debug, Clone)]
pub(crate) enum Topology {
    /// Equality edges between consecutive relations only.
    Chain,
    /// Edges derived from every shared attribute pair.
    Natural,
    /// Explicit equality edges (star / cyclic shapes).
    Edges(Vec<JoinEdge>),
}

/// A tag byte (`Chain`, `Natural`, `Edges`), then the edges (`u32`
/// count) of an `Edges` topology.
impl Codec for Topology {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Topology::Chain => 0u8.encode(w),
            Topology::Natural => 1u8.encode(w),
            Topology::Edges(edges) => {
                2u8.encode(w);
                w.put_seq32(edges);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_tag("topology", |t| (t < 3).then_some(t))? {
            0 => Ok(Topology::Chain),
            1 => Ok(Topology::Natural),
            _ => r.get_seq32().map(Topology::Edges),
        }
    }
}

/// One join of a union query: a name plus relation *names* — data is
/// bound at [`UnionQuery::resolve`] time, against a catalog.
#[derive(Debug, Clone)]
pub struct JoinDef {
    name: String,
    relations: Vec<String>,
    topology: Topology,
}

impl JoinDef {
    fn new(
        name: impl Into<String>,
        relations: impl IntoIterator<Item = impl Into<String>>,
        topology: Topology,
    ) -> Self {
        Self {
            name: name.into(),
            relations: relations.into_iter().map(Into::into).collect(),
            topology,
        }
    }

    /// A chain join: consecutive relations joined on their shared
    /// attributes (the paper's chain class).
    #[must_use = "the join definition does nothing until added to a UnionQuery"]
    pub fn chain(
        name: impl Into<String>,
        relations: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Self::new(name, relations, Topology::Chain)
    }

    /// A natural join: every pair of relations joined on all shared
    /// attributes.
    #[must_use = "the join definition does nothing until added to a UnionQuery"]
    pub fn natural(
        name: impl Into<String>,
        relations: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Self::new(name, relations, Topology::Natural)
    }

    /// A join with explicit equality edges (acyclic stars, cyclic
    /// shapes); edge indices refer to positions in `relations`.
    #[must_use = "the join definition does nothing until added to a UnionQuery"]
    pub fn with_edges(
        name: impl Into<String>,
        relations: impl IntoIterator<Item = impl Into<String>>,
        edges: Vec<JoinEdge>,
    ) -> Self {
        Self::new(name, relations, Topology::Edges(edges))
    }

    /// The join's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The referenced relation names, in join order.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Binds relation names against the catalog and builds the spec.
    fn resolve(&self, catalog: &Catalog) -> Result<JoinSpec, CoreError> {
        let relations = self
            .relations
            .iter()
            .map(|name| {
                catalog.get(name).map_err(|_| {
                    CoreError::Invalid(format!(
                        "join `{}` references unknown relation `{name}`; catalog has [{}]",
                        self.name,
                        catalog.names().collect::<Vec<_>>().join(", ")
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = match &self.topology {
            Topology::Chain => JoinSpec::chain(&self.name, relations),
            Topology::Natural => JoinSpec::natural(&self.name, relations),
            Topology::Edges(edges) => JoinSpec::with_edges(&self.name, relations, edges.clone()),
        };
        spec.map_err(CoreError::Join)
    }
}

/// Name, relation names (`u32` count), topology.
impl Codec for JoinDef {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        w.put_seq32(&self.relations);
        self.topology.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            name: Codec::decode(r)?,
            relations: r.get_seq32()?,
            topology: Codec::decode(r)?,
        })
    }
}

/// A declarative query over a union of joins.
///
/// Built fluently, validated against a catalog, and executed by the
/// [`Engine`](crate::catalog::Engine), which plans the estimator /
/// strategy / cover / predicate-mode configuration automatically. The
/// explicit-configuration path remains
/// [`SamplerBuilder`](crate::session::SamplerBuilder).
#[derive(Debug, Clone)]
pub struct UnionQuery {
    semantics: UnionSemantics,
    joins: Vec<JoinDef>,
    predicate: Option<Predicate>,
    predicate_mode: Option<PredicateMode>,
}

impl UnionQuery {
    fn new(semantics: UnionSemantics) -> Self {
        Self {
            semantics,
            joins: Vec::new(),
            predicate: None,
            predicate_mode: None,
        }
    }

    /// A set-union query (`J_1 ∪ … ∪ J_n`).
    #[must_use = "the query does nothing until resolved or run through an Engine"]
    pub fn set_union() -> Self {
        Self::new(UnionSemantics::Set)
    }

    /// A disjoint-union query (`J_1 ⊎ … ⊎ J_n`).
    #[must_use = "the query does nothing until resolved or run through an Engine"]
    pub fn disjoint_union() -> Self {
        Self::new(UnionSemantics::Disjoint)
    }

    /// Adds a join; names must be unique within the query.
    pub fn join(mut self, def: JoinDef) -> Result<Self, CoreError> {
        if self.joins.iter().any(|j| j.name == def.name) {
            return Err(CoreError::Invalid(format!(
                "duplicate join name `{}` in union query",
                def.name
            )));
        }
        self.joins.push(def);
        Ok(self)
    }

    /// Shorthand for `join(JoinDef::chain(name, relations))`.
    pub fn chain(
        self,
        name: impl Into<String>,
        relations: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, CoreError> {
        self.join(JoinDef::chain(name, relations))
    }

    /// Attaches a selection predicate (§8.3) over the output schema.
    /// The execution mode is chosen by the planner unless
    /// [`predicate_mode`](Self::predicate_mode) pins it.
    #[must_use = "builder methods return the updated query; dropping it discards the predicate"]
    pub fn predicate(mut self, predicate: Predicate) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Pins the predicate execution mode instead of letting the
    /// planner choose.
    #[must_use = "builder methods return the updated query; dropping it discards the mode"]
    pub fn predicate_mode(mut self, mode: PredicateMode) -> Self {
        self.predicate_mode = Some(mode);
        self
    }

    /// The query's union semantics.
    pub fn semantics(&self) -> UnionSemantics {
        self.semantics
    }

    /// The declared joins.
    pub fn joins(&self) -> &[JoinDef] {
        &self.joins
    }

    /// Binds every relation name, validates the common output schema,
    /// and returns the executable form.
    pub fn resolve(&self, catalog: &Catalog) -> Result<ResolvedQuery, CoreError> {
        if self.joins.is_empty() {
            return Err(CoreError::NoJoins);
        }
        let specs = self
            .joins
            .iter()
            .map(|def| def.resolve(catalog).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        let workload = Arc::new(UnionWorkload::new(specs)?);
        if let Some(p) = &self.predicate {
            // Surface un-compilable predicates at resolve time, not
            // mid-plan: every referenced attribute must exist in the
            // canonical output schema.
            p.compile(workload.canonical_schema())
                .map_err(CoreError::Storage)?;
        }
        Ok(ResolvedQuery {
            workload,
            semantics: self.semantics,
            predicate: self.predicate.clone(),
            predicate_mode: self.predicate_mode,
        })
    }
}

/// Semantics, joins (`u32` count), optional predicate, optional pinned
/// predicate mode — the snapshot's prepared entries and the wire's
/// `Prepare` payload. A decoded query is `Debug`-identical to the
/// original, so engine fingerprints (and therefore prepared-query cache
/// hits) coincide across a round trip.
impl Codec for UnionQuery {
    fn encode(&self, w: &mut ByteWriter) {
        self.semantics.encode(w);
        w.put_seq32(&self.joins);
        self.predicate.encode(w);
        w.put_opt_tag(self.predicate_mode.map(Labeled::tag));
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            semantics: Codec::decode(r)?,
            joins: r.get_seq32()?,
            predicate: Codec::decode(r)?,
            predicate_mode: r.get_opt_tag("predicate mode", PredicateMode::from_tag)?,
        })
    }
}

/// A query bound to catalog data: the validated workload plus the
/// declarative knobs the planner still has to decide on.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// The validated, canonicalized workload.
    pub workload: Arc<UnionWorkload>,
    /// Set or disjoint union.
    pub semantics: UnionSemantics,
    /// Selection predicate, if any.
    pub predicate: Option<Predicate>,
    /// Pinned predicate mode; `None` lets the planner choose.
    pub predicate_mode: Option<PredicateMode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::{CompareOp, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(rel("r1", &["a", "b"], vec![vec![1, 10], vec![2, 20]]))
            .unwrap();
        c.register(rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]))
            .unwrap();
        c.register(rel("r2", &["a", "b"], vec![vec![1, 10]]))
            .unwrap();
        c.register(rel("s2", &["b", "c"], vec![vec![10, 100]]))
            .unwrap();
        c
    }

    #[test]
    fn resolves_chains_against_catalog() {
        let q = UnionQuery::set_union()
            .chain("j1", ["r1", "s1"])
            .unwrap()
            .chain("j2", ["r2", "s2"])
            .unwrap();
        let resolved = q.resolve(&catalog()).unwrap();
        assert_eq!(resolved.workload.n_joins(), 2);
        assert_eq!(resolved.semantics, UnionSemantics::Set);
        assert_eq!(resolved.workload.join(0).name(), "j1");
    }

    #[test]
    fn unknown_relation_is_a_named_error() {
        let q = UnionQuery::set_union().chain("j1", ["r1", "nope"]).unwrap();
        let err = q.resolve(&catalog()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope"), "{msg}");
        assert!(msg.contains("j1"), "{msg}");
        assert!(msg.contains("r1"), "available names listed: {msg}");
    }

    #[test]
    fn duplicate_join_names_rejected() {
        let err = UnionQuery::set_union()
            .chain("j", ["r1", "s1"])
            .unwrap()
            .chain("j", ["r2", "s2"]);
        assert!(err.is_err());
    }

    #[test]
    fn empty_query_rejected() {
        assert!(matches!(
            UnionQuery::set_union().resolve(&catalog()),
            Err(CoreError::NoJoins)
        ));
    }

    #[test]
    fn schema_mismatch_surfaces_from_resolution() {
        let mut c = catalog();
        c.register(rel("t", &["x", "y"], vec![vec![1, 2]])).unwrap();
        let q = UnionQuery::set_union()
            .chain("j1", ["r1", "s1"])
            .unwrap()
            .join(JoinDef::natural("j2", ["t"]))
            .unwrap();
        assert!(matches!(
            q.resolve(&c),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn bad_predicate_attribute_rejected_at_resolve() {
        let q = UnionQuery::set_union()
            .chain("j1", ["r1", "s1"])
            .unwrap()
            .predicate(Predicate::cmp("zz", CompareOp::Le, Value::int(1)));
        assert!(q.resolve(&catalog()).is_err());
    }

    #[test]
    fn disjoint_semantics_carried_through() {
        let q = UnionQuery::disjoint_union()
            .chain("j1", ["r1", "s1"])
            .unwrap();
        let resolved = q.resolve(&catalog()).unwrap();
        assert_eq!(resolved.semantics, UnionSemantics::Disjoint);
    }
}
