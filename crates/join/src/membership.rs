//! The join membership oracle.
//!
//! §6.2's overlap estimator needs to check, for a sampled result tuple
//! `t`, "every `J_i ∈ Δ` … to see where `t` is contained in `J_i`. Since
//! we already have the index for each `J_i` (stored in hash tables), this
//! operation could be cheap". For natural joins over standardized
//! attribute names the check is exact: `t ∈ J` iff for every base
//! relation `R` of `J`, the projection of `t` onto `R`'s attributes is a
//! row of `R`. (Shared attributes carry a single value in `t`, so the
//! projections automatically agree on join attributes.)
//!
//! The index behind each check is the relation's [`HashIndex`] over all
//! of its attributes — the same table, encoders and probe as a join
//! edge's — so `π_R(t) ∈ R` is "does the projection encode to a key
//! id".

use crate::error::JoinError;
use crate::spec::JoinSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use suj_storage::{HashIndex, Relation, Schema, Tuple};

/// One base relation of the join, as the oracle checks it.
#[derive(Debug, Clone)]
struct Member {
    relation: Arc<Relation>,
    /// Whole-row index (a [`HashIndex`] over every attribute), built
    /// by the first probe that reaches this relation (concurrent first
    /// probes build it once).
    index: OnceLock<HashIndex>,
    /// Positions in the *canonical* schema of the relation's
    /// attributes, in relation-schema order.
    projection: Vec<usize>,
}

static MEMBERSHIP_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of membership index builds (one per relation a
/// [`MembershipOracle`] indexes). Membership indexes are built by the
/// first probe that needs them, and the plans the planner emits by
/// default never probe one; the prepare and restore tests pin that by
/// watching this counter.
pub fn membership_builds() -> u64 {
    MEMBERSHIP_BUILDS.load(Ordering::Relaxed)
}

impl Member {
    fn index(&self) -> &HashIndex {
        self.index.get_or_init(|| {
            MEMBERSHIP_BUILDS.fetch_add(1, Ordering::Relaxed);
            HashIndex::build(&self.relation, self.relation.schema().attrs())
        })
    }
}

/// Decides membership of canonical-schema tuples in one join.
///
/// Construction validates the projections and indexes nothing: each
/// relation's whole-row index is built by the first
/// [`contains`](Self::contains) that reaches it, so an oracle nothing
/// probes costs no time and no memory. A caller about to serve draws
/// that probe calls [`build_indexes`](Self::build_indexes) first, which
/// keeps the build off the draw path.
#[derive(Debug, Clone)]
pub struct MembershipOracle {
    members: Vec<Member>,
}

impl MembershipOracle {
    /// Builds an oracle for `spec`, interpreting input tuples in
    /// `canonical` attribute order (which must cover the spec's output
    /// schema).
    pub fn new(spec: &JoinSpec, canonical: &Schema) -> Result<Self, JoinError> {
        let members = spec
            .relations()
            .iter()
            .map(|rel| {
                let projection = rel
                    .schema()
                    .attrs()
                    .iter()
                    .map(|a| {
                        canonical.position(a).ok_or_else(|| {
                            JoinError::Invalid(format!(
                                "canonical schema {canonical} lacks attribute `{a}` of `{}`",
                                rel.name()
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Member {
                    relation: rel.clone(),
                    index: OnceLock::new(),
                    projection,
                })
            })
            .collect::<Result<_, JoinError>>()?;
        Ok(Self { members })
    }

    /// Builds an oracle whose canonical order is the spec's own output
    /// schema.
    pub fn for_spec(spec: &JoinSpec) -> Self {
        Self::new(spec, spec.output_schema()).expect("own output schema always covers the spec")
    }

    /// Whether `tuple` (in canonical order) is a result tuple of the
    /// join. Each relation's check probes its membership index through
    /// the projection positions directly — the §6.2 "queries with key"
    /// are hash lookups with zero allocation per check. The first probe
    /// to reach a relation indexes it; a miss short-circuits, so a
    /// relation no probe reaches is never indexed.
    #[inline]
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.members.iter().all(|m| {
            m.index()
                .key_id_projected(tuple.values(), &m.projection)
                .is_some()
        })
    }

    /// Indexes every relation not yet indexed, so that no later
    /// [`contains`](Self::contains) pays a build.
    pub fn build_indexes(&self) {
        for m in &self.members {
            m.index();
        }
    }

    /// Resident bytes of the membership indexes built so far.
    pub fn memory_bytes(&self) -> usize {
        self.members
            .iter()
            .filter_map(|m| m.index.get())
            .map(HashIndex::memory_bytes)
            .sum()
    }

    /// Number of base relations consulted per check (the paper's `M`).
    pub fn n_relations(&self) -> usize {
        self.members.len()
    }
}

/// Convenience: the index of the first join (in `oracles` order) that
/// contains `tuple`, if any — the canonical assignment `f(u)` used by
/// the Bernoulli union sampler and the cover construction.
pub fn first_containing(oracles: &[Arc<MembershipOracle>], tuple: &Tuple) -> Option<usize> {
    oracles.iter().position(|o| o.contains(tuple))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::spec::JoinSpec;
    use suj_storage::{tuple, Relation, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn chain_spec() -> JoinSpec {
        JoinSpec::chain(
            "j",
            vec![
                rel(
                    "r",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 20], vec![3, 10]],
                ),
                rel("s", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn oracle_agrees_with_materialized_join() {
        let spec = chain_spec();
        let oracle = MembershipOracle::for_spec(&spec);
        let result = execute(&spec);
        let set = result.distinct_set();

        for t in result.tuples() {
            assert!(oracle.contains(t), "result tuple must be member: {t}");
        }
        // Some non-members.
        for t in [
            tuple![1i64, 10i64, 200i64], // c mismatched
            tuple![9i64, 10i64, 100i64], // a not in r
            tuple![2i64, 20i64, 100i64], // (20,100) not in s
        ] {
            assert!(!set.contains(&t));
            assert!(!oracle.contains(&t));
        }
    }

    #[test]
    fn oracle_exhaustive_over_value_grid() {
        // Brute-force cross-check: every tuple in a small grid is a
        // member iff it is in the materialized result.
        let spec = chain_spec();
        let oracle = MembershipOracle::for_spec(&spec);
        let set = execute(&spec).distinct_set();
        for a in 0..5i64 {
            for b in [10i64, 20, 30] {
                for c in [100i64, 200, 300] {
                    let t = tuple![a, b, c];
                    assert_eq!(oracle.contains(&t), set.contains(&t), "tuple {t}");
                }
            }
        }
    }

    #[test]
    fn canonical_reordering_respected() {
        let spec = chain_spec();
        let canonical = Schema::new(["c", "a", "b"]).unwrap();
        let oracle = MembershipOracle::new(&spec, &canonical).unwrap();
        // (a=1, b=10, c=100) in canonical order (c, a, b):
        assert!(oracle.contains(&tuple![100i64, 1i64, 10i64]));
        assert!(!oracle.contains(&tuple![1i64, 100i64, 10i64]));
    }

    #[test]
    fn missing_canonical_attr_fails() {
        let spec = chain_spec();
        let bad = Schema::new(["a", "b"]).unwrap();
        assert!(MembershipOracle::new(&spec, &bad).is_err());
    }

    #[test]
    fn cyclic_membership() {
        let spec = JoinSpec::natural(
            "tri",
            vec![
                rel("x", &["a", "b"], vec![vec![1, 2], vec![1, 9]]),
                rel("y", &["b", "c"], vec![vec![2, 3], vec![9, 4]]),
                rel("z", &["c", "a"], vec![vec![3, 1], vec![4, 5]]),
            ],
        )
        .unwrap();
        let oracle = MembershipOracle::for_spec(&spec);
        assert!(oracle.contains(&tuple![1i64, 2i64, 3i64]));
        // (1,9,4) satisfies x and y but z lacks (4,1).
        assert!(!oracle.contains(&tuple![1i64, 9i64, 4i64]));
    }

    #[test]
    fn first_containing_picks_lowest_index() {
        let spec1 = chain_spec();
        let spec2 = JoinSpec::chain(
            "j2",
            vec![
                rel("r2", &["a", "b"], vec![vec![1, 10]]),
                rel("s2", &["b", "c"], vec![vec![10, 100]]),
            ],
        )
        .unwrap();
        let oracles = vec![
            Arc::new(MembershipOracle::for_spec(&spec1)),
            Arc::new(MembershipOracle::for_spec(&spec2)),
        ];
        // In both joins → index 0.
        assert_eq!(
            first_containing(&oracles, &tuple![1i64, 10i64, 100i64]),
            Some(0)
        );
        // Only in join 1 (3,10,100).
        assert_eq!(
            first_containing(&oracles, &tuple![3i64, 10i64, 100i64]),
            Some(0)
        );
        // In neither.
        assert_eq!(first_containing(&oracles, &tuple![8i64, 8i64, 8i64]), None);
    }
}
