//! Selection predicates over joins (§8.3).
//!
//! Two execution modes, selectable per sampler via [`PredicateMode`]:
//!
//! * **Push-down** ([`push_down`], [`PredicateMode::PushDown`]): filter
//!   each base relation with the conjuncts that mention only its
//!   attributes, then sample the filtered join. Works for both
//!   estimator families and is how the UQ2 workload applies its `Q2`
//!   predicates.
//! * **Reject-during-sampling** ([`PredicateMode::Reject`]): the freeze
//!   compiles the predicate once against the workload's output schema,
//!   and each handle's draw step tests a tuple after its owning join
//!   kept it and before it is emitted; a failing tuple counts as
//!   `rejected_predicate` and the sampler selects a join again, so the
//!   output is uniform over `σ_pred(J_1 ∪ … ∪ J_n)`. It "works with
//!   only random-walk [style sampling] … most appropriate for selection
//!   predicates that are not very selective", since it adds a
//!   rejection factor equal to the selectivity.
//!
//! [`SamplerBuilder::predicate`](crate::session::SamplerBuilder::predicate)
//! applies either mode to any strategy.

use crate::error::CoreError;
use std::sync::Arc;
use suj_join::JoinSpec;
use suj_storage::{Predicate, Relation};

/// How a selection predicate is applied to a union sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateMode {
    /// Rewrite every join's base relations before estimation and
    /// sampling (§8.3 push-down). Requires a conjunction of
    /// single-attribute comparisons.
    PushDown,
    /// Reject sampled tuples failing the predicate (§8.3
    /// reject-during-sampling). Works for arbitrary predicates over the
    /// output schema.
    Reject,
}

/// Pushes a conjunctive predicate down to base relations, returning an
/// equivalent filtered join.
///
/// The predicate must be decomposable into single-attribute conjuncts
/// (`True`, `Compare`, or `And` of those); each conjunct filters every
/// relation containing its attribute. For natural joins this preserves
/// semantics exactly: `σ_{A op c}(R ⋈ S) = σ(R) ⋈ σ(S)`.
pub fn push_down(
    spec: &JoinSpec,
    predicate: &Predicate,
    name: &str,
) -> Result<JoinSpec, CoreError> {
    let conjuncts = flatten_conjuncts(predicate)?;

    let mut new_relations: Vec<Arc<Relation>> = Vec::with_capacity(spec.n_relations());
    for rel in spec.relations() {
        // Conjuncts whose attribute lives in this relation.
        let applicable: Vec<&Predicate> = conjuncts
            .iter()
            .copied()
            .filter(|c| match c {
                Predicate::Compare { attr, .. } => rel.schema().contains(attr),
                _ => false,
            })
            .collect();
        if applicable.is_empty() {
            new_relations.push(rel.clone());
        } else {
            let combined = Predicate::And(applicable.into_iter().cloned().collect());
            let compiled = combined.compile(rel.schema()).map_err(CoreError::Storage)?;
            let filtered = rel.filter(format!("{}__σ", rel.name()), &compiled);
            new_relations.push(Arc::new(filtered));
        }
    }

    // Every conjunct must have found at least one home.
    for c in &conjuncts {
        if let Predicate::Compare { attr, .. } = c {
            if !spec.relations().iter().any(|r| r.schema().contains(attr)) {
                return Err(CoreError::Invalid(format!(
                    "predicate attribute `{attr}` not in any relation of `{}`",
                    spec.name()
                )));
            }
        }
    }

    JoinSpec::with_edges(name, new_relations, spec.edges().to_vec()).map_err(CoreError::Join)
}

/// Whether a predicate is push-down-eligible: a conjunction of
/// single-attribute comparisons (`Or` / `Not` must fall back to
/// reject-during-sampling). The planner consults this when choosing a
/// [`PredicateMode`] for a declarative query.
pub fn can_push_down(predicate: &Predicate) -> bool {
    flatten_conjuncts(predicate).is_ok()
}

/// Flattens a predicate into single-attribute conjuncts; fails on `Or` /
/// `Not` (those cannot be pushed down independently).
fn flatten_conjuncts(p: &Predicate) -> Result<Vec<&Predicate>, CoreError> {
    let mut out = Vec::new();
    fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) -> Result<(), CoreError> {
        match p {
            Predicate::True => Ok(()),
            Predicate::Compare { .. } => {
                out.push(p);
                Ok(())
            }
            Predicate::And(children) => {
                for c in children {
                    walk(c, out)?;
                }
                Ok(())
            }
            Predicate::Or(_) | Predicate::Not(_) => Err(CoreError::Invalid(
                "only conjunctions of comparisons can be pushed down; use \
                 PredicateMode::Reject for general predicates"
                    .into(),
            )),
        }
    }
    walk(p, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_join::exec::execute;
    use suj_storage::{CompareOp, FxHashSet, Schema, Tuple, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn spec() -> JoinSpec {
        JoinSpec::chain(
            "j",
            vec![
                rel(
                    "r",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 20]],
                ),
                rel(
                    "s",
                    &["b", "c"],
                    vec![vec![10, 100], vec![10, 101], vec![20, 200]],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_down_equals_filter_after_join() {
        let spec = spec();
        let pred = Predicate::And(vec![
            Predicate::cmp("a", CompareOp::Le, Value::int(3)),
            Predicate::cmp("c", CompareOp::Lt, Value::int(200)),
        ]);
        let pushed = push_down(&spec, &pred, "j_σ").unwrap();
        let pushed_set = execute(&pushed).distinct_set();

        // Ground truth: filter the full join output.
        let full = execute(&spec);
        let compiled = pred.compile(spec.output_schema()).unwrap();
        let expected: FxHashSet<Tuple> = full
            .tuples()
            .iter()
            .filter(|t| compiled.eval(t))
            .cloned()
            .collect();
        assert_eq!(pushed_set, expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn push_down_on_join_attribute_filters_both_sides() {
        let spec = spec();
        let pred = Predicate::eq("b", Value::int(10));
        let pushed = push_down(&spec, &pred, "j_b").unwrap();
        // Both relations lost their b=20 rows.
        assert_eq!(pushed.relation(0).len(), 2);
        assert_eq!(pushed.relation(1).len(), 2);
    }

    #[test]
    fn push_down_rejects_disjunctions() {
        let spec = spec();
        let pred = Predicate::Or(vec![Predicate::eq("a", Value::int(1))]);
        assert!(push_down(&spec, &pred, "bad").is_err());
    }

    #[test]
    fn push_down_rejects_unknown_attribute() {
        let spec = spec();
        let pred = Predicate::eq("zz", Value::int(1));
        assert!(push_down(&spec, &pred, "bad").is_err());
    }

    #[test]
    fn true_predicate_is_identity() {
        let spec = spec();
        let pushed = push_down(&spec, &Predicate::True, "same").unwrap();
        assert_eq!(
            execute(&pushed).distinct_set(),
            execute(&spec).distinct_set()
        );
    }
}
