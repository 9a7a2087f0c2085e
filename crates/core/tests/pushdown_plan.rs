//! Pins the order of the prepare pipeline for push-down queries:
//! rewrite **then** plan **then** freeze. The planner must probe the
//! filtered workload — the one that is sampled — so its predicted sizes
//! describe data the sampler sees, and the Exact-Weight samplers its
//! probe builds are the ones the freeze serves from: one alias build
//! per join, at most one estimation pass.
//!
//! One `#[test]` on purpose: [`suj_join::alias_builds`] is a
//! process-global counter, and exact-delta assertions are only
//! race-free when no other test threads build arenas concurrently
//! (cargo runs test binaries sequentially).

use suj_core::prelude::*;
use suj_storage::{CompareOp, Predicate, Relation, Schema, Value};

fn relation(name: &str, attrs: [&str; 2], rows: impl Iterator<Item = [i64; 2]>) -> Relation {
    let tuples = rows
        .map(|r| r.iter().map(|&v| Value::int(v)).collect())
        .collect();
    Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap()
}

#[test]
fn pushdown_query_is_planned_and_built_once_on_filtered_data() {
    // Two chains of 2 000 result tuples `(a, a mod 20, 100 + a mod 20)`
    // over a ∈ 0..2000 and a ∈ 1000..3000; `a < 100` keeps 100 tuples
    // of the first and none of the second.
    let mut catalog = Catalog::new();
    for (name, start) in [("p", 0i64), ("q", 1000)] {
        let r = relation(
            &format!("{name}_r"),
            ["a", "b"],
            (start..start + 2000).map(|a| [a, a % 20]),
        );
        let s = relation(
            &format!("{name}_s"),
            ["b", "c"],
            (0..20).map(|b| [b, 100 + b]),
        );
        catalog.register(r).unwrap();
        catalog.register(s).unwrap();
    }
    let query = UnionQuery::set_union()
        .chain("p", ["p_r", "p_s"])
        .unwrap()
        .chain("q", ["q_r", "q_s"])
        .unwrap()
        .predicate(Predicate::cmp("a", CompareOp::Lt, Value::int(100)));
    let engine = Engine::new(catalog);

    let builds_before = suj_join::alias_builds();
    let prepared = engine.prepare_uncached(&query).unwrap();
    let plan = prepared.plan();
    assert_eq!(
        plan.predicate_mode,
        Some(PredicateMode::PushDown),
        "a conjunctive comparison is pushed down without being pinned"
    );
    assert_eq!(
        suj_join::alias_builds() - builds_before,
        prepared.workload().n_joins() as u64,
        "one Exact-Weight build per join: the planner's probe and the \
         freeze must share the samplers of the filtered workload"
    );
    assert!(prepared.estimations() <= 1);

    // Predicted sizes describe the workload that is sampled.
    let truth = full_join_union(prepared.workload()).unwrap();
    let sizes: Vec<f64> = (0..2).map(|j| truth.join_size(j) as f64).collect();
    assert_eq!(sizes, [100.0, 0.0]);
    assert_eq!(plan.stats.size_hints.as_deref(), Some(&sizes[..]));
    assert_eq!(plan.stats.union_size_hint, Some(truth.union_size() as f64));
    assert_eq!(prepared.summary().sizing, Some("exact"));
    assert!(
        prepared.explain().contains("Σ|Jᵢ|≈100.0 |∪Jᵢ|≈100.0"),
        "{}",
        prepared.explain()
    );

    // And the sampler serves exactly that filtered union.
    let (samples, _) = prepared.sample(200, 1).unwrap();
    assert!(samples.iter().all(|t| truth.union_set.contains(t)));
}
