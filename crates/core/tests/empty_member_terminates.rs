//! No draw outlives its attempt budget.
//!
//! A member whose sampler holds a positive size *bound* over an empty
//! join never accepts. The shared draw step gives such a member
//! `MAX_JOIN_TRIES` consecutive rejected attempts, then marks it dead:
//! selection skips it, and a union with no live member left answers
//! with a typed error instead of spinning — through
//! `PreparedQuery::sample` and through a budgeted service request,
//! whose deadline is only checked *between* draws. A union that still
//! has a live member keeps serving from it.
//!
//! One `#[test]`: the three parts share the million-attempt bill.

use std::sync::Arc;
use std::time::Duration;
use suj_core::prelude::*;
use suj_join::exec::execute;
use suj_join::{JoinSpec, WeightKind};
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};

fn relation(name: &str, attrs: &[&str], rows: impl Iterator<Item = Vec<i64>>) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples: Vec<Tuple> = rows
        .map(|r| r.into_iter().map(Value::int).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

/// Three 300-row edge relations closing no triangle (AGM bound > 0,
/// OUT = 0), beside a two-row chain that joins.
fn engine() -> Engine {
    let mut catalog = Catalog::new();
    for rel in [
        relation("e_ab", &["a", "b"], (0..300).map(|i| vec![i, i + 1000])),
        relation(
            "e_bc",
            &["b", "c"],
            (0..300).map(|i| vec![i + 1000, i + 2000]),
        ),
        relation(
            "e_ca",
            &["c", "a"],
            (0..300).map(|i| vec![i + 2000, i + 5000]),
        ),
        relation("r", &["a", "b"], (0..2).map(|i| vec![i, i + 10])),
        relation("s", &["b", "c"], (0..2).map(|i| vec![i + 10, i + 100])),
    ] {
        catalog.register(rel).unwrap();
    }
    Engine::new(catalog)
}

#[test]
fn a_member_that_never_accepts_is_given_up_not_retried_forever() {
    // --- The reproduction: a triangle-free cyclic single join. ---
    let engine = engine();
    let empty = UnionQuery::set_union()
        .join(JoinDef::natural("tri", ["e_ab", "e_bc", "e_ca"]))
        .unwrap();
    let prepared = engine.prepare(&empty).unwrap();
    let summary = prepared.summary().to_string();
    for part in ["strategy=disjoint", "weights=agm-box", "rule=cyclic-join"] {
        assert!(summary.contains(part), "plan: {summary}");
    }
    assert_eq!(execute(prepared.workload().join(0)).len(), 0);

    // In-process: the draw ends, in a typed error.
    assert!(matches!(prepared.sample(4, 1), Err(CoreError::Invalid(_))));

    // Served, with a budget the first draw alone overruns: the worker
    // answers with a typed error ...
    let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(1));
    let doomed = SampleRequest::prepared(1, 4, &prepared)
        .with_seed(1)
        .with_budget(Duration::from_millis(200));
    let outcome = service.submit(doomed).unwrap().wait();
    assert!(
        matches!(
            outcome,
            Err(CoreError::Invalid(_) | CoreError::DeadlineExceeded)
        ),
        "outcome: {outcome:?}"
    );
    // ... and then serves the next request.
    let chain = UnionQuery::set_union().chain("rs", ["r", "s"]).unwrap();
    let healthy = engine.prepare(&chain).unwrap();
    let response = service
        .submit(SampleRequest::prepared(2, 8, &healthy).with_seed(2))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.tuples.len(), 8);
    let stats = service.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 1));

    // --- A live member beside an empty-but-bounded one. ---
    // `dead`'s first two relations join, so the Olken bound is
    // positive, but nothing reaches its third.
    let rel = |name: &str, attrs: &[&str], rows: Vec<Vec<i64>>| {
        Arc::new(relation(name, attrs, rows.into_iter()))
    };
    let live = JoinSpec::chain(
        "live",
        vec![
            rel(
                "lr",
                &["a", "b"],
                vec![vec![1, 10], vec![2, 10], vec![3, 20]],
            ),
            rel("ls", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            rel("lt", &["c", "d"], vec![vec![100, 7], vec![200, 8]]),
        ],
    )
    .unwrap();
    let dead = JoinSpec::chain(
        "dead",
        vec![
            rel("dr", &["a", "b"], vec![vec![1, 10], vec![2, 20]]),
            rel("ds", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            rel("dt", &["c", "d"], vec![vec![900, 7]]),
        ],
    )
    .unwrap();
    let members = execute(&live).distinct_set();
    let mut sampler = SamplerBuilder::for_joins(vec![Arc::new(live), Arc::new(dead)])
        .unwrap()
        .strategy(Strategy::Disjoint)
        .weights(WeightKind::ExtendedOlken)
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(3);
    let (tuples, report) = sampler.sample(200, &mut rng).unwrap();
    assert_eq!(tuples.len(), 200);
    assert!(tuples.iter().all(|t| members.contains(t)));
    assert!(
        report.join_draws[1] > 0 && report.rejected_join >= report.join_draws[1],
        "the empty member was selected and only ever rejected: {report:?}"
    );
}
