//! A batch drawn in blocks is the batch drawn one event at a time.
//!
//! `UnionSampler::sample` asks its sampler for blocks of up to 64
//! selections. `DisjointUnionSampler` plans a block from pre-drawn RNG
//! words and walks its exact-weight members level by level; a member
//! whose sampler takes no fixed number of words, or a walk the words
//! cannot decide, ends the planned run and falls back to the one
//! selection at a time. Whatever the mix, `sample(n)` on one fresh
//! handle must return exactly the `n` tuples that `n` calls of `draw`
//! return on another, leave the two generators in the same state, and
//! count the same report — here over random acyclic unions (chains,
//! stars, skewed and NULL keys, dangling rows, an empty member, each
//! relation listing its attributes in its own order) under every
//! designation, with and without a reject-mode predicate, at batch
//! sizes on both sides of the block cap; and over a union with a cyclic
//! member, walked with exact weights (whose cycle check rejects walks)
//! and with AGM boxes (no fixed word count, so every block falls back
//! at it).

use std::sync::Arc;
use suj_core::prelude::*;
use suj_join::{JoinSpec, WeightKind};
use suj_stats::SujRng;
use suj_storage::{CompareOp, Predicate, Relation, Schema, Tuple, Value};

const SIZES: [usize; 5] = [1, 63, 64, 65, 200];

/// A relation over `attrs`, listed in a random order, with 1–12 rows.
/// Each attribute draws from its own small domain, skewed towards 0,
/// so neighbours share some keys and leave others dangling; one value
/// in twelve is NULL.
fn relation(rng: &mut SujRng, name: &str, attrs: &[&str]) -> Arc<Relation> {
    let mut order: Vec<&str> = attrs.to_vec();
    rng.shuffle(&mut order);
    let domains: Vec<usize> = order.iter().map(|_| 2 + rng.index(5)).collect();
    let rows = (0..1 + rng.index(12))
        .map(|_| {
            domains
                .iter()
                .map(|&d| match rng.index(12) {
                    0 => Value::Null,
                    _ => Value::int(rng.index(d).min(rng.index(d)) as i64),
                })
                .collect::<Vec<_>>()
                .into()
        })
        .collect();
    Arc::new(Relation::new(name, Schema::new(order).unwrap(), rows).unwrap())
}

/// A member join over (a, b, c, d) of shape `shape`: a three-relation
/// chain, a star of three leaves round a centre, a two-relation chain,
/// or a chain that matches nothing.
fn member(rng: &mut SujRng, shape: usize, name: &str) -> Arc<JoinSpec> {
    let mut rel = |suffix: &str, attrs: &[&str]| relation(rng, &format!("{name}_{suffix}"), attrs);
    let spec = match shape {
        0 => JoinSpec::chain(
            name,
            vec![
                rel("r", &["a", "b"]),
                rel("s", &["b", "c"]),
                rel("t", &["c", "d"]),
            ],
        ),
        1 => JoinSpec::natural(
            name,
            vec![
                rel("m", &["a", "b", "c"]),
                rel("l1", &["a", "d"]),
                rel("l2", &["b"]),
                rel("l3", &["c"]),
            ],
        ),
        2 => JoinSpec::chain(
            name,
            vec![rel("r", &["b", "c", "a"]), rel("s", &["c", "d"])],
        ),
        _ => {
            let empty = Schema::new(["d", "c"]).unwrap();
            let rows = vec![Tuple::new(vec![Value::int(1), Value::int(1_000)])];
            JoinSpec::chain(
                name,
                vec![
                    rel("r", &["a", "b", "c"]),
                    Arc::new(Relation::new(format!("{name}_e"), empty, rows).unwrap()),
                ],
            )
        }
    };
    Arc::new(spec.unwrap())
}

/// Two to four members of random shapes, half the time with an empty
/// one beside them; `None` when the union came out empty.
fn random_union(seed: u64) -> Option<Arc<UnionWorkload>> {
    let mut rng = SujRng::seed_from_u64(seed);
    let mut joins: Vec<Arc<JoinSpec>> = (0..2 + rng.index(3))
        .map(|j| {
            let shape = rng.index(3);
            member(&mut rng, shape, &format!("j{j}"))
        })
        .collect();
    if rng.index(2) == 0 {
        let at = rng.index(joins.len() + 1);
        joins.insert(at, member(&mut rng, 3, "empty"));
    }
    let w = Arc::new(UnionWorkload::new(joins).unwrap());
    (full_join_union(&w).unwrap().union_size() > 0).then_some(w)
}

/// The counters a block must count exactly as the draws it replaces.
fn counters(report: &RunReport) -> [Vec<u64>; 2] {
    [
        vec![
            report.accepted,
            report.rejected_cover,
            report.rejected_join,
            report.rejected_predicate,
            report.revised,
        ],
        report.join_draws.clone(),
    ]
}

/// Draws `n` then `SIZES`' next size through `sample` on one fresh
/// handle and through `draw` on another, and compares everything.
fn assert_blocks_match_draws(
    w: &Arc<UnionWorkload>,
    strategy: Strategy,
    weights: WeightKind,
    predicate: Option<&Predicate>,
    seed: u64,
) {
    let build = || {
        let builder = SamplerBuilder::for_workload(w.clone())
            .strategy(strategy)
            .weights(weights);
        match predicate {
            Some(p) => builder.predicate(p.clone(), PredicateMode::Reject),
            None => builder,
        }
        .build()
        .unwrap()
    };
    for (k, &n) in SIZES.iter().enumerate() {
        let label = format!("{strategy:?} {weights:?} predicate={predicate:?} seed={seed} n={n}");
        let (mut blocks, mut draws) = (build(), build());
        let mut rng_blocks = SujRng::seed_from_u64(seed ^ n as u64);
        let mut rng_draws = rng_blocks.clone();
        let mut emitted = 0u64;
        for n in [n, SIZES[(k + 1) % SIZES.len()]] {
            let (batch, call) = blocks.sample(n, &mut rng_blocks).unwrap();
            assert_eq!(call.draw_latency.count(), n as u64, "{label}");
            let one_by_one: Vec<_> = (0..n)
                .map(|_| match draws.draw(&mut rng_draws).unwrap() {
                    Draw::Tuple(idx, t) => {
                        assert_eq!(idx, emitted, "{label}");
                        emitted += 1;
                        t
                    }
                    Draw::Retract(idx) => panic!("{label}: retracted {idx}"),
                })
                .collect();
            assert_eq!(batch, one_by_one, "{label}");
            assert_eq!(
                counters(blocks.report()),
                counters(draws.report()),
                "{label}"
            );
            assert_eq!(
                rng_blocks.clone().next_u64(),
                rng_draws.clone().next_u64(),
                "{label}: the generators parted"
            );
        }
    }
}

#[test]
fn sampled_blocks_equal_one_draw_at_a_time() {
    let predicate = Predicate::Or(vec![
        Predicate::cmp("a", CompareOp::Ge, Value::int(1)),
        Predicate::cmp("d", CompareOp::Eq, Value::int(0)),
    ]);
    let mut unions = 0;
    for seed in 0..40 {
        let Some(w) = random_union(seed) else {
            continue;
        };
        unions += 1;
        let compiled = predicate.compile(w.canonical_schema()).unwrap();
        let exact = full_join_union(&w).unwrap();
        let filtered = exact.union_set.iter().any(|t| compiled.eval(t));
        for strategy in [
            Strategy::Disjoint,
            Strategy::Bernoulli(DesignationPolicy::Record),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
        ] {
            assert_blocks_match_draws(&w, strategy, WeightKind::Exact, None, seed);
            if filtered {
                assert_blocks_match_draws(&w, strategy, WeightKind::Exact, Some(&predicate), seed);
            }
        }
    }
    assert!(
        unions >= 20,
        "only {unions} of 40 random unions were nonempty"
    );
}

/// A triangle with a tail beside two acyclic members: with exact
/// weights the triangle is walked over its spanning tree and its cycle
/// check rejects walks inside a block; with AGM boxes its sampler has
/// no fixed word count, so a block's planned run ends wherever the
/// selection lands on it and that selection runs on its own.
#[test]
fn blocks_fall_back_at_a_member_without_fixed_words() {
    let rel = |name: &str, attrs: [&str; 2], rows: [[i64; 2]; 4]| {
        let rows = rows
            .iter()
            .map(|r| r.map(Value::int).to_vec().into())
            .collect();
        Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), rows).unwrap())
    };
    let cyclic = JoinSpec::natural(
        "cyclic",
        vec![
            rel("x", ["a", "b"], [[1, 2], [1, 9], [5, 2], [5, 6]]),
            rel("y", ["b", "c"], [[2, 3], [2, 4], [9, 4], [6, 3]]),
            rel("z", ["c", "a"], [[3, 1], [4, 5], [4, 1], [3, 5]]),
            rel("w", ["d", "c"], [[0, 3], [1, 4], [2, 4], [3, 9]]),
        ],
    )
    .unwrap();
    let mut rng = SujRng::seed_from_u64(78);
    let joins = vec![
        member(&mut rng, 0, "chain"),
        Arc::new(cyclic),
        member(&mut rng, 1, "star"),
    ];
    let w = Arc::new(UnionWorkload::new(joins).unwrap());
    assert!(full_join_union(&w).unwrap().join_size(1) > 0);
    for weights in [WeightKind::Exact, WeightKind::AgmBox] {
        for strategy in [
            Strategy::Disjoint,
            Strategy::Bernoulli(DesignationPolicy::Record),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
        ] {
            assert_blocks_match_draws(&w, strategy, weights, None, 5);
        }
    }
    let mut sampler = SamplerBuilder::for_workload(w.clone())
        .strategy(Strategy::Disjoint)
        .weights(WeightKind::Exact)
        .build()
        .unwrap();
    let (_, report) = sampler.sample(200, &mut SujRng::seed_from_u64(5)).unwrap();
    assert!(
        report.rejected_join > 0,
        "the triangle's cycle check must reject walks"
    );
}
