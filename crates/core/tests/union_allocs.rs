//! One allocation per accepted tuple at the *union* level.
//!
//! `crates/join/tests/alloc_free.rs` holds the join layer to zero
//! allocations per rejected attempt; this file holds the union layer to
//! the tuple and nothing else. A draw gathers the accepted row ids
//! straight into the canonical tuple it hands out — no join-local
//! tuple, no canonicalizing copy — so once a handle is warm the
//! allocation counter moves by exactly the number of tuples gathered
//! (emitted ones plus those an ownership rule then rejected), however
//! many join-level attempts were rejected on the way. The record
//! policies add their record's growth, which is bounded by the number
//! of *distinct* tuples, not by the number of draws. A whole request
//! through a prepared query adds a fixed handful per request — the
//! handle and the call's report — never a copied label.
//!
//! A counting global allocator wraps the system allocator. This file
//! deliberately holds a single `#[test]` so no concurrent test thread
//! can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use suj_core::prelude::*;
use suj_join::{JoinSpec, WeightKind};
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Value};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .into_iter()
        .map(|vals| vals.into_iter().map(Value::int).collect())
        .collect();
    Arc::new(Relation::new(name, schema, tuples).unwrap())
}

/// Two overlapping all-integer chains over (a, b, c); the second lists
/// its relations and attributes back to front, so its local output
/// order is (c, b, a). Skewed degrees (`b = 0` fans out three ways)
/// make Extended Olken reject inside the join subroutine.
fn workload() -> Arc<UnionWorkload> {
    let r: Vec<Vec<i64>> = (0..12).map(|a| vec![a, a % 4]).collect();
    let mut s: Vec<Vec<i64>> = (0..4).map(|b| vec![b, 100 + b]).collect();
    s.extend([vec![0, 200], vec![0, 201]]);
    let flipped = |rows: &[Vec<i64>]| rows.iter().map(|r| vec![r[1], r[0]]).collect();
    let j1 = JoinSpec::chain(
        "j1",
        vec![
            rel("r1", &["a", "b"], r.clone()),
            rel("s1", &["b", "c"], s.clone()),
        ],
    )
    .unwrap();
    // Drops a few of j1's rows and adds a few of its own.
    let (mut r2, mut s2) = (r[3..].to_vec(), s[1..].to_vec());
    r2.push(vec![40, 1]);
    s2.push(vec![2, 300]);
    let j2 = JoinSpec::chain(
        "j2",
        vec![
            rel("s2", &["c", "b"], flipped(&s2)),
            rel("r2", &["b", "a"], flipped(&r2)),
        ],
    )
    .unwrap();
    Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
}

/// The counters a measurement reads off a handle's report.
#[derive(Debug)]
struct Counts {
    accepted: u64,
    rejected_cover: u64,
    rejected_join: u64,
}

impl Counts {
    fn read(report: &RunReport) -> Self {
        Self {
            accepted: report.accepted,
            rejected_cover: report.rejected_cover,
            rejected_join: report.rejected_join,
        }
    }
}

/// Draws `events` events from a warm handle; returns the allocations
/// they cost and what they counted.
fn measure(sampler: &mut dyn UnionSampler, rng: &mut SujRng, events: usize) -> (u64, Counts) {
    let before = Counts::read(sampler.report());
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..events {
        sampler.draw(rng).unwrap();
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let after = Counts::read(sampler.report());
    let counts = Counts {
        accepted: after.accepted - before.accepted,
        rejected_cover: after.rejected_cover - before.rejected_cover,
        rejected_join: after.rejected_join - before.rejected_join,
    };
    (allocations, counts)
}

/// Algorithm 1 over exact parameters under the given cover policy.
fn algorithm1(policy: CoverPolicy) -> Strategy {
    Strategy::Rejection(UnionSamplerConfig {
        estimator: Estimator::Exact,
        policy,
        ..Default::default()
    })
}

#[test]
fn a_warm_union_handle_allocates_the_tuple_and_nothing_else() {
    let w = workload();
    let distinct = full_join_union(&w).unwrap().union_size() as u64;
    const EVENTS: usize = 4_000;
    let build = |strategy: Strategy| {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(strategy)
            .weights(WeightKind::ExtendedOlken)
            .build()
            .unwrap();
        let mut rng = SujRng::seed_from_u64(11);
        // Warm-up: sizes the row-id scratch and the event queue.
        measure(sampler.as_mut(), &mut rng, 64);
        (sampler, rng)
    };

    // Samplers with no record: exactly one allocation per gathered
    // tuple, none per rejected attempt.
    for (name, strategy) in [
        ("disjoint", Strategy::Disjoint),
        (
            "bernoulli(oracle)",
            Strategy::Bernoulli(DesignationPolicy::Oracle),
        ),
        (
            "algorithm 1 (oracle cover)",
            algorithm1(CoverPolicy::MembershipOracle),
        ),
    ] {
        let (mut sampler, mut rng) = build(strategy);
        let (allocations, counts) = measure(sampler.as_mut(), &mut rng, EVENTS);
        assert_eq!(counts.accepted, EVENTS as u64, "{name}");
        assert!(counts.rejected_join > 0, "{name}: EO must reject attempts");
        assert_eq!(
            counts.rejected_cover > 0,
            !matches!(strategy, Strategy::Disjoint),
            "{name}: the joins overlap, and only a disjoint union keeps every copy"
        );
        assert_eq!(
            allocations,
            counts.accepted + counts.rejected_cover,
            "{name}: one allocation per gathered tuple ({counts:?})"
        );
    }

    // Record policies: the same, plus the record's own growth — a few
    // table doublings, and for Algorithm 1 the live-copy list of each
    // distinct tuple (doubling as copies accumulate).
    let doublings = u64::from(usize::BITS - EVENTS.leading_zeros());
    for (name, strategy, growth) in [
        (
            "bernoulli(record)",
            Strategy::Bernoulli(DesignationPolicy::Record),
            doublings,
        ),
        (
            "algorithm 1 (record cover)",
            algorithm1(CoverPolicy::Record),
            doublings + distinct * doublings,
        ),
    ] {
        let (mut sampler, mut rng) = build(strategy);
        let (allocations, counts) = measure(sampler.as_mut(), &mut rng, EVENTS);
        assert!(
            counts.rejected_join > 0 && counts.rejected_cover > 0,
            "{name}"
        );
        let gathered = counts.accepted + counts.rejected_cover;
        assert!(
            (gathered..=gathered + growth).contains(&allocations),
            "{name}: {allocations} allocations for {gathered} gathered tuples \
             (record growth allowance {growth}; {counts:?})"
        );
    }

    // Blocks add nothing: a warm exact-weight handle plans and walks
    // its batch in blocks of up to 64 draws over a thread-local plan,
    // so a whole batch costs the tuples it gathered plus the call's
    // fixed two (its report's per-join draw counts and the batch
    // vector), at a block's size and well past it.
    for (name, strategy) in [
        ("disjoint", Strategy::Disjoint),
        (
            "bernoulli(oracle)",
            Strategy::Bernoulli(DesignationPolicy::Oracle),
        ),
    ] {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(strategy)
            .weights(WeightKind::Exact)
            .build()
            .unwrap();
        let mut rng = SujRng::seed_from_u64(12);
        sampler.sample(64, &mut rng).unwrap();
        for n in [16, 256] {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let (tuples, call) = sampler.sample(n, &mut rng).unwrap();
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!((tuples.len(), call.accepted), (n, n as u64), "{name}");
            assert_eq!(
                allocations,
                call.accepted + call.rejected_cover + 2,
                "{name}: a batch of {n} ({:?})",
                Counts::read(&call)
            );
        }
    }

    // A whole request through the prepared query: mint a handle, draw
    // `n` tuples, count them into the call's report, fold that into the
    // handle's and return it. Beyond the tuples that costs nine
    // allocations, whatever `n` is: seven for the handle (its box, its
    // list of shared join samplers, the selection bounds and their
    // cumulative table, the per-join miss counters, its report's
    // per-join draw counts, its row-id scratch) and two for the call
    // (the call report's per-join draw counts and the batch vector).
    // Folding the call's report copies no label and allocates nothing.
    let prepared = SamplerBuilder::for_workload(w.clone())
        .strategy(Strategy::Disjoint)
        .weights(WeightKind::ExtendedOlken)
        .freeze()
        .unwrap();
    prepared.sample(16, 0).unwrap();
    for (seed, n) in [(1, 16), (2, 256), (3, 1)] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (tuples, call) = prepared.sample(n, seed).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((tuples.len(), call.accepted), (n, n as u64));
        assert_eq!(allocations, n as u64 + 9, "a request of {n} tuples");
    }
}
