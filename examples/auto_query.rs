//! The planner end to end: declarative TPC-H queries, `EXPLAIN`
//! output, and `PreparedQuery::auto` over a bare workload.
//!
//! Registers the deterministic TPC-H style tables in a `Catalog`,
//! then shows three queries whose planned configurations differ —
//! overlapping chains (Algorithm 1), a single join (plain per-join
//! sampling), and disjoint-union semantics (Definition 1) — plus
//! `PreparedQuery::auto` planning the paper's UQ1 workload with no
//! catalog.
//!
//! Run with: `cargo run --release --example auto_query`

use sample_union_joins::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    catalog.register_tpch(&TpchConfig::new(1, 42))?;
    let engine = Engine::new(catalog);
    let mut rng = SujRng::seed_from_u64(11);

    // --- 1. Two overlapping chains over shared tables. ---
    let q1 = UnionQuery::set_union()
        .chain("geo_suppliers", ["region", "nation", "supplier"])?
        .chain("geo_customers", ["region", "nation", "customer"])?;
    // Those two joins have different output schemas, so the engine
    // rejects the query with a named error instead of sampling garbage:
    match engine.plan(&q1) {
        Ok(_) => unreachable!("schema mismatch must be rejected"),
        Err(e) => println!("rejected as expected: {e}\n"),
    }

    // A valid union: supplier chains from two predicate variants.
    let base = UnionQuery::set_union()
        .chain("suppliers_low", ["nation", "supplier"])?
        .predicate(Predicate::cmp("nationkey", CompareOp::Lt, Value::int(13)));
    let prepared = engine.prepare(&base)?;
    println!("--- single filtered chain ---\n{}\n", prepared.explain());
    let (samples, report) = prepared.run(5, &mut rng)?;
    println!("{} samples; {}\n", samples.len(), report.summary());

    // --- 2. Disjoint-union semantics force Definition 1 sampling. ---
    let q3 = UnionQuery::disjoint_union()
        .chain("ns_a", ["nation", "supplier"])?
        .chain("ns_b", ["nation", "supplier"])?;
    let plan = engine.plan(&q3)?;
    println!("--- disjoint union ---\n{}\n", plan.explain());

    // --- 3. The planner over a bare workload (UQ1), no catalog. ---
    let workload = Arc::new(uq1(&UqOptions::new(1, 7, 0.3))?);
    let prepared = PreparedQuery::auto(workload)?;
    println!(
        "--- PreparedQuery::auto on UQ1 ---\n{}\n",
        prepared.explain()
    );
    let (samples, report) = prepared.run(50, &mut rng)?;
    println!("{} samples; {}", samples.len(), report.summary());
    Ok(())
}
