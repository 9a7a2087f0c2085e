//! Pins the serving half of the Exact-Weight artifact-restore
//! guarantee: loading an engine snapshot revives every exact-weight
//! sampler from its persisted count tables and alias arenas, so the
//! restored replica performs **zero** alias builds, reports
//! `estimations() == 0`, and serves draw streams bit-identical to the
//! donor's for the same root seed and request seed.
//!
//! One `#[test]` on purpose: [`suj_join::alias_builds`] is a
//! process-global counter, and exact-delta assertions are only
//! race-free when no other test threads build arenas concurrently
//! (cargo runs test binaries sequentially).

use suj_core::prelude::*;
use suj_storage::{Relation, Schema, Value};

fn rel(name: &str, attrs: &[&str], rows: &[&[i64]]) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .iter()
        .map(|vals| vals.iter().copied().map(Value::int).collect())
        .collect();
    Relation::new(name, schema, tuples).unwrap()
}

fn shop_engine() -> Engine {
    let mut c = Catalog::new();
    c.register(rel(
        "a_items",
        &["sku", "cat"],
        &[&[1, 7], &[2, 7], &[3, 9]],
    ))
    .unwrap();
    c.register(rel(
        "a_sales",
        &["sale", "sku"],
        &[&[100, 1], &[101, 1], &[102, 2]],
    ))
    .unwrap();
    c.register(rel("b_items", &["sku", "cat"], &[&[1, 7], &[5, 9]]))
        .unwrap();
    c.register(rel("b_sales", &["sale", "sku"], &[&[100, 1], &[200, 5]]))
        .unwrap();
    Engine::new(c)
}

#[test]
fn restored_engine_serves_without_alias_rebuild() {
    let query = UnionQuery::set_union()
        .chain("shop_a", ["a_items", "a_sales"])
        .unwrap()
        .chain("shop_b", ["b_items", "b_sales"])
        .unwrap();

    let engine = shop_engine();
    let donor = engine.prepare(&query).unwrap();
    let bytes = engine.snapshot_to_bytes().unwrap();

    let builds_before = suj_join::alias_builds();
    let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
    assert_eq!(
        suj_join::alias_builds(),
        builds_before,
        "snapshot restore must revive samplers from persisted arenas, not rebuild them"
    );

    let restored = restored_engine.prepare(&query).unwrap();
    assert_eq!(restored.estimations(), 0, "restore must not re-estimate");

    // Same (root seed, request seed) ⇒ bit-identical served samples;
    // reports agree on provenance and footprint.
    let mut donor_report = None;
    let mut restored_report = None;
    for seed in [1u64, 7, 42] {
        let (donor_samples, dr) = donor.sample(64, seed).unwrap();
        let (restored_samples, rr) = restored.sample(64, seed).unwrap();
        assert_eq!(donor_samples, restored_samples, "request seed {seed}");
        donor_report = Some(dr);
        restored_report = Some(rr);
    }
    let (donor_report, restored_report) = (donor_report.unwrap(), restored_report.unwrap());

    let donor_config = donor_report.config.as_ref().unwrap();
    let restored_config = restored_report.config.as_ref().unwrap();
    assert_eq!(
        donor_config.sizing,
        Some("exact"),
        "acyclic prepare must carry exact-size provenance: {donor_config}"
    );
    assert_eq!(
        restored_config.sizing, donor_config.sizing,
        "sizing provenance must survive the round trip"
    );

    // The footprint accounting sees count tables + arenas on both sides.
    assert!(donor_report.prepared_bytes > 0);
    assert_eq!(
        restored_report.prepared_bytes, donor_report.prepared_bytes,
        "restored footprint must match the donor's"
    );
}
