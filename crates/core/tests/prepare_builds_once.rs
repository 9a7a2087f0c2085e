//! A cold prepare builds each join-edge index once: the §5 probe reads
//! every statistic — the Olken bounds' and the path pre-estimates'
//! maximum degrees included — from column histograms, so the only
//! `HashIndex` builds left are the ones the member samplers walk.
//!
//! One `#[test]` on purpose: the build counters are process-global,
//! and exact-delta assertions are only race-free when no other test
//! thread builds indexes concurrently (cargo runs test binaries
//! sequentially).

use std::sync::Arc;
use suj_core::prelude::*;
use suj_join::{membership_builds, JoinTree};
use suj_storage::{hash_index_builds, FxHashSet};
use suj_tpch::{uq1, UqOptions};

#[test]
fn default_prepare_builds_each_edge_index_once() {
    // UQ1 at scale 4 as a caller of the engine holds it: every base
    // relation registered once, the five joins over those names.
    let workload = uq1(&UqOptions::new(4, 7, 0.2)).unwrap();
    let mut catalog = Catalog::new();
    let mut query = UnionQuery::set_union();
    for spec in workload.joins() {
        for relation in spec.relations() {
            if !catalog.contains(relation.name()) {
                catalog.register_arc(relation.clone()).unwrap();
            }
        }
        let names = spec.relations().iter().map(|r| r.name().to_string());
        let def = JoinDef::with_edges(spec.name(), names, spec.edges().to_vec());
        query = query.join(def).unwrap();
    }
    let engine = Engine::new(catalog);

    let indexes_before = hash_index_builds();
    let memberships_before = membership_builds();
    let aliases_before = suj_join::alias_builds();
    let prepared = engine.prepare(&query).unwrap();
    let indexes = hash_index_builds() - indexes_before;
    let memberships = membership_builds() - memberships_before;
    let aliases = suj_join::alias_builds() - aliases_before;

    // The probe ran (histogram statistics decided the rule) …
    assert!(prepared.plan().stats.total_base_rows > 512);
    assert_eq!(prepared.plan().rule.name(), "low-overlap");
    assert!(prepared.plan().stats.available());

    // … and still: one index per distinct (relation, edge key) of the
    // members' join trees, every one of them a sampler's.
    let mut edges = FxHashSet::default();
    for spec in prepared.workload().joins() {
        let tree = JoinTree::spanning(spec, 0).unwrap();
        for &v in tree.order() {
            if tree.parent(v).is_some() {
                let relation = Arc::as_ptr(spec.relation(v)) as usize;
                edges.insert((relation, tree.probe_attrs(v).to_vec()));
            }
        }
    }
    assert_eq!(edges.len(), 20);
    assert_eq!(
        indexes,
        edges.len() as u64,
        "a cold prepare must build each join-edge index exactly once"
    );
    assert_eq!(
        memberships, 0,
        "the default plan probes no membership index"
    );
    assert_eq!(aliases, 5, "one alias arena per member join");
}
