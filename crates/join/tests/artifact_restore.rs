//! Pins the Exact-Weight artifact-restore guarantee: reviving a
//! sampler from persisted [`EwArtifacts`] performs **zero** alias-table
//! builds and serves bit-identical draw streams.
//!
//! This lives in its own integration binary (one `#[test]`) because
//! [`alias_builds`] is a process-global counter: asserting an exact
//! delta is only race-free when no other test threads build arenas
//! concurrently. Cargo runs test binaries sequentially, so a
//! single-test binary owns the counter for its whole run.

use std::sync::Arc;
use suj_join::{alias_builds, ExactWeightSampler, JoinSampler, JoinSpec, RowDraw};
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};

fn rel(name: &str, attrs: &[&str], rows: &[&[i64]]) -> Arc<Relation> {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    let tuples = rows
        .iter()
        .map(|vals| Tuple::new(vals.iter().copied().map(Value::int).collect()))
        .collect();
    Arc::new(Relation::new(name, schema, tuples).unwrap())
}

#[test]
fn restore_from_artifacts_builds_no_aliases() {
    let spec = Arc::new(
        JoinSpec::chain(
            "skew",
            vec![
                rel("r", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20], &[4, 30]]),
                rel(
                    "s",
                    &["b", "c"],
                    &[&[10, 100], &[10, 101], &[10, 102], &[20, 200], &[40, 400]],
                ),
                rel(
                    "t",
                    &["c", "d"],
                    &[&[100, 1], &[100, 2], &[101, 3], &[200, 4]],
                ),
            ],
        )
        .unwrap(),
    );

    let builds_start = alias_builds();
    let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
    assert_eq!(
        alias_builds(),
        builds_start + 1,
        "a fresh prepare builds its arenas exactly once"
    );

    let artifacts = sampler.artifacts();
    let builds_before_restore = alias_builds();
    let restored = ExactWeightSampler::from_artifacts(spec, artifacts).unwrap();
    assert_eq!(
        alias_builds(),
        builds_before_restore,
        "from_artifacts must not rebuild any alias table"
    );

    assert_eq!(restored.size_info(), sampler.size_info());
    assert_eq!(restored.memory_bytes(), sampler.memory_bytes());

    // Same artifacts ⇒ bit-identical draw streams.
    let mut ra = SujRng::seed_from_u64(33);
    let mut rb = SujRng::seed_from_u64(33);
    let mut da = RowDraw::new();
    let mut db = RowDraw::new();
    for _ in 0..500 {
        assert_eq!(
            sampler.sample_rows(&mut ra, &mut da),
            restored.sample_rows(&mut rb, &mut db)
        );
        assert_eq!(da.rows(), db.rows());
    }
}
