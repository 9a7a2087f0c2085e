//! Online union sampling (Algorithm 2, §7): start from cheap histogram
//! parameters, refine with random walks *while* sampling, reuse warm-up
//! tuples, and backtrack previously returned samples as estimates move.
//!
//! Run with: `cargo run --release --example online_sampling`

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::walk_estimator::WalkEstimatorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // UQ2: three predicate variants of the same five-relation chain —
    // the high-overlap workload where union machinery earns its keep.
    let opts = UqOptions::new(4, 7, 0.2);
    let workload = Arc::new(uq2(&opts)?);
    println!("UQ2 joins:");
    for j in workload.joins() {
        println!("  {j}");
    }

    let config = OnlineConfig {
        phi: 256,   // re-estimate every 256 recorded walks
        gamma: 0.9, // stop updating at 90% confidence
        warmup: WalkEstimatorConfig {
            max_walks_per_join: 500,
            ..Default::default()
        },
        ..Default::default()
    };

    for (label, reuse) in [("with sample reuse", true), ("without reuse", false)] {
        let parts = Arc::new(OnlineParts::new(workload.clone())?);
        let mut sampler = OnlineUnionSampler::new(
            parts,
            OnlineConfig { reuse, ..config },
            CoverStrategy::AsGiven,
        );
        let mut rng = SujRng::seed_from_u64(99);
        let (samples, report) = sampler.sample(2000, &mut rng)?;
        println!("\n--- {label} ---");
        println!("returned {} samples", samples.len());
        println!(
            "reuse hits: {}, walks rejected: {}",
            report.reuse_accepted, report.rejected_join
        );
        println!(
            "parameter updates: {}, backtrack drops: {}",
            report.update_rounds, report.backtrack_dropped
        );
        println!(
            "phase times: warmup {:?}, accepted {:?}, rejected {:?}, reuse {:?}, updates {:?}",
            report.warmup_time,
            report.accepted_time,
            report.rejected_time,
            report.reuse_time,
            report.update_time
        );
    }
    Ok(())
}
