//! End-to-end run on the paper's UQ1 workload: five overlapping TPC-H
//! chain joins, parameters estimated (no ground truth consulted), then
//! uniform union sampling with both estimator families — each pipeline
//! assembled by the `SamplerBuilder`.
//!
//! Run with: `cargo run --release --example tpch_union`

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::walk_estimator::{walk_warmup, walkers, WalkEstimatorConfig};
use suj_join::WeightKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five chain joins (nation ⋈ supplier ⋈ customer ⋈ orders ⋈
    // lineitem) over database variants sharing 20% of their rows.
    let opts = UqOptions::new(4, 2024, 0.2);
    let workload = Arc::new(uq1(&opts)?);
    println!("UQ1: {} joins over TPC-H variants", workload.n_joins());
    for j in workload.joins() {
        println!("  {j}");
    }

    // --- Histogram-based estimation (decentralized setting, §5). ---
    let hist = HistogramEstimator::with_olken(&workload, DegreeMode::Max)?;
    let hist_map = hist.overlap_map()?;
    println!(
        "\nhistogram-based estimate: |U| ≈ {:.0} (template cost {:.1})",
        hist_map.union_size(),
        hist.template().cost
    );

    // --- Random-walk estimation (centralized setting, §6). ---
    let mut rng = SujRng::seed_from_u64(1);
    let walk = walk_warmup(
        &workload,
        &walkers(&workload)?,
        &WalkEstimatorConfig::default(),
        &mut rng,
    )?;
    let walk_map = walk.overlap_map()?;
    println!(
        "random-walk estimate:     |U| ≈ {:.0} ({} walks total)",
        walk_map.union_size(),
        walk.walks_spent.iter().sum::<u64>()
    );

    // Ground truth for reference (expensive — the thing we avoid).
    let exact = full_join_union(&workload)?;
    println!("FullJoinUnion truth:      |U| = {}", exact.union_size());

    // --- Sample with random-walk parameters (EW subroutine): the
    // builder owns estimation, cover construction, and sampling. ---
    let config = UnionSamplerConfig {
        estimator: Estimator::Walk(WalkEstimatorConfig::default()),
        ..Default::default()
    };
    let mut sampler = SamplerBuilder::for_workload(workload.clone())
        .strategy(Strategy::Rejection(config))
        .estimation_seed(1)
        .weights(WeightKind::Exact)
        .build()?;
    let (samples, report) = sampler.sample(1000, &mut rng)?;
    println!("\nsampled {} tuples; {}", samples.len(), report.summary());

    // Sanity: every sample is a member of the true union.
    let members = samples
        .iter()
        .filter(|t| exact.union_set.contains(*t))
        .count();
    println!(
        "membership check: {members}/{} samples in the true union",
        samples.len()
    );
    Ok(())
}
