//! Heterogeneous joins and the splitting method (§5.2, §8.1): UQ3's
//! three joins normalize the same logical data three different ways
//! (a star join and two chains of different lengths). The histogram
//! estimator rewrites them along a shared standard template of
//! two-attribute relations before bounding overlaps.
//!
//! Run with: `cargo run --release --example heterogeneous_schemas`

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_join::graph::classify;
use suj_join::template::{build_template, split_join};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = UqOptions::new(2, 3, 0.4);
    let workload = Arc::new(uq3(&opts)?);

    println!("UQ3 joins and their shapes:");
    for j in workload.joins() {
        println!("  {:?}  {}", classify(j), j);
    }

    // --- Template selection (§8.1.1): a shared attribute ordering. ---
    let specs: Vec<&JoinSpec> = workload.joins().iter().map(|j| j.as_ref()).collect();
    let template = build_template(&specs)?;
    println!(
        "\nstandard template (cost {:.1}): {}",
        template.cost,
        template
            .order
            .iter()
            .map(|a| a.as_ref())
            .collect::<Vec<_>>()
            .join(" — ")
    );

    // --- Split joins: chains of two-attribute relations. ---
    for spec in &specs {
        let split = split_join(spec, &template)?;
        println!("\nsplit of `{}`:", split.join_name);
        for (i, sr) in split.relations.iter().enumerate() {
            let kind = match sr.source {
                Some(r) => format!("base `{}`", spec.relation(r).name()),
                None => "derived (path pre-estimation)".to_string(),
            };
            let link = if i > 0 {
                if split.fake_links[i - 1] {
                    " ⋈' (fake)"
                } else {
                    " ⋈ (real)"
                }
            } else {
                ""
            };
            println!(
                "  {link} ({}, {})  size ≤ {:.0}  from {kind}",
                sr.x, sr.y, sr.size_bound
            );
        }
    }

    // --- Overlap bounds from the splits (Theorem 4). ---
    let sizes = workload.exact_join_sizes()?;
    let est = HistogramEstimator::new(&workload, DegreeMode::Max, sizes)?;
    let exact = full_join_union(&workload)?;
    println!("\noverlap bounds vs truth:");
    for delta in [vec![0usize, 1], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
        let bound = est.estimate_overlap(&delta);
        let truth = exact.overlap.overlap(&delta);
        println!("  O{delta:?}: bound {bound:.0}, truth {truth:.0}");
    }
    println!(
        "\n|U|: histogram Eq.1 estimate {:.0}, truth {}",
        est.overlap_map()?.union_size(),
        exact.union_size()
    );

    // --- Sample across the heterogeneous schemas through the builder:
    // the hist+EW configuration in one fluent pipeline. ---
    let mut sampler = SamplerBuilder::for_workload(workload.clone())
        .estimator(Estimator::Histogram(HistogramOptions {
            exact_size_hints: true,
        }))
        .strategy(Strategy::Rejection)
        .build()?;
    let mut rng = SujRng::seed_from_u64(3);
    let (samples, report) = sampler.sample(12, &mut rng)?;
    println!("\n12 uniform samples across the three schemas:");
    for t in &samples {
        println!("  {t}");
    }
    println!("\n{}", report.summary());
    Ok(())
}
