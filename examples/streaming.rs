//! Incremental consumption with early stop: `SampleStream` turns any
//! built sampler into a lazy iterator, so Algorithm 2's online
//! refinement runs *while* the caller consumes samples — no batch size
//! declared anywhere.
//!
//! The scenario: an approximate-aggregation client keeps drawing union
//! samples until its running estimate of a mean is tight enough, then
//! simply stops pulling. With the batch API it would have to guess a
//! sample count up front; with the stream it pays only for what it
//! consumes.
//!
//! Run with: `cargo run --release --example streaming`

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::walk_estimator::WalkEstimatorConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = UqOptions::new(2, 31, 0.3);
    let workload = Arc::new(uq1(&opts)?);
    println!(
        "UQ1 with {} joins; canonical schema: {}",
        workload.n_joins(),
        workload.canonical_schema()
    );

    // Algorithm 2 behind the trait object: estimation refines online as
    // the stream is consumed.
    let parts = Arc::new(OnlineParts::new(workload.clone())?);
    let config = OnlineConfig {
        warmup: WalkEstimatorConfig {
            max_walks_per_join: 300,
            ..Default::default()
        },
        // §7's reuse rate R = l/(p·|J|) emits pool-sized bursts of one
        // tuple on joins this small; cap it so the stream stays diverse
        // enough for a running-mean demo.
        reuse_burst_cap: 4,
        ..Default::default()
    };
    let mut sampler: Box<dyn UnionSampler> = Box::new(OnlineUnionSampler::new(
        parts,
        config,
        CoverStrategy::AsGiven,
    ));

    // Aggregate over the order-price column (falls back to the last
    // attribute if a different workload is substituted).
    let value_pos = workload
        .canonical_schema()
        .position("oprice")
        .unwrap_or(workload.canonical_schema().arity() - 1);

    let mut rng = SujRng::seed_from_u64(42);
    let mut stream = SampleStream::over(&mut sampler, &mut rng);
    let mut moments = RunningMoments::new();
    let target_rel_half_width = 0.05;
    let mut consumed = 0usize;

    for item in stream.by_ref() {
        let tuple = item?;
        let value = tuple.get(value_pos);
        if let Some(v) = value
            .as_int()
            .map(|i| i as f64)
            .or_else(|| value.as_float())
        {
            moments.push(v);
        }
        consumed += 1;
        // Early stop: a 95% CI on the mean, tight relative to the mean.
        if consumed >= 64 && consumed.is_multiple_of(16) {
            let half = 1.96 * (moments.variance_sample() / moments.count() as f64).sqrt();
            if half <= target_rel_half_width * moments.mean().abs().max(1e-9) {
                break;
            }
        }
        if consumed >= 100_000 {
            break; // safety stop for pathological variance
        }
    }

    println!(
        "\nstopped after {} samples (stream yielded {}, retracted {})",
        consumed,
        stream.yielded(),
        stream.retracted()
    );
    println!(
        "estimated mean of column #{value_pos}: {:.3} ± {:.3} (95% CI)",
        moments.mean(),
        1.96 * (moments.variance_sample() / moments.count() as f64).sqrt()
    );
    println!("\nsampler report: {}", sampler.report().summary());
    Ok(())
}
