//! Regenerates Figure 6 of the paper (§9.3): online union sampling with
//! sample reuse — total time with vs without reuse, and per-sample time
//! in the regular vs reuse phases.
//!
//! Usage: `fig6 [reuse|per-sample|all] [--scale U] [--seed S]`

use std::sync::Arc;
use suj_bench::*;
use suj_core::algorithm2::OnlineConfig;
use suj_core::prelude::*;
use suj_core::walk_estimator::WalkEstimatorConfig;
use suj_stats::SujRng;

fn online_config(reuse: bool) -> OnlineConfig {
    OnlineConfig {
        reuse,
        // Bound reuse bursts so the figure resolves the pool-exhaustion
        // slope instead of serving all demand in one burst (see the
        // `reuse_burst_cap` docs; the default keeps §7's semantics).
        reuse_burst_cap: 2,
        warmup: WalkEstimatorConfig {
            max_walks_per_join: 300,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn online_sampler(w: Arc<UnionWorkload>, config: OnlineConfig) -> OnlineUnionSampler {
    let parts = OnlineParts::new(w).expect("sampler");
    OnlineUnionSampler::new(Arc::new(parts), config, CoverStrategy::AsGiven)
}

/// Fig 6a: total sampling time with and without reuse.
fn reuse_panel(scale: usize, seed: u64) {
    for name in ["uq1", "uq2", "uq3"] {
        let opts = UqOptions::new(scale, seed, 0.2);
        let w = Arc::new(build_workload(name, &opts).expect("workload"));
        let mut table = FigureTable::new(
            format!(
                "Fig 6a — online sampling time, with vs without reuse ({})",
                name.to_uppercase()
            ),
            &["N", "with_reuse_ms", "without_reuse_ms", "reuse_hits"],
        );
        for n in [100usize, 200, 400, 800] {
            let mut rng_a = SujRng::seed_from_u64(seed);
            let mut with = online_sampler(w.clone(), online_config(true));
            let (_, ra) = with.sample(n, &mut rng_a).expect("run");

            let mut rng_b = SujRng::seed_from_u64(seed);
            let mut without = online_sampler(w.clone(), online_config(false));
            let (_, rb) = without.sample(n, &mut rng_b).expect("run");

            table.push_row(vec![
                n.to_string(),
                ms(ra.total_time() - ra.warmup_time),
                ms(rb.total_time() - rb.warmup_time),
                ra.reuse_accepted.to_string(),
            ]);
        }
        println!("{table}");
    }
}

/// Fig 6b: per-sample time in the regular vs reuse phase.
fn per_sample_panel(scale: usize, seed: u64) {
    let mut table = FigureTable::new(
        "Fig 6b — time per accepted sample: regular vs reuse phase",
        &["workload", "regular_us", "reuse_us"],
    );
    for name in ["uq1", "uq2", "uq3"] {
        let opts = UqOptions::new(scale, seed, 0.2);
        let w = Arc::new(build_workload(name, &opts).expect("workload"));
        // Small pools + large N so BOTH phases run: the pool serves the
        // first ~2×successes samples, the regular walk phase the rest.
        let cfg = OnlineConfig {
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 100,
                min_walks_per_join: 50,
                ..Default::default()
            },
            ..online_config(true)
        };
        let mut sampler = online_sampler(w, cfg);
        let mut rng = SujRng::seed_from_u64(seed);
        let (_, report) = sampler.sample(2000, &mut rng).expect("run");
        let regular = report
            .time_per_accepted()
            .map(|d| format!("{:.2}", d.as_secs_f64() * 1e6))
            .unwrap_or_else(|| "-".into());
        let reuse = report
            .time_per_reuse_accepted()
            .map(|d| format!("{:.2}", d.as_secs_f64() * 1e6))
            .unwrap_or_else(|| "-".into());
        table.push_row(vec![name.to_uppercase(), regular, reuse]);
    }
    println!("{table}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.first().map(String::as_str).unwrap_or("all");
    let scale = parse_flag(&args, "--scale", 4) as usize;
    let seed = parse_flag(&args, "--seed", 42);

    match panel {
        "reuse" => reuse_panel(scale, seed),
        "per-sample" => per_sample_panel(scale, seed),
        "all" => {
            reuse_panel(scale, seed);
            per_sample_panel(scale, seed);
        }
        other => {
            eprintln!("unknown panel `{other}`; try reuse|per-sample|all");
            std::process::exit(2);
        }
    }
}
