//! Regenerates Figure 4 of the paper (§9.1): join-to-union ratio
//! estimation error and union-size estimation runtime, histogram-based
//! vs FullJoin, on UQ1 and UQ3 across overlap scales.
//!
//! Usage: `fig4 [ratio-error-uq1|ratio-error-uq3|runtime-uq1|runtime-uq3|all]
//!         [--scale U] [--seed S]`

use std::sync::Arc;
use suj_bench::*;
use suj_core::prelude::*;
use suj_stats::SujRng;

const OVERLAPS: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8];

fn ratio_error_panel(workload_name: &str, scale: usize, seed: u64) {
    let mut table = FigureTable::new(
        format!(
            "Fig 4{} — error of |J_i|/|U| (histogram+EO) on {}",
            if workload_name == "uq1" { "a" } else { "b" },
            workload_name.to_uppercase()
        ),
        &["overlap", "mean_err", "max_err", "min_err"],
    );
    for p in OVERLAPS {
        let opts = UqOptions::new(scale, seed, p);
        let w = build_workload(workload_name, &opts).expect("workload");
        let exact = full_join_union(&w).expect("ground truth");
        let mut rng = SujRng::seed_from_u64(seed);
        let (map, _) = estimate_overlaps(EstimatorKind::HistogramEo, &w, &mut rng).expect("est");
        let errs = ratio_errors(&map, &exact);
        let max = errs.iter().cloned().fold(0.0, f64::max);
        let min = errs.iter().cloned().fold(f64::INFINITY, f64::min);
        table.push_row(vec![
            format!("{p:.2}"),
            format!("{:.4}", mean(&errs)),
            format!("{max:.4}"),
            format!("{min:.4}"),
        ]);
    }
    println!("{table}");
}

fn runtime_panel(workload_name: &str, scale: usize, seed: u64) {
    let mut table = FigureTable::new(
        format!(
            "Fig 4{} — union size estimation runtime on {}",
            if workload_name == "uq1" { "c" } else { "d" },
            workload_name.to_uppercase()
        ),
        &["overlap", "hist_ms", "fulljoin_ms", "speedup"],
    );
    for p in OVERLAPS {
        let opts = UqOptions::new(scale, seed, p);
        let w = build_workload(workload_name, &opts).expect("workload");
        let mut rng = SujRng::seed_from_u64(seed);
        let (_, hist_time) =
            estimate_overlaps(EstimatorKind::HistogramEo, &w, &mut rng).expect("est");
        let (_, full_time) = timed(|| full_join_union(&w).expect("full join"));
        let speedup = full_time.as_secs_f64() / hist_time.as_secs_f64().max(1e-9);
        table.push_row(vec![
            format!("{p:.2}"),
            ms(hist_time),
            ms(full_time),
            format!("{speedup:.1}x"),
        ]);
    }
    println!("{table}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.first().map(String::as_str).unwrap_or("all");
    // Panel defaults: error panels need full-join ground truth at every
    // overlap (keep small); runtime panels need enough data for the
    // histogram-vs-FullJoin gap to show (the paper's regime).
    let scale_flag = parse_flag(&args, "--scale", 0) as usize;
    let err_scale = if scale_flag == 0 { 4 } else { scale_flag };
    let rt_scale = if scale_flag == 0 { 16 } else { scale_flag };
    let seed = parse_flag(&args, "--seed", 42);

    // Keep one Arc around so workloads drop cheaply in loops.
    let _keep: Option<Arc<UnionWorkload>> = None;

    match panel {
        "ratio-error-uq1" => ratio_error_panel("uq1", err_scale, seed),
        "ratio-error-uq3" => ratio_error_panel("uq3", err_scale, seed),
        "runtime-uq1" => runtime_panel("uq1", rt_scale, seed),
        "runtime-uq3" => runtime_panel("uq3", rt_scale, seed),
        "all" => {
            ratio_error_panel("uq1", err_scale, seed);
            ratio_error_panel("uq3", err_scale, seed);
            runtime_panel("uq1", rt_scale, seed);
            runtime_panel("uq3", rt_scale, seed);
        }
        other => {
            eprintln!("unknown panel `{other}`; try ratio-error-uq1|ratio-error-uq3|runtime-uq1|runtime-uq3|all");
            std::process::exit(2);
        }
    }
}
