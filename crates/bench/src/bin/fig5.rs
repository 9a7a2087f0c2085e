//! Regenerates Figure 5 of the paper (§9.1.2–§9.2): estimator accuracy
//! comparison, SetUnion sampling scalability (data scale and sample
//! count), and the time breakdown across estimation / accepted /
//! rejected answers.
//!
//! Usage: `fig5 [ratio-error|scale|samples|breakdown|all] [--scale U]
//!         [--seed S]`

use std::sync::Arc;
use suj_bench::*;
use suj_core::prelude::*;
use suj_stats::SujRng;

/// Fig 5a: per-join ratio error — histogram+EO vs random-walk on UQ1.
fn ratio_error_panel(scale: usize, seed: u64) {
    let opts = UqOptions::new(scale, seed, 0.2);
    let w = build_workload("uq1", &opts).expect("workload");
    let exact = full_join_union(&w).expect("ground truth");

    let mut table = FigureTable::new(
        "Fig 5a — |J_i|/|U| ratio error per join on UQ1",
        &["join", "hist+EO", "rand-walk"],
    );
    let mut rng = SujRng::seed_from_u64(seed);
    let (hist_map, _) = estimate_overlaps(EstimatorKind::HistogramEo, &w, &mut rng).expect("hist");
    let (walk_map, _) = estimate_overlaps(EstimatorKind::RandomWalk, &w, &mut rng).expect("walk");
    let hist_errs = ratio_errors(&hist_map, &exact);
    let walk_errs = ratio_errors(&walk_map, &exact);
    for j in 0..w.n_joins() {
        table.push_row(vec![
            format!("J{}", j + 1),
            format!("{:.4}", hist_errs[j]),
            format!("{:.4}", walk_errs[j]),
        ]);
    }
    table.push_row(vec![
        "mean".into(),
        format!("{:.4}", mean(&hist_errs)),
        format!("{:.4}", mean(&walk_errs)),
    ]);
    println!("{table}");
}

/// Fig 5b: SetUnion sampling time vs data scale on UQ1.
fn scale_panel(seed: u64) {
    let mut table = FigureTable::new(
        "Fig 5b — SetUnion time vs data scale (UQ1, N=500)",
        &["scale_units", "hist+EO_ms", "hist+EW_ms", "rand-walk_ms"],
    );
    for scale in [1usize, 2, 4, 8] {
        let opts = UqOptions::new(scale, seed, 0.2);
        let w = Arc::new(build_workload("uq1", &opts).expect("workload"));
        let mut cells = vec![scale.to_string()];
        for kind in [
            EstimatorKind::HistogramEo,
            EstimatorKind::HistogramEw,
            EstimatorKind::RandomWalk,
        ] {
            let (report, _) = run_set_union(&w, kind, 500, seed).expect("run");
            cells.push(ms(report.total_time()));
        }
        table.push_row(cells);
    }
    println!("{table}");
}

/// Fig 5c–e: sampling time vs sample count on each workload.
fn samples_panel(scale: usize, seed: u64) {
    for (panel, name) in [("c", "uq1"), ("d", "uq2"), ("e", "uq3")] {
        let opts = UqOptions::new(scale, seed, 0.2);
        let w = Arc::new(build_workload(name, &opts).expect("workload"));
        let mut table = FigureTable::new(
            format!(
                "Fig 5{panel} — sampling time vs sample count ({})",
                name.to_uppercase()
            ),
            &["N", "hist+EO_ms", "hist+EW_ms", "rand-walk_ms"],
        );
        for n in [100usize, 200, 400, 800, 1600] {
            let mut cells = vec![n.to_string()];
            for kind in [
                EstimatorKind::HistogramEo,
                EstimatorKind::HistogramEw,
                EstimatorKind::RandomWalk,
            ] {
                let (report, _) = run_set_union(&w, kind, n, seed).expect("run");
                cells.push(ms(report.total_time() - report.warmup_time));
            }
            table.push_row(cells);
        }
        println!("{table}");
    }
}

/// Fig 5f–h: time breakdown (estimation / accepted / rejected).
fn breakdown_panel(scale: usize, seed: u64) {
    for (panel, name) in [("f", "uq1"), ("g", "uq2"), ("h", "uq3")] {
        let opts = UqOptions::new(scale, seed, 0.2);
        let w = Arc::new(build_workload(name, &opts).expect("workload"));
        let mut table = FigureTable::new(
            format!(
                "Fig 5{panel} — time breakdown at N=1000 ({})",
                name.to_uppercase()
            ),
            &[
                "config",
                "estimation_ms",
                "accepted_ms",
                "rejected_ms",
                "acceptance",
            ],
        );
        for kind in [
            EstimatorKind::HistogramEo,
            EstimatorKind::HistogramEw,
            EstimatorKind::RandomWalk,
        ] {
            let (report, warmup) = run_set_union(&w, kind, 1000, seed).expect("run");
            // The report itself records the resolved configuration, so
            // every row names what produced it.
            let config = report
                .config
                .as_ref()
                .map(|c| c.to_string())
                .unwrap_or_else(|| kind.label().into());
            table.push_row(vec![
                config,
                ms(warmup),
                ms(report.accepted_time),
                ms(report.rejected_time),
                format!("{:.3}", report.acceptance_ratio()),
            ]);
        }
        println!("{table}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.first().map(String::as_str).unwrap_or("all");
    let scale = parse_flag(&args, "--scale", 4) as usize;
    let seed = parse_flag(&args, "--seed", 42);

    match panel {
        "ratio-error" => ratio_error_panel(scale, seed),
        "scale" => scale_panel(seed),
        "samples" => samples_panel(scale, seed),
        "breakdown" => breakdown_panel(scale, seed),
        "all" => {
            ratio_error_panel(scale, seed);
            scale_panel(seed);
            samples_panel(scale, seed);
            breakdown_panel(scale, seed);
        }
        other => {
            eprintln!("unknown panel `{other}`; try ratio-error|scale|samples|breakdown|all");
            std::process::exit(2);
        }
    }
}
