//! Ablation studies called out in DESIGN.md, beyond the paper's own
//! figures:
//!
//! 1. `cover-policy` — paper Record (revision) vs MembershipOracle vs
//!    Bernoulli union trick: rejection/revision profiles and wall time.
//! 2. `degree-mode` — Theorem 4 multipliers from max vs average degrees
//!    (§5.1's refinement): bound tightness on every workload.
//! 3. `template` — optimal template vs its reverse vs an adversarial
//!    shuffle (§8.1, Example 7): overlap-bound inflation.
//! 4. `phi` — Algorithm 2's update cadence: updates performed,
//!    backtracking drops, wall time.
//! 5. `cyclic` — the UQ4 extension workload: spanning-tree sampling
//!    overhead (consistency rejections) and estimator quality.
//! 6. `skew` — Zipf-skewed foreign keys (the paper's named future-work
//!    direction): estimator error and EO efficiency vs skew.
//!
//! Usage: `ablations [cover-policy|degree-mode|template|phi|cyclic|skew|all]
//!         [--scale U] [--seed S]`

use std::sync::Arc;
use suj_bench::*;
use suj_core::algorithm2::OnlineConfig;
use suj_core::prelude::*;
use suj_core::walk_estimator::WalkEstimatorConfig;
use suj_join::template::{build_template, split_join, Template};
use suj_join::WeightKind;
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};

/// Ablation 1: cover policy comparison on the high-overlap workload.
fn cover_policy_panel(scale: usize, seed: u64) {
    let opts = UqOptions::new(scale, seed, 0.2);
    let w = Arc::new(build_workload("uq2", &opts).expect("uq2"));
    let n = 2000;

    let mut table = FigureTable::new(
        "Ablation — cover policy (UQ2, exact parameters, N=2000)",
        &[
            "policy",
            "time_ms",
            "rejected_cover",
            "revised",
            "acceptance",
        ],
    );

    for (label, policy) in [
        ("record (paper)", CoverPolicy::Record),
        ("oracle", CoverPolicy::MembershipOracle),
    ] {
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .cover_policy(policy)
            .build()
            .expect("sampler");
        let mut rng = SujRng::seed_from_u64(seed);
        let ((_, report), t) = timed(|| sampler.sample(n, &mut rng).expect("run"));
        table.push_row(vec![
            label.into(),
            ms(t),
            report.rejected_cover.to_string(),
            report.revised.to_string(),
            format!("{:.3}", report.acceptance_ratio()),
        ]);
    }

    let mut bern = SamplerBuilder::for_workload(w.clone())
        .estimator(Estimator::Exact)
        .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
        .build()
        .expect("bernoulli");
    let mut rng = SujRng::seed_from_u64(seed);
    let ((_, report), t) = timed(|| bern.sample(n, &mut rng).expect("run"));
    table.push_row(vec![
        "bernoulli".into(),
        ms(t),
        report.rejected_cover.to_string(),
        "0".into(),
        format!("{:.3}", report.acceptance_ratio()),
    ]);
    println!("{table}");
}

/// A three-relation chain workload with heavy degree skew (value `v`
/// of the join attribute has degree ~v), where max- and avg-degree
/// multipliers genuinely differ.
fn skewed_workload(seed: u64) -> UnionWorkload {
    let mut rng = SujRng::seed_from_u64(seed);
    let mk_join = |idx: usize, rng: &mut SujRng| {
        let mut r_rows = Vec::new();
        for a in 0..60i64 {
            r_rows.push(Tuple::new(vec![
                Value::int(a + idx as i64 * 7),
                Value::int(rng.range_i64(0, 8)),
            ]));
        }
        // Skew: b = v appears ~v+1 times in s.
        let mut s_rows = Vec::new();
        let mut c = 0i64;
        for b in 0..8i64 {
            for _ in 0..=b {
                s_rows.push(Tuple::new(vec![Value::int(b), Value::int(c)]));
                c += 1;
            }
        }
        let mut t_rows = Vec::new();
        for cc in 0..c {
            t_rows.push(Tuple::new(vec![Value::int(cc), Value::int(cc % 5)]));
        }
        let rel = |n: String, attrs: [&str; 2], rows: Vec<Tuple>| {
            Arc::new(Relation::new(n, Schema::new(attrs).unwrap(), rows).unwrap())
        };
        suj_join::JoinSpec::chain(
            format!("skew{idx}"),
            vec![
                rel(format!("r{idx}"), ["a", "b"], r_rows),
                rel(format!("s{idx}"), ["b", "c"], s_rows),
                rel(format!("t{idx}"), ["c", "d"], t_rows),
            ],
        )
        .unwrap()
    };
    let j0 = mk_join(0, &mut rng);
    let j1 = mk_join(1, &mut rng);
    UnionWorkload::new(vec![Arc::new(j0), Arc::new(j1)]).unwrap()
}

/// Ablation 2: Theorem 4 multipliers — max vs average degree.
fn degree_mode_panel(scale: usize, seed: u64) {
    let mut table = FigureTable::new(
        "Ablation — K(i) degree mode: bound on the all-join overlap",
        &[
            "workload",
            "truth",
            "max_bound",
            "avg_bound",
            "max_infl",
            "avg_infl",
        ],
    );
    let mut cases: Vec<(String, UnionWorkload)> = vec![("SKEWED".into(), skewed_workload(seed))];
    for name in ["uq1", "uq2", "uq3"] {
        let opts = UqOptions::new(scale, seed, 0.4);
        cases.push((
            name.to_uppercase(),
            build_workload(name, &opts).expect("workload"),
        ));
    }
    for (label, w) in cases {
        let exact = full_join_union(&w).expect("truth");
        let sizes = w.exact_join_sizes().expect("sizes");
        let all: Vec<usize> = (0..w.n_joins()).collect();
        let truth = exact.overlap.overlap(&all).max(1.0);
        let max_b = HistogramEstimator::new(&w, DegreeMode::Max, sizes.clone())
            .expect("est")
            .estimate_overlap(&all);
        let avg_b = HistogramEstimator::new(&w, DegreeMode::Avg, sizes)
            .expect("est")
            .estimate_overlap(&all);
        table.push_row(vec![
            label,
            format!("{truth:.0}"),
            format!("{max_b:.0}"),
            format!("{avg_b:.0}"),
            format!("{:.2}x", max_b / truth),
            format!("{:.2}x", avg_b / truth),
        ]);
    }
    println!("{table}");
}

/// Raw (uncapped) Theorem 4 bound on the all-join overlap under a given
/// template — the quantity template selection actually controls (the
/// final estimate additionally caps at min |J_j|).
fn bound_under_template(w: &UnionWorkload, template: &Template) -> f64 {
    let sizes = w.exact_join_sizes().expect("sizes");
    let splits: Vec<_> = w
        .joins()
        .iter()
        .map(|j| split_join(j, template).expect("split"))
        .collect();
    // Replicate the Theorem 4 recurrence manually for the custom
    // template (HistogramEstimator always picks the optimal one).
    let chain_len = splits[0].relations.len();
    let cap = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
    if chain_len < 2 {
        return cap;
    }
    let domain = &splits[0].relations[0].deg_y;
    let mut k: f64 = domain
        .values()
        .map(|v| {
            splits
                .iter()
                .map(|s| s.relations[0].deg_y.degree(&v) * s.relations[1].deg_x.degree(&v))
                .fold(f64::INFINITY, f64::min)
        })
        .filter(|m| *m > 0.0)
        .sum();
    for s in 1..chain_len - 1 {
        let mult = splits
            .iter()
            .map(|sp| {
                if sp.fake_links[s] {
                    1.0
                } else {
                    sp.relations[s + 1].deg_x.max_degree()
                }
            })
            .fold(f64::INFINITY, f64::min);
        k *= mult;
    }
    k
}

/// Ablation 3: template quality (Example 7's worst-case warning).
fn template_panel(scale: usize, seed: u64) {
    let opts = UqOptions::new(scale, seed, 0.4);
    let w = build_workload("uq3", &opts).expect("uq3");
    let exact = full_join_union(&w).expect("truth");
    let all: Vec<usize> = (0..w.n_joins()).collect();
    let truth = exact.overlap.overlap(&all).max(1.0);

    let specs: Vec<&suj_join::JoinSpec> = w.joins().iter().map(|j| j.as_ref()).collect();
    let optimal = build_template(&specs).expect("template");
    // Note: reversing a chain template keeps the same adjacent pairs —
    // a genuinely bad template needs a real permutation that separates
    // same-relation attributes (Example 7's scenario).
    let mut bad_order = optimal.order.clone();
    let mut rng = SujRng::seed_from_u64(seed ^ 0xBAD);
    rng.shuffle(&mut bad_order);
    let shuffled = Template {
        order: bad_order,
        cost: f64::NAN,
    };
    // A second adversarial instance with a different seed.
    let mut worse_order = optimal.order.clone();
    let mut rng2 = SujRng::seed_from_u64(seed ^ 0xDEAD);
    rng2.shuffle(&mut worse_order);
    let shuffled2 = Template {
        order: worse_order,
        cost: f64::NAN,
    };

    let sizes = w.exact_join_sizes().expect("sizes");
    let cap = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut table = FigureTable::new(
        "Ablation — template choice on UQ3 (all-join overlap bound)",
        &["template", "cost", "raw_K", "capped", "raw_inflation"],
    );
    for (label, t) in [
        ("optimal (Held–Karp)", &optimal),
        ("random shuffle A", &shuffled),
        ("random shuffle B", &shuffled2),
    ] {
        let raw = bound_under_template(&w, t);
        let cost = if t.cost.is_nan() {
            "-".to_string()
        } else {
            format!("{:.1}", t.cost)
        };
        table.push_row(vec![
            label.into(),
            cost,
            format!("{raw:.3e}"),
            format!("{:.0}", raw.min(cap)),
            format!("{:.1}x", raw / truth),
        ]);
    }
    table.push_row(vec![
        "truth".into(),
        "-".into(),
        format!("{truth:.0}"),
        format!("{truth:.0}"),
        "1.0x".into(),
    ]);
    println!("{table}");
}

/// Ablation 4: Algorithm 2 update cadence φ.
fn phi_panel(scale: usize, seed: u64) {
    let opts = UqOptions::new(scale, seed, 0.2);
    let w = Arc::new(build_workload("uq1", &opts).expect("uq1"));
    let mut table = FigureTable::new(
        "Ablation — Algorithm 2 update cadence φ (UQ1, N=500, no warm-up)",
        &["phi", "updates", "backtrack_drops", "time_ms"],
    );
    for phi in [32u64, 128, 512, 2048] {
        let cfg = OnlineConfig {
            phi,
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 0,
                ..Default::default()
            },
            ci_threshold: 0.02,
            ..Default::default()
        };
        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(cfg))
            .build()
            .expect("sampler");
        let mut rng = SujRng::seed_from_u64(seed);
        let ((_, report), t) = timed(|| sampler.sample(500, &mut rng).expect("run"));
        table.push_row(vec![
            phi.to_string(),
            report.update_rounds.to_string(),
            report.backtrack_dropped.to_string(),
            ms(t),
        ]);
    }
    println!("{table}");
}

/// Ablation 5: cyclic joins (UQ4) — the extension workload.
fn cyclic_panel(scale: usize, seed: u64) {
    let opts = UqOptions::new(scale, seed, 0.3);
    let w = Arc::new(uq4_cyclic(&opts).expect("uq4"));
    let exact = full_join_union(&w).expect("truth");

    let mut table = FigureTable::new(
        "Ablation — cyclic union workload UQ4 (bundle purchases)",
        &["metric", "value"],
    );
    table.push_row(vec!["|U| truth".into(), exact.union_size().to_string()]);

    // Estimator quality.
    let sizes = w.exact_join_sizes().expect("sizes");
    let est = HistogramEstimator::new(&w, DegreeMode::Max, sizes).expect("est");
    table.push_row(vec![
        "|U| histogram (Eq.1)".into(),
        format!("{:.0}", est.overlap_map().expect("map").union_size()),
    ]);
    let mut rng = SujRng::seed_from_u64(seed);
    let (walk_map, walk_t) =
        estimate_overlaps(EstimatorKind::RandomWalk, &w, &mut rng).expect("walk");
    table.push_row(vec![
        "|U| random-walk".into(),
        format!("{:.0} ({} ms)", walk_map.union_size(), ms(walk_t)),
    ]);

    // Sampling overhead from consistency rejection.
    let mut sampler = SamplerBuilder::for_workload(w.clone())
        .estimator(Estimator::Exact)
        .cover_policy(CoverPolicy::MembershipOracle)
        .build()
        .expect("sampler");
    let ((_, report), t) = timed(|| sampler.sample(1000, &mut rng).expect("run"));
    table.push_row(vec!["sample 1000: time_ms".into(), ms(t)]);
    table.push_row(vec![
        "spanning-tree rejections".into(),
        report.rejected_join.to_string(),
    ]);
    table.push_row(vec![
        "acceptance".into(),
        format!("{:.3}", report.acceptance_ratio()),
    ]);
    println!("{table}");
}

/// Ablation 6: data skew (the paper's named future-work direction).
/// Zipf-skewed foreign keys vs estimator accuracy and EO efficiency.
fn skew_panel(scale: usize, seed: u64) {
    let mut table = FigureTable::new(
        "Ablation — FK skew (Zipf exponent) on UQ1: estimation error and EO efficiency",
        &[
            "zipf_s",
            "hist_ratio_err",
            "walk_ratio_err",
            "eo_acceptance",
        ],
    );
    for s in [0.0f64, 0.5, 1.0, 1.5] {
        let mut opts = UqOptions::new(scale, seed, 0.2);
        opts.config = opts.config.with_skew(s);
        let w = Arc::new(build_workload("uq1", &opts).expect("uq1"));
        let exact = full_join_union(&w).expect("truth");
        let mut rng = SujRng::seed_from_u64(seed);
        let (hist_map, _) =
            estimate_overlaps(EstimatorKind::HistogramEo, &w, &mut rng).expect("hist");
        let (walk_map, _) =
            estimate_overlaps(EstimatorKind::RandomWalk, &w, &mut rng).expect("walk");
        let hist_err = mean(&ratio_errors(&hist_map, &exact));
        let walk_err = mean(&ratio_errors(&walk_map, &exact));

        let mut sampler = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .weights(WeightKind::ExtendedOlken)
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .expect("sampler");
        let (_, report) = sampler.sample(500, &mut rng).expect("run");
        let subroutine_acceptance =
            report.accepted as f64 / (report.accepted + report.rejected_join).max(1) as f64;
        table.push_row(vec![
            format!("{s:.1}"),
            format!("{hist_err:.3}"),
            format!("{walk_err:.3}"),
            format!("{subroutine_acceptance:.3}"),
        ]);
    }
    println!("{table}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let panel = args.first().map(String::as_str).unwrap_or("all");
    let scale = parse_flag(&args, "--scale", 2) as usize;
    let seed = parse_flag(&args, "--seed", 42);

    match panel {
        "cover-policy" => cover_policy_panel(scale, seed),
        "degree-mode" => degree_mode_panel(scale, seed),
        "template" => template_panel(scale, seed),
        "phi" => phi_panel(scale, seed),
        "cyclic" => cyclic_panel(scale, seed),
        "skew" => skew_panel(scale, seed),
        "all" => {
            cover_policy_panel(scale, seed);
            degree_mode_panel(scale, seed);
            template_panel(scale, seed);
            phi_panel(scale, seed);
            cyclic_panel(scale, seed);
            skew_panel(scale, seed);
        }
        other => {
            eprintln!(
                "unknown panel `{other}`; try cover-policy|degree-mode|template|phi|cyclic|skew|all"
            );
            std::process::exit(2);
        }
    }
}
