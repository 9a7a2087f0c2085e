//! The library the figure binaries share.
//!
//! Every panel of the paper's evaluation (Figures 4, 5, 6 — §9) has a
//! regenerating binary in `src/bin/`; this library holds the common
//! machinery: aligned table printing, timing, the three estimator
//! configurations the paper compares (histogram+EO, histogram+EW,
//! random-walk), and ratio-error metrics. System performance (draw,
//! union, prepare, restore, serve, wire) is measured by `benchmark/`,
//! not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suj_core::prelude::*;
use suj_core::walk_estimator::walk_warmup;
use suj_join::WeightKind;
use suj_stats::SujRng;
pub use suj_tpch::prelude::*;

/// An aligned text table, one per figure panel.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Panel title (e.g. "Fig 4a — ratio error, UQ1").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "\n=== {} ===", self.title)?;
        for (i, h) in self.headers.iter().enumerate() {
            write!(f, "{:>w$}  ", h, w = widths[i])?;
        }
        writeln!(f)?;
        for (i, _) in self.headers.iter().enumerate() {
            write!(f, "{}  ", "-".repeat(widths[i]))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                write!(f, "{:>w$}  ", c, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Times a closure, returning its output and wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration in milliseconds with three decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The `u64` following `flag` on a figure binary's command line, or
/// `default` when the flag is absent or its value does not parse.
pub fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The estimator configurations §9 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Histogram-based overlaps with extended-Olken join size hints.
    HistogramEo,
    /// Histogram-based overlaps with exact (EW) join size hints.
    HistogramEw,
    /// Random-walk warm-up estimation.
    RandomWalk,
}

impl EstimatorKind {
    /// Short label used in figure tables.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::HistogramEo => "hist+EO",
            EstimatorKind::HistogramEw => "hist+EW",
            EstimatorKind::RandomWalk => "rand-walk",
        }
    }
}

/// Produces an overlap map with the given estimator, returning the
/// warm-up time alongside.
pub fn estimate_overlaps(
    kind: EstimatorKind,
    workload: &UnionWorkload,
    rng: &mut SujRng,
) -> Result<(OverlapMap, Duration), CoreError> {
    let start = Instant::now();
    let map = match kind {
        EstimatorKind::HistogramEo => {
            HistogramEstimator::with_olken(workload, DegreeMode::Max)?.overlap_map()?
        }
        EstimatorKind::HistogramEw => {
            let sizes = workload.exact_join_sizes()?;
            HistogramEstimator::new(workload, DegreeMode::Max, sizes)?.overlap_map()?
        }
        EstimatorKind::RandomWalk => {
            let est = walk_warmup(workload, &WalkEstimatorConfig::default(), rng)?;
            est.overlap_map()?
        }
    };
    Ok((map, start.elapsed()))
}

/// The weight kind a configuration uses in the join subroutine.
fn weight_kind_for(kind: EstimatorKind) -> WeightKind {
    match kind {
        EstimatorKind::HistogramEo => WeightKind::ExtendedOlken,
        EstimatorKind::HistogramEw | EstimatorKind::RandomWalk => WeightKind::Exact,
    }
}

/// Per-join absolute errors of the estimated ratio `|J_i| / |U|`
/// against ground truth (the §9.1 metric).
pub fn ratio_errors(estimated: &OverlapMap, exact: &ExactUnion) -> Vec<f64> {
    let n = estimated.n();
    let est_union = estimated.union_size().max(f64::MIN_POSITIVE);
    let true_union = exact.union_size() as f64;
    (0..n)
        .map(|j| {
            let est_ratio = estimated.join_size(j) / est_union;
            let true_ratio = exact.join_size(j) as f64 / true_union;
            (est_ratio - true_ratio).abs() / true_ratio
        })
        .collect()
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Builds a workload by name ("uq1" | "uq2" | "uq3" | "uq4" — the
/// cyclic extension).
pub fn build_workload(name: &str, opts: &UqOptions) -> Result<UnionWorkload, CoreError> {
    match name {
        "uq1" => uq1(opts),
        "uq2" => uq2(opts),
        "uq3" => uq3(opts),
        "uq4" => uq4_cyclic(opts),
        other => Err(CoreError::Invalid(format!("unknown workload `{other}`"))),
    }
}

/// The builder-level estimator for a §9 configuration.
fn estimator_for(kind: EstimatorKind) -> Estimator {
    match kind {
        EstimatorKind::HistogramEo => Estimator::Histogram(HistogramOptions::default()),
        EstimatorKind::HistogramEw => Estimator::Histogram(HistogramOptions {
            exact_size_hints: true,
        }),
        EstimatorKind::RandomWalk => Estimator::Walk(WalkEstimatorConfig::default()),
    }
}

/// Runs Algorithm 1 end-to-end with the given estimator configuration;
/// returns the run report (configuration stamped, warm-up time filled
/// in) and the warm-up (estimation + assembly) time.
pub fn run_set_union(
    workload: &Arc<UnionWorkload>,
    kind: EstimatorKind,
    n_samples: usize,
    seed: u64,
) -> Result<(RunReport, Duration), CoreError> {
    // Estimation and sampling must not share an RNG stream (the
    // rand-walk configuration would otherwise retrace its estimation
    // walks while sampling), so the estimation seed is derived.
    let (built, warmup) = timed(|| {
        SamplerBuilder::for_workload(workload.clone())
            .estimator(estimator_for(kind))
            .weights(weight_kind_for(kind))
            .cover_policy(CoverPolicy::Record)
            .estimation_seed(seed ^ 0x9e37_79b9_7f4a_7c15)
            .build()
    });
    let mut sampler = built?;
    let mut rng = SujRng::seed_from_u64(seed);
    let (_, mut report) = sampler.sample(n_samples, &mut rng)?;
    report.warmup_time = warmup;
    Ok((report, warmup))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a [`Strategy::Auto`] sampler: the planner picks the
    /// configuration, which lands in the report's
    /// [`config`](RunReport::config).
    fn build_auto_sampler(
        workload: Arc<UnionWorkload>,
        seed: u64,
    ) -> Result<Box<dyn suj_core::UnionSampler + Send>, CoreError> {
        SamplerBuilder::for_workload(workload)
            .strategy(Strategy::Auto)
            .estimation_seed(seed)
            .build()
    }

    /// The manual set-union configurations `Strategy::Auto` competes with
    /// (§9's matrix: Algorithm 1 under each estimator, the Bernoulli
    /// union trick, and online Algorithm 2).
    fn manual_set_union_candidates(
        workload: &Arc<UnionWorkload>,
        seed: u64,
    ) -> Vec<(String, Box<dyn suj_core::UnionSampler>)> {
        let mut out: Vec<(String, Box<dyn suj_core::UnionSampler>)> = Vec::new();
        for kind in [
            EstimatorKind::HistogramEo,
            EstimatorKind::HistogramEw,
            EstimatorKind::RandomWalk,
        ] {
            let sampler = SamplerBuilder::for_workload(workload.clone())
                .estimator(estimator_for(kind))
                .weights(weight_kind_for(kind))
                .estimation_seed(seed)
                .build()
                .expect("rejection candidate");
            out.push((format!("rejection/{}", kind.label()), sampler));
        }
        let bernoulli = SamplerBuilder::for_workload(workload.clone())
            .estimator(estimator_for(EstimatorKind::HistogramEw))
            .strategy(Strategy::Bernoulli(DesignationPolicy::Record))
            .estimation_seed(seed)
            .build()
            .expect("bernoulli candidate");
        out.push(("bernoulli/hist+EW".into(), bernoulli));
        // Reuse is disabled for the comparison: the reuse phase emits
        // *copies* of previously drawn tuples (§7's rate R), so with it on
        // the per-sample time measures duplication, not fresh-sample
        // throughput.
        let online = SamplerBuilder::for_workload(workload.clone())
            .strategy(Strategy::Online(OnlineConfig {
                reuse: false,
                ..OnlineConfig::default()
            }))
            .estimation_seed(seed)
            .build()
            .expect("online candidate");
        out.push(("online".into(), online));
        out
    }

    /// Steady-state sampling time: one warm-up batch (fills records /
    /// reuse pools), then the timed batch.
    fn steady_sampling_time(
        sampler: &mut dyn suj_core::UnionSampler,
        n: usize,
        seed: u64,
    ) -> Duration {
        let mut rng = SujRng::seed_from_u64(seed);
        sampler.sample(n.min(100), &mut rng).expect("warm-up batch");
        let (result, t) = timed(|| sampler.sample(n, &mut rng));
        result.expect("timed batch");
        t
    }

    /// Serves `requests` deterministic sampling requests (ids `0..requests`,
    /// `n` samples each) over a shared prepared query with a
    /// `workers`-thread [`SamplingService`]; returns the responses sorted
    /// by request id, the batch wall time, and the final service stats.
    /// Same prepared query + same ids ⇒ bit-identical responses for any
    /// worker count — the serving determinism contract.
    fn serve_prepared(
        prepared: &Arc<suj_core::PreparedQuery>,
        workers: usize,
        requests: u64,
        n: usize,
    ) -> (Vec<SampleResponse>, Duration, ServiceStats) {
        let service =
            SamplingService::start(Engine::default(), ServiceConfig::with_workers(workers));
        let batch = (0..requests)
            .map(|id| SampleRequest::prepared(id, n, prepared))
            .collect();
        let start = Instant::now();
        let mut responses = service.run_batch(batch).expect("serve batch");
        let elapsed = start.elapsed();
        responses.sort_by_key(|r| r.id);
        (responses, elapsed, service.shutdown())
    }

    /// Best-of-`reps` serving wall time (load spikes from concurrently
    /// running test binaries hit single measurements hard; the minimum is
    /// the stable statistic).
    fn best_serve_time(
        prepared: &Arc<suj_core::PreparedQuery>,
        workers: usize,
        requests: u64,
        n: usize,
        reps: usize,
    ) -> Duration {
        (0..reps.max(1))
            .map(|_| serve_prepared(prepared, workers, requests, n).1)
            .min()
            .expect("at least one rep")
    }

    #[test]
    fn figure_table_formats_aligned() {
        let mut t = FigureTable::new("demo", &["x", "time_ms"]);
        t.push_row(vec!["1".into(), "0.5".into()]);
        t.push_row(vec!["100".into(), "12.25".into()]);
        let s = t.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("time_ms"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn figure_table_rejects_ragged_rows() {
        let mut t = FigureTable::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn ratio_errors_zero_for_exact_map() {
        let opts = UqOptions::new(1, 3, 0.3);
        let w = uq3(&opts).unwrap();
        let exact = full_join_union(&w).unwrap();
        let errs = ratio_errors(&exact.overlap, &exact);
        for e in errs {
            assert!(e < 1e-9, "exact map must have zero ratio error, got {e}");
        }
    }

    #[test]
    fn estimators_produce_positive_unions() {
        let opts = UqOptions::new(1, 3, 0.3);
        let w = uq3(&opts).unwrap();
        let mut rng = SujRng::seed_from_u64(1);
        for kind in [
            EstimatorKind::HistogramEo,
            EstimatorKind::HistogramEw,
            EstimatorKind::RandomWalk,
        ] {
            let (map, _) = estimate_overlaps(kind, &w, &mut rng).unwrap();
            assert!(map.union_size() > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn run_set_union_produces_report() {
        let opts = UqOptions::new(1, 3, 0.3);
        let w = Arc::new(uq3(&opts).unwrap());
        let (report, warmup) = run_set_union(&w, EstimatorKind::HistogramEw, 50, 9).unwrap();
        assert!(report.accepted >= 50);
        assert!(warmup > Duration::ZERO);
    }

    #[test]
    fn run_set_union_report_names_its_configuration() {
        let opts = UqOptions::new(1, 3, 0.3);
        let w = Arc::new(uq3(&opts).unwrap());
        let (report, _) = run_set_union(&w, EstimatorKind::HistogramEo, 30, 9).unwrap();
        let config = report.config.expect("config stamped");
        assert_eq!(config.strategy, "rejection");
        assert_eq!(config.estimator, "histogram(EO)");
    }

    /// ISSUE 2 acceptance: on the set-union workloads, `Strategy::Auto`
    /// must select a configuration whose steady-state sample throughput
    /// is within 2× of the best manual configuration.
    ///
    /// Wall-clock measurements contend with concurrently running test
    /// binaries, so reps are interleaved round-robin across all
    /// configurations (load spikes hit everyone equally) and the check
    /// retries a few times — a flaky environment must not look like a
    /// planner regression, while a genuinely >2× configuration still
    /// fails every attempt.
    #[test]
    fn auto_throughput_within_2x_of_best_manual() {
        let opts = UqOptions::new(1, 42, 0.2);
        for name in ["uq1", "uq2", "uq3"] {
            let w = Arc::new(build_workload(name, &opts).unwrap());
            let n = 400usize;
            let reps = 5u64;
            let mut auto = build_auto_sampler(w.clone(), 42).unwrap();
            let auto_label = auto
                .report()
                .config
                .as_ref()
                .map(|c| c.to_string())
                .unwrap_or_default();
            let mut candidates = manual_set_union_candidates(&w, 42);
            let mut verdict = None;
            for _attempt in 0..3 {
                let mut auto_t = Duration::MAX;
                let mut times = vec![Duration::MAX; candidates.len()];
                for i in 0..reps {
                    auto_t = auto_t.min(steady_sampling_time(&mut *auto, n, 7 + i));
                    for (slot, (_, sampler)) in times.iter_mut().zip(candidates.iter_mut()) {
                        *slot = (*slot).min(steady_sampling_time(&mut **sampler, n, 7 + i));
                    }
                }
                let (best_idx, best) = times.iter().enumerate().min_by_key(|(_, t)| **t).unwrap();
                let within = auto_t.as_secs_f64() <= best.as_secs_f64() * 2.0;
                verdict = Some((auto_t, *best, candidates[best_idx].0.clone()));
                if within {
                    break;
                }
            }
            let (auto_t, best, best_label) = verdict.unwrap();
            assert!(
                auto_t.as_secs_f64() <= best.as_secs_f64() * 2.0,
                "{name}: auto [{auto_label}] took {auto_t:?}, more than 2x the best \
                 manual configuration [{best_label}] at {best:?} on every attempt"
            );
        }
    }

    /// ISSUE 3 acceptance (determinism half): a 4-worker serving run is
    /// bit-identical per request id to a 1-worker run with the same
    /// root seed, on each of the set-union workloads.
    #[test]
    fn serving_is_deterministic_across_worker_counts() {
        let opts = UqOptions::new(1, 42, 0.2);
        for name in ["uq1", "uq2", "uq3"] {
            let prepared = Arc::new(
                suj_core::PreparedQuery::auto(Arc::new(build_workload(name, &opts).unwrap()))
                    .unwrap(),
            );
            let (one, _, stats1) = serve_prepared(&prepared, 1, 24, 64);
            let (four, _, stats4) = serve_prepared(&prepared, 4, 24, 64);
            assert_eq!(stats1.completed, 24);
            assert_eq!(stats4.completed, 24);
            assert_eq!(one.len(), four.len());
            for (a, b) in one.iter().zip(&four) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.tuples, b.tuples,
                    "{name}: request {} diverged between 1 and 4 workers",
                    a.id
                );
            }
            // Estimation was paid once at prepare; 48 served requests
            // only minted handles.
            assert!(prepared.estimations() <= 1);
            assert_eq!(prepared.handles(), 48);
        }
    }

    /// ISSUE 3 acceptance (throughput half): with ≥4 cores, 4 workers
    /// serve ≥2× the single-worker throughput. Hardware-gated — on
    /// fewer cores thread parallelism physically cannot speed up a
    /// CPU-bound load, so the assertion would only measure the host.
    #[test]
    fn serving_scales_with_workers_when_cores_allow() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores < 4 {
            eprintln!("skipping scaling assertion: {cores} core(s) available");
            return;
        }
        let opts = UqOptions::new(1, 42, 0.2);
        for name in ["uq1", "uq2", "uq3"] {
            let prepared = Arc::new(
                suj_core::PreparedQuery::auto(Arc::new(build_workload(name, &opts).unwrap()))
                    .unwrap(),
            );
            let mut speedup = 0.0f64;
            // Retry: a shared CI box can starve one attempt; a genuine
            // scaling regression fails all three.
            for _ in 0..3 {
                let t1 = best_serve_time(&prepared, 1, 64, 256, 3);
                let t4 = best_serve_time(&prepared, 4, 64, 256, 3);
                speedup = t1.as_secs_f64() / t4.as_secs_f64().max(f64::EPSILON);
                if speedup >= 2.0 {
                    break;
                }
            }
            assert!(
                speedup >= 2.0,
                "{name}: 4-worker speedup {speedup:.2}x stayed below 2x"
            );
        }
    }

    #[test]
    fn workload_lookup() {
        let opts = UqOptions::new(1, 3, 0.3);
        assert!(build_workload("uq1", &opts).is_ok());
        assert!(build_workload("nope", &opts).is_err());
    }
}
