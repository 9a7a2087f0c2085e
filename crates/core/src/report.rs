//! Run reports: counters and phase timing (Fig. 5f–h, Fig. 6b).
//!
//! Every union sampler produces a [`RunReport`] recording where time and
//! attempts went: parameter estimation (warm-up), producing accepted
//! answers, producing rejected answers, reuse-phase draws, revisions,
//! and backtracking — the quantities the paper's time-breakdown and
//! per-phase figures plot.

use std::fmt;
use std::time::Duration;

/// The resolved configuration that produced a run — strategy,
/// estimator, cover, predicate mode — as recorded in
/// [`RunReport::config`].
///
/// Fig. 5-style benchmark output compares many estimator × algorithm
/// configurations; carrying the resolved configuration inside the
/// report means every table row can identify which configuration
/// produced it, including configurations the planner picked on the
/// caller's behalf ([`Strategy::Auto`](crate::session::Strategy)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Sampling strategy, e.g. `rejection` or `bernoulli(record)`.
    pub strategy: String,
    /// Parameter estimator, e.g. `exact` or `histogram(EO)`; `online`
    /// when the strategy estimates while sampling.
    pub estimator: String,
    /// Per-join weight instantiation, e.g. `exact` or `agm-box`;
    /// `None` when the strategy picks its own weights (online).
    pub weights: Option<String>,
    /// Cover ordering, for strategies that build a cover.
    pub cover: Option<String>,
    /// Predicate mode, when a selection predicate is attached.
    pub predicate: Option<String>,
    /// Provenance of the join-size figures the plan consumed
    /// ([`Sizing`](crate::planner::Sizing)): `exact` when every size is
    /// an integer join cardinality (Exact-Weight count tables or the
    /// full-join estimator), `histogram` when some size is a §5
    /// histogram bound, `walk` when some is a §6 random-walk estimate,
    /// `bound` when some is the upper bound a member sampler rejects
    /// against; `None` when no sizes drove the decision.
    pub sizing: Option<String>,
    /// The planner rule that selected this configuration, when it came
    /// from [`Strategy::Auto`](crate::session::Strategy) or the
    /// [`Engine`](crate::catalog::Engine) rather than explicit calls.
    pub rule: Option<String>,
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "strategy={} estimator={}", self.strategy, self.estimator)?;
        if let Some(weights) = &self.weights {
            write!(f, " weights={weights}")?;
        }
        if let Some(cover) = &self.cover {
            write!(f, " cover={cover}")?;
        }
        if let Some(predicate) = &self.predicate {
            write!(f, " predicate={predicate}")?;
        }
        if let Some(sizing) = &self.sizing {
            write!(f, " sizing={sizing}")?;
        }
        if let Some(rule) = &self.rule {
            write!(f, " rule={rule}")?;
        }
        Ok(())
    }
}

/// Number of log₂ latency buckets ([`LatencyHistogram`]); bucket 31
/// absorbs everything from ~1 s upward.
const LATENCY_BUCKETS: usize = 32;

/// A fixed-size log₂ histogram of latencies: per draw in a
/// [`RunReport`], per request in the serving pool.
///
/// Each bucket `i` counts events whose wall time fell in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is sub-nanosecond); the top
/// bucket saturates. Percentiles report the bucket's upper bound, so
/// they are conservative to within a factor of two — plenty for the
/// serving dashboards ([`SamplingService`](crate::serve::SamplingService)
/// stats) they feed, and mergeable across threads without locks held
/// during sampling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    recorded: u64,
}

impl LatencyHistogram {
    fn bucket(d: Duration) -> usize {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        if ns == 0 {
            0
        } else {
            ((64 - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Records one latency.
    pub fn record(&mut self, d: Duration) {
        self.counts[Self::bucket(d)] += 1;
        self.recorded += 1;
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.recorded
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Folds another histogram into this one (per-service aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.recorded += other.recorded;
    }

    /// The latency at quantile `p` in `[0, 1]` (bucket upper bound);
    /// `None` when nothing was recorded.
    pub fn percentile(&self, p: f64) -> Option<Duration> {
        if self.recorded == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.recorded as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Duration::from_nanos(1u64 << i));
            }
        }
        Some(Duration::from_nanos(1u64 << (LATENCY_BUCKETS - 1)))
    }

    /// Median draw latency.
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(0.50)
    }

    /// 99th-percentile draw latency.
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(0.99)
    }

    /// Counts accrued since `baseline` (an earlier snapshot of the same
    /// histogram).
    fn delta_since(&self, baseline: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, (a, b)) in self.counts.iter().zip(&baseline.counts).enumerate() {
            out.counts[i] = a.saturating_sub(*b);
        }
        out.recorded = self.recorded.saturating_sub(baseline.recorded);
        out
    }
}

/// Counters and timings for one sampling run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Tuples in the returned sample.
    pub accepted: u64,
    /// Samples rejected by cover logic (drawn from a join but owned by
    /// an earlier cover member).
    pub rejected_cover: u64,
    /// Rejections inside the join-sampling subroutine (failed walks,
    /// EO acceptance tests, cycle-consistency).
    pub rejected_join: u64,
    /// Revisions performed (Algorithm 1 lines 10–12).
    pub revised: u64,
    /// Tuples removed from the sample by revisions.
    pub revision_removed: u64,
    /// Reuse-pool draws that were accepted (Algorithm 2).
    pub reuse_accepted: u64,
    /// Sample copies emitted through the reuse path (§7's rate R can
    /// emit several per accepted draw).
    pub reuse_copies: u64,
    /// Reuse-pool draws that were rejected (Algorithm 2).
    pub reuse_rejected: u64,
    /// Tuples dropped by backtracking (Algorithm 2, §7).
    pub backtrack_dropped: u64,
    /// Samples rejected by a selection predicate (§8.3
    /// reject-during-sampling mode).
    pub rejected_predicate: u64,
    /// Parameter-update rounds performed (Algorithm 2).
    pub update_rounds: u64,
    /// Per-join draw counts (how often each join was selected).
    pub join_draws: Vec<u64>,
    /// Approximate resident bytes of the prepared artifact — the
    /// workload (base-relation columns, dictionaries, validity bitmaps,
    /// membership indexes) plus its shared join samplers (count tables,
    /// alias arenas, indexes) — stamped at freeze on every handle a
    /// [`PreparedQuery`](crate::catalog::PreparedQuery) mints. A
    /// property of the prepared state, not a counter: `delta_since`
    /// carries it through and `merge` keeps the maximum.
    pub prepared_bytes: u64,
    /// Size in bytes of the snapshot this prepared artifact was
    /// restored from; 0 when it was frozen in-process. Same property
    /// semantics as [`prepared_bytes`](Self::prepared_bytes).
    pub snapshot_bytes: u64,
    /// Wall time of the snapshot restore that produced this prepared
    /// artifact (zero when frozen in-process) — the load half of the
    /// load-vs-prepare comparison, where
    /// [`warmup_time`](Self::warmup_time) is the prepare half. Property
    /// semantics: `delta_since` carries it through, `merge` keeps the
    /// maximum.
    pub restore_time: Duration,
    /// The resolved configuration that produced this run (stamped by
    /// [`SamplerBuilder::build`](crate::session::SamplerBuilder::build)).
    pub config: Option<PlanSummary>,
    /// Per-draw latency distribution (recorded by the batch
    /// [`sample`](crate::sampler::UnionSampler::sample) loop and by the
    /// serving workers); p50/p99 feed
    /// [`SamplingService`](crate::serve::SamplingService) stats.
    pub draw_latency: LatencyHistogram,
    /// Warm-up / parameter-estimation wall time.
    pub warmup_time: Duration,
    /// Wall time spent producing accepted answers.
    pub accepted_time: Duration,
    /// Wall time spent producing rejected answers.
    pub rejected_time: Duration,
    /// Wall time spent in the reuse phase (Algorithm 2).
    pub reuse_time: Duration,
    /// Wall time spent updating estimates and backtracking.
    pub update_time: Duration,
}

impl RunReport {
    /// Creates an empty report for `n_joins` joins.
    pub fn new(n_joins: usize) -> Self {
        Self {
            join_draws: vec![0; n_joins],
            ..Self::default()
        }
    }

    /// Total sampling attempts that reached the cover logic.
    pub fn attempts(&self) -> u64 {
        self.accepted + self.rejected_cover + self.reuse_rejected
    }

    /// Overall acceptance ratio (accepted / attempts); 1.0 when no
    /// attempts were made.
    pub fn acceptance_ratio(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            1.0
        } else {
            self.accepted as f64 / attempts as f64
        }
    }

    /// Total wall time across phases.
    pub fn total_time(&self) -> Duration {
        self.warmup_time
            + self.accepted_time
            + self.rejected_time
            + self.reuse_time
            + self.update_time
    }

    /// Samples accepted through the regular (non-reuse) path.
    pub fn regular_accepted(&self) -> u64 {
        self.accepted.saturating_sub(self.reuse_copies)
    }

    /// Mean time per accepted tuple in the regular phase; `None` when
    /// nothing was accepted there (Fig. 6b's per-sample metric).
    pub fn time_per_accepted(&self) -> Option<Duration> {
        let regular = self.regular_accepted();
        if regular == 0 {
            None
        } else {
            Some(per(self.accepted_time, regular))
        }
    }

    /// Mean time per reuse-emitted sample copy; `None` when the reuse
    /// phase never accepted (Fig. 6b's reuse-phase metric).
    pub fn time_per_reuse_accepted(&self) -> Option<Duration> {
        if self.reuse_copies == 0 {
            None
        } else {
            Some(per(self.reuse_time, self.reuse_copies))
        }
    }

    /// Counters and timings accrued since `baseline` (which must be an
    /// earlier snapshot of the same report). Samplers accumulate one
    /// cumulative report across their lifetime; batch APIs use this to
    /// return per-call reports.
    pub fn delta_since(&self, baseline: &RunReport) -> RunReport {
        let dur = |a: Duration, b: Duration| a.checked_sub(b).unwrap_or_default();
        RunReport {
            accepted: self.accepted.saturating_sub(baseline.accepted),
            rejected_cover: self.rejected_cover.saturating_sub(baseline.rejected_cover),
            rejected_join: self.rejected_join.saturating_sub(baseline.rejected_join),
            revised: self.revised.saturating_sub(baseline.revised),
            revision_removed: self
                .revision_removed
                .saturating_sub(baseline.revision_removed),
            reuse_accepted: self.reuse_accepted.saturating_sub(baseline.reuse_accepted),
            reuse_copies: self.reuse_copies.saturating_sub(baseline.reuse_copies),
            reuse_rejected: self.reuse_rejected.saturating_sub(baseline.reuse_rejected),
            backtrack_dropped: self
                .backtrack_dropped
                .saturating_sub(baseline.backtrack_dropped),
            rejected_predicate: self
                .rejected_predicate
                .saturating_sub(baseline.rejected_predicate),
            update_rounds: self.update_rounds.saturating_sub(baseline.update_rounds),
            join_draws: self
                .join_draws
                .iter()
                .enumerate()
                .map(|(j, &d)| d.saturating_sub(baseline.join_draws.get(j).copied().unwrap_or(0)))
                .collect(),
            prepared_bytes: self.prepared_bytes,
            snapshot_bytes: self.snapshot_bytes,
            restore_time: self.restore_time,
            config: self.config.clone(),
            draw_latency: self.draw_latency.delta_since(&baseline.draw_latency),
            warmup_time: dur(self.warmup_time, baseline.warmup_time),
            accepted_time: dur(self.accepted_time, baseline.accepted_time),
            rejected_time: dur(self.rejected_time, baseline.rejected_time),
            reuse_time: dur(self.reuse_time, baseline.reuse_time),
            update_time: dur(self.update_time, baseline.update_time),
        }
    }

    /// Folds another report's counters, timings, and latency histogram
    /// into this one — the aggregation direction
    /// ([`delta_since`](Self::delta_since) is the subtraction
    /// direction). Used to accumulate per-handle / per-request deltas
    /// into a [`PreparedQuery`](crate::catalog::PreparedQuery) or
    /// [`SamplingService`](crate::serve::SamplingService) aggregate. A
    /// missing `config` is adopted from `other`; an existing one is
    /// kept.
    pub fn merge(&mut self, other: &RunReport) {
        // Exhaustive destructuring: adding a field to `RunReport` must
        // fail to compile until aggregation handles it.
        let RunReport {
            accepted,
            rejected_cover,
            rejected_join,
            revised,
            revision_removed,
            reuse_accepted,
            reuse_copies,
            reuse_rejected,
            backtrack_dropped,
            rejected_predicate,
            update_rounds,
            join_draws,
            prepared_bytes,
            snapshot_bytes,
            restore_time,
            config,
            draw_latency,
            warmup_time,
            accepted_time,
            rejected_time,
            reuse_time,
            update_time,
        } = other;
        // A footprint property, not a counter: folding reports over the
        // same prepared artifact must not multiply it.
        self.prepared_bytes = self.prepared_bytes.max(*prepared_bytes);
        self.snapshot_bytes = self.snapshot_bytes.max(*snapshot_bytes);
        self.restore_time = self.restore_time.max(*restore_time);
        self.accepted += accepted;
        self.rejected_cover += rejected_cover;
        self.rejected_join += rejected_join;
        self.revised += revised;
        self.revision_removed += revision_removed;
        self.reuse_accepted += reuse_accepted;
        self.reuse_copies += reuse_copies;
        self.reuse_rejected += reuse_rejected;
        self.backtrack_dropped += backtrack_dropped;
        self.rejected_predicate += rejected_predicate;
        self.update_rounds += update_rounds;
        if self.join_draws.len() < join_draws.len() {
            self.join_draws.resize(join_draws.len(), 0);
        }
        for (a, b) in self.join_draws.iter_mut().zip(join_draws) {
            *a += b;
        }
        if self.config.is_none() {
            self.config.clone_from(config);
        }
        self.draw_latency.merge(draw_latency);
        self.warmup_time += *warmup_time;
        self.accepted_time += *accepted_time;
        self.rejected_time += *rejected_time;
        self.reuse_time += *reuse_time;
        self.update_time += *update_time;
    }

    /// One-line human-readable summary; includes the resolved
    /// configuration when one was recorded.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "accepted={} rejected_cover={} rejected_join={} revised={} reuse={}({} rej) backtrack_dropped={} acceptance={:.3} total={:?}",
            self.accepted,
            self.rejected_cover,
            self.rejected_join,
            self.revised,
            self.reuse_accepted,
            self.reuse_rejected,
            self.backtrack_dropped,
            self.acceptance_ratio(),
            self.total_time(),
        );
        if let (Some(p50), Some(p99)) = (self.draw_latency.p50(), self.draw_latency.p99()) {
            s.push_str(&format!(" draw_p50≤{p50:?} draw_p99≤{p99:?}"));
        }
        if self.prepared_bytes > 0 {
            s.push_str(&format!(" prepared_bytes={}", self.prepared_bytes));
        }
        if self.snapshot_bytes > 0 {
            s.push_str(&format!(
                " snapshot_bytes={} restore_time={:?}",
                self.snapshot_bytes, self.restore_time
            ));
        }
        if let Some(config) = &self.config {
            s.push_str(&format!(" [{config}]"));
        }
        s
    }
}

/// `total / n` in `u128` nanoseconds (`n > 0`): exact for every `u64`
/// count, where `Duration / u32` would truncate `n` to 32 bits.
fn per(total: Duration, n: u64) -> Duration {
    let nanos = total.as_nanos() / u128::from(n);
    Duration::new(
        (nanos / 1_000_000_000) as u64,
        (nanos % 1_000_000_000) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_totals() {
        let mut r = RunReport::new(3);
        r.accepted = 80;
        r.rejected_cover = 20;
        assert_eq!(r.attempts(), 100);
        assert!((r.acceptance_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(r.join_draws.len(), 3);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = RunReport::new(0);
        assert_eq!(r.attempts(), 0);
        assert_eq!(r.acceptance_ratio(), 1.0);
        assert!(r.time_per_accepted().is_none());
        assert!(r.time_per_reuse_accepted().is_none());
        assert_eq!(r.total_time(), Duration::ZERO);
    }

    #[test]
    fn per_sample_times() {
        let mut r = RunReport::new(1);
        r.accepted = 4;
        r.accepted_time = Duration::from_millis(40);
        assert_eq!(r.time_per_accepted(), Some(Duration::from_millis(10)));
        r.reuse_accepted = 2;
        r.reuse_copies = 2;
        r.reuse_time = Duration::from_millis(10);
        assert_eq!(r.time_per_reuse_accepted(), Some(Duration::from_millis(5)));
        // Copies emitted by reuse do not count toward the regular phase.
        r.accepted += 2;
        assert_eq!(r.regular_accepted(), 4);
        assert_eq!(r.time_per_accepted(), Some(Duration::from_millis(10)));
    }

    /// Merged service aggregates pass 2³² accepted tuples: the mean
    /// divides by the whole count, not by its low 32 bits (which are 0
    /// at 2³², a division by zero, and 2³¹ at 3·2³¹).
    #[test]
    fn per_sample_times_past_u32_counts() {
        for n in [1u64 << 32, 3 << 31] {
            let mut r = RunReport::new(1);
            r.accepted = n;
            r.accepted_time = Duration::from_secs(n);
            r.reuse_copies = n;
            r.reuse_time = Duration::from_secs(3 * n);
            // All accepted tuples are reuse copies here; count them as
            // regular ones for the first mean.
            assert_eq!(r.time_per_reuse_accepted(), Some(Duration::from_secs(3)));
            r.reuse_copies = 0;
            assert_eq!(
                r.time_per_accepted(),
                Some(Duration::from_secs(1)),
                "n = {n}"
            );
        }
    }

    #[test]
    fn config_survives_delta_copy_and_summary() {
        let mut r = RunReport::new(1);
        r.config = Some(PlanSummary {
            strategy: "rejection".into(),
            estimator: "histogram(EO)".into(),
            weights: Some("exact".into()),
            cover: Some("as-given".into()),
            predicate: None,
            sizing: None,
            rule: None,
        });
        r.accepted = 3;
        let baseline = RunReport::new(1);
        let delta = r.delta_since(&baseline);
        assert_eq!(delta.config, r.config);
        let s = r.summary();
        assert!(s.contains("strategy=rejection"), "{s}");
        assert!(s.contains("estimator=histogram(EO)"), "{s}");
        assert!(s.contains("cover=as-given"), "{s}");
    }

    #[test]
    fn summary_mentions_key_counters() {
        let mut r = RunReport::new(1);
        r.accepted = 7;
        r.revised = 2;
        let s = r.summary();
        assert!(s.contains("accepted=7"));
        assert!(s.contains("revised=2"));
        // No latency recorded: percentiles stay out of the summary.
        assert!(!s.contains("draw_p50"));
    }

    #[test]
    fn latency_histogram_percentiles() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), None);
        // 99 fast draws (~1µs), one slow (~1ms).
        for _ in 0..99 {
            h.record(Duration::from_nanos(900));
        }
        h.record(Duration::from_micros(900));
        assert_eq!(h.count(), 100);
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= Duration::from_micros(2), "p50 = {p50:?}");
        assert!(p50 <= p99);
        // The slow draw is the 100th rank; p99 covers rank 99 (fast).
        assert!(p99 <= Duration::from_micros(2), "p99 = {p99:?}");
        assert!(h.percentile(1.0).unwrap() >= Duration::from_micros(512));
    }

    #[test]
    fn latency_histogram_merge_and_delta() {
        let mut a = LatencyHistogram::default();
        a.record(Duration::from_nanos(100));
        let baseline = a.clone();
        a.record(Duration::from_micros(100));
        let delta = a.delta_since(&baseline);
        assert_eq!(delta.count(), 1);
        let mut b = LatencyHistogram::default();
        b.merge(&a);
        b.merge(&delta);
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn merge_accumulates_counters_and_latency() {
        let mut total = RunReport::new(2);
        let mut delta = RunReport::new(2);
        delta.accepted = 5;
        delta.rejected_cover = 2;
        delta.join_draws = vec![3, 4];
        delta.draw_latency.record(Duration::from_micros(1));
        delta.accepted_time = Duration::from_millis(2);
        delta.config = Some(PlanSummary {
            strategy: "rejection".into(),
            ..Default::default()
        });
        total.merge(&delta);
        total.merge(&delta);
        assert_eq!(total.accepted, 10);
        assert_eq!(total.rejected_cover, 4);
        assert_eq!(total.join_draws, vec![6, 8]);
        assert_eq!(total.draw_latency.count(), 2);
        assert_eq!(total.accepted_time, Duration::from_millis(4));
        // Config adopted on first merge, kept thereafter.
        assert_eq!(total.config.as_ref().unwrap().strategy, "rejection");
    }

    #[test]
    fn prepared_bytes_is_a_property_not_a_counter() {
        let mut total = RunReport::new(1);
        let mut delta = RunReport::new(1);
        delta.prepared_bytes = 4096;
        total.merge(&delta);
        total.merge(&delta);
        // Folding reports over the same prepared artifact keeps the
        // footprint, never doubles it.
        assert_eq!(total.prepared_bytes, 4096);
        // delta_since carries the property through.
        let baseline = RunReport::new(1);
        assert_eq!(delta.delta_since(&baseline).prepared_bytes, 4096);
        // Surfaced in the summary only when known.
        assert!(delta.summary().contains("prepared_bytes=4096"));
        assert!(!RunReport::new(1).summary().contains("prepared_bytes"));
    }

    #[test]
    fn snapshot_cost_is_a_property_not_a_counter() {
        let mut total = RunReport::new(1);
        let mut delta = RunReport::new(1);
        delta.snapshot_bytes = 1024;
        delta.restore_time = Duration::from_millis(7);
        total.merge(&delta);
        total.merge(&delta);
        assert_eq!(total.snapshot_bytes, 1024);
        assert_eq!(total.restore_time, Duration::from_millis(7));
        let baseline = RunReport::new(1);
        let d = delta.delta_since(&baseline);
        assert_eq!(d.snapshot_bytes, 1024);
        assert_eq!(d.restore_time, Duration::from_millis(7));
        // Printed only for restored artifacts.
        assert!(delta.summary().contains("snapshot_bytes=1024"));
        assert!(delta.summary().contains("restore_time"));
        assert!(!RunReport::new(1).summary().contains("snapshot_bytes"));
    }

    #[test]
    fn summary_reports_latency_percentiles_when_recorded() {
        let mut r = RunReport::new(1);
        r.accepted = 1;
        r.draw_latency.record(Duration::from_micros(3));
        let s = r.summary();
        assert!(s.contains("draw_p50"), "{s}");
        assert!(s.contains("draw_p99"), "{s}");
    }
}
