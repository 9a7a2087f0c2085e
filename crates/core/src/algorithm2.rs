//! Algorithm 2: online union sampling with sample reuse and
//! backtracking (§7).
//!
//! The histogram-based method has near-zero setup cost but loose
//! parameters; the random-walk method is accurate but needs warm-up.
//! Algorithm 2 takes both: parameters initialize from histograms,
//! random walks refine them *during* sampling, and two devices keep the
//! output uniform while parameters move:
//!
//! * **Sample reuse** — warm-up walk tuples `(t, p(t))` sit in per-join
//!   pools; when join `J_j` is selected and its pool is non-empty, a
//!   pooled tuple is drawn uniformly and accepted with rate
//!   `R = l / (p(t)·|J_j|)` (emitting `⌊R⌋ + Bernoulli(frac R)` copies,
//!   removed from the pool on acceptance), which makes the reused tuple
//!   uniform over `J_j`. Pool exhaustion falls back to regular
//!   walk-based sampling.
//! * **Backtracking with parameter update** — every `φ` recorded walk
//!   probabilities, sizes/overlaps/covers are re-estimated; previously
//!   returned tuples are thinned with probability
//!   `min(1, q_new(t)/q_old(t))` where `q(t)` is the tuple's emission
//!   probability under a parameter set, so the retained sample follows
//!   the refined distribution. Updates stop once the tracked confidence
//!   level reaches `γ`.
//!
//! Only the walks depend on a handle's RNG, so everything else is built
//! once in [`OnlineParts`], which every handle over it shares: one
//! walker per join and the membership indexes, built with the parts,
//! and the line-1 histogram start, computed by the first draw of any
//! handle that needs it and then read by all of them. Walks, warm-up
//! estimate, cover and record stay per handle.
//!
//! Algorithm 2 is only asymptotically uniform, so nothing serves it: the
//! planner's `no-statistics` rule plans the §3 owner sampler, and no
//! [`Strategy`](crate::session::Strategy) names it. The paper's figures
//! and examples construct it directly:
//! `OnlineUnionSampler::new(Arc::new(OnlineParts::new(w)?), config,
//! CoverStrategy::AsGiven)`.
//!
//! The sampler implements [`UnionSampler`]: warm-up runs lazily on the
//! first [`draw`](UnionSampler::draw) (it consumes the caller's RNG),
//! and both uniformity devices surface as
//! [`Draw::Retract`](crate::sampler::Draw) events, which is what makes
//! Algorithm 2's inherently incremental refinement expressible through
//! the streaming API.

use crate::algorithm1::MAX_COVER_RETRIES;
use crate::cover::{Cover, CoverStrategy};
use crate::error::CoreError;
use crate::hist_estimator::{DegreeMode, HistogramEstimator};
use crate::overlap::OverlapMap;
use crate::record::OwnershipRecord;
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::walk_estimator::{walk_warmup, walkers, WalkEstimate, WalkEstimatorConfig};
use crate::workload::UnionWorkload;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use suj_join::WanderJoin;
use suj_stats::{Categorical, SujRng};
use suj_storage::Tuple;

/// Configuration of the online union sampler.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Parameter-update cadence: update after every `phi` recorded walk
    /// probabilities (the paper's φ).
    pub phi: u64,
    /// Target confidence level γ; updates/backtracking stop once the
    /// worst relative CI half-width at this level drops below
    /// `ci_threshold`.
    pub gamma: f64,
    /// Relative CI half-width threshold paired with `gamma`.
    pub ci_threshold: f64,
    /// Warm-up walk configuration (set `max_walks_per_join = 0` for the
    /// fully online, no-warm-up variant).
    pub warmup: WalkEstimatorConfig,
    /// Enable sample reuse (Fig. 6 toggles this).
    pub reuse: bool,
    /// Upper bound on copies emitted per reuse acceptance. §7's rate
    /// `R = l/(p(t)·|J_j|)` legitimately exceeds 1 and the paper emits
    /// `R` instances; on small joins (`p·|J| ≈ 1`) that means
    /// pool-sized bursts of one tuple, and a pathological walk
    /// probability can make `R` astronomically large. The batch
    /// formulation implicitly capped bursts at the remaining demand
    /// `n`; the incremental API has no `n`, so the default caps at
    /// 4096 copies to bound queue memory. Raise it (up to `u64::MAX`
    /// for the paper's literal semantics) or lower it to observe the
    /// pool-exhaustion slope.
    pub reuse_burst_cap: u64,
    /// Enable backtracking (ablation toggle).
    pub backtrack: bool,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            phi: 256,
            gamma: 0.9,
            ci_threshold: 0.05,
            warmup: WalkEstimatorConfig::default(),
            reuse: true,
            reuse_burst_cap: 4096,
            backtrack: true,
        }
    }
}

/// What every handle of one online plan shares, none of it driven by a
/// handle's RNG: the workload, one wander-join walker per join, and the
/// line-1 histogram start.
pub struct OnlineParts {
    workload: Arc<UnionWorkload>,
    walkers: Vec<WanderJoin>,
    /// Computed by the first draw that needs it; a failing start is
    /// kept, so every draw reports the same error.
    start: OnceLock<Result<HistogramStart, CoreError>>,
}

/// Algorithm 2 line 1: the histogram overlap map the walk estimates
/// fall back to, and its join sizes.
struct HistogramStart {
    map: OverlapMap,
    fallback_sizes: Vec<f64>,
}

impl OnlineParts {
    /// Builds one walker per join of `workload` and the membership
    /// indexes its ownership checks probe, so no draw pays a build; the
    /// histogram start waits for the first draw.
    pub fn new(workload: Arc<UnionWorkload>) -> Result<Self, CoreError> {
        let walkers = walkers(&workload)?;
        workload.build_membership_indexes();
        Ok(Self {
            walkers,
            workload,
            start: OnceLock::new(),
        })
    }

    fn start(&self) -> Result<&HistogramStart, CoreError> {
        self.start
            .get_or_init(|| {
                let hist = HistogramEstimator::with_olken(&self.workload, DegreeMode::Max)?;
                let map = hist.overlap_map()?;
                let fallback_sizes = (0..self.workload.n_joins())
                    .map(|j| map.join_size(j))
                    .collect();
                Ok(HistogramStart {
                    map,
                    fallback_sizes,
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// The online union sampler (Algorithm 2).
pub struct OnlineUnionSampler {
    parts: Arc<OnlineParts>,
    config: OnlineConfig,
    strategy: CoverStrategy,
    report: RunReport,
    emitted: u64,
    pending: VecDeque<Draw>,
    /// Estimation and record state, built lazily on the first draw
    /// (warm-up consumes the caller's RNG, exactly like the batch
    /// semantics where warm-up ran at the head of `sample`).
    state: Option<OnlineState>,
}

/// Per-run online state: estimators, cover, and the record-policy
/// emission history with retraction support.
struct OnlineState {
    est: WalkEstimate,
    cover: Cover,
    selection: Categorical,
    walks_at_last_update: u64,
    converged: bool,
    /// Live (unretracted) emissions still subject to backtracking:
    /// emission index → (tuple, owning join, emission probability at
    /// acceptance). Ordered so the thinning pass consumes RNG in
    /// emission order, exactly like the batch formulation's sequential
    /// scan. Cleared — and no longer fed — once estimates converge,
    /// bounding memory by the number of live pre-convergence emissions
    /// instead of the full stream length.
    live_emissions: BTreeMap<u64, (Tuple, usize, f64)>,
    /// `orig_join` record of seen tuples with their live emissions
    /// (revision purges).
    record: OwnershipRecord,
    /// In-progress join selection `(join, cover retries so far)`,
    /// persisted so a draw returning a retraction event can resume the
    /// selection loop exactly where it left off.
    cur: Option<(usize, u64)>,
    /// Reusable row-id walk scratch: failed walks allocate nothing.
    draw: suj_join::RowDraw,
}

/// Emission probability of a tuple owned by join `j` under the current
/// parameters.
fn q_emit(cover: &Cover, est: &WalkEstimate, j: usize) -> f64 {
    let sel = cover.sizes()[j] / cover.union_size().max(f64::MIN_POSITIVE);
    sel / est.join_sizes[j].max(1.0)
}

fn init_state(
    parts: &OnlineParts,
    config: &OnlineConfig,
    strategy: CoverStrategy,
    rng: &mut SujRng,
) -> Result<OnlineState, CoreError> {
    let hist = parts.start()?;
    let mut est = if config.warmup.max_walks_per_join > 0 {
        walk_warmup(&parts.workload, &parts.walkers, &config.warmup, rng)?
    } else {
        WalkEstimate::empty(parts.workload.n_joins())
    };
    est.refresh_sizes(&hist.fallback_sizes);
    let map = est.overlap_map_with_fallback(&hist.map)?;
    let cover = Cover::build(&map, strategy);
    let selection = cover.selection().ok_or_else(|| {
        CoreError::Invalid("union size estimate is zero; nothing to sample".into())
    })?;
    let walks_at_last_update = est.total_walks();
    let converged = est.worst_relative_half_width(config.gamma) <= config.ci_threshold;
    Ok(OnlineState {
        est,
        cover,
        selection,
        walks_at_last_update,
        converged,
        live_emissions: BTreeMap::new(),
        record: OwnershipRecord::default(),
        cur: None,
        draw: suj_join::RowDraw::new(),
    })
}

impl OnlineUnionSampler {
    /// Builds a handle over the shared parts.
    pub fn new(parts: Arc<OnlineParts>, config: OnlineConfig, strategy: CoverStrategy) -> Self {
        let n_joins = parts.workload.n_joins();
        Self {
            parts,
            config,
            strategy,
            report: RunReport::new(n_joins),
            emitted: 0,
            pending: VecDeque::new(),
            state: None,
        }
    }
}

impl UnionSampler for OnlineUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        if self.state.is_none() {
            // ---- Warm-up: histogram initialization + optional walks. ----
            let warmup_start = Instant::now();
            let st = init_state(&self.parts, &self.config, self.strategy, rng)?;
            self.report.warmup_time += warmup_start.elapsed();
            self.state = Some(st);
        }
        let Self {
            parts,
            config,
            strategy,
            report,
            emitted,
            pending,
            state,
        } = self;
        let st = state.as_mut().expect("initialized above");
        let workload = &parts.workload;

        loop {
            if st.cur.is_none() {
                let j = st.selection.draw(rng);
                report.join_draws[j] += 1;
                st.cur = Some((j, 0));
            }

            // Sample one tuple uniform over the cover region J'_j
            // (cover rejections retry within the join).
            loop {
                let (j, retries) = st.cur.expect("set above");
                if retries >= MAX_COVER_RETRIES {
                    st.cur = None;
                    break; // reselect a join
                }
                st.cur = Some((j, retries + 1));

                // --- Obtain a uniform tuple from J_j (reuse or walk). ---
                let mut obtained: Option<(Tuple, u64)> = None; // (tuple, copies)
                if config.reuse && !st.est.pools[j].is_empty() {
                    let reuse_start = Instant::now();
                    let idx = rng.index(st.est.pools[j].len());
                    let l = st.est.pools[j].len() as f64;
                    let (t, p) = st.est.pools[j][idx].clone();
                    let rate = l / (p * st.est.join_sizes[j].max(1.0));
                    // §7 allows R ≥ 1 (multiple instances per round).
                    let copies = (rate.floor() as u64 + u64::from(rng.bernoulli(rate.fract())))
                        .min(config.reuse_burst_cap);
                    if copies == 0 {
                        report.reuse_rejected += 1;
                        report.reuse_time += reuse_start.elapsed();
                        // Fall through to a regular sample (line 9).
                    } else {
                        st.est.pools[j].swap_remove(idx);
                        report.reuse_accepted += 1;
                        report.reuse_copies += copies;
                        report.reuse_time += reuse_start.elapsed();
                        obtained = Some((t, copies));
                    }
                }
                if obtained.is_none() {
                    let start = Instant::now();
                    // Row-id walk: a failed walk touches no tuple values
                    // and allocates nothing; successful walks gather
                    // once, in canonical order, for the estimator's
                    // membership masks.
                    let walker = &parts.walkers[j];
                    match walker.walk_rows(rng, &mut st.draw) {
                        Some(probability) => {
                            let canonical = workload.gather(j, st.draw.rows());
                            st.est
                                .record_success(workload, j, &canonical, probability, false);
                            // Uniformization: accept with (1/p)/B.
                            let accept =
                                (1.0 / probability) / walker.bound().max(f64::MIN_POSITIVE);
                            if rng.bernoulli(accept) {
                                obtained = Some((canonical, 1));
                                report.accepted_time += start.elapsed();
                            } else {
                                report.rejected_join += 1;
                                report.rejected_time += start.elapsed();
                            }
                        }
                        None => {
                            st.est.record_failure(j);
                            report.rejected_join += 1;
                            report.rejected_time += start.elapsed();
                        }
                    }
                }

                // --- Cover / record logic (lines 11–17). ---
                if let Some((t, copies)) = obtained {
                    // A revision (ownership moves to the earlier join
                    // j) retracts the existing live copies, which then
                    // stop being backtracking candidates too.
                    let indices = *emitted..*emitted + copies;
                    let accept = st
                        .record
                        .claim(&t, j, indices.clone(), |i| st.cover.precedes(i, j))
                        .settle(pending, report, |p| {
                            st.live_emissions.remove(&p);
                        });
                    if accept {
                        let q = q_emit(&st.cover, &st.est, j);
                        for idx in indices {
                            // Post-convergence emissions can never be
                            // backtracked; keep the tracked set small.
                            if !st.converged && config.backtrack {
                                st.live_emissions.insert(idx, (t.clone(), j, q));
                            }
                            pending.push_back(Draw::Tuple(idx, t.clone()));
                        }
                        *emitted += copies;
                        report.accepted += copies;
                        st.cur = None;
                        return Ok(pending.pop_front().expect("copies >= 1"));
                    } else {
                        report.rejected_cover += 1;
                    }
                }

                // --- Parameter update + backtracking (lines 18–20). ---
                if !st.converged
                    && st.est.total_walks().saturating_sub(st.walks_at_last_update) >= config.phi
                {
                    let update_start = Instant::now();
                    st.walks_at_last_update = st.est.total_walks();
                    let hist = parts.start()?;
                    st.est.refresh_sizes(&hist.fallback_sizes);
                    let map = st.est.overlap_map_with_fallback(&hist.map)?;
                    st.cover = Cover::build(&map, *strategy);
                    if let Some(sel) = st.cover.selection() {
                        st.selection = sel;
                    }
                    if config.backtrack {
                        // Thin live emissions in emission order (same
                        // RNG consumption as a sequential scan of the
                        // full history).
                        let mut dropped: Vec<u64> = Vec::new();
                        for (&pos, entry) in st.live_emissions.iter_mut() {
                            let q_new = q_emit(&st.cover, &st.est, entry.1);
                            let keep = (q_new / entry.2.max(f64::MIN_POSITIVE)).min(1.0);
                            if !rng.bernoulli(keep) {
                                report.backtrack_dropped += 1;
                                st.record.forget(&entry.0, pos);
                                pending.push_back(Draw::Retract(pos));
                                dropped.push(pos);
                            } else {
                                entry.2 = entry.2.min(q_new);
                            }
                        }
                        for pos in dropped {
                            st.live_emissions.remove(&pos);
                        }
                    }
                    report.update_rounds += 1;
                    st.converged =
                        st.est.worst_relative_half_width(config.gamma) <= config.ci_threshold;
                    if st.converged {
                        // Terminal: updates can never fire again, so no
                        // emission can ever be backtracked again.
                        st.live_emissions.clear();
                    }
                    report.update_time += update_start.elapsed();
                    if let Some(event) = pending.pop_front() {
                        // `cur` persists: the selection loop resumes on
                        // the next draw, exactly where batch-mode
                        // Algorithm 2 would continue.
                        return Ok(event);
                    }
                }
            }
        }
    }

    fn report(&self) -> &RunReport {
        &self.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.parts.workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use suj_storage::{FxHashMap, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn workload() -> Arc<UnionWorkload> {
        let shared_r: Vec<Vec<i64>> = (0..8).map(|i| vec![i, i % 3]).collect();
        let shared_s: Vec<Vec<i64>> = (0..3).map(|b| vec![b, 100 + b]).collect();
        let mut r1 = shared_r.clone();
        r1.push(vec![50, 0]);
        let mut r2 = shared_r;
        r2.push(vec![60, 1]);
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r1", &["a", "b"], r1),
                rel("s1", &["b", "c"], shared_s.clone()),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![rel("r2", &["a", "b"], r2), rel("s2", &["b", "c"], shared_s)],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    fn parts(w: Arc<UnionWorkload>) -> Arc<OnlineParts> {
        Arc::new(OnlineParts::new(w).unwrap())
    }

    fn config_fast() -> OnlineConfig {
        OnlineConfig {
            phi: 128,
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 400,
                min_walks_per_join: 100,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn produces_requested_count_of_members() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = OnlineUnionSampler::new(parts(w), config_fast(), CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(11);
        let (samples, report) = sampler.sample(300, &mut rng).unwrap();
        assert_eq!(samples.len(), 300);
        for t in &samples {
            assert!(exact.union_set.contains(t), "non-member {t}");
        }
        assert!(report.accepted >= 300);
    }

    #[test]
    fn reuse_pool_is_consumed() {
        let w = workload();
        let mut sampler = OnlineUnionSampler::new(parts(w), config_fast(), CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(12);
        let (_, report) = sampler.sample(200, &mut rng).unwrap();
        assert!(
            report.reuse_accepted > 0,
            "warm-up pools must serve some samples"
        );
    }

    #[test]
    fn no_reuse_variant_walks_more() {
        // Two handles over one set of walkers.
        let shared = parts(workload());
        let mut rng_a = SujRng::seed_from_u64(13);
        let mut rng_b = SujRng::seed_from_u64(13);
        let mut with_reuse =
            OnlineUnionSampler::new(shared.clone(), config_fast(), CoverStrategy::AsGiven);
        let mut without_reuse = OnlineUnionSampler::new(
            shared,
            OnlineConfig {
                reuse: false,
                ..config_fast()
            },
            CoverStrategy::AsGiven,
        );
        let (_, ra) = with_reuse.sample(200, &mut rng_a).unwrap();
        let (_, rb) = without_reuse.sample(200, &mut rng_b).unwrap();
        assert_eq!(rb.reuse_accepted, 0);
        assert!(
            ra.reuse_accepted > 0 && ra.rejected_join <= rb.rejected_join,
            "reuse should cut regular-phase rejections: {} vs {}",
            ra.rejected_join,
            rb.rejected_join
        );
    }

    #[test]
    fn fully_online_no_warmup_works() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let cfg = OnlineConfig {
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sampler = OnlineUnionSampler::new(parts(w), cfg, CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(14);
        let (samples, report) = sampler.sample(150, &mut rng).unwrap();
        assert_eq!(samples.len(), 150);
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
        // Online estimation must have kicked in.
        assert!(report.update_rounds > 0 || report.accepted > 0);
    }

    #[test]
    fn approximate_uniformity_of_online_sampler() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        // Reuse emits copies in bursts (`R = l/(p·|J|)` is far above 1 on
        // joins this small — the paper's regime has |J| ≫ pool size), so
        // the chi-square independence assumption only holds for the
        // regular phase; test uniformity with reuse off. Uniformity is
        // only as accurate as the estimated |J'_j|/|U| ratios (§9.1
        // measures exactly this), so drive the warm-up to ~1% error.
        let cfg = OnlineConfig {
            reuse: false,
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 40_000,
                min_walks_per_join: 8_000,
                rel_threshold: 0.01,
                ..Default::default()
            },
            ..config_fast()
        };
        let mut sampler = OnlineUnionSampler::new(parts(w), cfg, CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(15);
        let n = 1_500 * exact.union_size();
        let (samples, _) = sampler.sample(n, &mut rng).unwrap();
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let observed: Vec<u64> = exact
            .union_set
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        // Online estimation wobbles early; the paper's guarantee is
        // asymptotic. Accept a loose significance floor.
        assert!(
            outcome.p_value > 1e-6,
            "grossly non-uniform: chi2={} p={}",
            outcome.statistic,
            outcome.p_value
        );
    }

    #[test]
    fn backtracking_can_drop_samples() {
        let w = workload();
        // Aggressive cadence + no warm-up so estimates move a lot.
        let cfg = OnlineConfig {
            phi: 32,
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 0,
                ..Default::default()
            },
            ci_threshold: 0.001, // keep updating for the whole run
            ..Default::default()
        };
        let mut sampler = OnlineUnionSampler::new(parts(w), cfg, CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(16);
        let (samples, report) = sampler.sample(400, &mut rng).unwrap();
        assert_eq!(samples.len(), 400);
        assert!(report.update_rounds > 0, "updates must fire");
        // Backtracking may or may not drop depending on drift; the
        // counter must at least be consistent.
        assert!(report.backtrack_dropped <= report.accepted);
    }

    #[test]
    fn incremental_draws_report_consistent_events() {
        // Consume the online sampler event by event: retractions always
        // reference live prior emissions, and the cumulative report
        // matches the event stream.
        let w = workload();
        let cfg = OnlineConfig {
            phi: 32,
            warmup: WalkEstimatorConfig {
                max_walks_per_join: 0,
                ..Default::default()
            },
            ci_threshold: 0.001,
            ..Default::default()
        };
        let mut sampler = OnlineUnionSampler::new(parts(w), cfg, CoverStrategy::AsGiven);
        let mut rng = SujRng::seed_from_u64(17);
        let mut live = vec![];
        let mut retractions = 0u64;
        for _ in 0..2_000 {
            match sampler.draw(&mut rng).unwrap() {
                Draw::Tuple(_, t) => live.push(Some(t)),
                Draw::Retract(idx) => {
                    let slot = live
                        .get_mut(idx as usize)
                        .expect("retraction of a future emission");
                    assert!(slot.is_some(), "double retraction of one emission");
                    *slot = None;
                    retractions += 1;
                }
            }
        }
        assert_eq!(live.len() as u64, sampler.report().accepted);
        assert_eq!(
            retractions,
            sampler.report().backtrack_dropped + sampler.report().revision_removed
        );
    }
}
