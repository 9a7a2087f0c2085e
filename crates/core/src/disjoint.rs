//! One join per draw: the disjoint union (Definition 1), and the set
//! union once an ownership rule is added (§3).
//!
//! Every selection picks join `J_j` with probability `B_j / ΣB`, where
//! `B_j` is the size bound join `j`'s own sampler rejects against
//! ([`size_info`](suj_join::JoinSampler::size_info)`().bound` — the
//! exact `|J_j|` for an exact-weight sampler), and makes one attempt on
//! it; a rejected attempt re-selects. An attempt lands on each tuple of
//! `J_j` with probability `1/B_j`, so every selection lands on each copy
//! in `V = J_1 ⊎ … ⊎ J_n` with probability `1/ΣB`: accepted draws are
//! exactly `1/|V|` per copy whatever the bounds — the paper evaluates no
//! baseline here because "it has no extra delays".
//!
//! For the set union `U = J_1 ∪ … ∪ J_n`, a [`DesignationPolicy`]
//! keeps a drawn tuple only if `J_j` is its designated join, the §3
//! union trick's ownership rule: each value `u` is then kept with
//! probability `1/ΣB` per selection, so at `ΣB/|U|` selections per
//! tuple — what §3's round of Bernoulli coins costs, without the `|U|`
//! those coins need. The membership oracle designates the first join in
//! workload order that contains `u`, which makes the stream exactly
//! uniform (Kamat & Nandi); the paper's record designates the first
//! join `u` was *sampled from*, which converges to the oracle's as the
//! record fills in (see Algorithm 1).
//!
//! The sampler implements [`UnionSampler`]; a designation rejects new
//! draws and never withdraws old ones, so it emits no
//! [`Draw::Retract`](crate::sampler::Draw) and its
//! [`SampleStream`](crate::stream::SampleStream) is i.i.d.
//!
//! # Blocks
//!
//! There is one draw loop, [`draw_block`](UnionSampler::draw_block): it
//! runs `K = min(64, demand)` selections, where `demand` is how many
//! live tuples the caller still needs, and [`draw`](UnionSampler::draw)
//! is blocks of demand 1. A selection emits at most one tuple, so
//! `K ≤ demand` selections never consume a word the loop one selection
//! at a time would not. A block plans its selections from a clone of the
//! generator: the selection word, then the chosen join's walk words — an
//! exact-weight walk always takes two per relation
//! ([`words_per_attempt`](JoinSampler::words_per_attempt)). It walks the
//! planned selections one join at a time and each join's walks one tree
//! level at a time ([`sample_rows_words`](JoinSampler::sample_rows_words)),
//! so their cache misses overlap instead of queueing. The generator then
//! advances by exactly the words of the leading run of walks the words
//! decided, and those selections are gathered, designated, tested and
//! emitted in order, counted as one at a time counts them. The plan stops
//! before a dead join and before a join whose sampler takes no fixed
//! number of words (Extended Olken, wander, AGM boxes); the first
//! selection it did not settle — that one, or a walk that needed
//! Lemire's slow path or took a defensive exit — runs on the generator
//! itself, exactly as one at a time, and planning resumes after it.
//!
//! A [`sample_within`](UnionSampler::sample_within) deadline is checked
//! before every block, and each event's `draw_latency` entry — like the
//! accepted and rejected time of the planned selections — is a share of
//! its block's time.

use crate::draw_step::DrawStep;
use crate::error::CoreError;
use crate::record::{Claim, OwnershipRecord};
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suj_join::membership::first_containing;
use suj_join::JoinSampler;
use suj_stats::{Categorical, SujRng};
use suj_storage::{CompiledPredicate, Tuple};

/// Selections a block runs at most: enough walks in flight to overlap
/// their cache misses, few enough that the plan stays in L1.
const BLOCK: usize = 64;

/// Distinct tuples a record designation reserves room for when a batch
/// starts on an empty record, at most.
const RECORD_RESERVE: usize = 1 << 16;

/// How a set-union draw designates each value's owning join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignationPolicy {
    /// Exact: `f(u)` = first join (workload order) containing `u`,
    /// decided by the membership oracle.
    Oracle,
    /// The paper's §3 description: `u` is owned by the first join it
    /// was *sampled from*; converges to the oracle assignment as the
    /// record fills in.
    Record,
}

/// Sampler that draws one join per selection, in proportion to the
/// bound its sampler rejects against, over the shared draw step — the
/// disjoint union when every drawn tuple is its own owner, the set
/// union under a [`DesignationPolicy`].
pub struct DisjointUnionSampler {
    step: DrawStep,
    selection: Option<Categorical>,
    designation: Option<DesignationPolicy>,
    /// First join each value was sampled from (record designation).
    record: OwnershipRecord,
    /// The most words and relations of one attempt over the joins whose
    /// samplers take a fixed number of words (both 0 when none does, and
    /// a block then plans nothing).
    widest: (usize, usize),
}

/// One block's plan: the selections it pre-drew and their walks. Lives
/// in a thread-local between blocks, so neither a handle nor a block
/// allocates it.
#[derive(Default)]
struct Plan {
    /// The planned selections' RNG words in the order one draw at a
    /// time consumes them: each selection word, then its walk's words.
    words: Vec<u64>,
    /// Per planned selection: its join, where its walk's words start in
    /// `words`, and which of the walks below is its walk.
    selections: Vec<(usize, usize, usize)>,
    /// The walks, grouped by join: first word, first row in `rows`.
    starts: Vec<usize>,
    rows_at: Vec<usize>,
    rows: Vec<u32>,
    /// Per walk: what `sample_rows` would return, `None` when its words
    /// cannot tell.
    outcomes: Vec<Option<bool>>,
}

thread_local! {
    static PLAN: Cell<Plan> = Cell::new(Plan::default());
}

impl Plan {
    /// Empties the plan, keeping room for a whole block of attempts of
    /// at most `words` words over at most `relations` relations.
    fn clear(&mut self, (words, relations): (usize, usize)) {
        fn empty<T>(v: &mut Vec<T>, room: usize) {
            v.clear();
            v.reserve(room);
        }
        empty(&mut self.words, BLOCK * (1 + words));
        empty(&mut self.selections, BLOCK);
        empty(&mut self.starts, BLOCK);
        empty(&mut self.rows_at, BLOCK);
        empty(&mut self.rows, BLOCK * relations);
        empty(&mut self.outcomes, BLOCK);
    }

    /// Walks every planned selection, one join's walks at a time.
    fn walk(&mut self, step: &DrawStep) {
        for first in 0..self.selections.len() {
            let (j, _, walk) = self.selections[first];
            if walk != usize::MAX {
                continue;
            }
            let sampler = step.sampler(j);
            let width = sampler.spec().n_relations();
            let (walks, rows) = (self.starts.len(), self.rows.len());
            for (k, at, walk) in &mut self.selections[first..] {
                if *k == j {
                    *walk = self.starts.len();
                    self.starts.push(*at);
                    self.rows_at.push(self.rows.len());
                    self.rows.resize(self.rows.len() + width, 0);
                }
            }
            self.outcomes.resize(self.starts.len(), None);
            sampler.sample_rows_words(
                &self.starts[walks..],
                &self.words,
                &mut self.rows[rows..],
                &mut self.outcomes[walks..],
            );
        }
    }
}

impl DisjointUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query); record state starts
    /// fresh per handle. `designation` is `None` for the disjoint union;
    /// `predicate` is §8.3's reject-mode predicate, compiled against the
    /// workload's canonical schema.
    pub(crate) fn new(
        workload: Arc<UnionWorkload>,
        samplers: Vec<Arc<dyn JoinSampler>>,
        designation: Option<DesignationPolicy>,
        predicate: Option<Arc<CompiledPredicate>>,
    ) -> Result<Self, CoreError> {
        let bounds: Vec<f64> = samplers.iter().map(|s| s.size_info().bound).collect();
        let widest = samplers
            .iter()
            .filter_map(|s| Some((s.words_per_attempt()?, s.spec().n_relations())))
            .fold((0, 0), |(w, r), (sw, sr)| (w.max(sw), r.max(sr)));
        Ok(Self {
            step: DrawStep::new(workload, samplers, predicate)?,
            selection: Categorical::new(&bounds),
            designation,
            record: OwnershipRecord::default(),
            widest,
        })
    }

    /// Runs `count` selections, the same ones one draw at a time runs,
    /// as runs of planned selections, each followed by one selection
    /// the plan did not settle.
    fn block(
        &mut self,
        plan: &mut Plan,
        mut count: usize,
        rng: &mut SujRng,
        sink: &mut dyn FnMut(Draw),
    ) -> Result<(), CoreError> {
        while count > 0 {
            count -= self.planned(plan, count, rng, sink);
            if count > 0 {
                self.select(rng, sink)?;
                count -= 1;
            }
        }
        Ok(())
    }

    /// Plans up to `count` selections from a clone of `rng`, walks them
    /// level by level, and settles the leading run whose walks their
    /// words decided: `rng` advances by exactly that run's words, and
    /// its events go to `sink`. Returns the run's length.
    ///
    /// The plan stops before a join that is dead, or that could die on
    /// the attempts planned before it, and before a join whose sampler
    /// takes no fixed number of words.
    fn planned(
        &mut self,
        plan: &mut Plan,
        count: usize,
        rng: &mut SujRng,
        sink: &mut dyn FnMut(Draw),
    ) -> usize {
        let Some(selection) = &self.selection else {
            return 0;
        };
        if self.widest.0 == 0 {
            return 0;
        }
        plan.clear(self.widest);
        let mut ahead = rng.clone();
        while plan.selections.len() < count {
            let mut next = ahead.clone();
            let word = next.next_u64();
            let j = selection.pick(word);
            if !self.step.live_ahead(j, plan.selections.len() as u64) {
                break;
            }
            let Some(words) = self.step.sampler(j).words_per_attempt() else {
                break;
            };
            plan.words.push(word);
            plan.selections.push((j, plan.words.len(), usize::MAX));
            plan.words.extend((0..words).map(|_| next.next_u64()));
            ahead = next;
        }
        if plan.selections.is_empty() {
            return 0;
        }
        let start = Instant::now();
        plan.walk(&self.step);
        let settled = plan
            .selections
            .iter()
            .position(|&(.., w)| plan.outcomes[w].is_none())
            .unwrap_or(plan.selections.len());
        if settled == 0 {
            return 0;
        }
        if settled == plan.selections.len() {
            *rng = ahead;
        } else {
            // The selection word of the first unsettled selection is the
            // first word the run did not consume.
            (1..plan.selections[settled].1).for_each(|_| {
                rng.next_u64();
            });
        }
        let mut kept = 0usize;
        for &(j, _, w) in &plan.selections[..settled] {
            self.step.report.join_draws[j] += 1;
            let accepted = plan.outcomes[w] == Some(true);
            self.step.book(j, 1, accepted);
            let t = accepted.then(|| self.step.workload.gather(j, &plan.rows[plan.rows_at[w]..]));
            if let Some(t) = t.and_then(|t| self.keep(j, t)) {
                sink(self.step.number(t));
                kept += 1;
            }
        }
        // The block's time, split between kept and rejected selections
        // by their counts.
        let elapsed = start.elapsed();
        let kept_time = match kept {
            k if k == settled => elapsed,
            0 => Duration::ZERO,
            k => Duration::from_nanos((elapsed.as_nanos() * k as u128 / settled as u128) as u64),
        };
        self.step.report.accepted_time += kept_time;
        self.step.report.rejected_time += elapsed - kept_time;
        settled
    }

    /// One selection on `rng` itself: select a join, make one attempt
    /// on it and keep what its owner and the predicate keep.
    fn select(&mut self, rng: &mut SujRng, sink: &mut dyn FnMut(Draw)) -> Result<(), CoreError> {
        let Some(selection) = &self.selection else {
            return Err(CoreError::Invalid(
                "cannot sample from an empty union: every join's size bound is 0".into(),
            ));
        };
        let j = selection.draw(rng);
        if !self.step.live(j)? {
            return Ok(());
        }
        self.step.report.join_draws[j] += 1;
        let start = Instant::now();
        match self.step.attempt(j, rng).and_then(|t| self.keep(j, t)) {
            Some(t) => sink(self.step.emit(t, start)),
            None => self.step.report.rejected_time += start.elapsed(),
        }
        Ok(())
    }

    /// `t`, just drawn from join `j`, if its owner is `j` and it passes
    /// the predicate; otherwise counts the rejection.
    fn keep(&mut self, j: usize, t: Tuple) -> Option<Tuple> {
        let owned = match self.designation {
            None => true,
            // `t` was just drawn from join j, so j designates it
            // iff no earlier join (workload order) holds it.
            Some(DesignationPolicy::Oracle) => {
                first_containing(&self.step.workload.oracles()[..j], &t).is_none()
            }
            // "retained only if it is sampled from the first join
            // where u was observed" (§3): nothing is ever withdrawn.
            Some(DesignationPolicy::Record) => {
                matches!(self.record.claim(&t, j, 0..0, |_| true), Claim::Accepted)
            }
        };
        if !owned {
            self.step.report.rejected_cover += 1;
            None
        } else if self.step.passes(&t) {
            Some(t)
        } else {
            self.step.report.rejected_predicate += 1;
            None
        }
    }
}

impl UnionSampler for DisjointUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        loop {
            let mut event = None;
            self.draw_block(1, rng, &mut |e| event = Some(e))?;
            if let Some(event) = event {
                return Ok(event);
            }
        }
    }

    /// Runs `min(64, demand)` selections, so a block never consumes a
    /// word the draws it replaces would not: each selection emits at
    /// most one tuple.
    fn draw_block(
        &mut self,
        demand: usize,
        rng: &mut SujRng,
        sink: &mut dyn FnMut(Draw),
    ) -> Result<(), CoreError> {
        if self.designation == Some(DesignationPolicy::Record) && self.record.is_empty() {
            self.record.reserve(demand.min(RECORD_RESERVE));
        }
        let mut plan = PLAN.take();
        let block = self.block(&mut plan, demand.min(BLOCK), rng, sink);
        PLAN.set(plan);
        block
    }

    fn report(&self) -> &RunReport {
        &self.step.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.step.report
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.step.workload
    }

    fn may_retract(&self) -> bool {
        false // designation rejects new draws, never withdraws old ones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::session::{shared_samplers, SamplerBuilder, Strategy};
    use suj_join::WeightKind;
    use suj_storage::{FxHashMap, Relation, Schema, Tuple, Value};

    /// The builder's sampler for `strategy` over the given weights.
    fn build(
        w: Arc<UnionWorkload>,
        strategy: Strategy,
        weights: WeightKind,
    ) -> Box<dyn UnionSampler + Send> {
        SamplerBuilder::for_workload(w)
            .strategy(strategy)
            .weights(weights)
            .build()
            .unwrap()
    }

    fn disjoint(w: Arc<UnionWorkload>) -> Box<dyn UnionSampler + Send> {
        build(w, Strategy::Disjoint, WeightKind::Exact)
    }

    fn designated(
        w: Arc<UnionWorkload>,
        policy: DesignationPolicy,
    ) -> Box<dyn UnionSampler + Send> {
        build(w, Strategy::Bernoulli(policy), WeightKind::Exact)
    }

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// `|J1| = 4`, `|J2| = 3`; both hold `(1, 10, 100)`.
    fn workload() -> Arc<UnionWorkload> {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel(
                    "r1",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel(
                    "r2",
                    &["a", "b"],
                    vec![vec![1, 10], vec![9, 90], vec![8, 90]],
                ),
                rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    #[test]
    fn disjoint_distribution_counts_duplicates_twice() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = disjoint(w.clone());
        let v = (exact.join_size(0) + exact.join_size(1)) as f64;

        let mut rng = SujRng::seed_from_u64(7);
        let (samples, report) = sampler.sample(25_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 25_000);
        assert_eq!(report.accepted, 25_000);

        // (1,10,100) lives in BOTH joins → expected frequency 2/|V|;
        // single-join tuples get 1/|V|.
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let shared = suj_storage::tuple![1i64, 10i64, 100i64];
        let single = suj_storage::tuple![3i64, 20i64, 200i64];
        let f_shared = counts[&shared] as f64 / 25_000.0;
        let f_single = counts[&single] as f64 / 25_000.0;
        assert!((f_shared - 2.0 / v).abs() < 0.02, "shared freq {f_shared}");
        assert!((f_single - 1.0 / v).abs() < 0.02, "single freq {f_single}");
    }

    #[test]
    fn all_samples_are_members() {
        let w = workload();
        let mut sampler = disjoint(w.clone());
        let mut rng = SujRng::seed_from_u64(9);
        let (samples, _) = sampler.sample(500, &mut rng).unwrap();
        for t in samples {
            assert!(w.contains(0, &t) || w.contains(1, &t));
        }
    }

    #[test]
    fn works_with_olken_weights() {
        let w = workload();
        let mut sampler = build(w, Strategy::Disjoint, WeightKind::ExtendedOlken);
        let mut rng = SujRng::seed_from_u64(10);
        let (samples, report) = sampler.sample(200, &mut rng).unwrap();
        assert_eq!(samples.len(), 200);
        // EO must have rejected at least occasionally on this skew.
        assert!(report.attempts() >= 200);
    }

    #[test]
    fn wrong_size_vector_rejected() {
        let w = workload();
        let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
        assert!(DisjointUnionSampler::new(w.clone(), samplers[..1].to_vec(), None, None).is_err());
        assert!(DisjointUnionSampler::new(w, samplers, None, None).is_ok());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let w = workload();
        let new = |samplers: Vec<Arc<dyn JoinSampler>>| {
            DisjointUnionSampler::new(w.clone(), samplers, Some(DesignationPolicy::Oracle), None)
        };
        let samplers = shared_samplers(&w, WeightKind::Exact).unwrap();
        assert!(new(samplers[..1].to_vec()).is_err());
        assert!(new(samplers).is_ok());
    }

    #[test]
    fn draw_never_retracts() {
        let w = workload();
        for mut sampler in [
            disjoint(w.clone()),
            designated(w.clone(), DesignationPolicy::Record),
        ] {
            let mut rng = SujRng::seed_from_u64(11);
            for _ in 0..500 {
                assert!(matches!(sampler.draw(&mut rng).unwrap(), Draw::Tuple(..)));
            }
            assert_eq!(sampler.report().accepted, 500);
        }
    }

    #[test]
    fn uniform_over_set_union() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = designated(w.clone(), DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(55);
        let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
        let n = 3_000 * universe.len();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert_eq!(samples.len(), n);
        assert!(report.rejected_cover > 0, "overlap must cause rejections");

        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            assert!(exact.union_set.contains(t));
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let observed: Vec<u64> = universe
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(outcome.p_value > 0.001, "p = {}", outcome.p_value);
    }

    #[test]
    fn rejection_rate_grows_with_overlap() {
        // Compare a disjoint workload with a fully-overlapping one.
        let w_overlap = {
            let mk = |n: &str| {
                suj_join::JoinSpec::chain(
                    n,
                    vec![
                        rel(
                            &format!("{n}_r"),
                            &["a", "b"],
                            vec![vec![1, 10], vec![2, 10]],
                        ),
                        rel(&format!("{n}_s"), &["b", "c"], vec![vec![10, 100]]),
                    ],
                )
                .unwrap()
            };
            Arc::new(UnionWorkload::new(vec![Arc::new(mk("x")), Arc::new(mk("y"))]).unwrap())
        };
        let mut sampler = designated(w_overlap, DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(66);
        let (_, report) = sampler.sample(2_000, &mut rng).unwrap();
        // Fully-overlapping joins: half of all selections hit the
        // non-designated join.
        let ratio = report.rejected_cover as f64 / (report.rejected_cover + report.accepted) as f64;
        assert!(ratio > 0.3, "expected heavy rejection, got {ratio}");
    }

    #[test]
    fn record_policy_samples_members_and_rejects_duplicates() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = designated(w, DesignationPolicy::Record);
        let mut rng = SujRng::seed_from_u64(77);
        let (samples, report) = sampler.sample(5_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 5_000);
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
        // The shared tuple must trigger record-based rejections from the
        // non-owning join.
        assert!(report.rejected_cover > 0);
    }

    /// A join sampler that hides its word count: every selection on it
    /// runs one at a time through `sample_rows`, as it did before
    /// blocks.
    struct Sequential(Arc<dyn JoinSampler>);

    impl JoinSampler for Sequential {
        fn spec(&self) -> &suj_join::JoinSpec {
            self.0.spec()
        }

        fn sample_rows(&self, rng: &mut SujRng, draw: &mut suj_join::RowDraw) -> bool {
            self.0.sample_rows(rng, draw)
        }

        fn size_info(&self) -> suj_join::SizeInfo {
            self.0.size_info()
        }
    }

    /// Batches from blocks on one fresh handle over `samplers` equal the
    /// draws one at a time on another, and on a third whose samplers
    /// never take the words path, under every designation: the tuples,
    /// the generator and the counters in step.
    fn assert_blocks_match_draws(w: &Arc<UnionWorkload>, samplers: Vec<Arc<dyn JoinSampler>>) {
        let sequential: Vec<Arc<dyn JoinSampler>> = samplers
            .iter()
            .map(|s| Arc::new(Sequential(s.clone())) as Arc<dyn JoinSampler>)
            .collect();
        for designation in [
            None,
            Some(DesignationPolicy::Oracle),
            Some(DesignationPolicy::Record),
        ] {
            let new = |samplers: &Vec<Arc<dyn JoinSampler>>| {
                DisjointUnionSampler::new(w.clone(), samplers.clone(), designation, None).unwrap()
            };
            let mut blocks = new(&samplers);
            let mut rng_blocks = SujRng::seed_from_u64(21);
            let mut references =
                [new(&samplers), new(&sequential)].map(|s| (s, rng_blocks.clone()));
            for n in [1, 64, 65, 200] {
                let (batch, _) = blocks.sample(n, &mut rng_blocks).unwrap();
                for (reference, rng) in &mut references {
                    let one_by_one: Vec<Tuple> = (0..n)
                        .map(|_| match reference.draw(rng).unwrap() {
                            Draw::Tuple(_, t) => t,
                            Draw::Retract(_) => unreachable!("designation never retracts"),
                        })
                        .collect();
                    assert_eq!(batch, one_by_one, "{designation:?} n={n}");
                    assert_eq!(rng_blocks.clone().next_u64(), rng.clone().next_u64());
                }
            }
            let b = blocks.report();
            for (reference, _) in &references {
                let d = reference.report();
                assert_eq!(b.join_draws, d.join_draws);
                assert_eq!(
                    (b.accepted, b.rejected_cover, b.rejected_join),
                    (d.accepted, d.rejected_cover, d.rejected_join)
                );
            }
            assert!(b.join_draws.iter().all(|&n| n > 0), "{:?}", b.join_draws);
        }
    }

    /// Two overlapping chains whose join keys fan out (`b = 0` matches
    /// three rows), so a walk's slot and coin words both matter.
    fn fanned_workload() -> Arc<UnionWorkload> {
        let r: Vec<Vec<i64>> = (0..12).map(|a| vec![a, a % 4]).collect();
        let mut s: Vec<Vec<i64>> = (0..4).map(|b| vec![b, 100 + b]).collect();
        s.extend([vec![0, 200], vec![0, 201]]);
        let chain = |name: &str, r: &[Vec<i64>], s: &[Vec<i64>]| {
            let r = rel(&format!("{name}_r"), &["a", "b"], r.to_vec());
            let s = rel(&format!("{name}_s"), &["b", "c"], s.to_vec());
            Arc::new(suj_join::JoinSpec::chain(name, vec![s, r]).unwrap())
        };
        let joins = vec![chain("j1", &r, &s), chain("j2", &r[3..], &s[..5])];
        Arc::new(UnionWorkload::new(joins).unwrap())
    }

    /// Exact weights throughout: every selection is planned and walked
    /// level by level.
    #[test]
    fn blocks_equal_draws_before_blocks() {
        let w = fanned_workload();
        assert_blocks_match_draws(&w, shared_samplers(&w, WeightKind::Exact).unwrap());
    }

    /// One Extended-Olken member beside an exact-weight one: a block's
    /// planned run ends wherever a selection lands on the Olken member,
    /// and that selection runs on its own.
    #[test]
    fn blocks_fall_back_at_an_olken_member() {
        let w = workload();
        let exact = shared_samplers(&w, WeightKind::Exact).unwrap();
        let olken = shared_samplers(&w, WeightKind::ExtendedOlken).unwrap();
        assert_blocks_match_draws(&w, vec![exact[0].clone(), olken[1].clone()]);
    }

    /// An exact-weight sampler whose words leave every walk starting on
    /// a word divisible by three undecided, as Lemire's slow path or a
    /// defensive exit would (both too rare to meet by chance).
    struct Undecided(Arc<dyn JoinSampler>);

    impl JoinSampler for Undecided {
        fn spec(&self) -> &suj_join::JoinSpec {
            self.0.spec()
        }

        fn sample_rows(&self, rng: &mut SujRng, draw: &mut suj_join::RowDraw) -> bool {
            self.0.sample_rows(rng, draw)
        }

        fn size_info(&self) -> suj_join::SizeInfo {
            self.0.size_info()
        }

        fn words_per_attempt(&self) -> Option<usize> {
            self.0.words_per_attempt()
        }

        fn sample_rows_words(
            &self,
            starts: &[usize],
            words: &[u64],
            rows: &mut [u32],
            outcomes: &mut [Option<bool>],
        ) {
            self.0.sample_rows_words(starts, words, rows, outcomes);
            for (outcome, &at) in outcomes.iter_mut().zip(starts) {
                if words[at].is_multiple_of(3) {
                    *outcome = None;
                }
            }
        }
    }

    /// A walk its words cannot decide ends the settled run mid-plan: the
    /// generator advances by the run's words alone, that selection runs
    /// on its own, and planning resumes after it.
    #[test]
    fn blocks_fall_back_at_an_undecided_walk() {
        let w = fanned_workload();
        let exact = shared_samplers(&w, WeightKind::Exact).unwrap();
        let undecided: Arc<dyn JoinSampler> = Arc::new(Undecided(exact[1].clone()));
        assert_blocks_match_draws(&w, vec![exact[0].clone(), undecided]);
    }

    #[test]
    fn per_call_reports_are_deltas() {
        let w = workload();
        let mut sampler = designated(w, DesignationPolicy::Oracle);
        let mut rng = SujRng::seed_from_u64(88);
        let (_, first) = sampler.sample(100, &mut rng).unwrap();
        let (_, second) = sampler.sample(100, &mut rng).unwrap();
        assert_eq!(first.accepted, 100);
        assert_eq!(second.accepted, 100);
        assert_eq!(sampler.report().accepted, 200);
    }
}
