//! The AGM-bound box-splitting sampler for cyclic joins.
//!
//! A *box* constrains the join's output attributes, in the fixed order
//! of the output schema: a pinned prefix of attributes, a value
//! interval on the current attribute, and unconstrained attributes
//! after it. Because every relation is indexed by a [`SortedIndex`]
//! whose sort key lists the relation's attributes in that same global
//! order, the rows of a relation inside any box form one contiguous
//! *run* `[lo, hi)` of its sorted permutation — so a box is just one
//! `(lo, hi)` pair per relation, and all bookkeeping is positional.
//!
//! One attempt descends from the root box (everything unconstrained) to
//! a *unit* box (all attributes pinned):
//!
//! 1. **Scan** the relations containing the current attribute. An empty
//!    run, or constant-but-disagreeing values, mean the box holds no
//!    join tuple: reject. All constant and agreeing: the attribute is
//!    pinned for free — advance.
//! 2. **Split** otherwise: the non-constant relation with the most
//!    distinct keys in its run is cut at the positional midpoint,
//!    snapped outward to a duplicate-block boundary so both children
//!    are non-empty; every relation containing the attribute narrows at
//!    the same value boundary by binary search.
//! 3. **Branch** by the AGM bound: with `r ~ U[0, AGM(B))`, descend
//!    left if `r < AGM(B_l)`, right if `r < AGM(B_l) + AGM(B_r)`,
//!    otherwise reject. The cover condition `Σ_{i ∋ A} w_i ≥ 1` makes
//!    `AGM(B_l) + AGM(B_r) ≤ AGM(B)` (Hölder), so the reject mass is
//!    never negative and the descent probability telescopes to
//!    `AGM(unit)/AGM(root) = 1/AGM(root)` for every unit box.
//! 4. **Accept rows**: at a unit box each run is one duplicate block.
//!    For each relation, a uniform slot in `[0, max_block_i)` either
//!    lands inside the block (take that duplicate) or rejects, so a
//!    specific row combination is accepted with probability exactly
//!    `1 / (AGM(root) · Π_i max_block_i)` — uniform under bag
//!    semantics, with no residual-predicate re-check: pinning equates
//!    every shared attribute by construction.
//!
//! The AGM bound is computed over *distinct* rows (an O(1) prefix-sum
//! read per run); duplicate multiplicity is restored by step 4. All
//! descent state lives in a thread-local scratch, so rejected attempts
//! allocate nothing.
//!
//! This is the "subgraph/cyclic sampling via box splitting" technique
//! of Wang & Tao (PODS 2023, see `PAPERS.md`) specialized to the
//! paper's union-of-joins engine; the bound itself is
//! Atserias–Grohe–Marx.

use super::cover::{agm_bound, FractionalEdgeCover};
use crate::error::JoinError;
use crate::spec::JoinSpec;
use crate::weights::{JoinSampler, RowDraw, SizeInfo};
use std::cell::RefCell;
use std::sync::Arc;
use suj_stats::SujRng;
use suj_storage::{SortedIndex, Value};

/// Per-thread descent scratch: one run, one distinct count, and one
/// split point per relation.
#[derive(Default)]
struct BoxScratch {
    runs: Vec<(u32, u32)>,
    counts: Vec<f64>,
    mids: Vec<u32>,
}

thread_local! {
    static BOX_SCRATCH: RefCell<BoxScratch> = RefCell::new(BoxScratch::default());
}

/// Uniform sampler over a (possibly cyclic) join via AGM-bound box
/// splitting. See the [module docs](self) for the algorithm and its
/// uniformity argument.
#[derive(Debug)]
pub struct CyclicJoinSampler {
    spec: Arc<JoinSpec>,
    cover: FractionalEdgeCover,
    /// One sorted index per relation, keyed by the relation's
    /// attributes in output-schema order — so box constraints are
    /// always a prefix of the sort key.
    sorted: Vec<SortedIndex>,
    /// For each output attribute `d`: the relations containing it, as
    /// `(relation, key position in its sort key)`.
    attr_rels: Vec<Vec<(u32, u32)>>,
    /// `attr_key[d][i]` = key position of attribute `d` in relation
    /// `i`'s sort key, or -1 if the relation lacks the attribute.
    attr_key: Vec<Vec<i32>>,
    /// AGM bound of the root box (over distinct rows).
    agm_root: f64,
    /// Per relation: longest duplicate block (≥ 1 unless empty).
    max_block: Vec<usize>,
    /// `agm_root · Π max_block` — the bag-semantics output bound.
    size_bound: f64,
}

impl CyclicJoinSampler {
    /// Builds the sampler: a fractional edge cover for the spec's
    /// hypergraph plus one sorted index per relation.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let cover = FractionalEdgeCover::for_spec(&spec)?;
        let out_attrs = spec.output_schema().attrs();
        let n = spec.n_relations();

        let mut sorted = Vec::with_capacity(n);
        for i in 0..n {
            let rel = spec.relation(i);
            let keys: Vec<Arc<str>> = out_attrs
                .iter()
                .filter(|a| rel.schema().position(a).is_some())
                .cloned()
                .collect();
            sorted.push(SortedIndex::build(rel, &keys));
        }

        let mut attr_rels = vec![Vec::new(); out_attrs.len()];
        let mut attr_key = vec![vec![-1i32; n]; out_attrs.len()];
        for (i, idx) in sorted.iter().enumerate() {
            for (k, a) in idx.attrs().iter().enumerate() {
                let d = spec
                    .output_schema()
                    .position(a)
                    .expect("sort key attr in output schema");
                attr_rels[d].push((i as u32, k as u32));
                attr_key[d][i] = k as i32;
            }
        }

        let root_counts: Vec<f64> = sorted
            .iter()
            .map(|idx| idx.distinct_in(0, idx.len()) as f64)
            .collect();
        let agm_root = agm_bound(&root_counts, cover.weights());
        let max_block: Vec<usize> = sorted.iter().map(|idx| idx.max_block().max(1)).collect();
        let size_bound = agm_root * max_block.iter().map(|&m| m as f64).product::<f64>();

        Ok(Self {
            spec,
            cover,
            sorted,
            attr_rels,
            attr_key,
            agm_root,
            max_block,
            size_bound,
        })
    }

    /// The fractional edge cover in use.
    pub fn cover(&self) -> &FractionalEdgeCover {
        &self.cover
    }

    /// AGM bound of the root box (over distinct rows).
    pub fn agm_root(&self) -> f64 {
        self.agm_root
    }

    /// One box descent. `true` leaves a uniform row combination in
    /// `draw`.
    fn descend(&self, rng: &mut SujRng, draw: &mut RowDraw, s: &mut BoxScratch) -> bool {
        let n = self.spec.n_relations();
        s.runs.clear();
        s.counts.clear();
        s.mids.clear();
        s.mids.resize(n, 0);
        for idx in &self.sorted {
            s.runs.push((0, idx.len() as u32));
            s.counts.push(idx.distinct_in(0, idx.len()) as f64);
        }
        let mut agm_cur = self.agm_root;
        if agm_cur <= 0.0 {
            return false;
        }

        for d in 0..self.attr_rels.len() {
            loop {
                // Scan the relations containing attribute d.
                let mut split_rel: Option<usize> = None;
                let mut split_count = -1.0f64;
                let mut pin: Option<Value> = None;
                for &(i, k) in &self.attr_rels[d] {
                    let i = i as usize;
                    let (lo, hi) = s.runs[i];
                    if lo == hi {
                        return false;
                    }
                    let idx = &self.sorted[i];
                    let first = idx.value_at(k as usize, lo as usize);
                    let last = idx.value_at(k as usize, hi as usize - 1);
                    if first != last {
                        if s.counts[i] > split_count {
                            split_count = s.counts[i];
                            split_rel = Some(i);
                        }
                    } else {
                        match &pin {
                            None => pin = Some(first),
                            Some(v) => {
                                if *v != first {
                                    return false;
                                }
                            }
                        }
                    }
                }

                let si = match split_rel {
                    // All containing relations constant and agreeing:
                    // the attribute is pinned; runs are unchanged.
                    None => break,
                    Some(si) => si,
                };

                // Split relation si's run at the positional midpoint,
                // snapped to a duplicate-block boundary on attribute d.
                let k = self.attr_key[d][si] as usize;
                let (lo, hi) = s.runs[si];
                let (lo, hi) = (lo as usize, hi as usize);
                let idx = &self.sorted[si];
                let mid = lo + (hi - lo) / 2;
                let v_mid = idx.value_at(k, mid);
                let p = idx.lower_bound_in(k, lo, hi, &v_mid);
                let (cut, boundary) = if p == lo {
                    // v_mid is the run's smallest value; cut after its
                    // block (the run is non-constant, so some larger
                    // value follows).
                    (idx.upper_bound_in(k, lo, hi, &v_mid), v_mid)
                } else {
                    (p, idx.value_at(k, p - 1))
                };
                debug_assert!(cut > lo && cut < hi);

                // AGM bounds of the two children: left pins
                // attr_d ≤ boundary, right pins attr_d > boundary.
                let mut agm_left = 1.0f64;
                let mut agm_right = 1.0f64;
                for i in 0..n {
                    let w = self.cover.weights()[i];
                    let key = self.attr_key[d][i];
                    if key < 0 {
                        let f = s.counts[i].powf(w);
                        agm_left *= f;
                        agm_right *= f;
                    } else {
                        let (lo_i, hi_i) = s.runs[i];
                        let (lo_i, hi_i) = (lo_i as usize, hi_i as usize);
                        let m = if i == si {
                            cut
                        } else {
                            self.sorted[i].upper_bound_in(key as usize, lo_i, hi_i, &boundary)
                        };
                        s.mids[i] = m as u32;
                        // A zero distinct count empties the child for
                        // this relation regardless of its weight
                        // (0^0 = 1 would wrongly keep the bound alive).
                        let dl = self.sorted[i].distinct_in(lo_i, m) as f64;
                        let dr = self.sorted[i].distinct_in(m, hi_i) as f64;
                        if dl > 0.0 {
                            agm_left *= dl.powf(w);
                        } else {
                            agm_left = 0.0;
                        }
                        if dr > 0.0 {
                            agm_right *= dr.powf(w);
                        } else {
                            agm_right = 0.0;
                        }
                    }
                }

                // Branch ~ AGM mass; the remainder rejects.
                let r = rng.next_f64() * agm_cur;
                let go_left = r < agm_left;
                if !go_left && r >= agm_left + agm_right {
                    return false;
                }
                for &(i, _) in &self.attr_rels[d] {
                    let i = i as usize;
                    let (lo_i, hi_i) = s.runs[i];
                    let m = s.mids[i];
                    s.runs[i] = if go_left { (lo_i, m) } else { (m, hi_i) };
                    let (a, b) = s.runs[i];
                    s.counts[i] = self.sorted[i].distinct_in(a as usize, b as usize) as f64;
                }
                agm_cur = if go_left { agm_left } else { agm_right };
                if agm_cur <= 0.0 {
                    return false;
                }
            }
        }

        // Unit box: every run is one duplicate block. Correct for bag
        // multiplicity with a per-relation max-block acceptance test.
        draw.reset(n);
        for i in 0..n {
            let (lo, hi) = s.runs[i];
            let m = (hi - lo) as usize;
            let slot = rng.index(self.max_block[i]);
            if slot >= m {
                return false;
            }
            draw.rows[i] = self.sorted[i].row_at(lo as usize + slot);
        }
        true
    }
}

impl JoinSampler for CyclicJoinSampler {
    fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    fn sample_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool {
        BOX_SCRATCH.with(|s| self.descend(rng, draw, &mut s.borrow_mut()))
    }

    /// `AGM(root) · Π_i max_block_i` — an upper bound on the bag-join
    /// size, and the inverse of the per-attempt acceptance probability
    /// of any fixed result row combination.
    fn size_info(&self) -> SizeInfo {
        SizeInfo {
            bound: self.size_bound,
            exact: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::spec::JoinSpec;
    use suj_stats::chi_square_test;
    use suj_storage::{Relation, Schema, Tuple};

    fn rel(name: &str, attrs: &[&str], rows: &[&[i64]]) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|&v| Value::int(v)).collect()))
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn triangle() -> Arc<JoinSpec> {
        Arc::new(
            JoinSpec::natural(
                "tri",
                vec![
                    rel("x", &["a", "b"], &[&[1, 2], &[1, 9], &[5, 2], &[5, 6]]),
                    rel("y", &["b", "c"], &[&[2, 3], &[2, 4], &[9, 4], &[6, 3]]),
                    rel("z", &["c", "a"], &[&[3, 1], &[4, 5], &[4, 1], &[3, 5]]),
                ],
            )
            .unwrap(),
        )
    }

    fn four_cycle() -> Arc<JoinSpec> {
        Arc::new(
            JoinSpec::natural(
                "c4",
                vec![
                    rel("p", &["a", "b"], &[&[1, 2], &[1, 3], &[4, 2], &[4, 3]]),
                    rel("q", &["b", "c"], &[&[2, 5], &[3, 5], &[2, 6], &[3, 7]]),
                    rel("r", &["c", "d"], &[&[5, 8], &[6, 8], &[7, 9], &[5, 9]]),
                    rel("s", &["d", "a"], &[&[8, 1], &[9, 4], &[8, 4], &[9, 1]]),
                ],
            )
            .unwrap(),
        )
    }

    /// Draws `2000·k` accepted samples and chi²-tests them against the
    /// uniform distribution over the join's `k` results (which must be
    /// duplicate-free for tuple-level counting to be valid).
    fn assert_uniform(sampler: &CyclicJoinSampler, seed: u64) {
        let result = execute(sampler.spec());
        let k = result.tuples().len();
        assert!(k > 1, "uniformity test needs a non-trivial join");
        let mut pos = std::collections::HashMap::new();
        for (i, t) in result.tuples().iter().enumerate() {
            assert!(pos.insert(t.clone(), i).is_none(), "duplicate result");
        }
        let mut counts = vec![0u64; k];
        let mut rng = SujRng::seed_from_u64(seed);
        let mut accepted = 0usize;
        let mut attempts = 0u64;
        while accepted < 2000 * k {
            attempts += 1;
            assert!(attempts < 20_000_000, "acceptance rate collapsed");
            if let crate::weights::SampleOutcome::Accepted(t) = sampler.sample(&mut rng) {
                counts[*pos.get(&t).expect("sampled tuple not in join result")] += 1;
                accepted += 1;
            }
        }
        let test = chi_square_test(&counts).expect("enough cells for chi²");
        assert!(
            test.p_value > 0.001,
            "chi² rejected uniformity: {test:?} counts={counts:?}"
        );
    }

    #[test]
    fn triangle_samples_are_uniform() {
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        assert_eq!(sampler.cover().kind(), super::super::CoverKind::Cycle);
        assert_uniform(&sampler, 0xA11CE);
    }

    #[test]
    fn four_cycle_samples_are_uniform() {
        let sampler = CyclicJoinSampler::new(four_cycle()).unwrap();
        assert_eq!(sampler.cover().kind(), super::super::CoverKind::Cycle);
        assert_uniform(&sampler, 77);
    }

    #[test]
    fn acyclic_chain_also_samples_uniformly() {
        // The box descent is shape-agnostic; on acyclic specs it is just
        // a slower exact sampler. Sanity-check uniformity anyway.
        let spec = Arc::new(
            JoinSpec::natural(
                "chain",
                vec![
                    rel("l", &["a", "b"], &[&[1, 1], &[1, 2], &[2, 2], &[3, 2]]),
                    rel("r", &["b", "c"], &[&[1, 7], &[2, 7], &[2, 8], &[2, 9]]),
                ],
            )
            .unwrap(),
        );
        let sampler = CyclicJoinSampler::new(spec).unwrap();
        assert_uniform(&sampler, 5);
    }

    #[test]
    fn bag_duplicates_are_weighted_by_multiplicity() {
        // Duplicate rows in the inputs: uniformity must hold over row
        // *combinations*, observed via the row-id hot path.
        let spec = Arc::new(
            JoinSpec::natural(
                "tri-bag",
                vec![
                    rel("x", &["a", "b"], &[&[1, 2], &[1, 2], &[1, 9]]),
                    rel("y", &["b", "c"], &[&[2, 3], &[9, 3], &[2, 3]]),
                    rel("z", &["c", "a"], &[&[3, 1], &[3, 1], &[3, 1]]),
                ],
            )
            .unwrap(),
        );
        let sampler = CyclicJoinSampler::new(spec.clone()).unwrap();
        // Enumerate valid row combinations by brute force.
        let mut combos = std::collections::HashMap::new();
        for xi in 0..3u32 {
            for yi in 0..3u32 {
                for zi in 0..3u32 {
                    let x = spec.relation(0);
                    let y = spec.relation(1);
                    let z = spec.relation(2);
                    let b_ok = x.column(1).cell(xi as usize) == y.column(0).cell(yi as usize);
                    let c_ok = y.column(1).cell(yi as usize) == z.column(0).cell(zi as usize);
                    let a_ok = z.column(1).cell(zi as usize) == x.column(0).cell(xi as usize);
                    if b_ok && c_ok && a_ok {
                        let idx = combos.len();
                        combos.insert([xi, yi, zi], idx);
                    }
                }
            }
        }
        // x/y pairs: b=2 gives 2·2, b=9 gives 1·1; each pairs with all
        // 3 (identical) z rows.
        assert_eq!(combos.len(), 15);
        let mut counts = vec![0u64; combos.len()];
        let mut rng = SujRng::seed_from_u64(99);
        let mut draw = RowDraw::new();
        let mut accepted = 0usize;
        while accepted < 2000 * combos.len() {
            if sampler.sample_rows(&mut rng, &mut draw) {
                let key = [draw.rows()[0], draw.rows()[1], draw.rows()[2]];
                counts[*combos.get(&key).expect("accepted combo not in join")] += 1;
                accepted += 1;
            }
        }
        let test = chi_square_test(&counts).expect("enough cells for chi²");
        assert!(test.p_value > 0.001, "chi² rejected: {test:?} {counts:?}");
    }

    #[test]
    fn acceptance_implies_membership_and_hint_bounds_out() {
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        let result = execute(sampler.spec());
        let members: std::collections::HashSet<_> = result.tuples().iter().cloned().collect();
        assert!(sampler.size_info().bound >= result.tuples().len() as f64);
        let mut rng = SujRng::seed_from_u64(123);
        let mut seen = 0;
        for _ in 0..50_000 {
            if let crate::weights::SampleOutcome::Accepted(t) = sampler.sample(&mut rng) {
                assert!(members.contains(&t));
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    /// Each result tuple is hit with probability `1 / size_bound` per
    /// attempt, so acceptance is `OUT / size_bound` — here at scale, on
    /// a seeded random graph rather than the hand-built fixtures. A
    /// drift beyond binomial noise (4σ) means the descent's branch
    /// probabilities stopped telescoping.
    #[test]
    fn acceptance_matches_out_over_size_bound_on_a_random_graph() {
        let mut rng = SujRng::seed_from_u64(2023);
        let mut edges: Vec<[i64; 2]> = Vec::new();
        for u in 0..64 {
            for v in (u + 1)..64 {
                if rng.bernoulli(0.15) {
                    edges.push([u, v]);
                    edges.push([v, u]);
                }
            }
        }
        let rows: Vec<&[i64]> = edges.iter().map(|e| e.as_slice()).collect();
        let spec = Arc::new(
            JoinSpec::natural(
                "tri-random",
                vec![
                    rel("x", &["a", "b"], &rows),
                    rel("y", &["b", "c"], &rows),
                    rel("z", &["c", "a"], &rows),
                ],
            )
            .unwrap(),
        );
        let out = execute(&spec).tuples().len();
        assert!(out > 0, "the random graph has no triangle");
        let sampler = CyclicJoinSampler::new(spec).unwrap();
        let expected = out as f64 / sampler.size_info().bound;

        const ATTEMPTS: usize = 50_000;
        let mut rng = SujRng::seed_from_u64(42);
        let mut draw = RowDraw::new();
        let accepted = (0..ATTEMPTS)
            .filter(|_| sampler.sample_rows(&mut rng, &mut draw))
            .count();
        let measured = accepted as f64 / ATTEMPTS as f64;
        let sigma = (expected * (1.0 - expected) / ATTEMPTS as f64).sqrt();
        assert!(
            (measured - expected).abs() <= 4.0 * sigma,
            "acceptance {measured:.5} strayed from OUT/size_bound {expected:.5} (σ = {sigma:.5})"
        );
    }

    #[test]
    fn empty_relation_never_accepts() {
        let spec = Arc::new(
            JoinSpec::natural(
                "tri-empty",
                vec![
                    rel("x", &["a", "b"], &[&[1, 2]]),
                    rel("y", &["b", "c"], &[]),
                    rel("z", &["c", "a"], &[&[3, 1]]),
                ],
            )
            .unwrap(),
        );
        let sampler = CyclicJoinSampler::new(spec).unwrap();
        assert_eq!(sampler.size_info().bound, 0.0);
        let mut rng = SujRng::seed_from_u64(1);
        let mut draw = RowDraw::new();
        for _ in 0..100 {
            assert!(!sampler.sample_rows(&mut rng, &mut draw));
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        let run = |seed| {
            let mut rng = SujRng::seed_from_u64(seed);
            let mut out = Vec::new();
            sampler.sample_batch(64, 1_000_000, &mut rng, &mut out);
            out
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn agm_root_matches_hand_computation() {
        // Triangle of 4-row duplicate-free relations: 4^{3/2} = 8.
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        assert_eq!(sampler.agm_root(), 8.0);
        assert_eq!(sampler.size_info().bound, 8.0); // max blocks all 1
    }
}
