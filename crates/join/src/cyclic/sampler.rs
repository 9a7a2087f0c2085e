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
//! The boxes form a binary tree under the root box (everything
//! unconstrained), and the top of that tree is a function of the data
//! alone. [`CyclicJoinSampler::new`] therefore pre-splits it into a
//! **frontier**: an antichain of boxes that together hold every join
//! tuple, each with its AGM bound, under one alias table over those
//! bounds. One attempt draws a frontier box and descends from it to a
//! *unit* box (all attributes pinned):
//!
//! 0. **Draw** a frontier box `B` with probability `AGM(B)/Σ_F`, one
//!    O(1) alias lookup (`Σ_F` is the sum of the frontier's bounds).
//! 1. **Scan** the relations containing the current attribute. An empty
//!    run, or constant-but-disagreeing values, mean the box holds no
//!    join tuple: reject. All constant and agreeing: the attribute is
//!    pinned for free — advance.
//! 2. **Split** otherwise: the non-constant relation with the most
//!    distinct keys in its run is cut at the positional midpoint,
//!    snapped outward to a duplicate-block boundary so both children
//!    are non-empty; every relation containing the attribute narrows at
//!    the same boundary by one `partition_point` over its key run.
//! 3. **Branch** by the AGM bound: with `r ~ U[0, AGM(B))`, descend
//!    left if `r < AGM(B_l)`, right if `r < AGM(B_l) + AGM(B_r)`,
//!    otherwise reject. The cover condition `Σ_{i ∋ A} w_i ≥ 1` makes
//!    `AGM(B_l) + AGM(B_r) ≤ AGM(B)` (Hölder), so the reject mass is
//!    never negative and the descent probability from `B` telescopes to
//!    `AGM(unit)/AGM(B) = 1/AGM(B)` for every unit box inside `B`.
//!    With step 0 in front, a unit box is reached with probability
//!    `AGM(B)/Σ_F · 1/AGM(B) = 1/Σ_F` — the same for every unit box,
//!    whichever frontier box holds it.
//! 4. **Accept rows**: at a unit box each run is one duplicate block.
//!    For each relation, a uniform slot in `[0, max_block_i)` either
//!    lands inside the block (take that duplicate) or rejects, so a
//!    specific row combination is accepted with probability exactly
//!    `1 / (Σ_F · Π_i max_block_i)` — uniform under bag semantics, with
//!    no residual-predicate re-check: pinning equates every shared
//!    attribute by construction.
//!
//! Steps 1 and 2 and the two child bounds of step 3 use no randomness:
//! they are one function, `step`, which the descent calls with a coin
//! and the frontier builder calls to keep *both* children. The builder
//! refines best-first by AGM mass — always the box with the largest
//! bound, ties by creation order — dropping children whose bound is
//! zero and boxes the scan proves empty, and keeping unit boxes as
//! leaves, for at most `Σ|Rᵢ|/4` splits. `Σ_F ≤ AGM(root)` because
//! every split replaces a bound by two that sum to no more, and a
//! snapshot-restored replica rebuilds the identical frontier from the
//! identical relations.
//!
//! The order is mass-driven and not slack-driven (always split the box
//! whose Hölder slack `AGM(B) − AGM(B_l) − AGM(B_r)` is largest) for a
//! measured reason: on a symmetric graph Cauchy–Schwarz is tight, so
//! every split on the first attribute and most on the second have
//! *zero* slack and a slack-first order stalls at the root. On the
//! benchmark's `cyclic_tri` a frontier of this size lowers `Σ_F` by
//! only 12% / 46% (acceptance 0.022 → 0.025 / 0.011 → 0.020); what it
//! buys is depth — an attempt starts ≈ 9 levels down and costs under a
//! third of a root start. The bound only falls steeply past `Σ|Rᵢ|`
//! splits, which set-up cannot afford (DESIGN.md has the table).
//!
//! Every comparison in steps 1–2 is an `i64` compare: each index keeps
//! its sort attributes as key runs of order-preserving codes
//! ([`SortedIndex::key`]), and [`SortedIndex::build_all`] codes each
//! attribute once over every relation that holds it, so a code read in
//! one relation pins or cuts another. Integer keys are their own codes;
//! strings, floats and NULLs take the same path through their ranks. A
//! descent builds no `Value` and dispatches on no column type.
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

use super::cover::{agm_bound, pow_weight, FractionalEdgeCover};
use crate::error::JoinError;
use crate::spec::JoinSpec;
use crate::weights::{JoinSampler, RowDraw, SizeInfo};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use suj_stats::{AliasArena, AliasArenaBuilder, SujRng};
use suj_storage::{Relation, SortedIndex};

/// The frontier builder splits at most `Σ|Rᵢ| / 4` boxes: tied to the
/// input's own size so that it stays a fixed fraction of the index
/// sorts it follows (DESIGN.md "The frontier" has what `/2` costs in
/// set-up).
const ROWS_PER_SPLIT: usize = 4;

/// The box being worked on: one run, one distinct count, and one split
/// point per relation. The descent keeps one per thread; the frontier
/// builder one per build.
#[derive(Default)]
struct BoxScratch {
    runs: Vec<(u32, u32)>,
    counts: Vec<f64>,
    mids: Vec<u32>,
}

impl BoxScratch {
    /// Makes `runs` the current box.
    fn load(&mut self, sorted: &[SortedIndex], runs: &[(u32, u32)]) {
        self.runs.clear();
        self.runs.extend_from_slice(runs);
        self.counts.clear();
        self.counts.extend(
            sorted
                .iter()
                .zip(runs)
                .map(|(idx, &(lo, hi))| idx.distinct_in(lo as usize, hi as usize) as f64),
        );
        self.mids.clear();
        self.mids.resize(runs.len(), 0);
    }

    /// Relation `i`'s run in one child of the split just made.
    fn child_run(&self, i: usize, go_left: bool) -> (u32, u32) {
        let (lo, hi) = self.runs[i];
        let m = self.mids[i];
        if go_left {
            (lo, m)
        } else {
            (m, hi)
        }
    }
}

thread_local! {
    static BOX_SCRATCH: RefCell<BoxScratch> = RefCell::new(BoxScratch::default());
}

/// What one attribute does to the current box (steps 1–2 of the
/// [module docs](self), and the child bounds of step 3).
enum Step {
    /// The box holds no join tuple.
    Empty,
    /// The attribute is pinned; the runs are unchanged.
    Pinned,
    /// The box was cut on the attribute: `mids` holds every narrowed
    /// relation's cut, and these are the two children's AGM bounds.
    Split { left: f64, right: f64 },
}

/// The pre-split top of the box tree, flat: box `b` has runs
/// `runs[b·n .. (b+1)·n]`, resumes at attribute `depth[b]`
/// (`= #attributes` for a unit box) and carries bound `agm[b]`.
/// Ordered by bound, largest first, then by creation.
#[derive(Debug)]
struct Frontier {
    runs: Vec<(u32, u32)>,
    depth: Vec<u32>,
    agm: Vec<f64>,
    /// One segment over `agm`.
    alias: AliasArena,
    /// `Σ_F` — the sum of `agm`.
    total: f64,
}

impl Frontier {
    fn pack(runs: Vec<(u32, u32)>, depth: Vec<u32>, agm: Vec<f64>) -> Self {
        let mut alias = AliasArenaBuilder::with_capacity(1, agm.len());
        alias.push_segment(&agm);
        Self {
            runs,
            depth,
            alias: alias.finish(),
            total: agm.iter().sum(),
            agm,
        }
    }
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
    frontier: Frontier,
    /// `Σ_F · Π max_block` — the bag-semantics output bound.
    size_bound: f64,
}

impl CyclicJoinSampler {
    /// Builds the sampler: a fractional edge cover for the spec's
    /// hypergraph, one sorted index per relation, and the frontier.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let rows: usize = spec.relations().iter().map(|r| r.len()).sum();
        Self::with_budget(spec, rows / ROWS_PER_SPLIT)
    }

    /// [`new`](Self::new) with the frontier builder's split budget
    /// given. Any other budget is a test's: 0 leaves the root box as
    /// the whole frontier, `usize::MAX` refines down to the join's
    /// distinct tuples.
    fn with_budget(spec: Arc<JoinSpec>, budget: usize) -> Result<Self, JoinError> {
        let cover = FractionalEdgeCover::for_spec(&spec)?;
        let out_attrs = spec.output_schema().attrs();
        let n = spec.n_relations();

        let keys: Vec<Vec<Arc<str>>> = spec
            .relations()
            .iter()
            .map(|rel| {
                out_attrs
                    .iter()
                    .filter(|a| rel.schema().position(a).is_some())
                    .cloned()
                    .collect()
            })
            .collect();
        let parts: Vec<(&Relation, &[Arc<str>])> = (spec.relations().iter().map(|r| r.as_ref()))
            .zip(keys.iter().map(Vec::as_slice))
            .collect();
        let sorted = SortedIndex::build_all(&parts);

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

        let mut sampler = Self {
            spec,
            cover,
            sorted,
            attr_rels,
            attr_key,
            agm_root,
            max_block,
            frontier: Frontier::pack(Vec::new(), Vec::new(), Vec::new()),
            size_bound: 0.0,
        };
        sampler.frontier = sampler.refine(budget);
        sampler.size_bound =
            sampler.frontier.total * sampler.max_block.iter().map(|&m| m as f64).product::<f64>();
        Ok(sampler)
    }

    /// The fractional edge cover in use.
    pub fn cover(&self) -> &FractionalEdgeCover {
        &self.cover
    }

    /// AGM bound of the root box (over distinct rows).
    pub fn agm_root(&self) -> f64 {
        self.agm_root
    }

    /// The deterministic half of one descent level: scans attribute `d`
    /// over the box in `s` and, unless that empties or pins it, cuts
    /// the box in two, leaving the cuts in `s.mids` for
    /// [`narrow`](Self::narrow).
    fn step(&self, d: usize, s: &mut BoxScratch) -> Step {
        let mut split_rel: Option<usize> = None;
        let mut split_count = -1.0f64;
        let mut pin: Option<i64> = None;
        for &(i, k) in &self.attr_rels[d] {
            let i = i as usize;
            let (lo, hi) = s.runs[i];
            if lo == hi {
                return Step::Empty;
            }
            let run = &self.sorted[i].key(k as usize)[lo as usize..hi as usize];
            let first = run[0];
            if first != run[run.len() - 1] {
                if s.counts[i] > split_count {
                    split_count = s.counts[i];
                    split_rel = Some(i);
                }
            } else if *pin.get_or_insert(first) != first {
                return Step::Empty;
            }
        }
        let Some(si) = split_rel else {
            return Step::Pinned;
        };

        // Split relation si's run at the positional midpoint, snapped
        // to a duplicate-block boundary on attribute d.
        let (lo, hi) = s.runs[si];
        let (lo, hi) = (lo as usize, hi as usize);
        let run = &self.sorted[si].key(self.attr_key[d][si] as usize)[lo..hi];
        let v_mid = run[run.len() / 2];
        let p = run.partition_point(|&v| v < v_mid);
        let (cut, boundary) = if p == 0 {
            // v_mid is the run's smallest value; cut after its block
            // (the run is non-constant, so some larger value follows).
            (run.partition_point(|&v| v <= v_mid), v_mid)
        } else {
            (p, run[p - 1])
        };
        let cut = lo + cut;
        debug_assert!(cut > lo && cut < hi);

        // AGM bounds of the two children: left pins attr_d ≤ boundary,
        // right pins attr_d > boundary.
        let mut left = 1.0f64;
        let mut right = 1.0f64;
        for (i, &w) in self.cover.weights().iter().enumerate() {
            let key = self.attr_key[d][i];
            if key < 0 {
                let f = pow_weight(s.counts[i], w);
                left *= f;
                right *= f;
            } else {
                let (lo_i, hi_i) = s.runs[i];
                let (lo_i, hi_i) = (lo_i as usize, hi_i as usize);
                let m = if i == si {
                    cut
                } else {
                    let run = &self.sorted[i].key(key as usize)[lo_i..hi_i];
                    lo_i + run.partition_point(|&v| v <= boundary)
                };
                s.mids[i] = m as u32;
                // A zero distinct count empties the child for this
                // relation regardless of its weight (0^0 = 1 would
                // wrongly keep the bound alive).
                let dl = self.sorted[i].distinct_in(lo_i, m) as f64;
                let dr = self.sorted[i].distinct_in(m, hi_i) as f64;
                left *= if dl > 0.0 { pow_weight(dl, w) } else { 0.0 };
                right *= if dr > 0.0 { pow_weight(dr, w) } else { 0.0 };
            }
        }
        Step::Split { left, right }
    }

    /// Narrows the box in `s` to one child of the split
    /// [`step`](Self::step) just made on attribute `d`.
    fn narrow(&self, d: usize, go_left: bool, s: &mut BoxScratch) {
        for &(i, _) in &self.attr_rels[d] {
            let i = i as usize;
            let (lo, hi) = s.child_run(i, go_left);
            s.runs[i] = (lo, hi);
            s.counts[i] = self.sorted[i].distinct_in(lo as usize, hi as usize) as f64;
        }
    }

    /// Builds the frontier: best-first refinement of the root box by
    /// AGM mass, at most `budget` splits.
    fn refine(&self, budget: usize) -> Frontier {
        let n = self.spec.n_relations();
        let n_attrs = self.attr_rels.len() as u32;
        // Every box ever created, by id: runs, resume attribute, bound.
        let mut runs: Vec<(u32, u32)> = self
            .sorted
            .iter()
            .map(|idx| (0, idx.len() as u32))
            .collect();
        let mut depth = vec![0u32];
        let mut agm = vec![self.agm_root];
        // Open boxes, largest bound first, then oldest. Bounds are
        // non-negative, so their bit patterns order as they do.
        let mut open = BinaryHeap::new();
        if self.agm_root > 0.0 {
            open.push((self.agm_root.to_bits(), Reverse(0u32)));
        }
        let mut units: Vec<(u64, Reverse<u32>)> = Vec::new();
        let mut s = BoxScratch::default();
        let mut splits = 0usize;
        while splits < budget {
            let Some(entry) = open.pop() else { break };
            let id = entry.1 .0 as usize;
            s.load(&self.sorted, &runs[id * n..(id + 1) * n]);
            let mut d = depth[id];
            let step = loop {
                if d == n_attrs {
                    // Every attribute pinned: a unit box.
                    break Step::Pinned;
                }
                match self.step(d as usize, &mut s) {
                    Step::Pinned => d += 1,
                    other => break other,
                }
            };
            match step {
                Step::Empty => {}
                Step::Pinned => {
                    depth[id] = n_attrs;
                    units.push(entry);
                }
                Step::Split { left, right } => {
                    splits += 1;
                    for (go_left, bound) in [(true, left), (false, right)] {
                        if bound <= 0.0 {
                            continue;
                        }
                        let child = depth.len();
                        runs.extend_from_slice(&s.runs);
                        for &(i, _) in &self.attr_rels[d as usize] {
                            let i = i as usize;
                            runs[child * n + i] = s.child_run(i, go_left);
                        }
                        depth.push(d);
                        agm.push(bound);
                        open.push((bound.to_bits(), Reverse(child as u32)));
                    }
                }
            }
        }

        let mut kept = open.into_vec();
        kept.extend(units);
        kept.sort_unstable_by(|a, b| b.cmp(a));
        let ids = || kept.iter().map(|&(_, Reverse(id))| id as usize);
        Frontier::pack(
            ids()
                .flat_map(|id| &runs[id * n..(id + 1) * n])
                .copied()
                .collect(),
            ids().map(|id| depth[id]).collect(),
            ids().map(|id| agm[id]).collect(),
        )
    }

    /// One attempt: a frontier draw and a box descent. `true` leaves a
    /// uniform row combination in `draw`.
    fn descend(&self, rng: &mut SujRng, draw: &mut RowDraw, s: &mut BoxScratch) -> bool {
        let n = self.spec.n_relations();
        let f = &self.frontier;
        if f.agm.is_empty() {
            return false;
        }
        let b = f.alias.draw(0, rng) as usize;
        s.load(&self.sorted, &f.runs[b * n..(b + 1) * n]);
        let mut agm_cur = f.agm[b];
        let mut d = f.depth[b] as usize;
        while d < self.attr_rels.len() {
            match self.step(d, s) {
                Step::Empty => return false,
                Step::Pinned => d += 1,
                Step::Split { left, right } => {
                    // Branch ~ AGM mass; the remainder rejects.
                    let r = rng.next_f64() * agm_cur;
                    let go_left = r < left;
                    if !go_left && r >= left + right {
                        return false;
                    }
                    self.narrow(d, go_left, s);
                    agm_cur = if go_left { left } else { right };
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

    /// `Σ_F · Π_i max_block_i` — an upper bound on the bag-join size,
    /// and the inverse of the per-attempt acceptance probability of
    /// any fixed result row combination.
    fn size_info(&self) -> SizeInfo {
        SizeInfo {
            bound: self.size_bound,
            exact: None,
        }
    }

    /// The sorted permutations, the frontier and the attribute maps
    /// (the columns belong to the relations).
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let f = &self.frontier;
        let sorted: usize = self.sorted.iter().map(SortedIndex::memory_bytes).sum();
        let frontier = size_of_val(f.runs.as_slice())
            + size_of_val(f.depth.as_slice())
            + size_of_val(f.agm.as_slice())
            + f.alias.memory_bytes();
        let attr_rels: usize = self
            .attr_rels
            .iter()
            .map(|r| size_of_val(r.as_slice()))
            .sum();
        let attr_key: usize = self
            .attr_key
            .iter()
            .map(|k| size_of_val(k.as_slice()))
            .sum();
        sorted + frontier + attr_rels + attr_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::spec::JoinSpec;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};
    use suj_stats::chi_square_test;
    use suj_storage::{Schema, Tuple, Value};

    /// Slack allowed where the module docs say `≤` between sums of
    /// products of square roots: a split with no Hölder slack (every
    /// first-attribute split of a symmetric graph) re-rounds.
    const ROUNDING: f64 = 1.0 + 1e-12;

    fn rel(name: &str, attrs: &[&str], rows: &[&[i64]]) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|&v| Value::int(v)).collect()))
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn natural(name: &str, relations: Vec<Arc<Relation>>) -> Arc<JoinSpec> {
        Arc::new(JoinSpec::natural(name, relations).unwrap())
    }

    fn triangle() -> Arc<JoinSpec> {
        natural(
            "tri",
            vec![
                rel("x", &["a", "b"], &[&[1, 2], &[1, 9], &[5, 2], &[5, 6]]),
                rel("y", &["b", "c"], &[&[2, 3], &[2, 4], &[9, 4], &[6, 3]]),
                rel("z", &["c", "a"], &[&[3, 1], &[4, 5], &[4, 1], &[3, 5]]),
            ],
        )
    }

    fn four_cycle() -> Arc<JoinSpec> {
        natural(
            "c4",
            vec![
                rel("p", &["a", "b"], &[&[1, 2], &[1, 3], &[4, 2], &[4, 3]]),
                rel("q", &["b", "c"], &[&[2, 5], &[3, 5], &[2, 6], &[3, 7]]),
                rel("r", &["c", "d"], &[&[5, 8], &[6, 8], &[7, 9], &[5, 9]]),
                rel("s", &["d", "a"], &[&[8, 1], &[9, 4], &[8, 4], &[9, 1]]),
            ],
        )
    }

    /// Acyclic, so the cover is the greedy one (weights 0/1).
    fn chain() -> Arc<JoinSpec> {
        natural(
            "chain",
            vec![
                rel("l", &["a", "b"], &[&[1, 1], &[1, 2], &[2, 2], &[3, 2]]),
                rel("r", &["b", "c"], &[&[1, 7], &[2, 7], &[2, 8], &[2, 9]]),
            ],
        )
    }

    /// Duplicate rows in every input: 15 row combinations over 2
    /// distinct tuples.
    fn bag_triangle() -> Arc<JoinSpec> {
        natural(
            "tri-bag",
            vec![
                rel("x", &["a", "b"], &[&[1, 2], &[1, 2], &[1, 9]]),
                rel("y", &["b", "c"], &[&[2, 3], &[9, 3], &[2, 3]]),
                rel("z", &["c", "a"], &[&[3, 1], &[3, 1], &[3, 1]]),
            ],
        )
    }

    fn edge_rel(name: &str, attrs: [&str; 2], edges: &[[i64; 2]]) -> Arc<Relation> {
        let rows: Vec<&[i64]> = edges.iter().map(|e| e.as_slice()).collect();
        rel(name, &attrs, &rows)
    }

    /// The triangle query over three directed edge lists.
    fn triangle_of(name: &str, x: &[[i64; 2]], y: &[[i64; 2]], z: &[[i64; 2]]) -> Arc<JoinSpec> {
        natural(
            name,
            vec![
                edge_rel("x", ["a", "b"], x),
                edge_rel("y", ["b", "c"], y),
                edge_rel("z", ["c", "a"], z),
            ],
        )
    }

    /// The triangle query over one directed edge list.
    fn triangle_over(name: &str, edges: &[[i64; 2]]) -> Arc<JoinSpec> {
        triangle_of(name, edges, edges, edges)
    }

    /// Both directions of every edge of G(`vertices`, `p`), plus both
    /// directions of an edge from vertex 0 to every `hub_stride`-th
    /// vertex (0 = no hub).
    fn graph_edges(vertices: i64, p: f64, hub_stride: i64, seed: u64) -> Vec<[i64; 2]> {
        let mut rng = SujRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..vertices {
            for v in (u + 1)..vertices {
                let hub = u == 0 && hub_stride > 0 && v % hub_stride == 0;
                if rng.bernoulli(p) || hub {
                    edges.push([u, v]);
                    edges.push([v, u]);
                }
            }
        }
        edges
    }

    /// The budgets every frontier test runs at: the degenerate one-box
    /// frontier, a handful of splits, what `new` uses, and refinement
    /// to the end.
    fn budgets(spec: &JoinSpec) -> [usize; 4] {
        let rows: usize = spec.relations().iter().map(|r| r.len()).sum();
        [0, 3, rows / ROWS_PER_SPLIT, usize::MAX]
    }

    fn at_every_budget(spec: &Arc<JoinSpec>) -> Vec<CyclicJoinSampler> {
        budgets(spec)
            .into_iter()
            .map(|b| CyclicJoinSampler::with_budget(spec.clone(), b).unwrap())
            .collect()
    }

    /// The duplicate block of relation `i` that result tuple `t`
    /// projects onto, as sorted positions: the rows whose sort-key
    /// values are `t`'s, found by scanning the permutation.
    fn block_of(sampler: &CyclicJoinSampler, i: usize, t: &Tuple) -> (u32, u32) {
        let idx = &sampler.sorted[i];
        let rel = sampler.spec.relation(i);
        let out = sampler.spec.output_schema();
        let holds_t = |pos: &usize| {
            idx.attrs().iter().all(|a| {
                let cell = rel.column(rel.schema().position(a).unwrap());
                cell.value(idx.row_at(*pos) as usize) == t.values()[out.position(a).unwrap()]
            })
        };
        let lo = (0..idx.len()).find(holds_t);
        let lo = lo.unwrap_or_else(|| panic!("result tuple {t:?} has no row in relation {i}"));
        let hi = lo + (lo..idx.len()).take_while(holds_t).count();
        (lo as u32, hi as u32)
    }

    fn box_runs(sampler: &CyclicJoinSampler, b: usize) -> &[(u32, u32)] {
        let n = sampler.spec.n_relations();
        &sampler.frontier.runs[b * n..(b + 1) * n]
    }

    fn nests(inner: &[(u32, u32)], outer: &[(u32, u32)]) -> bool {
        inner
            .iter()
            .zip(outer)
            .all(|(i, o)| o.0 <= i.0 && i.1 <= o.1)
    }

    /// The frontier invariants of the module docs, at every budget.
    fn check_frontier(spec: &Arc<JoinSpec>) {
        let distinct: HashSet<Tuple> = execute(spec).tuples().iter().cloned().collect();
        let out = distinct.len() as f64;
        let samplers = at_every_budget(spec);
        let mut previous_total = f64::INFINITY;
        for (sampler, budget) in samplers.iter().zip(budgets(spec)) {
            let f = &sampler.frontier;
            let boxes = f.agm.len();
            let ctx = format!("{} at budget {budget}", spec.name());

            // An antichain that covers the join.
            for t in &distinct {
                let blocks: Vec<(u32, u32)> = (0..spec.n_relations())
                    .map(|i| block_of(sampler, i, t))
                    .collect();
                let holders = (0..boxes)
                    .filter(|&b| nests(&blocks, box_runs(sampler, b)))
                    .count();
                assert_eq!(holders, 1, "{ctx}: {t:?} lies in {holders} boxes");
            }
            for a in 0..boxes {
                for b in 0..boxes {
                    assert!(
                        a == b || !nests(box_runs(sampler, a), box_runs(sampler, b)),
                        "{ctx}: box {a} nests in box {b}"
                    );
                }
            }

            // OUT ≤ Σ_F ≤ AGM(root), and more splits never raise Σ_F.
            assert!(f.agm.iter().all(|&m| m > 0.0), "{ctx}: zero-bound box kept");
            assert!(
                out <= f.total * ROUNDING,
                "{ctx}: Σ_F {} < OUT {out}",
                f.total
            );
            assert!(f.total <= sampler.agm_root * ROUNDING, "{ctx}");
            assert!(f.total <= previous_total * ROUNDING, "{ctx}: Σ_F rose");
            previous_total = f.total;

            // The same relations give the same frontier, bit for bit.
            let again = CyclicJoinSampler::with_budget(spec.clone(), budget).unwrap();
            let bits = |f: &Frontier| f.agm.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(f), bits(&again.frontier), "{ctx}");
            assert_eq!(f.runs, again.frontier.runs, "{ctx}");
            assert_eq!(f.depth, again.frontier.depth, "{ctx}");
            assert_eq!(f.alias, again.frontier.alias, "{ctx}");
            assert_eq!(
                sampler.size_bound.to_bits(),
                again.size_bound.to_bits(),
                "{ctx}"
            );
        }

        let one_box = &samplers[0].frontier;
        assert_eq!(one_box.agm.len(), usize::from(samplers[0].agm_root > 0.0));
        assert_eq!(one_box.total, samplers[0].agm_root);

        // Refined to the end, the frontier *is* the distinct join: one
        // unit box per tuple, nothing left to reject but duplicates.
        let exact = &samplers[3];
        assert_eq!(exact.frontier.agm.len(), distinct.len(), "{}", spec.name());
        assert!(exact.frontier.agm.iter().all(|&m| m == 1.0));
        let n_attrs = exact.attr_rels.len() as u32;
        assert!(exact.frontier.depth.iter().all(|&d| d == n_attrs));
        if exact.max_block.iter().all(|&m| m == 1) {
            let mut rng = SujRng::seed_from_u64(9);
            let mut draw = RowDraw::new();
            for _ in 0..4 * distinct.len() {
                assert!(exact.sample_rows(&mut rng, &mut draw), "{}", spec.name());
            }
        }
    }

    /// Draws `2000·k` accepted samples and chi²-tests them against the
    /// uniform distribution over the join's `k` results (which must be
    /// duplicate-free for tuple-level counting to be valid).
    fn assert_uniform(sampler: &CyclicJoinSampler, seed: u64) {
        let result = execute(sampler.spec());
        let k = result.tuples().len();
        assert!(k > 1, "uniformity test needs a non-trivial join");
        let mut pos = HashMap::new();
        for (i, t) in result.tuples().iter().enumerate() {
            assert!(pos.insert(t.clone(), i).is_none(), "duplicate result");
        }
        let mut counts = vec![0u64; k];
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        let mut accepted = 0usize;
        let mut attempts = 0u64;
        while accepted < 2000 * k {
            attempts += 1;
            assert!(attempts < 20_000_000, "acceptance rate collapsed");
            if sampler.sample_rows(&mut rng, &mut draw) {
                let t = sampler.materialize(&draw);
                counts[*pos.get(&t).expect("sampled tuple not in join result")] += 1;
                accepted += 1;
            }
        }
        let test = chi_square_test(&counts).expect("enough cells for chi²");
        assert!(
            test.p_value > 0.001,
            "chi² rejected uniformity with {} boxes: {test:?} counts={counts:?}",
            sampler.frontier.agm.len()
        );
    }

    #[test]
    fn triangle_samples_are_uniform() {
        for sampler in at_every_budget(&triangle()) {
            assert_eq!(sampler.cover().kind(), super::super::CoverKind::Cycle);
            assert_uniform(&sampler, 0xA11CE);
        }
    }

    #[test]
    fn four_cycle_samples_are_uniform() {
        for sampler in at_every_budget(&four_cycle()) {
            assert_eq!(sampler.cover().kind(), super::super::CoverKind::Cycle);
            assert_uniform(&sampler, 77);
        }
    }

    #[test]
    fn acyclic_chain_also_samples_uniformly() {
        // The box descent is shape-agnostic; on acyclic specs it is just
        // a slower exact sampler. Sanity-check uniformity anyway.
        for sampler in at_every_budget(&chain()) {
            assert_uniform(&sampler, 5);
        }
    }

    #[test]
    fn bag_duplicates_are_weighted_by_multiplicity() {
        // Duplicate rows in the inputs: uniformity must hold over row
        // *combinations*, observed via the row-id hot path.
        let spec = bag_triangle();
        // Enumerate valid row combinations by brute force.
        let mut combos = HashMap::new();
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
        for sampler in at_every_budget(&spec) {
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
    }

    #[test]
    fn acceptance_implies_membership_and_hint_bounds_out() {
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        let result = execute(sampler.spec());
        let members: HashSet<_> = result.tuples().iter().cloned().collect();
        assert!(sampler.size_info().bound >= result.tuples().len() as f64);
        let mut rng = SujRng::seed_from_u64(123);
        let mut draw = RowDraw::new();
        let mut seen = 0;
        for _ in 0..50_000 {
            if sampler.sample_rows(&mut rng, &mut draw) {
                let t = sampler.materialize(&draw);
                assert!(members.contains(&t));
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    /// Each result tuple is hit with probability `1 / size_bound` per
    /// attempt, so acceptance is `OUT / size_bound` — here at scale, on
    /// seeded graphs rather than the hand-built fixtures: G(64, 0.15),
    /// and a sparser one with a hub adjacent to every other vertex,
    /// whose runs are as uneven as the splitter meets. A drift beyond
    /// binomial noise (4σ) means the frontier's masses or the descent's
    /// branch probabilities stopped telescoping.
    #[test]
    fn acceptance_matches_out_over_size_bound_on_a_random_graph() {
        let graphs = [
            ("tri-random", graph_edges(64, 0.15, 0, 2023)),
            ("tri-hub", graph_edges(64, 0.06, 2, 2024)),
        ];
        for (name, edges) in &graphs {
            let spec = triangle_over(name, edges);
            let out = execute(&spec).tuples().len();
            assert!(out > 0, "{name} has no triangle");
            for sampler in at_every_budget(&spec) {
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
                    "{name}, {} boxes: acceptance {measured:.5} strayed from \
                     OUT/size_bound {expected:.5} (σ = {sigma:.5})",
                    sampler.frontier.agm.len()
                );
            }
        }
    }

    #[test]
    fn empty_relation_never_accepts() {
        let spec = natural(
            "tri-empty",
            vec![
                rel("x", &["a", "b"], &[&[1, 2]]),
                rel("y", &["b", "c"], &[]),
                rel("z", &["c", "a"], &[&[3, 1]]),
            ],
        );
        for sampler in at_every_budget(&spec) {
            assert_eq!(sampler.size_info().bound, 0.0);
            let mut rng = SujRng::seed_from_u64(1);
            let mut draw = RowDraw::new();
            for _ in 0..100 {
                assert!(!sampler.sample_rows(&mut rng, &mut draw));
            }
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
        // Triangle of 4-row duplicate-free relations: 4^{3/2} = 8, and
        // the frontier's bound lies between that and the 6 results
        // (max blocks all 1).
        let sampler = CyclicJoinSampler::new(triangle()).unwrap();
        assert_eq!(sampler.agm_root(), 8.0);
        let bound = sampler.size_info().bound;
        assert!((6.0..=8.0 * ROUNDING).contains(&bound), "bound {bound}");
    }

    #[test]
    fn frontier_is_an_antichain_that_covers_the_join() {
        for spec in [triangle(), four_cycle(), chain(), bag_triangle()] {
            check_frontier(&spec);
        }
        check_frontier(&triangle_over("tri-random", &graph_edges(24, 0.3, 0, 7)));
        check_frontier(&triangle_over("tri-hub", &graph_edges(24, 0.1, 2, 8)));
    }

    /// `spec` with every (integer) cell relabelled by `f`, which must be
    /// strictly increasing.
    fn relabel(spec: &JoinSpec, f: impl Fn(i64) -> Value) -> Arc<JoinSpec> {
        let relabelled = |r: &Arc<Relation>| {
            let cells = |t: &Tuple| t.values().iter().map(|v| f(v.as_int().unwrap())).collect();
            let tuples = r.tuples().iter().map(cells).collect();
            Arc::new(Relation::new(r.name(), r.schema().clone(), tuples).unwrap())
        };
        natural(
            spec.name(),
            spec.relations().iter().map(relabelled).collect(),
        )
    }

    /// Non-integer keys are ranked per attribute over every relation
    /// that holds it, so the ranks order *across* relations as the
    /// values do: the same graph relabelled to zero-padded strings or
    /// to floats keeps the frontier invariants and draws exactly the
    /// row ids the integer graph draws, at every budget. The closing
    /// edges lie among the second half of the vertices, so `a` and `c`
    /// range over other values in `z` than in `x` and `y`, and ranks
    /// taken per relation would disagree.
    #[test]
    fn relabelled_keys_draw_the_integer_graphs_rows() {
        let edges = graph_edges(24, 0.3, 0, 7);
        let closing: Vec<[i64; 2]> = edges
            .iter()
            .copied()
            .filter(|e| e[0].min(e[1]) >= 12)
            .collect();
        let ints = triangle_of("tri-closing-half", &edges, &edges, &closing);
        let strs = relabel(&ints, |v| Value::str(format!("v{v:03}")));
        let floats = relabel(&ints, |v| Value::float((v - 12) as f64 / 4.0));
        for budget in budgets(&ints) {
            let draws = |spec: &Arc<JoinSpec>| {
                let sampler = CyclicJoinSampler::with_budget(spec.clone(), budget).unwrap();
                let (mut rng, mut draw) = (SujRng::seed_from_u64(31), RowDraw::new());
                let mut rows = Vec::new();
                for _ in 0..4000 {
                    if sampler.sample_rows(&mut rng, &mut draw) {
                        rows.extend_from_slice(draw.rows());
                    }
                }
                (sampler.size_info().bound.to_bits(), rows)
            };
            let expected = draws(&ints);
            assert!(!expected.1.is_empty(), "budget {budget}");
            assert!(draws(&strs) == expected, "strings at budget {budget}");
            assert!(draws(&floats) == expected, "floats at budget {budget}");
        }
        check_frontier(&strs);
        check_frontier(&floats);
    }

    /// A bipartite graph has no triangle, which the builder can prove:
    /// refined to the end nothing is left, the bound is 0 and an
    /// attempt returns at once.
    #[test]
    fn triangle_free_input_refines_to_an_empty_frontier() {
        let mut edges = Vec::new();
        for u in 0..6i64 {
            for v in 6..12i64 {
                if (u + v) % 3 != 0 {
                    edges.push([u, v]);
                    edges.push([v, u]);
                }
            }
        }
        let spec = triangle_over("bipartite", &edges);
        assert!(execute(&spec).tuples().is_empty());
        check_frontier(&spec);
        let sampler = CyclicJoinSampler::with_budget(spec, usize::MAX).unwrap();
        assert!(sampler.agm_root() > 0.0);
        assert!(sampler.frontier.agm.is_empty());
        assert_eq!(sampler.size_info().bound, 0.0);
        let mut rng = SujRng::seed_from_u64(3);
        let mut draw = RowDraw::new();
        assert!(!sampler.sample_rows(&mut rng, &mut draw));
        assert!(!sampler.sample_rows_within(1000, &mut rng, &mut draw).0);
    }

    /// Walks the whole box tree under `step` and checks the inequality
    /// the reject mass of step 3 rests on at every split — the frontier
    /// builder's splits are a subset of these.
    fn assert_splits_subadditive(sampler: &CyclicJoinSampler) -> usize {
        fn walk(
            sampler: &CyclicJoinSampler,
            runs: &[(u32, u32)],
            mut d: usize,
            agm: f64,
            splits: &mut usize,
        ) {
            let mut s = BoxScratch::default();
            s.load(&sampler.sorted, runs);
            while d < sampler.attr_rels.len() {
                match sampler.step(d, &mut s) {
                    Step::Empty => return,
                    Step::Pinned => d += 1,
                    Step::Split { left, right } => {
                        *splits += 1;
                        assert!(
                            left + right <= agm * ROUNDING,
                            "{}: {left} + {right} > {agm} at attribute {d}",
                            sampler.spec.name()
                        );
                        for (go_left, bound) in [(true, left), (false, right)] {
                            let mut child = BoxScratch::default();
                            child.load(&sampler.sorted, &s.runs);
                            child.mids.clone_from(&s.mids);
                            sampler.narrow(d, go_left, &mut child);
                            walk(sampler, &child.runs, d, bound, splits);
                        }
                        return;
                    }
                }
            }
            assert_eq!(agm, 1.0, "a unit box has bound 1");
        }
        let root: Vec<(u32, u32)> = sampler
            .sorted
            .iter()
            .map(|idx| (0, idx.len() as u32))
            .collect();
        let mut splits = 0;
        walk(sampler, &root, 0, sampler.agm_root, &mut splits);
        splits
    }

    #[test]
    fn every_split_is_subadditive_under_every_cover() {
        use super::super::CoverKind;
        let edges = graph_edges(10, 0.6, 0, 11);
        let pair = |name: &str, l: &str, r: &str| edge_rel(name, [l, r], &edges);
        let k4 = natural(
            "k4",
            vec![
                pair("ab", "a", "b"),
                pair("ac", "a", "c"),
                pair("ad", "a", "d"),
                pair("bc", "b", "c"),
                pair("bd", "b", "d"),
                pair("cd", "c", "d"),
            ],
        );
        let payload = natural(
            "tri-payload",
            vec![
                rel(
                    "x",
                    &["a", "b", "p"],
                    &[&[1, 2, 0], &[1, 9, 1], &[5, 2, 2], &[5, 6, 3]],
                ),
                rel("y", &["b", "c"], &[&[2, 3], &[2, 4], &[9, 4], &[6, 3]]),
                rel("z", &["c", "a"], &[&[3, 1], &[4, 5], &[4, 1], &[3, 5]]),
            ],
        );
        let cases = [
            (triangle_over("tri-random", &edges), CoverKind::Cycle),
            (four_cycle(), CoverKind::Cycle),
            (k4, CoverKind::Clique),
            (chain(), CoverKind::Greedy),
            (payload, CoverKind::Greedy),
        ];
        for (spec, kind) in cases {
            let sampler = CyclicJoinSampler::with_budget(spec, 0).unwrap();
            assert_eq!(sampler.cover().kind(), kind);
            assert!(assert_splits_subadditive(&sampler) > 0);
        }
    }

    #[test]
    fn memory_bytes_counts_the_indexes_and_the_frontier() {
        let spec = triangle_over("tri-random", &graph_edges(24, 0.3, 0, 7));
        let indexes: usize = (0..3)
            .map(|i| {
                let rel = spec.relation(i);
                let idx = SortedIndex::build_all(&[(rel, rel.schema().attrs())]).remove(0);
                let bytes = idx.memory_bytes();
                // A row id, two 8-byte key codes and a block prefix per
                // row, and the prefix sums' leading zero.
                assert_eq!(bytes, rel.len() * (4 + 2 * 8 + 4) + 4);
                bytes
            })
            .sum();
        let one_box = CyclicJoinSampler::with_budget(spec.clone(), 0).unwrap();
        let default = CyclicJoinSampler::new(spec).unwrap();
        assert!(one_box.memory_bytes() > indexes);
        // Three runs, a depth, a bound and an alias slot per box.
        let per_box = 3 * 8 + 4 + 8 + 12;
        let more_boxes = default.frontier.agm.len() - 1;
        assert!(more_boxes > 0);
        assert_eq!(
            default.memory_bytes(),
            one_box.memory_bytes() + more_boxes * per_box
        );
    }

    /// Edge lists the builder has not met: duplicates, self-loops and
    /// a possibly empty or triangle-free graph, optionally with a hub.
    fn edge_lists() -> impl Strategy<Value = Vec<[i64; 2]>> {
        (
            prop::collection::vec((0i64..7, 0i64..7), 0..40),
            prop::bool::ANY,
        )
            .prop_map(|(pairs, hub)| {
                let mut edges: Vec<[i64; 2]> = pairs.iter().map(|&(u, v)| [u, v]).collect();
                if hub {
                    edges.extend((1..7).flat_map(|v| [[0, v], [v, 0]]));
                }
                edges
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generated_graphs_keep_the_frontier_invariants(
            x in edge_lists(),
            y in edge_lists(),
            z in edge_lists(),
        ) {
            let spec = triangle_of("tri-generated", &x, &y, &z);
            check_frontier(&spec);
            // Every accepted row combination is a join result.
            let members: HashSet<Tuple> = execute(&spec).tuples().iter().cloned().collect();
            for sampler in at_every_budget(&spec) {
                let mut rng = SujRng::seed_from_u64(17);
                let mut draw = RowDraw::new();
                for _ in 0..64 {
                    if sampler.sample_rows(&mut rng, &mut draw) {
                        let t = sampler.materialize(&draw);
                        prop_assert!(members.contains(&t));
                    }
                }
            }
        }
    }
}
