//! Wander join: random walks over the join data graph (§6.1).
//!
//! A walk picks a root tuple uniformly, then at each step a uniform
//! joinable tuple in the next relation. The walk's success probability
//! `p(t) = 1/|R_1| · 1/d_2(t_1) · … · 1/d_m(t_{m−1})` is computed on the
//! fly (Example 6), giving:
//!
//! * the inverse probabilities an online Horvitz–Thompson join-size
//!   estimator `|J|_S = (1/m) Σ 1/p(t_k)` averages (the union layer's
//!   walk warm-up feeds them to one), and
//! * [`WanderSampler`], a *uniform* sampler that accepts a walk result
//!   with probability `(1/p(t))/B` for an upper bound `B ≥ max 1/p(t)`
//!   (the "plug in any join size upper-bound estimation" instantiation
//!   of §3.2).
//!
//! Walks also feed the union framework's warm-up: each successful walk's
//! `(tuple, p)` pair goes into the sample-reuse pool of Algorithm 2.

use crate::error::JoinError;
use crate::spec::JoinSpec;
use crate::weights::{JoinSampler, Prepared, RowDraw, SizeInfo};
use std::sync::Arc;
use suj_stats::SujRng;
use suj_storage::NO_KEY;

/// Random-walk engine over one join.
#[derive(Debug)]
pub struct WanderJoin {
    prepared: Prepared,
    /// `|root| · Π M` over the walk tree — dominates every `1/p(t)`.
    bound: f64,
}

impl WanderJoin {
    /// Builds the walk engine for any join shape.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let prepared = Prepared::new(spec)?;
        let root = prepared.tree.root();
        let root_size = prepared.spec.relation(root).len() as f64;
        let degree_product: f64 = prepared
            .indexes
            .iter()
            .flatten()
            .map(|idx| idx.max_degree() as f64)
            .product();
        let bound = root_size * degree_product;
        Ok(Self { prepared, bound })
    }

    /// The join spec being walked.
    pub fn spec(&self) -> &JoinSpec {
        &self.prepared.spec
    }

    /// Upper bound `B ≥ 1/p(t)` for every possible walk (the extended
    /// Olken bound along the walk tree).
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Performs one random walk over row ids — the allocation-free hot
    /// path. On success, returns the walk probability with the chosen
    /// rows left in `draw`; gather them ([`JoinSpec::gather`]) only if
    /// the walk is kept.
    pub fn walk_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> Option<f64> {
        let prepared = &self.prepared;
        let root = prepared.tree.root();
        let root_len = prepared.spec.relation(root).len();
        if root_len == 0 {
            return None;
        }
        draw.reset(prepared.spec.n_relations());
        let mut probability = 1.0 / root_len as f64;
        draw.rows[root] = rng.index(root_len) as u32;

        for &v in &prepared.tree.order()[1..] {
            let p = prepared.tree.parent(v).expect("non-root has parent");
            let kid = prepared.edge_keys[v][draw.rows[p] as usize];
            if kid == NO_KEY {
                return None; // dead end
            }
            let index = prepared.indexes[v].as_ref().expect("child index");
            let degree = index.degree_of(kid);
            probability /= degree as f64;
            draw.rows[v] = index.postings(kid)[rng.index(degree)];
        }
        if !prepared.consistent(&draw.rows) {
            return None; // cycle-consistency violation
        }
        Some(probability)
    }

    /// Heap bytes of the walk structures: one hash index and one
    /// encoded edge-key table per non-root relation.
    pub fn memory_bytes(&self) -> usize {
        self.prepared.memory_bytes()
    }
}

/// Uniform sampler built on wander join: accept a successful walk's
/// tuple with probability `(1/p(t)) / B`.
#[derive(Debug)]
pub struct WanderSampler {
    wander: WanderJoin,
}

impl WanderSampler {
    /// Builds the sampler for any join shape.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        Ok(Self {
            wander: WanderJoin::new(spec)?,
        })
    }
}

impl JoinSampler for WanderSampler {
    fn spec(&self) -> &JoinSpec {
        self.wander.spec()
    }

    fn sample_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool {
        if self.wander.bound <= 0.0 {
            return false;
        }
        match self.wander.walk_rows(rng, draw) {
            Some(probability) => {
                let accept = (1.0 / probability) / self.wander.bound;
                rng.bernoulli(accept)
            }
            None => false,
        }
    }

    fn size_info(&self) -> SizeInfo {
        SizeInfo {
            bound: self.wander.bound,
            exact: None,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.wander.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::spec::JoinSpec;
    use suj_stats::HorvitzThompson;
    use suj_storage::{FxHashMap, Relation, Schema, Tuple, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn skewed_chain() -> Arc<JoinSpec> {
        let r = rel(
            "r",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 30]],
        );
        let s = rel(
            "s",
            &["b", "c"],
            vec![
                vec![10, 100],
                vec![10, 101],
                vec![10, 102],
                vec![20, 200],
                vec![40, 400],
            ],
        );
        let t = rel(
            "t",
            &["c", "d"],
            vec![vec![100, 1], vec![100, 2], vec![101, 3], vec![200, 4]],
        );
        Arc::new(JoinSpec::chain("skew", vec![r, s, t]).unwrap())
    }

    /// Feeds `walks` walks into a Horvitz–Thompson size estimator.
    fn estimate_size(wander: &WanderJoin, rng: &mut SujRng, walks: u64) -> HorvitzThompson {
        let mut ht = HorvitzThompson::new();
        let mut draw = RowDraw::new();
        for _ in 0..walks {
            match wander.walk_rows(rng, &mut draw) {
                Some(probability) => ht.push_success(probability),
                None => ht.push_failure(),
            }
        }
        ht
    }

    #[test]
    fn walk_probabilities_match_fig3d_arithmetic() {
        // Paper Example 6: p(a1 ⋈ b2 ⋈ c1) = 1/5 · 1/2 · 1/3 with
        // |R1| = 5, d2 = 2 joinable, d3 = 3 joinable.
        let r1 = rel(
            "r1",
            &["a", "b"],
            vec![vec![1, 1], vec![2, 2], vec![3, 3], vec![4, 4], vec![5, 5]],
        );
        // a1 (b=1) joins two rows of r2.
        let r2 = rel(
            "r2",
            &["b", "c"],
            vec![
                vec![1, 7],
                vec![1, 8],
                vec![2, 7],
                vec![3, 9],
                vec![4, 9],
                vec![5, 9],
            ],
        );
        // c=7 joins three rows of r3.
        let r3 = rel(
            "r3",
            &["c", "d"],
            vec![
                vec![7, 100],
                vec![7, 101],
                vec![7, 102],
                vec![8, 103],
                vec![9, 104],
            ],
        );
        let spec = Arc::new(JoinSpec::chain("fig3d", vec![r1, r2, r3]).unwrap());
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(1);
        let mut draw = RowDraw::new();
        let mut seen_target = false;
        for _ in 0..500 {
            if let Some(probability) = wander.walk_rows(&mut rng, &mut draw) {
                let spec = wander.spec();
                let tuple = spec.gather(draw.rows(), 0..spec.output_schema().arity());
                if tuple.get(0) == &Value::int(1) && tuple.get(2).as_int() == Some(7) {
                    assert!((probability - (1.0 / 5.0) * (1.0 / 2.0) * (1.0 / 3.0)).abs() < 1e-12);
                    seen_target = true;
                }
            }
        }
        assert!(seen_target, "target walk never observed");
    }

    #[test]
    fn ht_estimate_converges_to_true_size() {
        let spec = skewed_chain();
        let truth = execute(&spec).len() as f64;
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(21);
        let ht = estimate_size(&wander, &mut rng, 60_000);
        let rel_err = (ht.estimate() - truth).abs() / truth;
        assert!(rel_err < 0.05, "estimate {} truth {truth}", ht.estimate());
    }

    #[test]
    fn estimate_until_stops_on_convergence() {
        let spec = skewed_chain();
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(22);
        // The warm-up's termination test: 90% confidence, 5% relative
        // half-width, checked every 32 walks.
        let mut ht = HorvitzThompson::new();
        let mut draw = RowDraw::new();
        let mut walks = 0u64;
        while walks < 100_000 {
            match wander.walk_rows(&mut rng, &mut draw) {
                Some(probability) => ht.push_success(probability),
                None => ht.push_failure(),
            }
            walks += 1;
            if walks.is_multiple_of(32) && ht.converged(0.9, 0.05) {
                break;
            }
        }
        assert!(walks < 100_000, "should converge before the cap");
        assert!(ht.converged(0.9, 0.05));
    }

    #[test]
    fn bound_dominates_inverse_probabilities() {
        let spec = skewed_chain();
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(5);
        let mut draw = RowDraw::new();
        for _ in 0..500 {
            if let Some(probability) = wander.walk_rows(&mut rng, &mut draw) {
                assert!(1.0 / probability <= wander.bound() + 1e-9);
            }
        }
    }

    #[test]
    fn wander_sampler_is_uniform() {
        let spec = skewed_chain();
        let result = execute(&spec);
        let universe = result.distinct_set();
        let sampler = WanderSampler::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(31);
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        let mut accepted = 0usize;
        let target = 2_000 * universe.len();
        let mut draw = RowDraw::new();
        while accepted < target {
            if sampler.sample_rows(&mut rng, &mut draw) {
                let t = sampler.materialize(&draw);
                assert!(universe.contains(&t));
                *counts.entry(t).or_insert(0) += 1;
                accepted += 1;
            }
        }
        let observed: Vec<u64> = result
            .tuples()
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(outcome.p_value > 0.001, "p = {}", outcome.p_value);
    }

    #[test]
    fn cyclic_walks_estimate_cyclic_size() {
        let spec = Arc::new(
            JoinSpec::natural(
                "tri",
                vec![
                    rel(
                        "x",
                        &["a", "b"],
                        vec![vec![1, 2], vec![1, 9], vec![5, 2], vec![5, 6]],
                    ),
                    rel(
                        "y",
                        &["b", "c"],
                        vec![vec![2, 3], vec![2, 4], vec![9, 4], vec![6, 3]],
                    ),
                    rel(
                        "z",
                        &["c", "a"],
                        vec![vec![3, 1], vec![4, 5], vec![4, 1], vec![3, 5]],
                    ),
                ],
            )
            .unwrap(),
        );
        let truth = execute(&spec).len() as f64;
        assert!(truth > 0.0);
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(77);
        let ht = estimate_size(&wander, &mut rng, 60_000);
        let rel_err = (ht.estimate() - truth).abs() / truth;
        assert!(rel_err < 0.1, "estimate {} truth {truth}", ht.estimate());
    }

    #[test]
    fn empty_join_walks_fail() {
        let spec = Arc::new(
            JoinSpec::chain(
                "empty",
                vec![
                    rel("r", &["a", "b"], vec![vec![1, 10]]),
                    rel("s", &["b", "c"], vec![]),
                ],
            )
            .unwrap(),
        );
        let wander = WanderJoin::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(2);
        let mut draw = RowDraw::new();
        for _ in 0..20 {
            assert_eq!(wander.walk_rows(&mut rng, &mut draw), None);
        }
        let ht = estimate_size(&wander, &mut rng, 100);
        assert_eq!(ht.estimate(), 0.0);
    }
}
