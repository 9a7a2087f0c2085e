//! The splitting method: standard templates and two-attribute split
//! joins (§5.2, §8.1).
//!
//! To compare joins of different lengths and schemas, the paper rewrites
//! every join as an *equi-length chain of two-attribute relations* that
//! follows one shared attribute ordering — the **standard template**.
//! Consecutive split relations derived from the *same* base relation are
//! linked by a **fake join** (⋈′, overlap multiplier 1 in Theorem 4);
//! links that cross base relations are real joins (multiplier
//! `M_{A_i}(R_{i+1})`).
//!
//! Template selection (§8.1.1): for attributes `A, A′` the score
//! `score(A,A′) = Σ_j Dist_j(A,A′)` sums, over joins, the join-tree
//! distance between the relations containing them; the template is the
//! attribute ordering minimizing the total score of consecutive pairs
//! (min-cost Hamiltonian path — exact Held–Karp DP up to 14 attributes,
//! greedy + 2-opt beyond). Same-relation pairs score 0; §8.1.2's
//! *alternating score*, which would replace that 0 with a tunable
//! weight, is not implemented (no caller ever set one).
//!
//! When a template pair spans base relations, the split relation's
//! statistics are *pre-estimated* along the join path (Example 7's
//! information loss): per-value degrees scale by the product of the
//! intermediate maximum degrees, mirroring the `M_A(R'_ij)` propagation
//! rule of §8.1.2.

use crate::bounds::StatsCache;
use crate::error::JoinError;
use crate::spec::JoinSpec;
use std::sync::Arc;
use suj_storage::{FrequencyHistogram, Value};

/// An upper bound on per-value degrees of one attribute of a (possibly
/// derived) split relation.
#[derive(Debug, Clone)]
pub enum DegreeBound {
    /// Exact histogram of a base-relation attribute.
    Exact(Arc<FrequencyHistogram>),
    /// Derived: `degree(v) ≤ base.degree(v) · factor`, the path
    /// pre-estimation of §8.1.
    Scaled {
        /// Histogram of the attribute in the path's endpoint relation.
        base: Arc<FrequencyHistogram>,
        /// Product of intermediate maximum degrees along the path.
        factor: f64,
    },
}

impl DegreeBound {
    /// Upper bound on the degree of value `v`.
    pub fn degree(&self, v: &Value) -> f64 {
        match self {
            DegreeBound::Exact(h) => h.degree(v) as f64,
            DegreeBound::Scaled { base, factor } => base.degree(v) as f64 * factor,
        }
    }

    /// Upper bound on the maximum degree.
    pub fn max_degree(&self) -> f64 {
        match self {
            DegreeBound::Exact(h) => h.max_degree() as f64,
            DegreeBound::Scaled { base, factor } => base.max_degree() as f64 * factor,
        }
    }

    /// Upper bound on the average degree (the §5.1 refinement).
    pub fn avg_degree(&self) -> f64 {
        match self {
            DegreeBound::Exact(h) => h.avg_degree(),
            DegreeBound::Scaled { base, factor } => base.avg_degree() * factor,
        }
    }

    /// Number of distinct values in the underlying histogram's domain.
    pub fn distinct(&self) -> usize {
        match self {
            DegreeBound::Exact(h) | DegreeBound::Scaled { base: h, .. } => h.distinct(),
        }
    }

    /// Iterates the value domain of the underlying histogram.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        match self {
            DegreeBound::Exact(h) | DegreeBound::Scaled { base: h, .. } => {
                h.entries().map(|(v, _)| v)
            }
        }
    }
}

/// One two-attribute relation of a split join.
#[derive(Debug, Clone)]
pub struct SplitRelation {
    /// First attribute (position `i` of the template).
    pub x: Arc<str>,
    /// Second attribute (position `i + 1` of the template).
    pub y: Arc<str>,
    /// Upper bound on the split relation's cardinality.
    pub size_bound: f64,
    /// Degree bound for `x`.
    pub deg_x: DegreeBound,
    /// Degree bound for `y`.
    pub deg_y: DegreeBound,
    /// Base relation index when the pair lies within one relation
    /// (exact statistics); None for path-derived relations.
    pub source: Option<usize>,
}

/// A join rewritten along a template as a chain of two-attribute
/// relations.
#[derive(Debug, Clone)]
pub struct SplitJoin {
    /// Name of the original join.
    pub join_name: Arc<str>,
    /// The split relations, one per consecutive template pair.
    pub relations: Vec<SplitRelation>,
    /// `fake_links[i]` — whether the join between `relations[i]` and
    /// `relations[i+1]` is a fake join (same base relation, multiplier 1
    /// in Theorem 4).
    pub fake_links: Vec<bool>,
}

/// A standard template: a shared attribute ordering.
#[derive(Debug, Clone)]
pub struct Template {
    /// Attribute ordering (covers the joins' common output attributes).
    pub order: Vec<Arc<str>>,
    /// Total pairwise-score cost of the ordering.
    pub cost: f64,
}

/// Builds the pairwise-score matrix and selects the minimum-cost
/// attribute ordering. A same-relation pair (distance 0) scores 0.
pub fn build_template(specs: &[&JoinSpec]) -> Result<Template, JoinError> {
    if specs.is_empty() {
        return Err(JoinError::Invalid(
            "no joins given to build_template".into(),
        ));
    }
    let attrs: Vec<Arc<str>> = specs[0].output_schema().attrs().to_vec();
    for s in specs {
        if s.output_schema().arity() != attrs.len()
            || !attrs.iter().all(|a| s.output_schema().contains(a))
        {
            return Err(JoinError::Invalid(format!(
                "join `{}` does not share the common output attribute set",
                s.name()
            )));
        }
    }
    let m = attrs.len();
    if m == 1 {
        return Ok(Template {
            order: attrs,
            cost: 0.0,
        });
    }

    // Pairwise scores: Σ_j Dist_j(A, A').
    let trees: Vec<crate::tree::JoinTree> = specs
        .iter()
        .map(|s| crate::tree::JoinTree::spanning(s, 0))
        .collect::<Result<_, _>>()?;
    let mut score = vec![vec![0.0f64; m]; m];
    for a in 0..m {
        for b in (a + 1)..m {
            let mut total = 0.0;
            for (j, spec) in specs.iter().enumerate() {
                total += attr_distance(spec, &trees[j], &attrs[a], &attrs[b]) as f64;
            }
            score[a][b] = total;
            score[b][a] = total;
        }
    }

    let (order_idx, cost) = if m <= 14 {
        held_karp_path(&score)
    } else {
        greedy_two_opt_path(&score)
    };
    Ok(Template {
        order: order_idx.into_iter().map(|i| attrs[i].clone()).collect(),
        cost,
    })
}

/// Distance between the relations containing two attributes in one
/// join's (spanning) tree — 0 when some relation contains both.
fn attr_distance(
    spec: &JoinSpec,
    tree: &crate::tree::JoinTree,
    a: &Arc<str>,
    b: &Arc<str>,
) -> usize {
    let ra = spec.relations_with_attr(a);
    let rb = spec.relations_with_attr(b);
    let mut best = usize::MAX;
    for &i in &ra {
        for &j in &rb {
            best = best.min(tree.distance(i, j));
        }
    }
    best
}

/// Exact min-cost Hamiltonian path via Held–Karp over subsets.
#[allow(clippy::needless_range_loop)] // dp is indexed by bit patterns of v
fn held_karp_path(score: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let m = score.len();
    let full = 1usize << m;
    // dp[mask][last] = best cost of a path visiting `mask`, ending at `last`.
    let mut dp = vec![vec![f64::INFINITY; m]; full];
    let mut parent = vec![vec![usize::MAX; m]; full];
    for v in 0..m {
        dp[1 << v][v] = 0.0;
    }
    for mask in 1..full {
        for last in 0..m {
            if mask & (1 << last) == 0 || !dp[mask][last].is_finite() {
                continue;
            }
            let base = dp[mask][last];
            for next in 0..m {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let nm = mask | (1 << next);
                let cand = base + score[last][next];
                if cand < dp[nm][next] {
                    dp[nm][next] = cand;
                    parent[nm][next] = last;
                }
            }
        }
    }
    let final_mask = full - 1;
    let (mut last, mut best) = (0usize, f64::INFINITY);
    for v in 0..m {
        if dp[final_mask][v] < best {
            best = dp[final_mask][v];
            last = v;
        }
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(m);
    let mut mask = final_mask;
    let mut cur = last;
    loop {
        order.push(cur);
        let p = parent[mask][cur];
        mask &= !(1 << cur);
        if p == usize::MAX {
            break;
        }
        cur = p;
    }
    order.reverse();
    (order, best)
}

/// Greedy nearest-neighbor path improved by 2-opt (for >14 attributes).
fn greedy_two_opt_path(score: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let m = score.len();
    // Greedy from vertex 0.
    let mut order = vec![0usize];
    let mut used = vec![false; m];
    used[0] = true;
    while order.len() < m {
        let last = *order.last().unwrap();
        let next = (0..m)
            .filter(|&v| !used[v])
            .min_by(|&a, &b| score[last][a].total_cmp(&score[last][b]))
            .unwrap();
        used[next] = true;
        order.push(next);
    }
    let path_cost = |ord: &[usize]| -> f64 { ord.windows(2).map(|w| score[w[0]][w[1]]).sum() };
    // 2-opt until no improvement.
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..m - 1 {
            for k in (i + 1)..m {
                let mut cand = order.clone();
                cand[i..=k].reverse();
                if path_cost(&cand) + 1e-12 < path_cost(&order) {
                    order = cand;
                    improved = true;
                }
            }
        }
    }
    let cost = path_cost(&order);
    (order, cost)
}

/// Rewrites one join along a template.
pub fn split_join(spec: &JoinSpec, template: &Template) -> Result<SplitJoin, JoinError> {
    split_join_with(spec, template, &mut StatsCache::default())
}

/// [`split_join`] reading its histograms and hop degrees through a
/// probe's shared statistics cache.
pub fn split_join_with(
    spec: &JoinSpec,
    template: &Template,
    stats: &mut StatsCache,
) -> Result<SplitJoin, JoinError> {
    let order = &template.order;
    let tree = crate::tree::JoinTree::spanning(spec, 0)?;

    let mut relations: Vec<SplitRelation> = Vec::with_capacity(order.len().saturating_sub(1));
    for w in order.windows(2) {
        let (x, y) = (&w[0], &w[1]);
        let rx = spec.relations_with_attr(x);
        let ry = spec.relations_with_attr(y);
        if rx.is_empty() || ry.is_empty() {
            return Err(JoinError::Invalid(format!(
                "template attribute missing from join `{}`",
                spec.name()
            )));
        }
        // Best (closest) relation pair hosting x and y.
        let (mut best_a, mut best_b, mut best_d) = (rx[0], ry[0], usize::MAX);
        for &a in &rx {
            for &b in &ry {
                let d = tree.distance(a, b);
                if d < best_d {
                    best_d = d;
                    best_a = a;
                    best_b = b;
                }
            }
        }

        if best_d == 0 {
            // Both attributes live in one base relation: exact stats.
            let r = best_a;
            relations.push(SplitRelation {
                x: x.clone(),
                y: y.clone(),
                size_bound: spec.relation(r).len() as f64,
                deg_x: DegreeBound::Exact(stats.histogram(spec.relation(r), x)),
                deg_y: DegreeBound::Exact(stats.histogram(spec.relation(r), y)),
                source: Some(r),
            });
        } else {
            // Pre-estimate along the tree path (Example 7's penalty).
            let path = tree_path(&tree, best_a, best_b);
            // Multiplicity gained hopping `from → to` across one edge.
            let mut hop = |from: usize, to: usize| {
                let edge = spec.edge_between(from, to).expect("path follows edges");
                stats.max_degree(spec.relation(to), &edge.attrs) as f64
            };
            let forward: f64 = path.windows(2).map(|s| hop(s[0], s[1])).product();
            let backward: f64 = path.windows(2).rev().map(|s| hop(s[1], s[0])).product();
            let size_bound = spec.relation(best_a).len() as f64 * forward;
            relations.push(SplitRelation {
                x: x.clone(),
                y: y.clone(),
                size_bound,
                deg_x: DegreeBound::Scaled {
                    base: stats.histogram(spec.relation(best_a), x),
                    factor: forward,
                },
                deg_y: DegreeBound::Scaled {
                    base: stats.histogram(spec.relation(best_b), y),
                    factor: backward,
                },
                source: None,
            });
        }
    }

    // Fake joins: consecutive split relations from the same base
    // relation recombine 1:1.
    let fake_links = relations
        .windows(2)
        .map(|w| match (w[0].source, w[1].source) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        })
        .collect();

    Ok(SplitJoin {
        join_name: Arc::from(spec.name()),
        relations,
        fake_links,
    })
}

/// The vertex path between `a` and `b` in a join tree (inclusive).
fn tree_path(tree: &crate::tree::JoinTree, a: usize, b: usize) -> Vec<usize> {
    // Collect root paths, then splice at the lowest common ancestor.
    let root_path = |mut x: usize| {
        let mut p = vec![x];
        while let Some(par) = tree.parent(x) {
            p.push(par);
            x = par;
        }
        p
    };
    let pa = root_path(a);
    let pb = root_path(b);
    // First vertex of b's root path that also lies on a's root path = LCA.
    let lca = *pb.iter().find(|v| pa.contains(v)).expect("common root");
    let mut path: Vec<usize> = pa.iter().take_while(|&&v| v != lca).copied().collect();
    path.push(lca);
    let tail: Vec<usize> = pb.iter().take_while(|&&v| v != lca).copied().collect();
    path.extend(tail.into_iter().rev());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::{Relation, Schema};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// Fig. 3a: ABC ⋈ CD ⋈ DE, with CF hanging off C.
    fn fig3a() -> JoinSpec {
        JoinSpec::natural(
            "fig3a",
            vec![
                rel("abc", &["a", "b", "c"], vec![vec![1, 2, 3], vec![4, 5, 3]]),
                rel("cd", &["c", "d"], vec![vec![3, 7], vec![3, 8]]),
                rel("de", &["d", "e"], vec![vec![7, 9], vec![8, 10]]),
                rel("cf", &["c", "f"], vec![vec![3, 11]]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn template_prefers_same_relation_adjacency() {
        let spec = fig3a();
        let template = build_template(&[&spec]).unwrap();
        assert_eq!(template.order.len(), 6);
        // Adjacent same-relation pairs cost 0; a & b must be adjacent
        // somewhere in the optimal order since score(a,b) = 0.
        let pos = |n: &str| template.order.iter().position(|x| x.as_ref() == n).unwrap();
        assert_eq!(pos("a").abs_diff(pos("b")), 1, "order {:?}", template.order);
        // The chain a-b-c-d-e plus f near c has total cost 0 achievable?
        // (a,b)=0,(b,c)=0,(c,d)=0,(d,e)=0 — f costs ≥... check the DP
        // found something no worse than the hand-built order.
        let hand = ["f", "c", "a", "b", "d", "e"]; // not necessarily optimal
        let _ = hand;
        assert!(template.cost <= 2.0, "cost {}", template.cost);
    }

    #[test]
    fn split_join_marks_fake_links() {
        let spec = fig3a();
        // Force a template that keeps abc's attributes adjacent.
        let template = Template {
            order: ["a", "b", "c", "d", "e", "f"]
                .iter()
                .map(|s| Arc::from(*s))
                .collect(),
            cost: 0.0,
        };
        let split = split_join(&spec, &template).unwrap();
        assert_eq!(split.relations.len(), 5);
        // (a,b) and (b,c) both come from `abc` → fake link between them.
        assert_eq!(split.relations[0].source, Some(0));
        assert_eq!(split.relations[1].source, Some(0));
        assert!(split.fake_links[0]);
        // (b,c) from abc and (c,d) from cd → real link.
        assert_eq!(split.relations[2].source, Some(1));
        assert!(!split.fake_links[1]);
    }

    #[test]
    fn derived_split_relation_scales_degrees() {
        let spec = fig3a();
        // Template pairing d with f forces a path cd—abc? No: d is in cd
        // and de; f is in cf. Closest pair (cd, cf) has distance 2 via
        // abc.
        let template = Template {
            order: ["d", "f", "a", "b", "c", "e"]
                .iter()
                .map(|s| Arc::from(*s))
                .collect(),
            cost: 0.0,
        };
        let split = split_join(&spec, &template).unwrap();
        let df = &split.relations[0];
        assert!(df.source.is_none(), "d,f must be derived");
        // Size bound must exceed any base relation hosting d or f alone.
        assert!(df.size_bound >= 1.0);
        match &df.deg_x {
            DegreeBound::Scaled { factor, .. } => assert!(*factor >= 1.0),
            DegreeBound::Exact(_) => panic!("expected scaled bound"),
        }
    }

    #[test]
    fn degree_bound_arithmetic() {
        let r = rel("r", &["k"], vec![vec![1], vec![1], vec![2]]);
        let h = Arc::new(FrequencyHistogram::build(&r, "k"));
        let exact = DegreeBound::Exact(h.clone());
        assert_eq!(exact.degree(&Value::int(1)), 2.0);
        assert_eq!(exact.max_degree(), 2.0);
        assert_eq!(exact.distinct(), 2);

        let scaled = DegreeBound::Scaled {
            base: h,
            factor: 3.0,
        };
        assert_eq!(scaled.degree(&Value::int(1)), 6.0);
        assert_eq!(scaled.degree(&Value::int(9)), 0.0);
        assert_eq!(scaled.max_degree(), 6.0);
        assert!((scaled.avg_degree() - 4.5).abs() < 1e-12);
        assert_eq!(scaled.values().count(), 2);
    }

    #[test]
    fn held_karp_solves_small_instance() {
        // Path graph costs: 0-1 cheap, 1-2 cheap, others expensive.
        let inf = 10.0;
        let score = vec![
            vec![0.0, 1.0, inf],
            vec![1.0, 0.0, 1.0],
            vec![inf, 1.0, 0.0],
        ];
        let (order, cost) = held_karp_path(&score);
        assert_eq!(cost, 2.0);
        assert!(order == vec![0, 1, 2] || order == vec![2, 1, 0]);
    }

    #[test]
    fn greedy_two_opt_matches_held_karp_on_small_instances() {
        let score = vec![
            vec![0.0, 2.0, 9.0, 1.0],
            vec![2.0, 0.0, 4.0, 8.0],
            vec![9.0, 4.0, 0.0, 3.0],
            vec![1.0, 8.0, 3.0, 0.0],
        ];
        let (_, exact) = held_karp_path(&score);
        let (_, approx) = greedy_two_opt_path(&score);
        assert!(approx <= exact * 1.5, "approx {approx} vs exact {exact}");
    }

    #[test]
    fn tree_path_endpoints_and_midpoints() {
        let spec = fig3a();
        let tree = crate::tree::JoinTree::spanning(&spec, 0).unwrap();
        // cd (1) to cf (3) passes through abc (0).
        let p = tree_path(&tree, 1, 3);
        assert_eq!(p.first(), Some(&1));
        assert_eq!(p.last(), Some(&3));
        assert!(p.contains(&0));
        // Self path.
        assert_eq!(tree_path(&tree, 2, 2), vec![2]);
    }

    #[test]
    fn template_rejects_mismatched_joins() {
        let a = JoinSpec::natural("a", vec![rel("r", &["x", "y"], vec![])]).unwrap();
        let b = JoinSpec::natural("b", vec![rel("s", &["x", "z"], vec![])]).unwrap();
        assert!(build_template(&[&a, &b]).is_err());
        assert!(build_template(&[]).is_err());
    }

    #[test]
    fn single_attribute_template() {
        let a = JoinSpec::natural("a", vec![rel("r", &["x"], vec![vec![1]])]).unwrap();
        let t = build_template(&[&a]).unwrap();
        assert_eq!(t.order.len(), 1);
        let split = split_join(&a, &t).unwrap();
        assert!(split.relations.is_empty());
        assert!(split.fake_links.is_empty());
    }
}
