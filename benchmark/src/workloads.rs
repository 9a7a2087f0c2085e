//! The four workloads: what each one feeds the system and why.
//!
//! Every workload is generated from `--seed` alone. Sizes are fixed
//! per workload (the README explains each choice); the planner
//! override of `overlap_rej` is a public deployment setting of the
//! engine, not a switch keyed on the workload.

use crate::Result;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use suj_core::{Catalog, Engine, JoinDef, Planner, PlannerConfig, UnionQuery, UnionWorkload};
use suj_join::JoinSpec;
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};
use suj_tpch::{uq1, uq2, uq3, UqOptions};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["bulk_cold", "chatty_hot", "overlap_rej", "cyclic_tri"];

/// Share of base rows the TPC-H variants keep in common (UQ1, UQ3).
const OVERLAP_SCALE: f64 = 0.2;

/// Edge probability of the `cyclic_tri` random graph.
const EDGE_PROB: f64 = 0.08;

/// The sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TPC-H `scale_units`; for `cyclic_tri`, the number of vertices.
    pub scale_units: usize,
    /// Tuples per request.
    pub n: usize,
    /// Distinct requests the wire phase issues at least: 1000 in a full
    /// run, so that p99 has ten samples beyond it.
    pub wire_requests: usize,
    /// Requests per lap of a rung of the traced ladder at the default
    /// run length (fixed work, so that counts repeat exactly).
    pub ladder_requests: usize,
}

/// The sizes a workload runs at: full, or the tiny `--smoke` ones.
pub fn sizes(name: &str, smoke: bool) -> Result<Sizes> {
    let (scale_units, n, ladder_requests) = match (name, smoke) {
        ("bulk_cold", false) => (1024, 1024, 40),
        ("bulk_cold", true) => (8, 256, 40),
        ("chatty_hot", false) => (4, 16, 8000),
        ("chatty_hot", true) => (2, 16, 4000),
        ("overlap_rej", false) => (256, 1024, 80),
        ("overlap_rej", true) => (8, 128, 40),
        ("cyclic_tri", false) => (128, 32, 40),
        ("cyclic_tri", true) => (128, 16, 40),
        _ => return Err(format!("unknown workload `{name}` (one of {NAMES:?})").into()),
    };
    Ok(Sizes {
        scale_units,
        n,
        wire_requests: if smoke { 16 } else { 1000 },
        ladder_requests,
    })
}

/// One workload's generated inputs, ready to be deployed any number
/// of times.
pub struct Inputs {
    pub name: &'static str,
    pub sizes: Sizes,
    /// The union as the generator built it: ground truth for
    /// membership and uniformity checks.
    pub workload: Arc<UnionWorkload>,
    /// Every base relation once, under the name the query uses.
    relations: Vec<Arc<Relation>>,
    /// The declarative query a caller prepares.
    pub query: UnionQuery,
    planner: Planner,
    /// The plan rule this workload exists to exercise.
    pub expected_rule: &'static str,
    /// Whether the union is small enough to materialise as ground
    /// truth for a uniformity test.
    pub small_union: bool,
    /// Wall time of generation (`tpch.gen_s`); not part of set-up.
    pub gen_s: f64,
}

impl Inputs {
    /// Generates the named workload from `seed`.
    pub fn generate(name: &str, sizes: Sizes, seed: u64) -> Result<Inputs> {
        let start = Instant::now();
        let opts = UqOptions::new(sizes.scale_units, seed, OVERLAP_SCALE);
        let default_planner = Planner::default();
        let (name, workload, planner, expected_rule) = match name {
            "bulk_cold" => ("bulk_cold", uq1(&opts)?, default_planner, "low-overlap"),
            "chatty_hot" => ("chatty_hot", uq3(&opts)?, default_planner, "low-overlap"),
            // The default probe routes every TPC-H input to Bernoulli;
            // a zero threshold is how a deployment asks for Algorithm 1.
            "overlap_rej" => (
                "overlap_rej",
                uq2(&opts)?,
                Planner::new(PlannerConfig {
                    bernoulli_max_overlap_ratio: 0.0,
                    ..PlannerConfig::default()
                }),
                "high-overlap",
            ),
            "cyclic_tri" => (
                "cyclic_tri",
                triangles(sizes.scale_units, seed)?,
                default_planner,
                "cyclic-join",
            ),
            other => return Err(format!("unknown workload `{other}`").into()),
        };
        let (relations, query) = declare(&workload)?;
        Ok(Inputs {
            name,
            sizes,
            workload: Arc::new(workload),
            relations,
            query,
            planner,
            expected_rule,
            small_union: name == "cyclic_tri",
            gen_s: start.elapsed().as_secs_f64(),
        })
    }

    /// A fresh engine over a fresh catalog: nothing planned, estimated
    /// or indexed yet.
    pub fn engine(&self) -> Result<Engine> {
        let mut catalog = Catalog::new();
        for relation in &self.relations {
            catalog.register_arc(relation.clone())?;
        }
        Ok(Engine::with_planner(catalog, self.planner))
    }

    /// Total rows of the base relations.
    pub fn base_rows(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }
}

/// Turns a generated workload into what a caller of the engine holds:
/// each relation once under a unique name, and a query over those
/// names with the workload's own edges.
fn declare(workload: &UnionWorkload) -> Result<(Vec<Arc<Relation>>, UnionQuery)> {
    let mut relations = Vec::new();
    let mut registered: HashMap<*const Relation, String> = HashMap::new();
    let mut taken: HashSet<String> = HashSet::new();
    let mut query = UnionQuery::set_union();
    for spec in workload.joins() {
        let mut names = Vec::with_capacity(spec.n_relations());
        for relation in spec.relations() {
            let name = match registered.get(&Arc::as_ptr(relation)) {
                Some(name) => name.clone(),
                None => {
                    // Push-down gives different filtered copies of one
                    // table the same name; the catalog wants them apart.
                    let mut name = relation.name().to_string();
                    let mut entry = relation.clone();
                    if taken.contains(&name) {
                        name = format!("{name}@{}", spec.name());
                        entry = Arc::new(relation.rename_attrs(&name, str::to_string)?);
                    }
                    taken.insert(name.clone());
                    registered.insert(Arc::as_ptr(relation), name.clone());
                    relations.push(entry);
                    name
                }
            };
            names.push(name);
        }
        query = query.join(JoinDef::with_edges(
            spec.name(),
            names,
            spec.edges().to_vec(),
        ))?;
    }
    Ok((relations, query))
}

/// Seed of the one random graph behind `cyclic_tri` (the seed
/// `examples/triangle.rs` uses).
const GRAPH_SEED: u64 = 2023;

/// The union of all ordered triangles of a symmetric random graph and
/// those whose closing edge lies among the first half of the vertices
/// (`examples/triangle.rs` at benchmark size): two overlapping cyclic
/// joins, small enough for exact ground truth.
///
/// The cost of a draw is 1 / (OUT/AGM), and in a graph this small the
/// triangle count alone differs by ±14% between two random graphs. So
/// the graph is one G(V, p) sample for every seed, and the seed
/// relabels its vertices, the hub's among themselves and the others
/// among themselves: every seed gives other relations, and all of
/// them have the same join sizes, bounds and degree sequences.
fn triangles(vertices: usize, seed: u64) -> Result<UnionWorkload> {
    let mut graph_rng = SujRng::seed_from_u64(GRAPH_SEED);
    let mut label: Vec<i64> = (0..vertices as i64).collect();
    let (hub, rest) = label.split_at_mut(vertices / 2);
    let mut rng = SujRng::seed_from_u64(seed);
    rng.shuffle(hub);
    rng.shuffle(rest);
    let mut edges: Vec<(i64, i64)> = Vec::new();
    for u in 0..vertices {
        for v in (u + 1)..vertices {
            if graph_rng.bernoulli(EDGE_PROB) {
                edges.push((label[u], label[v]));
                edges.push((label[v], label[u]));
            }
        }
    }
    let vertices = vertices as i64;
    let hub: Vec<(i64, i64)> = edges
        .iter()
        .copied()
        .filter(|&(u, v)| u < vertices / 2 && v < vertices / 2)
        .collect();
    let side = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| -> Result<Arc<Relation>> {
        let tuples = rows
            .iter()
            .map(|&(u, v)| Tuple::new(vec![Value::int(u), Value::int(v)]))
            .collect();
        Ok(Arc::new(Relation::new(name, Schema::new(attrs)?, tuples)?))
    };
    let e_ab = side("e_ab", ["a", "b"], &edges)?;
    let e_bc = side("e_bc", ["b", "c"], &edges)?;
    let e_ca = side("e_ca", ["c", "a"], &edges)?;
    let e_ca_hub = side("e_ca_hub", ["c", "a"], &hub)?;
    let all = JoinSpec::natural("triangles", vec![e_ab.clone(), e_bc.clone(), e_ca])?;
    let hubs = JoinSpec::natural("hub_triangles", vec![e_ab, e_bc, e_ca_hub])?;
    Ok(UnionWorkload::new(vec![Arc::new(all), Arc::new(hubs)])?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_and_declares() {
        for name in NAMES {
            let inputs = Inputs::generate(name, sizes(name, true).unwrap(), 3).unwrap();
            assert_eq!(inputs.query.joins().len(), inputs.workload.n_joins());
            assert!(inputs.engine().unwrap().plan(&inputs.query).is_ok());
        }
    }
}
