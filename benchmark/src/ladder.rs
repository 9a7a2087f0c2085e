//! The traced run: a ladder over the layers.
//!
//! The same inputs and request size as the untraced run, one thread,
//! fixed work. Each rung calls one layer's public entry point for the
//! same number of tuples and records one span per call; a layer's self
//! time is its rung minus the rung below it. Like the untraced run, a
//! rung issues its requests in laps and credits each request with its
//! calm quartile (see `endtoend`). The layers are the crates, bottom
//! up: `suj-stats` (alias arena), `suj-join` (`sample_rows`, then
//! `sample_batch` which adds materialisation), `suj-core` (union
//! sampler, `PreparedQuery`, `SamplingService`) and `suj-net` (codec,
//! then the full wire round trip). Because work is fixed and one
//! thread allocates, every count repeats exactly for a fixed seed.

use crate::alloc::counting;
use crate::deploy::{Ballast, Deployment, Ops};
use crate::endtoend::{calm_ns, lane, lib_laps, warm_up_length, Schedule, LAPS};
use crate::json::Json;
use crate::spans::{Recorder, SpanId};
use crate::summary::median;
use crate::workloads::Inputs;
use crate::{Metric, Outcome, Result, DEFAULT_SECONDS};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;
use suj_core::{Engine, RunReport, SampleRequest, SamplingService, ServiceConfig};
use suj_join::weights::build_sampler;
use suj_join::{ExactWeightSampler, JoinSampler, RowDraw, WeightKind};
use suj_net::protocol::{decode_batch, encode_batch};
use suj_stats::SujRng;
use suj_storage::{HashIndex, Tuple};

/// Repeats of the rungs that are one call each (plan, prepare,
/// snapshot, remote prepare); the median is reported.
const ONE_CALL_REPS: usize = 3;

/// Time and allocations of one rung.
#[derive(Default, Clone, Copy)]
struct Rung {
    /// Sum over the requests of their calm times.
    ns: f64,
    /// Allocations of the last lap, when everything lazy has happened.
    allocs: u64,
}

/// The recorder and the span every rung hangs off.
struct Trace {
    recorder: Recorder,
    root: SpanId,
}

impl Trace {
    /// Runs `requests` calls of `call`, [`LAPS`] times over, as one
    /// rung: a parent span and one span per call. `stage` readies each
    /// call's input outside its span and outside the allocation count;
    /// the input is dropped outside them too. Both closures see every
    /// request once per lap, with identical work each time, so a
    /// counter they keep ends at `LAPS` times its one-lap value.
    fn rung<T>(
        &mut self,
        name: &'static str,
        requests: usize,
        mut stage: impl FnMut(u64) -> T,
        mut call: impl FnMut(u64, &mut T),
    ) -> Rung {
        let parent = self.recorder.open(name, Some(self.root));
        let mut times_ns = vec![Vec::new(); LAPS];
        let mut allocs = 0;
        for lap in &mut times_ns {
            allocs = 0;
            for request in 0..requests as u64 {
                let mut staged = stage(request);
                let (((), ns), counted) = counting(|| {
                    self.recorder
                        .call(name, parent, request, || call(request, &mut staged))
                });
                lap.push(ns);
                allocs += counted;
            }
        }
        self.recorder.close(parent);
        Rung {
            ns: calm_ns(&times_ns).iter().sum(),
            allocs,
        }
    }

    /// Times a single call as a span; returns its result and seconds.
    fn once<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, ns) = self.recorder.call(name, self.root, 0, f);
        (out, ns as f64 / 1e9)
    }
}

/// Mean of `values` weighted by `weights` (which sum to 1).
fn weighted(values: impl Iterator<Item = f64>, weights: &[f64]) -> f64 {
    values.zip(weights).map(|(v, w)| v * w).sum()
}

/// Runs the ladder and writes the spans to `out_dir`.
pub fn run(inputs: &Inputs, run_seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome> {
    let n = inputs.sizes.n;
    let requests =
        ((inputs.sizes.ladder_requests as f64 * seconds / DEFAULT_SECONDS).round() as usize).max(2);
    let tuples = (requests * n) as f64;
    let mut ops = Ops::default();
    let seed_of = |request: u64| lane(run_seed, 0).wrapping_add(request);

    // Every span this run records fits, so recording never allocates
    // inside a counted rung.
    let mut trace = Trace {
        recorder: Recorder::with_capacity(
            64 + (12 + 2 * inputs.workload.n_joins()) * (LAPS * requests + 1),
        ),
        root: 0,
    };
    trace.root = trace.recorder.open("ladder", None);

    // The served system: one worker, one connection.
    let mut deployment = Deployment::set_up(inputs, 1, 1)?;
    let prepared = deployment.prepared.clone();
    let summary = deployment.check_rule(inputs, &mut ops);
    // Every rung has one request in flight at a time, so the whole
    // ladder runs with the other core kept busy, like the untraced
    // run's single-threaded phases. For the service and wire rungs the
    // ballast matters even more: their threads hand each request back
    // and forth, and waking an idle CPU of this sandbox costs 30 to
    // 150 µs where a hand-over between running threads costs 3.
    let _ballast = Ballast::start();
    lib_laps(
        &prepared,
        n,
        Schedule::warm_up(warm_up_length(seconds)),
        seed_of(0),
        &mut ops,
        None,
        || (),
    );

    // --- Build path: what set-up and restore are made of. ---------
    let workload = prepared.workload().clone();
    let base_bytes = workload.memory_bytes() as f64;
    let mut index_s = 0.0;
    let mut index_rows = 0usize;
    for spec in workload.joins() {
        for edge in spec.edges() {
            let relation = spec.relation(edge.right);
            let (index, s) = trace.once("storage.index.build", || {
                HashIndex::build(relation, &edge.attrs)
            });
            black_box(index);
            index_s += s;
            index_rows += relation.len();
        }
    }

    let kind = prepared.plan().weights.unwrap_or(WeightKind::Exact);
    let mut join_build_s = 0.0;
    let mut members: Vec<Box<dyn JoinSampler>> = Vec::new();
    for spec in workload.joins() {
        let (sampler, s) = trace.once("join.build", || build_sampler(spec.clone(), kind));
        members.push(sampler?);
        join_build_s += s;
    }
    let join_bytes: usize = members.iter().map(|m| m.memory_bytes()).sum();

    let mut plan_s = Vec::new();
    let mut prepare_s = Vec::new();
    let mut save_s = Vec::new();
    let mut load_s = Vec::new();
    let mut snapshot_bytes = 0usize;
    for _ in 0..ONE_CALL_REPS {
        let engine = inputs.engine()?;
        let (plan, s) = trace.once("core.plan", || engine.plan(&inputs.query));
        plan?;
        plan_s.push(s);
        let (fresh, s) = trace.once("core.prepare", || engine.prepare_uncached(&inputs.query));
        drop(fresh?);
        prepare_s.push(s);
        let (bytes, s) = trace.once("core.snapshot.save", || {
            deployment.engine.snapshot_to_bytes()
        });
        let bytes = bytes?;
        save_s.push(s);
        let (replica, s) = trace.once("core.snapshot.load", || Engine::load_snapshot_bytes(&bytes));
        drop(replica?);
        load_s.push(s);
        snapshot_bytes = bytes.len();
    }

    // --- suj-stats: one alias draw per tuple. -----------------------
    let root_arena = ExactWeightSampler::new(workload.join(0).clone())?
        .artifacts()
        .root_arena;
    // Every rung below stages one stream per request, so that each lap
    // repeats the last one draw for draw.
    let stream = |request: u64| SujRng::derive(run_seed, request);
    let arena = trace.rung("stats.arena.draw", requests, stream, |_, rng| {
        let mut sum = 0u64;
        for _ in 0..n {
            sum += u64::from(root_arena.draw(0, rng));
        }
        black_box(sum);
    });

    // --- suj-core: the union sampler. ------------------------------
    // A fresh handle per request, minted outside the span and driven
    // with the request's own stream: the same draws as the rungs
    // above, so that those differ from it by their overhead alone. It
    // runs before the join rungs because its report says how often
    // each member join was drawn from, which is the mix the join
    // rungs are weighted by.
    let mut counters = RunReport::new(workload.n_joins());
    let mut short = 0u64;
    let union = trace.rung(
        "core.union.sample",
        requests,
        |request| {
            (
                prepared.sampler(seed_of(request)),
                prepared.rng(seed_of(request)),
            )
        },
        |_, (handle, rng)| match handle.as_mut().map(|h| h.sample(n, rng)) {
            Ok(Ok((batch, report))) => {
                short += u64::from(batch.len() != n);
                counters.merge(&report);
            }
            _ => short += 1,
        },
    );
    ops.check(short == 0, || {
        format!("{short} union batches failed or came back short")
    });
    let drawn: u64 = counters.join_draws.iter().sum();
    let mix: Vec<f64> = counters
        .join_draws
        .iter()
        .map(|&d| d as f64 / drawn.max(1) as f64)
        .collect();
    // The counters saw every lap; one lap's worth is reported.
    let per_lap = |count: u64| (count / LAPS as u64) as f64;
    let union_attempts =
        per_lap(counters.accepted + counters.rejected_cover + counters.rejected_join);

    // --- suj-join: each member join, row ids then tuples. -----------
    let mut rows = Vec::with_capacity(members.len());
    let mut batches = Vec::with_capacity(members.len());
    let mut acceptance = Vec::with_capacity(members.len());
    for sampler in &members {
        let mut draw = RowDraw::new();
        // Sizes the scratch, so the counted rung starts warm.
        sampler.sample_rows(&mut stream(0), &mut draw);
        let mut attempts = 0u64;
        rows.push(trace.rung("join.sample_rows", requests, stream, |_, rng| {
            let mut accepted = 0;
            while accepted < n {
                attempts += 1;
                accepted += usize::from(sampler.sample_rows(rng, &mut draw));
            }
            black_box(draw.rows());
        }));
        acceptance.push(tuples / per_lap(attempts));

        // The same streams again: the same walks, plus materialisation.
        let mut out: Vec<Tuple> = Vec::with_capacity(n);
        batches.push(trace.rung("join.sample_batch", requests, stream, |_, rng| {
            sampler.sample_batch(n, u64::MAX, rng, &mut out);
            // The caller frees what it was given: part of the cost.
            out.clear();
        }));
    }
    let per_tuple = |rungs: &[Rung]| weighted(rungs.iter().map(|r| r.ns / tuples), &mix);
    let allocs_per_tuple =
        |rungs: &[Rung]| weighted(rungs.iter().map(|r| r.allocs as f64 / tuples), &mix);
    let rows_ns = per_tuple(&rows);
    let batch_ns = per_tuple(&batches);
    let rows_allocs = allocs_per_tuple(&rows);
    if kind != WeightKind::AgmBox {
        ops.check(rows.iter().all(|r| r.allocs == 0), || {
            format!("join.sample_rows allocated ({rows_allocs} per tuple) on an acyclic workload")
        });
    }

    // --- suj-core: PreparedQuery, traced and untraced. --------------
    let mint = trace.rung(
        "core.prepared.sampler",
        requests,
        |_| (),
        |request, ()| {
            black_box(prepared.sampler(seed_of(request)).is_ok());
        },
    );
    // The untraced run's own loop over the same requests: what the
    // span recorder and the allocation counter add is the difference.
    let untraced = lib_laps(
        &prepared,
        n,
        Schedule {
            laps: LAPS,
            first_lap: Duration::ZERO,
            min_requests: requests,
        },
        seed_of(0),
        &mut ops,
        None,
        || (),
    );
    let untraced_ns = untraced.calm_ns().iter().sum::<f64>() / requests as f64;
    let mut failed = 0u64;
    let lib = trace.rung(
        "core.prepared.sample",
        requests,
        |_| (),
        |request, ()| {
            failed += u64::from(prepared.sample(n, seed_of(request)).is_err());
        },
    );
    let lib_ns = lib.ns / requests as f64;

    // --- suj-net: the codec on real reply tuples. -------------------
    let attrs = workload.canonical_schema().attrs();
    let mut wire_bytes = 0usize;
    let encode = trace.rung(
        "net.encode",
        requests,
        |request| prepared.sample(n, seed_of(request)).map(|(reply, _)| reply),
        |_, reply| match reply {
            Ok(reply) => wire_bytes += encode_batch(attrs, reply).len(),
            Err(_) => failed += 1,
        },
    );
    let mut garbled = 0u64;
    let decode = trace.rung(
        "net.decode",
        requests,
        |request| {
            let reply = prepared.sample(n, seed_of(request)).map(|(reply, _)| reply);
            let payload = reply
                .as_ref()
                .map_or(Vec::new(), |r| encode_batch(attrs, r));
            let round_trip = decode_batch(&payload).is_ok_and(|(_, tuples)| Ok(tuples) == reply);
            garbled += u64::from(!round_trip);
            payload
        },
        |_, payload| {
            black_box(decode_batch(payload).is_ok());
        },
    );
    failed += garbled;

    // --- suj-core: SamplingService, one worker. ---------------------
    let service = SamplingService::start(deployment.engine.clone(), ServiceConfig::with_workers(1));
    let served = trace.rung(
        "core.service.request",
        requests,
        |_| (),
        |request, ()| {
            let ticket = service
                .submit(SampleRequest::prepared(request, n, &prepared).with_seed(seed_of(request)));
            failed += u64::from(!ticket.is_ok_and(|t| t.wait().is_ok()));
        },
    );
    service.shutdown();

    // --- suj-net: the full round trip, one connection. --------------
    let connection = &mut deployment.connections[0];
    let wire = trace.rung(
        "net.wire.request",
        requests,
        |_| (),
        |request, ()| {
            let reply = connection
                .client
                .sample(&connection.remote, n, seed_of(request));
            failed += u64::from(!reply.is_ok_and(|batch| batch.tuples.len() == n));
        },
    );
    let stats = trace.rung(
        "net.stats",
        requests,
        |_| (),
        |_, ()| {
            failed += u64::from(connection.client.stats().is_err());
        },
    );
    let mut prepare_rtt_s = Vec::new();
    for _ in 0..ONE_CALL_REPS {
        let (remote, s) = trace.once("net.prepare", || connection.client.prepare(&inputs.query));
        remote?;
        prepare_rtt_s.push(s);
    }
    ops.check(failed == 0, || format!("{failed} ladder requests failed"));
    ops.passed((6 * LAPS * requests) as u64);
    deployment.tear_down()?;
    trace.recorder.close(trace.root);

    // --- The ladder: each rung's self time is it minus the rung below.
    let union_ns = union.ns / tuples;
    let served_ns = served.ns / requests as f64;
    let wire_ns = wire.ns / requests as f64;
    let union_self = union_ns - batch_ns;
    let lib_self = lib_ns - n as f64 * union_ns;
    let served_self = served_ns - lib_ns;
    let wire_self = wire_ns - served_ns;
    let ladder_sum = wire_self + served_self + lib_self + n as f64 * (union_self + batch_ns);
    ops.check((ladder_sum - wire_ns).abs() <= 1e-6 * wire_ns, || {
        format!("self times sum to {ladder_sum} ns, the top rung is {wire_ns} ns")
    });

    let metrics = vec![
        Metric::new("stats.arena.draw_ns", arena.ns / tuples, "ns"),
        Metric::new("join.sample_rows.ns_per_tuple", rows_ns, "ns"),
        Metric::new("join.sample_rows.allocs_per_tuple", rows_allocs, "count"),
        Metric::new(
            "join.sample_rows.acceptance",
            weighted(acceptance.iter().copied(), &mix),
            "ratio",
        ),
        Metric::new("join.sample_batch.ns_per_tuple", batch_ns, "ns"),
        Metric::new(
            "join.sample_batch.allocs_per_tuple",
            allocs_per_tuple(&batches),
            "count",
        ),
        Metric::new("join.materialize.ns_per_tuple", batch_ns - rows_ns, "ns"),
        Metric::new("join.build_s", join_build_s, "s"),
        Metric::new("join.bytes", join_bytes as f64, "B"),
        Metric::new("storage.index.build_s", index_s, "s"),
        Metric::new(
            "storage.index.rows_per_s",
            index_rows as f64 / index_s,
            "rows/s",
        ),
        Metric::new("storage.base_bytes", base_bytes, "B"),
        Metric::new("core.plan_s", median(&plan_s), "s"),
        Metric::new("core.prepare_s", median(&prepare_s), "s"),
        Metric::new("core.prepared_bytes", counters.prepared_bytes as f64, "B"),
        Metric::new("core.union.ns_per_tuple", union_ns, "ns"),
        Metric::new("core.union.self_ns_per_tuple", union_self, "ns"),
        Metric::new(
            "core.union.allocs_per_tuple",
            union.allocs as f64 / tuples,
            "count",
        ),
        Metric::new("core.union.acceptance", tuples / union_attempts, "ratio"),
        Metric::new(
            "core.union.rejected_cover",
            per_lap(counters.rejected_cover),
            "count",
        ),
        Metric::new(
            "core.union.rejected_join",
            per_lap(counters.rejected_join),
            "count",
        ),
        Metric::new("core.union.revised", per_lap(counters.revised), "count"),
        Metric::new(
            "core.union.retracted",
            per_lap(counters.revision_removed),
            "count",
        ),
        Metric::new("core.prepared.mint_ns", mint.ns / requests as f64, "ns"),
        Metric::new("core.prepared.ns_per_request", lib_ns, "ns"),
        Metric::new("core.prepared.self_ns_per_request", lib_self, "ns"),
        Metric::new("core.service.ns_per_request", served_ns, "ns"),
        Metric::new("core.service.self_ns_per_request", served_self, "ns"),
        Metric::new("core.snapshot.save_s", median(&save_s), "s"),
        Metric::new("core.snapshot.load_s", median(&load_s), "s"),
        Metric::new("core.snapshot.bytes", snapshot_bytes as f64, "B"),
        Metric::new(
            "core.snapshot.bytes_per_base_byte",
            snapshot_bytes as f64 / base_bytes,
            "ratio",
        ),
        Metric::new("net.stats_rtt_ns", stats.ns / requests as f64, "ns"),
        Metric::new("net.prepare_rtt_s", median(&prepare_rtt_s), "s"),
        Metric::new("net.wire.ns_per_request", wire_ns, "ns"),
        Metric::new("net.wire.self_ns_per_request", wire_self, "ns"),
        Metric::new("net.encode.ns_per_tuple", encode.ns / tuples, "ns"),
        Metric::new("net.decode.ns_per_tuple", decode.ns / tuples, "ns"),
        Metric::new(
            "net.encode.allocs_per_tuple",
            encode.allocs as f64 / tuples,
            "count",
        ),
        Metric::new(
            "net.decode.allocs_per_tuple",
            decode.allocs as f64 / tuples,
            "count",
        ),
        Metric::new(
            "net.bytes_per_tuple",
            (wire_bytes / LAPS) as f64 / tuples,
            "B",
        ),
        Metric::new("tpch.gen_s", inputs.gen_s, "s"),
        Metric::new(
            "trace.overhead_pct",
            (lib_ns - untraced_ns) / untraced_ns * 100.0,
            "%",
        ),
    ];

    let detail = Json::obj([
        ("plan", Json::str(summary.to_string())),
        ("requests_per_rung", Json::Num(requests as f64)),
        ("tuples_per_rung", Json::Num(tuples)),
        ("join_mix", Json::nums(&mix)),
        (
            "join.sample_rows.ns_per_tuple.members",
            Json::Arr(rows.iter().map(|r| Json::Num(r.ns / tuples)).collect()),
        ),
        (
            "join.sample_batch.ns_per_tuple.members",
            Json::Arr(batches.iter().map(|r| Json::Num(r.ns / tuples)).collect()),
        ),
        (
            "core.prepared.untraced_ns_per_request",
            Json::Num(untraced_ns),
        ),
        ("spans", Json::Num(trace.recorder.len() as f64)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("trace-{}.json", inputs.name));
    let file = Json::obj([
        ("workload", Json::str(inputs.name)),
        ("seed", Json::Num(run_seed as f64)),
        ("detail", detail.clone()),
        ("spans", trace.recorder.to_json()),
    ]);
    std::fs::write(&path, format!("{file}\n"))?;
    Ok(Outcome {
        metrics,
        detail,
        ops,
    })
}
