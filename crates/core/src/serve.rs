//! Multi-threaded sample serving: [`SamplingService`].
//!
//! The paper's use case — analysts repeatedly drawing i.i.d. samples
//! over a prepared union of joins — is a *serving* workload: many
//! small, independent requests against the same frozen plan. This
//! module turns the `Send + Sync` execution surface
//! ([`Engine`], [`Arc<PreparedQuery>`](PreparedQuery), `Send` sampler
//! handles) into an actual server:
//!
//! * a slot gate: [`SamplingService::submit`] runs a request on the
//!   thread that calls it once fewer than `workers` requests are
//!   running, so a request crosses no thread and the service starts
//!   none,
//! * bounded waiting: a caller that finds every slot taken waits for
//!   one, unless `queue_capacity` callers are waiting already, in which
//!   case the request is handed back as [`SubmitError::Busy`] with a
//!   retry hint; callers that arrive while others wait wait too,
//! * throughput / latency counters ([`SamplingService::stats`]).
//!
//! # Determinism contract
//!
//! Every request carries a `seed` (defaulting to its `id`). Whichever
//! thread runs it serves it by minting a fresh handle from the
//! prepared query and driving it with
//! [`PreparedQuery::rng`]`(request.seed)` — a pure function of the
//! prepared query (which owns the root seed) and the request, and the
//! stream [`PreparedQuery::sample`] draws from.
//! Therefore: **same prepared query + same request seeds ⇒
//! bit-identical per-request samples**, in-process or served, for any
//! worker count, any thread interleaving and any submission order. A
//! 4-worker service is sample-for-sample equal to a 1-worker service;
//! only wall time changes.
//!
//! ```
//! use suj_core::catalog::{Catalog, Engine};
//! use suj_core::query::UnionQuery;
//! use suj_core::serve::{SampleRequest, SamplingService, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! catalog.register_csv("items", "sku,cat\n1,7\n2,9\n".as_bytes())?;
//! catalog.register_csv("sales", "sale,sku\n100,1\n101,2\n".as_bytes())?;
//! let engine = Engine::new(catalog);
//! let prepared = engine.prepare(
//!     &UnionQuery::set_union().chain("shop", ["items", "sales"])?,
//! )?;
//!
//! let service = SamplingService::start(engine, ServiceConfig::default());
//! let tickets: Vec<_> = (0..8)
//!     .map(|id| service.submit(SampleRequest::prepared(id, 5, &prepared)))
//!     .collect::<Result<_, _>>()?;
//! for ticket in tickets {
//!     let response = ticket.wait()?;
//!     assert_eq!(response.tuples.len(), 5);
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 8);
//! # Ok(())
//! # }
//! ```

use crate::catalog::{Engine, PreparedQuery};
use crate::error::CoreError;
use crate::fan_out::{fan_out, parallelism};
use crate::query::UnionQuery;
use crate::report::{LatencyHistogram, RunReport};
use crate::sampler::UnionSampler;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use suj_storage::Tuple;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many requests may run at once and how many callers may wait.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests that may run at once, each on its caller's thread.
    /// Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Callers that may wait for a slot; [`SamplingService::submit`]
    /// refuses the next one as [`SubmitError::Busy`].
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: parallelism(),
            queue_capacity: 1024,
        }
    }
}

impl ServiceConfig {
    /// A configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Sets how many callers may wait for a slot.
    #[must_use = "builder methods return the updated configuration"]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// What a request samples: an already-prepared plan (the hot path —
/// zero per-request planning) or a declarative query resolved through
/// the engine's prepared-query cache (first request pays estimation,
/// the rest hit the cache).
#[derive(Clone)]
pub enum RequestTarget {
    /// Serve from a shared prepared query.
    Prepared(Arc<PreparedQuery>),
    /// Resolve and plan through the engine (cached by fingerprint).
    Query(UnionQuery),
}

impl fmt::Debug for RequestTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestTarget::Prepared(_) => f.write_str("Prepared(..)"),
            RequestTarget::Query(q) => write!(f, "Query({q:?})"),
        }
    }
}

/// One sampling request: draw `n` i.i.d. samples from `target`,
/// deterministically addressed by `seed`.
#[derive(Debug, Clone)]
pub struct SampleRequest {
    /// Caller-chosen request id, echoed in the response.
    pub id: u64,
    /// Number of samples to draw.
    pub n: usize,
    /// RNG stream of this request (mixed with the prepared query's
    /// root seed).
    /// The constructors default it to `id`, which yields the "same ids
    /// ⇒ same samples" contract.
    pub seed: u64,
    /// What to sample.
    pub target: RequestTarget,
    /// Optional deadline: checked when the request gets its slot and
    /// before every draw, answering [`CoreError::DeadlineExceeded`]
    /// instead of running unbounded. `None` (the default) keeps the old
    /// run-to-completion behavior. A deadline never changes the draw
    /// sequence — a request that finishes in time is bit-identical to
    /// the same request without one.
    pub deadline: Option<Instant>,
    /// Fault-injection hook (chaos testing only): the thread running
    /// this request panics instead of serving it, exercising the
    /// service's panic containment end-to-end.
    #[cfg(feature = "faults")]
    pub panic_for_test: bool,
}

impl SampleRequest {
    /// A request against a shared prepared query; `seed` defaults to
    /// `id`.
    pub fn prepared(id: u64, n: usize, prepared: &Arc<PreparedQuery>) -> Self {
        Self {
            id,
            n,
            seed: id,
            target: RequestTarget::Prepared(prepared.clone()),
            deadline: None,
            #[cfg(feature = "faults")]
            panic_for_test: false,
        }
    }

    /// A request against a declarative query (prepared through the
    /// engine's cache); `seed` defaults to `id`.
    pub fn query(id: u64, n: usize, query: UnionQuery) -> Self {
        Self {
            id,
            n,
            seed: id,
            target: RequestTarget::Query(query),
            deadline: None,
            #[cfg(feature = "faults")]
            panic_for_test: false,
        }
    }

    /// Overrides the request's RNG stream (decouple replay identity
    /// from the id).
    #[must_use = "builder methods return the updated request"]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an absolute deadline; the service answers
    /// [`CoreError::DeadlineExceeded`] once it passes.
    #[must_use = "builder methods return the updated request"]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline as a budget from now
    /// (`deadline = Instant::now() + budget`). A budget that reaches
    /// past what an `Instant` can hold leaves the request without a
    /// deadline.
    #[must_use = "builder methods return the updated request"]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.deadline = Instant::now().checked_add(budget);
        self
    }

    /// Fault injection: the thread running this request panics instead
    /// of serving it, so tests can prove panic containment
    /// (the service keeps serving, the caller gets a typed error). Only
    /// compiled under the `faults` feature.
    #[cfg(feature = "faults")]
    #[must_use = "builder methods return the updated request"]
    pub fn with_panic_for_test(mut self) -> Self {
        self.panic_for_test = true;
        self
    }
}

/// A served response: the request's samples plus its per-request
/// counters (including draw-latency percentiles).
#[derive(Debug, Clone)]
pub struct SampleResponse {
    /// The request id this response answers.
    pub id: u64,
    /// The drawn samples (`request.n` of them).
    pub tuples: Vec<Tuple>,
    /// Counters and timings for this request only.
    pub report: RunReport,
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// Every slot is running a request and `queue_capacity` callers are
    /// already waiting for one; the request is handed back for retry,
    /// with a hint for how long to back off first.
    Busy {
        /// The rejected request, handed back to the caller.
        request: SampleRequest,
        /// Suggested back-off before retrying: roughly the time the
        /// slots need to serve every waiting caller, derived from the
        /// observed median request service time (see
        /// [`SamplingService::retry_after_hint`]).
        retry_after: Duration,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SubmitError::Busy {
            request,
            retry_after,
        } = self;
        write!(
            f,
            "request {} rejected: every slot busy, retry after {retry_after:?}",
            request.id
        )
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for CoreError {
    fn from(e: SubmitError) -> Self {
        CoreError::Invalid(e.to_string())
    }
}

/// A served request's outcome; [`wait`](Ticket::wait) hands it over.
pub struct Ticket {
    id: u64,
    result: Result<SampleResponse, CoreError>,
}

impl Ticket {
    /// The id of the request this ticket tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's response, or the error that ended it.
    pub fn wait(self) -> Result<SampleResponse, CoreError> {
        self.result
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    busy: AtomicU64,
    tuples_served: AtomicU64,
    /// Per-request reports folded together; its `draw_latency` is the
    /// service-wide latency histogram.
    aggregate: Mutex<RunReport>,
    /// Service time of each completed request, start to result: what
    /// one slot costs a waiting caller.
    request_latency: Mutex<LatencyHistogram>,
}

/// The slot gate's state. While a caller waits every slot is held
/// (`waiting > 0` implies `running == workers`), so a caller that finds
/// a free slot has nobody ahead of it.
#[derive(Default)]
struct Slots {
    /// Slots held, including those handed to woken callers.
    running: usize,
    /// Callers waiting without a slot.
    waiting: usize,
    /// Slots handed to waiting callers that have not woken yet.
    granted: usize,
}

/// A held slot; dropping it, on every way out of a request including a
/// panic, hands the slot to a waiting caller or frees it.
struct Slot<'a> {
    service: &'a SamplingService,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut slots = lock(&self.service.slots);
        if slots.waiting > 0 {
            slots.waiting -= 1;
            slots.granted += 1;
            self.service.freed.notify_one();
        } else {
            slots.running -= 1;
        }
    }
}

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Requests that may run at once.
    pub workers: usize,
    /// Requests accepted so far, running or waiting for a slot.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that errored.
    pub failed: u64,
    /// Requests [`submit`](SamplingService::submit) refused as
    /// [`SubmitError::Busy`] because `queue_capacity` callers were
    /// waiting. A refused request is not counted in `submitted`.
    pub busy: u64,
    /// Requests accepted but not yet finished (waiting or running).
    pub in_flight: u64,
    /// Total tuples across all completed responses.
    pub tuples_served: u64,
    /// Median service time of a completed request (start to result).
    pub request_p50: Option<Duration>,
    /// 99th-percentile service time of a completed request.
    pub request_p99: Option<Duration>,
    /// Cumulative counters folded over every served request. Its
    /// `draw_latency` holds the per-draw percentiles across all served
    /// requests; `prepared_bytes`, `snapshot_bytes` and `restore_time`
    /// are those of the largest prepared artifact served so far.
    pub aggregate: RunReport,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workers={} submitted={} completed={} failed={} busy={} in_flight={} tuples={}",
            self.workers,
            self.submitted,
            self.completed,
            self.failed,
            self.busy,
            self.in_flight,
            self.tuples_served,
        )?;
        let aggregate = &self.aggregate;
        let draws = &aggregate.draw_latency;
        if let (Some(p50), Some(p99)) = (draws.p50(), draws.p99()) {
            write!(f, " draw_p50≤{p50:?} draw_p99≤{p99:?}")?;
        }
        if let (Some(p50), Some(p99)) = (self.request_p50, self.request_p99) {
            write!(f, " request_p50≤{p50:?} request_p99≤{p99:?}")?;
        }
        if aggregate.prepared_bytes > 0 {
            write!(f, " prepared_bytes={}", aggregate.prepared_bytes)?;
        }
        if aggregate.snapshot_bytes > 0 {
            write!(
                f,
                " snapshot_bytes={} restore_time={:?}",
                aggregate.snapshot_bytes, aggregate.restore_time
            )?;
        }
        Ok(())
    }
}

/// Serves one request: resolve the target (cached), mint a handle,
/// drive it with the stream the prepared query derives for the
/// request's seed. Pure in `(engine, request)` — the source of the
/// cross-thread determinism guarantee.
fn serve_request(engine: &Engine, request: &SampleRequest) -> Result<SampleResponse, CoreError> {
    #[cfg(feature = "faults")]
    if request.panic_for_test {
        panic!(
            "fault injection: request {} is a panic pill (chaos testing)",
            request.id
        );
    }
    let prepared = match &request.target {
        RequestTarget::Prepared(p) => p.clone(),
        RequestTarget::Query(q) => engine.prepare(q)?,
    };
    let mut handle = prepared.sampler(request.seed)?;
    let mut rng = prepared.rng(request.seed);
    let (tuples, report) = handle.sample_within(request.n, &mut rng, request.deadline)?;
    Ok(SampleResponse {
        id: request.id,
        tuples,
        report,
    })
}

/// Serves sampling requests over a shared [`Engine`], each on the
/// thread that submits it, at most `workers` at once.
///
/// See the [module docs](self) for admission and determinism semantics.
pub struct SamplingService {
    engine: Engine,
    counters: Counters,
    config: ServiceConfig,
    slots: Mutex<Slots>,
    /// Signalled when a slot is freed while a caller waits.
    freed: Condvar,
}

impl SamplingService {
    /// A service over `engine`; it starts no thread.
    pub fn start(engine: Engine, config: ServiceConfig) -> Self {
        Self {
            engine,
            counters: Counters::default(),
            config: ServiceConfig {
                workers: config.workers.max(1),
                ..config
            },
            slots: Mutex::new(Slots::default()),
            freed: Condvar::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs a request on the calling thread once one of the `workers`
    /// slots is free, waiting for one while every slot is taken or
    /// other callers wait. When `queue_capacity` callers wait already,
    /// the request is handed back as [`SubmitError::Busy`] with a
    /// [`retry_after_hint`](Self::retry_after_hint). The returned
    /// [`Ticket`] holds the finished result.
    // The error is as large as the request on purpose: rejection hands
    // the request back by value so the caller can retry it.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: SampleRequest) -> Result<Ticket, SubmitError> {
        let Some(_slot) = self.acquire() else {
            self.counters.busy.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy {
                request,
                retry_after: self.retry_after_hint(),
            });
        };
        let result = self.run(&request);
        Ok(Ticket {
            id: request.id,
            result,
        })
    }

    /// Takes a free slot, or waits until a finishing request hands
    /// one over; `None` when `queue_capacity` callers wait already. An
    /// accepted request is counted in `submitted` before it waits.
    fn acquire(&self) -> Option<Slot<'_>> {
        let mut slots = lock(&self.slots);
        let free = slots.running < self.config.workers;
        if !free && slots.waiting >= self.config.queue_capacity {
            return None;
        }
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if free {
            slots.running += 1;
        } else {
            slots.waiting += 1;
            slots = self
                .freed
                .wait_while(slots, |slots| slots.granted == 0)
                .unwrap_or_else(PoisonError::into_inner);
            slots.granted -= 1;
        }
        Some(Slot { service: self })
    }

    /// Runs one request on the calling thread, which holds a slot, and
    /// keeps the service's books. A request whose deadline passed
    /// before it got its slot is answered without touching the engine.
    /// A panic is contained into a typed error: the caller must get an
    /// error and the counters must balance.
    fn run(&self, request: &SampleRequest) -> Result<SampleResponse, CoreError> {
        let counters = &self.counters;
        let started = Instant::now();
        let result = if request.deadline.is_some_and(|d| started >= d) {
            Err(CoreError::DeadlineExceeded)
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_request(&self.engine, request)
            }))
            .unwrap_or_else(|_| {
                Err(CoreError::Invalid(format!(
                    "request {} panicked while sampling",
                    request.id
                )))
            })
        };
        match &result {
            Ok(response) => {
                counters.completed.fetch_add(1, Ordering::Relaxed);
                counters
                    .tuples_served
                    .fetch_add(response.tuples.len() as u64, Ordering::Relaxed);
                lock(&counters.aggregate).merge(&response.report);
                lock(&counters.request_latency).record(started.elapsed());
            }
            Err(_) => {
                counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Suggested back-off when callers are refused: the observed median
    /// service time of a request (10 µs until one completed) times
    /// `queue_capacity`, divided by the `workers` slots serving the
    /// waiting callers — roughly how long they all take — clamped to
    /// `[100 µs, 1 s]`.
    pub fn retry_after_hint(&self) -> Duration {
        const DEFAULT_REQUEST: Duration = Duration::from_micros(10);
        const MIN_HINT: Duration = Duration::from_micros(100);
        const MAX_HINT: Duration = Duration::from_secs(1);
        let per_request = lock(&self.counters.request_latency)
            .p50()
            .unwrap_or(DEFAULT_REQUEST);
        let capacity = u32::try_from(self.config.queue_capacity).unwrap_or(u32::MAX);
        let workers = u32::try_from(self.config.workers).unwrap_or(u32::MAX);
        (per_request.saturating_mul(capacity) / workers).clamp(MIN_HINT, MAX_HINT)
    }

    /// Serves a batch on at most `min(workers, len)` lanes, the calling
    /// thread one of them, each submitting the next request, and
    /// returns every response in request order. Individual failures
    /// surface as the first error after all requests resolved.
    pub fn run_batch(
        &self,
        requests: Vec<SampleRequest>,
    ) -> Result<Vec<SampleResponse>, CoreError> {
        fan_out(requests, self.config.workers, |request| {
            self.submit(request)
                .map_err(CoreError::from)
                .and_then(Ticket::wait)
        })
        .into_iter()
        .collect()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let submitted = self.counters.submitted.load(Ordering::Relaxed);
        let completed = self.counters.completed.load(Ordering::Relaxed);
        let failed = self.counters.failed.load(Ordering::Relaxed);
        let aggregate = lock(&self.counters.aggregate).clone();
        let request_latency = lock(&self.counters.request_latency).clone();
        ServiceStats {
            workers: self.config.workers,
            submitted,
            completed,
            failed,
            busy: self.counters.busy.load(Ordering::Relaxed),
            in_flight: submitted.saturating_sub(completed + failed),
            tuples_served: self.counters.tuples_served.load(Ordering::Relaxed),
            request_p50: request_latency.p50(),
            request_p99: request_latency.p99(),
            aggregate,
        }
    }

    /// Ends the service and returns its final stats. It takes the
    /// service by value, so no request is running or waiting by then.
    pub fn shutdown(self) -> ServiceStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use std::thread;
    use suj_storage::{Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn engine() -> Engine {
        let mut c = Catalog::new();
        c.register(rel(
            "r",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 30]],
        ))
        .unwrap();
        c.register(rel(
            "s",
            &["b", "c"],
            vec![vec![10, 100], vec![10, 101], vec![20, 200], vec![30, 300]],
        ))
        .unwrap();
        c.register(rel("r2", &["a", "b"], vec![vec![1, 10], vec![9, 90]]))
            .unwrap();
        c.register(rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]))
            .unwrap();
        Engine::new(c)
    }

    fn union_query() -> UnionQuery {
        UnionQuery::set_union()
            .chain("j1", ["r", "s"])
            .unwrap()
            .chain("j2", ["r2", "s2"])
            .unwrap()
    }

    fn responses_by_id(engine: &Engine, workers: usize, requests: usize) -> Vec<SampleResponse> {
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(workers));
        let batch = (0..requests as u64)
            .map(|id| SampleRequest::prepared(id, 6, &prepared))
            .collect();
        let mut responses = service.run_batch(batch).unwrap();
        responses.sort_by_key(|r| r.id);
        let stats = service.shutdown();
        assert_eq!(stats.completed, requests as u64);
        assert_eq!(stats.failed, 0);
        responses
    }

    #[test]
    fn serves_prepared_requests_and_counts() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2));
        let tickets: Vec<Ticket> = (0..10u64)
            .map(|id| {
                service
                    .submit(SampleRequest::prepared(id, 4, &prepared))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            assert_eq!(response.tuples.len(), 4);
            assert!(response.report.config.is_some());
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.tuples_served, 40);
        assert!(!stats.aggregate.draw_latency.is_empty());
        assert!(stats.to_string().contains("completed=10"));
        let final_stats = service.shutdown();
        assert_eq!(final_stats.completed, 10);
    }

    #[test]
    fn worker_count_does_not_change_samples() {
        let engine = engine();
        let one = responses_by_id(&engine, 1, 12);
        let four = responses_by_id(&engine, 4, 12);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tuples, b.tuples, "request {} diverged", a.id);
        }
    }

    #[test]
    fn query_requests_share_the_prepared_cache() {
        let engine = engine();
        let service = SamplingService::start(engine.clone(), ServiceConfig::with_workers(3));
        let batch = (0..9u64)
            .map(|id| SampleRequest::query(id, 3, union_query()))
            .collect();
        let responses = service.run_batch(batch).unwrap();
        assert_eq!(responses.len(), 9);
        service.shutdown();
        // All nine requests resolved to one cached prepared query,
        // estimated once, and only minted per-request handles.
        assert_eq!(engine.cached_queries(), 1);
        let prepared = engine.prepare(&union_query()).unwrap();
        assert_eq!(prepared.handles(), 9);
        assert!(prepared.estimations() <= 1);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let engine = engine();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2));
        let bad = UnionQuery::set_union().chain("j", ["nope", "s"]).unwrap();
        let ticket = service.submit(SampleRequest::query(1, 3, bad)).unwrap();
        assert!(ticket.wait().is_err());
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        // The service still serves good requests afterwards.
        let ok = service
            .submit(SampleRequest::query(2, 3, union_query()))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 3);
        service.shutdown();
    }

    #[test]
    fn submit_reports_busy_with_retry_hint() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service =
            SamplingService::start(engine, ServiceConfig::with_workers(1).queue_capacity(3));
        // Stand in for a running request and three waiting callers.
        *lock(&service.slots) = Slots {
            running: 1,
            waiting: 3,
            granted: 0,
        };
        match service.submit(SampleRequest::prepared(9, 4, &prepared)) {
            Err(SubmitError::Busy {
                request,
                retry_after,
            }) => {
                assert_eq!(request.id, 9, "rejected request is handed back");
                assert!(
                    retry_after >= Duration::from_micros(100)
                        && retry_after <= Duration::from_secs(1),
                    "hint out of bounds: {retry_after:?}"
                );
            }
            Ok(_) => panic!("expected Busy, got a ticket"),
        }
        let stats = service.stats();
        assert_eq!((stats.busy, stats.submitted), (1, 0));
        assert!(stats.to_string().contains("busy=1"));
        *lock(&service.slots) = Slots::default();
        let ticket = service
            .submit(SampleRequest::prepared(9, 4, &prepared))
            .unwrap();
        assert_eq!(ticket.id(), 9);
        assert_eq!(ticket.wait().unwrap().tuples.len(), 4);
        let stats = service.shutdown();
        assert_eq!((stats.busy, stats.submitted, stats.completed), (1, 1, 1));
    }

    #[test]
    fn submit_draws_what_the_library_draws_and_keeps_its_books() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        assert!(service.stats().request_p50.is_none());
        let served = service
            .submit(SampleRequest::prepared(3, 8, &prepared))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served.id, 3);
        let (reference, _) = prepared.sample(8, 3).unwrap();
        assert_eq!(served.tuples, reference, "same seed, same samples");
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 1, 0));
        assert_eq!((stats.in_flight, stats.tuples_served), (0, 8));
        assert!(stats.request_p50.is_some());
        assert_eq!(lock(&service.slots).running, 0, "the slot is released");
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
    }

    /// The bound: with both slots held, a third request waits — counted
    /// as accepted, not served — and runs once a slot is released.
    #[test]
    fn submit_waits_for_a_slot_when_every_slot_runs() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2));
        // Stand in for two requests already running.
        lock(&service.slots).running = 2;
        thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                service
                    .submit(SampleRequest::prepared(4, 8, &prepared))
                    .unwrap()
                    .wait()
                    .unwrap()
            });
            while lock(&service.slots).waiting == 0 && !waiter.is_finished() {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(20));
            let stats = service.stats();
            assert_eq!((stats.in_flight, stats.completed), (1, 0));
            assert_eq!(lock(&service.slots).running, 2);
            // Release one of the stand-ins the way a request does.
            drop(Slot { service: &service });
            assert_eq!(waiter.join().unwrap().tuples.len(), 8);
        });
        assert_eq!(lock(&service.slots).running, 1);
        let stats = service.stats();
        assert_eq!(
            (stats.submitted, stats.completed, stats.in_flight),
            (1, 1, 0)
        );
        lock(&service.slots).running = 0;
    }

    /// No barging: a slot freed while a caller waits passes to that
    /// caller, so a caller arriving meanwhile finds no free slot.
    #[test]
    fn a_freed_slot_goes_to_the_waiting_caller() {
        let service = SamplingService::start(engine(), ServiceConfig::with_workers(2));
        // Stand in for two running requests and one waiting caller.
        *lock(&service.slots) = Slots {
            running: 2,
            waiting: 1,
            granted: 0,
        };
        drop(Slot { service: &service });
        {
            let slots = lock(&service.slots);
            assert_eq!((slots.running, slots.waiting, slots.granted), (2, 0, 1));
        }
        // With nobody waiting, a finished request frees its slot.
        drop(Slot { service: &service });
        assert_eq!(lock(&service.slots).running, 1);
        *lock(&service.slots) = Slots::default();
    }

    #[test]
    fn concurrent_callers_on_two_slots_draw_the_library_samples() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2));
        thread::scope(|scope| {
            for t in 0..8u64 {
                let (service, prepared) = (&service, &prepared);
                scope.spawn(move || {
                    for r in 0..32u64 {
                        let seed = 100 * t + r;
                        let request = SampleRequest::prepared(seed, 6, prepared);
                        let served = service.submit(request).unwrap().wait().unwrap();
                        let (reference, _) = prepared.sample(6, seed).unwrap();
                        assert_eq!(served.tuples, reference, "seed {seed}");
                    }
                });
            }
        });
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed), (256, 256));
        assert_eq!((stats.failed, stats.busy, stats.in_flight), (0, 0, 0));
    }

    /// `run_batch` answers in request order, however its threads
    /// interleave, and reports the first failure only after every
    /// request resolved.
    #[test]
    fn run_batch_keeps_request_order_and_reports_the_first_error() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(3));
        let batch: Vec<_> = (0..12u64)
            .rev()
            .map(|id| SampleRequest::prepared(id, 2, &prepared))
            .collect();
        let ids: Vec<u64> = service
            .run_batch(batch)
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, (0..12).rev().collect::<Vec<_>>());
        let bad = UnionQuery::set_union().chain("j", ["nope", "s"]).unwrap();
        let mut batch: Vec<_> = (0..8u64)
            .map(|id| SampleRequest::prepared(id, 2, &prepared))
            .collect();
        batch[5] = SampleRequest::query(5, 2, bad);
        assert!(service.run_batch(batch).is_err());
        let stats = service.shutdown();
        assert_eq!(
            (stats.submitted, stats.completed, stats.failed),
            (20, 19, 1)
        );
    }

    #[test]
    fn submit_past_deadline_is_a_counted_failure() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        let late = SampleRequest::prepared(1, 4, &prepared)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            service.submit(late).unwrap().wait().unwrap_err(),
            CoreError::DeadlineExceeded
        );
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.failed, stats.in_flight), (1, 1, 0));
        service.shutdown();
    }

    /// `Instant::now() + Duration::MAX` overflows; such a budget means
    /// no deadline at all.
    #[test]
    fn unrepresentable_budget_is_no_deadline() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let request = SampleRequest::prepared(2, 16, &prepared).with_budget(Duration::MAX);
        assert!(request.deadline.is_none());
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        let served = service.submit(request).unwrap().wait().unwrap();
        assert_eq!(served.tuples.len(), 16);
        service.shutdown();
    }

    #[test]
    fn retry_after_hint_stays_clamped() {
        let engine = engine();
        // Cold service, enormous wait limit: the default per-draw estimate
        // times the capacity would exceed a second — clamped down.
        let service = SamplingService::start(
            engine.clone(),
            ServiceConfig::with_workers(1).queue_capacity(10_000_000),
        );
        assert_eq!(service.retry_after_hint(), Duration::from_secs(1));
        service.shutdown();
        // One waiting caller: the raw product underflows the floor —
        // clamped up.
        let service =
            SamplingService::start(engine, ServiceConfig::with_workers(1).queue_capacity(1));
        assert_eq!(service.retry_after_hint(), Duration::from_micros(100));
        service.shutdown();
    }

    /// Waiting callers hold requests, not draws: a service that has
    /// been serving 2048-draw requests must hint a far longer back-off
    /// than an identical service serving single draws.
    #[test]
    fn retry_after_hint_scales_with_request_size() {
        let hint_after_serving = |n: usize| {
            let engine = engine();
            let prepared = engine.prepare(&union_query()).unwrap();
            let service =
                SamplingService::start(engine, ServiceConfig::with_workers(2).queue_capacity(64));
            let batch = (0..32u64)
                .map(|id| SampleRequest::prepared(id, n, &prepared))
                .collect();
            service.run_batch(batch).unwrap();
            let stats = service.stats();
            assert!(stats.request_p50.is_some() && stats.request_p50 <= stats.request_p99);
            let hint = service.retry_after_hint();
            service.shutdown();
            hint
        };
        let (small, large) = (hint_after_serving(1), hint_after_serving(2048));
        assert!(
            large >= small * 10,
            "hint after n=2048 requests ({large:?}) must be ≥ 10× the hint after n=1 ({small:?})"
        );
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_pool_survives() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        // A deadline already in the past: rejected when the request
        // gets its slot, typed.
        let late = SampleRequest::prepared(1, 4, &prepared)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        let ticket = service.submit(late).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), CoreError::DeadlineExceeded);
        // A zero budget expires between draws at the latest: also typed.
        let starved =
            SampleRequest::prepared(2, 1_000, &prepared).with_budget(Duration::from_nanos(0));
        let ticket = service.submit(starved).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), CoreError::DeadlineExceeded);
        let stats = service.stats();
        assert_eq!(stats.failed, 2);
        // The service keeps serving.
        let ok = service
            .submit(SampleRequest::prepared(3, 4, &prepared))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 4);
        service.shutdown();
    }

    #[test]
    fn generous_deadline_does_not_change_samples() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        let plain = service
            .submit(SampleRequest::prepared(5, 8, &prepared))
            .unwrap()
            .wait()
            .unwrap();
        let bounded = service
            .submit(
                SampleRequest::prepared(6, 8, &prepared)
                    .with_seed(5)
                    .with_budget(Duration::from_secs(60)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            plain.tuples, bounded.tuples,
            "a deadline that never fires must not alter the draw sequence"
        );
        service.shutdown();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn panic_pill_is_contained_and_typed() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        let pill = SampleRequest::prepared(1, 4, &prepared).with_panic_for_test();
        let ticket = service.submit(pill).unwrap();
        let err = ticket.wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "got: {err}");
        // The service still serves on its one slot.
        let ok = service
            .submit(SampleRequest::prepared(2, 4, &prepared))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 4);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Compile-time: the whole serving surface crosses threads.
    #[test]
    fn serving_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<SamplingService>();
        assert_send_sync::<SampleRequest>();
        assert_send_sync::<SampleResponse>();
    }
}
