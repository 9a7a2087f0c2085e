//! Set-up and tear-down of the served system, and the bookkeeping of
//! attempted and failed operations shared by both kinds of run.

use crate::workloads::Inputs;
use crate::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use suj_core::{Engine, PlanSummary, PreparedQuery, ServiceConfig};
use suj_net::{Client, RemotePrepared, Server};

/// One client connection with the handle of the query it prepared.
pub struct Connection {
    pub client: Client,
    pub remote: RemotePrepared,
}

/// Everything between "relations in memory" and "the first batch can
/// be requested", for both faces: the library caller holds `prepared`,
/// the wire callers hold `connections`.
pub struct Deployment {
    pub engine: Engine,
    pub prepared: Arc<PreparedQuery>,
    server: Server,
    pub connections: Vec<Connection>,
}

impl Deployment {
    /// Fresh catalog → engine → plan, estimate and build → bind a
    /// loopback server → connect and prepare remotely.
    pub fn set_up(inputs: &Inputs, workers: usize, clients: usize) -> Result<Deployment> {
        let engine = inputs.engine()?;
        let prepared = engine.prepare(&inputs.query)?;
        let server = Server::bind(
            engine.clone(),
            "127.0.0.1:0",
            ServiceConfig::with_workers(workers),
        )?;
        let mut connections = Vec::with_capacity(clients);
        for _ in 0..clients {
            let mut client = Client::connect(server.addr())?;
            let remote = client.prepare(&inputs.query)?;
            connections.push(Connection { client, remote });
        }
        Ok(Deployment {
            engine,
            prepared,
            server,
            connections,
        })
    }

    /// Checks that the planner chose the rule the workload was built
    /// to exercise; returns the plan summary.
    pub fn check_rule(&self, inputs: &Inputs, ops: &mut Ops) -> PlanSummary {
        let summary = self.prepared.summary().clone();
        ops.check(
            summary.rule.as_deref() == Some(inputs.expected_rule),
            || {
                format!(
                    "plan rule is {:?}, workload was built for {}",
                    summary.rule, inputs.expected_rule
                )
            },
        );
        summary
    }

    /// Closes the connections, then stops the server and waits for its
    /// threads (closed sockets let the connection threads end at once
    /// instead of at their next shutdown poll).
    pub fn tear_down(self) -> Result<()> {
        drop(self.connections);
        self.server.stop();
        self.server.join()?;
        Ok(())
    }
}

/// Keeps the machine's other hardware thread busy while a
/// single-threaded phase is timed.
///
/// The sandbox's two CPUs behave as hyperthreads whose neighbour is at
/// times idle and at times busy, for tens of seconds at a stretch:
/// identical single-threaded work took 2.21 ms in the one state and
/// 2.85 ms in the other, and six runs of one seed ranged over 23%.
/// With the neighbour occupied by a register-only spin loop of our
/// own, the slower state is the usual one (six runs of one seed: 1%),
/// and it is also the state the wire face, with all its threads busy,
/// runs in. Phases that start threads run without it: a thread born
/// on the ballast's CPU waits a scheduler tick (4 ms) for its turn.
/// Dropping the ballast stops it.
pub struct Ballast {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Ballast {
    /// Starts the ballast thread, if the machine has a second core.
    pub fn start() -> Ballast {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let thread = (cores > 1).then(|| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut x = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..1024 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    std::hint::black_box(x);
                }
            })
        });
        Ballast { stop, thread }
    }
}

impl Drop for Ballast {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}

/// Attempted and failed operations of a run. An operation is a served
/// request, a set-up or restore, or one verification of an output.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts `count` operations that succeeded.
    pub fn passed(&mut self, count: u64) {
        self.attempted += count;
    }

    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Folds another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}
