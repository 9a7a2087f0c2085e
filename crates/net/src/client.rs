//! A blocking TCP client for the sampling protocol.
//!
//! One [`Client`] owns one connection; requests are issued
//! synchronously (send frame, wait for the matching response).
//!
//! # Resilience
//!
//! - `Busy` responses are retried with exponential backoff and
//!   deterministic seeded jitter, honoring the server's drain hint as
//!   the floor, up to a bounded retry budget — after which the call
//!   fails with [`NetError::Busy`] so callers can apply their own
//!   policy.
//! - Connection resets can be retried transparently on a fresh
//!   connection ([`Client::with_reconnect`]) — prepared ids are
//!   server-wide, not per-connection, so a reconnected client can keep
//!   sampling the same prepared query. Sampling is seeded and
//!   idempotent, so a retry returns bit-identical tuples.
//! - Response frames that fail their payload CRC
//!   ([`NetError::Checksum`]) are retried on the same connection under
//!   the same bounded budget; the stream framing is intact, only the
//!   bytes were damaged.
//! - Typed server failures map to typed errors:
//!   [`NetError::DeadlineExceeded`] and [`NetError::ShuttingDown`]
//!   instead of opaque `Remote` codes.

use crate::faults::Conn;
#[cfg(any(test, feature = "faults"))]
use crate::faults::FaultPlan;
use crate::protocol::{
    decode_batch, decode_payload, ErrorReply, Frame, NetError, PreparedPayload, WireStats,
    ERR_DEADLINE, ERR_SHUTTING_DOWN, OP_BATCH, OP_BUSY, OP_ERROR, OP_PREPARE, OP_PREPARED,
    OP_SAMPLE, OP_SHUTDOWN, OP_SHUTDOWN_ACK, OP_STATS, OP_STATS_REPLY,
};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use suj_core::query::UnionQuery;
use suj_stats::rng::SujRng;
use suj_storage::snapshot::Codec;
use suj_storage::Tuple;

/// How many `Busy` responses a call absorbs before giving up.
const DEFAULT_BUSY_RETRIES: usize = 32;

/// Backoff floor when the server supplies no (or a zero) retry hint.
const MIN_BACKOFF: Duration = Duration::from_micros(500);

/// Cap on the exponential backoff base, before jitter.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// A server-side prepared query, addressed by id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemotePrepared {
    /// Server-assigned handle for subsequent `Sample` requests.
    pub id: u64,
    /// Estimation passes the server spent preparing (0 when restored
    /// from a snapshot).
    pub estimations: u64,
    /// The server's plan summary line.
    pub summary: String,
}

/// A decoded sample batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBatch {
    /// Canonical attribute names, in schema order.
    pub attrs: Vec<String>,
    /// The sampled rows.
    pub tuples: Vec<Tuple>,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    conn: Conn,
    addr: SocketAddr,
    next_request: u64,
    busy_retries: usize,
    reconnect_attempts: usize,
    io_timeout: Option<Duration>,
    retry_rng: SujRng,
    #[cfg(any(test, feature = "faults"))]
    fault_plan: Option<FaultPlan>,
    #[cfg(any(test, feature = "faults"))]
    conn_seq: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            conn: Conn::new(stream, None),
            addr,
            next_request: 1,
            busy_retries: DEFAULT_BUSY_RETRIES,
            reconnect_attempts: 0,
            io_timeout: None,
            retry_rng: SujRng::seed_from_u64(0),
            #[cfg(any(test, feature = "faults"))]
            fault_plan: None,
            #[cfg(any(test, feature = "faults"))]
            conn_seq: 0,
        })
    }

    /// Overrides how many `Busy` responses a call absorbs before
    /// failing with [`NetError::Busy`]. Zero disables retries.
    #[must_use = "builder methods return the updated client"]
    pub fn with_busy_retries(mut self, retries: usize) -> Self {
        self.busy_retries = retries;
        self
    }

    /// Seeds the deterministic backoff jitter. Two clients with the
    /// same seed sleep the same schedule; defaults to seed 0.
    #[must_use = "builder methods return the updated client"]
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_rng = SujRng::seed_from_u64(seed);
        self
    }

    /// Allows a `Sample` call to survive up to `attempts` connection
    /// resets by reconnecting and retrying. Prepared ids are
    /// server-wide, so the retried request is the same request;
    /// sampling is seeded, so the retried answer is bit-identical.
    #[must_use = "builder methods return the updated client"]
    pub fn with_reconnect(mut self, attempts: usize) -> Self {
        self.reconnect_attempts = attempts;
        self
    }

    /// Sets a read/write timeout on the socket so a stalled server
    /// surfaces as a timeout error instead of blocking forever.
    pub fn with_io_timeout(self, timeout: Duration) -> Result<Self, NetError> {
        self.conn.stream().set_read_timeout(Some(timeout))?;
        self.conn.stream().set_write_timeout(Some(timeout))?;
        let mut this = self;
        this.io_timeout = Some(timeout);
        Ok(this)
    }

    /// Installs a deterministic fault plan: this connection (and any
    /// reconnect) reads and writes through an injector derived from
    /// `(plan seed, connection index)`. Chaos builds only.
    #[cfg(any(test, feature = "faults"))]
    #[must_use = "builder methods return the updated client"]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        let injector = plan.injector(self.conn_seq);
        self.fault_plan = Some(plan);
        self.conn = Conn::new(
            self.conn.stream().try_clone().expect("clone socket"),
            Some(injector),
        );
        self
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Replaces the dead connection with a fresh one to the same
    /// address, re-applying socket options and the fault plan.
    fn reconnect(&mut self) -> Result<(), NetError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        if let Some(t) = self.io_timeout {
            stream.set_read_timeout(Some(t))?;
            stream.set_write_timeout(Some(t))?;
        }
        #[cfg(any(test, feature = "faults"))]
        let injector = {
            self.conn_seq += 1;
            self.fault_plan.as_ref().map(|p| p.injector(self.conn_seq))
        };
        #[cfg(not(any(test, feature = "faults")))]
        let injector = None;
        self.conn = Conn::new(stream, injector);
        Ok(())
    }

    /// Exponential backoff with deterministic jitter: attempt `k`
    /// sleeps in `[base, 2·base)` where `base = hint << k`, floored at
    /// the server's hint (never retry before the server asked) and
    /// capped at [`MAX_BACKOFF`] before jitter.
    fn backoff(&mut self, hint: Duration, attempt: u32) -> Duration {
        let base = hint
            .max(MIN_BACKOFF)
            .saturating_mul(1u32 << attempt.min(10))
            .min(MAX_BACKOFF)
            .max(hint);
        let jitter = base.mul_f64(self.retry_rng.next_f64());
        base + jitter
    }

    /// One request/response round-trip, checking the response echoes
    /// the request id and translating `Error` frames.
    fn round_trip(&mut self, request: &Frame) -> Result<Frame, NetError> {
        request.write_to(&mut self.conn)?;
        self.conn.flush()?;
        let response = Frame::read_from(&mut self.conn)?;
        if response.request_id != request.request_id {
            return Err(NetError::Protocol(format!(
                "response id {} does not match request id {}",
                response.request_id, request.request_id
            )));
        }
        if response.opcode == OP_ERROR {
            let ErrorReply { code, message } = decode_payload("Error", &response.payload)?;
            return Err(match code {
                ERR_DEADLINE => NetError::DeadlineExceeded,
                ERR_SHUTTING_DOWN => NetError::ShuttingDown,
                _ => NetError::Remote { code, message },
            });
        }
        Ok(response)
    }

    /// Prepares `query` on the server, returning its remote handle.
    pub fn prepare(&mut self, query: &UnionQuery) -> Result<RemotePrepared, NetError> {
        let request = Frame {
            opcode: OP_PREPARE,
            request_id: self.next_id(),
            payload: query.to_bytes(),
        };
        let response = self.round_trip(&request)?;
        if response.opcode != OP_PREPARED {
            return Err(unexpected(OP_PREPARED, response.opcode));
        }
        let (id, estimations, summary): PreparedPayload =
            decode_payload("Prepared", &response.payload)?;
        Ok(RemotePrepared {
            id,
            estimations,
            summary,
        })
    }

    /// Draws `n` samples from a prepared query under `seed`,
    /// transparently retrying `Busy` responses with exponential
    /// backoff seeded-jittered above the server's hint.
    pub fn sample(
        &mut self,
        prepared: &RemotePrepared,
        n: usize,
        seed: u64,
    ) -> Result<SampleBatch, NetError> {
        self.sample_by_id(prepared.id, n, seed)
    }

    /// Like [`Client::sample`] with a per-request deadline budget: the
    /// server answers [`NetError::DeadlineExceeded`] if it cannot
    /// finish in time.
    pub fn sample_within(
        &mut self,
        prepared: &RemotePrepared,
        n: usize,
        seed: u64,
        budget: Duration,
    ) -> Result<SampleBatch, NetError> {
        self.sample_request(prepared.id, n, seed, budget_ns(budget))
    }

    /// Like [`Client::sample`], addressing the prepared query by raw
    /// id.
    pub fn sample_by_id(
        &mut self,
        prepared_id: u64,
        n: usize,
        seed: u64,
    ) -> Result<SampleBatch, NetError> {
        self.sample_request(prepared_id, n, seed, 0)
    }

    fn sample_request(
        &mut self,
        prepared_id: u64,
        n: usize,
        seed: u64,
        budget_ns: u64,
    ) -> Result<SampleBatch, NetError> {
        let mut busy_budget = self.busy_retries;
        let mut reconnects = self.reconnect_attempts;
        let mut attempt: u32 = 0;
        loop {
            let request = Frame {
                opcode: OP_SAMPLE,
                request_id: self.next_id(),
                payload: (prepared_id, n as u64, seed, budget_ns).to_bytes(),
            };
            let response = match self.round_trip(&request) {
                Ok(r) => r,
                Err(NetError::Checksum { .. }) if reconnects > 0 => {
                    // The response was damaged in transit but the
                    // stream framing survived: retry on the same
                    // connection.
                    reconnects -= 1;
                    continue;
                }
                Err(e) if reconnects > 0 && transport_corruption(&e) => {
                    reconnects -= 1;
                    // The old connection is dead or its framing can no
                    // longer be trusted; back off briefly, then
                    // rebuild it. Sampling is seeded and idempotent,
                    // so the retry cannot change the answer.
                    std::thread::sleep(self.backoff(MIN_BACKOFF, attempt));
                    attempt = attempt.saturating_add(1);
                    self.reconnect()?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match response.opcode {
                OP_BATCH => {
                    let (attrs, tuples) = decode_batch(&response.payload)?;
                    return Ok(SampleBatch { attrs, tuples });
                }
                OP_BUSY => {
                    let hint: Duration = decode_payload("Busy", &response.payload)?;
                    if busy_budget == 0 {
                        return Err(NetError::Busy(hint));
                    }
                    busy_budget -= 1;
                    std::thread::sleep(self.backoff(hint, attempt));
                    attempt = attempt.saturating_add(1);
                }
                other => return Err(unexpected(OP_BATCH, other)),
            }
        }
    }

    /// Fetches the server's service counters.
    pub fn stats(&mut self) -> Result<WireStats, NetError> {
        let request = Frame::empty(OP_STATS, self.next_id());
        let response = self.round_trip(&request)?;
        if response.opcode != OP_STATS_REPLY {
            return Err(unexpected(OP_STATS_REPLY, response.opcode));
        }
        decode_payload("Stats", &response.payload)
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        let request = Frame::empty(OP_SHUTDOWN, self.next_id());
        let response = self.round_trip(&request)?;
        if response.opcode != OP_SHUTDOWN_ACK {
            return Err(unexpected(OP_SHUTDOWN_ACK, response.opcode));
        }
        Ok(())
    }
}

/// True for errors that mean the connection itself failed or its
/// framing can no longer be trusted — a reset, a corrupted header
/// (bad magic/version), or a response that desynced from its request.
/// These are retryable on a fresh connection for idempotent requests.
fn transport_corruption(e: &NetError) -> bool {
    matches!(
        e,
        NetError::ConnectionReset
            | NetError::BadMagic(_)
            | NetError::UnsupportedVersion(_)
            | NetError::Protocol(_)
    )
}

/// Clamps a [`Duration`] budget into the wire's nanosecond word; zero
/// stays zero (no deadline).
fn budget_ns(budget: Duration) -> u64 {
    u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX)
}

fn unexpected(wanted: u16, got: u16) -> NetError {
    NetError::Protocol(format!(
        "expected response opcode {wanted:#06x}, got {got:#06x}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_floors_at_hint_and_is_deterministic() {
        let mk = || {
            let stream = {
                let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let s = TcpStream::connect(addr).unwrap();
                let _ = listener.accept().unwrap();
                s
            };
            Client {
                conn: Conn::new(stream, None),
                addr: "127.0.0.1:1".parse().unwrap(),
                next_request: 1,
                busy_retries: 0,
                reconnect_attempts: 0,
                io_timeout: None,
                retry_rng: SujRng::seed_from_u64(42),
                fault_plan: None,
                conn_seq: 0,
            }
        };
        let hint = Duration::from_millis(3);
        let mut a = mk();
        let mut b = mk();
        for attempt in 0..8 {
            let sa = a.backoff(hint, attempt);
            let sb = b.backoff(hint, attempt);
            assert_eq!(sa, sb, "same seed, same schedule");
            assert!(sa >= hint, "never retry before the server's hint");
            assert!(sa <= 2 * MAX_BACKOFF.max(hint), "bounded above");
        }
        // The base doubles until the cap.
        let mut c = mk();
        let early = c.backoff(hint, 0);
        let late = c.backoff(hint, 9);
        assert!(late > early);
    }
}
