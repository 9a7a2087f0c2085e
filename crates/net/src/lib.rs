//! Network serving tier for the union sampling engine.
//!
//! Two subsystems turn a prepared engine into a deployable service:
//!
//! - [`protocol`] + [`server`] + [`client`] — a versioned,
//!   length-prefixed binary protocol over plain `std::net` TCP (no
//!   async runtime, no HTTP). A [`Server`] fronts an
//!   [`Engine`](suj_core::catalog::Engine) and a
//!   [`SamplingService`](suj_core::serve::SamplingService) slot
//!   gate; a request runs on its connection thread once a slot is
//!   free, and when too many connection threads wait for one the
//!   backpressure travels on the wire as a typed `Busy` response with
//!   a retry hint.
//! - snapshot-restored replicas — combined with
//!   `Engine::{save_snapshot, load_snapshot}` (in `suj-core`), a cold
//!   process restores catalog + prepared-query cache from a snapshot
//!   file and serves `Sample` requests bit-identical to the original
//!   engine, without re-running estimation.
//!
//! Determinism is end-to-end: for a given prepared query (which owns
//! the root seed) and request seed, the drawn samples are byte-identical
//! whether obtained in-process via
//! [`PreparedQuery::sample`](suj_core::catalog::PreparedQuery::sample),
//! over TCP, or from a restored replica.
//!
//! ```no_run
//! use suj_core::catalog::{Catalog, Engine};
//! use suj_core::query::UnionQuery;
//! use suj_core::serve::ServiceConfig;
//! use suj_net::{Client, Server};
//!
//! let engine = Engine::new(Catalog::new());
//! let server = Server::bind(engine, "127.0.0.1:0", ServiceConfig::default())?;
//! let addr = server.addr();
//!
//! let mut client = Client::connect(addr)?;
//! let prepared = client.prepare(&UnionQuery::set_union())?;
//! let batch = client.sample(&prepared, 100, 42)?;
//! assert_eq!(batch.tuples.len(), 100);
//! client.shutdown()?;
//! server.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod protocol;
pub mod server;

pub use client::{Client, RemotePrepared, SampleBatch};
pub use faults::{Conn, FaultConfig, FaultInjector, FaultPlan};
pub use protocol::{Frame, NetError, WireStats};
pub use server::{Server, ServerOptions};
