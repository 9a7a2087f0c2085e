//! Facade crate for the `sample-union-joins` workspace.
//!
//! Re-exports the public API of every sub-crate so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! ```
//! use sample_union_joins::prelude::*;
//! ```
//!
//! The declarative entry point is [`Catalog`] → [`UnionQuery`] →
//! [`Engine`]: register relations by name (in memory, CSV, or TPC-H via
//! [`CatalogTpchExt`]), describe the union of joins, and let the
//! engine's planner choose the strategy (for Algorithm 1, with its
//! estimator and cover), weights and predicate mode. `SamplerBuilder`
//! remains the thin explicit-configuration path.
//!
//! For concurrent serving, `Engine::prepare` yields a shareable
//! `Arc<PreparedQuery>` (estimation paid once, handles minted per
//! thread) and [`SamplingService`] serves requests on their callers'
//! threads, at most `workers` at once, with a deterministic
//! per-request RNG contract.
//!
//! For network serving, [`Server`] exposes the engine over a
//! length-prefixed TCP protocol (see `suj-net`), and
//! `Engine::{save_snapshot, load_snapshot}` persist prepared artifacts
//! so cold replicas restore without re-running estimation.
//!
//! See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` for the paper-to-module map.

pub use suj_core as core;
pub use suj_join as join;
pub use suj_net as net;
pub use suj_stats as stats;
pub use suj_storage as storage;
pub use suj_tpch as tpch;

pub use suj_core::catalog::{Catalog, Engine, PreparedQuery};
pub use suj_core::planner::{Plan, PlanRule, Planner, PlannerConfig};
pub use suj_core::query::{JoinDef, UnionQuery, UnionSemantics};
pub use suj_core::serve::{
    SampleRequest, SampleResponse, SamplingService, ServiceConfig, ServiceStats,
};
pub use suj_net::{Client, NetError, Server, ServerOptions, WireStats};

#[cfg(feature = "faults")]
pub use suj_net::{FaultConfig, FaultPlan};

use suj_core::error::CoreError;
use suj_tpch::TpchConfig;

// The README's Rust blocks compile and run as this crate's doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// TPC-H loader hook for the engine's [`Catalog`]: registers the
/// deterministic generator's base tables (`region`, `nation`,
/// `supplier`, `customer`, `orders`, `lineitem`, `part`, `partsupp`)
/// so declarative queries can name them directly.
pub trait CatalogTpchExt {
    /// Generates and registers the TPC-H style tables for `config`.
    /// Fails if any table name is already registered.
    fn register_tpch(&mut self, config: &TpchConfig) -> Result<usize, CoreError>;
}

impl CatalogTpchExt for Catalog {
    fn register_tpch(&mut self, config: &TpchConfig) -> Result<usize, CoreError> {
        Ok(self.import(&suj_tpch::generate_catalog(config))?)
    }
}

/// Commonly used items across the workspace.
pub mod prelude {
    pub use suj_core::prelude::*;
    pub use suj_join::prelude::*;
    pub use suj_stats::{RunningMoments, SujRng};
    pub use suj_storage::prelude::*;
    pub use suj_tpch::prelude::*;

    pub use crate::CatalogTpchExt;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::CatalogTpchExt;

    #[test]
    fn tpch_loader_hook_registers_base_tables() {
        let mut catalog = Catalog::new();
        let config = TpchConfig::new(1, 3);
        let added = catalog.register_tpch(&config).unwrap();
        assert_eq!(added, 8);
        for table in [
            "region", "nation", "supplier", "customer", "orders", "lineitem", "part", "partsupp",
        ] {
            assert!(catalog.contains(table), "missing {table}");
        }
        // Re-registering collides.
        assert!(catalog.register_tpch(&config).is_err());
    }

    #[test]
    fn tpch_query_end_to_end_without_manual_configuration() {
        let mut catalog = Catalog::new();
        catalog.register_tpch(&TpchConfig::new(1, 3)).unwrap();
        let query = UnionQuery::set_union()
            .chain("q", ["nation", "supplier"])
            .unwrap();
        let engine = Engine::new(catalog);
        let prepared = engine.prepare(&query).unwrap();
        let mut rng = SujRng::seed_from_u64(9);
        let (samples, report) = prepared.run(20, &mut rng).unwrap();
        assert_eq!(samples.len(), 20);
        assert!(report.config.is_some());
    }
}
