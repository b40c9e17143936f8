//! # coin-core — the Context Interchange mediation engine
//!
//! The paper's primary contribution: "mediated data access in which
//! semantic conflicts among heterogeneous systems are not identified a
//! priori, but are detected and reconciled by a context mediator through
//! comparison of contexts" (abstract).
//!
//! * [`model`] — the COIN data model: domain model of semantic types with
//!   modifiers, per-context theories, elevation axioms, and conversion
//!   functions (\[GBMS96\]);
//! * [`encode`] — compiles the model into an abductive logic program for
//!   `coin-logic`;
//! * [`mediate`] — the abductive rewriting procedure (\[KK93\]): a receiver's
//!   conjunctive SQL becomes a UNION of sub-queries, one per potential
//!   conflict, each with explicit conversion expressions and joins against
//!   ancillary conversion sources;
//! * [`system`] — [`system::CoinSystem`]: sources + contexts + mediator +
//!   multi-database access engine, the deployment unit of Figure 1;
//! * [`prepared`] — compile-once / execute-many [`prepared::PreparedQuery`]
//!   artifacts (parsed SQL + mediated UNION + optimized plan);
//! * [`versions`] — fine-grained model versioning: a vector clock over
//!   [`versions::ModelPart`]s plus the [`versions::PlanDeps`] read
//!   footprints that make invalidation dependency-exact;
//! * [`cache`] — the bounded, dependency-invalidated LRU cache of
//!   prepared queries behind [`system::CoinSystem::prepare`];
//! * [`fixtures`] — the Figure 2 scenario and synthetic n-source
//!   deployments.
//!
//! ## Quickstart (paper §3)
//!
//! ```
//! use coin_core::fixtures::figure2_system;
//!
//! let sys = figure2_system();
//! let q1 = "SELECT r1.cname, r1.revenue FROM r1, r2 \
//!           WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";
//!
//! // Naive execution returns the paper's "incorrect" empty answer…
//! let (naive, _) = sys.query_naive(q1).unwrap();
//! assert!(naive.rows.is_empty());
//!
//! // …while mediation detects the currency/scale conflicts and answers
//! // <'NTT', 9_600_000>.
//! let answer = sys.query(q1, "c_recv").unwrap();
//! assert_eq!(answer.table.rows.len(), 1);
//! assert_eq!(answer.table.rows[0][0], coin_rel::Value::str("NTT"));
//! assert_eq!(answer.table.rows[0][1], coin_rel::Value::Float(9_600_000.0));
//! ```

pub mod cache;
pub mod encode;
pub mod fixtures;
pub mod mediate;
pub mod model;
pub mod prepared;
pub mod system;
pub mod versions;

pub use cache::{CacheStats, FlightPermit, PrepareSlot, QueryCache};
pub use mediate::{BranchReport, Mediated, MediationError, Mediator};
pub use model::{
    ContextTheory, Conversion, ConversionRegistry, DomainModel, Elevation, ElevationRegistry,
    ModelError, ModifierSpec, SemanticType,
};
pub use prepared::{CacheStatus, MediatedRows, PreparedQuery};
pub use system::{CoinError, CoinSystem, MediatedAnswer};
pub use versions::{ModelPart, ModelVersions, PlanDeps};
// Streaming consumers (the server) speak the planner's row type without
// depending on coin-planner themselves.
pub use coin_planner::{ExecStats, PlanRows};
