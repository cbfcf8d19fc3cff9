//! # spacefungus
//!
//! Umbrella crate for the *Big Data Space Fungus* reproduction (M. Kersten,
//! CIDR 2015): an embedded relational store in which **data decays by
//! design**.
//!
//! The paper's two "natural laws for Big Data":
//!
//! 1. **Rotting** — every relation `R(t, f, A1..An)` decays under a
//!    pluggable *data fungus* on a periodic clock until it has completely
//!    disappeared (tuples whose freshness `f` reaches 0 are evicted);
//! 2. **Freshness** — every query *consumes*: the extent of `R` is
//!    replaced by the union of the answer set and the reduced extent
//!    (`SELECT … CONSUME`), with departing tuples distilled into bounded
//!    summaries first.
//!
//! ## Quick start
//!
//! ```
//! use spacefungus::prelude::*;
//!
//! // A database with a deterministic seed.
//! let mut db = Database::new(42);
//!
//! // A container whose extent rots under the paper's EGI fungus.
//! let schema = Schema::from_pairs(&[
//!     ("sensor", DataType::Int),
//!     ("reading", DataType::Float),
//! ]).unwrap();
//! db.create_container("readings", schema, ContainerPolicy::new(FungusSpec::egi_default()))
//!     .unwrap();
//!
//! // Ingest, advance the decay clock, query.
//! db.execute("INSERT INTO readings VALUES (1, 20.5), (2, 21.0)").unwrap();
//! db.run_for(3); // three decay cycles
//! let out = db.execute("SELECT COUNT(*) FROM readings").unwrap();
//! assert!(out.result.scalar().unwrap().as_i64().unwrap() <= 2);
//!
//! // The second natural law: reading with CONSUME removes what you read.
//! db.execute("SELECT * FROM readings WHERE reading > 20 CONSUME").unwrap();
//! ```
//!
//! See the crate-level docs of the member crates for each subsystem:
//! [`fungus_core`] (engine), [`fungus_fungi`] (decay models),
//! [`fungus_storage`] (segmented store), [`fungus_query`] (SQL-ish layer),
//! [`fungus_summary`] (cooking schemes), [`fungus_clock`] (virtual time),
//! [`fungus_workload`] (experiment workloads).

pub use fungus_clock;
pub use fungus_core;
pub use fungus_fungi;
pub use fungus_query;
pub use fungus_server;
pub use fungus_shard;
pub use fungus_storage;
pub use fungus_summary;
pub use fungus_types;
pub use fungus_workload;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use fungus_clock::{DeterministicRng, TickScheduler, VirtualClock};
    pub use fungus_core::{
        Container, ContainerPolicy, Database, DistillSpec, DistillTrigger, HealthMonitor,
        HealthReport, HealthStatus, MvccTelemetry, QueryOutcome, SharedDatabase, SnapshotHandle,
    };
    pub use fungus_fungi::{EgiConfig, FungusSpec, SeedBias};
    pub use fungus_query::{parse_statement, Expr, ResultSet, Statement};
    pub use fungus_shard::{ShardSpec, ShardedExtent};
    pub use fungus_storage::{SpotCensus, StorageConfig, TableStats, TableStore};
    pub use fungus_summary::{AnySummary, SummarySpec};
    pub use fungus_types::{
        ColumnDef, DataType, Freshness, FungusError, Result, Schema, Tick, TickDelta, Tuple,
        TupleId, Value,
    };
    pub use fungus_workload::{
        baseline_policies, DecayedTruth, GroundTruth, LogEventStream, QueryMix, SensorStream,
        Trace, TrendingItems, Workload, Zipf,
    };
}
