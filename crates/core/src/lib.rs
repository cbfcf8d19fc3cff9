//! # fungus-core
//!
//! The spacefungus engine — the primary contribution of *Big Data Space
//! Fungus* (Kersten, CIDR 2015) turned into a working embedded store.
//!
//! A [`Database`] is a catalog of [`Container`]s. Each container is the
//! paper's relation `R(t, f, A1..An)`:
//!
//! * a time-ordered tuple store (`fungus-storage`) holding the attributes
//!   plus per-tuple insertion time `t` and freshness `f`;
//! * an attached **data fungus** (`fungus-fungi`) applied on a periodic
//!   decay clock — the first natural law;
//! * **query-consume execution** (`fungus-query`): `SELECT … CONSUME`
//!   replaces the extent by the answer set's complement — the second
//!   natural law;
//! * **distillation pipelines** (`fungus-summary`): tuples leaving the
//!   extent (consumed or rotted) are folded into bounded summaries first,
//!   honouring "inspect them once before removal";
//! * a **health monitor** that scores how well the owner is keeping the
//!   store "in optimal health condition".
//!
//! ```
//! use fungus_core::{ContainerPolicy, Database};
//! use fungus_fungi::FungusSpec;
//! use fungus_types::{DataType, Schema, Value};
//!
//! let mut db = Database::new(42);
//! let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
//! let policy = ContainerPolicy::new(FungusSpec::Retention { max_age: 100 });
//! db.create_container("readings", schema, policy).unwrap();
//!
//! db.execute("INSERT INTO readings VALUES (1), (2), (3)").unwrap();
//! let out = db.execute("SELECT * FROM readings WHERE v >= 2 CONSUME").unwrap();
//! assert_eq!(out.result.len(), 2);
//! assert_eq!(db.container("readings").unwrap().read().live_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod container;
pub mod database;
pub mod ddl;
pub mod distill;
pub mod health;
pub mod metrics;
pub mod mvcc;
pub mod policy;
pub mod route;
pub mod shared;

pub use container::{Container, DecayReport};
pub use database::{Database, QueryOutcome};
pub use ddl::{resolve_create_container, resolve_distill, resolve_sharding};
pub use distill::{DistillSpec, DistillTrigger, Distiller};
pub use fungus_shard::{ShardSpec, ShardedExtent};
pub use health::{HealthMonitor, HealthReport, HealthStatus};
pub use metrics::{EngineMetrics, MvccTelemetry, ShardTelemetry, SketchTelemetry};
pub use mvcc::{ContainerMvcc, SnapshotHandle, Versioned};
pub use policy::ContainerPolicy;
pub use route::RouteSpec;
pub use shared::SharedDatabase;
