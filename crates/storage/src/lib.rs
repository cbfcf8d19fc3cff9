//! # fungus-storage
//!
//! The time-ordered tuple store underneath every spacefungus container.
//!
//! The paper's relation `R(t, f, A1..An)` needs a store with three unusual
//! properties:
//!
//! 1. **insertion order is the time axis** — the EGI fungus spreads rot to
//!    "direct neighbouring tuples", i.e. the tuples adjacent in insertion
//!    order, so the store must answer neighbour queries cheaply;
//! 2. **per-tuple decay state** — freshness and infection flags mutate on
//!    every decay tick without moving tuples;
//! 3. **high eviction churn** — both natural laws continuously remove
//!    tuples, so deletion must be cheap (tombstones) with background
//!    [compaction](table::TableStore::compact) reclaiming space.
//!
//! The design: a [`TableStore`] is an ordered list of fixed-capacity
//! [`Segment`]s; each segment covers a contiguous [`TupleId`] range, holds
//! row-major tuples, a tombstone array, and a per-column [`ZoneMap`] used by
//! the query engine for segment pruning. Fungi mutate tuples through the
//! narrow [`DecaySurface`] trait so every decay model stays
//! storage-agnostic.
//!
//! Persistence is one binary [`snapshot`] encoding of a store, which the
//! engine's checkpoint writes once per shard.
//!
//! [`TupleId`]: fungus_types::TupleId

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
pub mod config;
pub mod index;
pub mod segment;
pub mod snapshot;
pub mod stats;
pub mod surface;
pub mod table;
pub mod zonemap;

pub use config::StorageConfig;
pub use index::{HashIndex, OrdIndex};
pub use segment::{HoleRun, Segment, Slot, TombstoneReason};
pub use snapshot::{decode_table, encode_table, load_from_file, save_to_file};
pub use stats::{FreshnessHistogram, SpotCensus, TableStats};
pub use surface::DecaySurface;
pub use table::{CompactionReport, TableStore};
pub use zonemap::ZoneMap;
