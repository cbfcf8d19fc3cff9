//! # fungus-shard
//!
//! Time-range sharded container extents. A relation's extent is an
//! ordered set of **shards** — contiguous slices of the insertion-time
//! axis — each with its own freshness/zone summary (one never-sealing
//! shard when the container declares no sharding clause):
//!
//! - **Pruning:** scans skip whole shards via per-shard min/max tick, id,
//!   and freshness bounds before touching tuples (segment zone maps still
//!   apply inside surviving shards).
//! - **Dirty-shard sweeps:** eviction visits shards one at a time on the
//!   calling thread and skips clean ones outright via per-shard dirty
//!   flags. Nothing fans out, so no answer depends on a thread count.
//! - **O(1) rot drops:** a shard whose live tuples have all rotted is
//!   detached whole — one id-range gap — instead of being tombstoned
//!   tuple by tuple and compacted later.
//! - **Adaptive lifecycle:** with [`ShardSpec::adaptive`] on, each
//!   eviction sweep seals the tail early under insert pressure and merges
//!   hollowed-out sealed neighbors below a low-water live fraction —
//!   boundaries follow live-count drift while staying a pure function of
//!   the operation history.
//! - **Determinism:** EGI seed selection stays globally age-weighted on
//!   the container's single RNG stream over the id-ordered candidate
//!   list, and spread stays local along the time axis, so a sharded
//!   extent is bit-for-bit equivalent to a monolithic one under the same
//!   seed — for *any* shard count. A shard draws no randomness of its
//!   own.
//!
//! See [`ShardedExtent`] for the equivalence contract and the cost-model
//! differences (which are the point of sharding).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod extent;
pub mod shard;
pub mod snapshot;

pub use config::ShardSpec;
pub use extent::{
    DroppedRangeManifest, ShardLayoutManifest, ShardManifest, ShardRecord, ShardStructure,
    ShardedExtent,
};
pub use shard::Shard;
pub use snapshot::{ExtentSnapshot, SnapshotShard};
