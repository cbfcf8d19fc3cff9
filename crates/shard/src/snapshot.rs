//! Sealed copy-on-write snapshots of a sharded extent.
//!
//! [`ExtentSnapshot`] is the read-only twin of [`ShardedExtent`]: the same
//! shard boundaries and summaries, but every store behind an `Arc`. It
//! implements [`ReadExtent`], so `execute_readonly` answers
//! `SELECT` (without `CONSUME`) against it with **no locks at all** —
//! readers holding a snapshot never contend with decay ticks or consumers
//! mutating the live extent.
//!
//! What two consecutive snapshots share, by level: a shard nothing wrote
//! between them is the same `Arc<TableStore>`; a written shard is a new
//! `TableStore` whose segments and indexes are the same `Arc`s except the
//! ones a write touched (see [`Shard::snapshot_store`]); a copied segment
//! still shares every row's `Arc<[Value]>`. The schema is one shared
//! allocation throughout. A snapshot therefore pins exactly the segments
//! the live extent has since replaced, not a second copy of the extent.
//!
//! [`Shard::snapshot_store`]: crate::Shard::snapshot_store
//!
//! Determinism carries over unchanged: the snapshot's shards are visited
//! in id order and each scan is the same [`scan_store`] the live extent
//! runs, so a snapshot scan returns exactly the ids a locked scan of the
//! same logical state would. Whole-shard pruning uses the summary captured
//! at publish time (exactly the live summary of that moment), and pruned
//! shards feed the *shared* `shards_pruned` counter — snapshot reads and
//! locked reads accumulate into one gauge.
//!
//! [`ShardedExtent`]: crate::ShardedExtent

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fungus_query::{scan_store, LogicalPlan, MetaRanges, ReadExtent, ScanOutcome};
use fungus_storage::TableStore;
use fungus_types::{Result, Schema, Tick, Tuple, TupleId};

/// One shard's sealed state inside an [`ExtentSnapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotShard {
    /// The shard's store as of publish time (the same `Arc` the live shard
    /// caches until it is next written).
    pub store: Arc<TableStore>,
    /// First id of the shard's range.
    pub base: u64,
    /// One past the highest id handed out at publish time.
    pub end: u64,
    /// The pruning summary as of publish time.
    pub ranges: MetaRanges,
}

/// A sealed, immutable view of a container extent at one epoch.
///
/// Cheap to clone (per-shard `Arc`s); dropping the last clone releases the
/// stores, and with them every segment the live extent no longer shares.
#[derive(Debug, Clone)]
pub struct ExtentSnapshot {
    schema: Schema,
    /// Snapshot shards in id order (`base` ascending, ranges disjoint).
    shards: Vec<SnapshotShard>,
    /// The owning extent's cumulative pruning gauge, shared so snapshot
    /// scans and locked scans count into the same diagnostic.
    pruned: Arc<AtomicU64>,
}

impl ExtentSnapshot {
    /// Assembles a snapshot from per-shard sealed states. `shards` must be
    /// in id order — the extent publishes them by walking its shard list.
    pub fn new(schema: Schema, shards: Vec<SnapshotShard>, pruned: Arc<AtomicU64>) -> Self {
        debug_assert!(shards.windows(2).all(|w| w[0].end <= w[1].base));
        ExtentSnapshot {
            schema,
            shards,
            pruned,
        }
    }

    /// Live tuples across the snapshot's shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.store.live_count()).sum()
    }

    /// Number of shards captured at publish time.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sealed shards in id order.
    pub fn shards(&self) -> &[SnapshotShard] {
        &self.shards
    }

    /// The snapshot shard covering `id`, if any.
    fn locate(&self, id: TupleId) -> Option<&SnapshotShard> {
        let idx = self.shards.partition_point(|s| s.end <= id.get());
        let sh = self.shards.get(idx)?;
        (sh.base <= id.get()).then_some(sh)
    }
}

impl ReadExtent for ExtentSnapshot {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn scan(&self, plan: &LogicalPlan, now: Tick) -> Result<ScanOutcome> {
        let mut out = ScanOutcome::default();
        for sh in &self.shards {
            if sh.store.live_count() == 0 {
                continue;
            }
            if !plan.pruning.shard_may_match(&sh.ranges, now) {
                out.pruned_shards += 1;
                continue;
            }
            let s = scan_store(&sh.store, plan, now)?;
            out.matched.extend(s.matched);
            out.scanned += s.scanned;
            out.pruned_segments += s.pruned_segments;
            out.used_index |= s.used_index;
        }
        self.pruned
            .fetch_add(out.pruned_shards as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn peek(&self, id: TupleId) -> Option<&Tuple> {
        self.locate(id)?.store.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardSpec, ShardedExtent};
    use fungus_clock::DeterministicRng;
    use fungus_query::QueryExtent;
    use fungus_storage::StorageConfig;
    use fungus_types::{DataType, Value};

    #[test]
    fn monolithic_snapshot_answers_point_reads() {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut ext = ShardedExtent::new(
            schema,
            StorageConfig::for_tests(),
            ShardSpec::default(),
            &DeterministicRng::new(1),
        )
        .unwrap();
        for i in 0..5i64 {
            ext.insert(vec![Value::Int(i)], Tick(i as u64)).unwrap();
        }
        let snap = ext.publish_snapshot();
        assert_eq!(snap.shard_count(), 1);
        assert_eq!(snap.live_count(), 5);
        assert_eq!(
            snap.peek(TupleId(3)).unwrap().values[0],
            Value::Int(3),
            "point read resolves through the single shard"
        );
        assert!(snap.peek(TupleId(5)).is_none());
    }
}
