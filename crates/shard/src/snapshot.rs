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
//! in id order through the same shard walk the live extent runs, so a
//! snapshot scan hands its sink exactly the tuples a locked scan of the
//! same logical state would. Whole-shard pruning uses the summary captured
//! at publish time (exactly the live summary of that moment), and pruned
//! shards feed the *shared* `shards_pruned` counter — snapshot reads and
//! locked reads accumulate into one gauge.
//!
//! [`ShardedExtent`]: crate::ShardedExtent

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fungus_query::{LogicalPlan, MetaRanges, ReadExtent, ScanOutcome};
use fungus_storage::TableStore;
use fungus_types::{Result, Schema, Tick, Tuple};

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
    /// Live tuples across the shards, counted once at publish: every read
    /// asks for it to bound the deferred-touch queue.
    live: usize,
}

impl ExtentSnapshot {
    /// Assembles a snapshot from per-shard sealed states. `shards` must be
    /// in id order — the extent publishes them by walking its shard list.
    pub fn new(schema: Schema, shards: Vec<SnapshotShard>, pruned: Arc<AtomicU64>) -> Self {
        debug_assert!(shards.windows(2).all(|w| w[0].end <= w[1].base));
        ExtentSnapshot {
            schema,
            live: shards.iter().map(|s| s.store.live_count()).sum(),
            shards,
            pruned,
        }
    }

    /// Live tuples across the snapshot's shards.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of shards captured at publish time.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The sealed shards in id order.
    pub fn shards(&self) -> &[SnapshotShard] {
        &self.shards
    }
}

impl ReadExtent for ExtentSnapshot {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn scan(
        &self,
        plan: &LogicalPlan,
        now: Tick,
        sink: &mut dyn FnMut(&Tuple),
    ) -> Result<ScanOutcome> {
        let shards = self.shards.iter().map(|sh| (&*sh.store, sh.ranges));
        scan_shards(shards, plan, now, sink, &self.pruned)
    }
}

/// Scans shards, given in id order with their summaries, into `sink`:
/// an empty shard is skipped, one its summary rules out is counted pruned
/// (into `pruned` as well), and every other shard scans its store. Live
/// extents and their snapshots both scan through here, so one order of
/// visits and one set of counters serves both.
pub(crate) fn scan_shards<'a>(
    shards: impl Iterator<Item = (&'a TableStore, MetaRanges)>,
    plan: &LogicalPlan,
    now: Tick,
    sink: &mut dyn FnMut(&Tuple),
    pruned: &AtomicU64,
) -> Result<ScanOutcome> {
    let mut out = ScanOutcome::default();
    for (store, ranges) in shards {
        if store.live_count() == 0 {
            continue;
        }
        if !plan.pruning.shard_may_match(&ranges, now) {
            out.pruned_shards += 1;
            continue;
        }
        let s = store.scan(plan, now, sink)?;
        out.scanned += s.scanned;
        out.pruned_segments += s.pruned_segments;
        out.used_index |= s.used_index;
    }
    pruned.fetch_add(out.pruned_shards as u64, Ordering::Relaxed);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardSpec, ShardedExtent};
    use fungus_clock::DeterministicRng;
    use fungus_query::QueryExtent;
    use fungus_storage::StorageConfig;
    use fungus_types::{DataType, TupleId, Value};

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
        let store = &snap.shards()[0].store;
        assert_eq!(
            store.get(TupleId(3)).unwrap().values[0],
            Value::Int(3),
            "point read resolves through the single shard"
        );
        assert!(store.get(TupleId(5)).is_none());
    }
}
