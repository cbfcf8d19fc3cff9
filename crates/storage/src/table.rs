//! The table store: an ordered sequence of segments.

use std::collections::BTreeSet;
use std::sync::Arc;

use fungus_types::{
    Freshness, FungusError, Result, Schema, Tick, Tuple, TupleId, TupleMeta, Value,
};

use crate::config::StorageConfig;
use crate::index::{HashIndex, OrdIndex};
use crate::segment::{Segment, TombstoneReason};
use crate::stats::TableStats;

/// What one [`compact`](TableStore::compact) pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Fully dead sealed segments dropped outright.
    pub segments_dropped: usize,
    /// Sparse-converted (or summary-rebuilt) segments.
    pub segments_compacted: usize,
    /// Approximate bytes reclaimed (slot memory of dropped/converted
    /// segments; a lower bound).
    pub bytes_reclaimed: usize,
}

/// The physical store behind one container: time-ordered segments of
/// tuples, the infected-tuple index, and eviction accounting.
///
/// ```
/// use fungus_storage::TableStore;
/// use fungus_types::{DataType, Schema, Tick, Value};
///
/// let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
/// let mut table = TableStore::new(schema, Default::default()).unwrap();
/// let id = table.insert(vec![Value::Int(42)], Tick(1)).unwrap();
/// assert_eq!(table.live_count(), 1);
/// assert_eq!(table.get(id).unwrap().values[0], Value::Int(42));
/// ```
///
/// ## Copy-on-write
///
/// `Clone` is how a version is sealed, and it copies nothing a later write
/// could not afford to copy again: the schema, every segment and every
/// index sit behind `Arc`s, so a clone is one reference count each. The
/// two copies then diverge by what is written — a writer un-shares
/// (`Arc::make_mut`) exactly the segment or index it changes, and leaves a
/// unique one in place at the cost of one uncontended atomic.
#[derive(Debug, Clone)]
pub struct TableStore {
    schema: Schema,
    config: StorageConfig,
    segments: Vec<Arc<Segment>>,
    /// The segment a write last resolved an id to. Fungi, eviction sweeps
    /// and deferred touches feed ids in ascending order, so the next id is
    /// almost always in the same segment; a stale cursor costs one search.
    write_cursor: usize,
    /// First id this store may allocate (0 for a standalone table; a
    /// shard's global range start when the store backs a shard).
    base: u64,
    next_id: u64,
    total_inserted: u64,
    infected: BTreeSet<TupleId>,
    indexes: Vec<Arc<HashIndex>>,
    ord_indexes: Vec<Arc<OrdIndex>>,
    evicted_rotted: u64,
    evicted_consumed: u64,
    evicted_deleted: u64,
    /// Rotted tuples that were never returned by any query — the paper's
    /// wasted rice.
    rotted_unread: u64,
}

impl TableStore {
    /// Creates an empty store.
    pub fn new(schema: Schema, config: StorageConfig) -> Result<Self> {
        config.validate()?;
        Ok(TableStore {
            schema,
            config,
            segments: Vec::new(),
            write_cursor: 0,
            base: 0,
            next_id: 0,
            total_inserted: 0,
            infected: BTreeSet::new(),
            indexes: Vec::new(),
            ord_indexes: Vec::new(),
            evicted_rotted: 0,
            evicted_consumed: 0,
            evicted_deleted: 0,
            rotted_unread: 0,
        })
    }

    /// Creates an empty store whose first insert receives id `base`.
    ///
    /// Sharded extents give every shard a contiguous id range; each shard's
    /// store keeps absolute ids so tuple ids stay globally unique and
    /// time-ordered across the whole extent.
    pub fn with_base(schema: Schema, config: StorageConfig, base: TupleId) -> Result<Self> {
        let mut store = TableStore::new(schema, config)?;
        store.base = base.get();
        store.next_id = base.get();
        Ok(store)
    }

    /// First id this store may allocate (0 unless built via
    /// [`with_base`](Self::with_base) or restored from a based snapshot).
    #[inline]
    pub fn base(&self) -> TupleId {
        TupleId(self.base)
    }

    /// The store's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The store's configuration.
    #[inline]
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Validates, normalises, and appends a row at time `now`, returning the
    /// new tuple's id.
    pub fn insert(&mut self, values: Vec<Value>, now: Tick) -> Result<TupleId> {
        let values = self.schema.normalise_row(values)?;
        let id = TupleId(self.next_id);
        let tuple = Tuple::new(id, now, values);
        self.push_tail(tuple);
        Ok(id)
    }

    /// Appends a pre-built tuple during snapshot/WAL restore. The tuple's id
    /// must be the next dense id.
    pub fn insert_restored(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.meta.id.get() != self.next_id {
            return Err(FungusError::CorruptSnapshot(format!(
                "restore out of order: expected id {}, got {}",
                self.next_id, tuple.meta.id
            )));
        }
        self.schema.check_row(&tuple.values)?;
        if tuple.meta.infected {
            self.infected.insert(tuple.meta.id);
        }
        self.push_tail(tuple);
        Ok(())
    }

    /// Records a tombstone during restore (the tuple never materialises).
    pub fn tombstone_restored(&mut self, reason: TombstoneReason) -> Result<()> {
        let id = TupleId(self.next_id);
        self.next_id += 1;
        self.total_inserted += 1;
        let arity = self.zone_arity();
        let seg = self.tail_segment(arity);
        seg.push_slot_restored(crate::segment::Slot::Tombstone(reason));
        debug_assert!(seg.covers(id));
        match reason {
            TombstoneReason::Rotted => self.evicted_rotted += 1,
            TombstoneReason::Consumed => self.evicted_consumed += 1,
            TombstoneReason::Deleted => self.evicted_deleted += 1,
        }
        Ok(())
    }

    fn push_tail(&mut self, tuple: Tuple) {
        self.next_id += 1;
        self.total_inserted += 1;
        for idx in &mut self.indexes {
            let col = idx.column();
            Arc::make_mut(idx).insert(tuple.meta.id, &tuple.values[col]);
        }
        for idx in &mut self.ord_indexes {
            let col = idx.column();
            Arc::make_mut(idx).insert(tuple.meta.id, &tuple.values[col]);
        }
        let arity = self.zone_arity();
        self.tail_segment(arity).push(tuple);
    }

    /// Zone maps cover every column, or none when disabled by config (the
    /// pruning ablation): a zero-arity map has no entries, so every
    /// pruning check conservatively answers "may match".
    fn zone_arity(&self) -> usize {
        if self.config.zone_maps {
            self.schema.arity()
        } else {
            0
        }
    }

    fn tail_segment(&mut self, arity: usize) -> &mut Segment {
        let needs_new = match self.segments.last() {
            Some(seg) => seg.is_sealed(),
            None => true,
        };
        if needs_new {
            let base = TupleId(self.next_id - 1);
            self.segments.push(Arc::new(Segment::new(
                base,
                self.config.segment_capacity,
                arity,
            )));
        }
        Arc::make_mut(self.segments.last_mut().expect("tail exists"))
    }

    /// Binary-searches the segment covering `id`.
    fn segment_index(&self, id: TupleId) -> Option<usize> {
        let idx = self.segments.partition_point(|s| s.end() <= id);
        (idx < self.segments.len() && self.segments[idx].covers(id)).then_some(idx)
    }

    /// The live tuple with `id`, if present.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        let idx = self.segment_index(id)?;
        self.segments[idx].get(id)
    }

    /// The segment holding `id` live, un-shared for writing. The cursor is
    /// re-checked before searching, and a dead or unknown id returns before
    /// anything is copied.
    fn segment_mut(&mut self, id: TupleId) -> Option<&mut Segment> {
        let hit = self.segments.get(self.write_cursor);
        if !hit.is_some_and(|s| s.covers(id)) {
            self.write_cursor = self.segment_index(id)?;
        }
        let seg = &mut self.segments[self.write_cursor];
        seg.get(id)?;
        Some(Arc::make_mut(seg))
    }

    /// Mutable access to the live tuple with `id` (metadata mutation only).
    /// Copies the tuple's segment first if a clone of this store still
    /// shares it.
    pub fn get_mut(&mut self, id: TupleId) -> Option<&mut Tuple> {
        self.segment_mut(id)?.get_mut(id)
    }

    /// Tombstones `id`, returning the removed tuple and maintaining the
    /// infected index and eviction accounting.
    pub fn delete(&mut self, id: TupleId, reason: TombstoneReason) -> Option<Tuple> {
        let tuple = self.segment_mut(id)?.remove(id, reason)?;
        self.infected.remove(&id);
        for index in &mut self.indexes {
            let col = index.column();
            Arc::make_mut(index).remove(id, &tuple.values[col]);
        }
        for index in &mut self.ord_indexes {
            let col = index.column();
            Arc::make_mut(index).remove(id, &tuple.values[col]);
        }
        match reason {
            TombstoneReason::Rotted => {
                self.evicted_rotted += 1;
                if tuple.meta.never_read() {
                    self.rotted_unread += 1;
                }
            }
            TombstoneReason::Consumed => self.evicted_consumed += 1,
            TombstoneReason::Deleted => self.evicted_deleted += 1,
        }
        Some(tuple)
    }

    /// Records a read access on `id` at time `now`.
    pub fn touch(&mut self, id: TupleId, now: Tick) {
        self.touch_by(id, now, 1);
    }

    /// Records `reads` read accesses on `id` at once, the latest at `at`.
    pub fn touch_by(&mut self, id: TupleId, at: Tick, reads: u32) {
        if let Some(t) = self.get_mut(id) {
            t.meta.touch_by(at, reads);
        }
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.segments.iter().map(|s| s.live_count()).sum()
    }

    /// Total tuples ever inserted (live + evicted).
    #[inline]
    pub fn total_inserted(&self) -> u64 {
        self.total_inserted
    }

    /// The id the next insert will receive.
    #[inline]
    pub fn next_id(&self) -> TupleId {
        TupleId(self.next_id)
    }

    /// Approximate live-data heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.approx_bytes()).sum()
    }

    /// Tuples evicted by rot (first law).
    #[inline]
    pub fn evicted_rotted(&self) -> u64 {
        self.evicted_rotted
    }

    /// Tuples consumed by queries (second law).
    #[inline]
    pub fn evicted_consumed(&self) -> u64 {
        self.evicted_consumed
    }

    /// Tuples explicitly deleted.
    #[inline]
    pub fn evicted_deleted(&self) -> u64 {
        self.evicted_deleted
    }

    /// Rotted tuples that no query ever read.
    #[inline]
    pub fn rotted_unread(&self) -> u64 {
        self.rotted_unread
    }

    /// The segments in id order (query planning iterates these and prunes
    /// via [`Segment::zone`]). Two stores hold the same `Arc` for a segment
    /// neither has written since one was cloned from the other.
    #[inline]
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Iterates all live tuples in insertion order.
    pub fn iter_live(&self) -> impl Iterator<Item = &Tuple> {
        self.segments.iter().flat_map(|s| s.iter_live())
    }

    /// The nearest live neighbours of `id` along the time axis:
    /// `(predecessor, successor)`. `id` itself need not be live. Scans
    /// outward from `id`, skipping tombstones, so the cost is proportional
    /// to the hole size being crossed — in EGI that is the rot spot width.
    pub fn live_neighbors(&self, id: TupleId) -> (Option<TupleId>, Option<TupleId>) {
        let pred = self.prev_live(id);
        let succ = self.next_live(id);
        (pred, succ)
    }

    fn prev_live(&self, id: TupleId) -> Option<TupleId> {
        let mut cur = id.pred()?;
        loop {
            if self.get(cur).is_some() {
                return Some(cur);
            }
            cur = cur.pred()?;
        }
    }

    fn next_live(&self, id: TupleId) -> Option<TupleId> {
        let mut cur = id.succ();
        let end = TupleId(self.next_id);
        while cur < end {
            if self.get(cur).is_some() {
                return Some(cur);
            }
            cur = cur.succ();
        }
        None
    }

    /// Greatest live id strictly below `id`, or `None`. Unlike
    /// [`live_neighbors`](Self::live_neighbors) the scan is clamped to this
    /// store's own id range, so a sharded extent probing a predecessor
    /// shard does not pay for the id distance between shards.
    pub fn prev_live_below(&self, id: TupleId) -> Option<TupleId> {
        let floor = self.segments.first()?.base();
        let mut cur = TupleId(id.get().min(self.next_id)).pred()?;
        while cur >= floor {
            if self.get(cur).is_some() {
                return Some(cur);
            }
            cur = cur.pred()?;
        }
        None
    }

    /// Smallest live id at or above `id`, clamped to this store's range.
    pub fn next_live_from(&self, id: TupleId) -> Option<TupleId> {
        let mut cur = id.max(self.segments.first()?.base());
        let end = TupleId(self.next_id);
        while cur < end {
            if self.get(cur).is_some() {
                return Some(cur);
            }
            cur = cur.succ();
        }
        None
    }

    /// Marks `id` infected at `now`, maintaining the infected index.
    /// Returns false if the tuple is not live.
    pub fn infect(&mut self, id: TupleId, now: Tick) -> bool {
        if let Some(t) = self.get_mut(id) {
            t.meta.infect(now);
            self.infected.insert(id);
            true
        } else {
            false
        }
    }

    /// Cures `id`, clearing its infection.
    pub fn cure(&mut self, id: TupleId) -> bool {
        self.infected.remove(&id);
        if let Some(t) = self.get_mut(id) {
            t.meta.cure();
            true
        } else {
            false
        }
    }

    /// Cures every infected tuple (owner intervention in experiment E10).
    pub fn cure_all(&mut self) -> usize {
        let ids: Vec<TupleId> = self.infected.iter().copied().collect();
        for id in &ids {
            if let Some(t) = self.get_mut(*id) {
                t.meta.cure();
            }
        }
        self.infected.clear();
        ids.len()
    }

    /// The ids of currently infected live tuples, in id order.
    pub fn infected_ids(&self) -> Vec<TupleId> {
        self.infected.iter().copied().collect()
    }

    /// Number of infected live tuples.
    #[inline]
    pub fn infected_count(&self) -> usize {
        self.infected.len()
    }

    /// Builds a secondary hash index on the named column, covering every
    /// live tuple. Duplicate indexes are rejected.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| FungusError::UnknownColumn(column.to_string()))?;
        if self.indexes.iter().any(|i| i.column() == col) {
            return Err(FungusError::InvalidConfig(format!(
                "column `{column}` is already indexed"
            )));
        }
        let mut index = HashIndex::new(col);
        for t in self.iter_live() {
            index.insert(t.meta.id, &t.values[col]);
        }
        self.indexes.push(Arc::new(index));
        Ok(())
    }

    /// Drops the index on the named column; returns whether one existed.
    pub fn drop_index(&mut self, column: &str) -> bool {
        let Some(col) = self.schema.index_of(column) else {
            return false;
        };
        let before = self.indexes.len();
        self.indexes.retain(|i| i.column() != col);
        self.indexes.len() != before
    }

    /// The column indices that currently carry a hash index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(|i| i.column()).collect()
    }

    /// Index probe: live tuple ids whose column `col` equals any of
    /// `values`, in insertion order. `None` when the column is unindexed
    /// (the caller must fall back to a scan). Falls back to an ordered
    /// index when no hash index covers the column.
    pub fn index_probe(&self, col: usize, values: &[Value]) -> Option<Vec<TupleId>> {
        if let Some(i) = self.indexes.iter().find(|i| i.column() == col) {
            return Some(i.lookup_any(values));
        }
        self.ord_indexes
            .iter()
            .find(|i| i.column() == col)
            .map(|i| {
                let mut out: BTreeSet<TupleId> = BTreeSet::new();
                for v in values {
                    out.extend(i.lookup(v));
                }
                out.into_iter().collect()
            })
    }

    /// Builds an ordered (B-tree) index on the named column, enabling range
    /// probes via [`ord_range_probe`](Self::ord_range_probe).
    pub fn create_ord_index(&mut self, column: &str) -> Result<()> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| FungusError::UnknownColumn(column.to_string()))?;
        if self.ord_indexes.iter().any(|i| i.column() == col) {
            return Err(FungusError::InvalidConfig(format!(
                "column `{column}` already has an ordered index"
            )));
        }
        let mut index = OrdIndex::new(col);
        for t in self.iter_live() {
            index.insert(t.meta.id, &t.values[col]);
        }
        self.ord_indexes.push(Arc::new(index));
        Ok(())
    }

    /// The columns carrying ordered indexes.
    pub fn ord_indexed_columns(&self) -> Vec<usize> {
        self.ord_indexes.iter().map(|i| i.column()).collect()
    }

    /// Ordered-index range probe on column `col`; `None` when the column
    /// has no ordered index.
    pub fn ord_range_probe(
        &self,
        col: usize,
        lo: Option<(&Value, bool)>,
        hi: Option<(&Value, bool)>,
    ) -> Option<Vec<TupleId>> {
        self.ord_indexes
            .iter()
            .find(|i| i.column() == col)
            .map(|i| i.range(lo, hi))
    }

    /// Reduces the freshness of `id` by `amount`; returns the new freshness,
    /// or `None` if the tuple is not live. Does *not* evict — eviction is a
    /// separate [`evict_rotten`](Self::evict_rotten) pass so fungi can
    /// observe the rotten state within a tick.
    pub fn decay(&mut self, id: TupleId, amount: f64) -> Option<fungus_types::Freshness> {
        let t = self.get_mut(id)?;
        t.meta.freshness = t.meta.freshness.decayed(amount);
        Some(t.meta.freshness)
    }

    /// Multiplies the freshness of `id` by `factor` (clamped to `[0, 1]`).
    pub fn scale_freshness(&mut self, id: TupleId, factor: f64) -> Option<fungus_types::Freshness> {
        let t = self.get_mut(id)?;
        t.meta.freshness = t.meta.freshness.scaled(factor);
        Some(t.meta.freshness)
    }

    /// One rot walk: offers every live tuple's metadata to `step` in id
    /// order and stores each freshness it returns (`None` writes nothing).
    /// A segment is un-shared at its first write, so one that no row
    /// changes stays the allocation every clone of this store holds.
    /// Returns the lowest freshness written, `None` if nothing was.
    pub fn rot_walk(
        &mut self,
        step: &mut dyn FnMut(&TupleMeta) -> Option<Freshness>,
    ) -> Option<Freshness> {
        let mut lowest: Option<Freshness> = None;
        let mut write = |meta: &mut TupleMeta, f: Freshness| {
            meta.freshness = f;
            lowest = Some(lowest.map_or(f, |l| l.min(f)));
        };
        for seg in &mut self.segments {
            let first = seg
                .iter_live()
                .enumerate()
                .find_map(|(i, t)| step(&t.meta).map(|f| (i, f)));
            let Some((skip, f)) = first else { continue };
            let mut rest = Arc::make_mut(seg).live_metas_mut().skip(skip);
            write(rest.next().expect("the row found above"), f);
            for meta in rest {
                if let Some(f) = step(meta) {
                    write(meta, f);
                }
            }
        }
        lowest
    }

    /// Removes every tuple whose freshness has reached zero, returning the
    /// evicted tuples (the engine feeds them to distillation sinks before
    /// they are lost, honouring "inspect them once before removal").
    pub fn evict_rotten(&mut self) -> Vec<Tuple> {
        let rotten: Vec<TupleId> = self
            .iter_live()
            .filter(|t| t.meta.is_rotten())
            .map(|t| t.meta.id)
            .collect();
        let mut evicted = Vec::with_capacity(rotten.len());
        for id in rotten {
            if let Some(t) = self.delete(id, TombstoneReason::Rotted) {
                evicted.push(t);
            }
        }
        evicted
    }

    /// One maintenance pass: drops fully dead sealed segments and converts
    /// sparse-eligible sealed dense segments (live fraction below the
    /// configured threshold) to the compact layout. A segment the pass
    /// leaves alone stays shared with whatever clone holds it.
    pub fn compact(&mut self) -> CompactionReport {
        let arity = self.zone_arity();
        let threshold = self.config.compact_live_threshold;
        let mut report = CompactionReport::default();
        // Never touch the unsealed tail segment.
        let sealed_len = self.segments.iter().take_while(|s| s.is_sealed()).count();
        let mut kept = Vec::with_capacity(self.segments.len());
        for (i, mut seg) in std::mem::take(&mut self.segments).into_iter().enumerate() {
            if i < sealed_len && seg.live_count() == 0 {
                report.segments_dropped += 1;
                report.bytes_reclaimed +=
                    seg.slot_count() * std::mem::size_of::<crate::segment::Slot>();
                continue;
            }
            if i < sealed_len && !seg.is_sparse() && seg.live_fraction() < threshold {
                report.segments_compacted += 1;
                report.bytes_reclaimed +=
                    seg.tombstone_count() * std::mem::size_of::<crate::segment::Slot>();
                Arc::make_mut(&mut seg).compact(arity);
            }
            kept.push(seg);
        }
        self.segments = kept;
        report
    }

    /// Point-in-time statistics over the live extent.
    pub fn stats(&self, now: Tick) -> TableStats {
        TableStats::collect(self, now)
    }

    /// Consumes the store, returning every live tuple in id order.
    ///
    /// This is the whole-shard drop path: no per-tuple tombstoning, index
    /// maintenance, or hole bookkeeping happens — the caller records one
    /// id-range gap for the entire store instead. A segment this store is
    /// the last owner of is taken apart by value; one a pinned reader
    /// still holds gives up copies of its live rows (a reference count
    /// each) and the reader keeps the original.
    pub fn into_live_tuples(self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.live_count());
        for seg in self.segments {
            match Arc::try_unwrap(seg) {
                Ok(owned) => out.extend(owned.into_live()),
                Err(shared) => out.extend(shared.iter_live().cloned()),
            }
        }
        out
    }

    /// Overwrites the eviction counters with exact recorded values
    /// (snapshot restore and shard/monolithic conversions — replay cannot
    /// reconstruct `rotted_unread`).
    pub fn set_counters(&mut self, rotted: u64, consumed: u64, deleted: u64, rotted_unread: u64) {
        self.evicted_rotted = rotted;
        self.evicted_consumed = consumed;
        self.evicted_deleted = deleted;
        self.rotted_unread = rotted_unread;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_types::DataType;

    fn small_table() -> TableStore {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        TableStore::new(schema, StorageConfig::for_tests()).unwrap()
    }

    fn fill(table: &mut TableStore, n: u64) -> Vec<TupleId> {
        (0..n)
            .map(|i| table.insert(vec![Value::Int(i as i64)], Tick(i)).unwrap())
            .collect()
    }

    #[test]
    fn insert_allocates_dense_ids_across_segments() {
        let mut t = small_table();
        let ids = fill(&mut t, 20);
        assert_eq!(ids.first(), Some(&TupleId(0)));
        assert_eq!(ids.last(), Some(&TupleId(19)));
        assert_eq!(
            t.segments().len(),
            3,
            "capacity 8 → 3 segments for 20 tuples"
        );
        assert_eq!(t.live_count(), 20);
        assert_eq!(t.total_inserted(), 20);
        for id in ids {
            assert_eq!(t.get(id).unwrap().meta.id, id);
        }
    }

    #[test]
    fn insert_validates_against_schema() {
        let mut t = small_table();
        assert!(t.insert(vec![Value::from("no")], Tick(0)).is_err());
        assert!(t.insert(vec![], Tick(0)).is_err());
        assert_eq!(t.live_count(), 0, "failed inserts allocate nothing");
        assert_eq!(t.next_id(), TupleId(0));
    }

    #[test]
    fn delete_accounts_by_reason() {
        let mut t = small_table();
        let ids = fill(&mut t, 5);
        t.delete(ids[0], TombstoneReason::Rotted);
        t.delete(ids[1], TombstoneReason::Consumed);
        t.delete(ids[2], TombstoneReason::Deleted);
        assert_eq!(t.evicted_rotted(), 1);
        assert_eq!(t.evicted_consumed(), 1);
        assert_eq!(t.evicted_deleted(), 1);
        assert_eq!(t.rotted_unread(), 1, "rotted tuple was never read");
        assert_eq!(t.live_count(), 2);
        assert!(t.delete(ids[0], TombstoneReason::Rotted).is_none());
    }

    #[test]
    fn touched_then_rotted_is_not_waste() {
        let mut t = small_table();
        let ids = fill(&mut t, 2);
        t.touch(ids[0], Tick(3));
        t.delete(ids[0], TombstoneReason::Rotted);
        t.delete(ids[1], TombstoneReason::Rotted);
        assert_eq!(t.evicted_rotted(), 2);
        assert_eq!(
            t.rotted_unread(),
            1,
            "only the untouched tuple counts as waste"
        );
    }

    #[test]
    fn live_neighbors_skip_tombstones() {
        let mut t = small_table();
        let ids = fill(&mut t, 10);
        t.delete(ids[4], TombstoneReason::Rotted);
        t.delete(ids[5], TombstoneReason::Rotted);
        // Neighbours of the hole's centre.
        assert_eq!(t.live_neighbors(ids[4]), (Some(ids[3]), Some(ids[6])));
        assert_eq!(t.live_neighbors(ids[5]), (Some(ids[3]), Some(ids[6])));
        // Edges of the table.
        assert_eq!(t.live_neighbors(ids[0]), (None, Some(ids[1])));
        assert_eq!(t.live_neighbors(ids[9]), (Some(ids[8]), None));
    }

    #[test]
    fn infection_index_tracks_state() {
        let mut t = small_table();
        let ids = fill(&mut t, 6);
        assert!(t.infect(ids[2], Tick(9)));
        assert!(t.infect(ids[4], Tick(9)));
        assert_eq!(t.infected_ids(), vec![ids[2], ids[4]]);
        assert_eq!(t.infected_count(), 2);
        // Deleting an infected tuple clears it from the index.
        t.delete(ids[2], TombstoneReason::Rotted);
        assert_eq!(t.infected_ids(), vec![ids[4]]);
        // Curing clears flag and index.
        assert!(t.cure(ids[4]));
        assert_eq!(t.infected_count(), 0);
        assert!(!t.get(ids[4]).unwrap().meta.infected);
        // Infecting a dead tuple fails.
        assert!(!t.infect(ids[2], Tick(10)));
    }

    #[test]
    fn cure_all_clears_everything() {
        let mut t = small_table();
        let ids = fill(&mut t, 4);
        for id in &ids {
            t.infect(*id, Tick(1));
        }
        assert_eq!(t.cure_all(), 4);
        assert_eq!(t.infected_count(), 0);
        assert!(t.iter_live().all(|x| !x.meta.infected));
    }

    #[test]
    fn decay_and_evict_rotten() {
        let mut t = small_table();
        let ids = fill(&mut t, 4);
        t.decay(ids[0], 1.5);
        t.decay(ids[1], 0.4);
        assert!(t.get(ids[0]).unwrap().meta.is_rotten());
        let evicted = t.evict_rotten();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].meta.id, ids[0]);
        assert_eq!(t.live_count(), 3);
        assert_eq!(t.evicted_rotted(), 1);
        assert!((t.get(ids[1]).unwrap().meta.freshness.get() - 0.6).abs() < 1e-12);
        assert!(
            t.decay(ids[0], 0.1).is_none(),
            "decaying a dead tuple is None"
        );
    }

    #[test]
    fn scale_freshness_multiplies() {
        let mut t = small_table();
        let ids = fill(&mut t, 1);
        t.scale_freshness(ids[0], 0.5);
        t.scale_freshness(ids[0], 0.5);
        assert!((t.get(ids[0]).unwrap().meta.freshness.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn compaction_drops_dead_and_sparsifies() {
        let mut t = small_table();
        let ids = fill(&mut t, 24); // 3 sealed segments of 8
                                    // Kill all of segment 0, most of segment 1, nothing in segment 2.
        for id in &ids[0..8] {
            t.delete(*id, TombstoneReason::Rotted);
        }
        for id in &ids[8..15] {
            t.delete(*id, TombstoneReason::Consumed);
        }
        let report = t.compact();
        assert_eq!(report.segments_dropped, 1);
        assert_eq!(report.segments_compacted, 1);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(t.live_count(), 9);
        // Everything still addressable.
        assert!(t.get(ids[15]).is_some());
        assert!(t.get(ids[0]).is_none());
        assert_eq!(t.live_neighbors(ids[0]), (None, Some(ids[15])));
        // Ids continue after compaction.
        let new_id = t.insert(vec![Value::Int(99)], Tick(99)).unwrap();
        assert_eq!(new_id, TupleId(24));
    }

    #[test]
    fn compaction_never_touches_unsealed_tail() {
        let mut t = small_table();
        let ids = fill(&mut t, 4); // tail unsealed
        for id in &ids {
            t.delete(*id, TombstoneReason::Rotted);
        }
        let report = t.compact();
        assert_eq!(report.segments_dropped, 0);
        assert_eq!(report.segments_compacted, 0);
        assert_eq!(t.segments().len(), 1);
        // Tail still accepts appends at the right id.
        let id = t.insert(vec![Value::Int(1)], Tick(5)).unwrap();
        assert_eq!(id, TupleId(4));
    }

    #[test]
    fn iteration_spans_segments_in_order() {
        let mut t = small_table();
        let ids = fill(&mut t, 20);
        t.delete(ids[3], TombstoneReason::Rotted);
        let seen: Vec<u64> = t.iter_live().map(|x| x.meta.id.get()).collect();
        let expected: Vec<u64> = (0..20).filter(|i| *i != 3).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn restore_roundtrip_of_tombstones() {
        let mut t = small_table();
        t.insert_restored(Tuple::new(TupleId(0), Tick(0), vec![Value::Int(1)]))
            .unwrap();
        t.tombstone_restored(TombstoneReason::Rotted).unwrap();
        t.insert_restored(Tuple::new(TupleId(2), Tick(2), vec![Value::Int(3)]))
            .unwrap();
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.total_inserted(), 3);
        assert_eq!(t.evicted_rotted(), 1);
        assert!(t.get(TupleId(1)).is_none());
        // Out-of-order restore is rejected.
        let err = t
            .insert_restored(Tuple::new(TupleId(7), Tick(0), vec![Value::Int(0)]))
            .unwrap_err();
        assert!(matches!(err, FungusError::CorruptSnapshot(_)));
    }

    #[test]
    fn secondary_index_tracks_all_mutations() {
        let mut t = small_table();
        t.create_index("v").unwrap();
        assert_eq!(t.indexed_columns(), vec![0]);
        assert!(t.create_index("v").is_err(), "duplicate index rejected");
        assert!(t.create_index("zzz").is_err(), "unknown column rejected");

        let ids = fill(&mut t, 10); // v = 0..10
                                    // Probe hits.
        assert_eq!(t.index_probe(0, &[Value::Int(4)]), Some(vec![ids[4]]));
        assert_eq!(
            t.index_probe(0, &[Value::Int(2), Value::Int(7)]),
            Some(vec![ids[2], ids[7]])
        );
        // Unindexed column → None (caller falls back to scan).
        assert_eq!(t.index_probe(1, &[Value::Int(1)]), None);
        // Deletion unhooks.
        t.delete(ids[4], TombstoneReason::Consumed);
        assert_eq!(t.index_probe(0, &[Value::Int(4)]), Some(vec![]));
        // Rot eviction unhooks too.
        t.decay(ids[7], 1.0);
        t.evict_rotten();
        assert_eq!(t.index_probe(0, &[Value::Int(7)]), Some(vec![]));
        // Drop.
        assert!(t.drop_index("v"));
        assert!(!t.drop_index("v"));
        assert_eq!(t.index_probe(0, &[Value::Int(1)]), None);
    }

    #[test]
    fn index_built_over_existing_data_and_survives_snapshot() {
        let mut t = small_table();
        let ids = fill(&mut t, 6);
        t.delete(ids[2], TombstoneReason::Deleted);
        t.create_index("v").unwrap();
        assert_eq!(t.index_probe(0, &[Value::Int(3)]), Some(vec![ids[3]]));
        assert_eq!(
            t.index_probe(0, &[Value::Int(2)]),
            Some(vec![]),
            "dead rows not indexed"
        );
        // Snapshot round-trip keeps the index definition and rebuilds it.
        let restored = crate::snapshot::decode_table(crate::snapshot::encode_table(&t)).unwrap();
        assert_eq!(restored.indexed_columns(), vec![0]);
        assert_eq!(
            restored.index_probe(0, &[Value::Int(3)]),
            Some(vec![ids[3]])
        );
    }

    #[test]
    fn zone_maps_can_be_disabled_for_ablation() {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut t = TableStore::new(
            schema,
            StorageConfig {
                segment_capacity: 4,
                zone_maps: false,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..12i64 {
            t.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        // Zone maps carry no entries → every pruning probe must answer
        // "may match" (no pruning, never a wrong answer).
        for seg in t.segments() {
            assert_eq!(seg.zone().arity(), 0);
            assert!(seg.zone().entry(0).is_none());
        }
        // The store still works end to end.
        assert_eq!(t.live_count(), 12);
        t.delete(TupleId(0), TombstoneReason::Rotted);
        t.compact();
        assert_eq!(t.live_count(), 11);
    }

    /// Which segments of `b` are the very allocation `a` holds.
    fn shared_segments(a: &TableStore, b: &TableStore) -> Vec<bool> {
        a.segments
            .iter()
            .zip(&b.segments)
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect()
    }

    fn indexed_table(rows: u64) -> TableStore {
        let mut t = small_table();
        t.create_index("v").unwrap();
        t.create_ord_index("v").unwrap();
        fill(&mut t, rows);
        t
    }

    #[test]
    fn a_clone_shares_everything_and_a_write_unshares_only_what_it_wrote() {
        let mut t = indexed_table(30); // capacity 8: 3 sealed segments + a tail of 6
        let sealed = t.clone();
        assert_eq!(shared_segments(&sealed, &t), vec![true; 4]);
        assert!(Arc::ptr_eq(&sealed.indexes[0], &t.indexes[0]));
        assert!(Arc::ptr_eq(&sealed.ord_indexes[0], &t.ord_indexes[0]));

        // One single-row insert: the tail segment and the indexes.
        t.insert(vec![Value::Int(30)], Tick(30)).unwrap();
        let after_insert = t.clone();
        assert_eq!(
            shared_segments(&sealed, &after_insert),
            vec![true, true, true, false]
        );
        assert!(!Arc::ptr_eq(&sealed.indexes[0], &after_insert.indexes[0]));
        assert!(!Arc::ptr_eq(
            &sealed.ord_indexes[0],
            &after_insert.ord_indexes[0]
        ));
        assert_eq!(sealed.live_count(), 30, "the sealed clone saw no insert");
        assert_eq!(sealed.index_probe(0, &[Value::Int(30)]), Some(vec![]));

        // One touch: the touched segment, and no index.
        t.touch(TupleId(9), Tick(31));
        let after_touch = t.clone();
        assert_eq!(
            shared_segments(&after_insert, &after_touch),
            vec![true, false, true, true]
        );
        assert!(Arc::ptr_eq(
            &after_insert.indexes[0],
            &after_touch.indexes[0]
        ));
        assert_eq!(after_insert.get(TupleId(9)).unwrap().meta.access_count, 0);
        assert_eq!(after_touch.get(TupleId(9)).unwrap().meta.access_count, 1);
        // The copied segment still shares every row's values.
        assert!(Arc::ptr_eq(
            &after_insert.get(TupleId(9)).unwrap().values,
            &after_touch.get(TupleId(9)).unwrap().values
        ));

        // A write that misses copies nothing.
        t.delete(TupleId(9), TombstoneReason::Deleted);
        let before_miss = t.clone();
        assert!(t.decay(TupleId(9), 0.5).is_none());
        t.touch(TupleId(999), Tick(32));
        assert_eq!(shared_segments(&before_miss, &t), vec![true; 4]);
    }

    #[test]
    fn a_segment_is_copied_once_per_clone_not_once_per_write() {
        let mut t = indexed_table(32);
        let sealed = t.clone();
        for id in 0..32 {
            t.decay(TupleId(id), 0.1).unwrap();
        }
        let first_copies: Vec<_> = t.segments.iter().map(Arc::as_ptr).collect();
        assert_eq!(shared_segments(&sealed, &t), vec![false; 4]);
        // Unique now: a second sweep (descending, so the cursor misses on
        // every segment boundary) writes in place.
        for id in (0..32).rev() {
            t.decay(TupleId(id), 0.1).unwrap();
        }
        let second: Vec<_> = t.segments.iter().map(Arc::as_ptr).collect();
        assert_eq!(first_copies, second);
        assert!(sealed.iter_live().all(|x| x.meta.freshness.get() == 1.0));
        assert!(t
            .iter_live()
            .all(|x| (x.meta.freshness.get() - 0.8).abs() < 1e-12));
    }

    #[test]
    fn a_rot_walk_writes_what_the_step_returns_and_unshares_only_those_segments() {
        let mut t = indexed_table(24); // three sealed segments of 8
        for id in 8..15 {
            t.delete(TupleId(id), TombstoneReason::Consumed);
        }
        t.compact(); // segment 1 goes sparse around its one live row, id 15
        let pinned = t.clone();
        // Odd ids below 16 lose a quarter; segment 2 (ids 16..24) is left alone.
        let hit = |id: u64| id % 2 == 1 && id < 16;
        let lowest = t.rot_walk(&mut |m| hit(m.id.get()).then(|| m.freshness.decayed(0.25)));
        assert_eq!(lowest.map(Freshness::get), Some(0.75));
        assert_eq!(shared_segments(&pinned, &t), vec![false, false, true]);
        for x in t.iter_live() {
            let want = if hit(x.meta.id.get()) { 0.75 } else { 1.0 };
            assert_eq!(x.meta.freshness.get(), want, "{:?}", x.meta.id);
        }
        assert!(pinned.iter_live().all(|x| x.meta.freshness.is_full()));

        // A walk that writes nothing copies nothing.
        let sealed = t.clone();
        assert_eq!(t.rot_walk(&mut |_| None), None);
        assert_eq!(shared_segments(&sealed, &t), vec![true; 3]);
    }

    #[test]
    fn compaction_leaves_untouched_segments_shared() {
        let mut t = indexed_table(28); // 3 sealed segments + a tail of 4
        for id in 8..15 {
            t.delete(TupleId(id), TombstoneReason::Consumed);
        }
        let sealed = t.clone();
        let report = t.compact();
        assert_eq!((report.segments_dropped, report.segments_compacted), (0, 1));
        assert_eq!(shared_segments(&sealed, &t), vec![true, false, true, true]);
        assert!(t.segments[1].is_sparse());
        assert!(!sealed.segments[1].is_sparse(), "the clone kept its layout");
        assert_eq!(sealed.get(TupleId(15)), t.get(TupleId(15)));
    }

    #[test]
    fn whole_store_drop_moves_owned_segments_and_copies_pinned_ones() {
        let expected: Vec<Tuple> = indexed_table(20).iter_live().cloned().collect();

        // Last owner of every segment: each is taken apart by value.
        let sole = indexed_table(20);
        let watch: Vec<_> = sole.segments.iter().map(Arc::downgrade).collect();
        assert_eq!(sole.into_live_tuples(), expected);
        assert!(watch.iter().all(|w| w.upgrade().is_none()));

        // A pinned reader holds segments 0 and 2; segment 1 was written
        // since the pin and is this store's alone.
        let mut t = indexed_table(20);
        let pinned = t.clone();
        t.touch(TupleId(8), Tick(9));
        // (Undo the touch so the content still equals `expected`.)
        t.get_mut(TupleId(8)).unwrap().meta = pinned.get(TupleId(8)).unwrap().meta;
        let own = Arc::downgrade(&t.segments[1]);
        assert_eq!(t.into_live_tuples(), expected);
        assert!(own.upgrade().is_none(), "the unshared segment was moved");
        assert_eq!(
            pinned.iter_live().cloned().collect::<Vec<_>>(),
            expected,
            "the reader keeps every segment it pinned"
        );
    }

    #[test]
    fn restored_infection_rebuilds_index() {
        let mut t = small_table();
        let mut tup = Tuple::new(TupleId(0), Tick(0), vec![Value::Int(1)]);
        tup.meta.infect(Tick(0));
        t.insert_restored(tup).unwrap();
        assert_eq!(t.infected_count(), 1);
    }
}
