//! One time-range shard: a [`TableStore`] plus summary bounds.
//!
//! A shard owns a contiguous tuple-id range `[base, base + capacity)` —
//! ids are insertion-ordered, so this is a contiguous slice of the time
//! axis. Alongside the store it keeps the conservative summary the extent
//! prunes and schedules with: min/max insertion tick, a freshness
//! envelope, and a dirty flag set by any freshness mutation since the last
//! eviction pass.
//!
//! The freshness envelope is maintained *incrementally* and is only ever
//! loose, never wrong: inserts raise the upper bound to 1.0, every decay
//! result lowers the lower bound, and an eviction pass over a dirty shard
//! recomputes both exactly. Loose bounds cost pruning opportunities, not
//! correctness.

use std::sync::Arc;

use fungus_query::MetaRanges;
use fungus_storage::{StorageConfig, TableStore};
use fungus_types::{Freshness, Result, Schema, Tick, TupleMeta};

/// A single time-range shard of a container extent.
#[derive(Debug)]
pub struct Shard {
    store: TableStore,
    base: u64,
    capacity: u64,
    dirty: bool,
    freshness_lo: f64,
    freshness_hi: f64,
    min_tick: u64,
    max_tick: u64,
    /// The sealed twin of `store` as of the last publish, dropped by any
    /// mutable store access. A clean shard re-publishes the same `Arc`; a
    /// written one seals a new twin, which is a [`TableStore`] clone —
    /// one reference count per segment and index, see below.
    snap_cache: Option<Arc<TableStore>>,
}

impl Shard {
    /// An empty shard owning ids `[base, base + capacity)`.
    pub fn new(schema: Schema, config: StorageConfig, base: u64, capacity: u64) -> Result<Shard> {
        let store = TableStore::with_base(schema, config, fungus_types::TupleId(base))?;
        Ok(Shard {
            store,
            base,
            capacity,
            dirty: false,
            freshness_lo: 1.0,
            freshness_hi: 0.0,
            min_tick: u64::MAX,
            max_tick: 0,
            snap_cache: None,
        })
    }

    /// Read access to the backing store.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// Mutable access to the backing store. Drops the cached twin: the next
    /// publish seals the store again.
    pub fn store_mut(&mut self) -> &mut TableStore {
        self.snap_cache = None;
        &mut self.store
    }

    /// The shard's sealed store for MVCC publication, cached until the next
    /// mutable access so consecutive publishes of a clean shard hand out
    /// one `Arc`.
    ///
    /// Sealing shares; writing copies. The twin holds the same
    /// `Arc<Segment>`s and index `Arc`s as the live store, so what a
    /// version costs is paid by the writes that follow it, each once per
    /// epoch: an insert copies the tail segment (one slot array — row
    /// values are `Arc<[Value]>` and stay shared) and each index of this
    /// shard; a touch, decay or infect copies the segment holding the
    /// tuple; a delete copies that segment and the shard's indexes.
    /// Everything else the old version held is the new version's too, and
    /// a copied segment's predecessor is freed when its last reader unpins.
    pub fn snapshot_store(&mut self) -> Arc<TableStore> {
        self.snap_cache
            .get_or_insert_with(|| Arc::new(self.store.clone()))
            .clone()
    }

    /// Consumes the shard, yielding the backing store (whole-shard drop).
    pub fn into_store(self) -> TableStore {
        self.store
    }

    /// Rebuilds a shard from previously saved parts: a restored store plus
    /// the exact summary state (dirty flag, freshness envelope, tick range)
    /// recorded when the shard was saved. The fields are installed
    /// verbatim — no normalisation — so a restored shard is structurally
    /// identical to the one that was checkpointed. Also used by the merge
    /// path, which unions two exact envelopes (still exact: min/max of
    /// per-shard minima/maxima over a disjoint union).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        store: TableStore,
        base: u64,
        capacity: u64,
        dirty: bool,
        freshness_lo: f64,
        freshness_hi: f64,
        min_tick: u64,
        max_tick: u64,
    ) -> Result<Shard> {
        let next = store.next_id().get();
        if next < base || next - base > capacity {
            return Err(fungus_types::FungusError::CorruptSnapshot(format!(
                "shard store ids [{base}, {next}) do not fit capacity {capacity}"
            )));
        }
        Ok(Shard {
            store,
            base,
            capacity,
            dirty,
            freshness_lo,
            freshness_hi,
            min_tick,
            max_tick,
            snap_cache: None,
        })
    }

    /// First id of this shard's range.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Width of the shard's id range (the shard seals once it has handed
    /// out this many ids).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// One past the highest id handed out so far.
    pub fn end(&self) -> u64 {
        self.store.next_id().get()
    }

    /// Ids allocated so far (live + tombstoned).
    pub fn allocated(&self) -> u64 {
        self.end() - self.base
    }

    /// Whether the shard has handed out its full id range; sealed shards
    /// never receive another insert.
    pub fn is_sealed(&self) -> bool {
        self.allocated() >= self.capacity
    }

    /// Seals the shard at its current allocation (the adaptive split: the
    /// tail stops growing here and the next insert opens a fresh shard).
    /// The shard must have allocated at least one id — a zero-width shard
    /// would alias its successor's base.
    pub fn seal_now(&mut self) {
        debug_assert!(self.allocated() > 0, "cannot seal an empty shard");
        self.capacity = self.allocated();
    }

    /// Whether any freshness has changed since the last eviction pass.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the shard dirty (some tuple's decay state changed).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Records an insert at `now`: fresh tuple, so the freshness upper
    /// bound snaps to 1.0 and the tick range widens to include `now`.
    pub fn note_insert(&mut self, now: Tick) {
        self.freshness_hi = 1.0;
        if self.freshness_lo > 1.0 {
            self.freshness_lo = 1.0;
        }
        self.min_tick = self.min_tick.min(now.get());
        self.max_tick = self.max_tick.max(now.get());
    }

    /// Records a decay/scale result: the lower freshness bound can only
    /// move down between recomputes.
    pub fn note_freshness(&mut self, freshness: f64) {
        self.freshness_lo = self.freshness_lo.min(freshness);
        self.dirty = true;
    }

    /// Runs one rot walk over the store (see [`TableStore::rot_walk`]).
    /// Only a walk that wrote something drops the cached twin and lowers
    /// the envelope, so a shard no row of which changed stays clean and
    /// re-publishes its sealed store.
    pub fn rot_walk(&mut self, step: &mut dyn FnMut(&TupleMeta) -> Option<Freshness>) {
        if let Some(lowest) = self.store.rot_walk(step) {
            self.snap_cache = None;
            self.note_freshness(lowest.get());
        }
    }

    /// Recomputes the exact summary from live tuples and clears the dirty
    /// flag. Called at the end of an eviction pass, when the shard has
    /// just been scanned anyway.
    pub fn recompute_bounds(&mut self) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut min_tick = u64::MAX;
        let mut max_tick = 0u64;
        for t in self.store.iter_live() {
            let f = t.meta.freshness.get();
            lo = lo.min(f);
            hi = hi.max(f);
            min_tick = min_tick.min(t.meta.inserted_at.get());
            max_tick = max_tick.max(t.meta.inserted_at.get());
        }
        if lo.is_finite() {
            self.freshness_lo = lo;
            self.freshness_hi = hi;
        } else {
            // Empty shard: an inverted envelope that cannot satisfy any
            // bound; scans skip empty shards before consulting it.
            self.freshness_lo = 1.0;
            self.freshness_hi = 0.0;
        }
        self.min_tick = min_tick;
        self.max_tick = max_tick;
        self.dirty = false;
    }

    /// Installs an exact summary computed by the caller (the eviction pass
    /// folds this into its detection sweep so a dirty shard is scanned
    /// once, not twice) and clears the dirty flag. Callers pass the
    /// accumulator identities (`lo = ∞`, `hi = −∞`) for an emptied shard;
    /// the envelope then inverts exactly as [`recompute_bounds`] would.
    ///
    /// [`recompute_bounds`]: Self::recompute_bounds
    pub fn set_bounds(&mut self, lo: f64, hi: f64, min_tick: u64, max_tick: u64) {
        if lo.is_finite() {
            self.freshness_lo = lo;
            self.freshness_hi = hi;
        } else {
            self.freshness_lo = 1.0;
            self.freshness_hi = 0.0;
        }
        self.min_tick = min_tick;
        self.max_tick = max_tick;
        self.dirty = false;
    }

    /// The conservative summary used for whole-shard pruning.
    pub fn ranges(&self) -> MetaRanges {
        MetaRanges {
            min_id: self.base,
            max_id: self.end().saturating_sub(1),
            min_tick: self.min_tick,
            max_tick: self.max_tick,
            freshness_lo: self.freshness_lo,
            freshness_hi: self.freshness_hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_types::{DataType, TupleId, Value};

    fn shard() -> Shard {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        Shard::new(schema, StorageConfig::for_tests(), 100, 16).unwrap()
    }

    #[test]
    fn ids_start_at_base_and_seal_at_capacity() {
        let mut s = shard();
        assert_eq!(s.allocated(), 0);
        assert!(!s.is_sealed());
        for i in 0..16i64 {
            let id = s
                .store_mut()
                .insert(vec![Value::Int(i)], Tick(i as u64))
                .unwrap();
            s.note_insert(Tick(i as u64));
            assert_eq!(id, TupleId(100 + i as u64));
        }
        assert!(s.is_sealed());
        assert_eq!(s.end(), 116);
        let r = s.ranges();
        assert_eq!((r.min_id, r.max_id), (100, 115));
        assert_eq!((r.min_tick, r.max_tick), (0, 15));
    }

    #[test]
    fn freshness_envelope_stays_conservative() {
        let mut s = shard();
        for i in 0..4i64 {
            s.store_mut().insert(vec![Value::Int(i)], Tick(1)).unwrap();
            s.note_insert(Tick(1));
        }
        assert!(!s.dirty());
        let f = s.store_mut().decay(TupleId(101), 0.7).unwrap();
        s.note_freshness(f.get());
        assert!(s.dirty());
        let r = s.ranges();
        assert!(r.freshness_lo <= 0.3 + 1e-12);
        assert_eq!(r.freshness_hi, 1.0);

        s.recompute_bounds();
        assert!(!s.dirty());
        let r = s.ranges();
        assert!((r.freshness_lo - 0.3).abs() < 1e-12);
        assert_eq!(r.freshness_hi, 1.0);
    }

    #[test]
    fn recompute_on_empty_shard_inverts_envelope() {
        let mut s = shard();
        s.recompute_bounds();
        let r = s.ranges();
        assert!(r.freshness_lo > r.freshness_hi);
    }
}
