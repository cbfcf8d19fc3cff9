//! The sharded container extent.
//!
//! [`ShardedExtent`] is the one physical layout behind every container:
//! an ordered set of time-range [`Shard`]s, each with its own summary
//! stats, owned outright (every mutation holds `&mut self`, so there is
//! no per-shard lock). A container declared without a sharding clause is
//! the one-shard case, [`ShardSpec::default`]. It implements the two
//! traits a bare [`TableStore`] is driven through — [`DecaySurface`] for
//! fungi and [`QueryExtent`] for the executor — and is **observationally
//! identical** to a monolithic store under any workload and any shard
//! count:
//!
//! - Tuple ids are allocated densely in insertion order; shard `k` owns
//!   the contiguous id range `[k·rows_per_shard, (k+1)·rows_per_shard)`,
//!   so the shard layout is a pure function of the insert count.
//! - Every id-ordered view (`for_each_live_meta`, `seed_candidates`,
//!   `infected_ids`, `live_ids`, scan results) concatenates per-shard
//!   views in shard order, which *is* global id order.
//! - `live_neighbors` bridges shard boundaries and dropped-shard gaps, so
//!   EGI spread crosses shards exactly as it crosses tombstone holes.
//! - EGI's random draws stay on the container's single RNG stream over
//!   the global candidate list; the per-shard streams exposed by
//!   [`Shard::rng_seed`] are derived from the shard base (layout-stable)
//!   and never feed the equivalence-relevant path.
//!
//! What *does* differ is the cost model, and that is the point:
//!
//! - Scans prune whole shards via per-shard min/max tick, id, and
//!   freshness bounds before touching tuples (then segment zone-maps
//!   within surviving shards).
//! - Eviction passes skip clean shards entirely (no freshness changed
//!   since the last pass), and a shard whose live tuples are all rotten
//!   is **dropped in O(1)** — detached whole, one id-range gap recorded —
//!   instead of tuple-by-tuple tombstoning and later compaction.
//! - Fan-out (candidate gathers, rot detection) runs on a work-stealing
//!   [`ShardPool`]; results are merged slot-indexed so scheduling never
//!   perturbs determinism. With one worker everything runs inline. A query
//!   scan visits the shards serially instead: it feeds one sink that folds
//!   matches in id order, so there is nothing for a worker to do alone.
//!
//! Diagnostic counters (`scanned`, pruned counts, census run shapes) may
//! differ from the monolithic layout; answers, eviction sets, and decay
//! state never do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fungus_clock::DeterministicRng;
use fungus_query::{LogicalPlan, QueryExtent, ReadExtent, ScanOutcome};
use fungus_storage::{
    CompactionReport, DecaySurface, FreshnessHistogram, Slot, SpotCensus, StorageConfig,
    TableStats, TableStore, TombstoneReason,
};
use fungus_types::{Freshness, Result, Schema, Tick, Tuple, TupleId, TupleMeta, Value};

use crate::config::ShardSpec;
use crate::pool::ShardPool;
use crate::shard::Shard;
use crate::snapshot::{scan_shards, ExtentSnapshot, SnapshotShard};

/// The id range `[base, end)` of a shard that was dropped whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DroppedRange {
    base: u64,
    end: u64,
    /// True when the drop was a rot drop (every live tuple rotten); false
    /// for a maintenance drop of an already-dead shard.
    rotted: bool,
}

/// One resident shard's structural record inside a [`ShardStructure`].
///
/// The freshness envelope is captured as raw bit patterns so equality is
/// exact, not within-epsilon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// First id of the shard's range.
    pub base: u64,
    /// One past the highest id handed out.
    pub end: u64,
    /// Width of the id range the shard owns.
    pub capacity: u64,
    /// Whether the shard has handed out its full range.
    pub sealed: bool,
    /// Whether any freshness changed since the last eviction pass.
    pub dirty: bool,
    /// Live tuples in the shard.
    pub live: usize,
    /// Bit pattern of the freshness lower bound.
    pub freshness_lo_bits: u64,
    /// Bit pattern of the freshness upper bound.
    pub freshness_hi_bits: u64,
    /// Minimum live insertion tick (`u64::MAX` when empty).
    pub min_tick: u64,
    /// Maximum live insertion tick (0 when empty).
    pub max_tick: u64,
}

/// A point-in-time structural description of a sharded extent: every
/// boundary, summary, dirty flag, id gap, and lifecycle counter.
///
/// Two extents with equal structures are identical not just in what the
/// layout-equivalence contract lets an observer see, but in the physical
/// shard layout itself — the checkpoint tests assert restored structures
/// are *equal*, a strictly stronger property than extent equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStructure {
    /// The id watermark (next id an insert would receive).
    pub next_id: u64,
    /// Resident shards in id order.
    pub shards: Vec<ShardRecord>,
    /// Dropped id ranges as `(base, end, rotted)`.
    pub dropped: Vec<(u64, u64, bool)>,
    /// Shards dropped whole since creation.
    pub shards_dropped: u64,
    /// Tail shards sealed early by the adaptive split rule.
    pub shards_split: u64,
    /// Underfull sealed shards merged into a neighbor.
    pub shards_merged: u64,
    /// Inserts the tail has absorbed since the last eviction sweep (the
    /// split rule's pressure gauge).
    pub tail_inserts_since_sweep: u64,
}

/// Summary record of one resident shard in a checkpoint manifest.
///
/// Tuple data lives in the shard's snapshot file; this record carries what
/// the snapshot format cannot: the shard boundary (`capacity`), the dirty
/// flag, and the pruning summary. Freshness bounds are serialized as
/// decimal floats — the manifest codec prints shortest-round-trip
/// representations, so the restored envelope is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// First id of the shard's range.
    pub base: u64,
    /// Width of the id range the shard owns.
    pub capacity: u64,
    /// Whether any freshness changed since the last eviction pass.
    pub dirty: bool,
    /// Freshness lower bound.
    pub freshness_lo: f64,
    /// Freshness upper bound.
    pub freshness_hi: f64,
    /// Minimum live insertion tick; `None` stands for the in-memory
    /// `u64::MAX` sentinel of an empty envelope, which the manifest's
    /// number representation cannot hold exactly.
    pub min_tick: Option<u64>,
    /// Maximum live insertion tick (0 when empty).
    pub max_tick: u64,
}

/// A dropped id range record in a checkpoint manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DroppedRangeManifest {
    /// First id of the dropped range.
    pub base: u64,
    /// One past the last id of the dropped range.
    pub end: u64,
    /// Whether the drop was a rot drop (vs a maintenance drop).
    pub rotted: bool,
}

/// The layout half of a sharded container's checkpoint: everything needed
/// to reassemble a [`ShardedExtent`] around its per-shard snapshot files
/// with boundaries, summaries, dirty flags, gaps, and counters intact.
///
/// RNG streams are deliberately absent: they re-derive from the database
/// construction seed, matching the restore contract ("freshly constructed
/// with the original seed").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardLayoutManifest {
    /// The container schema (needed when no resident shard survives to
    /// carry it).
    pub schema: Schema,
    /// The shard layout spec in force at checkpoint time.
    pub spec: ShardSpec,
    /// The id watermark.
    pub next_id: u64,
    /// Dropped id ranges in ascending order.
    pub dropped: Vec<DroppedRangeManifest>,
    /// Rot evictions folded in from dropped shards.
    pub folded_rotted: u64,
    /// Consume evictions folded in from dropped shards.
    pub folded_consumed: u64,
    /// Explicit deletions folded in from dropped shards.
    pub folded_deleted: u64,
    /// Rotted-unread count folded in from dropped shards.
    pub folded_rotted_unread: u64,
    /// Shards dropped whole since creation.
    pub shards_dropped: u64,
    /// Adaptive splits since creation.
    pub shards_split: u64,
    /// Adaptive merges since creation.
    pub shards_merged: u64,
    /// The split rule's insert-pressure gauge at checkpoint time.
    pub tail_inserts_since_sweep: u64,
    /// Hash-indexed column names (applied to future shards).
    pub hash_indexed: Vec<String>,
    /// Ordered-indexed column names (applied to future shards).
    pub ord_indexed: Vec<String>,
    /// One record per resident shard, in id order.
    pub shards: Vec<ShardManifest>,
}

/// A container extent split into time-range shards.
#[derive(Debug)]
pub struct ShardedExtent {
    schema: Schema,
    storage: StorageConfig,
    spec: ShardSpec,
    shards: Vec<Shard>,
    /// The shard a write last resolved an id to (see
    /// [`locate_mut`](Self::locate_mut)).
    write_cursor: usize,
    /// Id ranges of dropped shards, ascending and non-overlapping.
    dropped: Vec<DroppedRange>,
    /// Next tuple id to allocate (== total ids ever allocated).
    next_id: u64,
    /// Eviction counters folded in from dropped shards.
    folded_rotted: u64,
    folded_consumed: u64,
    folded_deleted: u64,
    folded_rotted_unread: u64,
    shards_dropped: u64,
    /// Behind an `Arc` so published [`ExtentSnapshot`]s count their pruned
    /// shards into the same gauge as locked scans.
    shards_pruned: Arc<AtomicU64>,
    /// Tail shards sealed early by the adaptive split rule.
    shards_split: u64,
    /// Underfull sealed shards merged into a neighbor.
    shards_merged: u64,
    /// Shards reassembled from a shard-aware checkpoint.
    shards_restored: u64,
    /// Inserts absorbed by the tail since the last eviction sweep — the
    /// adaptive split rule's insert-pressure gauge.
    tail_inserts_since_sweep: u64,
    hash_indexed: Vec<String>,
    ord_indexed: Vec<String>,
    pool: ShardPool,
    /// Root for per-shard RNG stream derivation (see [`Shard::rng_seed`]).
    rng_root: u64,
}

impl ShardedExtent {
    /// An empty sharded extent. Per-shard RNG streams are split from
    /// `rng`, the container's deterministic RNG.
    pub fn new(
        schema: Schema,
        storage: StorageConfig,
        spec: ShardSpec,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        spec.validate()?;
        Ok(ShardedExtent {
            schema,
            storage,
            spec,
            shards: Vec::new(),
            write_cursor: 0,
            dropped: Vec::new(),
            next_id: 0,
            folded_rotted: 0,
            folded_consumed: 0,
            folded_deleted: 0,
            folded_rotted_unread: 0,
            shards_dropped: 0,
            shards_pruned: Arc::new(AtomicU64::new(0)),
            shards_split: 0,
            shards_merged: 0,
            shards_restored: 0,
            tail_inserts_since_sweep: 0,
            hash_indexed: Vec::new(),
            ord_indexed: Vec::new(),
            pool: ShardPool::new(spec.workers),
            rng_root: rng.derive_seed("shard-extent"),
        })
    }

    /// The extent's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shard layout spec.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Number of resident (not dropped) shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards dropped whole since creation (rot drops and maintenance
    /// drops of dead shards).
    pub fn shards_dropped(&self) -> u64 {
        self.shards_dropped
    }

    /// Cumulative count of shards skipped whole by scan pruning.
    pub fn shards_pruned(&self) -> u64 {
        self.shards_pruned.load(Ordering::Relaxed)
    }

    /// Tail shards sealed early by the adaptive split rule.
    pub fn shards_split(&self) -> u64 {
        self.shards_split
    }

    /// Underfull sealed shards merged into a time-adjacent neighbor.
    pub fn shards_merged(&self) -> u64 {
        self.shards_merged
    }

    /// Shards reassembled from a shard-aware checkpoint (0 unless this
    /// extent came back through [`ShardedExtent::from_manifest`]).
    pub fn shards_restored(&self) -> u64 {
        self.shards_restored
    }

    /// Shards whose freshness changed since their last eviction pass —
    /// the work an eviction pass cannot skip.
    pub fn dirty_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.dirty()).count()
    }

    /// Live tuples across all shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|s| s.store().live_count()).sum()
    }

    /// Tuples ever inserted (ids are dense, so this is the id watermark).
    pub fn total_inserted(&self) -> u64 {
        self.next_id
    }

    /// The next id an insert would receive.
    pub fn next_id(&self) -> TupleId {
        TupleId(self.next_id)
    }

    /// Approximate live heap bytes across shards.
    pub fn approx_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.store().approx_bytes()).sum()
    }

    /// Total segments across resident shards.
    pub fn segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.store().segments().len()).sum()
    }

    /// Infected live tuples across shards.
    pub fn infected_count(&self) -> usize {
        self.shards.iter().map(|s| s.store().infected_count()).sum()
    }

    /// Evictions by rot (resident shards plus dropped ones).
    pub fn evicted_rotted(&self) -> u64 {
        self.folded_rotted
            + self
                .shards
                .iter()
                .map(|s| s.store().evicted_rotted())
                .sum::<u64>()
    }

    /// Evictions by consuming queries.
    pub fn evicted_consumed(&self) -> u64 {
        self.folded_consumed
            + self
                .shards
                .iter()
                .map(|s| s.store().evicted_consumed())
                .sum::<u64>()
    }

    /// Explicit deletions.
    pub fn evicted_deleted(&self) -> u64 {
        self.folded_deleted
            + self
                .shards
                .iter()
                .map(|s| s.store().evicted_deleted())
                .sum::<u64>()
    }

    /// Rotted-without-ever-being-read count.
    pub fn rotted_unread(&self) -> u64 {
        self.folded_rotted_unread
            + self
                .shards
                .iter()
                .map(|s| s.store().rotted_unread())
                .sum::<u64>()
    }

    /// Index of the resident shard covering `id`, if any (ids inside
    /// dropped ranges and unallocated ids have none).
    fn locate(&self, id: TupleId) -> Option<usize> {
        let idx = self.shards.partition_point(|s| s.end() <= id.get());
        (idx < self.shards.len() && self.shards[idx].base() <= id.get()).then_some(idx)
    }

    /// [`locate`](Self::locate) for the per-id write paths. Fungi, eviction
    /// sweeps and deferred touches feed ids in ascending order, so the
    /// shard resolved last time is re-checked before searching (the store
    /// below does the same for its segments).
    fn locate_mut(&mut self, id: TupleId) -> Option<&mut Shard> {
        let hit = self.shards.get(self.write_cursor);
        if !hit.is_some_and(|s| s.base() <= id.get() && id.get() < s.end()) {
            self.write_cursor = self.locate(id)?;
        }
        Some(&mut self.shards[self.write_cursor])
    }

    /// Opens a fresh tail shard when there is none or the tail is sealed.
    fn ensure_tail(&mut self) -> Result<()> {
        if self.shards.last().is_some_and(|tail| !tail.is_sealed()) {
            return Ok(());
        }
        let base = self.next_id;
        let seed = DeterministicRng::new(self.rng_root).derive_seed(&format!("shard/{base}"));
        let mut shard = Shard::new(
            self.schema.clone(),
            self.storage.clone(),
            base,
            self.spec.rows_per_shard,
            seed,
        )?;
        for col in &self.hash_indexed {
            shard.store_mut().create_index(col)?;
        }
        for col in &self.ord_indexed {
            shard.store_mut().create_ord_index(col)?;
        }
        self.shards.push(shard);
        Ok(())
    }

    /// Records a dropped id range, merging with an adjacent range of the
    /// same kind so the list stays bounded by the number of disjoint gaps.
    fn push_dropped(&mut self, base: u64, end: u64, rotted: bool) {
        let pos = self.dropped.partition_point(|d| d.base < base);
        if pos > 0 {
            let prev = &mut self.dropped[pos - 1];
            if prev.end == base && prev.rotted == rotted {
                prev.end = end;
                return;
            }
        }
        self.dropped.insert(pos, DroppedRange { base, end, rotted });
    }

    /// Detaches `shard` whole: folds its eviction counters into the
    /// extent, records its id range as a gap, and returns its live tuples
    /// (in id order) for the caller to account as evicted. No per-tuple
    /// tombstoning happens — this is the O(1) drop path.
    fn drop_shard(&mut self, shard: Shard, rotted: bool) -> Vec<Tuple> {
        let (base, end) = (shard.base(), shard.end());
        let store = shard.into_store();
        self.folded_consumed += store.evicted_consumed();
        self.folded_deleted += store.evicted_deleted();
        let prior_rotted = store.evicted_rotted();
        let prior_unread = store.rotted_unread();
        let tuples = store.into_live_tuples();
        self.folded_rotted += prior_rotted + tuples.len() as u64;
        self.folded_rotted_unread +=
            prior_unread + tuples.iter().filter(|t| t.meta.never_read()).count() as u64;
        if end > base {
            self.push_dropped(base, end, rotted);
        }
        self.shards_dropped += 1;
        tuples
    }

    /// Removes every rotten tuple, returning them in id order — the
    /// sharded counterpart of [`TableStore::evict_rotten`].
    ///
    /// Detection fans out over **dirty** shards only (no freshness changed
    /// since the last pass means nothing can have rotted); a dirty shard
    /// whose live tuples are all rotten is dropped whole in O(1).
    pub fn evict_rotten(&mut self) -> Vec<Tuple> {
        /// Detection result for one dirty shard: the rotten ids plus the
        /// exact summary of the survivors, folded into the same sweep so
        /// the shard is scanned once per pass, not once for detection and
        /// again for bounds recomputation.
        struct DirtySweep {
            rotten: Vec<TupleId>,
            lo: f64,
            hi: f64,
            min_tick: u64,
            max_tick: u64,
        }
        let sweeps: Vec<Option<DirtySweep>> = self.pool.run(self.shards.len(), |i| {
            let sh = &self.shards[i];
            if !sh.dirty() {
                return None;
            }
            let mut sweep = DirtySweep {
                rotten: Vec::new(),
                lo: f64::INFINITY,
                hi: f64::NEG_INFINITY,
                min_tick: u64::MAX,
                max_tick: 0,
            };
            for t in sh.store().iter_live() {
                if t.meta.is_rotten() {
                    sweep.rotten.push(t.meta.id);
                } else {
                    let f = t.meta.freshness.get();
                    sweep.lo = sweep.lo.min(f);
                    sweep.hi = sweep.hi.max(f);
                    sweep.min_tick = sweep.min_tick.min(t.meta.inserted_at.get());
                    sweep.max_tick = sweep.max_tick.max(t.meta.inserted_at.get());
                }
            }
            Some(sweep)
        });
        let mut evicted = Vec::new();
        let mut idx = 0usize;
        for sweep in sweeps {
            let Some(sweep) = sweep else {
                idx += 1;
                continue;
            };
            let live = self.shards[idx].store().live_count();
            if live > 0 && sweep.rotten.len() == live {
                let shard = self.shards.remove(idx);
                evicted.extend(self.drop_shard(shard, true));
                // The next shard slid into `idx`.
            } else {
                let shard = &mut self.shards[idx];
                for id in sweep.rotten {
                    if let Some(t) = shard.store_mut().delete(id, TombstoneReason::Rotted) {
                        evicted.push(t);
                    }
                }
                // The survivor summary from the sweep is exact: deletes
                // removed precisely the rotten set it skipped.
                shard.set_bounds(sweep.lo, sweep.hi, sweep.min_tick, sweep.max_tick);
                idx += 1;
            }
        }
        if self.spec.adaptive {
            self.adapt();
        }
        self.tail_inserts_since_sweep = 0;
        evicted
    }

    /// The adaptive lifecycle step, run at the tail of every eviction
    /// sweep — detection is free because live counts and the tail insert
    /// gauge are already maintained; no extra scan happens here.
    ///
    /// Split: the tail took [`tail_inserts_since_sweep`] inserts over the
    /// last sweep interval; if another interval like it would blow past
    /// the `rows_per_shard` budget, the boundary is cut *now*, at the
    /// sweep, instead of drifting past the budget mid-interval.
    ///
    /// Merge: a sealed shard whose live count fell below
    /// `low_water · rows_per_shard` joins its sealed, id-contiguous right
    /// neighbor, provided the union still fits the row budget. The merged
    /// shard may keep merging rightward in the same pass, so a run of
    /// hollowed-out shards collapses to one.
    ///
    /// Boundaries only ever move at sweep points and depend only on the
    /// operation history, so adaptive layouts are exactly as reproducible
    /// as fixed ones — and the layout-equivalence contract (answers and
    /// eviction sets are functions of global ids and time, never of
    /// boundaries) is untouched.
    ///
    /// [`tail_inserts_since_sweep`]: ShardStructure::tail_inserts_since_sweep
    fn adapt(&mut self) {
        if let Some(sh) = self.shards.last_mut() {
            if !sh.is_sealed()
                && sh.allocated() > 0
                && sh.allocated() + self.tail_inserts_since_sweep > self.spec.rows_per_shard
            {
                sh.seal_now();
                self.shards_split += 1;
            }
        }
        if self.spec.low_water <= 0.0 {
            return;
        }
        let low = self.spec.low_water * self.spec.rows_per_shard as f64;
        let mut i = 0usize;
        while i + 1 < self.shards.len() {
            let (l_end, l_sealed, l_live) = {
                let sh = &self.shards[i];
                (sh.end(), sh.is_sealed(), sh.store().live_count() as u64)
            };
            let (r_base, r_sealed, r_live) = {
                let sh = &self.shards[i + 1];
                (sh.base(), sh.is_sealed(), sh.store().live_count() as u64)
            };
            let contiguous = l_end == r_base;
            let underfull = (l_live as f64) < low || (r_live as f64) < low;
            let fits = l_live + r_live <= self.spec.rows_per_shard;
            if !(l_sealed && r_sealed && contiguous && underfull && fits) {
                i += 1;
                continue;
            }
            match self.merged_shard(i) {
                Ok(merged) => {
                    self.shards.remove(i + 1);
                    self.shards[i] = merged;
                    self.shards_merged += 1;
                    // Stay at `i`: the merged shard may absorb the next
                    // neighbor too.
                }
                Err(_) => {
                    // A merge failure can only come from an internal
                    // invariant breach; leave the pair untouched rather
                    // than risk a half-applied merge.
                    debug_assert!(false, "shard merge failed on valid inputs");
                    i += 1;
                }
            }
        }
    }

    /// Builds the merged replacement for shards `i` and `i + 1` without
    /// touching the shard list (the caller swaps it in only on success).
    /// The merged shard spans `[left.base, right.end)`, is sealed by
    /// construction, and carries the union of both summaries — exact
    /// whenever both inputs were exact, conservative otherwise.
    fn merged_shard(&self, i: usize) -> Result<Shard> {
        let left = &self.shards[i];
        let right = &self.shards[i + 1];
        let base = left.base();
        let capacity = right.end() - base;
        let mut store =
            TableStore::with_base(self.schema.clone(), self.storage.clone(), TupleId(base))?;
        for col in &self.hash_indexed {
            store.create_index(col)?;
        }
        for col in &self.ord_indexed {
            store.create_ord_index(col)?;
        }
        replay_store(&mut store, left.store())?;
        replay_store(&mut store, right.store())?;
        // Replay derives eviction counters from the tombstones it lays
        // down; overwrite with the exact sums.
        store.set_counters(
            left.store().evicted_rotted() + right.store().evicted_rotted(),
            left.store().evicted_consumed() + right.store().evicted_consumed(),
            left.store().evicted_deleted() + right.store().evicted_deleted(),
            left.store().rotted_unread() + right.store().rotted_unread(),
        );
        let (lr, rr) = (left.ranges(), right.ranges());
        Shard::from_parts(
            store,
            base,
            capacity,
            // Same base, same derived stream: the merged shard keeps the
            // left shard's RNG seed, so shard-local randomness stays
            // layout-stable.
            left.rng_seed(),
            left.dirty() || right.dirty(),
            lr.freshness_lo.min(rr.freshness_lo),
            lr.freshness_hi.max(rr.freshness_hi),
            lr.min_tick.min(rr.min_tick),
            lr.max_tick.max(rr.max_tick),
        )
    }

    /// Publishes a sealed MVCC snapshot of the extent's current state.
    ///
    /// Each shard hands over its sealed store (the cached `Arc` when the
    /// shard is clean since the last publish; otherwise a new twin that
    /// shares every segment and index, see [`Shard::snapshot_store`]) plus
    /// its exact summary. The snapshot shares the extent's schema and
    /// `shards_pruned` gauge.
    pub fn publish_snapshot(&mut self) -> ExtentSnapshot {
        let shards = self
            .shards
            .iter_mut()
            .map(|sh| SnapshotShard {
                base: sh.base(),
                end: sh.end(),
                ranges: sh.ranges(),
                store: sh.snapshot_store(),
            })
            .collect();
        ExtentSnapshot::new(self.schema.clone(), shards, self.shards_pruned.clone())
    }

    /// A point-in-time structural snapshot: every boundary, summary,
    /// dirty flag, gap, and lifecycle counter. Two extents with equal
    /// structures have identical physical layouts, not merely equivalent
    /// observable behavior.
    pub fn structure(&self) -> ShardStructure {
        ShardStructure {
            next_id: self.next_id,
            shards: self
                .shards
                .iter()
                .map(|sh| {
                    let r = sh.ranges();
                    ShardRecord {
                        base: sh.base(),
                        end: sh.end(),
                        capacity: sh.capacity(),
                        sealed: sh.is_sealed(),
                        dirty: sh.dirty(),
                        live: sh.store().live_count(),
                        freshness_lo_bits: r.freshness_lo.to_bits(),
                        freshness_hi_bits: r.freshness_hi.to_bits(),
                        min_tick: r.min_tick,
                        max_tick: r.max_tick,
                    }
                })
                .collect(),
            dropped: self
                .dropped
                .iter()
                .map(|d| (d.base, d.end, d.rotted))
                .collect(),
            shards_dropped: self.shards_dropped,
            shards_split: self.shards_split,
            shards_merged: self.shards_merged,
            tail_inserts_since_sweep: self.tail_inserts_since_sweep,
        }
    }

    /// The layout half of a shard-aware checkpoint. Tuple data is *not*
    /// here — pair this with one snapshot file per resident shard, visited
    /// via [`for_each_shard_store`](Self::for_each_shard_store).
    pub fn manifest(&self) -> ShardLayoutManifest {
        ShardLayoutManifest {
            schema: self.schema.clone(),
            spec: self.spec,
            next_id: self.next_id,
            dropped: self
                .dropped
                .iter()
                .map(|d| DroppedRangeManifest {
                    base: d.base,
                    end: d.end,
                    rotted: d.rotted,
                })
                .collect(),
            folded_rotted: self.folded_rotted,
            folded_consumed: self.folded_consumed,
            folded_deleted: self.folded_deleted,
            folded_rotted_unread: self.folded_rotted_unread,
            shards_dropped: self.shards_dropped,
            shards_split: self.shards_split,
            shards_merged: self.shards_merged,
            tail_inserts_since_sweep: self.tail_inserts_since_sweep,
            hash_indexed: self.hash_indexed.clone(),
            ord_indexed: self.ord_indexed.clone(),
            shards: self
                .shards
                .iter()
                .map(|sh| {
                    let r = sh.ranges();
                    ShardManifest {
                        base: sh.base(),
                        capacity: sh.capacity(),
                        dirty: sh.dirty(),
                        freshness_lo: r.freshness_lo,
                        freshness_hi: r.freshness_hi,
                        min_tick: (r.min_tick != u64::MAX).then_some(r.min_tick),
                        max_tick: r.max_tick,
                    }
                })
                .collect(),
        }
    }

    /// Visits every resident shard's backing store in id order, passing
    /// the shard base — the checkpoint writer streams each store to its
    /// own `<container>.shard-<base>.snap` file from here.
    pub fn for_each_shard_store(
        &self,
        mut f: impl FnMut(u64, &TableStore) -> Result<()>,
    ) -> Result<()> {
        for sh in &self.shards {
            f(sh.base(), sh.store())?;
        }
        Ok(())
    }

    /// Reassembles an extent from a layout manifest plus one restored
    /// store per manifest shard record (same order). Boundaries, dirty
    /// flags, summaries, gaps, and counters come back verbatim; per-shard
    /// RNG seeds re-derive from `rng` (the restore contract hands us a
    /// container RNG in its construction state, so the derivation matches
    /// the original extent exactly).
    pub fn from_manifest(
        storage: StorageConfig,
        manifest: &ShardLayoutManifest,
        stores: Vec<TableStore>,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        manifest.spec.validate()?;
        if stores.len() != manifest.shards.len() {
            return Err(fungus_types::FungusError::CorruptSnapshot(format!(
                "layout manifest lists {} shards but {} snapshots were supplied",
                manifest.shards.len(),
                stores.len()
            )));
        }
        let rng_root = rng.derive_seed("shard-extent");
        let derive = DeterministicRng::new(rng_root);
        let mut shards = Vec::with_capacity(stores.len());
        let mut prev_end = 0u64;
        for (record, store) in manifest.shards.iter().zip(stores) {
            if store.schema() != &manifest.schema {
                return Err(fungus_types::FungusError::CorruptSnapshot(format!(
                    "shard snapshot at base {} disagrees with the manifest schema",
                    record.base
                )));
            }
            if record.base < prev_end {
                return Err(fungus_types::FungusError::CorruptSnapshot(format!(
                    "shard records overlap or regress at base {}",
                    record.base
                )));
            }
            let seed = derive.derive_seed(&format!("shard/{}", record.base));
            let shard = Shard::from_parts(
                store,
                record.base,
                record.capacity,
                seed,
                record.dirty,
                record.freshness_lo,
                record.freshness_hi,
                record.min_tick.unwrap_or(u64::MAX),
                record.max_tick,
            )?;
            prev_end = shard.end();
            shards.push(shard);
        }
        if manifest.next_id < prev_end {
            return Err(fungus_types::FungusError::CorruptSnapshot(format!(
                "id watermark {} is behind the last resident shard ({prev_end})",
                manifest.next_id
            )));
        }
        let restored = shards.len() as u64;
        Ok(ShardedExtent {
            schema: manifest.schema.clone(),
            storage,
            spec: manifest.spec,
            shards,
            write_cursor: 0,
            dropped: manifest
                .dropped
                .iter()
                .map(|d| DroppedRange {
                    base: d.base,
                    end: d.end,
                    rotted: d.rotted,
                })
                .collect(),
            next_id: manifest.next_id,
            folded_rotted: manifest.folded_rotted,
            folded_consumed: manifest.folded_consumed,
            folded_deleted: manifest.folded_deleted,
            folded_rotted_unread: manifest.folded_rotted_unread,
            shards_dropped: manifest.shards_dropped,
            shards_pruned: Arc::new(AtomicU64::new(0)),
            shards_split: manifest.shards_split,
            shards_merged: manifest.shards_merged,
            shards_restored: restored,
            tail_inserts_since_sweep: manifest.tail_inserts_since_sweep,
            hash_indexed: manifest.hash_indexed.clone(),
            ord_indexed: manifest.ord_indexed.clone(),
            pool: ShardPool::new(manifest.spec.workers),
            rng_root,
        })
    }

    /// One maintenance pass: compacts each shard's segments and drops
    /// sealed shards with no live tuples left (their ids become one gap,
    /// like rot drops, but flagged as maintenance).
    pub fn compact(&mut self) -> CompactionReport {
        let mut report = CompactionReport::default();
        let mut idx = 0usize;
        while idx < self.shards.len() {
            let dead_sealed = {
                let sh = &self.shards[idx];
                sh.is_sealed() && sh.store().live_count() == 0
            };
            if dead_sealed {
                let shard = self.shards.remove(idx);
                report.segments_dropped += shard.store().segments().len();
                report.bytes_reclaimed += shard
                    .store()
                    .segments()
                    .iter()
                    .map(|s| s.slot_count() * std::mem::size_of::<Slot>())
                    .sum::<usize>();
                let evicted = self.drop_shard(shard, false);
                debug_assert!(evicted.is_empty(), "dead shard had live tuples");
                continue;
            }
            let sub = self.shards[idx].store_mut().compact();
            report.segments_dropped += sub.segments_dropped;
            report.segments_compacted += sub.segments_compacted;
            report.bytes_reclaimed += sub.bytes_reclaimed;
            idx += 1;
        }
        report
    }

    /// Cures every infected tuple across shards.
    pub fn cure_all(&mut self) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.store_mut().cure_all())
            .sum()
    }

    /// Merged point-in-time statistics, one pass per shard.
    pub fn stats(&self, now: Tick) -> TableStats {
        let mut hist = FreshnessHistogram::default();
        let mut sum_fresh = 0.0;
        let mut min_fresh = f64::INFINITY;
        let mut sum_age = 0.0;
        let mut n = 0usize;
        for sh in &self.shards {
            for t in sh.store().iter_live() {
                let f = t.meta.freshness.get();
                hist.observe(f);
                sum_fresh += f;
                min_fresh = min_fresh.min(f);
                sum_age += t.meta.age(now).as_f64();
                n += 1;
            }
        }
        TableStats {
            at: now,
            live_count: n,
            total_inserted: self.total_inserted(),
            approx_bytes: self.approx_bytes(),
            segment_count: self.segment_count(),
            infected_count: self.infected_count(),
            mean_freshness: if n == 0 { 1.0 } else { sum_fresh / n as f64 },
            min_freshness: if n == 0 { 1.0 } else { min_fresh },
            mean_age: if n == 0 { 0.0 } else { sum_age / n as f64 },
            freshness_histogram: hist,
            evicted_rotted: self.evicted_rotted(),
            evicted_consumed: self.evicted_consumed(),
            evicted_deleted: self.evicted_deleted(),
            rotted_unread: self.rotted_unread(),
        }
    }

    /// Merged rot-spot census. Runs are counted per shard (a run spanning
    /// a shard boundary counts once on each side — a diagnostic
    /// divergence from the monolithic census, documented here rather than
    /// paid for with a cross-shard merge); each rot-dropped range counts
    /// as one hole of its full width.
    pub fn census(&self) -> SpotCensus {
        let mut out = SpotCensus::default();
        for sh in &self.shards {
            let c = SpotCensus::collect(sh.store());
            out.infected_spots += c.infected_spots;
            out.largest_infected_spot = out.largest_infected_spot.max(c.largest_infected_spot);
            out.infected_total += c.infected_total;
            out.rot_holes += c.rot_holes;
            out.largest_rot_hole = out.largest_rot_hole.max(c.largest_rot_hole);
            out.rot_hole_total += c.rot_hole_total;
        }
        for d in &self.dropped {
            if d.rotted {
                let width = (d.end - d.base) as usize;
                out.rot_holes += 1;
                out.largest_rot_hole = out.largest_rot_hole.max(width);
                out.rot_hole_total += width;
            }
        }
        out
    }

    /// Builds an hash index on `column` across every shard (current and
    /// future).
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        self.ensure_tail()?;
        for sh in &mut self.shards {
            sh.store_mut().create_index(column)?;
        }
        self.hash_indexed.push(column.to_string());
        Ok(())
    }

    /// Builds an ordered index on `column` across every shard (current
    /// and future).
    pub fn create_ord_index(&mut self, column: &str) -> Result<()> {
        self.ensure_tail()?;
        for sh in &mut self.shards {
            sh.store_mut().create_ord_index(column)?;
        }
        self.ord_indexed.push(column.to_string());
        Ok(())
    }

    /// Flattens the extent into one monolithic [`TableStore`] with the
    /// same logical content: live tuples, tombstones, dropped ranges
    /// (re-materialised as tombstone runs), counters, and index
    /// definitions. Snapshots of sharded containers go through this, so
    /// the on-disk format is shard-agnostic.
    pub fn to_monolithic(&self) -> Result<TableStore> {
        let mut out = TableStore::new(self.schema.clone(), self.storage.clone())?;
        for col in &self.hash_indexed {
            out.create_index(col)?;
        }
        for col in &self.ord_indexed {
            out.create_ord_index(col)?;
        }
        let mut di = 0usize;
        let mut si = 0usize;
        loop {
            let next_drop = self.dropped.get(di);
            let take_drop = match (next_drop, si < self.shards.len()) {
                (Some(d), true) => d.base < self.shards[si].base(),
                (Some(_), false) => true,
                (None, true) => false,
                (None, false) => break,
            };
            if take_drop {
                let d = self.dropped[di];
                di += 1;
                let reason = if d.rotted {
                    TombstoneReason::Rotted
                } else {
                    TombstoneReason::Deleted
                };
                for _ in d.base..d.end {
                    out.tombstone_restored(reason)?;
                }
            } else {
                let sh = &self.shards[si];
                si += 1;
                replay_store(&mut out, sh.store())?;
            }
        }
        debug_assert_eq!(out.next_id().get(), self.next_id);
        out.set_counters(
            self.evicted_rotted(),
            self.evicted_consumed(),
            self.evicted_deleted(),
            self.rotted_unread(),
        );
        Ok(out)
    }

    /// Re-shards a monolithic store under `spec`. The logical content is
    /// preserved exactly (live tuples, tombstones, counters, infection
    /// state, index definitions); shard summaries are recomputed.
    pub fn from_monolithic(
        store: &TableStore,
        spec: ShardSpec,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        let mut ext =
            ShardedExtent::new(store.schema().clone(), store.config().clone(), spec, rng)?;
        let columns = store.schema().columns().to_vec();
        for ci in store.indexed_columns() {
            ext.create_index(&columns[ci].name)?;
        }
        for ci in store.ord_indexed_columns() {
            ext.create_ord_index(&columns[ci].name)?;
        }
        for seg in store.segments() {
            while ext.next_id < seg.base().get() {
                ext.restore_tombstone(TombstoneReason::Deleted)?;
            }
            let mut first_err = None;
            seg.for_each_slot(|_, slot| {
                if first_err.is_some() {
                    return;
                }
                let step = match slot {
                    Ok(t) => ext.restore_live(t.clone()),
                    Err(reason) => ext.restore_tombstone(reason),
                };
                if let Err(e) = step {
                    first_err = Some(e);
                }
            });
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        while ext.next_id < store.next_id().get() {
            ext.restore_tombstone(TombstoneReason::Deleted)?;
        }
        // Replay double-counts evictions (the source counters already
        // include them): zero the per-shard replicas and fold the exact
        // originals instead.
        for sh in &mut ext.shards {
            sh.store_mut().set_counters(0, 0, 0, 0);
        }
        ext.folded_rotted = store.evicted_rotted();
        ext.folded_consumed = store.evicted_consumed();
        ext.folded_deleted = store.evicted_deleted();
        ext.folded_rotted_unread = store.rotted_unread();
        for sh in &mut ext.shards {
            sh.recompute_bounds();
        }
        Ok(ext)
    }

    fn restore_live(&mut self, tuple: Tuple) -> Result<()> {
        self.ensure_tail()?;
        let sh = self.shards.last_mut().expect("tail exists");
        sh.store_mut().insert_restored(tuple)?;
        self.next_id += 1;
        Ok(())
    }

    fn restore_tombstone(&mut self, reason: TombstoneReason) -> Result<()> {
        self.ensure_tail()?;
        let sh = self.shards.last_mut().expect("tail exists");
        sh.store_mut().tombstone_restored(reason)?;
        self.next_id += 1;
        Ok(())
    }

    fn prev_live(&self, id: TupleId) -> Option<TupleId> {
        let pos = self.shards.partition_point(|s| s.base() < id.get());
        for j in (0..pos).rev() {
            let sh = &self.shards[j];
            if sh.store().live_count() == 0 {
                continue;
            }
            if let Some(p) = sh.store().prev_live_below(id) {
                return Some(p);
            }
        }
        None
    }

    fn next_live(&self, id: TupleId) -> Option<TupleId> {
        let start = id.succ();
        let pos = self.shards.partition_point(|s| s.end() <= start.get());
        for sh in &self.shards[pos..] {
            if sh.store().live_count() == 0 {
                continue;
            }
            if let Some(n) = sh.store().next_live_from(start) {
                return Some(n);
            }
        }
        None
    }
}

/// Replays `store`'s slots (live and tombstoned, in id order) onto the
/// tail of `out`, bridging id gaps from dropped segments with `Deleted`
/// tombstones — the same convention the snapshot codec uses.
fn replay_store(out: &mut TableStore, store: &TableStore) -> Result<()> {
    for seg in store.segments() {
        while out.next_id() < seg.base() {
            out.tombstone_restored(TombstoneReason::Deleted)?;
        }
        let mut first_err = None;
        seg.for_each_slot(|_, slot| {
            if first_err.is_some() {
                return;
            }
            let step = match slot {
                Ok(t) => out.insert_restored(t.clone()),
                Err(reason) => out.tombstone_restored(reason),
            };
            if let Err(e) = step {
                first_err = Some(e);
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
    }
    while out.next_id() < store.next_id() {
        out.tombstone_restored(TombstoneReason::Deleted)?;
    }
    Ok(())
}

impl DecaySurface for ShardedExtent {
    fn live_count(&self) -> usize {
        ShardedExtent::live_count(self)
    }

    fn for_each_live_meta(&self, f: &mut dyn FnMut(TupleId, &TupleMeta)) {
        for sh in &self.shards {
            for t in sh.store().iter_live() {
                f(t.meta.id, &t.meta);
            }
        }
    }

    fn meta(&self, id: TupleId) -> Option<TupleMeta> {
        let i = self.locate(id)?;
        self.shards[i].store().get(id).map(|t| t.meta)
    }

    fn decay(&mut self, id: TupleId, amount: f64) -> Option<Freshness> {
        let sh = self.locate_mut(id)?;
        let f = sh.store_mut().decay(id, amount)?;
        sh.note_freshness(f.get());
        Some(f)
    }

    fn scale_freshness(&mut self, id: TupleId, factor: f64) -> Option<Freshness> {
        let sh = self.locate_mut(id)?;
        let f = sh.store_mut().scale_freshness(id, factor)?;
        sh.note_freshness(f.get());
        Some(f)
    }

    fn rot_walk(&mut self, step: &mut dyn FnMut(&TupleMeta) -> Option<Freshness>) {
        // Serial, shard by shard in id order: a step may carry state, and
        // the walk writes in place, so there is nothing to merge.
        for sh in &mut self.shards {
            sh.rot_walk(step);
        }
    }

    fn infect(&mut self, id: TupleId, now: Tick) -> bool {
        match self.locate_mut(id) {
            Some(sh) => {
                let hit = sh.store_mut().infect(id, now);
                if hit {
                    sh.mark_dirty();
                }
                hit
            }
            None => false,
        }
    }

    fn cure(&mut self, id: TupleId) -> bool {
        match self.locate_mut(id) {
            Some(sh) => sh.store_mut().cure(id),
            None => false,
        }
    }

    fn infected_ids(&self) -> Vec<TupleId> {
        let mut out = Vec::new();
        for sh in &self.shards {
            out.extend(sh.store().infected_ids());
        }
        out
    }

    fn live_neighbors(&self, id: TupleId) -> (Option<TupleId>, Option<TupleId>) {
        (self.prev_live(id), self.next_live(id))
    }

    fn seed_candidates(&self, now: Tick) -> Vec<(TupleId, f64)> {
        // Gather per shard on the pool, merge in shard (= id) order: the
        // output is bit-identical to the default single-pass gather, so
        // EGI's draws are layout-independent.
        let per: Vec<Vec<(TupleId, f64)>> = self.pool.run(self.shards.len(), |i| {
            let sh = &self.shards[i];
            sh.store()
                .iter_live()
                .filter(|t| !t.meta.infected)
                .map(|t| (t.meta.id, t.meta.age(now).as_f64()))
                .collect()
        });
        let mut out = Vec::with_capacity(per.iter().map(Vec::len).sum());
        for v in per {
            out.extend(v);
        }
        out
    }
}

impl ReadExtent for ShardedExtent {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn scan(
        &self,
        plan: &LogicalPlan,
        now: Tick,
        sink: &mut dyn FnMut(&Tuple),
    ) -> Result<ScanOutcome> {
        let shards = self.shards.iter().map(|sh| (sh.store(), sh.ranges()));
        scan_shards(shards, plan, now, sink, &self.shards_pruned)
    }
}

impl QueryExtent for ShardedExtent {
    fn delete(&mut self, id: TupleId, reason: TombstoneReason) -> Option<Tuple> {
        self.locate_mut(id)?.store_mut().delete(id, reason)
    }

    fn touch_by(&mut self, id: TupleId, at: Tick, reads: u32) {
        if let Some(sh) = self.locate_mut(id) {
            sh.store_mut().touch_by(id, at, reads);
        }
    }

    fn insert(&mut self, values: Vec<Value>, now: Tick) -> Result<TupleId> {
        self.ensure_tail()?;
        let idx = self.shards.len() - 1;
        let sh = &mut self.shards[idx];
        let id = sh.store_mut().insert(values, now)?;
        sh.note_insert(now);
        self.next_id += 1;
        self.tail_inserts_since_sweep += 1;
        debug_assert_eq!(self.shards[idx].end(), self.next_id);
        Ok(id)
    }

    fn live_ids(&self) -> Vec<TupleId> {
        let mut out = Vec::new();
        for sh in &self.shards {
            out.extend(sh.store().iter_live().map(|t| t.meta.id));
        }
        out
    }

    fn create_index(&mut self, column: &str) -> Result<()> {
        ShardedExtent::create_index(self, column)
    }

    fn create_ord_index(&mut self, column: &str) -> Result<()> {
        ShardedExtent::create_ord_index(self, column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_fungi::{EgiConfig, EgiFungus, SeedBias};
    use fungus_query::execute_statement;
    use fungus_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[("v", DataType::Int), ("w", DataType::Float)]).unwrap()
    }

    fn sharded(rows_per_shard: u64) -> ShardedExtent {
        ShardedExtent::new(
            schema(),
            StorageConfig::for_tests(),
            ShardSpec::new(rows_per_shard).with_workers(1),
            &DeterministicRng::new(99),
        )
        .unwrap()
    }

    fn fill<E: QueryExtent>(ext: &mut E, n: i64) {
        for i in 0..n {
            ext.insert(vec![Value::Int(i), Value::Float(i as f64)], Tick(i as u64))
                .unwrap();
        }
    }

    #[test]
    fn inserts_split_into_dense_shards() {
        let mut ext = sharded(8);
        fill(&mut ext, 20);
        assert_eq!(ext.shard_count(), 3);
        assert_eq!(ext.live_count(), 20);
        assert_eq!(ext.total_inserted(), 20);
        assert_eq!(ext.next_id(), TupleId(20));
        for id in 0..20u64 {
            assert!(ext.meta(TupleId(id)).is_some(), "id {id} live");
        }
        assert!(ext.meta(TupleId(20)).is_none());
        // Id-ordered global walk.
        let ids: Vec<u64> = ext.live_ids().iter().map(|i| i.get()).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn queries_match_monolithic_answers() {
        let mut mono = TableStore::new(schema(), StorageConfig::for_tests()).unwrap();
        let mut ext = sharded(4);
        fill(&mut mono, 30);
        fill(&mut ext, 30);
        let statements = [
            "SELECT v, w FROM t WHERE v >= 5 AND v < 12",
            "SELECT COUNT(*), SUM(v) FROM t WHERE w > 3.0",
            "SELECT * FROM t WHERE $id >= 10 AND $id < 14 CONSUME",
            "SELECT v FROM t ORDER BY v DESC LIMIT 5",
            "SELECT COUNT(*) FROM t",
        ];
        for sql in statements {
            let a = execute_statement(sql, &mut mono, Tick(40)).unwrap();
            let b = execute_statement(sql, &mut ext, Tick(40)).unwrap();
            assert_eq!(a.rows, b.rows, "{sql}");
            assert_eq!(
                a.consumed.iter().map(|t| t.meta.id).collect::<Vec<_>>(),
                b.consumed.iter().map(|t| t.meta.id).collect::<Vec<_>>(),
                "{sql}"
            );
        }
        assert_eq!(mono.live_count(), ext.live_count());
        assert_eq!(mono.evicted_consumed(), ext.evicted_consumed());
    }

    #[test]
    fn meta_bounds_prune_whole_shards() {
        let mut ext = sharded(4);
        fill(&mut ext, 16); // inserted at ticks 0..=15, four sealed shards
        let rs = execute_statement("SELECT v FROM t WHERE $inserted_at < 4", &mut ext, Tick(20))
            .unwrap();
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.pruned_shards, 3, "three shards lie wholly past tick 4");
        assert_eq!(ext.shards_pruned(), 3);
        // Freshness bounds: decay the first shard, let an eviction pass
        // tighten the envelope (nothing is rotten yet), then ask for
        // fresh rows.
        for id in 0..4u64 {
            DecaySurface::decay(&mut ext, TupleId(id), 0.9).unwrap();
        }
        assert!(ext.evict_rotten().is_empty());
        let rs = execute_statement("SELECT v FROM t WHERE $freshness > 0.5", &mut ext, Tick(20))
            .unwrap();
        assert_eq!(rs.rows.len(), 12);
        assert_eq!(rs.pruned_shards, 1, "the decayed shard cannot match");
    }

    #[test]
    fn fully_rotted_shard_drops_in_one_piece() {
        let mut ext = sharded(4);
        fill(&mut ext, 8);
        for id in 0..4u64 {
            DecaySurface::decay(&mut ext, TupleId(id), 1.0).unwrap();
        }
        assert_eq!(ext.dirty_shard_count(), 1);
        let evicted = ext.evict_rotten();
        assert_eq!(
            evicted.iter().map(|t| t.meta.id.get()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(ext.shards_dropped(), 1);
        assert_eq!(ext.shard_count(), 1);
        assert_eq!(ext.live_count(), 4);
        assert_eq!(ext.evicted_rotted(), 4);
        assert_eq!(ext.rotted_unread(), 4);
        assert_eq!(ext.dirty_shard_count(), 0);
        // The census sees the dropped range as one rot hole.
        let census = ext.census();
        assert_eq!(census.rot_holes, 1);
        assert_eq!(census.largest_rot_hole, 4);
        // Neighbor search bridges the gap like a tombstone hole.
        assert_eq!(ext.live_neighbors(TupleId(2)), (None, Some(TupleId(4))));
        assert_eq!(ext.live_neighbors(TupleId(4)), (None, Some(TupleId(5))));
        // A second pass has nothing dirty left to do.
        assert!(ext.evict_rotten().is_empty());
    }

    #[test]
    fn partial_rot_evicts_tuple_by_tuple() {
        let mut ext = sharded(4);
        fill(&mut ext, 8);
        DecaySurface::decay(&mut ext, TupleId(1), 1.0).unwrap();
        DecaySurface::decay(&mut ext, TupleId(2), 0.4).unwrap();
        let evicted = ext.evict_rotten();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].meta.id, TupleId(1));
        assert_eq!(ext.shards_dropped(), 0);
        assert_eq!(ext.live_count(), 7);
        // Bounds were recomputed exactly on the dirty shard.
        let rs =
            execute_statement("SELECT v FROM t WHERE $freshness < 0.7", &mut ext, Tick(9)).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn compaction_drops_dead_sealed_shards() {
        let mut ext = sharded(4);
        fill(&mut ext, 12);
        for id in 0..4u64 {
            QueryExtent::delete(&mut ext, TupleId(id), TombstoneReason::Deleted).unwrap();
        }
        assert_eq!(ext.shard_count(), 3);
        let report = ext.compact();
        assert!(report.segments_dropped > 0);
        assert_eq!(ext.shard_count(), 2);
        assert_eq!(ext.shards_dropped(), 1);
        assert_eq!(ext.evicted_deleted(), 4);
        assert_eq!(ext.live_count(), 8);
    }

    #[test]
    fn indexes_cover_current_and_future_shards() {
        let mut ext = sharded(4);
        QueryExtent::create_index(&mut ext, "v").unwrap();
        fill(&mut ext, 20);
        let rs = execute_statement("SELECT w FROM t WHERE v = 17", &mut ext, Tick(30)).unwrap();
        assert!(rs.used_index);
        assert_eq!(rs.rows, vec![vec![Value::Float(17.0)]]);
        // Duplicate index creation is rejected, as on a monolithic store.
        assert!(QueryExtent::create_index(&mut ext, "v").is_err());
    }

    #[test]
    fn seed_candidate_override_matches_default_gather() {
        let mut ext = sharded(4);
        fill(&mut ext, 19);
        DecaySurface::infect(&mut ext, TupleId(3), Tick(20));
        DecaySurface::infect(&mut ext, TupleId(11), Tick(20));
        let fast = DecaySurface::seed_candidates(&ext, Tick(25));
        let mut slow = Vec::new();
        ext.for_each_live_meta(&mut |id, meta| {
            if !meta.infected {
                slow.push((id, meta.age(Tick(25)).as_f64()));
            }
        });
        assert_eq!(fast, slow);
    }

    #[test]
    fn monolithic_roundtrip_preserves_logical_state() {
        let mut ext = sharded(4);
        fill(&mut ext, 20);
        QueryExtent::create_ord_index(&mut ext, "v").unwrap();
        DecaySurface::infect(&mut ext, TupleId(9), Tick(21));
        for id in 0..4u64 {
            DecaySurface::decay(&mut ext, TupleId(id), 1.0).unwrap();
        }
        QueryExtent::delete(&mut ext, TupleId(6), TombstoneReason::Consumed).unwrap();
        ext.evict_rotten();
        assert_eq!(ext.shards_dropped(), 1);

        let mono = ext.to_monolithic().unwrap();
        assert_eq!(mono.live_count(), ext.live_count());
        assert_eq!(mono.total_inserted(), ext.total_inserted());
        assert_eq!(mono.evicted_rotted(), ext.evicted_rotted());
        assert_eq!(mono.evicted_consumed(), ext.evicted_consumed());
        assert_eq!(mono.rotted_unread(), ext.rotted_unread());
        assert_eq!(mono.infected_ids(), ext.infected_ids());
        let live_of = |ext: &ShardedExtent| {
            let mut live = Vec::new();
            ext.for_each_shard_store(|_, store| {
                live.extend(store.iter_live().cloned());
                Ok(())
            })
            .unwrap();
            live
        };
        let mono_live: Vec<Tuple> = mono.iter_live().cloned().collect();
        let ext_live = live_of(&ext);
        assert_eq!(mono_live, ext_live);

        let back =
            ShardedExtent::from_monolithic(&mono, ShardSpec::new(7), &DeterministicRng::new(99))
                .unwrap();
        assert_eq!(back.live_count(), ext.live_count());
        assert_eq!(back.evicted_rotted(), ext.evicted_rotted());
        assert_eq!(back.infected_ids(), ext.infected_ids());
        assert_eq!(back.total_inserted(), ext.total_inserted());
        assert_eq!(live_of(&back), ext_live);
    }

    /// Drives one EGI fungus over an extent: bulk load, then tick + evict
    /// for a stretch of virtual time. Returns the exact eviction sequence
    /// and the final live decay state (freshness as raw bits).
    fn drive_egi<E: DecaySurface + QueryExtent>(
        ext: &mut E,
        evict: impl Fn(&mut E) -> Vec<Tuple>,
    ) -> (Vec<u64>, Vec<(u64, u64, bool)>) {
        for i in 0..200i64 {
            QueryExtent::insert(
                ext,
                vec![Value::Int(i), Value::Float(i as f64)],
                Tick(i as u64 / 10),
            )
            .unwrap();
        }
        let config = EgiConfig {
            seeds_per_tick: 2,
            seed_bias: SeedBias::AgePow(1.5),
            rot_rate: 0.34,
            spread_width: 2,
        };
        let mut egi = EgiFungus::new(config, &DeterministicRng::new(4242));
        let mut evicted_ids = Vec::new();
        for t in 21..90u64 {
            egi.tick(ext, Tick(t));
            evicted_ids.extend(evict(ext).into_iter().map(|t| t.meta.id.get()));
        }
        let mut live = Vec::new();
        ext.for_each_live_meta(&mut |id, meta| {
            live.push((id.get(), meta.freshness.get().to_bits(), meta.infected));
        });
        (evicted_ids, live)
    }

    #[test]
    fn egi_is_bit_identical_across_shard_counts() {
        let mut mono = TableStore::new(schema(), StorageConfig::for_tests()).unwrap();
        let baseline = drive_egi(&mut mono, |s| s.evict_rotten());
        assert!(!baseline.0.is_empty(), "workload must rot something");
        for rows_per_shard in [200, 50, 13] {
            let mut ext = sharded(rows_per_shard);
            let got = drive_egi(&mut ext, |e| e.evict_rotten());
            assert_eq!(got, baseline, "rows_per_shard {rows_per_shard}");
        }
    }

    fn adaptive(rows_per_shard: u64, low_water: f64) -> ShardedExtent {
        ShardedExtent::new(
            schema(),
            StorageConfig::for_tests(),
            ShardSpec::new(rows_per_shard)
                .with_workers(1)
                .with_adaptive()
                .with_low_water(low_water),
            &DeterministicRng::new(99),
        )
        .unwrap()
    }

    #[test]
    fn insert_pressure_seals_the_tail_early() {
        let mut ext = adaptive(8, 0.0);
        // 6 inserts between sweeps: another interval like it would overrun
        // the 8-row budget, so the sweep seals the tail at 6 rows.
        fill(&mut ext, 6);
        assert!(ext.evict_rotten().is_empty());
        assert_eq!(ext.shards_split(), 1);
        let s = ext.structure();
        assert_eq!(s.shards.len(), 1);
        assert!(s.shards[0].sealed);
        assert_eq!(s.shards[0].capacity, 6);
        assert_eq!(s.tail_inserts_since_sweep, 0);
        // The next insert opens a fresh shard at the sealed boundary.
        QueryExtent::insert(&mut ext, vec![Value::Int(6), Value::Float(6.0)], Tick(6)).unwrap();
        let s = ext.structure();
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[1].base, 6);
        // A calm interval leaves the new tail open.
        assert!(ext.evict_rotten().is_empty());
        assert_eq!(ext.shards_split(), 1);
        assert!(!ext.structure().shards[1].sealed);
    }

    #[test]
    fn hollowed_sealed_shards_merge_with_their_neighbor() {
        let mut ext = adaptive(4, 0.6);
        fill(&mut ext, 12); // three sealed shards of 4
        assert_eq!(ext.shard_count(), 3);
        // Hollow out the first two shards below low water (0.6 · 4 = 2.4
        // rows): one survivor each.
        for id in [0u64, 1, 2, 4, 5, 6] {
            QueryExtent::delete(&mut ext, TupleId(id), TombstoneReason::Deleted).unwrap();
        }
        assert!(ext.evict_rotten().is_empty());
        assert_eq!(ext.shards_merged(), 1);
        let s = ext.structure();
        assert_eq!(s.shards.len(), 2);
        assert_eq!((s.shards[0].base, s.shards[0].capacity), (0, 8));
        assert!(s.shards[0].sealed);
        assert_eq!(s.shards[0].live, 2);
        // Content is untouched: all live ids answer, in order.
        let ids: Vec<u64> = ext.live_ids().iter().map(|i| i.get()).collect();
        assert_eq!(ids, vec![3, 7, 8, 9, 10, 11]);
        assert_eq!(ext.evicted_deleted(), 6);
        // The merged shard keeps merging rightward once the third shard
        // hollows too (cascade: 8-wide + 4-wide still fits 4 + 1 live? no —
        // budget is 4 rows, 2 + 1 = 3 fits).
        for id in [8u64, 9, 10] {
            QueryExtent::delete(&mut ext, TupleId(id), TombstoneReason::Deleted).unwrap();
        }
        assert!(ext.evict_rotten().is_empty());
        assert_eq!(ext.shards_merged(), 2);
        assert_eq!(ext.shard_count(), 1);
        let s = ext.structure();
        assert_eq!((s.shards[0].base, s.shards[0].capacity), (0, 12));
        let ids: Vec<u64> = ext.live_ids().iter().map(|i| i.get()).collect();
        assert_eq!(ids, vec![3, 7, 11]);
    }

    #[test]
    fn merge_preserves_indexes_and_neighbor_walks() {
        let mut ext = adaptive(4, 0.6);
        QueryExtent::create_index(&mut ext, "v").unwrap();
        QueryExtent::create_ord_index(&mut ext, "w").unwrap();
        fill(&mut ext, 8);
        for id in [0u64, 1, 2, 4, 5, 6] {
            QueryExtent::delete(&mut ext, TupleId(id), TombstoneReason::Deleted).unwrap();
        }
        assert!(ext.evict_rotten().is_empty());
        assert_eq!(ext.shards_merged(), 1);
        let rs = execute_statement("SELECT w FROM t WHERE v = 7", &mut ext, Tick(9)).unwrap();
        assert!(rs.used_index);
        assert_eq!(rs.rows, vec![vec![Value::Float(7.0)]]);
        assert_eq!(
            ext.live_neighbors(TupleId(5)),
            (Some(TupleId(3)), Some(TupleId(7)))
        );
    }

    #[test]
    fn egi_is_bit_identical_with_adaptive_layouts() {
        let mut mono = TableStore::new(schema(), StorageConfig::for_tests()).unwrap();
        let baseline = drive_egi(&mut mono, |s| s.evict_rotten());
        for (rows_per_shard, low_water) in [(50, 0.6), (13, 0.3), (30, 0.0)] {
            let mut ext = adaptive(rows_per_shard, low_water);
            let got = drive_egi(&mut ext, |e| e.evict_rotten());
            assert_eq!(got, baseline, "rows {rows_per_shard} low {low_water}");
            assert!(
                ext.shards_split() + ext.shards_merged() > 0,
                "rows {rows_per_shard} low {low_water}: lifecycle never fired"
            );
        }
    }

    #[test]
    fn manifest_roundtrip_restores_structure_exactly() {
        let mut ext = adaptive(8, 0.5);
        QueryExtent::create_index(&mut ext, "v").unwrap();
        fill(&mut ext, 40);
        for id in 0..14u64 {
            DecaySurface::decay(&mut ext, TupleId(id), 1.0).unwrap();
        }
        ext.evict_rotten();
        for id in 20..23u64 {
            DecaySurface::decay(&mut ext, TupleId(id), 0.4).unwrap();
        }
        // Leave some shards dirty on purpose: the flag must round-trip.
        assert!(ext.dirty_shard_count() > 0);
        assert!(ext.shard_count() >= 2);

        let manifest = ext.manifest();
        let mut stores = Vec::new();
        ext.for_each_shard_store(|base, store| {
            let bytes = fungus_storage::encode_table(store);
            stores.push((base, fungus_storage::decode_table(bytes)?));
            Ok(())
        })
        .unwrap();
        let stores: Vec<TableStore> = stores.into_iter().map(|(_, s)| s).collect();
        let back = ShardedExtent::from_manifest(
            StorageConfig::for_tests(),
            &manifest,
            stores,
            &DeterministicRng::new(99),
        )
        .unwrap();
        assert_eq!(back.structure(), ext.structure());
        assert_eq!(back.shards_restored(), back.shard_count() as u64);
        // RNG streams re-derive identically.
        for (a, b) in ext.shards.iter().zip(back.shards.iter()) {
            assert_eq!(a.rng_seed(), b.rng_seed());
        }
        // And the restored extent behaves identically from here on.
        let mut back = back;
        let a = ext.evict_rotten();
        let b = back.evict_rotten();
        assert_eq!(
            a.iter().map(|t| t.meta.id).collect::<Vec<_>>(),
            b.iter().map(|t| t.meta.id).collect::<Vec<_>>()
        );
        assert_eq!(back.structure(), ext.structure());
    }

    #[test]
    fn from_manifest_rejects_mismatched_inputs() {
        let mut ext = adaptive(4, 0.0);
        fill(&mut ext, 10);
        let manifest = ext.manifest();
        // Too few stores.
        let err = ShardedExtent::from_manifest(
            StorageConfig::for_tests(),
            &manifest,
            Vec::new(),
            &DeterministicRng::new(99),
        );
        assert!(err.is_err());
        // Wrong-schema store.
        let other = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let stores: Vec<TableStore> = manifest
            .shards
            .iter()
            .map(|_| TableStore::new(other.clone(), StorageConfig::for_tests()).unwrap())
            .collect();
        let err = ShardedExtent::from_manifest(
            StorageConfig::for_tests(),
            &manifest,
            stores,
            &DeterministicRng::new(99),
        );
        assert!(err.is_err());
    }

    #[test]
    fn egi_rot_eventually_drops_whole_shards() {
        // Aggressive, age-focused rot on an old-heavy extent: the oldest
        // shard's tuples all rot while younger shards stay fresh, so the
        // O(1) drop path fires.
        let mut ext = sharded(10);
        for i in 0..100i64 {
            QueryExtent::insert(
                &mut ext,
                vec![Value::Int(i), Value::Float(0.0)],
                Tick(i as u64),
            )
            .unwrap();
        }
        let config = EgiConfig {
            seeds_per_tick: 4,
            seed_bias: SeedBias::AgePow(3.0),
            rot_rate: 0.5,
            spread_width: 3,
        };
        let mut egi = EgiFungus::new(config, &DeterministicRng::new(7));
        for t in 100..200u64 {
            egi.tick(&mut ext, Tick(t));
            ext.evict_rotten();
            if ext.shards_dropped() > 0 {
                break;
            }
        }
        assert!(ext.shards_dropped() > 0, "no whole-shard drop in 100 ticks");
    }
}
