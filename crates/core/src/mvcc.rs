//! Epoch-based MVCC snapshot cells.
//!
//! Each container gets one [`ContainerMvcc`] cell holding the latest
//! **sealed snapshot** of its extent and distiller behind an epoch
//! counter; the cell is born holding the container's first version, so
//! there is always a head to pin. Mutators (insert, consume, decay, routed deliveries) change
//! the live [`Container`](crate::Container) under its write lock and then
//! *publish*: a copy-on-write snapshot replaces the head version and the
//! epoch advances by one. Non-consuming `SELECT`s and `SUMMARIZE` reads
//! pin the head version (one `Arc` clone under a read lock of the head
//! slot — never the container lock) and resolve entirely against it.
//!
//! ## What a version shares
//!
//! A version is not a copy of the extent. Level by level: a shard nothing
//! wrote since the last publish is the same `Arc<TableStore>` in both
//! versions; a written shard is a new `TableStore` holding the same
//! `Arc<Segment>` and index `Arc`s except those a write landed in; a
//! copied segment is one slot array whose rows still share their
//! `Arc<[Value]>`; the schema and — unless something was absorbed — the
//! distiller's pipelines are one shared allocation each. So the cost of
//! sealing is paid by the writes between two publishes, once per segment
//! per epoch: an insert copies the tail segment and the tail shard's
//! indexes, a touch or a decay step the segment holding the tuple, a
//! delete that segment plus the shard's indexes, a consume or a rot sweep
//! that absorbs additionally the pipelines. What still scales with the
//! extent is a tick of a fungus that writes every live row (and the
//! deferred touches of reads that returned rows from every segment): it
//! un-shares every segment once — ROADMAP "Rot by arithmetic" (a) removes
//! those writes.
//!
//! ## `CONSUME` isolation
//!
//! `CONSUME` is a read *and* a write. Its isolation level is
//! **read-own-snapshot, write-live, conflict = retry-on-epoch-advance**:
//!
//! 1. pin the head version (epoch *e*);
//! 2. run the read phases against the snapshot off-lock
//!    ([`execute_readonly`]);
//! 3. take the container write lock and re-check the cell's epoch — if it
//!    still equals *e*, the live extent is content-identical to the
//!    snapshot (every mutator publishes before releasing the lock), so
//!    the pre-computed answer is applied verbatim: exactly the returned
//!    ids are deleted from the live extent and a new snapshot is
//!    published;
//! 4. if the epoch advanced, the answer may be stale — drop it, count a
//!    retry, and re-pin; after bounded retries run the same steps with
//!    the write lock taken *before* the pin (counted as a fallback), which
//!    cannot lose the race.
//!
//! ## Deferred touches
//!
//! Snapshot reads cannot bump access metadata (the snapshot is immutable
//! and shared), so the returned ids are queued on the cell's `touches`
//! queue; the next mutator drains the queue under the container lock and
//! applies the touches to the live extent before doing its own work.
//! Access metadata therefore lags reality by at most one mutation — the
//! contract is the same with the bound below — acceptable for an
//! importance signal, and documented as outside the serializability
//! observable (`DESIGN.md`).
//!
//! Readers can queue faster than mutators drain, so the queue is bounded
//! by the extent rather than by a setting: once more touches wait
//! unfolded than the reading version has live rows, the queue folds to
//! one `(id, latest tick, reads)` entry per id, under the same `touches`
//! lock. A drain writes each folded entry once, `access_count += reads`,
//! and what is still unfolded one read at a time; `last_access` keeps the
//! latest tick recorded (`TupleMeta::touch_by`). So when pins taken at
//! different ticks queue out of tick order, a row keeps the latest tick,
//! not the tick of whichever touch happened to apply last.
//!
//! ## Reclamation
//!
//! Readers register by holding the version `Arc`. A superseded head is
//! downgraded to a `Weak` on the `retired` list; sweeps (on every publish
//! and on telemetry reads) drop entries whose last reader departed and
//! count them as reclaimed. Quiescence ⇒ `retired == reclaimed`. Dropping
//! a version frees exactly the segments, indexes and pipelines its
//! successors replaced; the rest live on in the head.
//!
//! Lock classes (enforced by `fungus-lint` + the runtime hierarchy):
//! `touches` = rank 44, `head` = rank 45, `retired` = rank 46 — all above
//! `CONTAINERS` (30), so any of them may be taken while holding a
//! container write lock, and `publish` may push to `retired` while
//! holding `head`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use fungus_lint_rt::{hierarchy, OrderedMutex, OrderedRwLock};
use fungus_query::{execute_readonly, Planner, ReadExtent, ResultSet, SelectStatement};
use fungus_shard::ExtentSnapshot;
use fungus_types::{FungusError, Result, Schema, Tick, TupleId, Value};

use crate::distill::Distiller;
use crate::metrics::MvccTelemetry;

/// One sealed snapshot: the extent and distiller state as of `epoch`.
/// Immutable once published; shared by readers via `Arc`, and sharing with
/// its neighbours everything no write came between (see the module docs).
#[derive(Debug, Clone)]
pub struct Versioned {
    epoch: u64,
    extent: ExtentSnapshot,
    distiller: Distiller,
}

impl Versioned {
    /// The epoch this version was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed extent snapshot.
    pub fn extent(&self) -> &ExtentSnapshot {
        &self.extent
    }

    /// The schema of the sealed extent.
    pub fn schema(&self) -> &Schema {
        self.extent.schema()
    }

    /// Answers a `SUMMARIZE` read from the sealed distiller state. Hit
    /// counters are shared atomics with the live distiller, so the read
    /// still lands on the container's gauges — without its lock.
    pub fn sketch_report(
        &self,
        container: &str,
        name: &str,
        top: Option<usize>,
        now: Tick,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let Some(summary) = self.distiller.note_hit(name) else {
            return Err(FungusError::PlanError(format!(
                "container `{container}` has no summary `{name}` (available: {})",
                self.distiller.names().join(", ")
            )));
        };
        let (columns, mut rows) = summary.report(now.get());
        if let Some(n) = top {
            rows.truncate(n);
        }
        Ok((columns, rows))
    }
}

/// The per-container MVCC cell: epoch counter, head version slot,
/// retirement list, deferred-touch queue, and read-path gauges.
///
/// Field names are load-bearing: `lint.toml` maps the lock receivers
/// `touches` / `head` / `retired` in this file to the `Mvcc.*` lock
/// classes.
#[derive(Debug)]
pub struct ContainerMvcc {
    /// Epoch of the current head version (the first is 1).
    epoch: AtomicU64,
    /// The head version slot. Readers pin with one `Arc` clone under the
    /// read side; `publish` swaps under the write side.
    head: OrderedRwLock<Arc<Versioned>>,
    /// Superseded versions awaiting their last reader, as weak refs.
    retired: OrderedMutex<Vec<Weak<Versioned>>>,
    /// Deferred access-metadata bumps queued by snapshot reads; drained
    /// by the next mutator under the container lock.
    touches: OrderedMutex<TouchQueue>,
    published: AtomicU64,
    retired_total: AtomicU64,
    reclaimed: AtomicU64,
    snapshot_reads: AtomicU64,
    consume_retries: AtomicU64,
    consume_fallbacks: AtomicU64,
}

impl ContainerMvcc {
    /// A cell whose head is the given first version, published at epoch 1.
    pub fn new(extent: ExtentSnapshot, distiller: Distiller) -> Self {
        let first = Arc::new(Versioned {
            epoch: 1,
            extent,
            distiller,
        });
        ContainerMvcc {
            epoch: AtomicU64::new(1),
            head: OrderedRwLock::new(&hierarchy::MVCC_VERSIONS, first),
            retired: OrderedMutex::new(&hierarchy::MVCC_RETIRED, Vec::new()),
            touches: OrderedMutex::new(&hierarchy::MVCC_TOUCHES, TouchQueue::default()),
            published: AtomicU64::new(1),
            retired_total: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            snapshot_reads: AtomicU64::new(0),
            consume_retries: AtomicU64::new(0),
            consume_fallbacks: AtomicU64::new(0),
        }
    }

    /// The current epoch (the epoch of the head version).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the head version: readers hold the returned `Arc` for as long
    /// as they read, which is exactly their reclamation registration.
    pub fn pin(&self) -> Arc<Versioned> {
        Arc::clone(&self.head.read())
    }

    /// Publishes a new sealed version, advancing the epoch. The old head
    /// moves to the retirement list as a weak ref; dead entries (no
    /// remaining readers) are swept and counted reclaimed. Returns the
    /// new epoch.
    ///
    /// Callers must hold the container's write lock so publishes are
    /// serialized against the mutation they seal (`CONTAINERS` rank 30 <
    /// `Mvcc.versions` 45 < `Mvcc.retired` 46 — ascending).
    pub fn publish(&self, extent: ExtentSnapshot, distiller: Distiller) -> u64 {
        let next = self.epoch.load(Ordering::Acquire) + 1;
        let version = Arc::new(Versioned {
            epoch: next,
            extent,
            distiller,
        });
        let old = {
            let mut head = self.head.write();
            let old = std::mem::replace(&mut *head, version);
            // Readers that pin after this see the new epoch; the store is
            // ordered after the swap so a pin at the old epoch still has
            // the old version.
            self.epoch.store(next, Ordering::Release);
            old
        };
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.lock();
        retired.push(Arc::downgrade(&old));
        self.retired_total.fetch_add(1, Ordering::Relaxed);
        drop(old); // release our strong ref before sweeping
        Self::sweep_locked(&mut retired, &self.reclaimed);
        next
    }

    /// Drops retirement entries whose last reader departed.
    fn sweep_locked(retired: &mut Vec<Weak<Versioned>>, reclaimed: &AtomicU64) {
        let before = retired.len();
        retired.retain(|w| w.strong_count() > 0);
        let dead = (before - retired.len()) as u64;
        if dead > 0 {
            reclaimed.fetch_add(dead, Ordering::Relaxed);
        }
    }

    /// Sweeps the retirement list now (telemetry reads call this so the
    /// reclaimed gauge reflects quiescence without waiting for the next
    /// publish).
    pub fn sweep(&self) {
        let mut retired = self.retired.lock();
        Self::sweep_locked(&mut retired, &self.reclaimed);
    }

    /// Retired versions still waiting on a reader, after a sweep.
    pub fn retired_outstanding(&self) -> u64 {
        let mut retired = self.retired.lock();
        Self::sweep_locked(&mut retired, &self.reclaimed);
        retired.len() as u64
    }

    /// Queues deferred access-metadata bumps from a snapshot read of a
    /// version holding `live` rows (see "Deferred touches" above for how
    /// that bounds the queue).
    pub fn queue_touches(&self, ids: &[TupleId], at: Tick, live: usize) {
        if ids.is_empty() {
            return;
        }
        self.touches.lock().push(ids, at, live);
    }

    /// Empties the deferred-touch queue. Callers hold the container write
    /// lock and apply its [`entries`](TouchQueue::entries) to the live
    /// extent (`CONTAINERS` 30 < `Mvcc.touches` 44 — ascending).
    pub(crate) fn drain_touches(&self) -> TouchQueue {
        std::mem::take(&mut *self.touches.lock())
    }

    /// Counts one lock-free snapshot read.
    pub fn note_snapshot_read(&self) {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `CONSUME` optimistic-race loss (epoch advanced between
    /// pin and write; the attempt retries).
    pub fn note_consume_retry(&self) {
        self.consume_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one `CONSUME` that exhausted its optimistic retries and ran
    /// lock-first.
    pub fn note_consume_fallback(&self) {
        self.consume_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// This cell's counters as a telemetry row (sweeps first so
    /// `reclaimed` is current).
    pub fn telemetry(&self) -> MvccTelemetry {
        self.sweep();
        MvccTelemetry {
            epoch: self.epoch.load(Ordering::Acquire),
            published: self.published.load(Ordering::Relaxed),
            retired: self.retired_total.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            consume_retries: self.consume_retries.load(Ordering::Relaxed),
            consume_fallbacks: self.consume_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// The deferred-touch queue: touches as reads queued them, 16 bytes each,
/// plus earlier ones folded to one entry per id.
#[derive(Debug, Default)]
pub(crate) struct TouchQueue {
    /// `(id, tick)` per returned row, in the order reads queued them.
    queued: Vec<(TupleId, Tick)>,
    /// `(id, latest tick, reads)`, one entry per id, in id order.
    folded: Vec<(TupleId, Tick, u32)>,
}

impl TouchQueue {
    /// Appends one read's ids. Once more touches wait unfolded than the
    /// read's version has `live` rows, folds them all, so the queue never
    /// holds more than `live` unfolded entries plus one per distinct id.
    fn push(&mut self, ids: &[TupleId], at: Tick, live: usize) {
        self.queued.extend(ids.iter().map(|&id| (id, at)));
        if self.queued.len() > live {
            self.fold();
        }
    }

    /// Moves every queued touch into `folded`: reads add up and the latest
    /// tick wins, whatever order the reads arrived in. Sorts `queued` in
    /// place and keeps its allocation for the reads to come.
    fn fold(&mut self) {
        self.queued.sort_unstable_by_key(|&(id, _)| id);
        let earlier = self.folded.len();
        for (id, at) in self.queued.drain(..) {
            match self.folded.last_mut() {
                Some(last) if last.0 == id => merge(last, (id, at, 1)),
                _ => self.folded.push((id, at, 1)),
            }
        }
        if earlier > 0 {
            // Two id-ordered runs, the earlier fold and this one: the
            // stable sort merges them, then equal ids combine.
            self.folded.sort_by_key(|&(id, ..)| id);
            self.folded.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    merge(kept, *next);
                }
                same
            });
        }
    }

    /// Every touch as `(id, latest tick, reads)`: the folded entries, then
    /// the rest one read each, as queued. Applying them in this order or
    /// any other leaves the same metadata; a drain does not fold first,
    /// because sorting the queue costs more than the writes it saves.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (TupleId, Tick, u32)> + '_ {
        let queued = self.queued.iter().map(|&(id, at)| (id, at, 1));
        self.folded.iter().copied().chain(queued)
    }
}

/// Folds `touch` into `into`, both for the same id.
fn merge(into: &mut (TupleId, Tick, u32), touch: (TupleId, Tick, u32)) {
    into.1 = into.1.max(touch.1);
    into.2 = into.2.saturating_add(touch.2);
}

/// A pinned snapshot a caller holds across multiple reads: the version
/// `Arc` (its reclamation registration), the owning cell (for gauges and
/// deferred touches), and the tick the pin was taken at. All reads
/// evaluate at the pin tick, so a handle answers identically no matter
/// how much the live container has mutated since — the property the
/// serializability harness exercises.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    version: Arc<Versioned>,
    cell: Arc<ContainerMvcc>,
    at: Tick,
}

impl SnapshotHandle {
    pub(crate) fn new(version: Arc<Versioned>, cell: Arc<ContainerMvcc>, at: Tick) -> Self {
        SnapshotHandle { version, cell, at }
    }

    /// The epoch of the pinned version.
    pub fn epoch(&self) -> u64 {
        self.version.epoch()
    }

    /// The tick the pin was taken at; all reads evaluate here.
    pub fn at(&self) -> Tick {
        self.at
    }

    /// The pinned extent's schema.
    pub fn schema(&self) -> &Schema {
        self.version.schema()
    }

    /// Live tuples in the pinned snapshot.
    pub fn live_count(&self) -> usize {
        self.version.extent().live_count()
    }

    /// The pinned sealed extent.
    pub fn extent(&self) -> &ExtentSnapshot {
        self.version.extent()
    }

    /// Runs a non-consuming `SELECT` against the pinned snapshot at the
    /// pin tick. `CONSUME` is refused: it writes, and writes go through
    /// the database so the isolation contract (epoch re-check under the
    /// container lock) can be enforced.
    pub fn select(&self, stmt: &SelectStatement) -> Result<ResultSet> {
        let plan = Planner.plan(stmt, self.version.schema())?;
        if plan.consume {
            return Err(FungusError::PlanError(
                "CONSUME cannot run against a pinned snapshot; \
                 execute it through the database so the epoch check applies"
                    .into(),
            ));
        }
        let extent = self.version.extent();
        let (result, returned) = execute_readonly(&plan, extent, self.at)?;
        self.cell.note_snapshot_read();
        self.cell
            .queue_touches(&returned, self.at, extent.live_count());
        Ok(result)
    }

    /// Answers a `SUMMARIZE` read from the pinned distiller state.
    pub fn summarize(
        &self,
        container: &str,
        name: &str,
        top: Option<usize>,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let out = self.version.sketch_report(container, name, top, self.at)?;
        self.cell.note_snapshot_read();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_storage::{StorageConfig, TableStore};
    use fungus_types::{DataType, Value};

    fn store_with(values: &[i64]) -> TableStore {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut s = TableStore::new(schema, StorageConfig::default()).unwrap();
        for v in values {
            s.insert(vec![Value::Int(*v)], Tick(1)).unwrap();
        }
        s
    }

    fn snap_of(store: &TableStore) -> ExtentSnapshot {
        let rng = fungus_clock::DeterministicRng::new(0);
        fungus_shard::ShardedExtent::from_monolithic(store, Default::default(), &rng)
            .unwrap()
            .publish_snapshot()
    }

    #[test]
    fn publish_advances_epoch_and_retires_old_head() {
        let store = store_with(&[1, 2, 3]);
        let schema = store.schema().clone();
        let d = Distiller::new(&[], &schema, 0).unwrap();

        let cell = ContainerMvcc::new(snap_of(&store), d.clone());
        assert_eq!(cell.epoch(), 1);
        let pinned = cell.pin();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.extent().live_count(), 3);

        // Second publish retires the first version; our pin keeps it
        // alive until dropped.
        assert_eq!(cell.publish(snap_of(&store), d), 2);
        assert_eq!(cell.epoch(), 2);
        let t = cell.telemetry();
        assert_eq!((t.published, t.retired, t.reclaimed), (2, 1, 0));
        assert_eq!(cell.retired_outstanding(), 1);

        drop(pinned);
        let t = cell.telemetry();
        assert_eq!((t.retired, t.reclaimed), (1, 1));
        assert_eq!(cell.retired_outstanding(), 0);
    }

    #[test]
    fn touch_queue_drains_once() {
        let store = store_with(&[]);
        let d = Distiller::new(&[], store.schema(), 0).unwrap();
        let cell = ContainerMvcc::new(snap_of(&store), d);
        cell.queue_touches(&[TupleId(1), TupleId(2)], Tick(7), 4);
        cell.queue_touches(&[], Tick(8), 4); // no-op
        cell.queue_touches(&[TupleId(3), TupleId(1)], Tick(9), 4);
        let drained = |cell: &ContainerMvcc| cell.drain_touches().entries().collect::<Vec<_>>();
        assert_eq!(
            drained(&cell),
            vec![
                (TupleId(1), Tick(7), 1),
                (TupleId(2), Tick(7), 1),
                (TupleId(3), Tick(9), 1),
                (TupleId(1), Tick(9), 1)
            ]
        );
        assert!(drained(&cell).is_empty());
        // Past the live row count the queue folds: one entry per id.
        cell.queue_touches(&[TupleId(2), TupleId(1)], Tick(4), 3);
        cell.queue_touches(&[TupleId(2), TupleId(2)], Tick(3), 3);
        assert_eq!(
            drained(&cell),
            vec![(TupleId(1), Tick(4), 1), (TupleId(2), Tick(4), 3)]
        );
    }

    /// K reads of the same L rows, faster than any mutator drains: the
    /// queue stays within 2·L entries plus one read's ids (the unbounded
    /// queue this replaced held K·L), and one drain lands every read.
    #[test]
    fn touch_queue_is_bounded_by_the_extent_and_loses_no_read() {
        const L: usize = 50;
        const K: u64 = 40;
        let values: Vec<i64> = (0..L as i64).collect();
        let mut c = crate::Container::from_store(
            "t",
            store_with(&values),
            crate::ContainerPolicy::immortal(),
            &fungus_clock::DeterministicRng::new(3),
        )
        .unwrap();
        let cell = c.open_cell();
        let ids: Vec<TupleId> = (0..L as u64).map(TupleId).collect();
        let live = cell.pin().extent().live_count();
        assert_eq!(live, L);
        // Pins taken at different ticks queue out of tick order.
        let ticks: Vec<u64> = (0..K).map(|k| 10 + (k * 17) % K).collect();
        let entries = || {
            let q = cell.touches.lock();
            q.queued.len() + q.folded.len()
        };
        for &at in &ticks {
            cell.queue_touches(&ids, Tick(at), live);
            assert!(
                entries() <= 2 * L + ids.len(),
                "{} entries queued",
                entries()
            );
        }
        c.drain_and_publish(&cell);
        let latest = Tick(*ticks.iter().max().unwrap());
        for id in ids {
            let meta = fungus_storage::DecaySurface::meta(c.extent(), id).unwrap();
            assert_eq!(meta.access_count, K as u32, "{id}");
            assert_eq!(meta.last_access, Some(latest), "{id}");
        }
        assert_eq!(entries(), 0);
    }
}
