//! Shared server counters, fault accounting included.
//!
//! One [`ServerStats`] is shared by the accept thread, every worker, the
//! supervisor that respawns dead workers, and every [`Session`] (so the
//! `.health` / `.stats` dot commands can report it). All counters are
//! monotone relaxed atomics — they are operational telemetry, not
//! synchronisation.
//!
//! [`Session`]: crate::session::Session

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fungus_lint_rt::{hierarchy, OrderedMutex};
use serde::{Deserialize, Serialize};

use fungus_core::{MvccTelemetry, ShardTelemetry, SharedDatabase, SketchTelemetry};

/// Monotone counters shared by every server thread.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections handed to the worker pool.
    pub(crate) accepted: AtomicU64,
    /// Connections refused at capacity.
    pub(crate) rejected: AtomicU64,
    /// Requests decoded.
    pub(crate) requests: AtomicU64,
    /// Responses written back.
    pub(crate) responses: AtomicU64,
    /// Error responses among them (protocol + engine failures).
    pub(crate) errors: AtomicU64,
    /// Faults the injection layer put on connection streams.
    pub(crate) faults_injected: AtomicU64,
    /// Worker threads that died to a panic (injected or organic).
    pub(crate) worker_panics: AtomicU64,
    /// Replacement workers the supervisor spawned.
    pub(crate) workers_respawned: AtomicU64,
    /// Sessions currently registered on reactor threads (a gauge:
    /// incremented at enrolment, decremented at close; 0 under the
    /// threaded model).
    pub(crate) reactor_sessions: AtomicU64,
    /// Readiness events delivered to reactor connections.
    pub(crate) reactor_ready_events: AtomicU64,
    /// Dispatch attempts parked because the worker queue was full (each
    /// is one backpressure stall of one connection).
    pub(crate) reactor_stalls: AtomicU64,
    /// Self-pipe wake bytes drained (enrolments + completions + shutdown
    /// nudges, coalesced per tick).
    pub(crate) reactor_wakeups: AtomicU64,
    /// High-water mark of any single connection's buffered response
    /// bytes (updated with `fetch_max`).
    pub(crate) reactor_write_hwm: AtomicU64,
    /// Decay-driver tick counter, linked once the driver is spawned.
    driver_ticks: OrderedMutex<Option<Arc<AtomicU64>>>,
    /// Catalog handle for shard-layout and cooking-sketch gauges, linked
    /// by `serve`.
    shard_source: OrderedMutex<Option<SharedDatabase>>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            reactor_sessions: AtomicU64::new(0),
            reactor_ready_events: AtomicU64::new(0),
            reactor_stalls: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_write_hwm: AtomicU64::new(0),
            driver_ticks: OrderedMutex::new(&hierarchy::STATS, None),
            shard_source: OrderedMutex::new(&hierarchy::STATS, None),
        }
    }
}

/// A point-in-time copy of the server counters, and their wire form: the
/// `.health` / `.stats` view, fault telemetry included. This is how an
/// operator (or the chaos suite) checks from the *outside* that injected
/// faults were absorbed: panics counted, workers respawned, and the decay
/// driver still ticking. Counters added after the first wire release
/// default to 0 when an older peer omits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Connections handed to the worker pool.
    pub accepted: u64,
    /// Connections refused at capacity.
    pub rejected: u64,
    /// Requests decoded.
    pub requests: u64,
    /// Responses written back (absent faults, exactly one per request;
    /// under fault injection a torn response leaves a gap).
    pub responses: u64,
    /// Error responses among them (protocol + engine failures).
    pub errors: u64,
    /// Faults injected into connection streams by the fault plan.
    pub faults_injected: u64,
    /// Worker threads lost to panics.
    pub worker_panics: u64,
    /// Workers the supervisor respawned to replace them.
    pub workers_respawned: u64,
    /// Completed decay-driver ticks (0 when no driver is configured).
    pub driver_ticks: u64,
    /// Resident shards across every container (0 when no catalog is
    /// linked).
    #[serde(default)]
    pub shards: u64,
    /// Shards detached whole in O(1) — rot drops plus dead-shard
    /// compaction drops.
    #[serde(default)]
    pub shards_dropped: u64,
    /// Whole shards skipped by query-time shard pruning.
    #[serde(default)]
    pub shards_pruned: u64,
    /// Tail shards sealed early by the adaptive split rule.
    #[serde(default)]
    pub shards_split: u64,
    /// Underfull sealed shards merged into a time-adjacent neighbor.
    #[serde(default)]
    pub shards_merged: u64,
    /// Shards reassembled from a shard-aware checkpoint restore.
    #[serde(default)]
    pub shards_restored: u64,
    /// Distillation pipelines attached across every container (0 when no
    /// catalog is linked).
    #[serde(default)]
    pub sketches: u64,
    /// `SUMMARIZE` / `.sketch` reads served from those pipelines.
    #[serde(default)]
    pub sketch_hits: u64,
    /// Values folded into the pipelines from departing tuples.
    #[serde(default)]
    pub sketch_absorbed: u64,
    /// Sum of per-container MVCC epoch counters.
    #[serde(default)]
    pub mvcc_epoch: u64,
    /// MVCC snapshot versions published.
    #[serde(default)]
    pub mvcc_published: u64,
    /// Superseded versions handed to the reclamation list.
    #[serde(default)]
    pub mvcc_retired: u64,
    /// Retired versions whose memory was released (equals `mvcc_retired`
    /// at reader quiescence).
    #[serde(default)]
    pub mvcc_reclaimed: u64,
    /// Non-consuming reads served lock-free from sealed snapshots.
    #[serde(default)]
    pub mvcc_snapshot_reads: u64,
    /// Optimistic `CONSUME` attempts that lost the epoch race and
    /// retried.
    #[serde(default)]
    pub mvcc_consume_retries: u64,
    /// `CONSUME`s whose last attempt ran lock-first.
    #[serde(default)]
    pub mvcc_consume_fallbacks: u64,
    /// Sessions currently registered on reactor threads (0 under the
    /// threaded model).
    #[serde(default)]
    pub reactor_sessions: u64,
    /// Readiness events delivered to reactor connections.
    #[serde(default)]
    pub reactor_ready_events: u64,
    /// Dispatches parked on a full worker queue (backpressure stalls).
    #[serde(default)]
    pub reactor_stalls: u64,
    /// Self-pipe wake bytes the reactors drained.
    #[serde(default)]
    pub reactor_wakeups: u64,
    /// High-water mark of one connection's buffered response bytes.
    #[serde(default)]
    pub reactor_write_hwm: u64,
}

impl MetricsSnapshot {
    /// Every counter as a `(name, value)` row, in `.stats` order; the names
    /// are the wire field names.
    pub fn rows(&self) -> [(&'static str, u64); 30] {
        [
            ("accepted", self.accepted),
            ("rejected", self.rejected),
            ("requests", self.requests),
            ("responses", self.responses),
            ("errors", self.errors),
            ("faults_injected", self.faults_injected),
            ("worker_panics", self.worker_panics),
            ("workers_respawned", self.workers_respawned),
            ("driver_ticks", self.driver_ticks),
            ("shards", self.shards),
            ("shards_dropped", self.shards_dropped),
            ("shards_pruned", self.shards_pruned),
            ("shards_split", self.shards_split),
            ("shards_merged", self.shards_merged),
            ("shards_restored", self.shards_restored),
            ("sketches", self.sketches),
            ("sketch_hits", self.sketch_hits),
            ("sketch_absorbed", self.sketch_absorbed),
            ("mvcc_epoch", self.mvcc_epoch),
            ("mvcc_published", self.mvcc_published),
            ("mvcc_retired", self.mvcc_retired),
            ("mvcc_reclaimed", self.mvcc_reclaimed),
            ("mvcc_snapshot_reads", self.mvcc_snapshot_reads),
            ("mvcc_consume_retries", self.mvcc_consume_retries),
            ("mvcc_consume_fallbacks", self.mvcc_consume_fallbacks),
            ("reactor_sessions", self.reactor_sessions),
            ("reactor_ready_events", self.reactor_ready_events),
            ("reactor_stalls", self.reactor_stalls),
            ("reactor_wakeups", self.reactor_wakeups),
            ("reactor_write_hwm", self.reactor_write_hwm),
        ]
    }
}

impl ServerStats {
    /// Links the decay driver's tick counter so snapshots (and the
    /// `.stats` command) can report maintenance progress.
    pub(crate) fn link_driver(&self, ticks: Arc<AtomicU64>) {
        *self.driver_ticks.lock() = Some(ticks);
    }

    /// Links the catalog so snapshots can report shard-layout gauges
    /// (resident shards, whole-shard drops, shard prune counts).
    pub(crate) fn link_shards(&self, db: SharedDatabase) {
        *self.shard_source.lock() = Some(db);
    }

    /// Current shard telemetry (zeros without a linked catalog).
    pub fn shard_telemetry(&self) -> ShardTelemetry {
        // Clone the handle out and let the guard drop before touching the
        // catalog: the stats cells are leaves of the lock hierarchy, so
        // calling into the catalog with one held would invert the declared
        // order (and could deadlock against a worker taking stats under
        // the catalog lock).
        let db = self.shard_source.lock().clone();
        db.map(|db| db.shard_telemetry()).unwrap_or_default()
    }

    /// Current cooking-sketch telemetry (zeros without a linked catalog).
    /// Same clone-the-handle-then-drop-the-guard discipline as
    /// [`shard_telemetry`](Self::shard_telemetry).
    pub fn sketch_telemetry(&self) -> SketchTelemetry {
        let db = self.shard_source.lock().clone();
        db.map(|db| db.sketch_telemetry()).unwrap_or_default()
    }

    /// Current MVCC telemetry (zeros without a linked catalog). Same
    /// clone-the-handle-then-drop-the-guard discipline as
    /// [`shard_telemetry`](Self::shard_telemetry).
    pub fn mvcc_telemetry(&self) -> MvccTelemetry {
        let db = self.shard_source.lock().clone();
        db.map(|db| db.mvcc_telemetry()).unwrap_or_default()
    }

    /// Adds stream-fault injections from a finished connection.
    pub(crate) fn add_faults(&self, n: u64) {
        if n > 0 {
            self.faults_injected.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Completed decay-driver ticks (0 without a driver).
    pub fn driver_ticks(&self) -> u64 {
        self.driver_ticks
            .lock()
            .as_ref()
            .map(|t| t.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.shard_telemetry();
        let sketches = self.sketch_telemetry();
        let mvcc = self.mvcc_telemetry();
        MetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            driver_ticks: self.driver_ticks(),
            shards: shards.resident,
            shards_dropped: shards.dropped,
            shards_pruned: shards.pruned,
            shards_split: shards.split,
            shards_merged: shards.merged,
            shards_restored: shards.restored,
            sketches: sketches.sketches,
            sketch_hits: sketches.hits,
            sketch_absorbed: sketches.absorbed,
            mvcc_epoch: mvcc.epoch,
            mvcc_published: mvcc.published,
            mvcc_retired: mvcc.retired,
            mvcc_reclaimed: mvcc.reclaimed,
            mvcc_snapshot_reads: mvcc.snapshot_reads,
            mvcc_consume_retries: mvcc.consume_retries,
            mvcc_consume_fallbacks: mvcc.consume_fallbacks,
            reactor_sessions: self.reactor_sessions.load(Ordering::Relaxed),
            reactor_ready_events: self.reactor_ready_events.load(Ordering::Relaxed),
            reactor_stalls: self.reactor_stalls.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reactor_write_hwm: self.reactor_write_hwm.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters_and_driver_link() {
        let stats = ServerStats::default();
        stats.requests.fetch_add(3, Ordering::Relaxed);
        stats.add_faults(2);
        stats.add_faults(0);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.faults_injected, 2);
        assert_eq!(snap.driver_ticks, 0, "no driver linked yet");

        let ticks = Arc::new(AtomicU64::new(17));
        stats.link_driver(Arc::clone(&ticks));
        assert_eq!(stats.snapshot().driver_ticks, 17);
        ticks.fetch_add(1, Ordering::Relaxed);
        assert_eq!(stats.driver_ticks(), 18);
    }

    #[test]
    fn shard_gauges_come_from_the_linked_catalog() {
        use fungus_types::{DataType, Schema, Value};

        let stats = ServerStats::default();
        assert_eq!(stats.snapshot().shards, 0, "no catalog linked yet");

        let mut db = fungus_core::Database::new(1);
        db.create_container(
            "r",
            Schema::from_pairs(&[("v", DataType::Int)]).unwrap(),
            fungus_core::ContainerPolicy::immortal().with_sharding(fungus_core::ShardSpec::new(4)),
        )
        .unwrap();
        for i in 0..10i64 {
            db.insert("r", vec![Value::Int(i)]).unwrap();
        }
        stats.link_shards(SharedDatabase::new(db));
        let snap = stats.snapshot();
        assert_eq!(snap.shards, 3, "10 rows at 4 per shard → 3 resident");
        assert_eq!(snap.shards_dropped, 0);
    }

    #[test]
    fn sketch_gauges_come_from_the_linked_catalog() {
        use fungus_types::{DataType, Schema};

        let stats = ServerStats::default();
        assert_eq!(stats.snapshot().sketches, 0, "no catalog linked yet");

        let mut db = fungus_core::Database::new(2);
        db.create_container(
            "r",
            Schema::from_pairs(&[("v", DataType::Int)]).unwrap(),
            fungus_core::ContainerPolicy::immortal(),
        )
        .unwrap();
        db.execute_ddl(
            "CREATE CONTAINER clicks (item INT) WITH FUNGUS ttl(2) \
             WITH DISTILL (hot = fading_topk(4, 0.1) ON item)",
        )
        .unwrap();
        db.execute("INSERT INTO clicks VALUES (1), (1), (2)")
            .unwrap();
        db.run_for(3);
        db.execute("SUMMARIZE hot FROM clicks").unwrap();
        stats.link_shards(SharedDatabase::new(db));
        let snap = stats.snapshot();
        assert_eq!(snap.sketches, 1, "one pipeline across two containers");
        assert_eq!(snap.sketch_hits, 1);
        assert_eq!(snap.sketch_absorbed, 3, "all three rotted tuples cooked");
    }
}
