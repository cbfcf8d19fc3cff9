//! A container: one decaying relation with its fungus and distillers.

use fungus_clock::DeterministicRng;
use fungus_fungi::Fungus;
use fungus_query::{execute, LogicalPlan, Planner, QueryExtent, ResultSet, SelectStatement};
use fungus_shard::ShardedExtent;
use fungus_storage::{SpotCensus, TableStats, TableStore, TombstoneReason};
use fungus_types::{Result, Schema, Tick, Tuple, TupleId, Value};

use crate::distill::Distiller;
use crate::metrics::EngineMetrics;
use crate::mvcc::{ContainerMvcc, TouchQueue};
use crate::policy::ContainerPolicy;

/// What one decay pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecayReport {
    /// The tick at which the pass ran.
    pub at: Tick,
    /// Tuples evicted because freshness reached zero.
    pub evicted: usize,
    /// Values folded into distillation summaries during the pass.
    pub distilled: u64,
    /// Whether a compaction ran as part of the pass.
    pub compacted: bool,
}

/// The paper's relation `R(t, f, A1..An)` with its attached fungus.
pub struct Container {
    name: String,
    extent: ShardedExtent,
    policy: ContainerPolicy,
    fungus: Fungus,
    distiller: Distiller,
    metrics: EngineMetrics,
    /// True when the live content may differ from the last published
    /// snapshot; publishes are skipped (no epoch advance) while clean.
    mvcc_dirty: bool,
}

impl Container {
    /// Builds a container from a policy. `rng` seeds the fungus and the
    /// distillation sketches deterministically per container name.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        policy: ContainerPolicy,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        Self::assemble(name.into(), policy, rng, |policy| {
            ShardedExtent::new(schema, policy.storage.clone(), policy.sharding)
        })
    }

    /// Rebuilds a container around a restored monolithic store (snapshot
    /// recovery), re-sharding it under the policy's spec on the way in.
    /// The fungus restarts from its seed; summaries restart empty (they
    /// describe departed data, which the snapshot does not carry).
    pub fn from_store(
        name: impl Into<String>,
        store: TableStore,
        policy: ContainerPolicy,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        Self::assemble(name.into(), policy, rng, |policy| {
            ShardedExtent::from_monolithic(&store, policy.sharding)
        })
    }

    /// Rebuilds a container from a checkpoint: a layout manifest plus one
    /// restored store per resident shard. Unlike
    /// [`from_store`](Self::from_store) — which flattens and re-shards —
    /// this preserves the checkpointed boundaries, summaries, dirty flags,
    /// and lifecycle counters exactly. The fungus restarts from its seed,
    /// as in every restore path.
    pub fn from_sharded_parts(
        name: impl Into<String>,
        manifest: &fungus_shard::ShardLayoutManifest,
        stores: Vec<TableStore>,
        policy: ContainerPolicy,
        rng: &DeterministicRng,
    ) -> Result<Self> {
        Self::assemble(name.into(), policy, rng, |policy| {
            ShardedExtent::from_manifest(policy.storage.clone(), manifest, stores)
        })
    }

    /// The one constructor body: validates the policy, derives the
    /// per-container RNG, seeds fungus and distiller from it, and builds
    /// the extent.
    fn assemble(
        name: String,
        policy: ContainerPolicy,
        rng: &DeterministicRng,
        extent: impl FnOnce(&ContainerPolicy) -> Result<ShardedExtent>,
    ) -> Result<Self> {
        policy.validate()?;
        let container_rng = DeterministicRng::new(rng.derive_seed(&name));
        let fungus = policy.fungus.build(&container_rng)?;
        let extent = extent(&policy)?;
        let distiller = Distiller::new(
            &policy.distill,
            extent.schema(),
            container_rng.derive_seed("distill"),
        )?;
        Ok(Container {
            name,
            extent,
            policy,
            fungus,
            distiller,
            metrics: EngineMetrics::default(),
            mvcc_dirty: true,
        })
    }

    /// Container name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The container's schema.
    pub fn schema(&self) -> &Schema {
        self.extent.schema()
    }

    /// The active policy.
    pub fn policy(&self) -> &ContainerPolicy {
        &self.policy
    }

    /// The underlying extent.
    pub fn extent(&self) -> &ShardedExtent {
        &self.extent
    }

    /// Mutable access to the extent, for advanced callers (experiments
    /// that drive decay by hand). Invariants are maintained by the extent
    /// itself.
    pub fn extent_mut(&mut self) -> &mut ShardedExtent {
        self.mvcc_dirty = true;
        &mut self.extent
    }

    /// Operation counters.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The distillation pipelines.
    pub fn distiller(&self) -> &Distiller {
        &self.distiller
    }

    /// Live tuple count.
    pub fn live_count(&self) -> usize {
        self.extent.live_count()
    }

    /// Resident shard count.
    pub fn shard_count(&self) -> usize {
        self.extent.shard_count()
    }

    /// Whole shards skipped by query-time shard pruning so far.
    pub fn shards_pruned(&self) -> u64 {
        self.extent.shards_pruned()
    }

    /// Tail shards sealed early by the adaptive split rule.
    pub fn shards_split(&self) -> u64 {
        self.extent.shards_split()
    }

    /// Underfull sealed shards merged into a neighbor.
    pub fn shards_merged(&self) -> u64 {
        self.extent.shards_merged()
    }

    /// Shards reassembled from a shard-aware checkpoint.
    pub fn shards_restored(&self) -> u64 {
        self.extent.shards_restored()
    }

    /// Inserts one row at `now`.
    pub fn insert(&mut self, values: Vec<Value>, now: Tick) -> Result<TupleId> {
        let id = QueryExtent::insert(&mut self.extent, values, now)?;
        self.metrics.inserts += 1;
        self.mvcc_dirty = true;
        Ok(id)
    }

    /// Inserts a batch of rows at `now`, failing atomically *per row* (rows
    /// before the failing one remain inserted; the error reports the rest).
    pub fn insert_batch(&mut self, rows: Vec<Vec<Value>>, now: Tick) -> Result<Vec<TupleId>> {
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            ids.push(self.insert(row, now)?);
        }
        Ok(ids)
    }

    /// Plans a parsed SELECT against this container.
    pub fn plan(&self, stmt: &SelectStatement) -> Result<LogicalPlan> {
        Planner.plan(stmt, self.extent.schema())
    }

    /// Executes a plan at `now`, routing consumed tuples through the
    /// distiller (second natural law + cooking).
    pub fn query(&mut self, plan: &LogicalPlan, now: Tick) -> Result<ResultSet> {
        let result = execute(plan, &mut self.extent, now)?;
        // Even a non-consuming query touches access metadata.
        self.mvcc_dirty = true;
        if plan.consume {
            self.metrics.consuming_queries += 1;
            self.metrics.tuples_consumed += result.consumed.len() as u64;
            let before = self.distiller.total_absorbed();
            self.distiller.absorb_all_at(&result.consumed, false, now);
            self.metrics.distilled += self.distiller.total_absorbed() - before;
        }
        Ok(result)
    }

    /// One decay pass (the paper's clock cycle `T`): apply the fungus,
    /// distill and evict everything that rotted, and compact on cadence.
    pub fn decay_tick(&mut self, now: Tick) -> DecayReport {
        self.decay_tick_collect(now).0
    }

    /// Like [`decay_tick`](Self::decay_tick), but also hands back the
    /// evicted tuples (already distilled) so the caller can route them to
    /// other containers — the engine's rot-routing path.
    pub fn decay_tick_collect(&mut self, now: Tick) -> (DecayReport, Vec<Tuple>) {
        self.fungus.tick(&mut self.extent, now);
        self.metrics.decay_passes += 1;
        self.mvcc_dirty = true;

        let drops_before = self.extent.shards_dropped();
        let splits_before = self.extent.shards_split();
        let merges_before = self.extent.shards_merged();
        let evicted: Vec<Tuple> = self.extent.evict_rotten();
        let before = self.distiller.total_absorbed();
        self.distiller.absorb_all_at(&evicted, true, now);
        let distilled = self.distiller.total_absorbed() - before;
        self.metrics.distilled += distilled;
        self.metrics.tuples_rotted += evicted.len() as u64;
        if self.distiller.accepts_rotted() {
            self.metrics.rot_distilled += evicted.len() as u64;
        }

        let compacted = match self.policy.compact_every {
            Some(every) if every > 0 && self.metrics.decay_passes.is_multiple_of(every) => {
                let report = self.extent.compact();
                self.metrics.compactions += 1;
                self.metrics.segments_dropped += report.segments_dropped as u64;
                true
            }
            _ => false,
        };
        // Rot drops happen during eviction; dead-shard drops during
        // compaction; adaptive splits and merges at the eviction sweep.
        // Count them all after the pass.
        self.metrics.shards_dropped += self.extent.shards_dropped() - drops_before;
        self.metrics.shards_split += self.extent.shards_split() - splits_before;
        self.metrics.shards_merged += self.extent.shards_merged() - merges_before;

        (
            DecayReport {
                at: now,
                evicted: evicted.len(),
                distilled,
                compacted,
            },
            evicted,
        )
    }

    /// Records that `n` rot-evicted tuples were delivered along a route
    /// (called by the database's routing layer; feeds the health monitor's
    /// waste accounting — routed data is preserved, not wasted).
    pub fn note_rot_routed(&mut self, n: u64) {
        self.metrics.rot_routed += n;
    }

    /// A human-readable description of the attached fungus.
    pub fn fungus_description(&self) -> String {
        self.fungus.describe()
    }

    /// Point-in-time storage statistics.
    pub fn stats(&self, now: Tick) -> TableStats {
        self.extent.stats(now)
    }

    /// Census of rotting spots and holes (the Blue-Cheese structure).
    pub fn spot_census(&self) -> SpotCensus {
        self.extent.census()
    }

    /// Cures every infection — the "owner taking care" intervention the
    /// paper mentions ("when not being taking care of by its owner").
    pub fn cure_all(&mut self) -> usize {
        self.mvcc_dirty = true;
        self.extent.cure_all()
    }

    // ---- MVCC publication ---------------------------------------------
    //
    // The database layer owns one `ContainerMvcc` cell per container and
    // calls these under this container's write lock; see `crate::mvcc`
    // for the isolation contract they implement.

    /// Applies deferred access-metadata bumps queued by snapshot reads,
    /// each `(id, latest tick, reads)` entry in one write (ids that rotted
    /// or were consumed since queueing are skipped by the extent).
    pub(crate) fn apply_touches(&mut self, touches: &TouchQueue) {
        for (id, at, reads) in touches.entries() {
            QueryExtent::touch_by(&mut self.extent, id, at, reads);
            self.mvcc_dirty = true;
        }
    }

    /// Applies the write half of an optimistic `CONSUME` whose read half
    /// ran against a pinned snapshot: deletes exactly `returned` from the
    /// live extent, fills `result.consumed`, and updates the same
    /// metrics/distillation [`query`](Self::query) would. The caller has
    /// already verified the epoch did not advance since the pin, which
    /// (because every mutator publishes before unlocking) guarantees the
    /// live content equals the snapshot the answer was computed from.
    pub fn apply_consume(
        &mut self,
        mut result: ResultSet,
        returned: &[TupleId],
        now: Tick,
    ) -> ResultSet {
        for id in returned {
            if let Some(mut t) =
                QueryExtent::delete(&mut self.extent, *id, TombstoneReason::Consumed)
            {
                // A consumed tuple was, by definition, read once.
                t.meta.touch(now);
                result.consumed.push(t);
            }
        }
        self.metrics.consuming_queries += 1;
        self.metrics.tuples_consumed += result.consumed.len() as u64;
        let before = self.distiller.total_absorbed();
        self.distiller.absorb_all_at(&result.consumed, false, now);
        self.metrics.distilled += self.distiller.total_absorbed() - before;
        self.mvcc_dirty = true;
        result
    }

    /// Seals the current content as the first version of a fresh cell (the
    /// database calls this once, when it installs the container).
    pub fn open_cell(&mut self) -> ContainerMvcc {
        self.mvcc_dirty = false;
        ContainerMvcc::new(self.extent.publish_snapshot(), self.distiller.clone())
    }

    /// Publishes a sealed snapshot of the current content into `cell`,
    /// advancing its epoch — unless nothing changed since the last publish
    /// (clean publishes are skipped so pure readers never trigger spurious
    /// `CONSUME` retries).
    pub fn publish_into(&mut self, cell: &ContainerMvcc) {
        if !self.mvcc_dirty {
            return;
        }
        let snapshot = self.extent.publish_snapshot();
        cell.publish(snapshot, self.distiller.clone());
        self.mvcc_dirty = false;
    }
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("name", &self.name)
            .field("live", &self.extent.live_count())
            .field("shards", &self.extent.shard_count())
            .field("fungus", &self.fungus.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::{DistillSpec, DistillTrigger};
    use fungus_fungi::FungusSpec;
    use fungus_query::parse_statement;
    use fungus_storage::DecaySurface;
    use fungus_summary::{AnySummary, SummarySpec};
    use fungus_types::{DataType, TickDelta};

    fn rng() -> DeterministicRng {
        DeterministicRng::new(7)
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("v", DataType::Int)]).unwrap()
    }

    fn select(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            fungus_query::Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn container_with_policy(policy: ContainerPolicy) -> Container {
        Container::new("test", schema(), policy, &rng()).unwrap()
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let mut c = container_with_policy(ContainerPolicy::immortal());
        c.insert_batch(vec![vec![Value::Int(1)], vec![Value::Int(2)]], Tick(1))
            .unwrap();
        let plan = c.plan(&select("SELECT v FROM test WHERE v > 1")).unwrap();
        let r = c.query(&plan, Tick(2)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(c.metrics().inserts, 2);
        assert_eq!(c.metrics().consuming_queries, 0);
    }

    #[test]
    fn decay_tick_applies_fungus_and_evicts() {
        let policy = ContainerPolicy::new(FungusSpec::Linear { lifetime: 2 });
        let mut c = container_with_policy(policy);
        c.insert(vec![Value::Int(1)], Tick(0)).unwrap();
        let r1 = c.decay_tick(Tick(1));
        assert_eq!(r1.evicted, 0);
        let r2 = c.decay_tick(Tick(2));
        assert_eq!(r2.evicted, 1, "lifetime 2 → gone after two passes");
        assert_eq!(c.live_count(), 0);
        assert_eq!(c.metrics().tuples_rotted, 1);
        assert_eq!(c.metrics().decay_passes, 2);
    }

    #[test]
    fn consumed_and_rotted_tuples_are_distilled() {
        let policy =
            ContainerPolicy::new(FungusSpec::Linear { lifetime: 1 }).with_distiller(DistillSpec {
                name: "v".into(),
                column: Some("v".into()),
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Both,
            });
        let mut c = container_with_policy(policy);
        c.insert_batch(
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(20)],
                vec![Value::Int(30)],
            ],
            Tick(0),
        )
        .unwrap();
        // Consume v=10.
        let plan = c
            .plan(&select("SELECT * FROM t WHERE v = 10 CONSUME"))
            .unwrap();
        c.query(&plan, Tick(1)).unwrap();
        // Rot the rest.
        c.decay_tick(Tick(2));
        assert_eq!(c.live_count(), 0);
        match c.distiller().summary("v").unwrap() {
            AnySummary::Moments(m) => {
                assert_eq!(m.count(), 3, "all three departures distilled");
                assert_eq!(m.mean(), Some(20.0));
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(c.metrics().distilled, 3);
        assert_eq!(c.metrics().tuples_consumed, 1);
        assert_eq!(c.metrics().tuples_rotted, 2);
        assert_eq!(c.metrics().consumption_ratio(), 1.0 / 3.0);
    }

    #[test]
    fn compaction_runs_on_cadence() {
        let policy = ContainerPolicy::new(FungusSpec::Retention { max_age: 1 })
            .with_storage(fungus_storage::StorageConfig::for_tests())
            .with_compaction_every(Some(3));
        let mut c = container_with_policy(policy);
        for i in 0..32i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        // One row that outlives the rest: a wholly rotten shard detaches in
        // one piece and would leave the compaction nothing to drop.
        c.insert(vec![Value::Int(32)], Tick(3)).unwrap();
        let reports: Vec<DecayReport> = (1..=3).map(|t| c.decay_tick(Tick(t))).collect();
        assert!(!reports[0].compacted);
        assert!(!reports[1].compacted);
        assert!(reports[2].compacted, "third pass compacts");
        assert!(c.metrics().compactions == 1);
        assert!(
            c.metrics().segments_dropped > 0,
            "the first 32 rotted, their segments drop"
        );
    }

    #[test]
    fn bad_policy_is_rejected_at_creation() {
        let policy = ContainerPolicy::new(FungusSpec::Exponential {
            lambda: -1.0,
            rot_threshold: 0.1,
        });
        assert!(Container::new("x", schema(), policy, &rng()).is_err());
        let policy = ContainerPolicy::immortal().with_distiller(DistillSpec {
            name: "bad".into(),
            column: Some("missing".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Both,
        });
        assert!(Container::new("x", schema(), policy, &rng()).is_err());
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = || {
            let policy = ContainerPolicy::new(FungusSpec::Egi(Default::default()))
                .with_decay_period(TickDelta(1));
            let mut c = container_with_policy(policy);
            for i in 0..100i64 {
                c.insert(vec![Value::Int(i)], Tick(i as u64)).unwrap();
            }
            for t in 100..150u64 {
                c.decay_tick(Tick(t));
            }
            (c.live_count(), c.extent().infected_ids())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cure_all_is_the_owner_intervention() {
        let policy = ContainerPolicy::new(FungusSpec::Egi(Default::default()));
        let mut c = container_with_policy(policy);
        for i in 0..50i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        for t in 1..=5u64 {
            c.decay_tick(Tick(t));
        }
        assert!(c.extent().infected_count() > 0);
        let cured = c.cure_all();
        assert!(cured > 0);
        assert_eq!(c.extent().infected_count(), 0);
    }

    #[test]
    fn sharded_container_matches_monolithic_run() {
        let run = |sharding: fungus_shard::ShardSpec| {
            let policy = ContainerPolicy::new(FungusSpec::Egi(Default::default()))
                .with_decay_period(TickDelta(1))
                .with_sharding(sharding);
            let mut c = container_with_policy(policy);
            for i in 0..120i64 {
                c.insert(vec![Value::Int(i)], Tick(i as u64 / 4)).unwrap();
            }
            for t in 30..70u64 {
                c.decay_tick(Tick(t));
            }
            let plan = c.plan(&select("SELECT v FROM test WHERE v >= 30")).unwrap();
            let rows = c.query(&plan, Tick(70)).unwrap().rows;
            (c.live_count(), c.metrics().tuples_rotted, rows)
        };
        let mono = run(fungus_shard::ShardSpec::default());
        let sharded = run(fungus_shard::ShardSpec::new(16));
        assert_eq!(mono, sharded, "sharding must not change any answer");
    }

    #[test]
    fn sharded_container_drops_whole_shards() {
        let policy = ContainerPolicy::new(FungusSpec::Retention { max_age: 2 })
            .with_sharding(fungus_shard::ShardSpec::new(8));
        let mut c = container_with_policy(policy);
        for i in 0..32i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        assert_eq!(c.shard_count(), 4);
        c.decay_tick(Tick(1));
        c.decay_tick(Tick(2));
        c.decay_tick(Tick(3));
        assert_eq!(c.live_count(), 0);
        assert_eq!(
            c.metrics().shards_dropped,
            4,
            "every shard rotted wholesale and detached in one piece"
        );
        assert_eq!(c.metrics().tuples_rotted, 32);
    }

    #[test]
    fn from_store_restores_extent() {
        let mut c = container_with_policy(ContainerPolicy::immortal());
        c.insert(vec![Value::Int(5)], Tick(1)).unwrap();
        assert_eq!(c.shard_count(), 1);
        let mut bytes = None;
        c.extent()
            .for_each_shard_store(|_, store| {
                bytes = Some(fungus_storage::encode_table(store));
                Ok(())
            })
            .unwrap();
        let store = fungus_storage::decode_table(bytes.unwrap()).unwrap();
        let restored =
            Container::from_store("test", store, ContainerPolicy::immortal(), &rng()).unwrap();
        assert_eq!(restored.live_count(), 1);
        assert_eq!(restored.name(), "test");
    }
}
