//! The database: a catalog of decaying containers on one decay clock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use fungus_lint_rt::{hierarchy, OrderedRwLock};

use fungus_clock::{DeterministicRng, Task, TaskHandle, TickScheduler, VirtualClock};
use fungus_query::{
    execute_readonly, insert_literal_rows, parse_statement, Planner, ResultSet, SelectStatement,
    Statement,
};
use fungus_types::{FungusError, Result, Schema, Tick, TupleId, Value};

use crate::container::Container;
use crate::health::{HealthMonitor, HealthReport};
use crate::mvcc::{ContainerMvcc, SnapshotHandle};
use crate::policy::ContainerPolicy;
use crate::route::{Route, RouteSpec, RouteTable};

/// How many optimistic attempts a `CONSUME` makes (each loss of the epoch
/// race costs one) before its next attempt runs lock-first.
const CONSUME_ATTEMPTS: u32 = 3;

/// The outcome of [`Database::execute`]: the answer set plus how many
/// values the consume path distilled into summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The query's answer set (and consumed tuples, if any).
    pub result: ResultSet,
    /// Values folded into distillation summaries by this statement.
    pub distilled: u64,
}

/// Shared handle to one container behind its hierarchy-ranked lock.
pub type ContainerHandle = Arc<OrderedRwLock<Container>>;

/// A catalog of containers sharing one virtual decay clock.
///
/// All stochastic behaviour (fungus seeding, sketch hashing) derives from
/// the single construction seed, so a `Database` run is reproducible
/// bit-for-bit.
pub struct Database {
    rng: DeterministicRng,
    scheduler: TickScheduler,
    /// Each container beside its MVCC cell (see [`crate::mvcc`]), which
    /// sits outside the container lock so readers can pin without it.
    containers: BTreeMap<String, (ContainerHandle, Arc<ContainerMvcc>)>,
    decay_tasks: BTreeMap<String, TaskHandle>,
    routes: BTreeMap<String, RouteTable>,
}

impl Database {
    /// An empty database with the given master seed.
    pub fn new(seed: u64) -> Self {
        Database {
            rng: DeterministicRng::new(seed),
            scheduler: TickScheduler::new(VirtualClock::new()),
            containers: BTreeMap::new(),
            decay_tasks: BTreeMap::new(),
            routes: BTreeMap::new(),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &VirtualClock {
        self.scheduler.clock()
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.scheduler.clock().now()
    }

    /// The decay scheduler (for registering extra periodic tasks such as
    /// health probes in experiments).
    pub fn scheduler(&self) -> &TickScheduler {
        &self.scheduler
    }

    /// The master RNG factory.
    pub fn rng(&self) -> &DeterministicRng {
        &self.rng
    }

    /// Creates a container and registers its decay task on the shared
    /// clock.
    pub fn create_container(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        policy: ContainerPolicy,
    ) -> Result<()> {
        let name = name.into();
        if self.containers.contains_key(&name) {
            return Err(FungusError::ContainerExists(name));
        }
        let decay_period = policy.decay_period;
        let container = Container::new(name.clone(), schema, policy, &self.rng)?;
        self.install(name, container, decay_period);
        Ok(())
    }

    /// Registers an already-built container (snapshot restore path).
    pub fn adopt_container(&mut self, container: Container) -> Result<()> {
        let name = container.name().to_string();
        if self.containers.contains_key(&name) {
            return Err(FungusError::ContainerExists(name));
        }
        let decay_period = container.policy().decay_period;
        self.install(name, container, decay_period);
        Ok(())
    }

    /// Shared registration path: wires the container, its (initially empty)
    /// route table, and its decay task — which evicts, distills, and then
    /// delivers rotted departures along the routes *after* releasing the
    /// source lock (deadlock-free even under routing cycles).
    fn install(
        &mut self,
        name: String,
        mut container: Container,
        decay_period: fungus_types::TickDelta,
    ) {
        let cell = Arc::new(container.open_cell());
        let shared = Arc::new(OrderedRwLock::new(&hierarchy::CONTAINERS, container));
        let route_table: RouteTable = Arc::new(OrderedRwLock::new(&hierarchy::ROUTES, Vec::new()));
        let task_target = Arc::clone(&shared);
        let task_routes = Arc::clone(&route_table);
        let task_cell = Arc::clone(&cell);
        let handle = self.scheduler.register(Task {
            name: format!("decay/{name}"),
            period: decay_period,
            // Decay runs at priority 0; experiment probes registered later
            // should use positive priorities to observe post-decay state.
            priority: 0,
            action: Box::new(move |now| {
                let evicted = {
                    let mut guard = task_target.write();
                    let evicted = guard.decay_tick_collect(now).1;
                    // Seal the post-sweep state before the lock drops: a
                    // decay sweep must never be visible half-applied.
                    guard.drain_and_publish(&task_cell);
                    evicted
                };
                if !evicted.is_empty() {
                    let mut routed_any = false;
                    for route in task_routes.read().iter() {
                        // Routed inserts can only fail on a schema drift the
                        // resolve-time validation already excluded.
                        if matches!(route.deliver(&evicted, true, now), Ok(n) if n > 0) {
                            routed_any = true;
                        }
                    }
                    if routed_any {
                        task_target.write().note_rot_routed(evicted.len() as u64);
                    }
                }
            }),
        });
        self.decay_tasks.insert(name.clone(), handle);
        self.routes.insert(name.clone(), route_table);
        self.containers.insert(name, (shared, cell));
    }

    /// Adds a rot route: departing tuples of `from` (per the spec's
    /// trigger) are projected and inserted into the spec's target
    /// container — the paper's "stored in a new container subject to
    /// different data fungi".
    ///
    /// ```
    /// use fungus_core::{ContainerPolicy, Database, DistillTrigger, RouteSpec};
    /// use fungus_fungi::FungusSpec;
    /// use fungus_types::{DataType, Schema};
    ///
    /// let mut db = Database::new(1);
    /// let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    /// db.create_container(
    ///     "hot",
    ///     schema.clone(),
    ///     ContainerPolicy::new(FungusSpec::Retention { max_age: 2 }),
    /// )
    /// .unwrap();
    /// db.create_container("cold", schema, ContainerPolicy::immortal()).unwrap();
    /// db.add_route(
    ///     "hot",
    ///     RouteSpec {
    ///         to: "cold".into(),
    ///         columns: vec!["v".into()],
    ///         trigger: DistillTrigger::Rotted,
    ///     },
    /// )
    /// .unwrap();
    ///
    /// db.execute("INSERT INTO hot VALUES (7)").unwrap();
    /// db.run_for(3); // the TTL rots it out of `hot`…
    /// let n = db.execute("SELECT COUNT(*) FROM cold").unwrap();
    /// assert_eq!(n.result.scalar().unwrap().as_i64(), Some(1)); // …into `cold`.
    /// ```
    pub fn add_route(&mut self, from: &str, spec: RouteSpec) -> Result<()> {
        let source = self.container(from)?;
        let (target, target_cell) = self.entry(&spec.to)?;
        // Clone the source schema out and release the source lock before
        // resolving: `Route::resolve` takes the target container's lock,
        // and holding both container locks at once inverts the hierarchy —
        // for a self-route (`from == spec.to`) it would even re-enter the
        // same `RwLock`, which deadlocks when a writer is queued between
        // the two reads.
        let source_schema = source.read().schema().clone();
        let route = Route::resolve(
            &spec,
            &source_schema,
            Arc::clone(target),
            Arc::clone(target_cell),
        )?;
        // The route table is created alongside the container, but a
        // concurrent `drop_container` can remove it between the schema
        // read above and this lookup — surface that as the same error
        // the container lookup would have produced, not a panic.
        self.routes
            .get(from)
            .ok_or_else(|| FungusError::UnknownContainer(from.to_string()))?
            .write()
            .push(route);
        Ok(())
    }

    /// The route specs' target names installed on `from` (diagnostics).
    pub fn route_targets(&self, from: &str) -> Vec<String> {
        self.routes
            .get(from)
            .map(|t| t.read().iter().map(|r| r.to_name.clone()).collect())
            .unwrap_or_default()
    }

    /// Drops a container and its decay task. Returns true if it existed.
    pub fn drop_container(&mut self, name: &str) -> bool {
        if let Some(handle) = self.decay_tasks.remove(name) {
            self.scheduler.unregister(handle);
        }
        self.routes.remove(name);
        // Routes *into* the dropped container keep their Arc alive but
        // deliver into a detached store; remove them too.
        for table in self.routes.values() {
            table.write().retain(|r| r.to_name != name);
        }
        self.containers.remove(name).is_some()
    }

    /// Shared handle to a container.
    pub fn container(&self, name: &str) -> Result<ContainerHandle> {
        self.entry(name).map(|(c, _)| Arc::clone(c))
    }

    /// A container's handle and MVCC cell.
    fn entry(&self, name: &str) -> Result<(&ContainerHandle, &Arc<ContainerMvcc>)> {
        self.containers
            .get(name)
            .map(|(c, cell)| (c, cell))
            .ok_or_else(|| FungusError::UnknownContainer(name.to_string()))
    }

    /// Container names in deterministic (lexicographic) order.
    pub fn container_names(&self) -> Vec<String> {
        self.containers.keys().cloned().collect()
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Inserts one row into a container at the current tick.
    pub fn insert(&self, container: &str, values: Vec<Value>) -> Result<TupleId> {
        let (c, cell) = self.entry(container)?;
        let now = self.now();
        let mut guard = c.write();
        let id = guard.insert(values, now)?;
        guard.drain_and_publish(cell);
        Ok(id)
    }

    /// Inserts a batch of rows into a container at the current tick.
    pub fn insert_batch(&self, container: &str, rows: Vec<Vec<Value>>) -> Result<Vec<TupleId>> {
        let (c, cell) = self.entry(container)?;
        let now = self.now();
        let mut guard = c.write();
        let ids = guard.insert_batch(rows, now)?;
        guard.drain_and_publish(cell);
        Ok(ids)
    }

    /// Parses and executes one SQL statement, routed to the container named
    /// in its `FROM` / `INTO` clause.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome> {
        self.run_statement(parse_statement(sql)?)
    }

    fn run_statement(&self, stmt: Statement) -> Result<QueryOutcome> {
        let now = self.now();
        match stmt {
            Statement::Select(stmt) => self.select(&stmt, now),
            Statement::Insert { table, rows } => {
                let (c, cell) = self.entry(&table)?;
                let mut guard = c.write();
                let inserted =
                    insert_literal_rows(rows, now, |values| guard.insert(values, now).map(drop))?;
                guard.drain_and_publish(cell);
                Ok(QueryOutcome {
                    result: ResultSet {
                        columns: vec!["inserted".into()],
                        rows: vec![vec![Value::Int(inserted)]],
                        consumed: Vec::new(),
                        scanned: 0,
                        pruned_segments: 0,
                        pruned_shards: 0,
                        used_index: false,
                    },
                    distilled: 0,
                })
            }
            Statement::Explain(stmt) => {
                // A plan depends on the schema alone, and every version
                // carries it: no container lock.
                let (_, cell) = self.entry(&stmt.table)?;
                Ok(QueryOutcome {
                    result: fungus_query::explain(&stmt, cell.pin().schema())?,
                    distilled: 0,
                })
            }
            Statement::Delete { table, predicate } => {
                let (c, cell) = self.entry(&table)?;
                let mut guard = c.write();
                let result = fungus_query::execute_parsed(
                    Statement::Delete {
                        table: table.clone(),
                        predicate,
                    },
                    guard.extent_mut(),
                    now,
                )?;
                guard.drain_and_publish(cell);
                Ok(QueryOutcome {
                    result,
                    distilled: 0,
                })
            }
            Statement::Summarize {
                table,
                summary,
                top,
            } => {
                // Sealed distiller state, no container lock. Hit counters
                // are shared atomics, so the gauges still move.
                let (_, cell) = self.entry(&table)?;
                let (columns, rows) = cell.pin().sketch_report(&table, &summary, top, now)?;
                cell.note_snapshot_read();
                Ok(QueryOutcome {
                    result: ResultSet {
                        columns,
                        rows,
                        consumed: Vec::new(),
                        scanned: 0,
                        pruned_segments: 0,
                        pruned_shards: 0,
                        used_index: false,
                    },
                    distilled: 0,
                })
            }
            Statement::CreateContainer(_) => Err(FungusError::PlanError(
                "CREATE CONTAINER needs exclusive catalog access — call Database::execute_ddl"
                    .into(),
            )),
            Statement::CreateIndex {
                table,
                column,
                ordered,
            } => {
                let (c, cell) = self.entry(&table)?;
                {
                    let mut guard = c.write();
                    if ordered {
                        guard.extent_mut().create_ord_index(&column)?;
                    } else {
                        guard.extent_mut().create_index(&column)?;
                    }
                    guard.drain_and_publish(cell);
                }
                Ok(QueryOutcome {
                    result: ResultSet {
                        columns: vec!["indexed".into()],
                        rows: vec![vec![Value::Str(column)]],
                        consumed: Vec::new(),
                        scanned: 0,
                        pruned_segments: 0,
                        pruned_shards: 0,
                        used_index: false,
                    },
                    distilled: 0,
                })
            }
        }
    }

    /// One `SELECT`. Non-consuming reads resolve entirely against a pinned
    /// snapshot — no container lock at any point. `CONSUME` runs at the
    /// isolation level specified in [`crate::mvcc`]: read-own-snapshot,
    /// write-live, conflict = retry-on-epoch-advance.
    fn select(&self, stmt: &SelectStatement, now: Tick) -> Result<QueryOutcome> {
        let (c, cell) = self.entry(&stmt.table)?;
        // Only a `CONSUME` can lose an attempt, and only an optimistic one:
        // the attempt after the `CONSUME_ATTEMPTS`th loss runs lock-first,
        // which ends the loop.
        let mut lost = 0;
        loop {
            let lock_first = lost >= CONSUME_ATTEMPTS;
            if let Some(outcome) = self.select_attempt(c, cell, stmt, now, lock_first)? {
                return Ok(outcome);
            }
            lost += 1;
            if lost < CONSUME_ATTEMPTS {
                cell.note_consume_retry();
            }
        }
    }

    /// One attempt at a `SELECT`: pin the head version, run the read
    /// phases against it, and — for a `CONSUME` — apply the answer to the
    /// live extent under the container write lock. Returns `Ok(None)` when
    /// the epoch advanced between pin and lock, so the answer may be stale.
    ///
    /// `lock_first` takes the write lock *before* the pin and seals
    /// whatever is unpublished, so the pinned version is the live content
    /// and the attempt cannot lose; it is counted as a consume fallback.
    fn select_attempt(
        &self,
        c: &ContainerHandle,
        cell: &ContainerMvcc,
        stmt: &SelectStatement,
        now: Tick,
        lock_first: bool,
    ) -> Result<Option<QueryOutcome>> {
        let held = lock_first.then(|| {
            cell.note_consume_fallback();
            let mut guard = c.write();
            guard.drain_and_publish(cell);
            guard
        });
        let version = cell.pin();
        let plan = Planner.plan(stmt, version.schema())?;
        let (result, returned) = execute_readonly(&plan, version.extent(), now)?;
        if !plan.consume {
            cell.note_snapshot_read();
            cell.queue_touches(&returned, now, version.extent().live_count());
            return Ok(Some(QueryOutcome {
                result,
                distilled: 0,
            }));
        }
        // Write phase: only valid if the epoch did not advance while we
        // were reading — every mutator publishes before releasing the
        // write lock, so a matching epoch under that same lock means the
        // live content equals our snapshot.
        let mut guard = held.unwrap_or_else(|| c.write());
        if cell.epoch() != version.epoch() {
            return Ok(None);
        }
        // Deferred touches only move access metadata, never answers; fold
        // them into the same publish as the consume itself.
        let touches = cell.drain_touches();
        guard.apply_touches(&touches);
        let before = guard.metrics().distilled;
        let result = guard.apply_consume(result, &returned, now);
        let distilled = guard.metrics().distilled - before;
        guard.publish_into(cell);
        // Deliver consumed departures along the routes with the source
        // lock released.
        drop(guard);
        self.route_consumed(&stmt.table, &result, now)?;
        Ok(Some(QueryOutcome { result, distilled }))
    }

    /// Delivers a statement's consumed departures along the source's
    /// routes. Call with the source container lock released.
    fn route_consumed(&self, table: &str, result: &ResultSet, now: Tick) -> Result<()> {
        if result.consumed.is_empty() {
            return Ok(());
        }
        if let Some(routes) = self.routes.get(table) {
            for route in routes.read().iter() {
                route.deliver(&result.consumed, false, now)?;
            }
        }
        Ok(())
    }

    /// Pins the current MVCC snapshot of a container at the current tick.
    /// The handle answers non-consuming reads lock-free and identically no
    /// matter how much the live container mutates afterwards.
    pub fn pin_snapshot(&self, container: &str) -> Result<SnapshotHandle> {
        let (_, cell) = self.entry(container)?;
        Ok(SnapshotHandle::new(
            cell.pin(),
            Arc::clone(cell),
            self.now(),
        ))
    }

    /// Executes a statement that may mutate the catalog (`CREATE
    /// CONTAINER`); everything else is delegated to
    /// [`execute`](Self::execute). Needs `&mut self` because the catalog
    /// map itself changes.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<QueryOutcome> {
        match parse_statement(sql)? {
            Statement::CreateContainer(stmt) => {
                let (name, schema, policy) = crate::ddl::resolve_create_container(&stmt)?;
                self.create_container(name.clone(), schema, policy)?;
                Ok(QueryOutcome {
                    result: ResultSet {
                        columns: vec!["created".into()],
                        rows: vec![vec![Value::Str(name)]],
                        consumed: Vec::new(),
                        scanned: 0,
                        pruned_segments: 0,
                        pruned_shards: 0,
                        used_index: false,
                    },
                    distilled: 0,
                })
            }
            stmt => self.run_statement(stmt),
        }
    }

    /// Executes a `;`-separated script (DDL included), returning one
    /// outcome per non-empty statement. Splitting respects single-quoted
    /// string literals, so `INSERT INTO r VALUES ('a;b')` stays one
    /// statement. Execution stops at the first error.
    pub fn execute_script(&mut self, script: &str) -> Result<Vec<QueryOutcome>> {
        let mut outcomes = Vec::new();
        for stmt in split_statements(script) {
            outcomes.push(self.execute_ddl(stmt)?);
        }
        Ok(outcomes)
    }

    /// Advances the decay clock by one tick, firing every due decay task.
    /// Returns the new time.
    pub fn tick(&self) -> Tick {
        self.scheduler.step()
    }

    /// Advances the clock by `n` ticks.
    pub fn run_for(&self, n: u64) -> Tick {
        self.scheduler.step_n(n)
    }

    /// Binds the virtual decay period to wall time: a background thread
    /// ticks every `real_period` until the returned handle is dropped.
    /// This is the paper's literal "periodic clock of T seconds".
    pub fn spawn_decay_driver(
        &self,
        real_period: Duration,
    ) -> fungus_clock::scheduler::DriverHandle {
        self.scheduler.spawn_driver(real_period)
    }

    /// Health report for one container at the current tick.
    pub fn health(&self, container: &str) -> Result<HealthReport> {
        let c = self.container(container)?;
        let guard = c.read();
        Ok(HealthMonitor::new().inspect(&guard, self.now()))
    }

    /// Aggregate shard telemetry across every container.
    pub fn shard_telemetry(&self) -> crate::metrics::ShardTelemetry {
        let mut t = crate::metrics::ShardTelemetry::default();
        for (c, _) in self.containers.values() {
            let g = c.read();
            t.resident += g.shard_count() as u64;
            t.dropped += g.metrics().shards_dropped;
            t.pruned += g.shards_pruned();
            t.split += g.shards_split();
            t.merged += g.shards_merged();
            t.restored += g.shards_restored();
        }
        t
    }

    /// Aggregate cooking-pipeline telemetry across every container. Hits
    /// come from the distiller's shared atomic counters, which snapshot
    /// `SUMMARIZE` reads land on.
    pub fn sketch_telemetry(&self) -> crate::metrics::SketchTelemetry {
        let mut t = crate::metrics::SketchTelemetry::default();
        for (c, _) in self.containers.values() {
            let g = c.read();
            t.sketches += g.distiller().len() as u64;
            t.hits += g.distiller().total_hits();
            t.absorbed += g.distiller().total_absorbed();
        }
        t
    }

    /// Aggregate MVCC telemetry across every container (sums the
    /// per-container cells; each sweeps its retirement list first, so
    /// `retired == reclaimed` exactly when no reader pins an old
    /// version).
    pub fn mvcc_telemetry(&self) -> crate::metrics::MvccTelemetry {
        let mut t = crate::metrics::MvccTelemetry::default();
        for (_, cell) in self.containers.values() {
            let c = cell.telemetry();
            t.epoch += c.epoch;
            t.published += c.published;
            t.retired += c.retired;
            t.reclaimed += c.reclaimed;
            t.snapshot_reads += c.snapshot_reads;
            t.consume_retries += c.consume_retries;
            t.consume_fallbacks += c.consume_fallbacks;
        }
        t
    }

    /// One container's MVCC telemetry (the leak harness checks
    /// reclamation per shard layout).
    pub fn mvcc_telemetry_of(&self, container: &str) -> Result<crate::metrics::MvccTelemetry> {
        self.entry(container).map(|(_, cell)| cell.telemetry())
    }

    /// Health reports for every container.
    pub fn health_all(&self) -> Vec<(String, HealthReport)> {
        let monitor = HealthMonitor::new();
        let now = self.now();
        self.containers
            .iter()
            .map(|(name, (c, _))| (name.clone(), monitor.inspect(&c.read(), now)))
            .collect()
    }

    /// Saves a container's extent to a snapshot file in the monolithic
    /// format (the logical state is layout-independent), so snapshots stay
    /// portable across layouts; the loading policy re-shards on restore.
    pub fn save_container(&self, name: &str, path: impl AsRef<std::path::Path>) -> Result<()> {
        let c = self.container(name)?;
        let guard = c.read();
        fungus_storage::save_to_file(&guard.extent().to_monolithic()?, path)
    }

    /// Loads a container extent from a snapshot file and adopts it under
    /// `name` with the given policy.
    pub fn load_container(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        policy: ContainerPolicy,
    ) -> Result<()> {
        let store = fungus_storage::load_from_file(path)?;
        let container = Container::from_store(name, store, policy, &self.rng)?;
        self.adopt_container(container)
    }

    /// Checkpoints every container into `dir`, plus a `MANIFEST` recording
    /// the clock, the policies, and the shard layouts, so a whole database
    /// can be restored with [`restore_checkpoint`](Self::restore_checkpoint).
    ///
    /// Every container writes one `<name>.shard-<base>.snap` per resident
    /// shard and a `layout` manifest line carrying boundaries, summaries,
    /// dirty flags, dropped ranges, and lifecycle counters — restore
    /// reassembles the extent shard by shard instead of flattening and
    /// re-splitting it.
    pub fn checkpoint(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        manifest.push_str(&format!("clock\t{}\n", self.now().get()));
        for (name, (container, _)) in &self.containers {
            let guard = container.read();
            let ext = guard.extent();
            ext.for_each_shard_store(|base, store| {
                fungus_storage::save_to_file(store, dir.join(format!("{name}.shard-{base}.snap")))
            })?;
            let layout_json = serde_json_lite(&ext.manifest())?;
            manifest.push_str(&format!("layout\t{name}\t{layout_json}\n"));
            let policy_json = serde_json_lite(guard.policy())?;
            manifest.push_str(&format!("container\t{name}\t{policy_json}\n"));
        }
        std::fs::write(dir.join("MANIFEST"), manifest)?;
        Ok(())
    }

    /// Restores a database from a [`checkpoint`](Self::checkpoint)
    /// directory: clock position, every container, its policy, and its
    /// exact shard layout (boundaries, summaries, dirty flags, counters).
    /// The database must be empty (freshly constructed with the original
    /// seed for identical post-restore decay behaviour).
    pub fn restore_checkpoint(&mut self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let dir = dir.as_ref();
        if self.container_count() != 0 {
            return Err(FungusError::InvalidConfig(format!(
                "restore_checkpoint requires an empty database (existing containers: {})",
                self.container_names().join(", ")
            )));
        }
        // Parse the whole manifest before acting on it: `layout` lines may
        // precede or follow their `container` line.
        let manifest = std::fs::read_to_string(dir.join("MANIFEST"))?;
        let mut clock = None;
        let mut containers: Vec<(String, String)> = Vec::new();
        let mut layouts: BTreeMap<String, String> = BTreeMap::new();
        for line in manifest.lines() {
            let mut parts = line.splitn(3, '\t');
            match parts.next() {
                Some("clock") => {
                    let tick: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                        FungusError::CorruptSnapshot("bad clock line in MANIFEST".into())
                    })?;
                    clock = Some(Tick(tick));
                }
                Some("container") => {
                    let name = parts.next().ok_or_else(|| {
                        FungusError::CorruptSnapshot("missing container name".into())
                    })?;
                    let policy_json = parts.next().ok_or_else(|| {
                        FungusError::CorruptSnapshot("missing container policy".into())
                    })?;
                    containers.push((name.to_string(), policy_json.to_string()));
                }
                Some("layout") => {
                    let name = parts.next().ok_or_else(|| {
                        FungusError::CorruptSnapshot("missing layout container name".into())
                    })?;
                    let layout_json = parts.next().ok_or_else(|| {
                        FungusError::CorruptSnapshot("missing layout manifest".into())
                    })?;
                    layouts.insert(name.to_string(), layout_json.to_string());
                }
                _ => {
                    return Err(FungusError::CorruptSnapshot(format!(
                        "unknown MANIFEST line `{line}`"
                    )))
                }
            }
        }
        if let Some(tick) = clock {
            self.scheduler.clock().reset_to(tick);
        }
        for (name, policy_json) in containers {
            let policy = parse_policy(&name, &policy_json)?;
            match layouts.remove(&name) {
                Some(layout_json) => {
                    let layout: fungus_shard::ShardLayoutManifest = serde_json_parse(&layout_json)?;
                    let mut stores = Vec::with_capacity(layout.shards.len());
                    for record in &layout.shards {
                        stores.push(fungus_storage::load_from_file(
                            dir.join(format!("{name}.shard-{}.snap", record.base)),
                        )?);
                    }
                    let container =
                        Container::from_sharded_parts(&name, &layout, stores, policy, &self.rng)?;
                    self.adopt_container(container)?;
                }
                // Checkpoints written before every container carried a
                // layout line keep one monolithic `<name>.snap`.
                None => {
                    self.load_container(&name, dir.join(format!("{name}.snap")), policy)?;
                }
            }
        }
        if let Some(name) = layouts.into_keys().next() {
            return Err(FungusError::CorruptSnapshot(format!(
                "layout manifest for unknown container `{name}`"
            )));
        }
        Ok(())
    }
}

// Policies are serde types; the workspace deliberately avoids a JSON
// dependency, so the manifest uses the in-house codec in
// `fungus_types::json`.
fn serde_json_lite<T: serde::Serialize>(value: &T) -> Result<String> {
    fungus_types::json::to_string(value)
}

fn serde_json_parse<T: for<'de> serde::Deserialize<'de>>(s: &str) -> Result<T> {
    fungus_types::json::from_str(s)
}

/// Parses container `name`'s checkpointed policy. Checkpoints written
/// while the sharding spec was optional spell "no sharding clause" as
/// `"sharding":null`; dropping the key lets it default to the one-shard
/// spec. A fungus variant the engine no longer has (the `Sequence` and
/// `Periodic` combinators) is a corrupt checkpoint naming that variant,
/// not a generic decode error.
fn parse_policy(name: &str, policy_json: &str) -> Result<ContainerPolicy> {
    use fungus_types::json::Json;
    let mut tree = fungus_types::json::parse(policy_json)?;
    if let Json::Obj(fields) = &mut tree {
        if fields.get("sharding") == Some(&Json::Null) {
            fields.remove("sharding");
        }
        if let Some(Json::Obj(fungus)) = fields.get("fungus") {
            if let Some(gone) = fungus.keys().find(|v| *v == "Sequence" || *v == "Periodic") {
                return Err(FungusError::CorruptSnapshot(format!(
                    "container `{name}` names the removed fungus `{gone}`"
                )));
            }
        }
    }
    serde::Deserialize::deserialize(tree)
}

/// Splits a script on `;` outside single-quoted literals, trimming and
/// dropping empty fragments.
fn split_statements(script: &str) -> impl Iterator<Item = &str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let bytes = script.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' => in_string = !in_string,
            b';' if !in_string => {
                parts.push(&script[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&script[start..]);
    parts.into_iter().map(str::trim).filter(|s| !s.is_empty())
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("now", &self.now())
            .field("containers", &self.container_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_fungi::FungusSpec;
    use fungus_types::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("v", DataType::Int)]).unwrap()
    }

    fn select(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    fn db_with(policy: ContainerPolicy) -> Database {
        let mut db = Database::new(11);
        db.create_container("r", schema(), policy).unwrap();
        db
    }

    #[test]
    fn create_insert_query() {
        let db = db_with(ContainerPolicy::immortal());
        db.execute("INSERT INTO r VALUES (1), (2), (3)").unwrap();
        let out = db.execute("SELECT COUNT(*) FROM r").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(3));
        assert_eq!(out.distilled, 0);
    }

    #[test]
    fn duplicate_and_unknown_containers() {
        let mut db = db_with(ContainerPolicy::immortal());
        let err = db
            .create_container("r", schema(), ContainerPolicy::immortal())
            .unwrap_err();
        assert!(matches!(err, FungusError::ContainerExists(_)));
        let err = db.execute("SELECT * FROM missing").unwrap_err();
        assert!(matches!(err, FungusError::UnknownContainer(_)));
        assert!(db.drop_container("r"));
        assert!(!db.drop_container("r"));
        assert_eq!(db.container_count(), 0);
    }

    #[test]
    fn ticks_drive_decay() {
        let db = db_with(ContainerPolicy::new(FungusSpec::Linear { lifetime: 5 }));
        db.execute("INSERT INTO r VALUES (1), (2)").unwrap();
        db.run_for(5);
        assert_eq!(db.now(), Tick(5));
        let c = db.container("r").unwrap();
        assert_eq!(
            c.read().live_count(),
            0,
            "linear lifetime 5 → extinct at t5"
        );
        assert_eq!(c.read().metrics().decay_passes, 5);
    }

    #[test]
    fn decay_period_is_respected() {
        let policy = ContainerPolicy::new(FungusSpec::Linear { lifetime: 4 })
            .with_decay_period(fungus_types::TickDelta(2));
        let db = db_with(policy);
        db.execute("INSERT INTO r VALUES (1)").unwrap();
        db.run_for(4);
        let c = db.container("r").unwrap();
        // Fired at t2, t4 → two passes of 0.25 → freshness 0.5.
        assert_eq!(c.read().metrics().decay_passes, 2);
        assert_eq!(c.read().live_count(), 1);
    }

    #[test]
    fn consume_distills_via_policy() {
        use crate::distill::{DistillSpec, DistillTrigger};
        use fungus_summary::SummarySpec;
        let policy = ContainerPolicy::immortal().with_distiller(DistillSpec {
            name: "v".into(),
            column: Some("v".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Consumed,
        });
        let db = db_with(policy);
        db.execute("INSERT INTO r VALUES (10), (20)").unwrap();
        let out = db.execute("SELECT * FROM r CONSUME").unwrap();
        assert_eq!(out.result.consumed.len(), 2);
        assert_eq!(out.distilled, 2);
        let c = db.container("r").unwrap();
        assert_eq!(c.read().distiller().absorbed("v"), Some(2));
    }

    #[test]
    fn lock_first_consume_attempt_matches_the_optimistic_one() {
        use crate::distill::{DistillSpec, DistillTrigger};
        use fungus_summary::SummarySpec;
        let run = |lock_first: bool| {
            let policy = ContainerPolicy::immortal().with_distiller(DistillSpec {
                name: "v".into(),
                column: Some("v".into()),
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Consumed,
            });
            let db = db_with(policy);
            db.execute("INSERT INTO r VALUES (1), (2), (3), (4), (5)")
                .unwrap();
            // Leave work for the attempt's prologue: touches queued by a
            // snapshot read, and a serial query nobody published.
            db.execute("SELECT v FROM r WHERE v > 3").unwrap();
            let (c, cell) = db.entry("r").unwrap();
            {
                let mut live = c.write();
                let plan = live.plan(&select("SELECT v FROM r WHERE v = 1")).unwrap();
                live.query(&plan, db.now()).unwrap();
            }
            let stmt = select("SELECT v FROM r WHERE v >= 2 ORDER BY v DESC LIMIT 3 CONSUME");
            let outcome = db
                .select_attempt(c, cell, &stmt, db.now(), lock_first)
                .unwrap()
                .expect("an uncontended attempt cannot lose the epoch race");
            let survivors = db.execute("SELECT $id, v FROM r").unwrap().result.rows;
            (outcome, survivors, db.mvcc_telemetry_of("r").unwrap())
        };
        let (optimistic, optimistic_left, optimistic_t) = run(false);
        let (locked, locked_left, locked_t) = run(true);
        assert_eq!(optimistic.result.rows.len(), 3);
        assert_eq!(optimistic.result.consumed.len(), 3);
        assert_eq!(optimistic.distilled, 3);
        assert_eq!(locked, optimistic, "rows, consumed set and distilled");
        assert_eq!(locked_left, optimistic_left);
        assert_eq!(optimistic_left.len(), 2);
        assert_eq!(optimistic_t.consume_fallbacks, 0);
        assert_eq!(locked_t.consume_fallbacks, 1);
        assert_eq!(
            (locked_t.consume_retries, optimistic_t.consume_retries),
            (0, 0)
        );
    }

    #[test]
    fn explain_needs_no_container_lock() {
        let db = db_with(ContainerPolicy::immortal());
        let c = db.container("r").unwrap();
        let guard = c.write();
        let (tx, rx) = std::sync::mpsc::channel();
        let out = std::thread::scope(|scope| {
            scope.spawn(|| tx.send(db.execute("EXPLAIN SELECT v FROM r WHERE v > 1")));
            let out = rx.recv_timeout(Duration::from_secs(30));
            // Release before judging: a blocked EXPLAIN must be able to
            // finish, or the scope could never join it.
            drop(guard);
            out
        });
        let plan = out
            .expect("EXPLAIN waited for the container write lock")
            .unwrap();
        assert_eq!(plan.result.columns, vec!["plan"]);
        assert!(!plan.result.rows.is_empty());
    }

    #[test]
    fn summarize_reads_ddl_declared_sketches_as_raw_data_rots() {
        // The full cooking loop with zero engine-specific code: DDL
        // declares a fading top-k over a TTL container, inserts skew
        // toward one key, everything rots away, and SUMMARIZE still
        // answers "what was hot" from the sketch alone.
        let mut db = Database::new(5);
        db.execute_ddl(
            "CREATE CONTAINER clicks (item INT) WITH FUNGUS ttl(3) \
             WITH DISTILL (hot = fading_topk(2, 0.05) ON item, \
                           exit_health = moments)",
        )
        .unwrap();
        for _ in 0..8 {
            db.execute("INSERT INTO clicks VALUES (7), (7), (7), (1)")
                .unwrap();
            db.tick();
        }
        db.run_for(4); // everything left rots out
        assert_eq!(db.container("clicks").unwrap().read().live_count(), 0);

        let out = db.execute("SUMMARIZE hot FROM clicks TOP 1").unwrap();
        assert_eq!(
            out.result.columns,
            vec!["rank", "key", "weight", "error"],
            "fading top-k report shape"
        );
        assert_eq!(out.result.rows.len(), 1, "TOP 1 truncates");
        assert_eq!(out.result.rows[0][1], Value::Int(7), "7 was 3× hotter");

        // The freshness audit pipeline also saw every rotted tuple.
        let audit = db.execute("SUMMARIZE exit_health FROM clicks").unwrap();
        assert!(!audit.result.rows.is_empty());

        // Reads were counted, absorbs aggregated.
        let t = db.sketch_telemetry();
        assert_eq!(t.sketches, 2);
        assert_eq!(t.hits, 2);
        assert_eq!(t.absorbed, 64, "32 rotted tuples × 2 pipelines");

        // Unknown sketch / container are errors, not empty answers.
        assert!(db.execute("SUMMARIZE nope FROM clicks").is_err());
        assert!(db.execute("SUMMARIZE hot FROM nope").is_err());
    }

    #[test]
    fn multiple_containers_share_the_clock() {
        let mut db = Database::new(3);
        db.create_container(
            "a",
            schema(),
            ContainerPolicy::new(FungusSpec::Linear { lifetime: 2 }),
        )
        .unwrap();
        db.create_container("b", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.execute("INSERT INTO a VALUES (1)").unwrap();
        db.execute("INSERT INTO b VALUES (1)").unwrap();
        db.run_for(3);
        assert_eq!(db.container("a").unwrap().read().live_count(), 0);
        assert_eq!(db.container("b").unwrap().read().live_count(), 1);
        assert_eq!(db.container_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn dropped_container_stops_decaying() {
        let mut db = db_with(ContainerPolicy::new(FungusSpec::Linear { lifetime: 2 }));
        let c = db.container("r").unwrap();
        db.execute("INSERT INTO r VALUES (1)").unwrap();
        db.drop_container("r");
        db.run_for(10);
        // Our Arc still sees the container; no decay passes ran after drop.
        assert_eq!(c.read().metrics().decay_passes, 0);
        assert_eq!(c.read().live_count(), 1);
    }

    #[test]
    fn health_endpoint() {
        let db = db_with(ContainerPolicy::immortal());
        db.execute("INSERT INTO r VALUES (1)").unwrap();
        let report = db.health("r").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::Healthy);
        let all = db.health_all();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "r");
        assert!(db.health("missing").is_err());
    }

    #[test]
    fn snapshot_roundtrip_through_files() {
        let mut db = db_with(ContainerPolicy::immortal());
        db.execute("INSERT INTO r VALUES (1), (2), (3)").unwrap();
        let dir = std::env::temp_dir().join("fungus-db-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("c-{}.snap", std::process::id()));
        db.save_container("r", &path).unwrap();
        db.load_container("r2", &path, ContainerPolicy::immortal())
            .unwrap();
        let out = db.execute("SELECT COUNT(*) FROM r2").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn same_seed_reproduces_the_whole_run() {
        let run = |seed: u64| {
            let mut db = Database::new(seed);
            db.create_container(
                "r",
                schema(),
                ContainerPolicy::new(FungusSpec::Egi(Default::default())),
            )
            .unwrap();
            for i in 0..50i64 {
                db.insert("r", vec![Value::Int(i)]).unwrap();
                db.tick();
            }
            db.run_for(5);
            let c = db.container("r").unwrap();
            let g = c.read();
            (
                g.live_count(),
                fungus_storage::DecaySurface::infected_ids(g.extent()),
                g.metrics().tuples_rotted,
            )
        };
        assert_eq!(run(5), run(5));
        // (Different seeds may coincide on this coarse summary once decay
        // has consumed most of the extent; seed divergence is asserted at
        // the fungus level in `fungus-fungi`.)
    }

    #[test]
    fn ddl_creates_containers_through_sql() {
        let mut db = Database::new(8);
        db.execute_ddl(
            "CREATE CONTAINER logs (msg TEXT NOT NULL, level INT)              WITH FUNGUS ttl(4) DECAY EVERY 2",
        )
        .unwrap();
        db.execute("INSERT INTO logs VALUES ('hello', 1)").unwrap();
        db.execute_ddl("CREATE INDEX ON logs (level)").unwrap();
        let out = db
            .execute("SELECT COUNT(*) FROM logs WHERE level = 1")
            .unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(1));
        assert!(out.result.used_index);
        // TTL 4, decay every 2 ticks → rotted by tick 6.
        db.run_for(6);
        let out = db.execute("SELECT COUNT(*) FROM logs").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(0));
        // Plain execute refuses catalog DDL with a pointer to execute_ddl.
        let err = db.execute("CREATE CONTAINER other (a INT)").unwrap_err();
        assert!(err.to_string().contains("execute_ddl"));
        // Duplicate creation errors.
        assert!(db.execute_ddl("CREATE CONTAINER logs (a INT)").is_err());
    }

    #[test]
    fn rot_routes_move_departures_between_containers() {
        use crate::distill::DistillTrigger;
        let mut db = Database::new(4);
        db.create_container(
            "hot",
            schema(),
            ContainerPolicy::new(FungusSpec::Retention { max_age: 3 }),
        )
        .unwrap();
        db.create_container("cold", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.add_route(
            "hot",
            RouteSpec {
                to: "cold".into(),
                columns: vec!["v".into()],
                trigger: DistillTrigger::Rotted,
            },
        )
        .unwrap();
        assert_eq!(db.route_targets("hot"), vec!["cold".to_string()]);

        db.execute("INSERT INTO hot VALUES (1), (2), (3)").unwrap();
        db.run_for(5); // TTL 3 rots all of them
        assert_eq!(db.container("hot").unwrap().read().live_count(), 0);
        let out = db.execute("SELECT COUNT(*) FROM cold").unwrap();
        assert_eq!(
            out.result.scalar().unwrap(),
            &Value::Int(3),
            "rotted tuples landed in the cold container"
        );
        // The cold copies are fresh again (re-inserted, new time axis).
        let cold = db.container("cold").unwrap();
        fungus_storage::DecaySurface::for_each_live_meta(cold.read().extent(), &mut |_, meta| {
            assert!(meta.freshness.is_full())
        });
    }

    #[test]
    fn consume_routes_flow_through_queries() {
        use crate::distill::DistillTrigger;
        let mut db = Database::new(4);
        db.create_container("hot", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.create_container("archive", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.add_route(
            "hot",
            RouteSpec {
                to: "archive".into(),
                columns: vec!["v".into()],
                trigger: DistillTrigger::Consumed,
            },
        )
        .unwrap();
        db.execute("INSERT INTO hot VALUES (1), (2), (3)").unwrap();
        db.execute("SELECT * FROM hot WHERE v >= 2 CONSUME")
            .unwrap();
        let out = db.execute("SELECT COUNT(*) FROM archive").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(2));
        assert_eq!(db.container("hot").unwrap().read().live_count(), 1);
    }

    #[test]
    fn route_validation_and_teardown() {
        use crate::distill::DistillTrigger;
        let mut db = Database::new(4);
        db.create_container("a", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.create_container("b", schema(), ContainerPolicy::immortal())
            .unwrap();
        // Unknown containers and bad projections are rejected.
        assert!(db
            .add_route(
                "missing",
                RouteSpec {
                    to: "b".into(),
                    columns: vec!["v".into()],
                    trigger: DistillTrigger::Both,
                }
            )
            .is_err());
        assert!(db
            .add_route(
                "a",
                RouteSpec {
                    to: "missing".into(),
                    columns: vec!["v".into()],
                    trigger: DistillTrigger::Both,
                }
            )
            .is_err());
        assert!(db
            .add_route(
                "a",
                RouteSpec {
                    to: "b".into(),
                    columns: vec!["zzz".into()],
                    trigger: DistillTrigger::Both,
                }
            )
            .is_err());
        db.add_route(
            "a",
            RouteSpec {
                to: "b".into(),
                columns: vec!["v".into()],
                trigger: DistillTrigger::Both,
            },
        )
        .unwrap();
        // Dropping the target removes the dangling route.
        db.drop_container("b");
        assert!(db.route_targets("a").is_empty());
    }

    #[test]
    fn self_route_is_a_phoenix_container() {
        use crate::distill::DistillTrigger;
        // Rotted tuples re-insert into the same container, fully fresh —
        // a legal (if eccentric) configuration that must not deadlock.
        let mut db = Database::new(4);
        db.create_container(
            "phoenix",
            schema(),
            ContainerPolicy::new(FungusSpec::Retention { max_age: 2 }),
        )
        .unwrap();
        db.add_route(
            "phoenix",
            RouteSpec {
                to: "phoenix".into(),
                columns: vec!["v".into()],
                trigger: DistillTrigger::Rotted,
            },
        )
        .unwrap();
        db.execute("INSERT INTO phoenix VALUES (7)").unwrap();
        db.run_for(10);
        let c = db.container("phoenix").unwrap();
        assert_eq!(c.read().live_count(), 1, "the tuple keeps being reborn");
        assert!(c.read().metrics().tuples_rotted >= 3);
    }

    #[test]
    fn scripts_run_statement_by_statement() {
        let mut db = Database::new(2);
        let outcomes = db
            .execute_script(
                "CREATE CONTAINER r (v INT, s TEXT) WITH FUNGUS ttl(50);
                 INSERT INTO r VALUES (1, 'a;b'), (2, 'plain');
                 SELECT COUNT(*) FROM r;",
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[2].result.scalar().unwrap(), &Value::Int(2));
        // The quoted semicolon survived as data.
        let out = db.execute("SELECT s FROM r WHERE v = 1").unwrap();
        assert_eq!(out.result.rows[0][0], Value::from("a;b"));
        // Errors stop the script mid-way.
        let err = db
            .execute_script("INSERT INTO r VALUES (3, 'c'); SELECT * FROM missing; INSERT INTO r VALUES (4, 'd')")
            .unwrap_err();
        assert!(matches!(err, FungusError::UnknownContainer(_)));
        let out = db.execute("SELECT COUNT(*) FROM r").unwrap();
        assert_eq!(
            out.result.scalar().unwrap(),
            &Value::Int(3),
            "stopped before the 4th row"
        );
    }

    #[test]
    fn checkpoint_roundtrips_the_whole_database() {
        let mut db = Database::new(21);
        db.create_container(
            "a",
            schema(),
            ContainerPolicy::new(FungusSpec::Retention { max_age: 9 }),
        )
        .unwrap();
        db.create_container("b", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        db.execute("INSERT INTO b VALUES (3)").unwrap();
        db.run_for(5);

        let dir = std::env::temp_dir().join(format!("fungus-checkpoint-{}", std::process::id()));
        db.checkpoint(&dir).unwrap();

        let mut restored = Database::new(21);
        restored.restore_checkpoint(&dir).unwrap();
        assert_eq!(restored.now(), Tick(5), "clock position restored");
        assert_eq!(
            restored.container_names(),
            vec!["a".to_string(), "b".to_string()]
        );
        // Policies restored: container `a` still decays with its TTL.
        assert_eq!(
            restored.container("a").unwrap().read().policy().fungus,
            FungusSpec::Retention { max_age: 9 }
        );
        let out = restored.execute("SELECT COUNT(*) FROM b").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(1));
        // Decay continues where it left off: 5 more ticks exceed the TTL.
        restored.run_for(5);
        assert_eq!(restored.container("a").unwrap().read().live_count(), 0);

        // Restoring over a non-empty database is refused.
        let mut busy = Database::new(1);
        busy.create_container("x", schema(), ContainerPolicy::immortal())
            .unwrap();
        assert!(busy.restore_checkpoint(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_preserves_adaptive_shard_layouts() {
        use fungus_shard::ShardSpec;
        // An adaptive sharded container with real lifecycle history:
        // enough churn to split the tail, rot out whole shards, and merge
        // hollowed neighbors — then prove the checkpoint round-trips the
        // exact shard structure, not a flattened re-split of it.
        let spec = ShardSpec::new(16).with_adaptive().with_low_water(0.5);
        let policy =
            ContainerPolicy::new(FungusSpec::Retention { max_age: 30 }).with_sharding(spec);
        let mut db = Database::new(77);
        db.create_container("r", schema(), policy).unwrap();
        db.create_container("plain", schema(), ContainerPolicy::immortal())
            .unwrap();
        db.execute("INSERT INTO plain VALUES (9)").unwrap();
        for round in 0..10 {
            for v in 0..12 {
                db.execute(&format!("INSERT INTO r VALUES ({})", round * 12 + v))
                    .unwrap();
            }
            db.run_for(3);
        }
        // Post-sweep activity the checkpoint must carry: inserts leave a
        // non-zero tail gauge, and an un-swept decay leaves a dirty flag.
        db.execute("INSERT INTO r VALUES (777), (778)").unwrap();
        {
            use fungus_storage::DecaySurface;
            let c = db.container("r").unwrap();
            let mut g = c.write();
            let id = fungus_query::QueryExtent::live_ids(g.extent())[0];
            DecaySurface::decay(g.extent_mut(), id, 0.01).unwrap();
        }
        let structure_before = {
            let c = db.container("r").unwrap();
            let g = c.read();
            let ext = g.extent();
            assert!(ext.shard_count() >= 4, "want a multi-shard layout");
            assert!(
                ext.structure().shards.iter().any(|s| s.dirty),
                "want at least one dirty flag to round-trip"
            );
            ext.structure()
        };
        let live_before = db.container("r").unwrap().read().live_count();

        let dir =
            std::env::temp_dir().join(format!("fungus-shard-checkpoint-{}", std::process::id()));
        db.checkpoint(&dir).unwrap();

        let mut restored = Database::new(77);
        restored.restore_checkpoint(&dir).unwrap();
        let c = restored.container("r").unwrap();
        {
            let g = c.read();
            let ext = g.extent();
            assert_eq!(
                ext.structure(),
                structure_before,
                "boundaries, summaries, dirty flags, and counters must \
                 round-trip exactly"
            );
        }
        assert_eq!(c.read().live_count(), live_before);
        let telemetry = restored.shard_telemetry();
        // `plain` comes back as its one shard.
        assert_eq!(
            telemetry.restored as usize,
            structure_before.shards.len() + 1
        );
        assert_eq!(telemetry.split, structure_before.shards_split);
        assert_eq!(telemetry.merged, structure_before.shards_merged);

        // The restored database decays identically to the original.
        db.run_for(20);
        restored.run_for(20);
        // Bind each count before comparing: `assert_eq!` keeps both
        // temporaries alive, which would hold two container guards at once.
        let restored_live = restored.container("r").unwrap().read().live_count();
        let original_live = db.container("r").unwrap().read().live_count();
        assert_eq!(restored_live, original_live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_loads_checkpoints_written_before_layout_lines() {
        // What a checkpoint of a container without a sharding clause looked
        // like while the spec was optional: one `<name>.snap`, a policy
        // with `"sharding":null`, and no `layout` line. Policies of that
        // time also carried an `"mvcc"` switch; a container checkpointed
        // with it off restores onto the one (snapshot) read path.
        let policy = ContainerPolicy::new(FungusSpec::Retention { max_age: 30 });
        let mut db = Database::new(9);
        db.create_container("r", schema(), policy.clone()).unwrap();
        db.execute("INSERT INTO r VALUES (1), (2), (3)").unwrap();
        db.run_for(4);
        let dir =
            std::env::temp_dir().join(format!("fungus-legacy-checkpoint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        db.save_container("r", dir.join("r.snap")).unwrap();
        let spec_json = serde_json_lite(&policy.sharding).unwrap();
        let policy_json = serde_json_lite(&policy).unwrap();
        let legacy_json = policy_json.replace(
            &format!("\"sharding\":{spec_json}"),
            "\"mvcc\":false,\"sharding\":null",
        );
        assert_ne!(legacy_json, policy_json);
        std::fs::write(
            dir.join("MANIFEST"),
            format!("clock\t4\ncontainer\tr\t{legacy_json}\n"),
        )
        .unwrap();

        let mut restored = Database::new(9);
        restored.restore_checkpoint(&dir).unwrap();
        assert_eq!(restored.now(), Tick(4));
        let c = restored.container("r").unwrap();
        assert_eq!(c.read().policy(), &policy);
        assert_eq!(c.read().live_count(), 3);
        assert_eq!(c.read().shard_count(), 1);
        let before = restored.mvcc_telemetry_of("r").unwrap();
        assert_eq!(before.published, 1, "the restored content is sealed");
        let out = restored.execute("SELECT COUNT(*) FROM r").unwrap();
        assert_eq!(out.result.scalar().unwrap(), &Value::Int(3));
        let after = restored.mvcc_telemetry_of("r").unwrap();
        assert_eq!(after.snapshot_reads, before.snapshot_reads + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_a_checkpoint_naming_a_removed_fungus() {
        let policy_json = serde_json_lite(&ContainerPolicy::immortal()).unwrap();
        let dir =
            std::env::temp_dir().join(format!("fungus-removed-fungus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (variant, json) in [
            ("Sequence", r#"{"Sequence":["Null"]}"#),
            ("Periodic", r#"{"Periodic":{"inner":"Null","period":3}}"#),
        ] {
            let old_json =
                policy_json.replace(r#""fungus":"Null""#, &format!(r#""fungus":{json}"#));
            assert_ne!(old_json, policy_json);
            std::fs::write(
                dir.join("MANIFEST"),
                format!("clock\t4\ncontainer\tcombo\t{old_json}\n"),
            )
            .unwrap();
            match Database::new(3).restore_checkpoint(&dir) {
                Err(FungusError::CorruptSnapshot(msg)) => assert!(
                    msg.contains(variant) && msg.contains("combo"),
                    "the error must name the variant and the container, got: {msg}"
                ),
                other => panic!("{variant}: expected CorruptSnapshot, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_empty_restore_error_names_the_containers() {
        let mut db = Database::new(5);
        db.create_container("a", schema(), ContainerPolicy::immortal())
            .unwrap();
        let dir =
            std::env::temp_dir().join(format!("fungus-busy-checkpoint-{}", std::process::id()));
        db.checkpoint(&dir).unwrap();

        let mut busy = Database::new(6);
        busy.create_container("orders", schema(), ContainerPolicy::immortal())
            .unwrap();
        busy.create_container("users", schema(), ContainerPolicy::immortal())
            .unwrap();
        let err = busy.restore_checkpoint(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("orders") && msg.contains("users"),
            "error must name the offending containers, got: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wall_clock_driver_decays_in_real_time() {
        let db = db_with(ContainerPolicy::new(FungusSpec::Linear { lifetime: 3 }));
        db.execute("INSERT INTO r VALUES (1)").unwrap();
        let driver = db.spawn_decay_driver(Duration::from_millis(1));
        let c = db.container("r").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while c.read().live_count() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        driver.stop();
        assert_eq!(
            c.read().live_count(),
            0,
            "wall-clock decay should extinguish the row"
        );
    }
}
