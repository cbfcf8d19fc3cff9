//! A cloneable, thread-safe handle to one [`Database`].
//!
//! [`Database::execute`] takes `&self` and is already safe to call from
//! many threads through a plain `Arc<Database>` — container extents sit
//! behind their own locks. DDL ([`Database::execute_ddl`]) mutates the
//! catalog and needs `&mut self`, which an `Arc` cannot provide. Network
//! front-ends want both on one shared handle, so [`SharedDatabase`] wraps
//! the database in an `Arc<RwLock<_>>` and exposes the common operations
//! with the right lock already taken:
//!
//! * queries (`execute`) take the **read** lock — they run concurrently
//!   with each other and with decay ticks;
//! * catalog changes (`execute_ddl`, `execute_script`, `checkpoint`
//!   restore paths) take the **write** lock — they serialise against
//!   everything else;
//! * clock operations go through the scheduler, which has its own
//!   internal locking, so they also only need the read lock.
//!
//! The handle is `Clone`: every worker thread, the decay driver, and the
//! accept loop of a server share one catalog.

use std::sync::Arc;
use std::time::Duration;

use fungus_lint_rt::{hierarchy, OrderedRwLock, OrderedRwLockReadGuard, OrderedRwLockWriteGuard};

use fungus_clock::scheduler::DriverHandle;
use fungus_types::{Result, Tick};

use crate::database::{Database, QueryOutcome};
use crate::health::HealthReport;

/// A cloneable `Arc<OrderedRwLock<Database>>` newtype with lock-aware
/// forwarding for the operations concurrent front-ends need. The catalog
/// lock is the outermost rank of the declared hierarchy — it is always
/// taken before any container, route, or shard lock.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<OrderedRwLock<Database>>,
}

impl SharedDatabase {
    /// Wraps a database for shared use.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(OrderedRwLock::new(&hierarchy::CATALOG, db)),
        }
    }

    /// Read access to the database (queries, health, clock).
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, Database> {
        self.inner.read()
    }

    /// Exclusive access to the database (DDL, restore).
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, Database> {
        self.inner.write()
    }

    /// Executes one DML/query statement under the read lock.
    pub fn execute(&self, sql: &str) -> Result<QueryOutcome> {
        self.inner.read().execute(sql)
    }

    /// Executes one statement, DDL included, under the write lock.
    pub fn execute_ddl(&self, sql: &str) -> Result<QueryOutcome> {
        self.inner.write().execute_ddl(sql)
    }

    /// Executes a `;`-separated script (DDL included) under the write
    /// lock, one outcome per statement.
    pub fn execute_script(&self, script: &str) -> Result<Vec<QueryOutcome>> {
        self.inner.write().execute_script(script)
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.inner.read().now()
    }

    /// Advances the decay clock by one tick.
    pub fn tick(&self) -> Tick {
        self.inner.read().tick()
    }

    /// Advances the decay clock by `n` ticks.
    pub fn run_for(&self, n: u64) -> Tick {
        self.inner.read().run_for(n)
    }

    /// Health report for one container.
    pub fn health(&self, container: &str) -> Result<HealthReport> {
        self.inner.read().health(container)
    }

    /// Health reports for every container.
    pub fn health_all(&self) -> Vec<(String, HealthReport)> {
        self.inner.read().health_all()
    }

    /// Container names in catalog order.
    pub fn container_names(&self) -> Vec<String> {
        self.inner.read().container_names()
    }

    /// Aggregate shard telemetry across every container.
    pub fn shard_telemetry(&self) -> crate::metrics::ShardTelemetry {
        self.inner.read().shard_telemetry()
    }

    /// Aggregate cooking-pipeline telemetry across every container.
    pub fn sketch_telemetry(&self) -> crate::metrics::SketchTelemetry {
        self.inner.read().sketch_telemetry()
    }

    /// Aggregate MVCC telemetry across every container.
    pub fn mvcc_telemetry(&self) -> crate::metrics::MvccTelemetry {
        self.inner.read().mvcc_telemetry()
    }

    /// Live tuple count of one container (0 when it does not exist).
    pub fn live_count(&self, container: &str) -> usize {
        self.inner
            .read()
            .container(container)
            .map(|c| c.read().live_count())
            .unwrap_or(0)
    }

    /// Binds the decay clock to wall time (see
    /// [`Database::spawn_decay_driver`]). The driver thread holds no
    /// database lock while ticking — the scheduler is internally shared —
    /// so decay proceeds concurrently with queries.
    ///
    /// The driver is deliberately independent of every front-end thread:
    /// it panic-isolates the tasks it fires and owns its own thread, so a
    /// worker thread dying (or being killed by fault injection) cannot
    /// stop decay. The returned handle's `ticks()` counter is the ground
    /// truth a server exposes to prove the paper's Law 1 held — data
    /// rotted on schedule no matter what clients did.
    pub fn spawn_decay_driver(&self, real_period: Duration) -> DriverHandle {
        self.inner.read().spawn_decay_driver(real_period)
    }

    /// Checkpoints every container into `dir` under the read lock.
    pub fn checkpoint(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        self.inner.read().checkpoint(dir)
    }
}

impl From<Database> for SharedDatabase {
    fn from(db: Database) -> Self {
        SharedDatabase::new(db)
    }
}

impl std::fmt::Debug for SharedDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDatabase")
            .field("containers", &self.container_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_fungi::FungusSpec;
    use fungus_types::{DataType, Schema};

    fn shared() -> SharedDatabase {
        let mut db = Database::new(7);
        db.create_container(
            "r",
            Schema::from_pairs(&[("v", DataType::Int)]).unwrap(),
            crate::ContainerPolicy::new(FungusSpec::Retention { max_age: 50 }),
        )
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn ddl_and_queries_through_one_handle() {
        let db = shared();
        db.execute_ddl("CREATE CONTAINER s (x INT) WITH FUNGUS ttl(10)")
            .unwrap();
        db.execute("INSERT INTO s VALUES (1), (2)").unwrap();
        let out = db.execute("SELECT COUNT(*) FROM s").unwrap();
        assert_eq!(out.result.scalar().unwrap().as_i64(), Some(2));
        assert_eq!(db.container_names(), vec!["r".to_string(), "s".into()]);
        assert_eq!(db.live_count("s"), 2);
        assert_eq!(db.live_count("nope"), 0);
    }

    #[test]
    fn clones_share_the_catalog() {
        let a = shared();
        let b = a.clone();
        b.execute("INSERT INTO r VALUES (9)").unwrap();
        assert_eq!(a.live_count("r"), 1);
        let before = a.now();
        b.run_for(3);
        assert_eq!(a.now().get(), before.get() + 3);
    }

    #[test]
    fn decay_driver_keeps_ticking_across_client_thread_deaths() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let db = shared();
        let driver = db.spawn_decay_driver(std::time::Duration::from_millis(1));
        // Threads that use the database and then die mid-flight, like
        // fault-injected server workers.
        let mut doomed = Vec::new();
        for t in 0..3 {
            let db = db.clone();
            doomed.push(std::thread::spawn(move || {
                db.execute(&format!("INSERT INTO r VALUES ({t})")).unwrap();
                panic!("worker {t} dies");
            }));
        }
        for d in doomed {
            assert!(d.join().is_err(), "thread was supposed to panic");
        }
        let before = driver.ticks();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while driver.ticks() < before + 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let after = driver.ticks();
        driver.stop();
        std::panic::set_hook(prev);
        assert!(
            after >= before + 5,
            "decay stalled after worker deaths: {before} -> {after}"
        );
        assert_eq!(db.live_count("r"), 3, "committed writes survived");
    }

    #[test]
    fn concurrent_queries_and_ddl_do_not_deadlock() {
        let db = shared();
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    db.execute(&format!("INSERT INTO r VALUES ({})", t * 100 + i))
                        .unwrap();
                    db.execute("SELECT COUNT(*) FROM r").unwrap();
                }
            }));
        }
        let ddl = {
            let db = db.clone();
            std::thread::spawn(move || {
                for i in 0..5 {
                    db.execute_ddl(&format!("CREATE CONTAINER t{i} (x INT) WITH FUNGUS ttl(5)"))
                        .unwrap();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        ddl.join().unwrap();
        assert_eq!(db.live_count("r"), 200);
        assert_eq!(db.container_names().len(), 6);
    }
}
