//! Concurrency: the decay driver, ingest threads, and query threads all
//! hammer one database without deadlock or lost updates.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use spacefungus::prelude::*;

fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Float)]).unwrap()
}

/// Background decay + concurrent writers + concurrent readers, then a
/// global accounting check: every tuple ever inserted is either live,
/// consumed, or rotted — none lost, none duplicated.
#[test]
fn concurrent_ingest_query_decay_conserves_tuples() {
    let mut db = Database::new(99);
    db.create_container(
        "r",
        schema(),
        ContainerPolicy::new(FungusSpec::Retention { max_age: 40 }),
    )
    .unwrap();
    let db = Arc::new(db);

    let driver = db.spawn_decay_driver(Duration::from_micros(200));
    let stop = Arc::new(AtomicBool::new(false));
    let inserted = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // Two writer threads.
    for w in 0..2u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let inserted = Arc::clone(&inserted);
        handles.push(thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                db.insert("r", vec![Value::Int(w as i64), Value::float(i as f64)])
                    .unwrap();
                inserted.fetch_add(1, Ordering::Relaxed);
                i += 1;
                if i % 64 == 0 {
                    thread::yield_now();
                }
            }
        }));
    }
    // Two reader threads, one of them consuming.
    for consuming in [false, true] {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(thread::spawn(move || {
            let sql = if consuming {
                "SELECT v FROM r WHERE k = 1 AND v < 5 CONSUME"
            } else {
                "SELECT COUNT(*), AVG(v) FROM r WHERE $age <= 10"
            };
            while !stop.load(Ordering::Relaxed) {
                db.execute(sql).unwrap();
                thread::yield_now();
            }
        }));
    }

    thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    driver.stop();

    let container = db.container("r").unwrap();
    let guard = container.read();
    let live = guard.live_count() as u64;
    let metrics = *guard.metrics();
    let total_inserted = inserted.load(Ordering::Relaxed);
    assert_eq!(metrics.inserts, total_inserted, "no lost inserts");
    assert_eq!(
        live + metrics.tuples_rotted + metrics.tuples_consumed,
        total_inserted,
        "conservation: live + rotted + consumed = inserted"
    );
    assert!(total_inserted > 0, "writers made progress");
    assert!(db.now() > Tick(0), "the driver ticked");
}

/// Queries from many threads against a static extent all see consistent
/// answers while decay is paused.
#[test]
fn parallel_readers_agree() {
    let mut db = Database::new(7);
    db.create_container("r", schema(), ContainerPolicy::immortal())
        .unwrap();
    for i in 0..500i64 {
        db.insert("r", vec![Value::Int(i % 10), Value::float(i as f64)])
            .unwrap();
    }
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            let mut answers = Vec::new();
            for _ in 0..50 {
                let out = db.execute("SELECT COUNT(*) FROM r WHERE k = 3").unwrap();
                answers.push(out.result.scalar().unwrap().as_i64().unwrap());
            }
            answers
        }));
    }
    let mut all: Vec<i64> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    assert!(
        all.iter().all(|&a| a == 50),
        "every read sees the same 50 rows"
    );
}

/// Dropping a container while its decay task might be firing is safe.
#[test]
fn drop_container_races_with_driver() {
    for round in 0..10u64 {
        let mut db = Database::new(round);
        db.create_container(
            "ephemeral",
            schema(),
            ContainerPolicy::new(FungusSpec::Linear { lifetime: 3 }),
        )
        .unwrap();
        db.execute("INSERT INTO ephemeral VALUES (1, 1.0)").unwrap();
        let driver = db.spawn_decay_driver(Duration::from_micros(50));
        thread::sleep(Duration::from_millis(2));
        assert!(db.drop_container("ephemeral"));
        driver.stop();
        assert_eq!(db.container_count(), 0);
    }
}

/// `SUMMARIZE` served from sealed snapshots while writers ingest and the
/// decay driver cooks departing tuples: no deadlock, every read answers,
/// and the sketch hit counter — shared between the live distiller and
/// every published snapshot clone — accounts for *all* reads, whichever
/// version served them. This pins the fix for the counter the snapshot
/// path used to strand on stale clones.
#[test]
fn concurrent_summarize_and_ingest_share_one_hit_counter() {
    let mut db = Database::new(411);
    db.execute_ddl(
        "CREATE CONTAINER clicks (item INT NOT NULL) WITH FUNGUS ttl(8) \
         WITH DISTILL (hot = fading_topk(8, 0.05) ON item)",
    )
    .unwrap();
    let db = Arc::new(db);
    let driver = db.spawn_decay_driver(Duration::from_micros(500));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                db.execute(&format!("INSERT INTO clicks VALUES ({})", i % 17))
                    .unwrap();
                i += 1;
                if i % 32 == 0 {
                    thread::yield_now();
                }
            }
        })
    };

    let mut readers = Vec::new();
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let out = db.execute("SUMMARIZE hot FROM clicks TOP 4").unwrap();
                assert!(
                    out.result.rows.len() <= 4,
                    "TOP 4 returned {} rows",
                    out.result.rows.len()
                );
                reads += 1;
                thread::yield_now();
            }
            reads
        }));
    }

    thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let mut reads = 0u64;
    for r in readers {
        reads += r.join().unwrap();
    }
    driver.stop();

    assert!(reads > 0, "readers made no progress");
    let sketches = db.sketch_telemetry();
    assert_eq!(
        sketches.hits, reads,
        "hit counter lost reads: {} summarizes, {} hits recorded",
        reads, sketches.hits
    );
    assert!(
        sketches.absorbed > 0,
        "decay never cooked a tuple into the sketch"
    );
    let mvcc = db.mvcc_telemetry();
    assert!(
        mvcc.snapshot_reads > 0,
        "no SUMMARIZE was served from a snapshot"
    );
    assert_eq!(
        mvcc.retired, mvcc.reclaimed,
        "snapshot versions leaked at quiescence: {mvcc:?}"
    );
}
