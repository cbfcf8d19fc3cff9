//! Property harness for the MVCC serializability guarantee: any
//! interleaving of snapshot reads, consuming reads, inserts, and decay
//! ticks through `Database::execute` is observationally equivalent to the
//! same history with every read run by the serial executor on the live
//! one-shard extent under the container write lock — the oracle.
//!
//! Through the database, non-consuming `SELECT`s resolve against the
//! latest sealed snapshot (never the container lock), `CONSUME` runs the
//! optimistic read-own-snapshot / write-live / retry-on-epoch-advance
//! protocol, and decay ticks republish the version they mutate. None of
//! that machinery may move an answer: every query's rows, every consumed
//! set, and the surviving extent must match the serial run bit-for-bit.
//!
//! Per-tuple access metadata is compared at tick boundaries. The oracle
//! touches a row the moment it reads it; a snapshot read queues its
//! touches and the decay pass applies them before its fungus runs. So
//! after every tick each live row's read count, last access and
//! freshness must match, and the property runs over the importance and
//! lease fungi, which decay by that metadata, as well as over EGI.
//! Between two ticks the MVCC run's metadata lags by design. Pure
//! snapshot reads are counted in MVCC telemetry, not in `EngineMetrics`.
//!
//! A second property pins explicit [`SnapshotHandle`]s mid-history and
//! reads them *later*, after more mutations: the delayed read must return
//! exactly what the oracle answered at pin time. That is serializability
//! in its sharpest form — the pinned read serializes at the pin point, no
//! matter how far the live extent has rotted past it. The oracle answers
//! a pin without touching and lands the pinned read's touches, at the
//! pin tick, when the delayed read is made; the MVCC run queues them
//! then, for the next decay pass.

use std::sync::{Arc, Weak};

use proptest::prelude::*;

use spacefungus::fungus_core::SnapshotHandle;
use spacefungus::fungus_query::{execute_readonly, QueryExtent, SelectStatement};
use spacefungus::fungus_storage::{DecaySurface, Segment};
use spacefungus::prelude::*;

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a row at the current tick.
    Insert(i64),
    /// Advance the decay clock one tick (runs the rot sweep).
    Tick,
    /// A recency-window read — served from the sealed snapshot.
    Recent(u64),
    /// A freshness aggregate — also snapshot-served.
    FreshCount,
    /// A consuming read — the optimistic MVCC consume path.
    Consume(i64),
    /// Pin an explicit snapshot handle for delayed reading.
    Pin,
    /// Read the oldest outstanding pin and release it.
    ReadPinned,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (-50i64..50).prop_map(Op::Insert),
        3 => Just(Op::Tick),
        2 => (0u64..16).prop_map(Op::Recent),
        1 => Just(Op::FreshCount),
        2 => (-50i64..50).prop_map(Op::Consume),
        1 => Just(Op::Pin),
        1 => Just(Op::ReadPinned),
    ]
}

/// The shard layouts the MVCC run is exercised over, the default
/// one-shard layout first; the adaptive spec keeps split/merge on the hot
/// path so republication interleaves with shard lifecycle.
fn layouts(inserts: u64) -> Vec<ShardSpec> {
    let quarter = (inserts / 4).max(1);
    vec![
        ShardSpec::default(),
        ShardSpec::new(quarter),
        ShardSpec::new((inserts / 16).max(1)),
        ShardSpec::new(6).with_adaptive().with_low_water(0.5),
    ]
}

fn egi() -> FungusSpec {
    FungusSpec::Egi(EgiConfig {
        seeds_per_tick: 2,
        seed_bias: SeedBias::AgePow(2.0),
        rot_rate: 0.5,
        spread_width: 2,
    })
}

/// The fungi the serializability property runs over: EGI, and the two
/// that decay by access metadata, so a touch landing late or twice moves
/// which rows survive.
fn fungi() -> [FungusSpec; 3] {
    [
        egi(),
        FungusSpec::Importance {
            base_rate: 0.25,
            recency_shield: 3.0,
        },
        FungusSpec::Lease { lease: 3 },
    ]
}

fn build(seed: u64, fungus: FungusSpec, spec: ShardSpec) -> Database {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    let policy = ContainerPolicy::new(fungus).with_sharding(spec);
    let mut db = Database::new(seed);
    db.create_container("t", schema, policy).unwrap();
    db
}

/// Every segment of every shard of a pinned version.
fn segments_of(pin: &SnapshotHandle) -> impl Iterator<Item = &Arc<Segment>> {
    pin.extent()
        .shards()
        .iter()
        .flat_map(|sh| sh.store.segments())
}

/// The full-extent probe used for pinned reads and the survivor check.
const SURVIVORS: &str = "SELECT $id, v FROM t WHERE v >= -50";

/// One live row's access metadata: id, reads, last access, freshness
/// bits.
type RowAccess = (TupleId, u32, Option<Tick>, u64);

/// Everything observable from one run. The engine query counter is
/// deliberately absent (see module docs).
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each query's answer rows, in program order (pinned reads
    /// included, at their *read* position).
    answers: Vec<Vec<Vec<Value>>>,
    /// Each consuming read's removed set, in program order.
    consumed: Vec<Vec<Vec<Value>>>,
    /// The surviving extent at the end.
    survivors: Vec<Vec<Value>>,
    /// After every tick, each live row's access metadata, in id order.
    access: Vec<Vec<RowAccess>>,
}

fn select_stmt(sql: &str) -> SelectStatement {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected select, got {other:?}"),
    }
}

/// How a run answers its reads.
#[derive(Clone, Copy)]
enum Reads {
    /// `Database::execute`: snapshot reads and the optimistic `CONSUME`.
    Database,
    /// The oracle: plan + `Container::query` on the live extent, under the
    /// container write lock.
    Serial,
}

fn read(db: &Database, how: Reads, sql: &str) -> ResultSet {
    match how {
        Reads::Database => db.execute(sql).unwrap().result,
        Reads::Serial => {
            let c = db.container("t").unwrap();
            let mut guard = c.write();
            let plan = guard.plan(&select_stmt(sql)).unwrap();
            guard.query(&plan, db.now()).unwrap()
        }
    }
}

/// The oracle's answer at a pin: read on the live extent under the
/// container write lock, without touching, with the ids it returned.
fn read_untouched(db: &Database, sql: &str) -> (ResultSet, Vec<TupleId>) {
    let c = db.container("t").unwrap();
    let guard = c.write();
    let plan = guard.plan(&select_stmt(sql)).unwrap();
    execute_readonly(&plan, guard.extent(), db.now()).unwrap()
}

/// The oracle's half of a delayed pinned read: one touch of each row the
/// pin-time answer returned, at the pin tick (rows gone since are
/// skipped, as a decay pass skips them).
fn touch_at_pin(db: &Database, returned: &[TupleId], at: Tick) {
    let c = db.container("t").unwrap();
    let mut guard = c.write();
    for &id in returned {
        QueryExtent::touch_by(guard.extent_mut(), id, at, 1);
    }
}

/// Each live row's access metadata, in id order.
fn access_metadata(db: &Database) -> Vec<RowAccess> {
    let c = db.container("t").unwrap();
    let guard = c.read();
    let mut rows = Vec::new();
    guard.extent().for_each_live_meta(&mut |id, meta| {
        rows.push((
            id,
            meta.access_count,
            meta.last_access,
            meta.freshness.get().to_bits(),
        ));
    });
    rows.sort_unstable_by_key(|row| row.0);
    rows
}

fn run_workload(
    ops: &[Op],
    seed: u64,
    fungus: FungusSpec,
    how: Reads,
    spec: ShardSpec,
) -> Observed {
    let db = build(seed, fungus, spec);
    let mut out = Observed {
        answers: Vec::new(),
        consumed: Vec::new(),
        survivors: Vec::new(),
        access: Vec::new(),
    };
    // Outstanding pins, oldest first, each with the oracle's answer at pin
    // time — exactly the serial point the delayed snapshot read must land
    // on — and the ids that answer returned. The oracle never reads its
    // own pin.
    let mut pins: Vec<(SnapshotHandle, Vec<Vec<Value>>, Vec<TupleId>)> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(v) => {
                db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
            }
            Op::Tick => {
                db.run_for(1);
                out.access.push(access_metadata(&db));
            }
            Op::Recent(back) => {
                let floor = db.now().get().saturating_sub(*back);
                let sql = format!("SELECT * FROM t WHERE $inserted_at >= {floor} AND v >= -50");
                out.answers.push(read(&db, how, &sql).rows);
            }
            Op::FreshCount => {
                let sql = "SELECT COUNT(*) FROM t WHERE $freshness >= 0.5";
                out.answers.push(read(&db, how, sql).rows);
            }
            Op::Consume(v) => {
                let r = read(&db, how, &format!("SELECT * FROM t WHERE v >= {v} CONSUME"));
                out.consumed
                    .push(r.consumed.iter().map(|t| t.values.to_vec()).collect());
                out.answers.push(r.rows);
            }
            Op::Pin => {
                let handle = db.pin_snapshot("t").unwrap();
                let (at_pin, returned) = match how {
                    Reads::Database => (Vec::new(), Vec::new()),
                    Reads::Serial => {
                        let (result, returned) = read_untouched(&db, SURVIVORS);
                        (result.rows, returned)
                    }
                };
                pins.push((handle, at_pin, returned));
            }
            Op::ReadPinned => {
                if pins.is_empty() {
                    continue;
                }
                let (handle, at_pin, returned) = pins.remove(0);
                out.answers.push(match how {
                    Reads::Database => handle.select(&select_stmt(SURVIVORS)).unwrap().rows,
                    Reads::Serial => {
                        touch_at_pin(&db, &returned, handle.at());
                        at_pin
                    }
                });
            }
        }
    }
    drop(pins);
    out.survivors = read(&db, how, SURVIVORS).rows;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The MVCC read/consume/decay machinery over one-shard, fixed-shard,
    /// and adaptive layouts observes the exact history of the serial
    /// one-shard oracle, access metadata at every tick included, under
    /// EGI, importance and lease decay, case after case.
    #[test]
    fn mvcc_histories_serialize_against_the_locked_oracle(
        ops in proptest::collection::vec(arb_op(), 1..60),
        seed in 0u64..1_000,
    ) {
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count() as u64;
        for fungus in fungi() {
            let oracle =
                run_workload(&ops, seed, fungus.clone(), Reads::Serial, ShardSpec::default());
            for spec in layouts(inserts) {
                let mvcc = run_workload(&ops, seed, fungus.clone(), Reads::Database, spec);
                prop_assert_eq!(
                    &oracle, &mvcc,
                    "{:?}: mvcc layout {:?} diverged from the serial oracle", fungus, spec
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Version reclamation under pinning: however many snapshots a
    /// history pins and drops, once every handle is gone the retired
    /// list drains to zero — retired == reclaimed at quiescence, across
    /// one-, 4- and 16-shard layouts. And reclaimed means freed: versions
    /// share segments with their successors, so every segment a pinned
    /// version held must by then be gone or be part of the head version.
    #[test]
    fn retired_versions_reclaim_at_quiescence(
        ops in proptest::collection::vec(arb_op(), 10..60),
        seed in 0u64..1_000,
        shards in prop_oneof![Just(0u64), Just(4), Just(16)],
    ) {
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count() as u64;
        let spec = match inserts.checked_div(shards) {
            None => ShardSpec::default(),
            Some(rows) => ShardSpec::new(rows.max(1)),
        };
        let db = build(seed, egi(), spec);
        let mut pins = Vec::new();
        let mut held = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(v) => {
                    db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
                }
                Op::Tick => { db.run_for(1); }
                Op::Consume(v) => {
                    db.execute(&format!("SELECT * FROM t WHERE v >= {v} CONSUME")).unwrap();
                }
                Op::Recent(back) => {
                    let floor = db.now().get().saturating_sub(*back);
                    db.execute(&format!(
                        "SELECT * FROM t WHERE $inserted_at >= {floor} AND v >= -50"
                    )).unwrap();
                }
                Op::FreshCount => {
                    db.execute("SELECT COUNT(*) FROM t WHERE $freshness >= 0.5").unwrap();
                }
                Op::Pin => {
                    let pin = db.pin_snapshot("t").unwrap();
                    held.extend(segments_of(&pin).map(Arc::downgrade));
                    pins.push(pin);
                }
                Op::ReadPinned => { if !pins.is_empty() { pins.remove(0); } }
            }
        }
        // Quiescence: drop every reader.
        drop(pins);
        let t = db.mvcc_telemetry_of("t").unwrap();
        prop_assert_eq!(
            t.retired, t.reclaimed,
            "retired versions leaked with every reader gone: {:?}", t
        );
        let head = db.pin_snapshot("t").unwrap();
        let in_head: Vec<_> = segments_of(&head).map(Arc::as_ptr).collect();
        for seg in held.iter().filter_map(Weak::upgrade) {
            prop_assert!(
                in_head.contains(&Arc::as_ptr(&seg)),
                "segment at {} outlived every version that held it", seg.base()
            );
        }
    }
}

/// The sharp case of the reclamation property: a decay tick writes every
/// live row, so the version sealed after it shares no segment with the
/// version sealed before it. A reader pinned across the tick keeps the old
/// segments readable; when it lets go, all of them are freed — while a
/// single-row insert leaves all but the tail segment shared.
#[test]
fn a_retired_version_frees_exactly_the_segments_its_successor_replaced() {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    let policy = ContainerPolicy::new(FungusSpec::Linear { lifetime: 100 })
        .with_storage(StorageConfig::for_tests())
        .with_sharding(ShardSpec::new(32));
    let mut db = Database::new(5);
    db.create_container("t", schema, policy).unwrap();
    for v in 0..83 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }

    let before = db.pin_snapshot("t").unwrap();
    let old: Vec<Weak<Segment>> = segments_of(&before).map(Arc::downgrade).collect();
    assert!(old.len() >= 10, "want many segments over several shards");

    db.execute("INSERT INTO t VALUES (83)").unwrap();
    let after_insert = db.pin_snapshot("t").unwrap();
    let shared = segments_of(&before)
        .zip(segments_of(&after_insert))
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    assert_eq!(shared, old.len() - 1, "an insert replaces the tail segment");
    drop(after_insert);

    db.run_for(1);
    assert!(
        old.iter().all(|w| w.upgrade().is_some()),
        "the pinned reader keeps every segment of its version"
    );
    assert_eq!(
        before.select(&select_stmt(SURVIVORS)).unwrap().rows.len(),
        83
    );
    drop(before);
    let t = db.mvcc_telemetry_of("t").unwrap();
    assert_eq!(t.retired, t.reclaimed);
    assert!(
        old.iter().all(|w| w.upgrade().is_none()),
        "a reclaimed version's replaced segments are freed with it"
    );
}
