//! End-to-end lifecycle: ingest → decay → query-consume → distill →
//! health → checkpoint → recover, across every crate in the workspace.

use spacefungus::prelude::*;

fn sensor_schema() -> Schema {
    Schema::from_pairs(&[
        ("sensor", DataType::Int),
        ("reading", DataType::Float),
        ("site", DataType::Str),
    ])
    .unwrap()
}

/// The full pipeline the README promises, asserted at each stage.
#[test]
fn full_pipeline() {
    let mut db = Database::new(2024);
    let policy =
        ContainerPolicy::new(FungusSpec::Retention { max_age: 50 }).with_distiller(DistillSpec {
            name: "stats".into(),
            column: Some("reading".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Both,
        });
    db.create_container("r", sensor_schema(), policy).unwrap();

    // Stage 1: ingest 100 ticks of data.
    let mut workload = SensorStream::new(10, 20, db.rng());
    for t in 1..=100u64 {
        db.tick();
        db.insert_batch("r", workload.rows_at(Tick(t))).unwrap();
    }
    let container = db.container("r").unwrap();
    {
        let guard = container.read();
        assert_eq!(guard.metrics().inserts, 2000);
        // TTL 50 at 20 rows/tick → about 1000 live (±1 tick of slack).
        let live = guard.live_count();
        assert!((980..=1040).contains(&live), "live {live}");
        assert!(guard.metrics().tuples_rotted > 900);
    }

    // Stage 2: consuming queries remove what they return.
    let before = container.read().live_count();
    let out = db
        .execute("SELECT * FROM r WHERE sensor < 3 CONSUME")
        .unwrap();
    assert!(!out.result.is_empty());
    assert_eq!(out.result.consumed.len(), out.result.len());
    assert_eq!(
        container.read().live_count(),
        before - out.result.len(),
        "law 2: extent shrinks by exactly the answer set"
    );
    assert_eq!(out.distilled as usize, out.result.len());

    // Stage 3: every departure was distilled.
    {
        let guard = container.read();
        let departed = guard.metrics().tuples_rotted + guard.metrics().tuples_consumed;
        assert_eq!(guard.distiller().absorbed("stats"), Some(departed));
        match guard.distiller().summary("stats").unwrap() {
            AnySummary::Moments(m) => {
                assert_eq!(m.count(), departed);
                let mean = m.mean().unwrap();
                assert!(
                    (5.0..95.0).contains(&mean),
                    "sensor readings average {mean}"
                );
            }
            other => panic!("wrong summary {other:?}"),
        }
    }

    // Stage 4: health reflects the neglect level.
    let report = db.health("r").unwrap();
    assert!(report.score > 0.0 && report.score <= 1.0);
    assert!(!report.recommendations.is_empty());

    // Stage 5: checkpoint, restore into a fresh database, verify state.
    let dir = std::env::temp_dir().join(format!("spacefungus-lifecycle-{}", std::process::id()));
    db.checkpoint(&dir).unwrap();

    let mut db2 = Database::new(2024);
    db2.restore_checkpoint(&dir).unwrap();
    let out1 = db.execute("SELECT COUNT(*), SUM(reading) FROM r").unwrap();
    let out2 = db2.execute("SELECT COUNT(*), SUM(reading) FROM r").unwrap();
    assert_eq!(
        out1.result.rows, out2.result.rows,
        "restored store answers identically"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Law 1 verbatim: "the extent of table R decays … until it has been
/// completely disappeared", for every bounded fungus.
#[test]
fn every_bounded_fungus_extinguishes_the_relation() {
    let fungi = vec![
        FungusSpec::Retention { max_age: 10 },
        FungusSpec::Linear { lifetime: 10 },
        FungusSpec::Exponential {
            lambda: 0.5,
            rot_threshold: 0.05,
        },
        FungusSpec::SlidingWindow { capacity: 1 },
        FungusSpec::Stochastic {
            eviction_prob: 0.3,
            age_scale: None,
        },
        FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 4,
            spread_width: 2,
            rot_rate: 0.3,
            ..Default::default()
        }),
    ];
    for spec in fungi {
        let label = spec.label();
        let mut db = Database::new(1);
        db.create_container("r", sensor_schema(), ContainerPolicy::new(spec))
            .unwrap();
        for i in 0..50i64 {
            db.insert(
                "r",
                vec![Value::Int(i), Value::float(i as f64), Value::from("s")],
            )
            .unwrap();
        }
        db.run_for(2_000);
        let live = db.container("r").unwrap().read().live_count();
        // SlidingWindow keeps exactly its capacity; everything else goes to
        // zero without new arrivals.
        let floor = if label.starts_with("window") { 1 } else { 0 };
        assert_eq!(live, floor, "fungus {label} left {live} tuples");
    }
}

/// The second law's algebra: `extent' = extent − σ_P(extent)`, and the
/// answer set equals what a peek would have returned.
#[test]
fn consume_equals_peek_then_delete() {
    let mut db_peek = Database::new(77);
    let mut db_consume = Database::new(77);
    for db in [&mut db_peek, &mut db_consume] {
        db.create_container("r", sensor_schema(), ContainerPolicy::immortal())
            .unwrap();
        let mut w = SensorStream::new(5, 100, db.rng());
        let rows = w.rows_at(Tick(0));
        db.insert_batch("r", rows).unwrap();
    }
    let peek = db_peek
        .execute("SELECT sensor, reading FROM r WHERE sensor = 2")
        .unwrap();
    let consumed = db_consume
        .execute("SELECT sensor, reading FROM r WHERE sensor = 2 CONSUME")
        .unwrap();
    assert_eq!(peek.result.rows, consumed.result.rows, "same answer set A");
    // Peek left the extent whole; consume removed σ_P(R).
    assert_eq!(db_peek.container("r").unwrap().read().live_count(), 100);
    assert_eq!(
        db_consume.container("r").unwrap().read().live_count(),
        100 - consumed.result.len()
    );
    // And the remaining extent has no P-rows left.
    let rest = db_consume
        .execute("SELECT COUNT(*) FROM r WHERE sensor = 2")
        .unwrap();
    assert_eq!(rest.result.scalar().unwrap(), &Value::Int(0));
}

/// Freshness pseudo-columns make decayed data addressable, which is how
/// owners harvest rot before losing it.
#[test]
fn harvest_by_freshness_prevents_waste() {
    let mut db = Database::new(3);
    db.create_container(
        "r",
        sensor_schema(),
        ContainerPolicy::new(FungusSpec::Linear { lifetime: 20 }),
    )
    .unwrap();
    let mut w = SensorStream::new(5, 10, db.rng());
    for t in 1..=100u64 {
        db.tick();
        db.insert_batch("r", w.rows_at(Tick(t))).unwrap();
        // Harvest anything about to rot.
        db.execute("SELECT reading FROM r WHERE $freshness < 0.2 CONSUME")
            .unwrap();
    }
    let c = db.container("r").unwrap();
    let guard = c.read();
    let stats = guard.stats(db.now());
    assert!(
        stats.waste_ratio() < 0.05,
        "harvesting keeps waste near zero, got {}",
        stats.waste_ratio()
    );
    assert!(guard.metrics().tuples_consumed > 0);
}

/// Containers with different fungi coexist on one clock; moving data
/// between them ("stored in a new container subject to different data
/// fungi") works through plain SQL.
#[test]
fn cross_container_distillation_flow() {
    let mut db = Database::new(9);
    let hot_schema = sensor_schema();
    let cold_schema = Schema::from_pairs(&[("reading", DataType::Float)]).unwrap();
    db.create_container(
        "hot",
        hot_schema,
        ContainerPolicy::new(FungusSpec::Retention { max_age: 5 }),
    )
    .unwrap();
    db.create_container(
        "cold",
        cold_schema,
        ContainerPolicy::new(FungusSpec::Retention { max_age: 500 }),
    )
    .unwrap();

    let mut w = SensorStream::new(3, 10, db.rng());
    for t in 1..=50u64 {
        db.tick();
        db.insert_batch("hot", w.rows_at(Tick(t))).unwrap();
        // Move interesting rows to the long-lived container before they rot.
        let out = db
            .execute("SELECT reading FROM hot WHERE reading > 50 CONSUME")
            .unwrap();
        for row in out.result.rows {
            db.insert("cold", row).unwrap();
        }
    }
    let hot = db.container("hot").unwrap().read().live_count();
    let cold = db.container("cold").unwrap().read().live_count();
    assert!(hot <= 60, "hot container stays small: {hot}");
    assert!(cold > 0, "cold container accumulated the distillate");
    let out = db.execute("SELECT MIN(reading) FROM cold").unwrap();
    match out.result.scalar().unwrap() {
        Value::Float(f) => assert!(*f > 50.0),
        other => panic!("unexpected {other}"),
    }
}
