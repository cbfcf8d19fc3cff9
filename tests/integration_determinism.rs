//! Whole-system determinism: two databases with the same seed, driven by
//! the same (generated) workload, end in identical observable state —
//! stochastic fungi, sketch hashing, query mixes, and all.
//!
//! This is the property every experiment in EXPERIMENTS.md leans on.

use spacefungus::fungus_core::RouteSpec;
use spacefungus::fungus_storage::DecaySurface;
use spacefungus::prelude::*;

/// A full-stack session: two containers, EGI + TTL, a rot route, two
/// distillers, a consuming query mix, indexes, compaction.
fn drive_session(seed: u64) -> Database {
    let mut db = Database::new(seed);
    let mut fleet = SensorStream::new(8, 25, db.rng());
    let mut mix =
        QueryMix::new("hot", "sensor", "reading", 8, 15, db.rng()).with_consuming_reads(true);

    db.create_container(
        "hot",
        fleet.schema().clone(),
        ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 2,
            spread_width: 1,
            rot_rate: 0.15,
            seed_bias: SeedBias::AgePow(1.0),
        }))
        .with_distiller(DistillSpec {
            name: "stats".into(),
            column: Some("reading".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Both,
        })
        .with_compaction_every(Some(16)),
    )
    .unwrap();
    db.create_container(
        "cold",
        Schema::from_pairs(&[("reading", DataType::Float)]).unwrap(),
        ContainerPolicy::new(FungusSpec::Retention { max_age: 200 }).with_distiller(DistillSpec {
            name: "survivors".into(),
            column: Some("reading".into()),
            summary: SummarySpec::Distinct { precision: 10 },
            trigger: DistillTrigger::Both,
        }),
    )
    .unwrap();
    db.add_route(
        "hot",
        RouteSpec {
            to: "cold".into(),
            columns: vec!["reading".into()],
            trigger: DistillTrigger::Rotted,
        },
    )
    .unwrap();
    db.execute_ddl("CREATE INDEX ON hot (sensor)").unwrap();

    for t in 1..=120u64 {
        db.tick();
        db.insert_batch("hot", fleet.rows_at(Tick(t))).unwrap();
        let (_, sql) = mix.next_statement(Tick(t));
        db.execute(&sql).unwrap();
    }
    db
}

fn fingerprint(db: &Database) -> Vec<(String, usize, u64, u64, u64, Vec<u64>)> {
    db.container_names()
        .into_iter()
        .map(|name| {
            let c = db.container(&name).unwrap();
            let g = c.read();
            let mut live_ids = Vec::new();
            g.extent()
                .for_each_live_meta(&mut |id, _| live_ids.push(id.get()));
            (
                name,
                g.live_count(),
                g.metrics().tuples_rotted,
                g.metrics().tuples_consumed,
                g.metrics().distilled,
                live_ids,
            )
        })
        .collect()
}

#[test]
fn same_seed_same_universe() {
    let a = drive_session(314159);
    let b = drive_session(314159);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    // Even floating summaries agree bit-for-bit.
    let summary = |db: &Database| -> (u64, f64) {
        let c = db.container("hot").unwrap();
        let g = c.read();
        match g.distiller().summary("stats").unwrap() {
            AnySummary::Moments(m) => (m.count(), m.mean().unwrap_or(0.0)),
            _ => unreachable!(),
        }
    };
    let (na, ma) = summary(&a);
    let (nb, mb) = summary(&b);
    assert_eq!(na, nb);
    assert_eq!(ma.to_bits(), mb.to_bits(), "summaries are bit-identical");
    // Health agrees too.
    let ha = a.health("hot").unwrap();
    let hb = b.health("hot").unwrap();
    assert_eq!(ha.score.to_bits(), hb.score.to_bits());
}

#[test]
fn different_seeds_diverge() {
    let a = drive_session(1);
    let b = drive_session(2);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds must explore different universes"
    );
}

#[test]
fn snapshot_restore_then_identical_future() {
    // Determinism across a checkpoint boundary: run 60 ticks, checkpoint,
    // keep running the original while a restored copy runs the same tail —
    // with the same post-restore inputs their extents must match.
    let mut original = Database::new(27);
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    original
        .create_container(
            "r",
            schema,
            ContainerPolicy::new(FungusSpec::Retention { max_age: 30 }),
        )
        .unwrap();
    for i in 0..60i64 {
        original.tick();
        original.insert("r", vec![Value::Int(i)]).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("fungus-det-{}", std::process::id()));
    original.checkpoint(&dir).unwrap();

    let mut restored = Database::new(27);
    restored.restore_checkpoint(&dir).unwrap();

    for i in 60..90i64 {
        for db in [&mut original, &mut restored] {
            db.tick();
            db.insert("r", vec![Value::Int(i)]).unwrap();
        }
    }
    let ids = |db: &Database| -> Vec<u64> {
        let c = db.container("r").unwrap();
        let g = c.read();
        let mut ids = Vec::new();
        g.extent()
            .for_each_live_meta(&mut |id, _| ids.push(id.get()));
        ids
    };
    assert_eq!(ids(&original), ids(&restored));
    assert_eq!(original.now(), restored.now());
    std::fs::remove_dir_all(&dir).ok();
}
