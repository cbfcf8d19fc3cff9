//! Criterion micro-benchmarks over the engine's hot primitives:
//! tuple append, decay application, segment scan (with and without
//! zone-map pruning — the pruning ablation), predicate evaluation,
//! statement parsing, and each sketch's insert path.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use fungus_clock::DeterministicRng;
use fungus_fungi::{EgiConfig, FungusSpec};
use fungus_query::{execute, parse_statement, Planner, Statement};
use fungus_storage::{StorageConfig, TableStore};
use fungus_summary::SummarySpec;
use fungus_types::{DataType, Schema, Tick, Value};

fn sensor_schema() -> Schema {
    Schema::from_pairs(&[
        ("sensor", DataType::Int),
        ("reading", DataType::Float),
        ("site", DataType::Str),
    ])
    .unwrap()
}

fn filled_table(n: u64) -> TableStore {
    let mut t = TableStore::new(sensor_schema(), StorageConfig::default()).unwrap();
    for i in 0..n {
        t.insert(
            vec![
                Value::Int((i % 100) as i64),
                Value::Float(i as f64 % 1000.0),
                Value::Str(format!("site-{}", i % 7)),
            ],
            Tick(i / 100),
        )
        .unwrap();
    }
    t
}

fn bench_append(c: &mut Criterion) {
    c.bench_function("storage/append", |b| {
        let mut t = TableStore::new(sensor_schema(), StorageConfig::default()).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            t.insert(
                vec![
                    Value::Int((i % 100) as i64),
                    Value::Float(i as f64),
                    Value::Str("site-1".into()),
                ],
                Tick(i),
            )
            .unwrap();
            i += 1;
        });
    });
}

fn bench_decay_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("fungus/tick");
    for size in [10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("exponential", size), &size, |b, &size| {
            let mut t = filled_table(size);
            // λ ≈ 0 so the extent stays constant during measurement.
            let mut f = FungusSpec::Exponential {
                lambda: 1e-12,
                rot_threshold: 1e-15,
            }
            .build(&DeterministicRng::new(1))
            .unwrap();
            b.iter(|| f.tick(&mut t, Tick(1)));
        });
        group.bench_with_input(BenchmarkId::new("retention", size), &size, |b, &size| {
            let mut t = filled_table(size);
            let mut f = FungusSpec::Retention {
                max_age: u64::MAX / 2,
            }
            .build(&DeterministicRng::new(1))
            .unwrap();
            b.iter(|| f.tick(&mut t, Tick(1)));
        });
        group.bench_with_input(BenchmarkId::new("egi", size), &size, |b, &size| {
            let mut t = filled_table(size);
            let mut f = FungusSpec::Egi(EgiConfig {
                rot_rate: 0.0,
                seeds_per_tick: 1,
                spread_width: 1,
                ..Default::default()
            })
            .build(&DeterministicRng::new(1))
            .unwrap();
            b.iter(|| f.tick(&mut t, Tick(1)));
        });
    }
    group.finish();
}

fn run_query(sql: &str, table: &mut TableStore) -> usize {
    let stmt = match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let plan = Planner.plan(&stmt, table.schema()).unwrap();
    execute(&plan, table, Tick(1_000)).unwrap().len()
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("query/scan-100k");
    // Range predicate on `reading`, which is segment-clustered, so zone
    // maps prune most segments — the ablation pair quantifies their value.
    group.bench_function("pruned(zone-maps)", |b| {
        let mut t = filled_table(100_000);
        b.iter(|| {
            black_box(run_query(
                "SELECT reading FROM r WHERE reading >= 990",
                &mut t,
            ))
        });
    });
    group.bench_function("unpruned(meta-predicate)", |b| {
        let mut t = filled_table(100_000);
        // $freshness predicates cannot prune: full scan.
        b.iter(|| {
            black_box(run_query(
                "SELECT reading FROM r WHERE $freshness < 0.5",
                &mut t,
            ))
        });
    });
    group.bench_function("indexed-point-lookup", |b| {
        let mut t = filled_table(100_000);
        t.create_index("sensor").unwrap();
        b.iter(|| black_box(run_query("SELECT reading FROM r WHERE sensor = 7", &mut t)));
    });
    group.bench_function("unindexed-point-lookup", |b| {
        let mut t = filled_table(100_000);
        b.iter(|| black_box(run_query("SELECT reading FROM r WHERE sensor = 7", &mut t)));
    });
    group.bench_function("aggregate", |b| {
        let mut t = filled_table(100_000);
        b.iter(|| {
            black_box(run_query(
                "SELECT COUNT(*), AVG(reading) FROM r WHERE sensor = 7",
                &mut t,
            ))
        });
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("query/parse", |b| {
        let sql = "SELECT sensor, AVG(reading) AS m FROM r \
                   WHERE reading > 5 AND site LIKE 'site-%' AND $age <= 100 \
                   GROUP BY sensor ORDER BY m DESC LIMIT 10";
        b.iter(|| black_box(parse_statement(black_box(sql)).unwrap()));
    });
}

fn bench_sketches(c: &mut Criterion) {
    let mut group = c.benchmark_group("summary/observe");
    let specs = [
        ("moments", SummarySpec::Moments),
        (
            "histogram",
            SummarySpec::Histogram {
                lo: 0.0,
                hi: 1000.0,
                bins: 64,
            },
        ),
        ("reservoir", SummarySpec::Reservoir { k: 256 }),
        (
            "count-min",
            SummarySpec::CountMin {
                epsilon: 0.001,
                delta: 0.01,
            },
        ),
        ("hyperloglog", SummarySpec::Distinct { precision: 12 }),
        ("top-k", SummarySpec::TopK { k: 64 }),
    ];
    for (name, spec) in specs {
        group.bench_function(name, |b| {
            let mut s = spec.build(7).unwrap();
            let mut i = 0i64;
            b.iter(|| {
                s.observe(black_box(&Value::Int(i % 10_000)));
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    c.bench_function("storage/snapshot-encode-10k", |b| {
        let t = filled_table(10_000);
        b.iter(|| black_box(fungus_storage::encode_table(&t)));
    });
    c.bench_function("storage/snapshot-decode-10k", |b| {
        let t = filled_table(10_000);
        let bytes = fungus_storage::encode_table(&t);
        b.iter(|| black_box(fungus_storage::decode_table(bytes.clone()).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_append,
    bench_decay_pass,
    bench_scan,
    bench_parse,
    bench_sketches,
    bench_snapshot
);
criterion_main!(benches);
