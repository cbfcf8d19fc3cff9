//! The paper's claims, pinned: every experiment in EXPERIMENTS.md whose
//! result repeats per seed, as a function from a [`Scale`] to a table.
//!
//! The paper is a two-page vision note with no evaluation of its own, so
//! these experiments are the reproduction's evidence for its claims. Each
//! one is labelled with the claim it tests and checked twice:
//!
//! * a quick-scale test asserts the *shape* of the result (who wins,
//!   what stays bounded) and runs with the rest of the suite;
//! * an `#[ignore]`d full-scale test in [`recorded`] asserts that the
//!   table equals, byte for byte, the one checked in as
//!   `results/<name>.tsv`, which is also the table EXPERIMENTS.md quotes.
//!
//! Every table is a pure function of its seeds — no wall-clock columns —
//! so a full-scale mismatch means the engine's behaviour moved. Run the
//! full scale with
//!
//! ```text
//! cargo test --release --test paper_claims -- --include-ignored
//! ```
//!
//! A failing full-scale test prints the table it produced; when the move
//! is intended, that output is the new `results/<name>.tsv`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::str::FromStr;

use fungus_query::{execute_statement, parse_expr};
use fungus_storage::TombstoneReason;
use rand::Rng;
use spacefungus::prelude::*;

/// Experiment sizing: `Full` is what `results/` records, `Quick` a
/// miniature of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Quick,
}

impl Scale {
    fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// A titled table of formatted cells, rendered as TSV.
#[derive(Debug)]
struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "table arity mismatch");
        self.rows.push(cells);
    }

    /// `# title`, a header line, and one TAB-separated line per row.
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// The cell at `row` under column `col`, parsed.
    fn get<T: FromStr>(&self, row: usize, col: &str) -> T {
        let c = self
            .columns
            .iter()
            .position(|name| name == col)
            .unwrap_or_else(|| panic!("no column {col} in {:?}", self.columns));
        let cell = &self.rows[row][c];
        cell.parse()
            .unwrap_or_else(|_| panic!("cell {cell:?} at ({row}, {col}) does not parse"))
    }

    /// Index of the row whose first cell is `key`.
    fn find(&self, key: &str) -> usize {
        self.rows
            .iter()
            .position(|r| r[0] == key)
            .unwrap_or_else(|| panic!("no row {key}:\n{}", self.render()))
    }

    fn last(&self) -> usize {
        self.rows.len() - 1
    }
}

/// Formats a float with 3 decimals, trimming integer-valued cells.
fn fnum(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Mean of a slice (0 for empty).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank p-th percentile of a slice (0 for empty).
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn scalar_count(db: &Database, sql: &str) -> usize {
    db.execute(sql)
        .unwrap()
        .result
        .scalar()
        .unwrap()
        .as_i64()
        .unwrap() as usize
}

/// **E1 — Storage bound.** The first natural law bounds the extent: a
/// no-decay store grows without bound under steady ingest, every fungus
/// reaches a steady state set by its rate. One container per baseline
/// policy, all on the same horizon; live tuples and kilobytes per system.
fn e1(scale: Scale) -> Table {
    let ticks = scale.pick(600u64, 30);
    let rate = scale.pick(100usize, 10);
    let horizon = scale.pick(200u64, 10);
    let sample_every = scale.pick(20u64, 5);

    let specs = baseline_policies(horizon);
    let mut dbs: Vec<(Database, SensorStream)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut db = Database::new(1000 + i as u64);
        let workload = SensorStream::new(50, rate, db.rng());
        db.create_container("r", workload.schema().clone(), spec.policy.clone())
            .unwrap();
        dbs.push((db, workload));
    }

    let mut columns = vec!["tick".to_string()];
    for spec in &specs {
        columns.push(format!("{}_live", spec.name));
        columns.push(format!("{}_kb", spec.name));
    }
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("E1 storage bound: {rate} rows/tick for {ticks} ticks, horizon {horizon}"),
        &columns,
    );
    for t in 1..=ticks {
        for (db, workload) in dbs.iter_mut() {
            db.insert_batch("r", workload.rows_at(Tick(t))).unwrap();
            db.tick();
        }
        if t % sample_every == 0 || t == ticks {
            let mut cells = vec![t.to_string()];
            for (db, _) in &dbs {
                let c = db.container("r").unwrap();
                let guard = c.read();
                cells.push(guard.live_count().to_string());
                cells.push(fnum(guard.extent().approx_bytes() as f64 / 1024.0));
            }
            table.row(cells);
        }
    }
    table
}

#[test]
fn e1_no_decay_grows_and_every_fungus_bounds_the_extent() {
    let t = e1(Scale::Quick);
    let end = t.last();
    let nodecay: usize = t.get(end, "no-decay_live");
    assert_eq!(nodecay, 30 * 10, "no-decay keeps every row");
    let ttl: usize = t.get(end, "ttl_live");
    let exp: usize = t.get(end, "exponential_live");
    let egi: usize = t.get(end, "egi_live");
    assert!(ttl < nodecay, "ttl bounds the extent: {ttl} vs {nodecay}");
    assert!(exp < nodecay, "exponential bounds the extent: {exp}");
    assert!(egi <= nodecay);
}

/// **E2 — Blue cheese.** "EGI creates rotting spots in R … It remains
/// edible for a long time though." A static extent decays under EGI
/// across a seeds/tick × spread-width sweep; each cell is censused once
/// 30% of the extent is eaten (or at a tick cap), so spot structure is
/// comparable across the sweep and `ticks_to_30pct` reports the speed.
fn e2(scale: Scale) -> Table {
    let extent = scale.pick(20_000u64, 400);
    let max_ticks = scale.pick(2_000u64, 60);
    let target_evicted = extent * 3 / 10;

    let mut table = Table::new(
        format!(
            "E2 blue cheese: {extent} tuples, censused when 30% is eaten (cap {max_ticks} cycles)"
        ),
        &[
            "seeds/tick",
            "spread",
            "ticks_to_30pct",
            "spots",
            "mean_spot",
            "largest_spot",
            "rot_holes",
            "largest_hole",
            "edible_frac",
        ],
    );
    for seeds in [1usize, 4, 16] {
        for spread in [1usize, 2, 4] {
            let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
            let policy = ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
                seeds_per_tick: seeds,
                spread_width: spread,
                rot_rate: 0.05,
                seed_bias: SeedBias::AgePow(1.0),
            }))
            // Never compact mid-census: tombstone structure is the data.
            .with_compaction_every(None);
            let rng = DeterministicRng::new(2000 + (seeds * 10 + spread) as u64);
            let mut c = Container::new("cheese", schema, policy, &rng).unwrap();
            for i in 0..extent {
                c.insert(vec![Value::Int(i as i64)], Tick(i / 100)).unwrap();
            }
            let start = extent / 100 + 1;
            let mut ticks_taken = max_ticks;
            for t in 0..max_ticks {
                c.decay_tick(Tick(start + t));
                if c.metrics().tuples_rotted >= target_evicted {
                    ticks_taken = t + 1;
                    break;
                }
            }
            let census = c.spot_census();
            table.row(vec![
                seeds.to_string(),
                spread.to_string(),
                ticks_taken.to_string(),
                census.infected_spots.to_string(),
                fnum(census.mean_infected_spot()),
                census.largest_infected_spot.to_string(),
                census.rot_holes.to_string(),
                census.largest_rot_hole.to_string(),
                fnum(c.live_count() as f64 / extent as f64),
            ]);
        }
    }
    table
}

#[test]
fn e2_spots_scale_with_seeding_and_the_cheese_stays_edible() {
    let t = e2(Scale::Quick);
    assert_eq!(t.rows.len(), 9, "3×3 sweep");
    let ticks = |r: usize| t.get::<u64>(r, "ticks_to_30pct");
    assert!(
        ticks(8) <= ticks(0),
        "seeds=16/spread=4 must rot faster than seeds=1/spread=1"
    );
    for r in 0..t.rows.len() {
        let edible: f64 = t.get(r, "edible_frac");
        assert!(edible > 0.3, "censused at ~30% eaten: edible {edible}");
        let visible = t.get::<usize>(r, "spots") + t.get::<usize>(r, "rot_holes");
        assert!(visible > 0, "rot must be visible");
    }
}

/// **E4 — Query work under decay.** A bounded extent scans a bounded
/// number of tuples, while the no-decay store's recent-window aggregate
/// scans its whole unbounded history. Both answer the same query as the
/// store ages; live and scanned tuples per system.
fn e4(scale: Scale) -> Table {
    let ticks = scale.pick(500u64, 30);
    let rate = scale.pick(200usize, 10);
    let window = scale.pick(20u64, 5);
    let sample_every = scale.pick(25u64, 10);
    let horizon = scale.pick(50u64, 8);

    let mut nodecay = Database::new(41);
    let mut ttl = Database::new(41);
    let mut w1 = SensorStream::new(50, rate, nodecay.rng());
    let mut w2 = SensorStream::new(50, rate, ttl.rng());
    nodecay
        .create_container("r", w1.schema().clone(), ContainerPolicy::immortal())
        .unwrap();
    ttl.create_container(
        "r",
        w2.schema().clone(),
        ContainerPolicy::new(FungusSpec::Retention { max_age: horizon }),
    )
    .unwrap();

    let sql = format!("SELECT COUNT(*), AVG(reading) FROM r WHERE $age <= {window}");
    let mut table = Table::new(
        format!(
            "E4 query work: recent-window aggregate (window {window}) over an aging store, \
             {rate} rows/tick"
        ),
        &[
            "tick",
            "nodecay_live",
            "nodecay_scanned",
            "ttl_live",
            "ttl_scanned",
        ],
    );
    for t in 1..=ticks {
        nodecay.insert_batch("r", w1.rows_at(Tick(t))).unwrap();
        ttl.insert_batch("r", w2.rows_at(Tick(t))).unwrap();
        nodecay.tick();
        ttl.tick();
        if t % sample_every == 0 || t == ticks {
            let mut cells = vec![t.to_string()];
            for db in [&nodecay, &ttl] {
                cells.push(db.container("r").unwrap().read().live_count().to_string());
                cells.push(db.execute(&sql).unwrap().result.scanned.to_string());
            }
            table.row(cells);
        }
    }
    table
}

#[test]
fn e4_the_decayed_store_scans_less() {
    let t = e4(Scale::Quick);
    let end = t.last();
    let nodecay_live: usize = t.get(end, "nodecay_live");
    let ttl_live: usize = t.get(end, "ttl_live");
    let nodecay_scanned: usize = t.get(end, "nodecay_scanned");
    let ttl_scanned: usize = t.get(end, "ttl_scanned");
    assert_eq!(nodecay_live, 300, "30 ticks × 10 rows");
    assert!(ttl_live < nodecay_live);
    assert!(
        ttl_scanned <= nodecay_scanned,
        "bounded extent must scan no more: {ttl_scanned} vs {nodecay_scanned}"
    );
}

/// **E5 — Consume steady state.** The second law alone bounds a hot
/// store: under continuous ingest plus consuming point reads the extent
/// settles even without a fungus. Three modes over the identical stream:
/// `peek` (the same reads without CONSUME), `consume` (pure second law),
/// and `consume+fungus` (a slow TTL mops up what no query touches).
fn e5(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5 consume steady state: identical ingest + query mix, three consumption modes",
        &[
            "mode",
            "mean_live_tail",
            "consumed",
            "rotted",
            "waste_ratio",
            "queries",
        ],
    );
    let modes = [
        ("peek", false, FungusSpec::Null),
        ("consume", true, FungusSpec::Null),
        (
            "consume+fungus",
            true,
            FungusSpec::Retention {
                max_age: scale.pick(100, 8),
            },
        ),
    ];
    for (name, consume_reads, fungus) in modes {
        let ticks = scale.pick(500u64, 40);
        let rate = scale.pick(200usize, 10);
        let queries_per_tick = scale.pick(4usize, 2);

        let mut db = Database::new(51);
        let mut workload = SensorStream::new(50, rate, db.rng());
        // Point lookups only: analysts extract specific (zipfian) sensors,
        // so consuming reads eat exactly what someone asked for — cold
        // sensors accumulate unless a fungus mops them up.
        let mut mix = QueryMix::new("r", "sensor", "reading", 50, 30, db.rng())
            .with_weights(1.0, 0.0, 0.0, 0.0)
            .with_consuming_reads(consume_reads);
        db.create_container("r", workload.schema().clone(), ContainerPolicy::new(fungus))
            .unwrap();

        let mut live_tail = Vec::new();
        for t in 1..=ticks {
            db.insert_batch("r", workload.rows_at(Tick(t))).unwrap();
            for _ in 0..queries_per_tick {
                let (_, sql) = mix.next_statement(Tick(t));
                db.execute(&sql).unwrap();
            }
            db.tick();
            if t > ticks / 2 {
                live_tail.push(db.container("r").unwrap().read().live_count() as f64);
            }
        }
        let c = db.container("r").unwrap();
        let guard = c.read();
        let metrics = guard.metrics();
        // Consuming reads run under the container lock; plain reads run on
        // the MVCC snapshot and are counted there.
        let snapshot_reads = db.mvcc_telemetry_of("r").unwrap().snapshot_reads;
        table.row(vec![
            name.to_string(),
            fnum(mean(&live_tail)),
            metrics.tuples_consumed.to_string(),
            metrics.tuples_rotted.to_string(),
            fnum(guard.stats(Tick(ticks)).waste_ratio()),
            (metrics.consuming_queries + snapshot_reads).to_string(),
        ]);
    }
    table
}

#[test]
fn e5_consumption_bounds_the_extent() {
    let t = e5(Scale::Quick);
    let (peek, consume, both) = (t.find("peek"), t.find("consume"), t.find("consume+fungus"));
    let live = |r: usize| t.get::<f64>(r, "mean_live_tail");
    let consumed = |r: usize| t.get::<u64>(r, "consumed");
    let rotted = |r: usize| t.get::<u64>(r, "rotted");
    let queries = |r: usize| t.get::<u64>(r, "queries");
    assert_eq!(
        (queries(consume), queries(both)),
        (queries(peek), queries(peek)),
        "every mode runs and counts the same reads"
    );
    assert_eq!(consumed(peek), 0, "peek mode consumes nothing");
    assert!(consumed(consume) > 0, "consume mode consumes");
    assert!(
        live(consume) < live(peek),
        "consuming reads shrink the steady extent: {} vs {}",
        live(consume),
        live(peek)
    );
    assert!(
        live(both) <= live(consume),
        "adding the fungus can only shrink it further: {} vs {}",
        live(both),
        live(consume)
    );
    assert_eq!(rotted(consume), 0, "pure consume mode has no fungus");
    assert!(
        rotted(both) > 0,
        "the fungus mops up what queries never touch"
    );
}

/// **E6 — Recall vs decay aggressiveness.** Information loss is a knob:
/// recent-window queries keep perfect recall while the window fits inside
/// the fungus's horizon and degrade gracefully as it outgrows it. TTL
/// horizons × query windows, recall against a keep-everything truth.
fn e6(scale: Scale) -> Table {
    let ticks = scale.pick(400u64, 40);
    let rate = scale.pick(50usize, 5);
    let horizons: Vec<u64> = scale.pick(vec![25, 50, 100, 200, 400], vec![10, 20]);
    let delays: Vec<u64> = scale.pick(vec![10, 50, 100], vec![5, 15]);

    let mut columns = vec!["horizon".to_string(), "live".to_string()];
    columns.extend(delays.iter().map(|d| format!("recall@{d}")));
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("E6 recall vs decay: TTL sweep, {rate} rows/tick for {ticks} ticks"),
        &columns,
    );
    for &horizon in &horizons {
        let mut db = Database::new(60 + horizon);
        let mut workload = SensorStream::new(20, rate, db.rng());
        let mut truth = GroundTruth::new(workload.schema().clone());
        db.create_container(
            "r",
            workload.schema().clone(),
            ContainerPolicy::new(FungusSpec::Retention { max_age: horizon }),
        )
        .unwrap();
        for t in 1..=ticks {
            // Tick first so rows inserted "at t" carry insertion time t,
            // matching the ground-truth record.
            db.tick();
            let rows = workload.rows_at(Tick(t));
            truth.record_all(&rows, Tick(t));
            db.insert_batch("r", rows).unwrap();
        }
        let live = db.container("r").unwrap().read().live_count();
        let mut cells = vec![horizon.to_string(), live.to_string()];
        for &d in &delays {
            let observed = scalar_count(&db, &format!("SELECT COUNT(*) FROM r WHERE $age <= {d}"));
            let pred = parse_expr(&format!("$age <= {d}")).unwrap();
            cells.push(fnum(truth.recall(&pred, Tick(ticks), observed).unwrap()));
        }
        table.row(cells);
    }
    table
}

#[test]
fn e6_recall_is_perfect_inside_the_horizon_and_degrades_outside() {
    let t = e6(Scale::Quick);
    let (h10, h20) = (t.find("10"), t.find("20"));
    let h10_r5: f64 = t.get(h10, "recall@5");
    let h10_r15: f64 = t.get(h10, "recall@15");
    let h20_r15: f64 = t.get(h20, "recall@15");
    assert_eq!(h10_r5, 1.0, "window 5 inside horizon 10 → perfect recall");
    assert!(
        h10_r15 < 1.0,
        "window 15 outside horizon 10 → lossy: {h10_r15}"
    );
    assert!(
        h20_r15 > h10_r15,
        "longer horizon recovers recall: {h20_r15} vs {h10_r15}"
    );
}

/// Approximate resident size of a summary, for E7's `bytes` column.
fn summary_bytes(s: &AnySummary) -> usize {
    match s {
        AnySummary::Moments(_) => 48,
        AnySummary::Histogram(h) => h.bins().len() * 8 + 32,
        // Boundaries plus E7's 512-item λ = 0 biased sample.
        AnySummary::EquiDepth(h) => h.buckets() * 8 + 512 * 24 + 32,
        AnySummary::CountMin(c) => c.width() * c.depth() * 8 + 32,
        AnySummary::Distinct(h) => h.registers() + 16,
        // Counter + stamp + key per hitter, plus the Count-Min array's
        // fading (count, stamp) cells.
        AnySummary::FadingTopK(f) => f.capacity() * 48 + f.width() * f.depth() * 16 + 32,
        AnySummary::Biased(r) => r.capacity() * 24 + 32,
    }
}

/// **E7 — Cooking accuracy.** Summaries preserve answers after the raw
/// data rots: each scheme is fed a zipfian stream, the stream is then
/// discarded, and the summary answers its question against exact truth
/// computed before the discard. The reservoir and top-k rows are the
/// fading kinds at λ = 0, what the DDL's `sample(k)` and `topk(k)` build.
fn e7(scale: Scale) -> Table {
    let n = scale.pick(100_000usize, 2_000);
    let keys = scale.pick(1_000usize, 50);
    let rng_factory = DeterministicRng::new(70);
    let mut rng = rng_factory.stream("e7");
    let zipf = Zipf::new(keys, 1.1);

    let mut key_stream = Vec::with_capacity(n);
    let mut value_stream = Vec::with_capacity(n);
    for _ in 0..n {
        key_stream.push(zipf.sample(&mut rng) as i64);
        value_stream.push(rng.gen_range(0.0..100.0));
    }

    // Exact ground truth, then conceptually discard the stream.
    let count = n as f64;
    let sum: f64 = value_stream.iter().sum();
    let mut sorted = value_stream.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[n / 2];
    let mut freq: HashMap<i64, u64> = HashMap::new();
    for &k in &key_stream {
        *freq.entry(k).or_default() += 1;
    }
    let distinct = freq.len() as f64;
    let (&hot_key, &hot_count) = freq.iter().max_by_key(|(_, c)| **c).unwrap();
    let (hot_key, hot_count) = (Value::Int(hot_key), hot_count as f64);

    let specs = [
        SummarySpec::Moments,
        SummarySpec::Histogram {
            lo: 0.0,
            hi: 100.0,
            bins: 64,
        },
        SummarySpec::EquiDepth {
            buckets: 32,
            sample: 512,
        },
        SummarySpec::BiasedReservoir {
            k: 256,
            lambda: 0.0,
        },
        SummarySpec::CountMin {
            epsilon: 0.001,
            delta: 0.01,
        },
        SummarySpec::Distinct { precision: 12 },
        SummarySpec::FadingTopK { k: 32, lambda: 0.0 },
    ];
    let mut built: Vec<AnySummary> = specs
        .iter()
        .map(|s| s.build(rng_factory.derive_seed("e7-sketch")).unwrap())
        .collect();
    for (key, val) in key_stream.iter().zip(&value_stream) {
        let (key, val) = (Value::Int(*key), Value::Float(*val));
        for summary in built.iter_mut() {
            match summary {
                AnySummary::Moments(_)
                | AnySummary::Histogram(_)
                | AnySummary::EquiDepth(_)
                | AnySummary::Biased(_) => summary.observe(&val),
                _ => summary.observe(&key),
            }
        }
    }

    let mut table = Table::new(
        format!(
            "E7 cooking accuracy: {n} tuples, {keys} zipfian keys, raw data discarded after \
             distillation"
        ),
        &[
            "scheme", "question", "truth", "estimate", "rel_err", "bytes",
        ],
    );
    for summary in &built {
        let answers: Vec<(&str, &str, f64, f64)> = match summary {
            AnySummary::Moments(m) => vec![
                ("moments", "count", count, m.count() as f64),
                ("moments", "sum", sum, m.sum()),
                ("moments", "mean", sum / count, m.mean().unwrap()),
            ],
            AnySummary::Histogram(h) => {
                vec![("histogram", "median", median, h.quantile(0.5).unwrap())]
            }
            AnySummary::EquiDepth(h) => {
                vec![("equi-depth", "median", median, h.quantile(0.5).unwrap())]
            }
            AnySummary::Biased(r) => {
                vec![("reservoir", "median", median, r.quantile(0.5).unwrap())]
            }
            AnySummary::CountMin(c) => vec![(
                "count-min",
                "hot key freq",
                hot_count,
                c.estimate(&hot_key) as f64,
            )],
            AnySummary::Distinct(h) => {
                vec![("hyperloglog", "distinct keys", distinct, h.estimate())]
            }
            AnySummary::FadingTopK(t) => vec![(
                "top-k",
                "hot key freq",
                hot_count,
                t.estimate_at(&hot_key, 0),
            )],
        };
        for (scheme, question, truth, estimate) in answers {
            let rel = if truth == 0.0 {
                0.0
            } else {
                (estimate - truth).abs() / truth
            };
            table.row(vec![
                scheme.into(),
                question.into(),
                fnum(truth),
                fnum(estimate),
                fnum(rel),
                summary_bytes(summary).to_string(),
            ]);
        }
    }
    table
}

#[test]
fn e7_every_scheme_answers_within_tolerance() {
    let t = e7(Scale::Quick);
    assert_eq!(t.rows.len(), 9);
    for r in 0..t.rows.len() {
        let scheme = t.rows[r][0].as_str();
        let rel: f64 = t.get(r, "rel_err");
        let tolerance = match scheme {
            "moments" => 1e-9,     // exact
            "count-min" => 0.05,   // ε-bounded overestimate
            "hyperloglog" => 0.15, // ±1.04/√4096 ≈ 1.6%, slack ×10
            "top-k" => 0.05,       // the hot key is tracked exactly here
            _ => 0.35,             // sampled/histogram medians
        };
        assert!(
            rel <= tolerance,
            "{scheme}: rel err {rel} exceeds {tolerance}"
        );
        assert!(t.get::<usize>(r, "bytes") > 0);
    }
}

/// **E8 — End-to-end system comparison.** The two laws *together*
/// dominate: on bursty logs with a selective recency dashboard, EGI plus
/// an owner harvesting the nearly rotten keeps a bounded store while
/// wasting less than decay alone, and no-decay pays for perfect recall
/// with unbounded storage. The four baseline policies plus `tended`.
fn e8(scale: Scale) -> Table {
    let ticks = scale.pick(400u64, 40);
    let rate_base = scale.pick(50usize, 5);
    let rate_burst = scale.pick(250usize, 20);
    let horizon = scale.pick(100u64, 10);
    let window = scale.pick(30u64, 5);

    let mut systems: Vec<(String, ContainerPolicy, bool)> = baseline_policies(horizon)
        .into_iter()
        .map(|spec| (spec.name.to_string(), spec.policy, false))
        .collect();
    systems.push((
        "tended(egi+harvest)".into(),
        ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
            rot_rate: 4.0 / horizon as f64,
            ..EgiConfig::default()
        })),
        true,
    ));

    let mut table = Table::new(
        format!(
            "E8 end-to-end: bursty logs for {ticks} ticks, horizon {horizon}, dashboard window \
             {window}"
        ),
        &["system", "mean_live", "kb", "recall@w", "waste_ratio"],
    );
    for (name, policy, harvest) in systems {
        let mut db = Database::new(80);
        let mut workload = LogEventStream::new(20, rate_base, rate_burst, db.rng());
        let mut truth = GroundTruth::new(workload.schema().clone());
        db.create_container("logs", workload.schema().clone(), policy)
            .unwrap();
        // The dashboard is selective: analysts only ever read errors, so
        // everything else can rot unread — that difference is the waste.
        let probe = format!("SELECT COUNT(*) FROM logs WHERE level = 'ERROR' AND $age <= {window}");
        let mut live_tail = Vec::new();
        for t in 1..=ticks {
            // Tick first so insertion times match the ground-truth record.
            db.tick();
            let rows = workload.rows_at(Tick(t));
            truth.record_all(&rows, Tick(t));
            db.insert_batch("logs", rows).unwrap();
            if harvest && t % 5 == 0 {
                // The owner tends the store: distill the nearly rotten.
                db.execute("SELECT latency_ms FROM logs WHERE $freshness < 0.3 CONSUME")
                    .unwrap();
            }
            if t % 10 == 0 {
                db.execute(&probe).unwrap();
            }
            if t > ticks / 2 {
                live_tail.push(db.container("logs").unwrap().read().live_count() as f64);
            }
        }
        let observed = scalar_count(&db, &probe);
        let pred = parse_expr(&format!("level = 'ERROR' AND $age <= {window}")).unwrap();
        let recall = truth.recall(&pred, Tick(ticks), observed).unwrap();
        let stats = db.container("logs").unwrap().read().stats(Tick(ticks));
        table.row(vec![
            name,
            fnum(mean(&live_tail)),
            fnum(stats.approx_bytes as f64 / 1024.0),
            fnum(recall),
            fnum(stats.waste_ratio()),
        ]);
    }
    table
}

#[test]
fn e8_shape_of_the_headline_table() {
    let t = e8(Scale::Quick);
    assert_eq!(t.rows.len(), 5);
    let (nodecay, ttl, tended) = (
        t.find("no-decay"),
        t.find("ttl"),
        t.find("tended(egi+harvest)"),
    );
    let live = |r: usize| t.get::<f64>(r, "mean_live");
    let waste = |r: usize| t.get::<f64>(r, "waste_ratio");
    // The status quo: perfect recall, the biggest store, zero waste (it
    // never evicts anything).
    assert_eq!(t.get::<f64>(nodecay, "recall@w"), 1.0);
    assert!(live(nodecay) >= live(ttl));
    assert_eq!(waste(nodecay), 0.0);
    // The tended system keeps a bounded store and wastes no more than a
    // TTL that rots data unread.
    assert!(live(tended) <= live(nodecay));
    if waste(ttl) > 0.0 {
        assert!(
            waste(tended) <= waste(ttl) + 1e-9,
            "tended waste {} vs ttl waste {}",
            waste(tended),
            waste(ttl)
        );
    }
}

/// **E9 — Seed-bias ablation.** The paper's "select an element …
/// inversely randomly correlated with its age" admits several readings;
/// EGI runs under each seeding bias and the table records *what dies*:
/// the age of evicted tuples and the recall of a recent window.
fn e9(scale: Scale) -> Table {
    let ticks = scale.pick(300u64, 40);
    let rate = scale.pick(50usize, 5);
    let recent_window = scale.pick(20u64, 5);

    let mut table = Table::new(
        format!("E9 seed-bias ablation: EGI variants, {rate} rows/tick for {ticks} ticks"),
        &[
            "bias",
            "evicted",
            "mean_evict_age",
            "p50_evict_age",
            "live",
            "recent_survivors",
            "recent_truth",
            "recent_recall",
        ],
    );
    let biases = [
        ("uniform(β=0)", SeedBias::AgePow(0.0)),
        ("age(β=1)", SeedBias::AgePow(1.0)),
        ("age²(β=2)", SeedBias::AgePow(2.0)),
        ("youngest", SeedBias::Youngest),
    ];
    for (name, bias) in biases {
        // Drive the store and fungus directly (not through a container's
        // decay tick) so each evicted tuple's age is visible.
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut store = TableStore::new(schema, StorageConfig::default()).unwrap();
        let mut fungus = FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 2,
            spread_width: 1,
            rot_rate: 0.2,
            seed_bias: bias,
        })
        .build(&DeterministicRng::new(90))
        .unwrap();
        let mut evict_ages: Vec<f64> = Vec::new();
        let mut v = 0i64;
        for t in 1..=ticks {
            for _ in 0..rate {
                store.insert(vec![Value::Int(v)], Tick(t)).unwrap();
                v += 1;
            }
            fungus.tick(&mut store, Tick(t));
            for tuple in store.evict_rotten() {
                evict_ages.push(tuple.meta.age(Tick(t)).as_f64());
            }
        }

        let recent_truth = (rate as u64 * recent_window.min(ticks)) as usize;
        let recent_survivors = store
            .iter_live()
            .filter(|t| Tick(ticks).age_since(t.meta.inserted_at).get() < recent_window)
            .count();
        table.row(vec![
            name.to_string(),
            evict_ages.len().to_string(),
            fnum(mean(&evict_ages)),
            fnum(percentile(&evict_ages, 0.5)),
            store.live_count().to_string(),
            recent_survivors.to_string(),
            recent_truth.to_string(),
            fnum(recent_survivors as f64 / recent_truth as f64),
        ]);
    }
    table
}

#[test]
fn e9_age_bias_kills_older_data_than_youngest_first() {
    let t = e9(Scale::Quick);
    assert_eq!(t.rows.len(), 4);
    let (age2, youngest) = (t.find("age²(β=2)"), t.find("youngest"));
    let mean_age = |r: usize| t.get::<f64>(r, "mean_evict_age");
    let recall = |r: usize| t.get::<f64>(r, "recent_recall");
    assert!(
        mean_age(age2) > mean_age(youngest),
        "age²-biased evictions ({}) must be older than youngest-biased ({})",
        mean_age(age2),
        mean_age(youngest)
    );
    assert!(
        recall(age2) >= recall(youngest),
        "age bias preserves recent data better: {} vs {}",
        recall(age2),
        recall(youngest)
    );
}

/// **E10 — Health under neglect vs care.** "The database is kept in
/// optimal health condition if you regularly can turn rotting portions
/// into summaries." Two identical stores under the same EGI attack
/// diverge only on owner behaviour: the neglected one lets everything rot
/// unread, the tended owner harvests nearly rotten data into summaries.
fn e10(scale: Scale) -> Table {
    let ticks = scale.pick(600u64, 60);
    let rate = scale.pick(50usize, 5);
    let sample_every = scale.pick(30u64, 10);

    let make_db = || {
        let mut db = Database::new(100);
        let workload = SensorStream::new(20, rate, db.rng());
        let policy = ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 4,
            spread_width: 1,
            rot_rate: 0.15,
            ..EgiConfig::default()
        }))
        .with_distiller(DistillSpec {
            name: "reading-stats".into(),
            column: Some("reading".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Consumed,
        });
        db.create_container("r", workload.schema().clone(), policy)
            .unwrap();
        (db, workload)
    };
    let (neglected, mut w1) = make_db();
    let (tended, mut w2) = make_db();

    let mut table = Table::new(
        format!("E10 health: neglected vs tended store under EGI, {rate} rows/tick"),
        &[
            "tick",
            "neglected_score",
            "tended_score",
            "neglected_waste",
            "tended_waste",
            "tended_distilled",
        ],
    );
    for t in 1..=ticks {
        neglected.insert_batch("r", w1.rows_at(Tick(t))).unwrap();
        tended.insert_batch("r", w2.rows_at(Tick(t))).unwrap();
        if t % 5 == 0 {
            // The tending owner harvests rotting portions into summaries.
            tended
                .execute("SELECT reading FROM r WHERE $freshness < 0.5 CONSUME")
                .unwrap();
        }
        neglected.tick();
        tended.tick();
        if t % sample_every == 0 || t == ticks {
            let hn = neglected.health("r").unwrap();
            let ht = tended.health("r").unwrap();
            let distilled = tended
                .container("r")
                .unwrap()
                .read()
                .distiller()
                .absorbed("reading-stats")
                .unwrap_or(0);
            table.row(vec![
                t.to_string(),
                fnum(hn.score),
                fnum(ht.score),
                fnum(hn.waste_ratio),
                fnum(ht.waste_ratio),
                distilled.to_string(),
            ]);
        }
    }
    table
}

#[test]
fn e10_tending_keeps_the_store_healthier() {
    let t = e10(Scale::Quick);
    let end = t.last();
    let neglected: f64 = t.get(end, "neglected_score");
    let tended: f64 = t.get(end, "tended_score");
    assert!(
        tended > neglected,
        "tended {tended} must beat neglected {neglected}"
    );
    assert!(t.get::<f64>(end, "tended_waste") < t.get::<f64>(end, "neglected_waste"));
    assert!(
        t.get::<u64>(end, "tended_distilled") > 0,
        "harvests must have fed the distiller"
    );
}

/// **E13 — Adaptive shard lifecycle vs fixed sizing.** A fixed
/// `rows_per_shard` must be guessed against a workload nobody controls:
/// undersized shards multiply per-shard work, oversized ones keep
/// hollowed-out ranges resident because a shard only drops once all of
/// it rotted. Bursty, rot-heavy churn over fixed layouts a quarter, one
/// and four times the nominal size, plus the adaptive layout, all under
/// one seed; the resident shard count, live extent, memory and the
/// lifecycle counters per layout.
fn e13(scale: Scale) -> Table {
    let (preload, preload_ticks, phases, phase_ticks, burst, lull, nominal) = scale.pick(
        (16_000u64, 256u64, 24u64, 32u64, 600usize, 10usize, 4_000u64),
        (400, 8, 4, 6, 60, 2, 40),
    );

    let mut table = Table::new(
        format!(
            "E13 adaptive vs fixed shard sizing: {preload} preloaded rows, {phases} phases x \
             {phase_ticks} ticks of burst/lull churn (burst {burst} vs lull {lull}), rot-heavy \
             EGI, one seed"
        ),
        &[
            "layout",
            "shards_end",
            "live_end",
            "mem_kb",
            "splits",
            "merges",
            "dropped",
        ],
    );
    let layouts = [
        ("fixed/quarter", ShardSpec::new(nominal / 4)),
        ("fixed/nominal", ShardSpec::new(nominal)),
        ("fixed/4x", ShardSpec::new(nominal * 4)),
        (
            "adaptive",
            ShardSpec::new(nominal).with_adaptive().with_low_water(0.5),
        ),
    ];
    for (label, spec) in layouts {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        // Rot-heavy, moderately age-biased: the front eats the oldest
        // ranges fastest but leaks into younger ones, so old shards are
        // hollowed (merge fodder) before they are emptied (drop fodder).
        let fungus = FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 8,
            seed_bias: SeedBias::AgePow(8.0),
            rot_rate: 0.5,
            spread_width: 6,
        });
        let policy = ContainerPolicy::new(fungus).with_sharding(spec);
        // One seed for every layout: identical rot, identical answers.
        let mut c = Container::new("t", schema, policy, &DeterministicRng::new(0xE13)).unwrap();

        let rows_per_tick = (preload / preload_ticks).max(1);
        for i in 0..preload {
            c.insert(vec![Value::Int(i as i64)], Tick(i / rows_per_tick))
                .unwrap();
        }
        let mut now = preload_ticks;
        for phase in 0..phases {
            // Even phases burst, odd phases idle — the mismatch a fixed
            // shard size cannot track.
            let batch = if phase % 2 == 0 { burst } else { lull };
            for _ in 0..phase_ticks {
                for k in 0..batch {
                    c.insert(vec![Value::Int(k as i64)], Tick(now)).unwrap();
                }
                c.decay_tick(Tick(now));
                now += 1;
            }
        }
        table.row(vec![
            label.to_string(),
            c.shard_count().to_string(),
            c.live_count().to_string(),
            fnum(c.stats(Tick(now)).approx_bytes as f64 / 1024.0),
            c.shards_split().to_string(),
            c.shards_merged().to_string(),
            c.metrics().shards_dropped.to_string(),
        ]);
    }
    table
}

#[test]
fn e13_the_adaptive_lifecycle_fires_and_preserves_answers() {
    let t = e13(Scale::Quick);
    assert_eq!(t.rows.len(), 4, "three fixed sizings + adaptive");
    // Layout equivalence: every layout keeps the identical live extent
    // under the shared seed — sizing is a pure cost decision.
    let live: Vec<u64> = (0..4).map(|r| t.get(r, "live_end")).collect();
    assert!(
        live.iter().all(|l| *l == live[0]),
        "live extents differ: {live:?}"
    );
    for r in 0..3 {
        assert_eq!(
            t.get::<u64>(r, "splits"),
            0,
            "{}: fixed layout split",
            t.rows[r][0]
        );
        assert_eq!(
            t.get::<u64>(r, "merges"),
            0,
            "{}: fixed layout merged",
            t.rows[r][0]
        );
    }
    let adaptive = t.find("adaptive");
    assert!(t.get::<u64>(adaptive, "splits") > 0, "adaptive never split");
    assert!(
        t.get::<u64>(adaptive, "merges") > 0,
        "adaptive never merged"
    );
    // The lifecycle keeps the shard count no worse than the undersized
    // fixed layout at the end of the run.
    let quarter: u64 = t.get(t.find("fixed/quarter"), "shards_end");
    assert!(t.get::<u64>(adaptive, "shards_end") <= quarter);
}

/// The item keys of a `SUMMARIZE … TOP k` answer.
fn top_keys(db: &Database, summary: &str, k: usize) -> Vec<Value> {
    let out = db
        .execute(&format!("SUMMARIZE {summary} FROM clicks TOP {k}"))
        .expect("summarize");
    out.result.rows.iter().map(|r| r[1].clone()).collect()
}

fn overlap(answer: &[Value], truth: &[Value]) -> usize {
    answer.iter().filter(|v| truth.contains(v)).count()
}

/// The λ of E14's headline row.
const DEFAULT_LAMBDA: f64 = 0.05;

/// **E14 — Time-fading sketches vs trending popularity.** Once the raw
/// tuples rot, a time-fading summary is the only resident answer to
/// "what is hot right now", and it stays right when popularity moves.
/// Item popularity is zipfian but the hot identities rotate; a TTL
/// container cooks a fading top-k (`hot`) and an unfading control
/// (`ever`) from the same departures, scored against the exact
/// exponentially decayed count of every departed item. (Under a pure
/// TTL every tuple departs exactly `ttl` ticks after insertion, so
/// decaying by insert tick ranks items identically.) λ sweep over the
/// trending stream plus a static (no rotation) control.
fn e14(scale: Scale) -> Table {
    let (items, rate, skew, rotation, ttl, horizon, k, cap, measure_every) = scale.pick(
        (
            500usize, 200usize, 1.1, 200u64, 40u64, 1000u64, 10usize, 64usize, 50u64,
        ),
        (50, 40, 1.2, 24, 8, 120, 8, 32, 6),
    );

    let mut table = Table::new(
        format!(
            "E14 fading top-k vs trending popularity: {items} items, {rate} rows/tick, zipf \
             {skew}, hot set rotates every {rotation} ticks, ttl {ttl}, horizon {horizon} (k = \
             {k}, sketch capacity {cap})"
        ),
        &[
            "workload",
            "lambda",
            "meas",
            "recall_fade",
            "min_recall_fade",
            "prec_fade",
            "recall_raw",
            "rotted_pct",
            "live_end",
            "distinct",
        ],
    );
    let runs = [
        ("trending", 0.01, rotation),
        ("trending", DEFAULT_LAMBDA, rotation),
        ("trending", 0.2, rotation),
        // The control: no churn. The unfading sketch is fine here —
        // churn, not decay, is what it cannot survive.
        ("static", DEFAULT_LAMBDA, 0),
    ];
    for (label, lambda, rotation) in runs {
        let mut db = Database::new(0xE14);
        db.execute_ddl(&format!(
            "CREATE CONTAINER clicks (item INT NOT NULL, session INT) \
             WITH FUNGUS ttl({ttl}) \
             WITH DISTILL (hot = fading_topk({cap}, {lambda}) ON item, \
                           ever = topk({cap}) ON item)",
        ))
        .unwrap();
        let mut stream =
            TrendingItems::new(items, rate, skew, rotation, &DeterministicRng::new(0xE14));
        let mut truth = DecayedTruth::new(lambda);
        // Departure replica: under ttl(T) a tuple inserted at t rots at
        // exactly t + T, so the oracle observes each item once its insert
        // tick is T ticks in the past — the stream the sketches absorb,
        // minus the sketch error.
        let mut pending: std::collections::VecDeque<(Value, u64)> = Default::default();
        let mut inserted = 0u64;
        let (mut recall_fade, mut prec_fade, mut recall_raw) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..horizon {
            let now = db.now();
            let rows = stream.rows_at(now);
            inserted += rows.len() as u64;
            pending.extend(rows.iter().map(|row| (row[0].clone(), now.get())));
            db.insert_batch("clicks", rows).unwrap();
            let now = db.tick().get();
            while pending.front().is_some_and(|&(_, t)| t + ttl <= now) {
                let (item, t) = pending.pop_front().expect("front checked");
                truth.observe_at(item, t);
            }
            if now.is_multiple_of(measure_every) && now >= ttl + measure_every {
                let truth_top: Vec<Value> =
                    truth.top_at(k, now).into_iter().map(|(v, _)| v).collect();
                if truth_top.len() < k {
                    continue; // warm-up: not enough departed mass to rank yet
                }
                let fade = top_keys(&db, "hot", k);
                let raw = top_keys(&db, "ever", k);
                recall_fade.push(overlap(&fade, &truth_top) as f64 / truth_top.len() as f64);
                prec_fade.push(overlap(&fade, &truth_top) as f64 / fade.len().max(1) as f64);
                recall_raw.push(overlap(&raw, &truth_top) as f64 / truth_top.len() as f64);
            }
        }
        let live = db.container("clicks").unwrap().read().live_count() as u64;
        let min_recall = recall_fade.iter().copied().fold(f64::INFINITY, f64::min);
        table.row(vec![
            label.to_string(),
            fnum(lambda),
            recall_fade.len().to_string(),
            fnum(mean(&recall_fade)),
            fnum(if min_recall.is_finite() {
                min_recall
            } else {
                0.0
            }),
            fnum(mean(&prec_fade)),
            fnum(mean(&recall_raw)),
            fnum(100.0 * (inserted - live) as f64 / inserted as f64),
            live.to_string(),
            truth.distinct().to_string(),
        ]);
    }
    table
}

/// At the default λ the fading sketch keeps top-k recall ≥ 0.9 against
/// the exact decayed truth while over half the raw tuples have rotted,
/// the unfading control does strictly worse under churn, and on the
/// static control both are fine: churn is the variable, decay the remedy.
#[test]
fn e14_fading_recall_survives_rot_and_churn() {
    let t = e14(Scale::Quick);
    assert_eq!(t.rows.len(), 4, "three λ rows + static control");
    let headline = (0..4)
        .find(|&r| t.rows[r][0] == "trending" && t.rows[r][1] == fnum(DEFAULT_LAMBDA))
        .expect("default-λ trending row");
    let recall_fade: f64 = t.get(headline, "recall_fade");
    let recall_raw: f64 = t.get(headline, "recall_raw");
    let rotted: f64 = t.get(headline, "rotted_pct");
    let meas: u64 = t.get(headline, "meas");
    assert!(meas >= 5, "too few measurement points: {meas}");
    assert!(
        recall_fade >= 0.9,
        "fading recall {recall_fade} under the 0.9 floor"
    );
    assert!(
        rotted >= 50.0,
        "only {rotted}% rotted — the sketch was not the only answer"
    );
    assert!(
        recall_fade > recall_raw,
        "unfading control kept up under churn ({recall_raw} vs {recall_fade})"
    );
    let control_raw: f64 = t.get(t.find("static"), "recall_raw");
    assert!(
        control_raw >= 0.9,
        "static-control unfading recall {control_raw}"
    );
}

/// **A1 — Access-path ablation.** What zone maps and secondary indexes
/// buy on a decayed store: the same logical queries answered by a full
/// scan (pseudo-column predicate), a zone-pruned scan (range on the
/// insertion-clustered column), a hash-index probe, and an ordered-index
/// range, before and after half the tuples rot. Rows returned, tuples
/// scanned, and whether an index answered.
fn a1(scale: Scale) -> Table {
    let n = scale.pick(200_000u64, 2_000);
    let mut table = Table::new(
        format!("A1 access paths: {n} tuples, same logical queries, four physical plans"),
        &["phase", "path", "rows", "scanned", "index?"],
    );
    let queries = [
        (
            "full-scan",
            "SELECT key FROM t WHERE $freshness > 0.5".to_string(),
        ),
        (
            "zone-pruned",
            format!("SELECT key FROM t WHERE seq >= {}", (n - n / 100) as f64),
        ),
        (
            "index-probe",
            "SELECT seq FROM t WHERE key = 501".to_string(),
        ),
        // Ranges over `key` are unclustered (every segment spans the whole
        // key domain), so zone maps cannot help; only the B-tree can.
        (
            "ord-range",
            "SELECT seq FROM t WHERE key BETWEEN 501 AND 511".to_string(),
        ),
    ];
    for phase in ["fresh", "half-decayed"] {
        let schema = Schema::from_pairs(&[
            ("key", DataType::Int),
            ("seq", DataType::Float),
            ("site", DataType::Str),
        ])
        .unwrap();
        let mut t = TableStore::new(schema, StorageConfig::default()).unwrap();
        t.create_index("key").unwrap();
        for i in 0..n {
            t.insert(
                vec![
                    Value::Int((i % 1000) as i64),
                    Value::Float(i as f64), // insertion-clustered → zones prune
                    Value::Str(format!("site-{}", i % 7)),
                ],
                Tick(i / 100),
            )
            .unwrap();
        }
        t.create_ord_index("key").unwrap();
        if phase == "half-decayed" {
            // Rot every second tuple — the worst case for segment density.
            for i in (0..n).step_by(2) {
                t.delete(TupleId(i), TombstoneReason::Rotted);
            }
            t.compact();
        }
        for (path, sql) in &queries {
            let out = execute_statement(sql, &mut t, Tick(1_000)).unwrap();
            table.row(vec![
                phase.to_string(),
                path.to_string(),
                out.len().to_string(),
                out.scanned.to_string(),
                out.used_index.to_string(),
            ]);
        }
    }
    table
}

#[test]
fn a1_each_access_path_narrows_the_scan() {
    let t = a1(Scale::Quick);
    assert_eq!(t.rows.len(), 8, "2 phases × 4 paths");
    for phase in [0, 4] {
        let (full, zone, index, ord) = (phase, phase + 1, phase + 2, phase + 3);
        let scanned = |r: usize| t.get::<usize>(r, "scanned");
        assert!(
            scanned(zone) < scanned(full),
            "zones prune:\n{}",
            t.render()
        );
        assert!(
            scanned(index) < scanned(full),
            "index narrows:\n{}",
            t.render()
        );
        assert!(
            scanned(ord) < scanned(full),
            "ord index narrows:\n{}",
            t.render()
        );
        assert!(t.get::<bool>(index, "index?"));
        assert!(t.get::<bool>(ord, "index?"));
        assert!(!t.get::<bool>(full, "index?"));
    }
}

/// Full-scale runs, each pinned to its checked-in `results/<name>.tsv`.
mod recorded {
    use super::*;

    fn assert_recorded(name: &str, table: Table) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("{name}.tsv"));
        let recorded = std::fs::read_to_string(&path).unwrap_or_default();
        let actual = table.render();
        if actual != recorded {
            let line = actual
                .lines()
                .zip(recorded.lines())
                .position(|(a, r)| a != r)
                .unwrap_or_else(|| actual.lines().count().min(recorded.lines().count()));
            panic!(
                "{name} differs from {} from line {}; the table this run produced:\n{actual}",
                path.display(),
                line + 1
            );
        }
    }

    macro_rules! recorded {
        ($($name:ident),* $(,)?) => {$(
            #[test]
            #[ignore = "full scale: run in release with --include-ignored"]
            fn $name() {
                assert_recorded(stringify!($name), super::$name(Scale::Full));
            }
        )*};
    }

    recorded!(e1, e2, e4, e5, e6, e7, e8, e9, e10, e13, e14, a1);
}
