//! The four workloads as fixed, seed-generated operation scripts.
//!
//! A script is a preload followed by *rounds*; every round ends with one
//! decay tick issued by the script itself, so the decay clock advances by
//! operation count and the extent a query scans cannot depend on how fast
//! the run went. The same `(workload, seed)` always yields the same
//! statement text in the same order; the program under test receives only
//! that text.

use rand::rngs::SmallRng;
use rand::Rng;

use fungus_clock::DeterministicRng;
use fungus_types::{Tick, Value};
use fungus_workload::{TrendingItems, Workload as _, Zipf};

/// The shape of one script operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A small `INSERT` (1–4 rows).
    Insert,
    /// A bulk `INSERT` that stands for the upstream feed on `query_scan`.
    Feed,
    /// Equality on the indexed key column.
    PointIndexed,
    /// Equality on an unindexed column: a full scan.
    PointScan,
    /// `$age <= h`, returning rows.
    RecentRange,
    /// `COUNT/AVG` over a recent window.
    Aggregate,
    /// `GROUP BY` over a recent window.
    GroupBy,
    /// `ORDER BY … LIMIT 10` over a recent window.
    TopN,
    /// A consuming range read.
    ConsumeRange,
    /// `$freshness < 0.2 CONSUME`: distil what is about to rot.
    Harvest,
    /// `SUMMARIZE … TOP 10`.
    Summarize,
    /// One decay tick.
    Tick,
}

/// How the end-to-end metrics pool operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `insert_p50_us` / `insert_p95_us`.
    Insert,
    /// `query_p50_us` / `query_p95_us`: every `SELECT`, consuming or not.
    Query,
    /// A statement that counts towards `ops_per_s` but is pooled with
    /// neither latency class (`Feed`, `Summarize`).
    Other,
    /// `tick_p50_ms` / `tick_p95_ms`; excluded from the statement count.
    Tick,
}

impl Kind {
    /// Every kind, in reporting order.
    pub const ALL: [Kind; 12] = [
        Kind::Insert,
        Kind::Feed,
        Kind::PointIndexed,
        Kind::PointScan,
        Kind::RecentRange,
        Kind::Aggregate,
        Kind::GroupBy,
        Kind::TopN,
        Kind::ConsumeRange,
        Kind::Harvest,
        Kind::Summarize,
        Kind::Tick,
    ];

    /// Position in [`Kind::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Insert => "insert",
            Kind::Feed => "feed",
            Kind::PointIndexed => "point_indexed",
            Kind::PointScan => "point_scan",
            Kind::RecentRange => "recent_range",
            Kind::Aggregate => "aggregate",
            Kind::GroupBy => "group_by",
            Kind::TopN => "top_n",
            Kind::ConsumeRange => "consume_range",
            Kind::Harvest => "harvest",
            Kind::Summarize => "summarize",
            Kind::Tick => "tick",
        }
    }

    /// The latency pool this kind reports into.
    pub fn class(self) -> Class {
        match self {
            Kind::Insert => Class::Insert,
            Kind::Feed | Kind::Summarize => Class::Other,
            Kind::Tick => Class::Tick,
            _ => Class::Query,
        }
    }

    /// Whether the statement carries `CONSUME`.
    pub fn consuming(self) -> bool {
        matches!(self, Kind::ConsumeRange | Kind::Harvest)
    }
}

/// One script operation: SQL text, or `.tick` for [`Kind::Tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Shape.
    pub kind: Kind,
    /// Statement text (`.tick` for a tick).
    pub text: String,
    /// Rows the statement inserts (0 unless it is an `INSERT`).
    pub rows: u32,
}

impl Op {
    fn tick() -> Op {
        Op {
            kind: Kind::Tick,
            text: ".tick".to_string(),
            rows: 0,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loopback TCP, two closed-loop connections, small extent.
    WireMixed,
    /// In process: single-row ingest under EGI over ≈ 100 k rows.
    IngestDecay,
    /// In process: read shapes over ≈ 50 k rows with rare inserts.
    QueryScan,
    /// In process: consuming reads and cooking pipelines.
    ConsumeCook,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WireMixed,
        Workload::IngestDecay,
        Workload::QueryScan,
        Workload::ConsumeCook,
    ];

    /// Name as `--workload` takes it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireMixed => "wire_mixed",
            Workload::IngestDecay => "ingest_decay",
            Workload::QueryScan => "query_scan",
            Workload::ConsumeCook => "consume_cook",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WireMixed => {
                "engine work per request is small, so codec, session, dispatch and socket hops \
                 dominate; the only workload with concurrency"
            }
            Workload::IngestDecay => {
                "the decay tick and the insert/republish path do the work and the server none, \
                 so a wire change predicts no move here"
            }
            Workload::QueryScan => {
                "parser, planner, pruning, scan and snapshot reads dominate; rare inserts price \
                 a republish of a large extent"
            }
            Workload::ConsumeCook => {
                "every read is a write: consume/apply, distiller absorb, summaries and a \
                 republish per read; scans short, no wire"
            }
        }
    }

    /// The container the script runs against.
    pub fn table(self) -> &'static str {
        match self {
            Workload::WireMixed | Workload::IngestDecay => "readings",
            Workload::QueryScan => "events",
            Workload::ConsumeCook => "clicks",
        }
    }

    /// DDL run once at set-up, in order.
    pub fn ddl(self) -> &'static [&'static str] {
        match self {
            Workload::WireMixed => &[
                "CREATE CONTAINER readings (sensor INT, reading FLOAT) \
                 WITH FUNGUS ttl(250) SHARDS 4096",
                "CREATE INDEX ON readings (sensor)",
            ],
            Workload::IngestDecay => &["CREATE CONTAINER readings (sensor INT, reading FLOAT) \
                 WITH FUNGUS egi() \
                 WITH SHARDING (rows_per_shard = 4096, adaptive = on, low_water = 0.4)"],
            Workload::QueryScan => &[
                "CREATE CONTAINER events (device INT, tag INT, site INT, reading FLOAT) \
                 WITH FUNGUS ttl(50) SHARDS 4096",
                "CREATE INDEX ON events (device)",
            ],
            Workload::ConsumeCook => &["CREATE CONTAINER clicks (item INT, session INT) \
                 WITH FUNGUS ttl(40) \
                 WITH DISTILL (hot = fading_topk(64, 0.05) ON item, \
                 fresh = tbs(64, 0.05) ON item, exit_health = moments())"],
        }
    }

    /// Whether the script goes through the server.
    pub fn over_wire(self) -> bool {
        self == Workload::WireMixed
    }

    /// Closed-loop callers (connections on the wire, 1 in process).
    pub fn lanes(self) -> usize {
        if self.over_wire() {
            2
        } else {
            1
        }
    }

    /// Ticks of history the preload replays before the first round,
    /// scaled by `scale` (1.0, or 0.01 quick); never fewer than 2.
    pub fn preload_ticks(self, scale: f64) -> u64 {
        let full = match self {
            Workload::WireMixed => 1_000,
            Workload::IngestDecay => 200,
            Workload::QueryScan => 100,
            Workload::ConsumeCook => 700,
        };
        ((full as f64 * scale).round() as u64).max(2)
    }

    /// Rounds run and discarded before the measured phase.
    pub fn warmup_rounds(self) -> u64 {
        match self {
            Workload::WireMixed => 300,
            Workload::IngestDecay => 20,
            Workload::QueryScan => 10,
            Workload::ConsumeCook => 100,
        }
    }

    /// Measured rounds (per lane) per second of `--seconds`, calibrated on
    /// the 2-core build host so the measured phase lasts about that long.
    /// The count, not the clock, ends the phase: both sides of a later
    /// comparison run the identical script.
    pub fn rounds_per_second(self) -> f64 {
        match self {
            Workload::WireMixed => 180.0,
            Workload::IngestDecay => 16.5,
            Workload::QueryScan => 15.0,
            Workload::ConsumeCook => 44.0,
        }
    }

    /// Measured rounds for a run of `seconds`, scaled by `scale`
    /// (1.0 untraced, 0.25 traced, 0.01 quick); never fewer than 2.
    pub fn measured_rounds(self, seconds: u64, scale: f64) -> u64 {
        ((self.rounds_per_second() * seconds as f64 * scale).round() as u64).max(2)
    }
}

const SENSORS: usize = 512;
const DEVICES: usize = 4_096;
const TAGS: i64 = 20_000;
const SITES: i64 = 16;
const ITEMS: usize = 1_000;
const ITEM_SKEW: f64 = 1.1;
const CLICKS_PER_TICK: usize = 100;

/// One caller's deterministic operation stream.
pub struct LaneGen {
    workload: Workload,
    lane: usize,
    rng: SmallRng,
    keys: Zipf,
    trending: Option<TrendingItems>,
    /// Ticks this lane has issued (preload included); the virtual time the
    /// trending stream is sampled at.
    ticks: u64,
}

impl LaneGen {
    /// The stream of `lane` for `(workload, seed)`.
    pub fn new(workload: Workload, seed: u64, lane: usize) -> LaneGen {
        let root = DeterministicRng::new(seed);
        let rng = root.stream(&format!("bench/{}/lane{lane}", workload.name()));
        let (keys, trending) = match workload {
            Workload::WireMixed | Workload::IngestDecay => (Zipf::new(SENSORS, 1.0), None),
            Workload::QueryScan => (Zipf::new(DEVICES, 1.0), None),
            Workload::ConsumeCook => (
                Zipf::new(ITEMS, ITEM_SKEW),
                Some(TrendingItems::new(
                    ITEMS,
                    CLICKS_PER_TICK,
                    ITEM_SKEW,
                    50,
                    &root,
                )),
            ),
        };
        LaneGen {
            workload,
            lane,
            rng,
            keys,
            trending,
            ticks: 0,
        }
    }

    /// Replaces `out` with one tick of preload: history at the measured
    /// cadence, but with the tick's inserts folded into one statement so
    /// set-up stays short. Only lane 0 preloads.
    pub fn preload_tick(&mut self, out: &mut Vec<Op>) {
        out.clear();
        match self.workload {
            Workload::WireMixed => {
                out.push(self.insert_readings(Kind::Feed, 20));
                out.push(self.harvest());
            }
            Workload::IngestDecay => out.push(self.insert_readings(Kind::Feed, 600)),
            Workload::QueryScan => out.push(self.insert_events(Kind::Feed, 1_000)),
            Workload::ConsumeCook => {
                let rows = self.click_rows();
                out.push(insert_clicks(Kind::Feed, &rows));
                out.push(self.consume_clicks());
                out.push(self.consume_clicks());
                out.push(self.harvest());
            }
        }
        out.push(Op::tick());
        self.ticks += 1;
    }

    /// Replaces `out` with this lane's next round.
    pub fn round(&mut self, out: &mut Vec<Op>) {
        out.clear();
        match self.workload {
            Workload::WireMixed => self.round_wire_mixed(out),
            Workload::IngestDecay => self.round_ingest_decay(out),
            Workload::QueryScan => self.round_query_scan(out),
            Workload::ConsumeCook => self.round_consume_cook(out),
        }
        if out.last().is_some_and(|op| op.kind == Kind::Tick) {
            self.ticks += 1;
        }
    }

    // -- wire_mixed: 8 operations, 50 % inserts; lane 0 then ticks ---------

    fn round_wire_mixed(&mut self, out: &mut Vec<Op>) {
        for _ in 0..8 {
            let op = if self.rng.gen::<f64>() < 0.5 {
                let rows = self.rng.gen_range(1..=4);
                self.insert_readings(Kind::Insert, rows)
            } else {
                // The read weights of `fungus_workload::QueryMix`.
                let roll: f64 = self.rng.gen();
                if roll < 0.4 {
                    let key = self.keys.sample(&mut self.rng);
                    self.select_rows(Kind::PointIndexed, &format!("sensor = {key}"))
                } else if roll < 0.7 {
                    let h = self.rng.gen_range(1..=6);
                    self.select_rows(Kind::RecentRange, &format!("$age <= {h}"))
                } else if roll < 0.9 {
                    self.aggregate(20)
                } else {
                    self.harvest()
                }
            };
            out.push(op);
        }
        if self.lane == 0 {
            out.push(Op::tick());
        }
    }

    // -- ingest_decay: 200 inserts, an aggregate after every 50th, a tick --

    fn round_ingest_decay(&mut self, out: &mut Vec<Op>) {
        for i in 1..=200 {
            let rows = self.rng.gen_range(1..=2);
            out.push(self.insert_readings(Kind::Insert, rows));
            if i % 50 == 0 {
                out.push(self.aggregate(20));
            }
        }
        out.push(Op::tick());
    }

    // -- query_scan: the feed, 90 reads around 1 insert, a tick -------------

    fn round_query_scan(&mut self, out: &mut Vec<Op>) {
        // The same 90 shapes every round, in a seeded order, so every
        // round costs the same and only the order varies with the seed.
        const SHAPES: [(Kind, usize); 6] = [
            (Kind::PointIndexed, 52),
            (Kind::PointScan, 2),
            (Kind::RecentRange, 12),
            (Kind::Aggregate, 12),
            (Kind::GroupBy, 8),
            (Kind::TopN, 4),
        ];
        let mut shapes: Vec<Kind> = SHAPES
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        for i in (1..shapes.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            shapes.swap(i, j);
        }
        // ttl(50) rots 1 000 rows a tick; the feed plus the single row
        // put 1 000 back, which holds the extent steady.
        out.push(self.insert_events(Kind::Feed, 999));
        for (i, kind) in shapes.into_iter().enumerate() {
            let op = match kind {
                Kind::PointIndexed => {
                    let key = self.keys.sample(&mut self.rng);
                    self.select_rows(kind, &format!("device = {key}"))
                }
                Kind::PointScan => {
                    let tag = self.rng.gen_range(0..TAGS);
                    self.select_rows(kind, &format!("tag = {tag}"))
                }
                Kind::RecentRange => {
                    let h = self.rng.gen_range(0..=1);
                    self.select_rows(kind, &format!("$age <= {h}"))
                }
                Kind::Aggregate => self.aggregate(5),
                Kind::GroupBy => {
                    let h = self.rng.gen_range(1..=3);
                    Op {
                        kind,
                        text: format!(
                            "SELECT site, COUNT(*), AVG(reading) FROM events \
                             WHERE $age <= {h} GROUP BY site"
                        ),
                        rows: 0,
                    }
                }
                _ => {
                    let h = self.rng.gen_range(1..=3);
                    Op {
                        kind: Kind::TopN,
                        text: format!(
                            "SELECT $id, $freshness, reading FROM events \
                             WHERE $age <= {h} ORDER BY reading DESC LIMIT 10"
                        ),
                        rows: 0,
                    }
                }
            };
            out.push(op);
            if i == 44 {
                out.push(self.insert_events(Kind::Insert, 1));
            }
        }
        out.push(Op::tick());
    }

    // -- consume_cook: 10 × (10 clicks + 1 consume), harvests, summaries ---

    fn round_consume_cook(&mut self, out: &mut Vec<Op>) {
        let rows = self.click_rows();
        for (i, chunk) in rows.chunks(10).enumerate() {
            for row in chunk {
                out.push(insert_clicks(Kind::Insert, std::slice::from_ref(row)));
            }
            out.push(self.consume_clicks());
            if i % 5 == 4 {
                out.push(self.harvest());
                out.push(Op {
                    kind: Kind::Summarize,
                    text: "SUMMARIZE hot FROM clicks TOP 10".to_string(),
                    rows: 0,
                });
            }
        }
        out.push(Op::tick());
    }

    // -- statement builders -------------------------------------------------

    fn insert_readings(&mut self, kind: Kind, rows: u32) -> Op {
        let mut text = String::from("INSERT INTO readings VALUES ");
        for i in 0..rows {
            let key = self.rng.gen_range(0..SENSORS);
            let reading = 20.0 + 10.0 * self.rng.gen::<f64>();
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(&format!("({key}, {reading:.3})"));
        }
        Op { kind, text, rows }
    }

    fn insert_events(&mut self, kind: Kind, rows: u32) -> Op {
        let mut text = String::from("INSERT INTO events VALUES ");
        for i in 0..rows {
            let device = self.rng.gen_range(0..DEVICES);
            let tag = self.rng.gen_range(0..TAGS);
            let site = self.rng.gen_range(0..SITES);
            let reading = 20.0 + 10.0 * self.rng.gen::<f64>();
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(&format!("({device}, {tag}, {site}, {reading:.3})"));
        }
        Op { kind, text, rows }
    }

    /// This tick's clicks from the rotating-Zipf stream.
    fn click_rows(&mut self) -> Vec<Vec<Value>> {
        let now = Tick(self.ticks);
        self.trending
            .as_mut()
            .expect("consume_cook owns a trending stream")
            .rows_at(now)
    }

    /// Consume the recent clicks of an item drawn from the current hot set.
    fn consume_clicks(&mut self) -> Op {
        let rank = self.keys.sample(&mut self.rng);
        let item = self
            .trending
            .as_ref()
            .expect("consume_cook owns a trending stream")
            .item_at(rank, Tick(self.ticks));
        let h = self.rng.gen_range(1..=10);
        Op {
            kind: Kind::ConsumeRange,
            text: format!(
                "SELECT $id, $freshness, item FROM clicks \
                 WHERE item = {item} AND $age <= {h} CONSUME"
            ),
            rows: 0,
        }
    }

    fn select_rows(&self, kind: Kind, predicate: &str) -> Op {
        Op {
            kind,
            text: format!(
                "SELECT $id, $freshness, reading FROM {} WHERE {predicate}",
                self.workload.table()
            ),
            rows: 0,
        }
    }

    fn aggregate(&mut self, window: u64) -> Op {
        let h = self.rng.gen_range(1..=window);
        Op {
            kind: Kind::Aggregate,
            text: format!(
                "SELECT COUNT(*), AVG(reading) FROM {} WHERE $age <= {h}",
                self.workload.table()
            ),
            rows: 0,
        }
    }

    /// Distil half of what is about to rot (even keys); the odd half is
    /// left for the fungus, so both exits stay in use.
    fn harvest(&self) -> Op {
        let (column, key) = match self.workload {
            Workload::ConsumeCook => ("item", "item"),
            _ => ("reading", "sensor"),
        };
        Op {
            kind: Kind::Harvest,
            text: format!(
                "SELECT $id, $freshness, {column} FROM {} \
                 WHERE $freshness < 0.2 AND {key} % 2 = 0 CONSUME",
                self.workload.table()
            ),
            rows: 0,
        }
    }
}

fn insert_clicks(kind: Kind, rows: &[Vec<Value>]) -> Op {
    let mut text = String::from("INSERT INTO clicks VALUES ");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            text.push_str(", ");
        }
        let item = row[0].as_i64().unwrap_or(0);
        let session = row[1].as_i64().unwrap_or(0);
        text.push_str(&format!("({item}, {session})"));
    }
    Op {
        kind,
        text,
        rows: rows.len() as u32,
    }
}

/// The first `rounds` rounds of every lane after a `preload_scale`
/// preload, as one text: what the determinism test compares.
pub fn script_text(workload: Workload, seed: u64, preload_scale: f64, rounds: u64) -> String {
    let mut text = String::new();
    let mut ops = Vec::new();
    for lane in 0..workload.lanes() {
        let mut gen = LaneGen::new(workload, seed, lane);
        let preload = if lane == 0 {
            workload.preload_ticks(preload_scale)
        } else {
            0
        };
        for i in 0..preload + rounds {
            if i < preload {
                gen.preload_tick(&mut ops);
            } else {
                gen.round(&mut ops);
            }
            for op in &ops {
                text.push_str(&op.text);
                text.push('\n');
            }
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_query::parse_statement;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = script_text(w, 7, 0.01, 3);
            let b = script_text(w, 7, 0.01, 3);
            let c = script_text(w, 8, 0.01, 3);
            assert_eq!(a, b, "{} must replay byte for byte", w.name());
            assert_ne!(a, c, "{} must vary with the seed", w.name());
        }
    }

    #[test]
    fn every_statement_parses_and_every_round_ticks_once() {
        for w in Workload::ALL {
            let mut ops = Vec::new();
            for lane in 0..w.lanes() {
                let mut gen = LaneGen::new(w, 3, lane);
                for _ in 0..3 {
                    gen.round(&mut ops);
                    let ticks = ops.iter().filter(|o| o.kind == Kind::Tick).count();
                    assert_eq!(ticks, usize::from(lane == 0), "{} lane {lane}", w.name());
                    for op in ops.iter().filter(|o| o.kind != Kind::Tick) {
                        parse_statement(&op.text)
                            .unwrap_or_else(|e| panic!("`{}` failed: {e}", op.text));
                        assert_eq!(op.kind.consuming(), op.text.ends_with("CONSUME"));
                    }
                }
            }
            for ddl in w.ddl() {
                parse_statement(ddl).unwrap_or_else(|e| panic!("`{ddl}` failed: {e}"));
            }
        }
    }

    #[test]
    fn round_shapes_match_the_readme() {
        let count = |w: Workload, kind: Kind| {
            let mut ops = Vec::new();
            LaneGen::new(w, 1, 0).round(&mut ops);
            ops.iter().filter(|o| o.kind == kind).count()
        };
        assert_eq!(count(Workload::IngestDecay, Kind::Insert), 200);
        assert_eq!(count(Workload::IngestDecay, Kind::Aggregate), 4);
        assert_eq!(count(Workload::QueryScan, Kind::Insert), 1);
        assert_eq!(count(Workload::QueryScan, Kind::Feed), 1);
        assert_eq!(count(Workload::QueryScan, Kind::PointScan), 2);
        assert_eq!(count(Workload::ConsumeCook, Kind::Insert), 100);
        assert_eq!(count(Workload::ConsumeCook, Kind::ConsumeRange), 10);
        assert_eq!(count(Workload::ConsumeCook, Kind::Harvest), 2);
        assert_eq!(count(Workload::ConsumeCook, Kind::Summarize), 2);
        let mut ops = Vec::new();
        LaneGen::new(Workload::QueryScan, 1, 0).round(&mut ops);
        let selects = ops
            .iter()
            .filter(|o| o.kind.class() == Class::Query)
            .count();
        assert_eq!(selects, 90);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(Workload::IngestDecay.measured_rounds(20, 0.0001), 2);
    }
}
