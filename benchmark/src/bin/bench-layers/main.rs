//! The per-layer run: `--trace 1`.
//!
//! Reruns one workload at a quarter of its length, five times over:
//!
//! 1. untraced, end to end — the reference for the tracing overhead;
//! 2. traced, end to end — spans recorded by this file around each call;
//! 3. the *layer replay*: the same script prefix, serialised onto one
//!    thread, fed in turn to a thin wire client, to `Session::handle` and
//!    to `SharedDatabase::execute` (with `parse_statement` on the side),
//!    each against an identically prepared database.
//!
//! Operation `i` is the same statement against the same state in every
//! replay pass, so the passes nest: wire ⊃ session ⊃ execute ⊃ parse, and
//! a layer's self time is its span minus its child's. Nothing outside
//! `benchmark/` is instrumented; the engine's fungi and the shard
//! eviction fan-out sit inside `core.tick` and cannot be split from out
//! here.

mod levels;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fungus_benchmark::args::{Args, USAGE};
use fungus_benchmark::check;
use fungus_benchmark::report::{print_table, result_line, Metric};
use fungus_benchmark::run::{check_phase, run_each_workload, set_up, Bench, InProcess, Phase};
use fungus_benchmark::script::{Class, Kind, Workload};
use fungus_benchmark::span::{root_total_ns, self_times, write_spans_json, SelfTime, Span};
use fungus_benchmark::stats::{median_f64, percentile, supported};
use fungus_benchmark::{host, procfs};
use fungus_core::{Database, SharedDatabase};
use fungus_server::{serve, Request, ServerConfig};

use levels::{ExecLevel, SessionLevel, ThinClient, TracedExec};

/// The traced run's share of the untraced script length.
const TRACE_SCALE: f64 = 0.25;

/// The shapes `core.exec_p50_us.*` reports, in order.
const EXEC_SHAPES: [Kind; 10] = [
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
];

/// Every per-layer metric, `(name, unit)`, in the order `run_one` emits
/// them and `BENCHMARK.json` lists them. A `core.exec_p50_us.*` of 0
/// means the workload's script has no statement of that shape.
const PER_LAYER: [(&str, &str); 59] = [
    ("server.ping_rtt_p50_us", "us"),
    ("server.wire_overhead_p50_us", "us"),
    ("server.session.overhead_us", "us"),
    ("server.protocol.request_codec_us", "us"),
    ("server.protocol.response_codec_us", "us"),
    ("server.frame.codec_ns_per_req", "ns"),
    ("server.requests", "count"),
    ("server.responses", "count"),
    ("server.errors", "count"),
    ("server.req_p99_us", "us"),
    ("server.req_p999_us", "us"),
    ("query.parse_us.insert", "us"),
    ("query.parse_us.select", "us"),
    ("query.rows_scanned_per_row_returned", "ratio"),
    ("query.shards_pruned_per_query", "count"),
    ("query.segments_pruned_per_query", "count"),
    ("query.index_used_frac", "ratio"),
    ("core.exec_p50_us.insert", "us"),
    ("core.exec_p50_us.feed", "us"),
    ("core.exec_p50_us.point_indexed", "us"),
    ("core.exec_p50_us.point_scan", "us"),
    ("core.exec_p50_us.recent_range", "us"),
    ("core.exec_p50_us.aggregate", "us"),
    ("core.exec_p50_us.group_by", "us"),
    ("core.exec_p50_us.top_n", "us"),
    ("core.exec_p50_us.consume_range", "us"),
    ("core.exec_p50_us.harvest", "us"),
    ("core.tick_p99_ms", "ms"),
    ("core.tick_us_per_klive", "us"),
    ("core.rotted_per_tick", "count"),
    ("core.consumed_rows", "count"),
    ("core.distilled_values", "count"),
    ("core.mvcc.published", "count"),
    ("core.mvcc.retired", "count"),
    ("core.mvcc.reclaimed", "count"),
    ("core.mvcc.snapshot_reads", "count"),
    ("core.mvcc.consume_retries", "count"),
    ("core.mvcc.consume_fallbacks", "count"),
    ("core.live_rows_start", "count"),
    ("core.live_rows_end", "count"),
    ("core.rss_bytes_per_live_row", "bytes"),
    ("shard.resident", "count"),
    ("shard.dropped", "count"),
    ("shard.pruned", "count"),
    ("shard.split", "count"),
    ("shard.merged", "count"),
    ("summary.sketches", "count"),
    ("summary.hits", "count"),
    ("summary.absorbed", "count"),
    ("summary.summarize_p50_us", "us"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.restore_ms", "ms"),
    ("storage.checkpoint_bytes_per_live_row", "bytes"),
    ("clock.empty_tick_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.trace_coverage_frac", "ratio"),
    ("bench.slice_spread_frac", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.cores", "count"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if args.trace => args,
        Ok(_) => {
            eprintln!("--trace 0 is the bench-e2e binary; run.sh picks it");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => match run_one(workload, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                ExitCode::FAILURE
            }
        },
        None => run_each_workload(&args),
    }
}

/// Everything the passes need to agree on.
struct Plan {
    workload: Workload,
    seed: u64,
    scale: f64,
    warmup: u64,
    rounds: u64,
}

impl Plan {
    /// A fresh database brought to the start of the measured script by a
    /// serial in-process warm-up: the common starting state of the three
    /// replay passes.
    fn replay_start(&self) -> Result<Bench, String> {
        let mut bench = set_up(self.workload, self.seed, self.scale)?;
        let mut backend = InProcess(bench.db.clone());
        check_phase(&bench.run_serial(self.warmup, &mut backend))?;
        Ok(bench)
    }

    /// A fresh database warmed up the way the end-to-end run does it.
    fn end_to_end_start(&self) -> Result<Bench, String> {
        let mut bench = set_up(self.workload, self.seed, self.scale)?;
        check_phase(&bench.run_phase(self.warmup))?;
        Ok(bench)
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let scale = args.scale();
    let plan = Plan {
        workload,
        seed: args.seed,
        scale,
        warmup: ((workload.warmup_rounds() as f64 * scale).round() as u64).max(1),
        rounds: workload.measured_rounds(args.seconds, scale * TRACE_SCALE),
    };
    let mut out: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &str, value: f64| {
        let (listed, unit) = PER_LAYER[out.len()];
        assert_eq!(name, listed, "metrics are emitted in PER_LAYER order");
        out.push(Metric::new(name, value, unit));
    };

    let calib_ms = host::calibrate_ms();
    let empty_tick_us = empty_tick_us(args.seed);

    // -- pass 1: untraced, end to end ---------------------------------------
    let rss_before_kb = procfs::rss_kb();
    let mut bench = plan.end_to_end_start()?;
    let untraced = bench.run_phase(plan.rounds);
    check_phase(&untraced)?;
    let rss_bytes_per_row = procfs::rss_kb().saturating_sub(rss_before_kb) as f64 * 1024.0
        / untraced.live_end.max(1) as f64;
    bench.finish()?;

    // -- pass 2: traced, end to end -----------------------------------------
    let mut bench = plan.end_to_end_start()?;
    let (traced, end_to_end_spans) = traced_end_to_end(&mut bench, plan.rounds)?;
    check_phase(&traced)?;
    bench.finish()?;
    let trace_overhead = 1.0 - traced.ops_per_s() / untraced.ops_per_s();

    // -- pass 3a: the script through a thin wire client ---------------------
    let mut bench = plan.replay_start()?;
    let server = serve(bench.db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut pinger = ThinClient::connect(server.addr())?;
    for _ in 0..2_000 {
        pinger.exchange(&Request::Ping)?;
    }
    let mut wire = ThinClient::connect(server.addr())?;
    let wire_phase = bench.run_serial(plan.rounds, &mut wire);
    check_phase(&wire_phase)?;
    let (wire, pinger) = (wire.into_measurements(), pinger.into_measurements());
    let server_metrics = server.shutdown().map_err(|e| e.to_string())?.metrics;
    check::check_server_counters(
        server_metrics.requests,
        server_metrics.responses,
        server_metrics.errors,
    )?;
    bench.finish()?;

    // -- pass 3b: the script through Session::handle -------------------------
    let mut bench = plan.replay_start()?;
    let mut session = SessionLevel::new(bench.db.clone());
    check_phase(&bench.run_serial(plan.rounds, &mut session))?;
    bench.finish()?;

    // -- pass 3c: the script through SharedDatabase::execute -----------------
    let mut bench = plan.replay_start()?;
    let table = workload.table();
    let rotted = |db: &SharedDatabase| -> Result<u64, String> {
        Ok(db
            .health(table)
            .map_err(|e| e.to_string())?
            .stats
            .evicted_rotted)
    };
    let (mvcc0, rotted0) = (bench.db.mvcc_telemetry(), rotted(&bench.db)?);
    let mut exec = ExecLevel::new(bench.db.clone());
    let exec_phase = bench.run_serial(plan.rounds, &mut exec);
    check_phase(&exec_phase)?;
    let consumed_rows: u64 = exec_phase.lanes.iter().map(|l| l.consumed_rows).sum();
    let db = bench.finish()?;
    let (mvcc1, rotted1) = (db.mvcc_telemetry(), rotted(&db)?);
    let (shards, sketches) = (db.shard_telemetry(), db.sketch_telemetry());
    let storage = storage_round_trip(&db, workload, args.seed)?;
    drop(db);

    let ops = exec.exec_ns.len();
    if wire.op_ns.len() != ops || session.handle_ns.len() != ops {
        return Err(format!(
            "the replay passes diverged: {} wire, {} session, {ops} execute operations",
            wire.op_ns.len(),
            session.handle_ns.len()
        ));
    }

    // -- server ---------------------------------------------------------------
    let is_statement = |i: usize| exec.kinds[i] != Kind::Tick;
    let paired_median_us = |outer: &[u64], inner: &[u64]| {
        let diffs: Vec<f64> = (0..ops)
            .filter(|&i| is_statement(i))
            .map(|i| (outer[i] as f64 - inner[i] as f64) / 1e3)
            .collect();
        median_f64(&diffs).max(0.0)
    };
    let mut ping_ns = pinger.op_ns.clone();
    ping_ns.sort_unstable();
    let mut wire_sorted = wire.op_ns.clone();
    wire_sorted.sort_unstable();
    put(
        "server.ping_rtt_p50_us",
        percentile(&ping_ns, 50.0) as f64 / 1e3,
    );
    put(
        "server.wire_overhead_p50_us",
        paired_median_us(&wire.op_ns, &session.handle_ns),
    );
    put(
        "server.session.overhead_us",
        paired_median_us(&session.handle_ns, &exec.exec_ns),
    );
    let per_op = |total_ns: u64| total_ns as f64 / ops as f64;
    put(
        "server.protocol.request_codec_us",
        per_op(session.request_codec_ns) / 1e3,
    );
    put(
        "server.protocol.response_codec_us",
        per_op(session.response_codec_ns) / 1e3,
    );
    put(
        "server.frame.codec_ns_per_req",
        per_op(session.frame_codec_ns),
    );
    put("server.requests", server_metrics.requests as f64);
    put("server.responses", server_metrics.responses as f64);
    put("server.errors", server_metrics.errors as f64);
    put(
        "server.req_p99_us",
        percentile(&wire_sorted, 99.0) as f64 / 1e3,
    );
    put(
        "server.req_p999_us",
        percentile(&wire_sorted, 99.9) as f64 / 1e3,
    );

    // -- query ----------------------------------------------------------------
    let mean_parse_us = |class: Class| {
        let ns: Vec<u64> = (0..ops)
            .filter(|&i| exec.kinds[i].class() == class)
            .map(|i| exec.parse_ns[i])
            .collect();
        ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 / 1e3
    };
    let per_select = |n: u64| n as f64 / exec.selects.max(1) as f64;
    put("query.parse_us.insert", mean_parse_us(Class::Insert));
    put("query.parse_us.select", mean_parse_us(Class::Query));
    put(
        "query.rows_scanned_per_row_returned",
        exec.scanned as f64 / exec.returned.max(1) as f64,
    );
    put(
        "query.shards_pruned_per_query",
        per_select(exec.pruned_shards),
    );
    put(
        "query.segments_pruned_per_query",
        per_select(exec.pruned_segments),
    );
    put("query.index_used_frac", per_select(exec.index_used));

    // -- core -----------------------------------------------------------------
    let sorted_ns = |kind: Kind| {
        let mut ns: Vec<u64> = (0..ops)
            .filter(|&i| exec.kinds[i] == kind)
            .map(|i| exec.exec_ns[i])
            .collect();
        ns.sort_unstable();
        ns
    };
    for kind in EXEC_SHAPES {
        let p50 = percentile(&sorted_ns(kind), 50.0) as f64 / 1e3;
        put(&format!("core.exec_p50_us.{}", kind.name()), p50);
    }
    let tick_ns = sorted_ns(Kind::Tick);
    let ticks = tick_ns.len().max(1) as f64;
    let mean_live_k = (exec_phase.live_start + exec_phase.live_end) as f64 / 2.0 / 1e3;
    put("core.tick_p99_ms", percentile(&tick_ns, 99.0) as f64 / 1e6);
    put(
        "core.tick_us_per_klive",
        tick_ns.iter().sum::<u64>() as f64 / ticks / 1e3 / mean_live_k.max(1e-9),
    );
    put("core.rotted_per_tick", (rotted1 - rotted0) as f64 / ticks);
    put("core.consumed_rows", consumed_rows as f64);
    put("core.distilled_values", exec.distilled as f64);
    put(
        "core.mvcc.published",
        (mvcc1.published - mvcc0.published) as f64,
    );
    put("core.mvcc.retired", (mvcc1.retired - mvcc0.retired) as f64);
    put(
        "core.mvcc.reclaimed",
        (mvcc1.reclaimed - mvcc0.reclaimed) as f64,
    );
    put(
        "core.mvcc.snapshot_reads",
        (mvcc1.snapshot_reads - mvcc0.snapshot_reads) as f64,
    );
    put(
        "core.mvcc.consume_retries",
        (mvcc1.consume_retries - mvcc0.consume_retries) as f64,
    );
    put(
        "core.mvcc.consume_fallbacks",
        (mvcc1.consume_fallbacks - mvcc0.consume_fallbacks) as f64,
    );
    put("core.live_rows_start", exec_phase.live_start as f64);
    put("core.live_rows_end", exec_phase.live_end as f64);
    put("core.rss_bytes_per_live_row", rss_bytes_per_row);

    // -- shard, summary, storage, clock ----------------------------------------
    put("shard.resident", shards.resident as f64);
    put("shard.dropped", shards.dropped as f64);
    put("shard.pruned", shards.pruned as f64);
    put("shard.split", shards.split as f64);
    put("shard.merged", shards.merged as f64);
    put("summary.sketches", sketches.sketches as f64);
    put("summary.hits", sketches.hits as f64);
    put("summary.absorbed", sketches.absorbed as f64);
    put(
        "summary.summarize_p50_us",
        percentile(&sorted_ns(Kind::Summarize), 50.0) as f64 / 1e3,
    );
    put("storage.checkpoint_ms", storage.checkpoint_ms);
    put("storage.restore_ms", storage.restore_ms);
    put(
        "storage.checkpoint_bytes_per_live_row",
        storage.bytes_per_row,
    );
    put("clock.empty_tick_us", empty_tick_us);

    // -- the layer chain and the benchmark's own health -------------------------
    let (chain, clipped) = layer_chain(&wire, &session, &exec);
    let table_ns = self_times(&chain);
    let op_total = root_total_ns(&chain).max(1);
    // What the layers' self times account for, out of the whole traced
    // replay: the rest is the benchmark itself (generating the round,
    // checking answers, reading its clock).
    let layers_self: u64 = table_ns
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, t)| t.self_ns)
        .sum();
    let coverage = layers_self as f64 / wire_phase.wall_ns.max(1) as f64;
    put("bench.trace_overhead_frac", trace_overhead);
    put("bench.trace_coverage_frac", coverage);
    put("bench.slice_spread_frac", slice_spread(&untraced));
    put("host.calib_ms", calib_ms);
    put("host.cores", host::cores() as f64);

    assert_eq!(out.len(), PER_LAYER.len(), "every listed metric is emitted");
    let trace_path = out_dir().join(format!("trace-{}.json", workload.name()));
    write_trace(
        &trace_path,
        &plan,
        &end_to_end_spans,
        &chain,
        &table_ns,
        coverage,
    )
    .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    print_table(
        &format!(
            "{} seed {} (per layer, {} rounds, kernel {})",
            workload.name(),
            args.seed,
            plan.rounds,
            host::kernel()
        ),
        &out,
    );
    println!(
        "  counts come from the single-threaded replay and repeat exactly for a seed; \
         timings{} repeat only statistically",
        if workload.over_wire() {
            ", bench.trace_overhead_frac and bench.slice_spread_frac (two concurrent connections)"
        } else {
            ""
        }
    );
    if !supported(wire_sorted.len(), 99.9) {
        println!(
            "  server.req_p999_us has fewer than ten of {} samples beyond it: read it as a maximum",
            wire_sorted.len()
        );
    }
    println!("  layer self time over {ops} replayed operations (spans clipped to their parent: {clipped:?}):");
    for (
        name,
        SelfTime {
            count,
            total_ns,
            self_ns,
        },
    ) in &table_ns
    {
        println!(
            "    {name:<16} x{count:<7} total {:>10.3} ms  self {:>10.3} ms  ({:>5.1} % of op time)",
            *total_ns as f64 / 1e6,
            *self_ns as f64 / 1e6,
            100.0 * *self_ns as f64 / op_total as f64,
        );
    }
    println!("  fungi and shard eviction run inside core.tick and cannot be split from outside the engine");
    println!("  spans written to {}", trace_path.display());
    println!(
        "{}",
        result_line(true, untraced.attempted(), untraced.failed(), &out)
    );
    Ok(())
}

/// Mean cost of a tick on a database with no containers: the floor under
/// `tick_p50_ms`.
fn empty_tick_us(seed: u64) -> f64 {
    let db = SharedDatabase::new(Database::new(seed));
    for _ in 0..1_000 {
        db.tick();
    }
    const TICKS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..TICKS {
        db.tick();
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(TICKS)
}

/// The measured script under spans, through the workload's own path:
/// concurrent thin clients on the wire, `execute` otherwise. Returns the
/// spans per lane.
fn traced_end_to_end(bench: &mut Bench, rounds: u64) -> Result<(Phase, Vec<Vec<Span>>), String> {
    if let Some(addr) = bench.server_addr() {
        let mut clients = (0..bench.workload.lanes())
            .map(|_| ThinClient::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        let phase = bench.run_phase_with(rounds, &mut clients);
        let spans = clients.into_iter().map(|c| c.log.into_spans()).collect();
        Ok((phase, spans))
    } else {
        let mut backends = [TracedExec::new(bench.db.clone())];
        let phase = bench.run_phase_with(rounds, &mut backends);
        let [backend] = backends;
        Ok((phase, vec![backend.log.into_spans()]))
    }
}

/// `max/min − 1` of statements per second over four equal slices (by
/// rounds) of the pacing lane: how unsteady the measured phase was.
fn slice_spread(phase: &Phase) -> f64 {
    let marks = &phase.lanes[0].round_marks;
    if marks.len() < 4 {
        return 0.0;
    }
    let mut rates = Vec::with_capacity(4);
    let (mut t0, mut n0) = (0u64, 0u64);
    for slice in 1..=4 {
        let (t1, n1) = marks[marks.len() * slice / 4 - 1];
        rates.push((n1 - n0) as f64 / (t1 - t0).max(1) as f64);
        (t0, n0) = (t1, n1);
    }
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    max / min - 1.0
}

/// Nests the replay passes under the wire pass's real spans: for
/// operation `i`, `server.session` goes inside `server.wait`,
/// `core.execute` (or `core.tick`) inside that, `query.parse` inside
/// that. The nested spans were measured in other passes, so they are
/// placed at their parent's start and clipped to its length; the number
/// clipped says how often noise made a child look longer than its parent.
fn layer_chain(
    wire: &levels::WireMeasurements,
    session: &SessionLevel,
    exec: &ExecLevel,
) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let mut spans = wire.spans.clone();
    let mut clipped: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, &wait) in wire.wait_spans.iter().enumerate() {
        let (start, op_id) = (spans[wait as usize].start_ns, spans[wait as usize].op_id);
        let mut parent = wait;
        let mut room = spans[wait as usize].duration_ns();
        let inner = if exec.kinds[i] == Kind::Tick {
            "core.tick"
        } else {
            "core.execute"
        };
        for (name, ns) in [
            ("server.session", session.handle_ns[i]),
            (inner, exec.exec_ns[i]),
            ("query.parse", exec.parse_ns[i]),
        ] {
            if ns == 0 {
                continue;
            }
            *clipped.entry(name).or_default() += u64::from(ns > room);
            room = room.min(ns);
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: start + room,
                parent: Some(parent),
                op_id,
            });
            parent = (spans.len() - 1) as u32;
        }
    }
    (spans, clipped)
}

struct Storage {
    checkpoint_ms: f64,
    restore_ms: f64,
    bytes_per_row: f64,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Checkpoints the end state, restores it into a fresh database with the
/// same seed, and requires the same live rows back.
fn storage_round_trip(
    db: &SharedDatabase,
    workload: Workload,
    seed: u64,
) -> Result<Storage, String> {
    let dir = out_dir().join(format!("ckpt-{}-{}", workload.name(), std::process::id()));
    let result = (|| {
        let start = Instant::now();
        db.checkpoint(&dir).map_err(|e| e.to_string())?;
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        let mut bytes = 0u64;
        for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
            bytes += entry
                .and_then(|e| e.metadata())
                .map_err(|e| e.to_string())?
                .len();
        }
        let mut fresh = Database::new(seed);
        let start = Instant::now();
        fresh.restore_checkpoint(&dir).map_err(|e| e.to_string())?;
        let restore_ms = start.elapsed().as_secs_f64() * 1e3;
        let live = db.live_count(workload.table()) as u64;
        let restored = SharedDatabase::new(fresh).live_count(workload.table()) as u64;
        check::check_restore(live, restored)?;
        Ok(Storage {
            checkpoint_ms,
            restore_ms,
            bytes_per_row: bytes as f64 / live.max(1) as f64,
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn write_trace(
    path: &Path,
    plan: &Plan,
    end_to_end: &[Vec<Span>],
    chain: &[Span],
    table: &BTreeMap<&'static str, SelfTime>,
    coverage: f64,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{}\",\"seed\":{},\"rounds\":{},\"coverage\":{coverage},\n\"self_time_ns\":{{",
        plan.workload.name(),
        plan.seed,
        plan.rounds
    )?;
    for (i, (name, t)) in table.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        write!(
            w,
            "{comma}\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        )?;
    }
    // `end_to_end`: one array per lane, as recorded around the workload's
    // own path. `layer_replay`: the wire pass's real spans with the
    // session, execute and parse passes nested inside `server.wait`.
    w.write_all(b"},\n\"end_to_end\":[")?;
    for (i, lane) in end_to_end.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write_spans_json(&mut w, lane)?;
    }
    w.write_all(b"],\n\"layer_replay\":")?;
    write_spans_json(&mut w, chain)?;
    w.write_all(b"}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // checked out without the repo root
        };
        let section = &text[text.find("\"per_layer\"").unwrap()..];
        for (name, unit) in PER_LAYER {
            assert!(
                section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_quick_traced_pass_emits_every_listed_metric_and_covers_its_time() {
        let args = Args {
            workload: Some(Workload::ConsumeCook),
            seed: 5,
            seconds: 20,
            trace: true,
            quick: true,
        };
        run_one(Workload::ConsumeCook, &args).unwrap();
        let path = out_dir().join("trace-consume_cook.json");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"layer_replay\"") && text.contains("\"name\":\"query.parse\""));
        let coverage: f64 = text
            .split("\"coverage\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(
            coverage > 0.95,
            "layer self times cover {coverage} of op time"
        );
    }
}
