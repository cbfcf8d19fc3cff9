//! The chaos suite: the full server stack under the seeded fault plan.
//!
//! Eight fault-aware [`ClientMix`] clients drive a server whose every
//! connection runs through [`FaultPlan::chaos`] — 5% torn writes, 2%
//! mid-frame disconnects, transient I/O errors, read delays, and a
//! scheduled worker panic — while a 1 ms wall-clock decay driver ticks
//! underneath. The invariants checked are the ones the paper's Law 1
//! stakes its claim on:
//!
//! * **No protocol corruption.** A fault may truncate a conversation,
//!   never garble it: no client ever sees a malformed response frame.
//! * **Retry-safe requests eventually succeed.** Probes and
//!   non-consuming reads ride the retry policy to completion; only
//!   non-idempotent writes may surface transport errors (the ambiguity
//!   guard working as designed).
//! * **Zero lost committed writes.** Every `INSERT` the server
//!   acknowledged is present afterwards; the only slack is writes that
//!   died *in transit* (the server may or may not have executed them).
//! * **Decay never stops.** The driver's tick counter keeps advancing
//!   through worker panics and connection storms.
//! * **Panicked workers respawn.** The supervisor replaces every worker
//!   the fault plan kills.
//!
//! The fault seed comes from `CHAOS_SEED` (CI runs a small matrix of
//! fixed seeds); any seed must uphold every invariant.

use std::sync::Once;
use std::time::Duration;

use spacefungus::fungus_core::{Database, SharedDatabase};
use spacefungus::fungus_server::{
    serve, Client, ClientError, ErrorCode, FaultPlan, IoModel, Response, RetryPolicy, ServerConfig,
};
use spacefungus::fungus_types::Tick;
use spacefungus::fungus_workload::{ClientMix, ClientOp};

/// The fault seed under test. CI sets `CHAOS_SEED` to sweep a matrix;
/// locally the default keeps runs reproducible.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xF06)
}

/// The fault plan panics workers on purpose; keep those expected panics
/// out of the test log while letting real ones print.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected worker panic") {
                default_hook(info);
            }
        }));
    });
}

/// Rows a statement would append, for committed-write accounting. Each
/// generated `INSERT` row is one parenthesised tuple.
fn insert_rows(op: &ClientOp) -> u64 {
    let text = op.text();
    if text.starts_with("INSERT") {
        text.matches('(').count() as u64
    } else {
        0
    }
}

/// The chaos scenario, parameterised over the extent layout and the
/// server's I/O model: `None` runs the default one-shard layout, `Some(clause)`
/// appends the given DDL sharding clause (`SHARDS n` / `WITH SHARDING
/// (…)`) to the `CREATE CONTAINER`. Every invariant in the module doc
/// must hold for every layout on both connection layers.
fn run_chaos_plan(sharding_clause: Option<&str>, io: IoModel) {
    const CLIENTS: usize = 8;
    const PER_CLIENT: u64 = 200;

    silence_injected_panics();
    let seed = chaos_seed();

    let db = SharedDatabase::new(Database::new(seed));
    // A TTL far beyond the test horizon: nothing rots mid-run, so the
    // committed-write ledger can be checked exactly against the extent.
    db.execute_ddl(&format!(
        "CREATE CONTAINER r (sensor INT NOT NULL, reading FLOAT) \
         WITH FUNGUS ttl(1000000) {}",
        sharding_clause.unwrap_or_default()
    ))
    .unwrap();

    let config = ServerConfig {
        workers: CLIENTS,
        io_model: io,
        tick_period: Some(Duration::from_millis(1)),
        fault_plan: Some(FaultPlan::chaos(seed)),
        ..ServerConfig::default()
    };
    let handle = serve(db, config).unwrap();
    let addr = handle.addr();

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let mut mix = ClientMix::new(
                seed ^ ((c as u64 + 1) * 7919),
                "r",
                "sensor",
                "reading",
                32,
                16,
            )
            .with_health_every(37)
            .with_fault_aware(true);
            let policy = RetryPolicy::new(seed.wrapping_add(c as u64))
                .with_max_attempts(8)
                .with_base_delay(Duration::from_millis(1))
                .with_max_delay(Duration::from_millis(16));
            let mut client = Client::connect_with_retry(addr, policy).unwrap();

            let mut committed = 0u64; // rows in acknowledged INSERTs
            let mut ambiguous = 0u64; // rows in INSERTs that died in transit
            for i in 0..PER_CLIENT {
                let op = mix.next_op(Tick(i + 1));
                let retry_safe = op.is_retry_safe();
                let rows = insert_rows(&op);
                let result = match &op {
                    ClientOp::Sql(sql) => client.sql(sql.clone()),
                    ClientOp::Dot(line) => client.dot(line.clone()),
                };
                match result {
                    Ok(resp) => {
                        // Faults may truncate the conversation, never
                        // garble it: a Protocol error on either side
                        // would mean corrupted bytes got through.
                        assert!(
                            !matches!(
                                resp,
                                Response::Error {
                                    code: ErrorCode::Protocol,
                                    ..
                                }
                            ),
                            "protocol corruption surfaced: {resp:?}"
                        );
                        assert!(!resp.is_error(), "statement failed under chaos: {resp:?}");
                        committed += rows;
                    }
                    Err(ClientError::Protocol(msg)) => {
                        panic!("client decoded a garbled response: {msg}")
                    }
                    Err(err) => {
                        assert!(
                            !retry_safe,
                            "retry-safe op gave up (seed {seed}, client {c}, op {i}): {err}"
                        );
                        ambiguous += rows;
                    }
                }
            }
            let stats = client.stats();
            client.close();
            (committed, ambiguous, stats)
        }));
    }

    let mut committed = 0u64;
    let mut ambiguous = 0u64;
    let mut retries = 0u64;
    let mut transport_errors = 0u64;
    for t in threads {
        let (c, a, stats) = t.join().expect("client thread died");
        committed += c;
        ambiguous += a;
        retries += stats.retries;
        transport_errors += stats.transport_errors;
    }
    assert!(
        transport_errors > 0,
        "chaos run saw no faults at all (seed {seed}) — injection not wired?"
    );
    assert!(retries > 0, "retry layer never engaged (seed {seed})");

    // Decay stayed on schedule: the driver is still ticking after the
    // storm. This is a liveness check, not a rate check — a debug-mode
    // sweep over a storm-sized extent can take many milliseconds per
    // tick on a loaded single-core host, so the driver gets a bounded
    // window to accrue its ticks rather than one fixed 50 ms sample.
    let ticks_before = handle.driver_ticks();
    assert!(ticks_before > 0, "driver never ticked during the run");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut advanced = 0;
    while std::time::Instant::now() < deadline {
        advanced = handle.driver_ticks() - ticks_before;
        if advanced >= 5 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        advanced >= 5,
        "driver nearly stalled after chaos: {advanced} ticks in 2s"
    );

    // Zero lost committed writes: everything acknowledged is present;
    // the only slack is writes whose fate the client never learned.
    let live = handle.db().live_count("r") as u64;
    assert!(
        live >= committed,
        "lost committed writes: {committed} acknowledged, {live} live (seed {seed})"
    );
    assert!(
        live <= committed + ambiguous,
        "phantom rows: {live} live > {committed} committed + {ambiguous} ambiguous"
    );

    if let Some(clause) = sharding_clause {
        // The storm really ran against a sharded extent, not a layout
        // that silently fell back to one shard.
        let guard = handle.db().write();
        let c = guard.container("r").expect("container survived chaos");
        let shards = c.read().shard_count();
        assert!(
            shards >= 4,
            "sharded chaos run ended with {shards} shards (`{clause}`, live {live})"
        );
    }

    let report = handle.shutdown().expect("graceful shutdown after chaos");
    let m = report.metrics;
    assert!(m.faults_injected > 0, "server injected no stream faults");
    assert!(
        m.worker_panics >= 1,
        "the scheduled worker panic never fired (seed {seed})"
    );
    assert_eq!(
        m.worker_panics, m.workers_respawned,
        "supervisor lost workers: {} panics, {} respawns",
        m.worker_panics, m.workers_respawned
    );
}

#[test]
fn chaos_clients_survive_the_fault_plan() {
    run_chaos_plan(None, IoModel::Threaded);
}

/// The same storm over the event-driven connection layer: sessions as
/// state machines on the reactor, requests dispatched to the shared
/// worker pool. Faulty wrappers, doomed-worker panics, and the
/// committed-write ledger must all behave identically.
#[cfg(unix)]
#[test]
fn chaos_clients_survive_the_fault_plan_on_the_reactor() {
    run_chaos_plan(None, IoModel::Reactor);
}

/// The sharded storm on the reactor as well: split/merge churn under
/// the decay driver while the reactor multiplexes faulted sockets.
#[cfg(unix)]
#[test]
fn chaos_survives_on_a_sharded_extent_on_the_reactor() {
    run_chaos_plan(Some("SHARDS 64"), IoModel::Reactor);
}

/// The same storm against a time-range-sharded extent: the committed-write
/// ledger, decay schedule, and supervisor invariants must not care how the
/// extent is laid out. 64-row shards put the run well past four shards;
/// the layout comes from the DDL clause, same as any user container.
#[test]
fn chaos_survives_on_a_sharded_extent() {
    run_chaos_plan(Some("SHARDS 64"), IoModel::Threaded);
}

/// The storm against an *adaptive* sharded extent (splits and merges
/// armed), with a checkpoint taken mid-run — while the decay driver is
/// ticking and a second client wave is about to hit — and restored into a
/// fresh database afterwards. Invariants: the checkpoint captures the
/// exact shard structure of that instant, no committed write from before
/// the checkpoint is missing from the restore, and the serving database
/// never loses a committed write across the whole run.
#[test]
fn adaptive_chaos_checkpoint_loses_no_committed_writes() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 150;

    silence_injected_panics();
    let seed = chaos_seed();

    let db = SharedDatabase::new(Database::new(seed));
    db.execute_ddl(
        "CREATE CONTAINER r (sensor INT NOT NULL, reading FLOAT) \
         WITH FUNGUS ttl(1000000) \
         WITH SHARDING (rows_per_shard = 64, adaptive = on, low_water = 0.5)",
    )
    .unwrap();
    let handle = serve(
        db,
        ServerConfig {
            workers: CLIENTS,
            tick_period: Some(Duration::from_millis(1)),
            fault_plan: Some(FaultPlan::chaos(seed)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // Wave one: chaos clients bank a committed-write ledger.
    let (committed1, ambiguous1) = storm(addr, seed, CLIENTS, PER_CLIENT, 0x5747_0001);

    // Quiesce: wait for a couple of full decay sweeps after the last wave-
    // one insert, so any tail split the wave's pressure armed has fired and
    // the shard layout is at a fixed point (with the TTL far beyond the
    // horizon, a sweep over an insert-free database cannot split, merge, or
    // drop anything further).
    let settled = handle.driver_ticks() + 3;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.driver_ticks() < settled {
        assert!(
            std::time::Instant::now() < deadline,
            "decay driver stalled while quiescing before the checkpoint"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Mid-run checkpoint: the 1 ms decay driver keeps ticking through the
    // container locks the whole time, so per-tuple freshness (and with it
    // the envelope summaries and the sweep-relative insert gauge) drifts
    // between any two observations. What *cannot* move between the waves
    // is the quiesced time structure — boundaries, seals, live counts,
    // lifecycle counters. That skeleton is what we pin across the restore;
    // the bit-exact envelope round-trip is asserted under a frozen clock
    // in the shard and core suites.
    let dir = std::env::temp_dir().join(format!("fungus-chaos-ckpt-{}", std::process::id()));
    let skeleton_at_checkpoint = {
        let guard = handle.db().write();
        guard.checkpoint(&dir).expect("mid-run checkpoint");
        let c = guard.container("r").expect("container alive");
        let g = c.read();
        let ext = g.extent();
        assert!(
            ext.shard_count() >= 2,
            "wave one left too few shards to make the round-trip interesting"
        );
        skeleton(&ext.structure())
    };

    // Wave two: the storm continues against the live database.
    let (committed2, ambiguous2) = storm(addr, seed, CLIENTS, PER_CLIENT, 0x5747_0002);

    // The serving database lost nothing across the whole run.
    let live = handle.db().live_count("r") as u64;
    let committed = committed1 + committed2;
    let ambiguous = ambiguous1 + ambiguous2;
    assert!(
        live >= committed,
        "lost committed writes: {committed} acknowledged, {live} live (seed {seed})"
    );
    assert!(
        live <= committed + ambiguous,
        "phantom rows: {live} live > {committed} committed + {ambiguous} ambiguous"
    );
    handle.shutdown().expect("graceful shutdown after chaos");

    // The restore rebuilds the checkpoint instant exactly: same shard
    // structure bit for bit, and every write committed before the
    // checkpoint is present.
    let mut restored = Database::new(seed);
    restored.restore_checkpoint(&dir).expect("restore");
    std::fs::remove_dir_all(&dir).ok();
    let c = restored.container("r").expect("restored container");
    {
        let g = c.read();
        let ext = g.extent();
        assert_eq!(
            skeleton(&ext.structure()),
            skeleton_at_checkpoint,
            "restored shard structure differs from the checkpoint instant"
        );
    }
    let restored_live = c.read().live_count() as u64;
    assert!(
        restored_live >= committed1,
        "restore lost committed writes: {committed1} acknowledged before the \
         checkpoint, {restored_live} restored (seed {seed})"
    );
    assert!(
        restored_live <= committed1 + ambiguous1,
        "restore has phantom rows: {restored_live} > {committed1} + {ambiguous1}"
    );
}

/// The decay-invariant part of a shard structure: boundaries, capacities,
/// seals, live counts, tick ranges, dropped-range memory, and lifecycle
/// counters — everything except the freshness envelopes, dirty flags,
/// and the sweep-relative insert gauge, which the live decay driver
/// keeps moving under the test.
#[allow(clippy::type_complexity)]
fn skeleton(
    s: &spacefungus::fungus_shard::ShardStructure,
) -> (
    u64,
    Vec<(u64, u64, u64, bool, usize, u64, u64)>,
    Vec<(u64, u64, bool)>,
    [u64; 3],
) {
    (
        s.next_id,
        s.shards
            .iter()
            .map(|r| {
                (
                    r.base, r.end, r.capacity, r.sealed, r.live, r.min_tick, r.max_tick,
                )
            })
            .collect(),
        s.dropped.clone(),
        [s.shards_dropped, s.shards_split, s.shards_merged],
    )
}

/// One wave of fault-aware chaos clients; returns the committed and
/// ambiguous row tallies (acknowledged inserts vs. inserts that died in
/// transit). `salt` decorrelates the waves' workloads and retry jitter.
fn storm(
    addr: std::net::SocketAddr,
    seed: u64,
    clients: usize,
    per_client: u64,
    salt: u64,
) -> (u64, u64) {
    let mut threads = Vec::new();
    for c in 0..clients {
        threads.push(std::thread::spawn(move || {
            let mut mix = ClientMix::new(
                seed ^ salt ^ ((c as u64 + 1) * 7919),
                "r",
                "sensor",
                "reading",
                32,
                16,
            )
            .with_health_every(37)
            .with_fault_aware(true);
            let policy = RetryPolicy::new(seed.wrapping_add(salt).wrapping_add(c as u64))
                .with_max_attempts(8)
                .with_base_delay(Duration::from_millis(1))
                .with_max_delay(Duration::from_millis(16));
            let mut client = Client::connect_with_retry(addr, policy).unwrap();
            let mut committed = 0u64;
            let mut ambiguous = 0u64;
            for i in 0..per_client {
                let op = mix.next_op(Tick(i + 1));
                let retry_safe = op.is_retry_safe();
                let rows = insert_rows(&op);
                let result = match &op {
                    ClientOp::Sql(sql) => client.sql(sql.clone()),
                    ClientOp::Dot(line) => client.dot(line.clone()),
                };
                match result {
                    Ok(resp) => {
                        assert!(!resp.is_error(), "statement failed under chaos: {resp:?}");
                        committed += rows;
                    }
                    Err(ClientError::Protocol(msg)) => {
                        panic!("client decoded a garbled response: {msg}")
                    }
                    Err(err) => {
                        assert!(!retry_safe, "retry-safe op gave up: {err}");
                        ambiguous += rows;
                    }
                }
            }
            client.close();
            (committed, ambiguous)
        }));
    }
    let mut committed = 0u64;
    let mut ambiguous = 0u64;
    for t in threads {
        let (c, a) = t.join().expect("storm client died");
        committed += c;
        ambiguous += a;
    }
    (committed, ambiguous)
}

/// MVCC chaos: snapshot readers race batch writers and a 1 ms decay
/// driver, and must never observe a torn epoch or a half-applied decay
/// sweep. The probe is batch atomicity: every `INSERT` statement writes
/// `K` rows tagged with one batch id at one tick, so a single statement
/// commits them under one container lock and one snapshot publication —
/// and the TTL fungus rots the whole batch in one sweep. A reader that
/// ever counts a batch at anything other than 0 or `K` rows caught a
/// snapshot published mid-mutation. A second, immortal container checks
/// the other half of the contract: its per-reader counts are monotone
/// (epochs never go backwards) and, at the end, exactly equal to the
/// committed ledger — zero lost committed writes.
#[test]
fn mvcc_snapshots_never_expose_torn_batches() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const K: u64 = 7;
    const BATCHES: u64 = 200;
    const READERS: usize = 3;

    let seed = chaos_seed();
    let db = SharedDatabase::new(Database::new(seed));
    // The churning container: short TTL over 32-row shards, so decay
    // sweeps keep killing whole batches while the writer appends.
    db.execute_ddl("CREATE CONTAINER r (batch INT NOT NULL, x INT) WITH FUNGUS ttl(20) SHARDS 32")
        .unwrap();
    // The ledger container: nothing rots, so the final count is exact.
    db.execute_ddl("CREATE CONTAINER keep (batch INT NOT NULL, x INT) WITH FUNGUS ttl(1000000)")
        .unwrap();
    let driver = db.spawn_decay_driver(Duration::from_millis(1));

    let stop = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicU64::new(0)); // batches fully committed
    let writer = {
        let db = db.clone();
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            for b in 0..BATCHES {
                let rows: Vec<String> = (0..K).map(|x| format!("({b}, {x})")).collect();
                let values = rows.join(", ");
                db.execute(&format!("INSERT INTO r VALUES {values}"))
                    .unwrap();
                db.execute(&format!("INSERT INTO keep VALUES {values}"))
                    .unwrap();
                written.store(b + 1, Ordering::Release);
            }
        })
    };

    let mut readers = Vec::new();
    for rd in 0..READERS {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        let written = Arc::clone(&written);
        readers.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut probes = 0u64;
            let mut last_keep = 0i64;
            let mut lcg = seed ^ (rd as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
            while !stop.load(Ordering::Relaxed) {
                let committed = written.load(Ordering::Acquire);
                if committed == 0 {
                    std::thread::yield_now();
                    continue;
                }
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (lcg >> 33) % committed;
                let n = db
                    .execute(&format!("SELECT COUNT(*) FROM r WHERE batch = {b}"))
                    .map_err(|e| e.to_string())?
                    .result
                    .scalar()
                    .ok()
                    .and_then(|v| v.as_i64())
                    .ok_or("COUNT returned no scalar")?;
                if n != 0 && n != K as i64 {
                    return Err(format!(
                        "torn batch {b}: snapshot saw {n} of {K} rows (seed {seed})"
                    ));
                }
                let keep = db
                    .execute("SELECT COUNT(*) FROM keep WHERE batch >= 0")
                    .map_err(|e| e.to_string())?
                    .result
                    .scalar()
                    .ok()
                    .and_then(|v| v.as_i64())
                    .ok_or("COUNT returned no scalar")?;
                if keep < last_keep {
                    return Err(format!(
                        "epoch went backwards: keep count fell {last_keep} -> {keep}"
                    ));
                }
                if keep % K as i64 != 0 {
                    return Err(format!(
                        "half-applied insert visible: keep count {keep} not a multiple of {K}"
                    ));
                }
                last_keep = keep;
                probes += 1;
            }
            Ok(probes)
        }));
    }

    writer.join().expect("writer died");
    stop.store(true, Ordering::Relaxed);
    let mut probes = 0u64;
    for r in readers {
        probes += r.join().expect("reader died").unwrap();
    }
    driver.stop();
    assert!(probes > 0, "readers never probed a batch");

    // Zero lost committed writes: the immortal ledger holds every row the
    // writer was acknowledged for, and the churning container still holds
    // only whole batches.
    assert_eq!(db.live_count("keep") as u64, BATCHES * K);
    for b in 0..BATCHES {
        let n = db
            .execute(&format!("SELECT COUNT(*) FROM r WHERE batch = {b}"))
            .unwrap()
            .result
            .scalar()
            .ok()
            .and_then(|v| v.as_i64())
            .unwrap();
        assert!(
            n == 0 || n == K as i64,
            "batch {b} ended torn: {n} of {K} rows (seed {seed})"
        );
    }

    // The MVCC machinery was actually on the hot path, and with every
    // reader gone the retired version list drained.
    let t = db.mvcc_telemetry();
    assert!(t.snapshot_reads > 0, "no read used the snapshot path");
    assert_eq!(
        t.retired, t.reclaimed,
        "retired snapshot versions leaked at quiescence: {t:?}"
    );
}

/// With the fault plan disabled the same harness must behave exactly like
/// the fault-free integration suite: every request answered, no retries,
/// no panics — pinning that the fault layer is pay-for-what-you-use.
#[test]
fn disabled_fault_plan_changes_nothing() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 100;

    let db = SharedDatabase::new(Database::new(7));
    db.execute_ddl(
        "CREATE CONTAINER r (sensor INT NOT NULL, reading FLOAT) \
         WITH FUNGUS ttl(1000000)",
    )
    .unwrap();
    let handle = serve(
        db,
        ServerConfig {
            workers: CLIENTS,
            tick_period: Some(Duration::from_millis(1)),
            fault_plan: None,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let mut mix = ClientMix::new(800 + c as u64, "r", "sensor", "reading", 32, 16)
                .with_fault_aware(true);
            let mut client = Client::connect_with_retry(addr, RetryPolicy::new(c as u64)).unwrap();
            for i in 0..PER_CLIENT {
                let resp = match mix.next_op(Tick(i + 1)) {
                    ClientOp::Sql(sql) => client.sql(sql),
                    ClientOp::Dot(line) => client.dot(line),
                }
                .expect("request failed without faults");
                assert!(!resp.is_error(), "{resp:?}");
            }
            let stats = client.stats();
            client.close();
            stats
        }));
    }
    for t in threads {
        let stats = t.join().unwrap();
        assert_eq!(stats.retries, 0, "retries on a healthy transport");
        assert_eq!(stats.transport_errors, 0);
        assert_eq!(stats.reconnects, 0);
    }

    let report = handle.shutdown().unwrap();
    let m = report.metrics;
    assert_eq!(m.requests, (CLIENTS as u64) * PER_CLIENT);
    assert_eq!(m.requests, m.responses, "dropped responses without faults");
    assert_eq!(m.faults_injected, 0);
    assert_eq!(m.worker_panics, 0);
    assert_eq!(m.workers_respawned, 0);
}
