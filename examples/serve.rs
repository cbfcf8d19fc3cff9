//! A runnable fungus server.
//!
//! ```text
//! cargo run --release --example serve -- [--port N] [--tick-ms N]
//!     [--workers N] [--seed N] [--ddl script.sql] [--checkpoint DIR]
//!     [--fault-seed N] [--reactor]
//! ```
//!
//! Binds a TCP listener, spawns the worker pool and the wall-clock decay
//! driver, and serves until killed. Talk to it with
//! `fungus_server::Client` or the E11 load generator. Without `--ddl` it
//! creates a demo `sensors` container.
//!
//! Shard layouts are declared in the DDL (`SHARDS n`, or the full
//! `WITH SHARDING (rows_per_shard = n, adaptive = on, …)` form); the shard
//! gauges show up in `.stats`.
//!
//! `--fault-seed N` arms the chaos fault plan: every connection's streams
//! get a deterministic schedule (seeded by N) of torn writes, transient
//! I/O errors, read delays, and mid-frame disconnects, and one early
//! connection panics its worker to exercise supervisor respawn. The same
//! seed replays the same faults.
//!
//! `--reactor` swaps the thread-per-connection front-end for the
//! event-driven connection layer (`IoModel::Reactor`): sessions as state
//! machines over a poll/epoll reactor, requests dispatched to the same
//! worker pool — open sessions scale past the pool instead of capping at
//! `workers + backlog`. Unix only.
//!
//! ```text
//! cargo run --release --example serve -- --smoke [--fault-seed N]
//! ```
//!
//! Self-driving smoke mode (used by CI): starts the server on a free
//! loopback port, drives it with 8 concurrent clients through 10 000+
//! requests under a 1 ms decay driver, then drains, checks that every
//! request got a response, and exits 0 — or panics loudly. With
//! `--fault-seed` the clients switch to fault-aware retrying mode and the
//! checks relax to survival invariants: no protocol corruption, retry-safe
//! requests all answered, decay still ticking, panicked workers respawned.

use std::time::{Duration, Instant};

use spacefungus::fungus_core::{Database, SharedDatabase};
use spacefungus::fungus_server::{
    serve, Client, ClientError, FaultPlan, IoModel, RetryPolicy, ServerConfig,
};
use spacefungus::fungus_types::Tick;
use spacefungus::fungus_workload::{ClientMix, ClientOp};

const DEFAULT_DDL: &str = "CREATE CONTAINER sensors \
    (sensor INT NOT NULL, reading FLOAT) \
    WITH FUNGUS ttl(120) DECAY EVERY 2";

struct Args {
    port: u16,
    tick_ms: u64,
    workers: usize,
    seed: u64,
    fault_seed: Option<u64>,
    ddl: Option<String>,
    checkpoint: Option<std::path::PathBuf>,
    smoke: bool,
    reactor: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 4420,
        tick_ms: 1000,
        workers: 8,
        seed: 42,
        fault_seed: None,
        ddl: None,
        checkpoint: None,
        smoke: false,
        reactor: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--port" => args.port = value("--port").parse().expect("--port: u16"),
            "--tick-ms" => args.tick_ms = value("--tick-ms").parse().expect("--tick-ms: u64"),
            "--workers" => args.workers = value("--workers").parse().expect("--workers: usize"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed: u64"),
            "--fault-seed" => {
                args.fault_seed = Some(value("--fault-seed").parse().expect("--fault-seed: u64"))
            }
            "--ddl" => {
                let path = value("--ddl");
                args.ddl = Some(std::fs::read_to_string(&path).expect("read DDL script"));
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint").into()),
            "--smoke" => args.smoke = true,
            "--reactor" => args.reactor = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve [--port N] [--tick-ms N] [--workers N] [--seed N] \
                     [--fault-seed N] [--ddl FILE] [--checkpoint DIR] \
                     [--reactor] [--smoke]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let db = SharedDatabase::new(Database::new(args.seed));
    let script = args.ddl.as_deref().unwrap_or(DEFAULT_DDL);
    for outcome in db.execute_script(script).expect("DDL script failed") {
        drop(outcome);
    }
    eprintln!("containers: {:?}", db.container_names());

    if args.smoke {
        smoke(db, args.fault_seed, args.reactor);
        return;
    }

    let config = ServerConfig {
        addr: ([127, 0, 0, 1], args.port).into(),
        workers: args.workers,
        tick_period: Some(Duration::from_millis(args.tick_ms.max(1))),
        checkpoint_dir: args.checkpoint.clone(),
        fault_plan: args.fault_seed.map(FaultPlan::chaos),
        io_model: if args.reactor {
            IoModel::Reactor
        } else {
            IoModel::Threaded
        },
        ..ServerConfig::default()
    };
    let handle = serve(db, config).expect("server start");
    eprintln!(
        "fungus-server listening on {} ({} workers, {} front-end, decay every {} ms)",
        handle.addr(),
        args.workers,
        if args.reactor { "reactor" } else { "threaded" },
        args.tick_ms
    );
    if let Some(seed) = args.fault_seed {
        eprintln!("chaos fault plan armed with seed {seed} — connections will misbehave");
    }
    // Serve until killed; the decay driver keeps rotting data while we
    // park. (No signal handling by design: kill -9 loses at most the
    // un-checkpointed state, which the paper says is rotting anyway.)
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The CI smoke scenario: 8 clients × 1300 requests, live decay, drain.
/// With a fault seed, the same load runs through the chaos plan with
/// retrying fault-aware clients and survival-invariant checks.
fn smoke(db: SharedDatabase, fault_seed: Option<u64>, reactor: bool) {
    const CLIENTS: usize = 8;
    const PER_CLIENT: u64 = 1300;

    let table = db
        .container_names()
        .first()
        .cloned()
        .expect("smoke needs at least one container");
    let config = ServerConfig {
        workers: CLIENTS,
        tick_period: Some(Duration::from_millis(1)),
        fault_plan: fault_seed.map(FaultPlan::chaos),
        io_model: if reactor {
            IoModel::Reactor
        } else {
            IoModel::Threaded
        },
        ..ServerConfig::default()
    };
    let handle = serve(db, config).expect("server start");
    let addr = handle.addr();
    match fault_seed {
        Some(seed) => eprintln!(
            "chaos smoke: {CLIENTS} clients x {PER_CLIENT} requests against {addr} \
             (fault seed {seed})"
        ),
        None => eprintln!("smoke: {CLIENTS} clients x {PER_CLIENT} requests against {addr}"),
    }

    // The fault plan panics a worker on purpose; keep that expected panic
    // out of the smoke log (everything else still prints normally).
    if fault_seed.is_some() {
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
    }

    let started = Instant::now();
    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        let table = table.clone();
        let chaos = fault_seed.is_some();
        threads.push(std::thread::spawn(move || {
            let mut mix = ClientMix::new(9000 + c as u64, table, "sensor", "reading", 64, 20)
                .with_consuming_reads(true)
                .with_health_every(101)
                .with_fault_aware(chaos);
            let mut client = if chaos {
                Client::connect_with_retry(
                    addr,
                    RetryPolicy::new(77 + c as u64)
                        .with_max_attempts(6)
                        .with_base_delay(Duration::from_millis(1))
                        .with_max_delay(Duration::from_millis(20)),
                )
            } else {
                Client::connect(addr)
            }
            .expect("connect");
            let mut errors = 0u64;
            let mut dropped_writes = 0u64;
            for i in 0..PER_CLIENT {
                let op = mix.next_op(Tick(i + 1));
                let retry_safe = op.is_retry_safe();
                let result = match op {
                    ClientOp::Sql(sql) => client.sql(sql),
                    ClientOp::Dot(line) => client.dot(line),
                };
                match result {
                    Ok(resp) => {
                        if resp.is_error() {
                            errors += 1;
                        }
                    }
                    // Under chaos, a non-retryable op may die with the
                    // transport; that is the guard working, not a bug.
                    // A protocol error would mean corruption — panic.
                    Err(err) if chaos && err.is_transport() && !retry_safe => {
                        dropped_writes += 1;
                    }
                    Err(ClientError::RetriesExhausted { attempts, last })
                        if chaos && retry_safe =>
                    {
                        panic!("retry-safe op exhausted {attempts} attempts: {last}")
                    }
                    Err(err) => panic!("request failed: {err}"),
                }
            }
            let stats = client.stats();
            client.close();
            (errors, dropped_writes, stats)
        }));
    }
    let mut errors = 0u64;
    let mut dropped_writes = 0u64;
    let mut retries = 0u64;
    for t in threads {
        let (e, d, stats) = t.join().expect("client");
        errors += e;
        dropped_writes += d;
        retries += stats.retries;
    }
    let elapsed = started.elapsed();

    let ticks = handle.db().now().get();
    let live = handle.db().live_count(&table);
    let report = handle.shutdown().expect("graceful shutdown");

    let expected = (CLIENTS as u64) * PER_CLIENT;
    assert_eq!(errors, 0, "statement errors");
    assert!(ticks > 0, "decay driver never ticked");

    if fault_seed.is_some() {
        // Survival invariants: every answered request got exactly one
        // response, faults were actually injected, the decay driver never
        // stopped, and any panicked worker came back.
        let m = &report.metrics;
        assert!(m.requests >= m.responses, "responses without requests");
        assert!(m.faults_injected > 0, "chaos run injected no faults");
        assert_eq!(
            m.worker_panics, m.workers_respawned,
            "panicked workers not all respawned"
        );
        assert!(m.driver_ticks > 0, "driver tick counter never moved");
        println!(
            "chaos smoke OK: {expected} requests in {:.2}s, {} faults injected, \
             {} retries, {dropped_writes} unretried writes surfaced, \
             {}/{} workers respawned, {ticks} decay ticks, live extent {live}",
            elapsed.as_secs_f64(),
            m.faults_injected,
            retries,
            m.workers_respawned,
            m.worker_panics,
        );
    } else {
        assert_eq!(report.metrics.requests, expected, "request count");
        assert_eq!(
            report.metrics.requests, report.metrics.responses,
            "dropped responses"
        );
        println!(
            "smoke OK: {expected} requests in {:.2}s ({:.0} req/s), \
             0 dropped, 0 errors, {ticks} decay ticks, live extent {live}",
            elapsed.as_secs_f64(),
            expected as f64 / elapsed.as_secs_f64()
        );
    }
}
