//! **E11-scale — connection scaling: threaded vs reactor.**
//!
//! ```text
//! cargo run --release --example e11_scale [-- --quick]
//! ```
//!
//! Claim: a thread-per-connection front-end caps out at its worker
//! count, while the reactor multiplexes orders of magnitude more open
//! sessions over the same small pool. Each rung stands up `fungus-server`
//! on loopback twice — once per [`IoModel`] — and ladders the number of
//! *concurrently open* open-loop clients from 10² towards 10⁴ (clamped
//! below the process fd ceiling), printing a TSV table of per-request
//! sojourn latency (p50/p90/p99/max), a log₂ latency histogram, and how
//! many of the offered connections each model served. `--quick` runs two
//! small rungs.
//!
//! Expected shape (EXPERIMENTS.md): the threaded model admits at most
//! `workers + backlog` connections and serves at most `workers` of them
//! concurrently, so every rung beyond that shows a wall of rejections or
//! timeouts; the reactor serves every rung with the same pool, trading
//! tail latency (dispatch-queue sojourn under backpressure) for
//! admission. The numbers are wall-clock and host-dependent.
//!
//! Mechanics: `min(conns, 64)` driver threads each own a slice of the
//! connections. A rung first opens every connection and proves admission
//! with one ping (a typed `Unavailable` or a handshake timeout counts the
//! connection as unserved), then runs pipelined request rounds — pings
//! alternating with INSERTs against a decaying container — timing each
//! request from its own write to its response. Reads are serialised per
//! driver, so a request's latency includes open-loop queue sojourn.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fungus_server::frame::{read_frame, write_frame};
use fungus_server::{serve, IoModel, Request, Response, ServerConfig};
use spacefungus::prelude::*;

/// Log₂ latency buckets: bucket *i* holds requests with latency in
/// `(2^(i-1), 2^i]` microseconds; the last bucket is open-ended.
const HIST_BUCKETS: usize = 22;

/// The fixed worker pool both models share — the point of the
/// experiment is connections scaling far beyond it.
const WORKERS: usize = 4;

/// What one driver thread observed for its slice of the connections.
#[derive(Default)]
struct Observed {
    served: usize,
    rejected: usize,
    requests: u64,
    errors: u64,
    latencies_us: Vec<f64>,
}

/// Connects and proves the connection is served with one ping.
fn admit(addr: SocketAddr, ping: &[u8], timeout: Duration) -> Option<TcpStream> {
    let mut s = TcpStream::connect(addr).ok()?;
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(timeout));
    write_frame(&mut s, ping).ok()?;
    match read_frame(&mut s) {
        Ok(Some(p)) if Response::decode(&p).is_ok_and(|r| !r.is_error()) => Some(s),
        _ => None,
    }
}

fn drive_group(
    addr: SocketAddr,
    group: usize,
    rounds: usize,
    timeout: Duration,
    seed: usize,
    start: &Barrier,
) -> Observed {
    let ping = Request::Ping.encode().expect("encode ping");
    let insert = Request::Sql {
        text: format!("INSERT INTO r VALUES ({seed}, 0.5)"),
    }
    .encode()
    .expect("encode insert");
    let mut seen = Observed::default();

    // Admission: open the slice and prove each connection is served with
    // one ping. The threaded model turns the surplus away here — with a
    // typed Unavailable for over-capacity connects, or a handshake
    // timeout for accepted-but-never-scheduled ones.
    let mut live = Vec::new();
    for _ in 0..group {
        match admit(addr, &ping, timeout) {
            Some(s) => live.push(s),
            None => seen.rejected += 1,
        }
    }
    seen.served = live.len();
    start.wait();

    // Measurement: pipelined rounds over every live connection.
    for round in 0..rounds {
        let payload = if round % 2 == 0 { &ping } else { &insert };
        let mut sent = Vec::with_capacity(live.len());
        for mut s in live {
            let stamp = Instant::now();
            if write_frame(&mut s, payload).is_ok() {
                sent.push((s, stamp));
            } else {
                seen.errors += 1;
            }
        }
        live = Vec::with_capacity(sent.len());
        for (mut s, stamp) in sent {
            seen.requests += 1;
            match read_frame(&mut s) {
                Ok(Some(p)) => {
                    seen.latencies_us.push(stamp.elapsed().as_secs_f64() * 1e6);
                    if Response::decode(&p).map(|r| r.is_error()).unwrap_or(true) {
                        seen.errors += 1;
                    }
                    live.push(s);
                }
                Ok(None) | Err(_) => seen.errors += 1,
            }
        }
    }
    seen
}

/// One rung under one I/O model; returns what every driver saw and the
/// measured wall time and reactor stalls.
fn run_once(io: IoModel, conns: usize, rounds: usize, timeout: Duration) -> (Observed, f64, u64) {
    let db = SharedDatabase::new(Database::new(1102));
    db.execute_ddl(
        "CREATE CONTAINER r (sensor INT NOT NULL, reading FLOAT) \
         WITH FUNGUS ttl(60) DECAY EVERY 2",
    )
    .expect("DDL");
    let config = ServerConfig {
        workers: WORKERS,
        io_model: io,
        reactor_threads: 2,
        max_sessions: conns + 64,
        dispatch_depth: 256,
        tick_period: Some(Duration::from_millis(1)),
        ..ServerConfig::default()
    };
    let handle = serve(db, config).expect("server start");
    let addr = handle.addr();

    let drivers = conns.clamp(1, 64);
    let start = Arc::new(Barrier::new(drivers + 1));
    let threads: Vec<_> = (0..drivers)
        .map(|d| {
            let group = conns / drivers + usize::from(d < conns % drivers);
            let start = Arc::clone(&start);
            std::thread::spawn(move || drive_group(addr, group, rounds, timeout, d, &start))
        })
        .collect();

    // Admission settles behind the barrier; the clock covers only the
    // measured rounds.
    start.wait();
    let started = Instant::now();
    let mut all = Observed::default();
    for t in threads {
        let g = t.join().expect("driver thread");
        all.served += g.served;
        all.rejected += g.rejected;
        all.requests += g.requests;
        all.errors += g.errors;
        all.latencies_us.extend(g.latencies_us);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let report = handle.shutdown().expect("shutdown");
    (all, elapsed, report.metrics.reactor_stalls)
}

/// Formats a float with 3 decimals, trimming integer-valued cells.
fn fnum(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.3}")
    }
}

/// Nearest-rank p-th percentile of an ascending slice (0 for empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn hist_cell(latencies_us: &[f64]) -> String {
    let mut hist = [0u64; HIST_BUCKETS];
    for &us in latencies_us {
        let bucket = if us <= 1.0 {
            0
        } else {
            (us.log2().ceil() as usize).min(HIST_BUCKETS - 1)
        };
        hist[bucket] += 1;
    }
    let cells: Vec<String> = hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, n)| format!("le{}us:{n}", 1u64 << i))
        .collect();
    if cells.is_empty() {
        "-".into()
    } else {
        cells.join(";")
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The top rung stays well under the fd ceiling (each connection costs
    // two fds in-process: the client end and the server end).
    let (rungs, rounds, timeout): (&[usize], usize, Duration) = if quick {
        (&[8, 16], 3, Duration::from_secs(1))
    } else {
        (&[100, 300, 1000, 3000, 8000], 20, Duration::from_secs(3))
    };

    println!("# E11-scale — concurrent open-loop clients: threaded vs reactor ({WORKERS} workers)");
    println!(
        "io\tconns\tserved\trejected\trequests\terrors\telapsed_s\treq_per_s\tp50_us\tp90_us\t\
         p99_us\tmax_us\tstalls\thist"
    );
    for &conns in rungs {
        for (name, io) in [
            ("threaded", IoModel::Threaded),
            ("reactor", IoModel::Reactor),
        ] {
            let (mut r, elapsed, stalls) = run_once(io, conns, rounds, timeout);
            r.latencies_us
                .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let lat = &r.latencies_us;
            let cells = [
                name.to_string(),
                conns.to_string(),
                r.served.to_string(),
                r.rejected.to_string(),
                r.requests.to_string(),
                r.errors.to_string(),
                fnum(elapsed),
                fnum(r.requests as f64 / elapsed.max(1e-9)),
                fnum(percentile(lat, 0.50)),
                fnum(percentile(lat, 0.90)),
                fnum(percentile(lat, 0.99)),
                fnum(lat.last().copied().unwrap_or(0.0)),
                stalls.to_string(),
                hist_cell(lat),
            ];
            println!("{}", cells.join("\t"));
        }
    }
}
