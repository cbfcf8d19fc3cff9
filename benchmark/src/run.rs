//! Set-up and the closed-loop phase runner shared by both binaries.
//!
//! This module is the end-to-end compile surface: beyond SQL text it
//! calls only `Database::new`, `SharedDatabase::{new, execute,
//! execute_ddl, tick, live_count, health}`, `serve`,
//! `ServerConfig::default()`, `ServerHandle::{addr, shutdown}` and
//! `Client::{connect, sql, dot, close}` (README.md lists the rest).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use fungus_core::{Database, QueryOutcome, SharedDatabase};
use fungus_server::{serve, Client, Response, ServerConfig, ServerHandle};
use fungus_types::Value;

use crate::check::{self, LawChecker};
use crate::procfs;
use crate::script::{Kind, LaneGen, Op, Workload};

/// What a caller got back for one operation.
pub enum Answer {
    /// An answer set (inserts answer with a one-cell `inserted` count).
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Vec<Value>>,
        /// Tuples the statement consumed.
        consumed: u64,
    },
    /// Acknowledged without rows (a tick).
    Done,
    /// An error, a refusal, or no answer at all.
    Failed(String),
}

/// Something a lane can send operations to.
pub trait Backend {
    /// Runs `op` and waits for its answer (closed loop).
    fn run(&mut self, op: &Op) -> Answer;
}

/// Direct calls into the engine.
pub struct InProcess(pub SharedDatabase);

impl Backend for InProcess {
    fn run(&mut self, op: &Op) -> Answer {
        if op.kind == Kind::Tick {
            self.0.tick();
            return Answer::Done;
        }
        answer_of_outcome(self.0.execute(&op.text))
    }
}

/// What an engine outcome means to the script.
pub fn answer_of_outcome(outcome: fungus_types::Result<QueryOutcome>) -> Answer {
    match outcome {
        Ok(out) => Answer::Rows {
            consumed: out.result.consumed.len() as u64,
            columns: out.result.columns,
            rows: out.result.rows,
        },
        Err(e) => Answer::Failed(e.to_string()),
    }
}

/// One blocking connection to the server.
pub struct Wire(pub Client);

impl Backend for Wire {
    fn run(&mut self, op: &Op) -> Answer {
        let response = if op.kind == Kind::Tick {
            self.0.dot(op.text.as_str())
        } else {
            self.0.sql(op.text.as_str())
        };
        answer_of(response.map_err(|e| e.to_string()))
    }
}

/// What a server response means to the script.
pub fn answer_of(response: Result<Response, String>) -> Answer {
    match response {
        Ok(Response::Rows {
            columns,
            rows,
            consumed,
            ..
        }) => Answer::Rows {
            columns,
            rows,
            consumed,
        },
        Ok(Response::Ack { .. }) => Answer::Done,
        Ok(Response::Error { message, .. }) => Answer::Failed(message),
        Ok(other) => Answer::Failed(format!("unexpected response {other:?}")),
        Err(e) => Answer::Failed(e),
    }
}

/// What one lane measured and checked.
#[derive(Default)]
pub struct LaneStats {
    latency_ns: [Vec<u64>; Kind::ALL.len()],
    /// Operations sent, ticks included.
    pub attempted: u64,
    /// Operations answered with an error, refused, or unanswered.
    pub failed: u64,
    /// Rows the engine acknowledged inserting.
    pub acked_rows: u64,
    /// Rows `CONSUME` removed.
    pub consumed_rows: u64,
    /// Law 1 / Law 2 over every answer this lane saw; [`Bench`] carries
    /// it from phase to phase so a tuple consumed during warm-up is still
    /// known as consumed in the measured phase.
    pub checker: LawChecker,
    /// First failure, for the error message.
    pub first_failure: Option<String>,
    /// `(ns since the lane started, statements completed)` after each
    /// round.
    pub round_marks: Vec<(u64, u64)>,
}

impl LaneStats {
    /// Latencies of `kind`, unsorted, nanoseconds.
    pub fn latency_ns(&self, kind: Kind) -> &[u64] {
        &self.latency_ns[kind.index()]
    }

    /// Statements completed (every operation but ticks).
    pub fn statements(&self) -> u64 {
        self.attempted - self.latency_ns(Kind::Tick).len() as u64
    }

    /// Books one answered operation.
    pub fn record(&mut self, op: &Op, elapsed_ns: u64, answer: Answer) {
        self.attempted += 1;
        self.latency_ns[op.kind.index()].push(elapsed_ns);
        let failure = match answer {
            Answer::Failed(message) => Some(message),
            Answer::Done if op.kind == Kind::Tick => None,
            Answer::Done => Some("acknowledged without an answer set".to_string()),
            Answer::Rows {
                columns,
                rows,
                consumed,
            } => {
                self.consumed_rows += consumed;
                self.checker.observe(&columns, &rows, op.kind.consuming());
                if op.rows == 0 {
                    None
                } else {
                    let acked = rows
                        .first()
                        .and_then(|r| r.first())
                        .and_then(Value::as_i64)
                        .unwrap_or(0) as u64;
                    self.acked_rows += acked;
                    (acked != u64::from(op.rows))
                        .then(|| format!("insert of {} rows acknowledged {acked}", op.rows))
                }
            }
        };
        if let Some(message) = failure {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("`{}`: {message}", op.text));
        }
    }
}

/// When a lane stops.
pub enum Until<'a> {
    /// After this many rounds: the pacing lane, whose script is fixed.
    Rounds(u64),
    /// At the first round boundary after the flag is set: a companion
    /// connection, which keeps the pacing lane under concurrent load for
    /// exactly as long as it runs. A fixed count here would leave one
    /// connection running alone against a draining extent at the end.
    Flag(&'a AtomicBool),
}

/// Runs rounds of `gen` against `backend`, one operation at a time,
/// timing each call with the benchmark's own clock.
pub fn run_rounds<B: Backend>(
    backend: &mut B,
    gen: &mut LaneGen,
    until: Until<'_>,
    stats: &mut LaneStats,
) {
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        match until {
            Until::Rounds(n) if done == n => break,
            Until::Flag(stop) if stop.load(Ordering::Acquire) => break,
            _ => done += 1,
        }
        run_round(backend, gen, &mut ops, stats, start);
    }
}

/// One round of one lane, then a mark of where the lane stands since
/// `start`.
fn run_round<B: Backend>(
    backend: &mut B,
    gen: &mut LaneGen,
    ops: &mut Vec<Op>,
    stats: &mut LaneStats,
    start: Instant,
) {
    gen.round(ops);
    for op in ops.iter() {
        let t0 = Instant::now();
        let answer = backend.run(op);
        let elapsed = t0.elapsed().as_nanos() as u64;
        stats.record(op, elapsed, answer);
    }
    stats
        .round_marks
        .push((start.elapsed().as_nanos() as u64, stats.statements()));
}

/// A preloaded database (behind a server on the wire) and its lanes.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// The database every lane talks to.
    pub db: SharedDatabase,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    gens: Vec<LaneGen>,
    checkers: Vec<LawChecker>,
    /// Rows acknowledged so far (preload and every phase).
    pub acked_rows: u64,
    /// Rows consumed so far.
    pub consumed_rows: u64,
}

/// Builds the database, replays the preload in process, and (on the
/// wire) starts the server and connects one client per lane. This is
/// what `setup_s` times.
pub fn set_up(workload: Workload, seed: u64, preload_scale: f64) -> Result<Bench, String> {
    let db = SharedDatabase::new(Database::new(seed));
    for ddl in workload.ddl() {
        db.execute_ddl(ddl).map_err(|e| format!("`{ddl}`: {e}"))?;
    }
    let mut gens: Vec<LaneGen> = (0..workload.lanes())
        .map(|lane| LaneGen::new(workload, seed, lane))
        .collect();
    let mut ops = Vec::new();
    let mut stats = LaneStats::default();
    let mut backend = InProcess(db.clone());
    for _ in 0..workload.preload_ticks(preload_scale) {
        gens[0].preload_tick(&mut ops);
        for op in &ops {
            let answer = backend.run(op);
            stats.record(op, 0, answer);
        }
    }
    if let Some(failure) = stats.first_failure {
        return Err(format!("preload failed: {failure}"));
    }
    let (server, clients) = if workload.over_wire() {
        let server = serve(db.clone(), ServerConfig::default()).map_err(|e| e.to_string())?;
        let clients = (0..workload.lanes())
            .map(|_| Client::connect(server.addr()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        (Some(server), clients)
    } else {
        (None, Vec::new())
    };
    let mut checkers: Vec<LawChecker> = gens.iter().map(|_| LawChecker::default()).collect();
    checkers[0] = stats.checker;
    Ok(Bench {
        workload,
        db,
        server,
        clients,
        gens,
        checkers,
        acked_rows: stats.acked_rows,
        consumed_rows: stats.consumed_rows,
    })
}

/// One phase of every lane.
pub struct Phase {
    /// Per-lane measurements, lane 0 first.
    pub lanes: Vec<LaneStats>,
    /// Wall time from the common start to the last lane's end.
    pub wall_ns: u64,
    /// Process CPU time (user + system, all threads) over the phase.
    pub cpu_us: u64,
    /// Live rows when the phase began.
    pub live_start: u64,
    /// Live rows when it ended.
    pub live_end: u64,
}

impl Phase {
    /// Statements completed by all lanes.
    pub fn statements(&self) -> u64 {
        self.lanes.iter().map(LaneStats::statements).sum()
    }

    /// Statements per second of wall time (ticks are in the time, not in
    /// the count).
    pub fn ops_per_s(&self) -> f64 {
        self.statements() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Operations sent by all lanes, ticks included.
    pub fn attempted(&self) -> u64 {
        self.lanes.iter().map(|l| l.attempted).sum()
    }

    /// Failed operations across lanes.
    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }

    /// Latencies of the given kinds pooled over lanes, ascending.
    pub fn pooled_sorted(&self, kinds: impl Fn(Kind) -> bool) -> Vec<u64> {
        let mut all: Vec<u64> = Kind::ALL
            .into_iter()
            .filter(|&k| kinds(k))
            .flat_map(|k| self.lanes.iter().flat_map(move |l| l.latency_ns(k)))
            .copied()
            .collect();
        all.sort_unstable();
        all
    }
}

impl Bench {
    /// The server's address, on the wire.
    pub fn server_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(ServerHandle::addr)
    }

    /// The end-to-end phase: `rounds` rounds on lane 0 through the
    /// workload's own path (the blocking `Client` on the wire, direct
    /// calls otherwise).
    pub fn run_phase(&mut self, rounds: u64) -> Phase {
        if self.workload.over_wire() {
            let mut wires: Vec<Wire> = self.clients.drain(..).map(Wire).collect();
            let phase = self.run_phase_with(rounds, &mut wires);
            self.clients = wires.into_iter().map(|w| w.0).collect();
            phase
        } else {
            self.run_phase_with(rounds, &mut [InProcess(self.db.clone())])
        }
    }

    /// Runs `rounds` rounds on lane 0 through `backends[0]`, with every
    /// other lane running concurrently through its own backend until
    /// lane 0 is done, and folds acknowledgements into the running totals.
    pub fn run_phase_with<B: Backend + Send>(&mut self, rounds: u64, backends: &mut [B]) -> Phase {
        assert_eq!(backends.len(), self.gens.len(), "one backend per lane");
        let live_start = self.live_rows();
        let cpu0 = procfs::cpu_time_us();
        let mut lanes = self.take_lane_stats();
        let wall_ns = if let [backend] = backends {
            let start = Instant::now();
            let until = Until::Rounds(rounds);
            run_rounds(backend, &mut self.gens[0], until, &mut lanes[0]);
            start.elapsed().as_nanos() as u64
        } else {
            let barrier = Barrier::new(self.gens.len() + 1);
            let lane0_done = AtomicBool::new(false);
            // The scope returns once every lane has been joined (and
            // re-raises a lane's panic), so `start` spans the slowest lane.
            let start = std::thread::scope(|scope| {
                let lanes = backends.iter_mut().zip(&mut self.gens).zip(&mut lanes);
                for (lane, ((backend, gen), stats)) in lanes.enumerate() {
                    let (barrier, lane0_done) = (&barrier, &lane0_done);
                    scope.spawn(move || {
                        barrier.wait();
                        if lane == 0 {
                            run_rounds(backend, gen, Until::Rounds(rounds), stats);
                            lane0_done.store(true, Ordering::Release);
                        } else {
                            run_rounds(backend, gen, Until::Flag(lane0_done), stats);
                        }
                    });
                }
                barrier.wait();
                Instant::now()
            });
            start.elapsed().as_nanos() as u64
        };
        let cpu_us = procfs::cpu_time_us().saturating_sub(cpu0);
        self.fold(lanes, wall_ns, cpu_us, live_start)
    }

    /// Runs `rounds` rounds of every lane on the calling thread, lane by
    /// lane within each round, through one backend: the layer replay's
    /// order, identical on every pass.
    pub fn run_serial<B: Backend>(&mut self, rounds: u64, backend: &mut B) -> Phase {
        let live_start = self.live_rows();
        let cpu0 = procfs::cpu_time_us();
        let mut lanes = self.take_lane_stats();
        let mut ops = Vec::new();
        let start = Instant::now();
        for _ in 0..rounds {
            for (gen, stats) in self.gens.iter_mut().zip(&mut lanes) {
                run_round(backend, gen, &mut ops, stats, start);
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_us = procfs::cpu_time_us().saturating_sub(cpu0);
        self.fold(lanes, wall_ns, cpu_us, live_start)
    }

    fn take_lane_stats(&mut self) -> Vec<LaneStats> {
        self.checkers
            .iter_mut()
            .map(|checker| LaneStats {
                checker: std::mem::take(checker),
                ..LaneStats::default()
            })
            .collect()
    }

    fn fold(
        &mut self,
        mut lanes: Vec<LaneStats>,
        wall_ns: u64,
        cpu_us: u64,
        live_start: u64,
    ) -> Phase {
        for (checker, lane) in self.checkers.iter_mut().zip(lanes.iter_mut()) {
            *checker = std::mem::take(&mut lane.checker);
        }
        self.acked_rows += lanes.iter().map(|l| l.acked_rows).sum::<u64>();
        self.consumed_rows += lanes.iter().map(|l| l.consumed_rows).sum::<u64>();
        Phase {
            lanes,
            wall_ns,
            cpu_us,
            live_start,
            live_end: self.live_rows(),
        }
    }

    /// Live rows of the workload's container.
    pub fn live_rows(&self) -> u64 {
        self.db.live_count(self.workload.table()) as u64
    }

    /// Stops the server (if any) and runs the end-state checks: both laws
    /// held on every answer of every phase, server counters balanced, and
    /// every acknowledged row live, rotted or consumed. Returns the
    /// database for further inspection.
    pub fn finish(mut self) -> Result<SharedDatabase, String> {
        if let Some(v) = self.checkers.iter().find_map(|c| c.first_violation.clone()) {
            return Err(v);
        }
        check::check_disjoint(&self.checkers.iter().collect::<Vec<_>>())?;
        for client in self.clients.drain(..) {
            client.close();
        }
        if let Some(server) = self.server.take() {
            let report = server.shutdown().map_err(|e| e.to_string())?;
            let m = report.metrics;
            check::check_server_counters(m.requests, m.responses, m.errors)?;
        }
        let table = self.workload.table();
        let health = self.db.health(table).map_err(|e| e.to_string())?;
        check::check_conservation(
            self.acked_rows,
            health.stats.evicted_rotted,
            self.consumed_rows,
            self.db.live_count(table) as u64,
        )?;
        Ok(self.db)
    }
}

/// Errors if any operation of the phase failed.
pub fn check_phase(phase: &Phase) -> Result<(), String> {
    match phase.lanes.iter().find_map(|l| l.first_failure.as_ref()) {
        Some(f) => Err(format!("{} operation(s) failed, first {f}", phase.failed())),
        None => Ok(()),
    }
}

/// Runs every workload in turn, each in a fresh child process of the
/// running binary, so no workload inherits another's heap or peak RSS.
pub fn run_each_workload(args: &crate::args::Args) -> std::process::ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut code = std::process::ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(args.for_child(workload))
            .status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("{} failed: {status:?}", workload.name());
            code = std::process::ExitCode::FAILURE;
        }
    }
    code
}
