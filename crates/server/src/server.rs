//! The concurrent TCP front-end.
//!
//! Two I/O models share one front door, one worker pool, one supervisor,
//! and one frame codec ([`ServerConfig::io_model`] picks):
//!
//! ```text
//!             accept thread                worker pool (N threads)
//!   TcpListener ──────────► crossbeam ──────────► Session per connection
//!        │    nonblocking,   bounded(cap)          blocking frame loop
//!        │    cap-checked                          read → dispatch → write
//!        │         (threaded model: 1 connection per worker)
//!        │
//!        ├──────► reactor threads ◄──── completions + self-pipe wake
//!        │         (reactor model: sessions as state machines over
//!        │          poll/epoll; decoded requests batch onto the same
//!        │          worker pool — see [`crate::reactor`])
//!        │
//!   supervisor thread: joins dead workers, counts the panic, and spawns
//!        │    a replacement — one connection's crash never shrinks the pool.
//!        │
//!   decay driver thread (optional): ticks the shared scheduler on a
//!   wall-clock period while queries run — the paper's "periodic clock
//!   of T seconds" under live traffic. The driver panic-isolates its
//!   tasks and shares no fate with the workers, so decay stays on
//!   schedule through worker deaths (Law 1 under chaos).
//! ```
//!
//! Under the threaded model each worker owns one connection at a time
//! from accept to hangup, so the pool size bounds concurrent connections;
//! the accept thread rejects the overflow with a typed
//! [`Response::Error`] instead of letting them queue invisibly. Sockets
//! carry read/write timeouts, and the read path polls in short slices so
//! an idle connection notices shutdown quickly. Under the reactor model
//! the session count is bounded by [`ServerConfig::max_sessions`]
//! instead, and the worker pool bounds *in-flight requests* rather than
//! connections.
//!
//! **Fault injection:** installing a [`FaultPlan`] in [`ServerConfig`]
//! wraps every accepted socket in a [`Faulty`] stream whose seeded
//! schedule injects torn writes, mid-frame disconnects, read delays, and
//! transient errors — and can mark a connection's worker for death, which
//! exercises the supervisor's respawn path. With no plan configured the
//! socket is served unwrapped; the fast path pays nothing.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]): stop accepting, let
//! every in-flight request finish and its response flush, join the pool,
//! stop the decay driver, and (when configured) flush a checkpoint of
//! every container before returning the final counters.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use fungus_lint_rt::{hierarchy, OrderedMutex};

use fungus_clock::scheduler::DriverHandle;
use fungus_core::SharedDatabase;
use fungus_types::{FungusError, Result};

use crate::fault::{FaultPlan, Faulty};
use crate::frame::{self, FrameError, FramePump, PumpStep};
use crate::protocol::{ErrorCode, Request, Response};
use crate::session::Session;
use crate::stats::{MetricsSnapshot, ServerStats};

/// How often blocked reads (and reactor poll waits) wake up to check the
/// shutdown flag.
pub(crate) const POLL_SLICE: Duration = Duration::from_millis(50);

/// Which connection I/O model the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// One blocking worker thread owns each live connection — the
    /// reference baseline. Concurrency is bounded by the pool size.
    #[default]
    Threaded,
    /// Event-driven: sessions are state machines multiplexed over a
    /// poll/epoll reactor; decoded requests batch onto the worker pool.
    /// Unix-only ([`serve`] fails with a typed error elsewhere).
    Reactor,
}

/// Which readiness backend a reactor thread uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollerKind {
    /// The platform's best backend: `epoll` on Linux, `poll(2)` elsewhere.
    #[default]
    System,
    /// Force the portable `poll(2)` backend (tests use this to cover the
    /// fallback on platforms that would never pick it).
    Poll,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: SocketAddr,
    /// Worker threads. Under [`IoModel::Threaded`] this is also the
    /// concurrent-connection bound; under [`IoModel::Reactor`] it bounds
    /// in-flight requests.
    pub workers: usize,
    /// Threaded model: connections admitted beyond the busy workers
    /// (queued, waiting for a worker). Anything above `workers + backlog`
    /// is rejected.
    pub backlog: usize,
    /// A connection stalling mid-frame longer than this is dropped.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// When set, a decay driver thread ticks the virtual clock on this
    /// wall-clock period for the server's lifetime.
    pub tick_period: Option<Duration>,
    /// When set, shutdown flushes a full checkpoint here after draining.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, every accepted connection is served through a seeded
    /// [`Faulty`] stream (and scheduled worker panics fire). `None`
    /// serves sockets unwrapped — zero overhead.
    pub fault_plan: Option<FaultPlan>,
    /// Connection I/O model: blocking worker-per-connection, or the
    /// poll/epoll reactor.
    pub io_model: IoModel,
    /// Reactor model: how many reactor threads multiplex the sessions.
    pub reactor_threads: usize,
    /// Reactor model: the admission cap on concurrently open sessions
    /// (the reactor's analogue of `workers + backlog`).
    pub max_sessions: usize,
    /// Reactor model: depth of the bounded request queue into the worker
    /// pool. A full queue is the backpressure signal — the reactor stops
    /// polling saturating sockets and `.health` probes fail fast.
    pub dispatch_depth: usize,
    /// Reactor model: readiness backend selection.
    pub poller: PollerKind,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 8,
            backlog: 16,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            tick_period: None,
            checkpoint_dir: None,
            fault_plan: None,
            io_model: IoModel::Threaded,
            reactor_threads: 2,
            max_sessions: 1024,
            dispatch_depth: 64,
            poller: PollerKind::System,
        }
    }
}

/// Final accounting returned by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Counter state at the instant the server finished draining.
    pub metrics: MetricsSnapshot,
    /// Whether a checkpoint was flushed.
    pub checkpointed: bool,
}

/// What a worker thread pulls from: whole connections (threaded model)
/// or decoded requests (reactor model). One pool, one supervisor, two
/// feeds.
#[derive(Clone)]
enum ConnSource {
    /// Threaded model: each received socket is owned until hangup.
    Streams(Receiver<TcpStream>),
    /// Reactor model: each received job is one decoded request.
    #[cfg(unix)]
    Jobs(Receiver<crate::reactor::Job>),
}

/// Everything a worker thread (or its respawned replacement) needs.
#[derive(Clone)]
struct WorkerCtx {
    source: ConnSource,
    db: SharedDatabase,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    active: Arc<AtomicUsize>,
    sessions: Arc<AtomicU64>,
    config: ServerConfig,
}

/// The worker pool as the supervisor sees it: slot index + live handle.
struct WorkerSlot {
    index: usize,
    handle: JoinHandle<()>,
}

type WorkerSet = Arc<OrderedMutex<Vec<WorkerSlot>>>;

/// A running server; dropping it shuts the server down (best effort).
pub struct ServerHandle {
    addr: SocketAddr,
    db: SharedDatabase,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: WorkerSet,
    supervisor: Option<JoinHandle<()>>,
    driver: Option<DriverHandle>,
    stats: Arc<ServerStats>,
    checkpoint_dir: Option<PathBuf>,
    #[cfg(unix)]
    reactors: Vec<(Arc<crate::reactor::ReactorShared>, JoinHandle<()>)>,
}

/// Starts a server over `db` and returns its handle.
///
/// The listener is bound and the pool is running when this returns — a
/// client may connect immediately. All threads are named for debuggers.
pub fn serve(db: SharedDatabase, config: ServerConfig) -> Result<ServerHandle> {
    match config.io_model {
        IoModel::Threaded => serve_threaded(db, config),
        IoModel::Reactor => serve_reactor(db, config),
    }
}

/// The bind + shared-state boilerplate both I/O models start from.
struct ServerBase {
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    active: Arc<AtomicUsize>,
    sessions: Arc<AtomicU64>,
}

fn bind_base(db: &SharedDatabase, config: &ServerConfig) -> Result<ServerBase> {
    let listener = TcpListener::bind(config.addr).map_err(io_err)?;
    listener.set_nonblocking(true).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let stats = Arc::new(ServerStats::default());
    stats.link_shards(db.clone());
    Ok(ServerBase {
        listener,
        addr,
        shutdown: Arc::new(AtomicBool::new(false)),
        stats,
        active: Arc::new(AtomicUsize::new(0)),
        sessions: Arc::new(AtomicU64::new(0)),
    })
}

/// Spawns the worker pool and its supervisor (shared by both models —
/// the supervisor's respawn discipline applies to job workers too).
fn spawn_pool(workers: usize, ctx: &WorkerCtx) -> Result<(WorkerSet, JoinHandle<()>)> {
    let mut pool = Vec::with_capacity(workers);
    for w in 0..workers {
        pool.push(WorkerSlot {
            index: w,
            handle: spawn_worker(w, 0, ctx.clone())?,
        });
    }
    let pool: WorkerSet = Arc::new(OrderedMutex::new(&hierarchy::WORKERS, pool));
    let supervisor = {
        let set = Arc::clone(&pool);
        let ctx = ctx.clone();
        std::thread::Builder::new()
            .name("fungus-supervisor".into())
            .spawn(move || supervisor_loop(set, ctx))
            .map_err(io_err)?
    };
    Ok((pool, supervisor))
}

fn spawn_accept(
    base: &ServerBase,
    sink: AcceptSink,
    capacity: usize,
    config: &ServerConfig,
) -> Result<JoinHandle<()>> {
    let listener = base.listener.try_clone().map_err(io_err)?;
    let shutdown = Arc::clone(&base.shutdown);
    let stats = Arc::clone(&base.stats);
    let active = Arc::clone(&base.active);
    let config = config.clone();
    std::thread::Builder::new()
        .name("fungus-accept".into())
        .spawn(move || accept_loop(listener, sink, shutdown, stats, active, capacity, config))
        .map_err(io_err)
}

fn serve_threaded(db: SharedDatabase, config: ServerConfig) -> Result<ServerHandle> {
    let base = bind_base(&db, &config)?;
    let workers = config.workers.max(1);
    let (conn_tx, conn_rx) = bounded::<TcpStream>(config.backlog.max(1));

    let ctx = WorkerCtx {
        source: ConnSource::Streams(conn_rx),
        db: db.clone(),
        shutdown: Arc::clone(&base.shutdown),
        stats: Arc::clone(&base.stats),
        active: Arc::clone(&base.active),
        sessions: Arc::clone(&base.sessions),
        config: config.clone(),
    };
    let (pool, supervisor) = spawn_pool(workers, &ctx)?;

    let driver = config.tick_period.map(|p| db.spawn_decay_driver(p));
    if let Some(driver) = &driver {
        base.stats.link_driver(driver.tick_counter());
    }

    let capacity = workers + config.backlog;
    let accept = spawn_accept(&base, AcceptSink::Pool(conn_tx), capacity, &config)?;

    Ok(ServerHandle {
        addr: base.addr,
        db,
        shutdown: base.shutdown,
        accept: Some(accept),
        workers: pool,
        supervisor: Some(supervisor),
        driver,
        stats: base.stats,
        checkpoint_dir: config.checkpoint_dir,
        #[cfg(unix)]
        reactors: Vec::new(),
    })
}

/// Starts the reactor-model server: N reactor threads multiplexing the
/// sessions, the shared worker pool draining decoded requests.
#[cfg(unix)]
fn serve_reactor(db: SharedDatabase, config: ServerConfig) -> Result<ServerHandle> {
    use crate::reactor::{self, Job, ReactorCtx, ReactorShared};

    let base = bind_base(&db, &config)?;
    let workers = config.workers.max(1);
    let (job_tx, job_rx) = bounded::<Job>(config.dispatch_depth.max(1));

    let force_poll = config.poller == PollerKind::Poll;
    let mut reactors = Vec::new();
    let mut shareds = Vec::new();
    for r in 0..config.reactor_threads.max(1) {
        let (shared, wake_rx) = ReactorShared::new().map_err(io_err)?;
        let poller = reactor::poller::new_poller(force_poll).map_err(io_err)?;
        let ctx = ReactorCtx {
            shared: Arc::clone(&shared),
            wake_rx,
            poller,
            db: db.clone(),
            stats: Arc::clone(&base.stats),
            shutdown: Arc::clone(&base.shutdown),
            active: Arc::clone(&base.active),
            jobs: job_tx.clone(),
            config: config.clone(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("fungus-reactor-{r}"))
            .spawn(move || reactor::reactor_loop(ctx))
            .map_err(io_err)?;
        shareds.push(Arc::clone(&shared));
        reactors.push((shared, handle));
    }
    // Reactors hold the only senders now: when the last reactor thread
    // exits, the job channel disconnects and idle workers drain out.
    drop(job_tx);

    let ctx = WorkerCtx {
        source: ConnSource::Jobs(job_rx),
        db: db.clone(),
        shutdown: Arc::clone(&base.shutdown),
        stats: Arc::clone(&base.stats),
        active: Arc::clone(&base.active),
        sessions: Arc::clone(&base.sessions),
        config: config.clone(),
    };
    let (pool, supervisor) = spawn_pool(workers, &ctx)?;

    let driver = config.tick_period.map(|p| db.spawn_decay_driver(p));
    if let Some(driver) = &driver {
        base.stats.link_driver(driver.tick_counter());
    }

    let sink = AcceptSink::Reactors {
        shareds,
        sessions: Arc::clone(&base.sessions),
        next: 0,
    };
    let accept = spawn_accept(&base, sink, config.max_sessions.max(1), &config)?;

    Ok(ServerHandle {
        addr: base.addr,
        db,
        shutdown: base.shutdown,
        accept: Some(accept),
        workers: pool,
        supervisor: Some(supervisor),
        driver,
        stats: base.stats,
        checkpoint_dir: config.checkpoint_dir,
        reactors,
    })
}

#[cfg(not(unix))]
fn serve_reactor(_db: SharedDatabase, _config: ServerConfig) -> Result<ServerHandle> {
    Err(FungusError::Io(
        "io_model = Reactor requires a unix host (poll/epoll)".into(),
    ))
}

fn spawn_worker(index: usize, generation: u64, ctx: WorkerCtx) -> Result<JoinHandle<()>> {
    let name = if generation == 0 {
        format!("fungus-worker-{index}")
    } else {
        format!("fungus-worker-{index}-g{generation}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(ctx))
        .map_err(io_err)
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared catalog behind the server.
    pub fn db(&self) -> &SharedDatabase {
        &self.db
    }

    /// Current counter values.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.stats.snapshot()
    }

    /// The live counter set (shared with every session).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Completed decay-driver ticks (0 without a driver).
    pub fn driver_ticks(&self) -> u64 {
        self.driver.as_ref().map(|d| d.ticks()).unwrap_or(0)
    }

    /// Drains and stops the server: no new connections, in-flight
    /// requests finish and flush, the pool joins, the decay driver stops,
    /// and a checkpoint is written when configured.
    pub fn shutdown(mut self) -> Result<ShutdownReport> {
        self.stop_threads();
        if let Some(driver) = self.driver.take() {
            driver.stop();
        }
        let mut checkpointed = false;
        if let Some(dir) = self.checkpoint_dir.take() {
            self.db.checkpoint(dir)?;
            checkpointed = true;
        }
        Ok(ShutdownReport {
            metrics: self.stats.snapshot(),
            checkpointed,
        })
    }

    fn stop_threads(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Reactors drain before the pool joins: their in-flight jobs need
        // live workers to complete, and their exit is what disconnects
        // the job channel and releases idle workers.
        #[cfg(unix)]
        for (shared, handle) in self.reactors.drain(..) {
            shared.wake();
            let _ = handle.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        for slot in self.workers.lock().drain(..) {
            let _ = slot.handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Where the accept loop hands admitted sockets.
enum AcceptSink {
    /// Threaded model: the worker pool's connection queue.
    Pool(Sender<TcpStream>),
    /// Reactor model: enroll round-robin across the reactor threads,
    /// assigning the session id at admission.
    #[cfg(unix)]
    Reactors {
        shareds: Vec<Arc<crate::reactor::ReactorShared>>,
        sessions: Arc<AtomicU64>,
        next: usize,
    },
}

/// Configures an accepted socket for its I/O model — the single place
/// socket modes are decided. The threaded path needs a *blocking* socket
/// with a sliced read timeout (accepted fds may inherit the listener's
/// nonblocking flag on some platforms); the reactor needs it nonblocking
/// with no timeouts (the poller is the timeout).
fn prepare_stream(stream: &TcpStream, config: &ServerConfig) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    match config.io_model {
        IoModel::Threaded => {
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(POLL_SLICE))?;
            stream.set_write_timeout(Some(config.write_timeout))?;
        }
        IoModel::Reactor => {
            stream.set_nonblocking(true)?;
        }
    }
    Ok(())
}

fn accept_loop(
    listener: TcpListener,
    mut sink: AcceptSink,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    active: Arc<AtomicUsize>,
    capacity: usize,
    config: ServerConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if active.load(Ordering::SeqCst) >= capacity {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    reject(stream);
                    continue;
                }
                if prepare_stream(&stream, &config).is_err() {
                    // The socket died between accept and setup.
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                match &mut sink {
                    AcceptSink::Pool(tx) => {
                        if tx.send(stream).is_err() {
                            // Pool already gone (shutdown raced us).
                            active.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                    }
                    #[cfg(unix)]
                    AcceptSink::Reactors {
                        shareds,
                        sessions,
                        next,
                    } => {
                        // lint: allow(atomics, "id allocator: only RMW atomicity is needed, ids are unique under any ordering")
                        let id = sessions.fetch_add(1, Ordering::Relaxed) + 1;
                        shareds[*next].enroll(stream, id);
                        *next = (*next + 1) % shareds.len();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Dropping the sink closes the threaded model's channel; workers exit
    // after their current connection drains. (Reactor enrolment queues
    // are drained and refused by the reactors' own shutdown path.)
}

/// Tells an over-capacity client why it is being turned away. The socket
/// has not been through [`prepare_stream`] — force it blocking so the
/// one-shot write works under either I/O model.
fn reject(mut stream: TcpStream) {
    let resp = Response::Error {
        code: ErrorCode::Unavailable,
        message: "server at connection capacity".into(),
    };
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if let Ok(payload) = resp.encode() {
        let _ = frame::write_frame(&mut stream, &payload);
    }
}

/// Joins workers that died, counts their panics, and spawns replacements
/// so the pool never shrinks. A worker that *returns* (clean exit during
/// shutdown, or channel closed) is not replaced — only panics are.
fn supervisor_loop(workers: WorkerSet, ctx: WorkerCtx) {
    let mut generation = 0u64;
    while !ctx.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(POLL_SLICE);
        let mut set = workers.lock();
        let mut i = 0;
        while i < set.len() {
            if !set[i].handle.is_finished() {
                i += 1;
                continue;
            }
            let slot = set.remove(i);
            let panicked = slot.handle.join().is_err();
            if !panicked {
                // Clean exit: shutdown (or a closed channel) is draining
                // the pool; nothing to replace.
                continue;
            }
            ctx.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            if ctx.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            generation += 1;
            if let Ok(handle) = spawn_worker(slot.index, generation, ctx.clone()) {
                ctx.stats.workers_respawned.fetch_add(1, Ordering::Relaxed);
                set.push(WorkerSlot {
                    index: slot.index,
                    handle,
                });
            }
        }
    }
}

/// Decrements the active-connection count when the connection ends — by
/// any exit, including a panic unwinding the worker, so a killed worker
/// never leaks capacity.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(ctx: WorkerCtx) {
    match ctx.source.clone() {
        ConnSource::Streams(rx) => stream_loop(&rx, &ctx),
        #[cfg(unix)]
        ConnSource::Jobs(rx) => crate::reactor::job_loop(&rx, &ctx.shutdown),
    }
}

fn stream_loop(rx: &Receiver<TcpStream>, ctx: &WorkerCtx) {
    loop {
        match rx.recv_timeout(POLL_SLICE) {
            Ok(stream) => {
                let _guard = ActiveGuard(Arc::clone(&ctx.active));
                // lint: allow(atomics, "id allocator: only RMW atomicity is needed, ids are unique under any ordering")
                let id = ctx.sessions.fetch_add(1, Ordering::Relaxed) + 1;
                let session = Session::new(id, ctx.db.clone()).with_stats(Arc::clone(&ctx.stats));
                handle_connection(stream, id, session, ctx);
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                if ctx.shutdown.load(Ordering::SeqCst) && rx.is_empty() {
                    return;
                }
            }
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Applies the fault plan and serves the frame loop (the socket was
/// configured by [`prepare_stream`] at accept time). An injected worker
/// panic deliberately escapes this function — the supervisor's respawn
/// path is part of what the chaos suite tests.
fn handle_connection(stream: TcpStream, id: u64, session: Session, ctx: &WorkerCtx) {
    match &ctx.config.fault_plan {
        Some(plan) => {
            let schedule = plan.schedule_for(id);
            if schedule.panics_worker() {
                // The unwind drops the stream (client sees a reset) and
                // the ActiveGuard (capacity restored); the supervisor
                // counts the corpse and respawns the worker.
                // lint: allow(panic, "injected fault: the supervisor's respawn path is under test")
                panic!(
                    "injected worker panic on connection {id} (fault seed {})",
                    plan.seed()
                );
            }
            if plan.wraps_streams() {
                let mut faulty = Faulty::new(stream, schedule);
                serve_connection(&mut faulty, session, &ctx.shutdown, &ctx.stats, &ctx.config);
                ctx.stats.add_faults(faulty.injected());
            } else {
                let mut stream = stream;
                serve_connection(&mut stream, session, &ctx.shutdown, &ctx.stats, &ctx.config);
            }
        }
        None => {
            let mut stream = stream;
            serve_connection(&mut stream, session, &ctx.shutdown, &ctx.stats, &ctx.config);
        }
    }
}

/// Outcome of trying to read one frame within a poll slice.
enum ReadStep {
    Frame(Vec<u8>),
    Eof,
    Idle,
    Failed(FrameError),
}

fn serve_connection<S: Read + Write>(
    stream: &mut S,
    mut session: Session,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    let mut pump = FramePump::new();
    loop {
        match read_step(stream, &mut pump, config.read_timeout) {
            ReadStep::Idle => {
                // Between frames: an idle client is fine, but shutdown
                // means we stop waiting for it.
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            ReadStep::Eof => return,
            ReadStep::Failed(err) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                // Best effort: the stream may no longer be writable, and
                // after a framing error it is not re-usable anyway.
                if let Ok(payload) = Response::from_frame_error(&err).encode() {
                    let _ = frame::write_frame(stream, &payload);
                }
                return;
            }
            ReadStep::Frame(payload) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let response = match Request::decode(&payload) {
                    Ok(request) => session.handle(request),
                    Err(err) => Response::from_error(&err),
                };
                if response.is_error() {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                let fallback = Response::Error {
                    code: ErrorCode::Execution,
                    message: "response serialisation failed".into(),
                };
                let payload = match response.encode().or_else(|_| fallback.encode()) {
                    Ok(p) => p,
                    // Even the static fallback failed to encode: the
                    // connection is unanswerable; close it rather than
                    // crash the worker.
                    Err(_) => return,
                };
                if frame::write_frame(stream, &payload).is_err() {
                    return;
                }
                stats.responses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Reads one frame through the shared incremental [`FramePump`] — the
/// same pump the reactor's state machines and the chaos reference drain
/// run — waking every [`POLL_SLICE`] while idle.
///
/// Waiting between frames returns [`ReadStep::Idle`] each slice so the
/// caller can check the shutdown flag — an idle session may sit for
/// hours. Once a frame has started, the rest must follow within
/// `read_timeout` (slow-loris defence) or the stranded bytes become a
/// typed truncation. The pump persists across calls, so a read that
/// straddles frame boundaries loses nothing.
fn read_step<S: Read>(stream: &mut S, pump: &mut FramePump, read_timeout: Duration) -> ReadStep {
    // A whole frame may already be buffered from the previous slice.
    match pump.next_frame() {
        Ok(Some(frame)) => return ReadStep::Frame(frame.to_vec()),
        Ok(None) => {}
        Err(e) => return ReadStep::Failed(e),
    }
    // lint: allow(determinism, "socket timeout deadlines are wall-clock by definition")
    let started = Instant::now();
    loop {
        match pump.pump(stream) {
            PumpStep::Fed(_) => match pump.next_frame() {
                Ok(Some(frame)) => return ReadStep::Frame(frame.to_vec()),
                Ok(None) => {
                    if started.elapsed() >= read_timeout {
                        return match pump.truncation() {
                            Some(e) => ReadStep::Failed(e),
                            None => ReadStep::Idle,
                        };
                    }
                }
                Err(e) => return ReadStep::Failed(e),
            },
            PumpStep::Eof => {
                return match pump.truncation() {
                    Some(e) => ReadStep::Failed(e),
                    None => ReadStep::Eof,
                }
            }
            PumpStep::Blocked => {
                // The socket read timeout fires about every POLL_SLICE;
                // injected WouldBlocks from a fault schedule land here too.
                if !pump.mid_frame() {
                    return ReadStep::Idle;
                }
                if started.elapsed() >= read_timeout {
                    return match pump.truncation() {
                        Some(e) => ReadStep::Failed(e),
                        None => ReadStep::Idle,
                    };
                }
            }
            PumpStep::Failed(e) => return ReadStep::Failed(e),
        }
    }
}

fn io_err(e: std::io::Error) -> FungusError {
    FungusError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError, RetryPolicy};
    use crate::protocol::{ErrorCode, Response};
    use fungus_core::Database;

    fn test_db() -> SharedDatabase {
        let db = SharedDatabase::new(Database::new(5));
        db.execute_ddl("CREATE CONTAINER r (v INT) WITH FUNGUS ttl(100)")
            .unwrap();
        db
    }

    #[test]
    fn end_to_end_sql_over_loopback() {
        let handle = serve(test_db(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        let r = client.sql("INSERT INTO r VALUES (1), (2), (3)").unwrap();
        assert!(!r.is_error(), "{r:?}");
        let r = client.sql("SELECT * FROM r WHERE v >= 2 CONSUME").unwrap();
        assert_eq!(r.row_count(), Some(2));
        let r = client.dot(".containers").unwrap();
        assert_eq!(r.row_count(), Some(1));
        client.close();
        let report = handle.shutdown().unwrap();
        assert_eq!(report.metrics.requests, report.metrics.responses);
        assert_eq!(report.metrics.requests, 4);
        assert_eq!(report.metrics.errors, 0);
    }

    #[test]
    fn sessions_are_isolated_but_share_the_catalog() {
        let handle = serve(test_db(), ServerConfig::default()).unwrap();
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        a.sql("INSERT INTO r VALUES (7)").unwrap();
        let r = b.sql("SELECT COUNT(*) FROM r").unwrap();
        match r {
            Response::Rows { rows, .. } => {
                assert_eq!(rows[0][0], fungus_types::Value::Int(1));
            }
            other => panic!("{other:?}"),
        }
        // Distinct sessions: each has its own id in `.session`.
        let ra = a.dot(".session").unwrap();
        let rb = b.dot(".session").unwrap();
        assert_ne!(ra, rb);
        a.close();
        b.close();
        handle.shutdown().unwrap();
    }

    #[test]
    fn capacity_overflow_is_rejected_with_a_typed_error() {
        let config = ServerConfig {
            workers: 1,
            backlog: 1,
            ..ServerConfig::default()
        };
        let handle = serve(test_db(), config).unwrap();
        // Fill the single worker and the single backlog slot.
        let c1 = Client::connect(handle.addr()).unwrap();
        let c2 = Client::connect(handle.addr()).unwrap();
        // Give the accept loop time to hand off both.
        std::thread::sleep(Duration::from_millis(100));
        let mut c3 = Client::connect(handle.addr()).unwrap();
        match c3.ping() {
            Err(ClientError::Protocol(_)) | Err(ClientError::Disconnected) => {}
            Ok(()) => panic!("third connection should have been rejected"),
            Err(ClientError::Frame(_)) => {} // reset before the reply arrived
            Err(ClientError::RetriesExhausted { .. }) => {}
        }
        drop(c3);
        c1.close();
        c2.close();
        let report = handle.shutdown().unwrap();
        assert!(report.metrics.rejected >= 1, "{:?}", report.metrics);
    }

    #[test]
    fn malformed_frames_get_a_protocol_error_not_a_crash() {
        let handle = serve(test_db(), ServerConfig::default()).unwrap();
        // A raw socket speaking garbage: oversized length prefix.
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        raw.flush().unwrap();
        // The server answers with a typed protocol error, then hangs up.
        // (Acceptable alternate: connection reset before we read.)
        if let Ok(Some(payload)) = frame::read_frame(&mut raw) {
            let resp = Response::decode(&payload).unwrap();
            assert!(matches!(
                resp,
                Response::Error {
                    code: ErrorCode::Protocol,
                    ..
                }
            ));
        }
        drop(raw);
        // The server is still healthy for well-formed clients.
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        client.close();
        handle.shutdown().unwrap();
    }

    #[test]
    fn decay_driver_ticks_under_the_server() {
        let config = ServerConfig {
            tick_period: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        };
        let handle = serve(test_db(), config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.sql("INSERT INTO r VALUES (1)").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let now = handle.db().now();
        assert!(now.get() >= 10, "decay clock stuck at {now:?}");
        assert!(handle.driver_ticks() >= 10, "driver tick counter stuck");
        client.close();
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_flushes_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("fungus-srv-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let handle = serve(test_db(), config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.sql("INSERT INTO r VALUES (1), (2)").unwrap();
        client.close();
        let report = handle.shutdown().unwrap();
        assert!(report.checkpointed);
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join("r.shard-0.snap").exists());

        // The checkpoint restores into a fresh database.
        let mut restored = Database::new(5);
        restored.restore_checkpoint(&dir).unwrap();
        assert_eq!(restored.container("r").unwrap().read().live_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker scheduled to die takes only its own connection with it:
    /// the supervisor respawns the worker, the counters record the death,
    /// and the very next connection is served normally.
    #[test]
    fn worker_panic_is_isolated_and_respawned() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let config = ServerConfig {
            workers: 2,
            // Doom the worker handling connection 1; no stream faults.
            fault_plan: Some(FaultPlan::new(77).with_worker_panic_on(1)),
            ..ServerConfig::default()
        };
        let handle = serve(test_db(), config).unwrap();

        // Connection 1: its worker dies; the client sees a dead socket,
        // not a valid response.
        let mut doomed = Client::connect(handle.addr()).unwrap();
        assert!(doomed.ping().is_err(), "doomed connection answered");
        drop(doomed);

        // Wait for the supervisor to notice and respawn.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.metrics().workers_respawned < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        std::panic::set_hook(prev);
        let m = handle.metrics();
        assert_eq!(m.worker_panics, 1, "{m:?}");
        assert_eq!(m.workers_respawned, 1, "{m:?}");

        // The pool is whole again: two fresh connections both work.
        let mut a = Client::connect(handle.addr()).unwrap();
        let mut b = Client::connect(handle.addr()).unwrap();
        a.ping().unwrap();
        b.ping().unwrap();
        a.close();
        b.close();
        handle.shutdown().unwrap();
    }

    /// Stream faults tear frames and drop connections, but a retrying
    /// client gets every idempotent request through, and the server's
    /// protocol handling never corrupts a response.
    #[test]
    fn faulty_streams_are_survivable_with_retry() {
        let config = ServerConfig {
            fault_plan: Some(
                FaultPlan::new(21)
                    .with_torn_writes(0.10)
                    .with_disconnects(0.05)
                    .with_transients(0.10),
            ),
            ..ServerConfig::default()
        };
        let handle = serve(test_db(), config).unwrap();
        let mut client = Client::connect_with_retry(
            handle.addr(),
            RetryPolicy::new(99)
                .with_max_attempts(8)
                .with_base_delay(Duration::from_millis(1)),
        )
        .unwrap();

        let mut ok = 0u32;
        for _ in 0..50 {
            // Idempotent probes: every one must eventually succeed.
            let resp = client.dot(".containers").expect("retry exhausted");
            assert_eq!(resp.row_count(), Some(1), "corrupted response");
            ok += 1;
        }
        assert_eq!(ok, 50);
        let stats = client.stats();
        client.close();
        let report = handle.shutdown().unwrap();
        assert!(
            report.metrics.faults_injected > 0,
            "plan injected nothing: {:?}",
            report.metrics
        );
        // The client felt the faults (retries happened) but hid them.
        assert!(stats.retries > 0, "suspiciously clean run: {stats:?}");
    }
}
