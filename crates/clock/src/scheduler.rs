//! The periodic decay scheduler.
//!
//! [`TickScheduler`] owns the virtual clock and a set of [`Task`]s — the
//! decay passes of each container's fungus, distillation flushes, health
//! probes. On every tick it fires all tasks whose period divides the tick,
//! in ascending priority order (so decay runs before the health probe that
//! measures it).
//!
//! Two driving modes:
//!
//! * **manual stepping** via [`TickScheduler::step`] — experiments advance
//!   virtual time themselves, fully deterministically;
//! * **background driving** via [`TickScheduler::spawn_driver`] — a thread
//!   ticks at a wall-clock interval (binding the virtual period `T` to real
//!   seconds), until the returned handle is stopped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use fungus_lint_rt::{hierarchy, OrderedMutex};

use fungus_types::{Tick, TickDelta};

use crate::clock::VirtualClock;

/// A periodic unit of work fired by the scheduler.
pub struct Task {
    /// Human-readable name for traces and error messages.
    pub name: String,
    /// Fire every `period` ticks (must be ≥ 1).
    pub period: TickDelta,
    /// Lower priorities fire first within a tick.
    pub priority: i32,
    /// The work itself, given the tick at which it fires.
    pub action: Box<dyn FnMut(Tick) + Send>,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name)
            .field("period", &self.period)
            .field("priority", &self.priority)
            .finish_non_exhaustive()
    }
}

/// Identifies a registered task so it can be removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(u64);

struct Registered {
    handle: TaskHandle,
    task: Task,
}

struct Inner {
    tasks: Vec<Registered>,
    next_handle: u64,
}

/// Fires registered periodic tasks as virtual time advances.
pub struct TickScheduler {
    clock: VirtualClock,
    inner: Arc<OrderedMutex<Inner>>,
}

impl TickScheduler {
    /// A scheduler over the given clock.
    pub fn new(clock: VirtualClock) -> Self {
        TickScheduler {
            clock,
            inner: Arc::new(OrderedMutex::new(
                &hierarchy::SCHEDULER,
                Inner {
                    tasks: Vec::new(),
                    next_handle: 0,
                },
            )),
        }
    }

    /// The scheduler's clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Registers a task. Periods of zero are promoted to one (every tick).
    pub fn register(&self, mut task: Task) -> TaskHandle {
        if task.period.get() == 0 {
            task.period = TickDelta(1);
        }
        let mut inner = self.inner.lock();
        let handle = TaskHandle(inner.next_handle);
        inner.next_handle += 1;
        inner.tasks.push(Registered { handle, task });
        // Keep the list priority-sorted so step() fires in order without a
        // per-tick sort. Stable sort preserves registration order among
        // equal priorities.
        inner.tasks.sort_by_key(|r| r.task.priority);
        handle
    }

    /// Convenience: registers a closure firing every `period` ticks at
    /// priority 0.
    pub fn every(
        &self,
        name: impl Into<String>,
        period: TickDelta,
        action: impl FnMut(Tick) + Send + 'static,
    ) -> TaskHandle {
        self.register(Task {
            name: name.into(),
            period,
            priority: 0,
            action: Box::new(action),
        })
    }

    /// Removes a task; returns true if it was present.
    pub fn unregister(&self, handle: TaskHandle) -> bool {
        let mut inner = self.inner.lock();
        let before = inner.tasks.len();
        inner.tasks.retain(|r| r.handle != handle);
        inner.tasks.len() != before
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.inner.lock().tasks.len()
    }

    /// Advances the clock by one tick and fires all tasks due at it.
    /// Returns the new time.
    pub fn step(&self) -> Tick {
        let now = self.clock.tick();
        let mut inner = self.inner.lock();
        for reg in inner.tasks.iter_mut() {
            if now.get().is_multiple_of(reg.task.period.get()) {
                (reg.task.action)(now);
            }
        }
        now
    }

    /// Advances the clock by `n` ticks, firing due tasks at each.
    pub fn step_n(&self, n: u64) -> Tick {
        let mut now = self.clock.now();
        for _ in 0..n {
            now = self.step();
        }
        now
    }

    /// Spawns a thread that calls [`step`](Self::step) every `real_period`
    /// of wall time until the returned handle is dropped or stopped. This
    /// binds the paper's "T seconds" to wall time for live deployments.
    ///
    /// Tick *k* is due at `start + k·real_period`, however long the tasks
    /// take: a driver that falls behind runs the next tick at once,
    /// checking for a stop request between ticks, so slow ticks delay
    /// decay but never slow its rate. A tick that starts after the
    /// *following* tick's deadline is counted behind
    /// [`DriverHandle::late_ticks`].
    ///
    /// The driver is the maintenance heartbeat of the whole system — Law 1
    /// says decay proceeds no matter what clients do — so it must not die
    /// with whatever code it calls into: each task action runs inside
    /// `catch_unwind`, a panicking task is skipped for that tick (and
    /// counted on the handle), and the clock keeps advancing. Every
    /// completed driver tick increments the counter behind
    /// [`DriverHandle::ticks`], which lets callers distinguish
    /// driver-driven time from manual `.tick`-style stepping.
    pub fn spawn_driver(&self, real_period: Duration) -> DriverHandle {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let clock = self.clock.clone();
        let inner = Arc::clone(&self.inner);
        let ticks = Arc::new(AtomicU64::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let late = Arc::new(AtomicU64::new(0));
        let tick_count = Arc::clone(&ticks);
        let panic_count = Arc::clone(&panics);
        let late_count = Arc::clone(&late);
        let join = std::thread::Builder::new()
            .name("fungus-decay-driver".into())
            .spawn(move || {
                let mut deadline = Instant::now();
                loop {
                    deadline += real_period;
                    let wait = deadline.saturating_duration_since(Instant::now());
                    // A zero wait still sees a pending stop request.
                    match stop_rx.recv_timeout(wait) {
                        Err(RecvTimeoutError::Timeout) => {}
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    }
                    if Instant::now() > deadline + real_period {
                        late_count.fetch_add(1, Ordering::Release);
                    }
                    drive_tick(&clock, &inner, &panic_count);
                    tick_count.fetch_add(1, Ordering::Release);
                }
            })
            .expect("spawn decay driver thread");
        DriverHandle {
            stop: Some(stop_tx),
            join: Some(join),
            ticks,
            panics,
            late,
        }
    }
}

/// One driver tick: advances the clock and fires every task due at the
/// new time, isolating (and counting) task panics.
fn drive_tick(clock: &VirtualClock, inner: &OrderedMutex<Inner>, panic_count: &AtomicU64) {
    let now = clock.tick();
    let mut inner = inner.lock();
    for reg in inner.tasks.iter_mut() {
        if now.get().is_multiple_of(reg.task.period.get()) {
            let action = std::panic::AssertUnwindSafe(|| (reg.task.action)(now));
            if std::panic::catch_unwind(action).is_err() {
                // Release: a thread that observes the count also observes
                // the tick that produced it.
                panic_count.fetch_add(1, Ordering::Release);
            }
        }
    }
}

/// Stops the background driver thread when dropped or explicitly stopped.
pub struct DriverHandle {
    stop: Option<Sender<()>>,
    join: Option<JoinHandle<()>>,
    ticks: Arc<AtomicU64>,
    panics: Arc<AtomicU64>,
    late: Arc<AtomicU64>,
}

impl DriverHandle {
    /// Ticks the driver thread has completed (manual [`TickScheduler::step`]
    /// calls do not count — only the wall-clock thread increments this).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }

    /// Shared counter behind [`ticks`](Self::ticks), for callers (e.g. a
    /// server's stats surface) that outlive their borrow of the handle.
    pub fn tick_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.ticks)
    }

    /// Task actions that panicked and were isolated (tick still completed).
    pub fn task_panics(&self) -> u64 {
        self.panics.load(Ordering::Acquire)
    }

    /// Ticks that started after the following tick was already due: the
    /// driver was more than a whole period behind its schedule.
    pub fn late_ticks(&self) -> u64 {
        self.late.load(Ordering::Acquire)
    }

    /// Stops the driver and waits for the thread to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tasks_fire_on_their_period() {
        let sched = TickScheduler::new(VirtualClock::new());
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        sched.every("every-3", TickDelta(3), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        sched.step_n(9);
        assert_eq!(count.load(Ordering::Relaxed), 3, "fires at t3, t6, t9");
    }

    #[test]
    fn zero_period_means_every_tick() {
        let sched = TickScheduler::new(VirtualClock::new());
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        sched.every("z", TickDelta(0), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        sched.step_n(4);
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn priority_orders_firing_within_a_tick() {
        let sched = TickScheduler::new(VirtualClock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        // Register the high-priority-number (later) task first to prove
        // sorting, not registration order, decides.
        sched.register(Task {
            name: "late".into(),
            period: TickDelta(1),
            priority: 10,
            action: Box::new(move |_| o1.lock().push("late")),
        });
        sched.register(Task {
            name: "early".into(),
            period: TickDelta(1),
            priority: -10,
            action: Box::new(move |_| o2.lock().push("early")),
        });
        sched.step();
        assert_eq!(*order.lock(), vec!["early", "late"]);
    }

    #[test]
    fn unregister_removes_task() {
        let sched = TickScheduler::new(VirtualClock::new());
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let h = sched.every("x", TickDelta(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        sched.step();
        assert!(sched.unregister(h));
        assert!(!sched.unregister(h), "second removal is a no-op");
        sched.step();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(sched.task_count(), 0);
    }

    #[test]
    fn step_reports_new_time_and_passes_tick() {
        let sched = TickScheduler::new(VirtualClock::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        sched.every("t", TickDelta(2), move |t| s.lock().push(t));
        let now = sched.step_n(4);
        assert_eq!(now, Tick(4));
        assert_eq!(*seen.lock(), vec![Tick(2), Tick(4)]);
    }

    #[test]
    fn driver_survives_panicking_tasks() {
        // Quiet hook: the injected panics below are intentional.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));

        let sched = TickScheduler::new(VirtualClock::new());
        let healthy = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&healthy);
        sched.every("bomb", TickDelta(1), move |t| {
            if t.get() % 2 == 1 {
                panic!("injected task panic at {t:?}");
            }
        });
        sched.every("healthy", TickDelta(1), move |_| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let driver = sched.spawn_driver(Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while healthy.load(Ordering::Relaxed) < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticks = driver.ticks();
        let panics = driver.task_panics();
        driver.stop();
        std::panic::set_hook(prev);

        assert!(
            ticks >= 6,
            "driver stalled after a task panic: {ticks} ticks"
        );
        assert!(panics >= 3, "panics not isolated/counted: {panics}");
        // The healthy task kept firing on every tick despite its
        // neighbour blowing up on odd ticks.
        assert!(healthy.load(Ordering::Relaxed) >= 6);
    }

    #[test]
    fn driver_keeps_its_rate_when_ticks_take_most_of_a_period() {
        // 7 ms of work in a 10 ms period: a driver that waits a whole
        // period after each tick's work would manage only 10/17 of the
        // scheduled ticks.
        let sched = TickScheduler::new(VirtualClock::new());
        sched.every("slow", TickDelta(1), |_| {
            std::thread::sleep(Duration::from_millis(7));
        });
        let period = Duration::from_millis(10);
        let started = std::time::Instant::now();
        let driver = sched.spawn_driver(period);
        std::thread::sleep(Duration::from_millis(400));
        let elapsed = started.elapsed();
        let ticks = driver.ticks();
        driver.stop();
        let scheduled = elapsed.as_secs_f64() / period.as_secs_f64();
        assert!(
            ticks as f64 >= 0.8 * scheduled,
            "{ticks} ticks in {elapsed:?}, {scheduled:.1} scheduled"
        );
    }

    #[test]
    fn ticks_longer_than_two_periods_are_counted_late() {
        // Every tick after the first starts past the next tick's deadline.
        let sched = TickScheduler::new(VirtualClock::new());
        sched.every("slower", TickDelta(1), |_| {
            std::thread::sleep(Duration::from_millis(5));
        });
        let driver = sched.spawn_driver(Duration::from_millis(2));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while driver.ticks() < 6 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ticks = driver.ticks();
        let late = driver.late_ticks();
        driver.stop();
        assert!(ticks >= 6, "driver ticked {ticks} times");
        assert!(late + 1 >= ticks, "{late} late of {ticks} ticks");
    }

    #[test]
    fn background_driver_ticks_and_stops() {
        let sched = TickScheduler::new(VirtualClock::new());
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        sched.every("bg", TickDelta(1), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let driver = sched.spawn_driver(Duration::from_millis(1));
        // Wait for at least a few ticks.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while count.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        driver.stop();
        let after = count.load(Ordering::Relaxed);
        assert!(after >= 3, "driver ticked {after} times");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(count.load(Ordering::Relaxed), after, "no ticks after stop");
    }
}
