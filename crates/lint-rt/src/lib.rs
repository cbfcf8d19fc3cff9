//! Runtime lock-order validation.
//!
//! The workspace declares one global lock hierarchy (mirrored statically
//! in `lint.toml` and checked at CI time by `fungus-lint`): every lock
//! belongs to a [`LockClass`] with a rank, and a thread may only acquire
//! a lock whose rank is **strictly greater** than every rank it already
//! holds. Any acyclic acquisition order embeds into such a ranking, so a
//! run that never trips the assertion can never have deadlocked on these
//! locks.
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] wrap their `parking_lot`
//! counterparts. In debug builds (`cfg(debug_assertions)` — the
//! configuration `cargo test` and the chaos suite run under) every
//! acquisition is checked against a per-thread held-lock set *before*
//! blocking, so a would-be deadlock is reported even on interleavings
//! where it happens not to bite. Release builds compile the tracking away
//! entirely: the wrappers are `#[repr(transparent)]`-in-spirit shims with
//! no extra state touched on the lock path.
//!
//! The classes themselves live in [`hierarchy`]; `fungus-lint` asserts
//! that the ranks declared there and the ones in `lint.toml` agree, so
//! the static model and the runtime validator cannot drift apart.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// One level of the declared lock hierarchy.
#[derive(Debug)]
pub struct LockClass {
    /// Stable name, matching the class name in `lint.toml`.
    pub name: &'static str,
    /// Position in the hierarchy; acquisitions must strictly ascend.
    pub rank: u16,
}

/// The workspace's declared hierarchy, outermost first. Ranks are spaced
/// so a future class can slot between two existing ones without renumbering.
pub mod hierarchy {
    use super::LockClass;

    /// The `SharedDatabase` catalog `RwLock` — the outermost lock: taken
    /// at the edge (server session, embedding API) before anything else.
    pub static CATALOG: LockClass = LockClass {
        name: "Database.catalog",
        rank: 10,
    };
    /// The server supervisor's worker-slot set.
    pub static WORKERS: LockClass = LockClass {
        name: "Server.workers",
        rank: 15,
    };
    /// A reactor's enrolment queue: the accept thread parks freshly
    /// accepted sockets here; the reactor thread drains it on wake.
    /// Never nested with any other lock on either side.
    pub static REACTOR_REGISTRY: LockClass = LockClass {
        name: "Reactor.registry",
        rank: 16,
    };
    /// A reactor's completion queue: workers park finished jobs here
    /// (and the poison guard parks corpses); the reactor thread drains
    /// it on wake. Never nested with any other lock on either side.
    pub static REACTOR_COMPLETIONS: LockClass = LockClass {
        name: "Reactor.completions",
        rank: 18,
    };
    /// The tick scheduler's task registry; held while decay tasks fire.
    pub static SCHEDULER: LockClass = LockClass {
        name: "Scheduler.tasks",
        rank: 20,
    };
    /// A container's rot-route table; read while delivering departures.
    pub static ROUTES: LockClass = LockClass {
        name: "Database.routes",
        rank: 25,
    };
    /// Per-container extent locks. The decay path releases the source
    /// container before routing, so no thread holds two at once.
    pub static CONTAINERS: LockClass = LockClass {
        name: "Database.containers",
        rank: 30,
    };
    /// A container's deferred-touch queue: snapshot readers push access
    /// write-backs here (under the catalog lock only); the container's
    /// decay pass drains it under the container lock before its fungus
    /// runs.
    pub static MVCC_TOUCHES: LockClass = LockClass {
        name: "Mvcc.touches",
        rank: 44,
    };
    /// The published-snapshot head of a container's epoch cell. Readers
    /// take it only long enough to clone the `Arc`; publishers swap it
    /// under the container lock.
    pub static MVCC_VERSIONS: LockClass = LockClass {
        name: "Mvcc.versions",
        rank: 45,
    };
    /// The retired-version list of an epoch cell, swept at publish and on
    /// gauge reads (a leaf below the snapshot head).
    pub static MVCC_RETIRED: LockClass = LockClass {
        name: "Mvcc.retired",
        rank: 46,
    };
    /// `ServerStats` link cells (decay-driver counter, catalog handle).
    /// Leaves: a guard must never be held across a catalog call.
    pub static STATS: LockClass = LockClass {
        name: "ServerStats.links",
        rank: 60,
    };

    /// Every class, outermost first.
    pub static ALL: &[&LockClass] = &[
        &CATALOG,
        &WORKERS,
        &REACTOR_REGISTRY,
        &REACTOR_COMPLETIONS,
        &SCHEDULER,
        &ROUTES,
        &CONTAINERS,
        &MVCC_TOUCHES,
        &MVCC_VERSIONS,
        &MVCC_RETIRED,
        &STATS,
    ];
}

#[cfg(debug_assertions)]
mod track {
    use super::LockClass;
    use std::cell::{Cell, RefCell};

    struct Held {
        rank: u16,
        name: &'static str,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    }

    /// Validates the acquisition against this thread's held set and
    /// records it. Called *before* blocking on the underlying lock, so a
    /// would-be deadlock is reported even when the timing lets it through.
    pub(super) fn acquire(class: &'static LockClass) -> u64 {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(max) = held.iter().map(|h| h.rank).max() {
                if class.rank <= max {
                    let stack: Vec<&str> = held.iter().map(|h| h.name).collect();
                    panic!(
                        "lock-order violation: acquiring `{}` (rank {}) while holding \
                         {stack:?} (max rank {max}); the declared hierarchy requires \
                         strictly ascending ranks",
                        class.name, class.rank,
                    );
                }
            }
            let token = NEXT_TOKEN.with(|n| {
                let t = n.get();
                n.set(t.wrapping_add(1));
                t
            });
            held.push(Held {
                rank: class.rank,
                name: class.name,
                token,
            });
            token
        })
    }

    pub(super) fn release(token: u64) {
        // Guards may be dropped out of acquisition order, so remove by
        // token rather than popping.
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == token) {
                held.remove(pos);
            }
        });
    }

    /// RAII registration of one acquisition.
    pub(super) struct Token(u64);

    impl Token {
        pub(super) fn new(class: &'static LockClass) -> Token {
            Token(acquire(class))
        }
    }

    impl Drop for Token {
        fn drop(&mut self) {
            release(self.0);
        }
    }
}

/// A [`parking_lot::Mutex`] whose acquisitions are checked against the
/// declared hierarchy in debug builds.
pub struct OrderedMutex<T> {
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A mutex belonging to `class`.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        OrderedMutex {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// The class this lock was declared under.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquires the mutex, asserting the hierarchy first (debug only).
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = track::Token::new(self.class);
        OrderedMutexGuard {
            guard: self.inner.lock(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Guard for [`OrderedMutex`]; unregisters the acquisition on drop.
pub struct OrderedMutexGuard<'a, T> {
    // Field order matters: the lock is released before the held-set entry
    // is removed, so the entry can never be missing while the lock is held.
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: track::Token,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] whose acquisitions are checked against the
/// declared hierarchy in debug builds. Read and write acquisitions rank
/// identically: the hierarchy orders *locks*, not access modes.
pub struct OrderedRwLock<T> {
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// An rwlock belonging to `class`.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        OrderedRwLock {
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// The class this lock was declared under.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquires shared access, asserting the hierarchy first (debug only).
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = track::Token::new(self.class);
        OrderedRwLockReadGuard {
            guard: self.inner.read(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Acquires exclusive access, asserting the hierarchy first (debug only).
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = track::Token::new(self.class);
        OrderedRwLockWriteGuard {
            guard: self.inner.write(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T> {
    guard: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: track::Token,
}

impl<T> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T> {
    guard: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: track::Token,
}

impl<T> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static OUTER: LockClass = LockClass {
        name: "test.outer",
        rank: 1,
    };
    static INNER: LockClass = LockClass {
        name: "test.inner",
        rank: 2,
    };
    static LEAF: LockClass = LockClass {
        name: "test.leaf",
        rank: 3,
    };

    #[test]
    fn ascending_acquisition_is_legal() {
        let a = OrderedMutex::new(&OUTER, 1);
        let b = OrderedRwLock::new(&INNER, 2);
        let ga = a.lock();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        // Re-acquisition after release is fine in any order.
        let gb = b.write();
        drop(gb);
        let ga = a.lock();
        drop(ga);
    }

    #[test]
    fn out_of_order_release_keeps_the_held_set_consistent() {
        let a = OrderedMutex::new(&OUTER, 1);
        let b = OrderedRwLock::new(&INNER, 2);
        let c = OrderedRwLock::new(&LEAF, 3);
        let ga = a.lock();
        let gb = b.read();
        let gc = c.read();
        drop(gb); // release the middle acquisition first
        drop(gc);
        drop(ga);
        // Everything unwound: a fresh descending pair is legal again.
        let _gc = c.read();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracking is debug-only")]
    fn descending_acquisition_panics_in_debug() {
        let inner = OrderedRwLock::new(&INNER, ());
        let outer = OrderedMutex::new(&OUTER, ());
        let _gi = inner.read();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _go = outer.lock();
        }))
        .expect_err("descending acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-order violation"), "{msg}");
        assert!(msg.contains("test.outer"), "{msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "tracking is debug-only")]
    fn equal_rank_acquisition_panics_in_debug() {
        let a = OrderedMutex::new(&OUTER, ());
        let b = OrderedMutex::new(&OUTER, ());
        let _ga = a.lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
        }))
        .expect_err("equal-rank acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("strictly ascending ranks"), "{msg}");
    }

    #[test]
    fn threads_track_independently() {
        let inner = std::sync::Arc::new(OrderedRwLock::new(&INNER, ()));
        let outer = std::sync::Arc::new(OrderedMutex::new(&OUTER, ()));
        let _gi = inner.read();
        // Another thread holds nothing, so it may take the outer lock.
        let o = std::sync::Arc::clone(&outer);
        std::thread::spawn(move || {
            let _go = o.lock();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn hierarchy_ranks_strictly_ascend() {
        let ranks: Vec<u16> = hierarchy::ALL.iter().map(|c| c.rank).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            ranks, sorted,
            "hierarchy::ALL must list unique ascending ranks"
        );
    }
}
