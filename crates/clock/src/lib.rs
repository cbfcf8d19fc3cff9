//! # fungus-clock
//!
//! Virtual time and the periodic decay clock.
//!
//! The paper's first natural law runs "with a periodic clock of `T`
//! seconds". Reproducible experiments need a clock that can be *stepped*
//! rather than waited on, so this crate provides:
//!
//! * [`VirtualClock`] — a shared, thread-safe tick counter;
//! * [`DeterministicRng`] — seeded random streams, one per named component,
//!   so that concurrently running fungi never perturb each other's draws;
//! * [`TickScheduler`] — registers periodic tasks (fungi, distillation,
//!   health probes) and fires them in priority order on each tick, either
//!   stepped manually or driven by a background thread.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod rng;
pub mod scheduler;

pub use clock::VirtualClock;
pub use rng::{DeterministicRng, WeightedIndexSampler};
pub use scheduler::{Task, TaskHandle, TickScheduler};
