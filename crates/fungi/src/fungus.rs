//! The `Fungus` enum: every decay model a container can carry.

use fungus_storage::DecaySurface;
use fungus_types::{Freshness, Tick, TupleMeta};

use crate::egi::EgiFungus;
use crate::exponential::ExponentialFungus;
use crate::importance::ImportanceFungus;
use crate::lease::LeaseFungus;
use crate::retention::{LinearFungus, RetentionFungus};
use crate::stochastic::StochasticFungus;
use crate::window::SlidingWindowFungus;

/// A data fungus: a decay model applied to a container on every decay tick,
/// built from a [`FungusSpec`](crate::FungusSpec).
///
/// The contract mirrors the paper's first natural law:
///
/// * a fungus only ever *reduces* freshness (monotone decay);
/// * it may mark tuples infected (EGI's seeded/spread state) and cure them;
/// * it never evicts — the engine removes tuples whose freshness reached
///   zero after the tick, giving distillation a chance to "inspect them
///   once before removal";
/// * it must be deterministic given its construction-time RNG seed, so
///   experiments reproduce bit-for-bit.
///
/// The arms say who walks the extent. [`Null`](Fungus::Null) walks
/// nothing; a [`Row`](Fungus::Row) fungus is a per-row step the engine
/// applies in its one [`rot_walk`](DecaySurface::rot_walk); the processes
/// draw from an RNG or depend on a row's rank, and drive the surface
/// themselves.
pub enum Fungus {
    /// No decay: the paper's status quo, where data never decays. Baseline
    /// for every storage-bound experiment.
    Null,
    /// A fungus whose new freshness for a row depends only on that row.
    Row(RowFungus),
    /// The paper's Evict-Grouped-Individuals process.
    Egi(EgiFungus),
    /// Random per-tick eviction.
    Stochastic(StochasticFungus),
    /// Keep only the newest N tuples.
    SlidingWindow(SlidingWindowFungus),
}

impl Fungus {
    /// Stable name used in traces, metrics, and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Fungus::Null => "null",
            Fungus::Row(row) => row.name(),
            Fungus::Egi(_) => "egi",
            Fungus::Stochastic(_) => "stochastic",
            Fungus::SlidingWindow(_) => "sliding-window",
        }
    }

    /// Applies one decay cycle at time `now`.
    pub fn tick(&mut self, surface: &mut dyn DecaySurface, now: Tick) {
        match self {
            Fungus::Null => {}
            Fungus::Row(row) => surface.rot_walk(&mut |meta| row.step(meta, now)),
            Fungus::Egi(f) => f.tick(surface, now),
            Fungus::Stochastic(f) => f.tick(surface, now),
            Fungus::SlidingWindow(f) => f.tick(surface, now),
        }
    }

    /// Human-readable parameter summary (for logs and EXPERIMENTS.md).
    pub fn describe(&self) -> String {
        match self {
            Fungus::Null => "null".into(),
            Fungus::Row(row) => row.describe(),
            Fungus::Egi(f) => f.describe(),
            Fungus::Stochastic(f) => f.describe(),
            Fungus::SlidingWindow(f) => f.describe(),
        }
    }
}

/// The fungi that are one pure step per row: the new freshness of a row is
/// a function of its [`TupleMeta`] and `now`, and nothing else.
#[derive(Debug, Clone, Copy)]
pub enum RowFungus {
    /// Hard TTL.
    Retention(RetentionFungus),
    /// Fixed freshness loss per application.
    Linear(LinearFungus),
    /// Geometric scaling with a rot threshold.
    Exponential(ExponentialFungus),
    /// Sliding TTL renewed by reads.
    Lease(LeaseFungus),
    /// Decay slowed by access activity.
    Importance(ImportanceFungus),
}

impl RowFungus {
    /// The freshness one application gives the row described by `meta` at
    /// `now`; `None` leaves the row unwritten.
    pub fn step(&self, meta: &TupleMeta, now: Tick) -> Option<Freshness> {
        match self {
            RowFungus::Retention(f) => f.step(meta, now),
            RowFungus::Linear(f) => f.step(meta, now),
            RowFungus::Exponential(f) => f.step(meta, now),
            RowFungus::Lease(f) => f.step(meta, now),
            RowFungus::Importance(f) => f.step(meta, now),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            RowFungus::Retention(_) => "retention",
            RowFungus::Linear(_) => "linear",
            RowFungus::Exponential(_) => "exponential",
            RowFungus::Lease(_) => "lease",
            RowFungus::Importance(_) => "importance",
        }
    }

    fn describe(&self) -> String {
        match self {
            RowFungus::Retention(f) => f.describe(),
            RowFungus::Linear(f) => f.describe(),
            RowFungus::Exponential(f) => f.describe(),
            RowFungus::Lease(f) => f.describe(),
            RowFungus::Importance(f) => f.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::table_with;
    use fungus_types::TickDelta;

    #[test]
    fn null_fungus_changes_nothing() {
        let mut table = table_with(10);
        let mut f = Fungus::Null;
        for t in 0..100 {
            f.tick(&mut table, Tick(t));
        }
        assert_eq!(table.live_count(), 10);
        assert!(table.iter_live().all(|t| t.meta.freshness.is_full()));
        assert_eq!(f.name(), "null");
        assert_eq!(f.describe(), "null");
    }

    #[test]
    fn a_row_fungus_ticks_through_the_engine_walk() {
        let mut table = table_with(4);
        let mut f = Fungus::Row(RowFungus::Linear(LinearFungus::new(TickDelta(4))));
        f.tick(&mut table, Tick(4));
        assert!(table.iter_live().all(|t| t.meta.freshness.get() == 0.75));
        assert_eq!(f.name(), "linear");
        assert!(f.describe().contains("0.25"));
    }
}
