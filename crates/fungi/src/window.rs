//! Count-based sliding window decay.

use fungus_storage::DecaySurface;
use fungus_types::{Tick, TupleId};

/// Keeps only the newest `capacity` tuples; everything older rots
/// instantly. This is the streaming-systems window the paper's conclusion
/// nods at ("fundamental to streaming database systems").
///
/// Freshness inside the window reflects the tuple's remaining window share:
/// the newest tuple has freshness 1, the tuple about to fall out has
/// freshness near 0.
#[derive(Debug, Clone, Copy)]
pub struct SlidingWindowFungus {
    capacity: usize,
}

impl SlidingWindowFungus {
    /// A window of `capacity` tuples (zero promoted to 1).
    pub fn new(capacity: usize) -> Self {
        SlidingWindowFungus {
            capacity: capacity.max(1),
        }
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One cycle: a tuple's freshness follows its rank from the newest.
    pub fn tick(&mut self, surface: &mut dyn DecaySurface, _now: Tick) {
        let live = surface.live_count();
        let mut ids: Vec<TupleId> = Vec::with_capacity(live);
        surface.for_each_live_meta(&mut |id, _| ids.push(id));
        let overflow = live.saturating_sub(self.capacity);
        // Oldest `overflow` tuples rot away entirely.
        for id in &ids[..overflow] {
            surface.decay(*id, 1.0);
        }
        // Remaining tuples carry their window position as freshness.
        let in_window = &ids[overflow..];
        let n = in_window.len();
        for (pos, id) in in_window.iter().enumerate() {
            let target = (pos + 1) as f64 / n as f64;
            if let Some(meta) = surface.meta(*id) {
                let current = meta.freshness.get();
                if target < current {
                    surface.decay(*id, current - target);
                }
            }
        }
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!("sliding-window(capacity={})", self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{freshness, table_with};

    #[test]
    fn keeps_only_newest_n() {
        let mut table = table_with(10);
        let mut f = SlidingWindowFungus::new(4);
        f.tick(&mut table, Tick(10));
        let evicted = table.evict_rotten();
        assert_eq!(evicted.len(), 6);
        let ids: Vec<u64> = table.iter_live().map(|t| t.meta.id.get()).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn freshness_reflects_window_position() {
        let mut table = table_with(4);
        let mut f = SlidingWindowFungus::new(4);
        f.tick(&mut table, Tick(4));
        assert!((freshness(&table, 0) - 0.25).abs() < 1e-12);
        assert!((freshness(&table, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_smaller_than_extent_is_stable() {
        let mut table = table_with(3);
        let mut f = SlidingWindowFungus::new(10);
        f.tick(&mut table, Tick(3));
        assert!(table.evict_rotten().is_empty());
        assert_eq!(table.live_count(), 3);
    }

    #[test]
    fn zero_capacity_promoted_to_one() {
        let f = SlidingWindowFungus::new(0);
        assert_eq!(f.capacity(), 1);
        let mut table = table_with(5);
        let mut f = SlidingWindowFungus::new(0);
        f.tick(&mut table, Tick(5));
        table.evict_rotten();
        assert_eq!(table.live_count(), 1);
    }

    #[test]
    fn repeated_ticks_are_stable_without_inserts() {
        let mut table = table_with(8);
        let mut f = SlidingWindowFungus::new(5);
        f.tick(&mut table, Tick(8));
        table.evict_rotten();
        let before: Vec<u64> = table.iter_live().map(|t| t.meta.id.get()).collect();
        f.tick(&mut table, Tick(9));
        table.evict_rotten();
        let after: Vec<u64> = table.iter_live().map(|t| t.meta.id.get()).collect();
        assert_eq!(
            before, after,
            "a full window without new arrivals is a fixpoint"
        );
    }
}
