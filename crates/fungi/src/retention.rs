//! Retention (TTL) and linear decay — the "old-fashioned" fungi.
//!
//! The paper: "An old-fashioned decay function `F` would be to consider
//! retention times, where after the data will be discarded."

use fungus_types::{Freshness, Tick, TickDelta, TupleMeta};

/// Hard time-to-live: a tuple older than `max_age` rots instantly.
///
/// Between insertion and expiry, freshness degrades linearly with age so
/// freshness remains an honest remaining-lifetime signal:
/// `f = 1 − age/max_age`.
#[derive(Debug, Clone, Copy)]
pub struct RetentionFungus {
    max_age: TickDelta,
}

impl RetentionFungus {
    /// A TTL fungus discarding tuples older than `max_age` ticks.
    /// A zero `max_age` is promoted to 1 (everything rots after one tick).
    pub fn new(max_age: TickDelta) -> Self {
        RetentionFungus {
            max_age: TickDelta(max_age.get().max(1)),
        }
    }

    /// The configured TTL.
    pub fn max_age(&self) -> TickDelta {
        self.max_age
    }

    /// One application to the row `meta` at `now`.
    pub fn step(&self, meta: &TupleMeta, now: Tick) -> Option<Freshness> {
        remaining_life(meta, meta.age(now), self.max_age)
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!("retention(max_age={})", self.max_age)
    }
}

/// Freshness as the share of `ttl` left after `idle` ticks: an expired row
/// is driven to zero (the engine evicts after the tick), any other is
/// lowered — never raised — to `1 − idle/ttl`.
pub(crate) fn remaining_life(
    meta: &TupleMeta,
    idle: TickDelta,
    ttl: TickDelta,
) -> Option<Freshness> {
    let (idle, ttl) = (idle.as_f64(), ttl.as_f64());
    if idle >= ttl {
        return Some(meta.freshness.decayed(1.0));
    }
    let target = 1.0 - idle / ttl;
    let current = meta.freshness.get();
    (target < current).then(|| meta.freshness.decayed(current - target))
}

/// Linear decay: every tuple loses `1/lifetime` freshness per tick, so a
/// tuple inserted at full freshness disappears after `lifetime` ticks of
/// decay regardless of its age when the fungus was attached.
#[derive(Debug, Clone, Copy)]
pub struct LinearFungus {
    per_tick: f64,
}

impl LinearFungus {
    /// A fungus under which untouched tuples live `lifetime` ticks.
    /// Zero lifetimes are promoted to 1.
    pub fn new(lifetime: TickDelta) -> Self {
        LinearFungus {
            per_tick: 1.0 / lifetime.get().max(1) as f64,
        }
    }

    /// Freshness lost per tick.
    pub fn per_tick(&self) -> f64 {
        self.per_tick
    }

    /// One application to the row `meta`: every row loses `per_tick`.
    pub fn step(&self, meta: &TupleMeta, _now: Tick) -> Option<Freshness> {
        Some(meta.freshness.decayed(self.per_tick))
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!("linear(per_tick={:.4})", self.per_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{freshness, table_with};
    use fungus_storage::TableStore;
    use fungus_types::TupleId;

    fn retention(table: &mut TableStore, max_age: u64, now: u64) {
        let f = RetentionFungus::new(TickDelta(max_age));
        table.rot_walk(&mut |m| f.step(m, Tick(now)));
    }

    #[test]
    fn retention_expires_old_tuples() {
        // Tuples inserted at ticks 0..10; TTL 5, observed at tick 7:
        // ages are 7,6,5,4,... → ids 0,1,2 expire.
        let mut table = table_with(10);
        retention(&mut table, 5, 7);
        let evicted = table.evict_rotten();
        let ids: Vec<u64> = evicted.iter().map(|t| t.meta.id.get()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(table.live_count(), 7);
    }

    #[test]
    fn retention_freshness_is_remaining_lifetime() {
        let mut table = table_with(10);
        retention(&mut table, 10, 9);
        // Tuple 9 was inserted at tick 9 → age 0 → still fully fresh.
        assert_eq!(freshness(&table, 9), 1.0);
        // Tuple 4: age 5 of TTL 10 → freshness 0.5.
        assert!((freshness(&table, 4) - 0.5).abs() < 1e-12);
        // Tuple 0: age 9 → freshness 0.1.
        assert!((freshness(&table, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn retention_never_increases_freshness() {
        let mut table = table_with(5);
        // Externally decay tuple 4 below its retention target.
        table.decay(TupleId(4), 0.9);
        retention(&mut table, 100, 4);
        assert!(
            freshness(&table, 4) <= 0.1 + 1e-12,
            "retention must not refresh an already-decayed tuple"
        );
    }

    #[test]
    fn retention_zero_ttl_promoted() {
        let f = RetentionFungus::new(TickDelta(0));
        assert_eq!(f.max_age(), TickDelta(1));
    }

    #[test]
    fn linear_decay_accumulates_to_rot() {
        let mut table = table_with(3);
        let f = LinearFungus::new(TickDelta(4));
        for t in 1..=3u64 {
            table.rot_walk(&mut |m| f.step(m, Tick(t)));
        }
        assert!((freshness(&table, 0) - 0.25).abs() < 1e-9);
        table.rot_walk(&mut |m| f.step(m, Tick(4)));
        let evicted = table.evict_rotten();
        assert_eq!(evicted.len(), 3, "whole extent rots after `lifetime` ticks");
        assert_eq!(
            table.live_count(),
            0,
            "the relation has completely disappeared"
        );
    }

    #[test]
    fn describe_includes_parameters() {
        assert!(RetentionFungus::new(TickDelta(7)).describe().contains('7'));
        assert!(LinearFungus::new(TickDelta(4)).describe().contains("0.25"));
    }
}
