//! Lease decay: reads renew a tuple's lease on life.
//!
//! The paper's freshness law says data you keep *consuming* is plainly
//! still nourishing someone. [`LeaseFungus`] makes that literal: a tuple's
//! freshness is its remaining lease, draining linearly from the moment of
//! its **last read** (or insertion, if never read). Every query access
//! implicitly renews the lease — popular data is immortal while it stays
//! popular, and abandoned data expires exactly `lease` ticks after its
//! final reader left. That holds for snapshot reads too: their touches
//! land at the start of the next decay pass, before this fungus runs
//! (`fungus-core`'s `a_read_just_before_a_tick_renews_a_lease`).
//!
//! Contrast with [`ImportanceFungus`](crate::importance::ImportanceFungus):
//! importance *modulates a rate* by access history; lease is a hard
//! sliding TTL anchored at the last access.

use fungus_types::{Freshness, Tick, TickDelta, TupleMeta};

use crate::retention::remaining_life;

/// Sliding time-to-live anchored at each tuple's last access.
#[derive(Debug, Clone, Copy)]
pub struct LeaseFungus {
    lease: TickDelta,
}

impl LeaseFungus {
    /// A fungus granting every tuple `lease` ticks of life from its last
    /// read (zero promoted to 1).
    pub fn new(lease: TickDelta) -> Self {
        LeaseFungus {
            lease: TickDelta(lease.get().max(1)),
        }
    }

    /// The lease length.
    pub fn lease(&self) -> TickDelta {
        self.lease
    }

    /// One application to the row `meta` at `now`. Freshness is the
    /// remaining lease fraction, but only ever lowered: a read between
    /// ticks raises the *target*, and the monotone-decay law wins over
    /// lease renewal for the freshness *signal*, while the expiry decision
    /// always honours the renewal.
    pub fn step(&self, meta: &TupleMeta, now: Tick) -> Option<Freshness> {
        let anchor = meta.last_access.unwrap_or(meta.inserted_at);
        remaining_life(meta, now.age_since(anchor), self.lease)
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!("lease(ticks={})", self.lease)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::table_with;
    use fungus_storage::TableStore;
    use fungus_types::TupleId;

    fn tick(f: &LeaseFungus, table: &mut TableStore, now: u64) {
        table.rot_walk(&mut |m| f.step(m, Tick(now)));
    }

    #[test]
    fn unread_tuples_expire_after_the_lease() {
        let mut table = table_with(5); // inserted at ticks 0..5
        let f = LeaseFungus::new(TickDelta(10));
        tick(&f, &mut table, 11);
        // Ids 0 and 1 (inserted at 0, 1) are idle ≥ 10 → expired.
        let evicted = table.evict_rotten();
        let ids: Vec<u64> = evicted.iter().map(|t| t.meta.id.get()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn reads_renew_the_lease() {
        let mut table = table_with(2); // inserted at ticks 0, 1
        table.touch(TupleId(0), Tick(9)); // renewed just in time
        let f = LeaseFungus::new(TickDelta(10));
        tick(&f, &mut table, 11);
        let evicted = table.evict_rotten();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].meta.id, TupleId(1), "the unread tuple dies");
        assert!(table.get(TupleId(0)).is_some(), "the read tuple lives on");
    }

    #[test]
    fn popular_data_is_effectively_immortal() {
        let mut table = table_with(1);
        let f = LeaseFungus::new(TickDelta(5));
        for t in 1..200u64 {
            table.touch(TupleId(0), Tick(t)); // constant readership
            tick(&f, &mut table, t);
            assert!(table.evict_rotten().is_empty(), "tick {t}");
        }
        assert_eq!(table.live_count(), 1);
    }

    #[test]
    fn freshness_tracks_remaining_lease() {
        let mut table = table_with(1); // inserted at tick 0
        let f = LeaseFungus::new(TickDelta(10));
        tick(&f, &mut table, 4);
        let fr = table.get(TupleId(0)).unwrap().meta.freshness.get();
        assert!((fr - 0.6).abs() < 1e-12, "6 of 10 lease ticks remain: {fr}");
    }

    #[test]
    fn zero_lease_promoted() {
        assert_eq!(LeaseFungus::new(TickDelta(0)).lease(), TickDelta(1));
        assert!(LeaseFungus::new(TickDelta(3)).describe().contains('3'));
    }
}
