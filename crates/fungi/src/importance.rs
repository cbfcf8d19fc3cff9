//! Importance-weighted decay: cold data rots fastest.
//!
//! The paper's closing remark asks for "better (datamining) 'cooking'
//! schemes to discard/avoid the rotten data". The cheapest useful signal a
//! store already has is access activity: tuples that queries keep touching
//! are plainly still nourishing someone, while never-read tuples are the
//! rice rotting in the fable's storehouse. This fungus decays each tuple at
//! a rate inversely proportional to its access count and recency.

use fungus_types::{Freshness, Tick, TupleMeta};

/// Access-aware decay.
///
/// Per tick, a tuple loses
///
/// ```text
/// base_rate · 1/(1 + access_count) · recency_penalty
/// ```
///
/// where `recency_penalty` is 1 for never-read tuples and
/// `1 / (1 + recency_shield / (gap + 1))` for tuples read `gap` ticks ago —
/// a recent read shields a tuple, an old read barely helps.
#[derive(Debug, Clone, Copy)]
pub struct ImportanceFungus {
    base_rate: f64,
    recency_shield: f64,
}

impl ImportanceFungus {
    /// A fungus with the given base decay rate per tick (clamped to
    /// `[0, 1]`) and the default recency shield of 10 ticks.
    pub fn new(base_rate: f64) -> Self {
        Self::with_shield(base_rate, 10.0)
    }

    /// Sets an explicit recency shield (ticks over which a read halves the
    /// decay rate).
    pub fn with_shield(base_rate: f64, recency_shield: f64) -> Self {
        let base_rate = if base_rate.is_nan() {
            0.0
        } else {
            base_rate.clamp(0.0, 1.0)
        };
        ImportanceFungus {
            base_rate,
            recency_shield: recency_shield.max(0.0),
        }
    }

    /// The base decay rate.
    pub fn base_rate(&self) -> f64 {
        self.base_rate
    }

    /// Decay amount for a tuple with the given access history.
    fn rate_for(&self, access_count: u32, last_access_gap: Option<f64>) -> f64 {
        let count_factor = 1.0 / (1.0 + f64::from(access_count));
        let recency_factor = match last_access_gap {
            None => 1.0,
            Some(gap) => 1.0 / (1.0 + self.recency_shield / (gap + 1.0)),
        };
        self.base_rate * count_factor * recency_factor
    }

    /// One application to the row `meta` at `now`.
    pub fn step(&self, meta: &TupleMeta, now: Tick) -> Option<Freshness> {
        let gap = meta.last_access.map(|t| now.age_since(t).as_f64());
        let amount = self.rate_for(meta.access_count, gap);
        (amount > 0.0).then(|| meta.freshness.decayed(amount))
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!(
            "importance(base_rate={}, recency_shield={})",
            self.base_rate, self.recency_shield
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{freshness, table_with};
    use fungus_storage::TableStore;
    use fungus_types::TupleId;

    fn tick(f: &ImportanceFungus, table: &mut TableStore, now: u64) {
        table.rot_walk(&mut |m| f.step(m, Tick(now)));
    }

    #[test]
    fn unread_tuples_decay_fastest() {
        let mut table = table_with(3);
        table.touch(TupleId(1), Tick(3)); // read once
        table.touch(TupleId(2), Tick(3));
        table.touch(TupleId(2), Tick(3)); // read twice
        tick(&ImportanceFungus::new(0.3), &mut table, 4);
        let f0 = freshness(&table, 0);
        let f1 = freshness(&table, 1);
        let f2 = freshness(&table, 2);
        assert!(f0 < f1, "unread decays faster than once-read: {f0} vs {f1}");
        assert!(
            f1 < f2,
            "once-read decays faster than twice-read: {f1} vs {f2}"
        );
    }

    #[test]
    fn recent_reads_shield_more_than_old_reads() {
        let mut table = table_with(2);
        table.touch(TupleId(0), Tick(2)); // old read
        table.touch(TupleId(1), Tick(99)); // recent read
        tick(&ImportanceFungus::new(0.4), &mut table, 100);
        assert!(
            freshness(&table, 1) > freshness(&table, 0),
            "the recently-read tuple must be better shielded"
        );
    }

    #[test]
    fn hot_tuples_survive_cold_ones_rot() {
        let mut table = table_with(10);
        // Keep tuple 5 hot.
        let f = ImportanceFungus::new(0.25);
        let mut now = 10u64;
        while table.live_count() > 1 && now < 1000 {
            table.touch(TupleId(5), Tick(now));
            tick(&f, &mut table, now);
            table.evict_rotten();
            now += 1;
        }
        assert_eq!(table.live_count(), 1);
        assert!(
            table.get(TupleId(5)).is_some(),
            "the hot tuple outlives the cold ones"
        );
    }

    #[test]
    fn rate_formula_monotonicity() {
        let f = ImportanceFungus::new(0.5);
        assert!(f.rate_for(0, None) > f.rate_for(1, None));
        assert!(f.rate_for(1, Some(0.0)) < f.rate_for(1, None));
        assert!(f.rate_for(1, Some(0.0)) < f.rate_for(1, Some(100.0)));
        assert_eq!(ImportanceFungus::new(-1.0).base_rate(), 0.0);
        assert_eq!(ImportanceFungus::new(f64::NAN).base_rate(), 0.0);
    }
}
