//! The narrow storage API fungi act through.
//!
//! Every decay model in `fungus-fungi` is written against [`DecaySurface`]
//! rather than [`TableStore`] directly, so fungi are unit-testable on mock
//! stores and the storage layout can evolve without touching decay logic.
//! A fungus whose step for a row reads only that row hands the step to
//! [`rot_walk`](DecaySurface::rot_walk), the one walk each layout
//! implements; a process (EGI, stochastic, window) drives the per-id
//! methods itself.
//!
//! The surface deliberately exposes *metadata only*: a fungus may read ages
//! and freshness, infect, cure, and decay — it can never see attribute
//! values or remove tuples. Eviction of rotten tuples is the engine's job
//! (after distillation has had its chance), preserving the paper's "inspect
//! them once before removal".

use fungus_types::{Freshness, Tick, TupleId, TupleMeta};

use crate::table::TableStore;

/// Mutation-limited view of a container's decay state.
pub trait DecaySurface {
    /// Number of live tuples.
    fn live_count(&self) -> usize;

    /// Visits every live tuple's metadata in insertion (time-axis) order.
    fn for_each_live_meta(&self, f: &mut dyn FnMut(TupleId, &TupleMeta));

    /// Metadata of one live tuple.
    fn meta(&self, id: TupleId) -> Option<TupleMeta>;

    /// Subtracts `amount` from the tuple's freshness; returns the new value
    /// (`None` if the tuple is not live).
    fn decay(&mut self, id: TupleId, amount: f64) -> Option<Freshness>;

    /// Multiplies the tuple's freshness by `factor ∈ [0,1]`.
    fn scale_freshness(&mut self, id: TupleId, factor: f64) -> Option<Freshness>;

    /// Infects the tuple (EGI seeding/spreading); false if not live.
    fn infect(&mut self, id: TupleId, now: Tick) -> bool;

    /// Clears the tuple's infection; false if not live.
    fn cure(&mut self, id: TupleId) -> bool;

    /// Ids of all infected live tuples in id order.
    fn infected_ids(&self) -> Vec<TupleId>;

    /// Nearest live neighbours along the time axis: `(older, younger)`.
    fn live_neighbors(&self, id: TupleId) -> (Option<TupleId>, Option<TupleId>);

    /// The engine's one rot walk: offers every live tuple's metadata to
    /// `step` in id order and stores each freshness it returns; `None`
    /// writes nothing. What a write costs (a segment copy, a dirty shard,
    /// a lower freshness envelope) is paid only where a row changed.
    fn rot_walk(&mut self, step: &mut dyn FnMut(&TupleMeta) -> Option<Freshness>);

    /// `(id, age in ticks)` of every live **uninfected** tuple, in id order
    /// — the EGI seed candidate list.
    ///
    /// Built on [`for_each_live_meta`](Self::for_each_live_meta) alone,
    /// so every layout of the same rows yields the same list, and EGI's
    /// draws over it do not depend on how the rows are partitioned.
    fn seed_candidates(&self, now: Tick) -> Vec<(TupleId, f64)> {
        let mut out = Vec::with_capacity(self.live_count());
        self.for_each_live_meta(&mut |id, meta| {
            if !meta.infected {
                out.push((id, meta.age(now).as_f64()));
            }
        });
        out
    }
}

impl DecaySurface for TableStore {
    fn live_count(&self) -> usize {
        TableStore::live_count(self)
    }

    fn for_each_live_meta(&self, f: &mut dyn FnMut(TupleId, &TupleMeta)) {
        for t in self.iter_live() {
            f(t.meta.id, &t.meta);
        }
    }

    fn meta(&self, id: TupleId) -> Option<TupleMeta> {
        self.get(id).map(|t| t.meta)
    }

    fn decay(&mut self, id: TupleId, amount: f64) -> Option<Freshness> {
        TableStore::decay(self, id, amount)
    }

    fn scale_freshness(&mut self, id: TupleId, factor: f64) -> Option<Freshness> {
        TableStore::scale_freshness(self, id, factor)
    }

    fn rot_walk(&mut self, step: &mut dyn FnMut(&TupleMeta) -> Option<Freshness>) {
        TableStore::rot_walk(self, step);
    }

    fn infect(&mut self, id: TupleId, now: Tick) -> bool {
        TableStore::infect(self, id, now)
    }

    fn cure(&mut self, id: TupleId) -> bool {
        TableStore::cure(self, id)
    }

    fn infected_ids(&self) -> Vec<TupleId> {
        TableStore::infected_ids(self)
    }

    fn live_neighbors(&self, id: TupleId) -> (Option<TupleId>, Option<TupleId>) {
        TableStore::live_neighbors(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageConfig;
    use fungus_types::{DataType, Schema, Value};

    fn table_with(n: u64) -> TableStore {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut t = TableStore::new(schema, StorageConfig::for_tests()).unwrap();
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64)], Tick(i)).unwrap();
        }
        t
    }

    #[test]
    fn surface_mirrors_table_state() {
        let mut t = table_with(5);
        let s: &mut dyn DecaySurface = &mut t;
        assert_eq!(s.live_count(), 5);
        assert!(s.infect(TupleId(2), Tick(10)));
        assert_eq!(s.infected_ids(), vec![TupleId(2)]);
        assert_eq!(s.meta(TupleId(2)).unwrap().infected_at, Some(Tick(10)));
        s.decay(TupleId(2), 0.25);
        assert!((s.meta(TupleId(2)).unwrap().freshness.get() - 0.75).abs() < 1e-12);
        assert!(s.cure(TupleId(2)));
        assert!(s.infected_ids().is_empty());
    }

    #[test]
    fn rot_walk_visits_in_id_order_and_writes_through() {
        let mut t = table_with(4);
        let mut seen = Vec::new();
        DecaySurface::rot_walk(&mut t, &mut |m| {
            seen.push(m.id.get());
            (m.id.get() == 2).then_some(Freshness::ROTTEN)
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(t.get(TupleId(2)).unwrap().meta.is_rotten());
        assert!(t.get(TupleId(3)).unwrap().meta.freshness.is_full());
    }

    #[test]
    fn neighbors_via_surface() {
        let t = table_with(3);
        let s: &dyn DecaySurface = &t;
        assert_eq!(
            s.live_neighbors(TupleId(1)),
            (Some(TupleId(0)), Some(TupleId(2)))
        );
    }
}
