//! Tuples and their decay metadata.
//!
//! A [`Tuple`] is one row of the paper's relation `R(t, f, A1..An)`:
//! the attribute values plus a [`TupleMeta`] carrying the system columns —
//! insertion tick `t`, freshness `f`, the fungus infection flag used by EGI,
//! and bookkeeping the health monitor consumes (last access, access count).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::freshness::Freshness;
use crate::ids::TupleId;
use crate::time::{Tick, TickDelta};
use crate::value::Value;

/// System metadata attached to every tuple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TupleMeta {
    /// Stable identity; encodes insertion order (the time axis).
    pub id: TupleId,
    /// The paper's `t`: virtual insertion time.
    pub inserted_at: Tick,
    /// The paper's `f`: current freshness.
    pub freshness: Freshness,
    /// Whether a fungus has infected this tuple (EGI's seeded/spread state).
    pub infected: bool,
    /// Tick at which the tuple was infected, if it was.
    pub infected_at: Option<Tick>,
    /// Tick of the most recent read access (for importance-weighted fungi
    /// and for the health monitor's "decayed unread" waste metric).
    pub last_access: Option<Tick>,
    /// Number of times the tuple was returned by a query.
    pub access_count: u32,
}

impl TupleMeta {
    /// Metadata for a freshly inserted tuple.
    pub fn new(id: TupleId, inserted_at: Tick) -> Self {
        TupleMeta {
            id,
            inserted_at,
            freshness: Freshness::FULL,
            infected: false,
            infected_at: None,
            last_access: None,
            access_count: 0,
        }
    }

    /// Age of the tuple at `now`.
    #[inline]
    pub fn age(&self, now: Tick) -> TickDelta {
        now.age_since(self.inserted_at)
    }

    /// True once the tuple's freshness has reached zero.
    #[inline]
    pub fn is_rotten(&self) -> bool {
        self.freshness.is_rotten()
    }

    /// Marks the tuple infected (idempotent); records the first infection
    /// tick.
    pub fn infect(&mut self, now: Tick) {
        if !self.infected {
            self.infected = true;
            self.infected_at = Some(now);
        }
    }

    /// Clears the infection (a "cured" tuple — used by owner intervention in
    /// experiment E10).
    pub fn cure(&mut self) {
        self.infected = false;
        self.infected_at = None;
    }

    /// Records a read access.
    pub fn touch(&mut self, now: Tick) {
        self.touch_by(now, 1);
    }

    /// Records `reads` read accesses at once, the latest at `at`.
    /// `last_access` keeps the latest tick ever recorded, so accesses
    /// recorded out of tick order land as if recorded in order.
    pub fn touch_by(&mut self, at: Tick, reads: u32) {
        self.last_access = Some(self.last_access.map_or(at, |last| last.max(at)));
        self.access_count = self.access_count.saturating_add(reads);
    }

    /// True if the tuple was never read by any query. Rotten-and-unread
    /// tuples are the "rice rotting in storage" the paper warns about.
    #[inline]
    pub fn never_read(&self) -> bool {
        self.access_count == 0
    }
}

/// One row of a container: metadata plus attribute values.
///
/// The engine mutates only `meta` in place; attribute values are written
/// once, at insert, and shared from then on — a clone (into a sealed
/// snapshot's segment copy, a query result, a route delivery) bumps one
/// reference count instead of copying the row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// System columns.
    pub meta: TupleMeta,
    /// Attribute values `A1..An`, matching the container schema.
    pub values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a fresh tuple.
    pub fn new(id: TupleId, inserted_at: Tick, values: Vec<Value>) -> Self {
        Tuple {
            meta: TupleMeta::new(id, inserted_at),
            values: values.into(),
        }
    }

    /// The attribute at `index`, if in range.
    #[inline]
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// Approximate in-memory footprint in bytes (metadata + values).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<TupleMeta>()
            + self.values.iter().map(Value::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> Tuple {
        Tuple::new(TupleId(3), Tick(10), vec![Value::Int(1), Value::from("a")])
    }

    #[test]
    fn fresh_on_insert() {
        let t = tuple();
        assert_eq!(t.meta.freshness, Freshness::FULL);
        assert!(!t.meta.infected);
        assert!(!t.meta.is_rotten());
        assert!(t.meta.never_read());
    }

    #[test]
    fn age_tracks_clock() {
        let t = tuple();
        assert_eq!(t.meta.age(Tick(10)), TickDelta(0));
        assert_eq!(t.meta.age(Tick(25)), TickDelta(15));
        assert_eq!(t.meta.age(Tick(5)), TickDelta(0), "age saturates");
    }

    #[test]
    fn infection_is_idempotent_and_curable() {
        let mut m = TupleMeta::new(TupleId(0), Tick(0));
        m.infect(Tick(4));
        assert!(m.infected);
        assert_eq!(m.infected_at, Some(Tick(4)));
        m.infect(Tick(9));
        assert_eq!(
            m.infected_at,
            Some(Tick(4)),
            "re-infection keeps first tick"
        );
        m.cure();
        assert!(!m.infected);
        assert_eq!(m.infected_at, None);
    }

    #[test]
    fn touch_counts_accesses() {
        let mut m = TupleMeta::new(TupleId(0), Tick(0));
        m.touch(Tick(2));
        m.touch(Tick(7));
        assert_eq!(m.access_count, 2);
        assert_eq!(m.last_access, Some(Tick(7)));
        assert!(!m.never_read());
        m.touch_by(Tick(9), 3);
        assert_eq!((m.access_count, m.last_access), (5, Some(Tick(9))));
        m.touch(Tick(8));
        assert_eq!((m.access_count, m.last_access), (6, Some(Tick(9))));
        m.touch_by(Tick(10), u32::MAX);
        assert_eq!(
            m.access_count,
            u32::MAX,
            "saturates like one touch at a time"
        );
    }

    #[test]
    fn value_access_and_footprint() {
        let t = tuple();
        assert_eq!(t.value(0), Some(&Value::Int(1)));
        assert_eq!(t.value(5), None);
        assert!(t.approx_bytes() > std::mem::size_of::<TupleMeta>());
    }

    #[test]
    fn rotten_detection() {
        let mut t = tuple();
        t.meta.freshness = Freshness::new(0.0);
        assert!(t.meta.is_rotten());
    }
}
