//! Fixed-capacity storage segments.
//!
//! A [`Segment`] owns the tuples whose ids fall in `[base, base + len)`.
//! Because tuple ids are allocated monotonically, a segment is a contiguous
//! slice of the paper's time axis; EGI's rotting spots therefore show up as
//! runs of infected/evicted slots inside and across segments.
//!
//! ## Dense and sparse representations
//!
//! Decay constantly punches holes in old segments, so a segment has two
//! physical layouts:
//!
//! * **Dense** — an offset-indexed `Vec<Slot>` giving O(1) slot access.
//!   Tombstoned slots keep their (empty) slot, so a heavily decayed dense
//!   segment wastes a `size_of::<Slot>()` per dead tuple.
//! * **Sparse** — produced by [compaction](crate::table::TableStore::compact)
//!   once the live fraction drops below the configured threshold: a sorted
//!   list of `(offset, tuple)` pairs plus a run-length-encoded list of
//!   tombstone holes (rot spots are contiguous, so RLE is tiny). Access is
//!   a binary search.
//!
//! Both layouts preserve tuple ids exactly; converting between them is
//! invisible to every other crate.
//!
//! ## Sharing
//!
//! A segment is the unit of copy-on-write: the table holds each one behind
//! an `Arc`, a cloned table shares them all, and a writer copies the one
//! segment it is about to change. That copy is one slot array — every
//! tuple's attribute values are themselves shared (`Arc<[Value]>`), so it
//! allocates once, not once per row — and at the original's capacity, so
//! the copies of a filling tail segment are all one size and the append
//! that follows each of them never regrows it.

use serde::{Deserialize, Serialize};

use fungus_types::{Tuple, TupleId, TupleMeta};

use crate::zonemap::ZoneMap;

/// Why a slot was tombstoned. The health monitor distinguishes data that
/// was *consumed* (read and distilled — the paper's good outcome) from data
/// that *rotted away unread* (the wasted rice of the fable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TombstoneReason {
    /// Removed by a consuming query (second natural law).
    Consumed,
    /// Evicted because freshness reached zero (first natural law).
    Rotted,
    /// Explicitly deleted by the owner.
    Deleted,
}

/// One slot of a dense segment: a live tuple or a tombstone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Slot {
    /// A live tuple.
    Live(Tuple),
    /// The tuple that was here has been removed.
    Tombstone(TombstoneReason),
}

impl Slot {
    /// The live tuple, if this slot holds one.
    #[inline]
    pub fn live(&self) -> Option<&Tuple> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Tombstone(_) => None,
        }
    }

    /// Mutable access to the live tuple, if any.
    #[inline]
    pub fn live_mut(&mut self) -> Option<&mut Tuple> {
        match self {
            Slot::Live(t) => Some(t),
            Slot::Tombstone(_) => None,
        }
    }
}

/// A run of `len` consecutive tombstones starting at `offset`, all removed
/// for the same reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HoleRun {
    /// Offset of the first tombstone in the run, relative to segment base.
    pub offset: u32,
    /// Number of consecutive tombstones.
    pub len: u32,
    /// The shared removal reason.
    pub reason: TombstoneReason,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Repr {
    Dense(Vec<Slot>),
    Sparse {
        /// Live tuples sorted by offset.
        live: Vec<(u32, Tuple)>,
        /// RLE tombstone holes sorted by offset.
        holes: Vec<HoleRun>,
    },
}

impl Clone for Repr {
    /// A dense copy keeps the original's spare capacity. The copy a writer
    /// takes of a shared tail segment is appended to at once; cut to
    /// length it would be allocated, grown and freed at a new size on
    /// every insert, where this way consecutive copies are the same size
    /// and the allocator hands the last one's memory to the next.
    fn clone(&self) -> Self {
        match self {
            Repr::Dense(slots) => {
                let mut copy = Vec::with_capacity(slots.capacity());
                copy.extend_from_slice(slots);
                Repr::Dense(copy)
            }
            Repr::Sparse { live, holes } => Repr::Sparse {
                live: live.clone(),
                holes: holes.clone(),
            },
        }
    }
}

/// A contiguous run of slots covering tuple ids `[base, base + len)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    base: u64,
    capacity: usize,
    /// Number of allocated slots (live + tombstoned), fixed once sealed.
    len: u32,
    repr: Repr,
    live_count: usize,
    zone: ZoneMap,
    approx_bytes: usize,
}

impl Segment {
    /// A new, empty (dense) segment starting at tuple id `base`.
    pub fn new(base: TupleId, capacity: usize, arity: usize) -> Self {
        Segment {
            base: base.get(),
            capacity,
            len: 0,
            repr: Repr::Dense(Vec::new()),
            live_count: 0,
            zone: ZoneMap::new(arity),
            approx_bytes: 0,
        }
    }

    /// First tuple id covered by this segment.
    #[inline]
    pub fn base(&self) -> TupleId {
        TupleId(self.base)
    }

    /// One past the last allocated tuple id.
    #[inline]
    pub fn end(&self) -> TupleId {
        TupleId(self.base + u64::from(self.len))
    }

    /// Whether `id` falls inside this segment's allocated range.
    #[inline]
    pub fn covers(&self, id: TupleId) -> bool {
        id.get() >= self.base && id.get() < self.base + u64::from(self.len)
    }

    /// True once the segment has allocated all its capacity. Sealed
    /// segments only ever shrink (tombstoning), never grow.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        (self.len as usize) >= self.capacity
    }

    /// True if the segment uses the compact sparse layout.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse { .. })
    }

    /// Number of live tuples.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Number of allocated slots (live + tombstones).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.len as usize
    }

    /// Number of tombstoned slots.
    pub fn tombstone_count(&self) -> usize {
        self.len as usize - self.live_count
    }

    /// Fraction of allocated slots still live (1.0 for an empty segment, so
    /// unsealed fresh segments are never compaction candidates).
    pub fn live_fraction(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.live_count as f64 / self.len as f64
        }
    }

    /// Approximate heap footprint of the live tuples, in bytes.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// The segment's zone map.
    #[inline]
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Appends a tuple. The caller (the table) guarantees the tuple's id is
    /// exactly [`end`](Self::end) and the segment is not sealed. Only dense
    /// segments accept appends (sparse segments are always sealed).
    pub(crate) fn push(&mut self, tuple: Tuple) {
        debug_assert!(!self.is_sealed(), "push into sealed segment");
        debug_assert_eq!(tuple.meta.id, self.end(), "tuple id must be dense");
        self.zone.observe_row(&tuple.values);
        self.approx_bytes += tuple.approx_bytes();
        self.live_count += 1;
        self.len += 1;
        match &mut self.repr {
            Repr::Dense(slots) => slots.push(Slot::Live(tuple)),
            Repr::Sparse { .. } => unreachable!("sparse segments are sealed"),
        }
    }

    #[inline]
    fn offset_of(&self, id: TupleId) -> Option<u32> {
        if self.covers(id) {
            Some((id.get() - self.base) as u32)
        } else {
            None
        }
    }

    /// The live tuple with `id`, if present.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        let off = self.offset_of(id)?;
        match &self.repr {
            Repr::Dense(slots) => slots[off as usize].live(),
            Repr::Sparse { live, .. } => live
                .binary_search_by_key(&off, |(o, _)| *o)
                .ok()
                .map(|i| &live[i].1),
        }
    }

    /// Mutable access to the live tuple with `id`, if present.
    ///
    /// Note: mutating values through this handle does not update the zone
    /// map; the engine only mutates *metadata* (freshness, infection,
    /// access) in place, never attribute values.
    pub fn get_mut(&mut self, id: TupleId) -> Option<&mut Tuple> {
        let off = self.offset_of(id)?;
        match &mut self.repr {
            Repr::Dense(slots) => slots[off as usize].live_mut(),
            Repr::Sparse { live, .. } => live
                .binary_search_by_key(&off, |(o, _)| *o)
                .ok()
                .map(|i| &mut live[i].1),
        }
    }

    /// The removal reason for `id` if it is tombstoned, `None` if live or
    /// uncovered.
    pub fn tombstone_reason(&self, id: TupleId) -> Option<TombstoneReason> {
        let off = self.offset_of(id)?;
        match &self.repr {
            Repr::Dense(slots) => match slots[off as usize] {
                Slot::Tombstone(r) => Some(r),
                Slot::Live(_) => None,
            },
            Repr::Sparse { holes, .. } => holes
                .iter()
                .find(|h| off >= h.offset && off < h.offset + h.len)
                .map(|h| h.reason),
        }
    }

    /// Tombstones the tuple with `id`, returning it. `None` if absent or
    /// already dead.
    pub fn remove(&mut self, id: TupleId, reason: TombstoneReason) -> Option<Tuple> {
        let off = self.offset_of(id)?;
        let removed = match &mut self.repr {
            Repr::Dense(slots) => {
                let slot = &mut slots[off as usize];
                if matches!(slot, Slot::Tombstone(_)) {
                    return None;
                }
                match std::mem::replace(slot, Slot::Tombstone(reason)) {
                    Slot::Live(t) => t,
                    Slot::Tombstone(_) => unreachable!(),
                }
            }
            Repr::Sparse { live, holes } => {
                let idx = live.binary_search_by_key(&off, |(o, _)| *o).ok()?;
                let (_, t) = live.remove(idx);
                insert_hole(holes, off, reason);
                t
            }
        };
        self.live_count -= 1;
        self.approx_bytes = self.approx_bytes.saturating_sub(removed.approx_bytes());
        Some(removed)
    }

    /// Iterates the live tuples in id order.
    pub fn iter_live(&self) -> Box<dyn Iterator<Item = &Tuple> + '_> {
        match &self.repr {
            Repr::Dense(slots) => Box::new(slots.iter().filter_map(Slot::live)),
            Repr::Sparse { live, .. } => Box::new(live.iter().map(|(_, t)| t)),
        }
    }

    /// The live tuples' metadata, mutably, in id order: the write half of
    /// the table's rot walk. Attribute values are out of reach, so the zone
    /// map and byte count stay exact.
    pub(crate) fn live_metas_mut(&mut self) -> Box<dyn Iterator<Item = &mut TupleMeta> + '_> {
        match &mut self.repr {
            Repr::Dense(slots) => Box::new(
                slots
                    .iter_mut()
                    .filter_map(Slot::live_mut)
                    .map(|t| &mut t.meta),
            ),
            Repr::Sparse { live, .. } => Box::new(live.iter_mut().map(|(_, t)| &mut t.meta)),
        }
    }

    /// Visits every allocated slot in id order as
    /// `(id, live tuple or tombstone reason)`. Used by the spot census.
    pub fn for_each_slot(&self, mut f: impl FnMut(TupleId, Result<&Tuple, TombstoneReason>)) {
        match &self.repr {
            Repr::Dense(slots) => {
                for (i, slot) in slots.iter().enumerate() {
                    let id = TupleId(self.base + i as u64);
                    match slot {
                        Slot::Live(t) => f(id, Ok(t)),
                        Slot::Tombstone(r) => f(id, Err(*r)),
                    }
                }
            }
            Repr::Sparse { live, holes } => {
                // Merge the two sorted streams by offset.
                let mut li = live.iter().peekable();
                let mut hi = holes
                    .iter()
                    .flat_map(|h| (h.offset..h.offset + h.len).map(move |o| (o, h.reason)));
                let mut next_hole = hi.next();
                loop {
                    match (li.peek(), next_hole) {
                        (Some((lo, _)), Some((ho, _))) if *lo < ho => {
                            let (lo, t) = li.next().unwrap();
                            f(TupleId(self.base + u64::from(*lo)), Ok(t));
                        }
                        (Some(_), Some((ho, r))) => {
                            f(TupleId(self.base + u64::from(ho)), Err(r));
                            next_hole = hi.next();
                        }
                        (Some(_), None) => {
                            let (lo, t) = li.next().unwrap();
                            f(TupleId(self.base + u64::from(*lo)), Ok(t));
                        }
                        (None, Some((ho, r))) => {
                            f(TupleId(self.base + u64::from(ho)), Err(r));
                            next_hole = hi.next();
                        }
                        (None, None) => break,
                    }
                }
            }
        }
    }

    /// Converts a dense segment to the sparse layout, reclaiming tombstone
    /// slot memory, and rebuilds zone map + byte count exactly. No-op for
    /// already sparse segments (beyond the summary rebuild).
    ///
    /// Only sealed segments may be compacted — the table's tail segment
    /// stays dense so appends remain O(1).
    pub(crate) fn compact(&mut self, arity: usize) {
        debug_assert!(self.is_sealed(), "compact unsealed segment");
        if let Repr::Dense(slots) = &mut self.repr {
            let taken = std::mem::take(slots);
            let mut live = Vec::with_capacity(self.live_count);
            let mut holes: Vec<HoleRun> = Vec::new();
            for (i, slot) in taken.into_iter().enumerate() {
                let off = i as u32;
                match slot {
                    Slot::Live(t) => live.push((off, t)),
                    Slot::Tombstone(r) => match holes.last_mut() {
                        Some(h) if h.offset + h.len == off && h.reason == r => h.len += 1,
                        _ => holes.push(HoleRun {
                            offset: off,
                            len: 1,
                            reason: r,
                        }),
                    },
                }
            }
            self.repr = Repr::Sparse { live, holes };
        }
        self.rebuild_summaries(arity);
    }

    /// Rebuilds the zone map and byte count from the live tuples.
    pub(crate) fn rebuild_summaries(&mut self, arity: usize) {
        let mut zone = ZoneMap::new(arity);
        let mut bytes = 0;
        for t in self.iter_live() {
            zone.observe_row(&t.values);
            bytes += t.approx_bytes();
        }
        self.zone = zone;
        self.approx_bytes = bytes;
    }

    /// Consumes the segment, yielding its live tuples in id order (the
    /// whole-shard drop path — no tombstones are written).
    pub(crate) fn into_live(self) -> Box<dyn Iterator<Item = Tuple>> {
        match self.repr {
            Repr::Dense(slots) => Box::new(slots.into_iter().filter_map(|s| match s {
                Slot::Live(t) => Some(t),
                Slot::Tombstone(_) => None,
            })),
            Repr::Sparse { live, .. } => Box::new(live.into_iter().map(|(_, t)| t)),
        }
    }

    /// Restores an allocated slot during snapshot decode.
    /// Slots must be appended in id order starting at `base`.
    pub(crate) fn push_slot_restored(&mut self, slot: Slot) {
        match &slot {
            Slot::Live(t) => {
                self.zone.observe_row(&t.values);
                self.approx_bytes += t.approx_bytes();
                self.live_count += 1;
            }
            Slot::Tombstone(_) => {}
        }
        self.len += 1;
        match &mut self.repr {
            Repr::Dense(slots) => slots.push(slot),
            Repr::Sparse { .. } => unreachable!("restore builds dense segments"),
        }
    }
}

/// Inserts a single tombstone offset into an RLE hole list, merging with
/// adjacent runs of the same reason.
fn insert_hole(holes: &mut Vec<HoleRun>, off: u32, reason: TombstoneReason) {
    // Find the insertion point: first run starting after `off`.
    let idx = holes.partition_point(|h| h.offset <= off);
    // Try to extend the previous run.
    if idx > 0 {
        let prev = &mut holes[idx - 1];
        debug_assert!(off >= prev.offset + prev.len, "offset already tombstoned");
        if prev.offset + prev.len == off && prev.reason == reason {
            prev.len += 1;
            // Possibly merge with the following run.
            if idx < holes.len() && holes[idx].offset == off + 1 && holes[idx].reason == reason {
                holes[idx - 1].len += holes[idx].len;
                holes.remove(idx);
            }
            return;
        }
    }
    // Try to extend the following run backwards.
    if idx < holes.len() && holes[idx].offset == off + 1 && holes[idx].reason == reason {
        holes[idx].offset = off;
        holes[idx].len += 1;
        return;
    }
    holes.insert(
        idx,
        HoleRun {
            offset: off,
            len: 1,
            reason,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_types::{Tick, Value};

    fn tuple(id: u64, v: i64) -> Tuple {
        Tuple::new(TupleId(id), Tick(0), vec![Value::Int(v)])
    }

    fn filled_segment() -> Segment {
        let mut s = Segment::new(TupleId(10), 4, 1);
        for i in 0..4 {
            s.push(tuple(10 + i, i as i64 * 10));
        }
        s
    }

    #[test]
    fn push_and_lookup() {
        let s = filled_segment();
        assert!(s.is_sealed());
        assert_eq!(s.live_count(), 4);
        assert_eq!(s.base(), TupleId(10));
        assert_eq!(s.end(), TupleId(14));
        assert!(s.covers(TupleId(13)));
        assert!(!s.covers(TupleId(14)));
        assert!(!s.covers(TupleId(9)));
        assert_eq!(s.get(TupleId(12)).unwrap().values[0], Value::Int(20));
        assert!(s.get(TupleId(14)).is_none());
    }

    #[test]
    fn a_copy_of_an_open_segment_keeps_room_for_the_next_append() {
        let mut s = Segment::new(TupleId(0), 64, 1);
        for i in 0..5 {
            s.push(tuple(i, i as i64));
        }
        let room = |s: &Segment| match &s.repr {
            Repr::Dense(slots) => slots.capacity(),
            Repr::Sparse { .. } => unreachable!("never compacted"),
        };
        assert!(room(&s) > 5, "amortised growth left spare slots");
        let mut copy = s.clone();
        assert_eq!(copy, s);
        let copied_room = room(&copy);
        assert!(copied_room >= room(&s));
        copy.push(tuple(5, 5));
        assert_eq!(room(&copy), copied_room, "the append did not reallocate");
    }

    #[test]
    fn remove_tombstones_and_counts() {
        let mut s = filled_segment();
        let t = s.remove(TupleId(11), TombstoneReason::Consumed).unwrap();
        assert_eq!(t.meta.id, TupleId(11));
        assert_eq!(s.live_count(), 3);
        assert_eq!(s.tombstone_count(), 1);
        assert!(s.get(TupleId(11)).is_none());
        assert!(
            s.remove(TupleId(11), TombstoneReason::Rotted).is_none(),
            "double remove"
        );
        assert_eq!(
            s.tombstone_reason(TupleId(11)),
            Some(TombstoneReason::Consumed)
        );
        assert_eq!(s.tombstone_reason(TupleId(12)), None);
    }

    #[test]
    fn live_fraction_and_bytes_shrink() {
        let mut s = filled_segment();
        let before = s.approx_bytes();
        assert_eq!(s.live_fraction(), 1.0);
        s.remove(TupleId(10), TombstoneReason::Rotted);
        s.remove(TupleId(12), TombstoneReason::Rotted);
        assert_eq!(s.live_fraction(), 0.5);
        assert!(s.approx_bytes() < before);
        let empty = Segment::new(TupleId(0), 4, 1);
        assert_eq!(
            empty.live_fraction(),
            1.0,
            "empty segments are not compaction bait"
        );
    }

    #[test]
    fn iteration_orders_by_id() {
        let mut s = filled_segment();
        s.remove(TupleId(11), TombstoneReason::Deleted);
        let ids: Vec<u64> = s.iter_live().map(|t| t.meta.id.get()).collect();
        assert_eq!(ids, vec![10, 12, 13]);
        let mut slot_ids = Vec::new();
        s.for_each_slot(|id, _| slot_ids.push(id.get()));
        assert_eq!(slot_ids, vec![10, 11, 12, 13]);
    }

    #[test]
    fn zone_map_reflects_pushes() {
        let s = filled_segment();
        let e = s.zone().entry(0).unwrap();
        assert_eq!(e.min, Some(Value::Int(0)));
        assert_eq!(e.max, Some(Value::Int(30)));
    }

    #[test]
    fn compact_converts_to_sparse_preserving_contents() {
        let mut s = filled_segment();
        s.remove(TupleId(13), TombstoneReason::Rotted); // drops the max (30)
        s.remove(TupleId(10), TombstoneReason::Consumed);
        s.compact(1);
        assert!(s.is_sparse());
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.slot_count(), 4, "id range is preserved");
        assert_eq!(s.get(TupleId(11)).unwrap().values[0], Value::Int(10));
        assert_eq!(s.get(TupleId(12)).unwrap().values[0], Value::Int(20));
        assert!(s.get(TupleId(10)).is_none());
        assert_eq!(
            s.tombstone_reason(TupleId(13)),
            Some(TombstoneReason::Rotted)
        );
        // Zone map narrowed by the rebuild.
        let e = s.zone().entry(0).unwrap();
        assert_eq!(e.max, Some(Value::Int(20)));
        assert_eq!(e.min, Some(Value::Int(10)));
    }

    #[test]
    fn sparse_removal_and_hole_merging() {
        let mut s = filled_segment();
        s.compact(1);
        assert!(s.is_sparse());
        s.remove(TupleId(11), TombstoneReason::Rotted);
        s.remove(TupleId(13), TombstoneReason::Rotted);
        s.remove(TupleId(12), TombstoneReason::Rotted);
        assert_eq!(s.live_count(), 1);
        // All three removals merged into one hole run 1..4.
        let mut holes = Vec::new();
        s.for_each_slot(|id, r| {
            if r.is_err() {
                holes.push(id.get());
            }
        });
        assert_eq!(holes, vec![11, 12, 13]);
        assert_eq!(
            s.tombstone_reason(TupleId(12)),
            Some(TombstoneReason::Rotted)
        );
        assert!(s.remove(TupleId(12), TombstoneReason::Deleted).is_none());
    }

    #[test]
    fn sparse_mixed_reason_holes_do_not_merge() {
        let mut s = filled_segment();
        s.compact(1);
        s.remove(TupleId(11), TombstoneReason::Rotted);
        s.remove(TupleId(12), TombstoneReason::Consumed);
        assert_eq!(
            s.tombstone_reason(TupleId(11)),
            Some(TombstoneReason::Rotted)
        );
        assert_eq!(
            s.tombstone_reason(TupleId(12)),
            Some(TombstoneReason::Consumed)
        );
    }

    #[test]
    fn for_each_slot_merges_sparse_streams_in_order() {
        let mut s = filled_segment();
        s.remove(TupleId(10), TombstoneReason::Rotted);
        s.remove(TupleId(12), TombstoneReason::Consumed);
        s.compact(1);
        let mut seen = Vec::new();
        s.for_each_slot(|id, r| seen.push((id.get(), r.is_ok())));
        assert_eq!(seen, vec![(10, false), (11, true), (12, false), (13, true)]);
    }

    #[test]
    fn get_mut_allows_meta_mutation_in_both_layouts() {
        let mut s = filled_segment();
        s.get_mut(TupleId(10)).unwrap().meta.infect(Tick(5));
        assert!(s.get(TupleId(10)).unwrap().meta.infected);
        s.compact(1);
        s.get_mut(TupleId(11)).unwrap().meta.infect(Tick(6));
        assert!(s.get(TupleId(11)).unwrap().meta.infected);
        assert!(s.get_mut(TupleId(99)).is_none());
    }

    #[test]
    fn insert_hole_merges_adjacent_runs() {
        let mut holes = Vec::new();
        insert_hole(&mut holes, 5, TombstoneReason::Rotted);
        insert_hole(&mut holes, 7, TombstoneReason::Rotted);
        insert_hole(&mut holes, 6, TombstoneReason::Rotted);
        assert_eq!(
            holes,
            vec![HoleRun {
                offset: 5,
                len: 3,
                reason: TombstoneReason::Rotted
            }]
        );
        // Prepend extension.
        insert_hole(&mut holes, 4, TombstoneReason::Rotted);
        assert_eq!(holes[0].offset, 4);
        assert_eq!(holes[0].len, 4);
        // Different reason stays separate.
        insert_hole(&mut holes, 8, TombstoneReason::Consumed);
        assert_eq!(holes.len(), 2);
    }
}
