//! The storage surface queries execute against.
//!
//! The executor does not know the extent's layout. [`ReadExtent`] is
//! everything the read phases touch — one scan that hands each match to
//! the executor — and is implemented by live extents and sealed snapshots
//! alike; [`QueryExtent`] adds the mutations (consume-deletes, touches,
//! inserts, index DDL). `execute` therefore produces bit-identical answers
//! on any layout that implements them faithfully.
//!
//! The contract that matters for determinism: [`scan`](ReadExtent::scan)
//! hands its sink the matching tuples in **global id (insertion) order**,
//! exactly the tuples a monolithic scan of the same logical extent would
//! match, and evaluates the predicate on every tuple it examines even once
//! the sink has all it will return. Diagnostic counters (`scanned`, pruned
//! counts) may differ between layouts — they describe the work done, not
//! the answer.

use fungus_storage::{TableStore, TombstoneReason};
use fungus_types::{Result, Schema, Tick, Tuple, TupleId, Value};

use crate::plan::LogicalPlan;
use crate::prune::ColumnBound;

/// The work a scan did and what pruning saved it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Live tuples the scan examined.
    pub scanned: usize,
    /// Segments skipped by zone-map pruning.
    pub pruned_segments: usize,
    /// Whole shards skipped by shard-summary pruning (0 when scanning a
    /// bare store).
    pub pruned_shards: usize,
    /// Whether a secondary index answered the scan.
    pub used_index: bool,
}

/// The read half of the storage surface.
///
/// A sealed copy-on-write snapshot of an extent implements this trait so
/// the read phases can run against it lock-free while writers mutate the
/// live version: [`scan`](ReadExtent::scan) mutates nothing, so
/// [`execute_readonly`](crate::exec::execute_readonly) produces exactly
/// the rows [`execute`](crate::exec::execute) produces against the same
/// logical extent.
pub trait ReadExtent {
    /// The extent's schema.
    fn schema(&self) -> &Schema;

    /// Hands every live tuple matching the plan's predicate to `sink`, in
    /// global id order. A predicate error stops the scan and is returned.
    fn scan(
        &self,
        plan: &LogicalPlan,
        now: Tick,
        sink: &mut dyn FnMut(&Tuple),
    ) -> Result<ScanOutcome>;
}

/// Scans one [`TableStore`]: a secondary index answers equality/range
/// probes without touching the segments; everything else walks them with
/// zone-map pruning. Each shard of an extent scans its store through
/// this.
impl ReadExtent for TableStore {
    fn schema(&self) -> &Schema {
        TableStore::schema(self)
    }

    fn scan(
        &self,
        plan: &LogicalPlan,
        now: Tick,
        sink: &mut dyn FnMut(&Tuple),
    ) -> Result<ScanOutcome> {
        let schema = self.schema();
        let mut out = ScanOutcome::default();
        let mut offer = |tuple: &Tuple| -> Result<()> {
            out.scanned += 1;
            let keep = match &plan.predicate {
                Some(p) => p.eval_predicate(tuple, schema, now)?,
                None => true,
            };
            if keep {
                sink(tuple);
            }
            Ok(())
        };
        if let Some(candidates) = index_candidates(plan, self) {
            for id in candidates {
                if let Some(tuple) = self.get(id) {
                    offer(tuple)?;
                }
            }
            out.used_index = true;
        } else {
            for seg in self.segments() {
                if !plan.pruning.is_trivial() && !plan.pruning.segment_may_match(seg) {
                    out.pruned_segments += 1;
                    continue;
                }
                for tuple in seg.iter_live() {
                    offer(tuple)?;
                }
            }
        }
        Ok(out)
    }
}

/// Mutable storage surface the query executor runs against.
pub trait QueryExtent: ReadExtent {
    /// Tombstones `id`, returning the removed tuple.
    fn delete(&mut self, id: TupleId, reason: TombstoneReason) -> Option<Tuple>;

    /// Records `reads` read accesses on `id`, the latest at `at`.
    fn touch_by(&mut self, id: TupleId, at: Tick, reads: u32);

    /// Validates and appends a row at `now`.
    fn insert(&mut self, values: Vec<Value>, now: Tick) -> Result<TupleId>;

    /// Ids of every live tuple, in id order.
    fn live_ids(&self) -> Vec<TupleId>;

    /// Builds a secondary hash index on `column`.
    fn create_index(&mut self, column: &str) -> Result<()>;

    /// Builds an ordered (range-probing) index on `column`.
    fn create_ord_index(&mut self, column: &str) -> Result<()>;
}

impl QueryExtent for TableStore {
    fn delete(&mut self, id: TupleId, reason: TombstoneReason) -> Option<Tuple> {
        TableStore::delete(self, id, reason)
    }

    fn touch_by(&mut self, id: TupleId, at: Tick, reads: u32) {
        TableStore::touch_by(self, id, at, reads)
    }

    fn insert(&mut self, values: Vec<Value>, now: Tick) -> Result<TupleId> {
        TableStore::insert(self, values, now)
    }

    fn live_ids(&self) -> Vec<TupleId> {
        self.iter_live().map(|t| t.meta.id).collect()
    }

    fn create_index(&mut self, column: &str) -> Result<()> {
        TableStore::create_index(self, column)
    }

    fn create_ord_index(&mut self, column: &str) -> Result<()> {
        TableStore::create_ord_index(self, column)
    }
}

/// Finds the first conjunctive equality bound whose column carries a hash
/// index and returns the candidate ids (insertion-ordered). The remaining
/// predicate still re-checks each candidate, so an index can only narrow
/// the scan, never change the answer.
fn index_candidates(plan: &LogicalPlan, table: &TableStore) -> Option<Vec<TupleId>> {
    for bound in plan.pruning.bounds() {
        match bound {
            ColumnBound::Eq { col, value } => {
                if let Some(ids) = table.index_probe(*col, std::slice::from_ref(value)) {
                    return Some(ids);
                }
            }
            ColumnBound::OneOf { col, values } => {
                if let Some(ids) = table.index_probe(*col, values) {
                    return Some(ids);
                }
            }
            _ => {}
        }
    }
    // No equality probe available: try an ordered-index range. Combine the
    // tightest-first Above/Below bounds per column.
    type RangeBound<'a> = (Option<(&'a Value, bool)>, Option<(&'a Value, bool)>);
    // BTreeMap, not HashMap: the loop below returns the *first* column
    // whose ordered index accepts the probe, so iteration order picks the
    // winning index — and with it the id order of the result. Hash order
    // is randomized per process; column order is deterministic.
    let mut ranges: std::collections::BTreeMap<usize, RangeBound<'_>> =
        std::collections::BTreeMap::new();
    for bound in plan.pruning.bounds() {
        match bound {
            ColumnBound::Above {
                col,
                value,
                inclusive,
            } => {
                let entry = ranges.entry(*col).or_default();
                if entry.0.is_none() {
                    entry.0 = Some((value, *inclusive));
                }
            }
            ColumnBound::Below {
                col,
                value,
                inclusive,
            } => {
                let entry = ranges.entry(*col).or_default();
                if entry.1.is_none() {
                    entry.1 = Some((value, *inclusive));
                }
            }
            _ => {}
        }
    }
    for (col, (lo, hi)) in ranges {
        if let Some(ids) = table.ord_range_probe(col, lo, hi) {
            return Some(ids);
        }
    }
    None
}
