//! Engine-wide operation counters.

use serde::{Deserialize, Serialize};

/// Monotonic counters describing one container's activity. Cheap to clone;
/// updated by the engine on every operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Tuples inserted.
    pub inserts: u64,
    /// Consuming queries executed.
    pub consuming_queries: u64,
    /// Tuples consumed by queries.
    pub tuples_consumed: u64,
    /// Tuples evicted as rotten.
    pub tuples_rotted: u64,
    /// Decay passes applied.
    pub decay_passes: u64,
    /// Values folded into distillation summaries.
    pub distilled: u64,
    /// Compaction passes executed.
    pub compactions: u64,
    /// Segments dropped by compaction.
    pub segments_dropped: u64,
    /// Whole shards detached in O(1) because every live tuple had rotted.
    #[serde(default)]
    pub shards_dropped: u64,
    /// Tail shards sealed early by the adaptive split rule (always 0 on
    /// non-adaptive extents).
    #[serde(default)]
    pub shards_split: u64,
    /// Underfull sealed shards merged into a time-adjacent neighbor.
    #[serde(default)]
    pub shards_merged: u64,
    /// Rotted tuples that were delivered along at least one rot route
    /// (preserved in another container rather than lost).
    pub rot_routed: u64,
    /// Rotted tuples folded into at least one distillation summary
    /// ("turned into summaries for later consumption").
    pub rot_distilled: u64,
}

impl EngineMetrics {
    /// Total tuples that ever left the extent.
    pub fn total_departed(&self) -> u64 {
        self.tuples_consumed + self.tuples_rotted
    }

    /// Fraction of departures that were consumed (read) rather than rotted
    /// away; 1.0 for a store with no departures (nothing wasted yet).
    pub fn consumption_ratio(&self) -> f64 {
        let total = self.total_departed();
        if total == 0 {
            1.0
        } else {
            self.tuples_consumed as f64 / total as f64
        }
    }
}

/// Aggregate shard-layout telemetry across a catalog, for operators
/// (`.stats` on the server) and experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// Resident shards across every container (one for a container
    /// declared without a sharding clause).
    pub resident: u64,
    /// Shards detached whole — O(1) rot drops plus dead-shard compaction.
    pub dropped: u64,
    /// Whole shards skipped by query-time shard pruning.
    pub pruned: u64,
    /// Tail shards sealed early by the adaptive split rule.
    #[serde(default)]
    pub split: u64,
    /// Underfull sealed shards merged into a neighbor.
    #[serde(default)]
    pub merged: u64,
    /// Shards reassembled from a shard-aware checkpoint.
    #[serde(default)]
    pub restored: u64,
}

/// Aggregate MVCC telemetry across a catalog: where the epoch counters
/// stand, how many versions were published/retired/reclaimed, and how the
/// snapshot read path is behaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MvccTelemetry {
    /// Sum of per-container epoch counters (each advances by one per
    /// snapshot publication).
    pub epoch: u64,
    /// Snapshot versions published since startup.
    pub published: u64,
    /// Versions superseded by a newer publish and handed to the
    /// reclamation list.
    pub retired: u64,
    /// Retired versions whose last reader departed and whose memory was
    /// released.
    pub reclaimed: u64,
    /// Non-consuming reads served lock-free from a sealed snapshot.
    pub snapshot_reads: u64,
    /// `CONSUME` attempts that lost their optimistic race (the epoch
    /// advanced between pin and write) and retried.
    pub consume_retries: u64,
    /// `CONSUME`s that exhausted their optimistic retries and ran their
    /// last attempt lock-first.
    pub consume_fallbacks: u64,
}

/// Aggregate cooking-pipeline telemetry across a catalog: how many
/// sketches exist, how often they are read, and how much departed data
/// they have absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SketchTelemetry {
    /// Distillation pipelines attached across every container.
    pub sketches: u64,
    /// `SUMMARIZE` reads served from those pipelines.
    pub hits: u64,
    /// Values folded into the pipelines (a tuple absorbed by two
    /// pipelines counts twice).
    pub absorbed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut m = EngineMetrics::default();
        assert_eq!(m.consumption_ratio(), 1.0);
        assert_eq!(m.total_departed(), 0);
        m.tuples_consumed = 3;
        m.tuples_rotted = 1;
        assert_eq!(m.total_departed(), 4);
        assert_eq!(m.consumption_ratio(), 0.75);
    }
}
