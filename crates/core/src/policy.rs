//! Container policies: fungus, decay cadence, storage, and distillation.

use serde::{Deserialize, Serialize};

use fungus_fungi::FungusSpec;
use fungus_shard::ShardSpec;
use fungus_storage::StorageConfig;
use fungus_types::{Result, TickDelta};

use crate::distill::DistillSpec;

/// Everything that governs one container's lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerPolicy {
    /// The decay model (first natural law).
    pub fungus: FungusSpec,
    /// Apply the fungus every `decay_period` clock ticks.
    pub decay_period: TickDelta,
    /// Physical storage tuning.
    pub storage: StorageConfig,
    /// Run compaction every N decay passes (None = manual only).
    pub compact_every: Option<u64>,
    /// Distillation pipelines fed by departing tuples.
    pub distill: Vec<DistillSpec>,
    /// Time-range sharding of the extent (the default is one
    /// never-sealing shard).
    #[serde(default)]
    pub sharding: ShardSpec,
}

impl ContainerPolicy {
    /// A policy with the given fungus and defaults everywhere else
    /// (decay every tick, default storage, compaction every 64 passes,
    /// no distillation).
    pub fn new(fungus: FungusSpec) -> Self {
        ContainerPolicy {
            fungus,
            decay_period: TickDelta(1),
            storage: StorageConfig::default(),
            compact_every: Some(64),
            distill: Vec::new(),
            sharding: ShardSpec::default(),
        }
    }

    /// The paper's status quo: no decay at all.
    pub fn immortal() -> Self {
        ContainerPolicy::new(FungusSpec::Null)
    }

    /// Sets the decay cadence.
    #[must_use]
    pub fn with_decay_period(mut self, period: TickDelta) -> Self {
        self.decay_period = period;
        self
    }

    /// Sets the storage configuration.
    #[must_use]
    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Adds a distillation pipeline.
    #[must_use]
    pub fn with_distiller(mut self, spec: DistillSpec) -> Self {
        self.distill.push(spec);
        self
    }

    /// Sets the compaction cadence (None disables automatic compaction).
    #[must_use]
    pub fn with_compaction_every(mut self, passes: Option<u64>) -> Self {
        self.compact_every = passes;
        self
    }

    /// Splits the extent into time-range shards.
    #[must_use]
    pub fn with_sharding(mut self, spec: ShardSpec) -> Self {
        self.sharding = spec;
        self
    }

    /// Validates all nested configuration.
    pub fn validate(&self) -> Result<()> {
        self.fungus.validate()?;
        self.storage.validate()?;
        for d in &self.distill {
            d.validate()?;
        }
        self.sharding.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::DistillTrigger;
    use fungus_summary::SummarySpec;

    #[test]
    fn builder_chain() {
        let p = ContainerPolicy::new(FungusSpec::Linear { lifetime: 50 })
            .with_decay_period(TickDelta(5))
            .with_compaction_every(None)
            .with_distiller(DistillSpec {
                name: "v-moments".into(),
                column: Some("v".into()),
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Both,
            });
        assert_eq!(p.decay_period, TickDelta(5));
        assert_eq!(p.compact_every, None);
        assert_eq!(p.distill.len(), 1);
        p.validate().unwrap();
    }

    #[test]
    fn immortal_policy_is_null_fungus() {
        let p = ContainerPolicy::immortal();
        assert_eq!(p.fungus, FungusSpec::Null);
        p.validate().unwrap();
    }

    #[test]
    fn validation_bubbles_from_nested_specs() {
        let p = ContainerPolicy::new(FungusSpec::Exponential {
            lambda: -1.0,
            rot_threshold: 0.01,
        });
        assert!(p.validate().is_err());
        let mut p = ContainerPolicy::immortal();
        p.storage.segment_capacity = 0;
        assert!(p.validate().is_err());
    }
}
