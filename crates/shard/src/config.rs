//! Shard layout configuration.

use serde::{Deserialize, Serialize};

use fungus_types::{FungusError, Result};

fn default_low_water() -> f64 {
    0.25
}

/// How a container's extent is split into time-range shards.
///
/// Shards are cut along the insertion (time) axis: the first
/// `rows_per_shard` tuple ids land in shard 0, the next in shard 1, and so
/// on. A shard that has handed out its full id range is *sealed*; only the
/// tail shard accepts inserts. The split is a function of ids alone, so
/// the same workload produces the same shard boundaries on every run.
///
/// With `adaptive` enabled the boundaries follow live-count drift instead
/// of staying fixed: each eviction sweep seals the tail early when the
/// observed insert rate would blow past the `rows_per_shard` row budget
/// before the next sweep, and merges a sealed shard whose live count fell
/// below `low_water · rows_per_shard` into its time-adjacent neighbor.
/// Boundaries remain a pure function of the operation history (inserts
/// and sweep timing), so adaptive runs are exactly as reproducible as
/// fixed ones — and observationally identical to a monolithic store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Tuple ids per shard (the time-range width of one shard). Under
    /// `adaptive` this is the high-water row budget a tail shard may not
    /// outgrow between eviction sweeps.
    pub rows_per_shard: u64,
    /// Enables the adaptive shard lifecycle (early tail seals under insert
    /// pressure, low-water merges of hollowed-out sealed shards).
    #[serde(default)]
    pub adaptive: bool,
    /// Live fraction of `rows_per_shard` below which a sealed shard is
    /// merge-eligible. Only consulted when `adaptive` is on.
    #[serde(default = "default_low_water")]
    pub low_water: f64,
}

impl ShardSpec {
    /// The never-sealing width: a shard this wide cannot fill, so the
    /// extent stays one shard — the layout of a container declared without
    /// a sharding clause. Policies and layout manifests travel through
    /// `fungus_types::json`, whose numbers are `f64` and whose integer
    /// rendering stops at 9.0e15; 2^52 is exact under both, which
    /// `u64::MAX` is not. Also the largest width [`validate`] accepts.
    ///
    /// [`validate`]: Self::validate
    pub const UNSEALED_ROWS: u64 = 1 << 52;

    /// A spec splitting every `rows_per_shard` inserted rows.
    pub fn new(rows_per_shard: u64) -> Self {
        ShardSpec {
            rows_per_shard,
            adaptive: false,
            low_water: default_low_water(),
        }
    }

    /// Turns on the adaptive shard lifecycle (split/merge on live-count
    /// drift, driven by the eviction sweep).
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Sets the low-water merge fraction (and implies nothing else:
    /// combine with [`with_adaptive`](Self::with_adaptive) to activate
    /// merging).
    pub fn with_low_water(mut self, low_water: f64) -> Self {
        self.low_water = low_water;
        self
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        if self.rows_per_shard == 0 || self.rows_per_shard > Self::UNSEALED_ROWS {
            return Err(FungusError::InvalidConfig(format!(
                "rows_per_shard must be in [1, {}], got {}",
                Self::UNSEALED_ROWS,
                self.rows_per_shard
            )));
        }
        if self.adaptive && self.rows_per_shard == Self::UNSEALED_ROWS {
            return Err(FungusError::InvalidConfig(
                "adaptive sharding needs a finite rows_per_shard budget".into(),
            ));
        }
        if !self.low_water.is_finite() || self.low_water < 0.0 || self.low_water >= 1.0 {
            return Err(FungusError::InvalidConfig(format!(
                "shard low_water must be in [0, 1), got {}",
                self.low_water
            )));
        }
        Ok(())
    }
}

/// One never-sealing shard: what a container declared without a sharding
/// clause gets.
impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::new(Self::UNSEALED_ROWS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_specs() {
        assert!(ShardSpec::new(0).validate().is_err());
        assert!(ShardSpec::new(16).with_low_water(1.0).validate().is_err());
        assert!(ShardSpec::new(16).with_low_water(-0.1).validate().is_err());
        assert!(ShardSpec::new(16)
            .with_low_water(f64::NAN)
            .validate()
            .is_err());
        assert!(ShardSpec::new(16).validate().is_ok());
        assert!(ShardSpec::new(16)
            .with_adaptive()
            .with_low_water(0.5)
            .validate()
            .is_ok());
        assert!(ShardSpec::default().validate().is_ok());
        assert!(ShardSpec::default().with_adaptive().validate().is_err());
        assert!(ShardSpec::new(ShardSpec::UNSEALED_ROWS + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ShardSpec::new(128);
        let json = fungus_types::json::to_string(&spec).unwrap();
        let back: ShardSpec = fungus_types::json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let spec = ShardSpec::new(64).with_adaptive().with_low_water(0.4);
        let json = fungus_types::json::to_string(&spec).unwrap();
        let back: ShardSpec = fungus_types::json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // The adaptive knobs are optional on the wire, so pre-adaptive
        // policies parse unchanged.
        let bare: ShardSpec = fungus_types::json::from_str(r#"{"rows_per_shard":7}"#).unwrap();
        assert_eq!(bare, ShardSpec::new(7));
        assert!(!bare.adaptive);
        assert_eq!(bare.low_water, 0.25);
        // Specs written while shards had a `workers` fan-out knob still
        // parse: the field is ignored, with or without a value.
        for old in [
            r#"{"rows_per_shard":7,"workers":2}"#,
            r#"{"rows_per_shard":7,"workers":null}"#,
        ] {
            let back: ShardSpec = fungus_types::json::from_str(old).unwrap();
            assert_eq!(back, ShardSpec::new(7), "{old}");
        }
        // The never-sealing width survives the codec's f64 numbers exactly.
        let json = fungus_types::json::to_string(&ShardSpec::default()).unwrap();
        let back: ShardSpec = fungus_types::json::from_str(&json).unwrap();
        assert_eq!(back, ShardSpec::default());
    }
}
