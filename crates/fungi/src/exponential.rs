//! Exponential (geometric) decay.

use fungus_types::{Freshness, Tick, TupleMeta};

/// Scales every tuple's freshness by `e^(-λ)` per tick; once freshness
/// falls below `rot_threshold` the tuple is driven to zero (pure scaling
/// would only reach zero asymptotically).
///
/// The half-life in ticks is `ln 2 / λ`.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialFungus {
    factor: f64,
    lambda: f64,
    rot_threshold: f64,
}

impl ExponentialFungus {
    /// A fungus with decay constant `lambda > 0` and the default rot
    /// threshold of 0.01.
    pub fn new(lambda: f64) -> Self {
        Self::with_threshold(lambda, 0.01)
    }

    /// Sets an explicit rot threshold in `(0, 1)`.
    ///
    /// Non-finite or non-positive `lambda` is clamped to a tiny positive
    /// value (decay must be monotone but need not be fast).
    pub fn with_threshold(lambda: f64, rot_threshold: f64) -> Self {
        let lambda = if lambda.is_finite() && lambda > 0.0 {
            lambda
        } else {
            1e-9
        };
        let rot_threshold = if rot_threshold.is_finite() {
            rot_threshold.clamp(1e-9, 1.0)
        } else {
            0.01
        };
        ExponentialFungus {
            factor: (-lambda).exp(),
            lambda,
            rot_threshold,
        }
    }

    /// The decay constant λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Half-life in ticks.
    pub fn half_life(&self) -> f64 {
        std::f64::consts::LN_2 / self.lambda
    }

    /// One application to the row `meta`: scale, and rot outright below
    /// the threshold.
    pub fn step(&self, meta: &TupleMeta, _now: Tick) -> Option<Freshness> {
        let f = meta.freshness.scaled(self.factor);
        Some(if f.get() < self.rot_threshold {
            f.decayed(1.0)
        } else {
            f
        })
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!(
            "exponential(lambda={:.4}, half_life={:.1}, threshold={:.3})",
            self.lambda,
            self.half_life(),
            self.rot_threshold
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{freshness, table_with};
    use fungus_storage::TableStore;

    fn tick(f: &ExponentialFungus, table: &mut TableStore) {
        table.rot_walk(&mut |m| f.step(m, Tick(0)));
    }

    #[test]
    fn freshness_halves_at_half_life() {
        let mut table = table_with(1);
        let lambda = 0.1;
        let f = ExponentialFungus::new(lambda);
        let half_life = f.half_life().round() as u64; // ≈ 7
        for _ in 0..half_life {
            tick(&f, &mut table);
        }
        let fr = freshness(&table, 0);
        assert!((fr - 0.5).abs() < 0.05, "freshness {fr} should be ≈ 0.5");
    }

    #[test]
    fn tuples_rot_below_threshold() {
        let mut table = table_with(5);
        let f = ExponentialFungus::with_threshold(1.0, 0.05);
        // factor = e^-1 ≈ 0.368; after 3 ticks freshness ≈ 0.0498 < 0.05.
        for _ in 0..3 {
            tick(&f, &mut table);
        }
        let evicted = table.evict_rotten();
        assert_eq!(evicted.len(), 5);
        assert_eq!(table.live_count(), 0);
    }

    #[test]
    fn degenerate_lambda_is_clamped() {
        let f = ExponentialFungus::new(-3.0);
        assert!(f.lambda() > 0.0);
        let f = ExponentialFungus::new(f64::NAN);
        assert!(f.lambda() > 0.0);
        let mut table = table_with(2);
        tick(&ExponentialFungus::new(f64::NAN), &mut table);
        assert_eq!(table.live_count(), 2, "clamped fungus decays negligibly");
    }

    #[test]
    fn describe_reports_half_life() {
        let d = ExponentialFungus::new(0.0693).describe();
        assert!(d.contains("10.0"), "half-life of λ=0.0693 is ≈ 10: {d}");
    }
}
