//! Equi-depth (equi-height) histograms.
//!
//! Where the [equi-width](crate::histogram::EquiWidthHistogram) histogram
//! fixes the bin *edges*, an equi-depth histogram fixes the bin *masses*:
//! each of the `b` buckets holds ≈ `n/b` observations, so resolution
//! automatically concentrates where the data is. Exact equi-depth needs
//! the sorted stream, which a decaying store no longer has — this
//! implementation builds the boundaries from a deterministic uniform
//! sample, the standard approximation: a [`BiasedReservoir`] at λ = 0,
//! every arrival stamped tick 0.

use serde::{Deserialize, Serialize};

use fungus_types::{FungusError, Result, Value};

use crate::tbs::BiasedReservoir;

/// An approximate equi-depth histogram over a numeric stream.
///
/// Observations stream into a reservoir; [`boundaries`](Self::boundaries)
/// and the quantile/estimate queries derive the equi-depth structure from
/// the current sample on demand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquiDepthHistogram {
    buckets: usize,
    reservoir: BiasedReservoir,
    count: u64,
}

impl EquiDepthHistogram {
    /// A histogram with `buckets` equal-mass buckets built over a sample of
    /// `sample_size` values.
    pub fn new(buckets: usize, sample_size: usize, seed: u64) -> Result<Self> {
        if buckets == 0 {
            return Err(FungusError::InvalidConfig(
                "equi-depth histogram needs at least one bucket".into(),
            ));
        }
        if sample_size < buckets {
            return Err(FungusError::InvalidConfig(format!(
                "sample size {sample_size} must be at least the bucket count {buckets}"
            )));
        }
        Ok(EquiDepthHistogram {
            buckets,
            reservoir: BiasedReservoir::new(sample_size, 0.0, seed)?,
            count: 0,
        })
    }

    /// Folds one observation (non-finite values are dropped).
    pub fn observe(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.reservoir.observe_at(Value::Float(x), 0);
    }

    /// Total observations offered.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    fn sorted_sample(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .reservoir
            .sample()
            .iter()
            .filter_map(|(v, _)| v.as_f64())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs
    }

    /// The `buckets + 1` bucket boundaries (first = min, last = max), or
    /// `None` while the sample is empty. Bucket `i` covers
    /// `[boundaries[i], boundaries[i+1])`.
    pub fn boundaries(&self) -> Option<Vec<f64>> {
        let xs = self.sorted_sample();
        if xs.is_empty() {
            return None;
        }
        let mut bounds = Vec::with_capacity(self.buckets + 1);
        for i in 0..=self.buckets {
            let pos = (i as f64 / self.buckets as f64) * (xs.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            bounds.push(xs[lo] + (xs[hi] - xs[lo]) * frac);
        }
        Some(bounds)
    }

    /// Estimated q-quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.reservoir.quantile(q)
    }

    /// Estimated number of observations `≤ x`, scaled from the sample to
    /// the full stream.
    pub fn estimate_le(&self, x: f64) -> f64 {
        let xs = self.sorted_sample();
        if xs.is_empty() {
            return 0.0;
        }
        let below = xs.partition_point(|&v| v <= x);
        self.count as f64 * below as f64 / xs.len() as f64
    }

    /// Selectivity of the range `[lo, hi]` as a fraction of the stream.
    pub fn selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.count == 0 || hi < lo {
            return 0.0;
        }
        ((self.estimate_le(hi) - self.estimate_le(lo)) / self.count as f64).clamp(0.0, 1.0)
    }

    /// Merges a histogram with the same bucket count (and an underlying
    /// reservoir of the same capacity and seed): the backing samples
    /// merge via [`BiasedReservoir::merge`] and the boundaries derive
    /// from the combined sample on the next query. Inherits the
    /// reservoir merge's determinism and commutativity.
    pub fn merge(&mut self, other: &EquiDepthHistogram) -> Result<()> {
        if self.buckets != other.buckets {
            return Err(FungusError::SummaryError(
                "cannot merge equi-depth histograms with different bucket counts".into(),
            ));
        }
        self.reservoir.merge(&other.reservoir)?;
        self.count += other.count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_hist() -> EquiDepthHistogram {
        // 90% of mass in [0,10), 10% in [10,1000).
        let mut h = EquiDepthHistogram::new(10, 500, 7).unwrap();
        for i in 0..9000 {
            h.observe((i % 10) as f64);
        }
        for i in 0..1000 {
            h.observe(10.0 + (i % 990) as f64);
        }
        h
    }

    #[test]
    fn construction_validates() {
        assert!(EquiDepthHistogram::new(0, 100, 0).is_err());
        assert!(EquiDepthHistogram::new(10, 5, 0).is_err());
        EquiDepthHistogram::new(10, 10, 0).unwrap();
    }

    #[test]
    fn boundaries_concentrate_where_the_data_is() {
        let h = skewed_hist();
        let bounds = h.boundaries().unwrap();
        assert_eq!(bounds.len(), 11);
        // Monotone boundaries.
        for w in bounds.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // With 90% of mass below 10, at least 7 of the 10 interior
        // boundaries must fall below 10 — equi-*width* would put 10 of 11
        // boundaries above 100.
        let below_ten = bounds.iter().filter(|&&b| b < 10.0).count();
        assert!(below_ten >= 7, "boundaries {bounds:?}");
    }

    #[test]
    fn quantiles_and_estimates_on_skewed_data() {
        let h = skewed_hist();
        let median = h.quantile(0.5).unwrap();
        assert!(
            median < 10.0,
            "median of the skewed stream is tiny: {median}"
        );
        // ≤ 9.5 should capture ≈ 90% of the 10k stream.
        let le = h.estimate_le(9.5);
        assert!((8_000.0..9_800.0).contains(&le), "estimate {le}");
        // True selectivity of (0.0, 9.5] is ≈ 0.81; the reservoir-backed
        // estimate carries sampling noise of σ ≈ 0.017 at capacity 500,
        // so leave several σ of slack on each side.
        let sel = h.selectivity(0.0, 9.5);
        assert!((0.72..0.98).contains(&sel), "selectivity {sel}");
        assert_eq!(h.selectivity(5.0, 1.0), 0.0, "inverted range");
    }

    #[test]
    fn empty_histogram_answers_gracefully() {
        let h = EquiDepthHistogram::new(4, 16, 0).unwrap();
        assert_eq!(h.boundaries(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.estimate_le(5.0), 0.0);
        assert_eq!(h.selectivity(0.0, 1.0), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = EquiDepthHistogram::new(2, 8, 0).unwrap();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        h.observe(1.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = EquiDepthHistogram::new(4, 64, 3).unwrap();
        let mut b = EquiDepthHistogram::new(4, 64, 3).unwrap();
        for i in 0..500 {
            a.observe((i % 50) as f64);
            b.observe(500.0 + (i % 50) as f64);
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count(), 1000);
        // The merged median splits the two clusters.
        let median = ab.quantile(0.5).unwrap();
        assert!(
            (25.0..525.0).contains(&median),
            "median between clusters, got {median}"
        );
        // Bucket-count mismatch refuses.
        let mut c = EquiDepthHistogram::new(8, 64, 3).unwrap();
        assert!(c.merge(&a).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let build = |seed| {
            let mut h = EquiDepthHistogram::new(4, 32, seed).unwrap();
            for i in 0..1000 {
                h.observe((i * 37 % 101) as f64);
            }
            h.boundaries()
        };
        assert_eq!(build(3), build(3));
    }
}
