//! Temporally-biased reservoir sampling.
//!
//! A uniform reservoir sample treats a ten-tick-old observation and a
//! ten-thousand-tick-old one alike; a model trained on such a sample goes
//! stale exactly as fast as the container under it rots.
//! [`BiasedReservoir`] implements the
//! exponential time-bias of Hentschel, Haas and Tian's R-TBS
//! (*Temporally-Biased Sampling Schemes for Online Model Management*):
//! the probability that an item of age `A` is in the sample is
//! proportional to `e^(−λ·A)`, so the sample is always dominated by
//! recent data while retaining an exponentially thinning tail of
//! history.
//!
//! # Construction
//!
//! The bias is realised as weighted reservoir sampling à la
//! Efraimidis–Spirakis with weight `w_i = e^(λ·t_i)` for an item
//! arriving at tick `t_i`: each arrival draws `u ∈ (0,1)` and gets the
//! key `u^(1/w_i)`; the sample is the `k` largest keys. To avoid
//! overflowing `e^(λ·t)` the key is kept in log-log space as the
//! *score* `ln(−ln u) − λ·t` (smaller is better), which is linear in
//! `t` and never overflows. At query time `T` the relative weights
//! `e^(−λ·(T−t_i))` all rescale by the same factor as `T` advances, so
//! clock ticks never change sample membership — decay is free, and the
//! inclusion probability obeys `P[i ∈ S] ≈ k·e^(−λ·age_i) / Σ_j
//! e^(−λ·age_j)` (exact for λ = 0, where this degenerates to a uniform
//! reservoir; the approximation error is the usual weighted-sampling-
//! without-replacement correction, vanishing for `k ≪ n`). The crate has
//! no other sampler: the DDL's `sample(k)` and the equi-depth histogram's
//! boundary sample are this reservoir at λ = 0.
//!
//! Draws come from a seeded `SmallRng` mixed with a seeded hash of the
//! arrival's `(value, tick)`, a deserialised instance re-derives its
//! stream from `(seed, seen)`, and scores are data — they serialise with
//! the item, so membership survives round trips bit-for-bit. The hash is
//! what keeps a merge honest: two same-seed reservoirs draw the same rng
//! sequence, so without it the i-th arrivals of both sides would share a
//! score and the merged sample would keep them in pairs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Deserializer, Serialize};

use fungus_types::{FungusError, Result, Value};

use crate::hash::hash_value;

/// One sampled item: the Efraimidis–Spirakis score (smaller is
/// better), the arrival tick, and the value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TbsItem {
    score: f64,
    stamp: u64,
    value: Value,
}

/// An exponentially time-biased sample of up to `k` values.
#[derive(Debug, Clone, Serialize)]
pub struct BiasedReservoir {
    capacity: usize,
    lambda: f64,
    seed: u64,
    seen: u64,
    items: Vec<TbsItem>,
    #[serde(skip)]
    rng: SmallRng,
}

impl<'de> Deserialize<'de> for BiasedReservoir {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            capacity: usize,
            lambda: f64,
            seed: u64,
            seen: u64,
            items: Vec<TbsItem>,
        }
        let w = Wire::deserialize(deserializer)?;
        Ok(BiasedReservoir {
            rng: SmallRng::seed_from_u64(w.seed ^ w.seen.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            capacity: w.capacity.max(1),
            lambda: w.lambda,
            seed: w.seed,
            seen: w.seen,
            items: w.items,
        })
    }
}

impl PartialEq for BiasedReservoir {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.lambda.to_bits() == other.lambda.to_bits()
            && self.seen == other.seen
            && self.items == other.items
    }
}

/// The total order on items: score, then value, then stamp — ties are
/// only possible between indistinguishable items, so any consistent
/// order yields identical sample contents.
fn item_order(a: &TbsItem, b: &TbsItem) -> std::cmp::Ordering {
    a.score
        .total_cmp(&b.score)
        .then_with(|| a.value.cmp_total(&b.value))
        .then_with(|| a.stamp.cmp(&b.stamp))
}

impl BiasedReservoir {
    /// A biased reservoir of `capacity` values (zero promoted to 1)
    /// decaying at `lambda` per tick.
    pub fn new(capacity: usize, lambda: f64, seed: u64) -> Result<Self> {
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(FungusError::InvalidConfig(format!(
                "biased reservoir decay rate must be finite and ≥ 0, got {lambda}"
            )));
        }
        let capacity = capacity.max(1);
        Ok(BiasedReservoir {
            capacity,
            lambda,
            seed,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// Folds one observation arriving at tick `now`.
    pub fn observe_at(&mut self, value: Value, now: u64) {
        self.seen += 1;
        // 53-bit uniform in (0,1): the +0.5 keeps u strictly inside the
        // open interval so both logs are finite.
        let bits = self.rng.gen::<u64>()
            ^ hash_value(&value, self.seed ^ now.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let u = ((bits >> 11) as f64 + 0.5) / 9_007_199_254_740_992.0;
        let score = (-u.ln()).ln() - self.lambda * now as f64;
        let item = TbsItem {
            score,
            stamp: now,
            value,
        };
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        // Replace the worst (largest-score) resident if the newcomer
        // beats it.
        let worst = self
            .items
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| item_order(a, b))
            .map(|(i, _)| i)
            .expect("capacity ≥ 1");
        if item_order(&item, &self.items[worst]) == std::cmp::Ordering::Less {
            self.items[worst] = item;
        }
    }

    /// Stream length so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Sample capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Decay rate per tick.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The current sample as `(value, arrival tick)` pairs, sorted most
    /// recent first (value order breaks ties) for deterministic output.
    pub fn sample(&self) -> Vec<(&Value, u64)> {
        let mut out: Vec<(&Value, u64)> = self.items.iter().map(|i| (&i.value, i.stamp)).collect();
        out.sort_by(|(va, sa), (vb, sb)| sb.cmp(sa).then_with(|| va.cmp_total(vb)));
        out
    }

    /// Number of sampled values currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Estimated q-quantile of the numeric sampled values — a *recency-
    /// weighted* quantile, since the sample is exponentially biased
    /// toward fresh observations. `None` when no numeric values.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut xs: Vec<f64> = self.items.iter().filter_map(|i| i.value.as_f64()).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let pos = q * (xs.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(xs[lo] + (xs[hi] - xs[lo]) * frac)
    }

    /// Merges a reservoir with the same capacity, seed, and decay rate:
    /// the union of both samples is re-selected by score, which is
    /// exactly the sample the Efraimidis–Spirakis scheme would have
    /// kept had one instance seen both streams (scores are portable
    /// because they embed the arrival tick). Commutative bit-for-bit:
    /// the union is sorted by the items' total order before truncation,
    /// and the continued rng stream re-derives from `(seed, seen)` just
    /// as deserialisation does.
    pub fn merge(&mut self, other: &BiasedReservoir) -> Result<()> {
        if self.capacity != other.capacity
            || self.seed != other.seed
            || self.lambda.to_bits() != other.lambda.to_bits()
        {
            return Err(FungusError::SummaryError(
                "cannot merge biased reservoirs with different capacities, seeds, or decay rates"
                    .into(),
            ));
        }
        self.items.extend(other.items.iter().cloned());
        self.items.sort_by(item_order);
        self.items.truncate(self.capacity);
        self.seen += other.seen;
        self.rng =
            SmallRng::seed_from_u64(self.seed ^ self.seen.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(BiasedReservoir::new(4, f64::NAN, 0).is_err());
        assert!(BiasedReservoir::new(4, -1.0, 0).is_err());
        let r = BiasedReservoir::new(0, 0.1, 0).unwrap();
        assert_eq!(r.capacity(), 1);
    }

    #[test]
    fn fills_then_stays_at_capacity() {
        let mut r = BiasedReservoir::new(10, 0.05, 1).unwrap();
        for t in 0..100u64 {
            r.observe_at(Value::Int(t as i64), t);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn sample_is_biased_toward_recent_ticks() {
        // 1000 arrivals, one per tick, λ = 0.02: the mean sampled stamp
        // must sit far above the uniform expectation of ≈ 500.
        let mut mean_stamp = 0.0;
        for seed in 0..10u64 {
            let mut r = BiasedReservoir::new(50, 0.02, seed).unwrap();
            for t in 0..1000u64 {
                r.observe_at(Value::Int(t as i64), t);
            }
            mean_stamp += r.sample().iter().map(|(_, s)| *s as f64).sum::<f64>() / 50.0;
        }
        mean_stamp /= 10.0;
        assert!(
            mean_stamp > 700.0,
            "exponential bias should skew stamps high, got mean {mean_stamp}"
        );
        // λ = 0 stays uniform.
        let mut mean_uniform = 0.0;
        for seed in 0..10u64 {
            let mut r = BiasedReservoir::new(50, 0.0, seed).unwrap();
            for t in 0..1000u64 {
                r.observe_at(Value::Int(t as i64), t);
            }
            mean_uniform += r.sample().iter().map(|(_, s)| *s as f64).sum::<f64>() / 50.0;
        }
        mean_uniform /= 10.0;
        assert!(
            (350.0..650.0).contains(&mean_uniform),
            "λ=0 is a uniform reservoir, got mean {mean_uniform}"
        );
    }

    #[test]
    fn ticks_without_arrivals_change_nothing() {
        // Membership depends only on the arrival sequence: querying at
        // arbitrarily late ticks is pure.
        let mut r = BiasedReservoir::new(5, 0.1, 3).unwrap();
        for t in 0..50u64 {
            r.observe_at(Value::Int(t as i64), t);
        }
        let before = r
            .sample()
            .iter()
            .map(|(v, s)| ((*v).clone(), *s))
            .collect::<Vec<_>>();
        let _ = r.quantile(0.5);
        let after = r
            .sample()
            .iter()
            .map(|(v, s)| ((*v).clone(), *s))
            .collect::<Vec<_>>();
        assert_eq!(before, after);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut r = BiasedReservoir::new(8, 0.05, seed).unwrap();
            for t in 0..200u64 {
                r.observe_at(Value::Int((t % 37) as i64), t);
            }
            r.sample()
                .iter()
                .map(|(v, s)| ((*v).clone(), *s))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn merge_is_commutative_and_respects_scores() {
        let build = |range: std::ops::Range<u64>| {
            let mut r = BiasedReservoir::new(6, 0.05, 9).unwrap();
            for t in range {
                r.observe_at(Value::Int(t as i64), t);
            }
            r
        };
        let a = build(0..40);
        let b = build(40..80);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.seen(), 80);
        assert_eq!(ab.len(), 6);
        // Mismatches refuse.
        let mut c = BiasedReservoir::new(6, 0.1, 9).unwrap();
        assert!(c.merge(&a).is_err());
        let mut d = BiasedReservoir::new(6, 0.05, 10).unwrap();
        assert!(d.merge(&a).is_err());
        let mut e = BiasedReservoir::new(7, 0.05, 9).unwrap();
        assert!(e.merge(&a).is_err());
    }

    #[test]
    fn same_seed_merge_does_not_pair_index_twins() {
        // Both sides of a merge share one seed, so they draw the same
        // rng sequence; at λ = 0 the i-th arrival of each would get the
        // same score unless the draw also depends on the arrival. Count
        // merged samples holding both `i` and its twin `i + 500`: over
        // 500 candidate pairs, independent draws predict 500 · (50/1000)²
        // ≈ 1.25 per seed, where shared scores would make all 25 twins.
        let mut twins = 0;
        for seed in 0..20u64 {
            let build = |range: std::ops::Range<u64>| {
                let mut r = BiasedReservoir::new(50, 0.0, seed).unwrap();
                for t in range {
                    r.observe_at(Value::Int(t as i64), t);
                }
                r
            };
            let mut ab = build(0..500);
            ab.merge(&build(500..1000)).unwrap();
            let held: std::collections::BTreeSet<i64> =
                ab.sample().iter().filter_map(|(v, _)| v.as_i64()).collect();
            twins += held
                .iter()
                .filter(|&&i| i < 500 && held.contains(&(i + 500)))
                .count();
        }
        assert!(twins < 75, "{twins} index twins in 20 merged samples");
    }

    #[test]
    fn deserialised_reservoir_continues_deterministically() {
        let mut r = BiasedReservoir::new(4, 0.02, 9).unwrap();
        for t in 0..100u64 {
            r.observe_at(Value::Int(t as i64), t);
        }
        let json = fungus_types::json::to_string(&r).unwrap();
        let mut a: BiasedReservoir = fungus_types::json::from_str(&json).unwrap();
        let mut b: BiasedReservoir = fungus_types::json::from_str(&json).unwrap();
        assert_eq!(a, r, "sample and counters survive the round trip");
        for t in 100..200u64 {
            a.observe_at(Value::Int(t as i64), t);
            b.observe_at(Value::Int(t as i64), t);
        }
        assert_eq!(a, b, "two restores draw identically");
        assert_eq!(a.seen(), 200);
    }

    #[test]
    fn quantile_estimates_from_sample() {
        let mut r = BiasedReservoir::new(100, 0.0, 7).unwrap();
        for t in 0..5000u64 {
            r.observe_at(Value::Int((t % 100) as i64), t);
        }
        let median = r.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 15.0, "median {median}");
        assert_eq!(BiasedReservoir::new(4, 0.1, 0).unwrap().quantile(0.5), None);
    }
}
