//! Time-fading frequent items: a Count-Min / SpaceSaving hybrid.
//!
//! A static sketch answers "how often did `x` ever occur?". Under the
//! paper's decay model the interesting question is "how often
//! *recently*?" — the time-fading count
//!
//! ```text
//! C_T(x) = Σ over arrivals of x at tick t ≤ T of  w · e^(−λ·(T−t))
//! ```
//!
//! in which every occurrence loses weight exponentially with age.
//! [`FadingSketch`] follows the FDCMSS construction (Cafaro et al.,
//! *Mining frequent items in the time fading model*): a Count-Min array
//! over fading counters for frequency estimates, fused with a
//! SpaceSaving-style counter table over the same fading weights for
//! top-k extraction. At λ = 0 no weight fades and the counters are plain
//! counts, so the crate has no separate static top-k: the DDL's `topk(k)`
//! is this sketch at λ = 0.
//!
//! # The lazy decay trick
//!
//! Nothing is recomputed when the clock ticks. Each counter stores the
//! pair `(count, stamp)` meaning "the decayed weight was `count` as of
//! tick `stamp`". Because exponential decay multiplies *every* counter
//! by the same factor per tick, the up-to-date value is the pure
//! function `count · e^(−λ·(now−stamp))` — so a counter is re-weighted
//! only when it is touched (observe, query, or merge), never in an
//! O(width·depth) per-tick sweep. Folding an arrival of weight `w` at
//! `now` is
//!
//! ```text
//! count ← count · e^(−λ·(now−stamp)) + w,   stamp ← now
//! ```
//!
//! which is independent of how many ticks elapsed in between and of how
//! observe/tick calls interleave: the state after any schedule of
//! arrivals is a function of the arrival (value, tick) sequence alone.
//!
//! # Error bounds
//!
//! Let `W_T = Σ_x C_T(x)` be the total decayed stream weight at query
//! time `T`. The Count-Min argument applies verbatim to decayed sums:
//! [`estimate_at`](FadingSketch::estimate_at) never underestimates
//! `C_T(x)` and overestimates by at most `(e/width)·W_T` with
//! probability `1 − e^(−depth)`. The SpaceSaving argument likewise
//! survives decay: every key with `C_T(x) > W_T / capacity` is present
//! in the counter table, and each tracked count overestimates `C_T(x)`
//! by at most its recorded fading `error`.

use std::collections::HashMap;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

use fungus_types::{FungusError, Result, Value};

use crate::hash::{hash_value, StableState};

/// A fading counter: decayed weight `count` as of tick `stamp`, with the
/// SpaceSaving overestimation mass `error` fading on the same clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FadingCounter {
    count: f64,
    error: f64,
    stamp: u64,
}

/// One reported time-fading heavy hitter.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingHitter {
    /// The key.
    pub key: Value,
    /// Estimated decayed weight at the query tick
    /// (`true ≤ weight`, `≥ weight − error`).
    pub weight: f64,
    /// Maximum overestimation, decayed to the query tick.
    pub error: f64,
}

/// The time-fading Count-Min/SpaceSaving hybrid.
///
/// Deterministic for a given seed: hashing uses the seeded stable
/// [`hash_value`] family and eviction ties break on the keys' total
/// order, so two sketches fed the same (value, tick) sequence are
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingSketch {
    capacity: usize,
    width: usize,
    depth: usize,
    lambda: f64,
    seed: u64,
    counts: Vec<f64>,
    stamps: Vec<u64>,
    entries: HashMap<Value, FadingCounter, StableState>,
    /// Raw (undecayed) observation count.
    total: u64,
    /// Total decayed stream weight as of `weight_stamp`.
    weight: f64,
    weight_stamp: u64,
}

/// The wire form: the counter table travels as a key-sorted pair list,
/// because JSON maps need string keys and the sort makes equal tables
/// byte-identical on the wire regardless of hash-map history.
#[derive(Serialize, Deserialize)]
struct Wire {
    capacity: usize,
    width: usize,
    depth: usize,
    lambda: f64,
    seed: u64,
    counts: Vec<f64>,
    stamps: Vec<u64>,
    entries: Vec<(Value, FadingCounter)>,
    total: u64,
    weight: f64,
    weight_stamp: u64,
}

impl Serialize for FadingSketch {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(Value, FadingCounter)> = self
            .entries
            // lint: allow(determinism, "collected then fully sorted by key total order before serialisation")
            .iter()
            .map(|(k, c)| (k.clone(), *c))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp_total(b));
        Wire {
            capacity: self.capacity,
            width: self.width,
            depth: self.depth,
            lambda: self.lambda,
            seed: self.seed,
            counts: self.counts.clone(),
            stamps: self.stamps.clone(),
            entries,
            total: self.total,
            weight: self.weight,
            weight_stamp: self.weight_stamp,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for FadingSketch {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let w = Wire::deserialize(deserializer)?;
        Ok(FadingSketch {
            capacity: w.capacity.max(1),
            width: w.width,
            depth: w.depth,
            lambda: w.lambda,
            seed: w.seed,
            counts: w.counts,
            stamps: w.stamps,
            // lint: allow(determinism, "Wire.entries is a key-sorted Vec, not a hash map")
            entries: w.entries.into_iter().collect(),
            total: w.total,
            weight: w.weight,
            weight_stamp: w.weight_stamp,
        })
    }
}

/// Folds weight `w` arriving at `now` into `(count, stamp)`, decaying
/// whichever side is older to the younger timestamp. Out-of-order
/// arrivals (now < stamp) decay the *arrival* instead, so the state
/// stays a pure function of the arrival multiset.
#[inline]
fn fold(count: f64, stamp: u64, w: f64, now: u64, lambda: f64) -> (f64, u64) {
    if now >= stamp {
        let decay = (-lambda * (now - stamp) as f64).exp();
        (count * decay + w, now)
    } else {
        let decay = (-lambda * (stamp - now) as f64).exp();
        (count + w * decay, stamp)
    }
}

/// The decayed view of `(count, stamp)` at `now` (identity for
/// timestamps in the future of `now`).
#[inline]
fn decayed(count: f64, stamp: u64, now: u64, lambda: f64) -> f64 {
    if now > stamp {
        count * (-lambda * (now - stamp) as f64).exp()
    } else {
        count
    }
}

impl FadingSketch {
    /// A sketch with explicit dimensions: `capacity` heavy-hitter
    /// counters, a `width × depth` Count-Min array, and decay rate
    /// `lambda` per tick.
    pub fn new(
        capacity: usize,
        width: usize,
        depth: usize,
        lambda: f64,
        seed: u64,
    ) -> Result<Self> {
        if width == 0 || depth == 0 {
            return Err(FungusError::InvalidConfig(
                "fading sketch needs width ≥ 1 and depth ≥ 1".into(),
            ));
        }
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(FungusError::InvalidConfig(format!(
                "fading sketch decay rate must be finite and ≥ 0, got {lambda}"
            )));
        }
        let capacity = capacity.max(1);
        Ok(FadingSketch {
            capacity,
            width,
            depth,
            lambda,
            seed,
            counts: vec![0.0; width * depth],
            stamps: vec![0; width * depth],
            entries: HashMap::with_capacity_and_hasher(capacity, StableState::default()),
            total: 0,
            weight: 0.0,
            weight_stamp: 0,
        })
    }

    /// Dimensions sized for fading top-`k` queries: `2k` counters (so
    /// the guaranteed-tracked threshold `W_T/capacity` sits well below
    /// the k-th weight on skewed streams) and a Count-Min array with
    /// `ε = 1/(2·capacity)`, `δ = e^(−4)`.
    pub fn for_topk(k: usize, lambda: f64, seed: u64) -> Result<Self> {
        let capacity = k.max(1) * 2;
        let width = (std::f64::consts::E * 2.0 * capacity as f64).ceil() as usize;
        Self::new(capacity, width, 4, lambda, seed)
    }

    /// Folds one observation of `key` at tick `now`.
    pub fn observe_at(&mut self, key: &Value, now: u64) {
        self.add_at(key, 1.0, now);
    }

    /// Adds `w` decayed-weight-at-`now` occurrences of `key`.
    pub fn add_at(&mut self, key: &Value, w: f64, now: u64) {
        self.total = self.total.saturating_add(1);
        let (wt, ws) = fold(self.weight, self.weight_stamp, w, now, self.lambda);
        self.weight = wt;
        self.weight_stamp = ws;

        for row in 0..self.depth {
            let idx = self.cell(key, row);
            let (c, s) = fold(self.counts[idx], self.stamps[idx], w, now, self.lambda);
            self.counts[idx] = c;
            self.stamps[idx] = s;
        }

        if let Some(e) = self.entries.get_mut(key) {
            let (c, s) = fold(e.count, e.stamp, w, now, self.lambda);
            e.count = c;
            e.error = decayed(e.error, e.stamp, s, self.lambda);
            e.stamp = s;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(
                key.clone(),
                FadingCounter {
                    count: w,
                    error: 0.0,
                    stamp: now,
                },
            );
            return;
        }
        // SpaceSaving eviction over *decayed* weights: the minimum
        // fading counter at `now` is replaced and its decayed count
        // becomes the newcomer's inherited error. Ties break on the
        // key's total order for determinism.
        let lambda = self.lambda;
        let (min_key, min_weight) = self
            .entries
            // lint: allow(determinism, "min_by's comparator totally orders entries (decayed count, then key), so hash order cannot pick the winner")
            .iter()
            .min_by(|(ka, ca), (kb, cb)| {
                decayed(ca.count, ca.stamp, now, lambda)
                    .total_cmp(&decayed(cb.count, cb.stamp, now, lambda))
                    .then_with(|| ka.cmp_total(kb))
            })
            .map(|(k, c)| (k.clone(), decayed(c.count, c.stamp, now, lambda)))
            .expect("capacity ≥ 1");
        self.entries.remove(&min_key);
        self.entries.insert(
            key.clone(),
            FadingCounter {
                count: min_weight + w,
                error: min_weight,
                stamp: now,
            },
        );
    }

    /// The decayed-weight estimate for `key` at tick `now` — never below
    /// the true fading count `C_now(key)`, within `(e/width)·W_now` above
    /// it with probability `1 − e^(−depth)`.
    pub fn estimate_at(&self, key: &Value, now: u64) -> f64 {
        let cms = (0..self.depth)
            .map(|row| {
                let idx = self.cell(key, row);
                decayed(self.counts[idx], self.stamps[idx], now, self.lambda)
            })
            .fold(f64::INFINITY, f64::min);
        let cms = if cms.is_finite() { cms } else { 0.0 };
        match self.entries.get(key) {
            // Both are overestimates of the true fading count, so the
            // smaller is the tighter valid answer.
            Some(e) => cms.min(decayed(e.count, e.stamp, now, self.lambda)),
            None => cms,
        }
    }

    /// The top `k` fading heavy hitters at tick `now`, sorted by decayed
    /// weight descending (key order breaks ties deterministically).
    pub fn top_at(&self, k: usize, now: u64) -> Vec<FadingHitter> {
        let lambda = self.lambda;
        let mut all: Vec<FadingHitter> = self
            .entries
            // lint: allow(determinism, "collected then fully sorted by (weight, key) total order before use")
            .iter()
            .map(|(key, c)| FadingHitter {
                key: key.clone(),
                weight: decayed(c.count, c.stamp, now, lambda),
                error: decayed(c.error, c.stamp, now, lambda),
            })
            .collect();
        all.sort_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then_with(|| a.key.cmp_total(&b.key))
        });
        all.truncate(k);
        all
    }

    /// Raw (undecayed) observations folded in.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The total decayed stream weight `W_now`.
    pub fn weight_at(&self, now: u64) -> f64 {
        decayed(self.weight, self.weight_stamp, now, self.lambda)
    }

    /// Decay rate per tick.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Heavy-hitter counter capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live heavy-hitter counters.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// Count-Min array width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Count-Min array depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn cell(&self, key: &Value, row: usize) -> usize {
        let h = hash_value(
            key,
            self.seed ^ (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        row * self.width + (h % self.width as u64) as usize
    }

    /// Merges a sketch with identical shape, seed, and decay rate.
    ///
    /// Every counter pair is aligned to the younger of the two stamps
    /// before summing, so the merged sketch's decayed view at any later
    /// tick equals the sum of the two views; commutative bit-for-bit
    /// because the alignment point (`max` of stamps) and each pairwise
    /// `f64` addition are symmetric in the operands. The merged
    /// heavy-hitter table keeps the `capacity` largest decayed counts;
    /// keys tracked on only one side absorb the other side's minimum
    /// counter as extra count *and* error (Agarwal et al.'s mergeable-
    /// summaries rule), so estimates never underestimate and the error
    /// bound degrades additively.
    pub fn merge(&mut self, other: &FadingSketch) -> Result<()> {
        if self.width != other.width
            || self.depth != other.depth
            || self.seed != other.seed
            || self.capacity != other.capacity
            || self.lambda.to_bits() != other.lambda.to_bits()
        {
            return Err(FungusError::SummaryError(
                "cannot merge fading sketches with different shapes, seeds, or decay rates".into(),
            ));
        }
        let lambda = self.lambda;
        for i in 0..self.counts.len() {
            let m = self.stamps[i].max(other.stamps[i]);
            self.counts[i] = decayed(self.counts[i], self.stamps[i], m, lambda)
                + decayed(other.counts[i], other.stamps[i], m, lambda);
            self.stamps[i] = m;
        }
        // Align every entry to one reference tick M (≥ all stamps, since
        // the aggregate weight stamp advances on every add) so decayed
        // counts are directly comparable.
        let m = self.weight_stamp.max(other.weight_stamp);
        let at_m = |c: &FadingCounter| {
            (
                decayed(c.count, c.stamp, m, lambda),
                decayed(c.error, c.stamp, m, lambda),
            )
        };
        let min_of = |entries: &HashMap<Value, FadingCounter, StableState>, cap: usize| -> f64 {
            if entries.len() < cap {
                0.0
            } else {
                entries
                    // lint: allow(determinism, "reduced to an order-independent f64 minimum")
                    .values()
                    .map(|c| decayed(c.count, c.stamp, m, lambda))
                    .fold(f64::INFINITY, f64::min)
            }
        };
        let min_a = min_of(&self.entries, self.capacity);
        let min_b = min_of(&other.entries, other.capacity);
        let mut keys: Vec<Value> = self
            .entries
            // lint: allow(determinism, "key union is fully sorted by total order below")
            .keys()
            // lint: allow(determinism, "key union is fully sorted by total order below")
            .chain(other.entries.keys())
            .cloned()
            .collect();
        keys.sort_by(|a, b| a.cmp_total(b));
        keys.dedup();
        let mut merged: Vec<(Value, FadingCounter)> = keys
            .into_iter()
            .map(|k| {
                let (ca, ea) = self.entries.get(&k).map(&at_m).unwrap_or((min_a, min_a));
                let (cb, eb) = other.entries.get(&k).map(&at_m).unwrap_or((min_b, min_b));
                (
                    k,
                    FadingCounter {
                        count: ca + cb,
                        error: ea + eb,
                        stamp: m,
                    },
                )
            })
            .collect();
        merged.sort_by(|(ka, ca), (kb, cb)| {
            cb.count.total_cmp(&ca.count).then_with(|| ka.cmp_total(kb))
        });
        merged.truncate(self.capacity);
        self.entries = merged.into_iter().collect();

        let wm = decayed(self.weight, self.weight_stamp, m, lambda)
            + decayed(other.weight, other.weight_stamp, m, lambda);
        self.weight = wm;
        self.weight_stamp = m;
        self.total = self.total.saturating_add(other.total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(FadingSketch::new(4, 0, 4, 0.1, 0).is_err());
        assert!(FadingSketch::new(4, 16, 0, 0.1, 0).is_err());
        assert!(FadingSketch::new(4, 16, 4, f64::NAN, 0).is_err());
        assert!(FadingSketch::new(4, 16, 4, -0.5, 0).is_err());
        let s = FadingSketch::for_topk(10, 0.05, 1).unwrap();
        assert_eq!(s.capacity(), 20);
        assert_eq!(s.lambda(), 0.05);
    }

    #[test]
    fn never_underestimates_the_fading_count() {
        let mut s = FadingSketch::new(8, 64, 4, 0.1, 7).unwrap();
        // Key 1 at ticks 0..10, so C_20(1) = Σ e^(−0.1·(20−t)).
        for t in 0..10u64 {
            s.observe_at(&Value::Int(1), t);
        }
        let truth: f64 = (0..10u64).map(|t| (-0.1 * (20 - t) as f64).exp()).sum();
        let est = s.estimate_at(&Value::Int(1), 20);
        assert!(est >= truth - 1e-12, "estimate {est} < truth {truth}");
        assert!(est <= truth + s.weight_at(20) * 0.2 + 1e-12);
    }

    #[test]
    fn recent_arrivals_outweigh_heavier_old_ones() {
        let mut s = FadingSketch::for_topk(2, 0.2, 3).unwrap();
        // "old" arrives 50 times at tick 0; "new" 5 times at tick 40.
        for _ in 0..50 {
            s.observe_at(&Value::from("old"), 0);
        }
        for _ in 0..5 {
            s.observe_at(&Value::from("new"), 40);
        }
        let top = s.top_at(1, 40);
        assert_eq!(top[0].key, Value::from("new"), "decay inverts the order");
        // Undecayed, the old key dominates.
        let mut flat = FadingSketch::for_topk(2, 0.0, 3).unwrap();
        for _ in 0..50 {
            flat.observe_at(&Value::from("old"), 0);
        }
        for _ in 0..5 {
            flat.observe_at(&Value::from("new"), 40);
        }
        assert_eq!(flat.top_at(1, 40)[0].key, Value::from("old"));
    }

    #[test]
    fn lazy_decay_is_schedule_independent() {
        // The same (value, tick) arrivals folded with different amounts
        // of "clock advancement in between" give bit-identical state.
        let arrivals: Vec<(i64, u64)> = (0..200).map(|i| (i % 13, (i / 3) as u64)).collect();
        let mut a = FadingSketch::for_topk(5, 0.07, 11).unwrap();
        for (k, t) in &arrivals {
            a.observe_at(&Value::Int(*k), *t);
        }
        let mut b = FadingSketch::for_topk(5, 0.07, 11).unwrap();
        for (k, t) in &arrivals {
            // "Advance the clock" redundantly by querying at later ticks
            // between folds — reads must not perturb state.
            let _ = b.estimate_at(&Value::Int(0), t + 17);
            b.observe_at(&Value::Int(*k), *t);
            let _ = b.top_at(3, t + 99);
        }
        assert_eq!(a, b);
        let ja = fungus_types::json::to_string(&a).unwrap();
        let jb = fungus_types::json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "serialised state is bit-identical");
    }

    #[test]
    fn weight_tracks_the_decayed_stream_mass() {
        let mut s = FadingSketch::new(4, 32, 4, 0.5, 0).unwrap();
        s.observe_at(&Value::Int(1), 0);
        s.observe_at(&Value::Int(2), 0);
        let w0 = s.weight_at(0);
        assert!((w0 - 2.0).abs() < 1e-12);
        let w10 = s.weight_at(10);
        assert!((w10 - 2.0 * (-5.0f64).exp()).abs() < 1e-12);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn merge_is_commutative_and_sums_views() {
        let build = |keys: &[(i64, u64)]| {
            let mut s = FadingSketch::for_topk(4, 0.1, 9).unwrap();
            for (k, t) in keys {
                s.observe_at(&Value::Int(*k), *t);
            }
            s
        };
        let a = build(&[(1, 0), (1, 5), (2, 3), (3, 9)]);
        let b = build(&[(1, 7), (4, 2), (4, 8), (5, 1)]);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba, "merge is commutative");
        // The merged view bounds the sum of the two views from above.
        for k in 1..=5i64 {
            let sum = a.estimate_at(&Value::Int(k), 20) + b.estimate_at(&Value::Int(k), 20);
            assert!(ab.estimate_at(&Value::Int(k), 20) >= sum - 1e-9);
        }
        // Shape/seed/rate mismatches refuse.
        let mut c = FadingSketch::for_topk(4, 0.2, 9).unwrap();
        assert!(c.merge(&a).is_err());
        let mut d = FadingSketch::for_topk(4, 0.1, 10).unwrap();
        assert!(d.merge(&a).is_err());
    }

    #[test]
    fn heavy_hitters_survive_eviction_pressure() {
        let mut s = FadingSketch::new(10, 64, 4, 0.01, 5).unwrap();
        for t in 0..500u64 {
            s.observe_at(&Value::Int((t % 97) as i64 + 100), t); // noise
            s.observe_at(&Value::Int(1), t);
            s.observe_at(&Value::Int(1), t);
        }
        let top = s.top_at(1, 500);
        assert_eq!(top[0].key, Value::Int(1));
        assert!(top[0].weight - top[0].error > 0.0);
    }

    #[test]
    fn zero_lambda_degenerates_to_plain_counting() {
        let mut s = FadingSketch::new(8, 64, 4, 0.0, 2).unwrap();
        for t in 0..100u64 {
            s.observe_at(&Value::Int((t % 4) as i64), t);
        }
        let est = s.estimate_at(&Value::Int(0), 1000);
        assert!((est - 25.0).abs() < 1e-9, "no decay at λ=0, got {est}");
    }
}
