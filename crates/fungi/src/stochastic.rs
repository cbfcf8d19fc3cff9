//! Stochastic decay: random victims with geometric lifetimes.

use rand::rngs::SmallRng;
use rand::Rng;

use fungus_clock::DeterministicRng;
use fungus_storage::DecaySurface;
use fungus_types::{Tick, TupleId};

/// Every tick, each live tuple independently rots with probability
/// `eviction_prob`, optionally weighted by age (probability scales with
/// `min(1, age / age_scale)` when an `age_scale` is configured).
///
/// Under pure stochastic decay a tuple's lifetime is geometric with mean
/// `1 / eviction_prob` ticks — the memoryless counterpart of
/// [`RetentionFungus`](crate::retention::RetentionFungus).
#[derive(Debug)]
pub struct StochasticFungus {
    eviction_prob: f64,
    age_scale: Option<f64>,
    rng: SmallRng,
}

impl StochasticFungus {
    /// Age-independent decay with the given per-tick eviction probability
    /// (clamped into `[0, 1]`).
    pub fn new(eviction_prob: f64, rng: &DeterministicRng) -> Self {
        StochasticFungus {
            eviction_prob: sanitize(eviction_prob),
            age_scale: None,
            rng: rng.stream("fungus/stochastic"),
        }
    }

    /// Age-weighted decay: a tuple of age `a` rots with probability
    /// `eviction_prob · min(1, a / age_scale)`, so young tuples are nearly
    /// immune and tuples older than `age_scale` face the full hazard.
    pub fn age_weighted(eviction_prob: f64, age_scale: f64, rng: &DeterministicRng) -> Self {
        StochasticFungus {
            eviction_prob: sanitize(eviction_prob),
            age_scale: Some(age_scale.max(1.0)),
            rng: rng.stream("fungus/stochastic"),
        }
    }

    /// The per-tick hazard.
    pub fn eviction_prob(&self) -> f64 {
        self.eviction_prob
    }

    /// One cycle at `now`: one draw per live tuple, in id order.
    pub fn tick(&mut self, surface: &mut dyn DecaySurface, now: Tick) {
        if self.eviction_prob == 0.0 {
            return;
        }
        let mut victims: Vec<TupleId> = Vec::new();
        let mut metas: Vec<(TupleId, f64)> = Vec::with_capacity(surface.live_count());
        surface.for_each_live_meta(&mut |id, meta| {
            metas.push((id, meta.age(now).as_f64()));
        });
        for (id, age) in metas {
            let p = match self.age_scale {
                Some(scale) => self.eviction_prob * (age / scale).min(1.0),
                None => self.eviction_prob,
            };
            if p > 0.0 && self.rng.gen_bool(p) {
                victims.push(id);
            }
        }
        for id in victims {
            surface.decay(id, 1.0);
        }
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        match self.age_scale {
            Some(s) => format!("stochastic(p={}, age_scale={s})", self.eviction_prob),
            None => format!("stochastic(p={})", self.eviction_prob),
        }
    }
}

fn sanitize(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::table_with;

    #[test]
    fn mean_lifetime_is_roughly_geometric() {
        // p = 0.1 → expected survivors after 10 ticks ≈ 1000·0.9^10 ≈ 349.
        let mut table = table_with(1000);
        let mut f = StochasticFungus::new(0.1, &DeterministicRng::new(7));
        for t in 0..10u64 {
            f.tick(&mut table, Tick(1000 + t));
            table.evict_rotten();
        }
        let survivors = table.live_count();
        assert!(
            (250..450).contains(&survivors),
            "survivors {survivors} should be ≈ 349"
        );
    }

    #[test]
    fn zero_probability_is_a_noop() {
        let mut table = table_with(100);
        let mut f = StochasticFungus::new(0.0, &DeterministicRng::new(1));
        for t in 0..50u64 {
            f.tick(&mut table, Tick(t));
        }
        assert_eq!(table.live_count(), 100);
    }

    #[test]
    fn probability_is_clamped() {
        let f = StochasticFungus::new(7.0, &DeterministicRng::new(1));
        assert_eq!(f.eviction_prob(), 1.0);
        let f = StochasticFungus::new(f64::NAN, &DeterministicRng::new(1));
        assert_eq!(f.eviction_prob(), 0.0);
        let mut table = table_with(10);
        let mut f = StochasticFungus::new(2.0, &DeterministicRng::new(1));
        f.tick(&mut table, Tick(10));
        table.evict_rotten();
        assert_eq!(table.live_count(), 0, "p=1 kills everything in one tick");
    }

    #[test]
    fn age_weighting_spares_the_young() {
        // Ages 0..1000 at tick 1000; scale 1000 → hazard ramps with age.
        let mut old_dead = 0usize;
        let mut young_dead = 0usize;
        let mut table = table_with(1000);
        let mut f = StochasticFungus::age_weighted(0.5, 1000.0, &DeterministicRng::new(3));
        f.tick(&mut table, Tick(1000));
        for t in table.evict_rotten() {
            if t.meta.id.get() < 500 {
                old_dead += 1; // low id = inserted early = old
            } else {
                young_dead += 1;
            }
        }
        assert!(
            old_dead > young_dead * 2,
            "age weighting must hit old tuples hardest: old={old_dead} young={young_dead}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut table = table_with(200);
            let mut f = StochasticFungus::new(0.2, &DeterministicRng::new(seed));
            for t in 0..5u64 {
                f.tick(&mut table, Tick(200 + t));
                table.evict_rotten();
            }
            table.live_count()
        };
        assert_eq!(run(9), run(9));
    }
}
