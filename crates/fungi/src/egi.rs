//! EGI — *Evict Grouped Individuals* — the paper's signature fungus.
//!
//! > "At each clock cycle T:
//! > – select an element from R inversely randomly correlated with its age
//! >   and seed it with the fungi F, decreasing its freshness.
//! > – select all F infected elements and decrease their freshness, also
//! >   affecting the direct neighboring tuples at equal rate."
//!
//! EGI therefore has two phases per tick:
//!
//! 1. **Seed** — draw `seeds_per_tick` uninfected tuples with an
//!    age-dependent probability (see [`SeedBias`]) and infect them.
//! 2. **Spread** — every infected tuple loses `rot_rate` freshness and
//!    infects up to `spread_width` live neighbours on each side along the
//!    time axis ("bi-directional growth along the time axes").
//!
//! The result is the paper's Blue-Cheese structure: contiguous *rotting
//! spots* that grow until whole insertion ranges are evicted, while the
//! rest of the relation "remains edible for a long time".
//!
//! ## Interpreting "inversely randomly correlated with its age"
//!
//! The phrase admits two readings; both are implemented so the ablation
//! experiment (E9) can quantify the difference:
//!
//! * [`SeedBias::AgePow`]`(β)` — seeding probability ∝ `age^β` (older
//!   tuples rot first; `β = 0` degenerates to uniform). This is the default
//!   reading: the selection is *random*, *correlated with age*, and
//!   *inverse* in the sense that young tuples are unlikely victims, which
//!   matches the retention intuition the paper develops it from.
//! * [`SeedBias::Youngest`] — probability ∝ `1/(age+1)`: the literal
//!   "inverse of age" reading, under which fresh data is attacked first.

use rand::rngs::SmallRng;

use fungus_clock::{DeterministicRng, WeightedIndexSampler};
use fungus_storage::DecaySurface;
use fungus_types::{Tick, TupleId};
use serde::{Deserialize, Serialize};

/// How seed victims are drawn (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SeedBias {
    /// Probability ∝ `age^β` — older tuples seed first. `β = 0` is uniform.
    AgePow(f64),
    /// Uniform over live tuples (sugar for `AgePow(0)` kept distinct for
    /// experiment labelling).
    Uniform,
    /// Probability ∝ `1/(age+1)` — youngest tuples seed first (the literal
    /// inverse-age reading).
    Youngest,
}

impl SeedBias {
    fn weight(self, age: f64) -> f64 {
        match self {
            SeedBias::AgePow(beta) => {
                if beta == 0.0 {
                    1.0
                } else {
                    // age 0 gets a small epsilon so brand-new tuples are not
                    // categorically immune, just very unlikely.
                    (age).powf(beta).max(1e-9)
                }
            }
            SeedBias::Uniform => 1.0,
            SeedBias::Youngest => 1.0 / (age + 1.0),
        }
    }
}

/// EGI tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EgiConfig {
    /// New infections drawn per tick.
    pub seeds_per_tick: usize,
    /// Seed selection bias.
    pub seed_bias: SeedBias,
    /// Freshness lost per tick by every infected tuple ("at equal rate" —
    /// neighbours decay as fast as the spot core).
    pub rot_rate: f64,
    /// Live neighbours infected per side per tick (the bi-directional
    /// growth speed of a spot).
    pub spread_width: usize,
}

impl Default for EgiConfig {
    fn default() -> Self {
        EgiConfig {
            seeds_per_tick: 1,
            seed_bias: SeedBias::AgePow(1.0),
            rot_rate: 0.1,
            spread_width: 1,
        }
    }
}

/// The Evict-Grouped-Individuals fungus.
///
/// ```
/// use fungus_clock::DeterministicRng;
/// use fungus_fungi::{EgiConfig, EgiFungus};
/// use fungus_storage::TableStore;
/// use fungus_types::{DataType, Schema, Tick, Value};
///
/// let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
/// let mut table = TableStore::new(schema, Default::default()).unwrap();
/// for i in 0..100 {
///     table.insert(vec![Value::Int(i)], Tick(0)).unwrap();
/// }
///
/// let mut egi = EgiFungus::new(EgiConfig::default(), &DeterministicRng::new(7));
/// egi.tick(&mut table, Tick(1));
/// // One seed plus one neighbour per side: a three-tuple rotting spot.
/// assert_eq!(table.infected_count(), 3);
/// ```
pub struct EgiFungus {
    config: EgiConfig,
    rng: SmallRng,
    /// Cumulative infections performed (seeds + spreads), for diagnostics.
    infections: u64,
}

impl EgiFungus {
    /// Builds an EGI instance with its own deterministic random stream.
    pub fn new(config: EgiConfig, rng: &DeterministicRng) -> Self {
        EgiFungus {
            config,
            rng: rng.stream("fungus/egi"),
            infections: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EgiConfig {
        &self.config
    }

    /// Total infect operations performed so far.
    pub fn infections(&self) -> u64 {
        self.infections
    }

    /// Phase 1: seed new infections.
    fn seed(&mut self, surface: &mut dyn DecaySurface, now: Tick) {
        if self.config.seeds_per_tick == 0 {
            return;
        }
        // Candidates: live, uninfected tuples, in id order. The surface
        // hook lets partitioned extents gather per-shard and merge, with
        // identical output — so the draws below are layout-independent.
        let candidates: Vec<(TupleId, f64)> = surface.seed_candidates(now);
        if candidates.is_empty() {
            return;
        }
        let bias = self.config.seed_bias;
        let picks = WeightedIndexSampler::sample_distinct(
            &mut self.rng,
            candidates.len(),
            self.config.seeds_per_tick,
            |i| bias.weight(candidates[i].1),
        );
        for idx in picks {
            let (id, _) = candidates[idx];
            if surface.infect(id, now) {
                self.infections += 1;
            }
        }
    }

    /// Phase 2: decay every infected tuple and spread to live neighbours.
    fn spread(&mut self, surface: &mut dyn DecaySurface, now: Tick) {
        let infected = surface.infected_ids();
        // Collect the frontier first so spread within one tick reflects the
        // infection set at the start of the tick (no chain reactions that
        // would make spread speed depend on iteration order).
        let mut frontier: Vec<TupleId> = Vec::new();
        for &id in &infected {
            // Walk outwards up to spread_width live neighbours per side.
            let mut older = id;
            let mut younger = id;
            for _ in 0..self.config.spread_width {
                if let (Some(prev), _) = surface.live_neighbors(older) {
                    frontier.push(prev);
                    older = prev;
                } else {
                    break;
                }
            }
            for _ in 0..self.config.spread_width {
                if let (_, Some(next)) = surface.live_neighbors(younger) {
                    frontier.push(next);
                    younger = next;
                } else {
                    break;
                }
            }
        }
        for &id in &infected {
            surface.decay(id, self.config.rot_rate);
        }
        for id in frontier {
            if let Some(meta) = surface.meta(id) {
                if !meta.infected && surface.infect(id, now) {
                    self.infections += 1;
                    // Neighbours decay "at equal rate" from the moment they
                    // are touched.
                    surface.decay(id, self.config.rot_rate);
                }
            }
        }
    }

    /// One EGI cycle at `now`: seed, then spread.
    pub fn tick(&mut self, surface: &mut dyn DecaySurface, now: Tick) {
        self.seed(surface, now);
        self.spread(surface, now);
    }

    /// Human-readable parameter summary.
    pub fn describe(&self) -> String {
        format!(
            "egi(seeds={}, bias={:?}, rot_rate={}, spread={})",
            self.config.seeds_per_tick,
            self.config.seed_bias,
            self.config.rot_rate,
            self.config.spread_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::table_with;
    use fungus_storage::SpotCensus;

    fn egi(config: EgiConfig, seed: u64) -> EgiFungus {
        EgiFungus::new(config, &DeterministicRng::new(seed))
    }

    #[test]
    fn seeding_infects_exactly_n_tuples() {
        let mut table = table_with(100);
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 3,
                spread_width: 0,
                rot_rate: 0.1,
                ..Default::default()
            },
            7,
        );
        f.tick(&mut table, Tick(100));
        assert_eq!(table.infected_count(), 3);
        assert_eq!(f.infections(), 3);
    }

    #[test]
    fn spots_are_contiguous_runs() {
        let mut table = table_with(200);
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 1,
                ..Default::default()
            },
            11,
        );
        // One seed at tick 1; no further seeds (set seeds to 0 afterwards by
        // running enough ticks that the single spot dominates).
        f.tick(&mut table, Tick(201));
        assert_eq!(table.infected_count(), 3, "seed + one neighbour each side");
        let census = SpotCensus::collect(&table);
        assert_eq!(
            census.infected_spots, 1,
            "infection forms one contiguous spot"
        );
        assert_eq!(census.largest_infected_spot, 3);
    }

    #[test]
    fn spots_grow_bidirectionally() {
        let mut table = table_with(200);
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 1,
                spread_width: 2,
                rot_rate: 0.01,
                ..Default::default()
            },
            13,
        );
        f.tick(&mut table, Tick(201));
        let after_one = table.infected_count();
        assert_eq!(after_one, 5, "seed + two per side");
        // Disable seeding and keep spreading: width grows by 4 per tick
        // (until the spot hits a table edge).
        f.config.seeds_per_tick = 0;
        f.tick(&mut table, Tick(202));
        let census = SpotCensus::collect(&table);
        assert!(
            census.largest_infected_spot >= after_one + 2,
            "spot should widen: {census:?}"
        );
        assert_eq!(census.infected_spots, 1);
    }

    #[test]
    fn infected_tuples_decay_at_equal_rate_and_rot_away() {
        let mut table = table_with(50);
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 1,
                spread_width: 0, // isolate a single tuple
                rot_rate: 0.5,
                ..Default::default()
            },
            3,
        );
        f.config.seeds_per_tick = 1;
        f.tick(&mut table, Tick(51));
        f.config.seeds_per_tick = 0; // stop seeding
        f.tick(&mut table, Tick(52));
        // The single seeded tuple decayed twice by 0.5 → rotten.
        let evicted = table.evict_rotten();
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].meta.infected);
    }

    #[test]
    fn age_bias_prefers_old_tuples() {
        // 1000 tuples at ticks 0..1000; strong age bias; measure seeds.
        let mut old_hits = 0;
        for seed in 0..50u64 {
            let mut table = table_with(1000);
            let mut f = egi(
                EgiConfig {
                    seeds_per_tick: 1,
                    spread_width: 0,
                    rot_rate: 0.0,
                    seed_bias: SeedBias::AgePow(2.0),
                },
                seed,
            );
            f.tick(&mut table, Tick(1000));
            let id = table.infected_ids()[0];
            if id.get() < 500 {
                old_hits += 1;
            }
        }
        assert!(
            old_hits > 35,
            "age^2 bias should mostly seed the old half: {old_hits}/50"
        );
    }

    #[test]
    fn youngest_bias_prefers_new_tuples() {
        let mut young_hits = 0;
        for seed in 0..50u64 {
            let mut table = table_with(1000);
            let mut f = egi(
                EgiConfig {
                    seeds_per_tick: 1,
                    spread_width: 0,
                    rot_rate: 0.0,
                    seed_bias: SeedBias::Youngest,
                },
                seed,
            );
            f.tick(&mut table, Tick(1000));
            let id = table.infected_ids()[0];
            if id.get() >= 500 {
                young_hits += 1;
            }
        }
        assert!(
            young_hits > 35,
            "youngest bias should mostly seed the new half: {young_hits}/50"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut table = table_with(300);
            let mut f = egi(EgiConfig::default(), seed);
            for t in 0..20u64 {
                f.tick(&mut table, Tick(300 + t));
                table.evict_rotten();
            }
            (
                table.infected_ids(),
                table.live_count(),
                table.evicted_rotted(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn spread_skips_tombstones_to_next_live_neighbor() {
        let mut table = table_with(10);
        // Kill tuples 4 and 6, infect 5: spread must reach 3 and 7.
        table.delete(TupleId(4), fungus_storage::TombstoneReason::Consumed);
        table.delete(TupleId(6), fungus_storage::TombstoneReason::Consumed);
        table.infect(TupleId(5), Tick(10));
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 0,
                spread_width: 1,
                rot_rate: 0.1,
                ..Default::default()
            },
            1,
        );
        f.tick(&mut table, Tick(11));
        let infected = table.infected_ids();
        assert_eq!(infected, vec![TupleId(3), TupleId(5), TupleId(7)]);
    }

    #[test]
    fn whole_relation_eventually_disappears() {
        // The first natural law: decay proceeds "until it has been
        // completely disappeared".
        let mut table = table_with(60);
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 2,
                spread_width: 2,
                rot_rate: 0.4,
                ..Default::default()
            },
            5,
        );
        let mut t = 60u64;
        while table.live_count() > 0 && t < 10_000 {
            f.tick(&mut table, Tick(t));
            table.evict_rotten();
            t += 1;
        }
        assert_eq!(table.live_count(), 0, "EGI must consume the whole relation");
    }

    #[test]
    fn spread_works_across_compacted_sparse_segments() {
        // Rot a whole region, compact it to the sparse layout, and verify
        // EGI still spreads across the hole to the next live neighbour.
        let mut table = {
            let schema =
                fungus_types::Schema::from_pairs(&[("v", fungus_types::DataType::Int)]).unwrap();
            let mut t = fungus_storage::TableStore::new(
                schema,
                fungus_storage::StorageConfig {
                    segment_capacity: 8,
                    compact_live_threshold: 0.9,
                    zone_maps: true,
                },
            )
            .unwrap();
            for i in 0..32u64 {
                t.insert(vec![fungus_types::Value::Int(i as i64)], Tick(0))
                    .unwrap();
            }
            t
        };
        // Kill ids 9..23 (most of segments 1 and 2), compact to sparse.
        for i in 9..23u64 {
            table.delete(TupleId(i), fungus_storage::TombstoneReason::Rotted);
        }
        table.compact();
        assert!(table.segments().iter().any(|s| s.is_sparse()));
        // Infect id 8 (just before the hole) and spread once.
        table.infect(TupleId(8), Tick(1));
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 0,
                spread_width: 1,
                rot_rate: 0.1,
                ..Default::default()
            },
            1,
        );
        f.tick(&mut table, Tick(2));
        let infected = table.infected_ids();
        assert_eq!(
            infected,
            vec![TupleId(7), TupleId(8), TupleId(23)],
            "spread crosses the compacted hole to the next live tuple"
        );
    }

    #[test]
    fn no_seeds_when_everything_is_infected() {
        let mut table = table_with(5);
        for i in 0..5u64 {
            table.infect(TupleId(i), Tick(5));
        }
        let mut f = egi(
            EgiConfig {
                seeds_per_tick: 3,
                spread_width: 0,
                rot_rate: 0.0,
                ..Default::default()
            },
            1,
        );
        f.tick(&mut table, Tick(6));
        assert_eq!(f.infections(), 0, "no uninfected candidates → no seeds");
    }

    #[test]
    fn empty_table_is_a_noop() {
        let mut table = table_with(0);
        let mut f = egi(EgiConfig::default(), 1);
        f.tick(&mut table, Tick(1));
        assert_eq!(table.infected_count(), 0);
    }
}
