//! Property-based tests over the core data-model invariants.

use proptest::prelude::*;

use spacefungus::prelude::*;

proptest! {
    /// Freshness construction always lands in [0,1] and never NaN.
    #[test]
    fn freshness_always_in_unit_interval(x in proptest::num::f64::ANY) {
        let f = Freshness::new(x);
        prop_assert!((0.0..=1.0).contains(&f.get()));
        prop_assert!(!f.get().is_nan());
    }

    /// Decay is monotone: no amount (even negative/NaN) increases freshness.
    #[test]
    fn decay_is_monotone(start in 0.0f64..=1.0, amount in proptest::num::f64::ANY) {
        let f = Freshness::new(start);
        prop_assert!(f.decayed(amount) <= f);
    }

    /// Scaling is monotone and bounded.
    #[test]
    fn scaling_is_monotone(start in 0.0f64..=1.0, factor in proptest::num::f64::ANY) {
        let f = Freshness::new(start);
        let scaled = f.scaled(factor);
        prop_assert!(scaled <= f);
        prop_assert!(scaled.get() >= 0.0);
    }

    /// A chain of decays equals one decay by (roughly) the clamped sum —
    /// ordering of decay operations cannot matter beyond fp error.
    #[test]
    fn decay_chain_is_order_insensitive(
        start in 0.0f64..=1.0,
        amounts in proptest::collection::vec(0.0f64..0.2, 0..10)
    ) {
        let f = Freshness::new(start);
        let mut chained = f;
        for a in &amounts {
            chained = chained.decayed(*a);
        }
        let mut reversed = f;
        for a in amounts.iter().rev() {
            reversed = reversed.decayed(*a);
        }
        prop_assert!((chained.get() - reversed.get()).abs() < 1e-9);
    }

    /// Tick arithmetic never panics and age is antisymmetric-saturating.
    #[test]
    fn tick_arithmetic_saturates(a in proptest::num::u64::ANY, b in proptest::num::u64::ANY) {
        let ta = Tick(a);
        let tb = Tick(b);
        let d1 = ta.age_since(tb);
        let d2 = tb.age_since(ta);
        prop_assert!(d1 == TickDelta(0) || d2 == TickDelta(0));
        // Adding back a saturating difference recovers the max.
        prop_assert_eq!(tb + (ta - tb), ta.max(tb));
    }

    /// Value total order is consistent: antisymmetric and transitive over
    /// random triples (the sort interface depends on it).
    #[test]
    fn value_ordering_is_total(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        let ab = a.cmp_total(&b);
        let ba = b.cmp_total(&a);
        prop_assert_eq!(ab, ba.reverse());
        // Transitivity of ≤.
        if a.cmp_total(&b) != Ordering::Greater && b.cmp_total(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp_total(&c), Ordering::Greater);
        }
    }

    /// Equal values hash equal (HashMap correctness for mixed Int/Float keys).
    #[test]
    fn value_hash_respects_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        if a == b {
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    /// Arithmetic never panics on arbitrary operand pairs.
    #[test]
    fn value_arithmetic_never_panics(a in arb_value(), b in arb_value()) {
        let _ = a.add(&b);
        let _ = a.sub(&b);
        let _ = a.mul(&b);
        let _ = a.div(&b);
        let _ = a.rem(&b);
        let _ = a.neg();
    }

    /// Schema round trip: any row accepted by check_row survives
    /// normalise_row with the same SQL-visible values.
    #[test]
    fn normalise_preserves_accepted_rows(vals in proptest::collection::vec(arb_value(), 3)) {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("c", DataType::Str),
        ]).unwrap();
        if schema.check_row(&vals).is_ok() {
            let norm = schema.normalise_row(vals.clone()).unwrap();
            for (orig, n) in vals.iter().zip(&norm) {
                // Coercion preserves SQL equality (Int 3 == Float 3.0).
                if !orig.is_null() {
                    prop_assert_eq!(orig.sql_eq(n), Some(true));
                }
            }
        }
    }
}

proptest! {
    /// The in-house JSON codec round-trips arbitrary nested structures
    /// built from the serde primitives the workspace uses.
    #[test]
    fn json_codec_roundtrips(doc in arb_json_doc()) {
        use spacefungus::fungus_types::json;
        let text = json::to_string(&doc).unwrap();
        let back: JsonDoc = json::from_str(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// The JSON parser never panics on arbitrary input.
    #[test]
    fn json_parser_never_panics(input in "\\PC{0,80}") {
        let _ = spacefungus::fungus_types::json::parse(&input);
    }

    /// Every FungusSpec round-trips through the JSON codec (the checkpoint
    /// manifest path).
    #[test]
    fn fungus_specs_roundtrip_json(
        choice in 0usize..9,
        a in 1u64..1000,
        p in 0.01f64..0.99,
    ) {
        use spacefungus::fungus_types::json;
        let spec = match choice {
            0 => FungusSpec::Null,
            1 => FungusSpec::Retention { max_age: a },
            2 => FungusSpec::Linear { lifetime: a },
            3 => FungusSpec::Exponential { lambda: p, rot_threshold: 0.01 },
            4 => FungusSpec::SlidingWindow { capacity: a as usize },
            5 => FungusSpec::Stochastic { eviction_prob: p, age_scale: Some(a as f64) },
            6 => FungusSpec::Lease { lease: a },
            7 => FungusSpec::Importance { base_rate: p, recency_shield: a as f64 },
            _ => FungusSpec::Egi(EgiConfig {
                seeds_per_tick: a as usize,
                rot_rate: p,
                ..EgiConfig::default()
            }),
        };
        let text = json::to_string(&spec).unwrap();
        let back: FungusSpec = json::from_str(&text).unwrap();
        prop_assert_eq!(back, spec);
    }
}

/// A small recursive document type exercising every serde shape the
/// workspace configuration types use.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum JsonDoc {
    Unit,
    // The codec documents integer fidelity up to 2^53 (JSON numbers are
    // doubles); the generator stays inside that envelope.
    Num(i64),
    Float(f64),
    Text(String),
    Flag(Option<bool>),
    List(Vec<JsonDoc>),
    Pair {
        left: Box<JsonDoc>,
        right: Box<JsonDoc>,
    },
}

fn arb_json_doc() -> impl Strategy<Value = JsonDoc> {
    let leaf = prop_oneof![
        Just(JsonDoc::Unit),
        (-(1i64 << 53)..(1i64 << 53)).prop_map(JsonDoc::Num),
        (-1e9f64..1e9).prop_map(JsonDoc::Float),
        "[a-zA-Z0-9 \\\"\n]{0,12}".prop_map(JsonDoc::Text),
        proptest::option::of(any::<bool>()).prop_map(JsonDoc::Flag),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(JsonDoc::List),
            (inner.clone(), inner).prop_map(|(l, r)| JsonDoc::Pair {
                left: Box::new(l),
                right: Box::new(r)
            }),
        ]
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: the engine normalises NaN to Null at intake.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Value::Bytes),
    ]
}
