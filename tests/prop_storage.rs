//! Model-based property tests: the segmented [`TableStore`] against a
//! naive `BTreeMap` reference model under random operation sequences,
//! plus snapshot round-trip properties and the copy-on-write contract
//! (a clone is a sealed version no later write shows through).

use std::collections::BTreeMap;

use proptest::prelude::*;

use spacefungus::fungus_storage::{decode_table, encode_table, TombstoneReason};
use spacefungus::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(usize),
    Decay(usize, f64),
    Scale(usize, f64),
    Infect(usize),
    Cure(usize),
    Touch(usize),
    EvictRotten,
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i64>().prop_map(Op::Insert),
        2 => any::<usize>().prop_map(Op::Delete),
        3 => (any::<usize>(), 0.0f64..1.5).prop_map(|(i, a)| Op::Decay(i, a)),
        1 => (any::<usize>(), 0.0f64..1.2).prop_map(|(i, k)| Op::Scale(i, k)),
        1 => any::<usize>().prop_map(Op::Infect),
        1 => any::<usize>().prop_map(Op::Cure),
        1 => any::<usize>().prop_map(Op::Touch),
        1 => Just(Op::EvictRotten),
        1 => Just(Op::Compact),
    ]
}

/// Reference model: id → (value, freshness, infected, accesses).
#[derive(Debug, Default)]
struct Model {
    rows: BTreeMap<u64, (i64, f64, bool, u32)>,
    next_id: u64,
}

fn small_store() -> TableStore {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    TableStore::new(
        schema,
        StorageConfig {
            segment_capacity: 4,
            compact_live_threshold: 0.5,
            zone_maps: true,
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any op sequence the store agrees with the reference model on
    /// membership, values, freshness, infection, and access counts.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut store = small_store();
        let mut model = Model::default();
        let now = Tick(1);

        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = store.insert(vec![Value::Int(v)], now).unwrap();
                    prop_assert_eq!(id.get(), model.next_id);
                    model.rows.insert(model.next_id, (v, 1.0, false, 0));
                    model.next_id += 1;
                }
                Op::Delete(i) => {
                    let target = pick(&model, i);
                    if let Some(id) = target {
                        store.delete(TupleId(id), TombstoneReason::Deleted);
                        model.rows.remove(&id);
                    }
                }
                Op::Decay(i, amount) => {
                    if let Some(id) = pick(&model, i) {
                        let f = store.decay(TupleId(id), amount).unwrap();
                        let m = model.rows.get_mut(&id).unwrap();
                        m.1 = (m.1 - amount.max(0.0)).max(0.0);
                        if m.1 < 1e-12 { m.1 = 0.0; }
                        prop_assert!((f.get() - m.1).abs() < 1e-9);
                    }
                }
                Op::Scale(i, factor) => {
                    if let Some(id) = pick(&model, i) {
                        let f = store.scale_freshness(TupleId(id), factor).unwrap();
                        let m = model.rows.get_mut(&id).unwrap();
                        m.1 *= factor.min(1.0);
                        if m.1 < 1e-12 { m.1 = 0.0; }
                        prop_assert!((f.get() - m.1).abs() < 1e-9);
                    }
                }
                Op::Infect(i) => {
                    if let Some(id) = pick(&model, i) {
                        prop_assert!(store.infect(TupleId(id), now));
                        model.rows.get_mut(&id).unwrap().2 = true;
                    }
                }
                Op::Cure(i) => {
                    if let Some(id) = pick(&model, i) {
                        store.cure(TupleId(id));
                        model.rows.get_mut(&id).unwrap().2 = false;
                    }
                }
                Op::Touch(i) => {
                    if let Some(id) = pick(&model, i) {
                        store.touch(TupleId(id), now);
                        model.rows.get_mut(&id).unwrap().3 += 1;
                    }
                }
                Op::EvictRotten => {
                    let evicted = store.evict_rotten();
                    for t in &evicted {
                        let m = model.rows.remove(&t.meta.id.get());
                        prop_assert!(m.is_some());
                        prop_assert_eq!(m.unwrap().1, 0.0, "only rotten rows evict");
                    }
                    prop_assert!(model.rows.values().all(|r| r.1 > 0.0));
                }
                Op::Compact => {
                    store.compact();
                }
            }

            // Full-state comparison after every op.
            prop_assert_eq!(store.live_count(), model.rows.len());
            for (&id, &(v, f, infected, accesses)) in &model.rows {
                let t = store.get(TupleId(id));
                prop_assert!(t.is_some(), "id {} missing", id);
                let t = t.unwrap();
                prop_assert_eq!(&t.values[0], &Value::Int(v));
                prop_assert!((t.meta.freshness.get() - f).abs() < 1e-9);
                prop_assert_eq!(t.meta.infected, infected);
                prop_assert_eq!(t.meta.access_count, accesses);
            }
            let infected_model: Vec<u64> = model
                .rows
                .iter()
                .filter(|(_, r)| r.2)
                .map(|(id, _)| *id)
                .collect();
            let infected_store: Vec<u64> =
                store.infected_ids().iter().map(|i| i.get()).collect();
            prop_assert_eq!(infected_store, infected_model);
        }
    }

    /// Snapshot round-trip is the identity on every observable of the
    /// store, for any op sequence.
    #[test]
    fn snapshot_roundtrip_is_identity(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut store = small_store();
        let mut model = Model::default();
        let now = Tick(1);
        for op in ops {
            apply_unchecked(&mut store, &mut model, op, now);
        }
        let restored = decode_table(encode_table(&store)).unwrap();
        prop_assert_eq!(restored.live_count(), store.live_count());
        prop_assert_eq!(restored.next_id(), store.next_id());
        prop_assert_eq!(restored.infected_ids(), store.infected_ids());
        prop_assert_eq!(restored.evicted_rotted(), store.evicted_rotted());
        prop_assert_eq!(restored.rotted_unread(), store.rotted_unread());
        let a: Vec<_> = store.iter_live().cloned().collect();
        let b: Vec<_> = restored.iter_live().cloned().collect();
        prop_assert_eq!(a, b);
    }

    /// Snapshot decoding never panics on corrupted input: any single-byte
    /// mutation or truncation either round-trips (if it hit dead bytes) or
    /// fails with a clean error.
    #[test]
    fn snapshot_decode_survives_corruption(
        ops in proptest::collection::vec(arb_op(), 1..40),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
        cut_at in any::<usize>(),
    ) {
        let mut store = small_store();
        let mut model = Model::default();
        for op in ops {
            apply_unchecked(&mut store, &mut model, op, Tick(1));
        }
        let bytes = encode_table(&store);
        // Bit flip somewhere.
        let mut mutated = bytes.to_vec();
        let idx = flip_at % mutated.len();
        mutated[idx] ^= flip_bits;
        let _ = decode_table(bytes::Bytes::from(mutated)); // must not panic
        // Truncation anywhere.
        let cut = cut_at % (bytes.len() + 1);
        let _ = decode_table(bytes.slice(..cut)); // must not panic
    }

    /// A clone is a sealed version. Whatever the original does afterwards
    /// — through every write path, over dense and sparse segments, with
    /// and without indexes and infections — the clone's bytes and index
    /// answers stay what they were when it was taken, and the original
    /// ends where a store that was never cloned ends.
    #[test]
    fn writes_to_the_original_never_show_through_a_clone(
        before in proptest::collection::vec(arb_op(), 1..80),
        after in proptest::collection::vec(arb_op(), 1..80),
        indexed in any::<bool>(),
    ) {
        let fresh = || {
            let mut s = small_store();
            if indexed {
                s.create_index("v").unwrap();
                s.create_ord_index("v").unwrap();
            }
            (s, Model::default())
        };
        let (mut store, mut model) = fresh();
        let (mut twin, mut twin_model) = fresh();
        for op in before {
            apply_unchecked(&mut twin, &mut twin_model, op.clone(), Tick(1));
            apply_unchecked(&mut store, &mut model, op, Tick(1));
        }

        let sealed = store.clone();
        let bytes = encode_table(&sealed);
        let keys: Vec<Value> = model.rows.values().map(|r| Value::Int(r.0)).collect();
        let probes: Vec<_> = keys
            .iter()
            .map(|k| sealed.index_probe(0, std::slice::from_ref(k)))
            .collect();
        let ordered = sealed.ord_range_probe(0, None, None);

        for op in after {
            apply_unchecked(&mut twin, &mut twin_model, op.clone(), Tick(2));
            apply_unchecked(&mut store, &mut model, op, Tick(2));
        }

        prop_assert_eq!(encode_table(&sealed), bytes);
        for (k, was) in keys.iter().zip(&probes) {
            prop_assert_eq!(&sealed.index_probe(0, std::slice::from_ref(k)), was);
        }
        prop_assert_eq!(sealed.ord_range_probe(0, None, None), ordered);
        prop_assert_eq!(encode_table(&store), encode_table(&twin));
        prop_assert_eq!(
            store.ord_range_probe(0, None, None),
            twin.ord_range_probe(0, None, None)
        );
    }

    /// Live neighbours always skip tombstones and stay ordered around the
    /// probe id.
    #[test]
    fn neighbors_are_ordered_live_tuples(ops in proptest::collection::vec(arb_op(), 1..80), probe in any::<u64>()) {
        let mut store = small_store();
        let mut model = Model::default();
        for op in ops {
            apply_unchecked(&mut store, &mut model, op, Tick(1));
        }
        let max_id = store.next_id().get();
        let probe = TupleId(if max_id == 0 { 0 } else { probe % (max_id + 1) });
        let (pred, succ) = store.live_neighbors(probe);
        if let Some(p) = pred {
            prop_assert!(p < probe);
            prop_assert!(store.get(p).is_some());
            // No live tuple strictly between p and probe.
            for id in (p.get() + 1)..probe.get() {
                prop_assert!(store.get(TupleId(id)).is_none());
            }
        }
        if let Some(s) = succ {
            prop_assert!(s > probe);
            prop_assert!(store.get(s).is_some());
            for id in (probe.get() + 1)..s.get() {
                prop_assert!(store.get(TupleId(id)).is_none());
            }
        }
    }
}

fn pick(model: &Model, i: usize) -> Option<u64> {
    if model.rows.is_empty() {
        None
    } else {
        model.rows.keys().nth(i % model.rows.len()).copied()
    }
}

fn apply_unchecked(store: &mut TableStore, model: &mut Model, op: Op, now: Tick) {
    match op {
        Op::Insert(v) => {
            store.insert(vec![Value::Int(v)], now).unwrap();
            model.rows.insert(model.next_id, (v, 1.0, false, 0));
            model.next_id += 1;
        }
        Op::Delete(i) => {
            if let Some(id) = pick(model, i) {
                store.delete(TupleId(id), TombstoneReason::Deleted);
                model.rows.remove(&id);
            }
        }
        Op::Decay(i, amount) => {
            if let Some(id) = pick(model, i) {
                store.decay(TupleId(id), amount);
            }
        }
        Op::Scale(i, factor) => {
            if let Some(id) = pick(model, i) {
                store.scale_freshness(TupleId(id), factor);
            }
        }
        Op::Infect(i) => {
            if let Some(id) = pick(model, i) {
                store.infect(TupleId(id), now);
            }
        }
        Op::Cure(i) => {
            if let Some(id) = pick(model, i) {
                store.cure(TupleId(id));
            }
        }
        Op::Touch(i) => {
            if let Some(id) = pick(model, i) {
                store.touch(TupleId(id), now);
            }
        }
        Op::EvictRotten => {
            for t in store.evict_rotten() {
                model.rows.remove(&t.meta.id.get());
            }
        }
        Op::Compact => {
            store.compact();
        }
    }
}

/// Readers hold a sealed clone while the writer keeps writing the
/// original: the segments and row values the two share are read from
/// other threads and un-shared, never written, by the writer. The readers
/// must see the same bytes every time, and the sanitizer job runs this to
/// see that no plain access races.
#[test]
fn readers_of_a_sealed_clone_race_the_writer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut store = small_store();
    store.create_index("v").unwrap();
    for v in 0..64 {
        store.insert(vec![Value::Int(v % 7)], Tick(1)).unwrap();
    }
    let sealed = Arc::new(store.clone());
    let bytes = encode_table(&sealed);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut passes = 0u32;
                while passes == 0 || !done.load(Ordering::Acquire) {
                    assert_eq!(encode_table(&sealed), bytes);
                    assert_eq!(sealed.index_probe(0, &[Value::Int(3)]).unwrap().len(), 9);
                    passes += 1;
                }
            });
        }
        // The version a publish would have sealed last: while it lives,
        // every write below copies the segment it lands in.
        let mut head = store.clone();
        for round in 0..40u64 {
            for id in 0..store.next_id().get() {
                store.decay(TupleId(id), 0.01);
                store.touch(TupleId(id), Tick(2 + round));
            }
            store.insert(vec![Value::Int(3)], Tick(2 + round)).unwrap();
            store.delete(TupleId(round), TombstoneReason::Consumed);
            store.compact();
            drop(std::mem::replace(&mut head, store.clone()));
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(encode_table(&sealed), bytes);
}
