//! Property test pinning the engine's one rot walk to the per-id loop it
//! replaced. Before the walk, each row fungus (Retention, Linear,
//! Exponential, Lease, Importance) gathered the live metadata, then made
//! one `decay`/`scale_freshness` call per id through the `DecaySurface`;
//! [`per_id_tick`] keeps that loop as the reference.
//!
//! Under random inserts, touches, ticks and pinned snapshots, on a bare
//! `TableStore` and on 1-, 4-, 16-shard and adaptive `ShardedExtent`s, the
//! walk must leave everything the loop left: every row's freshness bit for
//! bit, the same eviction sets, the same `ShardStructure` (dirty flags and
//! freshness-envelope bits included), the same segments still shared with
//! every pinned version, and the same shards re-publishing their sealed
//! store.

use std::sync::Arc;

use proptest::prelude::*;

use spacefungus::fungus_query::QueryExtent;
use spacefungus::fungus_shard::ShardStructure;
use spacefungus::fungus_storage::DecaySurface;
use spacefungus::prelude::*;

/// The per-id loop a row fungus ran before the engine owned the walk.
fn per_id_tick(spec: &FungusSpec, s: &mut dyn DecaySurface, now: Tick) {
    let mut metas = Vec::new();
    s.for_each_live_meta(&mut |_, m| metas.push(*m));
    for m in metas {
        let cur = m.freshness.get();
        let ttl = |idle: TickDelta, ttl: u64| {
            let (idle, ttl) = (idle.as_f64(), ttl.max(1) as f64);
            let target = 1.0 - idle / ttl;
            if idle >= ttl {
                Some(1.0)
            } else {
                (target < cur).then_some(cur - target)
            }
        };
        let amount = match *spec {
            FungusSpec::Retention { max_age } => ttl(m.age(now), max_age),
            FungusSpec::Lease { lease } => {
                ttl(now.age_since(m.last_access.unwrap_or(m.inserted_at)), lease)
            }
            FungusSpec::Linear { lifetime } => Some(1.0 / lifetime.max(1) as f64),
            FungusSpec::Importance {
                base_rate,
                recency_shield,
            } => {
                let count = 1.0 / (1.0 + f64::from(m.access_count));
                let recency = m.last_access.map_or(1.0, |t| {
                    1.0 / (1.0 + recency_shield / (now.age_since(t).as_f64() + 1.0))
                });
                Some(base_rate * count * recency).filter(|a| *a > 0.0)
            }
            FungusSpec::Exponential {
                lambda,
                rot_threshold,
            } => {
                let f = s.scale_freshness(m.id, (-lambda).exp()).unwrap();
                (f.get() < rot_threshold).then_some(1.0)
            }
            _ => unreachable!("{spec:?} is not a row fungus"),
        };
        if let Some(amount) = amount {
            s.decay(m.id, amount);
        }
    }
}

fn arb_row_fungus() -> impl Strategy<Value = FungusSpec> {
    prop_oneof![
        (1u64..12).prop_map(|max_age| FungusSpec::Retention { max_age }),
        (1u64..8).prop_map(|lifetime| FungusSpec::Linear { lifetime }),
        (0.05f64..1.5, 0.0f64..0.3).prop_map(|(lambda, rot_threshold)| {
            FungusSpec::Exponential {
                lambda,
                rot_threshold,
            }
        }),
        (1u64..10).prop_map(|lease| FungusSpec::Lease { lease }),
        (0.0f64..=1.0, 0.0f64..20.0).prop_map(|(base_rate, recency_shield)| {
            FungusSpec::Importance {
                base_rate,
                recency_shield,
            }
        }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert this many rows at the current tick.
    Insert(u8),
    /// Record a read of the live row at this position (modulo the count).
    Touch(u16),
    /// Advance the clock this many ticks, apply the fungus once, evict
    /// what rotted. A jump of several ticks is a container whose decay
    /// period is longer than one tick.
    Tick(u8),
    /// Pin the current version, as an MVCC publish does.
    Pin,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u8..6).prop_map(Op::Insert),
        2 => any::<u16>().prop_map(Op::Touch),
        3 => (1u8..8).prop_map(Op::Tick),
        1 => Just(Op::Pin),
    ]
}

/// A version pinned by a reader: each shard's sealed store, by base.
type Pin = Vec<(u64, Arc<TableStore>)>;

/// What the property compares, event by event.
#[derive(Debug, PartialEq)]
enum Seen {
    /// Every live row as `(id, freshness bits)` right after a tick.
    Rows(Vec<(u64, u64)>),
    Structure(Option<ShardStructure>),
    /// Per held pin, per shard, which segments the live extent still shares.
    Sharing(Vec<Vec<Vec<bool>>>),
    Evicted(Vec<u64>),
    /// Per shard of a new pin, whether it is the previous pin's store.
    Republished(Vec<bool>),
}

/// The two layouts the walk is implemented for.
trait Layout: DecaySurface + QueryExtent {
    fn evict(&mut self) -> Vec<Tuple>;
    fn pin(&mut self) -> Pin;
    /// Visits each resident shard's live store with its base.
    fn each_store(&self, f: &mut dyn FnMut(u64, &TableStore));
    fn layout(&self) -> Option<ShardStructure>;
}

impl Layout for TableStore {
    fn evict(&mut self) -> Vec<Tuple> {
        self.evict_rotten()
    }
    fn pin(&mut self) -> Pin {
        vec![(0, Arc::new(self.clone()))]
    }
    fn each_store(&self, f: &mut dyn FnMut(u64, &TableStore)) {
        f(0, self)
    }
    fn layout(&self) -> Option<ShardStructure> {
        None
    }
}

impl Layout for ShardedExtent {
    fn evict(&mut self) -> Vec<Tuple> {
        self.evict_rotten()
    }
    fn pin(&mut self) -> Pin {
        let snap = self.publish_snapshot();
        snap.shards()
            .iter()
            .map(|s| (s.base, s.store.clone()))
            .collect()
    }
    fn each_store(&self, f: &mut dyn FnMut(u64, &TableStore)) {
        self.for_each_shard_store(|base, store| {
            f(base, store);
            Ok(())
        })
        .unwrap();
    }
    fn layout(&self) -> Option<ShardStructure> {
        Some(self.structure())
    }
}

fn sharing(pins: &[Pin], ext: &impl Layout) -> Vec<Vec<Vec<bool>>> {
    pins.iter()
        .map(|pin| {
            pin.iter()
                .map(|(base, pinned)| {
                    let mut shared = Vec::new();
                    ext.each_store(&mut |b, live| {
                        if b == *base {
                            let pairs = pinned.segments().iter().zip(live.segments());
                            shared = pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect();
                        }
                    });
                    shared
                })
                .collect()
        })
        .collect()
}

/// Runs `ops` with the fungus applied by the engine walk (`walk`) or by
/// the per-id reference loop, recording everything the property compares.
fn run<L: Layout>(mut ext: L, spec: &FungusSpec, ops: &[Op], walk: bool) -> Vec<Seen> {
    let mut fungus = spec.build(&DeterministicRng::new(1)).unwrap();
    let mut now = Tick(0);
    let mut pins: Vec<Pin> = Vec::new();
    let mut seen = Vec::new();
    let mut v = 0i64;
    for op in ops {
        match op {
            Op::Insert(n) => {
                for _ in 0..*n {
                    ext.insert(vec![Value::Int(v)], now).unwrap();
                    v += 1;
                }
            }
            Op::Touch(at) => {
                let mut ids = Vec::new();
                ext.for_each_live_meta(&mut |id, _| ids.push(id));
                if !ids.is_empty() {
                    ext.touch_by(ids[*at as usize % ids.len()], now, 1);
                }
            }
            Op::Tick(by) => {
                now = Tick(now.get() + u64::from(*by));
                if walk {
                    fungus.tick(&mut ext, now);
                } else {
                    per_id_tick(spec, &mut ext, now);
                }
                let mut rows = Vec::new();
                ext.for_each_live_meta(&mut |id, m| {
                    rows.push((id.get(), m.freshness.get().to_bits()));
                });
                seen.push(Seen::Rows(rows));
                seen.push(Seen::Structure(ext.layout()));
                seen.push(Seen::Sharing(sharing(&pins, &ext)));
                let gone = ext.evict().iter().map(|t| t.meta.id.get()).collect();
                seen.push(Seen::Evicted(gone));
                seen.push(Seen::Structure(ext.layout()));
            }
            Op::Pin => {
                let pin = ext.pin();
                let republished = match pins.last() {
                    Some(prev) => pin
                        .iter()
                        .map(|(base, s)| prev.iter().any(|(b, p)| b == base && Arc::ptr_eq(p, s)))
                        .collect(),
                    None => Vec::new(),
                };
                seen.push(Seen::Republished(republished));
                pins.push(pin);
                if pins.len() > 3 {
                    pins.remove(0);
                }
            }
        }
    }
    seen
}

fn schema() -> Schema {
    Schema::from_pairs(&[("v", DataType::Int)]).unwrap()
}

fn sharded(spec: ShardSpec) -> ShardedExtent {
    ShardedExtent::new(schema(), StorageConfig::for_tests(), spec).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_rot_walk_leaves_what_the_per_id_loop_left(
        spec in arb_row_fungus(),
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let table = || TableStore::new(schema(), StorageConfig::for_tests()).unwrap();
        prop_assert_eq!(
            run(table(), &spec, &ops, true),
            run(table(), &spec, &ops, false),
            "bare table store"
        );
        let rows: u64 = ops
            .iter()
            .map(|o| match o {
                Op::Insert(n) => u64::from(*n),
                _ => 0,
            })
            .sum();
        let mut layouts: Vec<ShardSpec> = [1u64, 4, 16]
            .iter()
            .map(|shards| ShardSpec::new((rows / shards).max(1)))
            .collect();
        layouts.push(
            ShardSpec::new((rows / 4).max(1))
                .with_adaptive()
                .with_low_water(0.6),
        );
        for layout in layouts {
            prop_assert_eq!(
                run(sharded(layout), &spec, &ops, true),
                run(sharded(layout), &spec, &ops, false),
                "{:?}", layout
            );
        }
    }
}

/// A segment no row of which changes is left shared: rows inserted at `now`
/// are at full remaining life under a TTL, so the tail segment holding only
/// them stays the pinned version's allocation, and the shard holding it
/// stays clean and re-publishes the same sealed store.
#[test]
fn a_segment_the_walk_does_not_write_stays_shared_with_the_pin() {
    let mut ttl = FungusSpec::Retention { max_age: 10 }
        .build(&DeterministicRng::new(1))
        .unwrap();
    let fill = |ext: &mut dyn QueryExtent| {
        for v in 0..8 {
            ext.insert(vec![Value::Int(v)], Tick(0)).unwrap();
        }
        for v in 8..11 {
            ext.insert(vec![Value::Int(v)], Tick(5)).unwrap();
        }
    };

    let mut table = TableStore::new(schema(), StorageConfig::for_tests()).unwrap();
    fill(&mut table);
    let pinned = table.pin();
    ttl.tick(&mut table, Tick(5));
    assert_eq!(
        sharing(&[pinned], &table),
        vec![vec![vec![false, true]]],
        "the tail segment of rows inserted at `now` is not copied"
    );

    let mut ext = sharded(ShardSpec::new(8));
    fill(&mut ext);
    let pinned = ext.pin();
    ttl.tick(&mut ext, Tick(5));
    let dirty: Vec<bool> = ext.structure().shards.iter().map(|s| s.dirty).collect();
    assert_eq!(dirty, vec![true, false]);
    let again = ext.pin();
    assert!(
        !Arc::ptr_eq(&pinned[0].1, &again[0].1),
        "the written shard re-seals"
    );
    assert!(
        Arc::ptr_eq(&pinned[1].1, &again[1].1),
        "the clean shard re-publishes"
    );
}
