//! Property test for the shard-layout equivalence guarantee: under the
//! same seed and the same interleaved workload, a container sharded into
//! 1, 4, or 16 time-range shards returns *identical* query results and
//! evicts *identical* tuple sets as the default one-shard layout, tick for
//! tick, under EGI and under every row fungus. (The bare-`TableStore`
//! reference lives in `fungus-shard`'s unit tests and in `prop_rot_walk`;
//! here the never-sealing shard is the container-level oracle.)
//!
//! This is the contract that makes sharding a pure layout decision: EGI's
//! seed draws stay on the container's single RNG stream over the globally
//! id-ordered candidate list, spread is resolved along the global time
//! axis (with O(1) hops over dropped shard ranges), and shard pruning is
//! only ever a conservative skip. Any divergence — an extra draw, a
//! reordered candidate, an over-eager prune — shows up here as a
//! mismatched answer or eviction set.

use proptest::prelude::*;

use spacefungus::prelude::*;

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a row at the current tick.
    Insert(i64),
    /// Advance the decay clock one tick.
    Tick,
    /// A plain filter read (exercises shard pruning via `$inserted_at`).
    Recent(u64),
    /// An aggregate over a freshness bound (prunes via the envelope).
    FreshCount,
    /// A consuming read: removes what it returns, shrinking the extent.
    Consume(i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (-50i64..50).prop_map(Op::Insert),
        3 => Just(Op::Tick),
        1 => (0u64..20).prop_map(Op::Recent),
        1 => Just(Op::FreshCount),
        1 => (-50i64..50).prop_map(Op::Consume),
    ]
}

/// Everything observable from one run: each query's answer rows and each
/// tick's eviction set (id, insertion tick, values), plus the survivors.
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<Vec<Vec<Value>>>,
    evicted: Vec<Vec<(u64, u64, Vec<Value>)>>,
    survivors: Vec<(u64, Vec<Value>)>,
}

/// Fungi aggressive enough that short op sequences still rot: EGI with
/// two age-biased seeds per tick, half-freshness bites and narrow spread,
/// and every row fungus with a lifetime of a few ticks.
fn arb_fungus() -> impl Strategy<Value = FungusSpec> {
    prop_oneof![
        5 => Just(FungusSpec::Egi(EgiConfig {
            seeds_per_tick: 2,
            seed_bias: SeedBias::AgePow(2.0),
            rot_rate: 0.5,
            spread_width: 2,
        })),
        1 => (1u64..8).prop_map(|max_age| FungusSpec::Retention { max_age }),
        1 => (1u64..6).prop_map(|lifetime| FungusSpec::Linear { lifetime }),
        1 => (0.2f64..1.5).prop_map(|lambda| FungusSpec::Exponential {
            lambda,
            rot_threshold: 0.1,
        }),
        1 => (1u64..6).prop_map(|lease| FungusSpec::Lease { lease }),
        1 => (0.2f64..=1.0).prop_map(|base_rate| FungusSpec::Importance {
            base_rate,
            recency_shield: 5.0,
        }),
    ]
}

fn run_workload(ops: &[Op], seed: u64, fungus: &FungusSpec, spec: ShardSpec) -> Observed {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    let policy = ContainerPolicy::new(fungus.clone()).with_sharding(spec);
    let rng = DeterministicRng::new(seed);
    let mut c = Container::new("t", schema, policy, &rng).unwrap();

    let select = |sql: &str| match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected select, got {other:?}"),
    };

    let mut now = Tick(0);
    let mut out = Observed {
        answers: Vec::new(),
        evicted: Vec::new(),
        survivors: Vec::new(),
    };
    for op in ops {
        match op {
            Op::Insert(v) => {
                c.insert(vec![Value::Int(*v)], now).unwrap();
            }
            Op::Tick => {
                now = Tick(now.get() + 1);
                let (_report, gone) = c.decay_tick_collect(now);
                let mut set: Vec<(u64, u64, Vec<Value>)> = gone
                    .into_iter()
                    .map(|t| (t.meta.id.get(), t.meta.inserted_at.get(), t.values.to_vec()))
                    .collect();
                // Eviction is a *set* contract; the whole-shard drop path
                // may interleave differently with per-tuple deletes.
                set.sort();
                out.evicted.push(set);
            }
            Op::Recent(back) => {
                let floor = now.get().saturating_sub(*back);
                let stmt = select(&format!(
                    "SELECT * FROM t WHERE $inserted_at >= {floor} AND v >= -50"
                ));
                let plan = c.plan(&stmt).unwrap();
                out.answers.push(c.query(&plan, now).unwrap().rows);
            }
            Op::FreshCount => {
                let stmt = select("SELECT COUNT(*) FROM t WHERE $freshness >= 0.5");
                let plan = c.plan(&stmt).unwrap();
                out.answers.push(c.query(&plan, now).unwrap().rows);
            }
            Op::Consume(v) => {
                let stmt = select(&format!("SELECT * FROM t WHERE v >= {v} CONSUME"));
                let plan = c.plan(&stmt).unwrap();
                out.answers.push(c.query(&plan, now).unwrap().rows);
            }
        }
    }
    let stmt = select("SELECT $id, v FROM t WHERE v >= -50");
    let plan = c.plan(&stmt).unwrap();
    out.survivors = c
        .query(&plan, now)
        .unwrap()
        .rows
        .into_iter()
        .map(|r| match r.first() {
            Some(Value::Int(id)) => (*id as u64, r[1..].to_vec()),
            other => panic!("expected $id column, got {other:?}"),
        })
        .collect();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Default (one never-sealing shard), fixed 1/4/16-shard and
    /// adaptive layouts all observe identical histories. The adaptive
    /// specs put the lifecycle on the hot path: small shards with a high
    /// low-water mark so bursty insert runs split the tail and
    /// rot-hollowed neighbors merge mid-history — and none of it may move
    /// a single answer or eviction.
    #[test]
    fn shard_layouts_are_observationally_equivalent(
        ops in proptest::collection::vec(arb_op(), 1..80),
        seed in 0u64..1_000,
        fungus in arb_fungus(),
    ) {
        let inserts = ops.iter().filter(|o| matches!(o, Op::Insert(_))).count() as u64;
        let mono = run_workload(&ops, seed, &fungus, ShardSpec::default());
        for shards in [1u64, 4, 16] {
            let rows_per_shard = (inserts / shards).max(1);
            let spec = ShardSpec::new(rows_per_shard);
            let sharded = run_workload(&ops, seed, &fungus, spec);
            prop_assert_eq!(
                &mono, &sharded,
                "layout with ~{} shards diverged from monolithic", shards
            );
        }
        for (rows_per_shard, low_water) in [
            ((inserts / 4).max(1), 0.6),
            ((inserts / 8).max(1), 0.25),
            ((inserts / 16).max(1) * 4, 0.6),
        ] {
            let spec = ShardSpec::new(rows_per_shard)
                .with_adaptive()
                .with_low_water(low_water);
            let adaptive = run_workload(&ops, seed, &fungus, spec);
            prop_assert_eq!(
                &mono, &adaptive,
                "adaptive layout (rows {}, low water {}) diverged from monolithic",
                rows_per_shard, low_water
            );
        }
    }
}

proptest! {
    // Checkpointing hits the filesystem per case; fewer, richer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A checkpoint of an adaptive sharded database — and of a default
    /// (no sharding clause) one — restores the *exact* shard structure:
    /// boundaries, capacities, summaries, dirty flags, dropped-range
    /// memory, and lifecycle counters, not merely an equivalent extent,
    /// and the restored database continues decaying bit-identically.
    #[test]
    fn adaptive_checkpoints_roundtrip_shard_structure(
        ops in proptest::collection::vec(arb_op(), 20..120),
        seed in 0u64..1_000,
    ) {
        let adaptive = ShardSpec::new(6).with_adaptive().with_low_water(0.5);
        for spec in [adaptive, ShardSpec::default()] {
            let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
            let policy = ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
                seeds_per_tick: 2,
                seed_bias: SeedBias::AgePow(2.0),
                rot_rate: 0.5,
                spread_width: 2,
            }))
            .with_sharding(spec);
            let mut db = Database::new(seed);
            db.create_container("t", schema, policy).unwrap();
            for op in &ops {
                match op {
                    Op::Insert(v) => {
                        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
                    }
                    Op::Tick => {
                        db.run_for(1);
                    }
                    Op::Consume(v) => {
                        db.execute(&format!("SELECT * FROM t WHERE v >= {v} CONSUME")).unwrap();
                    }
                    // Reads don't move shard structure; covered above.
                    Op::Recent(_) | Op::FreshCount => {}
                }
            }

            let structure = {
                let c = db.container("t").unwrap();
                let g = c.read();
                g.extent().structure()
            };
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fungus-prop-ckpt-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            ));
            db.checkpoint(&dir).unwrap();
            let mut back = Database::new(seed);
            back.restore_checkpoint(&dir).unwrap();
            std::fs::remove_dir_all(&dir).ok();

            {
                let c = back.container("t").unwrap();
                let g = c.read();
                prop_assert_eq!(
                    g.extent().structure(),
                    structure,
                    "restored shard structure differs"
                );
            }
            // Identical decay futures: both copies rot the same tuples.
            db.run_for(20);
            back.run_for(20);
            let survivors = |d: &Database| {
                let out = d.execute("SELECT $id, v FROM t WHERE v >= -50").unwrap();
                out.result.rows
            };
            prop_assert_eq!(survivors(&db), survivors(&back), "post-restore decay diverged");
        }
    }
}
