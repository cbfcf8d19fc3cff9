//! **E12 — Sharded extent vs. the one-shard default** (table).
//!
//! Claim: splitting a container's extent into time-range shards makes
//! periodic decay cheap without changing a single answer. Under the same
//! seed every layout rots the *same* tuples as a single undivided store
//! (the equivalence property the shard crate tests bit-for-bit), but the
//! maintenance cost differs structurally:
//!
//! * eviction passes skip shards whose freshness never moved (EGI's
//!   age-biased spots leave young shards untouched), while one
//!   never-sealing shard re-scans its whole live extent every tick;
//! * a fully rotted shard detaches in O(1), and the extent *forgets its
//!   id range*: spread-phase neighbour walks hop the gap in one step. The
//!   single shard can only tombstone, so its walks from the rot front
//!   cross every id the fungus ever ate — a cost that grows with the
//!   total eaten history, not the live extent;
//! * recency queries (`$inserted_at >= …`) prune whole shards from the
//!   summary ranges before touching a tuple.
//!
//! We run the same churning workload — age-spread preload, then a long
//! steady state of interleaved inserts, recency reads, and decay ticks,
//! with the insert rate matched to the rot front's kill rate — over the
//! default one-shard layout (`ShardSpec::default()`, what a container
//! without a sharding clause gets) and sealing shard counts 1–16, and
//! record decay-tick latency percentiles, query latency, full-scan
//! throughput, and the shard drop/prune counters. EXPERIMENTS.md asserts
//! the headline: tick p99 at 8 shards improves ≥ 2× over the baseline.

use std::time::Instant;

use fungus_clock::DeterministicRng;
use fungus_core::{Container, ContainerPolicy, ShardSpec};
use fungus_fungi::{EgiConfig, FungusSpec, SeedBias};
use fungus_query::{parse_statement, SelectStatement, Statement};
use fungus_types::{DataType, Schema, Tick, Value};

use crate::harness::{fnum, percentile, Scale, TableBuilder};

struct Sizing {
    preload: u64,
    preload_ticks: u64,
    warm_ticks: u64,
    iters: u64,
    insert_batch: usize,
    window: u64,
    scans: u64,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Full => Sizing {
            preload: 16_000,
            preload_ticks: 256,
            warm_ticks: 64,
            iters: 768,
            insert_batch: 300,
            window: 32,
            scans: 30,
        },
        Scale::Quick => Sizing {
            preload: 400,
            preload_ticks: 8,
            warm_ticks: 2,
            iters: 10,
            insert_batch: 5,
            window: 4,
            scans: 3,
        },
    }
}

fn fungus() -> FungusSpec {
    // Aggressive, strongly age-biased rot: β = 32 confines the seeds to
    // the oldest one or two time ranges, so the rot front advances
    // through whole shards in order — exactly the shape that lets shards
    // drop in O(1) while young shards stay clean. The kill rate of this
    // front (≈ insert_batch per tick) is what the steady-state insert
    // rate is matched against.
    FungusSpec::Egi(EgiConfig {
        seeds_per_tick: 6,
        seed_bias: SeedBias::AgePow(32.0),
        rot_rate: 0.3,
        spread_width: 6,
    })
}

fn select(sql: &str) -> SelectStatement {
    match parse_statement(sql).expect("parse") {
        Statement::Select(s) => s,
        other => panic!("expected select, got {other:?}"),
    }
}

/// One measured layout.
fn run_layout(label: &str, spec: ShardSpec, s: &Sizing) -> Vec<String> {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    let policy = ContainerPolicy::new(fungus()).with_sharding(spec);
    // Same rng seed everywhere: the layouts rot identical tuple sets, so
    // the timing comparison is apples-to-apples by construction.
    let rng = DeterministicRng::new(0xE12);
    let mut c = Container::new("t", schema, policy, &rng).unwrap();

    // Age-spread preload: ticks 0..preload_ticks, oldest first.
    let rows_per_tick = (s.preload / s.preload_ticks).max(1);
    for i in 0..s.preload {
        c.insert(vec![Value::Int(i as i64)], Tick(i / rows_per_tick))
            .unwrap();
    }
    // Warm-up: run the churn loop unmeasured until the rot front is
    // established and insert/kill rates have settled, so the measured
    // window sees steady state rather than the initial burn-down.
    for j in 0..s.warm_ticks {
        let now = Tick(s.preload_ticks + j);
        for k in 0..s.insert_batch {
            c.insert(vec![Value::Int(k as i64)], now).unwrap();
        }
        c.decay_tick(now);
    }

    let mut tick_us = Vec::with_capacity(s.iters as usize);
    let mut query_us = Vec::with_capacity(s.iters as usize);
    for j in 0..s.iters {
        let now = Tick(s.preload_ticks + s.warm_ticks + j);
        for k in 0..s.insert_batch {
            c.insert(vec![Value::Int((j as usize * 7 + k) as i64)], now)
                .unwrap();
        }
        // The interleaved read: a recency window plus a column bound, the
        // query shape shard summaries prune on.
        let floor = now.get().saturating_sub(s.window);
        let stmt = select(&format!(
            "SELECT COUNT(*) FROM t WHERE $inserted_at >= {floor} AND v >= 0"
        ));
        let plan = c.plan(&stmt).unwrap();
        let start = Instant::now();
        c.query(&plan, now).unwrap();
        query_us.push(start.elapsed().as_secs_f64() * 1e6);

        let start = Instant::now();
        c.decay_tick(now);
        tick_us.push(start.elapsed().as_secs_f64() * 1e6);
    }

    // Full-scan throughput over whatever survived the churn.
    let now = Tick(s.preload_ticks + s.warm_ticks + s.iters);
    let stmt = select("SELECT COUNT(*) FROM t WHERE v >= 0");
    let plan = c.plan(&stmt).unwrap();
    let mut scanned = 0u64;
    let start = Instant::now();
    for _ in 0..s.scans {
        scanned += c.query(&plan, now).unwrap().scanned as u64;
    }
    let scan_secs = start.elapsed().as_secs_f64();

    vec![
        label.to_string(),
        c.shard_count().to_string(),
        c.live_count().to_string(),
        fnum(percentile(&tick_us, 0.5)),
        fnum(percentile(&tick_us, 0.99)),
        fnum(percentile(&query_us, 0.99)),
        fnum(scanned as f64 / scan_secs / 1000.0),
        c.metrics().shards_dropped.to_string(),
        c.shards_pruned().to_string(),
    ]
}

/// Runs E12 with explicit shard-worker parallelism (the CI matrix runs
/// 1 and 2 workers; recorded tables use 1 so wins are algorithmic).
pub fn run_with_workers(scale: Scale, workers: usize) -> String {
    let s = sizing(scale);
    let mut table = TableBuilder::new(
        format!(
            "E12 sharded vs one-shard extent: {} preloaded rows, {} churn ticks \
             (insert {} + recency read + decay per tick), identical rot under one \
             seed, {} worker(s)",
            s.preload, s.iters, s.insert_batch, workers
        ),
        &[
            "layout",
            "shards_end",
            "live_end",
            "tick_p50_us",
            "tick_p99_us",
            "query_p99_us",
            "scan_ktup_s",
            "dropped",
            "pruned",
        ],
    );

    let baseline = ShardSpec::default().with_workers(workers);
    table.row(run_layout("1 shard", baseline, &s));
    for count in [1u64, 2, 4, 8, 16] {
        // Size shards against the steady-state live extent (≈ 2.5× the
        // preload under this insert/kill balance), so `count` is the
        // resident shard count once the churn settles.
        let rows_per_shard = (s.preload * 5 / (2 * count)).max(1);
        let spec = ShardSpec::new(rows_per_shard).with_workers(workers);
        table.row(run_layout(&format!("shard/{count}"), spec, &s));
    }
    table.render()
}

/// Runs E12 and renders the layout comparison table with one fan-out
/// worker: the host the tables are recorded on is single-core, so every
/// win is algorithmic (dirty-shard skipping, O(1) drops, shard pruning),
/// not parallelism.
pub fn run(scale: Scale) -> String {
    run_with_workers(scale, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_rot_identically_and_shard_counters_move() {
        let out = run(Scale::Quick);
        let rows: Vec<Vec<String>> = out
            .lines()
            .skip(2)
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect();
        assert_eq!(rows.len(), 6, "baseline + 5 shard counts");
        assert_eq!(rows[0][0], "1 shard");
        assert_eq!(rows[0][1], "1", "the never-sealing shard stays one shard");
        assert_eq!(
            rows[0][7], "0",
            "a shard that is never wholly rotten never drops"
        );

        // Equivalence shows up as identical surviving extents.
        let live: Vec<&String> = rows.iter().map(|r| &r[2]).collect();
        assert!(
            live.iter().all(|l| *l == live[0]),
            "all layouts must keep the same live extent: {live:?}"
        );
        for r in &rows {
            let p99: f64 = r[4].parse().unwrap();
            assert!(p99 >= 0.0);
        }
        // The recency read prunes shards once there is more than one.
        let pruned16: u64 = rows[5][8].parse().unwrap();
        assert!(pruned16 > 0, "16-shard layout pruned nothing");
    }
}
