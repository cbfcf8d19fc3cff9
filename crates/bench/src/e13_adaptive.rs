//! **E13 — Adaptive shard lifecycle vs. fixed sizing** (table).
//!
//! Claim: a fixed `rows_per_shard` must be guessed against a workload the
//! operator does not control, and both guesses lose under rot-heavy
//! churn. Undersized shards multiply per-shard summary work;
//! oversized shards keep hollowed-out time ranges resident because a
//! shard only drops in O(1) when *everything* in it rotted. The adaptive
//! lifecycle (`WITH SHARDING (…, adaptive = on)`) fixes both ends from
//! the eviction sweep itself: tails seal early under insert pressure
//! (splits), and sealed neighbors whose live fraction fell under the
//! low-water mark fold together (merges) — while the layout-equivalence
//! contract keeps every answer bit-identical to the monolithic extent.
//!
//! The workload is bursty, rot-heavy churn: an age-spread preload, then
//! alternating burst and lull insert phases over a strongly rotting EGI
//! fungus, so the insert rate the shard sizing was "tuned" for is wrong
//! most of the time in both directions. We run fixed layouts a quarter,
//! one, and four times the nominal shard size, plus the adaptive layout
//! at the nominal size, all under one seed, and record decay-tick
//! latency percentiles, the resident shard count, live
//! memory, and the lifecycle counters. EXPERIMENTS.md asserts the
//! headline: the adaptive layout's resident shard count tracks live data
//! (ending as low as the 4× oversized layout, with a fraction of its
//! whole-shard drop backlog), live memory is identical across layouts —
//! the equivalence contract making sizing a pure cost decision — and the
//! price is visible exactly where it is paid: merge sweeps replay tuples
//! inside the eviction pass, lifting tick p99 while p50 stays near the
//! fixed layouts.

use std::time::Instant;

use fungus_clock::DeterministicRng;
use fungus_core::{Container, ContainerPolicy, ShardSpec};
use fungus_fungi::{EgiConfig, FungusSpec, SeedBias};
use fungus_types::{DataType, Schema, Tick, Value};

use crate::harness::{fnum, percentile, Scale, TableBuilder};

struct Sizing {
    preload: u64,
    preload_ticks: u64,
    phases: u64,
    phase_ticks: u64,
    burst_batch: usize,
    lull_batch: usize,
    rows_per_shard: u64,
}

fn sizing(scale: Scale) -> Sizing {
    match scale {
        Scale::Full => Sizing {
            preload: 16_000,
            preload_ticks: 256,
            phases: 24,
            phase_ticks: 32,
            burst_batch: 600,
            lull_batch: 10,
            rows_per_shard: 4_000,
        },
        Scale::Quick => Sizing {
            preload: 400,
            preload_ticks: 8,
            phases: 4,
            phase_ticks: 6,
            burst_batch: 60,
            lull_batch: 2,
            rows_per_shard: 40,
        },
    }
}

fn fungus() -> FungusSpec {
    // Rot-heavy, moderately age-biased: the front eats the oldest ranges
    // fastest but leaks into younger ones, so old shards are *hollowed*
    // (merge fodder) before they are emptied (drop fodder). Contrast with
    // E12's β = 32, which kills whole shards in strict order and never
    // leaves a merge candidate behind.
    FungusSpec::Egi(EgiConfig {
        seeds_per_tick: 8,
        seed_bias: SeedBias::AgePow(8.0),
        rot_rate: 0.5,
        spread_width: 6,
    })
}

/// One measured layout under the shared bursty-churn schedule.
fn run_layout(label: &str, spec: ShardSpec, s: &Sizing) -> Vec<String> {
    let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
    let policy = ContainerPolicy::new(fungus()).with_sharding(spec);
    // One seed for every layout: identical rot, identical answers — the
    // comparison is pure cost model.
    let rng = DeterministicRng::new(0xE13);
    let mut c = Container::new("t", schema, policy, &rng).unwrap();

    let rows_per_tick = (s.preload / s.preload_ticks).max(1);
    for i in 0..s.preload {
        c.insert(vec![Value::Int(i as i64)], Tick(i / rows_per_tick))
            .unwrap();
    }

    let mut tick_us = Vec::with_capacity((s.phases * s.phase_ticks) as usize);
    let mut now = s.preload_ticks;
    for phase in 0..s.phases {
        // Even phases burst, odd phases idle — the mismatch a fixed
        // shard size cannot track.
        let batch = if phase % 2 == 0 {
            s.burst_batch
        } else {
            s.lull_batch
        };
        for _ in 0..s.phase_ticks {
            for k in 0..batch {
                c.insert(vec![Value::Int(k as i64)], Tick(now)).unwrap();
            }
            let start = Instant::now();
            c.decay_tick(Tick(now));
            tick_us.push(start.elapsed().as_secs_f64() * 1e6);
            now += 1;
        }
    }

    let stats = c.stats(Tick(now));
    vec![
        label.to_string(),
        c.shard_count().to_string(),
        c.live_count().to_string(),
        fnum(percentile(&tick_us, 0.5)),
        fnum(percentile(&tick_us, 0.99)),
        fnum(stats.approx_bytes as f64 / 1024.0),
        c.shards_split().to_string(),
        c.shards_merged().to_string(),
        c.metrics().shards_dropped.to_string(),
    ]
}

/// Runs E13 with explicit shard-worker parallelism (the CI matrix runs
/// 1 and 2 workers; recorded tables use 1 so wins are algorithmic).
pub fn run_with_workers(scale: Scale, workers: usize) -> String {
    let s = sizing(scale);
    let mut table = TableBuilder::new(
        format!(
            "E13 adaptive vs fixed shard sizing: {} preloaded rows, {} phases x {} ticks \
             of burst/lull churn (burst {} vs lull {}), rot-heavy EGI, one seed, {} worker(s)",
            s.preload, s.phases, s.phase_ticks, s.burst_batch, s.lull_batch, workers
        ),
        &[
            "layout",
            "shards_end",
            "live_end",
            "tick_p50_us",
            "tick_p99_us",
            "mem_kb",
            "splits",
            "merges",
            "dropped",
        ],
    );
    let fixed = |rows: u64| ShardSpec::new(rows.max(1)).with_workers(workers);
    table.row(run_layout("fixed/quarter", fixed(s.rows_per_shard / 4), &s));
    table.row(run_layout("fixed/nominal", fixed(s.rows_per_shard), &s));
    table.row(run_layout("fixed/4x", fixed(s.rows_per_shard * 4), &s));
    table.row(run_layout(
        "adaptive",
        fixed(s.rows_per_shard).with_adaptive().with_low_water(0.5),
        &s,
    ));
    table.render()
}

/// Runs E13 and renders the sizing comparison table (single worker).
pub fn run(scale: Scale) -> String {
    run_with_workers(scale, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_lifecycle_fires_and_preserves_answers() {
        let out = run(Scale::Quick);
        let rows: Vec<Vec<String>> = out
            .lines()
            .skip(2)
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect();
        assert_eq!(rows.len(), 4, "three fixed sizings + adaptive");

        // Layout equivalence: every layout keeps the identical live
        // extent under the shared seed — sizing is pure cost model.
        let live: Vec<&String> = rows.iter().map(|r| &r[2]).collect();
        assert!(
            live.iter().all(|l| *l == live[0]),
            "all layouts must keep the same live extent: {live:?}"
        );

        // Fixed layouts never split or merge; adaptive did both.
        for r in &rows[..3] {
            assert_eq!(r[6], "0", "{}: fixed layout split", r[0]);
            assert_eq!(r[7], "0", "{}: fixed layout merged", r[0]);
        }
        let adaptive = &rows[3];
        let splits: u64 = adaptive[6].parse().unwrap();
        let merges: u64 = adaptive[7].parse().unwrap();
        assert!(splits > 0, "adaptive layout never split: {out}");
        assert!(merges > 0, "adaptive layout never merged: {out}");

        // The lifecycle keeps the lock count in check: no worse than the
        // undersized fixed layout at end of run.
        let quarter_shards: u64 = rows[0][1].parse().unwrap();
        let adaptive_shards: u64 = adaptive[1].parse().unwrap();
        assert!(
            adaptive_shards <= quarter_shards,
            "adaptive resident shards {adaptive_shards} > undersized fixed {quarter_shards}"
        );
    }
}
