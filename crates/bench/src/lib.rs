//! # fungus-bench
//!
//! The experiment harness: one module per experiment in DESIGN.md's
//! evaluation suite (E1–E14), each with a binary that prints the
//! table/series EXPERIMENTS.md records.
//!
//! The paper itself has no tables or figures (it is a two-page CIDR vision
//! note), so this suite is the evaluation a full-length version would have
//! carried — every experiment exercises one of the paper's qualitative
//! claims and is labelled with the claim it tests. Absolute numbers are
//! machine-dependent; the *shape* of each result (who wins, where the
//! crossovers fall) is what EXPERIMENTS.md asserts.
//!
//! Run everything with:
//!
//! ```text
//! for e in e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e12 e13 e14; do
//!     cargo run --release -p fungus-bench --bin exp_$e
//! done
//! ```
//!
//! Criterion micro-benchmarks live in `benches/` and cover the hot
//! primitives (append, decay step, scan, parse, sketch insert).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod a1_access_paths;
pub mod e10_health;
pub mod e11_scale;
pub mod e11_server;
pub mod e12_sharding;
pub mod e13_adaptive;
pub mod e14_trending;
pub mod e1_storage_bound;
pub mod e2_blue_cheese;
pub mod e3_tick_cost;
pub mod e4_query_latency;
pub mod e5_consume_steady;
pub mod e6_recall;
pub mod e7_cooking;
pub mod e8_baselines;
pub mod e9_seed_ablation;
pub mod harness;

pub use harness::{Scale, TableBuilder};
