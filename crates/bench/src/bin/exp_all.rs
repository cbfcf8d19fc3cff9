//! Runs the entire experiment suite (E1–E14 + A1) and writes one TSV per
//! experiment into the directory given as the first argument (default
//! `results/`).
//!
//! ```text
//! cargo run --release -p fungus-bench --bin exp_all [-- results/ [--quick]]
//! ```

use std::fs;
use std::path::PathBuf;

use fungus_bench::harness::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let dir: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("create results directory");

    type Runner = fn(Scale) -> String;
    let experiments: Vec<(&str, Runner)> = vec![
        ("e1", fungus_bench::e1_storage_bound::run),
        ("e2", fungus_bench::e2_blue_cheese::run),
        ("e3", fungus_bench::e3_tick_cost::run),
        ("e4", fungus_bench::e4_query_latency::run),
        ("e5", fungus_bench::e5_consume_steady::run),
        ("e6", fungus_bench::e6_recall::run),
        ("e7", fungus_bench::e7_cooking::run),
        ("e8", fungus_bench::e8_baselines::run),
        ("e9", fungus_bench::e9_seed_ablation::run),
        ("e10", fungus_bench::e10_health::run),
        ("e11", fungus_bench::e11_server::run),
        ("e11-scale", fungus_bench::e11_scale::run),
        ("e12", fungus_bench::e12_sharding::run),
        ("e13", fungus_bench::e13_adaptive::run),
        ("e14", fungus_bench::e14_trending::run),
        ("a1", fungus_bench::a1_access_paths::run),
    ];
    for (name, run) in experiments {
        eprint!("running {name}… ");
        let started = std::time::Instant::now();
        let table = run(scale);
        let path = dir.join(format!("{name}.tsv"));
        fs::write(&path, &table).expect("write result");
        eprintln!(
            "done in {:.1}s → {}",
            started.elapsed().as_secs_f64(),
            path.display()
        );
    }
}
