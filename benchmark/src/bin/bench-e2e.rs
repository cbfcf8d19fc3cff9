//! The end-to-end run: `--trace 0`.
//!
//! One workload per process (with no `--workload`, one child process per
//! workload in turn). Sets up three times and reports the median as
//! `setup_s`, discards a warm-up, runs the measured script, checks every
//! answer, and prints the end-to-end metrics.

use std::process::ExitCode;
use std::time::Instant;

use fungus_benchmark::args::{Args, USAGE};
use fungus_benchmark::report::{end_to_end, print_table, result_line, Pools};
use fungus_benchmark::run::{check_phase, run_each_workload, set_up, Bench};
use fungus_benchmark::script::{Kind, Workload};
use fungus_benchmark::{procfs, stats};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("--trace 1 is the bench-layers binary; run.sh picks it");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => match run_one(workload, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                ExitCode::FAILURE
            }
        },
        None => run_each_workload(&args),
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let scale = args.scale();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench: Option<Bench> = None;
    for _ in 0..SETUPS {
        // The previous instance goes first (its server with it), so the
        // peak RSS is one instance's and the port and threads are free.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(set_up(workload, args.seed, scale)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUPS is at least one");

    let warmup = ((workload.warmup_rounds() as f64 * scale).round() as u64).max(1);
    check_phase(&bench.run_phase(warmup))?;
    let rounds = workload.measured_rounds(args.seconds, scale);
    let phase = bench.run_phase(rounds);
    let peak_rss_kb = procfs::peak_rss_kb();
    let verdict = check_phase(&phase).and(bench.finish().map(drop));

    let pools = Pools::of(&phase);
    let metrics = end_to_end(stats::median_f64(&setup_s), peak_rss_kb, &phase, &pools);
    print_table(
        &format!("{} seed {} (end to end)", workload.name(), args.seed),
        &metrics,
    );
    println!(
        "  measured {:.2} s: {} rounds/lane, {} inserts, {} selects, {} ticks; \
         live rows {} -> {} ({:+.1} %); set-ups {:?} s",
        phase.wall_ns as f64 / 1e9,
        rounds,
        pools.inserts.len(),
        pools.queries.len(),
        pools.ticks.len(),
        phase.live_start,
        phase.live_end,
        100.0 * (phase.live_end as f64 - phase.live_start as f64) / phase.live_start.max(1) as f64,
        setup_s,
    );
    let per_kind: Vec<String> = Kind::ALL
        .into_iter()
        .filter_map(|kind| {
            let sorted = phase.pooled_sorted(|k| k == kind);
            (!sorted.is_empty()).then(|| {
                let p50 = stats::percentile(&sorted, 50.0) as f64 / 1e3;
                format!("{} {:.0} us x{}", kind.name(), p50, sorted.len())
            })
        })
        .collect();
    println!("  p50 by shape: {}", per_kind.join(", "));
    // The gated tail is p95 everywhere; the highest tail this many samples
    // support (ten beyond it) is printed beside it, ungated.
    let tails: Vec<String> = [
        ("insert", &pools.inserts),
        ("query", &pools.queries),
        ("tick", &pools.ticks),
    ]
    .into_iter()
    .filter_map(|(name, sorted)| {
        let p = stats::reported_tail(sorted.len())?;
        let value = stats::percentile(sorted, p) as f64 / 1e3;
        Some(format!("{name} p{p} {value:.0} us (n = {})", sorted.len()))
    })
    .collect();
    println!("  highest supported tails: {}", tails.join(", "));
    let lane_s: Vec<f64> = phase
        .lanes
        .iter()
        .map(|l| l.round_marks.last().map_or(0.0, |m| m.0 as f64 / 1e9))
        .collect();
    println!("  lanes finished after {lane_s:?} s");
    if let Err(e) = &verdict {
        println!("  WRONG ANSWER: {e}");
    }
    println!(
        "{}",
        result_line(verdict.is_ok(), phase.attempted(), phase.failed(), &metrics)
    );
    verdict
}
