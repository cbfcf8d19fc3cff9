//! Log triage under the second natural law.
//!
//! Bursty service logs land in a container attacked by the EGI fungus.
//! An on-call loop *consumes* errors as it triages them (law 2) and
//! periodically harvests nearly-rotten rows into a latency histogram and a
//! top-k of noisy services, keeping the store healthy while raw logs stay
//! small.
//!
//! ```text
//! cargo run --example log_triage
//! ```

use spacefungus::prelude::*;

fn main() -> Result<()> {
    let mut db = Database::new(1234);
    let mut logs = LogEventStream::new(12, 30, 200, db.rng());

    let policy = ContainerPolicy::new(FungusSpec::Egi(EgiConfig {
        seeds_per_tick: 2,
        spread_width: 1,
        rot_rate: 0.08,
        seed_bias: SeedBias::AgePow(1.0),
    }))
    .with_distiller(DistillSpec {
        name: "latency-hist".into(),
        column: Some("latency_ms".into()),
        summary: SummarySpec::Histogram {
            lo: 0.0,
            hi: 500.0,
            bins: 50,
        },
        trigger: DistillTrigger::Both,
    })
    .with_distiller(DistillSpec {
        name: "noisy-services".into(),
        column: Some("service".into()),
        // λ = 0: a plain top-k that never forgets, what `topk(8)` builds.
        summary: SummarySpec::FadingTopK { k: 8, lambda: 0.0 },
        trigger: DistillTrigger::Both,
    });
    db.create_container("logs", logs.schema().clone(), policy)?;

    let mut errors_triaged = 0usize;
    for t in 1..=400u64 {
        db.tick();
        db.insert_batch("logs", logs.rows_at(Tick(t)))?;

        // Triage: every error is read once and consumed.
        let out = db.execute(
            "SELECT service, latency_ms FROM logs WHERE level = 'ERROR' OR level = 'FATAL' CONSUME",
        )?;
        errors_triaged += out.result.consumed.len();

        // Harvest the rotting tail before the fungus wins.
        if t % 10 == 0 {
            db.execute("SELECT latency_ms FROM logs WHERE $freshness < 0.4 CONSUME")?;
        }
    }

    let container = db.container("logs")?;
    let guard = container.read();
    println!("errors triaged          : {errors_triaged}");
    println!("raw log rows live       : {}", guard.live_count());
    println!("rows ever ingested      : {}", guard.metrics().inserts);
    println!(
        "consumed vs rotted      : {} vs {}",
        guard.metrics().tuples_consumed,
        guard.metrics().tuples_rotted
    );

    if let Some(AnySummary::Histogram(h)) = guard.distiller().summary("latency-hist") {
        println!(
            "latency from summaries  : p50≈{:.1}ms p99≈{:.1}ms (n={})",
            h.quantile(0.5).unwrap_or(0.0),
            h.quantile(0.99).unwrap_or(0.0),
            h.count()
        );
    }
    if let Some(AnySummary::FadingTopK(t)) = guard.distiller().summary("noisy-services") {
        println!("noisiest services       :");
        for hit in t.top_at(3, db.now().get()) {
            println!("  {:<8} ≈{:.0} events", hit.key.to_string(), hit.weight);
        }
    }

    let report = db.health("logs")?;
    println!(
        "\nfinal health            : {:.2} ({:?}), waste ratio {:.2}",
        report.score, report.status, report.waste_ratio
    );

    let census = guard.spot_census();
    println!(
        "rot structure           : {} active spots (largest {}), {} holes eaten",
        census.infected_spots, census.largest_infected_spot, census.rot_holes
    );
    Ok(())
}
