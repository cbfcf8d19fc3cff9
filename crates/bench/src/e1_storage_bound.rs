//! **E1 — Storage bound** (figure).
//!
//! Claim: the first natural law bounds the extent. A no-decay store grows
//! without bound under a steady ingest stream; every fungus reaches a
//! steady state whose size is set by its rate.
//!
//! Workload: sensor stream at a fixed rate; one container per baseline
//! policy (no-decay / ttl / egi / exponential), all on the same horizon.
//! Output: live-tuple series per system.

use fungus_core::Database;
use fungus_types::Tick;
use fungus_workload::{baseline_policies, SensorStream, Workload};

use crate::harness::{fnum, Scale, TableBuilder};

/// Runs E1 and renders the series table.
pub fn run(scale: Scale) -> String {
    let ticks = scale.pick(600u64, 30);
    let rate = scale.pick(100usize, 10);
    let horizon = scale.pick(200u64, 10);
    let sample_every = scale.pick(20u64, 5);

    let specs = baseline_policies(horizon);
    let mut dbs: Vec<(String, Database, SensorStream)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut db = Database::new(1000 + i as u64);
        let workload = SensorStream::new(50, rate, db.rng());
        db.create_container("r", workload.schema().clone(), spec.policy.clone())
            .expect("baseline policy is valid");
        dbs.push((spec.name.to_string(), db, workload));
    }

    let mut columns: Vec<String> = vec!["tick".into()];
    for spec in &specs {
        columns.push(format!("{}_live", spec.name));
        columns.push(format!("{}_kb", spec.name));
    }
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(
        format!("E1 storage bound: {rate} rows/tick for {ticks} ticks, horizon {horizon}"),
        &col_refs,
    );

    for t in 1..=ticks {
        for (_, db, workload) in dbs.iter_mut() {
            let rows = workload.rows_at(Tick(t));
            db.insert_batch("r", rows).expect("schema-conformant rows");
            db.tick();
        }
        if t % sample_every == 0 || t == ticks {
            let mut cells = vec![t.to_string()];
            for (_, db, _) in &dbs {
                let c = db.container("r").expect("exists");
                let guard = c.read();
                cells.push(guard.live_count().to_string());
                cells.push(fnum(guard.extent().approx_bytes() as f64 / 1024.0));
            }
            table.row(cells);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_decay_grows_fungi_bound() {
        let out = run(Scale::Quick);
        let last = out.lines().last().unwrap();
        let cells: Vec<&str> = last.split('\t').collect();
        // Columns: tick, nodecay_live, nodecay_kb, ttl_live, ttl_kb, …
        let nodecay: usize = cells[1].parse().unwrap();
        let ttl: usize = cells[3].parse().unwrap();
        let egi: usize = cells[5].parse().unwrap();
        let exp: usize = cells[7].parse().unwrap();
        assert_eq!(nodecay, 30 * 10, "no-decay keeps every row");
        assert!(ttl < nodecay, "ttl bounds the extent: {ttl} vs {nodecay}");
        assert!(exp < nodecay, "exponential bounds the extent: {exp}");
        // EGI is gentler but must have evicted something or at least not
        // exceed no-decay.
        assert!(egi <= nodecay);
    }
}
