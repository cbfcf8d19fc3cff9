//! Metric lists and the result line both binaries print.

use crate::run::Phase;
use crate::script::Class;
use crate::stats::percentile;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
/// Every one but `ops_per_s` is lower-is-better.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("insert_p50_us", "us"),
    ("insert_p95_us", "us"),
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
];

/// A phase's latencies pooled into the three end-to-end classes, each
/// ascending, nanoseconds.
pub struct Pools {
    /// Every `Kind::Insert`.
    pub inserts: Vec<u64>,
    /// Every `SELECT`, consuming or not.
    pub queries: Vec<u64>,
    /// Every tick.
    pub ticks: Vec<u64>,
}

impl Pools {
    /// Pools and sorts `phase`'s latencies.
    pub fn of(phase: &Phase) -> Pools {
        Pools {
            inserts: phase.pooled_sorted(|k| k.class() == Class::Insert),
            queries: phase.pooled_sorted(|k| k.class() == Class::Query),
            ticks: phase.pooled_sorted(|k| k.class() == Class::Tick),
        }
    }
}

/// Computes the end-to-end metrics of a measured phase.
pub fn end_to_end(setup_s: f64, peak_rss_kb: u64, phase: &Phase, pools: &Pools) -> Vec<Metric> {
    let Pools {
        inserts,
        queries,
        ticks,
    } = pools;
    let values = [
        setup_s,
        peak_rss_kb as f64 / 1024.0,
        phase.ops_per_s(),
        phase.cpu_us as f64 / phase.statements() as f64,
        percentile(inserts, 50.0) as f64 / 1e3,
        percentile(inserts, 95.0) as f64 / 1e3,
        percentile(queries, 50.0) as f64 / 1e3,
        percentile(queries, 95.0) as f64 / 1e3,
        percentile(ticks, 50.0) as f64 / 1e6,
        percentile(ticks, 95.0) as f64 / 1e6,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

/// The one-line JSON result the driver reads from the last line of
/// standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints `metrics` as an aligned `name value unit` table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>14.4} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 0.8127, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_non_finite_value_never_reaches_the_json() {
        let line = result_line(false, 1, 1, &[Metric::new("x", f64::NAN, "us")]);
        assert!(line.contains("\"value\": 0,"), "{line}");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_end_to_end_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // checked out without the repo root
        };
        let section =
            &text[text.find("\"end_to_end\"").unwrap()..text.find("\"per_layer\"").unwrap()];
        for (name, unit) in END_TO_END {
            assert!(
                section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
    }
}
