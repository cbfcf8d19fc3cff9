//! Declarative summary specifications and the type-erased wrapper.
//!
//! Distillation pipelines in `fungus-core` are configured as data: a
//! [`SummarySpec`] names the cooking scheme and its parameters, and
//! [`AnySummary`] gives every scheme a uniform `observe(&Value)` surface
//! while keeping scheme-specific queries available by matching.

use serde::{Deserialize, Serialize};

use fungus_types::{Result, Value};

use crate::cms::CountMinSketch;
use crate::equidepth::EquiDepthHistogram;
use crate::fading::FadingSketch;
use crate::histogram::EquiWidthHistogram;
use crate::hll::HyperLogLog;
use crate::moments::StreamingMoments;
use crate::tbs::BiasedReservoir;

/// A serialisable description of a summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SummarySpec {
    /// Running count/sum/mean/variance/min/max of a numeric column.
    Moments,
    /// Equi-width histogram over `[lo, hi)`.
    Histogram {
        /// Domain lower bound.
        lo: f64,
        /// Domain upper bound.
        hi: f64,
        /// Number of bins.
        bins: usize,
    },
    /// Equi-depth histogram built from a deterministic sample.
    EquiDepth {
        /// Number of equal-mass buckets.
        buckets: usize,
        /// Reservoir sample size the boundaries derive from.
        sample: usize,
    },
    /// Count-Min frequency sketch with (ε, δ) bounds.
    CountMin {
        /// Additive error fraction.
        epsilon: f64,
        /// Failure probability.
        delta: f64,
    },
    /// HyperLogLog distinct counter.
    Distinct {
        /// Register precision (4–16).
        precision: u8,
    },
    /// Time-fading top-k: the Count-Min/SpaceSaving hybrid of
    /// [`FadingSketch`], answering "what is hot *now*" with per-counter
    /// exponential decay at `lambda` per tick. At `lambda = 0` it is
    /// plain top-k counting.
    FadingTopK {
        /// Heavy hitters to report (the sketch tracks `2k` counters).
        k: usize,
        /// Decay rate per tick.
        lambda: f64,
    },
    /// Temporally-biased reservoir ([`BiasedReservoir`]): sample
    /// inclusion probability proportional to `e^(−λ·age)`. At
    /// `lambda = 0` it is a uniform reservoir sample.
    BiasedReservoir {
        /// Sample size.
        k: usize,
        /// Decay rate per tick.
        lambda: f64,
    },
}

impl SummarySpec {
    /// Builds the summary with a deterministic seed.
    pub fn build(&self, seed: u64) -> Result<AnySummary> {
        Ok(match self {
            SummarySpec::Moments => AnySummary::Moments(StreamingMoments::new()),
            SummarySpec::Histogram { lo, hi, bins } => {
                AnySummary::Histogram(EquiWidthHistogram::new(*lo, *hi, *bins)?)
            }
            SummarySpec::EquiDepth { buckets, sample } => {
                AnySummary::EquiDepth(EquiDepthHistogram::new(*buckets, *sample, seed)?)
            }
            SummarySpec::CountMin { epsilon, delta } => {
                AnySummary::CountMin(CountMinSketch::with_error_bounds(*epsilon, *delta, seed)?)
            }
            SummarySpec::Distinct { precision } => {
                AnySummary::Distinct(HyperLogLog::new(*precision, seed)?)
            }
            SummarySpec::FadingTopK { k, lambda } => {
                AnySummary::FadingTopK(FadingSketch::for_topk(*k, *lambda, seed)?)
            }
            SummarySpec::BiasedReservoir { k, lambda } => {
                AnySummary::Biased(BiasedReservoir::new(*k, *lambda, seed)?)
            }
        })
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            SummarySpec::Moments => "moments".into(),
            SummarySpec::Histogram { bins, .. } => format!("hist-{bins}"),
            SummarySpec::EquiDepth { buckets, .. } => format!("eqdepth-{buckets}"),
            SummarySpec::CountMin { epsilon, .. } => format!("cms-{epsilon}"),
            SummarySpec::Distinct { precision } => format!("hll-{precision}"),
            SummarySpec::FadingTopK { k, lambda } => format!("fading-topk-{k}-l{lambda}"),
            SummarySpec::BiasedReservoir { k, lambda } => format!("tbs-{k}-l{lambda}"),
        }
    }
}

/// A type-erased summary.
#[derive(Debug, Clone, PartialEq)]
pub enum AnySummary {
    /// Streaming moments.
    Moments(StreamingMoments),
    /// Equi-width histogram.
    Histogram(EquiWidthHistogram),
    /// Equi-depth histogram.
    EquiDepth(EquiDepthHistogram),
    /// Count-Min sketch.
    CountMin(CountMinSketch),
    /// HyperLogLog.
    Distinct(HyperLogLog),
    /// Time-fading top-k hybrid.
    FadingTopK(FadingSketch),
    /// Temporally-biased reservoir.
    Biased(BiasedReservoir),
}

impl AnySummary {
    /// Folds one value with no timestamp — equivalent to
    /// [`observe_at`](Self::observe_at) at tick 0, which the static
    /// kinds ignore entirely.
    pub fn observe(&mut self, value: &Value) {
        self.observe_at(value, 0);
    }

    /// Folds one value observed at virtual tick `now`. Numeric summaries
    /// ignore non-numeric values; NULLs are ignored everywhere (SQL
    /// aggregate convention). Only the time-fading kinds read `now`;
    /// for them decay is applied lazily, so any interleaving of clock
    /// advancement and observation with the same (value, tick) pairs
    /// produces bit-identical state.
    pub fn observe_at(&mut self, value: &Value, now: u64) {
        if value.is_null() {
            return;
        }
        match self {
            AnySummary::Moments(m) => {
                if let Some(x) = value.as_f64() {
                    m.observe(x);
                }
            }
            AnySummary::Histogram(h) => {
                if let Some(x) = value.as_f64() {
                    h.observe(x);
                }
            }
            AnySummary::EquiDepth(h) => {
                if let Some(x) = value.as_f64() {
                    h.observe(x);
                }
            }
            AnySummary::CountMin(c) => c.observe(value),
            AnySummary::Distinct(h) => h.observe(value),
            AnySummary::FadingTopK(f) => f.observe_at(value, now),
            AnySummary::Biased(b) => b.observe_at(value.clone(), now),
        }
    }

    /// Observations absorbed (approximate for mergeable sketches: the
    /// number of non-null values offered).
    pub fn observed(&self) -> u64 {
        match self {
            AnySummary::Moments(m) => m.count(),
            AnySummary::Histogram(h) => h.count(),
            AnySummary::EquiDepth(h) => h.count(),
            AnySummary::CountMin(c) => c.total(),
            // HLL does not track a raw count; report its estimate.
            AnySummary::Distinct(h) => h.estimate() as u64,
            AnySummary::FadingTopK(f) => f.total(),
            AnySummary::Biased(b) => b.seen(),
        }
    }

    /// The spec label this summary was built from.
    pub fn kind(&self) -> &'static str {
        match self {
            AnySummary::Moments(_) => "moments",
            AnySummary::Histogram(_) => "histogram",
            AnySummary::EquiDepth(_) => "equi-depth",
            AnySummary::CountMin(_) => "count-min",
            AnySummary::Distinct(_) => "distinct",
            AnySummary::FadingTopK(_) => "fading-topk",
            AnySummary::Biased(_) => "biased-reservoir",
        }
    }

    /// Merges a summary built from the same spec and seed. Every kind
    /// merges; each delegate documents its own determinism and accuracy
    /// contract.
    pub fn merge(&mut self, other: &AnySummary) -> Result<()> {
        use fungus_types::FungusError;
        match (self, other) {
            (AnySummary::Moments(a), AnySummary::Moments(b)) => {
                a.merge(b);
                Ok(())
            }
            (AnySummary::Histogram(a), AnySummary::Histogram(b)) => a.merge(b),
            (AnySummary::EquiDepth(a), AnySummary::EquiDepth(b)) => a.merge(b),
            (AnySummary::CountMin(a), AnySummary::CountMin(b)) => a.merge(b),
            (AnySummary::Distinct(a), AnySummary::Distinct(b)) => a.merge(b),
            (AnySummary::FadingTopK(a), AnySummary::FadingTopK(b)) => a.merge(b),
            (AnySummary::Biased(a), AnySummary::Biased(b)) => a.merge(b),
            _ => Err(FungusError::SummaryError(
                "cannot merge summaries of different kinds".into(),
            )),
        }
    }

    /// Renders the summary's current answers as a small relational
    /// result — `(columns, rows)` — for the `.sketch` dot command and
    /// the `SUMMARIZE` query surface. `now` is the query tick; only the
    /// time-fading kinds read it.
    pub fn report(&self, now: u64) -> (Vec<String>, Vec<Vec<Value>>) {
        fn stat(name: &str, v: Value) -> Vec<Value> {
            vec![Value::from(name), v]
        }
        match self {
            AnySummary::Moments(m) => (
                vec!["stat".into(), "value".into()],
                vec![
                    stat("count", Value::Int(m.count() as i64)),
                    stat("sum", Value::Float(m.sum())),
                    stat("mean", m.mean().map_or(Value::Null, Value::Float)),
                    stat("variance", m.variance().map_or(Value::Null, Value::Float)),
                    stat("min", m.min().map_or(Value::Null, Value::Float)),
                    stat("max", m.max().map_or(Value::Null, Value::Float)),
                ],
            ),
            AnySummary::Histogram(h) => (
                vec!["bin_lo".into(), "bin_hi".into(), "count".into()],
                h.bins()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let (lo, hi) = h.bin_edges(i);
                        vec![Value::Float(lo), Value::Float(hi), Value::Int(*c as i64)]
                    })
                    .collect(),
            ),
            AnySummary::EquiDepth(h) => (
                vec!["bucket".into(), "lo".into(), "hi".into()],
                h.boundaries()
                    .map(|bounds| {
                        bounds
                            .windows(2)
                            .enumerate()
                            .map(|(i, w)| {
                                vec![Value::Int(i as i64), Value::Float(w[0]), Value::Float(w[1])]
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            ),
            AnySummary::CountMin(c) => (
                vec!["stat".into(), "value".into()],
                vec![
                    stat("width", Value::Int(c.width() as i64)),
                    stat("depth", Value::Int(c.depth() as i64)),
                    stat("total", Value::Int(c.total() as i64)),
                ],
            ),
            AnySummary::Distinct(h) => (
                vec!["stat".into(), "value".into()],
                vec![
                    stat("estimate", Value::Float(h.estimate())),
                    stat("registers", Value::Int(h.registers() as i64)),
                ],
            ),
            AnySummary::FadingTopK(f) => (
                vec!["rank".into(), "key".into(), "weight".into(), "error".into()],
                f.top_at(f.capacity(), now)
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        vec![
                            Value::Int(i as i64 + 1),
                            h.key,
                            Value::Float(h.weight),
                            Value::Float(h.error),
                        ]
                    })
                    .collect(),
            ),
            AnySummary::Biased(b) => (
                vec!["idx".into(), "value".into(), "age".into()],
                b.sample()
                    .into_iter()
                    .enumerate()
                    .map(|(i, (v, stamp))| {
                        vec![
                            Value::Int(i as i64),
                            v.clone(),
                            Value::Int(now.saturating_sub(stamp) as i64),
                        ]
                    })
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_and_observes() {
        let specs = [
            SummarySpec::Moments,
            SummarySpec::Histogram {
                lo: 0.0,
                hi: 100.0,
                bins: 10,
            },
            SummarySpec::EquiDepth {
                buckets: 4,
                sample: 64,
            },
            SummarySpec::CountMin {
                epsilon: 0.01,
                delta: 0.01,
            },
            SummarySpec::Distinct { precision: 10 },
            SummarySpec::FadingTopK { k: 4, lambda: 0.1 },
            SummarySpec::BiasedReservoir { k: 8, lambda: 0.1 },
        ];
        for spec in specs {
            let mut s = spec.build(42).unwrap();
            for i in 0..100i64 {
                s.observe_at(&Value::Int(i % 10), i as u64);
            }
            s.observe(&Value::Null); // ignored everywhere
            assert!(s.observed() > 0, "{} observed nothing", s.kind());
            let (columns, _rows) = s.report(100);
            assert!(!columns.is_empty(), "{} reports no columns", s.kind());
        }
    }

    #[test]
    fn bad_specs_fail_to_build() {
        assert!(SummarySpec::Histogram {
            lo: 5.0,
            hi: 1.0,
            bins: 4
        }
        .build(0)
        .is_err());
        assert!(SummarySpec::CountMin {
            epsilon: 2.0,
            delta: 0.1
        }
        .build(0)
        .is_err());
        assert!(SummarySpec::Distinct { precision: 99 }.build(0).is_err());
        assert!(SummarySpec::EquiDepth {
            buckets: 0,
            sample: 10
        }
        .build(0)
        .is_err());
    }

    #[test]
    fn non_numeric_values_skip_numeric_summaries() {
        let mut m = SummarySpec::Moments.build(0).unwrap();
        m.observe(&Value::from("not a number"));
        assert_eq!(m.observed(), 0);
        let mut h = SummarySpec::Histogram {
            lo: 0.0,
            hi: 1.0,
            bins: 2,
        }
        .build(0)
        .unwrap();
        h.observe(&Value::from("nope"));
        assert_eq!(h.observed(), 0);
    }

    #[test]
    fn merge_same_kind_works_cross_kind_fails() {
        let spec = SummarySpec::Distinct { precision: 10 };
        let mut a = spec.build(1).unwrap();
        let mut b = spec.build(1).unwrap();
        for i in 0..100i64 {
            a.observe(&Value::Int(i));
            b.observe(&Value::Int(i + 100));
        }
        a.merge(&b).unwrap();
        if let AnySummary::Distinct(h) = &a {
            let est = h.estimate();
            assert!((170.0..230.0).contains(&est), "union ≈ 200, got {est}");
        } else {
            panic!("wrong kind");
        }
        let other = SummarySpec::Moments.build(0).unwrap();
        assert!(a.merge(&other).is_err());
        // Reservoirs merge too (same spec, same seed).
        let sample = SummarySpec::BiasedReservoir { k: 4, lambda: 0.0 };
        let mut r1 = sample.build(0).unwrap();
        let mut r2 = sample.build(0).unwrap();
        for i in 0..10i64 {
            r2.observe(&Value::Int(i));
        }
        r1.merge(&r2).unwrap();
        assert_eq!(r1.observed(), 10);
        // But not across kinds.
        let t = SummarySpec::FadingTopK { k: 4, lambda: 0.0 }
            .build(0)
            .unwrap();
        assert!(r1.merge(&t).is_err());
    }

    #[test]
    fn fading_kinds_use_the_query_tick() {
        let mut f = SummarySpec::FadingTopK { k: 2, lambda: 0.5 }
            .build(7)
            .unwrap();
        // "old" is heavy at tick 0; "new" light at tick 30.
        for _ in 0..40 {
            f.observe_at(&Value::from("old"), 0);
        }
        for _ in 0..3 {
            f.observe_at(&Value::from("new"), 30);
        }
        let (columns, rows) = f.report(30);
        assert_eq!(columns, vec!["rank", "key", "weight", "error"]);
        assert_eq!(rows[0][1], Value::from("new"), "decay reorders the top");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SummarySpec::Moments.label(), "moments");
        assert_eq!(
            SummarySpec::FadingTopK { k: 5, lambda: 0.1 }.label(),
            "fading-topk-5-l0.1"
        );
        assert_eq!(
            SummarySpec::BiasedReservoir { k: 8, lambda: 0.5 }.label(),
            "tbs-8-l0.5"
        );
        assert_eq!(
            SummarySpec::Histogram {
                lo: 0.0,
                hi: 1.0,
                bins: 20
            }
            .label(),
            "hist-20"
        );
    }
}
