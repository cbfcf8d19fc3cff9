//! Distillation: cooking departing tuples into summaries.
//!
//! The paper: "once you take something out of R, you should distill it into
//! useful knowledge, summary, consumed by the user, or stored in a new
//! container subject to different data fungi" — and the store stays healthy
//! "if you regularly can turn rotting portions into summaries for later
//! consumption, or inspect them once before removal."
//!
//! A [`Distiller`] is a set of named summaries attached to a container.
//! Every tuple that leaves the extent — consumed by a query or evicted as
//! rotten — is offered to each pipeline whose trigger matches, *before* the
//! tuple is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fungus_summary::{AnySummary, SummarySpec};
use fungus_types::{FungusError, Result, Schema, Tick, Tuple, Value};

/// Which departures feed a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistillTrigger {
    /// Only query-consumed tuples.
    Consumed,
    /// Only rot-evicted tuples.
    Rotted,
    /// Every departing tuple.
    Both,
}

impl DistillTrigger {
    /// Does this trigger accept a departure of the given kind?
    pub fn accepts(self, rotted: bool) -> bool {
        match self {
            DistillTrigger::Consumed => !rotted,
            DistillTrigger::Rotted => rotted,
            DistillTrigger::Both => true,
        }
    }
}

/// Configuration of one distillation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistillSpec {
    /// Pipeline name (unique within a container).
    pub name: String,
    /// Source column; `None` observes the tuple's *freshness at departure*
    /// instead of an attribute — a cheap audit trail of how rotten data was
    /// when it left.
    pub column: Option<String>,
    /// The cooking scheme.
    pub summary: SummarySpec,
    /// Which departures to fold.
    pub trigger: DistillTrigger,
}

impl DistillSpec {
    /// Validates the summary parameters.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(FungusError::InvalidConfig(
                "distiller name must not be empty".into(),
            ));
        }
        // Building is cheap; it also validates.
        self.summary.build(0).map(|_| ())
    }
}

/// One live pipeline: spec + resolved column index + running summary.
///
/// Hit counters live behind a shared atomic so a `SUMMARIZE` served from
/// an MVCC snapshot's distiller clone still lands on the live container's
/// gauge — bumping a hit counter must never require the container write
/// lock.
#[derive(Debug, Clone)]
struct Pipeline {
    spec: DistillSpec,
    column_idx: Option<usize>,
    summary: AnySummary,
    absorbed: u64,
    hits: Arc<AtomicU64>,
}

/// The set of distillation pipelines attached to one container.
///
/// Every sealed MVCC version carries a clone, and most publishes (inserts,
/// touches, decay that evicts nothing) absorb nothing, so the pipelines sit
/// behind one `Arc`: a clone is a reference count, and the sketches are
/// copied only by the first absorb after a version was sealed.
#[derive(Debug, Clone)]
pub struct Distiller {
    pipelines: Arc<Vec<Pipeline>>,
}

impl Distiller {
    /// Builds pipelines against the container schema; unknown columns are
    /// rejected at creation time rather than silently at runtime.
    pub fn new(specs: &[DistillSpec], schema: &Schema, seed: u64) -> Result<Self> {
        let mut pipelines = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(FungusError::InvalidConfig(format!(
                    "duplicate distiller name `{}`",
                    spec.name
                )));
            }
            let column_idx = match &spec.column {
                Some(name) => Some(
                    schema
                        .index_of(name)
                        .ok_or_else(|| FungusError::UnknownColumn(name.clone()))?,
                ),
                None => None,
            };
            let summary = spec
                .summary
                .build(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))?;
            pipelines.push(Pipeline {
                spec: spec.clone(),
                column_idx,
                summary,
                absorbed: 0,
                hits: Arc::new(AtomicU64::new(0)),
            });
        }
        Ok(Distiller {
            pipelines: Arc::new(pipelines),
        })
    }

    /// Offers one departing tuple to every matching pipeline, stamped at
    /// the virtual time of the departure. Time-fading pipelines fold the
    /// observation with `now`'s decay weight; timeless summaries ignore it.
    pub fn absorb_at(&mut self, tuple: &Tuple, rotted: bool, now: Tick) {
        // A departure no pipeline folds (rot under a consume-only
        // distiller) must not un-share the sketches.
        if !self.accepts(rotted) {
            return;
        }
        for p in Arc::make_mut(&mut self.pipelines).iter_mut() {
            if !p.spec.trigger.accepts(rotted) {
                continue;
            }
            let value = match p.column_idx {
                Some(idx) => tuple.values[idx].clone(),
                None => Value::Float(tuple.meta.freshness.get()),
            };
            p.summary.observe_at(&value, now.get());
            p.absorbed += 1;
        }
    }

    /// Offers one departing tuple at tick 0 (timeless summaries only —
    /// prefer [`absorb_at`](Self::absorb_at) where a clock is in scope).
    pub fn absorb(&mut self, tuple: &Tuple, rotted: bool) {
        self.absorb_at(tuple, rotted, Tick(0));
    }

    /// Offers a batch, stamped at the departure tick.
    pub fn absorb_all_at(&mut self, tuples: &[Tuple], rotted: bool, now: Tick) {
        for t in tuples {
            self.absorb_at(t, rotted, now);
        }
    }

    /// Offers a batch at tick 0.
    pub fn absorb_all(&mut self, tuples: &[Tuple], rotted: bool) {
        self.absorb_all_at(tuples, rotted, Tick(0));
    }

    /// The summary of the named pipeline.
    pub fn summary(&self, name: &str) -> Option<&AnySummary> {
        self.pipelines
            .iter()
            .find(|p| p.spec.name == name)
            .map(|p| &p.summary)
    }

    /// Tuples absorbed by the named pipeline.
    pub fn absorbed(&self, name: &str) -> Option<u64> {
        self.pipelines
            .iter()
            .find(|p| p.spec.name == name)
            .map(|p| p.absorbed)
    }

    /// Records one read of the named pipeline and hands back its summary;
    /// `None` when no such pipeline exists. Shared-reference on purpose: a
    /// clone held by an MVCC snapshot bumps the same counter as the live
    /// distiller, so `SUMMARIZE` never needs the container write lock.
    pub fn note_hit(&self, name: &str) -> Option<&AnySummary> {
        let p = self.pipelines.iter().find(|p| p.spec.name == name)?;
        p.hits.fetch_add(1, Ordering::Relaxed);
        Some(&p.summary)
    }

    /// Reads served by the named pipeline.
    pub fn hits(&self, name: &str) -> Option<u64> {
        self.pipelines
            .iter()
            .find(|p| p.spec.name == name)
            .map(|p| p.hits.load(Ordering::Relaxed))
    }

    /// Total reads served across pipelines.
    pub fn total_hits(&self) -> u64 {
        self.pipelines
            .iter()
            .map(|p| p.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Names of all pipelines, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.pipelines
            .iter()
            .map(|p| p.spec.name.as_str())
            .collect()
    }

    /// Total tuples absorbed across pipelines (a tuple absorbed by two
    /// pipelines counts twice).
    pub fn total_absorbed(&self) -> u64 {
        self.pipelines.iter().map(|p| p.absorbed).sum()
    }

    /// True when at least one pipeline folds rot-evicted departures.
    pub fn accepts_rotted(&self) -> bool {
        self.accepts(true)
    }

    fn accepts(&self, rotted: bool) -> bool {
        self.pipelines
            .iter()
            .any(|p| p.spec.trigger.accepts(rotted))
    }

    /// Number of pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True when no pipelines are attached.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_types::{DataType, Tick, TupleId};

    fn schema() -> Schema {
        Schema::from_pairs(&[("v", DataType::Int), ("tag", DataType::Str)]).unwrap()
    }

    fn tuple(v: i64, freshness: f64) -> Tuple {
        let mut t = Tuple::new(
            TupleId(v as u64),
            Tick(0),
            vec![Value::Int(v), Value::from(format!("t{v}"))],
        );
        t.meta.freshness = fungus_types::Freshness::new(freshness);
        t
    }

    fn specs() -> Vec<DistillSpec> {
        vec![
            DistillSpec {
                name: "v-stats".into(),
                column: Some("v".into()),
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Both,
            },
            DistillSpec {
                name: "consumed-tags".into(),
                column: Some("tag".into()),
                summary: SummarySpec::Distinct { precision: 10 },
                trigger: DistillTrigger::Consumed,
            },
            DistillSpec {
                name: "rot-freshness".into(),
                column: None,
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Rotted,
            },
        ]
    }

    #[test]
    fn triggers_route_departures() {
        let mut d = Distiller::new(&specs(), &schema(), 1).unwrap();
        d.absorb(&tuple(10, 0.0), true); // rotted
        d.absorb(&tuple(20, 0.9), false); // consumed
        assert_eq!(d.absorbed("v-stats"), Some(2), "Both sees everything");
        assert_eq!(d.absorbed("consumed-tags"), Some(1));
        assert_eq!(d.absorbed("rot-freshness"), Some(1));
        assert_eq!(d.total_absorbed(), 4);
        // The freshness audit pipeline saw the departure freshness 0.0.
        match d.summary("rot-freshness").unwrap() {
            AnySummary::Moments(m) => assert_eq!(m.mean(), Some(0.0)),
            other => panic!("wrong summary kind {other:?}"),
        }
    }

    #[test]
    fn column_values_flow_into_summaries() {
        let mut d = Distiller::new(&specs(), &schema(), 1).unwrap();
        let batch: Vec<Tuple> = (1..=5).map(|v| tuple(v, 1.0)).collect();
        d.absorb_all(&batch, false);
        match d.summary("v-stats").unwrap() {
            AnySummary::Moments(m) => {
                assert_eq!(m.count(), 5);
                assert_eq!(m.mean(), Some(3.0));
            }
            other => panic!("wrong summary kind {other:?}"),
        }
    }

    #[test]
    fn unknown_column_and_duplicates_are_rejected() {
        let bad = vec![DistillSpec {
            name: "x".into(),
            column: Some("zzz".into()),
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Both,
        }];
        assert!(matches!(
            Distiller::new(&bad, &schema(), 0),
            Err(FungusError::UnknownColumn(_))
        ));
        let dup = vec![
            DistillSpec {
                name: "same".into(),
                column: None,
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Both,
            },
            DistillSpec {
                name: "same".into(),
                column: None,
                summary: SummarySpec::Moments,
                trigger: DistillTrigger::Both,
            },
        ];
        assert!(Distiller::new(&dup, &schema(), 0).is_err());
    }

    #[test]
    fn spec_validation() {
        let s = DistillSpec {
            name: String::new(),
            column: None,
            summary: SummarySpec::Moments,
            trigger: DistillTrigger::Both,
        };
        assert!(s.validate().is_err());
        let s = DistillSpec {
            name: "h".into(),
            column: None,
            summary: SummarySpec::Histogram {
                lo: 1.0,
                hi: 0.0,
                bins: 3,
            },
            trigger: DistillTrigger::Both,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn fading_pipelines_fold_departure_time() {
        let specs = vec![DistillSpec {
            name: "hot".into(),
            column: Some("v".into()),
            summary: SummarySpec::FadingTopK { k: 4, lambda: 0.5 },
            trigger: DistillTrigger::Both,
        }];
        let mut d = Distiller::new(&specs, &schema(), 9).unwrap();
        // Key 1 departs early, key 2 late: with λ = 0.5 per tick, the
        // later departure must dominate the decayed ranking even though
        // both keys left exactly once.
        d.absorb_at(&tuple(1, 0.0), true, Tick(0));
        d.absorb_at(&tuple(2, 0.0), true, Tick(10));
        match d.summary("hot").unwrap() {
            AnySummary::FadingTopK(s) => {
                let top = s.top_at(1, 10);
                assert_eq!(top[0].key, Value::Int(2));
                assert!(s.estimate_at(&Value::Int(1), 10) < 0.1);
            }
            other => panic!("wrong summary kind {other:?}"),
        }
    }

    #[test]
    fn hits_count_summary_reads() {
        let d = Distiller::new(&specs(), &schema(), 1).unwrap();
        assert_eq!(d.total_hits(), 0);
        assert!(d.note_hit("v-stats").is_some());
        assert!(d.note_hit("v-stats").is_some());
        assert!(d.note_hit("rot-freshness").is_some());
        assert!(d.note_hit("nope").is_none());
        assert_eq!(d.hits("v-stats"), Some(2));
        assert_eq!(d.hits("consumed-tags"), Some(0));
        assert_eq!(d.hits("nope"), None);
        assert_eq!(d.total_hits(), 3);
    }

    #[test]
    fn empty_distiller() {
        let d = Distiller::new(&[], &schema(), 0).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.total_absorbed(), 0);
        assert!(d.summary("nope").is_none());
        assert!(d.absorbed("nope").is_none());
    }
}
