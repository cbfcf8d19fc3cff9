//! The health monitor.
//!
//! The paper: "The database is kept in optimal health condition if you
//! regularly can turn rotting portions into summaries for later
//! consumption, or inspect them once before removal."
//!
//! [`HealthMonitor`] turns that sentence into a score. A container is
//! healthy when (a) what leaves the extent was read or distilled first
//! (low *waste*), (b) the live extent is not dominated by nearly-rotten
//! tuples the owner is ignoring, and (c) rot spots are being harvested
//! rather than growing unchecked.

use serde::{Deserialize, Serialize};

use fungus_storage::{SpotCensus, TableStats};
use fungus_types::Tick;

use crate::container::Container;

/// Qualitative health banding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthStatus {
    /// Score ≥ 0.8: the owner is cooking and consuming on time.
    Healthy,
    /// Score in [0.5, 0.8): rot is outpacing consumption.
    Degraded,
    /// Score < 0.5: the store is a neglected fridge.
    Critical,
}

/// One health observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Observation time.
    pub at: Tick,
    /// Composite score in [0, 1].
    pub score: f64,
    /// Banding of the score.
    pub status: HealthStatus,
    /// Waste component: fraction of evictions that rotted unread.
    pub waste_ratio: f64,
    /// Fraction of the live extent that is nearly rotten (freshness < 0.1).
    pub near_rotten_fraction: f64,
    /// Fraction of the live extent currently infected.
    pub infected_fraction: f64,
    /// Mean live freshness.
    pub mean_freshness: f64,
    /// Raw storage statistics backing the score.
    pub stats: TableStats,
    /// Rot-spot census backing the score.
    pub census: SpotCensus,
    /// Actionable advice derived from the components.
    pub recommendations: Vec<String>,
}

/// Scores containers.
///
/// The composite is a weighted mean of three sub-scores:
///
/// * **consumption** = `1 − waste_ratio` (weight 0.5 — the paper's core
///   demand is that nothing rots unread);
/// * **freshness headroom** = `1 − near_rotten_fraction` (weight 0.3);
/// * **infection pressure** = `1 − infected_fraction` (weight 0.2).
#[derive(Debug, Clone, Copy)]
pub struct HealthMonitor {
    waste_weight: f64,
    rotten_weight: f64,
    infection_weight: f64,
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor {
            waste_weight: 0.5,
            rotten_weight: 0.3,
            infection_weight: 0.2,
        }
    }
}

impl HealthMonitor {
    /// A monitor with the default weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores one container at `now`.
    pub fn inspect(&self, container: &Container, now: Tick) -> HealthReport {
        let stats = container.stats(now);
        let census = container.spot_census();

        // Rot-routed tuples were preserved in another container, and
        // rot-distilled tuples were "turned into summaries for later
        // consumption" — neither counts as wasted even if no query read
        // them here.
        let preserved = container.metrics().rot_routed + container.metrics().rot_distilled;
        let evicted_total = stats.evicted_rotted + stats.evicted_consumed + stats.evicted_deleted;
        let waste_ratio = if evicted_total == 0 {
            0.0
        } else {
            stats.rotted_unread.saturating_sub(preserved) as f64 / evicted_total as f64
        };
        let near_rotten_fraction = stats.freshness_histogram.near_rotten_fraction();
        let infected_fraction = if stats.live_count == 0 {
            0.0
        } else {
            stats.infected_count as f64 / stats.live_count as f64
        };

        let score = self.waste_weight * (1.0 - waste_ratio)
            + self.rotten_weight * (1.0 - near_rotten_fraction)
            + self.infection_weight * (1.0 - infected_fraction);
        let score = score.clamp(0.0, 1.0);

        let status = if score >= 0.8 {
            HealthStatus::Healthy
        } else if score >= 0.5 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Critical
        };

        let mut recommendations = Vec::new();
        if waste_ratio > 0.2 {
            recommendations.push(format!(
                "{:.0}% of departures rotted unread — add a distillation pipeline or \
                 consume with `SELECT … CONSUME` before the fungus wins",
                waste_ratio * 100.0
            ));
        }
        if near_rotten_fraction > 0.3 {
            recommendations.push(format!(
                "{:.0}% of live tuples are nearly rotten — query or distill them now \
                 (`WHERE $freshness < 0.1 CONSUME`)",
                near_rotten_fraction * 100.0
            ));
        }
        if infected_fraction > 0.25 {
            recommendations.push(format!(
                "{} rot spots cover {:.0}% of the extent (largest: {} tuples) — \
                 harvest the spots or cure the infection",
                census.infected_spots,
                infected_fraction * 100.0,
                census.largest_infected_spot
            ));
        }
        if recommendations.is_empty() {
            recommendations.push("store is in good health — keep cooking".into());
        }

        HealthReport {
            at: now,
            score,
            status,
            waste_ratio,
            near_rotten_fraction,
            infected_fraction,
            mean_freshness: stats.mean_freshness,
            stats,
            census,
            recommendations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ContainerPolicy;
    use fungus_clock::DeterministicRng;
    use fungus_fungi::FungusSpec;
    use fungus_storage::DecaySurface;
    use fungus_types::{DataType, Schema, Value};

    fn container(policy: ContainerPolicy) -> Container {
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        Container::new("health-test", schema, policy, &DeterministicRng::new(1)).unwrap()
    }

    #[test]
    fn fresh_store_is_healthy() {
        let mut c = container(ContainerPolicy::immortal());
        for i in 0..10i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        let report = HealthMonitor::new().inspect(&c, Tick(1));
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.score > 0.95);
        assert_eq!(report.recommendations.len(), 1);
        assert!(report.recommendations[0].contains("good health"));
    }

    #[test]
    fn empty_store_is_healthy() {
        let c = container(ContainerPolicy::immortal());
        let report = HealthMonitor::new().inspect(&c, Tick(0));
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.infected_fraction, 0.0);
    }

    #[test]
    fn unread_rot_tanks_the_score() {
        let mut c = container(ContainerPolicy::new(FungusSpec::Linear { lifetime: 1 }));
        for i in 0..20i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        c.decay_tick(Tick(1)); // everything rots unread
        let report = HealthMonitor::new().inspect(&c, Tick(1));
        assert!(report.waste_ratio > 0.99);
        assert!(report.score < 0.6, "score {}", report.score);
        assert!(report
            .recommendations
            .iter()
            .any(|r| r.contains("rotted unread")));
    }

    #[test]
    fn near_rotten_extent_degrades() {
        let mut c = container(ContainerPolicy::immortal());
        for i in 0..10i64 {
            let id = c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
            c.extent_mut().decay(id, 0.95); // freshness 0.05 — nearly rotten
        }
        let report = HealthMonitor::new().inspect(&c, Tick(1));
        assert!(report.near_rotten_fraction > 0.99);
        assert!(report.status != HealthStatus::Healthy);
        assert!(report
            .recommendations
            .iter()
            .any(|r| r.contains("nearly rotten")));
    }

    #[test]
    fn infection_pressure_is_reported() {
        let mut c = container(ContainerPolicy::immortal());
        for i in 0..10i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        for i in 0..6u64 {
            c.extent_mut().infect(fungus_types::TupleId(i), Tick(1));
        }
        let report = HealthMonitor::new().inspect(&c, Tick(1));
        assert!((report.infected_fraction - 0.6).abs() < 1e-9);
        assert!(report
            .recommendations
            .iter()
            .any(|r| r.contains("rot spots")));
    }

    #[test]
    fn routed_rot_is_not_waste() {
        let mut c = container(ContainerPolicy::new(FungusSpec::Linear { lifetime: 1 }));
        for i in 0..10i64 {
            c.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        c.decay_tick(Tick(1)); // everything rots unread…
        c.note_rot_routed(10); // …but a route preserved it all
        let report = HealthMonitor::new().inspect(&c, Tick(1));
        assert_eq!(report.waste_ratio, 0.0);
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn tended_store_beats_neglected_store() {
        // Neglected: EGI rots everything unread.
        let mut neglected = container(ContainerPolicy::new(FungusSpec::Egi(
            fungus_fungi::EgiConfig {
                rot_rate: 0.5,
                seeds_per_tick: 4,
                ..Default::default()
            },
        )));
        // Tended: same fungus, but the owner consumes low-freshness data.
        let mut tended = container(ContainerPolicy::new(FungusSpec::Egi(
            fungus_fungi::EgiConfig {
                rot_rate: 0.5,
                seeds_per_tick: 4,
                ..Default::default()
            },
        )));
        for i in 0..100i64 {
            neglected.insert(vec![Value::Int(i)], Tick(0)).unwrap();
            tended.insert(vec![Value::Int(i)], Tick(0)).unwrap();
        }
        let stmt =
            match fungus_query::parse_statement("SELECT v FROM t WHERE $freshness < 0.6 CONSUME")
                .unwrap()
            {
                fungus_query::Statement::Select(s) => s,
                _ => unreachable!(),
            };
        for t in 1..=10u64 {
            neglected.decay_tick(Tick(t));
            tended.decay_tick(Tick(t));
            let plan = tended.plan(&stmt).unwrap();
            tended.query(&plan, Tick(t)).unwrap();
        }
        let m = HealthMonitor::new();
        let n = m.inspect(&neglected, Tick(10));
        let t = m.inspect(&tended, Tick(10));
        assert!(
            t.score > n.score,
            "tended {} must beat neglected {}",
            t.score,
            n.score
        );
        assert!(t.waste_ratio < n.waste_ratio);
    }
}
