//! Declarative fungus specifications.
//!
//! Experiments, config files, and the engine catalog describe fungi as data
//! ([`FungusSpec`]), then [build](FungusSpec::build) them with the
//! experiment's deterministic RNG. This keeps experiment configs
//! serialisable and the decay behaviour reproducible.

use serde::{Deserialize, Serialize};

use fungus_clock::DeterministicRng;
use fungus_types::{FungusError, Result, TickDelta};

use crate::egi::{EgiConfig, EgiFungus, SeedBias};
use crate::exponential::ExponentialFungus;
use crate::fungus::{Fungus, RowFungus};
use crate::importance::ImportanceFungus;
use crate::lease::LeaseFungus;
use crate::retention::{LinearFungus, RetentionFungus};
use crate::stochastic::StochasticFungus;
use crate::window::SlidingWindowFungus;

/// A serialisable description of a fungus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FungusSpec {
    /// No decay.
    Null,
    /// Hard TTL of `max_age` ticks.
    Retention {
        /// Maximum tuple age before rot.
        max_age: u64,
    },
    /// Uniform linear decay over `lifetime` ticks.
    Linear {
        /// Ticks until an untouched tuple rots.
        lifetime: u64,
    },
    /// Geometric decay with constant `lambda`.
    Exponential {
        /// Decay constant per tick.
        lambda: f64,
        /// Freshness below which a tuple rots outright.
        rot_threshold: f64,
    },
    /// Keep only the newest `capacity` tuples.
    SlidingWindow {
        /// Window size in tuples.
        capacity: usize,
    },
    /// Random per-tick eviction.
    Stochastic {
        /// Per-tick eviction probability.
        eviction_prob: f64,
        /// Optional age scale (see
        /// [`StochasticFungus::age_weighted`]).
        age_scale: Option<f64>,
    },
    /// Sliding TTL renewed by reads.
    Lease {
        /// Ticks of life granted from the last access.
        lease: u64,
    },
    /// Access-aware decay.
    Importance {
        /// Base decay per tick.
        base_rate: f64,
        /// Ticks over which a read shields a tuple.
        recency_shield: f64,
    },
    /// The paper's EGI fungus.
    Egi(EgiConfig),
}

impl FungusSpec {
    /// A convenience EGI spec with default parameters.
    pub fn egi_default() -> FungusSpec {
        FungusSpec::Egi(EgiConfig::default())
    }

    /// Validates the parameters without building.
    pub fn validate(&self) -> Result<()> {
        match self {
            FungusSpec::Exponential {
                lambda,
                rot_threshold,
            } => {
                if !lambda.is_finite() || *lambda <= 0.0 {
                    return Err(FungusError::InvalidConfig(format!(
                        "exponential lambda must be positive, got {lambda}"
                    )));
                }
                if !rot_threshold.is_finite() || !(0.0..1.0).contains(rot_threshold) {
                    return Err(FungusError::InvalidConfig(format!(
                        "rot_threshold must be in [0,1), got {rot_threshold}"
                    )));
                }
            }
            FungusSpec::Stochastic { eviction_prob, .. }
                if (!eviction_prob.is_finite() || !(0.0..=1.0).contains(eviction_prob)) =>
            {
                return Err(FungusError::InvalidConfig(format!(
                    "eviction_prob must be in [0,1], got {eviction_prob}"
                )));
            }
            FungusSpec::Importance { base_rate, .. }
                if (!base_rate.is_finite() || !(0.0..=1.0).contains(base_rate)) =>
            {
                return Err(FungusError::InvalidConfig(format!(
                    "base_rate must be in [0,1], got {base_rate}"
                )));
            }
            FungusSpec::Egi(cfg) => {
                if !cfg.rot_rate.is_finite() || cfg.rot_rate < 0.0 {
                    return Err(FungusError::InvalidConfig(format!(
                        "egi rot_rate must be non-negative, got {}",
                        cfg.rot_rate
                    )));
                }
                if let SeedBias::AgePow(beta) = cfg.seed_bias {
                    if !beta.is_finite() || beta < 0.0 {
                        return Err(FungusError::InvalidConfig(format!(
                            "egi age bias exponent must be non-negative, got {beta}"
                        )));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Builds the fungus, wiring deterministic randomness from `rng`.
    pub fn build(&self, rng: &DeterministicRng) -> Result<Fungus> {
        self.validate()?;
        Ok(match *self {
            FungusSpec::Null => Fungus::Null,
            FungusSpec::Retention { max_age } => Fungus::Row(RowFungus::Retention(
                RetentionFungus::new(TickDelta(max_age)),
            )),
            FungusSpec::Linear { lifetime } => {
                Fungus::Row(RowFungus::Linear(LinearFungus::new(TickDelta(lifetime))))
            }
            FungusSpec::Exponential {
                lambda,
                rot_threshold,
            } => Fungus::Row(RowFungus::Exponential(ExponentialFungus::with_threshold(
                lambda,
                rot_threshold,
            ))),
            FungusSpec::Lease { lease } => {
                Fungus::Row(RowFungus::Lease(LeaseFungus::new(TickDelta(lease))))
            }
            FungusSpec::Importance {
                base_rate,
                recency_shield,
            } => Fungus::Row(RowFungus::Importance(ImportanceFungus::with_shield(
                base_rate,
                recency_shield,
            ))),
            FungusSpec::SlidingWindow { capacity } => {
                Fungus::SlidingWindow(SlidingWindowFungus::new(capacity))
            }
            FungusSpec::Stochastic {
                eviction_prob,
                age_scale,
            } => Fungus::Stochastic(match age_scale {
                Some(scale) => StochasticFungus::age_weighted(eviction_prob, scale, rng),
                None => StochasticFungus::new(eviction_prob, rng),
            }),
            FungusSpec::Egi(cfg) => Fungus::Egi(EgiFungus::new(cfg, rng)),
        })
    }

    /// A short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            FungusSpec::Null => "none".into(),
            FungusSpec::Retention { max_age } => format!("ttl-{max_age}"),
            FungusSpec::Linear { lifetime } => format!("linear-{lifetime}"),
            FungusSpec::Exponential { lambda, .. } => format!("exp-{lambda}"),
            FungusSpec::SlidingWindow { capacity } => format!("window-{capacity}"),
            FungusSpec::Stochastic { eviction_prob, .. } => format!("rand-{eviction_prob}"),
            FungusSpec::Lease { lease } => format!("lease-{lease}"),
            FungusSpec::Importance { base_rate, .. } => format!("importance-{base_rate}"),
            FungusSpec::Egi(cfg) => {
                format!("egi-s{}-w{}", cfg.seeds_per_tick, cfg.spread_width)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::table_with;
    use fungus_types::Tick;

    #[test]
    fn every_variant_builds() {
        let rng = DeterministicRng::new(1);
        let specs = vec![
            FungusSpec::Null,
            FungusSpec::Retention { max_age: 10 },
            FungusSpec::Linear { lifetime: 10 },
            FungusSpec::Exponential {
                lambda: 0.1,
                rot_threshold: 0.01,
            },
            FungusSpec::SlidingWindow { capacity: 5 },
            FungusSpec::Stochastic {
                eviction_prob: 0.1,
                age_scale: None,
            },
            FungusSpec::Stochastic {
                eviction_prob: 0.1,
                age_scale: Some(50.0),
            },
            FungusSpec::Importance {
                base_rate: 0.2,
                recency_shield: 10.0,
            },
            FungusSpec::Lease { lease: 10 },
            FungusSpec::egi_default(),
        ];
        for spec in specs {
            let mut fungus = spec.build(&rng).unwrap();
            let mut table = table_with(10);
            fungus.tick(&mut table, Tick(10));
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let bad = [
            FungusSpec::Exponential {
                lambda: -1.0,
                rot_threshold: 0.01,
            },
            FungusSpec::Exponential {
                lambda: 0.1,
                rot_threshold: 2.0,
            },
            FungusSpec::Stochastic {
                eviction_prob: 1.5,
                age_scale: None,
            },
            FungusSpec::Importance {
                base_rate: f64::NAN,
                recency_shield: 1.0,
            },
            FungusSpec::Egi(EgiConfig {
                rot_rate: -0.5,
                ..Default::default()
            }),
            FungusSpec::Egi(EgiConfig {
                seed_bias: SeedBias::AgePow(-1.0),
                ..Default::default()
            }),
        ];
        for spec in bad {
            assert!(spec.validate().is_err(), "{spec:?} must be invalid");
            assert!(spec.build(&DeterministicRng::new(0)).is_err());
        }
    }

    #[test]
    fn labels_are_distinct_and_stable() {
        assert_eq!(FungusSpec::Null.label(), "none");
        assert_eq!(FungusSpec::Retention { max_age: 30 }.label(), "ttl-30");
        assert_eq!(FungusSpec::egi_default().label(), "egi-s1-w1");
        assert_eq!(FungusSpec::Linear { lifetime: 5 }.label(), "linear-5");
    }
}
