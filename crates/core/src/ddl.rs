//! DDL interpretation: `CREATE CONTAINER … WITH FUNGUS …`.
//!
//! The parser (`fungus-query`) produces a structurally valid
//! [`CreateContainerStatement`] but deliberately knows nothing about
//! fungi; this module resolves the type and fungus names into a
//! [`Schema`] and [`ContainerPolicy`].
//!
//! Fungus grammar (`WITH FUNGUS name(args…)`):
//!
//! | SQL | spec |
//! |---|---|
//! | `none` | [`FungusSpec::Null`] |
//! | `ttl(n)` | retention of `n` ticks |
//! | `linear(n)` | linear lifetime of `n` ticks |
//! | `exp(λ)` / `exp(λ, threshold)` | exponential decay |
//! | `window(n)` | newest-`n` sliding window |
//! | `lease(n)` | sliding TTL renewed by reads |
//! | `stochastic(p)` / `stochastic(p, age_scale)` | random eviction |
//! | `importance(rate)` / `importance(rate, shield)` | access-aware decay |
//! | `egi()` / `egi(seeds, spread, rot_rate)` | the paper's fungus |
//!
//! Sharding grammar (either form, anywhere after the column list):
//!
//! | SQL | effect |
//! |---|---|
//! | `SHARDS n` | fixed time-range shards of `n` rows |
//! | `WITH SHARDING (rows_per_shard = n, adaptive = on\|off, low_water = f)` | full control; only `rows_per_shard` is required |
//!
//! [`resolve_sharding`] is the **single** place a declarative sharding
//! request becomes a [`ShardSpec`], so defaults stay in one place; a
//! statement with neither clause gets [`ShardSpec::default`].

use fungus_fungi::{EgiConfig, FungusSpec};
use fungus_query::{CreateContainerStatement, DistillClause, ShardingClause};
use fungus_shard::ShardSpec;
use fungus_summary::SummarySpec;
use fungus_types::{ColumnDef, DataType, FungusError, Result, Schema, TickDelta};

use crate::distill::{DistillSpec, DistillTrigger};
use crate::policy::ContainerPolicy;

fn resolve_type(name: &str) -> Result<DataType> {
    Ok(match name.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" => DataType::Int,
        "FLOAT" | "DOUBLE" | "REAL" => DataType::Float,
        "STR" | "STRING" | "TEXT" | "VARCHAR" => DataType::Str,
        "BOOL" | "BOOLEAN" => DataType::Bool,
        "BYTES" | "BLOB" => DataType::Bytes,
        other => {
            return Err(FungusError::InvalidConfig(format!(
                "unknown column type `{other}`"
            )))
        }
    })
}

fn arg(args: &[f64], i: usize, what: &str) -> Result<f64> {
    args.get(i).copied().ok_or_else(|| {
        FungusError::InvalidConfig(format!("fungus is missing argument {i} ({what})"))
    })
}

fn resolve_fungus(name: &str, args: &[f64]) -> Result<FungusSpec> {
    let spec = match name.to_ascii_lowercase().as_str() {
        "none" | "null" => FungusSpec::Null,
        "ttl" | "retention" => FungusSpec::Retention {
            max_age: arg(args, 0, "max age in ticks")? as u64,
        },
        "linear" => FungusSpec::Linear {
            lifetime: arg(args, 0, "lifetime in ticks")? as u64,
        },
        "exp" | "exponential" => FungusSpec::Exponential {
            lambda: arg(args, 0, "decay constant")?,
            rot_threshold: args.get(1).copied().unwrap_or(0.01),
        },
        "window" => FungusSpec::SlidingWindow {
            capacity: arg(args, 0, "window size in tuples")? as usize,
        },
        "lease" => FungusSpec::Lease {
            lease: arg(args, 0, "lease in ticks")? as u64,
        },
        "stochastic" | "rand" => FungusSpec::Stochastic {
            eviction_prob: arg(args, 0, "per-tick eviction probability")?,
            age_scale: args.get(1).copied(),
        },
        "importance" => FungusSpec::Importance {
            base_rate: arg(args, 0, "base decay rate")?,
            recency_shield: args.get(1).copied().unwrap_or(10.0),
        },
        "egi" => {
            let mut cfg = EgiConfig::default();
            if let Some(seeds) = args.first() {
                cfg.seeds_per_tick = *seeds as usize;
            }
            if let Some(spread) = args.get(1) {
                cfg.spread_width = *spread as usize;
            }
            if let Some(rot) = args.get(2) {
                cfg.rot_rate = *rot;
            }
            FungusSpec::Egi(cfg)
        }
        other => {
            return Err(FungusError::InvalidConfig(format!(
                "unknown fungus `{other}`"
            )))
        }
    };
    spec.validate()?;
    Ok(spec)
}

/// Resolves a declarative sharding request into a [`ShardSpec`]. Options
/// left unset in the SQL take the spec's defaults (fixed layout, engine
/// low-water mark), so `SHARDS n` is exactly
/// `WITH SHARDING (rows_per_shard = n)`.
pub fn resolve_sharding(clause: &ShardingClause) -> Result<ShardSpec> {
    let mut spec = ShardSpec::new(clause.rows_per_shard);
    if clause.adaptive == Some(true) {
        spec = spec.with_adaptive();
    }
    if let Some(low_water) = clause.low_water {
        spec = spec.with_low_water(low_water);
    }
    spec.validate()?;
    Ok(spec)
}

/// Resolves one `WITH DISTILL` pipeline into a [`DistillSpec`].
///
/// Cooking-scheme grammar (`name = scheme(args…) [ON column]`):
///
/// | SQL | summary |
/// |---|---|
/// | `moments` | streaming count/sum/mean/variance/min/max |
/// | `histogram(lo, hi, bins)` | equi-width histogram |
/// | `equidepth(buckets, sample)` | equi-depth histogram |
/// | `reservoir(k)` / `sample(k)` | uniform sample: `tbs(k, 0)` |
/// | `cms(epsilon, delta)` | Count-Min frequency sketch |
/// | `distinct(precision)` / `hll(precision)` | HyperLogLog |
/// | `topk(k)` | heavy hitters: `fading_topk(k, 0)` |
/// | `fading_topk(k, lambda)` | time-fading top-k (λ decay per tick) |
/// | `tbs(k, lambda)` / `biased(k, lambda)` | temporally-biased sample |
///
/// The static sample and top-k are the λ = 0 cases of the fading kinds,
/// so they resolve to those kinds with `lambda: 0.0`.
///
/// Omitting `ON column` cooks the tuple's freshness-at-departure instead
/// of an attribute. DDL pipelines fold *every* departure (trigger
/// [`DistillTrigger::Both`]): consumed and rotted tuples alike.
pub fn resolve_distill(clause: &DistillClause) -> Result<DistillSpec> {
    let args = &clause.args;
    let summary = match clause.func.to_ascii_lowercase().as_str() {
        "moments" | "stats" => SummarySpec::Moments,
        "histogram" => SummarySpec::Histogram {
            lo: arg(args, 0, "domain lower bound")?,
            hi: arg(args, 1, "domain upper bound")?,
            bins: arg(args, 2, "bin count")? as usize,
        },
        "equidepth" => SummarySpec::EquiDepth {
            buckets: arg(args, 0, "bucket count")? as usize,
            sample: arg(args, 1, "sample size")? as usize,
        },
        "reservoir" | "sample" => SummarySpec::BiasedReservoir {
            k: arg(args, 0, "sample size")? as usize,
            lambda: 0.0,
        },
        "cms" | "countmin" => SummarySpec::CountMin {
            epsilon: arg(args, 0, "additive error fraction")?,
            delta: arg(args, 1, "failure probability")?,
        },
        "distinct" | "hll" => SummarySpec::Distinct {
            precision: arg(args, 0, "register precision (4-16)")? as u8,
        },
        "topk" => SummarySpec::FadingTopK {
            k: arg(args, 0, "heavy hitters to report")? as usize,
            lambda: 0.0,
        },
        "fading_topk" => SummarySpec::FadingTopK {
            k: arg(args, 0, "heavy hitters to report")? as usize,
            lambda: arg(args, 1, "decay rate per tick")?,
        },
        "tbs" | "biased" => SummarySpec::BiasedReservoir {
            k: arg(args, 0, "sample size")? as usize,
            lambda: arg(args, 1, "decay rate per tick")?,
        },
        other => {
            return Err(FungusError::InvalidConfig(format!(
                "unknown cooking scheme `{other}`"
            )))
        }
    };
    let spec = DistillSpec {
        name: clause.name.clone(),
        column: clause.column.clone(),
        summary,
        trigger: DistillTrigger::Both,
    };
    spec.validate()?;
    Ok(spec)
}

/// Resolves a parsed `CREATE CONTAINER` into `(name, schema, policy)`.
pub fn resolve_create_container(
    stmt: &CreateContainerStatement,
) -> Result<(String, Schema, ContainerPolicy)> {
    let mut cols = Vec::with_capacity(stmt.columns.len());
    for (name, ty, nullable) in &stmt.columns {
        cols.push(ColumnDef {
            name: name.clone(),
            data_type: resolve_type(ty)?,
            nullable: *nullable,
        });
    }
    let schema = Schema::new(cols)?;
    let fungus = match &stmt.fungus {
        Some((name, args)) => resolve_fungus(name, args)?,
        None => FungusSpec::Null,
    };
    let mut policy = ContainerPolicy::new(fungus);
    if let Some(every) = stmt.decay_every {
        policy = policy.with_decay_period(TickDelta(every));
    }
    if let Some(clause) = &stmt.sharding {
        policy = policy.with_sharding(resolve_sharding(clause)?);
    }
    for clause in &stmt.distill {
        policy = policy.with_distiller(resolve_distill(clause)?);
    }
    Ok((stmt.name.clone(), schema, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_query::{parse_statement, Statement};

    fn resolve(sql: &str) -> Result<(String, Schema, ContainerPolicy)> {
        match parse_statement(sql).unwrap() {
            Statement::CreateContainer(stmt) => resolve_create_container(&stmt),
            other => panic!("expected CREATE CONTAINER, got {other:?}"),
        }
    }

    #[test]
    fn full_ddl_resolves() {
        let (name, schema, policy) = resolve(
            "CREATE CONTAINER readings (sensor INT NOT NULL, v FLOAT, tag TEXT) \
             WITH FUNGUS ttl(30) DECAY EVERY 5",
        )
        .unwrap();
        assert_eq!(name, "readings");
        assert_eq!(schema.arity(), 3);
        assert!(!schema.columns()[0].nullable);
        assert!(schema.columns()[1].nullable);
        assert_eq!(policy.fungus, FungusSpec::Retention { max_age: 30 });
        assert_eq!(policy.decay_period, TickDelta(5));
    }

    #[test]
    fn every_fungus_name_resolves() {
        for (sql, expect) in [
            ("WITH FUNGUS none", FungusSpec::Null),
            ("WITH FUNGUS ttl(9)", FungusSpec::Retention { max_age: 9 }),
            ("WITH FUNGUS linear(4)", FungusSpec::Linear { lifetime: 4 }),
            (
                "WITH FUNGUS exp(0.5)",
                FungusSpec::Exponential {
                    lambda: 0.5,
                    rot_threshold: 0.01,
                },
            ),
            (
                "WITH FUNGUS exp(0.5, 0.1)",
                FungusSpec::Exponential {
                    lambda: 0.5,
                    rot_threshold: 0.1,
                },
            ),
            (
                "WITH FUNGUS window(7)",
                FungusSpec::SlidingWindow { capacity: 7 },
            ),
            ("WITH FUNGUS lease(6)", FungusSpec::Lease { lease: 6 }),
            (
                "WITH FUNGUS stochastic(0.2)",
                FungusSpec::Stochastic {
                    eviction_prob: 0.2,
                    age_scale: None,
                },
            ),
            (
                "WITH FUNGUS importance(0.1, 20)",
                FungusSpec::Importance {
                    base_rate: 0.1,
                    recency_shield: 20.0,
                },
            ),
        ] {
            let (_, _, policy) = resolve(&format!("CREATE CONTAINER t (a INT) {sql}")).unwrap();
            assert_eq!(policy.fungus, expect, "{sql}");
        }
        // EGI with positional args.
        let (_, _, policy) =
            resolve("CREATE CONTAINER t (a INT) WITH FUNGUS egi(4, 2, 0.25)").unwrap();
        match policy.fungus {
            FungusSpec::Egi(cfg) => {
                assert_eq!(cfg.seeds_per_tick, 4);
                assert_eq!(cfg.spread_width, 2);
                assert_eq!(cfg.rot_rate, 0.25);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shards_shorthand_resolves_to_a_fixed_spec() {
        let (_, _, policy) = resolve("CREATE CONTAINER t (a INT) SHARDS 512").unwrap();
        let spec = policy.sharding;
        assert_eq!(spec, ShardSpec::new(512));
        assert!(!spec.adaptive);
    }

    #[test]
    fn with_sharding_resolves_every_option() {
        let (_, _, policy) = resolve(
            "CREATE CONTAINER t (a INT) WITH FUNGUS ttl(30) \
             WITH SHARDING (rows_per_shard = 256, adaptive = on, \
                            low_water = 0.4) \
             DECAY EVERY 3",
        )
        .unwrap();
        assert_eq!(policy.fungus, FungusSpec::Retention { max_age: 30 });
        assert_eq!(policy.decay_period, TickDelta(3));
        assert_eq!(
            policy.sharding,
            ShardSpec::new(256).with_adaptive().with_low_water(0.4)
        );
        // Clause order is free: sharding may precede the fungus.
        let (_, _, swapped) = resolve(
            "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 256, \
             adaptive = on, low_water = 0.4) WITH FUNGUS ttl(30) \
             DECAY EVERY 3",
        )
        .unwrap();
        assert_eq!(swapped.sharding, policy.sharding);
        assert_eq!(swapped.fungus, policy.fungus);
    }

    #[test]
    fn workers_is_an_unknown_sharding_option() {
        let err = parse_statement(
            "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 256, \
             adaptive = on, workers = 2)",
        )
        .unwrap_err();
        match err {
            FungusError::ParseError { message, .. } => {
                assert!(
                    message.starts_with("unknown sharding option `workers`"),
                    "{message}"
                );
                assert!(
                    message.ends_with("(expected rows_per_shard, adaptive, or low_water)"),
                    "{message}"
                );
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_off_is_the_fixed_layout() {
        let (_, _, policy) = resolve(
            "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 64, adaptive = off)",
        )
        .unwrap();
        assert_eq!(policy.sharding, ShardSpec::new(64));
    }

    #[test]
    fn bad_sharding_ddl_is_rejected() {
        // Parse-level rejections.
        for sql in [
            "CREATE CONTAINER t (a INT) SHARDS 0",
            "CREATE CONTAINER t (a INT) SHARDS banana",
            "CREATE CONTAINER t (a INT) WITH SHARDING (adaptive = on)",
            "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 8, adaptive = maybe)",
            "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 8, bananas = 2)",
            "CREATE CONTAINER t (a INT) SHARDS 8 SHARDS 9",
            "CREATE CONTAINER t (a INT) SHARDS 8 WITH SHARDING (rows_per_shard = 9)",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
        // Resolve-level rejections (parses, but the spec is invalid).
        assert!(
            resolve(
                "CREATE CONTAINER t (a INT) WITH SHARDING (rows_per_shard = 8, low_water = 1.5)"
            )
            .is_err(),
            "low_water must stay below 1"
        );
    }

    #[test]
    fn distill_clause_resolves_every_scheme() {
        let (_, _, policy) = resolve(
            "CREATE CONTAINER t (a INT, b FLOAT) WITH FUNGUS ttl(40) \
             WITH DISTILL (hot = fading_topk(8, 0.05) ON a, \
                           fresh = tbs(32, 0.05) ON a, \
                           heavy = topk(8) ON a, \
                           shape = histogram(0, 100, 10) ON b, \
                           depth = equidepth(4, 64) ON b, \
                           uniq = hll(10) ON a, \
                           freq = cms(0.01, 0.01) ON a, \
                           pick = sample(16) ON b, \
                           exit_health = moments, \
                           keep = reservoir(8) ON a)",
        )
        .unwrap();
        assert_eq!(policy.distill.len(), 10);
        assert_eq!(
            policy.distill[0].summary,
            SummarySpec::FadingTopK { k: 8, lambda: 0.05 }
        );
        assert_eq!(
            policy.distill[1].summary,
            SummarySpec::BiasedReservoir {
                k: 32,
                lambda: 0.05
            }
        );
        assert_eq!(
            policy.distill[2].summary,
            SummarySpec::FadingTopK { k: 8, lambda: 0.0 }
        );
        assert_eq!(
            policy.distill[4].summary,
            SummarySpec::EquiDepth {
                buckets: 4,
                sample: 64
            }
        );
        assert_eq!(
            policy.distill[7].summary,
            SummarySpec::BiasedReservoir { k: 16, lambda: 0.0 }
        );
        assert_eq!(policy.distill[8].summary, SummarySpec::Moments);
        assert_eq!(policy.distill[8].column, None);
        assert_eq!(
            policy.distill[9].summary,
            SummarySpec::BiasedReservoir { k: 8, lambda: 0.0 }
        );
        assert!(policy
            .distill
            .iter()
            .all(|d| d.trigger == DistillTrigger::Both));
    }

    #[test]
    fn bad_distill_ddl_is_rejected() {
        // Unknown scheme.
        assert!(resolve("CREATE CONTAINER t (a INT) WITH DISTILL (x = frobnicate(1))").is_err());
        // Missing required argument.
        assert!(resolve("CREATE CONTAINER t (a INT) WITH DISTILL (x = fading_topk(8))").is_err());
        // Parameters that fail summary validation.
        assert!(
            resolve("CREATE CONTAINER t (a INT) WITH DISTILL (x = histogram(9, 1, 4) ON a)")
                .is_err()
        );
        assert!(
            resolve("CREATE CONTAINER t (a INT) WITH DISTILL (x = equidepth(8, 2) ON a)").is_err(),
            "equi-depth sample smaller than its bucket count"
        );
        // Negative parameters never reach resolution: numeric DDL
        // arguments are unsigned at the grammar level.
        assert!(parse_statement(
            "CREATE CONTAINER t (a INT) WITH DISTILL (x = fading_topk(8, -0.5) ON a)"
        )
        .is_err());
    }

    #[test]
    fn bad_ddl_is_rejected() {
        assert!(resolve("CREATE CONTAINER t (a WIDGET)").is_err());
        assert!(resolve("CREATE CONTAINER t (a INT) WITH FUNGUS blight(1)").is_err());
        assert!(resolve("CREATE CONTAINER t (a INT) WITH FUNGUS ttl").is_err());
        assert!(resolve("CREATE CONTAINER t (a INT) WITH FUNGUS stochastic(7.0)").is_err());
        assert!(
            resolve("CREATE CONTAINER t (a INT, a INT)").is_err(),
            "dup column"
        );
    }

    #[test]
    fn table_is_an_alias_for_container() {
        let (name, ..) = resolve("CREATE TABLE t (a INT)").unwrap();
        assert_eq!(name, "t");
    }
}
