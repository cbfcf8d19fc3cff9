//! Per-connection session state and request dispatch.
//!
//! A [`Session`] is what one TCP connection talks to: it owns a clone of
//! the [`SharedDatabase`] handle, a session id, a statement counter, and
//! a per-session RNG seed (derived deterministically from the database
//! master seed and the session id, so a server run with a fixed seed and
//! a fixed connection order is reproducible). Sessions never hold a
//! database lock between requests — every statement acquires and releases
//! its lock inside [`Session::handle`], which is what lets hundreds of
//! sessions share one catalog without starving the decay driver.

use std::sync::Arc;

use fungus_core::{HealthReport, SharedDatabase};
use fungus_types::Value;

use crate::protocol::{ErrorCode, HealthSummary, Request, Response, StatsSummary};
use crate::stats::ServerStats;

/// One client's server-side state.
pub struct Session {
    id: u64,
    db: SharedDatabase,
    statements: u64,
    rng_seed: u64,
    stats: Option<Arc<ServerStats>>,
}

impl Session {
    /// Opens session `id` over the shared catalog.
    pub fn new(id: u64, db: SharedDatabase) -> Self {
        // splitmix64 of the id: decorrelates consecutive session seeds.
        let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Session {
            id,
            db,
            statements: 0,
            rng_seed: z ^ (z >> 31),
            stats: None,
        }
    }

    /// Attaches the server's shared counters, which lets `.health` and
    /// `.stats` report fault/panic/respawn telemetry. Sessions built
    /// without stats (unit tests, embedded use) answer those commands
    /// with the per-container data only.
    #[must_use]
    pub fn with_stats(mut self, stats: Arc<ServerStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Statements handled so far.
    pub fn statements(&self) -> u64 {
        self.statements
    }

    /// The session's deterministic RNG seed (handed to clients that want
    /// reproducible client-side sampling tied to the session).
    pub fn rng_seed(&self) -> u64 {
        self.rng_seed
    }

    /// Dispatches one request. Never panics; failures come back as
    /// [`Response::Error`] and leave the session usable.
    pub fn handle(&mut self, request: Request) -> Response {
        self.statements += 1;
        match request {
            Request::Ping => Response::Pong,
            Request::Sql { text } => self.run_sql(&text),
            Request::Dot { line } => self.run_dot(&line),
        }
    }

    fn run_sql(&mut self, text: &str) -> Response {
        // CREATE CONTAINER needs the catalog write lock; everything else
        // runs concurrently under the read lock.
        let is_ddl = text
            .trim_start()
            .get(..6)
            .is_some_and(|head| head.eq_ignore_ascii_case("create"));
        let outcome = if is_ddl {
            self.db.execute_ddl(text)
        } else {
            self.db.execute(text)
        };
        match outcome {
            Ok(out) => Response::from_outcome(out),
            Err(err) => Response::from_error(&err),
        }
    }

    fn run_dot(&mut self, line: &str) -> Response {
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let arg = parts.next();
        match verb {
            ".ping" => Response::Pong,
            ".tick" => {
                let n: u64 = match arg.map(str::parse).transpose() {
                    Ok(n) => n.unwrap_or(1),
                    Err(_) => {
                        return Response::Error {
                            code: ErrorCode::Parse,
                            message: ".tick takes an optional positive count".into(),
                        }
                    }
                };
                let now = self.db.run_for(n);
                Response::Ack {
                    message: format!("clock at tick {}", now.get()),
                }
            }
            ".health" => {
                let reports: Vec<HealthSummary> = match arg {
                    Some(name) => match self.db.health(name) {
                        Ok(report) => vec![summarise(name, &report)],
                        Err(err) => return Response::from_error(&err),
                    },
                    None => self
                        .db
                        .health_all()
                        .into_iter()
                        .map(|(name, report)| summarise(&name, &report))
                        .collect(),
                };
                Response::Health {
                    reports,
                    server: self.stats_summary().map(Box::new),
                }
            }
            ".stats" => match self.stats_summary() {
                Some(s) => Response::Rows {
                    columns: vec!["counter".into(), "value".into()],
                    rows: s
                        .rows()
                        .into_iter()
                        .map(|(name, v)| vec![Value::Str(name.into()), Value::Int(v as i64)])
                        .collect(),
                    distilled: 0,
                    consumed: 0,
                },
                None => Response::Error {
                    code: ErrorCode::Execution,
                    message: "no server stats attached to this session".into(),
                },
            },
            ".containers" => {
                let names = self.db.container_names();
                Response::Rows {
                    columns: vec!["container".into(), "live".into()],
                    rows: names
                        .iter()
                        .map(|n| {
                            vec![
                                Value::Str(n.clone()),
                                Value::Int(self.db.live_count(n) as i64),
                            ]
                        })
                        .collect(),
                    distilled: 0,
                    consumed: 0,
                }
            }
            // `.sketch <container> <summary>` is the dot-command spelling
            // of `SUMMARIZE <summary> FROM <container>` — the operational
            // read path into a container's cooking pipelines.
            ".sketch" => {
                let (container, summary) = match (arg, parts.next()) {
                    (Some(c), Some(s)) => (c, s),
                    _ => {
                        return Response::Error {
                            code: ErrorCode::Parse,
                            message: ".sketch takes a container and a summary name".into(),
                        }
                    }
                };
                match self
                    .db
                    .execute(&format!("SUMMARIZE {summary} FROM {container}"))
                {
                    Ok(out) => Response::from_outcome(out),
                    Err(err) => Response::from_error(&err),
                }
            }
            // The seed travels as hex text: the wire codec stores numbers
            // as f64, which only round-trips integers up to 2^53.
            ".session" => Response::Rows {
                columns: vec!["session".into(), "statements".into(), "rng_seed".into()],
                rows: vec![vec![
                    Value::Int(self.id as i64),
                    Value::Int(self.statements as i64),
                    Value::Str(format!("{:#018x}", self.rng_seed)),
                ]],
                distilled: 0,
                consumed: 0,
            },
            other => Response::Error {
                code: ErrorCode::Parse,
                message: format!(
                    "unknown command `{other}` \
                     (try .ping .tick .health .containers .session .stats .sketch)"
                ),
            },
        }
    }

    /// The server counters in wire form, when this session has them.
    fn stats_summary(&self) -> Option<StatsSummary> {
        self.stats.as_ref().map(|s| s.snapshot())
    }
}

fn summarise(name: &str, report: &HealthReport) -> HealthSummary {
    HealthSummary {
        container: name.to_string(),
        at: report.at.get(),
        score: report.score,
        status: format!("{:?}", report.status),
        live: report.stats.live_count as u64,
        mean_freshness: report.mean_freshness,
        waste_ratio: report.waste_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_core::{ContainerPolicy, Database};
    use fungus_fungi::FungusSpec;
    use fungus_types::{DataType, Schema};

    fn session() -> Session {
        let mut db = Database::new(11);
        db.create_container(
            "r",
            Schema::from_pairs(&[("v", DataType::Int)]).unwrap(),
            ContainerPolicy::new(FungusSpec::Retention { max_age: 30 }),
        )
        .unwrap();
        Session::new(1, SharedDatabase::new(db))
    }

    #[test]
    fn sql_requests_run_and_count() {
        let mut s = session();
        let r = s.handle(Request::Sql {
            text: "INSERT INTO r VALUES (1), (2), (3)".into(),
        });
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle(Request::Sql {
            text: "SELECT * FROM r WHERE v >= 2".into(),
        });
        assert_eq!(r.row_count(), Some(2));
        assert_eq!(s.statements(), 2);
    }

    #[test]
    fn ddl_routes_through_the_write_lock() {
        let mut s = session();
        let r = s.handle(Request::Sql {
            text: "CREATE CONTAINER s2 (x INT) WITH FUNGUS ttl(5)".into(),
        });
        assert!(!r.is_error(), "{r:?}");
        let r = s.handle(Request::Dot {
            line: ".containers".into(),
        });
        assert_eq!(r.row_count(), Some(2));
    }

    #[test]
    fn errors_keep_the_session_alive() {
        let mut s = session();
        let r = s.handle(Request::Sql {
            text: "SELECT FROM FROM".into(),
        });
        assert!(r.is_error());
        let r = s.handle(Request::Sql {
            text: "SELECT COUNT(*) FROM r".into(),
        });
        assert!(!r.is_error());
        let r = s.handle(Request::Sql {
            text: "SELECT * FROM no_such_table".into(),
        });
        assert!(matches!(
            r,
            Response::Error {
                code: ErrorCode::Unknown,
                ..
            }
        ));
    }

    #[test]
    fn dot_commands_cover_the_operational_verbs() {
        let mut s = session();
        assert_eq!(s.handle(Request::Ping), Response::Pong);
        let r = s.handle(Request::Dot {
            line: ".tick 5".into(),
        });
        assert!(matches!(r, Response::Ack { .. }), "{r:?}");
        let r = s.handle(Request::Dot {
            line: ".health".into(),
        });
        assert!(matches!(r, Response::Health { .. }), "{r:?}");
        let r = s.handle(Request::Dot {
            line: ".session".into(),
        });
        assert_eq!(r.row_count(), Some(1));
        let r = s.handle(Request::Dot {
            line: ".nonsense".into(),
        });
        assert!(r.is_error());
    }

    #[test]
    fn stats_command_needs_attached_counters() {
        let mut bare = session();
        let r = bare.handle(Request::Dot {
            line: ".stats".into(),
        });
        assert!(r.is_error(), "{r:?}");

        let stats = Arc::new(crate::stats::ServerStats::default());
        let mut s = session().with_stats(Arc::clone(&stats));
        let r = s.handle(Request::Dot {
            line: ".stats".into(),
        });
        assert_eq!(r.row_count(), Some(30), "{r:?}");
        // `.health` carries the same summary inline.
        let r = s.handle(Request::Dot {
            line: ".health".into(),
        });
        match r {
            Response::Health { server, .. } => assert!(server.is_some()),
            other => panic!("{other:?}"),
        }
        // Without stats, `.health` still works, just without the summary.
        let r = bare.handle(Request::Dot {
            line: ".health".into(),
        });
        match r {
            Response::Health { server, .. } => assert!(server.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sketch_command_reads_cooking_pipelines() {
        let mut s = session();
        let r = s.handle(Request::Sql {
            text: "CREATE CONTAINER clicks (item INT) WITH FUNGUS ttl(2) \
                   WITH DISTILL (hot = fading_topk(4, 0.1) ON item)"
                .into(),
        });
        assert!(!r.is_error(), "{r:?}");
        s.handle(Request::Sql {
            text: "INSERT INTO clicks VALUES (7), (7), (3)".into(),
        });
        s.handle(Request::Dot {
            line: ".tick 3".into(),
        });
        let r = s.handle(Request::Dot {
            line: ".sketch clicks hot".into(),
        });
        match &r {
            Response::Rows { columns, rows, .. } => {
                assert_eq!(columns[1], "key");
                assert_eq!(rows[0][1], Value::Int(7), "{r:?}");
            }
            other => panic!("{other:?}"),
        }
        // Arity and name errors stay in-session.
        assert!(s
            .handle(Request::Dot {
                line: ".sketch clicks".into()
            })
            .is_error());
        assert!(s
            .handle(Request::Dot {
                line: ".sketch clicks nope".into()
            })
            .is_error());
    }

    #[test]
    fn session_seeds_are_deterministic_and_distinct() {
        let db = SharedDatabase::new(Database::new(1));
        let a = Session::new(1, db.clone());
        let a2 = Session::new(1, db.clone());
        let b = Session::new(2, db);
        assert_eq!(a.rng_seed(), a2.rng_seed());
        assert_ne!(a.rng_seed(), b.rng_seed());
    }
}
