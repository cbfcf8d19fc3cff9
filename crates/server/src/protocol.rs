//! The request/response message set carried inside frames.
//!
//! Payloads are the engine's own JSON dialect (`fungus_types::json`)
//! produced through the serde traits, so the wire format shares one codec
//! with checkpoints and snapshots. Messages are externally tagged enums —
//! `{"Sql": {...}}` — which keeps the protocol self-describing and lets
//! either side add variants without renumbering anything.
//!
//! The split mirrors the interactive shell: **SQL** statements run
//! through the engine's parser (DDL included, so a session can create
//! containers), **dot commands** cover the operational verbs that are not
//! SQL (`.tick`, `.health`, `.containers`, `.session`), and **ping** is a
//! liveness no-op used by health checks and connection pools.

use serde::{Deserialize, Serialize};

use fungus_core::QueryOutcome;
use fungus_types::{json, FungusError, Result, Value};

use crate::frame::FrameError;
/// Server-level counters in wire form: the counter snapshot itself.
pub use crate::stats::MetricsSnapshot as StatsSummary;

/// One client→server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// A SQL-ish statement (query, DML, or DDL).
    Sql {
        /// The statement text.
        text: String,
    },
    /// An operational dot command, e.g. `.health readings`.
    Dot {
        /// The command line, leading dot included.
        line: String,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
}

/// One server→client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A query's answer set.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Output rows.
        rows: Vec<Vec<Value>>,
        /// Values folded into distillation summaries by this statement.
        distilled: u64,
        /// Tuples removed by consume semantics.
        consumed: u64,
    },
    /// A statement that succeeded without an answer set to report.
    Ack {
        /// Human-readable confirmation.
        message: String,
    },
    /// One container's health, rendered flat for transport.
    Health {
        /// Per-container reports.
        reports: Vec<HealthSummary>,
        /// Server-level counters (fault injections, worker panics and
        /// respawns, decay-driver ticks), when the answering session has
        /// them attached. `None` from embedded/unit-test sessions. Boxed
        /// so this rare arm does not size every response.
        server: Option<Box<StatsSummary>>,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// The statement failed; the session stays usable.
    Error {
        /// Machine-matchable error class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// A flattened [`fungus_core::HealthReport`] for the wire: the scalar
/// components every client wants, without dragging the full stats/census
/// structures through the protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// Container name.
    pub container: String,
    /// Observation tick.
    pub at: u64,
    /// Composite health score in [0, 1].
    pub score: f64,
    /// Status band (`Healthy`/`Degraded`/`Critical`).
    pub status: String,
    /// Live tuple count.
    pub live: u64,
    /// Mean live freshness.
    pub mean_freshness: f64,
    /// Fraction of evictions that rotted unread.
    pub waste_ratio: f64,
}

/// Coarse error classes clients can branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The statement text did not parse.
    Parse,
    /// The statement referenced a missing container or column.
    Unknown,
    /// The statement was understood but could not run.
    Execution,
    /// The frame or JSON payload was malformed.
    Protocol,
    /// The server refused the connection or request (capacity, shutdown).
    Unavailable,
}

impl Request {
    /// Serialises to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        Ok(json::to_string(self)?.into_bytes())
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FungusError::CorruptSnapshot(format!("request not UTF-8: {e}")))?;
        json::from_str(text)
    }

    /// Whether replaying this request is observably identical to sending
    /// it once — the retry guard's whole decision.
    ///
    /// Safe to replay: [`Request::Ping`], read-only dot commands
    /// (`.ping`, `.health`, `.containers`, `.session`, `.stats`,
    /// `.sketch`), `SELECT`s without `CONSUME`, and `SUMMARIZE` (sketch
    /// reads answer from the summary without touching the extent; the
    /// hit counter they bump is telemetry, like a `SELECT`'s query
    /// counter). Everything else mutates — `INSERT`s
    /// append, `CONSUME` queries delete what they return, `.tick`
    /// advances the decay clock — so an ambiguous transport failure
    /// (did the server execute it before the connection died?) must
    /// surface to the caller instead of being blindly replayed.
    ///
    /// The `CONSUME` check is textual and deliberately conservative: a
    /// statement merely *containing* the keyword (say, in a string
    /// literal) is treated as consuming and not retried. False negatives
    /// cost a retry; false positives would replay a destructive read.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Ping => true,
            Request::Dot { line } => {
                let verb = line.split_whitespace().next().unwrap_or("");
                matches!(
                    verb,
                    ".ping" | ".health" | ".containers" | ".session" | ".stats" | ".sketch"
                )
            }
            Request::Sql { text } => {
                let head = text.trim_start();
                let is_select = head
                    .get(..6)
                    .is_some_and(|h| h.eq_ignore_ascii_case("select"));
                let is_summarize = head
                    .get(..9)
                    .is_some_and(|h| h.eq_ignore_ascii_case("summarize"));
                (is_select || is_summarize) && !text.to_ascii_uppercase().contains("CONSUME")
            }
        }
    }
}

impl Response {
    /// Serialises to a frame payload.
    pub fn encode(&self) -> Result<Vec<u8>> {
        Ok(json::to_string(self)?.into_bytes())
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| FungusError::CorruptSnapshot(format!("response not UTF-8: {e}")))?;
        json::from_str(text)
    }

    /// Converts an engine outcome into its wire form.
    pub fn from_outcome(outcome: QueryOutcome) -> Response {
        Response::Rows {
            columns: outcome.result.columns,
            rows: outcome.result.rows,
            distilled: outcome.distilled,
            consumed: outcome.result.consumed.len() as u64,
        }
    }

    /// Converts an engine error into its wire form.
    pub fn from_error(err: &FungusError) -> Response {
        let code = match err {
            FungusError::ParseError { .. } => ErrorCode::Parse,
            FungusError::UnknownContainer(_)
            | FungusError::UnknownColumn(_)
            | FungusError::ContainerExists(_) => ErrorCode::Unknown,
            FungusError::CorruptSnapshot(_) => ErrorCode::Protocol,
            _ => ErrorCode::Execution,
        };
        Response::Error {
            code,
            message: err.to_string(),
        }
    }

    /// Converts a framing error into its wire form (where a reply is
    /// still possible).
    pub fn from_frame_error(err: &FrameError) -> Response {
        Response::Error {
            code: ErrorCode::Protocol,
            message: err.to_string(),
        }
    }

    /// The number of rows carried, if this is a row response.
    pub fn row_count(&self) -> Option<usize> {
        match self {
            Response::Rows { rows, .. } => Some(rows.len()),
            _ => None,
        }
    }

    /// True for [`Response::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Sql {
                text: "SELECT * FROM r WHERE v > 1 CONSUME".into(),
            },
            Request::Dot {
                line: ".health readings".into(),
            },
            Request::Ping,
        ] {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Rows {
                columns: vec!["v".into()],
                rows: vec![vec![Value::Int(1)], vec![Value::Null]],
                distilled: 3,
                consumed: 2,
            },
            Response::Ack {
                message: "created".into(),
            },
            Response::Health {
                reports: vec![HealthSummary {
                    container: "r".into(),
                    at: 9,
                    score: 0.75,
                    status: "stable".into(),
                    live: 100,
                    mean_freshness: 0.5,
                    waste_ratio: 0.1,
                }],
                server: None,
            },
            Response::Health {
                reports: vec![],
                server: Some(Box::new(StatsSummary {
                    accepted: 4,
                    rejected: 1,
                    requests: 90,
                    responses: 88,
                    errors: 2,
                    faults_injected: 7,
                    worker_panics: 1,
                    workers_respawned: 1,
                    driver_ticks: 1234,
                    shards: 12,
                    shards_dropped: 3,
                    shards_pruned: 40,
                    shards_split: 5,
                    shards_merged: 2,
                    shards_restored: 12,
                    sketches: 6,
                    sketch_hits: 19,
                    sketch_absorbed: 5000,
                    mvcc_epoch: 88,
                    mvcc_published: 90,
                    mvcc_retired: 89,
                    mvcc_reclaimed: 89,
                    mvcc_snapshot_reads: 450,
                    mvcc_consume_retries: 3,
                    mvcc_consume_fallbacks: 1,
                    reactor_sessions: 12,
                    reactor_ready_events: 900,
                    reactor_stalls: 4,
                    reactor_wakeups: 350,
                    reactor_write_hwm: 8192,
                })),
            },
            Response::Pong,
            Response::Error {
                code: ErrorCode::Parse,
                message: "nope".into(),
            },
        ] {
            let bytes = resp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(b"{\"Sql\":").is_err());
        assert!(Request::decode(&[0xff, 0xfe]).is_err());
        assert!(Response::decode(b"[1,2,3]").is_err());
    }

    #[test]
    fn idempotency_guard_classifies_requests() {
        let sql = |text: &str| Request::Sql { text: text.into() };
        let dot = |line: &str| Request::Dot { line: line.into() };

        // Safe to replay.
        assert!(Request::Ping.is_idempotent());
        assert!(dot(".health r").is_idempotent());
        assert!(dot(".containers").is_idempotent());
        assert!(dot(".stats").is_idempotent());
        assert!(sql("SELECT * FROM r WHERE v > 1").is_idempotent());
        assert!(sql("  select count(*) from r").is_idempotent());
        assert!(sql("SUMMARIZE hot FROM clicks TOP 5").is_idempotent());
        assert!(sql("  summarize hot from clicks").is_idempotent());
        assert!(dot(".sketch clicks hot").is_idempotent());

        // Never blindly replayed.
        assert!(!sql("SELECT * FROM r CONSUME").is_idempotent());
        assert!(!sql("select v from r consume").is_idempotent());
        assert!(!sql("INSERT INTO r VALUES (1)").is_idempotent());
        assert!(!sql("CREATE CONTAINER s (x INT) WITH FUNGUS ttl(5)").is_idempotent());
        assert!(!dot(".tick 5").is_idempotent());
        assert!(!dot(".tick").is_idempotent());
        // Conservative: CONSUME anywhere in the text disables retries.
        assert!(!sql("SELECT * FROM r WHERE note = 'CONSUME'").is_idempotent());
    }

    #[test]
    fn error_codes_classify_engine_errors() {
        let resp = Response::from_error(&FungusError::UnknownContainer("x".into()));
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Unknown,
                ..
            }
        ));
    }
}
