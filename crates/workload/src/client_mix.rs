//! A self-seeded, client-side statement stream for driving a server.
//!
//! [`QueryMix`] generates reads for in-process
//! experiments that already own a [`DeterministicRng`]. A network load
//! generator lives on the other side of a socket: each client thread
//! needs its own reproducible stream that also *writes* (a read-only
//! client would watch the extent rot to nothing) and occasionally issues
//! operational commands. [`ClientMix`] packages that: per-client seed in,
//! deterministic interleaving of `INSERT`s, the recency-biased query
//! shapes, and periodic `.health` probes out.

use rand::rngs::SmallRng;
use rand::Rng;

use fungus_clock::DeterministicRng;
use fungus_types::Tick;

use crate::queries::QueryMix;

/// One client-side operation, ready to put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// A SQL statement (insert, query, or consuming query).
    Sql(String),
    /// An operational dot command (e.g. `.health r`).
    Dot(String),
}

impl ClientOp {
    /// The statement text regardless of kind.
    pub fn text(&self) -> &str {
        match self {
            ClientOp::Sql(s) | ClientOp::Dot(s) => s,
        }
    }

    /// Whether a client may blindly re-send this operation after an
    /// ambiguous transport failure (connection died between send and
    /// response). Mirrors the server client's idempotency guard: probes
    /// and non-`CONSUME` `SELECT`s are safe; `INSERT`s, consuming reads,
    /// and `.tick` are not — replaying those could double-write, consume
    /// a second batch, or advance the decay clock twice.
    ///
    /// This lives here (textually, not via `fungus-server` types) because
    /// the workload crate sits *below* the server crate; the two
    /// classifications are kept in lockstep by the chaos suite.
    pub fn is_retry_safe(&self) -> bool {
        match self {
            ClientOp::Dot(line) => {
                let verb = line.split_whitespace().next().unwrap_or("");
                matches!(
                    verb,
                    ".ping" | ".health" | ".containers" | ".session" | ".stats"
                )
            }
            ClientOp::Sql(sql) => {
                let head = sql.trim_start();
                let is_select = head
                    .get(..6)
                    .is_some_and(|h| h.eq_ignore_ascii_case("select"));
                is_select && !sql.to_ascii_uppercase().contains("CONSUME")
            }
        }
    }
}

/// A deterministic per-client operation stream: ingest + recency-biased
/// reads + periodic health probes.
#[derive(Debug)]
pub struct ClientMix {
    table: String,
    mix: QueryMix,
    rng: SmallRng,
    keys: usize,
    insert_w: f64,
    batch_max: usize,
    health_every: u64,
    fault_aware: bool,
    issued: u64,
}

impl ClientMix {
    /// A stream for `table(key_column, value_column)` with `keys` distinct
    /// keys, seeded independently per client. Clients with different
    /// seeds draw decorrelated streams; the same seed replays the same
    /// stream.
    pub fn new(
        seed: u64,
        table: impl Into<String>,
        key_column: impl Into<String>,
        value_column: impl Into<String>,
        keys: usize,
        recent_window: u64,
    ) -> Self {
        let table = table.into();
        let rng = DeterministicRng::new(seed);
        let mix = QueryMix::new(
            table.clone(),
            key_column,
            value_column,
            keys,
            recent_window,
            &rng,
        );
        ClientMix {
            table,
            mix,
            rng: rng.stream("workload/client-mix"),
            keys: keys.max(1),
            insert_w: 0.5,
            batch_max: 4,
            health_every: 0,
            fault_aware: false,
            issued: 0,
        }
    }

    /// Makes point and range reads consuming (`CONSUME`).
    #[must_use]
    pub fn with_consuming_reads(mut self, consume: bool) -> Self {
        self.mix = self.mix.with_consuming_reads(consume);
        self
    }

    /// Issues a `.health <table>` probe every `n` operations (0 = never).
    #[must_use]
    pub fn with_health_every(mut self, n: u64) -> Self {
        self.health_every = n;
        self
    }

    /// Fault-aware mode, for driving a server behind a faulty transport:
    /// reads stay non-consuming (harvest shapes are demoted to plain
    /// stale scans) so every query in the stream is safe for the
    /// client's retry layer to replay ([`ClientOp::is_retry_safe`]).
    /// `INSERT`s still flow — a chaos run needs writes to have something
    /// to corrupt — but they surface transport failures to the harness
    /// instead of being retried. Overrides any earlier
    /// [`with_consuming_reads`](Self::with_consuming_reads).
    #[must_use]
    pub fn with_fault_aware(mut self, on: bool) -> Self {
        self.fault_aware = on;
        if on {
            self.mix = self.mix.with_consuming_reads(false);
        }
        self
    }

    /// Whether fault-aware mode is on.
    pub fn fault_aware(&self) -> bool {
        self.fault_aware
    }

    /// Operations drawn so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Draws the next operation. `now` seeds the query shapes' recency
    /// horizon (pass the client's best guess of server virtual time; the
    /// generated SQL only uses relative ages, so a stale guess is fine).
    pub fn next_op(&mut self, now: Tick) -> ClientOp {
        self.issued += 1;
        if self.health_every > 0 && self.issued.is_multiple_of(self.health_every) {
            return ClientOp::Dot(format!(".health {}", self.table));
        }
        if self.rng.gen::<f64>() < self.insert_w {
            ClientOp::Sql(self.insert_statement())
        } else {
            let (_, mut sql) = self.mix.next_statement(now);
            // Harvest shapes always consume; in fault-aware mode demote
            // them to plain stale scans so every read stays replayable.
            if self.fault_aware {
                if let Some(stripped) = sql.strip_suffix(" CONSUME") {
                    sql = stripped.to_string();
                }
            }
            ClientOp::Sql(sql)
        }
    }

    /// A batch `INSERT` of 1..=`batch_max` rows with uniform keys and a
    /// sensor-style float value.
    fn insert_statement(&mut self) -> String {
        let rows = self.rng.gen_range(1..=self.batch_max);
        let mut values = Vec::with_capacity(rows);
        for _ in 0..rows {
            let key = self.rng.gen_range(0..self.keys);
            let reading = 20.0 + 10.0 * self.rng.gen::<f64>();
            values.push(format!("({key}, {reading:.3})"));
        }
        format!("INSERT INTO {} VALUES {}", self.table, values.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_query::parse_statement;

    fn drawn(seed: u64, n: usize) -> Vec<ClientOp> {
        let mut mix = ClientMix::new(seed, "r", "sensor", "reading", 20, 16)
            .with_health_every(10)
            .with_consuming_reads(true);
        (0..n).map(|i| mix.next_op(Tick(i as u64 + 1))).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        assert_eq!(drawn(3, 64), drawn(3, 64));
        assert_ne!(drawn(3, 64), drawn(4, 64));
    }

    #[test]
    fn sql_ops_all_parse() {
        for op in drawn(7, 128) {
            match op {
                ClientOp::Sql(sql) => {
                    parse_statement(&sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
                }
                ClientOp::Dot(line) => assert!(line.starts_with('.')),
            }
        }
    }

    #[test]
    fn retry_safety_matches_the_server_guard() {
        assert!(ClientOp::Dot(".health r".into()).is_retry_safe());
        assert!(ClientOp::Dot(".stats".into()).is_retry_safe());
        assert!(ClientOp::Sql("SELECT * FROM r WHERE sensor = 3".into()).is_retry_safe());
        assert!(!ClientOp::Dot(".tick 4".into()).is_retry_safe());
        assert!(!ClientOp::Sql("SELECT * FROM r CONSUME".into()).is_retry_safe());
        assert!(!ClientOp::Sql("INSERT INTO r VALUES (1, 2.0)".into()).is_retry_safe());
    }

    #[test]
    fn fault_aware_mode_keeps_all_reads_replayable() {
        let mut mix = ClientMix::new(5, "r", "sensor", "reading", 20, 16)
            .with_consuming_reads(true)
            .with_health_every(10)
            .with_fault_aware(true);
        assert!(mix.fault_aware());
        for i in 0..256u64 {
            let op = mix.next_op(Tick(i + 1));
            if !op.text().starts_with("INSERT") {
                assert!(
                    op.is_retry_safe(),
                    "unsafe read in fault-aware mode: {op:?}"
                );
            }
        }
    }

    #[test]
    fn mix_contains_inserts_reads_and_probes() {
        let ops = drawn(9, 200);
        let inserts = ops
            .iter()
            .filter(|o| o.text().starts_with("INSERT"))
            .count();
        let selects = ops
            .iter()
            .filter(|o| o.text().starts_with("SELECT"))
            .count();
        let probes = ops.iter().filter(|o| matches!(o, ClientOp::Dot(_))).count();
        assert!(inserts > 40, "only {inserts} inserts");
        assert!(selects > 40, "only {selects} selects");
        assert_eq!(probes, 20);
    }
}
