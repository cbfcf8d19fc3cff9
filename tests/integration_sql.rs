//! End-to-end coverage of the whole SQL surface through `Database`:
//! DDL, DML, every clause, pseudo-columns, scalar functions, and the
//! paper-specific extensions — one session exercising all of it.

use spacefungus::prelude::*;

fn db_with_events() -> Database {
    let mut db = Database::new(404);
    db.execute_ddl(
        "CREATE CONTAINER events (kind TEXT NOT NULL, amount FLOAT, user_id INT) \
         WITH FUNGUS ttl(100)",
    )
    .unwrap();
    db.execute_ddl("CREATE INDEX ON events (user_id)").unwrap();
    db.execute_ddl("CREATE ORDERED INDEX ON events (amount)")
        .unwrap();
    for i in 0..30i64 {
        db.execute(&format!(
            "INSERT INTO events VALUES ('{}', {}, {})",
            if i % 5 == 0 { "refund" } else { "sale" },
            i as f64 * 1.5,
            i % 4,
        ))
        .unwrap();
        db.tick();
    }
    db
}

#[test]
fn the_full_surface_in_one_session() {
    let db = db_with_events();

    // DISTINCT.
    let out = db
        .execute("SELECT DISTINCT kind FROM events ORDER BY kind")
        .unwrap();
    assert_eq!(out.result.rows.len(), 2);

    // GROUP BY + HAVING + aliases + ORDER BY alias.
    let out = db
        .execute(
            "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events \
             GROUP BY kind HAVING n > 10 ORDER BY total DESC",
        )
        .unwrap();
    assert_eq!(
        out.result.rows.len(),
        1,
        "only 'sale' has more than 10 rows"
    );
    assert_eq!(out.result.rows[0][0], Value::from("sale"));

    // Scalar functions + CASE inside projections and predicates.
    let out = db
        .execute(
            "SELECT UPPER(kind), ROUND(amount, 0), \
             CASE WHEN amount >= 30 THEN 'big' ELSE 'small' END \
             FROM events WHERE ABS(amount - 30) <= 1.5 ORDER BY amount",
        )
        .unwrap();
    assert_eq!(out.result.rows.len(), 3);
    assert_eq!(out.result.rows[0][0], Value::from("SALE"));

    // Index probes: hash on user_id, ordered on amount.
    let out = db
        .execute("SELECT COUNT(*) FROM events WHERE user_id = 2")
        .unwrap();
    assert!(out.result.used_index);
    let out = db
        .execute("SELECT COUNT(*) FROM events WHERE amount BETWEEN 10 AND 20")
        .unwrap();
    assert!(out.result.used_index, "ordered index answers the range");

    // Freshness-weighted aggregates: rows aged 1..30 of TTL 100.
    let out = db
        .execute("SELECT FCOUNT(*), COUNT(*) FROM events")
        .unwrap();
    let fcount = out.result.rows[0][0].as_f64().unwrap();
    let count = out.result.rows[0][1].as_f64().unwrap();
    assert!(fcount < count, "aged rows weigh less: {fcount} < {count}");
    assert!(fcount > 0.5 * count, "but nothing is near-rotten yet");

    // EXPLAIN through SQL.
    let out = db
        .execute("EXPLAIN SELECT DISTINCT kind FROM events WHERE user_id = 1 LIMIT 3")
        .unwrap();
    let plan_text: Vec<String> = out
        .result
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert!(
        plan_text.iter().any(|l| l.contains("Distinct")),
        "{plan_text:?}"
    );
    assert!(
        plan_text.iter().any(|l| l.contains("Limit 3")),
        "{plan_text:?}"
    );
    assert!(
        plan_text.iter().any(|l| l.contains("Scan events")),
        "{plan_text:?}"
    );

    // DELETE (owner discard) vs CONSUME (read-and-remove) accounting.
    let before = db.container("events").unwrap().read().live_count();
    let out = db
        .execute("SELECT * FROM events WHERE kind = 'refund' CONSUME")
        .unwrap();
    let consumed = out.result.consumed.len();
    db.execute("DELETE FROM events WHERE user_id = 3").unwrap();
    let c = db.container("events").unwrap();
    let guard = c.read();
    assert_eq!(guard.metrics().tuples_consumed, consumed as u64);
    assert!(guard.extent().evicted_deleted() > 0);
    assert!(guard.live_count() < before - consumed);
}

#[test]
fn sql_errors_are_informative_not_panics() {
    let db = db_with_events();
    for (sql, needle) in [
        ("SELECT * FROM nowhere", "unknown container"),
        ("SELECT nope FROM events", "unknown column"),
        ("SELECT kind, COUNT(*) FROM events", "GROUP BY"),
        ("SELECT DISTINCT COUNT(*) FROM events", "DISTINCT"),
        ("SELECT * FROM events HAVING kind = 'x'", "HAVING"),
        ("SELECT BOGUS(kind) FROM events", "unknown function"),
        ("SELECT SUM(kind) FROM events", "numeric"),
        ("INSERT INTO events VALUES (1)", "arity"),
    ] {
        let err = db.execute(sql).unwrap_err().to_string().to_lowercase();
        assert!(
            err.contains(&needle.to_lowercase()),
            "`{sql}` → `{err}` missing `{needle}`"
        );
    }
}
