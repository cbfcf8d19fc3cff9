//! Plan execution with consume semantics.
//!
//! Execution order:
//!
//! 1. **Scan** — walk segments in time order, skipping segments the
//!    [`PruningPredicate`](crate::prune::PruningPredicate) rules out;
//!    evaluate the predicate on each live tuple.
//! 2. **Shape** — project scalar rows or fold aggregate groups.
//! 3. **Sort + limit** — order the result and truncate.
//! 4. **Consume** — if the statement says `CONSUME`, delete exactly the
//!    tuples whose rows were *returned* (after LIMIT in scalar mode; every
//!    predicate match in aggregate mode, since the aggregate consumed their
//!    information — including rows of groups a `HAVING` clause later
//!    filtered from the output, which were still read to compute it).
//! 5. **Touch** — surviving returned tuples get their access metadata
//!    bumped, feeding the importance fungus and the waste metric.

use std::cmp::Ordering;
use std::collections::HashMap;

use fungus_storage::TombstoneReason;
use fungus_types::{ColumnDef, DataType, FungusError, Result, Schema, Tick, Tuple, TupleId, Value};

use crate::expr::AggFunc;
use crate::extent::{QueryExtent, ReadExtent};
use crate::parser::{parse_statement, SelectStatement, Statement};
use crate::plan::{LogicalPlan, PlannedExpr, Planner};

/// The answer set `A` of a query, plus the consumed tuples (the paper's
/// "reduced extent" delta) and scan diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Tuples removed by consume semantics, in id order — routed to
    /// distillation by the engine before they are dropped.
    pub consumed: Vec<Tuple>,
    /// Live tuples examined by the scan.
    pub scanned: usize,
    /// Segments skipped by zone-map pruning.
    pub pruned_segments: usize,
    /// Whole shards skipped by shard-summary pruning (always 0 on a
    /// monolithic extent).
    pub pruned_shards: usize,
    /// Whether a secondary hash index answered the scan.
    pub used_index: bool,
}

impl ResultSet {
    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a one-row, one-column result (aggregates).
    pub fn scalar(&self) -> Result<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(FungusError::EvalError(format!(
                "expected a 1x1 result, got {}x{}",
                self.rows.len(),
                self.columns.len()
            )))
        }
    }
}

/// Parses, plans, and executes one statement string against an extent.
///
/// `INSERT` statements evaluate their literal rows and append them at
/// `now`; the result set reports the inserted count.
pub fn execute_statement<E: QueryExtent>(sql: &str, table: &mut E, now: Tick) -> Result<ResultSet> {
    execute_parsed(parse_statement(sql)?, table, now)
}

/// Executes an already-parsed statement (lets callers that route by table
/// name avoid a second parse).
pub fn execute_parsed<E: QueryExtent>(
    stmt: Statement,
    table: &mut E,
    now: Tick,
) -> Result<ResultSet> {
    match stmt {
        Statement::Select(stmt) => {
            let plan = Planner.plan(&stmt, table.schema())?;
            execute(&plan, table, now)
        }
        Statement::Explain(stmt) => explain(&stmt, table.schema()),
        Statement::Delete { predicate, .. } => {
            let schema = table.schema().clone();
            if let Some(p) = &predicate {
                p.validate(&schema)?;
            }
            let matched: Vec<TupleId> = {
                let mut ids = Vec::new();
                for id in table.live_ids() {
                    let t = table.peek(id).expect("live id from the same extent");
                    let keep = match &predicate {
                        Some(p) => p.eval_predicate(t, &schema, now)?,
                        None => true,
                    };
                    if keep {
                        ids.push(id);
                    }
                }
                ids
            };
            let mut deleted = 0i64;
            for id in &matched {
                if table.delete(*id, TombstoneReason::Deleted).is_some() {
                    deleted += 1;
                }
            }
            Ok(ResultSet {
                columns: vec!["deleted".into()],
                rows: vec![vec![Value::Int(deleted)]],
                consumed: Vec::new(),
                scanned: 0,
                pruned_segments: 0,
                pruned_shards: 0,
                used_index: false,
            })
        }
        Statement::Summarize { table, summary, .. } => Err(FungusError::PlanError(format!(
            "SUMMARIZE `{summary}` FROM `{table}` must run at the database layer \
             (Database::execute), not against a single table"
        ))),
        Statement::CreateContainer(stmt) => Err(FungusError::PlanError(format!(
            "CREATE CONTAINER `{}` must run at the database layer              (Database::execute_ddl), not against a single table",
            stmt.name
        ))),
        Statement::CreateIndex { column, ordered, .. } => {
            if ordered {
                table.create_ord_index(&column)?;
            } else {
                table.create_index(&column)?;
            }
            Ok(ResultSet {
                columns: vec!["indexed".into()],
                rows: vec![vec![Value::Str(column)]],
                consumed: Vec::new(),
                scanned: 0,
                pruned_segments: 0,
                pruned_shards: 0,
                used_index: false,
            })
        }
        Statement::Insert { rows, .. } => {
            // Literal rows evaluate against a dummy tuple (no column refs
            // allowed — validate catches them).
            let dummy_schema = Schema::new(vec![])?;
            let dummy = Tuple::new(TupleId(0), now, vec![]);
            let mut inserted = 0i64;
            for row in rows {
                let mut values = Vec::with_capacity(row.len());
                for e in row {
                    e.validate(&dummy_schema)?;
                    values.push(e.eval(&dummy, &dummy_schema, now)?);
                }
                table.insert(values, now)?;
                inserted += 1;
            }
            Ok(ResultSet {
                columns: vec!["inserted".into()],
                rows: vec![vec![Value::Int(inserted)]],
                consumed: Vec::new(),
                scanned: 0,
                pruned_segments: 0,
                pruned_shards: 0,
                used_index: false,
            })
        }
    }
}

/// Answers `EXPLAIN`: plans the statement against `schema` and renders
/// the plan one line per row. Reads no data.
pub fn explain(stmt: &SelectStatement, schema: &Schema) -> Result<ResultSet> {
    let plan = Planner.plan(stmt, schema)?;
    Ok(ResultSet {
        columns: vec!["plan".into()],
        rows: plan
            .to_string()
            .lines()
            .map(|l| vec![Value::Str(l.to_string())])
            .collect(),
        consumed: Vec::new(),
        scanned: 0,
        pruned_segments: 0,
        pruned_shards: 0,
        used_index: false,
    })
}

/// Executes a compiled plan: the read phases of [`execute_readonly`],
/// then the consume/touch side effects on the ids the answer drew from.
pub fn execute<E: QueryExtent>(plan: &LogicalPlan, table: &mut E, now: Tick) -> Result<ResultSet> {
    let (mut result, returned_ids) = execute_readonly(plan, &*table, now)?;
    if plan.consume {
        for id in &returned_ids {
            if let Some(mut t) = table.delete(*id, TombstoneReason::Consumed) {
                // A consumed tuple was, by definition, read once.
                t.meta.touch(now);
                result.consumed.push(t);
            }
        }
    } else {
        for id in &returned_ids {
            table.touch(*id, now);
        }
    }
    Ok(result)
}

/// Executes the **read phases** of a plan: scan (the extent owns the
/// access-path choice — indexes, zone-map pruning, shard pruning), shape,
/// sort, limit — everything up to (but excluding) the consume/touch side
/// effects.
///
/// Returns the result set (with `consumed` always empty) plus the ids the
/// answer was drawn from — the exact set [`execute`] consumes (consume
/// plans) or touches (peek plans). Callers enforcing the MVCC isolation
/// contract run this against a pinned snapshot and apply those effects to
/// the **live** version themselves: a peek queues deferred touches; a
/// `CONSUME` validates that the epoch has not advanced since the snapshot
/// was pinned and then deletes exactly `returned_ids`, or retries on a
/// newer snapshot.
pub fn execute_readonly<E: ReadExtent + ?Sized>(
    plan: &LogicalPlan,
    table: &E,
    now: Tick,
) -> Result<(ResultSet, Vec<TupleId>)> {
    let schema = table.schema();
    let scan = table.scan(plan, now)?;
    let columns: Vec<String> = plan.outputs.iter().map(|o| o.name.clone()).collect();
    let (rows, returned_ids) = if plan.aggregate {
        (
            aggregate_rows(plan, table, &scan.matched, schema, now)?,
            scan.matched,
        )
    } else {
        scalar_rows(plan, table, &scan.matched, schema, now)?
    };
    Ok((
        ResultSet {
            columns,
            rows,
            consumed: Vec::new(),
            scanned: scan.scanned,
            pruned_segments: scan.pruned_segments,
            pruned_shards: scan.pruned_shards,
            used_index: scan.used_index,
        },
        returned_ids,
    ))
}

/// Scalar mode: evaluate outputs per matched tuple, sort, limit.
/// Returns the rows plus the ids that were actually returned.
fn scalar_rows<E: ReadExtent + ?Sized>(
    plan: &LogicalPlan,
    table: &E,
    matched: &[TupleId],
    schema: &Schema,
    now: Tick,
) -> Result<(Vec<Vec<Value>>, Vec<TupleId>)> {
    // Materialise output row + sort key per match.
    let mut shaped: Vec<(Vec<Value>, Vec<Value>, TupleId)> = Vec::with_capacity(matched.len());
    for id in matched {
        let tuple = table
            .peek(*id)
            .expect("matched tuple is live within the same borrow");
        let mut row = Vec::with_capacity(plan.outputs.len());
        for out in &plan.outputs {
            match &out.expr {
                PlannedExpr::Scalar(e) => row.push(e.eval(tuple, schema, now)?),
                _ => unreachable!("scalar mode has only scalar outputs"),
            }
        }
        let mut keys = Vec::with_capacity(plan.order_by.len());
        for key in &plan.order_by {
            keys.push(key.expr.eval(tuple, schema, now)?);
        }
        shaped.push((row, keys, *id));
    }

    if plan.distinct {
        // Keep the first occurrence (insertion order) of each row shape.
        let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        let mut dup_ids_by_row: HashMap<Vec<Value>, Vec<TupleId>> = HashMap::new();
        let mut unique = Vec::with_capacity(shaped.len());
        for (row, keys, id) in shaped {
            dup_ids_by_row.entry(row.clone()).or_default().push(id);
            if seen.insert(row.clone()) {
                unique.push((row, keys, id));
            }
        }
        sort_shaped(&mut unique, plan);
        if let Some(n) = plan.limit {
            unique.truncate(n);
        }
        // Consume semantics: every source row that contributed to a
        // returned distinct row is part of the answer's information and is
        // consumed with it.
        let mut ids = Vec::new();
        for (row, _, _) in &unique {
            ids.extend(dup_ids_by_row.remove(row).into_iter().flatten());
        }
        ids.sort_unstable();
        let rows = unique.into_iter().map(|(row, _, _)| row).collect();
        return Ok((rows, ids));
    }

    sort_shaped(&mut shaped, plan);
    if let Some(n) = plan.limit {
        shaped.truncate(n);
    }
    let ids = shaped.iter().map(|(_, _, id)| *id).collect();
    let rows = shaped.into_iter().map(|(row, _, _)| row).collect();
    Ok((rows, ids))
}

fn sort_shaped(shaped: &mut [(Vec<Value>, Vec<Value>, TupleId)], plan: &LogicalPlan) {
    if plan.order_by.is_empty() {
        return;
    }
    shaped.sort_by(|a, b| {
        for (i, key) in plan.order_by.iter().enumerate() {
            let ord = a.1[i].cmp_total(&b.1[i]);
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        // Stable tiebreak on insertion order.
        a.2.cmp(&b.2)
    });
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Avg {
        sum: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// Exact distinct-value set for COUNT(DISTINCT expr).
    Distinct(std::collections::HashSet<Value>),
    /// Welford accumulator for STDDEV/VARIANCE.
    Spread {
        func: AggFunc,
        n: i64,
        mean: f64,
        m2: f64,
    },
    /// Freshness-weighted: Σ fᵢ (FCOUNT) or Σ fᵢ·xᵢ (FSUM), plus Σ fᵢ for
    /// the weighted mean (FAVG).
    FWeighted {
        func: AggFunc,
        wsum: f64,
        wtotal: f64,
    },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::StdDev | AggFunc::Variance => Acc::Spread {
                func,
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggFunc::FCount | AggFunc::FSum | AggFunc::FAvg => Acc::FWeighted {
                func,
                wsum: 0.0,
                wtotal: 0.0,
            },
        }
    }

    fn fold(&mut self, value: Option<&Value>, freshness: f64) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) folds None (row marker); COUNT(e) skips NULLs.
                match value {
                    None => *n += 1,
                    Some(v) if !v.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            Acc::Distinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v.clone());
                    }
                }
            }
            Acc::Sum(state) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        // SUM is numeric-only; `+`'s string concatenation
                        // must not leak into aggregation.
                        if v.as_f64().is_none() {
                            return Err(FungusError::EvalError(format!(
                                "SUM requires numeric input, got {}",
                                v.data_type()
                            )));
                        }
                        *state = Some(match state.take() {
                            Some(acc) => acc.add(v)?,
                            None => v.clone(),
                        });
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *sum += x;
                        *n += 1;
                    } else if !v.is_null() {
                        return Err(FungusError::EvalError(format!(
                            "AVG requires numeric input, got {}",
                            v.data_type()
                        )));
                    }
                }
            }
            Acc::Min(state) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match state {
                            Some(cur) => v.cmp_total(cur) == Ordering::Less,
                            None => true,
                        };
                        if replace {
                            *state = Some(v.clone());
                        }
                    }
                }
            }
            Acc::Max(state) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let replace = match state {
                            Some(cur) => v.cmp_total(cur) == Ordering::Greater,
                            None => true,
                        };
                        if replace {
                            *state = Some(v.clone());
                        }
                    }
                }
            }
            Acc::Spread { func, n, mean, m2 } => {
                if let Some(v) = value {
                    if let Some(x) = v.as_f64() {
                        *n += 1;
                        let delta = x - *mean;
                        *mean += delta / *n as f64;
                        *m2 += delta * (x - *mean);
                    } else if !v.is_null() {
                        return Err(FungusError::EvalError(format!(
                            "{} requires numeric input, got {}",
                            func.name(),
                            v.data_type()
                        )));
                    }
                }
            }
            Acc::FWeighted { func, wsum, wtotal } => match func {
                AggFunc::FCount => {
                    // FCOUNT(*) weighs every matched row; FCOUNT(e) weighs
                    // rows where e is non-null.
                    match value {
                        None => *wtotal += freshness,
                        Some(v) if !v.is_null() => *wtotal += freshness,
                        Some(_) => {}
                    }
                }
                AggFunc::FSum | AggFunc::FAvg => {
                    if let Some(v) = value {
                        if let Some(x) = v.as_f64() {
                            *wsum += freshness * x;
                            *wtotal += freshness;
                        } else if !v.is_null() {
                            return Err(FungusError::EvalError(format!(
                                "{} requires numeric input, got {}",
                                func.name(),
                                v.data_type()
                            )));
                        }
                    }
                }
                _ => unreachable!("non-weighted func in FWeighted"),
            },
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Distinct(set) => Value::Int(set.len() as i64),
            Acc::Spread { func, n, m2, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    let var = m2 / n as f64;
                    match func {
                        AggFunc::Variance => Value::float(var),
                        _ => Value::float(var.sqrt()),
                    }
                }
            }
            Acc::FWeighted { func, wsum, wtotal } => match func {
                AggFunc::FCount => Value::float(wtotal),
                AggFunc::FSum => Value::float(wsum),
                AggFunc::FAvg => {
                    if wtotal == 0.0 {
                        Value::Null
                    } else {
                        Value::float(wsum / wtotal)
                    }
                }
                _ => unreachable!(),
            },
        }
    }
}

/// Aggregate mode: group matched tuples, fold accumulators, emit one row
/// per group (or exactly one row for the implicit global group), then sort
/// against the *output* schema and limit.
fn aggregate_rows<E: ReadExtent + ?Sized>(
    plan: &LogicalPlan,
    table: &E,
    matched: &[TupleId],
    schema: &Schema,
    now: Tick,
) -> Result<Vec<Vec<Value>>> {
    let key_indices: Vec<usize> = plan
        .group_by
        .iter()
        .map(|g| schema.index_of(g).expect("validated by planner"))
        .collect();

    // Group id per key, in first-seen order for deterministic output.
    let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();

    let make_accs = || -> Vec<Acc> {
        plan.outputs
            .iter()
            .filter_map(|o| match &o.expr {
                PlannedExpr::Aggregate(f, _) => Some(Acc::new(*f)),
                PlannedExpr::CountDistinct(_) => {
                    Some(Acc::Distinct(std::collections::HashSet::new()))
                }
                _ => None,
            })
            .collect()
    };

    if plan.group_by.is_empty() {
        // Implicit single group, present even with zero matches.
        groups.push((Vec::new(), make_accs()));
        group_index.insert(Vec::new(), 0);
    }

    for id in matched {
        let tuple = table.peek(*id).expect("matched tuple is live");
        let key: Vec<Value> = key_indices
            .iter()
            .map(|i| tuple.values[*i].clone())
            .collect();
        let gid = match group_index.get(&key) {
            Some(g) => *g,
            None => {
                groups.push((key.clone(), make_accs()));
                group_index.insert(key, groups.len() - 1);
                groups.len() - 1
            }
        };
        let freshness = tuple.meta.freshness.get();
        let mut acc_i = 0;
        for out in &plan.outputs {
            match &out.expr {
                PlannedExpr::Aggregate(_, arg) => {
                    let value = match arg {
                        Some(e) => Some(e.eval(tuple, schema, now)?),
                        None => None,
                    };
                    groups[gid].1[acc_i].fold(value.as_ref(), freshness)?;
                    acc_i += 1;
                }
                PlannedExpr::CountDistinct(arg) => {
                    let value = arg.eval(tuple, schema, now)?;
                    groups[gid].1[acc_i].fold(Some(&value), freshness)?;
                    acc_i += 1;
                }
                _ => {}
            }
        }
    }

    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        let mut accs = accs.into_iter();
        let mut row = Vec::with_capacity(plan.outputs.len());
        for out in &plan.outputs {
            match &out.expr {
                PlannedExpr::GroupKey(i) => row.push(key[*i].clone()),
                PlannedExpr::Aggregate(..) | PlannedExpr::CountDistinct(_) => {
                    row.push(accs.next().expect("acc per aggregate").finish())
                }
                PlannedExpr::Scalar(_) => unreachable!("planner rejects these"),
            }
        }
        rows.push(row);
    }

    // HAVING and ORDER BY evaluate over the *output* row: build a
    // synthetic schema so they can reference output names (incl. aliases).
    let out_schema = if plan.having.is_some() || !plan.order_by.is_empty() {
        Some(
            Schema::new(
                plan.outputs
                    .iter()
                    .map(|o| ColumnDef::nullable(o.name.clone(), DataType::Int))
                    .collect(),
            )
            .map_err(|_| {
                FungusError::PlanError(
                    "HAVING/ORDER BY with aggregates requires unique output column names".into(),
                )
            })?,
        )
    } else {
        None
    };

    if let Some(having) = &plan.having {
        let out_schema = out_schema.as_ref().expect("built above");
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let synthetic = Tuple::new(TupleId(0), now, row.clone());
            if having.eval_predicate(&synthetic, out_schema, now)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    if !plan.order_by.is_empty() {
        let out_schema = out_schema.expect("built above");
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
        for row in rows {
            let synthetic = Tuple::new(TupleId(0), now, row.clone());
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for key in &plan.order_by {
                keys.push(key.expr.eval(&synthetic, &out_schema, now)?);
            }
            keyed.push((row, keys));
        }
        keyed.sort_by(|a, b| {
            for (i, key) in plan.order_by.iter().enumerate() {
                let ord = a.1[i].cmp_total(&b.1[i]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        rows = keyed.into_iter().map(|(row, _)| row).collect();
    }

    if let Some(n) = plan.limit {
        rows.truncate(n);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_storage::{StorageConfig, TableStore};
    use fungus_types::DataType;

    /// sensors(sensor Int, v Float, tag Str): 12 rows, sensor = i % 3,
    /// v = i as float, tag = "t{i%2}".
    fn table() -> TableStore {
        let schema = Schema::from_pairs(&[
            ("sensor", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ])
        .unwrap();
        let mut t = TableStore::new(
            schema,
            StorageConfig {
                segment_capacity: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..12i64 {
            t.insert(
                vec![
                    Value::Int(i % 3),
                    Value::Float(i as f64),
                    Value::from(format!("t{}", i % 2)),
                ],
                Tick(i as u64),
            )
            .unwrap();
        }
        t
    }

    fn run(sql: &str, t: &mut TableStore) -> ResultSet {
        execute_statement(sql, t, Tick(100)).unwrap()
    }

    #[test]
    fn select_star_returns_everything() {
        let mut t = table();
        let r = run("SELECT * FROM sensors", &mut t);
        assert_eq!(r.columns, vec!["sensor", "v", "tag"]);
        assert_eq!(r.len(), 12);
        assert!(r.consumed.is_empty());
        assert_eq!(r.scanned, 12);
        // Peek touches every returned tuple.
        assert!(t.iter_live().all(|x| x.meta.access_count == 1));
    }

    #[test]
    fn where_filters_and_projects() {
        let mut t = table();
        let r = run("SELECT v FROM sensors WHERE sensor = 1", &mut t);
        assert_eq!(r.len(), 4);
        assert!(r
            .rows
            .iter()
            .all(|row| { matches!(row[0], Value::Float(f) if (f as i64) % 3 == 1) }));
    }

    #[test]
    fn consume_removes_exactly_the_answer_set() {
        let mut t = table();
        let before = t.live_count();
        let r = run("SELECT * FROM sensors WHERE sensor = 0 CONSUME", &mut t);
        assert_eq!(r.len(), 4);
        assert_eq!(r.consumed.len(), 4);
        assert_eq!(t.live_count(), before - 4);
        assert_eq!(t.evicted_consumed(), 4);
        // Law 2: re-running the same query finds nothing.
        let r2 = run("SELECT * FROM sensors WHERE sensor = 0 CONSUME", &mut t);
        assert!(r2.is_empty());
        assert!(r2.consumed.is_empty());
    }

    #[test]
    fn consume_with_limit_only_removes_returned_rows() {
        let mut t = table();
        let r = run(
            "SELECT v FROM sensors ORDER BY v DESC LIMIT 3 CONSUME",
            &mut t,
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][0], Value::Float(11.0));
        assert_eq!(r.consumed.len(), 3);
        assert_eq!(t.live_count(), 9, "only the returned 3 are consumed");
    }

    #[test]
    fn order_by_and_tiebreak() {
        let mut t = table();
        let r = run("SELECT sensor, v FROM sensors ORDER BY sensor, v", &mut t);
        // sensor ascending; within sensor, v ascending.
        let sensors: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = sensors.clone();
        sorted.sort();
        assert_eq!(sensors, sorted);
        assert_eq!(r.rows[0][1], Value::Float(0.0));
    }

    #[test]
    fn global_aggregates() {
        let mut t = table();
        let r = run(
            "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM sensors",
            &mut t,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(12));
        assert_eq!(r.rows[0][1], Value::Float(66.0));
        assert_eq!(r.rows[0][2], Value::Float(5.5));
        assert_eq!(r.rows[0][3], Value::Float(0.0));
        assert_eq!(r.rows[0][4], Value::Float(11.0));
    }

    #[test]
    fn aggregates_on_empty_match() {
        let mut t = table();
        let r = run(
            "SELECT COUNT(*), SUM(v), MIN(v) FROM sensors WHERE sensor = 99",
            &mut t,
        );
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
        assert!(r.scalar().is_err(), "three columns is not a scalar");
    }

    #[test]
    fn group_by_with_order_and_alias() {
        let mut t = table();
        let r = run(
            "SELECT sensor, COUNT(*) AS n, SUM(v) AS total FROM sensors \
             GROUP BY sensor ORDER BY total DESC",
            &mut t,
        );
        assert_eq!(r.columns, vec!["sensor", "n", "total"]);
        assert_eq!(r.len(), 3);
        // sensor 2: v = 2,5,8,11 → 26; sensor 1 → 22; sensor 0 → 18.
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(26.0));
        assert_eq!(r.rows[2][2], Value::Float(18.0));
        assert!(r.rows.iter().all(|row| row[1] == Value::Int(4)));
    }

    #[test]
    fn aggregate_consume_eats_all_matches() {
        let mut t = table();
        let r = run("SELECT COUNT(*) FROM sensors WHERE v < 6 CONSUME", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(6));
        assert_eq!(r.consumed.len(), 6);
        assert_eq!(t.live_count(), 6);
    }

    #[test]
    fn pseudo_column_queries() {
        let mut t = table();
        // Decay some tuples, then distill the nearly-rotten ones.
        t.decay(TupleId(0), 0.95);
        t.decay(TupleId(1), 0.95);
        let r = run(
            "SELECT $id FROM sensors WHERE $freshness < 0.1 CONSUME",
            &mut t,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(t.live_count(), 10);
        // Age pseudo-column at now=100: tuple 11 inserted at t11 → age 89.
        let r = run("SELECT $age FROM sensors WHERE $id = 11", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(89));
    }

    #[test]
    fn pruning_skips_segments() {
        let mut t = table();
        // v spans 0..11 in 3 segments of 4: [0..3], [4..7], [8..11].
        let r = run("SELECT v FROM sensors WHERE v >= 8.0", &mut t);
        assert_eq!(r.len(), 4);
        assert_eq!(r.pruned_segments, 2);
        assert_eq!(r.scanned, 4, "only the surviving segment is scanned");
    }

    #[test]
    fn insert_statement_appends() {
        let mut t = table();
        let r = run(
            "INSERT INTO sensors VALUES (7, 99.5, 'new'), (8, 1.5, NULL)",
            &mut t,
        );
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(t.live_count(), 14);
        let r = run("SELECT tag FROM sensors WHERE sensor = 7", &mut t);
        assert_eq!(r.rows[0][0], Value::from("new"));
    }

    #[test]
    fn insert_rejects_column_references() {
        let mut t = table();
        let err = execute_statement("INSERT INTO sensors VALUES (a, 1.0, 'x')", &mut t, Tick(0))
            .unwrap_err();
        assert!(matches!(err, FungusError::UnknownColumn(_)));
    }

    #[test]
    fn scalar_helper() {
        let mut t = table();
        let r = run("SELECT COUNT(*) FROM sensors", &mut t);
        assert_eq!(r.scalar().unwrap(), &Value::Int(12));
        let r = run("SELECT * FROM sensors", &mut t);
        assert!(r.scalar().is_err());
    }

    #[test]
    fn unknown_table_is_callers_problem_but_bad_sql_errors() {
        let mut t = table();
        assert!(execute_statement("SELECT FROM x", &mut t, Tick(0)).is_err());
        assert!(execute_statement("SELECT zzz FROM sensors", &mut t, Tick(0)).is_err());
    }

    #[test]
    fn count_expr_skips_nulls() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t = TableStore::new(schema, StorageConfig::default()).unwrap();
        t.insert(vec![Value::Int(1)], Tick(0)).unwrap();
        t.insert(vec![Value::Null], Tick(0)).unwrap();
        t.insert(vec![Value::Int(3)], Tick(0)).unwrap();
        let r = run("SELECT COUNT(x), COUNT(*) FROM t", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(2));
        assert_eq!(r.rows[0][1], Value::Int(3));
    }

    #[test]
    fn like_and_in_filters() {
        let mut t = table();
        let r = run("SELECT COUNT(*) FROM sensors WHERE tag LIKE 't1'", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(6));
        let r = run(
            "SELECT COUNT(*) FROM sensors WHERE sensor IN (0, 2)",
            &mut t,
        );
        assert_eq!(r.rows[0][0], Value::Int(8));
    }

    #[test]
    fn index_scan_matches_full_scan_and_consumes_correctly() {
        let mut with_index = table();
        let mut without = table();
        with_index.create_index("sensor").unwrap();

        for sql in [
            "SELECT v FROM s WHERE sensor = 1 ORDER BY v",
            "SELECT v FROM s WHERE sensor IN (0, 2) ORDER BY v",
            "SELECT COUNT(*) FROM s WHERE sensor = 1 AND v > 4",
        ] {
            let a = run(sql, &mut with_index);
            let b = run(sql, &mut without);
            assert_eq!(a.rows, b.rows, "{sql}");
            assert!(a.used_index, "{sql} should use the index");
            assert!(!b.used_index);
            assert!(
                a.scanned <= b.scanned,
                "{sql}: index must not widen the scan"
            );
        }

        // Consuming through the index keeps the index and extent in sync.
        let r = run("SELECT * FROM s WHERE sensor = 1 CONSUME", &mut with_index);
        assert_eq!(r.consumed.len(), 4);
        assert!(r.used_index);
        let r = run("SELECT * FROM s WHERE sensor = 1", &mut with_index);
        assert!(r.is_empty());
        assert_eq!(r.scanned, 0, "index probe finds nothing left");
    }

    #[test]
    fn ordered_index_answers_range_probes() {
        let mut with_index = table();
        let mut without = table();
        execute_statement("CREATE ORDERED INDEX ON s (v)", &mut with_index, Tick(0)).unwrap();
        for sql in [
            "SELECT v FROM s WHERE v >= 8.0 ORDER BY v",
            "SELECT v FROM s WHERE v > 2 AND v <= 5 ORDER BY v",
            "SELECT v FROM s WHERE v BETWEEN 3 AND 7 ORDER BY v",
            "SELECT COUNT(*) FROM s WHERE v < 4",
        ] {
            let a = run(sql, &mut with_index);
            let b = run(sql, &mut without);
            assert_eq!(a.rows, b.rows, "{sql}");
            assert!(a.used_index, "{sql} should range-probe the ordered index");
            assert!(a.scanned <= b.scanned, "{sql}");
        }
        // Equality also falls back onto the ordered index.
        let r = run("SELECT v FROM s WHERE v = 3.0", &mut with_index);
        assert!(r.used_index);
        assert_eq!(r.len(), 1);
        // Consume through a range probe stays consistent.
        let r = run("SELECT v FROM s WHERE v >= 10 CONSUME", &mut with_index);
        assert_eq!(r.consumed.len(), 2);
        let r = run("SELECT COUNT(*) FROM s WHERE v >= 10", &mut with_index);
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn index_probe_misses_fall_back_to_candidates_only() {
        let mut t = table();
        t.create_index("sensor").unwrap();
        let r = run("SELECT * FROM s WHERE sensor = 99", &mut t);
        assert!(r.is_empty());
        assert!(r.used_index);
        assert_eq!(r.scanned, 0);
    }

    #[test]
    fn distinct_deduplicates_and_consumes_contributors() {
        let mut t = table(); // sensor = i % 3 → values {0,1,2}, 4 rows each
        let r = run("SELECT DISTINCT sensor FROM s ORDER BY sensor", &mut t);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ]
        );
        // DISTINCT + LIMIT + CONSUME removes every contributor of the
        // returned distinct rows (here: all rows with sensor 0).
        let r = run(
            "SELECT DISTINCT sensor FROM s ORDER BY sensor LIMIT 1 CONSUME",
            &mut t,
        );
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
        assert_eq!(r.consumed.len(), 4, "all four sensor-0 rows consumed");
        assert_eq!(t.live_count(), 8);
    }

    #[test]
    fn having_filters_groups_by_output_row() {
        let mut t = table();
        // Every sensor has 4 rows; sums are 18/22/26 for sensors 0/1/2.
        let r = run(
            "SELECT sensor, SUM(v) AS total FROM s GROUP BY sensor              HAVING total > 20 ORDER BY total",
            &mut t,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert_eq!(r.rows[1][0], Value::Int(2));
        // HAVING can also reference the default aggregate name.
        let r = run(
            "SELECT sensor, COUNT(*) FROM s GROUP BY sensor HAVING sensor = 2",
            &mut t,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn having_without_aggregation_is_rejected() {
        let mut t = table();
        assert!(execute_statement("SELECT v FROM s HAVING v > 1", &mut t, Tick(0)).is_err());
        assert!(execute_statement("SELECT DISTINCT COUNT(*) FROM s", &mut t, Tick(0)).is_err());
    }

    #[test]
    fn freshness_weighted_aggregates() {
        let mut t = table(); // 12 rows, all fully fresh
                             // Fully fresh: FCOUNT == COUNT, FAVG == AVG.
        let r = run("SELECT FCOUNT(*), FAVG(v), FSUM(v) FROM s", &mut t);
        assert_eq!(r.rows[0][0], Value::Float(12.0));
        assert_eq!(r.rows[0][1], Value::Float(5.5));
        assert_eq!(r.rows[0][2], Value::Float(66.0));
        // Decay half the rows to freshness 0.5: FCOUNT drops to 9, and
        // FAVG tilts toward the fresh half.
        for i in 0..6u64 {
            t.decay(TupleId(i), 0.5);
        }
        let r = run("SELECT FCOUNT(*), FAVG(v), AVG(v) FROM s", &mut t);
        assert_eq!(r.rows[0][0], Value::Float(9.0));
        let favg = r.rows[0][1].as_f64().unwrap();
        let avg = r.rows[0][2].as_f64().unwrap();
        assert_eq!(avg, 5.5, "plain AVG ignores freshness");
        assert!(
            favg > avg,
            "stale low-v rows are discounted: {favg} vs {avg}"
        );
        // Empty match → FAVG NULL, FCOUNT 0.
        let r = run("SELECT FCOUNT(*), FAVG(v) FROM s WHERE sensor = 99", &mut t);
        assert_eq!(r.rows[0][0], Value::Float(0.0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn case_expressions_project_and_filter() {
        let mut t = table();
        let r = run(
            "SELECT sensor, CASE WHEN v < 4 THEN 'low' WHEN v < 8 THEN 'mid'              ELSE 'high' END AS band FROM s ORDER BY v LIMIT 12",
            &mut t,
        );
        let bands: Vec<&str> = r.rows.iter().map(|row| row[1].as_str().unwrap()).collect();
        assert_eq!(&bands[..4], &["low", "low", "low", "low"]);
        assert_eq!(&bands[8..], &["high", "high", "high", "high"]);
        // CASE with no ELSE yields NULL for unmatched rows.
        let r = run("SELECT CASE WHEN v > 100 THEN 1 END FROM s LIMIT 1", &mut t);
        assert!(r.rows[0][0].is_null());
        // CASE in WHERE.
        let r = run(
            "SELECT COUNT(*) FROM s WHERE CASE WHEN sensor = 0 THEN TRUE ELSE FALSE END",
            &mut t,
        );
        assert_eq!(r.scalar().unwrap(), &Value::Int(4));
    }

    #[test]
    fn stddev_and_variance_aggregates() {
        let mut t = table(); // v = 0..12 → population variance 11.9166…
        let r = run("SELECT VARIANCE(v), STDDEV(v) FROM s", &mut t);
        let var = r.rows[0][0].as_f64().unwrap();
        let sd = r.rows[0][1].as_f64().unwrap();
        let expected: f64 = (0..12).map(|i| (i as f64 - 5.5).powi(2)).sum::<f64>() / 12.0;
        assert!((var - expected).abs() < 1e-9, "var {var} vs {expected}");
        assert!((sd - expected.sqrt()).abs() < 1e-9);
        // Empty group → NULL.
        let r = run("SELECT STDDEV(v) FROM s WHERE sensor = 99", &mut t);
        assert!(r.rows[0][0].is_null());
        // Per-group spreads partition correctly.
        let r = run(
            "SELECT sensor, STDDEV(v) FROM s GROUP BY sensor ORDER BY sensor",
            &mut t,
        );
        assert_eq!(r.len(), 3);
        for row in &r.rows {
            // Each sensor's v values are {k, k+3, k+6, k+9} → stddev ≈ 3.354.
            let sd = row[1].as_f64().unwrap();
            assert!((sd - 45f64.sqrt() / 2.0).abs() < 1e-9, "sd {sd}");
        }
    }

    #[test]
    fn count_distinct_is_exact_per_group() {
        let mut t = table(); // sensor = i % 3, tag = t{i % 2}
        let r = run(
            "SELECT COUNT(DISTINCT sensor), COUNT(DISTINCT tag) FROM s",
            &mut t,
        );
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[0][1], Value::Int(2));
        // Per group: each sensor has rows with both tags… sensor i%3 vs
        // tag i%2: sensor 0 rows are i = 0,3,6,9 → tags t0,t1,t0,t1 → 2.
        let r = run(
            "SELECT sensor, COUNT(DISTINCT tag) AS tags FROM s GROUP BY sensor ORDER BY sensor",
            &mut t,
        );
        assert_eq!(r.len(), 3);
        assert!(r.rows.iter().all(|row| row[1] == Value::Int(2)));
        // NULLs are not counted.
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t2 = TableStore::new(schema, StorageConfig::default()).unwrap();
        for v in [Some(1i64), None, Some(1), Some(2), None] {
            t2.insert(vec![Value::from(v)], Tick(0)).unwrap();
        }
        let r = run("SELECT COUNT(DISTINCT x) FROM t", &mut t2);
        assert_eq!(r.scalar().unwrap(), &Value::Int(2));
        // Alias + HAVING over it.
        let r = run(
            "SELECT sensor, COUNT(DISTINCT tag) AS tags FROM s GROUP BY sensor              HAVING tags > 1",
            &mut t,
        );
        assert_eq!(r.len(), 3);
        // DISTINCT only valid on COUNT.
        assert!(execute_statement("SELECT SUM(DISTINCT v) FROM s", &mut t, Tick(0)).is_err());
    }

    #[test]
    fn delete_statement_discards_without_reading() {
        let mut t = table();
        let r = run("DELETE FROM s WHERE sensor = 0", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(t.live_count(), 8);
        assert_eq!(t.evicted_deleted(), 4, "owner deletions, not consumption");
        assert_eq!(t.evicted_consumed(), 0);
        // Unconditional delete empties the container.
        let r = run("DELETE FROM s", &mut t);
        assert_eq!(r.rows[0][0], Value::Int(8));
        assert_eq!(t.live_count(), 0);
        // Bad predicates error.
        assert!(execute_statement("DELETE FROM s WHERE zzz = 1", &mut t, Tick(0)).is_err());
    }

    #[test]
    fn create_index_statement_builds_probe_path() {
        let mut t = table();
        let r = run("CREATE INDEX ON s (sensor)", &mut t);
        assert_eq!(r.columns, vec!["indexed".to_string()]);
        let r = run("SELECT COUNT(*) FROM s WHERE sensor = 1", &mut t);
        assert!(r.used_index);
        assert_eq!(r.scalar().unwrap(), &Value::Int(4));
        // Duplicate index errors cleanly.
        assert!(execute_statement("CREATE INDEX ON s (sensor)", &mut t, Tick(0)).is_err());
        assert!(execute_statement("CREATE INDEX ON s (zzz)", &mut t, Tick(0)).is_err());
    }

    #[test]
    fn consumed_tuples_carry_their_values() {
        let mut t = table();
        let r = run("SELECT * FROM sensors WHERE v = 3.0 CONSUME", &mut t);
        assert_eq!(r.consumed.len(), 1);
        assert_eq!(r.consumed[0].values[1], Value::Float(3.0));
        assert_eq!(
            r.consumed[0].meta.access_count, 1,
            "consumption counts as a read"
        );
    }
}
