//! Plan execution with consume semantics.
//!
//! Execution order:
//!
//! 1. **Scan and shape, in one pass** — the extent walks its shards and
//!    segments in id order, skipping what the
//!    [`PruningPredicate`](crate::prune::PruningPredicate) rules out, and
//!    hands every tuple the predicate accepts straight to the statement's
//!    sink; nothing looks a match up a second time. The planner bound every
//!    column reference to its position, so evaluation does no name
//!    lookups. A scalar sink projects the row and offers it to the top-n
//!    selection, the one `ORDER BY … LIMIT` path, which holds at most `2·n`
//!    candidates (`DISTINCT` first folds each row shape to its first
//!    occurrence). An aggregate sink folds the row into its group's
//!    accumulators; the implicit global group is a single slot, no map.
//! 2. **Finish** — groups become output rows, `HAVING` filters them, and
//!    the same top-n selection orders and limits them by output column.
//! 3. **Consume** — if the statement says `CONSUME`, delete exactly the
//!    tuples whose rows were *returned* (after LIMIT in scalar mode; every
//!    predicate match in aggregate mode, since the aggregate consumed their
//!    information — including rows of groups a `HAVING` clause later
//!    filtered from the output, which were still read to compute it).
//! 4. **Touch** — surviving returned tuples get their access metadata
//!    bumped, feeding the importance fungus and the waste metric.
//!
//! The ids consumed or touched are the ones the same pass kept. A failing
//! statement fails as if the scan had finished before any row was shaped:
//! a predicate error wins over a projection, sort-key or aggregate error,
//! and of those the first in id order wins — whether or not its row would
//! have made the top `n`.

use std::cmp::Ordering;
use std::collections::HashMap;

use fungus_storage::TombstoneReason;
use fungus_types::{ColumnDef, DataType, FungusError, Result, Schema, Tick, Tuple, TupleId, Value};

use crate::expr::{AggFunc, Expr};
use crate::extent::{QueryExtent, ReadExtent};
use crate::parser::{parse_statement, Projection, SelectStatement, SortKey, Statement};
use crate::plan::{LogicalPlan, PlannedExpr, Planner};

/// The answer set `A` of a query, plus the consumed tuples (the paper's
/// "reduced extent" delta) and scan diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Tuples removed by consume semantics — routed to distillation by
    /// the engine before they are dropped. Scalar rows are consumed in
    /// output order, `DISTINCT` contributors and aggregate inputs in id
    /// order.
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
        Statement::Delete {
            table: name,
            predicate,
        } => {
            // A delete is the scan of `SELECT * … WHERE p`; the rows are
            // discarded unread.
            let select = SelectStatement {
                distinct: false,
                projections: vec![Projection::Wildcard],
                table: name,
                predicate,
                group_by: Vec::new(),
                having: None,
                order_by: Vec::new(),
                limit: None,
                consume: false,
            };
            let plan = Planner.plan(&select, table.schema())?;
            let mut matched = Vec::new();
            table.scan(&plan, now, &mut |t| matched.push(t.meta.id))?;
            let mut deleted = 0i64;
            for id in matched {
                if table.delete(id, TombstoneReason::Deleted).is_some() {
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
            "CREATE CONTAINER `{}` must run at the database layer \
             (Database::execute_ddl), not against a single table",
            stmt.name
        ))),
        Statement::CreateIndex {
            column, ordered, ..
        } => {
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
            let inserted =
                insert_literal_rows(rows, now, |values| table.insert(values, now).map(drop))?;
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

/// Evaluates `INSERT … VALUES` rows in order and hands each to `insert`,
/// stopping at the first error (rows before it stay inserted). Returns
/// how many were inserted. Literal rows bind against no columns, so a
/// column reference fails with [`FungusError::UnknownColumn`].
pub fn insert_literal_rows(
    rows: Vec<Vec<Expr>>,
    now: Tick,
    mut insert: impl FnMut(Vec<Value>) -> Result<()>,
) -> Result<i64> {
    let empty = Schema::new(vec![])?;
    let dummy = Tuple::new(TupleId(0), now, vec![]);
    let inserted = rows.len() as i64;
    // By value: each parsed row is freed as soon as its values are built,
    // so the rows being inserted can reuse its memory.
    for row in rows {
        let values = row
            .iter()
            .map(|e| match e {
                Expr::Literal(v) => Ok(v.clone()),
                e => e.bind(&empty)?.eval(&dummy, &empty, now),
            })
            .collect::<Result<_>>()?;
        insert(values)?;
    }
    Ok(inserted)
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
            table.touch_by(*id, now, 1);
        }
    }
    Ok(result)
}

/// Executes the **read phases** of a plan: the one scan-and-shape pass
/// (the extent owns the access-path choice — indexes, zone-map pruning,
/// shard pruning) and the finish — everything up to (but excluding) the
/// consume/touch side effects.
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
    let mut sink = Sink {
        plan,
        schema: table.schema(),
        now,
        shape: Shape::new(plan),
        error: None,
    };
    let scan = table.scan(plan, now, &mut |t| sink.offer(t))?;
    let (rows, returned_ids) = sink.finish()?;
    Ok((
        ResultSet {
            columns: plan.outputs.iter().map(|o| o.name.clone()).collect(),
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

/// What the scan feeds: the statement's shape plus the first error
/// shaping raised. The error is held, not returned, so the scan runs on
/// and a later predicate error still wins.
struct Sink<'p> {
    plan: &'p LogicalPlan,
    schema: &'p Schema,
    now: Tick,
    shape: Shape<'p>,
    error: Option<FungusError>,
}

/// A statement's shape, as it accumulates during the scan.
enum Shape<'p> {
    /// Scalar rows: each goes to the top `n` with its id, projected into
    /// `row` and keyed into `keys` (buffers kept between rows).
    Rows {
        top: TopN<'p, TupleId, Vec<Value>>,
        row: Vec<Value>,
        keys: Vec<Value>,
    },
    /// `SELECT DISTINCT`: each row shape's first occurrence, in order,
    /// and where to find it by shape.
    Distinct {
        firsts: Vec<FirstRow>,
        by_row: HashMap<Vec<Value>, usize>,
    },
    /// Aggregate mode.
    Groups(Groups<'p>),
}

/// The first occurrence of a `DISTINCT` row shape.
struct FirstRow {
    row: Vec<Value>,
    keys: Vec<Value>,
    /// Every tuple that produced this shape, in id order: a returned
    /// distinct row consumes all of them.
    ids: Vec<TupleId>,
}

impl<'p> Shape<'p> {
    fn new(plan: &'p LogicalPlan) -> Self {
        if plan.aggregate {
            Shape::Groups(Groups::new(plan))
        } else if plan.distinct {
            Shape::Distinct {
                firsts: Vec::new(),
                by_row: HashMap::new(),
            }
        } else {
            Shape::Rows {
                top: TopN::new(&plan.order_by, plan.limit),
                row: Vec::with_capacity(plan.outputs.len()),
                keys: Vec::with_capacity(plan.order_by.len()),
            }
        }
    }
}

impl Sink<'_> {
    fn offer(&mut self, tuple: &Tuple) {
        if self.error.is_none() {
            if let Err(e) = self.fold(tuple) {
                self.error = Some(e);
            }
        }
    }

    fn fold(&mut self, tuple: &Tuple) -> Result<()> {
        let (plan, schema, now) = (self.plan, self.schema, self.now);
        let project = |row: &mut Vec<Value>, keys: &mut Vec<Value>| -> Result<()> {
            for out in &plan.outputs {
                match &out.expr {
                    PlannedExpr::Scalar(e) => row.push(e.eval(tuple, schema, now)?),
                    _ => unreachable!("scalar mode has only scalar outputs"),
                }
            }
            for key in &plan.order_by {
                keys.push(key.expr.eval(tuple, schema, now)?);
            }
            Ok(())
        };
        match &mut self.shape {
            Shape::Rows { top, row, keys } => {
                row.clear();
                keys.clear();
                project(row, keys)?;
                if top.admits(keys) {
                    let row = std::mem::replace(row, Vec::with_capacity(plan.outputs.len()));
                    let keys = std::mem::replace(keys, Vec::with_capacity(plan.order_by.len()));
                    top.push(keys, tuple.meta.id, row);
                }
            }
            Shape::Distinct { firsts, by_row } => {
                let (mut row, mut keys) = (Vec::new(), Vec::new());
                project(&mut row, &mut keys)?;
                match by_row.get(&row) {
                    Some(&i) => firsts[i].ids.push(tuple.meta.id),
                    None => {
                        by_row.insert(row.clone(), firsts.len());
                        firsts.push(FirstRow {
                            row,
                            keys,
                            ids: vec![tuple.meta.id],
                        });
                    }
                }
            }
            Shape::Groups(groups) => groups.fold(tuple, schema, now)?,
        }
        Ok(())
    }

    /// The output rows and the ids they were drawn from.
    fn finish(self) -> Result<(Vec<Vec<Value>>, Vec<TupleId>)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let plan = self.plan;
        Ok(match self.shape {
            Shape::Rows { top, .. } => {
                let (ids, rows) = top.finish().into_iter().unzip();
                (rows, ids)
            }
            Shape::Distinct { firsts, .. } => {
                let mut top = TopN::new(&plan.order_by, plan.limit);
                for first in firsts {
                    if top.admits(&first.keys) {
                        top.push(first.keys, first.ids[0], (first.row, first.ids));
                    }
                }
                let (rows, ids): (Vec<_>, Vec<_>) =
                    top.finish().into_iter().map(|(_, item)| item).unzip();
                let mut ids: Vec<TupleId> = ids.into_iter().flatten().collect();
                ids.sort_unstable();
                (rows, ids)
            }
            Shape::Groups(groups) => groups.finish(self.now)?,
        })
    }
}

/// The one `ORDER BY … LIMIT` path.
///
/// Each item comes with sort keys and an arrival stamp `S`, and items
/// arrive in stamp order: ids for scalar rows, the first id for
/// `DISTINCT` rows, first appearance for groups. Equal keys keep that
/// order. With a limit `n` at most `2·n` candidates are held: at `2·n` the
/// best `n` are kept, and from then on an item enters only if it beats
/// the worst of them. Without a limit everything is kept and sorted.
struct TopN<'p, S, T> {
    order: &'p [SortKey],
    limit: Option<usize>,
    kept: Vec<(Vec<Value>, S, T)>,
    /// Sort keys of the worst item the last trim kept.
    floor: Option<Vec<Value>>,
}

impl<'p, S: Ord, T> TopN<'p, S, T> {
    fn new(order: &'p [SortKey], limit: Option<usize>) -> Self {
        TopN {
            order,
            limit,
            kept: Vec::new(),
            floor: None,
        }
    }

    /// Whether an item with sort keys `keys`, arriving now, can still be
    /// among the returned ones. Ties lose: the kept item arrived first.
    fn admits(&self, keys: &[Value]) -> bool {
        self.limit != Some(0)
            && self
                .floor
                .as_deref()
                .is_none_or(|floor| cmp_keys(self.order, keys, floor) == Ordering::Less)
    }

    /// Adds an item [`admits`](Self::admits) let in.
    fn push(&mut self, keys: Vec<Value>, stamp: S, item: T) {
        self.kept.push((keys, stamp, item));
        if let Some(n) = self
            .limit
            .filter(|&n| n > 0 && self.kept.len() >= n.saturating_mul(2))
        {
            let order = self.order;
            self.kept
                .select_nth_unstable_by(n - 1, |a, b| rank(order, a, b));
            self.kept.truncate(n);
            self.floor = Some(self.kept[n - 1].0.clone());
        }
    }

    /// The returned items with their stamps, in output order.
    fn finish(mut self) -> Vec<(S, T)> {
        let order = self.order;
        self.kept.sort_unstable_by(|a, b| rank(order, a, b));
        self.kept.truncate(self.limit.unwrap_or(usize::MAX));
        self.kept
            .into_iter()
            .map(|(_, stamp, item)| (stamp, item))
            .collect()
    }
}

/// Output order: sort keys, then arrival.
fn rank<S: Ord, T>(order: &[SortKey], a: &(Vec<Value>, S, T), b: &(Vec<Value>, S, T)) -> Ordering {
    cmp_keys(order, &a.0, &b.0).then_with(|| a.1.cmp(&b.1))
}

fn cmp_keys(order: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for ((key, x), y) in order.iter().zip(a).zip(b) {
        let ord = x.cmp_total(y);
        let ord = if key.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
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

/// Aggregate mode's state during the scan.
struct Groups<'p> {
    plan: &'p LogicalPlan,
    /// Each aggregate output's argument, in output order (`None` for the
    /// `*` forms).
    args: Vec<Option<&'p Expr>>,
    /// The accumulators a new group starts with.
    fresh: Vec<Acc>,
    /// Group number by key. Unused without `GROUP BY`: the one implicit
    /// group is group 0.
    by_key: HashMap<Vec<Value>, usize>,
    /// The current row's key, kept between rows so a lookup allocates
    /// nothing.
    key: Vec<Value>,
    /// `(key, accumulators)` per group, in first-seen order.
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
    /// Every match, in id order: the aggregate read them all.
    ids: Vec<TupleId>,
}

impl<'p> Groups<'p> {
    fn new(plan: &'p LogicalPlan) -> Self {
        let (args, fresh) = plan
            .outputs
            .iter()
            .filter_map(|o| match &o.expr {
                PlannedExpr::Aggregate(f, arg) => Some((arg.as_ref(), Acc::new(*f))),
                PlannedExpr::CountDistinct(arg) => {
                    Some((Some(arg), Acc::Distinct(std::collections::HashSet::new())))
                }
                _ => None,
            })
            .unzip();
        let mut groups = Groups {
            plan,
            args,
            fresh,
            by_key: HashMap::new(),
            key: Vec::with_capacity(plan.group_by.len()),
            groups: Vec::new(),
            ids: Vec::new(),
        };
        if plan.group_by.is_empty() {
            // Implicit single group, present even with zero matches.
            groups.groups.push((Vec::new(), groups.fresh.clone()));
        }
        groups
    }

    fn fold(&mut self, tuple: &Tuple, schema: &Schema, now: Tick) -> Result<()> {
        self.ids.push(tuple.meta.id);
        let gid = if self.plan.group_by.is_empty() {
            0
        } else {
            let key = &mut self.key;
            key.clear();
            key.extend(
                self.plan
                    .group_by
                    .iter()
                    .map(|c| tuple.values[c.index].clone()),
            );
            match self.by_key.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    self.groups.push((key.clone(), self.fresh.clone()));
                    self.by_key.insert(key.clone(), self.groups.len() - 1);
                    self.groups.len() - 1
                }
            }
        };
        let freshness = tuple.meta.freshness.get();
        for (acc, arg) in self.groups[gid].1.iter_mut().zip(&self.args) {
            let value = arg.map(|e| e.eval(tuple, schema, now)).transpose()?;
            acc.fold(value.as_ref(), freshness)?;
        }
        Ok(())
    }

    /// One row per group, filtered by `HAVING`, then sorted against the
    /// *output* schema and limited; plus every id the groups read.
    fn finish(self, now: Tick) -> Result<(Vec<Vec<Value>>, Vec<TupleId>)> {
        let plan = self.plan;
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(self.groups.len());
        for (key, accs) in self.groups {
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
                        "HAVING/ORDER BY with aggregates requires unique output column names"
                            .into(),
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

        let mut top = TopN::new(&plan.order_by, plan.limit);
        for (i, row) in rows.into_iter().enumerate() {
            let keys = match &out_schema {
                Some(out_schema) if !plan.order_by.is_empty() => {
                    let synthetic = Tuple::new(TupleId(0), now, row.clone());
                    plan.order_by
                        .iter()
                        .map(|key| key.expr.eval(&synthetic, out_schema, now))
                        .collect::<Result<Vec<_>>>()?
                }
                _ => Vec::new(),
            };
            if top.admits(&keys) {
                top.push(keys, i, row);
            }
        }
        let rows = top.finish().into_iter().map(|(_, row)| row).collect();
        Ok((rows, self.ids))
    }
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
            "SELECT sensor, SUM(v) AS total FROM s GROUP BY sensor \
             HAVING total > 20 ORDER BY total",
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
            "SELECT sensor, CASE WHEN v < 4 THEN 'low' WHEN v < 8 THEN 'mid' \
             ELSE 'high' END AS band FROM s ORDER BY v LIMIT 12",
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
            "SELECT sensor, COUNT(DISTINCT tag) AS tags FROM s GROUP BY sensor \
             HAVING tags > 1",
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
    fn database_layer_statements_say_where_they_run() {
        let mut t = table();
        let err = execute_statement("CREATE CONTAINER c (a INT)", &mut t, Tick(0)).unwrap_err();
        assert_eq!(
            err,
            FungusError::PlanError(
                "CREATE CONTAINER `c` must run at the database layer \
                 (Database::execute_ddl), not against a single table"
                    .into()
            )
        );
    }

    #[test]
    fn errors_do_not_depend_on_which_rows_make_the_top_n() {
        let mut t = table(); // v = 0..12; only v = 11 makes LENGTH(sensor) run
        let bad_row = "CASE WHEN v > 10 THEN LENGTH(sensor) ELSE 0 END";
        for tail in ["ORDER BY v LIMIT 1", "ORDER BY v DESC LIMIT 0", "LIMIT 2"] {
            let sql = format!("SELECT {bad_row} FROM s {tail}");
            let err = execute_statement(&sql, &mut t, Tick(0)).unwrap_err();
            assert!(err.to_string().contains("LENGTH"), "{sql}: {err}");
        }
        // A predicate error on the last row wins over a projection error on
        // the first, as if the scan had finished before any row was shaped.
        let sql = format!("SELECT ABS(tag) FROM s WHERE ({bad_row}) = 0");
        let err = execute_statement(&sql, &mut t, Tick(0)).unwrap_err();
        assert!(err.to_string().contains("LENGTH"), "{err}");
        assert!(
            t.iter_live().all(|x| x.meta.access_count == 0),
            "nothing touched"
        );
    }

    #[test]
    fn top_n_breaks_ties_by_id_and_holds_at_most_twice_the_limit() {
        let mut t = table(); // sensor = i % 3: four-way ties
        let r = run("SELECT $id FROM s ORDER BY sensor DESC LIMIT 5", &mut t);
        let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![2, 5, 8, 11, 1]);
        let order = [SortKey {
            expr: Expr::lit(0i64),
            descending: false,
        }];
        let mut top = TopN::new(&order, Some(3));
        for i in 0..100 {
            let keys = vec![Value::Int(100 - i)];
            if top.admits(&keys) {
                top.push(keys, i, ());
            }
            assert!(top.kept.len() < 6);
        }
        assert_eq!(top.finish(), vec![(99, ()), (98, ()), (97, ())]);
        // A limit past any row count keeps everything, in order.
        let r = run(
            "SELECT $id FROM s ORDER BY v DESC LIMIT 9223372036854775807",
            &mut t,
        );
        assert_eq!(r.rows.len(), 12);
        assert_eq!(r.rows[0][0], Value::Int(11));
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
