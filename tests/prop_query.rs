//! Property tests over the query layer: parser round-trips, pruning
//! soundness, consume-law algebra, aggregate consistency, and the one-pass
//! executor against the two-phase executor it replaced.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};

use proptest::prelude::*;

use spacefungus::fungus_query::{
    execute_readonly, execute_statement, parse_expr, AggFunc, CmpOp, ColumnBound, Expr,
    LogicalPlan, MetaRanges, PlannedExpr, Planner, ProjExpr, Projection, ReadExtent,
    SelectStatement,
};
use spacefungus::fungus_shard::ExtentSnapshot;
use spacefungus::fungus_storage::TableStore;
use spacefungus::prelude::*;

// ------------------------------------------------------------ strategies --

/// Expressions over columns a (Int), b (Float), s (Str), with literals
/// chosen so every expression is well-typed for evaluation.
fn arb_num_operand() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::col("a")),
        Just(Expr::col("b")),
        (-100i64..100).prop_map(Expr::lit),
        (-100.0f64..100.0).prop_map(Expr::lit),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    let leaf =
        (arb_num_operand(), arb_num_operand(), arb_cmp()).prop_map(|(l, r, op)| l.cmp(op, r));
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn test_table(rows: &[(i64, f64)]) -> TableStore {
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]).unwrap();
    let mut t = TableStore::new(
        schema,
        StorageConfig {
            segment_capacity: 8,
            ..Default::default()
        },
    )
    .unwrap();
    for (i, (a, b)) in rows.iter().enumerate() {
        t.insert(vec![Value::Int(*a), Value::float(*b)], Tick(i as u64))
            .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The parser never panics, whatever bytes it is fed — it either
    /// produces a statement or a clean `ParseError` with an offset.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,60}") {
        let _ = spacefungus::fungus_query::parse_statement(&input);
        let _ = parse_expr(&input);
    }

    /// SQL-looking garbage (keyword soup) also parses or fails cleanly,
    /// and parse errors carry in-bounds offsets.
    #[test]
    fn parser_fails_cleanly_on_keyword_soup(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "SELECT", "FROM", "WHERE", "CONSUME", "AND", "OR", "NOT",
                "GROUP", "BY", "ORDER", "LIMIT", "IN", "BETWEEN", "LIKE",
                "IS", "NULL", "COUNT", "(", ")", ",", "*", "=", "<", "a",
                "r", "1", "0.5", "'s'", "$freshness", "$age",
            ]),
            0..12,
        )
    ) {
        let input = words.join(" ");
        if let Err(FungusError::ParseError { offset, .. }) =
            spacefungus::fungus_query::parse_statement(&input)
        {
            prop_assert!(offset <= input.len(), "offset {offset} beyond input");
        }
    }

    /// Display → parse is the identity on expression trees.
    #[test]
    fn parser_roundtrips_pretty_printed_expressions(e in arb_predicate()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(reparsed, e);
    }

    /// Zone-map pruning never changes an answer: a full SELECT with a
    /// prunable predicate returns exactly the brute-force filter.
    #[test]
    fn pruning_is_sound(
        rows in proptest::collection::vec((-50i64..50, -50.0f64..50.0), 0..100),
        lo in -60i64..60,
        width in 0i64..40,
    ) {
        let mut table = test_table(&rows);
        let hi = lo + width;
        let sql = format!("SELECT a, b FROM t WHERE a BETWEEN {lo} AND {hi}");
        let result = execute_statement(&sql, &mut table, Tick(100)).unwrap();
        let expected: Vec<(i64, f64)> = rows
            .iter()
            .copied()
            .filter(|(a, _)| *a >= lo && *a <= hi)
            .collect();
        prop_assert_eq!(result.len(), expected.len());
        for (row, (a, b)) in result.rows.iter().zip(expected) {
            prop_assert_eq!(&row[0], &Value::Int(a));
            prop_assert_eq!(row[1].sql_eq(&Value::float(b)), Some(true));
        }
        // The zone-maps-off ablation gives identical answers (just no
        // segment skipping).
        let schema =
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]).unwrap();
        let mut unzoned = TableStore::new(
            schema,
            StorageConfig { segment_capacity: 8, zone_maps: false, ..Default::default() },
        )
        .unwrap();
        for (i, (a, b)) in rows.iter().enumerate() {
            unzoned.insert(vec![Value::Int(*a), Value::float(*b)], Tick(i as u64)).unwrap();
        }
        let unpruned = execute_statement(&sql, &mut unzoned, Tick(100)).unwrap();
        prop_assert_eq!(&unpruned.rows, &result.rows);
        prop_assert_eq!(unpruned.pruned_segments, 0, "nothing to prune without zones");
    }

    /// Law 2 algebra: after `CONSUME`, extent = old extent − answer set,
    /// and nothing matching the predicate remains.
    #[test]
    fn consume_law_partitions_the_extent(
        rows in proptest::collection::vec((-20i64..20, -50.0f64..50.0), 0..60),
        pivot in -25i64..25,
    ) {
        let mut table = test_table(&rows);
        let before = table.live_count();
        let sql = format!("SELECT a FROM t WHERE a >= {pivot} CONSUME");
        let result = execute_statement(&sql, &mut table, Tick(100)).unwrap();
        prop_assert_eq!(result.consumed.len(), result.len());
        prop_assert_eq!(table.live_count(), before - result.len());
        // σ_P(R) is gone.
        let check = format!("SELECT COUNT(*) FROM t WHERE a >= {pivot}");
        let rest = execute_statement(&check, &mut table, Tick(100)).unwrap();
        prop_assert_eq!(rest.scalar().unwrap(), &Value::Int(0));
        // And the complement survives intact.
        let complement = rows.iter().filter(|(a, _)| *a < pivot).count();
        prop_assert_eq!(table.live_count(), complement);
    }

    /// Aggregates agree with directly computed values for any data.
    #[test]
    fn aggregates_match_direct_computation(
        rows in proptest::collection::vec((-20i64..20, -50.0f64..50.0), 1..80),
    ) {
        let mut table = test_table(&rows);
        let result = execute_statement(
            "SELECT COUNT(*), SUM(b), MIN(a), MAX(a), AVG(b) FROM t",
            &mut table,
            Tick(0),
        )
        .unwrap();
        let row = &result.rows[0];
        let n = rows.len() as i64;
        let sum: f64 = rows.iter().map(|(_, b)| *b).sum();
        let min = rows.iter().map(|(a, _)| *a).min().unwrap();
        let max = rows.iter().map(|(a, _)| *a).max().unwrap();
        prop_assert_eq!(&row[0], &Value::Int(n));
        prop_assert!((row[1].as_f64().unwrap() - sum).abs() < 1e-6);
        prop_assert_eq!(&row[2], &Value::Int(min));
        prop_assert_eq!(&row[3], &Value::Int(max));
        prop_assert!((row[4].as_f64().unwrap() - sum / n as f64).abs() < 1e-6);
    }

    /// GROUP BY partitions: per-group COUNT(*)s sum to the total count and
    /// every group key is distinct.
    #[test]
    fn group_by_partitions_rows(
        rows in proptest::collection::vec((-5i64..5, -50.0f64..50.0), 0..80),
    ) {
        let mut table = test_table(&rows);
        let result = execute_statement(
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            &mut table,
            Tick(0),
        )
        .unwrap();
        let total: i64 = result.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        prop_assert_eq!(total, rows.len() as i64);
        let mut keys: Vec<&Value> = result.rows.iter().map(|r| &r[0]).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "group keys are unique");
    }

    /// ORDER BY + LIMIT returns the true top-k.
    #[test]
    fn order_by_limit_is_top_k(
        rows in proptest::collection::vec((-100i64..100, -50.0f64..50.0), 0..60),
        k in 0usize..10,
    ) {
        let mut table = test_table(&rows);
        let sql = format!("SELECT a FROM t ORDER BY a DESC LIMIT {k}");
        let result = execute_statement(&sql, &mut table, Tick(0)).unwrap();
        let mut expected: Vec<i64> = rows.iter().map(|(a, _)| *a).collect();
        expected.sort_unstable_by(|x, y| y.cmp(x));
        expected.truncate(k);
        let got: Vec<i64> = result.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        prop_assert_eq!(got, expected);
    }

    /// A secondary index never changes an answer: identical tables with
    /// and without an index on `a` agree on every equality/IN query, and
    /// consume-through-index removes the same tuples.
    #[test]
    fn index_scan_is_transparent(
        rows in proptest::collection::vec((-10i64..10, -50.0f64..50.0), 0..60),
        probe in -12i64..12,
        consume in proptest::bool::ANY,
    ) {
        let mut indexed = test_table(&rows);
        let mut plain = test_table(&rows);
        indexed.create_index("a").unwrap();
        let sql = format!(
            "SELECT a, b FROM t WHERE a = {probe}{}",
            if consume { " CONSUME" } else { "" }
        );
        let r1 = execute_statement(&sql, &mut indexed, Tick(5)).unwrap();
        let r2 = execute_statement(&sql, &mut plain, Tick(5)).unwrap();
        prop_assert_eq!(&r1.rows, &r2.rows);
        prop_assert_eq!(r1.used_index, !rows.is_empty() || r1.used_index);
        prop_assert_eq!(indexed.live_count(), plain.live_count());
        // After consuming, both stores agree the probe rows are gone.
        if consume {
            let count = format!("SELECT COUNT(*) FROM t WHERE a = {probe}");
            let c1 = execute_statement(&count, &mut indexed, Tick(5)).unwrap();
            prop_assert_eq!(c1.scalar().unwrap(), &Value::Int(0));
        }
    }

    /// An ordered index never changes an answer on range queries.
    #[test]
    fn ordered_index_is_transparent(
        rows in proptest::collection::vec((-10i64..10, -50.0f64..50.0), 0..60),
        lo in -12i64..12,
        width in 0i64..10,
    ) {
        let mut indexed = test_table(&rows);
        let mut plain = test_table(&rows);
        indexed.create_ord_index("a").unwrap();
        let hi = lo + width;
        for sql in [
            format!("SELECT a, b FROM t WHERE a BETWEEN {lo} AND {hi}"),
            format!("SELECT a FROM t WHERE a > {lo}"),
            format!("SELECT a FROM t WHERE a <= {hi}"),
            format!("SELECT COUNT(*) FROM t WHERE a >= {lo} AND a < {hi}"),
        ] {
            let r1 = execute_statement(&sql, &mut indexed, Tick(5)).unwrap();
            let r2 = execute_statement(&sql, &mut plain, Tick(5)).unwrap();
            prop_assert_eq!(&r1.rows, &r2.rows, "{}", sql);
            prop_assert!(r1.used_index || rows.is_empty(), "{}", sql);
        }
    }

    /// Arbitrary well-typed predicates evaluate identically through the
    /// engine and through direct brute-force evaluation.
    #[test]
    fn engine_matches_brute_force_for_random_predicates(
        rows in proptest::collection::vec((-20i64..20, -20.0f64..20.0), 0..40),
        pred in arb_predicate(),
    ) {
        let mut table = test_table(&rows);
        let schema = table.schema().clone();
        let sql = format!("SELECT a, b FROM t WHERE {pred}");
        let result = execute_statement(&sql, &mut table, Tick(1000)).unwrap();
        // Brute force over the same tuples.
        let mut expected = 0usize;
        for t in table.iter_live() {
            if pred.eval_predicate(t, &schema, Tick(1000)).unwrap() {
                expected += 1;
            }
        }
        prop_assert_eq!(result.len(), expected);
    }
}

// ------------------------------------------- one pass ≡ the two-phase --
//
// The executor scans once: the planner binds every column to its position,
// the scan hands each match to the statement's sink, and `ORDER BY … LIMIT`
// keeps a bounded set of candidates. What follows is the executor it
// replaced, kept as the reference with its own scan: the scan only
// collects ids, each id is looked up again, every expression is evaluated
// by column name, and the whole match set is sorted before `LIMIT` cuts it.

/// The two-phase executor's view of an extent: its stores in id order, each
/// shard's with the summary shard pruning reads.
trait Reference: ReadExtent {
    fn stores(&self) -> Vec<(&TableStore, Option<MetaRanges>)>;

    /// The two-phase `peek`: a second lookup of a matched id.
    fn peek(&self, id: TupleId) -> Option<&Tuple> {
        self.stores()
            .into_iter()
            .find_map(|(store, _)| store.get(id))
    }
}

impl Reference for TableStore {
    fn stores(&self) -> Vec<(&TableStore, Option<MetaRanges>)> {
        vec![(self, None)]
    }
}

impl Reference for ExtentSnapshot {
    fn stores(&self) -> Vec<(&TableStore, Option<MetaRanges>)> {
        self.shards()
            .iter()
            .map(|sh| (&*sh.store, Some(sh.ranges)))
            .collect()
    }
}

/// The two-phase scan: matched ids in id order, plus the scan counters.
#[derive(Default)]
struct IdScan {
    matched: Vec<TupleId>,
    scanned: usize,
    pruned_segments: usize,
    pruned_shards: usize,
    used_index: bool,
}

fn scan_ids<E: Reference>(table: &E, plan: &LogicalPlan, now: Tick) -> Result<IdScan> {
    let mut out = IdScan::default();
    for (store, ranges) in table.stores() {
        if let Some(ranges) = ranges {
            if store.live_count() == 0 {
                continue;
            }
            if !plan.pruning.shard_may_match(&ranges, now) {
                out.pruned_shards += 1;
                continue;
            }
        }
        scan_store(store, plan, now, &mut out)?;
    }
    Ok(out)
}

fn scan_store(store: &TableStore, plan: &LogicalPlan, now: Tick, out: &mut IdScan) -> Result<()> {
    let schema = store.schema();
    if let Some(candidates) = index_candidates(plan, store) {
        out.used_index = true;
        for id in candidates {
            let Some(tuple) = store.get(id) else { continue };
            out.scanned += 1;
            let keep = match &plan.predicate {
                Some(p) => p.eval_predicate(tuple, schema, now)?,
                None => true,
            };
            if keep {
                out.matched.push(id);
            }
        }
    } else {
        for seg in store.segments() {
            if !plan.pruning.is_trivial() && !plan.pruning.segment_may_match(seg) {
                out.pruned_segments += 1;
                continue;
            }
            for tuple in seg.iter_live() {
                out.scanned += 1;
                let keep = match &plan.predicate {
                    Some(p) => p.eval_predicate(tuple, schema, now)?,
                    None => true,
                };
                if keep {
                    out.matched.push(tuple.meta.id);
                }
            }
        }
    }
    Ok(())
}

fn index_candidates(plan: &LogicalPlan, table: &TableStore) -> Option<Vec<TupleId>> {
    for bound in plan.pruning.bounds() {
        match bound {
            ColumnBound::Eq { col, value } => {
                if let Some(ids) = table.index_probe(*col, std::slice::from_ref(value)) {
                    return Some(ids);
                }
            }
            ColumnBound::OneOf { col, values } => {
                if let Some(ids) = table.index_probe(*col, values) {
                    return Some(ids);
                }
            }
            _ => {}
        }
    }
    type RangeBound<'a> = (Option<(&'a Value, bool)>, Option<(&'a Value, bool)>);
    let mut ranges: BTreeMap<usize, RangeBound<'_>> = BTreeMap::new();
    for bound in plan.pruning.bounds() {
        match bound {
            ColumnBound::Above {
                col,
                value,
                inclusive,
            } => {
                let entry = ranges.entry(*col).or_default();
                if entry.0.is_none() {
                    entry.0 = Some((value, *inclusive));
                }
            }
            ColumnBound::Below {
                col,
                value,
                inclusive,
            } => {
                let entry = ranges.entry(*col).or_default();
                if entry.1.is_none() {
                    entry.1 = Some((value, *inclusive));
                }
            }
            _ => {}
        }
    }
    for (col, (lo, hi)) in ranges {
        if let Some(ids) = table.ord_range_probe(col, lo, hi) {
            return Some(ids);
        }
    }
    None
}

/// The plan the by-name planner built: the same shape, with every
/// expression left as parsed, by column name.
fn by_name(stmt: &SelectStatement, schema: &Schema) -> Result<LogicalPlan> {
    let mut plan = Planner.plan(stmt, schema)?;
    plan.predicate = stmt.predicate.clone();
    if !plan.aggregate {
        plan.order_by = stmt.order_by.clone();
    }
    let mut outputs = plan.outputs.iter_mut();
    for proj in &stmt.projections {
        match proj {
            Projection::Wildcard => {
                for col in schema.columns() {
                    outputs.next().unwrap().expr = PlannedExpr::Scalar(Expr::col(&col.name));
                }
            }
            Projection::Expr { expr, .. } => {
                let out = outputs.next().unwrap();
                out.expr = match (expr, &out.expr) {
                    (_, PlannedExpr::GroupKey(k)) => PlannedExpr::GroupKey(*k),
                    (ProjExpr::Scalar(e), _) => PlannedExpr::Scalar(e.clone()),
                    (ProjExpr::Aggregate(f, a), _) => PlannedExpr::Aggregate(*f, a.clone()),
                    (ProjExpr::CountDistinct(a), _) => PlannedExpr::CountDistinct(a.clone()),
                };
            }
        }
    }
    Ok(plan)
}

/// The two-phase executor's read phases.
fn reference<E: Reference>(
    stmt: &SelectStatement,
    table: &E,
    now: Tick,
) -> Result<(ResultSet, Vec<TupleId>)> {
    let plan = by_name(stmt, table.schema())?;
    let schema = table.schema();
    let scan = scan_ids(table, &plan, now)?;
    let columns: Vec<String> = plan.outputs.iter().map(|o| o.name.clone()).collect();
    let (rows, returned_ids) = if plan.aggregate {
        (
            aggregate_rows(&plan, table, &scan.matched, schema, now)?,
            scan.matched,
        )
    } else {
        scalar_rows(&plan, table, &scan.matched, schema, now)?
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

fn scalar_rows<E: Reference>(
    plan: &LogicalPlan,
    table: &E,
    matched: &[TupleId],
    schema: &Schema,
    now: Tick,
) -> Result<(Vec<Vec<Value>>, Vec<TupleId>)> {
    let mut shaped: Vec<(Vec<Value>, Vec<Value>, TupleId)> = Vec::with_capacity(matched.len());
    for id in matched {
        let tuple = table.peek(*id).expect("matched tuple is live");
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
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
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
    Distinct(HashSet<Value>),
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
fn aggregate_rows<E: Reference>(
    plan: &LogicalPlan,
    table: &E,
    matched: &[TupleId],
    schema: &Schema,
    now: Tick,
) -> Result<Vec<Vec<Value>>> {
    let key_indices: Vec<usize> = plan
        .group_by
        .iter()
        .map(|g| schema.index_of(&g.name).expect("validated by planner"))
        .collect();

    // Group id per key, in first-seen order for deterministic output.
    let mut group_index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();

    let make_accs = || -> Vec<Acc> {
        plan.outputs
            .iter()
            .filter_map(|o| match &o.expr {
                PlannedExpr::Aggregate(f, _) => Some(Acc::new(*f)),
                PlannedExpr::CountDistinct(_) => Some(Acc::Distinct(HashSet::new())),
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

/// One `SELECT` over `t(a INT, b FLOAT, s STR)`, as SQL text. Small value
/// domains make ties, NULLs and duplicate rows common; a few expressions
/// fail on some rows only (`LENGTH(a)`, `ABS(s)`, `SUM(s)`).
fn arb_select() -> impl Strategy<Value = String> {
    let num = |k: i64| match k.rem_euclid(5) {
        0 => "NULL".to_string(),
        1 => format!("{}.5", k / 5),
        _ => (k / 5).to_string(),
    };
    let leaf = (0u8..24, -30i64..30, -30i64..30, 0usize..6).prop_map(move |(kind, x, y, o)| {
        let op = ["=", "<>", "<", "<=", ">", ">="][o];
        let col = ["a", "b", "$id", "$age", "a % 3"][(x.unsigned_abs() % 5) as usize];
        match kind {
            0..=9 => format!("{col} {op} {}", num(y)),
            10 => "a IS NULL".to_string(),
            11 => "s IS NOT NULL".to_string(),
            12 | 13 => format!("a IN ({}, {})", num(x), num(y)),
            14 | 15 => format!("b BETWEEN {} AND {}", x / 4, x / 4 + y.abs() / 4),
            16 | 17 => format!("s LIKE '{}'", ["x%", "%y", "_"][o % 3]),
            18 | 19 => format!("$freshness < 0.{}", y.unsigned_abs() % 10),
            20 | 21 => format!("$reads {op} 0"),
            22 => "LENGTH(a) > 1".to_string(),
            _ => "CASE WHEN a > 3 THEN ABS(s) > 0 ELSE TRUE END".to_string(),
        }
    });
    let predicate = leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x}) AND ({y})")),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| format!("({x}) OR ({y})")),
            inner.prop_map(|x| format!("NOT ({x})")),
        ]
    });
    let limit = (0usize..16).prop_map(|n| match n {
        0..=5 => String::new(),
        6 => " LIMIT 0".to_string(),
        7 | 8 => " LIMIT 1".to_string(),
        n => format!(" LIMIT {}", n - 7),
    });
    let order = proptest::collection::vec(
        (
            proptest::sample::select(vec!["a", "b", "s", "a % 3", "$id", "$freshness"]),
            any::<bool>(),
        ),
        0..3,
    );
    let scalar = (
        0u8..5,
        proptest::collection::vec(
            proptest::sample::select(vec![
                "a",
                "b",
                "s",
                "a + 1",
                "b * 2",
                "$id",
                "$freshness",
                "$age",
                "COALESCE(a, 0)",
                "CASE WHEN b > 0 THEN 'pos' ELSE s END",
                "a % 3",
                "s",
                "*",
                "LENGTH(a)",
            ]),
            1..4,
        ),
        order,
    )
        .prop_map(|(distinct, cols, keys)| {
            let order: Vec<String> = keys
                .iter()
                .map(|(k, desc)| format!("{k}{}", if *desc { " DESC" } else { "" }))
                .collect();
            format!(
                "SELECT {}{} FROM t{{where}}{}",
                if distinct == 0 && !cols.contains(&"*") {
                    "DISTINCT "
                } else {
                    ""
                },
                cols.join(", "),
                if order.is_empty() {
                    String::new()
                } else {
                    format!(" ORDER BY {}", order.join(", "))
                },
            )
        });
    let aggregate = (
        proptest::sample::select(vec![vec![], vec!["a"], vec!["s"], vec!["a", "s"]]),
        proptest::collection::vec(
            proptest::sample::select(vec![
                "COUNT(*)",
                "COUNT(b)",
                "SUM(b)",
                "SUM(a)",
                "AVG(a)",
                "MIN(s)",
                "MAX(b)",
                "STDDEV(b)",
                "VARIANCE(a)",
                "FCOUNT(*)",
                "FSUM(b)",
                "FAVG(a)",
                "COUNT(DISTINCT s)",
                "COUNT(DISTINCT a)",
                "MIN(a)",
                "SUM(s)",
            ]),
            1..4,
        ),
        proptest::option::of(-1i64..4),
        proptest::collection::vec(any::<bool>(), 0..3),
    )
        .prop_map(|(group, aggs, having, desc)| {
            let mut outs: Vec<String> = group.iter().map(|g| g.to_string()).collect();
            outs.extend(aggs.iter().enumerate().map(|(i, a)| format!("{a} AS x{i}")));
            let names: Vec<String> = group
                .iter()
                .map(|g| g.to_string())
                .chain((0..aggs.len()).map(|i| format!("x{i}")))
                .collect();
            let order: Vec<String> = desc
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    format!(
                        "{}{}",
                        names[i % names.len()],
                        if *d { " DESC" } else { "" }
                    )
                })
                .collect();
            format!(
                "SELECT {} FROM t{{where}}{}{}{}",
                outs.join(", "),
                if group.is_empty() {
                    String::new()
                } else {
                    format!(" GROUP BY {}", group.join(", "))
                },
                having.map_or(String::new(), |h| format!(" HAVING x0 > {h}")),
                if order.is_empty() {
                    String::new()
                } else {
                    format!(" ORDER BY {}", order.join(", "))
                },
            )
        });
    (
        prop_oneof![scalar, aggregate],
        (0u8..5, predicate),
        limit,
        0u8..5,
    )
        .prop_map(|(select, (filtered, predicate), limit, consume)| {
            let filter = if filtered == 0 {
                String::new()
            } else {
                format!(" WHERE {predicate}")
            };
            format!(
                "{}{limit}{}",
                select.replace("{where}", &filter),
                if consume == 0 { " CONSUME" } else { "" }
            )
        })
}

/// `t(a INT, b FLOAT, s STR)` with NULLs in every column, four rows to a
/// segment, some rows decayed, and optionally a hash index on `a` and an
/// ordered index on `b`.
fn query_table(rows: &[(i64, i8, u8, u8)], indexed: bool) -> TableStore {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("s", DataType::Str),
    ])
    .unwrap();
    let config = StorageConfig {
        segment_capacity: 4,
        ..Default::default()
    };
    let mut t = TableStore::new(schema, config).unwrap();
    if indexed {
        t.create_index("a").unwrap();
        t.create_ord_index("b").unwrap();
    }
    // Each column is NULL in one row of six.
    for (i, &(a, b, s, decay)) in rows.iter().enumerate() {
        let values = vec![
            if a == 5 { Value::Null } else { Value::Int(a) },
            if b == 6 {
                Value::Null
            } else {
                Value::float(f64::from(b) / 2.0)
            },
            match s % 6 {
                5 => Value::Null,
                k => Value::from(["x", "y", "xy", "yx", "x"][usize::from(k)]),
            },
        ];
        let id = t.insert(values, Tick(i as u64 / 3)).unwrap();
        if decay < 10 {
            t.decay(id, f64::from(decay) / 10.0);
        }
    }
    t
}

/// The one-pass result and the reference's, field by field.
fn same_answer(
    sql: &str,
    new: Result<(ResultSet, Vec<TupleId>)>,
    old: Result<(ResultSet, Vec<TupleId>)>,
) {
    match (new, old) {
        (Ok((n, n_ids)), Ok((o, o_ids))) => {
            prop_assert_eq!(&n.columns, &o.columns, "{}", sql);
            prop_assert_eq!(&n.rows, &o.rows, "{}", sql);
            prop_assert_eq!(&n_ids, &o_ids, "{}: consume/touch ids", sql);
            prop_assert_eq!(
                (n.scanned, n.pruned_segments, n.pruned_shards, n.used_index),
                (o.scanned, o.pruned_segments, o.pruned_shards, o.used_index),
                "{}: scan counters",
                sql
            );
        }
        (Err(n), Err(o)) => prop_assert_eq!(n, o, "{}", sql),
        (n, o) => prop_assert!(false, "{sql}\none pass {n:?}\nreference {o:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The one-pass executor answers every statement exactly as the
    /// two-phase, by-name, sort-everything executor did — rows, columns,
    /// the ids a `CONSUME` deletes or a peek touches, the scan counters,
    /// and the error where there is one — on a bare store and on 1- and
    /// 4-shard sealed snapshots.
    #[test]
    fn one_pass_matches_the_two_phase_executor(
        rows in proptest::collection::vec((-4i64..6, -6i8..7, any::<u8>(), 0u8..30), 0..40),
        indexed in any::<bool>(),
        sql in arb_select(),
    ) {
        let store = query_table(&rows, indexed);
        let Statement::Select(stmt) = parse_statement(&sql).unwrap() else {
            unreachable!("the generator writes SELECTs")
        };
        let now = Tick(20);
        let run = |ext: &dyn ReadExtent| {
            Planner.plan(&stmt, ext.schema()).and_then(|plan| execute_readonly(&plan, ext, now))
        };
        same_answer(&sql, run(&store), reference(&stmt, &store, now));
        let quarter = (rows.len() as u64).div_ceil(4).max(1);
        for spec in [ShardSpec::default(), ShardSpec::new(quarter)] {
            let snap = ShardedExtent::from_monolithic(&store, spec)
                .unwrap()
                .publish_snapshot();
            same_answer(&sql, run(&snap), reference(&stmt, &snap, now));
        }
    }
}
