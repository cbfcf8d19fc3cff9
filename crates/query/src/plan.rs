//! Logical planning.
//!
//! The planner turns a parsed [`SelectStatement`] into a validated
//! [`LogicalPlan`]:
//!
//! * resolves `*` against the schema and binds every column reference the
//!   scan evaluates — predicate, projections, aggregate arguments, scalar
//!   sort keys, grouping columns — to its position, once per statement;
//! * splits projections into scalar vs aggregate mode and enforces the
//!   GROUP BY rules (scalar outputs must be grouping columns);
//! * derives the [`PruningPredicate`] used for zone-map segment skipping;
//! * names every output column (alias > expression text).

use fungus_types::{FungusError, Result, Schema};

use crate::expr::{AggFunc, BoundColumn, Expr};
use crate::parser::{ProjExpr, Projection, SelectStatement, SortKey};
use crate::prune::PruningPredicate;

/// One named output of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputColumn {
    /// Result-set column name.
    pub name: String,
    /// What to compute.
    pub expr: PlannedExpr,
}

/// A planned output expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedExpr {
    /// Row-level expression (scalar mode) or grouping column (aggregate
    /// mode, stored as the group key index).
    Scalar(Expr),
    /// In aggregate mode: the value of the i-th grouping column.
    GroupKey(usize),
    /// An aggregate over the matched rows.
    Aggregate(AggFunc, Option<Expr>),
    /// Exact `COUNT(DISTINCT expr)` over the matched rows.
    CountDistinct(Expr),
}

/// A fully validated logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Source container.
    pub table: String,
    /// Deduplicate output rows (scalar mode only).
    pub distinct: bool,
    /// HAVING filter over the aggregate output row.
    pub having: Option<Expr>,
    /// Row filter.
    pub predicate: Option<Expr>,
    /// Zone-map pruning derived from the filter.
    pub pruning: PruningPredicate,
    /// Output columns in order.
    pub outputs: Vec<OutputColumn>,
    /// Aggregate mode? (true when any aggregate or GROUP BY appears).
    pub aggregate: bool,
    /// Grouping columns in aggregate mode.
    pub group_by: Vec<BoundColumn>,
    /// Sort keys. In scalar mode they are bound to source columns; in
    /// aggregate mode they evaluate by name against the output rows.
    pub order_by: Vec<SortKey>,
    /// Row limit applied after sorting.
    pub limit: Option<usize>,
    /// Consume semantics: matched source tuples are removed.
    pub consume: bool,
}

impl std::fmt::Display for LogicalPlan {
    /// Renders the plan in an EXPLAIN-style indented tree.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(n) = self.limit {
            writeln!(f, "Limit {n}")?;
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.descending { " DESC" } else { "" }))
                .collect();
            writeln!(f, "Sort [{}]", keys.join(", "))?;
        }
        if self.distinct {
            writeln!(f, "Distinct")?;
        }
        if let Some(h) = &self.having {
            writeln!(f, "Having {h}")?;
        }
        if self.aggregate {
            let outs: Vec<String> = self.outputs.iter().map(|o| o.name.clone()).collect();
            if self.group_by.is_empty() {
                writeln!(f, "Aggregate [{}]", outs.join(", "))?;
            } else {
                let keys: Vec<&str> = self.group_by.iter().map(|g| g.name.as_str()).collect();
                writeln!(
                    f,
                    "Aggregate [{}] group by [{}]",
                    outs.join(", "),
                    keys.join(", ")
                )?;
            }
        } else {
            let outs: Vec<String> = self.outputs.iter().map(|o| o.name.clone()).collect();
            writeln!(f, "Project [{}]", outs.join(", "))?;
        }
        write!(f, "Scan {}", self.table)?;
        if self.consume {
            write!(f, " CONSUME")?;
        }
        if let Some(p) = &self.predicate {
            write!(f, " filter {p}")?;
        }
        if !self.pruning.is_trivial() {
            write!(f, " [{} prunable bound(s)]", self.pruning.bounds().len())?;
        }
        Ok(())
    }
}

/// Statement → plan compiler.
#[derive(Debug, Default, Clone, Copy)]
pub struct Planner;

impl Planner {
    /// Compiles and validates `stmt` against `schema`.
    pub fn plan(&self, stmt: &SelectStatement, schema: &Schema) -> Result<LogicalPlan> {
        let predicate = stmt
            .predicate
            .as_ref()
            .map(|p| p.bind(schema))
            .transpose()?;

        let aggregate = !stmt.group_by.is_empty()
            || stmt.projections.iter().any(|p| {
                matches!(
                    p,
                    Projection::Expr {
                        expr: ProjExpr::Aggregate(..) | ProjExpr::CountDistinct(_),
                        ..
                    }
                )
            });

        let group_by = stmt
            .group_by
            .iter()
            .map(|g| {
                let index = schema
                    .index_of(g)
                    .ok_or_else(|| FungusError::UnknownColumn(g.clone()))?;
                Ok(BoundColumn {
                    index,
                    name: g.clone(),
                })
            })
            .collect::<Result<Vec<_>>>()?;

        let mut outputs = Vec::new();
        for proj in &stmt.projections {
            match proj {
                Projection::Wildcard => {
                    if aggregate {
                        return Err(FungusError::PlanError(
                            "`*` cannot be mixed with aggregation".into(),
                        ));
                    }
                    for (index, col) in schema.columns().iter().enumerate() {
                        outputs.push(OutputColumn {
                            name: col.name.clone(),
                            expr: PlannedExpr::Scalar(Expr::Bound(BoundColumn {
                                index,
                                name: col.name.clone(),
                            })),
                        });
                    }
                }
                Projection::Expr { expr, alias } => match expr {
                    ProjExpr::Scalar(e) => {
                        let bound = e.bind(schema)?;
                        if aggregate {
                            // A scalar output must be a grouping column.
                            let Expr::Column(name) = e else {
                                return Err(FungusError::PlanError(format!(
                                    "non-aggregated expression `{e}` must be a GROUP BY column"
                                )));
                            };
                            let Some(key_idx) = stmt.group_by.iter().position(|g| g == name) else {
                                return Err(FungusError::PlanError(format!(
                                    "column `{name}` must appear in GROUP BY"
                                )));
                            };
                            outputs.push(OutputColumn {
                                name: alias.clone().unwrap_or_else(|| name.clone()),
                                expr: PlannedExpr::GroupKey(key_idx),
                            });
                        } else {
                            outputs.push(OutputColumn {
                                name: alias.clone().unwrap_or_else(|| e.to_string()),
                                expr: PlannedExpr::Scalar(bound),
                            });
                        }
                    }
                    ProjExpr::CountDistinct(arg) => {
                        let bound = arg.bind(schema)?;
                        let name = alias
                            .clone()
                            .unwrap_or_else(|| format!("COUNT(DISTINCT {arg})"));
                        outputs.push(OutputColumn {
                            name,
                            expr: PlannedExpr::CountDistinct(bound),
                        });
                    }
                    ProjExpr::Aggregate(func, arg) => {
                        let bound = arg.as_ref().map(|a| a.bind(schema)).transpose()?;
                        let name = alias.clone().unwrap_or_else(|| match arg {
                            Some(a) => format!("{}({a})", func.name()),
                            None => format!("{}(*)", func.name()),
                        });
                        outputs.push(OutputColumn {
                            name,
                            expr: PlannedExpr::Aggregate(*func, bound),
                        });
                    }
                },
            }
        }

        if outputs.is_empty() {
            return Err(FungusError::PlanError("empty projection list".into()));
        }

        // Sort keys: scalar mode binds them to the source schema; aggregate
        // mode resolves them by name against the output row at execution
        // time (output columns may be aliases).
        let order_by = if aggregate {
            stmt.order_by.clone()
        } else {
            stmt.order_by
                .iter()
                .map(|k| {
                    Ok(SortKey {
                        expr: k.expr.bind(schema)?,
                        descending: k.descending,
                    })
                })
                .collect::<Result<Vec<_>>>()?
        };

        if stmt.having.is_some() && !aggregate {
            return Err(FungusError::PlanError(
                "HAVING requires aggregation or GROUP BY".into(),
            ));
        }
        if stmt.distinct && aggregate {
            return Err(FungusError::PlanError(
                "DISTINCT is redundant with aggregation; drop it".into(),
            ));
        }

        let pruning = PruningPredicate::analyze(stmt.predicate.as_ref(), schema);

        Ok(LogicalPlan {
            table: stmt.table.clone(),
            distinct: stmt.distinct,
            having: stmt.having.clone(),
            predicate,
            pruning,
            outputs,
            aggregate,
            group_by,
            order_by,
            limit: stmt.limit,
            consume: stmt.consume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use fungus_types::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("sensor", DataType::Int),
            ("v", DataType::Float),
            ("tag", DataType::Str),
        ])
        .unwrap()
    }

    fn plan(src: &str) -> Result<LogicalPlan> {
        let stmt = match parse_statement(src).unwrap() {
            crate::parser::Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        };
        Planner.plan(&stmt, &schema())
    }

    #[test]
    fn wildcard_expands_in_schema_order() {
        let p = plan("SELECT * FROM r").unwrap();
        let names: Vec<&str> = p.outputs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["sensor", "v", "tag"]);
        assert!(!p.aggregate);
        assert!(!p.consume);
    }

    #[test]
    fn aliases_and_expression_names() {
        let p = plan("SELECT v * 2 AS double_v, sensor FROM r").unwrap();
        assert_eq!(p.outputs[0].name, "double_v");
        assert_eq!(p.outputs[1].name, "sensor");
    }

    #[test]
    fn default_aggregate_names() {
        let p = plan("SELECT COUNT(*), SUM(v) FROM r").unwrap();
        assert!(p.aggregate);
        assert_eq!(p.outputs[0].name, "COUNT(*)");
        assert_eq!(p.outputs[1].name, "SUM(v)");
    }

    #[test]
    fn group_by_binds_scalar_outputs_to_keys() {
        let p = plan("SELECT sensor, COUNT(*) FROM r GROUP BY sensor").unwrap();
        assert_eq!(p.outputs[0].expr, PlannedExpr::GroupKey(0));
        assert!(matches!(
            p.outputs[1].expr,
            PlannedExpr::Aggregate(AggFunc::Count, None)
        ));
    }

    #[test]
    fn ungrouped_scalar_in_aggregate_is_rejected() {
        let err = plan("SELECT tag, COUNT(*) FROM r").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
        let err = plan("SELECT v + 1, COUNT(*) FROM r GROUP BY v").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn wildcard_with_aggregation_is_rejected() {
        assert!(plan("SELECT *, COUNT(*) FROM r").is_err());
    }

    #[test]
    fn unknown_columns_are_rejected_everywhere() {
        assert!(plan("SELECT zzz FROM r").is_err());
        assert!(plan("SELECT * FROM r WHERE zzz = 1").is_err());
        assert!(plan("SELECT COUNT(zzz) FROM r").is_err());
        assert!(plan("SELECT sensor FROM r GROUP BY zzz").is_err());
        assert!(plan("SELECT * FROM r ORDER BY zzz").is_err());
    }

    #[test]
    fn consume_and_limit_flow_through() {
        let p = plan("SELECT * FROM r WHERE v > 0.5 LIMIT 5 CONSUME").unwrap();
        assert!(p.consume);
        assert_eq!(p.limit, Some(5));
        assert!(p.predicate.is_some());
        assert!(!p.pruning.is_trivial());
    }

    #[test]
    fn display_renders_the_plan_tree() {
        let p = plan(
            "SELECT sensor, SUM(v) AS total FROM r WHERE v > 1 \
             GROUP BY sensor HAVING total > 5 ORDER BY total DESC LIMIT 3",
        )
        .unwrap();
        let text = p.to_string();
        assert!(text.contains("Limit 3"), "{text}");
        assert!(text.contains("Sort [total DESC]"), "{text}");
        assert!(text.contains("Having"), "{text}");
        assert!(text.contains("group by [sensor]"), "{text}");
        assert!(text.contains("Scan r filter"), "{text}");
        assert!(text.contains("prunable bound"), "{text}");
        let p = plan("SELECT DISTINCT tag FROM r CONSUME").unwrap();
        let text = p.to_string();
        assert!(text.contains("Distinct"), "{text}");
        assert!(text.contains("Scan r CONSUME"), "{text}");
    }

    #[test]
    fn every_scanned_column_reference_is_bound() {
        let p = plan("SELECT tag, v + 1 FROM r WHERE sensor = 2 ORDER BY v DESC").unwrap();
        // `Expr::Column` debug-prints as `Column("name")`; a bound one does not.
        let bound = |e: &Expr| !format!("{e:?}").contains("Column(");
        assert!(bound(p.predicate.as_ref().unwrap()));
        assert!(bound(&p.order_by[0].expr));
        for out in &p.outputs {
            let PlannedExpr::Scalar(e) = &out.expr else {
                panic!("scalar mode")
            };
            assert!(bound(e), "{e:?}");
        }
        assert_eq!(
            p.outputs[0].expr,
            PlannedExpr::Scalar(Expr::col("tag").bind(&schema()).unwrap())
        );
        let p = plan("SELECT tag, AVG(v) FROM r GROUP BY tag ORDER BY tag").unwrap();
        assert_eq!(
            (p.group_by[0].index, p.group_by[0].name.as_str()),
            (2, "tag")
        );
        assert!(matches!(&p.outputs[1].expr, PlannedExpr::Aggregate(_, Some(e)) if bound(e)));
        // Aggregate sort keys name output columns, so they stay unbound.
        assert_eq!(p.order_by[0].expr, Expr::col("tag"));
    }

    #[test]
    fn pseudo_columns_plan_fine() {
        let p = plan("SELECT $id, $freshness FROM r WHERE $age > 10").unwrap();
        assert_eq!(p.outputs[0].name, "$id");
        assert!(p.pruning.is_trivial(), "meta predicates cannot prune zones");
    }
}
