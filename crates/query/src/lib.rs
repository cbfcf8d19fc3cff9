//! # fungus-query
//!
//! The query layer: expressions, a SQL-ish parser, a logical planner with
//! zone-map pruning, and an executor implementing the paper's
//! **query-consume semantics** (the second natural law):
//!
//! > "The extent of table R is replaced by each query Q into the union of
//! > the answer set of Q and the reduced extent of R. … All tuples in R
//! > satisfying P are discarded immediately."
//!
//! A `SELECT … CONSUME` statement removes every tuple the predicate
//! matched, atomically with the scan that returned them; plain `SELECT`
//! (peek) is also provided because a usable system needs a non-destructive
//! read. Consumed tuples are returned to the caller so the engine can
//! distill them into summaries before they disappear.
//!
//! Decay metadata is queryable through pseudo-columns: `$freshness`,
//! `$age`, `$id`, `$inserted_at`, and `$reads` — e.g.
//! `SELECT * FROM r WHERE $freshness < 0.2 CONSUME` distils the
//! nearly-rotten portion of a container.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod expr;
pub mod extent;
pub mod parser;
pub mod plan;
pub mod prune;

pub use exec::{
    execute, execute_parsed, execute_readonly, execute_statement, explain, insert_literal_rows,
    ResultSet,
};
pub use expr::{AggFunc, BinOp, BoundColumn, CmpOp, Expr, MetaField, ScalarFunc};
pub use extent::{QueryExtent, ReadExtent, ScanOutcome};
pub use parser::{
    parse_expr, parse_statement, CreateContainerStatement, DistillClause, ProjExpr, Projection,
    SelectStatement, ShardingClause, SortKey, Statement,
};
pub use plan::{LogicalPlan, OutputColumn, PlannedExpr, Planner};
pub use prune::{ColumnBound, MetaBound, MetaRanges, PruningPredicate};
