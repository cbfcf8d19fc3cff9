//! The expression tree and its evaluator.
//!
//! Expressions evaluate against one tuple (attributes + decay metadata)
//! under SQL three-valued logic: comparisons with NULL yield NULL, `AND` /
//! `OR` short-circuit through unknowns, and a WHERE clause accepts a tuple
//! only when its predicate evaluates to *true* (unknown rejects).

use std::fmt;

use fungus_types::{FungusError, Result, Schema, Tick, Tuple, Value};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition; string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (NULL on division by zero).
    Div,
    /// `%` (NULL on zero divisor).
    Rem,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
        })
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`.
    Eq,
    /// `<>` / `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Decay metadata exposed as pseudo-columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaField {
    /// `$freshness` — the tuple's current freshness as a Float.
    Freshness,
    /// `$age` — ticks since insertion, relative to the query's `now`.
    Age,
    /// `$id` — the stable tuple id.
    Id,
    /// `$inserted_at` — insertion tick (the paper's `t` column).
    InsertedAt,
    /// `$reads` — how many queries returned this tuple.
    Reads,
}

impl MetaField {
    /// Parses the pseudo-column name (without the `$`).
    pub fn from_name(name: &str) -> Option<MetaField> {
        Some(match name {
            "freshness" => MetaField::Freshness,
            "age" => MetaField::Age,
            "id" => MetaField::Id,
            "inserted_at" => MetaField::InsertedAt,
            "reads" => MetaField::Reads,
            _ => return None,
        })
    }

    /// The pseudo-column's SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            MetaField::Freshness => "$freshness",
            MetaField::Age => "$age",
            MetaField::Id => "$id",
            MetaField::InsertedAt => "$inserted_at",
            MetaField::Reads => "$reads",
        }
    }

    /// Evaluates the field for a tuple observed at `now`.
    pub fn eval(self, tuple: &Tuple, now: Tick) -> Value {
        match self {
            MetaField::Freshness => Value::Float(tuple.meta.freshness.get()),
            MetaField::Age => Value::Int(tuple.meta.age(now).get() as i64),
            MetaField::Id => Value::Int(tuple.meta.id.get() as i64),
            MetaField::InsertedAt => Value::Int(tuple.meta.inserted_at.get() as i64),
            MetaField::Reads => Value::Int(i64::from(tuple.meta.access_count)),
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `ABS(x)` — absolute value of a numeric.
    Abs,
    /// `ROUND(x)` / `ROUND(x, digits)` — round half away from zero.
    Round,
    /// `FLOOR(x)`.
    Floor,
    /// `CEIL(x)`.
    Ceil,
    /// `LENGTH(s)` — characters in a string / bytes in a byte string.
    Length,
    /// `LOWER(s)`.
    Lower,
    /// `UPPER(s)`.
    Upper,
    /// `COALESCE(a, b, …)` — first non-NULL argument.
    Coalesce,
}

impl ScalarFunc {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "ABS" => ScalarFunc::Abs,
            "ROUND" => ScalarFunc::Round,
            "FLOOR" => ScalarFunc::Floor,
            "CEIL" | "CEILING" => ScalarFunc::Ceil,
            "LENGTH" | "LEN" => ScalarFunc::Length,
            "LOWER" => ScalarFunc::Lower,
            "UPPER" => ScalarFunc::Upper,
            "COALESCE" => ScalarFunc::Coalesce,
            _ => return None,
        })
    }

    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "ABS",
            ScalarFunc::Round => "ROUND",
            ScalarFunc::Floor => "FLOOR",
            ScalarFunc::Ceil => "CEIL",
            ScalarFunc::Length => "LENGTH",
            ScalarFunc::Lower => "LOWER",
            ScalarFunc::Upper => "UPPER",
            ScalarFunc::Coalesce => "COALESCE",
        }
    }

    /// Legal argument-count range.
    fn arity(self) -> (usize, usize) {
        match self {
            ScalarFunc::Round => (1, 2),
            ScalarFunc::Coalesce => (1, usize::MAX),
            _ => (1, 1),
        }
    }

    /// Validates an argument count at plan time.
    pub fn check_arity(self, n: usize) -> Result<()> {
        let (lo, hi) = self.arity();
        if n < lo || n > hi {
            return Err(FungusError::PlanError(format!(
                "{} takes {} argument(s), got {n}",
                self.name(),
                if hi == usize::MAX {
                    format!("at least {lo}")
                } else {
                    format!("{lo}..={hi}")
                },
            )));
        }
        Ok(())
    }

    fn apply(self, args: &[Value]) -> Result<Value> {
        let numeric = |v: &Value, what: &str| -> Result<Option<f64>> {
            if v.is_null() {
                return Ok(None);
            }
            v.as_f64().map(Some).ok_or_else(|| {
                FungusError::EvalError(format!(
                    "{what} requires a numeric argument, got {}",
                    v.data_type()
                ))
            })
        };
        Ok(match self {
            ScalarFunc::Abs => match numeric(&args[0], "ABS")? {
                None => Value::Null,
                Some(x) => match &args[0] {
                    Value::Int(i) => i
                        .checked_abs()
                        .map(Value::Int)
                        .unwrap_or_else(|| Value::float(x.abs())),
                    _ => Value::float(x.abs()),
                },
            },
            ScalarFunc::Round => {
                let digits = match args.get(1) {
                    Some(d) if !d.is_null() => d.as_i64().ok_or_else(|| {
                        FungusError::EvalError("ROUND digits must be an integer".into())
                    })?,
                    _ => 0,
                };
                match numeric(&args[0], "ROUND")? {
                    None => Value::Null,
                    Some(x) => {
                        let scale = 10f64.powi(digits.clamp(-12, 12) as i32);
                        Value::float((x * scale).round() / scale)
                    }
                }
            }
            ScalarFunc::Floor => match numeric(&args[0], "FLOOR")? {
                None => Value::Null,
                Some(x) => Value::float(x.floor()),
            },
            ScalarFunc::Ceil => match numeric(&args[0], "CEIL")? {
                None => Value::Null,
                Some(x) => Value::float(x.ceil()),
            },
            ScalarFunc::Length => match &args[0] {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::Bytes(b) => Value::Int(b.len() as i64),
                other => {
                    return Err(FungusError::EvalError(format!(
                        "LENGTH requires a string, got {}",
                        other.data_type()
                    )))
                }
            },
            ScalarFunc::Lower | ScalarFunc::Upper => match &args[0] {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Str(if self == ScalarFunc::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }),
                other => {
                    return Err(FungusError::EvalError(format!(
                        "{} requires a string, got {}",
                        self.name(),
                        other.data_type()
                    )))
                }
            },
            ScalarFunc::Coalesce => args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null),
        })
    }
}

/// Aggregate functions.
///
/// The `F`-prefixed variants are the engine's paper-specific extension:
/// **freshness-weighted aggregates**, where each tuple contributes in
/// proportion to its current freshness. `FCOUNT(*)` is the "effective"
/// extent size; `FAVG(x)` is the freshness-weighted mean, discounting
/// stale observations exactly as the first natural law discounts their
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)` (non-null count).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `STDDEV(expr)` — population standard deviation.
    StdDev,
    /// `VARIANCE(expr)` — population variance.
    Variance,
    /// `FCOUNT(*)` — sum of freshness over matched tuples.
    FCount,
    /// `FSUM(expr)` — freshness-weighted sum `Σ fᵢ·xᵢ`.
    FSum,
    /// `FAVG(expr)` — freshness-weighted mean `Σ fᵢ·xᵢ / Σ fᵢ`.
    FAvg,
}

impl AggFunc {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "STDDEV" | "STDEV" => AggFunc::StdDev,
            "VARIANCE" | "VAR" => AggFunc::Variance,
            "FCOUNT" => AggFunc::FCount,
            "FSUM" => AggFunc::FSum,
            "FAVG" => AggFunc::FAvg,
            _ => return None,
        })
    }

    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::StdDev => "STDDEV",
            AggFunc::Variance => "VARIANCE",
            AggFunc::FCount => "FCOUNT",
            AggFunc::FSum => "FSUM",
            AggFunc::FAvg => "FAVG",
        }
    }
}

/// A column reference the planner resolved to its position in the schema
/// it planned against. It renders as the name it was written as.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundColumn {
    /// Position of the column in the row.
    pub index: usize,
    /// The column's name.
    pub name: String,
}

impl fmt::Display for BoundColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// An expression over one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// An attribute column by name.
    Column(String),
    /// An attribute column by position, as [`Expr::bind`] leaves it:
    /// evaluation reads the value without looking the name up.
    Bound(BoundColumn),
    /// A decay pseudo-column.
    Meta(MetaField),
    /// Arithmetic.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Comparison (three-valued).
    Compare {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical conjunction (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `expr IN (v1, v2, …)`.
    InList {
        /// The probe expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// The probe expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// SQL `LIKE` with `%` (any run) and `_` (any char) wildcards.
    Like {
        /// The probe expression (must evaluate to a string).
        expr: Box<Expr>,
        /// The pattern literal.
        pattern: String,
    },
    /// A built-in scalar function call.
    Call {
        /// The function.
        func: ScalarFunc,
        /// Its arguments.
        args: Vec<Expr>,
    },
    /// `CASE WHEN c1 THEN e1 [WHEN c2 THEN e2 …] [ELSE e] END`.
    ///
    /// Searched-case semantics: the first arm whose condition is *true*
    /// wins (NULL conditions fall through); with no ELSE the result is
    /// NULL.
    Case {
        /// `(condition, result)` arms in order.
        arms: Vec<(Expr, Expr)>,
        /// Optional ELSE expression.
        otherwise: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Shorthand for a literal.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// Builds `self op other`.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Compare {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// Builds `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Builds `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates against a tuple. `now` anchors the `$age` pseudo-column.
    pub fn eval(&self, tuple: &Tuple, schema: &Schema, now: Tick) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| FungusError::UnknownColumn(name.clone()))?;
                Ok(tuple.values[idx].clone())
            }
            Expr::Bound(c) => tuple
                .values
                .get(c.index)
                .cloned()
                .ok_or_else(|| FungusError::UnknownColumn(c.name.clone())),
            Expr::Meta(field) => Ok(field.eval(tuple, now)),
            Expr::Binary { left, op, right } => {
                let l = left.eval(tuple, schema, now)?;
                let r = right.eval(tuple, schema, now)?;
                match op {
                    BinOp::Add => l.add(&r),
                    BinOp::Sub => l.sub(&r),
                    BinOp::Mul => l.mul(&r),
                    BinOp::Div => l.div(&r),
                    BinOp::Rem => l.rem(&r),
                }
            }
            Expr::Compare { left, op, right } => {
                let l = left.eval(tuple, schema, now)?;
                let r = right.eval(tuple, schema, now)?;
                Ok(tri_to_value(compare(&l, *op, &r)))
            }
            Expr::And(a, b) => {
                let l = value_to_tri(a.eval(tuple, schema, now)?)?;
                // Short-circuit: false AND x = false without evaluating x.
                if l == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let r = value_to_tri(b.eval(tuple, schema, now)?)?;
                Ok(tri_to_value(match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Or(a, b) => {
                let l = value_to_tri(a.eval(tuple, schema, now)?)?;
                if l == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let r = value_to_tri(b.eval(tuple, schema, now)?)?;
                Ok(tri_to_value(match (l, r) {
                    (Some(false), Some(false)) => Some(false),
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    _ => None,
                }))
            }
            Expr::Not(e) => {
                let v = value_to_tri(e.eval(tuple, schema, now)?)?;
                Ok(tri_to_value(v.map(|b| !b)))
            }
            Expr::IsNull(e) => Ok(Value::Bool(e.eval(tuple, schema, now)?.is_null())),
            Expr::IsNotNull(e) => Ok(Value::Bool(!e.eval(tuple, schema, now)?.is_null())),
            Expr::InList { expr, list } => {
                let probe = expr.eval(tuple, schema, now)?;
                if probe.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = item.eval(tuple, schema, now)?;
                    match probe.sql_eq(&v) {
                        Some(true) => return Ok(Value::Bool(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval(tuple, schema, now)?;
                let lo = low.eval(tuple, schema, now)?;
                let hi = high.eval(tuple, schema, now)?;
                let ge = compare(&v, CmpOp::Ge, &lo);
                let le = compare(&v, CmpOp::Le, &hi);
                Ok(tri_to_value(match (ge, le) {
                    (Some(true), Some(true)) => Some(true),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                }))
            }
            Expr::Neg(e) => e.eval(tuple, schema, now)?.neg(),
            Expr::Like { expr, pattern } => {
                let v = expr.eval(tuple, schema, now)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern))),
                    other => Err(FungusError::EvalError(format!(
                        "LIKE requires a string operand, got {}",
                        other.data_type()
                    ))),
                }
            }
            Expr::Call { func, args } => {
                func.check_arity(args.len())?;
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(tuple, schema, now)?);
                }
                func.apply(&values)
            }
            Expr::Case { arms, otherwise } => {
                for (cond, result) in arms {
                    if let Some(true) = value_to_tri(cond.eval(tuple, schema, now)?)? {
                        return result.eval(tuple, schema, now);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(tuple, schema, now),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluates as a predicate: `Ok(true)` accepts the tuple; NULL
    /// (unknown) rejects, per SQL WHERE semantics.
    pub fn eval_predicate(&self, tuple: &Tuple, schema: &Schema, now: Tick) -> Result<bool> {
        match self.eval(tuple, schema, now)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(FungusError::EvalError(format!(
                "predicate must be boolean, got {}",
                other.data_type()
            ))),
        }
    }

    /// Resolves every column reference against `schema` to its position
    /// ([`Expr::Bound`]) and checks each function's argument count, in
    /// evaluation order: the first unknown name fails with
    /// [`FungusError::UnknownColumn`]. The result evaluates and renders
    /// exactly as `self` does.
    pub fn bind(&self, schema: &Schema) -> Result<Expr> {
        let one = |e: &Expr| e.bind(schema).map(Box::new);
        let all = |es: &[Expr]| {
            es.iter()
                .map(|e| e.bind(schema))
                .collect::<Result<Vec<_>>>()
        };
        Ok(match self {
            Expr::Column(name) => Expr::Bound(BoundColumn {
                index: schema
                    .index_of(name)
                    .ok_or_else(|| FungusError::UnknownColumn(name.clone()))?,
                name: name.clone(),
            }),
            Expr::Literal(_) | Expr::Meta(_) | Expr::Bound(_) => self.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: one(left)?,
                op: *op,
                right: one(right)?,
            },
            Expr::Compare { left, op, right } => Expr::Compare {
                left: one(left)?,
                op: *op,
                right: one(right)?,
            },
            Expr::And(a, b) => Expr::And(one(a)?, one(b)?),
            Expr::Or(a, b) => Expr::Or(one(a)?, one(b)?),
            Expr::Not(e) => Expr::Not(one(e)?),
            Expr::IsNull(e) => Expr::IsNull(one(e)?),
            Expr::IsNotNull(e) => Expr::IsNotNull(one(e)?),
            Expr::Neg(e) => Expr::Neg(one(e)?),
            Expr::InList { expr, list } => Expr::InList {
                expr: one(expr)?,
                list: all(list)?,
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: one(expr)?,
                low: one(low)?,
                high: one(high)?,
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: one(expr)?,
                pattern: pattern.clone(),
            },
            Expr::Call { func, args } => {
                func.check_arity(args.len())?;
                Expr::Call {
                    func: *func,
                    args: all(args)?,
                }
            }
            Expr::Case { arms, otherwise } => Expr::Case {
                arms: arms
                    .iter()
                    .map(|(c, r)| Ok((c.bind(schema)?, r.bind(schema)?)))
                    .collect::<Result<_>>()?,
                otherwise: otherwise.as_deref().map(one).transpose()?,
            },
        })
    }
}

fn compare(l: &Value, op: CmpOp, r: &Value) -> Option<bool> {
    match op {
        CmpOp::Eq => l.sql_eq(r),
        CmpOp::Ne => l.sql_eq(r).map(|b| !b),
        CmpOp::Lt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less),
        CmpOp::Le => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater),
        CmpOp::Gt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater),
        CmpOp::Ge => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less),
    }
}

fn tri_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn value_to_tri(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(FungusError::EvalError(format!(
            "expected boolean operand, got {}",
            other.data_type()
        ))),
    }
}

/// SQL LIKE matching with `%` and `_`, non-recursive two-pointer algorithm.
fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            // Backtrack: let the last % absorb one more character.
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Bound(c) => write!(f, "{c}"),
            Expr::Meta(m) => write!(f, "{}", m.name()),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Compare { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::Between { expr, low, high } => {
                write!(f, "({expr} BETWEEN {low} AND {high})")
            }
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Like { expr, pattern } => write!(f, "({expr} LIKE '{pattern}')"),
            Expr::Call { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Case { arms, otherwise } => {
                f.write_str("CASE")?;
                for (c, r) in arms {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fungus_types::{DataType, TupleId};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Str),
        ])
        .unwrap()
    }

    fn tuple() -> Tuple {
        Tuple::new(
            TupleId(7),
            Tick(10),
            vec![Value::Int(4), Value::Float(2.5), Value::from("hello")],
        )
    }

    fn eval(e: &Expr) -> Value {
        e.eval(&tuple(), &schema(), Tick(15)).unwrap()
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(eval(&Expr::col("a")), Value::Int(4));
        assert_eq!(eval(&Expr::lit(9i64)), Value::Int(9));
        assert!(matches!(
            Expr::col("zzz").eval(&tuple(), &schema(), Tick(0)),
            Err(FungusError::UnknownColumn(_))
        ));
    }

    #[test]
    fn meta_fields() {
        assert_eq!(eval(&Expr::Meta(MetaField::Id)), Value::Int(7));
        assert_eq!(eval(&Expr::Meta(MetaField::Age)), Value::Int(5));
        assert_eq!(eval(&Expr::Meta(MetaField::InsertedAt)), Value::Int(10));
        assert_eq!(eval(&Expr::Meta(MetaField::Freshness)), Value::Float(1.0));
        assert_eq!(eval(&Expr::Meta(MetaField::Reads)), Value::Int(0));
        assert_eq!(
            MetaField::from_name("freshness"),
            Some(MetaField::Freshness)
        );
        assert_eq!(MetaField::from_name("nope"), None);
    }

    #[test]
    fn arithmetic_tree() {
        // (a + 1) * 2 = 10
        let e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(Expr::col("a")),
                op: BinOp::Add,
                right: Box::new(Expr::lit(1i64)),
            }),
            op: BinOp::Mul,
            right: Box::new(Expr::lit(2i64)),
        };
        assert_eq!(eval(&e), Value::Int(10));
    }

    #[test]
    fn three_valued_logic() {
        let null = Expr::Literal(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        // NULL AND false = false; NULL AND true = NULL.
        assert_eq!(eval(&null.clone().and(f.clone())), Value::Bool(false));
        assert_eq!(eval(&null.clone().and(t.clone())), Value::Null);
        // NULL OR true = true; NULL OR false = NULL.
        assert_eq!(eval(&null.clone().or(t.clone())), Value::Bool(true));
        assert_eq!(eval(&null.clone().or(f.clone())), Value::Null);
        // NOT NULL = NULL.
        assert_eq!(eval(&Expr::Not(Box::new(null.clone()))), Value::Null);
        // Comparisons with NULL are NULL.
        assert_eq!(eval(&Expr::col("a").cmp(CmpOp::Eq, null)), Value::Null);
    }

    #[test]
    fn predicate_rejects_unknown() {
        let p = Expr::col("a").cmp(CmpOp::Eq, Expr::Literal(Value::Null));
        assert!(!p.eval_predicate(&tuple(), &schema(), Tick(0)).unwrap());
        let p = Expr::col("a").cmp(CmpOp::Eq, Expr::lit(4i64));
        assert!(p.eval_predicate(&tuple(), &schema(), Tick(0)).unwrap());
        // Non-boolean predicate is an error.
        assert!(Expr::col("a")
            .eval_predicate(&tuple(), &schema(), Tick(0))
            .is_err());
    }

    #[test]
    fn null_checks() {
        assert_eq!(
            eval(&Expr::IsNull(Box::new(Expr::Literal(Value::Null)))),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&Expr::IsNotNull(Box::new(Expr::col("a")))),
            Value::Bool(true)
        );
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::lit(4i64)],
        };
        assert_eq!(eval(&e), Value::Bool(true));
        // Not in list, but list contains NULL → NULL (unknown).
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
        };
        assert_eq!(eval(&e), Value::Null);
        // Not in list, no NULLs → false.
        let e = Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64)],
        };
        assert_eq!(eval(&e), Value::Bool(false));
        // NULL probe → NULL.
        let e = Expr::InList {
            expr: Box::new(Expr::Literal(Value::Null)),
            list: vec![Expr::lit(1i64)],
        };
        assert_eq!(eval(&e), Value::Null);
    }

    #[test]
    fn between_is_inclusive() {
        let mk = |lo: i64, hi: i64| Expr::Between {
            expr: Box::new(Expr::col("a")),
            low: Box::new(Expr::lit(lo)),
            high: Box::new(Expr::lit(hi)),
        };
        assert_eq!(eval(&mk(4, 4)), Value::Bool(true));
        assert_eq!(eval(&mk(1, 3)), Value::Bool(false));
        assert_eq!(eval(&mk(1, 10)), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(!like_match("hello", "world%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b")); // % in data matches literally via wildcard
        let e = Expr::Like {
            expr: Box::new(Expr::col("s")),
            pattern: "he%".into(),
        };
        assert_eq!(eval(&e), Value::Bool(true));
        let e = Expr::Like {
            expr: Box::new(Expr::col("a")),
            pattern: "%".into(),
        };
        assert!(
            e.eval(&tuple(), &schema(), Tick(0)).is_err(),
            "LIKE on Int errors"
        );
    }

    #[test]
    fn negation() {
        assert_eq!(eval(&Expr::Neg(Box::new(Expr::col("a")))), Value::Int(-4));
        assert!(Expr::Neg(Box::new(Expr::col("s")))
            .eval(&tuple(), &schema(), Tick(0))
            .is_err());
    }

    #[test]
    fn scalar_functions_evaluate() {
        use crate::parser::parse_expr;
        let t = tuple(); // a=4, b=2.5, s="hello"
        let sch = schema();
        let eval_sql = |src: &str| parse_expr(src).unwrap().eval(&t, &sch, Tick(0)).unwrap();
        assert_eq!(eval_sql("ABS(-7)"), Value::Int(7));
        assert_eq!(eval_sql("ABS(0 - b)"), Value::Float(2.5));
        assert_eq!(eval_sql("ROUND(b)"), Value::Float(3.0));
        assert_eq!(eval_sql("ROUND(2.345, 2)"), Value::Float(2.35));
        assert_eq!(eval_sql("FLOOR(b)"), Value::Float(2.0));
        assert_eq!(eval_sql("CEIL(b)"), Value::Float(3.0));
        assert_eq!(eval_sql("LENGTH(s)"), Value::Int(5));
        assert_eq!(eval_sql("UPPER(s)"), Value::from("HELLO"));
        assert_eq!(eval_sql("LOWER(UPPER(s))"), Value::from("hello"));
        assert_eq!(eval_sql("COALESCE(NULL, NULL, a, 9)"), Value::Int(4));
        assert!(eval_sql("COALESCE(NULL)").is_null());
        assert!(eval_sql("ABS(NULL)").is_null());
        // LENGTH counts characters, not bytes.
        assert_eq!(
            Expr::Call {
                func: ScalarFunc::Length,
                args: vec![Expr::lit("héllo")],
            }
            .eval(&t, &sch, Tick(0))
            .unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn scalar_function_errors() {
        use crate::parser::parse_expr;
        let t = tuple();
        let sch = schema();
        // Wrong types.
        assert!(parse_expr("ABS(s)")
            .unwrap()
            .eval(&t, &sch, Tick(0))
            .is_err());
        assert!(parse_expr("LENGTH(a)")
            .unwrap()
            .eval(&t, &sch, Tick(0))
            .is_err());
        // Wrong arity is caught by bind (plan time) and eval.
        let bad = Expr::Call {
            func: ScalarFunc::Abs,
            args: vec![],
        };
        assert!(bad.bind(&sch).is_err());
        assert!(bad.eval(&t, &sch, Tick(0)).is_err());
        // Unknown functions fail at parse time.
        assert!(parse_expr("BOGUS(1)").is_err());
        // ABS(i64::MIN) spills to float instead of panicking.
        let v = Expr::Call {
            func: ScalarFunc::Abs,
            args: vec![Expr::lit(i64::MIN)],
        }
        .eval(&t, &sch, Tick(0))
        .unwrap();
        assert_eq!(v.data_type(), DataType::Float);
    }

    #[test]
    fn call_display_reparses() {
        use crate::parser::parse_expr;
        let e = parse_expr("COALESCE(ROUND(b, 1), ABS(a), 0)").unwrap();
        assert_eq!(e.to_string(), "COALESCE(ROUND(b, 1), ABS(a), 0)");
        assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
    }

    #[test]
    fn bind_finds_unknown_columns() {
        let good = Expr::col("a").and(Expr::col("b").cmp(CmpOp::Gt, Expr::lit(0i64)));
        assert!(good.bind(&schema()).is_ok());
        let bad = Expr::col("a").and(Expr::col("zzz").cmp(CmpOp::Gt, Expr::lit(0i64)));
        assert!(matches!(bad.bind(&schema()), Err(FungusError::UnknownColumn(n)) if n == "zzz"));
    }

    #[test]
    fn bound_expressions_evaluate_and_render_like_named_ones() {
        use crate::parser::parse_expr;
        let src = "CASE WHEN s LIKE 'he%' THEN a * 2 ELSE COALESCE(NULL, b) END";
        let named = parse_expr(src).unwrap();
        let bound = named.bind(&schema()).unwrap();
        assert_ne!(bound, named);
        assert_eq!(bound.to_string(), named.to_string());
        assert_eq!(eval(&bound), eval(&named));
        assert_eq!(eval(&bound), Value::Int(8));
        // A bound tree no longer needs the schema it was bound against.
        let empty = Schema::new(vec![]).unwrap();
        assert_eq!(
            bound.eval(&tuple(), &empty, Tick(0)).unwrap(),
            Value::Int(8)
        );
    }

    #[test]
    fn display_renders_parenthesised_sql() {
        let e = Expr::col("a")
            .cmp(CmpOp::Gt, Expr::lit(1i64))
            .and(Expr::Meta(MetaField::Freshness).cmp(CmpOp::Lt, Expr::lit(0.5)));
        assert_eq!(e.to_string(), "((a > 1) AND ($freshness < 0.5))");
    }

    #[test]
    fn short_circuit_skips_errors_on_right() {
        // false AND <type error> = false thanks to short-circuit.
        let e = Expr::lit(false).and(Expr::col("zzz"));
        assert_eq!(eval(&e), Value::Bool(false));
        let e = Expr::lit(true).or(Expr::col("zzz"));
        assert_eq!(eval(&e), Value::Bool(true));
    }
}
