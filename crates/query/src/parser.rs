//! A hand-rolled lexer and recursive-descent parser for the engine's
//! SQL-ish surface language.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := select | insert
//! select     := SELECT proj (',' proj)* FROM ident
//!               [WHERE expr] [GROUP BY ident (',' ident)*]
//!               [ORDER BY sortkey (',' sortkey)*] [LIMIT int] [CONSUME]
//! proj       := '*' | expr [AS ident]
//! sortkey    := expr [ASC | DESC]
//! insert     := INSERT INTO ident VALUES row (',' row)*
//! row        := '(' expr (',' expr)* ')'
//! expr       := or-chain over and-chains over NOT/comparison/IS NULL/
//!               IN/BETWEEN/LIKE over +,- over *,/,% over unary over atoms
//! atom       := literal | ident | '$'ident | agg '(' (expr|'*') ')' | '(' expr ')'
//! ```
//!
//! `CONSUME` is the paper's second natural law: the matched tuples are
//! removed from the container atomically with the scan.

use fungus_types::{FungusError, Result, Value};

use crate::expr::{AggFunc, BinOp, CmpOp, Expr, MetaField, ScalarFunc};

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*` — every attribute column.
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression (may contain an aggregate).
        expr: ProjExpr,
        /// Optional `AS` alias.
        alias: Option<String>,
    },
}

/// A projection expression: plain or aggregated.
#[derive(Debug, Clone, PartialEq)]
pub enum ProjExpr {
    /// A row-level expression.
    Scalar(Expr),
    /// `agg(expr)`; `COUNT(*)` carries `None`.
    Aggregate(AggFunc, Option<Expr>),
    /// `COUNT(DISTINCT expr)` — exact distinct count within each group.
    CountDistinct(Expr),
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending order?
    pub descending: bool,
}

/// A parsed `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<Projection>,
    /// Source container name.
    pub table: String,
    /// Optional predicate.
    pub predicate: Option<Expr>,
    /// Optional group-by column names.
    pub group_by: Vec<String>,
    /// Optional HAVING filter over the aggregate output row.
    pub having: Option<Expr>,
    /// Optional sort keys.
    pub order_by: Vec<SortKey>,
    /// Optional row limit.
    pub limit: Option<usize>,
    /// Consume semantics (second natural law).
    pub consume: bool,
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query (possibly consuming).
    Select(SelectStatement),
    /// `INSERT INTO t VALUES (…), (…)` — rows of literal expressions.
    Insert {
        /// Target container.
        table: String,
        /// Literal rows (evaluated without a tuple context).
        rows: Vec<Vec<Expr>>,
    },
    /// `CREATE [ORDERED] INDEX ON t (col)` — build a secondary index
    /// (hash by default; `ORDERED` builds a B-tree for range probes).
    CreateIndex {
        /// Target container.
        table: String,
        /// Indexed column.
        column: String,
        /// B-tree instead of hash.
        ordered: bool,
    },
    /// `CREATE CONTAINER t (a INT, b FLOAT NOT NULL) [WITH FUNGUS name(args…)]
    /// [SHARDS n | WITH SHARDING (rows_per_shard = n, …)]
    /// [WITH DISTILL (name = scheme(args…) [ON col], …)] [DECAY EVERY n]`
    /// — DDL interpreted by the engine layer; clauses may appear in any
    /// order after the column list.
    CreateContainer(CreateContainerStatement),
    /// `DELETE FROM t [WHERE p]` — owner deletion (tombstoned as
    /// `Deleted`, not `Consumed`: the rows were discarded, not read).
    Delete {
        /// Target container.
        table: String,
        /// Optional predicate; `None` empties the container.
        predicate: Option<Expr>,
    },
    /// `EXPLAIN <select>` — render the logical plan instead of running it.
    Explain(Box<SelectStatement>),
    /// `SUMMARIZE <summary> FROM t [TOP n]` — read a distillation
    /// pipeline's current answers as a small relation. The read path of
    /// the cooking pipelines: what `SELECT` is to the live extent,
    /// `SUMMARIZE` is to the summaries of the departed data.
    Summarize {
        /// Source container.
        table: String,
        /// Distillation pipeline name (from `WITH DISTILL (…)`).
        summary: String,
        /// Optional row cap on the report (e.g. the top-k cut).
        top: Option<usize>,
    },
}

/// A parsed `CREATE CONTAINER`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateContainerStatement {
    /// New container name.
    pub name: String,
    /// Columns as `(name, type name, nullable)`; type names are resolved
    /// by the engine layer (`INT`, `FLOAT`, `STR`/`TEXT`, `BOOL`, `BYTES`).
    pub columns: Vec<(String, String, bool)>,
    /// Optional fungus: `(name, numeric args)`, resolved by the engine.
    pub fungus: Option<(String, Vec<f64>)>,
    /// Optional decay cadence in ticks.
    pub decay_every: Option<u64>,
    /// Optional extent sharding, from `SHARDS n` or `WITH SHARDING (…)`.
    pub sharding: Option<ShardingClause>,
    /// Distillation pipelines from `WITH DISTILL (…)`, in declaration
    /// order; resolved into summary specs by the engine layer.
    pub distill: Vec<DistillClause>,
}

/// Declarative sharding options from a `CREATE CONTAINER` statement —
/// either the `SHARDS n` shorthand or the full
/// `WITH SHARDING (rows_per_shard = n, adaptive = on|off, low_water = f)`
/// form. The engine layer resolves this into its shard specification;
/// unset options take the engine's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingClause {
    /// Target rows per time-range shard (`SHARDS n` sets only this).
    pub rows_per_shard: u64,
    /// `adaptive = on|off`: split hot tails early and merge hollowed-out
    /// sealed neighbors during eviction sweeps. `None` = engine default.
    pub adaptive: Option<bool>,
    /// `low_water = f`: merge a sealed shard whose live fraction falls
    /// under `f` (0 disables merging). `None` = engine default.
    pub low_water: Option<f64>,
}

/// One pipeline of a `WITH DISTILL (name = func(args…) [ON column], …)`
/// clause. The parser records the scheme name and numeric arguments
/// verbatim — `fading_topk(10, 0.05)`, `tbs(64, 0.05)`, `moments()`, … —
/// and the engine layer resolves them into summary specifications, the
/// same split used for fungus names.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillClause {
    /// Pipeline name (unique within the container; the handle `SUMMARIZE`
    /// and `.sketch` read by).
    pub name: String,
    /// Cooking-scheme name, resolved by the engine layer.
    pub func: String,
    /// Numeric scheme arguments.
    pub args: Vec<f64>,
    /// Optional `ON column` source; `None` observes departure freshness.
    pub column: Option<String>,
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Meta(String),
    Int(i64),
    Float(f64),
    Str(String),
    Symbol(char),
    Le,
    Ge,
    Ne,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: impl Into<String>) -> FungusError {
        FungusError::ParseError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next_token(&mut self) -> Result<(Tok, usize)> {
        self.skip_ws();
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Ok((Tok::Eof, start));
        }
        let c = self.bytes[self.pos];
        match c {
            b'0'..=b'9' => {
                let mut end = self.pos;
                let mut is_float = false;
                while end < self.bytes.len()
                    && (self.bytes[end].is_ascii_digit() || self.bytes[end] == b'.')
                {
                    if self.bytes[end] == b'.' {
                        // Guard against `1..2` style; a second dot ends the number.
                        if is_float {
                            break;
                        }
                        is_float = true;
                    }
                    end += 1;
                }
                let text = &self.src[self.pos..end];
                self.pos = end;
                if is_float {
                    text.parse::<f64>()
                        .map(|f| (Tok::Float(f), start))
                        .map_err(|_| self.error(format!("bad float literal `{text}`")))
                } else {
                    text.parse::<i64>()
                        .map(|i| (Tok::Int(i), start))
                        .map_err(|_| self.error(format!("integer literal out of range `{text}`")))
                }
            }
            b'\'' => {
                // String literal with '' escaping.
                let mut out = String::new();
                let mut i = self.pos + 1;
                loop {
                    if i >= self.bytes.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    if self.bytes[i] == b'\'' {
                        if i + 1 < self.bytes.len() && self.bytes[i + 1] == b'\'' {
                            out.push('\'');
                            i += 2;
                            continue;
                        }
                        break;
                    }
                    // Copy one UTF-8 character.
                    let ch_start = i;
                    let mut ch_end = i + 1;
                    while ch_end < self.bytes.len() && (self.bytes[ch_end] & 0xC0) == 0x80 {
                        ch_end += 1;
                    }
                    out.push_str(&self.src[ch_start..ch_end]);
                    i = ch_end;
                }
                self.pos = i + 1;
                Ok((Tok::Str(out), start))
            }
            b'$' => {
                let mut end = self.pos + 1;
                while end < self.bytes.len()
                    && (self.bytes[end].is_ascii_alphanumeric() || self.bytes[end] == b'_')
                {
                    end += 1;
                }
                if end == self.pos + 1 {
                    return Err(self.error("expected pseudo-column name after `$`"));
                }
                let name = self.src[self.pos + 1..end].to_string();
                self.pos = end;
                Ok((Tok::Meta(name), start))
            }
            b'<' => {
                self.pos += 1;
                if self.pos < self.bytes.len() && self.bytes[self.pos] == b'=' {
                    self.pos += 1;
                    Ok((Tok::Le, start))
                } else if self.pos < self.bytes.len() && self.bytes[self.pos] == b'>' {
                    self.pos += 1;
                    Ok((Tok::Ne, start))
                } else {
                    Ok((Tok::Symbol('<'), start))
                }
            }
            b'>' => {
                self.pos += 1;
                if self.pos < self.bytes.len() && self.bytes[self.pos] == b'=' {
                    self.pos += 1;
                    Ok((Tok::Ge, start))
                } else {
                    Ok((Tok::Symbol('>'), start))
                }
            }
            b'!' => {
                self.pos += 1;
                if self.pos < self.bytes.len() && self.bytes[self.pos] == b'=' {
                    self.pos += 1;
                    Ok((Tok::Ne, start))
                } else {
                    Err(self.error("unexpected `!` (did you mean `!=`?)"))
                }
            }
            b'=' | b'(' | b')' | b',' | b'+' | b'-' | b'*' | b'/' | b'%' => {
                self.pos += 1;
                Ok((Tok::Symbol(c as char), start))
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = self.pos;
                while end < self.bytes.len()
                    && (self.bytes[end].is_ascii_alphanumeric() || self.bytes[end] == b'_')
                {
                    end += 1;
                }
                let ident = self.src[self.pos..end].to_string();
                self.pos = end;
                Ok((Tok::Ident(ident), start))
            }
            other => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }
}

// --------------------------------------------------------------- parser --

struct Parser {
    tokens: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let (tok, off) = lexer.next_token()?;
            let eof = tok == Tok::Eof;
            tokens.push((tok, off));
            if eof {
                break;
            }
        }
        Ok(Parser { tokens, pos: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].0
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].1
    }

    fn error(&self, msg: impl Into<String>) -> FungusError {
        FungusError::ParseError {
            message: msg.into(),
            offset: self.offset(),
        }
    }

    fn bump(&mut self) -> Tok {
        let tok = self.tokens[self.pos].0.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    /// Consumes the next token if it is the keyword `kw` (case-insensitive).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Ident(id) = self.peek() {
            if id.eq_ignore_ascii_case(kw) {
                self.bump();
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        if *self.peek() == Tok::Symbol(c) {
            self.bump();
            return true;
        }
        false
    }

    fn expect_symbol(&mut self, c: char) -> Result<()> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{c}`")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(id) => {
                self.bump();
                Ok(id)
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(id) if id.eq_ignore_ascii_case(kw))
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else if self.peek_kw("INSERT") {
            self.insert()
        } else if self.peek_kw("CREATE") {
            self.create_index()
        } else if self.peek_kw("DELETE") {
            self.delete()
        } else if self.peek_kw("EXPLAIN") {
            self.bump();
            let stmt = self.select()?;
            Ok(Statement::Explain(Box::new(stmt)))
        } else if self.peek_kw("SUMMARIZE") {
            self.summarize()
        } else {
            Err(self.error("expected SELECT, INSERT, DELETE, EXPLAIN, SUMMARIZE, or CREATE"))
        }
    }

    fn summarize(&mut self) -> Result<Statement> {
        self.expect_kw("SUMMARIZE")?;
        let summary = self.expect_ident("summary name")?;
        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let top = if self.eat_kw("TOP") {
            match self.bump() {
                Tok::Int(n) if n > 0 => Some(n as usize),
                _ => return Err(self.error("TOP expects a positive integer")),
            }
        } else {
            None
        };
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Statement::Summarize {
            table,
            summary,
            top,
        })
    }

    fn create_index(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.peek_kw("CONTAINER") || self.peek_kw("TABLE") {
            self.bump();
            return self.create_container();
        }
        let ordered = self.eat_kw("ORDERED");
        self.expect_kw("INDEX")?;
        self.expect_kw("ON")?;
        let table = self.expect_ident("table name")?;
        self.expect_symbol('(')?;
        let column = self.expect_ident("column name")?;
        self.expect_symbol(')')?;
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Statement::CreateIndex {
            table,
            column,
            ordered,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Statement::Delete { table, predicate })
    }

    fn create_container(&mut self) -> Result<Statement> {
        let name = self.expect_ident("container name")?;
        self.expect_symbol('(')?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident("column name")?;
            let ty = self.expect_ident("column type")?;
            let mut nullable = true;
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                nullable = false;
            }
            columns.push((col, ty, nullable));
            if !self.eat_symbol(',') {
                break;
            }
        }
        self.expect_symbol(')')?;
        let mut fungus = None;
        let mut decay_every = None;
        let mut sharding = None;
        let mut distill = Vec::new();
        loop {
            if self.eat_kw("WITH") {
                if self.eat_kw("FUNGUS") {
                    if fungus.is_some() {
                        return Err(self.error("duplicate WITH FUNGUS clause"));
                    }
                    let fname = self.expect_ident("fungus name")?;
                    let mut args = Vec::new();
                    if self.eat_symbol('(') && !self.eat_symbol(')') {
                        loop {
                            match self.bump() {
                                Tok::Int(i) => args.push(i as f64),
                                Tok::Float(f) => args.push(f),
                                _ => return Err(self.error("fungus arguments must be numbers")),
                            }
                            if self.eat_symbol(')') {
                                break;
                            }
                            self.expect_symbol(',')?;
                        }
                    }
                    fungus = Some((fname, args));
                } else if self.eat_kw("SHARDING") {
                    if sharding.is_some() {
                        return Err(self.error("duplicate sharding clause"));
                    }
                    sharding = Some(self.sharding_options()?);
                } else if self.eat_kw("DISTILL") {
                    if !distill.is_empty() {
                        return Err(self.error("duplicate WITH DISTILL clause"));
                    }
                    distill = self.distill_options()?;
                } else {
                    return Err(self.error("expected FUNGUS, SHARDING, or DISTILL after WITH"));
                }
            } else if self.eat_kw("SHARDS") {
                if sharding.is_some() {
                    return Err(self.error("duplicate sharding clause"));
                }
                match self.bump() {
                    Tok::Int(n) if n > 0 => {
                        sharding = Some(ShardingClause {
                            rows_per_shard: n as u64,
                            adaptive: None,
                            low_water: None,
                        })
                    }
                    _ => return Err(self.error("SHARDS expects a positive integer")),
                }
            } else if self.eat_kw("DECAY") {
                if decay_every.is_some() {
                    return Err(self.error("duplicate DECAY EVERY clause"));
                }
                self.expect_kw("EVERY")?;
                match self.bump() {
                    Tok::Int(n) if n > 0 => decay_every = Some(n as u64),
                    _ => return Err(self.error("DECAY EVERY expects a positive integer")),
                }
            } else {
                break;
            }
        }
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Statement::CreateContainer(CreateContainerStatement {
            name,
            columns,
            fungus,
            decay_every,
            sharding,
            distill,
        }))
    }

    /// `(name = func(args…) [ON column], …)` — at least one pipeline;
    /// names must be unique (caught again with better context at the
    /// engine layer, but an early error keeps offsets useful).
    fn distill_options(&mut self) -> Result<Vec<DistillClause>> {
        self.expect_symbol('(')?;
        let mut clauses: Vec<DistillClause> = Vec::new();
        loop {
            let name = self.expect_ident("distill pipeline name")?;
            if clauses.iter().any(|c| c.name == name) {
                return Err(self.error(format!("duplicate distill pipeline `{name}`")));
            }
            self.expect_symbol('=')?;
            let func = self.expect_ident("summary scheme name")?;
            let mut args = Vec::new();
            if self.eat_symbol('(') && !self.eat_symbol(')') {
                loop {
                    match self.bump() {
                        Tok::Int(i) => args.push(i as f64),
                        Tok::Float(f) => args.push(f),
                        _ => return Err(self.error("summary arguments must be numbers")),
                    }
                    if self.eat_symbol(')') {
                        break;
                    }
                    self.expect_symbol(',')?;
                }
            }
            let column = if self.eat_kw("ON") {
                Some(self.expect_ident("distill source column")?)
            } else {
                None
            };
            clauses.push(DistillClause {
                name,
                func,
                args,
                column,
            });
            if self.eat_symbol(')') {
                break;
            }
            self.expect_symbol(',')?;
        }
        Ok(clauses)
    }

    /// `(rows_per_shard = n, adaptive = on|off, low_water = f)`
    /// in any order; `rows_per_shard` is mandatory, the rest default at the
    /// engine layer.
    fn sharding_options(&mut self) -> Result<ShardingClause> {
        self.expect_symbol('(')?;
        let mut rows_per_shard = None;
        let mut adaptive = None;
        let mut low_water = None;
        loop {
            let key = self.expect_ident("sharding option name")?.to_lowercase();
            self.expect_symbol('=')?;
            match key.as_str() {
                "rows_per_shard" => match self.bump() {
                    Tok::Int(n) if n > 0 => rows_per_shard = Some(n as u64),
                    _ => return Err(self.error("rows_per_shard expects a positive integer")),
                },
                "adaptive" => {
                    if self.eat_kw("ON") {
                        adaptive = Some(true);
                    } else if self.eat_kw("OFF") {
                        adaptive = Some(false);
                    } else {
                        return Err(self.error("adaptive expects on or off"));
                    }
                }
                "low_water" => match self.bump() {
                    Tok::Float(f) => low_water = Some(f),
                    Tok::Int(n) if n >= 0 => low_water = Some(n as f64),
                    _ => return Err(self.error("low_water expects a number")),
                },
                other => {
                    return Err(self.error(format!(
                        "unknown sharding option `{other}` \
                         (expected rows_per_shard, adaptive, or low_water)"
                    )))
                }
            }
            if self.eat_symbol(')') {
                break;
            }
            self.expect_symbol(',')?;
        }
        let rows_per_shard =
            rows_per_shard.ok_or_else(|| self.error("WITH SHARDING requires rows_per_shard"))?;
        Ok(ShardingClause {
            rows_per_shard,
            adaptive,
            low_water,
        })
    }

    fn select(&mut self) -> Result<SelectStatement> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projections = vec![self.projection()?];
        while self.eat_symbol(',') {
            projections.push(self.projection()?);
        }
        self.expect_kw("FROM")?;
        let table = self.expect_ident("table name")?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expect_ident("group-by column")?);
            while self.eat_symbol(',') {
                group_by.push(self.expect_ident("group-by column")?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(SortKey { expr, descending });
                if !self.eat_symbol(',') {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as usize),
                _ => return Err(self.error("LIMIT expects a non-negative integer")),
            }
        } else {
            None
        };
        let consume = self.eat_kw("CONSUME");
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(SelectStatement {
            distinct,
            projections,
            table,
            predicate,
            group_by,
            having,
            order_by,
            limit,
            consume,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.expect_ident("table name")?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol('(')?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(',') {
                row.push(self.expr()?);
            }
            self.expect_symbol(')')?;
            rows.push(row);
            if !self.eat_symbol(',') {
                break;
            }
        }
        if *self.peek() != Tok::Eof {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(Statement::Insert { table, rows })
    }

    fn projection(&mut self) -> Result<Projection> {
        if self.eat_symbol('*') {
            return Ok(Projection::Wildcard);
        }
        // Aggregate call?
        if let Tok::Ident(name) = self.peek().clone() {
            if let Some(func) = AggFunc::from_name(&name) {
                if self.tokens.get(self.pos + 1).map(|t| &t.0) == Some(&Tok::Symbol('(')) {
                    self.bump(); // name
                    self.bump(); // (
                    if func == AggFunc::Count && self.eat_kw("DISTINCT") {
                        let arg = self.expr()?;
                        self.expect_symbol(')')?;
                        let alias = self.alias()?;
                        return Ok(Projection::Expr {
                            expr: ProjExpr::CountDistinct(arg),
                            alias,
                        });
                    }
                    let arg = if self.eat_symbol('*') {
                        if func != AggFunc::Count && func != AggFunc::FCount {
                            return Err(self.error("only COUNT/FCOUNT may take `*`"));
                        }
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_symbol(')')?;
                    let alias = self.alias()?;
                    return Ok(Projection::Expr {
                        expr: ProjExpr::Aggregate(func, arg),
                        alias,
                    });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(Projection::Expr {
            expr: ProjExpr::Scalar(expr),
            alias,
        })
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            Ok(Some(self.expect_ident("alias")?))
        } else {
            Ok(None)
        }
    }

    /// Parses the body of a searched CASE (the `CASE` keyword is consumed).
    fn case_expr(&mut self) -> Result<Expr> {
        let mut arms = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let result = self.expr()?;
            arms.push((cond, result));
        }
        if arms.is_empty() {
            return Err(self.error("CASE requires at least one WHEN arm"));
        }
        let otherwise = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case { arms, otherwise })
    }

    // expr := and_chain (OR and_chain)*
    fn expr(&mut self) -> Result<Expr> {
        let mut left = self.and_chain()?;
        while self.eat_kw("OR") {
            let right = self.and_chain()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_chain(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(if negated {
                Expr::IsNotNull(Box::new(left))
            } else {
                Expr::IsNull(Box::new(left))
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_symbol('(')?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(',') {
                list.push(self.expr()?);
            }
            self.expect_symbol(')')?;
            let e = Expr::InList {
                expr: Box::new(left),
                list,
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            let e = Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                Tok::Str(s) => s,
                _ => return Err(self.error("LIKE expects a string literal pattern")),
            };
            let e = Expr::Like {
                expr: Box::new(left),
                pattern,
            };
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        if negated {
            return Err(self.error("expected IN, BETWEEN, or LIKE after NOT"));
        }
        let op = match self.peek() {
            Tok::Symbol('=') => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Symbol('<') => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Symbol('>') => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(left.cmp(op, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Symbol('+') => BinOp::Add,
                Tok::Symbol('-') => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Symbol('*') => BinOp::Mul,
                Tok::Symbol('/') => BinOp::Div,
                Tok::Symbol('%') => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol('-') {
            // Constant-fold negation of numeric literals so `-7` parses to
            // the literal −7 (making pretty-printed trees reparse exactly).
            let inner = self.unary()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => match i.checked_neg() {
                    Some(n) => Expr::lit(n),
                    None => Expr::Neg(Box::new(Expr::lit(i))),
                },
                Expr::Literal(Value::Float(f)) => Expr::lit(-f),
                other => Expr::Neg(Box::new(other)),
            });
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::lit(i))
            }
            Tok::Float(f) => {
                self.bump();
                Ok(Expr::lit(f))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Tok::Meta(name) => {
                self.bump();
                MetaField::from_name(&name)
                    .map(Expr::Meta)
                    .ok_or_else(|| self.error(format!("unknown pseudo-column `${name}`")))
            }
            Tok::Symbol('(') => {
                self.bump();
                let e = self.expr()?;
                self.expect_symbol(')')?;
                Ok(e)
            }
            Tok::Ident(id) => {
                self.bump();
                // A scalar function call? (aggregates are handled at the
                // projection level, not inside expressions).
                if *self.peek() == Tok::Symbol('(') {
                    if let Some(func) = ScalarFunc::from_name(&id) {
                        self.bump(); // (
                        let mut args = vec![self.expr()?];
                        while self.eat_symbol(',') {
                            args.push(self.expr()?);
                        }
                        self.expect_symbol(')')?;
                        return Ok(Expr::Call { func, args });
                    }
                    return Err(self.error(format!("unknown function `{id}`")));
                }
                match id.to_ascii_uppercase().as_str() {
                    "TRUE" => Ok(Expr::lit(true)),
                    "FALSE" => Ok(Expr::lit(false)),
                    "NULL" => Ok(Expr::Literal(Value::Null)),
                    "CASE" => self.case_expr(),
                    _ => Ok(Expr::col(id)),
                }
            }
            other => Err(self.error(format!("unexpected token {other:?}"))),
        }
    }
}

/// Parses one statement.
pub fn parse_statement(src: &str) -> Result<Statement> {
    Parser::new(src)?.statement()
}

/// Parses a standalone expression (used in tests and interactive tools).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if *p.peek() != Tok::Eof {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(src: &str) -> SelectStatement {
        match parse_statement(src).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = select("SELECT * FROM r");
        assert_eq!(s.table, "r");
        assert_eq!(s.projections, vec![Projection::Wildcard]);
        assert!(s.predicate.is_none());
        assert!(!s.consume);
        assert!(s.order_by.is_empty());
        assert!(s.group_by.is_empty());
        assert_eq!(s.limit, None);
    }

    #[test]
    fn full_select_with_consume() {
        let s = select(
            "select a, b * 2 as twice from sensors \
             where a > 3 and $freshness < 0.5 \
             order by a desc limit 10 consume",
        );
        assert_eq!(s.table, "sensors");
        assert_eq!(s.projections.len(), 2);
        assert!(s.consume);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].descending);
        let p = s.predicate.unwrap().to_string();
        assert_eq!(p, "((a > 3) AND ($freshness < 0.5))");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let s = select("SeLeCt * FrOm R wHeRe A = 1 CoNsUmE");
        assert!(s.consume);
        assert_eq!(s.table, "R");
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + (2 * 3))");
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "((1 + 2) * 3)");
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        assert_eq!(e.to_string(), "((a = 1) OR ((b = 2) AND (c = 3)))");
        let e = parse_expr("NOT a = 1").unwrap();
        assert_eq!(e.to_string(), "(NOT (a = 1))");
    }

    #[test]
    fn comparison_operators() {
        for (src, expect) in [
            ("a = 1", "(a = 1)"),
            ("a <> 1", "(a <> 1)"),
            ("a != 1", "(a <> 1)"),
            ("a < 1", "(a < 1)"),
            ("a <= 1", "(a <= 1)"),
            ("a > 1", "(a > 1)"),
            ("a >= 1", "(a >= 1)"),
        ] {
            assert_eq!(parse_expr(src).unwrap().to_string(), expect, "{src}");
        }
    }

    #[test]
    fn literals() {
        assert_eq!(parse_expr("3.5").unwrap(), Expr::lit(3.5));
        assert_eq!(
            parse_expr("'it''s'").unwrap(),
            Expr::Literal(Value::from("it's"))
        );
        assert_eq!(parse_expr("TRUE").unwrap(), Expr::lit(true));
        assert_eq!(parse_expr("false").unwrap(), Expr::lit(false));
        assert_eq!(parse_expr("NULL").unwrap(), Expr::Literal(Value::Null));
        assert_eq!(parse_expr("-7").unwrap(), Expr::lit(-7i64));
        assert_eq!(parse_expr("-7").unwrap().to_string(), "-7");
        assert_eq!(parse_expr("-3.5").unwrap(), Expr::lit(-3.5));
        assert_eq!(parse_expr("-a").unwrap().to_string(), "(-a)");
    }

    #[test]
    fn postfix_predicates() {
        assert_eq!(parse_expr("a IS NULL").unwrap().to_string(), "(a IS NULL)");
        assert_eq!(
            parse_expr("a IS NOT NULL").unwrap().to_string(),
            "(a IS NOT NULL)"
        );
        assert_eq!(
            parse_expr("a IN (1, 2, 3)").unwrap().to_string(),
            "(a IN (1, 2, 3))"
        );
        assert_eq!(
            parse_expr("a NOT IN (1)").unwrap().to_string(),
            "(NOT (a IN (1)))"
        );
        assert_eq!(
            parse_expr("a BETWEEN 1 AND 5").unwrap().to_string(),
            "(a BETWEEN 1 AND 5)"
        );
        assert_eq!(
            parse_expr("s LIKE 'h%'").unwrap().to_string(),
            "(s LIKE 'h%')"
        );
        assert_eq!(
            parse_expr("s NOT LIKE 'h%'").unwrap().to_string(),
            "(NOT (s LIKE 'h%'))"
        );
    }

    #[test]
    fn pseudo_columns() {
        let e = parse_expr("$age > 100").unwrap();
        assert_eq!(e.to_string(), "($age > 100)");
        assert!(parse_expr("$bogus > 1").is_err());
        assert!(parse_expr("$ > 1").is_err());
    }

    #[test]
    fn aggregates_and_group_by() {
        let s = select("SELECT sensor, COUNT(*), AVG(v) AS mean FROM r GROUP BY sensor");
        assert_eq!(s.group_by, vec!["sensor".to_string()]);
        assert_eq!(s.projections.len(), 3);
        match &s.projections[1] {
            Projection::Expr {
                expr: ProjExpr::Aggregate(AggFunc::Count, None),
                ..
            } => {}
            other => panic!("expected COUNT(*), got {other:?}"),
        }
        match &s.projections[2] {
            Projection::Expr {
                expr: ProjExpr::Aggregate(AggFunc::Avg, Some(_)),
                alias: Some(a),
            } => assert_eq!(a, "mean"),
            other => panic!("expected AVG(v) AS mean, got {other:?}"),
        }
    }

    #[test]
    fn sum_star_is_rejected() {
        let err = parse_statement("SELECT SUM(*) FROM r").unwrap_err();
        assert!(err.to_string().contains("COUNT"));
    }

    #[test]
    fn insert_statement() {
        let s = parse_statement("INSERT INTO r VALUES (1, 'a'), (2, NULL)").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "r");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
                assert_eq!(rows[1][1], Expr::Literal(Value::Null));
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = parse_statement("SELECT FROM r").unwrap_err();
        match err {
            FungusError::ParseError { offset, .. } => assert!(offset >= 7),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(parse_statement("").is_err());
        assert!(parse_statement("DROP TABLE r").is_err());
        // DELETE is now a real statement; a bare one parses fine.
        assert!(matches!(
            parse_statement("DELETE FROM r").unwrap(),
            Statement::Delete {
                predicate: None,
                ..
            }
        ));
        assert!(parse_statement("DELETE FROM r WHERE a = 1 extra").is_err());
        assert!(parse_statement("SELECT * FROM r extra_garbage").is_err());
        assert!(parse_statement("SELECT * FROM r WHERE 'unterminated").is_err());
        assert!(parse_statement("SELECT * FROM r LIMIT x").is_err());
        assert!(parse_statement("SELECT a FROM r WHERE a NOT 5").is_err());
    }

    #[test]
    fn numeric_edge_cases() {
        assert!(
            parse_expr("99999999999999999999999").is_err(),
            "i64 overflow"
        );
        assert_eq!(parse_expr("0.5").unwrap(), Expr::lit(0.5));
    }

    #[test]
    fn utf8_string_literals() {
        assert_eq!(
            parse_expr("'héllo → wörld'").unwrap(),
            Expr::Literal(Value::from("héllo → wörld"))
        );
    }

    #[test]
    fn case_expressions_parse_and_roundtrip() {
        let e = parse_expr("CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END")
            .unwrap();
        let printed = e.to_string();
        assert_eq!(
            printed,
            "CASE WHEN (a > 1) THEN 'big' WHEN (a = 1) THEN 'one' ELSE 'small' END"
        );
        assert_eq!(parse_expr(&printed).unwrap(), e);
        // No ELSE.
        let e = parse_expr("CASE WHEN a = 1 THEN 2 END").unwrap();
        assert!(matches!(e, Expr::Case { ref otherwise, .. } if otherwise.is_none()));
        // Errors.
        assert!(parse_expr("CASE END").is_err(), "needs an arm");
        assert!(parse_expr("CASE WHEN a THEN").is_err());
        assert!(parse_expr("CASE WHEN a = 1 THEN 2").is_err(), "missing END");
    }

    #[test]
    fn distill_clause_parses() {
        let stmt = parse_statement(
            "CREATE CONTAINER clicks (item INT, who TEXT) WITH FUNGUS ttl(40) \
             WITH DISTILL (hot = fading_topk(10, 0.05) ON item, \
                           fresh = tbs(64, 0.05) ON item, \
                           exit_health = moments) \
             DECAY EVERY 2",
        )
        .unwrap();
        let c = match stmt {
            Statement::CreateContainer(c) => c,
            other => panic!("expected CREATE CONTAINER, got {other:?}"),
        };
        assert_eq!(c.distill.len(), 3);
        assert_eq!(c.distill[0].name, "hot");
        assert_eq!(c.distill[0].func, "fading_topk");
        assert_eq!(c.distill[0].args, vec![10.0, 0.05]);
        assert_eq!(c.distill[0].column.as_deref(), Some("item"));
        assert_eq!(c.distill[2].name, "exit_health");
        assert_eq!(c.distill[2].args, Vec::<f64>::new());
        assert_eq!(c.distill[2].column, None);
        assert_eq!(c.decay_every, Some(2));
        // Malformed clauses.
        for sql in [
            "CREATE CONTAINER t (a INT) WITH DISTILL ()",
            "CREATE CONTAINER t (a INT) WITH DISTILL (x = topk(4) ON)",
            "CREATE CONTAINER t (a INT) WITH DISTILL (x = topk('four'))",
            "CREATE CONTAINER t (a INT) WITH DISTILL (x = topk(4), x = moments)",
            "CREATE CONTAINER t (a INT) WITH DISTILL (x = topk(4)) WITH DISTILL (y = moments)",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn summarize_statement_parses() {
        match parse_statement("SUMMARIZE hot FROM clicks TOP 5").unwrap() {
            Statement::Summarize {
                table,
                summary,
                top,
            } => {
                assert_eq!(table, "clicks");
                assert_eq!(summary, "hot");
                assert_eq!(top, Some(5));
            }
            other => panic!("expected SUMMARIZE, got {other:?}"),
        }
        match parse_statement("summarize exit_health from clicks").unwrap() {
            Statement::Summarize { top, .. } => assert_eq!(top, None),
            other => panic!("expected SUMMARIZE, got {other:?}"),
        }
        assert!(parse_statement("SUMMARIZE hot").is_err());
        assert!(parse_statement("SUMMARIZE hot FROM clicks TOP 0").is_err());
        assert!(parse_statement("SUMMARIZE hot FROM clicks garbage").is_err());
    }

    #[test]
    fn multi_sort_keys() {
        let s = select("SELECT * FROM r ORDER BY a DESC, b ASC, c");
        assert_eq!(s.order_by.len(), 3);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert!(!s.order_by[2].descending);
    }
}
