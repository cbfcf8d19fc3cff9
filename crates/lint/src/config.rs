//! `lint.toml` — the declared invariant manifest — and its parser.
//!
//! The workspace is vendored and registry-free, so rather than pulling
//! in a TOML crate the analyzer parses the small dialect it actually
//! needs: `[section]` and `[section.sub]` headers, and `key = value`
//! pairs where a value is a string, an integer, a boolean, or an array
//! of strings. Keys may be bare or quoted (quoted keys carry the
//! path-scoped lock patterns, e.g. `"core/src/shared.rs:inner"`).
//! Anything outside that dialect is a hard error — a manifest typo must
//! fail the build, not silently relax an invariant.

use std::collections::BTreeMap;

/// One parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrArray(Vec<String>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(a) => Some(a),
            _ => None,
        }
    }
}

/// Raw parse result: section path → (key → value), insertion-ordered
/// within a section via the keys vec.
#[derive(Debug, Default)]
pub struct Doc {
    sections: BTreeMap<String, Vec<(String, Value)>>,
}

impl Doc {
    pub fn section(&self, name: &str) -> &[(String, Value)] {
        self.sections.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        self.section(section)
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn strings(&self, section: &str, key: &str) -> Vec<String> {
        self.get(section, key)
            .and_then(|v| v.as_array())
            .map(|a| a.to_vec())
            .unwrap_or_default()
    }
}

/// Parses the TOML subset. Errors carry the 1-based line number.
pub fn parse(src: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut current = String::new();
    let mut lines = src.lines().enumerate();
    while let Some((lineno, raw)) = lines.next() {
        let lineno = lineno + 1;
        let mut line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        // Multi-line arrays: keep folding lines until the `]` closes.
        while line.contains('[')
            && !line.starts_with('[')
            && line.matches('[').count() > line.matches(']').count()
        {
            match lines.next() {
                Some((_, cont)) => {
                    line.push(' ');
                    line.push_str(strip_comment(cont).trim());
                }
                None => return Err(format!("line {lineno}: unterminated array")),
            }
        }
        let line = line.as_str();
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                .trim();
            if name.is_empty() || name.starts_with('[') {
                return Err(format!(
                    "line {lineno}: unsupported section header `{line}`"
                ));
            }
            current = name.to_string();
            doc.sections.entry(current.clone()).or_default();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
        let key = parse_key(line[..eq].trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        let value =
            parse_value(line[eq + 1..].trim()).map_err(|e| format!("line {lineno}: {e}"))?;
        if current.is_empty() {
            return Err(format!("line {lineno}: key `{key}` outside any [section]"));
        }
        doc.sections
            .get_mut(&current)
            .expect("section inserted on header")
            .push((key, value));
    }
    Ok(doc)
}

/// Removes a trailing `# comment`, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_key(s: &str) -> Result<String, String> {
    if let Some(inner) = s.strip_prefix('"') {
        return inner
            .strip_suffix('"')
            .map(|k| k.to_string())
            .ok_or_else(|| format!("unterminated quoted key `{s}`"));
    }
    if s.is_empty()
        || !s
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
    {
        return Err(format!("invalid bare key `{s}`"));
    }
    Ok(s.to_string())
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{s}`"))?;
        return Ok(Value::Str(unescape(inner)));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("arrays must close on the same line: `{s}`"))?
            .trim();
        let mut items = Vec::new();
        if !inner.is_empty() {
            for item in split_array(inner)? {
                match parse_value(item.trim())? {
                    Value::Str(v) => items.push(v),
                    other => return Err(format!("array items must be strings, got {other:?}")),
                }
            }
        }
        return Ok(Value::StrArray(items));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unsupported value `{s}` (string, int, bool, or [strings])"))
}

/// Splits a flat array body on commas outside quotes.
fn split_array(s: &str) -> Result<Vec<&str>, String> {
    let b = s.as_bytes();
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                items.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if in_str {
        return Err(format!("unterminated string in array `{s}`"));
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        items.push(&s[start..]);
    }
    Ok(items)
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// One declared lock class: mirrors `fungus_lint_rt::LockClass` and is
/// cross-checked against it by a test.
#[derive(Debug, Clone, PartialEq)]
pub struct LockClassDecl {
    pub name: String,
    pub rank: u16,
}

/// A path-scoped receiver pattern: at `receiver.lock()` /`.read()`/
/// `.write()` sites in files whose path contains `path_fragment`, a
/// receiver whose last path segment is `ident` acquires `class`.
#[derive(Debug, Clone)]
pub struct LockPattern {
    pub path_fragment: String,
    pub ident: String,
    pub class: String,
}

/// A path-scoped atomic pattern from `[atomics] audited`: in files
/// whose path contains `path_fragment`, atomic methods on a receiver
/// whose last segment is `ident` must not pass `Ordering::Relaxed`.
#[derive(Debug, Clone)]
pub struct AtomicPattern {
    pub path_fragment: String,
    pub ident: String,
}

/// The fully-resolved analyzer configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// Path fragments excluded from every pass (fixtures, target, vendor).
    pub exclude: Vec<String>,
    /// Path fragments where wall-clock / entropy calls are legal.
    pub determinism_allow: Vec<String>,
    /// Path fragments whose files must not iterate HashMap/HashSet.
    pub ordered_modules: Vec<String>,
    /// Path fragments whose non-test code must annotate panic sites.
    pub panic_audited: Vec<String>,
    /// Files (fragments) whose non-test code must annotate `expr[i]`.
    pub index_audited: Vec<String>,
    /// Declared lock hierarchy, rank-ascending.
    pub classes: Vec<LockClassDecl>,
    /// Acquisition-site classification patterns.
    pub patterns: Vec<LockPattern>,
    /// Path fragments allowed to name `parking_lot` in non-test code.
    pub raw_lock_allow: Vec<String>,
    /// Nestings (`"A -> B"`) the per-crate scanner cannot observe —
    /// cross-crate calls and boxed closures — but the runtime
    /// validator covers; they join the lock graph and the cycle check.
    pub declared_edges: Vec<(String, String)>,
    /// Reactor entry functions (`crate::fn` / `crate::Type::fn`): BFS
    /// roots for the blocking-reachability pass.
    pub reactor_entry_fns: Vec<String>,
    /// Types (`crate::Type`) whose every method the reactor drives
    /// through dynamic dispatch; all of them become BFS roots too.
    pub reactor_entry_types: Vec<String>,
    /// Highest lock rank reactor-reachable code may acquire.
    pub reactor_max_lock_rank: Option<u16>,
    /// Atomics whose `Ordering::Relaxed` uses are audited.
    pub atomics_audited: Vec<AtomicPattern>,
}

impl Config {
    /// Parses and validates a manifest. (Named like — but deliberately
    /// not implementing — `FromStr`: callers always have a `&str` in
    /// hand and a trait import would be pure ceremony.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(src: &str) -> Result<Config, String> {
        let doc = parse(src)?;
        let mut cfg = Config {
            exclude: doc.strings("scan", "exclude"),
            determinism_allow: doc.strings("determinism", "allow_paths"),
            ordered_modules: doc.strings("determinism", "ordered_modules"),
            panic_audited: doc.strings("panic", "audited_paths"),
            index_audited: doc.strings("panic", "index_audited_files"),
            classes: Vec::new(),
            patterns: Vec::new(),
            raw_lock_allow: doc.strings("lock", "raw_lock_allow"),
            declared_edges: Vec::new(),
            reactor_entry_fns: doc.strings("reactor", "entry_fns"),
            reactor_entry_types: doc.strings("reactor", "entry_types"),
            reactor_max_lock_rank: None,
            atomics_audited: Vec::new(),
        };
        if let Some(v) = doc.get("reactor", "max_lock_rank") {
            let rank = v
                .as_int()
                .ok_or_else(|| "reactor.max_lock_rank must be an integer".to_string())?;
            if !(0..=u16::MAX as i64).contains(&rank) {
                return Err(format!("reactor.max_lock_rank {rank} out of u16 range"));
            }
            cfg.reactor_max_lock_rank = Some(rank as u16);
        }
        for key in doc.strings("atomics", "audited") {
            let (frag, ident) = key.rsplit_once(':').ok_or_else(|| {
                format!("atomics.audited entry `{key}` must be `path-fragment:ident`")
            })?;
            cfg.atomics_audited.push(AtomicPattern {
                path_fragment: frag.to_string(),
                ident: ident.to_string(),
            });
        }
        for spec in doc.strings("lock", "declared_edges") {
            let (a, b) = spec
                .split_once("->")
                .ok_or_else(|| format!("declared edge `{spec}` must be `A -> B`"))?;
            cfg.declared_edges
                .push((a.trim().to_string(), b.trim().to_string()));
        }
        for (name, v) in doc.section("lock.ranks") {
            let rank = v
                .as_int()
                .ok_or_else(|| format!("lock.ranks.{name}: rank must be an integer"))?;
            if !(0..=u16::MAX as i64).contains(&rank) {
                return Err(format!("lock.ranks.{name}: rank {rank} out of u16 range"));
            }
            cfg.classes.push(LockClassDecl {
                name: name.clone(),
                rank: rank as u16,
            });
        }
        cfg.classes.sort_by_key(|c| c.rank);
        for (key, v) in doc.section("lock.patterns") {
            let class = v
                .as_str()
                .ok_or_else(|| format!("lock.patterns.{key}: value must be a class name"))?;
            if !cfg.classes.iter().any(|c| c.name == class) {
                return Err(format!("lock.patterns.{key}: undeclared class `{class}`"));
            }
            let (frag, ident) = key.rsplit_once(':').ok_or_else(|| {
                format!("lock.patterns key `{key}` must be `path-fragment:ident`")
            })?;
            cfg.patterns.push(LockPattern {
                path_fragment: frag.to_string(),
                ident: ident.to_string(),
                class: class.to_string(),
            });
        }
        for (a, b) in &cfg.declared_edges {
            for n in [a, b] {
                if !cfg.classes.iter().any(|c| &c.name == n) {
                    return Err(format!("lock.declared_edges names undeclared class `{n}`"));
                }
            }
        }
        Ok(cfg)
    }

    pub fn class(&self, name: &str) -> Option<&LockClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Classifies a receiver ident at a path, most-specific (longest
    /// path fragment) pattern first.
    pub fn classify(&self, path: &str, ident: &str) -> Option<&LockClassDecl> {
        self.patterns
            .iter()
            .filter(|p| p.ident == ident && path.contains(p.path_fragment.as_str()))
            .max_by_key(|p| p.path_fragment.len())
            .and_then(|p| self.class(&p.class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_dialect() {
        let doc = parse(
            r#"
# top comment
[scan]
exclude = ["target", "vendor"] # trailing

[lock.ranks]
"Database.catalog" = 10
"Database.containers" = 30

[lock]
raw_lock_allow = ["crates/lint-rt/"]
flag = true
"#,
        )
        .unwrap();
        assert_eq!(doc.strings("scan", "exclude"), vec!["target", "vendor"]);
        assert_eq!(
            doc.get("lock.ranks", "Database.catalog"),
            Some(&Value::Int(10))
        );
        assert_eq!(doc.get("lock", "flag"), Some(&Value::Bool(true)));
    }

    #[test]
    fn config_resolves_classes_and_patterns() {
        let cfg = Config::from_str(
            r#"
[lock.ranks]
"A.x" = 10
"B.y" = 40

[lock.patterns]
"core:inner" = "A.x"
"core/src/special.rs:inner" = "B.y"
"#,
        )
        .unwrap();
        assert_eq!(cfg.classes.len(), 2);
        // Longest path fragment wins.
        assert_eq!(
            cfg.classify("crates/core/src/special.rs", "inner")
                .unwrap()
                .name,
            "B.y"
        );
        assert_eq!(
            cfg.classify("crates/core/src/other.rs", "inner")
                .unwrap()
                .name,
            "A.x"
        );
        assert_eq!(cfg.classify("crates/clock/src/lib.rs", "inner"), None);
    }

    #[test]
    fn rejects_typos_loudly() {
        assert!(parse("[unclosed").is_err());
        assert!(parse("key = 1").is_err(), "key outside section");
        assert!(Config::from_str("[lock.patterns]\n\"a:b\" = \"NoSuch\"").is_err());
        assert!(Config::from_str("[reactor]\nmax_lock_rank = \"ten\"").is_err());
        assert!(Config::from_str("[atomics]\naudited = [\"no-colon\"]").is_err());
    }

    #[test]
    fn reactor_and_atomics_sections_resolve() {
        let cfg = Config::from_str(
            r#"
[reactor]
entry_fns = ["server::reactor_loop", "server::EpollPoller::wait"]
entry_types = ["server::SessionConn"]
max_lock_rank = 18

[atomics]
audited = ["crates/core/src/mvcc.rs:epoch", "crates/server/src:stop"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.reactor_entry_fns.len(), 2);
        assert_eq!(cfg.reactor_entry_types, vec!["server::SessionConn"]);
        assert_eq!(cfg.reactor_max_lock_rank, Some(18));
        assert_eq!(cfg.atomics_audited.len(), 2);
        assert_eq!(cfg.atomics_audited[0].ident, "epoch");
        assert_eq!(
            cfg.atomics_audited[0].path_fragment,
            "crates/core/src/mvcc.rs"
        );
    }
}
