//! Pass 2 — lock-order discipline.
//!
//! Every shared-state lock in the workspace belongs to a declared class
//! with a rank (`[lock.ranks]` in `lint.toml`, mirrored at runtime by
//! `fungus_lint_rt::hierarchy`). The legal nesting rule is the same one
//! the runtime validator asserts: a thread may only acquire a lock of
//! **strictly higher rank** than everything it holds. Any program whose
//! acquisitions respect one such ranking cannot deadlock on these locks.
//!
//! The static half works from source alone:
//!
//! 1. **Acquisition extraction** — `.lock()` / `.read()` / `.write()`
//!    call sites whose receiver identifier matches a path-scoped
//!    pattern from the manifest are classified into lock classes.
//! 2. **Guard-scope simulation** — a forward walk over each function
//!    body tracks which guards are held at every point: a let-bound
//!    guard lives until `drop(name)` or its block ends; a chained
//!    temporary (`x.lock().push(…)`, or several guards inside one
//!    statement — Rust keeps temporaries alive to the statement's end)
//!    lives to the next statement boundary.
//! 3. **Inter-procedural closure, per crate** — each function's *lock
//!    effect* (classes it may acquire transitively) is the fixpoint of
//!    its direct acquisitions plus its same-crate callees'; calling a
//!    function while holding a guard imports the callee's effect into
//!    the nesting check.
//! 4. **Graph validation** — observed nestings become edges in the
//!    lock graph; every edge must ascend in rank, and the graph must be
//!    acyclic regardless (an independent check, so a mis-declared
//!    manifest cannot hide a cycle).
//!
//! **Known blind spot:** calls routed through boxed closures (the
//! scheduler fires `Box<dyn FnMut>` task actions while holding its own
//! lock) are invisible to the call graph. That is precisely why the
//! runtime validator in `fungus-lint-rt` exists: the same hierarchy is
//! asserted on every acquisition during `cargo test` and the chaos
//! suite, closures included. Test code is skipped here for the same
//! reason — the runtime validator already covers every test run.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::TokKind;
use crate::scan::{skip_balanced, skip_balanced_back, Finding, SourceFile};

const PASS: &str = "lock_order";
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One function extracted from a file: `code[body]` is everything
/// between its braces.
pub(crate) struct Function {
    pub(crate) name: String,
    /// The `impl` type the function lives in (`""` for free functions).
    /// Calls resolve per type, so `guard.insert(…)` on a container
    /// guard cannot inherit the lock effect of `Database::insert`.
    pub(crate) type_name: String,
    pub(crate) file: usize,
    pub(crate) body: std::ops::Range<usize>,
    pub(crate) is_test: bool,
}

impl Function {
    /// The function's registry key, given its file's crate.
    pub(crate) fn key(&self, krate: &str) -> FnKey {
        (krate.to_string(), self.type_name.clone(), self.name.clone())
    }
}

/// Call-graph key: (crate, impl type, fn name).
pub(crate) type FnKey = (String, String, String);

/// The impl-typed call graph shared by the lock-order and the
/// reactor-blocking passes: every extracted function, the registry of
/// non-test keys, and the resolved same-crate call edges per key.
pub(crate) struct CallGraph {
    pub(crate) functions: Vec<Function>,
    pub(crate) registry: BTreeSet<FnKey>,
    pub(crate) calls: BTreeMap<FnKey, BTreeSet<FnKey>>,
}

impl CallGraph {
    /// Extracts every function and resolves its same-crate calls. Built
    /// once per `check` run and handed to both inter-procedural passes.
    pub(crate) fn build(files: &[SourceFile]) -> CallGraph {
        let functions = extract_functions(files);
        let mut registry: BTreeSet<FnKey> = BTreeSet::new();
        for f in &functions {
            if !f.is_test {
                registry.insert(f.key(&crate_of(&files[f.file].rel)));
            }
        }
        let mut calls: BTreeMap<FnKey, BTreeSet<FnKey>> = BTreeMap::new();
        for f in &functions {
            if f.is_test {
                continue;
            }
            let file = &files[f.file];
            let krate = crate_of(&file.rel);
            let key = f.key(&krate);
            let mut called = BTreeSet::new();
            for i in f.body.clone() {
                if let Some(callee) = call_at(file, i, &krate, &f.type_name, &registry) {
                    if callee != key {
                        called.insert(callee);
                    }
                }
            }
            calls.entry(key).or_default().extend(called);
        }
        CallGraph {
            functions,
            registry,
            calls,
        }
    }
}

/// An observed nesting: while holding `from`, `to` was acquired (class
/// indices into `Config::classes`), first seen at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    pub site: String,
}

/// The lock graph plus the findings that produced it.
#[derive(Default)]
pub struct LockGraph {
    /// Deduplicated nesting edges (first site wins).
    pub edges: Vec<Edge>,
}

impl LockGraph {
    fn add(&mut self, from: usize, to: usize, site: String) {
        if !self.edges.iter().any(|e| e.from == from && e.to == to) {
            self.edges.push(Edge { from, to, site });
        }
    }

    /// Renders the graph as DOT, nodes labelled `name (rank N)` and
    /// ordered by rank.
    pub fn to_dot(&self, cfg: &Config) -> String {
        let mut out = String::from("digraph lock_order {\n");
        out.push_str("    rankdir=TB;\n    node [shape=box, fontname=\"monospace\"];\n");
        for (i, c) in cfg.classes.iter().enumerate() {
            out.push_str(&format!(
                "    c{} [label=\"{}\\nrank {}\"];\n",
                i, c.name, c.rank
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "    c{} -> c{} [label=\"{}\"];\n",
                e.from, e.to, e.site
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// Runs the pass over every file at once (the call graph is
/// inter-procedural) and returns the observed lock graph.
pub(crate) fn run(
    cfg: &Config,
    files: &[SourceFile],
    cg: &CallGraph,
    findings: &mut Vec<Finding>,
) -> LockGraph {
    let mut graph = LockGraph::default();
    if cfg.classes.is_empty() {
        return graph;
    }
    raw_lock_imports(cfg, files, findings);

    // Direct lock effects per key. Overloads under one key merge
    // conservatively.
    let mut direct: BTreeMap<FnKey, BTreeSet<usize>> = BTreeMap::new();
    for f in &cg.functions {
        if f.is_test {
            continue;
        }
        let file = &files[f.file];
        let key = f.key(&crate_of(&file.rel));
        let mut acq = BTreeSet::new();
        for i in f.body.clone() {
            if let Some((class, _)) = acquisition_at(cfg, file, i) {
                acq.insert(class);
            }
        }
        direct.entry(key).or_default().extend(acq);
    }
    // Fixpoint: effect(f) = direct(f) ∪ ⋃ effect(callees).
    let mut effects = direct.clone();
    loop {
        let mut changed = false;
        for (key, called) in &cg.calls {
            let mut add: BTreeSet<usize> = BTreeSet::new();
            for callee in called {
                if let Some(e) = effects.get(callee) {
                    add.extend(e.iter().copied());
                }
            }
            let mine = effects.entry(key.clone()).or_default();
            let before = mine.len();
            mine.extend(add);
            if mine.len() != before {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Full guard-scope simulation per function.
    for f in &cg.functions {
        if f.is_test {
            continue;
        }
        let file = &files[f.file];
        let krate = crate_of(&file.rel);
        simulate(
            cfg,
            file,
            f,
            &krate,
            &cg.registry,
            &effects,
            &mut graph,
            findings,
        );
    }

    // Declared edges: nestings the per-crate scanner cannot observe
    // (cross-crate calls, boxed closures) but the runtime validator
    // has; they join the graph for the cycle check and the DOT dump,
    // and are rank-checked like any observed edge.
    for (a, b) in &cfg.declared_edges {
        let (Some(from), Some(to)) = (
            cfg.classes.iter().position(|c| &c.name == a),
            cfg.classes.iter().position(|c| &c.name == b),
        ) else {
            continue; // Config validation already rejected unknown names.
        };
        graph.add(from, to, "declared".into());
        let fa = &cfg.classes[from];
        let fb = &cfg.classes[to];
        if fb.rank <= fa.rank {
            findings.push(Finding {
                file: "lint.toml".into(),
                line: 1,
                col: 1,
                span: (0, 0),
                pass: PASS,
                message: format!(
                    "declared edge `{a}` -> `{b}` descends the hierarchy \
                     (rank {} -> {})",
                    fa.rank, fb.rank
                ),
            });
        }
    }

    // Graph validation: rank ascent per edge is checked at the site
    // where the edge was observed (inside `simulate`); here the graph
    // is checked for cycles independently of the declared ranks.
    for cycle in find_cycles(cfg, &graph) {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&i| cfg.classes[i].name.as_str())
            .collect();
        findings.push(Finding {
            file: "lint.toml".into(),
            line: 1,
            col: 1,
            span: (0, 0),
            pass: PASS,
            message: format!(
                "lock graph contains a cycle: {} — no rank assignment can make this \
                 deadlock-free",
                names.join(" -> ")
            ),
        });
    }
    graph
}

/// `crates/<name>/…` → `<name>`; anything else (workspace `tests/`)
/// gets its own pseudo-crate.
pub(crate) fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("tests")
        .to_string()
}

/// Production code must use the ordered wrappers: naming `parking_lot`
/// outside the allowlist (the wrappers' own crate) means an unranked
/// lock the validator cannot see.
fn raw_lock_imports(cfg: &Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    for file in files {
        if cfg
            .raw_lock_allow
            .iter()
            .any(|p| file.rel.contains(p.as_str()))
        {
            continue;
        }
        for i in 0..file.code.len() {
            let t = file.code[i];
            if t.kind == TokKind::Ident
                && t.text(&file.src) == "parking_lot"
                && !file.in_test(t.start)
            {
                findings.extend(
                    file.finding(
                        i,
                        PASS,
                        "raw `parking_lot` lock in production code — use the ordered \
                     wrappers in fungus-lint-rt so the hierarchy is enforced"
                            .into(),
                    ),
                );
            }
        }
    }
}

/// If code token `i` is the method ident of a classified acquisition
/// (`recv.lock()` / `.read()` / `.write()`), returns (class index,
/// receiver ident).
pub(crate) fn acquisition_at<'a>(
    cfg: &Config,
    file: &'a SourceFile,
    i: usize,
) -> Option<(usize, &'a str)> {
    let src = &file.src;
    let code = &file.code;
    let t = code[i];
    if t.kind != TokKind::Ident || !ACQUIRE_METHODS.contains(&t.text(src)) {
        return None;
    }
    if i == 0 || !code[i - 1].is(b'.') {
        return None;
    }
    // Zero-argument call: `( )`.
    if !(code.get(i + 1).is_some_and(|t| t.is(b'(')) && code.get(i + 2).is_some_and(|t| t.is(b')')))
    {
        return None;
    }
    let recv = receiver_ident(file, i - 1)?;
    let decl = cfg.classify(&file.rel, recv)?;
    let class = cfg.classes.iter().position(|c| c.name == decl.name)?;
    Some((class, recv))
}

/// Walks back from the `.` at `dot` to the last identifier of the
/// receiver chain: `self.containers` → `containers`,
/// `queues[me]` → `queues`, `self.shard(i)` → `shard`.
fn receiver_ident(file: &SourceFile, dot: usize) -> Option<&str> {
    let code = &file.code;
    let mut r = dot.checked_sub(1)?;
    loop {
        let t = code[r];
        if t.is(b']') {
            r = skip_balanced_back(code, r, b'[', b']').checked_sub(1)?;
        } else if t.is(b')') {
            r = skip_balanced_back(code, r, b'(', b')').checked_sub(1)?;
        } else if t.kind == TokKind::Ident {
            return Some(t.text(&file.src));
        } else {
            return None;
        }
    }
}

/// If code token `i` is a call the analyzer can resolve to a known
/// same-crate function, returns its registry key. Resolvable forms:
///
/// * `self.name(…)` — a method of the enclosing impl type;
/// * `Type::name(…)` — an associated function of a known impl type
///   (or a free function via a module path);
/// * `name(…)` — a free function.
///
/// A method call on any *other* receiver (`guard.insert(…)`) is left
/// unresolved: the receiver's type is unknown, and borrowing the lock
/// effect of a same-named function on a different type manufactures
/// false positives. Cross-type nestings are covered by the manifest's
/// `declared_edges` and the runtime validator.
fn call_at(
    file: &SourceFile,
    i: usize,
    krate: &str,
    enclosing_type: &str,
    registry: &BTreeSet<FnKey>,
) -> Option<FnKey> {
    let code = &file.code;
    let src = &file.src;
    let t = code[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    if !code.get(i + 1).is_some_and(|t| t.is(b'(')) {
        return None;
    }
    let name = t.text(src);
    // `.read()`/`.write()`/`.lock()` are acquisition syntax, never a
    // plain call — an unclassified receiver must not pull in the lock
    // effect of some same-crate function that happens to share the name.
    if ACQUIRE_METHODS.contains(&name) {
        return None;
    }
    // Not a definition (`fn name(`) and not a macro (`name!(`).
    if i >= 1 && (code[i - 1].is_ident(src, "fn") || code[i - 1].is(b'!')) {
        return None;
    }
    let key = if i >= 1 && code[i - 1].is(b'.') {
        // Method call: resolvable only on a plain `self` receiver.
        if i >= 2 && code[i - 2].is_ident(src, "self") && !(i >= 3 && code[i - 3].is(b'.')) {
            (
                krate.to_string(),
                enclosing_type.to_string(),
                name.to_string(),
            )
        } else {
            return None;
        }
    } else if i >= 3
        && code[i - 1].is(b':')
        && code[i - 2].is(b':')
        && code[i - 3].kind == TokKind::Ident
    {
        // `Type::name(` — the segment before `::` is the type (for a
        // module path it simply fails the registry lookup below).
        (
            krate.to_string(),
            code[i - 3].text(src).to_string(),
            name.to_string(),
        )
    } else {
        (krate.to_string(), String::new(), name.to_string())
    };
    registry.contains(&key).then_some(key)
}

/// A guard currently held during simulation.
#[derive(Debug, Clone)]
struct Held {
    class: usize,
    /// `Some(name)` for let-bound guards (releasable via `drop(name)`),
    /// `None` for statement temporaries.
    name: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    cfg: &Config,
    file: &SourceFile,
    f: &Function,
    krate: &str,
    registry: &BTreeSet<FnKey>,
    effects: &BTreeMap<FnKey, BTreeSet<usize>>,
    graph: &mut LockGraph,
    findings: &mut Vec<Finding>,
) {
    let code = &file.code;
    // One Vec<Held> per open block scope.
    let mut scopes: Vec<Vec<Held>> = vec![Vec::new()];
    // Temporaries live to the end of the current statement.
    let mut temps: Vec<Held> = Vec::new();

    let mut i = f.body.start;
    while i < f.body.end {
        let t = code[i];
        if t.is(b'{') {
            scopes.push(Vec::new());
            temps.clear();
            i += 1;
            continue;
        }
        if t.is(b'}') {
            scopes.pop();
            if scopes.is_empty() {
                // Left the function body (unbalanced braces shouldn't
                // happen, but never panic inside the analyzer).
                return;
            }
            temps.clear();
            i += 1;
            continue;
        }
        if t.is(b';') {
            temps.clear();
            i += 1;
            continue;
        }
        // Skip nested `fn` definitions — they are simulated on their own.
        if t.is_ident(&file.src, "fn") {
            let mut j = i + 1;
            while j < f.body.end && !code[j].is(b'{') && !code[j].is(b';') {
                j += 1;
            }
            if j < f.body.end && code[j].is(b'{') {
                i = skip_balanced(code, j, b'{', b'}');
                continue;
            }
        }
        // `drop(name)` releases a let-bound guard early.
        if t.is_ident(&file.src, "drop")
            && code.get(i + 1).is_some_and(|t| t.is(b'('))
            && code.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            && code.get(i + 3).is_some_and(|t| t.is(b')'))
        {
            let name = code[i + 2].text(&file.src);
            for scope in scopes.iter_mut() {
                if let Some(pos) = scope.iter().rposition(|h| h.name.as_deref() == Some(name)) {
                    scope.remove(pos);
                    break;
                }
            }
            i += 4;
            continue;
        }
        // Classified acquisition?
        if let Some((class, recv)) = acquisition_at(cfg, file, i) {
            let held: Vec<&Held> = scopes.iter().flatten().chain(temps.iter()).collect();
            check_ascent(cfg, file, i, class, &held, findings, graph, recv);
            // Binding analysis: held-until-drop or statement temporary.
            let after = code.get(i + 3);
            let binding = if after.is_some_and(|t| t.is(b'.') || t.is(b'?')) {
                // Chained — the guard is consumed within the expression,
                // but per Rust temporary rules it survives to the end of
                // the statement.
                None
            } else {
                let_binding_name(file, f, i)
            };
            let is_let = binding.is_some() || statement_is_let(file, f, i);
            let guard = Held {
                class,
                name: binding,
            };
            if is_let && after.is_some_and(|t| t.is(b';')) {
                scopes
                    .last_mut()
                    .expect("scope stack non-empty")
                    .push(guard);
            } else {
                temps.push(guard);
            }
            i += 3;
            continue;
        }
        // Call to a resolvable same-crate function while holding guards?
        if let Some(callee) = call_at(file, i, krate, &f.type_name, registry) {
            let own: FnKey = (krate.to_string(), f.type_name.clone(), f.name.clone());
            if callee != own {
                let held: Vec<Held> = scopes
                    .iter()
                    .flatten()
                    .chain(temps.iter())
                    .cloned()
                    .collect();
                if !held.is_empty() {
                    if let Some(effect) = effects.get(&callee) {
                        for &class in effect {
                            let held_refs: Vec<&Held> = held.iter().collect();
                            check_ascent_call(
                                cfg, file, i, &callee.2, class, &held_refs, findings, graph,
                            );
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Rank rule shared by direct acquisitions and call-imported effects:
/// the new class must outrank everything held.
fn ascent_violation(cfg: &Config, class: usize, held: &[&Held]) -> Option<String> {
    let new = &cfg.classes[class];
    let max = held.iter().max_by_key(|h| cfg.classes[h.class].rank)?;
    let max_decl = &cfg.classes[max.class];
    if new.rank > max_decl.rank {
        return None;
    }
    Some(format!(
        "acquiring `{}` (rank {}) while holding `{}` (rank {})",
        new.name, new.rank, max_decl.name, max_decl.rank
    ))
}

#[allow(clippy::too_many_arguments)]
fn check_ascent(
    cfg: &Config,
    file: &SourceFile,
    i: usize,
    class: usize,
    held: &[&Held],
    findings: &mut Vec<Finding>,
    graph: &mut LockGraph,
    recv: &str,
) {
    let line = file.lines.line(file.code[i].start);
    for h in held {
        graph.add(h.class, class, format!("{}:{}", file.rel, line));
    }
    if let Some(why) = ascent_violation(cfg, class, held) {
        findings.extend(file.finding(
            i,
            PASS,
            format!("lock-order violation at `{recv}`: {why} — acquisitions must ascend the declared hierarchy"),
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn check_ascent_call(
    cfg: &Config,
    file: &SourceFile,
    i: usize,
    callee: &str,
    class: usize,
    held: &[&Held],
    findings: &mut Vec<Finding>,
    graph: &mut LockGraph,
) {
    let line = file.lines.line(file.code[i].start);
    for h in held {
        graph.add(
            h.class,
            class,
            format!("{}:{} (via {})", file.rel, line, callee),
        );
    }
    if let Some(why) = ascent_violation(cfg, class, held) {
        findings.extend(file.finding(
            i,
            PASS,
            format!(
                "lock-order violation: call to `{callee}` may acquire — {why} — \
                 while a guard is held"
            ),
        ));
    }
}

/// When the statement containing the acquisition at token `i` is a
/// simple `let name = …;`, returns the bound name.
fn let_binding_name(file: &SourceFile, f: &Function, i: usize) -> Option<String> {
    let code = &file.code;
    let start = statement_start(file, f, i);
    if !code[start].is_ident(&file.src, "let") {
        return None;
    }
    let mut j = start + 1;
    if code.get(j).is_some_and(|t| t.is_ident(&file.src, "mut")) {
        j += 1;
    }
    let name = code.get(j)?;
    if name.kind != TokKind::Ident || !code.get(j + 1).is_some_and(|t| t.is(b'=')) {
        return None;
    }
    Some(name.text(&file.src).to_string())
}

fn statement_is_let(file: &SourceFile, f: &Function, i: usize) -> bool {
    file.code[statement_start(file, f, i)].is_ident(&file.src, "let")
}

/// First token of the statement containing token `i` (scans back to
/// the nearest `;`, `{`, or `}` within the body).
fn statement_start(file: &SourceFile, f: &Function, i: usize) -> usize {
    let code = &file.code;
    let mut j = i;
    while j > f.body.start {
        let t = code[j - 1];
        if t.is(b';') || t.is(b'{') || t.is(b'}') {
            break;
        }
        j -= 1;
    }
    j
}

/// Finds `impl` block ranges and their type names: for
/// `impl<T> Foo<T> { … }` and `impl Trait for Foo { … }` alike the
/// type is `Foo` (the last depth-0 path segment, after `for` if
/// present).
fn impl_ranges(file: &SourceFile) -> Vec<(std::ops::Range<usize>, String)> {
    let code = &file.code;
    let src = &file.src;
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Item position only: `-> impl Trait` and `arg: impl Trait`
        // are types, not blocks.
        let item_pos = i == 0
            || code[i - 1].is(b'}')
            || code[i - 1].is(b';')
            || code[i - 1].is(b']')
            || code[i - 1].is(b'{')
            || code[i - 1].is_ident(src, "unsafe")
            || code[i - 1].is_ident(src, "pub");
        if code[i].is_ident(src, "impl") && item_pos {
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut last_ident: Option<&str> = None;
            while j < code.len() {
                let t = code[j];
                if t.is(b'<') || t.is(b'(') {
                    depth += 1;
                } else if t.is(b'>') || t.is(b')') {
                    depth -= 1;
                } else if depth <= 0 && t.is_ident(src, "for") {
                    last_ident = None; // The type follows the trait.
                } else if depth <= 0 && t.is_ident(src, "where") {
                    // Bounds may mention other types; the name is fixed.
                    while j < code.len() && !code[j].is(b'{') {
                        j += 1;
                    }
                    continue;
                } else if depth <= 0 && t.kind == TokKind::Ident {
                    last_ident = Some(t.text(src));
                } else if (depth <= 0 && t.is(b'{')) || t.is(b';') {
                    break;
                }
                j += 1;
            }
            if j < code.len() && code[j].is(b'{') {
                if let Some(name) = last_ident {
                    let end = skip_balanced(code, j, b'{', b'}');
                    out.push((j..end, name.to_string()));
                }
                // Whether named or not, continue scanning inside (impl
                // blocks do not nest, but stay robust).
            }
            i = j;
            continue;
        }
        i += 1;
    }
    out
}

/// Extracts every `fn` (free or method, nested included) from each file.
fn extract_functions(files: &[SourceFile]) -> Vec<Function> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let impls = impl_ranges(file);
        let code = &file.code;
        let mut i = 0;
        while i < code.len() {
            if code[i].is_ident(&file.src, "fn")
                && code.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let name = code[i + 1].text(&file.src).to_string();
                // Find the body `{` — skip the signature (param parens,
                // return type, where clauses); stop at `;` (trait decl).
                let mut j = i + 2;
                let mut depth = 0i32;
                let mut body_open = None;
                while j < code.len() {
                    let t = code[j];
                    if t.is(b'(') || t.is(b'<') {
                        depth += 1;
                    } else if t.is(b')') || t.is(b'>') {
                        depth -= 1;
                    } else if t.is(b'{') && depth <= 0 {
                        body_open = Some(j);
                        break;
                    } else if t.is(b';') && depth <= 0 {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = body_open {
                    let end = skip_balanced(code, open, b'{', b'}');
                    // Innermost impl block containing the `fn` keyword.
                    let type_name = impls
                        .iter()
                        .filter(|(r, _)| r.contains(&i))
                        .min_by_key(|(r, _)| r.end - r.start)
                        .map(|(_, n)| n.clone())
                        .unwrap_or_default();
                    out.push(Function {
                        name,
                        type_name,
                        file: fi,
                        body: (open + 1)..end.saturating_sub(1),
                        is_test: file.in_test(code[i].start),
                    });
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// DFS cycle search over the observed edge graph. Self-loops are
/// skipped: the rank rule already reports them at their site. Returns
/// each multi-class cycle once as a node path.
fn find_cycles(cfg: &Config, graph: &LockGraph) -> Vec<Vec<usize>> {
    let n = cfg.classes.len();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for e in &graph.edges {
        if e.from == e.to {
            continue;
        }
        adj[e.from].insert(e.to);
    }
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack = Vec::new();
    let mut cycles = Vec::new();
    for start in 0..n {
        if color[start] == 0 {
            dfs(start, &adj, &mut color, &mut stack, &mut cycles);
        }
    }
    cycles
}

fn dfs(
    u: usize,
    adj: &[BTreeSet<usize>],
    color: &mut [u8],
    stack: &mut Vec<usize>,
    cycles: &mut Vec<Vec<usize>>,
) {
    color[u] = 1;
    stack.push(u);
    for &v in &adj[u] {
        if color[v] == 1 {
            let pos = stack.iter().position(|&x| x == v).unwrap_or(0);
            let mut cycle = stack[pos..].to_vec();
            cycle.push(v);
            cycles.push(cycle);
        } else if color[v] == 0 {
            dfs(v, adj, color, stack, cycles);
        }
    }
    stack.pop();
    color[u] = 2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    const MANIFEST: &str = r#"
[lock.ranks]
"Catalog" = 10
"Containers" = 30
"Shards" = 40

[lock.patterns]
":inner" = "Catalog"
":containers" = "Containers"
":source" = "Containers"
":target" = "Containers"
":shards" = "Shards"
"#;

    fn check(src: &str) -> (Vec<Finding>, LockGraph) {
        let cfg = Config::from_str(MANIFEST).unwrap();
        let files = vec![SourceFile::from_source(
            "crates/x/src/lib.rs".into(),
            src.into(),
        )];
        let mut findings = Vec::new();
        let cg = CallGraph::build(&files);
        let graph = run(&cfg, &files, &cg, &mut findings);
        (findings, graph)
    }

    #[test]
    fn ascending_nesting_is_clean() {
        let src = "fn f(&self) { let g = self.inner.read(); self.containers.lock().push(1); }";
        let (f, g) = check(src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(g.edges.len(), 1, "catalog -> containers edge recorded");
    }

    #[test]
    fn descending_nesting_is_flagged() {
        let src = "fn f(&self) { let g = self.containers.write(); let h = self.inner.read(); }";
        let (f, _) = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("rank 10"));
        assert!(f[0].message.contains("rank 30"));
    }

    #[test]
    fn same_statement_temporaries_overlap() {
        // Rust keeps both temporaries alive to the statement's end, so
        // two same-rank guards overlap: flagged.
        let src = "fn f(a: &L, b: &L) { assert_eq(a.source.read().len(), b.target.read().len()); }";
        let (f, _) = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn same_class_nesting_is_flagged() {
        let src = "fn merge(&self) { let a = self.shards.read(); let b = self.shards.read(); }";
        let (f, _) = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn drop_releases_a_let_bound_guard() {
        let src =
            "fn f(&self) { let g = self.containers.write(); drop(g); let h = self.inner.read(); }";
        let (f, _) = check(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_end_releases_guards() {
        let src = "fn f(&self) { { let g = self.containers.write(); } let h = self.inner.read(); }";
        let (f, _) = check(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn interprocedural_effect_through_a_call() {
        let src = "
            fn helper(&self) { let g = self.inner.read(); g.touch(); }
            fn f(&self) { let c = self.containers.write(); self.helper(); }
        ";
        let (f, g) = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("helper"));
        assert!(g.edges.iter().any(|e| e.site.contains("via helper")));
    }

    #[test]
    fn test_code_is_the_runtime_validators_job() {
        let src = "#[cfg(test)] mod tests { fn f(&self) { let g = self.containers.write(); let h = self.inner.read(); } }";
        let (f, _) = check(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_parking_lot_is_flagged() {
        let src = "use parking_lot::Mutex;\nfn f() {}";
        let (f, _) = check(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("parking_lot"));
    }

    #[test]
    fn cycles_are_reported_even_with_consistent_sites() {
        // Two functions that nest in opposite directions: the rank rule
        // fires at one site, and the graph cycle is reported too.
        let src = "
            fn ab(&self) { let g = self.inner.read(); self.containers.lock().x(); }
            fn ba(&self) { let g = self.containers.write(); self.inner.read().x(); }
        ";
        let (f, g) = check(src);
        assert!(f.iter().any(|x| x.message.contains("cycle")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("lock-order violation")));
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let cfg = Config::from_str(MANIFEST).unwrap();
        let src = "fn f(&self) { let g = self.inner.read(); self.containers.lock().x(); }";
        let files = vec![SourceFile::from_source(
            "crates/x/src/lib.rs".into(),
            src.into(),
        )];
        let mut findings = Vec::new();
        let cg = CallGraph::build(&files);
        let graph = run(&cfg, &files, &cg, &mut findings);
        let dot = graph.to_dot(&cfg);
        assert!(dot.contains("digraph lock_order"));
        assert!(dot.contains("Catalog\\nrank 10"));
        assert!(dot.contains("->"));
    }
}
