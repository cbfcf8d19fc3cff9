//! Pass 1 — determinism hygiene.
//!
//! The paper's replayability claim (same seed, same fleet, same decay
//! trace) dies the moment production code reads the wall clock or an
//! OS entropy source. This pass enforces two rules over non-test code:
//!
//! 1. **No ambient time or entropy** outside the allowlisted crates
//!    (`crates/clock` owns the virtual-time boundary): `SystemTime::now`,
//!    `Instant::now`, `thread_rng`, `from_entropy`.
//! 2. **No HashMap/HashSet iteration in order-sensitive modules**: in
//!    files under the configured `ordered_modules` paths, identifiers
//!    declared with a `HashMap`/`HashSet` type (or constructor) must
//!    not be iterated (`iter`, `keys`, `values`, `into_iter`, `drain`,
//!    `retain`, or a `for … in` loop) — randomized iteration order
//!    leaks straight into decay sweeps, eviction choices, and result
//!    rows. Membership tests stay legal; iteration needs a `BTreeMap`
//!    or an explicit `// lint: allow(determinism, "…")` with the
//!    tie-breaking argument.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::scan::{Finding, SourceFile};

const PASS: &str = "determinism";

/// Calls that reach for ambient wall-clock time, as `Type::method`.
const CLOCK_CALLS: &[(&str, &str)] = &[("SystemTime", "now"), ("Instant", "now")];
/// Bare entropy-source calls.
const ENTROPY_CALLS: &[&str] = &["thread_rng", "from_entropy"];
/// Iteration methods that expose hash-map ordering.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

pub fn run(cfg: &Config, file: &SourceFile, findings: &mut Vec<Finding>) {
    let allowed_crate = cfg
        .determinism_allow
        .iter()
        .any(|p| file.rel.contains(p.as_str()));
    if !allowed_crate {
        ambient_sources(file, findings);
    }
    if cfg
        .ordered_modules
        .iter()
        .any(|p| file.rel.contains(p.as_str()))
    {
        hash_iteration(file, findings);
    }
}

fn ambient_sources(file: &SourceFile, findings: &mut Vec<Finding>) {
    let src = &file.src;
    let code = &file.code;
    for i in 0..code.len() {
        if file.in_test(code[i].start) {
            continue;
        }
        for (ty, method) in CLOCK_CALLS {
            // `Type :: method (` — the call form; a bare `Instant` type
            // annotation is fine, taking `now` is not.
            if code[i].is_ident(src, ty)
                && i + 3 < code.len()
                && code[i + 1].is(b':')
                && code[i + 2].is(b':')
                && code[i + 3].is_ident(src, method)
            {
                findings.extend(file.finding(
                    i,
                    PASS,
                    format!(
                        "wall-clock read `{ty}::{method}` outside the clock boundary — \
                         route time through fungus-clock's virtual ticks"
                    ),
                ));
            }
        }
        for name in ENTROPY_CALLS {
            if code[i].is_ident(src, name) && i + 1 < code.len() && code[i + 1].is(b'(') {
                findings.extend(file.finding(
                    i,
                    PASS,
                    format!(
                        "entropy source `{name}` — seeds must flow from DeterministicRng \
                         so runs replay"
                    ),
                ));
            }
        }
    }
}

fn hash_iteration(file: &SourceFile, findings: &mut Vec<Finding>) {
    let src = &file.src;
    let code = &file.code;
    // Identifiers declared as hash collections in this file: struct
    // fields and let-bindings with an explicit type (`name: HashMap<…>`)
    // plus inferred constructor bindings (`let name = HashMap::new()`).
    let mut hashed: BTreeSet<&str> = BTreeSet::new();
    for i in 0..code.len() {
        if !(code[i].is_ident(src, "HashMap") || code[i].is_ident(src, "HashSet")) {
            continue;
        }
        // Walk back over path segments (`std :: collections ::`) and at
        // most one `:` type-ascription to the declared name.
        let mut j = i;
        while j >= 3 && code[j - 1].is(b':') && code[j - 2].is(b':') {
            j -= 3; // over `ident ::`
        }
        if j >= 2 && code[j - 1].is(b':') && !code[j - 2].is(b':') {
            // `name : [path::]HashMap` — field or ascribed binding.
            if let Some(t) = code.get(j - 2) {
                if t.kind == crate::lexer::TokKind::Ident {
                    hashed.insert(t.text(src));
                }
            }
        } else if j >= 2 && code[j - 1].is(b'=') {
            // `let name = HashMap::new()` / `= HashMap::with_capacity(…)`.
            if let Some(t) = code.get(j - 2) {
                if t.kind == crate::lexer::TokKind::Ident {
                    hashed.insert(t.text(src));
                }
            }
        }
    }
    if hashed.is_empty() {
        return;
    }
    for i in 0..code.len() {
        if file.in_test(code[i].start) {
            continue;
        }
        let t = code[i];
        if t.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if !hashed.contains(name) {
            continue;
        }
        // `name . iter (` and friends.
        if i + 2 < code.len() && code[i + 1].is(b'.') {
            let m = code[i + 2];
            if m.kind == crate::lexer::TokKind::Ident
                && ITER_METHODS.contains(&m.text(src))
                && code.get(i + 3).is_some_and(|t| t.is(b'('))
            {
                findings.extend(file.finding(
                    i + 2,
                    PASS,
                    format!(
                        "iteration over hash collection `{name}` in an order-sensitive \
                         module — hash order is randomized per process; use a BTree \
                         collection or justify the total-order tie-break"
                    ),
                ));
            }
        }
        // `for x in [&[mut]] name` — direct loop over the collection.
        // (`for x in name.keys()` is the method branch's job; requiring
        // no trailing `.` keeps each site to one finding.)
        if i >= 1 && !code.get(i + 1).is_some_and(|t| t.is(b'.')) {
            let mut j = i - 1;
            while j > 0 && (code[j].is(b'&') || code[j].is_ident(src, "mut")) {
                j -= 1;
            }
            if code[j].is_ident(src, "in") && j >= 1 && !code[j - 1].is(b'.') {
                findings.extend(file.finding(
                    i,
                    PASS,
                    format!(
                        "`for … in {name}` over a hash collection in an order-sensitive \
                         module — iteration order is randomized per process"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn check(rel: &str, src: &str) -> Vec<Finding> {
        let cfg = Config::from_str(
            "[determinism]\nallow_paths = [\"crates/clock\"]\nordered_modules = [\"crates/core\"]\n",
        )
        .unwrap();
        let file = SourceFile::from_source(rel.into(), src.into());
        let mut out = Vec::new();
        run(&cfg, &file, &mut out);
        out
    }

    #[test]
    fn flags_wall_clock_and_entropy() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let f = check("crates/server/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("Instant::now"));
        assert!(f[1].message.contains("thread_rng"));
    }

    #[test]
    fn allowlisted_paths_and_tests_pass() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(check("crates/clock/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }";
        assert!(check("crates/server/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn strings_do_not_trip_the_pass() {
        let src = r#"fn f() { let s = "Instant::now()"; }"#;
        assert!(check("crates/server/src/x.rs", src).is_empty());
    }

    #[test]
    fn annotation_suppresses() {
        let src = "fn f() {\n  // lint: allow(determinism, \"socket deadline\")\n  let t = Instant::now();\n}";
        assert!(check("crates/server/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_in_ordered_modules() {
        let src = "struct S { m: HashMap<K, V> }\nimpl S {\n  fn f(&self) { for (k, v) in self.m.iter() { use_it(k, v); } }\n  fn g(&self) { let _ = self.m.get(&1); }\n}";
        let f = check("crates/core/src/decay.rs", src);
        assert_eq!(f.len(), 1, "iteration flagged, membership not: {f:?}");
        assert!(f[0].message.contains("iteration over hash collection `m`"));
        // Same file outside an ordered module: no finding.
        assert!(check("crates/query_other/src/x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_collection() {
        let src = "fn f() { let set = HashSet::new(); for x in &set { touch(x); } }";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("for … in set"));
    }
}
