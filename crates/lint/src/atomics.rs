//! Pass 6 — atomics-ordering audit.
//!
//! `Ordering::Relaxed` is the right default for pure telemetry
//! counters, and exactly wrong for atomics whose values cross threads
//! into *control decisions* — the MVCC epoch cell that orders snapshot
//! visibility, shutdown/stop flags that other threads poll, scheduler
//! counters that tests assert on after a join. The manifest's
//! `[atomics]` section lists the audited atomics as
//! `path-fragment:ident` patterns (same shape as `[lock.patterns]`);
//! any `Relaxed` argument to an atomic method on an audited receiver
//! is a finding, fixed by a stronger ordering or justified with
//! `// lint: allow(atomics, "reason")`. Unlisted atomics stay free to
//! be relaxed — the audit is a declared surface, not a blanket ban.

use crate::config::Config;
use crate::lexer::TokKind;
use crate::scan::{skip_balanced, Finding, SourceFile};

const PASS: &str = "atomics";

/// Methods whose `Ordering` arguments the pass inspects.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

pub fn run(cfg: &Config, file: &SourceFile, findings: &mut Vec<Finding>) {
    let audited: Vec<&str> = cfg
        .atomics_audited
        .iter()
        .filter(|p| file.rel.contains(p.path_fragment.as_str()))
        .map(|p| p.ident.as_str())
        .collect();
    if audited.is_empty() {
        return;
    }
    let src = &file.src;
    let code = &file.code;
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident || !audited.contains(&t.text(src)) {
            continue;
        }
        if file.in_test(t.start) {
            // Test code asserts through joins and the runtime
            // validator; ordering there is not load-bearing.
            continue;
        }
        // `recv.method(…)` with an atomic method name.
        if !code.get(i + 1).is_some_and(|n| n.is(b'.')) {
            continue;
        }
        let Some(m) = code.get(i + 2) else { continue };
        if m.kind != TokKind::Ident || !ATOMIC_METHODS.contains(&m.text(src)) {
            continue;
        }
        if !code.get(i + 3).is_some_and(|n| n.is(b'(')) {
            continue;
        }
        let end = skip_balanced(code, i + 3, b'(', b')');
        // A `(` that is the file's last token leaves `end - 1` short of
        // `i + 4`: no arguments.
        let args = code.get(i + 4..end.saturating_sub(1)).unwrap_or_default();
        for (k, arg) in args.iter().enumerate() {
            if arg.is_ident(src, "Relaxed") {
                findings.extend(file.finding(
                    i + 4 + k,
                    PASS,
                    format!(
                        "`Ordering::Relaxed` on audited atomic `{}.{}` — this value \
                         crosses threads into a control decision; use Acquire/Release \
                         (or stronger) or justify with `// lint: allow(atomics, …)`",
                        t.text(src),
                        m.text(src)
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[atomics]
audited = ["crates/x:epoch", "crates/x:stop"]
"#;

    fn check(src: &str) -> Vec<Finding> {
        let cfg = Config::from_str(MANIFEST).unwrap();
        let file = SourceFile::from_source("crates/x/src/lib.rs".into(), src.into());
        let mut findings = Vec::new();
        run(&cfg, &file, &mut findings);
        findings
    }

    #[test]
    fn relaxed_on_an_audited_atomic_is_flagged() {
        let f = check("fn f(&self) { let e = self.epoch.load(Ordering::Relaxed); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("epoch.load"));
    }

    #[test]
    fn stronger_orderings_are_clean() {
        let f = check(
            "fn f(&self) { self.epoch.store(n, Ordering::Release); \
             let _ = self.stop.load(Ordering::Acquire); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unaudited_atomics_may_stay_relaxed() {
        let f = check("fn f(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn compare_exchange_reports_each_relaxed_argument() {
        let f = check(
            "fn f(&self) { let _ = self.epoch.compare_exchange(\
             a, b, Ordering::Relaxed, Ordering::Relaxed); }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let f =
            check("#[cfg(test)] mod tests { fn t(&self) { self.epoch.load(Ordering::Relaxed); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_annotation_suppresses_with_a_reason() {
        let f = check(
            "fn f(&self) {\n// lint: allow(atomics, \"only RMW atomicity is needed\")\n\
             let id = self.stop.fetch_add(1, Ordering::Relaxed);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_atomic_methods_on_audited_names_are_ignored() {
        let f = check("fn f(&self) { self.epoch.rotate(Relaxed); }");
        assert!(f.is_empty(), "{f:?}");
    }
}
