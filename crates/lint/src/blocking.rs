//! Pass 5 — reactor blocking-call reachability.
//!
//! The reactor's liveness contract is simple: the run loop may block in
//! exactly one place (the poller's `wait`), and nowhere else — a stall
//! anywhere on the dispatch path freezes every connection at once.
//! PR 8's chaos suite caught this class of bug *dynamically* (dead-
//! socket spins, stalls under a held lock); this pass catches it before
//! the code runs.
//!
//! From the entry points declared in `lint.toml` — `[reactor]`
//! `entry_fns` (the run loop and the poller wait paths) and
//! `entry_types` (types whose methods the loop drives through dynamic
//! dispatch the call graph cannot see through, mirroring the lock
//! pass's `declared_edges`) — the pass walks the impl-typed call graph
//! shared with [`crate::locks`] and flags every reachable blocking
//! operation:
//!
//! * a classified lock acquisition whose rank exceeds `max_lock_rank`
//!   (the reactor may touch its own leaf rendezvous locks, nothing
//!   deeper into the hierarchy);
//! * `thread::sleep`, blocking channel receives (`.recv()`,
//!   `.recv_timeout(…)`, `.recv_deadline(…)`), `.accept()`, `.join()`;
//! * file I/O (`File::…`, `fs::…`) and blocking connects.
//!
//! A finding is either fixed (move the work to a worker) or justified
//! with `// lint: allow(reactor_blocking, "reason")`. A manifest entry
//! that does not resolve to a known function is a hard error — a typo
//! must fail the run, not silently shrink the audited surface.

use std::collections::{BTreeMap, VecDeque};

use crate::config::Config;
use crate::lexer::TokKind;
use crate::locks::{acquisition_at, crate_of, CallGraph, FnKey};
use crate::scan::{Finding, SourceFile};

const PASS: &str = "reactor_blocking";

pub(crate) fn run(
    cfg: &Config,
    files: &[SourceFile],
    cg: &CallGraph,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    if cfg.reactor_entry_fns.is_empty() && cfg.reactor_entry_types.is_empty() {
        return Ok(());
    }
    let mut roots: Vec<FnKey> = Vec::new();
    for spec in &cfg.reactor_entry_fns {
        let key = parse_fn_spec(spec)?;
        if !cg.registry.contains(&key) {
            return Err(format!(
                "[reactor] entry_fns: `{spec}` does not resolve to a known \
                 non-test function (crate::fn or crate::Type::fn)"
            ));
        }
        roots.push(key);
    }
    for spec in &cfg.reactor_entry_types {
        let (krate, ty) = spec
            .split_once("::")
            .ok_or_else(|| format!("[reactor] entry_types: `{spec}` must be `crate::Type`"))?;
        let mut any = false;
        for f in &cg.functions {
            if !f.is_test && f.type_name == ty && crate_of(&files[f.file].rel) == krate {
                roots.push(f.key(krate));
                any = true;
            }
        }
        if !any {
            return Err(format!(
                "[reactor] entry_types: `{spec}` matches no impl block in the scan"
            ));
        }
    }

    // BFS over the call graph, keeping one parent per function so each
    // finding can say how the reactor reaches it.
    let mut parent: BTreeMap<FnKey, Option<FnKey>> = BTreeMap::new();
    let mut queue: VecDeque<FnKey> = VecDeque::new();
    for r in roots {
        if !parent.contains_key(&r) {
            parent.insert(r.clone(), None);
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        if let Some(callees) = cg.calls.get(&u) {
            for v in callees {
                if !parent.contains_key(v) {
                    parent.insert(v.clone(), Some(u.clone()));
                    queue.push_back(v.clone());
                }
            }
        }
    }

    for f in &cg.functions {
        if f.is_test {
            continue;
        }
        let file = &files[f.file];
        let key = f.key(&crate_of(&file.rel));
        if !parent.contains_key(&key) {
            continue;
        }
        let via = route(&parent, &key);
        for i in f.body.clone() {
            if let Some((class, recv)) = acquisition_at(cfg, file, i) {
                let decl = &cfg.classes[class];
                if let Some(ceiling) = cfg.reactor_max_lock_rank {
                    if decl.rank > ceiling {
                        findings.extend(file.finding(
                            i,
                            PASS,
                            format!(
                                "reactor-reachable lock: `{recv}` acquires `{}` (rank {}) \
                                 above the reactor ceiling {ceiling} ({via}) — a stall \
                                 under this lock freezes every connection",
                                decl.name, decl.rank
                            ),
                        ));
                    }
                }
            } else if let Some(what) = blocking_call_at(file, i) {
                findings.extend(file.finding(
                    i,
                    PASS,
                    format!(
                        "reactor-reachable blocking call {what} ({via}) — the run loop \
                         must only block in the poller's `wait`; hand the work to a \
                         worker or justify with `// lint: allow(reactor_blocking, …)`"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// `crate::fn` or `crate::Type::fn` → a call-graph key.
fn parse_fn_spec(spec: &str) -> Result<FnKey, String> {
    let parts: Vec<&str> = spec.split("::").collect();
    match parts[..] {
        [krate, name] => Ok((krate.to_string(), String::new(), name.to_string())),
        [krate, ty, name] => Ok((krate.to_string(), ty.to_string(), name.to_string())),
        _ => Err(format!(
            "[reactor] entry_fns: `{spec}` must be `crate::fn` or `crate::Type::fn`"
        )),
    }
}

/// "entry `a`" for a root, "reached via a → b → c" otherwise.
fn route(parent: &BTreeMap<FnKey, Option<FnKey>>, key: &FnKey) -> String {
    let mut chain = vec![key.clone()];
    let mut cur = key;
    while let Some(Some(p)) = parent.get(cur) {
        chain.push(p.clone());
        cur = p;
    }
    chain.reverse();
    let names: Vec<String> = chain.iter().map(display).collect();
    if names.len() == 1 {
        format!("entry `{}`", names[0])
    } else {
        format!("reached via {}", names.join(" → "))
    }
}

fn display(key: &FnKey) -> String {
    if key.1.is_empty() {
        key.2.clone()
    } else {
        format!("{}::{}", key.1, key.2)
    }
}

/// If code token `i` is a known blocking operation, names it. The
/// poller's own `wait` is the reactor's one legal blocking point and is
/// deliberately not on this list.
fn blocking_call_at(file: &SourceFile, i: usize) -> Option<String> {
    let src = &file.src;
    let code = &file.code;
    let t = code[i];
    if t.kind != TokKind::Ident || !code.get(i + 1).is_some_and(|n| n.is(b'(')) {
        return None;
    }
    let name = t.text(src);
    let after_dot = i >= 1 && code[i - 1].is(b'.');
    let path_head = if i >= 3
        && code[i - 1].is(b':')
        && code[i - 2].is(b':')
        && code[i - 3].kind == TokKind::Ident
    {
        code[i - 3].text(src)
    } else {
        ""
    };
    let zero_arg = code.get(i + 2).is_some_and(|n| n.is(b')'));
    match name {
        "sleep" if path_head == "thread" => Some("`thread::sleep`".into()),
        "recv" | "recv_timeout" | "recv_deadline" if after_dot => {
            Some(format!("`.{name}(…)` (blocking channel receive)"))
        }
        "accept" if after_dot && zero_arg => Some("`.accept()`".into()),
        "join" if after_dot && zero_arg => Some("`.join()`".into()),
        "connect" if after_dot || path_head == "TcpStream" || path_head == "UnixStream" => {
            Some("blocking `connect`".into())
        }
        _ if path_head == "File" || path_head == "fs" => {
            Some(format!("`{path_head}::{name}(…)` (file I/O)"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[lock.ranks]
"R.queue" = 10
"Deep.table" = 30

[lock.patterns]
":queue" = "R.queue"
":table" = "Deep.table"

[reactor]
entry_fns = ["x::run_loop"]
max_lock_rank = 10
"#;

    fn check_with(manifest: &str, src: &str) -> Result<Vec<Finding>, String> {
        let cfg = Config::from_str(manifest).unwrap();
        let files = vec![SourceFile::from_source(
            "crates/x/src/lib.rs".into(),
            src.into(),
        )];
        let cg = CallGraph::build(&files);
        let mut findings = Vec::new();
        run(&cfg, &files, &cg, &mut findings)?;
        Ok(findings)
    }

    fn check(src: &str) -> Vec<Finding> {
        check_with(MANIFEST, src).unwrap()
    }

    #[test]
    fn leaf_lock_under_the_ceiling_is_clean() {
        let f = check("fn run_loop(&self) { let g = self.queue.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn deep_lock_above_the_ceiling_is_flagged() {
        let f = check("fn run_loop(&self) { let g = self.table.lock(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("rank 30"));
        assert!(f[0].message.contains("ceiling 10"));
    }

    #[test]
    fn blocking_ops_through_helpers_carry_the_route() {
        let src = "
            fn helper() { std::thread::sleep(d); }
            fn run_loop() { helper(); }
        ";
        let f = check(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("thread::sleep"));
        assert!(f[0].message.contains("reached via run_loop → helper"));
    }

    #[test]
    fn channel_recv_and_file_io_are_flagged() {
        let src = "fn run_loop(rx: &Receiver<u8>) { let _ = rx.recv(); let _ = File::open(p); }";
        let f = check(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains(".recv("));
        assert!(f[1].message.contains("File::open"));
    }

    #[test]
    fn unreachable_blocking_code_is_not_flagged() {
        let src = "
            fn run_loop() {}
            fn elsewhere() { std::thread::sleep(d); }
        ";
        let f = check(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn the_pollers_wait_is_not_a_blocking_op() {
        let f = check("fn run_loop(&self) { let n = self.poller.wait(t); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_annotation_suppresses_with_a_reason() {
        let src = "fn run_loop() {\n\
                   // lint: allow(reactor_blocking, \"bounded test-only delay\")\n\
                   std::thread::sleep(d);\n}";
        let f = check(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn entry_types_reach_dispatch_surfaces() {
        let manifest = r#"
[reactor]
entry_types = ["x::Conn"]
"#;
        let src = "
            struct Conn;
            impl Conn { fn on_readable(&self) { std::thread::sleep(d); } }
        ";
        let f = check_with(manifest, src).unwrap();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("entry `Conn::on_readable`"));
    }

    #[test]
    fn unknown_entries_are_hard_errors() {
        let manifest = "[reactor]\nentry_fns = [\"x::no_such\"]\n";
        let err = check_with(manifest, "fn run_loop() {}").unwrap_err();
        assert!(err.contains("no_such"), "{err}");
        let manifest = "[reactor]\nentry_types = [\"x::Ghost\"]\n";
        let err = check_with(manifest, "fn run_loop() {}").unwrap_err();
        assert!(err.contains("Ghost"), "{err}");
    }
}
