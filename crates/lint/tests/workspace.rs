//! The analyzer run against its own workspace, plus the static/runtime
//! hierarchy consistency check.

use std::path::PathBuf;

use fungus_lint::{check_workspace, Config};

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The workspace must stay lint-clean: this is the same gate CI runs
/// via `cargo run -p fungus-lint -- check`, kept here too so a plain
/// `cargo test` catches regressions without the extra invocation.
#[test]
fn workspace_is_lint_clean() {
    let report = check_workspace(&workspace_root()).expect("lint.toml parses");
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 100, "scanner saw the whole tree");
}

/// `lint.toml`'s `[lock.ranks]` and the runtime hierarchy in
/// `fungus_lint_rt::hierarchy` are two spellings of one invariant;
/// this test is what keeps them from drifting apart.
#[test]
fn manifest_ranks_match_runtime_hierarchy() {
    let manifest = std::fs::read_to_string(workspace_root().join("lint.toml")).unwrap();
    let cfg = Config::from_str(&manifest).expect("lint.toml parses");

    let runtime = fungus_lint_rt::hierarchy::ALL;
    assert_eq!(
        cfg.classes.len(),
        runtime.len(),
        "same class count in lint.toml and fungus_lint_rt::hierarchy"
    );
    for rt in runtime {
        let decl = cfg
            .classes
            .iter()
            .find(|c| c.name == rt.name)
            .unwrap_or_else(|| panic!("runtime class `{}` missing from lint.toml", rt.name));
        assert_eq!(decl.rank, rt.rank, "rank of `{}`", rt.name);
    }
}
