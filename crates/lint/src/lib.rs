//! # fedroad-lint — secret-hygiene static analysis for the FedRoad workspace
//!
//! The runtime half of the paper's §VII security argument lives in
//! `fedroad-mpc`'s transcript auditor; this crate is the *source-level*
//! half: a dependency-free linter (hand-rolled lexer, recursive-descent
//! parser, no proc macros, no syn) that fails the build when code could
//! format, log, branch on, index with, or panic-unwind with raw share
//! material. Run it as:
//!
//! ```text
//! cargo run -p fedroad-lint                  # lint the whole workspace
//! cargo run -p fedroad-lint FILE...          # lint specific files (fixtures)
//! cargo run -p fedroad-lint -- --sarif       # SARIF 2.1.0 to stdout
//! cargo run -p fedroad-lint -- --sarif-out P # SARIF to a file (text still on stderr)
//! ```
//!
//! Rule families (see [`rules`] for exact scoping):
//!
//! | rule | what it rejects |
//! |------|-----------------|
//! | `no-debug-print` | `println!`/`eprintln!`/`dbg!` and `{:?}` of share values in non-test `mpc`/`core` code |
//! | `no-debug-on-shares` | `derive(Debug)`/manual `Debug`/`Display` on share-holding types without `// lint: debug-ok(...)` |
//! | `no-panic-hot-path` | `.unwrap()`/`.expect(`/`panic!` in protocol hot paths without `// lint: panic-ok(...)` |
//! | `no-secret-branch` | `if`/`match`/`while` conditions and match guards depending on unopened share values |
//! | `crate-hygiene` | crate roots missing `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]` |
//! | `obs-no-secret-args` | recorder sinks (`record*`/`span*`/`gauge*`/`instant`/`counter_add`/`hist_record`) fed share values |
//! | `no-taint-laundering` | share-tainted arguments reaching a print/recorder sink *inside a callee*, any number of hops away (interprocedural summaries) |
//! | `no-secret-indexing` | share values used as slice indices or loop bounds — a data-dependent memory/timing channel |
//! | `unused-suppression` | stale `// lint: *-ok` markers that suppress nothing |
//! | `lock-order-cycle` | two locks acquired in opposite orders on different paths, or a held lock re-acquired |
//! | `no-blocking-while-locked` | channel send/recv, thread join, foreign Condvar wait, or a round-executing backend call while holding a guard |
//! | `condvar-wait-in-loop` | `Condvar::wait` whose result is not re-checked under a loop predicate |
//! | `atomic-gate-ordering` | `Ordering::Relaxed` on atomics gating cross-thread data publication |
//!
//! One engine backs the rules ([`rules::lint_files`]). It parses each
//! file into a lightweight AST and runs a scope-aware, flow-sensitive
//! taint evaluation with per-function summaries computed to a fixpoint
//! across the whole workspace (R1/R4/R6/R7/R8), next to token-level
//! passes for R2/R3/R5 and the R9 stale-marker check.
//!
//! Intentional declassification uses `// lint: public-ok(<reason>)` on a
//! `let` whose initializer is tainted — the marker asserts the value is a
//! protocol-level public output (e.g. the XOR-fold of broadcast words
//! that *is* the opened bit). Markers that declassify nothing are R9.
//!
//! Rules R10–R13 come from a second interprocedural pass, the lock-set
//! engine in `locks` (see DESIGN.md §11): per-function summaries of
//! acquired locks, blocking-ness, and returned guards, iterated to a
//! fixpoint, plus a global lock-acquisition graph checked for cycles.
//! Reviewed exceptions use `// lint: lock-ok(<reason>)`, honoured (and
//! held to account by R9) exactly like the other markers.
//!
//! Fixture files may begin with `// lint-fixture: <repo-relative-path>` to
//! be linted *as if* they sat at that path — how the self-tests exercise
//! each rule without planting bad code in the real crates.
//!
//! Vendored stand-in crates under `vendor/` are exempt: they model
//! third-party dependencies, not FedRoad policy surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod lexer;
mod locks;
pub mod rules;
pub mod sarif;
mod taint;

pub use rules::{lint_source, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints one file on disk. A leading `// lint-fixture: <rel>` directive
/// overrides the path classification; otherwise the path itself (made
/// relative to `root` when possible) decides which rules apply.
pub fn lint_file(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(path)?;
    let rel = fixture_directive(&src).unwrap_or_else(|| rel_path(root, path));
    Ok(lint_source(&rel, &src))
}

/// Lints every first-party source file of the workspace at `root`;
/// interprocedural summaries span all files, so a helper in one module is
/// understood at its call sites in another.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(rules::lint_files(&workspace_sources(root)?))
}

/// Reads every first-party `(repo-relative path, source)` pair of the
/// workspace at `root`: the root package's `src/` plus each member under
/// `crates/*/src/`. Fixture directories and `vendor/` are skipped by
/// construction.
fn workspace_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    files
        .into_iter()
        .map(|path| {
            let src = fs::read_to_string(&path)?;
            Ok((rel_path(root, &path), src))
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir` (no-op if absent),
/// skipping any `fixtures` directory.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts a `// lint-fixture: <rel>` directive from a file's first line.
fn fixture_directive(src: &str) -> Option<String> {
    let first = src.lines().next()?;
    let rel = first.trim().strip_prefix("// lint-fixture:")?.trim();
    (!rel.is_empty()).then(|| rel.to_string())
}

/// Repo-relative path with `/` separators (falls back to the path as
/// given when it is not under `root`).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_directive_is_parsed() {
        assert_eq!(
            fixture_directive("// lint-fixture: crates/mpc/src/fedsac.rs\nfn f() {}"),
            Some("crates/mpc/src/fedsac.rs".to_string())
        );
        assert_eq!(fixture_directive("fn f() {}"), None);
    }

    #[test]
    fn rel_paths_use_forward_slashes() {
        let root = Path::new("/repo");
        assert_eq!(
            rel_path(root, Path::new("/repo/crates/mpc/src/net.rs")),
            "crates/mpc/src/net.rs"
        );
    }
}
