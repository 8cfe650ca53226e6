//! Drift guard: the name lists in `rules.rs` (share types, tainting APIs,
//! hot-path files) must keep naming real items in `fedroad-mpc` /
//! `fedroad-core`. Without this, a rename silently shrinks the linter's
//! coverage — the lists rot while every lint test stays green.

use fedroad_lint::rules::{BLOCKING_CALLS, HOT_PATHS, LOCK_TYPES, SHARE_APIS, SHARE_TYPES};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

/// Concatenated sources of the two secret crates.
fn secret_sources() -> String {
    sources_of(&["crates/mpc/src", "crates/core/src"])
}

/// Concatenated sources of the concurrency-bearing crates the lock
/// engine (R10–R13) watches.
fn concurrency_sources() -> String {
    sources_of(&["crates/mpc/src", "crates/core/src", "crates/obs/src"])
}

fn sources_of(dirs: &[&str]) -> String {
    let root = workspace_root();
    let mut all = String::new();
    for dir in dirs {
        let mut stack = vec![root.join(dir)];
        while let Some(d) = stack.pop() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)
                .unwrap_or_else(|e| panic!("{} must exist: {e}", d.display()))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for p in entries {
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    all.push_str(&std::fs::read_to_string(&p).expect("readable"));
                    all.push('\n');
                }
            }
        }
    }
    all
}

#[test]
fn share_types_still_exist() {
    let src = secret_sources();
    for ty in SHARE_TYPES {
        let found = [
            format!("struct {ty}"),
            format!("enum {ty}"),
            format!("type {ty}"),
        ]
        .iter()
        .any(|needle| src.contains(needle.as_str()));
        assert!(
            found,
            "SHARE_TYPES entry `{ty}` no longer names a struct/enum/type \
             in fedroad-mpc/fedroad-core; update rules.rs"
        );
    }
}

#[test]
fn share_apis_still_exist() {
    let src = secret_sources();
    for api in SHARE_APIS {
        // Whole names only: `fn add_public` must not be satisfied by
        // `fn add_public_block` if the former is ever removed.
        assert!(
            src.contains(&format!("fn {api}(")) || src.contains(&format!("fn {api}<")),
            "SHARE_APIS entry `{api}` no longer names a function in \
             fedroad-mpc/fedroad-core; update rules.rs"
        );
    }
}

#[test]
fn hot_path_files_still_exist() {
    let root = workspace_root();
    for path in HOT_PATHS {
        assert!(
            root.join(path).is_file(),
            "HOT_PATHS entry `{path}` no longer exists; update rules.rs"
        );
    }
}

#[test]
fn blocking_calls_still_have_real_call_sites() {
    let src = concurrency_sources();
    for name in BLOCKING_CALLS {
        let found = src.contains(&format!(".{name}(")) || src.contains(&format!("fn {name}"));
        assert!(
            found,
            "BLOCKING_CALLS entry `{name}` has no call site or definition \
             in mpc/core/obs; update rules.rs"
        );
    }
}

#[test]
fn lock_types_still_appear_in_signatures() {
    let src = concurrency_sources();
    for ty in LOCK_TYPES {
        let found = src.contains(&format!("{ty}<")) || src.contains(&format!(": {ty}"));
        assert!(
            found,
            "LOCK_TYPES entry `{ty}` no longer appears as a type in \
             mpc/core/obs; update rules.rs"
        );
    }
}
