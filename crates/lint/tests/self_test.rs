//! Fixture-based self-tests: every rule family must fire on its known-bad
//! snippet, the known-good snippet and the real workspace must pass, and
//! the binary's exit codes must match (0 clean, 1 findings).

use fedroad_lint::{lint_file, lint_workspace, Finding};
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    manifest_dir().ancestors().nth(2).unwrap().to_path_buf()
}

fn fixture(name: &str) -> Vec<Finding> {
    let path = manifest_dir().join("fixtures").join(name);
    lint_file(&workspace_root(), &path).expect("fixture must be readable")
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn bad_print_trips_no_debug_print() {
    let findings = fixture("bad_print.rs");
    let rules = rules_of(&findings);
    // println!, eprintln!, dbg!, positional {:?} of a share, inline {share:?}.
    assert!(
        rules.iter().filter(|r| **r == "no-debug-print").count() >= 4,
        "expected ≥4 no-debug-print findings, got: {findings:?}"
    );
}

#[test]
fn bad_derive_trips_no_debug_on_shares() {
    let findings = fixture("bad_derive.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-debug-on-shares").count(),
        2,
        "derive(Debug) on EdaBit and Display on TripleBlock: {findings:?}"
    );
}

#[test]
fn bad_unwrap_trips_no_panic_hot_path() {
    let findings = fixture("bad_unwrap.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-panic-hot-path").count(),
        3,
        "unwrap, expect, panic!: {findings:?}"
    );
}

#[test]
fn bad_branch_trips_no_secret_branch() {
    let findings = fixture("bad_branch.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-secret-branch").count(),
        2,
        "if on share, match on folded share: {findings:?}"
    );
}

#[test]
fn bad_headers_trips_crate_hygiene() {
    let findings = fixture("bad_headers.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "crate-hygiene").count(),
        2,
        "missing forbid(unsafe_code) and warn(missing_docs): {findings:?}"
    );
}

#[test]
fn bad_obs_trips_obs_no_secret_args() {
    let findings = fixture("bad_obs.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "obs-no-secret-args").count(),
        4,
        "counter_add, span_begin, record_value, instant: {findings:?}"
    );
}

#[test]
fn bad_obs_gauge_trips_obs_no_secret_args() {
    let findings = fixture("bad_obs_gauge.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "obs-no-secret-args").count(),
        3,
        "gauge_set, gauge_add, gauge_sub: {findings:?}"
    );
}

#[test]
fn bad_launder_trips_no_taint_laundering() {
    let findings = fixture("bad_launder.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "no-taint-laundering")
            .count(),
        2,
        "share through relay (two hops) and tally (one hop): {findings:?}"
    );
    assert_eq!(
        rules.iter().filter(|r| **r == "no-secret-branch").count(),
        1,
        "branch on a wrapper-returned share: {findings:?}"
    );
}

#[test]
fn bad_index_trips_no_secret_indexing() {
    let findings = fixture("bad_index.rs");
    let rules = rules_of(&findings);
    assert!(
        rules.iter().filter(|r| **r == "no-secret-indexing").count() >= 2,
        "share-valued index and share-valued loop bound: {findings:?}"
    );
}

#[test]
fn bad_stale_marker_trips_unused_suppression() {
    let findings = fixture("bad_stale_marker.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "unused-suppression").count(),
        3,
        "one stale marker of each kind: {findings:?}"
    );
    assert_eq!(findings.len(), 3, "nothing else fires: {findings:?}");
}

#[test]
fn bad_cfg_not_test_trips_no_panic_hot_path() {
    let findings = fixture("bad_cfg_not_test.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "no-panic-hot-path").count(),
        1,
        "cfg(not(test)) code is production; cfg(test) stays exempt: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn bad_lock_cycle_trips_lock_order_cycle() {
    let findings = fixture("bad_lock_cycle.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules.iter().filter(|r| **r == "lock-order-cycle").count(),
        2,
        "pending→done and done→pending both close the cycle: {findings:?}"
    );
    assert_eq!(findings.len(), 2, "only R10 fires: {findings:?}");
}

#[test]
fn bad_blocking_locked_trips_no_blocking_while_locked() {
    let findings = fixture("bad_blocking_locked.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "no-blocking-while-locked")
            .count(),
        1,
        "recv under the state guard: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "only R11 fires: {findings:?}");
}

#[test]
fn bad_condvar_nowait_trips_condvar_wait_in_loop() {
    let findings = fixture("bad_condvar_nowait.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "condvar-wait-in-loop")
            .count(),
        1,
        "a single un-looped wait: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "only R12 fires: {findings:?}");
}

#[test]
fn bad_relaxed_gate_trips_atomic_gate_ordering() {
    let findings = fixture("bad_relaxed_gate.rs");
    let rules = rules_of(&findings);
    assert_eq!(
        rules
            .iter()
            .filter(|r| **r == "atomic-gate-ordering")
            .count(),
        1,
        "Relaxed store on the publication gate: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "only R13 fires: {findings:?}");
}

#[test]
fn good_scheduler_idiom_is_clean() {
    let findings = fixture("good_scheduler_idiom.rs");
    assert!(
        findings.is_empty(),
        "the scheduler idiom must pass R10–R13: {findings:?}"
    );
}

#[test]
fn good_fixture_is_clean() {
    let findings = fixture("good_clean.rs");
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn the_real_workspace_is_clean() {
    let findings = lint_workspace(&workspace_root()).expect("workspace must be walkable");
    assert!(
        findings.is_empty(),
        "the workspace must pass its own linter:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exit_codes_match() {
    let bin = env!("CARGO_BIN_EXE_fedroad-lint");
    let root = workspace_root();

    let clean = Command::new(bin)
        .current_dir(&root)
        .output()
        .expect("binary must run");
    assert!(
        clean.status.success(),
        "workspace lint must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    for bad in [
        "bad_print.rs",
        "bad_derive.rs",
        "bad_unwrap.rs",
        "bad_branch.rs",
        "bad_headers.rs",
        "bad_obs.rs",
        "bad_obs_gauge.rs",
        "bad_launder.rs",
        "bad_index.rs",
        "bad_stale_marker.rs",
        "bad_cfg_not_test.rs",
        "bad_lock_cycle.rs",
        "bad_blocking_locked.rs",
        "bad_condvar_nowait.rs",
        "bad_relaxed_gate.rs",
    ] {
        let out = Command::new(bin)
            .current_dir(&root)
            .arg(Path::new("crates/lint/fixtures").join(bad))
            .output()
            .expect("binary must run");
        assert!(
            !out.status.success(),
            "{bad} must make the linter exit non-zero"
        );
    }
}
