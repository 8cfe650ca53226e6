//! `fedroad-lint` binary: lints the workspace (no arguments) or specific
//! files, printing findings as `file:line: [rule] message` and exiting
//! non-zero when any rule fires. See the library docs for the rule set.
//!
//! Flags:
//!
//! - `--sarif` — emit findings as SARIF 2.1.0 on stdout (text still goes
//!   to stderr).
//! - `--sarif-out <path>` — write the SARIF log to a file instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut sarif_stdout = false;
    let mut sarif_out: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sarif" => sarif_stdout = true,
            "--sarif-out" => match args.next() {
                Some(p) => sarif_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("fedroad-lint: --sarif-out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            _ => files.push(a),
        }
    }

    let root = workspace_root();

    let result = if files.is_empty() {
        fedroad_lint::lint_workspace(&root)
    } else {
        files
            .iter()
            .map(|a| fedroad_lint::lint_file(&root, Path::new(a)))
            .try_fold(Vec::new(), |mut acc, r| {
                acc.extend(r?);
                Ok(acc)
            })
    };

    let findings = match result {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fedroad-lint: error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if sarif_stdout || sarif_out.is_some() {
        let log = fedroad_lint::sarif::to_sarif(&findings);
        if let Some(path) = &sarif_out {
            if let Err(e) = std::fs::write(path, &log) {
                eprintln!("fedroad-lint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("fedroad-lint: SARIF written to {}", path.display());
        }
        if sarif_stdout {
            println!("{log}");
        }
    }

    if findings.is_empty() {
        eprintln!("fedroad-lint: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!("fedroad-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// The workspace root: the current directory when it looks like the
/// workspace (has `crates/`), else two levels above this crate's
/// manifest (`crates/lint/../..`).
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() && cwd.join("Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or(cwd)
}
