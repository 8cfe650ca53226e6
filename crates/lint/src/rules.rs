//! The secret-hygiene rule families and the engine that runs them.
//!
//! Scoping: rules R1/R2/R6/R7/R8 apply to the *secret crates*
//! (`fedroad-mpc`, `fedroad-core`) whose values include share material;
//! R3/R4 apply to the *protocol hot paths* — the modules a malformed or
//! malicious message reaches before any trust boundary; R5 applies to
//! every crate root; R9 applies wherever a suppression marker exists.
//! `#[cfg(test)]` regions are exempt from R1/R3/R4/R6/R7/R8 (tests
//! legitimately print, unwrap, and record synthetic values), never from
//! R2/R5. `#[cfg(not(test))]` is production code and gets no exemption.
//!
//! One engine runs the rule set: [`lint_files`] / [`lint_source`] run
//! token-level R2/R3/R5, the scope-aware, interprocedural
//! `taint` dataflow for R1/R4/R6/R7/R8, the `locks` lock-set pass for
//! R10–R13, and R9 for stale markers.

use crate::ast;
use crate::lexer::{lex, Lexed, Marker, MarkerKind, Token, TokenKind};
use crate::locks::{self, LockFile};
use crate::taint::{self, TaintFile};
use std::collections::HashSet;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A finding before marker suppression: rules emit these without looking
/// at `// lint: …-ok` markers; `apply_markers` suppresses the
/// suppressible ones centrally and tracks which markers earned their keep
/// (the complement feeds rule R9 `unused-suppression`).
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// The finding as it would be reported.
    pub finding: Finding,
    /// Which marker kind may suppress it, if any.
    pub suppressible: Option<MarkerKind>,
}

/// Crates whose non-test code handles share material (R1/R2/R6/R7/R8
/// scope).
pub const SECRET_CRATES: [&str; 2] = ["mpc", "core"];

/// Protocol hot paths (R3/R4 scope): code a malformed message reaches.
pub const HOT_PATHS: [&str; 9] = [
    "crates/mpc/src/binary.rs",
    "crates/mpc/src/block.rs",
    "crates/mpc/src/compare.rs",
    "crates/mpc/src/fedsac.rs",
    "crates/mpc/src/net.rs",
    "crates/mpc/src/threaded.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/fedch.rs",
    "crates/core/src/spsp.rs",
];

/// Types that hold raw share words; Debug/Display on them needs a
/// `// lint: debug-ok(<reason>)` marker (normally a redacted impl).
pub const SHARE_TYPES: [&str; 7] = [
    "SharedWord",
    "EdaBit",
    "TripleWord",
    "PartyMaterial",
    "ShareBlock",
    "EdaBitBlock",
    "TripleBlock",
];

/// APIs whose return values are unopened share material. Identifiers
/// `let`-bound from these are *tainted*: branching on them (R4) or
/// debug-formatting them (R1) is a leak. `less_than*` is deliberately
/// absent — its output is the protocol's one intentionally revealed bit.
pub const SHARE_APIS: [&str; 18] = [
    "additive_shares",
    "xor_shares",
    "edabit",
    "triple_word",
    "edabit_block",
    "triple_block",
    "and_many_scalar",
    "and_block",
    "add_public",
    "add_public_many_scalar",
    "add_public_block",
    "xor_words",
    "xor_public",
    "and_public",
    "shl_words",
    "exchange",
    "broadcast_words",
    "broadcast_flat",
];

/// Method names the lock engine (R11) treats as blocking operations:
/// Condvar/barrier waits, channel endpoints, `JoinHandle::join` (the
/// zero-argument form only — `Path::join` takes one), and the
/// scheduler's round-executing backend hook. Pinned to real workspace
/// call sites by `tests/api_drift.rs`.
pub const BLOCKING_CALLS: [&str; 5] = ["wait", "send", "recv", "join", "execute_round"];

/// Lock-related type names the lock engine recognises in function
/// signatures: a `MutexGuard` parameter arrives held, a `Mutex`
/// parameter keys acquisitions by its inner type, and `Condvar` anchors
/// the wait-family semantics. Pinned by `tests/api_drift.rs`.
pub const LOCK_TYPES: [&str; 3] = ["Mutex", "MutexGuard", "Condvar"];

/// Where a file sits in the lint taxonomy, derived from its repo-relative
/// path.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Whether R1/R2/R6/R7/R8 apply (file under a secret crate's `src/`).
    pub secret_crate: bool,
    /// Whether R3/R4 apply (protocol hot path).
    pub hot_path: bool,
    /// Whether R5 applies (crate root: `lib.rs`, `main.rs`, `src/bin/*`).
    pub crate_root: bool,
}

impl FileContext {
    /// Classifies a repo-relative path.
    pub fn classify(rel_path: &str) -> FileContext {
        let crate_name = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("fedroad");
        let crate_root = rel_path.ends_with("/src/lib.rs")
            || rel_path.ends_with("/src/main.rs")
            || rel_path == "src/lib.rs"
            || rel_path == "src/main.rs"
            || rel_path.starts_with("src/bin/");
        FileContext {
            rel_path: rel_path.to_string(),
            secret_crate: SECRET_CRATES.contains(&crate_name),
            hot_path: HOT_PATHS.contains(&rel_path),
            crate_root,
        }
    }
}

/// Runs the hybrid engine over one file (no cross-file summaries beyond
/// it). Workspace runs should prefer [`lint_files`] so interprocedural
/// summaries span every file.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_files(&[(rel_path.to_string(), src.to_string())])
}

/// Runs the hybrid engine over a set of files: token-level R2/R3/R5, the
/// AST taint dataflow for R1/R4/R6/R7/R8 with summaries computed to a
/// fixpoint across *all* given files, marker suppression, and R9 for
/// markers that suppress nothing.
pub fn lint_files(inputs: &[(String, String)]) -> Vec<Finding> {
    struct Prep {
        ctx: FileContext,
        lexed: Lexed,
        tree: ast::File,
        mask: Vec<bool>,
    }
    let preps: Vec<Prep> = inputs
        .iter()
        .map(|(rel, src)| {
            let lexed = lex(src);
            let mask = test_region_mask(&lexed.tokens);
            let tree = ast::parse(&lexed.tokens);
            Prep {
                ctx: FileContext::classify(rel),
                lexed,
                tree,
                mask,
            }
        })
        .collect();

    let taint_inputs: Vec<TaintFile<'_>> = preps
        .iter()
        .map(|p| TaintFile {
            ctx: &p.ctx,
            lexed: &p.lexed,
            ast: &p.tree,
        })
        .collect();
    let taint_out = taint::analyze(&taint_inputs);

    let lock_inputs: Vec<LockFile<'_>> = preps
        .iter()
        .map(|p| LockFile {
            ctx: &p.ctx,
            ast: &p.tree,
        })
        .collect();
    let lock_out = locks::analyze(&lock_inputs);

    let mut findings = Vec::new();
    for ((p, t), l) in preps.iter().zip(taint_out).zip(lock_out) {
        let mut raw = Vec::new();
        rule_no_debug_on_shares(&p.ctx, &p.lexed, &mut raw);
        if p.ctx.hot_path {
            rule_no_panic_hot_path(&p.ctx, &p.lexed, &p.mask, &mut raw);
        }
        if p.ctx.crate_root {
            rule_crate_hygiene_headers(&p.ctx, &p.lexed, &mut raw);
        }
        raw.extend(t.raw);
        raw.extend(l.raw);
        findings.extend(apply_markers(
            &p.ctx,
            &p.lexed,
            &p.mask,
            raw,
            &t.used_public_ok,
        ));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Suppresses suppressible raw findings covered by a matching marker,
/// then reports rule R9 `unused-suppression` for every marker outside
/// test regions that neither suppressed a finding nor declassified a
/// binding (`used_external`, from the taint engine's `public-ok`
/// bookkeeping).
fn apply_markers(
    ctx: &FileContext,
    lexed: &Lexed,
    test_mask: &[bool],
    raw: Vec<RawFinding>,
    used_external: &HashSet<usize>,
) -> Vec<Finding> {
    let mut used: HashSet<usize> = used_external.clone();
    let mut out = Vec::new();
    for r in raw {
        let mut suppressed = false;
        if let Some(kind) = r.suppressible {
            for m in &lexed.markers {
                if m.kind == kind && marker_covers(m, r.finding.line) {
                    used.insert(m.line);
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(r.finding);
        }
    }
    let spans = test_line_spans(&lexed.tokens, test_mask);
    for m in &lexed.markers {
        let in_test = spans.iter().any(|(lo, hi)| *lo <= m.line && m.line <= *hi);
        if !used.contains(&m.line) && !in_test {
            out.push(Finding {
                rule: "unused-suppression",
                file: ctx.rel_path.clone(),
                line: m.line,
                message: format!(
                    "`// lint: {}(...)` suppresses nothing; remove the stale \
                     marker or move it within two lines of the code it \
                     justifies",
                    marker_name(m.kind)
                ),
            });
        }
    }
    out
}

fn marker_name(kind: MarkerKind) -> &'static str {
    match kind {
        MarkerKind::DebugOk => "debug-ok",
        MarkerKind::PanicOk => "panic-ok",
        MarkerKind::PublicOk => "public-ok",
        MarkerKind::LockOk => "lock-ok",
    }
}

/// The escape-hatch placement contract: a marker covers its own line and
/// the two below it.
fn marker_covers(m: &Marker, line: usize) -> bool {
    m.line <= line && line - m.line <= 2
}

/// Line ranges covered by test regions (for exempting markers from R9).
fn test_line_spans(tokens: &[Token], mask: &[bool]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (t, m) in tokens.iter().zip(mask) {
        if !*m {
            continue;
        }
        match spans.last_mut() {
            Some((_, hi)) if t.line <= *hi + 1 => *hi = (*hi).max(t.line),
            _ => spans.push((t.line, t.line)),
        }
    }
    spans
}

/// `mask[i] == true` ⇔ token `i` is inside a `#[cfg(test)]` or `#[test]`
/// item (attribute through the item's closing brace/semicolon). A `test`
/// mention inside `not(…)` — `#[cfg(not(test))]` — marks *production*
/// code and is excluded (the misclassification this mask used to have).
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].text == "#" && matches!(tokens.get(i + 1), Some(t) if t.text == "[")) {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]` and classify its contents.
        let content_start = i + 2;
        let mut j = content_start;
        let mut depth = 1;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let content_end = j.saturating_sub(1).max(content_start);
        let is_test = ast::attr_marks_test(&tokens[content_start..content_end.min(tokens.len())]);
        if !is_test {
            i = j;
            continue;
        }
        // Mark through the annotated item: skip further attributes, then
        // brace-match the item body (or stop at a bare `;`).
        let start = i;
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => {
                    let mut braces = 1;
                    k += 1;
                    while k < tokens.len() && braces > 0 {
                        match tokens[k].text.as_str() {
                            "{" => braces += 1,
                            "}" => braces -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    break;
                }
                ";" => {
                    k += 1;
                    break;
                }
                _ => k += 1,
            }
        }
        for m in mask.iter_mut().take(k).skip(start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Extracts `name` from every `{name:?}` / `{name:#?}` in a format string.
pub(crate) fn inline_debug_subjects(fmt: &str) -> Vec<String> {
    let mut subjects = Vec::new();
    let bytes = fmt.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j > i + 1 {
                let rest = &fmt[j..];
                if rest.starts_with(":?}") || rest.starts_with(":#?}") {
                    subjects.push(fmt[i + 1..j].to_string());
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    subjects
}

/// R2 `no-debug-on-shares`: `#[derive(.. Debug ..)]` on a [`SHARE_TYPES`]
/// type, or a manual `Debug`/`Display` impl for one. Suppressible with a
/// `// lint: debug-ok(<reason>)` marker (normally on a redacted impl).
fn rule_no_debug_on_shares(ctx: &FileContext, lexed: &Lexed, out: &mut Vec<RawFinding>) {
    if !ctx.secret_crate {
        return;
    }
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        // derive(…, Debug, …) followed by struct/enum Name.
        if t.text == "derive"
            && t.kind == TokenKind::Ident
            && matches!(tokens.get(i + 1), Some(n) if n.text == "(")
        {
            let mut j = i + 2;
            let mut has_debug = false;
            while j < tokens.len() && tokens[j].text != ")" {
                if tokens[j].text == "Debug" {
                    has_debug = true;
                }
                j += 1;
            }
            if has_debug {
                // The annotated item: next struct/enum keyword, then name.
                let mut k = j;
                while k < tokens.len() && tokens[k].text != "struct" && tokens[k].text != "enum" {
                    k += 1;
                }
                if let Some(name) = tokens.get(k + 1) {
                    if SHARE_TYPES.contains(&name.text.as_str()) {
                        out.push(RawFinding {
                            finding: Finding {
                                rule: "no-debug-on-shares",
                                file: ctx.rel_path.clone(),
                                line: t.line,
                                message: format!(
                                    "#[derive(Debug)] on share-holding `{}`; write a \
                                     redacted impl and mark it `// lint: debug-ok(...)`",
                                    name.text
                                ),
                            },
                            suppressible: Some(MarkerKind::DebugOk),
                        });
                    }
                }
            }
        }
        // impl [std::fmt::]Debug|Display for Name.
        if t.text == "impl" && t.kind == TokenKind::Ident {
            let window = &tokens[i + 1..(i + 16).min(tokens.len())];
            let trait_pos = window
                .iter()
                .position(|w| w.text == "Debug" || w.text == "Display");
            let for_pos = window.iter().position(|w| w.text == "for");
            if let (Some(tp), Some(fp)) = (trait_pos, for_pos) {
                if tp < fp {
                    if let Some(name) = window.get(fp + 1) {
                        if SHARE_TYPES.contains(&name.text.as_str()) {
                            out.push(RawFinding {
                                finding: Finding {
                                    rule: "no-debug-on-shares",
                                    file: ctx.rel_path.clone(),
                                    line: t.line,
                                    message: format!(
                                        "manual {} impl on share-holding `{}` without \
                                         `// lint: debug-ok(...)`",
                                        window[tp].text, name.text
                                    ),
                                },
                                suppressible: Some(MarkerKind::DebugOk),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// R3 `no-panic-hot-path`: `.unwrap()`, `.expect(` and `panic!` in
/// non-test protocol code — a malformed message must surface as a typed
/// error, not a crash (which leaks timing and aborts the party).
fn rule_no_panic_hot_path(
    ctx: &FileContext,
    lexed: &Lexed,
    test_mask: &[bool],
    out: &mut Vec<RawFinding>,
) {
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if test_mask[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let method_call = (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && tokens[i - 1].text == "."
            && matches!(tokens.get(i + 1), Some(n) if n.text == "(");
        let panic_macro =
            t.text == "panic" && matches!(tokens.get(i + 1), Some(n) if n.text == "!");
        if method_call || panic_macro {
            out.push(RawFinding {
                finding: Finding {
                    rule: "no-panic-hot-path",
                    file: ctx.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in a protocol hot path; return a typed ProtocolError \
                         (or justify with `// lint: panic-ok(...)`)",
                        if panic_macro { "panic!" } else { &t.text }
                    ),
                },
                suppressible: Some(MarkerKind::PanicOk),
            });
        }
    }
}

/// R5 `crate-hygiene`: every crate root must carry
/// `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
fn rule_crate_hygiene_headers(ctx: &FileContext, lexed: &Lexed, out: &mut Vec<RawFinding>) {
    for (attr, arg) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
        if !has_inner_attr(&lexed.tokens, attr, arg) {
            out.push(RawFinding {
                finding: Finding {
                    rule: "crate-hygiene",
                    file: ctx.rel_path.clone(),
                    line: 1,
                    message: format!("crate root is missing `#![{attr}({arg})]`"),
                },
                suppressible: None,
            });
        }
    }
}

/// Matches the token sequence `# ! [ attr ( arg … ) ]` anywhere (the
/// attribute may carry further arguments, e.g. `#![warn(a, b)]`).
fn has_inner_attr(tokens: &[Token], attr: &str, arg: &str) -> bool {
    tokens.windows(5).enumerate().any(|(i, w)| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == attr
            && w[4].text == "("
            && tokens[i + 5..]
                .iter()
                .take_while(|t| t.text != ")")
                .any(|t| t.text == arg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_knows_the_taxonomy() {
        let c = FileContext::classify("crates/mpc/src/compare.rs");
        assert!(c.secret_crate && c.hot_path && !c.crate_root);
        let c = FileContext::classify("crates/mpc/src/lib.rs");
        assert!(c.secret_crate && !c.hot_path && c.crate_root);
        let c = FileContext::classify("crates/queue/src/tm_tree.rs");
        assert!(!c.secret_crate && !c.hot_path && !c.crate_root);
        let c = FileContext::classify("src/bin/fedroad.rs");
        assert!(!c.secret_crate && c.crate_root);
    }

    #[test]
    fn test_regions_are_exempt_from_r1_and_r3() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn ok() {
                    println!("fine in tests");
                    let v = Some(1).unwrap();
                    if v == 0 { panic!("also fine"); }
                }
            }
        "#;
        assert!(lint_source("crates/mpc/src/compare.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_gets_no_exemption() {
        let src = "#[cfg(not(test))]\npub fn deliver(m: Option<u64>) -> u64 { m.unwrap() }\n";
        let findings = lint_source("crates/mpc/src/net.rs", src);
        assert!(
            findings.iter().any(|f| f.rule == "no-panic-hot-path"),
            "cfg(not(test)) is production code: {findings:?}"
        );
    }

    #[test]
    fn marker_distance_is_bounded() {
        let src =
            "// lint: panic-ok(close enough)\n\n\n\nfn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
        let findings = lint_source("crates/mpc/src/compare.rs", src);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(
            rules.contains(&"no-panic-hot-path"),
            "a marker four lines up must not apply: {findings:?}"
        );
        assert!(
            rules.contains(&"unused-suppression"),
            "and the stale marker itself is a finding: {findings:?}"
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn stale_markers_are_r9_but_used_ones_are_not() {
        let src = "\
// lint: panic-ok(the call below was removed long ago)\npub fn tidy(x: u64) -> u64 { x + 1 }\n\n\
// lint: panic-ok(invariant)\nfn g(x: Option<u64>) -> u64 { x.unwrap() }\n";
        let findings = lint_source("crates/mpc/src/compare.rs", src);
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.rule == "unused-suppression")
                .count(),
            1,
            "only the stale marker fires: {findings:?}"
        );
        assert_eq!(
            findings.len(),
            1,
            "the used marker suppresses R3: {findings:?}"
        );
    }

    #[test]
    fn inline_subject_extraction() {
        assert_eq!(
            inline_debug_subjects("a {x:?} b {y:#?} c {z} d {:?}"),
            vec!["x".to_string(), "y".to_string()]
        );
    }
}
