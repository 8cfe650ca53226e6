//! Scope-aware, flow-sensitive, interprocedural secret-taint dataflow
//! over the [`crate::ast`] tree — the engine behind rules R1/R4/R6/R7/R8.
//!
//! Taint is a `u64` bitset per value: bit 0 (`SOURCE`) means "derived from
//! a [`crate::rules::SHARE_APIS`] call in this function"; bit `i + 1`
//! means "depends on parameter `i` of the enclosing function". One
//! evaluation therefore yields both the local findings *and* the
//! function's summary (`returns_taint`, `param_flows_to_return`,
//! `param_reaches_sink`), and summaries are iterated to a fixpoint across
//! every file handed to [`analyze`], so a helper that forwards its
//! argument into `println!` two calls away is caught at the call site
//! that supplied the share (rule R7), where a one-level, file-local pass
//! would see nothing.
//!
//! Declassification mirrors the protocol: calls whose name starts with
//! `open`/`reveal`/`reconstruct`/`less_than` return *public* values (the
//! intentionally revealed comparison bits of FedRoad §VII), public-size
//! methods (`len`/`is_empty`/`capacity`) are public, and a
//! `// lint: public-ok(<reason>)` marker declassifies the `let` binding
//! it annotates (the masked-open fold in `threaded.rs`). Markers that
//! never declassify anything are reported by rule R9 upstream.

use crate::ast::{self, Arm, Block, Expr, FnItem, Item, ItemKind, Pat, Stmt};
use crate::lexer::{Lexed, MarkerKind};
use crate::rules::{inline_debug_subjects, FileContext, Finding, RawFinding, SHARE_APIS};
use std::collections::{HashMap, HashSet};

/// Bit 0: value derives from a share-producing API call.
const SOURCE: u64 = 1;

/// Bit for "depends on parameter `i`" (saturates past 62 parameters).
fn param_bit(i: usize) -> u64 {
    if i < 62 {
        2u64 << i
    } else {
        0
    }
}

/// Macros that are console sinks (rule R1 / `SinkKind::Print`).
pub(crate) const PRINT_MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];

const EXACT_SINKS: [&str; 3] = ["instant", "counter_add", "hist_record"];

/// Call/method names that are recorder sinks (rule R6). The `gauge`
/// prefix covers the live-telemetry gauge API (`gauge_set`/`gauge_add`/
/// `gauge_sub`); flight-recorder and exposition entry points take no
/// caller-supplied values, so the recording calls stay the whole surface.
fn is_sink_name(name: &str) -> bool {
    name.starts_with("record")
        || name.starts_with("span")
        || name.starts_with("gauge")
        || EXACT_SINKS.contains(&name)
}

/// Calls whose return value is declassified: the protocol's intentional
/// reveals (`open_word`, `reveal`, `reconstruct_xor`, `less_than*`).
fn is_declassifier(name: &str) -> bool {
    ["open", "reveal", "reconstruct", "less_than"]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Methods returning public size information even on tainted containers.
fn is_public_size(name: &str) -> bool {
    matches!(name, "len" | "is_empty" | "capacity")
}

/// Container methods that *store* their arguments into the receiver, so
/// argument taint must flow back into the receiver's variable. Read-only
/// adapters (`zip`, `eq`, `contains`, …) are deliberately absent.
fn is_mutator(name: &str) -> bool {
    matches!(
        name,
        "push"
            | "push_back"
            | "push_front"
            | "insert"
            | "extend"
            | "extend_from_slice"
            | "append"
            | "resize"
            | "fill"
            | "replace"
            | "store"
            | "set"
            | "write"
            | "send"
    )
}

/// Where a tainted value would escape to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SinkKind {
    /// A console print macro.
    Print,
    /// An observability recorder call.
    Recorder,
}

impl SinkKind {
    fn describe(self) -> &'static str {
        match self {
            SinkKind::Print => "console print",
            SinkKind::Recorder => "observability recorder",
        }
    }
}

/// One function's interprocedural summary.
#[derive(Clone, Debug, Default, PartialEq)]
struct FnSummary {
    /// The return value carries share material created inside.
    returns_taint: bool,
    /// `param_to_return[i]`: parameter `i` flows into the return value.
    param_to_return: Vec<bool>,
    /// `param_to_sink[i]`: parameter `i` reaches a sink inside (possibly
    /// transitively through further summarised calls).
    param_to_sink: Vec<Option<SinkKind>>,
}

/// One file's input to the engine.
pub(crate) struct TaintFile<'a> {
    /// Path classification (decides which rules fire here).
    pub ctx: &'a FileContext,
    /// Lexer output (for `public-ok` markers).
    pub lexed: &'a Lexed,
    /// Parsed tree.
    pub ast: &'a ast::File,
}

/// Per-file engine output.
#[derive(Debug, Default)]
pub(crate) struct FileTaint {
    /// Raw findings for R1/R4/R6/R7/R8 (marker suppression happens
    /// upstream).
    pub raw: Vec<RawFinding>,
    /// Lines of `public-ok` markers that actually declassified a binding.
    pub used_public_ok: HashSet<usize>,
}

/// Runs the taint engine over a set of files: collects non-test functions,
/// iterates summaries for globally-unique function names to a fixpoint,
/// then re-evaluates every function collecting findings. Output is indexed
/// like `files`.
pub(crate) fn analyze(files: &[TaintFile<'_>]) -> Vec<FileTaint> {
    // Collect (file index, fn) for every non-test function with a body,
    // and count name occurrences: only globally-unique names get
    // summaries, so `new`/`fmt`/`stats` collisions cannot smear taint
    // across unrelated types.
    let mut fns: Vec<(usize, &FnItem)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        collect_fns(&f.ast.items, fi, &mut fns);
    }
    let mut name_count: HashMap<&str, usize> = HashMap::new();
    for (_, f) in &fns {
        *name_count.entry(f.name.as_str()).or_insert(0) += 1;
    }
    let unique: Vec<&(usize, &FnItem)> = fns
        .iter()
        .filter(|(_, f)| name_count.get(f.name.as_str()) == Some(&1) && !f.name.is_empty())
        .collect();

    let mut summaries: HashMap<String, FnSummary> = HashMap::new();
    for _round in 0..20 {
        let mut changed = false;
        for (fi, f) in &unique {
            let mut ev = Eval::new(&files[*fi], &summaries, f.params.len(), false);
            let result = ev.eval_fn(f);
            let next = FnSummary {
                returns_taint: result & SOURCE != 0,
                param_to_return: (0..f.params.len())
                    .map(|i| result & param_bit(i) != 0)
                    .collect(),
                param_to_sink: ev.sink_hits,
            };
            if summaries.get(&f.name) != Some(&next) {
                summaries.insert(f.name.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Findings pass: every non-test function, unique-named or not.
    let mut out: Vec<FileTaint> = files.iter().map(|_| FileTaint::default()).collect();
    for (fi, f) in &fns {
        let mut ev = Eval::new(&files[*fi], &summaries, f.params.len(), true);
        ev.eval_fn(f);
        let slot = &mut out[*fi];
        slot.raw.extend(ev.findings);
        slot.used_public_ok.extend(ev.used_public_ok);
    }
    // Loop bodies are evaluated twice; drop duplicate findings.
    for slot in &mut out {
        let mut seen: HashSet<(&'static str, usize, String)> = HashSet::new();
        slot.raw
            .retain(|r| seen.insert((r.finding.rule, r.finding.line, r.finding.message.clone())));
    }
    out
}

/// Walks an item tree collecting non-test functions that have bodies.
fn collect_fns<'a>(items: &'a [Item], fi: usize, out: &mut Vec<(usize, &'a FnItem)>) {
    for item in items {
        if item.is_test {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(f) => {
                if f.body.is_some() {
                    out.push((fi, f));
                }
            }
            ItemKind::Mod(sub) | ItemKind::Impl(sub) => collect_fns(sub, fi, out),
            ItemKind::Other => {}
        }
    }
}

struct Eval<'a> {
    file: &'a TaintFile<'a>,
    summaries: &'a HashMap<String, FnSummary>,
    env: HashMap<String, u64>,
    collect: bool,
    findings: Vec<RawFinding>,
    used_public_ok: HashSet<usize>,
    sink_hits: Vec<Option<SinkKind>>,
    return_taint: u64,
    nparams: usize,
}

impl<'a> Eval<'a> {
    fn new(
        file: &'a TaintFile<'a>,
        summaries: &'a HashMap<String, FnSummary>,
        nparams: usize,
        collect: bool,
    ) -> Self {
        Eval {
            file,
            summaries,
            env: HashMap::new(),
            collect,
            findings: Vec::new(),
            used_public_ok: HashSet::new(),
            sink_hits: vec![None; nparams],
            return_taint: 0,
            nparams,
        }
    }

    fn eval_fn(&mut self, f: &FnItem) -> u64 {
        for (i, p) in f.params.iter().enumerate() {
            self.bind_pat(p, param_bit(i));
        }
        let tail = match &f.body {
            Some(b) => self.eval_block(b),
            None => 0,
        };
        tail | self.return_taint
    }

    fn push(
        &mut self,
        rule: &'static str,
        line: usize,
        message: String,
        suppressible: Option<MarkerKind>,
    ) {
        if !self.collect {
            return;
        }
        self.findings.push(RawFinding {
            finding: Finding {
                rule,
                file: self.file.ctx.rel_path.clone(),
                line,
                message,
            },
            suppressible,
        });
    }

    fn bind_pat(&mut self, pat: &Pat, taint: u64) {
        for b in &pat.bindings {
            self.env.insert(b.clone(), taint);
        }
    }

    /// A `// lint: public-ok(...)` marker covering `line` (on it or up to
    /// two lines above), if any.
    fn public_ok_marker(&self, line: usize) -> Option<usize> {
        self.file
            .lexed
            .markers
            .iter()
            .find(|m| m.kind == MarkerKind::PublicOk && m.line <= line && line - m.line <= 2)
            .map(|m| m.line)
    }

    /// Records taint reaching a sink: caller-parameter bits become summary
    /// sink entries (the transitive half of R7); a `SOURCE` bit is a local
    /// leak the caller reports (R1/R6/R7 with their own messages).
    fn note_sink(&mut self, taint: u64, kind: SinkKind) {
        for i in 0..self.nparams {
            if taint & param_bit(i) != 0 && self.sink_hits[i].is_none() {
                self.sink_hits[i] = Some(kind);
            }
        }
    }

    fn eval_block(&mut self, block: &Block) -> u64 {
        let mut last = 0;
        for stmt in &block.stmts {
            last = match stmt {
                Stmt::Let {
                    pat,
                    init,
                    else_block,
                    line,
                } => {
                    let mut t = match init {
                        Some(e) => self.eval_expr(e),
                        None => 0,
                    };
                    if t != 0 {
                        if let Some(mline) = self.public_ok_marker(*line) {
                            self.used_public_ok.insert(mline);
                            t = 0;
                        }
                    }
                    self.bind_pat(pat, t);
                    if let Some(eb) = else_block {
                        self.eval_block(eb);
                    }
                    0
                }
                Stmt::Expr { expr, has_semi } => {
                    let t = self.eval_expr(expr);
                    if *has_semi {
                        0
                    } else {
                        t
                    }
                }
                Stmt::Item(item) => {
                    // Nested functions are linted in place (their own
                    // parameter space; summary effects stay local).
                    if self.collect && !item.is_test {
                        if let ItemKind::Fn(f) = &item.kind {
                            let mut ev = Eval::new(self.file, self.summaries, f.params.len(), true);
                            ev.eval_fn(f);
                            self.findings.extend(ev.findings);
                            self.used_public_ok.extend(ev.used_public_ok);
                        }
                    }
                    0
                }
            };
        }
        last
    }

    /// Evaluates argument expressions; bare closure arguments have their
    /// parameters bound to `closure_bind` (the receiver's taint for
    /// unknown iterator-style methods, 0 elsewhere).
    fn eval_args(&mut self, args: &[Expr], closure_bind: u64) -> Vec<u64> {
        args.iter()
            .map(|a| match a {
                Expr::Closure { params, body, .. } => self.eval_closure(params, body, closure_bind),
                _ => self.eval_expr(a),
            })
            .collect()
    }

    fn eval_closure(&mut self, params: &[Pat], body: &Expr, bind: u64) -> u64 {
        for p in params {
            self.bind_pat(p, bind);
        }
        self.eval_expr(body)
    }

    /// R4: control flow must not depend on unopened share material.
    fn check_branch(&mut self, taint: u64, line: usize, what: &str) {
        if self.file.ctx.hot_path && taint & SOURCE != 0 {
            self.push(
                "no-secret-branch",
                line,
                format!(
                    "`{what}` depends on unopened share material; protocol \
                     control flow must be input-independent"
                ),
                None,
            );
        }
    }

    /// Applies a callee summary at a call site: returns the result taint
    /// and raises R7 when a share-tainted argument reaches a sink inside.
    fn apply_summary(&mut self, name: &str, sum: &FnSummary, vals: &[u64], line: usize) -> u64 {
        let mut out = if sum.returns_taint { SOURCE } else { 0 };
        for (i, t) in vals.iter().enumerate() {
            if sum.param_to_return.get(i).copied().unwrap_or(false) {
                out |= t;
            }
            if let Some(kind) = sum.param_to_sink.get(i).copied().flatten() {
                self.note_sink(*t, kind);
                if self.file.ctx.secret_crate && t & SOURCE != 0 {
                    self.push(
                        "no-taint-laundering",
                        line,
                        format!(
                            "share-tainted argument {i} of `{name}` reaches a \
                             {} inside the callee; taint must not be laundered \
                             through function boundaries",
                            kind.describe()
                        ),
                        None,
                    );
                }
            }
        }
        out
    }

    /// Shared ladder for calls and method calls once the callee name and
    /// the receiver taint (0 for free calls) are known. Returns `None`
    /// when the name is unknown (caller falls back to union semantics).
    fn eval_named_call(
        &mut self,
        name: &str,
        recv_taint: u64,
        has_recv: bool,
        args: &[Expr],
        line: usize,
    ) -> Option<u64> {
        if SHARE_APIS.contains(&name) {
            self.eval_args(args, 0);
            return Some(SOURCE);
        }
        if is_public_size(name) {
            self.eval_args(args, 0);
            return Some(0);
        }
        if is_sink_name(name) {
            let ts = self.eval_args(args, 0);
            let union: u64 = ts.iter().fold(0, |a, t| a | t);
            self.note_sink(union | recv_taint, SinkKind::Recorder);
            if self.file.ctx.secret_crate && union & SOURCE != 0 {
                self.push(
                    "obs-no-secret-args",
                    line,
                    format!(
                        "recorder sink `{name}` receives share-tainted data; \
                         only public accounting quantities may be recorded"
                    ),
                    None,
                );
            }
            return Some(0);
        }
        if is_declassifier(name) {
            self.eval_args(args, 0);
            return Some(0);
        }
        if let Some(sum) = self.summaries.get(name) {
            let ats = self.eval_args(args, 0);
            let vals: Vec<u64> = if has_recv && sum.param_to_return.len() == ats.len() + 1 {
                std::iter::once(recv_taint).chain(ats).collect()
            } else if sum.param_to_return.len() == ats.len() {
                ats
            } else {
                // Arity mismatch (default args can't exist, so this is a
                // mis-resolution): fall back to unknown-call semantics.
                return None;
            };
            return Some(self.apply_summary(name, sum, &vals, line));
        }
        None
    }

    fn eval_expr(&mut self, e: &Expr) -> u64 {
        match e {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    self.env.get(&segs[0]).copied().unwrap_or(0)
                } else {
                    0
                }
            }
            Expr::Str { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => 0,
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segs, .. } = &**callee {
                    let name = segs.last().map(String::as_str).unwrap_or("");
                    if let Some(t) = self.eval_named_call(name, 0, false, args, *line) {
                        return t;
                    }
                    // Unknown free call: conservative pass-through.
                    let base = self.eval_expr(callee);
                    let ats = self.eval_args(args, 0);
                    return base | ats.iter().fold(0, |a, t| a | t);
                }
                let base = self.eval_expr(callee);
                let ats = self.eval_args(args, 0);
                base | ats.iter().fold(0, |a, t| a | t)
            }
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => {
                let r = self.eval_expr(recv);
                if let Some(t) = self.eval_named_call(name, r, true, args, *line) {
                    return t;
                }
                // Unknown method: result carries receiver + argument
                // taint; bare closures see the receiver's element taint
                // (`shares.map(|w| …)`). Only *mutating* container methods
                // push argument taint back into the receiver's root
                // variable (`out.push(tainted)`) — adapters like
                // `.zip(&tainted)` read their argument without storing it.
                let ats = self.eval_args(args, r);
                let union = ats.iter().fold(0, |a, t| a | t);
                if union != 0 && is_mutator(name) {
                    if let Some(root) = root_var(recv) {
                        let entry = self.env.entry(root.to_string()).or_insert(0);
                        *entry |= union;
                    }
                }
                r | union
            }
            Expr::Macro { name, args, line } => {
                let ats = self.eval_args(args, 0);
                let union = ats.iter().fold(0, |a, t| a | t);
                if PRINT_MACROS.contains(&name.as_str()) {
                    self.note_sink(union, SinkKind::Print);
                    if self.file.ctx.secret_crate {
                        self.push(
                            "no-debug-print",
                            *line,
                            format!(
                                "`{name}!` in non-test code of a share-handling \
                                 crate; share material must never reach a console"
                            ),
                            Some(MarkerKind::DebugOk),
                        );
                    }
                }
                if self.file.ctx.secret_crate {
                    if let Some(Expr::Str { value, .. }) = args.first() {
                        for subject in inline_debug_subjects(value) {
                            if self.env.get(&subject).copied().unwrap_or(0) & SOURCE != 0 {
                                self.push(
                                    "no-debug-print",
                                    *line,
                                    format!(
                                        "`{{{subject}:?}}` debug-formats \
                                         share-carrying `{subject}`"
                                    ),
                                    Some(MarkerKind::DebugOk),
                                );
                            }
                        }
                        if value.contains("{:?}") && ats.iter().skip(1).any(|t| t & SOURCE != 0) {
                            self.push(
                                "no-debug-print",
                                *line,
                                "`{:?}` debug-formats share-tainted data".to_string(),
                                Some(MarkerKind::DebugOk),
                            );
                        }
                    }
                }
                union
            }
            Expr::Field { base, .. } => self.eval_expr(base),
            Expr::Index { base, index, line } => {
                let b = self.eval_expr(base);
                let ix = self.eval_expr(index);
                if self.file.ctx.secret_crate && ix & SOURCE != 0 {
                    self.push(
                        "no-secret-indexing",
                        *line,
                        "share-tainted value used as an index; data-dependent \
                         memory access is a timing channel"
                            .to_string(),
                        None,
                    );
                }
                b | ix
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.eval_expr(expr),
            Expr::Binary { lhs, rhs, .. } => self.eval_expr(lhs) | self.eval_expr(rhs),
            Expr::Assign {
                lhs, rhs, compound, ..
            } => {
                let r = self.eval_expr(rhs);
                self.eval_expr(lhs); // index-taint findings on the target
                match &**lhs {
                    Expr::Path { segs, .. } if segs.len() == 1 && !compound => {
                        self.env.insert(segs[0].clone(), r);
                    }
                    _ => {
                        if let Some(root) = root_var(lhs) {
                            let entry = self.env.entry(root.to_string()).or_insert(0);
                            *entry |= r;
                        }
                    }
                }
                0
            }
            Expr::Range { lo, hi, .. } => {
                let l = lo.as_ref().map(|e| self.eval_expr(e)).unwrap_or(0);
                let h = hi.as_ref().map(|e| self.eval_expr(e)).unwrap_or(0);
                l | h
            }
            Expr::If {
                cond,
                pat,
                then,
                alt,
                line,
            } => {
                let ct = self.eval_expr(cond);
                self.check_branch(ct, *line, "if");
                if let Some(p) = pat {
                    self.bind_pat(p, ct);
                }
                let tt = self.eval_block(then);
                let at = alt.as_ref().map(|a| self.eval_expr(a)).unwrap_or(0);
                tt | at
            }
            Expr::Match {
                scrutinee,
                arms,
                line,
            } => {
                let st = self.eval_expr(scrutinee);
                self.check_branch(st, *line, "match");
                let mut out = 0;
                for Arm { pat, guard, body } in arms {
                    self.bind_pat(pat, st);
                    if let Some(g) = guard {
                        let gt = self.eval_expr(g);
                        self.check_branch(gt, g.line(), "match guard");
                    }
                    out |= self.eval_expr(body);
                }
                out
            }
            Expr::While {
                cond,
                pat,
                body,
                line,
            } => {
                let mut out = 0;
                for _ in 0..2 {
                    let ct = self.eval_expr(cond);
                    self.check_branch(ct, *line, "while");
                    if let Some(p) = pat {
                        self.bind_pat(p, ct);
                    }
                    out |= self.eval_block(body);
                }
                out
            }
            Expr::For {
                pat,
                iter,
                body,
                line,
            } => {
                let it = self.eval_expr(iter);
                if self.file.ctx.secret_crate
                    && it & SOURCE != 0
                    && matches!(&**iter, Expr::Range { .. })
                {
                    self.push(
                        "no-secret-indexing",
                        *line,
                        "share-tainted loop bound; the trip count is a timing \
                         channel"
                            .to_string(),
                        None,
                    );
                }
                let mut out = 0;
                for _ in 0..2 {
                    self.bind_pat(pat, it);
                    out |= self.eval_block(body);
                }
                out
            }
            Expr::Loop { body, .. } => {
                let mut out = 0;
                for _ in 0..2 {
                    out |= self.eval_block(body);
                }
                out
            }
            Expr::Closure { params, body, .. } => self.eval_closure(params, body, 0),
            Expr::Block { block, .. } => self.eval_block(block),
            Expr::Tuple { items, .. } | Expr::StructLit { fields: items, .. } => {
                items.iter().fold(0, |a, e| a | self.eval_expr(e))
            }
            Expr::Ret { expr, .. } => {
                if let Some(e) = expr {
                    let t = self.eval_expr(e);
                    self.return_taint |= t;
                }
                0
            }
        }
    }
}

/// The root variable a place expression ultimately refers to
/// (`self.buf[i]` → `self`), for mutation-taint propagation.
fn root_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => Some(&segs[0]),
        Expr::Field { base, .. } | Expr::Index { base, .. } => root_var(base),
        Expr::Method { recv, .. } => root_var(recv),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => root_var(expr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel: &str, src: &str) -> Vec<RawFinding> {
        let ctx = FileContext::classify(rel);
        let lexed = lex(src);
        let tree = ast::parse(&lexed.tokens);
        let files = [TaintFile {
            ctx: &ctx,
            lexed: &lexed,
            ast: &tree,
        }];
        analyze(&files).remove(0).raw
    }

    fn rules(findings: &[RawFinding]) -> Vec<&'static str> {
        findings.iter().map(|r| r.finding.rule).collect()
    }

    #[test]
    fn interprocedural_return_taint_reaches_a_branch() {
        // The share is created in a helper; the caller's RHS never
        // mentions a tainted name.
        let src = r#"
            fn derive_mask(rng: &mut R) -> u64 {
                let share = additive_shares(rng, 2, 7);
                share[0]
            }
            pub fn branchy(rng: &mut R) -> u64 {
                let mask = derive_mask(rng);
                if mask > 0 { 1 } else { 0 }
            }
        "#;
        let f = run("crates/mpc/src/fedsac.rs", src);
        assert!(
            rules(&f).contains(&"no-secret-branch"),
            "summary must carry taint through derive_mask: {f:?}"
        );
    }

    #[test]
    fn laundering_through_two_hops_is_r7() {
        let src = r#"
            fn tally(v: u64) {
                fedroad_obs::counter_add("fedsac.words", v);
            }
            fn relay(v: u64) {
                tally(v);
            }
            pub fn leak(rng: &mut R) {
                let share = additive_shares(rng, 2, 7);
                relay(share[0]);
            }
        "#;
        let f = run("crates/mpc/src/fedsac.rs", src);
        assert!(
            rules(&f).contains(&"no-taint-laundering"),
            "param→sink summaries must compose transitively: {f:?}"
        );
        // No spurious R6: `v` inside tally is parameter-tainted, not
        // share-tainted.
        assert!(!rules(&f).contains(&"obs-no-secret-args"), "{f:?}");
    }

    #[test]
    fn tainted_index_and_loop_bound_are_r8() {
        let src = r#"
            pub fn duel(rng: &mut R, table: &[u64]) -> u64 {
                let share = additive_shares(rng, 2, 7);
                let slot = table[share[0] as usize];
                let mut acc = slot;
                for i in 0..share[1] {
                    acc ^= table[i as usize];
                }
                acc
            }
        "#;
        let f = run("crates/core/src/spsp.rs", src);
        let r8 = rules(&f)
            .iter()
            .filter(|r| **r == "no-secret-indexing")
            .count();
        assert!(r8 >= 2, "tainted index and Range bound: {f:?}");
    }

    #[test]
    fn declassifiers_and_public_sizes_clear_taint() {
        let src = r#"
            pub fn routing(rng: &mut R) -> u64 {
                let share = additive_shares(rng, 2, 7);
                let opened = open_word(&share);
                if opened > 0 { return 1; }
                for i in 0..share.len() { drop(i); }
                0
            }
        "#;
        let f = run("crates/mpc/src/compare.rs", src);
        assert!(f.is_empty(), "open_word and len() are public: {f:?}");
    }

    #[test]
    fn public_ok_marker_declassifies_the_binding() {
        let src = "pub fn opened(links: &Links) -> u64 {\n\
                   let recv = links.exchange(1u64);\n\
                   // lint: public-ok(fold of all parties' words is the reveal)\n\
                   let bit = recv.iter().fold(0u64, |acc, w| acc ^ w);\n\
                   if bit == 1 { 1 } else { 0 }\n\
                   }\n";
        let ctx = FileContext::classify("crates/mpc/src/threaded.rs");
        let lexed = lex(src);
        let tree = ast::parse(&lexed.tokens);
        let files = [TaintFile {
            ctx: &ctx,
            lexed: &lexed,
            ast: &tree,
        }];
        let out = analyze(&files).remove(0);
        assert!(
            out.raw.is_empty(),
            "declassified bit is public: {:?}",
            out.raw
        );
        assert_eq!(
            out.used_public_ok.into_iter().collect::<Vec<_>>(),
            vec![3],
            "the marker must be recorded as used"
        );
    }

    #[test]
    fn closure_params_see_receiver_taint() {
        let src = r#"
            pub fn fold_leak(links: &Links) -> u64 {
                let recv = links.exchange(1u64);
                let picked = recv.iter().map(|w| if w > 2 { 1 } else { 0 }).sum::<u64>();
                picked
            }
        "#;
        let f = run("crates/mpc/src/threaded.rs", src);
        assert!(
            rules(&f).contains(&"no-secret-branch"),
            "closure over tainted elements branches on them: {f:?}"
        );
    }

    #[test]
    fn thread_handles_of_clean_closures_stay_clean() {
        let src = r#"
            fn party_main(links: &Links) -> u64 {
                let recv = links.exchange(1u64);
                // lint: public-ok(masked open)
                let bit = recv.iter().fold(0u64, |acc, w| acc ^ w);
                bit
            }
            pub fn run(all_links: Vec<Links>) -> bool {
                let mut bits = Vec::new();
                for links in all_links.iter() {
                    let h = thread::spawn(move || party_main(links));
                    bits.push(h.join());
                }
                if bits.is_empty() { return false; }
                true
            }
        "#;
        let f = run("crates/mpc/src/threaded.rs", src);
        assert!(
            f.is_empty(),
            "declassified protocol output is public: {f:?}"
        );
    }
}
