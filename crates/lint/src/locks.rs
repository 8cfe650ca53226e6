//! Interprocedural lock-set analysis over the [`crate::ast`] tree — the
//! engine behind concurrency rules R10–R13.
//!
//! The abstract domain is the multiset of *held lock guards*, keyed by
//! lock identity (`<crate>::<field-or-binding-name>`, lowercased — e.g.
//! the scheduler's `Mutex<State>` is `mpc::state` from every call site).
//! Guard lifetime follows Rust's: a guard is born at `.lock()`, named by
//! the `let` that binds it, moved out by passing it *by value* to any
//! call (`drop(st)`, `fire_round(st)`, `cv.wait(st)`), swept at the end
//! of the statement when it was never bound (temporary drop), and
//! released when its binding's block scope ends.
//!
//! Per-function summaries — locks transitively acquired, whether the
//! function can block, and whether it returns a live guard — are
//! iterated to a fixpoint exactly like [`crate::taint`]: only globally
//! unique function names get summaries, so `new`/`drop` collisions
//! cannot smear lock-sets across unrelated types. A second pass over
//! *every* function (tests excluded) emits findings and the global
//! lock-acquisition edges that rule R10 checks for cycles.
//!
//! Soundness caveats (documented in DESIGN.md §11): branches are
//! evaluated in isolation and their effects on the held set are
//! discarded at the join, so a guard dropped on only one path is still
//! considered held afterwards (conservative — may need a `lock-ok`);
//! guards stored into containers or returned inside tuples are lost
//! (under-approximate); `static`/`thread_local!` initialisers are opaque
//! items, invisible to R13.

use crate::ast::{self, Arm, Block, Expr, FnItem, Item, ItemKind, Stmt};
use crate::lexer::MarkerKind;
use crate::rules::{FileContext, Finding, RawFinding, LOCK_TYPES};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One file's worth of input to the lock engine.
pub(crate) struct LockFile<'a> {
    /// Path taxonomy (used for the crate prefix of lock keys).
    pub ctx: &'a FileContext,
    /// The parsed tree.
    pub ast: &'a ast::File,
}

/// Per-file output: raw findings for [`crate::rules::apply_markers`].
#[derive(Debug, Default)]
pub(crate) struct FileLocks {
    /// R10–R13 findings, all suppressible by `// lint: lock-ok(…)`.
    pub raw: Vec<RawFinding>,
}

/// What one function does to the lock world, from its caller's view.
#[derive(Clone, Debug, Default, PartialEq)]
struct LockSummary {
    /// Lock keys this function (transitively) acquires.
    acquires: BTreeSet<String>,
    /// A human description of the first blocking operation reachable
    /// from this function, if any (`None` = cannot block).
    blocking: Option<String>,
    /// The key of the live guard this function returns, if any
    /// (`lock_state`-style helpers and guard-in/guard-out round hooks).
    returns_guard: Option<String>,
}

/// One held guard: its lock key and the binding that owns it (`None`
/// for a temporary that dies at the end of the statement).
#[derive(Clone, Debug)]
struct Held {
    key: String,
    var: Option<String>,
}

/// One observed acquisition order: `to` acquired while `from` was held.
#[derive(Clone, Debug)]
struct Edge {
    from: String,
    to: String,
    fi: usize,
    line: usize,
}

/// Atomic RMW/load/store methods whose `Ordering` argument R13 inspects.
const ATOMIC_OPS: [&str; 10] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Classifies a method name as a blocking operation for R11. `join` only
/// counts with zero arguments — `PathBuf::join(component)` and friends
/// take one.
fn blocking_desc(name: &str, nargs: usize) -> Option<&'static str> {
    match name {
        "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while" => {
            Some("a Condvar/barrier wait")
        }
        "send" | "send_timeout" => Some("a channel send"),
        "recv" | "recv_timeout" => Some("a channel recv"),
        "join" if nargs == 0 => Some("a thread join"),
        "execute_round" => Some("a round-executing backend call"),
        _ => None,
    }
}

/// The Condvar wait family: the first argument is the guard, which the
/// wait releases, blocks on, and re-acquires.
fn condvar_wait_name(name: &str) -> bool {
    matches!(
        name,
        "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while"
    )
}

/// `wait_while`-style waits re-check the predicate internally, so they
/// are exempt from R12 even outside a loop.
fn wait_rechecks_predicate(name: &str) -> bool {
    matches!(name, "wait_while" | "wait_timeout_while")
}

/// Guard adapters whose result is the same guard: `.lock().unwrap()`,
/// `.unwrap_or_else(|p| p.into_inner())` (poison recovery), `.expect(…)`.
fn guard_passthrough(name: &str) -> bool {
    matches!(name, "unwrap" | "expect" | "unwrap_or_else")
}

/// Runs the lock engine over a set of files. Output is indexed like
/// `files`.
pub(crate) fn analyze(files: &[LockFile<'_>]) -> Vec<FileLocks> {
    let mut fns: Vec<(usize, &FnItem)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        collect_fns(&f.ast.items, fi, &mut fns);
    }
    let mut name_count: HashMap<&str, usize> = HashMap::new();
    for (_, f) in &fns {
        *name_count.entry(f.name.as_str()).or_insert(0) += 1;
    }

    // Fixpoint over globally-unique names, as in taint::analyze.
    let mut summaries: HashMap<String, LockSummary> = HashMap::new();
    for _round in 0..20 {
        let mut changed = false;
        for (fi, f) in &fns {
            if name_count.get(f.name.as_str()) != Some(&1) {
                continue;
            }
            let mut ev = Eval::new(&files[*fi], *fi, &summaries, false);
            let tail = ev.eval_fn(f);
            let next = LockSummary {
                acquires: ev.acquires,
                blocking: ev.blocking,
                returns_guard: tail.or(ev.return_guard),
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

    // Findings pass over every function, plus global edge collection.
    let mut out: Vec<FileLocks> = files.iter().map(|_| FileLocks::default()).collect();
    let mut edges: Vec<Edge> = Vec::new();
    for (fi, f) in &fns {
        let mut ev = Eval::new(&files[*fi], *fi, &summaries, true);
        ev.eval_fn(f);
        out[*fi].raw.extend(ev.findings);
        edges.append(&mut ev.edges);
    }

    // R10: an edge is bad iff it closes a cycle in the acquisition graph
    // (including the self-loop of re-locking a held, non-reentrant lock).
    let mut adj: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for e in &edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    for e in &edges {
        if e.from == e.to {
            push_raw(
                &mut out[e.fi].raw,
                "lock-order-cycle",
                &files[e.fi].ctx.rel_path,
                e.line,
                format!(
                    "`{}` is acquired while already held; std::sync::Mutex is \
                     not re-entrant, so this deadlocks at runtime",
                    e.to
                ),
            );
        } else if reaches(&adj, &e.to, &e.from) {
            push_raw(
                &mut out[e.fi].raw,
                "lock-order-cycle",
                &files[e.fi].ctx.rel_path,
                e.line,
                format!(
                    "acquiring `{}` while holding `{}` closes a lock-order \
                     cycle (`{}` is acquired before `{}` on another path); \
                     pick one global acquisition order",
                    e.to, e.from, e.to, e.from
                ),
            );
        }
    }

    // Branch bodies can surface the same site twice; drop duplicates.
    for slot in &mut out {
        let mut seen: HashSet<(&'static str, usize, String)> = HashSet::new();
        slot.raw
            .retain(|r| seen.insert((r.finding.rule, r.finding.line, r.finding.message.clone())));
        slot.raw.sort_by_key(|r| (r.finding.line, r.finding.rule));
    }
    out
}

/// DFS reachability in the acquisition graph.
fn reaches(adj: &HashMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen: HashSet<&str> = HashSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

fn push_raw(
    raw: &mut Vec<RawFinding>,
    rule: &'static str,
    file: &str,
    line: usize,
    message: String,
) {
    raw.push(RawFinding {
        finding: Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        },
        suppressible: Some(MarkerKind::LockOk),
    });
}

/// Collects every non-test function with a body (same shape as taint's).
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
            ItemKind::Mod(items) | ItemKind::Impl(items) => collect_fns(items, fi, out),
            ItemKind::Other => {}
        }
    }
}

/// The abstract evaluator: walks one function's body tracking held
/// guards, recording acquisition edges, and (when `collect`) emitting
/// R11–R13 findings.
struct Eval<'a> {
    file: &'a LockFile<'a>,
    fi: usize,
    summaries: &'a HashMap<String, LockSummary>,
    /// Guard bindings in scope: variable name → lock key.
    env: HashMap<String, String>,
    /// Parameters of type `Mutex<T>` / `&Mutex<T>`: variable → lock key,
    /// so `m.lock()` inside `lock_state(m: &Mutex<State>)` keys on the
    /// *lock's* type, not the parameter name.
    mutex_params: HashMap<String, String>,
    held: Vec<Held>,
    edges: Vec<Edge>,
    acquires: BTreeSet<String>,
    blocking: Option<String>,
    return_guard: Option<String>,
    loop_depth: usize,
    collect: bool,
    findings: Vec<RawFinding>,
    crate_prefix: String,
}

impl<'a> Eval<'a> {
    fn new(
        file: &'a LockFile<'a>,
        fi: usize,
        summaries: &'a HashMap<String, LockSummary>,
        collect: bool,
    ) -> Eval<'a> {
        let crate_prefix = file
            .ctx
            .rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("fedroad")
            .to_string();
        Eval {
            file,
            fi,
            summaries,
            env: HashMap::new(),
            mutex_params: HashMap::new(),
            held: Vec::new(),
            edges: Vec::new(),
            acquires: BTreeSet::new(),
            blocking: None,
            return_guard: None,
            loop_depth: 0,
            collect,
            findings: Vec::new(),
            crate_prefix,
        }
    }

    fn prefixed(&self, name: &str) -> String {
        format!("{}::{}", self.crate_prefix, name.to_lowercase())
    }

    /// Seeds the environment from the signature — `MutexGuard`-typed
    /// parameters arrive *held* (the `fire_round(&self, st: MutexGuard<
    /// State>)` idiom); `Mutex`-typed parameters map the binding to the
    /// lock key of their inner type — then evaluates the body. Returns
    /// the tail guard, if the body's value is one.
    fn eval_fn(&mut self, f: &FnItem) -> Option<String> {
        for (i, pat) in f.params.iter().enumerate() {
            let Some(tys) = f.param_types.get(i) else {
                continue;
            };
            if let Some(inner) = type_arg_after(tys, LOCK_TYPES[1]) {
                // MutexGuard<…, T>: the guard is live on entry.
                let key = self.prefixed(&inner);
                let var = pat.bindings.first().cloned();
                if let Some(v) = &var {
                    self.env.insert(v.clone(), key.clone());
                }
                self.held.push(Held { key, var });
            } else if !tys.iter().any(|t| t.as_str() == LOCK_TYPES[1]) {
                if let Some(inner) = type_arg_after(tys, LOCK_TYPES[0]) {
                    // Mutex<T> (possibly behind Arc/&): a lock, not a guard.
                    for b in &pat.bindings {
                        self.mutex_params.insert(b.clone(), self.prefixed(&inner));
                    }
                }
            }
        }
        match &f.body {
            Some(b) => self.eval_block(b),
            None => None,
        }
    }

    /// Evaluates a block with scope semantics: guards bound to variables
    /// introduced inside the block are released at its end (the block's
    /// own tail guard survives, unnamed, for the caller to bind).
    fn eval_block(&mut self, block: &Block) -> Option<String> {
        let saved_env = self.env.clone();
        let mut tail: Option<String> = None;
        let n = block.stmts.len();
        for (si, stmt) in block.stmts.iter().enumerate() {
            match stmt {
                Stmt::Let {
                    pat,
                    init,
                    else_block,
                    ..
                } => {
                    let mut moved_rename = false;
                    if let Some(Expr::Path { segs, .. }) = init {
                        // `let b = a;` where `a` is a guard: a move-rename.
                        if segs.len() == 1 {
                            if let Some(key) = self.env.remove(&segs[0]) {
                                if let [var] = pat.bindings.as_slice() {
                                    for h in self.held.iter_mut() {
                                        if h.var.as_deref() == Some(segs[0].as_str()) {
                                            h.var = Some(var.clone());
                                        }
                                    }
                                    self.env.insert(var.clone(), key);
                                } else {
                                    self.remove_held_var(&segs[0]);
                                }
                                moved_rename = true;
                            }
                        }
                    }
                    if !moved_rename {
                        let v = init.as_ref().and_then(|e| self.eval_expr(e));
                        if let (Some(key), [var]) = (v, pat.bindings.as_slice()) {
                            self.name_unnamed(&key, var);
                            self.env.insert(var.clone(), key);
                        }
                    }
                    if let Some(eb) = else_block {
                        self.eval_block(eb);
                    }
                    self.sweep_unnamed();
                }
                Stmt::Expr { expr, has_semi } => {
                    let v = self.eval_expr(expr);
                    if si + 1 == n && !*has_semi {
                        tail = v;
                    } else {
                        // Statement end: unbound temporaries drop here.
                        self.sweep_unnamed();
                    }
                }
                Stmt::Item(item) => {
                    if self.collect && !item.is_test {
                        if let ItemKind::Fn(f) = &item.kind {
                            let mut ev = Eval::new(self.file, self.fi, self.summaries, true);
                            ev.eval_fn(f);
                            self.findings.append(&mut ev.findings);
                            self.edges.append(&mut ev.edges);
                        }
                    }
                }
            }
        }
        // Scope exit: release guards bound to block-local variables. If
        // the block's tail value is one of them, keep a single held entry
        // alive (unnamed) for the caller.
        let locals: Vec<String> = self
            .env
            .keys()
            .filter(|k| !saved_env.contains_key(*k))
            .cloned()
            .collect();
        let mut tail_unclaimed = tail.is_some();
        for var in locals {
            self.env.remove(&var);
            let mut i = 0;
            while i < self.held.len() {
                if self.held[i].var.as_deref() == Some(var.as_str()) {
                    if tail_unclaimed && tail.as_deref() == Some(self.held[i].key.as_str()) {
                        self.held[i].var = None;
                        tail_unclaimed = false;
                        i += 1;
                    } else {
                        self.held.remove(i);
                    }
                } else {
                    i += 1;
                }
            }
        }
        tail
    }

    /// Evaluates one expression; the value is `Some(lock key)` when the
    /// expression's value is a live guard.
    fn eval_expr(&mut self, e: &Expr) -> Option<String> {
        match e {
            Expr::Path { segs, .. } => {
                if let [seg] = segs.as_slice() {
                    self.env.get(seg).cloned()
                } else {
                    None
                }
            }
            Expr::Str { .. } | Expr::Lit { .. } | Expr::Unknown { .. } => None,
            Expr::Call { callee, args, line } => {
                let vals = self.eval_args(args);
                if let Expr::Path { segs, .. } = &**callee {
                    let name = segs.last().map(String::as_str).unwrap_or("");
                    return self.finish_call(name, args.len(), &vals, *line);
                }
                self.eval_expr(callee);
                None
            }
            Expr::Method {
                recv,
                name,
                args,
                line,
            } => {
                if name == "lock" && args.is_empty() {
                    let key = self.lock_key(recv);
                    self.eval_expr(recv);
                    return Some(self.acquire(key, *line));
                }
                let rv = self.eval_expr(recv);
                if guard_passthrough(name) && rv.is_some() {
                    // Same guard flows through; still walk closure args.
                    for a in args {
                        self.eval_expr(a);
                    }
                    return rv;
                }
                let vals = self.eval_args(args);
                self.check_atomic(name, args, *line);
                if condvar_wait_name(name) && vals.first().is_some_and(Option::is_some) {
                    let key = vals[0].clone().unwrap_or_default();
                    self.condvar_wait(name, &key, *line);
                    self.held.push(Held {
                        key: key.clone(),
                        var: None,
                    });
                    return Some(key);
                }
                self.finish_call(name, args.len(), &vals, *line)
            }
            Expr::Macro { args, .. } => {
                // Macro args (format!/vec!/assert!) borrow, never move.
                for a in args {
                    self.eval_expr(a);
                }
                None
            }
            Expr::Field { base, .. } => {
                self.eval_expr(base);
                None
            }
            Expr::Index { base, index, .. } => {
                self.eval_expr(base);
                self.eval_expr(index);
                None
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.eval_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.eval_expr(lhs);
                self.eval_expr(rhs);
                None
            }
            Expr::Assign {
                lhs, rhs, compound, ..
            } => {
                let v = self.eval_expr(rhs);
                match &**lhs {
                    Expr::Path { segs, .. } if segs.len() == 1 && !*compound => {
                        // `st = cv.wait(st).unwrap…`: rebind the guard (or
                        // drop the old one when the new value is not one).
                        let var = &segs[0];
                        if self.env.get(var) != v.as_ref() {
                            self.env.remove(var);
                            self.remove_held_var(var);
                        }
                        if let Some(key) = v {
                            self.name_unnamed(&key, var);
                            self.env.insert(var.clone(), key);
                        }
                    }
                    other => {
                        self.eval_expr(other);
                    }
                }
                None
            }
            Expr::Range { lo, hi, .. } => {
                if let Some(l) = lo {
                    self.eval_expr(l);
                }
                if let Some(h) = hi {
                    self.eval_expr(h);
                }
                None
            }
            Expr::If {
                cond, then, alt, ..
            } => {
                self.eval_expr(cond);
                let snap = self.snapshot();
                self.eval_block(then);
                self.restore(snap.clone());
                if let Some(a) = alt {
                    self.eval_expr(a);
                    self.restore(snap);
                }
                None
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.eval_expr(scrutinee);
                let snap = self.snapshot();
                for Arm { guard, body, .. } in arms {
                    if let Some(g) = guard {
                        self.eval_expr(g);
                    }
                    self.eval_expr(body);
                    self.restore(snap.clone());
                }
                None
            }
            Expr::While { cond, body, .. } => {
                self.eval_expr(cond);
                let snap = self.snapshot();
                self.loop_depth += 1;
                self.eval_block(body);
                self.loop_depth -= 1;
                self.restore(snap);
                None
            }
            Expr::For { iter, body, .. } => {
                self.eval_expr(iter);
                let snap = self.snapshot();
                self.loop_depth += 1;
                self.eval_block(body);
                self.loop_depth -= 1;
                self.restore(snap);
                None
            }
            Expr::Loop { body, .. } => {
                let snap = self.snapshot();
                self.loop_depth += 1;
                self.eval_block(body);
                self.loop_depth -= 1;
                self.restore(snap);
                None
            }
            Expr::Closure { body, .. } => {
                // The closure may run later (or on another thread): check
                // its body for findings, but discard lock-state effects.
                let snap = self.snapshot();
                self.eval_expr(body);
                self.restore(snap);
                None
            }
            Expr::Block { block, .. } => self.eval_block(block),
            Expr::Tuple { items, .. } | Expr::StructLit { fields: items, .. } => {
                for it in items {
                    self.eval_expr(it);
                }
                None
            }
            Expr::Ret { expr, .. } => {
                if let Some(ex) = expr {
                    let v = self.eval_expr(ex);
                    if let Some(key) = v {
                        if self.return_guard.is_none() {
                            self.return_guard = Some(key);
                        }
                    }
                }
                None
            }
        }
    }

    /// Evaluates call arguments. A bare identifier naming a live guard is
    /// a by-value move: the callee now owns it (`drop(st)`,
    /// `fire_round(st)`, `cv.wait(st)`). `&st` is a borrow, not a move.
    fn eval_args(&mut self, args: &[Expr]) -> Vec<Option<String>> {
        args.iter()
            .map(|a| {
                if let Expr::Path { segs, .. } = a {
                    if let [seg] = segs.as_slice() {
                        if let Some(key) = self.env.remove(seg) {
                            self.remove_held_var(seg);
                            return Some(key);
                        }
                    }
                }
                self.eval_expr(a)
            })
            .collect()
    }

    /// Applies a named (free or method) call after its arguments were
    /// evaluated: interprocedural summary if the name is unique, else the
    /// by-name blocking heuristic.
    fn finish_call(
        &mut self,
        name: &str,
        nargs: usize,
        _vals: &[Option<String>],
        line: usize,
    ) -> Option<String> {
        if let Some(sum) = self.summaries.get(name).cloned() {
            if let Some(desc) = &sum.blocking {
                self.note_blocking(&format!("`{name}` reaches {desc}"), line);
            }
            for m in &sum.acquires {
                for h in &self.held {
                    self.edges.push(Edge {
                        from: h.key.clone(),
                        to: m.clone(),
                        fi: self.fi,
                        line,
                    });
                }
                self.acquires.insert(m.clone());
            }
            if let Some(k) = &sum.returns_guard {
                self.held.push(Held {
                    key: k.clone(),
                    var: None,
                });
                return Some(k.clone());
            }
            return None;
        }
        if let Some(desc) = blocking_desc(name, nargs) {
            self.note_blocking(&format!("`{name}` is {desc}"), line);
        }
        None
    }

    /// Records an acquisition: edges from every held lock, then the new
    /// guard joins the held set (unnamed until a `let` claims it).
    fn acquire(&mut self, key: String, line: usize) -> String {
        for h in &self.held {
            self.edges.push(Edge {
                from: h.key.clone(),
                to: key.clone(),
                fi: self.fi,
                line,
            });
        }
        self.acquires.insert(key.clone());
        self.held.push(Held {
            key: key.clone(),
            var: None,
        });
        key
    }

    /// R11 when a blocking operation runs with any guard held; always
    /// propagates blocking-ness into this function's summary.
    fn note_blocking(&mut self, desc: &str, line: usize) {
        if self.blocking.is_none() {
            self.blocking = Some(desc.to_string());
        }
        if self.collect && !self.held.is_empty() {
            let held: Vec<&str> = self.held.iter().map(|h| h.key.as_str()).collect();
            push_raw(
                &mut self.findings,
                "no-blocking-while-locked",
                &self.file.ctx.rel_path,
                line,
                format!(
                    "{desc} while holding `{}`; every thread needing that \
                     lock stalls until the blocked call returns — drop the \
                     guard first",
                    held.join("`, `")
                ),
            );
        }
    }

    /// Condvar wait semantics: the guard's own lock is released for the
    /// wait (so it is *not* an R11 conflict), but any *other* held guard
    /// is; outside a loop the wakeup predicate is unchecked (R12).
    fn condvar_wait(&mut self, name: &str, key: &str, line: usize) {
        if self.blocking.is_none() {
            self.blocking = Some("a Condvar wait".to_string());
        }
        if !self.collect {
            return;
        }
        let others: Vec<&str> = self
            .held
            .iter()
            .map(|h| h.key.as_str())
            .filter(|k| *k != key)
            .collect();
        if !others.is_empty() {
            push_raw(
                &mut self.findings,
                "no-blocking-while-locked",
                &self.file.ctx.rel_path,
                line,
                format!(
                    "`{name}` releases only `{key}` for the wait but `{}` \
                     stays locked across it; drop the other guard(s) first",
                    others.join("`, `")
                ),
            );
        }
        if self.loop_depth == 0 && !wait_rechecks_predicate(name) {
            push_raw(
                &mut self.findings,
                "condvar-wait-in-loop",
                &self.file.ctx.rel_path,
                line,
                format!(
                    "`{name}` outside a loop: Condvar wakeups are spurious \
                     and racy, so the predicate must be re-checked under a \
                     `while`/`loop` (or use `wait_while`)"
                ),
            );
        }
    }

    /// R13: `Ordering::Relaxed` on an atomic op. Relaxed orders nothing
    /// but the cell itself, so an atomic used as a readiness/publication
    /// gate needs Acquire/Release (or a `lock-ok` explaining why not).
    fn check_atomic(&mut self, name: &str, args: &[Expr], line: usize) {
        if !self.collect || !ATOMIC_OPS.contains(&name) {
            return;
        }
        for a in args {
            let Expr::Path { segs, .. } = a else {
                continue;
            };
            let relaxed = match segs.as_slice() {
                [one] => one == "Relaxed",
                [.., parent, last] => last == "Relaxed" && parent == "Ordering",
                _ => false,
            };
            if relaxed {
                push_raw(
                    &mut self.findings,
                    "atomic-gate-ordering",
                    &self.file.ctx.rel_path,
                    line,
                    format!(
                        "`{name}(…, Ordering::Relaxed)`: Relaxed does not \
                         order surrounding writes, so data published before \
                         the gate flips may not be visible to the reader; \
                         use Acquire/Release or justify with `lock-ok`"
                    ),
                );
                break;
            }
        }
    }

    /// The lock identity a `.lock()` receiver names: the field (or
    /// binding) that owns the mutex, crate-prefixed and lowercased.
    fn lock_key(&self, e: &Expr) -> String {
        match e {
            Expr::Path { segs, .. } => {
                if let [seg] = segs.as_slice() {
                    if let Some(k) = self.mutex_params.get(seg) {
                        return k.clone();
                    }
                }
                self.prefixed(segs.last().map(String::as_str).unwrap_or("lock"))
            }
            Expr::Field { name, .. } => self.prefixed(name),
            Expr::Method { recv, .. }
            | Expr::Index { base: recv, .. }
            | Expr::Unary { expr: recv, .. }
            | Expr::Cast { expr: recv, .. }
            | Expr::Call { callee: recv, .. } => self.lock_key(recv),
            _ => self.prefixed("lock"),
        }
    }

    /// Names the most recent unnamed held entry with this key (a fresh
    /// acquisition being claimed by its `let`).
    fn name_unnamed(&mut self, key: &str, var: &str) {
        if let Some(h) = self
            .held
            .iter_mut()
            .rev()
            .find(|h| h.var.is_none() && h.key == key)
        {
            h.var = Some(var.to_string());
        }
    }

    /// Drops all unnamed held entries (temporaries at statement end).
    fn sweep_unnamed(&mut self) {
        self.held.retain(|h| h.var.is_some());
    }

    /// Removes held entries owned by `var` (its guard was moved/dropped).
    fn remove_held_var(&mut self, var: &str) {
        self.held.retain(|h| h.var.as_deref() != Some(var));
    }

    fn snapshot(&self) -> (Vec<Held>, HashMap<String, String>) {
        (self.held.clone(), self.env.clone())
    }

    fn restore(&mut self, snap: (Vec<Held>, HashMap<String, String>)) {
        self.held = snap.0;
        self.env = snap.1;
    }
}

/// The lowercased identifier immediately following `wrapper` in a
/// type's identifier-token list — `["Arc","Mutex","Ring"]` with wrapper
/// `Mutex` → `ring`. Falls back to `guard` when the wrapper is last.
fn type_arg_after(tys: &[String], wrapper: &str) -> Option<String> {
    let pos = tys.iter().position(|t| t.as_str() == wrapper)?;
    Some(
        tys.get(pos + 1)
            .map(|t| t.to_lowercase())
            .unwrap_or_else(|| "guard".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::BLOCKING_CALLS;

    fn run(rel: &str, src: &str) -> Vec<RawFinding> {
        let ctx = FileContext::classify(rel);
        let lexed = lex(src);
        let tree = ast::parse(&lexed.tokens);
        let out = analyze(&[LockFile {
            ctx: &ctx,
            ast: &tree,
        }]);
        out.into_iter().next().unwrap().raw
    }

    fn rules(raw: &[RawFinding]) -> Vec<&'static str> {
        raw.iter().map(|r| r.finding.rule).collect()
    }

    #[test]
    fn opposite_acquisition_orders_are_a_cycle() {
        let src = "
impl Pair {
    fn forward(&self) {
        let a = self.left.lock().unwrap();
        let b = self.right.lock().unwrap();
        drop(b);
        drop(a);
    }
    fn backward(&self) {
        let b = self.right.lock().unwrap();
        let a = self.left.lock().unwrap();
        drop(a);
        drop(b);
    }
}
";
        let raw = run("crates/mpc/src/pair.rs", src);
        assert_eq!(
            rules(&raw),
            vec!["lock-order-cycle", "lock-order-cycle"],
            "both inner acquisitions close the cycle: {raw:?}"
        );
    }

    #[test]
    fn consistent_acquisition_order_is_clean() {
        let src = "
impl Pair {
    fn forward(&self) {
        let a = self.left.lock().unwrap();
        let b = self.right.lock().unwrap();
        drop(b);
        drop(a);
    }
    fn also_forward(&self) {
        let a = self.left.lock().unwrap();
        let b = self.right.lock().unwrap();
        drop(b);
        drop(a);
    }
}
";
        assert!(run("crates/mpc/src/pair.rs", src).is_empty());
    }

    #[test]
    fn relocking_a_held_lock_is_a_self_cycle() {
        let src = "
impl S {
    fn twice(&self) {
        let a = self.state.lock().unwrap();
        let b = self.state.lock().unwrap();
        drop(b);
        drop(a);
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(rules(&raw), vec!["lock-order-cycle"], "{raw:?}");
        assert!(raw[0].finding.message.contains("not re-entrant"));
    }

    #[test]
    fn channel_recv_under_a_guard_is_r11() {
        let src = "
impl S {
    fn pump(&self) -> u64 {
        let st = self.state.lock().unwrap();
        let item = self.rx.recv().unwrap();
        st.total + item
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(rules(&raw), vec!["no-blocking-while-locked"], "{raw:?}");
        assert!(raw[0].finding.message.contains("mpc::state"));
    }

    #[test]
    fn drop_before_blocking_is_clean() {
        let src = "
impl S {
    fn pump(&self) -> u64 {
        let st = self.state.lock().unwrap();
        let bias = st.bias;
        drop(st);
        self.rx.recv().unwrap() + bias
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = "
impl S {
    fn pump(&self) -> u64 {
        {
            let st = self.state.lock().unwrap();
            st.touch();
        }
        self.rx.recv().unwrap()
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn join_with_an_argument_is_not_blocking() {
        // PathBuf::join — held guard or not, it is string concatenation.
        let src = "
fn dump(&self) {
    let sh = self.shared.lock().unwrap();
    let p = sh.dir.join(name);
    sh.write(p);
}
";
        assert!(run("crates/obs/src/f.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_outside_a_loop_is_r12() {
        let src = "
impl S {
    fn until_ready(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        st = self.cv.wait(st).unwrap();
        st.ready
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(rules(&raw), vec!["condvar-wait-in-loop"], "{raw:?}");
    }

    #[test]
    fn condvar_wait_inside_a_while_is_clean() {
        let src = "
impl S {
    fn until_ready(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        while !st.ready {
            st = self.cv.wait(st).unwrap();
        }
        st.value
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn wait_while_needs_no_loop() {
        let src = "
impl S {
    fn until_ready(&self) -> u64 {
        let mut st = self.state.lock().unwrap();
        st = self.cv.wait_while(st, pending).unwrap();
        st.value
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn condvar_wait_holding_a_second_guard_is_r11() {
        let src = "
impl S {
    fn bad(&self) {
        let log = self.journal.lock().unwrap();
        let mut st = self.state.lock().unwrap();
        while !st.ready {
            st = self.cv.wait(st).unwrap();
        }
        log.push(st.value);
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert!(
            rules(&raw).contains(&"no-blocking-while-locked"),
            "the journal guard is held across the wait: {raw:?}"
        );
    }

    #[test]
    fn relaxed_ordering_on_an_atomic_is_r13() {
        let src = "
fn publish(&self, v: u64) {
    self.slot = v;
    self.ready.store(true, Ordering::Relaxed);
}
";
        let raw = run("crates/obs/src/g.rs", src);
        assert_eq!(rules(&raw), vec!["atomic-gate-ordering"], "{raw:?}");
    }

    #[test]
    fn acquire_release_orderings_are_clean() {
        let src = "
fn publish(&self, v: u64) {
    self.slot = v;
    self.ready.store(true, Ordering::Release);
    let _ = self.ready.load(Ordering::Acquire);
    self.mask.fetch_or(1, std::sync::atomic::Ordering::AcqRel);
}
";
        assert!(run("crates/obs/src/g.rs", src).is_empty());
    }

    #[test]
    fn guard_returning_helper_carries_its_lock_interprocedurally() {
        // The scheduler's lock_state idiom: the helper owns the key, the
        // caller holds the guard — blocking in the caller is still R11,
        // and a second lock in the caller is an edge from the helper's.
        let src = "
fn lock_state(m: &Mutex<State>) -> MutexGuard<State> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
impl S {
    fn stall(&self) {
        let st = lock_state(&self.state);
        self.rx.recv().unwrap();
        drop(st);
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(rules(&raw), vec!["no-blocking-while-locked"], "{raw:?}");
        assert!(raw[0].finding.message.contains("mpc::state"));
    }

    #[test]
    fn guard_param_moves_into_the_callee() {
        // fire_round-style guard-in/guard-out: the caller moves the guard
        // in; the callee drops it before blocking. Nothing fires.
        let src = "
impl S {
    fn fire(&self, st: MutexGuard<State>) -> u64 {
        drop(st);
        self.rx.recv().unwrap()
    }
    fn run(&self) -> u64 {
        let st = self.state.lock().unwrap();
        self.fire(st)
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn blocking_propagates_through_call_chains() {
        let src = "
fn level_two(&self) {
    self.handle.join().unwrap();
}
fn level_one(&self) {
    self.level_two();
}
impl S {
    fn top(&self) {
        let st = self.state.lock().unwrap();
        self.level_one();
        drop(st);
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(rules(&raw), vec!["no-blocking-while-locked"], "{raw:?}");
        assert!(raw[0].finding.message.contains("level_one"));
    }

    #[test]
    fn interprocedural_cycle_through_helpers() {
        let src = "
fn take_left(&self) -> MutexGuard<Left> {
    self.left.lock().unwrap()
}
fn take_right(&self) -> MutexGuard<Right> {
    self.right.lock().unwrap()
}
impl S {
    fn forward(&self) {
        let l = self.take_left();
        let r = self.take_right();
        drop(r);
        drop(l);
    }
    fn backward(&self) {
        let r = self.take_right();
        let l = self.take_left();
        drop(l);
        drop(r);
    }
}
";
        let raw = run("crates/mpc/src/s.rs", src);
        assert_eq!(
            rules(&raw),
            vec!["lock-order-cycle", "lock-order-cycle"],
            "{raw:?}"
        );
    }

    #[test]
    fn tests_are_exempt() {
        let src = "
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let a = X.lock().unwrap();
        let b = Y.lock().unwrap();
        drop(a);
        drop(b);
        FLAG.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }
}
";
        assert!(run("crates/mpc/src/s.rs", src).is_empty());
    }

    #[test]
    fn every_pinned_blocking_call_is_recognised() {
        for name in BLOCKING_CALLS {
            assert!(
                blocking_desc(name, 0).is_some() || condvar_wait_name(name),
                "{name} must be classified as blocking"
            );
        }
    }

    #[test]
    fn lock_types_back_the_signature_heuristics() {
        // The engine matches these names structurally; the const pins
        // them to real workspace types via tests/api_drift.rs.
        assert_eq!(LOCK_TYPES[0], "Mutex");
        assert_eq!(LOCK_TYPES[1], "MutexGuard");
        assert!(LOCK_TYPES.contains(&"Condvar"));
    }
}
