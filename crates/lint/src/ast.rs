//! A lightweight Rust AST built by recursive descent over the lexer's
//! token stream — the structural substrate of the interprocedural taint
//! engine in [`crate::taint`].
//!
//! Fidelity is deliberately partial: the parser recovers items, function
//! signatures, blocks, `let`/`if let`/`while let`/`match` bindings with
//! destructuring patterns, calls, method chains, closures, macros, and
//! indexing — everything value flow cares about — while types, generics,
//! and operator precedence are skipped or flattened (taint is a *union*
//! over operands, so precedence is irrelevant). The parser never fails:
//! unrecognised constructs become [`Expr::Unknown`] and parsing always
//! makes forward progress, so a syntax form outside the subset degrades
//! to a missed edge, never a crash or an infinite loop.

use crate::lexer::{Token, TokenKind};

/// One parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// An item (function, module, impl block, or anything else).
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// Whether a `#[cfg(test)]` / `#[test]` attribute covers it. A `test`
    /// token inside `not(…)` does **not** count — `#[cfg(not(test))]`
    /// marks *non*-test code (the misclassification the token engine had).
    pub is_test: bool,
}

/// The item kinds the analyses distinguish.
#[derive(Debug)]
pub enum ItemKind {
    /// A function with its body (absent for trait method signatures).
    Fn(FnItem),
    /// An inline module and its items.
    Mod(Vec<Item>),
    /// An `impl`/`trait` block's associated functions.
    Impl(Vec<Item>),
    /// Anything else (structs, uses, consts, …) — opaque to taint.
    Other,
}

/// A parsed function.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// One pattern per parameter (`self` included, as a binding of `self`).
    pub params: Vec<Pat>,
    /// Per-parameter type annotation, reduced to its identifier tokens
    /// (`st: MutexGuard<'a, State>` → `["MutexGuard", "State"]`; `self`
    /// and untyped closure-style params get an empty list). Enough for
    /// the lock engine to recognise guard/lock-typed parameters without
    /// a real type grammar.
    pub param_types: Vec<Vec<String>>,
    /// The body, when present.
    pub body: Option<Block>,
}

/// A pattern, reduced to the identifiers it binds (destructuring included;
/// constructor and field-name path segments excluded).
#[derive(Debug, Clone, Default)]
pub struct Pat {
    /// Bound identifier names.
    pub bindings: Vec<String>,
}

/// A `{ … }` block.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let PAT (= EXPR)? (else BLOCK)?;`
    Let {
        /// The binding pattern.
        pat: Pat,
        /// The initialiser, if any.
        init: Option<Expr>,
        /// The diverging `else` block of a `let … else`.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: usize,
    },
    /// An expression statement; `has_semi` distinguishes tail expressions.
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether a `;` terminated it.
        has_semi: bool,
    },
    /// A nested item (fn, mod, …).
    Item(Item),
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    /// The arm's pattern bindings.
    pub pat: Pat,
    /// The `if` guard, when present.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

/// An expression. Line numbers anchor findings to source.
#[derive(Debug)]
pub enum Expr {
    /// A (possibly qualified) path; `segs` holds the segments.
    Path {
        /// Path segments (`a::b::c` → `["a","b","c"]`).
        segs: Vec<String>,
        /// 1-based line.
        line: usize,
    },
    /// A string literal (contents, as the lexer reports them).
    Str {
        /// The literal's contents.
        value: String,
        /// 1-based line.
        line: usize,
    },
    /// Any other literal (numbers, chars, lifetimes-as-labels, …).
    Lit {
        /// 1-based line.
        line: usize,
    },
    /// `callee(args…)`.
    Call {
        /// The callee expression (usually a path).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `recv.name(args…)`.
    Method {
        /// The receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `name!(args…)` (or `[]`/`{}` delimited).
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `base.name` (fields, tuple indices, `.await`).
    Field {
        /// The base expression.
        base: Box<Expr>,
        /// The field name (or tuple index digits, or `await`).
        name: String,
        /// 1-based line.
        line: usize,
    },
    /// `base[index]`.
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// A prefix operator application (`&`, `*`, `-`, `!`).
    Unary {
        /// The operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// A binary operator application (all operators, flattened).
    Binary {
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `lhs = rhs` and compound assignments.
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
        /// Whether this is a compound assignment (`+=`, `^=`, …).
        compound: bool,
        /// 1-based line.
        line: usize,
    },
    /// `expr as Type` (the type is skipped).
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `lo..hi` / `lo..=hi` with either bound optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
        /// 1-based line.
        line: usize,
    },
    /// `if (let PAT =)? cond { … } (else …)?`
    If {
        /// The scrutinee/condition.
        cond: Box<Expr>,
        /// The `if let` pattern, when present.
        pat: Option<Pat>,
        /// The then-block.
        then: Block,
        /// The else branch (a block or chained `if`).
        alt: Option<Box<Expr>>,
        /// 1-based line.
        line: usize,
    },
    /// `match scrutinee { arms… }`
    Match {
        /// The scrutinee.
        scrutinee: Box<Expr>,
        /// The arms.
        arms: Vec<Arm>,
        /// 1-based line.
        line: usize,
    },
    /// `while (let PAT =)? cond { … }`
    While {
        /// The condition/scrutinee.
        cond: Box<Expr>,
        /// The `while let` pattern, when present.
        pat: Option<Pat>,
        /// The loop body.
        body: Block,
        /// 1-based line.
        line: usize,
    },
    /// `for PAT in iter { … }`
    For {
        /// The loop pattern.
        pat: Pat,
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
        /// 1-based line.
        line: usize,
    },
    /// `loop { … }`
    Loop {
        /// The loop body.
        body: Block,
        /// 1-based line.
        line: usize,
    },
    /// `(move)? |params…| body`
    Closure {
        /// Parameter patterns.
        params: Vec<Pat>,
        /// The closure body.
        body: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// A `{ … }` block in expression position.
    Block {
        /// The block.
        block: Block,
        /// 1-based line.
        line: usize,
    },
    /// Tuples, arrays, and parenthesised groups.
    Tuple {
        /// Element expressions.
        items: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `Path { field: expr, … }`
    StructLit {
        /// Field value expressions (shorthand fields become paths).
        fields: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `return expr?` / `break expr?`.
    Ret {
        /// The returned/broken-out value.
        expr: Option<Box<Expr>>,
        /// 1-based line.
        line: usize,
    },
    /// Anything the parser could not classify.
    Unknown {
        /// 1-based line.
        line: usize,
    },
}

impl Expr {
    /// The 1-based source line this expression starts on.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path { line, .. }
            | Expr::Str { line, .. }
            | Expr::Lit { line }
            | Expr::Call { line, .. }
            | Expr::Method { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Range { line, .. }
            | Expr::If { line, .. }
            | Expr::Match { line, .. }
            | Expr::While { line, .. }
            | Expr::For { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Block { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::Ret { line, .. }
            | Expr::Unknown { line } => *line,
        }
    }
}

/// True when an attribute's *content* tokens (between `#[` and `]`) mark a
/// test context: they mention `test` outside any `not(…)` group. This is
/// the corrected classification — `#[cfg(not(test))]` is **not** a test
/// region (the token pass misread it as one; see DESIGN.md §7).
pub fn attr_marks_test(content: &[Token]) -> bool {
    let mut depth = 0i32;
    let mut neg_starts: Vec<i32> = Vec::new();
    let mut i = 0;
    while i < content.len() {
        let t = &content[i];
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if neg_starts.last().is_some_and(|&d| depth <= d) {
                    neg_starts.pop();
                }
            }
            "not"
                if t.kind == TokenKind::Ident
                    && content.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                neg_starts.push(depth);
            }
            "test" if t.kind == TokenKind::Ident && neg_starts.is_empty() => return true,
            _ => {}
        }
        i += 1;
    }
    false
}

/// Parses a token stream into a [`File`]. Infallible by construction.
pub fn parse(tokens: &[Token]) -> File {
    let mut p = Parser { t: tokens, i: 0 };
    File {
        items: p.parse_items(false),
    }
}

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
}

const ITEM_KEYWORDS: [&str; 10] = [
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "mod",
    "trait",
    "use",
    "static",
    "macro_rules",
];

impl<'a> Parser<'a> {
    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    fn peek(&self, k: usize) -> &str {
        self.t.get(self.i + k).map_or("", |t| t.text.as_str())
    }

    fn peek_kind(&self) -> Option<TokenKind> {
        self.t.get(self.i).map(|t| t.kind)
    }

    fn line(&self) -> usize {
        self.t.get(self.i).or(self.t.last()).map_or(1, |t| t.line)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn at(&self, s: &str) -> bool {
        self.peek(0) == s
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.at(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_ident(&self) -> bool {
        self.peek_kind() == Some(TokenKind::Ident)
    }

    /// Skips one `#[…]` or `#![…]` attribute (cursor on `#`), returning
    /// whether it marks a test context.
    fn skip_attr(&mut self) -> bool {
        self.bump(); // '#'
        self.eat("!");
        if !self.eat("[") {
            return false;
        }
        let start = self.i;
        let mut depth = 1i32;
        while !self.done() && depth > 0 {
            match self.peek(0) {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            self.bump();
        }
        let end = self.i.saturating_sub(1).max(start);
        attr_marks_test(&self.t[start..end])
    }

    /// Having consumed an opener, skips to and past its matching closer.
    fn skip_balanced_from_open(&mut self, open: &str) {
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return,
        };
        let mut depth = 1i32;
        while !self.done() && depth > 0 {
            let s = self.peek(0);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
            }
            self.bump();
        }
    }

    /// Skips type tokens until one of `stops` appears at bracket depth 0.
    fn skip_type_until(&mut self, stops: &[&str]) {
        let mut depth = 0i32;
        let mut prev = String::new();
        while !self.done() {
            let s = self.peek(0);
            if depth <= 0 && stops.contains(&s) {
                return;
            }
            match s {
                "(" | "[" | "<" => {
                    // `->` in `Fn(…) -> T` must not open/close angles.
                    depth += 1;
                }
                ")" | "]" => depth -= 1,
                ">" if prev != "-" => depth -= 1,
                "{" | "}" if depth <= 0 => return,
                _ => {}
            }
            prev = s.to_string();
            self.bump();
        }
    }

    /// Consumes one type atom after `as` (`usize`, `*const u8`, `Vec<T>`…).
    fn skip_type_atom(&mut self) {
        while self.at("&") || self.at("*") {
            self.bump();
            if self.at("mut") || self.at("const") {
                self.bump();
            }
        }
        if self.at("dyn") || self.at("impl") {
            self.bump();
        }
        loop {
            if self.is_ident() {
                self.bump();
            } else if self.at("(") {
                self.bump();
                self.skip_balanced_from_open("(");
            } else if self.at("[") {
                self.bump();
                self.skip_balanced_from_open("[");
            } else {
                break;
            }
            if self.at(":") && self.peek(1) == ":" {
                self.bump();
                self.bump();
                continue;
            }
            if self.at("<") {
                self.bump();
                // `skip_generics` expects the cursor inside; emulate depth 1.
                let mut depth = 1i32;
                let mut prev = String::new();
                while !self.done() && depth > 0 {
                    match self.peek(0) {
                        "<" => depth += 1,
                        ">" if prev != "-" => depth -= 1,
                        _ => {}
                    }
                    prev = self.peek(0).to_string();
                    self.bump();
                }
                continue;
            }
            break;
        }
    }

    // ----- items -----------------------------------------------------

    fn parse_items(&mut self, stop_at_brace: bool) -> Vec<Item> {
        let mut items = Vec::new();
        let mut pending_test = false;
        while !self.done() {
            if stop_at_brace && self.at("}") {
                self.bump();
                break;
            }
            if self.at("#") {
                pending_test |= self.skip_attr();
                continue;
            }
            let before = self.i;
            if let Some(item) = self.parse_item(pending_test) {
                items.push(item);
                pending_test = false;
            }
            if self.i == before {
                self.bump(); // guarantee progress
            }
        }
        items
    }

    fn parse_item(&mut self, is_test: bool) -> Option<Item> {
        // Visibility / qualifiers.
        while self.at("pub") {
            self.bump();
            if self.at("(") {
                self.bump();
                self.skip_balanced_from_open("(");
            }
        }
        while self.at("unsafe") || self.at("async") || self.at("extern") {
            self.bump();
            if self.peek_kind() == Some(TokenKind::Str) {
                self.bump(); // extern "C"
            }
        }
        if self.at("const") && self.peek(1) == "fn" {
            self.bump();
        }
        match self.peek(0) {
            "fn" => {
                let f = self.parse_fn();
                Some(Item {
                    kind: ItemKind::Fn(f),
                    is_test,
                })
            }
            "mod" => {
                self.bump();
                if self.is_ident() {
                    self.bump();
                }
                if self.eat("{") {
                    let items = self.parse_items(true);
                    Some(Item {
                        kind: ItemKind::Mod(items),
                        is_test,
                    })
                } else {
                    self.eat(";");
                    Some(Item {
                        kind: ItemKind::Other,
                        is_test,
                    })
                }
            }
            "impl" | "trait" => {
                self.bump();
                // Skip the header (generics, type, `for Type`, where-clause).
                let mut prev = String::new();
                while !self.done() && !self.at("{") && !self.at(";") {
                    if self.at("<") && prev != "-" {
                        self.bump();
                        let mut depth = 1i32;
                        let mut p2 = String::new();
                        while !self.done() && depth > 0 {
                            match self.peek(0) {
                                "<" => depth += 1,
                                ">" if p2 != "-" => depth -= 1,
                                _ => {}
                            }
                            p2 = self.peek(0).to_string();
                            self.bump();
                        }
                        continue;
                    }
                    if self.at("(") {
                        self.bump();
                        self.skip_balanced_from_open("(");
                        continue;
                    }
                    prev = self.peek(0).to_string();
                    self.bump();
                }
                if self.eat("{") {
                    let items = self.parse_items(true);
                    Some(Item {
                        kind: ItemKind::Impl(items),
                        is_test,
                    })
                } else {
                    self.eat(";");
                    Some(Item {
                        kind: ItemKind::Other,
                        is_test,
                    })
                }
            }
            "struct" | "enum" | "union" => {
                self.bump();
                while !self.done() && !self.at("{") && !self.at(";") && !self.at("(") {
                    if self.at("<") {
                        self.bump();
                        let mut depth = 1i32;
                        while !self.done() && depth > 0 {
                            match self.peek(0) {
                                "<" => depth += 1,
                                ">" => depth -= 1,
                                _ => {}
                            }
                            self.bump();
                        }
                        continue;
                    }
                    self.bump();
                }
                if self.at("{") || self.at("(") {
                    let open = self.peek(0).to_string();
                    self.bump();
                    self.skip_balanced_from_open(&open);
                }
                self.eat(";");
                Some(Item {
                    kind: ItemKind::Other,
                    is_test,
                })
            }
            "use" | "type" | "static" | "const" => {
                // `const`/`static` initialisers may contain braces.
                let mut depth = 0i32;
                while !self.done() {
                    match self.peek(0) {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            if depth == 0 {
                                break; // enclosing block's closer
                            }
                            depth -= 1;
                        }
                        ";" if depth <= 0 => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    self.bump();
                }
                Some(Item {
                    kind: ItemKind::Other,
                    is_test,
                })
            }
            "macro_rules" => {
                self.bump();
                self.eat("!");
                if self.is_ident() {
                    self.bump();
                }
                if self.at("{") {
                    self.bump();
                    self.skip_balanced_from_open("{");
                }
                Some(Item {
                    kind: ItemKind::Other,
                    is_test,
                })
            }
            _ => None,
        }
    }

    fn parse_fn(&mut self) -> FnItem {
        self.bump(); // fn
        let name = if self.is_ident() {
            let n = self.peek(0).to_string();
            self.bump();
            n
        } else {
            String::new()
        };
        if self.at("<") {
            self.bump();
            let mut depth = 1i32;
            let mut prev = String::new();
            while !self.done() && depth > 0 {
                match self.peek(0) {
                    "<" => depth += 1,
                    ">" if prev != "-" => depth -= 1,
                    _ => {}
                }
                prev = self.peek(0).to_string();
                self.bump();
            }
        }
        let mut params = Vec::new();
        let mut param_types = Vec::new();
        if self.eat("(") {
            while !self.done() && !self.at(")") {
                // One parameter: pattern tokens up to `:` (or `,`/`)`).
                let start = self.i;
                let mut depth = 0i32;
                while !self.done() {
                    let s = self.peek(0);
                    match s {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" if depth == 0 => break,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        ":" if depth <= 0 && self.peek(1) != ":" => break,
                        "," if depth <= 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                let pat = pat_bindings(&self.t[start..self.i]);
                params.push(pat);
                if self.at(":") {
                    self.bump();
                    let ty_start = self.i;
                    self.skip_type_until(&[",", ")"]);
                    param_types.push(
                        self.t[ty_start..self.i]
                            .iter()
                            .filter(|t| t.kind == TokenKind::Ident)
                            .map(|t| t.text.clone())
                            .collect(),
                    );
                } else {
                    param_types.push(Vec::new());
                }
                self.eat(",");
            }
            self.eat(")");
        }
        if self.at("-") && self.peek(1) == ">" {
            self.bump();
            self.bump();
            self.skip_type_until(&["{", ";", "where"]);
        }
        if self.at("where") {
            self.skip_type_until(&["{", ";"]);
        }
        let body = if self.at("{") {
            Some(self.parse_block())
        } else {
            self.eat(";");
            None
        };
        FnItem {
            name,
            params,
            param_types,
            body,
        }
    }

    // ----- statements ------------------------------------------------

    /// Parses a block; the cursor must be on `{` (otherwise an empty block
    /// is returned without consuming anything).
    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.eat("{") {
            return block;
        }
        let mut pending_test = false;
        while !self.done() {
            if self.at("}") {
                self.bump();
                break;
            }
            if self.at("#") {
                pending_test |= self.skip_attr();
                continue;
            }
            if self.eat(";") {
                continue;
            }
            let before = self.i;
            if self.at("let") {
                block.stmts.push(self.parse_let());
            } else if self.starts_item() {
                if let Some(item) = self.parse_item(pending_test) {
                    block.stmts.push(Stmt::Item(item));
                }
                pending_test = false;
            } else {
                let expr = self.parse_expr(true);
                let has_semi = self.eat(";");
                block.stmts.push(Stmt::Expr { expr, has_semi });
            }
            if self.i == before {
                self.bump(); // guarantee progress
            }
        }
        block
    }

    fn starts_item(&self) -> bool {
        let s = self.peek(0);
        if ITEM_KEYWORDS.contains(&s) && !(s == "impl" && self.peek(1) == "Trait") {
            // `impl` in block position is an item; `impl Trait` types never
            // start a statement.
            return true;
        }
        s == "pub"
            || (s == "const"
                && self.peek_kind() == Some(TokenKind::Ident)
                && self
                    .t
                    .get(self.i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident && t.text != "fn"))
            || (s == "type"
                && self
                    .t
                    .get(self.i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident))
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
                     // Pattern: up to `:` (type), `=` (init), or `;` at depth 0.
        let start = self.i;
        let mut depth = 0i32;
        while !self.done() {
            match self.peek(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ":" if depth <= 0 && self.peek(1) != ":" => break,
                "=" if depth <= 0 && self.peek(1) != "=" => break,
                ";" if depth <= 0 => break,
                ":" if self.peek(1) == ":" => {
                    self.bump(); // `::` — consume both, stay in pattern
                }
                _ => {}
            }
            self.bump();
        }
        let pat = pat_bindings(&self.t[start..self.i]);
        if self.at(":") {
            self.bump();
            self.skip_type_until(&["=", ";"]);
        }
        let init = if self.at("=") && self.peek(1) != "=" {
            self.bump();
            Some(self.parse_expr(true))
        } else {
            None
        };
        let else_block = if self.at("else") {
            self.bump();
            Some(self.parse_block())
        } else {
            None
        };
        self.eat(";");
        Stmt::Let {
            pat,
            init,
            else_block,
            line,
        }
    }

    // ----- expressions -----------------------------------------------

    /// Full expression parse; `allow_struct` gates `Path { … }` literals
    /// (disabled in `if`/`while`/`match`/`for` scrutinee position).
    fn parse_expr(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let lhs = self.parse_range(allow_struct);
        // Assignment (plain or the compound form the binary level stopped at).
        if self.at("=") && self.peek(1) != "=" && self.peek(1) != ">" {
            self.bump();
            let rhs = self.parse_expr(allow_struct);
            return Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                compound: false,
                line,
            };
        }
        if self.is_compound_assign() {
            while !self.at("=") && !self.done() {
                self.bump();
            }
            self.eat("=");
            let rhs = self.parse_expr(allow_struct);
            return Expr::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                compound: true,
                line,
            };
        }
        lhs
    }

    fn is_compound_assign(&self) -> bool {
        let a = self.peek(0);
        let b = self.peek(1);
        let c = self.peek(2);
        (["+", "-", "*", "/", "%", "^", "&", "|"].contains(&a) && b == "=")
            || ((a == "<" && b == "<" || a == ">" && b == ">") && c == "=")
    }

    fn parse_range(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        if self.at(".") && self.peek(1) == "." {
            self.bump();
            self.bump();
            self.eat("=");
            let hi = if self.starts_expr() {
                Some(Box::new(self.parse_binary(allow_struct)))
            } else {
                None
            };
            return Expr::Range { lo: None, hi, line };
        }
        let lo = self.parse_binary(allow_struct);
        if self.at(".") && self.peek(1) == "." {
            self.bump();
            self.bump();
            self.eat("=");
            let hi = if self.starts_expr() {
                Some(Box::new(self.parse_binary(allow_struct)))
            } else {
                None
            };
            return Expr::Range {
                lo: Some(Box::new(lo)),
                hi,
                line,
            };
        }
        lo
    }

    fn starts_expr(&self) -> bool {
        if self.done() {
            return false;
        }
        !matches!(self.peek(0), ")" | "]" | "}" | "," | ";" | "{" | "=")
    }

    fn parse_binary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let mut lhs = self.parse_unary(allow_struct);
        loop {
            if self.at("as") && self.peek_kind() == Some(TokenKind::Ident) {
                self.bump();
                self.skip_type_atom();
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    line,
                };
                continue;
            }
            if self.is_compound_assign() || (self.at("=") && self.peek(1) != "=") {
                break; // assignment handled one level up
            }
            let (is_op, glue) = self.binary_op_len();
            if !is_op {
                break;
            }
            for _ in 0..glue {
                self.bump();
            }
            let rhs = self.parse_unary(allow_struct);
            lhs = Expr::Binary {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    /// Is the cursor on a binary operator? Returns its token length.
    fn binary_op_len(&self) -> (bool, usize) {
        let a = self.peek(0);
        let b = self.peek(1);
        match a {
            "=" if b == "=" => (true, 2),
            "!" if b == "=" => (true, 2),
            "<" if b == "=" => (true, 2),
            ">" if b == "=" => (true, 2),
            "&" if b == "&" => (true, 2),
            "|" if b == "|" => (true, 2),
            "<" if b == "<" => (true, 2),
            ">" if b == ">" => (true, 2),
            "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">" => (true, 1),
            _ => (false, 0),
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        if self.at("&") || self.at("*") || self.at("-") || self.at("!") {
            self.bump();
            if self.at("mut") {
                self.bump();
            }
            let inner = self.parse_unary(allow_struct);
            return Expr::Unary {
                expr: Box::new(inner),
                line,
            };
        }
        self.parse_postfix(allow_struct)
    }

    fn parse_postfix(&mut self, allow_struct: bool) -> Expr {
        let mut e = self.parse_primary(allow_struct);
        loop {
            let line = self.line();
            if self.at(".") && self.peek(1) != "." {
                self.bump();
                if self.is_ident() {
                    let name = self.peek(0).to_string();
                    self.bump();
                    // Turbofish on methods: `.collect::<Vec<_>>()`.
                    if self.at(":") && self.peek(1) == ":" {
                        self.bump();
                        self.bump();
                        if self.at("<") {
                            self.bump();
                            let mut depth = 1i32;
                            let mut prev = String::new();
                            while !self.done() && depth > 0 {
                                match self.peek(0) {
                                    "<" => depth += 1,
                                    ">" if prev != "-" => depth -= 1,
                                    _ => {}
                                }
                                prev = self.peek(0).to_string();
                                self.bump();
                            }
                        }
                    }
                    if self.at("(") {
                        self.bump();
                        let args = self.parse_args(")");
                        e = Expr::Method {
                            recv: Box::new(e),
                            name,
                            args,
                            line,
                        };
                    } else {
                        e = Expr::Field {
                            base: Box::new(e),
                            name,
                            line,
                        };
                    }
                } else if self.peek_kind() == Some(TokenKind::Num) {
                    let name = self.peek(0).to_string();
                    self.bump();
                    e = Expr::Field {
                        base: Box::new(e),
                        name,
                        line,
                    };
                } else {
                    break;
                }
            } else if self.at("(") {
                self.bump();
                let args = self.parse_args(")");
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
            } else if self.at("[") {
                self.bump();
                let index = self.parse_expr(true);
                // Skip to the matching `]` if the index parse stopped short.
                let mut depth = 1i32;
                while !self.done() && depth > 0 {
                    match self.peek(0) {
                        "[" => depth += 1,
                        "]" => depth -= 1,
                        _ => {}
                    }
                    self.bump();
                }
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    line,
                };
            } else if self.at("?") {
                self.bump();
            } else {
                break;
            }
        }
        e
    }

    /// Comma/semicolon-separated expressions up to (and past) `closer`.
    fn parse_args(&mut self, closer: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        while !self.done() {
            if self.at(closer) {
                self.bump();
                break;
            }
            let before = self.i;
            args.push(self.parse_expr(true));
            while self.eat(",") || self.eat(";") {}
            if self.i == before {
                self.bump(); // unparseable token: skip, keep scanning
            }
        }
        args
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        match self.peek_kind() {
            Some(TokenKind::Str) => {
                let value = self.peek(0).to_string();
                self.bump();
                return Expr::Str { value, line };
            }
            Some(TokenKind::Num) | Some(TokenKind::Char) => {
                self.bump();
                return Expr::Lit { line };
            }
            Some(TokenKind::Lifetime) => {
                // A loop label (`'outer: loop { … }`) or a stray lifetime.
                self.bump();
                if self.at(":") {
                    self.bump();
                    return self.parse_primary(allow_struct);
                }
                return Expr::Lit { line };
            }
            _ => {}
        }
        match self.peek(0) {
            "(" => {
                self.bump();
                let items = self.parse_args(")");
                Expr::Tuple { items, line }
            }
            "[" => {
                self.bump();
                let items = self.parse_args("]");
                Expr::Tuple { items, line }
            }
            "{" => Expr::Block {
                block: self.parse_block(),
                line,
            },
            "|" => self.parse_closure(line),
            "move" => {
                self.bump();
                if self.at("|") {
                    self.parse_closure(line)
                } else if self.at("{") {
                    Expr::Block {
                        block: self.parse_block(),
                        line,
                    }
                } else {
                    Expr::Unknown { line }
                }
            }
            "unsafe" => {
                self.bump();
                if self.at("{") {
                    Expr::Block {
                        block: self.parse_block(),
                        line,
                    }
                } else {
                    Expr::Unknown { line }
                }
            }
            "if" => self.parse_if(),
            "match" => self.parse_match(),
            "while" => self.parse_while(),
            "loop" => {
                self.bump();
                Expr::Loop {
                    body: self.parse_block(),
                    line,
                }
            }
            "for" => self.parse_for(),
            "return" | "break" => {
                self.bump();
                if self.peek_kind() == Some(TokenKind::Lifetime) {
                    self.bump(); // break 'label
                }
                let expr = if self.starts_expr() {
                    Some(Box::new(self.parse_expr(true)))
                } else {
                    None
                };
                Expr::Ret { expr, line }
            }
            "continue" => {
                self.bump();
                if self.peek_kind() == Some(TokenKind::Lifetime) {
                    self.bump();
                }
                Expr::Lit { line }
            }
            "<" => {
                // Qualified path `<T as Trait>::f` — skip the qualifier.
                self.bump();
                let mut depth = 1i32;
                let mut prev = String::new();
                while !self.done() && depth > 0 {
                    match self.peek(0) {
                        "<" => depth += 1,
                        ">" if prev != "-" => depth -= 1,
                        _ => {}
                    }
                    prev = self.peek(0).to_string();
                    self.bump();
                }
                if self.at(":") && self.peek(1) == ":" {
                    self.bump();
                    self.bump();
                }
                self.parse_path_like(allow_struct, line)
            }
            _ if self.is_ident() => self.parse_path_like(allow_struct, line),
            _ => {
                self.bump();
                Expr::Unknown { line }
            }
        }
    }

    fn parse_closure(&mut self, line: usize) -> Expr {
        let mut params = Vec::new();
        if self.at("|") && self.peek(1) == "|" {
            self.bump();
            self.bump();
        } else if self.eat("|") {
            while !self.done() && !self.at("|") {
                let start = self.i;
                let mut depth = 0i32;
                while !self.done() {
                    match self.peek(0) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        ":" if depth <= 0 && self.peek(1) != ":" => break,
                        "," if depth <= 0 => break,
                        "|" if depth <= 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                params.push(pat_bindings(&self.t[start..self.i]));
                if self.at(":") {
                    self.bump();
                    self.skip_type_until(&[",", "|"]);
                }
                self.eat(",");
            }
            self.eat("|");
        }
        if self.at("-") && self.peek(1) == ">" {
            self.bump();
            self.bump();
            self.skip_type_until(&["{"]);
        }
        let body = self.parse_expr(true);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // if
        let pat = if self.eat("let") {
            Some(self.parse_scrutinee_pattern())
        } else {
            None
        };
        let cond = self.parse_expr(false);
        let then = self.parse_block();
        let alt = if self.eat("else") {
            if self.at("if") {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Expr::Block {
                    block: self.parse_block(),
                    line: self.line(),
                }))
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            pat,
            then,
            alt,
            line,
        }
    }

    /// Pattern of an `if let`/`while let`, up to the `=`.
    fn parse_scrutinee_pattern(&mut self) -> Pat {
        let start = self.i;
        let mut depth = 0i32;
        while !self.done() {
            match self.peek(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth <= 0 && self.peek(1) != "=" => break,
                _ => {}
            }
            self.bump();
        }
        let pat = pat_bindings(&self.t[start..self.i]);
        self.eat("=");
        pat
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // match
        let scrutinee = self.parse_expr(false);
        let mut arms = Vec::new();
        if self.eat("{") {
            while !self.done() && !self.at("}") {
                if self.at("#") {
                    self.skip_attr();
                    continue;
                }
                // Pattern: up to `=>` or a guard `if` at depth 0.
                let start = self.i;
                let mut depth = 0i32;
                while !self.done() {
                    match self.peek(0) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "}" => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        "=" if depth <= 0 && self.peek(1) == ">" => break,
                        "if" if depth <= 0 => break,
                        _ => {}
                    }
                    self.bump();
                }
                let pat = pat_bindings(&self.t[start..self.i]);
                let guard = if self.eat("if") {
                    Some(self.parse_expr(true))
                } else {
                    None
                };
                if self.at("=") && self.peek(1) == ">" {
                    self.bump();
                    self.bump();
                } else {
                    // Malformed arm: bail out of the arm list.
                    break;
                }
                let body = self.parse_expr(true);
                self.eat(",");
                arms.push(Arm { pat, guard, body });
            }
            self.eat("}");
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
            line,
        }
    }

    fn parse_while(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // while
        let pat = if self.eat("let") {
            Some(self.parse_scrutinee_pattern())
        } else {
            None
        };
        let cond = self.parse_expr(false);
        let body = self.parse_block();
        Expr::While {
            cond: Box::new(cond),
            pat,
            body,
            line,
        }
    }

    fn parse_for(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // for
        let start = self.i;
        let mut depth = 0i32;
        while !self.done() {
            match self.peek(0) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "in" if depth <= 0 => break,
                _ => {}
            }
            self.bump();
        }
        let pat = pat_bindings(&self.t[start..self.i]);
        self.eat("in");
        let iter = self.parse_expr(false);
        let body = self.parse_block();
        Expr::For {
            pat,
            iter: Box::new(iter),
            body,
            line,
        }
    }

    /// A path, then whatever it heads: a macro call, a struct literal, or
    /// the path itself (postfix call/method handled one level up).
    fn parse_path_like(&mut self, allow_struct: bool, line: usize) -> Expr {
        let mut segs = Vec::new();
        if self.is_ident() {
            segs.push(self.peek(0).to_string());
            self.bump();
        }
        loop {
            if self.at(":") && self.peek(1) == ":" {
                self.bump();
                self.bump();
                if self.at("<") {
                    // turbofish
                    self.bump();
                    let mut depth = 1i32;
                    let mut prev = String::new();
                    while !self.done() && depth > 0 {
                        match self.peek(0) {
                            "<" => depth += 1,
                            ">" if prev != "-" => depth -= 1,
                            _ => {}
                        }
                        prev = self.peek(0).to_string();
                        self.bump();
                    }
                } else if self.is_ident() {
                    segs.push(self.peek(0).to_string());
                    self.bump();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if self.at("!") && (self.peek(1) == "(" || self.peek(1) == "[" || self.peek(1) == "{") {
            self.bump(); // !
            let closer = match self.peek(0) {
                "(" => ")",
                "[" => "]",
                _ => "}",
            };
            self.bump();
            let args = self.parse_args(closer);
            return Expr::Macro {
                name: segs.last().cloned().unwrap_or_default(),
                args,
                line,
            };
        }
        if allow_struct && self.at("{") {
            self.bump();
            let mut fields = Vec::new();
            while !self.done() && !self.at("}") {
                let before = self.i;
                if self.at(".") && self.peek(1) == "." {
                    // `..base`
                    self.bump();
                    self.bump();
                    if self.starts_expr() {
                        fields.push(self.parse_expr(true));
                    }
                } else if self.is_ident() && self.peek(1) == ":" && self.peek(2) != ":" {
                    self.bump(); // field name
                    self.bump(); // :
                    fields.push(self.parse_expr(true));
                } else {
                    fields.push(self.parse_expr(true));
                }
                self.eat(",");
                if self.i == before {
                    self.bump();
                }
            }
            self.eat("}");
            return Expr::StructLit { fields, line };
        }
        Expr::Path { segs, line }
    }
}

/// Extracts the identifiers a pattern binds. Heuristic but effective:
/// lowercase identifiers not followed by `(`, `{`, `::`, or `:` (a struct
/// field name) are bindings; `mut`/`ref`/`box` and literal/constructor
/// segments are skipped.
pub fn pat_bindings(tokens: &[Token]) -> Pat {
    const NON_BINDINGS: [&str; 7] = ["mut", "ref", "box", "if", "in", "true", "false"];
    let mut bindings = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || NON_BINDINGS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        let next = tokens.get(i + 1).map_or("", |n| n.text.as_str());
        let next2 = tokens.get(i + 2).map_or("", |n| n.text.as_str());
        // Constructor paths and struct names: `Some(`, `Foo::`, `Foo {`.
        if next == "(" || next == "{" || (next == ":" && next2 == ":") {
            i += 1;
            continue;
        }
        // `field: subpat` — the field name is not a binding.
        if next == ":" {
            i += 1;
            continue;
        }
        // Uppercase-initial identifiers are unit variants (`None`, `Real`).
        if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
            i += 1;
            continue;
        }
        bindings.push(t.text.clone());
        i += 1;
    }
    Pat { bindings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> File {
        parse(&lex(src).tokens)
    }

    fn first_fn(file: &File) -> &FnItem {
        fn find(items: &[Item]) -> Option<&FnItem> {
            for it in items {
                match &it.kind {
                    ItemKind::Fn(f) => return Some(f),
                    ItemKind::Mod(sub) | ItemKind::Impl(sub) => {
                        if let Some(f) = find(sub) {
                            return Some(f);
                        }
                    }
                    ItemKind::Other => {}
                }
            }
            None
        }
        find(&file.items).expect("a function")
    }

    #[test]
    fn fn_params_and_destructuring_bind() {
        let f = parse_src("fn f(x: u64, (a, b): (u64, u64), &mut self) {}");
        let f = first_fn(&f);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].bindings, vec!["x"]);
        assert_eq!(f.params[1].bindings, vec!["a", "b"]);
        assert_eq!(f.params[2].bindings, vec!["self"]);
    }

    #[test]
    fn param_types_capture_identifier_tokens() {
        let f = parse_src(
            "fn fire<'a>(&'a self, mut st: MutexGuard<'a, State>, n: usize) -> MutexGuard<'a, State> {}",
        );
        let f = first_fn(&f);
        assert_eq!(f.params.len(), 3);
        assert!(f.param_types[0].is_empty(), "self has no annotation");
        assert_eq!(f.param_types[1], vec!["MutexGuard", "State"]);
        assert_eq!(f.param_types[2], vec!["usize"]);
    }

    #[test]
    fn field_accesses_carry_their_name() {
        let file = parse_src("fn f(s: S) { let a = s.done; let b = pair.0; }");
        let f = first_fn(&file);
        let body = f.body.as_ref().expect("body");
        let field_name = |s: &Stmt| match s {
            Stmt::Let {
                init: Some(Expr::Field { name, .. }),
                ..
            } => name.clone(),
            s => panic!("expected field init, got {s:?}"),
        };
        assert_eq!(field_name(&body.stmts[0]), "done");
        assert_eq!(field_name(&body.stmts[1]), "0");
    }

    #[test]
    fn let_patterns_collect_bindings_not_constructors() {
        let p = pat_bindings(&lex("Some(ProtocolError { code: c, .. })").tokens);
        assert_eq!(p.bindings, vec!["c"]);
        let p = pat_bindings(&lex("(tx, rx)").tokens);
        assert_eq!(p.bindings, vec!["tx", "rx"]);
        let p = pat_bindings(&lex("SacBackend::Real").tokens);
        assert!(p.bindings.is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_attr() {
        assert!(attr_marks_test(&lex("cfg(test)").tokens));
        assert!(attr_marks_test(&lex("test").tokens));
        assert!(attr_marks_test(
            &lex("cfg(all(test, feature = \"x\"))").tokens
        ));
        assert!(!attr_marks_test(&lex("cfg(not(test))").tokens));
        assert!(!attr_marks_test(&lex("cfg(any(not(test), unix))").tokens));
        assert!(!attr_marks_test(&lex("derive(Debug)").tokens));
    }

    #[test]
    fn method_chains_closures_and_macros_parse() {
        let file = parse_src(
            r#"fn g(rng: &mut R) {
                let share = additive_shares(rng, 2, 7);
                let v: Vec<u64> = share.iter().map(|s| s ^ 1).collect::<Vec<_>>();
                println!("x {:?}", v);
            }"#,
        );
        let f = first_fn(&file);
        let body = f.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 3);
        match &body.stmts[2] {
            Stmt::Expr {
                expr: Expr::Macro { name, args, .. },
                ..
            } => {
                assert_eq!(name, "println");
                assert_eq!(args.len(), 2);
            }
            s => panic!("expected macro stmt, got {s:?}"),
        }
    }

    #[test]
    fn if_let_match_and_for_carry_patterns() {
        let file = parse_src(
            r#"fn h(x: Option<u64>, xs: Vec<u64>) {
                if let Some(v) = x { drop(v); }
                match x { Some(w) => drop(w), None => {} }
                for (i, e) in xs.iter().enumerate() { drop((i, e)); }
                while let Some(q) = x { drop(q); }
            }"#,
        );
        let f = first_fn(&file);
        let body = f.body.as_ref().expect("body");
        match &body.stmts[0] {
            Stmt::Expr {
                expr: Expr::If { pat: Some(p), .. },
                ..
            } => assert_eq!(p.bindings, vec!["v"]),
            s => panic!("expected if-let, got {s:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr {
                expr: Expr::Match { arms, .. },
                ..
            } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].pat.bindings, vec!["w"]);
            }
            s => panic!("expected match, got {s:?}"),
        }
        match &body.stmts[2] {
            Stmt::Expr {
                expr: Expr::For { pat, .. },
                ..
            } => assert_eq!(pat.bindings, vec!["i", "e"]),
            s => panic!("expected for, got {s:?}"),
        }
        match &body.stmts[3] {
            Stmt::Expr {
                expr: Expr::While { pat: Some(p), .. },
                ..
            } => assert_eq!(p.bindings, vec!["q"]),
            s => panic!("expected while-let, got {s:?}"),
        }
    }

    #[test]
    fn test_items_are_flagged() {
        let file = parse_src(
            "#[cfg(test)] mod tests { fn helper() {} }\n\
             #[cfg(not(test))] mod real { fn live() {} }\n",
        );
        assert!(file.items[0].is_test);
        assert!(!file.items[1].is_test);
    }

    #[test]
    fn parser_survives_adversarial_soup_without_hanging() {
        // Unbalanced brackets, stray operators, half a match — the parser
        // must terminate and produce *something*.
        let src = "fn z() { match x { -> ) ] foo!{ ,, } let = 3; #[x] @ |a };";
        let _ = parse_src(src);
        let src2 =
            "impl<T: Fn() -> u64> S<T> where T: Clone { fn m(&self) -> &'static str { \"s\" } }";
        let f = parse_src(src2);
        assert_eq!(first_fn(&f).name, "m");
    }
}
