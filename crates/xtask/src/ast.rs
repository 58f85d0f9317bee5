//! Token trees and a tolerant Rust parser, built over the lexer.
//!
//! `parse_file` lexes, strips test code, groups tokens into delimiter
//! trees, and parses items/statements/expressions. It is deliberately
//! forgiving: unknown constructs are skipped with resynchronization,
//! and only *delimiter imbalance* is a hard error (which the lint
//! reports as a finding against the file). The AST is shaped for the
//! lint rules, not for fidelity: types are kept as token lists,
//! operators lose precedence, and patterns reduce to binding names.

use crate::lexer::{lex, strip_test_code, Tok, TokKind};

/// One node of the delimiter tree: a leaf token or a `()`/`[]`/`{}`
/// group with its contents.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group(Group),
}

#[derive(Debug, Clone)]
pub struct Group {
    pub delim: char,
    pub line: u32,
    pub trees: Vec<Tree>,
}

impl Tree {
    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) => t.ident(),
            Tree::Group(_) => None,
        }
    }

    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(t) if t.is_punct(c))
    }

    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }

    pub fn group_with(&self, delim: char) -> Option<&Group> {
        self.group().filter(|g| g.delim == delim)
    }
}

/// Group a flat token stream into delimiter trees. Errors on
/// imbalance.
pub fn build_trees(toks: &[Tok]) -> Result<Vec<Tree>, String> {
    // (delim, line, children) per open group; index 0 is the root.
    let mut stack: Vec<(char, u32, Vec<Tree>)> = vec![('\0', 0, Vec::new())];
    for t in toks {
        match t.kind {
            TokKind::Open(c) => stack.push((c, t.line, Vec::new())),
            TokKind::Close(c) => {
                let Some((open, line, trees)) = stack.pop() else {
                    return Err(format!("line {}: unbalanced `{c}`", t.line));
                };
                if close_of(open) != c || stack.is_empty() {
                    return Err(format!("line {}: `{open}` closed by `{c}`", t.line));
                }
                let group = Tree::Group(Group {
                    delim: open,
                    line,
                    trees,
                });
                if let Some(top) = stack.last_mut() {
                    top.2.push(group);
                }
            }
            _ => {
                if let Some(top) = stack.last_mut() {
                    top.2.push(Tree::Leaf(t.clone()));
                }
            }
        }
    }
    if stack.len() != 1 {
        let open_line = stack.last().map(|s| s.1).unwrap_or(0);
        return Err(format!("line {open_line}: unclosed delimiter"));
    }
    Ok(stack.pop().map(|s| s.2).unwrap_or_default())
}

fn close_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

// ---------------------------------------------------------------- items

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// `pub` with no restriction.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`.
    Restricted,
    Private,
}

#[derive(Debug)]
pub enum Item {
    Fn(FnItem),
    Impl {
        /// Last path segment of the implemented type.
        type_name: String,
        items: Vec<Item>,
    },
    Mod {
        name: String,
        items: Vec<Item>,
    },
    TypeAlias {
        name: String,
        /// Flattened tokens of the aliased type.
        ty: Vec<String>,
        line: u32,
    },
    Trait {
        name: String,
        items: Vec<Item>,
    },
    Other,
}

#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    pub vis: Vis,
    /// Has a `self` receiver.
    pub is_method: bool,
    /// Flattened tokens of the return type (empty = no `->`).
    pub ret: Vec<String>,
    pub line: u32,
    pub body: Option<Block>,
}

#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

#[derive(Debug)]
pub enum Stmt {
    Let {
        /// Binding names introduced by the pattern.
        pats: Vec<String>,
        init: Option<Expr>,
        /// `let ... else { ... }` diverging block.
        else_block: Option<Block>,
        line: u32,
    },
    Expr(Expr),
    Item(Item),
}

#[derive(Debug)]
pub enum Expr {
    /// Path segments: `x` is `["x"]`, `File::open` is `["File","open"]`.
    Path(Vec<String>, u32),
    Lit(u32),
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        line: u32,
    },
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    /// Any prefix operator (`&`, `&mut`, `*`, `!`, `-`) — transparent
    /// for analysis.
    Un(Box<Expr>),
    Try(Box<Expr>, u32),
    Cast {
        expr: Box<Expr>,
        /// Head identifier of the target type (`u64`, `MyAlias`).
        ty: String,
        line: u32,
    },
    Block(Block),
    If {
        cond: Box<Expr>,
        /// Bindings from `if let` patterns (empty for plain `if`).
        pats: Vec<String>,
        then: Block,
        els: Option<Box<Expr>>,
        line: u32,
    },
    While {
        cond: Box<Expr>,
        pats: Vec<String>,
        body: Block,
    },
    Loop(Block),
    For {
        pats: Vec<String>,
        iter: Box<Expr>,
        body: Block,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
        line: u32,
    },
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
        line: u32,
    },
    Macro {
        /// Last path segment of the macro name.
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        line: u32,
    },
    Assign {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    Binary {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Return(Option<Box<Expr>>, u32),
    Break(Option<Box<Expr>>),
    Tuple(Vec<Expr>, u32),
    Unknown(u32),
}

#[derive(Debug)]
pub struct Arm {
    pub pats: Vec<String>,
    pub body: Expr,
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path(_, l)
            | Expr::Lit(l)
            | Expr::Call { line: l, .. }
            | Expr::MethodCall { line: l, .. }
            | Expr::Field { line: l, .. }
            | Expr::Index { line: l, .. }
            | Expr::Try(_, l)
            | Expr::Cast { line: l, .. }
            | Expr::If { line: l, .. }
            | Expr::Match { line: l, .. }
            | Expr::Closure { line: l, .. }
            | Expr::Macro { line: l, .. }
            | Expr::StructLit { line: l, .. }
            | Expr::Assign { line: l, .. }
            | Expr::Return(_, l)
            | Expr::Tuple(_, l)
            | Expr::Unknown(l) => *l,
            Expr::Un(e) | Expr::Break(Some(e)) => e.line(),
            Expr::Binary { lhs, .. } => lhs.line(),
            Expr::Block(b)
            | Expr::Loop(b)
            | Expr::While { body: b, .. }
            | Expr::For { body: b, .. } => b.stmts.first().map_or(0, stmt_line),
            Expr::Break(None) => 0,
        }
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Let { line, .. } => *line,
        Stmt::Expr(e) => e.line(),
        Stmt::Item(_) => 0,
    }
}

/// Parsed file: the top-level item list.
#[derive(Debug, Default)]
pub struct FileAst {
    pub items: Vec<Item>,
}

/// Lex, strip test code, and parse. `Err` only on delimiter
/// imbalance — callers report the file as unlintable then.
pub fn parse_file(src: &str) -> Result<FileAst, String> {
    let toks = strip_test_code(&lex(src));
    let trees = build_trees(&toks)?;
    Ok(FileAst {
        items: parse_items(&trees),
    })
}

// ------------------------------------------------------------- parsing

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "mod",
    "use",
    "type",
    "const",
    "static",
    "trait",
    "extern",
    "macro_rules",
    "union",
];

fn parse_items(trees: &[Tree]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let before = i;
        if let Some(item) = parse_item(trees, &mut i) {
            items.push(item);
        }
        if i == before {
            i += 1; // resync: skip one tree
        }
    }
    items
}

/// Parse one item starting at `*i`; advances `*i` past whatever it
/// consumed. Returns `None` for tokens that start no recognizable
/// item (caller resyncs).
fn parse_item(trees: &[Tree], i: &mut usize) -> Option<Item> {
    skip_attrs(trees, i);
    let vis = parse_vis(trees, i);
    // Qualifiers before `fn`.
    while matches!(
        trees.get(*i).and_then(Tree::ident),
        Some("const" | "unsafe" | "async" | "default")
    ) {
        // `const NAME: ...` is an item, not a qualifier; only treat
        // `const` as a qualifier when `fn` follows.
        if trees.get(*i).and_then(Tree::ident) == Some("const")
            && trees.get(*i + 1).and_then(Tree::ident) != Some("fn")
        {
            break;
        }
        *i += 1;
    }
    if trees.get(*i).and_then(Tree::ident) == Some("extern")
        && trees.get(*i + 2).and_then(Tree::ident) == Some("fn")
    {
        *i += 2; // extern "C" fn
    }
    match trees.get(*i).and_then(Tree::ident) {
        Some("fn") => {
            *i += 1;
            Some(parse_fn(trees, i, vis))
        }
        Some("impl") => {
            *i += 1;
            Some(parse_impl(trees, i))
        }
        Some("mod") => {
            *i += 1;
            let name = trees
                .get(*i)
                .and_then(Tree::ident)
                .unwrap_or("")
                .to_string();
            *i += 1;
            match trees.get(*i) {
                Some(Tree::Group(g)) if g.delim == '{' => {
                    let items = parse_items(&g.trees);
                    *i += 1;
                    Some(Item::Mod { name, items })
                }
                _ => {
                    skip_to_semi(trees, i);
                    Some(Item::Other)
                }
            }
        }
        Some("struct") => {
            skip_struct(trees, i);
            Some(Item::Other)
        }
        Some("type") => {
            *i += 1;
            let line = trees.get(*i).map_or(0, Tree::line);
            let name = trees
                .get(*i)
                .and_then(Tree::ident)
                .unwrap_or("")
                .to_string();
            *i += 1;
            skip_generics(trees, i);
            let mut ty = Vec::new();
            if trees.get(*i).is_some_and(|t| t.is_punct('=')) {
                *i += 1;
                while *i < trees.len() && !trees[*i].is_punct(';') {
                    flatten_into(&trees[*i], &mut ty);
                    *i += 1;
                }
            }
            skip_to_semi(trees, i);
            Some(Item::TypeAlias { name, ty, line })
        }
        Some("trait") => {
            *i += 1;
            let name = trees
                .get(*i)
                .and_then(Tree::ident)
                .unwrap_or("")
                .to_string();
            *i += 1;
            // Skip generics / supertrait bounds / where clause.
            while *i < trees.len()
                && trees[*i].group_with('{').is_none()
                && !trees[*i].is_punct(';')
            {
                *i += 1;
            }
            match trees.get(*i) {
                Some(Tree::Group(g)) if g.delim == '{' => {
                    let items = parse_items(&g.trees);
                    *i += 1;
                    Some(Item::Trait { name, items })
                }
                _ => {
                    skip_to_semi(trees, i);
                    Some(Item::Other)
                }
            }
        }
        Some("enum" | "union") => {
            *i += 1;
            // name, generics, then braces (or `;`).
            while *i < trees.len()
                && trees[*i].group_with('{').is_none()
                && !trees[*i].is_punct(';')
            {
                *i += 1;
            }
            *i += 1;
            Some(Item::Other)
        }
        Some("use" | "static" | "extern") => {
            skip_to_semi(trees, i);
            Some(Item::Other)
        }
        Some("const") => {
            // `const NAME: T = init;`
            skip_to_semi(trees, i);
            Some(Item::Other)
        }
        Some("macro_rules") => {
            *i += 1; // macro_rules
            *i += 1; // !
            *i += 1; // name
            *i += 1; // body group
            Some(Item::Other)
        }
        _ => None,
    }
}

fn parse_fn(trees: &[Tree], i: &mut usize, vis: Vis) -> Item {
    let line = trees.get(*i).map_or(0, Tree::line);
    let name = trees
        .get(*i)
        .and_then(Tree::ident)
        .unwrap_or("")
        .to_string();
    *i += 1;
    skip_generics(trees, i);
    let mut is_method = false;
    if let Some(g) = trees.get(*i).and_then(|t| t.group_with('(')) {
        // `self` appears before the first top-level comma in a receiver.
        for t in &g.trees {
            if t.is_punct(',') {
                break;
            }
            if t.ident() == Some("self") {
                is_method = true;
                break;
            }
        }
        *i += 1;
    }
    // Return type: `-> ...` up to `{`, `;` or `where`.
    let mut ret = Vec::new();
    if trees.get(*i).is_some_and(|t| t.is_punct('-'))
        && trees.get(*i + 1).is_some_and(|t| t.is_punct('>'))
    {
        *i += 2;
        while *i < trees.len() {
            let t = &trees[*i];
            if t.is_punct(';') || t.ident() == Some("where") || t.group_with('{').is_some() {
                break;
            }
            flatten_into(t, &mut ret);
            *i += 1;
        }
    }
    // Where clause.
    while *i < trees.len() && trees[*i].group_with('{').is_none() && !trees[*i].is_punct(';') {
        *i += 1;
    }
    let body = match trees.get(*i) {
        Some(Tree::Group(g)) if g.delim == '{' => {
            let b = parse_block(g);
            *i += 1;
            Some(b)
        }
        _ => {
            skip_to_semi(trees, i);
            None
        }
    };
    Item::Fn(FnItem {
        name,
        vis,
        is_method,
        ret,
        line,
        body,
    })
}

fn parse_impl(trees: &[Tree], i: &mut usize) -> Item {
    // Header tokens up to the body brace; the implemented type is the
    // last path segment after `for` (trait impls) or after `impl`.
    skip_generics(trees, i);
    let mut last_ident_after_for: Option<String> = None;
    let mut last_ident: Option<String> = None;
    let mut saw_for = false;
    while *i < trees.len() {
        match &trees[*i] {
            Tree::Group(g) if g.delim == '{' => {
                let items = parse_items(&g.trees);
                *i += 1;
                let type_name = if saw_for {
                    last_ident_after_for
                } else {
                    last_ident
                }
                .unwrap_or_default();
                return Item::Impl { type_name, items };
            }
            t if t.ident() == Some("for") => {
                saw_for = true;
                *i += 1;
            }
            t if t.ident() == Some("where") => {
                // Stop recording names; scan on to the body.
                while *i < trees.len() && trees[*i].group_with('{').is_none() {
                    *i += 1;
                }
            }
            t => {
                if let Some(id) = t.ident() {
                    if id.chars().next().is_some_and(char::is_uppercase) {
                        if saw_for {
                            last_ident_after_for = Some(id.to_string());
                        } else {
                            last_ident = Some(id.to_string());
                        }
                    }
                }
                *i += 1;
            }
        }
    }
    Item::Other
}

/// Step over a struct definition (no rule reads its fields): a braced
/// body ends the item, a tuple or unit struct runs to its `;`.
fn skip_struct(trees: &[Tree], i: &mut usize) {
    while *i < trees.len() && trees[*i].group_with('{').is_none() && !trees[*i].is_punct(';') {
        *i += 1;
    }
    *i += 1;
}

fn skip_attrs(trees: &[Tree], i: &mut usize) {
    while trees.get(*i).is_some_and(|t| t.is_punct('#')) {
        let mut j = *i + 1;
        if trees.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if trees.get(j).and_then(|t| t.group_with('[')).is_some() {
            *i = j + 1;
        } else {
            break;
        }
    }
}

fn parse_vis(trees: &[Tree], i: &mut usize) -> Vis {
    if trees.get(*i).and_then(Tree::ident) != Some("pub") {
        return Vis::Private;
    }
    *i += 1;
    if trees.get(*i).and_then(|t| t.group_with('(')).is_some() {
        *i += 1;
        return Vis::Restricted;
    }
    Vis::Pub
}

/// Skip `<...>` generics starting at `*i`, `->`-aware (for `Fn() -> T`
/// bounds inside the angle brackets).
fn skip_generics(trees: &[Tree], i: &mut usize) {
    if !trees.get(*i).is_some_and(|t| t.is_punct('<')) {
        return;
    }
    let mut depth = 0i32;
    while *i < trees.len() {
        let t = &trees[*i];
        if t.is_punct('-') && trees.get(*i + 1).is_some_and(|t| t.is_punct('>')) {
            *i += 2; // `->` inside bounds: not a closer
            continue;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                *i += 1;
                return;
            }
        }
        *i += 1;
    }
}

fn skip_to_semi(trees: &[Tree], i: &mut usize) {
    while *i < trees.len() && !trees[*i].is_punct(';') {
        *i += 1;
    }
    if *i < trees.len() {
        *i += 1;
    }
}

fn flatten_into(tree: &Tree, out: &mut Vec<String>) {
    match tree {
        Tree::Leaf(t) => match &t.kind {
            TokKind::Ident(s) => out.push(s.clone()),
            TokKind::Punct(c) => out.push(c.to_string()),
            TokKind::Lit => out.push("<lit>".to_string()),
            _ => {}
        },
        Tree::Group(g) => {
            out.push(g.delim.to_string());
            for t in &g.trees {
                flatten_into(t, out);
            }
            out.push(close_of(g.delim).to_string());
        }
    }
}

// ---------------------------------------------------------- statements

fn parse_block(group: &Group) -> Block {
    Block {
        stmts: parse_stmts(&group.trees),
    }
}

fn parse_stmts(trees: &[Tree]) -> Vec<Stmt> {
    let mut stmts = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let before = i;
        skip_attrs(trees, &mut i);
        if trees.get(i).is_some_and(|t| t.is_punct(';')) {
            i += 1;
            continue;
        }
        match trees.get(i).and_then(Tree::ident) {
            Some("let") => {
                i += 1;
                stmts.push(parse_let(trees, &mut i));
            }
            Some(kw)
                if ITEM_KEYWORDS.contains(&kw)
                    && kw != "union"
                    // `impl Trait` in expr position doesn't occur in
                    // statements; `match`/`if` are not item keywords.
                    =>
            {
                if let Some(item) = parse_item(trees, &mut i) {
                    stmts.push(Stmt::Item(item));
                }
            }
            Some("pub") => {
                if let Some(item) = parse_item(trees, &mut i) {
                    stmts.push(Stmt::Item(item));
                }
            }
            _ => {
                let e = parse_expr(trees, &mut i, true);
                stmts.push(Stmt::Expr(e));
                if trees.get(i).is_some_and(|t| t.is_punct(';')) {
                    i += 1;
                }
            }
        }
        if i == before {
            i += 1; // resync
        }
    }
    stmts
}

fn parse_let(trees: &[Tree], i: &mut usize) -> Stmt {
    let line = trees.get(*i).map_or(0, Tree::line);
    // Pattern (and optional type ascription) up to top-level `=`,
    // skipping `==`/`=>`/`<=`/`>=`/`..=` composites.
    let pat_start = *i;
    let mut angle = 0i32;
    while *i < trees.len() {
        let t = &trees[*i];
        if t.is_punct(';') {
            break;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        }
        if t.is_punct('=') && angle <= 0 {
            let prev_composite = *i > pat_start
                && matches!(
                    &trees[*i - 1],
                    Tree::Leaf(p) if p.is_punct('<') || p.is_punct('>') || p.is_punct('!') || p.is_punct('.') || p.is_punct('=')
                );
            let next_composite = trees
                .get(*i + 1)
                .is_some_and(|t| t.is_punct('=') || t.is_punct('>'));
            if !prev_composite && !next_composite {
                break;
            }
        }
        *i += 1;
    }
    let pat_trees = &trees[pat_start..*i];
    // Split off a `: Type` ascription at top level (not `::`).
    let mut pat_end = pat_trees.len();
    let mut depth = 0i32;
    for (j, t) in pat_trees.iter().enumerate() {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if t.is_punct(':') && depth == 0 {
            let double = pat_trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
                || (j > 0 && pat_trees[j - 1].is_punct(':'));
            if !double {
                pat_end = j;
                break;
            }
        }
    }
    let pats = extract_bindings(&pat_trees[..pat_end]);
    let mut init = None;
    let mut else_block = None;
    if trees.get(*i).is_some_and(|t| t.is_punct('=')) {
        *i += 1;
        init = Some(parse_expr(trees, i, true));
        if trees.get(*i).and_then(Tree::ident) == Some("else") {
            *i += 1;
            if let Some(g) = trees.get(*i).and_then(|t| t.group_with('{')) {
                else_block = Some(parse_block(g));
                *i += 1;
            }
        }
    }
    if trees.get(*i).is_some_and(|t| t.is_punct(';')) {
        *i += 1;
    }
    Stmt::Let {
        pats,
        init,
        else_block,
        line,
    }
}

const PAT_KEYWORDS: &[&str] = &["mut", "ref", "box", "_", "move", "if", "in"];

/// Binding names in a pattern: lowercase/underscore-leading idents that
/// are not keywords and not path segments (`a::b`). Uppercase idents
/// are types/variants. Over-approximates struct-pattern shorthand.
pub fn extract_bindings(trees: &[Tree]) -> Vec<String> {
    let mut out = Vec::new();
    collect_bindings(trees, &mut out);
    out
}

fn collect_bindings(trees: &[Tree], out: &mut Vec<String>) {
    for (j, t) in trees.iter().enumerate() {
        match t {
            Tree::Group(g) => collect_bindings(&g.trees, out),
            Tree::Leaf(tok) => {
                let Some(id) = tok.ident() else { continue };
                if PAT_KEYWORDS.contains(&id) || id == "self" {
                    continue;
                }
                if !id.starts_with(|c: char| c.is_lowercase() || c == '_') {
                    continue;
                }
                // Path segment: `seg::...` or `...::seg`.
                let next_colons = trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && trees.get(j + 2).is_some_and(|t| t.is_punct(':'));
                let prev_colons =
                    j >= 2 && trees[j - 1].is_punct(':') && trees[j - 2].is_punct(':');
                if next_colons || prev_colons {
                    continue;
                }
                // `field: subpat` struct-pattern key with a renamed
                // binding: the key is not a binding.
                let renames = trees.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && !trees.get(j + 2).is_some_and(|t| t.is_punct(':'));
                if renames {
                    continue;
                }
                if !out.contains(&id.to_string()) {
                    out.push(id.to_string());
                }
            }
        }
    }
}

// --------------------------------------------------------- expressions

/// Parse one expression starting at `*i`. Stops (without consuming) at
/// top-level `;`, `,`, or `=>`. When `allow_struct` is false, a brace
/// group terminates the expression (if/match/for headers).
fn parse_expr(trees: &[Tree], i: &mut usize, allow_struct: bool) -> Expr {
    let mut e = parse_prefix(trees, i, allow_struct);
    while let Some(t) = trees.get(*i) {
        // Postfix.
        if t.is_punct('.') {
            *i += 1;
            let line = trees.get(*i).map_or(0, Tree::line);
            match trees.get(*i) {
                Some(Tree::Leaf(tok)) => match &tok.kind {
                    TokKind::Ident(name) => {
                        let name = name.clone();
                        *i += 1;
                        // Turbofish: `.collect::<Vec<_>>()`.
                        if trees.get(*i).is_some_and(|t| t.is_punct(':'))
                            && trees.get(*i + 1).is_some_and(|t| t.is_punct(':'))
                        {
                            *i += 2;
                            skip_generics(trees, i);
                        }
                        if let Some(g) = trees.get(*i).and_then(|t| t.group_with('(')) {
                            let args = parse_comma_exprs(&g.trees);
                            *i += 1;
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                method: name,
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
                    }
                    TokKind::Lit => {
                        // Tuple index `.0`.
                        *i += 1;
                        e = Expr::Field {
                            base: Box::new(e),
                            name: "0".to_string(),
                            line,
                        };
                    }
                    _ => {
                        // `..` range — treat the rest as a fresh expr.
                        *i += 1;
                        let rhs = parse_expr(trees, i, allow_struct);
                        e = Expr::Binary {
                            lhs: Box::new(e),
                            rhs: Box::new(rhs),
                        };
                    }
                },
                _ => break,
            }
            continue;
        }
        if let Some(g) = t.group_with('(') {
            let args = parse_comma_exprs(&g.trees);
            let line = g.line;
            *i += 1;
            e = Expr::Call {
                callee: Box::new(e),
                args,
                line,
            };
            continue;
        }
        if let Some(g) = t.group_with('[') {
            let line = g.line;
            let mut j = 0usize;
            let idx = parse_expr(&g.trees, &mut j, true);
            *i += 1;
            e = Expr::Index {
                base: Box::new(e),
                index: Box::new(idx),
                line,
            };
            continue;
        }
        if t.is_punct('?') {
            let line = t.line();
            *i += 1;
            e = Expr::Try(Box::new(e), line);
            continue;
        }
        if t.ident() == Some("as") {
            let line = t.line();
            *i += 1;
            let ty = parse_cast_type(trees, i);
            e = Expr::Cast {
                expr: Box::new(e),
                ty,
                line,
            };
            continue;
        }
        // Statement/argument boundary.
        if t.is_punct(';') || t.is_punct(',') {
            break;
        }
        if t.is_punct('=') && trees.get(*i + 1).is_some_and(|t| t.is_punct('>')) {
            break; // `=>` belongs to a match arm
        }
        // Assignment (plain `=`, not `==`).
        if t.is_punct('=') && !trees.get(*i + 1).is_some_and(|t| t.is_punct('=')) {
            let line = t.line();
            *i += 1;
            let rhs = parse_expr(trees, i, allow_struct);
            e = Expr::Assign {
                lhs: Box::new(e),
                rhs: Box::new(rhs),
                line,
            };
            continue;
        }
        // Binary operators (incl. compound assignment and ranges) —
        // fold right, precedence-free.
        if matches!(t, Tree::Leaf(tok) if matches!(tok.kind, TokKind::Punct(c) if "+-*/%&|^<>!=.".contains(c)))
        {
            // Consume the operator run (`==`, `<<=`, `..=`, ...).
            while trees.get(*i).is_some_and(|t| {
                matches!(t, Tree::Leaf(tok) if matches!(tok.kind, TokKind::Punct(c) if "+-*/%&|^<>=.".contains(c)))
            }) {
                *i += 1;
            }
            // A brace after a range end in a `for`/`if` header: stop.
            if !allow_struct && trees.get(*i).is_some_and(|t| t.group_with('{').is_some()) {
                break;
            }
            if *i >= trees.len() || trees[*i].is_punct(';') || trees[*i].is_punct(',') {
                break; // trailing `..` in struct update / open range
            }
            let rhs = parse_expr(trees, i, allow_struct);
            e = Expr::Binary {
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
            continue;
        }
        break;
    }
    e
}

fn parse_prefix(trees: &[Tree], i: &mut usize, allow_struct: bool) -> Expr {
    let Some(t) = trees.get(*i) else {
        return Expr::Unknown(0);
    };
    let line = t.line();
    // Prefix operators.
    if t.is_punct('&') || t.is_punct('*') || t.is_punct('!') || t.is_punct('-') {
        *i += 1;
        while matches!(trees.get(*i).and_then(Tree::ident), Some("mut")) {
            *i += 1;
        }
        return Expr::Un(Box::new(parse_prefix_chain(trees, i, allow_struct)));
    }
    if let Some(kw) = t.ident() {
        match kw {
            "if" => {
                *i += 1;
                return parse_if(trees, i, line);
            }
            "while" => {
                *i += 1;
                let (cond, pats) = parse_cond(trees, i);
                let body = parse_brace_block(trees, i);
                return Expr::While {
                    cond: Box::new(cond),
                    pats,
                    body,
                };
            }
            "loop" => {
                *i += 1;
                return Expr::Loop(parse_brace_block(trees, i));
            }
            "for" => {
                *i += 1;
                let start = *i;
                while *i < trees.len() && trees[*i].ident() != Some("in") {
                    *i += 1;
                }
                let pats = extract_bindings(&trees[start..*i]);
                *i += 1; // `in`
                let iter = parse_expr(trees, i, false);
                let body = parse_brace_block(trees, i);
                return Expr::For {
                    pats,
                    iter: Box::new(iter),
                    body,
                };
            }
            "match" => {
                *i += 1;
                let scrutinee = parse_expr(trees, i, false);
                let arms = match trees.get(*i) {
                    Some(Tree::Group(g)) if g.delim == '{' => {
                        *i += 1;
                        parse_arms(&g.trees)
                    }
                    _ => Vec::new(),
                };
                return Expr::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                    line,
                };
            }
            "return" => {
                *i += 1;
                let value = if expr_follows(trees, *i) {
                    Some(Box::new(parse_expr(trees, i, allow_struct)))
                } else {
                    None
                };
                return Expr::Return(value, line);
            }
            "break" => {
                *i += 1;
                // Skip a loop label.
                if matches!(trees.get(*i), Some(Tree::Leaf(t)) if t.kind == TokKind::Lit) {
                    *i += 1;
                }
                let value = if expr_follows(trees, *i) {
                    Some(Box::new(parse_expr(trees, i, allow_struct)))
                } else {
                    None
                };
                return Expr::Break(value);
            }
            "continue" => {
                *i += 1;
                if matches!(trees.get(*i), Some(Tree::Leaf(t)) if t.kind == TokKind::Lit) {
                    *i += 1;
                }
                return Expr::Break(None);
            }
            "move" => {
                *i += 1;
                return parse_prefix(trees, i, allow_struct); // closure follows
            }
            "unsafe" => {
                *i += 1;
                return Expr::Block(parse_brace_block(trees, i));
            }
            _ => {
                return parse_path_expr(trees, i, allow_struct);
            }
        }
    }
    // Closures: `|args| body` or `||`.
    if t.is_punct('|') {
        *i += 1;
        let start = *i;
        if trees.get(*i).is_some_and(|t| t.is_punct('|')) {
            *i += 1; // `||` empty params
        } else {
            while *i < trees.len() && !trees[*i].is_punct('|') {
                *i += 1;
            }
            *i += 1; // closing `|`
        }
        let params = extract_bindings(&trees[start..(*i).saturating_sub(1).max(start)]);
        // Optional `-> Type`.
        if trees.get(*i).is_some_and(|t| t.is_punct('-'))
            && trees.get(*i + 1).is_some_and(|t| t.is_punct('>'))
        {
            *i += 2;
            while *i < trees.len() && trees[*i].group_with('{').is_none() {
                *i += 1;
            }
        }
        let body = parse_expr(trees, i, allow_struct);
        return Expr::Closure {
            params,
            body: Box::new(body),
            line,
        };
    }
    match t {
        Tree::Leaf(tok) if tok.kind == TokKind::Lit => {
            *i += 1;
            Expr::Lit(line)
        }
        Tree::Group(g) if g.delim == '(' => {
            let exprs = parse_comma_exprs(&g.trees);
            *i += 1;
            match exprs.len() {
                1 => exprs.into_iter().next().unwrap_or(Expr::Unknown(line)),
                _ => Expr::Tuple(exprs, line),
            }
        }
        Tree::Group(g) if g.delim == '[' => {
            let exprs = parse_comma_exprs(&g.trees);
            *i += 1;
            Expr::Tuple(exprs, line)
        }
        Tree::Group(g) if g.delim == '{' => {
            let b = parse_block(g);
            *i += 1;
            Expr::Block(b)
        }
        _ => {
            *i += 1;
            Expr::Unknown(line)
        }
    }
}

/// Prefix with postfix applied, for unary operands (`&x.lock()` must
/// wrap the whole method chain, not just `x`).
fn parse_prefix_chain(trees: &[Tree], i: &mut usize, allow_struct: bool) -> Expr {
    let mut e = parse_prefix(trees, i, allow_struct);
    while let Some(t) = trees.get(*i) {
        if t.is_punct('.')
            || t.group_with('(').is_some()
            || t.group_with('[').is_some()
            || t.is_punct('?')
        {
            // Re-enter the postfix loop via parse_expr's machinery:
            // simplest is to handle `.`/calls here identically.
            let save = *i;
            let post = parse_expr_postfix_once(trees, i, e);
            match post {
                Ok(next) => {
                    e = next;
                    continue;
                }
                Err(orig) => {
                    *i = save;
                    e = orig;
                    break;
                }
            }
        }
        break;
    }
    e
}

/// Apply exactly one postfix step; returns Err(original) if none applies.
fn parse_expr_postfix_once(trees: &[Tree], i: &mut usize, e: Expr) -> Result<Expr, Expr> {
    let Some(t) = trees.get(*i) else {
        return Err(e);
    };
    if t.is_punct('.') {
        *i += 1;
        let line = trees.get(*i).map_or(0, Tree::line);
        if let Some(Tree::Leaf(tok)) = trees.get(*i) {
            if let TokKind::Ident(name) = &tok.kind {
                let name = name.clone();
                *i += 1;
                if trees.get(*i).is_some_and(|t| t.is_punct(':'))
                    && trees.get(*i + 1).is_some_and(|t| t.is_punct(':'))
                {
                    *i += 2;
                    skip_generics(trees, i);
                }
                if let Some(g) = trees.get(*i).and_then(|t| t.group_with('(')) {
                    let args = parse_comma_exprs(&g.trees);
                    *i += 1;
                    return Ok(Expr::MethodCall {
                        recv: Box::new(e),
                        method: name,
                        args,
                        line,
                    });
                }
                return Ok(Expr::Field {
                    base: Box::new(e),
                    name,
                    line,
                });
            }
            if tok.kind == TokKind::Lit {
                *i += 1;
                return Ok(Expr::Field {
                    base: Box::new(e),
                    name: "0".to_string(),
                    line,
                });
            }
        }
        return Err(e);
    }
    if let Some(g) = t.group_with('(') {
        let args = parse_comma_exprs(&g.trees);
        let line = g.line;
        *i += 1;
        return Ok(Expr::Call {
            callee: Box::new(e),
            args,
            line,
        });
    }
    if let Some(g) = t.group_with('[') {
        let line = g.line;
        let mut j = 0usize;
        let idx = parse_expr(&g.trees, &mut j, true);
        *i += 1;
        return Ok(Expr::Index {
            base: Box::new(e),
            index: Box::new(idx),
            line,
        });
    }
    if t.is_punct('?') {
        let line = t.line();
        *i += 1;
        return Ok(Expr::Try(Box::new(e), line));
    }
    Err(e)
}

fn expr_follows(trees: &[Tree], i: usize) -> bool {
    match trees.get(i) {
        None => false,
        Some(t) => !(t.is_punct(';') || t.is_punct(',')),
    }
}

fn parse_if(trees: &[Tree], i: &mut usize, line: u32) -> Expr {
    let (cond, pats) = parse_cond(trees, i);
    let then = parse_brace_block(trees, i);
    let mut els = None;
    if trees.get(*i).and_then(Tree::ident) == Some("else") {
        *i += 1;
        if trees.get(*i).and_then(Tree::ident) == Some("if") {
            let line2 = trees[*i].line();
            *i += 1;
            els = Some(Box::new(parse_if(trees, i, line2)));
        } else {
            els = Some(Box::new(Expr::Block(parse_brace_block(trees, i))));
        }
    }
    Expr::If {
        cond: Box::new(cond),
        pats,
        then,
        els,
        line,
    }
}

/// Condition of `if`/`while`, handling `let PAT = scrutinee` forms.
/// Returns the scrutinee/condition expression and any pattern bindings.
fn parse_cond(trees: &[Tree], i: &mut usize) -> (Expr, Vec<String>) {
    if trees.get(*i).and_then(Tree::ident) == Some("let") {
        *i += 1;
        let start = *i;
        // Pattern up to top-level `=`.
        while *i < trees.len() {
            let t = &trees[*i];
            if t.is_punct('=')
                && !trees
                    .get(*i + 1)
                    .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
                && !(*i > start
                    && matches!(&trees[*i - 1], Tree::Leaf(p) if p.is_punct('=') || p.is_punct('<') || p.is_punct('>') || p.is_punct('!') || p.is_punct('.')))
            {
                break;
            }
            *i += 1;
        }
        let pats = extract_bindings(&trees[start..*i]);
        *i += 1; // `=`
        let scrutinee = parse_expr(trees, i, false);
        return (scrutinee, pats);
    }
    (parse_expr(trees, i, false), Vec::new())
}

fn parse_brace_block(trees: &[Tree], i: &mut usize) -> Block {
    match trees.get(*i) {
        Some(Tree::Group(g)) if g.delim == '{' => {
            let b = parse_block(g);
            *i += 1;
            b
        }
        _ => Block::default(),
    }
}

fn parse_comma_exprs(trees: &[Tree]) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let before = i;
        let e = parse_expr(trees, &mut i, true);
        out.push(e);
        if trees.get(i).is_some_and(|t| t.is_punct(',')) {
            i += 1;
        }
        if i == before {
            i += 1; // resync
        }
    }
    out
}

fn parse_arms(trees: &[Tree]) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        skip_attrs(trees, &mut i);
        // Pattern (and optional `if` guard) up to `=>`.
        let start = i;
        while i < trees.len() {
            if trees[i].is_punct('=') && trees.get(i + 1).is_some_and(|t| t.is_punct('>')) {
                break;
            }
            i += 1;
        }
        if i >= trees.len() {
            break;
        }
        let pats = extract_bindings(&trees[start..i]);
        i += 2; // `=>`
        let body = parse_expr(trees, &mut i, true);
        arms.push(Arm { pats, body });
        if trees.get(i).is_some_and(|t| t.is_punct(',')) {
            i += 1;
        }
    }
    arms
}

fn parse_path_expr(trees: &[Tree], i: &mut usize, allow_struct: bool) -> Expr {
    let line = trees.get(*i).map_or(0, Tree::line);
    let mut segs = Vec::new();
    while let Some(id) = trees.get(*i).and_then(Tree::ident) {
        segs.push(id.to_string());
        *i += 1;
        if trees.get(*i).is_some_and(|t| t.is_punct(':'))
            && trees.get(*i + 1).is_some_and(|t| t.is_punct(':'))
        {
            *i += 2;
            // Turbofish in path position: `Vec::<u8>::new`.
            if trees.get(*i).is_some_and(|t| t.is_punct('<')) {
                skip_generics(trees, i);
                if !(trees.get(*i).is_some_and(|t| t.is_punct(':'))
                    && trees.get(*i + 1).is_some_and(|t| t.is_punct(':')))
                {
                    break;
                }
                *i += 2;
            }
            continue;
        }
        break;
    }
    // Macro invocation: `name!(...)` / `name![...]` / `name!{...}`.
    if trees.get(*i).is_some_and(|t| t.is_punct('!')) {
        if let Some(g) = trees.get(*i + 1).and_then(Tree::group) {
            let name = segs.last().cloned().unwrap_or_default();
            let args = parse_comma_exprs(&g.trees);
            *i += 2;
            return Expr::Macro { name, args, line };
        }
    }
    // Struct literal: `Path { field: expr, .. }`.
    if allow_struct {
        if let Some(g) = trees.get(*i).and_then(|t| t.group_with('{')) {
            let starts_upper = segs
                .last()
                .and_then(|s| s.chars().next())
                .is_some_and(char::is_uppercase);
            if starts_upper {
                let fields = parse_struct_lit_fields(&g.trees);
                *i += 1;
                return Expr::StructLit {
                    path: segs,
                    fields,
                    line,
                };
            }
        }
    }
    if segs.is_empty() {
        *i += 1;
        return Expr::Unknown(line);
    }
    Expr::Path(segs, line)
}

fn parse_struct_lit_fields(trees: &[Tree]) -> Vec<(String, Expr)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let before = i;
        skip_attrs(trees, &mut i);
        // `..base` functional update.
        if trees.get(i).is_some_and(|t| t.is_punct('.')) {
            while i < trees.len() && !trees[i].is_punct(',') {
                i += 1;
            }
            i += 1;
            continue;
        }
        let Some(name) = trees.get(i).and_then(Tree::ident) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        i += 1;
        let value = if trees.get(i).is_some_and(|t| t.is_punct(':')) {
            i += 1;
            parse_expr(trees, &mut i, true)
        } else {
            // Shorthand `Foo { x }`.
            Expr::Path(vec![name.clone()], 0)
        };
        out.push((name, value));
        if trees.get(i).is_some_and(|t| t.is_punct(',')) {
            i += 1;
        }
        if i == before {
            i += 1;
        }
    }
    out
}

fn parse_cast_type(trees: &[Tree], i: &mut usize) -> String {
    // Leading `&`/`*`/`mut`/`const`/`dyn`.
    while trees.get(*i).is_some_and(|t| {
        t.is_punct('&') || t.is_punct('*') || matches!(t.ident(), Some("mut" | "const" | "dyn"))
    }) {
        *i += 1;
    }
    let mut head = String::new();
    while let Some(id) = trees.get(*i).and_then(Tree::ident) {
        head = id.to_string();
        *i += 1;
        if trees.get(*i).is_some_and(|t| t.is_punct(':'))
            && trees.get(*i + 1).is_some_and(|t| t.is_punct(':'))
        {
            *i += 2;
            continue;
        }
        break;
    }
    if trees.get(*i).is_some_and(|t| t.is_punct('<')) {
        skip_generics(trees, i);
    }
    head
}

// ------------------------------------------------------------- walking

/// Pre-order walk over every expression in a block, including
/// closure bodies, match arms, nested blocks, and nested items' fns.
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(item) => walk_item(item, f),
        }
    }
}

pub fn walk_item(item: &Item, f: &mut impl FnMut(&Expr)) {
    match item {
        Item::Fn(func) => {
            if let Some(b) = &func.body {
                walk_block(b, f);
            }
        }
        Item::Impl { items, .. } | Item::Mod { items, .. } | Item::Trait { items, .. } => {
            for it in items {
                walk_item(it, f);
            }
        }
        _ => {}
    }
}

pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Field { base, .. } => walk_expr(base, f),
        Expr::Index { base, index, .. } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        Expr::Un(inner) | Expr::Try(inner, _) => walk_expr(inner, f),
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::Block(b) | Expr::Loop(b) => walk_block(b, f),
        Expr::If {
            cond, then, els, ..
        } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                walk_expr(&arm.body, f);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::Macro { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                walk_expr(v, f);
            }
        }
        Expr::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Binary { lhs, rhs } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Expr::Return(Some(v), _) | Expr::Break(Some(v)) => walk_expr(v, f),
        Expr::Tuple(exprs, _) => {
            for e in exprs {
                walk_expr(e, f);
            }
        }
        Expr::Path(..)
        | Expr::Lit(_)
        | Expr::Return(None, _)
        | Expr::Break(None)
        | Expr::Unknown(_) => {}
    }
}

/// Every function in a file, with its impl-type context (`None` for
/// free functions). Recurses into mods, impls, and traits.
pub fn collect_fns<'a>(items: &'a [Item], out: &mut Vec<(Option<&'a str>, &'a FnItem)>) {
    for item in items {
        match item {
            Item::Fn(f) => out.push((None, f)),
            Item::Impl { type_name, items } => {
                for it in items {
                    if let Item::Fn(f) = it {
                        out.push((Some(type_name.as_str()), f));
                    } else {
                        collect_fns(std::slice::from_ref(it), out);
                    }
                }
            }
            Item::Mod { items, .. } | Item::Trait { items, .. } => collect_fns(items, out),
            _ => {}
        }
    }
}

/// Every type alias in a file, recursing into mods and impls.
pub fn collect_aliases<'a>(items: &'a [Item], out: &mut Vec<(&'a str, &'a [String])>) {
    for item in items {
        match item {
            Item::TypeAlias { name, ty, .. } => out.push((name.as_str(), ty.as_slice())),
            Item::Mod { items, .. } | Item::Impl { items, .. } | Item::Trait { items, .. } => {
                collect_aliases(items, out)
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic
    )]

    use super::*;

    fn parse(src: &str) -> FileAst {
        parse_file(src).unwrap()
    }

    fn first_fn(ast: &FileAst) -> &FnItem {
        let mut fns = Vec::new();
        collect_fns(&ast.items, &mut fns);
        fns[0].1
    }

    #[test]
    fn parses_fn_signature_and_method() {
        let ast = parse("impl Foo { pub fn read_x(&self, n: usize) -> Result<u64, E> { Ok(0) } }");
        let mut fns = Vec::new();
        collect_fns(&ast.items, &mut fns);
        let (ctx, f) = fns[0];
        assert_eq!(ctx, Some("Foo"));
        assert_eq!(f.name, "read_x");
        assert!(f.is_method);
        assert_eq!(f.vis, Vis::Pub);
        assert_eq!(f.ret.first().map(String::as_str), Some("Result"));
    }

    #[test]
    fn method_chain_and_call_shapes() {
        let ast = parse("fn f() { let g = self.map.read(); x.do_it(a, b); File::open(p); }");
        let f = first_fn(&ast);
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3);
        match &body.stmts[0] {
            Stmt::Let {
                pats,
                init: Some(Expr::MethodCall { method, recv, .. }),
                ..
            } => {
                assert_eq!(pats, &["g"]);
                assert_eq!(method, "read");
                assert!(matches!(&**recv, Expr::Field { name, .. } if name == "map"));
            }
            other => panic!("{other:?}"),
        }
        match &body.stmts[2] {
            Stmt::Expr(Expr::Call { callee, .. }) => {
                assert!(matches!(&**callee, Expr::Path(segs, _) if segs == &["File", "open"]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_let_and_match_bindings() {
        let ast = parse(
            "fn f() { if let Some(x) = find() { use_it(x); } match v { Ok(y) => y.go(), Err(e) => handle(e), } }",
        );
        let f = first_fn(&ast);
        let body = f.body.as_ref().unwrap();
        match &body.stmts[0] {
            Stmt::Expr(Expr::If { pats, .. }) => assert_eq!(pats, &["x"]),
            other => panic!("{other:?}"),
        }
        match &body.stmts[1] {
            Stmt::Expr(Expr::Match { arms, .. }) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].pats, vec!["y"]);
                assert_eq!(arms[1].pats, vec!["e"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn closures_and_macros_are_walked() {
        let ast =
            parse("fn f() { pool.run(|| item.unwrap()); println!(\"{}\", x.expect(\"e\")); }");
        let f = first_fn(&ast);
        let mut methods = Vec::new();
        walk_block(f.body.as_ref().unwrap(), &mut |e| {
            if let Expr::MethodCall { method, .. } = e {
                methods.push(method.clone());
            }
        });
        assert!(methods.contains(&"unwrap".to_string()));
        assert!(methods.contains(&"expect".to_string()));
    }

    #[test]
    fn casts_and_indexing() {
        let ast = parse("fn f(b: &[u8]) -> u8 { let x = b[0]; let y = n as u32; x }");
        let f = first_fn(&ast);
        let mut saw_index = false;
        let mut cast_ty = String::new();
        walk_block(f.body.as_ref().unwrap(), &mut |e| match e {
            Expr::Index { .. } => saw_index = true,
            Expr::Cast { ty, .. } => cast_ty = ty.clone(),
            _ => {}
        });
        assert!(saw_index);
        assert_eq!(cast_ty, "u32");
    }

    #[test]
    fn type_alias_after_skipped_structs() {
        let ast = parse(
            "pub struct A { pub x: [AtomicU64; 4] }\nstruct B(u8) where u8: Copy;\nstruct C;\npub type DecodeResult = Result<Vec<Point>, Corrupt>;",
        );
        let mut aliases = Vec::new();
        collect_aliases(&ast.items, &mut aliases);
        assert_eq!(aliases.len(), 1);
        assert_eq!(aliases[0].0, "DecodeResult");
        assert_eq!(aliases[0].1.first().map(String::as_str), Some("Result"));
    }

    #[test]
    fn test_code_is_stripped_before_parse() {
        let ast = parse("#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }\nfn keep() {}");
        let mut fns = Vec::new();
        collect_fns(&ast.items, &mut fns);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].1.name, "keep");
    }

    #[test]
    fn imbalance_is_an_error() {
        assert!(parse_file("fn f() { let x = (1; }").is_err());
    }

    #[test]
    fn shadowing_let_statements_parse_in_order() {
        let ast = parse("fn f() { let g = a.lock(); let g = other(); g.use_it(); }");
        let f = first_fn(&ast);
        let lets = f
            .body
            .as_ref()
            .unwrap()
            .stmts
            .iter()
            .filter(|s| matches!(s, Stmt::Let { .. }))
            .count();
        assert_eq!(lets, 2);
    }
}
