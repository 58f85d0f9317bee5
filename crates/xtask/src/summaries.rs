//! Per-function summaries and their transitive propagation.
//!
//! Each workspace function gets three facts computed from its own body
//! (spawn-closure bodies excluded — they run on another thread):
//!
//! - **does_io** — reaches file I/O or chunk decode; propagates
//!   through call edges except through *sanctioned* callee names
//!   (`append`/`commit`, the delete log's `trim_through`: durability
//!   writes under the series shard lock are the critical section that
//!   lock exists to serialize, see DESIGN).
//! - **blocking** — reaches blocking I/O or an unbounded wait (frame
//!   writes, `join`, `recv`, file syscalls); propagates unconditionally.
//! - **returns_guard** — returns a lock/RefCell guard, by return type
//!   or by tail expression (`self.inner.lock()`); does not propagate.
//!
//! The dataflow pass and the L5 rule consult these by callee *name*,
//! unioning over same-named candidates (conservative, like the graph).

use crate::ast::{Block, Expr, FnItem, Stmt};
use crate::callgraph::{is_spawn_call, CallGraph};

/// Zero-argument methods that acquire a lock/RefCell guard.
pub const ACQUIRE_METHODS: &[&str] = &["read", "write", "lock", "borrow", "borrow_mut"];

/// Names whose appearance as a call or path segment means file I/O or
/// chunk decoding. Deliberately absent: `append` and `commit` — see
/// module docs and [`SANCTIONED_L2_CALLEES`].
pub const IO_DECODE_CALLEES: &[&str] = &[
    "read_chunk",
    "read_page_points",
    "read_page_timestamps",
    "read_points",
    "read_values",
    "decode",
    "decode_i64",
    "decode_f64",
    "decode_until",
    "open",
    "create",
    "flush",
    "flush_to_disk",
    "write_chunk",
    "finish",
    "write_all",
    "sync_all",
    "sync_data",
    "File",
    "OpenOptions",
    "fs",
    "TsFileReader",
    "TsFileWriter",
    "replay",
    "decode_page",
    "decode_page_timestamps",
    "read_exact_at",
    "run_indexed",
    "compact",
    // Page-aware compaction: the merge/copy execution below is file
    // I/O and must stay in the unlocked phase.
    "merge_to_file",
    "read_page_window_raw",
    "read_pages_overlapping",
    "write_chunk_raw",
    "read_pooled_at",
];

/// Callee names through which `does_io` does *not* propagate to the
/// caller: WAL durability appends and the group-commit drain under a
/// shard guard are the sanctioned critical section (DESIGN §WAL).
/// `append_inserts`/`append_delete` are the typed WAL
/// entry points the write/delete paths call under the series shard
/// write lock — the same sanction, made explicit because transitive
/// propagation would otherwise surface them. `sync_if_dirty` is the
/// catalog fsync that must complete *before* any id-tagged WAL record
/// is fsynced under the same guard (a durable record whose id binding
/// was lost makes the store unopenable), so it belongs to the same
/// critical section. `trim_through` is the delete log's other
/// durability write: a compaction rewrites a series' log to the entries
/// it did not apply, under the guard `delete`'s `append` to that log
/// runs under — an append between reading the entries and renaming the
/// rewrite into place would be lost. Any other file rewrite under a
/// guard is still a finding.
pub const SANCTIONED_L2_CALLEES: &[&str] = &[
    "append",
    "commit",
    "append_inserts",
    "append_delete",
    "sync_if_dirty",
    "trim_through",
];

/// Blocking shapes beyond file I/O: socket frame I/O and unbounded
/// waits. Bounded waits (`sleep`, `recv_timeout`, `wait_timeout`) are
/// deliberately absent.
pub const BLOCKING_CALLEES: &[&str] = &[
    "write_frame",
    "read_frame",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "join",
    "recv",
    "wait",
    "copy",
];

/// Return-type heads that denote a guard value.
pub const GUARD_TYPE_HEADS: &[&str] = &[
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Ref",
    "RefMut",
];

/// Names excluded from *name-based* call resolution. These are
/// ubiquitous std collection/iterator/constructor method names: a
/// call like `.get()` or `.insert()` is almost always
/// `HashMap::get`, and resolving it to a same-named workspace
/// function (the engine has its own `get`) floods L2/L5 with false
/// chains. The cost is real: a workspace helper *named* `get` that
/// does I/O will not propagate that fact to callers — such helpers
/// must either use a distinctive name or call a listed I/O name
/// directly (which is still caught at the call site).
pub const AMBIENT_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "take",
    "push",
    "pop",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "drain",
    "clear",
    "retain",
    "map",
    "and_then",
    "filter",
    "collect",
    "first",
    "last",
    "min",
    "max",
    "sum",
    "sort",
    "binary_search",
    "new",
    "default",
    "from",
    "into",
    "to_vec",
];

fn is_ambient(name: &str) -> bool {
    AMBIENT_METHODS.contains(&name)
}

#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub does_io: bool,
    pub blocking: bool,
    pub returns_guard: bool,
    /// Example callee chain for messages, e.g. `flush_series → flush`.
    pub io_via: Option<String>,
    pub blocking_via: Option<String>,
}

pub struct Summaries<'a> {
    pub graph: CallGraph<'a>,
    pub facts: Vec<FnFacts>,
}

impl<'a> Summaries<'a> {
    pub fn compute(graph: CallGraph<'a>) -> Summaries<'a> {
        let mut facts: Vec<FnFacts> = graph.fns.iter().map(|f| direct_facts(f.item)).collect();
        // Fixpoint: propagate along name-resolved edges.
        loop {
            let mut changed = false;
            for (caller, names) in graph.calls.iter().enumerate() {
                for name in names {
                    if is_ambient(name) {
                        continue;
                    }
                    let sanctioned = SANCTIONED_L2_CALLEES.contains(&name.as_str());
                    for &callee in graph.fns_named(name) {
                        if callee == caller {
                            continue;
                        }
                        let (c_io, c_block) = {
                            let c = &facts[callee];
                            (c.does_io, c.blocking)
                        };
                        let f = &mut facts[caller];
                        if c_io && !sanctioned && !f.does_io {
                            f.does_io = true;
                            f.io_via = Some(name.clone());
                            changed = true;
                        }
                        if c_block && !f.blocking {
                            f.blocking = true;
                            f.blocking_via = Some(name.clone());
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        Summaries { graph, facts }
    }

    fn any_named(&self, name: &str, pred: impl Fn(&FnFacts) -> bool) -> bool {
        self.graph
            .fns_named(name)
            .iter()
            .any(|&i| pred(&self.facts[i]))
    }

    /// Why a call to `name` counts as file I/O / chunk decode for L2:
    /// `None` if it doesn't, `Some(desc)` naming the evidence.
    pub fn io_reason(&self, name: &str) -> Option<String> {
        if IO_DECODE_CALLEES.contains(&name) {
            return Some(format!("`{name}`"));
        }
        if SANCTIONED_L2_CALLEES.contains(&name) || is_ambient(name) {
            return None;
        }
        self.graph
            .fns_named(name)
            .iter()
            .find(|&&i| self.facts[i].does_io)
            .map(|&i| match &self.facts[i].io_via {
                Some(via) => format!("`{name}` → {via}"),
                None => format!("`{name}`"),
            })
    }

    /// Why a call to `name` blocks, for L5. Same shape as
    /// [`Self::io_reason`].
    pub fn blocking_reason(&self, name: &str) -> Option<String> {
        if IO_DECODE_CALLEES.contains(&name) || BLOCKING_CALLEES.contains(&name) {
            return Some(format!("`{name}`"));
        }
        if is_ambient(name) {
            return None;
        }
        self.graph
            .fns_named(name)
            .iter()
            .find(|&&i| self.facts[i].blocking)
            .map(|&i| match &self.facts[i].blocking_via {
                Some(via) => format!("`{name}` → {via}"),
                None => format!("`{name}`"),
            })
    }

    /// Does some workspace function named `name` return a guard?
    pub fn returns_guard(&self, name: &str) -> bool {
        !is_ambient(name) && self.any_named(name, |f| f.returns_guard)
    }
}

/// Facts from one function body alone (no propagation).
fn direct_facts(f: &FnItem) -> FnFacts {
    let mut facts = FnFacts::default();
    // Return type: a guard head anywhere in the leading path of the
    // return type (e.g. `RwLockReadGuard<'_, Map>`).
    if f.ret
        .iter()
        .take(4)
        .any(|t| GUARD_TYPE_HEADS.contains(&t.as_str()))
    {
        facts.returns_guard = true;
    }
    let Some(body) = &f.body else {
        return facts;
    };
    scan_block(body, &mut facts);
    // Tail expression produces a guard: `pub fn series(&self) -> ... {
    // self.inner.lock() }` (possibly behind `return`).
    if tail_is_acquire(body) {
        facts.returns_guard = true;
    }
    facts
}

fn is_acquire_expr(e: &Expr) -> bool {
    match e {
        Expr::MethodCall { method, args, .. } => {
            ACQUIRE_METHODS.contains(&method.as_str()) && args.is_empty()
        }
        Expr::Try(inner, _) | Expr::Un(inner) => is_acquire_expr(inner),
        _ => false,
    }
}

fn tail_is_acquire(body: &Block) -> bool {
    if let Some(Stmt::Expr(e)) = body.stmts.last() {
        if is_acquire_expr(e) {
            return true;
        }
    }
    let mut found = false;
    crate::ast::walk_block(body, &mut |e| {
        if let Expr::Return(Some(v), _) = e {
            if is_acquire_expr(v) {
                found = true;
            }
        }
    });
    found
}

fn scan_block(b: &Block, facts: &mut FnFacts) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    scan_expr(e, facts);
                }
                if let Some(blk) = else_block {
                    scan_block(blk, facts);
                }
            }
            Stmt::Expr(e) => scan_expr(e, facts),
            Stmt::Item(_) => {}
        }
    }
}

fn note_call(name: &str, facts: &mut FnFacts) {
    if IO_DECODE_CALLEES.contains(&name) {
        if !facts.does_io {
            facts.does_io = true;
            facts.io_via = Some(format!("`{name}`"));
        }
        if !facts.blocking {
            facts.blocking = true;
            facts.blocking_via = Some(format!("`{name}`"));
        }
    }
    if BLOCKING_CALLEES.contains(&name) && !facts.blocking {
        facts.blocking = true;
        facts.blocking_via = Some(format!("`{name}`"));
    }
}

fn scan_expr(e: &Expr, facts: &mut FnFacts) {
    let spawn = is_spawn_call(e);
    match e {
        Expr::MethodCall {
            recv, method, args, ..
        } => {
            if !(ACQUIRE_METHODS.contains(&method.as_str()) && args.is_empty()) {
                note_call(method, facts);
            }
            scan_expr(recv, facts);
            for a in args {
                if spawn && matches!(a, Expr::Closure { .. }) {
                    continue;
                }
                scan_expr(a, facts);
            }
        }
        Expr::Call { callee, args, .. } => {
            if let Expr::Path(segs, _) = &**callee {
                for seg in segs {
                    note_call(seg, facts);
                }
            } else {
                scan_expr(callee, facts);
            }
            for a in args {
                if spawn && matches!(a, Expr::Closure { .. }) {
                    continue;
                }
                scan_expr(a, facts);
            }
        }
        Expr::Path(segs, _) if segs.len() > 1 => {
            // Bare path mention (`File::open` as a value).
            for seg in segs {
                note_call(seg, facts);
            }
        }
        Expr::Macro { args, .. } => {
            for a in args {
                scan_expr(a, facts);
            }
        }
        Expr::Field { base, .. } => scan_expr(base, facts),
        Expr::Index { base, index, .. } => {
            scan_expr(base, facts);
            scan_expr(index, facts);
        }
        Expr::Un(inner) | Expr::Try(inner, _) => scan_expr(inner, facts),
        Expr::Cast { expr, .. } => scan_expr(expr, facts),
        Expr::Block(b) | Expr::Loop(b) => scan_block(b, facts),
        Expr::If {
            cond, then, els, ..
        } => {
            scan_expr(cond, facts);
            scan_block(then, facts);
            if let Some(e) = els {
                scan_expr(e, facts);
            }
        }
        Expr::While { cond, body, .. } => {
            scan_expr(cond, facts);
            scan_block(body, facts);
        }
        Expr::For { iter, body, .. } => {
            scan_expr(iter, facts);
            scan_block(body, facts);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            scan_expr(scrutinee, facts);
            for arm in arms {
                scan_expr(&arm.body, facts);
            }
        }
        Expr::Closure { body, .. } => scan_expr(body, facts),
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                scan_expr(v, facts);
            }
        }
        Expr::Assign { lhs, rhs, .. } => {
            scan_expr(lhs, facts);
            scan_expr(rhs, facts);
        }
        Expr::Binary { lhs, rhs } => {
            scan_expr(lhs, facts);
            scan_expr(rhs, facts);
        }
        Expr::Return(Some(v), _) | Expr::Break(Some(v)) => scan_expr(v, facts),
        Expr::Tuple(exprs, _) => {
            for x in exprs {
                scan_expr(x, facts);
            }
        }
        Expr::Path(..)
        | Expr::Lit(_)
        | Expr::Return(None, _)
        | Expr::Break(None)
        | Expr::Unknown(_) => {}
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use crate::ast::parse_file;

    fn summaries(
        src: &str,
    ) -> (
        Vec<(String, crate::ast::FileAst)>,
        Vec<String>,
        Vec<FnFacts>,
    ) {
        let files = vec![("a.rs".to_string(), parse_file(src).unwrap())];
        let graph = crate::callgraph::build(&files);
        let names: Vec<String> = graph.fns.iter().map(|f| f.item.name.clone()).collect();
        let facts = Summaries::compute(graph).facts;
        (files, names, facts)
    }

    fn fact<'a>(names: &[String], facts: &'a [FnFacts], name: &str) -> &'a FnFacts {
        let i = names.iter().position(|n| n == name).unwrap();
        &facts[i]
    }

    #[test]
    fn io_propagates_two_helpers_deep() {
        let (_f, names, facts) = summaries(
            "fn leaf() { self.reader.read_chunk(m); }\nfn mid() { leaf(); }\nfn top() { mid(); }",
        );
        assert!(fact(&names, &facts, "leaf").does_io);
        assert!(fact(&names, &facts, "mid").does_io);
        assert!(fact(&names, &facts, "top").does_io);
    }

    #[test]
    fn sanctioned_append_does_not_propagate_io() {
        let (_f, names, facts) =
            summaries("fn append() { self.file.write_all(b); }\nfn caller() { w.append(rec); }");
        assert!(fact(&names, &facts, "append").does_io);
        assert!(!fact(&names, &facts, "caller").does_io);
        // Blocking still propagates: sanctioning is an L2 concept.
        assert!(fact(&names, &facts, "caller").blocking);
    }

    #[test]
    fn returns_guard_by_tail_and_by_type() {
        let (_f, names, facts) = summaries(
            "fn series(&self) { self.inner.lock() }\nfn typed(&self) -> RwLockReadGuard<'_, M> { g() }\nfn plain() -> usize { 0 }",
        );
        assert!(fact(&names, &facts, "series").returns_guard);
        assert!(fact(&names, &facts, "typed").returns_guard);
        assert!(!fact(&names, &facts, "plain").returns_guard);
    }

    #[test]
    fn spawn_closures_do_not_leak_facts() {
        let (_f, names, facts) =
            summaries("fn bg() { std::thread::spawn(move || { File::create(p).unwrap(); }); }");
        let f = fact(&names, &facts, "bg");
        assert!(!f.does_io, "{f:?}");
    }
}
