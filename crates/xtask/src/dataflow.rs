//! Intraprocedural guard dataflow.
//!
//! Tracks lock/RefCell guard values through `let` bindings, moves,
//! shadowing, field stores, destructuring, branches, and temporaries
//! with drop-rule-faithful lifetimes:
//!
//! - a `let`-bound guard lives to the end of its block scope;
//! - a shadowed guard binding keeps the *old* guard alive to scope end
//!   (shadowing is not a drop);
//! - `let g2 = g;` moves — one guard, new name; `drop(g)` kills it;
//! - `let _ = x.lock();` drops immediately (`_` binds nothing);
//! - a guard stored into a field (`self.held = Some(g)`) is kept live
//!   to the end of the function (conservative);
//! - statement temporaries (`x.lock().get(k)`) die at the `;`, plain
//!   `if` condition temporaries die before the branches run, and
//!   `match`/`if let` scrutinee temporaries live through the arms;
//! - closures handed to `spawn` run on another thread: outer guards
//!   are not live inside them, and their own body is analyzed as a
//!   fresh context.
//!
//! Guard *sources* are zero-arg acquire methods (`.lock()`, `.read()`,
//! ...), workspace functions whose summary says they return a guard
//! (helper-returned guards), and local aliases of either. I/O *sinks*
//! are the L2 callee list plus any workspace function whose summary
//! reaches I/O transitively. Local function aliases (`let f =
//! File::open; f(p)`) resolve through the binding to the sink facts —
//! the escape hatch DESIGN.md §6 documented for the lexical engine.
//!
//! Known over/under-approximations, by choice: a guard returned from a
//! branch of an `if`/`match` that is not the first guard-yielding
//! branch decays to a statement temporary; field-read guards
//! (`self.held` used in a *different* method) are not re-tracked.

use crate::ast::{Block, Expr, FnItem, Stmt};
use crate::callgraph::is_spawn_call;
use crate::summaries::{Summaries, ACQUIRE_METHODS, IO_DECODE_CALLEES};

/// One guard-across-I/O event from the dataflow pass.
#[derive(Debug)]
pub struct Finding {
    pub line: u32,
    pub message: String,
}

#[derive(Debug, Clone)]
enum Value {
    Guard(usize),
    /// A function value bound to a local: path segments of the target.
    FnAlias(Vec<String>),
    Other,
}

struct GuardInfo {
    via: String,
    line: u32,
}

#[derive(Default)]
struct Scope {
    bindings: Vec<(String, Value)>,
    /// Guards alive to scope end without a (current) name: shadowed-
    /// away values, destructured temporaries, and — in the outermost
    /// scope — field-stored guards.
    anon: Vec<usize>,
}

struct Flow<'a, 'b> {
    sums: &'a Summaries<'a>,
    sink: &'b mut dyn FnMut(Finding),
    guards: Vec<GuardInfo>,
    alive: Vec<bool>,
    scopes: Vec<Scope>,
    /// Guards owned by the statement currently being evaluated.
    temps: Vec<usize>,
    reported: Vec<(u32, String)>,
}

/// Run the guard dataflow over one function body.
pub fn analyze_fn(f: &FnItem, sums: &Summaries, sink: &mut dyn FnMut(Finding)) {
    let Some(body) = &f.body else { return };
    let mut flow = Flow {
        sums,
        sink,
        guards: Vec::new(),
        alive: Vec::new(),
        scopes: Vec::new(),
        temps: Vec::new(),
        reported: Vec::new(),
    };
    flow.eval_block(body);
}

impl Flow<'_, '_> {
    // ----------------------------------------------------- guard state

    fn new_guard(&mut self, via: &str, line: u32) -> usize {
        self.guards.push(GuardInfo {
            via: via.to_string(),
            line,
        });
        self.alive.push(true);
        self.temps.push(self.guards.len() - 1);
        self.guards.len() - 1
    }

    fn kill(&mut self, id: usize) {
        if let Some(a) = self.alive.get_mut(id) {
            *a = false;
        }
    }

    /// Transfer a guard out of the temp pool (it found an owner).
    fn untemp(&mut self, id: usize) {
        if let Some(pos) = self.temps.iter().rposition(|&t| t == id) {
            self.temps.remove(pos);
        }
    }

    fn checkpoint(&self) -> usize {
        self.temps.len()
    }

    /// Statement/region end: temporaries created since `chk` die.
    fn kill_temps(&mut self, chk: usize) {
        while self.temps.len() > chk {
            if let Some(id) = self.temps.pop() {
                self.kill(id);
            }
        }
    }

    /// Region end where the temporaries *escape* into the enclosing
    /// function scope instead of dying (field stores, destructuring).
    fn promote_temps(&mut self, chk: usize, to_function_scope: bool) {
        while self.temps.len() > chk {
            if let Some(id) = self.temps.pop() {
                let idx = if to_function_scope {
                    0
                } else {
                    self.scopes.len() - 1
                };
                if let Some(s) = self.scopes.get_mut(idx) {
                    s.anon.push(id);
                }
            }
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(Scope::default());
    }

    fn pop_scope(&mut self) {
        if let Some(scope) = self.scopes.pop() {
            for (_, v) in scope.bindings {
                if let Value::Guard(id) = v {
                    self.kill(id);
                }
            }
            for id in scope.anon {
                self.kill(id);
            }
        }
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        for scope in self.scopes.iter().rev() {
            for (n, v) in scope.bindings.iter().rev() {
                if n == name {
                    return Some(v.clone());
                }
            }
        }
        None
    }

    /// Bind in the *current* scope. A guard shadowed in the same scope
    /// stays alive (anonymous) to scope end — shadowing is not a drop.
    fn bind(&mut self, name: &str, value: Value) {
        if let Value::Guard(id) = value {
            self.untemp(id);
        }
        let Some(scope) = self.scopes.last_mut() else {
            return;
        };
        if let Some(pos) = scope.bindings.iter().position(|(n, _)| n == name) {
            let (_, old) = scope.bindings.remove(pos);
            if let Value::Guard(old_id) = old {
                scope.anon.push(old_id);
            }
        }
        scope.bindings.push((name.to_string(), value));
    }

    /// Remove a binding in any scope (moves, `drop`).
    fn remove_binding(&mut self, name: &str) -> Option<Value> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(pos) = scope.bindings.iter().rposition(|(n, _)| n == name) {
                return Some(scope.bindings.remove(pos).1);
            }
        }
        None
    }

    /// All currently-live guards, as (display-name, line) pairs.
    fn live_guards(&self) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        let mut seen = Vec::new();
        let mut add = |id: usize, name: Option<&str>, flow: &Flow| {
            if !flow.alive.get(id).copied().unwrap_or(false) || seen.contains(&id) {
                return;
            }
            seen.push(id);
            let g = &flow.guards[id];
            let display = match name {
                Some(n) => format!("{n}: {}", g.via),
                None => g.via.clone(),
            };
            out.push((display, g.line));
        };
        for scope in &self.scopes {
            for (n, v) in &scope.bindings {
                if let Value::Guard(id) = v {
                    add(*id, Some(n), self);
                }
            }
            for &id in &scope.anon {
                add(id, None, self);
            }
        }
        for &id in &self.temps {
            add(id, None, self);
        }
        out
    }

    // -------------------------------------------------------- reporting

    fn report_io(&mut self, display: &str, reason: &str, line: u32, alias: Option<&str>) {
        let key = (line, display.to_string());
        if self.reported.contains(&key) {
            return;
        }
        let live = self.live_guards();
        if live.is_empty() {
            return;
        }
        self.reported.push(key);
        let alias_note = alias
            .map(|a| format!(" (called via local alias `{a}`)"))
            .unwrap_or_default();
        let why = if reason == format!("`{display}`") {
            String::new()
        } else {
            format!(" (reaches I/O via {reason})")
        };
        for (guard_name, guard_line) in live {
            (self.sink)(Finding {
                line,
                message: format!(
                    "`{display}`{alias_note} (file I/O / chunk decode{why}) reached while a \
                     `{guard_name}` guard from line {guard_line} is live; narrow the guard's scope"
                ),
            });
        }
    }

    /// Does a call to `name` count as an I/O sink? Returns the reason.
    fn io_reason_for(&self, name: &str) -> Option<String> {
        self.sums.io_reason(name)
    }

    // ------------------------------------------------------- evaluation

    /// Evaluate a block; the tail expression's value (and its
    /// temporaries) escape to the caller's region.
    fn eval_block(&mut self, b: &Block) -> Value {
        self.push_scope();
        let n = b.stmts.len();
        let mut result = Value::Other;
        for (i, stmt) in b.stmts.iter().enumerate() {
            let tail = i + 1 == n;
            match stmt {
                Stmt::Expr(e) if tail => {
                    // Tail value escapes: no checkpoint.
                    result = self.eval(e);
                }
                _ => {
                    let chk = self.checkpoint();
                    self.stmt(stmt);
                    self.kill_temps(chk);
                }
            }
        }
        // The scope's named/anon guards die; the escaping tail value
        // must survive the pop if it is a guard.
        if let Value::Guard(id) = result {
            // Make sure the guard is owned by temps (caller region),
            // not by a binding in the dying scope.
            let owned_by_scope = self.scopes.last().is_some_and(|s| {
                s.bindings
                    .iter()
                    .any(|(_, v)| matches!(v, Value::Guard(g) if *g == id))
            });
            if owned_by_scope {
                // `{ let g = x.lock(); g }` — move out of the binding.
                if let Some(s) = self.scopes.last_mut() {
                    s.bindings
                        .retain(|(_, v)| !matches!(v, Value::Guard(g) if *g == id));
                }
                self.temps.push(id);
            }
        }
        self.pop_scope();
        result
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let {
                pats,
                init,
                else_block,
                ..
            } => {
                let chk = self.checkpoint();
                let val = init.as_ref().map(|e| {
                    // `let g2 = g;` is a move: unbind the source.
                    if let Expr::Path(segs, _) = e {
                        if segs.len() == 1 && self.lookup(&segs[0]).is_some() {
                            return self.remove_binding(&segs[0]).unwrap_or(Value::Other);
                        }
                    }
                    self.eval(e)
                });
                if let Some(blk) = else_block {
                    self.eval_block(blk);
                }
                match (pats.len(), val) {
                    (0, _) | (_, None) => {
                        // `let _ = ...` or no init: temporaries die now.
                        self.kill_temps(chk);
                    }
                    (1, Some(v)) => {
                        let is_guard = matches!(v, Value::Guard(_));
                        self.bind(&pats[0], v);
                        if is_guard {
                            self.kill_temps(chk);
                        } else {
                            // `let n = x.lock().len();` — the guard was
                            // a temporary; it dies at the `;`.
                            self.kill_temps(chk);
                        }
                    }
                    (_, Some(v)) => {
                        // Destructuring: names bind opaquely, and any
                        // guard created in the initializer is kept to
                        // scope end (conservative).
                        if let Value::Guard(id) = v {
                            self.untemp(id);
                            if let Some(s) = self.scopes.last_mut() {
                                s.anon.push(id);
                            }
                        }
                        for p in pats {
                            self.bind(p, Value::Other);
                        }
                        self.promote_temps(chk, false);
                    }
                }
            }
            Stmt::Expr(e) => {
                self.eval(e);
            }
            Stmt::Item(item) => {
                // A nested fn is its own context.
                if let crate::ast::Item::Fn(f) = item {
                    analyze_fn(f, self.sums, self.sink);
                }
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> Value {
        match e {
            Expr::Path(segs, _) => {
                if segs.len() == 1 {
                    if let Some(v) = self.lookup(&segs[0]) {
                        return v;
                    }
                }
                Value::FnAlias(segs.clone())
            }
            Expr::Lit(_) => Value::Other,
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
            } => {
                self.eval(recv);
                let spawn = is_spawn_call(e);
                for a in args {
                    if spawn && matches!(a, Expr::Closure { .. }) {
                        self.eval_isolated_closure(a);
                    } else {
                        self.eval(a);
                    }
                }
                if ACQUIRE_METHODS.contains(&method.as_str()) && args.is_empty() {
                    let id = self.new_guard(method, *line);
                    return Value::Guard(id);
                }
                if self.sums.returns_guard(method) {
                    let id = self.new_guard(&format!("{method}()"), *line);
                    return Value::Guard(id);
                }
                if let Some(reason) = self.io_reason_for(method) {
                    self.report_io(method, &reason, *line, None);
                }
                Value::Other
            }
            Expr::Call { callee, args, line } => {
                let spawn = is_spawn_call(e);
                let mut result = Value::Other;
                if let Expr::Path(segs, _) = &**callee {
                    result = self.eval_path_call(segs, args, *line);
                } else {
                    self.eval(callee);
                }
                for a in args {
                    if spawn && matches!(a, Expr::Closure { .. }) {
                        self.eval_isolated_closure(a);
                    } else {
                        self.eval(a);
                    }
                }
                result
            }
            Expr::Field { base, .. } => {
                self.eval(base);
                Value::Other
            }
            Expr::Index { base, index, .. } => {
                self.eval(base);
                self.eval(index);
                Value::Other
            }
            Expr::Un(inner) => self.eval(inner),
            Expr::Try(inner, _) => self.eval(inner),
            Expr::Cast { expr, .. } => {
                self.eval(expr);
                Value::Other
            }
            Expr::Block(b) => self.eval_block(b),
            Expr::If {
                cond,
                pats,
                then,
                els,
                ..
            } => {
                let plain = pats.is_empty();
                let chk = self.checkpoint();
                let scrutinee = self.eval(cond);
                if plain {
                    // Plain-`if` condition temporaries die before the
                    // branches run.
                    self.kill_temps(chk);
                }
                self.push_scope();
                if !plain {
                    let is_guard = matches!(scrutinee, Value::Guard(_));
                    if pats.len() == 1 && is_guard {
                        let v = scrutinee.clone();
                        self.bind(&pats[0], v);
                    } else {
                        for p in pats {
                            self.bind(p, Value::Other);
                        }
                    }
                }
                let then_val = self.eval_block_inline(then);
                self.pop_scope();
                let els_val = els.as_ref().map(|e| self.eval(e));
                // If-let scrutinee temporaries die after the whole if.
                if !plain {
                    // Guards bound into the branch scope were killed by
                    // pop_scope already; remaining temporaries die here
                    // unless they are the result value.
                    match (&then_val, &els_val) {
                        (Value::Guard(_), _) | (_, Some(Value::Guard(_))) => {}
                        _ => self.kill_temps(chk),
                    }
                }
                if let Value::Guard(_) = then_val {
                    return then_val;
                }
                if let Some(Value::Guard(id)) = els_val {
                    return Value::Guard(id);
                }
                Value::Other
            }
            Expr::While {
                cond, pats, body, ..
            } => {
                let chk = self.checkpoint();
                self.eval(cond);
                if pats.is_empty() {
                    self.kill_temps(chk);
                }
                self.push_scope();
                for p in pats {
                    self.bind(p, Value::Other);
                }
                self.eval_block_inline(body);
                self.pop_scope();
                self.kill_temps(chk);
                Value::Other
            }
            Expr::Loop(body) => {
                self.eval_block(body);
                Value::Other
            }
            Expr::For { pats, iter, body } => {
                // Iterator temporaries (e.g. `m.lock().iter()`) live
                // through the whole loop body: no kill until after.
                let chk = self.checkpoint();
                self.eval(iter);
                self.push_scope();
                for p in pats {
                    self.bind(p, Value::Other);
                }
                self.eval_block_inline(body);
                self.pop_scope();
                self.kill_temps(chk);
                Value::Other
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                // Scrutinee temporaries live through all arms.
                let chk = self.checkpoint();
                let scr = self.eval(scrutinee);
                let mut result = Value::Other;
                for arm in arms {
                    self.push_scope();
                    if arm.pats.len() == 1 {
                        if let Value::Guard(id) = scr {
                            // Binding moves the guard into the arm —
                            // model as a shared view (alive either way).
                            self.bind(&arm.pats[0], Value::Guard(id));
                        } else {
                            self.bind(&arm.pats[0], Value::Other);
                        }
                    } else {
                        for p in &arm.pats {
                            self.bind(p, Value::Other);
                        }
                    }
                    // Re-arm guards killed by a previous arm's scope
                    // pop: each arm sees the scrutinee live.
                    if let Value::Guard(id) = scr {
                        if let Some(a) = self.alive.get_mut(id) {
                            *a = true;
                        }
                    }
                    let v = self.eval_block_tailless(&arm.body);
                    if matches!(v, Value::Guard(_)) && matches!(result, Value::Other) {
                        result = v;
                    }
                    self.pop_scope();
                }
                if let Value::Guard(id) = scr {
                    if let Some(a) = self.alive.get_mut(id) {
                        *a = true;
                    }
                }
                match result {
                    Value::Guard(_) => result,
                    _ => {
                        self.kill_temps(chk);
                        Value::Other
                    }
                }
            }
            Expr::Closure { params, body, .. } => {
                // Non-spawn closure: analyzed inline (it may run on
                // this thread while the guards are held).
                self.push_scope();
                for p in params {
                    self.bind(p, Value::Other);
                }
                let v = self.eval(body);
                self.pop_scope();
                v
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    self.eval(a);
                }
                Value::Other
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.eval(v);
                }
                Value::Other
            }
            Expr::Assign { lhs, rhs, line: _ } => {
                let chk = self.checkpoint();
                let val = self.eval(rhs);
                match &**lhs {
                    Expr::Field { .. } => {
                        // Guard stored into a field: function lifetime.
                        if let Value::Guard(id) = val {
                            self.untemp(id);
                            if let Some(s) = self.scopes.first_mut() {
                                s.anon.push(id);
                            }
                        }
                        self.promote_temps(chk, true);
                        self.eval(lhs);
                    }
                    Expr::Path(segs, _) if segs.len() == 1 => {
                        self.bind(&segs[0], val);
                        self.kill_temps(chk);
                    }
                    other => {
                        self.eval(other);
                        self.kill_temps(chk);
                    }
                }
                Value::Other
            }
            Expr::Binary { lhs, rhs } => {
                self.eval(lhs);
                self.eval(rhs);
                Value::Other
            }
            Expr::Return(v, _) => {
                if let Some(v) = v {
                    self.eval(v);
                }
                Value::Other
            }
            Expr::Break(v) => {
                if let Some(v) = v {
                    self.eval(v);
                }
                Value::Other
            }
            Expr::Tuple(exprs, _) => {
                for x in exprs {
                    self.eval(x);
                }
                Value::Other
            }
            Expr::Unknown(_) => Value::Other,
        }
    }

    /// A block evaluated *without* a fresh temp region of its own (the
    /// enclosing construct owns the region). Used for branch bodies.
    fn eval_block_inline(&mut self, b: &Block) -> Value {
        self.eval_block(b)
    }

    /// A match-arm body: expression or block.
    fn eval_block_tailless(&mut self, e: &Expr) -> Value {
        self.eval(e)
    }

    /// Path call `a::b::c(args)`: alias resolution, drop(), guard
    /// helpers, I/O sinks.
    fn eval_path_call(&mut self, segs: &[String], args: &[Expr], line: u32) -> Value {
        let Some(last) = segs.last() else {
            return Value::Other;
        };
        // `drop(g)` / `mem::drop(g)` releases by name.
        if last == "drop" && args.len() == 1 {
            if let Expr::Path(arg_segs, _) = &args[0] {
                if arg_segs.len() == 1 {
                    if let Some(Value::Guard(id)) = self.remove_binding(&arg_segs[0]) {
                        self.kill(id);
                        return Value::Other;
                    }
                }
            }
        }
        // Local alias: `let f = File::open; f(p)`.
        if segs.len() == 1 {
            if let Some(Value::FnAlias(target)) = self.lookup(last) {
                let display = target.join("::");
                let target_last = target.last().cloned().unwrap_or_default();
                if let Some(reason) = target
                    .iter()
                    .find(|s| IO_DECODE_CALLEES.contains(&s.as_str()))
                    .map(|s| format!("`{s}`"))
                    .or_else(|| self.io_reason_for(&target_last))
                {
                    self.report_io(&display, &reason, line, Some(last));
                }
                if self.sums.returns_guard(&target_last) {
                    let id = self.new_guard(&format!("{target_last}()"), line);
                    return Value::Guard(id);
                }
                return Value::Other;
            }
        }
        // Direct path call: `File::open(p)`, `helper(x)`.
        let display = segs.join("::");
        if let Some(reason) = segs
            .iter()
            .find(|s| IO_DECODE_CALLEES.contains(&s.as_str()))
            .map(|s| format!("`{s}`"))
            .or_else(|| self.io_reason_for(last))
        {
            self.report_io(&display, &reason, line, None);
        }
        if self.sums.returns_guard(last) {
            let id = self.new_guard(&format!("{last}()"), line);
            return Value::Guard(id);
        }
        Value::Other
    }

    /// A closure that runs on another thread: fresh guard context, no
    /// outer guards live, its own guards analyzed independently.
    fn eval_isolated_closure(&mut self, e: &Expr) {
        let Expr::Closure { params, body, .. } = e else {
            return;
        };
        let mut inner = Flow {
            sums: self.sums,
            sink: self.sink,
            guards: Vec::new(),
            alive: Vec::new(),
            scopes: Vec::new(),
            temps: Vec::new(),
            reported: Vec::new(),
        };
        inner.push_scope();
        for p in params {
            inner.bind(p, Value::Other);
        }
        inner.eval(body);
        inner.pop_scope();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;
    use crate::ast::parse_file;
    use crate::callgraph;

    fn l2(src: &str) -> Vec<Finding> {
        let files = vec![("t.rs".to_string(), parse_file(src).unwrap())];
        let graph = callgraph::build(&files);
        let sums = Summaries::compute(graph);
        let mut out = Vec::new();
        let mut fns = Vec::new();
        crate::ast::collect_fns(&files[0].1.items, &mut fns);
        for (_, f) in fns {
            analyze_fn(f, &sums, &mut |fd| out.push(fd));
        }
        out
    }

    #[test]
    fn let_guard_across_io_fires_and_scope_exit_clears() {
        assert!(
            !l2("fn f(&self) { let g = self.map.read(); self.reader.read_chunk(m); }").is_empty()
        );
        assert!(
            l2("fn f(&self) { { let g = self.map.read(); } self.reader.read_chunk(m); }")
                .is_empty()
        );
        assert!(
            l2("fn f(&self) { let g = self.map.read(); drop(g); self.reader.read_chunk(m); }")
                .is_empty()
        );
    }

    #[test]
    fn shadowing_keeps_old_guard_alive() {
        let v = l2("fn f(&self) { let g = self.a.lock(); let g = 1; self.reader.read_chunk(m); }");
        assert!(!v.is_empty(), "shadowed guard still held");
    }

    #[test]
    fn move_keeps_one_guard() {
        let v = l2("fn f(&self) { let g = self.a.lock(); let g2 = g; drop(g2); self.reader.read_chunk(m); }");
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn helper_returned_guard_tracked_at_call_site() {
        let src = "impl S { fn series(&self) { self.inner.lock() } fn f(&self) { let g = self.series(); self.reader.read_chunk(m); } }";
        let v = l2(src);
        assert!(!v.is_empty(), "helper-returned guard must be tracked");
    }

    #[test]
    fn field_stored_guard_lives_to_function_end() {
        let src = "fn f(&mut self) { { self.held = Some(self.a.lock()); } File::open(p); }";
        assert!(!l2(src).is_empty());
    }

    #[test]
    fn statement_temp_dies_at_semicolon() {
        assert!(l2("fn f(&self) { let n = self.map.read().len(); File::open(p); }").is_empty());
        assert!(!l2("fn f(&self) { self.map.read().do_io(File::open(p)); }").is_empty());
    }

    #[test]
    fn plain_if_condition_temp_dies_before_branch() {
        assert!(l2("fn f(&self) { if self.m.read().is_empty() { File::open(p); } }").is_empty());
    }

    #[test]
    fn match_scrutinee_temp_lives_through_arms() {
        let v = l2("fn f(&self) { match self.m.read().get(k) { Some(x) => { File::open(p); } None => {} } }");
        assert!(!v.is_empty());
    }

    #[test]
    fn transitive_io_through_helper_fires() {
        let src = "fn helper(&self) { self.io2(); } fn io2(&self) { self.reader.read_chunk(m); } fn f(&self) { let g = self.m.lock(); self.helper(); }";
        let v = l2(src);
        assert!(!v.is_empty(), "I/O two helpers deep must fire");
    }

    #[test]
    fn spawned_closure_isolated_both_ways() {
        assert!(l2("fn f(&self) { let g = self.m.lock(); std::thread::spawn(move || { File::open(p); }); }").is_empty());
        assert!(!l2("fn f(&self) { std::thread::spawn(move || { let g = self.m.lock(); File::open(p); }); }").is_empty());
    }

    #[test]
    fn io_through_local_alias_fires() {
        let v = l2("fn f(&self) { let f = File::open; let g = self.m.read(); f(p); }");
        assert!(
            v.iter().any(|f| f.message.contains("File::open")),
            "{:?}",
            v.iter().map(|f| &f.message).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sanctioned_wal_append_under_guard_passes() {
        assert!(l2("fn append(&self) { self.file.write_all(b); } fn f(&self) { let g = self.m.lock(); self.wal.append(rec); }").is_empty());
    }
}
