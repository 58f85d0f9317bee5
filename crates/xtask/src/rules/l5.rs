//! L5 — blocking-call ban on the network accept/dispatch path.
//!
//! The designated functions (`tsnet::server`'s `accept_loop` and
//! `handle_connection`, `tsnet::sub`'s `broadcast_delta` and
//! `enqueue_push`, plus anything named like them in fixtures) form
//! two single-threaded hot paths. The admission path: a blocking
//! syscall there stalls *every* connection — exactly the tail-latency
//! collapse mode the reactor roadmap item exists to prevent. The
//! subscription broadcast path: it runs on the dispatcher thread under
//! the registry lock, so a blocking call there lets ONE slow consumer
//! stall delta delivery to every dashboard (the design routes socket
//! writes through per-connection writer threads precisely so the
//! dispatcher never touches a socket). Banned, transitively through
//! call summaries: file I/O, socket frame I/O
//! (`write_frame`/`read_frame`/`write_all`/`read_exact`), and
//! unbounded waits (`join`/`recv`/`wait`). Allowed: `accept` itself,
//! bounded sleeps, lock acquisition, atomics, and handing work to
//! spawned threads (spawn-closure bodies run elsewhere and are exempt
//! here — L2 still sees them).

use crate::ast::{Block, Expr, FileAst, Stmt};
use crate::callgraph::is_spawn_call;
use crate::summaries::{Summaries, ACQUIRE_METHODS};

/// Accept/dispatch-path and push/broadcast-path functions under the
/// ban.
pub const DESIGNATED_FNS: &[&str] = &[
    "accept_loop",
    "handle_connection",
    "broadcast_delta",
    "enqueue_push",
];

/// Names never treated as blocking on this path: the accept call
/// itself, bounded waits, lock/atomic operations, thread handoff.
const ALLOWED: &[&str] = &[
    "accept",
    "sleep",
    "try_recv",
    "recv_timeout",
    "wait_timeout",
    "try_lock",
    "try_borrow",
    "spawn",
    "unpark",
    "notify_one",
    "notify_all",
    "fetch_add",
    "fetch_sub",
    "store",
    "load",
    "compare_exchange",
];

pub fn check(file: &FileAst, sums: &Summaries, push: super::Push) {
    let mut fns = Vec::new();
    crate::ast::collect_fns(&file.items, &mut fns);
    for (_, f) in fns {
        if !DESIGNATED_FNS.contains(&f.name.as_str()) {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut sites = Vec::new();
        collect_block(body, &mut sites);
        for (display, name, line) in sites {
            if ALLOWED.contains(&name.as_str()) {
                continue;
            }
            if ACQUIRE_METHODS.contains(&name.as_str()) {
                continue; // lock acquisition is allowed; holding is L2's concern
            }
            if let Some(reason) = sums.blocking_reason(&name) {
                push(
                    line,
                    format!(
                        "blocking call `{display}` (reaches {reason}) on the accept/dispatch \
                         path in `{}`; hand it to a worker thread or bound it with a timeout",
                        f.name
                    ),
                );
            }
        }
    }
}

/// (display, resolvable-name, line) for every call reachable on the
/// current thread — spawn-closure bodies excluded.
fn collect_block(b: &Block, out: &mut Vec<(String, String, u32)>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    collect(e, out);
                }
                if let Some(blk) = else_block {
                    collect_block(blk, out);
                }
            }
            Stmt::Expr(e) => collect(e, out),
            Stmt::Item(_) => {}
        }
    }
}

fn collect(e: &Expr, out: &mut Vec<(String, String, u32)>) {
    let spawn = is_spawn_call(e);
    match e {
        Expr::MethodCall {
            recv,
            method,
            args,
            line,
        } => {
            out.push((method.clone(), method.clone(), *line));
            collect(recv, out);
            for a in args {
                if spawn && matches!(a, Expr::Closure { .. }) {
                    continue;
                }
                collect(a, out);
            }
        }
        Expr::Call { callee, args, line } => {
            if let Expr::Path(segs, _) = &**callee {
                if let Some(last) = segs.last() {
                    out.push((segs.join("::"), last.clone(), *line));
                }
            } else {
                collect(callee, out);
            }
            for a in args {
                if spawn && matches!(a, Expr::Closure { .. }) {
                    continue;
                }
                collect(a, out);
            }
        }
        Expr::Field { base, .. } => collect(base, out),
        Expr::Index { base, index, .. } => {
            collect(base, out);
            collect(index, out);
        }
        Expr::Un(inner) | Expr::Try(inner, _) => collect(inner, out),
        Expr::Cast { expr, .. } => collect(expr, out),
        Expr::Block(b) | Expr::Loop(b) => collect_block(b, out),
        Expr::If {
            cond, then, els, ..
        } => {
            collect(cond, out);
            collect_block(then, out);
            if let Some(e) = els {
                collect(e, out);
            }
        }
        Expr::While { cond, body, .. } => {
            collect(cond, out);
            collect_block(body, out);
        }
        Expr::For { iter, body, .. } => {
            collect(iter, out);
            collect_block(body, out);
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            collect(scrutinee, out);
            for arm in arms {
                collect(&arm.body, out);
            }
        }
        Expr::Closure { body, .. } => collect(body, out),
        Expr::Macro { args, .. } | Expr::Tuple(args, _) => {
            for a in args {
                collect(a, out);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                collect(v, out);
            }
        }
        Expr::Assign { lhs, rhs, .. } => {
            collect(lhs, out);
            collect(rhs, out);
        }
        Expr::Binary { lhs, rhs } => {
            collect(lhs, out);
            collect(rhs, out);
        }
        Expr::Return(Some(v), _) | Expr::Break(Some(v)) => collect(v, out),
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

    fn run(src: &str) -> Vec<String> {
        let files = vec![("t.rs".to_string(), crate::ast::parse_file(src).unwrap())];
        let graph = crate::callgraph::build(&files);
        let sums = Summaries::compute(graph);
        let mut out = Vec::new();
        check(&files[0].1, &sums, &mut |_, m| out.push(m));
        out
    }

    #[test]
    fn direct_frame_write_on_accept_path_fires() {
        let v = run("fn accept_loop(&self) { wire::write_frame(s, b); }");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn blocking_reached_through_helper_fires() {
        let v = run(
            "fn respond(&self) { wire::write_frame(s, b); } fn handle_connection(&self) { self.respond(); }",
        );
        assert!(v.iter().any(|m| m.contains("respond")), "{v:?}");
    }

    #[test]
    fn spawned_work_sleep_and_locks_are_allowed() {
        let v = run(
            "fn accept_loop(&self) { let c = listener.accept(); thread::sleep(d); \
             let mut w = self.workers.lock(); w.push(h); \
             std::thread::spawn(move || { wire::write_frame(s, b); }); }",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_designated_fns_are_exempt() {
        assert!(run("fn worker_loop(&self) { wire::write_frame(s, b); }").is_empty());
    }

    #[test]
    fn unbounded_join_fires_bounded_wait_passes() {
        assert_eq!(run("fn accept_loop(&self) { h.join(); }").len(), 1);
        assert!(run("fn accept_loop(&self) { rx.recv_timeout(d); }").is_empty());
    }

    #[test]
    fn broadcast_path_is_designated() {
        // The dispatcher must never write a socket frame itself —
        // that's the per-connection writer thread's job.
        assert_eq!(
            run("fn broadcast_delta(&self) { wire::write_frame(s, b); }").len(),
            1
        );
        assert_eq!(run("fn enqueue_push(&self) { h.join(); }").len(), 1);
        // Queue hand-off primitives stay allowed.
        assert!(run("fn enqueue_push(&self) { q.notify_one(); }").is_empty());
    }
}
