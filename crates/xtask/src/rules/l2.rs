//! L2 — lock discipline: no lock/RefCell guard held across file I/O
//! or chunk decode. The heavy lifting is `crate::dataflow` (guard
//! tracking with real lifetimes) over `crate::summaries` (transitive
//! I/O facts); this module runs that pass per function.

use crate::ast::FileAst;
use crate::summaries::Summaries;

/// Run the dataflow over every function in `file`.
pub fn check(file: &FileAst, sums: &Summaries, push: super::Push) {
    let mut fns = Vec::new();
    crate::ast::collect_fns(&file.items, &mut fns);
    for (_, f) in fns {
        crate::dataflow::analyze_fn(f, sums, &mut |finding| push(finding.line, finding.message));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn runs_the_dataflow_over_every_fn() {
        let src = "fn clean(&self) { File::open(p); } \
                   fn f(&self) { let io = File::open; let g = self.m.read(); io(p); }";
        let files = vec![("t.rs".to_string(), crate::ast::parse_file(src).unwrap())];
        let graph = crate::callgraph::build(&files);
        let sums = Summaries::compute(graph);
        let mut out = Vec::new();
        check(&files[0].1, &sums, &mut |_, m| out.push(m));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("File::open"), "{out:?}");
    }
}
