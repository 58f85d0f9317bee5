//! Escape #3 (documented lexical blind spot, now closed): calls
//! through a *local function alias*. `File::open` bound to a variable
//! carries its I/O behavior to every call through the alias, but no
//! `File::open(` token appears at the call site, so the lexical
//! engine passed this file entirely. The AST dataflow tracks
//! `FnAlias` values through `let` bindings.

struct SegmentJournal {
    state: Mutex<Vec<u64>>,
}

impl SegmentJournal {
    /// VIOLATION (L2): `opener` is `File::open`; calling it while the
    /// state lock guard is live is I/O under a guard.
    fn append_segment(&self, path: &str) {
        let opener = File::open;
        let g = self.state.lock();
        let file = opener(path);
        self.register(g, file);
    }
}
