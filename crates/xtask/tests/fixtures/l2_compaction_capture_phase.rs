//! L2 fixture: the shard write guard held across compaction execution
//! — the fused form the engine's phased compaction must never regress
//! to. The real sequence is capture (locked, metadata only) → classify
//! + merge (unlocked file I/O) → install (locked splice); below, the
//! capture guard survives into `merge_to_file` and into the raw page
//! window read, and both must be flagged — and so must a delete-log
//! rewrite done by hand under the install guard, where only the log's
//! own `trim_through` is sanctioned. Names avoid the L3 fallible
//! prefixes where possible and there are no panic sites, indexing, or
//! casts, so only L2 may fire.

struct Engine;

impl Engine {
    /// Capture and merge fused under one guard: the merge does file
    /// I/O (`merge_to_file`) while the shard map is still locked.
    fn compact_fused(&self, name: &str) {
        let store = self.shards.write();
        let chunks = store.capture(name);
        let outcome = execute::merge_to_file(&self.config, &chunks);
        store.install(outcome);
    }

    /// Same regression one layer down: copying a clean page window
    /// straight off disk while holding the capture guard.
    fn copy_fused(&self, meta: &ChunkMeta) {
        let store = self.shards.write();
        let window = store.clean_window(meta);
        let raw = self.reader.read_page_window_raw(meta, window);
        store.stash(raw);
    }

    /// The log trim under the install guard: the sanctioned call passes,
    /// the same rewrite spelled out beside it does not.
    fn trim_by_hand(&self, ceiling: u64) {
        let store = self.shards.write();
        store.log.trim_through(ceiling);
        let tmp = store.log_tmp();
        std::fs::rename(tmp, store.log_path());
        store.done();
    }
}
