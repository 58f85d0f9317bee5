//! L2 fixture: a lock guard held across a chunk load. The guard is
//! let-bound (lives to scope end), and `read_chunk` runs before it
//! dies — exactly the shape the lock-discipline scan must reject.
//! Names avoid the L3 fallible prefixes and there are no panic sites
//! or casts, so only L2 may fire.

struct Store;

impl Store {
    fn warm_cache(&self) {
        let guard = self.series.read();
        let pts = self.files.read_chunk(guard.meta());
        keep(pts);
    }

    /// The group flush done wrong: the guard that claimed the last
    /// member is still alive when the shared file is synced.
    fn flush_group_locked(&self, ids: &[u32], file: &File) {
        let mut guard = self.series.write();
        for id in ids {
            guard.claim(*id);
        }
        file.sync_all();
        keep(guard);
    }
}

fn keep<T>(_: T) {}
