//! L2 fixture: a cache guard held across (a) a page-body decode,
//! (b) a worker-pool fan-out and (c) the snapshot's one page loader —
//! the shapes the extended recognizers (`decode_page`, `run_indexed`,
//! `read_page_points`) must reject. Names avoid the
//! L3 fallible prefixes and there are no panic sites or casts, so only
//! L2 may fire.

struct Cache;

impl Cache {
    fn fill(&self) {
        let inner = self.map.lock();
        let pts = decode_page(inner.body(), inner.ts(), inner.val(), inner.meta());
        keep(pts);
    }

    fn fan_out(&self) {
        let inner = self.map.lock();
        let out = run_indexed(4, inner.jobs(), work);
        keep(out);
    }

    /// The query cache's miss path done wrong: the `points` guard that
    /// looked the page up is still alive when the page is loaded.
    fn points(&self, idx: usize, page: u32, chunk: &ChunkHandle) {
        let mut map = self.points.lock();
        let pts = self.snapshot.read_page_points(chunk, page);
        map.insert((idx, page), pts);
    }
}

fn keep<T>(_: T) {}
fn work(_: usize) {}
