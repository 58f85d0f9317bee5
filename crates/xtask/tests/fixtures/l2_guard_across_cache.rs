//! L2 fixture: a cache guard held across (a) a page-body decode,
//! (b) a worker-pool fan-out and (c) the snapshot's one timestamp
//! loader — the shapes the extended recognizers (`decode_page`,
//! `run_indexed`, `read_page_timestamps`) must reject. Names avoid the
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

    /// The fragment table's probe miss done wrong: the row's `prefix`
    /// guard that found the prefix too short is still alive when the
    /// longer one is read.
    fn contains_timestamp(&self, f: &Fragment, t: Timestamp) {
        let mut prefix = f.prefix.lock();
        let ts = self.snapshot.read_page_timestamps(f.chunk, f.page, Some(t));
        *prefix = ts;
    }
}

fn keep<T>(_: T) {}
fn work(_: usize) {}
