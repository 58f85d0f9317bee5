//! L2 fixture: a cache guard held across (a) a page-body decode and
//! (b) a worker-pool fan-out — the shapes the extended recognizers
//! (`decode_page`, `run_indexed`) must reject. Names avoid the
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
}

fn keep<T>(_: T) {}
fn work(_: usize) {}
