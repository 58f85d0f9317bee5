//! NEGATIVE fixture: phase-disciplined lock usage that must stay
//! clean under every engine. Guards are confined to a snapshot phase
//! (block scope or explicit `drop`) and all file I/O happens after
//! the guard is provably dead. A false positive here means the
//! dataflow's lifetime model regressed.

struct PhasedStore {
    map: RwLock<Table>,
}

impl PhasedStore {
    /// Phase 1 snapshots under the lock inside a block; phase 2 does
    /// unlocked I/O. The guard dies at the block's closing brace.
    fn flush_phased(&self, meta: &ChunkMeta) {
        let pending = {
            let m = self.map.read();
            m.snapshot_pending()
        };
        let chunk = reader::read_chunk(meta);
        self.merge_unlocked(pending, chunk);
    }

    /// Explicit `drop` ends the guard before the I/O.
    fn tick(&self, meta: &ChunkMeta) {
        let g = self.map.read();
        let due = g.due_count();
        drop(g);
        if due > 0 {
            let points = reader::read_points(meta);
            self.absorb(points);
        }
    }

    /// The group flush: each member is claimed under its own guard, one
    /// guard at a time (dead at the end of the loop body), the shared
    /// file is synced with no guard alive, and each member's view is
    /// installed under a fresh guard.
    fn flush_group(&self, ids: &[u32], file: &File) {
        let mut members = Vec::new();
        for id in ids {
            let mut m = self.map.write();
            members.push(m.claim(*id));
        }
        file.sync_all();
        for member in members {
            let mut m = self.map.write();
            m.install(member);
        }
    }
}
