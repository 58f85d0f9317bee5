//! Cross-query LRU cache of decoded chunk bodies.
//!
//! The paper's latency model is I/O + decompression over many chunks;
//! once the on-disk layout is fixed, not re-decoding the same immutable
//! chunk on every query is the dominant read-path lever. This module
//! caches *decoded* points (the expensive artifact) keyed by
//!
//! > (file handle id, chunk index in the file, chunk version)
//!
//! — the index, not the byte offset: a bodiless chunk (one its footer
//! entry holds whole) starts where the next chunk does.
//!
//! A chunk is one page, so an entry is one chunk's points — at most
//! `points_per_chunk` of them: a narrow query caches, and later evicts,
//! only the chunks it touches.
//!
//! The file handle id is a process-unique id minted by
//! [`tsfile::TsFileReader::open`] and never reused, so entries for a
//! retired file can never alias a newer file that happens to land at
//! the same path: invalidation on compaction is memory hygiene, not a
//! correctness requirement. Chunks inside one file are immutable, hence
//! the cached bytes are valid for as long as the key can be formed at
//! all.
//!
//! ## Sharding
//!
//! The map is lock-striped by key hash: one mutex (and one LRU list)
//! per shard, with the byte capacity split evenly across shards, so
//! concurrent readers hashing to different stripes never contend. The
//! stripe count scales with capacity (roughly one per MiB, capped at
//! 16); caches of ≤ 1 MiB stay single-shard, which keeps the LRU
//! globally exact for small configurations. With more shards the LRU
//! is exact *per shard* — a hot key can only evict entries in its own
//! stripe, which bounds the approximation error to one stripe's
//! capacity. Hit/miss/eviction/invalidation counters still aggregate
//! in the engine-wide [`IoStats`].
//!
//! ## Lock discipline
//!
//! The cache is shared by every concurrent query, so its internal
//! mutexes are contention points. All methods hold a guard only for
//! map bookkeeping — never across file I/O or chunk decode (the stripes
//! are [`tsfile::lockcheck::Mutex`]es, so a debug build panics if one
//! is). Callers follow the same rule: [`DecodedChunkCache::get`] clones
//! the `Arc` out under the guard and returns; on a miss the caller
//! decodes *outside* any guard and then calls
//! [`DecodedChunkCache::insert`].
//! Two racing misses on the same key both decode and one insert wins —
//! wasted work under contention, never wrong data.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use tsfile::lockcheck::Mutex;
use tsfile::types::Point;

use crate::stats::IoStats;

/// Identity of one decoded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Process-unique id of the owning [`tsfile::TsFileReader`].
    pub file_id: u64,
    /// The chunk's index in its file's footer.
    pub chunk: usize,
    /// The chunk's version `κ`.
    pub version: u64,
}

/// One cached decoded chunk.
#[derive(Debug)]
struct Entry {
    points: Arc<Vec<Point>>,
    bytes: u64,
    /// LRU recency stamp; also the key into [`Inner::by_tick`].
    tick: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency order: oldest tick first. Ticks are unique (monotone
    /// counter), so this is a faithful LRU list with O(log n) updates.
    by_tick: BTreeMap<u64, CacheKey>,
    next_tick: u64,
    bytes: u64,
}

impl Inner {
    fn touch(&mut self, key: CacheKey) {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            self.by_tick.remove(&e.tick);
            e.tick = tick;
            self.by_tick.insert(tick, key);
        }
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let e = self.map.remove(key)?;
        self.by_tick.remove(&e.tick);
        self.bytes -= e.bytes;
        Some(e)
    }

    /// Evict least-recently-used entries until `bytes <= capacity`.
    /// Returns how many entries were evicted.
    fn evict_to(&mut self, capacity: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > capacity {
            let Some((_, key)) = self.by_tick.pop_first() else {
                break;
            };
            if let Some(e) = self.map.remove(&key) {
                self.bytes -= e.bytes;
                evicted += 1;
            }
        }
        evicted
    }
}

/// Capacity-bounded, cross-query LRU of decoded chunk bodies,
/// lock-striped by key hash.
///
/// Shared by all of an engine's snapshots (and, transitively, every
/// query operator). Hit/miss/eviction/invalidation counts surface
/// through the engine's [`IoStats`].
#[derive(Debug)]
pub struct DecodedChunkCache {
    shards: Vec<Mutex<Inner>>,
    /// Byte budget of one stripe (`capacity_bytes / shards.len()`).
    shard_capacity: u64,
    capacity_bytes: u64,
    io: Arc<IoStats>,
}

/// Approximate heap footprint of one cached chunk: the point payload
/// plus a fixed per-entry overhead for the two map nodes.
fn entry_bytes(points: &[Point]) -> u64 {
    const ENTRY_OVERHEAD: u64 = 128;
    (points.len() as u64) * (std::mem::size_of::<Point>() as u64) + ENTRY_OVERHEAD
}

/// Stripe count for a given capacity: one shard per MiB, clamped to
/// [1, 16]. Small caches stay single-shard so their LRU is globally
/// exact (several tests and tiny configs depend on that).
fn shard_count(capacity_bytes: u64) -> usize {
    ((capacity_bytes >> 20) as usize).clamp(1, 16)
}

impl DecodedChunkCache {
    /// Create a cache bounded to roughly `capacity_bytes` of decoded
    /// points. Counters are recorded into `io`.
    pub fn new(capacity_bytes: u64, io: Arc<IoStats>) -> Self {
        let n = shard_count(capacity_bytes);
        let shards = (0..n).map(|_| Mutex::new(Inner::default())).collect();
        let shard_capacity = capacity_bytes / n as u64;
        DecodedChunkCache {
            shards,
            shard_capacity,
            capacity_bytes,
            io,
        }
    }

    /// The stripe owning `key`. `shards` is never empty, so the modulo
    /// index is always in bounds.
    fn stripe(&self, key: &CacheKey) -> &Mutex<Inner> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up a decoded chunk. A hit bumps the entry's recency and
    /// clones the `Arc` out — the guard is released before the caller
    /// touches the points.
    pub fn get(&self, key: CacheKey) -> Option<Arc<Vec<Point>>> {
        let mut inner = self.stripe(&key).lock();
        if inner.map.contains_key(&key) {
            inner.touch(key);
            let points = inner.map.get(&key).map(|e| Arc::clone(&e.points));
            drop(inner);
            self.io.record_cache_hit();
            points
        } else {
            drop(inner);
            self.io.record_cache_miss();
            None
        }
    }

    /// The points cached under `key`, counting neither a hit nor a miss
    /// and leaving its recency as it was: a timestamp probe's look.
    pub fn peek(&self, key: CacheKey) -> Option<Arc<Vec<Point>>> {
        let inner = self.stripe(&key).lock();
        inner.map.get(&key).map(|e| Arc::clone(&e.points))
    }

    /// Install a decoded chunk (decoded by the caller, outside any
    /// guard). A chunk larger than its stripe's share of the capacity
    /// is not cached. Racing inserts for the same key keep the newest
    /// `Arc`.
    pub fn insert(&self, key: CacheKey, points: Arc<Vec<Point>>) {
        let bytes = entry_bytes(&points);
        if bytes > self.shard_capacity {
            return;
        }
        let evicted = {
            let mut inner = self.stripe(&key).lock();
            inner.remove(&key);
            let tick = inner.next_tick;
            inner.next_tick += 1;
            inner.bytes += bytes;
            inner.map.insert(
                key,
                Entry {
                    points,
                    bytes,
                    tick,
                },
            );
            inner.by_tick.insert(tick, key);
            inner.evict_to(self.shard_capacity)
        };
        if evicted > 0 {
            self.io.record_cache_evictions(evicted);
        }
    }

    /// Drop every entry of `file_id` whose chunk index is in `chunks` —
    /// one series' run of the file, retired by that
    /// series' compaction — across all stripes. Entries of the file's
    /// other runs (other series still reading it) stay. Returns how
    /// many entries were dropped.
    pub fn invalidate_run(&self, file_id: u64, chunks: std::ops::Range<usize>) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut inner = shard.lock();
            let doomed: Vec<CacheKey> = inner
                .map
                .keys()
                .filter(|k| k.file_id == file_id && chunks.contains(&k.chunk))
                .copied()
                .collect();
            for key in &doomed {
                inner.remove(key);
            }
            dropped += doomed.len() as u64;
        }
        if dropped > 0 {
            self.io.record_cache_invalidations(dropped);
        }
        dropped
    }

    /// Distinct file ids currently holding entries (test/diagnostic).
    pub fn file_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().map.keys().map(|k| k.file_id));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of cached chunks across all stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current decoded bytes held (approximate, across all stripes).
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn key(file: u64, chunk: u64) -> CacheKey {
        CacheKey {
            file_id: file,
            chunk: chunk as usize,
            version: chunk,
        }
    }

    fn pts(n: usize) -> Arc<Vec<Point>> {
        Arc::new((0..n as i64).map(|t| Point::new(t, t as f64)).collect())
    }

    fn cache(capacity: u64) -> (DecodedChunkCache, Arc<IoStats>) {
        let io = Arc::new(IoStats::default());
        (DecodedChunkCache::new(capacity, Arc::clone(&io)), io)
    }

    #[test]
    fn hit_returns_same_arc_and_counts() {
        let (c, io) = cache(1 << 20);
        let p = pts(10);
        assert!(c.get(key(1, 0)).is_none());
        c.insert(key(1, 0), Arc::clone(&p));
        let got = c.get(key(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&got, &p));
        let s = io.snapshot();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    /// The chunks of one run — one page each — cache as distinct
    /// entries, and retiring the run drops every one of them.
    #[test]
    fn page_keys_are_distinct_entries() {
        let (c, _io) = cache(1 << 20);
        let base = CacheKey {
            file_id: 1,
            chunk: 6,
            version: 9,
        };
        c.insert(base, pts(10));
        c.insert(CacheKey { chunk: 7, ..base }, pts(20));
        c.insert(CacheKey { chunk: 8, ..base }, pts(30));
        assert_eq!(c.len(), 3, "chunks of one run cache independently");
        assert_eq!(c.get(CacheKey { chunk: 7, ..base }).unwrap().len(), 20);
        assert_eq!(c.invalidate_run(1, 6..9), 3);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Room for ~2 entries of 100 points each (1600 B + overhead).
        let (c, io) = cache(2 * (100 * 16 + 128));
        c.insert(key(1, 0), pts(100));
        c.insert(key(1, 1), pts(100));
        // Touch the first so the second is now LRU.
        assert!(c.get(key(1, 0)).is_some());
        c.insert(key(1, 2), pts(100));
        assert!(c.get(key(1, 1)).is_none(), "LRU entry must be evicted");
        assert!(c.get(key(1, 0)).is_some());
        assert!(c.get(key(1, 2)).is_some());
        assert_eq!(io.snapshot().cache_evictions, 1);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let (c, _io) = cache(64);
        c.insert(key(1, 0), pts(1000));
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn invalidate_run_drops_only_that_run_of_that_file() {
        let (c, io) = cache(1 << 20);
        c.insert(key(1, 0), pts(5));
        c.insert(key(1, 8), pts(5));
        c.insert(key(1, 16), pts(5)); // another series' run of file 1
        c.insert(key(2, 0), pts(5));
        assert_eq!(c.invalidate_run(1, 0..16), 2);
        assert_eq!(c.file_ids(), vec![1, 2]);
        assert!(c.get(key(1, 0)).is_none());
        assert!(c.get(key(1, 16)).is_some());
        assert!(c.get(key(2, 0)).is_some());
        assert_eq!(io.snapshot().cache_invalidations, 2);
    }

    #[test]
    fn reinsert_same_key_replaces_without_leaking_bytes() {
        let (c, _io) = cache(1 << 20);
        c.insert(key(1, 0), pts(10));
        let b1 = c.bytes();
        c.insert(key(1, 0), pts(10));
        assert_eq!(
            c.bytes(),
            b1,
            "replacing an entry must not double-count bytes"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shard_count_scales_with_capacity() {
        let (tiny, _) = cache(64 * 1024);
        assert_eq!(tiny.shards.len(), 1, "sub-MiB caches stay single-shard");
        let (mid, _) = cache(8 << 20);
        assert_eq!(mid.shards.len(), 8);
        let (big, _) = cache(1 << 30);
        assert_eq!(big.shards.len(), 16, "stripe count is capped");
    }

    #[test]
    fn sharded_cache_roundtrips_and_invalidates_across_stripes() {
        let (c, io) = cache(8 << 20);
        assert!(c.shards.len() > 1);
        // Keys spread over stripes; every one must round-trip.
        for off in 0..200u64 {
            c.insert(key(off % 3, off), pts(64));
        }
        for off in 0..200u64 {
            assert!(c.get(key(off % 3, off)).is_some(), "off={off}");
        }
        assert!(c.bytes() <= c.capacity_bytes());
        // Invalidation must reach every stripe.
        let dropped = c.invalidate_run(0, 0..usize::MAX);
        assert_eq!(dropped, 67); // off % 3 == 0 for 0..200
        assert!(c.file_ids() == vec![1, 2]);
        assert_eq!(io.snapshot().cache_invalidations, 67);
    }

    #[test]
    fn concurrent_mixed_workload_stays_bounded() {
        let (c, _io) = cache(50 * (64 * 16 + 128));
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = key(thread % 2, i % 100);
                        match c.get(k) {
                            Some(p) => assert_eq!(p.len(), 64),
                            None => c.insert(k, pts(64)),
                        }
                        if i % 97 == 0 {
                            c.invalidate_run(thread % 2, 0..usize::MAX);
                        }
                    }
                });
            }
        });
        assert!(c.bytes() <= c.capacity_bytes());
        assert!(c.len() <= 50);
    }
}
