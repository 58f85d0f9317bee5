//! Engine configuration, mirroring the IoTDB parameters the paper pins
//! in Table 4 of its experimental setup.

use tsfile::encoding::EncodingKind;

/// When the write-ahead log forces its group-committed bytes to
/// stable storage.
///
/// Group commit batches every WAL frame of one `write_batch` /
/// `insert_batch` call into a single buffered append (see
/// `crate::shard_wal`); the policy decides whether that append is also
/// fsynced before the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync once per committed batch: an acknowledged write survives
    /// power loss, at one `fdatasync` per batch (not per point).
    Always,
    /// fsync only at flush rotation and on deletes. An acknowledged
    /// insert survives a process crash (the bytes are in the OS page
    /// cache) but the tail since the last flush may be lost on power
    /// failure. A flush syncs its file first and the log behind it —
    /// and the log only if records a replay still needs are left in it:
    /// a flush that covered the whole log truncates it instead. When
    /// `flush` returns, file and log are on disk. This is the default.
    #[default]
    OnFlush,
    /// Never fsync the WAL explicitly; durability rides entirely on
    /// the OS writeback and the sealed-TsFile fsyncs. For benchmarks
    /// and bulk loads.
    Never,
}

impl FsyncPolicy {
    /// Stable lowercase name (used in benchmark metadata headers).
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnFlush => "on_flush",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Tunables of the storage engine.
///
/// Correspondence with the paper's Table 4:
///
/// | paper (IoTDB)                        | here                    |
/// |--------------------------------------|-------------------------|
/// | `avg_series_point_number_threshold`  | [`points_per_chunk`]    |
/// | `unseq/seq_tsfile_size` (1 GiB)      | [`memtable_threshold`] (points per flush → file size) |
/// | `page_size_in_byte` (1 GiB → 1 page) | none: a chunk is one page, so [`points_per_chunk`] sizes both |
/// | `compaction_strategy = NO_COMPACTION`| [`compaction_auto`] ` = false` (the default) |
///
/// [`points_per_chunk`]: EngineConfig::points_per_chunk
/// [`memtable_threshold`]: EngineConfig::memtable_threshold
/// [`compaction_auto`]: EngineConfig::compaction_auto
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum points per chunk; a flush splits the memtable into runs
    /// of at most this many points, and compaction re-chunks merged
    /// points the same way (paper value: 1000). A chunk is one page, the
    /// unit of decode and of the read cache, so [`normalized`] clamps
    /// this to `1..=`[`tsfile::page::MAX_PAGE_POINTS`] (2^20 points).
    ///
    /// [`normalized`]: EngineConfig::normalized
    pub points_per_chunk: usize,
    /// Memtable point count that triggers an automatic flush. A flush
    /// group seals one TsFile per shard it touches.
    pub memtable_threshold: usize,
    /// Inert: every page chooses its timestamps' form from its own data
    /// ([`EncodingKind`]). Kept for the configuration's callers until
    /// they can drop it.
    pub ts_encoding: EncodingKind,
    /// Inert, as [`Self::ts_encoding`] is.
    pub val_encoding: EncodingKind,
    /// Capacity of the cross-query decoded-chunk LRU in bytes
    /// (approximate: decoded point payload plus a small per-entry
    /// overhead). At most 1 TiB. `0` builds no cache: every chunk read
    /// decodes (the seed's behaviour, the benchmark's cache-off arm).
    pub cache_capacity_bytes: u64,
    /// Worker threads a query may load chunks across in parallel (only
    /// cache misses are ever spread). `1` means fully sequential. Must
    /// be in `1..=256`.
    pub read_threads: usize,
    /// Number of shards the store is split across. Series `id` lives in
    /// shard `id % write_shards`, and a shard is one lock, one log and
    /// one directory: its series map's `RwLock`, its shared WAL and
    /// `shard-NNNN/` with its data files and delete logs. Writers to
    /// series in different shards never contend, and a flush seals one
    /// file per shard it touches. Fixed at store creation: the first
    /// open writes it to the `SHARDS` meta file, and later opens run
    /// with the pinned value whatever this says ([`crate::TsKv::config`]
    /// reports it). Must be in `1..=1024`.
    pub write_shards: usize,
    /// When group-committed WAL bytes are forced to stable storage.
    pub fsync_policy: FsyncPolicy,
    /// Run the background compaction scheduler. Off by default:
    /// compaction stays manual (`kv.compact`), which is the paper's
    /// NO_COMPACTION setup and the test default.
    pub compaction_auto: bool,
    /// Sealed-file count per series at which the scheduler merges all
    /// of them into one. Must be at least 2 (compacting a single file
    /// is a rewrite for nothing).
    pub compaction_threshold: usize,
    /// Scheduler poll period in milliseconds. Must be in `1..=60_000`.
    pub compaction_interval_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            points_per_chunk: 1000,
            memtable_threshold: 100_000,
            ts_encoding: EncodingKind::Ts2Diff,
            val_encoding: EncodingKind::Gorilla,
            cache_capacity_bytes: 64 * 1024 * 1024,
            read_threads: 4,
            write_shards: 16,
            fsync_policy: FsyncPolicy::OnFlush,
            compaction_auto: false,
            compaction_threshold: 8,
            compaction_interval_ms: 20,
        }
    }
}

/// Upper bound on [`EngineConfig::read_threads`].
pub const MAX_READ_THREADS: usize = 256;

/// Upper bound on [`EngineConfig::cache_capacity_bytes`] (1 TiB).
pub const MAX_CACHE_CAPACITY_BYTES: u64 = 1 << 40;

/// Upper bound on [`EngineConfig::write_shards`]. Four-digit shard
/// directory names cover it.
pub const MAX_WRITE_SHARDS: usize = 1024;

/// Upper bound on [`EngineConfig::compaction_interval_ms`] (1 minute —
/// a slower scheduler is indistinguishable from a disabled one).
pub const MAX_COMPACTION_INTERVAL_MS: u64 = 60_000;

/// Maximum number of series the catalog will intern. Registration past
/// this fails with `CatalogFull` (series ids are dense `u32`s).
pub const CATALOG_MAX_SERIES: u64 = 1 << 24;

/// Byte threshold at which a group-committed WAL batch is written
/// through to the file mid-batch; every batch is written out (and
/// fsynced per [`EngineConfig::fsync_policy`]) when its call commits
/// regardless.
pub const WAL_BATCH_BYTES: usize = 64 * 1024;

/// Size at which a shared WAL segment file is sealed and a fresh one
/// opened (reclamation works at segment granularity).
pub const WAL_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

impl EngineConfig {
    /// Clamp nonsensical sizes: zero sizes become 1, and a chunk holds
    /// at most what one page may ([`tsfile::page::MAX_PAGE_POINTS`]).
    pub fn normalized(mut self) -> Self {
        self.points_per_chunk = self
            .points_per_chunk
            .clamp(1, tsfile::page::MAX_PAGE_POINTS);
        if self.memtable_threshold == 0 {
            self.memtable_threshold = 1;
        }
        self
    }

    /// Reject zero/absurd cache and parallelism knobs with a typed
    /// error. Unlike the size clamps in [`normalized`], these
    /// knobs fail loudly: a zero thread count or an over-1-TiB cache is
    /// a misconfiguration, not a degenerate-but-meaningful setting.
    ///
    /// [`normalized`]: EngineConfig::normalized
    pub fn validate(&self) -> crate::Result<()> {
        if self.read_threads == 0 {
            return Err(crate::TsKvError::InvalidConfig {
                field: "read_threads",
                value: 0,
                reason: "must be at least 1",
            });
        }
        if self.read_threads > MAX_READ_THREADS {
            return Err(crate::TsKvError::InvalidConfig {
                field: "read_threads",
                value: self.read_threads as u64,
                reason: "exceeds the 256-thread ceiling",
            });
        }
        if self.cache_capacity_bytes > MAX_CACHE_CAPACITY_BYTES {
            return Err(crate::TsKvError::InvalidConfig {
                field: "cache_capacity_bytes",
                value: self.cache_capacity_bytes,
                reason: "exceeds the 1 TiB ceiling",
            });
        }
        if self.write_shards == 0 {
            return Err(crate::TsKvError::InvalidConfig {
                field: "write_shards",
                value: 0,
                reason: "must be at least 1",
            });
        }
        if self.write_shards > MAX_WRITE_SHARDS {
            return Err(crate::TsKvError::InvalidConfig {
                field: "write_shards",
                value: self.write_shards as u64,
                reason: "exceeds the 1024-shard ceiling",
            });
        }
        if self.compaction_threshold < 2 {
            return Err(crate::TsKvError::InvalidConfig {
                field: "compaction_threshold",
                value: self.compaction_threshold as u64,
                reason: "must be at least 2 sealed files",
            });
        }
        if self.compaction_interval_ms == 0 {
            return Err(crate::TsKvError::InvalidConfig {
                field: "compaction_interval_ms",
                value: 0,
                reason: "must be at least 1 ms",
            });
        }
        if self.compaction_interval_ms > MAX_COMPACTION_INTERVAL_MS {
            return Err(crate::TsKvError::InvalidConfig {
                field: "compaction_interval_ms",
                value: self.compaction_interval_ms,
                reason: "exceeds the 60 s ceiling",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::panic)]

    use super::*;

    #[test]
    fn default_matches_paper_chunk_size() {
        let c = EngineConfig::default();
        assert_eq!(c.points_per_chunk, 1000);
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = EngineConfig {
            points_per_chunk: 0,
            memtable_threshold: 0,
            ..Default::default()
        }
        .normalized();
        assert_eq!(c.points_per_chunk, 1);
        assert_eq!(c.memtable_threshold, 1);
    }

    /// A chunk is one page: `points_per_chunk` is clamped to the page
    /// ceiling, which the writer would otherwise refuse at flush.
    #[test]
    fn normalized_clamps_points_per_chunk_to_one_page() {
        let max = tsfile::page::MAX_PAGE_POINTS;
        for (set, got) in [(usize::MAX, max), (max + 1, max), (max, max), (7, 7)] {
            let c = EngineConfig {
                points_per_chunk: set,
                ..Default::default()
            }
            .normalized();
            assert_eq!(c.points_per_chunk, got, "{set}");
        }
    }

    #[test]
    fn validate_accepts_defaults() {
        assert!(EngineConfig::default().validate().is_ok());
    }

    #[test]
    fn fsync_policy_names_are_stable() {
        assert_eq!(FsyncPolicy::Always.as_str(), "always");
        assert_eq!(FsyncPolicy::OnFlush.as_str(), "on_flush");
        assert_eq!(FsyncPolicy::Never.as_str(), "never");
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::OnFlush);
    }

    #[test]
    fn validate_rejects_bad_write_path_knobs() {
        use crate::TsKvError;
        let cases: [(EngineConfig, &str); 5] = [
            (
                EngineConfig {
                    write_shards: 0,
                    ..Default::default()
                },
                "write_shards",
            ),
            (
                EngineConfig {
                    write_shards: MAX_WRITE_SHARDS + 1,
                    ..Default::default()
                },
                "write_shards",
            ),
            (
                EngineConfig {
                    compaction_threshold: 1,
                    ..Default::default()
                },
                "compaction_threshold",
            ),
            (
                EngineConfig {
                    compaction_interval_ms: 0,
                    ..Default::default()
                },
                "compaction_interval_ms",
            ),
            (
                EngineConfig {
                    compaction_interval_ms: MAX_COMPACTION_INTERVAL_MS + 1,
                    ..Default::default()
                },
                "compaction_interval_ms",
            ),
        ];
        for (config, want_field) in cases {
            match config.validate() {
                Err(TsKvError::InvalidConfig { field, .. }) => assert_eq!(field, want_field),
                other => panic!("expected InvalidConfig for {want_field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_zero_and_absurd_knobs() {
        use crate::TsKvError;
        let cases: [(EngineConfig, &str); 3] = [
            (
                EngineConfig {
                    read_threads: 0,
                    ..Default::default()
                },
                "read_threads",
            ),
            (
                EngineConfig {
                    read_threads: MAX_READ_THREADS + 1,
                    ..Default::default()
                },
                "read_threads",
            ),
            (
                EngineConfig {
                    cache_capacity_bytes: MAX_CACHE_CAPACITY_BYTES + 1,
                    ..Default::default()
                },
                "cache_capacity_bytes",
            ),
        ];
        for (config, want_field) in cases {
            match config.validate() {
                Err(TsKvError::InvalidConfig { field, .. }) => assert_eq!(field, want_field),
                other => panic!("expected InvalidConfig for {want_field}, got {other:?}"),
            }
        }
    }
}
