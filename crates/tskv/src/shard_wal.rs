//! Shared, series-tagged write-ahead log for one shard.
//!
//! The paper's experimental setup flushes everything before querying,
//! so IoTDB's WAL never features in its measurements — but a storage
//! engine that silently drops buffered points on restart is not usable.
//! This log makes the memtables durable: every insert batch and delete
//! is appended (CRC-framed, torn tails dropped on replay) before it is
//! applied. Each of the store's fixed, pinned `write_shards` shards —
//! one lock, one log, one directory — holds **one** log shared by every
//! series hashed into it, and each record
//! carries the [`SeriesId`] it belongs to. A cold series costs zero WAL
//! state; a hot shard batches frames from many series into the same
//! group-committed appends.
//!
//! ## Record framing
//!
//! `u8 kind | body | u32 crc` (CRC over kind + body), little-endian:
//!
//! * kind 0 — insert run: `u32 id`, `varint κ`, `varint n`,
//!   `n × (varint_i t, f64 v)`. κ is the highest version allocated when
//!   the run was appended: a flush of the series that drains these
//!   points reserves its chunk versions above it.
//! * kind 1 — delete: `u32 id`, `varint κ`, `varint_i t_ds`, `varint_i t_de`.
//!   The version κ lets recovery log the tombstone when the series'
//!   mods log missed it (crash between the WAL append and the mods
//!   append).
//! * kind 2 — flush-begin: `u32 id`. Marks the drain point of a flush:
//!   every record of this series before the marker covers points now
//!   leaving the memtable.
//! * kind 3 — flush-end: `u32 id`. The flush's TsFile is durable; on
//!   replay, this series' records before the matching begin marker are
//!   skipped (their points live in the sealed file).
//!
//! The markers keep the heavy TsFile write outside the engine's shard
//! lock (no guard of it may be live across a data file's I/O) without a
//! window where a crash could lose acknowledged writes: a crash
//! mid-flush leaves an unmatched *begin*, so everything replays; a
//! failed flush aborts its begin and the records stay replayable.
//! Losing an *end* marker (crash between install and sync) merely
//! replays points that also exist in the sealed file — the merge path
//! dedups same-timestamp points, so reads stay correct at the cost of a
//! transiently larger memtable.
//!
//! The markers are the *log's* account of what is sealed, and the log
//! is synced behind the file: a power loss can keep the file and only
//! a prefix of the members' records, begin marker not included. Such a
//! prefix is older than the file and must not replay over it (the
//! memtable outranks every file). So the *files* are asked too: a
//! record whose κ lies below the highest version of a durable run of
//! its series ([`ShardWal::open`]'s `sealed_version`) is skipped — the
//! flush that wrote that run took its versions after the record was
//! appended and drained it. Records that raced the flush carry a κ at
//! or above its versions and replay.
//!
//! ## Segments and space reclamation
//!
//! The log is a sequence of `wal-NNNNNNNN.log` segment files; the
//! highest-numbered one is active and appends roll to a fresh segment
//! once it crosses `segment_bytes`. Open seals every segment it finds
//! and starts a fresh one — except an empty newest segment, which it
//! reuses, so opening an idle log writes nothing. Reclamation is
//! prefix-only: a sealed segment is deleted once every series'
//! uncovered records (the ones a replay would still need) start at or
//! after its end. When *no* series has uncovered records, the whole
//! log resets: sealed segments are deleted and the active one is
//! truncated. An append between the check and the truncate is
//! impossible — every append updates `last_append` under the same
//! mutex, making that series uncovered and vetoing the reset.
//!
//! ## Group commit
//!
//! Frames buffer in memory up to `batch_bytes` and drain in one
//! `write_all` — when the buffer crosses the threshold or on
//! [`ShardWal::commit`], which the engine calls once per shard a write
//! touched, before releasing the shard lock. Because the engine never
//! *acknowledges* a write without committing, a crash can only lose
//! writes that were never acknowledged (at most the torn tail record).
//! `commit` returns the bytes written through since the last commit
//! (feeding the group-commit counters) and fsyncs per
//! [`crate::config::FsyncPolicy`]; the engine also syncs on delete and
//! once per flush group — behind its end markers, and only if a replay
//! still needs the log: a flush that covered all of it resets it instead.
//! Offsets are *logical* — they count buffered bytes — so coverage
//! arithmetic never depends on what has physically reached the file
//! yet.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// A durability writer: appends, commits and segment rolls run under the
// engine's shard lock on purpose (a record is in the log before the
// state it describes is visible), so its file calls are raw and do not
// check for a live guard.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use tsfile::checksum::crc32;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::varint;

use crate::catalog::SeriesId;
use crate::Result;

/// A replayed WAL operation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// `after`: the highest version allocated when the run was appended.
    Insert {
        after: Version,
        points: Vec<Point>,
    },
    Delete {
        version: Version,
        range: TimeRange,
    },
}

impl WalRecord {
    /// A durable run of the series with a higher version holds what
    /// this record did.
    fn version(&self) -> Version {
        match self {
            WalRecord::Insert { after: version, .. } | WalRecord::Delete { version, .. } => {
                *version
            }
        }
    }
}

/// One sealed (no longer written) segment file.
#[derive(Debug)]
struct Segment {
    /// Logical offset just past the segment's last byte.
    end: u64,
    path: PathBuf,
}

#[derive(Debug)]
struct WalState {
    file: File,
    active_path: PathBuf,
    /// Logical offset of the active segment's first byte.
    seg_base: u64,
    /// Logical end of the log: every byte appended so far, buffered or
    /// written.
    pos: u64,
    /// Framed records not yet written to the OS.
    buf: Vec<u8>,
    written_since_commit: u64,
    /// Bytes written to the active file since its last fsync. Distinct
    /// from `written_since_commit`, which counts one commit's bytes: a
    /// sync must cover every unsynced byte — those of earlier unsynced
    /// commits, and those [`ShardWal::end_flushes`] drained, which runs
    /// with no shard lock held and so can write a writer's frames
    /// through before that writer's own commit.
    unsynced_bytes: u64,
    sealed: Vec<Segment>,
    next_seg_id: u64,
    /// Per-series logical offset just past its last insert/delete
    /// record. Pruned once everything is covered by durable files.
    last_append: HashMap<SeriesId, u64>,
    /// Per-series logical offset of the first record a replay would
    /// still need. Pruned with `last_append`; its minimum is the
    /// reclamation horizon.
    first_uncovered: HashMap<SeriesId, u64>,
    /// In-flight flushes: series → offset of its begin marker.
    pending_begin: HashMap<SeriesId, u64>,
}

/// The shared log of one shard.
#[derive(Debug)]
pub(crate) struct ShardWal {
    batch_bytes: usize,
    segment_bytes: u64,
    state: Mutex<WalState>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:08}.log"))
}

fn parse_segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// A record replayed from a shard log, tagged with its series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TaggedRecord {
    Op(SeriesId, WalRecord),
    FlushBegin(SeriesId),
    FlushEnd(SeriesId),
}

/// Decode one framed record at `start`; `None` on torn/corrupt data.
fn decode_record(buf: &[u8], start: usize) -> Option<(TaggedRecord, usize)> {
    let mut pos = start;
    let kind = *buf.get(pos)?;
    pos += 1;
    let id_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let id = SeriesId(u32::from_le_bytes(id_bytes.try_into().ok()?));
    pos += 4;
    let record = match kind {
        0 => {
            let after = Version(varint::read_u64(buf, &mut pos).ok()?);
            let n = varint::read_u64(buf, &mut pos).ok()? as usize;
            // A record cannot hold more points than bytes remaining.
            if n > buf.len().saturating_sub(pos) {
                return None;
            }
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let t: Timestamp = varint::read_i64(buf, &mut pos).ok()?;
                let v_bytes = buf.get(pos..pos.checked_add(8)?)?;
                pos += 8;
                points.push(Point::new(t, f64::from_le_bytes(v_bytes.try_into().ok()?)));
            }
            TaggedRecord::Op(id, WalRecord::Insert { after, points })
        }
        1 => {
            let version = Version(varint::read_u64(buf, &mut pos).ok()?);
            let s = varint::read_i64(buf, &mut pos).ok()?;
            let e = varint::read_i64(buf, &mut pos).ok()?;
            TaggedRecord::Op(
                id,
                WalRecord::Delete {
                    version,
                    range: TimeRange::new(s, e),
                },
            )
        }
        2 => TaggedRecord::FlushBegin(id),
        3 => TaggedRecord::FlushEnd(id),
        _ => return None,
    };
    let crc_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let expected = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(buf.get(start..pos)?) != expected {
        return None;
    }
    Some((record, pos + 4))
}

/// Every whole frame of the segment at `path`, each with the offset
/// just past it (crash-image tests cut a log between two frames).
#[cfg(test)]
pub(crate) fn scan_segment(path: &Path) -> Result<Vec<(TaggedRecord, u64)>> {
    let buf = std::fs::read(path)?;
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let Some((record, next)) = decode_record(&buf, pos) {
        frames.push((record, next as u64));
        pos = next;
    }
    Ok(frames)
}

/// Per-series surviving state after a replay scan.
#[derive(Debug, Default)]
struct ReplayState {
    /// `(logical offset, record)` in append order.
    ops: Vec<(u64, WalRecord)>,
    /// Offset of the begin marker of an in-flight (unmatched) flush.
    open_begin: Option<u64>,
    /// Offset of the begin marker of the last *matched* begin/end pair:
    /// ops before it are covered by a durable file.
    covered_below: u64,
    last_append: u64,
}

impl ShardWal {
    /// Open the shard log in `dir`, replaying existing segments.
    /// Returns the live log plus, per series, the operations a restart
    /// must re-apply. Covered ones are skipped: those a matched marker
    /// pair covers, and those below `sealed_version` — the highest
    /// version of a durable run of the series (0 if none), which is how
    /// a log that a power loss left trailing the file is told from one
    /// that is ahead of it.
    pub fn open(
        dir: &Path,
        batch_bytes: usize,
        segment_bytes: u64,
        sealed_version: impl Fn(SeriesId) -> Version,
    ) -> Result<(ShardWal, HashMap<SeriesId, Vec<WalRecord>>)> {
        let mut seg_ids: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_id) {
                seg_ids.push(id);
            }
        }
        seg_ids.sort_unstable();

        let mut sealed: Vec<Segment> = Vec::new();
        let mut replay: HashMap<SeriesId, ReplayState> = HashMap::new();
        let mut offset = 0u64;
        let mut newest_is_empty = false;
        for &seg_id in &seg_ids {
            let path = segment_path(dir, seg_id);
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            newest_is_empty = buf.is_empty();
            let mut pos = 0usize;
            // Stop at the first torn/corrupt record of a segment (a
            // crash only ever tears the tail of the last one) but keep
            // scanning later segments: under latest-wins, dropping an
            // older record while keeping newer ones is safe.
            while pos < buf.len() {
                let Some((record, next)) = decode_record(&buf, pos) else {
                    break;
                };
                let at = offset + pos as u64;
                match record {
                    TaggedRecord::Op(id, op) => {
                        let st = replay.entry(id).or_default();
                        st.ops.push((at, op));
                        st.last_append = offset + next as u64;
                    }
                    TaggedRecord::FlushBegin(id) => {
                        replay.entry(id).or_default().open_begin = Some(at);
                    }
                    TaggedRecord::FlushEnd(id) => {
                        let st = replay.entry(id).or_default();
                        if let Some(begin) = st.open_begin.take() {
                            st.covered_below = st.covered_below.max(begin);
                        }
                    }
                }
                pos = next;
            }
            let end = offset + buf.len() as u64;
            sealed.push(Segment { end, path });
            offset = end;
        }

        // Every pre-existing segment with bytes in it stays sealed (a
        // possibly-torn tail is never appended to) and a fresh segment
        // becomes active. An empty newest segment has no tail to tear,
        // so it is reused: reopening an idle log changes nothing on disk.
        let active_id = match seg_ids.last() {
            Some(&last) if newest_is_empty => {
                sealed.pop();
                last
            }
            Some(&last) => last + 1,
            None => 0,
        };
        let active_path = segment_path(dir, active_id);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active_path)?;

        let mut last_append = HashMap::new();
        let mut first_uncovered = HashMap::new();
        let mut out: HashMap<SeriesId, Vec<WalRecord>> = HashMap::new();
        for (id, st) in replay {
            let sealed_version = sealed_version(id);
            let surviving: Vec<(u64, WalRecord)> = st
                .ops
                .into_iter()
                .filter(|(at, op)| *at >= st.covered_below && op.version() >= sealed_version)
                .collect();
            if let Some(&(first_at, _)) = surviving.first() {
                first_uncovered.insert(id, first_at);
                last_append.insert(id, st.last_append);
                out.insert(id, surviving.into_iter().map(|(_, op)| op).collect());
            }
        }

        let wal = ShardWal {
            batch_bytes,
            segment_bytes,
            state: Mutex::new(WalState {
                file,
                active_path,
                seg_base: offset,
                pos: offset,
                buf: Vec::new(),
                written_since_commit: 0,
                unsynced_bytes: 0,
                sealed,
                next_seg_id: active_id + 1,
                last_append,
                first_uncovered,
                pending_begin: HashMap::new(),
            }),
        };
        // Nothing uncovered (clean shutdown after full flush): reclaim
        // the dead segments eagerly rather than on the next flush.
        wal.state.lock().maybe_reclaim()?;
        Ok((wal, out))
    }

    /// Append one insert run for `id`; `after` is the highest version
    /// allocated so far, read under the lock that serializes the series'
    /// appends and flush claims.
    pub fn append_inserts(&self, id: SeriesId, after: Version, points: &[Point]) -> Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        self.append_op(id, |out| {
            // Kind + id + version + count, then at most 10 + 8 bytes per
            // point: the record never regrows the buffer mid-encode.
            out.reserve(25 + points.len() * 18);
            out.push(0u8);
            out.extend_from_slice(&id.0.to_le_bytes());
            varint::write_u64(out, after.0);
            varint::write_u64(out, points.len() as u64);
            for p in points {
                varint::write_i64(out, p.t);
                out.extend_from_slice(&p.v.to_le_bytes());
            }
        })
    }

    /// Append one delete for `id` with its global version `κ`.
    pub fn append_delete(&self, id: SeriesId, version: Version, range: TimeRange) -> Result<()> {
        self.append_op(id, |out| {
            out.push(1u8);
            out.extend_from_slice(&id.0.to_le_bytes());
            varint::write_u64(out, version.0);
            varint::write_i64(out, range.start);
            varint::write_i64(out, range.end);
        })
    }

    fn append_op(&self, id: SeriesId, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let mut state = self.state.lock();
        let at = state.pos;
        state.append_framed(encode, self.batch_bytes)?;
        let pos = state.pos;
        state.last_append.insert(id, pos);
        state.first_uncovered.entry(id).or_insert(at);
        Ok(())
    }

    /// End a group commit: drain buffered frames, optionally fsync, and
    /// return the bytes written through since the previous commit.
    pub fn commit(&self, sync: bool) -> Result<u64> {
        let mut state = self.state.lock();
        state.flush_buf()?;
        let bytes = state.written_since_commit;
        state.written_since_commit = 0;
        state.sync_unsynced(sync)?;
        state.maybe_roll(self.segment_bytes)?;
        Ok(bytes)
    }

    /// Mark the drain point of a flush of `id`: records before this
    /// offset cover the points leaving the memtable. Must run under the
    /// same lock that serializes this series' appends. The marker only
    /// joins the group-commit buffer: the shard's next commit or, at the
    /// latest, the one write of [`end_flushes`](Self::end_flushes) drains it.
    pub fn begin_flush(&self, id: SeriesId) -> Result<()> {
        let mut state = self.state.lock();
        let at = state.pos;
        state.append_marker(2, id, self.batch_bytes)?;
        state.pending_begin.insert(id, at);
        Ok(())
    }

    /// The TsFile holding the flushes of `ids` is durable: everything
    /// of each series before its begin marker is covered. One buffered
    /// write for the group's markers (begin markers no commit drained
    /// included), one reclamation scan. Each series must still hold its
    /// in-flight slot: an end marker behind the *next* begin marker of
    /// its series would cover records that flush has not sealed. With
    /// `sync`, what reclamation left unsynced is `fdatasync`ed (nothing
    /// if it reset the log: the truncate syncs itself); true if synced.
    pub fn end_flushes(&self, ids: &[SeriesId], sync: bool) -> Result<bool> {
        let mut state = self.state.lock();
        for &id in ids {
            state.append_marker(3, id, self.batch_bytes)?;
        }
        state.flush_buf()?;
        for id in ids {
            let Some(begin) = state.pending_begin.remove(id) else {
                continue;
            };
            if state.last_append.get(id).is_some_and(|&last| last > begin) {
                // Records landed after the drain point (writes racing
                // the flush): the series stays uncovered from there.
                let entry = state.first_uncovered.entry(*id).or_insert(begin);
                *entry = (*entry).max(begin);
            } else {
                state.last_append.remove(id);
                state.first_uncovered.remove(id);
            }
        }
        state.maybe_reclaim()?;
        let synced = state.sync_unsynced(sync)?;
        state.maybe_roll(self.segment_bytes)?;
        Ok(synced)
    }

    /// The flush failed or was abandoned; its begin marker stays in the
    /// log as a dead (never matched) marker.
    pub fn abort_flush(&self, id: SeriesId) {
        self.state.lock().pending_begin.remove(&id);
    }

    /// Segment files currently on disk (tests / inspection).
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        let state = self.state.lock();
        state.sealed.len() + 1
    }

    /// Bytes written but not yet fsynced (tests / inspection).
    #[cfg(test)]
    fn unsynced_bytes(&self) -> u64 {
        self.state.lock().unsynced_bytes
    }
}

impl WalState {
    /// Frame one record: `encode` writes kind + body straight into the
    /// group-commit buffer, and the CRC is taken over those bytes where
    /// they lie.
    fn append_framed(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
        batch_bytes: usize,
    ) -> Result<()> {
        let start = self.buf.len();
        encode(&mut self.buf);
        let crc = crc32(self.buf.get(start..).unwrap_or(&[]));
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.pos += (self.buf.len() - start) as u64;
        if self.buf.len() >= batch_bytes {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn append_marker(&mut self, kind: u8, id: SeriesId, batch_bytes: usize) -> Result<()> {
        self.append_framed(
            |out| {
                out.push(kind);
                out.extend_from_slice(&id.0.to_le_bytes());
            },
            batch_bytes,
        )
    }

    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.written_since_commit += self.buf.len() as u64;
        self.unsynced_bytes += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// `fdatasync` the active segment if `sync` and bytes await it.
    fn sync_unsynced(&mut self, sync: bool) -> Result<bool> {
        if !sync || self.unsynced_bytes == 0 {
            return Ok(false);
        }
        self.file.sync_data()?;
        self.unsynced_bytes = 0;
        Ok(true)
    }

    /// Roll to a fresh segment once the active one crosses the size
    /// threshold. Only rolls when the buffer is drained (callers run it
    /// after `flush_buf`).
    fn maybe_roll(&mut self, segment_bytes: u64) -> Result<()> {
        if !self.buf.is_empty() || self.pos - self.seg_base < segment_bytes {
            return Ok(());
        }
        // Once sealed, this file's handle goes away — a later sync
        // through the new active handle cannot cover its bytes.
        self.sync_unsynced(true)?;
        let dir = self
            .active_path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let new_path = segment_path(&dir, self.next_seg_id);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&new_path)?;
        self.sealed.push(Segment {
            end: self.pos,
            path: std::mem::replace(&mut self.active_path, new_path),
        });
        self.file = file;
        self.seg_base = self.pos;
        self.next_seg_id += 1;
        Ok(())
    }

    /// Drop log space no replay could need: sealed segments wholly
    /// below every series' uncovered records, or — when nothing at all
    /// is uncovered — the entire log.
    fn maybe_reclaim(&mut self) -> Result<()> {
        if self.first_uncovered.is_empty() && self.pending_begin.is_empty() {
            // Nothing uncovered anywhere: full reset. Buffered frames
            // can only belong to uncovered appends, so the buffer is
            // provably empty here.
            for seg in self.sealed.drain(..) {
                remove_if_present(&seg.path)?;
            }
            self.last_append.clear();
            if self.pos == self.seg_base {
                // The active segment is already empty.
                return Ok(());
            }
            // Recreate rather than truncate-in-place: O_APPEND offsets
            // reset with the new handle on every platform.
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&self.active_path)?;
            file.sync_data()?;
            self.file = OpenOptions::new().append(true).open(&self.active_path)?;
            self.seg_base = self.pos;
            // The truncate discarded whatever was written-but-unsynced.
            self.unsynced_bytes = 0;
            return Ok(());
        }
        let mut min_keep = self
            .first_uncovered
            .values()
            .copied()
            .min()
            .unwrap_or(u64::MAX);
        // An in-flight flush still needs everything from its begin
        // marker (the flush may fail and fall back to the log).
        for &begin in self.pending_begin.values() {
            min_keep = min_keep.min(begin);
        }
        while let Some(seg) = self.sealed.first() {
            if seg.end <= min_keep {
                remove_if_present(&seg.path)?;
                self.sealed.remove(0);
            } else {
                break;
            }
        }
        Ok(())
    }
}

fn remove_if_present(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tskv-shardwal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn pts(raw: &[(i64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(t, v)| Point::new(t, v)).collect()
    }

    /// An insert record appended with nothing allocated yet.
    fn ins(raw: &[(i64, f64)]) -> WalRecord {
        WalRecord::Insert {
            after: Version(0),
            points: pts(raw),
        }
    }

    /// No series has a sealed run.
    fn unsealed(_: SeriesId) -> Version {
        Version(0)
    }

    fn open(dir: &Path) -> (ShardWal, HashMap<SeriesId, Vec<WalRecord>>) {
        ShardWal::open(dir, 0, 1 << 20, unsealed).unwrap()
    }

    const A: SeriesId = SeriesId(0);
    const B: SeriesId = SeriesId(7);

    #[test]
    fn interleaved_appends_replay_per_series() {
        let dir = tmp("interleave");
        {
            let (w, replay) = open(&dir);
            assert!(replay.is_empty());
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.append_inserts(B, Version(0), &pts(&[(10, -1.0)]))
                .unwrap();
            w.append_delete(A, Version(5), TimeRange::new(0, 2))
                .unwrap();
            w.append_inserts(A, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
        }
        let (_w, replay) = open(&dir);
        assert_eq!(
            replay.get(&A).unwrap(),
            &vec![
                ins(&[(1, 1.0)]),
                WalRecord::Delete {
                    version: Version(5),
                    range: TimeRange::new(0, 2)
                },
                ins(&[(2, 2.0)]),
            ]
        );
        assert_eq!(replay.get(&B).unwrap(), &vec![ins(&[(10, -1.0)])]);
    }

    #[test]
    fn matched_flush_markers_skip_covered_prefix() {
        let dir = tmp("covered");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.commit(false).unwrap();
            w.begin_flush(A).unwrap();
            // Writes racing the flush land after the marker and survive.
            w.append_inserts(A, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
            w.end_flushes(&[A], false).unwrap();
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap(), &vec![ins(&[(2, 2.0)])]);
    }

    #[test]
    fn unmatched_begin_replays_everything() {
        let dir = tmp("crashmid");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.begin_flush(A).unwrap();
            w.commit(false).unwrap();
            // No end marker: crash mid-flush.
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap(), &vec![ins(&[(1, 1.0)])]);
    }

    #[test]
    fn records_below_a_sealed_version_are_not_replayed() {
        let dir = tmp("sealed");
        {
            let (w, _) = open(&dir);
            // A's flush took version 4 and its file is durable; of the
            // log, a power loss kept a prefix with no marker in it.
            w.append_inserts(A, Version(2), &pts(&[(1, 1.0)])).unwrap();
            w.append_delete(A, Version(3), TimeRange::new(0, 0))
                .unwrap();
            w.append_inserts(B, Version(3), &pts(&[(2, 2.0)])).unwrap();
            // A write that raced the flush: appended after its claim.
            w.append_inserts(A, Version(4), &pts(&[(3, 3.0)])).unwrap();
            w.commit(false).unwrap();
        }
        let sealed = |id| Version(if id == A { 4 } else { 0 });
        let (w, replay) = ShardWal::open(&dir, 0, 1 << 20, sealed).unwrap();
        let raced = WalRecord::Insert {
            after: Version(4),
            points: pts(&[(3, 3.0)]),
        };
        assert_eq!(replay.get(&A).unwrap(), &vec![raced]);
        assert_eq!(replay.get(&B).unwrap().len(), 1);
        drop(w);
        // With every record below a sealed version nothing pins the
        // log: the open drops it.
        let (w, replay) = ShardWal::open(&dir, 0, 1 << 20, |_| Version(5)).unwrap();
        assert!(replay.is_empty());
        assert_eq!(w.segment_count(), 1);
    }

    #[test]
    fn full_flush_resets_log() {
        let dir = tmp("reset");
        let (w, _) = open(&dir);
        w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
        w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
        w.commit(false).unwrap();
        for id in [A, B] {
            w.begin_flush(id).unwrap();
        }
        // Everything covered: the log reset to one empty active segment.
        // The reset's truncate + sync is the log sync of this flush — no
        // fdatasync of records the file made redundant.
        assert!(!w.end_flushes(&[A, B], true).unwrap());
        assert_eq!(w.unsynced_bytes(), 0);
        assert_eq!(w.segment_count(), 1);
        let files: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .collect();
        assert_eq!(files, vec![0]);
        drop(w);
        let (_w, replay) = open(&dir);
        assert!(replay.is_empty());
    }

    #[test]
    fn group_end_covers_every_member_and_keeps_the_rest() {
        const C: SeriesId = SeriesId(9);
        let dir = tmp("group");
        {
            let (w, _) = open(&dir);
            for id in [A, B, C] {
                w.append_inserts(id, Version(0), &pts(&[(1, 1.0)])).unwrap();
            }
            for id in [A, B] {
                w.begin_flush(id).unwrap();
            }
            w.commit(true).unwrap();
            let len = || std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
            let before = len();
            w.end_flushes(&[A, B], false).unwrap();
            // Two 9-byte markers; C's record pins the log, so nothing
            // was reclaimed from under them.
            assert_eq!(len() - before, 18);
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.keys().collect::<Vec<_>>(), vec![&C]);
    }

    #[test]
    fn end_flushes_syncs_what_a_bystander_keeps_in_the_log() {
        let dir = tmp("bystander");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
            w.begin_flush(A).unwrap();
            assert!(w.unsynced_bytes() > 0);
            // B's record pins the log: it and the markers are forced.
            assert!(w.end_flushes(&[A], true).unwrap());
            assert_eq!(w.unsynced_bytes(), 0);
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.get(&B).unwrap(), &vec![ins(&[(2, 2.0)])]);
    }

    #[test]
    fn a_groups_begin_and_end_markers_leave_the_buffer_in_one_write() {
        let dir = tmp("onewrite");
        let (w, _) = ShardWal::open(&dir, 1 << 20, 1 << 20, unsealed).unwrap();
        for id in [A, B, SeriesId(9)] {
            w.append_inserts(id, Version(0), &pts(&[(1, 1.0)])).unwrap();
        }
        let len = || std::fs::metadata(segment_path(&dir, 0)).unwrap().len();
        let records = w.commit(false).unwrap();
        assert_eq!(len(), records);
        for id in [A, B] {
            w.begin_flush(id).unwrap();
        }
        assert_eq!(len(), records, "begin markers only join the buffer");
        w.end_flushes(&[A, B], true).unwrap();
        // Four 9-byte markers, and one batch for the next commit to
        // report (one `wal_batches` tick).
        assert_eq!(len(), records + 36);
        assert_eq!(w.commit(false).unwrap(), 36);
    }

    #[test]
    fn covered_prefix_segments_are_reclaimed_past_uncovered_series() {
        let dir = tmp("prefix");
        // Tiny segments force rolls: A fills the early segments, B's
        // lone record lands in a late one.
        let (w, _) = ShardWal::open(&dir, 0, 64, unsealed).unwrap();
        for i in 0..20i64 {
            w.append_inserts(A, Version(0), &pts(&[(i, i as f64)]))
                .unwrap();
            w.commit(false).unwrap();
        }
        w.append_inserts(B, Version(0), &pts(&[(1, 1.0)])).unwrap();
        w.commit(false).unwrap();
        let before = w.segment_count();
        assert!(before > 2, "rolling produced only {before} segments");
        // Flushing A covers the early segments; B (uncovered, late)
        // does not pin them.
        w.begin_flush(A).unwrap();
        w.end_flushes(&[A], false).unwrap();
        let after = w.segment_count();
        assert!(after < before, "prefix not reclaimed: {before} -> {after}");
        // B's record must still replay after the reclaim.
        drop(w);
        let (w, replay) = open(&dir);
        assert_eq!(replay.get(&B).unwrap(), &vec![ins(&[(1, 1.0)])]);
        // Flushing B too clears the log entirely.
        w.begin_flush(B).unwrap();
        w.end_flushes(&[B], false).unwrap();
        assert_eq!(w.segment_count(), 1);
    }

    #[test]
    fn torn_tail_drops_only_final_record() {
        let dir = tmp("torn");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.append_inserts(A, Version(0), &pts(&[(2, 2.0), (3, 3.0)]))
                .unwrap();
            w.commit(false).unwrap();
        }
        // Tear the active segment's tail (segment 0: the only one with
        // data).
        let path = segment_path(&dir, 0);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, data.get(..data.len() - 5).unwrap()).unwrap();
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap(), &vec![ins(&[(1, 1.0)])]);
    }

    #[test]
    fn grouped_mode_buffers_until_commit() {
        let dir = tmp("grouped");
        let (w, _) = ShardWal::open(&dir, 1 << 20, 1 << 20, unsealed).unwrap();
        w.append_inserts(A, Version(0), &pts(&[(1, 1.0), (2, 2.0)]))
            .unwrap();
        // Nothing on disk yet (active segment is segment 0, empty).
        assert_eq!(std::fs::metadata(segment_path(&dir, 0)).unwrap().len(), 0);
        let bytes = w.commit(false).unwrap();
        assert!(bytes > 0);
        assert_eq!(
            std::fs::metadata(segment_path(&dir, 0)).unwrap().len(),
            bytes
        );
        // A second commit with nothing new reports an empty batch.
        assert_eq!(w.commit(true).unwrap(), 0);
    }

    #[test]
    fn sync_commit_covers_bytes_drained_by_earlier_commit() {
        let dir = tmp("synccarry");
        let (w, _) = open(&dir);
        // A's frames are drained (written, unsynced) by a commit(false)
        // — an earlier write, or a flush's marker write.
        w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
        assert!(w.commit(false).unwrap() > 0);
        assert!(w.unsynced_bytes() > 0);
        // B's commit(true) writes nothing new itself, but must still
        // fsync the bytes the earlier commit left unsynced.
        assert_eq!(w.commit(true).unwrap(), 0);
        assert_eq!(w.unsynced_bytes(), 0);
        // So must a later one, with bytes of its own on top.
        w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
        w.commit(false).unwrap();
        w.append_inserts(A, Version(0), &pts(&[(3, 3.0)])).unwrap();
        assert!(w.commit(true).unwrap() > 0);
        assert_eq!(w.unsynced_bytes(), 0);
    }

    #[test]
    fn abort_flush_keeps_records_replayable() {
        let dir = tmp("abort");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.begin_flush(A).unwrap();
            w.abort_flush(A);
            w.commit(false).unwrap();
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap(), &vec![ins(&[(1, 1.0)])]);
    }

    #[test]
    fn reopen_continues_segment_numbering() {
        let dir = tmp("numbering");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.commit(false).unwrap();
        }
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
            // Old segment 0 sealed, new active segment 1.
            assert_eq!(w.segment_count(), 2);
        }
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap().len(), 2);
    }
}
