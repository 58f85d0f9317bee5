//! Shared, series-tagged write-ahead log for one shard.
//!
//! The paper's experimental setup flushes everything before querying,
//! so IoTDB's WAL never features in its measurements — but a storage
//! engine that silently drops buffered points on restart is not usable.
//! This log makes the memtables durable: every insert batch and delete
//! is appended (CRC-framed, torn tails dropped on replay) before it is
//! applied — save a batch that fills its series' memtable while no
//! flush of the series is in flight. That write seals the memtable
//! itself before it is acknowledged, so the sealed file is the batch's
//! durability and a record of it would be covered before it could be
//! needed; if the seal fails, the points it puts back are appended
//! then. Each of the store's fixed, pinned `write_shards` shards —
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
//! * kind 4 — insert run: `u32 id`, `varint κ`, `varint n`,
//!   `n × (varint_i Δt, f64 v)`, each Δt from the point before (the
//!   first from 0; a point out of order gives a negative one). κ is the
//!   highest version allocated when the run was appended: a flush of the
//!   series that drains these points reserves its chunk versions above it.
//! * kind 0 — retired insert run, each point's `varint_i t` whole instead
//!   of its Δt. Nothing writes it now; a replay reads it as kind 4, so a
//!   log an earlier build left replays whole.
//! * kind 1 — delete: `u32 id`, `varint κ`, `varint_i t_ds`, `varint_i t_de`.
//!   κ is the delete's own version. It lets recovery log the tombstone
//!   when the series' mods log missed it (crash between the WAL append
//!   and the mods append).
//! * kinds 2 and 3 — retired: `u32 id`. Earlier builds framed a flush's
//!   begin and end markers this way. Nothing writes them now; a replay
//!   reads a CRC-valid one and skips it, so a log such a build left
//!   replays whole (κ says what the markers said).
//!
//! ## Coverage: one rule for replay and reclamation
//!
//! A record is *covered* — a durable run of its series holds what it
//! did — when its κ lies below the series' *sealed version*, the highest
//! version of a durable run ([`covered`]). The flush that wrote such a
//! run reserved its versions under the shard lock after the record was
//! appended, and drained it; a record appended after that claim — a
//! write racing the flush — carries a κ at or above the flush's versions
//! and is not covered. [`ShardWal::open`] is handed each series' sealed
//! version, read off the runs on disk, and skips covered records; a
//! finished flush reports the version it sealed through
//! [`ShardWal::end_flushes`], which reclaims by the same rule. A flush
//! appends nothing to the log.
//!
//! The log is synced behind the file: a power loss can keep the file and
//! only a prefix of the members' records. That prefix is older than the
//! file and must not replay over it (the memtable outranks every file);
//! it is covered, so it does not.
//!
//! ## Segments and space reclamation
//!
//! The log is a sequence of `wal-NNNNNNNN.log` segment files; the
//! highest-numbered one is active and appends roll to a fresh segment
//! once it crosses `segment_bytes`. Open seals every segment it finds
//! and starts a fresh one — except an empty newest segment, which it
//! reuses, so opening an idle log writes nothing. Each segment keeps
//! each series' highest record κ in it. A sealed segment is deleted, in
//! whatever position, once every series in it is covered there; when
//! the active segment is covered too, the whole log resets: sealed
//! segments are deleted and the active one is truncated. A buffered
//! frame is never covered — it was appended under the shard lock after
//! every claim whose flush has reported, so its κ is at or above their
//! versions — so a reset never drops one.
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
//! once per flush group — once the group's file is durable, and only if
//! a replay still needs the log: a flush that covered all of it resets
//! it instead.

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
    /// The record's κ, which [`covered`] compares with its series'
    /// sealed version.
    fn version(&self) -> Version {
        match self {
            WalRecord::Insert { after: version, .. } | WalRecord::Delete { version, .. } => {
                *version
            }
        }
    }
}

/// The log's one coverage rule, for replay and reclamation alike: a
/// record with κ `kappa` is covered when it lies below `sealed`, the
/// highest version of a durable run of its series (see the module
/// docs).
fn covered(kappa: Version, sealed: Version) -> bool {
    kappa < sealed
}

/// One segment file and each series' highest record κ in it.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    top: HashMap<SeriesId, Version>,
}

impl Segment {
    fn new(path: PathBuf) -> Self {
        Segment {
            path,
            top: HashMap::new(),
        }
    }

    fn note(&mut self, id: SeriesId, kappa: Version) {
        let top = self.top.entry(id).or_insert(kappa);
        *top = (*top).max(kappa);
    }

    /// No replay needs the segment: every series' records in it are
    /// covered by `sealed_to`.
    fn reclaimable(&self, sealed_to: &HashMap<SeriesId, Version>) -> bool {
        self.top.iter().all(|(id, &kappa)| {
            sealed_to
                .get(id)
                .is_some_and(|&sealed| covered(kappa, sealed))
        })
    }
}

#[derive(Debug)]
struct WalState {
    file: File,
    active: Segment,
    /// Bytes appended to the active segment, buffered or written.
    active_len: u64,
    /// Framed records not yet written to the OS.
    buf: Vec<u8>,
    written_since_commit: u64,
    /// Bytes written to the active file since its last fsync. Distinct
    /// from `written_since_commit`, which counts one commit's bytes: a
    /// sync must cover every unsynced byte — those of earlier unsynced
    /// commits included.
    unsynced_bytes: u64,
    sealed: Vec<Segment>,
    next_seg_id: u64,
    /// Each series' sealed version, as the open found it or a finished
    /// flush reported it. Cleared when the log resets.
    sealed_to: HashMap<SeriesId, Version>,
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

/// A decoded frame: its series and record, or `None` for a retired
/// kind 2/3 marker.
type Frame = Option<(SeriesId, WalRecord)>;

/// Decode one framed record at `start`, with the offset just past it;
/// `None` on torn/corrupt data.
fn decode_frame(buf: &[u8], start: usize) -> Option<(Frame, usize)> {
    let mut pos = start;
    let kind = *buf.get(pos)?;
    pos += 1;
    let id_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let id = SeriesId(u32::from_le_bytes(id_bytes.try_into().ok()?));
    pos += 4;
    let record = match kind {
        0 | 4 => {
            let after = Version(varint::read_u64(buf, &mut pos).ok()?);
            let n = varint::read_u64(buf, &mut pos).ok()?;
            // Each point takes at least 9 bytes: a count the bytes left
            // cannot hold is refused before anything is allocated.
            if n > (buf.len().saturating_sub(pos) / 9) as u64 {
                return None;
            }
            let mut points = Vec::with_capacity(n as usize);
            let mut t: Timestamp = 0;
            for _ in 0..n {
                let read = varint::read_i64(buf, &mut pos).ok()?;
                t = if kind == 0 {
                    read
                } else {
                    t.wrapping_add(read)
                };
                let v_bytes = buf.get(pos..pos.checked_add(8)?)?;
                pos += 8;
                points.push(Point::new(t, f64::from_le_bytes(v_bytes.try_into().ok()?)));
            }
            Some(WalRecord::Insert { after, points })
        }
        1 => {
            let version = Version(varint::read_u64(buf, &mut pos).ok()?);
            let s = varint::read_i64(buf, &mut pos).ok()?;
            let e = varint::read_i64(buf, &mut pos).ok()?;
            Some(WalRecord::Delete {
                version,
                range: TimeRange::new(s, e),
            })
        }
        // A retired flush marker: the id is its whole body.
        2 | 3 => None,
        _ => return None,
    };
    let crc_bytes = buf.get(pos..pos.checked_add(4)?)?;
    let expected = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if crc32(buf.get(start..pos)?) != expected {
        return None;
    }
    Some((record.map(|r| (id, r)), pos + 4))
}

impl ShardWal {
    /// Open the shard log in `dir`, replaying existing segments.
    /// Returns the live log plus, per series, the operations a restart
    /// must re-apply: every record [`covered`] by `sealed_version` — the
    /// highest version of a durable run of the series (0 if none) — is
    /// skipped.
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
        let mut replay: HashMap<SeriesId, Vec<WalRecord>> = HashMap::new();
        let mut newest_is_empty = false;
        for &seg_id in &seg_ids {
            let mut seg = Segment::new(segment_path(dir, seg_id));
            let mut buf = Vec::new();
            File::open(&seg.path)?.read_to_end(&mut buf)?;
            newest_is_empty = buf.is_empty();
            // Stop at the first torn/corrupt record of a segment (a
            // crash only ever tears the tail of the last one) but keep
            // scanning later segments: under latest-wins, dropping an
            // older record while keeping newer ones is safe.
            let mut pos = 0usize;
            while let Some((frame, next)) = decode_frame(&buf, pos) {
                if let Some((id, record)) = frame {
                    seg.note(id, record.version());
                    replay.entry(id).or_default().push(record);
                }
                pos = next;
            }
            sealed.push(seg);
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
        let active = Segment::new(segment_path(dir, active_id));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active.path)?;

        let mut sealed_to = HashMap::new();
        replay.retain(|&id, records| {
            let sealed = sealed_version(id);
            sealed_to.insert(id, sealed);
            records.retain(|r| !covered(r.version(), sealed));
            !records.is_empty()
        });

        let wal = ShardWal {
            batch_bytes,
            segment_bytes,
            state: Mutex::new(WalState {
                file,
                active,
                active_len: 0,
                buf: Vec::new(),
                written_since_commit: 0,
                unsynced_bytes: 0,
                sealed,
                next_seg_id: active_id + 1,
                sealed_to,
            }),
        };
        // Reclaim what the files cover now rather than on the next
        // flush (after a clean shutdown behind a full flush: the log).
        wal.state.lock().maybe_reclaim()?;
        Ok((wal, replay))
    }

    /// Append one insert run for `id`; `after` is the highest version
    /// allocated so far, read under the lock that serializes the series'
    /// appends and flush claims.
    pub fn append_inserts(&self, id: SeriesId, after: Version, points: &[Point]) -> Result<()> {
        if points.is_empty() {
            return Ok(());
        }
        self.append_op(id, after, |out| {
            // Kind + id + version + count, then at most 10 + 8 bytes per
            // point: the record never regrows the buffer mid-encode.
            out.reserve(25 + points.len() * 18);
            out.push(4u8);
            out.extend_from_slice(&id.0.to_le_bytes());
            varint::write_u64(out, after.0);
            varint::write_u64(out, points.len() as u64);
            let mut prev = 0;
            for p in points {
                varint::write_i64(out, p.t.wrapping_sub(prev));
                out.extend_from_slice(&p.v.to_le_bytes());
                prev = p.t;
            }
        })
    }

    /// Append one delete for `id` with its global version `κ`.
    pub fn append_delete(&self, id: SeriesId, version: Version, range: TimeRange) -> Result<()> {
        self.append_op(id, version, |out| {
            out.push(1u8);
            out.extend_from_slice(&id.0.to_le_bytes());
            varint::write_u64(out, version.0);
            varint::write_i64(out, range.start);
            varint::write_i64(out, range.end);
        })
    }

    fn append_op(
        &self,
        id: SeriesId,
        kappa: Version,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<()> {
        let mut state = self.state.lock();
        state.active.note(id, kappa);
        state.append_framed(encode, self.batch_bytes)
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

    /// A flush group's file is durable: each `(series, version)` of
    /// `sealed` holds that series' records below `version`. One
    /// reclamation scan; then, with `sync`, what is left unsynced is
    /// `fdatasync`ed (nothing if the log reset: the truncate syncs
    /// itself). Returns whether it synced. Appends nothing.
    pub fn end_flushes(&self, sealed: &[(SeriesId, Version)], sync: bool) -> Result<bool> {
        let mut state = self.state.lock();
        for &(id, version) in sealed {
            let to = state.sealed_to.entry(id).or_insert(version);
            *to = (*to).max(version);
        }
        state.maybe_reclaim()?;
        state.sync_unsynced(sync)
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

    /// Each series' sealed version as reclamation uses it (tests).
    #[cfg(test)]
    pub(crate) fn sealed_versions(&self) -> HashMap<SeriesId, Version> {
        self.state.lock().sealed_to.clone()
    }

    /// Where a power loss can cut the log: the active segment's path and
    /// every frame boundary in it at or past its synced length (sealed
    /// segments were synced when they rolled). Crash-image tests cut
    /// there.
    #[cfg(test)]
    pub(crate) fn crash_cuts(&self) -> Result<(PathBuf, Vec<u64>)> {
        let state = self.state.lock();
        let written = state.active_len - state.buf.len() as u64;
        let synced = written - state.unsynced_bytes;
        let bytes = std::fs::read(&state.active.path)?;
        let mut cuts = vec![0u64];
        let mut pos = 0usize;
        while let Some((_, next)) = decode_frame(&bytes, pos) {
            cuts.push(next as u64);
            pos = next;
        }
        cuts.retain(|&cut| cut >= synced);
        Ok((state.active.path.clone(), cuts))
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
        self.active_len += (self.buf.len() - start) as u64;
        if self.buf.len() >= batch_bytes {
            self.flush_buf()?;
        }
        Ok(())
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
        if !self.buf.is_empty() || self.active_len < segment_bytes {
            return Ok(());
        }
        // Once sealed, this file's handle goes away — a later sync
        // through the new active handle cannot cover its bytes.
        self.sync_unsynced(true)?;
        let dir = self
            .active
            .path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let active = Segment::new(segment_path(&dir, self.next_seg_id));
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&active.path)?;
        self.sealed
            .push(std::mem::replace(&mut self.active, active));
        self.active_len = 0;
        self.next_seg_id += 1;
        Ok(())
    }

    /// Drop what no replay needs: every sealed segment whose records are
    /// all covered, and — when the active segment's are too — the whole
    /// log.
    fn maybe_reclaim(&mut self) -> Result<()> {
        let mut removed = Ok(());
        self.sealed.retain(|seg| {
            if removed.is_err() || !seg.reclaimable(&self.sealed_to) {
                return true;
            }
            removed = remove_if_present(&seg.path);
            removed.is_err()
        });
        removed?;
        if !self.sealed.is_empty() || !self.active.reclaimable(&self.sealed_to) {
            return Ok(());
        }
        // Every record covered: reset. Buffered frames are never
        // covered, so the buffer is empty here.
        if self.active_len > 0 {
            // Recreate rather than truncate-in-place: O_APPEND offsets
            // reset with the new handle on every platform.
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&self.active.path)?;
            file.sync_data()?;
            self.file = OpenOptions::new().append(true).open(&self.active.path)?;
            self.active.top.clear();
            self.active_len = 0;
            // The truncate discarded whatever was written-but-unsynced.
            self.unsynced_bytes = 0;
        }
        self.sealed_to.clear();
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
    // Tests assert by panicking; the workspace deny-set targets library
    // code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use testdir::TestDir;

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

    fn len(dir: &Path) -> u64 {
        std::fs::metadata(segment_path(dir, 0)).unwrap().len()
    }

    const A: SeriesId = SeriesId(0);
    const B: SeriesId = SeriesId(7);

    #[test]
    fn interleaved_appends_replay_per_series() {
        let dir = TestDir::new("tskv-shardwal-interleave");
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

    /// Earlier builds framed a flush's begin and end markers as kinds 2
    /// and 3 (`u32 id` body). A log such a build left must replay every
    /// record around them, not stop at the first one as at a torn tail.
    #[test]
    fn retired_flush_markers_between_records_replay_every_record() {
        let dir = TestDir::new("tskv-shardwal-markers");
        let first = {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            let first = w.commit(false).unwrap() as usize;
            w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
            first
        };
        let marker = |kind: u8, id: SeriesId| {
            let mut frame = vec![kind];
            frame.extend_from_slice(&id.0.to_le_bytes());
            let crc = crc32(&frame);
            frame.extend_from_slice(&crc.to_le_bytes());
            frame
        };
        // A's record, A's begin and end markers, then B's record.
        let records = std::fs::read(segment_path(&dir, 0)).unwrap();
        let (a, b) = records.split_at(first);
        let log = [a, &marker(2, A), &marker(3, A), b].concat();
        std::fs::write(segment_path(&dir, 0), log).unwrap();
        let (_w, replay) = open(&dir);
        assert_eq!(replay.get(&A).unwrap(), &vec![ins(&[(1, 1.0)])]);
        assert_eq!(replay.get(&B).unwrap(), &vec![ins(&[(2, 2.0)])]);
    }

    /// One CRC-framed record: `kind`, `id`, then `body`.
    fn framed(kind: u8, id: SeriesId, body: &[u8]) -> Vec<u8> {
        let mut frame = vec![kind];
        frame.extend_from_slice(&id.0.to_le_bytes());
        frame.extend_from_slice(body);
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame
    }

    /// A kind-0 insert body, as earlier builds wrote it: each point's
    /// timestamp whole.
    fn kind_0_body(after: u64, points: &[(i64, f64)]) -> Vec<u8> {
        let mut body = Vec::new();
        varint::write_u64(&mut body, after);
        varint::write_u64(&mut body, points.len() as u64);
        for &(t, v) in points {
            varint::write_i64(&mut body, t);
            body.extend_from_slice(&v.to_le_bytes());
        }
        body
    }

    /// Earlier builds logged inserts as kind 0, each timestamp whole. A
    /// log holding such records beside delta-coded ones and a delete
    /// replays every record, in order.
    #[test]
    fn kind_0_inserts_an_earlier_build_left_replay_beside_new_ones() {
        let dir = TestDir::new("tskv-shardwal-kind0");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(3, 3.0), (1, 1.0)]))
                .unwrap();
            w.commit(false).unwrap();
        }
        let new = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(new.first(), Some(&4), "inserts are written as kind 4");
        let old = |points: &[(i64, f64)]| framed(0, A, &kind_0_body(0, points));
        let mut delete = Vec::new();
        varint::write_u64(&mut delete, 5);
        varint::write_i64(&mut delete, 0);
        varint::write_i64(&mut delete, 2);
        let log = [
            old(&[(i64::MIN, -1.0), (i64::MAX, 2.5)]),
            new,
            framed(1, A, &delete),
            old(&[(7, 7.0)]),
        ]
        .concat();
        std::fs::write(segment_path(&dir, 0), log).unwrap();
        let (_w, replay) = open(&dir);
        assert_eq!(
            replay.get(&A).unwrap(),
            &vec![
                ins(&[(i64::MIN, -1.0), (i64::MAX, 2.5)]),
                ins(&[(3, 3.0), (1, 1.0)]),
                WalRecord::Delete {
                    version: Version(5),
                    range: TimeRange::new(0, 2)
                },
                ins(&[(7, 7.0)]),
            ]
        );
    }

    /// Each point of an insert takes 9 bytes or more: a count the bytes
    /// after it cannot hold is a torn record, refused before a buffer of
    /// that count is allocated.
    #[test]
    fn an_insert_count_past_the_bytes_left_is_refused() {
        let one_point = |count: u64| {
            let mut body = Vec::new();
            varint::write_u64(&mut body, 0);
            varint::write_u64(&mut body, count);
            varint::write_i64(&mut body, 4);
            body.extend_from_slice(&1.5f64.to_le_bytes());
            framed(4, B, &body)
        };
        let (frame, _) = decode_frame(&one_point(1), 0).unwrap();
        assert_eq!(frame, Some((B, ins(&[(4, 1.5)]))));
        // Nine bytes and the CRC's four hold one point, not two.
        for count in [2, 1 << 40, u64::MAX] {
            assert!(decode_frame(&one_point(count), 0).is_none(), "{count}");
        }
    }

    #[test]
    fn records_below_a_sealed_version_are_not_replayed() {
        let dir = TestDir::new("tskv-shardwal-sealed");
        {
            let (w, _) = open(&dir);
            // A's flush took version 4 and its file is durable; of the
            // log, a power loss kept a prefix.
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
        let dir = TestDir::new("tskv-shardwal-reset");
        let (w, _) = open(&dir);
        w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
        w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
        w.commit(false).unwrap();
        // Everything covered: the log reset to one empty active segment.
        // The reset's truncate + sync is the log sync of this flush — no
        // fdatasync of records the file made redundant.
        assert!(!w
            .end_flushes(&[(A, Version(1)), (B, Version(2))], true)
            .unwrap());
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
        let dir = TestDir::new("tskv-shardwal-group");
        {
            let (w, _) = open(&dir);
            for id in [A, B, C] {
                w.append_inserts(id, Version(0), &pts(&[(1, 1.0)])).unwrap();
            }
            w.commit(true).unwrap();
            let before = len(&dir);
            w.end_flushes(&[(A, Version(1)), (B, Version(1))], false)
                .unwrap();
            // Nothing appended; C's record pins the log, so nothing was
            // reclaimed from under it.
            assert_eq!(len(&dir), before);
        }
        let sealed = |id| Version(u64::from(id != C));
        let (_w, replay) = ShardWal::open(&dir, 0, 1 << 20, sealed).unwrap();
        assert_eq!(replay.keys().collect::<Vec<_>>(), vec![&C]);
    }

    #[test]
    fn end_flushes_syncs_what_a_bystander_keeps_in_the_log() {
        let dir = TestDir::new("tskv-shardwal-bystander");
        {
            let (w, _) = open(&dir);
            w.append_inserts(A, Version(0), &pts(&[(1, 1.0)])).unwrap();
            w.append_inserts(B, Version(0), &pts(&[(2, 2.0)])).unwrap();
            w.commit(false).unwrap();
            assert!(w.unsynced_bytes() > 0);
            // B's record pins the log: it is forced.
            assert!(w.end_flushes(&[(A, Version(1))], true).unwrap());
            assert_eq!(w.unsynced_bytes(), 0);
            // With nothing left unsynced, a second flush syncs nothing.
            assert!(!w.end_flushes(&[(A, Version(2))], true).unwrap());
        }
        let sealed = |id| Version(if id == A { 2 } else { 0 });
        let (_w, replay) = ShardWal::open(&dir, 0, 1 << 20, sealed).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay.get(&B).unwrap(), &vec![ins(&[(2, 2.0)])]);
    }

    #[test]
    fn covered_prefix_segments_are_reclaimed_past_uncovered_series() {
        let dir = TestDir::new("tskv-shardwal-prefix");
        // Tiny segments force rolls: A fills the early segments, B's
        // lone record lands in a late one, and A's records go on after.
        let (w, _) = ShardWal::open(&dir, 0, 64, unsealed).unwrap();
        let append_a = |ts: std::ops::Range<i64>| {
            for t in ts {
                w.append_inserts(A, Version(t as u64), &pts(&[(t, t as f64)]))
                    .unwrap();
                w.commit(false).unwrap();
            }
        };
        append_a(0..20);
        w.append_inserts(B, Version(20), &pts(&[(1, 1.0)])).unwrap();
        w.commit(false).unwrap();
        append_a(20..40);
        let before = w.segment_count();
        assert!(before > 4, "rolling produced only {before} segments");
        // A sealed through version 20: the segments holding only A's
        // records below it go, B's (uncovered, late) does not pin them,
        // and neither do A's later ones.
        w.end_flushes(&[(A, Version(20))], false).unwrap();
        let after = w.segment_count();
        assert!(after < before, "nothing reclaimed: {before} -> {after}");
        // Sealed through 40, A no longer pins anything: B's segment and
        // the active one are left.
        w.end_flushes(&[(A, Version(40))], false).unwrap();
        assert_eq!(w.segment_count(), 2);
        // B's record must still replay after the reclaim (A's runs on
        // disk say what they say in memory).
        drop(w);
        let sealed = |id| Version(if id == A { 40 } else { 0 });
        let (w, replay) = ShardWal::open(&dir, 0, 64, sealed).unwrap();
        assert_eq!(replay.keys().collect::<Vec<_>>(), vec![&B]);
        assert_eq!(
            replay.get(&B).unwrap(),
            &vec![WalRecord::Insert {
                after: Version(20),
                points: pts(&[(1, 1.0)])
            }]
        );
        // Sealing B too clears the log entirely.
        w.end_flushes(&[(B, Version(21))], false).unwrap();
        assert_eq!(w.segment_count(), 1);
    }

    #[test]
    fn torn_tail_drops_only_final_record() {
        let dir = TestDir::new("tskv-shardwal-torn");
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
        let dir = TestDir::new("tskv-shardwal-grouped");
        let (w, _) = ShardWal::open(&dir, 1 << 20, 1 << 20, unsealed).unwrap();
        w.append_inserts(A, Version(0), &pts(&[(1, 1.0), (2, 2.0)]))
            .unwrap();
        // Nothing on disk yet (active segment is segment 0, empty).
        assert_eq!(len(&dir), 0);
        let bytes = w.commit(false).unwrap();
        assert!(bytes > 0);
        assert_eq!(len(&dir), bytes);
        // A second commit with nothing new reports an empty batch.
        assert_eq!(w.commit(true).unwrap(), 0);
    }

    #[test]
    fn sync_commit_covers_bytes_drained_by_earlier_commit() {
        let dir = TestDir::new("tskv-shardwal-synccarry");
        let (w, _) = open(&dir);
        // A's frames are drained (written, unsynced) by a commit(false)
        // — an earlier write.
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
    fn reopen_continues_segment_numbering() {
        let dir = TestDir::new("tskv-shardwal-numbering");
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
