//! The mods (modification) file: an append-only log of delete
//! operations, IoTDB's `TsFile.mods`.
//!
//! Each entry is the paper's `D^κ` (Definition 2.5): an inclusive time
//! range `[t_ds, t_de]` plus the global version number `κ` deciding
//! which chunks it applies to (only those with smaller `κ`).
//!
//! Entry layout: `varint κ` `varint_i t_ds` `varint_i t_de`
//! `u32 crc of the three fields (LE)`. A torn final entry (crash during
//! append) — a field that does not read, or a CRC that does not match —
//! is dropped on load; the next append cuts its bytes off first, so
//! what follows it is read back.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::checksum::crc32;
use crate::types::{TimeRange, Timestamp, Version};
use crate::varint;
use crate::Result;

/// One delete operation `D^κ` over `[t_ds, t_de]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModEntry {
    pub version: Version,
    pub range: TimeRange,
}

impl ModEntry {
    /// Construct a delete entry.
    pub fn new(version: Version, start: Timestamp, end: Timestamp) -> Self {
        ModEntry {
            version,
            range: TimeRange::new(start, end),
        }
    }

    /// Whether timestamp `t` is covered by this delete (`t ⊨ D^κ`).
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        self.range.contains(t)
    }

    /// Whether this delete applies to data written at `chunk_version`,
    /// i.e. the delete is strictly later (κ_delete > κ_chunk).
    #[inline]
    pub fn applies_to(&self, chunk_version: Version) -> bool {
        self.version > chunk_version
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(24);
        varint::write_u64(&mut body, self.version.0);
        varint::write_i64(&mut body, self.range.start);
        varint::write_i64(&mut body, self.range.end);
        let crc = crc32(&body);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Decode one entry; `None` means a torn (incomplete/corrupt) tail
    /// entry — any field that does not read, or a CRC that does not
    /// match — which the caller treats as end-of-log.
    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let start_pos = *pos;
        let version = varint::read_u64(buf, pos).ok()?;
        let t_ds = varint::read_i64(buf, pos).ok()?;
        let t_de = varint::read_i64(buf, pos).ok()?;
        let body_end = *pos;
        let crc_bytes = buf.get(body_end..body_end + 4)?;
        let mut crc_arr = [0u8; 4];
        for (dst, src) in crc_arr.iter_mut().zip(crc_bytes) {
            *dst = *src;
        }
        let expected = u32::from_le_bytes(crc_arr);
        let body = buf.get(start_pos..body_end)?;
        if crc32(body) != expected {
            return None;
        }
        *pos = body_end + 4;
        Some(ModEntry::new(Version(version), t_ds, t_de))
    }
}

/// Append-only delete log of one series.
#[derive(Debug)]
pub struct ModsFile {
    path: PathBuf,
    entries: Vec<ModEntry>,
    /// Length of the valid prefix, when [`open`](ModsFile::open) found
    /// a torn entry behind it.
    torn_at: Option<u64>,
}

impl ModsFile {
    /// The log at `path`, which does not exist yet: no entries, and no
    /// file until the first append. No I/O.
    pub fn new(path: PathBuf) -> Self {
        ModsFile {
            path,
            entries: Vec::new(),
            torn_at: None,
        }
    }

    /// Open the mods file at `path`, loading existing entries (none
    /// when there is no file). A torn final entry from a crashed append
    /// is dropped. Read-only: the file is created, or cut back to its
    /// valid prefix, by the first append.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        crate::lockcheck::check_io();
        let mut log = ModsFile::new(path.as_ref().to_path_buf());
        if log.path.exists() {
            let mut buf = Vec::new();
            File::open(&log.path)?.read_to_end(&mut buf)?;
            let mut pos = 0usize;
            while pos < buf.len() {
                let valid = pos; // a torn entry's fields move `pos` too
                match ModEntry::decode(&buf, &mut pos) {
                    Some(e) => log.entries.push(e),
                    None => {
                        log.torn_at = u64::try_from(valid).ok();
                        break;
                    }
                }
            }
        }
        Ok(log)
    }

    /// Append one delete entry durably. A durability writer: it runs
    /// under the engine's shard lock on purpose (the entry's version was
    /// taken under it), so it does not call
    /// [`check_io`](crate::lockcheck::check_io).
    pub fn append(&mut self, entry: ModEntry) -> Result<()> {
        let mut bytes = Vec::with_capacity(28);
        entry.encode(&mut bytes);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if let Some(valid) = self.torn_at {
            // Written behind a torn entry, this one would be dropped
            // with it by the next open.
            f.set_len(valid)?;
            self.torn_at = None;
        }
        f.write_all(&bytes)?;
        f.sync_data()?;
        self.entries.push(entry);
        Ok(())
    }

    /// Drop every entry at or below `ceiling`: the log is rewritten to
    /// the newer ones beside itself (`<path>.tmp`, `sync_data`) and
    /// renamed into place, or unlinked when none is newer. A crash
    /// leaves the old log or the new one; on an error the file and the
    /// loaded entries are as they were. A durability writer like
    /// [`append`](ModsFile::append), under the same lock, for the same
    /// reason: an append between reading the entries and the rename
    /// would be lost.
    pub fn trim_through(&mut self, ceiling: Version) -> Result<()> {
        let newer = |e: &ModEntry| e.version > ceiling;
        if self.entries.iter().all(newer) {
            return Ok(());
        }
        let mut bytes = Vec::new();
        for e in self.entries.iter().filter(|e| newer(e)) {
            e.encode(&mut bytes);
        }
        if bytes.is_empty() {
            std::fs::remove_file(&self.path)?;
        } else {
            let mut tmp = self.path.clone().into_os_string();
            tmp.push(".tmp");
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            std::fs::rename(&tmp, &self.path)?;
        }
        self.entries.retain(newer);
        self.torn_at = None;
        Ok(())
    }

    /// All loaded delete entries in append order.
    pub fn entries(&self) -> &[ModEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use testdir::TestDir;

    #[test]
    fn append_and_reload() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("basic.mods");
        let mut m = ModsFile::open(&p)?;
        m.append(ModEntry::new(Version(2), 100, 200))?;
        m.append(ModEntry::new(Version(5), -50, 50))?;
        drop(m);
        let m2 = ModsFile::open(&p)?;
        assert_eq!(
            m2.entries(),
            &[
                ModEntry::new(Version(2), 100, 200),
                ModEntry::new(Version(5), -50, 50)
            ]
        );
        Ok(())
    }

    #[test]
    fn missing_file_is_empty() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("missing.mods");
        let m = ModsFile::open(&p)?;
        assert!(m.entries().is_empty());
        Ok(())
    }

    #[test]
    fn torn_tail_entry_dropped() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("torn.mods");
        let mut m = ModsFile::open(&p)?;
        m.append(ModEntry::new(Version(1), 0, 10))?;
        m.append(ModEntry::new(Version(2), 20, 30))?;
        drop(m);
        // Simulate a crash mid-append: truncate the last 3 bytes.
        let data = std::fs::read(&p)?;
        std::fs::write(&p, &data[..data.len() - 3])?;
        let m2 = ModsFile::open(&p)?;
        assert_eq!(m2.entries(), &[ModEntry::new(Version(1), 0, 10)]);
        Ok(())
    }

    #[test]
    fn append_after_a_torn_tail_survives_reopen() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("torn-append.mods");
        let mut m = ModsFile::open(&p)?;
        m.append(ModEntry::new(Version(1), 0, 10))?;
        m.append(ModEntry::new(Version(2), 20, 30))?;
        let torn = std::fs::metadata(&p)?.len() - 3;
        File::options().write(true).open(&p)?.set_len(torn)?;
        // Opening is read-only: the torn bytes stay until an append.
        let mut m = ModsFile::open(&p)?;
        assert_eq!(std::fs::metadata(&p)?.len(), torn);
        m.append(ModEntry::new(Version(3), 40, 50))?;
        m.append(ModEntry::new(Version(4), 60, 70))?;
        let versions = |m: &ModsFile| m.entries().iter().map(|e| e.version.0).collect::<Vec<_>>();
        assert_eq!(versions(&m), [1, 3, 4]);
        assert_eq!(versions(&ModsFile::open(&p)?), [1, 3, 4]);
        Ok(())
    }

    #[test]
    fn trim_rewrites_to_the_newer_entries_or_unlinks() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("trim.mods");
        let mut m = ModsFile::new(p.clone());
        for v in 1..=4 {
            m.append(ModEntry::new(Version(v), 0, 10))?;
        }
        let whole = std::fs::read(&p)?;
        m.trim_through(Version(0))?; // nothing at or below: file untouched
        assert_eq!(std::fs::read(&p)?, whole);
        m.trim_through(Version(2))?;
        assert_eq!(std::fs::read(&p)?, &whole[whole.len() / 2..]);
        m.append(ModEntry::new(Version(5), 0, 10))?;
        assert_eq!(m.entries().len(), 3);
        assert_eq!(ModsFile::open(&p)?.entries(), m.entries());
        m.trim_through(Version(9))?;
        assert!(m.entries().is_empty() && !p.exists());
        // The log starts over with the next append.
        m.append(ModEntry::new(Version(10), 0, 10))?;
        assert_eq!(ModsFile::open(&p)?.entries(), m.entries());
        Ok(())
    }

    #[test]
    fn corrupt_tail_crc_dropped() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("crc.mods");
        let mut m = ModsFile::open(&p)?;
        m.append(ModEntry::new(Version(1), 0, 10))?;
        drop(m);
        let mut data = std::fs::read(&p)?;
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&p, &data)?;
        let m2 = ModsFile::open(&p)?;
        assert!(m2.entries().is_empty());
        Ok(())
    }

    /// A version varint that runs 11 bytes (past 64 bits) is a torn
    /// tail like any other field that does not read: the open keeps
    /// nothing behind it, and the next append cuts it off.
    #[test]
    fn an_overlong_version_varint_is_a_torn_tail() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("overlong.mods");
        std::fs::write(&p, [0xff; 11])?;
        let mut m = ModsFile::open(&p)?;
        assert!(m.entries().is_empty());
        m.append(ModEntry::new(Version(7), 0, 10))?;
        assert_eq!(
            ModsFile::open(&p)?.entries(),
            &[ModEntry::new(Version(7), 0, 10)]
        );
        Ok(())
    }

    #[test]
    fn covers_and_applies_to() {
        let e = ModEntry::new(Version(3), 10, 20);
        assert!(e.covers(10) && e.covers(20) && !e.covers(21));
        assert!(e.applies_to(Version(2)));
        assert!(!e.applies_to(Version(3)));
        assert!(!e.applies_to(Version(4)));
    }

    #[test]
    fn append_after_reload_continues_log() -> Result<()> {
        let dir = TestDir::new("tsfile-mods");
        let p = dir.join("continue.mods");
        {
            let mut m = ModsFile::open(&p)?;
            m.append(ModEntry::new(Version(1), 0, 1))?;
        }
        {
            let mut m = ModsFile::open(&p)?;
            m.append(ModEntry::new(Version(2), 2, 3))?;
        }
        let m = ModsFile::open(&p)?;
        assert_eq!(m.entries().len(), 2);
        Ok(())
    }
}
