//! The mods (modification) file: an append-only log of delete
//! operations, IoTDB's `TsFile.mods`.
//!
//! Each entry is the paper's `D^κ` (Definition 2.5): an inclusive time
//! range `[t_ds, t_de]` plus the global version number `κ` deciding
//! which chunks it applies to (only those with smaller `κ`).
//!
//! Entry layout: `varint κ` `varint_i t_ds` `varint_i t_de`
//! `u32 crc of the three fields (LE)`. A torn final entry (crash during
//! append) is detected by its CRC and dropped on load.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::checksum::crc32;
use crate::types::{TimeRange, Timestamp, Version};
use crate::varint;
use crate::{Result, TsFileError};

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

    /// Decode one entry; `Ok(None)` means a torn (incomplete/corrupt)
    /// tail entry, which the caller should treat as end-of-log.
    fn decode(buf: &[u8], pos: &mut usize) -> Result<Option<Self>> {
        let start_pos = *pos;
        let version = match varint::read_u64(buf, pos) {
            Ok(v) => v,
            Err(TsFileError::UnexpectedEof { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let (t_ds, t_de) = match (varint::read_i64(buf, pos), varint::read_i64(buf, pos)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => return Ok(None),
        };
        let body_end = *pos;
        let crc_end = body_end + 4;
        let Some(crc_bytes) = buf.get(body_end..crc_end) else {
            return Ok(None);
        };
        let mut crc_arr = [0u8; 4];
        for (dst, src) in crc_arr.iter_mut().zip(crc_bytes) {
            *dst = *src;
        }
        let expected = u32::from_le_bytes(crc_arr);
        let Some(body) = buf.get(start_pos..body_end) else {
            return Ok(None);
        };
        if crc32(body) != expected {
            return Ok(None);
        }
        *pos = crc_end;
        Ok(Some(ModEntry::new(Version(version), t_ds, t_de)))
    }
}

/// Append-only delete log bound to one TsFile.
#[derive(Debug)]
pub struct ModsFile {
    path: PathBuf,
    entries: Vec<ModEntry>,
}

impl ModsFile {
    /// Open (or create) the mods file at `path`, loading existing
    /// entries. A torn final entry from a crashed append is dropped.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = Vec::new();
        if path.exists() {
            let mut buf = Vec::new();
            File::open(&path)?.read_to_end(&mut buf)?;
            let mut pos = 0usize;
            while pos < buf.len() {
                match ModEntry::decode(&buf, &mut pos)? {
                    Some(e) => entries.push(e),
                    None => break, // torn tail
                }
            }
        }
        Ok(ModsFile { path, entries })
    }

    /// Append one delete entry durably.
    pub fn append(&mut self, entry: ModEntry) -> Result<()> {
        let mut bytes = Vec::with_capacity(28);
        entry.encode(&mut bytes);
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        self.entries.push(entry);
        Ok(())
    }

    /// All loaded delete entries in append order.
    pub fn entries(&self) -> &[ModEntry] {
        &self.entries
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tsfile-mods-tests");
        std::fs::create_dir_all(&dir).ok();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn append_and_reload() -> Result<()> {
        let p = tmp("basic.mods");
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
        let p = tmp("missing.mods");
        let m = ModsFile::open(&p)?;
        assert!(m.entries().is_empty());
        Ok(())
    }

    #[test]
    fn torn_tail_entry_dropped() -> Result<()> {
        let p = tmp("torn.mods");
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
    fn corrupt_tail_crc_dropped() -> Result<()> {
        let p = tmp("crc.mods");
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
        let p = tmp("continue.mods");
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
