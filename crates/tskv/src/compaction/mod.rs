//! Chunk-aware compaction.
//!
//! The paper measures with compaction *disabled* (Table 4:
//! `NO_COMPACTION`) because overlapping chunks and pending deletes are
//! exactly the hard cases M4-LSM handles; a production store still
//! needs compaction to bound read amplification. This subsystem keeps
//! the write amplification of doing so low:
//!
//! * **Selection** — there is one rule: a compaction merges *every*
//!   sealed file the series has when it starts. Manual
//!   [`crate::TsKv::compact`] does so at any file count; the
//!   background scheduler does so once `compaction_threshold` files
//!   are sealed.
//! * **Rewrite avoidance** ([`plan`] + [`execute`]) — footer metadata
//!   classifies each input chunk as *clean* (overlapping no other input
//!   chunk and no newer delete) or *dirty*. Clean chunks are copied
//!   byte-for-byte — CRC-revalidated, never decoded, their statistics
//!   carried into the new footer — while only dirty chunks flow through
//!   decode → k-way merge → re-encode. On append-mostly workloads most
//!   bytes take the copy path, which is the write-amplification win
//!   the `compaction_pages_copied` / `compaction_bytes_rewritten`
//!   counters quantify.
//!
//! Every output chunk carries the **maximum input chunk version**: the
//! inputs are a prefix of the series' version-ordered file list, so
//! the output still ranks below every file flushed while the merge
//! ran. After a compaction with no concurrent writes the store holds
//! only latest points: chunk overlap is zero and no delete entries
//! remain.
//!
//! **Inputs are runs, not files.** A flush seals every series of a
//! shard into one file, so a series' input may be its run of a
//! file other series still read. Compaction is still per series: it
//! reads only that run, writes a one-run output, and *retires* its
//! views of the inputs — a file is unlinked by the retirement that
//! leaves it no live run. The output's run records the version it
//! supersedes; a reopen uses it to leave a retired run of a surviving
//! file (or the inputs a crash kept from being unlinked) unread, and to
//! tell the shard log the series' sealed version. A merge that comes up
//! empty therefore still writes its (chunkless) run: the series' floor.

pub mod execute;
pub mod plan;

/// Outcome of one compaction run; all zero for a run that found
/// nothing to do.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sealed runs retired (the input generation): one per input file
    /// the series had a run in. A file shared with other series is
    /// unlinked only when its last run is retired.
    pub files_removed: usize,
    /// Chunks read during the merge.
    pub chunks_merged: usize,
    /// Live points written to the new file (0 ⇒ everything was
    /// deleted). Counts copied and re-encoded points alike.
    pub points_written: usize,
    /// Delete entries applied and dropped.
    pub deletes_applied: usize,
    /// Clean input chunks (one page each) copied byte-for-byte, never
    /// decoded.
    pub pages_copied: u64,
    /// Input chunks (one page each) decoded and re-encoded.
    pub pages_recoded: u64,
    /// Input chunk-body bytes read.
    pub bytes_read: u64,
    /// Output bytes produced by the re-encode path. Copied bytes are
    /// excluded: they are precisely the write amplification avoided.
    pub bytes_rewritten: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::readers::MergeReader;
    use crate::TsKv;
    use tsfile::types::Point;

    type TestResult = std::result::Result<(), Box<dyn std::error::Error>>;

    fn fresh(name: &str) -> crate::Result<(std::path::PathBuf, TsKv)> {
        let dir = std::env::temp_dir().join(format!("tskv-compact-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 200,
                ..Default::default()
            },
        )?;
        Ok((dir, kv))
    }

    #[test]
    fn compaction_preserves_merged_series() -> TestResult {
        let (dir, kv) = fresh("preserve")?;
        for t in 0..1_000i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        for t in 300..700i64 {
            kv.insert("s", Point::new(t, 2.0))?; // overwrites
        }
        kv.flush_all()?;
        kv.delete("s", 100, 149)?;
        kv.delete("s", 650, 800)?;

        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        let report = kv.compact("s")?;
        let snap = kv.snapshot("s")?;
        let after = MergeReader::new(&snap).collect_merged()?;

        assert_eq!(
            before, after,
            "compaction must not change the logical series"
        );
        assert!(report.files_removed >= 2);
        assert_eq!(report.points_written, before.len());
        assert_eq!(report.deletes_applied, 2);
        assert!(report.bytes_read > 0);
        assert!(snap.deletes().is_empty(), "tombstones are gone");
        // No chunk may overlap another.
        let chunks = snap.chunks();
        for (i, a) in chunks.iter().enumerate() {
            for b in chunks.iter().skip(i + 1) {
                assert!(!a.time_range().overlaps(&b.time_range()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn compaction_keeps_memtable_untouched() -> TestResult {
        let (dir, kv) = fresh("memtable")?;
        for t in 0..400i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        // Buffered-only points.
        for t in 400..450i64 {
            kv.insert("s", Point::new(t, 5.0))?;
        }
        kv.compact("s")?;
        assert_eq!(kv.unflushed_points("s")?, 50);
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(merged.len(), 450);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn compacting_fully_deleted_series_removes_files() -> TestResult {
        let (dir, kv) = fresh("wipe")?;
        for t in 0..300i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", -10, 10_000)?;
        let report = kv.compact("s")?;
        assert_eq!(report.points_written, 0);
        assert_eq!(
            report.pages_copied, 0,
            "a delete over everything leaves nothing clean"
        );
        let snap = kv.snapshot("s")?;
        assert!(snap.chunks().is_empty());
        assert!(MergeReader::new(&snap).collect_merged()?.is_empty());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn compacting_empty_series_is_noop() -> TestResult {
        let (dir, kv) = fresh("noop")?;
        kv.create_series("s")?;
        let report = kv.compact("s")?;
        assert_eq!(report, CompactionReport::default());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn old_snapshot_survives_compaction() -> TestResult {
        let (dir, kv) = fresh("snapshot")?;
        for t in 0..500i64 {
            kv.insert("s", Point::new(t, 3.0))?;
        }
        kv.flush_all()?;
        let old_snap = kv.snapshot("s")?;
        kv.delete("s", 0, 100)?;
        kv.compact("s")?;
        // The pre-compaction snapshot still reads its (unlinked) files.
        let merged = MergeReader::new(&old_snap).collect_merged()?;
        assert_eq!(merged.len(), 500);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn recovery_after_compaction() -> TestResult {
        let (dir, kv) = fresh("recover")?;
        for t in 0..600i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", 0, 99)?;
        kv.compact("s")?;
        drop(kv);
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 50,
                memtable_threshold: 200,
                ..Default::default()
            },
        )?;
        let merged = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        assert_eq!(merged.len(), 500);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// Disjoint flushed files: every chunk is clean, so the whole merge
    /// is byte copies — zero bytes re-encoded — yet the logical series
    /// is untouched.
    #[test]
    fn append_only_compaction_copies_all_pages() -> TestResult {
        let (dir, kv) = fresh("cleancopy")?;
        for t in 0..600i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?; // files at 200-point boundaries, disjoint
        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        let report = kv.compact("s")?;
        assert_eq!(report.files_removed, 3);
        assert!(report.pages_copied > 0, "{report:?}");
        assert_eq!(report.pages_recoded, 0, "{report:?}");
        assert_eq!(report.bytes_rewritten, 0, "{report:?}");
        assert_eq!(report.points_written, 600);
        let snap = kv.snapshot("s")?;
        assert_eq!(MergeReader::new(&snap).collect_merged()?, before);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// A clean chunk is copied without being decoded, so the copy's one
    /// CRC check — at the output writer's gate — is all that stands
    /// between a flipped bit and a new file: it must fail the
    /// compaction with a typed error and leave no output behind.
    #[test]
    fn flipped_byte_in_a_clean_page_fails_the_compaction_and_leaves_no_output() -> TestResult {
        use std::os::unix::fs::FileExt;

        let (dir, kv) = fresh("flipped")?;
        for t in 0..600i64 {
            kv.insert("s", Point::new(t, t as f64))?;
        }
        kv.flush_all()?; // three disjoint files: every chunk is clean
        let listing = |dir: &std::path::Path| -> std::io::Result<Vec<std::path::PathBuf>> {
            let mut files = Vec::new();
            for shard in std::fs::read_dir(dir)?.flatten() {
                if shard.path().is_dir() {
                    files.extend(std::fs::read_dir(shard.path())?.flatten().map(|e| e.path()));
                }
            }
            files.sort();
            Ok(files)
        };
        let before = listing(&dir)?;
        let victim = before
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "tsfile"))
            .nth(1)
            .ok_or("no second data file")?;
        // Past the head magic, inside the first chunk body.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(victim)?;
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, 40)?;
        file.write_all_at(&[byte[0] ^ 0x10], 40)?;
        drop(file);

        match kv.compact("s") {
            Err(crate::TsKvError::TsFile(tsfile::TsFileError::ChecksumMismatch { .. })) => {}
            other => return Err(format!("expected a checksum mismatch, got {other:?}").into()),
        }
        assert_eq!(
            listing(&dir)?,
            before,
            "no output, no temporary, no input gone"
        );
        assert_eq!(kv.sealed_file_count("s")?, 3);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// Mixed workload: overwritten ranges recode, untouched ranges
    /// copy, and both end up in one correct file.
    #[test]
    fn partial_overlap_mixes_copy_and_recode() -> TestResult {
        let (dir, kv) = fresh("mixed")?;
        for t in 0..1_000i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        // Overwrite a narrow window: only chunks overlapping [400, 480)
        // (plus the overwriting file's own chunk) should recode.
        for t in 400..480i64 {
            kv.insert("s", Point::new(t, 2.0))?;
        }
        kv.flush_all()?;
        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        let report = kv.compact("s")?;
        assert!(report.pages_copied > 0, "{report:?}");
        assert!(report.pages_recoded > 0, "{report:?}");
        assert!(
            report.bytes_rewritten > 0 && report.bytes_rewritten < report.bytes_read,
            "{report:?}"
        );
        let snap = kv.snapshot("s")?;
        let after = MergeReader::new(&snap).collect_merged()?;
        assert_eq!(before, after);
        let chunks = snap.chunks();
        for (i, a) in chunks.iter().enumerate() {
            for b in chunks.iter().skip(i + 1) {
                assert!(!a.time_range().overlaps(&b.time_range()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// A chunk sitting wholly inside the time gap between two clean
    /// chunks of another file ("gap dweller") splits the run of copies:
    /// it is copied between them, so the output stays time-ordered and
    /// disjoint.
    #[test]
    fn gap_dweller_splits_the_raw_run() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-compact-gap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 10,
                memtable_threshold: 100_000,
                ..Default::default()
            },
        )?;
        // File 1: two 10-point chunks with a hole at t in 100..200.
        for t in (0..100i64).chain(200..300i64).step_by(10) {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush("s")?;
        // File 2: lives entirely inside the hole — overlaps neither chunk.
        for t in (110..190i64).step_by(10) {
            kv.insert("s", Point::new(t, 2.0))?;
        }
        kv.flush("s")?;
        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        let report = kv.compact("s")?;
        assert_eq!((report.pages_copied, report.pages_recoded), (3, 0));
        let snap = kv.snapshot("s")?;
        assert_eq!(MergeReader::new(&snap).collect_merged()?, before);
        let chunks = snap.chunks();
        assert_eq!(chunks.len(), 3, "the dweller is copied between the two");
        for (i, a) in chunks.iter().enumerate() {
            for b in chunks.iter().skip(i + 1) {
                assert!(
                    !a.time_range().overlaps(&b.time_range()),
                    "{:?} overlaps {:?}",
                    a.time_range(),
                    b.time_range()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// Deletes dirty exactly the chunks they overlap; untouched chunks
    /// still copy.
    #[test]
    fn delete_dirties_only_overlapped_pages() -> TestResult {
        let (dir, kv) = fresh("deldirty")?;
        for t in 0..1_000i64 {
            kv.insert("s", Point::new(t, 1.0))?;
        }
        kv.flush_all()?;
        kv.delete("s", 440, 460)?;
        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;
        let report = kv.compact("s")?;
        assert!(report.pages_copied > 0, "{report:?}");
        assert!(report.pages_recoded > 0, "{report:?}");
        let snap = kv.snapshot("s")?;
        assert!(snap.deletes().is_empty());
        assert_eq!(MergeReader::new(&snap).collect_merged()?, before);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    /// Every chunk of every data file under `dir`: its raw body (one
    /// page) and its points.
    fn data_pages(dir: &std::path::Path) -> crate::Result<Vec<(Vec<u8>, Vec<Point>)>> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(dir)?.flatten() {
            if !shard.path().is_dir() {
                continue;
            }
            for file in std::fs::read_dir(shard.path())?.flatten() {
                if file.path().extension().is_none_or(|e| e != "tsfile") {
                    continue;
                }
                let reader = tsfile::TsFileReader::open(file.path())?;
                for meta in reader.chunk_metas() {
                    let body = reader.read_chunk_raw(meta)?;
                    out.push((body.to_vec(), reader.read_chunk(meta)?));
                }
            }
        }
        Ok(out)
    }

    /// A merge whose inputs mix decimal chunks (quarter units) and chunks
    /// of full precision (XOR or packed): clean chunks of either kind are
    /// copied byte for byte, forms and all, and a dirty one is
    /// re-encoded with its forms chosen again from what the merge left
    /// in it.
    #[test]
    fn clean_pages_keep_their_value_mode_and_dirty_pages_choose_again() -> TestResult {
        let dir = std::env::temp_dir().join(format!("tskv-compact-modes-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 10,
                memtable_threshold: 100_000,
                ..Default::default()
            },
        )?;
        let quarter = |t: i64| (t % 37) as f64 * 0.25;
        let full = |t: i64| (t as f64 * 0.7).sin() * 20.0;
        // File 1: twenty decimal chunks.
        for t in 0..200i64 {
            kv.insert("s", Point::new(t, quarter(t)))?;
        }
        kv.flush("s")?;
        // File 2: full precision over two whole chunks of file 1 (both
        // dirty), and four chunks no other file overlaps (clean).
        for t in (100..120i64).chain(300..340) {
            kv.insert("s", Point::new(t, full(t)))?;
        }
        kv.flush("s")?;
        // A delete dirties one decimal chunk; what survives is decimal.
        kv.delete("s", 150, 152)?;
        let inputs: std::collections::HashSet<Vec<u8>> = data_pages(&dir)?
            .into_iter()
            .map(|(body, _)| body)
            .collect();
        let before = MergeReader::new(&kv.snapshot("s")?).collect_merged()?;

        let report = kv.compact("s")?;
        assert_eq!(
            MergeReader::new(&kv.snapshot("s")?).collect_merged()?,
            before
        );
        let output = data_pages(&dir)?;
        let is_quarter = |v: f64| v * 4.0 == (v * 4.0).round();
        // Chunks are clean but for the two file 2 overwrites and the
        // one the delete reaches: nothing else overlaps them.
        let clean = |t: i64| !(100..120).contains(&t) && !(150..160).contains(&t);
        let mut copied = [0u64; 2]; // [full precision, decimal]
        let mut recoded = [0u64; 2];
        for (body, points) in &output {
            let decimal = tsfile::page::forms(body)?.values == tsfile::page::ValueForm::Decimal;
            let t = points[0].t;
            assert_eq!(
                decimal,
                points.iter().all(|p| is_quarter(p.v)),
                "page at t={t} chose the wrong mode"
            );
            if clean(t) {
                assert!(inputs.contains(body), "clean page at t={t} was not copied");
                copied[usize::from(decimal)] += 1;
            } else {
                recoded[usize::from(decimal)] += 1;
            }
        }
        assert_eq!(copied, [4, 17], "clean chunks of both modes, verbatim");
        assert_eq!(report.pages_copied, 21, "{report:?}");
        assert!(
            recoded[0] > 0 && recoded[1] > 0,
            "dirty pages re-chosen both ways: {recoded:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }
}
