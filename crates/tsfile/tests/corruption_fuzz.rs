//! Corruption robustness: whatever bytes land on disk, the reader must
//! return an error — never panic, never loop, never hand back silently
//! wrong data (CRCs gate every decode path).

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use tsfile::types::Point;
use tsfile::{FileFooter, ModsFile, TsFileError, TsFileReader, TsFileWriter};

fn sample_file(path: &std::path::Path) -> Vec<u8> {
    let mut w = TsFileWriter::create(path).unwrap();
    w.begin_series(0, 0).unwrap();
    let pts: Vec<Point> = (0..500)
        .map(|i| Point::new(i * 100, (i % 17) as f64))
        .collect();
    w.write_chunk(&pts[..250], 1).unwrap();
    w.write_chunk(&pts[250..], 2).unwrap();
    w.finish().unwrap();
    std::fs::read(path).unwrap()
}

/// A footer that passes its CRC but says "this chunk has no page index"
/// (presence byte `0`, what the retired unpaged generation wrote) is
/// `Corrupt` — never a panic, never a `ChunkMeta` without pages.
#[test]
fn crc_valid_footer_without_page_index_is_corrupt() {
    const TRAILER: usize = 4 + 8 + 6; // crc + body length + magic
    let dir = std::env::temp_dir().join("tsfile-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("nopages-{}.tsfile", std::process::id()));
    let original = sample_file(&path);
    let n = original.len();
    let body_len = u64::from_le_bytes(original[n - 14..n - 6].try_into().unwrap()) as usize;
    let body_at = n - TRAILER - body_len;

    // Each sample chunk is one Ts2Diff/Gorilla page, so its presence
    // byte is the `1` in front of `[ts tag 1, val tag 2, 1 page]`.
    let flags: Vec<usize> = (body_at..n - TRAILER - 3)
        .filter(|&i| original[i..i + 4] == [1, 1, 2, 1])
        .collect();
    let mut rejected_for_missing_index = 0;
    for at in flags {
        let mut patched = original.clone();
        patched[at] = 0;
        let crc = tsfile::checksum::crc32(&patched[body_at..n - TRAILER]);
        patched[n - TRAILER..n - 14].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &patched).unwrap();
        match TsFileReader::open(&path) {
            Err(tsfile::TsFileError::Corrupt(msg)) if msg.contains("no page index") => {
                rejected_for_missing_index += 1;
            }
            Err(_) => {} // the pattern matched inside some other field
            Ok(_) => panic!("footer with presence byte 0 at {at} opened"),
        }
    }
    assert!(rejected_for_missing_index >= 2, "one per sample chunk");
    std::fs::remove_file(&path).ok();
}

/// The series-run directory at the end of the footer: every strict
/// prefix of it and every single-bit flip in it is a typed error when
/// the file is opened, and the directory decoder itself — handed the
/// damaged footer body without the CRC in front of it — never panics,
/// rejects every prefix, and lets a flip through only as a directory
/// that still tiles the chunk list in ascending series order.
#[test]
fn run_directory_prefixes_and_bit_flips_are_typed_errors() {
    const TRAILER: usize = 4 + 8 + 6; // crc + body length + magic
    let dir = std::env::temp_dir().join("tsfile-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("rundir-{}.tsfile", std::process::id()));
    let pts: Vec<Point> = (0..400)
        .map(|i| Point::new(i * 10, (i % 13) as f64))
        .collect();
    let mut w = TsFileWriter::create(&path).unwrap();
    w.begin_series(2, 0).unwrap();
    w.write_chunk(&pts[..150], 1).unwrap();
    w.write_chunk(&pts[150..300], 2).unwrap();
    w.begin_series(300, 0).unwrap(); // a two-byte varint id
    w.write_chunk(&pts[300..], 3).unwrap();
    w.begin_series(70_000, 9).unwrap(); // chunkless, superseding
    w.finish().unwrap();
    let original = std::fs::read(&path).unwrap();
    let n = original.len();
    let body_len = u64::from_le_bytes(original[n - 14..n - 6].try_into().unwrap()) as usize;
    let body_at = n - TRAILER - body_len;
    let body = &original[body_at..n - TRAILER];
    let footer = FileFooter::decode_body(body).unwrap();
    assert_eq!(footer.runs.len(), 3);
    // The directory is what the body has beyond its chunk index (which
    // re-encodes, with no runs, as itself plus a zero run count).
    let chunk_index_len = FileFooter {
        chunks: footer.chunks.clone(),
        runs: Vec::new(),
    }
    .encode_body()
    .len()
        - 1;
    let directory = chunk_index_len..body.len();
    assert_eq!(directory.len(), 1 + 3 + 4 + 5);

    for cut in directory.clone() {
        assert!(
            FileFooter::decode_body(&body[..cut]).is_err(),
            "directory cut at {cut} decoded"
        );
        // The same cut in the file: what remains cannot verify.
        let mut torn = original[..body_at + cut].to_vec();
        torn.extend_from_slice(&original[n - TRAILER..]);
        std::fs::write(&path, &torn).unwrap();
        assert!(
            TsFileReader::open(&path).is_err(),
            "file cut at {cut} opened"
        );
    }
    for at in directory.clone() {
        for bit in 0..8 {
            let mut flipped = body.to_vec();
            flipped[at] ^= 1 << bit;
            match FileFooter::decode_body(&flipped) {
                Err(TsFileError::Corrupt(_) | TsFileError::UnexpectedEof { .. }) => {}
                Err(other) => panic!("flip {at}:{bit}: untyped for a directory: {other:?}"),
                Ok(f) => {
                    assert_ne!(f.runs, footer.runs, "flip {at}:{bit} changed nothing");
                    let mut next = 0;
                    for (i, run) in f.runs.iter().enumerate() {
                        assert_eq!(run.chunks.start, next);
                        next = run.chunks.end;
                        assert!(i == 0 || f.runs[i - 1].series < run.series);
                    }
                    assert_eq!(next, f.chunks.len());
                }
            }
            let mut file = original.clone();
            file[body_at + at] ^= 1 << bit;
            std::fs::write(&path, &file).unwrap();
            assert!(
                matches!(
                    TsFileReader::open(&path),
                    Err(TsFileError::ChecksumMismatch { what: "footer", .. })
                ),
                "flip {at}:{bit} in the file"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip arbitrary bytes anywhere in a valid TsFile: open/read must
    /// either succeed with the original data (flip hit dead padding —
    /// impossible here, so in practice: error) or fail cleanly.
    #[test]
    fn bit_flips_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..8)
    ) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("flip-{}.tsfile", std::process::id()));
        let original = sample_file(&path);

        let mut corrupted = original.clone();
        for (idx, mask) in &flips {
            let i = idx.index(corrupted.len());
            corrupted[i] ^= mask;
        }
        std::fs::write(&path, &corrupted).unwrap();

        match TsFileReader::open(&path) {
            Err(_) => {} // clean failure
            Ok(reader) => {
                // Footer survived (flips hit chunk bodies): each chunk
                // read must either round-trip or error.
                for meta in reader.chunk_metas() {
                    let _ = reader.read_chunk(meta);
                    for page in 0..meta.page_count() as u32 {
                        let _ = reader.read_page_points(meta, page);
                        let _ = reader.read_page_timestamps(meta, page, None);
                        let _ = reader.read_page_timestamps(meta, page, Some(5_000));
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Truncate a valid TsFile at any point: must fail cleanly or, if
    /// truncation only removed nothing (full length), succeed.
    #[test]
    fn truncation_never_panics(cut in any::<prop::sample::Index>()) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trunc-{}.tsfile", std::process::id()));
        let original = sample_file(&path);
        let keep = cut.index(original.len() + 1);
        std::fs::write(&path, &original[..keep]).unwrap();
        match TsFileReader::open(&path) {
            Ok(reader) => {
                prop_assert_eq!(keep, original.len(), "short file must not open");
                for meta in reader.chunk_metas() {
                    reader.read_chunk(meta).unwrap();
                }
            }
            Err(_) => prop_assert!(keep < original.len()),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes as a mods file: replay must not panic and only
    /// yields CRC-valid prefixes.
    #[test]
    fn random_mods_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mods-{}.mods", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mods = ModsFile::open(&path).unwrap();
        // Whatever parsed, appending still works afterwards.
        let mut mods = mods;
        mods.append(tsfile::ModEntry::new(tsfile::types::Version(1), 0, 1)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// Arbitrary bytes as a whole file: open() must never panic.
    #[test]
    fn random_file_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("rand-{}.tsfile", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let _ = TsFileReader::open(&path);
        std::fs::remove_file(&path).ok();
    }

    /// The "no silently wrong data" half of the contract: when a read
    /// *succeeds* on a corrupted file, the returned points must be
    /// byte-exact against the original chunk for that version — the
    /// CRCs either reject the flip or it never touched that data.
    #[test]
    fn surviving_chunk_reads_are_exact(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..8)
    ) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("exact-{}.tsfile", std::process::id()));
        let original = sample_file(&path);
        let pts: Vec<Point> = (0..500).map(|i| Point::new(i * 100, (i % 17) as f64)).collect();

        let mut corrupted = original.clone();
        for (idx, mask) in &flips {
            let i = idx.index(corrupted.len());
            corrupted[i] ^= mask;
        }
        std::fs::write(&path, &corrupted).unwrap();

        if let Ok(reader) = TsFileReader::open(&path) {
            for meta in reader.chunk_metas() {
                let Ok(got) = reader.read_chunk(meta) else { continue };
                // A surviving read implies an uncorrupted footer entry,
                // so the version must be one the writer produced.
                let expected = match meta.version.0 {
                    1 => &pts[..250],
                    2 => &pts[250..],
                    v => return Err(TestCaseError::fail(format!("phantom chunk version {v}"))),
                };
                prop_assert_eq!(got.as_slice(), expected, "silent corruption passed the CRC");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Flips aimed at the footer / tail metadata region, where a decode
    /// bug is most likely to panic (lengths, counts, offsets).
    #[test]
    fn footer_flips_never_panic(
        flips in prop::collection::vec((0usize..160, 1u8..=255), 1..6)
    ) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("foot-{}.tsfile", std::process::id()));
        let original = sample_file(&path);

        let mut corrupted = original.clone();
        let len = corrupted.len();
        for (back, mask) in &flips {
            let i = len - 1 - (back % len.min(160));
            corrupted[i] ^= mask;
        }
        std::fs::write(&path, &corrupted).unwrap();

        if let Ok(reader) = TsFileReader::open(&path) {
            for meta in reader.chunk_metas() {
                let _ = reader.read_chunk(meta);
                for page in 0..meta.page_count() as u32 {
                    let _ = reader.read_page_timestamps(meta, page, None);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A corrupt on-disk count must not translate into an unbounded
    /// preallocation: feed tiny buffers with absurd `n` straight to the
    /// column decoders. Each must fail (or stop) quickly — if any of
    /// them still did `Vec::with_capacity(n)` uncapped, this test would
    /// abort the process trying to reserve exabytes.
    #[test]
    fn absurd_counts_do_not_preallocate(
        n in (1u64 << 40)..(1u64 << 62),
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let n = usize::try_from(n).unwrap();
        let _ = tsfile::encoding::ts2diff::decode(&bytes, n);
        let _ = tsfile::encoding::ts2diff::decode_until(&bytes, n, 1_000);
        let _ = tsfile::encoding::gorilla::decode(&bytes, n);
        let _ = tsfile::encoding::plain::decode_i64(&bytes, n);
        let _ = tsfile::encoding::plain::decode_f64(&bytes, n);
    }

    /// The shared prealloc bound behind the decoders: a huge claimed
    /// `n` over a tiny buffer reserves at most one slot per encoded
    /// bit (plus one), so the decoders above can never over-reserve
    /// before their first read fails. Also pins the audited helper's
    /// arithmetic at the extremes.
    #[test]
    fn huge_claimed_counts_cannot_over_reserve(
        bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let cap = tsfile::encoding::cap_for(usize::MAX, bytes.len());
        prop_assert!(cap <= bytes.len() * 8 + 1);
        // A tiny buffer cannot satisfy a huge count: both column
        // decoders must error rather than fabricate points.
        prop_assert!(tsfile::encoding::gorilla::decode(&bytes, usize::MAX).is_err());
        prop_assert!(tsfile::encoding::ts2diff::decode(&bytes, usize::MAX).is_err());
    }

    /// Flip one byte of a valid mods log: replay must never panic and
    /// must yield an exact *prefix* of the original entries — a
    /// corrupted record may drop the tail but never rewrite history.
    #[test]
    fn mods_flip_replay_is_clean_prefix(
        idx in any::<prop::sample::Index>(),
        mask in 1u8..=255,
        n_entries in 1usize..12,
    ) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("modflip-{}.mods", std::process::id()));
        std::fs::remove_file(&path).ok();

        let originals: Vec<tsfile::ModEntry> = (0..n_entries)
            .map(|i| {
                let i = i as i64;
                tsfile::ModEntry::new(tsfile::types::Version(i as u64 + 1), i * 10, i * 10 + 5)
            })
            .collect();
        {
            let mut mods = ModsFile::open(&path).unwrap();
            for e in &originals {
                mods.append(*e).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let i = idx.index(bytes.len());
        bytes[i] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        match ModsFile::open(&path) {
            Err(_) => {} // clean failure
            Ok(mods) => {
                let got = mods.entries();
                prop_assert!(got.len() < originals.len(), "a one-byte flip must drop a record");
                prop_assert_eq!(got, &originals[..got.len()], "replay rewrote history");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Cut a valid mods log anywhere (a crash mid-append), append once
    /// and reopen: the entries that survived the cut, then the new one
    /// — an append behind a torn entry must not be lost with it.
    #[test]
    fn mods_append_after_any_cut_survives_reopen(
        cut in any::<prop::sample::Index>(),
        n_entries in 1usize..12,
    ) {
        let dir = std::env::temp_dir().join("tsfile-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("modcut-{}.mods", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut mods = ModsFile::open(&path).unwrap();
        for i in 0..n_entries as i64 {
            let version = tsfile::types::Version(i as u64 + 1);
            mods.append(tsfile::ModEntry::new(version, i * 1_000, i * 1_000 + 500)).unwrap();
        }
        let originals = mods.entries().to_vec();
        let original = std::fs::read(&path).unwrap();
        std::fs::write(&path, &original[..cut.index(original.len() + 1)]).unwrap();

        let mut mods = ModsFile::open(&path).unwrap();
        let mut want = mods.entries().to_vec();
        prop_assert_eq!(&want[..], &originals[..want.len()]);
        let added = tsfile::ModEntry::new(tsfile::types::Version(99), -5, 5);
        mods.append(added).unwrap();
        want.push(added);
        prop_assert_eq!(mods.entries(), &want[..]);
        let reopened = ModsFile::open(&path).unwrap();
        prop_assert_eq!(reopened.entries(), &want[..]);
        std::fs::remove_file(&path).ok();
    }
}
