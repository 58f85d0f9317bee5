//! Byte identity of everything the write path leaves on disk.
//!
//! A fixed seeded history — in-order batches, 10 % late points, an
//! overwrite, range deletes — is written, partly flushed, and every
//! file of the store (sealed TsFile, mods log, shared WAL segment,
//! catalog log, shard pin) is hashed. The golden hashes were computed
//! by this same test at the commit *before* the write-path kernels
//! (CRC32, memtable, WAL/page framing) were rebuilt: equal hashes are
//! the proof that the rebuild changed no format and no byte.
//!
//! The data file's entry was regenerated three times since, on purpose.
//! First when the footer gained the series-run directory (and data
//! files and their delete logs were renamed `<fileno>.tsfile` /
//! `<fileno>.s<id>.mods`). Then when pages gained the decimal value
//! mode — the history's values are hundredths, and 22 of the file's 33
//! pages store them as scaled integers — and the footer stopped storing
//! what it can derive (chunk statistics, page offsets, the page-index
//! presence byte). Then when pages gained the packed forms: every tenth
//! point of a batch lands 5 ms late, between two others, so no page's
//! timestamps advance by one delta, and all 33 pages now store them as
//! bit-packed deltas with the late points' deltas as exceptions instead
//! of a ts2diff stream; and 9 of the 11 pages that held an XOR stream
//! store their values as packed key deltas (the other 2 keep XOR, the 22
//! decimal pages stay decimal). 18 573 → 17 681 bytes; the chunk index
//! keeps its length and changes only in the page lengths it lists.
//! [`TSFILE_PARTS`] holds the hashes of the file's parts as that third
//! regeneration wrote them — every byte before the footer (head magic,
//! pages, chunks) and the footer's chunk index — and the test checks the
//! file is exactly those plus the four directory bytes, so a later
//! change to one part names it. The mods log (one per series since,
//! `s<id>.mods`: its row's path changed a second time, its bytes never),
//! the catalog and the shard pin are byte-identical to the original
//! table.
//!
//! The WAL segment's entry was regenerated twice too. First when every
//! insert record gained the version it was appended after (what lets a
//! log that a power loss left trailing a sealed file be told from one
//! that is ahead of it): the original 28 520 bytes plus one — a one-byte
//! varint, the history allocates ten versions — for each of its 16
//! insert records. Then when a flush stopped writing to the log: the
//! flush of `a` framed a begin and an end marker (kinds 2 and 3, nine
//! bytes each), and the versions say what they said. The row is those
//! 28 536 bytes with the two marker frames cut out, 28 518 — checked
//! byte for byte against the earlier build's segment with its markers
//! removed; every other frame is framed as it was.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// Test fixtures make, corrupt and remove their own files.
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};

use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

/// `(path relative to the store, length, FNV-1a 64 of the bytes)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("SHARDS", 2, 0x07f8bc07b4ba5002),
    ("catalog.log", 36, 0xec3a226c01abdc87),
    ("shard-0000/00000000.tsfile", 17681, 0xd5efa41f86937311),
    ("shard-0000/s1.mods", 9, 0xcc59cc0b4c19c5c2),
    ("shard-0000/wal-00000000.log", 28518, 0x88c2ed828df37e3b),
];

/// `(length, FNV-1a 64)` of the data file's bytes before the footer and
/// of the footer's chunk index. Before the decimal mode and the footer
/// diet they were `(18_632, 0xfcfca27b987044fc)` and
/// `(2_043, 0xdab4016dd3c8e8af)`; before the packed forms,
/// `(16_885, 0xe634730e353e0fd0)` and `(1_666, 0x3a5751c29532ec63)`.
const TSFILE_PARTS: [(usize, u64); 2] = [(15_993, 0x0386fe3f349cc3d8), (1_666, 0xe0d843cb887b0c21)];

/// What the footer body gained: one run, of series 1 (`golden.a`),
/// holding all seven chunks, superseding nothing.
const RUN_DIRECTORY: [u8; 4] = [1, 1, 7, 0];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Deterministic values: a 64-bit LCG, top bits mapped to a sensor-ish
/// float with a fractional part (so Gorilla sees real mantissas).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn value(&mut self) -> f64 {
        (self.next() % 200_000) as f64 / 100.0 - 1000.0
    }
}

/// One batch of `n` points starting at `t0`: timestamps 10 ms apart,
/// every tenth point instead lands 5 ms *before* the batch's third
/// point onwards (late, between two points already written).
fn batch(rng: &mut Lcg, t0: i64, n: i64) -> Vec<Point> {
    let mut in_order = Vec::new();
    let mut late = Vec::new();
    for i in 0..n {
        if i % 10 == 9 {
            late.push(Point::new(t0 + (i - 7) * 10 + 5, rng.value()));
        } else {
            in_order.push(Point::new(t0 + i * 10, rng.value()));
        }
    }
    in_order.extend(late);
    in_order
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<(String, u64, u64)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_files(root, &path, out);
        } else {
            let bytes = std::fs::read(&path).unwrap();
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, bytes.len() as u64, fnv1a64(&bytes)));
        }
    }
}

fn store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tskv-golden-bytes-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn sealed_tsfile_wal_and_catalog_bytes_equal_the_hashes_taken_before_the_kernel_rebuild() {
    let dir = store_dir();
    let config = EngineConfig {
        points_per_chunk: 300,
        page_points: 64,
        memtable_threshold: 1_000_000,
        write_shards: 1,
        ..Default::default()
    };
    let kv = TsKv::open(&dir, config).unwrap();
    let mut rng = Lcg(0x5EED_0014);

    // Series `b` shares the shard WAL and stays unflushed, so the log
    // is never reset and keeps `a`'s records.
    kv.insert_batch("golden.b", &batch(&mut rng, 0, 50))
        .unwrap();

    // Part 1 of `a`: sealed into a TsFile.
    for k in 0..10 {
        kv.insert_batch("golden.a", &batch(&mut rng, k * 2_000, 200))
            .unwrap();
    }
    kv.insert("golden.a", Point::new(4_000, 123.456)).unwrap(); // overwrite
    kv.delete("golden.a", 7_015, 7_305).unwrap();
    kv.flush("golden.a").unwrap();

    // Part 2 of `a`: stays in the memtable and the WAL.
    for k in 10..13 {
        kv.insert_batch("golden.a", &batch(&mut rng, k * 2_000, 200))
            .unwrap();
    }
    kv.insert("golden.a", Point::new(20_010, -0.5)).unwrap(); // overwrite
    kv.delete("golden.a", 3_000, 3_500).unwrap(); // reaches the sealed file's mods
    kv.delete("golden.a", 24_000, 24_200).unwrap();

    let mut actual = Vec::new();
    collect_files(&dir, &dir, &mut actual);
    actual.sort();
    let tsfile = std::fs::read(dir.join("shard-0000/00000000.tsfile")).unwrap();
    drop(kv);
    std::fs::remove_dir_all(&dir).ok();

    // The data file is its bodies, its chunk index and the run
    // directory.
    let [(bodies_len, bodies_hash), (index_len, index_hash)] = TSFILE_PARTS;
    let trailer = 4 + 8 + 6; // crc + footer length + magic
    assert_eq!(
        tsfile.len(),
        bodies_len + index_len + RUN_DIRECTORY.len() + trailer
    );
    let (bodies, footer) = tsfile.split_at(bodies_len);
    let (index, rest) = footer.split_at(index_len);
    assert_eq!(fnv1a64(bodies), bodies_hash, "a page or chunk byte moved");
    assert_eq!(fnv1a64(index), index_hash, "a chunk-index byte moved");
    assert_eq!(rest[..RUN_DIRECTORY.len()], RUN_DIRECTORY);

    let golden: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(path, len, hash)| (path.to_string(), len, hash))
        .collect();
    assert_eq!(
        actual,
        golden,
        "on-disk bytes differ from the golden hashes; actual table:\n{}",
        actual
            .iter()
            .map(|(p, l, h)| format!("    (\"{p}\", {l}, 0x{h:016x}),\n"))
            .collect::<String>()
    );
}

/// `(length, FNV-1a 64)` of the one data file a compaction leaves,
/// taken at the parent of the commit that rebuilt the merge, the page
/// plan and the seal kernel: the output of a compaction is the same
/// bytes after it. Regenerated twice, each time with the data file's
/// row above: for the decimal value mode and the footer diet (it was
/// `(25_207, 0xe545e1c9772488b6)`), and for the packed forms (it was
/// `(22_023, 0x80fa0e00c13119d0)`). Of the output's 30 pages, 8 changed
/// form: the 4 whose time range a delete cut a gap into (t = 1 920,
/// 4 770, 12 100 and 14 690 on) store their timestamps as packed deltas,
/// the gap one exception, and 4 of the 7 XOR pages store their values
/// as packed key deltas; the merge, the page plan and every other page
/// are byte-identical.
const COMPACTED: (u64, u64) = (21_812, 0x5953b9323f677302);

#[test]
fn compaction_output_bytes_equal_the_hash_taken_before_the_merge_and_seal_rebuild() {
    let dir = std::env::temp_dir().join(format!("tskv-golden-compact-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        points_per_chunk: 300,
        page_points: 64,
        memtable_threshold: 1_000_000,
        write_shards: 1,
        ..Default::default()
    };
    let kv = TsKv::open(&dir, config).unwrap();
    let mut rng = Lcg(0x5EED_0020);

    // An overlapped pair: 1 200 points dealt alternately into two
    // files, so every page of one overlaps pages of the other; the
    // second file also overwrites a stretch of the first.
    let block: Vec<Point> = (0..1_200)
        .map(|i| Point::new(i * 10, rng.value()))
        .collect();
    let first: Vec<Point> = block.iter().step_by(2).copied().collect();
    let mut second: Vec<Point> = block.iter().skip(1).step_by(2).copied().collect();
    second.extend((100..140).map(|i| Point::new(i * 20, rng.value())));
    second.sort_by_key(|p| p.t);
    // Then two files no other file overlaps: every page of them is
    // clean until a delete touches it.
    let third: Vec<Point> = (1_200..2_400)
        .map(|i| Point::new(i * 10, rng.value()))
        .collect();
    let fourth: Vec<Point> = (2_400..3_000)
        .map(|i| Point::new(i * 10 + 3, rng.value()))
        .collect();
    for part in [&first, &second, &third, &fourth] {
        kv.insert_batch("golden.c", part).unwrap();
        kv.flush("golden.c").unwrap();
    }
    // Partial deletes (cut inside a page of the pair, inside a clean
    // page, across a chunk boundary) and page-covering ones (two whole
    // pages of the third file and their neighbours' edges; one whole
    // page of the pair's first file, with the points of the second
    // file beneath it).
    kv.delete("golden.c", 2_505, 2_995).unwrap();
    kv.delete("golden.c", 13_000, 13_005).unwrap();
    kv.delete("golden.c", 14_990, 15_020).unwrap();
    kv.delete("golden.c", 12_630, 13_930).unwrap();
    kv.delete("golden.c", 5_100, 6_420).unwrap();
    kv.delete("golden.c", 24_003, 24_633).unwrap();

    let report = kv.compact("golden.c").unwrap();
    assert!(
        report.pages_copied > 0 && report.pages_recoded > 0,
        "{report:?}"
    );
    drop(kv);

    let mut files = Vec::new();
    collect_files(&dir, &dir, &mut files);
    let data: Vec<&(String, u64, u64)> = files
        .iter()
        .filter(|(path, ..)| path.ends_with(".tsfile"))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(data.len(), 1, "one output file: {files:?}");
    assert_eq!(
        (data[0].1, data[0].2),
        COMPACTED,
        "compaction output differs; actual: ({}, 0x{:016x})",
        data[0].1,
        data[0].2
    );
}
