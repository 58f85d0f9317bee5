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
//! The data file's entry was regenerated twelve times since, on purpose.
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
//! of a delta-of-delta stream; and 9 of the 11 pages that held an XOR stream
//! store their values as packed key deltas (the other 2 keep XOR, the 22
//! decimal pages stay decimal). 18 573 → 17 681 bytes; the chunk index
//! kept its length and changed only in the page lengths it lists. Then
//! when the footer lost the per-chunk step-index flag and body, the
//! step-regression model the writer learned for every chunk and M4-LSM
//! no longer reads: the chunk index fell 1 666 → 1 555 bytes (all seven
//! chunks had a model, about 16 bytes each with the flag) and the file
//! 17 681 → 17 570; every byte before the footer is unchanged. Then
//! when the footer was coded against its neighbours — each page's
//! statistics as deltas and trimmed XORs against the page before it,
//! no chunk offset or length — and the magic at both ends became
//! `TSF3`: the chunk index fell 1 555 → 1 415 bytes (its 33 pages'
//! values are random hundredths, whose XORs keep most of their bytes)
//! and the file 17 570 → 17 430. The 15 987 bytes of page bodies
//! between the head magic and the footer hash the same as at the parent
//! (`0x911e40d2dc9bfc6b`): no page moved. Then when a chunk became one
//! page — the engine's page size setting and the footer's per-chunk page
//! count went, and the magic became `TSF4`. The fixture's 64-point pages
//! went with the setting, so each of its seven 300-point chunks is one
//! page where it was five: the page bodies went 15 987 → 16 297 bytes
//! (seven pages where there were 33) and the chunk index 1 415 → 327
//! (seven chunk entries, no page entries); the file 17 430 → 16 652.
//! The fixture keeps its 300-point chunks rather than taking the old
//! page size as its chunk size: a flush reserves one version per chunk,
//! so 31 chunks would move the `κ` of every later WAL record and the
//! version of the delete-log entry, rows this change leaves alone.
//! Then when a page body stopped storing what its chunk's statistics
//! hold, and the magic became `TSF5`: each of the seven pages lost its
//! point count (a two-byte varint, 300), its value column's length (the
//! column runs to the CRC; two bytes) and its packed timestamp column's
//! first timestamp (FP.t, a one- to three-byte varint) — no page of the
//! fixture has a constant-delta or packed value column, and every page
//! kept its forms. The page bodies went 16 297 → 16 252 bytes; the chunk
//! index kept its 327 bytes and changed only in the page lengths it
//! lists; the file 16 652 → 16 607. Then when the footer stopped
//! writing what an entry already implies, and the magic became `TSF6`:
//! a BP or TP that is its chunk's FP or LP is a position in the entry's
//! tags byte, not a time and a value; values with an integer under one
//! decimal pair are written as those integers where that is smaller
//! than their XORs (the fixture's values are random hundredths); and the
//! run directory codes each series id and `supersedes` against the run
//! before — the one run's four bytes are the same. The chunk index went
//! 327 → 269 bytes and the file 16 607 → 16 549; the page bodies hash as
//! they did, which is the evidence that no page byte moved. Then when a
//! decimal block began to check its sampled pair over every value and
//! to fall back to the pair of the same scale that leaves the fewest
//! exceptions: the fixture's values are random hundredths less 1 000,
//! computed in floating point, so about half of them are exceptions
//! under any pair, and 6 of the 7 pages found a pair leaving fewer
//! (156 → 150, 177 → 171, 178 → 159, 177 → 149, 175 → 161 and 163 →
//! 149 exceptions; the seventh, at t = 18 280 with 95, kept its
//! bytes). No page leaves its values to its statistics: random values
//! are no line. The page bodies went
//! 16 252 → 15 426 bytes; the chunk index kept its 269 bytes and changed
//! only in the page lengths it lists; the file 16 549 → 15 723. Then
//! when each footer entry was coded against a prediction from the one
//! before — its count, FP.t and span against the previous count and
//! cadence, its decimal FP and LP against the previous slope, an
//! interior extreme's time as a position on its chunk's cadence grid —
//! and the run directory moved ahead of the entries, under the magic
//! `TSF7`: the fixture's late points keep its chunks off a cadence, so
//! the chunk index only fell 269 → 259 bytes, and the file 15 723 →
//! 15 713; the page bodies hash as they did. Then when a window
//! exception was listed by its distance from its block's base instead of
//! as a raw word, and a decimal delta frame in a page left its head to
//! FP.v, under the magic `TSF8`: of the seven pages only the third
//! holds a window exception (the gap a delete cut into its packed
//! timestamps; its entry 6 bytes shorter) and none a decimal delta
//! frame; the other six are byte-identical. The page bodies went 15 426 → 15 420
//! bytes, the chunk index kept its 259 bytes and changed only in that
//! page's length, and the file 15 713 → 15 707. Only this row, its parts,
//! the catalog row (below) and [`COMPACTED`] were regenerated: the WAL,
//! mods and pin rows are unchanged. Then when pages lost the configured
//! stream forms (delta-of-delta timestamps, XOR values) and footer entries
//! stopped naming the two encodings, under the magic `TSF9`: every
//! entry's tags byte lost its encoding digits (`1 + 3 · 2`, 7 less),
//! and nothing else moved — no page of the fixture held a stream, so
//! the page bodies hash as they did; the file keeps its 15 707 bytes,
//! and differs from the `TSF8` file in its two magics, its seven tags
//! bytes and the footer's CRC alone (compared byte for byte). Only this
//! row, the chunk index's part and [`COMPACTED`] were regenerated. Then
//! when every column became one packed block, its frame in its width
//! byte (`frame·65 + w`) and no flag in a timestamp width byte or a
//! decimal `e`, under the magic `TSF10`: the file keeps its 15 707
//! bytes and differs from the `TSF9` file in its two magics, each of
//! its seven pages' timestamp width byte (the delta frame's code,
//! `65 + w`, where it was `w`) and page CRC, and the footer's CRC alone
//! (compared byte for byte); the value blocks, all in the frame of
//! reference, kept their bytes. Only this row, the page bodies' part
//! and [`COMPACTED`] were regenerated.
//! [`TSFILE_PARTS`] holds the hashes of
//! the file's parts as that twelfth regeneration wrote them — the page bodies and
//! the footer's chunk index (its chunk count and entries) — and the
//! test checks the file is exactly the head magic, the page bodies,
//! the chunk count, the four directory bytes, the entries and the
//! trailer, so a later change to one part names it. The mods
//! log (one per series since,
//! `s<id>.mods`: its row's path changed a second time, its bytes never)
//! and the shard pin are byte-identical to the original table.
//!
//! The catalog's entry was regenerated twice. First when its records
//! became front-coded with implicit ids: the log gained a 4-byte magic
//! (`TSC1`), and each record lost its `u32` id (its position; the CRC
//! covers it still) and its `u16` length, and holds only what its name
//! does not share with the name before it. `golden.b` takes 14 bytes
//! (two one-byte varints, 8 name bytes, the CRC) and `golden.a`, which
//! shares `golden.` with it, 7: 36 → 25 bytes. Then when the log gained
//! a head frame that the store-wide compaction checkpoints into (magic
//! `TSC2`): a log never checkpointed, as this fixture's, holds an empty
//! one — a zero count and its CRC, 5 bytes — and its records as they
//! were: 25 → 30 bytes.
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
//! removed; every other frame is framed as it was. Then a third time,
//! when insert records became kind 4, each timestamp the varint of its
//! step from the point before rather than of itself: the history's
//! timestamps, whole, take 6 or 7 bytes each and their steps 1 or 2,
//! 28 518 → 24 389 bytes — checked against the earlier segment with
//! each insert frame re-coded so; the delete frames are as they were.

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

use std::path::Path;
use testdir::TestDir;

use tsfile::format::MAGIC;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;

/// `(path relative to the store, length, FNV-1a 64 of the bytes)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("SHARDS", 2, 0x07f8bc07b4ba5002),
    ("catalog.log", 30, 0x15354c0e1e9f51a7),
    ("shard-0000/00000000.tsfile", 15707, 0x4d563e3aaa76a173),
    ("shard-0000/s1.mods", 9, 0xcc59cc0b4c19c5c2),
    ("shard-0000/wal-00000000.log", 24389, 0x735b_9905_7bc6_b0a4),
];

/// `(length, FNV-1a 64)` of the data file's page bodies (between the
/// head magic and the footer) and of the footer's chunk index. Until
/// the neighbour-coded footer the first part included the head magic:
/// before the decimal mode and the footer diet the parts were
/// `(18_632, 0xfcfca27b987044fc)` and `(2_043, 0xdab4016dd3c8e8af)`;
/// before the packed forms, `(16_885, 0xe634730e353e0fd0)` and
/// `(1_666, 0x3a5751c29532ec63)`; before the step-index flag and body
/// left the footer, the same bytes before the footer and
/// `(1_666, 0xe0d843cb887b0c21)`; before the neighbour-coded footer,
/// `(15_993, 0x0386fe3f349cc3d8)` and `(1_555, 0xa83dc0b4921740bd)`;
/// before a chunk became one page, `(15_987, 0x911e40d2dc9bfc6b)` and
/// `(1_415, 0xa488db8123d92764)`; before the page bodies left to the
/// statistics what they hold, `(16_297, 0x6bb8ee107a75c6d4)` and
/// `(327, 0x6bb2e6a5e5a3094b)`; before the footer stopped writing what
/// an entry implies, the same bodies and `(327, 0x64f15024a556fac6)`;
/// before a block fell back to the pair leaving the fewest exceptions,
/// `(16_252, 0x6f87783129adca70)` and `(269, 0x10372a476eb740fc)`;
/// before entries were coded against a prediction from the one before
/// (`TSF7`), the same bodies and `(269, 0xc0cda9653ba1e933)`; before
/// window exceptions were listed by their distance (`TSF8`),
/// `(15_426, 0xf47aacde97f61338)` and `(259, 0x5ebbe2a8b4034259)`;
/// before the entries stopped naming their chunk's two encodings
/// (`TSF9`), the same bodies and `(259, 0x39c23e32039a919f)`; before
/// the one packed block (`TSF10`), `(15_420, 0x5d4cd9e89c111896)` and
/// the same chunk index.
const TSFILE_PARTS: [(usize, u64); 2] = [(15_420, 0x3c4dce1f0dafe6c6), (259, 0xcad74373c40f092a)];

/// The footer's run directory, after its chunk count: one run, of
/// series 1 (`golden.a`), holding all seven chunks, superseding nothing.
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

#[test]
fn sealed_tsfile_wal_and_catalog_bytes_equal_the_hashes_taken_before_the_kernel_rebuild() {
    let dir = TestDir::new("tskv-golden-bytes");
    let config = EngineConfig {
        points_per_chunk: 300,
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

    // The data file is its head magic, its page bodies, and a footer of
    // the chunk count (one byte), the run directory and the chunk
    // entries; the chunk index is the count and the entries.
    let [(bodies_len, bodies_hash), (index_len, index_hash)] = TSFILE_PARTS;
    let (head, rest) = tsfile.split_at(MAGIC.len());
    assert_eq!(head, MAGIC);
    let trailer = 4 + 8 + MAGIC.len(); // crc + footer length + magic
    let footer_len = rest.len() - bodies_len - trailer;
    let (bodies, footer) = rest.split_at(bodies_len);
    let directory = &footer[1..1 + RUN_DIRECTORY.len()];
    let index = [&footer[..1], &footer[1 + RUN_DIRECTORY.len()..footer_len]].concat();
    let index = index.as_slice();
    assert_eq!(
        (fnv1a64(bodies), index.len(), fnv1a64(index)),
        (bodies_hash, index_len, index_hash),
        "a page byte (first) or a chunk-index byte (then) moved; actual: \
         (0x{:016x}, {}, 0x{:016x})",
        fnv1a64(bodies),
        index.len(),
        fnv1a64(index)
    );
    assert_eq!(directory, RUN_DIRECTORY);

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
/// bytes after it. Regenerated nine times, each time with the data
/// file's row above: for the decimal value mode and the footer diet (it
/// was `(25_207, 0xe545e1c9772488b6)`), for the packed forms (it was
/// `(22_023, 0x80fa0e00c13119d0)`), when the footer lost the
/// step-index flag and body (it was `(21_812, 0x5953b9323f677302)`:
/// 112 bytes fewer, all of them in the footer), and when the footer
/// was coded against its neighbours (it was `(21_700,
/// 0x533f903ecc907f6d)`: 196 bytes fewer, all in the footer, and the
/// head and tail magic `TSF2` → `TSF3`), and when a chunk became one
/// page (it was `(21_504, 0xf62ac83c1dfe2653)`): the fixture's 64-point
/// pages became its chunk size, so the inputs are 64-point chunks where
/// they were 300-point chunks of 64-point pages, the plan classifies
/// chunks where it classified pages, and every output chunk is one
/// page; the magic became `TSF4`. And when a page body stopped storing
/// what its chunk's statistics hold (it was `(21_336,
/// 0x6fddffd39f2637ef)`; the magic became `TSF5`): of the output's 42
/// chunks, 38 store their timestamps as a constant delta, now no bytes
/// at all (`FP.t + i·Δ`), and every page lost its point count and its
/// value column's length, a packed timestamp column its FP.t and a
/// packed value column its 8-byte FP.v — 5 to 16 bytes a page, 387 in
/// all. Two pages that kept an XOR stream (at t = 21 600 and 29 763)
/// store packed key deltas instead, smaller without that head; the
/// merge, the chunk plan and every other page's forms are unchanged.
/// At the packed forms, of the output's 30 pages, 8 changed
/// form: the 4 whose time range a delete cut a gap into (t = 1 920,
/// 4 770, 12 100 and 14 690 on) store their timestamps as packed deltas,
/// the gap one exception, and 4 of the 7 XOR pages store their values
/// as packed key deltas; the merge, the page plan and every other page
/// are byte-identical. And when the footer stopped writing what an
/// entry already implies (it was `(20_949, 0x64fbe40bbe332388)`; the
/// magic became `TSF6`): 144 bytes fewer, all of them in the footer —
/// every byte between the head magic and the footer is as it was. And
/// when a decimal block began to fall back to the pair of its scale
/// that leaves the fewest exceptions (it was `(20_805,
/// 0xdf560e66a3611308)`): 16 of the output's 42 chunks found a pair
/// leaving one to six fewer of their random hundredths raw, 9 to 54
/// bytes a chunk, 324 in all; no chunk's values are a line, so none
/// left them to its statistics, and every other chunk is as it was.
/// And when each footer entry was coded against a prediction from the
/// one before, with the run directory ahead of the entries (it was
/// `(20_481, 0x3d31950f3546fdf5)`; the magic became `TSF7`): 98 bytes
/// fewer, all of them in the footer. And when a window exception was
/// listed by its distance from its block's base (it was `(20_383,
/// 0x23f8cd6df0115528)`; the magic became `TSF8`): the 4 of the 42
/// chunks whose packed timestamps hold a delete's gap as an exception
/// (chunks 3, 7, 16 and 18) are 6 or 7 bytes smaller, 25 in all; no chunk
/// holds a decimal delta frame, and the other 38 are byte-identical.
/// And when footer entries stopped naming their chunk's two encodings
/// (it was `(20_358, 0xab57c65f1005d381)`; the magic became `TSF9`):
/// the file keeps its length and differs only in its two magics, the
/// 42 entries' tags bytes (each 7 less) and the footer's CRC; no chunk
/// body moved. And when every column became one packed block, its
/// frame in its width byte (it was `(20_358, 0x57895d2b0b4ef7f5)`; the
/// magic became `TSF10`): the file keeps its length; its blocks' width
/// codes and page CRCs moved.
const COMPACTED: (u64, u64) = (20_358, 0x48afb0b46e70f0b4);

#[test]
fn compaction_output_bytes_equal_the_hash_taken_before_the_merge_and_seal_rebuild() {
    let dir = TestDir::new("tskv-golden-compact");
    let config = EngineConfig {
        points_per_chunk: 64,
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
    assert_eq!(data.len(), 1, "one output file: {files:?}");
    assert_eq!(
        (data[0].1, data[0].2),
        COMPACTED,
        "compaction output differs; actual: ({}, 0x{:016x})",
        data[0].1,
        data[0].2
    );
}
