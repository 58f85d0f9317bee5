//! Back-compat regression: format-v1 files (monolithic single-page
//! chunks, `TSF1` magic) must stay readable after the v2 page-structured
//! format became the write default.
//!
//! `fixtures/v1.tsfile` was produced by the v1 writer: 500 points
//! `(t = i*100, v = (i % 17) as f64)` split into two chunks of 250
//! (versions 1 and 2), default encodings, step index enabled.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use tsfile::format::FORMAT_V1;
use tsfile::types::{Point, TimeRange};
use tsfile::TsFileReader;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1.tsfile")
}

fn expected_points() -> Vec<Point> {
    (0..500i64)
        .map(|i| Point::new(i * 100, (i % 17) as f64))
        .collect()
}

/// The fixture's footer and chunk-body checksums were written by the
/// byte-at-a-time CRC32 the slice-by-16 kernel replaced; they must
/// verify unchanged.
#[test]
fn v1_fixture_with_checksums_from_the_old_crc_kernel_opens_and_reads_exactly() {
    let r = TsFileReader::open(fixture_path()).expect("v1 fixture must open");
    assert_eq!(r.format_version(), FORMAT_V1);
    let metas = r.chunk_metas();
    assert_eq!(metas.len(), 2);
    assert_eq!(metas[0].version.0, 1);
    assert_eq!(metas[1].version.0, 2);
    // v1 chunks carry no page index and present as a single page.
    assert!(metas[0].paged.is_none());
    assert_eq!(metas[0].page_count(), 1);

    let expect = expected_points();
    let c0 = r.read_chunk(&metas[0]).unwrap();
    let c1 = r.read_chunk(&metas[1]).unwrap();
    assert_eq!(c0, expect[..250]);
    assert_eq!(c1, expect[250..]);
}

#[test]
fn v1_fixture_page_apis_degenerate_to_whole_chunk() {
    let r = TsFileReader::open(fixture_path()).unwrap();
    let metas = r.chunk_metas();
    let expect = expected_points();

    // Overlapping read: the chunk is its own single page 0.
    let pages = r
        .read_pages_overlapping(&metas[0], TimeRange::new(1_000, 2_000))
        .unwrap();
    assert_eq!(pages.len(), 1);
    assert_eq!(pages[0].0, 0);
    assert_eq!(pages[0].1, expect[..250]);

    // Disjoint range: metadata-only negative answer, no I/O.
    let before = r.chunks_read();
    assert!(r
        .read_pages_overlapping(&metas[0], TimeRange::new(100_000, 200_000))
        .unwrap()
        .is_empty());
    assert_eq!(r.chunks_read(), before);

    // Timestamp probe with early stop still works on the v1 layout.
    let ts = r.read_chunk_timestamps(&metas[0], Some(1_050)).unwrap();
    assert_eq!(ts.last().copied(), Some(1_100));
    assert!(ts.len() < 20);

    // Explicit page addressing is a v2-only API.
    assert!(r.read_page(&metas[0], 0).is_err());
}
