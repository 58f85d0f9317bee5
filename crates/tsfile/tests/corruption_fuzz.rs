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
use testdir::TestDir;
use tsfile::encoding::packed::{self, Column, Framing, Transform};
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

/// A page is bounded by its point count, not its bytes: a constant-delta
/// timestamp column and an equal-valued value column are a few bytes
/// for any count. A CRC-valid page just above the ceiling, whose page
/// index agrees with it, is `Corrupt` — never an allocation sized by
/// the claim.
#[test]
fn page_above_the_point_ceiling_is_corrupt() {
    let n = tsfile::page::MAX_PAGE_POINTS + 1;
    let points: Vec<Point> = (0..n as i64).map(|i| Point::new(i, 7.0)).collect();
    let mut body = Vec::new();
    tsfile::page::encode_page(
        &points,
        tsfile::encoding::EncodingKind::Ts2Diff,
        tsfile::encoding::EncodingKind::Gorilla,
        &mut body,
    );
    let meta = tsfile::PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: tsfile::ChunkStatistics::from_points(&points).unwrap(),
    };
    drop(points);
    let got = tsfile::page::decode_page(
        &body,
        tsfile::encoding::EncodingKind::Ts2Diff,
        tsfile::encoding::EncodingKind::Gorilla,
        &meta,
    );
    assert!(
        matches!(&got, Err(TsFileError::Corrupt(msg)) if msg.contains("ceiling")),
        "{:?}",
        got.map(|p| p.len())
    );
}

/// A CRC-valid page with the given modes byte and columns: the modes,
/// the length-prefixed timestamp column unless the modes say constant
/// delta (bit 0), the value column up to the CRC. Its point count is
/// the footer entry's.
fn sealed_page(modes: u8, ts: &[u8], values: &[u8]) -> Vec<u8> {
    use tsfile::varint;
    let mut body = vec![modes];
    if modes & 1 == 0 {
        varint::write_u64(&mut body, ts.len() as u64);
        body.extend_from_slice(ts);
    }
    body.extend_from_slice(values);
    let crc = tsfile::checksum::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// A CRC-valid page whose value column is `block`, marked decimal, and
/// whose timestamps are a constant delta: read against [`meta_of`], its
/// points are at `t = 0, 1, …`.
fn decimal_page(block: &[u8]) -> Vec<u8> {
    sealed_page(0b11, &[], block)
}

/// A decimal block of `n` values decoded against its column's first and
/// last value (a page's FP.v and LP.v).
fn decimal_decode(block: &[u8], n: usize, (first, last): (f64, f64)) -> tsfile::Result<Vec<f64>> {
    let ends = (first.to_bits(), last.to_bits());
    let words = packed::decode(block, n, Transform::Decimal, ends)?;
    Ok(words.into_iter().map(f64::from_bits).collect())
}

/// The copy gate's check of the same block.
fn decimal_verify(block: &[u8], n: usize, (first, last): (f64, f64)) -> tsfile::Result<()> {
    packed::verify(
        block,
        n,
        Transform::Decimal,
        (first.to_bits(), last.to_bits()),
    )
}

/// A timestamp block of `n` points decoded from `first` to `last`.
fn ts_decode(block: &[u8], n: usize, (first, last): (i64, i64)) -> tsfile::Result<Vec<i64>> {
    let words = packed::decode(block, n, Transform::Timestamp, (first as u64, last as u64))?;
    Ok(words.into_iter().map(|w| w as i64).collect())
}

/// Both results a typed error: `Corrupt` or `UnexpectedEof`.
fn typed<T>(r: &tsfile::Result<T>) -> bool {
    matches!(
        r,
        Err(TsFileError::Corrupt(_) | TsFileError::UnexpectedEof { .. })
    )
}

/// The footer entry of a page of `n` points at `t = 0, 1, …`.
fn meta_of(n: usize, body: &[u8]) -> tsfile::PageMeta {
    let points: Vec<Point> = (0..n as i64).map(|t| Point::new(t, 0.0)).collect();
    tsfile::PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: tsfile::ChunkStatistics::from_points(&points).unwrap(),
    }
}

/// Encode `values` as a page whose decimal block takes `framing`, flip
/// bytes inside the block, re-seal the CRC and decode: a typed error or
/// every point, never a panic, and the copy gate passes exactly the
/// pages that decode.
fn flip_decimal_block(
    values: impl Iterator<Item = f64>,
    framing: Framing,
    flips: &[(prop::sample::Index, u8)],
) -> Result<(), TestCaseError> {
    use tsfile::encoding::EncodingKind;
    let points: Vec<Point> = values
        .enumerate()
        .map(|(i, v)| Point::new(i as i64 * 10 + i as i64 % 3, v))
        .collect();
    let mut body = Vec::new();
    tsfile::page::encode_page(
        &points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    prop_assert_eq!(tsfile::page::framings(&body).unwrap()[1], Some(framing));
    // Modes, varint ts_len, ts bytes (the jittered timestamps are
    // packed), then the block up to the CRC.
    let mut pos = 1;
    let ts_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    pos += ts_len;
    let block = pos..body.len() - 4;
    for (idx, mask) in flips {
        body[block.start + idx.index(block.len())] ^= mask;
    }
    let crc = tsfile::checksum::crc32(&body[..block.end]);
    body[block.end..].copy_from_slice(&crc.to_le_bytes());
    let meta = tsfile::PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: tsfile::ChunkStatistics::from_points(&points).unwrap(),
    };
    let decoded =
        tsfile::page::decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
    match &decoded {
        Ok(back) => prop_assert_eq!(back.len(), points.len()),
        Err(_) => prop_assert!(typed(&decoded), "{decoded:?}"),
    }
    let gate = tsfile::page::verify_page_body(&body, &meta);
    prop_assert_eq!(gate.is_ok(), decoded.is_ok(), "{:?}", gate);
    Ok(())
}

/// A varint whose tenth byte carries bits past 64 is `Corrupt`, not the
/// low 64 bits read as if they were all: a CRC-valid page whose packed
/// timestamp column's base is `[0x80 ×9, 0x02]`, whose low 64 bits read
/// as base 0.
#[test]
fn a_varint_past_64_bits_in_a_page_is_corrupt() {
    use tsfile::encoding::EncodingKind;
    let mut ts = vec![0x00u8]; // width 0
    ts.extend_from_slice(&[0x80; 9]);
    ts.extend_from_slice(&[0x02, 0x00]); // base (overflowing), no exception
    let page = sealed_page(0x14, &ts, &[]); // packed, implied values
    let meta = meta_of(2, &page);
    let got = tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
    assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
    // `u64::MAX` still reads: the tenth byte may be 1.
    let mut max = vec![0xffu8; 9];
    max.push(0x01);
    let mut pos = 0;
    assert_eq!(tsfile::varint::read_u64(&max, &mut pos).unwrap(), u64::MAX);
}

/// A modes byte names one form of each column: a CRC-valid page whose
/// modes have no timestamp bit, no value bit or neither is `Corrupt` to
/// the page decoder, the timestamp decoder and the copy gate alike.
#[test]
fn a_modes_byte_without_a_form_of_each_column_is_corrupt() {
    let points: Vec<Point> = (0..3).map(|t| Point::new(t, 0.0)).collect();
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
    // Unit deltas packed (width 0, base 1, no exception); values 0.0,
    // implied: with both bits the page reads.
    let unit_deltas = [65, 2, 0];
    let whole = three_readers(&sealed_page(0x14, &unit_deltas, &[]), stats);
    assert!(whole.iter().all(Result::is_ok), "{whole:?}");
    for (what, modes) in [
        ("no timestamp bit", 0x10),
        ("no timestamp bit, decimal values", 0x02),
        ("no value bit", 0x04),
        ("no value bit, constant timestamps", 0x01),
        ("neither", 0x00),
    ] {
        for got in three_readers(&sealed_page(modes, &unit_deltas, &[]), stats) {
            assert!(
                matches!(got, Err(TsFileError::Corrupt(_))),
                "{what}: {got:?}"
            );
        }
    }
}

/// A file of the `TSF8` layout — the last whose pages could hold a
/// configured stream — is refused at open as foreign (`BadMagic`), and
/// the open leaves every byte of it as it was.
#[test]
fn a_tsf8_file_is_refused_untouched() {
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("tsf8.tsfile");
    let mut file = sample_file(&path);
    let n = file.len();
    file[..6].copy_from_slice(b"TSF8\0\0");
    file[n - 6..].copy_from_slice(b"TSF8\0\0");
    std::fs::write(&path, &file).unwrap();
    match TsFileReader::open(&path) {
        Err(TsFileError::BadMagic { found }) => assert_eq!(&found, b"TSF8\0\0"),
        other => panic!("opened as {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(&path).unwrap(), file);
}

/// A page whose timestamps (jittered, with a delay) and values (a walk
/// with a jump) are both packed with exceptions: every strict prefix of
/// either column, under a re-sealed CRC, is a typed error from the page
/// decoder and from the copy gate, and every single-bit flip in it is
/// either a typed error from both or a page both accept — never a
/// panic, never one accepting what the other refuses.
#[test]
fn packed_column_prefixes_and_bit_flips_are_typed_errors() {
    use tsfile::encoding::EncodingKind;
    use tsfile::page::{decode_page, forms, verify_page_body, TsForm, ValueForm};
    let points: Vec<Point> = (0..200i64)
        .map(|i| {
            let t = i * 10 + (i * 7) % 5 + if i >= 120 { 60_000 } else { 0 };
            let v = 225.0 + (i as f64 * 0.05).sin() + if i == 77 { 1e6 } else { 0.0 };
            Point::new(t, v)
        })
        .collect();
    let mut body = Vec::new();
    tsfile::page::encode_page(
        &points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    let f = forms(&body).unwrap();
    assert_eq!(
        (f.timestamps, f.values),
        (TsForm::Packed, ValueForm::Packed)
    );
    // Modes, varint ts_len, ts, then the values up to the CRC.
    let modes = body[0];
    let mut pos = 1;
    let ts_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    let ts = body[pos..pos + ts_len].to_vec();
    let values = body[pos + ts_len..body.len() - 4].to_vec();
    assert_eq!(sealed_page(modes, &ts, &values), body);
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();

    let check = |ts: &[u8], values: &[u8], what: &str, must_fail: bool| {
        let page = sealed_page(modes, ts, values);
        let meta = tsfile::PageMeta {
            offset: 0,
            byte_len: page.len() as u64,
            stats,
        };
        let decoded = decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
        let verified = verify_page_body(&page, &meta);
        if must_fail || decoded.is_err() || verified.is_err() {
            assert!(
                typed(&decoded),
                "{what}: decode gave {:?}",
                decoded.map(|p| p.len())
            );
            assert!(typed(&verified), "{what}: the copy gate gave {verified:?}");
        }
    };
    for cut in 0..ts.len() {
        check(&ts[..cut], &values, &format!("ts cut at {cut}"), true);
    }
    for cut in 0..values.len() {
        check(&ts, &values[..cut], &format!("values cut at {cut}"), true);
    }
    for at in 0..ts.len() * 8 {
        let mut flipped = ts.clone();
        flipped[at / 8] ^= 1 << (at % 8);
        check(&flipped, &values, &format!("ts bit {at}"), false);
    }
    for at in 0..values.len() * 8 {
        let mut flipped = values.clone();
        flipped[at / 8] ^= 1 << (at % 8);
        check(&ts, &flipped, &format!("values bit {at}"), false);
    }
    // The modes byte: each packed bit with its column's other bit set
    // is `Corrupt`, and so is any bit above the four.
    for bad in [modes | 0b0001, modes | 0b0010, modes | 0b1_0000, 0x80] {
        let page = sealed_page(bad, &ts, &values);
        let got = decode_page(
            &page,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &meta_of(200, &page),
        );
        assert!(
            matches!(got, Err(TsFileError::Corrupt(_))),
            "modes {bad:#x}"
        );
    }
}

/// A constant-delta page stores no timestamps: they are `FP.t + i·Δ`
/// with `Δ` the footer's span over `n − 1` steps. Footer statistics
/// that do not split into equal steps — an LP one unit off, a count one
/// too many, a span past `i64::MAX` — make the page `Corrupt` for the
/// decoder, the timestamp decoder and the copy gate alike.
#[test]
fn statistics_that_do_not_split_into_equal_steps_make_a_constant_page_corrupt() {
    use tsfile::encoding::EncodingKind;
    use tsfile::page::{decode_page, decode_page_timestamps, forms, verify_page_body, TsForm};
    let points: Vec<Point> = (0..100i64).map(|i| Point::new(i * 10, 1.5)).collect();
    let mut body = Vec::new();
    tsfile::page::encode_page(
        &points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    assert_eq!(forms(&body).unwrap().timestamps, TsForm::Constant);
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
    let mut off_by_one = stats;
    off_by_one.last.t += 1;
    let mut one_more = stats;
    one_more.count += 1;
    let mut overflowing = stats;
    (overflowing.first.t, overflowing.last.t) = (i64::MIN, i64::MAX);
    for (what, stats) in [
        ("LP one unit off", off_by_one),
        ("one point more", one_more),
        ("span past i64::MAX", overflowing),
    ] {
        let meta = tsfile::PageMeta {
            offset: 0,
            byte_len: body.len() as u64,
            stats,
        };
        let decoded = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
        assert!(
            matches!(decoded, Err(TsFileError::Corrupt(_))),
            "{what}: {decoded:?}"
        );
        let stamps = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, Some(0));
        assert!(
            matches!(stamps, Err(TsFileError::Corrupt(_))),
            "{what}: {stamps:?}"
        );
        let gate = verify_page_body(&body, &meta);
        assert!(
            matches!(gate, Err(TsFileError::Corrupt(_))),
            "{what}: {gate:?}"
        );
    }
}

/// A packed column is the block of its deltas alone, anchored at the
/// footer's FP and LP. Read against a count one more or one less than
/// it holds — a block longer or shorter than the footer's count — it is
/// a typed error from the decoder, the timestamp decoder and the copy
/// gate, whichever column is packed.
#[test]
fn a_packed_block_of_another_count_than_the_footer_is_a_typed_error() {
    use tsfile::encoding::EncodingKind;
    use tsfile::page::{decode_page, decode_page_timestamps, forms, verify_page_body};
    use tsfile::page::{TsForm, ValueForm};
    // Jittered timestamps and a walk: both columns packed.
    let both: Vec<Point> = (0..300i64)
        .map(|i| Point::new(i * 10 + (i * 7) % 5, 225.0 + (i as f64 * 0.05).sin()))
        .collect();
    // Regular timestamps, a walk: only the values packed. The footer
    // entries below keep the 10 ms step (LP.t moves with the count), so
    // the constant-delta column reads as any count and the value block
    // alone must refuse it.
    let values_only: Vec<Point> = both
        .iter()
        .enumerate()
        .map(|(i, p)| Point::new(i as i64 * 10, p.v))
        .collect();
    for (points, want) in [
        (both, (TsForm::Packed, ValueForm::Packed)),
        (values_only, (TsForm::Constant, ValueForm::Packed)),
    ] {
        let mut body = Vec::new();
        tsfile::page::encode_page(
            &points,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
            &mut body,
        );
        let f = forms(&body).unwrap();
        assert_eq!((f.timestamps, f.values), want);
        let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
        for count in [stats.count - 1, stats.count + 1] {
            let mut last = stats.last;
            if want.0 == TsForm::Constant {
                last.t = (count as i64 - 1) * 10;
            }
            let meta = tsfile::PageMeta {
                offset: 0,
                byte_len: body.len() as u64,
                stats: tsfile::ChunkStatistics {
                    count,
                    last,
                    ..stats
                },
            };
            let decoded = decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
            assert!(typed(&decoded), "{want:?} read as {count}: {decoded:?}");
            let gate = verify_page_body(&body, &meta);
            assert!(
                typed(&gate),
                "{want:?} read as {count}: the gate gave {gate:?}"
            );
            if want.0 == TsForm::Packed {
                let stamps = decode_page_timestamps(&body, EncodingKind::Ts2Diff, &meta, None);
                assert!(typed(&stamps), "{want:?} read as {count}: {stamps:?}");
            }
        }
    }
}

/// A malformed decimal header is a typed error from the block decoder,
/// from a page decode and from the copy gate — and a well-formed one
/// around it decodes, so each case fails for its own reason.
#[test]
fn malformed_decimal_blocks_are_typed_errors() {
    use tsfile::encoding::EncodingKind;
    // Four values 1, 2, 3, 4: e = f = 0, width 2, base 1, offsets
    // 0 1 2 3 packed in one byte, then the exception list.
    let body = |w: u8, packed: &[u8], tail: &[u8]| {
        let mut b = vec![0, 0, w, 2]; // zigzag(1) = 2
        b.extend_from_slice(packed);
        b.extend_from_slice(tail);
        b
    };
    let raw = 2.5f64.to_bits().to_le_bytes();
    let exception = |at: u8| {
        let mut e = vec![at];
        e.extend_from_slice(&raw);
        e
    };
    let good = body(2, &[0b0001_1011], &[&[1][..], &exception(2)].concat());
    // Every block below is read from 1 to 4, as a page's ends.
    let ends = (1.0, 4.0);
    assert_eq!(
        decimal_decode(&good, 4, ends).unwrap(),
        [1.0, 2.0, 2.5, 4.0]
    );
    // The delta frame of the integers `ints` under (0, 0): their
    // timestamp block behind the pair.
    let delta = |ints: &[i64]| {
        let mut b = vec![0, 0];
        packed::encode(Column::Timestamps(ints), Some(Framing::Delta), &mut b).unwrap();
        b
    };
    let good_delta = delta(&[1, 2, 4]);
    assert_eq!(
        decimal_decode(&good_delta, 3, ends).unwrap(),
        [1.0, 2.0, 4.0]
    );

    let cases: Vec<(&str, usize, Vec<u8>)> = vec![
        ("width code 195", 4, body(195, &[0b0001_1011], &[0])),
        ("bit width 255", 4, body(255, &[0b0001_1011], &[0])),
        ("exponent 19", 4, [&[19, 0][..], &good[2..]].concat()),
        (
            "factor above exponent",
            4,
            [&[1, 2][..], &good[2..]].concat(),
        ),
        ("exception count above n", 4, body(2, &[0b0001_1011], &[5])),
        (
            "exception count huge",
            4,
            body(2, &[0b0001_1011], &[0xff, 0xff, 0xff, 0xff, 0x0f]),
        ),
        (
            "exception past n",
            4,
            body(2, &[0b0001_1011], &[&[1][..], &exception(4)].concat()),
        ),
        (
            "exceptions descending",
            4,
            body(
                2,
                &[0b0001_1011],
                &[&[2][..], &exception(3), &exception(1)].concat(),
            ),
        ),
        (
            "exceptions repeated",
            4,
            body(
                2,
                &[0b0001_1011],
                &[&[2][..], &exception(2), &exception(2)].concat(),
            ),
        ),
        (
            "exception cut short",
            4,
            body(2, &[0b0001_1011], &[&[1][..], &exception(1)[..5]].concat()),
        ),
        ("packed block truncated", 100, body(8, &[7; 10], &[0])),
        ("no exception count", 4, body(2, &[0b0001_1011], &[])),
        (
            "bytes after the exceptions",
            4,
            body(2, &[0b0001_1011], &[0, 0]),
        ),
        ("header cut short", 4, vec![0, 0]),
        ("delta frame summing past 2^53", 3, delta(&[1, 1 << 53, 4])),
        (
            "delta frame exponent 19",
            3,
            [&[19, 0][..], &good_delta[2..]].concat(),
        ),
        (
            "delta frame cut short",
            3,
            good_delta[..good_delta.len() - 1].to_vec(),
        ),
        (
            "delta frame with a byte after it",
            3,
            [&good_delta[..], &[0]].concat(),
        ),
        (
            "n above the page ceiling",
            tsfile::page::MAX_PAGE_POINTS + 1,
            body(0, &[], &[0]),
        ),
    ];
    for (what, n, block) in cases {
        let direct = decimal_decode(&block, n, ends);
        assert!(typed(&direct), "{what}: decode gave {direct:?}");
        assert!(
            typed(&decimal_verify(&block, n, ends)),
            "{what}: verify passed"
        );
        if n > tsfile::page::MAX_PAGE_POINTS {
            continue; // the page header itself is refused first
        }
        let page = decimal_page(&block);
        let meta = meta_of(n, &page);
        let decoded =
            tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
        assert!(typed(&decoded), "{what}: page decode gave {decoded:?}");
        assert!(
            typed(&tsfile::page::verify_page_body(&page, &meta)),
            "{what}: the copy gate passed it"
        );
    }
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
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("rundir.tsfile");
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
    // The directory follows the chunk count, a byte for three chunks.
    let directory = 1..1 + footer.census().directory_bytes;
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
}

/// `data` (head magic and chunk bodies) followed by `body` as the
/// footer, under its CRC, length and tail magic.
fn sealed_file(data: &[u8], body: &[u8]) -> Vec<u8> {
    let mut file = data.to_vec();
    file.extend_from_slice(body);
    file.extend_from_slice(&tsfile::checksum::crc32(body).to_le_bytes());
    file.extend_from_slice(&(body.len() as u64).to_le_bytes());
    file.extend_from_slice(tsfile::format::MAGIC);
    file
}

/// A file of three runs whose statistics take every kind of value — a
/// run of several chunks, one page each, a run starting before the one
/// before it ended, a chunk with an older version than the one before
/// it, NaN payloads, −0.0, ±inf and subnormals — split into its bytes
/// before the footer and its footer body.
fn footer_sample(path: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let specials = [
        f64::from_bits(0x7ff8_0000_0000_0001),
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        0.0,
    ];
    let mut w = TsFileWriter::create(path).unwrap();
    w.begin_series(3, 0).unwrap();
    let ramp: Vec<Point> = (0..130)
        .map(|i| Point::new(1_000 + i * 10, 20.0 + (i % 9) as f64 / 4.0))
        .collect();
    for (v, chunk) in (7..).zip(ramp.chunks(40)) {
        w.write_chunk(chunk, v).unwrap();
    }
    w.begin_series(700, 0).unwrap();
    let odd: Vec<Point> = (0..60)
        .map(|i| Point::new(-5_000 + i * 97, specials[i as usize % specials.len()]))
        .collect();
    w.write_chunk(&odd, 4).unwrap();
    w.begin_series(70_000, 9).unwrap();
    w.write_chunk(&[Point::new(i64::MIN, 1.5), Point::new(i64::MAX, -1.5)], 11)
        .unwrap();
    w.finish().unwrap();
    split_file(path)
}

/// The file at `path` split into its bytes before the footer and its
/// footer body.
fn split_file(path: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let file = std::fs::read(path).unwrap();
    let n = file.len();
    let body_len = u64::from_le_bytes(file[n - 14..n - 6].try_into().unwrap()) as usize;
    let body_at = n - 18 - body_len;
    (file[..body_at].to_vec(), file[body_at..n - 18].to_vec())
}

/// A CRC-valid footer whose entry holds what no writer writes is
/// `Corrupt` from the decoder and at open, never a panic: a tags byte
/// past the largest (a reserved position or form) or with a digit
/// below 9 that is not 0, a pair byte past
/// the largest exponent or a factor past its exponent, and a decimal
/// integer at or past 2^53.
#[test]
fn footer_entries_out_of_range_are_corrupt() {
    use tsfile::varint;
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("entry.tsfile");
    let mut w = TsFileWriter::create(&path).unwrap();
    w.begin_series(0, 0).unwrap();
    w.write_chunk(&[Point::new(0, 21.37), Point::new(10, 19.02)], 1)
        .unwrap();
    w.finish().unwrap();
    let (data, body) = split_file(&path);
    // One chunk; one run, of series 0, one chunk, superseding nothing;
    // the chunk at version 1; 9 · the statistics' tag: BP at LP (2) +
    // 3 · TP at FP (1) + 9 · decimal under a new pair (2); its length; two points,
    // FP.t 0, LP.t 10 (no entry before it predicts either); the pair
    // (2, 0); FP's integer 2137 and LP's 1902 − 2137.
    let mut expected = vec![1, 1, 0, 1, 0, 2, 9 * (2 + 3 + 18), body[7]];
    for v in [2, 0, 10] {
        varint::write_i64(&mut expected, v);
    }
    expected.extend_from_slice(&[2, 0]);
    varint::write_i64(&mut expected, 2137);
    varint::write_i64(&mut expected, 1902 - 2137);
    assert_eq!(body, expected);
    let pair_at = 11;
    // A digit below 9 is 0 in every entry: any other is `Corrupt`.
    let low_digits = (1..9).map(|digit| 9 * (2 + 3 + 18) + digit);
    let mut bent: Vec<(String, Vec<u8>)> = (243..=u8::MAX)
        .chain(low_digits)
        .map(|tags| {
            let mut b = body.clone();
            b[6] = tags;
            (format!("tags {tags}"), b)
        })
        .collect();
    for (what, e, f) in [
        ("e past 18", 19, 0),
        ("e far past 18", 0xff, 0),
        ("f past e", 2, 3),
    ] {
        let mut b = body.clone();
        b[pair_at..pair_at + 2].copy_from_slice(&[e, f]);
        bent.push((what.into(), b));
    }
    for (what, first, last) in [
        ("FP at 2^53", 1i64 << 53, 0),
        ("LP past 2^53", (1 << 53) - 1, 1),
    ] {
        let mut b = body[..pair_at + 2].to_vec();
        varint::write_i64(&mut b, first);
        varint::write_i64(&mut b, last);
        bent.push((what.into(), b));
    }
    for (what, b) in bent {
        let got = FileFooter::decode_body(&b);
        assert!(
            matches!(got, Err(TsFileError::Corrupt(_))),
            "{what}: {got:?}"
        );
        std::fs::write(&path, sealed_file(&data, &b)).unwrap();
        let got = TsFileReader::open(&path);
        assert!(
            matches!(got, Err(TsFileError::Corrupt(_))),
            "{what}: {:?}",
            got.map(|_| ())
        );
    }
}

/// A CRC-valid footer whose entry predicts a span that wraps LP.t below
/// FP.t, or whose run directory does not tile its chunk index, is
/// `Corrupt` from the decoder and at open, never a panic. The second
/// chunk's span is predicted as its two steps at the first chunk's
/// cadence of 2^62 − 2: its residual, written to undo that, is cut to
/// zero, so the span is the prediction and LP.t passes `i64::MAX`.
#[test]
fn wrapping_predicted_spans_and_untiled_directories_are_corrupt() {
    use tsfile::varint;
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("predicted.tsfile");
    let wide = (1i64 << 62) - 2;
    let mut w = TsFileWriter::create(&path).unwrap();
    w.begin_series(0, 0).unwrap();
    w.write_chunk(&[Point::new(0, 1.0), Point::new(wide, 2.0)], 1)
        .unwrap();
    let late: Vec<Point> = (0..3).map(|i| Point::new((1 << 62) + i, 3.0)).collect();
    w.write_chunk(&late, 2).unwrap();
    w.finish().unwrap();
    let (data, body) = split_file(&path);
    // Two chunks; one run, of series 0, both chunks, superseding none.
    assert_eq!(body[..5], [2, 1, 0, 2, 0]);
    let mut residual = Vec::new();
    varint::write_i64(&mut residual, 2i64.wrapping_sub(2 * wide));
    let at = body
        .windows(residual.len())
        .position(|w| w == residual)
        .unwrap();
    let mut wrapped = body[..at].to_vec();
    wrapped.push(0);
    wrapped.extend_from_slice(&body[at + residual.len()..]);
    let mut bent = vec![("a span that wraps LP.t below FP.t", "last.t", wrapped)];
    for (what, chunks) in [("a run a chunk short", 1), ("a run a chunk over", 3)] {
        let mut b = body.clone();
        b[3] = chunks;
        bent.push((what, "series-run directory", b));
    }
    for (what, names, b) in bent {
        let got = FileFooter::decode_body(&b);
        assert!(
            matches!(&got, Err(TsFileError::Corrupt(msg)) if msg.contains(names)),
            "{what}: {got:?}"
        );
        std::fs::write(&path, sealed_file(&data, &b)).unwrap();
        let got = TsFileReader::open(&path);
        assert!(
            matches!(&got, Err(TsFileError::Corrupt(msg)) if msg.contains(names)),
            "{what}: {:?}",
            got.map(|_| ())
        );
    }
}

/// What an open that succeeds promises about a footer: every chunk's
/// statistics hold their invariants and its count is within the page
/// ceiling, chunks tile the file from the head magic to the footer at
/// `footer_at`, and runs tile the chunks in ascending series order.
fn assert_footer_holds(r: &TsFileReader, footer_at: u64, what: &str) {
    let mut end = tsfile::format::MAGIC.len() as u64;
    for c in r.chunk_metas() {
        assert_eq!(c.offset, end, "{what}: chunk offset");
        c.stats.validate().unwrap();
        assert!(
            c.stats.count <= tsfile::page::MAX_PAGE_POINTS as u64,
            "{what}"
        );
        end += c.byte_len;
    }
    assert_eq!(end, footer_at, "{what}: chunks end at the footer");
    let mut next = 0;
    for (i, run) in r.series_runs().iter().enumerate() {
        assert_eq!(run.chunks.start, next, "{what}");
        assert!(
            i == 0 || r.series_runs()[i - 1].series < run.series,
            "{what}"
        );
        next = run.chunks.end;
    }
    assert_eq!(next, r.chunk_metas().len(), "{what}");
}

/// The footer body: every strict prefix is a typed error from its
/// decoder, and every single-bit flip, under a re-sealed CRC, is a typed
/// error from `open` or a file whose footer still holds every invariant
/// — never a panic.
#[test]
fn footer_prefixes_and_resealed_bit_flips_are_typed_errors() {
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("footer.tsfile");
    let (data, body) = footer_sample(&path);
    assert!(FileFooter::decode_body(&body).is_ok());
    for cut in 0..body.len() {
        let got = FileFooter::decode_body(&body[..cut]);
        assert!(typed(&got), "prefix of {cut} bytes: {:?}", got.map(|_| ()));
    }
    let mut opened = 0;
    for at in 0..body.len() * 8 {
        let mut flipped = body.clone();
        flipped[at / 8] ^= 1 << (at % 8);
        std::fs::write(&path, sealed_file(&data, &flipped)).unwrap();
        match TsFileReader::open(&path) {
            Ok(r) => {
                assert_footer_holds(&r, data.len() as u64, &format!("bit {at}"));
                opened += 1;
            }
            got => assert!(typed(&got), "bit {at}: {:?}", got.map(|_| ())),
        }
    }
    // Most flips land in a value's bytes, which any bits fill.
    assert!(
        opened > 0 && opened < body.len() * 8,
        "{opened} flips opened"
    );
}

/// A CRC-valid footer whose chunk lengths do not add up to the bytes
/// between the head magic and the footer is `Corrupt` at open: the
/// footer stores no chunk offset, so the tiling is what it is checked
/// against.
#[test]
fn footer_whose_pages_do_not_tile_the_data_region_is_corrupt() {
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("tiling.tsfile");
    let (data, body) = footer_sample(&path);
    let footer = FileFooter::decode_body(&body).unwrap();
    for (chunk, delta) in [(1, 1i64), (3, -1), (5, 5)] {
        let mut bent = footer.clone();
        let mut meta = tsfile::ChunkMeta::clone(&bent.chunks[chunk]);
        meta.byte_len = meta.byte_len.checked_add_signed(delta).unwrap();
        bent.chunks[chunk] = std::sync::Arc::new(meta);
        std::fs::write(&path, sealed_file(&data, &bent.encode_body())).unwrap();
        let got = TsFileReader::open(&path);
        assert!(
            matches!(&got, Err(TsFileError::Corrupt(msg)) if msg.contains("chunk bodies end")),
            "chunk {chunk} {delta:+}: {:?}",
            got.map(|_| ())
        );
    }
}

/// A CRC-valid footer whose last chunk claims a body running past the
/// data region — past the file, or past `u64::MAX` — is `Corrupt` at
/// open, before any body is read.
#[test]
fn chunk_length_overrunning_the_data_region_is_corrupt() {
    let dir = TestDir::new("tsfile-fuzz");
    let path = dir.join("overrun.tsfile");
    let (data, body) = footer_sample(&path);
    let footer = FileFooter::decode_body(&body).unwrap();
    let last = footer.chunks.len() - 1;
    for byte_len in [data.len() as u64, u64::MAX / 2, u64::MAX] {
        let mut bent = footer.clone();
        let mut meta = tsfile::ChunkMeta::clone(&bent.chunks[last]);
        meta.byte_len = byte_len;
        bent.chunks[last] = std::sync::Arc::new(meta);
        std::fs::write(&path, sealed_file(&data, &bent.encode_body())).unwrap();
        let got = TsFileReader::open(&path);
        assert!(
            matches!(&got, Err(TsFileError::Corrupt(_))),
            "byte_len {byte_len}: {:?}",
            got.map(|_| ())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip arbitrary bytes anywhere in a valid TsFile — one of
    /// constant-delta chunks, one whose timestamps take the line
    /// frame, or one whose first chunk is bodiless: open/read must either succeed with the original data
    /// (flip hit dead padding — impossible here, so in practice: error)
    /// or fail cleanly.
    #[test]
    fn bit_flips_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..8),
        line in any::<bool>(),
        bodiless in any::<bool>(),
    ) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("flip.tsfile");
        let original = match (bodiless, line) {
            (true, _) => bodiless_file(&path),
            (_, true) => cadence_file(&path),
            _ => sample_file(&path),
        };

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
                    let _ = reader.read_timestamps(meta);
                }
            }
        }
    }

    /// Truncate a valid TsFile (any of the three above) at any point:
    /// must fail cleanly or, if truncation only removed nothing (full
    /// length), succeed.
    #[test]
    fn truncation_never_panics(
        cut in any::<prop::sample::Index>(),
        line in any::<bool>(),
        bodiless in any::<bool>(),
    ) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("trunc.tsfile");
        let original = match (bodiless, line) {
            (true, _) => bodiless_file(&path),
            (_, true) => cadence_file(&path),
            _ => sample_file(&path),
        };
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
    }

    /// Arbitrary bytes as a mods file: replay must not panic and only
    /// yields CRC-valid prefixes.
    #[test]
    fn random_mods_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("mods.mods");
        std::fs::write(&path, &bytes).unwrap();
        let mods = ModsFile::open(&path).unwrap();
        // Whatever parsed, appending still works afterwards.
        let mut mods = mods;
        mods.append(tsfile::ModEntry::new(tsfile::types::Version(1), 0, 1)).unwrap();
    }

    /// Arbitrary bytes as a whole file: open() must never panic.
    #[test]
    fn random_file_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("rand.tsfile");
        std::fs::write(&path, &bytes).unwrap();
        let _ = TsFileReader::open(&path);
    }

    /// The "no silently wrong data" half of the contract: when a read
    /// *succeeds* on a corrupted file (any of the three above), the
    /// returned points must be byte-exact against the original chunk for
    /// that version — the CRCs either reject the flip or it never
    /// touched that data.
    #[test]
    fn surviving_chunk_reads_are_exact(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..8),
        line in any::<bool>(),
        bodiless in any::<bool>(),
    ) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("exact.tsfile");
        let (original, pts) = match (bodiless, line) {
            (true, _) => (bodiless_file(&path), bodiless_points()),
            (_, true) => (cadence_file(&path), cadence_points(500)),
            _ => (sample_file(&path), (0..500).map(|i| Point::new(i * 100, (i % 17) as f64)).collect()),
        };

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
    }

    /// Flips aimed at the footer / tail metadata region, where a decode
    /// bug is most likely to panic (lengths, counts, offsets).
    #[test]
    fn footer_flips_never_panic(
        flips in prop::collection::vec((0usize..160, 1u8..=255), 1..6)
    ) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("foot.tsfile");
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
                let _ = reader.read_timestamps(meta);
            }
        }
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
        for transform in [Transform::Timestamp, Transform::Key, Transform::Decimal] {
            prop_assert!(packed::decode(&bytes, n, transform, (0, 0)).is_err());
        }
    }

    /// Arbitrary bytes as a decimal block of any plausible count: a
    /// typed error or exactly `n` values, never a panic.
    #[test]
    fn random_decimal_blocks_never_panic(
        n in 0usize..2_000,
        ends in (-2i64..3, -2i64..3),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let ends = (ends.0 as f64, ends.1 as f64);
        let values = decimal_decode(&bytes, n, ends);
        prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));
        // The copy gate passes exactly what decodes, in any frame.
        prop_assert_eq!(values.is_ok(), decimal_verify(&bytes, n, ends).is_ok());
    }

    /// Arbitrary bytes as packed timestamp and key blocks of any
    /// plausible count, read from `(t0, v0)` to an LP that is either end
    /// or any point: a typed error or exactly `n` points, never a panic.
    /// Split into two blocks, the same bytes are a page's packed
    /// columns, read against statistics of that count and those ends:
    /// the page decodes exactly when both blocks do, and the copy gate
    /// passes exactly what decodes.
    #[test]
    fn random_packed_columns_never_panic(
        n in 0usize..2_000,
        t0 in any::<i64>(),
        v0_bits in any::<u64>(),
        same_ends in any::<bool>(),
        t1 in any::<i64>(),
        v1_bits in any::<u64>(),
        split in any::<prop::sample::Index>(),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        use tsfile::encoding::EncodingKind;
        let (t1, v1_bits) = if same_ends { (t0, v0_bits) } else { (t1, v1_bits) };
        let ts = ts_decode(&bytes, n, (t0, t1));
        prop_assert!(ts.as_ref().map_or_else(|_| typed(&ts), |t| t.len() == n));
        let values = packed::decode(&bytes, n, Transform::Key, (v0_bits, v1_bits));
        prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));

        let (ts_block, val_block) = bytes.split_at(split.index(bytes.len() + 1));
        let ts = ts_decode(ts_block, n, (t0, t1));
        let vs = packed::decode(val_block, n, Transform::Key, (v0_bits, v1_bits));
        let head = Point::new(t0, f64::from_bits(v0_bits));
        let last = Point::new(t1, f64::from_bits(v1_bits));
        let page = sealed_page(0b1100, ts_block, val_block);
        let meta = tsfile::PageMeta {
            offset: 0,
            byte_len: page.len() as u64,
            stats: tsfile::ChunkStatistics { first: head, last, bottom: head, top: head, count: n as u64 },
        };
        let decoded = tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
        prop_assert!(decoded.as_ref().map_or_else(|_| typed(&decoded), |p| p.len() == n));
        prop_assert_eq!(decoded.is_ok(), ts.is_ok() && vs.is_ok());
        prop_assert_eq!(decoded.is_ok(), tsfile::page::verify_page_body(&page, &meta).is_ok());
    }

    /// Flip bytes inside the decimal value column of a real page and
    /// fix up its CRC, so the damage reaches the block decoder: a typed
    /// error or `n` points, never a panic, and the copy gate passes
    /// exactly what decodes. The page is a short ramp, which the block
    /// stores in its delta frame.
    #[test]
    fn crc_valid_flips_in_a_decimal_block_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let values = (0..300).map(|i| (i % 41) as f64 / 4.0);
        flip_decimal_block(values, Framing::Delta, &flips)?;
    }

    /// The same flips in a block in the frame of reference: quarter
    /// units that jump about (hashed: residues stepping by a constant
    /// take two deltas, which the delta frame packs), whose deltas are
    /// no narrower.
    #[test]
    fn crc_valid_flips_in_a_decimal_reference_block_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let hash = |i: u64| {
            let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33
        };
        let values = (0..300).map(|i| (hash(i) % 400) as f64 / 4.0);
        flip_decimal_block(values, Framing::Reference, &flips)?;
    }

    /// Arbitrary bytes behind a header with a delta frame's width code
    /// — a delta frame of any plausible count, read from 0 to a small
    /// integer: a typed error or exactly `n` values, never a panic, and
    /// the copy gate's check agrees with the decoder.
    #[test]
    fn random_delta_frames_never_panic(
        n in 0usize..2_000,
        e in 0u8..=18,
        f in any::<prop::sample::Index>(),
        w in 0u8..65,
        last in -2i64..3,
        body in prop::collection::vec(any::<u8>(), 0..96),
        raw in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        let header = [e, f.index(usize::from(e) + 1) as u8, 65 + w];
        let ends = (0.0, last as f64);
        for bytes in [[&header[..], &body].concat(), raw] {
            let values = decimal_decode(&bytes, n, ends);
            prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));
            prop_assert_eq!(values.is_ok(), decimal_verify(&bytes, n, ends).is_ok());
        }
    }

    /// A delta frame of well-formed deltas decodes exactly when every
    /// running sum stays below 2^53 in magnitude, to those integers;
    /// the copy gate agrees.
    #[test]
    fn delta_frames_hold_exactly_the_integers_below_2_53(
        start in any::<i64>(),
        steps in prop::collection::vec((0u8..4, any::<i64>()), 0..40),
    ) {
        const LIMIT: i64 = 1 << 53;
        // Integers near the limit, small steps, and wild ones.
        let mut ints = vec![start % (LIMIT + 2)];
        for &(kind, x) in &steps {
            let last = *ints.last().unwrap();
            ints.push(match kind {
                0 => last.wrapping_add(x % 3),
                1 => (LIMIT - 1 - x.rem_euclid(3)) * x.signum(),
                2 => last.wrapping_add(x),
                _ => x % (LIMIT + 2),
            });
        }
        let mut block = vec![0, 0];
        packed::encode(Column::Timestamps(&ints), Some(Framing::Delta), &mut block).unwrap();
        let n = ints.len();
        let held = ints.iter().all(|d| d.unsigned_abs() < 1 << 53);
        // The ends as a page's statistics hold them: an integer past
        // 2^53 at either end has no value of its own.
        let ends = (ints[0] as f64, ints[n - 1] as f64);
        let values = decimal_decode(&block, n, ends);
        prop_assert_eq!(values.is_ok(), held);
        prop_assert_eq!(decimal_verify(&block, n, ends).is_ok(), held);
        if let Ok(values) = values {
            let want: Vec<f64> = ints.iter().map(|&d| d as f64).collect();
            prop_assert_eq!(values, want);
        } else {
            prop_assert!(typed(&values));
        }
    }

    /// A tiny buffer cannot satisfy the largest count: every column
    /// decoder errors rather than fabricate points or reserve for them.
    #[test]
    fn huge_claimed_counts_cannot_over_reserve(
        bytes in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        for transform in [Transform::Timestamp, Transform::Key, Transform::Decimal] {
            prop_assert!(packed::decode(&bytes, usize::MAX, transform, (0, 0)).is_err());
        }
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
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("modflip.mods");

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
    }

    /// Cut a valid mods log anywhere (a crash mid-append), append once
    /// and reopen: the entries that survived the cut, then the new one
    /// — an append behind a torn entry must not be lost with it.
    #[test]
    fn mods_append_after_any_cut_survives_reopen(
        cut in any::<prop::sample::Index>(),
        n_entries in 1usize..12,
    ) {
        let dir = TestDir::new("tsfile-fuzz");
        let path = dir.join("modcut.mods");
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
    }
}

/// A register drifting 0.37 hundredths a point under up to 0.12 of
/// noise: the decimal block frames it around its trend line.
fn drifting_hundredths(n: i64) -> impl Iterator<Item = f64> {
    (0..n).map(|i| {
        let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let noise = ((z ^ (z >> 31)) % 13) as i64;
        (22_500 + i * 37 / 100 + noise) as f64 / 100.0
    })
}

/// A line frame under (0, 0), written by hand: its width code, `slope`,
/// then the block of residuals `base + offset` with each offset in
/// `w ≤ 8` bits, MSB first, and the exception list `tail` (`[0]`: none).
fn line_frame(slope: i64, w: u32, base: i64, offsets: &[u64], tail: &[u8]) -> Vec<u8> {
    use tsfile::varint;
    let mut b = vec![0, 0, 130 + w as u8];
    varint::write_i64(&mut b, slope);
    varint::write_i64(&mut b, base);
    let mut bits: Vec<bool> = Vec::new();
    for &o in offsets {
        bits.extend((0..w).rev().map(|k| o >> k & 1 == 1));
    }
    for byte in bits.chunks(8) {
        b.push(
            byte.iter()
                .enumerate()
                .fold(0u8, |acc, (k, &on)| acc | (u8::from(on) << (7 - k))),
        );
    }
    b.extend_from_slice(tail);
    b
}

/// Decode and the copy gate's check agree on `block` read as `n`
/// values, standalone and inside a page: both a typed error or both
/// `n` values. Returns whether it decoded.
fn line_block_agrees(block: &[u8], n: usize, what: &str) -> bool {
    use tsfile::encoding::EncodingKind;
    // As [`meta_of`]'s statistics give them: a line frame reads neither.
    let ends = (0.0, 0.0);
    let values = decimal_decode(block, n, ends);
    match &values {
        Ok(v) => assert_eq!(v.len(), n, "{what}"),
        Err(_) => assert!(typed(&values), "{what}: {values:?}"),
    }
    let verified = decimal_verify(block, n, ends);
    assert_eq!(
        verified.is_ok(),
        values.is_ok(),
        "{what}: verify {verified:?}"
    );
    assert!(verified.is_ok() || typed(&verified), "{what}");
    if n == 0 {
        return values.is_ok(); // no statistics describe an empty page
    }
    let page = decimal_page(block);
    let meta = meta_of(n, &page);
    let decoded =
        tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
    assert_eq!(decoded.is_ok(), values.is_ok(), "{what}: page {decoded:?}");
    let gate = tsfile::page::verify_page_body(&page, &meta);
    assert_eq!(
        gate.is_ok(),
        values.is_ok(),
        "{what}: the copy gate {gate:?}"
    );
    values.is_ok()
}

/// A real line frame with exceptions in it (a NaN payload and −0.0):
/// every strict prefix is a typed error from both the decoder and the
/// copy gate's check, and every single-bit flip is either a typed error
/// from both or a block both accept — never a panic.
#[test]
fn line_frame_prefixes_and_bit_flips_are_typed_errors() {
    let mut vs: Vec<f64> = drifting_hundredths(200).collect();
    vs[17] = f64::from_bits(0x7ff8_0000_0000_0001);
    vs[150] = -0.0;
    let mut block = Vec::new();
    assert_eq!(
        packed::encode(Column::Decimal(&vs), None, &mut block),
        Some(Framing::Line)
    );
    let back = decimal_decode(&block, vs.len(), (vs[0], vs[199])).unwrap();
    assert!(back
        .iter()
        .zip(&vs)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    for cut in 0..block.len() {
        assert!(
            !line_block_agrees(&block[..cut], vs.len(), &format!("prefix {cut}")),
            "prefix {cut} decoded"
        );
    }
    for bit in 0..block.len() * 8 {
        let mut flipped = block.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        line_block_agrees(&flipped, vs.len(), &format!("bit {bit}"));
    }
}

/// Line frames written by hand: a slope whose `slope·(n − 1)`
/// overflows, or that takes a slot of the block — an exception's too —
/// to `|d| ≥ 2^53`, is `Corrupt`; so is a width code of 195 or more.
#[test]
fn malformed_line_frames_are_corrupt() {
    const LIMIT: i64 = 1 << 53;
    // Residuals 5, 6, 5 rising one a point: 5, 7, 7.
    let good = line_frame(1 << 16, 1, 5, &[0, 1, 0], &[0]);
    assert_eq!(
        decimal_decode(&good, 3, (5.0, 7.0)).unwrap(),
        [5.0, 7.0, 7.0]
    );
    assert!(line_block_agrees(&good, 3, "good"));
    // The largest slope whose `slope·(n − 1)` does not overflow over
    // 3 values: its trend reaches 2^47, and the block decodes.
    let steep = line_frame(i64::MAX / 2, 0, 0, &[], &[0]);
    assert!(line_block_agrees(&steep, 3, "steep"));
    // Every slot is held to 2^53, an exception's too, though the raw
    // value replaces it.
    let nan = 0x7ff8_0000_0000_0001u64.to_le_bytes();
    let slot = |base: i64| line_frame(1 << 16, 0, base, &[], &[&[1, 2][..], &nan].concat());
    assert!(line_block_agrees(&slot(LIMIT - 3), 3, "slot below 2^53"));
    let cases: Vec<(&str, usize, Vec<u8>)> = vec![
        (
            "slope times n − 1 overflows",
            3,
            line_frame(i64::MAX / 2 + 1, 0, 0, &[], &[0]),
        ),
        ("slope i64::MIN", 3, line_frame(i64::MIN, 0, 0, &[], &[0])),
        (
            "trend takes the last integer to 2^53",
            3,
            line_frame(1 << 16, 0, LIMIT - 2, &[], &[0]),
        ),
        (
            "trend takes an integer to −2^53",
            2,
            line_frame(-(1 << 16), 0, -LIMIT + 1, &[], &[0]),
        ),
        ("a residual at 2^53", 1, line_frame(0, 0, LIMIT, &[], &[0])),
        (
            "a residual near i64::MAX",
            2,
            line_frame(1 << 16, 0, i64::MAX, &[], &[0]),
        ),
        ("an exception's slot at 2^53", 3, slot(LIMIT - 2)),
        ("width code 195", 3, [&[0, 0, 195][..], &good[3..]].concat()),
        (
            "width code 255 and an exponent",
            3,
            [&[2, 1, 255][..], &good[3..]].concat(),
        ),
        (
            "line frame exponent 19",
            3,
            [&[19, 0][..], &good[2..]].concat(),
        ),
        ("line frame cut after its slope", 3, good[..6].to_vec()),
        (
            "line frame with a byte after it",
            3,
            [&good[..], &[0]].concat(),
        ),
    ];
    for (what, n, block) in cases {
        assert!(!line_block_agrees(&block, n, what), "{what}: decoded");
        let got = decimal_decode(&block, n, (0.0, 0.0));
        if !what.starts_with("line frame") {
            assert!(
                matches!(got, Err(TsFileError::Corrupt(_))),
                "{what}: {got:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes behind a header with a line frame's width code —
    /// a line frame of any plausible count: a typed error or exactly `n`
    /// values, never a panic, and the copy gate's check agrees.
    #[test]
    fn random_line_frames_never_panic(
        n in 0usize..2_000,
        e in 0u8..=18,
        f in any::<prop::sample::Index>(),
        w in 0u8..65,
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let header = [e, f.index(usize::from(e) + 1) as u8, 130 + w];
        line_block_agrees(&[&header[..], &body].concat(), n, "random");
    }

    /// Flips inside a real page's line-frame block, CRC re-sealed: a
    /// typed error or every point, never a panic, and the copy gate
    /// passes exactly what decodes.
    #[test]
    fn crc_valid_flips_in_a_decimal_line_block_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        flip_decimal_block(drifting_hundredths(300), Framing::Line, &flips)?;
    }

    /// A line frame of 2-bit residuals decodes exactly when its slope
    /// times `n − 1` fits an `i64` and every slot — `base` to `base + 3`
    /// — plus the trend `⌊slope·i / 2^16⌋` at either end stays below
    /// 2^53 in magnitude, and then to the integers `r + ⌊slope·i /
    /// 2^16⌋`; the copy gate agrees.
    #[test]
    fn line_frames_decode_exactly_when_every_slot_stays_below_2_53(
        slope in prop_oneof![any::<i64>(), -(1i64 << 40)..(1 << 40), -(1i64 << 20)..(1 << 20)],
        base in prop_oneof![
            any::<i64>(),
            ((1i64 << 53) - 5_000)..(1i64 << 53),
            (-(1i64 << 53))..(-(1i64 << 53) + 5_000),
            -1_000i64..1_000,
        ],
        offsets in prop::collection::vec(0u64..4, 1..40),
    ) {
        let n = offsets.len();
        let block = line_frame(slope, 2, base, &offsets, &[0]);
        let fits = slope.checked_mul(n as i64 - 1).is_some();
        let trend = |i: usize| (i128::from(slope) * i as i128) >> 16;
        let end = trend(n - 1);
        let below = |d: i128| d.abs() < 1 << 53;
        let held = fits && below(i128::from(base) + end.min(0)) && below(i128::from(base) + 3 + end.max(0));
        prop_assert_eq!(line_block_agrees(&block, n, "hand-made"), held);
        if held {
            let want: Vec<f64> = offsets
                .iter()
                .enumerate()
                .map(|(i, &o)| (i128::from(base) + i128::from(o) + trend(i)) as f64)
                .collect();
            prop_assert_eq!(decimal_decode(&block, n, (0.0, 0.0)).unwrap(), want);
        } else {
            let got = decimal_decode(&block, n, (0.0, 0.0));
            prop_assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{:?}", got);
        }
    }
}

/// 500 points on a 100 ms cadence: the first 250 a ramp of quarters,
/// the rest [`sample_file`]'s values.
fn bodiless_points() -> Vec<Point> {
    (0..500)
        .map(|i| match i < 250 {
            true => Point::new(i * 100, (2 * i + 1) as f64 / 4.0),
            false => Point::new(i * 100, (i % 17) as f64),
        })
        .collect()
}

/// [`sample_file`]'s two chunks over [`bodiless_points`]: the first is
/// bodiless (its footer entry holds it whole), the second has a body.
fn bodiless_file(path: &std::path::Path) -> Vec<u8> {
    let mut w = TsFileWriter::create(path).unwrap();
    w.begin_series(0, 0).unwrap();
    let pts = bodiless_points();
    w.write_chunk(&pts[..250], 1).unwrap();
    w.write_chunk(&pts[250..], 2).unwrap();
    w.finish().unwrap();
    let reader = TsFileReader::open(path).unwrap();
    let lens: Vec<u64> = reader.chunk_metas().iter().map(|m| m.byte_len).collect();
    assert!(lens[0] == 0 && lens[1] > 0, "{lens:?}");
    std::fs::read(path).unwrap()
}

/// A page that leaves its values to its footer entry — bodiless, or
/// beside packed timestamps (modes bits 2 and 4) — is `Corrupt` to the
/// page decoder, the timestamp decoder and the copy gate alike when the
/// entry implies no such values: statistics that are not a line in
/// both columns, an interior BP or TP, or end points no decimal scale
/// holds.
#[test]
fn statistics_that_imply_no_values_are_corrupt_to_all_three_readers() {
    let pi = std::f64::consts::PI;
    let cases: [(&str, &[(i64, f64)]); 6] = [
        ("timestamps not a line", &[(0, 5.0), (1, 5.0), (3, 5.0)]),
        ("values not a line", &[(0, 0.1), (1, 0.15), (2, 0.2)]),
        ("an interior TP", &[(0, 0.25), (1, 9.0), (2, 0.75)]),
        ("an interior BP", &[(0, 0.25), (1, -9.0), (2, 0.75)]),
        ("no scale holds an end", &[(0, 0.1), (1, pi)]),
        ("NaN to a number", &[(0, f64::NAN), (1, 1.0)]),
    ];
    for (what, points) in cases {
        let points: Vec<Point> = points.iter().map(|&(t, v)| Point::new(t, v)).collect();
        let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
        // Unit deltas packed (width 0, base 1, no exception) land on LP
        // wherever the points are a unit step apart.
        let pages = match what {
            "timestamps not a line" => vec![Vec::new()],
            _ => vec![Vec::new(), sealed_page(0x14, &[65, 2, 0], &[])],
        };
        for page in pages {
            for got in three_readers(&page, stats) {
                assert!(
                    matches!(got, Err(TsFileError::Corrupt(_))),
                    "{what}, a {}-byte page: {got:?}",
                    page.len()
                );
            }
        }
    }
}

/// [`sample_file`]'s two chunks on a jittered cadence: their timestamps
/// take the line frame.
fn cadence_file(path: &std::path::Path) -> Vec<u8> {
    let mut w = TsFileWriter::create(path).unwrap();
    w.begin_series(0, 0).unwrap();
    let pts = cadence_points(500);
    w.write_chunk(&pts[..250], 1).unwrap();
    w.write_chunk(&pts[250..], 2).unwrap();
    w.finish().unwrap();
    let reader = TsFileReader::open(path).unwrap();
    for meta in reader.chunk_metas() {
        let body = reader.read_chunk_raw(meta).unwrap();
        let framing = tsfile::page::framings(&body).unwrap()[0];
        assert_eq!(framing, Some(Framing::Line));
    }
    let reader = TsFileReader::open(path).unwrap();
    for meta in reader.chunk_metas() {
        let body = reader.read_chunk_raw(meta).unwrap();
        let framing = tsfile::page::framings(&body).unwrap()[0];
        assert_eq!(framing, Some(Framing::Line));
    }
    std::fs::read(path).unwrap()
}

/// `n` points on a 10 ms cadence jittered ±2 ms around its grid, values
/// a full-precision walk: a page whose timestamps take the line frame
/// and whose values take packed key deltas.
fn cadence_points(n: i64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let jitter = ((z ^ (z >> 31)) % 5) as i64 - 2;
            Point::new(1_000 + i * 10 + jitter, 225.0 + (i as f64 * 0.05).sin())
        })
        .collect()
}

/// `points` as a page, with its modes byte, timestamp column and value
/// column.
fn page_columns(points: &[Point]) -> (Vec<u8>, u8, Vec<u8>, Vec<u8>) {
    use tsfile::encoding::EncodingKind;
    let mut body = Vec::new();
    tsfile::page::encode_page(
        points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    let mut pos = 1;
    let ts_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    let ts = body[pos..pos + ts_len].to_vec();
    let values = body[pos + ts_len..body.len() - 4].to_vec();
    (body.clone(), body[0], ts, values)
}

/// The page decoder, the timestamp decoder and the copy gate on `page`
/// read against `stats`: each result, `Ok(())` for a page that decodes.
fn three_readers(page: &[u8], stats: tsfile::ChunkStatistics) -> [tsfile::Result<()>; 3] {
    use tsfile::encoding::EncodingKind;
    use tsfile::page::{decode_page, decode_page_timestamps, verify_page_body};
    let meta = tsfile::PageMeta {
        offset: 0,
        byte_len: page.len() as u64,
        stats,
    };
    let (ts, val) = (EncodingKind::Ts2Diff, EncodingKind::Gorilla);
    [
        decode_page(page, ts, val, &meta).map(drop),
        decode_page_timestamps(page, ts, &meta, None).map(drop),
        verify_page_body(page, &meta),
    ]
}

/// A timestamp column in the line frame: every strict prefix, under a
/// re-sealed CRC, is a typed error from the page decoder, the timestamp
/// decoder and the copy gate, and every single-bit flip in it is a
/// typed error from all three or a page all three accept.
#[test]
fn line_frame_prefixes_and_bit_flips_are_typed_errors_from_all_three_readers() {
    let points = cadence_points(300);
    let (body, modes, ts, values) = page_columns(&points);
    assert_eq!(
        tsfile::page::framings(&body).unwrap()[0],
        Some(Framing::Line)
    );
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
    assert!(three_readers(&body, stats).iter().all(|r| r.is_ok()));
    let check = |ts: &[u8], what: &str, must_fail: bool| {
        let got = three_readers(&sealed_page(modes, ts, &values), stats);
        if must_fail || got.iter().any(|r| r.is_err()) {
            for r in &got {
                assert!(typed(r), "{what}: {got:?}");
            }
        }
    };
    for cut in 0..ts.len() {
        check(&ts[..cut], &format!("cut at {cut}"), true);
    }
    for at in 0..ts.len() * 8 {
        let mut flipped = ts.clone();
        flipped[at / 8] ^= 1 << (at % 8);
        // A flip in the width code names another frame or width.
        check(&flipped, &format!("bit {at}"), false);
    }
}

/// Line-frame timestamp columns that are `Corrupt` from the page
/// decoder, the timestamp decoder and the copy gate alike: a slope whose
/// trend overflows `i64` by `n − 1`, a last residual that misses LP, and
/// a block of another count than the footer's. A width code of 195 or
/// more on any other block — a packed value column, or a decimal block
/// in each of its frames — is `Corrupt` from the page decoder and the
/// copy gate; the timestamp decoder does not read the value column and
/// decodes those pages.
#[test]
fn malformed_line_frame_columns_are_corrupt() {
    use tsfile::encoding::EncodingKind;
    use tsfile::varint;
    let corrupt = |r: &tsfile::Result<()>| matches!(r, Err(TsFileError::Corrupt(_)));
    // Three points, width 0: t = 0 + ⌊slope·i / 2^16⌋ + 0.
    let by_hand = |slope: i64| {
        let mut col = vec![130];
        varint::write_i64(&mut col, slope);
        col.extend_from_slice(&[0, 0]); // base 0, no exception
        sealed_page(0b1_0100, &col, &[]) // values 1.0, implied
    };
    let stats_to = |last: i64, count: u64| {
        let (first, last) = (Point::new(0, 1.0), Point::new(last, 1.0));
        tsfile::ChunkStatistics {
            first,
            last,
            bottom: first,
            top: first,
            count,
        }
    };
    // The largest slope whose trend at 2 fits: it decodes.
    let steep = i64::MAX / 2;
    let good = three_readers(&by_hand(steep), stats_to((steep * 2) >> 16, 3));
    assert!(good.iter().all(|r| r.is_ok()), "{good:?}");
    for r in three_readers(&by_hand(steep + 1), stats_to(0, 3)) {
        assert!(corrupt(&r), "overflowing slope: {r:?}");
    }

    let points = cadence_points(300);
    let (body, modes, ts, values) = page_columns(&points);
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
    let mut off_lp = stats;
    off_lp.last.t += 1;
    for r in three_readers(&body, off_lp) {
        assert!(corrupt(&r), "LP one unit off: {r:?}");
    }
    for count in [stats.count - 1, stats.count + 1] {
        for r in three_readers(&body, tsfile::ChunkStatistics { count, ..stats }) {
            assert!(typed(&r), "{count} points: {r:?}");
        }
    }

    // A width code past the three frames on the packed value column.
    assert_eq!(values[0] / 65, 1, "the keys' delta frame");
    let mut flagged = values.clone();
    flagged[0] += 130;
    let [page, stamps, gate] = three_readers(&sealed_page(modes, &ts, &flagged), stats);
    assert!(
        corrupt(&page) && corrupt(&gate) && stamps.is_ok(),
        "{page:?} {gate:?}"
    );

    // The same code on a decimal block in each frame: a ramp (the
    // delta frame), a drifting register (the line frame) and hashed
    // noise (the frame of reference), its code after `e` and `f`.
    let hash = |i: u64| {
        let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33
    };
    let blocks: [(Vec<f64>, Framing); 3] = [
        (
            (0..300).map(|i| f64::from(i % 41) / 4.0).collect(),
            Framing::Delta,
        ),
        (drifting_hundredths(300).collect(), Framing::Line),
        (
            (0..300).map(|i| (hash(i) % 400) as f64 / 100.0).collect(),
            Framing::Reference,
        ),
    ];
    for (vs, framing) in blocks {
        let mut block = Vec::new();
        assert_eq!(
            packed::encode(Column::Decimal(&vs), None, &mut block),
            Some(framing)
        );
        block[2] = 195 + block[2] % 65;
        let n = vs.len();
        let page = decimal_page(&block);
        let meta = meta_of(n, &page);
        let ends = (vs[0], vs[n - 1]);
        let got = [
            decimal_decode(&block, n, ends).map(drop),
            decimal_verify(&block, n, ends),
            tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta)
                .map(drop),
            tsfile::page::verify_page_body(&page, &meta),
        ];
        for r in got {
            assert!(corrupt(&r), "{framing:?}: {r:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A line-frame timestamp column written by hand — a slope, 2-bit
    /// residuals from `base` — is, read against statistics from `t0` to
    /// its last point, `t0 + ⌊slope·i / 2^16⌋ + residual` at each point
    /// `i ≥ 1` (wrapping) for the page decoder, the timestamp decoder
    /// and the copy gate alike, exactly when `slope·(n − 1)` fits an
    /// `i64`; else, and against any other LP, `Corrupt` from all three.
    #[test]
    fn hand_made_line_frame_columns_decode_to_trend_plus_residual(
        t0 in any::<i64>(),
        slope in prop_oneof![any::<i64>(), -(1i64 << 40)..(1 << 40), (9i64 << 16)..(11 << 16)],
        base in prop_oneof![any::<i64>(), -8i64..8],
        offsets in prop::collection::vec(0u64..4, 0..40),
        off_by in prop_oneof![Just(0i64), Just(0i64), any::<i64>()],
    ) {
        use tsfile::encoding::EncodingKind;
        // The decimal line frame's bytes after its `e` and `f`.
        let decimal = line_frame(slope, 2, base, &offsets, &[0]);
        let col = decimal[2..].to_vec();
        let n = offsets.len() + 1;
        let fits = slope.checked_mul(n as i64 - 1).is_some();
        let want: Vec<i64> = std::iter::once(t0)
            .chain(offsets.iter().enumerate().map(|(i, &o)| {
                let trend = ((i128::from(slope) * (i as i128 + 1)) >> 16) as i64;
                t0.wrapping_add(trend).wrapping_add(base.wrapping_add(o as i64))
            }))
            .collect();
        let page = sealed_page(0b1_0100, &col, &[]); // values 1.0, implied
        let (first, last) = (Point::new(t0, 1.0), Point::new(want[n - 1].wrapping_add(off_by), 1.0));
        let stats = tsfile::ChunkStatistics { first, last, bottom: first, top: first, count: n as u64 };
        let decodes = fits && off_by == 0;
        for r in three_readers(&page, stats) {
            prop_assert!(r.is_ok() == decodes, "{:?}", r);
            prop_assert!(decodes || matches!(r, Err(TsFileError::Corrupt(_))), "{:?}", r);
        }
        if decodes {
            let meta = tsfile::PageMeta { offset: 0, byte_len: page.len() as u64, stats };
            let got = tsfile::page::decode_page_timestamps(&page, EncodingKind::Ts2Diff, &meta, None).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}

/// A delta block of 200 timestamps at a 10 ms cadence with one delay of
/// an hour at position 120: one window exception, the last entry of the
/// block — a one-byte position (119, the delta's) and a three-byte
/// distance (3 600 000 − 0 zigzagged).
fn delayed_column() -> (Vec<i64>, Vec<u8>) {
    let ts: Vec<i64> = (0..200i64)
        .map(|i| i * 10 + if i >= 120 { 3_600_000 } else { 0 })
        .collect();
    let mut col = Vec::new();
    packed::encode(Column::Timestamps(&ts), Some(Framing::Delta), &mut col).unwrap();
    (ts, col)
}

/// The distance of a window exception cut short, or grown past 64 bits,
/// is a typed error, never a panic.
#[test]
fn a_truncated_or_overlong_exception_distance_is_a_typed_error() {
    use tsfile::varint;
    let (ts, col) = delayed_column();
    let ends = (ts[0], ts[199]);
    assert_eq!(ts_decode(&col, ts.len(), ends).unwrap(), ts);
    let distance = varint::len_u64(varint::zigzag(3_600_000));
    let entry = col.len() - distance;
    assert_eq!(col[entry - 1], 119, "the exception's position");
    for cut in 1..=distance {
        let short = &col[..col.len() - cut];
        let got = ts_decode(short, ts.len(), ends);
        assert!(typed(&got), "cut {cut}: {got:?}");
    }
    // Eleven bytes of continuation: more than 64 bits.
    let long = [&col[..entry], &[0xff; 10][..], &[0x01]].concat();
    let got = ts_decode(&long, ts.len(), ends);
    assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
}

/// One value, one encoding: an exception whose integer a slot could
/// hold — its distance rewritten to 0, the base itself, or to the
/// slots' top — is `Corrupt`, in the block alone and in a page, whose
/// copy gate refuses it too.
#[test]
fn an_exception_inside_the_slots_is_corrupt() {
    use tsfile::encoding::EncodingKind;
    use tsfile::varint;
    let (ts, col) = delayed_column();
    let distance = varint::len_u64(varint::zigzag(3_600_000));
    // The deltas are 10 but one: the delta frame at width 0, so the
    // slots hold the base alone.
    assert_eq!(col[0], 65, "width code");
    let inside = [&col[..col.len() - distance], &[0][..]].concat();
    let got = ts_decode(&inside, ts.len(), (ts[0], ts[199]));
    assert!(
        matches!(&got, Err(TsFileError::Corrupt(m)) if m.contains("inside")),
        "{got:?}"
    );
    // In a page, with the statistics the column would land on.
    let points: Vec<Point> = ts.iter().map(|&t| Point::new(t, 1.5)).collect();
    let page = sealed_page(0b100 | 0b10000, &inside, &[]);
    let meta = tsfile::PageMeta {
        offset: 0,
        byte_len: page.len() as u64,
        stats: tsfile::ChunkStatistics::from_points(&points).unwrap(),
    };
    let decoded =
        tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
    assert!(
        matches!(decoded, Err(TsFileError::Corrupt(_))),
        "{decoded:?}"
    );
    let gate = tsfile::page::verify_page_body(&page, &meta);
    assert!(matches!(gate, Err(TsFileError::Corrupt(_))), "{gate:?}");
    // The untouched column in the same page decodes.
    let page = sealed_page(0b100 | 0b10000, &col, &[]);
    let meta = tsfile::PageMeta {
        byte_len: page.len() as u64,
        ..meta
    };
    let back =
        tsfile::page::decode_page(&page, EncodingKind::Ts2Diff, EncodingKind::Gorilla, &meta);
    assert_eq!(back.unwrap(), points);
}

/// A decimal delta frame in a page takes its head from FP.v and must
/// land on LP.v: the same body read against an entry whose LP.v is
/// another value of the pair's — one step off, or FP.v — is `Corrupt`,
/// to the decoder and to the copy gate; against one whose FP.v has no
/// integer under the pair, too.
#[test]
fn a_decimal_delta_page_that_misses_lp_is_corrupt() {
    use tsfile::encoding::EncodingKind;
    // The fleet's register: quarter units rising 0.25 a point, wrapping
    // once.
    let points: Vec<Point> = (0..500i64)
        .map(|i| Point::new(i * 1_000, ((i + 1_800) % 2_000 - 1_000) as f64 * 0.25))
        .collect();
    let mut body = Vec::new();
    tsfile::page::encode_page(
        &points,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &mut body,
    );
    assert_eq!(
        tsfile::page::framings(&body).unwrap()[1],
        Some(Framing::Delta)
    );
    let meta = tsfile::PageMeta {
        offset: 0,
        byte_len: body.len() as u64,
        stats: tsfile::ChunkStatistics::from_points(&points).unwrap(),
    };
    let decode = |meta: &tsfile::PageMeta| {
        tsfile::page::decode_page(&body, EncodingKind::Ts2Diff, EncodingKind::Gorilla, meta)
    };
    assert_eq!(decode(&meta).unwrap(), points);
    let last = meta.stats.last.v;
    for (what, first, lp) in [
        ("LP one step up", meta.stats.first.v, last + 0.25),
        ("LP one step down", meta.stats.first.v, last - 0.25),
        ("LP at FP", meta.stats.first.v, meta.stats.first.v),
        ("FP of no integer", std::f64::consts::PI, last),
    ] {
        let mut wrong = meta.clone();
        (wrong.stats.first.v, wrong.stats.last.v) = (first, lp);
        let got = decode(&wrong);
        assert!(
            matches!(got, Err(TsFileError::Corrupt(_))),
            "{what}: {got:?}"
        );
        let gate = tsfile::page::verify_page_body(&body, &wrong);
        assert!(
            matches!(gate, Err(TsFileError::Corrupt(_))),
            "{what}: {gate:?}"
        );
    }
}

/// The pad bits after the last slot of a block of `m` slots that is all
/// of `block`, for timestamps or keys: `(byte index, bit mask)` of each.
fn pad_bits(block: &[u8], m: usize) -> Vec<(usize, u8)> {
    let (code, mut pos) = (block[0], 1);
    if code >= 130 {
        tsfile::varint::read_i64(block, &mut pos).unwrap(); // the slope
    }
    tsfile::varint::read_i64(block, &mut pos).unwrap(); // the base
    let bits = m * usize::from(code % 65);
    let last = pos + bits.div_ceil(8) - 1;
    (bits % 8..8)
        .filter(|_| !bits.is_multiple_of(8))
        .map(|b| (last, 0x80u8 >> b))
        .collect()
}

/// A nonzero pad bit after a block's last slot is `Corrupt`: each pad
/// bit of a page's timestamp block, flipped under a re-sealed CRC, to
/// the page decoder, the timestamp decoder and the copy gate alike; of
/// its value block, to the page decoder and the copy gate (the
/// timestamp decoder does not read the values).
#[test]
fn a_nonzero_pad_bit_after_the_last_slot_is_corrupt() {
    let points = cadence_points(300);
    let (body, modes, ts, values) = page_columns(&points);
    let stats = tsfile::ChunkStatistics::from_points(&points).unwrap();
    assert!(three_readers(&body, stats).iter().all(|r| r.is_ok()));
    let corrupt = |r: &tsfile::Result<()>| matches!(r, Err(TsFileError::Corrupt(_)));
    let (ts_pads, value_pads) = (pad_bits(&ts, 299), pad_bits(&values, 299));
    assert!(!ts_pads.is_empty() && !value_pads.is_empty());
    for (at, mask) in ts_pads {
        let mut flipped = ts.clone();
        flipped[at] ^= mask;
        for r in three_readers(&sealed_page(modes, &flipped, &values), stats) {
            assert!(corrupt(&r), "timestamp pad {at}/{mask:#x}: {r:?}");
        }
    }
    for (at, mask) in value_pads {
        let mut flipped = values.clone();
        flipped[at] ^= mask;
        let [page, stamps, gate] = three_readers(&sealed_page(modes, &ts, &flipped), stats);
        assert!(
            corrupt(&page) && corrupt(&gate) && stamps.is_ok(),
            "value pad {at}/{mask:#x}"
        );
    }
}
