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
use tsfile::encoding::decimal::Framing;
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

/// A CRC-valid page of `n` points with the given modes byte and
/// columns.
fn sealed_page(n: usize, modes: u8, ts: &[u8], values: &[u8]) -> Vec<u8> {
    use tsfile::varint;
    let mut body = Vec::new();
    varint::write_u64(&mut body, n as u64);
    body.push(modes);
    varint::write_u64(&mut body, ts.len() as u64);
    body.extend_from_slice(ts);
    varint::write_u64(&mut body, values.len() as u64);
    body.extend_from_slice(values);
    let crc = tsfile::checksum::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// A CRC-valid page of `n` points at `t = 0, 1, …` whose value column
/// is `block`, marked decimal.
fn decimal_page(n: usize, block: &[u8]) -> Vec<u8> {
    // varint_i 0, varint_i 1: constant-delta timestamps.
    sealed_page(n, 0b11, &[0, 2], block)
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
    prop_assert_eq!(tsfile::page::decimal_framing(&body).unwrap(), Some(framing));
    // varint n (2 bytes), modes, varint ts_len, ts bytes, varint
    // val_len, then the block up to the CRC.
    let mut pos = 3;
    let ts_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    pos += ts_len;
    tsfile::varint::read_u64(&body, &mut pos).unwrap();
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
/// low 64 bits read as if they were all: a CRC-valid page whose ts2diff
/// stream opens with `[0x80 ×9, 0x02]` once decoded to `t = 0`.
#[test]
fn a_varint_past_64_bits_in_a_page_is_corrupt() {
    use tsfile::encoding::{gorilla, EncodingKind};
    let mut ts = vec![0x80u8; 9];
    ts.extend_from_slice(&[0x02, 0x02]); // first (overflowing), delta 1
    let mut values = Vec::new();
    gorilla::encode(&[1.0, 2.0], &mut values);
    let page = sealed_page(2, 0, &ts, &values);
    let got = tsfile::page::decode_page(
        &page,
        EncodingKind::Ts2Diff,
        EncodingKind::Gorilla,
        &meta_of(2, &page),
    );
    assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
    // `u64::MAX` still reads: the tenth byte may be 1.
    let mut max = vec![0xffu8; 9];
    max.push(0x01);
    let mut pos = 0;
    assert_eq!(tsfile::varint::read_u64(&max, &mut pos).unwrap(), u64::MAX);
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
    // varint n (2 bytes), modes, varint ts_len, ts, varint val_len, values.
    let modes = body[2];
    let mut pos = 3;
    let ts_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    let ts = body[pos..pos + ts_len].to_vec();
    pos += ts_len;
    let val_len = tsfile::varint::read_u64(&body, &mut pos).unwrap() as usize;
    let values = body[pos..pos + val_len].to_vec();
    assert_eq!(sealed_page(200, modes, &ts, &values), body);

    let check = |ts: &[u8], values: &[u8], what: &str, must_fail: bool| {
        let page = sealed_page(200, modes, ts, values);
        let meta = meta_of(200, &page);
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
        let page = sealed_page(200, bad, &ts, &values);
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

/// A malformed decimal header is a typed error from the block decoder,
/// from a page decode and from the copy gate — and a well-formed one
/// around it decodes, so each case fails for its own reason.
#[test]
fn malformed_decimal_blocks_are_typed_errors() {
    use tsfile::encoding::{decimal, EncodingKind};
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
    assert_eq!(decimal::decode(&good, 4).unwrap(), [1.0, 2.0, 2.5, 4.0]);
    // The delta frame of the integers `ints` under (0, 0).
    let delta = |ints: &[i64]| {
        let mut b = vec![0x80, 0];
        tsfile::encoding::packed::encode_timestamps(ints, &mut b);
        b
    };
    let good_delta = delta(&[1, 2, 4]);
    assert_eq!(decimal::decode(&good_delta, 3).unwrap(), [1.0, 2.0, 4.0]);

    let cases: Vec<(&str, usize, Vec<u8>)> = vec![
        ("bit width 65", 4, body(65, &[0b0001_1011], &[0])),
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
        (
            "delta frame summing past 2^53",
            2,
            delta(&[(1 << 53) - 1, 1 << 53]),
        ),
        (
            "delta frame exponent 19",
            3,
            [&[0x80 | 19, 0][..], &good_delta[2..]].concat(),
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
        let direct = decimal::decode(&block, n);
        assert!(typed(&direct), "{what}: decode gave {direct:?}");
        assert!(typed(&decimal::verify(&block, n)), "{what}: verify passed");
        if n > tsfile::page::MAX_PAGE_POINTS {
            continue; // the page header itself is refused first
        }
        let page = decimal_page(n, &block);
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
    let file = std::fs::read(path).unwrap();
    let n = file.len();
    let body_len = u64::from_le_bytes(file[n - 14..n - 6].try_into().unwrap()) as usize;
    let body_at = n - 18 - body_len;
    (file[..body_at].to_vec(), file[body_at..n - 18].to_vec())
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
    let dir = std::env::temp_dir().join("tsfile-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("footer-{}.tsfile", std::process::id()));
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
    std::fs::remove_file(&path).ok();
}

/// A CRC-valid footer whose chunk lengths do not add up to the bytes
/// between the head magic and the footer is `Corrupt` at open: the
/// footer stores no chunk offset, so the tiling is what it is checked
/// against.
#[test]
fn footer_whose_pages_do_not_tile_the_data_region_is_corrupt() {
    let dir = std::env::temp_dir().join("tsfile-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("tiling-{}.tsfile", std::process::id()));
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
    std::fs::remove_file(&path).ok();
}

/// A CRC-valid footer whose last chunk claims a body running past the
/// data region — past the file, or past `u64::MAX` — is `Corrupt` at
/// open, before any body is read.
#[test]
fn chunk_length_overrunning_the_data_region_is_corrupt() {
    let dir = std::env::temp_dir().join("tsfile-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("overrun-{}.tsfile", std::process::id()));
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
                    let _ = reader.read_timestamps(meta, None);
                    let _ = reader.read_timestamps(meta, Some(5_000));
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
                let _ = reader.read_timestamps(meta, None);
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
        prop_assert!(tsfile::encoding::decimal::decode(&bytes, n).is_err());
        prop_assert!(tsfile::encoding::packed::decode_timestamps(&bytes, n, None).is_err());
        prop_assert!(tsfile::encoding::packed::decode_values(&bytes, n).is_err());
    }

    /// Arbitrary bytes as a decimal block of any plausible count: a
    /// typed error or exactly `n` values, never a panic.
    #[test]
    fn random_decimal_blocks_never_panic(
        n in 0usize..2_000,
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        use tsfile::encoding::decimal;
        let values = decimal::decode(&bytes, n);
        prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));
        // The copy gate passes exactly what decodes, in either frame.
        prop_assert_eq!(values.is_ok(), decimal::verify(&bytes, n).is_ok());
    }

    /// Arbitrary bytes as a packed column of any plausible count: a
    /// typed error or exactly `n` points (at most `n` with a limit),
    /// never a panic, and the copy gate's check agrees with the decoder.
    #[test]
    fn random_packed_columns_never_panic(
        n in 0usize..2_000,
        limit in any::<i64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        use tsfile::encoding::packed;
        let ts = packed::decode_timestamps(&bytes, n, None);
        prop_assert!(ts.as_ref().map_or_else(|_| typed(&ts), |t| t.len() == n));
        prop_assert_eq!(ts.is_ok(), packed::verify_timestamps(&bytes, n).is_ok());
        if let Ok(until) = packed::decode_timestamps(&bytes, n, Some(limit)) {
            prop_assert!(ts.is_ok() && until.len() <= n);
        }
        let values = packed::decode_values(&bytes, n);
        prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));
        prop_assert_eq!(values.is_ok(), packed::verify_values(&bytes, n).is_ok());
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
    /// units that jump about, whose deltas are no narrower.
    #[test]
    fn crc_valid_flips_in_a_decimal_reference_block_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let values = (0..300).map(|i| ((i * 7_919) % 400) as f64 / 4.0);
        flip_decimal_block(values, Framing::Reference, &flips)?;
    }

    /// Arbitrary bytes behind a header with bit 7 of `e` set — a delta
    /// frame of any plausible count: a typed error or exactly `n`
    /// values, never a panic, and the copy gate's check agrees with the
    /// decoder.
    #[test]
    fn random_delta_frames_never_panic(
        n in 0usize..2_000,
        e in 0u8..=18,
        f in any::<prop::sample::Index>(),
        body in prop::collection::vec(any::<u8>(), 0..96),
        raw in prop::collection::vec(any::<u8>(), 1..96),
    ) {
        use tsfile::encoding::decimal;
        let header = [e | 0x80, f.index(usize::from(e) + 1) as u8];
        let mut raw = raw;
        raw[0] |= 0x80;
        for bytes in [[&header[..], &body].concat(), raw] {
            let values = decimal::decode(&bytes, n);
            prop_assert!(values.as_ref().map_or_else(|_| typed(&values), |v| v.len() == n));
            prop_assert_eq!(values.is_ok(), decimal::verify(&bytes, n).is_ok());
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
        use tsfile::encoding::{decimal, packed};
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
        let mut block = vec![0x80, 0];
        packed::encode_timestamps(&ints, &mut block);
        let n = ints.len();
        let held = ints.iter().all(|d| d.unsigned_abs() < 1 << 53);
        let values = decimal::decode(&block, n);
        prop_assert_eq!(values.is_ok(), held);
        prop_assert_eq!(decimal::verify(&block, n).is_ok(), held);
        if let Ok(values) = values {
            let want: Vec<f64> = ints.iter().map(|&d| d as f64).collect();
            prop_assert_eq!(values, want);
        } else {
            prop_assert!(typed(&values));
        }
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
