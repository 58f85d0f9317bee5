//! Property-based equivalence: the word-at-a-time bitio and chunked
//! decode kernels must be observationally identical to the retained
//! scalar references (`tsfile::encoding::reference`) — byte-identical
//! output for writers, value-identical output for readers/decoders,
//! and error-identical behavior on truncated or corrupt input. The
//! references are the pre-optimization implementations kept verbatim
//! as oracles; any divergence here is a kernel bug, not a test flake.
//!
//! The slice-by-16 CRC32 is held to the same bar against a bitwise,
//! table-free CRC written here: every length 0..=4096 reachable at
//! every 16-byte phase, and streaming equal to one-shot at any split.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::mem::discriminant;

use proptest::prelude::*;
use tsfile::checksum::{crc32, Crc32};
use tsfile::encoding::{bitio, gorilla, reference, ts2diff};
use tsfile::TsFileError;

/// CRC32 (IEEE 802.3, reflected) one bit at a time: no table to get
/// wrong, and no code shared with the kernel.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn crc32_known_vectors() {
    for (input, expected) in [
        (&b"123456789"[..], 0xCBF4_3926u32),
        (&b""[..], 0),
        (&b"a"[..], 0xE8B7_BE43),
    ] {
        assert_eq!(crc32(input), expected);
        assert_eq!(crc32_bitwise(input), expected);
    }
}

/// Both results Ok with equal payloads, or both Err with the same
/// error variant. `TsFileError` has no `PartialEq`, so errors compare
/// by discriminant (EOF vs corrupt vs ...).
fn assert_same_outcome<T: PartialEq + std::fmt::Debug>(
    new: Result<T, TsFileError>,
    oracle: Result<T, TsFileError>,
) -> Result<(), TestCaseError> {
    match (new, oracle) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(
            discriminant(&a),
            discriminant(&b),
            "error variants diverge: new={a:?} oracle={b:?}"
        ),
        (a, b) => prop_assert!(false, "outcome diverges: new={a:?} oracle={b:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One shared random buffer; a window of random length 0..=4096 at
    /// each offset 0..16, so every alignment of the 16-byte blocks and
    /// every tail length is hit.
    #[test]
    fn crc32_matches_bitwise_reference_at_every_offset(
        buf in prop::collection::vec(any::<u8>(), 4096 + 16),
        len in 0usize..=4096,
    ) {
        for offset in 0..16 {
            let window = &buf[offset..offset + len];
            prop_assert_eq!(crc32(window), crc32_bitwise(window), "offset {}, len {}", offset, len);
        }
    }

    /// Feeding a buffer in pieces, split anywhere, equals one shot.
    #[test]
    fn crc32_streaming_equals_one_shot(
        buf in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| c.index(buf.len() + 1)).collect();
        at.sort_unstable();
        let mut streaming = Crc32::new();
        let mut from = 0;
        for cut in at {
            streaming.update(&buf[from..cut]);
            from = cut;
        }
        streaming.update(&buf[from..]);
        prop_assert_eq!(streaming.finish(), crc32(&buf));
    }

    /// The buffered writer emits exactly the bytes the scalar
    /// bit-at-a-time writer does, for any mix of widths.
    #[test]
    fn writer_bytes_identical(chunks in prop::collection::vec((any::<u64>(), 1u32..=64), 0..120)) {
        let mut new = bitio::BitWriter::new();
        let mut oracle = reference::BitWriter::new();
        for &(v, n) in &chunks {
            new.write_bits(v, n);
            oracle.write_bits(v, n);
        }
        prop_assert_eq!(new.bit_len(), oracle.bit_len());
        prop_assert_eq!(new.into_bytes(), oracle.into_bytes());
    }

    /// Reading any width sequence from arbitrary bytes: values match
    /// while bits remain, and both readers fail on the same read (and
    /// keep failing) once the stream is exhausted.
    #[test]
    fn reader_values_and_eof_identical(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        widths in prop::collection::vec(1u32..=64, 1..120),
    ) {
        let mut new = bitio::BitReader::new(&bytes);
        let mut oracle = reference::BitReader::new(&bytes);
        let mut failed = false;
        for &n in &widths {
            let a = new.read_bits(n);
            let b = oracle.read_bits(n);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert!(!failed, "new reader recovered after EOF");
                    prop_assert_eq!(x, y);
                }
                (Err(_), Err(_)) => failed = true,
                (a, b) => prop_assert!(false, "readers diverge: new={a:?} oracle={b:?}"),
            }
        }
    }

    /// Interleaved peek/consume must not perturb read_bits agreement.
    #[test]
    fn peek_consume_tracks_reference(
        chunks in prop::collection::vec((any::<u64>(), 1u32..=64), 1..60),
        consume_first in prop::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut w = bitio::BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut new = bitio::BitReader::new(&bytes);
        let mut oracle = reference::BitReader::new(&bytes);
        for (&(_, n), &via_peek) in chunks.iter().zip(consume_first.iter().cycle()) {
            let expect = oracle.read_bits(n).unwrap();
            if via_peek && n <= 32 {
                // peek guarantees at least 56 usable bits mid-stream;
                // only take this path when the word holds the answer.
                let (word, avail) = new.peek();
                if avail >= n {
                    prop_assert_eq!(word >> (64 - n), expect);
                    new.consume(n);
                    continue;
                }
            }
            prop_assert_eq!(new.read_bits(n).unwrap(), expect);
        }
    }

    /// Gorilla: batched decode ≡ reference on every valid encode.
    #[test]
    fn gorilla_decode_matches_reference(vs in prop::collection::vec(any::<u64>(), 0..300)) {
        let floats: Vec<f64> = vs.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        gorilla::encode(&floats, &mut buf);
        let new = gorilla::decode(&buf, floats.len()).unwrap();
        let oracle = reference::gorilla_decode(&buf, floats.len()).unwrap();
        let a: Vec<u64> = new.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// Gorilla: arbitrary (mostly corrupt) bytes — same values or same
    /// error variant, including truncation mid-stream.
    #[test]
    fn gorilla_corrupt_input_matches_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
        n in 0usize..600,
    ) {
        let new = gorilla::decode(&bytes, n).map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let oracle = reference::gorilla_decode(&bytes, n)
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        assert_same_outcome(new, oracle)?;
    }

    /// Truncating a valid gorilla stream at every byte boundary must
    /// not change which prefix decodes and which errors.
    #[test]
    fn gorilla_truncation_matches_reference(vs in prop::collection::vec(any::<u64>(), 1..40)) {
        let floats: Vec<f64> = vs.iter().map(|&b| f64::from_bits(b)).collect();
        let mut buf = Vec::new();
        gorilla::encode(&floats, &mut buf);
        for cut in 0..buf.len() {
            let new = gorilla::decode(&buf[..cut], floats.len())
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            let oracle = reference::gorilla_decode(&buf[..cut], floats.len())
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
            assert_same_outcome(new, oracle)?;
        }
    }

    /// ts2diff: batched decode ≡ reference on valid encodes.
    #[test]
    fn ts2diff_decode_matches_reference(ts in prop::collection::vec(any::<i64>(), 0..300)) {
        let mut buf = Vec::new();
        ts2diff::encode(&ts, &mut buf);
        prop_assert_eq!(
            ts2diff::decode(&buf, ts.len()).unwrap(),
            reference::ts2diff_decode(&buf, ts.len()).unwrap()
        );
    }

    /// ts2diff: arbitrary bytes — same values or same error variant.
    #[test]
    fn ts2diff_corrupt_input_matches_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
        n in 0usize..600,
    ) {
        assert_same_outcome(ts2diff::decode(&bytes, n), reference::ts2diff_decode(&bytes, n))?;
    }

    /// decode_until: the early-stop boundary must land on the same
    /// point for every interesting limit, including limits below the
    /// first value, between values, on exact values, and above all.
    #[test]
    fn ts2diff_decode_until_matches_reference(
        raw in prop::collection::vec(-1_000_000i64..1_000_000, 1..200),
        extra_limit in any::<i64>(),
    ) {
        let mut ts = raw;
        ts.sort_unstable();
        let mut buf = Vec::new();
        ts2diff::encode(&ts, &mut buf);
        let mut limits = vec![
            i64::MIN,
            ts[0] - 1,
            ts[0],
            ts[ts.len() / 2],
            ts[ts.len() / 2] + 1,
            *ts.last().unwrap(),
            *ts.last().unwrap() + 1,
            i64::MAX,
            extra_limit,
        ];
        limits.dedup();
        for limit in limits {
            assert_same_outcome(
                ts2diff::decode_until(&buf, ts.len(), limit),
                reference::ts2diff_decode_until(&buf, ts.len(), limit),
            )?;
        }
    }

    /// decode_until on corrupt input errs (or stops early) exactly as
    /// the reference does.
    #[test]
    fn ts2diff_decode_until_corrupt_matches_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
        n in 0usize..400,
        limit in any::<i64>(),
    ) {
        assert_same_outcome(
            ts2diff::decode_until(&bytes, n, limit),
            reference::ts2diff_decode_until(&bytes, n, limit),
        )?;
    }
}
