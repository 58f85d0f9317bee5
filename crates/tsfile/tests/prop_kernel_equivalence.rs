//! Property-based equivalence: the slice-by-16 CRC32 kernel must be
//! observationally identical to a bitwise, table-free CRC written here:
//! every length 0..=4096 reachable at every 16-byte phase, and
//! streaming equal to one-shot at any split. Any divergence here is a
//! kernel bug, not a test flake.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use tsfile::checksum::{crc32, Crc32};

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
}
