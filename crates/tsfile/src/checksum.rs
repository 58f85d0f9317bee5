//! CRC32 (IEEE 802.3 polynomial, reflected) as a slice-by-16 table
//! kernel. Dependency-free; checksums every page, chunk body, footer,
//! mods entry, WAL record, catalog record and `tsnet` frame.
//!
//! The polynomial is pinned by every byte already written, so the
//! hardware CRC32C instruction (a different polynomial) is not an
//! option, and carry-less-multiply folding needs `unsafe` intrinsics
//! this crate forbids. Slice-by-16 stays in safe Rust: sixteen
//! 256-entry tables, built at compile time, fold sixteen input bytes
//! per step with independent lookups instead of one dependent lookup
//! per byte.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Entry `byte` of table `k`. Both indices are in range by type
/// (`K < 16` is checked at compile time, a `u8` is `< 256`), so the
/// lookups compile without bounds checks.
#[inline(always)]
fn t<const K: usize>(byte: u8) -> u32 {
    TABLES[K][usize::from(byte)]
}

/// A running CRC32: feed bytes where they already lie, in as many
/// pieces as they come in, and [`finish`](Crc32::finish) yields the
/// same value as one [`crc32`] call over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let Ok(&[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15]) =
                <&[u8; 16]>::try_from(block)
            else {
                continue; // chunks_exact(16) yields only 16-byte blocks
            };
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            crc = t::<15>(b0 ^ c0)
                ^ t::<14>(b1 ^ c1)
                ^ t::<13>(b2 ^ c2)
                ^ t::<12>(b3 ^ c3)
                ^ t::<11>(b4)
                ^ t::<10>(b5)
                ^ t::<9>(b6)
                ^ t::<8>(b7)
                ^ t::<7>(b8)
                ^ t::<6>(b9)
                ^ t::<5>(b10)
                ^ t::<4>(b11)
                ^ t::<3>(b12)
                ^ t::<2>(b13)
                ^ t::<1>(b14)
                ^ t::<0>(b15);
        }
        for &byte in blocks.remainder() {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ t::<0>(low ^ byte);
        }
        self.state = crc;
    }

    /// The CRC32 of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// Compute the CRC32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }
}
