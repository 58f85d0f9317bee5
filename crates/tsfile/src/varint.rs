//! LEB128 varint and zigzag encoding helpers.
//!
//! Used by the chunk format for lengths and by the TS_2DIFF timestamp
//! encoding for signed deltas. Kept dependency-free.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::TsFileError;
use crate::Result;

/// Zigzag-encode a signed 64-bit integer so small magnitudes (of either
/// sign) become small unsigned values.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    cast::u64_bits((v << 1) ^ (v >> 63))
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    cast::i64_bits(v >> 1) ^ -cast::i64_bits(v & 1)
}

/// Append an unsigned LEB128 varint to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = cast::low8(v & 0x7f);
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-varint signed integer to `out`.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Bytes [`write_u64`] takes for `v`: 1 to 10.
#[inline]
pub fn len_u64(v: u64) -> usize {
    cast::usize_from_u32((64 - (v | 1).leading_zeros()).div_ceil(7))
}

/// Read an unsigned LEB128 varint from `buf` starting at `*pos`,
/// advancing `*pos` past it. The tenth byte holds bit 63 alone: above 1
/// it overflows 64 bits, and that is `Corrupt`.
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(TsFileError::UnexpectedEof { what: "varint" })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(TsFileError::Corrupt("varint overflows 64 bits".into()));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Read a zigzag-varint signed integer.
#[inline]
pub fn read_i64(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64(buf, pos)?))
}

/// Continuation bits of 8 little-endian varint bytes viewed as one
/// word. `word & CONT_MASK == 0` means the word holds 8 complete
/// single-byte varints — the TS_2DIFF regular-timestamp common case.
pub(crate) const CONT_MASK: u64 = 0x8080_8080_8080_8080;

/// Word-at-a-time LEB128 read: when 8 bytes remain, one mask +
/// `trailing_zeros` locates the stop byte and the 7-bit groups are
/// extracted arithmetically instead of via the per-byte loop. Falls
/// back to [`read_u64`] near the end of the buffer and for varints
/// longer than 8 bytes; results and errors are identical to the scalar
/// reader on every input (pinned by the proptest equivalence suite).
#[inline]
pub fn read_u64_fast(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let window = pos.checked_add(8).and_then(|end| buf.get(*pos..end));
    let Some(window) = window else {
        return read_u64(buf, pos);
    };
    let mut word_bytes = [0u8; 8];
    for (dst, src) in word_bytes.iter_mut().zip(window) {
        *dst = *src;
    }
    let word = u64::from_le_bytes(word_bytes);
    let stops = !word & CONT_MASK;
    if stops == 0 {
        // 9- or 10-byte (or overflowing) varint: rare; the scalar loop
        // already carries the exact Corrupt/Eof semantics.
        return read_u64(buf, pos);
    }
    let nbytes = stops.trailing_zeros() / 8 + 1; // 1..=8
    *pos += cast::usize_from_u32(nbytes);
    Ok(extract7(word, nbytes))
}

/// Gather the low 7 bits of each of the `nbytes` low bytes of `word`
/// into one value (LEB128 little-endian group order).
#[inline]
fn extract7(word: u64, nbytes: u32) -> u64 {
    match nbytes {
        1 => word & 0x7f,
        2 => (word & 0x7f) | ((word >> 8) & 0x7f) << 7,
        _ => {
            let mut v = 0u64;
            let mut i = 0;
            while i < nbytes {
                // i ≤ 7, so both shifts stay in range.
                v |= ((word >> (8 * i)) & 0x7f) << (7 * i);
                i += 1;
            }
            v
        }
    }
}

/// Read a zigzag-varint signed integer via the word-at-a-time path.
#[inline]
pub fn read_i64_fast(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_u64_fast(buf, pos)?))
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::as_conversions)]

    use super::*;

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v, "value {v}");
        }
    }

    #[test]
    fn zigzag_small_values_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn varint_roundtrip() -> Result<()> {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos)?, v);
        }
        assert_eq!(pos, buf.len());
        Ok(())
    }

    #[test]
    fn signed_varint_roundtrip() -> Result<()> {
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        let mut buf = Vec::new();
        for &v in &values {
            write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_i64(&buf, &mut pos)?, v);
        }
        Ok(())
    }

    #[test]
    fn truncated_varint_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn overlong_varint_rejected() {
        // 11 continuation bytes is malformed.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
        let mut pos = 0;
        assert!(read_u64_fast(&buf, &mut pos).is_err());
    }

    #[test]
    fn a_tenth_byte_above_one_overflows() -> Result<()> {
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x02);
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        for read in [read_u64, read_u64_fast] {
            let mut pos = 0;
            assert!(matches!(
                read(&overflow, &mut pos),
                Err(TsFileError::Corrupt(_))
            ));
            let mut pos = 0;
            assert_eq!(read(&max, &mut pos)?, u64::MAX);
            assert_eq!(pos, 10);
        }
        Ok(())
    }

    #[test]
    fn len_matches_the_bytes_written() {
        for v in (0..64).map(|i| 1u64 << i).chain([0, 127, 128, u64::MAX]) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn fast_reader_matches_scalar() -> Result<()> {
        // Varints of every byte length, back to back, read with both
        // readers: identical values and positions.
        let values: Vec<u64> = (0..64)
            .map(|i| (1u64 << i).wrapping_sub(1))
            .chain([u64::MAX, 0, 127, 128, 16_383, 16_384])
            .collect();
        let mut buf = Vec::new();
        for &v in &values {
            write_u64(&mut buf, v);
        }
        let (mut a, mut b) = (0usize, 0usize);
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut a)?, v);
            assert_eq!(read_u64_fast(&buf, &mut b)?, v);
            assert_eq!(a, b, "position divergence at value {v}");
        }
        // Truncation: both fail at the same point.
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let (mut a, mut b) = (0usize, 0usize);
        assert!(read_u64(&buf, &mut a).is_err());
        assert!(read_u64_fast(&buf, &mut b).is_err());
        Ok(())
    }
}
