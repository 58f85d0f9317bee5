//! LEB128 varint and zigzag encoding helpers.
//!
//! Used by the chunk format for lengths and by the packed block
//! ([`crate::encoding::packed`]) for its base, slope and exception list.
//! Kept dependency-free.

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
#[inline]
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
    }

    #[test]
    fn a_tenth_byte_above_one_overflows() -> Result<()> {
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x02);
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        let mut pos = 0;
        assert!(matches!(
            read_u64(&overflow, &mut pos),
            Err(TsFileError::Corrupt(_))
        ));
        let mut pos = 0;
        assert_eq!(read_u64(&max, &mut pos)?, u64::MAX);
        assert_eq!(pos, 10);
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
}
