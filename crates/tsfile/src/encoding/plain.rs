//! Plain (raw little-endian) encoding. Baseline codec: no compression,
//! trivial CPU cost. Useful for ablating "how much of chunk-load cost is
//! decode CPU vs. I/O".

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::error::TsFileError;
use crate::Result;

/// Encode `i64` values as raw little-endian bytes.
pub fn encode_i64(values: &[i64], out: &mut Vec<u8>) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode `n` raw little-endian `i64` values.
pub fn decode_i64(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    Ok(column_bytes(buf, n, "plain i64 column")?
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(le_bytes(c)))
        .collect())
}

/// Checked prefix: the first `n * 8` bytes of `buf`, or `UnexpectedEof`.
fn column_bytes<'a>(buf: &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8]> {
    n.checked_mul(8)
        .and_then(|need| buf.get(..need))
        .ok_or(TsFileError::UnexpectedEof { what })
}

/// Copy a `chunks_exact(8)` chunk into a fixed array (length is
/// guaranteed by the iterator contract; short chunks yield zeros rather
/// than a panic path).
fn le_bytes(c: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    for (dst, src) in b.iter_mut().zip(c) {
        *dst = *src;
    }
    b
}

/// Encode `f64` values as raw little-endian bytes.
pub fn encode_f64(values: &[f64], out: &mut Vec<u8>) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode `n` raw little-endian `f64` values.
pub fn decode_f64(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    Ok(column_bytes(buf, n, "plain f64 column")?
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(le_bytes(c)))
        .collect())
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;

    #[test]
    fn i64_roundtrip() -> Result<()> {
        let vals = vec![i64::MIN, -1, 0, 1, i64::MAX, 42];
        let mut buf = Vec::new();
        encode_i64(&vals, &mut buf);
        assert_eq!(buf.len(), vals.len() * 8);
        assert_eq!(decode_i64(&buf, vals.len())?, vals);
        Ok(())
    }

    #[test]
    fn f64_roundtrip_with_specials() -> Result<()> {
        let vals = vec![0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, f64::INFINITY];
        let mut buf = Vec::new();
        encode_f64(&vals, &mut buf);
        let back = decode_f64(&buf, vals.len())?;
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        Ok(())
    }

    #[test]
    fn nan_preserved_bitwise() -> Result<()> {
        let vals = vec![f64::NAN];
        let mut buf = Vec::new();
        encode_f64(&vals, &mut buf);
        let back = decode_f64(&buf, 1)?;
        assert!(back.iter().all(|v| v.is_nan()));
        Ok(())
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        encode_i64(&[1, 2, 3], &mut buf);
        assert!(decode_i64(&buf[..buf.len() - 1], 3).is_err());
        assert!(decode_f64(&buf, 4).is_err());
    }

    #[test]
    fn empty_roundtrip() -> Result<()> {
        let mut buf = Vec::new();
        encode_i64(&[], &mut buf);
        assert!(buf.is_empty());
        assert!(decode_i64(&buf, 0)?.is_empty());
        Ok(())
    }
}
