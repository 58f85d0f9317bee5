//! Retained scalar reference implementations.
//!
//! These are the pre-word-kernel bit I/O and decode loops, kept
//! verbatim as oracles after the hot paths moved to the word-at-a-time
//! kernels in [`super::bitio`], [`super::gorilla`] and
//! [`super::ts2diff`]. They are compiled unconditionally (not
//! `#[cfg(test)]`) because two consumers
//! need them at runtime: the proptest equivalence suite pins the
//! kernels byte-identical (and error-identical on truncated/corrupt
//! input) to these loops, and `repro --exp decode` measures the
//! batched-vs-reference throughput ratio in the same run — the
//! hardware-independent invariant CI gates on. Nothing on the
//! production read path calls into this module.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::TsFileError;
use crate::varint;
use crate::Result;

/// Scalar bit writer: one `push`/mask per bit.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the last byte (0 means last byte is full
    /// or buffer is empty).
    bit_pos: u8,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a single bit (LSB of `bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.buf.push(0);
        }
        if bit {
            let mask = 1 << (7 - self.bit_pos);
            if let Some(last) = self.buf.last_mut() {
                *last |= mask;
            }
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Write the low `nbits` bits of `value`, most significant first.
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        for i in (0..nbits).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Finish writing, returning the underlying bytes (zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + cast::usize_from_u8(self.bit_pos)
        }
    }
}

/// Scalar bit reader: one bounds check and shift per bit.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize, // absolute bit position
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = self
            .buf
            .get(self.pos / 8)
            .ok_or(TsFileError::UnexpectedEof { what: "bitstream" })?;
        let bit = (byte >> (7 - self.pos % 8)) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Read `nbits` bits, most significant first.
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 64);
        let mut v = 0u64;
        for _ in 0..nbits {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Ok(v)
    }
}

/// Scalar Gorilla encode — the grammar of [`super::gorilla::encode`],
/// driven bit-by-bit through the scalar writer.
pub fn gorilla_encode(values: &[f64], out: &mut Vec<u8>) {
    let Some((first, rest)) = values.split_first() else {
        return;
    };
    let mut w = BitWriter::new();
    let mut prev = first.to_bits();
    w.write_bits(prev, 64);
    let mut prev_leading: u32 = u32::MAX; // "no previous window"
    let mut prev_trailing: u32 = 0;
    for &v in rest {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        w.write_bit(true);
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        if prev_leading != u32::MAX && leading >= prev_leading && trailing >= prev_trailing {
            // Reuse previous window.
            w.write_bit(false);
            let sig = 64 - prev_leading - prev_trailing;
            w.write_bits(xor >> prev_trailing, sig);
        } else {
            w.write_bit(true);
            let sig = 64 - leading - trailing; // ≥ 1 since xor != 0
            w.write_bits(u64::from(leading), 5);
            // sig ∈ [1, 64]; store sig-1 in 6 bits.
            w.write_bits(u64::from(sig - 1), 6);
            w.write_bits(xor >> trailing, sig);
            prev_leading = leading;
            prev_trailing = trailing;
        }
    }
    out.extend_from_slice(&w.into_bytes());
}

/// Scalar Gorilla decode: one control-bit read per value.
pub fn gorilla_decode(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(super::cap_for(n, buf.len()));
    if n == 0 {
        return Ok(out);
    }
    let mut r = BitReader::new(buf);
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut leading: u32 = 0;
    let mut trailing: u32 = 0;
    let mut have_window = false;
    for _ in 1..n {
        if !r.read_bit()? {
            out.push(f64::from_bits(prev));
            continue;
        }
        let new_window = r.read_bit()?;
        if new_window {
            // 5- and 6-bit reads always fit in u32; low32 is bit-exact here.
            leading = cast::low32(r.read_bits(5)?);
            let sig = cast::low32(r.read_bits(6)?) + 1;
            if leading + sig > 64 {
                return Err(TsFileError::Corrupt(format!(
                    "gorilla window out of range: leading={leading} sig={sig}"
                )));
            }
            trailing = 64 - leading - sig;
            have_window = true;
        } else if !have_window {
            return Err(TsFileError::Corrupt(
                "gorilla stream reuses a window before defining one".into(),
            ));
        }
        let sig = 64 - leading - trailing;
        let block = r.read_bits(sig)?;
        let xor = block << trailing;
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(out)
}

/// Scalar TS_2DIFF decode: one byte-loop varint per point.
pub fn ts2diff_decode(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(super::cap_for(n, buf.len()));
    if n == 0 {
        return Ok(out);
    }
    let mut pos = 0usize;
    let first = varint::read_i64(buf, &mut pos)?;
    out.push(first);
    if n == 1 {
        return Ok(out);
    }
    let mut delta = varint::read_i64(buf, &mut pos)?;
    let mut cur = first.wrapping_add(delta);
    out.push(cur);
    for _ in 2..n {
        let dod = varint::read_i64(buf, &mut pos)?;
        delta = delta.wrapping_add(dod);
        cur = cur.wrapping_add(delta);
        out.push(cur);
    }
    Ok(out)
}

/// Scalar early-stop TS_2DIFF decode (see
/// [`super::ts2diff::decode_until`] for the contract).
pub fn ts2diff_decode_until(buf: &[u8], n: usize, limit: i64) -> Result<Vec<i64>> {
    let mut out = Vec::new();
    if n == 0 {
        return Ok(out);
    }
    let mut pos = 0usize;
    let first = varint::read_i64(buf, &mut pos)?;
    out.push(first);
    if n == 1 || first > limit {
        return Ok(out);
    }
    let mut delta = varint::read_i64(buf, &mut pos)?;
    let mut cur = first.wrapping_add(delta);
    out.push(cur);
    if cur > limit {
        return Ok(out);
    }
    for _ in 2..n {
        let dod = varint::read_i64(buf, &mut pos)?;
        delta = delta.wrapping_add(dod);
        cur = cur.wrapping_add(delta);
        out.push(cur);
        if cur > limit {
            break;
        }
    }
    Ok(out)
}
