//! Bit-level reader/writer used by the Gorilla value codec.
//!
//! Word-at-a-time: both sides buffer bits in a 64-bit accumulator so
//! `read_bits`/`write_bits` are shift-mask operations on a cached word
//! instead of per-bit loops, and the single-bit paths inline on top.
//! The byte layout is identical to the scalar implementation retained
//! in [`super::reference`]: MSB-first within each byte, final byte
//! zero-padded. The proptest equivalence suite pins the two
//! byte-identical (and error-identical on truncated input).
//!
//! Accumulator invariants:
//! * Writer: the high `pending` bits of `acc` are queued output and
//!   `pending < 64` between calls; a full word flushes big-endian.
//! * Reader: the high `avail` bits of `acc` are the next unread bits;
//!   an empty accumulator refills 8 bytes big-endian when a whole word
//!   remains and zero-pads a byte-wise tail load otherwise, so EOF is
//!   detected exactly when fewer bits remain than were asked for.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::TsFileError;
use crate::Result;

/// Low-`nbits` mask of `v`; `nbits` must be in `[1, 64]`.
#[inline]
fn mask_low(v: u64, nbits: u32) -> u64 {
    v & (u64::MAX >> (64 - nbits))
}

/// Append-only bit writer backed by a byte vector.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Queued bits, MSB-aligned; always fewer than 64 between calls.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Write a single bit (LSB of `bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= u64::from(bit) << (63 - self.pending);
        self.pending += 1;
        if self.pending == 64 {
            self.flush_word();
        }
    }

    /// Write the low `nbits` bits of `value`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return;
        }
        let v = mask_low(value, nbits);
        let free = 64 - self.pending;
        if nbits <= free {
            self.acc |= v << (free - nbits);
            self.pending += nbits;
            if self.pending == 64 {
                self.flush_word();
            }
        } else {
            // Split: the top `free` bits complete the current word, the
            // low `lo` bits start the next one. `free ≥ 1` (pending is
            // kept below 64) and `lo ∈ [1, 63]`, so every shift is in
            // range.
            let lo = nbits - free;
            self.acc |= v >> lo;
            self.flush_word();
            self.acc = v << (64 - lo);
            self.pending = lo;
        }
    }

    #[inline]
    fn flush_word(&mut self) {
        self.buf.extend_from_slice(&self.acc.to_be_bytes());
        self.acc = 0;
        self.pending = 0;
    }

    /// Finish writing, returning the underlying bytes (zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.acc.to_be_bytes();
        let nbytes = cast::usize_from_u32(self.pending.div_ceil(8));
        if let Some(head) = tail.get(..nbytes) {
            self.buf.extend_from_slice(head);
        }
        self.buf
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + cast::usize_from_u32(self.pending)
    }
}

/// Sequential bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next byte of `buf` not yet loaded into the accumulator.
    byte_pos: usize,
    /// Prefetched bits: the high `avail` bits of `acc` are valid.
    acc: u64,
    avail: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            byte_pos: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Read a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return Err(TsFileError::UnexpectedEof { what: "bitstream" });
            }
        }
        let bit = self.acc >> 63 == 1;
        self.acc <<= 1;
        self.avail -= 1;
        Ok(bit)
    }

    /// Read `nbits` bits, most significant first.
    #[inline]
    pub fn read_bits(&mut self, nbits: u32) -> Result<u64> {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return Ok(0);
        }
        if self.avail >= nbits {
            return Ok(self.take(nbits));
        }
        // Drain the accumulator, refill, take the remainder.
        let have = self.avail;
        let hi = if have == 0 { 0 } else { self.take(have) };
        self.refill();
        let need = nbits - have;
        if self.avail < need {
            // Fewer bits remain in the stream than were asked for.
            // Discard the leftovers so later reads keep failing, just
            // as the scalar reference is exhausted after its error.
            self.avail = 0;
            return Err(TsFileError::UnexpectedEof { what: "bitstream" });
        }
        let lo = self.take(need);
        // `hi` shifted left by `need ∈ [1, 64]`; the double shift stays
        // defined at 64.
        Ok(((hi << (need - 1)) << 1) | lo)
    }

    /// Look ahead without consuming: the next bits MSB-aligned in a
    /// word, plus how many of them are valid (at least 57 unless the
    /// stream is nearly exhausted; 0 exactly at end of stream). Pair
    /// with [`Self::consume`].
    #[inline]
    pub fn peek(&mut self) -> (u64, u32) {
        if self.avail <= 56 {
            self.top_up();
        }
        (self.acc, self.avail)
    }

    /// Discard `nbits` previously peeked bits. `nbits` must not exceed
    /// the valid count returned by [`Self::peek`].
    #[inline]
    pub fn consume(&mut self, nbits: u32) {
        debug_assert!(nbits <= self.avail);
        if nbits > 0 {
            let _ = self.take(nbits);
        }
    }

    /// Pop the high `nbits` bits of the accumulator; requires
    /// `1 ≤ nbits ≤ avail`.
    #[inline]
    fn take(&mut self, nbits: u32) -> u64 {
        debug_assert!(nbits >= 1 && nbits <= self.avail);
        let v = self.acc >> (64 - nbits);
        // Defined at nbits == 64 via the double shift.
        self.acc = (self.acc << (nbits - 1)) << 1;
        self.avail -= nbits;
        v
    }

    /// Bulk-load up to 8 bytes into the empty accumulator.
    #[inline]
    fn refill(&mut self) {
        debug_assert_eq!(self.avail, 0);
        let bytes = self.buf.get(self.byte_pos..).unwrap_or(&[]);
        let take = bytes.len().min(8);
        let mut word = [0u8; 8];
        for (dst, src) in word.iter_mut().zip(bytes) {
            *dst = *src;
        }
        // A short tail lands in the high bytes of the big-endian word,
        // so the accumulator stays MSB-aligned with zero padding.
        self.acc = u64::from_be_bytes(word);
        self.avail = 8 * cast::low32(cast::u64_from_usize(take));
        self.byte_pos += take;
    }

    /// Byte-wise top-up that keeps existing accumulator bits (used by
    /// `peek`, where the accumulator may be partially full).
    #[inline]
    fn top_up(&mut self) {
        while self.avail <= 56 {
            let Some(&b) = self.buf.get(self.byte_pos) else {
                return;
            };
            self.acc |= u64::from(b) << (56 - self.avail);
            self.byte_pos += 1;
            self.avail += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() -> Result<()> {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit()?, b);
        }
        Ok(())
    }

    #[test]
    fn multi_bit_roundtrip() -> Result<()> {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(0x1234_5678_9ABC_DEF0, 61);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4)?, 0b1011);
        assert_eq!(r.read_bits(64)?, u64::MAX);
        assert_eq!(r.read_bits(1)?, 0);
        assert_eq!(r.read_bits(61)?, 0x1234_5678_9ABC_DEF0 & ((1 << 61) - 1));
        Ok(())
    }

    #[test]
    fn read_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // Padding makes one byte available; reading 9 bits must fail.
        assert!(r.read_bits(9).is_err());
    }

    #[test]
    fn empty_writer_is_empty() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn matches_reference_writer_bytes() {
        let chunks: [(u64, u32); 7] = [
            (0b1, 1),
            (0x7FFF, 17),
            (u64::MAX, 64),
            (0, 5),
            (0xDEAD_BEEF, 32),
            (1, 64),
            (0b101, 3),
        ];
        let mut w = BitWriter::new();
        let mut s = super::super::reference::BitWriter::new();
        for &(v, n) in &chunks {
            w.write_bits(v, n);
            s.write_bits(v, n);
            assert_eq!(w.bit_len(), s.bit_len());
        }
        assert_eq!(w.into_bytes(), s.into_bytes());
    }

    #[test]
    fn peek_and_consume_track_read_bits() -> Result<()> {
        let mut w = BitWriter::new();
        w.write_bits(0b1100_1010, 8);
        w.write_bits(0x3FF, 10);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (word, avail) = r.peek();
        assert_eq!(avail, 24); // 18 bits written, padded to 3 bytes
        assert_eq!(word >> 56, 0b1100_1010);
        r.consume(8);
        assert_eq!(r.read_bits(10)?, 0x3FF);
        // Only padding remains.
        let (_, avail) = r.peek();
        assert_eq!(avail, 6);
        Ok(())
    }

    #[test]
    fn straddling_reads_after_peek() -> Result<()> {
        // Force reads that straddle the accumulator refill boundary.
        let mut w = BitWriter::new();
        for i in 0..40u64 {
            w.write_bits(i, 13);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for i in 0..40u64 {
            let _ = r.peek();
            assert_eq!(r.read_bits(13)?, i);
        }
        Ok(())
    }
}
