//! Gorilla XOR float compression (Pelkonen et al., VLDB 2015), the codec
//! IoTDB uses for DOUBLE columns.
//!
//! Each value is XORed with its predecessor. A zero XOR writes a single
//! `0` bit. Otherwise a `1` control bit is followed by either
//! `0` (meaningful bits fit inside the previous leading/trailing-zero
//! window; write only the inner block) or `1` (write 5 bits of leading
//! zero count, 6 bits of block length, then the block).

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use super::bitio::{BitReader, BitWriter};
use crate::cast;
use crate::error::TsFileError;
use crate::Result;

/// Where the encoder's fields go: a [`BitWriter`], or a count of their
/// bits.
trait Sink {
    fn bit(&mut self, bit: bool);
    fn bits(&mut self, value: u64, nbits: u32);
    /// Whether the rest of the column may be skipped.
    fn done(&self) -> bool;
}

impl Sink for BitWriter {
    #[inline]
    fn bit(&mut self, bit: bool) {
        self.write_bit(bit);
    }

    #[inline]
    fn bits(&mut self, value: u64, nbits: u32) {
        self.write_bits(value, nbits);
    }

    #[inline]
    fn done(&self) -> bool {
        false
    }
}

/// Bits a stream would take, counted and not written, and the count
/// past which the rest need not be counted.
struct BitCount {
    bits: usize,
    cap: usize,
}

impl Sink for BitCount {
    #[inline]
    fn bit(&mut self, _: bool) {
        self.bits += 1;
    }

    #[inline]
    fn bits(&mut self, _: u64, nbits: u32) {
        self.bits += cast::usize_from_u32(nbits);
    }

    #[inline]
    fn done(&self) -> bool {
        self.bits > self.cap
    }
}

/// The encoder's control logic over a non-empty column: every field it
/// writes, in stream order, goes to `sink`.
#[inline]
fn walk(first: f64, rest: &[f64], sink: &mut impl Sink) {
    let mut prev = first.to_bits();
    sink.bits(prev, 64);
    let mut prev_leading: u32 = u32::MAX; // "no previous window"
    let mut prev_trailing: u32 = 0;
    for &v in rest {
        if sink.done() {
            return;
        }
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            sink.bit(false);
            continue;
        }
        sink.bit(true);
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        if prev_leading != u32::MAX && leading >= prev_leading && trailing >= prev_trailing {
            // Reuse previous window.
            sink.bit(false);
            let sig = 64 - prev_leading - prev_trailing;
            sink.bits(xor >> prev_trailing, sig);
        } else {
            sink.bit(true);
            let sig = 64 - leading - trailing; // ≥ 1 since xor != 0
            sink.bits(u64::from(leading), 5);
            // sig ∈ [1, 64]; store sig-1 in 6 bits.
            sink.bits(u64::from(sig - 1), 6);
            sink.bits(xor >> trailing, sig);
            prev_leading = leading;
            prev_trailing = trailing;
        }
    }
}

/// Encode a float column.
pub fn encode(values: &[f64], out: &mut Vec<u8>) {
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    let mut w = BitWriter::new();
    walk(first, rest, &mut w);
    out.extend_from_slice(&w.into_bytes());
}

/// The bytes [`encode`] writes for `values`, exactly: its control logic
/// run over a bit count, writing nothing.
pub fn encoded_len(values: &[f64]) -> usize {
    encoded_len_within(values, usize::MAX).unwrap_or(usize::MAX)
}

/// [`encoded_len`] when it is at most `cap`, else `None` — known, and
/// the count stopped, as soon as the bits counted pass `cap` bytes.
pub fn encoded_len_within(values: &[f64], cap: usize) -> Option<usize> {
    let Some((&first, rest)) = values.split_first() else {
        return Some(0);
    };
    let mut count = BitCount {
        bits: 0,
        cap: cap.saturating_mul(8),
    };
    walk(first, rest, &mut count);
    (!count.done()).then(|| count.bits.div_ceil(8))
}

/// Decode `n` floats produced by [`encode`].
///
/// Chunked form of the scalar loop retained in
/// [`super::reference::gorilla_decode`]: runs of `0` control bits
/// (repeated values — the dominant case for slowly-moving sensors) are
/// counted with one `leading_zeros` over the peeked word and emitted in
/// bulk, and the control/window-header bits are read as 2- and 11-bit
/// groups instead of bit-by-bit. Byte consumption, output and errors
/// are identical to the reference; the proptest suite pins this.
pub fn decode(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    // `n` comes from on-disk metadata; see `cap_for` for why the
    // reservation is capped.
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
    while out.len() < n {
        // Bulk path: each leading `0` in the peeked word is one "xor
        // was zero" control bit, i.e. one repeat of `prev`.
        let (word, avail) = r.peek();
        let zeros = word.leading_zeros().min(avail);
        if zeros > 0 {
            let remaining = u32::try_from(n - out.len()).unwrap_or(u32::MAX);
            let run = zeros.min(remaining);
            r.consume(run);
            let v = f64::from_bits(prev);
            for _ in 0..run {
                out.push(v);
            }
            continue;
        }
        // The next control bit is `1` (or the stream is exhausted and
        // this read fails exactly where the reference would): read it
        // together with the window-select bit.
        let ctl = r.read_bits(2)?;
        debug_assert!(ctl & 0b10 != 0);
        if ctl & 1 == 1 {
            // New window: 5 bits of leading-zero count, 6 bits of
            // sig-1, read as one 11-bit group. low32 is bit-exact here.
            let hdr = r.read_bits(11)?;
            leading = cast::low32(hdr >> 6);
            let sig = cast::low32(hdr & 0x3f) + 1;
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

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing, clippy::as_conversions)]

    use super::*;

    fn roundtrip(vs: &[f64]) -> Result<()> {
        let mut buf = Vec::new();
        encode(vs, &mut buf);
        let back = decode(&buf, vs.len())?;
        assert_eq!(back.len(), vs.len());
        for (a, b) in vs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bitwise mismatch {a} vs {b}");
        }
        Ok(())
    }

    #[test]
    fn empty_and_singleton() -> Result<()> {
        roundtrip(&[])?;
        roundtrip(&[3.25])?;
        roundtrip(&[f64::NAN])
    }

    #[test]
    fn constant_series_is_tiny() -> Result<()> {
        let vs = vec![21.5f64; 4096];
        let mut buf = Vec::new();
        encode(&vs, &mut buf);
        // 64 bits head + 1 bit per repeat → ~520 bytes.
        assert!(buf.len() < 600, "got {} bytes", buf.len());
        roundtrip(&vs)
    }

    #[test]
    fn slowly_varying_sensor_series() -> Result<()> {
        let vs: Vec<f64> = (0..5000).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect();
        roundtrip(&vs)
    }

    #[test]
    fn adversarial_bit_patterns() -> Result<()> {
        let vs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x0000_0000_0000_0001),
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF),
            1.0,
        ];
        roundtrip(&vs)
    }

    #[test]
    fn alternating_extremes() -> Result<()> {
        let vs: Vec<f64> = (0..1000)
            .map(|i| {
                if i % 2 == 0 {
                    f64::MAX
                } else {
                    f64::MIN_POSITIVE
                }
            })
            .collect();
        roundtrip(&vs)
    }

    #[test]
    fn leading_zeros_capped_at_31() -> Result<()> {
        // xor with > 31 leading zeros exercises the `.min(31)` cap path.
        let a = 1.0f64;
        let b = f64::from_bits(a.to_bits() ^ 1); // 63 leading zeros in xor
        roundtrip(&[a, b, a, b])
    }

    #[test]
    fn truncated_stream_errors() {
        let vs: Vec<f64> = (0..100).map(|i| i as f64 * 1.7).collect();
        let mut buf = Vec::new();
        encode(&vs, &mut buf);
        buf.truncate(4);
        assert!(decode(&buf, vs.len()).is_err());
    }

    #[test]
    fn matches_scalar_reference() -> Result<()> {
        use super::super::reference;
        let shapes: [Vec<f64>; 4] = [
            vec![21.5; 2000],
            (0..3000).map(|i| 20.0 + (i as f64 * 0.01).sin()).collect(),
            (0..500)
                .map(|i| {
                    if i % 2 == 0 {
                        f64::MAX
                    } else {
                        f64::MIN_POSITIVE
                    }
                })
                .collect(),
            vec![1.0, f64::NAN, -0.0, f64::INFINITY, 1.0, 1.0],
        ];
        for vs in &shapes {
            let mut fast = Vec::new();
            encode(vs, &mut fast);
            let mut slow = Vec::new();
            reference::gorilla_encode(vs, &mut slow);
            assert_eq!(fast, slow, "encoder byte divergence");
            let a = decode(&fast, vs.len())?;
            let b = reference::gorilla_decode(&fast, vs.len())?;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "decoder divergence");
        }
        Ok(())
    }
}
