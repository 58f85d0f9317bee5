//! Column encodings for timestamps and values.
//!
//! IoTDB encodes chunk columns before writing (the paper cites encoding
//! work [Xiao et al., VLDB'22] and attributes part of the chunk-load cost
//! to decompression). We implement the two encodings IoTDB defaults to
//! for time series, plus a plain encoding for comparison/ablation:
//!
//! * [`ts2diff`] — delta-of-delta for (mostly regular) timestamps.
//! * [`gorilla`] — XOR-based float compression for values.
//! * [`plain`] — raw little-endian, used as a baseline and for tests.
//!
//! Beside the configured codecs, a page may store its values as
//! [`decimal`] scaled integers, and either column as [`packed`] deltas;
//! the page chooses from its own columns (see the `page` module), so
//! those forms have no [`EncodingKind`]. Both are built on one kernel,
//! [`packed`]'s frame-of-reference bit-packing with exceptions.
//!
//! All encoders take a slice and append to a `Vec<u8>`; all decoders
//! take a byte slice and return a vector. Round-trips are exact.

pub mod bitio;
pub mod decimal;
pub mod gorilla;
pub mod packed;
pub mod plain;
pub mod reference;
pub mod ts2diff;

use crate::Result;

/// Audited preallocation cap for decoders whose claimed point count
/// `n` comes from on-disk metadata.
///
/// Every codec spends at least one bit per value (Gorilla's repeat
/// control bit) and at most the whole buffer on the first value, so
/// `bytes_present * 8 + 1` bounds how many values `bytes_present`
/// bytes can possibly encode. Capping `Vec::with_capacity` at that
/// bound means a corrupt count over a tiny buffer cannot over-reserve
/// (let alone OOM) before the decode loop runs dry — the decoder still
/// fails with `UnexpectedEof`, it just fails cheaply. Both arithmetic
/// steps saturate so `n = usize::MAX` stays harmless.
#[inline]
pub fn cap_for(n: usize, bytes_present: usize) -> usize {
    n.min(bytes_present.saturating_mul(8).saturating_add(1))
}

/// Which encoding a chunk column uses; stored in the chunk header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    Plain = 0,
    Ts2Diff = 1,
    Gorilla = 2,
}

impl EncodingKind {
    /// Decode the on-disk tag byte.
    pub fn from_u8(v: u8) -> Result<Self> {
        match v {
            0 => Ok(EncodingKind::Plain),
            1 => Ok(EncodingKind::Ts2Diff),
            2 => Ok(EncodingKind::Gorilla),
            other => Err(crate::TsFileError::Corrupt(format!(
                "unknown encoding tag {other}"
            ))),
        }
    }
}

/// Encode a timestamp column with the given encoding.
pub fn encode_timestamps(kind: EncodingKind, ts: &[i64], out: &mut Vec<u8>) {
    match kind {
        EncodingKind::Plain => plain::encode_i64(ts, out),
        EncodingKind::Ts2Diff => ts2diff::encode(ts, out),
        EncodingKind::Gorilla => {
            // Gorilla is a float codec; reinterpreting would lose the
            // delta structure. Fall back to ts2diff for timestamps.
            ts2diff::encode(ts, out)
        }
    }
}

/// A lower bound on the bytes [`encode_timestamps`] writes for `ts`,
/// computed without writing (exact for plain; a ts2diff stream spends
/// at least one byte a point).
pub fn timestamps_len_at_least(kind: EncodingKind, ts: &[i64]) -> usize {
    match kind {
        EncodingKind::Plain => ts.len() * 8,
        EncodingKind::Ts2Diff | EncodingKind::Gorilla => ts.len(),
    }
}

/// Encode a value column with the given encoding.
pub fn encode_values(kind: EncodingKind, vs: &[f64], out: &mut Vec<u8>) {
    match kind {
        EncodingKind::Plain => plain::encode_f64(vs, out),
        EncodingKind::Gorilla => gorilla::encode(vs, out),
        EncodingKind::Ts2Diff => {
            // ts2diff is an integer codec; for values fall back to Gorilla.
            gorilla::encode(vs, out)
        }
    }
}

/// The bytes [`encode_values`] writes for `vs`, exactly, when they are
/// at most `cap`, else `None`: computed without writing, and no further
/// than `cap` needs.
pub fn values_len_within(kind: EncodingKind, vs: &[f64], cap: usize) -> Option<usize> {
    match kind {
        EncodingKind::Plain => Some(vs.len() * 8).filter(|&len| len <= cap),
        EncodingKind::Gorilla | EncodingKind::Ts2Diff => gorilla::encoded_len_within(vs, cap),
    }
}

/// Decode a value column.
pub fn decode_values(kind: EncodingKind, buf: &[u8], n: usize) -> Result<Vec<f64>> {
    match kind {
        EncodingKind::Plain => plain::decode_f64(buf, n),
        EncodingKind::Gorilla | EncodingKind::Ts2Diff => gorilla::decode(buf, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tag_roundtrip() -> crate::Result<()> {
        for k in [
            EncodingKind::Plain,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
        ] {
            assert_eq!(EncodingKind::from_u8(k as u8)?, k);
        }
        assert!(EncodingKind::from_u8(77).is_err());
        Ok(())
    }

    #[test]
    fn cap_for_bounds_reservation() {
        // Honest counts pass through; hostile counts clamp to what the
        // buffer could hold.
        assert_eq!(cap_for(100, 1024), 100);
        assert_eq!(cap_for(usize::MAX, 4), 33);
        assert_eq!(cap_for(usize::MAX, 0), 1);
        assert_eq!(cap_for(usize::MAX, usize::MAX), usize::MAX);
        assert_eq!(cap_for(0, 1024), 0);
    }

    #[test]
    fn dispatch_roundtrip_all_kinds() -> crate::Result<()> {
        let ts: Vec<i64> = (0..500).map(|i| i * 9000 + (i % 7)).collect();
        let vs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 100.0).collect();
        for k in [
            EncodingKind::Plain,
            EncodingKind::Ts2Diff,
            EncodingKind::Gorilla,
        ] {
            let mut tb = Vec::new();
            encode_timestamps(k, &ts, &mut tb);
            assert!(timestamps_len_at_least(k, &ts) <= tb.len());
            // Timestamps decode through `page::decode_ts_column`'s own
            // dispatch; mirror it here.
            let back = match k {
                EncodingKind::Plain => plain::decode_i64(&tb, ts.len())?,
                EncodingKind::Ts2Diff | EncodingKind::Gorilla => ts2diff::decode(&tb, ts.len())?,
            };
            assert_eq!(back, ts);
            let mut vb = Vec::new();
            encode_values(k, &vs, &mut vb);
            assert_eq!(values_len_within(k, &vs, vb.len()), Some(vb.len()));
            assert_eq!(values_len_within(k, &vs, vb.len() - 1), None);
            assert_eq!(decode_values(k, &vb, vs.len())?, vs);
        }
        Ok(())
    }
}
