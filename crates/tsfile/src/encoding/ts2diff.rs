//! Byte-varint delta-of-delta encoding for timestamp columns.
//!
//! Named after IoTDB's default timestamp encoding, TS_2DIFF, but not
//! laid out like it: IoTDB's `DeltaBinaryEncoder` subtracts a block's
//! smallest delta and bit-packs the rest at one width, which is what a
//! page's packed timestamp form does ([`super::packed`]). This stream
//! spends at least a byte a point: sensor timestamps are mostly regular
//! (the paper's §3.5 step observation), so second-order deltas are near
//! zero and zigzag-varint encode to one byte each.
//!
//! Layout: `varint(first)` `varint_i(first_delta)` then for each
//! remaining point `varint_i(delta_of_delta)`.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::varint;
use crate::Result;

/// Encode a (not necessarily regular) increasing timestamp column.
/// Works for any i64 sequence; compression is best when deltas repeat.
pub fn encode(ts: &[i64], out: &mut Vec<u8>) {
    let Some((&first, rest)) = ts.split_first() else {
        return;
    };
    varint::write_i64(out, first);
    let mut prev_ts = first;
    // The first delta is written raw; later ones as delta-of-delta.
    let mut prev_delta: Option<i64> = None;
    for &t in rest {
        let delta = t.wrapping_sub(prev_ts);
        match prev_delta {
            None => varint::write_i64(out, delta),
            Some(pd) => varint::write_i64(out, delta.wrapping_sub(pd)),
        }
        prev_delta = Some(delta);
        prev_ts = t;
    }
}

/// Decode `n` timestamps produced by [`encode`].
///
/// Chunked form of the scalar loop retained in
/// [`super::reference::ts2diff_decode`]: when the next 8 bytes are all
/// single-byte varints (every delta-of-delta in `[-64, 63]` — the
/// regular-timestamp common case), one word load replaces 8 byte-loop
/// varint reads and the 8 prefix sums run branch-free; elsewhere the
/// word-at-a-time varint reader takes over. Output, byte consumption
/// and errors are identical to the reference (pinned by proptest).
pub fn decode(buf: &[u8], n: usize) -> Result<Vec<i64>> {
    // `n` comes from on-disk metadata; see `cap_for` for why the
    // reservation is capped.
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
    while out.len() < n {
        if n - out.len() >= 8 {
            let window = pos.checked_add(8).and_then(|end| buf.get(pos..end));
            if let Some(window) = window {
                let mut wb = [0u8; 8];
                for (dst, src) in wb.iter_mut().zip(window) {
                    *dst = *src;
                }
                let word = u64::from_le_bytes(wb);
                if word & varint::CONT_MASK == 0 {
                    let mut k = 0u32;
                    while k < 8 {
                        let dod = varint::unzigzag((word >> (8 * k)) & 0x7f);
                        delta = delta.wrapping_add(dod);
                        cur = cur.wrapping_add(delta);
                        out.push(cur);
                        k += 1;
                    }
                    pos += 8;
                    continue;
                }
            }
        }
        let dod = varint::read_i64_fast(buf, &mut pos)?;
        delta = delta.wrapping_add(dod);
        cur = cur.wrapping_add(delta);
        out.push(cur);
    }
    Ok(out)
}

/// Decode at most `n` timestamps, stopping early once a decoded value
/// exceeds `limit` (that value is still included so callers can see the
/// crossing point). This is the storage-level "partial scan": the
/// paper's Figure 7(b) notes there is no need to scan times greater
/// than the probe timestamp.
pub fn decode_until(buf: &[u8], n: usize, limit: i64) -> Result<Vec<i64>> {
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
        // The per-value limit check keeps the loop scalar, but the
        // word-at-a-time varint read still removes the byte loop
        // (identical semantics to `reference::ts2diff_decode_until`).
        let dod = varint::read_i64_fast(buf, &mut pos)?;
        delta = delta.wrapping_add(dod);
        cur = cur.wrapping_add(delta);
        out.push(cur);
        if cur > limit {
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing)]

    use super::*;

    fn roundtrip(ts: &[i64]) -> Result<()> {
        let mut buf = Vec::new();
        encode(ts, &mut buf);
        assert_eq!(decode(&buf, ts.len())?, ts);
        Ok(())
    }

    #[test]
    fn empty_and_singleton() -> Result<()> {
        roundtrip(&[])?;
        roundtrip(&[42])?;
        roundtrip(&[i64::MIN])
    }

    #[test]
    fn regular_interval_compresses_hard() -> Result<()> {
        let ts: Vec<i64> = (0..10_000).map(|i| 1_639_966_606_000 + i * 9000).collect();
        let mut buf = Vec::new();
        encode(&ts, &mut buf);
        // All deltas-of-deltas are zero → ~1 byte per point after the head.
        assert!(buf.len() < ts.len() + 32, "got {} bytes", buf.len());
        assert_eq!(decode(&buf, ts.len())?, ts);
        Ok(())
    }

    #[test]
    fn irregular_still_exact() -> Result<()> {
        let ts = vec![0, 5, 5, 7, 100, 101, 1_000_000, 1_000_001];
        roundtrip(&ts)
    }

    #[test]
    fn decreasing_and_negative_timestamps() -> Result<()> {
        // The codec itself does not require monotonicity.
        roundtrip(&[100, 50, -50, -51, 0])
    }

    #[test]
    fn extreme_values() -> Result<()> {
        roundtrip(&[i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN])
    }

    #[test]
    fn decode_until_stops_early() -> Result<()> {
        let ts: Vec<i64> = (0..1000).map(|i| i * 10).collect();
        let mut buf = Vec::new();
        encode(&ts, &mut buf);
        let partial = decode_until(&buf, ts.len(), 505)?;
        // Includes the first crossing value (510), nothing after.
        assert_eq!(partial.last().copied(), Some(510));
        assert_eq!(partial.len(), 52);
        assert_eq!(&partial[..51], &ts[..51]);
        Ok(())
    }

    #[test]
    fn decode_until_past_end_returns_all() -> Result<()> {
        let ts: Vec<i64> = (0..100).map(|i| i * 3).collect();
        let mut buf = Vec::new();
        encode(&ts, &mut buf);
        assert_eq!(decode_until(&buf, ts.len(), i64::MAX)?, ts);
        Ok(())
    }

    #[test]
    fn decode_until_before_start_returns_one() -> Result<()> {
        let ts: Vec<i64> = (10..50).collect();
        let mut buf = Vec::new();
        encode(&ts, &mut buf);
        assert_eq!(decode_until(&buf, ts.len(), 0)?, vec![10]);
        Ok(())
    }

    #[test]
    fn truncated_buffer_errors() {
        let ts: Vec<i64> = (0..100).map(|i| i * 7).collect();
        let mut buf = Vec::new();
        encode(&ts, &mut buf);
        buf.truncate(buf.len() / 2);
        assert!(decode(&buf, ts.len()).is_err());
    }

    #[test]
    fn matches_scalar_reference() -> Result<()> {
        use super::super::reference;
        let shapes: [Vec<i64>; 4] = [
            (0..5000).map(|i| 1_600_000_000_000 + i * 9000).collect(),
            (0..500).map(|i| i * 9000 + (i % 7) * 13).collect(),
            vec![i64::MIN, i64::MAX, 0, -5, 1 << 50],
            vec![100, 50, -50, -51, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7],
        ];
        for ts in &shapes {
            let mut buf = Vec::new();
            encode(ts, &mut buf);
            assert_eq!(
                decode(&buf, ts.len())?,
                reference::ts2diff_decode(&buf, ts.len())?
            );
            for limit in [i64::MIN, 0, ts[ts.len() / 2], i64::MAX] {
                assert_eq!(
                    decode_until(&buf, ts.len(), limit)?,
                    reference::ts2diff_decode_until(&buf, ts.len(), limit)?
                );
            }
        }
        Ok(())
    }
}
