//! Decimal value blocks: a page's values as scaled integers — ALP
//! (Afroozeh, Kuffó, Boncz, "ALP: Adaptive Lossless floating-Point
//! Compression", SIGMOD 2024).
//!
//! A sensor register holds values with a few decimals, on which
//! Gorilla's XOR spends six bytes or more each. Here a page has one
//! exponent/factor pair `(e, f)`; each value becomes the integer
//! `d = round(v · 10^e · 10^-f)`, kept only when `d · 10^f · 10^-e` has
//! exactly `v`'s bits. The kept integers are stored frame-of-reference
//! bit-packed. A value that does not round-trip — NaN, −0.0, ±inf, a
//! full-precision value, `|d| ≥ 2^53` — is an *exception*, stored raw
//! at its position:
//!
//! ```text
//! block = u8 e | u8 f | the bit-packed block of the n integers
//!         ([`super::packed`]: u8 w | varint_i base | n × w bits of d − base
//!          | varint k | k × (varint position, u64 LE bits of the value))
//! ```
//!
//! The factor matters because `10^-e` is inexact in binary: on a page
//! of two-decimal values `(2, 0)` can leave one value in seven
//! unrecoverable where `(14, 12)` — the same scale, rounded through a
//! different path — recovers all of them. Every pair with the same
//! `e − f` yields the same integers, so choosing a pair is choosing the
//! scale `e − f` (the most decimals a sample of the page shows) and
//! then the pair of that scale that leaves the fewest exceptions. The
//! sample is also the cheap test that turns a full-precision page away
//! before any full pass: such values show no decimal form at any scale.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use super::packed::{self, width, Frame};
use crate::cast;
use crate::error::TsFileError;
use crate::Result;

/// The largest exponent and factor: `10^18` is exact in `f64`.
const MAX_EXPONENT: u8 = 18;

/// `10^i`, exact for every `i` here.
const F10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// `10^-i`, each the nearest `f64` (inexact from `i = 1` on).
const IF10: [f64; 19] = [
    1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14,
    1e-15, 1e-16, 1e-17, 1e-18,
];

/// Kept integers stay below this magnitude (`2^53`), where every
/// integer is an exact `f64`.
const LIMIT: f64 = 9_007_199_254_740_992.0;

/// Values sampled to choose `(e, f)`, spread over the page.
const SAMPLES: usize = 16;

/// A value has a *short decimal form* when it is the `f64` nearest to
/// `d / 10^k` for some `|d|` below this: at most 15 significant digits,
/// every one of which a double holds exactly. A full-precision value
/// needs 16 or 17 and has none.
const SHORT_DIGITS: f64 = 1e15;

/// What the sample estimate charges an exception: its raw 64 bits plus
/// about a byte of position.
const EXCEPTION_BITS: usize = 72;

/// A page whose sample estimates at least this many bits a value — a
/// raw `f64` — is turned away before any full pass.
const REJECT_BITS: usize = 64;

/// A page whose first this many sampled values all lack a short decimal
/// form is taken for full precision and turned away without sampling
/// further.
const OPENING_MISSES: usize = 4;

/// One page's exponent/factor pair `(e, f)`, `f ≤ e ≤ 18`. The writer
/// carries the last one chosen from page to page, so a steady series
/// searches once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Exponents {
    e: u8,
    f: u8,
}

impl Exponents {
    fn scale(self) -> u8 {
        self.e - self.f
    }
}

/// The four powers one pair multiplies by: `10^e · 10^-f` to encode,
/// `10^f · 10^-e` to decode.
#[derive(Debug, Clone, Copy)]
struct Factors {
    e_up: f64,
    f_down: f64,
    f_up: f64,
    e_down: f64,
}

impl Factors {
    /// `None` when the pair is out of range (`f > e` or `e > 18`).
    fn of(p: Exponents) -> Option<Self> {
        if p.f > p.e {
            return None;
        }
        let (e, f) = (cast::usize_from_u8(p.e), cast::usize_from_u8(p.f));
        Some(Factors {
            e_up: *F10.get(e)?,
            f_down: *IF10.get(f)?,
            f_up: *F10.get(f)?,
            e_down: *IF10.get(e)?,
        })
    }

    #[inline]
    fn decode(&self, d: i64) -> f64 {
        cast::f64_from_i64(d) * self.f_up * self.e_down
    }

    /// `v`'s integer under this pair, if it round-trips bit for bit.
    #[inline]
    fn encode(&self, v: f64) -> Option<i64> {
        let d = self.encode_or_min(v);
        (d != i64::MIN).then_some(d)
    }

    /// [`Self::encode`] without a branch: `i64::MIN` (below every kept
    /// integer) for a value that does not round-trip.
    #[inline]
    fn encode_or_min(&self, v: f64) -> i64 {
        let x = round_even(v * self.e_up * self.f_down);
        // NaN and ±inf fail the magnitude test; the cast saturates.
        let d = cast::i64_from_integral(x);
        let exact = x.abs() < LIMIT && self.decode(d).to_bits() == v.to_bits();
        if exact {
            d
        } else {
            i64::MIN
        }
    }
}

/// `x` rounded to the nearest integer, ties to even, without a libm
/// call: below `2^52` in magnitude, adding and removing `2^52` leaves
/// no fraction bits; at or above it, `x` is integral already.
#[inline]
fn round_even(x: f64) -> f64 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let t = TWO_52.copysign(x);
    let rounded = (x + t) - t;
    if x.abs() < TWO_52 {
        rounded
    } else {
        x
    }
}

/// The fewest decimals `k` of `v`'s short decimal form (see
/// [`SHORT_DIGITS`]), or `None` for a value with none: full precision,
/// NaN, ±inf, huge.
///
/// One multiply decides most misses: with `k_max` the most decimals
/// that keep `|v · 10^k|` below `10^15`, a short form `d / 10^k` puts
/// `x = v · 10^k_max` within 0.23 of the integer `d · 10^(k_max − k)`
/// (half an ulp of `v` and the product's rounding, each at most
/// `|x| · 2^-53`). That integer's trailing decimal zeros then give `k`,
/// and a correctly rounded division confirms it.
fn decimals(v: f64) -> Option<u8> {
    let k_max = F10
        .partition_point(|&p| (v * p).abs() < SHORT_DIGITS)
        .checked_sub(1)?;
    let x = v * F10.get(k_max)?;
    let whole = round_even(x);
    if (x - whole).abs() > 0.25 {
        return None;
    }
    let mut d = cast::i64_from_integral(whole);
    if d == 0 {
        return (v.to_bits() == 0).then_some(0); // −0.0 and subnormals miss
    }
    // Strip up to `k_max` trailing zeros, 8, 4, 2 and 1 at a time: a
    // nonzero `|d| < 10^15` has at most 14.
    let mut k = k_max;
    for (step, p) in [(8, 100_000_000), (4, 10_000), (2, 100), (1, 10)] {
        if step <= k && d % p == 0 {
            d /= p;
            k -= step;
        }
    }
    let exact = (cast::f64_from_i64(d) / F10.get(k)?).to_bits() == v.to_bits();
    exact.then(|| cast::low8(cast::u64_from_usize(k)))
}

/// The carried pair's estimate in bits a value, when it recovers every
/// sampled value and no smaller scale could: a steady series takes this
/// path on every page after its first.
fn carried_fits(p: Exponents, sample: impl Iterator<Item = f64>) -> Option<usize> {
    let fs = Factors::of(p)?;
    let (mut lo, mut hi, mut all_tens) = (i64::MAX, i64::MIN, p.scale() > 0);
    for v in sample {
        let d = fs.encode(v)?;
        (lo, hi) = (lo.min(d), hi.max(d));
        all_tens &= d % 10 == 0;
    }
    let bits = cast::usize_from_u32(width(lo, hi));
    (!all_tens && bits < REJECT_BITS).then_some(bits)
}

/// Choose a page's pair from a sample of its values, trying `carried`
/// first, with the sample's estimate in bits a value: the bits of the
/// sampled range at the pair's scale, plus [`EXCEPTION_BITS`] for each
/// sampled value with no short decimal form. `None` when that estimate
/// is no better than raw doubles; a full-precision page is turned away
/// after [`OPENING_MISSES`] sampled values.
fn choose(values: &[f64], carried: Option<Exponents>) -> Option<(Exponents, usize)> {
    if values.is_empty() {
        return None;
    }
    // An odd stride, so values alternating in form (every other one a
    // half, say) cannot all fall between the samples.
    let step = (values.len() / SAMPLES) | 1;
    let sample = || values.iter().step_by(step).take(SAMPLES).copied();
    if let Some(p) = carried {
        if let Some(bits) = carried_fits(p, sample()) {
            return Some((p, bits));
        }
    }
    let taken = sample().count();
    let too_many = |misses: usize| misses * EXCEPTION_BITS >= REJECT_BITS * taken;
    let (mut scale, mut misses) = (0u8, 0usize);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, v) in sample().enumerate() {
        match decimals(v) {
            Some(k) => {
                scale = scale.max(k);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            None if misses == i && i + 1 == OPENING_MISSES => return None,
            None if too_many(misses + 1) => return None,
            None => misses += 1,
        }
    }
    // A range too wide for an `i64` saturates the cast, and its 63 bits
    // turn the page away.
    let range = round_even((hi - lo) * F10.get(usize::from(scale))?);
    let bits = cast::usize_from_u32(width(0, cast::i64_from_integral(range)))
        + (misses * EXCEPTION_BITS).div_ceil(taken);
    if bits >= REJECT_BITS {
        return None;
    }
    // A missed value is an exception under every pair; beyond those,
    // a pair is as good as it gets when it leaves none.
    let exceptions = |p: Exponents| match Factors::of(p) {
        Some(fs) => sample().filter(|&v| fs.encode(v).is_none()).count(),
        None => usize::MAX,
    };
    let pairs = (scale..=MAX_EXPONENT).map(|e| Exponents { e, f: e - scale });
    let mut best: Option<(usize, Exponents)> = None;
    for p in carried
        .filter(|p| p.scale() == scale)
        .into_iter()
        .chain(pairs)
    {
        let n = exceptions(p);
        if best.is_none_or(|(b, _)| n < b) {
            best = Some((n, p));
        }
        if n <= misses {
            break;
        }
    }
    best.map(|(_, p)| (p, bits))
}

/// A page's chosen pair and the block size its sample predicts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    pair: Exponents,
    estimate: usize,
}

impl Plan {
    /// The block size in bytes the sample predicts: the packed bits of
    /// its range and its exceptions, over the whole page.
    pub(crate) fn estimate(&self) -> usize {
        self.estimate
    }
}

/// Plan a decimal block for `values`: choose the pair from a sample,
/// trying `carry` first, and leave the pair chosen in `carry`. `None`
/// when the sample shows a page raw doubles would store as well (a
/// full-precision page); the page then keeps its XOR or plain stream.
pub(crate) fn plan(values: &[f64], carry: &mut Option<Exponents>) -> Option<Plan> {
    let (pair, bits) = choose(values, *carry)?;
    *carry = Some(pair);
    Some(Plan {
        pair,
        // e, f, w, and a varint base and count of about a byte each.
        estimate: 5 + (bits * values.len()).div_ceil(8),
    })
}

/// Encode `values` as the decimal block `plan` describes, appended to
/// `out`. Returns `false` and writes nothing when every value is an
/// exception.
pub(crate) fn encode(values: &[f64], plan: &Plan, out: &mut Vec<u8>) -> bool {
    let Some(fs) = Factors::of(plan.pair) else {
        return false;
    };
    let digits: Vec<i64> = values.iter().map(|&v| fs.encode_or_min(v)).collect();
    let kept = |d: i64| d != i64::MIN;
    if !digits.iter().any(|&d| kept(d)) {
        return false;
    }
    // A value that does not round-trip is `i64::MIN`, below every kept
    // integer; kept integers are below 2^53 in magnitude, so the width
    // is at most 54.
    out.extend_from_slice(&[plan.pair.e, plan.pair.f]);
    let value_bits = |i: usize, _| values.get(i).map_or(0, |v| v.to_bits());
    Frame::of(&digits, kept).write(&digits, value_bits, out);
    true
}

/// Encode `values` as the decimal block a page with no carried pair
/// plans, appended to `out`. Returns `false` and writes nothing when the
/// sample turns the page away or every value is an exception.
pub fn encode_values(values: &[f64], out: &mut Vec<u8>) -> bool {
    plan(values, &mut None).is_some_and(|plan| encode(values, &plan, out))
}

/// The pair of a block and its bit-packed integers.
fn parse(buf: &[u8], n: usize) -> Result<(Factors, packed::Block<'_>)> {
    let [e, f, ..] = *buf else {
        return Err(TsFileError::UnexpectedEof {
            what: "decimal header",
        });
    };
    let fs = Factors::of(Exponents { e, f }).ok_or_else(|| {
        TsFileError::Corrupt(format!(
            "decimal block: exponent {e} / factor {f} out of range"
        ))
    })?;
    Ok((fs, packed::parse(buf.get(2..).unwrap_or(&[]), n)?))
}

/// Check an `n`-value block's structure without unpacking it: the
/// header, the packed length, and the exception list.
pub fn verify(buf: &[u8], n: usize) -> Result<()> {
    let (_, block) = parse(buf, n)?;
    block.exceptions(n, |_, _| {})
}

/// Decode the `n` values of a decimal block.
pub fn decode(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    let (fs, block) = parse(buf, n)?;
    let mut out = Vec::with_capacity(n);
    block.unpack(n, |d| fs.decode(d), &mut out)?;
    block.exceptions(n, |at, raw| {
        if let Some(slot) = out.get_mut(at) {
            *slot = f64::from_bits(raw);
        }
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(
        clippy::indexing_slicing,
        clippy::as_conversions,
        clippy::unwrap_used,
        clippy::expect_used
    )]

    use super::*;

    fn roundtrip(vs: &[f64]) -> Result<Option<Vec<u8>>> {
        let mut buf = Vec::new();
        let Some(plan) = plan(vs, &mut None) else {
            return Ok(None);
        };
        assert!(encode(vs, &plan, &mut buf));
        let slack = buf.len().abs_diff(plan.estimate());
        assert!(
            slack * 4 <= buf.len() + 16,
            "estimate {} for {} bytes",
            plan.estimate(),
            buf.len()
        );
        verify(&buf, vs.len())?;
        let back = decode(&buf, vs.len())?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(vs));
        Ok(Some(buf))
    }

    /// `live_tail`'s register shape: two decimals around 225.
    fn two_decimal_page() -> Vec<f64> {
        (0..1000)
            .map(|i| (22_400 + (i * 7919) % 400) as f64 / 100.0)
            .collect()
    }

    #[test]
    fn two_decimals_pack_into_about_one_byte_each() -> Result<()> {
        let vs = two_decimal_page();
        let buf = roundtrip(&vs)?.expect("a two-decimal page is decimal");
        // 400 distinct hundredths: 9 bits a value, no exceptions.
        assert!(buf.len() < vs.len() * 9 / 8 + 16, "{} bytes", buf.len());
        Ok(())
    }

    #[test]
    fn the_factor_recovers_what_the_exponent_alone_cannot() {
        let vs = two_decimal_page();
        let misses = |e, f| {
            let fs = Factors::of(Exponents { e, f }).unwrap();
            vs.iter().filter(|&&v| fs.encode(v).is_none()).count()
        };
        assert!(misses(2, 0) > 0, "(2, 0) recovers every value");
        let (chosen, _) = choose(&vs, None).unwrap();
        assert_eq!(chosen.scale(), 2);
        assert_eq!(misses(chosen.e, chosen.f), 0, "{chosen:?}");
    }

    #[test]
    fn full_precision_is_rejected_by_the_sample() -> Result<()> {
        let vs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        assert_eq!(choose(&vs, None), None);
        // Nor does a carried pair let it through.
        let carried = Some(Exponents { e: 14, f: 12 });
        assert_eq!(choose(&vs, carried), None);
        assert!(roundtrip(&vs)?.is_none());
        Ok(())
    }

    #[test]
    fn equal_values_take_zero_bits() -> Result<()> {
        let buf = roundtrip(&[21.5; 1000])?.expect("decimal");
        assert_eq!(buf[2], 0, "width");
        assert!(buf.len() < 8, "{} bytes", buf.len());
        Ok(())
    }

    #[test]
    fn exceptions_round_trip_in_place() -> Result<()> {
        let mut vs: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        vs[3] = f64::NAN;
        vs[50] = -0.0;
        vs[120] = f64::INFINITY;
        vs[199] = std::f64::consts::PI;
        let buf = roundtrip(&vs)?.expect("decimal");
        // Four exceptions: positions 3, 50, 120, 199 at the tail.
        assert!(buf.len() > 4 * 9);
        Ok(())
    }

    #[test]
    fn the_carried_pair_is_reused_when_it_fits() {
        let vs = two_decimal_page();
        let mut carry = None;
        let first = plan(&vs, &mut carry).map(|p| p.pair);
        assert_eq!(carry, first);
        assert_eq!(choose(&vs[500..], first).map(|(p, _)| p), first);
        // A page whose integers all end in zero at that scale has a
        // smaller one: it searches again.
        let ints: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(choose(&ints, first).map(|(p, _)| p.scale()), Some(0));
        assert_eq!(plan(&[], &mut carry).map(|p| p.estimate()), None);
    }

    #[test]
    fn decimals_finds_the_shortest_form() {
        let cases: [(f64, Option<u8>); 14] = [
            (0.0, Some(0)),
            (100.0, Some(0)),
            (-7.0, Some(0)),
            (1.5, Some(1)),
            (225.37, Some(2)),
            (0.29, Some(2)), // 0.29 · 100 is not an integer in binary
            (1e-5, Some(5)),
            (123_456_789_012_345.0, Some(0)),
            (-0.0, None),
            (std::f64::consts::PI, None),
            (0.1 + 0.2, None),
            (1e15, None),
            (f64::NAN, None),
            (f64::from_bits(1), None),
        ];
        for (v, want) in cases {
            assert_eq!(decimals(v), want, "{v:?}");
        }
    }

    #[test]
    fn rounding_matches_round_half_even() {
        for (x, want) in [
            (0.5, 0.0),
            (1.5, 2.0),
            (-2.5, -2.0),
            (2.4999, 2.0),
            (-7.6, -8.0),
            (4_503_599_627_370_497.0, 4_503_599_627_370_497.0),
        ] {
            assert_eq!(round_even(x), want, "{x}");
        }
        assert!(round_even(f64::NAN).is_nan());
    }
}
