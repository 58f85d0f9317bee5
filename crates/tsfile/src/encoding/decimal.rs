//! Decimal values: a page's values as scaled integers — ALP
//! (Afroozeh, Kuffó, Boncz, "ALP: Adaptive Lossless floating-Point
//! Compression", SIGMOD 2024).
//!
//! A sensor register holds values with a few decimals, on which a
//! float's bits spend six bytes or more each. Here a page has one
//! exponent/factor pair `(e, f)`; each value becomes the integer
//! `d = round(v · 10^e · 10^-f)`, kept only when `d · 10^f · 10^-e` has
//! exactly `v`'s bits. A value that does not round-trip — NaN, −0.0,
//! ±inf, a full-precision value, `|d| ≥ 2^53` — has no integer. The
//! integers are the decimal transform of the one packed block
//! ([`super::packed`]), which frames them and lists the values without
//! one raw; this module chooses the pair.
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
//! It estimates no block's size: the packed chooser sizes the block
//! against the values' keys.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use super::packed::width;
use crate::cast;

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

/// `1.5 · 2^52`: a sum with any `|x| < 2^51` lies in `[2^52, 2^53)`,
/// where a double's unit in the last place is 1.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// [`LIMIT`] as a bound on `|d|`.
const INT_LIMIT: u64 = 1 << 53;

/// Values sampled to choose `(e, f)`, spread over the page.
const SAMPLES: usize = 16;

/// A value has a *short decimal form* when it is the `f64` nearest to
/// `d / 10^k` for some `|d|` below this: at most 15 significant digits,
/// every one of which a double holds exactly. A full-precision value
/// needs 16 or 17 and has none.
const SHORT_DIGITS: f64 = 1e15;

/// What the sample's turn-away test charges an exception: its raw 64
/// bits plus about a byte of position.
const EXCEPTION_BITS: usize = 72;

/// A page whose sample shows at least this many bits a value — a raw
/// `f64` — is turned away before any full pass.
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

    /// The pair `(e, f)`, `None` out of range (`f > e` or `e > 18`).
    pub(crate) fn of(e: u8, f: u8) -> Option<Self> {
        let p = Exponents { e, f };
        Factors::of(p).map(|_| p)
    }

    /// `e` and `f`, the two bytes a block's header holds.
    pub(crate) fn bytes(self) -> [u8; 2] {
        [self.e, self.f]
    }

    /// `v`'s integer under this pair, if it round-trips bit for bit.
    pub(crate) fn integer(self, v: f64) -> Option<i64> {
        Factors::of(self)?.encode(v)
    }

    /// The value of the integer `d` under this pair; `None` for
    /// `|d| ≥ 2^53`, which no value encodes to.
    pub(crate) fn value(self, d: i64) -> Option<f64> {
        let fs = Factors::of(self)?;
        (d.unsigned_abs() < INT_LIMIT).then(|| fs.decode(d))
    }
}

/// The pair under which every one of `values` has its integer:
/// `carried` when it holds them all, else the pair [`choose`] picks for
/// them. `None` when that pair leaves a value without one — NaN, −0.0,
/// ±inf, a full-precision value.
pub(crate) fn pair_for(values: &[f64], carried: Option<Exponents>) -> Option<Exponents> {
    let holds = |p: &Exponents| values.iter().all(|&v| p.integer(v).is_some());
    carried
        .filter(holds)
        .or_else(|| choose(values, carried).filter(holds))
}

/// The `n` values `first` and `last` imply, by position: `first` where
/// the two share their bits, else `(d0 + i·δ) / 10^k` correctly rounded
/// (as a reading parses; a pair's multiply misses a hundredth in seven),
/// `k` the most decimals either shows. `None` where an end has no short
/// form, `δ` is not whole, or the last step keeps the value (so the
/// extremes are the ends).
pub(crate) fn implied(first: f64, last: f64, n: usize) -> Option<impl Fn(usize) -> f64> {
    let (mut scale, mut d0, mut step) = (1.0, 0, 0);
    if first.to_bits() != last.to_bits() {
        scale = *F10.get(usize::from(decimals(first)?.max(decimals(last)?)))?;
        let integer = |v: f64| {
            let d = cast::i64_from_integral(round_even(v * scale));
            let exact = (cast::f64_from_i64(d) / scale).to_bits() == v.to_bits();
            (exact && d.unsigned_abs() < INT_LIMIT).then_some(d)
        };
        let steps = i64::try_from(n.checked_sub(1)?).ok().filter(|&s| s > 0)?;
        let span = integer(last)? - integer(first)?;
        (d0, step) = (integer(first)?, (span % steps == 0).then(|| span / steps)?);
    }
    let value = move |i: usize| match i64::try_from(i).map(|i| d0 + step * i) {
        Ok(d) if step != 0 => cast::f64_from_i64(d) / scale,
        _ => first,
    };
    (step == 0 || value(n - 2).to_bits() != last.to_bits()).then_some(value)
}

/// The four powers one pair multiplies by: `10^e · 10^-f` to encode,
/// `10^f · 10^-e` to decode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Factors {
    e_up: f64,
    f_down: f64,
    f_up: f64,
    e_down: f64,
}

impl Factors {
    /// `None` when the pair is out of range (`f > e` or `e > 18`).
    pub(crate) fn of(p: Exponents) -> Option<Self> {
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
    pub(crate) fn decode(&self, d: i64) -> f64 {
        cast::f64_from_i64(d) * self.f_up * self.e_down
    }

    /// `v`'s integer under this pair, if it round-trips bit for bit.
    #[inline]
    pub(crate) fn encode(&self, v: f64) -> Option<i64> {
        let d = self.encode_or_min(v);
        (d != i64::MIN).then_some(d)
    }

    /// [`Self::encode`] without a branch: `i64::MIN` (below every kept
    /// integer) for a value that does not round-trip.
    #[inline]
    pub(crate) fn encode_or_min(&self, v: f64) -> i64 {
        let scaled = v * self.e_up * self.f_down;
        // Below 2^51, adding 1.5 · 2^52 leaves the integer nearest (ties
        // to even) in the low mantissa bits: `d` with no conversion, and
        // its value `x` exactly. NaN and ±inf take the other way, and
        // fail the magnitude test; the cast saturates.
        let (d, x) = if scaled.abs() < MAGIC / 3.0 {
            let y = scaled + MAGIC;
            let d = cast::i64_bits(y.to_bits()).wrapping_sub(cast::i64_bits(MAGIC.to_bits()));
            (d, y - MAGIC)
        } else {
            let x = round_even(scaled);
            (cast::i64_from_integral(x), x)
        };
        let exact = x.abs() < LIMIT && (x * self.f_up * self.e_down).to_bits() == v.to_bits();
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

/// The stride of the sample over `n` values: an odd one, so values
/// alternating in form (every other one a half, say) cannot all fall
/// between the samples.
fn sample_step(n: usize) -> usize {
    (n / SAMPLES) | 1
}

/// Whether the carried pair recovers every sampled value, no smaller
/// scale could, and the sampled range is narrower than a raw double: a
/// steady series takes this path on every page after its first.
fn carried_fits(p: Exponents, sample: impl Iterator<Item = f64>) -> bool {
    let Some(fs) = Factors::of(p) else {
        return false;
    };
    let (mut lo, mut hi, mut all_tens) = (i64::MAX, i64::MIN, p.scale() > 0);
    for v in sample {
        let Some(d) = fs.encode(v) else {
            return false;
        };
        (lo, hi) = (lo.min(d), hi.max(d));
        all_tens &= d % 10 == 0;
    }
    !all_tens && cast::usize_from_u32(width(lo, hi)) < REJECT_BITS
}

/// Choose a page's pair from a sample of its values, trying `carried`
/// first. `None` when the sample's bits a value — the bits of its range
/// at the pair's scale, plus [`EXCEPTION_BITS`] for each sampled value
/// with no short decimal form — are no fewer than raw doubles'; a
/// full-precision page is turned away after [`OPENING_MISSES`] sampled
/// values.
fn choose(values: &[f64], carried: Option<Exponents>) -> Option<Exponents> {
    if values.is_empty() {
        return None;
    }
    let sample = || {
        values
            .iter()
            .step_by(sample_step(values.len()))
            .take(SAMPLES)
            .copied()
    };
    if let Some(p) = carried.filter(|&p| carried_fits(p, sample())) {
        return Some(p);
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
    best.map(|(_, p)| p)
}

/// The pair of a decimal block for `values`, chosen from a sample,
/// trying `carry` first, and left in `carry`. `None` when the sample
/// shows a page raw doubles would store as well (a full-precision page).
/// The sample sizes nothing: the page holds the block, sized exactly,
/// against the packed values.
pub(crate) fn plan(values: &[f64], carry: &mut Option<Exponents>) -> Option<Exponents> {
    choose(values, *carry).inspect(|&pair| *carry = Some(pair))
}

/// The pairs of `pair`'s scale, from `(scale, 0)` up, with their
/// factors.
pub(crate) fn siblings(pair: Exponents) -> impl Iterator<Item = (Exponents, Factors)> {
    let scale = pair.scale();
    (scale..=MAX_EXPONENT).filter_map(move |e| {
        let sibling = Exponents::of(e, e - scale)?;
        Some((sibling, Factors::of(sibling)?))
    })
}

/// The pair of the most decimals the values without an integer
/// (`i64::MIN` in `integers`) show, where that scale exceeds `pair`'s.
pub(crate) fn replan(values: &[f64], integers: &[i64], pair: Exponents) -> Option<Exponents> {
    let missed = integers.iter().zip(values).filter(|(&d, _)| !kept(d));
    let scale = missed.filter_map(|(_, &v)| decimals(v)).max()?;
    Exponents::of(scale, 0).filter(|p| p.scale() > pair.scale())
}

/// Whether an integer of [`Factors::encode_or_min`] was kept: `i64::MIN`
/// marks a value without one.
pub(crate) fn kept(d: i64) -> bool {
    d != i64::MIN
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
    use crate::encoding::packed::{self, Framing, Ints, Transform};
    use crate::error::TsFileError;
    use crate::page::MAX_PAGE_POINTS;
    use crate::Result;
    use proptest::prelude::*;

    /// The block `pair` gives `vs` in the frame `only` (any with `None`):
    /// the packed chooser's over their decimal integers alone.
    fn framed(vs: &[f64], pair: Exponents, only: Option<Framing>) -> Option<Vec<u8>> {
        let ints = Ints::decimal(vs, pair)?;
        let mut buf = Vec::new();
        packed::choose([&ints], only)?.write(&mut buf);
        Some(buf)
    }

    fn encode(vs: &[f64], pair: Exponents, out: &mut Vec<u8>) -> bool {
        framed(vs, pair, None).map(|buf| out.extend(buf)).is_some()
    }

    fn roundtrip(vs: &[f64]) -> Result<Option<Vec<u8>>> {
        let Some(pair) = plan(vs, &mut None) else {
            return Ok(None);
        };
        let buf = framed(vs, pair, None).expect("a block");
        decodes_to(&buf, vs)?;
        Ok(Some(buf))
    }

    /// The ends of `vs` as words.
    fn ends(vs: &[f64]) -> packed::Ends {
        (vs[0].to_bits(), vs[vs.len() - 1].to_bits())
    }

    /// `buf` verifies and decodes to `vs`, bit for bit.
    fn decodes_to(buf: &[u8], vs: &[f64]) -> Result<()> {
        packed::verify(buf, vs.len(), Transform::Decimal, ends(vs))?;
        let back = packed::decode(buf, vs.len(), Transform::Decimal, ends(vs))?;
        assert_eq!(back, vs.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        Ok(())
    }

    fn framing(buf: &[u8]) -> Result<Framing> {
        packed::framing(buf, Transform::Decimal)
    }

    /// `ingest_fleet`'s register shape: quarter units rising by one a
    /// point from `start`, wrapping after 2 000.
    fn sawtooth(start: i64, n: i64) -> Vec<f64> {
        (start..start + n)
            .map(|i| (i.rem_euclid(2_000) - 1_000) as f64 * 0.25)
            .collect()
    }

    #[test]
    fn a_sawtooth_packs_its_deltas_to_a_few_bytes() -> Result<()> {
        // The sample sits at multiples of 65: a wrap from position 520
        // to 521 follows a sampled value, one from 499 to 500 falls
        // between samples; and no wrap.
        for start in [1_479, 1_500, 0] {
            let vs = sawtooth(start, 1024);
            let pair = plan(&vs, &mut None).expect("quarter units are decimal");
            let mut buf = Vec::new();
            assert!(encode(&vs, pair, &mut buf));
            decodes_to(&buf, &vs)?;
            assert_eq!(framing(&buf)?, Framing::Delta);
            // d rises by 25: zero bits, and the wrap one exception.
            assert!(buf.len() <= 20, "{} bytes", buf.len());
            // The frame of reference pays the range: 15 or 16 bits.
            let reference = framed(&vs, pair, Some(Framing::Reference)).unwrap();
            assert!(reference.len() > 1024 * 15 / 8, "{} bytes", reference.len());
            decodes_to(&reference, &vs)?;
        }
        Ok(())
    }

    #[test]
    fn a_wrap_between_the_samples_still_takes_the_delta_frame() -> Result<()> {
        // The sample sits at multiples of 65: the wrap falls between two.
        let vs = sawtooth(1_970, 1024);
        assert!((0..1024).step_by(65).all(|i| vs[i] < vs[i + 1]));
        let pair = plan(&vs, &mut None).unwrap();
        let mut buf = Vec::new();
        assert!(encode(&vs, pair, &mut buf));
        assert_eq!(framing(&buf)?, Framing::Delta);
        decodes_to(&buf, &vs)
    }

    #[test]
    fn noise_and_equal_values_keep_the_frame_of_reference() -> Result<()> {
        let mut state = 7u64;
        let noise: Vec<f64> = (0..1000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (22_400 + (state >> 33) % 400) as f64 / 100.0
            })
            .collect();
        // Equal values whose integer's varint is one byte tie the delta
        // frame's zero-bit deltas (a larger one's base outgrows its).
        for vs in [noise, vec![0.5; 1000]] {
            let pair = plan(&vs, &mut None).unwrap();
            let buf = roundtrip(&vs)?.unwrap();
            assert_eq!(framing(&buf)?, Framing::Reference);
            // Framed exactly, the deltas are no smaller either.
            let delta = framed(&vs, pair, Some(Framing::Delta)).unwrap();
            assert!(delta.len() >= buf.len(), "{} < {}", delta.len(), buf.len());
        }
        Ok(())
    }

    /// [`two_decimal_page`] steps by +3.19 or −0.81 (its residues rise by
    /// 319 mod 400): the delta frame keeps the one step at zero bits and
    /// lists the other by its distance, below the frame of reference's
    /// nine bits a value.
    #[test]
    fn a_page_of_two_steps_takes_the_delta_frame() -> Result<()> {
        let vs = two_decimal_page();
        let buf = roundtrip(&vs)?.unwrap();
        assert_eq!(framing(&buf)?, Framing::Delta);
        assert!(buf.len() <= 800, "{} bytes", buf.len());
        Ok(())
    }

    /// An exception keeps a ramp out of the delta frame; the frame of
    /// reference holds it raw, and so does the line frame, which the
    /// ramp takes: its residuals are zero bits.
    #[test]
    fn an_exception_keeps_the_frame_of_reference() -> Result<()> {
        for special in [f64::NAN, -0.0, f64::INFINITY, 5e-324, std::f64::consts::PI] {
            let mut vs = sawtooth(0, 500);
            vs[250] = special;
            let pair = Exponents { e: 2, f: 0 };
            assert!(framed(&vs, pair, Some(Framing::Delta)).is_none());
            let reference = framed(&vs, pair, Some(Framing::Reference)).unwrap();
            decodes_to(&reference, &vs)?;
            let buf = framed(&vs, pair, None).unwrap();
            assert_eq!(framing(&buf)?, Framing::Line);
            assert!(buf.len() <= 24, "{} bytes", buf.len());
            decodes_to(&buf, &vs)?;
        }
        Ok(())
    }

    /// A tie between the delta frame and the line frame goes to the
    /// delta frame.
    #[test]
    fn a_tie_goes_to_the_delta_frame() -> Result<()> {
        let vs = [
            1.4, 1.3, 1.16, 1.04, 0.93, 0.84, 0.7, 0.54, 0.45, 0.29, 0.16, 0.05, -0.03, -0.18,
            -0.32, -0.46, -0.59, -0.7, -0.84, -0.93, -1.06, -1.18, -1.33, -1.43, -1.55, -1.71,
            -1.8, -1.88, -2.04, -2.18, -2.26, -2.41,
        ];
        let pair = Exponents { e: 2, f: 0 };
        let len = |f| framed(&vs, pair, Some(f)).unwrap().len();
        assert_eq!(len(Framing::Delta), len(Framing::Line));
        assert!(len(Framing::Delta) < len(Framing::Reference));
        let buf = framed(&vs, pair, None).unwrap();
        assert_eq!(framing(&buf)?, Framing::Delta);
        decodes_to(&buf, &vs)
    }

    /// A delta frame its floor meets exactly, two bytes below the frame
    /// of reference, is sized and kept.
    #[test]
    fn a_delta_frame_at_its_floor_is_kept() -> Result<()> {
        let vs = [0.0, 5.0, 10.0, 15.0];
        let pair = Exponents { e: 0, f: 0 };
        let len = |f| framed(&vs, pair, Some(f)).unwrap().len();
        assert_eq!((len(Framing::Delta), len(Framing::Reference)), (5, 7));
        let buf = framed(&vs, pair, None).unwrap();
        assert_eq!(framing(&buf)?, Framing::Delta);
        decodes_to(&buf, &vs)
    }

    /// A block longer than a page fits no line, whose sums would
    /// overflow, and still encodes.
    #[test]
    fn a_block_past_the_page_ceiling_fits_no_line() {
        let vs = vec![21.5; MAX_PAGE_POINTS * 2];
        let pair = Exponents { e: 1, f: 0 };
        assert!(framed(&vs, pair, Some(Framing::Line)).is_none());
        assert!(framed(&vs, pair, None).is_some());
    }

    /// A delta frame of integers under (0, 0): the timestamp block of
    /// the same integers behind the pair.
    fn delta_block(first: i64, deltas: &[i64]) -> Vec<u8> {
        let ints: Vec<i64> = std::iter::once(first)
            .chain(deltas.iter().scan(first, |x, &d| {
                *x = x.wrapping_add(d);
                Some(*x)
            }))
            .collect();
        let mut buf = vec![0, 0];
        packed::encode(
            packed::Column::Timestamps(&ints),
            Some(Framing::Delta),
            &mut buf,
        );
        buf
    }

    #[test]
    fn running_sums_past_2_53_are_corrupt() -> Result<()> {
        let top = (1i64 << 53) - 1;
        let good = delta_block(top - 3, &[1, 1, 1]);
        decodes_to(
            &good,
            &[
                (top - 3) as f64,
                (top - 2) as f64,
                (top - 1) as f64,
                top as f64,
            ],
        )?;
        for (first, deltas) in [
            (top - 2, &[1, 1, 1][..]),
            (-top, &[-1][..]),
            (1 << 53, &[][..]),
            (0, &[i64::MAX, i64::MAX, 2][..]), // wraps back to 0
        ] {
            let bad = delta_block(first, deltas);
            let n = deltas.len() + 1;
            let last = deltas.iter().fold(first, |x, &d| x.wrapping_add(d));
            let ends = ((first as f64).to_bits(), (last as f64).to_bits());
            for got in [
                packed::decode(&bad, n, Transform::Decimal, ends).map(drop),
                packed::verify(&bad, n, Transform::Decimal, ends),
            ] {
                assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
            }
        }
        // A delta frame holds at least its first integer.
        let empty = delta_block(0, &[]);
        assert!(packed::decode(&empty, 0, Transform::Decimal, (0, 0)).is_err());
        assert!(packed::verify(&empty, 0, Transform::Decimal, (0, 0)).is_err());
        Ok(())
    }

    /// One of the page shapes the two frames are for, drawn from `seed`:
    /// a ramp at two decimals that wraps at most once, a counter in
    /// hundredths, equal values, a two-decimal walk, or integers within
    /// a walk's reach of ±2^53.
    fn shape(kind: u8, len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let step = 1 + (next() % 100) as i64;
        let period = len as i64 + (next() % 3000) as i64;
        let offset = (next() % period as u64) as i64;
        let mut level = (next() % 100_000) as i64;
        let sign = if next() % 2 == 0 { 1 } else { -1 };
        (0..len as i64)
            .map(|i| match kind {
                0 => ((i + offset) % period * step - 5_000) as f64 / 100.0,
                1 => {
                    level += (next() % 4) as i64;
                    level as f64 / 100.0
                }
                2 => level as f64 / 100.0,
                3 => {
                    level += (next() % 201) as i64 - 100;
                    level as f64 / 100.0
                }
                _ => {
                    level += (next() % 5) as i64 - 2;
                    (sign * ((1i64 << 53) - 1 - level.rem_euclid(1 << 20))) as f64
                }
            })
            .collect()
    }

    /// Values no block holds as an integer: NaN, −0.0, +inf, the
    /// smallest and largest subnormal, and π.
    const SPECIALS: [u64; 6] = [
        0x7ff8_0000_0000_0001,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x000f_ffff_ffff_ffff,
        0x4009_21fb_5444_2d18,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every shape round-trips bit-exact in the block its plan
        /// writes, the first of the smallest of the three exact frames;
        /// the delta frame exists only for a page with no exception. An
        /// exception-free ramp or counter takes it.
        #[test]
        fn the_smaller_frame_is_written_and_round_trips(
            kind in 0u8..5,
            len in 1usize..1_500,
            seed in any::<u64>(),
            special in any::<bool>(),
            at in any::<prop::sample::Index>(),
            which in 0..SPECIALS.len(),
        ) {
            let mut vs = shape(kind, len, seed);
            if special {
                vs[at.index(len)] = f64::from_bits(SPECIALS[which]);
            }
            // Integers near 2^53 have no short decimal form for the
            // sample: a writer reaches them with a carried pair.
            let mut carry = (kind == 4).then_some(Exponents { e: 0, f: 0 });
            let Some(pair) = plan(&vs, &mut carry) else {
                prop_assert!(special || kind == 4, "no plan");
                return Ok(());
            };
            let mut buf = Vec::new();
            if !encode(&vs, pair, &mut buf) {
                prop_assert!(special && len == 1);
                return Ok(());
            }
            decodes_to(&buf, &vs).unwrap();
            // Exact under the pair, or under a sibling the full pass
            // falls back to.
            let exact = (pair.scale()..=MAX_EXPONENT).any(|e| {
                let fs = Factors::of(Exponents { e, f: e - pair.scale() }).unwrap();
                vs.iter().all(|&v| fs.encode(v).is_some())
            });
            let delta = framed(&vs, pair, Some(Framing::Delta));
            prop_assert_eq!(delta.is_some(), exact);
            if let Some(delta) = &delta {
                decodes_to(delta, &vs).unwrap();
            }
            let reference = framed(&vs, pair, Some(Framing::Reference)).unwrap();
            decodes_to(&reference, &vs).unwrap();
            let line = framed(&vs, pair, Some(Framing::Line));
            if let Some(line) = &line {
                decodes_to(line, &vs).unwrap();
            }
            // The first of the smallest, in the order reference, delta,
            // line.
            let want = [Some(reference), delta, line]
                .into_iter()
                .flatten()
                .reduce(|best, next| if next.len() < best.len() { next } else { best })
                .unwrap();
            prop_assert_eq!(&buf, &want);
            if special {
                prop_assert!(framing(&buf).unwrap() != Framing::Delta);
            }
            if kind <= 1 && len >= 64 && exact {
                prop_assert_eq!(framing(&buf).unwrap(), Framing::Delta);
            }
        }
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
        let chosen = choose(&vs, None).unwrap();
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
        assert_eq!(buf[2] % 65, 0, "width");
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
        let first = plan(&vs, &mut carry);
        assert_eq!(carry, first);
        assert_eq!(choose(&vs[500..], first), first);
        // A page whose integers all end in zero at that scale has a
        // smaller one: it searches again.
        let ints: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(choose(&ints, first).map(|p| p.scale()), Some(0));
        assert_eq!(plan(&[], &mut carry), None);
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
    /// The blocks of every shape above — each kind at lengths from one
    /// value to past a page, with and without a special — and of a
    /// register drifting under noise are the bytes written before the
    /// line fit moved into [`packed`], but for the 84 of 1 038 blocks
    /// whose sampled pair leaves exceptions a sibling pair of its scale
    /// recovers: each of those holds fewer (64 810 B fewer in all).
    /// Their length and CRC, taken when the full pass began to choose,
    /// were `(236_819, 0xbba5_8588)` until window exceptions were listed
    /// by their distance: 40 delta frames then shrank and 6 blocks moved
    /// from the frame of reference to a smaller delta frame (559 B fewer
    /// in all); every other block kept its bytes. They were
    /// `(236_260, 0x1fa0_7467)` until every block became the one packed
    /// block: the frame moved from `e` to the width byte, a line's slope
    /// after it, and the blocks are a page's, so a delta frame leaves its
    /// head to FP.v; against the same page blocks before, every block
    /// kept its length but two delta frames, which keep every delta now
    /// that the chooser sizes that too (38 B fewer each; 2 048 B fewer in
    /// all).
    #[test]
    fn blocks_are_the_bytes_written_before_the_fit_moved() {
        let (mut all, mut frames) = (Vec::new(), [0usize; 3]);
        for kind in 0..6u8 {
            for len in [1usize, 2, 3, 17, 64, 255, 1000, 1499] {
                for seed in 0..12u64 {
                    for special in [false, true] {
                        let mut vs = match kind {
                            5 => (0..len as i64)
                                .map(|i| {
                                    let noise = (i as u64 * 7919 + seed) % 13;
                                    (22_500 + i * (seed as i64 - 6) * 37 / 100 + noise as i64)
                                        as f64
                                        / 100.0
                                })
                                .collect(),
                            _ => shape(kind, len, seed),
                        };
                        if special {
                            vs[(seed as usize * 7919) % len] =
                                f64::from_bits(SPECIALS[seed as usize % SPECIALS.len()]);
                        }
                        let mut carry = (kind == 4).then_some(Exponents { e: 0, f: 0 });
                        let mut buf = Vec::new();
                        let Some(pair) = plan(&vs, &mut carry) else {
                            all.push(0xff);
                            continue;
                        };
                        all.push(u8::from(encode(&vs, pair, &mut buf)));
                        if let Ok(f) = framing(&buf) {
                            frames[f as usize] += 1;
                        }
                        all.extend_from_slice(&buf);
                    }
                }
            }
        }
        assert!(frames.iter().all(|&f| f > 50), "{frames:?}");
        assert_eq!(
            (all.len(), crate::checksum::crc32(&all)),
            (234_212, 0xa8c0_26dd)
        );
    }
}
