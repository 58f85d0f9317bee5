//! The packed block: the one integer block every byte-bearing page
//! column is.
//!
//! A column of `n ≥ 1` points becomes integers `x` by its *transform*
//! ([`Transform`]): timestamps are their own integers; values are their
//! order-preserving keys, or, under a decimal pair `(e, f)`, the scaled
//! integers that give them back bit for bit ([`super::decimal`], ALP).
//! A *frame* ([`Framing`]) then turns the integers into the slots of one
//! block, frame-of-reference bit-packed with exceptions:
//!
//! ```text
//! block = [u8 e | u8 f]            the decimal transform's pair, nothing else
//!       | u8 frame·65 + w          reference 0–64, delta 65–129, line 130–194
//!       | [varint_i s]             the line frame's slope, 2^-16 a position
//!       | varint_i base            the least slot
//!       | ⌈m·w/8⌉ bytes            m slots of w bits, y − base, MSB-first;
//!                                  an exception's slot holds 0, pad bits 0
//!       | varint k                 exception count, ≤ m
//!       | k × (varint j, entry)    slot positions j ascending, < m
//! entry = varint_i y − base        an anchored block's: a y its slots miss
//!       | u64 LE bits              a decimal reference or line block's:
//!                                  a value with no integer under the pair
//! ```
//!
//! A block is *anchored* in the delta frame, and for timestamps and keys
//! in every frame: its head `h = x₀` is the page's FP (under the
//! transform), its `m = n − 1` slots are positions `1 … n − 1`, and its
//! last integer must be LP's. A decimal block in the reference or line
//! frame is not: `h = 0`, its `m = n` slots are positions `0 … n − 1`,
//! and a value with no integer is listed raw. The slot of position `i`
//! holds
//!
//! ```text
//! reference  y = x_i − h
//! delta      y = x_i − x_{i−1}
//! line       y = x_i − h − ⌊s·i / 2^16⌋
//! ```
//!
//! so a counter or a ramp packs its deltas at a few bits a point or
//! none, a jittered cadence or a drifting register pays its jitter once
//! around its least-squares line, and a delayed timestamp (the paper's
//! §3.5 steps) or a ramp's wrap is one exception of a few bytes.
//!
//! **Corruption rules**, checked in one place each, alike by the decoder
//! ([`decode`]) and the copy gate's [`verify`], which decodes no column:
//! a width code of 195 or more; a decimal pair out of range; a line whose
//! `s·(n − 1)` overflows; packed bytes cut short or a nonzero pad bit;
//! more exceptions than slots, positions not ascending or past the
//! slots, an anchored block's entry its slots could hold, bytes after
//! the list; an anchored column that does not end at LP (the delta frame
//! by its running sum, the others by their last slot); and a decimal
//! integer that can reach 2^53 in magnitude — any `w`-bit slot along the
//! trend in the reference and line frames (so no slot plus its trend
//! overflows), any running sum in the delta frame.
//!
//! **The chooser** ([`choose`]) sizes every frame a transform opens
//! ([`Transform::opens`]) exactly as it would be written and keeps the
//! strictly smallest; ties go to the earlier transform (decimal before
//! keys), then to reference, delta, line. An anchored frame's slots
//! keep the deltas inside a window chosen from their bit lengths
//! ([`window`]), or all of them where that is smaller, so no block is
//! larger than its integers at width 64. A delta frame whose floor
//! ([`floor`]) cannot beat the best so far is not sized.
//!
//! `key(v)` is the integer [`f64::total_cmp`] orders by: `v`'s bits as an
//! `i64`, with the low 63 flipped when the sign is set — a bijection, so
//! NaN payloads, −0.0 and ±inf round-trip bit-exact, and monotone, so
//! the neighbours of a walk have near keys.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use std::borrow::Cow;

use crate::cast;
use crate::encoding::decimal::{self, kept, Exponents, Factors};
use crate::error::TsFileError;
use crate::page::MAX_PAGE_POINTS;
use crate::varint;
use crate::Result;

/// Width codes a frame spans: `w ≤ 64`.
const CODES: u8 = 65;

/// A line frame's slope is in units of `2^-SLOPE_SHIFT` a position.
const SLOPE_SHIFT: u32 = 16;

/// A raw word and about two bytes of position: the window's second
/// charge, which prefers fewer, wider exceptions.
const RAW_EXCEPTION_BITS: usize = 80;

/// Deltas sampled for the window's centre, spread over the column.
const SAMPLES: usize = 15;

/// A decimal block's integers stay below this magnitude (`2^53`), where
/// every integer is an exact `f64`.
const INT_LIMIT: u64 = 1 << 53;

/// How a block frames its integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Each integer from the head (the minimum, as the base).
    Reference,
    /// Each integer from the one before it.
    Delta,
    /// Each integer from the head and a slope's trend.
    Line,
}

/// The frames by their code, `width byte / 65`.
const FRAMINGS: [Framing; 3] = [Framing::Reference, Framing::Delta, Framing::Line];

impl Framing {
    fn code(self) -> u8 {
        match self {
            Framing::Reference => 0,
            Framing::Delta => 1,
            Framing::Line => 2,
        }
    }
}

/// What a block's integers are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// The timestamps themselves.
    Timestamp,
    /// The values' order-preserving keys.
    Key,
    /// The values under a decimal pair, the block's two leading bytes.
    Decimal,
}

impl Transform {
    /// Whether the writer sizes `framing` for a column of this
    /// transform: every frame that won bytes on a page of the four
    /// benchmark workloads or the paper's datasets (the census is in
    /// CHANGES). Every reader takes every frame.
    pub(crate) fn opens(self, framing: Framing) -> bool {
        match self {
            Transform::Timestamp => framing != Framing::Reference,
            Transform::Key => framing == Framing::Delta,
            Transform::Decimal => true,
        }
    }

    /// Whether a block of this transform in `framing` takes its head
    /// from FP and must end at LP.
    fn anchored(self, framing: Framing) -> bool {
        framing == Framing::Delta || self != Transform::Decimal
    }
}

fn corrupt(msg: String) -> TsFileError {
    TsFileError::Corrupt(format!("packed block: {msg}"))
}

/// `base` and `base + 2^w − 1`, the least and the greatest `y` a slot of
/// `w` bits holds: `None` past `i64::MAX`.
fn slots(base: i64, w: u32) -> Option<(i64, i64)> {
    let top = u64::MAX.checked_shr(64 - w).unwrap_or(0);
    Some((base, base.checked_add_unsigned(top)?))
}

/// Bits a slot for integers spanning `lo..=hi`: 0 when they are equal,
/// at most 64.
pub(crate) fn width(lo: i64, hi: i64) -> u32 {
    64 - cast::u64_bits(hi.wrapping_sub(lo)).leading_zeros()
}

/// The trend `⌊slope·i / 2^16⌋` at position `i`, `None` where `slope·i`
/// overflows.
pub(crate) fn trend(slope: i64, i: usize) -> Option<i64> {
    Some(slope.checked_mul(i64::try_from(i).ok()?)? >> SLOPE_SHIFT)
}

/// How a block's slots hold its `y`s — base, width, exceptions — from a
/// pass that writes nothing, so its exact size is known first.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    base: i64,
    /// `max − base` of the kept `y`s (`None` when none is): a `y` is kept
    /// exactly when its offset from `base` is at most this.
    span: Option<u64>,
    width: u32,
    exceptions: usize,
    /// Bytes of the exception list after its count.
    list_len: usize,
}

impl Sizing {
    /// The sizing whose kept `y`s span `lo..=hi` (none when `lo > hi`),
    /// with `exceptions` others taking `list_len` bytes of list.
    fn new(lo: i64, hi: i64, exceptions: usize, list_len: usize) -> Self {
        let span = (lo <= hi).then(|| cast::u64_bits(hi.wrapping_sub(lo)));
        Sizing {
            base: if span.is_some() { lo } else { 0 },
            span,
            width: span.map_or(0, |_| width(lo, hi)),
            exceptions,
            list_len,
        }
    }

    /// The window sizing of `ys` kept in `lo..=hi`: every `y` its slots
    /// hold kept, the others listed by their distance. `outside` gives,
    /// by bit length, the range, count and position bytes of the `k`
    /// outside `lo..=hi`: where each length holds one value, they size
    /// the list, no pass.
    fn window<'a, O>(ys: &[i64], (lo, hi): (i64, i64), k: usize, outside: O) -> Self
    where
        O: Iterator<Item = (Option<&'a (i64, i64)>, (usize, usize))> + Clone,
    {
        let mut sizing = Sizing::new(lo, hi, 0, 0);
        if k == 0 {
            return sizing;
        }
        let top = sizing.slots().map_or(i64::MAX, |(_, top)| top);
        let span = cast::u64_bits(top.wrapping_sub(lo));
        let out = |d: i64| cast::u64_bits(d.wrapping_sub(lo)) > span;
        let entry = |d: i64| varint::len_u64(varint::zigzag(d.wrapping_sub(lo)));
        let one_value =
            |(r, (k, _)): (Option<&(i64, i64)>, _)| k == 0 || r.is_some_and(|(l, h)| l == h);
        if outside.clone().all(one_value) {
            for (r, (k, p)) in outside {
                if let Some(&(d, _)) = r.filter(|&&(d, _)| k > 0 && out(d)) {
                    (sizing.exceptions, sizing.list_len) =
                        (sizing.exceptions + k, sizing.list_len + p + k * entry(d));
                }
            }
        } else {
            for (i, &d) in ys.iter().enumerate().filter(|&(_, &d)| out(d)) {
                sizing.exceptions += 1;
                sizing.list_len += varint::len_u64(cast::u64_from_usize(i)) + entry(d);
            }
        }
        sizing.span = Some(span);
        sizing
    }

    fn slots(&self) -> Option<(i64, i64)> {
        slots(self.base, self.width)
    }

    /// `y`'s offset from the base when it is kept.
    #[inline]
    fn offset(&self, y: i64) -> Option<u64> {
        let offset = cast::u64_bits(y.wrapping_sub(self.base));
        self.span.filter(|&span| offset <= span).map(|_| offset)
    }

    /// Exact bytes from the width byte on, a slope aside, for `m` slots.
    fn len(&self, m: usize) -> usize {
        let exceptions = cast::u64_from_usize(self.exceptions);
        1 + varint::len_u64(varint::zigzag(self.base))
            + (m * cast::usize_from_u32(self.width)).div_ceil(8)
            + varint::len_u64(exceptions)
            + self.list_len
    }

    /// Append the base, the slots of `ys` and the exception list: each
    /// entry `values`' raw bits at its position where given, else its
    /// distance from the base.
    fn write<I>(&self, ys: I, values: Option<&[f64]>, out: &mut Vec<u8>)
    where
        I: ExactSizeIterator<Item = i64> + Clone,
    {
        varint::write_i64(out, self.base);
        let w = self.width;
        out.reserve((ys.len() * cast::usize_from_u32(w)).div_ceil(8) + 8);
        // MSB-first into one word: `free` bits of `acc` are still open.
        let (mut acc, mut free) = (0u64, 64u32);
        if w > 0 {
            for y in ys.clone() {
                let v = self.offset(y).unwrap_or(0);
                if w < free {
                    acc |= v << (free - w);
                    free -= w;
                } else {
                    // `v` fills the word: its top `free` bits end it, the
                    // low `w − free` start the next.
                    let rest = w - free;
                    acc |= v >> rest;
                    out.extend_from_slice(&acc.to_be_bytes());
                    acc = v.checked_shl(64 - rest).unwrap_or(0);
                    free = 64 - rest;
                }
            }
        }
        let tail = acc.to_be_bytes();
        let used = cast::usize_from_u32(64 - free).div_ceil(8);
        out.extend_from_slice(tail.get(..used).unwrap_or(&[]));
        varint::write_u64(out, cast::u64_from_usize(self.exceptions));
        if self.exceptions == 0 {
            return;
        }
        for (j, y) in ys.enumerate() {
            if self.offset(y).is_none() {
                varint::write_u64(out, cast::u64_from_usize(j));
                match values.and_then(|vs| vs.get(j)) {
                    Some(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
                    None => varint::write_i64(out, y.wrapping_sub(self.base)),
                }
            }
        }
    }
}

/// The window sizing of an anchored block's `ys`, sized exactly.
///
/// The window keeps the `y`s whose zigzagged distance from a centre (the
/// median of a sample) has at most `w` bits — the interval
/// `centre − 2^(w−1) ..= centre + 2^(w−1) − 1` — for the `w` that
/// minimises `m·w` plus each outside `y`'s position and distance bytes.
/// One pass counts the `y`s by that bit length, keeping each length's
/// range and how many sit where a position takes one, two or three
/// varint bytes (a page holds at most 2^20 points), so the charge of any
/// `w` follows. The window of that width, the one that charging a raw
/// word an exception ([`RAW_EXCEPTION_BITS`]) picks where its estimate
/// is smaller, and every `y` kept are sized exactly, and the strictly
/// smallest taken, in that order.
fn window(ys: &[i64]) -> Sizing {
    let centre = sample_median(ys);
    let mut ranges = [(i64::MAX, i64::MIN); 65];
    let mut counts = [[0usize; 65]; 3];
    let mut start = 0;
    for (class, end) in counts.iter_mut().zip([1 << 7, 1 << 14, usize::MAX]) {
        let end = end.min(ys.len());
        for &d in ys.get(start..end).unwrap_or(&[]) {
            let len = distance_bits(d, centre);
            if let (Some(count), Some((lo, hi))) = (class.get_mut(len), ranges.get_mut(len)) {
                *count += 1;
                (*lo, *hi) = ((*lo).min(d), (*hi).max(d));
            }
        }
        start = end;
    }
    // The `y`s of one bit length, and their positions' bytes.
    let length = |len: usize| {
        let at = |(class, p): (&[usize; 65], _)| class.get(len).map_or((0, 0), |&c| (c, c * p));
        let add = |(k, p), (c, b)| (k + c, p + b);
        counts.iter().zip(1..).map(at).fold((0, 0), add)
    };
    // Walk the widths down. Outside are the `y`s longer than w: their
    // count, their positions' bytes, and what they cost by their
    // entries' bytes and as raw words. Each charge's best width, the
    // narrowest of a tie, keeps its outside count and bytes.
    let m = ys.len();
    let (mut k, mut p, mut cost) = (0, 0, [0, 0]);
    let mut best = [(usize::MAX, 0, 0, 0); 2];
    for w in (0..=64).rev() {
        for (best, bits) in best.iter_mut().zip(cost) {
            if m * w + bits <= best.0 {
                *best = (m * w + bits, w, k, p);
            }
        }
        let (kl, pl) = length(w);
        (k, p) = (k + kl, p + pl);
        cost = [
            cost[0] + 8 * (pl + kl * w.div_ceil(7)),
            cost[1] + kl * RAW_EXCEPTION_BITS,
        ];
    }
    // At width w: the kept range, and the `y`s outside it by length.
    let fold = |(lo, hi): (i64, i64), &(l, h): &(i64, i64)| (lo.min(l), hi.max(h));
    let range = |w: usize| ranges.iter().take(w + 1).fold((i64::MAX, i64::MIN), fold);
    let outside = |w: usize| (w + 1..65).map(|len| (ranges.get(len), length(len)));
    let [(_, w, k, _), (_, w_raw, k_raw, p_raw)] = best;
    let mut best = Sizing::window(ys, range(w), k, outside(w));
    let (lo, hi) = range(w_raw);
    if w_raw != w && Sizing::new(lo, hi, k_raw, p_raw + 8 * k_raw).len(m) < best.len(m) {
        let other = Sizing::window(ys, (lo, hi), k_raw, outside(w_raw));
        if other.len(m) < best.len(m) {
            best = other;
        }
    }
    let (lo, hi) = range(64);
    let all = Sizing::new(lo, hi, 0, 0);
    if all.len(m) < best.len(m) {
        best = all;
    }
    best
}

/// A floor under the bytes [`window`] makes of `ys`, width byte
/// included, from one pass over them in pairs (the first and the second,
/// the third and the fourth, …): a pair both kept widens the block to at
/// least the bits `b` of its difference, and a pair wider than the block
/// holds an exception of 2 bytes or more — `1 + ⌈b/7⌉` where
/// `w + 2 ≤ b < 63`, one of the pair then `2^(b−2)` or more from the
/// base. So at each width `w` the block takes `m·w` bits, those bytes a
/// pair wider than `w`, and 3 bytes of header.
pub(crate) fn floor(ys: &[i64]) -> usize {
    // Pairs by the bits of their difference.
    let mut pairs = [0usize; 65];
    for pair in ys.chunks_exact(2) {
        if let [x, y] = *pair {
            let difference = cast::u64_bits(x.max(y).wrapping_sub(x.min(y)));
            let bits = 64 - difference.leading_zeros();
            if let Some(count) = pairs.get_mut(cast::usize_from_u32(bits)) {
                *count += 1;
            }
        }
    }
    // Down the widths: `wider` bytes for the pairs two bits or more
    // wider than w.
    let (mut wider, mut least) = (0usize, usize::MAX);
    for w in (0..=64).rev() {
        let (b, next) = (w + 1, pairs.get(w + 1).copied().unwrap_or(0));
        least = least.min(ys.len() * w + 8 * (wider + 2 * next));
        wider += next * if b < 63 { 1 + b.div_ceil(7) } else { 2 };
    }
    3 + least.div_ceil(8)
}

/// Bits of `d`'s zigzagged distance from `centre`, saturated at the
/// `i64` range, so that `d` lies inside the window of width `w` exactly
/// when this is at most `w`.
#[inline]
fn distance_bits(d: i64, centre: i64) -> usize {
    let z = varint::zigzag(d.saturating_sub(centre));
    cast::usize_from_u32(64 - z.leading_zeros())
}

/// The middle of a sample of `ys` spread over them (0 when there are
/// none).
fn sample_median(ys: &[i64]) -> i64 {
    let step = (ys.len() / SAMPLES) | 1;
    let mut sample = [0i64; SAMPLES];
    let mut taken = 0;
    for (slot, &d) in sample.iter_mut().zip(ys.iter().step_by(step)) {
        *slot = d;
        taken += 1;
    }
    let sample = sample.get_mut(..taken).unwrap_or(&mut []);
    sample.sort_unstable();
    sample.get(taken / 2).copied().unwrap_or(0)
}

/// The sums a least-squares line through a column's kept integers
/// takes, gathered on the pass that makes them: Σx and the sum of its
/// prefix sums (both wrapping), and the count, Σi and Σi² of the
/// positions left out.
#[derive(Debug, Default, Clone, Copy)]
struct LineSums {
    sx: i64,
    prefixes: i64,
    out: (i64, i64, i64),
}

impl LineSums {
    /// The next position, `i`, holds `x`, kept or not.
    #[inline]
    fn push(&mut self, i: i64, x: i64, keep: bool) {
        if keep {
            self.sx = self.sx.wrapping_add(x);
        } else {
            let (k, si, sii) = self.out;
            self.out = (k + 1, si + i, sii.wrapping_add(i.wrapping_mul(i)));
        }
        self.prefixes = self.prefixes.wrapping_add(self.sx);
    }

    /// The least-squares slope, in units of `2^-16` a position, of the
    /// kept integers of `len` against their positions, about `origin`, from which
    /// they lie at most `reach` bits away (0 with fewer than two kept).
    /// `None` past a page, or where the sums about `origin` could pass
    /// 2^62 (`n² · 2^reach` beyond it). The minimax line needs a convex
    /// hull to save a few units of range on even noise.
    fn slope(&self, len: usize, origin: i64, reach: u32) -> Option<i64> {
        let n = i64::try_from(len).ok().filter(|_| len <= MAX_PAGE_POINTS)?;
        if 2 * (64 - len.leading_zeros()) + reach > 62 {
            return None;
        }
        let (out, out_i, out_ii) = self.out;
        let (k, si, sii) = (
            n - out,
            n * (n - 1) / 2 - out_i,
            (n - 1) * n * (2 * n - 1) / 6 - out_ii,
        );
        // About `origin`: Σy is Σx less k origins, and the prefix sums
        // hold a kept x's origin once for each prefix from its position.
        let sy = self.sx.wrapping_sub(k.wrapping_mul(origin));
        let prefixes = self.prefixes.wrapping_sub(origin.wrapping_mul(n * k - si));
        let [k, si, sii, sy] = [k, si, sii, sy].map(i128::from);
        let siy = sy * i128::from(n) - i128::from(prefixes);
        // One kept point fits no line: 0 / 0, a NaN, which casts to 0.
        let slope = cast::f64_from_i128(k * siy - si * sy) / cast::f64_from_i128(k * sii - si * si);
        let slope = (slope * f64::from(1u32 << SLOPE_SHIFT)).round_ties_even();
        Some(cast::i64_from_integral(slope))
    }
}

/// The key [`f64::total_cmp`] orders by, as bits: the sign kept, the
/// rest flipped when it is set. Its own inverse.
#[inline]
fn flip(bits: u64) -> u64 {
    bits ^ ((cast::u64_bits(cast::i64_bits(bits) >> 63)) >> 1)
}

#[inline]
pub(crate) fn key(v: f64) -> i64 {
    cast::i64_bits(flip(v.to_bits()))
}

/// Fill `out` with the wrapping deltas of the keys of `vs`.
pub(crate) fn key_deltas(vs: &[f64], out: &mut Vec<i64>) {
    out.clear();
    let mut keys = vs.iter().map(|&v| key(v));
    if let Some(mut prev) = keys.next() {
        out.extend(keys.map(|k| k.wrapping_sub(std::mem::replace(&mut prev, k))));
    }
}

/// `x[i + 1] − x[i]` (wrapping) for each adjacent pair.
pub(crate) fn deltas(x: &[i64]) -> Vec<i64> {
    x.iter()
        .zip(x.iter().skip(1))
        .map(|(&a, &b)| b.wrapping_sub(a))
        .collect()
}

/// One transform's integers of a column, as the chooser sizes them,
/// with what the pass that makes them learns.
pub(crate) struct Ints<'a> {
    transform: Transform,
    /// The decimal transform's pair.
    pair: Option<Exponents>,
    /// The `n` integers (`i64::MIN` for a value without one); empty for
    /// keys, which open only the delta frame.
    x: Cow<'a, [i64]>,
    /// `x[i + 1] − x[i]`; `None` for a decimal column with a value
    /// without an integer, which no delta frame holds.
    deltas: Option<Cow<'a, [i64]>>,
    /// A decimal column's frame of reference, every integer kept.
    reference: Option<Sizing>,
    /// The slope of the line frame, where a line fits.
    slope: Option<i64>,
    /// The column's values, listed raw where they have no integer.
    values: &'a [f64],
    n: usize,
}

impl<'a> Ints<'a> {
    /// Timestamps and their deltas, fitted on one pass.
    pub(crate) fn timestamps(ts: &'a [i64], deltas: &'a [i64]) -> Self {
        let (origin, mut reach, mut sums) =
            (ts.first().copied().unwrap_or(0), 0u64, LineSums::default());
        for &t in ts {
            reach |= t.wrapping_sub(origin).unsigned_abs();
            sums.push(0, t, true);
        }
        Ints {
            transform: Transform::Timestamp,
            pair: None,
            x: Cow::Borrowed(ts),
            deltas: Some(Cow::Borrowed(deltas)),
            reference: None,
            slope: sums.slope(ts.len(), origin, 64 - reach.leading_zeros()),
            values: &[],
            n: ts.len(),
        }
    }

    /// Values as keys, with their key deltas ([`key_deltas`]).
    pub(crate) fn keys(vs: &'a [f64], deltas: &'a [i64]) -> Self {
        Ints {
            transform: Transform::Key,
            pair: None,
            x: Cow::Borrowed(&[]),
            deltas: Some(Cow::Borrowed(deltas)),
            reference: None,
            slope: None,
            values: vs,
            n: vs.len(),
        }
    }

    /// Values under `pair`, or — where the sample that chose it missed a
    /// value it fails — the sibling of its scale leaving the fewest
    /// without an integer, ties to the first tried; only a sibling that
    /// recovers one of the best's is run. `None` where every value is
    /// without one.
    pub(crate) fn decimal(vs: &'a [f64], pair: Exponents) -> Option<Self> {
        let mut best = Ints::under(vs, pair)?;
        for (sibling, fs) in decimal::siblings(pair) {
            let fewest = best.reference.map_or(0, |r| r.exceptions);
            if fewest == 0 {
                break;
            }
            let recovers = |(d, &v): (&i64, &f64)| !kept(*d) && fs.encode(v).is_some();
            if best.x.iter().zip(vs).any(recovers) {
                let ints = Ints::under(vs, sibling)?;
                if ints.reference.is_some_and(|r| r.exceptions < fewest) {
                    best = ints;
                }
            }
        }
        let reference = best.reference?;
        if reference.exceptions == 0 {
            best.deltas = Some(Cow::Owned(deltas(&best.x)));
        }
        (reference.exceptions < vs.len()).then_some(best)
    }

    /// Values under `pair`, sized on the pass that makes their integers:
    /// the range of those kept, the values without one and the bytes
    /// their list takes, and the line's sums.
    fn under(vs: &'a [f64], pair: Exponents) -> Option<Self> {
        let fs = Factors::of(pair)?;
        let (mut lo, mut hi, mut exceptions, mut list_len) = (i64::MAX, i64::MIN, 0, 0);
        let mut sums = LineSums::default();
        let x: Vec<i64> = ((0..).zip(vs))
            .map(|(i, &v)| {
                let d = fs.encode_or_min(v);
                // A value without an integer is `i64::MIN`, below every kept one.
                hi = hi.max(d);
                if kept(d) {
                    lo = lo.min(d);
                } else {
                    exceptions += 1;
                    list_len += varint::len_u64(cast::u64_bits(i)) + 8;
                }
                sums.push(i, d, kept(d));
                d
            })
            .collect();
        let reference = Sizing::new(lo, hi, exceptions, list_len);
        Some(Ints {
            transform: Transform::Decimal,
            pair: Some(pair),
            x: Cow::Owned(x),
            deltas: None,
            slope: (reference.span).and_then(|_| sums.slope(vs.len(), lo, width(lo, hi))),
            reference: Some(reference),
            values: vs,
            n: vs.len(),
        })
    }

    /// A decimal column planned again at the scale of the values its
    /// pair leaves without an integer, where that scale is larger: a
    /// page whose period divides the sample's stride shows it one phase.
    pub(crate) fn replanned(&self) -> Option<Self> {
        self.reference.filter(|r| r.exceptions > 0)?;
        Ints::decimal(
            self.values,
            decimal::replan(self.values, &self.x, self.pair?)?,
        )
    }
}

/// A block sized exactly, with what writing it takes.
pub(crate) struct Plan<'a> {
    ints: &'a Ints<'a>,
    framing: Framing,
    slope: i64,
    sizing: Sizing,
    ys: Cow<'a, [i64]>,
    len: usize,
}

impl Plan<'_> {
    pub(crate) fn transform(&self) -> Transform {
        self.ints.transform
    }

    /// Append the block.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        if let Some(pair) = self.ints.pair {
            out.extend_from_slice(&pair.bytes());
        }
        out.push(self.framing.code() * CODES + cast::low8(u64::from(self.sizing.width)));
        if self.framing == Framing::Line {
            varint::write_i64(out, self.slope);
        }
        let anchored = self.ints.transform.anchored(self.framing);
        let raw = (!anchored).then_some(self.ints.values);
        match (anchored, self.framing) {
            (false, Framing::Line) => self.sizing.write(residuals(&self.ys, self.slope), raw, out),
            _ => self.sizing.write(self.ys.iter().copied(), raw, out),
        }
    }
}

/// A decimal block's integers less the trend `⌊slope·i / 2^16⌋` at their
/// positions, a value without one (`i64::MIN`) left as it is.
fn residuals(x: &[i64], slope: i64) -> impl ExactSizeIterator<Item = i64> + Clone + '_ {
    let residual = move |(i, &x): (usize, &i64)| match kept(x) {
        true => x.wrapping_sub(
            slope.wrapping_mul(cast::i64_bits(cast::u64_from_usize(i))) >> SLOPE_SHIFT,
        ),
        false => x,
    };
    x.iter().enumerate().map(residual)
}

/// Choose a column's block: of the frames each of `columns`' transforms
/// opens (and `only` admits), each sized exactly, the strictly smallest;
/// ties go to the earlier column, then to reference, delta, line. A
/// delta frame whose [`floor`] cannot beat the best so far is not sized.
/// `None` where no frame can hold the column.
pub(crate) fn choose<'a>(
    columns: impl IntoIterator<Item = &'a Ints<'a>>,
    only: Option<Framing>,
) -> Option<Plan<'a>> {
    let mut best: Option<(Plan<'a>, (usize, u8))> = None;
    for (c, ints) in columns.into_iter().enumerate() {
        // Framed in this order, so a delta frame's floor meets the best
        // of the other two.
        for framing in [Framing::Reference, Framing::Line, Framing::Delta] {
            if !ints.transform.opens(framing) || only.is_some_and(|o| o != framing) {
                continue;
            }
            let rank = (c, framing.code());
            let beats = |len: usize, best: &Option<(Plan, (usize, u8))>| {
                best.as_ref()
                    .is_none_or(|(b, r)| len < b.len || (len == b.len && rank < *r))
            };
            let worth = |floor: &dyn Fn() -> usize| best.is_none() || beats(floor(), &best);
            if let Some(plan) = size(ints, framing, worth) {
                if beats(plan.len, &best) {
                    best = Some((plan, rank));
                }
            }
        }
    }
    best.map(|(plan, _)| plan)
}

/// `ints` in `framing`, sized; `None` where the frame cannot hold them,
/// or for a delta frame whose floor `worth` turns away.
fn size<'a>(
    ints: &'a Ints<'a>,
    framing: Framing,
    worth: impl Fn(&dyn Fn() -> usize) -> bool,
) -> Option<Plan<'a>> {
    let n = ints.n;
    let fixed = 2 * usize::from(ints.pair.is_some());
    let (mut slope, x) = (0, &ints.x[..]);
    let (ys, sizing): (Cow<'a, [i64]>, _) = match framing {
        Framing::Delta => {
            let ys = ints.deltas.as_deref()?;
            if n == 0 || !worth(&|| fixed + floor(ys)) {
                return None;
            }
            (Cow::Borrowed(ys), window(ys))
        }
        _ if ints.transform.anchored(framing) => {
            let &x0 = x.first()?;
            if framing == Framing::Line {
                slope = ints.slope.filter(|&s| trend(s, n - 1).is_some())?;
            }
            let residual = |(i, &x): (i64, &i64)| {
                x.wrapping_sub(x0)
                    .wrapping_sub(slope.wrapping_mul(i) >> SLOPE_SHIFT)
            };
            let ys: Vec<i64> = (1..).zip(x.get(1..)?).map(residual).collect();
            let sizing = window(&ys);
            (Cow::Owned(ys), sizing)
        }
        Framing::Reference => (Cow::Borrowed(x), ints.reference?),
        Framing::Line => {
            let reference = ints.reference?;
            slope = ints.slope?;
            trend(slope, n.checked_sub(1)?)?;
            // The range of the residuals ([`residuals`]), which are made
            // again only for the block written; the trend runs as a sum.
            let (mut lo, mut hi, mut trend) = (i64::MAX, i64::MIN, 0i64);
            for &x in x.iter() {
                let r = x.wrapping_sub(trend >> SLOPE_SHIFT);
                if kept(x) && kept(r) {
                    (lo, hi) = (lo.min(r), hi.max(r));
                }
                trend = trend.wrapping_add(slope);
            }
            let sizing = Sizing::new(lo, hi, reference.exceptions, reference.list_len);
            (Cow::Borrowed(x), sizing)
        }
    };
    let decimal = ints.transform == Transform::Decimal;
    if decimal && framing != Framing::Delta && !inside(sizing.slots(), trend(slope, n - 1)?) {
        return None;
    }
    let slope_len = match framing {
        Framing::Line => varint::len_u64(varint::zigzag(slope)),
        _ => 0,
    };
    let len = fixed + slope_len + sizing.len(ys.len());
    Some(Plan {
        ints,
        framing,
        slope,
        sizing,
        ys,
        len,
    })
}

/// A column to encode, under its transform.
#[derive(Debug, Clone, Copy)]
pub enum Column<'a> {
    Timestamps(&'a [i64]),
    Keys(&'a [f64]),
    /// Values under the decimal pair a sample of them chooses.
    Decimal(&'a [f64]),
}

/// Encode `column` as the block a page writer would store were `only`
/// its one frame (any frame its transform opens with `None`), and return
/// the frame written; `None`, and nothing written, where no such block
/// exists: the frame is not open to the transform, the sample turns a
/// decimal column away, or every value lacks an integer (any, for the
/// delta frame). The block is decoded with the column's first and last
/// points ([`decode`]).
pub fn encode(column: Column<'_>, only: Option<Framing>, out: &mut Vec<u8>) -> Option<Framing> {
    let mut scratch = Vec::new();
    let ints = match column {
        Column::Timestamps(ts) => {
            scratch = deltas(ts);
            Ints::timestamps(ts, &scratch)
        }
        Column::Keys(vs) => {
            key_deltas(vs, &mut scratch);
            Ints::keys(vs, &scratch)
        }
        Column::Decimal(vs) => Ints::decimal(vs, decimal::plan(vs, &mut None)?)?,
    };
    let plan = choose([&ints], only)?;
    plan.write(out);
    Some(plan.framing)
}

/// A column's first and last points — a page's FP and LP — as words:
/// a timestamp's bits or a value's.
pub type Ends = (u64, u64);

/// One entry of the exception list.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// An anchored block's `y`, outside its slots.
    Slot(i64),
    /// A value's bits.
    Raw(u64),
}

/// A parsed block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    transform: Transform,
    /// The decimal transform's multipliers.
    factors: Option<Factors>,
    framing: Framing,
    slope: i64,
    width: u32,
    base: i64,
    packed: &'a [u8],
    /// `varint k` onwards.
    list: &'a [u8],
    n: usize,
    /// The position of the first slot: 1 anchored, else 0.
    start: usize,
}

/// A block's pair, frame and width, and the bytes after its width byte.
fn header(buf: &[u8], transform: Transform) -> Result<(Option<Factors>, Framing, u32, &[u8])> {
    let eof = |what| TsFileError::UnexpectedEof { what };
    let (factors, rest) = match (transform, buf) {
        (Transform::Decimal, [e, f, rest @ ..]) => {
            let factors = Exponents::of(*e, *f).and_then(Factors::of);
            let factors = factors.ok_or_else(|| corrupt(format!("decimal pair ({e}, {f})")))?;
            (Some(factors), rest)
        }
        (Transform::Decimal, _) => return Err(eof("decimal pair")),
        _ => (None, buf),
    };
    let (&code, rest) = rest.split_first().ok_or(eof("packed block header"))?;
    let framing = FRAMINGS.get(usize::from(code / CODES));
    let framing = framing.ok_or_else(|| corrupt(format!("width code {code}")))?;
    Ok((factors, *framing, u32::from(code % CODES), rest))
}

/// The frame of a `transform` block, from its header.
pub fn framing(buf: &[u8], transform: Transform) -> Result<Framing> {
    Ok(header(buf, transform)?.1)
}

/// Parse the `transform` block of an `n`-point column that is all of
/// `buf`: the one parser.
pub(crate) fn parse(buf: &[u8], n: usize, transform: Transform) -> Result<Block<'_>> {
    if n == 0 || n > MAX_PAGE_POINTS {
        return Err(corrupt(format!("a column of {n} points")));
    }
    let (factors, framing, width, rest) = header(buf, transform)?;
    let start = usize::from(transform.anchored(framing));
    let mut pos = 0usize;
    let slope = match framing {
        Framing::Line => varint::read_i64(rest, &mut pos)?,
        _ => 0,
    };
    if trend(slope, n - 1).is_none() {
        return Err(corrupt(format!("slope {slope} overflows by {}", n - 1)));
    }
    let base = varint::read_i64(rest, &mut pos)?;
    // m ≤ 2^20 and width ≤ 64: the product cannot overflow.
    let bits = (n - start) * cast::usize_from_u32(width);
    let rest = rest.get(pos..).unwrap_or(&[]);
    if rest.len() < bits.div_ceil(8) {
        return Err(TsFileError::UnexpectedEof {
            what: "packed slots",
        });
    }
    let (packed, list) = rest.split_at(bits.div_ceil(8));
    let end = trend(slope, n - 1).unwrap_or(0);
    if transform == Transform::Decimal && start == 0 && !inside(slots(base, width), end) {
        return Err(corrupt("a slot along the trend leaves 2^53".into()));
    }
    let pad = packed
        .last()
        .map_or(0, |&b| b & 0xffu8.checked_shr(bits_in(bits)).unwrap_or(0));
    if !bits.is_multiple_of(8) && pad != 0 {
        return Err(corrupt(format!("pad bits {pad:#x} after the last slot")));
    }
    Ok(Block {
        transform,
        factors,
        framing,
        slope,
        width,
        base,
        packed,
        list,
        n,
        start,
    })
}

/// Bits of the last packed byte that `bits` slot bits use.
fn bits_in(bits: usize) -> u32 {
    cast::low8(cast::u64_from_usize(bits % 8)).into()
}

/// The `w ≤ 57` bits at bit `bit` of `packed`, MSB-first: each lies in
/// the 8 bytes from its first one, a load and two shifts, the tail
/// zero-padded.
#[inline]
fn bits_at(packed: &[u8], bit: usize, w: u32) -> u64 {
    let at = bit / 8;
    let word = match packed.get(at..at + 8) {
        Some(bytes) => <[u8; 8]>::try_from(bytes).unwrap_or_default(),
        None => {
            let mut tail = [0u8; 8];
            for (dst, src) in tail.iter_mut().zip(packed.get(at..).unwrap_or(&[])) {
                *dst = *src;
            }
            tail
        }
    };
    (u64::from_be_bytes(word) << (bit % 8)) >> (64 - w)
}

impl Block<'_> {
    /// How many slots the block holds.
    fn slot_count(&self) -> usize {
        self.n - self.start
    }

    /// The `y` in slot `j` (below the slot count): `base` plus its bits,
    /// an exception's slot included — the slot reader.
    fn slot(&self, j: usize) -> i64 {
        let w = self.width;
        let bit = j * cast::usize_from_u32(w);
        // A slot past 57 bits is read as two halves.
        let offset = match w {
            0 => 0,
            1..=57 => bits_at(self.packed, bit, w),
            _ => bits_at(self.packed, bit, 32) << (w - 32) | bits_at(self.packed, bit + 32, w - 32),
        };
        self.base.wrapping_add(cast::i64_bits(offset))
    }

    /// Append `f` of every slot's `y` to `out`, in order.
    fn unpack<T>(&self, mut f: impl FnMut(i64) -> T, out: &mut Vec<T>) {
        let (w, base, packed, m) = (self.width, self.base, self.packed, self.slot_count());
        out.reserve(m);
        if w == 0 {
            out.extend((0..m).map(|_| f(base)));
        } else if w <= 57 {
            let mut bit = 0usize;
            out.extend((0..m).map(|_| {
                let offset = bits_at(packed, bit, w);
                bit += cast::usize_from_u32(w);
                f(base.wrapping_add(cast::i64_bits(offset)))
            }));
        } else {
            out.extend((0..m).map(|j| f(self.slot(j))));
        }
    }

    /// Walk the exception list, handing each `(slot position, entry)` to
    /// `patch`: the count is at most the slots', positions ascend
    /// strictly below it, an anchored block's entry lies outside its
    /// slots, and nothing follows the list.
    fn entries(&self, mut patch: impl FnMut(usize, Entry)) -> Result<()> {
        let (list, m) = (self.list, self.slot_count());
        let anchored = self.start == 1;
        let mut pos = 0usize;
        let k = varint::read_u64(list, &mut pos)?;
        if k > cast::u64_from_usize(m) {
            return Err(corrupt(format!("{k} exceptions among {m} slots")));
        }
        let mut next = 0u64;
        for _ in 0..k {
            let at = varint::read_u64(list, &mut pos)?;
            if at < next || at >= cast::u64_from_usize(m) {
                return Err(corrupt(format!(
                    "exception at {at} out of order or past {m}"
                )));
            }
            next = at + 1;
            let entry = match anchored {
                true => {
                    let y = self.base.wrapping_add(varint::read_i64(list, &mut pos)?);
                    let inside = slots(self.base, self.width)
                        .map_or(y >= self.base, |(lo, hi)| lo <= y && y <= hi);
                    if inside {
                        return Err(corrupt(format!("exception {y} inside the slots")));
                    }
                    Entry::Slot(y)
                }
                false => {
                    let raw = list
                        .get(pos..pos + 8)
                        .and_then(|b| <[u8; 8]>::try_from(b).ok());
                    pos += 8;
                    Entry::Raw(u64::from_le_bytes(raw.ok_or(
                        TsFileError::UnexpectedEof {
                            what: "packed raw exception",
                        },
                    )?))
                }
            };
            // Below m ≤ 2^20: addressable.
            patch(cast::usize_checked(at).unwrap_or(usize::MAX), entry);
        }
        match list.len() - pos {
            0 => Ok(()),
            left => Err(corrupt(format!("{left} bytes after the exceptions"))),
        }
    }

    /// The integer an end's `word` is under the transform: `Corrupt` for
    /// a decimal value without one.
    fn integer(&self, word: u64) -> Result<i64> {
        match (self.transform, self.factors) {
            (Transform::Timestamp, _) => Ok(cast::i64_bits(word)),
            (Transform::Key, _) => Ok(cast::i64_bits(flip(word))),
            (_, factors) => (factors.and_then(|fs| fs.encode(f64::from_bits(word))))
                .ok_or_else(|| corrupt(format!("no integer for {}", f64::from_bits(word)))),
        }
    }

    /// An anchored block's head and last integers, from its ends; `None`
    /// for a block that is not anchored.
    fn anchor(&self, (first, last): Ends) -> Result<Option<(i64, i64)>> {
        match self.start {
            0 => Ok(None),
            _ => Ok(Some((self.integer(first)?, self.integer(last)?))),
        }
    }

    /// The integer at position `i` of a reference or line block whose
    /// slot holds `y`, from head `h`.
    #[inline]
    fn at(&self, h: i64, i: usize, y: i64) -> i64 {
        let trend = self.slope.wrapping_mul(i64::try_from(i).unwrap_or(0)) >> SLOPE_SHIFT;
        h.wrapping_add(trend).wrapping_add(y)
    }

    /// `Corrupt` unless an anchored column that ends at `end` ends at
    /// `last`.
    fn lands(&self, anchor: Option<(i64, i64)>, end: i64) -> Result<()> {
        match anchor {
            Some((first, last)) if end != last => Err(corrupt(format!(
                "{} points from {first} end at {end}, not at {last}",
                self.n
            ))),
            _ => Ok(()),
        }
    }

    /// The last integer of a reference or line block from head `h`: its
    /// last slot's, or that slot's entry's.
    fn last(&self, h: i64) -> Result<i64> {
        let j = self.slot_count().checked_sub(1);
        let mut y = j.map(|j| self.slot(j));
        self.entries(|at, entry| {
            if let (true, Entry::Slot(entry)) = (Some(at) == j, entry) {
                y = Some(entry);
            }
        })?;
        Ok(y.map_or(h, |y| self.at(h, self.n - 1, y)))
    }

    /// `f` of each of the `n` integers of a delta block, the running sums
    /// of its deltas from the head, landing on LP.
    fn running_sums<T>(
        &self,
        anchor: Option<(i64, i64)>,
        mut f: impl FnMut(i64) -> T,
    ) -> Result<Vec<T>> {
        let mut ys = Vec::with_capacity(self.n);
        ys.push(anchor.map_or(0, |a| a.0));
        self.unpack(|y| y, &mut ys);
        let deltas = ys.get_mut(1..).unwrap_or(&mut []);
        self.entries(|j, entry| {
            if let (Some(slot), Entry::Slot(y)) = (deltas.get_mut(j), entry) {
                *slot = y;
            }
        })?;
        let (mut sum, mut wide) = (0i64, false);
        let mut out = Vec::with_capacity(ys.len());
        out.extend(ys.iter().map(|&y| {
            sum = sum.wrapping_add(y);
            wide |= sum.unsigned_abs() >= INT_LIMIT;
            f(sum)
        }));
        self.lands(anchor, sum)?;
        match wide && self.transform == Transform::Decimal {
            true => Err(corrupt("a running sum at or past 2^53".into())),
            false => Ok(out),
        }
    }

    /// The `n` points, each integer's mapped by `f`, each raw entry's
    /// word kept: the one decoder.
    fn points<T>(
        &self,
        ends: Ends,
        mut f: impl FnMut(i64) -> T,
        raw: impl Fn(u64) -> T,
    ) -> Result<Vec<T>> {
        let anchor = self.anchor(ends)?;
        if self.framing == Framing::Delta {
            return self.running_sums(anchor, f);
        }
        let h = anchor.map_or(0, |a| a.0);
        self.lands(anchor, self.last(h)?)?;
        let mut out = Vec::with_capacity(self.n);
        if anchor.is_some() {
            out.push(f(h));
        }
        match self.slope {
            0 => self.unpack(|y| f(h.wrapping_add(y)), &mut out),
            s => {
                let start = i64::try_from(self.start).unwrap_or(0);
                let mut trend = s.wrapping_mul(start);
                self.unpack(
                    |y| {
                        let x = h.wrapping_add(y).wrapping_add(trend >> SLOPE_SHIFT);
                        trend = trend.wrapping_add(s);
                        f(x)
                    },
                    &mut out,
                );
            }
        }
        let start = self.start;
        self.entries(|j, entry| {
            if let Some(point) = out.get_mut(start + j) {
                *point = match entry {
                    Entry::Slot(y) => f(self.at(h, start + j, y)),
                    Entry::Raw(word) => raw(word),
                };
            }
        })?;
        Ok(out)
    }

    /// The `n` points, each `point` of its word: a timestamp's bits, or
    /// a value's.
    fn decode<T>(&self, ends: Ends, point: impl Fn(u64) -> T + Copy) -> Result<Vec<T>> {
        match (self.transform, self.factors) {
            (Transform::Timestamp, _) => self.points(ends, |x| point(cast::u64_bits(x)), point),
            (Transform::Key, _) => self.points(ends, |x| point(flip(cast::u64_bits(x))), point),
            (_, factors) => {
                let fs = factors.ok_or_else(|| corrupt("a decimal block without a pair".into()))?;
                self.points(ends, |d| point(fs.decode(d).to_bits()), point)
            }
        }
    }

    /// Check the block against its ends without decoding a column where
    /// the checks allow: exactly the blocks [`Self::decode`] decodes.
    fn verify(&self, ends: Ends) -> Result<()> {
        let anchor = self.anchor(ends)?;
        if self.framing == Framing::Delta && self.transform == Transform::Decimal {
            // The running sums are the 2^53 check.
            return self.running_sums(anchor, drop).map(drop);
        }
        let h = anchor.map_or(0, |a| a.0);
        if self.framing == Framing::Delta {
            // An exception's slot is dropped at the value its bits hold.
            let m = self.slot_count();
            let mut sum = (0..m).fold(h, |sum, j| sum.wrapping_add(self.slot(j)));
            self.entries(|j, entry| {
                if let Entry::Slot(y) = entry {
                    sum = sum.wrapping_sub(self.slot(j)).wrapping_add(y);
                }
            })?;
            return self.lands(anchor, sum);
        }
        // A decimal block's slots along the trend are held to 2^53 by
        // the parser.
        self.lands(anchor, self.last(h)?)
    }
}

/// Whether every `y` in `slots`, along a trend to `end`, stays below
/// 2^53 in magnitude.
fn inside(slots: Option<(i64, i64)>, end: i64) -> bool {
    let ok =
        |y: i64, t: i64| (i128::from(y) + i128::from(t)).unsigned_abs() < u128::from(INT_LIMIT);
    slots.is_some_and(|(lo, hi)| ok(lo, end.min(0)) && ok(hi, end.max(0)))
}

/// Decode the `n` points of a `transform` block from its column's
/// `ends` (a page's FP and LP), as words: timestamps' bits or values'.
pub fn decode(buf: &[u8], n: usize, transform: Transform, ends: Ends) -> Result<Vec<u64>> {
    decode_as(buf, n, transform, ends, |w| w)
}

/// [`decode`], each point `point` of its word.
// Out of line: inlined into `page::decode_page`, that function's own
// loops (the points' assembly) compiled a few per cent slower.
#[inline(never)]
pub(crate) fn decode_as<T>(
    buf: &[u8],
    n: usize,
    transform: Transform,
    ends: Ends,
    point: impl Fn(u64) -> T + Copy,
) -> Result<Vec<T>> {
    parse(buf, n, transform)?.decode(ends, point)
}

/// Check a `transform` block of `n` points against its column's `ends`
/// without decoding a column where its frame allows (a decimal delta
/// block's running sums are its check): it passes exactly the blocks
/// [`decode`] decodes.
pub fn verify(buf: &[u8], n: usize, transform: Transform, ends: Ends) -> Result<()> {
    parse(buf, n, transform)?.verify(ends)
}

/// An anchored `transform` block's window exceptions — the `y`s its
/// slots miss, listed by their distance — as `(count, bytes of their
/// entries)`, and the bytes of the head a decimal delta frame leaves to
/// FP (`first`); zeros for a block that is not anchored.
pub(crate) fn window_list(
    buf: &[u8],
    n: usize,
    transform: Transform,
    first: u64,
) -> Result<[usize; 3]> {
    let block = parse(buf, n, transform)?;
    if block.start == 0 {
        return Ok([0; 3]);
    }
    let mut k = 0;
    block.entries(|_, _| k += 1)?;
    let list = block.list.len() - varint::len_u64(cast::u64_from_usize(k));
    let head = match transform {
        Transform::Decimal => varint::len_u64(varint::zigzag(block.integer(first)?)),
        _ => 0,
    };
    Ok([k, list, head])
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
    use proptest::prelude::*;

    /// The ends of a column of words.
    fn ends_of(words: &[u64]) -> Ends {
        (words[0], words[words.len() - 1])
    }

    /// A column's block in `only` (the chooser's with `None`): it
    /// decodes to the column, verifies, and a block anchored at another
    /// last point does neither.
    fn column_roundtrip(column: Column<'_>, only: Option<Framing>) -> Result<Option<Vec<u8>>> {
        let (transform, words): (_, Vec<u64>) = match column {
            Column::Timestamps(ts) => {
                (Transform::Timestamp, ts.iter().map(|&t| t as u64).collect())
            }
            Column::Keys(vs) => (Transform::Key, vs.iter().map(|v| v.to_bits()).collect()),
            Column::Decimal(vs) => (Transform::Decimal, vs.iter().map(|v| v.to_bits()).collect()),
        };
        let mut buf = Vec::new();
        let Some(framing) = encode(column, only, &mut buf) else {
            return Ok(None);
        };
        assert_eq!(super::framing(&buf, transform)?, framing);
        let (n, ends) = (words.len(), ends_of(&words));
        assert_eq!(decode(&buf, n, transform, ends)?, words);
        verify(&buf, n, transform, ends)?;
        if transform.anchored(framing) && transform != Transform::Decimal {
            let off = (ends.0, ends.1 ^ 1);
            assert!(decode(&buf, n, transform, off).is_err());
            assert!(verify(&buf, n, transform, off).is_err());
        }
        Ok(Some(buf))
    }

    fn ts_roundtrip(ts: &[i64]) -> Result<Vec<u8>> {
        let delta = column_roundtrip(Column::Timestamps(ts), Some(Framing::Delta))?.unwrap();
        assert!(floor(&deltas(ts)) <= delta.len(), "floor above the block");
        let chosen = column_roundtrip(Column::Timestamps(ts), None)?.unwrap();
        assert!(chosen.len() <= delta.len());
        Ok(delta)
    }

    fn value_roundtrip(vs: &[f64]) -> Result<Vec<u8>> {
        Ok(column_roundtrip(Column::Keys(vs), None)?.unwrap())
    }

    #[test]
    fn jittered_timestamps_take_half_a_byte() -> Result<()> {
        // Deltas 6..=14 around 10: four bits each.
        let ts: Vec<i64> = (0..1000i64)
            .map(|i| 1_600_000_000_000 + i * 10 + (i * 7919 % 5) - 2)
            .collect();
        let buf = ts_roundtrip(&ts)?;
        assert!(buf.len() < 1000 / 2 + 16, "{} bytes", buf.len());
        Ok(())
    }

    #[test]
    fn a_delay_is_one_exception_not_a_wider_page() -> Result<()> {
        let mut ts: Vec<i64> = (0..1000i64).map(|i| i * 10 + i % 3).collect();
        let regular = ts_roundtrip(&ts)?.len();
        for t in &mut ts[500..] {
            *t += 3_600_000; // an hour's delay, from the middle on
        }
        ts[999] = i64::MAX;
        let delayed = ts_roundtrip(&ts)?;
        // Two exceptions (positions 499 and 998): ten bytes each.
        assert!(
            delayed.len() <= regular + 21,
            "{} vs {regular}",
            delayed.len()
        );
        Ok(())
    }

    #[test]
    fn exceptions_at_both_ends_and_widths_zero_and_64() -> Result<()> {
        // Width 0: every delta equal but the first and the last.
        let mut ts: Vec<i64> = (0..100i64).map(|i| i * 10).collect();
        ts[0] = -5_000;
        ts[99] = 1 << 50;
        let buf = ts_roundtrip(&ts)?;
        assert_eq!(buf[0], CODES, "the delta frame at width 0");
        // Width 64: deltas of every size, none worth an exception.
        let wide: Vec<i64> = (0..200u64)
            .map(|i| {
                let z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) as i64
            })
            .collect();
        let buf = ts_roundtrip(&wide)?;
        assert_eq!(buf[0], CODES + 64, "the delta frame at width 64");
        Ok(())
    }

    #[test]
    fn extremes_of_the_deltas_round_trip() -> Result<()> {
        ts_roundtrip(&[i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN])?;
        ts_roundtrip(&[42])?;
        ts_roundtrip(&[5, 5, 5, 4])?;
        // Every delta a different bit length: width 64 or all outside.
        let wide: Vec<i64> = (0..64).map(|i| 1i64.wrapping_shl(i)).collect();
        ts_roundtrip(&wide)?;
        Ok(())
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() -> Result<()> {
        let vs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for pair in vs.windows(2) {
            assert!(key(pair[0]) < key(pair[1]), "{pair:?}");
        }
        let mut all = vs.to_vec();
        all.extend([f64::from_bits(0xfff8_dead_beef_0000), -f64::NAN, 225.37]);
        value_roundtrip(&all)?;
        value_roundtrip(&[f64::NAN])?;
        Ok(())
    }

    #[test]
    fn a_walk_packs_below_raw_doubles() -> Result<()> {
        let mut v = 225.0f64;
        let mut state = 7u64;
        let vs: Vec<f64> = (0..1000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                v += ((state >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 0.4;
                v
            })
            .collect();
        let buf = value_roundtrip(&vs)?;
        assert!(buf.len() < 1000 * 6, "{} bytes", buf.len());
        Ok(())
    }

    /// A jittered cadence takes the line frame and round-trips whole:
    /// every point decodes from its slot alone.
    #[test]
    fn a_line_frame_column_round_trips_whole() -> Result<()> {
        let ts: Vec<i64> = (0..300i64).map(|i| i * 10 + i % 4).collect();
        let mut buf = Vec::new();
        assert_eq!(
            encode(Column::Timestamps(&ts), None, &mut buf),
            Some(Framing::Line)
        );
        let ends = (ts[0] as u64, ts[299] as u64);
        let back = decode(&buf, ts.len(), Transform::Timestamp, ends)?;
        assert_eq!(back, ts.iter().map(|&t| t as u64).collect::<Vec<_>>());
        Ok(())
    }

    #[test]
    fn frame_length_is_exact() -> Result<()> {
        let vs: Vec<f64> = (0..300)
            .map(|i| ((i * 37) % 101 - 50) as f64 / 4.0)
            .collect();
        for special in [None, Some(0), Some(150), Some(299)] {
            let mut vs = vs.clone();
            if let Some(at) = special {
                vs[at] = f64::NAN;
            }
            let pair = Exponents::of(2, 0).unwrap();
            let ints = Ints::decimal(&vs, pair).unwrap();
            for framing in FRAMINGS {
                let Some(plan) = choose([&ints], Some(framing)) else {
                    assert!(special.is_some() && framing == Framing::Delta);
                    continue;
                };
                let mut out = Vec::new();
                plan.write(&mut out);
                assert_eq!(plan.len, out.len(), "{framing:?} at {special:?}");
                let ends = (vs[0].to_bits(), vs[299].to_bits());
                verify(&out, vs.len(), Transform::Decimal, ends)?;
            }
        }
        Ok(())
    }

    /// The window keeps exactly the `y`s its slots hold, and lists the
    /// others by their distance.
    #[test]
    fn the_one_pass_frame_is_the_window_frame() {
        let mut state = 11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 7
        };
        let shapes: Vec<Vec<i64>> = vec![
            vec![],
            vec![7],
            (0..1000).map(|_| 8 + (next() % 5) as i64).collect(),
            (0..20_000)
                .map(|i| if i % 97 == 0 { -1 << 40 } else { 10 })
                .collect(),
            (0..500)
                .map(|_| (next() % (1 << 45)) as i64 - (1 << 44))
                .collect(),
            (0..300)
                .map(|_| next().wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64)
                .collect(),
            vec![i64::MIN, i64::MAX, 0, i64::MAX, i64::MIN, -1, 1],
        ];
        for ys in &shapes {
            let sizing = window(ys);
            let held = |y: i64| {
                sizing.span.is_some()
                    && sizing
                        .slots()
                        .map_or(y >= sizing.base, |(l, h)| l <= y && y <= h)
            };
            let (mut exceptions, mut list_len) = (0, 0);
            for (j, &y) in ys.iter().enumerate().filter(|&(_, &y)| !held(y)) {
                exceptions += 1;
                list_len += varint::len_u64(j as u64)
                    + varint::len_u64(varint::zigzag(y.wrapping_sub(sizing.base)));
            }
            assert_eq!((sizing.exceptions, sizing.list_len), (exceptions, list_len));
            let mut out = Vec::new();
            sizing.write(ys.iter().copied(), None, &mut out);
            assert_eq!(sizing.len(ys.len()), out.len() + 1, "{} ys", ys.len());
            assert!(floor(ys) <= sizing.len(ys.len()), "floor above the block");
        }
    }

    /// Every width unpacks and sums as written, the slots past 57 bits
    /// read in two halves.
    #[test]
    fn every_width_unpacks_and_sums_as_written() -> Result<()> {
        let mut state = 5u64;
        for w in 1..=64u32 {
            let ts: Vec<i64> = (0..37)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> (64 - w)) as i64
                })
                .collect();
            let words: Vec<u64> = ts.iter().map(|&t| t as u64).collect();
            for framing in [Framing::Delta, Framing::Line] {
                let mut buf = Vec::new();
                if encode(Column::Timestamps(&ts), Some(framing), &mut buf).is_none() {
                    continue;
                }
                let block = parse(&buf, ts.len(), Transform::Timestamp)?;
                let mut slots = Vec::new();
                block.unpack(|y| y, &mut slots);
                assert!(
                    (0..slots.len()).all(|j| block.slot(j) == slots[j]),
                    "width {w}"
                );
                let ends = ends_of(&words);
                assert_eq!(block.decode(ends, |w| w)?, words, "width {w}");
                block.verify(ends)?;
            }
        }
        Ok(())
    }

    /// One column of each transform's shapes: `kind` picks a walk, a
    /// ramp that wraps, jitter on a cadence, repeats, or raw words.
    fn integers(kind: u8, draws: &[(u64, u8)], centre: i64, spread: u32) -> Vec<i64> {
        let mut x = centre;
        draws
            .iter()
            .enumerate()
            .map(|(i, &(r, outlier))| {
                let small = r.checked_shr(64 - spread).unwrap_or(0) as i64;
                let step = match (kind, outlier) {
                    (_, 0) => r as i64,
                    (0, _) => small,
                    (1, _) => 25,
                    (2, _) => 10_000 + small % 5,
                    (3, _) => 0,
                    _ => return r as i64,
                };
                x = x.wrapping_add(step);
                if kind == 2 {
                    centre
                        .wrapping_add(10_000 * i as i64)
                        .wrapping_add(small % 5)
                } else {
                    x
                }
            })
            .collect()
    }

    /// Values with no decimal integer, and the edges of the keys.
    const SPECIALS: [u64; 8] = [
        0x7ff8_0000_0000_0001,
        0x8000_0000_0000_0000,
        0x0000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x7fef_ffff_ffff_ffff,
        0x4009_21fb_5444_2d18,
    ];

    proptest! {
        /// The floor is never above the block: deltas around any centre
        /// at any spread, with outliers of any size mixed in.
        #[test]
        fn the_floor_is_never_above_the_block(
            centre in any::<i64>(),
            spread in 0u32..=64,
            draws in prop::collection::vec((any::<u64>(), 0u8..16), 0..300),
        ) {
            let ys: Vec<i64> = draws
                .iter()
                .map(|&(r, kind)| match kind {
                    0 => r as i64,
                    _ => centre.wrapping_add(r.checked_shr(64 - spread).unwrap_or(0) as i64),
                })
                .collect();
            let sizing = window(&ys);
            let mut buf = Vec::new();
            sizing.write(ys.iter().copied(), None, &mut buf);
            prop_assert_eq!(sizing.len(ys.len()), buf.len() + 1);
            prop_assert!(floor(&ys) <= buf.len() + 1);
        }

        /// The chooser is exact: for columns of each transform — walks,
        /// wrapping ramps, jittered cadences, repeats and raw words, with
        /// NaN, ±0, ±∞ and `i64::MIN/MAX` mixed in — the length it
        /// predicts is the bytes it writes, that length is at most every
        /// open frame's written alone and at most the column's integers
        /// at width 64, and the delta frame's floor is at most it.
        #[test]
        fn the_chooser_is_exact(
            kind in 0u8..5,
            centre in any::<i64>(),
            spread in 0u32..=64,
            draws in prop::collection::vec((any::<u64>(), 0u8..12), 1..300),
            special in any::<prop::sample::Index>(),
            which in 0..SPECIALS.len(),
            scale in 0u8..4,
        ) {
            let x = integers(kind, &draws, centre, spread);
            let mut vs: Vec<f64> = x
                .iter()
                .map(|&d| (d % (1 << 40)) as f64 / 10f64.powi(i32::from(scale)))
                .collect();
            let at = special.index(x.len());
            vs[at] = f64::from_bits(SPECIALS[which]);
            let mut ts = x.clone();
            ts[at] = [i64::MIN, i64::MAX][which % 2];
            let (mut key_deltas_, ts_deltas) = (Vec::new(), deltas(&ts));
            key_deltas(&vs, &mut key_deltas_);
            let pair = decimal::plan(&vs, &mut None);
            let mut columns = vec![
                Ints::timestamps(&ts, &ts_deltas),
                Ints::keys(&vs, &key_deltas_),
            ];
            columns.extend(pair.and_then(|p| Ints::decimal(&vs, p)));
            for ints in &columns {
                let plan = choose([ints], None).unwrap();
                let mut buf = Vec::new();
                plan.write(&mut buf);
                prop_assert_eq!(plan.len, buf.len());
                for framing in FRAMINGS {
                    if let Some(alone) = choose([ints], Some(framing)) {
                        prop_assert!(plan.len <= alone.len, "{:?} {:?}", ints.transform, framing);
                    }
                }
                if let Some(ys) = ints.deltas.as_deref() {
                    let fixed = 2 * usize::from(ints.pair.is_some());
                    let alone = choose([ints], Some(Framing::Delta)).unwrap();
                    prop_assert!(fixed + floor(ys) <= alone.len);
                    // Width 64: the code byte, a base of ≤ 10 bytes, 8
                    // bytes a slot and a count of 0.
                    prop_assert!(alone.len <= fixed + 12 + 8 * ys.len());
                }
            }
        }
    }

    #[test]
    fn an_empty_column_is_corrupt() {
        for transform in [Transform::Timestamp, Transform::Key, Transform::Decimal] {
            let got = decode(&[0, 0, 0, 0], 0, transform, (0, 0));
            assert!(matches!(got, Err(TsFileError::Corrupt(_))), "{got:?}");
        }
    }
}
