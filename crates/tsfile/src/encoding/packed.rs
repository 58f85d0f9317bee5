//! Frame-of-reference bit-packing with exceptions: the one integer-column
//! kernel under the decimal block and the two packed page forms.
//!
//! A block of `n` integers:
//!
//! ```text
//! block = u8 w
//!       | varint_i base          the smallest kept integer
//!       | ⌈n·w/8⌉ bytes          n × w bits of x − base, MSB-first;
//!                                an exception's slot holds 0
//!       | varint k               exception count, ≤ n
//!       | k × (varint position, entry)   positions ascending, < n
//! entry = varint_i x − base (wrapping)   a window block's, never a slot's
//!       | u64 LE raw                     a decimal block's value bits
//! ```
//!
//! Nothing follows the exception list. Which integers are kept is the
//! user's: the decimal block ([`super::decimal`]) keeps the scaled
//! integers that round-trip and lists the other values' bits; the
//! packed forms below keep the deltas inside a window and list the
//! others by their distance from the base (an entry a slot could hold
//! is `Corrupt`). The packed timestamp column, laid over a decimal
//! block's scaled integers, is that block's delta frame.
//!
//! **The packed forms.** A column of `n ≥ 1` points as its first point
//! and a block of its `n − 1` deltas — IoTDB's TS_2DIFF
//! (`DeltaBinaryEncoder`), which subtracts a block's smallest delta and
//! packs the rest at one width, with an exception list added. Inside a
//! page the column is the block alone: its first point is the chunk's
//! FP and its last the chunk's LP, both in the footer's statistics
//! ([`crate::ChunkStatistics`]), so the page decoder takes the head from
//! them and checks that the running sum of the deltas lands on LP — a
//! block of more or fewer deltas than the footer's count does not, nor
//! does one whose deltas a flip changed (the other flips break the
//! block's structure):
//!
//! ```text
//! in a page:  packed timestamps = block of t[i+1] − t[i]              (head FP.t)
//!                  or, line frame = u8 (w | 0x80) | varint_i s
//!                                   | the block of t[i] − FP.t − ⌊s·i / 2^16⌋,
//!                                     i = 1 … n − 1, after its width byte
//!             packed values     = block of key(v[i+1]) − key(v[i])    (head FP.v, wrapping)
//! standalone: varint_i t0 | block,  u64 LE bits of v0 | block
//! ```
//!
//! The standalone column ([`encode_timestamps`], [`encode_values`])
//! carries its head itself; the decimal block's delta frame is one over
//! its scaled integers.
//!
//! The line frame ([`fit`], [`residuals`], [`Line`]; the decimal
//! block's too) packs the residuals from a least-squares line, `s` its
//! slope in units of 2^-16 a point: a jittered cadence pays its jitter
//! once, where a delta pays both its ends'. Bit 7 of the width byte
//! flags it, to the timestamp column's readers alone; it lands on LP;
//! the page keeps the strictly smaller frame ([`TsPacking`]).
//!
//! `key(v)` is the integer [`f64::total_cmp`] orders by: `v`'s bits as an
//! `i64`, with the low 63 flipped when the sign is set. It is a bijection,
//! so NaN payloads, −0.0 and ±inf round-trip bit-exact, and it is
//! monotone, so the neighbours of a walk have near keys.
//!
//! The window ([`Packing::of`]): the deltas' bit lengths around a centre (the
//! median of a sample) are counted, and the width `w` that minimises
//! `n·w` plus the bytes of an entry for each delta outside it is taken.
//! A delayed timestamp (the paper's §3.5 steps) or the wrap of a ramp is
//! then one exception of a few bytes instead of a page-wide width.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::TsFileError;
use crate::page::MAX_PAGE_POINTS;
use crate::varint;
use crate::Result;

/// A raw word and about two bytes of position: a block is never larger
/// than at the width this charge chooses, with raw words listed.
const RAW_EXCEPTION_BITS: usize = 80;

/// Deltas sampled for the window's centre, spread over the column.
const SAMPLES: usize = 15;

/// `base` and `base + 2^w − 1`, the least and the greatest integer a
/// slot of `w` bits holds: `None` past `i64::MAX`.
fn slots(base: i64, w: u32) -> Option<(i64, i64)> {
    let top = u64::MAX.checked_shr(64 - w).unwrap_or(0);
    Some((base, base.checked_add_unsigned(top)?))
}

/// Bits a value for integers spanning `lo..=hi`: 0 when they are equal,
/// at most 64.
pub(crate) fn width(lo: i64, hi: i64) -> u32 {
    64 - cast::u64_bits(hi.wrapping_sub(lo)).leading_zeros()
}

/// How a block of integers packs — its base, width and exceptions —
/// from one pass that writes nothing, so its exact size is known before
/// a byte is written.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    base: i64,
    /// `max − base` of the kept integers (`None` when none is): an
    /// integer is kept exactly when its offset from `base` is at most
    /// this.
    span: Option<u64>,
    width: u32,
    exceptions: usize,
    /// Bytes of the exception list after its count.
    list_len: usize,
    /// Whether the list holds distances from the base, not raw words.
    window: bool,
}

impl Frame {
    /// The frame of `ints` when `keep` says which are packed. `keep`
    /// must keep an interval: nothing it rejects may lie between two
    /// integers it keeps.
    pub(crate) fn of(ints: &[i64], keep: impl Fn(i64) -> bool) -> Self {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let (mut exceptions, mut list_len) = (0, 0);
        for (i, &x) in ints.iter().enumerate() {
            if keep(x) {
                lo = lo.min(x);
                hi = hi.max(x);
            } else {
                exceptions += 1;
                list_len += varint::len_u64(cast::u64_from_usize(i)) + 8;
            }
        }
        Frame::new(lo, hi, exceptions, list_len)
    }

    /// The frame whose kept integers span `lo..=hi` (none when `lo > hi`),
    /// with `exceptions` others taking `list_len` bytes of list.
    fn new(lo: i64, hi: i64, exceptions: usize, list_len: usize) -> Self {
        let span = (lo <= hi).then(|| cast::u64_bits(hi.wrapping_sub(lo)));
        Frame {
            base: if span.is_some() { lo } else { 0 },
            span,
            width: span.map_or(0, |_| width(lo, hi)),
            exceptions,
            list_len,
            window: false,
        }
    }

    /// The window frame of `deltas` kept in `lo..=hi`: every delta its
    /// slots hold kept, the others listed. `outside` gives, by bit length,
    /// the range, count and position bytes of the `k` outside `lo..=hi`:
    /// where each length holds one value, they size the list, no pass.
    fn window<'a, O>(deltas: &[i64], (lo, hi): (i64, i64), k: usize, outside: O) -> Self
    where
        O: Iterator<Item = (Option<&'a (i64, i64)>, (usize, usize))> + Clone,
    {
        let mut frame = Frame {
            window: true,
            ..Frame::new(lo, hi, 0, 0)
        };
        if k == 0 {
            return frame;
        }
        let top = frame.slots().map_or(i64::MAX, |(_, top)| top);
        let span = cast::u64_bits(top.wrapping_sub(lo));
        let out = |d: i64| cast::u64_bits(d.wrapping_sub(lo)) > span;
        let entry = |d: i64| varint::len_u64(varint::zigzag(d.wrapping_sub(lo)));
        let one_value =
            |(r, (k, _)): (Option<&(i64, i64)>, _)| k == 0 || r.is_some_and(|(l, h)| l == h);
        if outside.clone().all(one_value) {
            for (r, (k, p)) in outside {
                if let Some(&(d, _)) = r.filter(|&&(d, _)| k > 0 && out(d)) {
                    (frame.exceptions, frame.list_len) =
                        (frame.exceptions + k, frame.list_len + p + k * entry(d));
                }
            }
        } else {
            for (i, &d) in deltas.iter().enumerate().filter(|&(_, &d)| out(d)) {
                frame.exceptions += 1;
                frame.list_len += varint::len_u64(cast::u64_from_usize(i)) + entry(d);
            }
        }
        frame.span = Some(span);
        frame
    }

    /// The least and the greatest integer a packed slot can hold.
    pub(crate) fn slots(&self) -> Option<(i64, i64)> {
        slots(self.base, self.width)
    }

    /// The frame of other integers at the same positions, the same
    /// ones exceptions, whose kept ones span `lo..=hi`.
    pub(crate) fn spanning(&self, lo: i64, hi: i64) -> Self {
        Frame::new(lo, hi, self.exceptions, self.list_len)
    }

    /// `x`'s offset from the base when it is kept.
    #[inline]
    fn offset(&self, x: i64) -> Option<u64> {
        let offset = cast::u64_bits(x.wrapping_sub(self.base));
        self.span.filter(|&span| offset <= span).map(|_| offset)
    }

    /// How many integers the frame leaves out as exceptions.
    pub(crate) fn exceptions(&self) -> usize {
        self.exceptions
    }

    /// The smallest kept integer, which an exception's slot decodes to.
    pub(crate) fn base(&self) -> i64 {
        self.base
    }

    /// The block's exact size in bytes for `n` integers.
    pub(crate) fn len(&self, n: usize) -> usize {
        let exceptions = cast::u64_from_usize(self.exceptions);
        1 + varint::len_u64(varint::zigzag(self.base))
            + (n * cast::usize_from_u32(self.width)).div_ceil(8)
            + varint::len_u64(exceptions)
            + self.list_len
    }

    /// Append the block of `ints`, the ones [`Self::of`] was given, with
    /// `raw(position, x)` stored for each exception. `ints` is walked
    /// twice: for the packed bits, then for the exceptions.
    pub(crate) fn write<I>(&self, ints: I, raw: impl Fn(usize, i64) -> u64, out: &mut Vec<u8>)
    where
        I: IntoIterator<Item = i64>,
        I::IntoIter: Clone,
    {
        out.push(cast::low8(u64::from(self.width)));
        self.write_body(ints, raw, out);
    }

    /// [`Self::write`] after the width byte: the base, the packed bits
    /// and the exception list.
    fn write_body<I>(&self, ints: I, raw: impl Fn(usize, i64) -> u64, out: &mut Vec<u8>)
    where
        I: IntoIterator<Item = i64>,
        I::IntoIter: Clone,
    {
        let ints = ints.into_iter();
        varint::write_i64(out, self.base);
        let packed_len = (ints.size_hint().0 * cast::usize_from_u32(self.width)).div_ceil(8);
        out.reserve(packed_len + 8);
        // MSB-first into one word: `free` bits of `acc` are still open.
        let w = self.width;
        let (mut acc, mut free) = (0u64, 64u32);
        if w > 0 {
            for x in ints.clone() {
                let v = self.offset(x).unwrap_or(0);
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
        out.extend_from_slice(
            tail.get(..cast::usize_from_u32(64 - free).div_ceil(8))
                .unwrap_or(&[]),
        );
        varint::write_u64(out, cast::u64_from_usize(self.exceptions));
        if self.exceptions > 0 {
            for (i, x) in ints.enumerate() {
                if self.offset(x).is_none() {
                    varint::write_u64(out, cast::u64_from_usize(i));
                    match self.window {
                        true => varint::write_i64(out, x.wrapping_sub(self.base)),
                        false => out.extend_from_slice(&raw(i, x).to_le_bytes()),
                    }
                }
            }
        }
    }
}

/// A parsed block: its header, packed integers and exception list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Block<'a> {
    width: u32,
    base: i64,
    packed: &'a [u8],
    /// `varint k` onwards.
    list: &'a [u8],
    /// Whether the list holds distances from the base, not raw words.
    window: bool,
}

fn corrupt(msg: String) -> TsFileError {
    TsFileError::Corrupt(format!("bit-packed block: {msg}"))
}

/// Parse the block of `n` integers that is all of `buf`, a `window` one
/// or not.
pub(crate) fn parse(buf: &[u8], n: usize, window: bool) -> Result<Block<'_>> {
    let (&width, rest) = buf.split_first().ok_or(TsFileError::UnexpectedEof {
        what: "bit-packed block header",
    })?;
    parse_body(width, rest, n, window)
}

/// Parse the block of `n` integers whose width byte is `width` and whose
/// other bytes are all of `rest`.
fn parse_body(width: u8, rest: &[u8], n: usize, window: bool) -> Result<Block<'_>> {
    if n > MAX_PAGE_POINTS {
        return Err(corrupt(format!("{n} integers exceed the page ceiling")));
    }
    if width > 64 {
        return Err(corrupt(format!("bit width {width}")));
    }
    let width = u32::from(width);
    let mut pos = 0usize;
    let base = varint::read_i64(rest, &mut pos)?;
    // n ≤ 2^20 and width ≤ 64: the product cannot overflow.
    let packed_len = cast::u64_from_usize(n)
        .checked_mul(u64::from(width))
        .map(|bits| bits.div_ceil(8))
        .and_then(cast::usize_checked)
        .ok_or_else(|| corrupt("packed length unaddressable".into()))?;
    let rest = rest.get(pos..).unwrap_or(&[]);
    if rest.len() < packed_len {
        return Err(TsFileError::UnexpectedEof {
            what: "bit-packed integers",
        });
    }
    let (packed, list) = rest.split_at(packed_len);
    Ok(Block {
        width,
        base,
        packed,
        list,
        window,
    })
}

impl Block<'_> {
    /// The least and the greatest integer a packed slot can hold.
    pub(crate) fn slots(&self) -> Option<(i64, i64)> {
        slots(self.base, self.width)
    }

    /// Append `f` of each of the `n` packed integers to `out`, in order,
    /// an exception's slot included (it reads `base`).
    pub(crate) fn unpack<T>(&self, n: usize, mut f: impl FnMut(i64) -> T, out: &mut Vec<T>) {
        let (w, base, packed) = (self.width, self.base, self.packed);
        out.reserve(n);
        if w == 0 {
            out.extend((0..n).map(|_| f(base)));
        } else if w <= 57 {
            let mut bit = 0usize;
            out.extend((0..n).map(|_| {
                let offset = bits_at(packed, bit, w);
                bit += cast::usize_from_u32(w);
                f(base.wrapping_add(cast::i64_bits(offset)))
            }));
        } else {
            out.extend((0..n).map(|i| f(self.slot(i))));
        }
    }

    /// The integer in slot `i` (below the block's count): `base` plus
    /// its packed bits, an exception's slot included.
    fn slot(&self, i: usize) -> i64 {
        let w = self.width;
        let bit = i * cast::usize_from_u32(w);
        // A slot past 57 bits is read as two halves.
        let offset = match w {
            0 => 0,
            1..=57 => bits_at(self.packed, bit, w),
            _ => bits_at(self.packed, bit, 32) << (w - 32) | bits_at(self.packed, bit + 32, w - 32),
        };
        self.base.wrapping_add(cast::i64_bits(offset))
    }

    /// The wrapping sum of the `n` integers the block decodes to: its
    /// slots, each exception's replaced by the word the list gives it.
    /// Fails exactly where [`Self::unpack`] and [`Self::exceptions`] do,
    /// without unpacking a `Vec`.
    pub(crate) fn sum(&self, n: usize) -> Result<i64> {
        let mut sum = (0..n).fold(0i64, |sum, i| sum.wrapping_add(self.slot(i)));
        // An exception's slot holds what its bits say (0 as written,
        // anything after a flip): drop that, add the raw word.
        self.exceptions(n, |at, raw| {
            sum = sum
                .wrapping_sub(self.slot(at))
                .wrapping_add(cast::i64_bits(raw));
        })?;
        Ok(sum)
    }

    /// Walk the exception list, handing each `(position, word)` to
    /// `patch` (a window block's integer as bits): the count is at most
    /// `n`, positions ascend strictly below `n`, no slot holds a window
    /// block's integer, and nothing follows the list.
    pub(crate) fn exceptions(&self, n: usize, mut patch: impl FnMut(usize, u64)) -> Result<()> {
        let list = self.list;
        let mut pos = 0usize;
        let k = varint::read_u64(list, &mut pos)?;
        if k > cast::u64_from_usize(n) {
            return Err(corrupt(format!("{k} exceptions among {n} integers")));
        }
        let mut next = 0u64;
        for _ in 0..k {
            let at = varint::read_u64(list, &mut pos)?;
            if at < next || at >= cast::u64_from_usize(n) {
                return Err(corrupt(format!(
                    "exception position {at} out of order or past {n}"
                )));
            }
            next = at + 1;
            let word = match self.window {
                true => self.base.wrapping_add(varint::read_i64(list, &mut pos)?),
                false => {
                    let raw = list
                        .get(pos..pos + 8)
                        .and_then(|b| <[u8; 8]>::try_from(b).ok());
                    pos += 8;
                    let raw = raw.ok_or(TsFileError::UnexpectedEof {
                        what: "bit-packed exception",
                    })?;
                    cast::i64_bits(u64::from_le_bytes(raw))
                }
            };
            let slot = self
                .slots()
                .map_or(word >= self.base, |(lo, hi)| lo <= word && word <= hi);
            if self.window && slot {
                return Err(corrupt(format!("exception {word} inside the slots")));
            }
            let at =
                cast::usize_checked(at).ok_or_else(|| corrupt("position unaddressable".into()))?;
            patch(at, cast::u64_bits(word));
        }
        if pos != list.len() {
            return Err(corrupt(format!(
                "{} bytes after the exceptions",
                list.len() - pos
            )));
        }
        Ok(())
    }
}

/// The exceptions of a page column's window block of `n` points (either
/// timestamp frame, packed values, a decimal delta frame's deltas), and
/// their entries' bytes.
pub(crate) fn window_list(col: &[u8], n: usize) -> Result<(usize, usize)> {
    let (m, mut k) = (delta_count(n)?, 0);
    let block = timestamp_line(col, n)?.map_or_else(|| parse(col, m, true), |l| Ok(l.block))?;
    block.exceptions(m, |_, _| k += 1)?;
    Ok((
        k,
        block.list.len() - varint::len_u64(cast::u64_from_usize(k)),
    ))
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

/// Check the structure of the block of `n` integers that is all of
/// `buf` without unpacking it: header, packed length, exception list.
pub(crate) fn verify(buf: &[u8], n: usize) -> Result<()> {
    parse(buf, n, false)?.exceptions(n, |_, _| {})
}

/// How a block frames its integers: a decimal block in any of the three,
/// a page's packed timestamp column in the delta or the line frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// From their minimum, with the values that do not round-trip raw.
    Reference,
    /// The first integer, then the deltas of the rest.
    Delta,
    /// A slope, then the residuals from its line.
    Line,
}

/// Bit 7 of a page timestamp column's width byte: the line frame. Only
/// that column's readers take it for a flag; to every other reader a
/// width byte above 64 is `Corrupt`.
const LINE_FRAME: u8 = 0x80;

/// A line frame's slope is in units of `2^-SLOPE_SHIFT` a point.
const SLOPE_SHIFT: u32 = 16;

/// The trend `⌊slope·i / 2^16⌋` at position `i`, `None` where `slope·i`
/// overflows.
pub(crate) fn trend(slope: i64, i: usize) -> Option<i64> {
    Some(slope.checked_mul(i64::try_from(i).ok()?)? >> SLOPE_SHIFT)
}

/// The least-squares slope, in units of `2^-16` a point, of the integers
/// of `ints` that `keep` keeps against their positions, from one pass of
/// sums of their offsets from `origin` (0 with fewer than two kept).
/// `None` past a page, or where the sums could pass 2^62 (`n² · max
/// |offset|` beyond it). The minimax line needs a convex hull to save a
/// few units of range on even noise.
pub(crate) fn fit(ints: &[i64], origin: i64, keep: impl Fn(i64) -> bool) -> Option<i64> {
    let len = ints.len();
    let n = i64::try_from(len).ok().filter(|_| len <= MAX_PAGE_POINTS)?;
    // Over the kept `y = x − origin` at `i`: count, Σi, Σi² are 0..n's
    // less the others'; Σiy is `n·Σy` less Σy's prefix sums, summed.
    // `reach` ORs every |y|: its bit length is the largest's.
    let (mut k, mut si, mut sii) = (n, n * (n - 1) / 2, (n - 1) * n * (2 * n - 1) / 6);
    let (mut sy, mut prefixes, mut reach) = (0i64, 0i64, 0u64);
    for (i, &x) in (0i64..).zip(ints) {
        match keep(x) {
            true => {
                let y = x.wrapping_sub(origin);
                (sy, reach) = (sy.wrapping_add(y), reach | y.unsigned_abs());
            }
            false => (k, si, sii) = (k - 1, si - i, sii - i * i),
        }
        prefixes = prefixes.wrapping_add(sy);
    }
    if 2 * (64 - len.leading_zeros()) + (64 - reach.leading_zeros()) > 62 {
        return None;
    }
    let [k, si, sii, sy] = [k, si, sii, sy].map(i128::from);
    let siy = sy * i128::from(n) - i128::from(prefixes);
    // One kept point fits no line: 0 / 0, a NaN, which casts to 0.
    let slope = cast::f64_from_i128(k * siy - si * sy) / cast::f64_from_i128(k * sii - si * si);
    let slope = (slope * f64::from(1u32 << SLOPE_SHIFT)).round_ties_even();
    Some(cast::i64_from_integral(slope))
}

/// `ints` less the trend at their positions, an integer that `keep`
/// refuses left as it is.
pub(crate) fn residuals<'a>(
    ints: &'a [i64],
    slope: i64,
    keep: impl Fn(i64) -> bool + Clone + 'a,
) -> impl Iterator<Item = i64> + Clone + 'a {
    let residual = move |(i, &x): (i64, _)| match keep(x) {
        true => x.wrapping_sub(slope.wrapping_mul(i) >> SLOPE_SHIFT),
        false => x,
    };
    (0..).zip(ints).map(residual)
}

/// A parsed line frame: a slope whose trend at the block's last position
/// fits an `i64` (so every trend before it does), and the block of
/// residuals from it.
#[derive(Debug)]
pub(crate) struct Line<'a> {
    slope: i64,
    pub(crate) block: Block<'a>,
}

impl<'a> Line<'a> {
    /// `Corrupt` where `slope` times `last`, the block's last position,
    /// overflows.
    fn new(slope: i64, block: Block<'a>, last: usize) -> Result<Self> {
        trend(slope, last)
            .map(|_| Line { slope, block })
            .ok_or_else(|| corrupt(format!("slope {slope} overflows by {last}")))
    }

    /// The trend at position `i`, at most the last.
    pub(crate) fn trend(&self, i: usize) -> i64 {
        trend(self.slope, i).unwrap_or(0)
    }

    /// Append `f` of each of the `n` slots plus the trend at its position,
    /// the first at `start`, an exception's slot included.
    pub(crate) fn unpack<T>(
        &self,
        n: usize,
        start: usize,
        mut f: impl FnMut(i64) -> T,
        out: &mut Vec<T>,
    ) {
        let mut trend = self.slope.wrapping_mul(i64::try_from(start).unwrap_or(0));
        let at = |r: i64| {
            let x = r.wrapping_add(trend >> SLOPE_SHIFT);
            trend = trend.wrapping_add(self.slope);
            f(x)
        };
        self.block.unpack(n, at, out);
    }
}

/// Parse `varint_i slope | the block of n residuals`, all of `buf`: a
/// decimal block's line frame.
pub(crate) fn line(buf: &[u8], n: usize) -> Result<Line<'_>> {
    let (mut pos, last) = (0usize, n.saturating_sub(1));
    let slope = varint::read_i64(buf, &mut pos)?;
    Line::new(slope, parse(buf.get(pos..).unwrap_or(&[]), n, false)?, last)
}

/// How one column of deltas packs: the frame of those inside a window
/// chosen from their bit lengths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packing {
    frame: Frame,
    n: usize,
}

impl Packing {
    /// Choose the window for `deltas` and frame what it keeps, sized
    /// exactly before a byte is written.
    ///
    /// The window keeps the deltas whose zigzagged distance from a
    /// centre (the median of a sample) has at most `w` bits — the
    /// interval `centre − 2^(w−1) ..= centre + 2^(w−1) − 1` — for the `w`
    /// that minimises `n·w` plus each outside delta's position and
    /// distance bytes. One pass counts the deltas by that bit length,
    /// keeping each length's range and how many sit where a position
    /// takes one, two or three varint bytes (a page holds at most 2^20
    /// points), so the cost of any `w` follows; the block keeps every
    /// delta its slots hold ([`Frame::window`]). Where the width
    /// [`RAW_EXCEPTION_BITS`] chooses lists raw words in fewer bytes, it
    /// is framed too, and the smaller block taken.
    pub(crate) fn of(deltas: &[i64]) -> Self {
        let centre = sample_median(deltas);
        let mut ranges = [(i64::MAX, i64::MIN); 65];
        let mut counts = [[0usize; 65]; 3];
        let mut start = 0;
        for (class, end) in counts.iter_mut().zip([1 << 7, 1 << 14, usize::MAX]) {
            let end = end.min(deltas.len());
            for &d in deltas.get(start..end).unwrap_or(&[]) {
                let len = distance_bits(d, centre);
                if let (Some(count), Some((lo, hi))) = (class.get_mut(len), ranges.get_mut(len)) {
                    *count += 1;
                    (*lo, *hi) = ((*lo).min(d), (*hi).max(d));
                }
            }
            start = end;
        }
        // The deltas of one bit length, and their positions' bytes.
        let length = |len: usize| {
            let at = |(class, p): (&[usize; 65], _)| class.get(len).map_or((0, 0), |&c| (c, c * p));
            let add = |(k, p), (c, b)| (k + c, p + b);
            counts.iter().zip(1..).map(at).fold((0, 0), add)
        };
        // Walk the widths down. Outside are the deltas longer than w:
        // their count, their positions' bytes, and what they cost by
        // their entries' bytes and as raw words. Each charge's best
        // width, the narrowest of a tie, keeps its outside count and bytes.
        let n = deltas.len();
        let (mut k, mut p, mut cost) = (0, 0, [0, 0]);
        let mut best = [(usize::MAX, 0, 0, 0); 2];
        for w in (0..=64).rev() {
            for (best, bits) in best.iter_mut().zip(cost) {
                if n * w + bits <= best.0 {
                    *best = (n * w + bits, w, k, p);
                }
            }
            let (kl, pl) = length(w);
            (k, p) = (k + kl, p + pl);
            cost = [
                cost[0] + 8 * (pl + kl * w.div_ceil(7)),
                cost[1] + kl * RAW_EXCEPTION_BITS,
            ];
        }
        // At width w: the kept range, and the deltas outside it by length.
        let fold = |(lo, hi): (i64, i64), &(l, h): &(i64, i64)| (lo.min(l), hi.max(h));
        let range = |w: usize| ranges.iter().take(w + 1).fold((i64::MAX, i64::MIN), fold);
        let outside = |w: usize| (w + 1..65).map(|len| (ranges.get(len), length(len)));
        let [(_, w, k, _), (_, w_raw, k_raw, p_raw)] = best;
        let mut best = Frame::window(deltas, range(w), k, outside(w));
        // Where raw words at their own width would be smaller, that
        // width's window is sized too, and the smaller kept.
        let (lo, hi) = range(w_raw);
        if w_raw != w && Frame::new(lo, hi, k_raw, p_raw + 8 * k_raw).len(n) < best.len(n) {
            let other = Frame::window(deltas, (lo, hi), k_raw, outside(w_raw));
            if other.len(n) < best.len(n) {
                best = other;
            }
        }
        Packing { frame: best, n }
    }

    /// A floor under the bytes of the block [`Self::of`] makes of
    /// `deltas`, from one pass over them in pairs (the first and the
    /// second, the third and the fourth, …): a pair both kept widens the
    /// block to at least the bits `b` of its difference, and a pair wider
    /// than the block holds an exception of 2 bytes or more — `1 + ⌈b/7⌉`
    /// where `w + 2 ≤ b < 63`, one of the pair then `2^(b−2)` or more from
    /// the base. So at each width `w` the block takes `n·w` bits, those
    /// bytes a pair wider than `w`, and 3 bytes of header.
    pub(crate) fn floor(deltas: &[i64]) -> usize {
        // Pairs by the bits of their difference.
        let mut pairs = [0usize; 65];
        for pair in deltas.chunks_exact(2) {
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
            least = least.min(deltas.len() * w + 8 * (wider + 2 * next));
            wider += next * if b < 63 { 1 + b.div_ceil(7) } else { 2 };
        }
        3 + least.div_ceil(8)
    }

    /// Exact bytes of the block.
    pub(crate) fn len(&self) -> usize {
        self.frame.len(self.n)
    }

    /// Append the block of `deltas`, the ones it was taken from.
    pub(crate) fn write(&self, deltas: &[i64], out: &mut Vec<u8>) {
        self.frame
            .write(deltas.iter().copied(), |_, d| cast::u64_bits(d), out);
    }
}

/// How a page's timestamps pack: the smaller of the delta frame and the
/// line frame (its slope and its residuals after the first point), each
/// sized exactly, a tie to the delta frame.
#[derive(Debug)]
pub(crate) struct TsPacking {
    packing: Packing,
    line: Option<(i64, Vec<i64>)>,
}

impl TsPacking {
    pub(crate) fn of(ts: &[i64], deltas: &[i64]) -> Self {
        let (packing, first) = (Packing::of(deltas), ts.first().copied().unwrap_or(0));
        let delta = TsPacking {
            packing,
            line: None,
        };
        let slope = fit(ts, first, |_| true).filter(|&s| trend(s, deltas.len()).is_some());
        let line = slope.map(|slope| {
            let all = residuals(ts, slope, |_| true).skip(1);
            let residuals: Vec<i64> = all.map(|r| r.wrapping_sub(first)).collect();
            let packing = Packing::of(&residuals);
            TsPacking {
                packing,
                line: Some((slope, residuals)),
            }
        });
        line.filter(|line| line.len() < delta.len())
            .unwrap_or(delta)
    }

    /// Exact bytes of the column.
    pub(crate) fn len(&self) -> usize {
        let slope = self.line.as_ref().map(|&(slope, _)| varint::zigzag(slope));
        self.packing.len() + slope.map_or(0, varint::len_u64)
    }

    /// Append the column of the timestamps whose `deltas` it was sized from.
    pub(crate) fn write(&self, deltas: &[i64], out: &mut Vec<u8>) {
        let Some((slope, residuals)) = &self.line else {
            return self.packing.write(deltas, out);
        };
        let frame = &self.packing.frame;
        out.push(cast::low8(u64::from(frame.width)) | LINE_FRAME);
        varint::write_i64(out, *slope);
        frame.write_body(residuals.iter().copied(), |_, r| cast::u64_bits(r), out);
    }
}

/// Bits of `d`'s zigzagged distance from `centre`, saturated at the
/// `i64` range, so that a delta lies inside the window of width `w`
/// exactly when this is at most `w`.
#[inline]
fn distance_bits(d: i64, centre: i64) -> usize {
    let z = varint::zigzag(d.saturating_sub(centre));
    cast::usize_from_u32(64 - z.leading_zeros())
}

/// The middle of a sample of `deltas` spread over the column (0 when
/// there are none).
fn sample_median(deltas: &[i64]) -> i64 {
    let step = (deltas.len() / SAMPLES) | 1;
    let mut sample = [0i64; SAMPLES];
    let mut taken = 0;
    for (slot, &d) in sample.iter_mut().zip(deltas.iter().step_by(step)) {
        *slot = d;
        taken += 1;
    }
    let sample = sample.get_mut(..taken).unwrap_or(&mut []);
    sample.sort_unstable();
    sample.get(taken / 2).copied().unwrap_or(0)
}

/// The key [`f64::total_cmp`] orders by, as bits: the sign kept, the
/// rest flipped when it is set. Its own inverse.
#[inline]
fn flip(bits: u64) -> u64 {
    bits ^ ((cast::u64_bits(cast::i64_bits(bits) >> 63)) >> 1)
}

#[inline]
fn key(v: f64) -> i64 {
    cast::i64_bits(flip(v.to_bits()))
}

/// Fill `out` with the wrapping deltas of the keys of `vs`.
pub(crate) fn key_deltas(vs: &[f64], out: &mut Vec<i64>) {
    out.clear();
    out.extend(
        vs.iter()
            .zip(vs.iter().skip(1))
            .map(|(&a, &b)| key(b).wrapping_sub(key(a))),
    );
}

/// Encode a timestamp column as packed timestamps (nothing for an empty
/// one).
pub fn encode_timestamps(ts: &[i64], out: &mut Vec<u8>) {
    let Some(&first) = ts.first() else {
        return;
    };
    let deltas = deltas(ts);
    varint::write_i64(out, first);
    Packing::of(&deltas).write(&deltas, out);
}

/// `ts[i + 1] − ts[i]` (wrapping) for each adjacent pair.
pub(crate) fn deltas(ts: &[i64]) -> Vec<i64> {
    ts.iter()
        .zip(ts.iter().skip(1))
        .map(|(&a, &b)| b.wrapping_sub(a))
        .collect()
}

/// Encode a value column as packed values (nothing for an empty one).
pub fn encode_values(vs: &[f64], out: &mut Vec<u8>) {
    let Some(&first) = vs.first() else {
        return;
    };
    let mut deltas = Vec::new();
    key_deltas(vs, &mut deltas);
    out.extend_from_slice(&first.to_bits().to_le_bytes());
    Packing::of(&deltas).write(&deltas, out);
}

/// How many deltas a packed column of `n` points holds: `n − 1`, and a
/// column holds at least its first point.
fn delta_count(n: usize) -> Result<usize> {
    n.checked_sub(1)
        .ok_or_else(|| corrupt("a packed column of no points".into()))
}

/// `head` and its running sums with the `n − 1` deltas of the block that
/// is all of `block`, exceptions in place.
fn running_sums(block: &[u8], n: usize, head: i64) -> Result<Vec<i64>> {
    let m = delta_count(n)?;
    let b = parse(block, m, true)?;
    let mut out = Vec::with_capacity(n);
    out.push(head);
    b.unpack(m, |d| d, &mut out);
    let deltas = out.get_mut(1..).unwrap_or(&mut []);
    b.exceptions(m, |at, raw| {
        if let Some(slot) = deltas.get_mut(at) {
            *slot = cast::i64_bits(raw);
        }
    })?;
    let mut sum = 0i64;
    for slot in &mut out {
        sum = sum.wrapping_add(*slot);
        *slot = sum;
    }
    Ok(out)
}

/// Keep `out` up to its first point past `until`, that point included
/// (the paper's partial scan, Figure 7(b)).
fn cut(mut out: Vec<i64>, until: Option<i64>) -> Vec<i64> {
    if let Some(at) = until.and_then(|limit| out.iter().position(|&t| t > limit)) {
        out.truncate(at + 1);
    }
    out
}

/// Decode the `n` timestamps of a packed timestamp column, or with
/// `until` only up to the first past it.
pub fn decode_timestamps(buf: &[u8], n: usize, until: Option<i64>) -> Result<Vec<i64>> {
    let mut pos = 0usize;
    let first = varint::read_i64(buf, &mut pos)?;
    Ok(cut(
        running_sums(buf.get(pos..).unwrap_or(&[]), n, first)?,
        until,
    ))
}

/// The first value's bits and the rest of a packed value column.
fn value_head(buf: &[u8]) -> Result<(u64, &[u8])> {
    let head = buf
        .get(..8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .ok_or(TsFileError::UnexpectedEof {
            what: "packed value head",
        })?;
    Ok((u64::from_le_bytes(head), buf.get(8..).unwrap_or(&[])))
}

/// Decode the `n` values of a packed value column.
pub fn decode_values(buf: &[u8], n: usize) -> Result<Vec<f64>> {
    let (first, block) = value_head(buf)?;
    let keys = running_sums(block, n, cast::i64_bits(flip(first)))?;
    Ok(keys
        .into_iter()
        .map(|k| f64::from_bits(flip(cast::u64_bits(k))))
        .collect())
}

/// The `n` integers of a page's packed column in the delta frame, the
/// block of the deltas from `first` to `last` (the page's FP and LP): it
/// must end at `last`, so it holds no more and no fewer deltas.
pub(crate) fn decode_page_deltas(block: &[u8], n: usize, ends: (i64, i64)) -> Result<Vec<i64>> {
    let ((first, last), out) = (ends, running_sums(block, n, ends.0)?);
    lands(first, n - 1, out.last().copied().unwrap_or(first), last)?;
    Ok(out)
}

/// The line frame of a page's packed timestamp column of `n` points —
/// `u8 (w | 0x80) | varint_i slope`, then the rest of the block of the
/// `n − 1` residuals after the first point — or `None` for the delta
/// frame.
fn timestamp_line(col: &[u8], n: usize) -> Result<Option<Line<'_>>> {
    let (Some((&width, rest)), true) = (col.split_first(), is_line(col)) else {
        return Ok(None);
    };
    let (m, mut pos) = (delta_count(n)?, 0usize);
    let slope = varint::read_i64(rest, &mut pos)?;
    let block = parse_body(width & !LINE_FRAME, rest.get(pos..).unwrap_or(&[]), m, true)?;
    Line::new(slope, block, m).map(Some)
}

/// `Corrupt` unless a column of `steps` steps from `first` that ends at
/// `end` ends at `last`.
fn lands(first: i64, steps: usize, end: i64, last: i64) -> Result<()> {
    match end == last {
        true => Ok(()),
        false => Err(corrupt(format!(
            "{steps} steps from {first} end at {end}, not at {last}"
        ))),
    }
}

/// Decode the `n` timestamps of a page's packed timestamp column from
/// `first` to `last` (the page's FP.t and LP.t), or with `until` only up
/// to the first past it; the column must end at `last` either way. In
/// the line frame each is `first` plus its trend and its residual, with
/// no running sum.
pub(crate) fn decode_page_timestamps(
    col: &[u8],
    n: usize,
    (first, last): (i64, i64),
    until: Option<i64>,
) -> Result<Vec<i64>> {
    let Some(line) = timestamp_line(col, n)? else {
        return Ok(cut(decode_page_deltas(col, n, (first, last))?, until));
    };
    let mut out = Vec::with_capacity(n);
    out.push(first);
    line.unpack(n - 1, 1, |x| first.wrapping_add(x), &mut out);
    let points = out.get_mut(1..).unwrap_or(&mut []);
    line.block.exceptions(n - 1, |at, raw| {
        if let Some(t) = points.get_mut(at) {
            *t = first
                .wrapping_add(line.trend(at + 1))
                .wrapping_add(cast::i64_bits(raw));
        }
    })?;
    lands(first, n - 1, out.last().copied().unwrap_or(first), last)?;
    Ok(cut(out, until))
}

/// Check a page's packed timestamp column of `n` points without decoding
/// it — its structure, and that it ends at `last`: in the delta frame
/// by its deltas' sum, in the line frame by its last residual — so it
/// passes exactly the columns [`decode_page_timestamps`] decodes.
pub(crate) fn verify_page_timestamps(
    col: &[u8],
    n: usize,
    (first, last): (i64, i64),
) -> Result<()> {
    let Some(line) = timestamp_line(col, n)? else {
        return verify_page_column(col, n, (first, last));
    };
    let m = n - 1;
    let mut end = m.checked_sub(1).map_or(0, |i| line.block.slot(i));
    line.block.exceptions(m, |at, raw| {
        if at + 1 == m {
            end = cast::i64_bits(raw);
        }
    })?;
    lands(
        first,
        m,
        first.wrapping_add(line.trend(m)).wrapping_add(end),
        last,
    )
}

/// Whether a page's packed timestamp column is in the line frame.
pub(crate) fn is_line(col: &[u8]) -> bool {
    col.first().is_some_and(|&width| width & LINE_FRAME != 0)
}

/// Check a page's packed column of `n` points in the delta frame without
/// decoding it: the block's structure, and that its deltas sum from
/// `first` to `last` — so it passes exactly the columns
/// [`decode_page_deltas`] decodes.
fn verify_page_column(block: &[u8], n: usize, (first, last): (i64, i64)) -> Result<()> {
    let m = delta_count(n)?;
    let sum = parse(block, m, true)?.sum(m)?;
    lands(first, m, first.wrapping_add(sum), last)
}

/// [`verify_page_column`] over the keys of a packed value column
/// running from `first` to `last` (bit-exact).
pub(crate) fn verify_page_values(block: &[u8], n: usize, (first, last): (f64, f64)) -> Result<()> {
    verify_page_column(block, n, (key(first), key(last)))
}

/// Decode the `n` values of a page's packed value column, the block of
/// the key deltas from `first` to `last` (the page's FP.v and LP.v,
/// bit-exact).
// Out of line: inlined into `page::decode_page`, that function's own
// loops (the key flip, the points' assembly) compiled ~3 % slower on
// full-precision pages.
#[inline(never)]
pub(crate) fn decode_page_values(
    block: &[u8],
    n: usize,
    (first, last): (f64, f64),
) -> Result<Vec<f64>> {
    // The keys run from FP's to LP's as timestamps run from FP.t to LP.t.
    let keys = decode_page_deltas(block, n, (key(first), key(last)))?;
    Ok(keys
        .into_iter()
        .map(|k| f64::from_bits(flip(cast::u64_bits(k))))
        .collect())
}

#[cfg(test)]
mod tests {
    // The module-level deny is for the parsing code above; tests
    // assert by panicking.
    #![allow(clippy::indexing_slicing, clippy::as_conversions)]

    use super::*;
    use proptest::prelude::*;

    /// The standalone column round-trips, and so does its block inside
    /// a page, anchored at the column's ends.
    fn ts_roundtrip(ts: &[i64]) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        encode_timestamps(ts, &mut buf);
        assert_eq!(decode_timestamps(&buf, ts.len(), None)?, ts);
        let mut pos = 0;
        varint::read_i64(&buf, &mut pos)?;
        let ends = (ts[0], ts[ts.len() - 1]);
        assert_eq!(
            decode_page_timestamps(&buf[pos..], ts.len(), ends, None)?,
            ts
        );
        // The copy gate's sum passes it, and no other end.
        verify_page_column(&buf[pos..], ts.len(), ends)?;
        assert!(
            Packing::floor(&deltas(ts)) <= buf.len() - pos,
            "floor above the block"
        );
        assert!(verify_page_column(&buf[pos..], ts.len(), (ends.0, ends.1 ^ 1)).is_err());
        Ok(buf)
    }

    fn value_roundtrip(vs: &[f64]) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        encode_values(vs, &mut buf);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decode_values(&buf, vs.len())?), bits(vs));
        let ends = (vs[0], vs[vs.len() - 1]);
        assert_eq!(
            bits(&decode_page_values(&buf[8..], vs.len(), ends)?),
            bits(vs)
        );
        verify_page_values(&buf[8..], vs.len(), ends)?;
        Ok(buf)
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
        let mut pos = 0;
        varint::read_i64(&buf, &mut pos)?;
        assert_eq!(buf[pos], 0, "width");
        // Width 64: deltas of every size, none worth an exception.
        let wide: Vec<i64> = (0..200u64)
            .map(|i| {
                let z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) as i64
            })
            .collect();
        let buf = ts_roundtrip(&wide)?;
        let mut pos = 0;
        varint::read_i64(&buf, &mut pos)?;
        assert_eq!(buf[pos], 64, "width");
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

    #[test]
    fn until_stops_at_the_first_timestamp_past_it() -> Result<()> {
        let ts: Vec<i64> = (0..300i64).map(|i| i * 10 + i % 4).collect();
        let mut packed = Vec::new();
        encode_timestamps(&ts, &mut packed);
        for limit in [i64::MIN, -1, 0, 1, 5, 1_000, 2_991, 2_993, i64::MAX] {
            let end = ts
                .iter()
                .position(|&t| t > limit)
                .map_or(ts.len(), |i| i + 1);
            assert_eq!(
                decode_timestamps(&packed, ts.len(), Some(limit))?,
                &ts[..end],
                "limit {limit}"
            );
        }
        Ok(())
    }

    #[test]
    fn frame_length_is_exact() -> Result<()> {
        let ints: Vec<i64> = (0..300).map(|i| (i * 37) % 101 - 50).collect();
        for keep_below in [i64::MIN, -20, 0, 40, i64::MAX] {
            let keep = |x: i64| x < keep_below;
            let frame = Frame::of(&ints, keep);
            let mut out = Vec::new();
            frame.write(ints.iter().copied(), |_, x| x as u64, &mut out);
            assert_eq!(frame.len(ints.len()), out.len(), "keep below {keep_below}");
            verify(&out, ints.len())?;
        }
        Ok(())
    }

    /// One pass frames the deltas exactly as framing them by the
    /// window's interval does.
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
        for deltas in &shapes {
            let packing = Packing::of(deltas);
            let (lo, hi) = {
                let f = packing.frame;
                (f.base, f.span.map_or(-1, |s| f.base.wrapping_add(s as i64)))
            };
            // Kept: every delta the slots from the least kept one hold.
            let width = packing.frame.width;
            let framed = Frame {
                window: true,
                ..Frame::of(deltas, |d| {
                    hi >= lo && slots(lo, width).map_or(d >= lo, |(l, h)| l <= d && d <= h)
                })
            };
            let (mut one, mut two) = (Vec::new(), Vec::new());
            packing.write(deltas, &mut one);
            framed.write(deltas.iter().copied(), |_, d| d as u64, &mut two);
            assert_eq!(one, two, "{} deltas", deltas.len());
            assert_eq!(packing.len(), one.len());
            assert!(Packing::floor(deltas) <= one.len(), "floor above the block");
        }
    }

    /// Every width unpacks and sums as written, the slots past 57 bits
    /// read in two halves.
    #[test]
    fn every_width_unpacks_and_sums_as_written() -> Result<()> {
        let mut state = 5u64;
        for w in 1..=64u32 {
            let ints: Vec<i64> = (0..37)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> (64 - w)) as i64
                })
                .collect();
            let frame = Frame::of(&ints, |_| true);
            let mut buf = Vec::new();
            frame.write(ints.iter().copied(), |_, _| 0, &mut buf);
            let block = parse(&buf, ints.len(), false)?;
            let mut back = Vec::new();
            block.unpack(ints.len(), |x| x, &mut back);
            assert_eq!(back, ints, "width {w}");
            let sum = ints.iter().fold(0i64, |s, &x| s.wrapping_add(x));
            assert_eq!(block.sum(ints.len())?, sum, "width {w}");
        }
        Ok(())
    }

    proptest! {
        /// The floor is never above the block: deltas around any centre
        /// at any spread, with outliers of any size mixed in.
        #[test]
        fn the_floor_is_never_above_the_block(
            centre in any::<i64>(),
            spread in 0u32..=64,
            draws in prop::collection::vec((any::<u64>(), 0u8..16), 0..300),
        ) {
            let deltas: Vec<i64> = draws
                .iter()
                .map(|&(r, kind)| match kind {
                    0 => r as i64,
                    _ => centre.wrapping_add(r.checked_shr(64 - spread).unwrap_or(0) as i64),
                })
                .collect();
            let packing = Packing::of(&deltas);
            let mut buf = Vec::new();
            packing.write(&deltas, &mut buf);
            prop_assert_eq!(packing.len(), buf.len());
            prop_assert!(Packing::floor(&deltas) <= buf.len());
        }
    }

    #[test]
    fn an_empty_column_is_corrupt() {
        assert!(decode_timestamps(&[0, 0, 0, 0], 0, None).is_err());
        assert!(decode_values(&[0; 11], 0).is_err());
    }
}
