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
//!       | k × (varint position, u64 LE raw)   positions ascending, < n
//! ```
//!
//! Nothing follows the exception list. Which integers are kept, and what
//! an exception's raw word means, is the user's: the decimal block
//! ([`super::decimal`]) keeps the scaled integers that round-trip and
//! stores the other values' bits; the packed forms below keep the deltas
//! inside a window and store the others as they are. The packed
//! timestamp column, laid over a decimal block's scaled integers, is
//! that block's delta frame.
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
//!             packed values     = block of key(v[i+1]) − key(v[i])    (head FP.v, wrapping)
//! standalone: varint_i t0 | block,  u64 LE bits of v0 | block
//! ```
//!
//! The standalone column ([`encode_timestamps`], [`encode_values`])
//! carries its head itself; the decimal block's delta frame is one over
//! its scaled integers.
//!
//! `key(v)` is the integer [`f64::total_cmp`] orders by: `v`'s bits as an
//! `i64`, with the low 63 flipped when the sign is set. It is a bijection,
//! so NaN payloads, −0.0 and ±inf round-trip bit-exact, and it is
//! monotone, so the neighbours of a walk have near keys.
//!
//! The window ([`Packing::of`]): the deltas' bit lengths around a centre (the
//! median of a sample) are counted, and the width `w` that minimises
//! `n·w` plus [`EXCEPTION_BITS`] per delta outside it is taken. A delayed
//! timestamp (the paper's §3.5 steps) or the wrap of a ramp is then one
//! exception instead of a page-wide width. The same pass frames the
//! deltas, so the block's exact size is known from one pass.

// Untrusted bytes: an out-of-range access is a typed error, not a panic.
#![deny(clippy::indexing_slicing)]
// Numeric conversions go through the named helpers in `crate::cast`.
#![deny(clippy::as_conversions)]

use crate::cast;
use crate::error::TsFileError;
use crate::page::MAX_PAGE_POINTS;
use crate::varint;
use crate::Result;

/// What choosing a window charges a delta outside it: its raw 64 bits
/// plus about two bytes of position.
const EXCEPTION_BITS: usize = 80;

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
        }
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

    /// Bits a packed integer.
    pub(crate) fn bits(&self) -> u32 {
        self.width
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
        let ints = ints.into_iter();
        out.push(cast::low8(u64::from(self.width)));
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
                    out.extend_from_slice(&raw(i, x).to_le_bytes());
                }
            }
        }
    }
}

/// A parsed block: its header, packed integers and exception list.
#[derive(Debug)]
pub(crate) struct Block<'a> {
    width: u32,
    base: i64,
    packed: &'a [u8],
    /// `varint k` onwards.
    list: &'a [u8],
}

fn corrupt(msg: String) -> TsFileError {
    TsFileError::Corrupt(format!("bit-packed block: {msg}"))
}

/// Parse the block of `n` integers that is all of `buf`.
pub(crate) fn parse(buf: &[u8], n: usize) -> Result<Block<'_>> {
    if n > MAX_PAGE_POINTS {
        return Err(corrupt(format!("{n} integers exceed the page ceiling")));
    }
    let (&width, rest) = buf.split_first().ok_or(TsFileError::UnexpectedEof {
        what: "bit-packed block header",
    })?;
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
    /// slots, each exception's replaced by the raw word the list gives
    /// it. Fails exactly where [`Self::unpack`] and [`Self::exceptions`]
    /// do, without unpacking a `Vec`.
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

    /// Walk the exception list, handing each `(position, raw)` to
    /// `patch`: the count is at most `n`, positions ascend strictly
    /// below `n`, and nothing follows the list.
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
            let raw = list
                .get(pos..pos + 8)
                .and_then(|b| <[u8; 8]>::try_from(b).ok())
                .ok_or(TsFileError::UnexpectedEof {
                    what: "bit-packed exception",
                })?;
            pos += 8;
            let at =
                cast::usize_checked(at).ok_or_else(|| corrupt("position unaddressable".into()))?;
            patch(at, u64::from_le_bytes(raw));
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
    parse(buf, n)?.exceptions(n, |_, _| {})
}

/// How one column of deltas packs: the frame of those inside a window
/// chosen from their bit lengths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packing {
    frame: Frame,
    n: usize,
}

impl Packing {
    /// Choose the window for `deltas` and frame what it keeps, in one
    /// pass that writes nothing.
    ///
    /// The window keeps the deltas whose zigzagged distance from a
    /// centre (the median of a sample) has at most `w` bits — the
    /// interval `centre − 2^(w−1) ..= centre + 2^(w−1) − 1` — for the `w`
    /// that minimises `n·w` plus [`EXCEPTION_BITS`] per delta outside.
    /// The pass counts the deltas by that bit length, keeping each
    /// length's range and how many sit where a position takes one, two
    /// or three varint bytes (a page holds at most 2^20 points), so the
    /// kept range and the exception list follow for any `w`.
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
        // Walk the widths up; `outside` counts the deltas longer than w.
        let n = deltas.len();
        let length = |len: usize| -> usize {
            counts
                .iter()
                .map(|class| class.get(len).copied().unwrap_or(0))
                .sum()
        };
        let mut outside = n - length(0);
        let mut best = (outside * EXCEPTION_BITS, 0);
        for w in 1..=64 {
            outside -= length(w);
            let bits = n * w + outside * EXCEPTION_BITS;
            if bits < best.0 {
                best = (bits, w);
            }
        }
        let w = best.1;
        let (lo, hi) = ranges
            .iter()
            .take(w + 1)
            .fold((i64::MAX, i64::MIN), |(lo, hi), &(l, h)| {
                (lo.min(l), hi.max(h))
            });
        // An exception costs its raw word and a one-, two- or three-byte
        // position.
        let outside = counts.map(|class| class.iter().skip(w + 1).sum::<usize>());
        let list_len = outside.iter().zip(9..).map(|(&k, bytes)| k * bytes).sum();
        Packing {
            frame: Frame::new(lo, hi, outside.iter().sum(), list_len),
            n,
        }
    }

    /// A floor under the bytes of the block [`Self::of`] makes of
    /// `deltas`, from one pass over them in pairs (the first and the
    /// second, the third and the fourth, …): a pair both kept widens the
    /// block to at least the bits of its difference, and a pair with one
    /// left out pays an exception, 9 bytes or more. So at each width `w`
    /// the block takes `n·w` bits, 9 bytes a pair wider than `w`, and 3
    /// bytes of header.
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
        let mut wider: usize = pairs.iter().sum();
        let mut least = usize::MAX;
        for (w, &count) in pairs.iter().enumerate() {
            wider -= count;
            least = least.min(deltas.len() * w + wider * 72);
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

/// Bytes of the packed timestamp column of a page starting at `first`
/// whose deltas pack as `p`.
pub(crate) fn timestamps_len(first: i64, p: &Packing) -> usize {
    varint::len_u64(varint::zigzag(first)) + p.len()
}

/// Append the packed timestamp column of `first` and its `deltas`.
pub(crate) fn write_timestamps(first: i64, deltas: &[i64], p: &Packing, out: &mut Vec<u8>) {
    varint::write_i64(out, first);
    p.write(deltas, out);
}

/// Append the packed value column of `first` and its key deltas.
pub(crate) fn write_values(first: f64, deltas: &[i64], p: &Packing, out: &mut Vec<u8>) {
    out.extend_from_slice(&first.to_bits().to_le_bytes());
    p.write(deltas, out);
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
    write_timestamps(first, &deltas, &Packing::of(&deltas), out);
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
    write_values(first, &deltas, &Packing::of(&deltas), out);
}

/// How many deltas a packed column of `n` points holds: `n − 1`, and a
/// column holds at least its first point.
fn delta_count(n: usize) -> Result<usize> {
    n.checked_sub(1)
        .ok_or_else(|| corrupt("a packed column of no points".into()))
}

/// `head` then the `n − 1` deltas of the block that is all of `block`,
/// exceptions in place.
fn head_and_deltas(block: &[u8], n: usize, head: i64) -> Result<Vec<i64>> {
    let m = delta_count(n)?;
    let b = parse(block, m)?;
    let mut out = Vec::with_capacity(n);
    out.push(head);
    b.unpack(m, |d| d, &mut out);
    let deltas = out.get_mut(1..).unwrap_or(&mut []);
    b.exceptions(m, |at, raw| {
        if let Some(slot) = deltas.get_mut(at) {
            *slot = cast::i64_bits(raw);
        }
    })?;
    Ok(out)
}

/// Running sums of `out` in place, each delta replaced by the point it
/// reaches; with `until`, stop after the first point past it (that point
/// included), as [`super::ts2diff::decode_until`] does.
fn accumulate(out: &mut Vec<i64>, until: Option<i64>) {
    let limit = until.unwrap_or(i64::MAX);
    let Some(&first) = out.first() else {
        return;
    };
    let mut cur = first;
    let mut end = 1;
    if cur <= limit {
        end = out.len();
        for (i, slot) in out.iter_mut().enumerate().skip(1) {
            cur = cur.wrapping_add(*slot);
            *slot = cur;
            if cur > limit {
                end = i + 1;
                break;
            }
        }
    }
    out.truncate(end);
}

/// Decode the `n` timestamps of a packed timestamp column, or with
/// `until` only up to the first past it.
pub fn decode_timestamps(buf: &[u8], n: usize, until: Option<i64>) -> Result<Vec<i64>> {
    let mut pos = 0usize;
    let first = varint::read_i64(buf, &mut pos)?;
    let mut out = head_and_deltas(buf.get(pos..).unwrap_or(&[]), n, first)?;
    accumulate(&mut out, until);
    Ok(out)
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
    let mut keys = head_and_deltas(block, n, cast::i64_bits(flip(first)))?;
    accumulate(&mut keys, None);
    Ok(keys
        .into_iter()
        .map(|k| f64::from_bits(flip(cast::u64_bits(k))))
        .collect())
}

/// Decode the `n` timestamps of a page's packed timestamp column, the
/// block of the deltas from `first` to `last` (the page's FP.t and
/// LP.t), or with `until` only up to the first past it. A column left
/// whole must end at `last`: the block holds the deltas between the
/// two, no more and no fewer.
pub(crate) fn decode_page_timestamps(
    block: &[u8],
    n: usize,
    (first, last): (i64, i64),
    until: Option<i64>,
) -> Result<Vec<i64>> {
    let mut out = head_and_deltas(block, n, first)?;
    accumulate(&mut out, until);
    match out.last() {
        Some(&end) if out.len() == n && end != last => Err(corrupt(format!(
            "{} deltas from {first} end at {end}, not at {last}",
            n - 1
        ))),
        _ => Ok(out),
    }
}

/// Check a page's packed column of `n` points without decoding it:
/// the block's structure, and that its deltas sum from `first` to
/// `last` — so it passes exactly the columns
/// [`decode_page_timestamps`] and [`decode_page_values`] decode.
pub(crate) fn verify_page_column(block: &[u8], n: usize, (first, last): (i64, i64)) -> Result<()> {
    let m = delta_count(n)?;
    let end = first.wrapping_add(parse(block, m)?.sum(m)?);
    match end == last {
        true => Ok(()),
        false => Err(corrupt(format!(
            "{m} deltas from {first} end at {end}, not at {last}"
        ))),
    }
}

/// [`verify_page_column`] over the keys of a packed value column
/// running from `first` to `last` (bit-exact).
pub(crate) fn verify_page_values(block: &[u8], n: usize, (first, last): (f64, f64)) -> Result<()> {
    verify_page_column(block, n, (key(first), key(last)))
}

/// Decode the `n` values of a page's packed value column, the block of
/// the key deltas from `first` to `last` (the page's FP.v and LP.v,
/// bit-exact).
pub(crate) fn decode_page_values(
    block: &[u8],
    n: usize,
    (first, last): (f64, f64),
) -> Result<Vec<f64>> {
    // The keys run from FP's to LP's as timestamps run from FP.t to LP.t.
    let keys = decode_page_timestamps(block, n, (key(first), key(last)), None)?;
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
    fn until_stops_where_ts2diff_stops() -> Result<()> {
        let ts: Vec<i64> = (0..300i64).map(|i| i * 10 + i % 4).collect();
        let mut packed = Vec::new();
        encode_timestamps(&ts, &mut packed);
        let mut stream = Vec::new();
        super::super::ts2diff::encode(&ts, &mut stream);
        for limit in [i64::MIN, -1, 0, 1, 5, 1_000, 2_991, 2_993, i64::MAX] {
            assert_eq!(
                decode_timestamps(&packed, ts.len(), Some(limit))?,
                super::super::ts2diff::decode_until(&stream, ts.len(), limit)?,
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
            let framed = Frame::of(deltas, |d| (lo..=hi).contains(&d));
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
            let block = parse(&buf, ints.len())?;
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
