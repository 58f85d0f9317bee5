//! Audited numeric conversions for the codec layers.
//!
//! `varint` and the encodings carry
//! `#![deny(clippy::as_conversions)]`: a silent `as` truncation in a
//! codec is exactly the kind of bug that corrupts data without
//! failing. Every conversion those layers need lives here instead,
//! under a name that states its semantics — bit-exact
//! reinterpretation, deliberate wrapping truncation, or checked
//! narrowing. This is the one codec-side module allowed to write a
//! bare `as`; each use below states why it is safe, and anything added
//! here is expected to be reviewed against its documented contract.

/// Bit-exact reinterpretation of a signed value as unsigned
/// (two's-complement identity; never loses information).
#[inline]
pub fn u64_bits(v: i64) -> u64 {
    v as u64
}

/// Bit-exact reinterpretation of an unsigned value as signed
/// (two's-complement identity; never loses information). Involutive
/// with [`u64_bits`] — the `bit_reinterpretation_is_involutive` test
/// pins it.
#[inline]
pub fn i64_bits(v: u64) -> i64 {
    v as i64
}

/// Deliberate wrapping truncation to the low 8 bits. Use when the
/// value is already masked or when byte-wise serialization wants
/// exactly the low byte. Truncation is the contract: the mask makes it
/// explicit and callers opt in by name.
#[inline]
pub fn low8(v: u64) -> u8 {
    (v & 0xFF) as u8
}

/// Widen a bit count (or other small quantity) to `usize`. Lossless on
/// every supported platform (`usize` is at least 32 bits); narrowing
/// goes through [`usize_checked`].
#[inline]
pub fn usize_from_u32(v: u32) -> usize {
    v as usize
}

/// Widen a byte to `usize`. Always lossless.
#[inline]
pub fn usize_from_u8(v: u8) -> usize {
    v as usize
}

/// Checked narrowing of a length-like `u64` to `usize`. `None` means
/// the on-disk value cannot be addressed on this platform and must be
/// treated as corruption by the caller.
#[inline]
pub fn usize_checked(v: u64) -> Option<usize> {
    usize::try_from(v).ok()
}

/// Checked narrowing to `u32`; `None` on overflow.
#[inline]
pub fn u32_checked(v: u64) -> Option<u32> {
    u32::try_from(v).ok()
}

/// Widen a `usize` count to `u64` for serialization. Lossless on every
/// supported platform (`usize` is at most 64 bits).
#[inline]
pub fn u64_from_usize(v: usize) -> u64 {
    v as u64
}

/// An integer as the nearest `f64`. Exact for `|v| < 2^53`, which is
/// every integer the decimal value codec stores.
#[inline]
pub fn f64_from_i64(v: i64) -> f64 {
    v as f64
}

/// An `i128` as the nearest `f64`: the line fit's sums, where rounding
/// moves the slope and so costs at most compression, never exactness.
#[inline]
pub fn f64_from_i128(v: i128) -> f64 {
    v as f64
}

/// An integral `f64` as `i64`. Exact when `v` is integral and
/// `|v| < 2^63`; the caller checks that first (the cast saturates
/// outside the range and maps NaN to 0, so it never panics).
#[inline]
pub fn i64_from_integral(v: f64) -> i64 {
    v as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reinterpretation_is_involutive() {
        for v in [0i64, 1, -1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(i64_bits(u64_bits(v)), v);
        }
        for v in [0u64, 1, u64::MAX, 1 << 63] {
            assert_eq!(u64_bits(i64_bits(v)), v);
        }
    }

    #[test]
    fn truncations_keep_low_bits() {
        assert_eq!(low8(0x1FF), 0xFF);
        assert_eq!(low8(0x7f), 0x7f);
    }

    #[test]
    fn checked_narrowing() {
        assert_eq!(usize_checked(42), Some(42));
        assert_eq!(u32_checked(u64::from(u32::MAX) + 1), None);
        assert_eq!(u64_from_usize(7), 7);
    }

    #[test]
    fn float_integer_conversions_are_exact_below_2_pow_53() {
        for v in [0i64, 1, -1, 22_537, (1 << 53) - 1, -(1 << 53) + 1] {
            assert_eq!(i64_from_integral(f64_from_i64(v)), v);
        }
        assert_eq!(i64_from_integral(f64::NAN), 0);
    }
}
