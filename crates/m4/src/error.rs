//! Error type for the m4 crate.

use std::fmt;

use tskv::TsKvError;

/// Errors produced by the M4 operators.
#[derive(Debug)]
pub enum M4Error {
    /// Error from the storage layer.
    Storage(TsKvError),
    /// The query had `t_qs >= t_qe`.
    EmptyQueryRange { t_qs: i64, t_qe: i64 },
    /// The query asked for zero time spans.
    ZeroSpans,
    /// The query asked for more time spans than
    /// [`crate::query::MAX_SPANS`].
    TooManySpans { w: usize, max: usize },
    /// A render canvas dimension was zero.
    EmptyCanvas,
    /// An internal invariant of the M4-LSM algorithm was violated.
    /// Reaching this is a bug in the operator, not bad input; it is a
    /// typed error (rather than a panic) so a query can never take the
    /// server down.
    Internal(&'static str),
}

impl fmt::Display for M4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            M4Error::Storage(e) => write!(f, "storage error: {e}"),
            M4Error::EmptyQueryRange { t_qs, t_qe } => {
                write!(f, "empty query range: t_qs {t_qs} >= t_qe {t_qe}")
            }
            M4Error::ZeroSpans => write!(f, "query must have w >= 1 time spans"),
            M4Error::TooManySpans { w, max } => {
                write!(f, "query asks for w = {w} spans, over the {max} maximum")
            }
            M4Error::EmptyCanvas => write!(f, "render canvas must be non-empty"),
            M4Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for M4Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            M4Error::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TsKvError> for M4Error {
    fn from(e: TsKvError) -> Self {
        M4Error::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(M4Error::ZeroSpans.to_string().contains("w >= 1"));
        assert!(M4Error::EmptyQueryRange { t_qs: 5, t_qe: 5 }
            .to_string()
            .contains('5'));
        let e: M4Error = TsKvError::SeriesNotFound("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(M4Error::Internal("oops").to_string().contains("oops"));
    }
}
