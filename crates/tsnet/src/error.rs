//! Typed errors for the network layer.
//!
//! Decoding raw network bytes mirrors the no-panic, fallible-decode
//! discipline of the storage crates: every malformed input maps to a [`NetError`]
//! variant, never a panic. Server-side failures travel back to the
//! client as a typed error-code response ([`ErrorCode`]) and surface
//! there as [`NetError::Busy`], [`NetError::Timeout`] or
//! [`NetError::Remote`].

use std::fmt;
use std::io;

/// Server-side failure classes carried inside an error response frame.
///
/// The numeric discriminants are part of the wire protocol (see
/// [`crate::wire`]) and must never be reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the request (max in-flight reached)
    /// or the connection limit rejected the socket. Retryable.
    Busy,
    /// The request's deadline elapsed before its response was ready.
    Timeout,
    /// The named series does not exist on the server.
    SeriesNotFound,
    /// The request was syntactically valid but semantically rejected
    /// (bad query range, bad series name, bad delete range…).
    InvalidRequest,
    /// The storage engine or query operator failed.
    Engine,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The referenced subscription id is not active on this connection
    /// (already unsubscribed, never acknowledged, or another
    /// connection's), or the server's subscription limit was reached.
    Subscription,
}

impl ErrorCode {
    /// Wire discriminant of this code.
    pub fn to_wire(self) -> u8 {
        match self {
            ErrorCode::Busy => 0,
            ErrorCode::Timeout => 1,
            ErrorCode::SeriesNotFound => 2,
            ErrorCode::InvalidRequest => 3,
            ErrorCode::Engine => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Subscription => 6,
        }
    }

    /// Decode a wire discriminant.
    pub fn from_wire(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ErrorCode::Busy),
            1 => Some(ErrorCode::Timeout),
            2 => Some(ErrorCode::SeriesNotFound),
            3 => Some(ErrorCode::InvalidRequest),
            4 => Some(ErrorCode::Engine),
            5 => Some(ErrorCode::ShuttingDown),
            6 => Some(ErrorCode::Subscription),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::SeriesNotFound => "series not found",
            ErrorCode::InvalidRequest => "invalid request",
            ErrorCode::Engine => "engine error",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Subscription => "subscription error",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong on the wire or at the remote end.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The frame did not start with the protocol magic.
    BadMagic([u8; 4]),
    /// The frame's protocol version is not supported by this build.
    UnsupportedVersion(u8),
    /// The buffer ended before the structure it claims to hold.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The payload checksum did not match: bytes were corrupted in
    /// flight (or the peer is not speaking this protocol).
    ChecksumMismatch { expected: u32, actual: u32 },
    /// An enum discriminant byte held no known value.
    UnknownTag {
        /// Which enum was being decoded.
        context: &'static str,
        tag: u8,
    },
    /// A frame or collection declared a size above the protocol limit.
    TooLarge {
        context: &'static str,
        len: u64,
        max: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadString,
    /// The peer answered with a response variant that does not match
    /// the request that was sent.
    UnexpectedResponse(&'static str),
    /// Could not establish a connection within the configured retries.
    ConnectFailed { attempts: u32, last: io::Error },
    /// The server rejected the request under load. Retryable.
    Busy,
    /// The server could not answer within the request's deadline.
    Timeout,
    /// Any other typed failure reported by the server.
    Remote { code: ErrorCode, detail: String },
}

impl NetError {
    /// Rebuild the client-side error for a decoded error-response
    /// `(code, detail)` pair.
    pub fn from_remote(code: ErrorCode, detail: String) -> Self {
        match code {
            ErrorCode::Busy => NetError::Busy,
            ErrorCode::Timeout => NetError::Timeout,
            _ => NetError::Remote { code, detail },
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} more bytes, got {got}")
            }
            NetError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            NetError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            NetError::TooLarge { context, len, max } => {
                write!(f, "{context} length {len} exceeds protocol limit {max}")
            }
            NetError::BadString => write!(f, "length-prefixed string is not valid UTF-8"),
            NetError::UnexpectedResponse(wanted) => {
                write!(f, "response variant does not answer a {wanted} request")
            }
            NetError::ConnectFailed { attempts, last } => {
                write!(f, "connect failed after {attempts} attempt(s): {last}")
            }
            NetError::Busy => write!(f, "server busy (admission control rejected the request)"),
            NetError::Timeout => write!(f, "request deadline elapsed"),
            NetError::Remote { code, detail } => write!(f, "remote error ({code}): {detail}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::ConnectFailed { last, .. } => Some(last),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn error_codes_roundtrip_the_wire() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Timeout,
            ErrorCode::SeriesNotFound,
            ErrorCode::InvalidRequest,
            ErrorCode::Engine,
            ErrorCode::ShuttingDown,
            ErrorCode::Subscription,
        ] {
            assert_eq!(ErrorCode::from_wire(code.to_wire()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire(200), None);
    }

    #[test]
    fn remote_codes_map_to_typed_variants() {
        assert!(matches!(
            NetError::from_remote(ErrorCode::Busy, String::new()),
            NetError::Busy
        ));
        assert!(matches!(
            NetError::from_remote(ErrorCode::Timeout, String::new()),
            NetError::Timeout
        ));
        assert!(matches!(
            NetError::from_remote(ErrorCode::Engine, "boom".into()),
            NetError::Remote {
                code: ErrorCode::Engine,
                ..
            }
        ));
    }
}
