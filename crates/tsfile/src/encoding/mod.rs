//! Column encodings for timestamps and values.
//!
//! IoTDB encodes chunk columns before writing (the paper cites encoding
//! work [Xiao et al., VLDB'22] and attributes part of the chunk-load cost
//! to decompression). A page stores each column in one of a few forms,
//! chosen from its own data by exact size (see the `page` module):
//!
//! * [`packed`] — frame-of-reference bit-packing with exceptions, the
//!   one integer kernel: timestamps as packed deltas (IoTDB's TS_2DIFF
//!   layout) or residuals from their cadence line, values as packed
//!   deltas of their order-preserving keys. It takes any column.
//! * [`decimal`] — values with few decimals as scaled integers (ALP),
//!   packed by the same kernel.
//!
//! A constant-delta timestamp column and values the statistics imply
//! are no bytes at all. All encoders append to a `Vec<u8>`; all
//! decoders take a byte slice. Round-trips are bit-exact.

pub mod decimal;
pub mod packed;

/// A column codec a configuration names. Inert: every page chooses its
/// forms from its own data, so no value of this type changes a byte
/// written or read. It stays only because the engine's configuration
/// (`tskv`'s `EngineConfig::{ts_encoding, val_encoding}`) and the page
/// functions' signatures carry it, until both can drop it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    Plain,
    Ts2Diff,
    Gorilla,
}
