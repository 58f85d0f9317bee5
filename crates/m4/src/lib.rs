//! # m4 — M4 visualization representation over LSM time series storage
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Time Series Representation for Visualization in Apache IoTDB",
//! SIGMOD 2024): computing the M4 representation — per pixel column,
//! the **F**irst, **L**ast, **B**ottom and **T**op points — directly on
//! LSM storage without merging chunks.
//!
//! Two operators implement the same query contract
//! ([`query::M4Query`] → [`repr::M4Result`]):
//!
//! * [`udf::M4Udf`] — the baseline. Mirrors the paper's M4-UDF: ask the
//!   storage engine for the fully merged series (`M(ℂ, 𝔻)`, every
//!   overlapping chunk loaded, decoded and heap-merged), then scan it
//!   once, grouping points into the `w` time spans.
//! * [`lsm::M4Lsm`] — the contribution. Generates candidate points from
//!   chunk *metadata* only, verifies them against later-versioned
//!   chunks and deletes (Propositions 3.1/3.3), and loads chunk bodies
//!   only when a candidate is refuted or a chunk is split by a span
//!   boundary — with partial, early-terminating timestamp decodes
//!   answering the probes.
//!
//! Both are checked against [`oracle`], a naive in-memory reference, in
//! this crate's property tests: for every storage state the three
//! produce identical representations.
//!
//! [`render`] rasterizes an M4 result into a binary line chart and
//! proves the paper's "error-free" claim pixel-for-pixel against a
//! full-data rendering. [`sql`] parses and executes the Appendix A.1
//! SQL form of the query.

#![forbid(unsafe_code)]
// Test fixtures make, corrupt and remove their own files.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod agg;
pub mod error;
pub mod lsm;
pub mod oracle;
pub mod query;
pub mod render;
pub mod repr;
pub mod sql;
pub mod stream;
pub mod udf;

pub use error::M4Error;
pub use lsm::{M4Lsm, M4LsmConfig};
pub use query::M4Query;
pub use repr::{M4Result, SpanRepr};
pub use udf::M4Udf;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, M4Error>;
