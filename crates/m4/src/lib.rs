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
//! * [`lsm::M4Lsm`] — the contribution. Classifies the chunks the query
//!   touches with the chunk planner compaction uses: a span only clean
//!   chunks reach (no other chunk and no newer delete overlaps them) is
//!   folded from their statistics, or their in-span slices where a span
//!   boundary splits one. Elsewhere it generates candidate points from
//!   chunk *metadata*, verifies them against later-versioned chunks and
//!   deletes (Propositions 3.1/3.3), and loads chunk bodies only when a
//!   candidate is refuted or a chunk is split by a span boundary — with
//!   timestamp-only reads answering the probes, each chunk's column read
//!   once a query.
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
pub use lsm::M4Lsm;
pub use query::M4Query;
pub use repr::{M4Result, SpanRepr};
pub use udf::M4Udf;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, M4Error>;

/// Which M4 operator answers a query: the one choice the SQL front end,
/// the wire protocol and the experiments all make.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Operator {
    /// The merge-then-scan baseline ([`M4Udf`]).
    Udf,
    /// The paper's merge-free operator ([`M4Lsm`], the default).
    #[default]
    Lsm,
}

impl Operator {
    /// Run this operator's query over `snapshot`.
    pub fn execute(self, snapshot: &tskv::SeriesSnapshot, query: &M4Query) -> Result<M4Result> {
        match self {
            Operator::Udf => M4Udf::new().execute(snapshot, query),
            Operator::Lsm => M4Lsm::new().execute(snapshot, query),
        }
    }

    /// The paper's name for it.
    pub fn name(self) -> &'static str {
        match self {
            Operator::Udf => "M4-UDF",
            Operator::Lsm => "M4-LSM",
        }
    }
}
