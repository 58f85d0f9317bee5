//! The three readers of the paper's Figure 15 system diagram.
//!
//! * [`MetadataReader`] — chunk metadata only, no chunk-body I/O.
//! * [`DataReader`] — loads and decodes whole chunk bodies.
//! * [`MergeReader`] — merges all chunks and applies deletes, producing
//!   the latest-points-only series `M(ℂ, 𝔻)`; the machinery M4-UDF
//!   relies on and M4-LSM is designed to avoid.

mod data;
mod merge;
mod metadata;

pub use data::DataReader;
pub use merge::MergeReader;
pub use metadata::MetadataReader;
