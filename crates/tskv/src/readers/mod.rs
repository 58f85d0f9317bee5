//! The three readers of the paper's Figure 15 system diagram, and the
//! chunk planner that tells which chunks need the merge.
//!
//! * [`MetadataReader`] — chunk metadata only, no chunk-body I/O.
//! * [`DataReader`] — loads and decodes whole chunk bodies.
//! * [`MergeReader`] — merges all chunks and applies deletes, producing
//!   the latest-points-only series `M(ℂ, 𝔻)`; the machinery M4-UDF
//!   relies on and M4-LSM is designed to avoid.
//! * [`plan`] — classifies chunks from their metadata as clean, dirty
//!   or dropped; compaction and M4-LSM both call it.

mod data;
mod merge;
mod metadata;
pub mod plan;

pub use data::DataReader;
pub use merge::MergeReader;
pub use metadata::MetadataReader;
