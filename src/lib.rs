//! # m4lsm — facade crate
//!
//! Reproduction of **"Time Series Representation for Visualization in
//! Apache IoTDB"** (SIGMOD 2024): the merge-free M4-LSM operator and the
//! LSM time series storage substrate it runs on.
//!
//! This crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`tsfile`] — on-disk chunk format, encodings, delete (mods) log.
//! * [`tskv`] — LSM storage engine: memtable, flush, versions, readers.
//! * [`m4`] — M4 representation, the M4-UDF baseline and the M4-LSM
//!   operator.
//! * [`tsnet`] — network service layer: wire protocol, TCP
//!   query/ingest server, blocking client.
//! * [`workload`] — synthetic dataset generators matching the paper's
//!   four evaluation datasets.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]

pub use m4;
pub use tsfile;
pub use tskv;
pub use tsnet;
pub use workload;
