//! # tsnet — the network service layer
//!
//! Everything below this crate runs in one process; `tsnet` puts the
//! M4-LSM engine behind a socket so serving cost — admission control,
//! backpressure, per-request deadlines, wire encoding — becomes
//! measurable, the way the paper's operator is measured inside Apache
//! IoTDB rather than as a library call.
//!
//! Three layers:
//!
//! - [`wire`] — a length-prefixed, versioned, checksummed binary frame
//!   protocol. Decoding follows the storage crates' discipline for
//!   untrusted bytes: typed [`NetError`]s, never panics, never
//!   attacker-controlled allocations.
//! - [`server`] — a multi-threaded TCP server fronting a shared
//!   [`tskv::TsKv`]: bounded connection pool, max-in-flight admission
//!   gate with `Busy` backpressure, per-request deadlines, graceful
//!   shutdown that drains in-flight requests.
//!   [`ServerConfig`] is only the bind address: every limit is a named
//!   constant next to the code that enforces it
//!   ([`server::MAX_CONNECTIONS`], [`server::MAX_IN_FLIGHT`],
//!   [`server::REQUEST_TIMEOUT`], [`wire::MAX_PAYLOAD_BYTES`], and
//!   [`sub::MAX_SUBSCRIPTIONS`], [`sub::PUSH_QUEUE_SPANS`],
//!   [`sub::CHANGE_QUEUE_DEPTH`]).
//! - [`client`] — a blocking client with connect/retry and typed
//!   errors ([`ClientConfig`] is only the request deadline), a reader
//!   that demuxes server pushes from responses, and a
//!   [`client::SubReplay`] helper that folds span deltas back into a
//!   dashboard state.
//! - [`sub`] — server-push M4 subscriptions: identical `(series,
//!   range, w)` subscriptions share ONE incremental [`m4::stream::
//!   StreamingM4`] computation; ingest advances it once and span
//!   deltas fan out over bounded per-connection queues
//!   (coalesce-then-drop with a `Lagged` + resync contract for slow
//!   consumers).
//!
//! Supported RPCs: `Ping`, `WriteBatch`, `M4Query` (udf and lsm),
//! `Delete`, `Stats` (engine [`tskv::stats::IoSnapshot`] + server
//! [`ServerStatsSnapshot`]), `FlushSeal`, `Subscribe`/`Unsubscribe`
//! (server-initiated `SpanDelta`/`Lagged`/`SubError` push frames).
//!
//! ```no_run
//! use std::sync::Arc;
//! use tsnet::{ClientConfig, Operator, ServerConfig, TsNetClient, TsNetServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let store = Arc::new(tskv::TsKv::open("/tmp/db", tskv::config::EngineConfig::default())?);
//! let server = TsNetServer::start(store, ServerConfig::default())?;
//! let mut client = TsNetClient::connect(server.local_addr(), ClientConfig::default())?;
//! client.write_batch(vec![("s".into(), vec![tsfile::types::Point::new(1, 2.0)])])?;
//! let spans = client.m4_query("s", Operator::Lsm, 0, 10, 4)?;
//! assert_eq!(spans.len(), 4);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Test fixtures make, corrupt and remove their own files.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod client;
pub mod error;
pub mod server;
pub mod stats;
pub mod sub;
pub mod wire;

pub use client::{ClientConfig, SubReplay, Subscription, TsNetClient};
pub use error::{ErrorCode, NetError};
pub use server::{ServerConfig, TsNetServer};
pub use stats::{RequestKind, ServerStats, ServerStatsSnapshot};
pub use sub::SubRegistry;
pub use wire::{Frame, Operator, Push, Request, RequestEnvelope, Response, ResponseEnvelope};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
