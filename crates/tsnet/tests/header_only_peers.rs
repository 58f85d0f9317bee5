//! Peers that send a frame header claiming the largest payload and then
//! stall cost the server what they sent, not what they claimed.
//!
//! `read_frame` grows a payload buffer as its bytes arrive, at most one
//! pool-sized step (1 MiB) ahead of them. Here four raw sockets each
//! send a 10-byte header claiming `MAX_PAYLOAD_BYTES` (64 MiB) and send
//! nothing more: the process's resident set may grow by a few MiB, where
//! zero-filling every claim up front would commit 256 MiB. A
//! well-behaved client is still answered meanwhile, and when the peers
//! hang up their workers end, so the test ends in seconds.
//!
//! Its own test binary: the resident set it measures is the process's,
//! which tests running beside it would move.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The test reads its own resident set and removes its own store
// directory.
#![allow(clippy::disallowed_methods)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use testdir::TestDir;

use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::wire::{MAGIC, MAX_PAYLOAD_BYTES, VERSION};
use tsnet::{ClientConfig, ServerConfig, TsNetClient, TsNetServer};

#[path = "support/watchdog.rs"]
mod watchdog;

/// Stalled peers; each claims `MAX_PAYLOAD_BYTES`.
const PEERS: usize = 4;

/// The most the resident set may grow while they stall.
const BUDGET_BYTES: u64 = 8 << 20;

/// Bytes of a page of `/proc/self/statm` (4 KiB on the Linux targets
/// this runs on).
const PAGE_BYTES: u64 = 4096;

/// The process's resident set in bytes, from `/proc/self/statm`.
fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
    let pages: u64 = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
    pages * PAGE_BYTES
}

/// A request frame's header claiming a payload of `len` bytes: magic,
/// version, kind 0 (request), then the length, little-endian.
fn header_claiming(len: u32) -> Vec<u8> {
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&[VERSION, 0]);
    header.extend_from_slice(&len.to_le_bytes());
    header
}

#[test]
fn header_only_peers_commit_no_claimed_payload() {
    watchdog::within(watchdog::DEADLINE, || {
        let dir = TestDir::new("tsnet-header-only");
        let store = Arc::new(TsKv::open(&dir, EngineConfig::default()).unwrap());
        let server = TsNetServer::start(store, ServerConfig::default()).unwrap();
        let mut client =
            TsNetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
        // Warm the worker and pool paths before the baseline.
        client.ping().unwrap();
        let baseline = resident_bytes();

        let header = header_claiming(MAX_PAYLOAD_BYTES);
        let peers: Vec<TcpStream> = (0..PEERS)
            .map(|_| {
                let mut peer = TcpStream::connect(server.local_addr()).unwrap();
                peer.write_all(&header).unwrap();
                peer.flush().unwrap();
                peer
            })
            .collect();
        // The workers read the headers within milliseconds; watch the
        // resident set for a while after.
        let mut peak = baseline;
        let until = Instant::now() + Duration::from_millis(800);
        while Instant::now() < until {
            peak = peak.max(resident_bytes());
            thread::sleep(Duration::from_millis(20));
        }
        let grown = peak.saturating_sub(baseline);
        assert!(
            grown <= BUDGET_BYTES,
            "{PEERS} header-only peers grew the resident set by {} KiB",
            grown >> 10
        );

        // A well-behaved client is still answered while they stall.
        client.ping().unwrap();

        let started = Instant::now();
        drop(peers);
        drop(client);
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "shutdown took {:?}",
            started.elapsed()
        );
    });
}
