//! An error whose detail outgrows the wire's string cap still reaches
//! the client, and the connection stays up.
//!
//! A series name may be 65 535 bytes on the wire, and a "not found"
//! detail quotes it, so the detail can exceed the `u16` string cap. The
//! codec clips an error detail to `u16::MAX` bytes on a character
//! boundary; without that, encoding the reply failed and the server
//! dropped the socket instead of answering.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The fixture removes its own store directory.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use testdir::TestDir;

use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::wire::{Operator, Request, Response};
use tsnet::{ClientConfig, ErrorCode, NetError, ServerConfig, TsNetClient, TsNetServer};

#[path = "support/watchdog.rs"]
mod watchdog;

#[test]
fn an_unknown_series_with_a_maximal_name_is_answered_and_the_connection_lives() {
    watchdog::within(watchdog::DEADLINE, || {
        let dir = TestDir::new("tsnet-long-detail");
        let store = Arc::new(TsKv::open(&dir, EngineConfig::default()).unwrap());
        let server = TsNetServer::start(Arc::clone(&store), ServerConfig::default()).unwrap();
        let mut client =
            TsNetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();

        // 65 535 bytes. The query's detail, `series not found: "x..`,
        // starts every `é` at an even offset, so the cut at 65 535 falls
        // inside one and moves back a byte; the subscription's, `series
        // "x..`, starts them at odd offsets, so the cut lands between two.
        let name = format!("x{}", "é".repeat(32_767));
        assert_eq!(name.len(), usize::from(u16::MAX));
        let query = Request::M4Query {
            series: name.clone(),
            op: Operator::Lsm,
            t_qs: 0,
            t_qe: 100,
            w: 4,
        };
        let subscribe = Request::Subscribe {
            series: name,
            t_qs: 0,
            t_qe: 100,
            w: 4,
        };
        for (request, clipped) in [(query, 65_534), (subscribe, 65_535)] {
            match client.call(request) {
                Err(NetError::Remote {
                    code: ErrorCode::SeriesNotFound,
                    detail,
                }) => {
                    assert_eq!(detail.len(), clipped);
                    assert!(detail.contains("\"xéé"), "detail lost the name");
                }
                other => panic!("expected SeriesNotFound, got {other:?}"),
            }
            assert_eq!(
                client.call(Request::Ping { delay_ms: 0 }).unwrap(),
                Response::Pong
            );
        }

        drop(client);
        server.shutdown();
        drop(store);
    });
}
