//! A push frame that reaches the client in pieces, slower than the
//! client polls, is read whole.
//!
//! `poll_push` waits at most its `timeout` for a push. A wait that
//! elapses after part of a frame was consumed would leave the next poll
//! reading from the middle of that frame, so the wait covers only the
//! frame's first byte; once a frame has begun it is read to its end.
//! Here a raw listener plays the server: it writes one `Lagged` frame in
//! three pieces, 200 ms apart, cut inside the header and inside the
//! payload, then one whole frame, while the client polls every 20 ms.

// Tests assert by panicking; the workspace deny-set targets library
// code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// The test joins the thread that plays the server.
#![allow(clippy::disallowed_methods)]

use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

use tsnet::wire::{encode_push, HEADER_LEN};
use tsnet::{ClientConfig, Push, TsNetClient};

#[path = "support/watchdog.rs"]
mod watchdog;

#[test]
fn a_push_split_across_poll_timeouts_arrives_whole() {
    watchdog::within(watchdog::DEADLINE, || {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let split = encode_push(&Push::Lagged { sub_id: 7 }).unwrap();
        let whole = encode_push(&Push::Lagged { sub_id: 8 }).unwrap();
        let server = thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let cuts = [0, HEADER_LEN / 2, HEADER_LEN + 3, split.len()];
            for piece in cuts.windows(2) {
                sock.write_all(&split[piece[0]..piece[1]]).unwrap();
                sock.flush().unwrap();
                thread::sleep(Duration::from_millis(200));
            }
            sock.write_all(&whole).unwrap();
            // Hold the socket open until the client hangs up.
            let _ = sock.read(&mut [0u8; 1]);
        });

        let mut client = TsNetClient::connect(addr, ClientConfig::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut pushes = Vec::new();
        while pushes.len() < 2 {
            assert!(Instant::now() < deadline, "pushes so far: {pushes:?}");
            if let Some(push) = client.poll_push(Duration::from_millis(20)).unwrap() {
                pushes.push(push);
            }
        }
        assert_eq!(
            pushes,
            [Push::Lagged { sub_id: 7 }, Push::Lagged { sub_id: 8 }]
        );
        drop(client);
        server.join().unwrap();
    });
}
