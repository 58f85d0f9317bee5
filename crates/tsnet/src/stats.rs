//! Server observability counters.
//!
//! Same philosophy as [`tskv::stats`]: the interesting claims about the
//! service layer — how many requests were rejected under backpressure,
//! how many timed out, what the tail latency looks like — must be
//! assertable in tests and benchmarks, not inferred from wall-clock
//! time. Latency is recorded into a **fixed-bucket power-of-two
//! histogram**, so quantiles are computed from counts alone; tests feed
//! durations in directly and never depend on a real clock.
//!
//! Each metric is declared exactly once, in the registry below
//! ([`tskv::registry`]): the `Stats` RPC sends whatever is declared
//! there, by name, so adding one is that line plus its increment.

use std::sync::atomic::Ordering;

/// Number of latency histogram buckets. Bucket `i` counts requests
/// whose latency `us` satisfies `bucket_index(us) == i`; bucket `i`'s
/// upper bound is `2^i` microseconds and the last bucket absorbs
/// everything slower (`2^25` µs ≈ 33 s).
pub const LATENCY_BUCKETS: usize = 26;

/// Histogram bucket for a duration in microseconds: the number of
/// significant bits, clamped to the last bucket.
pub fn bucket_index(us: u64) -> usize {
    let bits = (u64::BITS - us.leading_zeros()) as usize;
    bits.min(LATENCY_BUCKETS - 1)
}

/// Inclusive upper bound (µs) of histogram bucket `i`.
pub fn bucket_upper_bound_us(i: usize) -> u64 {
    1u64 << i.min(LATENCY_BUCKETS - 1)
}

/// The RPC kinds the server counts individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    Ping,
    Write,
    Query,
    Delete,
    Stats,
    Flush,
    /// `Subscribe` and `Unsubscribe`.
    Subscribe,
}

tskv::metric_registry! {
    namespace "tsnet";
    /// Shared atomic counters for one server's lifetime.
    #[derive(Debug)]
    pub struct ServerStats;
    /// Plain-value snapshot of [`ServerStats`], sent by the `Stats` RPC
    /// alongside the engine's [`tskv::stats::IoSnapshot`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServerStatsSnapshot;
    snapshot(in_flight: u64);

    /// Executed `Ping` requests.
    counter requests_ping;
    /// Executed `WriteBatch` requests.
    counter requests_write;
    /// Executed `M4Query` requests.
    counter requests_query;
    /// Executed `Delete` requests.
    counter requests_delete;
    /// Executed `Stats` requests (control-plane; bypass admission).
    counter requests_stats;
    /// Executed `FlushSeal` requests.
    counter requests_flush;
    /// Executed `Subscribe` and `Unsubscribe` requests.
    counter requests_subscribe;
    /// Requests rejected by the max-in-flight admission gate.
    counter rejected_busy;
    /// Requests whose deadline elapsed before the response was ready.
    counter timeouts;
    /// Requests answered with a non-busy, non-timeout error.
    counter errors;
    /// Request bytes read off sockets.
    counter bytes_in;
    /// Response bytes written to sockets.
    counter bytes_out;
    /// Connections accepted into the worker pool.
    counter connections_accepted;
    /// Connections turned away at the pool limit.
    counter connections_rejected;
    /// Admitted requests executing right now. Sampled from the
    /// server's admission gate, which owns the value.
    gauge in_flight = in_flight;
    /// Subscriptions currently attached.
    gauge subs_active;
    /// Subscriptions that joined an existing shared dashboard
    /// computation: with N subscribers over K distinct dashboards this
    /// reads `N − K`.
    counter subs_deduped;
    /// Span-delta push frames written to subscriber sockets.
    counter deltas_pushed;
    /// Span updates merged into an already-pending delta (coalesced
    /// instead of queued separately).
    counter deltas_coalesced;
    /// Slow-consumer resyncs (`Lagged` + full-state push).
    counter resyncs;
    /// Latency histogram counts ([`LATENCY_BUCKETS`] entries; bucket
    /// `i` covers latencies up to [`bucket_upper_bound_us`]`(i)`).
    histogram latency_counts[LATENCY_BUCKETS];
}

impl ServerStats {
    /// Count one executed request of `kind` and its latency.
    pub fn record_request(&self, kind: RequestKind, latency_us: u64) {
        let executed = match kind {
            RequestKind::Ping => &self.requests_ping,
            RequestKind::Write => &self.requests_write,
            RequestKind::Query => &self.requests_query,
            RequestKind::Delete => &self.requests_delete,
            RequestKind::Stats => &self.requests_stats,
            RequestKind::Flush => &self.requests_flush,
            RequestKind::Subscribe => &self.requests_subscribe,
        };
        executed.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = self.latency_counts.get(bucket_index(latency_us)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one request rejected by admission control.
    pub fn record_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request whose deadline elapsed.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request answered with a non-busy, non-timeout error.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Count request bytes read off a socket.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count response bytes written to a socket.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one accepted connection.
    pub fn record_conn_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one connection turned away at the pool limit.
    pub fn record_conn_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one subscription attached (the `subs_active` gauge).
    pub fn record_sub_attached(&self) {
        self.subs_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one subscription detached (unsubscribe or disconnect).
    pub fn record_sub_detached(&self) {
        self.subs_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count one subscription that attached to an *existing* shared
    /// dashboard computation instead of creating its own.
    pub fn record_sub_deduped(&self) {
        self.subs_deduped.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one span-delta push frame written to a subscriber.
    pub fn record_delta_pushed(&self) {
        self.deltas_pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one span update merged into an already-pending delta for
    /// the same span (slow-consumer coalescing).
    pub fn record_delta_coalesced(&self) {
        self.deltas_coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one slow-consumer resync: pending deltas were dropped, a
    /// `Lagged` frame was queued, and the next push carries full state.
    pub fn record_resync(&self) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
    }
}

impl ServerStatsSnapshot {
    /// The histogram bucket upper bound (µs) containing the `q`-th
    /// latency quantile (`0.0 < q <= 1.0`). Zero when nothing was
    /// recorded. Quantiles are bucket-resolution approximations: the
    /// returned value is the smallest power-of-two bound at or above
    /// the true quantile.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.latency_counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.latency_counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound_us(i);
            }
        }
        bucket_upper_bound_us(LATENCY_BUCKETS - 1)
    }

    /// Median latency bucket bound (µs).
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th-percentile latency bucket bound (µs).
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        let mut last = 0;
        for us in [0u64, 1, 5, 100, 10_000, 1 << 40] {
            let b = bucket_index(us);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn quantiles_from_recorded_counts_no_clock() {
        let s = ServerStats::default();
        // 99 fast requests (~100 µs) and one slow outlier (~1 s),
        // recorded directly — no wall-clock involved.
        for _ in 0..99 {
            s.record_request(RequestKind::Query, 100);
        }
        s.record_request(RequestKind::Query, 1_000_000);
        let snap = s.snapshot(0);
        assert_eq!(snap.requests_query, 100);
        // 100 µs has 7 significant bits → bucket 7, bound 128 µs.
        assert_eq!(snap.p50_us(), 128);
        // The 99th of 100 samples is still a fast one; p100 is slow.
        assert_eq!(snap.p99_us(), 128);
        assert_eq!(
            snap.quantile_us(1.0),
            bucket_upper_bound_us(bucket_index(1_000_000))
        );
    }

    #[test]
    fn counters_accumulate_by_kind() {
        let s = ServerStats::default();
        s.record_request(RequestKind::Ping, 1);
        s.record_request(RequestKind::Write, 1);
        s.record_request(RequestKind::Write, 1);
        s.record_request(RequestKind::Subscribe, 1);
        s.record_busy();
        s.record_timeout();
        s.record_error();
        s.add_bytes_in(10);
        s.add_bytes_out(20);
        s.record_conn_accepted();
        s.record_conn_rejected();
        let snap = s.snapshot(3);
        assert_eq!(snap.requests_ping, 1);
        assert_eq!(snap.requests_write, 2);
        assert_eq!(snap.requests_subscribe, 1);
        assert_eq!(snap.requests_query, 0);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.bytes_in, 10);
        assert_eq!(snap.bytes_out, 20);
        assert_eq!(snap.connections_accepted, 1);
        assert_eq!(snap.connections_rejected, 1);
        assert_eq!(snap.in_flight, 3);
    }

    #[test]
    fn subscription_counters_accumulate() {
        let s = ServerStats::default();
        s.record_sub_attached();
        s.record_sub_attached();
        s.record_sub_attached();
        s.record_sub_detached();
        s.record_sub_deduped();
        s.record_delta_pushed();
        s.record_delta_pushed();
        s.record_delta_coalesced();
        s.record_resync();
        let snap = s.snapshot(0);
        assert_eq!(snap.subs_active, 2);
        assert_eq!(snap.subs_deduped, 1);
        assert_eq!(snap.deltas_pushed, 2);
        assert_eq!(snap.deltas_coalesced, 1);
        assert_eq!(snap.resyncs, 1);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let snap = ServerStats::default().snapshot(0);
        assert_eq!(snap.p50_us(), 0);
        assert_eq!(snap.p99_us(), 0);
    }
}
