//! The one load generator: a single thread holding at most two
//! connections (one for RPCs, one for pushes) to the in-process server
//! over loopback TCP. Closed loop — the next request leaves only after
//! the previous one is answered.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use m4::{M4Query, SpanRepr};
use tskv::{ChangeEvent, ChangeRx};
use tsnet::{ClientConfig, Operator, Push, SubReplay, TsNetClient};

use crate::gen::{Entries, QuerySpec};
use crate::trace::Tracer;
use crate::Result;

/// How long a write's push may take before it counts as a failed op.
const PUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Test-only busy-wait (µs) inside the benchmark's own client wrapper,
/// in the timed path of the matching op: shows that a timing metric
/// follows its op and is not a constant of the generator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Handicap {
    pub query_us: u64,
    pub write_us: u64,
}

fn spin(us: u64) {
    if us == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_micros(us);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The subscription held during ingest and its replayed state.
pub struct Subscriber {
    pub spec: QuerySpec,
    query: M4Query,
    pub replay: SubReplay,
    /// `SpanDelta` and `Lagged` frames received.
    pub deltas: u64,
    pub lagged_events: u64,
}

impl Subscriber {
    fn covers(&self, t: i64) -> bool {
        self.query.span_of(t).is_some()
    }

    /// Whether the replayed dashboard already shows a point at or after
    /// `t` in `t`'s span.
    fn shows(&self, t: i64) -> bool {
        self.query
            .span_of(t)
            .and_then(|i| self.replay.spans().get(i).copied().flatten())
            .is_some_and(|s| s.last.t >= t)
    }

    fn apply(&mut self, push: &Push) {
        match push {
            Push::SpanDelta { .. } => self.deltas += 1,
            Push::Lagged { .. } => self.lagged_events += 1,
            Push::SubError { .. } => {}
        }
        self.replay.apply(push);
    }
}

pub struct Driver {
    rpc: TsNetClient,
    push: TsNetClient,
    pub handicap: Handicap,
    pub tracer: Tracer,
    pub sub: Option<Subscriber>,
    /// Operations issued, and those that failed (errors, `Busy`,
    /// pushes that never came).
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Write requests acknowledged while the subscription was held.
    pub writes: u64,
    /// Traced runs only: the engine's change feed, drained after every
    /// op to count memtable flushes (`tskv.flush.count`).
    changes: Option<ChangeRx>,
    pub flushes: u64,
    next_op: u64,
}

impl Driver {
    pub fn connect(addr: SocketAddr, handicap: Handicap, tracer: Tracer) -> Result<Driver> {
        Ok(Driver {
            rpc: TsNetClient::connect(addr, ClientConfig::default())?,
            push: TsNetClient::connect(addr, ClientConfig::default())?,
            handicap,
            tracer,
            sub: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            writes: 0,
            changes: None,
            flushes: 0,
            next_op: 0,
        })
    }

    pub fn watch_flushes(&mut self, changes: ChangeRx) {
        self.changes = Some(changes);
    }

    fn count_flushes(&mut self) {
        if let Some(rx) = &self.changes {
            while let Some(event) = rx.try_recv() {
                if matches!(event, ChangeEvent::Flush { .. }) {
                    self.flushes += 1;
                }
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    fn op(&mut self) -> u64 {
        self.attempted += 1;
        self.next_op += 1;
        self.next_op
    }

    /// One M4 query round trip; `None` when it failed.
    pub fn query(&mut self, q: &QuerySpec, op: Operator) -> (f64, Option<Vec<Option<SpanRepr>>>) {
        let id = self.op();
        let name = match op {
            Operator::Lsm => "rpc.m4_query.lsm",
            Operator::Udf => "rpc.m4_query.udf",
        };
        let (rpc, delay) = (&mut self.rpc, self.handicap.query_us);
        let (out, took) = self.tracer.time(name, id, || {
            spin(delay);
            rpc.m4_query(&q.series, op, q.t_qs, q.t_qe, q.w)
        });
        match out {
            Ok(spans) => (ms(took), Some(spans)),
            Err(e) => {
                self.fail(format!("{name} {q:?}: {e}"));
                (ms(took), None)
            }
        }
    }

    /// One write round trip and, when the request extends the
    /// subscribed series, the wait for its `SpanDelta`. Returns the
    /// ack latency and the send-to-push lag (ms).
    pub fn write(&mut self, entries: Entries, expect_push: Option<i64>) -> (f64, Option<f64>) {
        let id = self.op();
        let (rpc, delay) = (&mut self.rpc, self.handicap.write_us);
        let sent = Instant::now();
        let (out, took) = self.tracer.time("rpc.write_batch", id, || {
            spin(delay);
            rpc.write_batch(entries)
        });
        if let Err(e) = out {
            self.fail(format!("rpc.write_batch: {e}"));
            return (ms(took), None);
        }
        self.writes += u64::from(self.sub.is_some());
        let in_range = expect_push.filter(|t| self.sub.as_ref().is_some_and(|s| s.covers(*t)));
        let lag = match in_range {
            Some(t) => {
                self.attempted += 1;
                let span = self.tracer.begin("sub.push_wait", id);
                let lag = self.await_push(t, sent);
                self.tracer.end(span);
                if lag.is_none() {
                    self.fail(format!("no SpanDelta for t={t} within {PUSH_TIMEOUT:?}"));
                }
                lag
            }
            None => None,
        };
        self.count_flushes();
        (ms(took), lag)
    }

    fn await_push(&mut self, t: i64, sent: Instant) -> Option<f64> {
        let sub = self.sub.as_mut()?;
        let deadline = sent + PUSH_TIMEOUT;
        while !sub.shows(t) {
            let left = deadline.checked_duration_since(Instant::now())?;
            let push = self.push.poll_push(left).ok()??;
            sub.apply(&push);
        }
        Some(ms(sent.elapsed()))
    }

    /// Subscribe on the push connection.
    pub fn subscribe(&mut self, spec: QuerySpec) -> Result<()> {
        self.op();
        let ack = self
            .push
            .subscribe(&spec.series, spec.t_qs, spec.t_qe, spec.w)?;
        self.sub = Some(Subscriber {
            query: M4Query::new(spec.t_qs, spec.t_qe, spec.w as usize)?,
            replay: SubReplay::new(&ack),
            spec,
            deltas: 0,
            lagged_events: 0,
        });
        Ok(())
    }

    /// Fold in every push already on the wire (call at a quiesce point).
    pub fn drain_pushes(&mut self) -> Result<()> {
        if let Some(sub) = self.sub.as_mut() {
            while let Some(push) = self.push.poll_push(Duration::from_millis(20))? {
                sub.apply(&push);
            }
        }
        Ok(())
    }

    pub fn ping(&mut self) -> Option<f64> {
        let id = self.op();
        let rpc = &mut self.rpc;
        let (out, took) = self.tracer.time("rpc.ping", id, || rpc.ping());
        match out {
            Ok(()) => Some(ms(took)),
            Err(e) => {
                self.fail(format!("rpc.ping: {e}"));
                None
            }
        }
    }

    /// Timed `FlushSeal` of one series, or of every series (seconds).
    pub fn flush_seal(&mut self, series: Option<&str>, compact: bool) -> Option<f64> {
        let id = self.op();
        let rpc = &mut self.rpc;
        let (out, took) = self
            .tracer
            .time("rpc.flush_seal", id, || rpc.flush_seal(series, compact));
        self.count_flushes();
        match out {
            Ok(_) => Some(took.as_secs_f64()),
            Err(e) => {
                self.fail(format!("rpc.flush_seal: {e}"));
                None
            }
        }
    }
}
