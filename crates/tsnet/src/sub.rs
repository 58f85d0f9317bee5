//! Server-push M4 subscriptions: one shared incremental computation
//! per distinct dashboard, broadcast to every subscriber.
//!
//! ## Dedup model
//!
//! A subscription is keyed by `(series, t_qs, t_qe, w)` — the
//! [`DashKey`]. All subscribers with the same key attach to ONE
//! [`Dashboard`]: a single [`StreamingM4`] advanced once per ingest
//! event, regardless of how many clients watch it. Attaching to an
//! existing dashboard bumps `subs_deduped`; with N subscribers over K
//! distinct dashboards the counter reads `N − K` and exactly K
//! streaming computations exist.
//!
//! ## Data flow
//!
//! ```text
//! tskv writers ──ChangeEvent──▶ dispatcher thread (one per registry)
//!                                 │ ingest / invalidate per dashboard
//!                                 │ repair dirty spans (M4Lsm, no locks)
//!                                 │ diff vs last broadcast (bit-exact)
//!                                 ▼
//!                            enqueue_push ──▶ per-connection outbound
//!                                             queue ──▶ writer thread
//!                                                        ──▶ socket
//! ```
//!
//! The dispatcher owns every streaming state; workers and writer
//! threads never touch them. Span deltas are **state-carrying** (span
//! index → new authoritative representation), so coalescing pending
//! deltas for the same span is lossless: the newer value simply
//! replaces the older one (`deltas_coalesced`).
//!
//! ## Slow-consumer policy
//!
//! Each connection's outbound queue holds at most
//! [`PUSH_QUEUE_SPANS`] pending span entries (coalesce-then-drop,
//! never unbounded memory). A subscription that pushes the queue past
//! the budget has its pending deltas dropped and replaced by a
//! full-state **resync**: the writer emits a [`Push::Lagged`] frame,
//! then a `SpanDelta` with `resync = true` carrying every span
//! (`resyncs` counts these). A resync entry is bounded by the
//! dashboard's own `w`.
//!
//! ## Correctness contract
//!
//! Change events may arrive out of apply order (they are published
//! after the engine's shard lock is released). The streaming layer
//! absorbs this: replayed or reordered input either applies
//! idempotently on the in-order path or marks the span dirty, and
//! dirty spans are repaired from an authoritative [`m4::M4Lsm`]
//! recompute over a fresh snapshot. Lost events (bounded channel
//! overflow) set the receiver's `missed` flag, which invalidates every
//! dashboard. Consequence: at any quiesce point — no events pending,
//! no dirty spans, queues drained — every subscriber's replayed state
//! is byte-identical to a fresh M4 recompute. [`SubRegistry::quiesce`]
//! waits for exactly that point.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use m4::stream::StreamingM4;
use m4::{M4Query, SpanRepr};
use parking_lot::Mutex;
use tskv::{ChangeEvent, ChangeObserver, ChangeRx, SeriesId, TsKv};

use crate::error::ErrorCode;
use crate::stats::ServerStats;
use crate::wire::{self, Push, Response, ResponseEnvelope};

/// Upper bound on change events folded into one dispatcher step, so a
/// hot writer cannot starve repair/broadcast indefinitely.
const MAX_EVENT_BATCH: usize = 256;

/// Dispatcher poll interval: the dispatcher wakes on each change event,
/// so this only bounds how long a freshly created dashboard waits for
/// its initial fill when no events arrive, and `quiesce`'s pause.
const DISPATCH_INTERVAL: Duration = Duration::from_millis(10);

/// Registry-wide cap on concurrently active subscriptions.
pub const MAX_SUBSCRIPTIONS: usize = 1024;

/// Per-connection pending span-entry budget; a subscriber whose queue
/// exceeds it is lagged into a full-state resync.
pub const PUSH_QUEUE_SPANS: usize = 4096;

/// Depth of the engine change-notification channel feeding the
/// dispatcher; an overflow invalidates every dashboard.
pub const CHANGE_QUEUE_DEPTH: usize = 1024;

/// A subscription request as it arrives off the wire: the dashboard
/// identity a subscriber wants to attach to.
#[derive(Debug, Clone, Copy)]
pub struct SubSpec<'a> {
    pub series: &'a str,
    pub t_qs: i64,
    pub t_qe: i64,
    pub w: u32,
}

/// Identity of one shared dashboard computation. The series is the
/// interned [`SeriesId`], resolved once at subscribe time: everything
/// past the wire boundary — event matching, repair snapshots, dashboard
/// dedup — runs on dense ids, never on name strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DashKey {
    series: SeriesId,
    t_qs: i64,
    t_qe: i64,
    w: usize,
}

/// One shared computation: the live streaming state, the last
/// representation broadcast to subscribers, and who is attached.
struct Dashboard {
    stream: StreamingM4,
    /// Spans as of the last broadcast — the diff baseline, and the
    /// exact state a newly attached subscriber receives in its SubAck.
    last: Vec<Option<SpanRepr>>,
    subs: Vec<u64>,
}

struct SubMeta {
    key: DashKey,
    conn_id: u64,
}

#[derive(Default)]
struct Inner {
    next_sub_id: u64,
    dashboards: HashMap<DashKey, Dashboard>,
    subs: HashMap<u64, SubMeta>,
    conns: HashMap<u64, Arc<OutboundQueue>>,
}

/// Pending (coalesced) span deltas for one subscription on one
/// connection. Keyed by span index, so the map can never exceed the
/// dashboard's `w` entries.
#[derive(Default)]
struct PendingSub {
    deltas: BTreeMap<u32, Option<SpanRepr>>,
    /// Next frame carries full state and the resync flag.
    resync: bool,
    /// Emit a `Lagged` frame before the next delta frame.
    lagged: bool,
}

#[derive(Default)]
struct QueueState {
    /// Encoded response frames, written before push frames so a
    /// `SubAck` always precedes the deltas that follow it.
    responses: VecDeque<Vec<u8>>,
    /// Out-of-band push frames (subscription failures).
    urgent: Vec<Push>,
    /// Coalesced span deltas per subscription.
    pending: BTreeMap<u64, PendingSub>,
    /// Per-subscription push frame sequence numbers.
    seqs: HashMap<u64, u64>,
    /// No further enqueues; the writer drains what is left and exits.
    closed: bool,
    /// The socket write side failed; the connection is unusable.
    dead: bool,
    /// The writer thread is mid-write (frames taken but not yet on the
    /// socket) — quiesce must wait for this to clear.
    writing: bool,
}

/// The single outbound channel of one connection: every frame the
/// server sends — responses and pushes alike — goes through this
/// bounded queue to the connection's writer thread, so no socket write
/// ever happens under a lock and response frames never interleave
/// mid-frame with push frames.
#[derive(Default)]
pub struct OutboundQueue {
    // std primitives here, not the parking_lot shim: the writer thread
    // needs a condvar, which the shim does not provide. Poisoning is
    // absorbed the same way the shim does it.
    state: StdMutex<QueueState>,
    cv: Condvar,
}

impl OutboundQueue {
    /// Acquire the queue state, absorbing poison (a panicking writer
    /// must not wedge every other thread of the connection).
    fn lock_state(&self) -> StdMutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue one encoded response frame. Returns `false` when the
    /// connection is closing or its socket already failed.
    pub fn push_response(&self, frame: Vec<u8>) -> bool {
        let mut q = self.lock_state();
        if q.closed || q.dead {
            return false;
        }
        q.responses.push_back(frame);
        self.cv.notify_one();
        true
    }

    /// Whether the writer thread hit a socket error.
    pub fn is_dead(&self) -> bool {
        self.lock_state().dead
    }

    /// Stop accepting frames; the writer drains the backlog and exits.
    pub fn close(&self) {
        let mut q = self.lock_state();
        q.closed = true;
        self.cv.notify_all();
    }

    fn has_work(q: &QueueState) -> bool {
        !q.responses.is_empty() || !q.urgent.is_empty() || !q.pending.is_empty()
    }

    fn idle_for_quiesce(&self) -> bool {
        let q = self.lock_state();
        q.urgent.is_empty() && q.pending.is_empty() && !q.writing
    }
}

/// Bit-exact span equality: `-0.0 != 0.0` and NaN payloads compare by
/// representation, matching the replay-equals-recompute contract.
fn same_span(a: &Option<SpanRepr>, b: &Option<SpanRepr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let p = |l: &tsfile::types::Point, r: &tsfile::types::Point| {
                l.t == r.t && l.v.to_bits() == r.v.to_bits()
            };
            p(&x.first, &y.first)
                && p(&x.last, &y.last)
                && p(&x.bottom, &y.bottom)
                && p(&x.top, &y.top)
        }
        _ => false,
    }
}

/// The body of one connection's writer thread: drain the outbound
/// queue and put frames on the socket, responses first. Exits when the
/// queue is closed and drained, or on the first write error.
pub fn writer_loop(queue: &OutboundQueue, stream: &mut TcpStream, stats: &ServerStats) {
    loop {
        let (responses, frames) = {
            let mut q = queue.lock_state();
            while !OutboundQueue::has_work(&q) {
                if q.closed {
                    return;
                }
                q = queue
                    .cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let responses: Vec<Vec<u8>> = q.responses.drain(..).collect();
            let mut frames: Vec<Push> = std::mem::take(&mut q.urgent);
            let pending = std::mem::take(&mut q.pending);
            for (sub_id, p) in pending {
                if p.lagged {
                    frames.push(Push::Lagged { sub_id });
                }
                if p.deltas.is_empty() && !p.resync {
                    continue;
                }
                let seq = q.seqs.entry(sub_id).or_insert(0);
                let this_seq = *seq;
                *seq = seq.wrapping_add(1);
                frames.push(Push::SpanDelta {
                    sub_id,
                    seq: this_seq,
                    resync: p.resync,
                    deltas: p.deltas.into_iter().collect(),
                });
            }
            q.writing = true;
            (responses, frames)
        };
        let mut ok = true;
        for bytes in &responses {
            if wire::write_frame(stream, bytes).is_err() {
                ok = false;
                break;
            }
            stats.add_bytes_out(bytes.len() as u64);
        }
        if ok {
            for f in &frames {
                let Ok(bytes) = wire::encode_push(f) else {
                    continue;
                };
                if wire::write_frame(stream, &bytes).is_err() {
                    ok = false;
                    break;
                }
                stats.add_bytes_out(bytes.len() as u64);
                if matches!(f, Push::SpanDelta { .. }) {
                    stats.record_delta_pushed();
                }
            }
        }
        let mut q = queue.lock_state();
        q.writing = false;
        if !ok {
            q.dead = true;
            q.closed = true;
            q.responses.clear();
            q.urgent.clear();
            q.pending.clear();
            return;
        }
        if q.closed && !OutboundQueue::has_work(&q) {
            return;
        }
    }
}

/// The subscription registry: dedups subscriptions into shared
/// dashboards, owns the dispatcher thread that advances them, and
/// fans span deltas out to connection queues.
pub struct SubRegistry {
    store: Arc<TsKv>,
    stats: Arc<ServerStats>,
    inner: Mutex<Inner>,
    shutting_down: AtomicBool,
    /// Idle latch for the dispatcher: with zero dashboards it parks
    /// here instead of polling the change channel every
    /// [`DISPATCH_INTERVAL`]. `subscribe` and `stop` set the flag
    /// under the mutex and notify, so a park can never miss a wake.
    /// std primitives, not the parking_lot shim — it has no condvar.
    wake: StdMutex<bool>,
    wake_cv: Condvar,
    /// Dispatcher iterations that actually polled/stepped — stays flat
    /// while the registry is idle (the busy-wake regression signal).
    dispatch_wakeups: AtomicU64,
    /// Change events the dispatcher has fully applied.
    processed: AtomicU64,
    /// Shared view of the change channel's published-event counter and
    /// missed flag; `quiesce` compares it against `processed`.
    progress: ChangeObserver,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl SubRegistry {
    /// Subscribe to engine changes and start the dispatcher thread.
    pub fn start(store: Arc<TsKv>, stats: Arc<ServerStats>) -> Arc<SubRegistry> {
        let rx = store.subscribe_changes(CHANGE_QUEUE_DEPTH);
        let progress = rx.observer();
        let reg = Arc::new(SubRegistry {
            store,
            stats,
            inner: Mutex::new(Inner::default()),
            shutting_down: AtomicBool::new(false),
            wake: StdMutex::new(false),
            wake_cv: Condvar::new(),
            dispatch_wakeups: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            progress,
            dispatcher: Mutex::new(None),
        });
        let loop_reg = Arc::clone(&reg);
        let handle = thread::Builder::new()
            .name("tsnet-subdispatch".to_string())
            .spawn(move || dispatch_loop(&loop_reg, &rx));
        if let Ok(handle) = handle {
            let mut slot = reg.dispatcher.lock();
            *slot = Some(handle);
        }
        reg
    }

    /// Stop the dispatcher and forget all connections. Connection
    /// queues themselves are closed by their owning workers.
    // Server shutdown joins the dispatcher it stopped, on its own thread.
    #[allow(clippy::disallowed_methods)]
    pub fn stop(&self) {
        self.shutting_down.store(true, Ordering::Release);
        // A dispatcher parked on the idle latch must see the shutdown.
        self.wake_dispatcher();
        let handle = {
            let mut slot = self.dispatcher.lock();
            slot.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
        let mut inner = self.inner.lock();
        inner.dashboards.clear();
        inner.subs.clear();
        inner.conns.clear();
    }

    /// Number of live shared computations (distinct dashboards).
    pub fn active_dashboards(&self) -> usize {
        self.inner.lock().dashboards.len()
    }

    /// Dispatcher iterations that polled the change channel. A registry
    /// with no dashboards parks instead of polling, so this stays flat
    /// while idle.
    pub fn dispatch_wakeups(&self) -> u64 {
        self.dispatch_wakeups.load(Ordering::Acquire)
    }

    /// Register a subscription for `conn_id` and queue its `SubAck`.
    ///
    /// The ack is enqueued under the registry lock, *before* any delta
    /// for the new id can be broadcast, so the subscriber's baseline
    /// plus its delta stream always composes to the dashboard state.
    pub fn subscribe(
        &self,
        conn_id: u64,
        queue: &Arc<OutboundQueue>,
        request_id: u64,
        spec: SubSpec<'_>,
    ) -> std::result::Result<u64, (ErrorCode, String)> {
        let SubSpec {
            series,
            t_qs,
            t_qe,
            w,
        } = spec;
        let query = M4Query::new(t_qs, t_qe, w as usize)
            .map_err(|e| (ErrorCode::InvalidRequest, e.to_string()))?;
        // A resync or initial fill carries every span in one frame; a
        // wider subscription could never be sent its state.
        if w > wire::MAX_SUB_SPANS {
            return Err((
                ErrorCode::InvalidRequest,
                format!(
                    "w = {w} spans: a full-state frame fits at most {}",
                    wire::MAX_SUB_SPANS
                ),
            ));
        }
        // Resolve the name to its interned id exactly once, here at the
        // wire boundary; the series must exist up front, and later
        // engine failures surface as SubError pushes.
        let sid = self.store.series_id(series).ok_or_else(|| {
            (
                ErrorCode::SeriesNotFound,
                format!("series {series:?} not found"),
            )
        })?;
        let mut inner = self.inner.lock();
        if inner.subs.len() >= MAX_SUBSCRIPTIONS {
            return Err((
                ErrorCode::Subscription,
                format!("subscription limit of {MAX_SUBSCRIPTIONS} reached"),
            ));
        }
        let key = DashKey {
            series: sid,
            t_qs,
            t_qe,
            w: w as usize,
        };
        let sub_id = inner.next_sub_id;
        inner.next_sub_id = inner.next_sub_id.wrapping_add(1);
        let baseline = match inner.dashboards.get_mut(&key) {
            Some(d) => {
                // Attaching to an existing shared computation: this is
                // the dedup the whole module exists for.
                d.subs.push(sub_id);
                self.stats.record_sub_deduped();
                d.last.clone()
            }
            None => {
                // A fresh dashboard starts all-dirty with an all-empty
                // baseline: the initial fill rides the normal
                // repair-and-broadcast path, no special seeding.
                let mut stream = StreamingM4::new(query);
                stream.invalidate_all();
                let last = vec![None; w as usize];
                inner.dashboards.insert(
                    key,
                    Dashboard {
                        stream,
                        last: last.clone(),
                        subs: vec![sub_id],
                    },
                );
                last
            }
        };
        inner.subs.insert(sub_id, SubMeta { key, conn_id });
        inner
            .conns
            .entry(conn_id)
            .or_insert_with(|| Arc::clone(queue));
        let ack = ResponseEnvelope {
            request_id,
            body: Response::SubAck {
                sub_id,
                spans: baseline,
            },
        };
        let frame = wire::encode_response(&ack)
            .map_err(|e| (ErrorCode::Engine, format!("encode SubAck: {e}")))?;
        queue.push_response(frame);
        self.stats.record_sub_attached();
        drop(inner);
        // Outside the registry lock (the parked dispatcher re-checks
        // dashboard counts, which takes it): hand the dispatcher its
        // wake-up so the initial fill starts promptly.
        self.wake_dispatcher();
        Ok(sub_id)
    }

    /// Wake a dispatcher parked on the idle latch. Sets the flag under
    /// the latch mutex so the park predicate can never miss it.
    fn wake_dispatcher(&self) {
        let mut wake = self.wake.lock().unwrap_or_else(PoisonError::into_inner);
        *wake = true;
        self.wake_cv.notify_all();
    }

    /// Detach one subscription owned by `conn_id`.
    pub fn unsubscribe(
        &self,
        conn_id: u64,
        sub_id: u64,
    ) -> std::result::Result<(), (ErrorCode, String)> {
        let mut inner = self.inner.lock();
        match inner.subs.get(&sub_id) {
            Some(meta) if meta.conn_id == conn_id => {}
            _ => {
                return Err((
                    ErrorCode::Subscription,
                    format!("subscription {sub_id} is not active on this connection"),
                ));
            }
        }
        self.detach(&mut inner, sub_id, true);
        Ok(())
    }

    /// Drop every subscription of a disconnecting connection.
    pub fn drop_connection(&self, conn_id: u64) {
        let mut inner = self.inner.lock();
        let subs: Vec<u64> = inner
            .subs
            .iter()
            .filter(|(_, m)| m.conn_id == conn_id)
            .map(|(id, _)| *id)
            .collect();
        for sub_id in subs {
            self.detach(&mut inner, sub_id, false);
        }
        inner.conns.remove(&conn_id);
    }

    /// Remove one subscription: dashboard membership, metadata, and
    /// (when the connection is staying) its queued pending deltas. The
    /// last detach tears the shared dashboard down.
    fn detach(&self, inner: &mut Inner, sub_id: u64, clear_queue: bool) {
        let Some(meta) = inner.subs.remove(&sub_id) else {
            return;
        };
        if let Some(d) = inner.dashboards.get_mut(&meta.key) {
            d.subs.retain(|s| *s != sub_id);
            if d.subs.is_empty() {
                inner.dashboards.remove(&meta.key);
            }
        }
        if clear_queue {
            if let Some(queue) = inner.conns.get(&meta.conn_id) {
                let mut q = queue.lock_state();
                q.pending.remove(&sub_id);
                q.seqs.remove(&sub_id);
            }
        }
        self.stats.record_sub_detached();
    }

    /// One dispatcher step: fold a batch of change events into every
    /// affected dashboard, repair dirty spans from an authoritative
    /// recompute, then broadcast the diffs.
    fn step(&self, events: &[ChangeEvent], lost: bool) {
        // Phase 1 (registry lock, no I/O): apply events, list repairs.
        let repairs: Vec<(DashKey, M4Query)> = {
            let mut inner = self.inner.lock();
            if lost {
                // The channel dropped events; nothing incremental can
                // be trusted any more.
                for d in inner.dashboards.values_mut() {
                    d.stream.invalidate_all();
                }
            }
            for ev in events {
                let series = ev.series();
                match ev {
                    ChangeEvent::Write { points, .. } => {
                        for (key, d) in inner.dashboards.iter_mut() {
                            if key.series == series {
                                d.stream.ingest_all(points);
                            }
                        }
                    }
                    ChangeEvent::Delete { start, end, .. } => {
                        for (key, d) in inner.dashboards.iter_mut() {
                            if key.series == series {
                                d.stream.invalidate_range(*start, *end);
                            }
                        }
                    }
                    // Flushes move data between tiers without changing
                    // logical content; the representation is unaffected.
                    ChangeEvent::Flush { .. } => {}
                }
            }
            inner
                .dashboards
                .iter()
                .filter(|(_, d)| !d.stream.is_exact())
                .map(|(k, d)| (*k, *d.stream.query()))
                .collect()
        };
        // Nothing to repair AND nothing ingested: no state can have
        // changed, skip the broadcast. (In-order ingest keeps a stream
        // exact without any repair — it still must broadcast.)
        if repairs.is_empty() && events.is_empty() && !lost {
            return;
        }
        // Phase 2 (no locks): authoritative recompute per dirty
        // dashboard. The snapshot is taken after the events above were
        // applied, so it covers everything they described.
        let mut outcomes = Vec::with_capacity(repairs.len());
        for (key, query) in repairs {
            let result = self
                .store
                .snapshot_by_id(key.series)
                .map_err(|e| e.to_string())
                .and_then(|snap| {
                    m4::M4Lsm::new()
                        .execute(&snap, &query)
                        .map_err(|e| e.to_string())
                });
            outcomes.push((key, result));
        }
        // Phase 3 (registry lock, no I/O): install repairs, broadcast.
        let mut inner = self.inner.lock();
        for (key, outcome) in outcomes {
            match outcome {
                Ok(result) => {
                    if let Some(d) = inner.dashboards.get_mut(&key) {
                        for i in d.stream.dirty_spans() {
                            d.stream.repair(i, result.spans.get(i).copied().flatten());
                        }
                        // The snapshot covered everything up to the
                        // largest timestamp it returned; replayed
                        // notifications at or below it must take the
                        // dirty path, not the in-order fast path.
                        let covered = result.spans.iter().flatten().map(|s| s.last.t).max();
                        if let Some(t) = covered {
                            d.stream.observe_watermark(t);
                        }
                    }
                }
                Err(detail) => self.fail_dashboard(&mut inner, &key, &detail),
            }
        }
        self.broadcast_delta(&mut inner);
    }

    /// The computation behind a dashboard failed: push a `SubError` to
    /// every attached subscriber and tear the dashboard down.
    fn fail_dashboard(&self, inner: &mut Inner, key: &DashKey, detail: &str) {
        let Some(d) = inner.dashboards.remove(key) else {
            return;
        };
        for sub_id in d.subs {
            let Some(meta) = inner.subs.remove(&sub_id) else {
                continue;
            };
            if let Some(queue) = inner.conns.get(&meta.conn_id) {
                let mut q = queue.lock_state();
                if !q.closed {
                    q.pending.remove(&sub_id);
                    q.urgent.push(Push::SubError {
                        sub_id,
                        code: ErrorCode::Subscription,
                        detail: detail.to_string(),
                    });
                    queue.cv.notify_one();
                }
            }
            self.stats.record_sub_detached();
        }
    }

    /// Diff every exact dashboard against its last broadcast state and
    /// enqueue the changed spans to each attached subscriber.
    ///
    /// Marked must-not-block (one slow consumer would stall every
    /// dashboard): only lock acquisition, map updates and condvar
    /// notifies happen here — socket writes belong to the writer
    /// threads.
    fn broadcast_delta(&self, inner: &mut Inner) {
        let _mark = tsfile::lockcheck::no_block();
        let Inner {
            dashboards,
            subs,
            conns,
            ..
        } = inner;
        for d in dashboards.values_mut() {
            if !d.stream.is_exact() {
                continue;
            }
            let current = d.stream.current().spans;
            let mut deltas: Vec<(u32, Option<SpanRepr>)> = Vec::new();
            for (i, span) in current.iter().enumerate() {
                let changed = match d.last.get(i) {
                    Some(old) => !same_span(span, old),
                    None => true,
                };
                if changed {
                    deltas.push((i as u32, *span));
                }
            }
            if deltas.is_empty() {
                continue;
            }
            d.last = current;
            for sub_id in &d.subs {
                let Some(meta) = subs.get(sub_id) else {
                    continue;
                };
                let Some(queue) = conns.get(&meta.conn_id) else {
                    continue;
                };
                self.enqueue_push(queue, *sub_id, &deltas, &d.last);
            }
        }
    }

    /// Merge `deltas` into one subscription's pending set on its
    /// connection queue. Lossless coalescing (state-carrying deltas);
    /// past the queue budget the subscription is lagged into a
    /// full-state resync. Never blocks: lock, map updates, notify.
    fn enqueue_push(
        &self,
        queue: &OutboundQueue,
        sub_id: u64,
        deltas: &[(u32, Option<SpanRepr>)],
        full: &[Option<SpanRepr>],
    ) {
        let mut q = queue.lock_state();
        if q.closed || q.dead {
            return;
        }
        let already_resync = match q.pending.get_mut(&sub_id) {
            Some(p) if p.resync => {
                // Already resyncing: fold the newest full state in.
                p.deltas.clear();
                for (i, s) in full.iter().enumerate() {
                    p.deltas.insert(i as u32, *s);
                }
                true
            }
            _ => false,
        };
        if !already_resync {
            let entry = q.pending.entry(sub_id).or_default();
            for (i, s) in deltas {
                if entry.deltas.insert(*i, *s).is_some() {
                    self.stats.record_delta_coalesced();
                }
            }
            let total: usize = q.pending.values().map(|p| p.deltas.len()).sum();
            if total > PUSH_QUEUE_SPANS {
                if let Some(p) = q.pending.get_mut(&sub_id) {
                    self.stats.record_resync();
                    p.resync = true;
                    p.lagged = true;
                    p.deltas.clear();
                    for (i, s) in full.iter().enumerate() {
                        p.deltas.insert(i as u32, *s);
                    }
                }
            }
        }
        queue.cv.notify_one();
    }

    /// Block until the subscription plane is fully settled: every
    /// published change event processed, every dashboard exact, every
    /// queue drained and off the socket. At that point each
    /// subscriber's replayed state equals a fresh recompute,
    /// byte-for-byte. Returns `false` on timeout.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stable = 0u32;
        loop {
            // `sent` is bumped by publishers *before* the event is
            // enqueued, so sent == processed really means "nothing in
            // flight" (a transient overcount is merely conservative).
            let caught_up = self.progress.sent() == self.processed.load(Ordering::Acquire)
                && !self.progress.missed();
            let settled = {
                let inner = self.inner.lock();
                // With zero dashboards the dispatcher is parked and
                // events stay queued on purpose — there is no
                // subscriber state to settle, so only the outbound
                // queues matter.
                inner.conns.values().all(|q| q.idle_for_quiesce())
                    && (inner.dashboards.is_empty()
                        || (caught_up && inner.dashboards.values().all(|d| d.stream.is_exact())))
            };
            if settled {
                stable += 1;
                if stable >= 3 {
                    return true;
                }
            } else {
                stable = 0;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(DISPATCH_INTERVAL);
        }
    }
}

/// Dispatcher thread body: batch change events, advance the shared
/// dashboards, track the caught-up flag quiesce relies on.
///
/// With zero dashboards there is nothing any event could update, so
/// the thread parks on the registry's idle latch instead of waking
/// every [`DISPATCH_INTERVAL`] — an idle server burns no dispatcher
/// CPU no matter how small the interval. Events published while parked
/// stay queued; if the bounded channel overflows meanwhile, the missed
/// flag invalidates every dashboard on resume, which is a no-op for
/// the freshly created (all-dirty) dashboards that triggered the wake.
fn dispatch_loop(reg: &Arc<SubRegistry>, rx: &ChangeRx) {
    while !reg.shutting_down.load(Ordering::Acquire) {
        if reg.active_dashboards() == 0 {
            let mut wake = reg.wake.lock().unwrap_or_else(PoisonError::into_inner);
            while !*wake && !reg.shutting_down.load(Ordering::Acquire) {
                // The timeout is only a safety net; real wakes come
                // from the subscribe/stop notifies.
                wake = reg
                    .wake_cv
                    .wait_timeout(wake, Duration::from_secs(1))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            *wake = false;
            continue;
        }
        reg.dispatch_wakeups.fetch_add(1, Ordering::AcqRel);
        let mut events = Vec::new();
        match rx.recv_timeout(DISPATCH_INTERVAL) {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => {}
            Err(_) => {
                // Engine gone (channel closed): no more events will
                // ever arrive, but newly created dashboards still need
                // their initial repair pass. Do not busy-spin.
                thread::sleep(DISPATCH_INTERVAL);
            }
        }
        while events.len() < MAX_EVENT_BATCH {
            match rx.try_recv() {
                Some(ev) => events.push(ev),
                None => break,
            }
        }
        let lost = rx.take_missed();
        reg.step(&events, lost);
        reg.processed
            .fetch_add(events.len() as u64, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets
    // library code.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use testdir::TestDir;
    use tsfile::types::Point;

    fn spec(series: &str, t_qs: i64, t_qe: i64, w: u32) -> SubSpec<'_> {
        SubSpec {
            series,
            t_qs,
            t_qe,
            w,
        }
    }

    fn open_store(tag: &str) -> (TestDir, Arc<TsKv>) {
        let dir = TestDir::new(&format!("tsnet-sub-{tag}"));
        let store = Arc::new(TsKv::open(&dir, tskv::config::EngineConfig::default()).unwrap());
        (dir, store)
    }

    fn span(seed: i64) -> SpanRepr {
        SpanRepr {
            first: Point::new(seed, 1.0),
            last: Point::new(seed + 1, 2.0),
            bottom: Point::new(seed + 2, -3.0),
            top: Point::new(seed + 3, 4.0),
        }
    }

    #[test]
    fn same_span_is_bit_exact() {
        assert!(same_span(&None, &None));
        assert!(same_span(&Some(span(1)), &Some(span(1))));
        assert!(!same_span(&Some(span(1)), &Some(span(2))));
        assert!(!same_span(&Some(span(1)), &None));
        // -0.0 vs 0.0 differ by bits, so they count as a change.
        let a = SpanRepr {
            first: Point::new(0, 0.0),
            last: Point::new(0, 0.0),
            bottom: Point::new(0, 0.0),
            top: Point::new(0, 0.0),
        };
        let mut b = a;
        b.top = Point::new(0, -0.0);
        assert!(!same_span(&Some(a), &Some(b)));
    }

    #[test]
    fn queue_coalesces_and_resyncs_past_budget() {
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("coalesce");
        let reg = SubRegistry::start(Arc::clone(&store), Arc::clone(&stats));
        let queue = Arc::new(OutboundQueue::default());
        // One span more than the budget, every one present.
        let full: Vec<Option<SpanRepr>> = (0..=PUSH_QUEUE_SPANS as i64)
            .map(|i| Some(span(i * 10)))
            .collect();
        let entries = |n: usize| -> Vec<(u32, Option<SpanRepr>)> {
            full.iter()
                .take(n)
                .enumerate()
                .map(|(i, s)| (i as u32, *s))
                .collect()
        };
        let pending = |sub_id: u64| {
            let q = queue.lock_state();
            let p = q.pending.get(&sub_id).unwrap();
            (p.deltas.len(), p.resync, p.lagged)
        };
        // Two updates to the same span coalesce to one pending entry.
        reg.enqueue_push(&queue, 7, &[(1, Some(span(10)))], &full);
        reg.enqueue_push(&queue, 7, &[(1, Some(span(11)))], &full);
        assert_eq!(pending(7), (1, false, false));
        assert_eq!(stats.snapshot(0).deltas_coalesced, 1);
        // Filling the budget exactly (span 1 coalescing again) is not
        // yet a lag.
        reg.enqueue_push(&queue, 7, &entries(PUSH_QUEUE_SPANS), &full);
        assert_eq!(pending(7), (PUSH_QUEUE_SPANS, false, false));
        assert_eq!(stats.snapshot(0).deltas_coalesced, 2);
        // One entry past it converts to a lagged resync carrying the
        // full state.
        let last = entries(full.len()).split_off(PUSH_QUEUE_SPANS);
        reg.enqueue_push(&queue, 7, &last, &full);
        assert_eq!(pending(7), (full.len(), true, true));
        assert_eq!(stats.snapshot(0).resyncs, 1);
        reg.stop();
    }

    #[test]
    fn subscribe_dedups_and_unsubscribe_tears_down() {
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("dedup");
        store
            .insert_batch("s", &[Point::new(1, 1.0), Point::new(2, 2.0)])
            .unwrap();
        let reg = SubRegistry::start(Arc::clone(&store), Arc::clone(&stats));
        let queue = Arc::new(OutboundQueue::default());
        let a = reg.subscribe(1, &queue, 10, spec("s", 0, 100, 4)).unwrap();
        let b = reg.subscribe(1, &queue, 11, spec("s", 0, 100, 4)).unwrap();
        let c = reg.subscribe(1, &queue, 12, spec("s", 0, 200, 4)).unwrap();
        assert_eq!(reg.active_dashboards(), 2);
        assert_eq!(reg.inner.lock().subs.len(), 3);
        assert_eq!(stats.snapshot(0).subs_deduped, 1);
        assert_eq!(stats.snapshot(0).subs_active, 3);
        // Acks were queued for all three.
        assert_eq!(queue.lock_state().responses.len(), 3);

        // Unknown id / wrong connection are typed failures.
        assert!(reg.unsubscribe(1, 999).is_err());
        assert!(reg.unsubscribe(2, a).is_err());

        reg.unsubscribe(1, a).unwrap();
        assert_eq!(reg.active_dashboards(), 2, "b still shares a's dashboard");
        reg.unsubscribe(1, b).unwrap();
        assert_eq!(
            reg.active_dashboards(),
            1,
            "last detach drops the dashboard"
        );
        reg.drop_connection(1);
        let _ = c;
        assert_eq!(reg.inner.lock().subs.len(), 0);
        assert_eq!(reg.active_dashboards(), 0);
        assert_eq!(stats.snapshot(0).subs_active, 0);
        reg.stop();
    }

    #[test]
    fn subscribe_validates_query_and_series() {
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("validate");
        store.insert_batch("s", &[Point::new(1, 1.0)]).unwrap();
        let reg = SubRegistry::start(store, stats);
        let queue = Arc::new(OutboundQueue::default());
        // Inverted range.
        let e = reg
            .subscribe(1, &queue, 0, spec("s", 100, 0, 4))
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::InvalidRequest);
        // Unknown series.
        let e = reg
            .subscribe(1, &queue, 0, spec("nope", 0, 100, 4))
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::SeriesNotFound);
        // Limit enforcement: the registry-wide cap, then a refusal.
        for _ in 0..MAX_SUBSCRIPTIONS {
            reg.subscribe(1, &queue, 0, spec("s", 0, 100, 4)).unwrap();
        }
        assert_eq!(reg.inner.lock().subs.len(), MAX_SUBSCRIPTIONS);
        let e = reg
            .subscribe(1, &queue, 0, spec("s", 0, 100, 4))
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::Subscription);
        reg.stop();
    }

    #[test]
    fn subscribe_refuses_a_width_whose_full_state_frame_cannot_fit() {
        assert_eq!(wire::MAX_SUB_SPANS, 972_591);
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("width");
        store.insert_batch("s", &[Point::new(1, 1.0)]).unwrap();
        let reg = SubRegistry::start(store, stats);
        let queue = Arc::new(OutboundQueue::default());
        // One past the bound: refused for its width, before the series
        // is even looked up.
        for series in ["s", "nope"] {
            let e = reg
                .subscribe(
                    1,
                    &queue,
                    0,
                    spec(series, 0, 10_000_000, wire::MAX_SUB_SPANS + 1),
                )
                .unwrap_err();
            assert_eq!(e.0, ErrorCode::InvalidRequest, "{}", e.1);
        }
        // At the bound the width passes; what stops this one is the
        // unknown series (a known one would allocate ~1 M spans here).
        let e = reg
            .subscribe(
                1,
                &queue,
                0,
                spec("nope", 0, 10_000_000, wire::MAX_SUB_SPANS),
            )
            .unwrap_err();
        assert_eq!(e.0, ErrorCode::SeriesNotFound, "{}", e.1);
        assert_eq!(reg.inner.lock().subs.len(), 0);
        reg.stop();

        // The bound is exact: a full-state delta of that many present
        // spans encodes into one frame, and one span more does not.
        let entry = (u32::MAX, Some(span(0)));
        let mut push = Push::SpanDelta {
            sub_id: u64::MAX,
            seq: u64::MAX,
            resync: true,
            deltas: vec![entry; wire::MAX_SUB_SPANS as usize],
        };
        let max = wire::MAX_PAYLOAD_BYTES as usize;
        let frame = wire::encode_push(&push).unwrap();
        let payload = frame.len() - wire::HEADER_LEN - wire::TRAILER_LEN;
        assert!(payload <= max && payload + 69 > max, "{payload} bytes");
        drop(frame);
        if let Push::SpanDelta { deltas, .. } = &mut push {
            deltas.push(entry);
        }
        assert!(matches!(
            wire::encode_push(&push),
            Err(crate::NetError::TooLarge {
                context: "payload",
                ..
            })
        ));
    }

    #[test]
    fn idle_dispatcher_parks_until_first_subscription() {
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("idlepark");
        store.insert_batch("s", &[Point::new(10, 1.0)]).unwrap();
        let reg = SubRegistry::start(Arc::clone(&store), stats);
        // No dashboards: at its 10ms poll interval an unparked
        // dispatcher would rack up ~25 wakeups here. Parked, it takes
        // none (the latch's safety-net timeout is a full second).
        thread::sleep(Duration::from_millis(250));
        assert_eq!(reg.dispatch_wakeups(), 0, "dispatcher busy-woke while idle");
        // Ingest while parked must not wake it either — even past the
        // channel depth (overflow just sets the missed flag).
        for t in 0..CHANGE_QUEUE_DEPTH as i64 + 16 {
            store
                .insert_batch("s", &[Point::new(20 + t % 64, t as f64)])
                .unwrap();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(reg.dispatch_wakeups(), 0, "ingest woke an idle dispatcher");
        assert!(reg.progress.missed(), "the change channel never overflowed");
        // A quiesce with no subscribers settles immediately.
        assert!(reg.quiesce(Duration::from_secs(1)), "idle quiesce");
        // The first subscription wakes it and the dashboard fills to
        // the authoritative answer despite the overflowed channel.
        let queue = Arc::new(OutboundQueue::default());
        let stop = Arc::new(AtomicBool::new(false));
        let drain_queue = Arc::clone(&queue);
        let drain_stop = Arc::clone(&stop);
        let drainer = thread::spawn(move || {
            while !drain_stop.load(Ordering::Acquire) {
                {
                    let mut q = drain_queue.lock_state();
                    q.responses.clear();
                    q.urgent.clear();
                    q.pending.clear();
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        reg.subscribe(1, &queue, 0, spec("s", 0, 100, 4)).unwrap();
        assert!(reg.quiesce(Duration::from_secs(5)), "fill after wake");
        assert!(reg.dispatch_wakeups() > 0, "subscription failed to wake");
        {
            let inner = reg.inner.lock();
            let d = inner.dashboards.values().next().unwrap();
            assert!(d.stream.is_exact());
            let expected = m4::M4Lsm::new()
                .execute(
                    &store.snapshot("s").unwrap(),
                    &M4Query::new(0, 100, 4).unwrap(),
                )
                .unwrap();
            for (i, (got, want)) in d.last.iter().zip(expected.spans.iter()).enumerate() {
                assert!(same_span(got, want), "span {i} diverged");
            }
        }
        stop.store(true, Ordering::Release);
        drainer.join().unwrap();
        reg.stop();
    }

    #[test]
    fn dispatcher_fills_and_streams_a_dashboard() {
        let stats = Arc::new(ServerStats::default());
        let (_dir, store) = open_store("dispatch");
        store
            .insert_batch("s", &[Point::new(10, 1.0), Point::new(20, 2.0)])
            .unwrap();
        let reg = SubRegistry::start(Arc::clone(&store), Arc::clone(&stats));
        let queue = Arc::new(OutboundQueue::default());
        // Quiesce requires every queue to drain onto its socket; there
        // is no socket in this unit test, so stand in for the writer
        // thread with a drainer that discards frames.
        let stop = Arc::new(AtomicBool::new(false));
        let drain_queue = Arc::clone(&queue);
        let drain_stop = Arc::clone(&stop);
        let drainer = thread::spawn(move || {
            while !drain_stop.load(Ordering::Acquire) {
                {
                    let mut q = drain_queue.lock_state();
                    q.responses.clear();
                    q.urgent.clear();
                    q.pending.clear();
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        let sub_id = reg.subscribe(1, &queue, 0, spec("s", 0, 100, 4)).unwrap();
        assert!(reg.quiesce(Duration::from_secs(5)), "initial fill quiesce");
        {
            let inner = reg.inner.lock();
            let d = inner.dashboards.values().next().unwrap();
            assert!(d.stream.is_exact());
            let expected = m4::M4Lsm::new()
                .execute(
                    &store.snapshot("s").unwrap(),
                    &M4Query::new(0, 100, 4).unwrap(),
                )
                .unwrap();
            for (i, (got, want)) in d.last.iter().zip(expected.spans.iter()).enumerate() {
                assert!(same_span(got, want), "span {i} diverged");
            }
        }
        let _ = sub_id;
        // Live ingest advances the shared stream and broadcasts again.
        store.insert_batch("s", &[Point::new(30, 9.0)]).unwrap();
        assert!(reg.quiesce(Duration::from_secs(5)), "ingest quiesce");
        {
            let inner = reg.inner.lock();
            let d = inner.dashboards.values().next().unwrap();
            let expected = m4::M4Lsm::new()
                .execute(
                    &store.snapshot("s").unwrap(),
                    &M4Query::new(0, 100, 4).unwrap(),
                )
                .unwrap();
            for (i, (got, want)) in d.last.iter().zip(expected.spans.iter()).enumerate() {
                assert!(same_span(got, want), "span {i} diverged after ingest");
            }
        }
        stop.store(true, Ordering::Release);
        drainer.join().unwrap();
        reg.stop();
    }
}
