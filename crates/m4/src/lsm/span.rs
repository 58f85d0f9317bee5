//! Per-span candidate generation and verification (paper §3.2–§3.4,
//! Algorithm 1 lines 5–14).
//!
//! For one time span `I_i`, the executor holds the overlapping chunks
//! `ℂ''` and iterates *generate candidate from metadata → verify →
//! lazily load on refutation* independently for each of the four
//! representation functions:
//!
//! * **FP/LP** ([`SpanExecutor::solve_edge`]): candidates carry either
//!   an exact metadata point or a delete-clipped *bound* on where the
//!   chunk's first/last live point can be. A chunk is loaded only when
//!   its bound is the most extreme remaining (the paper's "the load of
//!   C happens in the next iteration"). Correctness rests on
//!   Proposition 3.1: an exact candidate at the extreme time with the
//!   largest version among ties cannot be overwritten.
//! * **BP/TP** ([`SpanExecutor::solve_extreme`]): metadata candidates
//!   must additionally survive overwrite probes against later-versioned
//!   overlapping chunks (Proposition 3.3), performed as timestamp-only
//!   partial reads through the chunk cache. Refuted metadata candidates
//!   mark their chunk *dirty*; dirty chunks are loaded in a batch only
//!   when no candidate survives (the paper's §3.4 lazy load).
//!
//! Chunks split by the span boundary cannot contribute metadata
//! candidates (their in-span extremes are unknowable from whole-chunk
//! statistics), so they enter pre-loaded — the cost driver behind the
//! paper's Figure 10 (larger `w` → more split chunks → more loads).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tsfile::statistics::ChunkStatistics;
use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::ModEntry;
use tskv::delete::DeleteSweep;
use tskv::ChunkHandle;

use crate::lsm::cache::{ChunkCache, PageKeyedPoints};
use crate::lsm::M4LsmConfig;
use crate::repr::SpanRepr;
use crate::{M4Error, Result};

/// One page of a chunk as seen by one span.
///
/// Chunks enter span assignment *per page*: each overlapping page
/// becomes its own fragment with its own statistics, so a span
/// covering only part of a large chunk works at page granularity
/// (metadata candidates from page statistics, loads of single pages).
#[derive(Debug, Clone)]
pub(crate) struct SpanChunk {
    /// Index into the snapshot's chunk list (cache key).
    pub idx: usize,
    /// Page number within the chunk.
    pub page: u32,
    /// Whether the fragment's time interval lies entirely inside the
    /// span (only then do its statistics describe the subsequence).
    pub whole: bool,
}

/// Executor for one span.
pub(crate) struct SpanExecutor<'a, 'b> {
    pub chunks: Vec<SpanChunk>,
    pub handles: &'b [ChunkHandle],
    pub deletes: &'a [ModEntry],
    pub span: TimeRange,
    pub cache: &'b ChunkCache<'a>,
    pub cfg: &'b M4LsmConfig,
    /// Per-span live point sets of loaded fragments (in-span,
    /// non-deleted), keyed `(chunk idx, page)`.
    live: RefCell<PageKeyedPoints>,
}

/// FP/LP solver state for one chunk.
#[derive(Debug, Clone, Copy)]
enum EdgeState {
    /// Known candidate point (metadata or loaded), not yet verified.
    Exact(Point),
    /// Delete-clipped bound: the chunk's edge live point is no more
    /// extreme than this time; resolving requires a load.
    Bound(Timestamp),
    /// No live in-span points remain.
    Dead,
}

/// BP/TP solver state for one chunk.
#[derive(Debug)]
enum ExtremeState {
    /// Unloaded; metadata extreme is the candidate.
    Meta(Point),
    /// Unloaded and metadata extreme refuted. The chunk's live extreme
    /// can still be anywhere up to the refuted metadata value (it is an
    /// upper bound for TP / lower bound for BP over the raw points), so
    /// the value is kept as a bound: the chunk must be loaded before
    /// any weaker candidate may be answered.
    Dirty(f64),
    /// Loaded; candidates come from the live set minus exclusions.
    Loaded,
}

impl<'a, 'b> SpanExecutor<'a, 'b> {
    pub fn new(
        chunks: Vec<SpanChunk>,
        handles: &'b [ChunkHandle],
        deletes: &'a [ModEntry],
        span: TimeRange,
        cache: &'b ChunkCache<'a>,
        cfg: &'b M4LsmConfig,
    ) -> Self {
        SpanExecutor {
            chunks,
            handles,
            deletes,
            span,
            cache,
            cfg,
            live: RefCell::new(HashMap::new()),
        }
    }

    fn handle(&self, sc: &SpanChunk) -> &'b ChunkHandle {
        &self.handles[sc.idx]
    }

    /// The fragment's statistics. Span assignment only hands out pages
    /// the handle has, so the fallback is never taken.
    fn stats(&self, sc: &SpanChunk) -> &'b ChunkStatistics {
        let h = self.handle(sc);
        h.page_stats(sc.page).unwrap_or(&h.stats)
    }

    fn version(&self, sc: &SpanChunk) -> Version {
        self.handle(sc).version
    }

    /// Cache key of the fragment's live set within this span.
    fn key(sc: &SpanChunk) -> (usize, u32) {
        (sc.idx, sc.page)
    }

    /// Whether the fragment's raw points are already decoded in the
    /// query cache.
    fn paid(&self, sc: &SpanChunk) -> bool {
        self.cache.is_loaded(sc.idx, sc.page)
    }

    /// Load a fragment (through the query cache) and compute its live
    /// point set for this span: in-span and not deleted. Cached per
    /// span so FP/LP/BP/TP share the work.
    fn live(&self, sc: &SpanChunk) -> Result<Arc<Vec<Point>>> {
        if let Some(l) = self.live.borrow().get(&Self::key(sc)) {
            return Ok(Arc::clone(l));
        }
        let raw = self.cache.points(sc.idx, sc.page, self.handle(sc))?;
        let version = self.version(sc);
        let mut sweep = DeleteSweep::new(self.deletes);
        let live: Vec<Point> = raw
            .iter()
            .filter(|p| self.span.contains(p.t) && !sweep.is_deleted(p.t, version))
            .copied()
            .collect();
        let live = Arc::new(live);
        self.live
            .borrow_mut()
            .insert(Self::key(sc), Arc::clone(&live));
        Ok(live)
    }

    /// Compute the span's full representation, or `None` if the span
    /// holds no live points.
    pub fn compute(&self) -> Result<Option<SpanRepr>> {
        let Some(first) = self.solve_edge(true)? else {
            return Ok(None);
        };
        // FP exists, so the span holds live points and the other three
        // solvers must find one too.
        let (Some(last), Some(bottom), Some(top)) = (
            self.solve_edge(false)?,
            self.solve_extreme(false)?,
            self.solve_extreme(true)?,
        ) else {
            return Err(M4Error::Internal("span with an FP yielded no LP/BP/TP"));
        };
        Ok(Some(SpanRepr {
            first,
            last,
            bottom,
            top,
        }))
    }

    /// Deletes with a version above `v` that cover `t`.
    fn covering_deletes(&self, t: Timestamp, v: Version) -> impl Iterator<Item = &'a ModEntry> {
        let deletes = self.deletes;
        deletes
            .iter()
            .filter(move |d| d.applies_to(v) && d.covers(t))
    }

    // ------------------------------------------------------------------
    // FP / LP (§3.3)
    // ------------------------------------------------------------------

    /// Solve FP (`first = true`) or LP (`first = false`).
    fn solve_edge(&self, first: bool) -> Result<Option<Point>> {
        // Initialize per-chunk state.
        let mut states: Vec<EdgeState> = Vec::with_capacity(self.chunks.len());
        for sc in &self.chunks {
            let st = if sc.whole && !self.paid(sc) {
                let s = self.stats(sc);
                EdgeState::Exact(if first { s.first } else { s.last })
            } else {
                // Split by the span boundary (or already paid for):
                // resolve from data immediately.
                self.edge_from_live(sc, first)?
            };
            states.push(st);
        }

        loop {
            // Candidate selection: most extreme key; a Bound at the
            // extreme must be resolved before any Exact at the same key
            // can be trusted (the bound's chunk may hide an overwrite).
            let mut best: Option<(Timestamp, bool, usize)> = None; // (key, is_bound, pos)
            for (pos, st) in states.iter().enumerate() {
                let (key, is_bound) = match st {
                    EdgeState::Exact(p) => (p.t, false),
                    EdgeState::Bound(t) => (*t, true),
                    EdgeState::Dead => continue,
                };
                let better = match &best {
                    None => true,
                    Some((bk, b_bound, bpos)) => {
                        let cmp = if first { key.cmp(bk) } else { bk.cmp(&key) };
                        match cmp {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => {
                                // Prefer bounds (must resolve), then the
                                // largest version among exacts.
                                if is_bound != *b_bound {
                                    is_bound
                                } else {
                                    self.version(&self.chunks[pos])
                                        > self.version(&self.chunks[*bpos])
                                }
                            }
                        }
                    }
                };
                if better {
                    best = Some((key, is_bound, pos));
                }
            }
            let Some((_, is_bound, pos)) = best else {
                return Ok(None); // all chunks dead: empty span
            };
            let sc = self.chunks[pos].clone();

            if is_bound {
                // Lazy load fires now: no other chunk can beat this one
                // from metadata alone.
                states[pos] = self.edge_from_live(&sc, first)?;
                continue;
            }

            let EdgeState::Exact(p) = states[pos] else {
                return Err(M4Error::Internal(
                    "selected edge candidate is neither bound nor exact",
                ));
            };
            if self.paid(&sc) || self.live.borrow().contains_key(&Self::key(&sc)) {
                // Live sets are delete-filtered already; Proposition 3.1
                // rules out overwrites for the extreme-time candidate.
                return Ok(Some(p));
            }
            // Unloaded metadata candidate: verify against deletes.
            let version = self.version(&sc);
            let clip: Option<Timestamp> = if first {
                self.covering_deletes(p.t, version)
                    .map(|d| d.range.end)
                    .max()
            } else {
                self.covering_deletes(p.t, version)
                    .map(|d| d.range.start)
                    .min()
            };
            match clip {
                None => {
                    // Latest (Proposition 3.1). A fragment answered
                    // here never read its body: page statistics alone.
                    self.cache.note_page_stat_answered();
                    return Ok(Some(p));
                }
                Some(edge) => {
                    if !self.cfg.lazy_load {
                        // Ablation: eager load on first refutation.
                        states[pos] = self.edge_from_live(&sc, first)?;
                        continue;
                    }
                    // §3.3: shift the effective interval past the
                    // delete; the chunk is only loaded if it remains
                    // the most extreme.
                    let s = self.stats(&sc);
                    let bound = if first {
                        edge.saturating_add(1)
                    } else {
                        edge.saturating_sub(1)
                    };
                    let dead = if first {
                        bound > s.last.t || bound > self.span.end
                    } else {
                        bound < s.first.t || bound < self.span.start
                    };
                    states[pos] = if dead {
                        EdgeState::Dead
                    } else {
                        EdgeState::Bound(bound)
                    };
                }
            }
        }
    }

    /// Resolve a chunk's FP/LP for this span from its live data.
    fn edge_from_live(&self, sc: &SpanChunk, first: bool) -> Result<EdgeState> {
        let live = self.live(sc)?;
        let p = if first { live.first() } else { live.last() };
        Ok(match p {
            Some(p) => EdgeState::Exact(*p),
            None => EdgeState::Dead,
        })
    }

    // ------------------------------------------------------------------
    // BP / TP (§3.4)
    // ------------------------------------------------------------------

    /// Solve TP (`top = true`) or BP (`top = false`).
    fn solve_extreme(&self, top: bool) -> Result<Option<Point>> {
        let mut states: Vec<ExtremeState> = Vec::with_capacity(self.chunks.len());
        // Timestamps known to be overwritten, per chunk.
        let mut excluded: Vec<HashSet<Timestamp>> = vec![HashSet::new(); self.chunks.len()];
        for sc in &self.chunks {
            let st = if self.paid(sc) || !sc.whole {
                // Pay the (already paid or unavoidable) load.
                self.live(sc)?;
                ExtremeState::Loaded
            } else {
                let s = self.stats(sc);
                ExtremeState::Meta(if top { s.top } else { s.bottom })
            };
            states.push(st);
        }

        loop {
            // Candidate generation (§3.2): extreme value, then largest
            // version.
            let mut best: Option<(Point, usize)> = None;
            for (pos, st) in states.iter().enumerate() {
                let cand = match st {
                    ExtremeState::Meta(p) => Some(*p),
                    ExtremeState::Loaded => {
                        self.extreme_live(&self.chunks[pos], top, &excluded[pos])?
                    }
                    ExtremeState::Dirty(_) => None,
                };
                let Some(p) = cand else { continue };
                let better = match &best {
                    None => true,
                    Some((bp, bpos)) => match p.v.total_cmp(&bp.v) {
                        std::cmp::Ordering::Greater => top,
                        std::cmp::Ordering::Less => !top,
                        std::cmp::Ordering::Equal => {
                            self.version(&self.chunks[pos]) > self.version(&self.chunks[*bpos])
                        }
                    },
                };
                if better {
                    best = Some((p, pos));
                }
            }

            // A dirty chunk whose bound is strictly better than the best
            // candidate could still hide the true extreme: load every
            // such chunk before trusting any candidate (§3.4 "loads all
            // the corresponding chunks ... and recalculates").
            let must_load: Vec<usize> = states
                .iter()
                .enumerate()
                .filter_map(|(i, st)| match st {
                    ExtremeState::Dirty(bound) => {
                        let beats = match &best {
                            None => true,
                            Some((bp, _)) => match bound.total_cmp(&bp.v) {
                                std::cmp::Ordering::Greater => top,
                                std::cmp::Ordering::Less => !top,
                                std::cmp::Ordering::Equal => false,
                            },
                        };
                        beats.then_some(i)
                    }
                    _ => None,
                })
                .collect();
            if !must_load.is_empty() {
                for pos in must_load {
                    let sc = self.chunks[pos].clone();
                    self.live(&sc)?;
                    states[pos] = ExtremeState::Loaded;
                }
                continue;
            }

            let Some((p_g, pos)) = best else {
                return Ok(None); // nothing live in this span
            };
            let sc = self.chunks[pos].clone();
            let version = self.version(&sc);

            // Verification (Proposition 3.3).
            // (a) deletes — only metadata candidates can still be
            // covered (live sets are delete-filtered).
            let deleted = matches!(states[pos], ExtremeState::Meta(_))
                && self.covering_deletes(p_g.t, version).next().is_some();
            let overwritten = if deleted {
                false
            } else {
                self.is_overwritten(p_g.t, version)?
            };
            if !deleted && !overwritten {
                // A fragment whose metadata extreme survives
                // verification was answered from page statistics alone.
                if matches!(states[pos], ExtremeState::Meta(_)) {
                    self.cache.note_page_stat_answered();
                }
                return Ok(Some(p_g));
            }
            // Refuted: lazy-load bookkeeping.
            if overwritten {
                excluded[pos].insert(p_g.t);
            }
            match states[pos] {
                ExtremeState::Meta(p) => {
                    states[pos] = if self.cfg.lazy_load {
                        ExtremeState::Dirty(p.v)
                    } else {
                        self.live(&sc)?;
                        ExtremeState::Loaded
                    };
                }
                ExtremeState::Loaded => { /* exclusion recorded above */ }
                ExtremeState::Dirty(_) => {
                    return Err(M4Error::Internal("dirty chunk produced a candidate"));
                }
            }
        }
    }

    /// Current extreme of a loaded chunk's live set, skipping excluded
    /// (known-overwritten) timestamps. Ties resolve to the earliest
    /// point, matching the scan-based oracle.
    fn extreme_live(
        &self,
        sc: &SpanChunk,
        top: bool,
        excluded: &HashSet<Timestamp>,
    ) -> Result<Option<Point>> {
        let live = self.live(sc)?;
        let mut best: Option<Point> = None;
        for p in live.iter() {
            if excluded.contains(&p.t) {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    if top {
                        p.v.total_cmp(&b.v).is_gt()
                    } else {
                        p.v.total_cmp(&b.v).is_lt()
                    }
                }
            };
            if better {
                best = Some(*p);
            }
        }
        Ok(best)
    }

    /// Proposition 3.3 overwrite check: does any chunk with a larger
    /// version contain a point at exactly `t`? Interval checks are
    /// metadata-only; a data probe (timestamp-only partial read) fires
    /// only for chunks whose interval contains `t`.
    fn is_overwritten(&self, t: Timestamp, version: Version) -> Result<bool> {
        for other in &self.chunks {
            let h = self.handle(other);
            // Fragment statistics make this interval check page-tight:
            // a `t` falling between two pages of a later chunk is ruled
            // out here without any probe.
            if h.version <= version || !self.stats(other).time_range().contains(t) {
                continue;
            }
            if self.cache.contains_timestamp(
                other.idx,
                other.page,
                h,
                t,
                self.cfg.use_step_index,
            )? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}
