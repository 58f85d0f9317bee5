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
//!   reads through the fragment table. Refuted metadata candidates
//!   mark their chunk *dirty*; dirty chunks are loaded in a batch only
//!   when no candidate survives (the paper's §3.4 lazy load). A loaded
//!   chunk's candidate is its most extreme live point; once one is
//!   refuted, the rest are ranked once and taken in turn.
//!
//! Chunks split by the span boundary cannot contribute metadata
//! candidates (their in-span extremes are unknowable from whole-chunk
//! statistics), so they enter pre-loaded — the cost driver behind the
//! paper's Figure 10 (larger `w` → more split chunks → more loads).

use tsfile::types::{Point, TimeRange, Timestamp, Version};
use tsfile::ModEntry;
use tskv::delete::is_deleted;

use crate::lsm::table::{Fragment, FragmentTable};
use crate::repr::SpanRepr;
use crate::{M4Error, Result};

/// One fragment as one span sees it: its row in the query's table, and
/// whether its time interval lies entirely inside the span (only then
/// do its statistics describe the subsequence). A fragment the span
/// boundary splits can only be resolved from its data.
pub(crate) type SpanFragment<'t> = (&'t Fragment<'t>, bool);

/// Executor for one span. All per-fragment state lives in the table's
/// rows; the executor borrows them and owns only the solver states.
pub(crate) struct SpanExecutor<'t> {
    /// The span's fragments, in table (= version) order.
    frags: &'t [SpanFragment<'t>],
    table: &'t FragmentTable<'t>,
    /// The deletes overlapping the span — the only ones that can cover
    /// a point in it. Usually none.
    deletes: Vec<ModEntry>,
    span: TimeRange,
}

/// FP/LP solver state for one chunk that may still hold live in-span
/// points (the solver keeps `None` for one that cannot).
#[derive(Debug, Clone, Copy)]
enum EdgeState {
    /// Known candidate point (metadata or loaded), not yet verified.
    Exact(Point),
    /// Delete-clipped bound: the chunk's edge live point is no more
    /// extreme than this time; resolving requires a load.
    Bound(Timestamp),
}

impl EdgeState {
    /// The candidate's time, and whether it is only a bound.
    fn key(self) -> (Timestamp, bool) {
        match self {
            EdgeState::Exact(p) => (p.t, false),
            EdgeState::Bound(t) => (t, true),
        }
    }
}

/// BP/TP solver state for one chunk.
#[derive(Debug)]
enum ExtremeState<'t> {
    /// Unloaded; metadata extreme is the candidate.
    Meta(Point),
    /// Unloaded and metadata extreme refuted. The chunk's live extreme
    /// can still be anywhere up to the refuted metadata value (it is an
    /// upper bound for TP / lower bound for BP over the raw points), so
    /// the value is kept as a bound: the chunk must be loaded before
    /// any weaker candidate may be answered.
    Dirty(f64),
    /// Loaded: the in-span slice and its candidate, the most extreme
    /// live point not known to be overwritten (`None` when none is
    /// left). `ranked` is filled at the candidate's first refutation
    /// with the points left, in the order later refutations reach them,
    /// so each of those is one step instead of a scan of the slice.
    Loaded {
        pts: &'t [Point],
        cand: Option<Point>,
        ranked: Option<std::vec::IntoIter<Point>>,
    },
}

/// How value `a` compares with `b` for TP (`top`) or BP: `Greater` when
/// `a` is the more extreme.
fn beats(top: bool, a: f64, b: f64) -> std::cmp::Ordering {
    if top {
        a.total_cmp(&b)
    } else {
        b.total_cmp(&a)
    }
}

impl<'t> SpanExecutor<'t> {
    pub fn new(
        frags: &'t [SpanFragment<'t>],
        table: &'t FragmentTable<'t>,
        deletes: &[ModEntry],
        span: TimeRange,
    ) -> Self {
        let deletes = deletes
            .iter()
            .filter(|d| d.range.overlaps(&span))
            .copied()
            .collect();
        SpanExecutor {
            frags,
            table,
            deletes,
            span,
        }
    }

    /// The fragment's points inside the span: a slice of its decoded
    /// chunk (loaded now if no span has yet), shared by FP/LP/BP/TP and
    /// by the neighbouring span. Deleted points are still in it — the
    /// scans over it skip them with [`Self::is_live`].
    fn in_span(&self, frag: &'t Fragment<'t>) -> Result<&'t [Point]> {
        let pts = self.table.points(frag)?;
        let lo = pts.partition_point(|p| p.t < self.span.start);
        let hi = pts.partition_point(|p| p.t <= self.span.end);
        Ok(pts.get(lo..hi).unwrap_or_default())
    }

    /// The version of the span's fragment at `pos`.
    fn version(&self, pos: usize) -> Version {
        self.frags[pos].0.version()
    }

    /// Whether in-span point `p` of `frag` survives the deletes.
    fn is_live(&self, frag: &Fragment<'_>, p: &Point) -> bool {
        !is_deleted(p.t, frag.version(), &self.deletes)
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

    // ------------------------------------------------------------------
    // FP / LP (§3.3)
    // ------------------------------------------------------------------

    /// Solve FP (`first = true`) or LP (`first = false`).
    fn solve_edge(&self, first: bool) -> Result<Option<Point>> {
        // Initialize per-chunk state.
        let mut states: Vec<Option<EdgeState>> = Vec::with_capacity(self.frags.len());
        for &(frag, whole) in self.frags {
            let st = if whole && frag.loaded().is_none() {
                let s = frag.stats();
                Some(EdgeState::Exact(if first { s.first } else { s.last }))
            } else {
                // Split by the span boundary (or already paid for):
                // resolve from data immediately.
                self.edge_from_live(frag, first)?
            };
            states.push(st);
        }

        loop {
            // Candidate selection: most extreme key; a Bound at the
            // extreme must be resolved before any Exact at the same key
            // can be trusted (the bound's chunk may hide an overwrite).
            let mut best: Option<(EdgeState, usize)> = None;
            for (pos, st) in states.iter().enumerate() {
                let Some(st) = *st else { continue };
                // More extreme key first; at equal keys prefer bounds
                // (must resolve), then the largest version among exacts.
                let better = best.is_none_or(|(b, bpos)| {
                    let ((key, is_bound), (bk, b_bound)) = (st.key(), b.key());
                    let by_time = if first { bk.cmp(&key) } else { key.cmp(&bk) };
                    by_time
                        .then(is_bound.cmp(&b_bound))
                        .then_with(|| self.version(pos).cmp(&self.version(bpos)))
                        .is_gt()
                });
                if better {
                    best = Some((st, pos));
                }
            }
            let Some((st, pos)) = best else {
                return Ok(None); // all chunks dead: empty span
            };
            let frag = self.frags[pos].0;
            let p = match st {
                EdgeState::Bound(_) => {
                    // Lazy load fires now: no other chunk can beat this
                    // one from metadata alone.
                    states[pos] = self.edge_from_live(frag, first)?;
                    continue;
                }
                EdgeState::Exact(p) => p,
            };
            if frag.loaded().is_some() {
                // A loaded fragment's candidate is a live point already;
                // Proposition 3.1 rules out overwrites for the
                // extreme-time candidate.
                return Ok(Some(p));
            }
            // Unloaded metadata candidate: verify against deletes.
            let covers = |d: &&ModEntry| d.applies_to(frag.version()) && d.covers(p.t);
            let covering = self.deletes.iter().filter(covers);
            let clip: Option<Timestamp> = if first {
                covering.map(|d| d.range.end).max()
            } else {
                covering.map(|d| d.range.start).min()
            };
            let Some(edge) = clip else {
                // Latest (Proposition 3.1). A fragment answered here
                // never read its body: chunk statistics alone.
                self.table.note_stat_answered();
                return Ok(Some(p));
            };
            // §3.3: shift the effective interval past the delete; the
            // chunk is only loaded if it remains the most extreme. Its
            // statistics lie inside the span (only a whole fragment
            // offers a metadata candidate), so a bound past them has
            // left the span too.
            let s = frag.stats();
            let (bound, dead) = if first {
                (edge.saturating_add(1), edge >= s.last.t)
            } else {
                (edge.saturating_sub(1), edge <= s.first.t)
            };
            states[pos] = (!dead).then_some(EdgeState::Bound(bound));
        }
    }

    /// Resolve a chunk's FP/LP for this span from its data: walk inward
    /// from the slice's end to the first live point.
    fn edge_from_live(&self, frag: &'t Fragment<'t>, first: bool) -> Result<Option<EdgeState>> {
        let pts = self.in_span(frag)?;
        let p = if first {
            pts.iter().find(|p| self.is_live(frag, p))
        } else {
            pts.iter().rev().find(|p| self.is_live(frag, p))
        };
        Ok(p.map(|p| EdgeState::Exact(*p)))
    }

    // ------------------------------------------------------------------
    // BP / TP (§3.4)
    // ------------------------------------------------------------------

    /// Solve TP (`top = true`) or BP (`top = false`).
    fn solve_extreme(&self, top: bool) -> Result<Option<Point>> {
        let mut states: Vec<ExtremeState<'t>> = Vec::with_capacity(self.frags.len());
        // `(pos, t)`: the metadata extreme of fragment `pos`, at `t`, is
        // known to be overwritten. A loaded fragment keeps its own
        // refutations in its state.
        let mut refuted: Vec<(usize, Timestamp)> = Vec::new();
        for (pos, &(frag, whole)) in self.frags.iter().enumerate() {
            let st = if frag.loaded().is_some() || !whole {
                // Pay the (already paid or unavoidable) load.
                self.load_extreme(pos, top, &refuted)?
            } else {
                let s = frag.stats();
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
                    ExtremeState::Loaded { cand, .. } => *cand,
                    ExtremeState::Dirty(_) => None,
                };
                let Some(p) = cand else { continue };
                let better = best.is_none_or(|(bp, bpos)| {
                    beats(top, p.v, bp.v)
                        .then_with(|| self.version(pos).cmp(&self.version(bpos)))
                        .is_gt()
                });
                if better {
                    best = Some((p, pos));
                }
            }

            // A dirty chunk whose bound is strictly better than the best
            // candidate could still hide the true extreme: load every
            // such chunk before trusting any candidate (§3.4 "loads all
            // the corresponding chunks ... and recalculates").
            let hides = |st: &ExtremeState<'_>| match *st {
                ExtremeState::Dirty(bound) => {
                    best.is_none_or(|(bp, _)| beats(top, bound, bp.v).is_gt())
                }
                _ => false,
            };
            let mut loaded_any = false;
            for (pos, st) in states.iter_mut().enumerate() {
                if hides(st) {
                    *st = self.load_extreme(pos, top, &refuted)?;
                    loaded_any = true;
                }
            }
            if loaded_any {
                continue;
            }

            let Some((p_g, pos)) = best else {
                return Ok(None); // nothing live in this span
            };
            let frag = self.frags[pos].0;

            // Verification (Proposition 3.3).
            // (a) deletes — only metadata candidates can still be
            // covered (a loaded fragment only offers live points).
            let from_meta = matches!(states[pos], ExtremeState::Meta(_));
            let deleted = from_meta && !self.is_live(frag, &p_g);
            let overwritten = !deleted && self.is_overwritten(pos, p_g.t)?;
            if !deleted && !overwritten {
                // A fragment whose metadata extreme survives
                // verification was answered from chunk statistics alone.
                if from_meta {
                    self.table.note_stat_answered();
                }
                return Ok(Some(p_g));
            }
            // Refuted: lazy-load bookkeeping.
            match &mut states[pos] {
                ExtremeState::Meta(p) => {
                    let bound = p.v;
                    if overwritten {
                        refuted.push((pos, p_g.t));
                    }
                    states[pos] = ExtremeState::Dirty(bound);
                }
                ExtremeState::Loaded { pts, cand, ranked } => {
                    let ranked =
                        ranked.get_or_insert_with(|| self.rank(pos, pts, top, p_g.t, &refuted));
                    *cand = ranked.next();
                }
                ExtremeState::Dirty(_) => {}
            }
        }
    }

    /// Load fragment `pos` for BP/TP: its in-span slice, with the
    /// slice's current extreme as the candidate.
    fn load_extreme(
        &self,
        pos: usize,
        top: bool,
        refuted: &[(usize, Timestamp)],
    ) -> Result<ExtremeState<'t>> {
        let pts = self.in_span(self.frags[pos].0)?;
        Ok(ExtremeState::Loaded {
            pts,
            cand: self.extreme_live(pos, pts, top, refuted),
            ranked: None,
        })
    }

    /// Current extreme of loaded fragment `pos`: one fold over its
    /// in-span slice `pts`, skipping deleted points and a refuted
    /// metadata extreme. Ties resolve to the earliest point, matching
    /// the scan-based oracle.
    fn extreme_live(
        &self,
        pos: usize,
        pts: &[Point],
        top: bool,
        refuted: &[(usize, Timestamp)],
    ) -> Option<Point> {
        let frag = self.frags[pos].0;
        let mut best: Option<Point> = None;
        for p in pts {
            let better = best.is_none_or(|b| beats(top, p.v, b.v).is_gt());
            if better && self.is_live(frag, p) && !refuted.contains(&(pos, p.t)) {
                best = Some(*p);
            }
        }
        best
    }

    /// The candidates loaded fragment `pos` has left once its candidate
    /// at `t` is refuted: the live points of `pts` other than `t` and a
    /// refuted metadata extreme, most extreme first and, among equal
    /// values, earliest first. Since [`Self::extreme_live`] keeps the
    /// earliest point on a tie, this is the order in which its fold
    /// would return them, one refutation at a time.
    fn rank(
        &self,
        pos: usize,
        pts: &[Point],
        top: bool,
        t: Timestamp,
        refuted: &[(usize, Timestamp)],
    ) -> std::vec::IntoIter<Point> {
        let frag = self.frags[pos].0;
        let mut left: Vec<Point> = pts
            .iter()
            .filter(|p| p.t != t && self.is_live(frag, p) && !refuted.contains(&(pos, p.t)))
            .copied()
            .collect();
        left.sort_by(|a, b| beats(top, b.v, a.v).then(a.t.cmp(&b.t)));
        left.into_iter()
    }

    /// Proposition 3.3 overwrite check: does any chunk with a larger
    /// version than fragment `pos` contain a point at exactly `t`?
    /// Fragments are in version order, so only those after `pos` are
    /// scanned. Interval checks are metadata-only; a data probe
    /// (a timestamp-only read) fires only for fragments whose
    /// interval contains `t`.
    fn is_overwritten(&self, pos: usize, t: Timestamp) -> Result<bool> {
        let version = self.version(pos);
        for &(other, _) in self.frags.get(pos + 1..).unwrap_or_default() {
            if other.version() <= version || !other.range().contains(t) {
                continue;
            }
            if self.table.contains_timestamp(other, t)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}
