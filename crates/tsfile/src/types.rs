//! Fundamental time series types shared across the workspace.
//!
//! A time series is a sequence of [`Point`]s ordered by time. Versions
//! ([`Version`]) are the paper's global incremental `κ` numbers that
//! decide which of two writes to the same timestamp is "the latest"
//! (Definition 2.4/2.5 of the paper).

use std::fmt;

/// A timestamp in milliseconds since the Unix epoch (IoTDB convention).
pub type Timestamp = i64;

/// A sensor reading value. The paper's evaluation uses numeric series;
/// we fix `f64` as IoTDB's DOUBLE type.
pub type Value = f64;

/// Global incremental version number `κ` assigned to each chunk or
/// delete. Larger versions apply later (Definition 2.4 / 2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version(pub u64);

impl Version {
    /// The infinite version used for virtual deletes (`D^∞`, §3.1).
    /// Strictly larger than any version the allocator can hand out.
    pub const INF: Version = Version(u64::MAX);
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Version::INF {
            write!(f, "κ=∞")
        } else {
            write!(f, "κ={}", self.0)
        }
    }
}

/// A single data point: a time-value pair `(t, v)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub t: Timestamp,
    pub v: Value,
}

impl Point {
    /// Construct a point from a timestamp and value.
    #[inline]
    pub fn new(t: Timestamp, v: Value) -> Self {
        Point { t, v }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.t, self.v)
    }
}

impl From<(Timestamp, Value)> for Point {
    fn from((t, v): (Timestamp, Value)) -> Self {
        Point { t, v }
    }
}

/// An inclusive time range `[start, end]`.
///
/// Used both for delete ranges (`[t_ds, t_de]`, Definition 2.5) and for
/// chunk time intervals `[FP(C).t, LP(C).t]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    pub start: Timestamp,
    pub end: Timestamp,
}

impl TimeRange {
    /// Construct a range; callers may pass `start > end` to denote an
    /// empty range (used by the paper's empty delete `D^∞` with
    /// `t_ds = t_de`, and by clipping operations that produce nothing).
    #[inline]
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        TimeRange { start, end }
    }

    /// Whether a timestamp is covered by this range (`t ⊨ D`).
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether this range holds no timestamps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start > self.end
    }

    /// Whether two inclusive ranges overlap.
    #[inline]
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start <= other.end && other.start <= self.end
    }

    /// Intersection of two inclusive ranges (possibly empty).
    #[inline]
    pub fn intersect(&self, other: &TimeRange) -> TimeRange {
        TimeRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_inf_is_largest() {
        assert!(Version::INF > Version(0));
        assert!(Version::INF > Version(u64::MAX - 1));
        assert_eq!(Version::INF.to_string(), "κ=∞");
        assert_eq!(Version(7).to_string(), "κ=7");
    }

    #[test]
    fn point_roundtrip_from_tuple() {
        let p: Point = (5i64, 2.5f64).into();
        assert_eq!(p, Point::new(5, 2.5));
        assert_eq!(p.to_string(), "(5, 2.5)");
    }

    #[test]
    fn time_range_contains_is_inclusive() {
        let r = TimeRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(20));
        assert!(!r.contains(9));
        assert!(!r.contains(21));
    }

    #[test]
    fn time_range_empty() {
        assert!(TimeRange::new(5, 4).is_empty());
        assert!(!TimeRange::new(5, 5).is_empty());
    }

    #[test]
    fn time_range_overlap() {
        let a = TimeRange::new(0, 10);
        assert!(a.overlaps(&TimeRange::new(10, 20)));
        assert!(a.overlaps(&TimeRange::new(-5, 0)));
        assert!(!a.overlaps(&TimeRange::new(11, 20)));
        assert!(!a.overlaps(&TimeRange::new(3, 2))); // empty never overlaps
    }

    #[test]
    fn time_range_intersect() {
        let a = TimeRange::new(0, 10);
        let b = TimeRange::new(5, 15);
        assert_eq!(a.intersect(&b), TimeRange::new(5, 10));
        let c = TimeRange::new(11, 15);
        assert!(a.intersect(&c).is_empty());
    }
}
