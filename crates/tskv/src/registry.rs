//! The metric registry: a metric is declared once, in one line.
//!
//! [`metric_registry!`](crate::metric_registry) is invoked twice — by
//! [`crate::stats`] for the engine and by `tsnet::stats` for the server
//! — and a metric's name appears nowhere else except where it is
//! incremented: there is no field order to keep in step and no place
//! to forget. Counting stays a relaxed `fetch_add` on a struct field;
//! names exist only in `metrics()` and `set_metric()`, which run per
//! Stats request, not per event.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a metric's values mean to a reader that knows only its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event or byte count: one value, deltas between
    /// snapshots are meaningful.
    Counter,
    /// Point-in-time level that rises and falls: one value.
    Gauge,
    /// Per-bucket counts; the bucket bounds are the declaring module's
    /// contract.
    Histogram,
}

/// What the atomic block stores for one metric: an [`AtomicU64`] for a
/// counter or gauge, an array of them for a histogram.
pub trait MetricCell {
    /// The plain value a snapshot holds for this cell.
    type Value: MetricValue;
    /// A cell reading zero.
    fn zero() -> Self;
    /// Relaxed read of the current value.
    fn load(&self) -> Self::Value;
}

impl MetricCell for AtomicU64 {
    type Value = u64;

    fn zero() -> Self {
        AtomicU64::new(0)
    }

    fn load(&self) -> u64 {
        AtomicU64::load(self, Ordering::Relaxed)
    }
}

impl<const N: usize> MetricCell for [AtomicU64; N] {
    type Value = Vec<u64>;

    fn zero() -> Self {
        std::array::from_fn(|_| AtomicU64::new(0))
    }

    fn load(&self) -> Vec<u64> {
        self.iter().map(MetricCell::load).collect()
    }
}

/// What a snapshot stores for one metric: `u64` for a counter or
/// gauge, `Vec<u64>` for a histogram.
pub trait MetricValue {
    /// The value as the Stats RPC sends it.
    fn values(&self) -> &[u64];
    /// Overwrite from received values. A scalar takes the first (zero
    /// when there is none); a histogram takes them all.
    fn assign(&mut self, values: &[u64]);
    /// `self − earlier`, clamped at zero.
    fn delta(&self, earlier: &Self) -> Self;
}

impl MetricValue for u64 {
    fn values(&self) -> &[u64] {
        std::slice::from_ref(self)
    }

    fn assign(&mut self, values: &[u64]) {
        *self = values.first().copied().unwrap_or(0);
    }

    fn delta(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }
}

impl MetricValue for Vec<u64> {
    fn values(&self) -> &[u64] {
        self
    }

    fn assign(&mut self, values: &[u64]) {
        *self = values.to_vec();
    }

    /// Bucket-wise; a bucket `earlier` lacks counts as zero.
    fn delta(&self, earlier: &Vec<u64>) -> Vec<u64> {
        let earlier = earlier.iter().chain(std::iter::repeat(&0));
        self.iter().zip(earlier).map(|(a, b)| a.delta(b)).collect()
    }
}

/// Declare a metric registry: the atomic block, its snapshot struct
/// and everything that connects them.
///
/// An entry is `kind name;` for a `counter` or `gauge`, `histogram
/// name[buckets];` for a histogram, or `kind name = expr;` for a value
/// owned elsewhere — `expr` is evaluated by `snapshot` (it may use the
/// parameters declared in `snapshot(...)`) and no cell is stored. Doc
/// comments on an entry document the snapshot field.
///
/// Generated, for `struct Cells; struct Snap;`: `Cells` with a private
/// cell per stored entry, and `Default`; `Snap` with a `pub` field per
/// entry (`u64`, or `Vec<u64>` for a histogram); `Cells::snapshot`;
/// `Snap - Snap`, saturating per value; `Snap::metrics()` yielding
/// `("namespace.name", kind, values)` in declaration order and
/// `Snap::set_metric(name, values)`, its inverse by name.
///
/// ```
/// tskv::metric_registry! {
///     namespace "demo";
///     #[derive(Debug)]
///     pub struct DemoStats;
///     #[derive(Debug, Clone, Default, PartialEq, Eq)]
///     pub struct DemoSnapshot;
///     snapshot(queue_depth: u64);
///
///     /// Requests served.
///     counter served;
///     /// Requests waiting, read from the queue's owner.
///     gauge waiting = queue_depth;
///     /// Service-time buckets.
///     histogram service_time[4];
/// }
///
/// impl DemoStats {
///     fn record(&self, bucket: usize) {
///         use std::sync::atomic::Ordering::Relaxed;
///         self.served.fetch_add(1, Relaxed);
///         self.service_time[bucket].fetch_add(1, Relaxed);
///     }
/// }
///
/// let stats = DemoStats::default();
/// stats.record(2);
/// let snap = stats.snapshot(7);
/// assert_eq!((snap.served, snap.waiting), (1, 7));
/// assert_eq!(snap.service_time, [0, 0, 1, 0]);
/// let names: Vec<_> = snap.metrics().map(|(name, _, _)| name).collect();
/// assert_eq!(names, ["demo.served", "demo.waiting", "demo.service_time"]);
/// assert_eq!((stats.snapshot(0) - snap).served, 0);
/// ```
#[macro_export]
macro_rules! metric_registry {
    (
        namespace $ns:literal;
        $(#[$cells_meta:meta])*
        $cells_vis:vis struct $Cells:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident;
        snapshot($($arg:ident: $arg_ty:ty),*);
        $(
            $(#[$doc:meta])*
            $kind:ident $name:ident $([$len:expr])? $(= $sample:expr)?;
        )+
    ) => {
        $crate::metric_registry!(@cells
            [$(#[$cells_meta])* $cells_vis struct $Cells] $Cells [] []
            $({ $kind $name $([$len])? $(= $sample)? })+
        );

        $(#[$snap_meta])*
        $snap_vis struct $Snap {
            $(
                $(#[$doc])*
                pub $name: $crate::metric_registry!(@value $kind),
            )+
        }

        impl $Cells {
            /// Capture the current values: a relaxed load per stored
            /// cell, the sampler expression for the rest.
            pub fn snapshot(&self $(, $arg: $arg_ty)*) -> $Snap {
                $Snap {
                    $($name: $crate::metric_registry!(@load self.$name $(= $sample)?),)+
                }
            }
        }

        impl ::std::ops::Sub for $Snap {
            type Output = $Snap;

            /// Per-value saturating difference: subtracting a newer
            /// snapshot (or another process's reading of a shared
            /// source) yields zeros, never a panic or a wrapped value.
            fn sub(self, rhs: $Snap) -> $Snap {
                $Snap {
                    $($name: $crate::registry::MetricValue::delta(&self.$name, &rhs.$name),)+
                }
            }
        }

        impl $Snap {
            /// Every metric as `(name, kind, values)`, in declaration
            /// order — what the Stats RPC sends.
            pub fn metrics(
                &self,
            ) -> impl Iterator<Item = (&'static str, $crate::registry::MetricKind, &[u64])> {
                [$((
                    concat!($ns, ".", stringify!($name)),
                    $crate::metric_registry!(@kind $kind),
                    $crate::registry::MetricValue::values(&self.$name),
                ),)+]
                .into_iter()
            }

            /// Overwrite the metric called `name`. Returns `false`,
            /// changing nothing, when this registry declares no such
            /// metric.
            pub fn set_metric(&mut self, name: &str, values: &[u64]) -> bool {
                $(if name == concat!($ns, ".", stringify!($name)) {
                    $crate::registry::MetricValue::assign(&mut self.$name, values);
                    return true;
                })+
                false
            }
        }
    };

    // The atomic block: a cell for every entry without a sampler.
    // (A struct's field list cannot be filtered by a repetition, hence
    // the accumulator.)
    (@cells [$($head:tt)*] $Cells:ident [$($field:tt)*] [$($init:tt)*]) => {
        $($head)* { $($field)* }

        impl Default for $Cells {
            fn default() -> Self {
                $Cells { $($init)* }
            }
        }
    };
    (@cells $head:tt $Cells:ident $fields:tt $inits:tt
        { $kind:ident $name:ident = $sample:expr } $($rest:tt)*
    ) => {
        $crate::metric_registry!(@cells $head $Cells $fields $inits $($rest)*);
    };
    (@cells $head:tt $Cells:ident [$($field:tt)*] [$($init:tt)*]
        { $kind:ident $name:ident $([$len:expr])? } $($rest:tt)*
    ) => {
        $crate::metric_registry!(@cells $head $Cells
            [$($field)* $name: $crate::metric_registry!(@cell $kind $([$len])?),]
            [$($init)* $name: $crate::registry::MetricCell::zero(),]
            $($rest)*
        );
    };

    (@cell histogram [$len:expr]) => { [::std::sync::atomic::AtomicU64; $len] };
    (@cell $kind:ident) => { ::std::sync::atomic::AtomicU64 };

    (@value histogram) => { Vec<u64> };
    (@value $kind:ident) => { u64 };

    (@kind counter) => { $crate::registry::MetricKind::Counter };
    (@kind gauge) => { $crate::registry::MetricKind::Gauge };
    (@kind histogram) => { $crate::registry::MetricKind::Histogram };

    (@load $cells:ident.$name:ident = $sample:expr) => { $sample };
    (@load $cells:ident.$name:ident) => {
        $crate::registry::MetricCell::load(&$cells.$name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_difference_is_bucket_wise_and_tolerates_length_mismatch() {
        let newer = vec![5u64, 1, 9];
        assert_eq!(newer.delta(&vec![2, 4]), vec![3, 0, 9]);
        assert_eq!(vec![2u64].delta(&newer), vec![0]);
    }

    #[test]
    fn scalar_assign_takes_the_first_value_or_zero() {
        let mut v = 9u64;
        v.assign(&[4, 5]);
        assert_eq!(v, 4);
        v.assign(&[]);
        assert_eq!(v, 0);
    }
}
