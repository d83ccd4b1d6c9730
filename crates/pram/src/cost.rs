//! Work/depth accounting for the simulated PRAM.
//!
//! Every parallel primitive charges `(work, depth)` once per invocation:
//! `work` is the number of item-operations it performs (the paper's *total
//! work*), `depth` is the number of synchronous PRAM steps it would take with
//! enough processors (the paper's *time*). Because the algorithms are
//! sequential compositions of parallel primitives, total depth is the plain sum
//! of the primitives' depths.
//!
//! Charges use relaxed atomics so a tracker can be shared freely across rayon
//! tasks; primitives charge once per call (not per item), so the overhead is
//! negligible. A pass whose per-item cost varies (root chases) sums it
//! locally and charges the total once, so workers never contend on the
//! tracker.

use std::sync::atomic::{AtomicU64, Ordering};

/// Accumulates simulated PRAM work and depth.
#[derive(Debug, Default)]
pub struct CostTracker {
    work: AtomicU64,
    depth: AtomicU64,
}

/// A point-in-time reading of a [`CostTracker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Total operations across all processors.
    pub work: u64,
    /// Synchronous PRAM steps (the paper's parallel running time).
    pub depth: u64,
}

impl Cost {
    /// Component-wise difference, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: Cost) -> Cost {
        Cost {
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
        }
    }
}

impl CostTracker {
    /// A fresh tracker with zero work and depth.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `work` item-operations executed over `depth` PRAM steps.
    #[inline]
    pub fn charge(&self, work: u64, depth: u64) {
        self.work.fetch_add(work, Ordering::Relaxed);
        self.depth.fetch_add(depth, Ordering::Relaxed);
    }

    /// Charge work only (free depth; used when an operation is fused into an
    /// already-charged step).
    #[inline]
    pub fn charge_work(&self, work: u64) {
        self.work.fetch_add(work, Ordering::Relaxed);
    }

    /// Total work so far.
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Total depth so far.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Current reading.
    pub fn snapshot(&self) -> Cost {
        Cost {
            work: self.work(),
            depth: self.depth(),
        }
    }

    /// Zero both counters.
    pub fn reset(&self) {
        self.work.store(0, Ordering::Relaxed);
        self.depth.store(0, Ordering::Relaxed);
    }
}

/// The iterated logarithm `log* n`: how many times `log2` must be applied to
/// reach a value ≤ 1. Used to charge approximate compaction (paper Lemma 4.2)
/// and perfect hashing at the paper's rate.
#[must_use]
pub fn log_star(n: u64) -> u64 {
    let mut x = n as f64;
    let mut i = 0;
    while x > 1.0 {
        x = x.log2();
        i += 1;
    }
    i
}

/// `ceil(log2 n)` with `log2 0 = log2 1 = 0`.
#[must_use]
pub fn ceil_log2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// `ceil(log2 log2 n)`, the padded-sort depth charge (paper Lemma 7.9).
#[must_use]
pub fn ceil_loglog(n: u64) -> u64 {
    ceil_log2(ceil_log2(n).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let t = CostTracker::new();
        t.charge(10, 2);
        t.charge(5, 1);
        assert_eq!(t.work(), 15);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn charge_work_leaves_depth() {
        let t = CostTracker::new();
        t.charge_work(7);
        assert_eq!(t.work(), 7);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn reset_zeroes() {
        let t = CostTracker::new();
        t.charge(10, 2);
        t.reset();
        assert_eq!(t.snapshot(), Cost::default());
    }

    #[test]
    fn snapshot_since() {
        let t = CostTracker::new();
        t.charge(10, 2);
        let a = t.snapshot();
        t.charge(3, 4);
        let d = t.snapshot().since(a);
        assert_eq!(d, Cost { work: 3, depth: 4 });
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(0), 0);
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(u64::MAX), 5);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
    }

    #[test]
    fn ceil_loglog_values() {
        assert_eq!(ceil_loglog(2), 0);
        assert_eq!(ceil_loglog(4), 1);
        assert_eq!(ceil_loglog(16), 2);
        assert_eq!(ceil_loglog(1 << 16), 4);
    }

    #[test]
    fn tracker_is_shareable_across_threads() {
        use rayon::prelude::*;
        let t = CostTracker::new();
        (0..1000u64).into_par_iter().for_each(|_| t.charge_work(1));
        assert_eq!(t.work(), 1000);
    }
}
