//! Heap-allocation telemetry: a counting `GlobalAlloc` hook.
//!
//! The zero-allocation hot-path work (in-place sorts, [`crate::arena`], the
//! LTZ engine's round-to-round buffer reuse) needs a way to *prove* it:
//! [`CountingAllocator`] wraps the system allocator and maintains
//! process-wide relaxed-atomic counters — allocation count, live bytes,
//! and a high-water mark resettable per measurement window.
//!
//! The hook is **opt-in per binary**: a test, bench, or the `parcc` CLI
//! installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: parcc_pram::alloc_track::CountingAllocator = CountingAllocator;
//! ```
//!
//! Library builds never install it, so downstream users pay nothing.
//! When no hook is installed the counters read zero and
//! [`hook_installed`] is `false`; `SolveReport` then carries zeros for
//! `allocs`/`peak_bytes` (the CLI prints them as unavailable).
//!
//! Counter updates are `Relaxed` — telemetry, not synchronization — and
//! add two atomic RMWs per allocation, which is noise next to the
//! allocation itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A `GlobalAlloc` that forwards to [`System`] and counts every
/// allocation. Install per binary with `#[global_allocator]`.
pub struct CountingAllocator;

#[inline]
fn record_alloc(size: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    crate::crcw::offer_max(&PEAK_BYTES, live);
}

#[inline]
fn record_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the counters never affect the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_dealloc(layout.size());
        record_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Is a [`CountingAllocator`] installed in this binary? (Detected on the
/// first counted allocation; zero counters from an uninstrumented binary
/// read as "unavailable", not "allocation-free".)
#[must_use]
pub fn hook_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Total heap allocations (including reallocs) since process start.
#[must_use]
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap.
#[must_use]
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water live bytes since process start or the last
/// [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Start a measurement window: drop the high-water mark to the current
/// live size, so [`peak_bytes`] afterwards reports the window's peak.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the hook; exercise the recording
    // functions directly.
    #[test]
    fn counters_accumulate_and_peak_resets() {
        let a0 = allocation_count();
        record_alloc(1000);
        record_alloc(500);
        assert_eq!(allocation_count() - a0, 2);
        assert!(hook_installed());
        let live = live_bytes();
        assert!(peak_bytes() >= live);
        record_dealloc(500);
        assert_eq!(live_bytes(), live - 500);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
        record_dealloc(1000);
    }
}
