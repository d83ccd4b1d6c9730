//! Shared-memory cells with ARBITRARY CRCW write semantics.
//!
//! The paper's subroutines repeatedly use three concurrent-write idioms:
//!
//! 1. **write-then-check** ("each arc writes itself to the private memory of
//!    `v`, then checks whether the arc written to `v` equals itself") — an
//!    arbitrary writer wins and everyone can identify the winner afterwards.
//!    Realized by [`TagCells`]: racing relaxed stores, any interleaving is a
//!    valid ARBITRARY resolution. When only "was there more than one
//!    writer?" matters, [`TagCells::write_vacant`] stores only into an empty
//!    cell: the winner still varies, but every loser still sees a mismatch,
//!    and a hot cell is written once instead of once per writer.
//!    [`TagCells::check_clear`] lets the winner empty its cell during the
//!    check, and [`EpochFlags`] mark under a per-call epoch, so cells reused
//!    call after call need no clearing pass.
//! 2. **priority write** (MAXLINK's arg-max over neighbour levels) — realized
//!    by [`MaxCells`] with a max over a packed `(key, value)` word, a
//!    standard constant-time CRCW simulation; [`MinCells`] is its dual.
//! 3. **priority election by packed key** — write-then-check where the
//!    smallest key wins ([`TagCells::write_min`]). Packing the election's
//!    priority into the high bits and the writer's index into the low bits
//!    gives every writer a distinct key, so the winner, and everything
//!    computed from it, is a function of the input alone. The smallest
//!    writer is one valid ARBITRARY resolution, so the paper's bounds hold
//!    unchanged (MATCHING's Step 3 min-label election).
//!
//! Every priority write and every claim is **load-first**. On a CRCW PRAM a
//! losing concurrent write costs nothing, but on real hardware a `fetch_min`,
//! `fetch_max` or compare-exchange takes the cache line exclusive even when
//! it loses, so the many losing offers on a hot cell would serialize on it.
//! [`offer_min`] and [`offer_max`] — the workspace's only `fetch_min` and
//! `fetch_max` (the cells here, [`ParentForest`](crate::forest::ParentForest)'s
//! hooks, HashMin's label buffer) — read the cell and issue the RMW only
//! when the offer would win, and [`TagCells::try_claim`] skips its
//! compare-exchange on an occupied cell. Within a pass a priority cell only
//! moves toward its extremum, and a load sees a value the cell held, so an
//! offer the load rules out would have lost the RMW too: the final value,
//! and every winner, is the same as with unconditional RMWs.
//!
//! All orderings are `Relaxed`: the batch-completion barrier at the end of
//! every parallel pass (the pool's job handoff and completion latch are
//! Release/Acquire) provides the necessary happens-before edges between
//! rounds, and races *within* a round are exactly the concurrent writes the
//! model permits. With more than one worker thread these races are real —
//! any writer may win, and `tests/threads.rs` hammers exactly that — while
//! one effective thread serializes each pass in index order, pinning one
//! deterministic ARBITRARY resolution.

use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// An atomic word that supports the load-first priority writes
/// [`offer_min`] and [`offer_max`]. Sealed: implemented for [`AtomicU32`]
/// and [`AtomicU64`].
pub trait PriorityWord: sealed::Sealed {
    /// The stored value.
    type Value: Copy + Ord;
    #[doc(hidden)]
    fn load_relaxed(&self) -> Self::Value;
    #[doc(hidden)]
    fn rmw_min(&self, v: Self::Value);
    #[doc(hidden)]
    fn rmw_max(&self, v: Self::Value);
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! priority_word {
    ($atomic:ty, $value:ty) => {
        impl sealed::Sealed for $atomic {}
        impl PriorityWord for $atomic {
            type Value = $value;
            #[inline]
            fn load_relaxed(&self) -> $value {
                self.load(Ordering::Relaxed)
            }
            #[inline]
            fn rmw_min(&self, v: $value) {
                self.fetch_min(v, Ordering::Relaxed);
            }
            #[inline]
            fn rmw_max(&self, v: $value) {
                self.fetch_max(v, Ordering::Relaxed);
            }
        }
    };
}

priority_word!(AtomicU32, u32);
priority_word!(AtomicU64, u64);

/// Concurrent priority write `cell = min(cell, v)`, load-first: the RMW
/// runs only when `v` is below the value the load saw, so a losing offer
/// leaves the cache line shared (module doc).
#[inline]
pub fn offer_min<W: PriorityWord>(cell: &W, v: W::Value) {
    if v < cell.load_relaxed() {
        cell.rmw_min(v);
    }
}

/// Concurrent priority write `cell = max(cell, v)`, load-first: the dual of
/// [`offer_min`].
#[inline]
pub fn offer_max<W: PriorityWord>(cell: &W, v: W::Value) {
    if v > cell.load_relaxed() {
        cell.rmw_max(v);
    }
}

/// Sentinel for an unoccupied cell.
pub const EMPTY: u64 = u64::MAX;

/// An array of cells supporting concurrent tagged writes with arbitrary
/// (or, through [`write_min`](Self::write_min), smallest-key) winner
/// resolution.
#[derive(Debug)]
pub struct TagCells {
    cells: Vec<AtomicU64>,
}

impl TagCells {
    /// `n` cells, all [`EMPTY`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(EMPTY));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent write; an arbitrary concurrent writer wins.
    #[inline]
    pub fn write(&self, i: usize, tag: u64) {
        self.cells[i].store(tag, Ordering::Relaxed);
    }

    /// Concurrent priority write: the smallest key written wins.
    #[inline]
    pub fn write_min(&self, i: usize, key: u64) {
        offer_min(&self.cells[i], key);
    }

    /// Concurrent write that only an empty cell accepts. Racing writers may
    /// still both store, so an arbitrary one wins; but once a writer is
    /// visible the rest leave the cell alone. For elections that only detect
    /// whether more than one writer came: every loser still reads a tag other
    /// than its own.
    #[inline]
    pub fn write_vacant(&self, i: usize, tag: u64) {
        let cell = &self.cells[i];
        if cell.load(Ordering::Relaxed) == EMPTY {
            cell.store(tag, Ordering::Relaxed);
        }
    }

    /// Read the current winner (or [`EMPTY`]).
    #[inline]
    #[must_use]
    pub fn read(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Relaxed)
    }

    /// The check of a write-then-check election, self-clearing: true iff
    /// the cell holds `tag`, and then the caller clears it. In a check pass
    /// after the writes, only the unique winner sees its own tag; a loser
    /// that reads the cleared [`EMPTY`] still sees a mismatch. So the
    /// outcome is that of a plain [`read`](Self::read), and every cell the
    /// election wrote is [`EMPTY`] again afterwards.
    #[inline]
    pub fn check_clear(&self, i: usize, tag: u64) -> bool {
        let won = self.read(i) == tag;
        if won {
            self.clear(i);
        }
        won
    }

    /// Is the cell unoccupied?
    #[inline]
    #[must_use]
    pub fn vacant(&self, i: usize) -> bool {
        self.read(i) == EMPTY
    }

    /// First-writer-wins claim: succeeds iff the cell was [`EMPTY`].
    /// An occupied cell fails on the load, without a compare-exchange.
    ///
    /// (On a CRCW PRAM this is two steps: write, then check the winner; a CAS
    /// realizes the same contract in one hardware op.)
    #[inline]
    pub fn try_claim(&self, i: usize, tag: u64) -> bool {
        let cell = &self.cells[i];
        cell.load(Ordering::Relaxed) == EMPTY
            && cell
                .compare_exchange(EMPTY, tag, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Clear one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(EMPTY, Ordering::Relaxed);
    }

    /// Clear every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(EMPTY, Ordering::Relaxed));
    }
}

/// Cells supporting concurrent priority (maximum) writes.
///
/// Values are packed `(key << 32) | payload`; the maximum then selects the
/// highest key and, among equal keys, the highest payload — a deterministic
/// tie-break that is one valid ARBITRARY resolution.
#[derive(Debug)]
pub struct MaxCells {
    cells: Vec<AtomicU64>,
}

/// Pack a `(key, payload)` pair for [`MaxCells`].
#[inline]
#[must_use]
pub fn pack(key: u32, payload: u32) -> u64 {
    (key as u64) << 32 | payload as u64
}

/// Inverse of [`pack`].
#[inline]
#[must_use]
pub fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl MaxCells {
    /// `n` cells, all zero (the identity for `max` since packed keys are ≥ 0).
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(0));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent priority write: the largest packed word wins.
    #[inline]
    pub fn offer(&self, i: usize, key: u32, payload: u32) {
        offer_max(&self.cells[i], pack(key, payload));
    }

    /// Current maximum as `(key, payload)`; `(0, 0)` if never offered.
    #[inline]
    #[must_use]
    pub fn best(&self, i: usize) -> (u32, u32) {
        unpack(self.cells[i].load(Ordering::Relaxed))
    }

    /// Zero one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(0, Ordering::Relaxed);
    }

    /// Zero every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// Cells supporting concurrent priority (minimum) writes over `u32` values.
///
/// The dual of [`MaxCells`], used by hook-to-minimum steps (Shiloach–Vishkin
/// conditional hooking, deterministic fallbacks).
#[derive(Debug)]
pub struct MinCells {
    cells: Vec<AtomicU64>,
}

impl MinCells {
    /// `n` cells, all [`EMPTY`] (the identity for `min`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut cells = Vec::with_capacity(n);
        cells.resize_with(n, || AtomicU64::new(EMPTY));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Concurrent priority write: the smallest value wins.
    #[inline]
    pub fn offer(&self, i: usize, value: u32) {
        offer_min(&self.cells[i], value as u64);
    }

    /// Current minimum, or `None` if never offered.
    #[inline]
    #[must_use]
    pub fn best(&self, i: usize) -> Option<u32> {
        let v = self.cells[i].load(Ordering::Relaxed);
        (v != EMPTY).then_some(v as u32)
    }

    /// Reset one cell.
    #[inline]
    pub fn clear(&self, i: usize) {
        self.cells[i].store(EMPTY, Ordering::Relaxed);
    }

    /// Reset every cell in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.cells
            .par_iter()
            .for_each(|c| c.store(EMPTY, Ordering::Relaxed));
    }
}

/// A parallel bit-flag array (marks: "dormant", "head", "deleted", ...).
#[derive(Debug)]
pub struct Flags {
    bits: Vec<AtomicBool>,
}

impl Flags {
    /// `n` flags, all false.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut bits = Vec::with_capacity(n);
        bits.resize_with(n, || AtomicBool::new(false));
        Self { bits }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if there are no flags.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Set flag `i`. Loads first, so re-setting a hot flag does not dirty
    /// its cache line.
    #[inline]
    pub fn set(&self, i: usize) {
        let bit = &self.bits[i];
        if !bit.load(Ordering::Relaxed) {
            bit.store(true, Ordering::Relaxed);
        }
    }

    /// Clear flag `i`.
    #[inline]
    pub fn unset(&self, i: usize) {
        self.bits[i].store(false, Ordering::Relaxed);
    }

    /// Read flag `i`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.bits[i].load(Ordering::Relaxed)
    }

    /// Clear every flag in parallel. The caller charges the cost.
    pub fn reset_all(&self) {
        self.bits
            .par_iter()
            .for_each(|b| b.store(false, Ordering::Relaxed));
    }
}

/// A byte per flag, set under an epoch: [`set`](Self::set) stores the
/// caller's epoch and [`get`](Self::get) compares against it, so a flag set
/// under another epoch reads as clear and no clearing pass is needed
/// between uses. Epochs are `1..=255` (0 is the initial, never-set state);
/// before an epoch value is used a second time, the owner must
/// [`reset_all`](Self::reset_all).
#[derive(Debug)]
pub struct EpochFlags {
    marks: Vec<AtomicU8>,
}

impl EpochFlags {
    /// `n` flags, clear under every epoch.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut marks = Vec::with_capacity(n);
        marks.resize_with(n, || AtomicU8::new(0));
        Self { marks }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// True if there are no flags.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Set flag `i` under `epoch`. Loads first, so re-setting a hot flag
    /// does not dirty its cache line.
    #[inline]
    pub fn set(&self, i: usize, epoch: u8) {
        debug_assert!(epoch != 0, "epoch 0 is the never-set state");
        let mark = &self.marks[i];
        if mark.load(Ordering::Relaxed) != epoch {
            mark.store(epoch, Ordering::Relaxed);
        }
    }

    /// Is flag `i` set under `epoch`?
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, epoch: u8) -> bool {
        self.marks[i].load(Ordering::Relaxed) == epoch
    }

    /// Clear every flag under every epoch, in parallel. The caller charges
    /// the cost.
    pub fn reset_all(&self) {
        self.marks
            .par_iter()
            .for_each(|m| m.store(0, Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_cells_start_empty() {
        let t = TagCells::new(4);
        assert_eq!(t.len(), 4);
        assert!((0..4).all(|i| t.vacant(i)));
    }

    #[test]
    fn tag_write_read() {
        let t = TagCells::new(2);
        t.write(0, 99);
        assert_eq!(t.read(0), 99);
        assert!(t.vacant(1));
        t.clear(0);
        assert!(t.vacant(0));
    }

    #[test]
    fn try_claim_first_wins() {
        let t = TagCells::new(1);
        assert!(t.try_claim(0, 5));
        assert!(!t.try_claim(0, 6));
        assert_eq!(t.read(0), 5);
    }

    #[test]
    fn concurrent_writes_some_winner() {
        let t = TagCells::new(1);
        (0..1000u64).into_par_iter().for_each(|i| t.write(0, i));
        let w = t.read(0);
        assert!(w < 1000, "winner must be one of the written tags");
    }

    #[test]
    fn concurrent_claims_exactly_one_winner() {
        let t = TagCells::new(1);
        let winners: Vec<u64> = (0..1000u64)
            .into_par_iter()
            .filter(|&i| t.try_claim(0, i))
            .collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(t.read(0), winners[0]);
    }

    #[test]
    fn write_min_keeps_the_smallest_key_in_any_order() {
        let t = TagCells::new(1);
        for k in [7u64, 3, 9, 3, 5] {
            t.write_min(0, k);
        }
        assert_eq!(t.read(0), 3);
        (0..1000u64)
            .into_par_iter()
            .for_each(|i| t.write_min(0, 1000 - i));
        assert_eq!(t.read(0), 1);
    }

    #[test]
    fn offer_helpers_keep_the_extremum_on_both_widths() {
        let (a, b) = (AtomicU32::new(u32::MAX), AtomicU64::new(0));
        for v in [7u32, 3, 9, 3, 5] {
            offer_min(&a, v);
            offer_max(&b, u64::from(v) << 32);
        }
        assert_eq!(a.load(Ordering::Relaxed), 3);
        assert_eq!(b.load(Ordering::Relaxed), 9 << 32);
        (0..1000u32)
            .into_par_iter()
            .for_each(|i| offer_min(&a, 1000 - i));
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn try_claim_on_a_taken_cell_leaves_it_alone() {
        let t = TagCells::new(2);
        t.write(0, 8);
        assert!(!t.try_claim(0, 1));
        assert_eq!(t.read(0), 8);
        assert!(t.try_claim(1, 1));
    }

    #[test]
    fn write_vacant_keeps_the_first_visible_writer() {
        let t = TagCells::new(1);
        t.write_vacant(0, 4);
        t.write_vacant(0, 2);
        assert_eq!(t.read(0), 4);
        // Under contention some writer wins.
        let t = TagCells::new(1);
        (0..1000u64)
            .into_par_iter()
            .for_each(|i| t.write_vacant(0, i));
        assert!(t.read(0) < 1000);
    }

    #[test]
    fn max_cells_select_maximum_key() {
        let m = MaxCells::new(1);
        (0..1000u32)
            .into_par_iter()
            .for_each(|i| m.offer(0, i, i + 7));
        assert_eq!(m.best(0), (999, 999 + 7));
    }

    #[test]
    fn racing_offers_end_at_the_packed_maximum() {
        // Every worker offers the same rising keys, each with its own
        // payload, so offers on one cell keep racing to the end: a writer
        // that loses the race between its load and its write must not
        // lower the cell.
        let (cells, steps, threads) = (8usize, 1u32 << 18, 4u32);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads as usize)
            .build()
            .expect("failed to build a 4-thread pool");
        let m = MaxCells::new(cells);
        pool.install(|| {
            (0..threads).into_par_iter().with_min_len(1).for_each(|t| {
                for step in 0..steps {
                    m.offer(step as usize % cells, step, t);
                }
            });
        });
        for i in 0..cells {
            let last = (0..steps).rev().find(|&s| s as usize % cells == i).unwrap();
            assert_eq!(m.best(i), (last, threads - 1), "cell {i}");
        }
    }

    #[test]
    fn max_cells_tie_break_on_payload() {
        let m = MaxCells::new(1);
        m.offer(0, 5, 1);
        m.offer(0, 5, 9);
        m.offer(0, 5, 3);
        assert_eq!(m.best(0), (5, 9));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let w = pack(123, 456);
        assert_eq!(unpack(w), (123, 456));
        assert_eq!(unpack(pack(u32::MAX, 0)), (u32::MAX, 0));
    }

    #[test]
    fn flags_set_get_reset() {
        let f = Flags::new(3);
        f.set(1);
        assert!(!f.get(0) && f.get(1) && !f.get(2));
        f.unset(1);
        assert!(!f.get(1));
        f.set(0);
        f.set(2);
        f.reset_all();
        assert!((0..3).all(|i| !f.get(i)));
    }

    #[test]
    fn epoch_flags_read_clear_under_other_epochs() {
        let f = EpochFlags::new(3);
        assert!((0..3).all(|i| !f.get(i, 1)));
        f.set(1, 1);
        assert!(f.get(1, 1) && !f.get(1, 2) && !f.get(0, 1));
        f.set(1, 2);
        assert!(f.get(1, 2) && !f.get(1, 1));
        f.reset_all();
        assert!((0..3).all(|i| !f.get(i, 2)));
    }

    #[test]
    fn check_clear_leaves_every_elected_cell_empty() {
        // Racing writers, then a parallel check pass: exactly one writer
        // per cell sees itself, and every cell ends empty.
        let cells = 16usize;
        let t = TagCells::new(cells);
        (0..4096u64)
            .into_par_iter()
            .for_each(|i| t.write_vacant(i as usize % cells, i));
        let winners = (0..4096u64)
            .into_par_iter()
            .filter(|&i| t.check_clear(i as usize % cells, i))
            .count();
        assert_eq!(winners, cells);
        assert!((0..cells).all(|i| t.vacant(i)));
    }

    #[test]
    fn min_cells_select_minimum() {
        let m = MinCells::new(2);
        assert_eq!(m.best(0), None);
        (1..1000u32).into_par_iter().for_each(|i| m.offer(0, i));
        assert_eq!(m.best(0), Some(1));
        m.clear(0);
        assert_eq!(m.best(0), None);
    }

    #[test]
    fn reset_all_clears_tags() {
        let t = TagCells::new(100);
        for i in 0..100 {
            t.write(i, i as u64);
        }
        t.reset_all();
        assert!((0..100).all(|i| t.vacant(i)));
    }
}
