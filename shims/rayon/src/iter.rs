//! Parallel iterators: indexed sources, adapters, and the chunked driver.
//!
//! ## Execution model
//!
//! Every pipeline bottoms out in a *source* with `slots()` integer-indexed
//! positions (a range, a slice, a chunk sequence, …). Adapters (`map`,
//! `filter`, `flat_map_iter`, `zip`, …) wrap the source and transform the
//! items produced per slot. A terminal operation (`for_each`, `collect`,
//! `reduce`, …) calls [`Par::drive`]: the slot range `0..slots` is cut into
//! contiguous chunks, each chunk is folded *sequentially in slot order* on
//! some pool thread, and the per-chunk accumulators are combined on the
//! caller **in chunk order**.
//!
//! Consequences:
//!
//! * Item production and consumption happen on the same thread, so items
//!   never need to cross threads — only accumulators do.
//! * Order-sensitive terminals (`collect`) are **deterministic**: output
//!   order equals slot order regardless of thread count or scheduling. The
//!   only nondeterminism a parallel run can exhibit is through side effects
//!   racing on shared state (e.g. ARBITRARY CRCW cells).
//! * With one effective thread the whole pipeline folds inline on the
//!   caller, in slot order — exactly the old sequential shim's schedule.
//!
//! ## Chunking policy
//!
//! `chunk_len = max(floor, slots / (4 × threads))`: about four chunks per
//! thread for stealing slack, where `floor` is the explicit `with_min_len`
//! hint if one was given, else 64 — so tiny inputs stay sequential by
//! default, while coarse pipelines (few large slots, e.g. per-thread
//! `par_chunks`) can pass `with_min_len(1)` to fan out anyway.

use crate::pool;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Minimum chunk length the driver will create without an explicit hint.
const CHUNK_FLOOR: usize = 64;
/// Chunks created per effective thread (stealing slack).
const CHUNKS_PER_THREAD: usize = 4;

/// The engine behind a [`Par`]: a source or adapter that can fold the items
/// of any sub-range of its slot space.
pub trait ParIter {
    /// The element type produced per consumed slot (possibly several or none
    /// per slot for `filter`/`flat_map_iter` adapters).
    type Item;

    /// Number of indexable slots (≥ the number of items only for
    /// filtering adapters; equal for indexed sources).
    fn slots(&self) -> usize;

    /// Fold the items arising from `range` into `acc`, in slot order.
    ///
    /// # Safety
    /// Sources handing out owned values or `&mut` items rely on every slot
    /// being consumed **at most once** across the iterator's lifetime;
    /// callers must fold disjoint ranges only.
    unsafe fn fold_slots<A, F: FnMut(A, Self::Item) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        f: &mut F,
    ) -> A;

    /// Hook invoked once when a terminal operation starts driving.
    fn begin_drive(&self) {}

    /// Dispose of slots the driver will never fold (early-exiting terminals,
    /// `zip` tails). Borrowing sources need no action (the default);
    /// by-value sources drop the unconsumed items so nothing leaks.
    ///
    /// # Safety
    /// Same single-consumption contract as [`ParIter::fold_slots`]: a
    /// skipped slot must never also be folded or indexed.
    unsafe fn skip_slots(&self, range: Range<usize>) {
        let _ = range;
    }
}

/// A [`ParIter`] with random access: slot `i` yields exactly one item.
/// Required by `zip` and `enumerate`.
pub trait IndexedParIter: ParIter {
    /// Produce the item of slot `i`.
    ///
    /// # Safety
    /// Same single-consumption contract as [`ParIter::fold_slots`].
    unsafe fn index(&self, i: usize) -> Self::Item;
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Integer types usable as parallel range endpoints.
pub trait RangeItem: Copy + Send {
    /// `self + i`, where the result is guaranteed in range.
    fn add_usize(self, i: usize) -> Self;
    /// `end - self` as a usize (0 if negative).
    fn delta(self, end: Self) -> usize;
}

macro_rules! range_item {
    ($($t:ty),*) => {$(
        impl RangeItem for $t {
            #[inline]
            fn add_usize(self, i: usize) -> Self {
                self + i as $t
            }
            #[inline]
            fn delta(self, end: Self) -> usize {
                if end > self { (end - self) as usize } else { 0 }
            }
        }
    )*};
}
range_item!(u32, u64, usize);

/// Parallel iterator over an integer range.
#[derive(Clone, Copy, Debug)]
pub struct RangePar<T> {
    start: T,
    len: usize,
}

impl<T: RangeItem> ParIter for RangePar<T> {
    type Item = T;
    fn slots(&self) -> usize {
        self.len
    }
    unsafe fn fold_slots<A, F: FnMut(A, T) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        for i in range {
            acc = f(acc, self.start.add_usize(i));
        }
        acc
    }
}

impl<T: RangeItem> IndexedParIter for RangePar<T> {
    unsafe fn index(&self, i: usize) -> T {
        self.start.add_usize(i)
    }
}

/// Parallel iterator over `&[T]`, yielding `&T`.
#[derive(Debug)]
pub struct SlicePar<'a, T> {
    s: &'a [T],
}

impl<'a, T> ParIter for SlicePar<'a, T> {
    type Item = &'a T;
    fn slots(&self) -> usize {
        self.s.len()
    }
    unsafe fn fold_slots<A, F: FnMut(A, &'a T) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        for x in &self.s[range] {
            acc = f(acc, x);
        }
        acc
    }
}

impl<'a, T> IndexedParIter for SlicePar<'a, T> {
    unsafe fn index(&self, i: usize) -> &'a T {
        &self.s[i]
    }
}

/// Parallel iterator over `&mut [T]`, yielding `&mut T`.
///
/// Held as a raw pointer so disjoint slots can be handed out from a shared
/// `&self` across worker threads.
#[derive(Debug)]
pub struct SliceMutPar<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: disjoint-slot access to &mut [T] from several threads is the same
// guarantee split_at_mut provides; T: Send because &mut T moves T's data
// across the executing thread.
unsafe impl<T: Send> Send for SliceMutPar<'_, T> {}
unsafe impl<T: Send> Sync for SliceMutPar<'_, T> {}

impl<'a, T> ParIter for SliceMutPar<'a, T> {
    type Item = &'a mut T;
    fn slots(&self) -> usize {
        self.len
    }
    unsafe fn fold_slots<A, F: FnMut(A, &'a mut T) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        for i in range {
            // SAFETY: i < len, and the driver folds disjoint ranges.
            acc = f(acc, unsafe { &mut *self.ptr.add(i) });
        }
        acc
    }
}

impl<'a, T> IndexedParIter for SliceMutPar<'a, T> {
    #[allow(clippy::mut_from_ref)] // disjoint-slot contract, see trait docs
    unsafe fn index(&self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        // SAFETY: bounds checked; single-consumption contract gives
        // exclusivity.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Parallel iterator over non-overlapping sub-slices of length `size`.
#[derive(Debug)]
pub struct ChunksPar<'a, T> {
    s: &'a [T],
    size: usize,
}

impl<'a, T> ParIter for ChunksPar<'a, T> {
    type Item = &'a [T];
    fn slots(&self) -> usize {
        self.s.len().div_ceil(self.size)
    }
    unsafe fn fold_slots<A, F: FnMut(A, &'a [T]) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        for i in range {
            // SAFETY: same contract as `index`, which is actually safe here.
            acc = f(acc, unsafe { self.index(i) });
        }
        acc
    }
}

impl<'a, T> IndexedParIter for ChunksPar<'a, T> {
    unsafe fn index(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.s.len());
        &self.s[lo..hi]
    }
}

/// Parallel iterator over non-overlapping mutable sub-slices.
#[derive(Debug)]
pub struct ChunksMutPar<'a, T> {
    ptr: *mut T,
    len: usize,
    size: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: as for SliceMutPar — chunks are disjoint by construction.
unsafe impl<T: Send> Send for ChunksMutPar<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMutPar<'_, T> {}

impl<'a, T> ParIter for ChunksMutPar<'a, T> {
    type Item = &'a mut [T];
    fn slots(&self) -> usize {
        self.len.div_ceil(self.size)
    }
    unsafe fn fold_slots<A, F: FnMut(A, &'a mut [T]) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        for i in range {
            // SAFETY: driver folds disjoint ranges; chunks are disjoint.
            acc = f(acc, unsafe { self.index(i) });
        }
        acc
    }
}

impl<'a, T> IndexedParIter for ChunksMutPar<'a, T> {
    #[allow(clippy::mut_from_ref)] // disjoint-slot contract, see trait docs
    unsafe fn index(&self, i: usize) -> &'a mut [T] {
        let lo = i * self.size;
        assert!(lo < self.len);
        let n = self.size.min(self.len - lo);
        // SAFETY: [lo, lo+n) is in bounds and disjoint from every other
        // chunk; exclusivity per the single-consumption contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), n) }
    }
}

/// Parallel iterator consuming a `Vec<T>` by value.
///
/// Elements are moved out with `ptr::read` as slots are consumed. If the
/// vector is dropped **undriven**, all elements are dropped normally; once a
/// terminal operation starts, the elements are considered moved-out and a
/// panic mid-drive leaks the unconsumed ones (their backing buffer is still
/// freed).
#[derive(Debug)]
pub struct VecPar<T> {
    v: ManuallyDrop<Vec<T>>,
    driven: AtomicBool,
}

// SAFETY: disjoint slots are read (moved out) by at most one thread each.
unsafe impl<T: Send> Send for VecPar<T> {}
unsafe impl<T: Send> Sync for VecPar<T> {}

impl<T> ParIter for VecPar<T> {
    type Item = T;
    fn slots(&self) -> usize {
        self.v.len()
    }
    unsafe fn fold_slots<A, F: FnMut(A, T) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        f: &mut F,
    ) -> A {
        let base = self.v.as_ptr();
        for i in range {
            // SAFETY: i < len; each slot is read at most once (contract).
            acc = f(acc, unsafe { std::ptr::read(base.add(i)) });
        }
        acc
    }
    fn begin_drive(&self) {
        self.driven.store(true, Ordering::Relaxed);
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        let base = self.v.as_ptr();
        for i in range {
            // SAFETY: i < len; skipped slots are never folded/indexed, so
            // this is the one and only read of each.
            drop(unsafe { std::ptr::read(base.add(i)) });
        }
    }
}

impl<T> IndexedParIter for VecPar<T> {
    unsafe fn index(&self, i: usize) -> T {
        assert!(i < self.v.len());
        // SAFETY: bounds checked; single-consumption contract.
        unsafe { std::ptr::read(self.v.as_ptr().add(i)) }
    }
}

impl<T> Drop for VecPar<T> {
    fn drop(&mut self) {
        // SAFETY: `v` is never used again. If a drive started, the elements
        // are (possibly partially) moved out: free the buffer only.
        unsafe {
            if self.driven.load(Ordering::Relaxed) {
                let mut v = ManuallyDrop::take(&mut self.v);
                v.set_len(0);
            } else {
                ManuallyDrop::drop(&mut self.v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter.
#[derive(Clone, Debug)]
pub struct MapPar<P, F> {
    base: P,
    f: F,
}

impl<P: ParIter, B, F: Fn(P::Item) -> B + Sync> ParIter for MapPar<P, F> {
    type Item = B;
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, B) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        g: &mut G,
    ) -> A {
        // SAFETY: forwarded contract.
        unsafe {
            self.base
                .fold_slots(range, acc, &mut |a, x| g(a, (self.f)(x)))
        }
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

impl<P: IndexedParIter, B, F: Fn(P::Item) -> B + Sync> IndexedParIter for MapPar<P, F> {
    unsafe fn index(&self, i: usize) -> B {
        // SAFETY: forwarded contract.
        (self.f)(unsafe { self.base.index(i) })
    }
}

/// `enumerate` adapter (indexed bases only, like rayon).
#[derive(Clone, Debug)]
pub struct EnumeratePar<P> {
    base: P,
}

impl<P: IndexedParIter> ParIter for EnumeratePar<P> {
    type Item = (usize, P::Item);
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, (usize, P::Item)) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        g: &mut G,
    ) -> A {
        for i in range {
            // SAFETY: forwarded contract (disjoint i).
            acc = g(acc, (i, unsafe { self.base.index(i) }));
        }
        acc
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

impl<P: IndexedParIter> IndexedParIter for EnumeratePar<P> {
    unsafe fn index(&self, i: usize) -> (usize, P::Item) {
        // SAFETY: forwarded contract.
        (i, unsafe { self.base.index(i) })
    }
}

/// `filter` adapter.
#[derive(Clone, Debug)]
pub struct FilterPar<P, F> {
    base: P,
    pred: F,
}

impl<P: ParIter, F: Fn(&P::Item) -> bool + Sync> ParIter for FilterPar<P, F> {
    type Item = P::Item;
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, P::Item) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        g: &mut G,
    ) -> A {
        // SAFETY: forwarded contract.
        unsafe {
            self.base.fold_slots(range, acc, &mut |a, x| {
                if (self.pred)(&x) {
                    g(a, x)
                } else {
                    a
                }
            })
        }
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

/// `filter_map` adapter.
#[derive(Clone, Debug)]
pub struct FilterMapPar<P, F> {
    base: P,
    f: F,
}

impl<P: ParIter, B, F: Fn(P::Item) -> Option<B> + Sync> ParIter for FilterMapPar<P, F> {
    type Item = B;
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, B) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        g: &mut G,
    ) -> A {
        // SAFETY: forwarded contract.
        unsafe {
            self.base
                .fold_slots(range, acc, &mut |a, x| match (self.f)(x) {
                    Some(y) => g(a, y),
                    None => a,
                })
        }
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

/// `flat_map_iter` adapter: each item expands to a *sequential* iterator
/// consumed in place on the same thread.
#[derive(Clone, Debug)]
pub struct FlatMapIterPar<P, F> {
    base: P,
    f: F,
}

impl<P: ParIter, B: IntoIterator, F: Fn(P::Item) -> B + Sync> ParIter for FlatMapIterPar<P, F> {
    type Item = B::Item;
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, B::Item) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        g: &mut G,
    ) -> A {
        // SAFETY: forwarded contract.
        unsafe {
            self.base.fold_slots(range, acc, &mut |mut a, x| {
                for y in (self.f)(x) {
                    a = g(a, y);
                }
                a
            })
        }
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

/// `fold` adapter: every folded range yields one accumulator, built from
/// `id()` by folding the range's items in slot order (rayon's `fold`).
#[derive(Clone, Debug)]
pub struct FoldPar<P, ID, F> {
    base: P,
    id: ID,
    f: F,
}

impl<P: ParIter, T, ID: Fn() -> T + Sync, F: Fn(T, P::Item) -> T + Sync> ParIter
    for FoldPar<P, ID, F>
{
    type Item = T;
    fn slots(&self) -> usize {
        self.base.slots()
    }
    unsafe fn fold_slots<A, G: FnMut(A, T) -> A>(
        &self,
        range: Range<usize>,
        acc: A,
        g: &mut G,
    ) -> A {
        // SAFETY: forwarded contract.
        let t = unsafe {
            self.base
                .fold_slots(range, (self.id)(), &mut |t, x| (self.f)(t, x))
        };
        g(acc, t)
    }
    fn begin_drive(&self) {
        self.base.begin_drive();
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract.
        unsafe { self.base.skip_slots(range) }
    }
}

/// `zip` adapter over two indexed engines.
#[derive(Clone, Debug)]
pub struct ZipPar<P, Q> {
    a: P,
    b: Q,
}

impl<P: IndexedParIter, Q: IndexedParIter> ParIter for ZipPar<P, Q> {
    type Item = (P::Item, Q::Item);
    fn slots(&self) -> usize {
        self.a.slots().min(self.b.slots())
    }
    unsafe fn fold_slots<A, G: FnMut(A, (P::Item, Q::Item)) -> A>(
        &self,
        range: Range<usize>,
        mut acc: A,
        g: &mut G,
    ) -> A {
        for i in range {
            // SAFETY: forwarded contract (disjoint i on both sides).
            acc = g(
                acc,
                (unsafe { self.a.index(i) }, unsafe { self.b.index(i) }),
            );
        }
        acc
    }
    fn begin_drive(&self) {
        self.a.begin_drive();
        self.b.begin_drive();
        // The driver only consumes slots below the shorter side's length;
        // release the longer side's tail so by-value bases don't leak it.
        let n = self.slots();
        // SAFETY: slots ≥ n are never folded or indexed through this zip.
        unsafe {
            self.a.skip_slots(n..self.a.slots());
            self.b.skip_slots(n..self.b.slots());
        }
    }
    unsafe fn skip_slots(&self, range: Range<usize>) {
        // SAFETY: forwarded contract on both sides.
        unsafe {
            self.a.skip_slots(range.clone());
            self.b.skip_slots(range);
        }
    }
}

impl<P: IndexedParIter, Q: IndexedParIter> IndexedParIter for ZipPar<P, Q> {
    unsafe fn index(&self, i: usize) -> (P::Item, Q::Item) {
        // SAFETY: forwarded contract.
        (unsafe { self.a.index(i) }, unsafe { self.b.index(i) })
    }
}

// ---------------------------------------------------------------------------
// The public wrapper
// ---------------------------------------------------------------------------

/// A parallel iterator: a [`ParIter`] engine plus driver configuration.
#[derive(Clone, Debug)]
pub struct Par<P> {
    p: P,
    /// Explicit `with_min_len` hint; `None` means the driver's default
    /// [`CHUNK_FLOOR`] applies.
    min_len: Option<usize>,
}

/// Wrap an engine with default driver configuration.
fn par<P: ParIter>(p: P) -> Par<P> {
    Par { p, min_len: None }
}

/// A `map` that lifts items out of references (the engine of `copied`/`cloned`).
pub type DerefMapPar<'a, P, T> = MapPar<P, fn(&'a T) -> T>;

/// A write-once result slot for one chunk of a parallel drive.
struct ResultCell<A>(UnsafeCell<Option<A>>);

// SAFETY: each cell is written by exactly one batch job and read by the
// submitter only after the batch completes (Acquire on the batch latch).
unsafe impl<A: Send> Sync for ResultCell<A> {}

impl<A> ResultCell<A> {
    fn put(&self, a: A) {
        // SAFETY: single writer per cell, no concurrent reader (see Sync).
        unsafe { *self.0.get() = Some(a) };
    }
}

impl<P: ParIter> Par<P> {
    // -- adapters ----------------------------------------------------------

    /// Apply `f` to every item.
    pub fn map<B, F: Fn(P::Item) -> B + Sync + Send>(self, f: F) -> Par<MapPar<P, F>> {
        Par {
            p: MapPar { base: self.p, f },
            min_len: self.min_len,
        }
    }

    /// Keep only items satisfying `pred`.
    pub fn filter<F: Fn(&P::Item) -> bool + Sync + Send>(self, pred: F) -> Par<FilterPar<P, F>> {
        Par {
            p: FilterPar { base: self.p, pred },
            min_len: self.min_len,
        }
    }

    /// Filter and map in one pass.
    pub fn filter_map<B, F: Fn(P::Item) -> Option<B> + Sync + Send>(
        self,
        f: F,
    ) -> Par<FilterMapPar<P, F>> {
        Par {
            p: FilterMapPar { base: self.p, f },
            min_len: self.min_len,
        }
    }

    /// Map every item to a *sequential* iterable and flatten (rayon's
    /// `flat_map_iter`).
    pub fn flat_map_iter<B: IntoIterator, F: Fn(P::Item) -> B + Sync + Send>(
        self,
        f: F,
    ) -> Par<FlatMapIterPar<P, F>> {
        Par {
            p: FlatMapIterPar { base: self.p, f },
            min_len: self.min_len,
        }
    }

    /// Fold runs of items into per-run accumulators (rayon's `fold`): each
    /// chunk the driver folds yields one `T`, started from `id()`. Combine
    /// them with a terminal such as `reduce`; chunks stay in slot order.
    pub fn fold<T, ID, F>(self, id: ID, f: F) -> Par<FoldPar<P, ID, F>>
    where
        ID: Fn() -> T + Sync + Send,
        F: Fn(T, P::Item) -> T + Sync + Send,
    {
        Par {
            p: FoldPar {
                base: self.p,
                id,
                f,
            },
            min_len: self.min_len,
        }
    }

    /// Flatten nested iterables.
    #[allow(clippy::type_complexity)]
    pub fn flatten(self) -> Par<FlatMapIterPar<P, fn(P::Item) -> P::Item>>
    where
        P::Item: IntoIterator,
    {
        Par {
            p: FlatMapIterPar {
                base: self.p,
                f: std::convert::identity,
            },
            min_len: self.min_len,
        }
    }

    /// Pair every item with its slot index (indexed iterators only).
    pub fn enumerate(self) -> Par<EnumeratePar<P>>
    where
        P: IndexedParIter,
    {
        Par {
            p: EnumeratePar { base: self.p },
            min_len: self.min_len,
        }
    }

    /// Zip with another (indexed) parallel iterator.
    pub fn zip<Q: IntoParIter>(self, other: Q) -> Par<ZipPar<P, Q::Engine>>
    where
        P: IndexedParIter,
        Q::Engine: IndexedParIter,
    {
        Par {
            p: ZipPar {
                a: self.p,
                b: other.into_par_iter().p,
            },
            min_len: self.min_len,
        }
    }

    /// Copy items out of their references.
    pub fn copied<'a, T>(self) -> Par<DerefMapPar<'a, P, T>>
    where
        T: 'a + Copy,
        P: ParIter<Item = &'a T>,
    {
        fn deref_copy<T: Copy>(x: &T) -> T {
            *x
        }
        Par {
            p: MapPar {
                base: self.p,
                f: deref_copy::<T>,
            },
            min_len: self.min_len,
        }
    }

    /// Clone items out of their references.
    pub fn cloned<'a, T>(self) -> Par<DerefMapPar<'a, P, T>>
    where
        T: 'a + Clone,
        P: ParIter<Item = &'a T>,
    {
        fn deref_clone<T: Clone>(x: &T) -> T {
            x.clone()
        }
        Par {
            p: MapPar {
                base: self.p,
                f: deref_clone::<T>,
            },
            min_len: self.min_len,
        }
    }

    /// Lower bound on the driver's chunk length (rayon's splitting hint).
    ///
    /// An explicit hint *replaces* the driver's default 64-slot floor, so
    /// `with_min_len(1)` lets a pipeline over few coarse slots (e.g. a
    /// `par_chunks` histogram with one slice per thread) actually fan out
    /// instead of being mistaken for a tiny input.
    #[must_use]
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = Some(min.max(1));
        self
    }

    // -- the driver --------------------------------------------------------

    /// Fold each chunk sequentially from `id()` with `fold`; combine the
    /// per-chunk accumulators on the caller, left to right.
    fn drive<A, ID, F, C>(&self, id: ID, fold: F, combine: C) -> A
    where
        P: Sync,
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, P::Item) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        self.drive_cooperative(None, id, fold, combine)
    }

    /// [`Par::drive`], optionally with a cooperative stop flag: once `stop`
    /// is set (by `fold` observing a decisive item), chunks not yet started
    /// are skipped — their slots disposed via [`ParIter::skip_slots`] and
    /// their accumulator taken from `id()` — which is what makes `any`/`all`
    /// short-circuit at chunk granularity.
    fn drive_cooperative<A, ID, F, C>(
        &self,
        stop: Option<&AtomicBool>,
        id: ID,
        fold: F,
        combine: C,
    ) -> A
    where
        P: Sync,
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, P::Item) -> A + Sync,
        C: Fn(A, A) -> A,
    {
        let slots = self.p.slots();
        self.p.begin_drive();
        let threads = pool::effective_threads();
        let floor = self.min_len.unwrap_or(CHUNK_FLOOR);
        let chunk = floor.max(slots.div_ceil((threads * CHUNKS_PER_THREAD).max(1)));
        if threads <= 1 || slots <= chunk {
            // Sequential fallback: inline folds in slot order — the
            // deterministic schedule. With a stop flag, fold small blocks so
            // an early exit skips (and disposes of) the rest of the input.
            let mut f = |a, x| fold(a, x);
            let Some(stop) = stop else {
                // SAFETY: the single range 0..slots consumes each slot once.
                return unsafe { self.p.fold_slots(0..slots, id(), &mut f) };
            };
            let block = floor;
            let mut acc = id();
            let mut lo = 0;
            while lo < slots {
                if stop.load(Ordering::Relaxed) {
                    // SAFETY: slots ≥ lo were not and will never be folded.
                    unsafe { self.p.skip_slots(lo..slots) };
                    break;
                }
                let hi = (lo + block).min(slots);
                // SAFETY: blocks are consecutive disjoint ranges.
                acc = unsafe { self.p.fold_slots(lo..hi, acc, &mut f) };
                lo = hi;
            }
            return acc;
        }
        let n_chunks = slots.div_ceil(chunk);
        let cells: Vec<ResultCell<A>> = (0..n_chunks)
            .map(|_| ResultCell(UnsafeCell::new(None)))
            .collect();
        let engine = &self.p;
        pool::run_batch(n_chunks, |i| {
            let lo = i * chunk;
            let hi = (lo + chunk).min(slots);
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                // SAFETY: this chunk's disjoint range is never folded.
                unsafe { engine.skip_slots(lo..hi) };
                cells[i].put(id());
                return;
            }
            let mut f = |a, x| fold(a, x);
            // SAFETY: batch jobs fold pairwise-disjoint ranges, each once.
            let a = unsafe { engine.fold_slots(lo..hi, id(), &mut f) };
            cells[i].put(a);
        });
        let mut accs = cells
            .into_iter()
            .map(|c| c.0.into_inner().expect("chunk produced no result"));
        let first = accs.next().expect("at least one chunk");
        accs.fold(first, combine)
    }

    // -- terminals ---------------------------------------------------------

    /// Run `f` on every item.
    pub fn for_each<F: Fn(P::Item) + Sync + Send>(self, f: F)
    where
        P: Sync,
    {
        self.drive(|| (), |(), x| f(x), |(), ()| ());
    }

    /// Collect into any [`FromIterator`] collection, in slot order.
    pub fn collect<C: FromIterator<P::Item>>(self) -> C
    where
        P: Sync,
        P::Item: Send,
    {
        let parts: Vec<P::Item> = self.drive(
            Vec::new,
            |mut v, x| {
                v.push(x);
                v
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        parts.into_iter().collect()
    }

    /// Number of items.
    pub fn count(self) -> usize
    where
        P: Sync,
    {
        self.drive(|| 0usize, |c, _| c + 1, |a, b| a + b)
    }

    /// Sum of the items (rayon bounds: `S` must absorb items and itself).
    pub fn sum<S>(self) -> S
    where
        P: Sync,
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        self.drive(
            || std::iter::empty::<P::Item>().sum(),
            |acc: S, x| [acc, std::iter::once(x).sum()].into_iter().sum(),
            |a, b| [a, b].into_iter().sum(),
        )
    }

    /// Maximum item, if any.
    pub fn max(self) -> Option<P::Item>
    where
        P: Sync,
        P::Item: Ord + Send,
    {
        self.drive(
            || None,
            |m: Option<P::Item>, x| {
                Some(match m {
                    Some(m) => m.max(x),
                    None => x,
                })
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        )
    }

    /// Minimum item, if any.
    pub fn min(self) -> Option<P::Item>
    where
        P: Sync,
        P::Item: Ord + Send,
    {
        self.drive(
            || None,
            |m: Option<P::Item>, x| {
                Some(match m {
                    Some(m) => m.min(x),
                    None => x,
                })
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        )
    }

    /// Whether any item satisfies `pred`. Short-circuits cooperatively: a
    /// hit sets a shared flag, running chunks stop applying `pred`, and
    /// chunks not yet started are skipped outright.
    pub fn any<F: Fn(P::Item) -> bool + Sync + Send>(self, pred: F) -> bool
    where
        P: Sync,
    {
        let stop = AtomicBool::new(false);
        self.drive_cooperative(
            Some(&stop),
            || false,
            |found, x| {
                if found || stop.load(Ordering::Relaxed) {
                    found
                } else if pred(x) {
                    stop.store(true, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            },
            |a, b| a || b,
        )
    }

    /// Whether all items satisfy `pred`.
    pub fn all<F: Fn(P::Item) -> bool + Sync + Send>(self, pred: F) -> bool
    where
        P: Sync,
    {
        !self.any(move |x| !pred(x))
    }

    /// Rayon's reduce: fold from `identity()` with the associative `op`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        P: Sync,
        P::Item: Send,
        ID: Fn() -> P::Item + Sync + Send,
        OP: Fn(P::Item, P::Item) -> P::Item + Sync + Send,
    {
        self.drive(&identity, &op, &op)
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Conversion into a [`Par`] iterator (rayon's `IntoParallelIterator`).
pub trait IntoParIter {
    /// The engine driving the resulting iterator.
    type Engine: ParIter;
    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Par<Self::Engine>;
}

impl<P: ParIter> IntoParIter for Par<P> {
    type Engine = P;
    fn into_par_iter(self) -> Par<P> {
        self
    }
}

impl<T: RangeItem> IntoParIter for Range<T> {
    type Engine = RangePar<T>;
    fn into_par_iter(self) -> Par<RangePar<T>> {
        let len = self.start.delta(self.end);
        par(RangePar {
            start: self.start,
            len,
        })
    }
}

impl<T> IntoParIter for Vec<T> {
    type Engine = VecPar<T>;
    fn into_par_iter(self) -> Par<VecPar<T>> {
        par(VecPar {
            v: ManuallyDrop::new(self),
            driven: AtomicBool::new(false),
        })
    }
}

impl<'a, T> IntoParIter for &'a [T] {
    type Engine = SlicePar<'a, T>;
    fn into_par_iter(self) -> Par<SlicePar<'a, T>> {
        par(SlicePar { s: self })
    }
}

impl<'a, T> IntoParIter for &'a Vec<T> {
    type Engine = SlicePar<'a, T>;
    fn into_par_iter(self) -> Par<SlicePar<'a, T>> {
        par(SlicePar { s: self })
    }
}

/// `par_iter` / `par_iter_mut` / `par_chunks*` / `par_sort_*` on slices
/// (rayon's `IntoParallelRefIterator` + `ParallelSlice` families).
pub trait ParSlice<T> {
    /// Iterate over `&T` items.
    fn par_iter(&self) -> Par<SlicePar<'_, T>>;
    /// Iterate over `&mut T` items.
    fn par_iter_mut(&mut self) -> Par<SliceMutPar<'_, T>>;
    /// Iterate over non-overlapping sub-slices of length `n` (last may be
    /// short). `n` must be non-zero.
    fn par_chunks(&self, n: usize) -> Par<ChunksPar<'_, T>>;
    /// Iterate over non-overlapping mutable sub-slices of length `n`.
    fn par_chunks_mut(&mut self, n: usize) -> Par<ChunksMutPar<'_, T>>;
    /// Parallel unstable in-place sort.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Copy + Send + Sync;
    /// Parallel unstable in-place sort by key.
    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F)
    where
        T: Copy + Send + Sync;
}

impl<T> ParSlice<T> for [T] {
    fn par_iter(&self) -> Par<SlicePar<'_, T>> {
        par(SlicePar { s: self })
    }
    fn par_iter_mut(&mut self) -> Par<SliceMutPar<'_, T>> {
        par(SliceMutPar {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: PhantomData,
        })
    }
    fn par_chunks(&self, n: usize) -> Par<ChunksPar<'_, T>> {
        assert!(n > 0, "chunk size must be non-zero");
        par(ChunksPar { s: self, size: n })
    }
    fn par_chunks_mut(&mut self, n: usize) -> Par<ChunksMutPar<'_, T>> {
        assert!(n > 0, "chunk size must be non-zero");
        par(ChunksMutPar {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            size: n,
            _marker: PhantomData,
        })
    }
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Copy + Send + Sync,
    {
        crate::sort::par_sort_unstable_by(self, &T::cmp);
    }
    fn par_sort_unstable_by_key<K: Ord, F: Fn(&T) -> K + Sync>(&mut self, key: F)
    where
        T: Copy + Send + Sync,
    {
        crate::sort::par_sort_unstable_by(self, &|a: &T, b: &T| key(a).cmp(&key(b)));
    }
}
