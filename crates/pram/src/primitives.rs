//! Classical PRAM building blocks with the paper's depth charges.
//!
//! | primitive | paper source | paper cost | realization here |
//! |---|---|---|---|
//! | approximate compaction | Lemma 4.2 `[Goo91]` | `O(log* n)` time, `O(n)` work | `retain`: per-chunk in-place compaction + ordered slide; `compact*`: chunk-count + disjoint scatter |
//! | padded sort | Lemma 7.9 `[HR92]` | `O(log log m)` time, `O(m)` work | parallel comparison merge sort on packed `u64` words ([`crate::sort`]) |
//! | perfect-hash dedup | `[GMV91]` | `O(log* n)` time, `O(m)` work | canonicalize + sort + adjacent-dedup |
//! | prefix sum | `[BH89]` lower bound | `Θ(log n / log log n)` | blocked two-pass scan, charged `log n` |
//!
//! Each function charges the *paper's* cost to the tracker (see DESIGN.md §3:
//! identical output contracts, depth charged at the paper's rate), so measured
//! depth curves are comparable to the theory even where the multicore
//! realization differs from the PRAM-optimal circuit.
//!
//! ## Why the padded sort is charged at the paper's rate
//!
//! The paper's padded sort (Lemma 7.9) is a *cost model statement*: packed
//! integer keys sort in `O(log log m)` CRCW depth at linear work. The
//! machine sort that realizes it here, the rayon shim's comparison merge
//! sort, is an implementation detail *below* the model: it produces the
//! one ascending permutation of the `u64` multiset, so [`padded_sort`]
//! charges `(m, ⌈log log m⌉)` and measured depth curves stay
//! theory-comparable whatever the sort's wall time.
//!
//! ## Allocation discipline
//!
//! The hot-path variants (`*_into`, `*_with`) write into caller-provided
//! buffers and draw scratch from a [`SolverArena`], and [`retain`]
//! compacts in place, so repeat passes — the paper's per-phase re-sorts,
//! the LTZ engine's per-round compactions — perform **zero heap
//! allocations** once warm. With one effective thread every pass folds
//! inline on the caller (no scheduler bookkeeping); with more, only the
//! pool's per-batch bookkeeping allocates, never `O(n)` data.

use crate::arena::SolverArena;
use crate::cost::{ceil_log2, ceil_loglog, log_star, CostTracker};
use crate::edge::{edge_words_mut, Edge};
use crate::rng::Stream;
use crate::sort;
use rayon::prelude::*;

/// Below this length the scatter helpers run sequentially.
const SEQ_SCATTER: usize = 4096;

/// Exclusive prefix sum; returns the scanned array and the grand total.
/// Charges `(n, ceil(log2 n))`.
#[must_use]
pub fn prefix_sum(xs: &[u64], tracker: &CostTracker) -> (Vec<u64>, u64) {
    let n = xs.len();
    tracker.charge(n as u64, ceil_log2(n as u64));
    if n == 0 {
        return (Vec::new(), 0);
    }
    let chunk = (n / rayon::current_num_threads().max(1)).max(1024);
    let mut block_sums: Vec<u64> = xs
        .par_chunks(chunk)
        .with_min_len(1)
        .map(|c| c.iter().sum())
        .collect();
    let mut acc = 0u64;
    for s in &mut block_sums {
        let t = *s;
        *s = acc;
        acc += t;
    }
    let total = acc;
    let mut out = vec![0u64; n];
    out.par_chunks_mut(chunk)
        .with_min_len(1)
        .zip(xs.par_chunks(chunk))
        .zip(block_sums.par_iter())
        .for_each(|((o, x), &base)| {
            let mut run = base;
            for (oi, &xi) in o.iter_mut().zip(x) {
                *oi = run;
                run += xi;
            }
        });
    (out, total)
}

/// Shared output pointer for the disjoint parallel scatter of
/// [`scatter_filter_into`]'s write pass. Chunks write pairwise-disjoint
/// index ranges.
#[derive(Clone, Copy)]
pub(crate) struct SharedOut<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for SharedOut<T> {}
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    /// # Safety
    /// `i` must be inside the allocated capacity, and each index written
    /// by exactly one thread per pass.
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, v: T) {
        unsafe { self.0.add(i).write(v) };
    }
}

/// Order-preserving parallel filter into a reused buffer: `out` receives
/// `emit(0), emit(1), …` for the indices where `emit` is `Some`, in index
/// order. Two-pass (per-chunk survivor counts, then a disjoint scatter at
/// prefix offsets); sequential single-pass below [`SEQ_SCATTER`] or at one
/// effective thread. `emit` must be pure — the parallel path evaluates it
/// twice per index.
fn scatter_filter_into<U: Copy + Send + Sync>(
    len: usize,
    emit: impl Fn(usize) -> Option<U> + Sync,
    out: &mut Vec<U>,
) {
    out.clear();
    let threads = rayon::current_num_threads().max(1);
    if threads <= 1 || len < SEQ_SCATTER {
        for i in 0..len {
            if let Some(x) = emit(i) {
                out.push(x);
            }
        }
        return;
    }
    let n_chunks = (threads * 2).min(len.div_ceil(SEQ_SCATTER)).max(1);
    let chunk = len.div_ceil(n_chunks);
    let n_chunks = len.div_ceil(chunk);
    let mut offsets: Vec<usize> = (0..n_chunks)
        .into_par_iter()
        .with_min_len(1)
        .map(|c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            (lo..hi).filter(|&i| emit(i).is_some()).count()
        })
        .collect();
    let mut total = 0usize;
    for o in &mut offsets {
        let t = *o;
        *o = total;
        total += t;
    }
    out.reserve(total);
    let ptr = SharedOut(out.as_mut_ptr());
    let offsets = &offsets;
    (0..n_chunks).into_par_iter().with_min_len(1).for_each(|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        let mut w = offsets[c];
        for i in lo..hi {
            if let Some(x) = emit(i) {
                // SAFETY: chunks write the disjoint ranges
                // [offsets[c], offsets[c] + count_c) inside the reserved
                // capacity; every slot below `total` is written exactly once.
                unsafe { ptr.write(w, x) };
                w += 1;
            }
        }
    });
    // SAFETY: all `total` slots were initialized by the scatter above.
    unsafe { out.set_len(total) };
}

/// Approximate compaction (paper Lemma 4.2): keep the items satisfying `keep`,
/// packed into a fresh dense array. Charges `(n, log* n)` — the `[Goo91]`
/// rate the paper assumes. `keep` must be pure: the two-pass parallel path
/// evaluates it twice per item.
#[must_use]
pub fn compact<T: Copy + Send + Sync>(
    items: &[T],
    keep: impl Fn(&T) -> bool + Sync,
    tracker: &CostTracker,
) -> Vec<T> {
    let mut out = Vec::new();
    compact_into(items, keep, &mut out, tracker);
    out
}

/// [`compact`] into a caller-owned buffer (cleared first): allocation-free
/// when `out`'s capacity already fits the survivors. Charges `(n, log* n)`.
pub fn compact_into<T: Copy + Send + Sync>(
    items: &[T],
    keep: impl Fn(&T) -> bool + Sync,
    out: &mut Vec<T>,
    tracker: &CostTracker,
) {
    tracker.charge(items.len() as u64, log_star(items.len() as u64));
    scatter_filter_into(items.len(), |i| keep(&items[i]).then_some(items[i]), out);
}

/// In-place variant of [`compact`] for the ubiquitous "delete edges where ..."
/// steps. Charges `(n, log* n)`. Evaluates `keep` exactly once per item and
/// allocates no data buffer at any thread count: with one effective thread
/// it compacts with two cursors; with more, each chunk compacts itself in
/// parallel and the chunks' survivors then slide down in order.
pub fn retain<T: Copy + Send + Sync>(
    items: &mut Vec<T>,
    keep: impl Fn(&T) -> bool + Sync,
    tracker: &CostTracker,
) {
    tracker.charge(items.len() as u64, log_star(items.len() as u64));
    let len = items.len();
    let threads = rayon::current_num_threads().max(1);
    if threads <= 1 || len < SEQ_SCATTER {
        let w = compact_slice(items, &keep);
        items.truncate(w);
        return;
    }
    let n_chunks = (threads * 2).min(len.div_ceil(SEQ_SCATTER));
    let chunk = len.div_ceil(n_chunks);
    let kept: Vec<usize> = items
        .par_chunks_mut(chunk)
        .with_min_len(1)
        .map(|c| compact_slice(c, &keep))
        .collect();
    let mut w = 0;
    for (c, &k) in kept.iter().enumerate() {
        items.copy_within(c * chunk..c * chunk + k, w);
        w += k;
    }
    items.truncate(w);
}

/// Sequential order-preserving in-place compaction of a slice: moves the
/// items satisfying `keep` to its front and returns their count.
fn compact_slice<T: Copy>(items: &mut [T], keep: impl Fn(&T) -> bool) -> usize {
    let mut w = 0;
    for r in 0..items.len() {
        let x = items[r];
        if keep(&x) {
            items[w] = x;
            w += 1;
        }
    }
    w
}

/// Compact with transformation: map each kept item. Charges `(n, log* n)`.
#[must_use]
pub fn compact_map<T: Copy + Send + Sync, U: Copy + Send + Sync>(
    items: &[T],
    f: impl Fn(&T) -> Option<U> + Sync,
    tracker: &CostTracker,
) -> Vec<U> {
    let mut out = Vec::new();
    compact_map_into(items, f, &mut out, tracker);
    out
}

/// [`compact_map`] into a caller-owned buffer (cleared first). Charges
/// `(n, log* n)`. `f` must be pure — the parallel path evaluates it twice
/// per index.
pub fn compact_map_into<T: Copy + Send + Sync, U: Copy + Send + Sync>(
    items: &[T],
    f: impl Fn(&T) -> Option<U> + Sync,
    out: &mut Vec<U>,
    tracker: &CostTracker,
) {
    tracker.charge(items.len() as u64, log_star(items.len() as u64));
    scatter_filter_into(items.len(), |i| f(&items[i]), out);
}

/// Padded sort of packed edges by `(u, v)` (paper Lemma 7.9 `[HR92]`).
/// Charges `(n, ceil(log log n))`, the paper's rate, whatever the machine
/// sort costs (see the module docs). Sorts in place at one thread.
pub fn padded_sort(edges: &mut [Edge], tracker: &CostTracker) {
    tracker.charge(edges.len() as u64, ceil_loglog(edges.len() as u64));
    sort::sort_u64(edge_words_mut(edges));
}

/// Is `edges` already canonically oriented (`u ≤ v`) and sorted? A cheap
/// parallel scan (not charged: fused into the compaction charge of the
/// caller) that lets repeat [`simplify_edges`] passes — REMAIN, the phase
/// retries — skip the re-sort entirely.
fn is_canonical_sorted(edges: &[Edge]) -> bool {
    (0..edges.len()).into_par_iter().all(|i| {
        let e = edges[i];
        e.u() <= e.v() && (i == 0 || edges[i - 1] <= e)
    })
}

/// Remove loops and/or parallel edges from an undirected multigraph edge set,
/// via PRAM perfect hashing in the paper (`[GMV91]`), via canonicalize + sort +
/// adjacent-dedup here. Charges `(n, log* n + log log n)`.
#[must_use]
pub fn simplify_edges(edges: &[Edge], drop_loops: bool, tracker: &CostTracker) -> Vec<Edge> {
    let mut arena = SolverArena::new();
    let mut out = Vec::new();
    simplify_edges_into(edges, drop_loops, &mut out, &mut arena, tracker);
    out
}

/// [`simplify_edges`] drawing scratch from `arena`; the output buffer is an
/// arena checkout the caller may hand back with `give_edges` when done.
#[must_use]
pub fn simplify_edges_with(
    edges: &[Edge],
    drop_loops: bool,
    arena: &mut SolverArena,
    tracker: &CostTracker,
) -> Vec<Edge> {
    let mut out = arena.take_edges();
    simplify_edges_into(edges, drop_loops, &mut out, arena, tracker);
    out
}

/// [`simplify_edges`] into a caller-owned buffer with arena scratch:
/// allocation-free once warm. Charges the same `(n, log* n + log log n)`
/// as the generic path whether or not the already-sorted short-circuit
/// fires, so depth curves are independent of the input's incidental order.
pub fn simplify_edges_into(
    edges: &[Edge],
    drop_loops: bool,
    out: &mut Vec<Edge>,
    arena: &mut SolverArena,
    tracker: &CostTracker,
) {
    let n = edges.len() as u64;
    if is_canonical_sorted(edges) {
        // Already canonical and sorted (repeat passes over REMAIN/retry
        // sets): duplicates are adjacent — dedup straight off the input.
        // Charge exactly what the generic path would have: its sort and
        // dedup run after the loop-dropping compaction, so they are
        // charged at the post-drop length.
        let post_drop = if drop_loops {
            n - edges.par_iter().filter(|e| e.is_loop()).count() as u64
        } else {
            n
        };
        tracker.charge(n, log_star(n));
        tracker.charge(post_drop, ceil_loglog(post_drop));
        tracker.charge(post_drop, 1);
        scatter_filter_into(
            edges.len(),
            |i| {
                let e = edges[i];
                if (drop_loops && e.is_loop()) || (i > 0 && edges[i - 1] == e) {
                    None
                } else {
                    Some(e)
                }
            },
            out,
        );
        return;
    }
    let mut canon = arena.take_edges();
    compact_map_into(
        edges,
        |e| {
            if drop_loops && e.is_loop() {
                None
            } else {
                Some(e.canonical())
            }
        },
        &mut canon,
        tracker,
    );
    padded_sort(&mut canon, tracker);
    tracker.charge(canon.len() as u64, 1);
    let canon_ref: &[Edge] = &canon;
    scatter_filter_into(
        canon_ref.len(),
        |i| {
            if i == 0 || canon_ref[i] != canon_ref[i - 1] {
                Some(canon_ref[i])
            } else {
                None
            }
        },
        out,
    );
    arena.give_edges(canon);
}

/// Keep each edge independently with probability `p` (the paper's random edge
/// sampling). Decisions are a pure function of `(stream, index)`, so the same
/// stream always selects the same subgraph. Charges `(n, 1)` plus compaction.
#[must_use]
pub fn sample_edges(edges: &[Edge], p: f64, stream: Stream, tracker: &CostTracker) -> Vec<Edge> {
    tracker.charge(edges.len() as u64, 1);
    tracker.charge(edges.len() as u64, log_star(edges.len() as u64));
    let mut out = Vec::new();
    scatter_filter_into(
        edges.len(),
        |i| stream.coin(i as u64, p).then_some(edges[i]),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> CostTracker {
        CostTracker::new()
    }

    #[test]
    fn prefix_sum_basic() {
        let (scan, total) = prefix_sum(&[1, 2, 3, 4], &t());
        assert_eq!(scan, vec![0, 1, 3, 6]);
        assert_eq!(total, 10);
    }

    #[test]
    fn prefix_sum_empty() {
        let (scan, total) = prefix_sum(&[], &t());
        assert!(scan.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn prefix_sum_large_matches_sequential() {
        let xs: Vec<u64> = (0..50_000).map(|i| (i * 7 + 3) % 11).collect();
        let (scan, total) = prefix_sum(&xs, &t());
        let mut acc = 0;
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(scan[i], acc);
            acc += x;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn compact_keeps_order_of_survivors() {
        let v = vec![1, 2, 3, 4, 5, 6];
        let out = compact(&v, |&x| x % 2 == 0, &t());
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn compact_keeps_order_above_scatter_cutoff() {
        let v: Vec<u32> = (0..100_000).collect();
        let out = compact(&v, |&x| x % 7 == 0, &t());
        let expect: Vec<u32> = (0..100_000).filter(|&x| x % 7 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn retain_in_place_and_parallel_agree() {
        let mut v = vec![1, 2, 3, 4];
        retain(&mut v, |&x| x > 2, &t());
        assert_eq!(v, vec![3, 4]);
        let mut big: Vec<u32> = (0..50_000).collect();
        retain(&mut big, |&x| x % 3 == 1, &t());
        let expect: Vec<u32> = (0..50_000).filter(|&x| x % 3 == 1).collect();
        assert_eq!(big, expect);
    }

    #[test]
    fn retain_matches_vec_retain_with_one_keep_per_item_at_any_thread_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = Stream::new(17, 3);
        for case in 0..16u64 {
            // Lengths above the sequential cutoff; keep rates from none to
            // all, so empty and full chunks both occur.
            let len = SEQ_SCATTER + 1 + s.below(2 * case, 50_000) as usize;
            let keep_pct = match case {
                0 => 0,
                1 => 100,
                _ => s.below(2 * case + 1, 101),
            };
            let items: Vec<u64> = (0..len as u64).map(|i| s.hash(case << 32 | i)).collect();
            let keep = |x: &u64| x % 100 < keep_pct;
            let mut expect = items.clone();
            expect.retain(keep);
            for k in [1, 2, 8] {
                let calls = AtomicUsize::new(0);
                let mut got = items.clone();
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(k)
                    .build()
                    .expect("pool");
                pool.install(|| {
                    retain(
                        &mut got,
                        |x| {
                            calls.fetch_add(1, Ordering::Relaxed);
                            keep(x)
                        },
                        &t(),
                    );
                });
                assert_eq!(got, expect, "case {case} (len {len}) at {k} threads");
                assert_eq!(
                    calls.into_inner(),
                    len,
                    "keep calls, case {case} at {k} threads"
                );
            }
        }
    }

    #[test]
    fn compact_map_transforms() {
        let v = vec![1u32, 2, 3];
        let out = compact_map(&v, |&x| (x != 2).then_some(x * 10), &t());
        assert_eq!(out, vec![10, 30]);
    }

    #[test]
    fn padded_sort_sorts() {
        let mut e = vec![Edge::new(3, 1), Edge::new(1, 2), Edge::new(1, 1)];
        padded_sort(&mut e, &t());
        assert_eq!(e, vec![Edge::new(1, 1), Edge::new(1, 2), Edge::new(3, 1)]);
    }

    #[test]
    fn padded_sort_large_matches_edge_order() {
        let s = Stream::new(5, 5);
        let mut a: Vec<Edge> = (0..60_000)
            .map(|i| Edge::new(s.hash(i) as u32 % 5000, s.hash(i + 1) as u32 % 5000))
            .collect();
        let mut b = a.clone();
        padded_sort(&mut a, &t()); // sorts the packed words
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn simplify_removes_parallel_and_loops() {
        let e = vec![
            Edge::new(1, 2),
            Edge::new(2, 1),
            Edge::new(1, 2),
            Edge::new(3, 3),
            Edge::new(2, 3),
        ];
        let s = simplify_edges(&e, true, &t());
        assert_eq!(s, vec![Edge::new(1, 2), Edge::new(2, 3)]);
    }

    #[test]
    fn simplify_can_keep_loops() {
        let e = vec![Edge::new(3, 3), Edge::new(3, 3), Edge::new(1, 2)];
        let s = simplify_edges(&e, false, &t());
        assert_eq!(s, vec![Edge::new(1, 2), Edge::new(3, 3)]);
    }

    #[test]
    fn simplify_short_circuit_matches_generic_path() {
        // A canonical-sorted input (the short-circuit) must produce exactly
        // what the generic canonicalize+sort path produces on a shuffle.
        let mut sorted: Vec<Edge> = Vec::new();
        for u in 0..200u32 {
            sorted.push(Edge::new(u, u)); // loops
            sorted.push(Edge::new(u, u + 1));
            sorted.push(Edge::new(u, u + 1)); // parallel
            sorted.push(Edge::new(u, u + 3));
        }
        let mut shuffled = sorted.clone();
        let s = Stream::new(9, 9);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, s.below(i as u64, (i + 1) as u64) as usize);
        }
        for drop_loops in [true, false] {
            let fast = simplify_edges(&sorted, drop_loops, &t());
            let slow = simplify_edges(&shuffled, drop_loops, &t());
            assert_eq!(fast, slow, "drop_loops={drop_loops}");
        }
    }

    #[test]
    fn simplify_charges_identically_on_both_paths() {
        let sorted: Vec<Edge> = (0..5000u32).map(|u| Edge::new(u, u + 1)).collect();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let t1 = t();
        let _ = simplify_edges(&sorted, true, &t1);
        let t2 = t();
        let _ = simplify_edges(&reversed, true, &t2);
        assert_eq!(
            t1.snapshot(),
            t2.snapshot(),
            "fast path must charge the paper rate"
        );
    }

    #[test]
    fn sample_edges_rate() {
        let edges: Vec<Edge> = (0..100_000u32).map(|i| Edge::new(i, i + 1)).collect();
        let s = Stream::new(11, 0);
        let kept = sample_edges(&edges, 0.3, s, &t());
        let frac = kept.len() as f64 / edges.len() as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac={frac}");
        // Deterministic given the stream.
        let kept2 = sample_edges(&edges, 0.3, s, &t());
        assert_eq!(kept, kept2);
    }

    #[test]
    fn costs_charged() {
        let tr = t();
        let v = vec![1u32; 1000];
        let _ = compact(&v, |_| true, &tr);
        assert_eq!(tr.work(), 1000);
        assert!(tr.depth() > 0);
    }
}
