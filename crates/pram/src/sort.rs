//! The integer-sort backbone: parallel LSD radix sort for packed `u64` keys.
//!
//! Edges are packed as `u << 32 | v` words precisely so they "sort as
//! integers" (see [`crate::edge`]); this module finally exploits that. The
//! radix path is a least-significant-digit counting sort — per-chunk digit
//! histograms, a bucket-major exclusive prefix sum, and a disjoint scatter
//! per pass — with three practical twists that make it beat a tuned
//! comparison sort on real edge sets:
//!
//! * **Mask-planned digits**: one cheap pass computes the OR of
//!   `key XOR key₀` — the set of bits that *vary at all*. Digits are then
//!   balanced windows of ≤ [`MAX_DIGIT_BITS`] bits tiled over the varying
//!   bits only, and a digit may combine **two** windows (the high bits of
//!   `v` with the low bits of `u`), skipping the constant gap between the
//!   packed endpoints. A graph with `n ≪ 2³²` vertices has two short
//!   varying runs, so a 1M-vertex edge set sorts in **three** balanced
//!   scatter passes, not eight byte passes.
//! * **Presorted short-circuit**: the same scan detects an
//!   already-ascending input (REMAIN sets, generator output) and returns
//!   without sorting — the same trick pattern-defeating `pdqsort` uses.
//! * **Arena scratch**: the ping-pong buffer and histogram rows come from
//!   a [`SolverArena`], so repeat sorts (every phase of the paper's
//!   pipeline re-sorts its edge set) allocate nothing once warm. With one
//!   effective thread the histograms for *all* planned digits are built
//!   in a single pass and reused as the scatter cursors — the sequential
//!   schedule reads the input once per scatter plus once total for
//!   counting.
//!
//! * **Software write-combining scatter**: when a pass fans out to
//!   [`WC_MIN_BUCKETS`] buckets or more, keys are staged into per-bucket
//!   cache-line buffers (8 keys = 64 bytes) and flushed to the destination
//!   in full-line bursts. The random-access working set shrinks from the
//!   whole destination array to the compact staging block, so the scatter
//!   stops being memory-starved on wide passes. Stability is preserved
//!   (lines flush FIFO) and the staging block comes from the arena too.
//!
//! Below [`RADIX_SEQ_CUTOFF`] the radix backend falls back to a plain
//! sequential `sort_unstable` — planning costs more than it saves on tiny
//! inputs.
//!
//! **Tuning**: the digit-width cap, the per-chunk floor, and the
//! write-combining switch are fixed constants ([`SortTuning::default`]).
//! [`radix_sort_u64_tuned`] takes them explicitly so tests can force
//! multi-chunk and narrow-digit plans on small inputs.
//!
//! **Backend selection**: `PARCC_SORT=radix|cmp` picks the backend at
//! process start (radix is the default); [`set_backend_override`] lets
//! tests and benches flip it at runtime. The `cmp` backend is the rayon
//! shim's parallel comparison merge sort — kept both as the correctness
//! oracle for the radix path and as the A/B lever for the E16 experiment.
//!
//! The *depth charge* of the callers is unaffected: `padded_sort` charges
//! the paper's `O(log log m)` padded-sort rate (Lemma 7.9 `[HR92]`)
//! whichever backend executes — see `primitives.rs` for why this keeps
//! measured depth curves theory-comparable.

use crate::arena::SolverArena;
use crate::primitives::SharedOut;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which machine sort realizes the padded-sort primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortBackend {
    /// Parallel LSD radix sort on the packed `u64` words (the default).
    Radix,
    /// Parallel comparison merge sort (`par_sort_unstable`).
    Cmp,
}

/// Below this length the radix backend uses a sequential `sort_unstable`.
pub const RADIX_SEQ_CUTOFF: usize = 2048;

/// Widest digit (bucket count `2^13`): beyond this the scatter's write
/// streams stop fitting the cache hierarchy and per-pass cost climbs —
/// measured on packed edge keys, 11–13 bits is the plateau.
const MAX_DIGIT_BITS: u32 = 13;
/// Narrowest digit worth planning.
const MIN_DIGIT_BITS: u32 = 8;
/// Smallest per-chunk slice worth a dedicated histogram pass.
const MIN_CHUNK: usize = 1 << 15;
/// Upper bound on planned passes (worst case: ⌈64 / MIN_DIGIT_BITS⌉).
const MAX_DIGITS: usize = 16;
/// Keys per write-combining staging line (8 × u64 = one 64-byte line).
const WC_LINE: usize = 8;
/// Narrowest fan-out worth write-combining: below this the destination
/// runs are long enough that plain streaming writes already combine in
/// the store buffers.
pub const WC_MIN_BUCKETS: usize = 64;

/// Radix knobs. The defaults are the measured constants every
/// [`radix_sort_u64`] call uses; other values reach the sort only through
/// [`radix_sort_u64_tuned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortTuning {
    /// Digit-width cap in bits (clamped to `8..=16` at use).
    pub max_digit_bits: u32,
    /// Smallest per-chunk slice worth a dedicated histogram pass
    /// (clamped to ≥ 1024 at use).
    pub min_chunk: usize,
    /// Whether wide scatters stage through write-combining lines.
    pub write_combine: bool,
}

impl Default for SortTuning {
    fn default() -> Self {
        SortTuning {
            max_digit_bits: MAX_DIGIT_BITS,
            min_chunk: MIN_CHUNK,
            write_combine: true,
        }
    }
}

impl SortTuning {
    fn clamped(self) -> Self {
        SortTuning {
            max_digit_bits: self.max_digit_bits.clamp(MIN_DIGIT_BITS, 16),
            min_chunk: self.min_chunk.max(1024),
            write_combine: self.write_combine,
        }
    }
}

/// Runtime override: 0 = none (env/default), 1 = radix, 2 = cmp.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENV_BACKEND: OnceLock<SortBackend> = OnceLock::new();

/// The backend in effect: the [`set_backend_override`] value if any, else
/// the `PARCC_SORT` environment variable (read once), else radix.
#[must_use]
pub fn backend() -> SortBackend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => SortBackend::Radix,
        2 => SortBackend::Cmp,
        _ => *ENV_BACKEND.get_or_init(|| match std::env::var("PARCC_SORT").as_deref() {
            Ok(s) if s.eq_ignore_ascii_case("cmp") => SortBackend::Cmp,
            _ => SortBackend::Radix,
        }),
    }
}

/// Force a backend for this process (tests/benches A/B the two paths
/// without re-execing); `None` restores env/default selection.
pub fn set_backend_override(b: Option<SortBackend>) {
    OVERRIDE.store(
        match b {
            None => 0,
            Some(SortBackend::Radix) => 1,
            Some(SortBackend::Cmp) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Sort raw `u64` keys ascending with the selected backend (temporary
/// scratch). Prefer [`sort_u64_with`] on hot paths.
pub fn sort_u64(keys: &mut [u64]) {
    let mut arena = SolverArena::new();
    sort_u64_with(keys, &mut arena);
}

/// Sort raw `u64` keys ascending with the selected backend, drawing
/// scratch from `arena` (allocation-free once the arena is warm).
pub fn sort_u64_with(keys: &mut [u64], arena: &mut SolverArena) {
    match backend() {
        SortBackend::Cmp => keys.par_sort_unstable(),
        SortBackend::Radix => radix_sort_u64(keys, arena),
    }
}

/// Hint the cache that `dst[i]` is about to be written. The scatter's
/// writes are the radix sort's only non-streaming accesses; prefetching
/// the destination line a few keys ahead hides most of the miss latency.
#[inline]
fn prefetch_write(dst: *const u64, i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; any address is allowed.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            dst.add(i).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (dst, i);
    }
}

/// How many keys ahead the scatter prefetches its destination.
const LOOKAHEAD: usize = 16;

/// View an arena `u64` buffer as `u32` counters (half the cache
/// footprint of the histogram/cursor rows — they are the scatter's hot
/// random-access working set). Sound: alignment of `u32` divides `u64`'s
/// and any bit pattern is a valid `u32`.
fn as_u32_counters(words: &mut [u64]) -> &mut [u32] {
    // SAFETY: see above; the length doubles exactly.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), words.len() * 2) }
}

/// One planned scatter pass: a digit is one or two contiguous bit
/// windows of the key, packed least-significant window first:
/// `bucket = ((k >> shift1) & mask1) | (((k >> shift2) & mask2) << lift2)`.
///
/// Two windows let a digit straddle the constant-zero gap between the
/// packed endpoints of an edge word — e.g. the high bits of `v` and the
/// low bits of `u` form one pass — so the pass count is
/// `⌈varying bits / digit width⌉` with no rounding loss per endpoint.
#[derive(Debug, Clone, Copy, Default)]
struct Digit {
    shift1: u32,
    mask1: u64,
    shift2: u32,
    mask2: u64,
    lift2: u32,
    width: u32,
}

fn ones(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

impl Digit {
    fn single(shift: u32, width: u32) -> Self {
        Digit {
            shift1: shift,
            mask1: ones(width),
            shift2: 0,
            mask2: 0,
            lift2: 0,
            width,
        }
    }
    fn pair(w1: (u32, u32), w2: (u32, u32)) -> Self {
        Digit {
            shift1: w1.0,
            mask1: ones(w1.1),
            shift2: w2.0,
            mask2: ones(w2.1),
            lift2: w1.1,
            width: w1.1 + w2.1,
        }
    }
    #[inline]
    fn bucket(self, key: u64) -> usize {
        (((key >> self.shift1) & self.mask1) | (((key >> self.shift2) & self.mask2) << self.lift2))
            as usize
    }
    fn buckets(self) -> usize {
        1usize << self.width
    }
}

/// Plan the scatter passes for `mask` (the OR of `key XOR key₀` — the
/// bits that vary at all), with per-digit width ≤ `w_cap` bits.
///
/// Constant bits contribute nothing: the maximal varying runs of `mask`
/// are split and packed (at most two windows per digit, least-significant
/// first) into `⌈V / w⌉` balanced digits, `V` the varying-bit count and
/// `w = ⌈V / passes⌉`. Masks fragmented into more than 8 runs fall back
/// to contiguous windows over the varying span — same correctness,
/// sparser histograms. Returns the digits in pass (LSD) order.
fn plan_digits(mask: u64, w_cap: u32) -> ([Digit; MAX_DIGITS], usize) {
    let mut plan = [Digit::default(); MAX_DIGITS];
    // Maximal varying runs, LSB to MSB.
    let mut runs = [(0u32, 0u32); 32];
    let mut n_runs = 0;
    let mut rest = mask;
    while rest != 0 && n_runs < 32 {
        let start = rest.trailing_zeros();
        let len = (rest >> start).trailing_ones();
        runs[n_runs] = (start, len);
        n_runs += 1;
        rest &= if start + len >= 64 {
            0
        } else {
            u64::MAX << (start + len)
        };
    }
    if n_runs > 8 || rest != 0 {
        // Heavily fragmented mask: contiguous balanced windows over the
        // whole varying span (constant bits inside just leave histogram
        // buckets empty).
        let lo = mask.trailing_zeros();
        let hi = 63 - mask.leading_zeros();
        let span = hi - lo + 1;
        let passes = span.div_ceil(w_cap);
        let w = span.div_ceil(passes);
        let mut len = 0;
        let mut at = lo;
        while at <= hi {
            let width = w.min(hi - at + 1);
            plan[len] = Digit::single(at, width);
            len += 1;
            at += width;
        }
        return (plan, len);
    }
    // Balanced widths: ⌈V / w_cap⌉ passes of ~equal width sort better
    // than maximal digits followed by a remnant.
    let v: u32 = runs[..n_runs].iter().map(|&(_, l)| l).sum();
    let passes = v.div_ceil(w_cap);
    let w = v.div_ceil(passes);
    let mut len = 0;
    let mut run = 0;
    let mut consumed = 0u32; // bits taken from runs[run]
    while run < n_runs {
        let mut cap = w;
        let mut first: Option<(u32, u32)> = None;
        let mut second: Option<(u32, u32)> = None;
        while cap > 0 && run < n_runs && second.is_none() {
            let (start, rlen) = runs[run];
            let take = cap.min(rlen - consumed);
            let window = (start + consumed, take);
            if first.is_none() {
                first = Some(window);
            } else {
                second = Some(window);
            }
            cap -= take;
            consumed += take;
            if consumed == rlen {
                run += 1;
                consumed = 0;
            }
        }
        plan[len] = match (first, second) {
            (Some(a), None) => Digit::single(a.0, a.1),
            (Some(a), Some(b)) => Digit::pair(a, b),
            _ => unreachable!("loop invariant: at least one window per digit"),
        };
        len += 1;
        if len == MAX_DIGITS {
            break;
        }
    }
    debug_assert!(run == n_runs, "plan must cover every varying bit");
    (plan, len)
}

/// Write-combining scatter of one chunk: keys are staged into per-bucket
/// 8-key lines inside `stage` and flushed to `out` in full-line bursts
/// (partials drain at the end), so the scatter's random-access working
/// set is the compact staging block, not the whole destination. Stable:
/// lines flush FIFO in arrival order. Every fill counter is left at zero
/// for the next pass. `lines_len` is the fixed split between the line
/// region and the fill counters (`max_buckets * WC_LINE`, stable across
/// passes of different widths so stale line data never aliases a counter).
///
/// # Safety
/// `cursor` must hold this chunk's exclusive-prefix offsets: the runs
/// `[cursor[b], cursor[b] + count_b)` are pairwise disjoint across all
/// chunks and buckets and lie within `out`'s allocation.
unsafe fn wc_scatter_chunk(
    d: Digit,
    data: &[u64],
    cursor: &mut [u32],
    stage: &mut [u64],
    lines_len: usize,
    out: &SharedOut<u64>,
) {
    let buckets = d.buckets();
    let (lines, fills) = stage.split_at_mut(lines_len);
    let fills = &mut as_u32_counters(fills)[..buckets];
    for &k in data {
        let b = d.bucket(k);
        let f = fills[b] as usize;
        lines[b * WC_LINE + f] = k;
        if f + 1 == WC_LINE {
            let start = cursor[b] as usize;
            for (j, &w) in lines[b * WC_LINE..b * WC_LINE + WC_LINE].iter().enumerate() {
                // SAFETY: slots [start, start + WC_LINE) belong to this
                // (chunk, bucket) run per the caller's contract.
                unsafe { out.write(start + j, w) };
            }
            cursor[b] += WC_LINE as u32;
            fills[b] = 0;
        } else {
            fills[b] = (f + 1) as u32;
        }
    }
    for b in 0..buckets {
        let f = fills[b] as usize;
        if f > 0 {
            let start = cursor[b] as usize;
            for (j, &w) in lines[b * WC_LINE..b * WC_LINE + f].iter().enumerate() {
                // SAFETY: the partial line's slots are the tail of this
                // (chunk, bucket) run.
                unsafe { out.write(start + j, w) };
            }
            cursor[b] += f as u32;
            fills[b] = 0;
        }
    }
}

/// Parallel LSD radix sort of `u64` keys: mask-planned variable-width
/// digits, per-chunk histograms, bucket-major exclusive prefix, disjoint
/// parallel scatter. Sequential `sort_unstable` below
/// [`RADIX_SEQ_CUTOFF`]; immediate return on already-sorted input.
/// Deterministic at any thread count (the scatter preserves chunk order
/// within each bucket, and each pass is a stable counting sort).
pub fn radix_sort_u64(keys: &mut [u64], arena: &mut SolverArena) {
    radix_sort_u64_tuned(keys, arena, SortTuning::default());
}

/// [`radix_sort_u64`] with explicit tuning — the test entry that forces
/// plans the defaults only reach on large inputs.
pub fn radix_sort_u64_tuned(keys: &mut [u64], arena: &mut SolverArena, tune: SortTuning) {
    let tune = tune.clamped();
    let n = keys.len();
    if n < RADIX_SEQ_CUTOFF {
        keys.sort_unstable();
        return;
    }
    if n > u32::MAX as usize {
        // u32 cursors cannot index such an array; the comparison sort can.
        keys.par_sort_unstable();
        return;
    }
    let threads = rayon::current_num_threads().max(1);
    let n_chunks = if threads <= 1 {
        1
    } else {
        (threads * 2).min(n.div_ceil(tune.min_chunk)).max(1)
    };
    let chunk = n.div_ceil(n_chunks);
    let n_chunks = n.div_ceil(chunk);

    // One cheap scan: is the input already ascending, and which bits vary?
    let first = keys[0];
    let (sorted, mask) = if n_chunks == 1 {
        let mut m = 0u64;
        let mut sorted = true;
        let mut prev = first;
        for &k in keys.iter() {
            m |= k ^ first;
            sorted &= prev <= k;
            prev = k;
        }
        (sorted, m)
    } else {
        keys.par_chunks(chunk)
            .with_min_len(1)
            .map(|c| {
                let mut m = 0u64;
                let mut sorted = true;
                let mut prev = c[0];
                for &k in c {
                    m |= k ^ first;
                    sorted &= prev <= k;
                    prev = k;
                }
                (sorted, m, c[0], *c.last().expect("non-empty chunk"))
            })
            .collect::<Vec<_>>()
            .windows(2)
            .fold(
                {
                    // Seed with the first chunk's verdict... folded below.
                    (true, 0u64)
                },
                |acc, w| {
                    let (s0, m0, _, last0) = w[0];
                    let (s1, m1, first1, _) = w[1];
                    (acc.0 && s0 && s1 && last0 <= first1, acc.1 | m0 | m1)
                },
            )
    };
    if sorted || mask == 0 {
        return; // already ascending (or all keys equal)
    }

    // Digit plan: cap the bucket count so the `n_chunks` histogram rows
    // stay within a small multiple of the key array itself.
    let budget = (4 * n / n_chunks).max(1 << (MIN_DIGIT_BITS + 1));
    let w_max =
        (usize::BITS - 1 - budget.leading_zeros()).clamp(MIN_DIGIT_BITS, tune.max_digit_bits);
    let (plan, plan_len) = plan_digits(mask, w_max);
    let max_buckets = plan[..plan_len]
        .iter()
        .map(|d| d.buckets())
        .max()
        .unwrap_or(0);

    let mut scratch = arena.take_words();
    scratch.resize(n, 0);
    let mut counts = arena.take_words();
    // Write-combining staging: per chunk, `max_buckets` 8-key lines plus a
    // u32 fill counter per bucket, packed into one arena buffer. Only
    // checked out when some pass is wide enough to stage.
    let use_wc = tune.write_combine && max_buckets >= WC_MIN_BUCKETS;
    let wc_stride = max_buckets * WC_LINE + max_buckets.div_ceil(2);
    let mut staging = if use_wc {
        let mut s = arena.take_words();
        s.resize(n_chunks * wc_stride, 0);
        s
    } else {
        Vec::new()
    };
    let mut in_keys = true;

    if n_chunks == 1 {
        // Sequential schedule: histograms for every planned digit in one
        // pass, then reuse each digit's segment as the scatter cursor.
        let total: usize = plan[..plan_len].iter().map(|d| d.buckets()).sum();
        counts.resize(total.div_ceil(2), 0); // arena buffers come back cleared
        let hist = &mut as_u32_counters(&mut counts)[..total];
        let mut starts = [0usize; MAX_DIGITS];
        let mut at = 0;
        for (i, d) in plan[..plan_len].iter().enumerate() {
            starts[i] = at;
            at += d.buckets();
        }
        for &k in keys.iter() {
            for (i, d) in plan[..plan_len].iter().enumerate() {
                hist[starts[i] + d.bucket(k)] += 1;
            }
        }
        for (i, d) in plan[..plan_len].iter().enumerate() {
            let row = &mut hist[starts[i]..starts[i] + d.buckets()];
            let mut sum = 0u32;
            for c in row.iter_mut() {
                let t = *c;
                *c = sum;
                sum += t;
            }
            let (src, dst): (&[u64], &mut [u64]) = if in_keys {
                (keys, &mut scratch)
            } else {
                (&scratch, keys)
            };
            if use_wc && d.buckets() >= WC_MIN_BUCKETS {
                let out = SharedOut(dst.as_mut_ptr());
                // SAFETY: `row` holds the exclusive prefix for the whole
                // (single-chunk) input — disjoint per-bucket runs in 0..n.
                unsafe {
                    wc_scatter_chunk(
                        *d,
                        src,
                        row,
                        &mut staging[..wc_stride],
                        max_buckets * WC_LINE,
                        &out,
                    );
                }
            } else {
                let dst_ptr = dst.as_ptr();
                for i in 0..src.len() {
                    if i + LOOKAHEAD < src.len() {
                        let b = d.bucket(src[i + LOOKAHEAD]);
                        prefetch_write(dst_ptr, row[b] as usize);
                    }
                    let k = src[i];
                    let b = d.bucket(k);
                    dst[row[b] as usize] = k;
                    row[b] += 1;
                }
            }
            in_keys = !in_keys;
        }
    } else {
        counts.resize((n_chunks * max_buckets).div_ceil(2), 0);
        for d in &plan[..plan_len] {
            let buckets = d.buckets();
            let cview = &mut as_u32_counters(&mut counts)[..n_chunks * buckets];
            {
                let src: &[u64] = if in_keys { keys } else { &scratch };
                cview
                    .par_chunks_mut(buckets)
                    .with_min_len(1)
                    .zip(src.par_chunks(chunk))
                    .for_each(|(row, data)| {
                        row.fill(0);
                        for &k in data {
                            row[d.bucket(k)] += 1;
                        }
                    });
            }
            // Bucket-major exclusive prefix: offsets[c][b] = #keys landing
            // before chunk c's bucket-b run. Chunk order within a bucket
            // makes each pass a stable counting sort.
            let mut sum = 0u32;
            for b in 0..buckets {
                for c in 0..n_chunks {
                    let i = c * buckets + b;
                    let t = cview[i];
                    cview[i] = sum;
                    sum += t;
                }
            }
            debug_assert_eq!(sum as usize, n);
            {
                let (src, dst): (&[u64], &mut [u64]) = if in_keys {
                    (keys, &mut scratch)
                } else {
                    (&scratch, keys)
                };
                let out = SharedOut(dst.as_mut_ptr());
                if use_wc && buckets >= WC_MIN_BUCKETS {
                    src.par_chunks(chunk)
                        .with_min_len(1)
                        .zip(cview.par_chunks_mut(buckets))
                        .zip(staging.par_chunks_mut(wc_stride))
                        .for_each(|((data, cursor), stage)| {
                            // SAFETY: cursor ranges are pairwise disjoint
                            // across chunks and buckets (exclusive prefix);
                            // each chunk owns its staging stride.
                            unsafe {
                                wc_scatter_chunk(
                                    *d,
                                    data,
                                    cursor,
                                    stage,
                                    max_buckets * WC_LINE,
                                    &out,
                                );
                            }
                        });
                } else {
                    src.par_chunks(chunk)
                        .with_min_len(1)
                        .zip(cview.par_chunks_mut(buckets))
                        .for_each(|(data, cursor)| {
                            for (i, &k) in data.iter().enumerate() {
                                if i + LOOKAHEAD < data.len() {
                                    let b = d.bucket(data[i + LOOKAHEAD]);
                                    prefetch_write(out.0, cursor[b] as usize);
                                }
                                let b = d.bucket(k);
                                // SAFETY: cursor ranges are pairwise disjoint
                                // across chunks and buckets (exclusive prefix);
                                // each index in 0..n written exactly once.
                                unsafe { out.write(cursor[b] as usize, k) };
                                cursor[b] += 1;
                            }
                        });
                }
            }
            in_keys = !in_keys;
        }
    }
    if !in_keys {
        // Odd pass count: the sorted run lives in the scratch buffer.
        keys.par_chunks_mut(chunk)
            .with_min_len(1)
            .zip(scratch.par_chunks(chunk))
            .for_each(|(a, b)| a.copy_from_slice(b));
    }
    // Give back in reverse checkout order: the LIFO pool then hands each
    // buffer back to the same role next sort, so capacities stabilize and
    // warm repeat sorts allocate nothing.
    if use_wc {
        arena.give_words(staging);
    }
    arena.give_words(counts);
    arena.give_words(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Stream;

    fn check(mut keys: Vec<u64>) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut arena = SolverArena::new();
        radix_sort_u64(&mut keys, &mut arena);
        assert_eq!(keys, expect);
    }

    #[test]
    fn plan_covers_edge_like_masks() {
        // Reconstruct the covered bit set from a plan.
        let covered = |plan: &[Digit]| -> u64 {
            plan.iter().fold(0u64, |m, d| {
                m | (d.mask1 << d.shift1) | (d.mask2.checked_shl(d.shift2).unwrap_or(0))
            })
        };
        // Two varying runs (18-bit endpoints): 3 balanced 12-bit digits,
        // the middle one straddling both runs.
        let mask = 0x0003_ffff_0003_ffffu64;
        let (plan, len) = plan_digits(mask, 13);
        assert_eq!(len, 3);
        assert_eq!((plan[0].shift1, plan[0].width), (0, 12));
        assert_eq!(plan[1].width, 12);
        assert!(plan[1].mask2 != 0, "middle digit must straddle the gap");
        assert_eq!(covered(&plan[..len]) & mask, mask);
        // Full 64-bit mask: five balanced digits.
        let (plan, len) = plan_digits(u64::MAX, 13);
        assert_eq!(len, 5);
        assert_eq!(covered(&plan[..len]), u64::MAX);
        // Isolated high bit.
        let (plan, len) = plan_digits(1u64 << 63, 13);
        assert_eq!(len, 1);
        assert_eq!((plan[0].shift1, plan[0].width), (63, 1));
        // Sparse alternating bits fall back to contiguous windows.
        let mask = 0xAAAA_AAAA_AAAA_AAAAu64;
        let (plan, len) = plan_digits(mask, 8);
        assert!(len <= MAX_DIGITS);
        assert_eq!(covered(&plan[..len]) & mask, mask);
    }

    #[test]
    fn random_keys_match_std_sort() {
        let s = Stream::new(7, 1);
        check((0..100_000).map(|i| s.hash(i)).collect());
    }

    #[test]
    fn adversarial_shapes() {
        check(vec![]);
        check(vec![42]);
        check(vec![5; 10_000]); // all equal
        check((0..50_000u64).rev().collect()); // reverse sorted
        check((0..50_000u64).collect()); // already sorted
                                         // Single varying byte at each position.
        for d in 0..8 {
            let s = Stream::new(d as u64, 9);
            check((0..20_000).map(|i| (s.hash(i) & 0xff) << (8 * d)).collect());
        }
        // Sentinel-heavy.
        let s = Stream::new(3, 3);
        check(
            (0..30_000)
                .map(|i| match i % 3 {
                    0 => u64::MAX,
                    1 => 0,
                    _ => s.hash(i),
                })
                .collect(),
        );
    }

    #[test]
    fn below_cutoff_still_sorts() {
        let s = Stream::new(1, 1);
        check((0..100).map(|i| s.hash(i)).collect());
    }

    #[test]
    fn packed_edge_keys_sort() {
        let s = Stream::new(2, 8);
        for nv in [100u64, 70_000, 1 << 24] {
            check(
                (0..60_000)
                    .map(|i| (s.below(2 * i, nv) << 32) | s.below(2 * i + 1, nv))
                    .collect(),
            );
        }
    }

    #[test]
    fn warm_arena_is_reused() {
        // Explicit default tuning: full-64-bit-mask keys plan 13-bit digits,
        // so the WC staging buffer is the third checkout per sort.
        let s = Stream::new(2, 2);
        let mut arena = SolverArena::new();
        for round in 0..3 {
            let mut keys: Vec<u64> = (0..40_000).map(|i| s.hash(i + round)).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            radix_sort_u64_tuned(&mut keys, &mut arena, SortTuning::default());
            assert_eq!(keys, expect);
        }
        let stats = arena.stats();
        assert_eq!(
            stats.misses, 3,
            "first sort allocates scratch, counts, and WC staging"
        );
        assert_eq!(stats.takes, 9, "three checkouts per sort");
    }

    #[test]
    fn wc_on_and_off_produce_identical_output() {
        let shapes: Vec<Vec<u64>> = {
            let s = Stream::new(11, 5);
            vec![
                (0..60_000).map(|i| s.hash(i)).collect(),
                (0..60_000u64).rev().collect(),
                (0..60_000)
                    .map(|i| (s.below(2 * i, 9_000) << 32) | s.below(2 * i + 1, 9_000))
                    .collect(),
                // Skewed: most keys land in one bucket, WC partial-line
                // drains carry the bulk.
                (0..60_000)
                    .map(|i| if i % 17 == 0 { s.hash(i) } else { 3 })
                    .collect(),
            ]
        };
        for keys in shapes {
            let mut on = keys.clone();
            let mut off = keys.clone();
            let mut expect = keys;
            expect.sort_unstable();
            let mut arena = SolverArena::new();
            let base = SortTuning::default();
            radix_sort_u64_tuned(
                &mut on,
                &mut arena,
                SortTuning {
                    write_combine: true,
                    ..base
                },
            );
            radix_sort_u64_tuned(
                &mut off,
                &mut arena,
                SortTuning {
                    write_combine: false,
                    ..base
                },
            );
            assert_eq!(on, expect);
            assert_eq!(off, expect);
        }
    }

    #[test]
    fn extreme_tunings_still_sort() {
        let s = Stream::new(21, 1);
        let keys: Vec<u64> = (0..50_000).map(|i| s.hash(i)).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        for tune in [
            SortTuning {
                max_digit_bits: 8,
                min_chunk: 1024,
                write_combine: true,
            },
            SortTuning {
                max_digit_bits: 16,
                min_chunk: 1 << 20,
                write_combine: true,
            },
            // Out-of-range values must clamp, not break.
            SortTuning {
                max_digit_bits: 99,
                min_chunk: 0,
                write_combine: false,
            },
        ] {
            let mut a = keys.clone();
            let mut arena = SolverArena::new();
            radix_sort_u64_tuned(&mut a, &mut arena, tune);
            assert_eq!(a, expect, "tune {tune:?}");
        }
    }

    #[test]
    #[ignore] // perf probe, not a correctness test: run with --release -- --ignored
    fn probe_radix_vs_cmp_throughput() {
        use std::time::Instant;
        let s = Stream::new(1, 1);
        for n in [1_000_000u64, 4_000_000] {
            let keys: Vec<u64> = (0..n)
                .map(|i| (s.below(2 * i, 250_000) << 32) | s.below(2 * i + 1, 250_000))
                .collect();
            for w in [8u32, 9, 10, 11, 12, 13, 16] {
                for wc in [true, false] {
                    let mut a = keys.clone();
                    let mut arena = SolverArena::new();
                    let tune = SortTuning {
                        max_digit_bits: w,
                        write_combine: wc,
                        ..SortTuning::default()
                    };
                    let t0 = Instant::now();
                    radix_sort_u64_tuned(&mut a, &mut arena, tune);
                    let tr = t0.elapsed().as_secs_f64() * 1e3;
                    let mut b = keys.clone();
                    let t0 = Instant::now();
                    b.par_sort_unstable();
                    let tc = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(a, b);
                    println!(
                        "n={n} w_max={w} wc={wc}: radix {tr:.1} ms, cmp {tc:.1} ms, speedup {:.2}",
                        tc / tr
                    );
                }
            }
        }
    }

    #[test]
    fn override_switches_backend() {
        set_backend_override(Some(SortBackend::Cmp));
        assert_eq!(backend(), SortBackend::Cmp);
        set_backend_override(Some(SortBackend::Radix));
        assert_eq!(backend(), SortBackend::Radix);
        set_backend_override(None);
        let s = Stream::new(4, 4);
        let mut keys: Vec<u64> = (0..10_000).map(|i| s.hash(i)).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        sort_u64(&mut keys);
        assert_eq!(keys, expect);
    }
}
