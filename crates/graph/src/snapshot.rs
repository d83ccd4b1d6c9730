//! Epoch-pinned label snapshots: the immutable read side of the serve
//! mode's writer/reader split.
//!
//! A [`LabelSnapshot`] freezes one canonical labeling (plus the derived
//! per-component sizes) under an epoch number. The serve engine publishes
//! a fresh snapshot behind an `Arc` swap after every merged batch group;
//! readers clone the `Arc` and answer `same-component` / `component-size`
//! / `component-count` queries against their pinned epoch without ever
//! observing a half-merged labeling — the Liu–Tarjan style contract that
//! label maintenance stays correct because readers only consume *published*
//! fixpoints, never in-flight relabelings.
//!
//! **Copy-on-write pages.** Labels and per-root sizes live in fixed-size
//! pages of [`PAGE`] entries behind `Arc`s; a label page stores a 16-bit
//! code per vertex into its own sorted list of distinct labels, so reads
//! touch half the memory plain labels would. [`LabelSnapshot::advance`]
//! builds epoch e+1 from epoch e plus a [`ChangeLog`] of the pages the
//! writer touched since: every untouched page is shared with epoch e (one
//! refcount bump), and only pages holding a relabeled vertex or a resized
//! root are rebuilt from the writer's state. The component count is a
//! running integer kept by the writer. A publish therefore costs
//! O(n / [`PAGE`] + [`PAGE`] · pages touched) instead of O(n); with the
//! serve state's relabel-the-smaller-side unions the pages touched over a
//! whole run are bounded by its O(n log n) relabels. A read costs a
//! page-table load (L1-resident: 49 pointers at 200k vertices) and a
//! dictionary load on top of the code itself.
//!
//! **Unseen vertices are implicit singletons.** The vertex space grows as
//! batches arrive, so a reader may ask about an id the snapshot has not
//! tracked yet; the honest answer is the one an edgeless vertex would get:
//! its own component of size 1. [`LabelSnapshot::component_count`] counts
//! tracked vertices only. Page slots past [`LabelSnapshot::n`] hold
//! exactly that (label = own id, size 1), so a page stays valid when the
//! vertex space grows into it.

use parcc_pram::edge::Vertex;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// log₂ of the entries per page.
pub const PAGE_SHIFT: u32 = 12;
/// Vertices per page: a size page holds 16 KiB of `u32`s, a label page
/// 8 KiB of 16-bit codes plus its dictionary.
pub const PAGE: usize = 1 << PAGE_SHIFT;
const MASK: usize = PAGE - 1;

/// A page of per-root component sizes.
type Page = Arc<[u32; PAGE]>;

/// A page of labels, stored as one 16-bit code per vertex into the page's
/// sorted distinct labels. A page holds at most [`PAGE`] distinct labels,
/// so a code always fits, and the codes a read touches take half the
/// cache lines of plain `u32` labels — what a read pays for when the pages
/// have gone cold.
struct LabelPage {
    codes: [u16; PAGE],
    dict: Box<[Vertex]>,
}

impl LabelPage {
    #[inline]
    fn get(&self, slot: usize) -> Vertex {
        self.dict[self.codes[slot & MASK] as usize]
    }
}

/// What a writer changed since its last publish, at page granularity: the
/// label pages holding relabeled vertices, the size pages holding roots
/// whose size changed, and the number of relabels. Two bitsets of
/// n / [`PAGE`] bits, so recording is O(1) and the log never outgrows the
/// vertex space however many unions it covers.
#[derive(Debug, Default)]
pub struct ChangeLog {
    label_pages: Vec<u64>,
    size_pages: Vec<u64>,
    relabeled: u64,
}

impl ChangeLog {
    /// Record that `v`'s label changed.
    #[inline]
    pub fn relabel(&mut self, v: Vertex) {
        mark(&mut self.label_pages, v);
        self.relabeled += 1;
    }

    /// Record that the size of the component rooted at `root` changed.
    #[inline]
    pub fn resize(&mut self, root: Vertex) {
        mark(&mut self.size_pages, root);
    }

    /// Relabels recorded since the last [`clear`](Self::clear) (a vertex
    /// relabeled twice counts twice).
    #[must_use]
    pub fn relabeled(&self) -> u64 {
        self.relabeled
    }

    /// Forget everything recorded (after a publish).
    pub fn clear(&mut self) {
        self.label_pages.clear();
        self.size_pages.clear();
        self.relabeled = 0;
    }
}

#[inline]
fn mark(bits: &mut Vec<u64>, v: Vertex) {
    let page = v as usize >> PAGE_SHIFT;
    let word = page / 64;
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << (page % 64);
}

fn marked(bits: &[u64], page: usize) -> bool {
    bits.get(page / 64)
        .is_some_and(|w| w >> (page % 64) & 1 == 1)
}

/// Size page `p` of a writer tracking `n` vertices; slots past `n` hold 1
/// (an untracked id is a singleton).
fn size_page(n: usize, p: usize, size: &impl Fn(usize) -> u32) -> Page {
    let lo = p * PAGE;
    let page: Arc<[u32]> = (lo..lo + PAGE)
        .map(|r| if r < n { size(r) } else { 1 })
        .collect();
    page.try_into().expect("a page holds exactly PAGE entries")
}

/// Label page `p` of a writer tracking `n` vertices; slots past `n` hold
/// their own id (an untracked id is its own representative).
fn label_page(n: usize, p: usize, label: &impl Fn(usize) -> Vertex) -> Arc<LabelPage> {
    let lo = p * PAGE;
    let mut raw = [0; PAGE];
    for (slot, v) in raw.iter_mut().zip(lo..) {
        *slot = if v < n { label(v) } else { v as Vertex };
    }
    let mut dict = raw.to_vec();
    dict.sort_unstable();
    dict.dedup();
    let mut codes = [0; PAGE];
    let mut last = None;
    for (code, &l) in codes.iter_mut().zip(&raw) {
        // Neighbouring vertices mostly share a label: search once per run.
        let c = match last {
            Some((prev, c)) if prev == l => c,
            _ => dict.binary_search(&l).expect("every label is in the dict") as u16,
        };
        last = Some((l, c));
        *code = c;
    }
    Arc::new(LabelPage {
        codes,
        dict: dict.into_boxed_slice(),
    })
}

/// The `count` pages of a snapshot, sharing every page of `prev` that
/// `dirty` does not mark and building the rest with `build` (pages past
/// `prev`'s end are always built).
fn paged<T>(
    count: usize,
    prev: &[Arc<T>],
    dirty: &[u64],
    build: impl Fn(usize) -> Arc<T>,
) -> Vec<Arc<T>> {
    (0..count)
        .map(|p| match prev.get(p) {
            Some(page) if !marked(dirty, p) => Arc::clone(page),
            _ => build(p),
        })
        .collect()
}

/// How many pages of `a` and `b` are the very same allocation.
fn shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
    a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
}

/// One immutable, epoch-stamped connectivity view: canonical labels and
/// per-component sizes in shared copy-on-write pages.
#[derive(Clone)]
pub struct LabelSnapshot {
    epoch: u64,
    n: usize,
    components: usize,
    /// `labels[v >> PAGE_SHIFT].get(v)` = canonical label of `v`.
    labels: Vec<Arc<LabelPage>>,
    /// Same layout, indexed by root: the size of the component whose
    /// canonical label is that id (zero for non-representative ids).
    sizes: Vec<Page>,
    /// The labels as one slice, flattened on first use.
    flat: OnceLock<Vec<Vertex>>,
}

impl fmt::Debug for LabelSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelSnapshot")
            .field("epoch", &self.epoch)
            .field("n", &self.n)
            .field("components", &self.components)
            .field("pages", &self.labels.len())
            .finish_non_exhaustive()
    }
}

impl LabelSnapshot {
    /// Freeze a canonical labeling (`labels[labels[v]] == labels[v]`, the
    /// [`crate::solver::ComponentSolver`] contract) under `epoch`. One
    /// counting pass derives the component sizes and count, and every page
    /// is built fresh: O(n). The input is dropped once paged;
    /// [`labels`](Self::labels) flattens the pages again on demand.
    ///
    /// # Panics
    /// If a label is out of range for the vertex count.
    #[must_use]
    pub fn from_labels(epoch: u64, labels: Vec<Vertex>) -> Self {
        let mut counts = vec![0u32; labels.len()];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        debug_assert!(
            labels.iter().all(|&l| labels[l as usize] == l),
            "snapshot labels must be canonical"
        );
        let components = counts.iter().filter(|&&c| c > 0).count();
        Self::empty(epoch).advance(
            epoch,
            labels.len(),
            |v| labels[v],
            |r| counts[r],
            components,
            &ChangeLog::default(),
        )
    }

    /// The empty snapshot (no tracked vertices) at the given epoch.
    #[must_use]
    pub fn empty(epoch: u64) -> Self {
        Self {
            epoch,
            n: 0,
            components: 0,
            labels: Vec::new(),
            sizes: Vec::new(),
            flat: OnceLock::new(),
        }
    }

    /// The snapshot after this one, stamped `epoch`, for a writer tracking
    /// `n` vertices: `label(v)` is the canonical label of `v`, `size(r)`
    /// the size of the component rooted at `r` (zero for non-roots), and
    /// `components` the writer's running component count. `changes` must
    /// cover every label and size the writer changed since it produced
    /// `self`; pages it does not mark are shared with `self`, the rest are
    /// read from the writer. The vertex space may have grown since `self`,
    /// but never shrinks.
    #[must_use]
    pub fn advance(
        &self,
        epoch: u64,
        n: usize,
        label: impl Fn(usize) -> Vertex,
        size: impl Fn(usize) -> u32,
        components: usize,
        changes: &ChangeLog,
    ) -> Self {
        debug_assert!(n >= self.n, "the vertex space never shrinks");
        let count = n.div_ceil(PAGE);
        Self {
            epoch,
            n,
            components,
            labels: paged(count, &self.labels, &changes.label_pages, |p| {
                label_page(n, p, &label)
            }),
            sizes: paged(count, &self.sizes, &changes.size_pages, |p| {
                size_page(n, p, &size)
            }),
            flat: OnceLock::new(),
        }
    }

    /// The epoch this snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of tracked vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The frozen canonical labels as one slice. The pages are flattened
    /// on the first call (O(n), once per snapshot); reads never need this.
    #[must_use]
    pub fn labels(&self) -> &[Vertex] {
        self.flat.get_or_init(|| {
            let mut flat = Vec::with_capacity(self.n);
            for page in &self.labels {
                let take = (self.n - flat.len()).min(PAGE);
                flat.extend((0..take).map(|slot| page.get(slot)));
            }
            flat
        })
    }

    /// Number of components among *tracked* vertices (implicit singletons
    /// beyond [`n`](Self::n) are not enumerable, hence not counted).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// How many of this snapshot's label pages and size pages are the very
    /// same allocation as `other`'s at the same index — what a publish
    /// shared instead of copying.
    #[must_use]
    pub fn pages_shared_with(&self, other: &Self) -> (usize, usize) {
        (
            shared(&self.labels, &other.labels),
            shared(&self.sizes, &other.sizes),
        )
    }

    /// Canonical representative of `v`'s component; an untracked id is its
    /// own representative. Slots past [`n`](Self::n) in the last page hold
    /// their own id, so only ids past the last page need the fallback.
    #[inline]
    #[must_use]
    pub fn label_of(&self, v: Vertex) -> Vertex {
        match self.labels.get(v as usize >> PAGE_SHIFT) {
            Some(page) => page.get(v as usize),
            None => v,
        }
    }

    /// Are `u` and `v` in the same component under this snapshot? An
    /// untracked id is connected only to itself: its label is its own id,
    /// which no tracked vertex carries.
    #[inline]
    #[must_use]
    pub fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        self.label_of(u) == self.label_of(v)
    }

    /// Size of `v`'s component (1 for untracked ids).
    #[must_use]
    pub fn component_size(&self, v: Vertex) -> usize {
        let l = self.label_of(v) as usize;
        self.sizes
            .get(l >> PAGE_SHIFT)
            .map_or(1, |page| page[l & MASK] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_match_the_labeling() {
        // Components {0,1,3} (label 0) and {2,4} (label 2).
        let s = LabelSnapshot::from_labels(7, vec![0, 0, 2, 0, 2]);
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.n(), 5);
        assert_eq!(s.component_count(), 2);
        assert!(s.same_component(0, 3));
        assert!(s.same_component(2, 4));
        assert!(!s.same_component(1, 4));
        assert_eq!(s.component_size(1), 3);
        assert_eq!(s.component_size(4), 2);
        assert_eq!(s.label_of(3), 0);
    }

    #[test]
    fn untracked_ids_are_implicit_singletons() {
        let s = LabelSnapshot::from_labels(1, vec![0, 0]);
        assert!(s.same_component(5, 5), "a vertex always joins itself");
        assert!(!s.same_component(0, 5));
        assert!(!s.same_component(5, 6));
        assert_eq!(s.component_size(99), 1);
        assert_eq!(s.label_of(99), 99);
        // Tracked count is unaffected by untracked queries.
        assert_eq!(s.component_count(), 1);
    }

    #[test]
    fn empty_snapshot() {
        let s = LabelSnapshot::empty(0);
        assert_eq!((s.n(), s.component_count()), (0, 0));
        assert!(s.same_component(3, 3));
        assert!(!s.same_component(3, 4));
        assert_eq!(s.component_size(0), 1);
        assert!(s.labels().is_empty());
    }

    /// A minimal writer over flat arrays: what the serve state keeps.
    struct Writer {
        labels: Vec<Vertex>,
        sizes: Vec<u32>,
        components: usize,
        log: ChangeLog,
    }

    impl Writer {
        fn new(n: usize) -> Self {
            Self {
                labels: (0..n as u32).collect(),
                sizes: vec![1; n],
                components: n,
                log: ChangeLog::default(),
            }
        }

        fn grow(&mut self, n: usize) {
            let old = self.labels.len();
            self.labels.extend(old as u32..n as u32);
            self.sizes.resize(n, 1);
            self.components += n - old;
        }

        /// Move every member of root `small` under root `big` (no
        /// smaller-side rule: the test picks the sides).
        fn merge(&mut self, big: Vertex, small: Vertex) {
            for v in 0..self.labels.len() {
                if self.labels[v] == small {
                    self.labels[v] = big;
                    self.log.relabel(v as u32);
                }
            }
            self.sizes[big as usize] += self.sizes[small as usize];
            self.sizes[small as usize] = 0;
            self.log.resize(big);
            self.log.resize(small);
            self.components -= 1;
        }

        fn publish(&mut self, prev: &LabelSnapshot) -> LabelSnapshot {
            let s = prev.advance(
                prev.epoch() + 1,
                self.labels.len(),
                |v| self.labels[v],
                |r| self.sizes[r],
                self.components,
                &self.log,
            );
            self.log.clear();
            s
        }
    }

    fn assert_matches_from_labels(s: &LabelSnapshot, labels: &[Vertex]) {
        let full = LabelSnapshot::from_labels(s.epoch(), labels.to_vec());
        assert_eq!(s.labels(), full.labels());
        assert_eq!(s.component_count(), full.component_count());
        for v in 0..labels.len() as u32 + 3 {
            assert_eq!(s.component_size(v), full.component_size(v), "size of {v}");
            assert_eq!(s.label_of(v), full.label_of(v));
        }
    }

    #[test]
    fn advance_shares_untouched_pages_and_copies_touched_ones() {
        // 2^20 vertices: one big component on root 0 spanning pages 0..128,
        // singletons above.
        let n = 1 << 20;
        let big = n / 2;
        let mut w = Writer::new(n);
        for v in 1..big {
            w.labels[v] = 0;
        }
        w.sizes[0] = big as u32;
        w.sizes[1..big].fill(0);
        w.components = n - big + 1;
        let s0 = LabelSnapshot::from_labels(0, w.labels.clone());
        let pages = n / PAGE;
        assert_eq!(s0.labels.len(), pages);

        // A singleton on a far page joins the big component: one label
        // page (the singleton's) and two size pages (both roots) copied.
        let lone = (n - 5) as u32;
        w.merge(0, lone);
        let s1 = w.publish(&s0);
        let (labels_shared, sizes_shared) = s1.pages_shared_with(&s0);
        assert!(labels_shared >= pages - 2, "{labels_shared}/{pages}");
        assert!(sizes_shared >= pages - 2, "{sizes_shared}/{pages}");
        assert!(s1.same_component(lone, 7));
        assert_eq!(s1.component_size(lone), big + 1);
        assert_eq!(s1.component_count(), s0.component_count() - 1);
        // The old epoch is untouched.
        assert!(!s0.same_component(lone, 7));
        assert_eq!(s0.component_size(7), big);

        // Nothing changed (an edge inside one component): every page shared.
        let s2 = w.publish(&s1);
        assert_eq!(s2.pages_shared_with(&s1), (pages, pages));
        assert_matches_from_labels(&s2, &w.labels);
    }

    #[test]
    fn advance_covers_growth_into_a_partial_page() {
        // n not a page multiple: growth first fills the padded last page,
        // then appends new pages.
        let mut w = Writer::new(PAGE + 10);
        w.merge(3, 1);
        let s0 = w.publish(&LabelSnapshot::empty(0));
        assert_matches_from_labels(&s0, &w.labels);
        w.grow(PAGE + 20);
        let s1 = w.publish(&s0);
        // Growth alone dirties nothing: the padding already answered for
        // the new vertices.
        assert_eq!(s1.pages_shared_with(&s0), (2, 2));
        assert_eq!(s1.component_count(), PAGE + 19);
        assert_matches_from_labels(&s1, &w.labels);
        w.grow(3 * PAGE + 1);
        let root = PAGE as u32 + 15;
        w.merge(root, 3 * PAGE as u32);
        w.merge(root, 3);
        let s2 = w.publish(&s1);
        assert_eq!((s2.labels.len(), s2.sizes.len()), (4, 4));
        assert_matches_from_labels(&s2, &w.labels);
        assert_eq!(s2.component_size(1), 4);
        // Earlier epochs still give their original answers.
        assert_eq!(s1.component_size(1), 2);
        assert!(!s1.same_component(1, root));
        assert_eq!(s0.n(), PAGE + 10);
    }
}
