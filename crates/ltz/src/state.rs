//! Per-vertex levels and budgeted hash tables — the EXPAND-MAXLINK state.
//!
//! Every vertex starts at level 1 with a small table `H(v)`. A root's table
//! holds the *added edges* `(v, w)` discovered by neighbourhood hashing and
//! graph squaring; its size is the budget `β_{ℓ(v)}` which grows **doubly
//! exponentially** in the level (paper Eq. (2): `β_ℓ = β₁^{1.01^{ℓ−1}}`,
//! realized here as `t₁^{g^{ℓ−1}}` with practical `t₁, g` — see DESIGN.md §2).
//! After `O(log log n)` level-ups a table can hold any 2-ball, which is where
//! the `log log n` term of Theorem 2 comes from.
//!
//! Every table lives in one shared cell **pool**, as in the paper's model:
//! Step 9 "assign[s] a block of size `β_ℓ(v)`" to `v` from a processor pool.
//! Table `v` is one block of `2·cap(v)` cells at offset `off(v)`: first `cap`
//! hash **slots** for single-probe collision detection (exactly the paper's
//! semantics: an item probes one cell; a cell occupied by a *different* item
//! is a **collision**, the dormancy/budget-growth signal — not an error),
//! then `cap` cells of a dense **item list**, so that iterating a table
//! costs its occupancy, not its capacity. Activating or growing tables only
//! appends blocks to the pool, so a whole round's activations cost one pool
//! extension, not an allocation per vertex.
//!
//! Total slot allocation is bounded by a global budget, mirroring the paper's
//! processor-pool zones (Lemma 5.8): the PRAM has finitely many processors to
//! stand behind table cells, so tables cannot grow without bound.

use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::rng::Stream;
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

thread_local! {
    /// Per-thread drain scratch: table drains happen inside per-vertex
    /// parallel loops, so an arena (single-owner) cannot serve them; a
    /// thread-local buffer makes steady-state rounds allocation-free
    /// without any sharing.
    static DRAIN_BUF: RefCell<Vec<Vertex>> = const { RefCell::new(Vec::new()) };
}

/// Empty slot / list-cell sentinel.
const FREE: u32 = u32::MAX;

/// A table capacity as stored. Item counts are `u32`s, so a capacity past
/// `u32::MAX` is refused rather than wrapped.
fn table_cap(cap: usize) -> u32 {
    u32::try_from(cap).expect("LTZ table capacity exceeds u32::MAX")
}

/// Outcome of a single-probe insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// Item placed into a free cell.
    New,
    /// The cell already held this item.
    Present,
    /// The cell held a different item — collision (dormancy signal).
    Collision,
}

/// How table sizes grow with level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowthSchedule {
    /// The paper's schedule: `β_{ℓ+1} = β_ℓ^g` — sizes are doubly
    /// exponential in the level, reaching any 2-ball in `O(log log n)`
    /// level-ups. This is the engine of Theorem 2's `log log n` term.
    DoublyExponential,
    /// Ablation: `β_{ℓ+1} = 2·β_ℓ` — plain doubling needs `Θ(log n)`
    /// level-ups to reach large neighbourhoods, degrading the round count
    /// on dense graphs (experiment E13).
    Geometric,
}

/// Budget/table-size schedule and level-up probabilities.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Level-1 table size (power of two), the practical `β₁`.
    pub t1: usize,
    /// Growth exponent per level (`β_{ℓ+1} = β_ℓ^growth`), > 1.
    pub growth: f64,
    /// Doubly-exponential (paper) vs geometric (ablation) table growth.
    pub schedule: GrowthSchedule,
    /// Hard cap on any single table size (power of two).
    pub cap: usize,
    /// Global cap on total live slots (the processor-pool bound).
    pub global_slot_cap: u64,
    /// Exponent of the random level-up probability `β^{-x}` (paper: 0.06).
    pub level_up_exponent: f64,
    /// Clamp on the random level-up probability.
    pub level_up_max: f64,
}

impl Budget {
    /// Defaults tuned for `n ∈ [10³, 10⁷]` (DESIGN.md §2).
    #[must_use]
    pub fn for_n(n: usize) -> Self {
        Budget {
            t1: 16,
            growth: 1.5,
            schedule: GrowthSchedule::DoublyExponential,
            cap: (4 * n.max(16)).next_power_of_two(),
            global_slot_cap: 16 * n.max(64) as u64,
            level_up_exponent: 0.35,
            level_up_max: 0.1,
        }
    }

    /// Table size at `level` (≥ 1), a power of two, capped: doubly
    /// exponential `t1^(growth^(level−1))` under the paper's schedule,
    /// doubling `t1·2^(level−1)` under the ablation.
    #[must_use]
    pub fn table_size(&self, level: u32) -> usize {
        let size = match self.schedule {
            GrowthSchedule::DoublyExponential => {
                let exp = self.growth.powi(level as i32 - 1);
                (self.t1 as f64).powf(exp)
            }
            GrowthSchedule::Geometric => self.t1 as f64 * 2f64.powi(level as i32 - 1),
        };
        if !size.is_finite() || size >= self.cap as f64 {
            self.cap
        } else {
            (size.ceil() as usize).next_power_of_two().min(self.cap)
        }
    }

    /// Random level-up probability at `level` (paper Step 3: `β(v)^{-0.06}`).
    #[must_use]
    pub fn level_up_prob(&self, level: u32) -> f64 {
        let beta = self.table_size(level) as f64;
        beta.powf(-self.level_up_exponent).min(self.level_up_max)
    }
}

/// The EXPAND-MAXLINK machinery state: levels, tables, dormancy marks.
#[derive(Debug)]
pub struct LtzState {
    /// `ℓ(v)`, starting at 1.
    levels: Vec<AtomicU32>,
    /// The table pool: `H(v)` is `pool[off[v]..off[v] + 2·cap[v]]`, slots
    /// then item list. Superseded blocks are abandoned, not reused (see
    /// [`grow_to_level`](Self::grow_to_level) for why that stays bounded).
    pool: Vec<AtomicU32>,
    /// Start of `H(v)`'s block in `pool`.
    off: Vec<usize>,
    /// Capacity of `H(v)` (0 until activated).
    cap: Vec<u32>,
    /// Items in `H(v)`: the next free index of its item list.
    len: Vec<AtomicU32>,
    /// Dormancy marks for the current round.
    pub dormant: Vec<AtomicBool>,
    /// "Increased level in Step 3 this round" marks.
    pub leveled: Vec<AtomicBool>,
    /// Collision recorded outside the hashing steps (migration/growth);
    /// feeds the next round's dormancy.
    pub pending_collision: Vec<AtomicBool>,
    /// Budget schedule.
    pub budget: Budget,
    /// Live slots currently allocated (bounded by `budget.global_slot_cap`).
    live_slots: AtomicU64,
    /// Total slots ever allocated (telemetry).
    slots_allocated: AtomicU64,
    /// Times a table growth was clamped by the global budget (telemetry).
    clamped_grows: AtomicU64,
    /// Hashing stream (stable across the run, so the same item always probes
    /// the same cell within one table size).
    hash_stream: Stream,
}

impl LtzState {
    /// Fresh state for `n` vertices.
    #[must_use]
    pub fn new(n: usize, budget: Budget, seed: u64) -> Self {
        let levels = std::iter::repeat_with(|| AtomicU32::new(1))
            .take(n)
            .collect();
        let len = std::iter::repeat_with(|| AtomicU32::new(0))
            .take(n)
            .collect();
        let dormant = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect();
        let leveled = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect();
        let pending_collision = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect();
        Self {
            levels,
            pool: Vec::new(),
            off: vec![0; n],
            cap: vec![0; n],
            len,
            dormant,
            leveled,
            pending_collision,
            budget,
            live_slots: AtomicU64::new(0),
            slots_allocated: AtomicU64::new(0),
            clamped_grows: AtomicU64::new(0),
            hash_stream: Stream::new(seed, 0x17b1),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True if the state tracks no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// `ℓ(v)`.
    #[inline]
    #[must_use]
    pub fn level(&self, v: Vertex) -> u32 {
        self.levels[v as usize].load(Ordering::Relaxed)
    }

    /// Set `ℓ(v)`.
    #[inline]
    pub fn set_level(&self, v: Vertex, l: u32) {
        self.levels[v as usize].store(l, Ordering::Relaxed);
    }

    /// Number of distinct items in `H(v)`.
    #[inline]
    #[must_use]
    pub fn occupied(&self, v: Vertex) -> u32 {
        self.len[v as usize].load(Ordering::Relaxed)
    }

    /// Current capacity of `H(v)` (0 until activated).
    #[inline]
    #[must_use]
    pub fn capacity(&self, v: Vertex) -> usize {
        self.cap[v as usize] as usize
    }

    /// Total table slots ever allocated (telemetry).
    #[must_use]
    pub fn slots_allocated(&self) -> u64 {
        self.slots_allocated.load(Ordering::Relaxed)
    }

    /// Times growth was clamped by the global slot budget (telemetry).
    #[must_use]
    pub fn clamped_grows(&self) -> u64 {
        self.clamped_grows.load(Ordering::Relaxed)
    }

    /// `H(v)`'s block split into its hash slots and its item list (both
    /// empty until activated).
    #[inline]
    fn block(&self, v: Vertex) -> (&[AtomicU32], &[AtomicU32]) {
        let cap = self.capacity(v);
        let off = self.off[v as usize];
        self.pool[off..off + 2 * cap].split_at(cap)
    }

    /// Iterate the items of `H(v)`. Costs `O(occupied(v))`. Cells being
    /// concurrently inserted may be skipped (they are witnessed next round).
    pub fn items(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        let (_, list) = self.block(v);
        let k = (self.occupied(v) as usize).min(list.len());
        list[..k]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&w| w != FREE)
    }

    /// Single-probe insert of `w` into `H(v)` (paper Steps 4/6). No-op
    /// `Collision` if the table is unallocated.
    ///
    /// The probed slot is loaded first and the CAS issued only on `FREE`.
    /// This answers exactly as a bare CAS would: while inserts run, a slot
    /// only ever moves from `FREE` to an item (drains never overlap
    /// another thread's inserts into the same table), so a taken slot
    /// still holds the loaded item. Most Step 4 inserts hit a taken slot,
    /// and a load does not claim the cache line exclusively.
    pub fn insert(&self, v: Vertex, w: Vertex) -> Insert {
        let (slots, list) = self.block(v);
        if slots.is_empty() {
            return Insert::Collision;
        }
        let slot = (self.hash_stream.hash(w as u64) as usize) & (slots.len() - 1);
        let cur = slots[slot].load(Ordering::Relaxed);
        if cur != FREE {
            return if cur == w {
                Insert::Present
            } else {
                Insert::Collision
            };
        }
        match slots[slot].compare_exchange(FREE, w, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                // Distinct slots bound the number of News by the capacity, so
                // the reserved list index is always in range.
                let idx = self.len[v as usize].fetch_add(1, Ordering::Relaxed) as usize;
                list[idx].store(w, Ordering::Relaxed);
                Insert::New
            }
            Err(cur) if cur == w => Insert::Present,
            Err(_) => Insert::Collision,
        }
    }

    /// Drain `H(v)` into `out` (cleared first): the items are appended and
    /// the table left empty (slots cleared exactly — each item's probe cell
    /// is known to hold it). Callers pass a thread-local buffer so
    /// steady-state drains allocate nothing.
    fn drain_into(&self, v: Vertex, out: &mut Vec<Vertex>) {
        out.clear();
        let (slots, list) = self.block(v);
        let k = (self.occupied(v) as usize).min(list.len());
        let mask = slots.len().wrapping_sub(1);
        for cell in &list[..k] {
            let w = cell.swap(FREE, Ordering::Relaxed);
            if w != FREE {
                slots[(self.hash_stream.hash(w as u64) as usize) & mask]
                    .store(FREE, Ordering::Relaxed);
                out.push(w);
            }
        }
        self.len[v as usize].store(0, Ordering::Relaxed);
    }

    /// The grant rule shared by growth and activation: the capacity a table
    /// of `have < want` slots receives while `live` slots are out, halved
    /// from `want` (down to `t1`) until twice it fits the global budget.
    /// Returns the grant (`None`: the table keeps its size) and whether the
    /// budget clamped it.
    fn grant(&self, want: usize, have: usize, live: u64) -> (Option<usize>, bool) {
        let available = self.budget.global_slot_cap.saturating_sub(live) + 2 * have as u64;
        let mut grant = want;
        while grant as u64 * 2 > available && grant > self.budget.t1 {
            grant /= 2;
        }
        ((grant > have).then_some(grant), grant < want)
    }

    /// Grow `H(v)` to the size mandated by the current level (paper Step 9:
    /// "assign a block of size `β_{ℓ(v)}`"), migrating existing items. Growth
    /// draws on the global slot budget; if exhausted, the table keeps its
    /// size (counted in [`clamped_grows`](Self::clamped_grows)) — the vertex
    /// simply stays dormant-prone, which is always safe.
    ///
    /// The new block is appended to the pool and the old one abandoned, not
    /// compacted. A grant is a power of two larger than the old capacity, so
    /// every abandoned block of `H(v)` is at most half the next one: the
    /// dead cells of a table sum to less than its live cells, and the pool
    /// never holds more than twice the live cells.
    pub fn grow_to_level(&mut self, v: Vertex, tracker: &CostTracker) {
        let want = self.budget.table_size(self.level(v));
        let have = self.capacity(v);
        if have >= want {
            return;
        }
        let (grant, clamped) = self.grant(want, have, self.live_slots.load(Ordering::Relaxed));
        if clamped {
            self.clamped_grows.fetch_add(1, Ordering::Relaxed);
        }
        let Some(grant) = grant else {
            return;
        };
        DRAIN_BUF.with(|buf| {
            let mut vals = buf.borrow_mut();
            self.drain_into(v, &mut vals);
            let off = self.pool.len();
            self.pool
                .resize_with(off + 2 * grant, || AtomicU32::new(FREE));
            self.off[v as usize] = off;
            self.cap[v as usize] = table_cap(grant);
            self.live_slots
                .fetch_add(2 * (grant - have) as u64, Ordering::Relaxed);
            self.slots_allocated
                .fetch_add(grant as u64, Ordering::Relaxed);
            tracker.charge_work(grant as u64 + vals.len() as u64);
            for &w in vals.iter() {
                if self.insert(v, w) == Insert::Collision {
                    self.pending_collision[v as usize].store(true, Ordering::Relaxed);
                }
            }
        });
    }

    /// Ensure `v` has a table (lazy activation at the current level's size).
    pub fn ensure_table(&mut self, v: Vertex, tracker: &CostTracker) {
        self.ensure_tables(&[v], tracker);
    }

    /// [`ensure_table`](Self::ensure_table) for every vertex of `vs`, in
    /// order, with one serial pass and one pool extension: each missing
    /// table gets the capacity [`grow_to_level`](Self::grow_to_level) would
    /// grant it at that point of the walk, so capacities, counters and the
    /// charged work equal those of a per-vertex loop. Duplicates are
    /// activated once.
    pub fn ensure_tables(&mut self, vs: &[Vertex], tracker: &CostTracker) {
        let mut end = self.pool.len();
        let mut live = self.live_slots.load(Ordering::Relaxed);
        let (mut granted, mut clamps) = (0u64, 0u64);
        // `table_size` costs two float pows and a walk sees few distinct
        // (small) levels: size each level once, without allocating.
        let mut sizes = [None; 64];
        for &v in vs {
            if self.cap[v as usize] != 0 {
                continue;
            }
            let level = self.level(v);
            let want = match sizes.get_mut(level as usize) {
                Some(Some(size)) => *size,
                Some(memo) => *memo.insert(self.budget.table_size(level)),
                None => self.budget.table_size(level),
            };
            let (grant, clamped) = self.grant(want, 0, live);
            clamps += u64::from(clamped);
            let Some(grant) = grant else {
                continue;
            };
            self.off[v as usize] = end;
            self.cap[v as usize] = table_cap(grant);
            end += 2 * grant;
            live += 2 * grant as u64;
            granted += grant as u64;
        }
        self.pool.resize_with(end, || AtomicU32::new(FREE));
        self.live_slots.store(live, Ordering::Relaxed);
        self.slots_allocated.fetch_add(granted, Ordering::Relaxed);
        self.clamped_grows.fetch_add(clamps, Ordering::Relaxed);
        tracker.charge_work(granted);
    }

    /// ALTER for the added edges (paper: "ALTER(E) also applies to those
    /// added edges"): rewrite every item to its parent, drop the loops this
    /// creates, and migrate the tables of non-roots into their parents'
    /// tables. Charges `(Σ occupancies, 2)`.
    ///
    /// Runs in two synchronous phases so no table is rebuilt while receiving
    /// migrated items.
    pub fn alter_tables(&self, active: &[Vertex], forest: &ParentForest, tracker: &CostTracker) {
        let total: u64 = active.par_iter().map(|&v| self.occupied(v) as u64).sum();
        tracker.charge(total, 2);
        // Phase A: every vertex rebuilds its own table with altered items.
        active.par_iter().for_each(|&v| {
            if self.occupied(v) == 0 {
                return;
            }
            let pv = forest.parent(v);
            DRAIN_BUF.with(|buf| {
                let mut vals = buf.borrow_mut();
                self.drain_into(v, &mut vals);
                for &w in vals.iter() {
                    let pw = forest.parent(w);
                    if pw == pv {
                        continue; // loop — drop
                    }
                    if self.insert(v, pw) == Insert::Collision {
                        self.pending_collision[v as usize].store(true, Ordering::Relaxed);
                    }
                }
            });
        });
        // Phase B: non-roots hand their items to their parent, provided the
        // parent is a root with a table (a root never drains in this phase,
        // so receive/drain races are impossible); otherwise items stay put
        // and migrate a later round.
        active.par_iter().for_each(|&v| {
            if forest.is_root(v) || self.occupied(v) == 0 {
                return;
            }
            let parent = forest.parent(v);
            if !forest.is_root(parent) || self.capacity(parent) == 0 {
                return;
            }
            DRAIN_BUF.with(|buf| {
                let mut vals = buf.borrow_mut();
                self.drain_into(v, &mut vals);
                for &w in vals.iter() {
                    if w != parent && self.insert(parent, w) == Insert::Collision {
                        self.pending_collision[parent as usize].store(true, Ordering::Relaxed);
                    }
                }
            });
        });
    }

    /// Clear the per-round marks for the given vertices.
    pub fn clear_round_marks(&self, active: &[Vertex], tracker: &CostTracker) {
        tracker.charge(active.len() as u64, 1);
        active.par_iter().for_each(|&v| {
            self.dormant[v as usize].store(false, Ordering::Relaxed);
            self.leveled[v as usize].store(false, Ordering::Relaxed);
        });
    }

    /// Materialize the added edges `(v, w ∈ H(v))` for the given owners —
    /// the table half of `E_close` (paper DENSIFY Step 4).
    #[must_use]
    pub fn export_added_edges(&self, owners: &[Vertex], tracker: &CostTracker) -> Vec<Edge> {
        let mut out = Vec::new();
        self.export_added_edges_into(owners, &mut out, tracker);
        out
    }

    /// [`export_added_edges`](Self::export_added_edges) appended onto a
    /// caller-owned buffer (not cleared), so repeat exports reuse storage.
    pub fn export_added_edges_into(
        &self,
        owners: &[Vertex],
        out: &mut Vec<Edge>,
        tracker: &CostTracker,
    ) {
        let before = out.len();
        if rayon::current_num_threads() <= 1 {
            for &v in owners {
                out.extend(self.items(v).map(|w| Edge::new(v, w)));
            }
        } else {
            out.extend(
                owners
                    .par_iter()
                    .flat_map_iter(|&v| self.items(v).map(move |w| Edge::new(v, w)))
                    .collect::<Vec<Edge>>(),
            );
        }
        tracker.charge((out.len() - before) as u64 + owners.len() as u64, 1);
    }

    /// Do any of the given vertices still hold table items?
    #[must_use]
    pub fn any_items(&self, owners: &[Vertex]) -> bool {
        owners.par_iter().any(|&v| self.occupied(v) > 0)
    }

    /// Deep copy (INTERWEAVE Step 5 revert support).
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        let copy = |cells: &[AtomicU32]| -> Vec<AtomicU32> {
            cells
                .iter()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed)))
                .collect()
        };
        let n = self.len();
        let dormant = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect();
        let leveled = std::iter::repeat_with(|| AtomicBool::new(false))
            .take(n)
            .collect();
        let pending_collision = (0..n)
            .map(|v| AtomicBool::new(self.pending_collision[v].load(Ordering::Relaxed)))
            .collect();
        Self {
            levels: copy(&self.levels),
            pool: copy(&self.pool),
            off: self.off.clone(),
            cap: self.cap.clone(),
            len: copy(&self.len),
            dormant,
            leveled,
            pending_collision,
            budget: self.budget,
            live_slots: AtomicU64::new(self.live_slots.load(Ordering::Relaxed)),
            slots_allocated: AtomicU64::new(self.slots_allocated()),
            clamped_grows: AtomicU64::new(self.clamped_grows()),
            hash_stream: self.hash_stream,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> LtzState {
        LtzState::new(n, Budget::for_n(n), 42)
    }

    fn t() -> CostTracker {
        CostTracker::new()
    }

    #[test]
    fn budget_schedule_is_doubly_exponential() {
        let b = Budget::for_n(1 << 20);
        let s1 = b.table_size(1);
        let s2 = b.table_size(2);
        let s3 = b.table_size(3);
        assert_eq!(s1, 16);
        assert!(s2 >= s1 * s1 / 8, "s2={s2}");
        assert!(s3 >= s2 * 2, "s3={s3}");
        // Capped eventually.
        assert_eq!(b.table_size(30), b.cap);
    }

    #[test]
    fn geometric_schedule_doubles() {
        let mut b = Budget::for_n(1 << 16);
        b.schedule = GrowthSchedule::Geometric;
        assert_eq!(b.table_size(1), 16);
        assert_eq!(b.table_size(2), 32);
        assert_eq!(b.table_size(5), 256);
        // Needs many more levels than the paper's schedule to reach the cap.
        let paper = Budget::for_n(1 << 16);
        let levels_to_cap = |b: &Budget| (1..64).find(|&l| b.table_size(l) == b.cap).unwrap();
        assert!(levels_to_cap(&b) > 2 * levels_to_cap(&paper));
    }

    #[test]
    fn budget_sizes_are_powers_of_two() {
        let b = Budget::for_n(100_000);
        for l in 1..12 {
            assert!(b.table_size(l).is_power_of_two());
        }
    }

    #[test]
    fn level_up_prob_decreases() {
        let b = Budget::for_n(1 << 20);
        let p1 = b.level_up_prob(1);
        let p5 = b.level_up_prob(5);
        assert!(p1 <= b.level_up_max);
        assert!(p5 < p1, "p5={p5} p1={p1}");
        assert!(p5 > 0.0);
    }

    #[test]
    fn insert_outcomes() {
        let mut st = state(4);
        st.ensure_table(0, &t());
        assert_eq!(st.insert(0, 1), Insert::New);
        assert_eq!(st.insert(0, 1), Insert::Present);
        assert_eq!(st.occupied(0), 1);
        // Force a collision: find a w hashing to the same slot as 1.
        let cap = st.capacity(0);
        let slot_of = |st: &LtzState, w: u32| (st.hash_stream.hash(w as u64) as usize) & (cap - 1);
        let s1 = slot_of(&st, 1);
        let w = (2..10_000u32).find(|&w| slot_of(&st, w) == s1).unwrap();
        assert_eq!(st.insert(0, w), Insert::Collision);
    }

    #[test]
    fn insert_into_unallocated_is_collision() {
        let st = state(2);
        assert_eq!(st.insert(0, 1), Insert::Collision);
    }

    #[test]
    fn items_match_inserts() {
        let mut st = state(4);
        st.ensure_table(0, &t());
        st.insert(0, 1);
        st.insert(0, 2);
        st.insert(0, 2);
        let mut items: Vec<u32> = st.items(0).collect();
        items.sort_unstable();
        assert_eq!(items, vec![1, 2]);
        assert_eq!(st.occupied(0), 2);
    }

    #[test]
    fn grow_migrates_items() {
        let mut st = state(4);
        st.ensure_table(0, &t());
        st.insert(0, 1);
        st.insert(0, 2);
        st.set_level(0, 3);
        st.grow_to_level(0, &t());
        assert!(st.capacity(0) >= Budget::for_n(4).table_size(3).min(st.budget.cap));
        let mut items: Vec<u32> = st.items(0).collect();
        items.sort_unstable();
        assert_eq!(items, vec![1, 2]);
        assert_eq!(st.occupied(0), 2);
    }

    #[test]
    fn global_budget_clamps_growth() {
        let mut b = Budget::for_n(4);
        b.global_slot_cap = 64;
        let mut st = LtzState::new(4, b, 1);
        for v in 0..4u32 {
            st.set_level(v, 20); // wants the per-table cap
            st.grow_to_level(v, &t());
        }
        assert!(st.clamped_grows() > 0, "budget should have clamped");
        // Live slots stay within 2× the cap accounting (slots + list).
        assert!(st.slots_allocated() <= 16 * 64);
    }

    #[test]
    fn alter_rewrites_and_drops_loops() {
        let mut st = state(4);
        let f = ParentForest::new(4);
        st.ensure_table(0, &t());
        st.insert(0, 1);
        st.insert(0, 2);
        f.set_parent(1, 0); // (0,1) becomes a loop
        f.set_parent(2, 3); // (0,2) becomes (0,3)
        st.alter_tables(&[0, 1, 2, 3], &f, &t());
        let items: Vec<u32> = st.items(0).collect();
        assert_eq!(items, vec![3]);
        assert_eq!(st.occupied(0), 1);
    }

    #[test]
    fn alter_deduplicates_merged_items() {
        let mut st = state(6);
        let f = ParentForest::new(6);
        st.ensure_table(0, &t());
        st.insert(0, 1);
        st.insert(0, 2);
        f.set_parent(1, 5);
        f.set_parent(2, 5); // both items become 5 — must dedup
        st.alter_tables(&[0], &f, &t());
        let items: Vec<u32> = st.items(0).collect();
        assert_eq!(items, vec![5]);
        assert_eq!(st.occupied(0), 1);
    }

    #[test]
    fn alter_migrates_nonroot_tables() {
        let mut st = state(4);
        let f = ParentForest::new(4);
        st.ensure_table(0, &t());
        st.ensure_table(1, &t());
        st.insert(1, 3);
        f.set_parent(1, 0);
        st.alter_tables(&[0, 1, 3], &f, &t());
        assert_eq!(st.occupied(1), 0);
        let items: Vec<u32> = st.items(0).collect();
        assert_eq!(items, vec![3]);
    }

    #[test]
    fn export_added_edges_works() {
        let mut st = state(4);
        st.ensure_table(2, &t());
        st.insert(2, 0);
        st.insert(2, 3);
        let mut edges = st.export_added_edges(&[2], &t());
        edges.sort_unstable();
        assert_eq!(edges, vec![Edge::new(2, 0), Edge::new(2, 3)]);
        assert!(st.any_items(&[2]));
        assert!(!st.any_items(&[0, 1, 3]));
    }

    #[test]
    fn deep_clone_is_independent() {
        let mut st = state(64);
        let tr = t();
        st.ensure_tables(&[0, 1], &tr);
        st.insert(0, 5);
        st.insert(1, 6);
        let mut cl = st.deep_clone();
        // The first item from 7 on that lands in a free slot of `H(v)`.
        let insert_fresh =
            |st: &LtzState, v: Vertex| (7..).find(|&w| st.insert(v, w) == Insert::New).unwrap();
        st.set_level(0, 3);
        st.grow_to_level(0, &tr);
        let w0 = insert_fresh(&st, 0);
        assert_eq!(cl.level(0), 1);
        assert_eq!(cl.capacity(0), 16);
        assert_eq!(cl.items(0).collect::<Vec<_>>(), vec![5]);
        cl.set_level(1, 2);
        cl.grow_to_level(1, &tr);
        insert_fresh(&cl, 1);
        assert_eq!(st.capacity(1), 16);
        assert_eq!(st.items(1).collect::<Vec<_>>(), vec![6]);
        let mut grown: Vec<Vertex> = st.items(0).collect();
        grown.sort_unstable();
        assert_eq!(grown, vec![5, w0]);
        assert_eq!(cl.occupied(1), 2);
    }

    #[test]
    fn ensure_tables_matches_per_vertex_activation() {
        // Mixed levels, duplicate ids and a global budget small enough to
        // clamp: the batched pass must grant exactly what the per-vertex
        // paths grant.
        let n = 32;
        let mut b = Budget::for_n(n);
        b.global_slot_cap = 600;
        let vs: [Vertex; 14] = [3, 7, 3, 0, 12, 7, 31, 5, 0, 20, 9, 14, 3, 25];
        let fresh = || {
            let st = LtzState::new(n, b, 5);
            for v in 0..n as u32 {
                st.set_level(v, 1 + v % 4);
            }
            st
        };
        let (mut batched, tb) = (fresh(), t());
        batched.ensure_tables(&vs, &tb);
        let (mut single, ts) = (fresh(), t());
        for &v in &vs {
            single.ensure_table(v, &ts);
        }
        let (mut grown, tg) = (fresh(), t());
        for &v in &vs {
            if grown.capacity(v) == 0 {
                grown.grow_to_level(v, &tg);
            }
        }
        assert!(batched.clamped_grows() > 0, "budget should have clamped");
        for (st, tr) in [(&single, &ts), (&grown, &tg)] {
            for v in 0..n as u32 {
                assert_eq!(batched.capacity(v), st.capacity(v), "capacity of {v}");
            }
            assert_eq!(batched.slots_allocated(), st.slots_allocated());
            assert_eq!(batched.clamped_grows(), st.clamped_grows());
            assert_eq!(
                batched.live_slots.load(Ordering::Relaxed),
                st.live_slots.load(Ordering::Relaxed)
            );
            assert_eq!(tb.work(), tr.work());
        }
    }

    #[test]
    fn repeated_growth_keeps_items_and_bounds_the_pool() {
        let n = 1024;
        let mut st = state(n);
        let tr = t();
        let owners = [1u32, 2, 3];
        st.ensure_tables(&owners, &tr);
        for &v in &owners {
            for w in [10 + v, 20 + v] {
                assert_eq!(st.insert(v, w), Insert::New);
            }
        }
        let sorted_items = |st: &LtzState, v: Vertex| {
            let mut items: Vec<Vertex> = st.items(v).collect();
            items.sort_unstable();
            items
        };
        // Interleaved growth, so the owners' blocks interleave in the pool.
        for level in 2..=5 {
            for &v in &owners {
                let before = st.capacity(v);
                st.set_level(v, level);
                st.grow_to_level(v, &tr);
                assert!(st.capacity(v) >= before);
                assert_eq!(sorted_items(&st, v), vec![10 + v, 20 + v], "level {level}");
                let live = st.live_slots.load(Ordering::Relaxed);
                let held: u64 = owners.iter().map(|&o| 2 * st.capacity(o) as u64).sum();
                assert_eq!(live, held);
                assert!(
                    st.pool.len() as u64 <= 2 * live,
                    "pool {} live {live}",
                    st.pool.len()
                );
            }
        }
        assert_eq!(st.capacity(1), st.budget.cap);
    }
}
