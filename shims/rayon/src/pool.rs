//! The global work-stealing thread pool behind every parallel iterator.
//!
//! ## Architecture
//!
//! One process-wide pool is created lazily on first use. It owns up to
//! `capacity − 1` worker threads, each with its own mutex-protected deque of
//! [`JobRef`]s, spawned on demand (see Sizing below). A thread
//! submitting a batch of chunks pushes `effective_threads - 1` *executor*
//! jobs across the worker deques, then becomes an executor itself: every
//! executor pulls chunk indices off the batch's shared counter until none
//! remain, so at most the effective thread count of threads run a batch
//! concurrently even though the pool's capacity is larger, while chunks
//! still balance dynamically across whoever shows up. Workers pop from the
//! front of their own deque and steal from the back of the others, parking
//! on a condvar when every deque is empty.
//!
//! ## Topology awareness
//!
//! Deques are grouped by NUMA node (`crate::topology`): workers fill CPUs
//! node-major, each worker optionally pins itself to its node's CPU set on
//! spawn (`PARCC_PIN=0` opts out), stealing exhausts the home node's deques
//! before touching remote nodes, and submitters interleave pushes across
//! nodes (round-robin over nodes, round-robin over each node's deques). The
//! sticky variant ([`run_batch_sticky`]) additionally *bands* chunk indices
//! onto node groups — chunk `i` belongs to node `i·nodes/chunks` — so
//! repeated batches over the same chunk space (per-shard histograms, CSR
//! builds) keep shard `i` on a stable worker group; executors drain their
//! own node's band before stealing from remote bands. On a single-node box
//! every grouping collapses to the previous flat round-robin behavior.
//!
//! Jobs are type-erased raw pointers into the submitting thread's stack
//! frame. This is sound because a batch submitter never returns before every
//! one of its executor jobs has been popped and executed (by a worker or by
//! itself while help-executing), so the referenced frame outlives all uses.
//!
//! ## Sizing and the sequential fallback
//!
//! * The **default thread count** comes from, in priority order:
//!   [`configure_global`] (i.e. `ThreadPoolBuilder::build_global`), the
//!   `PARCC_THREADS` env var, the `RAYON_NUM_THREADS` env var, then
//!   [`std::thread::available_parallelism`].
//! * The **pool capacity** is `max(default, 8)`: the ceiling on what an
//!   explicit `ThreadPoolBuilder::num_threads(k).build().install(..)` can
//!   get, so installs exercise real concurrency (up to the capacity) even
//!   on small machines. The pool pre-allocates `capacity − 1` deques with
//!   their node grouping, but no threads.
//! * The **effective thread count** ([`effective_threads`]) is the install
//!   override when one is active on the current thread, else the default.
//!   When it is 1, callers run everything inline on the current thread in
//!   index order — bit-for-bit the schedule of the old sequential shim — and
//!   the pool is never touched.
//! * **Workers are spawned lazily**, in deque order, pinned to their
//!   deque's node. Before pushing, a batch or `join` at `t` effective
//!   threads makes sure workers `0..t − 1` exist (a batch with fewer chunks
//!   needs fewer). So a `--threads 2` process runs one worker, and the pool
//!   grows to `capacity − 1` only once an install asks for that many.
//!   Pushes and steals touch only the deques of workers that exist, so a
//!   batch wakes and scans only the workers the widest call so far needed.
//!
//! Batches propagate the submitting thread's install override into their
//! jobs, so nested parallel calls see the same effective thread count no
//! matter which worker they land on. Panics inside jobs are caught, the
//! batch is drained, and the first payload is re-thrown on the submitter.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased pointer to a job living in a submitting thread's stack.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: the pointed-to task is Sync (shared fn + atomics) and the batch
// protocol guarantees it outlives every access.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Execute the job.
    ///
    /// # Safety
    /// The referenced task must still be alive and each job must be run at
    /// most once.
    unsafe fn run(self) {
        (self.exec)(self.data);
    }
}

struct Shared {
    /// One deque per worker thread, grouped by topology node.
    queues: Vec<Mutex<VecDeque<JobRef>>>,
    /// Home node of each worker/queue index.
    queue_node: Vec<usize>,
    /// Per node: the queue indices living on it (possibly empty when the
    /// pool is narrower than the node count).
    node_queues: Vec<Vec<usize>>,
    /// Per-node round-robin push cursors.
    node_cursors: Vec<AtomicUsize>,
    /// Workers spawned so far: queues `0..spawned` have a live worker.
    /// Grows under `Pool::spawn_lock` and never shrinks. It is stored with
    /// Release once the workers are spawned and read with Acquire, so a
    /// thread that sees a count also sees that many workers spawned.
    spawned: AtomicUsize,
    /// Jobs pushed but not yet popped (sleep/wake protocol).
    pending: AtomicUsize,
    /// Guards the park/notify handshake.
    gate: Mutex<()>,
    cond: Condvar,
    /// Round-robin *node* selector for interleaved pushes.
    cursor: AtomicUsize,
}

impl Shared {
    fn try_pop(&self, q: usize, own: bool) -> Option<JobRef> {
        let job = {
            let mut guard = self.queues[q].lock().unwrap();
            if own {
                guard.pop_front()
            } else {
                guard.pop_back()
            }
        };
        if job.is_some() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    /// `node`'s queues whose worker exists. Queue ids ascend within a
    /// node and workers spawn in id order, so these form a prefix.
    fn live_queues(&self, node: usize, spawned: usize) -> &[usize] {
        let qs = &self.node_queues[node];
        &qs[..qs.partition_point(|&q| q < spawned)]
    }

    /// Pop any job, NUMA-locally: the caller's own deque from the front,
    /// then the rest of its home node's deques, then remote nodes — all
    /// steals from the back. Only live workers' deques can hold jobs.
    fn pop_job(&self, home: usize) -> Option<JobRef> {
        if let Some(job) = self.try_pop(home, true) {
            return Some(job);
        }
        let spawned = self.spawned.load(Ordering::Acquire);
        let nodes = self.node_queues.len();
        let home_node = self.queue_node.get(home).copied().unwrap_or(0);
        for off in 0..nodes {
            let node = (home_node + off) % nodes;
            for &q in self.live_queues(node, spawned) {
                if q == home {
                    continue;
                }
                if let Some(job) = self.try_pop(q, false) {
                    return Some(job);
                }
            }
        }
        None
    }

    /// Push one job onto `node`'s live deques (round-robin within the
    /// node), falling forward to the next node with a live worker when
    /// `node` has none. Callers must have spawned at least one worker.
    /// Does not notify — callers batch the wakeup.
    fn push_to_node(&self, node: usize, job: JobRef) {
        let spawned = self.spawned.load(Ordering::Acquire);
        debug_assert!(spawned > 0, "push before any worker was spawned");
        let nodes = self.node_queues.len();
        let mut node = node % nodes;
        while self.live_queues(node, spawned).is_empty() {
            node = (node + 1) % nodes;
        }
        let qs = self.live_queues(node, spawned);
        let q = qs[self.node_cursors[node].fetch_add(1, Ordering::Relaxed) % qs.len()];
        self.pending.fetch_add(1, Ordering::Release);
        self.queues[q].lock().unwrap().push_back(job);
    }

    fn push_jobs(&self, jobs: impl Iterator<Item = JobRef>) {
        let nodes = self.node_queues.len();
        let mut pushed = 0usize;
        for job in jobs {
            let node = self.cursor.fetch_add(1, Ordering::Relaxed) % nodes;
            self.push_to_node(node, job);
            pushed += 1;
        }
        if pushed > 0 {
            self.notify_all();
        }
    }

    /// Wake every parked thread (workers and waiting submitters). The empty
    /// critical section pairs with the condition re-check a parking thread
    /// performs under the same mutex, closing the missed-wakeup window.
    fn notify_all(&self) {
        drop(self.gate.lock().unwrap());
        self.cond.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, home: usize) {
    loop {
        match shared.pop_job(home) {
            // SAFETY: jobs are valid until executed (batch protocol).
            Some(job) => unsafe { job.run() },
            None => {
                let guard = shared.gate.lock().unwrap();
                if shared.pending.load(Ordering::Acquire) == 0 {
                    // Spurious wakeups are fine; we re-scan either way.
                    drop(shared.cond.wait(guard).unwrap());
                }
            }
        }
    }
}

/// The process-wide pool.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    /// Maximum executors (workers + the submitting thread): the most an
    /// `install` can get.
    capacity: usize,
    /// Effective thread count when no install override is active.
    default_threads: usize,
    /// Serialises worker spawning.
    spawn_lock: Mutex<()>,
}

impl Pool {
    /// Make sure workers `0..want` exist, spawning the missing ones. Called
    /// before every push, so a pool only ever has as many workers as the
    /// widest parallel call so far asked for, and fully sequential
    /// processes (`PARCC_THREADS=1` and no installs) never create one.
    fn ensure_workers(&'static self, want: usize) {
        if self.shared.spawned.load(Ordering::Acquire) < want {
            self.spawn_workers(want);
        }
    }

    /// Slow path of [`Self::ensure_workers`]: under the spawn lock, spawn
    /// the missing workers in index order, each pinned to its deque's node,
    /// then publish the new count.
    #[cold]
    #[inline(never)]
    fn spawn_workers(&'static self, want: usize) {
        let shared = &self.shared;
        let _guard = self
            .spawn_lock
            .lock()
            .expect("an earlier worker spawn failed while holding the spawn lock");
        let have = shared.spawned.load(Ordering::Acquire);
        for i in have..want {
            let shared = Arc::clone(shared);
            let node = shared.queue_node[i];
            std::thread::Builder::new()
                .name(format!("parcc-worker-{i}"))
                .spawn(move || {
                    crate::topology::set_current_node(node);
                    // Advisory: an EINVAL/EPERM here just leaves the
                    // worker unpinned.
                    crate::topology::pin_current_thread(node);
                    worker_loop(shared, i);
                })
                .expect("failed to spawn pool worker");
        }
        if want > have {
            shared.spawned.store(want, Ordering::Release);
        }
    }
}

/// Thread count requested via `ThreadPoolBuilder::build_global`, if any.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);
static POOL: OnceLock<Pool> = OnceLock::new();

/// Record a global thread-count request. Ok if the pool has not been
/// created yet (or the size matches); Err afterwards.
pub(crate) fn configure_global(n: usize) -> Result<(), ()> {
    let n = n.max(1);
    if let Some(pool) = POOL.get() {
        return if pool.default_threads == n {
            Ok(())
        } else {
            Err(())
        };
    }
    CONFIGURED.store(n, Ordering::Relaxed);
    // Force creation now so a later racing default init cannot pick a
    // different size.
    let pool = global();
    if pool.default_threads == n {
        Ok(())
    } else {
        Err(())
    }
}

fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .map(|n| n.max(1))
}

fn global() -> &'static Pool {
    POOL.get_or_init(|| {
        let default_threads = match CONFIGURED.load(Ordering::Relaxed) {
            0 => env_threads("PARCC_THREADS")
                .or_else(|| env_threads("RAYON_NUM_THREADS"))
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                }),
            n => n,
        };
        // Capacity ≥ 8 lets explicit installs exercise real concurrency on
        // small machines. Only the deques are allocated here: workers are
        // spawned when a parallel call first needs them.
        let capacity = default_threads.max(8);
        let queues: Vec<_> = (0..capacity - 1)
            .map(|_| Mutex::new(VecDeque::new()))
            .collect();
        let topo = crate::topology::current();
        let queue_node: Vec<usize> = (0..queues.len()).map(|w| topo.worker_node(w)).collect();
        let mut node_queues = vec![Vec::new(); topo.num_nodes()];
        for (q, &node) in queue_node.iter().enumerate() {
            node_queues[node].push(q);
        }
        let node_cursors = (0..node_queues.len())
            .map(|_| AtomicUsize::new(0))
            .collect();
        Pool {
            shared: Arc::new(Shared {
                queues,
                queue_node,
                node_queues,
                node_cursors,
                spawned: AtomicUsize::new(0),
                pending: AtomicUsize::new(0),
                gate: Mutex::new(()),
                cond: Condvar::new(),
                cursor: AtomicUsize::new(0),
            }),
            capacity,
            default_threads,
            spawn_lock: Mutex::new(()),
        }
    })
}

thread_local! {
    /// Per-thread `ThreadPool::install` override (0 = none).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The effective thread count on the current thread: the install override if
/// one is active, else the pool default — never more than the pool capacity.
pub(crate) fn effective_threads() -> usize {
    let pool = global();
    match OVERRIDE.with(Cell::get) {
        0 => pool.default_threads,
        k => k.min(pool.capacity),
    }
}

/// Set the install override (0 clears), returning the previous value.
pub(crate) fn set_override(k: usize) -> usize {
    OVERRIDE.with(|c| c.replace(k))
}

/// Clamp a requested install size to the global pool's capacity — the most
/// threads any install can pin. Deliberately does *not* force the pool into
/// existence (that would lock in its size and break a later
/// `build_global`); before first parallel use the capacity is undecided, so
/// the requested count is returned as-is.
pub(crate) fn clamp_to_capacity(k: usize) -> usize {
    POOL.get().map_or(k, |pool| k.min(pool.capacity))
}

/// State shared between a batch's executor jobs and its submitter.
struct BatchState {
    /// Next chunk index to claim (may overshoot `chunks`).
    next: AtomicUsize,
    /// Total chunks in the batch.
    chunks: usize,
    /// Chunks fully executed.
    done: AtomicUsize,
    /// Pushed executor jobs that have been popped and finished.
    executors_done: AtomicUsize,
    /// Executor jobs pushed (`executors_done`'s target).
    helpers: usize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Submitter's install override, inherited by every executor.
    inherit: usize,
    /// For waking a parked submitter on completion.
    shared: &'static Shared,
}

struct BatchTask<'a, F> {
    f: &'a F,
    state: &'a BatchState,
}

/// Claim and run chunks off `state.next` until the batch is exhausted.
/// Panics in `f` are recorded (first wins) and draining continues.
fn drain_chunks<F: Fn(usize) + Sync>(f: &F, state: &BatchState) {
    loop {
        let i = state.next.fetch_add(1, Ordering::Relaxed);
        if i >= state.chunks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            state.panic.lock().unwrap().get_or_insert(payload);
        }
        if state.done.fetch_add(1, Ordering::Release) + 1 == state.chunks {
            state.shared.notify_all();
        }
    }
}

/// Type-erased executor for a batch: drains chunks until none remain. The
/// batch pushes `effective_threads - 1` of these, so at most the effective
/// thread count of threads (executors + the draining submitter) ever run a
/// batch's chunks concurrently, regardless of the pool's larger capacity.
///
/// # Safety
/// `ptr` must point to a live `BatchTask<F>` and be executed at most once.
unsafe fn exec_batch<F: Fn(usize) + Sync>(ptr: *const ()) {
    // SAFETY: per the contract above.
    let task = unsafe { &*ptr.cast::<BatchTask<'_, F>>() };
    let prev = set_override(task.state.inherit);
    drain_chunks(task.f, task.state);
    set_override(prev);
    // Copy out of the batch state *before* publishing completion: once the
    // fetch_add below is visible, the submitter may observe the batch
    // finished, return from run_batch, and pop the frame owning the state —
    // so the fetch_add must be the final access to it.
    let helpers = task.state.helpers;
    let shared = task.state.shared;
    if task.state.executors_done.fetch_add(1, Ordering::Release) + 1 == helpers {
        shared.notify_all();
    }
}

/// Help-loop backoff: spin briefly, then yield the core.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Help execute pool jobs until `complete()` holds. When no job is
/// available and the wait is still on, back off briefly and then *park* on
/// the pool condvar instead of burning a core — push_jobs and the
/// batch/join completion hooks all notify it.
fn help_until<C: Fn() -> bool>(shared: &Shared, complete: C) {
    let mut spins = 0u32;
    loop {
        if complete() {
            return;
        }
        match shared.pop_job(0) {
            // SAFETY: popped jobs are live until run (batch protocol); this
            // may execute another batch's job, which is exactly stealing.
            Some(job) => unsafe { job.run() },
            None if spins < 64 => backoff(&mut spins),
            None => {
                let guard = shared.gate.lock().unwrap();
                // Re-check under the gate: completion/push notifies take the
                // same mutex, so no wakeup can slip between check and wait.
                if complete() {
                    return;
                }
                if shared.pending.load(Ordering::Acquire) == 0 {
                    drop(shared.cond.wait(guard).unwrap());
                }
            }
        }
    }
}

/// Run `f(0)`, `f(1)`, …, `f(chunks - 1)`, each exactly once, across at most
/// the effective thread count of threads (the calling thread plus
/// `effective_threads - 1` pool executors pulling chunk indices off a shared
/// counter). Returns when all have finished; re-throws the first panic.
pub(crate) fn run_batch<F: Fn(usize) + Sync>(chunks: usize, f: F) {
    let helpers = effective_threads()
        .saturating_sub(1)
        .min(chunks.saturating_sub(1));
    if helpers == 0 {
        // Sequential: every chunk inline, in index order.
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    let pool = global();
    pool.ensure_workers(helpers);
    let shared: &'static Shared = &pool.shared;
    let state = BatchState {
        next: AtomicUsize::new(0),
        chunks,
        done: AtomicUsize::new(0),
        executors_done: AtomicUsize::new(0),
        helpers,
        panic: Mutex::new(None),
        inherit: OVERRIDE.with(Cell::get),
        shared,
    };
    let tasks: Vec<BatchTask<'_, F>> = (0..helpers)
        .map(|_| BatchTask {
            f: &f,
            state: &state,
        })
        .collect();
    shared.push_jobs(tasks.iter().map(|t| JobRef {
        data: std::ptr::from_ref(t).cast(),
        exec: exec_batch::<F>,
    }));
    // The submitter is always one of the batch's executors.
    drain_chunks(&f, &state);
    // Wait for both every chunk *and* every pushed executor job: a leftover
    // executor JobRef points into this stack frame, so returning before it
    // has been popped and run (even as a no-op) would dangle.
    help_until(shared, || {
        state.done.load(Ordering::Acquire) == chunks
            && state.executors_done.load(Ordering::Acquire) == helpers
    });
    let payload = state.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// State shared between a sticky batch's executors and its submitter:
/// chunk indices are pre-banded onto node groups instead of pulled off one
/// global counter.
struct StickyState {
    /// Per node: the `[lo, hi)` chunk band it owns.
    bands: Vec<(usize, usize)>,
    /// Per node: positions claimed within its band (monotonic).
    next: Vec<AtomicUsize>,
    /// Total chunks in the batch.
    chunks: usize,
    /// Chunks fully executed.
    done: AtomicUsize,
    /// Pushed executor jobs that have been popped and finished.
    executors_done: AtomicUsize,
    /// Executor jobs pushed (`executors_done`'s target).
    helpers: usize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Submitter's install override, inherited by every executor.
    inherit: usize,
    /// For waking a parked submitter on completion.
    shared: &'static Shared,
}

struct StickyTask<'a, F> {
    f: &'a F,
    state: &'a StickyState,
}

/// Drain a sticky batch from the perspective of a thread homed at node
/// `start`: exhaust the home band, then steal from remote bands in node
/// order. One pass over the bands is complete — band cursors are monotonic,
/// so a band observed empty stays empty.
fn drain_bands<F: Fn(usize) + Sync>(f: &F, state: &StickyState, start: usize) {
    let groups = state.bands.len();
    for off in 0..groups {
        let node = (start + off) % groups;
        let (lo, hi) = state.bands[node];
        loop {
            let i = lo + state.next[node].fetch_add(1, Ordering::Relaxed);
            if i >= hi {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                state.panic.lock().unwrap().get_or_insert(payload);
            }
            if state.done.fetch_add(1, Ordering::Release) + 1 == state.chunks {
                state.shared.notify_all();
            }
        }
    }
}

/// Type-erased executor for a sticky batch. Drains bands starting from the
/// *executing* thread's node, so whichever worker pops the job prefers the
/// chunks banded to its own node.
///
/// # Safety
/// `ptr` must point to a live `StickyTask<F>` and be executed at most once.
unsafe fn exec_sticky<F: Fn(usize) + Sync>(ptr: *const ()) {
    // SAFETY: per the contract above.
    let task = unsafe { &*ptr.cast::<StickyTask<'_, F>>() };
    let prev = set_override(task.state.inherit);
    drain_bands(task.f, task.state, crate::topology::current_node());
    set_override(prev);
    // Copy out of the state *before* publishing completion (see
    // `exec_batch`): the fetch_add below must be the final access.
    let helpers = task.state.helpers;
    let shared = task.state.shared;
    if task.state.executors_done.fetch_add(1, Ordering::Release) + 1 == helpers {
        shared.notify_all();
    }
}

/// Sticky variant of [`run_batch`]: run `f(0)..f(chunks-1)` exactly once
/// each, with chunk `i` banded to node group `i * nodes / chunks`. Repeated
/// sticky batches over the same chunk count therefore hand chunk `i` to a
/// stable worker group (warm caches for per-shard work), while cross-band
/// stealing keeps the schedule work-conserving. With one effective thread
/// this is bit-for-bit the sequential `for i in 0..chunks` schedule.
pub(crate) fn run_batch_sticky<F: Fn(usize) + Sync>(chunks: usize, f: F) {
    let helpers = effective_threads()
        .saturating_sub(1)
        .min(chunks.saturating_sub(1));
    if helpers == 0 {
        // Sequential: every chunk inline, in index order (band order is
        // ascending, so this equals the banded order too).
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    let pool = global();
    pool.ensure_workers(helpers);
    let shared: &'static Shared = &pool.shared;
    let groups = shared.node_queues.len().max(1);
    let bands: Vec<(usize, usize)> = (0..groups)
        .map(|g| (chunks * g / groups, chunks * (g + 1) / groups))
        .collect();
    let state = StickyState {
        next: (0..groups).map(|_| AtomicUsize::new(0)).collect(),
        bands,
        chunks,
        done: AtomicUsize::new(0),
        executors_done: AtomicUsize::new(0),
        helpers,
        panic: Mutex::new(None),
        inherit: OVERRIDE.with(Cell::get),
        shared,
    };
    let tasks: Vec<StickyTask<'_, F>> = (0..helpers)
        .map(|_| StickyTask {
            f: &f,
            state: &state,
        })
        .collect();
    // Target the executor jobs at the nodes *after* the submitter's, so the
    // submitter's own band is not oversubscribed.
    let my_node = crate::topology::current_node();
    let mut pushed = 0usize;
    for (j, t) in tasks.iter().enumerate() {
        shared.push_to_node(
            (my_node + 1 + j) % groups,
            JobRef {
                data: std::ptr::from_ref(t).cast(),
                exec: exec_sticky::<F>,
            },
        );
        pushed += 1;
    }
    if pushed > 0 {
        shared.notify_all();
    }
    // The submitter is always one of the batch's executors.
    drain_bands(&f, &state, my_node);
    // Wait for both every chunk *and* every pushed executor job (see
    // `run_batch` for why leftovers would dangle).
    help_until(shared, || {
        state.done.load(Ordering::Acquire) == chunks
            && state.executors_done.load(Ordering::Acquire) == helpers
    });
    let payload = state.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Number of node groups the pool schedules across (1 until the pool
/// exists on a single-node box; the detected node count otherwise).
#[must_use]
pub fn num_node_groups() -> usize {
    POOL.get().map_or_else(
        || crate::topology::current().num_nodes(),
        |p| p.shared.node_queues.len(),
    )
}

/// One-shot deferred closure used by [`join`].
struct JoinTask<B, RB> {
    b: std::cell::UnsafeCell<Option<B>>,
    rb: std::cell::UnsafeCell<Option<Result<RB, Box<dyn std::any::Any + Send>>>>,
    done: AtomicUsize,
    inherit: usize,
    /// For waking a parked join waiter on completion.
    shared: &'static Shared,
}

// SAFETY: the UnsafeCells are touched only by the single thread that pops
// the job; the submitter reads them only after observing `done` (Acquire).
unsafe impl<B: Send, RB: Send> Sync for JoinTask<B, RB> {}

/// # Safety
/// `ptr` must point to a live `JoinTask<B, RB>` and be executed at most once.
unsafe fn exec_join<B: FnOnce() -> RB + Send, RB: Send>(ptr: *const ()) {
    // SAFETY: per the contract above.
    let task = unsafe { &*ptr.cast::<JoinTask<B, RB>>() };
    // SAFETY: only the executing thread touches the cells before `done`.
    let b = unsafe { (*task.b.get()).take().expect("join job run twice") };
    let prev = set_override(task.inherit);
    let result = catch_unwind(AssertUnwindSafe(b));
    set_override(prev);
    // SAFETY: as above.
    unsafe { *task.rb.get() = Some(result) };
    // Copy the notify target *before* publishing: the store lets the join
    // caller return and destroy the stack-allocated JoinTask, so it must be
    // the final access to the task.
    let shared = task.shared;
    task.done.store(1, Ordering::Release);
    shared.notify_all();
}

/// Run `oper_a` and `oper_b`, potentially in parallel, returning both
/// results (rayon's fork-join).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let threads = effective_threads();
    if threads <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let pool = global();
    // A join pushes one job, but joins nest: size the pool for the whole
    // effective thread count, as a batch of that width would.
    pool.ensure_workers(threads - 1);
    let shared: &'static Shared = &pool.shared;
    let task = JoinTask::<B, RB> {
        b: std::cell::UnsafeCell::new(Some(oper_b)),
        rb: std::cell::UnsafeCell::new(None),
        done: AtomicUsize::new(0),
        inherit: OVERRIDE.with(Cell::get),
        shared,
    };
    shared.push_jobs(std::iter::once(JobRef {
        data: std::ptr::from_ref(&task).cast(),
        exec: exec_join::<B, RB>,
    }));
    // Must not unwind past `task` while the job may still run: catch, wait,
    // then re-throw. Helping may pop and run our own `oper_b` inline — that
    // is the desired fast path.
    let ra = catch_unwind(AssertUnwindSafe(oper_a));
    help_until(shared, || task.done.load(Ordering::Acquire) == 1);
    // SAFETY: `done` was observed with Acquire; the executor is finished.
    let rb = unsafe { (*task.rb.get()).take().expect("join job dropped") };
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) | (_, Err(p)) => resume_unwind(p),
    }
}

/// Number of worker threads the pool would use right now (the effective
/// thread count, counting the submitting thread).
#[must_use]
pub fn current_num_threads() -> usize {
    effective_threads()
}
