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
//! ## One flat pool
//!
//! Deques are flat: submitters push round-robin over the live workers'
//! deques, and stealing scans them in ascending order. Workers are not
//! pinned; a lazily spawned worker inherits the CPU mask of the thread
//! that spawned it.
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
//!   [`std::thread::available_parallelism`]. An env value above
//!   [`MAX_ENV_THREADS`] (the 1024-CPU `cpu_set_t` width) is ignored, just
//!   as an unparsable one is.
//! * The **pool capacity** is `max(default, 8)`: the ceiling on what an
//!   explicit `ThreadPoolBuilder::num_threads(k).build().install(..)` can
//!   get, so installs exercise real concurrency (up to the capacity) even
//!   on small machines. The pool pre-allocates `capacity − 1` deques, but
//!   no threads.
//! * The **effective thread count** ([`effective_threads`]) is the install
//!   override when one is active on the current thread, else the default.
//!   When it is 1, callers run everything inline on the current thread in
//!   index order — bit-for-bit the schedule of the old sequential shim — and
//!   the pool is never touched.
//! * **Workers are spawned lazily**, in deque order. Before pushing, a
//!   batch or `join` at `t` effective threads makes sure workers `0..t − 1`
//!   exist (a batch with fewer chunks needs fewer). So a `--threads 2`
//!   process runs one worker, and the pool grows to `capacity − 1` only
//!   once an install asks for that many.
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
    /// One deque per worker thread.
    queues: Vec<Mutex<VecDeque<JobRef>>>,
    /// Round-robin push cursor over the live deques.
    cursor: AtomicUsize,
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

    /// Pop any job: the caller's own deque from the front, then steal from
    /// the back of the other live deques in ascending order. Only live
    /// workers' deques can hold jobs.
    fn pop_job(&self, home: usize) -> Option<JobRef> {
        if let Some(job) = self.try_pop(home, true) {
            return Some(job);
        }
        let spawned = self.spawned.load(Ordering::Acquire);
        (0..spawned)
            .filter(|&q| q != home)
            .find_map(|q| self.try_pop(q, false))
    }

    /// Push jobs round-robin over the live deques, then wake the pool.
    /// Callers must have spawned at least one worker.
    fn push_jobs(&self, jobs: impl Iterator<Item = JobRef>) {
        let spawned = self.spawned.load(Ordering::Acquire);
        debug_assert!(spawned > 0, "push before any worker was spawned");
        let mut pushed = 0usize;
        for job in jobs {
            let q = self.cursor.fetch_add(1, Ordering::Relaxed) % spawned;
            self.pending.fetch_add(1, Ordering::Release);
            self.queues[q].lock().unwrap().push_back(job);
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
    /// the missing workers in index order, then publish the new count.
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
            std::thread::Builder::new()
                .name(format!("parcc-worker-{i}"))
                .spawn(move || worker_loop(shared, i))
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

/// Largest `PARCC_THREADS`/`RAYON_NUM_THREADS` value honoured.
const MAX_ENV_THREADS: usize = 1024;

fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n <= MAX_ENV_THREADS)
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
        Pool {
            shared: Arc::new(Shared {
                queues,
                cursor: AtomicUsize::new(0),
                spawned: AtomicUsize::new(0),
                pending: AtomicUsize::new(0),
                gate: Mutex::new(()),
                cond: Condvar::new(),
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
