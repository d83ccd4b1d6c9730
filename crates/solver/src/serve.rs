//! The serve engine: connectivity-as-a-service over incremental
//! union-find.
//!
//! ## Writer/reader split
//!
//! Writers call [`ServeEngine::submit_batch`]; batches travel over a
//! channel to one background **merge thread** owning the long-lived
//! [`IncrementalUnionFind`] state, which absorbs a batch by relabeling the
//! smaller side of each union (O(n log n) relabels over a whole run, O(1)
//! per edge that joins nothing). After folding a batch group in, the merge
//! thread builds the next epoch's [`LabelSnapshot`] from the one it
//! published last plus the state's change log: pages holding a relabeled
//! vertex or a resized root are rebuilt, every other page is shared. So
//! an epoch costs O(changed) — a one-edge commit rebuilds at most one
//! label page and two size pages, whatever n is — and the snapshot is
//! published with an `Arc` swap.
//!
//! A submit wakes the merge thread, and the scheduler may place it on the
//! writer's own core (it often does on a busy shared host); a freshly
//! woken thread then takes the core at once, and the writer waits out the
//! whole absorb inside `submit_batch`. On a 2-vCPU host those waits came
//! to a third of a 1M-edge bulk ingest in some runs and to nothing in
//! others. So the merge thread yields once each time it wakes: the writer
//! keeps its core, and the merge runs on another core or once the writer
//! blocks (in its next fsync or flush).
//!
//! Readers call [`ServeEngine::snapshot`] to pin the current `Arc`, after
//! which every query runs against that pinned epoch with no locks at all.
//! Each thread caches its last pin as a `Weak` keyed by engine and epoch,
//! and the merge thread stores the published epoch in an atomic inside
//! the swap; a pin whose key still matches upgrades the `Weak`, so a
//! thread takes the snapshot's read lock again only after a publish. The
//! cache holds no snapshot alive: a dropped engine's last epoch is freed
//! as soon as its callers let go. Reads therefore **never block on an
//! in-flight merge** and **never observe a half-merged epoch** — the merge
//! thread builds each snapshot off to the side and the swap is atomic.
//! This is the Liu–Tarjan concurrent-labeling contract specialized to a
//! single-writer world: readers only ever see published fixpoints.
//!
//! ## Batching and epochs
//!
//! The merge thread coalesces batches that queued up while it was busy —
//! up to [`COALESCE`] per epoch — so a flood of small batches costs one
//! publish, not one per batch. [`ServeEngine::last_publish`] reports the
//! last epoch's publish wall and relabel count. Epochs are monotone;
//! [`ServeEngine::flush`] blocks until everything submitted so far is
//! reflected in the published snapshot (the read barrier a
//! read-your-writes client needs). It stays the barrier under the pin
//! cache: the epoch is stored before `merged` moves, so once a flush
//! returns, a pin on any thread it has signalled sees the flushed epoch
//! or a later one.
//!
//! ## Supervision
//!
//! Each merge group is absorbed under a panic guard. A panicking engine
//! (or an armed `serve-merge` failpoint) used to kill the merge thread
//! silently, wedging every future [`ServeEngine::flush`] forever; now the
//! group is **counted as processed but failed** — the previous snapshot
//! stays published, [`ServeEngine::merge_failures`] /
//! [`ServeEngine::last_merge_error`] surface what happened, and the loop
//! keeps merging subsequent batches. Failed batches are absent from
//! in-memory state (a WAL replay on restart heals them); flush waiters
//! always wake.
//!
//! ## The line protocol
//!
//! [`Session`] is `parcc serve`: an engine plus the writer's edge buffer
//! and an optional write-ahead log, answering one protocol line per
//! [`Session::command`]. Three durability rules live in it and nowhere
//! else: a committed batch is appended to the WAL *before* it is
//! submitted and acknowledged; each merge failure is reported exactly
//! once, at the next `flush`; and `save` compacts the WAL only when no
//! merge has failed, since the log is then the only durable copy of the
//! failed batches.

use parcc_baselines::IncrementalUnionFind;
use parcc_graph::io::{save_binary, DEFAULT_LOAD_CHUNK};
use parcc_graph::snapshot::LabelSnapshot;
use parcc_graph::store::{GraphStore, ShardedGraph};
use parcc_graph::wal::{SyncPolicy, Wal};
use parcc_pram::edge::Edge;
use std::cell::RefCell;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock, Weak};
use std::thread;
use std::time::Instant;

/// Max batches folded into a single epoch publish.
pub const COALESCE: usize = 64;

/// What the merge thread needs from its state. [`IncrementalUnionFind`]
/// is the one engine; the seam lets tests substitute a deliberately slow
/// stand-in.
pub trait ServeState {
    /// Fold one edge batch in, growing the vertex space as needed.
    fn absorb_batch(&mut self, edges: &[Edge]);

    /// The snapshot for `epoch`, built from `prev` — the last snapshot
    /// published from this state, or [`LabelSnapshot::empty`] at start —
    /// and the number of vertices relabeled since `prev`. The snapshot
    /// must carry `epoch`: readers' pin caches key on it.
    fn publish(&mut self, prev: &LabelSnapshot, epoch: u64) -> (LabelSnapshot, u64);
}

impl ServeState for IncrementalUnionFind {
    fn absorb_batch(&mut self, edges: &[Edge]) {
        IncrementalUnionFind::absorb_batch(self, edges);
    }
    fn publish(&mut self, prev: &LabelSnapshot, epoch: u64) -> (LabelSnapshot, u64) {
        IncrementalUnionFind::publish(self, prev, epoch)
    }
}

/// What the most recent epoch's publish cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Wall time of building the snapshot, in microseconds.
    pub micros: u64,
    /// Vertices relabeled since the previous epoch.
    pub relabeled: u64,
}

/// Merge progress counters, guarded by one mutex with a condvar for the
/// flush barrier. `merged` counts batches *processed* (absorbed or
/// failed) so the barrier can never hang; `failed` counts the subset
/// whose absorption panicked.
struct Progress {
    submitted: u64,
    merged: u64,
    edges: u64,
    failed: u64,
    last_error: Option<String>,
    last_publish: PublishStats,
}

/// Source of [`Shared::id`]: ids are never reused, so a pin cached for a
/// dropped engine can never match a later one.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// State shared between the engine handle and the merge thread.
struct Shared {
    /// Keys this engine's entries in the per-thread [`PIN`] cache.
    id: u64,
    /// The published snapshot's epoch, stored (`Release`) inside the
    /// write-locked swap and loaded (`Acquire`) by every pin.
    epoch: AtomicU64,
    /// The published snapshot. Writers swap the `Arc` under a brief write
    /// lock; a reader clones it under a brief read lock only when its
    /// thread's [`PIN`] is stale, i.e. once per publish. Neither side ever
    /// holds the lock while *building* anything.
    snapshot: RwLock<Arc<LabelSnapshot>>,
    progress: Mutex<Progress>,
    merged_cv: Condvar,
}

impl Shared {
    /// Pin through the lock, the path every thread takes once per publish.
    fn pin_locked(&self) -> Arc<LabelSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot poisoned"))
    }
}

/// A thread's last pin: the engine id, the epoch it was published at and
/// a `Weak` to it, so the cache never keeps a snapshot alive.
struct Pin {
    engine: u64,
    epoch: u64,
    snap: Weak<LabelSnapshot>,
}

thread_local! {
    static PIN: RefCell<Pin> = const {
        RefCell::new(Pin { engine: u64::MAX, epoch: 0, snap: Weak::new() })
    };
}

/// A running serve engine: one background merge thread plus the published
/// snapshot. Dropping the engine closes the batch channel and joins the
/// merge thread (absorbing any still-queued batches first).
pub struct ServeEngine {
    tx: Option<mpsc::Sender<Vec<Edge>>>,
    shared: Arc<Shared>,
    merger: Option<thread::JoinHandle<()>>,
}

impl ServeEngine {
    /// Start serving from prepared incremental state. The state's current
    /// labels become the epoch-0 snapshot (so an initial graph absorbed
    /// before start is queryable immediately).
    #[must_use]
    pub fn start(mut state: impl ServeState + Send + 'static) -> Self {
        let (initial, last_publish) = timed_publish(&mut state, &LabelSnapshot::empty(0), 0);
        let shared = Arc::new(Shared {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(initial.epoch()),
            snapshot: RwLock::new(Arc::new(initial)),
            progress: Mutex::new(Progress {
                submitted: 0,
                merged: 0,
                edges: 0,
                failed: 0,
                last_error: None,
                last_publish,
            }),
            merged_cv: Condvar::new(),
        });
        let (tx, rx) = mpsc::channel::<Vec<Edge>>();
        let merger = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || merge_loop(&mut state, &rx, &shared))
        };
        Self {
            tx: Some(tx),
            shared,
            merger: Some(merger),
        }
    }

    /// Submit one edge batch for background absorption; returns the batch
    /// sequence number (1-based). Never blocks on the merge.
    pub fn submit_batch(&self, edges: Vec<Edge>) -> u64 {
        let seq = {
            let mut p = self.shared.progress.lock().expect("progress poisoned");
            p.submitted += 1;
            p.edges += edges.len() as u64;
            p.submitted
        };
        self.tx
            .as_ref()
            .expect("engine running")
            .send(edges)
            .expect("merge thread alive");
        seq
    }

    /// Pin the current published snapshot. While nothing new has been
    /// published, this upgrades the thread's cached `Weak`; after a
    /// publish, the thread's first pin takes a brief read lock to clone
    /// the new `Arc` and re-fills the cache. All queries on the returned
    /// snapshot are lock-free and the view is immutable — later merges
    /// publish *new* snapshots.
    #[must_use]
    pub fn snapshot(&self) -> Arc<LabelSnapshot> {
        let shared = &*self.shared;
        PIN.try_with(|pin| {
            let mut pin = pin.borrow_mut();
            if pin.engine == shared.id && pin.epoch == shared.epoch.load(Ordering::Acquire) {
                if let Some(snap) = pin.snap.upgrade() {
                    return snap;
                }
            }
            let snap = shared.pin_locked();
            *pin = Pin {
                engine: shared.id,
                epoch: snap.epoch(),
                snap: Arc::downgrade(&snap),
            };
            snap
        })
        // The cache is gone while the thread's locals are torn down.
        .unwrap_or_else(|_| shared.pin_locked())
    }

    /// Block until every batch submitted before this call is reflected in
    /// the published snapshot, then return that snapshot (read barrier).
    #[must_use]
    pub fn flush(&self) -> Arc<LabelSnapshot> {
        let mut p = self.shared.progress.lock().expect("progress poisoned");
        let target = p.submitted;
        while p.merged < target {
            p = self.shared.merged_cv.wait(p).expect("progress poisoned");
        }
        drop(p);
        self.snapshot()
    }

    /// Batches submitted so far.
    #[must_use]
    pub fn submitted_batches(&self) -> u64 {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .submitted
    }

    /// Batches merged into the published snapshot so far.
    #[must_use]
    pub fn merged_batches(&self) -> u64 {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .merged
    }

    /// Total edges submitted so far.
    #[must_use]
    pub fn submitted_edges(&self) -> u64 {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .edges
    }

    /// Batches whose absorption panicked (counted as processed so the
    /// flush barrier never hangs, but absent from the published labels —
    /// a WAL replay on restart heals them).
    #[must_use]
    pub fn merge_failures(&self) -> u64 {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .failed
    }

    /// The panic message of the most recent merge failure, if any.
    #[must_use]
    pub fn last_merge_error(&self) -> Option<String> {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .last_error
            .clone()
    }

    /// Publish cost of the most recent epoch (epoch 0's is the full build
    /// at start).
    #[must_use]
    pub fn last_publish(&self) -> PublishStats {
        self.shared
            .progress
            .lock()
            .expect("progress poisoned")
            .last_publish
    }

    /// Epoch of the currently published snapshot.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        drop(self.tx.take()); // closes the channel; the merge loop drains and exits
        if let Some(h) = self.merger.take() {
            let _ = h.join();
        }
    }
}

/// Best-effort human-readable message out of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Build the snapshot after `prev` and time it.
fn timed_publish(
    state: &mut dyn ServeState,
    prev: &LabelSnapshot,
    epoch: u64,
) -> (LabelSnapshot, PublishStats) {
    let t0 = Instant::now();
    let (snap, relabeled) = state.publish(prev, epoch);
    let stats = PublishStats {
        micros: t0.elapsed().as_micros() as u64,
        relabeled,
    };
    (snap, stats)
}

/// The merge thread: block on the next batch, opportunistically coalesce
/// whatever else queued up (bounded), absorb under a panic guard, publish
/// one snapshot built from the previous one. A panicking group is recorded
/// as failed (previous snapshot stays live) and the loop continues — the
/// supervisor contract from the module docs.
fn merge_loop(state: &mut dyn ServeState, rx: &mpsc::Receiver<Vec<Edge>>, shared: &Shared) {
    let mut current = shared.pin_locked();
    while let Ok(first) = rx.recv() {
        // A submit that woke this thread may have put it on the writer's
        // core, where it would run the whole absorb before the writer
        // gets the core back (see the module docs): hand the core back
        // first.
        thread::yield_now();
        let mut group = vec![first];
        while group.len() < COALESCE {
            match rx.try_recv() {
                Ok(batch) => group.push(batch),
                Err(_) => break,
            }
        }
        // AssertUnwindSafe: on panic the state may hold a partially
        // absorbed group, which only under-merges connectivity (absorption
        // is idempotent and monotone — re-absorbing on replay is safe), and
        // the next publish still covers every change since `current`.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(kind) = parcc_pram::failpoint::check("serve-merge") {
                // No bytes to tear in a pure in-memory path: every kind
                // degrades to the one failure it can exhibit.
                panic!("injected failpoint {} at serve-merge", kind.name());
            }
            for batch in &group {
                state.absorb_batch(batch);
            }
            // Build the snapshot *outside* the lock: readers keep serving
            // the previous epoch until the single atomic swap below.
            timed_publish(state, &current, current.epoch() + 1)
        }));
        // Publish (or record the failure) *before* bumping `merged`, so a
        // flush waiter that wakes on the new count observes the outcome.
        match outcome {
            Ok((fresh, stats)) => {
                current = Arc::new(fresh);
                {
                    let mut published = shared.snapshot.write().expect("snapshot poisoned");
                    *published = Arc::clone(&current);
                    // Release pairs with the Acquire in `snapshot`/`epoch`;
                    // `merged` moves only after this, so a flush sees it.
                    shared.epoch.store(current.epoch(), Ordering::Release);
                }
                let mut p = shared.progress.lock().expect("progress poisoned");
                p.merged += group.len() as u64;
                p.last_publish = stats;
            }
            Err(payload) => {
                let mut p = shared.progress.lock().expect("progress poisoned");
                p.merged += group.len() as u64;
                p.failed += group.len() as u64;
                p.last_error = Some(panic_message(&*payload));
            }
        }
        shared.merged_cv.notify_all();
    }
}

/// What one protocol line produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A blank line or a `#` comment: nothing to write.
    Silent,
    /// The reply (several lines for `help`, and for `stats` under a WAL);
    /// `error: …` when the command failed, and the session goes on.
    Text(String),
    /// `quit` or `exit`: write `bye` and end the session.
    Quit,
}

/// The protocol's command list, the `help` reply.
pub const HELP: &str = "commands:\n\
    \x20 add u v [u v ...]    buffer edges for the next batch\n\
    \x20 commit               submit buffered edges as one batch (async merge;\n\
    \x20                      under --wal the batch is appended to the log\n\
    \x20                      before the ack, so an acknowledged commit\n\
    \x20                      survives a crash)\n\
    \x20 flush                wait until all submitted batches are merged\n\
    \x20                      (reports `error: merge thread failed` if a\n\
    \x20                      merge panicked since the last flush)\n\
    \x20 save PATH            flush, then write the merged connectivity\n\
    \x20                      forest as a PGB binary (instant restart via\n\
    \x20                      `parcc serve PATH` — partition-equivalent,\n\
    \x20                      not the original edges); under --wal the log\n\
    \x20                      compacts, so restart cost stays O(n + tail)\n\
    \x20 same-component u v   query the current published snapshot\n\
    \x20 component-size v     size of v's component\n\
    \x20 component-count      number of components among tracked vertices\n\
    \x20 epoch                current published epoch\n\
    \x20 stats                engine summary, with the last epoch's publish\n\
    \x20                      wall (publish_us=) and relabel count\n\
    \x20                      (relabeled=); plus wal:/recovered: lines\n\
    \x20                      when --wal is active\n\
    \x20 quit                 exit";

/// A serving session: the engine, the writer's buffered edges, the
/// optional WAL, and how many merge failures the client has been told of.
pub struct Session {
    engine: ServeEngine,
    pending: Vec<Edge>,
    wal: Option<Wal>,
    /// Batches, edges and torn tail bytes the WAL replayed at open.
    recovered: (u64, u64, u64),
    reported_failures: u64,
}

impl Session {
    /// Absorb `preload` (it becomes the epoch-0 snapshot), open and replay
    /// the WAL at `wal` if given, and start the engine.
    ///
    /// # Errors
    /// When the WAL cannot be opened or is not a parcc WAL.
    pub fn open(
        preload: Option<&dyn GraphStore>,
        wal: Option<(&Path, SyncPolicy)>,
    ) -> Result<Self, String> {
        let mut state = IncrementalUnionFind::new(0);
        if let Some(g) = preload {
            state.ensure_n(g.n());
            for i in 0..g.shard_count() {
                state.absorb_batch(g.shard(i));
            }
        }
        let mut recovered = (0, 0, 0);
        let wal = match wal {
            None => None,
            Some((path, policy)) => {
                let (wal, replay) = Wal::open(path, policy)?;
                // Replay before the engine starts: recovered batches are
                // part of the epoch-0 snapshot, exactly like a preloaded
                // graph. Replay is idempotent for connectivity, so batches
                // also captured in a preloaded snapshot merge harmlessly.
                state.absorb_batches(&replay.batches);
                recovered = (replay.batch_count(), replay.edges, replay.torn_bytes);
                Some(wal)
            }
        };
        Ok(Self {
            engine: ServeEngine::start(state),
            pending: Vec::new(),
            wal,
            recovered,
            reported_failures: 0,
        })
    }

    /// The recovery summary line under a WAL: what was replayed, from
    /// where, under which sync policy, and any torn tail truncated.
    #[must_use]
    pub fn wal_summary(&self) -> Option<String> {
        let wal = self.wal.as_ref()?;
        let (batches, edges, torn) = self.recovered;
        Some(format!(
            "wal: replayed {batches} batches ({edges} edges) from {} [sync={}]{}",
            wal.path().display(),
            wal.policy().name(),
            if torn > 0 {
                format!("; truncated {torn} torn tail bytes")
            } else {
                String::new()
            }
        ))
    }

    /// Buffer `edges` for the next [`commit`](Self::commit); returns the
    /// buffer's length.
    pub fn add(&mut self, edges: &[Edge]) -> usize {
        self.pending.extend_from_slice(edges);
        self.pending.len()
    }

    /// Submit the buffer as one batch; returns its sequence number and
    /// edge count. Under a WAL the batch reaches the log first, so every
    /// acknowledged batch survives a crash.
    ///
    /// # Errors
    /// On an empty buffer, or when the WAL append fails. The buffer is
    /// then kept, and a retried commit overwrites any torn bytes (the WAL
    /// rewinds to its last record).
    pub fn commit(&mut self) -> Result<(u64, usize), String> {
        if self.pending.is_empty() {
            return Err("nothing to commit (use `add u v` first)".into());
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&self.pending).map_err(|e| {
                format!("commit: wal append failed ({e}); batch kept pending, retry commit")
            })?;
        }
        let edges = self.pending.len();
        Ok((
            self.engine.submit_batch(std::mem::take(&mut self.pending)),
            edges,
        ))
    }

    /// Wait until every submitted batch is merged; the read barrier.
    ///
    /// # Errors
    /// Once per merge failure since the last flush: asynchronous merge
    /// failures become visible here.
    pub fn flush(&mut self) -> Result<Arc<LabelSnapshot>, String> {
        let snap = self.engine.flush();
        let failures = self.engine.merge_failures();
        if failures > self.reported_failures {
            self.reported_failures = failures;
            let detail = self
                .engine
                .last_merge_error()
                .unwrap_or_else(|| "unknown panic".into());
            return Err(format!(
                "merge thread failed: {detail} (failures={failures}; merging resumed, \
                 restart with --wal to recover the lost batches)"
            ));
        }
        Ok(snap)
    }

    /// Flush, then persist the star forest `(v, label(v))` — the smallest
    /// edge set with the same partition — as a PGB binary at `path`.
    /// Restarting from it rebuilds identical connectivity from O(n) edges,
    /// however many inserts the session absorbed. The snapshot then covers
    /// every merged batch, so the WAL compacts, unless a merge failed.
    fn save(&mut self, path: &str) -> Result<String, String> {
        let snap = self.engine.flush();
        let edges: Vec<Edge> = snap
            .labels()
            .iter()
            .enumerate()
            .filter(|&(v, &l)| v as u32 != l)
            .map(|(v, &l)| Edge::new(v as u32, l))
            .collect();
        let k = edges.len().div_ceil(DEFAULT_LOAD_CHUNK).max(1);
        let forest = ShardedGraph::from_slice(snap.n(), &edges, k);
        let bytes = save_binary(&forest, path).map_err(|e| format!("save {path}: {e}"))?;
        let mut reply = format!(
            "saved {path} epoch={} n={} edges={} bytes={bytes}",
            snap.epoch(),
            snap.n(),
            edges.len()
        );
        if let Some(wal) = self.wal.as_mut() {
            if self.engine.merge_failures() == 0 {
                wal.compact()
                    .map_err(|e| format!("save {path}: wal compact failed: {e}"))?;
                reply.push_str(" wal=compacted");
            } else {
                reply.push_str(" wal=kept");
            }
        }
        Ok(reply)
    }

    /// Answer one protocol line.
    pub fn command(&mut self, line: &str) -> Reply {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Reply::Silent;
        }
        match self.answer(line) {
            Ok(Some(reply)) => Reply::Text(reply),
            Ok(None) => Reply::Quit,
            Err(e) => Reply::Text(format!("error: {e}")),
        }
    }

    /// One non-blank line's reply; `None` for `quit`.
    fn answer(&mut self, line: &str) -> Result<Option<String>, String> {
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap_or_default();
        let args: Vec<&str> = words.collect();
        let arity = match cmd {
            "add" => args.len(),
            "same-component" => 2,
            "component-size" | "save" => 1,
            "commit" | "flush" | "component-count" | "epoch" | "stats" | "help" | "quit"
            | "exit" => 0,
            other => return Err(format!("unknown command '{other}' (try `help`)")),
        };
        if args.len() > arity {
            return Err(format!(
                "{cmd} takes {arity} argument(s); unexpected '{}'",
                args[arity..].join(" ")
            ));
        }
        let vertex = |i: usize| -> Result<u32, String> {
            let s = args
                .get(i)
                .ok_or_else(|| format!("{cmd}: missing vertex id"))?;
            s.parse()
                .map_err(|e| format!("{cmd}: bad vertex '{s}': {e}"))
        };
        Ok(Some(match cmd {
            "add" => {
                if args.is_empty() || !args.len().is_multiple_of(2) {
                    return Err(format!(
                        "add expects an even number of vertex ids, got {}",
                        args.len()
                    ));
                }
                let mut edges = Vec::with_capacity(args.len() / 2);
                for i in (0..args.len()).step_by(2) {
                    let (u, v) = (vertex(i)?, vertex(i + 1)?);
                    // The vertex space holds ids below u32::MAX (n must
                    // fit in u32); refuse the rest before the batch
                    // reaches the WAL.
                    if u.max(v) == u32::MAX {
                        return Err(format!(
                            "add: vertex id {} out of range (max {})",
                            u32::MAX,
                            u32::MAX - 1
                        ));
                    }
                    edges.push(Edge::new(u, v));
                }
                // All-or-nothing: a parse error above buffers nothing.
                format!("ok pending={}", self.add(&edges))
            }
            "commit" => {
                let (seq, edges) = self.commit()?;
                format!("batch {seq} edges={edges}")
            }
            "flush" => format!("epoch {}", self.flush()?.epoch()),
            "save" => self.save(args.first().ok_or("save: missing output path")?)?,
            "same-component" | "component-size" | "component-count" => {
                let snap = self.engine.snapshot();
                let answer = match cmd {
                    "same-component" => snap.same_component(vertex(0)?, vertex(1)?).to_string(),
                    "component-size" => snap.component_size(vertex(0)?).to_string(),
                    _ => snap.component_count().to_string(),
                };
                format!("{cmd} {answer} epoch={}", snap.epoch())
            }
            "epoch" => format!("epoch {}", self.engine.epoch()),
            "stats" => self.stats(),
            "help" => HELP.into(),
            _ => return Ok(None), // quit | exit
        }))
    }

    /// The `stats` reply: engine counters and the last publish, plus the
    /// `wal:` and `recovered:` lines under a WAL.
    fn stats(&self) -> String {
        let e = &self.engine;
        let snap = e.snapshot();
        let publish = e.last_publish();
        let mut reply = format!(
            "stats algo=union-find n={} components={} epoch={} submitted={} merged={} pending={} failures={} publish_us={} relabeled={}",
            snap.n(),
            snap.component_count(),
            snap.epoch(),
            e.submitted_batches(),
            e.merged_batches(),
            self.pending.len(),
            e.merge_failures(),
            publish.micros,
            publish.relabeled
        );
        if let Some(wal) = self.wal.as_ref() {
            reply.push_str(&format!(
                "\nwal: path={} sync={} records={} bytes={} synced={}\nrecovered: batches={} edges={}",
                wal.path().display(),
                wal.policy().name(),
                wal.records(),
                wal.bytes(),
                wal.syncs(),
                self.recovered.0,
                self.recovered.1
            ));
        }
        reply
    }

    /// The protocol loop: one reply per command line, each flushed before
    /// the next line is read, until `quit` or the end of `input`.
    ///
    /// # Errors
    /// When reading `input` or writing `out` fails.
    pub fn run<R: BufRead, W: Write>(&mut self, input: R, mut out: W) -> Result<(), String> {
        for line in input.lines() {
            let line = line.map_err(|e| e.to_string())?;
            let (reply, quit) = match self.command(&line) {
                Reply::Silent => continue,
                Reply::Text(reply) => (reply, false),
                Reply::Quit => ("bye".into(), true),
            };
            writeln!(out, "{reply}").map_err(|e| e.to_string())?;
            out.flush().map_err(|e| e.to_string())?;
            if quit {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};
    use parcc_graph::Graph;

    #[test]
    fn epoch_zero_covers_the_initial_state() {
        let g = gen::cycle(6);
        let mut state = IncrementalUnionFind::new(0);
        state.absorb_batch(g.edges());
        let engine = ServeEngine::start(state);
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.n(), 6);
        assert!(snap.same_component(0, 3));
        assert_eq!(snap.component_count(), 1);
    }

    #[test]
    fn flush_is_a_read_barrier_and_answers_match_oracle() {
        // Merges see the process-wide failpoints; hold them unarmed so a
        // sibling test's armed `serve-merge` cannot kill this test's merge.
        let _guard = parcc_pram::failpoint::scoped("");
        let g = gen::gnp(200, 0.02, 3);
        let edges = g.edges();
        let engine = ServeEngine::start(IncrementalUnionFind::new(0));
        let step = edges.len().div_ceil(5).max(1);
        let mut absorbed = 0;
        for batch in edges.chunks(step) {
            engine.submit_batch(batch.to_vec());
            absorbed += batch.len();
            let snap = engine.flush();
            let prefix = Graph::new(snap.n(), edges[..absorbed].to_vec());
            assert!(
                same_partition(snap.labels(), &components(&prefix)),
                "epoch {} diverges from oracle",
                snap.epoch()
            );
        }
        assert_eq!(engine.submitted_edges(), edges.len() as u64);
        assert_eq!(engine.merged_batches(), engine.submitted_batches());
    }

    #[test]
    fn pinned_snapshots_are_immutable_under_writes() {
        let _guard = parcc_pram::failpoint::scoped("");
        let engine = ServeEngine::start(IncrementalUnionFind::new(4));
        let pinned = engine.snapshot();
        assert!(!pinned.same_component(0, 1));
        engine.submit_batch(vec![Edge::new(0, 1)]);
        let after = engine.flush();
        // The pinned epoch still answers from its frozen labels.
        assert!(!pinned.same_component(0, 1), "pinned view must not move");
        assert!(after.same_component(0, 1));
        assert!(after.epoch() > pinned.epoch(), "epochs are monotone");
    }

    #[test]
    fn coalescing_keeps_epochs_at_most_batches() {
        let _guard = parcc_pram::failpoint::scoped("");
        let engine = ServeEngine::start(IncrementalUnionFind::new(64));
        for i in 0..40u32 {
            engine.submit_batch(vec![Edge::new(i, i + 1)]);
        }
        let snap = engine.flush();
        assert_eq!(engine.merged_batches(), 40);
        assert!(
            snap.epoch() >= 1 && snap.epoch() <= 40,
            "epoch {}",
            snap.epoch()
        );
        assert!(snap.same_component(0, 40));
    }

    #[test]
    fn merge_panic_does_not_wedge_flush_and_merging_resumes() {
        let _guard = parcc_pram::failpoint::scoped("serve-merge:1:panic");
        let engine = ServeEngine::start(IncrementalUnionFind::new(8));
        engine.submit_batch(vec![Edge::new(0, 1)]);
        // The injected panic kills this group; flush must still return
        // (with the previous epoch-0 snapshot) instead of hanging forever.
        let snap = engine.flush();
        assert_eq!(snap.epoch(), 0, "failed group publishes nothing");
        assert!(!snap.same_component(0, 1), "failed batch is not merged");
        assert_eq!(engine.merge_failures(), 1);
        let err = engine.last_merge_error().expect("error recorded");
        assert!(err.contains("serve-merge"), "{err}");
        // The supervisor keeps the loop alive: later batches merge fine.
        engine.submit_batch(vec![Edge::new(2, 3)]);
        let snap = engine.flush();
        assert!(snap.same_component(2, 3), "merging resumed after panic");
        assert_eq!(engine.merge_failures(), 1, "no further failures");
        assert_eq!(engine.merged_batches(), 2, "failed batch still counted");
    }

    #[test]
    fn session_answers_one_reply_per_command_line() {
        let _guard = parcc_pram::failpoint::scoped("");
        let preload = gen::path(3);
        let mut session = Session::open(Some(&preload), None).unwrap();
        assert_eq!(session.command("# comment"), Reply::Silent);
        assert_eq!(session.command("quit"), Reply::Quit);
        let script = "same-component 0 2\n\nadd 3 4\ncommit now\ncommit\nflush\n\
                      component-size 4 9\ncomponent-size 4\nquit\nepoch\n";
        let mut out = Vec::new();
        session.run(script.as_bytes(), &mut out).unwrap();
        let replies: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(
            replies,
            [
                "same-component true epoch=0",
                "ok pending=1",
                "error: commit takes 0 argument(s); unexpected 'now'",
                "batch 1 edges=1",
                "epoch 1",
                "error: component-size takes 1 argument(s); unexpected '9'",
                "component-size 2 epoch=1",
                "bye",
            ]
        );
        assert!(session.wal_summary().is_none(), "no WAL, no summary");
    }

    #[test]
    fn failure_counters_start_clean() {
        let _guard = parcc_pram::failpoint::scoped("");
        let engine = ServeEngine::start(IncrementalUnionFind::new(4));
        engine.submit_batch(vec![Edge::new(0, 1)]);
        let _ = engine.flush();
        assert_eq!(engine.merge_failures(), 0);
        assert!(engine.last_merge_error().is_none());
    }
}
