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
//! Readers call [`ServeEngine::snapshot`]: a brief read-lock to clone the
//! current `Arc`, after which every query runs against that pinned epoch
//! with no locks at all. Reads therefore **never block on an in-flight
//! merge** and **never observe a half-merged epoch** — the merge thread
//! builds each snapshot off to the side and the swap is atomic. This is
//! the Liu–Tarjan concurrent-labeling contract specialized to a
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
//! read-your-writes client needs).
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

use parcc_baselines::IncrementalUnionFind;
use parcc_graph::snapshot::LabelSnapshot;
use parcc_pram::edge::Edge;
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
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
    /// and the number of vertices relabeled since `prev`.
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

/// State shared between the engine handle and the merge thread.
struct Shared {
    /// The published snapshot. Writers swap the `Arc` under a brief write
    /// lock; readers clone it under a brief read lock. Neither side ever
    /// holds the lock while *building* anything.
    snapshot: RwLock<Arc<LabelSnapshot>>,
    progress: Mutex<Progress>,
    merged_cv: Condvar,
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

    /// Pin the current published snapshot. A brief read-lock to clone the
    /// `Arc`; all queries on the returned snapshot are lock-free and the
    /// view is immutable — later merges publish *new* snapshots.
    #[must_use]
    pub fn snapshot(&self) -> Arc<LabelSnapshot> {
        Arc::clone(&self.shared.snapshot.read().expect("snapshot poisoned"))
    }

    /// Block until every batch submitted before this call is reflected in
    /// the published snapshot, then return that snapshot (read barrier).
    #[must_use]
    pub fn flush(&self) -> Arc<LabelSnapshot> {
        let target = {
            let p = self.shared.progress.lock().expect("progress poisoned");
            p.submitted
        };
        let mut p = self.shared.progress.lock().expect("progress poisoned");
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
        self.snapshot().epoch()
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
    let mut current = Arc::clone(&shared.snapshot.read().expect("snapshot poisoned"));
    while let Ok(first) = rx.recv() {
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
                *shared.snapshot.write().expect("snapshot poisoned") = Arc::clone(&current);
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
    fn failure_counters_start_clean() {
        let _guard = parcc_pram::failpoint::scoped("");
        let engine = ServeEngine::start(IncrementalUnionFind::new(4));
        engine.submit_batch(vec![Edge::new(0, 1)]);
        let _ = engine.flush();
        assert_eq!(engine.merge_failures(), 0);
        assert!(engine.last_merge_error().is_none());
    }
}
