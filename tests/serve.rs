//! Serve-mode integration tests: the engine's epoch/oracle contract and
//! the `parcc serve` binary protocol end to end.
//!
//! The two load-bearing guarantees (ISSUE 6 acceptance criteria):
//!
//! 1. **Oracle correctness per epoch** — after every flushed batch, the
//!    published snapshot's partition equals sequential union-find run from
//!    scratch on everything absorbed so far, and the batch solvers
//!    (`paper`, `ltz`, `label-prop`) agree with it on the same prefix.
//! 2. **Snapshot isolation** — a pinned snapshot's answers never change
//!    while concurrent batches merge, epochs only move forward, and reads
//!    proceed while a merge is provably in flight.

use parcc::baselines::union_find;
use parcc::graph::generators as gen;
use parcc::graph::traverse::same_partition;
use parcc::graph::{Graph, ShardedGraph};
use parcc::pram::edge::Edge;
use parcc::solver::{begin_incremental, LabelSnapshot, ServeEngine, SolveCtx};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Slice a generated graph's edges into `k` near-equal batches.
fn batches_of(g: &Graph, k: usize) -> Vec<Vec<Edge>> {
    let step = g.edges().len().div_ceil(k).max(1);
    g.edges().chunks(step).map(<[Edge]>::to_vec).collect()
}

/// Oracle labels for the prefix graph after `upto` batches.
fn oracle_after(n: usize, batches: &[Vec<Edge>], upto: usize) -> Vec<u32> {
    let edges: Vec<Edge> = batches[..upto].iter().flatten().copied().collect();
    union_find(&Graph::new(n, edges))
}

#[test]
fn engine_matches_oracle_across_epochs() {
    let g = gen::gnp(400, 0.008, 17);
    let batches = batches_of(&g, 5);
    let engine = {
        let mut state = begin_incremental("union-find", 0).unwrap();
        state.ensure_n(g.n());
        ServeEngine::start(state)
    };
    assert_eq!(engine.epoch(), 0);
    for (i, batch) in batches.iter().enumerate() {
        engine.submit_batch(batch.clone());
        let snap = engine.flush();
        let oracle = oracle_after(g.n(), &batches, i + 1);
        assert!(
            same_partition(snap.labels(), &oracle),
            "epoch {} (batch {i}) diverges from the union-find oracle",
            snap.epoch()
        );
        // Spot-check the query surface against the oracle labeling.
        for (u, v) in [(0u32, 1u32), (5, 250), (17, 17), (3, 399)] {
            assert_eq!(
                snap.same_component(u, v),
                oracle[u as usize] == oracle[v as usize],
                "same-component {u} {v} at epoch {}",
                snap.epoch()
            );
        }
        for v in [0u32, 99, 399] {
            let size = oracle.iter().filter(|&&l| l == oracle[v as usize]).count();
            assert_eq!(snap.component_size(v), size, "component-size {v}");
        }
    }
    assert!(engine.epoch() >= 1, "batches must publish epochs");
    assert_eq!(engine.merged_batches(), batches.len() as u64);
}

#[test]
fn batch_solvers_agree_with_the_engine_per_epoch() {
    let g = gen::gnp(250, 0.012, 23);
    let batches = batches_of(&g, 3);
    let engine = ServeEngine::start(begin_incremental("union-find", g.n()).unwrap());
    for (i, batch) in batches.iter().enumerate() {
        engine.submit_batch(batch.clone());
        let snap = engine.flush();
        let prefix = ShardedGraph::new(g.n(), batches[..=i].to_vec());
        for algo in ["paper", "ltz", "label-prop"] {
            let solver = parcc::solver::find(algo).unwrap();
            let report = solver.solve_store(&prefix, &SolveCtx::new());
            assert!(
                same_partition(snap.labels(), &report.labels),
                "{algo} disagrees with the engine at epoch {}",
                snap.epoch()
            );
        }
    }
}

#[test]
fn pinned_snapshots_are_isolated_from_concurrent_batches() {
    let engine = {
        let mut state = begin_incremental("union-find", 0).unwrap();
        state.ensure_n(1000);
        ServeEngine::start(state)
    };
    let pinned = engine.snapshot();
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.component_count(), 1000);

    // Hammer the engine from several writer threads while a reader keeps
    // re-checking the pinned epoch-0 view.
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..50u32 {
                    let a = (w * 50 + i) % 999;
                    engine.submit_batch(vec![Edge::new(a, a + 1)]);
                }
            });
        }
        for _ in 0..200 {
            // The pinned view must not move: still 1000 singletons.
            assert_eq!(pinned.component_count(), 1000);
            assert!(!pinned.same_component(0, 1));
            assert_eq!(pinned.component_size(500), 1);
            // Fresh snapshots never go backwards.
            let now = engine.snapshot();
            assert!(now.epoch() >= pinned.epoch());
        }
    });
    let fin = engine.flush();
    assert_eq!(engine.merged_batches(), 200);
    assert!(fin.epoch() >= 1);
    // 200 path edges over ids 0..=999 connect everything they touched.
    assert!(fin.same_component(0, 1));
    // And the epoch-0 pin STILL answers from its frozen labels.
    assert!(!pinned.same_component(0, 1));
    assert_eq!(pinned.component_count(), 1000);
}

#[test]
fn reads_do_not_block_on_an_in_flight_merge() {
    // A deliberately slow incremental backend: absorbing holds the merge
    // thread busy long enough for the reader to observe the old epoch
    // *during* the merge — if reads took the writer's lock, this would
    // deadline out instead.
    struct Slow {
        n: usize,
    }
    impl parcc::solver::ServeState for Slow {
        fn absorb_batch(&mut self, _edges: &[Edge]) {
            std::thread::sleep(std::time::Duration::from_millis(150));
        }
        fn publish(&mut self, _prev: &LabelSnapshot, epoch: u64) -> (LabelSnapshot, u64) {
            let labels = (0..self.n as u32).collect();
            (LabelSnapshot::from_labels(epoch, labels), 0)
        }
    }
    let engine = ServeEngine::start(Slow { n: 8 });
    engine.submit_batch(vec![Edge::new(0, 1)]);
    // The merge is now sleeping inside absorb_batch. Reads must return
    // immediately from the pinned epoch-0 snapshot.
    let t0 = std::time::Instant::now();
    let mut reads = 0u32;
    loop {
        let snap = engine.snapshot();
        assert!(snap.epoch() <= 1, "only epochs 0 and 1 can exist here");
        if snap.epoch() == 1 {
            break; // the merge finished and published
        }
        // Merge still sleeping inside absorb_batch: this read completed
        // anyway, served from the pinned epoch-0 view.
        assert!(snap.same_component(3, 3));
        reads += 1;
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "merge never completed"
        );
    }
    assert!(
        reads > 10,
        "reader should get many snapshot reads in while the merge sleeps (got {reads})"
    );
    assert_eq!(engine.flush().epoch(), 1);
}

/// An engine over `n` singletons.
fn engine_over(n: usize) -> ServeEngine {
    ServeEngine::start(begin_incremental("union-find", n).unwrap())
}

#[test]
fn two_engines_read_alternately_on_one_thread_keep_their_own_pins() {
    // Each thread caches one pin; it must be keyed by engine as well as
    // by epoch, or engine b would answer from a's cached snapshot while
    // both publish the same epoch number.
    let (a, b) = (engine_over(10), engine_over(20));
    for round in 0..6u32 {
        for _ in 0..3 {
            let (sa, sb) = (a.snapshot(), b.snapshot());
            assert_eq!((sa.n(), sa.epoch()), (10, a.epoch()), "round {round}");
            assert_eq!((sb.n(), sb.epoch()), (20, b.epoch()), "round {round}");
            assert_eq!(sa.component_size(0), round as usize + 1);
            assert_eq!(sb.component_size(0), (round as usize).div_ceil(2) + 1);
        }
        // a publishes every round, b every other round: their epochs
        // coincide in the first two rounds and then drift apart.
        a.submit_batch(vec![Edge::new(round, round + 1)]);
        assert_eq!(a.flush().epoch(), u64::from(round) + 1);
        if round % 2 == 0 {
            b.submit_batch(vec![Edge::new(round / 2, round / 2 + 1)]);
            assert_eq!(b.flush().epoch(), u64::from(round / 2) + 1);
        }
    }
}

#[test]
fn a_flushed_epoch_sent_to_another_thread_is_visible_to_its_next_pin() {
    let engine = engine_over(100);
    let (pinned_tx, pinned_rx) = std::sync::mpsc::channel::<u64>();
    let (epoch_tx, epoch_rx) = std::sync::mpsc::channel::<u64>();
    std::thread::scope(|scope| {
        let engine = &engine;
        scope.spawn(move || {
            // Cache a pin of the old epoch on this thread first, and keep
            // it alive so the cached `Weak` still upgrades afterwards.
            let old = engine.snapshot();
            pinned_tx.send(old.epoch()).unwrap();
            let flushed = epoch_rx.recv().unwrap();
            assert!(flushed > old.epoch());
            assert!(engine.snapshot().epoch() >= flushed, "stale cached pin");
            assert!(engine.epoch() >= flushed);
            assert!(engine.snapshot().same_component(0, 1));
            assert!(!old.same_component(0, 1));
        });
        assert_eq!(pinned_rx.recv().unwrap(), 0);
        engine.submit_batch(vec![Edge::new(0, 1)]);
        epoch_tx.send(engine.flush().epoch()).unwrap();
    });
}

#[test]
fn a_thread_pin_does_not_keep_a_dropped_engines_snapshot_alive() {
    let engine = Arc::new(engine_over(1000));
    engine.submit_batch(vec![Edge::new(0, 1)]);
    assert_eq!(engine.flush().epoch(), 1);
    let (weak_tx, weak_rx) = std::sync::mpsc::channel();
    let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
    let reader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            // Pin the engine's last epoch, leaving it in this thread's
            // cache, and let go of everything but the cache itself before
            // the main thread looks.
            let snap = engine.snapshot();
            let weak = Arc::downgrade(&snap);
            drop((snap, engine));
            weak_tx.send(weak).unwrap();
            // Stay alive, cache and all, until the main thread has looked.
            exit_rx.recv().unwrap();
        })
    };
    let weak = weak_rx.recv().unwrap();
    assert!(weak.upgrade().is_some(), "the engine still publishes it");
    drop(engine);
    assert!(
        weak.upgrade().is_none(),
        "a cached pin kept a dropped engine's snapshot alive"
    );
    exit_tx.send(()).unwrap();
    reader.join().unwrap();
}

#[test]
fn concurrent_readers_see_monotone_epochs_matching_their_labels() {
    // Batch i adds edge (i, i+1) and is flushed alone, so epoch e is
    // exactly the path 0..=e: a pin whose labels belong to another epoch
    // shows up as a wrong component size.
    const BATCHES: u32 = 200;
    let engine = engine_over(BATCHES as usize + 1);
    let start = std::sync::Barrier::new(5);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (engine, start, done) = (&engine, &start, &done);
                scope.spawn(move || {
                    start.wait();
                    let mut last = 0;
                    let mut pins = 0u64;
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        let floor = engine.epoch();
                        let snap = engine.snapshot();
                        let e = snap.epoch();
                        assert!(e >= last, "epoch went back {last} -> {e}");
                        assert!(e >= floor, "pin {e} older than epoch() {floor}");
                        assert_eq!(snap.component_size(0) as u64, e + 1);
                        last = e;
                        pins += 1;
                    }
                    (engine.snapshot().epoch(), engine.epoch(), pins)
                })
            })
            .collect();
        start.wait();
        let flushed: Vec<u64> = (0..BATCHES)
            .map(|i| {
                engine.submit_batch(vec![Edge::new(i, i + 1)]);
                engine.flush().epoch()
            })
            .collect();
        // Stop the readers before asserting, so a failure cannot leave
        // them spinning.
        done.store(true, std::sync::atomic::Ordering::Release);
        assert!(flushed.iter().copied().eq(1..=u64::from(BATCHES)));
        for r in readers {
            let (pinned, epoch, pins) = r.join().unwrap();
            assert_eq!((pinned, epoch), (u64::from(BATCHES), u64::from(BATCHES)));
            assert!(pins > 0);
        }
    });
}

/// splitmix64: a tiny deterministic stream for randomized batch streams.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// Every answer a snapshot gives about its tracked vertices, plus two
/// untracked ids.
fn answers(snap: &LabelSnapshot) -> (Vec<u32>, Vec<usize>, usize, bool) {
    let n = snap.n() as u32;
    let labels = (0..n + 2).map(|v| snap.label_of(v)).collect();
    let sizes = (0..n + 2).map(|v| snap.component_size(v)).collect();
    (
        labels,
        sizes,
        snap.component_count(),
        snap.same_component(n, n + 1),
    )
}

#[test]
fn published_epochs_equal_a_full_rebuild_over_random_streams() {
    use parcc::baselines::IncrementalUnionFind;
    let _guard = parcc::pram::failpoint::scoped("");
    for seed in 1..=3u64 {
        let mut rng = Mix(seed);
        let engine = ServeEngine::start(IncrementalUnionFind::new(100));
        let mut mirror = IncrementalUnionFind::new(100);
        let mut pinned = vec![(engine.snapshot(), answers(&engine.snapshot()))];
        let mut n = 100u32;
        let mut chains = (0, 0);
        for round in 0..24 {
            let mut batch = Vec::new();
            match round % 6 {
                // Grow the vertex space past the current n, into new pages.
                0 => {
                    let grown = n + 1 + rng.below(3000);
                    batch.push(Edge::new(rng.below(n), grown - 1));
                    n = grown;
                }
                // Self-loops and duplicate edges.
                1 => {
                    for _ in 0..20 {
                        let (u, v) = (rng.below(n), rng.below(n));
                        batch.extend([Edge::new(u, u), Edge::new(u, v), Edge::new(v, u)]);
                    }
                }
                // Two large paths over fresh ids, then one edge merging them.
                2 => {
                    let len = 2000 + rng.below(3000);
                    chains = (n, n + len);
                    batch.extend((n + 1..n + 2 * len).map(|v| Edge::new(v - 1, v)));
                    batch.retain(|e| e.v() != chains.1);
                    n += 2 * len;
                }
                3 => batch.push(Edge::new(chains.0, chains.1)),
                _ => {
                    for _ in 0..rng.below(50) {
                        batch.push(Edge::new(rng.below(n), rng.below(n)));
                    }
                }
            }
            mirror.absorb_batch(&batch);
            engine.submit_batch(batch);
            let snap = engine.flush();
            if round == 3 {
                let relabeled = engine.last_publish().relabeled;
                assert!(relabeled >= 2000, "big merge relabeled {relabeled}");
            }
            let full = LabelSnapshot::from_labels(snap.epoch(), mirror.labels());
            assert_eq!(snap.n(), full.n(), "seed {seed} round {round}");
            assert!(same_partition(snap.labels(), full.labels()));
            assert_eq!(snap.component_count(), full.component_count());
            for v in 0..snap.n() as u32 {
                assert_eq!(snap.component_size(v), full.component_size(v), "size {v}");
            }
            // Every earlier pin still answers exactly as when it was taken.
            for (old, then) in &pinned {
                assert_eq!(&answers(old), then, "epoch {} moved", old.epoch());
            }
            pinned.push((Arc::clone(&snap), answers(&snap)));
        }
    }
}

// ---------------------------------------------------------------------------
// Binary protocol tests: drive `parcc serve` through real pipes.
// ---------------------------------------------------------------------------

fn parcc_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parcc"))
}

/// Run a scripted session and return the reply lines.
fn serve_script(args: &[&str], script: &str) -> Vec<String> {
    let mut child = parcc_bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parcc serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "serve session failed: {out:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn serve_binary_answers_across_three_batches() {
    // Three committed batches; every query answer checked against what
    // union-find says about the prefix graph at that epoch.
    let script = "\
        same-component 0 2\n\
        add 0 1 1 2\n\
        commit\n\
        flush\n\
        same-component 0 2\n\
        add 3 4\n\
        commit\n\
        flush\n\
        same-component 2 4\n\
        component-size 3\n\
        add 2 3\n\
        commit\n\
        flush\n\
        same-component 0 4\n\
        component-size 0\n\
        component-count\n\
        quit\n";
    let lines = serve_script(&["serve"], script);
    assert_eq!(
        lines,
        vec![
            // Nothing absorbed yet: 0 and 2 are distinct implicit singletons.
            "same-component false epoch=0",
            "ok pending=2",
            "batch 1 edges=2",
            "epoch 1",
            "same-component true epoch=1",
            "ok pending=1",
            "batch 2 edges=1",
            "epoch 2",
            "same-component false epoch=2",
            "component-size 2 epoch=2",
            "ok pending=1",
            "batch 3 edges=1",
            "epoch 3",
            "same-component true epoch=3",
            "component-size 5 epoch=3",
            "component-count 1 epoch=3",
            "bye",
        ]
    );
}

#[test]
fn serve_binary_preloads_a_graph_as_epoch_zero() {
    let tmp = std::env::temp_dir().join(format!("parcc-serve-pre-{}.txt", std::process::id()));
    std::fs::write(&tmp, "# nodes: 6\n0 1\n1 2\n").unwrap();
    let script = "\
        stats\n\
        same-component 0 2\n\
        component-count\n\
        add 4 5\n\
        commit\n\
        flush\n\
        component-count\n\
        quit\n";
    let lines = serve_script(&["serve", tmp.to_str().unwrap()], script);
    let _ = std::fs::remove_file(&tmp);
    assert!(
        lines[0].contains("algo=union-find") && lines[0].contains("n=6"),
        "stats line: {}",
        lines[0]
    );
    assert_eq!(lines[1], "same-component true epoch=0");
    // {0,1,2} joined, 3/4/5 singletons → 4 components at epoch 0.
    assert_eq!(lines[2], "component-count 4 epoch=0");
    assert_eq!(lines[6], "component-count 3 epoch=1");
    assert_eq!(lines.last().unwrap(), "bye");
}

#[test]
fn serve_binary_stats_report_the_last_publish() {
    // Joining two components relabels the smaller side (one vertex here);
    // an edge inside one component relabels nothing.
    let script = "\
        add 0 1 1 2\n\
        commit\n\
        flush\n\
        add 2 3\n\
        commit\n\
        flush\n\
        stats\n\
        add 0 3\n\
        commit\n\
        flush\n\
        stats\n\
        quit\n";
    let lines = serve_script(&["serve"], script);
    let stats: Vec<&String> = lines.iter().filter(|l| l.starts_with("stats ")).collect();
    assert_eq!(stats.len(), 2, "{lines:?}");
    assert!(
        stats[0].contains("epoch=2") && stats[0].ends_with(" relabeled=1"),
        "{}",
        stats[0]
    );
    assert!(
        stats[1].contains("epoch=3") && stats[1].ends_with(" relabeled=0"),
        "{}",
        stats[1]
    );
    assert!(stats[1].contains(" publish_us="), "{}", stats[1]);
}

#[test]
fn serve_binary_save_snapshot_restarts_with_same_connectivity() {
    let dir = std::env::temp_dir();
    let pre = dir.join(format!("parcc-serve-save-pre-{}.txt", std::process::id()));
    let snap = dir.join(format!("parcc-serve-save-{}.pgb", std::process::id()));
    std::fs::write(&pre, "# nodes: 8\n0 1\n1 2\n").unwrap();

    // Session 1: preload {0,1,2}, insert 4-5 and 5-6, save the forest.
    let script = format!(
        "add 4 5 5 6\ncommit\nsave {}\ncomponent-count\nquit\n",
        snap.display()
    );
    let lines = serve_script(&["serve", pre.to_str().unwrap()], &script);
    let _ = std::fs::remove_file(&pre);
    let saved = &lines[2];
    assert!(
        saved.starts_with("saved ") && saved.contains("epoch=1") && saved.contains("n=8"),
        "save reply: {saved}"
    );
    // {0,1,2}, {4,5,6}, 3, 7 → 4 components.
    assert_eq!(lines[3], "component-count 4 epoch=1");

    // Session 2: restart straight off the PGB snapshot — the partition
    // survives even though the stored edges are the star forest, not the
    // original inserts.
    let lines = serve_script(
        &["serve", snap.to_str().unwrap()],
        "same-component 0 2\nsame-component 4 6\nsame-component 2 4\ncomponent-count\nquit\n",
    );
    let _ = std::fs::remove_file(&snap);
    assert_eq!(lines[0], "same-component true epoch=0");
    assert_eq!(lines[1], "same-component true epoch=0");
    assert_eq!(lines[2], "same-component false epoch=0");
    assert_eq!(lines[3], "component-count 4 epoch=0");

    // `save` without a path is a command error, not a session killer.
    let lines = serve_script(&["serve"], "save\nepoch\nquit\n");
    assert!(lines[0].starts_with("error: save:"), "got: {}", lines[0]);
    assert_eq!(lines[1], "epoch 0");
}

#[test]
fn serve_binary_selects_registry_algos_and_rejects_garbage() {
    // Serve always runs union-find: any --algo, registered or not, dies
    // before the session starts.
    for algo in ["ltz", "no-such"] {
        let out = parcc_bin()
            .args(["--algo", algo, "serve"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--algo {algo} serve must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("union-find"), "got: {err}");
    }

    // '-' is the protocol channel, not a graph path.
    let out = parcc_bin().args(["serve", "-"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("stdin"), "got: {err}");

    // Command-level errors keep the session alive; protocol comments and
    // blank lines are skipped.
    let lines = serve_script(
        &["serve"],
        "# a comment\n\nbogus\nadd 1\nadd x y\ncommit\nepoch\nquit\n",
    );
    assert!(lines[0].starts_with("error: unknown command"));
    assert!(lines[1].starts_with("error: add expects"));
    assert!(lines[2].starts_with("error: add"), "got: {}", lines[2]);
    assert!(lines[3].starts_with("error: nothing to commit"));
    assert_eq!(lines[4], "epoch 0");
    assert_eq!(lines[5], "bye");

    // A word past a command's arity is an error, not ignored: `save a
    // b.pgb` must not write `a`, and the buffered edge stays pending.
    let dir = std::env::temp_dir();
    let (a, b) = (
        dir.join(format!("parcc-serve-extra-{}-a", std::process::id())),
        dir.join(format!("parcc-serve-extra-{}-b.pgb", std::process::id())),
    );
    let script = format!(
        "add 0 1\nsave {} {}\nsame-component 1 2 3\ncommit now\nepoch 7\n\
         commit\nflush\nsame-component 0 1\nquit\n",
        a.display(),
        b.display()
    );
    let lines = serve_script(&["serve"], &script);
    assert_eq!(lines[0], "ok pending=1");
    for (i, cmd) in [
        (1, "save"),
        (2, "same-component"),
        (3, "commit"),
        (4, "epoch"),
    ] {
        assert!(
            lines[i].starts_with(&format!("error: {cmd} takes")),
            "got: {}",
            lines[i]
        );
    }
    assert!(
        !a.exists() && !b.exists(),
        "save with a trailing word wrote a file"
    );
    assert_eq!(lines[5], "batch 1 edges=1");
    assert_eq!(lines[6], "epoch 1");
    assert_eq!(lines[7], "same-component true epoch=1");
    assert_eq!(lines[8], "bye");

    // u32::MAX is not a vertex id: `add` refuses it before anything is
    // buffered, and the session's later answers stay exact.
    let lines = serve_script(
        &["serve"],
        "add 0 4294967295\ncommit\nflush\nadd 0 1\ncommit\nflush\ncomponent-count\nquit\n",
    );
    assert!(
        lines[0].starts_with("error: add") && lines[0].contains("4294967295"),
        "got: {}",
        lines[0]
    );
    assert!(lines[1].starts_with("error: nothing to commit"));
    assert_eq!(lines[2], "epoch 0");
    assert_eq!(lines[3], "ok pending=1");
    assert_eq!(lines[4], "batch 1 edges=1");
    assert_eq!(lines[5], "epoch 1");
    assert_eq!(lines[6], "component-count 1 epoch=1");
    assert_eq!(lines[7], "bye");
}

#[test]
fn serve_binary_sessions_answer_like_the_library_oracle() {
    // A randomized end-to-end session: mirror the protocol's committed
    // batches in-process and cross-check a sample of query answers.
    let g = gen::gnp(60, 0.05, 31);
    let batches = batches_of(&g, 3);
    let mut script = String::new();
    let mut queries: Vec<(u32, u32)> = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        script.push_str("add");
        for e in batch {
            script.push_str(&format!(" {} {}", e.u(), e.v()));
        }
        script.push_str("\ncommit\nflush\n");
        for q in 0..8u32 {
            let (u, v) = ((q * 7 + i as u32 * 13) % 60, (q * 11 + 3) % 60);
            script.push_str(&format!("same-component {u} {v}\n"));
            queries.push((u, v));
        }
    }
    script.push_str("quit\n");

    let mut child = parcc_bin()
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let reader = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success());

    let mut it = lines.iter();
    let mut qi = 0usize;
    for (i, _) in batches.iter().enumerate() {
        let oracle = oracle_after(g.n(), &batches, i + 1);
        assert!(it.next().unwrap().starts_with("ok pending="));
        assert!(it.next().unwrap().starts_with("batch "));
        assert!(it.next().unwrap().starts_with("epoch "));
        for _ in 0..8 {
            let (u, v) = queries[qi];
            qi += 1;
            let expect = oracle
                .get(u as usize)
                .zip(oracle.get(v as usize))
                .is_some_and(|(a, b)| a == b)
                || u == v;
            let line = it.next().unwrap();
            assert!(
                line.starts_with(&format!("same-component {expect} ")),
                "batch {i} query {u},{v}: expected {expect}, got '{line}'"
            );
        }
    }
    assert_eq!(it.next().unwrap(), "bye");
}
