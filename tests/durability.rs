//! Durability conformance: crash recovery through the write-ahead log,
//! checksummed PGB v2 corruption detection, and the deterministic
//! fault-injection harness — ISSUE 10 acceptance criteria.
//!
//! The load-bearing property is **crash-anywhere recovery**: for every
//! failpoint site and for a SIGKILL at every commit boundary, restarting
//! with `--wal` replays the log to exactly the acknowledged state (the
//! union-find oracle over acknowledged batches), and a torn tail or a
//! corrupted snapshot is *detected* with a precise error — stale or
//! corrupt data is never served as current.

use parcc::baselines::union_find;
use parcc::graph::generators as gen;
use parcc::graph::io::save_binary;
use parcc::graph::mmap::MappedGraph;
use parcc::graph::store::ShardedGraph;
use parcc::graph::traverse::same_partition;
use parcc::graph::wal::{SyncPolicy, Wal, RECORD_HEADER, WAL_HEADER};
use parcc::graph::Graph;
use parcc::pram::edge::Edge;
use parcc::pram::failpoint;
use parcc::solver::{begin_incremental, ServeEngine};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A unique temp path that cleans up after itself (and any `.tmp`
/// sibling an interrupted atomic write may have left).
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!("parcc-durability-{}-{tag}", std::process::id())))
    }
    fn tmp_sibling(&self) -> std::path::PathBuf {
        let mut os = self.0.clone().into_os_string();
        os.push(".tmp");
        os.into()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.tmp_sibling());
    }
}

/// Slice a generated graph's edges into `k` near-equal batches.
fn batches_of(g: &Graph, k: usize) -> Vec<Vec<Edge>> {
    let step = g.edges().len().div_ceil(k).max(1);
    g.edges().chunks(step).map(<[Edge]>::to_vec).collect()
}

/// Oracle labels over the first `upto` batches (n = max mentioned id + 1).
fn oracle_after(batches: &[Vec<Edge>], upto: usize) -> Vec<u32> {
    let edges: Vec<Edge> = batches[..upto].iter().flatten().copied().collect();
    let n = edges
        .iter()
        .map(|e| e.u().max(e.v()) as usize + 1)
        .max()
        .unwrap_or(0);
    union_find(&Graph::new(n, edges))
}

/// Replay a WAL into fresh union-find state and return canonical labels.
fn labels_from_wal(path: &std::path::Path) -> (Vec<u32>, u64, u64) {
    let (_, replay) = Wal::open(path, SyncPolicy::Off).unwrap();
    let mut state = begin_incremental("union-find", 0).unwrap();
    state.absorb_batches(&replay.batches);
    (state.labels(), replay.batch_count(), replay.torn_bytes)
}

// ---------------------------------------------------------------------------
// WAL: torn-tail property
// ---------------------------------------------------------------------------

/// Truncate the log at EVERY byte offset of the final record: replay must
/// recover exactly the intact prefix, report the torn byte count, and the
/// truncated log must accept further appends cleanly.
#[test]
fn torn_tail_truncated_at_every_byte_offset_replays_the_prefix() {
    let batches = vec![
        vec![Edge::new(0, 1), Edge::new(2, 3)],
        vec![Edge::new(1, 2)],
        vec![Edge::new(4, 5), Edge::new(5, 6), Edge::new(0, 6)],
    ];
    let wal_path = TempPath::new("torn-src.wal");
    {
        let (mut wal, replay) = Wal::open(&wal_path.0, SyncPolicy::Batch).unwrap();
        assert_eq!(replay.batch_count(), 0);
        for b in &batches {
            wal.append(b).unwrap();
        }
    }
    let bytes = std::fs::read(&wal_path.0).unwrap();
    // The final record starts after the header and the first two records.
    let boundary = (WAL_HEADER
        + (0..2)
            .map(|i| RECORD_HEADER + 8 * batches[i].len() as u64)
            .sum::<u64>()) as usize;
    assert_eq!(
        bytes.len(),
        boundary + (RECORD_HEADER + 8 * batches[2].len() as u64) as usize
    );
    let cut_path = TempPath::new("torn-cut.wal");
    for cut in boundary..bytes.len() {
        std::fs::write(&cut_path.0, &bytes[..cut]).unwrap();
        let (labels, recovered, torn) = labels_from_wal(&cut_path.0);
        assert_eq!(recovered, 2, "cut at byte {cut}: wrong prefix recovered");
        assert_eq!(torn, (cut - boundary) as u64, "cut at byte {cut}");
        assert!(
            same_partition(&labels, &oracle_after(&batches, 2)),
            "cut at byte {cut}: replayed partition diverges from the 2-batch oracle"
        );
    }
    // A truncated-then-reopened log keeps working: the torn tail is gone
    // from disk, and a fresh append lands on the clean boundary.
    std::fs::write(&cut_path.0, &bytes[..boundary + 3]).unwrap();
    {
        let (mut wal, replay) = Wal::open(&cut_path.0, SyncPolicy::Batch).unwrap();
        assert_eq!((replay.batch_count(), replay.torn_bytes), (2, 3));
        wal.append(&batches[2]).unwrap();
    }
    let (labels, recovered, torn) = labels_from_wal(&cut_path.0);
    assert_eq!((recovered, torn), (3, 0));
    assert!(same_partition(&labels, &oracle_after(&batches, 3)));
}

// ---------------------------------------------------------------------------
// PGB v2: corruption matrix
// ---------------------------------------------------------------------------

/// Flip one byte at a time across the header, shard table, and every
/// shard's data: each flip is either *detected* (open or validate fails)
/// or provably harmless (a padding byte — the decoded graph is
/// bit-identical to the original). Corrupt data is never served.
#[test]
fn corrupted_pgb_single_byte_flips_are_always_detected() {
    let g = gen::mixture(41);
    let sg = ShardedGraph::from_graph(&g, 3);
    let path = TempPath::new("flip.pgb");
    save_binary(&sg, &path.0).unwrap();
    let pristine = std::fs::read(&path.0).unwrap();
    let original: Vec<Vec<Edge>> = (0..sg.shard_count())
        .map(|i| sg.shard(i).to_vec())
        .collect();
    // Shard data begins at the first table offset (table entries start at
    // the 48-byte v2 fixed header; offset is the entry's first field).
    let data_start = u64::from_le_bytes(pristine[48..56].try_into().unwrap()) as usize;
    let mut targets: Vec<usize> = (0..data_start).collect(); // header + table + padding
    let mut shard_probes = 0usize;
    for i in 0..sg.shard_count() {
        let off =
            u64::from_le_bytes(pristine[48 + 24 * i..56 + 24 * i].try_into().unwrap()) as usize;
        let len = 8 * sg.shard(i).len();
        if len == 0 {
            continue;
        }
        // First, last, and an interior byte of each shard's payload.
        targets.extend([off, off + len / 2, off + len - 1]);
        shard_probes += 3;
    }
    let mut detected = 0usize;
    for &i in &targets {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x40;
        std::fs::write(&path.0, &bytes).unwrap();
        let outcome = MappedGraph::open(&path.0).and_then(|mg| {
            mg.validate()?;
            Ok(mg)
        });
        match outcome {
            Err(_) => detected += 1,
            Ok(mg) => {
                // Only padding may survive a flip — the decoded graph must
                // be indistinguishable from the pristine file.
                let same = (0..mg.shard_count()).all(|s| mg.shard(s) == original[s].as_slice());
                assert!(
                    same,
                    "byte {i}: flip passed validation but changed the graph"
                );
            }
        }
    }
    // Sanity: the matrix is not vacuous — every byte the format claims to
    // protect must have tripped detection: the fixed header through the
    // stored CRC (0..44; the trailing reserved word is deliberately
    // uncovered), the full table (its bytes feed the header CRC, reserved
    // words included), and every probed shard byte.
    let checksummed = 44 + 24 * sg.shard_count() + shard_probes;
    assert!(
        detected >= checksummed,
        "only {detected} of {} flips detected (expected at least {checksummed})",
        targets.len()
    );
    std::fs::write(&path.0, &pristine).unwrap();
    let mg = MappedGraph::open(&path.0).unwrap();
    mg.validate().unwrap();
}

// ---------------------------------------------------------------------------
// Failpoints: atomic snapshot writes
// ---------------------------------------------------------------------------

/// An injected I/O error mid-snapshot must leave the previous file
/// byte-identical and the directory free of temp debris.
#[test]
fn snapshot_io_error_failpoint_leaves_destination_intact() {
    let old = ShardedGraph::new(4, vec![vec![Edge::new(0, 1)]]);
    let new = ShardedGraph::new(6, vec![vec![Edge::new(2, 3), Edge::new(4, 5)]]);
    let path = TempPath::new("atomic-io.pgb");
    save_binary(&old, &path.0).unwrap();
    let before = std::fs::read(&path.0).unwrap();
    {
        let _fp = failpoint::scoped("pgb-save:1:io-error");
        let err = save_binary(&new, &path.0).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
    assert_eq!(
        std::fs::read(&path.0).unwrap(),
        before,
        "destination changed"
    );
    assert!(!path.tmp_sibling().exists(), "temp file left behind");
    // The failpoint is one-shot: the retry goes through.
    save_binary(&new, &path.0).unwrap();
    let mg = MappedGraph::open(&path.0).unwrap();
    mg.validate().unwrap();
    assert_eq!((mg.n(), mg.m()), (6, 2));
}

/// A torn write (power loss mid-snapshot) leaves a truncated `.tmp` that
/// is itself *rejected* on open — and the destination stays pristine.
#[test]
fn snapshot_torn_write_failpoint_never_corrupts_the_destination() {
    let old = ShardedGraph::new(4, vec![vec![Edge::new(0, 1)]]);
    let new = ShardedGraph::from_graph(&gen::mixture(23), 2);
    let path = TempPath::new("atomic-torn.pgb");
    save_binary(&old, &path.0).unwrap();
    let before = std::fs::read(&path.0).unwrap();
    {
        let _fp = failpoint::scoped("pgb-save:1:torn-write");
        save_binary(&new, &path.0).unwrap_err();
    }
    assert_eq!(
        std::fs::read(&path.0).unwrap(),
        before,
        "destination changed"
    );
    let tmp = path.tmp_sibling();
    assert!(
        tmp.exists(),
        "torn write should leave the truncated temp file"
    );
    // The half-written temp must not pass for a valid snapshot.
    let opened = MappedGraph::open(&tmp).and_then(|mg| {
        mg.validate()?;
        Ok(mg)
    });
    assert!(opened.is_err(), "a torn snapshot must be rejected");
}

// ---------------------------------------------------------------------------
// Failpoints: WAL append crash-safety
// ---------------------------------------------------------------------------

/// A torn append is retryable in-session (the cursor rewinds over the
/// partial record) and crash-safe across sessions (a restart truncates
/// the partial record and replays only acknowledged batches).
#[test]
fn wal_append_torn_write_is_retryable_and_crash_safe() {
    let b1 = vec![Edge::new(0, 1), Edge::new(1, 2)];
    let b2 = vec![Edge::new(3, 4)];
    // In-session retry.
    let path = TempPath::new("append-retry.wal");
    {
        let _fp = failpoint::scoped("wal-append:1:torn-write");
        let (mut wal, _) = Wal::open(&path.0, SyncPolicy::Batch).unwrap();
        wal.append(&b1).unwrap_err();
        wal.append(&b1).unwrap(); // retry overwrites the torn bytes
        wal.append(&b2).unwrap();
    }
    let (_, replay) = Wal::open(&path.0, SyncPolicy::Off).unwrap();
    assert_eq!(replay.batches, vec![b1.clone(), b2.clone()]);
    assert_eq!(replay.torn_bytes, 0);
    // Crash after the torn append: only the acknowledged prefix survives.
    let path = TempPath::new("append-crash.wal");
    {
        let _fp = failpoint::scoped("wal-append:2:torn-write");
        let (mut wal, _) = Wal::open(&path.0, SyncPolicy::Batch).unwrap();
        wal.append(&b1).unwrap();
        wal.append(&b2).unwrap_err();
        // No retry: the session "crashes" with half a record on disk.
    }
    let (_, replay) = Wal::open(&path.0, SyncPolicy::Off).unwrap();
    assert_eq!(replay.batches, vec![b1]);
    assert!(
        replay.torn_bytes > 0,
        "the partial record must be counted torn"
    );
}

/// An injected append error (ENOSPC-style) keeps the log consistent.
#[test]
fn wal_append_io_error_keeps_the_log_consistent() {
    let path = TempPath::new("append-ioerr.wal");
    let b = vec![Edge::new(7, 8)];
    {
        let _fp = failpoint::scoped("wal-append:1:io-error");
        let (mut wal, _) = Wal::open(&path.0, SyncPolicy::Batch).unwrap();
        wal.append(&b).unwrap_err();
        assert_eq!(wal.records(), 0);
        wal.append(&b).unwrap();
        assert_eq!(wal.records(), 1);
    }
    let (_, replay) = Wal::open(&path.0, SyncPolicy::Off).unwrap();
    assert_eq!(replay.batches, vec![b]);
}

// ---------------------------------------------------------------------------
// Failpoints: supervised merge thread + WAL heal
// ---------------------------------------------------------------------------

/// A merge panic drops a batch from the in-memory state but never from
/// the log: restarting from the WAL reconstructs the full oracle
/// partition, including the batch whose merge crashed.
#[test]
fn merge_panic_batch_is_recovered_from_the_wal() {
    let g = gen::gnp(120, 0.03, 31);
    let batches = batches_of(&g, 3);
    let path = TempPath::new("merge-heal.wal");
    {
        let _fp = failpoint::scoped("serve-merge:2:panic");
        let (mut wal, _) = Wal::open(&path.0, SyncPolicy::Batch).unwrap();
        let engine = ServeEngine::start(begin_incremental("union-find", 0).unwrap());
        for b in &batches {
            // WAL before submit: the engine never sees an unlogged batch.
            wal.append(b).unwrap();
            engine.submit_batch(b.clone());
            // One merge group per batch, so the second group is the second
            // batch however the merge thread is scheduled; coalesced
            // groups would hit the failpoint fewer than twice.
            let _ = engine.flush();
        }
        assert!(
            engine.merge_failures() >= 1,
            "the failpoint must have fired"
        );
        let err = engine.last_merge_error().unwrap();
        assert!(err.contains("serve-merge"), "{err}");
    }
    let (labels, recovered, _) = labels_from_wal(&path.0);
    assert_eq!(recovered, batches.len() as u64);
    assert!(
        same_partition(&labels, &oracle_after(&batches, batches.len())),
        "WAL replay must recover the batch lost to the merge panic"
    );
}

// ---------------------------------------------------------------------------
// The served binary under injected faults and SIGKILL
// ---------------------------------------------------------------------------

/// An interactive `parcc serve` child driven one command / one reply at a
/// time, so the test controls exactly which commits were acknowledged
/// before a crash is injected.
struct ServeProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServeProc {
    fn spawn(args: &[&str], envs: &[(&str, &str)]) -> Self {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_parcc"));
        cmd.args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn parcc serve");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Self {
            child,
            stdin,
            stdout,
        }
    }

    /// Send one command and read its single-line reply.
    fn cmd(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").unwrap();
        self.stdin.flush().unwrap();
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "server hung up after `{line}`");
        reply.trim_end().to_string()
    }

    /// Read `extra` additional reply lines (stats under --wal is 3 lines).
    fn more(&mut self, extra: usize) -> Vec<String> {
        (0..extra)
            .map(|_| {
                let mut l = String::new();
                self.stdout.read_line(&mut l).unwrap();
                l.trim_end().to_string()
            })
            .collect()
    }

    /// Clean shutdown; returns the child's stderr.
    fn quit(mut self) -> String {
        assert_eq!(self.cmd("quit"), "bye");
        drop(self.stdin);
        let out = self.child.wait_with_output().unwrap();
        assert!(out.status.success(), "serve exited with {}", out.status);
        String::from_utf8_lossy(&out.stderr).into_owned()
    }

    /// Simulated crash: SIGKILL, no shutdown handshake of any kind.
    fn kill(mut self) {
        self.child.kill().unwrap();
        let _ = self.child.wait();
    }
}

fn add_line(batch: &[Edge]) -> String {
    let mut s = String::from("add");
    for e in batch {
        s.push_str(&format!(" {} {}", e.u(), e.v()));
    }
    s
}

/// SIGKILL mid-session: every *acknowledged* commit survives into the
/// next session; the unacknowledged tail (buffered adds) may vanish.
#[test]
fn serve_binary_sigkill_recovers_acknowledged_commits() {
    let g = gen::gnp(64, 0.06, 7);
    let batches = batches_of(&g, 4);
    let wal = TempPath::new("kill.wal");
    let wal_s = wal.0.to_str().unwrap().to_string();

    let mut s1 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
    for (i, b) in batches[..3].iter().enumerate() {
        assert!(s1.cmd(&add_line(b)).starts_with("ok pending="));
        assert_eq!(
            s1.cmd("commit"),
            format!("batch {} edges={}", i + 1, b.len())
        );
    }
    // Buffered but never committed — legitimately lost in the crash.
    assert!(s1.cmd(&add_line(&batches[3])).starts_with("ok pending="));
    s1.kill();

    let mut s2 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
    let oracle = oracle_after(&batches, 3);
    let count = oracle
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u32 == l)
        .count();
    assert_eq!(
        s2.cmd("component-count"),
        format!("component-count {count} epoch=0")
    );
    let top = oracle.len() as u32 - 1;
    for (u, v) in [(0u32, 1u32), (top / 2, top), (3, 3), (1, top)] {
        let want = oracle[u as usize] == oracle[v as usize];
        assert_eq!(
            s2.cmd(&format!("same-component {u} {v}")),
            format!("same-component {want} epoch=0")
        );
    }
    let stats = s2.cmd("stats");
    assert!(stats.contains("failures=0"), "{stats}");
    let extra = s2.more(2);
    assert!(extra[0].starts_with("wal: path="), "{extra:?}");
    let acked_edges: usize = batches[..3].iter().map(Vec::len).sum();
    assert_eq!(
        extra[1],
        format!("recovered: batches=3 edges={acked_edges}")
    );
    let stderr = s2.quit();
    assert!(stderr.contains("wal: replayed 3 batches"), "{stderr}");
}

/// An injected merge panic surfaces as one `error: merge thread failed`
/// reply (never a hang), the session keeps serving, and a WAL restart
/// recovers the batch whose merge crashed.
#[test]
fn serve_binary_merge_panic_reports_and_wal_restart_heals() {
    let wal = TempPath::new("panic.wal");
    let wal_s = wal.0.to_str().unwrap().to_string();

    let mut s1 = ServeProc::spawn(
        &["serve", "--wal", &wal_s],
        &[("PARCC_FAILPOINTS", "serve-merge:1:panic")],
    );
    assert_eq!(s1.cmd("add 0 1"), "ok pending=1");
    assert_eq!(s1.cmd("commit"), "batch 1 edges=1");
    let reply = s1.cmd("flush");
    assert!(
        reply.starts_with("error: merge thread failed:") && reply.contains("serve-merge"),
        "{reply}"
    );
    // Surfaced exactly once; merging resumed for later batches.
    assert_eq!(s1.cmd("flush"), "epoch 0");
    assert_eq!(s1.cmd("add 2 3"), "ok pending=1");
    assert_eq!(s1.cmd("commit"), "batch 2 edges=1");
    assert_eq!(s1.cmd("flush"), "epoch 1");
    let stats = s1.cmd("stats");
    assert!(stats.contains("failures=1"), "{stats}");
    s1.more(2);
    s1.quit();

    // Restart without the failpoint: both batches replay from the log.
    let mut s2 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
    assert_eq!(s2.cmd("same-component 0 1"), "same-component true epoch=0");
    assert_eq!(s2.cmd("same-component 2 3"), "same-component true epoch=0");
    assert_eq!(s2.cmd("same-component 1 2"), "same-component false epoch=0");
    assert_eq!(s2.cmd("component-count"), "component-count 2 epoch=0");
    let stderr = s2.quit();
    assert!(
        stderr.contains("wal: replayed 2 batches (2 edges)"),
        "{stderr}"
    );
}

/// A torn WAL append fails the commit *before* the ack, keeps the batch
/// pending, and the retried commit both succeeds and overwrites the torn
/// bytes — verified by a clean-tail restart.
#[test]
fn serve_binary_torn_commit_is_retryable_and_replays_clean() {
    let wal = TempPath::new("torn-commit.wal");
    let wal_s = wal.0.to_str().unwrap().to_string();

    let mut s1 = ServeProc::spawn(
        &["serve", "--wal", &wal_s],
        &[("PARCC_FAILPOINTS", "wal-append:1:torn-write")],
    );
    assert_eq!(s1.cmd("add 0 1 1 2"), "ok pending=2");
    let reply = s1.cmd("commit");
    assert!(
        reply.starts_with("error: commit: wal append failed")
            && reply.contains("batch kept pending"),
        "{reply}"
    );
    assert_eq!(s1.cmd("commit"), "batch 1 edges=2"); // buffer survived, retry lands
    assert_eq!(s1.cmd("flush"), "epoch 1");
    s1.quit();

    let mut s2 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
    assert_eq!(s2.cmd("same-component 0 2"), "same-component true epoch=0");
    let stderr = s2.quit();
    assert!(stderr.contains("wal: replayed 1 batches"), "{stderr}");
    assert!(
        !stderr.contains("truncated"),
        "retry must overwrite the torn bytes, leaving no torn tail: {stderr}"
    );
}

/// `save` compacts the log (snapshot + truncate), restart from snapshot
/// plus empty WAL reproduces the partition, and `stats` reports the
/// wal/recovered telemetry lines.
#[test]
fn serve_binary_save_compacts_wal_and_restart_is_instant() {
    let wal = TempPath::new("compact.wal");
    let snap = TempPath::new("compact.pgb");
    let wal_s = wal.0.to_str().unwrap().to_string();
    let snap_s = snap.0.to_str().unwrap().to_string();

    let mut s1 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
    assert_eq!(s1.cmd("add 0 1 2 3 1 3"), "ok pending=3");
    assert_eq!(s1.cmd("commit"), "batch 1 edges=3");
    let stats = s1.cmd("stats");
    assert!(stats.contains("submitted=1"), "{stats}");
    let extra = s1.more(2);
    assert!(
        extra[0].contains("sync=batch") && extra[0].contains("records=1"),
        "{extra:?}"
    );
    assert_eq!(extra[1], "recovered: batches=0 edges=0");
    let saved = s1.cmd(&format!("save {snap_s}"));
    assert!(
        saved.starts_with("saved ") && saved.ends_with(" wal=compacted"),
        "{saved}"
    );
    let stats = s1.cmd("stats");
    assert!(stats.contains("failures=0"), "{stats}");
    let extra = s1.more(2);
    assert!(
        extra[0].contains("records=0"),
        "compaction must empty the log: {extra:?}"
    );
    s1.quit();

    // Restart: snapshot preload + empty log — O(n + tail) with tail = 0.
    let mut s2 = ServeProc::spawn(&["serve", "--wal", &wal_s, &snap_s], &[]);
    assert_eq!(s2.cmd("component-count"), "component-count 1 epoch=0");
    assert_eq!(s2.cmd("same-component 0 3"), "same-component true epoch=0");
    let stderr = s2.quit();
    assert!(stderr.contains("wal: replayed 0 batches"), "{stderr}");
}

/// Flag gating and policy validation: `--wal` outside serve, `--wal-sync`
/// without `--wal`, and a bogus sync policy all fail fast with a clear
/// error instead of silently dropping durability.
#[test]
fn serve_binary_wal_flag_gating() {
    let out = Command::new(env!("CARGO_BIN_EXE_parcc"))
        .args(["--wal", "/tmp/nope.wal", "bench", "x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--wal is only valid with serve"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = Command::new(env!("CARGO_BIN_EXE_parcc"))
        .args(["serve", "--wal-sync", "off"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--wal-sync requires --wal"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let wal = TempPath::new("badsync.wal");
    let out = Command::new(env!("CARGO_BIN_EXE_parcc"))
        .args([
            "serve",
            "--wal",
            wal.0.to_str().unwrap(),
            "--wal-sync",
            "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bogus"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// All three sync policies drive a full commit/flush/restart round trip.
#[test]
fn serve_binary_sync_policies_round_trip() {
    for policy in ["batch", "interval", "off"] {
        let wal = TempPath::new(&format!("sync-{policy}.wal"));
        let wal_s = wal.0.to_str().unwrap().to_string();
        let mut s1 = ServeProc::spawn(&["serve", "--wal", &wal_s, "--wal-sync", policy], &[]);
        assert_eq!(s1.cmd("add 0 1"), "ok pending=1");
        assert_eq!(s1.cmd("commit"), "batch 1 edges=1");
        assert_eq!(s1.cmd("flush"), "epoch 1");
        let stats = s1.cmd("stats");
        assert!(stats.contains("merged=1"), "{stats}");
        let extra = s1.more(2);
        assert!(extra[0].contains(&format!("sync={policy}")), "{extra:?}");
        s1.quit(); // clean exit: even sync=off data is written, just not fsynced
        let mut s2 = ServeProc::spawn(&["serve", "--wal", &wal_s], &[]);
        assert_eq!(
            s2.cmd("same-component 0 1"),
            "same-component true epoch=0",
            "policy {policy}"
        );
        s2.quit();
    }
}

/// A WAL that is actually a PGB snapshot (operator mix-up) is refused
/// loudly at startup instead of being replayed as garbage or truncated.
#[test]
fn serve_binary_refuses_a_foreign_wal_file() {
    let snap = TempPath::new("foreign.pgb");
    save_binary(&ShardedGraph::new(2, vec![vec![Edge::new(0, 1)]]), &snap.0).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_parcc"))
        .args(["serve", "--wal", snap.0.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a parcc WAL") || stderr.contains("magic"),
        "{stderr}"
    );
    // The refused file is untouched — no truncation, no header rewrite.
    let mg = MappedGraph::open(&snap.0).unwrap();
    mg.validate().unwrap();
}
