//! Pool workers are spawned on demand, never more than the widest parallel
//! call so far needs. Its own test binary, so the global pool is fresh.
//!
//! Workers are counted by thread name (`parcc-worker-*`) in
//! `/proc/self/task/*/comm`, hence Linux only. A new thread sets its own
//! name just after it starts, so the name count is polled until it settles,
//! and the exact figure is cross-checked against the process's task count,
//! which a spawn raises before it returns.
#![cfg(target_os = "linux")]

use rayon::prelude::*;
use std::time::{Duration, Instant};

fn comms() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect()
}

/// Named pool workers, polled until there are `expect` of them or a few
/// seconds pass.
fn named_workers(expect: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = comms()
            .iter()
            .filter(|comm| comm.starts_with("parcc-worker-"))
            .count();
        if n == expect || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Assert that the pool has exactly `expect` workers, by name and by the
/// number of threads it added to the process.
fn assert_workers(baseline: usize, expect: usize, what: &str) {
    assert_eq!(named_workers(expect), expect, "{what}");
    assert_eq!(comms().len() - baseline, expect, "{what} (task count)");
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(f)
}

/// Nested `join` over parallel sums, so jobs land on freshly spawned
/// workers and fan out again from there.
fn nested_sum(lo: u64, hi: u64) -> u64 {
    if hi - lo <= 20_000 {
        return (lo..hi).into_par_iter().sum();
    }
    let mid = lo + (hi - lo) / 2;
    let (a, b) = rayon::join(|| nested_sum(lo, mid), || nested_sum(mid, hi));
    a + b
}

#[test]
fn workers_are_spawned_on_demand() {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build_global()
        .expect("first build_global in a fresh process");
    let baseline = comms().len();
    assert_workers(baseline, 0, "no parallel call yet");

    let n = 100_000u64;
    let s: u64 = (0..n).into_par_iter().sum();
    assert_eq!(s, n * (n - 1) / 2);
    assert_workers(baseline, 1, "a 2-thread batch needs one worker");
    assert_eq!(nested_sum(0, n), n * (n - 1) / 2);
    assert_workers(baseline, 1, "2-thread joins need no more");

    let s: u64 = with_threads(8, || (0..n).into_par_iter().sum());
    assert_eq!(s, n * (n - 1) / 2);
    assert_workers(baseline, 7, "an 8-thread install grows the pool to 7");
    assert_eq!(
        with_threads(8, || nested_sum(0, 1_000_000)),
        999_999 * 500_000
    );
    assert_eq!(nested_sum(0, 1_000_000), 999_999 * 500_000);
    assert_workers(baseline, 7, "the pool never exceeds capacity − 1");
}
