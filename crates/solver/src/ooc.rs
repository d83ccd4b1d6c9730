//! Out-of-core solving: stream a memory-mapped binary graph through a
//! long-lived union–find forest **one shard at a time**, releasing each
//! shard's pages as soon as it is absorbed, so a file larger than RAM
//! solves in shard-sized working memory.
//!
//! The driver leans on three properties the rest of the workspace already
//! established:
//!
//! 1. **Shard-chunked storage** — a [`MappedGraph`] hands out page-aligned
//!    shard slices, so "the active window" is a well-defined page range
//!    the kernel can be advised about (`MADV_SEQUENTIAL` up front,
//!    `MADV_DONTNEED` + `posix_fadvise(DONTNEED)` behind the cursor).
//! 2. **Union–find** ([`DisjointSets`], path halving and union by rank) —
//!    near-constant amortized work per absorbed edge and 5 bytes of state
//!    per vertex, independent of `m`: it never buffers the absorbed edges,
//!    so the stream never rebuilds the whole graph in RAM. (The serve
//!    engine's quick-find state costs 12 bytes per vertex to make its
//!    publishes O(changed); a one-shot solve publishes nothing.)
//! 3. **Per-shard validation** — endpoints are range-checked shard by
//!    shard as the cursor advances ([`MappedGraph::validate_shard`]), so
//!    streaming never trusts unscanned bytes yet never needs a separate
//!    whole-file pass that would fault every page in ahead of time.
//!
//! Residency is sampled with `mincore` after each shard; the peak is
//! reported so callers (and the conformance tests) can verify the working
//! set stays bounded instead of taking it on faith.

use parcc_baselines::DisjointSets;
use parcc_graph::mmap::MappedGraph;
use parcc_pram::edge::Vertex;
use std::time::{Duration, Instant};

/// The outcome of an out-of-core solve: the labeling plus the telemetry
/// that makes the "bounded working set" claim checkable.
#[derive(Debug)]
pub struct OocReport {
    /// One component label per vertex (same partition contract as
    /// [`crate::ComponentSolver`] labels).
    pub labels: Vec<Vertex>,
    /// Shards streamed.
    pub shards: usize,
    /// Edges absorbed.
    pub edges: usize,
    /// On-disk size of the mapped file.
    pub file_bytes: u64,
    /// Peak mapped-file bytes resident in physical memory across the
    /// stream (`mincore` samples after each shard), `None` when the
    /// platform cannot measure (heap-fallback backend).
    pub resident_peak: Option<u64>,
    /// End-to-end wall time (advice + validation + absorption).
    pub wall: Duration,
}

/// Solve a mapped binary graph shard-at-a-time in shard-sized working
/// memory through union–find. Endpoints are validated per
/// shard as the stream advances, so an unvalidated [`MappedGraph::open`]
/// is the intended input — no page is touched twice.
///
/// # Errors
/// If a shard fails its checksum or holds an out-of-range endpoint (named
/// precisely, as in [`MappedGraph::validate`]).
pub fn solve_out_of_core(g: &MappedGraph) -> Result<OocReport, String> {
    let start = Instant::now();
    g.advise_sequential();
    let mut dsu = DisjointSets::new(g.n());
    let mut resident_peak = g.resident_bytes();
    for i in 0..g.shard_count() {
        g.validate_shard(i)?;
        for e in g.shard(i) {
            dsu.union(e.u(), e.v());
        }
        if let Some(now) = g.resident_bytes() {
            resident_peak = Some(resident_peak.unwrap_or(0).max(now));
        }
        g.release_shard(i);
    }
    Ok(OocReport {
        labels: (0..g.n() as u32).map(|v| dsu.find(v)).collect(),
        shards: g.shard_count(),
        edges: g.m(),
        file_bytes: g.file_bytes(),
        resident_peak,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle_labels;
    use parcc_graph::generators as gen;
    use parcc_graph::io::save_binary;
    use parcc_graph::store::ShardedGraph;
    use parcc_graph::traverse::same_partition;

    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            Self(
                std::env::temp_dir()
                    .join(format!("parcc-ooc-test-{}-{tag}.pgb", std::process::id())),
            )
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn streams_to_the_oracle_partition() {
        let g = gen::with_isolated(&gen::mixture(13), 9);
        let sg = ShardedGraph::from_graph(&g, 6);
        let tmp = TempPath::new("oracle");
        save_binary(&sg, &tmp.0).unwrap();
        let mg = MappedGraph::open(&tmp.0).unwrap();
        let report = solve_out_of_core(&mg).unwrap();
        assert_eq!(report.labels.len(), g.n());
        assert!(same_partition(&report.labels, &oracle_labels(&g)));
        assert_eq!((report.shards, report.edges), (6, g.m()));
        assert_eq!(report.file_bytes, std::fs::metadata(&tmp.0).unwrap().len());
        if let Some(peak) = report.resident_peak {
            assert!(peak <= report.file_bytes + 4096, "peak {peak}");
        }
    }

    #[test]
    fn validates_each_shard_in_stream_order() {
        let sg = ShardedGraph::new(3, vec![vec![parcc_pram::edge::Edge::new(0, 2)]]);
        let tmp = TempPath::new("validate");
        save_binary(&sg, &tmp.0).unwrap();
        let mut bytes = std::fs::read(&tmp.0).unwrap();
        let off = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        bytes[off..off + 8].copy_from_slice(&parcc_pram::edge::Edge::new(50, 51).0.to_le_bytes());
        std::fs::write(&tmp.0, &bytes).unwrap();
        let mg = MappedGraph::open(&tmp.0).unwrap();
        // The per-shard CRC trips before the endpoint scan under v2.
        let err = solve_out_of_core(&mg).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }
}
