//! Shared scratch memory for Stage 1.
//!
//! MATCHING runs many times per solve (Stage 1 alone makes up to 26 calls
//! on a 200k-vertex powerlaw graph, and the phase loop makes more); its
//! per-vertex CRCW cells are allocated once here and never cleared between
//! calls (the paper's processors likewise reuse indexed blocks). Each
//! election cell is emptied by its winner in the pass that checks it, and
//! each flag is an epoch byte that only reads as set under the call that
//! set it, so a call pays for the vertices it touches and nothing more.
//! Epochs come from the call's tag (see [`Stage1Scratch::epoch_for`]).

use parcc_pram::cost::CostTracker;
use parcc_pram::crcw::{EpochFlags, Flags, TagCells};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct epochs per cycle of tags: epochs are `1..=EPOCHS`.
const EPOCHS: u64 = u8::MAX as u64;

/// Reusable per-vertex cells for MATCHING / FILTER / EXTRACT / REDUCE.
#[derive(Debug)]
pub struct Stage1Scratch {
    /// Winner of the outgoing-arc election (Step 3).
    pub out_winner: TagCells,
    /// Winner of the incoming-arc election (Step 5), and of the
    /// smallest-index arc into each Step-4 singleton, which reports it.
    pub in_winner: TagCells,
    /// Second incoming-arc election (Step 6 re-detects after Step 5).
    pub in_winner2: TagCells,
    /// End-sharing election (Step 8).
    pub end_mark: TagCells,
    /// ">1 incoming arcs" marks for Step 5.
    pub multi_in: EpochFlags,
    /// ">1 incoming arcs" marks for Step 6.
    pub multi_in2: EpochFlags,
    /// "has an adjacent arc in D" marks (Step 4 singleton detection).
    pub non_singleton: EpochFlags,
    /// Vertices deleted from D in Step 6.
    pub deleted: EpochFlags,
    /// "end is shared" marks (Step 8).
    pub shared: EpochFlags,
    /// Distinct-endpoint collection (claim-once) for FILTER and REDUCE.
    pub vert_mark: TagCells,
    /// Membership marks for `V'` in EXTRACT/REDUCE.
    pub in_vprime: Flags,
    tag_counter: AtomicU64,
    /// The tag cycle (`tag / EPOCHS`) the epoch flags currently belong to.
    /// Only the calling thread touches it, between parallel passes.
    epoch_cycle: AtomicU64,
}

impl Stage1Scratch {
    /// Scratch for an `n`-vertex labeled digraph.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            out_winner: TagCells::new(n),
            in_winner: TagCells::new(n),
            in_winner2: TagCells::new(n),
            end_mark: TagCells::new(n),
            multi_in: EpochFlags::new(n),
            multi_in2: EpochFlags::new(n),
            non_singleton: EpochFlags::new(n),
            deleted: EpochFlags::new(n),
            shared: EpochFlags::new(n),
            vert_mark: TagCells::new(n),
            in_vprime: Flags::new(n),
            tag_counter: AtomicU64::new(1),
            epoch_cycle: AtomicU64::new(0),
        }
    }

    /// A fresh, never-before-used tag for a MATCHING call.
    pub fn next_tag(&self) -> u64 {
        self.tag_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// The epoch (`1..=255`) under which the MATCHING call holding `tag`
    /// sets and reads the five epoch-flag arrays. Tags map to epochs in
    /// cycles of 255; the first call of a new cycle resets all five arrays
    /// and charges `(5n, 1)` for it, so no flag set under an epoch's
    /// previous use survives into the next.
    pub fn epoch_for(&self, tag: u64, tracker: &CostTracker) -> u8 {
        let cycle = tag / EPOCHS;
        if self.epoch_cycle.swap(cycle, Ordering::Relaxed) != cycle {
            let flags = [
                &self.multi_in,
                &self.multi_in2,
                &self.non_singleton,
                &self.deleted,
                &self.shared,
            ];
            for f in flags {
                f.reset_all();
            }
            tracker.charge(5 * self.multi_in.len() as u64, 1);
        }
        (tag % EPOCHS) as u8 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_increasing() {
        let s = Stage1Scratch::new(4);
        let a = s.next_tag();
        let b = s.next_tag();
        assert!(b > a);
    }

    #[test]
    fn epochs_are_distinct_within_a_cycle_and_a_new_cycle_resets() {
        let s = Stage1Scratch::new(3);
        let t = CostTracker::new();
        let mut seen = std::collections::HashSet::new();
        for tag in 1..EPOCHS {
            let e = s.epoch_for(tag, &t);
            assert!(e != 0 && seen.insert(e), "tag {tag} epoch {e}");
        }
        assert_eq!(t.work(), 0, "no reset inside the first cycle");
        let e = s.epoch_for(EPOCHS - 1, &t);
        s.shared.set(2, e);
        s.non_singleton.set(0, e);
        // The next tag starts a new cycle: every flag is reset and charged.
        let wrapped = s.epoch_for(EPOCHS, &t);
        assert!(!s.shared.get(2, e) && !s.non_singleton.get(0, e));
        assert!((0..3).all(|i| !s.shared.get(i, wrapped)));
        assert_eq!(t.work(), 5 * 3);
        assert_eq!(t.depth(), 1);
    }
}
