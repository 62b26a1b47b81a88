//! Per-row derivation-support counts for incremental view maintenance.
//!
//! A [`SupportTable`] records, for each derived row of a materialized view,
//! how many distinct rule-body instantiations currently derive it.  The
//! incremental layer (`magic-incr`) keeps the counts *exact* by enumerating
//! every derivation exactly once (the disjoint semi-naive window
//! discipline); retraction then becomes reference-count maintenance: a row
//! whose support reaches zero has no remaining derivation and is deleted,
//! and its deletion propagates.  For predicates whose support can be cyclic
//! (recursive cones) the counts alone are not a sound deletion criterion —
//! that is the delete-and-rederive (DRed) fallback's job — but they stay
//! exact either way, which the test suite checks against the head-bound
//! join oracle.
//!
//! # Layout
//!
//! One flat column of `u64` counts per predicate, indexed by **row id** —
//! the id the relation's dedup probe already produced when the firing was
//! inserted, so maintaining a count is one bounds check and one add: no
//! hashing, no stored key, 8 bytes a row.  A column follows its relation's
//! id space: it grows (zero-filled) as ids are handed out, a removed row's
//! entry is zeroed ([`SupportTable::clear`]) and stays so while the dead
//! slot persists, and when the relation is compacted — the one event that
//! renumbers ids — the column is gathered through the same old-id order
//! ([`SupportTable::remap`]).
//!
//! The table is storage-layer state rather than engine state because it is
//! part of what a materialized relation *is* under maintenance: rows plus
//! their support.

use magic_datalog::PredName;
use std::collections::BTreeMap;

/// Exact per-row derivation counts: per predicate, a column indexed by row
/// id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupportTable {
    counts: BTreeMap<PredName, Vec<u64>>,
}

impl SupportTable {
    /// An empty table.
    pub fn new() -> SupportTable {
        SupportTable::default()
    }

    /// Add `n` derivations of row `id` of `pred`; returns the new count.
    pub fn add(&mut self, pred: &PredName, id: usize, n: u64) -> u64 {
        let column = match self.counts.get_mut(pred) {
            Some(column) => column,
            // The name is cloned only when the column is created.
            None => self.counts.entry(pred.clone()).or_default(),
        };
        if id >= column.len() {
            column.resize(id + 1, 0);
        }
        column[id] += n;
        column[id]
    }

    /// Subtract `n` derivations of row `id` of `pred`; returns the
    /// remaining count.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the row's recorded support is smaller
    /// than `n` — the incremental algebra never over-subtracts; doing so
    /// means counts and derivations have drifted apart.
    pub fn sub(&mut self, pred: &PredName, id: usize, n: u64) -> u64 {
        let Some(count) = self.counts.get_mut(pred).and_then(|c| c.get_mut(id)) else {
            debug_assert!(n == 0, "subtracting support from an untracked row");
            return 0;
        };
        debug_assert!(*count >= n, "support underflow: {count} - {n}");
        *count = count.saturating_sub(n);
        *count
    }

    /// The recorded support of row `id` of `pred` (zero if untracked).
    pub fn get(&self, pred: &PredName, id: usize) -> u64 {
        self.counts
            .get(pred)
            .and_then(|column| column.get(id))
            .copied()
            .unwrap_or(0)
    }

    /// Zero the count of row `id` of `pred` (the row is being removed, or
    /// its count re-established from scratch); returns the count it had.
    pub fn clear(&mut self, pred: &PredName, id: usize) -> u64 {
        self.counts
            .get_mut(pred)
            .and_then(|column| column.get_mut(id))
            .map_or(0, std::mem::take)
    }

    /// Follow a compaction of `pred`'s relation: `live_ids` are the ids
    /// that survive, ascending — the order compaction renumbers them
    /// densely from zero in — so the count of old id `live_ids[k]` moves
    /// to id `k`.  Call with the ids as they are *before* the relation is
    /// compacted.
    pub fn remap(&mut self, pred: &PredName, live_ids: impl Iterator<Item = usize>) {
        if let Some(column) = self.counts.get_mut(pred) {
            *column = live_ids
                .map(|id| column.get(id).copied().unwrap_or(0))
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let mut t = SupportTable::new();
        let p = PredName::plain("p");
        assert_eq!(t.add(&p, 3, 2), 2);
        assert_eq!(t.add(&p, 3, 3), 5);
        assert_eq!(t.get(&p, 3), 5);
        // Ids the column grew past hold zero.
        assert_eq!(t.get(&p, 1), 0);
        assert_eq!(t.get(&p, 99), 0);
        assert_eq!(t.sub(&p, 3, 4), 1);
        assert_eq!(t.sub(&p, 3, 1), 0);
        assert_eq!(t.get(&p, 3), 0);
    }

    #[test]
    fn per_predicate_isolation() {
        let mut t = SupportTable::new();
        let p = PredName::plain("p");
        let q = PredName::plain("q");
        t.add(&p, 0, 1);
        t.add(&q, 0, 7);
        assert_eq!(t.get(&p, 0), 1);
        assert_eq!(t.get(&q, 0), 7);
        assert_eq!(t.clear(&q, 0), 7);
        assert_eq!(t.get(&q, 0), 0);
        assert_eq!(t.clear(&q, 0), 0);
        assert_eq!(t.get(&p, 0), 1);
    }

    #[test]
    fn remap_gathers_the_surviving_ids_in_order() {
        let mut t = SupportTable::new();
        let p = PredName::plain("p");
        for (id, n) in [(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)] {
            t.add(&p, id, n);
        }
        // Rows 1 and 3 were removed (their counts cleared); compaction
        // renumbers 0, 2, 4 -> 0, 1, 2.
        t.clear(&p, 1);
        t.clear(&p, 3);
        t.remap(&p, [0, 2, 4].into_iter());
        assert_eq!([t.get(&p, 0), t.get(&p, 1), t.get(&p, 2)], [10, 12, 14]);
        assert_eq!(t.get(&p, 3), 0);
        // A surviving id past the column's end (rows never counted) reads
        // as zero; an untracked predicate is left alone.
        t.remap(&p, [0, 7].into_iter());
        assert_eq!([t.get(&p, 0), t.get(&p, 1)], [10, 0]);
        t.remap(&PredName::plain("q"), [0].into_iter());
        assert_eq!(t.get(&PredName::plain("q"), 0), 0);
    }
}
