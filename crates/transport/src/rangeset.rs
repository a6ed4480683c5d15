//! An ordered set of non-overlapping, non-adjacent `u64` ranges.
//!
//! This is the workhorse behind three different mechanisms the paper's
//! analysis leans on (§4.3: "we suspect that QUIC's large SACK ranges
//! enable it to progress further"):
//!
//! * the TCP receiver's out-of-order store (whence SACK blocks),
//! * QUIC's ACK-frame ranges (unbounded, unlike TCP's 3-block cap),
//! * stream reassembly buffers on both transports.

use std::fmt;

/// A half-open interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Range {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
}

impl Range {
    /// Construct; empty/inverted inputs yield an empty range.
    pub fn new(start: u64, end: u64) -> Range {
        Range {
            start,
            end: end.max(start),
        }
    }

    /// Number of values covered.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True when `v` lies inside.
    pub fn contains(&self, v: u64) -> bool {
        (self.start..self.end).contains(&v)
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Ordered, coalesced set of ranges.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    // Invariant: sorted by start; no two ranges overlap or touch.
    ranges: Vec<Range>,
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> RangeSet {
        RangeSet::default()
    }

    /// Insert `[start, end)`, merging with any overlapping or adjacent
    /// ranges. Returns the number of *newly covered* values (0 when the
    /// interval was already fully present).
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is guarded by `< self.ranges.len()` or `i > 0` in the same expression"
    )]
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        if end <= start {
            return 0;
        }
        // Find the first range that could interact (ends at or after start).
        let mut i = self.ranges.partition_point(|r| r.end < start);
        let mut new_start = start;
        let mut new_end = end;
        let mut covered_before = 0u64;
        let mut j = i;
        while j < self.ranges.len() && self.ranges[j].start <= end {
            let r = self.ranges[j];
            // Overlap between r and [start, end).
            let lo = r.start.max(start);
            let hi = r.end.min(end);
            if hi > lo {
                covered_before += hi - lo;
            }
            new_start = new_start.min(r.start);
            new_end = new_end.max(r.end);
            j += 1;
        }
        self.ranges.splice(i..j, [Range::new(new_start, new_end)]);
        // Also merge with a preceding range that exactly touches.
        if i > 0 && self.ranges[i - 1].end == new_start {
            let prev = self.ranges[i - 1];
            self.ranges
                .splice(i - 1..=i, [Range::new(prev.start, new_end)]);
            i -= 1;
        }
        let _ = i;
        (end - start) - covered_before
    }

    /// Remove every value below `below` (e.g. advance past a cumulative
    /// ACK point).
    pub fn remove_below(&mut self, below: u64) {
        self.ranges.retain_mut(|r| {
            if r.end <= below {
                false
            } else {
                r.start = r.start.max(below);
                true
            }
        });
    }

    /// Remove the interval `[start, end)` wherever covered.
    pub fn remove(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        for r in &self.ranges {
            if r.end <= start || r.start >= end {
                out.push(*r);
                continue;
            }
            if r.start < start {
                out.push(Range::new(r.start, start));
            }
            if r.end > end {
                out.push(Range::new(end, r.end));
            }
        }
        self.ranges = out;
    }

    /// True when `v` is covered.
    pub fn contains(&self, v: u64) -> bool {
        let i = self.ranges.partition_point(|r| r.end <= v);
        self.ranges.get(i).is_some_and(|r| r.contains(v))
    }

    /// True when the whole interval `[start, end)` is covered by a
    /// single range.
    pub fn contains_range(&self, start: u64, end: u64) -> bool {
        if end <= start {
            return true;
        }
        let i = self.ranges.partition_point(|r| r.end <= start);
        self.ranges
            .get(i)
            .is_some_and(|r| r.start <= start && r.end >= end)
    }

    /// Total number of values covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(Range::len).sum::<u64>()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate over ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Range> + '_ {
        self.ranges.iter().copied()
    }

    /// The highest covered value + 1, or 0 when empty.
    pub fn max_end(&self) -> u64 {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// The lowest covered value, if any.
    pub fn min_start(&self) -> Option<u64> {
        self.ranges.first().map(|r| r.start)
    }

    /// Given a cumulative position `cum`, return how far it can advance
    /// through contiguously covered values starting at `cum`.
    pub fn advance_from(&self, cum: u64) -> u64 {
        let i = self.ranges.partition_point(|r| r.end < cum);
        match self.ranges.get(i) {
            Some(r) if r.start <= cum => r.end.max(cum),
            _ => cum,
        }
    }

    /// The `n` ranges with the highest starts (most recently useful for
    /// SACK blocks), descending by start.
    pub fn highest(&self, n: usize) -> Vec<Range> {
        self.ranges.iter().rev().take(n).copied().collect()
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for w in self.ranges.windows(2) {
            assert!(
                w[0].end < w[1].start,
                "ranges must be disjoint and non-adjacent: {self:?}"
            );
        }
        for r in &self.ranges {
            assert!(r.start < r.end, "empty range stored: {self:?}");
        }
    }
}

impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(10, 20), 10);
        assert_eq!(s.insert(30, 40), 10);
        assert_eq!(s.len(), 2);
        assert_eq!(s.covered(), 20);
        s.check_invariants();
    }

    #[test]
    fn insert_overlapping_merges() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert_eq!(s.insert(15, 25), 5, "only 20..25 is new");
        assert_eq!(s.len(), 1);
        assert_eq!(s.covered(), 15);
        s.check_invariants();
    }

    #[test]
    fn insert_adjacent_coalesces() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(20, 30);
        assert_eq!(s.len(), 1, "{s:?}");
        assert!(s.contains_range(10, 30));
        s.check_invariants();
    }

    #[test]
    fn insert_bridging_gap() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        s.insert(40, 50);
        assert_eq!(s.insert(5, 45), 20, "fills two 10-wide gaps");
        assert_eq!(s.len(), 1);
        assert_eq!(s.covered(), 50);
        s.check_invariants();
    }

    #[test]
    fn duplicate_insert_adds_nothing() {
        let mut s = RangeSet::new();
        s.insert(5, 15);
        assert_eq!(s.insert(5, 15), 0);
        assert_eq!(s.insert(7, 9), 0);
        assert_eq!(s.covered(), 10);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut s = RangeSet::new();
        assert_eq!(s.insert(5, 5), 0);
        assert_eq!(s.insert(9, 3), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn contains_and_membership() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(9));
        assert!(s.contains_range(12, 18));
        assert!(!s.contains_range(12, 25));
        assert!(s.contains_range(3, 3), "empty interval trivially covered");
    }

    #[test]
    fn remove_below_trims() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(20, 30);
        s.remove_below(25);
        assert_eq!(s.len(), 1);
        assert!(s.contains_range(25, 30));
        assert!(!s.contains(24));
        s.check_invariants();
    }

    #[test]
    fn remove_splits() {
        let mut s = RangeSet::new();
        s.insert(0, 100);
        s.remove(40, 60);
        assert_eq!(s.len(), 2);
        assert!(s.contains_range(0, 40));
        assert!(s.contains_range(60, 100));
        assert!(!s.contains(50));
        s.check_invariants();
    }

    #[test]
    fn advance_from_walks_contiguous() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(25, 30);
        assert_eq!(s.advance_from(0), 0, "gap before first range");
        assert_eq!(s.advance_from(10), 20);
        assert_eq!(s.advance_from(15), 20);
        assert_eq!(s.advance_from(20), 20, "20 itself not covered");
        assert_eq!(s.advance_from(25), 30);
    }

    #[test]
    fn highest_returns_descending() {
        let mut s = RangeSet::new();
        s.insert(0, 5);
        s.insert(10, 15);
        s.insert(20, 25);
        let top2 = s.highest(2);
        assert_eq!(top2[0].start, 20);
        assert_eq!(top2[1].start, 10);
        assert_eq!(s.highest(10).len(), 3);
    }

    #[test]
    fn max_end_and_min_start() {
        let mut s = RangeSet::new();
        assert_eq!(s.max_end(), 0);
        assert_eq!(s.min_start(), None);
        s.insert(7, 12);
        s.insert(40, 44);
        assert_eq!(s.max_end(), 44);
        assert_eq!(s.min_start(), Some(7));
    }

    #[test]
    fn torture_merge_left_touch() {
        let mut s = RangeSet::new();
        s.insert(0, 10);
        s.insert(15, 20);
        // Touches the end of the first range exactly.
        s.insert(10, 12);
        assert!(s.contains_range(0, 12));
        assert_eq!(s.len(), 2);
        s.check_invariants();
    }
}
