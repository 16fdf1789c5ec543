//! Single-pass stack-distance profiling (Mattson et al., 1970).
//!
//! The paper needed "miss rates for a range of system parameters" (§1) —
//! one simulation per cache size. For fully-associative LRU caches the
//! classic stack algorithm computes the miss ratio of *every* capacity in
//! a single pass: the LRU *stack distance* of an access (the number of
//! distinct lines touched since the previous access to the same line)
//! determines a hit in every cache with at least that many lines.
//!
//! [`StackDistanceProfiler`] implements the O(log n)-per-access variant:
//! each line's last-access time is a 1-bit in a Fenwick tree over time;
//! the stack distance is the count of set bits after the line's previous
//! time. The resulting histogram yields the full miss-ratio-versus-size
//! curve, used by the calibration tooling and cross-validated against the
//! direct cache simulator in the test suite.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tlc_trace::LineAddr;

/// Binary indexed tree over access times, counting "most recent access
/// positions" of live lines. Shared with the reuse-distance predictor
/// ([`crate::predict`]), which needs the same "distinct lines since last
/// access" query but keeps exact distances instead of power-of-two
/// buckets.
#[derive(Debug)]
pub(crate) struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    pub(crate) fn new() -> Self {
        Fenwick { tree: vec![0; 1024] }
    }

    /// Highest addressable 0-based position.
    pub(crate) fn capacity(&self) -> usize {
        self.tree.len() - 2
    }

    /// Replaces the tree with a larger one containing a 1 at each of
    /// `ones` (a plain resize would zero the new parent nodes, which must
    /// hold range sums over the old elements).
    ///
    /// Grows by doubling from the current size, so a stream of length n
    /// triggers O(log n) rebuilds; each rebuild constructs the tree
    /// bottom-up in O(len) — scatter the ones as leaf counts, then
    /// propagate every node into its parent once — instead of n
    /// O(log n) point updates.
    pub(crate) fn rebuild(&mut self, new_max_idx: usize, ones: impl Iterator<Item = usize>) {
        let len = (new_max_idx + 2).next_power_of_two().max(2 * self.tree.len());
        self.tree = vec![0; len];
        for idx in ones {
            debug_assert!(idx + 1 < len, "fenwick rebuild index {idx} out of range");
            self.tree[idx + 1] = 1;
        }
        for i in 1..len {
            let parent = i + (i & i.wrapping_neg());
            if parent < len {
                self.tree[parent] += self.tree[i];
            }
        }
    }

    /// Adds `delta` at position `idx` (0-based).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `idx` exceeds the capacity; callers
    /// grow the tree via [`Fenwick::rebuild`] first.
    pub(crate) fn add(&mut self, idx: usize, delta: i32) {
        debug_assert!(idx <= self.capacity(), "fenwick index {idx} out of range");
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=idx`.
    pub(crate) fn prefix(&self, idx: usize) -> u32 {
        let mut i = (idx + 1).min(self.tree.len() - 1);
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Total of all positions.
    pub(crate) fn total(&self) -> u32 {
        self.prefix(self.tree.len() - 2)
    }

    /// Zeroes every node in place, keeping the allocation — a fresh tree
    /// without the `vec![0; n]` churn when a profiler is reused across
    /// L1 groups.
    pub(crate) fn clear(&mut self) {
        self.tree.iter_mut().for_each(|n| *n = 0);
    }
}

/// Single-pass LRU stack-distance profiler. See the module docs.
///
/// # Examples
///
/// ```
/// use tlc_cache::StackDistanceProfiler;
/// use tlc_trace::LineAddr;
///
/// let mut p = StackDistanceProfiler::new();
/// for line in [0u64, 1, 2, 0, 1, 2] {
///     p.record(LineAddr(line));
/// }
/// // Second round: every access has stack distance 3 (two other lines
/// // touched in between) — a 2-line cache misses, a 4-line cache hits.
/// assert_eq!(p.misses_at_capacity(2), 6);
/// assert_eq!(p.misses_at_capacity(4), 3); // only the three cold misses
/// ```
#[derive(Debug)]
pub struct StackDistanceProfiler {
    fenwick: Fenwick,
    last_time: HashMap<LineAddr, usize>,
    clock: usize,
    accesses: u64,
    cold_misses: u64,
    /// Histogram of stack distances in power-of-two buckets:
    /// `histogram[k]` counts accesses with distance in `(2^(k-1), 2^k]`
    /// (bucket 0 holds distance 1).
    histogram: Vec<u64>,
}

impl StackDistanceProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        StackDistanceProfiler {
            fenwick: Fenwick::new(),
            last_time: HashMap::new(),
            clock: 0,
            accesses: 0,
            cold_misses: 0,
            histogram: vec![0; 40],
        }
    }

    /// Records one line access.
    pub fn record(&mut self, line: LineAddr) {
        self.accesses += 1;
        let now = self.clock;
        self.clock += 1;
        if now > self.fenwick.capacity() {
            // Grow the time axis; only live lines carry a 1.
            let live: Vec<usize> = self.last_time.values().copied().collect();
            self.fenwick.rebuild(now.max(2 * self.fenwick.capacity()), live.into_iter());
        }
        match self.last_time.insert(line, now) {
            None => {
                self.cold_misses += 1;
            }
            Some(prev) => {
                // Lines whose last access is strictly after `prev`, plus
                // this line itself.
                let after = self.fenwick.total() - self.fenwick.prefix(prev);
                let distance = after as u64 + 1;
                let bucket = (64 - (distance - 1).leading_zeros()) as usize;
                let last = self.histogram.len() - 1;
                self.histogram[bucket.min(last)] += 1;
                self.fenwick.add(prev, -1);
            }
        }
        self.fenwick.add(now, 1);
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// First-touch (cold) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Distinct lines seen.
    pub fn unique_lines(&self) -> u64 {
        self.last_time.len() as u64
    }

    /// Misses a fully-associative LRU cache of `capacity_lines` lines
    /// would take on the recorded stream (`capacity_lines` must be a
    /// power of two — the histogram is bucketed that way).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero or not a power of two.
    pub fn misses_at_capacity(&self, capacity_lines: u64) -> u64 {
        assert!(
            capacity_lines > 0 && capacity_lines.is_power_of_two(),
            "capacity must be a positive power of two"
        );
        // An access with stack distance d hits iff d <= capacity. Bucket
        // k spans (2^(k-1), 2^k], so buckets with 2^k <= capacity are
        // hits.
        let cutoff = capacity_lines.trailing_zeros() as usize;
        let reuse_misses: u64 =
            self.histogram.iter().enumerate().filter(|(k, _)| *k > cutoff).map(|(_, &c)| c).sum();
        self.cold_misses + reuse_misses
    }

    /// Miss ratio at a capacity (see [`Self::misses_at_capacity`]).
    pub fn miss_ratio_at_capacity(&self, capacity_lines: u64) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses_at_capacity(capacity_lines) as f64 / self.accesses as f64
        }
    }

    /// The full miss-ratio curve over power-of-two capacities from 1 line
    /// to `max_lines`.
    pub fn curve(&self, max_lines: u64) -> MissRatioCurve {
        let mut points = Vec::new();
        self.curve_into(max_lines, &mut points);
        MissRatioCurve { points, accesses: self.accesses }
    }

    /// As [`Self::curve`], but writes the `(capacity_lines, miss_ratio)`
    /// points into a caller-provided buffer (cleared first, allocation
    /// kept) instead of building a fresh `Vec`. A sweep profiling many L1
    /// groups reuses one buffer across all of them.
    pub fn curve_into(&self, max_lines: u64, points: &mut Vec<(u64, f64)>) {
        points.clear();
        let mut c = 1u64;
        while c <= max_lines {
            points.push((c, self.miss_ratio_at_capacity(c)));
            c *= 2;
        }
    }

    /// Returns the profiler to its freshly-constructed state while
    /// keeping every allocation (Fenwick tree, hash map capacity,
    /// histogram), so one profiler can serve all L1 groups in a sweep
    /// back to back.
    pub fn reset(&mut self) {
        self.fenwick.clear();
        self.last_time.clear();
        self.clock = 0;
        self.accesses = 0;
        self.cold_misses = 0;
        self.histogram.iter_mut().for_each(|h| *h = 0);
    }
}

impl Default for StackDistanceProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// A miss-ratio-versus-capacity curve from one profiling pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissRatioCurve {
    /// `(capacity_lines, miss_ratio)` points, capacities ascending.
    pub points: Vec<(u64, f64)>,
    /// Accesses behind the curve.
    pub accesses: u64,
}

impl MissRatioCurve {
    /// Miss ratio at the given capacity, if profiled. Capacities are
    /// stored ascending ([`StackDistanceProfiler::curve`] emits them in
    /// doubling order), so the lookup is a binary search.
    pub fn at(&self, capacity_lines: u64) -> Option<f64> {
        self.points
            .binary_search_by_key(&capacity_lines, |&(c, _)| c)
            .ok()
            .map(|i| self.points[i].1)
    }
}

/// Sentinel for an empty direct-mapped slot in [`NestedDmProfiler`]. A
/// real line address can never equal it (lines are byte addresses divided
/// by the line size, so bit 63 is always clear in practice).
const DM_INVALID: u64 = u64::MAX;

/// Independent nested direct-mapped profiler: one plain tag array per
/// power-of-two set count, probed individually on every access.
///
/// Nested power-of-two set masks nest the conflict groups, so
/// demand-filled DM content at size `S` is a subset of content at `2S`
/// (inclusion) and each access has one smallest hitting size. The
/// predictor ([`predict`](crate::predict)) answers direct-mapped members
/// from that histogram, and the audit checks the family engine
/// ([`filter_family`](crate::filter_family), one [`Cache`](crate::Cache)
/// per member) against it. The profiler probes every size on every
/// access, counts the smallest hitting size into a histogram, and
/// *verifies* the inclusion invariant as it goes, so a violation of the
/// nesting argument shows up as a counted discrepancy instead of
/// silently wrong predictions.
///
/// Dirty bits and victim write-backs are out of scope (they are not
/// inclusive across sizes); the per-access naive hierarchy oracle covers
/// those.
#[derive(Debug)]
pub struct NestedDmProfiler {
    set_masks: Vec<u64>,
    tags: Vec<Vec<u64>>,
    /// `hist[t]`: accesses whose smallest hitting size index is `t`
    /// (`hist[len]` = resident nowhere).
    hist: Vec<u64>,
    accesses: u64,
    inclusion_violations: u64,
}

impl NestedDmProfiler {
    /// Creates a profiler over the given per-size set counts, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `set_counts` is empty, not strictly ascending, or holds
    /// a zero or non-power-of-two entry (the nesting argument needs
    /// prefix-bit indexing).
    pub fn new(set_counts: &[u64]) -> Self {
        assert!(!set_counts.is_empty(), "need at least one size");
        for w in set_counts.windows(2) {
            assert!(w[0] < w[1], "set counts must be strictly ascending");
        }
        for &s in set_counts {
            assert!(s > 0 && s.is_power_of_two(), "set counts must be powers of two");
        }
        NestedDmProfiler {
            set_masks: set_counts.iter().map(|&s| s - 1).collect(),
            tags: set_counts.iter().map(|&s| vec![DM_INVALID; s as usize]).collect(),
            hist: vec![0; set_counts.len() + 1],
            accesses: 0,
            inclusion_violations: 0,
        }
    }

    /// Records one probe line: probes **every** size, histograms the
    /// smallest hitting one, checks inclusion, and demand-fills the sizes
    /// that missed.
    pub fn record(&mut self, line: u64) {
        self.accesses += 1;
        let k = self.set_masks.len();
        let mut smallest = k;
        let mut violated = false;
        for i in 0..k {
            let hit = self.tags[i][(line & self.set_masks[i]) as usize] == line;
            if hit && smallest == k {
                smallest = i;
            } else if !hit && smallest < k {
                // A smaller size hit but this larger one missed:
                // inclusion broken.
                violated = true;
            }
        }
        if violated {
            self.inclusion_violations += 1;
        }
        self.hist[smallest] += 1;
        for i in 0..smallest {
            self.tags[i][(line & self.set_masks[i]) as usize] = line;
        }
    }

    /// Clears the histogram at the warm-up boundary (tag arrays persist,
    /// exactly like a back-end's counter reset).
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.hist.iter_mut().for_each(|h| *h = 0);
    }

    /// Per-size `(hits, misses)` since the last reset, ascending size
    /// order: size `i` hits every access whose smallest hitting index is
    /// `<= i`.
    pub fn counters(&self) -> Vec<(u64, u64)> {
        let mut hits = 0u64;
        (0..self.set_masks.len())
            .map(|i| {
                hits += self.hist[i];
                (hits, self.accesses - hits)
            })
            .collect()
    }

    /// Accesses recorded since the last reset.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses (lifetime) on which a smaller size hit while a larger one
    /// missed. Always zero for demand-filled nested power-of-two DM
    /// arrays — a nonzero count falsifies the nesting argument the
    /// histogram rests on.
    pub fn inclusion_violations(&self) -> u64 {
        self.inclusion_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::{Associativity, CacheConfig, ReplacementKind};

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn cold_misses_counted() {
        let mut p = StackDistanceProfiler::new();
        for l in 0..10u64 {
            p.record(line(l));
        }
        assert_eq!(p.cold_misses(), 10);
        assert_eq!(p.unique_lines(), 10);
        assert_eq!(p.misses_at_capacity(1024), 10);
    }

    #[test]
    fn cyclic_pattern_has_sharp_knee() {
        // Cycling over 8 lines: caches >= 8 lines hit everything after
        // warm-up, caches < 8 lines (LRU) miss everything.
        let mut p = StackDistanceProfiler::new();
        for i in 0..800u64 {
            p.record(line(i % 8));
        }
        assert_eq!(p.misses_at_capacity(8), 8, "only cold misses above the knee");
        assert_eq!(p.misses_at_capacity(4), 800, "LRU thrashes below the knee");
    }

    #[test]
    fn immediate_reuse_hits_in_one_line_cache() {
        let mut p = StackDistanceProfiler::new();
        for _ in 0..5 {
            p.record(line(42));
        }
        assert_eq!(p.misses_at_capacity(1), 1);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut p = StackDistanceProfiler::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.record(line(x % 3000));
        }
        let curve = p.curve(4096);
        for w in curve.points.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "curve rose: {:?} -> {:?}", w[0], w[1]);
        }
        assert_eq!(curve.at(1024), Some(p.miss_ratio_at_capacity(1024)));
        assert_eq!(curve.at(3), None);
    }

    #[test]
    fn curve_lookup_covers_endpoints_and_absent_capacities() {
        let mut p = StackDistanceProfiler::new();
        for i in 0..500u64 {
            p.record(line(i % 40));
        }
        let curve = p.curve(256);
        // Both endpoints of the profiled range resolve...
        assert_eq!(curve.at(1), Some(p.miss_ratio_at_capacity(1)));
        assert_eq!(curve.at(256), Some(p.miss_ratio_at_capacity(256)));
        // ...every interior power of two resolves...
        for &(c, m) in &curve.points {
            assert_eq!(curve.at(c), Some(m));
        }
        // ...and capacities outside or between the points do not.
        assert_eq!(curve.at(0), None, "below the smallest profiled capacity");
        assert_eq!(curve.at(512), None, "above the largest profiled capacity");
        assert_eq!(curve.at(96), None, "between profiled powers of two");
    }

    #[test]
    fn agrees_with_direct_fa_lru_simulation() {
        // Cross-validate against the real fully-associative LRU cache at
        // several capacities.
        let mut x = 99u64;
        let stream: Vec<LineAddr> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                line(x % 700)
            })
            .collect();

        let mut p = StackDistanceProfiler::new();
        for &l in &stream {
            p.record(l);
        }

        for capacity in [16u64, 64, 256, 1024] {
            let cfg =
                CacheConfig::new(capacity * 16, 16, Associativity::Full, ReplacementKind::Lru)
                    .expect("valid");
            let mut cache = Cache::new(cfg);
            let mut misses = 0u64;
            for &l in &stream {
                if !cache.access(l, false) {
                    cache.fill(l, false);
                    misses += 1;
                }
            }
            assert_eq!(
                p.misses_at_capacity(capacity),
                misses,
                "profiler disagrees with direct simulation at {capacity} lines"
            );
        }
    }

    #[test]
    fn profile_matches_across_time_growth() {
        // Exercise the Fenwick resize path with a long stream.
        let mut p = StackDistanceProfiler::new();
        for i in 0..5000u64 {
            p.record(line(i % 3));
        }
        assert_eq!(p.accesses(), 5000);
        assert_eq!(p.misses_at_capacity(4), 3);
    }

    #[test]
    fn bottom_up_rebuild_matches_incremental_adds() {
        // Same ones scattered via rebuild and via point updates must
        // produce identical prefix sums at every position.
        let ones: Vec<usize> = (0..300).map(|i| (i * 7 + 3) % 900).collect();
        let mut rebuilt = Fenwick::new();
        rebuilt.rebuild(2000, ones.iter().copied());
        let mut incremental = Fenwick::new();
        incremental.tree = vec![0; rebuilt.tree.len()];
        for &idx in &ones {
            incremental.add(idx, 1);
        }
        assert_eq!(rebuilt.tree, incremental.tree);
        for idx in [0usize, 1, 5, 899, 1500, 2000] {
            assert_eq!(rebuilt.prefix(idx), incremental.prefix(idx), "prefix({idx})");
        }
        assert_eq!(rebuilt.total(), 300);
    }

    #[test]
    fn rebuild_doubles_from_current_size() {
        let mut f = Fenwick::new();
        assert_eq!(f.tree.len(), 1024);
        // A small request still doubles (no shrink, no 1024-floor churn).
        f.rebuild(100, std::iter::empty());
        assert_eq!(f.tree.len(), 2048);
        // A large request jumps straight to its power of two.
        f.rebuild(100_000, std::iter::empty());
        assert_eq!(f.tree.len(), 131_072);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_capacity() {
        let p = StackDistanceProfiler::new();
        let _ = p.misses_at_capacity(3);
    }

    #[test]
    fn at_out_of_range_semantics_on_empty_and_single_point_curves() {
        // Degenerate curves pin the binary-search edges: an empty curve
        // resolves nothing; a one-point curve resolves exactly its point.
        let empty = MissRatioCurve { points: Vec::new(), accesses: 0 };
        assert_eq!(empty.at(0), None);
        assert_eq!(empty.at(1), None);
        assert_eq!(empty.at(u64::MAX), None);

        let mut p = StackDistanceProfiler::new();
        p.record(line(7));
        let one = p.curve(1);
        assert_eq!(one.points.len(), 1);
        assert_eq!(one.at(1), Some(1.0), "single cold miss at the exact boundary");
        assert_eq!(one.at(0), None, "below the smallest profiled capacity");
        assert_eq!(one.at(2), None, "above the largest profiled capacity");
    }

    #[test]
    fn reset_profiler_matches_fresh_profiler() {
        // A reset profiler must be indistinguishable from a new one:
        // same curve, same counters, even after the Fenwick grew.
        let mut reused = StackDistanceProfiler::new();
        for i in 0..5000u64 {
            reused.record(line(i % 97));
        }
        reused.reset();
        assert_eq!(reused.accesses(), 0);
        assert_eq!(reused.cold_misses(), 0);
        assert_eq!(reused.unique_lines(), 0);

        let mut fresh = StackDistanceProfiler::new();
        let mut x = 5u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            reused.record(line(x % 300));
        }
        x = 5;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            fresh.record(line(x % 300));
        }
        assert_eq!(reused.curve(1024), fresh.curve(1024));
        assert_eq!(reused.cold_misses(), fresh.cold_misses());
    }

    #[test]
    fn curve_into_reuses_buffer_and_matches_curve() {
        let mut p = StackDistanceProfiler::new();
        for i in 0..500u64 {
            p.record(line(i % 40));
        }
        // Pre-poison the buffer with stale points from a bigger range.
        let mut buf = vec![(u64::MAX, -1.0); 30];
        p.curve_into(64, &mut buf);
        assert_eq!(buf, p.curve(64).points);
    }

    #[test]
    fn nested_dm_profiler_counts_smallest_hitting_size() {
        // 2-set and 8-set DM arrays over lines 0..4: the 8-set array
        // holds all four after the cold pass, the 2-set array thrashes
        // (0/2 conflict, 1/3 conflict).
        let mut p = NestedDmProfiler::new(&[2, 8]);
        for round in 0..3 {
            for l in 0u64..4 {
                p.record(l);
            }
            let _ = round;
        }
        assert_eq!(p.accesses(), 12);
        assert_eq!(p.inclusion_violations(), 0);
        let c = p.counters();
        // Small size: 0 evicts 2 and vice versa (same for 1/3) — after
        // the cold pass every probe still misses at 2 sets.
        assert_eq!(c[0], (0, 12));
        // Large size: 4 cold misses, everything else hits.
        assert_eq!(c[1], (8, 4));
    }

    #[test]
    fn nested_dm_profiler_reset_keeps_contents() {
        let mut p = NestedDmProfiler::new(&[4]);
        for l in 0u64..4 {
            p.record(l);
        }
        p.reset_counters();
        for l in 0u64..4 {
            p.record(l);
        }
        assert_eq!(p.counters()[0], (4, 0), "warmed array hits everything after reset");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn nested_dm_profiler_rejects_unsorted_sizes() {
        let _ = NestedDmProfiler::new(&[8, 2]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// `at` resolves exactly the profiled power-of-two capacities
            /// — nothing below, above, or between them — and the curve it
            /// reads from is monotone non-increasing in capacity.
            #[test]
            fn at_resolves_profiled_points_only_and_curve_is_monotone(
                lines in prop::collection::vec(0u64..200, 1..300),
                max_pow in 0u32..11,
            ) {
                let mut p = StackDistanceProfiler::new();
                for &l in &lines {
                    p.record(LineAddr(l));
                }
                let max = 1u64 << max_pow;
                let curve = p.curve(max);
                let mut prev = f64::INFINITY;
                for &(c, m) in &curve.points {
                    prop_assert_eq!(curve.at(c), Some(m), "exact boundary lookup");
                    prop_assert!(m <= prev + 1e-12, "miss ratio rose at {c}: {m} > {prev}");
                    prev = m;
                }
                prop_assert_eq!(curve.at(0), None, "below the smallest capacity");
                prop_assert_eq!(curve.at(max * 2), None, "above the largest capacity");
                if max >= 4 {
                    prop_assert_eq!(curve.at(3), None, "between profiled powers of two");
                }
            }

            /// The nested DM profiler never observes an inclusion
            /// violation and its per-size hit counts are monotone in size.
            #[test]
            fn nested_dm_inclusion_holds_and_hits_are_monotone(
                lines in prop::collection::vec(0u64..512, 1..400),
            ) {
                let mut p = NestedDmProfiler::new(&[2, 8, 32, 128]);
                for &l in &lines {
                    p.record(l);
                }
                prop_assert_eq!(p.inclusion_violations(), 0);
                let c = p.counters();
                for w in c.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "hits shrank with size: {:?}", c);
                }
                for &(h, m) in &c {
                    prop_assert_eq!(h + m, lines.len() as u64);
                }
            }
        }
    }
}
