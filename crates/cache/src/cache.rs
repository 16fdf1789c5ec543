//! A single physically-indexed cache.
//!
//! [`Cache`] operates entirely on [`LineAddr`]s — the hierarchy layers
//! translate byte addresses once and pass line numbers down. Besides the
//! ordinary `access` path it exposes the primitives the exclusive policy
//! needs: [`Cache::extract`] (remove a line, reclaiming its way) and
//! [`Cache::fill_at`] (install into a specific way), which together
//! implement the swap of the paper's §8.
//!
//! It is the only cache array in the crate: every L1, every per-access
//! L2 and every member of a family replay
//! ([`filter_family`](crate::filter_family)) is a `Cache`.

use crate::config::CacheConfig;
use crate::replacement::{Lfsr16, SRRIP_LONG_RRPV, SRRIP_MAX_RRPV};
use crate::stats::CacheStats;
use tlc_trace::LineAddr;

/// The empty slot word. Slots hold `(line << 1) | dirty`, so one shifted
/// compare, `slot >> 1 == line`, tests "valid and matching". That is
/// sound because `EMPTY >> 1` (`2^63 - 1`) is no line: [`CacheConfig`]
/// requires lines of at least 4 bytes, so a line derived from a 64-bit
/// address fits in 62 bits, and
/// [`MissStream::from_parts`](crate::MissStream::from_parts) rejects
/// stream input beyond that bound.
pub(crate) const EMPTY: u64 = u64::MAX;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it held modified data.
    pub dirty: bool,
}

/// Location of a line inside a cache (set and way), returned by probes so
/// callers can target the same slot later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Set index.
    pub set: u64,
    /// Way index within the set.
    pub way: u32,
}

/// Replacement state for *all* sets, held as flat per-policy arrays
/// rather than one [`ReplState`](crate::replacement::ReplState) per set.
/// Keeping the slot array and the
/// replacement metadata in contiguous allocations (instead of boxed
/// per-set ways and stamps) removes two pointer chases from every
/// access — the difference is measurable across the millions of probes
/// a design-space sweep performs.
///
/// The state machines are bit-compatible with
/// [`ReplState`](crate::replacement::ReplState): same stamp sequences,
/// same LFSR consumption, same PLRU bit layout.
#[derive(Debug)]
enum ReplBank {
    /// LRU / FIFO: per-way stamps and a per-set clock.
    Stamped { stamps: Vec<u32>, clock: Vec<u32>, refresh_on_touch: bool },
    /// Pseudo-random: stateless, victims come from the cache-global LFSR.
    Random,
    /// Tree-PLRU: one bit-packed tree per set.
    Tree { bits: Vec<u64> },
    /// SRRIP-HP: one 2-bit RRPV per way, flat like the stamp array.
    Srrip { rrpv: Vec<u8> },
}

impl ReplBank {
    fn new(kind: crate::config::ReplacementKind, num_sets: usize, ways: usize) -> Self {
        use crate::config::ReplacementKind;
        if ways == 1 {
            // A 1-way set has no replacement choice: its victim is way 0
            // under every policy, so the bank is never consulted.
            return ReplBank::Random;
        }
        match kind {
            ReplacementKind::Lru => ReplBank::Stamped {
                stamps: vec![0; num_sets * ways],
                clock: vec![0; num_sets],
                refresh_on_touch: true,
            },
            ReplacementKind::Fifo => ReplBank::Stamped {
                stamps: vec![0; num_sets * ways],
                clock: vec![0; num_sets],
                refresh_on_touch: false,
            },
            ReplacementKind::PseudoRandom => ReplBank::Random,
            ReplacementKind::TreePlru => ReplBank::Tree { bits: vec![0; num_sets] },
            // Initial RRPVs are never observed: fills overwrite them, and
            // victims are only chosen from full sets.
            ReplacementKind::Srrip => {
                ReplBank::Srrip { rrpv: vec![SRRIP_MAX_RRPV; num_sets * ways] }
            }
        }
    }

    /// Notifies the bank that `way` of `set` was referenced (hit).
    #[inline(always)]
    fn touch(&mut self, set: usize, stride: usize, way: u32, ways: u32) {
        match self {
            ReplBank::Stamped { stamps, clock, refresh_on_touch } => {
                if *refresh_on_touch {
                    clock[set] += 1;
                    stamps[set * stride + way as usize] = clock[set];
                }
            }
            ReplBank::Random => {}
            ReplBank::Tree { bits } => tree_point_away(&mut bits[set], ways, way),
            ReplBank::Srrip { rrpv } => rrpv[set * stride + way as usize] = 0,
        }
    }

    /// Notifies the bank that `way` of `set` was just filled.
    #[inline(always)]
    fn filled(&mut self, set: usize, stride: usize, way: u32, ways: u32) {
        match self {
            ReplBank::Stamped { stamps, clock, .. } => {
                clock[set] += 1;
                stamps[set * stride + way as usize] = clock[set];
            }
            ReplBank::Random => {}
            ReplBank::Tree { bits } => tree_point_away(&mut bits[set], ways, way),
            ReplBank::Srrip { rrpv } => rrpv[set * stride + way as usize] = SRRIP_LONG_RRPV,
        }
    }

    /// Chooses a victim way in `set`. Mutable because SRRIP ages the
    /// set's RRPVs until one reaches the eviction value.
    #[inline]
    fn victim(&mut self, set: usize, stride: usize, ways: u32, lfsr: &mut Lfsr16) -> u32 {
        match self {
            ReplBank::Stamped { stamps, .. } => {
                let mut best = 0u32;
                let mut best_stamp = u32::MAX;
                for (i, &s) in stamps[set * stride..set * stride + stride].iter().enumerate() {
                    if s < best_stamp {
                        best_stamp = s;
                        best = i as u32;
                    }
                }
                best
            }
            ReplBank::Random => {
                let r = lfsr.next() as u32;
                if ways.is_power_of_two() {
                    r & (ways - 1)
                } else {
                    r % ways
                }
            }
            ReplBank::Tree { bits } => {
                let bits = bits[set];
                let mut node = 1u32; // heap-indexed tree, root at 1
                let levels = ways.trailing_zeros();
                for _ in 0..levels {
                    let right = (bits >> node) & 1 == 1;
                    node = node * 2 + right as u32;
                }
                node - ways
            }
            ReplBank::Srrip { rrpv } => {
                let set_rrpv = &mut rrpv[set * stride..set * stride + stride];
                loop {
                    if let Some(i) = set_rrpv.iter().position(|&r| r == SRRIP_MAX_RRPV) {
                        return i as u32;
                    }
                    for r in set_rrpv.iter_mut() {
                        *r += 1;
                    }
                }
            }
        }
    }
}

/// Per-fill block-liveness statistics: how many L2 fill generations died
/// without a single demand hit (dead-on-arrival) versus saw two or more
/// (multi-hit). A *generation* runs from a fill to the moment the line
/// departs (eviction, extraction, or overwrite); generations still
/// resident at snapshot time are classified by their hits so far, so
/// `fills == dead_on_arrival + live_fills` holds exactly.
///
/// Only demand hits ([`Cache::access`]) count as re-references; dirty
/// write-back merges refresh replacement state but are not reuse.
/// Tallies are lifetime (warm-up included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Liveness {
    /// Fill generations started.
    pub fills: u64,
    /// Generations that ended (or stand, for residents) with zero hits.
    pub dead_on_arrival: u64,
    /// `fills - dead_on_arrival`.
    pub live_fills: u64,
    /// Generations with two or more hits.
    pub multi_hit: u64,
}

impl Liveness {
    /// Component-wise sum (for family engines that aggregate members).
    pub fn merge(&mut self, other: Liveness) {
        self.fills += other.fills;
        self.dead_on_arrival += other.dead_on_arrival;
        self.live_fills += other.live_fills;
        self.multi_hit += other.multi_hit;
    }
}

/// Running tallies behind [`Liveness`]: departed generations only; the
/// still-resident ones are folded in by [`LiveTally::snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LiveTally {
    fills: u64,
    dead: u64,
    multi: u64,
}

impl LiveTally {
    /// Starts a generation.
    #[inline(always)]
    pub(crate) fn fill(&mut self) {
        self.fills += 1;
    }

    /// Ends a generation that saw `hits` demand hits.
    #[inline(always)]
    pub(crate) fn retire(&mut self, hits: u8) {
        if hits == 0 {
            self.dead += 1;
        } else if hits >= 2 {
            self.multi += 1;
        }
    }

    /// Classifies the still-resident generations' hit counts and returns
    /// the closed totals.
    pub(crate) fn snapshot(mut self, resident: impl Iterator<Item = u8>) -> Liveness {
        for h in resident {
            self.retire(h);
        }
        Liveness {
            fills: self.fills,
            dead_on_arrival: self.dead,
            live_fills: self.fills - self.dead,
            multi_hit: self.multi,
        }
    }
}

/// Flips the PLRU path bits so the tree points *away* from `way` (same
/// layout as [`ReplState`](crate::replacement::ReplState)'s tree
/// variant).
#[inline]
fn tree_point_away(bits: &mut u64, ways: u32, way: u32) {
    let levels = ways.trailing_zeros();
    let mut node = 1u32;
    for level in (0..levels).rev() {
        let go_right = (way >> level) & 1 == 1;
        if go_right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = node * 2 + go_right as u32;
    }
}

/// One level of cache. See the module docs.
///
/// The array is set-major, one packed `u64` per way: `(line << 1) |
/// dirty`, or `u64::MAX` when empty. Eight bytes per way is half the
/// footprint of a `{tag, valid, dirty}` struct, so a probe of a 4-way
/// set touches 32 bytes; and the whole line is stored, so an eviction
/// reports its victim without rebuilding it from tag and set bits. The
/// policy words (LRU/FIFO stamps, PLRU tree bits, SRRIP RRPVs) sit
/// beside it in flat per-policy arrays.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, Cache, CacheConfig};
/// use tlc_trace::{Addr, LineAddr};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let mut c = Cache::new(CacheConfig::paper(1024, Associativity::Direct)?);
/// let line = Addr::new(0x1234).line(16);
/// assert!(!c.access(line, false));       // cold miss
/// c.fill(line, false);
/// assert!(c.access(line, false));        // now hits
/// assert_eq!(c.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// All ways of all sets, set-major: `slots[set * stride + way]`, each
    /// `(line << 1) | dirty` or [`EMPTY`].
    slots: Vec<u64>,
    repl: ReplBank,
    /// Ways per set.
    stride: usize,
    set_mask: u64,
    lfsr: Lfsr16,
    stats: CacheStats,
    /// Per-line demand-hit counts since the line's last fill, saturating
    /// at 255. Indexed like `slots`.
    hit_counts: Vec<u8>,
    /// Departed-generation liveness tallies (see [`Liveness`]).
    live: LiveTally,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let stride = cfg.ways() as usize;
        Cache {
            cfg,
            slots: vec![EMPTY; num_sets as usize * stride],
            repl: ReplBank::new(cfg.replacement(), num_sets as usize, stride),
            stride,
            set_mask: num_sets - 1,
            lfsr: Lfsr16::default(),
            stats: CacheStats::default(),
            hit_counts: vec![0; num_sets as usize * stride],
            live: LiveTally::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lifetime block-liveness statistics, classifying still-resident
    /// lines by their hits so far (see [`Liveness`]).
    pub fn liveness(&self) -> Liveness {
        self.live.snapshot(
            self.slots.iter().zip(&self.hit_counts).filter(|(&s, _)| s != EMPTY).map(|(_, &h)| h),
        )
    }

    /// Clears the statistics (contents are preserved — used to discard
    /// warm-up transients).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Set index of a line in this cache.
    #[inline(always)]
    pub fn set_index(&self, line: LineAddr) -> u64 {
        line.0 & self.set_mask
    }

    /// The way of the set starting at slot `base` that holds `line`.
    #[inline(always)]
    fn find(&self, base: usize, line: LineAddr) -> Option<usize> {
        self.scan(base, |s| s >> 1 == line.0)
    }

    /// The first way of the set starting at slot `base` whose word
    /// satisfies `pick`. The common widths scan a fixed-length array the
    /// compiler unrolls; the width branch is the same on every call.
    #[inline(always)]
    fn scan(&self, base: usize, pick: impl Fn(u64) -> bool) -> Option<usize> {
        #[inline(always)]
        fn fixed<const N: usize>(set: &[u64], pick: impl Fn(u64) -> bool) -> Option<usize> {
            let set: &[u64; N] = set.try_into().expect("set of N ways");
            set.iter().position(|&s| pick(s))
        }
        let set = &self.slots[base..base + self.stride];
        match self.stride {
            2 => fixed::<2>(set, pick),
            4 => fixed::<4>(set, pick),
            8 => fixed::<8>(set, pick),
            _ => set.iter().position(|&s| pick(s)),
        }
    }

    /// Looks a line up **without** touching statistics or replacement
    /// state.
    #[inline(always)]
    pub fn probe(&self, line: LineAddr) -> Option<Slot> {
        let set = self.set_index(line);
        self.find(set as usize * self.stride, line).map(|way| Slot { set, way: way as u32 })
    }

    /// Whether the line is present.
    #[inline(always)]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Performs a demand access: counts a hit or a miss, and on a hit
    /// updates replacement state and the dirty bit (`is_write`).
    ///
    /// Returns `true` on a hit. On a miss the cache is left unchanged —
    /// the hierarchy decides how to refill (conventional fill, exclusive
    /// swap, bypass, …).
    #[inline]
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> bool {
        if self.stride == 1 {
            self.access_slot(line, is_write).is_some()
        } else {
            self.access_assoc(line, is_write)
        }
    }

    /// The set-associative half of [`Cache::access`], kept out of line.
    #[inline(never)]
    fn access_assoc(&mut self, line: LineAddr, is_write: bool) -> bool {
        self.access_slot(line, is_write).is_some()
    }

    /// [`Cache::access`], returning the hit's slot.
    ///
    /// Inlining policy: the L2 steps call this and the other
    /// `#[inline(always)]` primitives once per family member and event,
    /// so they must inline whole. The public [`Cache::access`] and
    /// [`Cache::fill_after_miss`] serve the L1s, which are direct-mapped
    /// in every hierarchy the paper studies: they inline the one-way path
    /// only and call the set-associative one out of line, which keeps the
    /// L1 loops small.
    #[inline(always)]
    pub(crate) fn access_slot(&mut self, line: LineAddr, is_write: bool) -> Option<Slot> {
        self.stats.accesses += 1;
        let set = self.set_index(line);
        let base = set as usize * self.stride;
        // Direct-mapped fast path: one compare, and no replacement
        // bookkeeping (a 1-way set's victim is way 0 under every policy).
        let way = if self.stride == 1 {
            if self.slots[base] >> 1 != line.0 {
                return None;
            }
            0
        } else {
            let way = self.find(base, line)?;
            self.repl.touch(set as usize, self.stride, way as u32, self.stride as u32);
            way
        };
        self.slots[base + way] |= is_write as u64;
        self.stats.hits += 1;
        let c = &mut self.hit_counts[base + way];
        *c = c.saturating_add(1);
        Some(Slot { set, way: way as u32 })
    }

    /// A demand read that hands a hit line over to the caller: exactly
    /// [`Cache::access`]`(line, false)` followed, on a hit, by
    /// [`Cache::extract`]`(line)`, in one scan. The exclusive L2's hit
    /// path.
    #[inline(always)]
    pub(crate) fn access_extract(&mut self, line: LineAddr) -> Option<(bool, Slot)> {
        let slot = self.access_slot(line, false)?;
        Some((self.vacate(slot.set as usize * self.stride + slot.way as usize), slot))
    }

    /// Empties the slot at `idx`, ending its fill generation; returns its
    /// dirty bit.
    #[inline(always)]
    fn vacate(&mut self, idx: usize) -> bool {
        let dirty = self.slots[idx] & 1 == 1;
        self.slots[idx] = EMPTY;
        self.live.retire(std::mem::take(&mut self.hit_counts[idx]));
        dirty
    }

    /// Writes `line` into the slot at `idx`, starting a fill generation
    /// and ending the one it displaces. Returns the displaced line if the
    /// slot held a different one.
    #[inline(always)]
    fn install(&mut self, idx: usize, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(line.0 < EMPTY >> 1, "line {:#x} does not fit a slot word", line.0);
        let old = std::mem::replace(&mut self.slots[idx], (line.0 << 1) | dirty as u64);
        self.live.fill();
        let hits = std::mem::take(&mut self.hit_counts[idx]);
        if old == EMPTY {
            return None;
        }
        self.live.retire(hits);
        if old >> 1 == line.0 {
            return None;
        }
        let dirty = old & 1 == 1;
        self.stats.evictions += 1;
        self.stats.dirty_evictions += dirty as u64;
        Some(Evicted { line: LineAddr(old >> 1), dirty })
    }

    /// Installs `line`, choosing a victim by the replacement policy when
    /// the set is full. Returns the displaced line, if any.
    ///
    /// If the line is already present this is a no-op apart from merging
    /// the dirty bit (callers normally `access` first, so double-insertion
    /// indicates the hierarchy already holds the line elsewhere).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        if self.merge_if_present(line, dirty) {
            return None;
        }
        self.fill_absent(line, dirty)
    }

    /// As [`Cache::fill`], for callers that already know `line` is absent
    /// (typically because [`Cache::access`] just missed on it): skips the
    /// already-present scan. Every hierarchy's miss path refills through
    /// this — the scan it avoids is pure overhead there, and the miss
    /// paths dominate a design-space sweep's runtime.
    ///
    /// Behaviour (victim choice, replacement bookkeeping, statistics) is
    /// identical to [`Cache::fill`] on an absent line.
    #[inline]
    pub fn fill_after_miss(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        if self.stride == 1 {
            self.fill_absent(line, dirty)
        } else {
            self.fill_assoc(line, dirty)
        }
    }

    /// The set-associative half of [`Cache::fill_after_miss`], kept out
    /// of line.
    #[inline(never)]
    fn fill_assoc(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.fill_absent(line, dirty)
    }

    /// [`Cache::fill_after_miss`] for the L2 steps (see
    /// [`Cache::access_slot`] for the inlining policy).
    #[inline(always)]
    pub(crate) fn fill_absent(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(line), "fill_after_miss: line already present");
        let set = self.set_index(line) as usize;
        let base = set * self.stride;
        // Direct-mapped fast path: the victim is the set's only way under
        // every policy, so skip the free scan and replacement bookkeeping
        // (including the pseudo-random LFSR draw, whose value could only
        // ever select way 0 here).
        if self.stride == 1 {
            return self.install(base, line, dirty);
        }
        // A free way if any; otherwise the policy's victim (one LFSR draw
        // for pseudo-random).
        let ways = self.stride as u32;
        let way = match self.scan(base, |s| s == EMPTY) {
            Some(free) => free as u32,
            None => self.repl.victim(set, self.stride, ways, &mut self.lfsr),
        };
        self.repl.filled(set, self.stride, way, ways);
        self.install(base + way as usize, line, dirty)
    }

    /// If `line` is present, merges `dirty` into it and refreshes its
    /// replacement state — exactly what [`Cache::fill`] does for a
    /// resident line — and returns `true`. Returns `false` (cache
    /// untouched) otherwise.
    ///
    /// Equivalent to `if self.contains(line) { self.fill(line, dirty); true }`
    /// in one scan instead of two; the hierarchies use it to merge dirty
    /// L1 victims back into L2 on the write-back path. A merge is not a
    /// demand hit: the liveness tallies don't move.
    #[inline(always)]
    pub fn merge_if_present(&mut self, line: LineAddr, dirty: bool) -> bool {
        let set = self.set_index(line) as usize;
        let base = set * self.stride;
        let Some(way) = self.find(base, line) else {
            return false;
        };
        self.slots[base + way] |= dirty as u64;
        self.repl.touch(set, self.stride, way as u32, self.stride as u32);
        true
    }

    /// Whether every set holds a single way.
    #[inline(always)]
    pub fn is_direct_mapped(&self) -> bool {
        self.stride == 1
    }

    /// Records a hit that the owning hierarchy resolved through its own
    /// same-line filter without probing the array, keeping hit/access
    /// counts identical to the unfiltered path.
    ///
    /// Only sound when the filter guarantees what [`Cache::access`] would
    /// have done anyway: the line is resident, and either the cache is
    /// direct-mapped (no replacement bookkeeping on hits) or the policy's
    /// touch is a no-op for a repeat of the most recent reference.
    #[inline(always)]
    pub fn note_filtered_hit(&mut self) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
    }

    /// Installs `line` into a specific slot previously obtained from
    /// [`Cache::probe`] or [`Cache::extract`]. Used by the exclusive swap
    /// to put the L1 victim into the way the requested line just left.
    ///
    /// Returns the displaced line if the slot held a valid *different*
    /// line.
    ///
    /// # Panics
    ///
    /// Panics if `slot.set` does not match the line's set index in this
    /// cache, or `slot.way` is out of range.
    #[inline(always)]
    pub fn fill_at(&mut self, line: LineAddr, dirty: bool, slot: Slot) -> Option<Evicted> {
        assert_eq!(self.set_index(line), slot.set, "fill_at: slot set does not match line");
        assert!((slot.way as usize) < self.stride, "fill_at: way out of range");
        let set = slot.set as usize;
        self.repl.filled(set, self.stride, slot.way, self.stride as u32);
        self.install(set * self.stride + slot.way as usize, line, dirty)
    }

    /// Removes `line` from the cache, returning its dirty bit and the slot
    /// it occupied. The slot becomes free.
    pub fn extract(&mut self, line: LineAddr) -> Option<(bool, Slot)> {
        let slot = self.probe(line)?;
        Some((self.vacate(slot.set as usize * self.stride + slot.way as usize), slot))
    }

    /// Invalidates `line` if present; returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        self.extract(line).is_some()
    }

    /// Drops all contents (statistics are preserved; resident lines'
    /// liveness generations end here).
    pub fn flush(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx] != EMPTY {
                self.vacate(idx);
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.slots.iter().filter(|&&s| s != EMPTY).count() as u64
    }

    /// Iterates over all resident lines, set by set (for auditors and
    /// tests).
    pub fn iter_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slots.iter().filter(|&&s| s != EMPTY).map(|&s| LineAddr(s >> 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementKind};
    use tlc_trace::Addr;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    fn dm_cache(lines: u64) -> Cache {
        Cache::new(
            CacheConfig::new(lines * 16, 16, Associativity::Direct, ReplacementKind::Lru).unwrap(),
        )
    }

    fn sa_cache(lines: u64, ways: u32, repl: ReplacementKind) -> Cache {
        Cache::new(CacheConfig::new(lines * 16, 16, Associativity::SetAssoc(ways), repl).unwrap())
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = dm_cache(64);
        assert!(!c.access(line(5), false));
        assert_eq!(c.fill(line(5), false), None);
        assert!(c.access(line(5), false));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm_cache(64);
        c.fill(line(3), false);
        // line 3 + 64 maps to the same set.
        let ev = c.fill(line(3 + 64), true);
        assert_eq!(ev, Some(Evicted { line: line(3), dirty: false }));
        assert!(!c.contains(line(3)));
        assert!(c.contains(line(67)));
    }

    #[test]
    fn dirty_bit_set_by_write_hit_and_reported_on_eviction() {
        let mut c = dm_cache(64);
        c.fill(line(3), false);
        assert!(c.access(line(3), true)); // write hit marks dirty
        let ev = c.fill(line(67), false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn set_assoc_holds_conflicting_lines() {
        let mut c = sa_cache(64, 4, ReplacementKind::Lru);
        // 16 sets; lines 0,16,32,48 share set 0 — all four fit.
        for i in 0..4 {
            c.fill(line(i * 16), false);
        }
        for i in 0..4 {
            assert!(c.contains(line(i * 16)));
        }
        // A fifth conflicting line evicts the LRU one (line 0).
        let ev = c.fill(line(4 * 16), false).unwrap();
        assert_eq!(ev.line, line(0));
    }

    #[test]
    fn lru_order_respected_across_touches() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        // 16 sets; lines 0 and 16 share set 0.
        c.fill(line(0), false);
        c.fill(line(16), false);
        assert!(c.access(line(0), false)); // 16 becomes LRU
        let ev = c.fill(line(32), false).unwrap();
        assert_eq!(ev.line, line(16));
    }

    #[test]
    fn fill_existing_line_merges_dirty_without_eviction() {
        let mut c = dm_cache(64);
        c.fill(line(9), false);
        assert_eq!(c.fill(line(9), true), None);
        let ev = c.fill(line(9 + 64), false).unwrap();
        assert!(ev.dirty, "merged dirty bit lost");
    }

    #[test]
    fn extract_frees_slot_and_reports_dirty() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        c.fill(line(0), true);
        let (dirty, slot) = c.extract(line(0)).unwrap();
        assert!(dirty);
        assert!(!c.contains(line(0)));
        assert_eq!(slot.set, 0);
        // Slot is reusable without eviction.
        assert_eq!(c.fill(line(16), false), None);
        assert_eq!(c.extract(line(999)), None);
    }

    #[test]
    fn fill_at_swaps_into_specific_way() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        c.fill(line(0), false);
        c.fill(line(16), false);
        let slot = c.probe(line(16)).unwrap();
        // Replace line 16 specifically with line 32 (same set).
        let ev = c.fill_at(line(32), true, slot).unwrap();
        assert_eq!(ev.line, line(16));
        assert!(c.contains(line(0)));
        assert!(c.contains(line(32)));
    }

    #[test]
    #[should_panic(expected = "slot set")]
    fn fill_at_rejects_wrong_set() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        c.fill(line(0), false);
        let slot = c.probe(line(0)).unwrap();
        // line 1 belongs to set 1, not set 0.
        let _ = c.fill_at(line(1), false, slot);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        c.fill(line(0), false);
        c.fill(line(16), false);
        // Probing line 0 must NOT refresh its LRU position.
        for _ in 0..5 {
            assert!(c.probe(line(0)).is_some());
        }
        let ev = c.fill(line(32), false).unwrap();
        assert_eq!(ev.line, line(0), "probe disturbed LRU state");
        assert_eq!(c.stats().accesses, 0, "probe counted as access");
    }

    #[test]
    fn resident_and_iteration() {
        let mut c = dm_cache(16);
        for i in [1u64, 5, 9] {
            c.fill(line(i), false);
        }
        assert_eq!(c.resident_lines(), 3);
        let mut got: Vec<u64> = c.iter_lines().map(|l| l.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 5, 9]);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn tag_reconstruction_across_large_addresses() {
        let mut c = dm_cache(256);
        let big = Addr::new(0x7FFF_FFF0).line(16);
        c.fill(big, false);
        assert!(c.contains(big));
        let conflicting = LineAddr(big.0 + 256);
        let ev = c.fill(conflicting, false).unwrap();
        assert_eq!(ev.line, big, "evicted line address reconstructed incorrectly");
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = Cache::new(
            CacheConfig::new(16 * 16, 16, Associativity::Full, ReplacementKind::Lru).unwrap(),
        );
        for i in 0..16 {
            // Addresses that would conflict violently in a DM cache.
            c.fill(line(i * 1024), false);
        }
        assert_eq!(c.resident_lines(), 16);
        let ev = c.fill(line(999_424), false).unwrap();
        assert_eq!(ev.line, line(0), "FA LRU should evict the oldest line");
    }

    #[test]
    fn srrip_cache_keeps_reused_line() {
        let mut c = sa_cache(32, 2, ReplacementKind::Srrip);
        // 16 sets; lines 0, 16, 32 share set 0.
        c.fill(line(0), false);
        c.fill(line(16), false);
        assert!(c.access(line(0), false)); // promote line 0 to RRPV 0
                                           // Line 16 sits at "long" (2), line 0 at 0: ageing reaches 16 first.
        let ev = c.fill(line(32), false).unwrap();
        assert_eq!(ev.line, line(16), "SRRIP must evict the never-reused way");
        assert!(c.contains(line(0)));
    }

    #[test]
    fn liveness_classifies_generations() {
        let mut c = dm_cache(16);
        c.fill(line(1), false);
        c.access(line(1), false);
        c.access(line(1), false); // generation A: 2 hits
        c.fill(line(1 + 16), false); // evicts A; generation B: 0 hits, resident
        let lv = c.liveness();
        assert_eq!(lv.fills, 2);
        assert_eq!(lv.dead_on_arrival, 1, "the resident untouched line counts as dead");
        assert_eq!(lv.live_fills, 1);
        assert_eq!(lv.multi_hit, 1);
    }

    #[test]
    fn liveness_invariant_across_extract_and_fill_at() {
        let mut c = sa_cache(32, 2, ReplacementKind::Lru);
        c.fill(line(0), false);
        c.access(line(0), false);
        let (_, slot) = c.extract(line(0)).unwrap(); // retire: 1 hit, live
        c.fill_at(line(16), false, slot); // new generation
        c.fill(line(32), false); // free way, third generation
        let lv = c.liveness();
        assert_eq!(lv.fills, 3);
        assert_eq!(lv.fills, lv.dead_on_arrival + lv.live_fills);
        assert_eq!(lv.dead_on_arrival, 2, "the two untouched residents are dead so far");
        assert_eq!(lv.multi_hit, 0);
        c.flush();
        assert_eq!(c.liveness(), lv, "flush retires residents without changing the tallies");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = dm_cache(16);
        c.fill(line(2), false);
        c.access(line(2), false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains(line(2)));
    }
}
