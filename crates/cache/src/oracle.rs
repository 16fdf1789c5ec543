//! Deliberately-simple reference oracle for the differential audit.
//!
//! Every structure here trades speed for obviousness: caches are
//! per-set vectors of `Option<(line, dirty)>` scanned linearly, there are
//! no packed slots, no fast paths, no histogram tricks. The intent is an
//! implementation whose correctness is checkable by eye, so that when it
//! and a production engine disagree, the engine is the suspect.
//!
//! Three oracles live here:
//!
//! * [`NaiveSystem`] — a per-access re-implementation of the monolithic
//!   hierarchies ([`SingleLevel`](crate::SingleLevel),
//!   [`ConventionalTwoLevel`](crate::ConventionalTwoLevel),
//!   [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel)) behind the same
//!   [`MemorySystem`] trait, driven on the raw instruction stream. It
//!   reproduces the exact modelled semantics — the same-line fetch
//!   filter, store-only dirty fills, the Figure 21-a swap condition, and
//!   every [`ReplacementKind`]'s call discipline (for pseudo-random, one
//!   LFSR draw exactly when a set-associative fill finds no free way;
//!   direct-mapped fills never draw) — so its [`HierarchyStats`] must be
//!   bit-identical to every engine's.
//! * [`naive_replay_single`] / [`naive_replay_conventional`] /
//!   [`naive_replay_exclusive`] — event-level oracles for the
//!   miss-stream back-end in [`filter_family`](crate::filter_family)
//!   (and the single-level sink in [`filter`](crate::filter)), built on
//!   the same naive cache.
//! * [`lru_misses`] — a linear-scan fully-associative LRU simulation,
//!   the ground truth for the Mattson stack-distance profiler
//!   ([`StackDistanceProfiler`](crate::StackDistanceProfiler)).

use crate::config::ReplacementKind;
use crate::filter::{walk_events, EventSink, MissStream};
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::replacement::{Lfsr16, ReplState};
use crate::stats::HierarchyStats;
use tlc_trace::{AccessKind, LineAddr, MemRef};

/// A cache as a vector of sets, each a vector of `Option<(line, dirty)>`
/// ways scanned linearly. Replacement is one simple per-set
/// [`ReplState`] machine per set — every [`ReplacementKind`] is
/// modelled, with the same call discipline as [`Cache`](crate::Cache):
/// touches on set-associative hits and write-back merges, fills on
/// installs, and (for pseudo-random) one LFSR draw exactly when a
/// set-associative fill finds no free way. Direct-mapped sets keep no
/// replacement state at all.
#[derive(Debug)]
struct NaiveCache {
    sets: Vec<Vec<Option<(u64, bool)>>>,
    repl: Vec<ReplState>,
    set_mask: u64,
    ways: u32,
    lfsr: Lfsr16,
}

impl NaiveCache {
    fn new(size_bytes: u64, line_bytes: u64, ways: u32, repl: ReplacementKind) -> Self {
        assert!(size_bytes.is_power_of_two(), "size must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways.is_power_of_two(), "ways must be a power of two");
        let lines = size_bytes / line_bytes;
        assert!(lines >= ways as u64, "cache must hold at least `ways` lines");
        let num_sets = lines / ways as u64;
        NaiveCache {
            sets: vec![vec![None; ways as usize]; num_sets as usize],
            repl: (0..num_sets).map(|_| ReplState::new(repl, ways)).collect(),
            set_mask: num_sets - 1,
            ways,
            lfsr: Lfsr16::default(),
        }
    }

    fn set_index(&self, line: u64) -> u64 {
        line & self.set_mask
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set_index(line) as usize]
            .iter()
            .any(|w| matches!(w, Some((l, _)) if *l == line))
    }

    /// Demand access: on a hit merges the dirty bit, touches the
    /// replacement state (set-associative sets only, matching
    /// [`Cache::access`](crate::Cache::access)'s direct-mapped fast
    /// path), and returns `true`; on a miss leaves the cache unchanged.
    fn access(&mut self, line: u64, is_write: bool) -> bool {
        let set = self.set_index(line) as usize;
        for (i, w) in self.sets[set].iter_mut().enumerate() {
            if let Some((l, dirty)) = w {
                if *l == line {
                    *dirty |= is_write;
                    if self.ways > 1 {
                        self.repl[set].touch(i as u32);
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Installs an absent line, returning the evicted `(line, dirty)` if
    /// a valid one was displaced. Victim choice replicates
    /// [`Cache::fill_after_miss`](crate::Cache::fill_after_miss): way 0
    /// when direct-mapped (no replacement bookkeeping at all), else the
    /// lowest free way (no draw), else the policy's victim — one LFSR
    /// draw for pseudo-random, a stamp/tree/RRPV scan otherwise.
    fn fill_after_miss(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_index(line) as usize;
        let way = if self.ways == 1 {
            0
        } else if let Some(free) = self.sets[set].iter().position(|w| w.is_none()) {
            self.repl[set].filled(free as u32);
            free
        } else {
            let v = self.repl[set].victim(self.ways, &mut self.lfsr);
            self.repl[set].filled(v);
            v as usize
        };
        let old = self.sets[set][way];
        self.sets[set][way] = Some((line, dirty));
        old
    }

    /// Merges `dirty` into a resident copy and refreshes its replacement
    /// state (as [`Cache::merge_if_present`](crate::Cache::merge_if_present)
    /// does), reporting whether one exists.
    fn merge_if_present(&mut self, line: u64, dirty: bool) -> bool {
        let set = self.set_index(line) as usize;
        for (i, w) in self.sets[set].iter_mut().enumerate() {
            if let Some((l, d)) = w {
                if *l == line {
                    *d |= dirty;
                    self.repl[set].touch(i as u32);
                    return true;
                }
            }
        }
        false
    }

    /// Removes a resident line, returning its dirty bit and way.
    fn extract(&mut self, line: u64) -> Option<(bool, usize)> {
        let set = self.set_index(line) as usize;
        for (i, w) in self.sets[set].iter_mut().enumerate() {
            if let Some((l, d)) = w {
                if *l == line {
                    let dirty = *d;
                    *w = None;
                    return Some((dirty, i));
                }
            }
        }
        None
    }

    /// Installs a line into a specific way of its set (the exclusive
    /// swap target), notifying the replacement state of the fill as
    /// [`Cache::fill_at`](crate::Cache::fill_at) does.
    fn fill_slot(&mut self, line: u64, dirty: bool, way: usize) {
        let set = self.set_index(line) as usize;
        self.sets[set][way] = Some((line, dirty));
        self.repl[set].filled(way as u32);
    }

    /// All resident lines, sorted (content comparison against the
    /// production caches).
    fn resident(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.sets.iter().flatten().filter_map(|w| w.map(|(l, _)| l)).collect();
        v.sort_unstable();
        v
    }
}

/// Which hierarchy the naive system models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NaivePolicy {
    Single,
    Conventional,
    Exclusive,
}

/// The per-access reference oracle: a naive re-implementation of the
/// monolithic hierarchies behind [`MemorySystem`]. See the module docs.
#[derive(Debug)]
pub struct NaiveSystem {
    l1i: NaiveCache,
    l1d: NaiveCache,
    l2: Option<NaiveCache>,
    policy: NaivePolicy,
    line_bytes: u64,
    stats: HierarchyStats,
    last_fetch: u64,
}

impl NaiveSystem {
    /// A single-level system: split direct-mapped L1s, no L2.
    pub fn single(l1_size_bytes: u64, line_bytes: u64) -> Self {
        NaiveSystem {
            l1i: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l1d: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l2: None,
            policy: NaivePolicy::Single,
            line_bytes,
            stats: HierarchyStats::default(),
            last_fetch: u64::MAX,
        }
    }

    /// A conventional two-level system with the given L2 replacement
    /// policy.
    pub fn conventional(
        l1_size_bytes: u64,
        line_bytes: u64,
        l2_size_bytes: u64,
        ways: u32,
        repl: ReplacementKind,
    ) -> Self {
        NaiveSystem {
            l1i: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l1d: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l2: Some(NaiveCache::new(l2_size_bytes, line_bytes, ways, repl)),
            policy: NaivePolicy::Conventional,
            line_bytes,
            stats: HierarchyStats::default(),
            last_fetch: u64::MAX,
        }
    }

    /// An exclusive (victim-swap) two-level system with the given L2
    /// replacement policy.
    pub fn exclusive(
        l1_size_bytes: u64,
        line_bytes: u64,
        l2_size_bytes: u64,
        ways: u32,
        repl: ReplacementKind,
    ) -> Self {
        NaiveSystem {
            l1i: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l1d: NaiveCache::new(l1_size_bytes, line_bytes, 1, ReplacementKind::PseudoRandom),
            l2: Some(NaiveCache::new(l2_size_bytes, line_bytes, ways, repl)),
            policy: NaivePolicy::Exclusive,
            line_bytes,
            stats: HierarchyStats::default(),
            last_fetch: u64::MAX,
        }
    }

    /// Resident lines of each level, sorted: `(l1i, l1d, l2)`, with an
    /// empty L2 vector for single-level systems. The audit compares this
    /// against the production caches' [`iter_lines`](crate::Cache::iter_lines)
    /// content — a stronger check than counter equality, since content
    /// drift can momentarily cancel out in the statistics.
    pub fn content(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            self.l1i.resident(),
            self.l1d.resident(),
            self.l2.as_ref().map(|l2| l2.resident()).unwrap_or_default(),
        )
    }

    /// Exclusive victim retirement with no swap slot: merge into an
    /// existing L2 copy, else insert into the victim's own set, counting
    /// a displaced dirty line as an off-chip writeback.
    fn send_victim_to_l2(&mut self, vline: u64, vdirty: bool) {
        let l2 = self.l2.as_mut().expect("two-level policy has an L2");
        if l2.merge_if_present(vline, vdirty) {
            return;
        }
        if let Some((_, old_dirty)) = l2.fill_after_miss(vline, vdirty) {
            if old_dirty {
                self.stats.offchip_writebacks += 1;
            }
        }
    }
}

impl MemorySystem for NaiveSystem {
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let line = r.addr.line(self.line_bytes).0;
        let is_write = r.kind == AccessKind::Store;
        let is_fetch = r.kind == AccessKind::InstrFetch;
        if is_fetch {
            self.stats.instructions += 1;
            if line == self.last_fetch {
                return ServiceLevel::L1;
            }
            self.last_fetch = line; // L1I is always direct-mapped here
            if self.l1i.access(line, false) {
                return ServiceLevel::L1;
            }
            self.stats.l1i_misses += 1;
        } else {
            self.stats.data_refs += 1;
            if self.l1d.access(line, is_write) {
                return ServiceLevel::L1;
            }
            self.stats.l1d_misses += 1;
        }

        match self.policy {
            NaivePolicy::Single => {
                self.stats.l2_misses += 1;
                let l1 = if is_fetch { &mut self.l1i } else { &mut self.l1d };
                if let Some((_, old_dirty)) = l1.fill_after_miss(line, is_write) {
                    if old_dirty {
                        self.stats.offchip_writebacks += 1;
                    }
                }
                ServiceLevel::Memory
            }
            NaivePolicy::Conventional => {
                let l2 = self.l2.as_mut().expect("two-level policy has an L2");
                let level = if l2.access(line, false) {
                    self.stats.l2_hits += 1;
                    ServiceLevel::L2
                } else {
                    self.stats.l2_misses += 1;
                    if let Some((_, old_dirty)) = l2.fill_after_miss(line, false) {
                        if old_dirty {
                            self.stats.offchip_writebacks += 1;
                        }
                    }
                    ServiceLevel::Memory
                };
                let l1 = if is_fetch { &mut self.l1i } else { &mut self.l1d };
                if let Some((vline, vdirty)) = l1.fill_after_miss(line, is_write) {
                    // Dirty victims merge into an existing L2 copy or go
                    // off-chip; clean victims vanish.
                    if vdirty
                        && !self
                            .l2
                            .as_mut()
                            .expect("two-level policy has an L2")
                            .merge_if_present(vline, true)
                    {
                        self.stats.offchip_writebacks += 1;
                    }
                }
                level
            }
            NaivePolicy::Exclusive => {
                let l2 = self.l2.as_mut().expect("two-level policy has an L2");
                if l2.access(line, false) {
                    self.stats.l2_hits += 1;
                    let (l2_dirty, slot_way) =
                        l2.extract(line).expect("L2 hit implies the line is extractable");
                    let slot_set = l2.set_index(line);
                    let l1 = if is_fetch { &mut self.l1i } else { &mut self.l1d };
                    let victim = l1.fill_after_miss(line, is_write || l2_dirty);
                    let l2 = self.l2.as_mut().expect("two-level policy has an L2");
                    match victim {
                        Some((vline, vdirty)) => {
                            if l2.set_index(vline) == slot_set && !l2.contains(vline) {
                                // Figure 21-a swap: the victim takes the
                                // requested line's way; the requested line
                                // now lives only in L1 (exclusion).
                                l2.fill_slot(vline, vdirty, slot_way);
                            } else {
                                l2.fill_slot(line, l2_dirty, slot_way);
                                self.send_victim_to_l2(vline, vdirty);
                            }
                        }
                        None => {
                            l2.fill_slot(line, l2_dirty, slot_way);
                        }
                    }
                    ServiceLevel::L2
                } else {
                    self.stats.l2_misses += 1;
                    // Off-chip refill bypasses the L2 (§8).
                    let l1 = if is_fetch { &mut self.l1i } else { &mut self.l1d };
                    if let Some((vline, vdirty)) = l1.fill_after_miss(line, is_write) {
                        self.send_victim_to_l2(vline, vdirty);
                    }
                    ServiceLevel::Memory
                }
            }
        }
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }

    fn describe(&self) -> String {
        format!("naive reference oracle ({:?})", self.policy)
    }
}

/// Event-level single-level oracle: every L1 miss goes off-chip; every
/// written victim is an off-chip writeback. Must match
/// [`try_replay_single_family_segments`](crate::filter_family::try_replay_single_family_segments)
/// bit-for-bit.
pub fn naive_replay_single(stream: &MissStream) -> HierarchyStats {
    #[derive(Default)]
    struct Sink {
        l2_misses: u64,
        writebacks: u64,
    }
    impl EventSink for Sink {
        fn consume(&mut self, _fetch: bool, _line: LineAddr, victim: Option<(LineAddr, bool)>) {
            self.l2_misses += 1;
            if let Some((_, written)) = victim {
                if written {
                    self.writebacks += 1;
                }
            }
        }
        fn reset_counters(&mut self) {
            self.l2_misses = 0;
            self.writebacks = 0;
        }
    }
    let mut s = Sink::default();
    walk_events(&mut s, stream);
    HierarchyStats {
        l2_hits: 0,
        l2_misses: s.l2_misses,
        offchip_writebacks: s.writebacks,
        ..*stream.l1_stats()
    }
}

/// Event-level conventional-L2 oracle on the naive cache. Must match
/// every member of
/// [`try_replay_conventional_family_segments`](crate::filter_family::try_replay_conventional_family_segments)
/// (including the direct-mapped threshold fast path) bit-for-bit.
pub fn naive_replay_conventional(
    l2_size_bytes: u64,
    l2_ways: u32,
    l2_repl: ReplacementKind,
    stream: &MissStream,
) -> HierarchyStats {
    struct Sink {
        l2: NaiveCache,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }
    impl EventSink for Sink {
        fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
            if self.l2.access(line.0, false) {
                self.hits += 1;
            } else {
                self.misses += 1;
                if let Some((_, old_dirty)) = self.l2.fill_after_miss(line.0, false) {
                    if old_dirty {
                        self.writebacks += 1;
                    }
                }
            }
            if let Some((vline, written)) = victim {
                if written && !self.l2.merge_if_present(vline.0, true) {
                    self.writebacks += 1;
                }
            }
        }
        fn reset_counters(&mut self) {
            self.hits = 0;
            self.misses = 0;
            self.writebacks = 0;
        }
    }
    let mut s = Sink {
        l2: NaiveCache::new(l2_size_bytes, stream.line_bytes(), l2_ways, l2_repl),
        hits: 0,
        misses: 0,
        writebacks: 0,
    };
    walk_events(&mut s, stream);
    HierarchyStats {
        l2_hits: s.hits,
        l2_misses: s.misses,
        offchip_writebacks: s.writebacks,
        ..*stream.l1_stats()
    }
}

/// Event-level exclusive-L2 oracle on the naive cache, carrying the
/// per-L1-set fill-dirty mirror the event stream cannot encode. Must
/// match every member of
/// [`try_replay_exclusive_family_segments`](crate::filter_family::try_replay_exclusive_family_segments)
/// bit-for-bit.
pub fn naive_replay_exclusive(
    l2_size_bytes: u64,
    l2_ways: u32,
    l2_repl: ReplacementKind,
    stream: &MissStream,
) -> HierarchyStats {
    struct Sink {
        l2: NaiveCache,
        mirror_i: Vec<bool>,
        mirror_d: Vec<bool>,
        l1_set_mask: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }
    impl Sink {
        fn send_victim(&mut self, vline: u64, vdirty: bool) {
            if self.l2.merge_if_present(vline, vdirty) {
                return;
            }
            if let Some((_, old_dirty)) = self.l2.fill_after_miss(vline, vdirty) {
                if old_dirty {
                    self.writebacks += 1;
                }
            }
        }
    }
    impl EventSink for Sink {
        fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
            let set = (line.0 & self.l1_set_mask) as usize;
            let mirror = if fetch { &mut self.mirror_i } else { &mut self.mirror_d };
            // Victim dirty = store-written || filled-from-dirty-L2, read
            // before the new fill overwrites the mirror entry.
            let victim = victim.map(|(vline, written)| (vline.0, written || mirror[set]));
            if self.l2.access(line.0, false) {
                self.hits += 1;
                let (l2_dirty, slot_way) =
                    self.l2.extract(line.0).expect("L2 hit implies the line is extractable");
                mirror[set] = l2_dirty;
                let slot_set = self.l2.set_index(line.0);
                match victim {
                    Some((vline, vdirty)) => {
                        if self.l2.set_index(vline) == slot_set && !self.l2.contains(vline) {
                            self.l2.fill_slot(vline, vdirty, slot_way);
                        } else {
                            self.l2.fill_slot(line.0, l2_dirty, slot_way);
                            self.send_victim(vline, vdirty);
                        }
                    }
                    None => {
                        self.l2.fill_slot(line.0, l2_dirty, slot_way);
                    }
                }
            } else {
                self.misses += 1;
                mirror[set] = false;
                if let Some((vline, vdirty)) = victim {
                    self.send_victim(vline, vdirty);
                }
            }
        }
        fn reset_counters(&mut self) {
            self.hits = 0;
            self.misses = 0;
            self.writebacks = 0;
        }
    }
    let sets = (stream.l1_size_bytes() / stream.line_bytes()) as usize;
    let mut s = Sink {
        l2: NaiveCache::new(l2_size_bytes, stream.line_bytes(), l2_ways, l2_repl),
        mirror_i: vec![false; sets],
        mirror_d: vec![false; sets],
        l1_set_mask: sets as u64 - 1,
        hits: 0,
        misses: 0,
        writebacks: 0,
    };
    walk_events(&mut s, stream);
    HierarchyStats {
        l2_hits: s.hits,
        l2_misses: s.misses,
        offchip_writebacks: s.writebacks,
        ..*stream.l1_stats()
    }
}

/// Misses of a fully-associative LRU cache of `capacity_lines` lines on
/// `lines`, by direct simulation (a `Vec` ordered most-recent-first,
/// linear search, O(n·capacity)). Ground truth for
/// [`StackDistanceProfiler::misses_at_capacity`](crate::StackDistanceProfiler::misses_at_capacity).
pub fn lru_misses(lines: &[u64], capacity_lines: usize) -> u64 {
    assert!(capacity_lines > 0, "capacity must be positive");
    let mut stack: Vec<u64> = Vec::with_capacity(capacity_lines + 1);
    let mut misses = 0u64;
    for &l in lines {
        match stack.iter().position(|&s| s == l) {
            Some(i) => {
                stack.remove(i);
            }
            None => {
                misses += 1;
                if stack.len() == capacity_lines {
                    stack.pop();
                }
            }
        }
        stack.insert(0, l);
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, CacheConfig, ReplacementKind};
    use crate::exclusive::ExclusiveTwoLevel;
    use crate::single::SingleLevel;
    use crate::twolevel::ConventionalTwoLevel;
    use tlc_trace::Addr;

    fn cfg(bytes: u64, ways: u32, repl: ReplacementKind) -> CacheConfig {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        CacheConfig::new(bytes, 16, assoc, repl).unwrap()
    }

    fn dm(bytes: u64) -> CacheConfig {
        cfg(bytes, 1, ReplacementKind::PseudoRandom)
    }

    /// A deterministic mixed fetch/load/store stream with enough conflict
    /// pressure to exercise every fill path.
    fn stream(len: usize, space: u64) -> Vec<MemRef> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = Addr::new((x >> 16) % space);
                match x % 3 {
                    0 => MemRef::fetch(addr),
                    1 => MemRef::load(addr),
                    _ => MemRef::store(addr),
                }
            })
            .collect()
    }

    #[test]
    fn naive_single_matches_monolithic() {
        let mut real = SingleLevel::new(dm(1024));
        let mut naive = NaiveSystem::single(1024, 16);
        for r in stream(30_000, 64 * 1024) {
            real.access(r);
            naive.access(r);
        }
        assert_eq!(real.stats(), naive.stats());
    }

    #[test]
    fn naive_conventional_matches_monolithic() {
        for repl in ReplacementKind::ALL {
            for ways in [1u32, 2, 4, 8, 16] {
                let mut real = ConventionalTwoLevel::new(dm(1024), cfg(8192, ways, repl));
                let mut naive = NaiveSystem::conventional(1024, 16, 8192, ways, repl);
                for r in stream(30_000, 64 * 1024) {
                    real.access(r);
                    naive.access(r);
                }
                assert_eq!(real.stats(), naive.stats(), "{repl} {ways}-way");
            }
        }
    }

    #[test]
    fn naive_exclusive_matches_monolithic() {
        for repl in ReplacementKind::ALL {
            for ways in [1u32, 2, 4, 8, 16] {
                let mut real = ExclusiveTwoLevel::new(dm(1024), cfg(8192, ways, repl));
                let mut naive = NaiveSystem::exclusive(1024, 16, 8192, ways, repl);
                for r in stream(30_000, 64 * 1024) {
                    real.access(r);
                    naive.access(r);
                }
                assert_eq!(real.stats(), naive.stats(), "{repl} {ways}-way");
            }
        }
    }

    #[test]
    fn naive_event_oracles_match_the_family_back_end() {
        use crate::filter::L1FrontEnd;
        use crate::filter_family::{
            try_replay_conventional_family_segments, try_replay_exclusive_family_segments,
            try_replay_single_family_segments,
        };
        let mut fe = L1FrontEnd::new(dm(1024));
        let refs = stream(40_000, 64 * 1024);
        for r in &refs[..10_000] {
            fe.access(*r);
        }
        fe.reset_stats();
        for r in &refs[10_000..] {
            fe.access(*r);
        }
        let s = fe.finish("oracle-test");
        let one = std::slice::from_ref(&s);
        assert_eq!(
            try_replay_single_family_segments(one, 1).unwrap()[0][0],
            naive_replay_single(&s)
        );
        for repl in ReplacementKind::ALL {
            for ways in [1u32, 2, 8] {
                let l2 = [cfg(4096, ways, repl)];
                assert_eq!(
                    naive_replay_conventional(4096, ways, repl, &s),
                    try_replay_conventional_family_segments(&l2, one).unwrap()[0][0],
                    "conventional {repl} {ways}-way"
                );
                assert_eq!(
                    naive_replay_exclusive(4096, ways, repl, &s),
                    try_replay_exclusive_family_segments(&l2, one).unwrap()[0][0],
                    "exclusive {repl} {ways}-way"
                );
            }
        }
    }

    #[test]
    fn lru_misses_matches_mattson() {
        use crate::mattson::StackDistanceProfiler;
        let mut x = 42u64;
        let lines: Vec<u64> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                x % 300
            })
            .collect();
        let mut p = StackDistanceProfiler::new();
        for &l in &lines {
            p.record(LineAddr(l));
        }
        for cap in [1u64, 16, 64, 256] {
            assert_eq!(p.misses_at_capacity(cap), lru_misses(&lines, cap as usize), "cap {cap}");
        }
    }
}
