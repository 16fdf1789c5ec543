//! Two-level **exclusive** caching — the paper's contribution (§8).
//!
//! The policy differs from the conventional hierarchy in two ways:
//!
//! 1. **Off-chip refills bypass the L2.** On an L1+L2 miss, "the desired
//!    line is loaded directly into the first-level cache from off-chip,
//!    while the first-level victim is sent to the second-level cache."
//!    The L2 therefore fills up with *victims* — content distinct from
//!    the L1s — raising effective on-chip capacity toward `2x + y`.
//!
//! 2. **L1 victims are written into the L2 on every L1 miss.** When the
//!    miss hits in L2 and the victim maps to the *same L2 set* the
//!    requested line is leaving, the victim takes the departing line's
//!    way — a swap, producing exclusion (paper Figure 21-a). When the
//!    victim maps elsewhere, the requested line's L2 copy stays where it
//!    is and the victim updates (or is inserted into) its own set —
//!    Figure 21-b's inclusion case.
//!
//! A mapping conflict in a direct-mapped L2 therefore resolves with the
//! two conflicting lines *split across the levels*, giving a limited form
//! of associativity on top of the capacity gain.
//!
//! The protocol is written once, in `exclusive_step`: the per-access
//! hierarchy calls it after each L1 refill, and the family back-end
//! ([`filter_family`](crate::filter_family)) calls it once per member on
//! each replayed miss event.
//!
//! ## The fill-dirty mirror
//!
//! An L1-miss/L2-hit hands the L1 the L2 copy's dirty bit, so one bit of
//! L1 state depends on the L2. The step keeps it out of the L1: the L1
//! marks a line dirty on a store only, exactly as in every other
//! hierarchy and in a captured miss stream, and an [`ExclusiveState`]
//! beside the L2 mirrors, per direct-mapped L1 set, "the resident was
//! filled from a dirty L2 copy". A victim's dirty bit is its store bit
//! or its set's mirror entry, read before the refill overwrites the
//! entry (victim and refill share the set by construction). So the L1's
//! contents, victims and store bits never depend on the L2, which is
//! what lets one L1 capture serve every exclusive L2 (see
//! [`filter`](crate::filter)).

use crate::cache::{Cache, Evicted};
use crate::config::CacheConfig;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::{LineAddr, MemRef};

/// The exclusive protocol's state beside its L2 array: the per-L1-set
/// fill-dirty mirror (see the module docs) and the swap count.
#[derive(Debug, Clone)]
pub(crate) struct ExclusiveState {
    /// "The resident was filled from a dirty L2 copy", per L1I set.
    mirror_i: Vec<bool>,
    /// Same, per L1D set.
    mirror_d: Vec<bool>,
    l1_set_mask: u64,
    /// Lifetime Figure 21-a swaps (never reset).
    swaps: u64,
}

impl ExclusiveState {
    /// The state for a direct-mapped L1 of `l1_sets` sets per side.
    pub(crate) fn new(l1_sets: usize) -> Self {
        ExclusiveState {
            mirror_i: vec![false; l1_sets],
            mirror_d: vec![false; l1_sets],
            l1_set_mask: l1_sets as u64 - 1,
            swaps: 0,
        }
    }

    /// Figure 21-a swaps so far.
    pub(crate) fn swaps(&self) -> u64 {
        self.swaps
    }
}

/// The exclusive L2 protocol for one L1 miss on `line` (an instruction
/// fetch when `fetch`), after the L1 refill displaced `victim` with its
/// store-only dirty bit.
///
/// On an L2 hit the line leaves the L2 for the L1, and the victim takes
/// its way when it maps to the same L2 set and has no copy there — the
/// swap of Figure 21-a. Otherwise the line keeps its L2 copy (Figure
/// 21-b) and the victim goes to its own set. On an L2 miss the line
/// comes from off-chip straight into the L1 and only the victim enters
/// the L2. Counts `stats`' L2 fields and returns whether the L2 hit.
#[inline(always)]
pub(crate) fn exclusive_step(
    l2: &mut Cache,
    ex: &mut ExclusiveState,
    stats: &mut HierarchyStats,
    fetch: bool,
    line: LineAddr,
    victim: Option<Evicted>,
) -> bool {
    let set = (line.0 & ex.l1_set_mask) as usize;
    let mirror = if fetch { &mut ex.mirror_i } else { &mut ex.mirror_d };
    let victim = victim.map(|v| Evicted { line: v.line, dirty: v.dirty || mirror[set] });
    let Some((dirty, slot)) = l2.access_extract(line) else {
        stats.l2_misses += 1;
        // The off-chip refill bypasses the L2: no dirty bit comes with it.
        mirror[set] = false;
        if let Some(v) = victim {
            send_victim(l2, stats, v);
        }
        return false;
    };
    stats.l2_hits += 1;
    mirror[set] = dirty;
    match victim {
        Some(v) if l2.set_index(v.line) == slot.set && !l2.contains(v.line) => {
            // Figure 21-a: the victim takes the requested line's way; the
            // line now lives in the L1 only (exclusion).
            ex.swaps += 1;
            l2.fill_at(v.line, v.dirty, slot);
        }
        _ => {
            // The line keeps its L2 copy (inclusion for it); a victim goes
            // to its own set.
            l2.fill_at(line, dirty, slot);
            if let Some(v) = victim {
                send_victim(l2, stats, v);
            }
        }
    }
    true
}

/// Writes an L1 victim into the L2 outside the swap: an existing copy
/// only takes the dirty bit (Figure 21-b: the write-back "leaves the
/// second-level cache unchanged"); otherwise the victim is inserted into
/// its own set, where a dirty L2 eviction goes off-chip.
#[inline(always)]
fn send_victim(l2: &mut Cache, stats: &mut HierarchyStats, v: Evicted) {
    if !l2.merge_if_present(v.line, v.dirty)
        && l2.fill_absent(v.line, v.dirty).is_some_and(|ev| ev.dirty)
    {
        stats.offchip_writebacks += 1;
    }
}

/// Split L1 I/D caches over a unified L2 with the exclusive (victim-swap)
/// policy of §8.
///
/// The L1 caches hold store-only dirty bits, as in every hierarchy; the
/// dirty bit a line brings up from the L2 lives in the fill-dirty mirror
/// (see the module docs), so [`ExclusiveTwoLevel::l1d`]'s
/// `dirty_evictions` counts stored-to victims only.
///
/// # Examples
///
/// The Figure 21-a scenario: two lines that conflict in both levels end
/// up resident simultaneously, one per level:
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, ExclusiveTwoLevel, MemorySystem, ServiceLevel};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// // 4-line L1, 16-line L2, both direct-mapped (the paper's Figure 21).
/// let l1 = CacheConfig::paper(64, Associativity::Direct)?;
/// let l2 = CacheConfig::paper(256, Associativity::Direct)?;
/// let mut sys = ExclusiveTwoLevel::new(l1, l2);
/// let a = Addr::new(0x000);          // L1 line 0, L2 line 0
/// let e = Addr::new(0x100);          // L1 line 0, L2 line 0 — conflicts in both
/// sys.access(MemRef::load(a));
/// sys.access(MemRef::load(e));       // a swapped into L2
/// // Alternating references now ping-pong between the levels, never
/// // going off-chip again:
/// assert_eq!(sys.access(MemRef::load(a)), ServiceLevel::L2);
/// assert_eq!(sys.access(MemRef::load(e)), ServiceLevel::L2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ExclusiveTwoLevel {
    l1: SplitL1,
    l2: Cache,
    ex: ExclusiveState,
    stats: HierarchyStats,
}

impl ExclusiveTwoLevel {
    /// Builds the hierarchy. Both L1 caches use `l1_cfg`; the unified L2
    /// uses `l2_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configurations disagree on line size, or if `l1_cfg`
    /// is not direct-mapped: the fill-dirty mirror (see the module docs)
    /// relies on a victim and its displacer sharing one L1 way, as the
    /// paper's design space always has (§2.1).
    pub fn new(l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> Self {
        assert_eq!(l1_cfg.line_bytes(), l2_cfg.line_bytes(), "L1 and L2 must share a line size");
        assert_eq!(l1_cfg.ways(), 1, "the exclusive hierarchy requires a direct-mapped L1");
        ExclusiveTwoLevel {
            l1: SplitL1::new(l1_cfg),
            l2: Cache::new(l2_cfg),
            ex: ExclusiveState::new(l1_cfg.num_sets() as usize),
            stats: HierarchyStats::default(),
        }
    }

    /// The instruction cache.
    pub fn l1i(&self) -> &Cache {
        self.l1.l1i()
    }

    /// The data cache.
    pub fn l1d(&self) -> &Cache {
        self.l1.l1d()
    }

    /// The unified second-level cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

impl MemorySystem for ExclusiveTwoLevel {
    #[inline]
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        let victim = self.l1.fill(miss, miss.write);
        if exclusive_step(
            &mut self.l2,
            &mut self.ex,
            &mut self.stats,
            miss.fetch,
            miss.line,
            victim,
        ) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Memory
        }
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    fn invalidate_line(&mut self, line: tlc_trace::LineAddr) -> u32 {
        self.l1.invalidate(line) + self.l2.invalidate(line) as u32
    }

    fn describe(&self) -> String {
        format!(
            "exclusive two-level: split L1 {} / unified L2 {}",
            self.l1.config(),
            self.l2.config()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use tlc_trace::Addr;

    /// Figure 21 geometry: 4-line (64B) DM L1s, 16-line (256B) DM L2.
    fn fig21() -> ExclusiveTwoLevel {
        ExclusiveTwoLevel::new(
            CacheConfig::paper(64, Associativity::Direct).unwrap(),
            CacheConfig::paper(256, Associativity::Direct).unwrap(),
        )
    }

    #[test]
    fn fig21a_l2_conflict_gives_exclusion() {
        // A and E map to the same line in both caches.
        let mut s = fig21();
        let a = Addr::new(0x000);
        let e = Addr::new(0x100);
        s.access(MemRef::load(a)); // off-chip → L1 only (bypass)
        s.access(MemRef::load(e)); // off-chip → L1; victim A → L2
        let (la, le) = (a.line(16), e.line(16));
        assert!(s.l1d().contains(le) && !s.l1d().contains(la));
        assert!(s.l2().contains(la) && !s.l2().contains(le), "A should be the L2 resident");
        // Alternating references swap the pair without off-chip traffic.
        for (i, addr) in [a, e, a, e].iter().enumerate() {
            assert_eq!(
                s.access(MemRef::load(*addr)),
                ServiceLevel::L2,
                "reference {i} should be an on-chip swap hit"
            );
        }
        // Exactly one of the pair per level at all times.
        assert!(s.l1d().contains(le) ^ s.l1d().contains(la));
        assert!(s.l2().contains(le) ^ s.l2().contains(la));
        assert_eq!(s.stats().l2_misses, 2, "only the two cold misses go off-chip");
    }

    #[test]
    fn fig21b_l1_only_conflict_keeps_inclusion() {
        // A (0x000) and B (0x040): same L1 line (4-line L1 ⇒ index bits
        // 64B), different L2 lines.
        let mut s = fig21();
        let a = Addr::new(0x000);
        let b = Addr::new(0x040);
        s.access(MemRef::load(a));
        s.access(MemRef::load(b)); // B → L1, victim A → its own L2 line
                                   // A's reference: hits L2, moves to L1; victim B goes to B's own L2
                                   // line; A's L2 copy... A moved out of L2 into L1 (same set? no —
                                   // A and B are in different L2 sets, so no swap: A's copy stays).
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L2);
        // Inclusion: A now in L1 *and* still in L2.
        assert!(s.l1d().contains(a.line(16)));
        assert!(s.l2().contains(a.line(16)), "Fig 21-b: L1-only conflict must keep inclusion");
        assert!(s.l2().contains(b.line(16)), "victim B must be in L2");
    }

    #[test]
    fn offchip_refill_bypasses_l2() {
        let mut s = fig21();
        let a = Addr::new(0x200);
        s.access(MemRef::load(a));
        assert!(s.l1d().contains(a.line(16)));
        assert!(!s.l2().contains(a.line(16)), "off-chip refill must not fill L2");
    }

    #[test]
    fn capacity_exceeds_l2_alone() {
        // Working set of L1 + L2 lines with the limiting-case geometry
        // (L2 sets == L1 lines × …): here both DM. Walk 2x+y distinct
        // lines that tile the caches and verify far more than y lines are
        // on-chip.
        let mut s = ExclusiveTwoLevel::new(
            CacheConfig::paper(64, Associativity::Direct).unwrap(), // 4 lines
            CacheConfig::paper(256, Associativity::Direct).unwrap(), // 16 lines
        );
        // 20 distinct lines (= l1i 4 unused; data side x=4, y=16 ⇒ 2x+y=24).
        for i in 0..20u64 {
            s.access(MemRef::load(Addr::new(i * 16)));
        }
        let resident = s.l1d().resident_lines() + s.l2().resident_lines();
        assert!(
            resident >= 18,
            "exclusive hierarchy should hold nearly 20 lines on-chip, has {resident}"
        );
    }

    #[test]
    fn duplication_is_rare_after_warmup() {
        let mut s = ExclusiveTwoLevel::new(
            CacheConfig::paper(1024, Associativity::Direct).unwrap(),
            CacheConfig::paper(4096, Associativity::SetAssoc(4)).unwrap(),
        );
        // Random-ish walk over 16KB.
        for i in 0..50_000u64 {
            s.access(MemRef::load(Addr::new((i * 52) % 16384)));
        }
        let dup = s.l1d().iter_lines().filter(|l| s.l2().contains(*l)).count();
        let resident = s.l1d().resident_lines() as usize;
        assert!(
            (dup as f64) < 0.25 * resident as f64,
            "exclusive hierarchy too duplicated: {dup}/{resident}"
        );
    }

    #[test]
    fn beats_conventional_on_both_level_conflicts() {
        use crate::twolevel::ConventionalTwoLevel;
        let l1 = CacheConfig::paper(64, Associativity::Direct).unwrap();
        let l2 = CacheConfig::paper(256, Associativity::Direct).unwrap();
        let mut ex = ExclusiveTwoLevel::new(l1, l2);
        let mut conv = ConventionalTwoLevel::new(l1, l2);
        // Alternate two lines that conflict in both levels.
        for _ in 0..100 {
            for addr in [Addr::new(0x000), Addr::new(0x100)] {
                ex.access(MemRef::load(addr));
                conv.access(MemRef::load(addr));
            }
        }
        assert!(
            ex.stats().l2_misses < conv.stats().l2_misses,
            "exclusive {} vs conventional {} off-chip misses",
            ex.stats().l2_misses,
            conv.stats().l2_misses
        );
        // Exclusive keeps the ping-pong entirely on chip after warmup.
        assert_eq!(ex.stats().l2_misses, 2);
    }

    #[test]
    fn accounting_balances() {
        let mut s = ExclusiveTwoLevel::new(
            CacheConfig::paper(512, Associativity::Direct).unwrap(),
            CacheConfig::paper(4096, Associativity::SetAssoc(4)).unwrap(),
        );
        for i in 0..30_000u64 {
            s.access(MemRef::load(Addr::new((i * 52) % 32768)));
        }
        let st = s.stats();
        assert_eq!(st.data_refs, 30_000);
        assert_eq!(st.l1_misses(), st.l2_hits + st.l2_misses);
    }

    #[test]
    fn dirty_data_survives_the_swap_path() {
        // Store to A; ping-pong A and E (both-level conflict); A's dirty
        // bit must follow it through L1→L2→L1 moves, and eventually count
        // a writeback when evicted off-chip.
        let mut s = fig21();
        let a = Addr::new(0x000);
        let e = Addr::new(0x100);
        s.access(MemRef::store(a));
        s.access(MemRef::load(e)); // dirty A → L2
        s.access(MemRef::load(a)); // A back to L1 (still dirty), E → L2
        s.access(MemRef::load(e)); // dirty A → L2 again
                                   // Push A out of L2 via a third conflicting line coming from L1.
        let c = Addr::new(0x200);
        s.access(MemRef::load(c)); // off-chip → L1, victim E→L2 (same set, evicts... )
                                   // Keep forcing until A's dirty copy is evicted off-chip.
        for i in 3..8u64 {
            s.access(MemRef::load(Addr::new(i * 0x100)));
        }
        assert!(s.stats().offchip_writebacks >= 1, "dirty line vanished without writeback");
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn rejects_mismatched_line_sizes() {
        let l1 =
            CacheConfig::new(64, 16, Associativity::Direct, crate::config::ReplacementKind::Lru)
                .unwrap();
        let l2 =
            CacheConfig::new(512, 32, Associativity::Direct, crate::config::ReplacementKind::Lru)
                .unwrap();
        let _ = ExclusiveTwoLevel::new(l1, l2);
    }

    #[test]
    #[should_panic(expected = "direct-mapped L1")]
    fn rejects_associative_l1() {
        let _ = ExclusiveTwoLevel::new(
            CacheConfig::paper(1024, Associativity::SetAssoc(2)).unwrap(),
            CacheConfig::paper(8192, Associativity::SetAssoc(4)).unwrap(),
        );
    }

    #[test]
    fn describe_mentions_exclusive() {
        assert!(fig21().describe().contains("exclusive"));
    }
}
