//! Conventional (non-exclusive) two-level organisation — the baseline of
//! the paper's §4.
//!
//! Split direct-mapped L1 caches back a unified L2. Demand misses fill
//! *both* levels, so lines are duplicated between L1 and L2 ("much of the
//! second-level cache will consist of instructions and data which are
//! already in the primary caches", §1). Replacement in the L2 does not
//! back-invalidate L1 (the paper's standard scheme is demand-inclusive,
//! not enforced-inclusive); a dirty L1 victim updates its L2 copy when one
//! exists and otherwise goes off-chip.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::MemRef;

/// Split L1 I/D caches over a unified L2, conventional fill policy.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, ConventionalTwoLevel, MemorySystem};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l1 = CacheConfig::paper(1024, Associativity::Direct)?;
/// let l2 = CacheConfig::paper(8 * 1024, Associativity::SetAssoc(4))?;
/// let mut sys = ConventionalTwoLevel::new(l1, l2);
/// sys.access(MemRef::load(Addr::new(0x9000)));   // off-chip, fills L2+L1
/// assert_eq!(sys.stats().l2_misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConventionalTwoLevel {
    l1: SplitL1,
    l2: Cache,
    stats: HierarchyStats,
}

impl ConventionalTwoLevel {
    /// Builds the hierarchy. Both L1 caches use `l1_cfg`; the unified L2
    /// uses `l2_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the two configurations disagree on line size (the paper
    /// uses 16-byte lines at both levels; refills assume equal lines).
    pub fn new(l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> Self {
        assert_eq!(l1_cfg.line_bytes(), l2_cfg.line_bytes(), "L1 and L2 must share a line size");
        ConventionalTwoLevel {
            l1: SplitL1::new(l1_cfg),
            l2: Cache::new(l2_cfg),
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

impl MemorySystem for ConventionalTwoLevel {
    #[inline]
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        let level = if self.l2.access(miss.line, false) {
            // L2 hit: refill L1 from L2.
            self.stats.l2_hits += 1;
            ServiceLevel::L2
        } else {
            // L2 miss: fetch off-chip, fill both levels.
            self.stats.l2_misses += 1;
            if let Some(v2) = self.l2.fill_after_miss(miss.line, false) {
                if v2.dirty {
                    self.stats.offchip_writebacks += 1;
                }
            }
            ServiceLevel::Memory
        };
        // A dirty L1 victim updates its L2 copy when one exists (merging
        // the dirty bit in one scan) and otherwise goes off-chip.
        if let Some(v) = self.l1.fill(miss, miss.write) {
            if v.dirty && !self.l2.merge_if_present(v.line, true) {
                self.stats.offchip_writebacks += 1;
            }
        }
        level
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
            "conventional two-level: split L1 {} / unified L2 {}",
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

    fn sys(l1_bytes: u64, l2_bytes: u64, l2_assoc: Associativity) -> ConventionalTwoLevel {
        ConventionalTwoLevel::new(
            CacheConfig::paper(l1_bytes, Associativity::Direct).unwrap(),
            CacheConfig::paper(l2_bytes, l2_assoc).unwrap(),
        )
    }

    #[test]
    fn miss_fills_both_levels() {
        let mut s = sys(1024, 8192, Associativity::SetAssoc(4));
        let a = Addr::new(0x5000);
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::Memory);
        assert!(s.l1d().contains(a.line(16)), "L1 not filled");
        assert!(s.l2().contains(a.line(16)), "L2 not filled");
    }

    #[test]
    fn l1_conflict_served_by_l2() {
        let mut s = sys(1024, 8192, Associativity::SetAssoc(4));
        let a = Addr::new(0x0000);
        let b = Addr::new(1024); // conflicts with a in the 1KB L1
        s.access(MemRef::load(a)); // memory
        s.access(MemRef::load(b)); // memory, evicts a from L1
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L2, "conflict not caught by L2");
        assert_eq!(s.stats().l2_hits, 1);
        assert_eq!(s.stats().l2_misses, 2);
    }

    #[test]
    fn duplication_between_levels_is_high() {
        // After a working-set walk, nearly every L1 line should also be in
        // the L2 — the inclusion-by-demand behaviour §1 warns about.
        let mut s = sys(1024, 4096, Associativity::SetAssoc(4));
        for i in 0..4096u64 {
            s.access(MemRef::load(Addr::new((i * 16) % 4096)));
        }
        let dup = s.l1d().iter_lines().filter(|l| s.l2().contains(*l)).count();
        let resident = s.l1d().resident_lines() as usize;
        assert!(resident > 0);
        assert!(
            dup as f64 / resident as f64 > 0.9,
            "expected heavy duplication, got {dup}/{resident}"
        );
    }

    #[test]
    fn dirty_victim_updates_l2_not_offchip() {
        let mut s = sys(1024, 8192, Associativity::SetAssoc(4));
        let a = Addr::new(0x0000);
        let b = Addr::new(0x400); // same L1 set (1KB L1)... 0x400 = 1024 → conflicts
        s.access(MemRef::store(a)); // a dirty in L1, also in L2
        s.access(MemRef::load(b)); // evicts dirty a; L2 has a ⇒ updated there
        assert_eq!(s.stats().offchip_writebacks, 0);
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L2);
    }

    #[test]
    fn l2_eviction_of_dirty_line_goes_offchip() {
        // Tiny L2 (direct-mapped, same size as L1 data cache) so L2
        // conflict evictions happen; make the victim dirty first.
        let mut s = sys(1024, 2048, Associativity::Direct);
        let a = Addr::new(0x0000);
        s.access(MemRef::store(a)); // a in L1(dirty) and L2
                                    // Evict a from L1 by a conflicting line; dirty a updates L2 copy.
        s.access(MemRef::load(Addr::new(1024)));
        // Now push a's dirty L2 copy out with an L2-conflicting line.
        s.access(MemRef::load(Addr::new(2048)));
        assert_eq!(s.stats().offchip_writebacks, 1);
    }

    #[test]
    fn accounting_balances() {
        let mut s = sys(1024, 8192, Associativity::SetAssoc(4));
        for i in 0..20_000u64 {
            s.access(MemRef::load(Addr::new((i * 52) % 16384)));
        }
        let st = s.stats();
        assert_eq!(st.data_refs, 20_000);
        assert_eq!(st.l1_misses(), st.l2_hits + st.l2_misses);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn rejects_mismatched_line_sizes() {
        let l1 =
            CacheConfig::new(1024, 16, Associativity::Direct, crate::config::ReplacementKind::Lru)
                .unwrap();
        let l2 =
            CacheConfig::new(8192, 32, Associativity::Direct, crate::config::ReplacementKind::Lru)
                .unwrap();
        let _ = ConventionalTwoLevel::new(l1, l2);
    }

    #[test]
    fn describe_mentions_levels() {
        let s = sys(1024, 8192, Associativity::SetAssoc(4));
        let d = s.describe();
        assert!(d.contains("L1") && d.contains("L2"));
    }
}
