//! Enforced-inclusion two-level organisation (Baer & Wang, the paper's
//! reference [1]).
//!
//! The paper's §8 closing remark notes that multiprocessor systems often
//! want the inclusion property "for ease of constructing multiprocessor
//! systems": every line in an L1 is also present in the L2, so external
//! coherence traffic only needs to probe the L2. Enforcing it requires
//! **back-invalidation**: when the L2 evicts a line, any L1 copy must be
//! invalidated too.
//!
//! This organisation is the third point on the policy spectrum the
//! repository can ablate:
//!
//! * [`InclusiveTwoLevel`] — strict inclusion (this module): lowest
//!   effective capacity, simplest coherence;
//! * [`ConventionalTwoLevel`](crate::ConventionalTwoLevel) — inclusion by
//!   demand flow, never enforced (the paper's baseline);
//! * [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel) — the paper's §8
//!   contribution, maximum effective capacity.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::MemRef;

/// Split L1 I/D caches over a unified L2 with **enforced** inclusion
/// (back-invalidation on L2 evictions).
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, InclusiveTwoLevel, MemorySystem};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l1 = CacheConfig::paper(1024, Associativity::Direct)?;
/// let l2 = CacheConfig::paper(8 * 1024, Associativity::SetAssoc(4))?;
/// let mut sys = InclusiveTwoLevel::new(l1, l2);
/// sys.access(MemRef::load(Addr::new(0x9000)));
/// // Inclusion invariant: the L1 line is also in the L2.
/// assert!(sys.l2().contains(Addr::new(0x9000).line(16)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InclusiveTwoLevel {
    l1: SplitL1,
    l2: Cache,
    stats: HierarchyStats,
    back_invalidations: u64,
}

impl InclusiveTwoLevel {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configurations disagree on line size, or if the L2
    /// is smaller than one L1 (inclusion would be impossible to
    /// maintain usefully).
    pub fn new(l1_cfg: CacheConfig, l2_cfg: CacheConfig) -> Self {
        assert_eq!(l1_cfg.line_bytes(), l2_cfg.line_bytes(), "L1 and L2 must share a line size");
        assert!(
            l2_cfg.size_bytes() >= l1_cfg.size_bytes(),
            "an inclusive L2 must be at least as large as one L1"
        );
        InclusiveTwoLevel {
            l1: SplitL1::new(l1_cfg),
            l2: Cache::new(l2_cfg),
            stats: HierarchyStats::default(),
            back_invalidations: 0,
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

    /// L1 lines invalidated to preserve inclusion when their L2 copy was
    /// evicted.
    pub fn back_invalidations(&self) -> u64 {
        self.back_invalidations
    }

    /// Evicts `line` from the L2 domain: invalidate any L1 copies
    /// (merging their dirty state into the writeback decision).
    fn back_invalidate(&mut self, line: tlc_trace::LineAddr, l2_dirty: bool) {
        let (copies, l1_dirty) = self.l1.extract(line);
        self.back_invalidations += u64::from(copies);
        if l2_dirty || l1_dirty {
            self.stats.offchip_writebacks += 1;
        }
    }
}

impl MemorySystem for InclusiveTwoLevel {
    #[inline]
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        let l2_hit = self.l2.access(miss.line, false);
        if !l2_hit {
            self.stats.l2_misses += 1;
            // Fill the L2 first; its victim must be purged from the L1s.
            if let Some(v2) = self.l2.fill_after_miss(miss.line, false) {
                self.back_invalidate(v2.line, v2.dirty);
            }
        } else {
            self.stats.l2_hits += 1;
        }
        // Fill the L1. The victim's data lives on in the L2 (inclusion),
        // so a dirty victim just updates its L2 copy.
        if let Some(v) = self.l1.fill(miss, miss.write) {
            if v.dirty {
                // Inclusion guarantees the copy exists unless this very
                // fill displaced it; fall back to off-chip then.
                if !self.l2.merge_if_present(v.line, true) {
                    self.stats.offchip_writebacks += 1;
                }
            }
        }
        if l2_hit {
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
        self.back_invalidations = 0;
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    fn invalidate_line(&mut self, line: tlc_trace::LineAddr) -> u32 {
        self.l1.invalidate(line) + self.l2.invalidate(line) as u32
    }

    fn describe(&self) -> String {
        format!(
            "inclusive two-level: split L1 {} / unified L2 {} (back-invalidating)",
            self.l1.config(),
            self.l2.config()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use crate::exclusive::ExclusiveTwoLevel;
    use crate::twolevel::ConventionalTwoLevel;
    use tlc_trace::Addr;

    fn sys(l1_bytes: u64, l2_bytes: u64, l2_assoc: Associativity) -> InclusiveTwoLevel {
        InclusiveTwoLevel::new(
            CacheConfig::paper(l1_bytes, Associativity::Direct).expect("valid"),
            CacheConfig::paper(l2_bytes, l2_assoc).expect("valid"),
        )
    }

    /// Checks the inclusion invariant: every valid L1 line is in the L2.
    fn assert_inclusion(s: &InclusiveTwoLevel) {
        for l in s.l1i().iter_lines().chain(s.l1d().iter_lines()) {
            assert!(s.l2().contains(l), "line {l} in L1 but not in L2");
        }
    }

    #[test]
    fn inclusion_holds_under_random_walk() {
        let mut s = sys(512, 2048, Associativity::SetAssoc(4));
        for i in 0..30_000u64 {
            let addr = Addr::new((i * 52) % 16384);
            if i % 3 == 0 {
                s.access(MemRef::fetch(addr));
            } else if i % 3 == 1 {
                s.access(MemRef::load(addr));
            } else {
                s.access(MemRef::store(addr));
            }
            if i % 500 == 0 {
                assert_inclusion(&s);
            }
        }
        assert_inclusion(&s);
        assert!(s.back_invalidations() > 0, "a thrashing walk must force back-invalidations");
    }

    #[test]
    fn back_invalidation_forces_l1_miss() {
        // Direct-mapped 4-line L2 over 4-line L1s: push a line out of L2
        // while it is still live in L1 and verify it got invalidated.
        let mut s = sys(64, 64, Associativity::Direct);
        let a = Addr::new(0x000);
        s.access(MemRef::load(a));
        assert!(s.l1d().contains(a.line(16)));
        // Conflicts with a in the 4-line (64B) L2.
        let b = Addr::new(0x040);
        s.access(MemRef::fetch(b)); // L2 evicts a -> back-invalidate L1D copy
        assert!(!s.l1d().contains(a.line(16)), "inclusion requires purging a from L1");
        assert!(s.back_invalidations() >= 1);
    }

    #[test]
    fn policy_capacity_ordering() {
        // Effective capacity: inclusive <= conventional <= exclusive,
        // observable as off-chip misses on a working set just beyond L2.
        let l1 = CacheConfig::paper(1024, Associativity::Direct).expect("valid");
        let l2 = CacheConfig::paper(4096, Associativity::SetAssoc(4)).expect("valid");
        let mut incl = InclusiveTwoLevel::new(l1, l2);
        let mut conv = ConventionalTwoLevel::new(l1, l2);
        let mut excl = ExclusiveTwoLevel::new(l1, l2);
        for i in 0..60_000u64 {
            let addr = Addr::new((i * 52) % 6144); // 6KB working set
            incl.access(MemRef::load(addr));
            conv.access(MemRef::load(addr));
            excl.access(MemRef::load(addr));
        }
        let (mi, mc, me) = (incl.stats().l2_misses, conv.stats().l2_misses, excl.stats().l2_misses);
        assert!(me < mc, "exclusive {me} must beat conventional {mc}");
        assert!(mc <= mi, "conventional {mc} must not lose to inclusive {mi}");
    }

    #[test]
    fn dirty_back_invalidated_line_is_written_back() {
        let mut s = sys(64, 64, Associativity::Direct);
        let a = Addr::new(0x000);
        s.access(MemRef::store(a)); // dirty in L1D, clean copy in L2
        s.access(MemRef::fetch(Addr::new(0x040))); // evicts a from L2
        assert!(s.stats().offchip_writebacks >= 1, "dirty data lost on back-invalidation");
    }

    #[test]
    fn accounting_balances() {
        let mut s = sys(512, 4096, Associativity::SetAssoc(4));
        for i in 0..20_000u64 {
            s.access(MemRef::load(Addr::new((i * 52) % 32768)));
        }
        let st = s.stats();
        assert_eq!(st.l1_misses(), st.l2_hits + st.l2_misses);
    }

    #[test]
    #[should_panic(expected = "at least as large")]
    fn rejects_l2_smaller_than_l1() {
        let _ = sys(1024, 512, Associativity::Direct);
    }

    #[test]
    fn describe_mentions_inclusion() {
        assert!(sys(64, 256, Associativity::Direct).describe().contains("inclusive"));
    }
}
