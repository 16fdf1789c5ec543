//! Single-level organisation: split direct-mapped L1 caches in front of
//! off-chip memory (the baseline of the paper's §3).

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::MemRef;

/// Split L1 instruction/data caches with no on-chip second level.
///
/// Misses are filled from off-chip (write-allocate, fetch-on-write, as in
/// §2.2 of the paper). In [`HierarchyStats`], every off-chip demand fetch
/// is counted in `l2_misses` so the TPI model treats one- and two-level
/// systems uniformly.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, MemorySystem, SingleLevel};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct)?;
/// let mut sys = SingleLevel::new(l1);
/// sys.access(MemRef::fetch(Addr::new(0x400000)));      // cold miss
/// sys.access(MemRef::fetch(Addr::new(0x400004)));      // same line: hit
/// assert_eq!(sys.stats().l1i_misses, 1);
/// assert_eq!(sys.stats().instructions, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SingleLevel {
    l1: SplitL1,
    stats: HierarchyStats,
}

impl SingleLevel {
    /// Builds the system; instruction and data caches share `l1_cfg`
    /// (the paper studies split caches *of equal size*, §2.1).
    pub fn new(l1_cfg: CacheConfig) -> Self {
        SingleLevel { l1: SplitL1::new(l1_cfg), stats: HierarchyStats::default() }
    }

    /// The instruction cache.
    pub fn l1i(&self) -> &Cache {
        self.l1.l1i()
    }

    /// The data cache.
    pub fn l1d(&self) -> &Cache {
        self.l1.l1d()
    }
}

impl MemorySystem for SingleLevel {
    #[inline]
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        self.stats.l2_misses += 1; // off-chip demand fetch
        if let Some(ev) = self.l1.fill(miss, miss.write) {
            if ev.dirty {
                self.stats.offchip_writebacks += 1;
            }
        }
        ServiceLevel::Memory
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
    }

    fn invalidate_line(&mut self, line: tlc_trace::LineAddr) -> u32 {
        self.l1.invalidate(line)
    }

    fn describe(&self) -> String {
        let cfg = self.l1.config();
        format!("single-level: split L1 {cfg} + {cfg}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use tlc_trace::Addr;

    fn sys(l1_bytes: u64) -> SingleLevel {
        SingleLevel::new(CacheConfig::paper(l1_bytes, Associativity::Direct).unwrap())
    }

    #[test]
    fn split_caches_do_not_interfere() {
        let mut s = sys(1024);
        // Same address as fetch and load: each side misses once.
        let a = Addr::new(0x8000);
        s.access(MemRef::fetch(a));
        s.access(MemRef::load(a));
        assert_eq!(s.stats().l1i_misses, 1);
        assert_eq!(s.stats().l1d_misses, 1);
        // Both now hit on their own side.
        assert_eq!(s.access(MemRef::fetch(a)), ServiceLevel::L1);
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L1);
    }

    #[test]
    fn stores_allocate_and_dirty() {
        let mut s = sys(1024);
        let a = Addr::new(0x100);
        assert_eq!(s.access(MemRef::store(a)), ServiceLevel::Memory);
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L1);
        // Conflict eviction of the dirtied line is an off-chip writeback.
        let conflicting = Addr::new(0x100 + 1024);
        s.access(MemRef::load(conflicting));
        assert_eq!(s.stats().offchip_writebacks, 1);
    }

    #[test]
    fn hit_and_miss_accounting_balances() {
        let mut s = sys(512);
        let mut hits = 0u64;
        for i in 0..10_000u64 {
            let addr = Addr::new((i * 52) % 4096);
            if s.access(MemRef::load(addr)) == ServiceLevel::L1 {
                hits += 1;
            }
        }
        let st = s.stats();
        assert_eq!(st.data_refs, 10_000);
        assert_eq!(st.data_refs - st.l1d_misses, hits);
        assert_eq!(st.l2_misses, st.l1_misses());
        assert_eq!(st.l2_hits, 0);
    }

    #[test]
    fn capacity_behaviour_bigger_cache_fewer_misses() {
        let run = |bytes: u64| {
            let mut s = sys(bytes);
            // Cycle over an 8KB region twice.
            for pass in 0..2 {
                for off in (0..8192u64).step_by(16) {
                    s.access(MemRef::load(Addr::new(off)));
                }
                let _ = pass;
            }
            s.stats().l1d_misses
        };
        let small = run(1024);
        let big = run(16 * 1024);
        assert!(big < small, "bigger cache should miss less: {big} vs {small}");
        // The 16KB cache holds the whole 8KB region: second pass all hits.
        assert_eq!(big, 512);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut s = sys(1024);
        let a = Addr::new(0x40);
        s.access(MemRef::load(a));
        s.reset_stats();
        assert_eq!(s.stats().total_refs(), 0);
        assert_eq!(s.access(MemRef::load(a)), ServiceLevel::L1, "contents flushed by reset");
    }

    #[test]
    fn describe_mentions_both_caches() {
        let s = sys(2048);
        assert!(s.describe().contains("2KB"));
        assert!(s.describe().contains("single-level"));
    }
}
