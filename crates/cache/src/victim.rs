//! Victim caching — the degenerate case of exclusive two-level caching.
//!
//! The paper notes (§8) that for an L2 smaller than the L1 "the
//! configuration becomes a shared direct-mapped victim cache [4]" —
//! Jouppi's 1990 victim cache. [`VictimCacheSystem`] implements the
//! classic form: a direct-mapped L1 backed by a small fully-associative
//! buffer holding recent L1 victims; on an L1 miss that hits the buffer,
//! the two lines swap. The buffer is shared between the I and D sides
//! (the "shared" victim cache of the quote).

use crate::cache::Cache;
use crate::config::{Associativity, CacheConfig, ConfigError, ReplacementKind};
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::MemRef;

/// Split direct-mapped L1 caches plus a small shared fully-associative
/// victim buffer.
///
/// Buffer hits are counted as `l2_hits` in [`HierarchyStats`] — the
/// buffer plays the role of an (extremely small) second level.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, MemorySystem, ServiceLevel, VictimCacheSystem};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l1 = CacheConfig::paper(1024, Associativity::Direct)?;
/// let mut sys = VictimCacheSystem::new(l1, 4)?;
/// let a = Addr::new(0x0000);
/// let b = Addr::new(0x0400); // conflicts with `a` in a 1KB L1
/// sys.access(MemRef::load(a));
/// sys.access(MemRef::load(b));                      // evicts a → buffer
/// assert_eq!(sys.access(MemRef::load(a)), ServiceLevel::L2); // buffer hit
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VictimCacheSystem {
    l1: SplitL1,
    buffer: Cache,
    stats: HierarchyStats,
}

impl VictimCacheSystem {
    /// Builds the system with a `buffer_lines`-entry victim buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `buffer_lines` is not a power of two
    /// (the buffer is built as a fully-associative LRU cache).
    pub fn new(l1_cfg: CacheConfig, buffer_lines: u64) -> Result<Self, ConfigError> {
        let buffer_cfg = CacheConfig::new(
            buffer_lines * l1_cfg.line_bytes(),
            l1_cfg.line_bytes(),
            Associativity::Full,
            ReplacementKind::Lru,
        )?;
        Ok(VictimCacheSystem {
            l1: SplitL1::new(l1_cfg),
            buffer: Cache::new(buffer_cfg),
            stats: HierarchyStats::default(),
        })
    }

    /// The victim buffer.
    pub fn buffer(&self) -> &Cache {
        &self.buffer
    }
}

impl MemorySystem for VictimCacheSystem {
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        // A buffer hit swaps the line with the L1 victim.
        let (level, dirty) = match self.buffer.extract(miss.line) {
            Some((dirty, _slot)) => {
                self.stats.l2_hits += 1;
                (ServiceLevel::L2, dirty)
            }
            None => {
                self.stats.l2_misses += 1;
                (ServiceLevel::Memory, false)
            }
        };
        if let Some(v) = self.l1.fill(miss, miss.write || dirty) {
            if let Some(ev) = self.buffer.fill(v.line, v.dirty) {
                if ev.dirty {
                    self.stats.offchip_writebacks += 1;
                }
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
        self.buffer.reset_stats();
    }

    fn invalidate_line(&mut self, line: tlc_trace::LineAddr) -> u32 {
        self.l1.invalidate(line) + self.buffer.invalidate(line) as u32
    }

    fn describe(&self) -> String {
        format!(
            "victim-cache: split L1 {} + {}-line shared victim buffer",
            self.l1.config(),
            self.buffer.config().lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_trace::Addr;

    fn sys(buffer_lines: u64) -> VictimCacheSystem {
        VictimCacheSystem::new(
            CacheConfig::paper(1024, Associativity::Direct).unwrap(),
            buffer_lines,
        )
        .unwrap()
    }

    #[test]
    fn conflict_pair_ping_pongs_in_buffer() {
        let mut s = sys(4);
        let a = Addr::new(0x0000);
        let b = Addr::new(0x0400);
        s.access(MemRef::load(a));
        s.access(MemRef::load(b));
        let mut buffer_hits = 0;
        for _ in 0..50 {
            for addr in [a, b] {
                if s.access(MemRef::load(addr)) == ServiceLevel::L2 {
                    buffer_hits += 1;
                }
            }
        }
        assert_eq!(buffer_hits, 100, "all post-warmup conflict misses should hit the buffer");
        assert_eq!(s.stats().l2_misses, 2);
    }

    #[test]
    fn buffer_capacity_limits_coverage() {
        // Five conflicting lines with a 4-entry buffer: the rotation set
        // (1 in L1 + 5 candidates for 4 slots) doesn't fit, so some misses
        // still go off-chip.
        let mut s = sys(4);
        let lines: Vec<Addr> = (0..6).map(|i| Addr::new(i * 0x400)).collect();
        for _ in 0..20 {
            for &a in &lines {
                s.access(MemRef::load(a));
            }
        }
        assert!(s.stats().l2_misses > 6, "6 lines cannot all be covered by a 4-entry buffer");
    }

    #[test]
    fn buffer_shared_between_i_and_d() {
        let mut s = sys(4);
        let a = Addr::new(0x0000);
        let b = Addr::new(0x0400);
        // Fill the *instruction* side conflict pair.
        s.access(MemRef::fetch(a));
        s.access(MemRef::fetch(b)); // victim a → shared buffer
        assert_eq!(s.access(MemRef::fetch(a)), ServiceLevel::L2);
        assert!(s.stats().l1i_misses >= 3);
    }

    #[test]
    fn dirty_victim_roundtrip_preserves_dirt() {
        let mut s = sys(2);
        let a = Addr::new(0x0000);
        let b = Addr::new(0x0400);
        s.access(MemRef::store(a)); // dirty a in L1
        s.access(MemRef::load(b)); // dirty a → buffer
        s.access(MemRef::load(a)); // back to L1, still dirty
        s.access(MemRef::load(b)); // dirty a → buffer again
                                   // Flood the buffer to force a's eviction.
        for i in 2..8u64 {
            s.access(MemRef::load(Addr::new(i * 0x400)));
        }
        assert!(s.stats().offchip_writebacks >= 1);
    }

    #[test]
    fn rejects_non_power_of_two_buffer() {
        let l1 = CacheConfig::paper(1024, Associativity::Direct).unwrap();
        assert!(VictimCacheSystem::new(l1, 3).is_err());
    }

    #[test]
    fn describe_mentions_buffer() {
        assert!(sys(4).describe().contains("victim"));
    }
}
