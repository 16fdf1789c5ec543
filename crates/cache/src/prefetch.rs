//! Stream buffers — the prefetch half of the paper's reference [4]
//! (Jouppi, *Improving Direct-Mapped Cache Performance by the Addition
//! of a Small Fully-Associative Cache and Prefetch Buffers*, ISCA 1990).
//!
//! A stream buffer is a FIFO of sequentially-prefetched lines sitting
//! beside a direct-mapped L1. On an L1 miss whose line is at the *head*
//! of a buffer, the line moves into the L1 and the buffer prefetches the
//! next sequential line into its tail. A miss that hits no buffer
//! allocates one (LRU), which starts prefetching from the missing line's
//! successor. Sequential streams — tomcatv's sweeps, fpppp's straight-
//! line code — then hit in the buffers instead of going to memory.
//!
//! Timing/bandwidth accounting: buffer hits are counted as `l2_hits`
//! (a one-to-few cycle transfer, like an on-chip L2 hit); lines
//! prefetched from memory are tracked in
//! [`StreamBufferSystem::prefetches`] so bandwidth cost is visible.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use std::collections::VecDeque;
use tlc_trace::{LineAddr, MemRef};

/// One stream buffer: a FIFO of prefetched line addresses.
#[derive(Debug, Clone)]
struct StreamBuffer {
    /// Prefetched lines, head first.
    lines: VecDeque<LineAddr>,
    /// Next line the buffer would prefetch.
    next: LineAddr,
    /// LRU stamp for allocation.
    last_use: u64,
}

impl StreamBuffer {
    fn restart(&mut self, after: LineAddr, depth: usize, stamp: u64, prefetches: &mut u64) {
        self.lines.clear();
        self.next = LineAddr(after.0 + 1);
        for _ in 0..depth {
            self.lines.push_back(self.next);
            self.next = LineAddr(self.next.0 + 1);
            *prefetches += 1;
        }
        self.last_use = stamp;
    }
}

/// A pool of stream buffers serving one L1 cache side.
#[derive(Debug)]
struct BufferPool {
    buffers: Vec<StreamBuffer>,
    depth: usize,
    clock: u64,
}

impl BufferPool {
    fn new(count: usize, depth: usize) -> Self {
        BufferPool {
            buffers: (0..count)
                .map(|_| StreamBuffer {
                    lines: VecDeque::with_capacity(depth),
                    next: LineAddr(0),
                    last_use: 0,
                })
                .collect(),
            depth,
            clock: 0,
        }
    }

    /// Looks for `line` at the head of any buffer. On a hit the buffer
    /// advances (prefetching one more line). Returns whether it hit.
    fn lookup(&mut self, line: LineAddr, prefetches: &mut u64) -> bool {
        self.clock += 1;
        for b in &mut self.buffers {
            if b.lines.front() == Some(&line) {
                b.lines.pop_front();
                b.lines.push_back(b.next);
                b.next = LineAddr(b.next.0 + 1);
                *prefetches += 1;
                b.last_use = self.clock;
                return true;
            }
        }
        false
    }

    /// Allocates the LRU buffer to stream from `miss_line + 1`.
    fn allocate(&mut self, miss_line: LineAddr, prefetches: &mut u64) {
        self.clock += 1;
        let stamp = self.clock;
        let depth = self.depth;
        let lru = self.buffers.iter_mut().min_by_key(|b| b.last_use).expect("at least one buffer");
        lru.restart(miss_line, depth, stamp, prefetches);
    }
}

/// Split direct-mapped L1 caches, each backed by a pool of stream
/// buffers. See the module docs.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, MemorySystem, ServiceLevel, StreamBufferSystem};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l1 = CacheConfig::paper(1024, Associativity::Direct)?;
/// let mut sys = StreamBufferSystem::new(l1, 2, 4);
/// // A cold sequential sweep: first line misses, the rest hit the buffer.
/// sys.access(MemRef::load(Addr::new(0x10000)));                  // memory
/// assert_eq!(sys.access(MemRef::load(Addr::new(0x10010))), ServiceLevel::L2);
/// assert_eq!(sys.access(MemRef::load(Addr::new(0x10020))), ServiceLevel::L2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamBufferSystem {
    l1: SplitL1,
    i_pool: BufferPool,
    d_pool: BufferPool,
    stats: HierarchyStats,
    prefetches: u64,
}

impl StreamBufferSystem {
    /// Builds the system with `buffers` stream buffers of `depth` lines
    /// on each L1 side.
    ///
    /// # Panics
    ///
    /// Panics if `buffers` or `depth` is zero.
    pub fn new(l1_cfg: CacheConfig, buffers: usize, depth: usize) -> Self {
        assert!(buffers > 0, "need at least one stream buffer");
        assert!(depth > 0, "buffers need at least one entry");
        StreamBufferSystem {
            l1: SplitL1::new(l1_cfg),
            i_pool: BufferPool::new(buffers, depth),
            d_pool: BufferPool::new(buffers, depth),
            stats: HierarchyStats::default(),
            prefetches: 0,
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

    /// Lines prefetched from memory (bandwidth cost of the buffers).
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }
}

impl MemorySystem for StreamBufferSystem {
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        let pool = if miss.fetch { &mut self.i_pool } else { &mut self.d_pool };
        let hit = pool.lookup(miss.line, &mut self.prefetches);
        if !hit {
            pool.allocate(miss.line, &mut self.prefetches);
        }
        if let Some(v) = self.l1.fill(miss, miss.write) {
            if v.dirty {
                self.stats.offchip_writebacks += 1;
            }
        }
        if hit {
            self.stats.l2_hits += 1;
            ServiceLevel::L2
        } else {
            self.stats.l2_misses += 1;
            ServiceLevel::Memory
        }
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.prefetches = 0;
        self.l1.reset_stats();
    }

    fn invalidate_line(&mut self, line: LineAddr) -> u32 {
        self.l1.invalidate(line)
    }

    fn describe(&self) -> String {
        format!(
            "stream-buffer: split L1 {} + {}x{}-line buffers per side",
            self.l1.config(),
            self.i_pool.buffers.len(),
            self.i_pool.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use crate::single::SingleLevel;
    use tlc_trace::Addr;

    fn sys(buffers: usize, depth: usize) -> StreamBufferSystem {
        StreamBufferSystem::new(
            CacheConfig::paper(1024, Associativity::Direct).expect("valid"),
            buffers,
            depth,
        )
    }

    #[test]
    fn sequential_sweep_hits_after_first_miss() {
        let mut s = sys(2, 4);
        // Sweep 64 sequential lines far beyond the 1KB L1.
        let mut memory = 0;
        let mut buffer = 0;
        for i in 0..64u64 {
            match s.access(MemRef::load(Addr::new(0x10_0000 + i * 16))) {
                ServiceLevel::Memory => memory += 1,
                ServiceLevel::L2 => buffer += 1,
                ServiceLevel::L1 => {}
            }
        }
        assert_eq!(memory, 1, "only the stream head should miss to memory");
        assert_eq!(buffer, 63);
    }

    #[test]
    fn two_interleaved_streams_need_two_buffers() {
        let run = |buffers: usize| {
            let mut s = sys(buffers, 4);
            let mut mem = 0;
            for i in 0..64u64 {
                for base in [0x10_0000u64, 0x40_0000] {
                    if s.access(MemRef::load(Addr::new(base + i * 16))) == ServiceLevel::Memory {
                        mem += 1;
                    }
                }
            }
            mem
        };
        let one = run(1);
        let two = run(2);
        assert_eq!(two, 2, "two buffers follow both streams");
        assert!(one > 32, "one buffer thrashes between interleaved streams: {one}");
    }

    #[test]
    fn non_sequential_traffic_gains_nothing() {
        let mut s = sys(4, 4);
        let mut x = 7u64;
        let mut buffer_hits = 0;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s.access(MemRef::load(Addr::new((x % (1 << 22)) & !0xF))) == ServiceLevel::L2 {
                buffer_hits += 1;
            }
        }
        assert!(
            (buffer_hits as f64) < 25.0,
            "random traffic should rarely hit stream buffers: {buffer_hits}"
        );
    }

    #[test]
    fn prefetch_bandwidth_is_accounted() {
        let mut s = sys(2, 4);
        for i in 0..16u64 {
            s.access(MemRef::load(Addr::new(0x10_0000 + i * 16)));
        }
        // Allocation prefetches `depth` lines; each buffer hit prefetches
        // one more.
        assert!(s.prefetches() >= 16, "prefetch traffic too low: {}", s.prefetches());
    }

    #[test]
    fn beats_plain_single_level_on_streams() {
        let l1 = CacheConfig::paper(1024, Associativity::Direct).expect("valid");
        // tomcatv round-robins seven arrays, so give the data side enough
        // buffers to follow every stream.
        let mut plain = SingleLevel::new(l1);
        let mut buffered = StreamBufferSystem::new(l1, 8, 4);
        let mut w = tlc_trace::spec::SpecBenchmark::Tomcatv.workload();
        for _ in 0..60_000 {
            let rec = w.next_instruction();
            plain.access_instruction(&rec);
            buffered.access_instruction(&rec);
        }
        assert!(
            (buffered.stats().l2_misses as f64) < 0.6 * plain.stats().l2_misses as f64,
            "stream buffers should remove >40% of tomcatv's misses: {} vs {}",
            buffered.stats().l2_misses,
            plain.stats().l2_misses
        );
    }

    #[test]
    fn instruction_side_has_its_own_buffers() {
        let mut s = sys(1, 4);
        // Interleave an instruction stream and a data stream: each side's
        // single buffer follows its own stream without interference.
        let mut mem = 0;
        for i in 0..32u64 {
            if s.access(MemRef::fetch(Addr::new(0x10_0000 + i * 16))) == ServiceLevel::Memory {
                mem += 1;
            }
            if s.access(MemRef::load(Addr::new(0x80_0000 + i * 16))) == ServiceLevel::Memory {
                mem += 1;
            }
        }
        assert_eq!(mem, 2, "one cold miss per side only");
    }

    #[test]
    fn accounting_balances() {
        let mut s = sys(2, 4);
        for i in 0..5000u64 {
            s.access(MemRef::load(Addr::new((i * 52) % 65536)));
        }
        let st = s.stats();
        assert_eq!(st.l1_misses(), st.l2_hits + st.l2_misses);
    }

    #[test]
    #[should_panic(expected = "at least one stream buffer")]
    fn rejects_zero_buffers() {
        let _ = sys(0, 4);
    }

    #[test]
    fn describe_mentions_buffers() {
        assert!(sys(2, 4).describe().contains("stream-buffer"));
    }
}
