//! The first level every organisation shares: split I/D caches of equal
//! size (§2.1), write-allocate and fetch-on-write (§2.2).
//!
//! Each hierarchy holds one [`SplitL1`] and keeps only the logic of what
//! sits behind it. The protocol is fixed here, once: [`SplitL1::lookup`]
//! counts the reference and probes the side it belongs to, and on a miss
//! the hierarchy services it and calls [`SplitL1::fill`] — every miss
//! refills the L1, whatever the back end. That is the invariant
//! miss-stream filtering rests on (see [`filter`](crate::filter)).

use crate::cache::{Cache, Evicted};
use crate::config::CacheConfig;
use crate::stats::HierarchyStats;
use tlc_trace::{AccessKind, LineAddr, MemRef};

/// An L1 miss the hierarchy must service before calling
/// [`SplitL1::fill`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct L1Miss {
    /// The missing line.
    pub(crate) line: LineAddr,
    /// Missed in the instruction cache (else the data cache).
    pub(crate) fetch: bool,
    /// The reference was a store.
    pub(crate) write: bool,
}

/// Split L1 instruction/data caches built from one configuration.
#[derive(Debug)]
pub(crate) struct SplitL1 {
    l1i: Cache,
    l1d: Cache,
    line_bytes: u64,
    /// Line of the most recent instruction fetch (`u64::MAX` when unknown
    /// or the filter is disabled). Sequential fetch streams mostly stay
    /// within one line, and the last fetched line is resident by
    /// construction — a hit left it in place, a miss filled it, and every
    /// path that removes lines ([`SplitL1::invalidate`],
    /// [`SplitL1::extract`]) clears the filter — so a repeat fetch is a
    /// guaranteed L1 hit, resolved without probing the array. Only
    /// maintained for a direct-mapped L1I, where a repeat hit has no
    /// replacement side effects to reproduce.
    last_fetch: u64,
}

impl SplitL1 {
    /// Builds both caches from `cfg` (the paper studies split caches *of
    /// equal size*, §2.1).
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        SplitL1 {
            l1i: Cache::new(cfg),
            l1d: Cache::new(cfg),
            line_bytes: cfg.line_bytes(),
            last_fetch: u64::MAX,
        }
    }

    /// The instruction cache.
    pub(crate) fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The data cache.
    pub(crate) fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The configuration both caches share.
    pub(crate) fn config(&self) -> &CacheConfig {
        self.l1i.config()
    }

    /// Counts `r` into `stats` (`instructions` or `data_refs`) and probes
    /// its side. Returns `None` on a hit; on a miss counts `l1i_misses`
    /// or `l1d_misses` and leaves the caches unchanged for the hierarchy
    /// to refill through [`SplitL1::fill`].
    #[inline]
    pub(crate) fn lookup(&mut self, r: MemRef, stats: &mut HierarchyStats) -> Option<L1Miss> {
        let line = r.addr.line(self.line_bytes);
        let write = r.kind == AccessKind::Store;
        if r.kind == AccessKind::InstrFetch {
            stats.instructions += 1;
            if line.0 == self.last_fetch {
                self.l1i.note_filtered_hit();
                return None;
            }
            if self.l1i.is_direct_mapped() {
                self.last_fetch = line.0;
            }
            if self.l1i.access(line, false) {
                return None;
            }
            stats.l1i_misses += 1;
            Some(L1Miss { line, fetch: true, write })
        } else {
            stats.data_refs += 1;
            if self.l1d.access(line, write) {
                return None;
            }
            stats.l1d_misses += 1;
            Some(L1Miss { line, fetch: false, write })
        }
    }

    /// Refills the side that missed with `miss.line`, marked `dirty`;
    /// returns the displaced L1 line, if any.
    #[inline]
    pub(crate) fn fill(&mut self, miss: L1Miss, dirty: bool) -> Option<Evicted> {
        let side = if miss.fetch { &mut self.l1i } else { &mut self.l1d };
        side.fill_after_miss(miss.line, dirty)
    }

    /// Clears both caches' statistics (contents are kept).
    pub(crate) fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
    }

    /// Drops `line` from both sides; returns how many copies were
    /// present.
    pub(crate) fn invalidate(&mut self, line: LineAddr) -> u32 {
        self.extract(line).0
    }

    /// Removes `line` from both sides, returning how many copies were
    /// present and whether any of them was dirty.
    pub(crate) fn extract(&mut self, line: LineAddr) -> (u32, bool) {
        self.last_fetch = u64::MAX; // the filtered line may be the target
        let (mut copies, mut dirty) = (0, false);
        for side in [&mut self.l1i, &mut self.l1d] {
            if let Some((d, _)) = side.extract(line) {
                copies += 1;
                dirty |= d;
            }
        }
        (copies, dirty)
    }
}
