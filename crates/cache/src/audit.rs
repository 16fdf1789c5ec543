//! Hierarchy content auditors.
//!
//! The paper's argument for exclusive caching is about *content overlap*:
//! a conventional hierarchy wastes L2 capacity on lines that are already
//! in the L1s. [`DuplicationReport`] measures that overlap directly from
//! cache contents, and is used by tests, examples, and the `repro`
//! exhibits to show the exclusive policy actually removes duplication.

use crate::cache::Cache;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use tlc_trace::LineAddr;

/// Snapshot of content overlap between the L1 caches and the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DuplicationReport {
    /// Valid lines in the L1 instruction cache.
    pub l1i_lines: u64,
    /// Valid lines in the L1 data cache.
    pub l1d_lines: u64,
    /// Valid lines in the L2.
    pub l2_lines: u64,
    /// L2 lines that are also present in an L1 (the duplication the
    /// exclusive policy eliminates).
    pub duplicated: u64,
}

impl DuplicationReport {
    /// Computes the report from cache contents.
    pub fn measure(l1i: &Cache, l1d: &Cache, l2: &Cache) -> Self {
        let l1_lines: HashSet<LineAddr> = l1i.iter_lines().chain(l1d.iter_lines()).collect();
        let duplicated = l2.iter_lines().filter(|l| l1_lines.contains(l)).count() as u64;
        DuplicationReport {
            l1i_lines: l1i.resident_lines(),
            l1d_lines: l1d.resident_lines(),
            l2_lines: l2.resident_lines(),
            duplicated,
        }
    }

    /// Unique lines resident on chip across all levels.
    pub fn unique_on_chip(&self) -> u64 {
        self.l1i_lines + self.l1d_lines + self.l2_lines - self.duplicated
    }

    /// Fraction of L2 lines duplicated in an L1 (`0` when the L2 is
    /// empty).
    pub fn duplication_fraction(&self) -> f64 {
        if self.l2_lines == 0 {
            0.0
        } else {
            self.duplicated as f64 / self.l2_lines as f64
        }
    }

    /// Whether the hierarchy is strictly exclusive (no overlap at all).
    pub fn is_exclusive(&self) -> bool {
        self.duplicated == 0
    }
}

impl fmt::Display for DuplicationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1I {} + L1D {} + L2 {} lines; {} duplicated ({:.1}% of L2); {} unique on-chip",
            self.l1i_lines,
            self.l1d_lines,
            self.l2_lines,
            self.duplicated,
            self.duplication_fraction() * 100.0,
            self.unique_on_chip()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, CacheConfig};
    use crate::exclusive::ExclusiveTwoLevel;
    use crate::hierarchy::MemorySystem;
    use crate::twolevel::ConventionalTwoLevel;
    use tlc_trace::{Addr, MemRef};

    fn drive<M: MemorySystem>(sys: &mut M, n: u64, span: u64) {
        for i in 0..n {
            sys.access(MemRef::load(Addr::new((i * 52) % span)));
        }
    }

    #[test]
    fn conventional_duplicates_exclusive_does_not() {
        let l1 = CacheConfig::paper(1024, Associativity::Direct).unwrap();
        let l2 = CacheConfig::paper(4096, Associativity::SetAssoc(4)).unwrap();
        let mut conv = ConventionalTwoLevel::new(l1, l2);
        let mut excl = ExclusiveTwoLevel::new(l1, l2);
        drive(&mut conv, 50_000, 16 * 1024);
        drive(&mut excl, 50_000, 16 * 1024);

        let rc = DuplicationReport::measure(conv.l1i(), conv.l1d(), conv.l2());
        let re = DuplicationReport::measure(excl.l1i(), excl.l1d(), excl.l2());
        assert!(rc.duplication_fraction() > 0.1, "conventional should duplicate: {rc}");
        assert!(
            re.duplication_fraction() < rc.duplication_fraction() / 2.0,
            "exclusive should duplicate far less: {re} vs {rc}"
        );
        assert!(
            re.unique_on_chip() > rc.unique_on_chip(),
            "exclusive should hold more unique lines: {re} vs {rc}"
        );
    }

    #[test]
    fn report_arithmetic() {
        let r = DuplicationReport { l1i_lines: 10, l1d_lines: 20, l2_lines: 100, duplicated: 25 };
        assert_eq!(r.unique_on_chip(), 105);
        assert!((r.duplication_fraction() - 0.25).abs() < 1e-12);
        assert!(!r.is_exclusive());
        let r0 = DuplicationReport { l1i_lines: 0, l1d_lines: 0, l2_lines: 0, duplicated: 0 };
        assert_eq!(r0.duplication_fraction(), 0.0);
        assert!(r0.is_exclusive());
    }

    #[test]
    fn display_mentions_duplication() {
        let r = DuplicationReport { l1i_lines: 1, l1d_lines: 1, l2_lines: 2, duplicated: 1 };
        assert!(r.to_string().contains("duplicated"));
    }
}
