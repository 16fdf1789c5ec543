//! Time-sliced multiprogramming of instruction sources.
//!
//! The paper scopes multiprogramming out ("Effects of multiprogramming
//! and system references were beyond the scope of this study", §2.2),
//! citing the WRL companion work on context-switch effects (Mogul & Borg,
//! TN-16). [`TimeSliced`] provides the substrate to study it anyway: it
//! round-robins between several instruction sources with a fixed quantum,
//! modelling processes sharing one cache hierarchy. Address-space
//! separation comes for free — each synthetic workload occupies its own
//! regions — so the shared caches see genuine inter-process interference.

use crate::record::InstructionRecord;
use crate::source::InstructionSource;

/// Round-robin multiprogramming of instruction sources. See the module
/// docs. The sources may borrow (`'a`), e.g. replays of a shared cache.
///
/// # Examples
///
/// ```
/// use tlc_trace::spec::SpecBenchmark;
/// use tlc_trace::{InstructionSource, TimeSliced};
///
/// let mut mp = TimeSliced::new(
///     vec![
///         Box::new(SpecBenchmark::Gcc1.workload()),
///         Box::new(SpecBenchmark::Li.workload()),
///     ],
///     1000, // context switch every 1000 instructions
/// );
/// for _ in 0..5000 {
///     assert!(mp.next_instruction_opt().is_some());
/// }
/// assert_eq!(mp.context_switches(), 4);
/// ```
pub struct TimeSliced<'a> {
    name: String,
    sources: Vec<Box<dyn InstructionSource + 'a>>,
    quantum: u64,
    current: usize,
    issued_in_quantum: u64,
    context_switches: u64,
}

impl std::fmt::Debug for TimeSliced<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSliced")
            .field("name", &self.name)
            .field("processes", &self.sources.len())
            .field("quantum", &self.quantum)
            .field("context_switches", &self.context_switches)
            .finish_non_exhaustive()
    }
}

impl<'a> TimeSliced<'a> {
    /// Builds the scheduler. `quantum` is the context-switch interval in
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or `quantum` is zero.
    pub fn new(sources: Vec<Box<dyn InstructionSource + 'a>>, quantum: u64) -> Self {
        assert!(!sources.is_empty(), "need at least one process");
        assert!(quantum > 0, "quantum must be positive");
        let name = format!(
            "timesliced[{}]",
            sources.iter().map(|s| s.source_name()).collect::<Vec<_>>().join("+")
        );
        TimeSliced { name, sources, quantum, current: 0, issued_in_quantum: 0, context_switches: 0 }
    }

    /// Context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }
}

impl InstructionSource for TimeSliced<'_> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        if self.issued_in_quantum >= self.quantum {
            self.issued_in_quantum = 0;
            if self.sources.len() > 1 {
                self.current = (self.current + 1) % self.sources.len();
                self.context_switches += 1;
            }
        }
        // If the current process is exhausted, fall through to the next
        // live one (finite replays can end).
        for _ in 0..self.sources.len() {
            if let Some(rec) = self.sources[self.current].next_instruction_opt() {
                self.issued_in_quantum += 1;
                return Some(rec);
            }
            self.current = (self.current + 1) % self.sources.len();
            self.issued_in_quantum = 0;
        }
        None
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::source::ReplaySource;
    use crate::spec::SpecBenchmark;

    #[test]
    fn alternates_with_quantum() {
        // Two tiny replays with distinguishable addresses.
        let a = ReplaySource::new(
            "a",
            (0..10).map(|i| InstructionRecord::fetch_only(Addr::new(0x1000 + i * 4))).collect(),
        );
        let b = ReplaySource::new(
            "b",
            (0..10).map(|i| InstructionRecord::fetch_only(Addr::new(0x2000 + i * 4))).collect(),
        );
        let mut mp = TimeSliced::new(vec![Box::new(a), Box::new(b)], 3);
        let origins: Vec<u64> = std::iter::from_fn(|| mp.next_instruction_opt())
            .map(|r| r.fetch.raw() & 0xF000)
            .collect();
        assert_eq!(origins.len(), 20, "all instructions of both processes issued");
        assert_eq!(&origins[..6], &[0x1000, 0x1000, 0x1000, 0x2000, 0x2000, 0x2000]);
        assert!(mp.context_switches() >= 6);
    }

    #[test]
    fn single_process_never_switches() {
        let mut mp = TimeSliced::new(vec![Box::new(SpecBenchmark::Li.workload())], 100);
        for _ in 0..1000 {
            assert!(mp.next_instruction_opt().is_some());
        }
        assert_eq!(mp.context_switches(), 0);
    }

    #[test]
    fn exhausted_process_is_skipped() {
        let a = ReplaySource::new("a", vec![InstructionRecord::fetch_only(Addr::new(0x1000))]);
        let b = ReplaySource::new(
            "b",
            (0..5).map(|i| InstructionRecord::fetch_only(Addr::new(0x2000 + i * 4))).collect(),
        );
        let mut mp = TimeSliced::new(vec![Box::new(a), Box::new(b)], 2);
        let total = std::iter::from_fn(|| mp.next_instruction_opt()).count();
        assert_eq!(total, 6);
        assert!(mp.next_instruction_opt().is_none());
    }

    #[test]
    fn name_lists_processes() {
        let mp = TimeSliced::new(
            vec![
                Box::new(SpecBenchmark::Gcc1.workload()),
                Box::new(SpecBenchmark::Tomcatv.workload()),
            ],
            1000,
        );
        assert_eq!(mp.source_name(), "timesliced[gcc1+tomcatv]");
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn rejects_empty() {
        let _ = TimeSliced::new(vec![], 100);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn rejects_zero_quantum() {
        let _ = TimeSliced::new(vec![Box::new(SpecBenchmark::Li.workload())], 0);
    }
}
