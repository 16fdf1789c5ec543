//! The [`InstructionSource`] abstraction: anything that can feed
//! instructions to the experiment harness.
//!
//! Synthetic [`Workload`](crate::Workload)s are infinite; recorded traces
//! ([`ReplaySource`]) end. The harness treats both uniformly through
//! `next_instruction_opt() -> Option<InstructionRecord>`, or pulls many
//! records per call through [`InstructionSource::next_batch`].

use crate::addr::Addr;
use crate::record::{InstructionRecord, MemRef};
use crate::workload::Workload;

/// Records per [`InstructionSource::next_batch`] call in the streaming
/// consumers (24 KiB of records: stays cache-resident).
pub const BATCH_LEN: usize = 1024;

/// A zeroed buffer of [`BATCH_LEN`] records for
/// [`InstructionSource::next_batch`].
pub fn batch_buffer() -> Vec<InstructionRecord> {
    vec![InstructionRecord::fetch_only(Addr::new(0)); BATCH_LEN]
}

/// A stream of instructions for the simulator. Implemented by the
/// synthetic workloads (never exhausts) and by trace replays (finite).
pub trait InstructionSource: Send {
    /// Produces the next instruction, or `None` when the source is
    /// exhausted.
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord>;

    /// Fills the front of `out` with the next records and returns how
    /// many it wrote: exactly the records `out.len()` calls of
    /// [`next_instruction_opt`](Self::next_instruction_opt) would yield,
    /// in order. A count below `out.len()` means the source ended (for a
    /// [`TraceReader`](crate::TraceReader), possibly at a parked decode
    /// error), so a consumer stops at the first short batch.
    fn next_batch(&mut self, out: &mut [InstructionRecord]) -> usize {
        for (n, slot) in out.iter_mut().enumerate() {
            let Some(rec) = self.next_instruction_opt() else { return n };
            // Stored field by field: a whole-record copy also moves the
            // padding after the data kind, which compiles to overlapping
            // partial stores that stall store forwarding on every record.
            let data = rec.data.map(|d| MemRef { addr: d.addr, kind: d.kind });
            *slot = InstructionRecord { fetch: rec.fetch, data };
        }
        out.len()
    }

    /// A short name for reports.
    fn source_name(&self) -> &str;
}

impl InstructionSource for Workload {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        Some(self.next_instruction())
    }

    fn source_name(&self) -> &str {
        self.name()
    }
}

/// Replays a pre-recorded sequence of instructions held in memory (e.g.
/// a small `TLCTRC01` file collected by
/// [`read_compact_trace`](crate::compact::read_compact_trace); a large
/// one streams through [`TraceReader`](crate::TraceReader) instead).
///
/// # Examples
///
/// ```
/// use tlc_trace::{Addr, InstructionRecord, InstructionSource, MemRef, ReplaySource};
///
/// let recs = vec![
///     InstructionRecord::fetch_only(Addr::new(0x100)),
///     InstructionRecord::with_data(Addr::new(0x104), MemRef::load(Addr::new(0x2000))),
/// ];
/// let mut replay = ReplaySource::new("mytrace", recs);
/// assert!(replay.next_instruction_opt().is_some());
/// assert!(replay.next_instruction_opt().is_some());
/// assert!(replay.next_instruction_opt().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySource {
    name: String,
    records: Vec<InstructionRecord>,
    position: usize,
}

impl ReplaySource {
    /// Wraps a recorded instruction sequence.
    pub fn new(name: impl Into<String>, records: Vec<InstructionRecord>) -> Self {
        ReplaySource { name: name.into(), records, position: 0 }
    }

    /// Records remaining to replay.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.position
    }

    /// Total records in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl InstructionSource for ReplaySource {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        let r = self.records.get(self.position).copied();
        if r.is_some() {
            self.position += 1;
        }
        r
    }

    fn next_batch(&mut self, out: &mut [InstructionRecord]) -> usize {
        let n = out.len().min(self.remaining());
        out[..n].copy_from_slice(&self.records[self.position..self.position + n]);
        self.position += n;
        n
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::record::MemRef;
    use crate::spec::SpecBenchmark;

    #[test]
    fn workload_is_infinite_source() {
        let mut w = SpecBenchmark::Li.workload();
        for _ in 0..100 {
            assert!(w.next_instruction_opt().is_some());
        }
        assert_eq!(w.source_name(), "li");
    }

    #[test]
    fn replay_exhausts_and_stays_exhausted() {
        let recs = vec![
            InstructionRecord::fetch_only(Addr::new(0)),
            InstructionRecord::with_data(Addr::new(4), MemRef::store(Addr::new(0x100))),
        ];
        let mut r = ReplaySource::new("t", recs.clone());
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.next_instruction_opt(), Some(recs[0]));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.next_instruction_opt(), Some(recs[1]));
        assert_eq!(r.next_instruction_opt(), None);
        assert_eq!(r.next_instruction_opt(), None, "stays exhausted");
    }

    #[test]
    fn replay_of_workload_matches_workload() {
        let recorded: Vec<InstructionRecord> =
            SpecBenchmark::Espresso.workload().take_instructions(500);
        let mut replay = ReplaySource::new("espresso-replay", recorded.clone());
        let mut live = SpecBenchmark::Espresso.workload();
        for rec in &recorded {
            assert_eq!(replay.next_instruction_opt().as_ref(), Some(rec));
            assert_eq!(live.next_instruction(), *rec);
        }
    }
}
