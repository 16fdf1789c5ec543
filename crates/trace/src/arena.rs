//! [`TraceArena`]: an instruction stream held in memory and replayed
//! many times — a `--trace` capture, a sampled phase slice, or the input
//! of a per-access reference replay. Sweeps need no arena: they read any
//! [`InstructionSource`] once per share of their L1 groups.
//!
//! Records live in a [`ColumnStore`]: fetch address (primary word), data
//! address (secondary word, zero without a data reference), and a
//! one-byte flag (none/load/store) — 17 bytes per instruction, ≈ 34 MB
//! for a standard budget (500 K warm-up + 1.5 M measured). A capture of
//! known length reserves each chunk exactly.
//!
//! ## Example
//!
//! ```
//! use tlc_trace::spec::SpecBenchmark;
//! use tlc_trace::{InstructionSource, TraceArena};
//!
//! let arena = TraceArena::capture(&mut SpecBenchmark::Li.workload(), 10_000);
//! assert_eq!(arena.len(), 10_000);
//!
//! // Replays are cheap, independent cursors over the shared buffer.
//! let mut a = arena.replay();
//! let mut b = arena.replay();
//! assert_eq!(a.next_instruction_opt(), b.next_instruction_opt());
//! ```

use crate::addr::Addr;
use crate::columns::{ChunkView, ColumnStore, DEFAULT_CHUNK_LEN};
use crate::record::{AccessKind, InstructionRecord, MemRef};
use crate::source::InstructionSource;

/// Flag value for an instruction with no data reference.
pub const FLAG_NONE: u8 = 0;
/// Flag value for an instruction carrying a data load.
pub const FLAG_LOAD: u8 = 1;
/// Flag value for an instruction carrying a data store.
pub const FLAG_STORE: u8 = 2;

/// Decodes instruction `i` of an arena chunk (for replay cursors and
/// tests; the simulator fast path reads the columns directly).
fn decode(chunk: ChunkView<'_>, i: usize) -> InstructionRecord {
    let fetch = Addr::new(chunk.primary[i]);
    let data = match chunk.flags[i] {
        FLAG_NONE => None,
        FLAG_LOAD => Some(MemRef::load(Addr::new(chunk.secondary[i]))),
        FLAG_STORE => Some(MemRef::store(Addr::new(chunk.secondary[i]))),
        other => unreachable!("corrupt arena flag {other}"),
    };
    InstructionRecord { fetch, data }
}

/// A benchmark's instruction stream, captured once into packed
/// structure-of-arrays chunks and replayed arbitrarily many times.
///
/// Each chunk's primary column holds fetch addresses, its secondary
/// column data addresses (zero where the flag is [`FLAG_NONE`]), and its
/// flag column [`FLAG_NONE`], [`FLAG_LOAD`] or [`FLAG_STORE`].
///
/// Arenas are immutable after capture and safely shared across threads
/// (`&TraceArena` / `Arc<TraceArena>`); each replay is an independent
/// cursor.
#[derive(Debug)]
pub struct TraceArena {
    name: String,
    columns: ColumnStore,
}

impl TraceArena {
    /// Captures up to `len` instructions from `source` using the default
    /// chunk size. Stops early (with a shorter arena) if the source is
    /// exhausted first; synthetic [`Workload`](crate::Workload)s never
    /// exhaust.
    pub fn capture<S: InstructionSource + ?Sized>(source: &mut S, len: u64) -> Self {
        Self::capture_chunked(source, len, DEFAULT_CHUNK_LEN)
    }

    /// [`TraceArena::capture`] with an explicit chunk size (exposed so
    /// tests can prove results are chunking-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn capture_chunked<S: InstructionSource + ?Sized>(
        source: &mut S,
        len: u64,
        chunk_len: usize,
    ) -> Self {
        let name = source.source_name().to_string();
        let mut columns = ColumnStore::new(chunk_len);
        let mut batch = crate::source::batch_buffer();
        let mut left = len;
        while left > 0 {
            let asked = usize::try_from(left.min(batch.len() as u64)).expect("batch fits in usize");
            let got = source.next_batch(&mut batch[..asked]);
            for rec in &batch[..got] {
                let (addr, flag) = match rec.data {
                    None => (0, FLAG_NONE),
                    Some(d) if d.kind == AccessKind::Store => (d.addr.raw(), FLAG_STORE),
                    Some(d) => (d.addr.raw(), FLAG_LOAD),
                };
                columns.push(rec.fetch.raw(), addr, flag, left);
                left -= 1;
            }
            if got < asked {
                break;
            }
        }
        let arena = TraceArena { name, columns };
        tlc_obs::obs_count!(tlc_obs::Counter::TraceChunks, arena.chunks().len() as u64);
        tlc_obs::obs_count!(tlc_obs::Counter::TraceBytesPacked, arena.bytes() as u64);
        arena
    }

    /// The captured source's name (e.g. `"gcc1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions captured.
    pub fn len(&self) -> u64 {
        self.columns.len()
    }

    /// Whether the arena holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Approximate resident size of the packed buffers, in bytes.
    pub fn bytes(&self) -> usize {
        self.columns.bytes()
    }

    /// Iterates over the arena's chunks as packed column views.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = ChunkView<'_>> {
        self.columns.chunks()
    }

    /// A fresh replay cursor over the whole arena.
    pub fn replay(&self) -> ArenaReplay<'_> {
        ArenaReplay { arena: self, chunk: 0, offset: 0 }
    }
}

/// A cursor replaying a [`TraceArena`] as an [`InstructionSource`].
///
/// Ends (returns `None`) after the arena's last captured instruction.
#[derive(Debug, Clone)]
pub struct ArenaReplay<'a> {
    arena: &'a TraceArena,
    chunk: usize,
    offset: usize,
}

impl InstructionSource for ArenaReplay<'_> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        let mut one = [InstructionRecord::fetch_only(Addr::new(0))];
        (self.next_batch(&mut one) == 1).then_some(one[0])
    }

    /// Decodes whole runs of each chunk's columns into `out`, so a
    /// batched consumer pays no per-record cursor call.
    fn next_batch(&mut self, out: &mut [InstructionRecord]) -> usize {
        let mut n = 0;
        while n < out.len() {
            let Some(chunk) = self.arena.columns.chunk(self.chunk) else { break };
            let take = (chunk.len() - self.offset).min(out.len() - n);
            for (slot, i) in out[n..n + take].iter_mut().zip(self.offset..) {
                *slot = decode(chunk, i);
            }
            n += take;
            self.offset += take;
            if self.offset == chunk.len() {
                self.chunk += 1;
                self.offset = 0;
            }
        }
        n
    }

    fn source_name(&self) -> &str {
        &self.arena.name
    }
}

impl Iterator for ArenaReplay<'_> {
    type Item = InstructionRecord;

    fn next(&mut self) -> Option<InstructionRecord> {
        self.next_instruction_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplaySource;
    use crate::spec::SpecBenchmark;

    #[test]
    fn capture_matches_generator_stream() {
        let expected = SpecBenchmark::Eqntott.workload().take_instructions(3000);
        let arena = TraceArena::capture_chunked(
            &mut SpecBenchmark::Eqntott.workload(),
            3000,
            257, // deliberately odd, non-dividing chunk size
        );
        assert_eq!(arena.len(), 3000);
        assert_eq!(arena.name(), "eqntott");
        let replayed: Vec<_> = arena.replay().collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn chunk_size_does_not_change_contents() {
        let a = TraceArena::capture_chunked(&mut SpecBenchmark::Li.workload(), 1000, 64);
        let b = TraceArena::capture_chunked(&mut SpecBenchmark::Li.workload(), 1000, 1000);
        let va: Vec<_> = a.replay().collect();
        let vb: Vec<_> = b.replay().collect();
        assert_eq!(va, vb);
        assert_eq!(a.chunks().len(), 16, "1000/64 rounds up to 16 chunks");
        assert_eq!(b.chunks().len(), 1);
    }

    #[test]
    fn chunk_views_cover_all_records_in_order() {
        let arena = TraceArena::capture_chunked(&mut SpecBenchmark::Fpppp.workload(), 500, 128);
        let mut replay = arena.replay();
        let mut total = 0usize;
        for view in arena.chunks() {
            assert_eq!(view.primary.len(), view.secondary.len());
            assert_eq!(view.primary.len(), view.flags.len());
            for i in 0..view.len() {
                assert_eq!(Some(decode(view, i)), replay.next_instruction_opt());
            }
            total += view.len();
        }
        assert_eq!(total as u64, arena.len());
        assert_eq!(replay.next_instruction_opt(), None);
    }

    #[test]
    fn batched_replay_matches_record_replay_across_chunk_edges() {
        let arena = TraceArena::capture_chunked(&mut SpecBenchmark::Gcc1.workload(), 1000, 96);
        let want: Vec<_> = arena.replay().collect();
        let mut replay = arena.replay();
        let mut got = Vec::new();
        // Batch lengths that start, straddle and end on chunk edges.
        for len in [0usize, 96, 50, 200, 1, 1000] {
            let mut out = vec![InstructionRecord::fetch_only(Addr::new(0)); len];
            let n = replay.next_batch(&mut out);
            got.extend_from_slice(&out[..n]);
        }
        assert_eq!(got, want);
        assert_eq!(replay.next_instruction_opt(), None, "a short batch means the arena ended");
    }

    #[test]
    fn capture_stops_at_exhausted_source() {
        let records = SpecBenchmark::Doduc.workload().take_instructions(100);
        let mut short = ReplaySource::new("short", records.clone());
        let arena = TraceArena::capture_chunked(&mut short, 1000, 32);
        assert_eq!(arena.len(), 100);
        let replayed: Vec<_> = arena.replay().collect();
        assert_eq!(replayed, records);
    }

    #[test]
    fn empty_capture_is_well_formed() {
        let mut empty = ReplaySource::new("empty", Vec::new());
        let arena = TraceArena::capture(&mut empty, 1000);
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.replay().next_instruction_opt(), None);
    }

    #[test]
    fn bytes_reflects_packed_layout() {
        let arena = TraceArena::capture_chunked(&mut SpecBenchmark::Gcc1.workload(), 4096, 1024);
        // Exact because every chunk fills completely.
        assert_eq!(arena.bytes(), 4096 * crate::columns::BYTES_PER_RECORD);
    }

    #[test]
    fn replay_cursors_are_independent() {
        let arena = TraceArena::capture(&mut SpecBenchmark::Tomcatv.workload(), 200);
        let mut a = arena.replay();
        let first = a.next_instruction_opt();
        let mut b = arena.replay();
        assert_eq!(b.next_instruction_opt(), first, "fresh cursor starts at the beginning");
    }

    #[test]
    fn flags_round_trip_all_kinds() {
        let arena = TraceArena::capture(&mut SpecBenchmark::Gcc1.workload(), 20_000);
        let mut seen = [false; 3];
        for rec in arena.replay() {
            match rec.data.map(|d| d.kind) {
                None => seen[0] = true,
                Some(AccessKind::Load) => seen[1] = true,
                Some(AccessKind::Store) => seen[2] = true,
                Some(AccessKind::InstrFetch) => unreachable!("fetch in data slot"),
            }
        }
        assert_eq!(seen, [true; 3], "capture exercises none/load/store flags");
    }
}
