//! [`EventArena`]: an L1 miss/victim event stream, captured once per L1
//! front-end and replayed by every L2 configuration sharing that L1.
//!
//! The second level of a hierarchy never sees the full reference stream —
//! only the L1's *misses* (each carrying the requested line and the L1
//! victim it displaced). Because the paper's L1s always fill the
//! requested line on a miss regardless of what lies behind them, that
//! miss/victim stream is independent of the L2 configuration, so a sweep
//! can simulate the L1 once and fan every L2 over the much smaller event
//! stream (1–10% of the references, per Table 1's miss rates). This
//! module provides the packed buffer for that stream; the front-end that
//! produces it and the back-ends that consume it live in `tlc-cache`.
//!
//! ## Memory layout
//!
//! Events are stored structure-of-arrays in fixed-size chunks, mirroring
//! [`TraceArena`](crate::TraceArena): requested line (`u64`), victim line
//! (`u64`, zero when absent), and a one-byte flag — 17 bytes per event.
//! The flag packs the access kind (fetch/load/store) in its low two bits
//! plus "has victim" and "victim written" bits.
//!
//! ## Example
//!
//! ```
//! use tlc_trace::events::{EventArena, MissEvent, VictimLine};
//! use tlc_trace::{AccessKind, LineAddr};
//!
//! let mut events = EventArena::new();
//! events.push(MissEvent {
//!     kind: AccessKind::Load,
//!     line: LineAddr(0x40),
//!     victim: Some(VictimLine { line: LineAddr(0x140), written: true }),
//! });
//! assert_eq!(events.len(), 1);
//! let replayed: Vec<MissEvent> = events.iter().collect();
//! assert_eq!(replayed[0].victim.unwrap().line, LineAddr(0x140));
//! ```

use crate::addr::LineAddr;
use crate::record::AccessKind;

/// Flag bits 0–1: the access kind that missed (instruction fetch).
pub const EVENT_KIND_FETCH: u8 = 0;
/// Flag bits 0–1: the access kind that missed (data load).
pub const EVENT_KIND_LOAD: u8 = 1;
/// Flag bits 0–1: the access kind that missed (data store).
pub const EVENT_KIND_STORE: u8 = 2;
/// Mask selecting the access-kind bits of an event flag.
pub const EVENT_KIND_MASK: u8 = 0b0011;
/// Flag bit 2: the L1 fill displaced a valid line (the `victim` column
/// holds its address).
pub const EVENT_HAS_VICTIM: u8 = 0b0100;
/// Flag bit 3: the displaced line had been written by a store while it
/// was resident in the L1 (store-only dirty; an exclusive back-end adds
/// the filled-from-dirty-L2 component itself).
pub const EVENT_VICTIM_WRITTEN: u8 = 0b1000;

/// Packed bytes per captured event (line `u64` + victim `u64` + flag
/// `u8`); used to bound a capture's footprint.
pub const EVENT_BYTES_PER_RECORD: usize = 17;

/// Events per chunk (64 Ki), matching
/// [`DEFAULT_CHUNK_LEN`](crate::arena::DEFAULT_CHUNK_LEN).
pub const DEFAULT_EVENT_CHUNK_LEN: usize = 1 << 16;

/// Events a new chunk reserves room for before it grows.
const INITIAL_CHUNK_CAPACITY: usize = 1 << 12;

/// The L1 line displaced by a miss fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimLine {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether a store wrote it while it was resident in the L1.
    pub written: bool,
}

/// One L1 miss: the access kind that missed, the line the L1 filled, and
/// the victim that fill displaced (if the slot held a valid line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// The kind of access that missed ([`AccessKind::InstrFetch`],
    /// [`AccessKind::Load`] or [`AccessKind::Store`]).
    pub kind: AccessKind,
    /// The requested (and L1-filled) line.
    pub line: LineAddr,
    /// The displaced line, if the fill evicted one.
    pub victim: Option<VictimLine>,
}

impl MissEvent {
    /// Encodes the flag byte of this event.
    pub fn flags(&self) -> u8 {
        let mut f = match self.kind {
            AccessKind::InstrFetch => EVENT_KIND_FETCH,
            AccessKind::Load => EVENT_KIND_LOAD,
            AccessKind::Store => EVENT_KIND_STORE,
        };
        if let Some(v) = self.victim {
            f |= EVENT_HAS_VICTIM;
            if v.written {
                f |= EVENT_VICTIM_WRITTEN;
            }
        }
        f
    }
}

/// One structure-of-arrays block of captured events.
#[derive(Debug, Default)]
struct EventChunk {
    line: Vec<u64>,
    victim: Vec<u64>,
    flags: Vec<u8>,
}

impl EventChunk {
    fn with_capacity(n: usize) -> Self {
        EventChunk {
            line: Vec::with_capacity(n),
            victim: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    fn len(&self) -> usize {
        self.line.len()
    }
}

/// A borrowed, read-only view of one event chunk's packed columns.
///
/// The three slices always have equal length; index `i` across them
/// describes one event. `victim[i]` is meaningful only when `flags[i]`
/// has [`EVENT_HAS_VICTIM`] set (it is zero otherwise).
#[derive(Debug, Clone, Copy)]
pub struct EventChunkView<'a> {
    /// Requested (L1-filled) line addresses.
    pub line: &'a [u64],
    /// Victim line addresses (zero where no victim was displaced).
    pub victim: &'a [u64],
    /// Per-event flag bytes (kind bits plus victim bits).
    pub flags: &'a [u8],
}

impl EventChunkView<'_> {
    /// Events in this chunk.
    pub fn len(&self) -> usize {
        self.line.len()
    }

    /// Whether the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// Decodes one event (for tests and generic consumers; the back-end
    /// fast paths read the columns directly).
    pub fn record(&self, i: usize) -> MissEvent {
        let f = self.flags[i];
        let kind = match f & EVENT_KIND_MASK {
            EVENT_KIND_FETCH => AccessKind::InstrFetch,
            EVENT_KIND_LOAD => AccessKind::Load,
            EVENT_KIND_STORE => AccessKind::Store,
            other => unreachable!("corrupt event kind {other}"),
        };
        let victim = (f & EVENT_HAS_VICTIM != 0).then(|| VictimLine {
            line: LineAddr(self.victim[i]),
            written: f & EVENT_VICTIM_WRITTEN != 0,
        });
        MissEvent { kind, line: LineAddr(self.line[i]), victim }
    }
}

/// An L1 front-end's miss/victim event stream, captured once into packed
/// structure-of-arrays chunks and replayed by every L2 back-end sharing
/// that front-end.
///
/// Arenas are immutable after capture and safely shared across threads by
/// reference; each replay is an independent walk over [`EventArena::chunks`].
#[derive(Debug, Default)]
pub struct EventArena {
    chunks: Vec<EventChunk>,
    chunk_len: usize,
    len: u64,
}

impl EventArena {
    /// An empty arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_len(DEFAULT_EVENT_CHUNK_LEN)
    }

    /// An empty arena with an explicit chunk size (exposed so tests can
    /// prove replays are chunking-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        EventArena { chunks: Vec::new(), chunk_len, len: 0 }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, ev: MissEvent) {
        let need_new = match self.chunks.last() {
            Some(c) => c.len() >= self.chunk_len,
            None => true,
        };
        if need_new {
            // A chunk starts small and grows by doubling: most streams
            // (one per L1 group, a group of one included) fill a fraction
            // of one chunk, and reserving all of it for each would hold
            // memory the allocator cannot hand back between sweeps.
            self.chunks.push(EventChunk::with_capacity(self.chunk_len.min(INITIAL_CHUNK_CAPACITY)));
        }
        let chunk = self.chunks.last_mut().expect("chunk just ensured");
        chunk.line.push(ev.line.0);
        chunk.victim.push(ev.victim.map_or(0, |v| v.line.0));
        chunk.flags.push(ev.flags());
        self.len += 1;
    }

    /// Events captured.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the arena holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate resident size of the packed buffers, in bytes.
    pub fn bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                c.line.capacity() * std::mem::size_of::<u64>()
                    + c.victim.capacity() * std::mem::size_of::<u64>()
                    + c.flags.capacity()
            })
            .sum()
    }

    /// Iterates over the arena's chunks as packed column views.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = EventChunkView<'_>> {
        self.chunks.iter().map(|c| EventChunkView {
            line: &c.line,
            victim: &c.victim,
            flags: &c.flags,
        })
    }

    /// Iterates over all events in capture order (decoded; tests and
    /// generic consumers — back-ends walk [`EventArena::chunks`] instead).
    pub fn iter(&self) -> impl Iterator<Item = MissEvent> + '_ {
        self.chunks().flat_map(|view| (0..view.len()).map(move |i| view.record(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: AccessKind, line: u64, victim: Option<(u64, bool)>) -> MissEvent {
        MissEvent {
            kind,
            line: LineAddr(line),
            victim: victim.map(|(l, w)| VictimLine { line: LineAddr(l), written: w }),
        }
    }

    #[test]
    fn round_trips_all_kinds_and_victim_states() {
        let cases = [
            ev(AccessKind::InstrFetch, 0x10, None),
            ev(AccessKind::Load, 0x20, Some((0x120, false))),
            ev(AccessKind::Store, 0x30, Some((0x130, true))),
            ev(AccessKind::InstrFetch, 0, Some((0, true))),
        ];
        let mut arena = EventArena::new();
        for &e in &cases {
            arena.push(e);
        }
        assert_eq!(arena.len(), cases.len() as u64);
        let got: Vec<MissEvent> = arena.iter().collect();
        assert_eq!(got, cases);
    }

    #[test]
    fn chunking_preserves_order_and_len() {
        let mut arena = EventArena::with_chunk_len(3);
        let events: Vec<MissEvent> = (0..10)
            .map(|i| {
                ev(AccessKind::Load, i, if i % 2 == 0 { Some((i + 100, i % 4 == 0)) } else { None })
            })
            .collect();
        for &e in &events {
            arena.push(e);
        }
        assert_eq!(arena.chunks().len(), 4, "10 events / 3 per chunk");
        let got: Vec<MissEvent> = arena.iter().collect();
        assert_eq!(got, events);
        // Chunk views cover exactly the stream.
        let total: usize = arena.chunks().map(|c| c.len()).sum();
        assert_eq!(total as u64, arena.len());
    }

    #[test]
    fn flags_pack_kind_and_victim_bits() {
        let e = ev(AccessKind::Store, 1, Some((2, true)));
        assert_eq!(e.flags(), EVENT_KIND_STORE | EVENT_HAS_VICTIM | EVENT_VICTIM_WRITTEN);
        let e = ev(AccessKind::InstrFetch, 1, None);
        assert_eq!(e.flags(), EVENT_KIND_FETCH);
    }

    #[test]
    fn bytes_reflects_packed_layout() {
        let mut arena = EventArena::with_chunk_len(64);
        for i in 0..64 {
            arena.push(ev(AccessKind::Load, i, None));
        }
        // One full chunk: 17 bytes per event, exact.
        assert_eq!(arena.bytes(), 64 * EVENT_BYTES_PER_RECORD);
    }

    #[test]
    fn empty_arena_is_well_formed() {
        let arena = EventArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.bytes(), 0);
        assert_eq!(arena.iter().count(), 0);
    }
}
