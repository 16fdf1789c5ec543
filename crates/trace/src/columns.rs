//! [`ColumnStore`]: the chunked column store behind both captured
//! streams, and [`walk_window`], the one warm-up/measure walk over it.
//!
//! A [`TraceArena`](crate::TraceArena) (instructions) and an
//! [`EventArena`](crate::EventArena) (L1 miss events) pack each record
//! into the same three columns: a primary `u64` word, a secondary `u64`
//! word that is zero unless the flag says it is present, and a flag byte
//! — [`BYTES_PER_RECORD`] bytes per record. The columns are held
//! structure-of-arrays in chunks of at most `chunk_len` records, so a
//! capture never copies a multi-gigabyte `Vec` while it grows and every
//! replay is a linear scan over packed slices. The two arenas differ only
//! in what the words and the flag mean, and each keeps its own encoding.

/// Packed bytes per record: two `u64` words and one flag byte.
pub const BYTES_PER_RECORD: usize = 2 * std::mem::size_of::<u64>() + std::mem::size_of::<u8>();

/// Records per chunk (64 Ki): large enough that per-chunk overhead
/// vanishes, small enough to be a useful parallel work granule.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// One structure-of-arrays block of records.
#[derive(Debug)]
struct Chunk {
    primary: Vec<u64>,
    secondary: Vec<u64>,
    flags: Vec<u8>,
}

impl Chunk {
    fn with_capacity(n: usize) -> Self {
        Chunk {
            primary: Vec::with_capacity(n),
            secondary: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    fn view(&self) -> ChunkView<'_> {
        ChunkView { primary: &self.primary, secondary: &self.secondary, flags: &self.flags }
    }
}

/// A borrowed, read-only view of one chunk's packed columns.
///
/// The three slices always have equal length; index `i` across them
/// describes one record.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    /// The primary word of each record (an instruction's fetch address,
    /// an event's requested line).
    pub primary: &'a [u64],
    /// The secondary word of each record (a data address, a victim
    /// line); zero where the flag marks it absent.
    pub secondary: &'a [u64],
    /// The flag byte of each record, in the owning arena's encoding.
    pub flags: &'a [u8],
}

impl ChunkView<'_> {
    /// Records in this chunk.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// Append-only records in packed `(u64, u64, u8)` columns, chunked.
///
/// Immutable once filled and safely shared across threads by reference;
/// each walk over [`ColumnStore::chunks`] is independent.
#[derive(Debug)]
pub struct ColumnStore {
    /// Every chunk but the last holds exactly `chunk_len` records.
    chunks: Vec<Chunk>,
    chunk_len: usize,
}

impl Default for ColumnStore {
    fn default() -> Self {
        ColumnStore::new(DEFAULT_CHUNK_LEN)
    }
}

impl ColumnStore {
    /// An empty store holding at most `chunk_len` records per chunk
    /// (tests pass small, odd lengths to prove replays are
    /// chunking-invariant).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn new(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        ColumnStore { chunks: Vec::new(), chunk_len }
    }

    /// Appends one record. `hint` is how many records the caller expects
    /// to push from here on: a new chunk reserves room for
    /// `min(chunk_len, hint)` records and grows by doubling past that,
    /// so a capture of known length reserves exactly what it fills and a
    /// stream of unknown length starts small.
    #[inline]
    pub fn push(&mut self, primary: u64, secondary: u64, flags: u8, hint: u64) {
        // Kept this small so it inlines into the L1 front-end's `access`,
        // which runs once per reference of every capture.
        let full = self.chunks.last().is_none_or(|c| c.flags.len() >= self.chunk_len);
        if full {
            let n = usize::try_from(hint).unwrap_or(usize::MAX).min(self.chunk_len);
            self.chunks.push(Chunk::with_capacity(n));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        chunk.primary.push(primary);
        chunk.secondary.push(secondary);
        chunk.flags.push(flags);
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.chunks
            .last()
            .map_or(0, |last| ((self.chunks.len() - 1) * self.chunk_len + last.flags.len()) as u64)
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Approximate resident size of the packed buffers (their capacity,
    /// not their length), in bytes.
    pub fn bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| {
                (c.primary.capacity() + c.secondary.capacity()) * std::mem::size_of::<u64>()
                    + c.flags.capacity()
            })
            .sum()
    }

    /// Chunk `i` as a packed column view, if it exists.
    pub fn chunk(&self, i: usize) -> Option<ChunkView<'_>> {
        self.chunks.get(i).map(Chunk::view)
    }

    /// Iterates over the chunks in order as packed column views.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = ChunkView<'_>> {
        self.chunks.iter().map(Chunk::view)
    }
}

/// The warm-up/measure protocol over a chunked stream — the one walk
/// behind every replay of a captured arena, instruction or event.
///
/// Replays records through `replay(sink, chunk, start, end)` in chunk
/// order until `warmup + measure` records have gone by (`measure =
/// u64::MAX` walks to the end), calling `reset(sink)` at the warm-up
/// boundary and splitting the chunk it falls in. A stream that ends
/// inside warm-up (or exactly at its end) measured nothing, so `reset`
/// runs again after the last chunk. Generic over the closures, so the
/// per-record loop inside `replay` is monomorphized per sink.
pub fn walk_window<'a, S: ?Sized>(
    chunks: impl IntoIterator<Item = ChunkView<'a>>,
    warmup: u64,
    measure: u64,
    sink: &mut S,
    mut replay: impl FnMut(&mut S, ChunkView<'a>, usize, usize),
    mut reset: impl FnMut(&mut S),
) {
    let total = warmup.saturating_add(measure);
    let mut pos = 0u64; // stream-global index of the next record
    for chunk in chunks {
        if pos >= total {
            break;
        }
        let take = (chunk.len() as u64).min(total - pos);
        // Records of this chunk that still belong to warm-up.
        let split = warmup.saturating_sub(pos).min(take);
        if split > 0 {
            replay(sink, chunk, 0, split as usize);
            if pos + split == warmup {
                reset(sink);
            }
        }
        if split < take {
            replay(sink, chunk, split as usize, take as usize);
        }
        pos += take;
    }
    if pos <= warmup {
        reset(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every call a walk makes: `(start, end)` per replay of the
    /// chunk whose first primary word is `chunk`, `None` per reset.
    fn trace_walk(
        chunk_len: usize,
        records: u64,
        warmup: u64,
        measure: u64,
    ) -> Vec<Option<(u64, usize, usize)>> {
        let mut store = ColumnStore::new(chunk_len);
        for i in 0..records {
            store.push(i, 0, 0, records);
        }
        let mut calls = Vec::new();
        walk_window(
            store.chunks(),
            warmup,
            measure,
            &mut calls,
            |calls, chunk, s, e| calls.push(Some((chunk.primary[0], s, e))),
            |calls| calls.push(None),
        );
        calls
    }

    #[test]
    fn walk_splits_the_chunk_the_boundary_falls_in() {
        // Chunks [0,4) [4,8) [8,10); boundary at 6, window ends at 9.
        assert_eq!(
            trace_walk(4, 10, 6, 3),
            vec![Some((0, 0, 4)), Some((4, 0, 2)), None, Some((4, 2, 4)), Some((8, 0, 1))]
        );
        // Boundary on a chunk edge: reset after the chunk, no split.
        assert_eq!(trace_walk(4, 8, 4, u64::MAX), vec![Some((0, 0, 4)), None, Some((4, 0, 4))]);
        // No warm-up: nothing is reset.
        assert_eq!(trace_walk(4, 6, 0, u64::MAX), vec![Some((0, 0, 4)), Some((4, 0, 2))]);
    }

    #[test]
    fn walk_resets_when_the_stream_ends_inside_warm_up() {
        assert_eq!(trace_walk(4, 6, 10, 5), vec![Some((0, 0, 4)), Some((4, 0, 2)), None]);
        // Ending exactly at the boundary resets there and again after.
        assert_eq!(trace_walk(4, 4, 4, 5), vec![Some((0, 0, 4)), None, None]);
        // An empty stream measured nothing either.
        assert_eq!(trace_walk(4, 0, 0, 5), vec![None]);
    }

    #[test]
    fn capacity_follows_the_hint() {
        // A known length reserves exactly what it fills.
        let mut exact = ColumnStore::new(64);
        for i in 0..100 {
            exact.push(i, i, 1, 100 - i);
        }
        assert_eq!(exact.bytes(), 100 * BYTES_PER_RECORD);
        assert_eq!(exact.chunks().map(|c| c.len()).collect::<Vec<_>>(), [64, 36]);
        // A small hint starts small and grows by doubling.
        let mut grown = ColumnStore::new(64);
        for i in 0..5 {
            grown.push(i, 0, 0, 4);
        }
        assert_eq!(grown.bytes(), 8 * BYTES_PER_RECORD);
        assert!(ColumnStore::default().is_empty());
        assert_eq!(ColumnStore::default().bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_is_rejected() {
        let _ = ColumnStore::new(0);
    }
}
