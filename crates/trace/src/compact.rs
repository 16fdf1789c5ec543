//! The `TLCTRC01` compact on-disk instruction-trace format.
//!
//! This is the one trace format the library writes and reads back: a
//! versioned header followed by delta/varint-encoded instruction
//! records, typically 3–5 bytes per instruction against 9–17 for the
//! flat formats in [`crate::io`]. The module provides:
//!
//! * [`CompactTraceWriter`] / [`write_compact_trace`] — encoding;
//! * [`TraceReader`] — a streaming block decoder that implements
//!   [`InstructionSource`], so a trace file can feed
//!   [`TraceArena::capture`](crate::TraceArena::capture)
//!   chunk-by-chunk under a bounded memory budget without ever holding
//!   the decoded stream in memory ([`read_compact_trace`] collects a
//!   small file whole);
//! * [`import_to_compact`] — the one way in for every other format
//!   ([`ImportFormat`]: flat `TLCREF01`/text reference streams,
//!   `TLCITR01`, plain address lists), streamed into `TLCTRC01`. It is
//!   what `tlc trace import` runs.
//!
//! ## Encoding
//!
//! Header: the 8-byte magic [`COMPACT_MAGIC`] then a single version byte
//! ([`COMPACT_VERSION`]). Per record:
//!
//! * one control byte — `bit0` = instruction carries a data reference,
//!   `bit1` = that data reference is a store (only valid with `bit0`);
//!   all other bits are reserved and must be zero;
//! * the fetch address as a zigzag-varint delta against the previous
//!   record's fetch address (first record deltas against 0);
//! * when `bit0` is set, the data address as a zigzag-varint delta
//!   against the previous data address (first data ref deltas against 0).
//!
//! A record is therefore 2 to 21 bytes. The stream is EOF-delimited: a
//! clean end is only legal at a record boundary; anything else is a typed
//! [`TraceIoError::Truncated`](crate::io::TraceIoError) with the byte
//! offset where the record began.
//!
//! ## Decoding
//!
//! [`TraceReader`] owns a 64 KiB block buffer that it refills with
//! [`Read::read`] (retrying `Interrupted`). While at least one
//! worst-case record (21 bytes) is buffered, a record decodes straight
//! from the slice: no call and no end-of-input check per byte. Below
//! that, the buffer is topped up first, and once the input is drained
//! the last bytes go through the same decoder checked against the end
//! of the buffer. Every outcome is the one a byte-at-a-time reader
//! gives: the invalid-control-byte and varint-overflow `Corrupt` errors,
//! `Truncated` at the cut record's offset, a clean end only at a record
//! boundary, and exact [`TraceReader::byte_offset`] and
//! [`TraceReader::decoded`] afterwards. A failed read is held back
//! until the first record that needs the bytes it did not deliver; the
//! records buffered before it still decode.
//!
//! Streaming consumers pull records with
//! [`InstructionSource::next_batch`], which decodes a whole batch in one
//! inlined loop. A batch shorter than asked means the stream ended —
//! cleanly, or at a decode error the reader parks for
//! [`TraceReader::take_error`].

use crate::addr::Addr;
use crate::io::{self, RefDecoder, RefFormat, TraceIoError};
use crate::record::{AccessKind, MemRef};
use crate::source::InstructionSource;
use crate::InstructionRecord;
use std::io::{BufRead, Read, Write};

/// Magic bytes identifying a compact instruction trace.
pub const COMPACT_MAGIC: &[u8; 8] = b"TLCTRC01";

/// Newest compact-format version this build reads and writes.
pub const COMPACT_VERSION: u8 = 1;

/// Control-byte bit: the instruction carries a data reference.
const CTRL_HAS_DATA: u8 = 1;
/// Control-byte bit: the data reference is a store.
const CTRL_STORE: u8 = 2;

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint to `buf`, returning the bytes used.
fn push_uvarint(buf: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            return n + 1;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
}

/// Writes [`InstructionRecord`]s in the compact `TLCTRC01` format.
///
/// The header is written on construction; call
/// [`CompactTraceWriter::write`] per record.
///
/// # Examples
///
/// ```
/// use tlc_trace::compact::{read_compact_trace, CompactTraceWriter};
/// use tlc_trace::{Addr, InstructionRecord, MemRef};
///
/// # fn main() -> std::io::Result<()> {
/// let recs = vec![
///     InstructionRecord::fetch_only(Addr::new(0x100)),
///     InstructionRecord::with_data(Addr::new(0x104), MemRef::load(Addr::new(0x2000))),
/// ];
/// let mut buf = Vec::new();
/// let mut w = CompactTraceWriter::new(&mut buf)?;
/// for r in &recs {
///     w.write(r)?;
/// }
/// drop(w);
/// assert_eq!(read_compact_trace(&buf[..])?, recs);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompactTraceWriter<W: Write> {
    out: W,
    prev_fetch: u64,
    prev_data: u64,
    written: u64,
}

impl<W: Write> CompactTraceWriter<W> {
    /// Creates the writer and emits the magic + version header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W) -> std::io::Result<Self> {
        out.write_all(COMPACT_MAGIC)?;
        out.write_all(&[COMPACT_VERSION])?;
        Ok(CompactTraceWriter { out, prev_fetch: 0, prev_data: 0, written: 0 })
    }

    /// Appends one instruction record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&mut self, r: &InstructionRecord) -> std::io::Result<()> {
        // Worst case: control byte + two 10-byte varints.
        let mut buf = [0u8; 21];
        let mut n = 1;
        buf[0] = match r.data {
            None => 0,
            Some(d) => CTRL_HAS_DATA | if d.kind == AccessKind::Store { CTRL_STORE } else { 0 },
        };
        let fetch = r.fetch.raw();
        n += push_uvarint(&mut buf[n..], zigzag(fetch.wrapping_sub(self.prev_fetch) as i64));
        self.prev_fetch = fetch;
        if let Some(d) = r.data {
            let addr = d.addr.raw();
            n += push_uvarint(&mut buf[n..], zigzag(addr.wrapping_sub(self.prev_data) as i64));
            self.prev_data = addr;
        }
        self.out.write_all(&buf[..n])?;
        self.written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a whole slice of records as a compact trace.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_compact_trace<W: Write>(out: W, records: &[InstructionRecord]) -> std::io::Result<()> {
    let mut w = CompactTraceWriter::new(out)?;
    for r in records {
        w.write(r)?;
    }
    w.into_inner().map(|_| ())
}

/// Byte offset of the first record: the magic plus the version byte.
const HEADER_BYTES: u64 = 9;

/// Longest legal record: the control byte and two 10-byte varints.
const MAX_RECORD_BYTES: usize = 21;

/// Size of [`TraceReader`]'s block buffer.
const BLOCK_BYTES: usize = 64 * 1024;

/// Why a record could not be decoded from the bytes at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// A reserved control bit, or the store bit without the data bit.
    Control(u8),
    /// A varint whose tenth byte carries bits beyond u64.
    Overflow,
    /// The bytes ran out before the record did.
    Short,
}

/// One record decoded from the front of a byte slice.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    rec: InstructionRecord,
    len: usize,
    prev_fetch: u64,
    prev_data: u64,
}

/// Reads one LEB128 varint from `bytes` at `*at`, advancing `*at` past
/// every byte it looked at (the faulting byte included). The tenth byte
/// either ends the varint or overflows u64, so no varint is longer.
#[inline(always)]
fn take_uvarint(bytes: &[u8], at: &mut usize) -> Result<u64, Fault> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*at) else { return Err(Fault::Short) };
        *at += 1;
        if shift == 63 && byte > 1 {
            return Err(Fault::Overflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes the record at the front of `bytes` against the previous
/// fetch and data addresses. On a fault, also returns how many bytes
/// were consumed, exactly as a byte-at-a-time reader would have.
#[inline(always)]
fn decode_record(bytes: &[u8], prev_fetch: u64, prev_data: u64) -> Result<Decoded, (Fault, usize)> {
    let Some(&ctrl) = bytes.first() else { return Err((Fault::Short, 0)) };
    if ctrl & !(CTRL_HAS_DATA | CTRL_STORE) != 0 || ctrl == CTRL_STORE {
        return Err((Fault::Control(ctrl), 1));
    }
    let mut at = 1;
    let delta = unzigzag(take_uvarint(bytes, &mut at).map_err(|f| (f, at))?);
    let prev_fetch = prev_fetch.wrapping_add(delta as u64);
    let (data, prev_data) = if ctrl & CTRL_HAS_DATA != 0 {
        let delta = unzigzag(take_uvarint(bytes, &mut at).map_err(|f| (f, at))?);
        let prev_data = prev_data.wrapping_add(delta as u64);
        let addr = Addr::new(prev_data);
        let data = if ctrl & CTRL_STORE != 0 { MemRef::store(addr) } else { MemRef::load(addr) };
        (Some(data), prev_data)
    } else {
        (None, prev_data)
    };
    let rec = InstructionRecord { fetch: Addr::new(prev_fetch), data };
    Ok(Decoded { rec, len: at, prev_fetch, prev_data })
}

/// Streaming decoder for the compact `TLCTRC01` format.
///
/// Decodes out of a 64 KiB block buffer, so a multi-gigabyte trace never
/// has to exist in memory: hand the reader to
/// [`TraceArena::capture_chunked`](crate::TraceArena::capture_chunked)
/// (which packs it 17 bytes/record, chunk-by-chunk), pull records in
/// batches with [`InstructionSource::next_batch`], or walk it one record
/// at a time with [`TraceReader::try_next`].
///
/// The buffer refills with [`Read::read`] (retrying `Interrupted`)
/// whenever fewer than 21 bytes — one worst-case record — remain, so
/// records decode straight from the slice without a call per byte. A
/// failed read is held back until a record actually needs the bytes it
/// did not deliver: every record wholly buffered before it still
/// decodes.
///
/// As an [`InstructionSource`] the reader cannot surface decode errors
/// through `next_instruction_opt` or `next_batch`; a corrupt or
/// truncated tail instead ends the stream and parks the error, which
/// callers **must** check via [`TraceReader::error`] (or
/// [`TraceReader::take_error`]) after capture.
pub struct TraceReader<R: Read> {
    input: R,
    name: String,
    buf: Box<[u8]>,
    /// Next unread byte of `buf`.
    pos: usize,
    /// End of the bytes read into `buf`.
    end: usize,
    /// The input will deliver nothing more (end of file or failed read).
    drained: bool,
    /// A failed read, surfaced at the first record that needs its bytes.
    read_error: Option<std::io::Error>,
    offset: u64,
    prev_fetch: u64,
    prev_data: u64,
    decoded: u64,
    /// Records and payload bytes already added to the obs counters.
    counted: (u64, u64),
    error: Option<TraceIoError>,
    done: bool,
}

impl<R: Read> std::fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceReader")
            .field("name", &self.name)
            .field("offset", &self.offset)
            .field("decoded", &self.decoded)
            .field("buffered", &(self.end - self.pos))
            .field("error", &self.error)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<R: Read> TraceReader<R> {
    /// Opens a compact trace stream, validating the magic and version.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] on a short or mismatched header or an
    /// unknown version byte.
    pub fn new(mut input: R, name: impl Into<String>) -> Result<Self, TraceIoError> {
        io::expect_magic(&mut input, COMPACT_MAGIC)?;
        let mut version = [0u8; 1];
        io::read_full(&mut input, &mut version, 8, || {
            "stream ended before the version byte".into()
        })?;
        if version[0] != COMPACT_VERSION {
            return Err(TraceIoError::UnknownVersion {
                found: version[0],
                supported: COMPACT_VERSION,
            });
        }
        Ok(TraceReader {
            input,
            name: name.into(),
            buf: vec![0u8; BLOCK_BYTES].into_boxed_slice(),
            pos: 0,
            end: 0,
            drained: false,
            read_error: None,
            offset: HEADER_BYTES,
            prev_fetch: 0,
            prev_data: 0,
            decoded: 0,
            counted: (0, 0),
            error: None,
            done: false,
        })
    }

    /// Records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Byte offset of the next unread byte.
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }

    /// The decode error the source-driven interface swallowed, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Takes ownership of the parked decode error, if any.
    pub fn take_error(&mut self) -> Option<TraceIoError> {
        self.error.take()
    }

    /// Moves the unread bytes to the front of the buffer and reads until
    /// a worst-case record is buffered or the input is drained.
    fn refill(&mut self) {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < MAX_RECORD_BYTES && !self.drained {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => self.drained = true,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // `read_exact` reports an inner UnexpectedEof as the end
                // of the stream; so does this reader.
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => self.drained = true,
                Err(e) => {
                    self.read_error = Some(e);
                    self.drained = true;
                }
            }
        }
    }

    /// Adds the records and payload bytes decoded since the last flush to
    /// the `trace.records_decoded` / `trace.bytes_decoded` counters; a
    /// consumer that stops before the end calls it to count what it read.
    pub fn flush_counters(&mut self) {
        let (records, bytes) = (self.decoded, self.offset - HEADER_BYTES);
        tlc_obs::obs_count!(tlc_obs::Counter::TraceRecordsDecoded, records - self.counted.0);
        tlc_obs::obs_count!(tlc_obs::Counter::TraceBytesDecoded, bytes - self.counted.1);
        self.counted = (records, bytes);
    }

    /// Decodes the next record, `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] on corrupt or truncated input; the same
    /// error is also parked for [`TraceReader::error`], and the stream
    /// yields nothing further.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
        match self.decode_buffered() {
            Some(rec) => Ok(Some(rec)),
            None => self.try_next_checked(),
        }
    }

    /// The fast path: the next record when a worst-case record is
    /// buffered and decodes cleanly, `None` otherwise (refill, tail,
    /// fault or end — all left to [`TraceReader::try_next_checked`]).
    #[inline(always)]
    fn decode_buffered(&mut self) -> Option<InstructionRecord> {
        if self.done || self.end - self.pos < MAX_RECORD_BYTES {
            return None;
        }
        let bytes = &self.buf[self.pos..self.pos + MAX_RECORD_BYTES];
        let d = decode_record(bytes, self.prev_fetch, self.prev_data).ok()?;
        Some(self.accept(d))
    }

    #[inline(always)]
    fn accept(&mut self, d: Decoded) -> InstructionRecord {
        self.pos += d.len;
        self.offset += d.len as u64;
        self.prev_fetch = d.prev_fetch;
        self.prev_data = d.prev_data;
        self.decoded += 1;
        d.rec
    }

    /// [`TraceReader::try_next`] through the checked path: refills the
    /// buffer, decodes the tail, turns faults into parked errors.
    #[inline(never)]
    fn try_next_checked(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
        if self.done {
            return Ok(None);
        }
        let result = self.decode_next();
        if !matches!(result, Ok(Some(_))) {
            self.done = true;
            self.flush_counters();
        }
        if let Err(e) = &result {
            self.error = Some(match e {
                TraceIoError::Io(inner) => {
                    TraceIoError::Io(std::io::Error::new(inner.kind(), inner.to_string()))
                }
                TraceIoError::BadMagic { found, expected } => {
                    TraceIoError::BadMagic { found: *found, expected }
                }
                TraceIoError::UnknownVersion { found, supported } => {
                    TraceIoError::UnknownVersion { found: *found, supported: *supported }
                }
                TraceIoError::Corrupt { offset, detail } => {
                    TraceIoError::Corrupt { offset: *offset, detail: detail.clone() }
                }
                TraceIoError::Truncated { offset, detail } => {
                    TraceIoError::Truncated { offset: *offset, detail: detail.clone() }
                }
            });
        }
        result
    }

    /// One record: refills when a worst-case record may not be buffered,
    /// then decodes from the buffer. Short bytes only reach the decoder
    /// once the input is drained, so they end the stream.
    fn decode_next(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
        if self.end - self.pos < MAX_RECORD_BYTES && !self.drained {
            self.refill();
        }
        let record_offset = self.offset;
        match decode_record(&self.buf[self.pos..self.end], self.prev_fetch, self.prev_data) {
            Ok(d) => Ok(Some(self.accept(d))),
            Err((fault, len)) => {
                self.pos += len;
                self.offset += len as u64;
                let record = self.decoded;
                Err(match fault {
                    Fault::Control(ctrl) => TraceIoError::Corrupt {
                        offset: record_offset,
                        detail: format!("invalid control byte {ctrl:#04x} in record {record}"),
                    },
                    Fault::Overflow => TraceIoError::Corrupt {
                        offset: record_offset,
                        detail: format!("varint overflows u64 in record {record}"),
                    },
                    Fault::Short => match self.read_error.take() {
                        Some(e) => TraceIoError::Io(e),
                        None if len == 0 => return Ok(None),
                        None => TraceIoError::Truncated {
                            offset: record_offset,
                            detail: format!("record {record} cut short inside a varint"),
                        },
                    },
                })
            }
        }
    }
}

impl<R: Read + Send> InstructionSource for TraceReader<R> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        self.try_next().ok().flatten()
    }

    /// Decodes straight out of the block buffer while a worst-case record
    /// is buffered; refills, the tail and every fault take the checked
    /// path, which parks the error (as [`TraceReader::try_next`] does)
    /// and ends the batch. Each full batch also flushes the decode
    /// counters, so a consumer that stops before the end is counted.
    fn next_batch(&mut self, out: &mut [InstructionRecord]) -> usize {
        for (n, slot) in out.iter_mut().enumerate() {
            match self.decode_buffered() {
                Some(rec) => *slot = rec,
                None => match self.try_next_checked() {
                    Ok(Some(rec)) => *slot = rec,
                    _ => return n,
                },
            }
        }
        self.flush_counters();
        out.len()
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

/// Reads an entire compact trace into memory.
///
/// Convenience for tests and small files; large traces should stream
/// through [`TraceReader`] instead.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on any header or record violation.
pub fn read_compact_trace<R: Read>(input: R) -> Result<Vec<InstructionRecord>, TraceIoError> {
    let mut reader = TraceReader::new(input, "compact")?;
    let mut records = Vec::new();
    while let Some(rec) = reader.try_next()? {
        records.push(rec);
    }
    Ok(records)
}

/// External formats [`import_to_compact`] can ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportFormat {
    /// A compact `TLCTRC01` trace (re-encoded, e.g. to apply a limit).
    Compact,
    /// A flat `TLCITR01` instruction trace.
    Instr,
    /// A flat `TLCREF01` binary reference stream.
    Refs,
    /// The `K 0xADDR` text trace format.
    Text,
    /// A plain text address list: one `[R|W] ADDR` per line, address in
    /// `0x` hex or decimal, the tag defaulting to a read.
    AddrText,
    /// A raw binary address list: little-endian u64 addresses, all
    /// treated as reads.
    AddrBinary,
}

impl ImportFormat {
    /// Parses a user-facing format name.
    pub fn parse(s: &str) -> Option<ImportFormat> {
        match s {
            "compact" | "trc" => Some(ImportFormat::Compact),
            "instr" | "itr" => Some(ImportFormat::Instr),
            "refs" | "ref" => Some(ImportFormat::Refs),
            "text" => Some(ImportFormat::Text),
            "addr-text" | "addrs" => Some(ImportFormat::AddrText),
            "addr-bin" => Some(ImportFormat::AddrBinary),
            _ => None,
        }
    }

    /// The user-facing name [`ImportFormat::parse`] accepts.
    pub fn name(self) -> &'static str {
        match self {
            ImportFormat::Compact => "compact",
            ImportFormat::Instr => "instr",
            ImportFormat::Refs => "refs",
            ImportFormat::Text => "text",
            ImportFormat::AddrText => "addr-text",
            ImportFormat::AddrBinary => "addr-bin",
        }
    }

    /// Guesses the format from the first bytes of a stream.
    ///
    /// Magic-bearing formats are recognised exactly; otherwise mostly
    /// printable content is treated as text (`K 0xADDR` lines when the
    /// first payload line starts with a kind code, a plain address list
    /// otherwise) and anything else as a raw binary address list.
    pub fn detect(prefix: &[u8]) -> ImportFormat {
        if prefix.starts_with(COMPACT_MAGIC) {
            return ImportFormat::Compact;
        }
        if prefix.starts_with(io::INSTR_MAGIC) {
            return ImportFormat::Instr;
        }
        if prefix.starts_with(io::BINARY_MAGIC) {
            return ImportFormat::Refs;
        }
        let printable = prefix
            .iter()
            .all(|&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7f).contains(&b));
        if !prefix.is_empty() && printable {
            let text = String::from_utf8_lossy(prefix);
            for line in text.lines() {
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                let mut chars = t.chars();
                let first = chars.next().unwrap_or(' ');
                if matches!(first, 'I' | 'L' | 'S') && chars.next() == Some(' ') {
                    return ImportFormat::Text;
                }
                return ImportFormat::AddrText;
            }
            return ImportFormat::AddrText;
        }
        ImportFormat::AddrBinary
    }
}

/// Base of the synthetic fetch loop used for data-only address lists:
/// sixteen 4-byte PCs inside one 64-byte line, so the synthesised
/// instruction stream is trivially cacheable and the data stream
/// dominates, as it should for a data-address trace.
const SYNTHETIC_FETCH_BASE: u64 = 0x1000;

fn synthetic_fetch(n: u64) -> Addr {
    Addr::new(SYNTHETIC_FETCH_BASE + (n % 16) * 4)
}

/// Folds a flat `I`/`L`/`S` reference stream into instruction records:
/// a fetch opens a record, the next data reference completes it, and a
/// data reference with no open record gets a synthetic fetch.
#[derive(Debug, Default)]
struct RefFolder {
    pending: Option<InstructionRecord>,
    emitted: u64,
}

impl RefFolder {
    fn push(&mut self, r: MemRef) -> Option<InstructionRecord> {
        match r.kind {
            AccessKind::InstrFetch => {
                let done = self.pending.take();
                self.pending = Some(InstructionRecord::fetch_only(r.addr));
                if done.is_some() {
                    self.emitted += 1;
                }
                done
            }
            AccessKind::Load | AccessKind::Store => {
                let rec = match self.pending.take() {
                    Some(open) => InstructionRecord { fetch: open.fetch, data: Some(r) },
                    None => {
                        InstructionRecord { fetch: synthetic_fetch(self.emitted), data: Some(r) }
                    }
                };
                self.emitted += 1;
                Some(rec)
            }
        }
    }

    fn finish(&mut self) -> Option<InstructionRecord> {
        let done = self.pending.take();
        if done.is_some() {
            self.emitted += 1;
        }
        done
    }
}

/// Decodes `input` as the flat reference `format`, folds it into
/// instruction records and writes them until `writer` holds `limit`
/// records or the stream ends (a record still open at the end is written
/// too); the first decode error stops the import.
fn fold_refs<R: BufRead, W: Write>(
    input: R,
    format: RefFormat,
    writer: &mut CompactTraceWriter<W>,
    limit: u64,
) -> Result<(), TraceIoError> {
    let mut refs = RefDecoder::new(input, format)?;
    let mut folder = RefFolder::default();
    while writer.written() < limit {
        let Some(r) = refs.next_ref()? else {
            if let Some(rec) = folder.finish() {
                writer.write(&rec)?;
            }
            break;
        };
        if let Some(rec) = folder.push(r) {
            writer.write(&rec)?;
        }
    }
    Ok(())
}

/// Streams an external trace into the compact `TLCTRC01` format.
///
/// Converts record-at-a-time, so input and output sizes are unbounded by
/// memory. `limit` caps the number of instruction records written; no
/// input past the record that reaches it is read. Returns the number of
/// records written.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on malformed input and propagates I/O
/// errors from either side.
pub fn import_to_compact<R: BufRead, W: Write>(
    format: ImportFormat,
    input: R,
    out: W,
    limit: Option<u64>,
) -> Result<u64, TraceIoError> {
    let limit = limit.unwrap_or(u64::MAX);
    let mut writer = CompactTraceWriter::new(out)?;
    match format {
        ImportFormat::Compact => {
            let mut reader = TraceReader::new(input, "import")?;
            while writer.written() < limit {
                match reader.try_next()? {
                    Some(rec) => writer.write(&rec)?,
                    None => break,
                }
            }
        }
        ImportFormat::Instr => {
            let mut records = io::InstrDecoder::new(input)?;
            while writer.written() < limit {
                match records.next_record()? {
                    Some(rec) => writer.write(&rec)?,
                    None => break,
                }
            }
        }
        ImportFormat::Refs => fold_refs(input, RefFormat::Binary, &mut writer, limit)?,
        ImportFormat::Text => fold_refs(input, RefFormat::Text, &mut writer, limit)?,
        ImportFormat::AddrText => fold_refs(input, RefFormat::AddrList, &mut writer, limit)?,
        ImportFormat::AddrBinary => fold_refs(input, RefFormat::AddrWords, &mut writer, limit)?,
    }
    let written = writer.written();
    writer.into_inner()?;
    Ok(written)
}

/// The byte-at-a-time decoder [`TraceReader`] replaced, kept as the
/// reference its block decoder is tested against: one `read_exact` per
/// byte, so every outcome (record, error, offset) is the format's
/// definition, not an artefact of buffering.
#[cfg(test)]
mod reference {
    use super::*;

    /// Decodes a record body (the stream after its 9-byte header).
    pub(super) struct ByteReader<R: Read> {
        input: R,
        pub(super) offset: u64,
        prev_fetch: u64,
        prev_data: u64,
        pub(super) decoded: u64,
    }

    impl<R: Read> ByteReader<R> {
        pub(super) fn new(input: R) -> Self {
            ByteReader { input, offset: HEADER_BYTES, prev_fetch: 0, prev_data: 0, decoded: 0 }
        }

        fn read_uvarint(&mut self, record_offset: u64) -> Result<u64, TraceIoError> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let mut byte = [0u8; 1];
                io::read_full(&mut self.input, &mut byte, record_offset, || {
                    format!("record {} cut short inside a varint", self.decoded)
                })?;
                self.offset += 1;
                let byte = byte[0];
                if shift == 63 && byte > 1 {
                    return Err(TraceIoError::Corrupt {
                        offset: record_offset,
                        detail: format!("varint overflows u64 in record {}", self.decoded),
                    });
                }
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift > 63 {
                    return Err(TraceIoError::Corrupt {
                        offset: record_offset,
                        detail: format!("varint longer than 10 bytes in record {}", self.decoded),
                    });
                }
            }
        }

        pub(super) fn decode_next(&mut self) -> Result<Option<InstructionRecord>, TraceIoError> {
            let record_offset = self.offset;
            let mut ctrl = [0u8; 1];
            match self.input.read_exact(&mut ctrl) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(TraceIoError::Io(e)),
            }
            self.offset += 1;
            let ctrl = ctrl[0];
            if ctrl & !(CTRL_HAS_DATA | CTRL_STORE) != 0 || ctrl == CTRL_STORE {
                return Err(TraceIoError::Corrupt {
                    offset: record_offset,
                    detail: format!("invalid control byte {ctrl:#04x} in record {}", self.decoded),
                });
            }
            let delta = unzigzag(self.read_uvarint(record_offset)?);
            self.prev_fetch = self.prev_fetch.wrapping_add(delta as u64);
            let data = if ctrl & CTRL_HAS_DATA != 0 {
                let delta = unzigzag(self.read_uvarint(record_offset)?);
                self.prev_data = self.prev_data.wrapping_add(delta as u64);
                let addr = Addr::new(self.prev_data);
                Some(if ctrl & CTRL_STORE != 0 { MemRef::store(addr) } else { MemRef::load(addr) })
            } else {
                None
            };
            self.decoded += 1;
            Ok(Some(InstructionRecord { fetch: Addr::new(self.prev_fetch), data }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<InstructionRecord> {
        vec![
            InstructionRecord::fetch_only(Addr::new(0x4000)),
            InstructionRecord::with_data(Addr::new(0x4004), MemRef::load(Addr::new(0x1_0000))),
            InstructionRecord::with_data(
                Addr::new(0x4008),
                MemRef::store(Addr::new(0xFFFF_FFFF_FFFF_FFF0)),
            ),
            InstructionRecord::with_data(Addr::new(0x3FF0), MemRef::load(Addr::new(0x0))),
        ]
    }

    #[test]
    fn compact_roundtrip() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        assert_eq!(read_compact_trace(&buf[..]).unwrap(), sample_records());
        // Sequential records are a few bytes each, not 9–17.
        assert!(buf.len() < 9 + sample_records().len() * 15, "compact too big: {}", buf.len());
    }

    #[test]
    fn compact_rejects_bad_header() {
        match read_compact_trace(&b"WRONGMAG\x01"[..]).unwrap_err() {
            TraceIoError::BadMagic { expected, .. } => assert_eq!(expected, COMPACT_MAGIC),
            other => panic!("expected BadMagic, got {other}"),
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(COMPACT_MAGIC);
        buf.push(9);
        match read_compact_trace(&buf[..]).unwrap_err() {
            TraceIoError::UnknownVersion { found: 9, supported } => {
                assert_eq!(supported, COMPACT_VERSION)
            }
            other => panic!("expected UnknownVersion, got {other}"),
        }
        match read_compact_trace(&COMPACT_MAGIC[..]).unwrap_err() {
            TraceIoError::Truncated { offset: 8, .. } => {}
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn compact_rejects_truncated_and_corrupt_records() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 1);
        assert!(matches!(
            read_compact_trace(&cut[..]).unwrap_err(),
            TraceIoError::Truncated { .. }
        ));

        let mut bad_ctrl = Vec::new();
        bad_ctrl.extend_from_slice(COMPACT_MAGIC);
        bad_ctrl.push(COMPACT_VERSION);
        bad_ctrl.push(0b100); // reserved control bit
        assert!(matches!(
            read_compact_trace(&bad_ctrl[..]).unwrap_err(),
            TraceIoError::Corrupt { offset: 9, .. }
        ));

        // A store bit without the data bit is meaningless.
        let mut store_only = Vec::new();
        store_only.extend_from_slice(COMPACT_MAGIC);
        store_only.push(COMPACT_VERSION);
        store_only.push(CTRL_STORE);
        store_only.push(0);
        assert!(matches!(
            read_compact_trace(&store_only[..]).unwrap_err(),
            TraceIoError::Corrupt { .. }
        ));

        // An 11-byte varint can never encode a u64.
        let mut long_varint = Vec::new();
        long_varint.extend_from_slice(COMPACT_MAGIC);
        long_varint.push(COMPACT_VERSION);
        long_varint.push(0);
        long_varint.extend_from_slice(&[0x80; 10]);
        long_varint.push(0);
        assert!(matches!(
            read_compact_trace(&long_varint[..]).unwrap_err(),
            TraceIoError::Corrupt { .. }
        ));
    }

    #[test]
    fn reader_parks_error_for_source_interface() {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &sample_records()).unwrap();
        buf.truncate(buf.len() - 1);
        let mut reader = TraceReader::new(&buf[..], "cut").unwrap();
        let mut seen = 0;
        while reader.next_instruction_opt().is_some() {
            seen += 1;
        }
        assert_eq!(seen, sample_records().len() - 1);
        assert!(matches!(reader.error(), Some(TraceIoError::Truncated { .. })));
        assert!(reader.take_error().is_some());
        assert!(reader.error().is_none());
    }

    #[test]
    fn zigzag_varint_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x7f, -0x80, 1 << 40] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = [0u8; 10];
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let n = push_uvarint(&mut buf, v);
            assert!(n <= 10);
        }
    }

    #[test]
    fn import_text_trace_folds_refs() {
        let src = "# demo\nI 0x100\nL 0x2000\nI 0x104\nI 0x108\nS 0x2040\n";
        let mut out = Vec::new();
        let n = import_to_compact(ImportFormat::Text, src.as_bytes(), &mut out, None).unwrap();
        assert_eq!(n, 3);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(
            recs,
            vec![
                InstructionRecord::with_data(Addr::new(0x100), MemRef::load(Addr::new(0x2000))),
                InstructionRecord::fetch_only(Addr::new(0x104)),
                InstructionRecord::with_data(Addr::new(0x108), MemRef::store(Addr::new(0x2040))),
            ]
        );
    }

    #[test]
    fn import_addr_list_synthesises_fetches() {
        let src = "0x1000\nW 0x2000\n# comment\nR 4096\n";
        let mut out = Vec::new();
        let n = import_to_compact(ImportFormat::AddrText, src.as_bytes(), &mut out, None).unwrap();
        assert_eq!(n, 3);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(recs[0].data, Some(MemRef::load(Addr::new(0x1000))));
        assert_eq!(recs[1].data, Some(MemRef::store(Addr::new(0x2000))));
        assert_eq!(recs[2].data, Some(MemRef::load(Addr::new(4096))));
        // Synthetic fetches stay inside one 64-byte line.
        for r in &recs {
            assert_eq!(r.fetch.raw() & !63, SYNTHETIC_FETCH_BASE);
        }
    }

    #[test]
    fn import_addr_binary_and_limit() {
        let mut src = Vec::new();
        for a in [0x10u64, 0x20, 0x30, 0x40] {
            src.extend_from_slice(&a.to_le_bytes());
        }
        let mut out = Vec::new();
        let n =
            import_to_compact(ImportFormat::AddrBinary, src.as_slice(), &mut out, Some(2)).unwrap();
        assert_eq!(n, 2);
        let recs = read_compact_trace(&out[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].data, Some(MemRef::load(Addr::new(0x20))));
    }

    #[test]
    fn import_instr_stops_reading_at_the_limit() {
        let recs = crate::spec::SpecBenchmark::Li.workload().take_instructions(5);
        let mut src = io::tests::instr_bytes(&recs);
        src.extend_from_slice(&[0b100; 9]); // record 5 opens with a bad flags byte
        let mut out = Vec::new();
        assert_eq!(import_to_compact(ImportFormat::Instr, &src[..], &mut out, Some(5)).unwrap(), 5);
        assert_eq!(read_compact_trace(&out[..]).unwrap(), recs);
        let err = import_to_compact(ImportFormat::Instr, &src[..], Vec::new(), None).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Corrupt { offset, .. } if offset as usize == src.len() - 9)
        );
    }

    #[test]
    fn import_rejects_bad_addr_lines() {
        for bad in ["X 0x100", "0xZZ", "R", "R nope"] {
            let mut out = Vec::new();
            let err = import_to_compact(ImportFormat::AddrText, bad.as_bytes(), &mut out, None)
                .unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt { .. }), "{bad:?}: {err}");
        }
    }

    #[test]
    fn detect_recognises_all_formats() {
        let mut compact = Vec::new();
        write_compact_trace(&mut compact, &sample_records()).unwrap();
        assert_eq!(ImportFormat::detect(&compact), ImportFormat::Compact);
        assert_eq!(ImportFormat::detect(io::INSTR_MAGIC), ImportFormat::Instr);
        assert_eq!(ImportFormat::detect(io::BINARY_MAGIC), ImportFormat::Refs);
        assert_eq!(ImportFormat::detect(b"# c\nI 0x100\n"), ImportFormat::Text);
        assert_eq!(ImportFormat::detect(b"0x1000\n0x2000\n"), ImportFormat::AddrText);
        assert_eq!(ImportFormat::detect(b"W 0x2000\n"), ImportFormat::AddrText);
        assert_eq!(ImportFormat::detect(&[0u8, 1, 2, 0xff]), ImportFormat::AddrBinary);
        for f in
            [ImportFormat::Compact, ImportFormat::Instr, ImportFormat::Refs, ImportFormat::Text]
        {
            assert_eq!(ImportFormat::parse(f.name()), Some(f));
        }
    }

    #[test]
    fn reader_streams_into_arena_chunks() {
        let recs: Vec<InstructionRecord> = (0..10_000u64)
            .map(|i| {
                InstructionRecord::with_data(
                    Addr::new(0x4000 + (i % 64) * 4),
                    MemRef::load(Addr::new(0x10_0000 + i * 8)),
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &recs).unwrap();
        let mut reader = TraceReader::new(&buf[..], "stream").unwrap();
        let arena = crate::TraceArena::capture_chunked(&mut reader, u64::MAX, 1024);
        assert!(reader.error().is_none());
        assert_eq!(arena.len(), recs.len() as u64);
        let replayed: Vec<InstructionRecord> = arena.replay().collect();
        assert_eq!(replayed, recs);
    }

    /// A reader that hands out at most 1–3 bytes per call (cycling), with
    /// an `Interrupted` before every fourth call, and fails with an I/O
    /// error once it reaches `fail_at`: refills land inside varints.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        calls: usize,
        fail_at: Option<usize>,
    }

    impl<'a> Trickle<'a> {
        fn new(data: &'a [u8], fail_at: Option<usize>) -> Self {
            Trickle { data, pos: 0, calls: 0, fail_at }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                return Err(std::io::Error::new(std::io::ErrorKind::Interrupted, "again"));
            }
            let stop = self.fail_at.unwrap_or(usize::MAX).min(self.data.len());
            if self.pos == stop && self.fail_at.is_some_and(|f| f <= self.data.len()) {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = buf.len().min(stop - self.pos).min(1 + self.calls % 3);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Everything a decoder reports about a stream: the records, the
    /// error it ended with (`Debug` carries variant, offset and detail),
    /// then `byte_offset()` and `decoded()`.
    type Outcome = (Vec<InstructionRecord>, Option<String>, u64, u64);

    fn reference_outcome(body: impl Read) -> Outcome {
        let mut r = reference::ByteReader::new(body);
        let mut recs = Vec::new();
        let err = loop {
            match r.decode_next() {
                Ok(Some(rec)) => recs.push(rec),
                Ok(None) => break None,
                Err(e) => break Some(format!("{e:?}")),
            }
        };
        (recs, err, r.offset, r.decoded)
    }

    fn block_outcome(stream: impl Read + Send, batch: Option<usize>) -> Outcome {
        let mut r = TraceReader::new(stream, "diff").unwrap();
        let mut recs = Vec::new();
        let err = match batch {
            None => loop {
                match r.try_next() {
                    Ok(Some(rec)) => recs.push(rec),
                    Ok(None) => break None,
                    Err(e) => {
                        assert_eq!(Some(format!("{e:?}")), r.error().map(|p| format!("{p:?}")));
                        break Some(format!("{e:?}"));
                    }
                }
            },
            Some(len) => {
                let mut buf = vec![InstructionRecord::fetch_only(Addr::new(0)); len];
                loop {
                    let got = r.next_batch(&mut buf);
                    recs.extend_from_slice(&buf[..got]);
                    if got < len {
                        assert_eq!(r.next_batch(&mut buf), 0, "a finished reader stays finished");
                        break r.take_error().map(|e| format!("{e:?}"));
                    }
                }
            }
        };
        (recs, err, r.byte_offset(), r.decoded())
    }

    fn encode(recs: &[InstructionRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, recs).unwrap();
        buf
    }

    /// Records whose deltas span every varint length: each address is a
    /// random u64 shifted right by a random amount.
    fn arb_records() -> impl proptest::strategy::Strategy<Value = Vec<InstructionRecord>> {
        use proptest::prelude::*;
        prop::collection::vec((any::<u64>(), 0u32..64, 0u8..3, any::<u64>(), 0u32..64), 0..24)
            .prop_map(|raw| {
                raw.into_iter()
                    .map(|(f, fs, kind, d, ds)| {
                        let fetch = Addr::new(f >> fs);
                        let addr = Addr::new(d >> ds);
                        match kind {
                            0 => InstructionRecord::fetch_only(fetch),
                            1 => InstructionRecord::with_data(fetch, MemRef::load(addr)),
                            _ => InstructionRecord::with_data(fetch, MemRef::store(addr)),
                        }
                    })
                    .collect()
            })
    }

    /// Checks the block reader against the reference on one stream, read
    /// whole, in batches, and through a trickling (and failing) reader.
    fn check_against_reference(stream: &[u8]) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        let want = reference_outcome(&stream[HEADER_BYTES as usize..]);
        prop_assert_eq!(&block_outcome(stream, None), &want, "try_next over a slice");
        prop_assert_eq!(&block_outcome(stream, Some(7)), &want, "next_batch(7) over a slice");
        prop_assert_eq!(
            &block_outcome(Trickle::new(stream, None), None),
            &reference_outcome(Trickle::new(&stream[HEADER_BYTES as usize..], None)),
            "trickling reader"
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn block_decoder_matches_reference_at_every_cut_and_bit_flip(
            recs in arb_records(),
            flips in proptest::prelude::any::<u64>(),
        ) {
            let full = encode(&recs);
            proptest::prelude::prop_assert_eq!(
                &block_outcome(&full[..], Some(256)).0, &recs, "clean round trip"
            );
            for cut in HEADER_BYTES as usize..=full.len() {
                check_against_reference(&full[..cut])?;
            }
            for (i, at) in (HEADER_BYTES as usize..full.len()).enumerate() {
                let mut bad = full.clone();
                bad[at] ^= 1 << ((flips >> (i % 61)) & 7);
                check_against_reference(&bad)?;
            }
        }
    }

    #[test]
    fn io_error_surfaces_at_the_first_record_that_needs_missing_bytes() {
        let recs = sample_records();
        let full = encode(&recs);
        for fail_at in 0..=full.len() - HEADER_BYTES as usize {
            let body = &full[HEADER_BYTES as usize..];
            let want = reference_outcome(Trickle::new(body, Some(fail_at)));
            let mut stream = full[..HEADER_BYTES as usize].to_vec();
            stream.extend_from_slice(body);
            let got = block_outcome(Trickle::new(&stream, Some(fail_at + 9)), None);
            assert_eq!(got, want, "failure after {fail_at} body bytes");
            // Even past the last byte, the read that would find the end
            // fails; every whole record before the failure decodes.
            assert!(got.1.as_deref().is_some_and(|e| e.contains("disk on fire")), "{:?}", got.1);
            if fail_at == body.len() {
                assert_eq!(got.0, recs);
            }
        }
    }

    #[test]
    fn reader_next_batch_matches_repeated_next_instruction_opt() {
        let recs: Vec<InstructionRecord> =
            crate::spec::SpecBenchmark::Gcc1.workload().take_instructions(5_000);
        let full = encode(&recs);
        let mut corrupt = full.clone();
        let mid = full.len() / 2;
        corrupt[mid..].fill(0x80); // an overflowing varint or a bad control byte mid-stream
        for stream in [&full[..], &full[..full.len() - 1], &corrupt[..]] {
            let mut one = TraceReader::new(stream, "one").unwrap();
            let want: Vec<InstructionRecord> =
                std::iter::from_fn(|| one.next_instruction_opt()).collect();
            for len in [1, 7, 256] {
                let got = block_outcome(stream, Some(len));
                assert_eq!(got.0, want, "batch {len}");
                assert_eq!(got.1, one.error().map(|e| format!("{e:?}")), "batch {len}");
                assert_eq!((got.2, got.3), (one.byte_offset(), one.decoded()), "batch {len}");
            }
        }
        // An error mid-batch: the records before it are returned, then
        // the error is parked.
        let mut r = TraceReader::new(&corrupt[..], "mid").unwrap();
        let mut buf = vec![InstructionRecord::fetch_only(Addr::new(0)); recs.len()];
        let got = r.next_batch(&mut buf);
        assert!(got > 0 && got < recs.len());
        assert_eq!(&buf[..got], &recs[..got]);
        assert!(matches!(r.error(), Some(TraceIoError::Corrupt { .. })), "{:?}", r.error());
    }

    #[test]
    fn replay_next_batch_matches_repeated_next_instruction_opt() {
        let recs = sample_records();
        for len in [1, 7, 256] {
            let mut batched = crate::ReplaySource::new("r", recs.clone());
            let mut buf = vec![InstructionRecord::fetch_only(Addr::new(0)); len];
            let mut got = Vec::new();
            loop {
                let n = batched.next_batch(&mut buf);
                got.extend_from_slice(&buf[..n]);
                if n < len {
                    break;
                }
            }
            assert_eq!(got, recs, "batch {len} runs out mid-batch and stops");
            assert_eq!(batched.next_batch(&mut buf), 0);
        }
    }

    #[test]
    fn decode_counters_cover_every_record_and_payload_byte() {
        let recs = sample_records();
        let full = encode(&recs);
        let before = tlc_obs::counters().snapshot();
        let mut r = TraceReader::new(&full[..], "count").unwrap();
        while r.next_instruction_opt().is_some() {}
        // A batch consumer that stops before the end is still counted.
        let mut partial = TraceReader::new(&full[..], "partial").unwrap();
        let mut one = [InstructionRecord::fetch_only(Addr::new(0))];
        assert_eq!(partial.next_batch(&mut one), 1);
        let after = tlc_obs::counters().snapshot();
        let delta = |c: tlc_obs::Counter| after[c as usize] - before[c as usize];
        // Other tests decode concurrently, so only lower bounds hold.
        assert!(delta(tlc_obs::Counter::TraceRecordsDecoded) > recs.len() as u64);
        assert!(delta(tlc_obs::Counter::TraceBytesDecoded) >= (full.len() - 9) as u64);
    }
}
