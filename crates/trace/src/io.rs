//! Trace serialisation.
//!
//! Several interchange formats are provided so generated streams can be
//! inspected, archived, or replayed without re-running the generators:
//!
//! * **binary** — 9 bytes per reference (1 kind byte + little-endian u64
//!   address), preceded by an 8-byte magic; compact and fast;
//! * **text** — one `K 0xADDR` line per reference (`K` ∈ `I`/`L`/`S`),
//!   greppable and diffable;
//! * **compact** — the delta/varint-encoded `TLCTRC01` instruction
//!   format, which lives in [`crate::compact`] together with its
//!   streaming reader and external-format importer.
//!
//! Readers are strict: malformed input is a typed [`TraceIoError`]
//! carrying the byte offset and expected magic, never a panic and never
//! a silent skip.

use crate::addr::Addr;
use crate::record::{AccessKind, MemRef};
use std::io::{self, BufRead, Read, Write};

/// Magic bytes identifying a flat binary reference stream.
///
/// (Historically this magic read `TLCTRC01`; that name now identifies
/// the versioned compact instruction format in [`crate::compact`], so
/// the flat per-reference stream carries `TLCREF01` instead.)
pub const BINARY_MAGIC: &[u8; 8] = b"TLCREF01";

/// Magic bytes identifying an instruction-record trace stream.
pub const INSTR_MAGIC: &[u8; 8] = b"TLCITR01";

/// Magic bytes identifying a miss-event trace stream (a serialized
/// [`EventArena`](crate::EventArena), as archived by the audit corpus).
pub const EVENT_MAGIC: &[u8; 8] = b"TLCEVT01";

/// Typed error for every trace *reading* path in this crate.
///
/// Writers keep plain [`io::Result`]; readers return this so corrupt or
/// truncated input produces a diagnostic naming the byte offset and, for
/// header mismatches, the expected magic. Converts into [`io::Error`]
/// (as `InvalidData`) so callers already plumbing `io::Result` keep
/// working with `?`.
#[derive(Debug)]
pub enum TraceIoError {
    /// An underlying I/O failure (not a format violation).
    Io(io::Error),
    /// The stream did not start with the expected 8-byte magic.
    BadMagic {
        /// The bytes actually found at the start of the stream.
        found: [u8; 8],
        /// The magic the reader expected.
        expected: &'static [u8; 8],
    },
    /// The header carried a format version this build does not know.
    UnknownVersion {
        /// The version byte found in the header.
        found: u8,
        /// The newest version this reader understands.
        supported: u8,
    },
    /// The stream violated the format's encoding rules.
    Corrupt {
        /// Byte offset of the offending record or field.
        offset: u64,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The stream ended in the middle of a header or record.
    Truncated {
        /// Byte offset at which the stream was cut short.
        offset: u64,
        /// Human-readable description of what was being read.
        detail: String,
    },
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::BadMagic { found, expected } => write!(
                f,
                "bad trace magic {:?} at offset 0, expected {:?}",
                found.escape_ascii().to_string(),
                expected.escape_ascii().to_string(),
            ),
            TraceIoError::UnknownVersion { found, supported } => {
                write!(f, "unknown trace format version {found} (supported: <= {supported})")
            }
            TraceIoError::Corrupt { offset, detail } => {
                write!(f, "corrupt trace at byte offset {offset}: {detail}")
            }
            TraceIoError::Truncated { offset, detail } => {
                write!(f, "truncated trace at byte offset {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<TraceIoError> for io::Error {
    fn from(e: TraceIoError) -> Self {
        match e {
            TraceIoError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Reads and checks an 8-byte magic, reporting truncation and mismatch
/// as typed errors.
pub(crate) fn expect_magic<R: Read>(
    input: &mut R,
    expected: &'static [u8; 8],
) -> Result<(), TraceIoError> {
    let mut magic = [0u8; 8];
    read_full(input, &mut magic, 0, || {
        format!(
            "stream ended inside the 8-byte magic (expected {:?})",
            expected.escape_ascii().to_string()
        )
    })?;
    if &magic != expected {
        return Err(TraceIoError::BadMagic { found: magic, expected });
    }
    Ok(())
}

/// Fills `buf` from `input`; running out of input is a truncation at
/// `offset`, described by `detail`.
pub(crate) fn read_full<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    offset: u64,
    detail: impl FnOnce() -> String,
) -> Result<(), TraceIoError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated { offset, detail: detail() }
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Writes references to a binary trace stream.
///
/// The header is written on construction; call [`BinaryTraceWriter::write`]
/// per reference. A mutable reference to any `Write` may be passed.
///
/// # Examples
///
/// ```
/// use tlc_trace::io::{read_binary_trace, BinaryTraceWriter};
/// use tlc_trace::{Addr, MemRef};
///
/// # fn main() -> std::io::Result<()> {
/// let mut buf = Vec::new();
/// let mut w = BinaryTraceWriter::new(&mut buf)?;
/// w.write(MemRef::fetch(Addr::new(0x100)))?;
/// w.write(MemRef::store(Addr::new(0x2000)))?;
/// drop(w);
/// let refs = read_binary_trace(&buf[..])?;
/// assert_eq!(refs.len(), 2);
/// assert_eq!(refs[1], MemRef::store(Addr::new(0x2000)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BinaryTraceWriter<W: Write> {
    out: W,
    written: u64,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Creates the writer and emits the stream header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(BINARY_MAGIC)?;
        Ok(BinaryTraceWriter { out, written: 0 })
    }

    /// Appends one reference.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&mut self, r: MemRef) -> io::Result<()> {
        let kind = match r.kind {
            AccessKind::InstrFetch => 0u8,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        };
        self.out.write_all(&[kind])?;
        self.out.write_all(&r.addr.raw().to_le_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Number of references written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads an entire binary trace stream produced by [`BinaryTraceWriter`].
///
/// # Errors
///
/// Returns a [`TraceIoError`] on a bad magic, an unknown kind byte, or a
/// truncated record, and propagates I/O errors.
pub fn read_binary_trace<R: Read>(input: R) -> Result<Vec<MemRef>, TraceIoError> {
    let mut refs = RefDecoder::new(io::BufReader::new(input), RefFormat::Binary)?;
    collect_records(|| refs.next_ref())
}

/// Writes references in the text format, one `K 0xADDR` line each.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_text_trace<W: Write>(mut out: W, refs: &[MemRef]) -> io::Result<()> {
    for r in refs {
        writeln!(out, "{} {:#x}", r.kind.code(), r.addr.raw())?;
    }
    Ok(())
}

/// Parses the text format produced by [`write_text_trace`].
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] naming the offending line number and
/// the byte offset where that line starts on any malformed line; blank
/// lines and `#` comments are permitted.
pub fn read_text_trace<R: BufRead>(input: R) -> Result<Vec<MemRef>, TraceIoError> {
    let mut refs = RefDecoder::new(input, RefFormat::Text)?;
    collect_records(|| refs.next_ref())
}

/// Collects a decoder's records up to the end of its stream; the first
/// decode error is the result instead.
pub(crate) fn collect_records<T>(
    mut next: impl FnMut() -> Result<Option<T>, TraceIoError>,
) -> Result<Vec<T>, TraceIoError> {
    let mut out = Vec::new();
    while let Some(rec) = next()? {
        out.push(rec);
    }
    Ok(out)
}

/// A flat reference format [`RefDecoder`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefFormat {
    /// `TLCREF01`: the magic, then one 9-byte record per reference.
    Binary,
    /// `K 0xADDR` lines (`K` ∈ `I`/`L`/`S`).
    Text,
    /// One `[R|W] ADDR` per line, address in `0x` hex or decimal, the
    /// tag defaulting to a read.
    AddrList,
    /// Raw little-endian `u64` addresses, all reads.
    AddrWords,
}

/// The one streaming decoder of each flat reference format: yields the
/// references in order and, on malformed input, a typed error naming
/// its byte offset. Line formats skip blank lines and `#` comments, and
/// an error's offset is where its line starts (`\r\n` terminators
/// counted).
#[derive(Debug)]
pub(crate) struct RefDecoder<R> {
    input: R,
    format: RefFormat,
    /// Records (binary formats) or lines (text formats) consumed.
    count: u64,
    /// Byte offset of the next record or line.
    offset: u64,
    line: String,
}

impl<R: BufRead> RefDecoder<R> {
    /// Positions a decoder at the first reference, checking the magic of
    /// the `TLCREF01` format.
    pub(crate) fn new(mut input: R, format: RefFormat) -> Result<Self, TraceIoError> {
        let offset = if format == RefFormat::Binary {
            expect_magic(&mut input, BINARY_MAGIC)?;
            8
        } else {
            0
        };
        Ok(RefDecoder { input, format, count: 0, offset, line: String::new() })
    }

    /// The next reference, `Ok(None)` at a clean end of stream.
    pub(crate) fn next_ref(&mut self) -> Result<Option<MemRef>, TraceIoError> {
        match self.format {
            RefFormat::Binary => self.decode_binary(),
            RefFormat::Text => self.decode_line(parse_text_ref),
            RefFormat::AddrList => self.decode_line(parse_addr_list_line),
            RefFormat::AddrWords => self.decode_word(),
        }
    }

    fn decode_binary(&mut self) -> Result<Option<MemRef>, TraceIoError> {
        let offset = self.offset;
        let Some(kind_byte) = read_tag(&mut self.input)? else { return Ok(None) };
        let kind = match kind_byte {
            0 => AccessKind::InstrFetch,
            1 => AccessKind::Load,
            2 => AccessKind::Store,
            k => {
                return Err(TraceIoError::Corrupt {
                    offset,
                    detail: format!("unknown reference kind byte {k}"),
                })
            }
        };
        let count = self.count;
        let addr =
            read_addr(&mut self.input, offset, || format!("reference record {count} cut short"))?;
        self.count += 1;
        self.offset += 9;
        Ok(Some(MemRef { addr, kind }))
    }

    fn decode_line(
        &mut self,
        parse: fn(&str, usize, u64) -> Result<MemRef, TraceIoError>,
    ) -> Result<Option<MemRef>, TraceIoError> {
        loop {
            self.line.clear();
            let read = self.input.read_line(&mut self.line)?;
            if read == 0 {
                return Ok(None);
            }
            let (lineno, offset) = (self.count as usize, self.offset);
            self.count += 1;
            self.offset += read as u64;
            let t = self.line.trim();
            if !(t.is_empty() || t.starts_with('#')) {
                return parse(t, lineno, offset).map(Some);
            }
        }
    }

    /// Raw address lists have no header to anchor a record boundary, so
    /// the stream may end only at a word boundary: a trailing partial
    /// word is a truncation, not a clean end.
    fn decode_word(&mut self) -> Result<Option<MemRef>, TraceIoError> {
        if self.input.fill_buf()?.is_empty() {
            return Ok(None);
        }
        let addr =
            read_addr(&mut self.input, self.offset, || "partial 8-byte address word".into())?;
        self.offset += 8;
        Ok(Some(MemRef::load(addr)))
    }
}

/// Reads a binary record's leading tag byte. A record may be absent (a
/// clean end of stream, `None`) but never partial: once the tag exists,
/// the rest of the record must follow.
fn read_tag<R: Read>(input: &mut R) -> Result<Option<u8>, TraceIoError> {
    let mut tag = [0u8; 1];
    match input.read_exact(&mut tag) {
        Ok(()) => Ok(Some(tag[0])),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(TraceIoError::Io(e)),
    }
}

/// Reads one little-endian address word; running out of input is a
/// truncation at `offset`, described by `detail`.
fn read_addr<R: Read>(
    input: &mut R,
    offset: u64,
    detail: impl FnOnce() -> String,
) -> Result<Addr, TraceIoError> {
    let mut word = [0u8; 8];
    read_full(input, &mut word, offset, detail)?;
    Ok(Addr::new(u64::from_le_bytes(word)))
}

/// Parses one non-blank, non-comment `K 0xADDR` text-trace line.
fn parse_text_ref(t: &str, lineno: usize, offset: u64) -> Result<MemRef, TraceIoError> {
    let bad = || TraceIoError::Corrupt {
        offset,
        detail: format!("malformed trace line {}: {t:?}", lineno + 1),
    };
    let (kind_s, addr_s) = t.split_once(' ').ok_or_else(bad)?;
    let kind_c = {
        let mut chars = kind_s.chars();
        let c = chars.next().ok_or_else(bad)?;
        if chars.next().is_some() {
            return Err(bad());
        }
        c
    };
    let kind = AccessKind::from_code(kind_c).ok_or_else(bad)?;
    let addr_s = addr_s.trim().strip_prefix("0x").ok_or_else(bad)?;
    let addr = u64::from_str_radix(addr_s, 16).map_err(|_| bad())?;
    Ok(MemRef { addr: Addr::new(addr), kind })
}

/// Parses one non-blank, non-comment address-list line.
fn parse_addr_list_line(t: &str, lineno: usize, offset: u64) -> Result<MemRef, TraceIoError> {
    let bad = |detail: String| TraceIoError::Corrupt { offset, detail };
    let (kind, addr_s) = match t.split_once(char::is_whitespace) {
        Some((tag, rest)) => {
            let kind = match tag {
                "R" | "r" | "L" | "l" => AccessKind::Load,
                "W" | "w" | "S" | "s" => AccessKind::Store,
                other => {
                    return Err(bad(format!(
                        "unknown access tag {other:?} on address-list line {}",
                        lineno + 1
                    )))
                }
            };
            (kind, rest.trim())
        }
        None => (AccessKind::Load, t),
    };
    let addr = match addr_s.strip_prefix("0x").or_else(|| addr_s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => addr_s.parse(),
    }
    .map_err(|_| bad(format!("bad address {addr_s:?} on address-list line {}", lineno + 1)))?;
    Ok(MemRef { addr: Addr::new(addr), kind })
}

/// Writes [`InstructionRecord`](crate::InstructionRecord)s in a compact
/// binary format: the [`INSTR_MAGIC`] header, then per record one flags
/// byte (`bit0` = has data ref, `bit1` = data ref is a store), the fetch
/// address (LE u64), and — when present — the data address (LE u64).
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Examples
///
/// ```
/// use tlc_trace::io::{read_instruction_trace, write_instruction_trace};
/// use tlc_trace::spec::SpecBenchmark;
///
/// # fn main() -> std::io::Result<()> {
/// let recs = SpecBenchmark::Li.workload().take_instructions(100);
/// let mut buf = Vec::new();
/// write_instruction_trace(&mut buf, &recs)?;
/// assert_eq!(read_instruction_trace(&buf[..])?, recs);
/// # Ok(())
/// # }
/// ```
pub fn write_instruction_trace<W: Write>(
    mut out: W,
    records: &[crate::InstructionRecord],
) -> io::Result<()> {
    out.write_all(INSTR_MAGIC)?;
    for r in records {
        let (flags, data_addr) = match r.data {
            None => (0u8, None),
            Some(d) => (1 | ((d.kind == AccessKind::Store) as u8) << 1, Some(d.addr.raw())),
        };
        out.write_all(&[flags])?;
        out.write_all(&r.fetch.raw().to_le_bytes())?;
        if let Some(a) = data_addr {
            out.write_all(&a.to_le_bytes())?;
        }
    }
    out.flush()
}

/// Parses a stream produced by [`write_instruction_trace`].
///
/// # Errors
///
/// Returns a [`TraceIoError`] on a bad magic, unknown flag bits, or a
/// truncated record, and propagates I/O errors.
pub fn read_instruction_trace<R: Read>(
    input: R,
) -> Result<Vec<crate::InstructionRecord>, TraceIoError> {
    let mut records = InstrDecoder::new(input)?;
    collect_records(|| records.next_record())
}

/// The one streaming decoder of the `TLCITR01` instruction format.
#[derive(Debug)]
pub(crate) struct InstrDecoder<R> {
    input: R,
    /// Records decoded so far.
    count: u64,
    /// Byte offset of the next record.
    offset: u64,
}

impl<R: Read> InstrDecoder<R> {
    /// Positions a decoder at the first record, checking the magic.
    pub(crate) fn new(mut input: R) -> Result<Self, TraceIoError> {
        expect_magic(&mut input, INSTR_MAGIC)?;
        Ok(InstrDecoder { input, count: 0, offset: 8 })
    }

    /// The next record, `Ok(None)` at a clean end of stream; an error
    /// names the offset of the record it stopped in.
    pub(crate) fn next_record(&mut self) -> Result<Option<crate::InstructionRecord>, TraceIoError> {
        let (offset, count) = (self.offset, self.count);
        let Some(flags) = read_tag(&mut self.input)? else { return Ok(None) };
        if flags & !0b11 != 0 {
            return Err(TraceIoError::Corrupt {
                offset,
                detail: format!("unknown instruction-record flags {flags:#04x}"),
            });
        }
        let detail = || format!("instruction record {count} cut short");
        let fetch = read_addr(&mut self.input, offset, detail)?;
        let data = match flags {
            1 => Some(MemRef::load(read_addr(&mut self.input, offset, detail)?)),
            3 => Some(MemRef::store(read_addr(&mut self.input, offset, detail)?)),
            _ => None,
        };
        self.count += 1;
        self.offset += if data.is_some() { 17 } else { 9 };
        Ok(Some(crate::InstructionRecord { fetch, data }))
    }
}

/// Writes an [`EventArena`](crate::EventArena) miss/victim stream: the
/// [`EVENT_MAGIC`] header, an event count (LE u64), then per event one
/// flags byte (the [`MissEvent::flags`](crate::MissEvent::flags)
/// encoding), the line address (LE u64), and the victim line (LE u64;
/// zero when the flags carry no victim) — a fixed 17 bytes per event,
/// mirroring the arena's resident layout.
///
/// # Errors
///
/// Propagates I/O errors.
///
/// # Examples
///
/// ```
/// use tlc_trace::io::{read_event_trace, write_event_trace};
/// use tlc_trace::{AccessKind, EventArena, LineAddr, MissEvent, VictimLine};
///
/// # fn main() -> std::io::Result<()> {
/// let mut arena = EventArena::new();
/// arena.push(MissEvent {
///     kind: AccessKind::Store,
///     line: LineAddr(7),
///     victim: Some(VictimLine { line: LineAddr(3), written: true }),
/// });
/// let mut buf = Vec::new();
/// write_event_trace(&mut buf, &arena)?;
/// let back = read_event_trace(&buf[..])?;
/// assert_eq!(back.iter().collect::<Vec<_>>(), arena.iter().collect::<Vec<_>>());
/// # Ok(())
/// # }
/// ```
pub fn write_event_trace<W: Write>(mut out: W, events: &crate::EventArena) -> io::Result<()> {
    out.write_all(EVENT_MAGIC)?;
    out.write_all(&events.len().to_le_bytes())?;
    for chunk in events.chunks() {
        for i in 0..chunk.len() {
            out.write_all(&[chunk.flags[i]])?;
            out.write_all(&chunk.primary[i].to_le_bytes())?;
            out.write_all(&chunk.secondary[i].to_le_bytes())?;
        }
    }
    out.flush()
}

/// Parses a stream produced by [`write_event_trace`].
///
/// # Errors
///
/// Returns a [`TraceIoError`] on a bad magic, unknown flag bits, a
/// non-zero victim word without the victim flag, or a truncated stream,
/// and propagates I/O errors.
pub fn read_event_trace<R: Read>(mut input: R) -> Result<crate::EventArena, TraceIoError> {
    use crate::events::{
        EVENT_HAS_VICTIM, EVENT_KIND_MASK, EVENT_KIND_STORE, EVENT_VICTIM_WRITTEN,
    };
    use crate::{LineAddr, MissEvent, VictimLine};
    expect_magic(&mut input, EVENT_MAGIC)?;
    let mut count = [0u8; 8];
    read_full(&mut input, &mut count, 8, || "stream ended inside the event-count header".into())?;
    let count = u64::from_le_bytes(count);
    let mut arena = crate::EventArena::new();
    let mut rec = [0u8; 17];
    for i in 0..count {
        let offset = 16 + i * 17;
        read_full(&mut input, &mut rec, offset, || {
            format!("event trace truncated at record {i} of {count}")
        })?;
        let flags = rec[0];
        let known = EVENT_KIND_MASK | EVENT_HAS_VICTIM | EVENT_VICTIM_WRITTEN;
        if flags & !known != 0 || flags & EVENT_KIND_MASK > EVENT_KIND_STORE {
            return Err(TraceIoError::Corrupt {
                offset,
                detail: format!("unknown event flags {flags:#04x} at record {i}"),
            });
        }
        let line = u64::from_le_bytes(rec[1..9].try_into().expect("slice of 8"));
        let victim_word = u64::from_le_bytes(rec[9..17].try_into().expect("slice of 8"));
        let victim = if flags & EVENT_HAS_VICTIM != 0 {
            Some(VictimLine {
                line: LineAddr(victim_word),
                written: flags & EVENT_VICTIM_WRITTEN != 0,
            })
        } else {
            if victim_word != 0 || flags & EVENT_VICTIM_WRITTEN != 0 {
                return Err(TraceIoError::Corrupt {
                    offset,
                    detail: format!("victim payload without victim flag at record {i}"),
                });
            }
            None
        };
        let kind = match flags & EVENT_KIND_MASK {
            0 => AccessKind::InstrFetch,
            1 => AccessKind::Load,
            _ => AccessKind::Store,
        };
        arena.push(MissEvent { kind, line: LineAddr(line), victim });
    }
    // The count header is authoritative; trailing bytes mean the stream
    // was not produced by `write_event_trace`.
    let mut trailing = [0u8; 1];
    match input.read_exact(&mut trailing) {
        Ok(()) => Err(TraceIoError::Corrupt {
            offset: 16 + count * 17,
            detail: "trailing bytes after event trace".into(),
        }),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(arena),
        Err(e) => Err(TraceIoError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_refs() -> Vec<MemRef> {
        vec![
            MemRef::fetch(Addr::new(0x0040_0000)),
            MemRef::load(Addr::new(0x1000_0010)),
            MemRef::store(Addr::new(0xFFFF_FFFF_FFFF_FFF0)),
        ]
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        let mut w = BinaryTraceWriter::new(&mut buf).unwrap();
        for r in sample_refs() {
            w.write(r).unwrap();
        }
        assert_eq!(w.written(), 3);
        w.into_inner().unwrap();
        assert_eq!(read_binary_trace(&buf[..]).unwrap(), sample_refs());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC".to_vec();
        assert!(read_binary_trace(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_unknown_kind() {
        let mut buf = Vec::new();
        buf.extend_from_slice(BINARY_MAGIC);
        buf.push(9); // bad kind
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_binary_trace(&buf[..]).is_err());
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text_trace(&mut buf, &sample_refs()).unwrap();
        let parsed = read_text_trace(&buf[..]).unwrap();
        assert_eq!(parsed, sample_refs());
    }

    #[test]
    fn text_allows_comments_and_blanks() {
        let src = "# header\n\nI 0x100\n  L 0x200  \n";
        let parsed = read_text_trace(src.as_bytes()).unwrap();
        assert_eq!(parsed, vec![MemRef::fetch(Addr::new(0x100)), MemRef::load(Addr::new(0x200))]);
    }

    #[test]
    fn text_rejects_malformed() {
        for bad in ["X 0x100", "I 100", "I", "II 0x100", "I 0xZZ"] {
            let err = read_text_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt { .. }), "{bad:?} should fail: {err}");
        }
        // The offset is where the bad line starts, CRLF terminators
        // counted, as the importer reports it for the same bytes.
        let crlf = "I 0x1\r\nL 0x2\r\nbad\r\n";
        match read_text_trace(crlf.as_bytes()).unwrap_err() {
            TraceIoError::Corrupt { offset, .. } => assert_eq!(offset, 14),
            other => panic!("expected Corrupt, got {other}"),
        }
        let mut out = Vec::new();
        let err = crate::compact::import_to_compact(
            crate::ImportFormat::Text,
            crlf.as_bytes(),
            &mut out,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt { offset: 14, .. }), "{err}");
    }

    #[test]
    fn errors_carry_offset_and_expected_magic() {
        let err = read_binary_trace(&b"NOTMAGIC"[..]).unwrap_err();
        match &err {
            TraceIoError::BadMagic { found, expected } => {
                assert_eq!(found, b"NOTMAGIC");
                assert_eq!(*expected, BINARY_MAGIC);
            }
            other => panic!("expected BadMagic, got {other}"),
        }
        assert!(err.to_string().contains("TLCREF01"), "{err}");

        // A truncated record reports the byte offset where it began.
        let mut buf = Vec::new();
        {
            let mut w = BinaryTraceWriter::new(&mut buf).unwrap();
            w.write(MemRef::load(Addr::new(0x42))).unwrap();
        }
        buf.truncate(buf.len() - 2);
        match read_binary_trace(&buf[..]).unwrap_err() {
            TraceIoError::Truncated { offset, .. } => assert_eq!(offset, 8),
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn trace_io_error_converts_to_io_error() {
        let err: io::Error = TraceIoError::Corrupt { offset: 3, detail: "x".into() }.into();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        let err: io::Error = TraceIoError::Io(inner).into();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn into_inner_flushes() {
        let w = BinaryTraceWriter::new(Vec::new()).unwrap();
        let inner = w.into_inner().unwrap();
        assert_eq!(&inner[..8], BINARY_MAGIC);
    }

    #[test]
    fn instruction_trace_roundtrip() {
        use crate::InstructionRecord;
        let recs = vec![
            InstructionRecord::fetch_only(Addr::new(0x100)),
            InstructionRecord::with_data(Addr::new(0x104), MemRef::load(Addr::new(0x2000))),
            InstructionRecord::with_data(Addr::new(0x108), MemRef::store(Addr::new(0x3000))),
        ];
        let mut buf = Vec::new();
        write_instruction_trace(&mut buf, &recs).unwrap();
        assert_eq!(read_instruction_trace(&buf[..]).unwrap(), recs);
    }

    #[test]
    fn instruction_trace_rejects_bad_magic_and_flags() {
        assert!(read_instruction_trace(&b"WRONGMAG"[..]).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(INSTR_MAGIC);
        buf.push(0b100); // unknown flag bit
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_instruction_trace(&buf[..]).is_err());
    }

    #[test]
    fn instruction_trace_rejects_truncation() {
        let recs =
            vec![crate::InstructionRecord::with_data(Addr::new(4), MemRef::load(Addr::new(8)))];
        let mut buf = Vec::new();
        write_instruction_trace(&mut buf, &recs).unwrap();
        buf.truncate(buf.len() - 3); // chop the data address
        assert!(read_instruction_trace(&buf[..]).is_err());
    }

    #[test]
    fn event_trace_roundtrip_across_chunk_boundary() {
        use crate::{EventArena, LineAddr, MissEvent, VictimLine};
        let mut arena = EventArena::with_chunk_len(8);
        for i in 0..37u64 {
            arena.push(MissEvent {
                kind: match i % 3 {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::Load,
                    _ => AccessKind::Store,
                },
                line: LineAddr(i * 31),
                victim: (i % 4 == 1)
                    .then(|| VictimLine { line: LineAddr(i + 1000), written: i % 8 == 1 }),
            });
        }
        let mut buf = Vec::new();
        write_event_trace(&mut buf, &arena).unwrap();
        assert_eq!(buf.len(), 8 + 8 + 37 * 17);
        let back = read_event_trace(&buf[..]).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), arena.iter().collect::<Vec<_>>());
    }

    #[test]
    fn event_trace_rejects_bad_magic_flags_truncation_and_trailing() {
        use crate::{EventArena, LineAddr, MissEvent};
        assert!(read_event_trace(&b"WRONGMAG"[..]).is_err());

        let mut arena = EventArena::new();
        arena.push(MissEvent { kind: AccessKind::Load, line: LineAddr(5), victim: None });
        let mut buf = Vec::new();
        write_event_trace(&mut buf, &arena).unwrap();

        let mut bad_flags = buf.clone();
        bad_flags[16] = 0b0001_0000; // unknown flag bit
        assert!(read_event_trace(&bad_flags[..]).is_err());
        bad_flags[16] = 0b0000_0011; // kind 3 does not exist
        assert!(read_event_trace(&bad_flags[..]).is_err());
        bad_flags[16] = EVENT_MAGIC[0]; // arbitrary garbage
        assert!(read_event_trace(&bad_flags[..]).is_err());

        let mut orphan_victim = buf.clone();
        orphan_victim[25] = 9; // non-zero victim word without the victim flag
        assert!(read_event_trace(&orphan_victim[..]).is_err());

        let mut truncated = buf.clone();
        truncated.truncate(buf.len() - 4);
        assert!(read_event_trace(&truncated[..]).is_err());

        let mut trailing = buf.clone();
        trailing.push(0);
        assert!(read_event_trace(&trailing[..]).is_err());
    }

    #[test]
    fn empty_event_trace_roundtrip() {
        use crate::EventArena;
        let mut buf = Vec::new();
        write_event_trace(&mut buf, &EventArena::new()).unwrap();
        assert!(read_event_trace(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn empty_instruction_trace() {
        let mut buf = Vec::new();
        write_instruction_trace(&mut buf, &[]).unwrap();
        assert!(read_instruction_trace(&buf[..]).unwrap().is_empty());
    }
}
