//! Trace decoding for the formats `tlc trace import` accepts, and the
//! miss-event archive.
//!
//! The library writes and reads back one instruction-trace format,
//! `TLCTRC01` ([`crate::compact`]). Every other format enters through
//! [`import_to_compact`](crate::compact::import_to_compact), which
//! streams it through the decoders here into `TLCTRC01`:
//!
//! * **`TLCREF01`** ([`BINARY_MAGIC`]) — the magic, then 9 bytes per
//!   reference: a kind byte (0 fetch, 1 load, 2 store) and the
//!   little-endian u64 address;
//! * **text** — one `K 0xADDR` line per reference (`K` ∈ `I`/`L`/`S`);
//! * **address lists** — one `[R|W] ADDR` line per data reference, or
//!   raw little-endian u64 words, all reads;
//! * **`TLCITR01`** ([`INSTR_MAGIC`]) — the magic, then per instruction
//!   one flags byte (`bit0` = has a data reference, `bit1` = it is a
//!   store), the fetch address (LE u64) and, when present, the data
//!   address (LE u64).
//!
//! The `TLCEVT01` miss-event stream ([`write_event_trace`],
//! [`read_event_trace`]) is how the audit corpus archives an
//! [`EventArena`](crate::EventArena).
//!
//! Decoders are strict: malformed input is a typed [`TraceIoError`]
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
    line: Vec<u8>,
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
        Ok(RefDecoder { input, format, count: 0, offset, line: Vec::new() })
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
            // Read as bytes, so a line that is not UTF-8 is a malformed
            // line at its offset like any other, not an I/O error.
            self.line.clear();
            let read = self.input.read_until(b'\n', &mut self.line)?;
            if read == 0 {
                return Ok(None);
            }
            let (lineno, offset) = (self.count as usize, self.offset);
            self.count += 1;
            self.offset += read as u64;
            let t = std::str::from_utf8(&self.line)
                .map_err(|_| TraceIoError::Corrupt {
                    offset,
                    detail: format!("trace line {} is not valid UTF-8", lineno + 1),
                })?
                .trim();
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
pub(crate) mod tests {
    use super::*;
    use crate::compact::{import_to_compact, read_compact_trace, ImportFormat};
    use crate::InstructionRecord;

    /// A `TLCREF01` stream of `refs`.
    pub(crate) fn ref_bytes(refs: &[MemRef]) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        for r in refs {
            buf.push(match r.kind {
                AccessKind::InstrFetch => 0,
                AccessKind::Load => 1,
                AccessKind::Store => 2,
            });
            buf.extend_from_slice(&r.addr.raw().to_le_bytes());
        }
        buf
    }

    /// A text trace of `refs`, one `K 0xADDR` line each.
    pub(crate) fn ref_text(refs: &[MemRef]) -> String {
        refs.iter().map(|r| format!("{} {:#x}\n", r.kind.code(), r.addr.raw())).collect()
    }

    /// A `TLCITR01` stream of `records`.
    pub(crate) fn instr_bytes(records: &[InstructionRecord]) -> Vec<u8> {
        let mut buf = INSTR_MAGIC.to_vec();
        for r in records {
            let flags = match r.data {
                None => 0u8,
                Some(d) => 1 | u8::from(d.kind == AccessKind::Store) << 1,
            };
            buf.push(flags);
            buf.extend_from_slice(&r.fetch.raw().to_le_bytes());
            if let Some(d) = r.data {
                buf.extend_from_slice(&d.addr.raw().to_le_bytes());
            }
        }
        buf
    }

    /// Imports `input` as `format` and reads the `TLCTRC01` result back.
    fn import(format: ImportFormat, input: &[u8]) -> Result<Vec<InstructionRecord>, TraceIoError> {
        let mut out = Vec::new();
        let n = import_to_compact(format, input, &mut out, None)?;
        let records = read_compact_trace(&out[..]).expect("the importer writes valid TLCTRC01");
        assert_eq!(records.len() as u64, n);
        Ok(records)
    }

    fn sample_records() -> Vec<InstructionRecord> {
        vec![
            InstructionRecord::fetch_only(Addr::new(0x0040_0000)),
            InstructionRecord::with_data(
                Addr::new(0x0040_0004),
                MemRef::load(Addr::new(0x1000_0010)),
            ),
            InstructionRecord::with_data(
                Addr::new(0x0040_0008),
                MemRef::store(Addr::new(0xFFFF_FFFF_FFFF_FFF0)),
            ),
        ]
    }

    fn sample_refs() -> Vec<MemRef> {
        sample_records().iter().flat_map(|r| r.refs()).collect()
    }

    #[test]
    fn every_format_imports_the_same_records() {
        let recs = sample_records();
        assert_eq!(import(ImportFormat::Refs, &ref_bytes(&sample_refs())).unwrap(), recs);
        assert_eq!(import(ImportFormat::Text, ref_text(&sample_refs()).as_bytes()).unwrap(), recs);
        assert_eq!(import(ImportFormat::Instr, &instr_bytes(&recs)).unwrap(), recs);
    }

    #[test]
    fn refs_reject_unknown_kind() {
        let mut buf = BINARY_MAGIC.to_vec();
        buf.push(9); // bad kind
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = import(ImportFormat::Refs, &buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt { offset: 8, .. }), "{err}");
        assert!(err.to_string().contains("kind byte 9"), "{err}");
    }

    #[test]
    fn text_allows_comments_and_blanks() {
        let src = "# header\n\nI 0x100\n  L 0x200  \n";
        assert_eq!(
            import(ImportFormat::Text, src.as_bytes()).unwrap(),
            vec![InstructionRecord::with_data(Addr::new(0x100), MemRef::load(Addr::new(0x200)))]
        );
    }

    #[test]
    fn text_rejects_malformed() {
        for bad in ["X 0x100", "I 100", "I", "II 0x100", "I 0xZZ"] {
            let err = import(ImportFormat::Text, bad.as_bytes()).unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt { offset: 0, .. }), "{bad:?}: {err}");
            assert!(err.to_string().contains("malformed trace line 1"), "{bad:?}: {err}");
        }
        // The offset is where the bad line starts, CRLF terminators
        // counted, and the line number is one-based.
        let crlf = "I 0x1\r\nL 0x2\r\nbad\r\n";
        let err = import(ImportFormat::Text, crlf.as_bytes()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt { offset: 14, .. }), "{err}");
        assert!(err.to_string().contains("malformed trace line 3"), "{err}");
    }

    #[test]
    fn line_formats_reject_invalid_utf8_at_its_line() {
        for (format, input) in [
            (ImportFormat::Text, &b"I 0x100\nL 0x2\xff00\n"[..]),
            (ImportFormat::AddrText, &b"R 0x100\nW 0x2\xff00\n"[..]),
        ] {
            let err = import(format, input).unwrap_err();
            assert!(matches!(err, TraceIoError::Corrupt { offset: 8, .. }), "{format:?}: {err}");
            assert!(err.to_string().contains("trace line 2 is not valid UTF-8"), "{err}");
        }
    }

    #[test]
    fn errors_carry_offset_and_expected_magic() {
        for (format, expected) in
            [(ImportFormat::Refs, BINARY_MAGIC), (ImportFormat::Instr, INSTR_MAGIC)]
        {
            let err = import(format, b"NOTMAGIC").unwrap_err();
            match &err {
                TraceIoError::BadMagic { found, expected: want } => {
                    assert_eq!(found, b"NOTMAGIC");
                    assert_eq!(*want, expected);
                }
                other => panic!("expected BadMagic, got {other}"),
            }
            assert!(err.to_string().contains(&expected.escape_ascii().to_string()), "{err}");
        }

        // A truncated record reports the byte offset where it began.
        let mut buf = ref_bytes(&[MemRef::fetch(Addr::new(0x40)), MemRef::load(Addr::new(0x42))]);
        buf.truncate(buf.len() - 2);
        match import(ImportFormat::Refs, &buf).unwrap_err() {
            TraceIoError::Truncated { offset, .. } => assert_eq!(offset, 17),
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
    fn instruction_trace_rejects_bad_flags() {
        let mut buf = INSTR_MAGIC.to_vec();
        buf.push(0b100); // unknown flag bit
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = import(ImportFormat::Instr, &buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt { offset: 8, .. }), "{err}");
        assert!(err.to_string().contains("flags 0x04"), "{err}");
    }

    #[test]
    fn instruction_trace_rejects_truncation() {
        let recs = vec![InstructionRecord::with_data(Addr::new(4), MemRef::load(Addr::new(8)))];
        let mut buf = instr_bytes(&recs);
        buf.truncate(buf.len() - 3); // chop the data address
        let err = import(ImportFormat::Instr, &buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Truncated { offset: 8, .. }), "{err}");
    }

    #[test]
    fn empty_streams_import_cleanly() {
        assert!(import(ImportFormat::Instr, INSTR_MAGIC).unwrap().is_empty());
        assert!(import(ImportFormat::Refs, BINARY_MAGIC).unwrap().is_empty());
        for format in [ImportFormat::Text, ImportFormat::AddrText, ImportFormat::AddrBinary] {
            assert!(import(format, b"").unwrap().is_empty(), "{}", format.name());
        }
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
}
