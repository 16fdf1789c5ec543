//! Property-based tests of the trace substrate: serialisation
//! round-trips, the importer every external format enters through, the
//! `TLCEVT01` miss-event archive, workload determinism, and statistics
//! consistency.

use proptest::prelude::*;
use two_level_cache::trace::compact::{
    import_to_compact, read_compact_trace, write_compact_trace, COMPACT_MAGIC, COMPACT_VERSION,
};
use two_level_cache::trace::io::{
    read_event_trace, write_event_trace, BINARY_MAGIC, EVENT_MAGIC, INSTR_MAGIC,
};
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::{
    AccessKind, Addr, CompactTraceWriter, EventArena, ImportFormat, InstructionRecord, LineAddr,
    MemRef, MissEvent, TraceIoError, TraceStats, VictimLine,
};

/// A `TLCREF01` stream of `refs`: the magic, then a kind byte and the
/// little-endian address per reference.
fn ref_bytes(refs: &[MemRef]) -> Vec<u8> {
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
fn ref_text(refs: &[MemRef]) -> Vec<u8> {
    refs.iter()
        .map(|r| format!("{} {:#x}\n", r.kind.code(), r.addr.raw()))
        .collect::<String>()
        .into()
}

/// A `TLCITR01` stream of `records`: the magic, then per record a flags
/// byte, the fetch address and the data address when there is one.
fn instr_bytes(records: &[InstructionRecord]) -> Vec<u8> {
    let mut buf = INSTR_MAGIC.to_vec();
    for r in records {
        buf.push(match r.data {
            None => 0,
            Some(d) if d.kind == AccessKind::Store => 3,
            Some(_) => 1,
        });
        buf.extend_from_slice(&r.fetch.raw().to_le_bytes());
        if let Some(d) = r.data {
            buf.extend_from_slice(&d.addr.raw().to_le_bytes());
        }
    }
    buf
}

/// The flat reference stream of `records`: each fetch, then its data
/// reference.
fn flatten(records: &[InstructionRecord]) -> Vec<MemRef> {
    records.iter().flat_map(|r| r.refs()).collect()
}

/// Imports `input` as `format` and reads the `TLCTRC01` result back.
fn import(format: ImportFormat, input: &[u8]) -> Result<Vec<InstructionRecord>, TraceIoError> {
    let mut out = Vec::new();
    let n = import_to_compact(format, input, &mut out, None)?;
    let records = read_compact_trace(&out[..]).expect("the importer writes valid TLCTRC01");
    assert_eq!(records.len() as u64, n, "import count matches the records written");
    Ok(records)
}

fn arbitrary_refs(len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec((any::<u64>(), 0u8..3), 0..len).prop_map(|v| {
        v.into_iter()
            .map(|(addr, kind)| MemRef {
                addr: Addr::new(addr),
                kind: match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::Load,
                    _ => AccessKind::Store,
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_roundtrip(records in arbitrary_records(200)) {
        // TLCREF01: every kind byte and full 64-bit address decodes, and
        // each fetch folds with the data reference after it.
        let back = import(ImportFormat::Refs, &ref_bytes(&flatten(&records))).expect("import");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn text_roundtrip(records in arbitrary_records(200)) {
        let back = import(ImportFormat::Text, &ref_text(&flatten(&records))).expect("import");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn stats_count_every_reference(refs in arbitrary_refs(300)) {
        let mut stats = TraceStats::new(16);
        for r in &refs {
            stats.record(*r);
        }
        prop_assert_eq!(stats.total_refs() as usize, refs.len());
        let fetches = refs.iter().filter(|r| r.kind == AccessKind::InstrFetch).count();
        prop_assert_eq!(stats.instr_refs() as usize, fetches);
        // Footprints cannot exceed reference counts.
        prop_assert!(stats.instr_footprint_lines() <= stats.instr_refs());
        prop_assert!(stats.data_footprint_lines() <= stats.data_refs());
    }
}

fn arbitrary_records(len: usize) -> impl Strategy<Value = Vec<InstructionRecord>> {
    prop::collection::vec((any::<u64>(), any::<u64>(), 0u8..3), 0..len).prop_map(|v| {
        v.into_iter()
            .map(|(fetch, addr, kind)| match kind {
                0 => InstructionRecord::fetch_only(Addr::new(fetch)),
                1 => InstructionRecord::with_data(Addr::new(fetch), MemRef::load(Addr::new(addr))),
                _ => InstructionRecord::with_data(Addr::new(fetch), MemRef::store(Addr::new(addr))),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compact_roundtrip(records in arbitrary_records(200)) {
        // TLCTRC01: arbitrary (worst-case random) addresses survive the
        // delta/varint encoding bit-for-bit.
        let mut buf = Vec::new();
        let mut w = CompactTraceWriter::new(&mut buf).expect("header");
        for r in &records {
            w.write(r).expect("record");
        }
        prop_assert_eq!(w.written() as usize, records.len());
        w.into_inner().expect("flush");
        let back = read_compact_trace(&buf[..]).expect("read back");
        prop_assert_eq!(back, records);
    }

    #[test]
    fn compact_truncation_is_diagnosed(records in arbitrary_records(40), cut_frac in 0.0f64..1.0) {
        // Any mid-record cut either decodes a clean prefix or reports a
        // typed Truncated/Corrupt error — never a panic, never silently
        // inventing records.
        let mut records = records;
        records.push(InstructionRecord::fetch_only(Addr::new(0x400)));
        let mut buf = Vec::new();
        write_compact_trace(&mut buf, &records).expect("write");
        let cut = 9 + ((buf.len() - 9) as f64 * cut_frac) as usize;
        match read_compact_trace(&buf[..cut]) {
            Ok(prefix) => prop_assert!(prefix.len() <= records.len()),
            Err(TraceIoError::Truncated { offset, .. }) => prop_assert!(offset as usize <= cut),
            Err(e) => prop_assert!(matches!(e, TraceIoError::Corrupt { .. }), "unexpected: {e}"),
        }
    }
}

#[test]
fn compact_rejects_corrupt_headers() {
    let mut buf = Vec::new();
    write_compact_trace(&mut buf, &[InstructionRecord::fetch_only(Addr::new(0x400))])
        .expect("write");
    // Wrong magic names both what was found and what was expected.
    let mut bad = buf.clone();
    bad[0..8].copy_from_slice(b"NOTATRAC");
    match read_compact_trace(&bad[..]) {
        Err(TraceIoError::BadMagic { found, expected }) => {
            assert_eq!(&found, b"NOTATRAC");
            assert_eq!(expected, COMPACT_MAGIC);
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // Future version byte is refused up front.
    let mut future = buf.clone();
    future[8] = 9;
    assert!(matches!(
        read_compact_trace(&future[..]),
        Err(TraceIoError::UnknownVersion { found: 9, .. })
    ));
    // A header alone is a valid empty trace; losing part of it is not.
    assert_eq!(read_compact_trace(&buf[..9]).expect("empty"), Vec::new());
    assert!(matches!(
        read_compact_trace(&buf[..5]),
        Err(TraceIoError::Truncated { .. } | TraceIoError::Io(_))
    ));
}

#[test]
fn workloads_are_deterministic_and_infinite() {
    for b in SpecBenchmark::ALL {
        let a: Vec<_> = b.workload().take_instructions(2_000);
        let c: Vec<_> = b.workload().take_instructions(2_000);
        assert_eq!(a, c, "{b}: same seed must give identical streams");
    }
}

#[test]
fn workload_streams_are_distinct_across_benchmarks() {
    // Different benchmarks must not accidentally share streams.
    let streams: Vec<Vec<_>> =
        SpecBenchmark::ALL.iter().map(|b| b.workload().take_instructions(200)).collect();
    for i in 0..streams.len() {
        for j in i + 1..streams.len() {
            assert_ne!(
                streams[i],
                streams[j],
                "{} and {} produced identical streams",
                SpecBenchmark::ALL[i],
                SpecBenchmark::ALL[j]
            );
        }
    }
}

#[test]
fn generated_trace_survives_binary_format() {
    // Full pipeline: generate → flat TLCREF01 references → import →
    // TLCTRC01 → identical records and stats.
    let records = SpecBenchmark::Doduc.workload().take_instructions(5_000);
    let refs = flatten(&records);
    let back = import(ImportFormat::Refs, &ref_bytes(&refs)).expect("import");
    assert_eq!(back, records);

    let mut s1 = TraceStats::new(16);
    let mut s2 = TraceStats::new(16);
    refs.iter().for_each(|r| s1.record(*r));
    flatten(&back).iter().for_each(|r| s2.record(*r));
    assert_eq!(s1.summary(), s2.summary());
}

/// A valid encoding of `records` in `format`.
fn encode(format: ImportFormat, records: &[InstructionRecord]) -> Vec<u8> {
    let data = || records.iter().filter_map(|r| r.data);
    match format {
        ImportFormat::Compact => {
            let mut buf = Vec::new();
            write_compact_trace(&mut buf, records).expect("write");
            buf
        }
        ImportFormat::Instr => instr_bytes(records),
        ImportFormat::Refs => ref_bytes(&flatten(records)),
        ImportFormat::Text => ref_text(&flatten(records)),
        ImportFormat::AddrText => data()
            .map(|d| {
                let tag = if d.kind == AccessKind::Store { 'W' } else { 'R' };
                format!("{tag} {:#x}\n", d.addr.raw())
            })
            .collect::<String>()
            .into(),
        ImportFormat::AddrBinary => data().flat_map(|d| d.addr.raw().to_le_bytes()).collect(),
    }
}

const ALL_FORMATS: [ImportFormat; 6] = [
    ImportFormat::Compact,
    ImportFormat::Instr,
    ImportFormat::Refs,
    ImportFormat::Text,
    ImportFormat::AddrText,
    ImportFormat::AddrBinary,
];

/// The importer's contract on any input: the records it wrote as a
/// valid `TLCTRC01` stream, or a typed error that fits the format and
/// whose offset lies inside the input. Never a panic.
fn check_import(
    format: ImportFormat,
    input: &[u8],
) -> Result<Option<Vec<InstructionRecord>>, TestCaseError> {
    let name = format.name();
    match import(format, input) {
        Ok(records) => return Ok(Some(records)),
        Err(TraceIoError::Truncated { offset, .. } | TraceIoError::Corrupt { offset, .. }) => {
            prop_assert!(offset as usize <= input.len(), "{name}: offset {offset}");
        }
        Err(TraceIoError::BadMagic { found, .. }) => {
            prop_assert!(!magic(format).is_empty() && input.starts_with(&found), "{name}");
        }
        Err(TraceIoError::UnknownVersion { .. }) => {
            prop_assert!(format == ImportFormat::Compact, "{name}");
        }
        // In-memory input never fails to read: every fault is in the bytes.
        Err(TraceIoError::Io(e)) => {
            prop_assert!(false, "{name}: an i/o error from in-memory input: {e}");
        }
    }
    Ok(None)
}

/// The header a format's stream opens with, if it has one.
fn magic(format: ImportFormat) -> Vec<u8> {
    match format {
        ImportFormat::Compact => [&COMPACT_MAGIC[..], &[COMPACT_VERSION]].concat(),
        ImportFormat::Instr => INSTR_MAGIC.to_vec(),
        ImportFormat::Refs => BINARY_MAGIC.to_vec(),
        _ => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_import_format_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        for format in ALL_FORMATS {
            check_import(format, &bytes)?;
            // Past the header, so the record decoder sees the bytes too.
            check_import(format, &[magic(format), bytes.clone()].concat())?;
        }
    }

    #[test]
    fn every_import_format_survives_every_cut(records in arbitrary_records(12)) {
        let data_addrs = |recs: &[InstructionRecord]| -> Vec<Addr> {
            recs.iter().filter_map(|r| r.data.map(|d| d.addr)).collect()
        };
        for format in ALL_FORMATS {
            let full = encode(format, &records);
            let whole = check_import(format, &full)?.expect("a valid encoding imports");
            match format {
                ImportFormat::AddrText | ImportFormat::AddrBinary => {
                    prop_assert_eq!(data_addrs(&whole), data_addrs(&records), "{}", format.name());
                }
                _ => prop_assert_eq!(&whole, &records, "{}", format.name()),
            }
            for cut in 0..full.len() {
                let prefix = check_import(format, &full[..cut])?;
                // A binary format cut inside the stream yields a prefix
                // of the references or a typed error, never other ones
                // (a cut `TLCREF01` may end on a fetch whose data
                // reference no longer follows).
                if let (false, Some(prefix)) = (magic(format).is_empty(), prefix) {
                    prop_assert!(
                        flatten(&whole).starts_with(&flatten(&prefix)),
                        "{} cut at {cut}",
                        format.name()
                    );
                }
            }
        }
    }
}

fn arbitrary_events(len: usize) -> impl Strategy<Value = Vec<MissEvent>> {
    prop::collection::vec((any::<u64>(), 0u8..3, any::<u64>(), 0u8..3), 0..len).prop_map(|v| {
        v.into_iter()
            .map(|(line, kind, victim, victim_kind)| MissEvent {
                kind: match kind {
                    0 => AccessKind::InstrFetch,
                    1 => AccessKind::Load,
                    _ => AccessKind::Store,
                },
                line: LineAddr(line),
                victim: (victim_kind > 0)
                    .then_some(VictimLine { line: LineAddr(victim), written: victim_kind == 2 }),
            })
            .collect()
    })
}

/// A `TLCEVT01` header: the magic and a little-endian event count.
fn event_header(count: u64) -> Vec<u8> {
    [&EVENT_MAGIC[..], &count.to_le_bytes()].concat()
}

/// The event reader's contract on any input: the decoded events, or a
/// typed error whose offset lies inside the input. Never a panic.
fn check_event_trace(input: &[u8]) -> Result<Option<Vec<MissEvent>>, TestCaseError> {
    match read_event_trace(input) {
        Ok(arena) => return Ok(Some(arena.iter().collect())),
        Err(TraceIoError::Truncated { offset, .. } | TraceIoError::Corrupt { offset, .. }) => {
            prop_assert!(offset as usize <= input.len(), "offset {offset} past {}", input.len());
        }
        Err(TraceIoError::BadMagic { found, .. }) => prop_assert!(input.starts_with(&found)),
        Err(e) => prop_assert!(false, "not an event-trace format fault: {e}"),
    }
    Ok(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_trace_survives_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        count in prop_oneof![0u64..12, any::<u64>()],
    ) {
        check_event_trace(&bytes)?;
        // Past the header, so the record decoder sees the bytes too.
        check_event_trace(&[event_header(count), bytes].concat())?;
    }

    #[test]
    fn event_trace_survives_every_cut(events in arbitrary_events(12)) {
        let mut arena = EventArena::new();
        events.iter().for_each(|&ev| arena.push(ev));
        let mut full = Vec::new();
        write_event_trace(&mut full, &arena).expect("write to memory");
        let whole = check_event_trace(&full)?.expect("a valid encoding reads back");
        prop_assert_eq!(whole, events);
        // The count header is authoritative: every proper prefix is short.
        for cut in 0..full.len() {
            match read_event_trace(&full[..cut]) {
                Err(TraceIoError::Truncated { offset, .. }) => prop_assert!(offset as usize <= cut),
                other => prop_assert!(false, "cut at {cut}: {other:?}"),
            }
        }
    }
}

#[test]
fn event_trace_claiming_u64_max_events_fails_as_truncated() {
    // One whole record and a few stray bytes under a header that claims
    // 2^64 - 1 events: the reader must stop at the short record instead
    // of reserving room for the claimed count.
    let record = [0u8; 17];
    let input = [&event_header(u64::MAX)[..], &record, &[0u8; 5]].concat();
    match read_event_trace(&input[..]) {
        Err(TraceIoError::Truncated { offset, .. }) => assert_eq!(offset, 16 + 17),
        other => panic!("expected a truncation at the second record, got {other:?}"),
    }
}
