//! Replays the committed audit regression corpus under `tests/corpus/`.
//!
//! Every corpus entry is a pair written by `tlc audit` after `ddmin`
//! shrinking: `<stem>.evt` (a packed `TLCEVT01` event trace) plus
//! `<stem>.json` (a `tlc-audit-corpus/1` sidecar naming the geometry it
//! diverged on). Entries with `expect_divergence: false` pin a fixed
//! bug — the engines must agree on them forever. Entries with `true`
//! document a benign divergence — it must keep reproducing exactly as
//! the sidecar's note describes.

use std::fs;
use std::path::PathBuf;
use tlc_core::audit::{replay_corpus_entry, CorpusEntryMeta, CORPUS_ENTRY_SCHEMA};
use tlc_trace::io::{read_event_trace, write_event_trace};
use tlc_trace::shrink::ddmin;
use tlc_trace::{AccessKind, EventArena, LineAddr, MissEvent, VictimLine};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Loads every `<stem>.json` sidecar (sorted for deterministic order)
/// with its decoded event trace.
fn load_corpus() -> Vec<(String, CorpusEntryMeta, EventArena)> {
    let dir = corpus_dir();
    let mut stems: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    stems.sort();
    stems
        .into_iter()
        .map(|sidecar| {
            let stem =
                sidecar.file_stem().and_then(|s| s.to_str()).expect("utf-8 stem").to_string();
            let meta: CorpusEntryMeta =
                serde_json::from_str(&fs::read_to_string(&sidecar).expect("sidecar readable"))
                    .unwrap_or_else(|e| panic!("{stem}.json is not a corpus sidecar: {e}"));
            let evt = sidecar.with_extension("evt");
            let events = read_event_trace(
                fs::File::open(&evt)
                    .unwrap_or_else(|e| panic!("{stem}.json has no matching {stem}.evt: {e}")),
            )
            .unwrap_or_else(|e| panic!("{stem}.evt is not a valid event trace: {e}"));
            (stem, meta, events)
        })
        .collect()
}

#[test]
fn every_corpus_entry_replays_as_documented() {
    for (stem, meta, events) in load_corpus() {
        assert_eq!(meta.schema, CORPUS_ENTRY_SCHEMA, "{stem}: unknown sidecar schema");
        assert!(!meta.note.is_empty(), "{stem}: sidecar must explain itself");
        let divergence = replay_corpus_entry(&meta, events)
            .unwrap_or_else(|e| panic!("{stem}: the trace is not replayable: {e}"));
        if meta.expect_divergence {
            assert!(
                divergence.is_some(),
                "{stem}: documented divergence no longer reproduces — \
                 if the underlying behavior was fixed, delete the entry \
                 (note: {})",
                meta.note
            );
        } else {
            assert_eq!(
                divergence, None,
                "{stem}: regression! a previously-fixed divergence is back \
                 (note: {})",
                meta.note
            );
        }
    }
}

/// A synthetic entry exercises the full corpus pipeline (serialize,
/// strict decode, sidecar round-trip, oracle replay) even while the
/// committed corpus holds no divergence witnesses.
#[test]
fn synthetic_corpus_entry_round_trips_and_agrees() {
    let mut events = EventArena::new();
    for i in 0..64u64 {
        events.push(MissEvent {
            kind: if i % 3 == 0 { AccessKind::InstrFetch } else { AccessKind::Load },
            line: LineAddr(i % 17),
            victim: (i % 5 == 0)
                .then(|| VictimLine { line: LineAddr((i + 7) % 17), written: i % 10 == 0 }),
        });
    }
    let mut buf = Vec::new();
    write_event_trace(&mut buf, &events).expect("serialize");
    let decoded = read_event_trace(buf.as_slice()).expect("strict decode");
    assert_eq!(decoded.len(), events.len());

    let meta = CorpusEntryMeta {
        schema: CORPUS_ENTRY_SCHEMA.to_string(),
        check: "family-vs-oracle".to_string(),
        l1_size_bytes: 1024,
        line_bytes: 16,
        warmup_events: 0,
        l2: Some(tlc_core::L2Spec {
            size_bytes: 4096,
            ways: 2,
            policy: tlc_core::L2Policy::Conventional,
            repl: tlc_cache::ReplacementKind::PseudoRandom,
        }),
        note: "synthetic pipeline check; engines agree".to_string(),
        expect_divergence: false,
    };
    assert_eq!(replay_corpus_entry(&meta, decoded), Ok(None));
}

/// A `.evt` file can carry any 64-bit line word, but no address has a
/// line above `u64::MAX / line_bytes`. Such an entry is rejected, not
/// replayed: `u64::MAX >> 1` is the line an empty cache slot decodes
/// to, so replaying it as a cold load reported an L2 hit in an empty
/// cache, in every family back-end.
#[test]
fn out_of_range_line_words_are_rejected_not_replayed() {
    use tlc_cache::filter_family::FamilyError;
    let max_line = u64::MAX / 16;
    let entry = |line: u64, victim: Option<u64>| {
        let mut events = EventArena::new();
        events.push(MissEvent {
            kind: AccessKind::Load,
            line: LineAddr(line),
            victim: victim.map(|v| VictimLine { line: LineAddr(v), written: true }),
        });
        events
    };
    for policy in [tlc_core::L2Policy::Conventional, tlc_core::L2Policy::Exclusive] {
        for ways in [1u32, 4] {
            let meta = CorpusEntryMeta {
                schema: CORPUS_ENTRY_SCHEMA.to_string(),
                check: "family-vs-oracle".to_string(),
                l1_size_bytes: 1024,
                line_bytes: 16,
                warmup_events: 0,
                l2: Some(tlc_core::L2Spec {
                    size_bytes: 4096,
                    ways,
                    policy,
                    repl: tlc_cache::ReplacementKind::PseudoRandom,
                }),
                note: "out-of-range line words".to_string(),
                expect_divergence: false,
            };
            for (line, victim) in [(u64::MAX >> 1, None), (max_line + 1, None), (1, Some(u64::MAX))]
            {
                let bad = line.max(victim.unwrap_or(0));
                assert_eq!(
                    replay_corpus_entry(&meta, entry(line, victim)),
                    Err(FamilyError::LineOutOfRange { event: 0, line: bad, max_line }),
                    "{policy:?} {ways}-way line {line:#x}"
                );
            }
            // The last line of the address space is a cold miss like any
            // other, in the engine and in the oracle alike.
            assert_eq!(
                replay_corpus_entry(&meta, entry(max_line, Some(max_line - 1))),
                Ok(None),
                "{policy:?} {ways}-way"
            );
        }
    }
}

/// A sidecar is untrusted input: a geometry no front-end has, or a
/// warm-up boundary past the last event, is rejected with a typed error
/// instead of panicking the replay.
#[test]
fn malformed_sidecars_are_rejected_not_panicking() {
    use tlc_cache::filter_family::FamilyError;
    let sidecar = |l1: u64, line: u64, warmup: u64| -> CorpusEntryMeta {
        let json = format!(
            r#"{{"schema":"{CORPUS_ENTRY_SCHEMA}","check":"family-vs-oracle",
                "l1_size_bytes":{l1},"line_bytes":{line},"warmup_events":{warmup},
                "l2":null,"note":"malformed","expect_divergence":false}}"#
        );
        serde_json::from_str(&json).expect("a well-formed sidecar document")
    };
    // 1000 B is no power of two; warm-up 5 of 0 events is out of range too.
    assert_eq!(
        replay_corpus_entry(&sidecar(1000, 16, 5), EventArena::new()),
        Err(FamilyError::L1Geometry { l1_size_bytes: 1000, line_bytes: 16 })
    );
    assert_eq!(
        replay_corpus_entry(&sidecar(1024, 24, 0), EventArena::new()),
        Err(FamilyError::L1Geometry { l1_size_bytes: 1024, line_bytes: 24 })
    );
    // An L1 smaller than one line.
    assert_eq!(
        replay_corpus_entry(&sidecar(16, 32, 0), EventArena::new()),
        Err(FamilyError::L1Geometry { l1_size_bytes: 16, line_bytes: 32 })
    );
    assert_eq!(
        replay_corpus_entry(&sidecar(1024, 16, 5), EventArena::new()),
        Err(FamilyError::WarmupOutOfRange { warmup_events: 5, events: 0 })
    );
    // The boundary at the very end is a stream that measured nothing.
    assert_eq!(replay_corpus_entry(&sidecar(1024, 16, 0), EventArena::new()), Ok(None));
}

/// The acceptance bar for archived witnesses: re-running the shrinker
/// on the same failing input reproduces the same minimal trace
/// byte-for-byte (so corpus entries are stable across audit re-runs).
#[test]
fn shrinker_is_deterministic_on_event_traces() {
    let events: Vec<MissEvent> = (0..40u64)
        .map(|i| MissEvent {
            kind: if i % 2 == 0 { AccessKind::Load } else { AccessKind::Store },
            line: LineAddr(i),
            victim: None,
        })
        .collect();
    // An artificial failure predicate: "contains lines 13 and 29".
    let fails =
        |c: &[MissEvent]| c.iter().any(|e| e.line.0 == 13) && c.iter().any(|e| e.line.0 == 29);
    let serialize = |minimal: &[MissEvent]| {
        let mut arena = EventArena::new();
        for e in minimal {
            arena.push(*e);
        }
        let mut buf = Vec::new();
        write_event_trace(&mut buf, &arena).expect("serialize");
        buf
    };
    let first = serialize(&ddmin(&events, fails));
    let second = serialize(&ddmin(&events, fails));
    assert_eq!(first, second, "ddmin must shrink to identical bytes");
    assert_eq!(first.len(), 8 + 8 + 2 * 17, "1-minimal: exactly the two culprits");
}
