//! A `TLCTRC01` file cut inside a record must fail every command that
//! reads it — `trace info`, `trace sample` and `sweep --trace` — with a
//! non-zero exit naming the truncation and the cut record's offset.
//! So must a raw binary address list that ends inside an address word,
//! when `trace import` converts it.

use std::path::{Path, PathBuf};
use std::process::Command;
use tlc_trace::compact::write_compact_trace;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::TraceReader;

/// Writes `records` gcc1 instructions cut one byte into record
/// `cut_record`; returns the file and that record's byte offset.
fn truncated_trace(dir: &Path, records: usize, cut_record: usize) -> (PathBuf, u64) {
    let mut bytes = Vec::new();
    write_compact_trace(&mut bytes, &SpecBenchmark::Gcc1.workload().take_instructions(records))
        .unwrap();
    let mut reader = TraceReader::new(&bytes[..], "offsets").unwrap();
    for _ in 0..cut_record {
        reader.try_next().unwrap().expect("record before the cut");
    }
    let cut_offset = reader.byte_offset();
    bytes.truncate(cut_offset as usize + 1);
    let path = dir.join("cut.trc");
    std::fs::write(&path, bytes).unwrap();
    (path, cut_offset)
}

fn tlc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tlc")).args(args).output().expect("tlc runs")
}

#[test]
fn truncated_trace_fails_info_sample_and_sweep() {
    let dir = std::env::temp_dir().join(format!("tlc-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, offset) = truncated_trace(&dir, 20_000, 15_000);
    let trace = trace.to_str().unwrap();
    let expected = format!("truncated trace at byte offset {offset}: record 15000 cut short");
    for args in [
        vec!["trace", "info", trace, "--interval", "1000"],
        vec!["trace", "sample", trace, "--interval", "1000", "--k", "2"],
        vec!["sweep", "--trace", trace, "--threads", "1", "--csv"],
    ] {
        let out = tlc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail on a cut trace");
        assert!(stderr.contains(&expected), "{args:?}: stderr {stderr:?} lacks {expected:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn raw_address_list_with_a_partial_word_fails_import() {
    let dir = std::env::temp_dir().join(format!("tlc-truncated-addr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes: Vec<u8> = (0..10u64).flat_map(|i| (0x1000 + 64 * i).to_le_bytes()).collect();
    bytes.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
    let input = dir.join("cut.bin");
    std::fs::write(&input, &bytes).unwrap();
    let output = dir.join("out.trc");
    let args = [
        "trace",
        "import",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--format",
        "addr-bin",
    ];
    let out = tlc(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a trailing partial address word must fail the import");
    let expected = "truncated trace at byte offset 80";
    assert!(stderr.contains(expected), "stderr {stderr:?} lacks {expected:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
