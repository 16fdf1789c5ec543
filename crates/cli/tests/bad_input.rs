//! Caller input the simulator cannot run — an unbuildable cache
//! geometry, a meaningless off-chip latency, an empty measurement window,
//! a malformed trace to import — must be an argument error: exit status
//! 2, an `error:` line naming the problem, and no panic.

use std::process::Command;
use tlc_trace::compact::write_compact_trace;
use tlc_trace::spec::SpecBenchmark;

/// Runs `tlc args` and asserts it was rejected as an argument error
/// whose message contains `expected`.
fn assert_rejected(args: &[&str], expected: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_tlc")).args(args).output().expect("tlc runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert!(stderr.starts_with("error: "), "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(expected), "{args:?}: stderr {stderr:?} lacks {expected:?}");
    assert!(!stderr.contains("panicked"), "{args:?}: stderr {stderr:?}");
}

#[test]
fn evaluate_rejects_an_unbuildable_geometry() {
    assert_rejected(
        &["evaluate", "--workload", "li", "--l1", "3"],
        "L1 cache size must be a power of two",
    );
    assert_rejected(
        &["evaluate", "--workload", "li", "--l2", "64", "--ways", "0"],
        "L2 invalid way count 0",
    );
}

#[test]
fn sweep_rejects_an_unbuildable_l2_associativity() {
    for ways in ["3", "0", "512"] {
        assert_rejected(
            &["sweep", "--workload", "li", "--ways", ways],
            &format!("L2 invalid way count {ways}"),
        );
    }
}

#[test]
fn sweep_rejects_a_non_finite_or_negative_offchip_latency() {
    for ns in ["nan", "inf", "-5"] {
        assert_rejected(
            &["sweep", "--workload", "li", "--offchip", ns],
            "--offchip must be a finite, non-negative ns count",
        );
    }
}

#[test]
fn sweep_rejects_an_empty_measurement_window() {
    assert_rejected(&["sweep", "--workload", "li", "--instr", "0"], "--instr must be at least 1");
    let dir = std::env::temp_dir().join(format!("tlc-bad-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("short.trc");
    let mut bytes = Vec::new();
    write_compact_trace(&mut bytes, &SpecBenchmark::Li.workload().take_instructions(2_000))
        .unwrap();
    std::fs::write(&trace, bytes).unwrap();
    let trace = trace.to_str().unwrap();
    for warmup in ["2000", "5000"] {
        assert_rejected(
            &["sweep", "--trace", trace, "--warmup", warmup, "--threads", "1"],
            "nothing left to measure",
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_rejects_the_removed_arena_engine() {
    assert_rejected(
        &["sweep", "--workload", "li", "--engine", "arena"],
        "unknown engine \"arena\"; choose auto, family or predict",
    );
}

#[test]
fn failed_import_leaves_nothing_at_the_output_path() {
    use tlc_trace::io::{BINARY_MAGIC, INSTR_MAGIC};
    let dir = std::env::temp_dir().join(format!("tlc-bad-import-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // 300 flat references, the last one cut 4 bytes short.
    let mut refs = BINARY_MAGIC.to_vec();
    for i in 0..300u64 {
        refs.push((i % 3) as u8);
        refs.extend_from_slice(&(0x1000 + 8 * i).to_le_bytes());
    }
    refs.truncate(refs.len() - 4);
    // 20 fetch-only instructions, then a record with an unknown flags bit.
    let mut instrs = INSTR_MAGIC.to_vec();
    for i in 0..21u64 {
        instrs.push(if i == 20 { 0b100 } else { 0 });
        instrs.extend_from_slice(&(0x400 + 4 * i).to_le_bytes());
    }
    let cases = [
        ("cut.ref", refs, "truncated trace at byte offset 2699"),
        ("badflags.itr", instrs, "unknown instruction-record flags 0x04"),
        // A text line that is not UTF-8 is named like any malformed line.
        ("notutf8.txt", b"I 0x100\nL 0x2\xff00\n".to_vec(), "byte offset 8"),
    ];
    for (name, bytes, expected) in cases {
        let input = dir.join(name);
        std::fs::write(&input, bytes).unwrap();
        let out = dir.join(format!("{name}.trc"));
        let part = dir.join(format!("{name}.trc.part"));
        let mut args = vec!["trace", "import", input.to_str().unwrap(), out.to_str().unwrap()];
        if name.ends_with(".txt") {
            args.extend(["--format", "text"]);
        }
        assert_rejected(&args, expected);
        assert!(!out.exists(), "{name}: a failed import left {}", out.display());
        assert!(!part.exists(), "{name}: a failed import left {}", part.display());
        // A trace already at the output path survives a failed import.
        std::fs::write(&out, b"previous").unwrap();
        assert_rejected(&args, expected);
        assert_eq!(std::fs::read(&out).unwrap(), b"previous", "{name}");
        assert!(!part.exists(), "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
