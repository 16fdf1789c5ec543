//! Caller input the simulator cannot run — an unbuildable cache
//! geometry, a meaningless off-chip latency, an empty measurement window
//! — must be an argument error: exit status 2, an `error:` line naming
//! the problem, and no panic.

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
