//! `--help` prints the usage text and exits 0, at the top level and
//! after a subcommand alike; it never runs the command.

use std::process::Command;

#[test]
fn help_flag_prints_usage_and_exits_zero() {
    for args in [&["--help"][..], &["sweep", "--help"], &["evaluate", "--workload", "li", "--help"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_tlc")).args(args).output().expect("tlc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: stderr {stderr:?}");
        assert!(stdout.starts_with("tlc — "), "{args:?}: stdout {stdout:?}");
        assert!(stdout.contains("usage: tlc <command> [options]"), "{args:?}");
        assert!(stderr.is_empty(), "{args:?}: stderr {stderr:?}");
    }
}
