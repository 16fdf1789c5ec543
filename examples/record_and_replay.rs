//! Record a workload to a trace file, replay it through a hierarchy, and
//! verify the replay reproduces the live run exactly.
//!
//! The 1993 study was trace-driven (§2.2); this repository's workloads
//! are synthetic, but the same harness accepts recorded traces — yours
//! included — as `TLCTRC01` files, written by [`CompactTraceWriter`] and
//! streamed back by [`TraceReader`].
//!
//! ```text
//! cargo run --release --example record_and_replay [-- /path/to/trace.trc]
//! ```
//!
//! With a path argument, the example replays *that* `TLCTRC01` trace
//! instead of recording a synthetic one. A trace in another format (flat
//! `I`/`L`/`S` references, address lists, `TLCITR01`) converts first:
//!
//! ```text
//! tlc trace import raw.txt trace.trc
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use two_level_cache::study::experiment::{simulate_source, SimBudget};
use two_level_cache::study::{L2Policy, MachineConfig};
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::{CompactTraceWriter, TraceReader};

fn main() -> std::io::Result<()> {
    let cfg = MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0);
    let budget = SimBudget { instructions: 200_000, warmup_instructions: 50_000 };
    let n_total = budget.instructions + budget.warmup_instructions;

    let (path, recorded) = match std::env::args().nth(1) {
        Some(path) => (path.into(), false),
        None => {
            // Record the li workload to a temporary trace file.
            let path = std::env::temp_dir().join("tlc_li_trace.trc");
            println!("recording {n_total} instructions of li to {}...", path.display());
            let mut writer = CompactTraceWriter::new(BufWriter::new(File::create(&path)?))?;
            let mut live = SpecBenchmark::Li.workload();
            for _ in 0..n_total {
                writer.write(&live.next_instruction())?;
            }
            writer.into_inner()?;
            let size = std::fs::metadata(&path)?.len();
            println!(
                "trace file: {size} bytes ({:.1} bytes/instruction)",
                size as f64 / n_total as f64
            );
            (path, true)
        }
    };

    // Everything downstream reads only the file, streamed record by
    // record: the trace is never held in memory whole.
    let name = path.display().to_string();
    let mut replay =
        TraceReader::new(BufReader::new(File::open(&path)?), name.as_str()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{name}: {e} (convert other formats with `tlc trace import`)"),
            )
        })?;
    println!("replaying {name} through {cfg}...");
    let replay_stats = simulate_source(&cfg, &mut replay, budget);
    if let Some(e) = replay.take_error() {
        return Err(e.into());
    }
    if replay.decoded() <= budget.warmup_instructions {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{name}: {} instructions leave nothing to measure after the {}-instruction warm-up",
                replay.decoded(),
                budget.warmup_instructions
            ),
        ));
    }
    println!("replay : {replay_stats} ({} instructions decoded)", replay.decoded());

    if recorded {
        // Cross-check against the live generator.
        let mut live = SpecBenchmark::Li.workload();
        let live_stats = simulate_source(&cfg, &mut live, budget);
        println!("live   : {live_stats}");
        assert_eq!(replay_stats, live_stats, "replay must reproduce the live run exactly");
        println!("replay == live: the trace file round-trips losslessly.");
    }
    Ok(())
}
