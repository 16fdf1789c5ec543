//! The paper's §10 future work, explored: multicycle pipelined L1 caches
//! and non-blocking loads.
//!
//! §10 makes two conjectures about extensions the authors were still
//! working on in 1993:
//!
//! 1. multicycle L1s "reduce the effectiveness of two-level on-chip
//!    caching" because a big L1 no longer drags the cycle time down;
//! 2. non-blocking loads "may increase the benefits of a two-level
//!    on-chip caching organization".
//!
//! This example sweeps the single-level sizes under each model and shows
//! how the optimum moves.
//!
//! ```text
//! cargo run --release --example future_work
//! ```

use two_level_cache::area::{AreaModel, CacheGeometry, CellKind};
use two_level_cache::study::future::{tpi_extended, FutureWorkModel};
use two_level_cache::study::{evaluate, MachineConfig, MachineTiming, SimBudget};
use two_level_cache::timing::TimingModel;
use two_level_cache::trace::spec::SpecBenchmark;

fn main() {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let budget = SimBudget { instructions: 400_000, warmup_instructions: 120_000 };
    let benchmark = SpecBenchmark::Gcc1;

    // The fixed datapath cycle a multicycle design would use: what the
    // fastest (1KB) L1 allows.
    let datapath = timing.optimal(&CacheGeometry::paper(1024, 1), CellKind::SinglePorted).cycle_ns;
    println!("datapath cycle for the multicycle model: {datapath:.2} ns\n");

    let models = [
        ("baseline (L1 sets the cycle, blocking)", FutureWorkModel::baseline()),
        ("multicycle pipelined L1", FutureWorkModel::multicycle(datapath, 0.3)),
        ("non-blocking (50% overlap)", FutureWorkModel::baseline().with_miss_overlap(0.5)),
    ];

    println!("single-level TPI (ns) for {benchmark} under each model:\n");
    print!("{:>6}", "L1");
    for (name, _) in &models {
        print!(" {:>38}", name);
    }
    println!();

    let mut best: Vec<(f64, u64)> = vec![(f64::INFINITY, 0); models.len()];
    for kb in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
        let cfg = MachineConfig::single_level(kb, 50.0);
        let point = evaluate(&cfg, &mut benchmark.workload(), budget, &timing, &area);
        let t = MachineTiming::derive(&cfg, &timing, &area);
        print!("{kb:>5}K");
        for (i, (_, m)) in models.iter().enumerate() {
            let tpi = tpi_extended(&point.stats, &t, m);
            if tpi < best[i].0 {
                best[i] = (tpi, kb);
            }
            print!(" {tpi:>38.2}");
        }
        println!();
    }

    println!("\noptimum single-level size per model:");
    for ((name, _), (tpi, kb)) in models.iter().zip(&best) {
        println!("  {name:<40} {kb:>4}KB at {tpi:.2} ns");
    }
    println!(
        "\nWith a multicycle L1 the optimum moves to larger caches (big L1s stop\n\
         taxing the cycle time), which is exactly why §10 expects the technique\n\
         to reduce the appeal of an on-chip L2."
    );
}
