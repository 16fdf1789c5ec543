//! Quickstart: evaluate one cache configuration on one workload.
//!
//! Builds the paper's §8 headline configuration — split 8KB direct-mapped
//! L1 caches over a 64KB 4-way *exclusive* L2 — runs the li-like workload
//! through it, and prints the miss rates, the derived cycle times, the
//! chip area, and the resulting time per instruction.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use two_level_cache::area::AreaModel;
use two_level_cache::study::{evaluate, L2Policy, MachineConfig, MachineTiming, SimBudget};
use two_level_cache::timing::TimingModel;
use two_level_cache::trace::spec::SpecBenchmark;

fn main() {
    let timing = TimingModel::paper(); // 0.5µm operating point (§2.3)
    let area = AreaModel::new(); // Mulder rbe model (§2.4)

    let config = MachineConfig::two_level(8, 64, 4, L2Policy::Exclusive, 50.0);
    let benchmark = SpecBenchmark::Li;

    println!("configuration : {config}");
    println!("workload      : {benchmark} (synthetic SPEC'89-like stream)");

    let t = MachineTiming::derive(&config, &timing, &area);
    println!("\nderived physical parameters:");
    println!("  processor cycle   : {:.2} ns (set by the L1, §2.1)", t.l1_cycle_ns);
    println!(
        "  L2 cycle          : {:.2} ns raw -> {} processor cycles (§2.3 rounding)",
        t.l2_raw_cycle_ns, t.l2_cycles
    );
    println!("  off-chip service  : {:.2} ns after rounding", t.offchip_rounded_ns);
    println!("  chip area         : {:.0} rbe (both L1s + L2)", t.area_rbe);

    let point = evaluate(&config, &mut benchmark.workload(), SimBudget::standard(), &timing, &area);
    let s = &point.stats;
    println!("\nsimulation ({} measured instructions):", s.instructions);
    println!("  L1 miss rate      : {:.4} per reference", s.l1_miss_rate());
    println!("  L2 local miss rate: {:.4} per L1 miss", s.l2_local_miss_rate());
    println!("  global miss rate  : {:.4} go off-chip", s.global_miss_rate());

    println!("\nresult:");
    println!("  TPI = {:.2} ns/instruction  (CPI {:.2})", point.tpi_ns, point.cpi);
}
