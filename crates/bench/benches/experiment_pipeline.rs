//! End-to-end pipeline benchmarks: one full §2 evaluation (simulate +
//! time + area + TPI) per policy, plus an ablation comparing the
//! conventional and exclusive policies at identical geometry — the
//! design choice §8 argues for.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tlc_area::AreaModel;
use tlc_core::experiment::{evaluate, SimBudget};
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;

fn bench_evaluate(c: &mut Criterion) {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let budget = SimBudget { instructions: 30_000, warmup_instructions: 5_000 };
    let mut group = c.benchmark_group("evaluate_30k_instructions");
    let cases = [
        ("single_level_32k", MachineConfig::single_level(32, 50.0)),
        ("conventional_8k_64k", MachineConfig::two_level(8, 64, 4, L2Policy::Conventional, 50.0)),
        ("exclusive_8k_64k", MachineConfig::two_level(8, 64, 4, L2Policy::Exclusive, 50.0)),
    ];
    for (name, cfg) in cases {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| evaluate(&cfg, &mut SpecBenchmark::Gcc1.workload(), budget, &timing, &area))
        });
    }
    group.finish();
}

/// Ablation: policy head-to-head across the L2/L1 capacity ratio. Not a
/// speed benchmark — it prints the off-chip miss reduction the exclusive
/// policy buys at each ratio, then times one representative point so the
/// data regenerates on every `cargo bench` run.
fn bench_policy_ablation(c: &mut Criterion) {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let budget = SimBudget { instructions: 60_000, warmup_instructions: 20_000 };
    println!("\npolicy ablation (gcc1): off-chip misses, conventional vs exclusive");
    for (l1, l2) in [(4u64, 8u64), (4, 16), (4, 32), (4, 64), (4, 128)] {
        let conv = evaluate(
            &MachineConfig::two_level(l1, l2, 4, L2Policy::Conventional, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            budget,
            &timing,
            &area,
        );
        let excl = evaluate(
            &MachineConfig::two_level(l1, l2, 4, L2Policy::Exclusive, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            budget,
            &timing,
            &area,
        );
        println!(
            "  {l1}:{l2}  conv {:>6}  excl {:>6}  ({:+.1}%)",
            conv.stats.l2_misses,
            excl.stats.l2_misses,
            (excl.stats.l2_misses as f64 / conv.stats.l2_misses as f64 - 1.0) * 100.0
        );
    }
    let cfg = MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0);
    c.bench_function("ablation_exclusive_4k_32k", |b| {
        b.iter(|| evaluate(&cfg, &mut SpecBenchmark::Gcc1.workload(), budget, &timing, &area))
    });
}

criterion_group!(benches, bench_evaluate, bench_policy_ablation);
criterion_main!(benches);
