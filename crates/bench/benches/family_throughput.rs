//! Family-batched replay throughput: how much faster a two-level sweep
//! gets once each (L1, policy, ways) family's miss stream is decoded
//! once for every L2 size instead of once per configuration.
//!
//! Three measurements over one benchmark and one shared L1:
//!
//! 1. `evaluate_family` over a full nested-size family vs one family of
//!    one per member — the decode-sharing win in isolation;
//! 2. the same comparison for the direct-mapped fast path, where the
//!    whole family is answered from one "smallest hitting size"
//!    threshold per event;
//! 3. the end-to-end family sweep over the two-level design space,
//!    single-threaded so the figure is pure engine work.
//!
//! For the committed machine-readable comparison, see `BENCH_sweep.json`
//! (regenerate with `repro bench-sweep <path>`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlc_area::AreaModel;
use tlc_core::configspace::{full_space, SpaceOptions, L2_SIZES_KB};
use tlc_core::experiment::{capture_benchmark, capture_miss_stream, evaluate_family, SimBudget};
use tlc_core::runner::try_sweep_family_arena_threads;
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;

const BUDGET: SimBudget = SimBudget { instructions: 120_000, warmup_instructions: 30_000 };

fn bench_family(c: &mut Criterion) {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let arena = capture_benchmark(SpecBenchmark::Espresso, BUDGET);
    let refs = BUDGET.warmup_instructions + BUDGET.instructions;
    let stream = capture_miss_stream(4 * 1024, 16, &arena, BUDGET, usize::MAX)
        .expect("unbounded capture succeeds");

    let mut group = c.benchmark_group("family_150k_instructions");

    // Per-family cost: one batched pass over the events vs one pass per
    // member, for every policy/associativity shape.
    for (label, ways, policy) in [
        ("conventional_4way", 4, L2Policy::Conventional),
        ("conventional_dm", 1, L2Policy::Conventional),
        ("exclusive_4way", 4, L2Policy::Exclusive),
    ] {
        let family: Vec<MachineConfig> = L2_SIZES_KB
            .iter()
            .filter(|&&kb| kb >= 8)
            .map(|&kb| MachineConfig::two_level(4, kb, ways, policy, 50.0))
            .collect();
        group.throughput(Throughput::Elements(family.len() as u64));
        group.bench_function(BenchmarkId::new("family_of_one_per_member", label), |b| {
            b.iter(|| {
                family
                    .iter()
                    .map(|cfg| evaluate_family(std::slice::from_ref(cfg), &stream, &timing, &area))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function(BenchmarkId::new("family_batched", label), |b| {
            b.iter(|| evaluate_family(&family, &stream, &timing, &area))
        });
    }

    // End-to-end on the two-level design space, single-threaded.
    let mut space = full_space(&SpaceOptions::baseline());
    space.extend(full_space(&SpaceOptions {
        l2_policy: L2Policy::Exclusive,
        ..SpaceOptions::baseline()
    }));
    let twolevel: Vec<MachineConfig> = space.into_iter().filter(|c| c.l2.is_some()).collect();
    group.throughput(Throughput::Elements(refs * twolevel.len() as u64));
    group.bench_function(BenchmarkId::new("family_sweep_twolevel", twolevel.len()), |b| {
        b.iter(|| {
            try_sweep_family_arena_threads(&twolevel, &arena, BUDGET, &timing, &area, 1)
                .expect("sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_family);
criterion_main!(benches);
