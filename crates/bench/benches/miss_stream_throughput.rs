//! Miss-stream filtering throughput: how much faster an L2 evaluation
//! gets once the L1 has been simulated out of the loop.
//!
//! Three measurements over one benchmark and one shared L1:
//!
//! 1. `capture_miss_stream` — the one-time cost of running the L1 over
//!    the arena and packing its miss/victim events;
//! 2. a family of one (`simulate_family`) vs `simulate_arena` — the
//!    per-configuration cost with and without the L1 in the loop (the
//!    miss-stream back-end touches only the events, typically a small
//!    fraction of the references);
//! 3. the end-to-end family sweep vs a per-access `simulate_arena` loop
//!    over the two-level design space, both on one thread, where every
//!    configuration shares one of a few L1 front-ends.
//!
//! For the committed machine-readable comparison, see `BENCH_sweep.json`
//! (regenerate with `repro bench-sweep <path>`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tlc_area::AreaModel;
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::{
    capture_benchmark, capture_miss_stream, simulate_arena, simulate_family, SimBudget,
};
use tlc_core::runner::try_sweep_family_arena_threads;
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;

const BUDGET: SimBudget = SimBudget { instructions: 120_000, warmup_instructions: 30_000 };

fn bench_miss_stream(c: &mut Criterion) {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let arena = capture_benchmark(SpecBenchmark::Espresso, BUDGET);
    let refs = BUDGET.warmup_instructions + BUDGET.instructions;

    let mut group = c.benchmark_group("miss_stream_150k_instructions");

    // One-time per-L1 cost: simulate the front-end and pack the events.
    group.throughput(Throughput::Elements(refs));
    group.bench_function("capture_miss_stream_4k", |b| {
        b.iter(|| {
            capture_miss_stream(4 * 1024, 16, &arena, BUDGET, usize::MAX)
                .expect("unbounded capture succeeds")
        })
    });

    // Per-configuration cost: full arena replay (L1 in the loop) vs
    // event replay (L1 simulated out).
    let stream = capture_miss_stream(4 * 1024, 16, &arena, BUDGET, usize::MAX)
        .expect("unbounded capture succeeds");
    for (label, cfg) in [
        ("conventional", MachineConfig::two_level(4, 64, 4, L2Policy::Conventional, 50.0)),
        ("exclusive", MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0)),
    ] {
        group.bench_function(BenchmarkId::new("arena_per_config", label), |b| {
            b.iter(|| simulate_arena(&cfg, &arena, BUDGET))
        });
        group.bench_function(BenchmarkId::new("family_of_one_per_config", label), |b| {
            b.iter(|| simulate_family(std::slice::from_ref(&cfg), &stream))
        });
    }

    // End-to-end on the two-level design space, where the filtering pays
    // for itself: every configuration shares one of a few L1 fronts.
    let mut space = full_space(&SpaceOptions::baseline());
    space.extend(full_space(&SpaceOptions {
        l2_policy: L2Policy::Exclusive,
        ..SpaceOptions::baseline()
    }));
    let twolevel: Vec<MachineConfig> = space.into_iter().filter(|c| c.l2.is_some()).collect();
    group.throughput(Throughput::Elements(refs * twolevel.len() as u64));
    group.bench_function(BenchmarkId::new("arena_sweep_twolevel", twolevel.len()), |b| {
        b.iter(|| twolevel.iter().map(|c| simulate_arena(c, &arena, BUDGET)).collect::<Vec<_>>())
    });
    group.bench_function(BenchmarkId::new("family_sweep_twolevel", twolevel.len()), |b| {
        b.iter(|| {
            try_sweep_family_arena_threads(&twolevel, &arena, BUDGET, &timing, &area, 1)
                .expect("sweep")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_miss_stream);
criterion_main!(benches);
