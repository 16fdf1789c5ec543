//! The sampled-sweep error contract: weighted phase recombination
//! reconstructs whole-trace results within
//! `SAMPLED_MISS_RATIO_EPSILON` of full replay, and the documented
//! degenerate cases (one interval covering the stream, any K) are exact
//! to the bit.
//!
//! Ground truth is the family engine replaying the entire captured
//! stream with no warm-up discard; the sampled run sees exactly the same
//! stream through `sample_source` + `capture_phase_slices` +
//! `try_sweep_sampled_threads` (stitched warming). Parameters follow the
//! module docs' guidance: the interval (40K instructions) delivers L1
//! miss counts comparable to the largest L2's line count, the warm-up
//! refresh is half an interval, and K = 5 over 12 intervals.

use two_level_cache::area::AreaModel;
use two_level_cache::cache::{miss_ratio_error, HierarchyStats};
use two_level_cache::study::experiment::{
    capture_miss_stream, capture_miss_stream_segments, simulate_arena, simulate_family_segments,
};
use two_level_cache::study::runner::{
    l1_groups, try_sweep_family_arena_threads, try_sweep_sampled_threads,
};
use two_level_cache::study::sampling::{
    capture_phase_slices, combine_weighted, sample_source, PhaseSlice, SampleOptions,
    SAMPLED_MISS_RATIO_EPSILON,
};
use two_level_cache::study::{DesignPoint, L2Policy, MachineConfig, SimBudget};
use two_level_cache::timing::TimingModel;
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::{ReplaySource, TraceArena};

const STREAM_LEN: u64 = 480_000;

/// One representative configuration per hierarchy shape the paper
/// studies: single-level, conventional two-level, exclusive two-level.
fn shapes() -> Vec<MachineConfig> {
    vec![
        MachineConfig::single_level(4, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0),
    ]
}

/// Full-replay ground truth: the whole stream, no warm-up discard.
fn full_points(benchmark: SpecBenchmark, configs: &[MachineConfig]) -> Vec<DesignPoint> {
    let records = benchmark.workload().take_instructions(STREAM_LEN as usize);
    let mut source = ReplaySource::new(benchmark.name(), records);
    let arena = TraceArena::capture(&mut source, STREAM_LEN);
    let budget = SimBudget { instructions: STREAM_LEN, warmup_instructions: 0 };
    try_sweep_family_arena_threads(
        configs,
        &arena,
        budget,
        &TimingModel::paper(),
        &AreaModel::new(),
        2,
    )
    .expect("sweep")
}

/// Sampled reconstruction of the same stream.
fn sampled_points(
    benchmark: SpecBenchmark,
    configs: &[MachineConfig],
    opts: &SampleOptions,
    warmup: u64,
) -> Vec<DesignPoint> {
    let records = benchmark.workload().take_instructions(STREAM_LEN as usize);
    let sample = sample_source(&mut ReplaySource::new(benchmark.name(), records.clone()), opts);
    sample.validate().expect("valid selection");
    let slices =
        capture_phase_slices(&mut ReplaySource::new(benchmark.name(), records), &sample, warmup);
    try_sweep_sampled_threads(configs, &slices, &TimingModel::paper(), &AreaModel::new(), 2)
        .expect("sweep")
}

#[test]
fn sampled_reconstruction_is_within_epsilon_on_every_benchmark() {
    let configs = shapes();
    let opts = SampleOptions { interval: 40_000, phases: 5, seed: 0xC1 };
    for benchmark in SpecBenchmark::ALL {
        let full = full_points(benchmark, &configs);
        let sampled = sampled_points(benchmark, &configs, &opts, 20_000);
        for (f, s) in full.iter().zip(&sampled) {
            assert_eq!(f.label, s.label);
            let err = miss_ratio_error(&f.stats, &s.stats);
            assert!(
                err <= SAMPLED_MISS_RATIO_EPSILON,
                "{benchmark} {}: local L2 miss-ratio error {err:.4} > ε {SAMPLED_MISS_RATIO_EPSILON}",
                f.label
            );
            let l1_err = (f.stats.l1_miss_rate() - s.stats.l1_miss_rate()).abs();
            assert!(
                l1_err <= SAMPLED_MISS_RATIO_EPSILON,
                "{benchmark} {}: L1 miss-ratio error {l1_err:.4} > ε",
                f.label
            );
        }
    }
}

#[test]
fn single_interval_selection_is_exact_for_any_k() {
    // interval >= stream: the one representative slice IS the stream and
    // its weight is 1.0, so recombination must equal full replay
    // bit-for-bit — for K = 1 and for K larger than the interval count.
    let configs = shapes();
    for benchmark in [SpecBenchmark::Li, SpecBenchmark::Fpppp] {
        let full = full_points(benchmark, &configs);
        for k in [1usize, 4] {
            let opts = SampleOptions { interval: STREAM_LEN, phases: k, seed: 9 };
            let sampled = sampled_points(benchmark, &configs, &opts, 0);
            for (f, s) in full.iter().zip(&sampled) {
                assert_eq!(
                    f.stats, s.stats,
                    "{benchmark} {} (k={k}): degenerate sampling must be exact",
                    f.label
                );
                assert!((f.tpi_ns - s.tpi_ns).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn sampled_sweep_is_deterministic_in_the_seed() {
    let configs = shapes();
    let opts = SampleOptions { interval: 40_000, phases: 3, seed: 0xDEADBEEF };
    let a = sampled_points(SpecBenchmark::Eqntott, &configs, &opts, 10_000);
    let b = sampled_points(SpecBenchmark::Eqntott, &configs, &opts, 10_000);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.stats, y.stats, "same seed must reproduce the sweep exactly");
    }
}

/// `n` records of `benchmark` starting at record `from`, as one phase
/// slice of `weight` with a `warmup`-record prefix.
fn slice_of(
    benchmark: SpecBenchmark,
    from: usize,
    n: usize,
    warmup: u64,
    weight: f64,
) -> PhaseSlice {
    let records = benchmark.workload().take_instructions(from + n).split_off(from);
    let arena = TraceArena::capture(&mut ReplaySource::new(benchmark.name(), records), n as u64);
    let budget = SimBudget { instructions: n as u64 - warmup, warmup_instructions: warmup };
    PhaseSlice { arena, budget, weight, representative: 0 }
}

#[test]
fn one_slice_segment_capture_equals_whole_stream_capture() {
    let slice = slice_of(SpecBenchmark::Gcc1, 0, 25_000, 5_000, 1.0);
    let whole = capture_miss_stream(4 * 1024, 16, &slice.arena, slice.budget, usize::MAX)
        .expect("unbounded capture");
    let mut segments =
        capture_miss_stream_segments(4 * 1024, 16, std::slice::from_ref(&slice), usize::MAX)
            .expect("unbounded capture");
    assert_eq!(segments.len(), 1);
    let seg = segments.pop().unwrap();
    assert!(!whole.is_empty());
    assert_eq!(seg.events().collect::<Vec<_>>(), whole.events().collect::<Vec<_>>());
    assert_eq!(seg.warmup_events(), whole.warmup_events());
    assert_eq!(seg.l1_stats(), whole.l1_stats());
    assert_eq!((seg.l1_size_bytes(), seg.line_bytes()), (whole.l1_size_bytes(), 16));
}

#[test]
fn multi_slice_sweep_stitches_every_l1_group_including_singletons() {
    // A 256KB single-level point is alone in its L1 group; it is
    // captured like any other (the capture carries L1 state from slice
    // to slice), so the sweep equals per-group stitched
    // capture + family replay + weighted recombination.
    let configs = vec![
        MachineConfig::single_level(256, 50.0),
        MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0),
    ];
    let slices = [
        slice_of(SpecBenchmark::Li, 0, 20_000, 2_000, 2.5),
        slice_of(SpecBenchmark::Li, 40_000, 20_000, 2_000, 1.5),
        slice_of(SpecBenchmark::Li, 90_000, 20_000, 2_000, 1.0),
    ];
    let swept =
        try_sweep_sampled_threads(&configs, &slices, &TimingModel::paper(), &AreaModel::new(), 2)
            .expect("sweep");
    for ((l1_size_bytes, line_bytes), idxs) in l1_groups(&configs) {
        let segments = capture_miss_stream_segments(l1_size_bytes, line_bytes, &slices, usize::MAX)
            .expect("unbounded capture");
        for i in idxs {
            let per_slice = simulate_family_segments(std::slice::from_ref(&configs[i]), &segments);
            let parts: Vec<(f64, HierarchyStats)> =
                per_slice.iter().zip(&slices).map(|(row, s)| (s.weight, row[0])).collect();
            assert_eq!(swept[i].stats, combine_weighted(&parts), "{}", configs[i].label());
        }
    }
    // Replaying each slice cold gives a different answer for the 256KB
    // L1, so the equality above really pins the capture.
    let cold: Vec<(f64, HierarchyStats)> = slices
        .iter()
        .map(|s| (s.weight, simulate_arena(&configs[0], &s.arena, s.budget)))
        .collect();
    assert_ne!(swept[0].stats, combine_weighted(&cold), "cold replay must differ from stitched");
}
