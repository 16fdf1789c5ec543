//! Analytical-prediction equivalence: the one-pass reuse-distance
//! predictor (`--engine predict`) is the only engine that is *not*
//! bit-identical to the replay family — its contract is a tolerance
//! (`tlc_cache::MISS_RATIO_EPSILON` on the local L2 miss ratio) plus
//! exactness on the classes where the model admits no approximation
//! (single-level hierarchies and direct-mapped L2s).
//!
//! These are the acceptance tests for that contract: every benchmark ×
//! a grid of L1/L2 geometries, predicted against the family-batched
//! replay engine that remains the ground truth. The replayed L2s use
//! pseudo-random replacement while the predictor models LRU, so the
//! tolerance absorbs both the binomial set-partition approximation and
//! the replacement-policy gap (see `docs/models.md`).

use tlc_area::AreaModel;
use tlc_cache::{miss_ratio_error, MISS_RATIO_EPSILON};
use tlc_core::experiment::{
    capture_benchmark, capture_miss_stream, evaluate, evaluate_family, evaluate_predicted,
    SimBudget,
};
use tlc_core::runner::try_sweep_predict_arena_threads;
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;

const BUDGET: SimBudget = SimBudget { instructions: 12_000, warmup_instructions: 3_000 };

/// Asserts the predictor's full accuracy contract for one member
/// against its replayed ground truth.
fn assert_contract(
    benchmark: SpecBenchmark,
    cfg: &MachineConfig,
    got: &tlc_core::experiment::DesignPoint,
    want: &tlc_core::experiment::DesignPoint,
) {
    assert_eq!(got.label, want.label, "{}: labels diverged", benchmark.name());
    assert_eq!(got.workload, want.workload, "{}: workloads diverged", benchmark.name());
    assert_eq!(got.area_rbe, want.area_rbe, "{}: area model diverged", benchmark.name());
    match cfg.l2 {
        None => assert_eq!(
            got.stats,
            want.stats,
            "{} on {}: single-level members must be exact",
            benchmark.name(),
            cfg.label()
        ),
        Some(spec) if spec.ways == 1 => assert_eq!(
            (got.stats.l2_hits, got.stats.l2_misses),
            (want.stats.l2_hits, want.stats.l2_misses),
            "{} on {}: direct-mapped hit/miss counts must be exact",
            benchmark.name(),
            cfg.label()
        ),
        Some(_) => {
            let err = miss_ratio_error(&got.stats, &want.stats);
            assert!(
                err <= MISS_RATIO_EPSILON,
                "{} on {}: miss-ratio error {err:.4} > ε={MISS_RATIO_EPSILON} \
                 (predicted {:?}, replayed {:?})",
                benchmark.name(),
                cfg.label(),
                got.stats,
                want.stats
            );
        }
    }
}

/// Every benchmark × a grid of conventional geometries: single-level,
/// direct-mapped (exact class), and set-associative L2s of mixed sizes
/// and ways — one heterogeneous predicted batch per (benchmark, L1),
/// each member held to the contract against the family replay.
#[test]
fn predicted_miss_ratios_meet_epsilon_on_all_benchmarks() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    for benchmark in SpecBenchmark::ALL {
        let arena = capture_benchmark(benchmark, BUDGET);
        for l1_kb in [2u64, 4] {
            let stream = capture_miss_stream(l1_kb * 1024, 16, &arena, BUDGET, usize::MAX)
                .expect("unbounded capture succeeds");
            let mut cfgs = vec![MachineConfig::single_level(l1_kb, 50.0)];
            for l2_kb in [16u64, 64] {
                for ways in [1u32, 2, 4, 8] {
                    cfgs.push(MachineConfig::two_level(
                        l1_kb,
                        l2_kb,
                        ways,
                        L2Policy::Conventional,
                        50.0,
                    ));
                }
            }
            let predicted = evaluate_predicted(&cfgs, &stream, &tm, &am);
            assert_eq!(predicted.len(), cfgs.len());
            for (cfg, got) in cfgs.iter().zip(&predicted) {
                // Ground truth: the family engine over the singleton
                // family, bit-identical to per-access replay.
                let want = &evaluate_family(std::slice::from_ref(cfg), &stream, &tm, &am)[0];
                assert_contract(benchmark, cfg, got, want);
            }
        }
    }
}

/// The predict *sweep* honours the same contract end to end on a mixed
/// space, against the independent per-configuration reference
/// ([`evaluate`]): predictable conventional and single-level members are
/// predicted — the one-member 2KB L1 group's included — exclusive
/// members are replayed bit-identically through the family engine, and
/// ordering survives the fan-out for any thread count.
#[test]
fn predict_sweep_contract_holds_across_benchmarks_and_threads() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    for benchmark in [SpecBenchmark::Fpppp, SpecBenchmark::Tomcatv, SpecBenchmark::Espresso] {
        let arena = capture_benchmark(benchmark, BUDGET);
        let configs: Vec<MachineConfig> = vec![
            MachineConfig::single_level(4, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 16, 1, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 64, 2, L2Policy::Conventional, 200.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0),
            MachineConfig::two_level(2, 64, 8, L2Policy::Conventional, 50.0),
        ];
        let truth: Vec<_> = configs
            .iter()
            .map(|cfg| evaluate(cfg, &mut benchmark.workload(), BUDGET, &tm, &am))
            .collect();
        for threads in [1usize, 4] {
            let swept =
                try_sweep_predict_arena_threads(&configs, &arena, BUDGET, &tm, &am, threads)
                    .expect("predict sweep succeeds");
            assert_eq!(swept.len(), truth.len());
            for ((cfg, got), want) in configs.iter().zip(&swept).zip(&truth) {
                if cfg.l2.map(|s| s.policy) == Some(L2Policy::Exclusive) {
                    assert_eq!(
                        got,
                        want,
                        "{} threads={threads}: exclusive members must replay bit-identically",
                        benchmark.name()
                    );
                } else {
                    assert_contract(benchmark, cfg, got, want);
                }
            }
        }
    }
}
