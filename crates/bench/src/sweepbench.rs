//! Machine-readable sweep-engine benchmark: arena replay vs
//! family-batched miss-stream replay vs analytical prediction vs phase
//! sampling.
//!
//! Times three engines over the same configuration space:
//!
//! 1. **arena** — capture once, replay the packed buffer per
//!    configuration;
//! 2. **family** — capture once, simulate each distinct L1 once over the
//!    arena, then replay its miss-stream events once per (L1, policy,
//!    ways) family, driving every L2 size at once (the sweep fast path;
//!    `filtered` is its CLI alias);
//! 3. **predict** — one reuse-distance profiling pass per L1 group
//!    answers every conventional L2 point analytically (exclusive
//!    members replay through the family engine). The only engine that
//!    is *approximate*: the report records whether it met its ε
//!    contract (`predict_within_epsilon`) rather than folding it into
//!    `identical`, and a scaling section (`predict_scaling`) times it
//!    against family replay on 90- and 450-point conventional spaces
//!    (acceptance bar: ≥ 5× at 450).
//!
//! The two replay engines must produce bit-identical design points
//! (`identical`; that arena replay equals per-configuration generation
//! is pinned by `tests/arena_equivalence.rs`). Because the family
//! engine's whole advantage is on configurations that *share* an L1, the
//! report also times the arena and family engines on the two-level
//! subset of the space in isolation (`twolevel_*` fields) — their ratio
//! is the "simulate the L1 once and decode the events once per family"
//! win with the single-level legs excluded (`twolevel_family_speedup`;
//! acceptance bar: a total of ≥ 3× at one thread).
//!
//! A final section (`sampled_scaling`) times the second approximate
//! path: SimPoint-style phase sampling with stitched warming
//! (`tlc_core::sampling`) against full family replay on a stream 8×
//! longer than the per-benchmark rows tolerate. The sampled pipeline is
//! timed end to end — signature pass, slice capture, weighted sweep —
//! and the observed reconstruction error is recorded against
//! `SAMPLED_MISS_RATIO_EPSILON` (acceptance bar: ≥ 5× at the committed
//! report's scale). The report is rendered as JSON (committed as
//! `BENCH_sweep.json` at the repository root; regenerate with
//! `repro bench-sweep <path>`).

use crate::Harness;
use serde::Serialize;
use std::time::Instant;
use tlc_cache::{miss_ratio_error, MISS_RATIO_EPSILON};
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::{capture_benchmark, DesignPoint, SimBudget};
use tlc_core::runner::{
    try_sweep_arena_threads, try_sweep_family_arena_threads, try_sweep_predict_arena_threads,
    try_sweep_sampled_threads,
};
use tlc_core::sampling::{
    capture_phase_slices, sample_source, SampleOptions, SAMPLED_MISS_RATIO_EPSILON,
};
use tlc_core::{L2Policy, MachineConfig};
use tlc_obs::manifest::{build_span_tree, SpanNode};
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{ReplaySource, TraceArena};

/// What to measure: the configuration space, budget, and thread count.
#[derive(Debug)]
pub struct SweepBenchConfig {
    /// Configurations evaluated per benchmark (conventional + exclusive
    /// full spaces; ≥ 64 distinct configurations).
    pub configs: Vec<MachineConfig>,
    /// Simulation length per configuration.
    pub budget: SimBudget,
    /// Worker threads, as in the sweeps being compared.
    pub threads: usize,
}

impl SweepBenchConfig {
    /// Measures the full design space (both L2 policies) at the
    /// harness's budget and thread count.
    pub fn from_harness(harness: &Harness) -> Self {
        let mut configs = full_space(&SpaceOptions::baseline());
        configs.extend(full_space(&SpaceOptions {
            l2_policy: L2Policy::Exclusive,
            ..SpaceOptions::baseline()
        }));
        SweepBenchConfig { configs, budget: harness.budget, threads: harness.threads }
    }
}

/// One benchmark's timing comparison.
#[derive(Debug, Serialize)]
pub struct SweepBenchRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Wall-clock seconds to capture the arena.
    pub capture_s: f64,
    /// Wall-clock seconds for the arena-replay sweep.
    pub replay_s: f64,
    /// Wall-clock seconds for the family-batched sweep (per-L1 capture
    /// plus one event pass per (L1, policy, ways) family; arena capture
    /// not included, as for `replay_s`).
    pub family_s: f64,
    /// Of `family_s`, the wall seconds spent in the per-L1-group capture
    /// phase (the `l1_capture` span).
    pub family_l1_capture_s: f64,
    /// Of `family_s`, the wall seconds spent fanning families over their
    /// miss streams (the `fan_out` span).
    pub family_fanout_s: f64,
    /// Miss-stream events replayed by the family sweep (the
    /// `l2.events_replayed` counter delta).
    pub family_events_replayed: u64,
    /// Arena resident size in bytes.
    pub arena_bytes: u64,
    /// Wall-clock seconds for the arena engine on the two-level subset
    /// of the space only.
    pub twolevel_arena_s: f64,
    /// Wall-clock seconds for the family engine on the two-level subset
    /// only.
    pub twolevel_family_s: f64,
    /// `twolevel_arena_s / twolevel_family_s` — the speedup miss-stream
    /// filtering plus family batching buys over arena replay where L1s
    /// are shared.
    pub twolevel_family_speedup: f64,
    /// Wall-clock seconds for the analytical predict sweep (per-L1
    /// profiling pass plus closed-form evaluation; exclusive members
    /// replay through the family engine; arena capture not included, as
    /// for `replay_s`).
    pub predict_s: f64,
    /// Whether the predicted design points met the accuracy contract
    /// against the family replay: single-level and exclusive members
    /// bit-identical, direct-mapped hit/miss counts exact, and
    /// set-associative local miss ratios within
    /// `tlc_cache::MISS_RATIO_EPSILON`. (The predict engine is the one
    /// engine excluded from `identical`.)
    pub predict_within_epsilon: bool,
    /// Whether the family engine reproduced arena replay bit-for-bit,
    /// on the whole space and on the two-level subset.
    pub identical: bool,
}

/// One point of the predict-vs-family scaling comparison: the same
/// conventional configuration space timed through both engines.
#[derive(Debug, Serialize)]
pub struct PredictScalingPoint {
    /// Design points in the space.
    pub configs: u64,
    /// Wall-clock seconds for the family-batched replay sweep.
    pub family_s: f64,
    /// Wall-clock seconds for the analytical predict sweep.
    pub predict_s: f64,
    /// `family_s / predict_s` — replay cost grows with the number of L2
    /// points per family while prediction is dominated by the one
    /// profiling pass per L1 group, so this ratio must widen with the
    /// space (the acceptance bar: ≥ 5× at 450 configurations).
    pub speedup: f64,
}

/// The sampled-vs-full comparison: one long stream swept in full
/// through the family engine and once through phase sampling.
#[derive(Debug, Serialize)]
pub struct SampledScalingReport {
    /// Benchmark the stream was generated from.
    pub benchmark: String,
    /// Instructions in the stream (8× the per-benchmark row budget).
    pub stream_instructions: u64,
    /// Sampling interval in instructions.
    pub interval: u64,
    /// Intervals the stream divides into.
    pub intervals: u64,
    /// Phases selected (K after empty-cluster pruning).
    pub phases: u64,
    /// Per-slice warm-up prefix in instructions (discarded before each
    /// representative's measured window).
    pub warmup_instructions: u64,
    /// Design points swept by both pipelines.
    pub configs: u64,
    /// Wall-clock seconds for the full pipeline: arena capture plus
    /// family replay of the whole stream.
    pub full_s: f64,
    /// Wall-clock seconds for the sampled pipeline end to end:
    /// signature pass, slice capture, and the weighted sampled sweep.
    pub sampled_s: f64,
    /// `full_s / sampled_s` (the acceptance bar: ≥ 5× at the committed
    /// report's scale).
    pub speedup: f64,
    /// Instructions the sampled pipeline actually simulated (selected
    /// slices plus their warm-up prefixes).
    pub replayed_instructions: u64,
    /// Largest local L2 miss-ratio error of the weighted reconstruction
    /// against full replay across the swept points.
    pub max_miss_ratio_error: f64,
    /// Whether `max_miss_ratio_error` met the sampled engine's
    /// documented contract (`SAMPLED_MISS_RATIO_EPSILON`). Only
    /// meaningful at parameter scales within the contract's guidance —
    /// the committed report's scale qualifies; tiny smoke budgets do
    /// not.
    pub within_epsilon: bool,
}

/// The full machine-readable report.
#[derive(Debug, Serialize)]
pub struct SweepBenchReport {
    /// Report format identifier.
    pub schema: String,
    /// Configurations per benchmark.
    pub configs: u64,
    /// Measured instructions per configuration.
    pub measured_instructions: u64,
    /// Warm-up instructions per configuration.
    pub warmup_instructions: u64,
    /// Worker threads.
    pub threads: u64,
    /// Per-benchmark comparisons.
    pub benchmarks: Vec<SweepBenchRow>,
    /// Total wall-clock seconds for all captures plus replay sweeps.
    pub total_arena_s: f64,
    /// Total wall-clock seconds for all captures plus family sweeps.
    pub total_family_s: f64,
    /// Total two-level-subset seconds for the arena engine.
    pub total_twolevel_arena_s: f64,
    /// Total two-level-subset seconds for the family engine.
    pub total_twolevel_family_s: f64,
    /// `total_twolevel_arena_s / total_twolevel_family_s` — the
    /// two-level speedup of the family engine over arena replay (the
    /// acceptance bar: ≥ 3× at one thread).
    pub total_twolevel_family_speedup: f64,
    /// Total wall-clock seconds for all captures plus predict sweeps.
    pub total_predict_s: f64,
    /// Whether every benchmark's predicted points met the ε contract.
    pub all_predict_within_epsilon: bool,
    /// Benchmark used for the predict-vs-family scaling comparison.
    pub predict_scaling_benchmark: String,
    /// Predict-vs-family timings on growing conventional spaces (90 and
    /// 450 distinct (L1, L2 size, ways) points).
    pub predict_scaling: Vec<PredictScalingPoint>,
    /// Phase-sampling vs full-replay comparison on a long stream.
    pub sampled_scaling: SampledScalingReport,
    /// Whether every benchmark's replay engines agreed bit-for-bit.
    pub all_identical: bool,
    /// Whether the producing build carried live instrumentation: always
    /// `true` today; kept so reports from older no-op builds (whose
    /// per-phase `family_*` columns are all zero) still parse.
    pub obs_enabled: bool,
}

/// Checks the predict engine's accuracy contract against family-replay
/// ground truth over a mixed space: single-level and exclusive members
/// bit-identical (the latter replay through the family engine inside
/// the predict sweep), direct-mapped hit/miss counts exact, and
/// set-associative local miss ratios within [`MISS_RATIO_EPSILON`].
fn predict_contract_ok(
    cfgs: &[MachineConfig],
    predicted: &[DesignPoint],
    truth: &[DesignPoint],
) -> bool {
    cfgs.iter().zip(predicted).zip(truth).all(|((c, p), t)| match c.l2 {
        None => p == t,
        Some(s) if s.policy == L2Policy::Exclusive => p == t,
        Some(s) if s.ways == 1 => {
            (p.stats.l2_hits, p.stats.l2_misses) == (t.stats.l2_hits, t.stats.l2_misses)
        }
        Some(_) => miss_ratio_error(&p.stats, &t.stats) <= MISS_RATIO_EPSILON,
    })
}

/// A conventional space of `n` genuinely distinct (L1, L2 size, ways)
/// points for the scaling comparison — distinct geometry, not latency
/// clones, so the family engine's per-size dedup cannot collapse the
/// replay work. The grid deliberately piles many L2 points onto few L1
/// groups (L2 sizes 256 B – 64 MB, associativities 1–256 where the
/// geometry admits them): both engines pay the same per-group
/// miss-stream capture, and what the comparison isolates is replay
/// cost, which grows with the L2 points per group, versus the
/// predictor's single profiling pass.
fn predict_scaling_space(n: usize) -> Vec<MachineConfig> {
    let mut v = Vec::new();
    'grid: for l1_kb in [1u64, 2, 4] {
        for i in 0..19u32 {
            let l2_bytes = 256u64 << i; // 256 B .. 64 MB
            for ways in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
                if u64::from(ways) <= l2_bytes / 16 {
                    let mut c =
                        MachineConfig::two_level(l1_kb, 1, ways, L2Policy::Conventional, 50.0);
                    c.l2.as_mut().expect("two-level").size_bytes = l2_bytes;
                    v.push(c);
                    if v.len() == 450 {
                        break 'grid;
                    }
                }
            }
        }
    }
    assert_eq!(v.len(), 450, "the scaling grid must hold exactly 450 points");
    // Sample a stride so every space size spans the same L1 groups:
    // the point of the comparison is L2 points per group, with the
    // shared per-group capture cost held constant.
    assert_eq!(450 % n, 0, "scaling sizes must divide 450");
    let stride = 450 / n;
    v.into_iter().step_by(stride).collect()
}

/// The design points for the sampled-vs-full comparison: one
/// representative per hierarchy shape plus extra conventional L2 sizes,
/// so the family fast path engages on both sides and the 128KB point —
/// the slowest L2 to warm, hence the sampled engine's documented worst
/// case — is present.
fn sampled_scaling_space() -> Vec<MachineConfig> {
    vec![
        MachineConfig::single_level(4, 50.0),
        MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 128, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0),
    ]
}

/// Total wall seconds attributed to spans named `name` anywhere in the
/// tree (phase names are unique per engine run, so this is the phase's
/// wall time).
fn span_wall_s(nodes: &[SpanNode], name: &str) -> f64 {
    fn walk(nodes: &[SpanNode], name: &str) -> u64 {
        nodes
            .iter()
            .map(|n| {
                let own = if n.name == name { n.wall_ns } else { 0 };
                own + walk(&n.children, name)
            })
            .sum()
    }
    walk(nodes, name) as f64 / 1e9
}

/// Runs the comparison over all seven benchmarks.
pub fn run_sweep_benchmark(cfg: &SweepBenchConfig) -> SweepBenchReport {
    let timing = tlc_timing::TimingModel::paper();
    let area = tlc_area::AreaModel::new();
    let twolevel: Vec<MachineConfig> =
        cfg.configs.iter().copied().filter(|c| c.l2.is_some()).collect();
    let mut rows = Vec::new();
    for b in SpecBenchmark::ALL {
        eprintln!("# bench-sweep: {} ({} configs)...", b.name(), cfg.configs.len());
        let t2 = Instant::now();
        let arena = capture_benchmark(b, cfg.budget);
        let capture_s = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        let replayed =
            try_sweep_arena_threads(&cfg.configs, &arena, cfg.budget, &timing, &area, cfg.threads)
                .expect("bench sweep");
        let replay_s = t3.elapsed().as_secs_f64();

        // Per-phase attribution for the family engine: discard spans the
        // arena engine accumulated, then drain exactly this run's.
        let _ = tlc_obs::take_spans();
        let events_before = tlc_obs::counters().get(tlc_obs::Counter::L2EventsReplayed);
        let t4b = Instant::now();
        let family = try_sweep_family_arena_threads(
            &cfg.configs,
            &arena,
            cfg.budget,
            &timing,
            &area,
            cfg.threads,
        )
        .expect("bench sweep");
        let family_s = t4b.elapsed().as_secs_f64();
        let family_spans = build_span_tree(tlc_obs::take_spans());
        let family_events_replayed =
            tlc_obs::counters().get(tlc_obs::Counter::L2EventsReplayed) - events_before;

        // The two-level subset in isolation: the family engine's win
        // with the unshared single-level legs excluded.
        let t5 = Instant::now();
        let twolevel_arena =
            try_sweep_arena_threads(&twolevel, &arena, cfg.budget, &timing, &area, cfg.threads)
                .expect("bench sweep");
        let twolevel_arena_s = t5.elapsed().as_secs_f64();

        let t7 = Instant::now();
        let twolevel_family = try_sweep_family_arena_threads(
            &twolevel,
            &arena,
            cfg.budget,
            &timing,
            &area,
            cfg.threads,
        )
        .expect("bench sweep");
        let twolevel_family_s = t7.elapsed().as_secs_f64();

        let t8 = Instant::now();
        let predicted = try_sweep_predict_arena_threads(
            &cfg.configs,
            &arena,
            cfg.budget,
            &timing,
            &area,
            cfg.threads,
        )
        .expect("bench sweep");
        let predict_s = t8.elapsed().as_secs_f64();

        rows.push(SweepBenchRow {
            benchmark: b.name().to_string(),
            capture_s,
            replay_s,
            family_s,
            family_l1_capture_s: span_wall_s(&family_spans, "l1_capture"),
            family_fanout_s: span_wall_s(&family_spans, "fan_out"),
            family_events_replayed,
            arena_bytes: arena.bytes() as u64,
            twolevel_arena_s,
            twolevel_family_s,
            twolevel_family_speedup: twolevel_arena_s / twolevel_family_s,
            predict_s,
            predict_within_epsilon: predict_contract_ok(&cfg.configs, &predicted, &family),
            identical: family == replayed && twolevel_family == twolevel_arena,
        });
    }
    // Predict-vs-family scaling: the same conventional space at growing
    // point counts. Family replay probes every member per event, so its
    // cost grows with the space; prediction pays one profiling pass per
    // L1 group and answers each point in closed form, so its wall-clock
    // stays roughly flat and the ratio widens.
    let scaling_benchmark = SpecBenchmark::Eqntott;
    let scaling_arena = capture_benchmark(scaling_benchmark, cfg.budget);
    let mut predict_scaling = Vec::new();
    let mut scaling_within_epsilon = true;
    for n in [90usize, 450] {
        eprintln!(
            "# bench-sweep: predict scaling on {} ({n} configs)...",
            scaling_benchmark.name()
        );
        let space = predict_scaling_space(n);
        let tf = Instant::now();
        let fam = try_sweep_family_arena_threads(
            &space,
            &scaling_arena,
            cfg.budget,
            &timing,
            &area,
            cfg.threads,
        )
        .expect("bench sweep");
        let family_s = tf.elapsed().as_secs_f64();
        let tp = Instant::now();
        let pred = try_sweep_predict_arena_threads(
            &space,
            &scaling_arena,
            cfg.budget,
            &timing,
            &area,
            cfg.threads,
        )
        .expect("bench sweep");
        let predict_s = tp.elapsed().as_secs_f64();
        scaling_within_epsilon &= predict_contract_ok(&space, &pred, &fam);
        predict_scaling.push(PredictScalingPoint {
            configs: n as u64,
            family_s,
            predict_s,
            speedup: family_s / predict_s,
        });
    }

    // Sampled-vs-full: a stream 8× longer than the per-benchmark rows',
    // swept once in full (arena capture + family replay) and once
    // through phase sampling. Both sides are timed end to end from the
    // same in-memory records, each source built outside its timed window
    // so neither side pays for copying them, and the sampled figure pays
    // for its two extra decode passes (interval signatures, slice
    // capture) — the honest cost of the pipeline a user runs with `tlc
    // sweep --trace FILE --sample phases.json`. The interval is
    // budget/10, giving 80 intervals of which K = 5 representatives
    // replay: a 16× reduction in simulated instructions that the decode
    // overhead erodes to the reported speedup.
    let sampled_benchmark = SpecBenchmark::Eqntott;
    let sampled_stream = cfg.budget.instructions * 8;
    let sampled_opts =
        SampleOptions { interval: (cfg.budget.instructions / 10).max(1), phases: 5, seed: 0xC1 };
    let sampled_warm = sampled_opts.interval / 2;
    let sampled_space = sampled_scaling_space();
    eprintln!(
        "# bench-sweep: sampled sweep on {} ({sampled_stream} instructions)...",
        sampled_benchmark.name()
    );
    let records = sampled_benchmark.workload().take_instructions(sampled_stream as usize);

    let mut full_source = ReplaySource::new(sampled_benchmark.name(), records.clone());
    let tf = Instant::now();
    let full_arena = TraceArena::capture(&mut full_source, sampled_stream);
    let full_budget = SimBudget { instructions: sampled_stream, warmup_instructions: 0 };
    let sampled_truth = try_sweep_family_arena_threads(
        &sampled_space,
        &full_arena,
        full_budget,
        &timing,
        &area,
        cfg.threads,
    )
    .expect("bench sweep");
    let sampled_full_s = tf.elapsed().as_secs_f64();
    drop((full_arena, full_source));

    let mut signature_source = ReplaySource::new(sampled_benchmark.name(), records.clone());
    let mut slice_source = ReplaySource::new(sampled_benchmark.name(), records);
    let ts = Instant::now();
    let sample = sample_source(&mut signature_source, &sampled_opts);
    let slices = capture_phase_slices(&mut slice_source, &sample, sampled_warm);
    let sampled_points =
        try_sweep_sampled_threads(&sampled_space, &slices, &timing, &area, cfg.threads)
            .expect("bench sweep");
    let sampled_s = ts.elapsed().as_secs_f64();

    let replayed_instructions: u64 =
        slices.iter().map(|s| s.budget.warmup_instructions + s.budget.instructions).sum();
    let max_miss_ratio_error = sampled_truth
        .iter()
        .zip(&sampled_points)
        .map(|(f, s)| miss_ratio_error(&f.stats, &s.stats))
        .fold(0.0f64, f64::max);
    let sampled_scaling = SampledScalingReport {
        benchmark: sampled_benchmark.name().to_string(),
        stream_instructions: sampled_stream,
        interval: sampled_opts.interval,
        intervals: sample.intervals,
        phases: sample.phases.len() as u64,
        warmup_instructions: sampled_warm,
        configs: sampled_space.len() as u64,
        full_s: sampled_full_s,
        sampled_s,
        speedup: sampled_full_s / sampled_s,
        replayed_instructions,
        max_miss_ratio_error,
        within_epsilon: max_miss_ratio_error <= SAMPLED_MISS_RATIO_EPSILON,
    };

    let total_arena_s: f64 = rows.iter().map(|r| r.capture_s + r.replay_s).sum();
    let total_family_s: f64 = rows.iter().map(|r| r.capture_s + r.family_s).sum();
    let total_twolevel_arena_s: f64 = rows.iter().map(|r| r.twolevel_arena_s).sum();
    let total_twolevel_family_s: f64 = rows.iter().map(|r| r.twolevel_family_s).sum();
    let total_predict_s: f64 = rows.iter().map(|r| r.capture_s + r.predict_s).sum();
    SweepBenchReport {
        schema: "tlc-sweep-bench/8".to_string(),
        configs: cfg.configs.len() as u64,
        measured_instructions: cfg.budget.instructions,
        warmup_instructions: cfg.budget.warmup_instructions,
        threads: cfg.threads as u64,
        total_twolevel_family_speedup: total_twolevel_arena_s / total_twolevel_family_s,
        all_predict_within_epsilon: scaling_within_epsilon
            && rows.iter().all(|r| r.predict_within_epsilon),
        predict_scaling_benchmark: scaling_benchmark.name().to_string(),
        predict_scaling,
        sampled_scaling,
        all_identical: rows.iter().all(|r| r.identical),
        obs_enabled: true,
        benchmarks: rows,
        total_arena_s,
        total_family_s,
        total_predict_s,
        total_twolevel_arena_s,
        total_twolevel_family_s,
    }
}

/// [`run_sweep_benchmark`] rendered as pretty JSON (with newline).
pub fn sweep_benchmark_json(cfg: &SweepBenchConfig) -> String {
    let report = run_sweep_benchmark(cfg);
    let mut json = serde_json::to_string_pretty(&report).expect("report serialises");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_engines_agree() {
        // A deliberately tiny instance: 3 configs, short budget. Two of
        // them must share an L1 (same size, differing L2) so the family
        // path — and its event attribution — actually engages rather
        // than every group falling back as a singleton.
        let mut cfg = SweepBenchConfig::from_harness(&Harness::quick());
        let shared_l1: Vec<MachineConfig> = {
            let first = cfg
                .configs
                .iter()
                .find(|c| c.l2.is_some())
                .copied()
                .expect("space has two-level configs");
            cfg.configs
                .iter()
                .filter(|c| c.l2.is_some() && c.l1_size_bytes == first.l1_size_bytes)
                .take(2)
                .copied()
                .collect()
        };
        assert_eq!(shared_l1.len(), 2, "need two configs sharing an L1");
        cfg.configs.truncate(1);
        cfg.configs.extend(shared_l1);
        cfg.budget = SimBudget { instructions: 4_000, warmup_instructions: 1_000 };
        cfg.threads = 2;
        let report = run_sweep_benchmark(&cfg);
        assert_eq!(report.benchmarks.len(), 7);
        assert!(report.all_identical, "engines must agree bit-for-bit");
        assert!(report.total_arena_s > 0.0);
        assert!(report.total_family_s > 0.0 && report.total_twolevel_family_s > 0.0);
        assert!(
            report.benchmarks.iter().all(|r| r.family_events_replayed > 0),
            "the family sweep must attribute its replayed events"
        );
        assert!(report.all_predict_within_epsilon, "predicted points must meet the ε contract");
        assert_eq!(report.predict_scaling.len(), 2);
        assert_eq!(report.predict_scaling[0].configs, 90);
        assert_eq!(report.predict_scaling[1].configs, 450);
        assert!(report.total_predict_s > 0.0);
        // The sampled section must have run both pipelines over the 8×
        // stream; its ε verdict is only asserted at report scale (the
        // smoke interval here is far below the contract's guidance), so
        // check structure and arithmetic only.
        let s = &report.sampled_scaling;
        assert_eq!(s.stream_instructions, cfg.budget.instructions * 8);
        assert!(s.phases as usize <= 5 && s.phases > 0);
        assert!(s.replayed_instructions > 0 && s.replayed_instructions < s.stream_instructions);
        assert!(s.full_s > 0.0 && s.sampled_s > 0.0 && s.speedup > 0.0);
        assert!(s.max_miss_ratio_error.is_finite());
        let json = serde_json::to_string_pretty(&report).expect("serialises");
        assert!(json.contains("\"schema\": \"tlc-sweep-bench/8\""));
        for gone in ["legacy", "streaming", "\"speedup_family\"", "total_speedup\""] {
            assert!(!json.contains(gone), "deleted column {gone} is back");
        }
        assert!(!json.contains("filtered"), "there is no filtered engine");
        assert!(json.contains("\"family_s\""));
        assert!(json.contains("\"family_l1_capture_s\""));
        assert!(json.contains("\"family_fanout_s\""));
        assert!(json.contains("\"family_events_replayed\""));
        assert!(json.contains("\"obs_enabled\""));
        assert!(json.contains("\"twolevel_family_speedup\""));
        assert!(json.contains("\"predict_s\""));
        assert!(json.contains("\"predict_within_epsilon\""));
        assert!(json.contains("\"predict_scaling\""));
        assert!(json.contains("\"sampled_scaling\""));
        assert!(json.contains("\"max_miss_ratio_error\""));
        assert!(json.contains("\"all_identical\": true"));
    }

    #[test]
    fn scaling_space_is_distinct_geometry() {
        let space = predict_scaling_space(450);
        assert_eq!(space.len(), 450);
        let mut keys: Vec<_> =
            space.iter().map(|c| (c.l1_size_bytes, c.l2.map(|s| (s.size_bytes, s.ways)))).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 450, "family size-dedup would collapse clone points");
    }

    #[test]
    fn full_space_pair_exceeds_sixty_four_configs() {
        let cfg = SweepBenchConfig::from_harness(&Harness::quick());
        assert!(cfg.configs.len() >= 64, "only {} configs", cfg.configs.len());
    }
}
