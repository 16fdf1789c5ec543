//! Parallel sweeps over the configuration space.
//!
//! Every (configuration, benchmark) evaluation is independent, which
//! makes the sweep embarrassingly parallel — but the naive decomposition
//! regenerates the benchmark's synthetic stream once *per configuration*
//! (two virtual generator calls plus up to three RNG draws per
//! instruction, times millions of instructions, times dozens of
//! configurations). The sweeps here instead capture each benchmark's
//! stream once into a shared [`TraceArena`] and fan the configurations
//! out over a thread pool, each worker replaying the packed buffer
//! through the devirtualized fast path
//! ([`evaluate_arena`]).
//!
//! Both decompositions produce bit-identical [`DesignPoint`]s: the arena
//! holds exactly the stream the seeded generator would produce, and the
//! replay issues references in the same order. [`sweep`] picks the arena
//! path automatically unless the budget would make the capture enormous
//! (see [`ARENA_BYTES_LIMIT`]); [`sweep_streaming_threads`] keeps the
//! regenerate-per-configuration path available for comparison and for
//! memory-constrained hosts.

use crate::configspace::unique_configs;
use crate::experiment::{
    capture_benchmark, capture_miss_stream, capture_miss_stream_segments, evaluate, evaluate_arena,
    evaluate_dyn, evaluate_family, evaluate_predicted, simulate_family_segments, DesignPoint,
    SimBudget,
};
use crate::machine::{L2Policy, MachineConfig};
use crate::sampling::PhaseSlice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use tlc_area::AreaModel;
use tlc_obs::{obs_count, obs_event, obs_hist, obs_span, Counter, Hist, HistTimer, PhaseSpan};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::TraceArena;

/// The work unit a sweep worker was executing when it panicked;
/// identifies where in the pipeline the failure sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepUnit {
    /// Evaluation of one configuration.
    Config {
        /// Index into the sweep's input `configs`.
        index: usize,
        /// The configuration's display label.
        label: String,
    },
    /// Miss-stream capture for one L1 front-end group.
    L1Group {
        /// The group's L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The group's line size in bytes.
        line_bytes: u64,
    },
    /// Family-batched replay of several configurations at once.
    FamilyChunk {
        /// The family's L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The family's line size in bytes.
        line_bytes: u64,
        /// Indices into the sweep's input `configs`.
        members: Vec<usize>,
    },
    /// Analytical prediction of a whole L1 group's conventional members
    /// from one reuse-distance profiling pass.
    PredictGroup {
        /// The group's L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The group's line size in bytes.
        line_bytes: u64,
        /// Indices into the sweep's input `configs`.
        members: Vec<usize>,
    },
}

impl std::fmt::Display for SweepUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepUnit::Config { index, label } => write!(f, "config #{index} ({label})"),
            SweepUnit::L1Group { l1_size_bytes, line_bytes } => {
                write!(f, "L1 group {l1_size_bytes}B/{line_bytes}B capture")
            }
            SweepUnit::FamilyChunk { l1_size_bytes, line_bytes, members } => {
                write!(f, "family chunk {l1_size_bytes}B/{line_bytes}B (configs {members:?})")
            }
            SweepUnit::PredictGroup { l1_size_bytes, line_bytes, members } => {
                write!(f, "predict group {l1_size_bytes}B/{line_bytes}B (configs {members:?})")
            }
        }
    }
}

/// Why a `try_sweep_*` call produced no results: a request it cannot
/// run, or a worker panic propagated as a value instead of aborting the
/// caller. The panicking wrappers re-raise it with this context in the
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The request asked for zero worker threads.
    NoThreads,
    /// A sampled sweep was handed no phase slices to replay.
    NoSlices,
    /// A worker panicked.
    Worker {
        /// The unit being executed when the panic fired.
        unit: SweepUnit,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::NoThreads => f.write_str("need at least one worker thread"),
            SweepError::NoSlices => f.write_str("need at least one phase slice"),
            SweepError::Worker { unit, payload } => write!(f, "{unit}: {payload}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The thread-count check every `try_sweep_*` entry point makes before
/// doing any work.
fn require_threads(threads: usize) -> Result<(), SweepError> {
    if threads == 0 {
        return Err(SweepError::NoThreads);
    }
    Ok(())
}

/// Upper bound on the arena capture size before [`sweep`] falls back to
/// the streaming path: 1 GiB ≈ 63 M instructions at 17 bytes per packed
/// record, far beyond the standard 2 M-instruction budget.
pub const ARENA_BYTES_LIMIT: usize = 1 << 30;

/// Packed bytes per captured instruction (fetch `u64` + data `u64` +
/// flag `u8`); used to predict a capture's footprint before building it.
pub const ARENA_BYTES_PER_RECORD: usize = 17;

/// Predicted arena footprint in bytes for one benchmark at `budget`.
pub fn arena_bytes_for(budget: SimBudget) -> usize {
    let records = budget.warmup_instructions.saturating_add(budget.instructions);
    usize::try_from(records).unwrap_or(usize::MAX).saturating_mul(ARENA_BYTES_PER_RECORD)
}

/// Upper bound on one captured miss stream's packed size before the
/// family sweep falls back to plain arena replay for that L1 group.
/// Matches [`ARENA_BYTES_LIMIT`]; in practice a miss stream is 1–10% of
/// the arena (Table 1 miss rates), so the bound only trips for L1s small
/// enough that most references miss.
pub const MISS_STREAM_BYTES_LIMIT: usize = ARENA_BYTES_LIMIT;

/// The key identifying one L1 front-end for miss-stream filtering:
/// `(l1_size_bytes, line_bytes)`. Cell kind, ports, and off-chip latency
/// affect only the timing/area models, never the simulated trajectory,
/// so configurations differing only in those share a captured stream.
pub type L1Key = (u64, u64);

/// Groups configuration indices by their L1 front-end, in order of first
/// appearance. Each entry is `(key, indices into configs)`; every index
/// appears exactly once. This is the capture schedule of the family
/// sweep: one L1 simulation per returned group.
pub fn l1_groups(configs: &[MachineConfig]) -> Vec<(L1Key, Vec<usize>)> {
    let mut groups: Vec<(L1Key, Vec<usize>)> = Vec::new();
    for (i, cfg) in configs.iter().enumerate() {
        let key = (cfg.l1_size_bytes, cfg.line_bytes);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
}

/// Evaluates every configuration on `benchmark`, in parallel. Results are
/// returned in the same order as `configs`.
pub fn sweep(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
) -> Vec<DesignPoint> {
    sweep_threads(configs, benchmark, budget, timing, area, default_threads())
}

/// Number of worker threads used by [`sweep`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// As [`sweep`], with an explicit thread count (tests use 1 or 2).
///
/// Captures the benchmark's stream once and hands it to the
/// family-batched engine ([`sweep_family_arena_threads`]), unless the
/// capture would exceed [`ARENA_BYTES_LIMIT`] (or there is only one
/// configuration, where a capture cannot pay for itself) — then it
/// streams instead. Either way the results are identical.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_threads(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_threads(configs, benchmark, budget, timing, area, threads))
}

/// As [`sweep_threads`], reporting a worker panic as a structured
/// [`SweepError`] (naming the L1 group or configuration that failed)
/// instead of aborting the caller.
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_threads(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    if configs.len() <= 1 || arena_bytes_for(budget) > ARENA_BYTES_LIMIT {
        obs_count!(Counter::RunnerFallbackStreaming, 1);
        obs_event!(
            "engine.fallback_streaming",
            "{} configs, predicted arena {} B: streaming replay",
            configs.len(),
            arena_bytes_for(budget)
        );
        return try_sweep_streaming_threads(configs, benchmark, budget, timing, area, threads);
    }
    obs_event!("engine.selected", "family-batched arena engine, {} configs", configs.len());
    let arena = {
        let _span = obs_span!("arena_capture");
        capture_benchmark(benchmark, budget)
    };
    try_sweep_family_arena_threads(configs, &arena, budget, timing, area, threads)
}

/// Unwraps a `try_sweep_*` result for the infallible entry points,
/// re-raising a worker panic with its unit context.
fn expect_sweep<T>(r: Result<T, SweepError>) -> T {
    match r {
        Ok(v) => v,
        Err(e @ SweepError::Worker { .. }) => panic!("sweep worker thread panicked at {e}"),
        Err(e) => panic!("{e}"),
    }
}

/// Evaluates every configuration against an already-captured arena, in
/// parallel, in input order. Callers that sweep the same benchmark
/// several times (e.g. per off-chip latency or per L2 policy) capture
/// once and call this directly.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_arena_threads(configs, arena, budget, timing, area, threads))
}

/// As [`sweep_arena_threads`], reporting a worker panic as a
/// structured [`SweepError`].
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    let _span = obs_span!("fan_out");
    try_run_indexed(
        configs.len(),
        threads,
        |i| evaluate_arena(&configs[i], arena, budget, timing, area),
        |i| SweepUnit::Config { index: i, label: configs[i].label() },
    )
}

/// Phase A of the family and predict sweeps: one miss-stream capture
/// per L1 group that will amortise it, with a `group[...]` phase span
/// per capture and fallback events for the groups that opt out
/// (singletons, byte-limited streams).
fn try_capture_group_streams(
    groups: &[(L1Key, Vec<usize>)],
    arena: &TraceArena,
    budget: SimBudget,
    threads: usize,
) -> Result<Vec<Option<tlc_cache::MissStream>>, SweepError> {
    let _span = obs_span!("l1_capture");
    try_run_indexed(
        groups.len(),
        threads,
        |g| {
            let (key, idxs) = &groups[g];
            if idxs.len() < 2 {
                obs_count!(Counter::RunnerFallbackSingleton, 1);
                obs_event!(
                    "fallback.singleton",
                    "L1 group {}B/{}B has a single config; plain arena replay",
                    key.0,
                    key.1
                );
                return None;
            }
            let span = PhaseSpan::enter_with("group", || format!("{}B/{}B", key.0, key.1));
            span.add_items(idxs.len() as u64);
            let _t = HistTimer::start(Hist::CaptureL1GroupNs);
            let stream = capture_miss_stream(key.0, key.1, arena, budget, MISS_STREAM_BYTES_LIMIT);
            if stream.is_none() {
                obs_count!(Counter::RunnerFallbackByteLimit, 1);
                obs_event!(
                    "fallback.byte_limit",
                    "L1 group {}B/{}B miss stream exceeded {} B; plain arena replay",
                    key.0,
                    key.1,
                    MISS_STREAM_BYTES_LIMIT
                );
            }
            stream
        },
        |g| SweepUnit::L1Group { l1_size_bytes: groups[g].0 .0, line_bytes: groups[g].0 .1 },
    )
}

/// One parallel work unit of the family, sampled, and predict sweeps.
/// `S` is what a captured L1 group hands its units: one miss stream, or
/// the stitched segments of a sampled capture.
enum Unit<S> {
    /// A family chunk sharing one L2 policy, associativity, and
    /// replacement, replaying its group's capture once for every member.
    Family { src: S, members: Vec<usize> },
    /// One configuration whose group has no capture (a singleton or a
    /// byte-limited group), evaluated on its own.
    Alone { idx: usize },
}

impl<S> Unit<S> {
    /// The unit a worker panic is attributed to.
    fn sweep_unit(&self, configs: &[MachineConfig]) -> SweepUnit {
        match self {
            Unit::Family { members, .. } => {
                let first = &configs[members[0]];
                SweepUnit::FamilyChunk {
                    l1_size_bytes: first.l1_size_bytes,
                    line_bytes: first.line_bytes,
                    members: members.clone(),
                }
            }
            Unit::Alone { idx } => SweepUnit::Config { index: *idx, label: configs[*idx].label() },
        }
    }
}

/// Plans a sweep's replay units from its L1 groups and each group's
/// capture (`None`: every member of the group stands alone), returning
/// one list of units per group.
///
/// Each captured group is partitioned into families by
/// `(policy, ways, repl)`, in first-appearance order within the group.
/// When `threads > 1`, a family larger than `max(2, ⌈replayed /
/// threads⌉)` is chunked so one dominant group cannot serialise the
/// sweep (each chunk still shares one decode among its members; a
/// single-threaded sweep keeps every family whole). `replayed` counts
/// family members plus `extra`, the members a caller evaluates outside
/// the families but wants counted in each worker's share.
fn plan_units<S: Copy>(
    configs: &[MachineConfig],
    groups: &[(L1Key, Vec<usize>)],
    sources: &[Option<S>],
    threads: usize,
    extra: usize,
) -> Vec<Vec<Unit<S>>> {
    type FamilyKey = Option<(L2Policy, u32, tlc_cache::ReplacementKind)>;
    let mut replayed = extra;
    let mut planned: Vec<Vec<Unit<S>>> = Vec::with_capacity(groups.len());
    for ((_, idxs), src) in groups.iter().zip(sources) {
        let Some(src) = *src else {
            planned.push(idxs.iter().map(|&idx| Unit::Alone { idx }).collect());
            continue;
        };
        let mut fams: Vec<(FamilyKey, Vec<usize>)> = Vec::new();
        for &i in idxs {
            let key = configs[i].l2.map(|s| (s.policy, s.ways, s.repl));
            match fams.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(i),
                None => fams.push((key, vec![i])),
            }
        }
        replayed += fams.iter().map(|(_, members)| members.len()).sum::<usize>();
        planned.push(fams.into_iter().map(|(_, members)| Unit::Family { src, members }).collect());
    }
    if threads > 1 && replayed > 0 {
        let cap = replayed.div_ceil(threads).max(2);
        for units in &mut planned {
            let mut chunked = Vec::with_capacity(units.len());
            for unit in units.drain(..) {
                match unit {
                    Unit::Family { src, members } if members.len() > cap => {
                        for chunk in members.chunks(cap) {
                            chunked.push(Unit::Family { src, members: chunk.to_vec() });
                        }
                    }
                    other => chunked.push(other),
                }
            }
            *units = chunked;
        }
    }
    planned
}

/// Phase B of the family, sampled, and predict sweeps: fans the units out
/// under a `fan_out` span (each returns `(input index, point)` pairs) and
/// scatters the points back to input order. `unit_of` names the unit a
/// worker panic is attributed to.
fn try_fan_out<U: Sync>(
    configs: &[MachineConfig],
    units: &[U],
    threads: usize,
    unit_of: impl Fn(&U) -> SweepUnit + Sync,
    eval: impl Fn(&U) -> Vec<(usize, DesignPoint)> + Sync,
) -> Result<Vec<DesignPoint>, SweepError> {
    let evaluated = {
        let _span = obs_span!("fan_out");
        try_run_indexed(units.len(), threads, |u| eval(&units[u]), |u| unit_of(&units[u]))?
    };
    let mut slots: Vec<Option<DesignPoint>> = vec![None; configs.len()];
    for (i, p) in evaluated.into_iter().flatten() {
        slots[i] = Some(p);
    }
    Ok(slots.into_iter().map(|s| s.expect("every configuration evaluated")).collect())
}

/// The configurations at `members`, in order.
fn member_configs(configs: &[MachineConfig], members: &[usize]) -> Vec<MachineConfig> {
    members.iter().map(|&i| configs[i]).collect()
}

/// The family-batched sweep: configurations are grouped by L1 front-end
/// ([`l1_groups`]), the arena is replayed through each distinct L1
/// **once** to capture its miss/victim event stream, each captured group
/// is partitioned into *families* sharing one L2 policy and
/// associativity (in the paper's spaces, a family is "one L1, every L2
/// capacity"), and each family replays its group's events **once** for
/// all of its members ([`evaluate_family`]). Bit-identical to
/// [`sweep_arena_threads`]: the L1 work — which the arena path repeats
/// for every configuration — is paid once per group, and the event
/// decode once per family.
///
/// Parallelism runs across (group × family) units; when one family holds
/// more than its fair share of the space, it is chunked so a dominant
/// group cannot serialise a multi-threaded sweep (a single-threaded
/// sweep keeps every family whole for maximal sharing). Groups of one
/// configuration skip the capture (it cannot pay for itself), and a group
/// whose event stream would exceed [`MISS_STREAM_BYTES_LIMIT`] falls back
/// to plain arena replay, so the sweep's memory stays bounded by the same
/// reasoning as the 1 GiB arena bound. Results are returned in input
/// order.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_family_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_family_arena_threads(configs, arena, budget, timing, area, threads))
}

/// As [`sweep_family_arena_threads`], reporting a worker panic as a
/// structured [`SweepError`] naming the L1 group, family chunk, or
/// configuration that failed.
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_family_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    let groups = l1_groups(configs);
    let streams = try_capture_group_streams(&groups, arena, budget, threads)?;
    let sources: Vec<Option<&tlc_cache::MissStream>> = streams.iter().map(Option::as_ref).collect();
    let units: Vec<_> =
        plan_units(configs, &groups, &sources, threads, 0).into_iter().flatten().collect();
    try_fan_out(
        configs,
        &units,
        threads,
        |u| u.sweep_unit(configs),
        |unit| match unit {
            Unit::Family { src: stream, members } => {
                let _t = HistTimer::start(Hist::ReplayFamilyChunkNs);
                let points =
                    evaluate_family(&member_configs(configs, members), stream, timing, area);
                members.iter().copied().zip(points).collect()
            }
            Unit::Alone { idx } => {
                vec![(*idx, evaluate_arena(&configs[*idx], arena, budget, timing, area))]
            }
        },
    )
}

/// The sampled sweep with **stitched warming**: configurations are
/// grouped by L1 front-end ([`l1_groups`]) and each group's front-end
/// replays every representative [`PhaseSlice`] in trace order
/// ([`capture_miss_stream_segments`]) — L1 contents persist across the
/// gaps between slices, and each slice's warm-up prefix refreshes them.
/// Each family then walks the per-slice segments through **one**
/// persistent set of L2 states ([`simulate_family_segments`]), so the
/// L2 arrays, LFSRs, and exclusive mirrors inherit stale state instead
/// of restarting cold at every slice. Per-phase measured statistics are
/// recombined with [`crate::sampling::combine_weighted`] into one
/// whole-trace estimate per configuration.
///
/// Reconstruction accuracy is bounded by
/// [`crate::sampling::SAMPLED_MISS_RATIO_EPSILON`] (see the
/// [`crate::sampling`] module docs for the contract and the exact
/// degenerate cases).
///
/// `runner.configs_completed` ticks once per (configuration × phase)
/// evaluation; the recombination itself is untracked, so a sampled sweep
/// reports `configs × phases` completions in its manifest.
///
/// # Panics
///
/// Panics if `threads` is zero, `slices` is empty, or a worker panics.
pub fn sweep_sampled_threads(
    configs: &[MachineConfig],
    slices: &[PhaseSlice],
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_sampled_threads(configs, slices, timing, area, threads))
}

/// As [`sweep_sampled_threads`], reporting a worker panic as a
/// structured [`SweepError`].
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero and
/// [`SweepError::NoSlices`] if `slices` is empty, both before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_sampled_threads(
    configs: &[MachineConfig],
    slices: &[PhaseSlice],
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    if slices.is_empty() {
        return Err(SweepError::NoSlices);
    }
    let workload = slices[0].arena.name().to_string();
    let groups = l1_groups(configs);
    // Phase A: one stitched capture per L1 group — a single front-end
    // replays every slice sequentially so L1 state carries across them.
    let captured: Vec<Option<Vec<tlc_cache::MissStream>>> = {
        let _span = obs_span!("l1_capture");
        try_run_indexed(
            groups.len(),
            threads,
            |g| {
                let (key, idxs) = &groups[g];
                let span = PhaseSpan::enter_with("group", || format!("{}B/{}B", key.0, key.1));
                span.add_items(idxs.len() as u64);
                let segs =
                    capture_miss_stream_segments(key.0, key.1, slices, MISS_STREAM_BYTES_LIMIT);
                if segs.is_none() {
                    obs_count!(Counter::RunnerFallbackByteLimit, 1);
                    obs_event!(
                        "fallback.byte_limit",
                        "L1 group {}B/{}B phase segments exceeded {} B; cold per-slice replay",
                        key.0,
                        key.1,
                        MISS_STREAM_BYTES_LIMIT
                    );
                }
                segs
            },
            |g| SweepUnit::L1Group { l1_size_bytes: groups[g].0 .0, line_bytes: groups[g].0 .1 },
        )?
    };
    let sources: Vec<Option<&[tlc_cache::MissStream]>> =
        captured.iter().map(Option::as_deref).collect();
    let units: Vec<_> =
        plan_units(configs, &groups, &sources, threads, 0).into_iter().flatten().collect();
    // Phase B: each unit's per-phase statistics are recombined before
    // the timing/area derivation.
    let point = |cfg: &MachineConfig, parts: &[(f64, tlc_cache::HierarchyStats)]| {
        let stats = crate::sampling::combine_weighted(parts);
        crate::experiment::design_point_untracked(cfg, workload.clone(), stats, timing, area)
    };
    try_fan_out(
        configs,
        &units,
        threads,
        |u| u.sweep_unit(configs),
        |unit| match unit {
            Unit::Family { src: segments, members } => {
                let per_seg = simulate_family_segments(&member_configs(configs, members), segments);
                obs_count!(
                    Counter::RunnerConfigsCompleted,
                    (members.len() * segments.len()) as u64
                );
                members
                    .iter()
                    .enumerate()
                    .map(|(m, &i)| {
                        let parts: Vec<(f64, tlc_cache::HierarchyStats)> = per_seg
                            .iter()
                            .zip(slices)
                            .map(|(row, slice)| (slice.weight, row[m]))
                            .collect();
                        (i, point(&configs[i], &parts))
                    })
                    .collect()
            }
            Unit::Alone { idx } => {
                // No stitched segments: replay each slice cold (its warm-up
                // prefix is the only warming). Each `evaluate_arena` ticks
                // one completion, keeping the configs × phases manifest
                // invariant.
                let cfg = &configs[*idx];
                let parts: Vec<(f64, tlc_cache::HierarchyStats)> = slices
                    .iter()
                    .map(|slice| {
                        let stats =
                            evaluate_arena(cfg, &slice.arena, slice.budget, timing, area).stats;
                        (slice.weight, stats)
                    })
                    .collect();
                vec![(*idx, point(cfg, &parts))]
            }
        },
    )
}

/// The analytical-prediction sweep: configurations are grouped and
/// captured exactly as in [`sweep_family_arena_threads`], but each
/// captured group's single-level and conventional members are answered
/// by **one** reuse-distance profiling pass
/// ([`evaluate_predicted`]) — O(events) per L1 group, independent of how
/// many L2 points the group sweeps — instead of one replay per
/// associativity family.
///
/// **Not bit-identical.** Predicted points carry the documented ε
/// contract ([`tlc_cache::MISS_RATIO_EPSILON`]) on the local L2 miss
/// ratio versus family-replayed ground truth; single-level members are
/// exact and direct-mapped members have exact hit/miss counts (see
/// [`tlc_cache::predict`]). Members the model cannot cover stay on
/// replay and remain bit-identical: exclusive hierarchies and
/// set-associative members with FIFO, tree-PLRU, or SRRIP replacement
/// (see [`config_is_predictable`](crate::config_is_predictable)) go
/// through the family engine, and singleton or byte-limited L1 groups
/// fall back to plain arena replay. The `predict.configs_predicted` /
/// `predict.configs_replayed` counters record the split. Results are
/// returned in input order.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_predict_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_predict_arena_threads(configs, arena, budget, timing, area, threads))
}

/// As [`sweep_predict_arena_threads`], reporting a worker panic as a
/// structured [`SweepError`] naming the L1 group, predict group, family
/// chunk, or configuration that failed.
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_predict_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    let groups = l1_groups(configs);
    let streams = try_capture_group_streams(&groups, arena, budget, threads)?;
    let sources: Vec<Option<&tlc_cache::MissStream>> = streams.iter().map(Option::as_ref).collect();
    // Each captured group's predictable members form one profiling unit;
    // the rest are planned as the family sweep plans them, with the
    // members of uncaptured groups counted toward the chunk share since
    // they replay too.
    let mut profiled: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    let mut replayed: Vec<(L1Key, Vec<usize>)> = Vec::with_capacity(groups.len());
    let mut alone = 0usize;
    for ((key, idxs), src) in groups.iter().zip(&sources) {
        if src.is_none() {
            alone += idxs.len();
        }
        let (predictable, rest): (Vec<usize>, Vec<usize>) = idxs.iter().partition(|&&i| {
            src.is_some() && crate::experiment::config_is_predictable(&configs[i])
        });
        profiled.push(predictable);
        replayed.push((*key, rest));
    }
    let planned = plan_units(configs, &replayed, &sources, threads, alone);
    // Within each group, its profiling unit runs ahead of its replays.
    let mut units: Vec<PredictUnit> = Vec::new();
    for ((members, src), replays) in profiled.into_iter().zip(&sources).zip(planned) {
        if let (Some(stream), false) = (src, members.is_empty()) {
            units.push(PredictUnit::Profile { stream, members });
        }
        units.extend(replays.into_iter().map(PredictUnit::Replay));
    }
    let unit_of = |unit: &PredictUnit| match unit {
        PredictUnit::Profile { members, .. } => {
            let first = &configs[members[0]];
            SweepUnit::PredictGroup {
                l1_size_bytes: first.l1_size_bytes,
                line_bytes: first.line_bytes,
                members: members.clone(),
            }
        }
        PredictUnit::Replay(unit) => unit.sweep_unit(configs),
    };
    try_fan_out(configs, &units, threads, unit_of, |unit| match unit {
        PredictUnit::Profile { stream, members } => {
            let first = &configs[members[0]];
            let span = PhaseSpan::enter_with("predict_group", || {
                format!("{}B/{}B", first.l1_size_bytes, first.line_bytes)
            });
            span.add_items(members.len() as u64);
            let points =
                evaluate_predicted(&member_configs(configs, members), stream, timing, area);
            members.iter().copied().zip(points).collect()
        }
        PredictUnit::Replay(Unit::Family { src: stream, members }) => {
            obs_count!(Counter::PredictConfigsReplayed, members.len() as u64);
            let _t = HistTimer::start(Hist::ReplayFamilyChunkNs);
            let points = evaluate_family(&member_configs(configs, members), stream, timing, area);
            members.iter().copied().zip(points).collect()
        }
        PredictUnit::Replay(Unit::Alone { idx }) => {
            obs_count!(Counter::PredictConfigsReplayed, 1);
            vec![(*idx, evaluate_arena(&configs[*idx], arena, budget, timing, area))]
        }
    })
}

/// One parallel work unit of the predict sweep.
enum PredictUnit<'a> {
    /// A captured group's predictable members, answered from one
    /// reuse-distance profiling pass; never chunked, since splitting it
    /// would repeat the pass.
    Profile { stream: &'a tlc_cache::MissStream, members: Vec<usize> },
    /// A member or family chunk the model cannot cover, replayed exactly.
    Replay(Unit<&'a tlc_cache::MissStream>),
}

/// The regenerate-per-configuration sweep: each evaluation rebuilds the
/// benchmark's seeded generator and streams it from scratch. Kept public
/// as the memory-lean fallback and as the reference the arena path is
/// tested against.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_streaming_threads(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    expect_sweep(try_sweep_streaming_threads(configs, benchmark, budget, timing, area, threads))
}

/// As [`sweep_streaming_threads`], reporting a worker panic as a
/// structured [`SweepError`].
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if a worker panics.
pub fn try_sweep_streaming_threads(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    let _span = obs_span!("fan_out");
    try_run_indexed(
        configs.len(),
        threads,
        |i| evaluate(&configs[i], benchmark, budget, timing, area),
        |i| SweepUnit::Config { index: i, label: configs[i].label() },
    )
}

/// The pre-arena baseline sweep: regenerates the stream per
/// configuration *and* dispatches every reference through the
/// `Box<dyn MemorySystem>` engine, exactly as `sweep` worked before the
/// trace arena. Kept for the sweep benchmark (the speedup baseline) and
/// for equivalence testing; new code should use [`sweep`].
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_dyn_threads(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<DesignPoint> {
    run_indexed(
        configs.len(),
        threads,
        |i| evaluate_dyn(&configs[i], benchmark, budget, timing, area),
        |i| SweepUnit::Config { index: i, label: configs[i].label() },
    )
}

/// Sweeps `configs` across several benchmarks, capturing each
/// benchmark's stream exactly once. Returns one result vector per
/// benchmark, in benchmark order, each in `configs` order.
///
/// Duplicate configurations — common when overlapping figure families
/// are concatenated — are evaluated once per benchmark
/// ([`unique_configs`]) and their results fanned back out to every
/// occurrence, so the output is position-for-position what a naive
/// per-config sweep would return.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn sweep_matrix(
    configs: &[MachineConfig],
    benchmarks: &[SpecBenchmark],
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Vec<Vec<DesignPoint>> {
    let (unique, occurrence) = unique_configs(configs);
    benchmarks
        .iter()
        .map(|&b| {
            let row = sweep_threads(&unique, b, budget, timing, area, threads);
            occurrence.iter().map(|&u| row[u].clone()).collect()
        })
        .collect()
}

/// Stringifies a panic payload (the common `&str`/`String` cases).
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Work-stealing fan-out: workers atomically claim indices `0..n`,
/// results land back in index order. A panicking evaluation stops the
/// sweep (workers drain, no new claims) and is reported as a
/// [`SweepError`] naming the unit `unit_of(i)` describes; with several
/// concurrent panics the first to be observed wins. Each worker gets a
/// `worker[w]` phase span (under the caller's current span) carrying
/// its claimed-unit count, so queue imbalance shows in the manifest.
fn try_run_indexed<T, F, U>(
    n: usize,
    threads: usize,
    eval: F,
    unit_of: U,
) -> Result<Vec<T>, SweepError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    U: Fn(usize) -> SweepUnit + Sync,
{
    require_threads(threads)?;
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.min(n);
    let caught = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| eval(i)))
            .map_err(|p| SweepError::Worker { unit: unit_of(i), payload: payload_string(p) })
    };
    if threads == 1 {
        // Run on the calling thread: spawning a worker is not only
        // pointless serialisation, it is measurably slow — a fresh
        // thread starts with a cold allocator heap, so every
        // configuration's cache arrays page-fault from scratch.
        let span = PhaseSpan::enter_with("worker", || "0".to_string());
        span.add_items(n as u64);
        obs_hist!(Hist::RunnerWorkerItems, n as u64);
        return (0..n).map(caught).collect();
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<SweepError>> = Mutex::new(None);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let parent = tlc_obs::current_path();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let next = &next;
            let stop = &stop;
            let first_error = &first_error;
            let caught = &caught;
            let parent = &parent;
            handles.push(scope.spawn(move || {
                let span = PhaseSpan::enter_under(parent, "worker", &w.to_string());
                let mut mine = Vec::new();
                let mut claimed = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    span.add_items(1);
                    claimed += 1;
                    match caught(i) {
                        Ok(p) => mine.push((i, p)),
                        Err(e) => {
                            stop.store(true, Ordering::Relaxed);
                            // A poisoned lock only means another worker
                            // panicked mid-record; the Option inside is
                            // still usable, and panicking here would turn
                            // the structured SweepError contract of the
                            // try_* entry points back into a panic.
                            first_error.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(e);
                            break;
                        }
                    }
                }
                // One sample per worker per fan-out: the *distribution*
                // of claimed counts across workers is queue imbalance.
                obs_hist!(Hist::RunnerWorkerItems, claimed);
                mine
            }));
        }
        for h in handles {
            // Workers catch evaluation panics themselves, so a join
            // failure here is unreachable short of a bug in this loop.
            for (i, p) in h.join().expect("worker thread panicked") {
                slots[i] = Some(p);
            }
        }
    });

    if let Some(e) = first_error.lock().unwrap_or_else(|e| e.into_inner()).take() {
        return Err(e);
    }
    Ok(slots.into_iter().map(|s| s.expect("every slot filled")).collect())
}

/// As [`try_run_indexed`], re-raising a worker panic with its unit
/// context for the infallible sweep entry points.
fn run_indexed<T, F, U>(n: usize, threads: usize, eval: F, unit_of: U) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    U: Fn(usize) -> SweepUnit + Sync,
{
    expect_sweep(try_run_indexed(n, threads, eval, unit_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configspace::{single_level_configs, two_level_configs, SpaceOptions};

    #[test]
    fn parallel_matches_serial() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..4];
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let serial = sweep_threads(configs, SpecBenchmark::Eqntott, budget, &tm, &am, 1);
        let parallel = sweep_threads(configs, SpecBenchmark::Eqntott, budget, &tm, &am, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.stats, p.stats, "{}: parallel run diverged", s.label);
            assert_eq!(s.tpi_ns, p.tpi_ns);
        }
    }

    #[test]
    fn arena_sweep_matches_streaming_sweep() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let mut configs = single_level_configs(&SpaceOptions::baseline())[..2].to_vec();
        configs.extend_from_slice(&two_level_configs(&SpaceOptions::baseline())[..2]);
        let budget = SimBudget { instructions: 15_000, warmup_instructions: 5_000 };
        let streamed = sweep_streaming_threads(&configs, SpecBenchmark::Gcc1, budget, &tm, &am, 2);
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let replayed = sweep_arena_threads(&configs, &arena, budget, &tm, &am, 2);
        assert_eq!(streamed, replayed, "arena sweep must be bit-identical to streaming");
    }

    #[test]
    fn thread_count_does_not_change_arena_results() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = two_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..5];
        let budget = SimBudget { instructions: 10_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Tomcatv, budget);
        let one = sweep_arena_threads(configs, &arena, budget, &tm, &am, 1);
        let many = sweep_arena_threads(configs, &arena, budget, &tm, &am, 5);
        assert_eq!(one, many);
    }

    #[test]
    fn matrix_groups_by_benchmark_in_order() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..2];
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let benchmarks = [SpecBenchmark::Li, SpecBenchmark::Espresso];
        let matrix = sweep_matrix(configs, &benchmarks, budget, &tm, &am, 2);
        assert_eq!(matrix.len(), 2);
        for (row, b) in matrix.iter().zip(&benchmarks) {
            assert_eq!(row.len(), configs.len());
            for p in row {
                assert_eq!(p.workload, b.name());
            }
            // Each row matches its individual sweep exactly.
            assert_eq!(row, &sweep_threads(configs, *b, budget, &tm, &am, 2));
        }
    }

    #[test]
    fn preserves_input_order() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..3];
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let points = sweep_threads(configs, SpecBenchmark::Li, budget, &tm, &am, 3);
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["1:0", "2:0", "4:0"]);
    }

    #[test]
    fn empty_space_is_fine() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let points = sweep_threads(&[], SpecBenchmark::Li, SimBudget::quick(), &tm, &am, 2);
        assert!(points.is_empty());
    }

    #[test]
    fn l1_groups_cover_every_index_once() {
        let mut opts = SpaceOptions::baseline();
        let mut configs = crate::configspace::full_space(&opts);
        opts.l2_policy = crate::machine::L2Policy::Exclusive;
        configs.extend(crate::configspace::two_level_configs(&opts));
        let groups = l1_groups(&configs);
        // Nine L1 sizes, one line size: nine front-ends for the 81-config
        // conventional+exclusive space.
        assert_eq!(groups.len(), 9);
        let mut seen = vec![false; configs.len()];
        for (key, idxs) in &groups {
            for &i in idxs {
                assert!(!seen[i], "index {i} in two groups");
                seen[i] = true;
                assert_eq!((configs[i].l1_size_bytes, configs[i].line_bytes), *key);
            }
        }
        assert!(seen.iter().all(|&s| s), "every index grouped");
        // First-appearance order: the single-level leg enumerates L1
        // sizes ascending.
        assert_eq!(groups[0].0 .0, 1024);
        assert_eq!(groups[8].0 .0, 256 * 1024);
    }

    #[test]
    fn family_sweep_matches_arena_sweep() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        // Mixed space: singles, conventional, exclusive, and a second
        // associativity — several families per shared L1 group.
        let mut opts = SpaceOptions::baseline();
        let mut configs = single_level_configs(&opts)[..3].to_vec();
        configs.extend_from_slice(&two_level_configs(&opts)[..6]);
        opts.l2_policy = crate::machine::L2Policy::Exclusive;
        configs.extend_from_slice(&two_level_configs(&opts)[..6]);
        opts.l2_ways = 1;
        configs.extend_from_slice(&two_level_configs(&opts)[..4]);
        let budget = SimBudget { instructions: 15_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let plain = sweep_arena_threads(&configs, &arena, budget, &tm, &am, 2);
        for threads in [1, 3] {
            let family = sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, threads);
            assert_eq!(plain, family, "family sweep diverged at {threads} threads");
        }
    }

    #[test]
    fn plan_units_keeps_the_chunking_schedule() {
        // Group 0: six exclusive members on one L1 (one family); group 1:
        // a lone single-level config whose group has no capture.
        let mut configs: Vec<MachineConfig> = [2u64, 4, 8, 16, 32, 64]
            .map(|l2| MachineConfig::two_level(1, l2, 4, L2Policy::Exclusive, 50.0))
            .to_vec();
        configs.push(MachineConfig::single_level(8, 50.0));
        let groups = l1_groups(&configs);
        let sources = [Some(()), None];
        let shape = |planned: Vec<Vec<Unit<()>>>| -> Vec<Vec<(char, Vec<usize>)>> {
            planned
                .iter()
                .map(|units| {
                    units
                        .iter()
                        .map(|u| match u {
                            Unit::Family { members, .. } => ('F', members.clone()),
                            Unit::Alone { idx } => ('A', vec![*idx]),
                        })
                        .collect()
                })
                .collect()
        };
        // Single-threaded: families stay whole.
        let whole = plan_units(&configs, &groups, &sources, 1, 0);
        assert_eq!(shape(whole), [vec![('F', vec![0, 1, 2, 3, 4, 5])], vec![('A', vec![6])]]);
        // Two threads: chunks of max(2, ⌈6/2⌉) = 3 family members.
        let family = plan_units(&configs, &groups, &sources, 2, 0);
        assert_eq!(
            shape(family),
            [vec![('F', vec![0, 1, 2]), ('F', vec![3, 4, 5])], vec![('A', vec![6])]]
        );
        // The predict sweep counts its lone member toward the share:
        // chunks of max(2, ⌈7/2⌉) = 4.
        let predict = plan_units(&configs, &groups, &sources, 2, 1);
        assert_eq!(
            shape(predict),
            [vec![('F', vec![0, 1, 2, 3]), ('F', vec![4, 5])], vec![('A', vec![6])]]
        );
    }

    #[test]
    fn predict_sweep_meets_epsilon_contract_on_mixed_space() {
        use tlc_cache::{miss_ratio_error, MISS_RATIO_EPSILON};
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        // Mixed space: singles, conventional 4-way, conventional 1-way,
        // and exclusive members (which must stay on exact replay).
        let mut opts = SpaceOptions::baseline();
        let mut configs = single_level_configs(&opts)[..3].to_vec();
        configs.extend_from_slice(&two_level_configs(&opts)[..6]);
        opts.l2_ways = 1;
        configs.extend_from_slice(&two_level_configs(&opts)[..4]);
        opts.l2_ways = 4;
        opts.l2_policy = crate::machine::L2Policy::Exclusive;
        configs.extend_from_slice(&two_level_configs(&opts)[..4]);
        let budget = SimBudget { instructions: 15_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let truth = sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 2);
        for threads in [1, 3] {
            let predicted =
                sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, threads);
            assert_eq!(predicted.len(), configs.len());
            for ((cfg, got), want) in configs.iter().zip(&predicted).zip(&truth) {
                assert_eq!(got.label, want.label, "order must be preserved");
                match cfg.l2 {
                    Some(spec) if spec.policy == crate::machine::L2Policy::Exclusive => {
                        assert_eq!(got, want, "exclusive members replay bit-identically");
                    }
                    None => assert_eq!(
                        got.stats,
                        want.stats,
                        "single-level prediction is exact ({})",
                        cfg.label()
                    ),
                    Some(spec) => {
                        if spec.ways == 1 {
                            assert_eq!(
                                (got.stats.l2_hits, got.stats.l2_misses),
                                (want.stats.l2_hits, want.stats.l2_misses),
                                "direct-mapped counts are exact ({})",
                                cfg.label()
                            );
                        }
                        let err = miss_ratio_error(&got.stats, &want.stats);
                        assert!(
                            err <= MISS_RATIO_EPSILON,
                            "{}: miss-ratio error {err:.4} > ε at {threads} threads",
                            cfg.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predict_sweep_is_thread_invariant() {
        // The predictor is deterministic: thread count must not change a
        // single predicted statistic.
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let opts = SpaceOptions::baseline();
        let configs: Vec<MachineConfig> =
            two_level_configs(&opts).into_iter().filter(|c| c.l1_size_bytes <= 4096).collect();
        assert!(configs.len() >= 6);
        let budget = SimBudget { instructions: 10_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let one = sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, 1);
        let many = sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, 4);
        assert_eq!(one, many);
    }

    #[test]
    fn family_sweep_chunks_dominant_groups() {
        // One L1 group holding the entire two-level space: with many
        // threads the family must be chunked, and chunking must not
        // change a single statistic.
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let opts = SpaceOptions::baseline();
        let configs: Vec<MachineConfig> =
            two_level_configs(&opts).into_iter().filter(|c| c.l1_size_bytes == 1024).collect();
        assert!(configs.len() >= 8, "1KB L1 pairs with every L2 size");
        let budget = SimBudget { instructions: 10_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let serial = sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 1);
        let chunked = sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 4);
        assert_eq!(serial, chunked);
    }

    #[test]
    fn family_sweep_handles_singleton_groups() {
        // Every config has a distinct L1: all groups are singletons, so
        // the whole sweep takes the arena fallback path.
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..3];
        let budget = SimBudget { instructions: 8_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let plain = sweep_arena_threads(configs, &arena, budget, &tm, &am, 1);
        let family = sweep_family_arena_threads(configs, &arena, budget, &tm, &am, 2);
        assert_eq!(plain, family);
    }

    #[test]
    fn tight_byte_limit_falls_back_to_arena_replay() {
        // A zero byte limit rejects every capture; the family sweep
        // must still return bit-identical results via the fallback.
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let arena = capture_benchmark(SpecBenchmark::Tomcatv, budget);
        assert!(capture_miss_stream(1024, 16, &arena, budget, 0).is_none());
        assert!(capture_miss_stream(1024, 16, &arena, budget, usize::MAX).is_some());
    }

    #[test]
    fn matrix_dedups_duplicate_configs() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let base = single_level_configs(&SpaceOptions::baseline());
        // Same config three times plus a distinct one, shuffled.
        let configs = [base[0], base[1], base[0], base[0]];
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let matrix = sweep_matrix(&configs, &[SpecBenchmark::Espresso], budget, &tm, &am, 2);
        let row = &matrix[0];
        assert_eq!(row.len(), 4, "results fan back out to input positions");
        assert_eq!(row[0], row[2]);
        assert_eq!(row[0], row[3]);
        assert_eq!(row[0].label, base[0].label());
        assert_eq!(row[1].label, base[1].label());
        // Identical to the undeduplicated sweep.
        let direct = sweep_threads(&configs, SpecBenchmark::Espresso, budget, &tm, &am, 2);
        assert_eq!(*row, direct);
    }

    #[test]
    fn arena_footprint_prediction() {
        let b = SimBudget::standard();
        assert_eq!(arena_bytes_for(b), 2_000_000 * 17);
        assert!(arena_bytes_for(b) < ARENA_BYTES_LIMIT, "standard budget uses the arena path");
        let huge = b.scaled(1000.0);
        assert!(arena_bytes_for(huge) > ARENA_BYTES_LIMIT, "1000x budget streams instead");
    }

    #[test]
    fn panicking_worker_yields_structured_error_not_panic() {
        // Regression for the poisoned-mutex path: a panicking evaluation
        // must surface as a SweepError through the try_* contract, never
        // re-panic inside the runner — on the multi-threaded path (where
        // racing workers may find the first_error lock poisoned) and on
        // the inline single-threaded path alike.
        for threads in [1, 4] {
            let r = try_run_indexed(
                8,
                threads,
                |i| {
                    if i >= 2 {
                        panic!("injected failure at unit {i}");
                    }
                    i
                },
                |i| SweepUnit::Config { index: i, label: format!("unit-{i}") },
            );
            let e = r.expect_err("a panicking worker must produce Err, not a panic");
            let SweepError::Worker { unit, payload } = e else { panic!("expected Worker: {e}") };
            assert!(payload.contains("injected failure"), "payload: {payload}");
            assert!(matches!(unit, SweepUnit::Config { index, .. } if index >= 2));
        }
    }

    #[test]
    fn panicking_worker_under_every_thread_returns_first_claimed_error() {
        // All units panic: every worker races to record an error; the
        // runner must still return exactly one structured error.
        let r = try_run_indexed(
            16,
            8,
            |i| -> usize { panic!("boom {i}") },
            |i| SweepUnit::Config { index: i, label: String::new() },
        );
        let e = r.expect_err("expected structured error");
        assert!(matches!(e, SweepError::Worker { payload, .. } if payload.contains("boom")));
    }

    /// A small mixed space and a captured arena for the zero-thread
    /// checks, which must return before touching either.
    fn zero_thread_inputs() -> (Vec<MachineConfig>, TraceArena, SimBudget) {
        let budget = SimBudget { instructions: 2_000, warmup_instructions: 500 };
        let mut configs = single_level_configs(&SpaceOptions::baseline())[..2].to_vec();
        configs.extend_from_slice(&two_level_configs(&SpaceOptions::baseline())[..2]);
        (configs, capture_benchmark(SpecBenchmark::Li, budget), budget)
    }

    #[test]
    fn try_sweep_threads_rejects_zero_threads() {
        let (configs, _, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_threads(&configs, SpecBenchmark::Li, budget, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_arena_threads_rejects_zero_threads() {
        let (configs, arena, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_arena_threads(&configs, &arena, budget, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_family_arena_threads_rejects_zero_threads() {
        let (configs, arena, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_predict_arena_threads_rejects_zero_threads() {
        let (configs, arena, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_streaming_threads_rejects_zero_threads() {
        let (configs, _, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_streaming_threads(&configs, SpecBenchmark::Li, budget, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_sampled_threads_rejects_zero_threads() {
        let (configs, arena, budget) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let slices = [PhaseSlice { arena, budget, weight: 1.0, representative: 0 }];
        let r = try_sweep_sampled_threads(&configs, &slices, &tm, &am, 0);
        assert_eq!(r.unwrap_err(), SweepError::NoThreads);
    }

    #[test]
    fn try_sweep_sampled_threads_rejects_empty_slices() {
        let (configs, _, _) = zero_thread_inputs();
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let r = try_sweep_sampled_threads(&configs, &[], &tm, &am, 2);
        assert_eq!(r.unwrap_err(), SweepError::NoSlices);
    }

    #[test]
    #[should_panic(expected = "need at least one phase slice")]
    fn sweep_sampled_threads_panics_on_empty_slices() {
        let (configs, _, _) = zero_thread_inputs();
        sweep_sampled_threads(&configs, &[], &TimingModel::paper(), &AreaModel::new(), 2);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn rejects_zero_threads() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let _ = sweep_threads(&configs[..1], SpecBenchmark::Li, SimBudget::quick(), &tm, &am, 0);
    }
}
