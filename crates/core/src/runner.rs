//! Parallel sweeps over the configuration space.
//!
//! Every (configuration, benchmark) evaluation is independent, but most
//! of the work is shared: configurations with the same L1 front-end see
//! the same L1 miss stream, and configurations that also share an L2
//! policy, associativity and replacement policy form a *family* that one
//! walk of that stream can drive at every L2 size at once. Every exact
//! point is therefore a family replay: one miss-stream capture per L1
//! group, one replay per family, fanned over a thread pool — a group or
//! family of one configuration included.
//!
//! There is one `Result`-returning entry point per engine:
//! [`try_sweep_threads`] (`auto`/`family`) and
//! [`try_sweep_predict_threads`] (`predict`) over any
//! [`InstructionSource`] opener, their `*_arena_threads` twins over an
//! arena's cursor, and [`try_sweep_sampled_threads`] over phase slices.
//! [`try_sweep_memo_threads`] is [`try_sweep_threads`] with a
//! caller-owned [`StatsMemo`].
//!
//! The family sweeps *simulate*, then *derive*. A configuration's
//! simulated statistics depend only on its [`CacheKey`] (L1 size, line
//! size and L2 spec); its off-chip time and L1 cell enter only the
//! timing/area derivation. So each distinct key is simulated once per
//! call — once per memo, when the caller keeps one across calls — and
//! every configuration's point is derived from its key's statistics.
//!
//! All of them run one pipeline. The capture phase takes its input as
//! *windows* — a source opener and a warm-up/measure [`SimBudget`]: a
//! whole-trace sweep is one window, a sampled sweep one per phase slice.
//! It deals the L1 groups into `min(threads, groups)` *shares*; each
//! share opens its own sources and reads each window once, stepping all
//! of its front-ends over a block of records before reading the next,
//! and cuts one stream segment per window and group. Each front-end sees
//! exactly the records it would see alone, so the exact engines produce
//! the [`DesignPoint`]s [`evaluate`](crate::experiment::evaluate) would
//! at any thread count. One unit evaluator then replays a family over
//! its group's segments and recombines the per-window statistics by
//! window weight; the predict engine answers its predictable members
//! from the captured stream and hands the rest to the same evaluator. A
//! miss stream that outgrows [`MISS_STREAM_BYTES_LIMIT`] is an error
//! ([`SweepError::MissStreamTooLarge`]), never a silent switch to
//! another engine. [`sweep`] is the default-threads convenience.

use crate::experiment::{
    capture_groups, design_point_untracked, evaluate_predicted, simulate_family_segments,
    DesignPoint, SimBudget,
};
use crate::machine::{L2Policy, L2Spec, MachineConfig};
use crate::sampling::{combine_weighted, PhaseSlice};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use tlc_area::AreaModel;
use tlc_cache::{HierarchyStats, MissStream, ReplacementKind};
use tlc_obs::{obs_count, obs_hist, obs_span, Counter, Hist, HistTimer, PhaseSpan};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{InstructionSource, TraceArena};

/// The work unit a sweep worker was executing when it panicked;
/// identifies where in the pipeline the failure sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepUnit {
    /// Miss-stream capture for one L1 front-end group.
    L1Group {
        /// The group's L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The group's line size in bytes.
        line_bytes: u64,
    },
    /// Family-batched replay of one or more configurations at once.
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
    /// One caller-defined unit of a [`try_run_indexed`] fan-out, named by
    /// the caller.
    Task(String),
}

impl std::fmt::Display for SweepUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepUnit::L1Group { l1_size_bytes, line_bytes } => {
                write!(f, "L1 group {l1_size_bytes}B/{line_bytes}B capture")
            }
            SweepUnit::FamilyChunk { l1_size_bytes, line_bytes, members } => {
                write!(f, "family chunk {l1_size_bytes}B/{line_bytes}B (configs {members:?})")
            }
            SweepUnit::PredictGroup { l1_size_bytes, line_bytes, members } => {
                write!(f, "predict group {l1_size_bytes}B/{line_bytes}B (configs {members:?})")
            }
            SweepUnit::Task(label) => f.write_str(label),
        }
    }
}

/// Why a `try_sweep_*` call produced no results: a request it cannot
/// run, a capture too large to hold, or a worker panic propagated as a
/// value instead of aborting the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The request asked for zero worker threads.
    NoThreads,
    /// A sampled sweep was handed no phase slices to replay.
    NoSlices,
    /// An L1 group's captured miss stream outgrew
    /// [`MISS_STREAM_BYTES_LIMIT`]; the capture was abandoned.
    MissStreamTooLarge {
        /// The group's L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The group's line size in bytes.
        line_bytes: u64,
        /// The byte limit the stream exceeded.
        limit_bytes: usize,
    },
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
            SweepError::MissStreamTooLarge { l1_size_bytes, line_bytes, limit_bytes } => write!(
                f,
                "L1 group {l1_size_bytes}B/{line_bytes}B: miss stream exceeds \
                 MISS_STREAM_BYTES_LIMIT ({limit_bytes} B); sweep a shorter window"
            ),
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

/// Upper bound on a whole-trace arena capture (`tlc sweep --trace`) and
/// on a cached preset window: 1 GiB ≈ 63 M instructions at 17 bytes per
/// packed record, far beyond the standard 2 M-instruction budget. No
/// sweep needs an arena: a sweep streams its input past this size.
pub const ARENA_BYTES_LIMIT: usize = 1 << 30;

/// Packed bytes per captured instruction (fetch `u64` + data `u64` +
/// flag `u8`); used to predict a capture's footprint before building it.
pub use tlc_trace::columns::BYTES_PER_RECORD as ARENA_BYTES_PER_RECORD;

/// Upper bound on one L1 group's captured miss stream (all of its
/// segments together) before the sweep fails with
/// [`SweepError::MissStreamTooLarge`]. Matches [`ARENA_BYTES_LIMIT`]; in
/// practice a miss stream is 1–10% of the arena (Table 1 miss rates), so
/// the bound only trips for L1s small enough that most references miss.
pub const MISS_STREAM_BYTES_LIMIT: usize = ARENA_BYTES_LIMIT;

/// The key identifying one L1 front-end for miss-stream filtering:
/// `(l1_size_bytes, line_bytes)`. Cell kind, ports, and off-chip latency
/// affect only the timing/area models, never the simulated trajectory,
/// so configurations differing only in those share a captured stream.
pub type L1Key = (u64, u64);

/// Groups configuration indices by their L1 front-end, in order of first
/// appearance. Each entry is `(key, indices into configs)`; every index
/// appears exactly once. This is the capture schedule of every sweep:
/// one L1 simulation per returned group.
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

/// Everything a configuration's simulated [`HierarchyStats`] depend on:
/// the L1 front-end ([`L1Key`]) and the L2, if any. The rest of a
/// [`MachineConfig`] — the L1 cell kind and the off-chip service time —
/// enters only the timing and area derivation, so configurations that
/// differ only there share one simulation. A direct-mapped L2's
/// replacement policy is normalised away: its one way is always the
/// victim, so the policy never acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Capacity of each L1 cache in bytes.
    pub l1_size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// The L2, with `repl` normalised when `ways == 1`.
    pub l2: Option<L2Spec>,
}

impl CacheKey {
    /// The key `cfg` is simulated under.
    pub fn of(cfg: &MachineConfig) -> CacheKey {
        let l2 = cfg.l2.map(|spec| match spec.ways {
            1 => L2Spec { repl: ReplacementKind::PseudoRandom, ..spec },
            _ => spec,
        });
        CacheKey { l1_size_bytes: cfg.l1_size_bytes, line_bytes: cfg.line_bytes, l2 }
    }
}

/// Simulated statistics by [`CacheKey`], owned by a caller that sweeps
/// one stream at one budget several times ([`try_sweep_memo_threads`]).
/// Every entry must come from that stream and budget: the memo itself
/// records neither.
pub type StatsMemo = HashMap<CacheKey, HierarchyStats>;

/// Evaluates every configuration on `benchmark` on [`default_threads`]
/// workers ([`try_sweep_threads`] over its generator). Results are
/// returned in the same order as `configs`.
///
/// # Panics
///
/// Panics if the sweep fails, naming the unit that failed.
pub fn sweep(
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
) -> Vec<DesignPoint> {
    try_sweep_threads(configs, || benchmark.workload(), budget, timing, area, default_threads())
        .unwrap_or_else(|e| panic!("sweep failed: {e}"))
}

/// Number of worker threads used by [`sweep`]: the host's available
/// parallelism, or 4 if it cannot be read. The count is resolved once,
/// at first use, and fixed for the rest of the process; the query reads
/// cgroup files on Linux and costs microseconds per call.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// The `auto` engine: evaluates every configuration on the stream
/// `open` yields (every call must yield the same stream), on `threads`
/// workers, in input order, by family replay.
///
/// The sweep simulates, then derives. Configurations sharing a
/// [`CacheKey`] are simulated once. The distinct keys are grouped by L1
/// front-end ([`l1_groups`]); each share of the groups calls `open` once
/// and captures its groups' miss streams over `budget`'s window. Each
/// group is partitioned into *families* sharing one L2 policy,
/// associativity and replacement (in the paper's spaces, "one L1, every
/// L2 capacity"), and each family replays its group's events once for
/// all of its members ([`simulate_family_segments`]). Every
/// configuration's [`DesignPoint`] is then derived from its key's
/// statistics and its own timing and area. Every point is bit-identical
/// to [`evaluate`](crate::experiment::evaluate) on that configuration
/// alone. A family holding more than its fair share of the space is
/// chunked across threads (a single-threaded sweep keeps it whole).
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::MissStreamTooLarge`] if an L1 group's miss stream
/// outgrows [`MISS_STREAM_BYTES_LIMIT`]; [`SweepError::Worker`] if a
/// worker panics, naming the L1 group or family chunk that failed.
pub fn try_sweep_threads<S: InstructionSource>(
    configs: &[MachineConfig],
    open: impl Fn() -> S + Sync,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    try_sweep_memo_threads(configs, open, budget, timing, area, threads, &mut StatsMemo::new())
}

/// [`try_sweep_threads`] with a caller-owned `memo` of the statistics
/// already simulated on the same stream at the same `budget`. Only the
/// keys missing from `memo` are captured and replayed; their statistics
/// are written back, so a later sweep of the same stream that asks for
/// them costs a lookup and a derivation. A failed sweep leaves `memo`
/// unchanged.
///
/// # Errors
///
/// As [`try_sweep_threads`].
pub fn try_sweep_memo_threads<S: InstructionSource>(
    configs: &[MachineConfig],
    open: impl Fn() -> S + Sync,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
    memo: &mut StatsMemo,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    try_sweep_windows(configs, |_| open(), &[budget], &[1.0], memo, timing, area, threads)
}

/// The family sweep over the windows `budgets` (window `w` read from
/// `open(w)`), recombined by the window `weights`.
///
/// *Simulate*: every [`CacheKey`] of `configs` that `memo` lacks is
/// replayed once, through its first configuration, and its statistics
/// are written into `memo`. *Derive*: every configuration's point comes
/// from its key's statistics in `memo` ([`design_point_untracked`]).
/// `runner.configs_simulated` ticks once per replayed key and
/// `runner.configs_completed` once per point × window, as each unit
/// finishes for the configurations its keys stand for.
#[allow(clippy::too_many_arguments)]
fn try_sweep_windows<S: InstructionSource>(
    configs: &[MachineConfig],
    open: impl Fn(usize) -> S + Sync,
    budgets: &[SimBudget],
    weights: &[f64],
    memo: &mut StatsMemo,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    let keys: Vec<CacheKey> = configs.iter().map(CacheKey::of).collect();
    // Each missing key is replayed through its first configuration,
    // which stands for `sharers[first]` configurations.
    let mut sharers = vec![0usize; configs.len()];
    let mut first_of: HashMap<CacheKey, usize> = HashMap::new();
    for (i, key) in keys.iter().enumerate().filter(|(_, key)| !memo.contains_key(key)) {
        sharers[*first_of.entry(*key).or_insert(i)] += 1;
    }
    let reps: Vec<usize> = (0..configs.len()).filter(|&i| sharers[i] > 0).collect();
    let groups: Vec<(L1Key, Vec<usize>)> = l1_groups(&member_configs(configs, &reps))
        .into_iter()
        .map(|(key, idxs)| (key, idxs.into_iter().map(|r| reps[r]).collect()))
        .collect();
    let captured = try_capture_groups(&groups, &open, budgets, MISS_STREAM_BYTES_LIMIT, threads)?;
    let units: Vec<Unit<'_>> = plan_units(configs, &groups, threads)
        .into_iter()
        .zip(&captured)
        .flat_map(|(chunks, segments)| chunks.into_iter().map(|members| Unit { segments, members }))
        .collect();
    let simulated = try_fan_out(configs.len(), &units, threads, Unit::sweep_unit, |u| {
        let stats = replay_unit(configs, weights, u);
        let points: usize = u.members.iter().map(|&m| sharers[m]).sum();
        obs_count!(Counter::RunnerConfigsCompleted, (points * weights.len()) as u64);
        stats
    })?;
    memo.extend(keys.iter().zip(simulated).filter_map(|(key, stats)| Some((*key, stats?))));
    let served = configs.len() - sharers.iter().sum::<usize>();
    obs_count!(Counter::RunnerConfigsCompleted, (served * weights.len()) as u64);
    let workload = match captured.first() {
        Some(segments) => segments[0].name().to_string(),
        None if configs.is_empty() => String::new(),
        None => open(0).source_name().to_string(),
    };
    Ok(configs
        .iter()
        .zip(&keys)
        .map(|(cfg, key)| design_point_untracked(cfg, workload.clone(), memo[key], timing, area))
        .collect())
}

/// Phase A of every sweep: each L1 group's segments, in group order, over
/// the windows `budgets` (window `w` read from `open(w)`). The groups are
/// dealt round-robin into `min(threads, groups)` shares; each share is
/// one [`capture_groups`] walk under a `share[k]` span whose items are
/// its groups. `capture.l1_group_ns` gets one sample per group, and
/// share 0 counts the windows' instructions into `trace.instructions`.
/// A group past `byte_limit` fails the sweep with
/// [`SweepError::MissStreamTooLarge`]; a panic names the group whose
/// front-end was being built or stepped.
fn try_capture_groups<S: InstructionSource>(
    groups: &[(L1Key, Vec<usize>)],
    open: impl Fn(usize) -> S + Sync,
    budgets: &[SimBudget],
    byte_limit: usize,
    threads: usize,
) -> Result<Vec<Vec<MissStream>>, SweepError> {
    let _span = obs_span!("l1_capture");
    let shares = threads.min(groups.len());
    // Group `g` sits in share `g % shares`, at position `g / shares`.
    let group_of = |share: usize, i: usize| &groups[share + i * shares].0;
    let active: Vec<AtomicUsize> = (0..shares).map(|_| AtomicUsize::new(0)).collect();
    let dealt = try_run_indexed(
        shares,
        threads,
        |k| {
            let keys: Vec<L1Key> = groups.iter().skip(k).step_by(shares).map(|g| g.0).collect();
            let span = PhaseSpan::enter_with("share", &k.to_string());
            span.add_items(keys.len() as u64);
            let (captures, read) = capture_groups(&keys, &open, budgets, byte_limit, &active[k])
                .map_err(|i| {
                    let &(l1_size_bytes, line_bytes) = group_of(k, i);
                    SweepError::MissStreamTooLarge {
                        l1_size_bytes,
                        line_bytes,
                        limit_bytes: byte_limit,
                    }
                })?;
            if k == 0 {
                obs_count!(Counter::TraceInstructions, read);
            }
            for c in &captures {
                obs_hist!(Hist::CaptureL1GroupNs, c.block_ns);
            }
            Ok(captures)
        },
        |k| {
            let &(l1_size_bytes, line_bytes) = group_of(k, active[k].load(Ordering::Relaxed));
            SweepUnit::L1Group { l1_size_bytes, line_bytes }
        },
    )?;
    let mut segments: Vec<Vec<MissStream>> = groups.iter().map(|_| Vec::new()).collect();
    for (k, share) in dealt.into_iter().enumerate() {
        for (i, capture) in share?.into_iter().enumerate() {
            segments[k + i * shares] = capture.segments;
        }
    }
    Ok(segments)
}

/// One parallel work unit of every sweep: a family chunk sharing one L2
/// policy, associativity, and replacement, replaying its group's
/// captured segments once for every member.
struct Unit<'a> {
    segments: &'a [MissStream],
    members: Vec<usize>,
}

impl Unit<'_> {
    /// The unit a worker panic is attributed to.
    fn sweep_unit(&self) -> SweepUnit {
        SweepUnit::FamilyChunk {
            l1_size_bytes: self.segments[0].l1_size_bytes(),
            line_bytes: self.segments[0].line_bytes(),
            members: self.members.clone(),
        }
    }
}

/// Plans a sweep's replay units from its L1 groups, returning one list
/// of member chunks per group.
///
/// Each group is partitioned into families by `(policy, ways, repl)`, in
/// first-appearance order within the group. When `threads > 1`, a family
/// larger than `max(2, ⌈members / threads⌉)` is chunked so one dominant
/// group cannot serialise the sweep (each chunk still shares one decode
/// among its members; a single-threaded sweep keeps every family whole).
fn plan_units(
    configs: &[MachineConfig],
    groups: &[(L1Key, Vec<usize>)],
    threads: usize,
) -> Vec<Vec<Vec<usize>>> {
    type FamilyKey = Option<(L2Policy, u32, ReplacementKind)>;
    let members: usize = groups.iter().map(|(_, idxs)| idxs.len()).sum();
    let cap = if threads > 1 { members.div_ceil(threads).max(2) } else { usize::MAX };
    groups
        .iter()
        .map(|(_, idxs)| {
            let mut fams: Vec<(FamilyKey, Vec<usize>)> = Vec::new();
            for &i in idxs {
                let key = configs[i].l2.map(|s| (s.policy, s.ways, s.repl));
                match fams.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(i),
                    None => fams.push((key, vec![i])),
                }
            }
            fams.iter().flat_map(|(_, fam)| fam.chunks(cap).map(<[usize]>::to_vec)).collect()
        })
        .collect()
}

/// Phase B of every sweep: fans the units out under a `fan_out` span
/// (each returns `(input index, value)` pairs) and scatters the values
/// into `n` input-order slots; a slot no unit filled stays `None`.
/// `unit_of` names the unit a worker panic is attributed to.
fn try_fan_out<U: Sync, T: Clone + Send>(
    n: usize,
    units: &[U],
    threads: usize,
    unit_of: impl Fn(&U) -> SweepUnit + Sync,
    eval: impl Fn(&U) -> Vec<(usize, T)> + Sync,
) -> Result<Vec<Option<T>>, SweepError> {
    let evaluated = {
        let _span = obs_span!("fan_out");
        try_run_indexed(units.len(), threads, |u| eval(&units[u]), |u| unit_of(&units[u]))?
    };
    let mut slots: Vec<Option<T>> = vec![None; n];
    for (i, v) in evaluated.into_iter().flatten() {
        slots[i] = Some(v);
    }
    Ok(slots)
}

/// The configurations at `members`, in order.
fn member_configs(configs: &[MachineConfig], members: &[usize]) -> Vec<MachineConfig> {
    members.iter().map(|&i| configs[i]).collect()
}

/// Phase B of every sweep: replays one family unit over its group's
/// segments ([`simulate_family_segments`]), returning `(input index,
/// statistics)` pairs. Each member's per-window statistics are
/// recombined by the window `weights`
/// ([`combine_weighted`](crate::sampling::combine_weighted), exact for a
/// single window of weight 1). `runner.configs_simulated` ticks once per
/// member.
fn replay_unit(
    configs: &[MachineConfig],
    weights: &[f64],
    unit: &Unit<'_>,
) -> Vec<(usize, HierarchyStats)> {
    let per_window = {
        let _t = HistTimer::start(Hist::ReplayFamilyChunkNs);
        simulate_family_segments(&member_configs(configs, &unit.members), unit.segments)
    };
    obs_count!(Counter::RunnerConfigsSimulated, unit.members.len() as u64);
    unit.members
        .iter()
        .enumerate()
        .map(|(m, &i)| {
            let parts: Vec<(f64, HierarchyStats)> =
                per_window.iter().zip(weights).map(|(row, &w)| (w, row[m])).collect();
            (i, combine_weighted(&parts))
        })
        .collect()
}

/// [`try_sweep_threads`] over `arena`'s cursor: the family sweep of an
/// already-captured trace.
///
/// # Errors
///
/// As [`try_sweep_threads`].
pub fn try_sweep_family_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    try_sweep_threads(configs, || arena.replay(), budget, timing, area, threads)
}

/// The sampled sweep with **stitched warming**: the family sweep with
/// one window per representative [`PhaseSlice`]. Configurations sharing
/// a [`CacheKey`] are simulated once; the distinct keys are grouped by
/// L1 front-end ([`l1_groups`]) and each group's front-end replays every
/// slice in trace order (as
/// [`capture_miss_stream_segments`](crate::experiment::capture_miss_stream_segments)
/// does) — L1 contents persist across the gaps between slices, and each
/// slice's warm-up prefix refreshes them. Each family then walks the
/// per-slice segments through **one** persistent set of L2 states
/// ([`simulate_family_segments`]), so the L2 arrays, LFSRs, and
/// exclusive mirrors inherit stale state instead of restarting cold at
/// every slice. Per-phase measured statistics are recombined with
/// [`combine_weighted`] into one whole-trace estimate per configuration.
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
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero and
/// [`SweepError::NoSlices`] if `slices` is empty, both before any work;
/// [`SweepError::MissStreamTooLarge`] if an L1 group's segments together
/// outgrow [`MISS_STREAM_BYTES_LIMIT`]; [`SweepError::Worker`] if a
/// worker panics, naming the L1 group or family chunk that failed.
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
    let budgets: Vec<SimBudget> = slices.iter().map(|s| s.budget).collect();
    let weights: Vec<f64> = slices.iter().map(|s| s.weight).collect();
    let open = |w: usize| slices[w].arena.replay();
    let memo = &mut StatsMemo::new();
    try_sweep_windows(configs, open, &budgets, &weights, memo, timing, area, threads)
}

/// The analytical-prediction sweep: configurations are grouped and
/// captured exactly as in [`try_sweep_threads`], but each group's
/// single-level and conventional members are answered by **one**
/// reuse-distance profiling pass ([`evaluate_predicted`]) — O(events)
/// per L1 group, independent of how many L2 points the group sweeps —
/// instead of one replay per associativity family.
///
/// **Not bit-identical.** Predicted points carry the documented ε
/// contract ([`tlc_cache::MISS_RATIO_EPSILON`]) on the local L2 miss
/// ratio versus family-replayed ground truth; single-level members are
/// exact and direct-mapped members have exact hit/miss counts (see
/// [`tlc_cache::predict`]). Members the model cannot cover stay on
/// replay and remain bit-identical: exclusive hierarchies and
/// set-associative members with FIFO, tree-PLRU, or SRRIP replacement
/// (see [`config_is_predictable`](crate::config_is_predictable)) go
/// through the family engine. The `predict.configs_predicted` /
/// `predict.configs_replayed` counters record the split. Results are
/// returned in input order.
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::MissStreamTooLarge`] if an L1 group's miss stream
/// outgrows [`MISS_STREAM_BYTES_LIMIT`]; [`SweepError::Worker`] if a
/// worker panics, naming the L1 group, predict group, or family chunk
/// that failed.
pub fn try_sweep_predict_threads<S: InstructionSource>(
    configs: &[MachineConfig],
    open: impl Fn() -> S + Sync,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    require_threads(threads)?;
    let groups = l1_groups(configs);
    let captured =
        try_capture_groups(&groups, |_| open(), &[budget], MISS_STREAM_BYTES_LIMIT, threads)?;
    // Each group's predictable members form one profiling unit; the rest
    // are planned as the family sweep plans them.
    let mut profiled: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    let mut replayed: Vec<(L1Key, Vec<usize>)> = Vec::with_capacity(groups.len());
    for (key, idxs) in &groups {
        let (predictable, rest) =
            idxs.iter().partition(|&&i| crate::experiment::config_is_predictable(&configs[i]));
        profiled.push(predictable);
        replayed.push((*key, rest));
    }
    let planned = plan_units(configs, &replayed, threads);
    // Within each group, its profiling unit runs ahead of its replays.
    let mut units: Vec<PredictUnit> = Vec::new();
    for ((members, segments), replays) in profiled.into_iter().zip(&captured).zip(planned) {
        if !members.is_empty() {
            units.push(PredictUnit::Profile { stream: &segments[0], members });
        }
        units.extend(
            replays.into_iter().map(|members| PredictUnit::Replay(Unit { segments, members })),
        );
    }
    let unit_of = |unit: &PredictUnit| match unit {
        PredictUnit::Profile { stream, members } => SweepUnit::PredictGroup {
            l1_size_bytes: stream.l1_size_bytes(),
            line_bytes: stream.line_bytes(),
            members: members.clone(),
        },
        PredictUnit::Replay(unit) => unit.sweep_unit(),
    };
    let slots = try_fan_out(configs.len(), &units, threads, unit_of, |unit| match unit {
        PredictUnit::Profile { stream, members } => {
            let label = format!("{}B/{}B", stream.l1_size_bytes(), stream.line_bytes());
            let span = PhaseSpan::enter_with("predict_group", &label);
            span.add_items(members.len() as u64);
            let points =
                evaluate_predicted(&member_configs(configs, members), stream, timing, area);
            members.iter().copied().zip(points).collect()
        }
        PredictUnit::Replay(unit) => {
            obs_count!(Counter::PredictConfigsReplayed, unit.members.len() as u64);
            let stats = replay_unit(configs, &[1.0], unit);
            obs_count!(Counter::RunnerConfigsCompleted, stats.len() as u64);
            let workload = unit.segments[0].name();
            stats
                .into_iter()
                .map(|(i, s)| {
                    (i, design_point_untracked(&configs[i], workload.to_string(), s, timing, area))
                })
                .collect()
        }
    })?;
    Ok(slots.into_iter().map(|s| s.expect("every configuration evaluated")).collect())
}

/// [`try_sweep_predict_threads`] over `arena`'s cursor.
///
/// # Errors
///
/// As [`try_sweep_predict_threads`].
pub fn try_sweep_predict_arena_threads(
    configs: &[MachineConfig],
    arena: &TraceArena,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
    threads: usize,
) -> Result<Vec<DesignPoint>, SweepError> {
    try_sweep_predict_threads(configs, || arena.replay(), budget, timing, area, threads)
}

/// One parallel work unit of the predict sweep.
enum PredictUnit<'a> {
    /// A group's predictable members, answered from one reuse-distance
    /// profiling pass; never chunked, since splitting it would repeat the
    /// pass.
    Profile { stream: &'a MissStream, members: Vec<usize> },
    /// A family chunk the model cannot cover, replayed exactly.
    Replay(Unit<'a>),
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
/// results land back in index order, so the output never depends on
/// `threads` or on which worker ran what. A panicking evaluation stops the
/// sweep (workers drain, no new claims) and is reported as a
/// [`SweepError`] naming the unit `unit_of(i)` describes; with several
/// concurrent panics the first to be observed wins. Each worker gets a
/// `worker[w]` phase span (under the caller's current span) carrying
/// its claimed-unit count, so queue imbalance shows in the manifest.
/// One thread runs every unit on the calling thread, in order.
///
/// # Errors
///
/// [`SweepError::NoThreads`] if `threads` is zero, before any work;
/// [`SweepError::Worker`] if an evaluation panics.
pub fn try_run_indexed<T, F, U>(
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
        let span = PhaseSpan::enter_with("worker", "0");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configspace::{single_level_configs, two_level_configs, SpaceOptions};
    use crate::experiment::{capture_benchmark, capture_miss_stream, evaluate};
    use tlc_area::CellKind;

    /// The independent per-configuration reference: every point through
    /// its own per-access hierarchy on the regenerated stream.
    fn per_config(
        configs: &[MachineConfig],
        benchmark: SpecBenchmark,
        budget: SimBudget,
    ) -> Vec<DesignPoint> {
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        configs
            .iter()
            .map(|cfg| evaluate(cfg, &mut benchmark.workload(), budget, &tm, &am))
            .collect()
    }

    #[test]
    fn parallel_matches_serial() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..4];
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let serial =
            try_sweep_threads(configs, || SpecBenchmark::Eqntott.workload(), budget, &tm, &am, 1)
                .expect("sweep");
        let parallel =
            try_sweep_threads(configs, || SpecBenchmark::Eqntott.workload(), budget, &tm, &am, 4)
                .expect("sweep");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.stats, p.stats, "{}: parallel run diverged", s.label);
            assert_eq!(s.tpi_ns, p.tpi_ns);
        }
    }

    #[test]
    fn family_sweep_matches_per_config_evaluation() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let mut configs = single_level_configs(&SpaceOptions::baseline())[..2].to_vec();
        configs.extend_from_slice(&two_level_configs(&SpaceOptions::baseline())[..2]);
        let budget = SimBudget { instructions: 15_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let replayed =
            try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 2).expect("sweep");
        assert_eq!(
            per_config(&configs, SpecBenchmark::Gcc1, budget),
            replayed,
            "family sweep must be bit-identical to per-config evaluation"
        );
    }

    #[test]
    fn one_config_auto_sweep_matches_evaluate() {
        // A single configuration is a family of one in a group of one.
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = [MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0)];
        let budget = SimBudget { instructions: 15_000, warmup_instructions: 5_000 };
        let auto =
            try_sweep_threads(&configs, || SpecBenchmark::Gcc1.workload(), budget, &tm, &am, 2)
                .expect("sweep");
        assert_eq!(auto, per_config(&configs, SpecBenchmark::Gcc1, budget));
    }

    #[test]
    fn thread_count_does_not_change_family_results() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = two_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..5];
        let budget = SimBudget { instructions: 10_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Tomcatv, budget);
        let one =
            try_sweep_family_arena_threads(configs, &arena, budget, &tm, &am, 1).expect("sweep");
        let many =
            try_sweep_family_arena_threads(configs, &arena, budget, &tm, &am, 5).expect("sweep");
        assert_eq!(one, many);
    }

    #[test]
    fn a_memo_serves_its_keys_and_learns_the_missing_ones() {
        let (tm, am) = (TimingModel::paper(), AreaModel::new());
        let opts = SpaceOptions::baseline();
        let mut configs = single_level_configs(&opts)[..2].to_vec();
        configs.extend_from_slice(&two_level_configs(&opts)[..6]);
        let budget = SimBudget { instructions: 10_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let fresh =
            try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 2).expect("sweep");
        // A seeded key is served as seeded, never re-simulated; the rest
        // are simulated and written back.
        let seeded = HierarchyStats { instructions: 1, ..fresh[0].stats };
        let mut memo = StatsMemo::from([(CacheKey::of(&configs[0]), seeded)]);
        let got =
            try_sweep_memo_threads(&configs, || arena.replay(), budget, &tm, &am, 2, &mut memo)
                .expect("sweep");
        assert_eq!(got[0].stats, seeded);
        assert_eq!(got[1..], fresh[1..]);
        assert_eq!(memo.len(), configs.len(), "one key per configuration here");
        for (cfg, p) in configs.iter().zip(&fresh).skip(1) {
            assert_eq!(memo[&CacheKey::of(cfg)], p.stats, "{}", cfg.label());
        }
        // The same hierarchies at another off-chip time and L1 cell are
        // served from the memo alone and derive their own points.
        let slow: Vec<MachineConfig> = configs[1..]
            .iter()
            .map(|c| MachineConfig { offchip_ns: 200.0, ..c.with_l1_cell(CellKind::DualPorted) })
            .collect();
        let want =
            try_sweep_family_arena_threads(&slow, &arena, budget, &tm, &am, 1).expect("sweep");
        for threads in [1, 3] {
            let served = try_sweep_memo_threads(
                &slow,
                || arena.replay(),
                budget,
                &tm,
                &am,
                threads,
                &mut memo,
            )
            .expect("sweep");
            assert_eq!(served, want, "{threads} threads");
        }
        assert_eq!(memo.len(), configs.len(), "nothing new to learn");
    }

    #[test]
    fn preserves_input_order() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let configs = &configs[..3];
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let points =
            try_sweep_threads(configs, || SpecBenchmark::Li.workload(), budget, &tm, &am, 3)
                .expect("sweep");
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["1:0", "2:0", "4:0"]);
    }

    #[test]
    fn empty_space_is_fine() {
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let open = || SpecBenchmark::Li.workload();
        let points = try_sweep_threads(&[], open, SimBudget::quick(), &tm, &am, 2).expect("sweep");
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
    fn family_sweep_matches_per_config_reference_on_a_mixed_space() {
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
        let plain = per_config(&configs, SpecBenchmark::Gcc1, budget);
        for threads in [1, 3] {
            let family =
                try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, threads)
                    .expect("sweep");
            assert_eq!(plain, family, "family sweep diverged at {threads} threads");
        }
    }

    #[test]
    fn plan_units_keeps_the_chunking_schedule() {
        // Group 0: six exclusive members on one L1 (one family); group 1:
        // a lone single-level config, a family of one.
        let mut configs: Vec<MachineConfig> = [2u64, 4, 8, 16, 32, 64]
            .map(|l2| MachineConfig::two_level(1, l2, 4, L2Policy::Exclusive, 50.0))
            .to_vec();
        configs.push(MachineConfig::single_level(8, 50.0));
        let groups = l1_groups(&configs);
        // Single-threaded: families stay whole.
        assert_eq!(plan_units(&configs, &groups, 1), [vec![vec![0, 1, 2, 3, 4, 5]], vec![vec![6]]]);
        // Two threads: chunks of max(2, ⌈7/2⌉) = 4 members.
        assert_eq!(
            plan_units(&configs, &groups, 2),
            [vec![vec![0, 1, 2, 3], vec![4, 5]], vec![vec![6]]]
        );
        // Eight threads: the floor of two members per chunk.
        assert_eq!(
            plan_units(&configs, &groups, 8),
            [vec![vec![0, 1], vec![2, 3], vec![4, 5]], vec![vec![6]]]
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
        let truth =
            try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 2).expect("sweep");
        for threads in [1, 3] {
            let predicted =
                try_sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, threads)
                    .expect("sweep");
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
        let one =
            try_sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, 1).expect("sweep");
        let many =
            try_sweep_predict_arena_threads(&configs, &arena, budget, &tm, &am, 4).expect("sweep");
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
        let serial =
            try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 1).expect("sweep");
        let chunked =
            try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, 4).expect("sweep");
        assert_eq!(serial, chunked);
    }

    #[test]
    fn family_sweep_handles_singleton_groups() {
        // Every config has a distinct L1: all groups are singletons, each
        // captured and replayed as a family of one.
        let tm = TimingModel::paper();
        let am = AreaModel::new();
        let configs = single_level_configs(&SpaceOptions::baseline());
        let mut configs = configs[..3].to_vec();
        configs.push(MachineConfig::two_level(16, 64, 4, L2Policy::Exclusive, 50.0));
        let budget = SimBudget { instructions: 8_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let plain = per_config(&configs, SpecBenchmark::Li, budget);
        for threads in [1, 2] {
            let family =
                try_sweep_family_arena_threads(&configs, &arena, budget, &tm, &am, threads)
                    .expect("sweep");
            assert_eq!(plain, family, "{threads} threads");
        }
    }

    /// Asserts two captured segments agree field for field and event for
    /// event.
    fn assert_same_stream(got: &MissStream, want: &MissStream, what: &str) {
        let shape = |s: &MissStream| {
            (s.name().to_string(), s.l1_size_bytes(), s.line_bytes(), s.len(), s.bytes())
        };
        assert_eq!(shape(got), shape(want), "{what}");
        assert_eq!(got.warmup_events(), want.warmup_events(), "{what}: warm-up boundary");
        assert_eq!(got.l1_stats(), want.l1_stats(), "{what}: L1 statistics");
        assert!(got.events().eq(want.events()), "{what}: events diverged");
    }

    /// Five L1 groups: fewer than eight threads, more than one to three.
    fn capture_space() -> Vec<MachineConfig> {
        let opts = SpaceOptions::baseline();
        let mut configs = single_level_configs(&opts)[..5].to_vec();
        configs.extend_from_slice(&two_level_configs(&opts)[..4]);
        configs.push(MachineConfig::two_level(2, 64, 4, L2Policy::Exclusive, 50.0));
        configs
    }

    /// The shared walk over `open`'s window at 1, 2, 3 and 8 threads must
    /// capture, for every group, exactly the stream a lone front-end
    /// captures from an arena of that window.
    fn check_shared_walk<S: InstructionSource>(
        what: &str,
        open: impl Fn() -> S + Sync,
        budget: SimBudget,
    ) {
        let groups = l1_groups(&capture_space());
        assert_eq!(groups.len(), 5);
        let arena =
            TraceArena::capture(&mut open(), budget.warmup_instructions + budget.instructions);
        let want: Vec<MissStream> = groups
            .iter()
            .map(|&((l1, line), _)| {
                capture_miss_stream(l1, line, &arena, budget, usize::MAX).expect("unbounded")
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = try_capture_groups(&groups, |_| open(), &[budget], usize::MAX, threads)
                .expect("capture");
            assert_eq!(got.len(), groups.len());
            for (segments, want) in got.iter().zip(&want) {
                assert_eq!(segments.len(), 1, "one window, one segment");
                let what = format!("{what}, {}B L1, {threads} threads", want.l1_size_bytes());
                assert_same_stream(&segments[0], want, &what);
            }
        }
    }

    #[test]
    fn shared_walk_matches_per_group_capture_from_every_source() {
        use tlc_trace::compact::{write_compact_trace, TraceReader};
        use tlc_trace::ReplaySource;
        let budget = SimBudget { instructions: 9_000, warmup_instructions: 3_000 };
        let b = SpecBenchmark::Gcc1;
        check_shared_walk("generator", || b.workload(), budget);
        let arena = capture_benchmark(b, budget);
        check_shared_walk("arena cursor", || arena.replay(), budget);
        let records = b.workload().take_instructions(12_000);
        let mut compact = Vec::new();
        write_compact_trace(&mut compact, &records).expect("in-memory write");
        let reader = || TraceReader::new(&compact[..], b.name()).expect("compact header");
        check_shared_walk("TLCTRC01 reader", reader, budget);
        // 2 000 records end inside the 3 000-instruction warm-up: every
        // group measures nothing, with its warm-up events kept.
        let short = || ReplaySource::new(b.name(), records[..2_000].to_vec());
        check_shared_walk("source ending in warm-up", short, budget);
        // A window with no warm-up, measured to a short source's end.
        let open = || ReplaySource::new(b.name(), records[..7_000].to_vec());
        let whole = SimBudget { instructions: u64::MAX - 1, warmup_instructions: 0 };
        check_shared_walk("whole finite source", open, whole);
    }

    #[test]
    fn shared_walk_matches_per_group_capture_over_sampled_windows() {
        use crate::experiment::capture_miss_stream_segments;
        let records = SpecBenchmark::Li.workload().take_instructions(30_000);
        let slice = |from: usize, to: usize, warmup: u64| {
            let mut src = tlc_trace::ReplaySource::new("li", records[from..to].to_vec());
            let arena = TraceArena::capture(&mut src, u64::MAX);
            let budget =
                SimBudget { instructions: arena.len() - warmup, warmup_instructions: warmup };
            PhaseSlice { arena, budget, weight: 1.0, representative: from as u64 }
        };
        let slices =
            [slice(0, 6_000, 1_000), slice(9_000, 16_000, 2_500), slice(20_000, 30_000, 0)];
        let budgets: Vec<SimBudget> = slices.iter().map(|s| s.budget).collect();
        let groups = l1_groups(&capture_space());
        for threads in [1, 2, 3, 8] {
            let open = |w: usize| slices[w].arena.replay();
            let got =
                try_capture_groups(&groups, open, &budgets, usize::MAX, threads).expect("capture");
            for (&((l1, line), _), segments) in groups.iter().zip(&got) {
                let want =
                    capture_miss_stream_segments(l1, line, &slices, usize::MAX).expect("unbounded");
                assert_eq!(segments.len(), slices.len());
                for (w, (g, want)) in segments.iter().zip(&want).enumerate() {
                    assert_same_stream(
                        g,
                        want,
                        &format!("{l1}B L1, window {w}, {threads} threads"),
                    );
                }
            }
        }
    }

    #[test]
    fn over_limit_group_inside_a_share_is_a_typed_error() {
        // Groups 64 KiB, 1 KiB, 128 KiB: at one thread the 1 KiB group sits
        // in the middle of the only share. Its stream is the largest, and
        // the limit admits the other two.
        let budget = SimBudget { instructions: 40_000, warmup_instructions: 2_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let bytes = |kb: u64| {
            capture_miss_stream(kb * 1024, 16, &arena, budget, usize::MAX)
                .expect("unbounded")
                .bytes()
        };
        let limit = bytes(64).max(bytes(128));
        assert!(bytes(1) > limit, "the 1 KiB stream must be the only one past the limit");
        assert!(capture_miss_stream(1024, 16, &arena, budget, limit).is_none());
        assert!(capture_miss_stream(64 * 1024, 16, &arena, budget, limit).is_some());
        let configs = [64, 1, 128].map(|kb| MachineConfig::single_level(kb, 50.0));
        let groups = l1_groups(&configs);
        let want = SweepError::MissStreamTooLarge {
            l1_size_bytes: 1024,
            line_bytes: 16,
            limit_bytes: limit,
        };
        for threads in [1, 2, 3] {
            let open = |_| arena.replay();
            let err = try_capture_groups(&groups, open, &[budget], limit, threads)
                .expect_err("over the limit");
            assert_eq!(err, want, "{threads} threads");
            assert!(err.to_string().contains("MISS_STREAM_BYTES_LIMIT"), "{err}");
        }
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
                |i| SweepUnit::FamilyChunk {
                    l1_size_bytes: 1024,
                    line_bytes: 16,
                    members: vec![i],
                },
            );
            let e = r.expect_err("a panicking worker must produce Err, not a panic");
            let SweepError::Worker { unit, payload } = e else { panic!("expected Worker: {e}") };
            assert!(payload.contains("injected failure"), "payload: {payload}");
            assert!(matches!(unit, SweepUnit::FamilyChunk { members, .. } if members[0] >= 2));
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
            |i| SweepUnit::L1Group { l1_size_bytes: 1024 << i, line_bytes: 16 },
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
        let r = try_sweep_threads(&configs, || SpecBenchmark::Li.workload(), budget, &tm, &am, 0);
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
}
