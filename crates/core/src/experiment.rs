//! Evaluating one machine configuration on one workload.
//!
//! [`evaluate`] runs the four-step recipe of §2: simulate the cache
//! hierarchy on the workload's reference stream, derive cycle times from
//! the timing model, price the configuration with the area model, and
//! combine everything into TPI — producing one [`DesignPoint`], the
//! (area, TPI) dot of the paper's figures.

use crate::machine::{L2Policy, L2Spec, MachineConfig, MachineTiming};
use crate::tpi;
use serde::{Deserialize, Serialize};
use tlc_area::AreaModel;
use tlc_cache::{HierarchyStats, L1FrontEnd, MemorySystem, MissStream, SystemKind};
use tlc_timing::TimingModel;
use tlc_trace::arena::{FLAG_NONE, FLAG_STORE};
use tlc_trace::columns::DEFAULT_CHUNK_LEN;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{Addr, ChunkView, InstructionSource, MemRef, TraceArena, Workload};

/// How long to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimBudget {
    /// Instructions measured (after warm-up).
    pub instructions: u64,
    /// Instructions run before statistics are reset. The paper's traces
    /// were long enough (30M–2.9B references) to amortise cold-start
    /// misses; our scaled-down runs discard the transient explicitly.
    pub warmup_instructions: u64,
}

impl SimBudget {
    /// The default budget used by the figure harness: 1.5M measured
    /// instructions after a 500K-instruction warm-up (enough to populate
    /// a 256KB L2 before measurement starts).
    pub fn standard() -> Self {
        SimBudget { instructions: 1_500_000, warmup_instructions: 500_000 }
    }

    /// A small budget for tests and quick exploration.
    pub fn quick() -> Self {
        SimBudget { instructions: 120_000, warmup_instructions: 30_000 }
    }

    /// A budget scaled by `factor` (≥ 1 recommended for final runs).
    pub fn scaled(self, factor: f64) -> Self {
        SimBudget {
            instructions: (self.instructions as f64 * factor) as u64,
            warmup_instructions: (self.warmup_instructions as f64 * factor) as u64,
        }
    }
}

/// One (configuration, workload) evaluation: the paper's figures plot
/// `area_rbe` on the x-axis and `tpi_ns` on the y-axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The evaluated configuration.
    pub machine: MachineConfig,
    /// The paper-style "x:y" label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Total on-chip cache area, rbe.
    pub area_rbe: f64,
    /// Processor cycle time, ns.
    pub l1_cycle_ns: f64,
    /// L2 cycle in processor cycles (0 for single-level).
    pub l2_cycles: u32,
    /// Average time per instruction, ns.
    pub tpi_ns: f64,
    /// Implied cycles per instruction.
    pub cpi: f64,
    /// Raw simulation counters.
    pub stats: HierarchyStats,
}

/// Validated L1 cache configuration of a machine (direct-mapped, the
/// paper's pseudo-random fill), as a typed error instead of a panic —
/// the audit's config sampler probes geometry edges (degenerate sizes,
/// lines larger than the cache) that enumeration never produces.
///
/// # Errors
///
/// Returns the [`ConfigError`](tlc_cache::ConfigError) describing the
/// invalid geometry.
pub fn l1_config(cfg: &MachineConfig) -> Result<tlc_cache::CacheConfig, tlc_cache::ConfigError> {
    use tlc_cache::{Associativity, CacheConfig, ReplacementKind};
    CacheConfig::new(
        cfg.l1_size_bytes,
        cfg.line_bytes,
        Associativity::Direct,
        ReplacementKind::PseudoRandom,
    )
}

/// Validated L2 cache configuration of a machine (`None` when
/// single-level), with the same typed-error contract as [`l1_config`].
///
/// # Errors
///
/// Returns the [`ConfigError`](tlc_cache::ConfigError) describing the
/// invalid geometry.
pub fn l2_config(
    cfg: &MachineConfig,
) -> Result<Option<tlc_cache::CacheConfig>, tlc_cache::ConfigError> {
    use tlc_cache::{Associativity, CacheConfig};
    match cfg.l2 {
        None => Ok(None),
        Some(spec) => {
            let assoc = if spec.ways == 1 {
                Associativity::Direct
            } else {
                Associativity::SetAssoc(spec.ways)
            };
            CacheConfig::new(spec.size_bytes, cfg.line_bytes, assoc, spec.repl).map(Some)
        }
    }
}

/// As [`build_system_kind`], returning the configuration error instead
/// of panicking — the entry point for callers that sample the config
/// space's edges (notably `tlc audit`).
///
/// # Errors
///
/// Returns the [`ConfigError`](tlc_cache::ConfigError) of the first
/// invalid level.
pub fn try_build_system_kind(cfg: &MachineConfig) -> Result<SystemKind, tlc_cache::ConfigError> {
    let l1 = l1_config(cfg)?;
    Ok(match l2_config(cfg)? {
        None => SystemKind::single(l1),
        Some(l2) => match cfg.l2.expect("l2_config returned Some").policy {
            L2Policy::Conventional => SystemKind::conventional(l1, l2),
            L2Policy::Exclusive => SystemKind::exclusive(l1, l2),
        },
    })
}

/// Builds the simulated memory system for a configuration as the
/// closed-set [`SystemKind`] enum (the sweep fast path: `match` dispatch
/// instead of a vtable in the per-instruction loop).
///
/// # Panics
///
/// Panics if the configuration's sizes are invalid (not powers of two,
/// etc.) — configuration enumeration only produces valid ones. Callers
/// that sample arbitrary geometries use [`try_build_system_kind`].
pub fn build_system_kind(cfg: &MachineConfig) -> SystemKind {
    try_build_system_kind(cfg).expect("valid L1/L2 configuration")
}

/// Drives up to `limit` instructions from `source` through `sys`,
/// returning how many were actually executed (less than `limit` only
/// when the source exhausted).
fn drive<S: InstructionSource + ?Sized, M: MemorySystem + ?Sized>(
    sys: &mut M,
    source: &mut S,
    limit: u64,
) -> u64 {
    for n in 0..limit {
        match source.next_instruction_opt() {
            Some(rec) => {
                sys.access_instruction(&rec);
            }
            None => return n,
        }
    }
    limit
}

/// Runs `workload` through the system for `budget`, returning measured
/// statistics (warm-up excluded).
pub fn simulate(cfg: &MachineConfig, workload: &mut Workload, budget: SimBudget) -> HierarchyStats {
    simulate_source(cfg, workload, budget)
}

/// As [`simulate`], for any [`InstructionSource`] — including recorded
/// traces ([`tlc_trace::ReplaySource`]).
///
/// # Early exhaustion
///
/// A finite source may end before the budget is spent. The contract:
/// warm-up consumes up to `budget.warmup_instructions`; statistics are
/// then reset and measurement covers whatever remains, up to
/// `budget.instructions`. A source that dies during warm-up therefore
/// yields all-zero statistics — callers distinguish a short measurement
/// from a full one by checking `stats.instructions` against the budget.
pub fn simulate_source<S: InstructionSource + ?Sized>(
    cfg: &MachineConfig,
    source: &mut S,
    budget: SimBudget,
) -> HierarchyStats {
    let mut sys = build_system_kind(cfg);
    simulate_source_on(&mut sys, source, budget)
}

/// The warm-up/measure protocol of [`simulate_source`] on an externally
/// built system: drive up to `budget.warmup_instructions`, reset
/// statistics, drive up to `budget.instructions`, return the measured
/// counters. This is how alternative [`MemorySystem`] implementations —
/// the audit's naive reference oracle in particular — are run under the
/// exact contract the engines share.
pub fn simulate_source_on<S: InstructionSource + ?Sized, M: MemorySystem + ?Sized>(
    sys: &mut M,
    source: &mut S,
    budget: SimBudget,
) -> HierarchyStats {
    drive(sys, source, budget.warmup_instructions);
    sys.reset_stats();
    drive(sys, source, budget.instructions);
    *sys.stats()
}

/// Replays one arena chunk's packed columns through the system. This is
/// the sweep's innermost loop: slice iteration, static dispatch (the
/// caller monomorphizes it per concrete system type), no RNG, no
/// allocation. Reference order matches
/// [`MemorySystem::access_instruction`] exactly (fetch, then data), so
/// statistics are bit-identical to the generic path.
#[inline]
fn replay_chunk<M: MemorySystem>(sys: &mut M, chunk: ChunkView<'_>, start: usize, end: usize) {
    let fetch = &chunk.primary[start..end];
    let data = &chunk.secondary[start..end];
    let flags = &chunk.flags[start..end];
    for i in 0..fetch.len() {
        sys.access(MemRef::fetch(Addr::new(fetch[i])));
        let flag = flags[i];
        if flag != FLAG_NONE {
            let addr = Addr::new(data[i]);
            sys.access(if flag == FLAG_STORE { MemRef::store(addr) } else { MemRef::load(addr) });
        }
    }
}

/// The warm-up/measure protocol over one *window* of a captured arena —
/// the chunk walk behind [`simulate_arena`] and every miss-stream
/// capture: the one window walk ([`tlc_trace::columns::walk_window`])
/// with `budget`'s split, resetting the system's statistics at the
/// warm-up boundary. A window that ends inside warm-up measures nothing.
/// `fits` is asked once before each chunk is replayed; the walk stops
/// and returns `false` on the first `false`. Monomorphized per concrete
/// system type, so every `access` in the replay loop is a direct,
/// inlinable call.
fn walk_window<M: MemorySystem>(
    sys: &mut M,
    arena: &TraceArena,
    budget: SimBudget,
    fits: impl Fn(&M) -> bool,
) -> bool {
    tlc_trace::columns::walk_window(
        arena.chunks(),
        budget.warmup_instructions,
        budget.instructions,
        sys,
        fits,
        replay_chunk,
        M::reset_stats,
    )
}

/// As [`simulate_source`], replaying a captured [`TraceArena`] through
/// the devirtualized fast path: the system kind is matched **once** and
/// the whole replay runs on the concrete hierarchy type.
///
/// The same early-exhaustion contract applies when the arena holds fewer
/// than `budget.warmup_instructions + budget.instructions` records.
pub fn simulate_arena(
    cfg: &MachineConfig,
    arena: &TraceArena,
    budget: SimBudget,
) -> HierarchyStats {
    let mut sys = build_system_kind(cfg);
    match &mut sys {
        SystemKind::Single(s) => walk_window(s, arena, budget, |_| true),
        SystemKind::Conventional(s) => walk_window(s, arena, budget, |_| true),
        SystemKind::Exclusive(s) => walk_window(s, arena, budget, |_| true),
    };
    *sys.stats()
}

/// A split direct-mapped L1 front-end for one L1 group.
///
/// # Panics
///
/// Panics on an invalid L1 geometry.
fn front_end(l1_size_bytes: u64, line_bytes: u64) -> L1FrontEnd {
    use tlc_cache::{Associativity, CacheConfig, ReplacementKind};
    L1FrontEnd::new(
        CacheConfig::new(
            l1_size_bytes,
            line_bytes,
            Associativity::Direct,
            ReplacementKind::PseudoRandom,
        )
        .expect("valid L1 configuration"),
    )
}

/// The one L1 capture: a single direct-mapped front-end walks every
/// window in order and keeps only the events the L2 would observe.
/// [`L1FrontEnd::take_stream`] cuts one segment per window while the L1
/// contents carry over, so window `k` starts from the state window
/// `k-1` left behind. Returns `None` once the packed segments together
/// outgrow `byte_limit` (checked between chunks and at each window's
/// end, before its segment is cut).
///
/// # Panics
///
/// Panics on an invalid L1 geometry.
pub(crate) fn capture_windows(
    l1_size_bytes: u64,
    line_bytes: u64,
    windows: &[(&TraceArena, SimBudget)],
    byte_limit: usize,
) -> Option<Vec<MissStream>> {
    let mut fe = front_end(l1_size_bytes, line_bytes);
    let mut segments = Vec::with_capacity(windows.len());
    let mut banked = 0usize;
    for &(arena, budget) in windows {
        let fits = |fe: &L1FrontEnd| banked + fe.event_bytes() <= byte_limit;
        if !(walk_window(&mut fe, arena, budget, fits) && fits(&fe)) {
            return None;
        }
        let seg = fe.take_stream(arena.name());
        banked += seg.bytes();
        segments.push(seg);
    }
    Some(segments)
}

/// As [`capture_miss_stream`] over `benchmark`'s seeded generator
/// instead of a captured arena: the front-end walks a fresh
/// [`SpecBenchmark::workload`] for `budget`, so the stream is the one an
/// arena of that budget would have yielded, and no arena is ever held.
/// Returns `None` once the packed stream outgrows `byte_limit` (checked
/// every arena-chunk's worth of instructions).
///
/// # Panics
///
/// Panics on an invalid L1 geometry.
pub(crate) fn capture_regenerated(
    l1_size_bytes: u64,
    line_bytes: u64,
    benchmark: SpecBenchmark,
    budget: SimBudget,
    byte_limit: usize,
) -> Option<MissStream> {
    let mut fe = front_end(l1_size_bytes, line_bytes);
    let mut source = benchmark.workload();
    for (measure, mut left) in [(false, budget.warmup_instructions), (true, budget.instructions)] {
        if measure {
            fe.reset_stats();
        }
        // One arena chunk's worth per limit check; the generator never
        // runs dry.
        while left > 0 && fe.event_bytes() <= byte_limit {
            let block = left.min(DEFAULT_CHUNK_LEN as u64);
            drive(&mut fe, &mut source, block);
            left -= block;
        }
    }
    (fe.event_bytes() <= byte_limit).then(|| fe.finish(source.name()))
}

/// Captures the miss/victim event stream of one L1 front-end (shared by
/// every configuration with this `l1_size_bytes`/`line_bytes`) from a
/// trace arena: the arena is replayed through split direct-mapped L1
/// caches **once**, and only the events the L2 would observe are kept.
///
/// Follows [`simulate_arena`]'s warm-up split and early-exhaustion
/// contract, so [`simulate_family`] on the result is bit-identical to
/// [`simulate_arena`] on the full arena. Returns `None` when the packed
/// event stream outgrows `byte_limit` (checked between chunks; an L1 so
/// small that most references miss could otherwise approach the arena's
/// own footprint); the sweep runner reports that as
/// [`SweepError::MissStreamTooLarge`](crate::runner::SweepError::MissStreamTooLarge).
///
/// # Panics
///
/// Panics on an invalid L1 geometry.
pub fn capture_miss_stream(
    l1_size_bytes: u64,
    line_bytes: u64,
    arena: &TraceArena,
    budget: SimBudget,
    byte_limit: usize,
) -> Option<MissStream> {
    capture_windows(l1_size_bytes, line_bytes, &[(arena, budget)], byte_limit)
        .map(|mut segments| segments.pop().expect("one window"))
}

/// Stitched-warming capture for a sampled sweep: **one** L1 front-end
/// replays every representative [`PhaseSlice`](crate::sampling::PhaseSlice)
/// in trace order and cuts a [`MissStream`] segment per slice — so slice
/// `k` starts from the (stale) L1 contents slice `k-1` left behind, and
/// each slice's warm-up prefix refreshes that state before its counters
/// reset at the slice's own warm-up boundary. Feeding the segments to
/// [`simulate_family_segments`] extends the stitching to the L2 side. A
/// single slice yields exactly [`capture_miss_stream`]'s stream.
///
/// Returns `None` when the packed segments collectively outgrow
/// `byte_limit` (checked between chunks).
///
/// # Panics
///
/// Panics on an invalid L1 geometry.
pub fn capture_miss_stream_segments(
    l1_size_bytes: u64,
    line_bytes: u64,
    slices: &[crate::sampling::PhaseSlice],
    byte_limit: usize,
) -> Option<Vec<MissStream>> {
    let windows: Vec<(&TraceArena, SimBudget)> =
        slices.iter().map(|s| (&s.arena, s.budget)).collect();
    capture_windows(l1_size_bytes, line_bytes, &windows, byte_limit)
}

/// Replays a captured [`MissStream`] through a whole *family* of
/// configurations in one pass — the miss-stream filtering engine. Every
/// member must share the stream's L1 and line size plus one L2 policy
/// and associativity (or all be single-level), and the event stream is
/// decoded exactly once for all of them
/// ([`tlc_cache::filter_family`]). Returns one statistics record per
/// member of `cfgs`, in input order, each bit-identical to
/// [`simulate_arena`] on that member when `stream` was captured with the
/// same budget from the same arena. A single configuration is a family
/// of one (`std::slice::from_ref(cfg)`).
///
/// Members that differ only in off-chip latency or L1 cell kind — or
/// that repeat an L2 size outright — share one simulated L2 internally:
/// the family is deduplicated by L2 capacity and the statistics fanned
/// back out.
///
/// # Panics
///
/// Panics if `cfgs` mix L2 policies, associativities, L1 sizes, or line
/// sizes, if any member's L1 geometry differs from the stream's, or if
/// an L2 geometry is invalid.
pub fn simulate_family(cfgs: &[MachineConfig], stream: &MissStream) -> Vec<HierarchyStats> {
    simulate_family_segments(cfgs, std::slice::from_ref(stream)).pop().expect("one segment")
}

/// As [`simulate_family`], adding each member's timing/area derivation:
/// one event decode serves every member. Returns one [`DesignPoint`] per
/// member of `cfgs`, in input order; bit-identical to [`evaluate`] when
/// `stream` came from [`capture_miss_stream`] over that benchmark's
/// arena at the same budget.
pub fn evaluate_family(
    cfgs: &[MachineConfig],
    stream: &MissStream,
    timing: &TimingModel,
    area: &AreaModel,
) -> Vec<DesignPoint> {
    let stats = simulate_family(cfgs, stream);
    cfgs.iter()
        .zip(stats)
        .map(|(cfg, s)| design_point(cfg, stream.name().to_string(), s, timing, area))
        .collect()
}

/// As [`simulate_family`] over a *stitched* sequence of segments (one
/// per representative phase slice, from
/// [`capture_miss_stream_segments`]): the family's L2 state — member
/// caches with their LFSRs, exclusive fill-dirty mirrors — is built
/// once and persists across segments, so each segment's warm-up prefix
/// refreshes stale state instead of filling a cold cache. Returns
/// per-segment, per-member statistics (`out[segment][member]`, members
/// in `cfgs` input order); a lone segment is exactly [`simulate_family`].
///
/// This is the one replay core of both: it validates the family,
/// deduplicates the members by L2 capacity, replays the segments once
/// through the [`filter_family`](tlc_cache::filter_family) back-end,
/// and fans the per-size statistics back out.
///
/// # Panics
///
/// As [`simulate_family`], plus with the typed
/// [`FamilyError`](tlc_cache::filter_family::FamilyError)'s message if
/// `segments` is empty or segments disagree on L1 geometry.
pub fn simulate_family_segments(
    cfgs: &[MachineConfig],
    segments: &[MissStream],
) -> Vec<Vec<HierarchyStats>> {
    use tlc_cache::filter_family::{
        try_replay_conventional_family_segments, try_replay_exclusive_family_segments,
        try_replay_single_family_segments,
    };
    let or_panic =
        |r: Result<_, tlc_cache::filter_family::FamilyError>| r.unwrap_or_else(|e| panic!("{e}"));
    let Some(first) = cfgs.first() else {
        // Nothing to replay: an empty family only validates the segments.
        return or_panic(try_replay_conventional_family_segments(&[], segments));
    };
    if let Some(seg) = segments.first() {
        for cfg in cfgs {
            assert_eq!(
                cfg.l1_size_bytes,
                seg.l1_size_bytes(),
                "stream captured for a different L1"
            );
            assert_eq!(
                cfg.line_bytes,
                seg.line_bytes(),
                "stream captured for a different line size"
            );
        }
    }
    let key = |c: &MachineConfig| c.l2.map(|s| (s.policy, s.ways, s.repl));
    assert!(
        cfgs.iter().all(|c| key(c) == key(first)),
        "a family shares one L2 policy, associativity, and replacement"
    );
    let Some(spec) = first.l2 else {
        return or_panic(try_replay_single_family_segments(segments, cfgs.len()));
    };
    // Deduplicate by L2 capacity; duplicate sizes share one simulation.
    let mut sizes: Vec<u64> = Vec::new();
    let mut size_of: Vec<usize> = Vec::with_capacity(cfgs.len());
    for cfg in cfgs {
        let sz = cfg.l2.expect("two-level family").size_bytes;
        let k = sizes.iter().position(|&s| s == sz).unwrap_or_else(|| {
            sizes.push(sz);
            sizes.len() - 1
        });
        size_of.push(k);
    }
    let l2_cfgs: Vec<tlc_cache::CacheConfig> = sizes
        .iter()
        .map(|&size_bytes| {
            let member = MachineConfig { l2: Some(L2Spec { size_bytes, ..spec }), ..*first };
            l2_config(&member).expect("valid L2 configuration").expect("two-level family")
        })
        .collect();
    let per_size = or_panic(match spec.policy {
        L2Policy::Conventional => try_replay_conventional_family_segments(&l2_cfgs, segments),
        L2Policy::Exclusive => try_replay_exclusive_family_segments(&l2_cfgs, segments),
    });
    per_size.into_iter().map(|row| size_of.iter().map(|&k| row[k]).collect()).collect()
}

/// Whether the analytical predictor's ε contract covers `cfg`:
/// single-level and direct-mapped members are always in (their counts
/// are exact), and set-associative conventional L2s are in only under
/// LRU or pseudo-random replacement — the reuse-distance model has no
/// closed form for FIFO, tree-PLRU, or SRRIP, and exclusive hierarchies
/// are outside it entirely. The sweep runner routes uncovered
/// configurations to the bit-exact family engine instead.
pub fn config_is_predictable(cfg: &MachineConfig) -> bool {
    use tlc_cache::ReplacementKind;
    match cfg.l2 {
        None => true,
        Some(s) => {
            s.policy == L2Policy::Conventional
                && (s.ways == 1
                    || matches!(s.repl, ReplacementKind::Lru | ReplacementKind::PseudoRandom))
        }
    }
}

/// As [`simulate_family`] with the replay removed: one reuse-distance
/// profiling pass over the stream ([`tlc_cache::ReuseProfile`]) answers
/// every member analytically, in time independent of the event count.
/// Unlike a family, members may mix associativities, sizes, and
/// single-level points freely — the only constraint is that every
/// two-level member uses the conventional policy (exclusive hierarchies
/// are outside the model; see [`tlc_cache::predict`]).
///
/// Results are approximate, not bit-identical: single-level members are
/// exact, direct-mapped members have exact hit/miss counts, and
/// set-associative members carry the documented ε contract
/// ([`tlc_cache::MISS_RATIO_EPSILON`]) against [`simulate_family`]
/// ground truth.
///
/// The ε contract covers LRU and pseudo-random set-associative members
/// only (see [`config_is_predictable`]); FIFO, tree-PLRU, and SRRIP
/// points are outside the reuse-distance model and must be replayed
/// exactly (the sweep runner routes them to the family engine).
///
/// # Panics
///
/// Panics if any member's L1 geometry differs from the stream's, uses
/// the exclusive L2 policy, or uses a set-associative replacement policy
/// outside the model.
pub fn simulate_predicted(cfgs: &[MachineConfig], stream: &MissStream) -> Vec<HierarchyStats> {
    use tlc_cache::ReuseProfile;
    if cfgs.is_empty() {
        return Vec::new();
    }
    for cfg in cfgs {
        assert_eq!(cfg.l1_size_bytes, stream.l1_size_bytes(), "stream captured for a different L1");
        assert_eq!(
            cfg.line_bytes,
            stream.line_bytes(),
            "stream captured for a different line size"
        );
        assert!(
            config_is_predictable(cfg),
            "{} hierarchies are outside the prediction model",
            cfg.l2.map_or_else(
                || "these".to_string(),
                |s| {
                    if s.policy == L2Policy::Exclusive {
                        "exclusive".to_string()
                    } else {
                        format!("{} set-associative", s.repl)
                    }
                }
            )
        );
    }
    // Direct-mapped members get exact nested tag-array counts: name
    // every 1-way set count at capture (deduplicated, ascending).
    let mut dm_sets: Vec<u64> = cfgs
        .iter()
        .filter_map(|c| c.l2.filter(|s| s.ways == 1).map(|s| s.size_bytes / c.line_bytes))
        .collect();
    dm_sets.sort_unstable();
    dm_sets.dedup();
    let profile = ReuseProfile::capture(stream, &dm_sets);
    cfgs.iter()
        .map(|cfg| {
            tlc_obs::obs_count!(tlc_obs::Counter::PredictConfigsPredicted, 1);
            let _t = tlc_obs::HistTimer::start(tlc_obs::Hist::PredictSolveNs);
            match l2_config(cfg).expect("valid L2 configuration") {
                None => profile.predict_single(stream),
                Some(l2) => profile.predict_conventional(stream, &l2),
            }
        })
        .collect()
}

/// As [`evaluate_family`] through the analytical predictor
/// ([`simulate_predicted`]): one profiling pass serves every member, and
/// each member still gets its own timing/area derivation. Returns one
/// [`DesignPoint`] per member of `cfgs`, in input order, under the
/// predictor's ε contract rather than bit-identity.
pub fn evaluate_predicted(
    cfgs: &[MachineConfig],
    stream: &MissStream,
    timing: &TimingModel,
    area: &AreaModel,
) -> Vec<DesignPoint> {
    let stats = simulate_predicted(cfgs, stream);
    cfgs.iter()
        .zip(stats)
        .map(|(cfg, s)| design_point(cfg, stream.name().to_string(), s, timing, area))
        .collect()
}

fn design_point(
    cfg: &MachineConfig,
    workload: String,
    stats: HierarchyStats,
    timing: &TimingModel,
    area: &AreaModel,
) -> DesignPoint {
    // The completion tick the progress ticker and the manifest's
    // `runner.configs_completed` invariant rely on. (The runner's window
    // evaluator ticks once per member × window itself and builds its
    // recombined points via `design_point_untracked` — for a sampled
    // sweep the manifest invariant is configs × phases.)
    tlc_obs::obs_count!(tlc_obs::Counter::RunnerConfigsCompleted, 1);
    design_point_untracked(cfg, workload, stats, timing, area)
}

/// Derives a [`DesignPoint`] from already-aggregated statistics without
/// registering a completion tick — the recombination step of the
/// runner's window evaluator, which ticks per member × window itself.
pub(crate) fn design_point_untracked(
    cfg: &MachineConfig,
    workload: String,
    stats: HierarchyStats,
    timing: &TimingModel,
    area: &AreaModel,
) -> DesignPoint {
    let t = MachineTiming::derive(cfg, timing, area);
    let tpi = tpi::tpi_ns(&stats, &t);
    DesignPoint {
        machine: *cfg,
        label: cfg.label(),
        workload,
        area_rbe: t.area_rbe,
        l1_cycle_ns: t.l1_cycle_ns,
        l2_cycles: t.l2_cycles,
        tpi_ns: tpi,
        cpi: tpi::cpi(tpi, &t),
        stats,
    }
}

/// Full §2 pipeline for one configuration on `source`'s stream (a
/// preset's `benchmark.workload()`, a trace, or a cached replay), driven
/// through the per-access hierarchy under [`simulate_source`]'s
/// warm-up/measure contract. The point is named after the source.
/// Sweeps over many configurations go through the
/// [`runner`](crate::runner), which captures each L1 front-end's miss
/// stream once and replays it per L2 family.
pub fn evaluate<S: InstructionSource + ?Sized>(
    cfg: &MachineConfig,
    source: &mut S,
    budget: SimBudget,
    timing: &TimingModel,
    area: &AreaModel,
) -> DesignPoint {
    let stats = simulate_source(cfg, source, budget);
    design_point(cfg, source.source_name().to_string(), stats, timing, area)
}

/// Captures exactly one `budget`'s worth (warm-up + measured) of
/// `benchmark`'s stream into a shareable [`TraceArena`].
pub fn capture_benchmark(benchmark: SpecBenchmark, budget: SimBudget) -> TraceArena {
    let len = budget.warmup_instructions.saturating_add(budget.instructions);
    TraceArena::capture(&mut benchmark.workload(), len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_area::CellKind;

    fn models() -> (TimingModel, AreaModel) {
        (TimingModel::paper(), AreaModel::new())
    }

    #[test]
    fn evaluate_produces_consistent_point() {
        let (tm, am) = models();
        let cfg = MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0);
        let p =
            evaluate(&cfg, &mut SpecBenchmark::Espresso.workload(), SimBudget::quick(), &tm, &am);
        assert_eq!(p.label, "4:32");
        assert_eq!(p.workload, "espresso");
        assert_eq!(p.stats.instructions, SimBudget::quick().instructions);
        assert!(p.tpi_ns >= p.l1_cycle_ns, "TPI can never beat one cycle per instruction");
        assert!(p.cpi >= 1.0);
        assert!(p.area_rbe > 0.0);
    }

    #[test]
    fn bigger_l2_absorbs_more_misses() {
        let (tm, am) = models();
        let small = evaluate(
            &MachineConfig::two_level(1, 8, 4, L2Policy::Conventional, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            SimBudget::quick(),
            &tm,
            &am,
        );
        let large = evaluate(
            &MachineConfig::two_level(1, 128, 4, L2Policy::Conventional, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            SimBudget::quick(),
            &tm,
            &am,
        );
        assert!(
            large.stats.global_miss_rate() < small.stats.global_miss_rate(),
            "128KB L2 should stop more off-chip traffic than 8KB"
        );
    }

    #[test]
    fn exclusive_beats_conventional_at_tight_capacity() {
        // With L2 only 2× the total L1 capacity the conventional hierarchy
        // is mostly duplicate content; exclusive should go off-chip less.
        let (tm, am) = models();
        let conv = evaluate(
            &MachineConfig::two_level(4, 16, 1, L2Policy::Conventional, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            SimBudget::quick(),
            &tm,
            &am,
        );
        let excl = evaluate(
            &MachineConfig::two_level(4, 16, 1, L2Policy::Exclusive, 50.0),
            &mut SpecBenchmark::Gcc1.workload(),
            SimBudget::quick(),
            &tm,
            &am,
        );
        assert!(
            excl.stats.l2_misses < conv.stats.l2_misses,
            "exclusive {} vs conventional {} off-chip misses",
            excl.stats.l2_misses,
            conv.stats.l2_misses
        );
        assert!(excl.tpi_ns < conv.tpi_ns);
    }

    #[test]
    fn dual_ported_halves_base_tpi_on_low_miss_workload() {
        let (tm, am) = models();
        let base = MachineConfig::single_level(32, 50.0);
        let dual = base.with_l1_cell(CellKind::DualPorted);
        let pb =
            evaluate(&base, &mut SpecBenchmark::Espresso.workload(), SimBudget::quick(), &tm, &am);
        let pd =
            evaluate(&dual, &mut SpecBenchmark::Espresso.workload(), SimBudget::quick(), &tm, &am);
        // espresso has a tiny miss rate at 32KB, so doubling the issue
        // rate should cut TPI nearly in half (modulo slower dual cycle).
        assert!(pd.tpi_ns < pb.tpi_ns * 0.75, "dual {} vs base {}", pd.tpi_ns, pb.tpi_ns);
        let ratio = pd.area_rbe / pb.area_rbe;
        assert!((1.8..=2.3).contains(&ratio), "area ratio {ratio}");
    }

    #[test]
    fn deterministic_across_calls() {
        let (tm, am) = models();
        let cfg = MachineConfig::two_level(2, 16, 4, L2Policy::Exclusive, 50.0);
        let a = evaluate(&cfg, &mut SpecBenchmark::Li.workload(), SimBudget::quick(), &tm, &am);
        let b = evaluate(&cfg, &mut SpecBenchmark::Li.workload(), SimBudget::quick(), &tm, &am);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.tpi_ns, b.tpi_ns);
    }

    #[test]
    fn budget_scaling() {
        let b = SimBudget::standard().scaled(0.5);
        assert_eq!(b.instructions, 750_000);
        assert_eq!(b.warmup_instructions, 250_000);
    }

    #[test]
    fn arena_evaluation_is_bit_identical_to_generator_evaluation() {
        let (tm, am) = models();
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Espresso, budget);
        for cfg in [
            MachineConfig::single_level(8, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0),
        ] {
            let generated =
                evaluate(&cfg, &mut SpecBenchmark::Espresso.workload(), budget, &tm, &am);
            let replayed = simulate_arena(&cfg, &arena, budget);
            assert_eq!(generated.stats, replayed, "{}", cfg.label());
            let mut workload = SpecBenchmark::Espresso.workload();
            let legacy = simulate_source_on(&mut build_system_kind(&cfg), &mut workload, budget);
            assert_eq!(legacy, replayed, "legacy engine diverged for {}", cfg.label());
        }
    }

    /// One configuration through the replay back-end: a family of one.
    fn family_of_one(
        cfg: &MachineConfig,
        stream: &MissStream,
        tm: &TimingModel,
        am: &AreaModel,
    ) -> DesignPoint {
        evaluate_family(std::slice::from_ref(cfg), stream, tm, am).remove(0)
    }

    #[test]
    fn family_of_one_evaluation_is_bit_identical_to_generator_evaluation() {
        let (tm, am) = models();
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let stream = capture_miss_stream(4 * 1024, 16, &arena, budget, usize::MAX)
            .expect("unbounded capture succeeds");
        assert!(!stream.is_empty(), "gcc1 misses in a 4KB L1");
        let total = budget.warmup_instructions + budget.instructions;
        assert!(stream.len() < total / 2, "events must be a small fraction of the references");
        for cfg in [
            MachineConfig::single_level(4, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Exclusive, 50.0),
            MachineConfig::two_level(4, 8, 1, L2Policy::Exclusive, 200.0),
        ] {
            let generated = evaluate(&cfg, &mut SpecBenchmark::Gcc1.workload(), budget, &tm, &am);
            let via_stream = family_of_one(&cfg, &stream, &tm, &am);
            assert_eq!(generated, via_stream, "{}", cfg.label());
        }
    }

    #[test]
    fn family_evaluation_matches_families_of_one() {
        let (tm, am) = models();
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let stream = capture_miss_stream(4 * 1024, 16, &arena, budget, usize::MAX).unwrap();
        for policy in [L2Policy::Conventional, L2Policy::Exclusive] {
            for ways in [1, 4] {
                // Duplicate sizes and mixed off-chip latencies exercise
                // the in-family deduplication.
                let cfgs: Vec<MachineConfig> = [(8, 50.0), (32, 50.0), (8, 200.0), (64, 50.0)]
                    .map(|(l2_kb, ns)| MachineConfig::two_level(4, l2_kb, ways, policy, ns))
                    .to_vec();
                let family = evaluate_family(&cfgs, &stream, &tm, &am);
                for (cfg, got) in cfgs.iter().zip(&family) {
                    let want = family_of_one(cfg, &stream, &tm, &am);
                    assert_eq!(*got, want, "{policy:?} ways={ways} {}", cfg.label());
                }
            }
        }
        // A single-level family shares the L1-only statistics.
        let singles = [MachineConfig::single_level(4, 50.0), MachineConfig::single_level(4, 200.0)];
        let family = evaluate_family(&singles, &stream, &tm, &am);
        for (cfg, got) in singles.iter().zip(&family) {
            assert_eq!(*got, family_of_one(cfg, &stream, &tm, &am), "{}", cfg.label());
        }
    }

    #[test]
    fn predicted_evaluation_matches_replay_within_epsilon() {
        use tlc_cache::{miss_ratio_error, MISS_RATIO_EPSILON};
        let (tm, am) = models();
        let budget = SimBudget { instructions: 20_000, warmup_instructions: 5_000 };
        let arena = capture_benchmark(SpecBenchmark::Gcc1, budget);
        let stream = capture_miss_stream(4 * 1024, 16, &arena, budget, usize::MAX).unwrap();
        // One heterogeneous batch: single-level, direct-mapped, and
        // mixed set-associative members — no family constraint.
        let cfgs = vec![
            MachineConfig::single_level(4, 50.0),
            MachineConfig::two_level(4, 32, 1, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 8, 1, L2Policy::Conventional, 200.0),
            MachineConfig::two_level(4, 64, 2, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
        ];
        let predicted = evaluate_predicted(&cfgs, &stream, &tm, &am);
        assert_eq!(predicted.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(&predicted) {
            let truth = family_of_one(cfg, &stream, &tm, &am);
            assert_eq!(got.label, truth.label);
            assert_eq!(got.workload, truth.workload);
            assert_eq!(got.area_rbe, truth.area_rbe);
            match cfg.l2 {
                None => assert_eq!(got.stats, truth.stats, "single-level must be exact"),
                Some(spec) if spec.ways == 1 => assert_eq!(
                    (got.stats.l2_hits, got.stats.l2_misses),
                    (truth.stats.l2_hits, truth.stats.l2_misses),
                    "direct-mapped hit/miss counts must be exact for {}",
                    cfg.label()
                ),
                Some(_) => {
                    let err = miss_ratio_error(&got.stats, &truth.stats);
                    assert!(
                        err <= MISS_RATIO_EPSILON,
                        "{}: miss-ratio error {err:.4} > ε",
                        cfg.label()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the prediction model")]
    fn predicted_rejects_exclusive() {
        let budget = SimBudget { instructions: 2_000, warmup_instructions: 500 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let stream = capture_miss_stream(1024, 16, &arena, budget, usize::MAX).unwrap();
        let cfgs = [MachineConfig::two_level(1, 8, 4, L2Policy::Exclusive, 50.0)];
        let _ = simulate_predicted(&cfgs, &stream);
    }

    #[test]
    #[should_panic(expected = "one L2 policy")]
    fn family_rejects_mixed_policies() {
        let budget = SimBudget { instructions: 2_000, warmup_instructions: 500 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let stream = capture_miss_stream(1024, 16, &arena, budget, usize::MAX).unwrap();
        let cfgs = [
            MachineConfig::two_level(1, 8, 4, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(1, 8, 4, L2Policy::Exclusive, 50.0),
        ];
        let _ = simulate_family(&cfgs, &stream);
    }

    #[test]
    #[should_panic(expected = "different L1")]
    fn family_rejects_mismatched_l1() {
        let budget = SimBudget { instructions: 2_000, warmup_instructions: 500 };
        let arena = capture_benchmark(SpecBenchmark::Li, budget);
        let stream = capture_miss_stream(1024, 16, &arena, budget, usize::MAX).unwrap();
        let cfg = MachineConfig::single_level(8, 50.0);
        let _ = simulate_family(&[cfg], &stream);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn family_segments_reject_an_empty_segment_list() {
        let cfg = MachineConfig::two_level(1, 8, 4, L2Policy::Conventional, 50.0);
        let _ = simulate_family_segments(&[cfg], &[]);
    }

    #[test]
    fn arena_warmup_split_is_chunking_invariant() {
        use tlc_trace::TraceArena;
        // Chunk sizes chosen so the warm-up boundary lands mid-chunk,
        // exactly on a chunk edge, and inside the first chunk.
        let budget = SimBudget { instructions: 7_000, warmup_instructions: 3_000 };
        let cfg = MachineConfig::two_level(2, 16, 4, L2Policy::Exclusive, 50.0);
        let reference = {
            let mut w = SpecBenchmark::Li.workload();
            simulate_source(&cfg, &mut w, budget)
        };
        for chunk_len in [64usize, 1000, 3000, 10_000, 16_384] {
            let arena =
                TraceArena::capture_chunked(&mut SpecBenchmark::Li.workload(), 10_000, chunk_len);
            let stats = simulate_arena(&cfg, &arena, budget);
            assert_eq!(stats, reference, "chunk_len {chunk_len}");
        }
    }

    /// The early-exhaustion contract of [`simulate_source`] /
    /// [`simulate_arena`]: a short source measures what remains after
    /// warm-up; a source that dies during warm-up measures nothing.
    #[test]
    fn early_exhaustion_contract() {
        use tlc_trace::{ReplaySource, TraceArena};
        let cfg = MachineConfig::two_level(1, 8, 4, L2Policy::Conventional, 50.0);
        let budget = SimBudget { instructions: 5_000, warmup_instructions: 1_000 };
        let records = SpecBenchmark::Gcc1.workload().take_instructions(3_000);

        // 3000 records against a 1000+5000 budget: 2000 measured.
        let mut short = ReplaySource::new("short", records.clone());
        let stats = simulate_source(&cfg, &mut short, budget);
        assert_eq!(stats.instructions, 2_000);
        let arena = TraceArena::capture_chunked(
            &mut ReplaySource::new("short", records.clone()),
            u64::MAX,
            700,
        );
        assert_eq!(simulate_arena(&cfg, &arena, budget), stats);

        // 500 records exhaust inside the 1000-instruction warm-up:
        // nothing measured, all-zero statistics.
        let mut tiny = ReplaySource::new("tiny", records[..500].to_vec());
        let stats = simulate_source(&cfg, &mut tiny, budget);
        assert_eq!(stats, HierarchyStats::default());
        let arena =
            TraceArena::capture(&mut ReplaySource::new("tiny", records[..500].to_vec()), u64::MAX);
        assert_eq!(simulate_arena(&cfg, &arena, budget), HierarchyStats::default());
    }
}
