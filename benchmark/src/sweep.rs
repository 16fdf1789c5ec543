//! The `tlc sweep --trace` path, whole and broken into layers.
//!
//! [`run_once`] is the job a user runs: decode each trace into an arena,
//! sweep it with one runner call, and draw the envelopes. [`run_traced`]
//! computes the same points through the public layer calls the runner is
//! made of, one span per call; its points must equal [`run_once`]'s
//! (bit-identical for the family engine, equal for predict).

use crate::inputs::{self, Decoded, TraceInput};
use crate::ledger::Ledger;
use tlc_area::AreaModel;
use tlc_cache::{HierarchyStats, MissStream, ReplacementKind};
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::envelope::{best_envelope, EnvelopePoint};
use tlc_core::experiment::{
    capture_miss_stream, config_is_predictable, simulate_arena, simulate_family,
    simulate_predicted, DesignPoint, SimBudget,
};
use tlc_core::runner::{
    l1_groups, try_sweep_family_arena_threads, try_sweep_predict_arena_threads, ARENA_BYTES_LIMIT,
    ARENA_BYTES_PER_RECORD, MISS_STREAM_BYTES_LIMIT,
};
use tlc_core::{tpi, L2Policy, MachineConfig, MachineTiming};
use tlc_timing::TimingModel;
use tlc_trace::TraceArena;

/// Which runner entry point sweeps the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `try_sweep_family_arena_threads`: exact, family-batched replay.
    Family,
    /// `try_sweep_predict_arena_threads`: one reuse-distance pass per L1
    /// group, within `MISS_RATIO_EPSILON` of replay.
    Predict,
}

/// One sweep job: the traces, the design space, and how to sweep it.
#[derive(Debug)]
pub struct Job {
    /// Seeded input traces.
    pub inputs: Vec<TraceInput>,
    /// Design points swept over every trace.
    pub space: Vec<MachineConfig>,
    /// Runner entry point.
    pub engine: Engine,
    /// Warm-up prefix of each trace, in instructions.
    pub warmup: u64,
    /// Worker threads of the runner.
    pub threads: usize,
}

/// One trace's swept points and its envelope per L2 policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// Points in `Job::space` order.
    pub points: Vec<DesignPoint>,
    /// Best-TPI envelopes; indices refer to `points`.
    pub envelopes: Vec<Vec<EnvelopePoint>>,
}

/// Per trace, the result or why the sweep failed.
pub type Results = Vec<Result<TraceResult, String>>;

/// The paper's design space under both L2 policies (90 points): 45
/// conventional (4-way pseudo-random L2s) and 45 exclusive.
pub fn paper_space() -> Vec<MachineConfig> {
    let mut v = full_space(&SpaceOptions::baseline());
    v.extend(full_space(&SpaceOptions {
        l2_policy: L2Policy::Exclusive,
        ..SpaceOptions::baseline()
    }));
    v
}

/// The 450-point conventional grid of `tlc-bench`'s predict scaling
/// study: L1s of 1, 2 and 4 KB, L2s from 256 B to 64 MB, 1 to 256 ways
/// where the geometry admits them — many L2 points on few L1 groups.
pub fn predict_grid() -> Vec<MachineConfig> {
    let mut v = Vec::with_capacity(450);
    for l1_kb in [1u64, 2, 4] {
        for i in 0..19u32 {
            let l2_bytes = 256u64 << i;
            for ways in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
                if u64::from(ways) <= l2_bytes / 16 && v.len() < 450 {
                    let mut c =
                        MachineConfig::two_level(l1_kb, 1, ways, L2Policy::Conventional, 50.0);
                    c.l2.as_mut().expect("two-level").size_bytes = l2_bytes;
                    v.push(c);
                }
            }
        }
    }
    assert_eq!(v.len(), 450, "the predict grid holds exactly 450 points");
    v
}

/// Arena cap of a whole-trace capture, as `tlc sweep --trace` sets it.
const ARENA_CAP: u64 = (ARENA_BYTES_LIMIT / ARENA_BYTES_PER_RECORD) as u64;

/// The budget a sweep of `arena` runs under: the whole trace, its first
/// `warmup` instructions discarded.
pub fn budget(arena: &TraceArena, warmup: u64) -> SimBudget {
    SimBudget { instructions: arena.len().saturating_sub(warmup), warmup_instructions: warmup }
}

/// The best-TPI envelope of each L2 policy present, over that policy's
/// points plus the single-level ones.
pub fn envelopes(points: &[DesignPoint]) -> Vec<Vec<EnvelopePoint>> {
    let mut out = Vec::new();
    for policy in [L2Policy::Conventional, L2Policy::Exclusive] {
        if !points.iter().any(|p| p.machine.l2.is_some_and(|s| s.policy == policy)) {
            continue;
        }
        let idx: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].machine.l2.is_none_or(|s| s.policy == policy))
            .collect();
        let pairs: Vec<(f64, f64)> =
            idx.iter().map(|&i| (points[i].area_rbe, points[i].tpi_ns)).collect();
        let env = best_envelope(&pairs);
        out.push(env.into_iter().map(|e| EnvelopePoint { index: idx[e.index], ..e }).collect());
    }
    out
}

/// The job as a user runs it: per trace, `TraceReader` →
/// `TraceArena::capture` → one `try_sweep_*_arena_threads` call →
/// envelopes. Models are built fresh, so the timing memo starts cold as
/// it does in every `tlc sweep`, and the tlc-obs counters and spans are
/// reset, as `tlc sweep` resets them per sweep.
pub fn run_once(job: &Job) -> Results {
    tlc_obs::reset();
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    job.inputs
        .iter()
        .map(|input| {
            let mut reader = inputs::open(input)?;
            let arena = TraceArena::capture(&mut reader, ARENA_CAP);
            if let Some(e) = reader.take_error() {
                return Err(format!("{}: {e}", input.name));
            }
            let b = budget(&arena, job.warmup);
            let swept = match job.engine {
                Engine::Family => try_sweep_family_arena_threads(
                    &job.space,
                    &arena,
                    b,
                    &timing,
                    &area,
                    job.threads,
                ),
                Engine::Predict => try_sweep_predict_arena_threads(
                    &job.space,
                    &arena,
                    b,
                    &timing,
                    &area,
                    job.threads,
                ),
            };
            let points = swept.map_err(|e| format!("{}: {e}", input.name))?;
            let envelopes = envelopes(&points);
            Ok(TraceResult { points, envelopes })
        })
        .collect()
}

/// A design point from simulated statistics, derived exactly as the
/// runner derives it.
fn design_point(
    cfg: &MachineConfig,
    workload: &str,
    stats: HierarchyStats,
    timing: &TimingModel,
    area: &AreaModel,
) -> DesignPoint {
    let t = MachineTiming::derive(cfg, timing, area);
    let tpi_ns = tpi::tpi_ns(&stats, &t);
    DesignPoint {
        machine: *cfg,
        label: cfg.label(),
        workload: workload.to_string(),
        area_rbe: t.area_rbe,
        l1_cycle_ns: t.l1_cycle_ns,
        l2_cycles: t.l2_cycles,
        tpi_ns,
        cpi: tpi::cpi(tpi_ns, &t),
        stats,
    }
}

/// Splits `members` into the runner's replay families: one per (L2
/// policy, ways, replacement), single-level members together, in order
/// of first appearance.
pub fn families(space: &[MachineConfig], members: &[usize]) -> Vec<Vec<usize>> {
    type Key = Option<(L2Policy, u32, ReplacementKind)>;
    let mut fams: Vec<(Key, Vec<usize>)> = Vec::new();
    for &i in members {
        let key = space[i].l2.map(|s| (s.policy, s.ways, s.repl));
        match fams.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => fams.push((key, vec![i])),
        }
    }
    fams.into_iter().map(|(_, v)| v).collect()
}

/// The ledger layer a family replay belongs to.
fn family_layer(cfg: &MachineConfig) -> &'static str {
    match cfg.l2.map(|s| s.policy) {
        None => "cache.family.single",
        Some(L2Policy::Conventional) => "cache.family.conventional",
        Some(L2Policy::Exclusive) => "cache.family.exclusive",
    }
}

/// Replays one captured group's `members` family by family.
fn replay_families(
    space: &[MachineConfig],
    members: &[usize],
    stream: &MissStream,
    stats: &mut [Option<HierarchyStats>],
    ledger: &Ledger,
) {
    for fam in families(space, members) {
        let cfgs: Vec<MachineConfig> = fam.iter().map(|&i| space[i]).collect();
        let layer = family_layer(&cfgs[0]);
        let out = ledger.span(layer, || simulate_family(&cfgs, stream));
        ledger.count(layer, stream.len());
        ledger.count("cache.family.member_events", stream.len() * cfgs.len() as u64);
        ledger.count("cache.family.calls", 1);
        for (i, s) in fam.into_iter().zip(out) {
            stats[i] = Some(s);
        }
    }
}

/// Simulates every point of `space` on `arena` the way the runner
/// schedules it: one L1 capture per L1 group of two or more points
/// (singletons and byte-limited groups replay the arena per point),
/// then predict and/or family replay of the captured stream.
fn simulate_space(
    job: &Job,
    arena: &TraceArena,
    b: SimBudget,
    ledger: &Ledger,
) -> Vec<HierarchyStats> {
    let space = &job.space;
    let mut stats: Vec<Option<HierarchyStats>> = vec![None; space.len()];
    for ((l1, line), idxs) in l1_groups(space) {
        let stream = if idxs.len() < 2 {
            None
        } else {
            let s = ledger.span("cache.filter", || {
                capture_miss_stream(l1, line, arena, b, MISS_STREAM_BYTES_LIMIT)
            });
            ledger.count("cache.filter", arena.len());
            ledger.count("cache.filter.groups", 1);
            if let Some(s) = &s {
                ledger.count("cache.filter.events", s.len());
                ledger.count("cache.filter.event_bytes", s.bytes() as u64);
            }
            s
        };
        let Some(stream) = stream else {
            for i in idxs {
                stats[i] =
                    Some(ledger.span("cache.arena_replay", || simulate_arena(&space[i], arena, b)));
            }
            continue;
        };
        let (predicted, replayed): (Vec<usize>, Vec<usize>) = match job.engine {
            Engine::Family => (Vec::new(), idxs),
            Engine::Predict => idxs.into_iter().partition(|&i| config_is_predictable(&space[i])),
        };
        if !predicted.is_empty() {
            let cfgs: Vec<MachineConfig> = predicted.iter().map(|&i| space[i]).collect();
            tlc_obs::hist::reset_hists();
            let out = ledger.span("cache.predict", || simulate_predicted(&cfgs, &stream));
            // The per-configuration solve is the existing
            // `predict.solve_ns` histogram; the rest of the call is the
            // profiling pass.
            let solve_ns = tlc_obs::hist::snapshot_all()
                .into_iter()
                .find(|h| h.name == tlc_obs::Hist::PredictSolveNs.name())
                .map_or(0, |h| h.sum);
            ledger.count("cache.predict", stream.len());
            ledger.count("cache.predict.configs", cfgs.len() as u64);
            ledger.count("cache.predict.solve_ns", solve_ns);
            for (i, s) in predicted.into_iter().zip(out) {
                stats[i] = Some(s);
            }
        }
        replay_families(space, &replayed, &stream, &mut stats, ledger);
    }
    stats.into_iter().map(|s| s.expect("every point simulated")).collect()
}

/// Derives the points (cold timing memo), times a second, warm-memo
/// derivation as a probe, and draws the envelopes.
pub fn finish_points(
    space: &[MachineConfig],
    workload: &str,
    stats: Vec<HierarchyStats>,
    timing: &TimingModel,
    area: &AreaModel,
    ledger: &Ledger,
) -> TraceResult {
    let points: Vec<DesignPoint> = ledger.span("core.machine.derive_cold", || {
        space.iter().zip(stats).map(|(c, s)| design_point(c, workload, s, timing, area)).collect()
    });
    ledger.count("core.machine.derive_cold", space.len() as u64);
    ledger.span("core.machine.derive_warm", || {
        for c in space {
            std::hint::black_box(MachineTiming::derive(c, timing, area));
        }
    });
    ledger.count("core.machine.derive_warm", space.len() as u64);
    let envelopes = ledger.span("core.envelope", || envelopes(&points));
    ledger.count("core.envelope", points.len() as u64);
    TraceResult { points, envelopes }
}

/// [`run_once`] broken into its layer calls, one span each, as one
/// traced repetition.
pub fn run_traced(job: &Job, ledger: &Ledger) -> Results {
    tlc_obs::reset();
    ledger.next_run();
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    ledger.span("rep", || {
        job.inputs
            .iter()
            .map(|input| {
                let mut src = Decoded::new(inputs::open(input)?, ledger);
                let arena =
                    ledger.span("trace.arena.capture", || TraceArena::capture(&mut src, ARENA_CAP));
                if let Some(e) = src.reader_mut().take_error() {
                    return Err(format!("{}: {e}", input.name));
                }
                ledger.count("trace.arena.capture", arena.len());
                ledger.count("trace.arena.bytes", arena.bytes() as u64);
                ledger.count("trace.arena.needed", input.instructions);
                let b = budget(&arena, job.warmup);
                let stats = simulate_space(job, &arena, b, ledger);
                Ok(finish_points(&job.space, arena.name(), stats, &timing, &area, ledger))
            })
            .collect()
    })
}

/// Captures a trace again, outside any timed region, for the checks.
pub fn capture_for_check(input: &TraceInput) -> Result<TraceArena, String> {
    let mut reader = inputs::open(input)?;
    let arena = TraceArena::capture(&mut reader, ARENA_CAP);
    match reader.take_error() {
        Some(e) => Err(format!("{}: {e}", input.name)),
        None => Ok(arena),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{test_dir, write_sweep_inputs, SetupCost};

    fn tiny_job(dir: &std::path::Path, engine: Engine, space: Vec<MachineConfig>) -> Job {
        let inputs = write_sweep_inputs(dir, 3, 30_000, &mut SetupCost::default()).unwrap();
        Job { inputs, space, engine, warmup: 5_000, threads: 2 }
    }

    /// The traced breakdown is the runner's family sweep, bit for bit.
    #[test]
    fn traced_breakdown_matches_family_runner() {
        let dir = test_dir("family");
        let job = tiny_job(&dir, Engine::Family, paper_space());
        let ledger = Ledger::default();
        let once = run_once(&job);
        assert!(once.iter().all(Result::is_ok), "{once:?}");
        assert_eq!(once, run_traced(&job, &ledger));
        assert!(ledger.units("cache.family.calls") > 0);
        assert!(ledger.units("cache.predict") == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The traced breakdown equals the runner's predict sweep.
    #[test]
    fn traced_breakdown_matches_predict_runner() {
        let dir = test_dir("predict");
        let grid: Vec<MachineConfig> = predict_grid().into_iter().step_by(10).collect();
        let job = tiny_job(&dir, Engine::Predict, grid);
        let ledger = Ledger::default();
        let once = run_once(&job);
        assert!(once.iter().all(Result::is_ok), "{once:?}");
        assert_eq!(once, run_traced(&job, &ledger));
        assert_eq!(ledger.units("cache.predict.configs"), 2 * 45);
        assert_eq!(ledger.units("cache.family.calls"), 0, "no conventional point replays");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spaces_have_their_sizes() {
        assert_eq!(paper_space().len(), 90);
        let grid = predict_grid();
        let mut keys: Vec<_> =
            grid.iter().map(|c| (c.l1_size_bytes, c.l2.map(|s| (s.size_bytes, s.ways)))).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 450, "every grid point is distinct geometry");
    }
}
