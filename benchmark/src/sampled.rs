//! The `tlc sweep --trace --sample` path, whole and broken into layers:
//! phase selection, slice capture, and the stitched-warming sweep.

use crate::inputs::{self, Decoded, TraceInput};
use crate::ledger::Ledger;
use crate::sweep::{envelopes, families, finish_points, Results, TraceResult};
use tlc_area::AreaModel;
use tlc_cache::HierarchyStats;
use tlc_core::experiment::{
    capture_miss_stream_segments, simulate_arena, simulate_family_segments,
};
use tlc_core::runner::{l1_groups, try_sweep_sampled_threads, MISS_STREAM_BYTES_LIMIT};
use tlc_core::sampling::{capture_phase_slices, combine_weighted, sample_source, PhaseSlice};
use tlc_core::{MachineConfig, PhaseSample, SampleOptions};
use tlc_timing::TimingModel;

/// One sampled job over a single long trace.
#[derive(Debug)]
pub struct Job {
    /// The phased trace.
    pub input: TraceInput,
    /// Design points swept.
    pub space: Vec<MachineConfig>,
    /// Interval length, phase count, and clustering seed.
    pub opts: SampleOptions,
    /// Warm-up prefix before each representative slice.
    pub warmup: u64,
    /// Worker threads of the runner.
    pub threads: usize,
}

fn select<S: tlc_trace::InstructionSource + ?Sized>(
    src: &mut S,
    opts: &SampleOptions,
) -> Result<PhaseSample, String> {
    let sample = sample_source(src, opts);
    sample.validate().map(|()| sample)
}

/// The job as a user runs it: `sample_source` over one decode pass,
/// `capture_phase_slices` over a second, one `try_sweep_sampled_threads`
/// call, then the envelopes.
pub fn run_once(job: &Job) -> Results {
    tlc_obs::reset();
    let run = || -> Result<TraceResult, String> {
        let timing = TimingModel::paper();
        let area = AreaModel::new();
        let mut reader = inputs::open(&job.input)?;
        let sample = select(&mut reader, &job.opts)?;
        let mut reader = inputs::open(&job.input)?;
        let slices = capture_phase_slices(&mut reader, &sample, job.warmup);
        if let Some(e) = reader.take_error() {
            return Err(format!("{}: {e}", job.input.name));
        }
        let points = try_sweep_sampled_threads(&job.space, &slices, &timing, &area, job.threads)
            .map_err(|e| format!("{}: {e}", job.input.name))?;
        let envelopes = envelopes(&points);
        Ok(TraceResult { points, envelopes })
    };
    vec![run()]
}

/// Simulates every point over the stitched slices the way the sampled
/// runner schedules it: one stitched L1 capture per L1 group, then one
/// segmented family replay per (policy, ways, replacement) family; a
/// byte-limited group replays each slice cold per point.
fn simulate_slices(
    space: &[MachineConfig],
    slices: &[PhaseSlice],
    ledger: &Ledger,
) -> Vec<HierarchyStats> {
    let replayed: u64 = slices.iter().map(|s| s.arena.len()).sum();
    let mut stats: Vec<Option<HierarchyStats>> = vec![None; space.len()];
    for ((l1, line), idxs) in l1_groups(space) {
        let segments = ledger.span("cache.filter", || {
            capture_miss_stream_segments(l1, line, slices, MISS_STREAM_BYTES_LIMIT)
        });
        ledger.count("cache.filter", replayed);
        ledger.count("cache.filter.groups", 1);
        let Some(segments) = segments else {
            for i in idxs {
                let parts: Vec<(f64, HierarchyStats)> = slices
                    .iter()
                    .map(|s| {
                        let st = ledger.span("cache.arena_replay", || {
                            simulate_arena(&space[i], &s.arena, s.budget)
                        });
                        (s.weight, st)
                    })
                    .collect();
                stats[i] = Some(combine_weighted(&parts));
            }
            continue;
        };
        let events: u64 = segments.iter().map(|s| s.len()).sum();
        ledger.count("cache.filter.events", events);
        ledger.count("cache.filter.event_bytes", segments.iter().map(|s| s.bytes() as u64).sum());
        for fam in families(space, &idxs) {
            let cfgs: Vec<MachineConfig> = fam.iter().map(|&i| space[i]).collect();
            let per_seg =
                ledger.span("cache.family.segments", || simulate_family_segments(&cfgs, &segments));
            ledger.count("cache.family.segments", events);
            ledger.count("cache.family.member_events", events * cfgs.len() as u64);
            ledger.count("cache.family.calls", 1);
            for (m, &i) in fam.iter().enumerate() {
                let parts: Vec<(f64, HierarchyStats)> =
                    per_seg.iter().zip(slices).map(|(row, s)| (s.weight, row[m])).collect();
                stats[i] = Some(combine_weighted(&parts));
            }
        }
    }
    stats.into_iter().map(|s| s.expect("every point simulated")).collect()
}

/// [`run_once`] broken into its layer calls, as one traced repetition.
pub fn run_traced(job: &Job, ledger: &Ledger) -> Results {
    tlc_obs::reset();
    ledger.next_run();
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let run = || -> Result<TraceResult, String> {
        let mut src = Decoded::new(inputs::open(&job.input)?, ledger);
        let sample = ledger.span("core.sampling.sample", || select(&mut src, &job.opts))?;
        ledger.count("core.sampling.sample", sample.instructions);
        let mut src = Decoded::new(inputs::open(&job.input)?, ledger);
        let slices = ledger.span("core.sampling.slice_capture", || {
            capture_phase_slices(&mut src, &sample, job.warmup)
        });
        if let Some(e) = src.reader_mut().take_error() {
            return Err(format!("{}: {e}", job.input.name));
        }
        let replayed: u64 = slices.iter().map(|s| s.arena.len()).sum();
        ledger.count("core.sampling.slice_capture", sample.instructions);
        ledger.count("core.sampling.replayed", replayed);
        ledger.count("trace.arena.needed", replayed);
        ledger.count("trace.arena.bytes", slices.iter().map(|s| s.arena.bytes() as u64).sum());
        let stats = simulate_slices(&job.space, &slices, ledger);
        Ok(finish_points(&job.space, slices[0].arena.name(), stats, &timing, &area, ledger))
    };
    ledger.span("rep", || vec![run()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{test_dir, write_phased_input, SetupCost};

    /// The traced breakdown equals the runner's sampled sweep.
    #[test]
    fn traced_breakdown_matches_sampled_runner() {
        let dir = test_dir("sampled");
        let input =
            write_phased_input(&dir, 3, 200_000, 25_000, &mut SetupCost::default()).unwrap();
        let job = Job {
            input,
            space: crate::sweep::paper_space(),
            opts: SampleOptions { interval: 20_000, phases: 4, seed: 0xC1 },
            warmup: 5_000,
            threads: 2,
        };
        let ledger = Ledger::default();
        let once = run_once(&job);
        assert!(once[0].is_ok(), "{once:?}");
        assert_eq!(once, run_traced(&job, &ledger));
        let replayed = ledger.units("core.sampling.replayed");
        assert!(replayed > 0 && replayed < 200_000, "sampling replays a part of the stream");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
