//! SimPoint-style phase sampling: sweep only representative slices.
//!
//! Program behaviour is phasic — long stretches of a trace exercise the
//! cache hierarchy the same way. Instead of replaying a whole trace once
//! per L1 group, a sampled sweep:
//!
//! 1. slices the instruction stream into fixed-length intervals and
//!    summarises each with an address-region touch vector (the data-trace
//!    analogue of SimPoint's basic-block vectors) — [`sample_source`];
//! 2. clusters the interval signatures with seeded k-means into K
//!    *phases*, picks the interval closest to each centroid as the
//!    phase's representative, and records each phase's weight (the
//!    instructions its member intervals cover) — persisted as a
//!    [`PhaseSample`] (`tlc-phase-sample/1` JSON);
//! 3. captures only the representative slices (plus a warm-up prefix)
//!    into per-phase arenas — [`capture_phase_slices`] — which the
//!    runner sweeps with **stitched warming** and recombines via
//!    [`combine_weighted`].
//!
//! ## Stitched warming
//!
//! Replaying each slice from a cold hierarchy systematically
//! *overestimates* miss ratios: a large L2 (thousands of lines) sees far
//! too few probes inside one slice to fill, so every slice re-pays the
//! compulsory-miss transient the full trace pays once. The sampled
//! runner therefore keeps **one** persistent simulation per L1 group and
//! family: the L1 front-end replays every slice in trace order
//! (contents carrying across the gaps between representatives —
//! "stale state" in the SimPoint literature), and the family back-end
//! walks the per-slice event segments through one persistent set of L2
//! arrays, LFSRs, and exclusive mirrors. Each slice's warm-up prefix
//! then only has to *refresh* stale state, not fill a cold cache;
//! counters reset at each slice's warm-up boundary as usual.
//!
//! ## Error contract
//!
//! Reconstruction is approximate, mirroring the `predict` engine's ε
//! pattern: the recombined local L2 miss ratio of every configuration is
//! within [`SAMPLED_MISS_RATIO_EPSILON`] of full-trace replay (as
//! measured by [`tlc_cache::miss_ratio_error`]) on the committed
//! benchmarks — enforced by `tests/sampling_equivalence.rs` under the
//! parameter guidance below. Two degenerate cases are *exact* by
//! construction: when the interval covers the whole stream (one
//! interval, any K) and when K = 1 with an interval at least the stream
//! length, the single representative slice **is** the stream, its weight
//! is 1, and recombination reduces to full replay bit-for-bit.
//!
//! The contract is only meaningful when the parameters respect the
//! hierarchy being swept:
//!
//! - **Interval vs. L2 fill time.** A slice must deliver enough L2
//!   probes to express its steady-state behaviour: choose the interval
//!   so a slice's L1 misses are at least a few multiples of the largest
//!   L2's line count. Intervals much shorter than the L2 fill time
//!   leave even the stitched replay dominated by transient, and the
//!   measured local miss ratio becomes noise.
//! - **Warm-up refresh.** A prefix of a quarter to half an interval
//!   before each slice consistently tightens reconstruction (it
//!   refreshes the stale state across the unsampled gap); it is replay
//!   cost, not measured.
//! - **K vs. phase diversity.** Too few phases collapses distinct
//!   behaviours into one representative — with stitched warming, larger
//!   K strictly adds fidelity (it no longer adds cold transients), at
//!   the cost of replaying more of the trace.
//!
//! Sampling is *unsound* — expect errors beyond ε — for configurations
//! whose L2 never approaches steady state even on the full trace (an L2
//! sized near the trace's whole footprint), or for streams so short that
//! the interval count is comparable to K.

use crate::experiment::SimBudget;
use serde::{Deserialize, Serialize};
use tlc_cache::HierarchyStats;
use tlc_obs::{obs_count, Counter};
use tlc_trace::{batch_buffer, InstructionSource, TraceArena};

/// Schema tag of the persisted phase-selection JSON.
pub const PHASE_SAMPLE_SCHEMA: &str = "tlc-phase-sample/1";

/// Documented tolerance of sampled-sweep reconstruction: the recombined
/// local L2 miss ratio of any configuration is within this of
/// full-replay ground truth on the committed benchmarks (see
/// [`tlc_cache::miss_ratio_error`] for the metric, and the module docs
/// for the exact degenerate cases). Mirrors
/// [`tlc_cache::MISS_RATIO_EPSILON`], the predict engine's contract.
pub const SAMPLED_MISS_RATIO_EPSILON: f64 = 0.12;

/// Dimensionality of the per-interval signature vector. Address regions
/// hash into these buckets; 64 is plenty to separate phases while
/// keeping k-means cheap.
const SIGNATURE_DIMS: usize = 64;

/// Address-region granularity of the signature: 4 KiB, a page — coarse
/// enough that a loop nest stays in one region, fine enough that
/// distinct working sets land in distinct regions.
const REGION_SHIFT: u32 = 12;

/// Maximum Lloyd iterations before k-means stops refining.
const KMEANS_MAX_ITERS: usize = 100;

/// Clustering parameters for [`sample_source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOptions {
    /// Interval length in instructions. Shorter intervals resolve finer
    /// phase structure but cost more clustering and replay more slices.
    pub interval: u64,
    /// Number of phases K to cluster into (clamped to the interval
    /// count).
    pub phases: usize,
    /// Seed for the k-means++ initialisation; the whole pipeline is
    /// deterministic in (stream, interval, phases, seed).
    pub seed: u64,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions { interval: 100_000, phases: 8, seed: 0x5EED }
    }
}

/// One selected phase of a [`PhaseSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseInfo {
    /// Index of the representative interval (its slice starts at
    /// `representative * interval`).
    pub representative: u64,
    /// Number of intervals this phase stands in for (including the
    /// representative itself).
    pub members: u64,
    /// Instructions covered by the phase's member intervals — the
    /// recombination weight.
    pub weight_instructions: u64,
}

/// A persisted weighted phase selection (`tlc-phase-sample/1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSample {
    /// Schema tag ([`PHASE_SAMPLE_SCHEMA`]).
    pub schema: String,
    /// Name of the sampled stream (trace file stem or benchmark).
    pub trace: String,
    /// Total instructions in the sampled stream.
    pub instructions: u64,
    /// Interval length in instructions.
    pub interval: u64,
    /// Requested cluster count K (the effective count is
    /// `phases.len()`, which may be smaller for short streams).
    pub k: usize,
    /// Seed the clustering ran with.
    pub seed: u64,
    /// Total number of intervals the stream was sliced into.
    pub intervals: u64,
    /// The selected phases, ascending by representative interval.
    pub phases: Vec<PhaseInfo>,
}

impl PhaseSample {
    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("phase sample serialization cannot fail")
    }

    /// Parses a phase sample from JSON (no invariant checks; call
    /// [`PhaseSample::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the serde error string on malformed JSON.
    pub fn from_json(s: &str) -> Result<PhaseSample, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Checks structural and arithmetic invariants: schema tag, interval
    /// arithmetic, ascending in-range representatives, and that member
    /// counts and weights add up to the whole stream.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != PHASE_SAMPLE_SCHEMA {
            return Err(format!("schema {:?}, expected {PHASE_SAMPLE_SCHEMA:?}", self.schema));
        }
        if self.interval == 0 {
            return Err("interval must be positive".into());
        }
        if self.instructions == 0 {
            return Err("sampled stream is empty".into());
        }
        let expect_intervals = self.instructions.div_ceil(self.interval);
        if self.intervals != expect_intervals {
            return Err(format!(
                "intervals {} != ceil(instructions {} / interval {}) = {expect_intervals}",
                self.intervals, self.instructions, self.interval
            ));
        }
        if self.phases.is_empty() {
            return Err("no phases selected".into());
        }
        let mut prev: Option<u64> = None;
        let mut members = 0u64;
        let mut weight = 0u64;
        for p in &self.phases {
            if p.representative >= self.intervals {
                return Err(format!(
                    "representative interval {} out of range (intervals {})",
                    p.representative, self.intervals
                ));
            }
            if let Some(prev) = prev {
                if p.representative <= prev {
                    return Err("representatives must be ascending and distinct".into());
                }
            }
            prev = Some(p.representative);
            if p.members == 0 || p.weight_instructions == 0 {
                return Err(format!("phase at interval {} is empty", p.representative));
            }
            members += p.members;
            weight += p.weight_instructions;
        }
        if members != self.intervals {
            return Err(format!("phase members sum {members} != intervals {}", self.intervals));
        }
        if weight != self.instructions {
            return Err(format!(
                "phase weights sum {weight} != instructions {}",
                self.instructions
            ));
        }
        Ok(())
    }
}

/// FNV-1a over a region number, for the signature bucket hash.
fn region_bucket(region: u64) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in region.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % SIGNATURE_DIMS as u64) as usize
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Seeded k-means over the interval signatures: k-means++ init, Lloyd
/// refinement to stability (≤ [`KMEANS_MAX_ITERS`] iterations), empty
/// clusters reseeded to the farthest point. Returns each signature's
/// cluster assignment and the final centroids. Fully deterministic in
/// (signatures, k, seed).
fn kmeans(sigs: &[Vec<f64>], k: usize, seed: u64) -> (Vec<usize>, Vec<Vec<f64>>) {
    let n = sigs.len();
    debug_assert!(k >= 1 && k <= n);
    let mut rng = seed;
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(sigs[(splitmix64(&mut rng) % n as u64) as usize].clone());
    while centers.len() < k {
        // k-means++: pick proportional to squared distance from the
        // nearest existing center.
        let d2: Vec<f64> = sigs
            .iter()
            .map(|s| centers.iter().map(|c| dist2(s, c)).fold(f64::INFINITY, f64::min))
            .collect();
        let total: f64 = d2.iter().sum();
        let pick = if total > 0.0 {
            let frac = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let mut target = frac * total;
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if d > 0.0 {
                    target -= d;
                    if target <= 0.0 {
                        chosen = i;
                        break;
                    }
                }
            }
            chosen
        } else {
            // All points coincide with a center; any distinct index does.
            (splitmix64(&mut rng) % n as u64) as usize
        };
        centers.push(sigs[pick].clone());
    }
    let mut assign = vec![0usize; n];
    for _ in 0..KMEANS_MAX_ITERS {
        // Assignment step (ties break to the lowest center index).
        let mut changed = false;
        for (i, s) in sigs.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = dist2(s, center);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![vec![0.0f64; SIGNATURE_DIMS]; centers.len()];
        let mut counts = vec![0u64; centers.len()];
        for (i, s) in sigs.iter().enumerate() {
            counts[assign[i]] += 1;
            for (acc, v) in sums[assign[i]].iter_mut().zip(s) {
                *acc += v;
            }
        }
        for (c, sum) in sums.iter_mut().enumerate() {
            if counts[c] == 0 {
                // Reseed an empty cluster to the point farthest from its
                // current center (lowest index on ties).
                let far = sigs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, dist2(s, &centers[assign[i]])))
                    .fold((0usize, -1.0f64), |best, (i, d)| if d > best.1 { (i, d) } else { best })
                    .0;
                centers[c] = sigs[far].clone();
                changed = true;
            } else {
                for v in sum.iter_mut() {
                    *v /= counts[c] as f64;
                }
                centers[c] = std::mem::take(sum);
            }
        }
        if !changed {
            break;
        }
    }
    (assign, centers)
}

/// Slices `source` into fixed-length intervals, builds address-region
/// touch signatures, clusters them into (at most) `opts.phases`
/// representative phases, and returns the weighted selection.
///
/// Consumes the source to exhaustion in one linear pass. A stream
/// shorter than one interval yields a single interval; an empty stream
/// yields `instructions == 0` and no phases (rejected by
/// [`PhaseSample::validate`]).
pub fn sample_source<S: InstructionSource + ?Sized>(
    source: &mut S,
    opts: &SampleOptions,
) -> PhaseSample {
    assert!(opts.interval > 0, "interval must be positive");
    let trace = source.source_name().to_string();
    // Pass: per-interval touch vectors over 4 KiB regions (fetch + data).
    let mut sigs: Vec<Vec<f64>> = Vec::new();
    let mut lengths: Vec<u64> = Vec::new();
    let mut current = vec![0.0f64; SIGNATURE_DIMS];
    let mut in_interval = 0u64;
    let mut instructions = 0u64;
    let mut batch = batch_buffer();
    loop {
        let got = source.next_batch(&mut batch);
        for rec in &batch[..got] {
            current[region_bucket(rec.fetch.raw() >> REGION_SHIFT)] += 1.0;
            if let Some(d) = rec.data {
                current[region_bucket(d.addr.raw() >> REGION_SHIFT)] += 1.0;
            }
            in_interval += 1;
            if in_interval == opts.interval {
                sigs.push(std::mem::replace(&mut current, vec![0.0f64; SIGNATURE_DIMS]));
                lengths.push(in_interval);
                in_interval = 0;
            }
        }
        instructions += got as u64;
        if got < batch.len() {
            break;
        }
    }
    if in_interval > 0 {
        sigs.push(current);
        lengths.push(in_interval);
    }
    if sigs.is_empty() {
        return PhaseSample {
            schema: PHASE_SAMPLE_SCHEMA.to_string(),
            trace,
            instructions: 0,
            interval: opts.interval,
            k: opts.phases,
            seed: opts.seed,
            intervals: 0,
            phases: Vec::new(),
        };
    }
    // Normalise each signature by its touch count so interval *shape*,
    // not raw volume, drives the clustering (the final partial interval
    // would otherwise always look like its own phase).
    for sig in &mut sigs {
        let total: f64 = sig.iter().sum();
        if total > 0.0 {
            for v in sig.iter_mut() {
                *v /= total;
            }
        }
    }
    let k = opts.phases.max(1).min(sigs.len());
    let (assign, centers) = kmeans(&sigs, k, opts.seed);
    // Representative per cluster: the member closest to the centroid
    // (lowest index on ties); weight: the member intervals' instructions.
    let mut phases: Vec<PhaseInfo> = Vec::with_capacity(k);
    for (c, center) in centers.iter().enumerate() {
        let mut rep: Option<(usize, f64)> = None;
        let mut members = 0u64;
        let mut weight = 0u64;
        for (i, sig) in sigs.iter().enumerate() {
            if assign[i] != c {
                continue;
            }
            members += 1;
            weight += lengths[i];
            let d = dist2(sig, center);
            if rep.is_none_or(|(_, best)| d < best) {
                rep = Some((i, d));
            }
        }
        if let Some((i, _)) = rep {
            phases.push(PhaseInfo {
                representative: i as u64,
                members,
                weight_instructions: weight,
            });
        }
    }
    phases.sort_by_key(|p| p.representative);
    PhaseSample {
        schema: PHASE_SAMPLE_SCHEMA.to_string(),
        trace,
        instructions,
        interval: opts.interval,
        k: opts.phases,
        seed: opts.seed,
        intervals: sigs.len() as u64,
        phases,
    }
}

/// One representative slice, captured and ready to sweep: the arena
/// holds `budget.warmup_instructions` of warm-up prefix followed by
/// `budget.instructions` of measured slice, and `weight` scales the
/// slice's measured statistics up to the phase's whole-trace share.
#[derive(Debug)]
pub struct PhaseSlice {
    /// The captured prefix + slice records.
    pub arena: TraceArena,
    /// Warm-up/measure split of the capture.
    pub budget: SimBudget,
    /// Statistics scale factor: `weight_instructions / measured slice
    /// length` (1.0 when the phase is its own representative only).
    pub weight: f64,
    /// The representative interval's index, for diagnostics.
    pub representative: u64,
}

/// Captures every representative slice of `sample` from `source` in one
/// forward pass, with up to `warmup_instructions` of prefix before each
/// slice (clamped to the stream start and to the previous slice's end —
/// the pass never rewinds). The prefix primes cache state and is
/// discarded by the warm-up/measure protocol, exactly like a full
/// sweep's warm-up.
///
/// Bumps the `sample.intervals` / `sample.phases` /
/// `sample.intervals_skipped` / `sample.events_replayed` counters: this
/// is the moment the sampled/full split becomes real work.
///
/// # Panics
///
/// Panics if `sample` fails [`PhaseSample::validate`].
pub fn capture_phase_slices<S: InstructionSource + ?Sized>(
    source: &mut S,
    sample: &PhaseSample,
    warmup_instructions: u64,
) -> Vec<PhaseSlice> {
    sample.validate().expect("valid phase sample");
    obs_count!(Counter::SampleIntervals, sample.intervals);
    obs_count!(Counter::SamplePhases, sample.phases.len() as u64);
    obs_count!(Counter::SampleIntervalsSkipped, sample.intervals - sample.phases.len() as u64);
    let mut slices = Vec::with_capacity(sample.phases.len());
    let mut pos = 0u64; // stream position of the next unread record
    let mut batch = batch_buffer();
    for phase in &sample.phases {
        let slice_start = phase.representative * sample.interval;
        let slice_len = sample.interval.min(sample.instructions - slice_start);
        let capture_start = slice_start.saturating_sub(warmup_instructions).max(pos);
        let prefix = slice_start - capture_start;
        // Skip the stream forward to the capture start (no replay cost,
        // just decode).
        while pos < capture_start {
            let asked =
                usize::try_from(capture_start - pos).map_or(batch.len(), |n| n.min(batch.len()));
            let got = source.next_batch(&mut batch[..asked]);
            pos += got as u64;
            if got < asked {
                break;
            }
        }
        let arena = TraceArena::capture(source, prefix + slice_len);
        pos += arena.len();
        let measured = arena.len().saturating_sub(prefix);
        obs_count!(Counter::SampleEventsReplayed, arena.len());
        let weight =
            if measured > 0 { phase.weight_instructions as f64 / measured as f64 } else { 0.0 };
        slices.push(PhaseSlice {
            arena,
            budget: SimBudget { instructions: measured, warmup_instructions: prefix },
            weight,
            representative: phase.representative,
        });
    }
    slices
}

/// Recombines per-phase measured statistics into whole-trace estimates:
/// each counter is the weight-scaled sum over phases, rounded to the
/// nearest count. With a single phase of weight 1.0 this is the
/// identity, which is what makes the degenerate cases exact.
pub fn combine_weighted(parts: &[(f64, HierarchyStats)]) -> HierarchyStats {
    let sum = |get: fn(&HierarchyStats) -> u64| -> u64 {
        parts.iter().map(|(w, s)| w * get(s) as f64).sum::<f64>().round() as u64
    };
    HierarchyStats {
        instructions: sum(|s| s.instructions),
        data_refs: sum(|s| s.data_refs),
        l1i_misses: sum(|s| s.l1i_misses),
        l1d_misses: sum(|s| s.l1d_misses),
        l2_hits: sum(|s| s.l2_hits),
        l2_misses: sum(|s| s.l2_misses),
        offchip_writebacks: sum(|s| s.offchip_writebacks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::ReplaySource;

    fn sample_of(benchmark: SpecBenchmark, n: u64, opts: &SampleOptions) -> PhaseSample {
        let records = benchmark.workload().take_instructions(n as usize);
        sample_source(&mut ReplaySource::new(benchmark.name(), records), opts)
    }

    #[test]
    fn sample_is_deterministic_and_valid() {
        let opts = SampleOptions { interval: 5_000, phases: 4, seed: 0xC1 };
        let a = sample_of(SpecBenchmark::Gcc1, 60_000, &opts);
        let b = sample_of(SpecBenchmark::Gcc1, 60_000, &opts);
        assert_eq!(a, b, "same stream + options must reproduce the selection");
        a.validate().expect("valid sample");
        assert_eq!(a.instructions, 60_000);
        assert_eq!(a.intervals, 12);
        assert!(a.phases.len() <= 4);
        assert_eq!(a.to_json(), b.to_json());
        let back = PhaseSample::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn different_seed_may_move_but_never_breaks_invariants() {
        for seed in [1u64, 2, 0xDEADBEEF] {
            let opts = SampleOptions { interval: 4_000, phases: 3, seed };
            sample_of(SpecBenchmark::Li, 50_000, &opts).validate().expect("valid");
        }
    }

    #[test]
    fn single_interval_degenerate_case() {
        // interval >= stream: one interval, one phase, full weight —
        // regardless of K.
        for k in [1usize, 4] {
            let opts = SampleOptions { interval: 100_000, phases: k, seed: 7 };
            let s = sample_of(SpecBenchmark::Espresso, 30_000, &opts);
            s.validate().expect("valid");
            assert_eq!(s.intervals, 1);
            assert_eq!(s.phases.len(), 1);
            assert_eq!(s.phases[0].representative, 0);
            assert_eq!(s.phases[0].weight_instructions, 30_000);
        }
    }

    #[test]
    fn capture_slices_covers_each_representative() {
        let opts = SampleOptions { interval: 5_000, phases: 3, seed: 0xC1 };
        let sample = sample_of(SpecBenchmark::Tomcatv, 40_000, &opts);
        let records = SpecBenchmark::Tomcatv.workload().take_instructions(40_000);
        let mut source = ReplaySource::new("tomcatv", records.clone());
        let slices = capture_phase_slices(&mut source, &sample, 2_000);
        assert_eq!(slices.len(), sample.phases.len());
        for (slice, phase) in slices.iter().zip(&sample.phases) {
            assert_eq!(slice.representative, phase.representative);
            let start = phase.representative * sample.interval;
            let len = sample.interval.min(40_000 - start);
            assert_eq!(slice.budget.instructions, len);
            assert!(slice.budget.warmup_instructions <= 2_000);
            // The captured records are exactly the stream's slice.
            let got: Vec<_> = slice.arena.replay().collect();
            let lo = (start - slice.budget.warmup_instructions) as usize;
            let hi = (start + len) as usize;
            assert_eq!(got, records[lo..hi].to_vec(), "phase at interval {}", start);
            let expect_w = phase.weight_instructions as f64 / len as f64;
            assert!((slice.weight - expect_w).abs() < 1e-12);
        }
    }

    #[test]
    fn combine_weighted_identity_and_rounding() {
        let s = HierarchyStats {
            instructions: 1000,
            data_refs: 300,
            l1i_misses: 10,
            l1d_misses: 20,
            l2_hits: 15,
            l2_misses: 15,
            offchip_writebacks: 5,
        };
        assert_eq!(combine_weighted(&[(1.0, s)]), s);
        let doubled = combine_weighted(&[(1.5, s), (0.5, s)]);
        assert_eq!(doubled.instructions, 2000);
        assert_eq!(doubled.l2_misses, 30);
        // 0.4 + 0.35 of 10 misses rounds to 8, not truncates to 7.
        let part = HierarchyStats { l2_misses: 10, ..Default::default() };
        assert_eq!(combine_weighted(&[(0.4, part), (0.35, part)]).l2_misses, 8);
    }

    #[test]
    fn validate_rejects_broken_samples() {
        let opts = SampleOptions { interval: 5_000, phases: 2, seed: 1 };
        let good = sample_of(SpecBenchmark::Li, 20_000, &opts);
        good.validate().unwrap();
        let mut bad = good.clone();
        bad.schema = "nope/9".into();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.intervals += 1;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.phases[0].weight_instructions += 1;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.phases.clear();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.phases[0].representative = bad.intervals + 5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn kmeans_splits_obviously_distinct_phases() {
        // Two alternating synthetic phases touching disjoint regions
        // must land in different clusters.
        use tlc_trace::{Addr, InstructionRecord, MemRef};
        let mut records = Vec::new();
        for block in 0..8u64 {
            let base = if block % 2 == 0 { 0x10_0000u64 } else { 0x90_0000 };
            for i in 0..1_000u64 {
                records.push(InstructionRecord::with_data(
                    Addr::new(0x400 + (i % 16) * 4),
                    MemRef::load(Addr::new(base + (i % 512) * 64)),
                ));
            }
        }
        let opts = SampleOptions { interval: 1_000, phases: 2, seed: 3 };
        let s = sample_source(&mut ReplaySource::new("synthetic", records), &opts);
        s.validate().unwrap();
        assert_eq!(s.phases.len(), 2, "two distinct phases must survive clustering");
        assert_eq!(s.phases[0].weight_instructions, 4_000);
        assert_eq!(s.phases[1].weight_instructions, 4_000);
    }
}
