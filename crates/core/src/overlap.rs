//! Measured miss-overlap estimation for the §10 non-blocking-loads
//! extension.
//!
//! [`FutureWorkModel`](crate::future::FutureWorkModel) takes the hidden
//! fraction of miss latency as a parameter; this module *measures* it
//! from the reference stream instead of assuming it. The model: a
//! non-blocking cache with `mshrs` miss-status registers lets a miss
//! overlap with earlier misses still outstanding. Driving the simulated
//! hierarchy, we record the instruction distance between consecutive
//! misses; a miss issued while an earlier one is still in flight (within
//! its latency, MSHR permitting) hides the overlapping part of its own
//! latency.
//!
//! The estimate is deliberately optimistic about the processor (it
//! assumes execution can always continue to the next miss — perfect
//! latency tolerance), so it upper-bounds what §10's "non-blocking loads"
//! could deliver; the paper's blocking model is the lower bound.

use crate::experiment::{build_system_kind, SimBudget};
use crate::machine::{MachineConfig, MachineTiming};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use tlc_area::AreaModel;
use tlc_cache::MemorySystem;
use tlc_timing::TimingModel;
use tlc_trace::InstructionSource;

/// Result of an overlap measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapReport {
    /// Misses observed (off-chip demand fetches).
    pub misses: u64,
    /// Mean instruction distance between consecutive misses.
    pub mean_miss_gap_instr: f64,
    /// Fraction of misses that issued while another was outstanding.
    pub clustered_fraction: f64,
    /// Fraction of total miss latency hidden by overlap — feed this to
    /// [`FutureWorkModel::with_miss_overlap`](crate::future::FutureWorkModel::with_miss_overlap).
    pub overlap_fraction: f64,
}

/// Measures achievable miss overlap for `cfg` on `source`'s stream with
/// `mshrs` miss-status registers, over `budget`'s warm-up and measured
/// instructions.
///
/// # Panics
///
/// Panics if `mshrs` is zero.
pub fn estimate_overlap<S: InstructionSource + ?Sized>(
    cfg: &MachineConfig,
    source: &mut S,
    budget: SimBudget,
    mshrs: usize,
    timing: &TimingModel,
    area: &AreaModel,
) -> OverlapReport {
    assert!(mshrs > 0, "need at least one MSHR");
    let t = MachineTiming::derive(cfg, timing, area);
    // Off-chip miss latency in processor cycles ≈ instructions (CPI≈1
    // between misses under the §2.1 issue model).
    let k = t.refill_transfers as f64;
    let miss_latency_cycles = if t.l2_cycles > 0 {
        (t.offchip_rounded_ns + (k + 1.0) * t.l2_cycle_ns() + t.l1_cycle_ns) / t.l1_cycle_ns
    } else {
        (t.offchip_rounded_ns + t.l1_cycle_ns) / t.l1_cycle_ns
    };

    let mut sys = build_system_kind(cfg);
    for _ in 0..budget.warmup_instructions {
        if let Some(rec) = source.next_instruction_opt() {
            sys.access_instruction(&rec);
        }
    }
    sys.reset_stats();

    // Completion times (in instruction indices) of outstanding misses.
    let mut outstanding: VecDeque<f64> = VecDeque::with_capacity(mshrs);
    let mut misses = 0u64;
    let mut clustered = 0u64;
    let mut hidden_latency = 0.0f64;
    let mut last_miss_at: Option<f64> = None;
    let mut gap_sum = 0.0f64;

    for i in 0..budget.instructions {
        let Some(rec) = source.next_instruction_opt() else { break };
        let now = i as f64;
        let outcome = sys.access_instruction(&rec);
        let fetch_missed = outcome.fetch == tlc_cache::ServiceLevel::Memory;
        let data_missed = outcome.data == Some(tlc_cache::ServiceLevel::Memory);
        for missed in [fetch_missed, data_missed] {
            if !missed {
                continue;
            }
            misses += 1;
            if let Some(prev) = last_miss_at {
                gap_sum += now - prev;
            }
            last_miss_at = Some(now);
            // Retire completed misses.
            while let Some(&done) = outstanding.front() {
                if done <= now {
                    outstanding.pop_front();
                } else {
                    break;
                }
            }
            if let Some(&latest_done) = outstanding.back() {
                // Overlap with the in-flight miss that completes last.
                clustered += 1;
                hidden_latency += (latest_done - now).clamp(0.0, miss_latency_cycles);
            }
            if outstanding.len() < mshrs {
                outstanding.push_back(now + miss_latency_cycles);
            }
            // With MSHRs exhausted the miss blocks: no new entry, no
            // additional overlap beyond what the in-flight tail gives.
        }
    }

    let total_latency = misses as f64 * miss_latency_cycles;
    OverlapReport {
        misses,
        mean_miss_gap_instr: if misses > 1 { gap_sum / (misses - 1) as f64 } else { f64::NAN },
        clustered_fraction: if misses == 0 { 0.0 } else { clustered as f64 / misses as f64 },
        overlap_fraction: if total_latency == 0.0 {
            0.0
        } else {
            (hidden_latency / total_latency).clamp(0.0, 0.99)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::L2Policy;
    use tlc_trace::spec::SpecBenchmark;

    fn models() -> (TimingModel, AreaModel) {
        (TimingModel::paper(), AreaModel::new())
    }

    #[test]
    fn overlap_is_a_sane_fraction() {
        let (tm, am) = models();
        let cfg = MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0);
        let r = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Gcc1.workload(),
            SimBudget::quick(),
            4,
            &tm,
            &am,
        );
        assert!(r.misses > 0);
        assert!((0.0..1.0).contains(&r.overlap_fraction), "{r:?}");
        assert!((0.0..=1.0).contains(&r.clustered_fraction));
        assert!(r.mean_miss_gap_instr > 0.0);
    }

    #[test]
    fn more_mshrs_never_hurt() {
        let (tm, am) = models();
        let cfg = MachineConfig::single_level(2, 50.0);
        let r1 = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Tomcatv.workload(),
            SimBudget::quick(),
            1,
            &tm,
            &am,
        );
        let r8 = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Tomcatv.workload(),
            SimBudget::quick(),
            8,
            &tm,
            &am,
        );
        assert!(
            r8.overlap_fraction >= r1.overlap_fraction,
            "8 MSHRs {:.3} vs 1 MSHR {:.3}",
            r8.overlap_fraction,
            r1.overlap_fraction
        );
    }

    #[test]
    fn one_mshr_still_overlaps_with_the_inflight_miss() {
        // Even a single MSHR lets a subsequent miss overlap with the one
        // in flight (hit-under-miss style accounting), so streaming
        // workloads show nonzero overlap.
        let (tm, am) = models();
        let cfg = MachineConfig::single_level(2, 50.0);
        let r = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Tomcatv.workload(),
            SimBudget::quick(),
            1,
            &tm,
            &am,
        );
        assert!(r.overlap_fraction > 0.1, "streaming misses should cluster: {r:?}");
    }

    #[test]
    fn streaming_overlaps_more_than_sparse_misses() {
        // tomcatv misses constantly (dense, overlappable); espresso's
        // rare misses are isolated.
        let (tm, am) = models();
        let cfg = MachineConfig::single_level(32, 50.0);
        let dense = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Tomcatv.workload(),
            SimBudget::quick(),
            8,
            &tm,
            &am,
        );
        let sparse = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Espresso.workload(),
            SimBudget::quick(),
            8,
            &tm,
            &am,
        );
        assert!(
            dense.overlap_fraction > sparse.overlap_fraction,
            "tomcatv {:.3} vs espresso {:.3}",
            dense.overlap_fraction,
            sparse.overlap_fraction
        );
        assert!(dense.mean_miss_gap_instr < sparse.mean_miss_gap_instr);
    }

    #[test]
    #[should_panic(expected = "MSHR")]
    fn rejects_zero_mshrs() {
        let (tm, am) = models();
        let cfg = MachineConfig::single_level(8, 50.0);
        let _ = estimate_overlap(
            &cfg,
            &mut SpecBenchmark::Li.workload(),
            SimBudget::quick(),
            0,
            &tm,
            &am,
        );
    }
}
