//! Banked first-level caches — the alternative to dual porting that §6
//! points at: "A banked cache can also be used to support more than one
//! load or store per cycle; since banking requires more inputs and
//! outputs to the cache it also increases the area required for the
//! cache (the tradeoffs between banking and dual porting have been
//! studied in \[8\])" (Sohi & Franklin, ASPLOS 1991).
//!
//! The model: a `B`-bank L1 supports two accesses per cycle unless both
//! map to the same bank (a *bank conflict*, which serialises them). The
//! conflict rate is **measured** from the workload's stream of
//! consecutive data references; the effective issue multiplier is then
//! `2 / (1 + p_conflict)` instead of the dual-ported cell's clean `2`.
//! Area grows by a per-bank wiring/port overhead instead of the cell
//! doubling of §6.

use crate::experiment::{simulate_source, SimBudget};
use crate::machine::{MachineConfig, MachineTiming};
use crate::tpi;
use serde::{Deserialize, Serialize};
use tlc_area::AreaModel;
use tlc_timing::TimingModel;
use tlc_trace::{InstructionRecord, InstructionSource};

/// Parameters of the banking model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankingParams {
    /// Number of banks (power of two ≥ 2).
    pub banks: u32,
    /// Fractional area overhead per log₂(banks) — extra decoders, port
    /// wiring, and crossbar (\[8\] reports tens of percent for practical
    /// bank counts).
    pub area_overhead_per_log2_bank: f64,
}

impl BankingParams {
    /// Default overhead: +12% area per doubling of banks.
    pub fn new(banks: u32) -> Self {
        assert!(banks >= 2 && banks.is_power_of_two(), "banks must be a power of two >= 2");
        BankingParams { banks, area_overhead_per_log2_bank: 0.12 }
    }

    /// Total area multiplier relative to the single-ported cache.
    pub fn area_factor(&self) -> f64 {
        1.0 + self.area_overhead_per_log2_bank * (self.banks as f64).log2()
    }
}

/// One evaluated banked configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BankedPoint {
    /// Bank count.
    pub banks: u32,
    /// Measured probability that two consecutive data references collide
    /// in a bank.
    pub conflict_rate: f64,
    /// Effective instruction-issue multiplier (`2/(1+p)`).
    pub issue_factor: f64,
    /// Chip area (rbe) including the banking overhead.
    pub area_rbe: f64,
    /// Resulting time per instruction (ns).
    pub tpi_ns: f64,
}

/// Instructions, from the start of the stream, whose data references
/// [`evaluate_banked`] samples for its conflict rate.
pub const CONFLICT_SAMPLES: u64 = 100_000;

/// Running bank-conflict count over consecutive data references.
struct ConflictTally {
    mask: u64,
    prev: Option<u64>,
    pairs: u64,
    conflicts: u64,
}

impl ConflictTally {
    fn new(banks: u32) -> Self {
        assert!(banks.is_power_of_two() && banks >= 2, "banks must be a power of two >= 2");
        ConflictTally { mask: u64::from(banks - 1), prev: None, pairs: 0, conflicts: 0 }
    }

    fn observe(&mut self, rec: &InstructionRecord) {
        if let Some(d) = rec.data {
            let bank = (d.addr.raw() >> 2) & self.mask; // word-interleaved
            if let Some(p) = self.prev {
                self.pairs += 1;
                if p == bank {
                    self.conflicts += 1;
                }
            }
            self.prev = Some(bank);
        }
    }

    fn rate(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.pairs as f64
        }
    }
}

/// Measures the bank-conflict probability of the data stream in the
/// next `samples` instructions of `source` (fewer if it ends first): the
/// fraction of consecutive data-reference pairs that address the same
/// of `banks` **word-interleaved** banks (the interleaving real banked
/// L1s use, so sequential word runs rotate across banks).
pub fn measure_conflict_rate<S: InstructionSource + ?Sized>(
    source: &mut S,
    samples: u64,
    banks: u32,
    _line_bytes: u64,
) -> f64 {
    Tallied::new(source, banks, samples).finish()
}

/// Passes a source through while tallying bank conflicts over its first
/// `left` records.
struct Tallied<'a, S: ?Sized> {
    source: &'a mut S,
    tally: ConflictTally,
    left: u64,
}

impl<'a, S: InstructionSource + ?Sized> Tallied<'a, S> {
    fn new(source: &'a mut S, banks: u32, samples: u64) -> Self {
        Tallied { source, tally: ConflictTally::new(banks), left: samples }
    }

    /// Reads whatever of the sample the consumer left unread; returns the
    /// conflict rate.
    fn finish(mut self) -> f64 {
        while self.left > 0 && self.next_instruction_opt().is_some() {}
        self.tally.rate()
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for Tallied<'_, S> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        let rec = self.source.next_instruction_opt()?;
        if self.left > 0 {
            self.left -= 1;
            self.tally.observe(&rec);
        }
        Some(rec)
    }

    fn source_name(&self) -> &str {
        self.source.source_name()
    }
}

/// Evaluates a banked-L1 machine on `source`'s stream: same miss
/// behaviour as the single-ported machine (banking does not change cache
/// contents), but `2/(1+p)` issue rate and banked area. `p` is the
/// conflict rate over the stream's first [`CONFLICT_SAMPLES`]
/// instructions, tallied as the simulation reads them; a budget shorter
/// than that reads the rest of the sample after the simulation.
pub fn evaluate_banked<S: InstructionSource + ?Sized>(
    base: &MachineConfig,
    source: &mut S,
    budget: SimBudget,
    params: BankingParams,
    timing: &TimingModel,
    area: &AreaModel,
) -> BankedPoint {
    let mut tallied = Tallied::new(source, params.banks, CONFLICT_SAMPLES);
    let stats = simulate_source(base, &mut tallied, budget);
    let p = tallied.finish();
    let mut t = MachineTiming::derive(base, timing, area);

    // Banking multiplies only the L1 areas (the L2 keeps plain cells).
    let l1_geom = base.l1_geometry();
    let l1_t = timing.optimal(&l1_geom, tlc_area::CellKind::SinglePorted);
    let l1_area = area.total_area(&l1_geom, &l1_t.org, tlc_area::CellKind::SinglePorted).value();
    t.area_rbe += 2.0 * l1_area * (params.area_factor() - 1.0);
    t.issue_factor = 2.0 / (1.0 + p);

    let tpi = tpi::tpi_ns(&stats, &t);
    BankedPoint {
        banks: params.banks,
        conflict_rate: p,
        issue_factor: t.issue_factor,
        area_rbe: t.area_rbe,
        tpi_ns: tpi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_trace::spec::SpecBenchmark;

    #[test]
    fn more_banks_fewer_conflicts() {
        let p2 = measure_conflict_rate(&mut SpecBenchmark::Gcc1.workload(), 30_000, 2, 16);
        let p8 = measure_conflict_rate(&mut SpecBenchmark::Gcc1.workload(), 30_000, 8, 16);
        assert!(p8 < p2, "8 banks {p8:.3} should conflict less than 2 banks {p2:.3}");
        assert!((0.0..=1.0).contains(&p2));
    }

    #[test]
    fn streaming_conflicts_reflect_stride_interleave() {
        // tomcatv's round-robin array sweep alternates banks heavily, so
        // its conflict rate is far below the independent-reference 1/B.
        let p4 = measure_conflict_rate(&mut SpecBenchmark::Tomcatv.workload(), 30_000, 4, 16);
        assert!(p4 < 0.5, "conflict rate {p4:.3} implausible");
    }

    #[test]
    fn area_factor_grows_with_banks() {
        assert!(BankingParams::new(2).area_factor() < BankingParams::new(8).area_factor());
        let f = BankingParams::new(4).area_factor();
        assert!((f - 1.24).abs() < 1e-12);
    }

    #[test]
    fn banked_point_beats_base_on_low_miss_workload() {
        let timing = TimingModel::paper();
        let area = AreaModel::new();
        let base = MachineConfig::single_level(32, 50.0);
        let budget = SimBudget::quick();
        let banked = evaluate_banked(
            &base,
            &mut SpecBenchmark::Espresso.workload(),
            budget,
            BankingParams::new(8),
            &timing,
            &area,
        );
        let plain =
            crate::evaluate(&base, &mut SpecBenchmark::Espresso.workload(), budget, &timing, &area);
        assert!(
            banked.tpi_ns < plain.tpi_ns,
            "banked {:.2} should beat single-issue {:.2} on a low-miss workload",
            banked.tpi_ns,
            plain.tpi_ns
        );
        assert!(banked.issue_factor > 1.5);
        assert!(banked.area_rbe > plain.area_rbe);
        assert!(banked.area_rbe < plain.area_rbe * 2.0, "banking must cost less than dual-porting");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_bank_count() {
        let _ = BankingParams::new(3);
    }
}
