//! Energy per instruction — quantifying the paper's fifth advantage of
//! two-level caching (§1): at equal chip area, a two-level organisation
//! serves most references from a small L1 and so switches far less
//! capacitance per access than one huge single-level cache.
//!
//! This is an *extension* exhibit: the paper states the power argument
//! qualitatively; this module makes it measurable with the
//! [`EnergyModel`] of `tlc-timing` plus the simulated reference counts.

use crate::machine::MachineConfig;
use serde::{Deserialize, Serialize};
use tlc_area::CellKind;
use tlc_cache::HierarchyStats;
use tlc_timing::{EnergyModel, TimingModel};

/// Energy-per-instruction result (arbitrary energy units per
/// instruction; only ratios between configurations are meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyResult {
    /// Energy per access of one L1 cache.
    pub l1_access_eu: f64,
    /// Energy per access of the L2 (0 for single-level systems).
    pub l2_access_eu: f64,
    /// Total energy per instruction.
    pub epi_eu: f64,
    /// Fraction of the energy spent off-chip.
    pub offchip_fraction: f64,
}

/// Computes energy per instruction for a simulated run.
///
/// Accounting: every instruction touches the L1I; every data reference
/// touches the L1D; every L1 miss probes the L2 and (refill or victim
/// write, depending on policy) writes it once more; every L2 miss and
/// off-chip writeback pays one off-chip access.
///
/// # Panics
///
/// Panics if `stats.instructions` is zero.
pub fn energy_per_instruction(
    cfg: &MachineConfig,
    stats: &HierarchyStats,
    timing: &TimingModel,
    energy: &EnergyModel,
) -> EnergyResult {
    assert!(stats.instructions > 0, "energy undefined for an empty run");
    let l1_geom = cfg.l1_geometry();
    let l1_org = timing.optimal(&l1_geom, cfg.l1_cell).org;
    let l1_eu = energy.access_energy(&l1_geom, &l1_org, cfg.l1_cell).total();

    let l2_eu = match cfg.l2_geometry() {
        Some(g) => {
            let org = timing.optimal(&g, CellKind::SinglePorted).org;
            energy.access_energy(&g, &org, CellKind::SinglePorted).total()
        }
        None => 0.0,
    };

    let n = stats.instructions as f64;
    let l1_accesses = (stats.instructions + stats.data_refs) as f64;
    // Probe + one refill/victim write per L1 miss when an L2 exists.
    let l2_accesses = if cfg.l2.is_some() { 2.0 * stats.l1_misses() as f64 } else { 0.0 };
    let offchip_accesses = (stats.l2_misses + stats.offchip_writebacks) as f64;

    let onchip = l1_accesses * l1_eu + l2_accesses * l2_eu;
    let offchip = offchip_accesses * energy.offchip_access();
    let total = onchip + offchip;
    EnergyResult {
        l1_access_eu: l1_eu,
        l2_access_eu: l2_eu,
        epi_eu: total / n,
        offchip_fraction: if total > 0.0 { offchip / total } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate, SimBudget};
    use crate::machine::L2Policy;
    use tlc_area::AreaModel;
    use tlc_trace::spec::SpecBenchmark;

    fn models() -> (TimingModel, AreaModel, EnergyModel) {
        (TimingModel::paper(), AreaModel::new(), EnergyModel::new())
    }

    #[test]
    fn two_level_beats_large_single_level_on_chip_energy() {
        // §1 advantage 5, at roughly equal area: 64KB single-level pair
        // vs 8KB pair + 128KB L2. Compare on-chip energy per instruction
        // (subtract the off-chip share, which depends on miss rates, to
        // isolate the wordline/bitline-capacitance argument).
        let (tm, am, em) = models();
        let budget = SimBudget::quick();
        let single = MachineConfig::single_level(64, 50.0);
        let two = MachineConfig::two_level(8, 128, 4, L2Policy::Conventional, 50.0);
        let ps = evaluate(&single, &mut SpecBenchmark::Espresso.workload(), budget, &tm, &am);
        let pt = evaluate(&two, &mut SpecBenchmark::Espresso.workload(), budget, &tm, &am);
        let es = energy_per_instruction(&single, &ps.stats, &tm, &em);
        let et = energy_per_instruction(&two, &pt.stats, &tm, &em);
        let onchip_s = es.epi_eu * (1.0 - es.offchip_fraction);
        let onchip_t = et.epi_eu * (1.0 - et.offchip_fraction);
        assert!(
            onchip_t < onchip_s,
            "two-level on-chip EPI {onchip_t:.1} should beat single-level {onchip_s:.1}"
        );
    }

    #[test]
    fn l1_energy_below_l2_energy() {
        let (tm, _, em) = models();
        let cfg = MachineConfig::two_level(4, 128, 4, L2Policy::Conventional, 50.0);
        let stats = HierarchyStats { instructions: 100, ..Default::default() };
        let e = energy_per_instruction(&cfg, &stats, &tm, &em);
        assert!(e.l1_access_eu < e.l2_access_eu, "a 4KB L1 must be cheaper than a 128KB L2");
    }

    #[test]
    fn offchip_fraction_grows_with_misses() {
        let (tm, _, em) = models();
        let cfg = MachineConfig::single_level(8, 50.0);
        let low = HierarchyStats {
            instructions: 1000,
            data_refs: 300,
            l1i_misses: 5,
            l1d_misses: 5,
            l2_misses: 10,
            ..Default::default()
        };
        let high = HierarchyStats { l2_misses: 200, l1i_misses: 100, l1d_misses: 100, ..low };
        let el = energy_per_instruction(&cfg, &low, &tm, &em);
        let eh = energy_per_instruction(&cfg, &high, &tm, &em);
        assert!(eh.offchip_fraction > el.offchip_fraction);
        assert!(eh.epi_eu > el.epi_eu);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn rejects_empty_run() {
        let (tm, _, em) = models();
        let cfg = MachineConfig::single_level(8, 50.0);
        let _ = energy_per_instruction(&cfg, &HierarchyStats::default(), &tm, &em);
    }
}
