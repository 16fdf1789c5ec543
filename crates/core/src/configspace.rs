//! Enumeration of the paper's configuration space.
//!
//! §2.1: "first-level cache size varied from 1KB to 256KB, and
//! second-level cache sizes ranged from 0KB (non-existent) to 256KB."
//! The figures plot every `L1:L2` pair with `L2 ≥ 2×L1` (an L2 no bigger
//! than one L1 is the victim-cache regime, §8) plus all single-level
//! sizes.

use crate::machine::{L2Policy, L2Spec, MachineConfig};
use tlc_area::CellKind;
use tlc_cache::ReplacementKind;

/// The paper's L1 sizes in KB (per side).
pub const L1_SIZES_KB: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The paper's L2 sizes in KB.
pub const L2_SIZES_KB: [u64; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// Options selecting one family of configurations (one figure's worth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceOptions {
    /// Off-chip miss service time in ns.
    pub offchip_ns: f64,
    /// L2 associativity (ways; 1 = direct-mapped).
    pub l2_ways: u32,
    /// L2 fill policy.
    pub l2_policy: L2Policy,
    /// L2 replacement policy (irrelevant when `l2_ways == 1`).
    pub l2_repl: ReplacementKind,
    /// L1 RAM cell kind.
    pub l1_cell: CellKind,
}

impl SpaceOptions {
    /// The §4 baseline: 50ns off-chip, 4-way conventional
    /// pseudo-random-replacement L2, single-ported L1s.
    pub fn baseline() -> Self {
        SpaceOptions {
            offchip_ns: 50.0,
            l2_ways: 4,
            l2_policy: L2Policy::Conventional,
            l2_repl: ReplacementKind::PseudoRandom,
            l1_cell: CellKind::SinglePorted,
        }
    }
}

/// All single-level configurations (the `x:0` points).
pub fn single_level_configs(opts: &SpaceOptions) -> Vec<MachineConfig> {
    L1_SIZES_KB
        .iter()
        .map(|&kb| MachineConfig::single_level(kb, opts.offchip_ns).with_l1_cell(opts.l1_cell))
        .collect()
}

/// All two-level configurations with `L2 ≥ 2×L1` (the `x:y` points).
pub fn two_level_configs(opts: &SpaceOptions) -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for &l1 in &L1_SIZES_KB {
        for &l2 in &L2_SIZES_KB {
            if l2 >= 2 * l1 {
                // A `ways`-way L2 needs at least `ways` lines; all paper
                // sizes satisfy this (2KB/16B = 128 lines ≥ 4).
                out.push(MachineConfig {
                    l1_size_bytes: l1 * 1024,
                    l1_cell: opts.l1_cell,
                    l2: Some(L2Spec {
                        size_bytes: l2 * 1024,
                        ways: opts.l2_ways,
                        policy: opts.l2_policy,
                        repl: opts.l2_repl,
                    }),
                    offchip_ns: opts.offchip_ns,
                    line_bytes: 16,
                });
            }
        }
    }
    out
}

/// The full space: single-level plus two-level points, as each figure
/// plots them.
pub fn full_space(opts: &SpaceOptions) -> Vec<MachineConfig> {
    let mut v = single_level_configs(opts);
    v.extend(two_level_configs(opts));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_count() {
        assert_eq!(single_level_configs(&SpaceOptions::baseline()).len(), 9);
    }

    #[test]
    fn two_level_pairs_respect_size_rule() {
        let v = two_level_configs(&SpaceOptions::baseline());
        for c in &v {
            let l2 = c.l2.unwrap();
            assert!(l2.size_bytes >= 2 * c.l1_size_bytes, "bad pair {}", c.label());
        }
        // 1K pairs with 2..256 (8), 2K with 4..256 (7), ..., 128K with 256 (1).
        assert_eq!(v.len(), 8 + 7 + 6 + 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn full_space_contains_paper_examples() {
        let labels: Vec<String> =
            full_space(&SpaceOptions::baseline()).iter().map(|c| c.label()).collect();
        // Labels that appear in Figure 5.
        for l in ["1:0", "1:2", "2:4", "32:256", "256:0", "16:128"] {
            assert!(labels.contains(&l.to_string()), "missing {l}");
        }
        // The victim-cache regime is excluded.
        assert!(!labels.contains(&"4:4".to_string()));
        assert!(!labels.contains(&"8:4".to_string()));
    }

    #[test]
    fn options_propagate() {
        let opts = SpaceOptions {
            offchip_ns: 200.0,
            l2_ways: 1,
            l2_policy: L2Policy::Exclusive,
            l2_repl: ReplacementKind::TreePlru,
            l1_cell: CellKind::DualPorted,
        };
        for c in full_space(&opts) {
            assert_eq!(c.offchip_ns, 200.0);
            assert_eq!(c.l1_cell, CellKind::DualPorted);
            if let Some(l2) = c.l2 {
                assert_eq!(l2.ways, 1);
                assert_eq!(l2.policy, L2Policy::Exclusive);
                assert_eq!(l2.repl, ReplacementKind::TreePlru);
            }
        }
    }
}
