//! Text-table and CSV rendering of experiment results.
//!
//! The harness reproduces the paper's figures as aligned text tables (one
//! row per configuration, envelope configurations marked `*`) and as CSV
//! for external plotting.

use crate::envelope::{best_envelope, EnvelopePoint};
use crate::experiment::DesignPoint;
use std::fmt::Write as _;

/// Renders a figure's points as an aligned table, marking envelope
/// members with `*`.
///
/// Columns: label, area (rbe), L1 cycle (ns), L2 cycles, global miss
/// rate, TPI (ns).
pub fn points_table(title: &str, points: &[DesignPoint]) -> String {
    let env = best_envelope(&xy(points));
    let on_env: Vec<bool> = {
        let mut v = vec![false; points.len()];
        for p in &env {
            v[p.index] = true;
        }
        v
    };
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<3} {:>9} {:>12} {:>9} {:>5} {:>9} {:>9}",
        "", "config", "area(rbe)", "cyc(ns)", "L2cy", "missrate", "TPI(ns)"
    );
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].area_rbe.partial_cmp(&points[b].area_rbe).expect("no NaN"));
    for i in order {
        let p = &points[i];
        let _ = writeln!(
            out,
            "{:<3} {:>9} {:>12.0} {:>9.2} {:>5} {:>9.4} {:>9.2}",
            if on_env[i] { "*" } else { "" },
            p.label,
            p.area_rbe,
            p.l1_cycle_ns,
            p.l2_cycles,
            p.stats.global_miss_rate(),
            p.tpi_ns,
        );
    }
    out
}

/// Renders just the envelope (the figure's solid line), smallest area
/// first.
pub fn envelope_table(title: &str, points: &[DesignPoint]) -> String {
    let env = best_envelope(&xy(points));
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{:>9} {:>12} {:>9}", "config", "area(rbe)", "TPI(ns)");
    for e in &env {
        let _ = writeln!(out, "{:>9} {:>12.0} {:>9.2}", points[e.index].label, e.area, e.tpi);
    }
    out
}

/// CSV rows (with header) for external plotting.
pub fn points_csv(points: &[DesignPoint]) -> String {
    let mut out = String::from(
        "workload,label,area_rbe,l1_cycle_ns,l2_cycles,l1_miss_rate,l2_local_miss_rate,global_miss_rate,tpi_ns,cpi\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.1},{:.4},{},{:.6},{:.6},{:.6},{:.4},{:.4}",
            p.workload,
            p.label,
            p.area_rbe,
            p.l1_cycle_ns,
            p.l2_cycles,
            p.stats.l1_miss_rate(),
            p.stats.l2_local_miss_rate(),
            p.stats.global_miss_rate(),
            p.tpi_ns,
            p.cpi,
        );
    }
    out
}

/// The `(area, tpi)` view of a point list (what envelopes consume).
pub fn xy(points: &[DesignPoint]) -> Vec<(f64, f64)> {
    points.iter().map(|p| (p.area_rbe, p.tpi_ns)).collect()
}

/// Convenience: the envelope of a point list.
pub fn envelope_of(points: &[DesignPoint]) -> Vec<EnvelopePoint> {
    best_envelope(&xy(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use tlc_cache::HierarchyStats;

    fn point(label: &str, area: f64, tpi: f64) -> DesignPoint {
        DesignPoint {
            machine: MachineConfig::single_level(1, 50.0),
            label: label.to_string(),
            workload: "test".to_string(),
            area_rbe: area,
            l1_cycle_ns: 3.0,
            l2_cycles: 0,
            tpi_ns: tpi,
            cpi: tpi / 3.0,
            stats: HierarchyStats { instructions: 100, ..Default::default() },
        }
    }

    #[test]
    fn table_marks_envelope() {
        let pts =
            vec![point("1:0", 1000.0, 10.0), point("2:0", 2000.0, 12.0), point("4:0", 3000.0, 8.0)];
        let t = points_table("fig", &pts);
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[2].starts_with('*'), "smallest point on envelope: {}", lines[2]);
        assert!(!lines[3].starts_with('*'), "dominated point marked: {}", lines[3]);
        assert!(lines[4].starts_with('*'));
    }

    #[test]
    fn envelope_table_sorted() {
        let pts =
            vec![point("4:0", 3000.0, 8.0), point("1:0", 1000.0, 10.0), point("2:0", 2000.0, 12.0)];
        let t = envelope_table("fig", &pts);
        let body: Vec<&str> = t.lines().skip(2).collect();
        assert_eq!(body.len(), 2);
        assert!(body[0].contains("1:0"));
        assert!(body[1].contains("4:0"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let pts = vec![point("1:0", 1000.0, 10.0)];
        let csv = points_csv(&pts);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("workload,label"));
        assert!(lines[1].starts_with("test,1:0,1000.0"));
    }
}
