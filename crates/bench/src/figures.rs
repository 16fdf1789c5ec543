//! Regeneration of every table and figure in the paper.
//!
//! Each `figN` function reproduces the data behind the corresponding
//! exhibit of WRL 93/3 and renders it as a text report; [`run`] dispatches
//! by exhibit id (`"table1"`, `"fig1"` … `"fig26"`). See `DESIGN.md` for
//! the per-experiment index and `EXPERIMENTS.md` for a recorded run.

use crate::harness::Harness;
use std::fmt::Write as _;
use tlc_area::{CacheGeometry, CellKind};
use tlc_cache::{Associativity, CacheConfig, DuplicationReport, ExclusiveTwoLevel, MemorySystem};
use tlc_core::configspace::{full_space, single_level_configs, SpaceOptions};
use tlc_core::envelope::{envelope_at, mean_improvement};
use tlc_core::experiment::simulate_source_on;
use tlc_core::report::{envelope_of, envelope_table, points_table};
use tlc_core::runner::{
    arena_bytes_for, try_run_indexed, try_sweep_family_arena_threads, try_sweep_threads, SweepUnit,
    ARENA_BYTES_LIMIT,
};
use tlc_core::{DesignPoint, L2Policy, MachineConfig};
use tlc_obs::{obs_event, obs_span};
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{Addr, MemRef};

/// Every exhibit id: the paper's exhibits in paper order, then the
/// extension studies (`power` for §1's fifth advantage, `future` for the
/// §10 future-work conjectures, `policies` for the
/// inclusive/conventional/exclusive ablation).
pub const ALL_IDS: [&str; 41] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "power",
    "future",
    "policies",
    "missrates",
    "replacement",
    "victim",
    "sensitivity",
    "board",
    "multiprog",
    "banking",
    "prefetch",
    "l1assoc",
    "writes",
    "timingmodels",
];

/// The function that regenerates exhibit `id`, or `None` for an id that
/// is not in [`ALL_IDS`].
pub fn exhibit(id: &str) -> Option<fn(&Harness) -> String> {
    Some(match id {
        "table1" => table1,
        "fig1" => fig1,
        "fig2" => fig2,
        "fig3" => fig3,
        "fig4" => fig4,
        "fig5" => fig5,
        "fig6" => fig6,
        "fig7" => fig7,
        "fig8" => fig8,
        "fig9" => fig9,
        "fig10" => |h| fig_dual(h, SpecBenchmark::Gcc1, 10),
        "fig11" => |h| fig_dual(h, SpecBenchmark::Espresso, 11),
        "fig12" => |h| fig_dual(h, SpecBenchmark::Doduc, 12),
        "fig13" => |h| fig_dual(h, SpecBenchmark::Fpppp, 13),
        "fig14" => |h| fig_dual(h, SpecBenchmark::Li, 14),
        "fig15" => |h| fig_dual(h, SpecBenchmark::Eqntott, 15),
        "fig16" => |h| fig_dual(h, SpecBenchmark::Tomcatv, 16),
        "fig17" => fig17,
        "fig18" => |h| fig_200(h, &[SpecBenchmark::Doduc, SpecBenchmark::Espresso], 18),
        "fig19" => |h| fig_200(h, &[SpecBenchmark::Fpppp, SpecBenchmark::Li], 19),
        "fig20" => |h| fig_200(h, &[SpecBenchmark::Tomcatv, SpecBenchmark::Eqntott], 20),
        "fig21" => |_| fig21(),
        "fig22" => fig22,
        "fig23" => fig23,
        "fig24" => |h| fig_exclusive_pair(h, &[SpecBenchmark::Doduc, SpecBenchmark::Espresso], 24),
        "fig25" => |h| fig_exclusive_pair(h, &[SpecBenchmark::Fpppp, SpecBenchmark::Li], 25),
        "fig26" => |h| fig_exclusive_pair(h, &[SpecBenchmark::Eqntott, SpecBenchmark::Tomcatv], 26),
        "power" => power_study,
        "future" => future_study,
        "policies" => policy_ablation,
        "missrates" => miss_ratio_curves,
        "replacement" => replacement_ablation,
        "victim" => victim_cache_study,
        "sensitivity" => sensitivity_study,
        "board" => board_cache_study,
        "multiprog" => multiprogramming_study,
        "banking" => banking_study,
        "prefetch" => prefetch_study,
        "l1assoc" => l1_associativity_study,
        "writes" => write_traffic_study,
        "timingmodels" => timing_models_study,
        _ => return None,
    })
}

/// Runs one exhibit by id. Returns `None` for an unknown id.
pub fn run(id: &str, h: &Harness) -> Option<String> {
    exhibit(id).map(|f| f(h))
}

/// One design-space sweep on `benchmark`: the family engine over an
/// arena built from the harness's cached stream, or — past
/// [`ARENA_BYTES_LIMIT`] — the runner's regenerating path.
fn sweep_points(
    h: &Harness,
    configs: &[MachineConfig],
    benchmark: SpecBenchmark,
) -> Vec<DesignPoint> {
    let points = if arena_bytes_for(h.budget) > ARENA_BYTES_LIMIT {
        try_sweep_threads(configs, benchmark, h.budget, &h.timing, &h.area, h.threads)
    } else {
        obs_event!(
            "engine.selected",
            "family engine over one arena from the harness trace cache, {} configs",
            configs.len()
        );
        let arena = {
            let _span = obs_span!("arena_capture");
            h.arena(benchmark)
        };
        try_sweep_family_arena_threads(configs, &arena, h.budget, &h.timing, &h.area, h.threads)
    };
    points.expect("exhibit sweep")
}

/// Runs a study's independent units (one workload on one system, say)
/// on the harness's workers and returns their results in unit order, so
/// a report assembled from them is the same at any thread count.
fn pooled<U: Sync, T: Send>(h: &Harness, units: &[U], unit: impl Fn(&U) -> T + Sync) -> Vec<T> {
    try_run_indexed(
        units.len(),
        h.threads,
        |i| unit(&units[i]),
        |i| SweepUnit::Task(format!("study unit {i}")),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Every `(row, column)` pair, row-major: the units of a study whose
/// report has one line per row and one cell per column.
fn grid<R: Copy, C: Copy>(rows: &[R], cols: &[C]) -> Vec<(R, C)> {
    rows.iter().flat_map(|&r| cols.iter().map(move |&c| (r, c))).collect()
}

/// Appends the two-envelope comparison (best overall vs single-level
/// only) the paper draws as solid and dotted lines.
fn compare_envelopes(out: &mut String, all: &[DesignPoint], singles: &[DesignPoint]) {
    let env_all = envelope_of(all);
    let env_single = envelope_of(singles);
    let gain = mean_improvement(&env_all, &env_single);
    let _ = writeln!(
        out,
        "mean TPI improvement of best config over single-level-only envelope: {:.1}%",
        gain * 100.0
    );
    // The improvement concentrates at large areas; report the endpoint
    // too (the paper's "marginally preferable for larger available
    // areas", §4).
    if let (Some(last_all), Some(last_single)) = (env_all.last(), env_single.last()) {
        let best_single = last_single.tpi;
        let best_all = envelope_at(&env_all, last_all.area).unwrap_or(best_single);
        let _ = writeln!(
            out,
            "TPI at maximum area: best {:.2}ns vs single-level-only {:.2}ns ({:+.1}%)",
            best_all,
            best_single,
            (best_all / best_single - 1.0) * 100.0
        );
    }
    // Where does a two-level configuration first enter the envelope?
    let first_two_level = envelope_of(all)
        .iter()
        .map(|e| &all[e.index])
        .find(|p| p.machine.l2.is_some())
        .map(|p| (p.label.clone(), p.area_rbe));
    match first_two_level {
        Some((label, area)) => {
            let _ = writeln!(
                out,
                "first two-level configuration on the envelope: {label} at {area:.0} rbe"
            );
        }
        None => {
            let _ = writeln!(out, "no two-level configuration reaches the envelope");
        }
    }
}

/// Table 1: test program references.
pub fn table1(h: &Harness) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: Test program references");
    let _ = writeln!(
        out,
        "(paper counts from the WRL traces; synthetic counts for this run's budget of {} measured instructions)",
        h.budget.instructions
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>12} {:>12} | {:>11} {:>11} {:>11}",
        "program", "paper instr", "paper data", "paper total", "syn instr", "syn data", "syn total"
    );
    for b in SpecBenchmark::ALL {
        let p = b.paper_refs();
        // Sample the synthetic stream's achieved mix.
        let mut w = b.workload();
        let sample = 50_000u64;
        let mut data = 0u64;
        for _ in 0..sample {
            if w.next_instruction().data.is_some() {
                data += 1;
            }
        }
        let dpi = data as f64 / sample as f64;
        let n = h.budget.instructions as f64;
        let _ = writeln!(
            out,
            "{:>9} {:>11.1}M {:>11.1}M {:>11.1}M | {:>11} {:>11.0} {:>11.0}",
            b.name(),
            p.instr_m,
            p.data_m,
            p.total_m(),
            h.budget.instructions,
            n * dpi,
            n * (1.0 + dpi),
        );
    }
    out
}

/// Figure 1: first-level cache access and cycle times (and area) for
/// direct-mapped split pairs from 1KB to 256KB.
pub fn fig1(h: &Harness) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1: First-level cache access and cycle times (split I+D pair)");
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>11} {:>10} {:>30}",
        "L1", "pair (rbe)", "access(ns)", "cycle(ns)", "organisation"
    );
    let mut first = None;
    let mut last = None;
    for kb in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
        let g = CacheGeometry::paper(kb * 1024, 1);
        let t = h.timing.optimal(&g, CellKind::SinglePorted);
        let a = h.area.total_area(&g, &t.org, CellKind::SinglePorted);
        let _ = writeln!(
            out,
            "{:>5}K {:>12.0} {:>11.2} {:>10.2} {:>30}",
            kb,
            2.0 * a.value(),
            t.access_ns,
            t.cycle_ns,
            t.org.to_string()
        );
        first.get_or_insert(t.cycle_ns);
        last = Some(t.cycle_ns);
    }
    let (f, l) = (first.expect("nonempty"), last.expect("nonempty"));
    let _ = writeln!(out, "cycle-time spread 1KB -> 256KB: {:.2}x (paper: about 1.8x)", l / f);
    out
}

/// Figure 2: L2 access and cycle times (ns and L1 cycles) with 4KB L1
/// caches.
pub fn fig2(h: &Harness) -> String {
    let l1 = h.timing.optimal(&CacheGeometry::paper(4 * 1024, 1), CellKind::SinglePorted);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 2: L2 access and cycle times with 4KB L1 caches");
    let _ = writeln!(out, "(4KB L1 cycle = {:.2}ns; L2 4-way set-associative)", l1.cycle_ns);
    let _ = writeln!(
        out,
        "{:>6} {:>11} {:>10} {:>14} {:>14}",
        "L2", "access(ns)", "cycle(ns)", "access(L1cyc)", "cycle(L1cyc)"
    );
    for kb in [8u64, 16, 32, 64, 128, 256] {
        let t = h.timing.optimal(&CacheGeometry::paper(kb * 1024, 4), CellKind::SinglePorted);
        let _ = writeln!(
            out,
            "{:>5}K {:>11.2} {:>10.2} {:>14} {:>14}",
            kb,
            t.access_ns,
            t.cycle_ns,
            (t.access_ns / l1.cycle_ns).ceil() as u32,
            (t.cycle_ns / l1.cycle_ns).ceil() as u32,
        );
    }
    let _ = writeln!(
        out,
        "(the paper's worked example: an L2 hit costs 2 x L2cyc + 1 = 5 CPU cycles here)"
    );
    out
}

fn fig_singles(h: &Harness, workloads: &[SpecBenchmark], title: &str) -> String {
    let opts = SpaceOptions::baseline();
    let singles = single_level_configs(&opts);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for &b in workloads {
        let pts = sweep_points(h, &singles, b);
        let _ = write!(out, "{}", points_table(&format!("-- {} --", b.name()), &pts));
        // Locate the TPI minimum.
        let best = pts
            .iter()
            .min_by(|a, b| a.tpi_ns.partial_cmp(&b.tpi_ns).expect("no NaN"))
            .expect("nonempty");
        let _ = writeln!(
            out,
            "minimum TPI {:.2}ns at {} (paper: minima fall between 8KB and 128KB)\n",
            best.tpi_ns, best.label
        );
    }
    out
}

/// Figure 3: single-level TPI vs area, gcc1/espresso/doduc/fpppp, 50ns.
pub fn fig3(h: &Harness) -> String {
    fig_singles(
        h,
        &[SpecBenchmark::Gcc1, SpecBenchmark::Espresso, SpecBenchmark::Doduc, SpecBenchmark::Fpppp],
        "Figure 3: gcc1, espresso, doduc, fpppp: 50ns off-chip service time, L1 only",
    )
}

/// Figure 4: single-level TPI vs area, li/eqntott/tomcatv, 50ns.
pub fn fig4(h: &Harness) -> String {
    fig_singles(
        h,
        &[SpecBenchmark::Li, SpecBenchmark::Eqntott, SpecBenchmark::Tomcatv],
        "Figure 4: li, eqntott, tomcatv: 50ns off-chip service time, L1 only",
    )
}

/// The single-level points of a swept space, in sweep order.
fn singles_of(pts: &[DesignPoint]) -> Vec<DesignPoint> {
    pts.iter().filter(|p| p.machine.l2.is_none()).cloned().collect()
}

/// The scatter of `opts`' whole space on one workload with its two
/// envelopes; also returns the swept points so a caller can reuse them.
fn fig_full_scatter(
    h: &Harness,
    benchmark: SpecBenchmark,
    opts: SpaceOptions,
    title: &str,
) -> (String, Vec<DesignPoint>) {
    let pts = sweep_points(h, &full_space(&opts), benchmark);
    let singles = singles_of(&pts);
    let mut out = points_table(title, &pts);
    let _ = writeln!(out);
    out.push_str(&envelope_table("best 2-level-allowed envelope:", &pts));
    out.push_str(&envelope_table("1-level-only envelope:", &singles));
    compare_envelopes(&mut out, &pts, &singles);
    (out, pts)
}

/// The envelopes of `opts`' whole space on each workload; also returns
/// each workload's swept points, in `workloads` order.
fn fig_envelopes_multi(
    h: &Harness,
    workloads: &[SpecBenchmark],
    opts: SpaceOptions,
    title: &str,
) -> (String, Vec<Vec<DesignPoint>>) {
    let all_cfgs = full_space(&opts);
    let mut out = String::new();
    let mut swept = Vec::with_capacity(workloads.len());
    let _ = writeln!(out, "{title}");
    for &b in workloads {
        let pts = sweep_points(h, &all_cfgs, b);
        let singles = singles_of(&pts);
        out.push_str(&envelope_table(&format!("-- {}: best envelope --", b.name()), &pts));
        out.push_str(&envelope_table(
            &format!("-- {}: 1-level-only envelope --", b.name()),
            &singles,
        ));
        compare_envelopes(&mut out, &pts, &singles);
        let _ = writeln!(out);
        swept.push(pts);
    }
    (out, swept)
}

/// Figure 5: gcc1, 50ns off-chip, 4-way set-associative L2 — the full
/// scatter of configurations with the best-performance envelope.
pub fn fig5(h: &Harness) -> String {
    fig_full_scatter(
        h,
        SpecBenchmark::Gcc1,
        SpaceOptions::baseline(),
        "Figure 5: gcc1: 50ns off-chip, L2 4-way set-associative",
    )
    .0
}

/// Figure 6: doduc and espresso, 50ns, 4-way L2 (envelopes).
pub fn fig6(h: &Harness) -> String {
    fig_envelopes_multi(
        h,
        &[SpecBenchmark::Doduc, SpecBenchmark::Espresso],
        SpaceOptions::baseline(),
        "Figure 6: doduc and espresso: 50ns off-chip, L2 4-way set-associative",
    )
    .0
}

/// Figure 7: fpppp and li, 50ns, 4-way L2 (envelopes).
pub fn fig7(h: &Harness) -> String {
    fig_envelopes_multi(
        h,
        &[SpecBenchmark::Fpppp, SpecBenchmark::Li],
        SpaceOptions::baseline(),
        "Figure 7: fpppp and li: 50ns off-chip, L2 4-way set-associative",
    )
    .0
}

/// Figure 8: tomcatv and eqntott, 50ns, 4-way L2 (envelopes).
pub fn fig8(h: &Harness) -> String {
    fig_envelopes_multi(
        h,
        &[SpecBenchmark::Tomcatv, SpecBenchmark::Eqntott],
        SpaceOptions::baseline(),
        "Figure 8: tomcatv and eqntott: 50ns off-chip, L2 4-way set-associative",
    )
    .0
}

/// Figure 9: gcc1, 50ns, direct-mapped L2.
pub fn fig9(h: &Harness) -> String {
    let opts = SpaceOptions { l2_ways: 1, ..SpaceOptions::baseline() };
    fig_full_scatter(
        h,
        SpecBenchmark::Gcc1,
        opts,
        "Figure 9: gcc1: 50ns off-chip, L2 direct-mapped",
    )
    .0
}

/// Figures 10–16: dual-ported first-level caches (2× area, 2× issue
/// rate), one workload per figure.
pub fn fig_dual(h: &Harness, benchmark: SpecBenchmark, number: u32) -> String {
    let base_opts = SpaceOptions::baseline();
    let dual_opts = SpaceOptions { l1_cell: CellKind::DualPorted, ..base_opts };

    let singles_base = sweep_points(h, &single_level_configs(&base_opts), benchmark);
    let two_level_dual = sweep_points(h, &full_space(&dual_opts), benchmark);
    let singles_dual = singles_of(&two_level_dual);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure {number}: {}: 50ns, 4-way, 2X L1 area, 2X instruction issue rate",
        benchmark.name()
    );
    out.push_str(&envelope_table("1-level, base (single-ported) cell:", &singles_base));
    out.push_str(&envelope_table("1-level, dual-ported cell:", &singles_dual));
    out.push_str(&envelope_table(
        "best 2-level (dual-ported L1, single-ported L2):",
        &two_level_dual,
    ));

    // Cross-over: smallest area where the dual-ported single-level
    // envelope beats the base-cell one (paper: 50K–400K rbe).
    let env_base = envelope_of(&singles_base);
    let env_dual = envelope_of(&singles_dual);
    let crossover = env_dual
        .iter()
        .find(|p| envelope_at(&env_base, p.area).is_some_and(|base_tpi| p.tpi < base_tpi));
    match crossover {
        Some(p) => {
            let _ = writeln!(
                out,
                "dual-ported cell overtakes the base cell at {:.0} rbe (paper: 50K-400K rbe)",
                p.area
            );
        }
        None => {
            let _ = writeln!(out, "dual-ported cell never overtakes the base cell in range");
        }
    }
    // How many single-level points survive on the combined envelope?
    let mut combined = two_level_dual.clone();
    combined.extend(singles_base.iter().cloned());
    let survivors =
        envelope_of(&combined).iter().filter(|e| combined[e.index].machine.l2.is_none()).count();
    let _ = writeln!(
        out,
        "single-level configurations on the combined envelope: {survivors} (paper: few when dual-ported cells are available)"
    );
    out
}

/// Figure 17: gcc1, 200ns off-chip, 4-way L2.
pub fn fig17(h: &Harness) -> String {
    let opts = SpaceOptions { offchip_ns: 200.0, ..SpaceOptions::baseline() };
    fig_full_scatter(
        h,
        SpecBenchmark::Gcc1,
        opts,
        "Figure 17: gcc1: 200ns off-chip, L2 4-way set-associative",
    )
    .0
}

/// Figures 18–20: remaining workloads at 200ns off-chip.
pub fn fig_200(h: &Harness, workloads: &[SpecBenchmark], number: u32) -> String {
    let opts = SpaceOptions { offchip_ns: 200.0, ..SpaceOptions::baseline() };
    let names: Vec<&str> = workloads.iter().map(|b| b.name()).collect();
    fig_envelopes_multi(
        h,
        workloads,
        opts,
        &format!("Figure {number}: {}: 200ns off-chip, L2 4-way", names.join(" and ")),
    )
    .0
}

/// Figure 21: exclusion vs inclusion during swapping — the deterministic
/// behavioural scenario on a 4-line L1 / 16-line L2 direct-mapped pair.
pub fn fig21() -> String {
    let l1 = CacheConfig::paper(64, Associativity::Direct).expect("valid");
    let l2 = CacheConfig::paper(256, Associativity::Direct).expect("valid");
    let mut out = String::new();
    let _ =
        writeln!(out, "Figure 21: Exclusion vs. inclusion during swapping, direct-mapped caches");
    let _ = writeln!(out, "(4-line L1 data cache, 16-line L2, 16-byte lines)\n");

    let show = |out: &mut String, sys: &ExclusiveTwoLevel, step: &str| {
        let named = |line: tlc_trace::LineAddr| match line.0 {
            0x00 => "A".to_string(),
            0x10 => "E".to_string(),
            0x04 => "B".to_string(),
            0x08 => "C".to_string(),
            0x0C => "D".to_string(),
            other => format!("L{other:x}"),
        };
        let l1: Vec<String> = sys.l1d().iter_lines().map(named).collect();
        let l2: Vec<String> = sys.l2().iter_lines().map(named).collect();
        let _ = writeln!(out, "{step:<24} L1 = {{{}}}  L2 = {{{}}}", l1.join(","), l2.join(","));
    };

    // (a) Second-level conflict => exclusion. A = line 0, E = line 16
    // (0x100): same L1 line, same L2 line.
    let _ = writeln!(out, "(a) second-level cache conflict => exclusion");
    let mut sys = ExclusiveTwoLevel::new(l1, l2);
    let a = Addr::new(0x000);
    let e = Addr::new(0x100);
    sys.access(MemRef::load(a));
    show(&mut out, &sys, "ref A (off-chip)");
    sys.access(MemRef::load(e));
    show(&mut out, &sys, "ref E (off-chip, swap A)");
    for (label, addr) in [("ref A (on-chip swap)", a), ("ref E (on-chip swap)", e)] {
        sys.access(MemRef::load(addr));
        show(&mut out, &sys, label);
    }
    let _ = writeln!(
        out,
        "A and E conflict in both levels yet both stay on-chip — each lives in exactly one level.\n"
    );

    // (b) First-level-only conflict => inclusion. A = line 0, B = line 4
    // (0x040): same L1 line, different L2 lines.
    let _ = writeln!(out, "(b) first-level cache conflict => inclusion");
    let mut sys = ExclusiveTwoLevel::new(l1, l2);
    let b = Addr::new(0x040);
    sys.access(MemRef::load(a));
    show(&mut out, &sys, "ref A (off-chip)");
    sys.access(MemRef::load(b));
    show(&mut out, &sys, "ref B (off-chip, A->L2)");
    sys.access(MemRef::load(a));
    show(&mut out, &sys, "ref A (L2 hit)");
    sys.access(MemRef::load(b));
    show(&mut out, &sys, "ref B (L2 hit)");
    let report = DuplicationReport::measure(sys.l1i(), sys.l1d(), sys.l2());
    let _ = writeln!(
        out,
        "A maps to its own L2 line, so its copy stays there: inclusion persists ({} duplicated line(s)).",
        report.duplicated
    );
    out
}

fn fig_exclusive_scatter(
    h: &Harness,
    benchmark: SpecBenchmark,
    l2_ways: u32,
    title: &str,
) -> String {
    let opts = SpaceOptions { l2_policy: L2Policy::Exclusive, l2_ways, ..SpaceOptions::baseline() };
    let conv_opts = SpaceOptions { l2_policy: L2Policy::Conventional, ..opts };
    let (mut out, excl) = fig_full_scatter(h, benchmark, opts, title);
    // Compare against the conventional policy at identical geometry.
    let conv = sweep_points(h, &full_space(&conv_opts), benchmark);
    let gain = mean_improvement(&envelope_of(&excl), &envelope_of(&conv));
    let _ = writeln!(
        out,
        "mean envelope TPI improvement of exclusive over conventional: {:.1}%",
        gain * 100.0
    );
    out
}

/// Figure 22: gcc1, 50ns, exclusive direct-mapped L2.
pub fn fig22(h: &Harness) -> String {
    fig_exclusive_scatter(
        h,
        SpecBenchmark::Gcc1,
        1,
        "Figure 22: gcc1: 50ns off-chip, exclusive direct-mapped L2",
    )
}

/// Figure 23: gcc1, 50ns, exclusive 4-way L2.
pub fn fig23(h: &Harness) -> String {
    fig_exclusive_scatter(
        h,
        SpecBenchmark::Gcc1,
        4,
        "Figure 23: gcc1: 50ns off-chip, exclusive 4-way L2",
    )
}

/// Figures 24–26: the remaining workloads with an exclusive 4-way L2.
pub fn fig_exclusive_pair(h: &Harness, workloads: &[SpecBenchmark], number: u32) -> String {
    let opts = SpaceOptions { l2_policy: L2Policy::Exclusive, ..SpaceOptions::baseline() };
    let names: Vec<&str> = workloads.iter().map(|b| b.name()).collect();
    let (mut out, swept) = fig_envelopes_multi(
        h,
        workloads,
        opts,
        &format!("Figure {number}: {}: 50ns off-chip, exclusive 4-way L2", names.join(" and ")),
    );
    // Exclusive-vs-conventional deltas per workload.
    let conv_opts = SpaceOptions { l2_policy: L2Policy::Conventional, ..opts };
    for (&b, excl) in workloads.iter().zip(&swept) {
        let conv = sweep_points(h, &full_space(&conv_opts), b);
        let gain = mean_improvement(&envelope_of(excl), &envelope_of(&conv));
        let _ = writeln!(
            out,
            "{}: mean envelope TPI improvement of exclusive over conventional: {:.1}%",
            b.name(),
            gain * 100.0
        );
    }
    out
}

/// Extension exhibit `power`: energy per instruction, single-level vs
/// two-level at comparable area — the paper's §1 fifth advantage made
/// quantitative.
pub fn power_study(h: &Harness) -> String {
    use tlc_core::energy::energy_per_instruction;
    use tlc_timing::EnergyModel;

    let em = EnergyModel::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: energy per instruction (paper §1, advantage 5)\n\
         (arbitrary energy units; only ratios are meaningful)\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>8} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "workload", "config", "area(rbe)", "L1 eu", "L2 eu", "EPI eu", "offchip"
    );
    let workloads = [SpecBenchmark::Espresso, SpecBenchmark::Gcc1, SpecBenchmark::Li];
    // Comparable-area trio: 64KB single-level pair vs 8KB pair + 128KB L2.
    let configs = [
        MachineConfig::single_level(64, 50.0),
        MachineConfig::two_level(8, 128, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(8, 128, 4, L2Policy::Exclusive, 50.0),
    ];
    let rows = pooled(h, &grid(&workloads, &configs), |&(b, cfg)| {
        let p = tlc_core::evaluate(&cfg, &mut h.replay(b), h.budget, &h.timing, &h.area);
        let e = energy_per_instruction(&cfg, &p.stats, &h.timing, &em);
        format!(
            "{:>9} {:>8} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>7.1}%\n",
            b.name(),
            p.label,
            p.area_rbe,
            e.l1_access_eu,
            e.l2_access_eu,
            e.epi_eu,
            e.offchip_fraction * 100.0,
        )
    });
    for workload_rows in rows.chunks(configs.len()) {
        out.push_str(&workload_rows.concat());
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "expectation: the two-level rows spend far less on-chip energy per instruction\n\
         (most accesses hit a small L1) and the exclusive row goes off-chip least."
    );
    out
}

/// Extension exhibit `future`: the §10 future-work conjectures under the
/// extended execution-time model.
pub fn future_study(h: &Harness) -> String {
    use tlc_core::future::{tpi_extended, FutureWorkModel};
    use tlc_core::machine::MachineTiming;
    use tlc_core::overlap::estimate_overlap;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: §10 future work — multicycle pipelined L1s and non-blocking loads\n"
    );
    let b = SpecBenchmark::Gcc1;
    // The fixed datapath cycle: what the fastest (1KB) L1 would allow.
    let datapath =
        h.timing.optimal(&tlc_area::CacheGeometry::paper(1024, 1), CellKind::SinglePorted).cycle_ns;
    let models: [(&str, FutureWorkModel); 4] = [
        ("baseline (§2.5)", FutureWorkModel::baseline()),
        ("multicycle L1", FutureWorkModel::multicycle(datapath, 0.3)),
        ("non-blocking", FutureWorkModel::baseline().with_miss_overlap(0.5)),
        ("multicycle+nb", FutureWorkModel::multicycle(datapath, 0.3).with_miss_overlap(0.5)),
    ];

    // Representative single-level and two-level machines across sizes.
    let configs: Vec<MachineConfig> = vec![
        MachineConfig::single_level(8, 50.0),
        MachineConfig::single_level(64, 50.0),
        MachineConfig::single_level(256, 50.0),
        MachineConfig::two_level(8, 128, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(8, 256, 4, L2Policy::Conventional, 50.0),
    ];
    let _ = write!(out, "{:>28}", "TPI(ns) per model:");
    for c in &configs {
        let _ = write!(out, " {:>9}", c.label());
    }
    let _ = writeln!(out);
    let points = pooled(h, &configs, |c| {
        let p = tlc_core::evaluate(c, &mut h.replay(b), h.budget, &h.timing, &h.area);
        let t = MachineTiming::derive(c, &h.timing, &h.area);
        (p, t)
    });
    for (name, m) in &models {
        let _ = write!(out, "{name:>28}");
        for (p, t) in &points {
            let _ = write!(out, " {:>9.2}", tpi_extended(&p.stats, t, m));
        }
        let _ = writeln!(out);
    }

    // The two conjectures, made explicit.
    let tpi_of = |cfg_idx: usize, m: &FutureWorkModel| {
        let (p, t) = &points[cfg_idx];
        tpi_extended(&p.stats, t, m)
    };
    // Conjecture 1: multicycle shrinks the big-single-level penalty,
    // reducing the two-level advantage. Compare 8:128 vs 256:0 under
    // baseline and multicycle.
    let adv_base = tpi_of(2, &models[0].1) / tpi_of(3, &models[0].1);
    let adv_multi = tpi_of(2, &models[1].1) / tpi_of(3, &models[1].1);
    let _ = writeln!(
        out,
        "\nconjecture 1 (multicycle reduces the two-level edge): 256:0 / 8:128 TPI ratio\n\
         baseline {adv_base:.3} -> multicycle {adv_multi:.3} ({})",
        if adv_multi < adv_base { "confirmed" } else { "NOT confirmed" }
    );
    // Conjecture 2: non-blocking keeps the two-level system ahead while
    // compressing everyone's stalls.
    let nb = &models[2].1;
    let _ = writeln!(
        out,
        "conjecture 2 (non-blocking, two-level stays ahead): 8:128 {:.2}ns vs 8:0 {:.2}ns ({})",
        tpi_of(3, nb),
        tpi_of(0, nb),
        if tpi_of(3, nb) < tpi_of(0, nb) { "confirmed" } else { "NOT confirmed" }
    );

    // Measured (not assumed) overlap: MSHR-limited clustering of the
    // actual miss stream upper-bounds what non-blocking loads can hide.
    let _ = writeln!(
        out,
        "\nmeasured miss overlap for 8:128 on {} (MSHR-limited upper bound):",
        b.name()
    );
    let _ = writeln!(
        out,
        "{:>7} {:>10} {:>14} {:>14} {:>16}",
        "MSHRs", "misses", "mean gap", "clustered", "hidden latency"
    );
    let mshr_counts = [1usize, 2, 4, 8];
    let reports = pooled(h, &mshr_counts, |&mshrs| {
        estimate_overlap(&configs[3], &mut h.replay(b), h.budget, mshrs, &h.timing, &h.area)
    });
    for (mshrs, r) in mshr_counts.into_iter().zip(reports) {
        let _ = writeln!(
            out,
            "{:>7} {:>10} {:>13.1}i {:>13.1}% {:>15.1}%",
            mshrs,
            r.misses,
            r.mean_miss_gap_instr,
            r.clustered_fraction * 100.0,
            r.overlap_fraction * 100.0,
        );
        if mshrs == 4 {
            let m = FutureWorkModel::baseline().with_miss_overlap(r.overlap_fraction);
            let _ = writeln!(
                out,
                "        -> TPI with measured overlap ({:.0}%): {:.2}ns (blocking {:.2}ns)",
                r.overlap_fraction * 100.0,
                tpi_of(3, &m),
                tpi_of(3, &models[0].1),
            );
        }
    }
    out
}

/// Extension exhibit `policies`: inclusive vs conventional vs exclusive
/// at identical geometry — the full policy spectrum around the paper's
/// §8 contribution.
pub fn policy_ablation(h: &Harness) -> String {
    use tlc_cache::{ConventionalTwoLevel, InclusiveTwoLevel};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: L2 fill-policy ablation (inclusive / conventional / exclusive)\n\
         4KB L1s, 4-way L2, gcc1; off-chip misses and on-chip duplication per policy\n"
    );
    let _ =
        writeln!(out, "{:>6} {:>24} {:>24} {:>24}", "L2", "inclusive", "conventional", "exclusive");
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    let l2_sizes_kb = [8u64, 16, 32, 64, 128];
    type Build = fn(CacheConfig, CacheConfig) -> Box<dyn MemorySystem>;
    let policies: [Build; 3] = [
        |l1, l2| Box::new(InclusiveTwoLevel::new(l1, l2)),
        |l1, l2| Box::new(ConventionalTwoLevel::new(l1, l2)),
        |l1, l2| Box::new(ExclusiveTwoLevel::new(l1, l2)),
    ];
    let misses = pooled(h, &grid(&l2_sizes_kb, &policies), |&(l2_kb, build)| {
        let l2 = CacheConfig::paper(l2_kb * 1024, Associativity::SetAssoc(4)).expect("valid");
        let mut sys = build(l1, l2);
        simulate_source_on(&mut *sys, &mut h.replay(SpecBenchmark::Gcc1), h.budget).l2_misses
    });
    for (l2_kb, cells) in l2_sizes_kb.iter().zip(misses.chunks(policies.len())) {
        let cells: Vec<String> = cells.iter().map(|m| format!("{m} misses")).collect();
        let _ = writeln!(out, "{:>5}K {:>24} {:>24} {:>24}", l2_kb, cells[0], cells[1], cells[2]);
    }
    let _ = writeln!(
        out,
        "\nexpectation: misses fall monotonically left to right — enforced inclusion\n\
         wastes capacity on duplicates, exclusion reclaims it (paper §8)."
    );
    out
}

/// Extension exhibit `missrates`: single-pass (Mattson) fully-associative
/// LRU miss-ratio curves per workload — the calibration backbone behind
/// the figures, and the anchors quoted in the paper's §3.
pub fn miss_ratio_curves(h: &Harness) -> String {
    use tlc_cache::StackDistanceProfiler;

    let sizes_kb = [1u64, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: fully-associative LRU miss-ratio curves (one Mattson pass per workload)\n\
         (split profiling: instruction and data streams each against their own capacity)\n"
    );
    let _ = write!(out, "{:>9}", "workload");
    for kb in sizes_kb {
        let _ = write!(out, " {:>7}K", kb);
    }
    let _ = writeln!(out);
    let rows = pooled(h, &SpecBenchmark::ALL, |&b| {
        let mut w = h.replay(b);
        let mut pi = StackDistanceProfiler::new();
        let mut pd = StackDistanceProfiler::new();
        let n = h.budget.instructions.min(800_000);
        for _ in 0..n {
            let rec = w.next_instruction();
            pi.record(rec.fetch.line(16));
            if let Some(d) = rec.data {
                pd.record(d.addr.line(16));
            }
        }
        let mut row = format!("{:>9}", b.name());
        for kb in sizes_kb {
            let lines = kb * 1024 / 16;
            // Combined miss rate per reference with split caches of this
            // size each.
            let misses = pi.misses_at_capacity(lines) + pd.misses_at_capacity(lines);
            let refs = pi.accesses() + pd.accesses();
            let _ = write!(row, " {:>8.4}", misses as f64 / refs as f64);
        }
        row.push('\n');
        row
    });
    out.push_str(&rows.concat());
    let _ = writeln!(
        out,
        "\npaper anchors (§3, direct-mapped): espresso 0.0100 and eqntott 0.0149 at 32KB;\n\
         tomcatv 0.109 at 32KB and nearly flat. (FA-LRU curves sit slightly below the\n\
         direct-mapped rates the figures use — no conflict misses.)"
    );
    out
}

/// Extension exhibit `replacement`: what the paper's choice of
/// pseudo-random L2 replacement (§2.1) cost relative to LRU, FIFO, and
/// tree-PLRU.
pub fn replacement_ablation(h: &Harness) -> String {
    use tlc_cache::{ConventionalTwoLevel, ReplacementKind};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: L2 replacement-policy ablation (4KB L1s, 64KB 4-way conventional L2)\n\
         The paper used pseudo-random replacement in its set-associative L2s (§2.1).\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "workload", "LRU", "FIFO", "pseudo-random", "tree-PLRU"
    );
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    let policies = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::PseudoRandom,
        ReplacementKind::TreePlru,
    ];
    let misses = pooled(h, &grid(&SpecBenchmark::ALL, &policies), |&(b, repl)| {
        let l2 = CacheConfig::new(64 * 1024, 16, Associativity::SetAssoc(4), repl).expect("valid");
        let mut sys = ConventionalTwoLevel::new(l1, l2);
        simulate_source_on(&mut sys, &mut h.replay(b), h.budget).l2_misses
    });
    for (b, cells) in SpecBenchmark::ALL.iter().zip(misses.chunks(policies.len())) {
        let _ = writeln!(
            out,
            "{:>9} {:>14} {:>14} {:>14} {:>14}",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }
    let _ = writeln!(
        out,
        "\nexpectation: differences of a few percent — §5's conclusion that policy detail\n\
         matters far less than capacity and the level structure."
    );
    out
}

/// Extension exhibit `victim`: the `y < x` degenerate case of exclusive
/// caching — "the configuration becomes a shared direct-mapped victim
/// cache \[4\]" (§8). Compares a small fully-associative victim buffer
/// against no buffer at all, per workload.
pub fn victim_cache_study(h: &Harness) -> String {
    use tlc_cache::{SingleLevel, VictimCacheSystem};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: victim caching — the y < x limit of exclusive caching (§8 / Jouppi 1990)\n\
         4KB direct-mapped L1s; off-chip misses without and with a shared victim buffer\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "workload", "no buffer", "2 lines", "4 lines", "8 lines", "16 lines"
    );
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    // Buffer sizes in lines; 0 is the plain single-level baseline.
    let buffers = [0u64, 2, 4, 8, 16];
    let misses = pooled(h, &grid(&SpecBenchmark::ALL, &buffers), |&(b, buffer_lines)| {
        let mut replay = h.replay(b);
        match buffer_lines {
            0 => simulate_source_on(&mut SingleLevel::new(l1), &mut replay, h.budget),
            lines => simulate_source_on(
                &mut VictimCacheSystem::new(l1, lines).expect("valid buffer"),
                &mut replay,
                h.budget,
            ),
        }
        .l2_misses
    });
    for (b, cells) in SpecBenchmark::ALL.iter().zip(misses.chunks(buffers.len())) {
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>10} {:>10} {:>10} {:>10}",
            b.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
    let _ = writeln!(
        out,
        "\nexpectation: a handful of victim lines removes a visible slice of conflict\n\
         misses (Jouppi 1990), with diminishing returns per extra line."
    );
    out
}

/// Extension exhibit `sensitivity`: how robust the paper's conclusions
/// are to its two fixed parameters — the off-chip service time (a 50/200
/// dichotomy in the paper; a continuum here) and the 16-byte line size
/// (§2.1).
pub fn sensitivity_study(h: &Harness) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Extension: sensitivity of the conclusions to fixed parameters\n");

    // Part 1: off-chip service time continuum.
    let _ = writeln!(
        out,
        "(a) off-chip service time vs the single-level/two-level crossover (gcc1, 4-way L2)\n"
    );
    let _ =
        writeln!(out, "{:>10} {:>22} {:>22}", "offchip", "first 2-level (rbe)", "endpoint gain");
    for offchip in [25.0f64, 50.0, 100.0, 200.0, 400.0] {
        let opts = SpaceOptions { offchip_ns: offchip, ..SpaceOptions::baseline() };
        let pts = sweep_points(h, &full_space(&opts), SpecBenchmark::Gcc1);
        let singles = singles_of(&pts);
        let env = envelope_of(&pts);
        let first = env
            .iter()
            .map(|e| &pts[e.index])
            .find(|p| p.machine.l2.is_some())
            .map(|p| format!("{} @ {:.0}", p.label, p.area_rbe))
            .unwrap_or_else(|| "none".to_string());
        let env_single = envelope_of(&singles);
        let endpoint = match (env.last(), env_single.last()) {
            (Some(a), Some(s)) => format!("{:+.1}%", (a.tpi / s.tpi - 1.0) * 100.0),
            _ => "n/a".to_string(),
        };
        let _ = writeln!(out, "{:>8}ns {:>22} {:>22}", offchip, first, endpoint);
    }
    let _ = writeln!(
        out,
        "\nexpectation: the crossover moves to smaller areas and the endpoint gain grows\n\
         monotonically as memory gets slower — §7 generalised to a continuum.\n"
    );

    // Part 2: line size.
    let _ = writeln!(
        out,
        "(b) line size (paper fixes 16B): gcc1 on 8:64 conventional and 32:0 single-level\n"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>10} | {:>10} {:>12} {:>10}",
        "line", "8:64 TPI", "missrate", "L2cyc", "32:0 TPI", "missrate", "cyc(ns)"
    );
    let line_sizes = [16u64, 32, 64];
    // Per line size: the 8:64 two-level point, then the 32:0 one.
    let machines = [
        MachineConfig::two_level(8, 64, 4, L2Policy::Conventional, 50.0),
        MachineConfig::single_level(32, 50.0),
    ];
    let points = pooled(h, &grid(&line_sizes, &machines), |&(line_bytes, mut cfg)| {
        cfg.line_bytes = line_bytes;
        tlc_core::evaluate(&cfg, &mut h.replay(SpecBenchmark::Gcc1), h.budget, &h.timing, &h.area)
    });
    for (line_bytes, pair) in line_sizes.iter().zip(points.chunks(machines.len())) {
        let (p2, p1) = (&pair[0], &pair[1]);
        let _ = writeln!(
            out,
            "{:>5}B {:>10.2} {:>12.4} {:>10} | {:>10.2} {:>12.4} {:>10.2}",
            line_bytes,
            p2.tpi_ns,
            p2.stats.global_miss_rate(),
            p2.l2_cycles,
            p1.tpi_ns,
            p1.stats.global_miss_rate(),
            p1.l1_cycle_ns,
        );
    }
    let _ = writeln!(
        out,
        "\nexpectation: longer lines cut miss *rates* (spatial locality) but pay more\n\
         refill transfers per miss; the paper's 16B choice is near the sweet spot for\n\
         its 8-byte refill path."
    );
    out
}

/// Extension exhibit `board`: an explicit board-level third cache behind
/// the chip, validating the paper's flat 50ns "with board cache"
/// operating point (§2.1) and exercising the §8 inclusion remark
/// (on-chip lines evicted from the board are purged on-chip).
pub fn board_cache_study(h: &Harness) -> String {
    use tlc_cache::{effective_offchip_ns, BoardCache};
    use tlc_core::experiment::build_system_kind;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: explicit board-level cache (the paper's flat 50ns, unpacked)\n\
         On-chip: 8KB L1s + 64KB 4-way conventional L2; board probed on every\n\
         on-chip miss; board evictions purge on-chip copies (inclusion, §8).\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>8} {:>12} {:>12} {:>14} {:>14}",
        "workload", "board", "hit ratio", "eff. ns", "inclusions", "purged lines"
    );
    let cfg = MachineConfig::two_level(8, 64, 4, L2Policy::Conventional, 50.0);
    let workloads = [SpecBenchmark::Gcc1, SpecBenchmark::Tomcatv, SpecBenchmark::Espresso];
    let boards_kb = [256u64, 1024, 4096];
    let rows = pooled(h, &grid(&workloads, &boards_kb), |&(b, board_kb)| {
        let mut sys = build_system_kind(&cfg);
        let mut board = BoardCache::new(board_kb * 1024, 2, 16).expect("valid board");
        let mut purged = 0u64;
        let mut w = h.replay(b);
        let n = h.budget.instructions.min(600_000) + h.budget.warmup_instructions;
        for _ in 0..n {
            let rec = w.next_instruction();
            for r in rec.refs() {
                if sys.access(r) == tlc_cache::ServiceLevel::Memory {
                    let outcome = board.access(r.addr.line(16));
                    if let Some(evicted) = outcome.evicted {
                        purged += sys.invalidate_line(evicted) as u64;
                    }
                }
            }
        }
        let hit_ratio = board.stats().hit_rate();
        format!(
            "{:>9} {:>7}K {:>12.3} {:>11.1}ns {:>14} {:>14}\n",
            b.name(),
            board_kb,
            hit_ratio,
            effective_offchip_ns(hit_ratio, 50.0, 200.0),
            board.stats().evictions,
            purged,
        )
    });
    out.push_str(&rows.concat());
    let _ = writeln!(
        out,
        "\nexpectation: a megabyte-class board cache pushes the effective service time\n\
         toward the paper's 50ns operating point for cacheable workloads; streaming\n\
         tomcatv stays closer to the 200ns (no-board) point."
    );
    out
}

/// Extension exhibit `multiprog`: multiprogramming effects the paper
/// scoped out (§2.2), in the spirit of the WRL companion study on
/// context switches (Mogul & Borg, TN-16). Two processes time-share one
/// hierarchy; TPI is compared against the processes running alone.
pub fn multiprogramming_study(h: &Harness) -> String {
    use tlc_core::experiment::{simulate_source, SimBudget};
    use tlc_core::machine::MachineTiming;
    use tlc_core::tpi::tpi_ns;
    use tlc_trace::TimeSliced;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: multiprogramming (§2.2 scoped this out; cf. Mogul & Borg TN-16)\n\
         gcc1 + li time-sharing one hierarchy; TPI vs context-switch quantum\n"
    );
    let budget = SimBudget {
        instructions: h.budget.instructions.min(800_000),
        warmup_instructions: h.budget.warmup_instructions.min(200_000),
    };
    let configs = [
        MachineConfig::single_level(32, 50.0),
        MachineConfig::two_level(8, 64, 4, L2Policy::Conventional, 50.0),
    ];
    #[derive(Clone, Copy)]
    enum Run {
        Solo(SpecBenchmark),
        Sliced { quantum: u64 },
    }
    let solo = [SpecBenchmark::Gcc1, SpecBenchmark::Li];
    let quanta = [2_000u64, 10_000, 50_000, 250_000];
    // Per configuration: the solo runs, then one time-sliced run per quantum.
    let runs: Vec<Run> = solo
        .map(Run::Solo)
        .into_iter()
        .chain(quanta.map(|quantum| Run::Sliced { quantum }))
        .collect();
    let tpis = pooled(h, &grid(&configs, &runs), |&(cfg, run)| {
        let stats = match run {
            Run::Solo(b) => simulate_source(&cfg, &mut h.replay(b), budget),
            Run::Sliced { quantum } => {
                let mut mp = TimeSliced::new(
                    vec![
                        Box::new(h.replay(SpecBenchmark::Gcc1)),
                        Box::new(h.replay(SpecBenchmark::Li)),
                    ],
                    quantum,
                );
                simulate_source(&cfg, &mut mp, budget)
            }
        };
        tpi_ns(&stats, &MachineTiming::derive(&cfg, &h.timing, &h.area))
    });
    for (cfg, tpis) in configs.iter().zip(tpis.chunks(runs.len())) {
        let (solo, sliced) = tpis.split_at(solo.len());
        let ideal = (solo[0] + solo[1]) / 2.0;
        let _ = writeln!(
            out,
            "{}: solo gcc1 {:.2}ns, solo li {:.2}ns, ideal mix {:.2}ns",
            cfg.label(),
            solo[0],
            solo[1],
            ideal
        );
        let _ = writeln!(out, "{:>12} {:>10} {:>12}", "quantum", "TPI(ns)", "slowdown");
        for (quantum, tpi) in quanta.iter().zip(sliced) {
            let _ = writeln!(
                out,
                "{:>12} {:>10.2} {:>11.1}%",
                quantum,
                tpi,
                (tpi / ideal - 1.0) * 100.0
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "expectation: short quanta inflate TPI (each switch refetches the working\n\
         set); large caches suffer relatively more, echoing TN-16's findings."
    );
    out
}

/// Extension exhibit `banking`: banking vs dual porting for dual-issue
/// bandwidth — the tradeoff §6 delegates to Sohi & Franklin \[8\].
pub fn banking_study(h: &Harness) -> String {
    use tlc_core::banking::{evaluate_banked, BankingParams};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: banking vs dual porting for 2-issue bandwidth (§6 / ref [8])\n\
         32KB single-level L1 pair; banked L1s serialise same-bank reference pairs\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>14} {:>10} {:>8} {:>12} {:>9}",
        "workload", "organisation", "conflict", "issue", "area(rbe)", "TPI(ns)"
    );
    let base = MachineConfig::single_level(32, 50.0);
    let workloads = [SpecBenchmark::Espresso, SpecBenchmark::Gcc1];
    #[derive(Clone, Copy)]
    enum Organisation {
        Ported(CellKind),
        Banked(u32),
    }
    // Per workload, in row order: single-ported, each bank count, then
    // dual-ported.
    let organisations = [
        Organisation::Ported(CellKind::SinglePorted),
        Organisation::Banked(2),
        Organisation::Banked(4),
        Organisation::Banked(8),
        Organisation::Ported(CellKind::DualPorted),
    ];
    let rows = pooled(h, &grid(&workloads, &organisations), |&(b, org)| match org {
        Organisation::Ported(cell) => {
            let cfg = base.with_l1_cell(cell);
            let p = tlc_core::evaluate(&cfg, &mut h.replay(b), h.budget, &h.timing, &h.area);
            let (name, issue) = if cell == CellKind::DualPorted {
                ("dual-port", 2.0)
            } else {
                ("single-port", 1.0)
            };
            format!(
                "{:>9} {:>14} {:>10} {:>8.2} {:>12.0} {:>9.2}\n",
                b.name(),
                name,
                "-",
                issue,
                p.area_rbe,
                p.tpi_ns
            )
        }
        Organisation::Banked(banks) => {
            let p = evaluate_banked(
                &base,
                &mut h.replay(b),
                h.budget,
                BankingParams::new(banks),
                &h.timing,
                &h.area,
            );
            format!(
                "{:>9} {:>12}-bank {:>9.3} {:>8.2} {:>12.0} {:>9.2}\n",
                b.name(),
                banks,
                p.conflict_rate,
                p.issue_factor,
                p.area_rbe,
                p.tpi_ns
            )
        }
    });
    for workload_rows in rows.chunks(organisations.len()) {
        out.push_str(&workload_rows.concat());
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "expectation: a few banks recover most of the dual-ported speedup at a\n\
         fraction of its 2x area — the [8] tradeoff."
    );
    out
}

/// Extension exhibit `prefetch`: stream buffers — the prefetch half of
/// the paper's reference \[4\] — against the victim buffer and the plain
/// single-level baseline.
pub fn prefetch_study(h: &Harness) -> String {
    use tlc_cache::{SingleLevel, StreamBufferSystem, VictimCacheSystem};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: stream buffers vs victim buffer (both from the paper's ref [4])\n\
         4KB direct-mapped L1s; off-chip demand misses per organisation\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>10} {:>12} {:>14} {:>16}",
        "workload", "plain", "victim(8)", "stream(8x4)", "prefetch traffic"
    );
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    #[derive(Clone, Copy)]
    enum Organisation {
        Plain,
        Victim,
        Stream,
    }
    // Per workload, each as (demand misses, prefetches).
    let organisations = [Organisation::Plain, Organisation::Victim, Organisation::Stream];
    let cells = pooled(h, &grid(&SpecBenchmark::ALL, &organisations), |&(b, org)| {
        let mut replay = h.replay(b);
        match org {
            Organisation::Plain => {
                (simulate_source_on(&mut SingleLevel::new(l1), &mut replay, h.budget).l2_misses, 0)
            }
            Organisation::Victim => {
                let mut sys = VictimCacheSystem::new(l1, 8).expect("valid");
                (simulate_source_on(&mut sys, &mut replay, h.budget).l2_misses, 0)
            }
            Organisation::Stream => {
                let mut sys = StreamBufferSystem::new(l1, 8, 4);
                let misses = simulate_source_on(&mut sys, &mut replay, h.budget).l2_misses;
                (misses, sys.prefetches())
            }
        }
    });
    for (b, row) in SpecBenchmark::ALL.iter().zip(cells.chunks(organisations.len())) {
        let _ = writeln!(
            out,
            "{:>9} {:>10} {:>12} {:>14} {:>16}",
            b.name(),
            row[0].0,
            row[1].0,
            row[2].0,
            row[2].1,
        );
    }
    let _ = writeln!(
        out,
        "\nexpectation: stream buffers demolish sequential misses (tomcatv, fpppp's\n\
         straight-line code) at the cost of prefetch bandwidth; the victim buffer\n\
         targets conflict misses instead — complementary mechanisms, as in [4]."
    );
    out
}

/// Extension exhibit `l1assoc`: Hill's "case for direct-mapped caches"
/// (\[3\]), which the paper's §2.1/§4 design rests on ("direct-mapped
/// caches usually provide the best performance for first-level caches").
/// Set-associative L1s cut misses but lengthen the processor cycle.
pub fn l1_associativity_study(h: &Harness) -> String {
    use tlc_cache::{ReplacementKind, SingleLevel};
    use tlc_core::machine::MachineTiming;
    use tlc_core::tpi::tpi_ns;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: first-level associativity (Hill [3], the basis of §2.1's DM L1s)\n\
         single-level systems, 50ns off-chip; the L1 sets the processor cycle\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>6} {:>6} {:>10} {:>10} {:>9}",
        "workload", "L1", "ways", "cycle(ns)", "missrate", "TPI(ns)"
    );
    let workloads = [SpecBenchmark::Gcc1, SpecBenchmark::Li];
    let sizes_kb = [8u64, 32];
    let ways_list = [1u32, 2, 4];
    let l1s = grid(&sizes_kb, &ways_list);
    let rows = pooled(h, &grid(&workloads, &l1s), |&(b, (kb, ways))| {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        let l1 =
            CacheConfig::new(kb * 1024, 16, assoc, ReplacementKind::PseudoRandom).expect("valid");
        let stats = simulate_source_on(&mut SingleLevel::new(l1), &mut h.replay(b), h.budget);
        // Timing: an L1 of this associativity sets the cycle.
        let geom = CacheGeometry { size_bytes: kb * 1024, line_bytes: 16, ways, addr_bits: 32 };
        let t = h.timing.optimal(&geom, CellKind::SinglePorted);
        let a = h.area.total_area(&geom, &t.org, CellKind::SinglePorted);
        let offchip = (50.0 / t.cycle_ns).ceil() * t.cycle_ns;
        let mt = MachineTiming {
            l1_cycle_ns: t.cycle_ns,
            l1_access_ns: t.access_ns,
            l2_raw_cycle_ns: 0.0,
            l2_raw_access_ns: 0.0,
            l2_cycles: 0,
            offchip_rounded_ns: offchip,
            area_rbe: 2.0 * a.value(),
            issue_factor: 1.0,
            refill_transfers: 2,
        };
        let tpi = tpi_ns(&stats, &mt);
        format!(
            "{:>9} {:>5}K {:>6} {:>10.2} {:>10.4} {:>9.2}\n",
            b.name(),
            kb,
            ways,
            t.cycle_ns,
            stats.l1_miss_rate(),
            tpi
        )
    });
    out.push_str(&rows.concat());
    let _ = writeln!(
        out,
        "\nexpectation: associativity trims the miss rate at best modestly (pseudo-random\n\
         replacement can even lose to DM's regularity), while the serial tag-compare/\n\
         way-select path lengthens every cycle — direct-mapped wins the TPI at the L1,\n\
         as Hill argued and the paper assumed."
    );
    out
}

/// Extension exhibit `writes`: the write traffic behind §2.2's "write
/// traffic was modeled as read traffic" simplification — what
/// write-through vs write-back would put on the off-chip bus.
pub fn write_traffic_study(h: &Harness) -> String {
    use tlc_core::experiment::simulate_source;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: write traffic (§2.2 models writes as reads; this quantifies the\n\
         bus traffic that choice abstracts away)\n"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>14} {:>18} {:>14}",
        "workload", "config", "stores/instr", "writebacks/instr", "WT/WB ratio"
    );
    let configs = [
        MachineConfig::single_level(8, 50.0),
        MachineConfig::two_level(8, 64, 4, L2Policy::Exclusive, 50.0),
    ];
    let rows = pooled(h, &grid(&SpecBenchmark::ALL, &configs), |&(b, cfg)| {
        // Count stores from the stream itself.
        let mut w = h.replay(b);
        let mut stores = 0u64;
        for _ in 0..h.budget.instructions.min(400_000) {
            if let Some(d) = w.next_instruction().data {
                if d.kind == tlc_trace::AccessKind::Store {
                    stores += 1;
                }
            }
        }
        let n = h.budget.instructions.min(400_000) as f64;
        let budget = tlc_core::SimBudget {
            instructions: h.budget.instructions.min(400_000),
            warmup_instructions: h.budget.warmup_instructions.min(100_000),
        };
        let st = simulate_source(&cfg, &mut h.replay(b), budget);
        let wt = stores as f64 / n; // write-through: every store hits the bus
        let wb = st.offchip_writebacks as f64 / st.instructions as f64;
        format!(
            "{:>9} {:>9} {:>14.4} {:>18.4} {:>14.1}\n",
            b.name(),
            cfg.label(),
            wt,
            wb,
            if wb > 0.0 { wt / wb } else { f64::INFINITY },
        )
    });
    out.push_str(&rows.concat());
    let _ = writeln!(
        out,
        "\nexpectation: write-back sharply cuts bus writes wherever stores hit cached\n\
         data (everything but pure streaming) — the reason the paper could fold\n\
         writes into its read model without distorting the off-chip picture."
    );
    out
}

/// Extension exhibit `timingmodels`: the calibrated stage-constant model
/// (the repository's default, matched to the paper's published outputs)
/// against the transistor-level Horowitz/RC model (the structure of
/// Wilton–Jouppi TR 93/5), across Figure 1's size sweep.
pub fn timing_models_study(h: &Harness) -> String {
    use tlc_timing::DetailedTimingModel;

    let detailed = DetailedTimingModel::paper();
    let mut out = String::new();
    let _ =
        writeln!(out, "Extension: calibrated vs transistor-level timing model (Figure 1 sweep)\n");
    let _ = writeln!(
        out,
        "{:>6} | {:>11} {:>10} | {:>11} {:>10} {:>9}",
        "L1", "cal access", "cal cycle", "det access", "det cycle", "det/cal"
    );
    let mut firsts = (0.0f64, 0.0f64);
    let mut lasts = (0.0f64, 0.0f64);
    for (i, kb) in [1u64, 2, 4, 8, 16, 32, 64, 128, 256].iter().enumerate() {
        let g = CacheGeometry::paper(kb * 1024, 1);
        let c = h.timing.optimal(&g, CellKind::SinglePorted);
        let d = detailed.optimal(&g, CellKind::SinglePorted);
        let _ = writeln!(
            out,
            "{:>5}K | {:>11.2} {:>10.2} | {:>11.2} {:>10.2} {:>9.2}",
            kb,
            c.access_ns,
            c.cycle_ns,
            d.access_ns,
            d.cycle_ns,
            d.cycle_ns / c.cycle_ns
        );
        if i == 0 {
            firsts = (c.cycle_ns, d.cycle_ns);
        }
        lasts = (c.cycle_ns, d.cycle_ns);
    }
    let _ = writeln!(
        out,
        "\ncycle spread 1KB -> 256KB: calibrated {:.2}x (paper: ~1.8x), transistor-level {:.2}x",
        lasts.0 / firsts.0,
        lasts.1 / firsts.1
    );
    let _ = writeln!(
        out,
        "the transistor-level model charges honest wire lengths for 0.8µm-class\n\
         centimetre arrays, so it grows steeper; the two agree on every ordering\n\
         (cross-checked by tests), which is what the study's conclusions rest on."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatcher_knows_every_id() {
        // Resolving an id does not run it.
        for id in ALL_IDS {
            assert!(exhibit(id).is_some(), "{id} is listed but does not resolve");
        }
        let unique: std::collections::BTreeSet<_> = ALL_IDS.iter().collect();
        assert_eq!(unique.len(), ALL_IDS.len(), "an id is listed twice");
        // Nothing else resolves: near misses of every id, and the ids the
        // paper numbering would suggest but the paper does not have.
        for id in ALL_IDS {
            for miss in [format!("{id}x"), format!(" {id}"), id.to_uppercase(), id[1..].to_string()]
            {
                assert!(exhibit(&miss).is_none(), "{miss:?} resolves but is not listed");
            }
        }
        for miss in ["", "all", "fig0", "fig27", "fig99", "table2", "table0"] {
            assert!(exhibit(miss).is_none(), "{miss:?} resolves but is not listed");
        }
        assert!(run("fig99", &Harness::quick()).is_none());
    }

    #[test]
    fn fig1_reports_spread() {
        let out = fig1(&Harness::quick());
        assert!(out.contains("256K"));
        assert!(out.contains("spread"));
    }

    #[test]
    fn fig2_reports_l1_cycles() {
        let out = fig2(&Harness::quick());
        assert!(out.contains("L1cyc"));
        assert!(out.contains("8K"));
    }

    #[test]
    fn fig21_shows_exclusion_and_inclusion() {
        let out = fig21();
        assert!(out.contains("exclusion"));
        assert!(out.contains("inclusion"));
        // Scenario (a): after the warm-up both A and E are on-chip.
        assert!(out.contains("L1 = {E}  L2 = {A}") || out.contains("L1 = {A}  L2 = {E}"));
    }

    #[test]
    fn table1_lists_all_programs() {
        let out = table1(&Harness::quick());
        for b in SpecBenchmark::ALL {
            assert!(out.contains(b.name()), "missing {b}");
        }
        assert!(out.contains("2949.9") || out.contains("2949.90"), "paper total for tomcatv");
    }
}
