//! Correctness checks, all outside the timed region. Each marks the
//! design points it finds wrong; a run is correct when none is marked.

use crate::inputs::splitmix64;
use crate::sweep::{Results, TraceResult};
use tlc_area::AreaModel;
use tlc_cache::{miss_ratio_error, NaiveSystem};
use tlc_core::experiment::{simulate_source_on, DesignPoint, SimBudget};
use tlc_core::runner::try_sweep_family_arena_threads;
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::TraceArena;

/// Per-point verdicts of one run: `bad[trace][point]`.
#[derive(Debug)]
pub struct Verdicts {
    bad: Vec<Vec<bool>>,
}

impl Verdicts {
    /// No point marked yet, for `traces` traces of `points` points.
    pub fn new(traces: usize, points: usize) -> Self {
        Verdicts { bad: vec![vec![false; points]; traces] }
    }

    /// Marks one point wrong.
    pub fn fail(&mut self, trace: usize, point: usize) {
        self.bad[trace][point] = true;
    }

    /// Marks every point of a trace wrong (its sweep failed outright).
    pub fn fail_trace(&mut self, trace: usize) {
        self.bad[trace].iter_mut().for_each(|b| *b = true);
    }

    /// Traces checked.
    pub fn traces(&self) -> usize {
        self.bad.len()
    }

    /// Points attempted.
    pub fn attempted(&self) -> u64 {
        self.bad.iter().map(Vec::len).sum::<usize>() as u64
    }

    /// Points marked wrong.
    pub fn failed(&self) -> u64 {
        self.bad.iter().flatten().filter(|&&b| b).count() as u64
    }
}

/// Fails every point where `got` differs from `want` (a sweep error
/// fails the whole trace), plus every point of a trace whose envelopes
/// differ.
pub fn compare(want: &Results, got: &Results, v: &mut Verdicts, what: &str) {
    for (t, (w, g)) in want.iter().zip(got).enumerate() {
        match (w, g) {
            (Ok(w), Ok(g)) => {
                for (i, (a, b)) in w.points.iter().zip(&g.points).enumerate() {
                    if a != b {
                        eprintln!("# check {what}: point {i} ({}) differs", a.label);
                        v.fail(t, i);
                    }
                }
                if w.points.len() != g.points.len() || w.envelopes != g.envelopes {
                    eprintln!("# check {what}: trace {t} envelopes differ");
                    v.fail_trace(t);
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("# check {what}: trace {t} failed: {e}");
                v.fail_trace(t);
            }
        }
    }
}

/// `k` distinct indices below `n`, chosen by `seed` and `salt` (sorted).
/// The same arguments always pick the same points.
pub fn pick(seed: u64, salt: u64, n: usize, k: usize) -> Vec<usize> {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// Replays `points` through the naive per-access oracle
/// (`tlc_cache::oracle`) on `arena` and fails every point whose
/// statistics differ from the oracle's.
pub fn oracle(
    arena: &TraceArena,
    budget: SimBudget,
    result: &TraceResult,
    points: &[usize],
    trace: usize,
    v: &mut Verdicts,
) {
    for &i in points {
        let p = &result.points[i];
        let c = &p.machine;
        let mut naive = match c.l2 {
            None => NaiveSystem::single(c.l1_size_bytes, c.line_bytes),
            Some(s) if s.policy == L2Policy::Conventional => NaiveSystem::conventional(
                c.l1_size_bytes,
                c.line_bytes,
                s.size_bytes,
                s.ways,
                s.repl,
            ),
            Some(s) => {
                NaiveSystem::exclusive(c.l1_size_bytes, c.line_bytes, s.size_bytes, s.ways, s.repl)
            }
        };
        let want = simulate_source_on(&mut naive, &mut arena.replay(), budget);
        if want != p.stats {
            eprintln!("# check oracle: {} {} differs from the naive oracle", p.workload, p.label);
            v.fail(trace, i);
        }
    }
}

/// Worst accuracy over the checked points of an approximate engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// Largest |local L2 miss ratio − exact replay|.
    pub max_miss_ratio_error: f64,
    /// Largest |TPI − exact TPI| / exact TPI, in percent.
    pub max_tpi_error_pct: f64,
}

/// Replays `points` of an approximate result exactly (family engine on
/// `arena` under `budget`) and fails every point whose local L2 miss
/// ratio is more than `epsilon` from the exact one.
#[allow(clippy::too_many_arguments)]
pub fn against_replay(
    arena: &TraceArena,
    budget: SimBudget,
    result: &TraceResult,
    points: &[usize],
    epsilon: f64,
    threads: usize,
    trace: usize,
    v: &mut Verdicts,
    acc: &mut Accuracy,
) -> Result<(), String> {
    let cfgs: Vec<MachineConfig> = points.iter().map(|&i| result.points[i].machine).collect();
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let exact = try_sweep_family_arena_threads(&cfgs, arena, budget, &timing, &area, threads)
        .map_err(|e| e.to_string())?;
    for (&i, want) in points.iter().zip(&exact) {
        let got: &DesignPoint = &result.points[i];
        let err = miss_ratio_error(&got.stats, &want.stats);
        let tpi_pct = (got.tpi_ns - want.tpi_ns).abs() / want.tpi_ns * 100.0;
        acc.max_miss_ratio_error = acc.max_miss_ratio_error.max(err);
        acc.max_tpi_error_pct = acc.max_tpi_error_pct.max(tpi_pct);
        if err > epsilon {
            eprintln!(
                "# check accuracy: {} {} miss-ratio error {err:.4} exceeds {epsilon}",
                got.workload, got.label
            );
            v.fail(trace, i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_is_deterministic_distinct_and_seeded() {
        let a = pick(1, 2, 90, 6);
        assert_eq!(a, pick(1, 2, 90, 6));
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[5] < 90);
        assert_ne!(a, pick(2, 2, 90, 6));
        assert_eq!(pick(1, 2, 3, 10), vec![0, 1, 2]);
    }
}
