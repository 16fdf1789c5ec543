//! Analytical L2 prediction from one reuse-distance profiling pass.
//!
//! The family engine ([`filter_family`](crate::filter_family)) already
//! replays one event pass per L1 group *per associativity family*; every
//! extra L2 point still costs a per-event probe. This module removes the
//! replay entirely for conventional hierarchies: walk the group's miss
//! stream **once**, capture a reuse-distance histogram of the L2 probe
//! stream, then answer *every* L2 size/ways point from the histogram in
//! time independent of the event count.
//!
//! ## Model
//!
//! The probe stream seen by a conventional L2 is L2-independent (see
//! [`filter`](crate::filter)); an access's *reuse distance* `d` is the
//! number of distinct lines probed since the previous probe of the same
//! line, plus one. The prediction per L2 geometry (`s` sets × `a` ways):
//!
//! * **Fully associative LRU** (`s == 1`): exact Mattson — the access
//!   hits iff `d <= a`.
//! * **Set-associative LRU**: the Ling et al. binomial set-partition
//!   model ("Fast Modeling L2 Cache Reuse Distance Histograms"). The
//!   `d - 1` distinct interposed lines each land in the access's set
//!   with probability `1/s`; the line survives iff fewer than `a` did:
//!   `P_hit(d) = Pr[Binomial(d - 1, 1/s) <= a - 1]`. At `s == 1` this
//!   degenerates to the exact Mattson indicator.
//! * **Direct-mapped** (`a == 1`): exact — the same pass drives a
//!   [`NestedDmProfiler`] over every direct-mapped set count in the
//!   group, so 1-way predictions are real tag-array counts, not
//!   binomial estimates.
//!
//! Off-chip writebacks are estimated from the same pass: each written L1
//! victim merges into the L2 if present (probability `P_hit(p)` at its
//! current stack position `p`) and otherwise goes straight off-chip;
//! merged-dirty lines contribute a deferred writeback when they leave
//! the cache before their next probe (`P_hit(t) - P_hit(d)` for a merge
//! at position `t` reprobed at distance `d`). Both terms reduce to a
//! signed histogram accumulated in the single pass.
//!
//! ## Solve
//!
//! The solve walks the distance histogram once, at O(1) per distance
//! for any associativity. With `n = d − 1`, `p = 1/s`, `q = 1 − p`, the
//! CDF `F(n) = P[Bin(n, p) <= a − 1]` (the hit probability) and the
//! boundary term `b(n) = P[Bin(n, p) = a − 1]` obey
//! `F(n + 1) = F(n) − p·b(n)` and
//! `b(n + 1) = b(n) · q · (n + 1) / (n + 2 − a)`, starting from
//! `F(a − 1) = 1`, `b(a − 1) = p^(a − 1)`. That start underflows f64 at
//! large `s` and `a`, so `b` is carried as a mantissa plus a coarse
//! exponent and read as zero while it cannot move `F`; `F` is clamped
//! at 0. The walk stops once `F` drops below `1e-12` or, past the pmf's
//! mode, once `b` drops below `2^-600` (what `F` then holds is rounding
//! residue). The tests keep the earlier truncated-pmf walk (O(a) per
//! distance) as a differential reference.
//!
//! ## Soundness domain and ε contract
//!
//! Replay remains ground truth. Prediction is *exact* for single-level
//! hierarchies and for direct-mapped conventional L2 hit/miss counts;
//! everything else is approximate, with three documented error sources:
//! the binomial set-partition assumption (probe lines treated as
//! uniformly spread over sets), the LRU assumption (swept L2s use
//! pseudo-random replacement), and recency refreshes by dirty-victim
//! merges, which the probe-order stack does not track. Exclusive
//! hierarchies are out of the model entirely (L2 contents depend on L1
//! victim swaps) — callers must fall back to replay. Consumers compare
//! local L2 miss ratios via [`miss_ratio_error`] against a tolerance ε;
//! [`MISS_RATIO_EPSILON`] is the contract the `predict_equivalence`
//! suite and the audit's `predict-vs-family` check enforce.

use crate::config::CacheConfig;
use crate::filter::{walk_events, EventSink, MissStream};
use crate::mattson::{Fenwick, NestedDmProfiler};
use crate::stats::HierarchyStats;
use std::collections::HashMap;
use tlc_trace::LineAddr;

/// Documented tolerance on the local L2 miss ratio: predicted vs
/// family-replayed ratios agree to within this bound on the equivalence
/// suite's benchmark × geometry grid. The bound is set by fpppp, whose
/// tight floating-point loops are the worst case for the LRU model —
/// a loop slightly wider than the cache scores near zero under LRU but
/// keeps a capacity-fraction of hits under the replayed pseudo-random
/// replacement (observed peak 0.150 on a 32 KB 4-way L2); every other
/// benchmark stays under 0.04 across the grid. Callers with stricter
/// or looser needs pass their own ε to [`miss_ratio_error`] comparisons.
pub const MISS_RATIO_EPSILON: f64 = 0.16;

/// Hit probabilities below this are treated as zero: the incremental
/// binomial tail is abandoned once it can no longer move a count.
const NEGLIGIBLE_HIT_PROB: f64 = 1e-12;

/// Past its mode, a pmf term below this means the CDF it bounds is far
/// below [`NEGLIGIBLE_HIT_PROB`]: the walk stops rather than carry
/// rounding residue in `F` (or step `b` through subnormals).
const TAIL_CUTOFF: f64 = pow2(-600);

/// Exponent step of [`Scaled`]: one step keeps a carried mantissa well
/// inside f64's normal range on either side.
const SCALE_STEP: i32 = 300;

/// `2^e` for `e` in f64's normal exponent range.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// A non-negative value `mant · 2^(−SCALE_STEP · shift)`: the binomial
/// pmf term `b` starts at `p^(a−1)`, which underflows f64 (2^−5100 at
/// 2^20 sets and 256 ways), yet must keep its exact ratio to later
/// terms as the walk multiplies it back up.
#[derive(Debug, Clone, Copy)]
struct Scaled {
    mant: f64,
    shift: u32,
    /// `2^(−SCALE_STEP · shift)`, or 0 from `shift == 2` on: there the
    /// value is below 2^−300 and cannot move a CDF still above
    /// [`NEGLIGIBLE_HIT_PROB`].
    scale: f64,
}

impl Scaled {
    /// `x^k` for `x` in `(0, 1]`.
    fn pow(x: f64, k: usize) -> Self {
        let mut s = Scaled { mant: 1.0, shift: 0, scale: 1.0 };
        for _ in 0..k {
            s.mant *= x;
            if s.mant < pow2(-SCALE_STEP) {
                s.mant *= pow2(SCALE_STEP);
                s.shift += 1;
            }
        }
        s.scale = Self::scale_of(s.shift);
        s
    }

    fn scale_of(shift: u32) -> f64 {
        match shift {
            0 => 1.0,
            1 => pow2(-SCALE_STEP),
            _ => 0.0,
        }
    }

    /// The value as a plain f64 (0 while it is negligible).
    #[inline]
    fn value(self) -> f64 {
        self.mant * self.scale
    }

    #[inline]
    fn mul(&mut self, r: f64) {
        self.mant *= r;
        // Only reachable from shift >= 2: the value itself never
        // exceeds 1.
        if self.mant > pow2(SCALE_STEP) {
            self.mant *= pow2(-SCALE_STEP);
            self.shift -= 1;
            self.scale = Self::scale_of(self.shift);
        }
    }
}

/// Sentinel "clean at every capacity" dirty floor.
const CLEAN: u64 = u64::MAX;

/// Per-line state carried across the profiling pass.
#[derive(Debug, Clone, Copy)]
struct LineState {
    /// Fenwick time slot of the line's most recent probe.
    last: usize,
    /// Smallest capacity (in lines) at which the line currently holds
    /// dirty data, [`CLEAN`] if none: a written victim merged at stack
    /// position `p` dirties every capacity `>= p` (smaller ones already
    /// evicted the line and take an immediate writeback instead).
    dirty_floor: u64,
}

/// The profiling [`EventSink`]: exact reuse-distance histogram over the
/// probe stream plus the signed writeback histogram, sharing the Fenwick
/// machinery with [`StackDistanceProfiler`](crate::StackDistanceProfiler).
#[derive(Debug)]
struct ReuseProfiler {
    fenwick: Fenwick,
    lines: HashMap<LineAddr, LineState>,
    clock: usize,
    accesses: u64,
    cold: u64,
    written_victims: u64,
    /// `hist[d]`: measured probes with exact reuse distance `d`.
    hist: Vec<u64>,
    /// Signed coefficients `V[x]` such that predicted writebacks are
    /// `written_victims + Σ_x V[x] · P_hit(x)` (see the module docs).
    victim_hist: Vec<i64>,
    /// Exact direct-mapped tag arrays, when the group sweeps any.
    dm: Option<NestedDmProfiler>,
}

fn bump_u(v: &mut Vec<u64>, idx: usize, by: u64) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    v[idx] += by;
}

fn bump_i(v: &mut Vec<i64>, idx: usize, by: i64) {
    if idx >= v.len() {
        v.resize(idx + 1, 0);
    }
    v[idx] += by;
}

impl ReuseProfiler {
    fn new(dm_set_counts: &[u64]) -> Self {
        ReuseProfiler {
            fenwick: Fenwick::new(),
            lines: HashMap::new(),
            clock: 0,
            accesses: 0,
            cold: 0,
            written_victims: 0,
            hist: Vec::new(),
            victim_hist: Vec::new(),
            dm: (!dm_set_counts.is_empty()).then(|| NestedDmProfiler::new(dm_set_counts)),
        }
    }

    /// Stack position of a line whose last probe sat at slot `last`:
    /// distinct lines probed strictly after it, plus the line itself.
    #[inline]
    fn position(&self, last: usize) -> u64 {
        (self.fenwick.total() - self.fenwick.prefix(last)) as u64 + 1
    }

    /// Records the dirty lines still resident at end of stream: for
    /// capacities in `[floor, final_position)` the line has already been
    /// evicted dirty, with no later probe to account for it.
    fn flush_resident_dirty(&mut self) {
        if self.accesses == 0 {
            return;
        }
        let mut spans = Vec::new();
        for st in self.lines.values() {
            if st.dirty_floor != CLEAN {
                let p = self.position(st.last);
                if st.dirty_floor < p {
                    spans.push((st.dirty_floor as usize, p as usize));
                }
            }
        }
        for (floor, p) in spans {
            bump_i(&mut self.victim_hist, floor, 1);
            bump_i(&mut self.victim_hist, p, -1);
        }
    }
}

impl EventSink for ReuseProfiler {
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        self.accesses += 1;
        if let Some(dm) = &mut self.dm {
            dm.record(line.0);
        }
        let now = self.clock;
        self.clock += 1;
        if now > self.fenwick.capacity() {
            // Grow the time axis; only live lines carry a 1 (same scheme
            // as `StackDistanceProfiler`).
            let live: Vec<usize> = self.lines.values().map(|s| s.last).collect();
            self.fenwick.rebuild(now.max(2 * self.fenwick.capacity()), live.into_iter());
        }
        match self.lines.get(&line).copied() {
            None => {
                self.cold += 1;
                self.lines.insert(line, LineState { last: now, dirty_floor: CLEAN });
            }
            Some(st) => {
                let d = self.position(st.last);
                bump_u(&mut self.hist, d as usize, 1);
                // Capacities in [floor, d) evicted the line while dirty
                // and refill it clean on this probe's miss; larger ones
                // hit and keep the dirty data.
                let floor = if st.dirty_floor < d {
                    bump_i(&mut self.victim_hist, st.dirty_floor as usize, 1);
                    bump_i(&mut self.victim_hist, d as usize, -1);
                    d
                } else {
                    st.dirty_floor
                };
                self.lines.insert(line, LineState { last: now, dirty_floor: floor });
                self.fenwick.add(st.last, -1);
            }
        }
        self.fenwick.add(now, 1);
        // The victim merge happens after the probe in the conventional
        // back-end, so its stack position is measured post-probe.
        if let Some((vline, written)) = victim {
            if written {
                self.written_victims += 1;
                let pos = self.lines.get(&vline).map(|st| self.position(st.last));
                if let Some(p) = pos {
                    // Immediate writeback where absent: 1 - P_hit(p).
                    bump_i(&mut self.victim_hist, p as usize, -1);
                    let st = self.lines.get_mut(&vline).expect("state just read");
                    st.dirty_floor = st.dirty_floor.min(p);
                }
                // A line never probed is resident nowhere: the scalar
                // term alone counts one certain writeback.
            }
        }
    }

    fn reset_counters(&mut self) {
        self.accesses = 0;
        self.cold = 0;
        self.written_victims = 0;
        self.hist.iter_mut().for_each(|h| *h = 0);
        self.victim_hist.iter_mut().for_each(|h| *h = 0);
        if let Some(dm) = &mut self.dm {
            dm.reset_counters();
        }
    }
}

/// A captured reuse-distance profile of one L1 group's miss stream:
/// everything needed to predict any conventional L2 point analytically.
/// Capture once per group with [`ReuseProfile::capture`], then call
/// [`ReuseProfile::predict_conventional`] / [`ReuseProfile::predict_single`]
/// per design point.
#[derive(Debug, Clone)]
pub struct ReuseProfile {
    accesses: u64,
    written_victims: u64,
    /// The profiler's `hist` and `victim_hist` as f64, padded to one
    /// length so the solve walks them in lockstep.
    hist: Vec<f64>,
    victim_hist: Vec<f64>,
    dm_set_counts: Vec<u64>,
    /// `(hits, misses)` per entry of `dm_set_counts`, measured window.
    dm_counters: Vec<(u64, u64)>,
}

impl ReuseProfile {
    /// Profiles `stream` in one event pass. `dm_set_counts` lists every
    /// direct-mapped set count (lines) the caller will later predict —
    /// those geometries get exact tag-array counts; pass `&[]` when the
    /// sweep has no 1-way L2s.
    ///
    /// # Panics
    ///
    /// Panics if `dm_set_counts` is non-empty but not strictly ascending
    /// powers of two (the [`NestedDmProfiler`] contract).
    pub fn capture(stream: &MissStream, dm_set_counts: &[u64]) -> Self {
        tlc_obs::obs_count!(tlc_obs::Counter::PredictGroupsProfiled, 1);
        tlc_obs::obs_count!(tlc_obs::Counter::PredictEventsProfiled, stream.len());
        let mut p = ReuseProfiler::new(dm_set_counts);
        walk_events(&mut p, stream);
        p.flush_resident_dirty();
        let dm_counters = p.dm.as_ref().map(|dm| dm.counters()).unwrap_or_default();
        let max_d = p.hist.len().max(p.victim_hist.len());
        let mut hist: Vec<f64> = p.hist.iter().map(|&h| h as f64).collect();
        let mut victim_hist: Vec<f64> = p.victim_hist.iter().map(|&v| v as f64).collect();
        hist.resize(max_d, 0.0);
        victim_hist.resize(max_d, 0.0);
        ReuseProfile {
            accesses: p.accesses,
            written_victims: p.written_victims,
            hist,
            victim_hist,
            dm_set_counts: dm_set_counts.to_vec(),
            dm_counters,
        }
    }

    /// Measured-window probes (every one of which the single-level
    /// hierarchy sends off-chip).
    pub fn events(&self) -> u64 {
        self.accesses
    }

    /// Expected hits `Σ_d hist[d] · P_hit(d)` and the writeback
    /// correction `Σ_x V[x] · P_hit(x)` for an `s × a` geometry, in one
    /// walk over the histograms at O(1) per distance (see the module
    /// docs for the recurrence and its underflow handling).
    fn hit_sums(&self, sets: u64, ways: u32) -> (f64, f64) {
        let a = ways as usize;
        let max_d = self.hist.len();
        // At most a - 1 lines intervene before distance a, so every
        // d <= a hits whatever the set count. With one set the binomial
        // is deterministic and those are the only hits: the exact
        // Mattson column.
        let sure = max_d.min(if sets == 1 { a + 1 } else { a });
        let mut hits: f64 = self.hist[..sure].iter().skip(1).sum();
        let mut wb: f64 = self.victim_hist[..sure].iter().skip(1).sum();
        let mut steps = sure.saturating_sub(1) as u64;
        if sets > 1 {
            let p = 1.0 / sets as f64;
            let q = 1.0 - p;
            // F = P[Bin(n, p) <= a - 1] and b = P[Bin(n, p) = a - 1] for
            // the n = d - 1 lines intervening at distance d, from n = a - 1.
            let mut f = 1.0;
            let mut b = Scaled::pow(p, a - 1);
            let mut n = a as f64 - 1.0;
            // Past the pmf's mode, b only shrinks; once it is below
            // TAIL_CUTOFF there, the true F is far under
            // NEGLIGIBLE_HIT_PROB and whatever F is left is rounding.
            let mode = n * sets as f64;
            for (&h, &v) in self.hist[sure..].iter().zip(&self.victim_hist[sure..]) {
                steps += 1;
                hits += h * f;
                wb += v * f;
                let bv = b.value();
                if f < NEGLIGIBLE_HIT_PROB || (n > mode && bv < TAIL_CUTOFF) {
                    break;
                }
                f = (f - p * bv).max(0.0);
                b.mul(q * (n + 1.0) / (n + 2.0 - a as f64));
                n += 1.0;
            }
        }
        tlc_obs::obs_count!(tlc_obs::Counter::PredictSolveSteps, steps);
        (hits, wb)
    }

    /// Predicts the measured-window statistics of a conventional
    /// hierarchy with this L2, assembled over the stream's L1 counters
    /// exactly like a replay would.
    ///
    /// # Panics
    ///
    /// Panics if `l2_cfg`'s line size differs from the stream's, or a
    /// direct-mapped `l2_cfg`'s set count was not named at capture.
    pub fn predict_conventional(
        &self,
        stream: &MissStream,
        l2_cfg: &CacheConfig,
    ) -> HierarchyStats {
        assert_eq!(l2_cfg.line_bytes(), stream.line_bytes(), "L1 and L2 must share a line size");
        let sums = self.hit_sums(l2_cfg.num_sets(), l2_cfg.ways());
        self.assemble(stream, l2_cfg, sums)
    }

    /// Rounds solved `(hits, writeback correction)` sums into the
    /// statistics of `l2_cfg` over `stream`'s L1 counters.
    fn assemble(
        &self,
        stream: &MissStream,
        l2_cfg: &CacheConfig,
        (hits_f, wb_corr): (f64, f64),
    ) -> HierarchyStats {
        let sets = l2_cfg.num_sets();
        let l2_hits = if l2_cfg.ways() == 1 {
            let i = self
                .dm_set_counts
                .iter()
                .position(|&s| s == sets)
                .expect("direct-mapped set count was not profiled at capture");
            self.dm_counters[i].0
        } else {
            (hits_f.round() as u64).min(self.accesses)
        };
        let offchip_writebacks = (self.written_victims as f64 + wb_corr).max(0.0).round() as u64;
        HierarchyStats {
            l2_hits,
            l2_misses: self.accesses - l2_hits,
            offchip_writebacks,
            ..*stream.l1_stats()
        }
    }

    /// Predicts (exactly) the single-level hierarchy: every probe goes
    /// off-chip, every written victim is written back.
    pub fn predict_single(&self, stream: &MissStream) -> HierarchyStats {
        HierarchyStats {
            l2_hits: 0,
            l2_misses: self.accesses,
            offchip_writebacks: self.written_victims,
            ..*stream.l1_stats()
        }
    }
}

/// Absolute difference of two results' local L2 miss ratios (misses per
/// L2 probe) — the quantity the ε contract bounds. Both sides of a
/// predicted-vs-replayed comparison share the probe count by
/// construction, so this is the natural normalized error.
pub fn miss_ratio_error(a: &HierarchyStats, b: &HierarchyStats) -> f64 {
    (a.l2_local_miss_rate() - b.l2_local_miss_rate()).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementKind};
    use crate::filter::L1FrontEnd;
    use crate::hierarchy::MemorySystem;
    use crate::oracle::{naive_replay_conventional, naive_replay_single};
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::InstructionSource;

    fn l1_cfg(bytes: u64) -> CacheConfig {
        CacheConfig::new(bytes, 16, Associativity::Direct, ReplacementKind::PseudoRandom).unwrap()
    }

    fn l2_cfg(bytes: u64, ways: u32, repl: ReplacementKind) -> CacheConfig {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        CacheConfig::new(bytes, 16, assoc, repl).unwrap()
    }

    /// Replayed ground truth: the naive event-level oracle.
    fn oracle_conventional(cfg: CacheConfig, stream: &MissStream) -> HierarchyStats {
        naive_replay_conventional(cfg.size_bytes(), cfg.ways(), cfg.replacement(), stream)
    }

    fn capture_spec(b: SpecBenchmark, l1_bytes: u64, warm: u64, n: u64) -> MissStream {
        let mut fe = L1FrontEnd::new(l1_cfg(l1_bytes));
        let mut w = b.workload();
        for _ in 0..warm {
            fe.access_instruction(&w.next_instruction_opt().unwrap());
        }
        fe.reset_stats();
        for _ in 0..n {
            fe.access_instruction(&w.next_instruction_opt().unwrap());
        }
        fe.finish(b.name())
    }

    /// The solve before the binomial-CDF recurrence, kept as the
    /// differential reference: the pmf of Bin(d − 1, 1/s) truncated to
    /// `0..a`, advanced term by term and re-summed at every distance
    /// (O(a) per step).
    fn pmf_walk_hit_sums(profile: &ReuseProfile, sets: u64, ways: u32) -> (f64, f64) {
        let a = ways as usize;
        let max_d = profile.hist.len();
        if sets == 1 {
            let hits: f64 = profile.hist.iter().take(max_d.min(a + 1)).skip(1).sum();
            let wb: f64 = profile.victim_hist.iter().take(max_d.min(a + 1)).skip(1).sum();
            return (hits, wb);
        }
        let p = 1.0 / sets as f64;
        let q = 1.0 - p;
        let mut pmf = vec![0.0f64; a];
        pmf[0] = 1.0;
        let mut phit = 1.0;
        let mut hits = 0.0;
        let mut wb = 0.0;
        for d in 1..max_d {
            hits += profile.hist[d] * phit;
            wb += profile.victim_hist[d] * phit;
            if phit < NEGLIGIBLE_HIT_PROB {
                break;
            }
            for k in (1..a).rev() {
                pmf[k] = pmf[k] * q + pmf[k - 1] * p;
            }
            pmf[0] *= q;
            phit = pmf.iter().sum();
        }
        (hits, wb)
    }

    /// Asserts the recurrence agrees with the pmf walk to within
    /// 1e-9 per probe on both sums.
    fn assert_matches_pmf_walk(profile: &ReuseProfile, sets: u64, ways: u32) {
        let (hits, wb) = profile.hit_sums(sets, ways);
        let (want_hits, want_wb) = pmf_walk_hit_sums(profile, sets, ways);
        let tol = 1e-9 * profile.accesses.max(1) as f64;
        assert!(
            (hits - want_hits).abs() <= tol && (wb - want_wb).abs() <= tol,
            "{sets} sets × {ways} ways: recurrence ({hits}, {wb}) vs pmf walk \
             ({want_hits}, {want_wb}), tolerance {tol}"
        );
    }

    /// A profile with every distance in `1..max_d` populated, a few
    /// thousand probes per distance and signed victim coefficients.
    fn dense_profile(max_d: usize) -> ReuseProfile {
        let hist: Vec<f64> =
            (0..max_d).map(|d| if d == 0 { 0.0 } else { (d * 7919 % 4001) as f64 }).collect();
        let victim_hist: Vec<f64> = (0..max_d).map(|d| (d % 7) as f64 - 3.0).collect();
        ReuseProfile {
            accesses: hist.iter().sum::<f64>() as u64,
            written_victims: 0,
            hist,
            victim_hist,
            dm_set_counts: Vec::new(),
            dm_counters: Vec::new(),
        }
    }

    #[test]
    fn recurrence_survives_an_underflowing_first_term() {
        // p^(a−1) = 2^−5100 at 2^20 sets × 256 ways, and 2^−1530 at 64
        // sets, whose walk also crosses the pmf's mode (n ≈ 16 320) and
        // its far tail inside max_d.
        let profile = dense_profile(120_000);
        for (sets, ways) in [(1u64 << 20, 256u32), (64, 256), (1024, 256), (3, 200), (5, 1)] {
            assert_matches_pmf_walk(&profile, sets, ways);
        }
        let all: f64 = profile.hist.iter().sum();
        assert_eq!(profile.hit_sums(1 << 20, 256).0, all, "P_hit stays 1 far below the mode");
        assert!(profile.hit_sums(64, 256).0 < 0.5 * all, "the tail past the mode misses");
    }

    #[test]
    fn recurrence_matches_pmf_walk_on_long_reuse_distances() {
        // 110 000 distinct lines, then every third one again in a
        // scrambled order: reuse distances spread up to ~1.1e5.
        let n = 110_000u64;
        let mut events: Vec<(u64, Option<(u64, bool)>)> =
            (0..n).map(|l| (l, (l % 5 == 0).then_some((l / 2, l % 10 == 0)))).collect();
        events.extend((0..n / 3).map(|i| ((i * 7_919) % n, None)));
        let stream = properties::synthetic(&events, 0);
        let profile = ReuseProfile::capture(&stream, &[]);
        assert!(profile.hist.len() >= 100_000, "max_d = {}", profile.hist.len());
        for (sets, ways) in [(2u64, 1u32), (256, 4), (512, 64), (1 << 20, 256), (4096, 16)] {
            assert_matches_pmf_walk(&profile, sets, ways);
        }
    }

    #[test]
    fn rounded_stats_match_pmf_walk_on_the_equivalence_grid() {
        // The benchmark × geometry grid and budget of
        // tests/predict_equivalence.rs.
        for b in SpecBenchmark::ALL {
            for l1_kb in [2u64, 4] {
                let stream = capture_spec(b, l1_kb * 1024, 3_000, 12_000);
                let profile = ReuseProfile::capture(&stream, &[1024, 4096]);
                for l2_kb in [16u64, 64] {
                    for ways in [1u32, 2, 4, 8] {
                        let cfg = l2_cfg(l2_kb * 1024, ways, ReplacementKind::PseudoRandom);
                        let reference = pmf_walk_hit_sums(&profile, cfg.num_sets(), ways);
                        assert_eq!(
                            profile.predict_conventional(&stream, &cfg),
                            profile.assemble(&stream, &cfg, reference),
                            "{} L1 {l1_kb}KB, L2 {l2_kb}KB {ways}-way",
                            b.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn direct_mapped_prediction_is_exact() {
        let stream = capture_spec(SpecBenchmark::Gcc1, 1024, 2_000, 10_000);
        let profile = ReuseProfile::capture(&stream, &[128, 256, 512]);
        for sets in [128u64, 256, 512] {
            let cfg = l2_cfg(sets * 16, 1, ReplacementKind::PseudoRandom);
            let got = profile.predict_conventional(&stream, &cfg);
            let want = oracle_conventional(cfg, &stream);
            assert_eq!(
                (got.l2_hits, got.l2_misses),
                (want.l2_hits, want.l2_misses),
                "DM prediction must be exact at {sets} sets"
            );
        }
    }

    #[test]
    fn single_level_prediction_is_exact() {
        for warm in [0u64, 1_500] {
            let stream = capture_spec(SpecBenchmark::Tomcatv, 2048, warm, 6_000);
            let profile = ReuseProfile::capture(&stream, &[]);
            assert_eq!(
                profile.predict_single(&stream),
                naive_replay_single(&stream),
                "warm={warm}"
            );
        }
    }

    #[test]
    fn fully_associative_lru_is_exact_without_written_victims() {
        // Loads and fetches only: no written victims, hence no
        // recency-refreshing merges — the probe-order stack model is
        // exact for a fully-associative LRU L2, writebacks included.
        let mut fe = L1FrontEnd::new(l1_cfg(512));
        let mut x = 77u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let addr = tlc_trace::Addr::new((x % 30_000) * 4);
            let r = if x.is_multiple_of(3) {
                tlc_trace::MemRef::fetch(addr)
            } else {
                tlc_trace::MemRef::load(addr)
            };
            fe.access(r);
        }
        let stream = fe.finish("loads-only");
        let profile = ReuseProfile::capture(&stream, &[]);
        for lines in [64u64, 256, 1024] {
            let cfg = CacheConfig::new(lines * 16, 16, Associativity::Full, ReplacementKind::Lru)
                .unwrap();
            let got = profile.predict_conventional(&stream, &cfg);
            let want = oracle_conventional(cfg, &stream);
            assert_eq!(got, want, "FA-LRU must be exact at {lines} lines with no victims");
        }
    }

    #[test]
    fn set_associative_lru_prediction_within_epsilon() {
        for b in [SpecBenchmark::Gcc1, SpecBenchmark::Espresso, SpecBenchmark::Li] {
            let stream = capture_spec(b, 1024, 2_000, 20_000);
            let profile = ReuseProfile::capture(&stream, &[]);
            for (bytes, ways) in [(4096u64, 2u32), (8192, 4), (32768, 8)] {
                let cfg = l2_cfg(bytes, ways, ReplacementKind::Lru);
                let got = profile.predict_conventional(&stream, &cfg);
                let want = oracle_conventional(cfg, &stream);
                let err = miss_ratio_error(&got, &want);
                assert!(
                    err <= MISS_RATIO_EPSILON,
                    "{}: {bytes}B {ways}-way LRU miss-ratio error {err:.4} > ε",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn prediction_is_monotone_in_capacity() {
        let stream = capture_spec(SpecBenchmark::Fpppp, 1024, 1_000, 15_000);
        let profile = ReuseProfile::capture(&stream, &[]);
        for ways in [2u32, 4, 8] {
            let mut prev = u64::MAX;
            for bytes in [2048u64, 4096, 8192, 16384, 65536] {
                let cfg = l2_cfg(bytes, ways, ReplacementKind::PseudoRandom);
                let got = profile.predict_conventional(&stream, &cfg);
                assert!(
                    got.l2_misses <= prev,
                    "predicted misses rose with capacity at {bytes}B {ways}-way"
                );
                prev = got.l2_misses;
            }
        }
    }

    #[test]
    fn empty_measurement_window_predicts_zero() {
        let stream = capture_spec(SpecBenchmark::Li, 1024, 2_000, 0);
        assert_eq!(stream.warmup_events(), stream.len());
        let profile = ReuseProfile::capture(&stream, &[64]);
        let cfg = l2_cfg(4096, 4, ReplacementKind::PseudoRandom);
        assert_eq!(profile.predict_conventional(&stream, &cfg), HierarchyStats::default());
        assert_eq!(profile.predict_single(&stream), HierarchyStats::default());
        let dm = l2_cfg(1024, 1, ReplacementKind::PseudoRandom);
        assert_eq!(profile.predict_conventional(&stream, &dm), HierarchyStats::default());
    }

    #[test]
    fn miss_ratio_error_is_symmetric_and_zero_on_equal() {
        let a = HierarchyStats { l2_hits: 30, l2_misses: 70, ..Default::default() };
        let b = HierarchyStats { l2_hits: 50, l2_misses: 50, ..Default::default() };
        assert_eq!(miss_ratio_error(&a, &a), 0.0);
        assert!((miss_ratio_error(&a, &b) - 0.2).abs() < 1e-12);
        assert_eq!(miss_ratio_error(&a, &b), miss_ratio_error(&b, &a));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use tlc_trace::events::EventArena;
        use tlc_trace::{AccessKind, MissEvent, VictimLine};

        /// Builds a synthetic miss stream from `(line, victim)` pairs.
        pub(super) fn synthetic(events: &[(u64, Option<(u64, bool)>)], warm: usize) -> MissStream {
            let mut arena = EventArena::new();
            for &(line, victim) in events {
                arena.push(MissEvent {
                    kind: AccessKind::Load,
                    line: LineAddr(line),
                    victim: victim.map(|(l, written)| VictimLine { line: LineAddr(l), written }),
                });
            }
            MissStream::from_parts(
                "synthetic",
                arena,
                warm as u64,
                HierarchyStats::default(),
                1024,
                16,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The O(1)-per-distance recurrence agrees with the O(a)
            /// pmf walk on arbitrary streams and geometries, set counts
            /// drawn log-uniformly from 2..2^21.
            #[test]
            fn recurrence_matches_pmf_walk(
                raw in prop::collection::vec((0u64..2_000, 0u64..2_000, any::<bool>()), 1..3_000),
                octave in 1u32..21,
                offset in any::<u64>(),
                ways in 1u32..=256,
            ) {
                let events: Vec<(u64, Option<(u64, bool)>)> = raw
                    .iter()
                    .map(|&(line, v, w)| (line, (v % 3 != 0).then_some((v, w))))
                    .collect();
                let profile = ReuseProfile::capture(&synthetic(&events, 0), &[]);
                let sets = (1u64 << octave) + offset % (1u64 << octave);
                assert_matches_pmf_walk(&profile, sets, ways);
            }

            /// Predicted direct-mapped hit/miss counts equal the exact
            /// replayed counts on arbitrary streams — 1-way prediction
            /// is not an estimate.
            #[test]
            fn dm_prediction_matches_replay_exactly(
                raw in prop::collection::vec((0u64..600, 0u64..600, any::<bool>()), 1..400),
                warm_frac in 0u8..4,
            ) {
                // Every third event carries no victim; the rest carry a
                // (possibly written) one.
                let events: Vec<(u64, Option<(u64, bool)>)> = raw
                    .iter()
                    .map(|&(line, v, w)| (line, (v % 3 != 0).then_some((v, w))))
                    .collect();
                let warm = events.len() * warm_frac as usize / 4;
                let stream = synthetic(&events, warm);
                let profile = ReuseProfile::capture(&stream, &[16, 64, 256]);
                for sets in [16u64, 64, 256] {
                    let cfg = CacheConfig::new(
                        sets * 16,
                        16,
                        Associativity::Direct,
                        ReplacementKind::PseudoRandom,
                    ).unwrap();
                    let got = profile.predict_conventional(&stream, &cfg);
                    let want = oracle_conventional(cfg, &stream);
                    prop_assert_eq!(
                        (got.l2_hits, got.l2_misses),
                        (want.l2_hits, want.l2_misses),
                        "DM mismatch at {} sets", sets
                    );
                }
            }

            /// Predicted hits never exceed probes, and hit counts are
            /// monotone in associativity at fixed set count (more ways
            /// only raise every P_hit(d)).
            #[test]
            fn predictions_are_sane_and_monotone_in_ways(
                raw in prop::collection::vec((0u64..300, 0u64..300, any::<bool>()), 1..300),
            ) {
                let events: Vec<(u64, Option<(u64, bool)>)> = raw
                    .iter()
                    .map(|&(line, v, w)| (line, (v % 3 != 0).then_some((v, w))))
                    .collect();
                let stream = synthetic(&events, 0);
                let profile = ReuseProfile::capture(&stream, &[]);
                let mut prev_hits = 0u64;
                for ways in [2u32, 4, 8] {
                    let cfg = CacheConfig::new(
                        64 * 16 * ways as u64,
                        16,
                        Associativity::SetAssoc(ways),
                        ReplacementKind::Lru,
                    ).unwrap();
                    let got = profile.predict_conventional(&stream, &cfg);
                    prop_assert!(got.l2_hits + got.l2_misses == profile.events());
                    prop_assert!(
                        got.l2_hits >= prev_hits,
                        "hits fell as ways rose at 64 sets"
                    );
                    prev_hits = got.l2_hits;
                }
            }
        }
    }
}
