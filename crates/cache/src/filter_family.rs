//! The L2 back-end: one pass over a miss stream drives *every* L2 size
//! of a configuration family at once, across any number of stitched
//! segments.
//!
//! The design spaces of the paper vary, for a fixed L1, only the L2
//! *capacity* (§2.1: L2 from 2×L1 up to 256KB, same 16B lines, same
//! associativity), so "one L1 miss stream, every L2 size" is the only
//! replay shape a sweep needs. One decode of each event fans into N
//! members, each a [`Cache`] — the array, replacement bank and
//! pseudo-random LFSR a standalone hierarchy's L2 uses — and each member
//! takes the event through the same L2 step as the per-access hierarchy:
//! `conventional_step` of [`ConventionalTwoLevel`](crate::ConventionalTwoLevel)
//! or `exclusive_step` of [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel).
//!
//! There is exactly one entry point per hierarchy kind:
//!
//! * [`try_replay_single_family_segments`] — single-level: every member
//!   shares the L1-only statistics, so each segment is walked once
//!   through the single-level sink in [`filter`](crate::filter);
//! * [`try_replay_conventional_family_segments`] — conventional L2s;
//! * [`try_replay_exclusive_family_segments`] — exclusive (victim-swap)
//!   L2s.
//!
//! An unsegmented replay is a one-segment call
//! (`std::slice::from_ref(stream)`), and a single configuration is a
//! family of one. The naive oracle in [`oracle`](crate::oracle) is the
//! independent second implementation the equivalence suites and the
//! audit check this back-end against.
//!
//! ## Why batching preserves the bit-exact contract
//!
//! Each member's L2 observes the same event sequence it would see alone:
//! the batched loop applies one event to every member before moving on,
//! and members never share mutable state. A member *is* the standalone
//! hierarchy's L2 — one [`Cache`], LFSR included, seeded like any fresh
//! `Cache` — stepped by the same protocol code, so stamp clocks, tree
//! bits, RRPVs and pseudo-random draws evolve identically by
//! construction. Members may even mix replacement policies: each cache
//! is built from its own member's configuration. A direct-mapped member
//! is no exception: it is one more `Cache`, whose probe is a single
//! compare, stepped like any other.
//!
//! The exclusive step keeps the one L2-dependent bit of L1 state, the
//! fill-dirty bit of an L1-miss/L2-hit, in a per-L1-set mirror beside
//! the L2 (see [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel)'s module
//! docs), so the L1 a stream was captured through holds exactly the
//! store-only dirty bits the stream records
//! ([`VictimLine::written`](tlc_trace::VictimLine)). The mirror is per
//! member: its entries come out of the member's own L2 extracts, whose
//! dirty bits depend on L2 capacity (see `docs/models.md`).
//!
//! ## Segments
//!
//! The family state — member caches, exclusive mirrors — is built
//! **once** and persists across segments: segment `k` starts from the
//! (stale) contents segment `k-1` left behind, its warm-up prefix
//! refreshes that state, and its counters reset at its own warm-up
//! boundary. This is the L2 half of stitched warming for sampled sweeps;
//! when there is more than one segment, each one's replay (a segment cut
//! by [`L1FrontEnd::take_stream`](crate::L1FrontEnd::take_stream)) is
//! timed into the `sample.slice_replay_ns` histogram.
//!
//! ## Errors instead of panics
//!
//! An unsupported family or segment shape surfaces as a typed
//! [`FamilyError`]; nothing in this module panics on caller input.

use crate::cache::{Cache, Evicted, Liveness};
use crate::config::{CacheConfig, ReplacementKind};
use crate::exclusive::{exclusive_step, ExclusiveState};
use crate::filter::{replay_single, walk_events, EventSink, MissStream};
use crate::stats::HierarchyStats;
use crate::twolevel::conventional_step;
use std::error::Error;
use std::fmt;
use tlc_trace::LineAddr;

/// Why a family or its segments cannot be replayed.
///
/// Returned by every `try_replay_*` entry point instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyError {
    /// A member's line size differs from the stream's; the events would
    /// be misinterpreted.
    LineSize {
        /// The member's line size in bytes.
        member: u64,
        /// The stream's line size in bytes.
        stream: u64,
    },
    /// Members disagree on associativity: a family shares one way count.
    MixedWays {
        /// The first member's way count.
        first: u32,
        /// The disagreeing member's way count.
        other: u32,
    },
    /// The replay was handed no segments: there is no stream to walk.
    NoSegments,
    /// A segment was captured through a different L1 front-end than the
    /// first one; stitched segments must all come from one front-end.
    SegmentGeometry {
        /// Index of the disagreeing segment.
        segment: usize,
        /// The first segment's `(L1 bytes, line bytes)`.
        expected: (u64, u64),
        /// The disagreeing segment's `(L1 bytes, line bytes)`.
        found: (u64, u64),
    },
    /// A stream event names a line beyond the last line of the 64-bit
    /// address space (see [`MissStream::from_parts`]).
    LineOutOfRange {
        /// Index of the offending event.
        event: u64,
        /// The out-of-range line or victim word.
        line: u64,
        /// The largest line a 64-bit address has at the stream's line
        /// size, `u64::MAX / line_bytes`.
        max_line: u64,
    },
    /// A stream's L1 geometry cannot come from a front-end: the L1 or
    /// line size is not a power of two, or the L1 holds less than one
    /// line (see [`MissStream::from_parts`]).
    L1Geometry {
        /// The L1 capacity in bytes.
        l1_size_bytes: u64,
        /// The line size in bytes.
        line_bytes: u64,
    },
    /// A stream's warm-up boundary lies past its last event (see
    /// [`MissStream::from_parts`]).
    WarmupOutOfRange {
        /// The warm-up boundary, in events.
        warmup_events: u64,
        /// The events the stream holds.
        events: u64,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::LineSize { member, stream } => write!(
                f,
                "family member line size {member}B differs from the stream's {stream}B \
                 (L1 and L2 must share a line size)"
            ),
            FamilyError::MixedWays { first, other } => {
                write!(f, "family members disagree on associativity ({first} vs {other} ways)")
            }
            FamilyError::NoSegments => write!(f, "need at least one segment to replay"),
            FamilyError::SegmentGeometry { segment, expected, found } => write!(
                f,
                "segment {segment} was captured through a {}B L1 with {}B lines, segment 0 \
                 through a {}B L1 with {}B lines (segments must share one L1 front-end)",
                found.0, found.1, expected.0, expected.1
            ),
            FamilyError::LineOutOfRange { event, line, max_line } => write!(
                f,
                "event {event} names line {line:#x}, beyond the last line of the 64-bit \
                 address space ({max_line:#x})"
            ),
            FamilyError::L1Geometry { l1_size_bytes, line_bytes } => write!(
                f,
                "a {l1_size_bytes}B L1 with {line_bytes}B lines is no L1 geometry: sizes must be \
                 powers of two with at least one line"
            ),
            FamilyError::WarmupOutOfRange { warmup_events, events } => write!(
                f,
                "warm-up boundary at event {warmup_events} lies outside the {events}-event stream"
            ),
        }
    }
}

impl Error for FamilyError {}

/// One family member: its L2 and that L2's counters for the current
/// segment. The cache's own statistics are never reset, so they are
/// lifetime totals.
#[derive(Debug)]
struct Member {
    l2: Cache,
    stats: HierarchyStats,
}

impl Member {
    fn new(cfg: &CacheConfig) -> Self {
        Member { l2: Cache::new(*cfg), stats: HierarchyStats::default() }
    }

    /// Lifetime LFSR victim draws. A pseudo-random set-associative L2
    /// draws exactly once per eviction: a fill into a free way draws
    /// nothing, and the exclusive swap's `fill_at` only reuses the way its
    /// hit just vacated, so it evicts nothing.
    fn lfsr_draws(&self) -> u64 {
        let cfg = self.l2.config();
        if cfg.replacement() == ReplacementKind::PseudoRandom && cfg.ways() > 1 {
            self.l2.stats().evictions
        } else {
            0
        }
    }
}

/// Validates that every member shares the stream's line size and one
/// associativity. Replacement policies may differ per member — each
/// member is its own [`Cache`].
fn check_family(l2_cfgs: &[CacheConfig], stream: &MissStream) -> Result<(), FamilyError> {
    let ways = l2_cfgs[0].ways();
    for cfg in l2_cfgs {
        if cfg.line_bytes() != stream.line_bytes() {
            return Err(FamilyError::LineSize {
                member: cfg.line_bytes(),
                stream: stream.line_bytes(),
            });
        }
        if cfg.ways() != ways {
            return Err(FamilyError::MixedWays { first: ways, other: cfg.ways() });
        }
    }
    Ok(())
}

/// Batched conventional back-end: each event takes every member through
/// [`ConventionalTwoLevel`](crate::ConventionalTwoLevel)'s L2 step.
#[derive(Debug)]
struct ConventionalFamily {
    members: Vec<Member>,
}

impl ConventionalFamily {
    fn new(l2_cfgs: &[CacheConfig]) -> Self {
        ConventionalFamily { members: l2_cfgs.iter().map(Member::new).collect() }
    }
}

impl EventSink for ConventionalFamily {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let victim = victim.map(|(line, dirty)| Evicted { line, dirty });
        for m in &mut self.members {
            conventional_step(&mut m.l2, &mut m.stats, line, victim);
        }
    }

    fn reset_counters(&mut self) {
        for m in &mut self.members {
            m.stats = HierarchyStats::default();
        }
    }
}

/// Batched exclusive back-end: each event takes every member through
/// [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel)'s L2 step, with the
/// member's own fill-dirty mirror (see the module docs).
#[derive(Debug)]
struct ExclusiveFamily {
    members: Vec<Member>,
    /// `states[k]`: member `k`'s mirror and swap count.
    states: Vec<ExclusiveState>,
}

impl ExclusiveFamily {
    fn new(l2_cfgs: &[CacheConfig], l1_sets: usize) -> Self {
        ExclusiveFamily {
            members: l2_cfgs.iter().map(Member::new).collect(),
            states: vec![ExclusiveState::new(l1_sets); l2_cfgs.len()],
        }
    }
}

impl EventSink for ExclusiveFamily {
    #[inline]
    fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let victim = victim.map(|(line, dirty)| Evicted { line, dirty });
        for (m, ex) in self.members.iter_mut().zip(&mut self.states) {
            exclusive_step(&mut m.l2, ex, &mut m.stats, fetch, line, victim);
        }
    }

    fn reset_counters(&mut self) {
        for m in &mut self.members {
            m.stats = HierarchyStats::default();
        }
    }
}

/// A batched L2 family: an [`EventSink`] over member caches. Implemented
/// by the conventional and exclusive families; [`replay_segments`]
/// drives either.
trait Family: EventSink {
    /// The members, in input order.
    fn members(&self) -> &[Member];

    /// Lifetime exclusive swaps summed over the members — never reset,
    /// like the LFSR itself.
    fn swaps(&self) -> u64;
}

/// Each member's L2 counters since the last counter reset, over the
/// segment's shared L1 statistics, in input order.
fn member_stats(members: &[Member], seg: &MissStream) -> Vec<HierarchyStats> {
    members
        .iter()
        .map(|m| HierarchyStats {
            l2_hits: m.stats.l2_hits,
            l2_misses: m.stats.l2_misses,
            offchip_writebacks: m.stats.offchip_writebacks,
            ..*seg.l1_stats()
        })
        .collect()
}

/// Sums `(lfsr_draws, liveness)` over `members`.
fn members_lifetime(members: &[Member]) -> (u64, Liveness) {
    let mut live = Liveness::default();
    for m in members {
        live.merge(m.l2.liveness());
    }
    (members.iter().map(Member::lfsr_draws).sum(), live)
}

impl Family for ConventionalFamily {
    fn members(&self) -> &[Member] {
        &self.members
    }

    fn swaps(&self) -> u64 {
        0
    }
}

impl Family for ExclusiveFamily {
    fn members(&self) -> &[Member] {
        &self.members
    }

    fn swaps(&self) -> u64 {
        self.states.iter().map(ExclusiveState::swaps).sum()
    }
}

/// Validates a segment list: at least one segment, all captured through
/// the first segment's L1 front-end.
fn check_segments(segments: &[MissStream]) -> Result<(), FamilyError> {
    let first = segments.first().ok_or(FamilyError::NoSegments)?;
    let expected = (first.l1_size_bytes(), first.line_bytes());
    for (segment, seg) in segments.iter().enumerate() {
        let found = (seg.l1_size_bytes(), seg.line_bytes());
        if found != expected {
            return Err(FamilyError::SegmentGeometry { segment, expected, found });
        }
    }
    Ok(())
}

/// Times one segment's replay as a phase slice when it is one of
/// several stitched segments (`None` for a lone stream, so whole-stream
/// sweeps never record the sampled-sweep histogram).
fn slice_timer(segments: &[MissStream]) -> Option<tlc_obs::HistTimer> {
    (segments.len() > 1).then(|| tlc_obs::HistTimer::start(tlc_obs::Hist::SampleSliceReplayNs))
}

/// The one replay loop: walks every segment through `fam` in order,
/// resetting its counters between segments (L2 state persists), and
/// returns `out[segment][member]`. Flushes the pass's totals to the
/// global counters: the events were decoded once (`l2.events_replayed`
/// counts passes × events, exposing the family's fan-in), while
/// probes/hits/misses/writebacks/liveness sum over the members.
fn replay_segments<F: Family>(mut fam: F, segments: &[MissStream]) -> Vec<Vec<HierarchyStats>> {
    let mut out = Vec::with_capacity(segments.len());
    for seg in segments {
        fam.reset_counters();
        {
            let _t = slice_timer(segments);
            walk_events(&mut fam, seg);
        }
        out.push(member_stats(fam.members(), seg));
    }
    let (draws, live) = members_lifetime(fam.members());
    flush_l2_counters(segments, &out, (draws, fam.swaps(), live));
    out
}

/// Flushes one replay pass's totals to the global counters. The
/// measured-window hits/misses/writebacks sum over every segment and
/// member; `draws`/`swaps`/`live` are lifetime totals (warm-up included
/// — the LFSR, the swap path, and the fill-generation tallies are never
/// reset).
fn flush_l2_counters(
    segments: &[MissStream],
    out: &[Vec<HierarchyStats>],
    (draws, swaps, live): (u64, u64, Liveness),
) {
    let sum = |f: fn(&HierarchyStats) -> u64| -> u64 { out.iter().flatten().map(f).sum() };
    let (hits, misses) = (sum(|s| s.l2_hits), sum(|s| s.l2_misses));
    let events: u64 = segments.iter().map(MissStream::len).sum();
    tlc_obs::obs_count!(tlc_obs::Counter::L2EventsReplayed, events);
    tlc_obs::obs_count!(tlc_obs::Counter::L2Hits, hits);
    tlc_obs::obs_count!(tlc_obs::Counter::L2Misses, misses);
    tlc_obs::obs_count!(tlc_obs::Counter::L2Probes, hits + misses);
    tlc_obs::obs_count!(tlc_obs::Counter::L2Writebacks, sum(|s| s.offchip_writebacks));
    tlc_obs::obs_count!(tlc_obs::Counter::L2LfsrDraws, draws);
    tlc_obs::obs_count!(tlc_obs::Counter::L2ExclusiveSwaps, swaps);
    tlc_obs::obs_count!(tlc_obs::Counter::L2Fills, live.fills);
    tlc_obs::obs_count!(tlc_obs::Counter::L2DeadOnArrival, live.dead_on_arrival);
    tlc_obs::obs_count!(tlc_obs::Counter::L2LiveFills, live.live_fills);
    tlc_obs::obs_count!(tlc_obs::Counter::L2MultiHit, live.multi_hit);
}

/// Replays a sequence of segments through one family of conventional
/// L2s, returning per-segment, per-member statistics
/// (`out[segment][member]`, members in `l2_cfgs` input order), each
/// bit-identical to [`ConventionalTwoLevel`](crate::ConventionalTwoLevel)
/// on the original reference stream. Family state persists across
/// segments (see the module docs); pass `std::slice::from_ref(stream)`
/// to replay one whole stream.
///
/// Every associativity takes the same batched loop, direct-mapped
/// included. Every replacement policy is supported, and members may mix
/// policies.
///
/// # Errors
///
/// [`FamilyError::NoSegments`] or [`FamilyError::SegmentGeometry`] for
/// an empty or mixed-front-end segment list; [`FamilyError::LineSize`]
/// or [`FamilyError::MixedWays`] if a member's line size differs from
/// the segments' or members disagree on associativity.
pub fn try_replay_conventional_family_segments(
    l2_cfgs: &[CacheConfig],
    segments: &[MissStream],
) -> Result<Vec<Vec<HierarchyStats>>, FamilyError> {
    check_segments(segments)?;
    if l2_cfgs.is_empty() {
        return Ok(vec![Vec::new(); segments.len()]);
    }
    check_family(l2_cfgs, &segments[0])?;
    Ok(replay_segments(ConventionalFamily::new(l2_cfgs), segments))
}

/// As [`try_replay_conventional_family_segments`] for a family of
/// exclusive (victim-swap) L2s, each member bit-identical to
/// [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel): member caches and
/// their fill-dirty mirrors stitch across segments.
///
/// # Errors
///
/// As [`try_replay_conventional_family_segments`].
pub fn try_replay_exclusive_family_segments(
    l2_cfgs: &[CacheConfig],
    segments: &[MissStream],
) -> Result<Vec<Vec<HierarchyStats>>, FamilyError> {
    check_segments(segments)?;
    if l2_cfgs.is_empty() {
        return Ok(vec![Vec::new(); segments.len()]);
    }
    check_family(l2_cfgs, &segments[0])?;
    Ok(replay_segments(ExclusiveFamily::new(l2_cfgs, segments[0].l1_sets()), segments))
}

/// Per-segment single-level statistics for `members` configurations:
/// there is no L2 state to stitch, so each segment is walked once
/// through the single-level sink and its statistics shared by every
/// member.
///
/// # Errors
///
/// [`FamilyError::NoSegments`] or [`FamilyError::SegmentGeometry`] for
/// an empty or mixed-front-end segment list.
pub fn try_replay_single_family_segments(
    segments: &[MissStream],
    members: usize,
) -> Result<Vec<Vec<HierarchyStats>>, FamilyError> {
    check_segments(segments)?;
    Ok(segments
        .iter()
        .map(|seg| {
            let _t = slice_timer(segments);
            vec![replay_single(seg); members]
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;
    use crate::filter::L1FrontEnd;
    use crate::hierarchy::MemorySystem;
    use crate::oracle::{naive_replay_conventional, naive_replay_exclusive};
    use crate::twolevel::ConventionalTwoLevel;
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::InstructionSource;

    fn l1_cfg(bytes: u64) -> CacheConfig {
        CacheConfig::new(bytes, 16, Associativity::Direct, ReplacementKind::PseudoRandom).unwrap()
    }

    fn l2_cfg(bytes: u64, ways: u32) -> CacheConfig {
        l2_policy_cfg(bytes, ways, ReplacementKind::PseudoRandom)
    }

    fn l2_policy_cfg(bytes: u64, ways: u32, repl: ReplacementKind) -> CacheConfig {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        CacheConfig::new(bytes, 16, assoc, repl).unwrap()
    }

    fn capture(b: SpecBenchmark, l1_bytes: u64, warm: u64, n: u64) -> MissStream {
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

    /// One whole stream through a conventional family.
    fn conventional(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
        let mut out = try_replay_conventional_family_segments(cfgs, std::slice::from_ref(stream))
            .expect("valid family");
        out.pop().expect("one segment")
    }

    /// One whole stream through an exclusive family.
    fn exclusive(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
        let mut out = try_replay_exclusive_family_segments(cfgs, std::slice::from_ref(stream))
            .expect("valid family");
        out.pop().expect("one segment")
    }

    fn oracle_conventional(cfg: &CacheConfig, stream: &MissStream) -> HierarchyStats {
        naive_replay_conventional(cfg.size_bytes(), cfg.ways(), cfg.replacement(), stream)
    }

    fn oracle_exclusive(cfg: &CacheConfig, stream: &MissStream) -> HierarchyStats {
        naive_replay_exclusive(cfg.size_bytes(), cfg.ways(), cfg.replacement(), stream)
    }

    #[test]
    fn conventional_family_matches_oracle() {
        for ways in [1u32, 4] {
            let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
            let cfgs: Vec<CacheConfig> =
                [2048u64, 4096, 8192, 32768].map(|b| l2_cfg(b, ways)).to_vec();
            let batched = conventional(&cfgs, &stream);
            for (cfg, got) in cfgs.iter().zip(&batched) {
                assert_eq!(*got, oracle_conventional(cfg, &stream), "ways={ways} {cfg}");
            }
        }
    }

    #[test]
    fn exclusive_family_matches_oracle() {
        for ways in [1u32, 4] {
            let stream = capture(SpecBenchmark::Li, 1024, 2_000, 8_000);
            let cfgs: Vec<CacheConfig> =
                [2048u64, 4096, 8192, 32768].map(|b| l2_cfg(b, ways)).to_vec();
            let batched = exclusive(&cfgs, &stream);
            for (cfg, got) in cfgs.iter().zip(&batched) {
                assert_eq!(*got, oracle_exclusive(cfg, &stream), "ways={ways} {cfg}");
            }
        }
    }

    #[test]
    fn family_matches_oracle_for_every_policy() {
        let conv_stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        let excl_stream = capture(SpecBenchmark::Li, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            for ways in [2u32, 4, 8, 16] {
                let cfgs: Vec<CacheConfig> =
                    [2048u64, 8192, 32768].map(|b| l2_policy_cfg(b, ways, repl)).to_vec();
                let conv = conventional(&cfgs, &conv_stream);
                let excl = exclusive(&cfgs, &excl_stream);
                for (cfg, (c, e)) in cfgs.iter().zip(conv.iter().zip(&excl)) {
                    assert_eq!(*c, oracle_conventional(cfg, &conv_stream), "{repl} {cfg}");
                    assert_eq!(*e, oracle_exclusive(cfg, &excl_stream), "{repl} {cfg}");
                }
            }
        }
    }

    #[test]
    fn mixed_policy_family_matches_families_of_one() {
        // Members carry their own replacement banks, so one family can
        // mix policies freely: batching must not change any member.
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 6_000);
        let cfgs: Vec<CacheConfig> = ReplacementKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &r)| l2_policy_cfg(2048 << i, 4, r))
            .collect();
        let batched = conventional(&cfgs, &stream);
        for (cfg, got) in cfgs.iter().zip(&batched) {
            assert_eq!(*got, conventional(std::slice::from_ref(cfg), &stream)[0], "{cfg}");
            assert_eq!(*got, oracle_conventional(cfg, &stream), "{cfg}");
        }
    }

    #[test]
    fn dm_family_handles_unsorted_and_duplicate_sizes() {
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 6_000);
        let cfgs: Vec<CacheConfig> = [8192u64, 2048, 8192, 4096].map(|b| l2_cfg(b, 1)).to_vec();
        let batched = conventional(&cfgs, &stream);
        for (cfg, got) in cfgs.iter().zip(&batched) {
            assert_eq!(*got, oracle_conventional(cfg, &stream), "{cfg}");
        }
        assert_eq!(batched[0], batched[2], "duplicate sizes share statistics");
    }

    #[test]
    fn dm_family_misses_are_monotone_in_size() {
        let stream = capture(SpecBenchmark::Tomcatv, 1024, 1_000, 8_000);
        let cfgs: Vec<CacheConfig> =
            [2048u64, 4096, 8192, 16384, 32768].map(|b| l2_cfg(b, 1)).to_vec();
        let stats = conventional(&cfgs, &stream);
        for pair in stats.windows(2) {
            assert!(
                pair[1].l2_misses <= pair[0].l2_misses,
                "a bigger DM L2 can never miss more on the same stream"
            );
        }
    }

    #[test]
    fn warmup_boundary_resets_family_counters() {
        let stream = capture(SpecBenchmark::Fpppp, 1024, 3_000, 3_000);
        for cfgs in [[l2_cfg(4096, 4), l2_cfg(16384, 4)], [l2_cfg(4096, 1), l2_cfg(16384, 1)]] {
            let conv = conventional(&cfgs, &stream);
            let excl = exclusive(&cfgs, &stream);
            for (cfg, (c, e)) in cfgs.iter().zip(conv.iter().zip(&excl)) {
                assert_eq!(*c, oracle_conventional(cfg, &stream));
                assert_eq!(*e, oracle_exclusive(cfg, &stream));
                assert_eq!(c.instructions, 3_000);
            }
        }
    }

    #[test]
    fn empty_family_and_empty_window() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 0);
        let one = std::slice::from_ref(&stream);
        assert_eq!(try_replay_conventional_family_segments(&[], one), Ok(vec![Vec::new()]));
        assert_eq!(try_replay_exclusive_family_segments(&[], one), Ok(vec![Vec::new()]));
        let cfgs = [l2_cfg(4096, 4)];
        assert_eq!(conventional(&cfgs, &stream)[0], HierarchyStats::default());
        assert_eq!(exclusive(&cfgs, &stream)[0], HierarchyStats::default());
        assert_eq!(
            try_replay_single_family_segments(one, 3),
            Ok(vec![vec![HierarchyStats::default(); 3]])
        );
    }

    #[test]
    fn rejects_mixed_associativity() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 500);
        let err = try_replay_conventional_family_segments(
            &[l2_cfg(4096, 4), l2_cfg(8192, 2)],
            std::slice::from_ref(&stream),
        )
        .expect_err("mixed ways are rejected");
        assert!(err.to_string().contains("associativity"), "got: {err}");
    }

    #[test]
    fn try_variants_return_typed_errors_instead_of_panicking() {
        let stream = capture(SpecBenchmark::Li, 1024, 500, 500);
        let one = std::slice::from_ref(&stream);
        let mixed = [l2_cfg(4096, 4), l2_cfg(8192, 2)];
        assert_eq!(
            try_replay_conventional_family_segments(&mixed, one),
            Err(FamilyError::MixedWays { first: 4, other: 2 })
        );
        assert_eq!(
            try_replay_exclusive_family_segments(&mixed, one),
            Err(FamilyError::MixedWays { first: 4, other: 2 })
        );
        let wide_line =
            CacheConfig::new(4096, 32, Associativity::SetAssoc(4), ReplacementKind::Lru).unwrap();
        assert_eq!(
            try_replay_conventional_family_segments(&[wide_line], one),
            Err(FamilyError::LineSize { member: 32, stream: 16 })
        );
    }

    #[test]
    fn no_segments_is_a_typed_error() {
        let cfgs = [l2_cfg(4096, 4)];
        assert_eq!(
            try_replay_conventional_family_segments(&cfgs, &[]),
            Err(FamilyError::NoSegments)
        );
        assert_eq!(try_replay_exclusive_family_segments(&cfgs, &[]), Err(FamilyError::NoSegments));
        assert_eq!(try_replay_single_family_segments(&[], 2), Err(FamilyError::NoSegments));
        assert!(FamilyError::NoSegments.to_string().contains("at least one segment"));
    }

    #[test]
    fn segments_from_different_front_ends_are_a_typed_error() {
        let segments = [
            capture(SpecBenchmark::Li, 1024, 500, 500),
            capture(SpecBenchmark::Li, 2048, 500, 500),
        ];
        let want =
            FamilyError::SegmentGeometry { segment: 1, expected: (1024, 16), found: (2048, 16) };
        let cfgs = [l2_cfg(8192, 4)];
        assert_eq!(try_replay_conventional_family_segments(&cfgs, &segments), Err(want));
        assert_eq!(try_replay_exclusive_family_segments(&cfgs, &segments), Err(want));
        assert_eq!(try_replay_single_family_segments(&segments, 1), Err(want));
        assert!(want.to_string().contains("one L1 front-end"), "got: {want}");
    }

    #[test]
    fn family_liveness_matches_per_access_hierarchy() {
        // The same 10k instructions, once through a per-access hierarchy
        // and once captured and replayed: the L2 sees the same step
        // sequence either way, warm-up included.
        let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            for ways in [1u32, 4] {
                let cfgs = [l2_policy_cfg(4096, ways, repl), l2_policy_cfg(16384, ways, repl)];
                let mut fam = ConventionalFamily::new(&cfgs);
                walk_events(&mut fam, &stream);
                for (cfg, m) in cfgs.iter().zip(&fam.members) {
                    let mut sys = ConventionalTwoLevel::new(l1_cfg(1024), *cfg);
                    let mut w = SpecBenchmark::Gcc1.workload();
                    for _ in 0..10_000 {
                        sys.access_instruction(&w.next_instruction_opt().unwrap());
                    }
                    let got = m.l2.liveness();
                    assert_eq!(got, sys.l2().liveness(), "{repl} {cfg}");
                    assert_eq!(got.fills, got.dead_on_arrival + got.live_fills, "{repl} {cfg}");
                    assert!(got.multi_hit <= got.live_fills, "{repl} {cfg}");
                }
            }
        }
    }
}
