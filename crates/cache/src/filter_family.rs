//! The L2 back-end: one pass over a miss stream drives *every* L2 size
//! of a configuration family at once, across any number of stitched
//! segments.
//!
//! The design spaces of the paper vary, for a fixed L1, only the L2
//! *capacity* (§2.1: L2 from 2×L1 up to 256KB, same 16B lines, same
//! associativity), so "one L1 miss stream, every L2 size" is the only
//! replay shape a sweep needs. One decode of each event fans into N
//! structure-of-arrays L2 states — per-configuration slot arrays,
//! counters, a per-member replacement bank (`ReplBank`)
//! holding the policy words (LRU/FIFO stamps, PLRU tree bits, SRRIP
//! RRPVs) alongside the `(line<<1)|dirty` slot words, and crucially a
//! **per-configuration [`Lfsr16`]**, so pseudo-random replacement draws
//! happen in exactly the order a standalone
//! [`ConventionalTwoLevel`](crate::ConventionalTwoLevel) or
//! [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel) would make them and
//! every statistic stays bit-identical.
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
//! and members never share mutable state. Replacement state is a replica
//! of the scalar [`Cache`](crate::Cache)'s: the same `ReplBank` state
//! machines, driven by the same touch/fill/victim call sequence the
//! monolithic hierarchies issue — so stamp clocks, tree bits, and RRPVs
//! evolve identically, and the only stateful randomness (the
//! pseudo-random LFSR, consulted *only* when a set-associative fill finds
//! no free way) is carried per member with the same seed as a fresh
//! `Cache`. Members may even mix replacement policies: each bank is
//! built from its own member's configuration.
//!
//! The exclusive hierarchy has one L2-dependent bit of L1 state: an
//! L1-miss/L2-hit fills the L1 line dirty if the extracted L2 copy was
//! dirty, and the event stream records only the store-only component
//! ([`VictimLine::written`](tlc_trace::VictimLine)). The exclusive
//! back-end therefore keeps a per-L1-set mirror (one bool per set per
//! side, the L1 being direct-mapped) of "the current resident was filled
//! from a dirty L2 extract"; a victim's true dirty bit is
//! `written || mirror[set]`, read before the new fill overwrites the
//! entry (victim and filled line share the set by construction). The
//! mirror must be per member — its entries come out of the member's own
//! L2 extracts, whose dirty bits depend on L2 capacity (see
//! `docs/models.md`).
//!
//! ## The direct-mapped fast path
//!
//! For a conventional family of direct-mapped L2s the batched loop
//! collapses further: nested power-of-two DM caches index with prefix
//! bits, and demand-filled content is *inclusive* across sizes (resident
//! at size S ⇒ resident at 2S), so one "smallest hitting size" threshold
//! per access answers the whole family. Hits and victim writebacks then
//! accumulate into per-threshold histograms instead of per-member
//! counters — see `DmConventionalFamily` for the invariant. Replacement
//! policy is irrelevant at one way per set, so the fast path serves every
//! [`ReplacementKind`](crate::ReplacementKind).
//!
//! ## Segments
//!
//! The family state — slot arrays, replacement banks, LFSRs, exclusive
//! mirrors — is built **once** and persists across segments: segment `k`
//! starts from the (stale) contents segment `k-1` left behind, its
//! warm-up prefix refreshes that state, and its counters reset at its own
//! warm-up boundary. This is the L2 half of stitched warming for sampled
//! sweeps; each segment cut by
//! [`L1FrontEnd::take_stream`](crate::L1FrontEnd::take_stream) is timed
//! into the `sample.slice_replay_ns` histogram.
//!
//! ## Errors instead of panics
//!
//! An unsupported family or segment shape surfaces as a typed
//! [`FamilyError`]; nothing in this module panics on caller input.

use crate::cache::{Liveness, ReplBank};
use crate::config::CacheConfig;
use crate::filter::{replay_single, walk_events, EventSink, MissStream};
use crate::replacement::Lfsr16;
use crate::stats::HierarchyStats;
use std::error::Error;
use std::fmt;
use tlc_trace::LineAddr;

/// Slot encoding: `(line << 1) | dirty`, with `u64::MAX` as the invalid
/// sentinel. `INVALID >> 1` is `2^63 - 1`, which can never equal a real
/// line address (lines are byte addresses divided by the line size), so
/// a single shifted compare tests "valid and tag matches".
const INVALID: u64 = u64::MAX;

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
    /// Members disagree on associativity; the batched set scans
    /// monomorphise on a single way count.
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
        }
    }
}

impl Error for FamilyError {}

/// One member's L2 array plus its private replacement bank, counters,
/// liveness tallies, and LFSR.
///
/// Slots are set-major (`slots[set * ways + way]`), matching
/// [`Cache`](crate::Cache)'s layout, but hold one packed `u64` per way
/// instead of a 16-byte `Way` struct: half the memory touched per probe.
/// The policy words live in the member's [`ReplBank`] — the same state
/// machines the scalar cache uses, so bit-compatibility holds by
/// construction.
#[derive(Debug)]
struct L2State {
    slots: Vec<u64>,
    set_mask: u64,
    repl: ReplBank,
    lfsr: Lfsr16,
    hits: u64,
    misses: u64,
    writebacks: u64,
    /// Lifetime LFSR victim draws (only pseudo-random members ever
    /// draw). Not touched by [`L2State::reset_counters`] — the LFSR
    /// itself is never reset.
    lfsr_draws: u64,
    /// Lifetime fig-21a swaps (exclusive families only; lifetime for the
    /// same reason as `lfsr_draws`).
    swaps: u64,
    /// Per-slot demand-hit counts since the slot's last fill, saturating
    /// at 255.
    hit_counts: Vec<u8>,
    /// Departed fill-generation tallies (see
    /// [`Liveness`](crate::Liveness)); lifetime, like `lfsr_draws`.
    live: crate::cache::LiveTally,
}

impl L2State {
    fn new(cfg: &CacheConfig) -> Self {
        let lines = cfg.lines() as usize;
        L2State {
            slots: vec![INVALID; lines],
            set_mask: cfg.num_sets() - 1,
            repl: ReplBank::new(cfg.replacement(), cfg.num_sets() as usize, cfg.ways() as usize),
            lfsr: Lfsr16::default(),
            hits: 0,
            misses: 0,
            writebacks: 0,
            lfsr_draws: 0,
            swaps: 0,
            hit_counts: vec![0; lines],
            live: crate::cache::LiveTally::default(),
        }
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Counts a demand hit on the slot at `idx`.
    #[inline]
    fn note_hit(&mut self, idx: usize) {
        let c = &mut self.hit_counts[idx];
        *c = c.saturating_add(1);
    }

    /// Lifetime liveness, classifying still-resident slots by their hits
    /// so far — the member-level analogue of
    /// [`Cache::liveness`](crate::Cache::liveness).
    fn liveness(&self) -> Liveness {
        self.live.snapshot(
            self.slots.iter().zip(&self.hit_counts).filter(|(&s, _)| s != INVALID).map(|(_, &h)| h),
        )
    }

    /// Replica of
    /// [`Cache::fill_after_miss`](crate::Cache::fill_after_miss) for any
    /// policy: a 1-way set fills its only way with no replacement
    /// bookkeeping; otherwise a free way is taken first (no draw), else
    /// the bank picks a victim (one LFSR draw for pseudo-random members)
    /// — exactly the scalar call order, so stamp clocks and RRPVs match.
    /// Counts a dirty eviction as an off-chip writeback.
    #[inline]
    fn fill_after_miss(&mut self, ways: usize, line: u64, dirty: bool) {
        let set = (line & self.set_mask) as usize;
        let base = set * ways;
        let way = if ways == 1 {
            0
        } else if let Some(i) = (0..ways).find(|&i| self.slots[base + i] == INVALID) {
            self.repl.filled(set, ways, i as u32, ways as u32);
            i
        } else {
            if matches!(self.repl, ReplBank::Random) {
                self.lfsr_draws += 1;
            }
            let w = self.repl.victim(set, ways, ways as u32, &mut self.lfsr);
            self.repl.filled(set, ways, w, ways as u32);
            w as usize
        };
        let old = self.slots[base + way];
        self.live.fill();
        if old != INVALID {
            self.live.retire(self.hit_counts[base + way]);
        }
        self.hit_counts[base + way] = 0;
        if old != INVALID && old & 1 == 1 {
            self.writebacks += 1;
        }
        self.slots[base + way] = (line << 1) | dirty as u64;
    }

    /// Replica of
    /// [`Cache::merge_if_present`](crate::Cache::merge_if_present):
    /// merge the dirty bit into a resident copy and refresh its
    /// replacement state, reporting whether one was found. A write-back
    /// merge is not a demand hit, so the liveness tallies don't move.
    #[inline]
    fn merge_if_present(&mut self, ways: usize, line: u64, dirty: bool) -> bool {
        let set = (line & self.set_mask) as usize;
        let base = set * ways;
        for i in 0..ways {
            if self.slots[base + i] >> 1 == line {
                self.slots[base + i] |= dirty as u64;
                self.repl.touch(set, ways, i as u32, ways as u32);
                return true;
            }
        }
        false
    }
}

/// Shared geometry of a family: the associativity every member agrees on
/// (validated by [`FamilyWays::try_of`]).
#[derive(Debug, Clone, Copy)]
struct FamilyWays {
    ways: usize,
}

impl FamilyWays {
    /// Validates that every member shares the stream's line size and one
    /// associativity. Replacement policies may differ per member — each
    /// member carries its own [`ReplBank`].
    fn try_of(l2_cfgs: &[CacheConfig], stream: &MissStream) -> Result<FamilyWays, FamilyError> {
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
        Ok(FamilyWays { ways: ways as usize })
    }
}

/// Batched conventional back-end, one [`L2State`] per member: per event,
/// each member issues the monolithic
/// [`ConventionalTwoLevel`](crate::ConventionalTwoLevel) miss path's L2
/// calls — probe, fill on a miss, then merge a written L1 victim.
///
/// `W` is the compile-time associativity — the hot set scans unroll for
/// the common widths (2/4/8-way); `W = 0` selects the dynamic fallback
/// that reads the width from [`FamilyWays`] at run time.
#[derive(Debug)]
struct ConventionalFamily<const W: usize> {
    states: Vec<L2State>,
    fw: FamilyWays,
}

impl<const W: usize> ConventionalFamily<W> {
    fn new(l2_cfgs: &[CacheConfig], fw: FamilyWays) -> Self {
        ConventionalFamily { states: l2_cfgs.iter().map(L2State::new).collect(), fw }
    }
}

impl<const W: usize> EventSink for ConventionalFamily<W> {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let ways = if W == 0 { self.fw.ways } else { W };
        for st in &mut self.states {
            let set = (l & st.set_mask) as usize;
            let base = set * ways;
            let hit = (0..ways).find(|&i| st.slots[base + i] >> 1 == l);
            if let Some(hw) = hit {
                // `access(line, false)`: the dirty-merge of `false` is a
                // no-op, but the policy touch is not (LRU/PLRU/SRRIP all
                // promote on hits).
                st.hits += 1;
                if ways > 1 {
                    st.repl.touch(set, ways, hw as u32, ways as u32);
                }
                st.note_hit(base + hw);
            } else {
                st.misses += 1;
                st.fill_after_miss(ways, l, false);
            }
            if let Some((vline, written)) = victim {
                if written && !st.merge_if_present(ways, vline.0, true) {
                    st.writebacks += 1;
                }
            }
        }
    }

    fn reset_counters(&mut self) {
        for st in &mut self.states {
            st.reset_counters();
        }
    }
}

/// One member of the batched exclusive back-end, mirroring
/// [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel)'s extract/swap
/// sequence. The per-L1-set fill-dirty mirror is carried **per member**: a mirror entry records whether the member's own L2
/// extract was dirty, which depends on that member's capacity (see the
/// module docs).
#[derive(Debug)]
struct ExclusiveFamilyMember {
    l2: L2State,
    /// "Current resident was filled from a dirty L2 extract", per L1I set.
    mirror_i: Vec<bool>,
    /// Same, per L1D set.
    mirror_d: Vec<bool>,
}

#[derive(Debug)]
struct ExclusiveFamily<const W: usize> {
    members: Vec<ExclusiveFamilyMember>,
    fw: FamilyWays,
    l1_set_mask: u64,
}

impl<const W: usize> ExclusiveFamily<W> {
    fn new(l2_cfgs: &[CacheConfig], fw: FamilyWays, l1_sets: usize) -> Self {
        ExclusiveFamily {
            members: l2_cfgs
                .iter()
                .map(|cfg| ExclusiveFamilyMember {
                    l2: L2State::new(cfg),
                    mirror_i: vec![false; l1_sets],
                    mirror_d: vec![false; l1_sets],
                })
                .collect(),
            fw,
            l1_set_mask: l1_sets as u64 - 1,
        }
    }
}

impl<const W: usize> EventSink for ExclusiveFamily<W> {
    #[inline]
    fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let ways = if W == 0 { self.fw.ways } else { W };
        let set = (l & self.l1_set_mask) as usize;
        for m in &mut self.members {
            let mirror = if fetch { &mut m.mirror_i } else { &mut m.mirror_d };
            // Read the victim's fill-dirty component BEFORE the new fill
            // overwrites the set's mirror entry.
            let victim = victim.map(|(vline, written)| (vline.0, written || mirror[set]));
            let st = &mut m.l2;
            let l2_set = (l & st.set_mask) as usize;
            let base = l2_set * ways;
            let hit_way = (0..ways).find(|&w| st.slots[base + w] >> 1 == l);
            if let Some(hw) = hit_way {
                // `access`: count the hit, touch, bump the hit count...
                st.hits += 1;
                if ways > 1 {
                    st.repl.touch(l2_set, ways, hw as u32, ways as u32);
                }
                st.note_hit(base + hw);
                // ...then `extract`: read the dirty bit, end the slot's
                // fill generation (its hits include the one just
                // counted), and free the slot.
                let dirty = st.slots[base + hw] & 1;
                st.slots[base + hw] = INVALID;
                st.live.retire(st.hit_counts[base + hw]);
                st.hit_counts[base + hw] = 0;
                mirror[set] = dirty == 1;
                match victim {
                    Some((vl, vdirty)) => {
                        if (vl & st.set_mask) == (l & st.set_mask)
                            && !st.slots[base..base + ways].iter().any(|&s| s >> 1 == vl)
                        {
                            // Figure 21-a swap: the victim takes the
                            // requested line's way (`fill_at(vline)`).
                            st.swaps += 1;
                            st.live.fill();
                            st.slots[base + hw] = (vl << 1) | vdirty as u64;
                            st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                        } else {
                            // `fill_at(line)` back into its freed way,
                            // then send the victim separately.
                            st.live.fill();
                            st.slots[base + hw] = (l << 1) | dirty;
                            st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                            if !st.merge_if_present(ways, vl, vdirty) {
                                st.fill_after_miss(ways, vl, vdirty);
                            }
                        }
                    }
                    None => {
                        st.live.fill();
                        st.slots[base + hw] = (l << 1) | dirty;
                        st.repl.filled(l2_set, ways, hw as u32, ways as u32);
                    }
                }
            } else {
                st.misses += 1;
                // Off-chip refill bypasses the L2: no fill-dirty component.
                mirror[set] = false;
                if let Some((vl, vdirty)) = victim {
                    if !st.merge_if_present(ways, vl, vdirty) {
                        st.fill_after_miss(ways, vl, vdirty);
                    }
                }
            }
        }
    }

    fn reset_counters(&mut self) {
        for m in &mut self.members {
            m.l2.reset_counters();
        }
    }
}

/// Batched conventional direct-mapped fast path.
///
/// Invariant (maintained inductively, sizes sorted ascending): a
/// demand-filled DM cache's set `s` holds exactly the most recent event
/// line in `s`'s conflict group, and nested power-of-two set masks nest
/// the conflict groups — so residency is *inclusive* across the family
/// (resident at size `k` ⇒ resident at every larger size). Each access
/// therefore has one threshold `t` = smallest size index that hits; the
/// event is a hit for every member `k ≥ t` and installs (evicting) for
/// every `k < t`. Victim merges get the same treatment with their own
/// threshold. Hits and victim writebacks accumulate into per-threshold
/// histograms (index `K` = "nowhere"), turned into per-member counters
/// by prefix sums at the end.
///
/// Dirty bits are *not* inclusive (an install at a small size clears the
/// bit a larger size preserves), so they live in the per-size slot
/// arrays as usual — and so do the per-set hit counts behind the
/// liveness tallies, which follow each member's own fill generations.
#[derive(Debug)]
struct DmConventionalFamily {
    /// `order[k]`: input index of the `k`-th smallest member (a stable
    /// sort, so duplicate sizes keep their relative order).
    order: Vec<usize>,
    /// Per size (ascending): one slot per set.
    slots: Vec<Vec<u64>>,
    set_masks: Vec<u64>,
    /// `hit_hist[t]`: events whose smallest hitting size index is `t`.
    hit_hist: Vec<u64>,
    /// `vic_hist[t]`: written victims whose smallest resident size is `t`.
    vic_hist: Vec<u64>,
    /// Dirty evictions on install, per size.
    evict_wb: Vec<u64>,
    /// Per size: per-set demand-hit counts since the slot's last install.
    hit_counts: Vec<Vec<u8>>,
    /// Per size: departed fill-generation tallies.
    live: Vec<crate::cache::LiveTally>,
}

impl DmConventionalFamily {
    fn new(cfgs: &[CacheConfig]) -> Self {
        let mut order: Vec<usize> = (0..cfgs.len()).collect();
        order.sort_by_key(|&i| cfgs[i].size_bytes());
        let cfgs_ascending: Vec<&CacheConfig> = order.iter().map(|&i| &cfgs[i]).collect();
        let k = cfgs_ascending.len();
        DmConventionalFamily {
            order,
            slots: cfgs_ascending.iter().map(|c| vec![INVALID; c.num_sets() as usize]).collect(),
            set_masks: cfgs_ascending.iter().map(|c| c.num_sets() - 1).collect(),
            hit_hist: vec![0; k + 1],
            vic_hist: vec![0; k + 1],
            evict_wb: vec![0; k],
            hit_counts: cfgs_ascending.iter().map(|c| vec![0; c.num_sets() as usize]).collect(),
            live: vec![crate::cache::LiveTally::default(); k],
        }
    }

    /// Smallest size index at which `line` is resident, or `len` if none.
    #[inline]
    fn threshold(&self, line: u64) -> usize {
        for (k, mask) in self.set_masks.iter().enumerate() {
            if self.slots[k][(line & mask) as usize] >> 1 == line {
                return k;
            }
        }
        self.set_masks.len()
    }

    /// Family-total liveness: each member's tallies snapshotted over its
    /// residents, then summed (the obs counters aggregate members).
    fn liveness_total(&self) -> Liveness {
        let mut total = Liveness::default();
        for (k, live) in self.live.iter().enumerate() {
            total.merge(
                live.snapshot(
                    self.slots[k]
                        .iter()
                        .zip(&self.hit_counts[k])
                        .filter(|(&s, _)| s != INVALID)
                        .map(|(_, &h)| h),
                ),
            );
        }
        total
    }
}

impl EventSink for DmConventionalFamily {
    #[inline]
    fn consume(&mut self, _fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
        let l = line.0;
        let t = self.threshold(l);
        self.hit_hist[t] += 1;
        // Sizes at or above the threshold hit: a demand hit on each
        // member's resident generation.
        for k in t..self.set_masks.len() {
            let c = &mut self.hit_counts[k][(l & self.set_masks[k]) as usize];
            *c = c.saturating_add(1);
        }
        for k in 0..t {
            let idx = (l & self.set_masks[k]) as usize;
            let slot = self.slots[k][idx];
            if slot != INVALID && slot & 1 == 1 {
                self.evict_wb[k] += 1;
            }
            self.live[k].fill();
            if slot != INVALID {
                self.live[k].retire(self.hit_counts[k][idx]);
            }
            self.hit_counts[k][idx] = 0;
            self.slots[k][idx] = l << 1;
        }
        if let Some((vline, written)) = victim {
            if written {
                let vl = vline.0;
                let tv = self.threshold(vl);
                self.vic_hist[tv] += 1;
                // Write-back merges refresh the dirty bit only — not a
                // demand hit, so the hit counts stay put.
                for k in tv..self.set_masks.len() {
                    self.slots[k][(vl & self.set_masks[k]) as usize] |= 1;
                }
            }
        }
    }

    fn reset_counters(&mut self) {
        self.hit_hist.iter_mut().for_each(|h| *h = 0);
        self.vic_hist.iter_mut().for_each(|h| *h = 0);
        self.evict_wb.iter_mut().for_each(|h| *h = 0);
    }
}

/// A batched L2 family: an [`EventSink`] that reports every member's
/// counters. Implemented by the conventional, exclusive, and
/// direct-mapped families; [`replay_segments`] drives any of them.
trait Family: EventSink {
    /// Per-member `(l2_hits, l2_misses, offchip_writebacks)` since the
    /// last counter reset, in input order.
    fn member_counters(&self) -> Vec<(u64, u64, u64)>;

    /// Lifetime `(lfsr_draws, swaps, liveness)` summed over the members
    /// — never reset, like the LFSR itself.
    fn lifetime(&self) -> (u64, u64, Liveness);
}

impl<const W: usize> Family for ConventionalFamily<W> {
    fn member_counters(&self) -> Vec<(u64, u64, u64)> {
        self.states.iter().map(|st| (st.hits, st.misses, st.writebacks)).collect()
    }

    fn lifetime(&self) -> (u64, u64, Liveness) {
        let mut live = Liveness::default();
        for st in &self.states {
            live.merge(st.liveness());
        }
        (self.states.iter().map(|st| st.lfsr_draws).sum(), 0, live)
    }
}

impl<const W: usize> Family for ExclusiveFamily<W> {
    fn member_counters(&self) -> Vec<(u64, u64, u64)> {
        self.members.iter().map(|m| (m.l2.hits, m.l2.misses, m.l2.writebacks)).collect()
    }

    fn lifetime(&self) -> (u64, u64, Liveness) {
        let mut live = Liveness::default();
        for m in &self.members {
            live.merge(m.l2.liveness());
        }
        (
            self.members.iter().map(|m| m.l2.lfsr_draws).sum(),
            self.members.iter().map(|m| m.l2.swaps).sum(),
            live,
        )
    }
}

impl Family for DmConventionalFamily {
    /// Prefix sums over the ascending sizes, scattered back to input
    /// order.
    fn member_counters(&self) -> Vec<(u64, u64, u64)> {
        let total_hits: u64 = self.hit_hist.iter().sum();
        let total_vics: u64 = self.vic_hist.iter().sum();
        let mut hits = 0u64;
        let mut vics = 0u64;
        let mut out = vec![(0, 0, 0); self.order.len()];
        for (k, &i) in self.order.iter().enumerate() {
            hits += self.hit_hist[k];
            vics += self.vic_hist[k];
            out[i] = (hits, total_hits - hits, self.evict_wb[k] + (total_vics - vics));
        }
        out
    }

    fn lifetime(&self) -> (u64, u64, Liveness) {
        // Direct-mapped members have no replacement choice: no draws.
        (0, 0, self.liveness_total())
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

/// Times one segment's replay as a phase slice when it was cut from a
/// stitched capture (`None` otherwise, so whole-stream sweeps never
/// record the sampled-sweep histogram).
fn slice_timer(seg: &MissStream) -> Option<tlc_obs::HistTimer> {
    seg.is_stitched().then(|| tlc_obs::HistTimer::start(tlc_obs::Hist::SampleSliceReplayNs))
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
            let _t = slice_timer(seg);
            walk_events(&mut fam, seg);
        }
        out.push(
            fam.member_counters()
                .into_iter()
                .map(|(l2_hits, l2_misses, offchip_writebacks)| HierarchyStats {
                    l2_hits,
                    l2_misses,
                    offchip_writebacks,
                    ..*seg.l1_stats()
                })
                .collect(),
        );
    }
    flush_l2_counters(segments, &out, fam.lifetime());
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
/// A family of direct-mapped members takes the threshold/histogram fast
/// path (`DmConventionalFamily`); any other associativity takes the
/// generic batched loop. Every replacement policy is supported, and
/// members may mix policies.
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
    let fw = FamilyWays::try_of(l2_cfgs, &segments[0])?;
    // Monomorphise the common associativities so the set scans unroll.
    Ok(match fw.ways {
        1 => replay_segments(DmConventionalFamily::new(l2_cfgs), segments),
        2 => replay_segments(ConventionalFamily::<2>::new(l2_cfgs, fw), segments),
        4 => replay_segments(ConventionalFamily::<4>::new(l2_cfgs, fw), segments),
        8 => replay_segments(ConventionalFamily::<8>::new(l2_cfgs, fw), segments),
        _ => replay_segments(ConventionalFamily::<0>::new(l2_cfgs, fw), segments),
    })
}

/// As [`try_replay_conventional_family_segments`] for a family of
/// exclusive (victim-swap) L2s, each member bit-identical to
/// [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel): persistent slot
/// arrays, replacement banks, per-member fill-dirty mirrors, and LFSRs
/// stitch across segments.
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
    let fw = FamilyWays::try_of(l2_cfgs, &segments[0])?;
    let sets = segments[0].l1_sets();
    // Monomorphise the common associativities so the set scans unroll.
    Ok(match fw.ways {
        1 => replay_segments(ExclusiveFamily::<1>::new(l2_cfgs, fw, sets), segments),
        2 => replay_segments(ExclusiveFamily::<2>::new(l2_cfgs, fw, sets), segments),
        4 => replay_segments(ExclusiveFamily::<4>::new(l2_cfgs, fw, sets), segments),
        8 => replay_segments(ExclusiveFamily::<8>::new(l2_cfgs, fw, sets), segments),
        _ => replay_segments(ExclusiveFamily::<0>::new(l2_cfgs, fw, sets), segments),
    })
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
            let _t = slice_timer(seg);
            vec![replay_single(seg); members]
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::config::{Associativity, ReplacementKind};
    use crate::filter::L1FrontEnd;
    use crate::hierarchy::MemorySystem;
    use crate::oracle::{naive_replay_conventional, naive_replay_exclusive};
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
            for ways in [2u32, 4] {
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
    fn dm_fast_path_handles_unsorted_and_duplicate_sizes() {
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 6_000);
        let cfgs: Vec<CacheConfig> = [8192u64, 2048, 8192, 4096].map(|b| l2_cfg(b, 1)).to_vec();
        let batched = conventional(&cfgs, &stream);
        for (cfg, got) in cfgs.iter().zip(&batched) {
            assert_eq!(*got, oracle_conventional(cfg, &stream), "{cfg}");
        }
        assert_eq!(batched[0], batched[2], "duplicate sizes share statistics");
    }

    #[test]
    fn dm_fast_path_misses_are_monotone_in_size() {
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

    /// Drives a plain [`Cache`] with the conventional back-end's exact
    /// call order — the reference for the family's liveness tallies.
    struct ScalarConvSink {
        l2: Cache,
    }

    impl EventSink for ScalarConvSink {
        fn consume(&mut self, _f: bool, line: LineAddr, victim: Option<(LineAddr, bool)>) {
            if !self.l2.access(line, false) {
                self.l2.fill_after_miss(line, false);
            }
            if let Some((vl, written)) = victim {
                if written {
                    self.l2.merge_if_present(vl, true);
                }
            }
        }

        fn reset_counters(&mut self) {}
    }

    #[test]
    fn family_liveness_matches_scalar_cache() {
        let stream = capture(SpecBenchmark::Gcc1, 1024, 2_000, 8_000);
        for repl in ReplacementKind::ALL {
            let cfgs = [l2_policy_cfg(4096, 4, repl), l2_policy_cfg(16384, 4, repl)];
            let fw = FamilyWays::try_of(&cfgs, &stream).unwrap();
            let mut fam = ConventionalFamily::<4>::new(&cfgs, fw);
            walk_events(&mut fam, &stream);
            for (cfg, st) in cfgs.iter().zip(&fam.states) {
                let mut scalar = ScalarConvSink { l2: Cache::new(*cfg) };
                walk_events(&mut scalar, &stream);
                let got = st.liveness();
                assert_eq!(got, scalar.l2.liveness(), "{repl} {cfg}");
                assert_eq!(got.fills, got.dead_on_arrival + got.live_fills, "{repl} {cfg}");
                assert!(got.multi_hit <= got.live_fills, "{repl} {cfg}");
            }
        }
    }

    #[test]
    fn dm_family_liveness_matches_scalar_caches() {
        let stream = capture(SpecBenchmark::Tomcatv, 1024, 1_000, 8_000);
        let cfgs = [l2_cfg(2048, 1), l2_cfg(8192, 1)];
        let mut fam = DmConventionalFamily::new(&cfgs);
        walk_events(&mut fam, &stream);
        let mut expected = Liveness::default();
        for cfg in &cfgs {
            let mut scalar = ScalarConvSink { l2: Cache::new(*cfg) };
            walk_events(&mut scalar, &stream);
            expected.merge(scalar.l2.liveness());
        }
        assert_eq!(fam.liveness_total(), expected);
    }
}
