//! Miss-stream filtering: simulate the L1 once, fan every L2 over its
//! miss/victim event stream.
//!
//! ## Why this is sound
//!
//! Every hierarchy in this crate fills the requested line into the L1 on
//! *every* L1 miss — whether the line came from the L2 or from off-chip.
//! That holds by construction: all of them, this module's front-end
//! included, share one crate-private split L1 (`SplitL1`) whose lookup
//! hands each miss back to the hierarchy and whose fill is the only way
//! a line enters the L1. The L1's *contents
//! trajectory* (which tags occupy which sets, and hence which accesses
//! miss and which victims are displaced) is therefore completely
//! determined by the reference stream and the L1 geometry — never by the
//! L2. A design-space sweep can simulate the L1 once per distinct front
//! end ([`L1FrontEnd`]), record the miss/victim events ([`MissStream`]),
//! and replay only those events through each L2 configuration.
//!
//! One subtlety: in the exclusive hierarchy the true dirty bit of an L1
//! line does depend on L2 state (an L1-miss/L2-hit hands up the L2
//! copy's dirty bit). That bit never enters the L1: the one exclusive L2
//! step (`exclusive_step`, shared by
//! [`ExclusiveTwoLevel`](crate::ExclusiveTwoLevel) and the family
//! back-end) keeps it in a per-L1-set mirror beside the L2 and ORs it
//! into the victim's store-only bit. So every L1 marks lines dirty on a
//! store only, and the front-end's recorded
//! [`VictimLine::written`](tlc_trace::VictimLine) is exactly what that
//! step consumes, in the per-access hierarchy as in a replay. For the
//! conventional and single-level hierarchies the recorded bit *is* the
//! dirty bit.
//!
//! This module holds the front-end, the captured stream, the event walk
//! every back-end shares (`walk_events`: the one warm-up/measure walk
//! [`walk_window`] over the stream's [`EventArena`], which per-access
//! arena replay and every L1 capture take over a
//! [`TraceArena`](tlc_trace::TraceArena) too, so both reset at the same
//! record), and the single-level sink (every L1 miss goes off-chip — no
//! L2 state at all). The conventional
//! and exclusive L2 back-ends live in
//! [`filter_family`](crate::filter_family): one family-batched,
//! segment-stitching replay serves every L2 configuration, a single
//! configuration being a family of one. Each member is a
//! [`Cache`](crate::Cache) driven by the same L2 step as the monolithic
//! hierarchy, so its replacement state (including its pseudo-random
//! LFSR) evolves identically and every statistic is bit-identical — the
//! equivalence suite in `tests/arena_equivalence.rs` pins the back-end
//! to per-access arena replay and to the naive oracle across every
//! benchmark.

use crate::config::CacheConfig;
use crate::filter_family::FamilyError;
use crate::hierarchy::{MemorySystem, ServiceLevel};
use crate::l1::SplitL1;
use crate::stats::HierarchyStats;
use tlc_trace::columns::walk_window;
use tlc_trace::events::{
    EventArena, EVENT_HAS_VICTIM, EVENT_KIND_FETCH, EVENT_KIND_MASK, EVENT_VICTIM_WRITTEN,
};
use tlc_trace::{ChunkView, LineAddr, MemRef, MissEvent, VictimLine};

/// The L1 side of a decomposed hierarchy: split direct-mapped I/D caches
/// that record one [`MissEvent`] per L1 miss into an [`EventArena`].
///
/// Implements [`MemorySystem`] so any replay loop that can drive a full
/// hierarchy can drive the capture; `access` returns
/// [`ServiceLevel::Memory`] on a miss (the L2 classification is exactly
/// what varies per back-end). [`MemorySystem::reset_stats`] additionally
/// bookmarks the warm-up boundary in the event stream, so back-ends can
/// reset their counters at the same instant.
///
/// Statistics follow the store-only dirty convention every hierarchy's
/// L1 uses: the L1 fills with `is_write`; the exclusive L2 step layers
/// the L2-dependent dirty component on top (see the module docs).
#[derive(Debug)]
pub struct L1FrontEnd {
    /// The same L1 (same-line fetch filter included) as every monolithic
    /// hierarchy; a filtered repeat fetch emits no event.
    l1: SplitL1,
    stats: HierarchyStats,
    events: EventArena,
    warmup_events: u64,
    /// References since the last packaged segment, flushed to the
    /// `filter.*` counters by [`L1FrontEnd::take_stream`].
    total_refs: u64,
}

impl L1FrontEnd {
    /// Builds the front-end; instruction and data caches share `l1_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `l1_cfg` is not direct-mapped. The paper's design space
    /// only has direct-mapped L1s (§2.1), and the decomposition relies on
    /// it: a victim and its displacer share the single way of one set, so
    /// the exclusive L2 step can mirror fill-dirty state per set.
    pub fn new(l1_cfg: CacheConfig) -> Self {
        let l1 = SplitL1::new(l1_cfg);
        assert!(l1.l1i().is_direct_mapped(), "miss-stream filtering requires a direct-mapped L1");
        L1FrontEnd {
            l1,
            stats: HierarchyStats::default(),
            events: EventArena::new(),
            warmup_events: 0,
            total_refs: 0,
        }
    }

    /// Resident size of the captured event stream so far, in bytes.
    /// Callers bound a capture's footprint by checking this between
    /// replay chunks.
    pub fn event_bytes(&self) -> usize {
        self.events.bytes()
    }

    /// Finishes the capture, packaging the event stream, the warm-up
    /// boundary, and the measured-window L1-side statistics into a
    /// shareable [`MissStream`] named after the captured workload.
    pub fn finish(mut self, name: &str) -> MissStream {
        self.take_stream(name)
    }

    /// Splits everything captured so far off into a [`MissStream`] —
    /// events, warm-up boundary, and L1-side statistics — while
    /// **keeping** the L1 cache contents, the same-line fetch filter,
    /// and the dirty bits. The front-end then keeps capturing into a
    /// fresh segment from warm (stale) L1 state.
    ///
    /// This is the stitched-warming primitive behind the sampled sweep:
    /// one front-end replays every representative phase slice in trace
    /// order, `take_stream` cuts a segment per slice, and the segments
    /// inherit L1 state across the gaps instead of restarting cold.
    pub fn take_stream(&mut self, name: &str) -> MissStream {
        // Every miss (and only a miss) pushed one event, so the
        // hits/misses/decoded invariant holds by construction.
        tlc_obs::obs_count!(tlc_obs::Counter::FilterEventsDecoded, self.total_refs);
        tlc_obs::obs_count!(tlc_obs::Counter::FilterL1Misses, self.events.len());
        tlc_obs::obs_count!(tlc_obs::Counter::FilterL1Hits, self.total_refs - self.events.len());
        tlc_obs::obs_count!(tlc_obs::Counter::FilterEventBytes, self.events.bytes() as u64);
        let events = std::mem::take(&mut self.events);
        let warmup_events = std::mem::take(&mut self.warmup_events);
        let l1_stats = std::mem::take(&mut self.stats);
        self.l1.reset_stats();
        self.total_refs = 0;
        MissStream {
            name: name.to_string(),
            events,
            warmup_events,
            l1_stats,
            l1_size_bytes: self.l1.config().size_bytes(),
            line_bytes: self.l1.config().line_bytes(),
        }
    }
}

impl MemorySystem for L1FrontEnd {
    #[inline]
    fn access(&mut self, r: MemRef) -> ServiceLevel {
        self.total_refs += 1;
        let Some(miss) = self.l1.lookup(r, &mut self.stats) else {
            return ServiceLevel::L1;
        };
        let victim = self.l1.fill(miss, miss.write);
        self.events.push(MissEvent {
            kind: r.kind,
            line: miss.line,
            victim: victim.map(|v| VictimLine { line: v.line, written: v.dirty }),
        });
        ServiceLevel::Memory
    }

    fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Clears the L1-side statistics and bookmarks the warm-up boundary
    /// at the current event count; events are *kept* (back-ends need the
    /// warm-up events to warm their L2 state).
    fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        self.l1.reset_stats();
        self.warmup_events = self.events.len();
    }

    fn describe(&self) -> String {
        format!("L1 miss-stream front-end: split L1 {}", self.l1.config())
    }
}

/// A captured L1 miss/victim stream: everything an L2 back-end needs to
/// reproduce a full hierarchy simulation — the packed events, the warm-up
/// boundary within them, and the (L2-independent) L1-side statistics of
/// the measured window.
///
/// Immutable after capture; share by reference across sweep workers.
#[derive(Debug)]
pub struct MissStream {
    name: String,
    events: EventArena,
    warmup_events: u64,
    l1_stats: HierarchyStats,
    l1_size_bytes: u64,
    line_bytes: u64,
}

impl MissStream {
    /// Reassembles a stream from previously captured parts — the corpus
    /// replay path: a deserialized [`EventArena`] plus the sidecar
    /// metadata a trace file carries. `l1_stats` may be zeroed when only
    /// the L2-side counters matter (as in corpus divergence checks).
    ///
    /// # Errors
    ///
    /// - [`FamilyError::L1Geometry`] unless `l1_size_bytes` and
    ///   `line_bytes` are powers of two with at least one line;
    /// - [`FamilyError::WarmupOutOfRange`] if `warmup_events` exceeds the
    ///   stream's event count;
    /// - [`FamilyError::LineOutOfRange`] if an event's line or victim
    ///   word exceeds `u64::MAX / line_bytes`: no 64-bit address has such
    ///   a line, and replaying one could alias the empty slot of a
    ///   [`Cache`](crate::Cache).
    pub fn from_parts(
        name: &str,
        events: EventArena,
        warmup_events: u64,
        l1_stats: HierarchyStats,
        l1_size_bytes: u64,
        line_bytes: u64,
    ) -> Result<Self, FamilyError> {
        if !(l1_size_bytes.is_power_of_two()
            && line_bytes.is_power_of_two()
            && l1_size_bytes >= line_bytes)
        {
            return Err(FamilyError::L1Geometry { l1_size_bytes, line_bytes });
        }
        if warmup_events > events.len() {
            return Err(FamilyError::WarmupOutOfRange { warmup_events, events: events.len() });
        }
        let max_line = u64::MAX / line_bytes;
        let mut first = 0u64;
        for chunk in events.chunks() {
            // A chunk's victim word is zero where it has no victim.
            for (i, (&l, &v)) in chunk.primary.iter().zip(chunk.secondary).enumerate() {
                if l.max(v) > max_line {
                    let event = first + i as u64;
                    return Err(FamilyError::LineOutOfRange { event, line: l.max(v), max_line });
                }
            }
            first += chunk.len() as u64;
        }
        Ok(MissStream {
            name: name.to_string(),
            events,
            warmup_events,
            l1_stats,
            l1_size_bytes,
            line_bytes,
        })
    }

    /// The captured workload's name (e.g. `"gcc1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total events (warm-up + measured).
    pub fn len(&self) -> u64 {
        self.events.len()
    }

    /// Whether the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events belonging to the warm-up window; back-ends replay them to
    /// warm L2 state, then reset their counters.
    pub fn warmup_events(&self) -> u64 {
        self.warmup_events
    }

    /// Resident size of the packed event buffer, in bytes.
    pub fn bytes(&self) -> usize {
        self.events.bytes()
    }

    /// L1-side statistics of the measured window (instructions, data
    /// references, L1I/L1D misses; the L2-side counters are zero).
    pub fn l1_stats(&self) -> &HierarchyStats {
        &self.l1_stats
    }

    /// Size of each L1 cache the stream was captured through, in bytes.
    pub fn l1_size_bytes(&self) -> u64 {
        self.l1_size_bytes
    }

    /// Line size the stream was captured with, in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Iterates over all events in capture order (decoded; for tests and
    /// diagnostics — replays walk the packed chunks internally).
    pub fn events(&self) -> impl Iterator<Item = MissEvent> + '_ {
        self.events.iter()
    }

    /// L1 sets per side (for the exclusive L2 step's fill-dirty mirror).
    pub(crate) fn l1_sets(&self) -> usize {
        (self.l1_size_bytes / self.line_bytes) as usize
    }
}

/// Anything that can consume a decoded event stream: the single-level
/// sink below, the family-batched back-ends in
/// [`filter_family`](crate::filter_family), and the naive oracle.
pub(crate) trait EventSink {
    /// Consumes one event. `fetch` is true for instruction-fetch misses;
    /// `victim` carries the displaced line and its store-only written bit.
    fn consume(&mut self, fetch: bool, line: LineAddr, victim: Option<(LineAddr, bool)>);

    /// Clears the counters at the warm-up boundary (L2 contents persist).
    fn reset_counters(&mut self);
}

/// Walks the packed event stream through `sink`, resetting its counters
/// at the warm-up boundary exactly where per-access arena replay resets
/// the monolithic hierarchy's statistics: the one window walk
/// ([`walk_window`]) over the whole stream.
pub(crate) fn walk_events<S: EventSink>(sink: &mut S, stream: &MissStream) {
    walk_window(
        stream.events.chunks(),
        stream.warmup_events,
        u64::MAX,
        sink,
        replay_event_chunk,
        S::reset_counters,
    );
}

/// The replay inner loop: slice iteration over one chunk's packed
/// columns, statically dispatched per concrete sink.
#[inline]
fn replay_event_chunk<B: EventSink>(back: &mut B, chunk: ChunkView<'_>, start: usize, end: usize) {
    let lines = &chunk.primary[start..end];
    let victims = &chunk.secondary[start..end];
    let flags = &chunk.flags[start..end];
    for i in 0..lines.len() {
        let f = flags[i];
        let victim = (f & EVENT_HAS_VICTIM != 0)
            .then(|| (LineAddr(victims[i]), f & EVENT_VICTIM_WRITTEN != 0));
        back.consume(f & EVENT_KIND_MASK == EVENT_KIND_FETCH, LineAddr(lines[i]), victim);
    }
}

/// Back-end for [`SingleLevel`](crate::SingleLevel): every L1 miss is an
/// off-chip demand fetch; a written victim is an off-chip writeback.
#[derive(Debug, Default)]
struct SingleBack {
    l2_misses: u64,
    offchip_writebacks: u64,
}

impl EventSink for SingleBack {
    #[inline]
    fn consume(&mut self, _fetch: bool, _line: LineAddr, victim: Option<(LineAddr, bool)>) {
        self.l2_misses += 1;
        if let Some((_, written)) = victim {
            if written {
                self.offchip_writebacks += 1;
            }
        }
    }

    fn reset_counters(&mut self) {
        self.l2_misses = 0;
        self.offchip_writebacks = 0;
    }
}

/// Replays `stream` as a [`SingleLevel`](crate::SingleLevel) hierarchy
/// would experience it. Bit-identical to simulating the monolithic
/// system on the original reference stream.
pub(crate) fn replay_single(stream: &MissStream) -> HierarchyStats {
    let mut back = SingleBack::default();
    walk_events(&mut back, stream);
    // No L2 exists here: the pass contributes replayed events and
    // off-chip writebacks, but no probes (`l2.probes` counts real L2
    // lookups only, keeping the hits+misses invariant meaningful).
    tlc_obs::obs_count!(tlc_obs::Counter::L2EventsReplayed, stream.len());
    tlc_obs::obs_count!(tlc_obs::Counter::L2Writebacks, back.offchip_writebacks);
    HierarchyStats {
        l2_hits: 0,
        l2_misses: back.l2_misses,
        offchip_writebacks: back.offchip_writebacks,
        ..*stream.l1_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Associativity, ReplacementKind};
    use crate::exclusive::ExclusiveTwoLevel;
    use crate::filter_family::{
        try_replay_conventional_family_segments, try_replay_exclusive_family_segments,
    };
    use crate::single::SingleLevel;
    use crate::twolevel::ConventionalTwoLevel;
    use tlc_trace::spec::SpecBenchmark;
    use tlc_trace::{Addr, InstructionSource};

    fn l1_cfg(bytes: u64) -> CacheConfig {
        CacheConfig::new(bytes, 16, Associativity::Direct, ReplacementKind::PseudoRandom).unwrap()
    }

    fn l2_cfg(bytes: u64, ways: u32) -> CacheConfig {
        let assoc = if ways == 1 { Associativity::Direct } else { Associativity::SetAssoc(ways) };
        CacheConfig::new(bytes, 16, assoc, ReplacementKind::PseudoRandom).unwrap()
    }

    /// Captures `n` instructions of `b` through a front-end, with a
    /// stats reset (warm-up bookmark) after `warm` instructions.
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

    /// A conventional L2 family of one over the whole stream.
    fn conventional(l2: CacheConfig, stream: &MissStream) -> HierarchyStats {
        try_replay_conventional_family_segments(&[l2], std::slice::from_ref(stream))
            .expect("valid family")[0][0]
    }

    /// An exclusive L2 family of one over the whole stream.
    fn exclusive(l2: CacheConfig, stream: &MissStream) -> HierarchyStats {
        try_replay_exclusive_family_segments(&[l2], std::slice::from_ref(stream))
            .expect("valid family")[0][0]
    }

    /// Drives the same window through a monolithic system.
    fn reference<M: MemorySystem>(b: SpecBenchmark, sys: &mut M, warm: u64, n: u64) {
        let mut w = b.workload();
        for _ in 0..warm {
            sys.access_instruction(&w.next_instruction_opt().unwrap());
        }
        sys.reset_stats();
        for _ in 0..n {
            sys.access_instruction(&w.next_instruction_opt().unwrap());
        }
    }

    #[test]
    fn single_back_matches_monolithic() {
        for b in [SpecBenchmark::Gcc1, SpecBenchmark::Tomcatv] {
            let stream = capture(b, 1024, 2_000, 8_000);
            let mut sys = SingleLevel::new(l1_cfg(1024));
            reference(b, &mut sys, 2_000, 8_000);
            assert_eq!(replay_single(&stream), *sys.stats(), "{}", b.name());
        }
    }

    #[test]
    fn conventional_family_of_one_matches_monolithic() {
        for (l1, l2, ways) in [(1024, 8192, 4), (2048, 4096, 1)] {
            let stream = capture(SpecBenchmark::Gcc1, l1, 2_000, 8_000);
            let mut sys = ConventionalTwoLevel::new(l1_cfg(l1), l2_cfg(l2, ways));
            reference(SpecBenchmark::Gcc1, &mut sys, 2_000, 8_000);
            assert_eq!(
                conventional(l2_cfg(l2, ways), &stream),
                *sys.stats(),
                "l1={l1} l2={l2} ways={ways}"
            );
        }
    }

    #[test]
    fn exclusive_family_of_one_matches_monolithic() {
        for (l1, l2, ways) in [(1024, 8192, 4), (2048, 4096, 1), (1024, 2048, 4)] {
            let stream = capture(SpecBenchmark::Li, l1, 2_000, 8_000);
            let mut sys = ExclusiveTwoLevel::new(l1_cfg(l1), l2_cfg(l2, ways));
            reference(SpecBenchmark::Li, &mut sys, 2_000, 8_000);
            assert_eq!(
                exclusive(l2_cfg(l2, ways), &stream),
                *sys.stats(),
                "l1={l1} l2={l2} ways={ways}"
            );
        }
    }

    #[test]
    fn one_stream_serves_many_l2s() {
        let stream = capture(SpecBenchmark::Espresso, 1024, 1_000, 5_000);
        for l2 in [2048u64, 8192, 32768] {
            let mut sys = ConventionalTwoLevel::new(l1_cfg(1024), l2_cfg(l2, 4));
            reference(SpecBenchmark::Espresso, &mut sys, 1_000, 5_000);
            assert_eq!(conventional(l2_cfg(l2, 4), &stream), *sys.stats(), "l2={l2}");
        }
    }

    #[test]
    fn exclusive_fill_dirty_mirror_reconstructs_writebacks() {
        // Hand-built ping-pong on the Figure 21 geometry: a store makes A
        // dirty; swaps move it L1→L2→L1 with the dirty bit carried by the
        // *fill*, not by stores — exactly the case the mirror exists for.
        let l1 = l1_cfg(64); // 4 lines
        let l2 = l2_cfg(256, 1); // 16 lines
        let mut fe = L1FrontEnd::new(l1);
        let mut sys = ExclusiveTwoLevel::new(l1, l2);
        let a = Addr::new(0x000);
        let e = Addr::new(0x100);
        let mut refs = vec![MemRef::store(a)];
        for i in 0..6u64 {
            refs.push(MemRef::load(if i % 2 == 0 { e } else { a }));
        }
        for i in 1..8u64 {
            refs.push(MemRef::load(Addr::new(i * 0x100)));
        }
        for r in &refs {
            fe.access(*r);
            sys.access(*r);
        }
        let stream = fe.finish("pingpong");
        let got = exclusive(l2, &stream);
        assert_eq!(got, *sys.stats());
        assert!(got.offchip_writebacks >= 1, "the dirty line must eventually go off-chip");
    }

    #[test]
    fn warmup_boundary_resets_backend_counters() {
        let stream = capture(SpecBenchmark::Fpppp, 1024, 3_000, 3_000);
        let mut sys = ConventionalTwoLevel::new(l1_cfg(1024), l2_cfg(8192, 4));
        reference(SpecBenchmark::Fpppp, &mut sys, 3_000, 3_000);
        let got = conventional(l2_cfg(8192, 4), &stream);
        assert_eq!(got, *sys.stats());
        assert_eq!(got.instructions, 3_000);
    }

    #[test]
    fn empty_measurement_window_is_all_zero() {
        // Reset at the very end: nothing measured, matching the arena
        // engine's early-exhaustion contract.
        let mut fe = L1FrontEnd::new(l1_cfg(1024));
        let mut w = SpecBenchmark::Li.workload();
        for _ in 0..500 {
            fe.access_instruction(&w.next_instruction_opt().unwrap());
        }
        fe.reset_stats();
        let stream = fe.finish("li");
        assert_eq!(stream.warmup_events(), stream.len());
        assert_eq!(replay_single(&stream), HierarchyStats::default());
        assert_eq!(conventional(l2_cfg(4096, 4), &stream), HierarchyStats::default());
        assert_eq!(exclusive(l2_cfg(4096, 4), &stream), HierarchyStats::default());
    }

    #[test]
    fn front_end_filters_repeat_fetches() {
        let mut fe = L1FrontEnd::new(l1_cfg(1024));
        let a = Addr::new(0x40);
        fe.access(MemRef::fetch(a));
        fe.access(MemRef::fetch(a));
        fe.access(MemRef::fetch(a));
        assert_eq!(fe.stats().instructions, 3);
        assert_eq!(fe.stats().l1i_misses, 1, "repeat fetches are guaranteed hits");
    }

    #[test]
    #[should_panic(expected = "direct-mapped")]
    fn rejects_associative_l1() {
        let cfg =
            CacheConfig::new(1024, 16, Associativity::SetAssoc(2), ReplacementKind::PseudoRandom)
                .unwrap();
        let _ = L1FrontEnd::new(cfg);
    }
}
