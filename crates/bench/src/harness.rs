//! Shared context for figure regeneration.

use std::mem::ManuallyDrop;
use std::sync::{Mutex, OnceLock, PoisonError};
use tlc_area::AreaModel;
use tlc_core::experiment::SimBudget;
use tlc_core::runner::{self, arena_bytes_for, ARENA_BYTES_LIMIT};
use tlc_timing::TimingModel;
use tlc_trace::compact::{CompactTraceWriter, TraceReader};
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{InstructionRecord, InstructionSource, TraceArena, Workload};

/// Models plus simulation budget shared by every figure.
#[derive(Debug)]
pub struct Harness {
    /// The access/cycle-time model (paper 0.5µm operating point).
    pub timing: TimingModel,
    /// The rbe area model.
    pub area: AreaModel,
    /// Simulation length per configuration.
    pub budget: SimBudget,
    /// Worker threads for configuration sweeps and per-access studies.
    pub threads: usize,
    /// Each preset's stream, generated once and replayed by every
    /// exhibit through [`Harness::replay`] and [`Harness::arena`].
    pub traces: TraceCache,
}

impl Harness {
    /// Standard harness: 1M measured instructions per configuration.
    pub fn standard() -> Self {
        Harness {
            timing: TimingModel::paper(),
            area: AreaModel::new(),
            budget: SimBudget::standard(),
            threads: runner::default_threads(),
            traces: TraceCache::default(),
        }
    }

    /// Quick harness for tests and smoke runs (120K instructions).
    pub fn quick() -> Self {
        Harness { budget: SimBudget::quick(), ..Self::standard() }
    }

    /// Overrides the simulation budget (builder style).
    pub fn with_budget(mut self, budget: SimBudget) -> Self {
        self.budget = budget;
        self
    }

    /// `benchmark`'s stream from its first instruction: exactly the
    /// records `benchmark.workload()` yields, without end.
    ///
    /// The first call for a preset generates [`Harness::budget`]'s
    /// warm-up plus measured instructions into the [`TraceCache`]; every
    /// call then decodes them from there. A budget longer than the cached
    /// window, or one whose arena would pass [`ARENA_BYTES_LIMIT`], is
    /// served by the generator instead; so is any read past the cached
    /// window.
    pub fn replay(&self, benchmark: SpecBenchmark) -> PresetReplay<'_> {
        let window = self.window();
        let cached = (arena_bytes_for(self.budget) <= ARENA_BYTES_LIMIT)
            .then(|| self.traces.get_or_fill(benchmark, window))
            .filter(|cached| cached.records >= window);
        let state = match cached {
            Some(cached) => Replay::Cached {
                reader: TraceReader::new(&cached.bytes[..], benchmark.name())
                    .expect("the cache holds a well-formed compact header"),
                window: cached.records,
            },
            None => Replay::Live(benchmark.workload()),
        };
        PresetReplay { benchmark, state }
    }

    /// One budget's worth (warm-up plus measured) of `benchmark`'s
    /// stream captured into an arena from [`Harness::replay`]: the arena
    /// `capture_benchmark(benchmark, self.budget)` would build.
    pub fn arena(&self, benchmark: SpecBenchmark) -> TraceArena {
        TraceArena::capture(&mut self.replay(benchmark), self.window())
    }

    /// Instructions one configuration runs: warm-up plus measured.
    fn window(&self) -> u64 {
        self.budget.warmup_instructions.saturating_add(self.budget.instructions)
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::standard()
    }
}

/// The seven presets' streams, each held as an exact-size `TLCTRC01`
/// compact buffer (≈ 2.3–3.8 bytes per instruction) once something asks
/// for it. A new cache is one empty lazily filled slot: building a
/// [`Harness`] allocates nothing, dropping an unused one is one inlined
/// check, and a harness that runs no simulation never fills the cache.
#[derive(Default)]
pub struct TraceCache {
    /// Freed by [`TraceCache`]'s `Drop`, out of line, only once filled.
    slots: ManuallyDrop<OnceLock<Box<Slots>>>,
}

struct Slots {
    presets: [OnceLock<Cached>; SpecBenchmark::ALL.len()],
    /// The one encode buffer every fill writes through before copying
    /// the result into an exact-size box.
    scratch: Mutex<Vec<u8>>,
}

struct Cached {
    records: u64,
    bytes: Box<[u8]>,
}

impl TraceCache {
    /// Compact bytes held across every filled preset.
    fn bytes(&self) -> usize {
        self.slots
            .get()
            .map_or(0, |s| s.presets.iter().filter_map(OnceLock::get).map(|c| c.bytes.len()).sum())
    }

    /// `benchmark`'s cached window, generating `window` instructions of
    /// it first if it is not cached yet. Concurrent callers for one
    /// preset wait for a single fill.
    fn get_or_fill(&self, benchmark: SpecBenchmark, window: u64) -> &Cached {
        let slots = self.slots.get_or_init(|| {
            Box::new(Slots { presets: Default::default(), scratch: Mutex::new(Vec::new()) })
        });
        slots.presets[benchmark as usize].get_or_init(|| {
            let mut scratch = slots.scratch.lock().unwrap_or_else(PoisonError::into_inner);
            scratch.clear();
            let mut writer =
                CompactTraceWriter::new(&mut *scratch).expect("writing to memory cannot fail");
            let mut workload = benchmark.workload();
            for _ in 0..window {
                writer.write(&workload.next_instruction()).expect("writing to memory cannot fail");
            }
            Cached { records: window, bytes: Box::from(&scratch[..]) }
        })
    }
}

impl Drop for TraceCache {
    #[inline]
    fn drop(&mut self) {
        #[cold]
        #[inline(never)]
        fn free(slots: &mut OnceLock<Box<Slots>>) {
            drop(std::mem::take(slots));
        }
        if self.slots.get().is_some() {
            free(&mut self.slots);
        }
    }
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached: Vec<(&str, u64)> = self.slots.get().map_or_else(Vec::new, |s| {
            SpecBenchmark::ALL
                .iter()
                .zip(&s.presets)
                .filter_map(|(b, slot)| slot.get().map(|c| (b.name(), c.records)))
                .collect()
        });
        f.debug_struct("TraceCache").field("cached", &cached).field("bytes", &self.bytes()).finish()
    }
}

/// A preset's stream as [`Harness::replay`] serves it.
#[derive(Debug)]
pub struct PresetReplay<'a> {
    benchmark: SpecBenchmark,
    state: Replay<'a>,
}

#[derive(Debug)]
enum Replay<'a> {
    /// Decoding the cached window of `window` records.
    Cached { reader: TraceReader<&'a [u8]>, window: u64 },
    /// Generating.
    Live(Workload),
}

impl PresetReplay<'_> {
    /// The next record; the stream never ends.
    pub fn next_instruction(&mut self) -> InstructionRecord {
        if let Replay::Cached { reader, .. } = &mut self.state {
            if let Some(rec) = reader.next_instruction_opt() {
                return rec;
            }
            self.continue_live();
        }
        match &mut self.state {
            Replay::Live(workload) => workload.next_instruction(),
            Replay::Cached { .. } => unreachable!("continue_live leaves the stream live"),
        }
    }

    /// Called when the cached window runs out: continues the stream from
    /// a fresh generator that skips the window.
    fn continue_live(&mut self) {
        let Replay::Cached { reader, window } = &self.state else { return };
        assert!(
            reader.error().is_none() && reader.decoded() == *window,
            "{}: cached window decoded {} of {window} records ({:?})",
            self.benchmark,
            reader.decoded(),
            reader.error()
        );
        let mut workload = self.benchmark.workload();
        for _ in 0..*window {
            workload.next_instruction();
        }
        self.state = Replay::Live(workload);
    }
}

impl InstructionSource for PresetReplay<'_> {
    fn next_instruction_opt(&mut self) -> Option<InstructionRecord> {
        Some(self.next_instruction())
    }

    fn next_batch(&mut self, out: &mut [InstructionRecord]) -> usize {
        match &mut self.state {
            Replay::Cached { reader, .. } => {
                let n = reader.next_batch(out);
                if n == out.len() {
                    return n;
                }
                self.continue_live();
                n + self.next_batch(&mut out[n..])
            }
            Replay::Live(workload) => workload.next_batch(out),
        }
    }

    fn source_name(&self) -> &str {
        self.benchmark.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlc_core::experiment::capture_benchmark;

    #[test]
    fn constructors() {
        let h = Harness::standard();
        assert_eq!(h.budget.instructions, 1_500_000);
        assert!(h.threads >= 1);
        assert_eq!(h.traces.bytes(), 0, "nothing is generated before first use");
        let q = Harness::quick();
        assert!(q.budget.instructions < h.budget.instructions);
        let c =
            Harness::standard().with_budget(SimBudget { instructions: 42, warmup_instructions: 7 });
        assert_eq!(c.budget.instructions, 42);
    }

    const SMALL: SimBudget = SimBudget { instructions: 3_000, warmup_instructions: 1_000 };

    fn records(source: &mut impl InstructionSource, n: usize) -> Vec<InstructionRecord> {
        let mut out = vec![InstructionRecord::fetch_only(tlc_trace::Addr::new(0)); n];
        assert_eq!(source.next_batch(&mut out), n, "the stream never ends short");
        out
    }

    #[test]
    fn replay_is_the_generated_stream_for_every_preset() {
        let h = Harness::quick().with_budget(SMALL);
        for b in SpecBenchmark::ALL {
            let want = b.workload().take_instructions(4_000);
            let mut replay = h.replay(b);
            let got: Vec<_> = (0..4_000).map(|_| replay.next_instruction()).collect();
            assert_eq!(got, want, "{b}: replay differs from the generator");
            assert_eq!(replay.source_name(), b.name());
            // A second replay is served from the cache, batch-wise.
            assert_eq!(records(&mut h.replay(b), 4_000), want, "{b}: batched replay differs");
        }
        assert!(h.traces.bytes() > 0);
    }

    #[test]
    fn cached_arena_equals_the_captured_benchmark() {
        let h = Harness::quick().with_budget(SMALL);
        for b in SpecBenchmark::ALL {
            let (got, want) = (h.arena(b), capture_benchmark(b, SMALL));
            assert_eq!(
                (got.name(), got.len(), got.bytes()),
                (want.name(), want.len(), want.bytes())
            );
            assert!(got.replay().eq(want.replay()), "{b}: arena records differ");
        }
    }

    #[test]
    fn a_changed_budget_never_serves_the_stale_window() {
        let mut h = Harness::quick().with_budget(SMALL);
        let b = SpecBenchmark::Li;
        let _ = h.replay(b); // fills a 4 000-record window
        h.budget = SimBudget { instructions: 9_000, warmup_instructions: 1_000 };
        let want = capture_benchmark(b, h.budget);
        let got = h.arena(b);
        assert_eq!(got.len(), 10_000);
        assert!(got.replay().eq(want.replay()), "the longer budget must see the full stream");
        // A shorter budget reads a prefix of the cached window.
        h.budget = SimBudget { instructions: 500, warmup_instructions: 100 };
        assert!(h.arena(b).replay().eq(capture_benchmark(b, h.budget).replay()));
    }

    #[test]
    fn reads_past_the_cached_window_continue_the_stream() {
        let h = Harness::quick().with_budget(SMALL);
        for b in [SpecBenchmark::Gcc1, SpecBenchmark::Tomcatv] {
            let want = b.workload().take_instructions(6_500);
            let mut replay = h.replay(b);
            let mut got = records(&mut replay, 3_999);
            // One batch straddles the window's end.
            got.extend(records(&mut replay, 2_000));
            got.extend((0..501).map(|_| replay.next_instruction()));
            assert_eq!(got, want, "{b}: no short read and no gap at the window's end");
        }
    }
}
