//! Instrumentation substrate for the sweep pipeline.
//!
//! The simulator's hot loops (trace capture, L1 filtering, family L2
//! fan-out) run hundreds of millions of iterations per sweep, so the
//! usual logging approaches are off the table: even a branch on a
//! runtime flag per event is measurable. Instrumentation is therefore
//! always compiled in, with no flag to test, and its probes sit at
//! phase boundaries rather than in the per-event loops (see
//! `docs/observability.md` for its measured cost). Counters are
//! relaxed atomics in one global [`CounterSet`], and [`PhaseSpan`]
//! records wall/CPU time into a process-global span list, maintaining a
//! thread-local path stack so spans nest correctly even across scoped
//! worker threads.
//!
//! Hot-path discipline: probes in per-event code must be *flushed
//! totals* (one `obs_count!` per chunk/replay pass, accumulated in a
//! plain local first), never per-event atomic increments.
//!
//! Beyond counters and spans, the [`hist`] module adds lock-free
//! log-linear latency histograms (tail latency, queue imbalance), the
//! [`trace_export`] module renders raw spans as Chrome trace-event JSON
//! for Perfetto, and the [`registry`] module persists manifests under
//! `.tlc/runs/` and diffs them run-over-run.
//!
//! The [`manifest`] module assembles counters + spans + events +
//! histograms + memory accounting into a versioned `tlc-run-manifest/2`
//! JSON document.
#![warn(missing_docs)]

pub mod hist;
pub mod manifest;
pub mod registry;
pub mod trace_export;

pub use hist::{Hist, HistTimer};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on retained span records. A big sweep can close millions of
/// fine-grained spans; beyond this the *oldest* are overwritten (ring
/// semantics) so the buffer bounds memory while the tail — usually the
/// interesting part of a stall — survives. Drops are counted
/// ([`spans_dropped`]) and surfaced in the manifest as `spans_dropped`.
pub const SPAN_RING_CAPACITY: usize = 1 << 16;

/// Every counter the pipeline can bump. Discriminants index the
/// [`CounterSet`] array; [`Counter::name`] gives the dotted name used
/// in manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Instructions a sweep's capture phase took from its input, counted
    /// once per window (not once per share that reads it).
    TraceInstructions,
    /// Bytes of packed SoA storage allocated by arena capture.
    TraceBytesPacked,
    /// Chunks the arena was split into.
    TraceChunks,
    /// Records decoded from `TLCTRC01` streams.
    TraceRecordsDecoded,
    /// `TLCTRC01` payload bytes consumed by decoding (header excluded;
    /// at least 2 per record, the minimum record size).
    TraceBytesDecoded,
    /// References decoded by L1 front-ends (instruction fetches that
    /// survived the same-line filter, plus data references).
    FilterEventsDecoded,
    /// References that hit in an L1 during filtering.
    FilterL1Hits,
    /// References that missed in an L1 (i.e. miss events emitted).
    FilterL1Misses,
    /// Miss events replayed against L2 back-ends (one per stream event
    /// per replay pass, regardless of family width).
    L2EventsReplayed,
    /// L2 lookups in the measured window (hits + misses), summed over
    /// family members.
    L2Probes,
    /// Measured-window L2 hits, summed over family members.
    L2Hits,
    /// Measured-window L2 misses, summed over family members.
    L2Misses,
    /// LFSR victim draws by pseudo-random L2 replacement (lifetime:
    /// warm-up included, since the LFSR is never reset).
    L2LfsrDraws,
    /// Exclusive-hierarchy L1→L2 victim swaps (fig. 21a path;
    /// lifetime, like [`Counter::L2LfsrDraws`]).
    L2ExclusiveSwaps,
    /// Dirty lines written back out of the L2 in the measured window.
    L2Writebacks,
    /// L2 fill generations started (lifetime, summed over family
    /// members; warm-up included, like [`Counter::L2LfsrDraws`]).
    L2Fills,
    /// Fill generations that ended with zero demand hits
    /// (`l2.dead_on_arrival + l2.live_fills == l2.fills`).
    L2DeadOnArrival,
    /// Fill generations that saw at least one demand hit.
    L2LiveFills,
    /// Fill generations that saw two or more demand hits (a subset of
    /// [`Counter::L2LiveFills`]).
    L2MultiHit,
    /// Design points fully evaluated (TPI + area computed).
    RunnerConfigsCompleted,
    /// Distinct cache hierarchies replayed by the family engine; points
    /// derived from statistics a sweep already held do not tick it
    /// (`runner.configs_simulated <= runner.configs_completed`).
    RunnerConfigsSimulated,
    /// Design points answered analytically by the reuse-distance
    /// predictor (no event replay).
    PredictConfigsPredicted,
    /// Design points the predict engine replays exactly instead
    /// (exclusive hierarchies and replacement policies outside the
    /// model).
    PredictConfigsReplayed,
    /// Events walked by reuse-distance profiling passes (one per stream
    /// event per profiled group).
    PredictEventsProfiled,
    /// L1 groups profiled into reuse-distance histograms.
    PredictGroupsProfiled,
    /// Reuse distances walked by analytical solves, summed over every
    /// predicted design point (`predict.solve_ns` ÷ this is ns per step).
    PredictSolveSteps,
    /// Fixed-length intervals a sampled trace was sliced into.
    SampleIntervals,
    /// Representative phases selected (and replayed) by phase sampling.
    SamplePhases,
    /// Intervals skipped because a representative stands in for them
    /// (`sample.phases + sample.intervals_skipped == sample.intervals`).
    SampleIntervalsSkipped,
    /// Instruction records actually replayed from representative slices
    /// (warm-up prefixes included).
    SampleEventsReplayed,
    /// Bytes of encoded L1 miss events accumulated in filter event
    /// buffers (summed at flush; feeds the manifest `memory` section).
    FilterEventBytes,
    /// Randomised audit cases executed (differential fuzz runs).
    AuditCases,
    /// Audit cases whose engines disagreed with the oracle.
    AuditDivergences,
}

impl Counter {
    /// Number of counters (size of the [`CounterSet`] array).
    pub const COUNT: usize = 33;

    /// All counters, in discriminant order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::TraceInstructions,
        Counter::TraceBytesPacked,
        Counter::TraceChunks,
        Counter::TraceRecordsDecoded,
        Counter::TraceBytesDecoded,
        Counter::FilterEventsDecoded,
        Counter::FilterL1Hits,
        Counter::FilterL1Misses,
        Counter::L2EventsReplayed,
        Counter::L2Probes,
        Counter::L2Hits,
        Counter::L2Misses,
        Counter::L2LfsrDraws,
        Counter::L2ExclusiveSwaps,
        Counter::L2Writebacks,
        Counter::L2Fills,
        Counter::L2DeadOnArrival,
        Counter::L2LiveFills,
        Counter::L2MultiHit,
        Counter::RunnerConfigsCompleted,
        Counter::RunnerConfigsSimulated,
        Counter::PredictConfigsPredicted,
        Counter::PredictConfigsReplayed,
        Counter::PredictEventsProfiled,
        Counter::PredictGroupsProfiled,
        Counter::PredictSolveSteps,
        Counter::SampleIntervals,
        Counter::SamplePhases,
        Counter::SampleIntervalsSkipped,
        Counter::SampleEventsReplayed,
        Counter::FilterEventBytes,
        Counter::AuditCases,
        Counter::AuditDivergences,
    ];

    /// Dotted manifest name, e.g. `"filter.events_decoded"`.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::TraceInstructions => "trace.instructions",
            Counter::TraceBytesPacked => "trace.bytes_packed",
            Counter::TraceChunks => "trace.chunks",
            Counter::TraceRecordsDecoded => "trace.records_decoded",
            Counter::TraceBytesDecoded => "trace.bytes_decoded",
            Counter::FilterEventsDecoded => "filter.events_decoded",
            Counter::FilterL1Hits => "filter.l1_hits",
            Counter::FilterL1Misses => "filter.l1_misses",
            Counter::L2EventsReplayed => "l2.events_replayed",
            Counter::L2Probes => "l2.probes",
            Counter::L2Hits => "l2.hits",
            Counter::L2Misses => "l2.misses",
            Counter::L2LfsrDraws => "l2.lfsr_draws",
            Counter::L2ExclusiveSwaps => "l2.exclusive_swaps",
            Counter::L2Writebacks => "l2.writebacks",
            Counter::L2Fills => "l2.fills",
            Counter::L2DeadOnArrival => "l2.dead_on_arrival",
            Counter::L2LiveFills => "l2.live_fills",
            Counter::L2MultiHit => "l2.multi_hit",
            Counter::RunnerConfigsCompleted => "runner.configs_completed",
            Counter::RunnerConfigsSimulated => "runner.configs_simulated",
            Counter::PredictConfigsPredicted => "predict.configs_predicted",
            Counter::PredictConfigsReplayed => "predict.configs_replayed",
            Counter::PredictEventsProfiled => "predict.events_profiled",
            Counter::PredictGroupsProfiled => "predict.groups_profiled",
            Counter::PredictSolveSteps => "predict.solve_steps",
            Counter::SampleIntervals => "sample.intervals",
            Counter::SamplePhases => "sample.phases",
            Counter::SampleIntervalsSkipped => "sample.intervals_skipped",
            Counter::SampleEventsReplayed => "sample.events_replayed",
            Counter::FilterEventBytes => "filter.event_bytes",
            Counter::AuditCases => "audit.cases",
            Counter::AuditDivergences => "audit.divergences",
        }
    }
}

/// One finished phase span, as drained by [`take_spans`]. `path` is the
/// full nesting path (`["sweep", "fan_out", "worker[0]"]`); `thread` is
/// a small process-unique id assigned on first span per thread.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Nesting path; last segment is this span's own name.
    pub path: Vec<String>,
    /// Process-unique thread id (1-based, assignment order).
    pub thread: u64,
    /// Start offset in ns from the process obs epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub wall_ns: u64,
    /// Thread CPU time consumed, if the platform exposes it.
    pub cpu_ns: Option<u64>,
    /// Work items attributed via [`PhaseSpan::add_items`].
    pub items: u64,
}

/// A recorded point event (engine selections, worker errors); `kind` is a stable identifier, `detail` free text.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize, PartialEq, Eq)]
pub struct ObsEventRecord {
    /// Stable event kind, e.g. `"engine.selected"`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Process-global array of relaxed atomic counters.
pub struct CounterSet {
    vals: [AtomicU64; Counter::COUNT],
}

impl CounterSet {
    #[allow(clippy::declare_interior_mutable_const)] // repeat-init seed
    const ZERO: AtomicU64 = AtomicU64::new(0);

    /// Empty set, usable in statics.
    pub const fn new() -> Self {
        CounterSet { vals: [Self::ZERO; Counter::COUNT] }
    }

    /// Adds `n` to `c` (relaxed; totals only, no ordering implied).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters, in [`Counter::ALL`] order.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        let mut out = [0u64; Counter::COUNT];
        for (slot, c) in out.iter_mut().zip(Counter::ALL) {
            *slot = self.get(c);
        }
        out
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for v in &self.vals {
            v.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Fixed-capacity overwrite-oldest buffer of span records.
struct SpanRing {
    buf: Vec<SpanRecord>,
    /// Next write position once `buf` is full (oldest record).
    next: usize,
    dropped: u64,
}

impl SpanRing {
    const fn new() -> SpanRing {
        SpanRing { buf: Vec::new(), next: 0, dropped: 0 }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < SPAN_RING_CAPACITY {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % SPAN_RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Drains in oldest-first order and resets.
    fn take(&mut self) -> Vec<SpanRecord> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.next);
        self.next = 0;
        out
    }
}

static COUNTERS: CounterSet = CounterSet::new();
static SPANS: Mutex<SpanRing> = Mutex::new(SpanRing::new());
static EVENTS: Mutex<Vec<ObsEventRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// The global counter set.
pub fn counters() -> &'static CounterSet {
    &COUNTERS
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Thread CPU time in ns from `/proc/thread-self/schedstat`
/// (first field). `None` where procfs is unavailable.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// RAII phase span: times the region between construction and drop
/// and records it under the thread's current span path.
pub struct PhaseSpan {
    path: Vec<String>,
    saved: Vec<String>,
    start: Instant,
    start_ns: u64,
    cpu0: Option<u64>,
    items: Cell<u64>,
}

impl PhaseSpan {
    fn enter_path(path: Vec<String>, saved: Vec<String>) -> PhaseSpan {
        let start = Instant::now();
        PhaseSpan {
            path,
            saved,
            start,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            cpu0: thread_cpu_ns(),
            items: Cell::new(0),
        }
    }

    /// Opens a span named `name` nested under the thread's current
    /// span (if any).
    pub fn enter(name: &str) -> PhaseSpan {
        Self::enter_with(name, "")
    }

    /// Like [`PhaseSpan::enter`], with a label: the path segment
    /// becomes `name[label]`.
    pub fn enter_with(name: &str, label: &str) -> PhaseSpan {
        PATH.with(|p| {
            let saved = p.borrow().clone();
            let mut path = saved.clone();
            path.push(segment(name, label));
            *p.borrow_mut() = path.clone();
            Self::enter_path(path, saved)
        })
    }

    /// Opens a span on *this* thread nested under an explicit
    /// parent path (for worker threads, whose thread-local stack
    /// starts empty). `parent` usually comes from
    /// [`current_path`] captured on the spawning thread.
    pub fn enter_under(parent: &[String], name: &str, label: &str) -> PhaseSpan {
        PATH.with(|p| {
            let saved = p.borrow().clone();
            let mut path = parent.to_vec();
            path.push(segment(name, label));
            *p.borrow_mut() = path.clone();
            Self::enter_path(path, saved)
        })
    }

    /// Attributes `n` work items to this span (e.g. configs
    /// evaluated by a worker) — the manifest surfaces per-span
    /// item counts so queue imbalance is visible.
    pub fn add_items(&self, n: u64) {
        self.items.set(self.items.get() + n);
    }
}

fn segment(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}[{label}]")
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let cpu_ns = match (self.cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let rec = SpanRecord {
            path: std::mem::take(&mut self.path),
            thread: thread_id(),
            start_ns: self.start_ns,
            wall_ns,
            cpu_ns,
            items: self.items.get(),
        };
        PATH.with(|p| *p.borrow_mut() = std::mem::take(&mut self.saved));
        SPANS.lock().unwrap().push(rec);
    }
}

/// Spans overwritten by the ring buffer since the last [`reset`]
/// (not cleared by [`take_spans`], so the manifest can report it
/// after draining).
pub fn spans_dropped() -> u64 {
    SPANS.lock().unwrap().dropped
}

/// The current thread's open span path (for handing to
/// [`PhaseSpan::enter_under`] on spawned workers).
pub fn current_path() -> Vec<String> {
    PATH.with(|p| p.borrow().clone())
}

/// Drains and returns all retained spans, oldest first. If the ring
/// overflowed, the oldest spans are gone — check [`spans_dropped`].
pub fn take_spans() -> Vec<SpanRecord> {
    SPANS.lock().unwrap().take()
}

/// Records a point event.
pub fn record_event(kind: &str, detail: String) {
    EVENTS.lock().unwrap().push(ObsEventRecord { kind: kind.to_string(), detail });
}

/// Drains and returns all recorded point events.
pub fn take_events() -> Vec<ObsEventRecord> {
    std::mem::take(&mut EVENTS.lock().unwrap())
}

/// Clears counters, spans, events, and histograms (test isolation
/// and run-to-run separation in long-lived processes).
pub fn reset() {
    COUNTERS.reset();
    *SPANS.lock().unwrap() = SpanRing::new();
    EVENTS.lock().unwrap().clear();
    crate::hist::reset_hists();
}

/// Bumps a [`Counter`] by `n`.
///
/// ```
/// tlc_obs::obs_count!(tlc_obs::Counter::TraceChunks, 4);
/// ```
#[macro_export]
macro_rules! obs_count {
    ($c:expr, $n:expr) => {
        $crate::counters().add($c, $n)
    };
}

/// Records a point event with a `format!`-style detail message.
///
/// ```
/// tlc_obs::obs_event!("engine.selected", "{} configs", 90);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($kind:expr, $($arg:tt)*) => {
        $crate::record_event($kind, format!($($arg)*))
    };
}

/// Opens a [`PhaseSpan`].
/// Bind the result — `let _span = obs_span!("fan_out");` — so it
/// lives for the region being timed.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        $crate::PhaseSpan::enter($name)
    };
}

/// Records one sample into a [`Hist`]. For durations, prefer
/// [`HistTimer::start`].
///
/// ```
/// tlc_obs::obs_hist!(tlc_obs::Hist::RunnerWorkerItems, 12);
/// ```
#[macro_export]
macro_rules! obs_hist {
    ($h:expr, $v:expr) => {
        $crate::hist::record($h, $v)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters/spans are process-global; serialize tests touching
    // them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_names_match_all_order() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = LOCK.lock().unwrap();
        reset();
        obs_count!(Counter::L2Probes, 3);
        obs_count!(Counter::L2Probes, 4);
        assert_eq!(counters().get(Counter::L2Probes), 7);
        reset();
        assert_eq!(counters().get(Counter::L2Probes), 0);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = LOCK.lock().unwrap();
        reset();
        {
            let outer = PhaseSpan::enter("outer");
            outer.add_items(2);
            {
                let _inner = PhaseSpan::enter_with("inner", "x");
            }
            assert_eq!(current_path(), vec!["outer".to_string()]);
        }
        let mut spans = take_spans();
        spans.sort_by_key(|s| s.path.len());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].path, ["outer"]);
        assert_eq!(spans[0].items, 2);
        assert_eq!(spans[1].path, ["outer", "inner[x]"]);
        assert!(spans[1].wall_ns <= spans[0].wall_ns);
    }

    #[test]
    fn enter_under_nests_across_threads() {
        let _g = LOCK.lock().unwrap();
        reset();
        {
            let _root = PhaseSpan::enter("root");
            let parent = current_path();
            std::thread::scope(|scope| {
                for w in 0..2u64 {
                    let parent = parent.clone();
                    scope.spawn(move || {
                        let s = PhaseSpan::enter_under(&parent, "worker", &w.to_string());
                        s.add_items(1);
                    });
                }
            });
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 3);
        let workers: Vec<_> = spans.iter().filter(|s| s.path.len() == 2).collect();
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_eq!(w.path[0], "root");
            assert!(w.path[1].starts_with("worker["));
        }
        // Distinct threads got distinct ids.
        assert_ne!(workers[0].thread, workers[1].thread);
    }

    #[test]
    fn span_ring_overwrites_oldest_and_counts_drops() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let extra = 5usize;
        for i in 0..SPAN_RING_CAPACITY + extra {
            let _s = PhaseSpan::enter_with("s", &i.to_string());
        }
        assert_eq!(spans_dropped(), extra as u64);
        let spans = take_spans();
        assert_eq!(spans.len(), SPAN_RING_CAPACITY);
        // Oldest `extra` spans were overwritten; order is preserved.
        assert_eq!(spans[0].path, [format!("s[{extra}]")]);
        assert_eq!(spans.last().unwrap().path, [format!("s[{}]", SPAN_RING_CAPACITY + extra - 1)]);
        reset();
        assert_eq!(spans_dropped(), 0);
    }
}
