//! `tlc audit` — randomized differential fuzzing of the sweep engines.
//!
//! The repository's soundness argument is that three engines — streaming
//! ([`simulate_source`](crate::experiment::simulate_source)), the
//! devirtualized arena replay ([`simulate_arena`]), and the miss-stream
//! L2 back-end ([`simulate_family`]: a family of one per sampled
//! configuration and batched sibling families, direct-mapped ones
//! included) — are *bit-identical*. This module
//! stops that from being "engines agreeing with themselves": every sampled
//! case is also run through the deliberately-naive reference oracle
//! ([`tlc_cache::NaiveSystem`], [`tlc_cache::oracle`]) and the Mattson
//! stack-distance oracles ([`tlc_cache::StackDistanceProfiler`],
//! [`tlc_cache::NestedDmProfiler`]), which predict the same counters from
//! first principles. The fourth engine — the analytical predictor
//! ([`simulate_predicted`](crate::experiment::simulate_predicted)) — is
//! deliberately *not* bit-identical; it is audited against its own
//! tolerance contract instead (`predict-vs-family`,
//! [`PREDICT_AUDIT_EPSILON`]).
//!
//! [`run_audit`] samples (workload, L1/L2 geometry, fill policy,
//! replacement policy — every [`ReplacementKind`] variant — warm-up
//! split, chunk size, thread count) tuples from a seeded RNG, replays
//! each through every engine, and compares full [`HierarchyStats`]
//! bit-for-bit. On an event-level divergence it *shrinks* the witness to
//! a locally-minimal trace with [`tlc_trace::shrink::ddmin`] and writes a
//! deterministic corpus entry (`.evt` event trace + `.json` sidecar)
//! for `tests/corpus_replay.rs` to replay forever after.

use crate::experiment::{
    capture_miss_stream, l2_config, simulate_arena, simulate_family, simulate_source_on,
    try_build_system_kind, SimBudget,
};
use crate::machine::{L2Policy, L2Spec, MachineConfig};
use crate::runner::try_sweep_family_arena_threads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;
use tlc_area::AreaModel;
use tlc_cache::filter_family::FamilyError;
use tlc_cache::oracle::{
    lru_misses, naive_replay_conventional, naive_replay_exclusive, naive_replay_single,
};
use tlc_cache::{
    DuplicationReport, HierarchyStats, MissStream, NaiveSystem, NestedDmProfiler, ReplacementKind,
    StackDistanceProfiler, SystemKind,
};
use tlc_timing::TimingModel;
use tlc_trace::shrink::ddmin;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{EventArena, InstructionRecord, MissEvent, ReplaySource, TraceArena};

/// Schema identifier of the audit report JSON.
pub const AUDIT_REPORT_SCHEMA: &str = "tlc-audit-report/1";

/// Tolerance of the `predict-vs-family` check on the local L2 miss
/// ratio. Wider than [`tlc_cache::MISS_RATIO_EPSILON`]: the audit's
/// adversarial streams are tiny (thousands of events through a small
/// L1) and its replayed L2s use pseudo-random replacement, both of
/// which stress the predictor's LRU model far beyond the
/// benchmark-scale contract the `predict_equivalence` suite enforces.
/// The worst observed cases are fpppp's tight floating-point loops —
/// a loop slightly wider than the cache scores near zero under LRU but
/// keeps a capacity-fraction of hits under random replacement — which
/// peak just above 0.22; a genuinely broken model (distance off by one,
/// sign error in the writeback histogram) lands far beyond this bound.
pub const PREDICT_AUDIT_EPSILON: f64 = 0.25;

/// Small-sample slack of the `predict-vs-family` check: the allowed
/// miss-ratio error is [`PREDICT_AUDIT_EPSILON`] `+ NOISE / sqrt(n)`
/// where `n` is the member's replayed L2 access count. Pseudo-random
/// replacement makes the replayed hit count itself noisy — its standard
/// deviation on `n` accesses is at most `sqrt(n)/2` — so a slack of
/// `3/sqrt(n)` admits ~6σ of replacement noise on the audit's tiniest
/// streams (a 47-access fpppp loop has been observed at 0.28) while
/// contributing under 0.01 at the ≥100k-access benchmark scale.
pub const PREDICT_AUDIT_NOISE: f64 = 3.0;

/// Schema identifier of a corpus entry's JSON sidecar.
pub const CORPUS_ENTRY_SCHEMA: &str = "tlc-audit-corpus/1";

/// How [`run_audit`] samples and how long it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOptions {
    /// RNG seed; the whole audit is a pure function of it (plus the
    /// binary), so a seed in a bug report reproduces the run exactly.
    pub seed: u64,
    /// Wall-clock time box in seconds; sampling continues until both
    /// this and `min_cases` are satisfied. `0.0` means "run exactly
    /// `min_cases`".
    pub seconds: f64,
    /// Minimum sampled cases regardless of the time box.
    pub min_cases: u64,
    /// Hard cap on sampled cases (bounds the time box loop).
    pub max_cases: u64,
    /// Where shrunk divergence witnesses are written (pairs of
    /// `<name>.evt` / `<name>.json`). `None` disables corpus output.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            seed: 0xA0D1_7000,
            seconds: 0.0,
            min_cases: 200,
            max_cases: 1_000_000,
            corpus_dir: None,
        }
    }
}

/// Per-check tallies in the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckCounter {
    /// Check name (e.g. `"arena-vs-oracle"`).
    pub name: String,
    /// Times the check ran.
    pub runs: u64,
    /// Times it found a divergence.
    pub divergences: u64,
}

/// One observed divergence, as recorded in the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditDivergence {
    /// Index of the sampled case that exposed it.
    pub case_index: u64,
    /// Which check flagged it.
    pub check: String,
    /// The machine configuration's `x:y` label.
    pub config: String,
    /// The sampled workload's name.
    pub workload: String,
    /// Human-readable expected-vs-got description.
    pub detail: String,
    /// File stem of the shrunk corpus entry, when one was written.
    pub corpus_entry: Option<String>,
}

/// The manifest-style JSON report of one audit run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Always [`AUDIT_REPORT_SCHEMA`].
    pub schema: String,
    /// The seed the run is reproducible from.
    pub seed: u64,
    /// The requested time box, seconds.
    pub requested_seconds: f64,
    /// Wall-clock time actually spent, seconds.
    pub elapsed_seconds: f64,
    /// Sampled (config, workload) tuples.
    pub cases: u64,
    /// The engines every case is replayed through.
    pub engines: Vec<String>,
    /// Per-check run/divergence tallies.
    pub checks: Vec<CheckCounter>,
    /// Every divergence observed (empty on a clean run).
    pub divergences: Vec<AuditDivergence>,
}

impl AuditReport {
    /// Whether the run found no divergence at all.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Pretty-printed JSON (the `tlc audit --json` output).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("audit report serializes")
    }
}

/// JSON sidecar of one corpus entry; `tests/corpus_replay.rs` reads this
/// to rebuild the [`MissStream`] around the `.evt` event trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntryMeta {
    /// Always [`CORPUS_ENTRY_SCHEMA`].
    pub schema: String,
    /// Check that produced the witness.
    pub check: String,
    /// L1 size the stream was captured through, bytes.
    pub l1_size_bytes: u64,
    /// Line size, bytes.
    pub line_bytes: u64,
    /// Warm-up boundary within the shrunk trace (always 0: shrinking
    /// folds the warm-up into the measured window).
    pub warmup_events: u64,
    /// The L2 the divergence manifested on (`None` = single-level).
    pub l2: Option<L2Spec>,
    /// Issue-style explanation: what diverged, and — for entries kept
    /// with `expect_divergence` — why it is benign.
    pub note: String,
    /// `false` for regression entries (the replay test asserts all
    /// engines agree on them, pinning a fixed bug); `true` for
    /// documented-benign divergences (the test asserts the divergence
    /// still reproduces exactly as documented).
    pub expect_divergence: bool,
}

/// One sampled tuple: everything a case needs to be replayed everywhere.
#[derive(Debug)]
struct SampledCase {
    cfg: MachineConfig,
    benchmark: SpecBenchmark,
    budget: SimBudget,
    /// Instructions actually recorded (≤ warm-up + measured: sampling
    /// occasionally starves the budget to exercise early exhaustion).
    records: u64,
    chunk_len: usize,
    threads: usize,
}

fn sample_case(rng: &mut StdRng) -> SampledCase {
    let benchmark = SpecBenchmark::ALL[rng.gen_range(0..SpecBenchmark::ALL.len())];
    let line_bytes = [16u64, 32][rng.gen_range(0..2usize)];
    let l1_size_bytes = [1u64, 2, 4][rng.gen_range(0..3usize)] * 1024;
    let l2 = if rng.gen_bool(0.2) {
        None
    } else {
        Some(L2Spec {
            size_bytes: l1_size_bytes * [2u64, 4, 8, 16][rng.gen_range(0..4usize)],
            ways: [1u32, 2, 4, 8][rng.gen_range(0..4usize)],
            policy: if rng.gen_bool(0.5) { L2Policy::Conventional } else { L2Policy::Exclusive },
            repl: ReplacementKind::ALL[rng.gen_range(0..ReplacementKind::ALL.len())],
        })
    };
    let cfg = MachineConfig {
        l1_size_bytes,
        l1_cell: tlc_area::CellKind::SinglePorted,
        l2,
        offchip_ns: 50.0,
        line_bytes,
    };
    let instructions = rng.gen_range(2_000u64..10_000);
    let warmup_instructions = match rng.gen_range(0..4) {
        0 => 0,
        1 => instructions / 4,
        2 => instructions / 2,
        _ => instructions,
    };
    let total = warmup_instructions + instructions;
    // 1 in 8 cases starves the budget so every engine must exercise its
    // early-exhaustion contract — including exhaustion inside warm-up.
    let records = if rng.gen_bool(0.125) { rng.gen_range(0..total.max(1)) } else { total };
    SampledCase {
        cfg,
        benchmark,
        budget: SimBudget { instructions, warmup_instructions },
        records,
        chunk_len: [57usize, 301, 1024, 1 << 14][rng.gen_range(0..4usize)],
        threads: rng.gen_range(1usize..4),
    }
}

/// Book-keeping for check tallies and divergences.
struct Ledger {
    checks: Vec<CheckCounter>,
    divergences: Vec<AuditDivergence>,
}

impl Ledger {
    fn new() -> Self {
        Ledger { checks: Vec::new(), divergences: Vec::new() }
    }

    fn tally(&mut self, name: &str, diverged: bool) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                c.runs += 1;
                c.divergences += diverged as u64;
            }
            None => self.checks.push(CheckCounter {
                name: name.to_string(),
                runs: 1,
                divergences: diverged as u64,
            }),
        }
    }

    fn record(
        &mut self,
        case_index: u64,
        check: &str,
        case: &SampledCase,
        detail: String,
        corpus_entry: Option<String>,
    ) {
        self.divergences.push(AuditDivergence {
            case_index,
            check: check.to_string(),
            config: case.cfg.label(),
            workload: case.benchmark.name().to_string(),
            detail,
            corpus_entry,
        });
    }
}

fn record_stream(case: &SampledCase) -> Vec<InstructionRecord> {
    case.benchmark.workload().take_instructions(case.records as usize)
}

fn replay_source(case: &SampledCase, records: &[InstructionRecord]) -> ReplaySource {
    ReplaySource::new(case.benchmark.name(), records.to_vec())
}

/// Replays the shrunk candidate through the engine and naive back-ends,
/// reporting whether they still disagree — the `ddmin` predicate. The
/// events come from a capture, so their lines are always in range.
fn event_paths_diverge(events: &[MissEvent], case: &SampledCase) -> bool {
    let mut arena = EventArena::new();
    for e in events {
        arena.push(*e);
    }
    MissStream::from_parts(
        "shrink",
        arena,
        0,
        HierarchyStats::default(),
        case.cfg.l1_size_bytes,
        case.cfg.line_bytes,
    )
    .is_ok_and(|stream| engine_vs_naive_on_stream(&case.cfg, &stream).is_some())
}

/// Replays one corpus entry's event trace through the L2 back-end (a
/// family of one) and the naive event-level oracle, returning the
/// divergence detail if they disagree (`Ok(None)` = the engines agree).
///
/// `tests/corpus_replay.rs` drives this over every `.evt`/`.json` pair
/// in `tests/corpus/`: entries with `expect_divergence: false` pin a
/// fixed bug (must agree forever), entries with `true` document a
/// benign divergence (must keep reproducing exactly as noted).
///
/// # Errors
///
/// Whatever [`MissStream::from_parts`] rejects: a sidecar geometry no
/// front-end has ([`FamilyError::L1Geometry`]), a warm-up boundary past
/// the trace ([`FamilyError::WarmupOutOfRange`]), or an event naming a
/// line no address at the entry's line size has
/// ([`FamilyError::LineOutOfRange`]). Such an entry is rejected, not
/// replayed.
pub fn replay_corpus_entry(
    meta: &CorpusEntryMeta,
    events: EventArena,
) -> Result<Option<String>, FamilyError> {
    let stream = MissStream::from_parts(
        "corpus",
        events,
        meta.warmup_events,
        HierarchyStats::default(),
        meta.l1_size_bytes,
        meta.line_bytes,
    )?;
    let cfg = MachineConfig {
        l1_size_bytes: meta.l1_size_bytes,
        l1_cell: tlc_area::CellKind::SinglePorted,
        l2: meta.l2,
        offchip_ns: 50.0,
        line_bytes: meta.line_bytes,
    };
    Ok(engine_vs_naive_on_stream(&cfg, &stream))
}

/// Runs the L2 back-end (a family of one) and the naive event oracle on
/// one stream; `Some(detail)` on disagreement, `None` when they agree or
/// the L2 geometry is invalid (nothing to compare).
fn engine_vs_naive_on_stream(cfg: &MachineConfig, stream: &MissStream) -> Option<String> {
    l2_config(cfg).ok()?;
    let engine = simulate_family(std::slice::from_ref(cfg), stream)[0];
    let naive = match cfg.l2 {
        None => naive_replay_single(stream),
        Some(spec) => match spec.policy {
            L2Policy::Conventional => {
                naive_replay_conventional(spec.size_bytes, spec.ways, spec.repl, stream)
            }
            L2Policy::Exclusive => {
                naive_replay_exclusive(spec.size_bytes, spec.ways, spec.repl, stream)
            }
        },
    };
    (engine != naive).then(|| format!("engine {engine:?} != naive {naive:?}"))
}

/// Shrinks an event-level divergence and writes the corpus pair,
/// returning the entry's file stem. Deterministic: `ddmin`'s candidate
/// order is fixed, so the same divergence always shrinks to the same
/// bytes.
fn shrink_and_archive(
    case: &SampledCase,
    case_index: u64,
    check: &str,
    stream: &MissStream,
    opts: &AuditOptions,
) -> Option<String> {
    let events: Vec<MissEvent> = stream.events().collect();
    if !event_paths_diverge(&events, case) {
        // The disagreement needs the warm-up boundary (or L1-side state)
        // to reproduce; archive nothing rather than a non-failing trace.
        return None;
    }
    let minimal = ddmin(&events, |c| event_paths_diverge(c, case));
    let dir = opts.corpus_dir.as_ref()?;
    let stem = format!("s{:016x}-c{case_index}-{check}", opts.seed);
    let mut arena = EventArena::new();
    for e in &minimal {
        arena.push(*e);
    }
    let meta = CorpusEntryMeta {
        schema: CORPUS_ENTRY_SCHEMA.to_string(),
        check: check.to_string(),
        l1_size_bytes: case.cfg.l1_size_bytes,
        line_bytes: case.cfg.line_bytes,
        warmup_events: 0,
        l2: case.cfg.l2,
        note: format!(
            "shrunk witness ({} of {} events) from audit seed {:#x}, case {case_index}: \
             engine and naive oracle disagreed on {}",
            minimal.len(),
            events.len(),
            opts.seed,
            case.cfg.label()
        ),
        expect_divergence: true,
    };
    if std::fs::create_dir_all(dir).is_err() {
        return None;
    }
    let mut buf = Vec::new();
    tlc_trace::io::write_event_trace(&mut buf, &arena).ok()?;
    std::fs::write(dir.join(format!("{stem}.evt")), buf).ok()?;
    std::fs::write(
        dir.join(format!("{stem}.json")),
        serde_json::to_string_pretty(&meta).expect("corpus sidecar serializes"),
    )
    .ok()?;
    Some(stem)
}

/// Sibling L2 sizes for the family engine check: the sampled size plus
/// its doublings, with a duplicate size among them.
fn family_siblings(cfg: &MachineConfig) -> Vec<MachineConfig> {
    let Some(spec) = cfg.l2 else { return vec![*cfg, *cfg] };
    [2, 1, 1, 4]
        .iter()
        .map(|&m| MachineConfig {
            l2: Some(L2Spec { size_bytes: spec.size_bytes * m, ..spec }),
            ..*cfg
        })
        .collect()
}

/// Runs one sampled case through every engine and oracle, updating the
/// ledger. Returns the number of engine comparisons performed.
fn run_case(case: &SampledCase, case_index: u64, opts: &AuditOptions, ledger: &mut Ledger) {
    let cfg = &case.cfg;
    let records = record_stream(case);
    let budget = case.budget;

    // Ground truth: the naive per-access oracle under the shared
    // warm-up/measure protocol.
    let mut naive = match cfg.l2 {
        None => NaiveSystem::single(cfg.l1_size_bytes, cfg.line_bytes),
        Some(s) => match s.policy {
            L2Policy::Conventional => NaiveSystem::conventional(
                cfg.l1_size_bytes,
                cfg.line_bytes,
                s.size_bytes,
                s.ways,
                s.repl,
            ),
            L2Policy::Exclusive => NaiveSystem::exclusive(
                cfg.l1_size_bytes,
                cfg.line_bytes,
                s.size_bytes,
                s.ways,
                s.repl,
            ),
        },
    };
    let oracle = simulate_source_on(&mut naive, &mut replay_source(case, &records), budget);

    // Engine 1: streaming enum dispatch. The streaming system is kept
    // for the content check below.
    let mut streaming_sys = try_build_system_kind(cfg).expect("sampled geometry is valid");
    let streaming =
        simulate_source_on(&mut streaming_sys, &mut replay_source(case, &records), budget);
    let diverged = streaming != oracle;
    ledger.tally("streaming-vs-oracle", diverged);
    if diverged {
        ledger.record(
            case_index,
            "streaming-vs-oracle",
            case,
            format!("engine {streaming:?} != oracle {oracle:?}"),
            None,
        );
    }

    // Engine 2: devirtualized arena replay, plus chunk-size invariance.
    let arena =
        TraceArena::capture_chunked(&mut replay_source(case, &records), u64::MAX, case.chunk_len);
    let arena_stats = simulate_arena(cfg, &arena, budget);
    let diverged = arena_stats != oracle;
    ledger.tally("arena-vs-oracle", diverged);
    if diverged {
        ledger.record(
            case_index,
            "arena-vs-oracle",
            case,
            format!("engine {arena_stats:?} != oracle {oracle:?}"),
            None,
        );
    }
    let other_chunk = if case.chunk_len == 301 { 1 << 13 } else { 301 };
    let rechunked =
        TraceArena::capture_chunked(&mut replay_source(case, &records), u64::MAX, other_chunk);
    let rechunk_stats = simulate_arena(cfg, &rechunked, budget);
    let diverged = rechunk_stats != arena_stats;
    ledger.tally("chunk-invariance", diverged);
    if diverged {
        ledger.record(
            case_index,
            "chunk-invariance",
            case,
            format!(
                "chunk_len {} gave {arena_stats:?}, chunk_len {other_chunk} gave {rechunk_stats:?}",
                case.chunk_len
            ),
            None,
        );
    }

    // Engines 3+4 need a captured miss stream (direct-mapped L1 front-end).
    let stream = capture_miss_stream(cfg.l1_size_bytes, cfg.line_bytes, &arena, budget, usize::MAX)
        .expect("unbounded capture succeeds");
    let one = simulate_family(std::slice::from_ref(cfg), &stream)[0];
    let diverged = one != oracle;
    ledger.tally("family-vs-oracle", diverged);
    if diverged {
        let corpus = shrink_and_archive(case, case_index, "family-vs-oracle", &stream, opts);
        ledger.record(
            case_index,
            "family-vs-oracle",
            case,
            format!("engine {one:?} != oracle {oracle:?}"),
            corpus,
        );
    }

    // Batching invariance: every sibling of a batched family (a
    // duplicate size included) must equal its own family of one.
    let siblings = family_siblings(cfg);
    let family = simulate_family(&siblings, &stream);
    let mut family_diverged = false;
    for (member, got) in siblings.iter().zip(&family) {
        let want = simulate_family(std::slice::from_ref(member), &stream)[0];
        if *got != want {
            family_diverged = true;
            let corpus =
                shrink_and_archive(case, case_index, "family-batching-invariance", &stream, opts);
            ledger.record(
                case_index,
                "family-batching-invariance",
                case,
                format!("family member {} got {got:?}, family of one {want:?}", member.label()),
                corpus,
            );
            break;
        }
    }
    ledger.tally("family-batching-invariance", family_diverged);

    // The analytical predictor against the family-replayed ground truth
    // it advertises a tolerance contract for. Exclusive samples and
    // set-associative FIFO/tree-PLRU/SRRIP samples are outside the model
    // (the predict engine replays them instead), so the check covers the
    // predictable cases: single-level members must be exact,
    // direct-mapped hit/miss counts must be exact, and set-associative
    // LRU/pseudo-random members must keep the local miss ratio within
    // [`PREDICT_AUDIT_EPSILON`] plus the [`PREDICT_AUDIT_NOISE`]
    // small-sample slack. Divergence witnesses carry the
    // measured error (tolerance breaches are not event-shrinkable: the
    // predictor has no per-event ground truth to bisect against).
    if crate::experiment::config_is_predictable(cfg) {
        let predicted = crate::experiment::simulate_predicted(&siblings, &stream);
        let mut predict_diverged = false;
        for ((member, got), want) in siblings.iter().zip(&predicted).zip(&family) {
            let failure = match member.l2 {
                None => (got != want)
                    .then(|| format!("single-level predicted {got:?} != replayed {want:?}")),
                Some(s) if s.ways == 1 => {
                    ((got.l2_hits, got.l2_misses) != (want.l2_hits, want.l2_misses)).then(|| {
                        format!(
                            "direct-mapped predicted ({}, {}) != replayed ({}, {})",
                            got.l2_hits, got.l2_misses, want.l2_hits, want.l2_misses
                        )
                    })
                }
                Some(_) => {
                    let err = tlc_cache::miss_ratio_error(got, want);
                    let accesses = (want.l2_hits + want.l2_misses).max(1) as f64;
                    let allowed = PREDICT_AUDIT_EPSILON + PREDICT_AUDIT_NOISE / accesses.sqrt();
                    (err > allowed).then(|| {
                        format!(
                            "miss-ratio error {err:.4} > {allowed:.4} (epsilon \
                             {PREDICT_AUDIT_EPSILON} + {PREDICT_AUDIT_NOISE}/sqrt({accesses}); \
                             predicted {got:?}, replayed {want:?})"
                        )
                    })
                }
            };
            if let Some(detail) = failure {
                predict_diverged = true;
                ledger.record(
                    case_index,
                    "predict-vs-family",
                    case,
                    format!("member {}: {detail}", member.label()),
                    None,
                );
                break;
            }
        }
        ledger.tally("predict-vs-family", predict_diverged);
    }

    // Independent DM oracle: a direct-mapped conventional L2's content is
    // a pure DM tag array over the event line sequence, so the nested
    // profiler predicts hits/misses for all sibling sizes at once from
    // its inclusion histogram — a second derivation checked against the
    // family's batched loop, one `Cache` per member.
    if let Some(spec) = cfg.l2 {
        if spec.ways == 1 && spec.policy == L2Policy::Conventional {
            let sizes: Vec<u64> = [1u64, 2, 4].iter().map(|m| spec.size_bytes * m).collect();
            let set_counts: Vec<u64> = sizes.iter().map(|s| s / cfg.line_bytes).collect();
            let mut profiler = NestedDmProfiler::new(&set_counts);
            for (i, ev) in stream.events().enumerate() {
                if i as u64 == stream.warmup_events() {
                    profiler.reset_counters();
                }
                profiler.record(ev.line.0);
            }
            if stream.warmup_events() == stream.len() {
                profiler.reset_counters();
            }
            let predicted = profiler.counters();
            let dm_cfgs: Vec<MachineConfig> = sizes
                .iter()
                .map(|&s| MachineConfig { l2: Some(L2Spec { size_bytes: s, ..spec }), ..*cfg })
                .collect();
            let measured = simulate_family(&dm_cfgs, &stream);
            let diverged = predicted
                .iter()
                .zip(&measured)
                .any(|(&(hits, misses), m)| hits != m.l2_hits || misses != m.l2_misses)
                || profiler.inclusion_violations() != 0;
            ledger.tally("dm-nested-oracle", diverged);
            if diverged {
                let corpus =
                    shrink_and_archive(case, case_index, "dm-nested-oracle", &stream, opts);
                ledger.record(
                    case_index,
                    "dm-nested-oracle",
                    case,
                    format!(
                        "profiler predicted {predicted:?} ({} inclusion violations), family \
                         measured {:?}",
                        profiler.inclusion_violations(),
                        measured.iter().map(|m| (m.l2_hits, m.l2_misses)).collect::<Vec<_>>()
                    ),
                    corpus,
                );
            }
        }
    }

    // Content check: the final resident-line sets of every level must be
    // bit-identical between the streaming engine and the naive oracle —
    // stronger than counter equality, since content drift can cancel out
    // in the statistics for a while before changing a count.
    let real_content = {
        let lines = |c: &tlc_cache::Cache| {
            let mut v: Vec<u64> = c.iter_lines().map(|l| l.0).collect();
            v.sort_unstable();
            v
        };
        match &streaming_sys {
            SystemKind::Single(s) => (lines(s.l1i()), lines(s.l1d()), Vec::new()),
            SystemKind::Conventional(s) => (lines(s.l1i()), lines(s.l1d()), lines(s.l2())),
            SystemKind::Exclusive(s) => (lines(s.l1i()), lines(s.l1d()), lines(s.l2())),
        }
    };
    let naive_content = naive.content();
    let diverged = real_content != naive_content;
    ledger.tally("content-vs-oracle", diverged);
    if diverged {
        ledger.record(
            case_index,
            "content-vs-oracle",
            case,
            format!(
                "resident lines differ: engine (|l1i|={}, |l1d|={}, |l2|={}) vs oracle \
                 (|l1i|={}, |l1d|={}, |l2|={})",
                real_content.0.len(),
                real_content.1.len(),
                real_content.2.len(),
                naive_content.0.len(),
                naive_content.1.len(),
                naive_content.2.len()
            ),
            None,
        );
    }

    // Metamorphic: the exclusive policy exists to remove inter-level
    // duplication. The modeled design (paper Figure 21) still retains the
    // L2 copy in the 21-b inclusion case, so residual duplication is
    // legal — but it must never exceed the conventional hierarchy's on
    // the same stream and geometry.
    if matches!(cfg.l2, Some(s) if s.policy == L2Policy::Exclusive) {
        let conv_cfg = MachineConfig {
            l2: cfg.l2.map(|s| L2Spec { policy: L2Policy::Conventional, ..s }),
            ..*cfg
        };
        let mut conv_sys = try_build_system_kind(&conv_cfg).expect("sampled geometry is valid");
        simulate_source_on(&mut conv_sys, &mut replay_source(case, &records), budget);
        if let (SystemKind::Exclusive(e), SystemKind::Conventional(c)) = (&streaming_sys, &conv_sys)
        {
            let excl = DuplicationReport::measure(e.l1i(), e.l1d(), e.l2());
            let conv = DuplicationReport::measure(c.l1i(), c.l1d(), c.l2());
            let diverged = excl.duplicated > conv.duplicated;
            ledger.tally("exclusive-duplication-bound", diverged);
            if diverged {
                ledger.record(
                    case_index,
                    "exclusive-duplication-bound",
                    case,
                    format!("exclusive duplicated {excl} more than conventional {conv}"),
                    None,
                );
            }
        }
    }

    // Mattson stack-distance profiler vs a direct fully-associative LRU
    // simulation, over the L2-visible line stream. Quadratic in the
    // capacity, so sampled on a quarter of the cases.
    if case_index.is_multiple_of(4) && !stream.is_empty() {
        let lines: Vec<u64> = stream.events().map(|e| e.line.0).collect();
        let mut profiler = StackDistanceProfiler::new();
        for &l in &lines {
            profiler.record(tlc_trace::LineAddr(l));
        }
        let diverged = [1u64, 4, 16, 64]
            .iter()
            .any(|&cap| profiler.misses_at_capacity(cap) != lru_misses(&lines, cap as usize));
        ledger.tally("mattson-vs-lru", diverged);
        if diverged {
            ledger.record(
                case_index,
                "mattson-vs-lru",
                case,
                "stack-distance miss counts disagree with direct LRU simulation".to_string(),
                None,
            );
        }
    }

    // Thread invariance: the parallel family sweep, whose work units
    // (`plan_units`) are cut by the thread count, must return the same
    // statistics as the single-threaded one, in input order. Sampled on
    // every fourth case (spawning threads dominates small replays).
    // Skipped when the measured run is empty: TPI is undefined there
    // (`tpi_ns` documents the panic), so both sweeps fail by contract —
    // and under >1 worker *which* configuration reports the failure
    // first is a scheduling race, not a statistic.
    if case_index % 4 == 1 && oracle.instructions > 0 {
        let timing = TimingModel::paper();
        let area = AreaModel::new();
        let seq = try_sweep_family_arena_threads(&siblings, &arena, budget, &timing, &area, 1);
        let par =
            try_sweep_family_arena_threads(&siblings, &arena, budget, &timing, &area, case.threads);
        let diverged = match (&seq, &par) {
            (Ok(a), Ok(b)) => {
                a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.stats != y.stats)
            }
            _ => true,
        };
        ledger.tally("thread-invariance", diverged);
        if diverged {
            let status = |r: &Result<_, _>| match r {
                Ok(_) => "ok".to_string(),
                Err(e) => format!("error ({e})"),
            };
            ledger.record(
                case_index,
                "thread-invariance",
                case,
                format!(
                    "1 thread ({}) vs {} threads ({}) returned different sweeps",
                    status(&seq),
                    case.threads,
                    status(&par)
                ),
                None,
            );
        }
    }
}

/// Degenerate geometries must surface as typed errors, not panics — the
/// contract the `try_*` constructors give the sampler.
fn run_config_edge_case(rng: &mut StdRng, ledger: &mut Ledger) {
    let bad = match rng.gen_range(0..3) {
        // Line larger than the cache.
        0 => MachineConfig {
            l1_size_bytes: 16,
            l1_cell: tlc_area::CellKind::SinglePorted,
            l2: None,
            offchip_ns: 50.0,
            line_bytes: 64,
        },
        // Non-power-of-two L1.
        1 => MachineConfig {
            l1_size_bytes: 3 * 1024,
            l1_cell: tlc_area::CellKind::SinglePorted,
            l2: None,
            offchip_ns: 50.0,
            line_bytes: 16,
        },
        // More L2 ways than L2 lines.
        _ => MachineConfig {
            l1_size_bytes: 1024,
            l1_cell: tlc_area::CellKind::SinglePorted,
            l2: Some(L2Spec {
                size_bytes: 64,
                ways: 8,
                policy: L2Policy::Conventional,
                repl: ReplacementKind::PseudoRandom,
            }),
            offchip_ns: 50.0,
            line_bytes: 16,
        },
    };
    let diverged = try_build_system_kind(&bad).is_ok();
    ledger.tally("config-edge-typed-errors", diverged);
    if diverged {
        ledger.divergences.push(AuditDivergence {
            case_index: 0,
            check: "config-edge-typed-errors".to_string(),
            config: bad.label(),
            workload: String::new(),
            detail: "degenerate geometry was accepted".to_string(),
            corpus_entry: None,
        });
    }
}

/// Runs the differential audit described in the module docs.
pub fn run_audit(opts: &AuditOptions) -> AuditReport {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut ledger = Ledger::new();
    let mut cases = 0u64;
    while cases < opts.max_cases {
        let elapsed = started.elapsed().as_secs_f64();
        if cases >= opts.min_cases && elapsed >= opts.seconds {
            break;
        }
        let diverged_before = ledger.divergences.len();
        if cases % 16 == 15 {
            run_config_edge_case(&mut rng, &mut ledger);
        }
        let case = sample_case(&mut rng);
        run_case(&case, cases, opts, &mut ledger);
        cases += 1;
        tlc_obs::obs_count!(tlc_obs::Counter::AuditCases, 1);
        tlc_obs::obs_count!(
            tlc_obs::Counter::AuditDivergences,
            (ledger.divergences.len() - diverged_before) as u64
        );
    }
    AuditReport {
        schema: AUDIT_REPORT_SCHEMA.to_string(),
        seed: opts.seed,
        requested_seconds: opts.seconds,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        cases,
        engines: ["streaming", "arena", "family", "predict"].map(String::from).to_vec(),
        checks: ledger.checks,
        divergences: ledger.divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fixed_seed_audit_is_clean_and_reproducible() {
        let opts = AuditOptions { seed: 7, min_cases: 24, ..AuditOptions::default() };
        let a = run_audit(&opts);
        assert_eq!(a.cases, 24);
        assert!(a.is_clean(), "divergences: {:#?}", a.divergences);
        assert!(a.checks.iter().any(|c| c.name == "family-vs-oracle" && c.runs == 24));
        assert!(a.checks.iter().any(|c| c.name == "family-batching-invariance" && c.runs == 24));
        assert!(a.checks.iter().any(|c| c.name == "config-edge-typed-errors"));
        assert!(
            a.checks.iter().any(|c| c.name == "predict-vs-family" && c.runs > 0),
            "the predictor's tolerance check must run on non-exclusive cases"
        );
        let b = run_audit(&opts);
        assert_eq!(a.checks, b.checks, "audit must be a pure function of the seed");
    }

    #[test]
    fn report_json_has_schema_and_round_trips() {
        let opts = AuditOptions { seed: 3, min_cases: 4, ..AuditOptions::default() };
        let report = run_audit(&opts);
        let json = report.to_json();
        assert!(json.contains(AUDIT_REPORT_SCHEMA));
        let back: AuditReport = serde_json::from_str(&json).expect("report round-trips");
        assert_eq!(back.cases, report.cases);
        assert_eq!(back.checks, report.checks);
    }

    #[test]
    fn sampler_covers_both_policies_and_degenerate_budgets() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = false;
        let mut excl = false;
        let mut single = false;
        let mut starved = false;
        let mut repls = std::collections::HashSet::new();
        for _ in 0..200 {
            let c = sample_case(&mut rng);
            match c.cfg.l2 {
                None => single = true,
                Some(s) if s.policy == L2Policy::Conventional => conv = true,
                Some(_) => excl = true,
            }
            if let Some(s) = c.cfg.l2 {
                repls.insert(s.repl);
            }
            if c.records < c.budget.warmup_instructions + c.budget.instructions {
                starved = true;
            }
        }
        assert!(conv && excl && single && starved, "sampler misses a region");
        assert_eq!(
            repls.len(),
            ReplacementKind::ALL.len(),
            "sampler must reach every replacement policy, got {repls:?}"
        );
    }
}
