//! The `tlc` subcommand implementations. Each returns its report as a
//! `String` (so they are unit-testable) and takes parsed [`ArgMap`]s.

use crate::args::{ArgError, ArgMap};
use std::fmt::Write as _;
use tlc_area::{AreaModel, CacheGeometry, CellKind};
use tlc_cache::{ReplacementKind, StackDistanceProfiler};
use tlc_core::audit::{run_audit, AuditOptions};
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::capture_benchmark;
use tlc_core::experiment::{l1_config, l2_config, simulate_source, SimBudget};
use tlc_core::report::{envelope_table, points_csv, points_table};
use tlc_core::runner::{
    arena_bytes_for, default_threads, try_sweep_family_arena_threads,
    try_sweep_predict_arena_threads, try_sweep_sampled_threads, try_sweep_threads, SweepError,
    ARENA_BYTES_LIMIT, ARENA_BYTES_PER_RECORD,
};
use tlc_core::sampling::{capture_phase_slices, sample_source, PhaseSample, SampleOptions};
use tlc_core::tpi::tpi_ns;
use tlc_core::{evaluate, L2Policy, MachineConfig, MachineTiming};
use tlc_obs::manifest::{fnv1a64, RunManifest, RunMeta};
use tlc_obs::Counter;
use tlc_timing::{DetailedTimingModel, EnergyModel, TimingModel};
use tlc_trace::compact::import_to_compact;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::specfile::WorkloadSpec;
use tlc_trace::{
    batch_buffer, ImportFormat, InstructionSource, TraceArena, TraceReader, TraceStats,
};

/// Top-level usage text.
pub fn usage() -> String {
    "tlc — the two-level on-chip caching study (Jouppi & Wilton, WRL 93/3)\n\
     \n\
     usage: tlc <command> [options]\n\
     \n\
     commands:\n\
     \u{20} evaluate   evaluate one configuration on one workload\n\
     \u{20}            --workload gcc1 --l1 8 [--l2 64 --ways 4 --policy conventional|exclusive]\n\
     \u{20}            [--l2-repl lru|fifo|pseudo-random|tree-plru|srrip] [--offchip 50]\n\
     \u{20}            [--instr N] [--warmup N]\n\
     \u{20} sweep      sweep the paper's configuration space on one workload\n\
     \u{20}            --workload gcc1 [--offchip 50] [--ways 4] [--policy ...] [--csv] [--instr N]\n\
     \u{20}            [--l2-repl lru|fifo|pseudo-random|tree-plru|srrip]  L2 replacement policy\n\
     \u{20}            [--engine auto|family|predict] [--threads N]\n\
     \u{20}            [--metrics out.json]  write a tlc-run-manifest/2 document\n\
     \u{20}            [--trace-out t.json]  Chrome trace-event timeline (open in ui.perfetto.dev)\n\
     \u{20}            [--progress]          live configs-done/ETA/events-per-second ticker on stderr\n\
     \u{20}            --trace t.trc         sweep a captured TLCTRC01 trace instead of a workload\n\
     \u{20}            --sample phases.json  replay only the trace's representative phases\n\
     \u{20}                                  (weighted recombination; --warmup N primes each slice)\n\
     \u{20} trace      on-disk traces: convert, phase-sample, and inspect\n\
     \u{20}            import IN OUT [--format auto|compact|instr|refs|text|addr-text|addr-bin]\n\
     \u{20}                          [--limit N]  convert IN to the compact TLCTRC01 format\n\
     \u{20}            sample FILE [--interval N] [--k N] [--seed S] [--out phases.json]\n\
     \u{20}                          cluster intervals into K phases (tlc-phase-sample/1)\n\
     \u{20}            info FILE [--interval N]  header, counts, footprint, per-interval summary\n\
     \u{20} profile    single-pass Mattson miss-ratio curve of a workload\n\
     \u{20}            --workload li [--instr N]\n\
     \u{20} timing     access/cycle time, area, and energy of one cache\n\
     \u{20}            --size 32 [--ways 1] [--dual] [--detailed]\n\
     \u{20} workload   run a custom JSON workload spec (see docs/tutorial.md)\n\
     \u{20}            <spec.json> [--l1 8 --l2 64 ...] [--instr N]\n\
     \u{20} compare    every organisation side by side on one workload\n\
     \u{20}            --workload gcc1 [--l1 4] [--l2 32] [--instr N]\n\
     \u{20} audit      differential fuzz of every engine against the naive oracle\n\
     \u{20}            [--seconds N] [--seed S] [--cases N] [--corpus DIR] [--json out.json]\n\
     \u{20}            [--progress]  cases/s, elapsed-vs-budget, and divergences on stderr\n\
     \u{20}            exits non-zero on any divergence; shrunk witnesses land in DIR\n\
     \u{20} runs       registry of sweep manifests with regression diffing\n\
     \u{20}            list [--dir D]       runs filed under D (default .tlc/runs)\n\
     \u{20}            show ID              counters/histograms/span tree of one run\n\
     \u{20}            add manifest.json    file a --metrics manifest into the registry\n\
     \u{20}            diff A B             compare two runs (registry id prefixes or\n\
     \u{20}                                 manifest files; also --baseline/--candidate);\n\
     \u{20}                                 [--tol-wall F] [--tol-counter F] [--tol-quantile F]\n\
     \u{20}                                 [--tol-memory F]; exits non-zero on regression\n\
     \u{20} list       list built-in workloads\n"
        .to_string()
}

fn parse_workload(args: &ArgMap) -> Result<SpecBenchmark, ArgError> {
    let name: String = args.require("workload")?;
    let name = name.as_str();
    SpecBenchmark::from_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown workload {name:?}; choose one of: {}",
            SpecBenchmark::ALL.map(|b| b.name()).join(" ")
        ))
    })
}

/// `--l2-repl`: the L2 replacement policy, defaulting to the paper's
/// pseudo-random baseline. Unknown names are a typed [`ArgError`], never
/// a silent fallback.
fn parse_l2_repl(args: &ArgMap) -> Result<ReplacementKind, ArgError> {
    match args.get("l2-repl").unwrap_or("pseudo-random") {
        "lru" => Ok(ReplacementKind::Lru),
        "fifo" => Ok(ReplacementKind::Fifo),
        "pseudo-random" => Ok(ReplacementKind::PseudoRandom),
        "tree-plru" => Ok(ReplacementKind::TreePlru),
        "srrip" => Ok(ReplacementKind::Srrip),
        other => Err(ArgError(format!(
            "unknown replacement policy {other:?}; choose lru, fifo, pseudo-random, tree-plru \
             or srrip"
        ))),
    }
}

/// `--offchip`: the off-chip access time in ns, finite and non-negative.
fn parse_offchip(args: &ArgMap) -> Result<f64, ArgError> {
    let ns: f64 = args.get_or("offchip", 50.0)?;
    if !ns.is_finite() || ns < 0.0 {
        return Err(ArgError(format!(
            "--offchip must be a finite, non-negative ns count, got {ns}"
        )));
    }
    Ok(ns)
}

/// Rejects a configuration the simulator cannot build — a bad L1 or L2
/// geometry is an argument error, never a panic inside the engines.
fn check_config(cfg: &MachineConfig) -> Result<(), ArgError> {
    l1_config(cfg).map_err(|e| ArgError(format!("configuration {}: L1 {e}", cfg.label())))?;
    l2_config(cfg).map_err(|e| ArgError(format!("configuration {}: L2 {e}", cfg.label())))?;
    Ok(())
}

/// `--instr`: the measured instruction count; an empty measurement
/// window has no defined TPI.
fn parse_instr(args: &ArgMap, default: u64) -> Result<u64, ArgError> {
    match args.get_or("instr", default)? {
        0 => Err(ArgError("--instr must be at least 1: nothing would be measured".into())),
        n => Ok(n),
    }
}

fn parse_machine(args: &ArgMap) -> Result<MachineConfig, ArgError> {
    let l1: u64 = args.get_or("l1", 8)?;
    let offchip = parse_offchip(args)?;
    let l2: u64 = args.get_or("l2", 0)?;
    let ways: u32 = args.get_or("ways", 4)?;
    let policy = match args.get("policy").unwrap_or("conventional") {
        "conventional" => L2Policy::Conventional,
        "exclusive" => L2Policy::Exclusive,
        other => return Err(ArgError(format!("unknown policy {other:?}"))),
    };
    let repl = parse_l2_repl(args)?;
    let mut cfg = if l2 == 0 {
        MachineConfig::single_level(l1, offchip)
    } else {
        MachineConfig::two_level(l1, l2, ways, policy, offchip)
    };
    if let Some(spec) = cfg.l2.as_mut() {
        spec.repl = repl;
    }
    if args.flag("dual") {
        cfg = cfg.with_l1_cell(CellKind::DualPorted);
    }
    check_config(&cfg)?;
    Ok(cfg)
}

fn parse_budget(args: &ArgMap) -> Result<SimBudget, ArgError> {
    let mut b = SimBudget::standard();
    b.instructions = parse_instr(args, b.instructions)?;
    b.warmup_instructions = args.get_or("warmup", b.warmup_instructions)?;
    Ok(b)
}

/// `tlc evaluate`.
pub fn cmd_evaluate(args: &ArgMap) -> Result<String, ArgError> {
    let benchmark = parse_workload(args)?;
    let cfg = parse_machine(args)?;
    let budget = parse_budget(args)?;
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let p = evaluate(&cfg, &mut benchmark.workload(), budget, &timing, &area);
    let mut out = String::new();
    let _ = writeln!(out, "configuration : {cfg}");
    let _ = writeln!(out, "workload      : {benchmark}");
    let _ = writeln!(out, "area          : {:.0} rbe", p.area_rbe);
    let _ = writeln!(out, "cycle         : {:.2} ns (L2 = {} cycles)", p.l1_cycle_ns, p.l2_cycles);
    let _ = writeln!(out, "stats         : {}", p.stats);
    let _ = writeln!(out, "TPI           : {:.2} ns/instruction (CPI {:.2})", p.tpi_ns, p.cpi);
    Ok(out)
}

/// The stream a sweep replays: a built-in synthetic benchmark, or an
/// on-disk compact trace (optionally reduced to its representative
/// phases).
enum SweepInput {
    Bench(SpecBenchmark),
    Trace {
        reader: Box<TraceReader<std::io::BufReader<std::fs::File>>>,
        sample: Option<PhaseSample>,
    },
}

/// Opens a `TLCTRC01` trace for streaming, named after its file stem.
fn open_trace_reader(
    path: &str,
) -> Result<TraceReader<std::io::BufReader<std::fs::File>>, ArgError> {
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot open {path}: {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace")
        .to_string();
    TraceReader::new(std::io::BufReader::new(file), name).map_err(|e| {
        ArgError(format!("{path}: {e} (is this a TLCTRC01 file? see `tlc trace import`)"))
    })
}

/// `tlc sweep`.
pub fn cmd_sweep(args: &ArgMap) -> Result<String, ArgError> {
    let trace_path = args.get("trace").map(str::to_string);
    let sample_path = args.get("sample").map(str::to_string);
    if sample_path.is_some() && trace_path.is_none() {
        return Err(ArgError("--sample requires --trace".into()));
    }
    let (input, bench_name, budget) = match &trace_path {
        None => {
            let b = parse_workload(args)?;
            (SweepInput::Bench(b), b.name().to_string(), parse_budget(args)?)
        }
        Some(path) => {
            let reader = open_trace_reader(path)?;
            let name = reader.source_name().to_string();
            let sample = match &sample_path {
                None => None,
                Some(spath) => {
                    let json = std::fs::read_to_string(spath)
                        .map_err(|e| ArgError(format!("cannot read {spath}: {e}")))?;
                    let sample = PhaseSample::from_json(&json)
                        .map_err(|e| ArgError(format!("{spath}: {e}")))?;
                    sample.validate().map_err(|e| ArgError(format!("{spath}: {e}")))?;
                    Some(sample)
                }
            };
            // Trace mode defaults to the whole stream with no warm-up
            // discard; in sampled mode --warmup primes each slice instead.
            let budget = SimBudget {
                instructions: parse_instr(args, u64::MAX)?,
                warmup_instructions: args.get_or("warmup", 0)?,
            };
            (SweepInput::Trace { reader: Box::new(reader), sample }, name, budget)
        }
    };
    let ways: u32 = args.get_or("ways", 4)?;
    let offchip = parse_offchip(args)?;
    let policy = match args.get("policy").unwrap_or("conventional") {
        "conventional" => L2Policy::Conventional,
        "exclusive" => L2Policy::Exclusive,
        other => return Err(ArgError(format!("unknown policy {other:?}"))),
    };
    let repl = parse_l2_repl(args)?;
    let cell = if args.flag("dual") { CellKind::DualPorted } else { CellKind::SinglePorted };
    let opts = SpaceOptions {
        offchip_ns: offchip,
        l2_ways: ways,
        l2_policy: policy,
        l2_repl: repl,
        l1_cell: cell,
    };
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let threads: usize = args.get_or("threads", default_threads())?;
    if threads == 0 {
        return Err(ArgError("--threads must be at least 1".into()));
    }
    let requested = args.get("engine").unwrap_or("auto");
    let engine = Engine::parse(requested)?;
    match &input {
        SweepInput::Trace { sample: Some(_), .. }
            if !matches!(engine, Engine::Auto | Engine::Family) =>
        {
            return Err(ArgError(format!(
                "--sample replays phases through the family engine; --engine {requested} does \
                 not apply"
            )));
        }
        _ => {}
    }
    // Predict profiles a captured arena; a workload budget past the arena
    // bound is refused before anything is generated.
    if let (SweepInput::Bench(_), Engine::Predict) = (&input, engine) {
        if arena_bytes_for(budget) > ARENA_BYTES_LIMIT {
            return Err(ArgError(format!(
                "--engine predict: a {} MiB arena exceeds the {} MiB arena budget; lower \
                 --instr/--warmup or use --engine auto",
                arena_bytes_for(budget) >> 20,
                ARENA_BYTES_LIMIT >> 20
            )));
        }
    }
    let metrics_path = args.get("metrics").map(str::to_string);
    let trace_out_path = args.get("trace-out").map(str::to_string);
    let configs = full_space(&opts);
    configs.iter().try_for_each(check_config)?;

    // One observability epoch per sweep: counters and spans drained by
    // this run's manifest must not include a previous run's.
    tlc_obs::reset();
    let total = configs.len();
    let ticker = args.flag("progress").then(|| Ticker::start(move |t| sweep_progress(total, t)));
    let start = std::time::Instant::now();
    // Trace decode problems surface *during* capture (the reader parks
    // them); collected here and reported after the ticker is stopped.
    let mut trace_error: Option<String> = None;
    let result = {
        let _span = tlc_obs::obs_span!("sweep");
        match input {
            SweepInput::Bench(benchmark) => match engine {
                // Family replay over a captured arena, or over one
                // regenerated stream per L1 group past the arena bound.
                Engine::Auto | Engine::Family => {
                    try_sweep_threads(&configs, benchmark, budget, &timing, &area, threads)
                }
                // Analytical prediction: one reuse-distance pass per L1
                // group answers every conventional point; exclusive
                // members stay on replay. ε-accurate, not bit-identical
                // (see docs/models.md).
                Engine::Predict => {
                    let arena = {
                        let _span = tlc_obs::PhaseSpan::enter("arena_capture");
                        capture_benchmark(benchmark, budget)
                    };
                    try_sweep_predict_arena_threads(
                        &configs, &arena, budget, &timing, &area, threads,
                    )
                }
            },
            SweepInput::Trace { mut reader, sample: Some(sample) } => {
                // Sampled sweep: capture only the representative slices,
                // sweep each with the family engine, recombine weighted.
                let slices = {
                    let _span = tlc_obs::PhaseSpan::enter("slice_capture");
                    capture_phase_slices(&mut *reader, &sample, budget.warmup_instructions)
                };
                match reader.take_error() {
                    Some(e) => {
                        trace_error = Some(e.to_string());
                        Ok(Vec::new())
                    }
                    None => try_sweep_sampled_threads(&configs, &slices, &timing, &area, threads),
                }
            }
            SweepInput::Trace { mut reader, sample: None } => {
                // Full-trace sweep: capture the whole stream (or --instr
                // worth) into an arena, then fan out like any other sweep.
                let cap = if budget.instructions == u64::MAX {
                    (ARENA_BYTES_LIMIT / ARENA_BYTES_PER_RECORD) as u64
                } else {
                    budget.warmup_instructions.saturating_add(budget.instructions)
                };
                let arena = {
                    let _span = tlc_obs::PhaseSpan::enter("trace_capture");
                    TraceArena::capture(&mut *reader, cap)
                };
                if let Some(e) = reader.take_error() {
                    trace_error = Some(e.to_string());
                }
                if trace_error.is_none() && arena.len() <= budget.warmup_instructions {
                    trace_error = Some(format!(
                        "{bench_name} holds {} instructions: nothing left to measure after \
                         --warmup {}",
                        arena.len(),
                        budget.warmup_instructions
                    ));
                }
                if trace_error.is_none()
                    && budget.instructions == u64::MAX
                    && arena.len() == cap
                    && reader.try_next().is_ok_and(|r| r.is_some())
                {
                    trace_error = Some(format!(
                        "trace exceeds the {} MiB arena budget; sweep a prefix with --instr N or \
                         sample it first (tlc trace sample + --sample)",
                        ARENA_BYTES_LIMIT >> 20
                    ));
                }
                if trace_error.is_some() {
                    Ok(Vec::new())
                } else {
                    let budget = SimBudget {
                        instructions: arena.len().saturating_sub(budget.warmup_instructions),
                        warmup_instructions: budget.warmup_instructions,
                    };
                    match engine {
                        Engine::Predict => try_sweep_predict_arena_threads(
                            &configs, &arena, budget, &timing, &area, threads,
                        ),
                        // auto == family for a captured trace.
                        Engine::Auto | Engine::Family => try_sweep_family_arena_threads(
                            &configs, &arena, budget, &timing, &area, threads,
                        ),
                    }
                }
            }
        }
    };
    if let Some(t) = ticker {
        t.stop();
    }
    if let Err(e) = &result {
        let kind =
            if matches!(e, SweepError::Worker { .. }) { "worker.panic" } else { "sweep.error" };
        tlc_obs::record_event(kind, e.to_string());
    }
    // Drain the raw spans once: the Perfetto timeline consumes them
    // per-instance, the manifest aggregates the same records into its
    // span tree.
    let spans = tlc_obs::take_spans();
    let trace_json =
        trace_out_path.as_ref().map(|_| tlc_obs::trace_export::chrome_trace_json(&spans));
    let manifest = RunManifest::from_parts(
        RunMeta {
            command: "sweep".to_string(),
            benchmark: bench_name.clone(),
            engine: engine.name().to_string(),
            threads: threads as u64,
            configs: configs.len() as u64,
            config_space_hash: config_space_hash(&configs),
            wall_s: start.elapsed().as_secs_f64(),
        },
        spans,
        tlc_obs::take_events(),
        tlc_obs::counters().snapshot(),
    );
    // The manifest is written even when the sweep failed — the recorded
    // engine selection and the worker.panic or sweep.error event are
    // exactly what a post-mortem needs.
    if let Some(path) = &metrics_path {
        std::fs::write(path, manifest.to_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    if let (Some(path), Some(json)) = (&trace_out_path, trace_json) {
        std::fs::write(path, json).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    if let Some(e) = trace_error {
        return Err(ArgError(e));
    }
    let points = result.map_err(|e| match e {
        SweepError::Worker { .. } => ArgError(format!("sweep worker thread panicked at {e}")),
        e => ArgError(e.to_string()),
    })?;
    if args.flag("csv") {
        return Ok(points_csv(&points));
    }
    let title = format!(
        "{bench_name}: {offchip}ns off-chip, {ways}-way {} L2{}",
        if policy == L2Policy::Exclusive { "exclusive" } else { "conventional" },
        if cell == CellKind::DualPorted { ", dual-ported L1" } else { "" }
    );
    let mut out = points_table(&title, &points);
    out.push('\n');
    out.push_str(&envelope_table("best performance envelope:", &points));
    Ok(out)
}

/// A `tlc sweep --engine` choice, parsed once up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The default: family replay, the same call as `Family` (named
    /// apart in run manifests).
    Auto,
    /// Miss-stream filtering with family-batched L2 replay.
    Family,
    /// Analytical reuse-distance prediction (ε-accurate).
    Predict,
}

impl Engine {
    /// Parses an `--engine` value.
    fn parse(name: &str) -> Result<Engine, ArgError> {
        Ok(match name {
            "auto" => Engine::Auto,
            "family" => Engine::Family,
            "predict" => Engine::Predict,
            other => {
                return Err(ArgError(format!(
                    "unknown engine {other:?}; choose auto, family or predict"
                )))
            }
        })
    }

    /// The canonical name recorded in run manifests.
    fn name(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Family => "family",
            Engine::Predict => "predict",
        }
    }
}

/// Deterministic identity of a swept configuration space: FNV-1a 64
/// over its JSON serialization, hex-encoded. Ties a manifest to the
/// exact design points it measured (the std hasher is randomly seeded
/// per process, so it cannot serve here).
fn config_space_hash(configs: &[MachineConfig]) -> String {
    let json = serde_json::to_string(&configs.to_vec()).expect("configs serialize");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// The `--progress` stderr ticker: a thread that, every 200 ms until
/// stopped, prints the line `line` formats from the elapsed seconds
/// (reading the global counters it paces against).
struct Ticker {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Ticker {
    fn start(line: impl Fn(f64) -> String + Send + 'static) -> Ticker {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = stop.clone();
        let handle = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while !seen.load(Ordering::Relaxed) {
                std::thread::sleep(std::time::Duration::from_millis(200));
                if seen.load(Ordering::Relaxed) {
                    break;
                }
                eprintln!("{}", line(start.elapsed().as_secs_f64()));
            }
        });
        Ticker { stop, handle }
    }

    fn stop(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// The `tlc sweep --progress` line: configs done, elapsed/ETA, and event
/// throughput.
fn sweep_progress(total: usize, elapsed: f64) -> String {
    let done = tlc_obs::counters().get(Counter::RunnerConfigsCompleted);
    let predicted = tlc_obs::counters().get(Counter::PredictConfigsPredicted);
    let events = tlc_obs::counters().get(Counter::FilterEventsDecoded)
        + tlc_obs::counters().get(Counter::L2EventsReplayed);
    // Analytically-predicted configs complete near-instantly; pacing the
    // ETA on them would promise the replayed remainder far too soon.
    // Extrapolate from replay-paced completions only (with no
    // predictions this is `done`).
    let pace_basis = done.saturating_sub(predicted);
    let eta = if pace_basis > 0 {
        format!(
            "{:.1}s",
            elapsed * (total.saturating_sub(done as usize)) as f64 / pace_basis as f64
        )
    } else {
        "?".to_string()
    };
    let split = if predicted > 0 {
        format!(" ({predicted} predicted, {pace_basis} replayed)")
    } else {
        String::new()
    };
    // Before the first capture finishes no filter or replay counter has
    // moved; leave throughput off rather than reporting a misleading
    // zero.
    let rate = if events > 0 {
        format!(", {:.1} M events/s", events as f64 / elapsed / 1e6)
    } else {
        String::new()
    };
    format!(
        "# sweep progress: {done}/{total} configs{split}, {elapsed:.1}s elapsed, eta {eta}{rate}"
    )
}

/// The `tlc audit --progress` line: cases/s, elapsed against the
/// `--seconds` budget, and divergences found so far.
fn audit_progress(budget_s: f64, elapsed: f64) -> String {
    let cases = tlc_obs::counters().get(Counter::AuditCases);
    let divergences = tlc_obs::counters().get(Counter::AuditDivergences);
    format!(
        "# audit progress: {cases} cases ({:.0}/s), {elapsed:.1}s of {budget_s:.1}s budget, {divergences} divergence(s)",
        cases as f64 / elapsed.max(1e-9)
    )
}

/// `tlc profile`.
pub fn cmd_profile(args: &ArgMap) -> Result<String, ArgError> {
    let benchmark = parse_workload(args)?;
    let n: u64 = args.get_or("instr", 500_000)?;
    let mut w = benchmark.workload();
    let mut pi = StackDistanceProfiler::new();
    let mut pd = StackDistanceProfiler::new();
    for _ in 0..n {
        let rec = w.next_instruction();
        pi.record(rec.fetch.line(16));
        if let Some(d) = rec.data {
            pd.record(d.addr.line(16));
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{benchmark}: fully-associative LRU miss ratios from one Mattson pass ({n} instructions)"
    );
    let _ = writeln!(
        out,
        "instr stream: {} refs, {} unique lines; data stream: {} refs, {} unique lines\n",
        pi.accesses(),
        pi.unique_lines(),
        pd.accesses(),
        pd.unique_lines()
    );
    let _ = writeln!(out, "{:>8} {:>12} {:>12} {:>12}", "size", "instr", "data", "combined");
    for kb in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
        let lines = kb * 1024 / 16;
        let mi = pi.miss_ratio_at_capacity(lines);
        let md = pd.miss_ratio_at_capacity(lines);
        let combined = (pi.misses_at_capacity(lines) + pd.misses_at_capacity(lines)) as f64
            / (pi.accesses() + pd.accesses()) as f64;
        let _ = writeln!(out, "{kb:>7}K {mi:>12.4} {md:>12.4} {combined:>12.4}");
    }
    Ok(out)
}

/// `tlc timing`.
pub fn cmd_timing(args: &ArgMap) -> Result<String, ArgError> {
    let kb: u64 = args.get_or("size", 32)?;
    let ways: u32 = args.get_or("ways", 1)?;
    if kb == 0 || !kb.is_power_of_two() {
        return Err(ArgError("--size must be a power-of-two KB count".into()));
    }
    let cell = if args.flag("dual") { CellKind::DualPorted } else { CellKind::SinglePorted };
    let geom = CacheGeometry { size_bytes: kb * 1024, line_bytes: 16, ways, addr_bits: 32 };
    if geom.lines() < ways as u64 || !ways.is_power_of_two() {
        return Err(ArgError(format!("a {kb}KB cache cannot be {ways}-way")));
    }
    let area = AreaModel::new();
    let energy = EnergyModel::new();
    let mut out = String::new();
    let _ = writeln!(out, "{kb}KB {ways}-way, {cell} cells:");
    let t = if args.flag("detailed") {
        let m = DetailedTimingModel::paper();
        let _ = writeln!(out, "(transistor-level Horowitz/RC model)");
        m.optimal(&geom, cell)
    } else {
        TimingModel::paper().optimal(&geom, cell)
    };
    let a = area.cache_area(&geom, &t.org, cell);
    let e = energy.access_energy(&geom, &t.org, cell);
    let _ = writeln!(out, "  timing : {t}");
    let _ =
        writeln!(out, "  area   : {} ({:.1}% periphery)", a.total(), a.overhead_fraction() * 100.0);
    let _ = writeln!(out, "  energy : {e}");
    Ok(out)
}

/// `tlc workload <spec.json>`.
pub fn cmd_workload(args: &ArgMap) -> Result<String, ArgError> {
    let path = args
        .positional(1)
        .ok_or_else(|| ArgError("usage: tlc workload <spec.json> [options]".into()))?;
    let json =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let spec = WorkloadSpec::from_json(&json).map_err(|e| ArgError(e.to_string()))?;
    let mut workload = spec.build().map_err(|e| ArgError(e.to_string()))?;
    let cfg = parse_machine(args)?;
    let budget = parse_budget(args)?;
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let stats = simulate_source(&cfg, &mut workload, budget);
    let t = MachineTiming::derive(&cfg, &timing, &area);
    let tpi = tpi_ns(&stats, &t);
    let mut out = String::new();
    let _ = writeln!(out, "workload      : {} (from {path})", spec.name);
    let _ = writeln!(out, "configuration : {cfg}");
    let _ = writeln!(out, "area          : {:.0} rbe", t.area_rbe);
    let _ = writeln!(out, "stats         : {stats}");
    let _ = writeln!(out, "TPI           : {tpi:.2} ns/instruction");
    Ok(out)
}

/// `tlc compare`: every cache organisation at one geometry.
pub fn cmd_compare(args: &ArgMap) -> Result<String, ArgError> {
    use tlc_cache::{
        Associativity, CacheConfig, ConventionalTwoLevel, ExclusiveTwoLevel, InclusiveTwoLevel,
        MemorySystem, SingleLevel, StreamBufferSystem, VictimCacheSystem,
    };
    let benchmark = parse_workload(args)?;
    let l1_kb: u64 = args.get_or("l1", 4)?;
    let l2_kb: u64 = args.get_or("l2", 32)?;
    let n: u64 = args.get_or("instr", 300_000)?;
    if !l1_kb.is_power_of_two() || !l2_kb.is_power_of_two() || l2_kb < l1_kb {
        return Err(ArgError("--l1/--l2 must be powers of two with l2 >= l1".into()));
    }
    let l1 = CacheConfig::paper(l1_kb * 1024, Associativity::Direct)
        .map_err(|e| ArgError(e.to_string()))?;
    let l2 = CacheConfig::paper(l2_kb * 1024, Associativity::SetAssoc(4))
        .map_err(|e| ArgError(e.to_string()))?;

    let mut systems: Vec<Box<dyn MemorySystem>> = vec![
        Box::new(SingleLevel::new(l1)),
        Box::new(VictimCacheSystem::new(l1, 8).map_err(|e| ArgError(e.to_string()))?),
        Box::new(StreamBufferSystem::new(l1, 8, 4)),
        Box::new(InclusiveTwoLevel::new(l1, l2)),
        Box::new(ConventionalTwoLevel::new(l1, l2)),
        Box::new(ExclusiveTwoLevel::new(l1, l2)),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{benchmark}, {n} instructions; {l1_kb}KB DM L1 pair, {l2_kb}KB 4-way L2 where applicable\n"
    );
    let _ = writeln!(out, "{:>10} {:>10} {:>10}  organisation", "L1 miss", "L2 local", "off-chip");
    for sys in &mut systems {
        let mut w = benchmark.workload();
        for _ in 0..n {
            let rec = w.next_instruction();
            sys.access_instruction(&rec);
        }
        let s = sys.stats();
        let _ = writeln!(
            out,
            "{:>10.4} {:>10.4} {:>10}  {}",
            s.l1_miss_rate(),
            s.l2_local_miss_rate(),
            s.l2_misses,
            sys.describe()
        );
    }
    Ok(out)
}

/// `tlc list`.
pub fn cmd_list() -> String {
    let mut out = String::from("built-in workloads (synthetic SPEC'89-like, Table 1):\n");
    for b in SpecBenchmark::ALL {
        let r = b.paper_refs();
        let _ = writeln!(
            out,
            "  {:<9} paper {:.1}M instr / {:.1}M data refs; data/instr {:.3}",
            b.name(),
            r.instr_m,
            r.data_m,
            b.data_per_instr()
        );
    }
    out.push_str("\npaper exhibits: see `repro --list` (tlc-bench crate)\n");
    out
}

/// `tlc audit` — randomized differential audit of every replay engine
/// against the naive per-access reference oracle.
pub fn cmd_audit(args: &ArgMap) -> Result<String, ArgError> {
    let defaults = AuditOptions::default();
    // Seeds are echoed back in hex (`rerun with --seed 0x…`), so accept
    // both decimal and 0x-prefixed hex on the way in (shared with
    // `trace sample --seed`).
    let seed = args.get_seed_or("seed", defaults.seed)?;
    let opts = AuditOptions {
        seed,
        seconds: args.get_or("seconds", defaults.seconds)?,
        min_cases: args.get_or("cases", defaults.min_cases)?,
        corpus_dir: args.get("corpus").map(std::path::PathBuf::from),
        ..defaults
    };
    // The ticker paces against the `audit.cases`/`audit.divergences`
    // counters, so start them from zero for this run.
    tlc_obs::reset();
    let budget_s = opts.seconds;
    let ticker = args.flag("progress").then(|| Ticker::start(move |t| audit_progress(budget_s, t)));
    let report = run_audit(&opts);
    if let Some(t) = ticker {
        t.stop();
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit: seed {:#018x}, {} cases in {:.1}s across {}",
        report.seed,
        report.cases,
        report.elapsed_seconds,
        report.engines.join("/")
    );
    for c in &report.checks {
        let _ =
            writeln!(out, "  {:<32} {:>7} runs  {:>4} divergences", c.name, c.runs, c.divergences);
    }
    if report.is_clean() {
        out.push_str("clean: every engine agreed with the oracle on every case.\n");
        Ok(out)
    } else {
        for d in &report.divergences {
            let _ = writeln!(
                out,
                "DIVERGENCE case {} [{}] {} on {}: {}{}",
                d.case_index,
                d.check,
                d.config,
                d.workload,
                d.detail,
                d.corpus_entry.as_deref().map(|s| format!(" (corpus: {s})")).unwrap_or_default()
            );
        }
        Err(ArgError(format!(
            "{out}audit found {} divergence(s); rerun with --seed {:#x} to reproduce",
            report.divergences.len(),
            report.seed
        )))
    }
}

/// `tlc runs` — the persisted run registry: `list`, `show`, `add`, and
/// the regression ratchet `diff`.
pub fn cmd_runs(args: &ArgMap) -> Result<String, ArgError> {
    use tlc_obs::registry::{RunRegistry, DEFAULT_DIR};
    let dir = std::path::PathBuf::from(args.get("dir").unwrap_or(DEFAULT_DIR));
    match args.positional(1) {
        Some("list") => {
            let reg = RunRegistry::open(&dir).map_err(ArgError)?;
            let entries = reg.list().map_err(ArgError)?;
            if entries.is_empty() {
                return Ok(format!(
                    "no runs registered under {} (file one with `tlc runs add manifest.json`)\n",
                    dir.display()
                ));
            }
            let mut out = String::new();
            let _ = writeln!(out, "{:<44} {:<10} {:<10} {:>9}", "id", "workload", "engine", "wall");
            for e in &entries {
                let _ = writeln!(
                    out,
                    "{:<44} {:<10} {:<10} {:>8.2}s",
                    e.id, e.benchmark, e.engine, e.wall_s
                );
            }
            let _ = writeln!(out, "{} run(s) under {}", entries.len(), dir.display());
            Ok(out)
        }
        Some("show") => {
            let id = args
                .positional(2)
                .ok_or_else(|| ArgError("usage: tlc runs show ID [--dir D]".into()))?;
            let manifest = resolve_manifest(&dir, id)?;
            Ok(manifest.render_text())
        }
        Some("add") => {
            let path = args
                .positional(2)
                .ok_or_else(|| ArgError("usage: tlc runs add manifest.json [--dir D]".into()))?;
            let manifest = tlc_obs::registry::load_manifest_file(std::path::Path::new(path))
                .map_err(ArgError)?;
            let reg = RunRegistry::open(&dir).map_err(ArgError)?;
            let id = reg.add(&manifest).map_err(ArgError)?;
            Ok(format!("registered {id} under {}\n", dir.display()))
        }
        Some("diff") => cmd_runs_diff(args, &dir),
        _ => Err(ArgError("usage: tlc runs <list|show|add|diff> ... (see tlc help)".into())),
    }
}

/// `tlc runs diff A B` — compare a candidate run against a baseline and
/// fail (non-zero exit) if anything regressed beyond tolerance.
fn cmd_runs_diff(args: &ArgMap, dir: &std::path::Path) -> Result<String, ArgError> {
    use tlc_obs::registry::{diff_manifests, DiffTolerances};
    // Operands can be positional (`diff A B`) or named, which reads
    // better in CI scripts (`diff --baseline ci/baseline.json --candidate m.json`).
    let baseline_ref = args
        .get("baseline")
        .or_else(|| args.positional(2))
        .ok_or_else(|| ArgError("usage: tlc runs diff BASELINE CANDIDATE [--tol-* F]".into()))?
        .to_string();
    let candidate_ref = args
        .get("candidate")
        .or_else(|| {
            // With `--baseline X` the candidate may be the only positional.
            if args.get("baseline").is_some() {
                args.positional(2)
            } else {
                args.positional(3)
            }
        })
        .ok_or_else(|| ArgError("usage: tlc runs diff BASELINE CANDIDATE [--tol-* F]".into()))?
        .to_string();
    let defaults = DiffTolerances::default();
    let tol = DiffTolerances {
        wall_frac: args.get_or("tol-wall", defaults.wall_frac)?,
        counter_frac: args.get_or("tol-counter", defaults.counter_frac)?,
        quantile_frac: args.get_or("tol-quantile", defaults.quantile_frac)?,
        memory_frac: args.get_or("tol-memory", defaults.memory_frac)?,
    };
    let baseline = resolve_manifest(dir, &baseline_ref)?;
    let candidate = resolve_manifest(dir, &candidate_ref)?;
    let report = diff_manifests(&baseline, &candidate, tol);
    let rendered = report.render_text();
    let regressions = report.regressions();
    if regressions.is_empty() {
        Ok(rendered)
    } else {
        Err(ArgError(format!(
            "{rendered}{} metric(s) regressed beyond tolerance ({candidate_ref} vs {baseline_ref})",
            regressions.len()
        )))
    }
}

/// Resolves a diff/show operand: an existing manifest file wins, then a
/// path-looking operand is treated as a file, anything else as a
/// registry id (or unique prefix).
fn resolve_manifest(
    dir: &std::path::Path,
    operand: &str,
) -> Result<tlc_obs::manifest::RunManifest, ArgError> {
    let path = std::path::Path::new(operand);
    if path.is_file() || operand.contains('/') || operand.ends_with(".json") {
        return tlc_obs::registry::load_manifest_file(path).map_err(ArgError);
    }
    let reg = tlc_obs::registry::RunRegistry::open(dir).map_err(ArgError)?;
    reg.load(operand).map_err(ArgError)
}

/// `tlc trace` — on-disk trace utilities: `import`, `sample`, `info`.
pub fn cmd_trace(args: &ArgMap) -> Result<String, ArgError> {
    match args.positional(1) {
        Some("import") => cmd_trace_import(args),
        Some("sample") => cmd_trace_sample(args),
        Some("info") => cmd_trace_info(args),
        _ => Err(ArgError("usage: tlc trace <import|sample|info> ... (see tlc help)".into())),
    }
}

/// `tlc trace import IN OUT` — convert any supported trace format to
/// compact `TLCTRC01`.
fn cmd_trace_import(args: &ArgMap) -> Result<String, ArgError> {
    let input = args.positional(2).ok_or_else(|| {
        ArgError("usage: tlc trace import IN OUT [--format F] [--limit N]".into())
    })?;
    let output = args.positional(3).ok_or_else(|| {
        ArgError("usage: tlc trace import IN OUT [--format F] [--limit N]".into())
    })?;
    let limit = match args.get("limit") {
        None => None,
        Some(_) => Some(args.require::<u64>("limit")?),
    };
    let format = match args.get("format").unwrap_or("auto") {
        "auto" => {
            // Sniff the first bytes; magic formats identify themselves,
            // text formats by their line shape. The window is generous
            // so a text trace's `#` comment header cannot swallow it
            // before the first payload line.
            let mut prefix = [0u8; 4096];
            let mut f = std::fs::File::open(input)
                .map_err(|e| ArgError(format!("cannot open {input}: {e}")))?;
            let mut filled = 0usize;
            while filled < prefix.len() {
                match std::io::Read::read(&mut f, &mut prefix[filled..]) {
                    Ok(0) => break,
                    Ok(n) => filled += n,
                    Err(e) => return Err(ArgError(format!("cannot read {input}: {e}"))),
                }
            }
            ImportFormat::detect(&prefix[..filled])
        }
        other => ImportFormat::parse(other).ok_or_else(|| {
            ArgError(format!(
                "unknown format {other:?}; choose auto, compact, instr, refs, text, addr-text or \
                 addr-bin"
            ))
        })?,
    };
    let reader = std::io::BufReader::new(
        std::fs::File::open(input).map_err(|e| ArgError(format!("cannot open {input}: {e}")))?,
    );
    let writer = std::io::BufWriter::new(
        std::fs::File::create(output)
            .map_err(|e| ArgError(format!("cannot create {output}: {e}")))?,
    );
    let written = import_to_compact(format, reader, writer, limit)
        .map_err(|e| ArgError(format!("{input}: {e}")))?;
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "imported {written} instructions from {input} ({}) -> {output} ({bytes} bytes, {:.2} \
         B/instr)\n",
        format.name(),
        if written > 0 { bytes as f64 / written as f64 } else { 0.0 }
    ))
}

/// `tlc trace sample FILE` — cluster the trace's intervals into K
/// representative phases and persist the weighted selection.
fn cmd_trace_sample(args: &ArgMap) -> Result<String, ArgError> {
    let path = args.positional(2).ok_or_else(|| {
        ArgError("usage: tlc trace sample FILE [--interval N] [--k N] [--seed S] [--out F]".into())
    })?;
    let defaults = SampleOptions::default();
    let opts = SampleOptions {
        interval: args.get_or("interval", defaults.interval)?,
        phases: args.get_or("k", defaults.phases)?,
        seed: args.get_seed_or("seed", defaults.seed)?,
    };
    if opts.interval == 0 {
        return Err(ArgError("--interval must be at least 1".into()));
    }
    let mut reader = open_trace_reader(path)?;
    let sample = sample_source(&mut reader, &opts);
    if let Some(e) = reader.take_error() {
        return Err(ArgError(format!("{path}: {e}")));
    }
    sample.validate().map_err(|e| ArgError(format!("{path}: sampling failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} instructions in {} intervals of {} -> {} phases (k {}, seed {:#x})",
        sample.trace,
        sample.instructions,
        sample.intervals,
        sample.interval,
        sample.phases.len(),
        sample.k,
        sample.seed
    );
    for p in &sample.phases {
        let _ = writeln!(
            out,
            "  phase @ interval {:>6}: {:>5} member interval(s), weight {:>12} instructions \
             ({:.1}%)",
            p.representative,
            p.members,
            p.weight_instructions,
            100.0 * p.weight_instructions as f64 / sample.instructions as f64
        );
    }
    let replayed: u64 = sample
        .phases
        .iter()
        .map(|p| sample.interval.min(sample.instructions - p.representative * sample.interval))
        .sum();
    let _ = writeln!(
        out,
        "sampled replay covers {replayed} of {} instructions ({:.1}x reduction)",
        sample.instructions,
        sample.instructions as f64 / replayed as f64
    );
    match args.get("out") {
        Some(dest) => {
            std::fs::write(dest, sample.to_json())
                .map_err(|e| ArgError(format!("cannot write {dest}: {e}")))?;
            let _ = writeln!(out, "selection written to {dest} ({PHASE_SAMPLE_USAGE})");
            Ok(out)
        }
        None => Ok(format!("{out}\n{}\n", sample.to_json())),
    }
}

/// How a persisted selection is consumed, for the `sample` report text.
const PHASE_SAMPLE_USAGE: &str = "replay with: tlc sweep --trace FILE --sample <this file>";

/// `tlc trace info FILE` — header, counts, footprint, and per-interval
/// summary, without running any sweep.
fn cmd_trace_info(args: &ArgMap) -> Result<String, ArgError> {
    let path = args
        .positional(2)
        .ok_or_else(|| ArgError("usage: tlc trace info FILE [--interval N]".into()))?;
    let interval: u64 = args.get_or("interval", 100_000)?;
    if interval == 0 {
        return Err(ArgError("--interval must be at least 1".into()));
    }
    let mut reader = open_trace_reader(path)?;
    let mut stats = TraceStats::new(16);
    // Per-interval rollup: instructions, data refs, distinct 4 KiB
    // regions touched (fetch + data).
    struct IntervalRow {
        instructions: u64,
        data_refs: u64,
        regions: std::collections::BTreeSet<u64>,
    }
    let mut rows: Vec<IntervalRow> = Vec::new();
    let mut current =
        IntervalRow { instructions: 0, data_refs: 0, regions: std::collections::BTreeSet::new() };
    let mut batch = batch_buffer();
    loop {
        let got = reader.next_batch(&mut batch);
        for rec in &batch[..got] {
            stats.record_instruction(rec);
            current.instructions += 1;
            current.regions.insert(rec.fetch.raw() >> 12);
            if let Some(d) = rec.data {
                current.data_refs += 1;
                current.regions.insert(d.addr.raw() >> 12);
            }
            if current.instructions == interval {
                rows.push(std::mem::replace(
                    &mut current,
                    IntervalRow {
                        instructions: 0,
                        data_refs: 0,
                        regions: std::collections::BTreeSet::new(),
                    },
                ));
            }
        }
        if got < batch.len() {
            break;
        }
    }
    if let Some(e) = reader.take_error() {
        return Err(ArgError(format!("{path}: {e}")));
    }
    if current.instructions > 0 {
        rows.push(current);
    }
    let n = stats.instr_refs();
    let mut out = String::new();
    let _ = writeln!(out, "trace    : {path} (TLCTRC01 v1, {} bytes)", reader.byte_offset());
    let _ = writeln!(
        out,
        "records  : {n} instructions ({:.2} B/instr)",
        if n > 0 { reader.byte_offset() as f64 / n as f64 } else { 0.0 }
    );
    let _ = writeln!(
        out,
        "refs     : {} data ({} loads, {} stores); {:.3} data/instr",
        stats.data_refs(),
        stats.loads(),
        stats.stores(),
        if n > 0 { stats.data_refs() as f64 / n as f64 } else { 0.0 }
    );
    let _ = writeln!(
        out,
        "footprint: instr {} KB, data {} KB (16B lines)",
        stats.instr_footprint_bytes() / 1024,
        stats.data_footprint_bytes() / 1024
    );
    let _ = writeln!(out, "intervals: {} of {} instructions", rows.len(), interval);
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>12} {:>12}",
        "interval", "instructions", "data refs", "4K regions"
    );
    const MAX_ROWS: usize = 24;
    for (i, row) in rows.iter().take(MAX_ROWS).enumerate() {
        let _ = writeln!(
            out,
            "{i:>8} {:>14} {:>12} {:>12}",
            row.instructions,
            row.data_refs,
            row.regions.len()
        );
    }
    if rows.len() > MAX_ROWS {
        let _ = writeln!(out, "     ... {} more interval(s)", rows.len() - MAX_ROWS);
    }
    Ok(out)
}

/// Dispatches a full command line (without argv\[0\]).
pub fn dispatch(raw: Vec<String>) -> Result<String, ArgError> {
    let flags = ["csv", "dual", "detailed", "quick", "progress", "help"];
    let args = ArgMap::parse(raw, &flags)?;
    // `--help` anywhere on the line, a subcommand's included, asks for
    // the usage text instead of running anything.
    if args.flag("help") {
        return Ok(usage());
    }
    let cmd = args.positional(0).unwrap_or("help");
    match cmd {
        "evaluate" => cmd_evaluate(&args),
        "sweep" => cmd_sweep(&args),
        "profile" => cmd_profile(&args),
        "timing" => cmd_timing(&args),
        "workload" => cmd_workload(&args),
        "compare" => cmd_compare(&args),
        "audit" => cmd_audit(&args),
        "runs" => cmd_runs(&args),
        "trace" => cmd_trace(&args),
        "list" => Ok(cmd_list()),
        "help" | "-h" => Ok(usage()),
        other => Err(ArgError(format!("unknown command {other:?}\n\n{}", usage()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// cmd_sweep resets the process-global obs counters, and every
    /// evaluation ticks them, so nothing that evaluates may run
    /// concurrently inside this test binary.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn run(args: &[&str]) -> Result<String, ArgError> {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        dispatch(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn help_and_list() {
        assert!(run(&["help"]).expect("help").contains("usage"));
        assert_eq!(run(&["--help"]).expect("--help"), usage());
        assert_eq!(run(&["sweep", "--workload", "li", "--help"]).expect("sweep --help"), usage());
        let l = run(&["list"]).expect("list");
        for b in SpecBenchmark::ALL {
            assert!(l.contains(b.name()));
        }
    }

    #[test]
    fn audit_small_run_is_clean_and_writes_json() {
        let dir = std::env::temp_dir().join(format!("tlc-audit-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let json = dir.join("audit.json");
        let out = run(&[
            "audit",
            "--cases",
            "6",
            "--seed",
            "11",
            "--json",
            json.to_str().expect("utf-8 path"),
        ])
        .expect("audit");
        assert!(out.contains("clean"));
        assert!(out.contains("streaming/arena/family/predict"));
        let doc: tlc_core::audit::AuditReport =
            serde_json::from_str(&std::fs::read_to_string(&json).expect("json written"))
                .expect("valid report json");
        assert_eq!(doc.schema, "tlc-audit-report/1");
        assert_eq!(doc.seed, 11);
        assert!(doc.is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("usage"));
    }

    #[test]
    fn evaluate_runs() {
        let out = run(&[
            "evaluate",
            "--workload",
            "espresso",
            "--l1",
            "4",
            "--l2",
            "32",
            "--policy",
            "exclusive",
            "--instr",
            "20000",
            "--warmup",
            "5000",
        ])
        .expect("evaluate");
        assert!(out.contains("TPI"));
        assert!(out.contains("exclusive"));
    }

    #[test]
    fn evaluate_accepts_l2_repl() {
        let out = run(&[
            "evaluate",
            "--workload",
            "espresso",
            "--l1",
            "4",
            "--l2",
            "32",
            "--l2-repl",
            "srrip",
            "--instr",
            "20000",
        ])
        .expect("evaluate with srrip L2");
        assert!(out.contains("TPI"));
    }

    #[test]
    fn unknown_l2_repl_is_a_typed_error() {
        let e = run(&[
            "evaluate",
            "--workload",
            "espresso",
            "--l1",
            "4",
            "--l2",
            "32",
            "--l2-repl",
            "clairvoyant",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("clairvoyant"));
        assert!(e.to_string().contains("srrip"));
    }

    #[test]
    fn evaluate_requires_workload() {
        let e = run(&["evaluate", "--l1", "8"]).unwrap_err();
        assert!(e.to_string().contains("--workload"));
    }

    #[test]
    fn timing_reports_all_three_models() {
        let out = run(&["timing", "--size", "8"]).expect("timing");
        assert!(out.contains("timing") && out.contains("area") && out.contains("energy"));
        let det = run(&["timing", "--size", "8", "--detailed"]).expect("detailed");
        assert!(det.contains("transistor-level"));
        assert!(run(&["timing", "--size", "3"]).is_err());
        assert!(run(&["timing", "--size", "1", "--ways", "128"]).is_err());
    }

    #[test]
    fn profile_prints_curve() {
        let out = run(&["profile", "--workload", "eqntott", "--instr", "20000"]).expect("profile");
        assert!(out.contains("Mattson"));
        assert!(out.contains("256K"));
    }

    #[test]
    fn workload_from_json_file() {
        let spec = r#"{
            "name": "tiny", "seed": 1, "data_per_instr": 0.3, "store_fraction": 0.2,
            "code": { "footprint_kb": 8, "n_sites": 6, "body_min_bytes": 64,
                      "body_max_bytes": 256, "mean_iters": 4.0, "zipf_theta": 1.0,
                      "p_excursion": 0.01, "excursion_bytes": 256 },
            "data": { "regions": [ { "base": 268435456, "size_kb": 16,
                                     "weight": 1.0, "mean_run": 4.0 } ] }
        }"#;
        let path = std::env::temp_dir().join("tlc_cli_test_spec.json");
        std::fs::write(&path, spec).expect("write spec");
        let out = run(&[
            "workload",
            path.to_str().expect("utf8 path"),
            "--l1",
            "4",
            "--l2",
            "32",
            "--instr",
            "20000",
            "--warmup",
            "4000",
        ])
        .expect("workload");
        assert!(out.contains("tiny"));
        assert!(out.contains("TPI"));
    }

    #[test]
    fn workload_reports_file_errors() {
        let e = run(&["workload", "/nonexistent/spec.json"]).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn compare_lists_all_organisations() {
        let out = run(&["compare", "--workload", "espresso", "--instr", "30000"]).expect("compare");
        for needle in
            ["single-level", "victim", "stream-buffer", "inclusive", "conventional", "exclusive"]
        {
            assert!(out.contains(needle), "missing {needle}");
        }
        assert!(run(&["compare", "--workload", "espresso", "--l1", "64", "--l2", "4"]).is_err());
    }

    #[test]
    fn sweep_csv_mode() {
        let out = run(&[
            "sweep",
            "--workload",
            "eqntott",
            "--instr",
            "5000",
            "--warmup",
            "1000",
            "--csv",
        ])
        .expect("sweep");
        assert!(out.starts_with("workload,label"));
        assert!(out.lines().count() > 40);
    }

    #[test]
    fn sweep_engines_agree_and_bad_engine_is_rejected() {
        let base = [
            "sweep",
            "--workload",
            "li",
            "--instr",
            "4000",
            "--warmup",
            "1000",
            "--csv",
            "--engine",
        ];
        // Both policies, each against an independent reference: every
        // point through its own per-access hierarchy on the regenerated
        // stream.
        let budget = SimBudget { instructions: 4000, warmup_instructions: 1000 };
        let (timing, area) = (TimingModel::paper(), AreaModel::new());
        for (policy, l2_policy) in
            [("conventional", L2Policy::Conventional), ("exclusive", L2Policy::Exclusive)]
        {
            let opts = SpaceOptions { l2_policy, ..SpaceOptions::baseline() };
            let reference: Vec<_> = {
                let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
                full_space(&opts)
                    .iter()
                    .map(|cfg| {
                        evaluate(cfg, &mut SpecBenchmark::Li.workload(), budget, &timing, &area)
                    })
                    .collect()
            };
            for engine in ["auto", "family"] {
                let mut argv: Vec<&str> = base.to_vec();
                argv.extend([engine, "--policy", policy]);
                let out = run(&argv).unwrap_or_else(|e| panic!("{policy} {engine}: {e:?}"));
                assert_eq!(
                    out,
                    points_csv(&reference),
                    "{policy} {engine}: diverged from evaluate"
                );
            }
        }
        // `streaming`, `filtered` and `arena` were removed, not aliased:
        // they are as unknown as `warp`.
        for bad in ["warp", "streaming", "filtered", "arena"] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.push(bad);
            let err = run(&argv).expect_err("unknown engine must be rejected").0;
            assert!(err.contains(&format!("unknown engine {bad:?}")), "{err}");
            assert!(err.contains("choose auto, family or predict"), "{err}");
        }
    }

    #[test]
    fn sweep_predict_engine_runs_with_family_shaped_output() {
        // predict is the one approximate engine: it must NOT join the
        // bit-identity loop above, but its CSV must cover exactly the
        // same design points in the same order, and its manifest must
        // account every config as predicted or replayed.
        let path = std::env::temp_dir().join("tlc_cli_test_predict_manifest.json");
        let _ = std::fs::remove_file(&path);
        let base = ["sweep", "--workload", "li", "--instr", "4000", "--warmup", "1000", "--csv"];
        let mut family_argv: Vec<&str> = base.to_vec();
        family_argv.extend(["--engine", "family"]);
        let family = run(&family_argv).expect("family sweep");
        let mut predict_argv: Vec<&str> = base.to_vec();
        predict_argv.extend([
            "--engine",
            "predict",
            "--metrics",
            path.to_str().expect("utf8 path"),
        ]);
        let predict = run(&predict_argv).expect("predict sweep");
        let keys = |csv: &str| -> Vec<String> {
            csv.lines().map(|l| l.split(',').take(2).collect::<Vec<_>>().join(",")).collect()
        };
        assert_eq!(keys(&family), keys(&predict), "same design points, same order");
        let json = std::fs::read_to_string(&path).expect("manifest written");
        let manifest = RunManifest::from_json(&json).expect("manifest parses");
        assert_eq!(manifest.engine, "predict");
        let predicted = manifest.counter("predict.configs_predicted").unwrap_or(0);
        let replayed = manifest.counter("predict.configs_replayed").unwrap_or(0);
        assert_eq!(predicted + replayed, manifest.configs, "every config is predicted or replayed");
        assert!(predicted > 0, "the conventional space must be predicted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_metrics_writes_valid_manifest() {
        let path = std::env::temp_dir().join("tlc_cli_test_manifest.json");
        let _ = std::fs::remove_file(&path);
        run(&[
            "sweep",
            "--workload",
            "li",
            "--instr",
            "4000",
            "--warmup",
            "1000",
            "--csv",
            "--engine",
            "family",
            "--threads",
            "2",
            "--metrics",
            path.to_str().expect("utf8 path"),
        ])
        .expect("sweep with --metrics");
        let json = std::fs::read_to_string(&path).expect("manifest written");
        let manifest = RunManifest::from_json(&json).expect("manifest parses");
        manifest.validate().expect("manifest invariants hold");
        assert_eq!(manifest.schema, tlc_obs::manifest::SCHEMA);
        assert_eq!(manifest.command, "sweep");
        assert_eq!(manifest.engine, "family");
        assert_eq!(manifest.threads, 2);
        assert_eq!(manifest.config_space_hash.len(), 16);
        assert_eq!(
            manifest.counter("runner.configs_completed"),
            Some(manifest.configs),
            "every design point must be counted"
        );
        assert!(!manifest.spans.is_empty(), "span tree must be captured");
        assert!(manifest.spans.iter().any(|s| s.name == "sweep"), "root sweep span missing");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_import_sample_sweep_workflow() {
        // End to end: a flat address list imports to TLCTRC01; info and
        // sample read it; a full-trace sweep and a degenerate sampled
        // sweep (interval >= stream -> one phase, weight 1) agree
        // exactly.
        let dir = std::env::temp_dir().join(format!("tlc-trace-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let addrs = dir.join("addrs.txt");
        let trc = dir.join("trace.trc");
        let phases = dir.join("phases.json");
        let manifest_path = dir.join("manifest.json");
        let mut text = String::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in 0..6000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let tag = if state.is_multiple_of(4) { "W" } else { "R" };
            let addr = 0x10_0000 + (state >> 33) % (1 << 14);
            let _ = writeln!(text, "{tag} {:#x}", addr);
            if i % 3 == 0 {
                let _ = writeln!(text, "R {}", 0x20_0000 + (state >> 17) % (1 << 12));
            }
        }
        std::fs::write(&addrs, text).expect("write addr list");
        let trc_s = trc.to_str().expect("utf8");
        let out = run(&["trace", "import", addrs.to_str().expect("utf8"), trc_s]).expect("import");
        assert!(out.contains("addr-text"), "auto-detect flat list: {out}");
        let info = run(&["trace", "info", trc_s, "--interval", "2000"]).expect("info");
        assert!(info.contains("TLCTRC01"));
        assert!(info.contains("footprint"));
        let sample_out = run(&[
            "trace",
            "sample",
            trc_s,
            "--interval",
            "1000000",
            "--k",
            "3",
            "--seed",
            "0xC1",
            "--out",
            phases.to_str().expect("utf8"),
        ])
        .expect("sample");
        assert!(sample_out.contains("1 phases") || sample_out.contains("-> 1 phases"));
        let doc = PhaseSample::from_json(&std::fs::read_to_string(&phases).expect("json"))
            .expect("parses");
        doc.validate().expect("valid selection");
        assert_eq!(doc.seed, 0xC1);
        let full = run(&["sweep", "--trace", trc_s, "--csv"]).expect("full trace sweep");
        assert!(full.starts_with("workload,label"));
        assert!(full.contains("trace"), "workload column carries the trace name");
        let sampled = run(&[
            "sweep",
            "--trace",
            trc_s,
            "--sample",
            phases.to_str().expect("utf8"),
            "--csv",
            "--metrics",
            manifest_path.to_str().expect("utf8"),
        ])
        .expect("sampled sweep");
        assert_eq!(full, sampled, "single-phase full-weight sampling is exact");
        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).expect("manifest"))
                .expect("manifest parses");
        manifest.validate().expect("sampled-run invariants hold");
        assert_eq!(manifest.counter("sample.intervals"), Some(1));
        assert_eq!(manifest.counter("sample.phases"), Some(1));
        assert_eq!(manifest.counter("sample.intervals_skipped"), Some(0));
        assert!(manifest.counter("sample.events_replayed").unwrap_or(0) > 0);
        assert_eq!(
            manifest.counter("runner.configs_completed"),
            Some(manifest.configs),
            "one phase -> one engine run per config"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_sweep_rejects_bad_combinations() {
        let e = run(&["sweep", "--sample", "x.json", "--workload", "li"]).unwrap_err();
        assert!(e.to_string().contains("--trace"));
        let dir = std::env::temp_dir().join(format!("tlc-trace-cli-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let trc = dir.join("t.trc");
        std::fs::write(&trc, b"NOTATRACE").expect("write");
        let e = run(&["sweep", "--trace", trc.to_str().expect("utf8"), "--csv"]).unwrap_err();
        assert!(e.to_string().contains("trace import"), "bad magic advises import: {e}");
        let e = run(&["trace", "frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("import|sample|info"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_thread_count_is_parsed_and_validated() {
        let base = ["sweep", "--workload", "li", "--instr", "4000", "--warmup", "1000", "--csv"];
        let mut outputs = Vec::new();
        for threads in ["1", "2"] {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--threads", threads]);
            outputs.push(run(&argv).unwrap_or_else(|e| panic!("--threads {threads}: {e:?}")));
        }
        assert_eq!(outputs[0], outputs[1], "thread count must not change results");
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--threads", "0"]);
        let err = run(&argv).expect_err("--threads 0 must be rejected");
        assert!(format!("{err:?}").contains("--threads"));
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend(["--threads", "many"]);
        let err = run(&argv).expect_err("non-numeric --threads must be rejected");
        assert!(format!("{err:?}").contains("--threads"));
    }

    #[test]
    fn sweep_trace_out_writes_chrome_trace_and_v2_manifest() {
        let dir = std::env::temp_dir().join(format!("tlc-traceout-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let manifest_path = dir.join("m.json");
        let trace_path = dir.join("trace.json");
        run(&[
            "sweep",
            "--workload",
            "li",
            "--instr",
            "4000",
            "--warmup",
            "1000",
            "--csv",
            "--engine",
            "family",
            "--threads",
            "2",
            "--metrics",
            manifest_path.to_str().expect("utf8 path"),
            "--trace-out",
            trace_path.to_str().expect("utf8 path"),
        ])
        .expect("sweep with --trace-out");

        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).expect("manifest"))
                .expect("manifest parses");
        manifest.validate().expect("manifest invariants hold");
        assert_eq!(manifest.schema, tlc_obs::manifest::SCHEMA);

        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        let doc: serde_json::Value = serde_json::from_str(&trace).expect("trace parses");
        let events =
            doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array present");
        // At least the sweep root span must show up as a complete event.
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("name").and_then(|n| n.as_str()) == Some("sweep")
            }),
            "root sweep X event missing from {trace}"
        );
        // Distribution sections of the tentpole: >= 3 histograms
        // populated by a plain family sweep, monotone quantiles, and
        // a believable peak-RSS reading.
        let populated: Vec<_> = manifest.histograms.iter().filter(|h| h.count > 0).collect();
        assert!(
            populated.len() >= 3,
            "want >= 3 populated histograms, got {:?}",
            populated.iter().map(|h| h.name.as_str()).collect::<Vec<_>>()
        );
        for h in &populated {
            assert!(
                h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
                "{}: quantiles not monotone",
                h.name
            );
        }
        assert!(manifest.memory.peak_rss_bytes > 0, "peak RSS must be read from procfs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_registry_workflow_and_regression_diff() {
        let dir = std::env::temp_dir().join(format!("tlc-runs-cli-{}", std::process::id()));
        let reg_dir = dir.join("registry");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let baseline_path = dir.join("baseline.json");
        run(&[
            "sweep",
            "--workload",
            "li",
            "--instr",
            "4000",
            "--warmup",
            "1000",
            "--csv",
            "--engine",
            "family",
            "--metrics",
            baseline_path.to_str().expect("utf8 path"),
        ])
        .expect("baseline sweep");

        // Inject a 2x wall-time regression into an otherwise identical run.
        let mut slow = tlc_obs::registry::load_manifest_file(&baseline_path).expect("baseline");
        slow.wall_s *= 2.0;
        // Keep the injected regression meaningful even on a machine so
        // fast the baseline wall rounds to ~0.
        slow.wall_s += 1.0;
        let slow_path = dir.join("slow.json");
        std::fs::write(&slow_path, slow.to_json()).expect("write slow manifest");

        let reg = reg_dir.to_str().expect("utf8 path");
        let base = baseline_path.to_str().expect("utf8 path");
        let slow = slow_path.to_str().expect("utf8 path");

        // add + list + show round-trip through the registry.
        let added = run(&["runs", "add", base, "--dir", reg]).expect("runs add");
        let id = added.split_whitespace().nth(1).expect("id in add output").to_string();
        let listing = run(&["runs", "list", "--dir", reg]).expect("runs list");
        assert!(listing.contains(&id) && listing.contains("li"), "listing: {listing}");
        let shown = run(&["runs", "show", &id, "--dir", reg]).expect("runs show");
        assert!(
            shown.contains("sweep li") && shown.contains("engine=family"),
            "show renders the manifest: {shown}"
        );
        assert!(shown.contains("# memory peak_rss="), "show includes memory: {shown}");
        // Idempotent re-add, and prefix loads resolve.
        assert!(run(&["runs", "add", base, "--dir", reg]).expect("re-add").contains(&id));
        assert!(run(&["runs", "show", &id[..12], "--dir", reg]).is_ok());

        // Identical runs pass the ratchet; a 2x wall regression fails it
        // with a non-zero exit (dispatch Err) naming the metric.
        run(&["runs", "diff", base, base, "--dir", reg]).expect("identical runs must pass");
        let err = run(&["runs", "diff", base, slow, "--dir", reg])
            .expect_err("2x wall-time regression must fail the diff");
        let msg = err.to_string();
        assert!(msg.contains("wall_s") && msg.contains("REGRESSED"), "diff error: {msg}");
        // The ratchet is one-directional: the fast run "regressing" from
        // the slow baseline is an improvement and passes.
        run(&["runs", "diff", slow, base, "--dir", reg]).expect("improvement must pass");
        // CI spelling with named operands and a custom tolerance (the
        // injected +1s swamps a sub-second baseline, so it must be huge).
        run(&["runs", "diff", "--baseline", base, "--candidate", slow, "--tol-wall", "1000"])
            .expect("generous tolerance must absorb the regression");

        let e = run(&["runs", "show", "nosuchrun", "--dir", reg]).unwrap_err();
        assert!(e.to_string().contains("no run matching"), "unknown id: {e}");
        let e = run(&["runs", "frobnicate"]).unwrap_err();
        assert!(e.to_string().contains("list|show|add|diff"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_progress_flag_is_accepted() {
        let out =
            run(&["audit", "--cases", "2", "--seed", "7", "--progress"]).expect("audit --progress");
        assert!(out.contains("clean"));
    }
}
