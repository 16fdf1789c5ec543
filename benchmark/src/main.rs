//! The repository benchmark: four batch workloads of the two-level cache
//! simulator, each timed end to end with tracing off, then broken into
//! its public layer calls for the per-layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload trace-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run sets up its seeded inputs (several times, reporting the
//! median), repeats the workload's job for the measuring window, reads
//! peak memory, then checks every result outside the timed region. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`), each with its unit. A traced run
//! also writes its spans as Chrome trace-event JSON under
//! `benchmark/out/`. See `benchmark/README.md` for what each workload
//! and metric is for.

mod checks;
mod host;
mod inputs;
mod ledger;
mod metrics;
mod repro;
mod sampled;
mod sweep;

use checks::{Accuracy, Verdicts};
use host::{median, process_cpu_s};
use inputs::SetupCost;
use ledger::Ledger;
use metrics::Outcome;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweep::Engine;
use tlc_core::experiment::SimBudget;
use tlc_core::SampleOptions;

/// Worker threads of every runner call: one process, two workers.
const THREADS: usize = 2;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Seed held out for re-checking a performance claim: never used while
/// tuning the benchmark or a change, so a claim cannot be fitted to it.
const HELD_OUT_SEED: u64 = 1994;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Timed repetitions at least, however short the window.
const MIN_REPS: usize = 3;

/// Instructions per `trace-sweep` / `predict-grid` trace, and the
/// warm-up prefix discarded before measurement.
const SWEEP_INSTRUCTIONS: u64 = 1_500_000;
const SWEEP_WARMUP: u64 = 300_000;

/// The `sampled-trace` stream: length, time-slice quantum, phase
/// selection, and the warm-up prefix replayed before each slice.
const SAMPLED_INSTRUCTIONS: u64 = 12_000_000;
const SAMPLED_QUANTUM: u64 = 1_500_000;
const SAMPLED_OPTS: SampleOptions = SampleOptions { interval: 300_000, phases: 6, seed: 0xC1 };
const SAMPLED_WARMUP: u64 = 150_000;

/// Points checked per trace against the naive oracle (`trace-sweep`)
/// and against exact replay (`predict-grid`, `sampled-trace`); the
/// subset is drawn from the seed, so every commit checks the same one.
const ORACLE_POINTS: usize = 2;
const PREDICT_CHECK_POINTS: usize = 24;
const SAMPLED_CHECK_POINTS: usize = 24;

/// Packed bytes the arena and the L1/L2 layers stream per record.
const RECORD_BYTES: f64 = 17.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// All 41 exhibits through `figures::run` at one reduced budget. The
    /// job the repository exists for, and the only one exercising
    /// repeated captures of one preset across exhibits, the timing/area
    /// organisation search, and the per-access exhibit systems. Its
    /// inputs are the seven built-in presets: the seed does not reach it.
    ReproPaper,
    /// `tlc sweep --trace` over seeded traces whose working sets sit
    /// below and above the L1 sizes: decode, arena capture, then the 90
    /// paper points under conventional and exclusive L2s. The L2 walk
    /// dominates, split between copy fills and victim swaps, so a gain
    /// for one policy that costs the other shows in the ledger.
    TraceSweep,
    /// The 450-point conventional grid through the predict engine over
    /// the same traces. Profile and solve dominate and no L2 replay
    /// runs, so an L2 back-end change must leave it flat while a
    /// predictor change moves it.
    PredictGrid,
    /// One long phased trace (time-sliced seeded programs) through phase
    /// selection, slice capture and the stitched sampled sweep. Two
    /// decode passes and the clustering dominate; the only bounded-
    /// memory, streaming workload.
    SampledTrace,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "repro-paper" => Workload::ReproPaper,
            "trace-sweep" => Workload::TraceSweep,
            "predict-grid" => Workload::PredictGrid,
            "sampled-trace" => Workload::SampledTrace,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReproPaper => "repro-paper",
            Workload::TraceSweep => "trace-sweep",
            Workload::PredictGrid => "predict-grid",
            Workload::SampledTrace => "sampled-trace",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tlc-benchmark --workload repro-paper|trace-sweep|predict-grid|sampled-trace \
         [--seed N] [--seconds S] [--trace 0|1]\n\
         seeds: {DEFAULT_SEED} by default; re-check claims on the held-out seed {HELD_OUT_SEED}"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match workload {
        Some(workload) if seconds > 0.0 => Args { workload, seed, seconds, trace },
        _ => usage(),
    }
}

/// Where a run writes: `benchmark/out/` inside the checkout. The run's
/// generated traces live in a per-process directory removed on exit.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn out_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    fn create(w: Workload) -> std::io::Result<Scratch> {
        let dir = Self::out_root().join(format!("{}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Wall and CPU seconds of each repetition, plus the first result and
/// whether every later repetition reproduced it.
struct Reps<T> {
    first: T,
    walls: Vec<f64>,
    cpus: Vec<f64>,
    stable: bool,
}

/// Repeats `job` until `window` seconds have passed and at least
/// `min_reps` repetitions ran.
fn repeat<T: PartialEq>(window: f64, min_reps: usize, mut job: impl FnMut() -> T) -> Reps<T> {
    let start = Instant::now();
    let mut first: Option<T> = None;
    let (mut walls, mut cpus, mut stable) = (Vec::new(), Vec::new(), true);
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < window {
        let (t, c) = (Instant::now(), process_cpu_s());
        let out = job();
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(process_cpu_s() - c);
        match &first {
            None => first = Some(out),
            Some(f) => stable &= *f == out,
        }
    }
    Reps { first: first.expect("at least one repetition"), walls, cpus, stable }
}

/// Runs `setup` [`SETUP_REPEATS`] times, records the median as
/// `setup_s` and the generator/encoder split of the inputs, and returns
/// the last set-up's product.
fn setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(&mut SetupCost) -> std::io::Result<T>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut cost = SetupCost::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(setup(&mut cost).map_err(|e| format!("set-up failed: {e}"))?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&mut times));
    if cost.instructions > 0 {
        let n = cost.instructions as f64;
        out.set("trace.gen.ns_per_instr", cost.gen_ns as f64 / n);
        out.set("trace.compact.write_ns_per_instr", cost.write_ns as f64 / n);
        out.set("trace.compact.bytes_per_instr", cost.bytes as f64 / n);
    }
    Ok(last.expect("at least one set-up"))
}

/// The timed region: `once` repeated for the window (half of it when
/// traced), then peak memory, then `traced` repeated for the other half
/// (once when untraced, for the equality check). Returns both first
/// results, whether every repetition reproduced its first, and the
/// instructions the last traced repetition captured into arenas (the
/// existing `trace.instructions` counter; each repetition resets it).
fn measure<T: PartialEq>(
    args: &Args,
    out: &mut Outcome,
    once: impl FnMut() -> T,
    traced: impl FnMut() -> T,
) -> (T, T, bool, u64) {
    let window = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut untraced = repeat(window, MIN_REPS, once);
    let wall_s = median(&mut untraced.walls);
    let cpu_s = median(&mut untraced.cpus);
    out.set("wall_s", wall_s);
    out.set("cpu_s", cpu_s);
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("core.runner.parallel_efficiency", cpu_s / (wall_s * THREADS as f64));
    eprintln!(
        "# {} untraced repetitions: wall {wall_s:.4} s (min {:.4}, max {:.4}), cpu {cpu_s:.4} s",
        untraced.walls.len(),
        untraced.walls[0],
        untraced.walls[untraced.walls.len() - 1]
    );
    let mut tr = repeat(if args.trace { window } else { 0.0 }, 1, traced);
    let captured = tlc_obs::counters().get(tlc_obs::Counter::TraceInstructions);
    out.set("bench.trace_overhead_ratio", median(&mut tr.cpus) / cpu_s);
    (untraced.first, tr.first, untraced.stable && tr.stable, captured)
}

fn ns_per(ns: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns / units as f64
    }
}

/// The per-layer ledger of a trace workload's traced repetitions.
fn ledger_metrics(l: &Ledger, out: &mut Outcome, copy_gb_per_s: f64) {
    let runs = f64::from(l.runs().max(1));
    let st = l.self_times();
    let ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64;
    // bytes per ns is GB/s; divided by the host's copy rate.
    let roof = |bytes: f64, ns: f64| if ns > 0.0 { bytes / ns / copy_gb_per_s } else { 0.0 };

    let decoded = l.units("trace.compact.decode");
    out.set("trace.compact.decode_ns_per_instr", ns_per(ns("trace.compact.decode"), decoded));
    out.set(
        "trace.compact.roof_fraction",
        roof(l.units("trace.compact.decode_bytes") as f64, ns("trace.compact.decode")),
    );
    let captured = l.units("trace.arena.capture");
    out.set("trace.arena.capture_ns_per_instr", ns_per(ns("trace.arena.capture"), captured));
    out.set("trace.arena.bytes", l.units("trace.arena.bytes") as f64 / runs);
    out.set(
        "trace.arena.roof_fraction",
        roof(RECORD_BYTES * captured as f64, ns("trace.arena.capture")),
    );

    let l1_instr = l.units("cache.filter");
    out.set("cache.filter.l1_ns_per_instr", ns_per(ns("cache.filter"), l1_instr));
    out.set("cache.filter.groups", l.units("cache.filter.groups") as f64 / runs);
    out.set(
        "cache.filter.events_per_kinstr",
        1000.0 * ns_per(l.units("cache.filter.events") as f64, l1_instr),
    );
    out.set("cache.filter.event_bytes", l.units("cache.filter.event_bytes") as f64 / runs);
    out.set("cache.filter.roof_fraction", roof(RECORD_BYTES * l1_instr as f64, ns("cache.filter")));

    let layers = [
        "cache.family.single",
        "cache.family.conventional",
        "cache.family.exclusive",
        "cache.family.segments",
    ];
    let family_ns: f64 = layers.iter().map(|n| ns(n)).sum();
    let family_events: u64 = layers.iter().map(|n| l.units(n)).sum();
    for (metric, layer) in [
        ("cache.family.conventional_ns_per_event", "cache.family.conventional"),
        ("cache.family.exclusive_ns_per_event", "cache.family.exclusive"),
        ("cache.family.segments_ns_per_event", "cache.family.segments"),
    ] {
        out.set(metric, ns_per(ns(layer), l.units(layer)));
    }
    out.set(
        "cache.family.ns_per_member_event",
        ns_per(family_ns, l.units("cache.family.member_events")),
    );
    out.set("cache.family.calls", l.units("cache.family.calls") as f64 / runs);
    out.set("cache.family.roof_fraction", roof(RECORD_BYTES * family_events as f64, family_ns));

    let solve_ns = l.units("cache.predict.solve_ns") as f64;
    out.set(
        "cache.predict.profile_ns_per_event",
        ns_per((ns("cache.predict") - solve_ns).max(0.0), l.units("cache.predict")),
    );
    out.set(
        "cache.predict.solve_ns_per_config",
        ns_per(solve_ns, l.units("cache.predict.configs")),
    );

    let sampled = l.units("core.sampling.sample");
    out.set("core.sampling.sample_ns_per_instr", ns_per(ns("core.sampling.sample"), sampled));
    out.set(
        "core.sampling.slice_capture_ns_per_instr",
        ns_per(ns("core.sampling.slice_capture"), l.units("core.sampling.slice_capture")),
    );
    out.set(
        "core.sampling.replayed_fraction",
        ns_per(l.units("core.sampling.replayed") as f64, sampled),
    );

    for (metric, layer) in [
        ("core.machine.derive_cold_ns_per_config", "core.machine.derive_cold"),
        ("core.machine.derive_warm_ns_per_config", "core.machine.derive_warm"),
        ("core.envelope.ns_per_point", "core.envelope"),
    ] {
        out.set(metric, ns_per(ns(layer), l.units(layer)));
    }
    // What the runner itself costs: the one-call job's CPU time less the
    // layer calls it is made of (the warm-memo probe and the benchmark's
    // own glue in `rep` excluded).
    let layer_ns: f64 = st
        .iter()
        .filter(|(n, _)| !matches!(**n, "rep" | "core.machine.derive_warm"))
        .map(|(_, &v)| v as f64)
        .sum();
    out.set("core.runner.self_s", out.get("cpu_s") - layer_ns / runs / 1e9);
}

fn check_stable(stable: bool, v: &mut Verdicts) {
    if !stable {
        eprintln!("# check determinism: repetitions disagree");
        for t in 0..v.traces() {
            v.fail_trace(t);
        }
    }
}

/// `trace-sweep` and `predict-grid`.
fn sweep_workload(
    args: &Args,
    engine: Engine,
    out: &mut Outcome,
    ledger: &Ledger,
) -> Result<(), String> {
    let scratch = Scratch::create(args.workload).map_err(|e| e.to_string())?;
    let (inputs, space) = setup(out, |cost| {
        let inputs = inputs::write_sweep_inputs(&scratch.dir, args.seed, SWEEP_INSTRUCTIONS, cost)?;
        let space = match engine {
            Engine::Family => sweep::paper_space(),
            Engine::Predict => sweep::predict_grid(),
        };
        Ok((inputs, space))
    })?;
    let job = sweep::Job { inputs, space, engine, warmup: SWEEP_WARMUP, threads: THREADS };
    let (once, traced, stable, captured) =
        measure(args, out, || sweep::run_once(&job), || sweep::run_traced(&job, ledger));
    let covered: u64 = job.inputs.iter().map(|i| i.instructions).sum();
    out.set(
        "sim_minstr_per_s",
        (job.space.len() as u64 * covered) as f64 / out.get("wall_s") / 1e6,
    );

    let mut v = Verdicts::new(job.inputs.len(), job.space.len());
    check_stable(stable, &mut v);
    checks::compare(&once, &traced, &mut v, "traced breakdown");
    let mut acc = Accuracy::default();
    for (t, (input, result)) in job.inputs.iter().zip(&once).enumerate() {
        let Ok(result) = result else { continue };
        let arena = sweep::capture_for_check(input)?;
        let b = sweep::budget(&arena, job.warmup);
        match engine {
            Engine::Family => {
                let picked = checks::pick(args.seed, t as u64, job.space.len(), ORACLE_POINTS);
                checks::oracle(&arena, b, result, &picked, t, &mut v);
            }
            Engine::Predict => {
                let picked =
                    checks::pick(args.seed, t as u64, job.space.len(), PREDICT_CHECK_POINTS);
                checks::against_replay(
                    &arena,
                    b,
                    result,
                    &picked,
                    tlc_cache::MISS_RATIO_EPSILON,
                    THREADS,
                    t,
                    &mut v,
                    &mut acc,
                )?;
            }
        }
    }
    out.set("max_miss_ratio_error", acc.max_miss_ratio_error);
    out.set("max_tpi_error_pct", acc.max_tpi_error_pct);
    finish_checks(out, &v, ledger, captured);
    Ok(())
}

/// `sampled-trace`.
fn sampled_workload(args: &Args, out: &mut Outcome, ledger: &Ledger) -> Result<(), String> {
    let scratch = Scratch::create(args.workload).map_err(|e| e.to_string())?;
    let (input, space) = setup(out, |cost| {
        let input = inputs::write_phased_input(
            &scratch.dir,
            args.seed,
            SAMPLED_INSTRUCTIONS,
            SAMPLED_QUANTUM,
            cost,
        )?;
        Ok((input, sweep::paper_space()))
    })?;
    let job =
        sampled::Job { input, space, opts: SAMPLED_OPTS, warmup: SAMPLED_WARMUP, threads: THREADS };
    let (once, traced, stable, captured) =
        measure(args, out, || sampled::run_once(&job), || sampled::run_traced(&job, ledger));
    out.set(
        "sim_minstr_per_s",
        (job.space.len() as u64 * job.input.instructions) as f64 / out.get("wall_s") / 1e6,
    );

    let mut v = Verdicts::new(1, job.space.len());
    check_stable(stable, &mut v);
    checks::compare(&once, &traced, &mut v, "traced breakdown");
    let mut acc = Accuracy::default();
    if let Ok(result) = &once[0] {
        let arena = sweep::capture_for_check(&job.input)?;
        let full = SimBudget { instructions: arena.len(), warmup_instructions: 0 };
        let picked = checks::pick(args.seed, 0, job.space.len(), SAMPLED_CHECK_POINTS);
        checks::against_replay(
            &arena,
            full,
            result,
            &picked,
            tlc_core::SAMPLED_MISS_RATIO_EPSILON,
            THREADS,
            0,
            &mut v,
            &mut acc,
        )?;
    }
    out.set("max_miss_ratio_error", acc.max_miss_ratio_error);
    out.set("max_tpi_error_pct", acc.max_tpi_error_pct);
    finish_checks(out, &v, ledger, captured);
    Ok(())
}

/// Records the verdicts, the host roof, and the ledger metrics;
/// `captured` is what the last traced repetition put into arenas.
fn finish_checks(out: &mut Outcome, v: &Verdicts, ledger: &Ledger, captured: u64) {
    out.attempted = v.attempted();
    out.failed = v.failed();
    let copy = host::copy_gb_per_s();
    out.set("host.copy_gb_per_s", copy);
    ledger_metrics(ledger, out, copy);
    let needed = ledger.units("trace.arena.needed") / u64::from(ledger.runs().max(1));
    out.set("trace.arena.capture_redundancy", ns_per(captured as f64, needed));
}

/// `repro-paper`.
fn repro_workload(args: &Args, out: &mut Outcome, ledger: &Ledger) -> Result<(), String> {
    let mut obs = repro::ObsTotals::default();
    // Set-up is building the models, which each pass then does again so
    // its timing memo starts cold. One build takes nanoseconds, so each
    // sample times a batch.
    const BUILDS: u32 = 1_000;
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BUILDS {
                std::hint::black_box(tlc_bench::Harness::standard().with_budget(repro::BUDGET));
            }
            t.elapsed().as_secs_f64() / f64::from(BUILDS)
        })
        .collect();
    out.set("setup_s", median(&mut samples));
    let (once, traced, stable, _) = measure(
        args,
        out,
        || repro::pass(THREADS, None, &mut repro::ObsTotals::default()),
        || repro::pass(THREADS, Some(ledger), &mut obs),
    );
    let per_point = repro::BUDGET.instructions + repro::BUDGET.warmup_instructions;
    out.set("sim_minstr_per_s", (once.configs * per_point) as f64 / out.get("wall_s") / 1e6);
    out.attempted = tlc_bench::figures::ALL_IDS.len() as u64;
    out.failed = repro::check(&once);
    if !stable || traced != once {
        eprintln!("# check determinism: passes disagree");
        out.failed = out.attempted;
    }
    let copy = host::copy_gb_per_s();
    out.set("host.copy_gb_per_s", copy);
    let runs = f64::from(ledger.runs().max(1));
    let st = ledger.self_times();
    for id in tlc_bench::figures::ALL_IDS {
        let s = st.get(id).copied().unwrap_or(0) as f64 / runs / 1e9;
        out.set(metrics::figure_metric(id), s);
        let g = repro::group_metric(id);
        out.set(g, out.get(g) + s);
    }
    out.set("bench.figures.obs.arena_capture_s", obs.arena_capture_ns as f64 / runs / 1e9);
    out.set("bench.figures.obs.l1_capture_s", obs.l1_capture_ns as f64 / runs / 1e9);
    out.set("bench.figures.obs.fan_out_s", obs.fan_out_ns as f64 / runs / 1e9);
    let capture_ns = obs.arena_capture_ns as f64 / runs;
    out.set("trace.arena.capture_ns_per_instr", ns_per(capture_ns, once.captured));
    out.set("trace.arena.bytes", once.arena_bytes as f64);
    if capture_ns > 0.0 {
        out.set(
            "trace.arena.roof_fraction",
            RECORD_BYTES * once.captured as f64 / capture_ns / copy,
        );
    }
    // Distinct instructions the exhibits need: each preset's stream at
    // the harness budget, once.
    let needed = tlc_trace::spec::SpecBenchmark::ALL.len() as u64 * per_point;
    out.set("trace.arena.capture_redundancy", ns_per(once.captured as f64, needed));
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ledger = Ledger::default();
    match args.workload {
        Workload::ReproPaper => repro_workload(args, &mut out, &ledger)?,
        Workload::TraceSweep => sweep_workload(args, Engine::Family, &mut out, &ledger)?,
        Workload::PredictGrid => sweep_workload(args, Engine::Predict, &mut out, &ledger)?,
        Workload::SampledTrace => sampled_workload(args, &mut out, &ledger)?,
    }
    if args.trace {
        let root = Scratch::out_root();
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let path = root.join(format!("{}-seed{}.trace.json", args.workload.name(), args.seed));
        std::fs::write(&path, ledger.chrome_trace_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("# wrote {}", path.display());
    }
    Ok(out)
}

fn main() {
    let args = parse_args();
    eprintln!(
        "# {} seed {} for {} s, tracing {}, {} worker threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        THREADS
    );
    match run(&args) {
        Ok(out) => {
            for (name, unit, value) in out.declared(args.trace) {
                eprintln!("{name:>44} = {value:.6} {unit}");
            }
            if !args.trace && out.get("max_miss_ratio_error") > 0.0 {
                eprintln!(
                    "# accuracy against exact replay: max_miss_ratio_error {:.6}, \
                     max_tpi_error_pct {:.4} %",
                    out.get("max_miss_ratio_error"),
                    out.get("max_tpi_error_pct")
                );
            }
            eprintln!("# {} of {} points failed", out.failed, out.attempted);
            println!("{}", out.json_line(args.trace));
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
