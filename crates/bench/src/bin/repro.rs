//! Command-line driver regenerating the paper's tables and figures.
//!
//! ```text
//! repro all                 # every exhibit at the standard budget
//! repro fig5 fig23          # specific exhibits
//! repro --quick all         # 120K-instruction smoke run
//! repro --instr 4000000 fig5  # custom measured-instruction budget
//! repro --list              # list exhibit ids
//! ```

use tlc_bench::figures::{run, sweep_points, ALL_IDS};
use tlc_bench::sweepbench::{sweep_benchmark_json, SweepBenchConfig};
use tlc_bench::Harness;
use tlc_core::configspace::{full_space, SpaceOptions};
use tlc_core::experiment::SimBudget;
use tlc_core::report::points_csv;
use tlc_core::L2Policy;
use tlc_obs::manifest::{build_span_tree, span_line, RunManifest, RunMeta};
use tlc_trace::spec::SpecBenchmark;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--instr N] [--warmup N] [--metrics out.json] [--list] <exhibit ids | all>\n\
       \u{20}      repro [--quick|--instr N] csv <output-dir>\n\
       \u{20}      repro [--quick|--instr N] bench-sweep <output.json>\n\
         exhibits: {}\n\
         csv: writes the full design-space scatter (50ns & 200ns, conventional &\n\
       \u{20}     exclusive) for every workload as CSV files for external plotting\n\
         bench-sweep: times the arena, family, predict and sampled sweep engines\n\
       \u{20}     and writes a machine-readable comparison",
        ALL_IDS.join(" ")
    );
    std::process::exit(2);
}

/// Dumps the design-space scatters as CSV files into `dir`.
///
/// Each benchmark's four (off-chip latency × L2 policy) spaces run as one
/// [`sweep_points`] call, and the points split back into one CSV per
/// space. The 200 ns spaces ask for exactly the cache hierarchies of the
/// 50 ns ones, so the call simulates each distinct hierarchy once
/// (capturing each L1 group once) and derives both latencies' points
/// from it. The statistics stay in the preset's memo
/// ([`Harness::with_memo`]) for the exhibits run after it.
fn dump_csv(dir: &std::path::Path, harness: &Harness) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let (mut spaces, mut configs) = (Vec::new(), Vec::new());
    for offchip in [50.0, 200.0] {
        for (policy, policy_name) in
            [(L2Policy::Conventional, "conventional"), (L2Policy::Exclusive, "exclusive")]
        {
            let opts =
                SpaceOptions { offchip_ns: offchip, l2_policy: policy, ..SpaceOptions::baseline() };
            let space = full_space(&opts);
            spaces.push((format!("{}ns_{policy_name}", offchip as u32), space.len()));
            configs.extend(space);
        }
    }
    for b in SpecBenchmark::ALL {
        let mut points = sweep_points(harness, &configs, b).into_iter();
        for (space, len) in &spaces {
            let path = dir.join(format!("{}_{space}.csv", b.name()));
            std::fs::write(&path, points_csv(&points.by_ref().take(*len).collect::<Vec<_>>()))?;
            eprintln!("# wrote {}", path.display());
        }
    }
    Ok(())
}

/// Prints a span-tree node and its children to stderr in the shared
/// `span_line` format (the same one `tlc sweep --metrics` renders).
fn print_span(node: &tlc_obs::manifest::SpanNode, depth: usize) {
    eprintln!("{}", span_line(node, depth));
    for child in &node.children {
        print_span(child, depth + 1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut budget = SimBudget::standard();
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "csv" => {
                csv_dir = Some(it.next().unwrap_or_else(|| usage()));
            }
            "bench-sweep" => {
                bench_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--metrics" => {
                metrics_path = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--quick" => budget = SimBudget::quick(),
            "--instr" => {
                let n = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                budget.instructions = n;
            }
            "--warmup" => {
                let n = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                budget.warmup_instructions = n;
            }
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_string()),
            _ => usage(),
        }
    }
    if ids.is_empty() && csv_dir.is_none() && bench_out.is_none() {
        usage();
    }

    let harness = Harness::standard().with_budget(budget);
    if let Some(path) = bench_out {
        let json = sweep_benchmark_json(&SweepBenchConfig::from_harness(&harness));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("bench-sweep export failed: {e}");
            std::process::exit(1);
        }
        eprintln!("# wrote {path}");
        if ids.is_empty() && csv_dir.is_none() {
            return;
        }
    }
    if let Some(dir) = csv_dir {
        if let Err(e) = dump_csv(std::path::Path::new(&dir), &harness) {
            eprintln!("csv export failed: {e}");
            std::process::exit(1);
        }
        if ids.is_empty() {
            return;
        }
    }
    eprintln!(
        "# {} exhibit(s), {} measured instructions (+{} warm-up) per configuration, {} threads",
        ids.len(),
        harness.budget.instructions,
        harness.budget.warmup_instructions,
        harness.threads
    );
    tlc_obs::reset();
    let wall = std::time::Instant::now();
    let mut all_spans = Vec::new();
    let exhibit_ids = ids.clone();
    for id in ids {
        let report = {
            let _span = tlc_obs::PhaseSpan::enter_with("exhibit", &id);
            run(&id, &harness)
        };
        match report {
            Some(report) => {
                println!("==================== {id} ====================");
                println!("{report}");
                // Per-exhibit timing comes from the same span tree the
                // sweep manifest renders, in the same format. Drained
                // incrementally so each exhibit's spans print as it
                // finishes; the records feed the manifest at the end.
                let spans = tlc_obs::take_spans();
                for node in build_span_tree(spans.clone()) {
                    print_span(&node, 0);
                }
                all_spans.extend(spans);
            }
            None => {
                eprintln!("unknown exhibit id: {id}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = metrics_path {
        let meta = RunMeta {
            command: "repro".to_string(),
            benchmark: exhibit_ids.join(","),
            engine: "mixed".to_string(),
            threads: harness.threads as u64,
            configs: tlc_obs::counters().get(tlc_obs::Counter::RunnerConfigsCompleted),
            config_space_hash: "n/a".to_string(),
            wall_s: wall.elapsed().as_secs_f64(),
        };
        let manifest = RunManifest::from_parts(
            meta,
            all_spans,
            tlc_obs::take_events(),
            tlc_obs::counters().snapshot(),
        );
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("metrics export failed: {e}");
            std::process::exit(1);
        }
        eprintln!("# wrote {path}");
    }
}
