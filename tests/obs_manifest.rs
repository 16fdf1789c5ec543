//! Observability acceptance tests: the `tlc-obs` counters and span
//! trees wired through the sweep pipeline must (a) agree between whole
//! and chunked families — the counters are *measurements of the
//! simulated machine*, so batching must not change them; (b) nest worker spans under the spawning phase across
//! thread boundaries; (c) propagate worker panics as structured
//! [`SweepError`]s naming the failing unit; and (d) roll up into a
//! `tlc-run-manifest/2` document whose arithmetic invariants hold,
//! including the v2 latency histograms and memory section.
//!
//! The obs state is process-global, so every test takes `SERIAL`.

use std::sync::Mutex;
use tlc_area::AreaModel;
use tlc_core::experiment::{capture_benchmark, SimBudget};
use tlc_core::runner::{
    try_sweep_arena_threads, try_sweep_family_arena_threads, SweepError, SweepUnit,
};
use tlc_core::{L2Policy, MachineConfig};
use tlc_obs::manifest::{build_span_tree, RunManifest, RunMeta};
use tlc_obs::Counter;
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::TraceArena;

static SERIAL: Mutex<()> = Mutex::new(());

const BUDGET: SimBudget = SimBudget { instructions: 12_000, warmup_instructions: 3_000 };

/// A mixed space: one single-level config plus conventional and
/// exclusive families over two L1 sizes, with both random-replacement
/// (LFSR-drawing) and direct-mapped L2s.
fn mixed_space() -> Vec<MachineConfig> {
    let mut configs = vec![MachineConfig::single_level(2, 50.0)];
    for l1_kb in [2u64, 4] {
        for (ways, policy) in
            [(4, L2Policy::Conventional), (1, L2Policy::Conventional), (4, L2Policy::Exclusive)]
        {
            for l2_kb in [16u64, 64] {
                configs.push(MachineConfig::two_level(l1_kb, l2_kb, ways, policy, 50.0));
            }
        }
    }
    configs
}

fn capture() -> TraceArena {
    capture_benchmark(SpecBenchmark::Li, BUDGET)
}

/// Snapshot of the simulation-measurement counters after a reset+sweep.
fn measure(sweep: impl FnOnce()) -> [u64; Counter::COUNT] {
    tlc_obs::reset();
    sweep();
    tlc_obs::counters().snapshot()
}

/// A space with one dominant family: on a shared 2KB L1, a
/// single-level config, seven conventional 4-way (LFSR-drawing) L2
/// sizes, two direct-mapped ones, and an exclusive pair. With two
/// threads the seven-member family exceeds its fair share
/// (⌈12 / 2⌉ = 6 members) and is chunked.
fn chunky_space() -> Vec<MachineConfig> {
    let mut configs = vec![MachineConfig::single_level(2, 50.0)];
    for l2_kb in [4u64, 8, 16, 32, 64, 128, 256] {
        configs.push(MachineConfig::two_level(2, l2_kb, 4, L2Policy::Conventional, 50.0));
    }
    for (l2_kb, ways, policy) in [(16, 1, L2Policy::Conventional), (64, 1, L2Policy::Conventional)]
        .into_iter()
        .chain([(16, 4, L2Policy::Exclusive), (64, 4, L2Policy::Exclusive)])
    {
        configs.push(MachineConfig::two_level(2, l2_kb, ways, policy, 50.0));
    }
    configs
}

/// Whole families (one thread) and chunked families (two threads) must
/// report the *same* counter totals over the same space: events decoded,
/// L1 hits/misses, L2 probes/hits/misses, writebacks, LFSR draws,
/// exclusive swaps and liveness are all facts about the simulated
/// machine, not about how the sweep batches its work.
#[test]
fn whole_and_chunked_families_report_identical_counters() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs = chunky_space();
    let arena = capture();
    let whole = measure(|| {
        try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, 1)
            .expect("whole-family sweep succeeds");
    });
    let chunked = measure(|| {
        try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, 2)
            .expect("chunked-family sweep succeeds");
    });
    for c in Counter::ALL {
        // `l2.events_replayed` measures engine *work*, not the machine:
        // each chunk decodes its family's stream again.
        if c == Counter::L2EventsReplayed {
            continue;
        }
        assert_eq!(
            whole[c as usize],
            chunked[c as usize],
            "counter {} diverged between whole and chunked families",
            c.name()
        );
    }
    assert!(
        chunked[Counter::L2EventsReplayed as usize] > whole[Counter::L2EventsReplayed as usize],
        "chunked families replay their stream once per chunk"
    );
    // And the totals are live: a space this size must decode events,
    // probe the L2s, and draw from the LFSR for the 4-way L2s.
    for c in [
        Counter::FilterEventsDecoded,
        Counter::FilterL1Hits,
        Counter::FilterL1Misses,
        Counter::L2Probes,
        Counter::L2LfsrDraws,
        Counter::L2ExclusiveSwaps,
        Counter::L2Writebacks,
    ] {
        assert!(chunked[c as usize] > 0, "counter {} stayed zero", c.name());
    }
}

/// Worker spans opened on pool threads must nest under the phase span
/// that spawned them: the `fan_out` phase's subtree contains one
/// `worker[i]` node per worker, recorded from threads other than the
/// one that opened `fan_out`.
#[test]
fn worker_spans_nest_under_spawning_phase_across_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs = mixed_space();
    let arena = capture();
    tlc_obs::reset();
    try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, 2)
        .expect("family sweep succeeds");
    let records = tlc_obs::take_spans();
    let fan_out = records
        .iter()
        .find(|r| r.path.last().map(String::as_str) == Some("fan_out"))
        .expect("fan_out phase span recorded");
    // The l1_capture phase has worker spans of its own; look only at
    // the ones nested directly under fan_out.
    let workers: Vec<_> = records
        .iter()
        .filter(|r| {
            r.path.len() == fan_out.path.len() + 1
                && r.path[..fan_out.path.len()] == fan_out.path[..]
                && r.path.last().is_some_and(|s| s.starts_with("worker["))
        })
        .collect();
    assert_eq!(workers.len(), 2, "one span per worker under fan_out");
    for w in &workers {
        assert_ne!(
            w.thread, fan_out.thread,
            "worker span must be recorded from the pool thread, not the spawner"
        );
    }
    assert_ne!(workers[0].thread, workers[1].thread, "workers run on distinct threads");
    // The tree roll-up agrees: the fan_out node spans multiple threads
    // and its worker children carry the claimed items.
    let tree = build_span_tree(records);
    let fan_out_node = tree.iter().find(|n| n.name == "fan_out").expect("fan_out at tree root");
    let claimed: u64 = fan_out_node
        .children
        .iter()
        .filter(|c| c.name.starts_with("worker["))
        .map(|c| c.items)
        .sum();
    assert!(claimed > 0, "workers must report claimed items");
}

/// A panic on a worker thread surfaces as a structured error naming the
/// exact configuration, not as a bare propagated panic — and the
/// already-dispatched healthy work does not poison the result.
#[test]
fn worker_panic_is_reported_as_structured_error() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let mut configs = mixed_space();
    // An L1 no cache can have: not a power of two. Construction panics
    // inside the worker's evaluation.
    let mut bad = MachineConfig::single_level(2, 50.0);
    bad.l1_size_bytes = 3000;
    let bad_index = configs.len();
    configs.push(bad);
    let arena = capture();
    for threads in [1usize, 2] {
        let err = try_sweep_arena_threads(&configs, &arena, BUDGET, &tm, &am, threads)
            .expect_err("invalid config must fail the sweep");
        let SweepError::Worker { unit, payload } = &err else {
            panic!("expected a worker panic, got {err:?}")
        };
        match unit {
            SweepUnit::Config { index, .. } => {
                assert_eq!(*index, bad_index, "error must name the failing config")
            }
            other => panic!("expected Config unit, got {other:?}"),
        }
        assert!(
            payload.contains("valid L1"),
            "payload must carry the panic message, got: {payload}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains(&format!("config #{bad_index}")), "got: {rendered}");
    }
}

/// End-to-end roll-up: after a family sweep, a collected manifest
/// validates — schema tag present, L1 hits + misses equal events
/// decoded, L2 hits + misses equal probes, and every design point
/// counted — and survives a JSON round-trip.
#[test]
fn collected_manifest_validates_and_round_trips() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs = mixed_space();
    let arena = capture();
    tlc_obs::reset();
    try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, 2)
        .expect("family sweep succeeds");
    let manifest = RunManifest::collect(RunMeta {
        command: "sweep".to_string(),
        benchmark: SpecBenchmark::Li.name().to_string(),
        engine: "family".to_string(),
        threads: 2,
        configs: configs.len() as u64,
        config_space_hash: "deadbeefdeadbeef".to_string(),
        wall_s: 0.0,
    });
    manifest.validate().expect("manifest invariants hold");
    assert_eq!(
        manifest.counter("runner.configs_completed"),
        Some(configs.len() as u64),
        "every design point must be counted"
    );
    let decoded = manifest.counter("filter.events_decoded").expect("counter present");
    let hits = manifest.counter("filter.l1_hits").expect("counter present");
    let misses = manifest.counter("filter.l1_misses").expect("counter present");
    assert_eq!(hits + misses, decoded);
    assert!(!manifest.spans.is_empty(), "span tree captured");
    let back = RunManifest::from_json(&manifest.to_json()).expect("round-trips");
    assert_eq!(back.schema, manifest.schema);
    assert_eq!(back.counters.len(), manifest.counters.len());
    back.validate().expect("round-tripped manifest still validates");
}

/// Acceptance for the v2 distributions: a plain family sweep populates
/// at least three latency histograms (chunk replay, L1 group capture,
/// worker queue share) with monotone quantiles bounded by the recorded
/// max, and the memory section carries a real peak-RSS reading.
#[test]
fn family_sweep_manifest_carries_distributions_and_memory() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs = mixed_space();
    let arena = capture();
    tlc_obs::reset();
    try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, 2)
        .expect("family sweep succeeds");
    let manifest = RunManifest::collect(RunMeta {
        command: "sweep".to_string(),
        benchmark: SpecBenchmark::Li.name().to_string(),
        engine: "family".to_string(),
        threads: 2,
        configs: configs.len() as u64,
        config_space_hash: "deadbeefdeadbeef".to_string(),
        wall_s: 0.0,
    });
    manifest.validate().expect("manifest invariants hold");
    assert!(manifest.memory.peak_rss_bytes > 0, "peak RSS must be read from /proc/self/status");
    assert!(manifest.memory.current_rss_bytes <= manifest.memory.peak_rss_bytes);
    let populated: Vec<&str> =
        manifest.histograms.iter().filter(|h| h.count > 0).map(|h| h.name.as_str()).collect();
    assert!(populated.len() >= 3, "want >= 3 populated histograms, got {populated:?}");
    for name in ["replay.family_chunk_ns", "capture.l1_group_ns", "runner.worker_items"] {
        assert!(populated.contains(&name), "{name} must be populated by a family sweep");
    }
    for h in manifest.histograms.iter().filter(|h| h.count > 0) {
        assert!(
            h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
            "{}: quantiles not monotone",
            h.name
        );
        assert!(h.sum / h.count <= h.max, "{}: mean above max", h.name);
    }
    // The worker-share histogram is the queue-imbalance measure: one
    // sample per worker per fan-out (capture and sweep phases both fan
    // out here), so two workers yield at least two samples.
    let workers = manifest.histogram("runner.worker_items").expect("worker histogram");
    assert!(workers.count >= 2, "one sample per worker per fan-out, got {}", workers.count);
    assert!(workers.sum > 0, "workers must claim units");
    // Event-buffer accounting flows from the filter flush counter.
    assert_eq!(
        Some(manifest.memory.event_buffer_bytes),
        manifest.counter("filter.event_bytes"),
        "event-buffer bytes mirror the filter.event_bytes counter"
    );
}
