//! Arena-replay equivalence: the capture-once/replay-many sweep engine
//! must be observationally identical to the original generate-per-eval
//! pipeline — same `HierarchyStats`, same `tpi_ns`, bit for bit — for
//! every benchmark and every hierarchy organisation, regardless of how
//! the arena is chunked or how many worker threads replay it. The
//! independent per-configuration references are [`evaluate`] (the
//! per-access hierarchy on the regenerated stream) and
//! [`simulate_arena`] (the same hierarchy over the captured arena).
//!
//! These are the acceptance tests for the sweep engine's central claim:
//! the speedup recorded in `BENCH_sweep.json` is a pure engine
//! optimisation, not a change to the simulated machine.

use proptest::prelude::*;
use tlc_area::AreaModel;
use tlc_cache::filter::MissStream;
use tlc_cache::filter_family::{
    try_replay_conventional_family_segments, try_replay_exclusive_family_segments,
};
use tlc_cache::{
    naive_replay_conventional, naive_replay_exclusive, Associativity, CacheConfig, HierarchyStats,
    L1FrontEnd, MemorySystem, ReplacementKind,
};
use tlc_core::experiment::{
    capture_benchmark, capture_miss_stream, evaluate, evaluate_family, simulate_arena, DesignPoint,
    SimBudget,
};
use tlc_core::runner::try_sweep_family_arena_threads;
use tlc_core::{L2Policy, MachineConfig};
use tlc_timing::TimingModel;
use tlc_trace::spec::SpecBenchmark;
use tlc_trace::{AccessKind, Addr, LineAddr, MemRef, MissEvent, TraceArena, VictimLine};

const BUDGET: SimBudget = SimBudget { instructions: 12_000, warmup_instructions: 3_000 };

/// One configuration per `SystemKind` variant: single-level, conventional
/// two-level, and exclusive two-level.
fn hierarchy_kinds() -> [MachineConfig; 3] {
    [
        MachineConfig::single_level(4, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Conventional, 50.0),
        MachineConfig::two_level(4, 64, 4, L2Policy::Exclusive, 50.0),
    ]
}

/// One configuration through the miss-stream back-end: a family of one.
fn family_of_one(
    cfg: &MachineConfig,
    stream: &MissStream,
    tm: &TimingModel,
    am: &AreaModel,
) -> DesignPoint {
    evaluate_family(std::slice::from_ref(cfg), stream, tm, am).remove(0)
}

/// Every configuration through [`evaluate`]: the per-config reference
/// the family sweep must reproduce.
fn per_config(configs: &[MachineConfig], benchmark: SpecBenchmark) -> Vec<DesignPoint> {
    let (tm, am) = (TimingModel::paper(), AreaModel::new());
    configs.iter().map(|cfg| evaluate(cfg, &mut benchmark.workload(), BUDGET, &tm, &am)).collect()
}

/// One whole stream through a conventional L2 family.
fn conventional_family(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
    try_replay_conventional_family_segments(cfgs, std::slice::from_ref(stream))
        .expect("valid family")
        .remove(0)
}

/// One whole stream through an exclusive L2 family.
fn exclusive_family(cfgs: &[CacheConfig], stream: &MissStream) -> Vec<HierarchyStats> {
    try_replay_exclusive_family_segments(cfgs, std::slice::from_ref(stream))
        .expect("valid family")
        .remove(0)
}

/// Every benchmark × every hierarchy kind: the arena replay must match
/// the generator-driven engine on every statistic.
#[test]
fn arena_replay_matches_generation_for_all_benchmarks_and_kinds() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    for benchmark in SpecBenchmark::ALL {
        let arena = capture_benchmark(benchmark, BUDGET);
        for cfg in hierarchy_kinds() {
            let generated = evaluate(&cfg, &mut benchmark.workload(), BUDGET, &tm, &am);
            let replayed = simulate_arena(&cfg, &arena, BUDGET);
            assert_eq!(
                generated.stats,
                replayed,
                "{} on {}: arena replay diverged from generation",
                benchmark.name(),
                cfg.label()
            );
        }
    }
}

/// Arena chunking is an allocation detail: replaying the same stream
/// through pathological (tiny, prime, huge) chunk sizes must not change
/// a single statistic.
#[test]
fn chunk_size_does_not_change_results() {
    let len = BUDGET.warmup_instructions + BUDGET.instructions;
    let reference = capture_benchmark(SpecBenchmark::Li, BUDGET);
    let cfgs = hierarchy_kinds();
    let expected: Vec<_> = cfgs.iter().map(|c| simulate_arena(c, &reference, BUDGET)).collect();
    for chunk_len in [7usize, 64, 1 << 12, 1 << 20] {
        let arena = TraceArena::capture_chunked(&mut SpecBenchmark::Li.workload(), len, chunk_len);
        for (cfg, want) in cfgs.iter().zip(&expected) {
            let got = simulate_arena(cfg, &arena, BUDGET);
            assert_eq!(&got, want, "chunk_len={chunk_len} changed {}", cfg.label());
        }
    }
}

/// Miss-stream filtering equivalence: for every benchmark, every
/// hierarchy kind (single-level, conventional/inclusive-tending,
/// exclusive victim-swap) and several (L1, L2) geometry pairs, a family
/// of one — L1 simulated once per front-end, L2 replaying only the
/// captured events — must produce the same `DesignPoint` bit for bit as
/// the per-access engine on the regenerated stream, and the same
/// statistics as the per-access engine over the arena.
#[test]
fn filtered_equivalence() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    for benchmark in SpecBenchmark::ALL {
        let arena = capture_benchmark(benchmark, BUDGET);
        for l1_kb in [2u64, 4] {
            let stream = capture_miss_stream(l1_kb * 1024, 16, &arena, BUDGET, usize::MAX)
                .expect("unbounded capture succeeds");
            let mut configs = vec![MachineConfig::single_level(l1_kb, 50.0)];
            for l2_kb in [8u64, 64] {
                for (ways, policy) in [
                    (4, L2Policy::Conventional),
                    (4, L2Policy::Exclusive),
                    (1, L2Policy::Exclusive),
                ] {
                    configs.push(MachineConfig::two_level(l1_kb, l2_kb, ways, policy, 50.0));
                }
            }
            for cfg in &configs {
                let filtered = family_of_one(cfg, &stream, &tm, &am);
                let replayed = simulate_arena(cfg, &arena, BUDGET);
                assert_eq!(
                    filtered.stats,
                    replayed,
                    "{} on {}: filtered engine diverged from arena replay",
                    benchmark.name(),
                    cfg.label()
                );
                let generated = evaluate(cfg, &mut benchmark.workload(), BUDGET, &tm, &am);
                assert_eq!(
                    filtered,
                    generated,
                    "{} on {}: filtered engine diverged from the per-access engine",
                    benchmark.name(),
                    cfg.label()
                );
            }
        }
    }
}

/// Family-batched equivalence: for every benchmark, evaluating a whole
/// L2-size family in one pass over the miss stream must reproduce each
/// member's own family of one — stats and `tpi_ns` — bit for bit, for
/// single-level, conventional (set-associative and direct-mapped fast
/// path) and exclusive families alike.
#[test]
fn family_equivalence() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    for benchmark in SpecBenchmark::ALL {
        let arena = capture_benchmark(benchmark, BUDGET);
        for l1_kb in [2u64, 4] {
            let stream = capture_miss_stream(l1_kb * 1024, 16, &arena, BUDGET, usize::MAX)
                .expect("unbounded capture succeeds");
            let mut families: Vec<Vec<MachineConfig>> =
                vec![vec![MachineConfig::single_level(l1_kb, 50.0); 3]];
            for (ways, policy) in [
                (4, L2Policy::Conventional),
                (1, L2Policy::Conventional),
                (4, L2Policy::Exclusive),
                (1, L2Policy::Exclusive),
            ] {
                families.push(
                    [8u64, 64, 16]
                        .iter()
                        .map(|&l2_kb| MachineConfig::two_level(l1_kb, l2_kb, ways, policy, 50.0))
                        .collect(),
                );
            }
            for family in &families {
                let batched = evaluate_family(family, &stream, &tm, &am);
                for (cfg, got) in family.iter().zip(&batched) {
                    let want = family_of_one(cfg, &stream, &tm, &am);
                    assert_eq!(
                        &want,
                        got,
                        "{} on {}: family-batched engine diverged from its family of one",
                        benchmark.name(),
                        cfg.label()
                    );
                }
            }
        }
    }
}

/// Every replacement policy through the L2 back-end: for each
/// [`ReplacementKind`] (including SRRIP) and both set-associative and
/// direct-mapped geometries, every member of a batched family must match
/// its own family of one and the hand-verifiable naive oracle — on
/// conventional and exclusive hierarchies alike.
#[test]
fn replacement_policies_agree_family_and_oracle() {
    for benchmark in [SpecBenchmark::Li, SpecBenchmark::Doduc] {
        let arena = capture_benchmark(benchmark, BUDGET);
        let stream = capture_miss_stream(2 * 1024, 16, &arena, BUDGET, usize::MAX)
            .expect("unbounded capture succeeds");
        for repl in ReplacementKind::ALL {
            for assoc in [Associativity::Direct, Associativity::SetAssoc(4)] {
                let cfgs: Vec<CacheConfig> = [8u64, 16, 64]
                    .iter()
                    .map(|&kb| CacheConfig::new(kb * 1024, 16, assoc, repl).expect("valid L2"))
                    .collect();
                let conv = conventional_family(&cfgs, &stream);
                let excl = exclusive_family(&cfgs, &stream);
                for (cfg, (fam_conv, fam_excl)) in cfgs.iter().zip(conv.iter().zip(&excl)) {
                    let label = format!("{benchmark:?} {repl} {assoc:?} {}B", cfg.size_bytes());
                    let one = conventional_family(std::slice::from_ref(cfg), &stream)[0];
                    assert_eq!(&one, fam_conv, "{label}: conventional family vs family of one");
                    let oracle =
                        naive_replay_conventional(cfg.size_bytes(), cfg.ways(), repl, &stream);
                    assert_eq!(one, oracle, "{label}: conventional engine vs naive oracle");
                    let one = exclusive_family(std::slice::from_ref(cfg), &stream)[0];
                    assert_eq!(&one, fam_excl, "{label}: exclusive family vs family of one");
                    let oracle =
                        naive_replay_exclusive(cfg.size_bytes(), cfg.ways(), repl, &stream);
                    assert_eq!(one, oracle, "{label}: exclusive engine vs naive oracle");
                }
            }
        }
    }
}

/// Non-baseline policies survive the full `DesignPoint` pipeline: a
/// machine configured with FIFO, tree-PLRU, or SRRIP L2 replacement
/// must produce identical points from the generator-driven, arena,
/// family-of-one, and family-batched engines — and single-level machines
/// (where the knob is inert) ride along in the same mixed family list.
#[test]
fn replacement_policies_agree_across_design_point_engines() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let benchmark = SpecBenchmark::Eqntott;
    let arena = capture_benchmark(benchmark, BUDGET);
    let stream = capture_miss_stream(4 * 1024, 16, &arena, BUDGET, usize::MAX)
        .expect("unbounded capture succeeds");
    let with_repl = |mut cfg: MachineConfig, repl: ReplacementKind| {
        if let Some(spec) = cfg.l2.as_mut() {
            spec.repl = repl;
        }
        cfg
    };
    for repl in [ReplacementKind::Fifo, ReplacementKind::TreePlru, ReplacementKind::Srrip] {
        for base in hierarchy_kinds() {
            let family = vec![with_repl(base, repl), with_repl(base, repl), with_repl(base, repl)];
            let batched = evaluate_family(&family, &stream, &tm, &am);
            for (cfg, got) in family.iter().zip(&batched) {
                let one = family_of_one(cfg, &stream, &tm, &am);
                assert_eq!(
                    &one,
                    got,
                    "{repl} on {}: family-batched engine diverged from its family of one",
                    cfg.label()
                );
                let replayed = simulate_arena(cfg, &arena, BUDGET);
                assert_eq!(
                    one.stats,
                    replayed,
                    "{repl} on {}: family of one diverged from arena replay",
                    cfg.label()
                );
                let generated = evaluate(cfg, &mut benchmark.workload(), BUDGET, &tm, &am);
                assert_eq!(
                    generated,
                    one,
                    "{repl} on {}: family of one diverged from generation",
                    cfg.label()
                );
            }
        }
    }
}

/// The miss-stream filtered sweep (the family engine) reproduces the
/// per-configuration reference: same mixed configuration list —
/// singleton L1 groups included — any thread count, identical output.
#[test]
fn filtered_sweep_matches_arena_sweep_at_any_thread_count() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs: Vec<MachineConfig> = hierarchy_kinds()
        .into_iter()
        .chain([
            MachineConfig::two_level(4, 32, 4, L2Policy::Conventional, 50.0),
            MachineConfig::two_level(4, 16, 1, L2Policy::Exclusive, 200.0),
            MachineConfig::single_level(16, 50.0),
        ])
        .collect();
    let arena = capture_benchmark(SpecBenchmark::Doduc, BUDGET);
    let reference = per_config(&configs, SpecBenchmark::Doduc);
    for threads in [1usize, 2, 5] {
        let family = try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, threads)
            .expect("sweep");
        assert_eq!(reference, family, "threads={threads} changed the family sweep");
    }
}

/// A naive reference model of the split direct-mapped L1 front-end:
/// per-set resident line + written bit, plus the same-line fetch filter.
/// Computes the exact miss/victim event sequence the capture must emit.
struct NaiveL1 {
    sets: u64,
    isets: Vec<Option<(u64, bool)>>,
    dsets: Vec<Option<(u64, bool)>>,
    last_fetch: u64,
    events: Vec<MissEvent>,
    warmup_events: u64,
}

impl NaiveL1 {
    fn new(l1_bytes: u64, line_bytes: u64) -> Self {
        let sets = l1_bytes / line_bytes;
        NaiveL1 {
            sets,
            isets: vec![None; sets as usize],
            dsets: vec![None; sets as usize],
            last_fetch: u64::MAX,
            events: Vec::new(),
            warmup_events: 0,
        }
    }

    fn access(&mut self, r: MemRef) {
        let line = r.addr.line(16);
        let (side, is_write) = match r.kind {
            AccessKind::InstrFetch => {
                if line.0 == self.last_fetch {
                    return;
                }
                self.last_fetch = line.0;
                (&mut self.isets, false)
            }
            AccessKind::Load => (&mut self.dsets, false),
            AccessKind::Store => (&mut self.dsets, true),
        };
        let set = (line.0 % self.sets) as usize;
        match side[set] {
            Some((resident, ref mut written)) if resident == line.0 => {
                *written |= is_write;
            }
            old => {
                self.events.push(MissEvent {
                    kind: r.kind,
                    line,
                    victim: old.map(|(l, w)| VictimLine { line: LineAddr(l), written: w }),
                });
                side[set] = Some((line.0, is_write));
            }
        }
    }

    fn mark_warmup(&mut self) {
        self.warmup_events = self.events.len() as u64;
    }
}

fn capture_via_front_end(refs: &[MemRef], l1_bytes: u64, warm: usize) -> MissStream {
    let cfg = CacheConfig::new(l1_bytes, 16, Associativity::Direct, ReplacementKind::PseudoRandom)
        .expect("valid L1");
    let mut fe = L1FrontEnd::new(cfg);
    for r in &refs[..warm] {
        fe.access(*r);
    }
    fe.reset_stats();
    for r in &refs[warm..] {
        fe.access(*r);
    }
    fe.finish("random")
}

/// Strategy: a short random reference stream over a bounded line space.
fn ref_stream(max_lines: u64, len: usize) -> impl Strategy<Value = Vec<MemRef>> {
    prop::collection::vec((0..max_lines, 0u8..3), len).prop_map(|v| {
        v.into_iter()
            .map(|(line, kind)| {
                let addr = Addr::new(line * 16);
                match kind {
                    0 => MemRef::fetch(addr),
                    1 => MemRef::load(addr),
                    _ => MemRef::store(addr),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The capture agrees event-for-event (kind, line, victim, written
    /// bit, warm-up bookmark) with the naive per-set reference model on
    /// random short traces.
    #[test]
    fn front_end_events_match_naive_model(
        refs in ref_stream(96, 300),
        l1_log in 6u32..9, // 64..256 bytes: 4..16 lines, plenty of evictions
        warm_frac in 0usize..4,
    ) {
        let l1_bytes = 1u64 << l1_log;
        let warm = refs.len() * warm_frac / 4;
        let stream = capture_via_front_end(&refs, l1_bytes, warm);
        let mut naive = NaiveL1::new(l1_bytes, 16);
        for r in &refs[..warm] {
            naive.access(*r);
        }
        naive.mark_warmup();
        for r in &refs[warm..] {
            naive.access(*r);
        }
        let got: Vec<MissEvent> = stream.events().collect();
        prop_assert_eq!(&got, &naive.events, "event streams diverged");
        prop_assert_eq!(stream.warmup_events(), naive.warmup_events);
        prop_assert_eq!(stream.l1_size_bytes(), l1_bytes);
    }

    /// The direct-mapped fast path answers a nested family of L2 sizes
    /// from one "smallest hitting size" threshold per event, which is
    /// sound because demand-filled DM contents are inclusive across
    /// nested power-of-two sizes — so L2 misses must be monotone
    /// non-increasing in L2 size on any trace.
    #[test]
    fn dm_family_misses_are_monotone_in_l2_size(
        refs in ref_stream(96, 300),
        warm_frac in 0usize..4,
    ) {
        let warm = refs.len() * warm_frac / 4;
        let stream = capture_via_front_end(&refs, 128, warm);
        let sizes = [256u64, 512, 1024, 2048];
        let cfgs: Vec<CacheConfig> = sizes
            .iter()
            .map(|&s| {
                CacheConfig::new(s, 16, Associativity::Direct, ReplacementKind::PseudoRandom)
                    .expect("valid DM L2")
            })
            .collect();
        let stats = conventional_family(&cfgs, &stream);
        for (small, large) in stats.iter().zip(&stats[1..]) {
            prop_assert!(
                large.l2_misses <= small.l2_misses,
                "doubling a DM L2 raised misses: {} -> {}",
                small.l2_misses,
                large.l2_misses
            );
        }
    }
}

/// Thread fan-out is a scheduling detail: a sweep over a mixed
/// configuration list must return the per-configuration reference's
/// `DesignPoint`s in the same order for any worker count.
#[test]
fn thread_count_does_not_change_design_points() {
    let tm = TimingModel::paper();
    let am = AreaModel::new();
    let configs: Vec<MachineConfig> = hierarchy_kinds()
        .into_iter()
        .chain([
            MachineConfig::single_level(16, 50.0),
            MachineConfig::two_level(2, 32, 1, L2Policy::Exclusive, 50.0),
        ])
        .collect();
    let arena = capture_benchmark(SpecBenchmark::Eqntott, BUDGET);
    let reference = per_config(&configs, SpecBenchmark::Eqntott);
    for threads in [1usize, 2, 3, 8] {
        let parallel = try_sweep_family_arena_threads(&configs, &arena, BUDGET, &tm, &am, threads)
            .expect("sweep");
        assert_eq!(reference, parallel, "threads={threads} changed the sweep");
    }
}
