//! Integration tests for the extension substrates: stream buffers, the
//! board-level cache with inclusion maintenance, time-sliced
//! multiprogramming, banking, and the Mattson profiler against real
//! workloads — all through the public facade API.

use two_level_cache::cache::{
    Associativity, BoardCache, CacheConfig, ConventionalTwoLevel, MemorySystem, ServiceLevel,
    SingleLevel, StackDistanceProfiler, StreamBufferSystem,
};
use two_level_cache::study::banking::{measure_conflict_rate, BankingParams};
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::{InstructionSource, TimeSliced};

#[test]
fn stream_buffers_help_streaming_not_pointer_chasing() {
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    let reduction = |b: SpecBenchmark| {
        let mut plain = SingleLevel::new(l1);
        let mut buffered = StreamBufferSystem::new(l1, 8, 4);
        let mut w = b.workload();
        for _ in 0..150_000 {
            let rec = w.next_instruction();
            plain.access_instruction(&rec);
            buffered.access_instruction(&rec);
        }
        1.0 - buffered.stats().l2_misses as f64 / plain.stats().l2_misses as f64
    };
    let tomcatv = reduction(SpecBenchmark::Tomcatv);
    let li = reduction(SpecBenchmark::Li);
    assert!(tomcatv > 0.6, "streaming workload should lose most misses: {tomcatv:.2}");
    assert!(li < tomcatv, "pointer chasing must benefit less: li {li:.2} vs tomcatv {tomcatv:.2}");
}

#[test]
fn board_cache_inclusion_is_maintained() {
    // Drive an on-chip hierarchy with a tiny board cache behind it,
    // purging on-chip copies whenever the board evicts. Inclusion
    // invariant: every on-chip line is on the board.
    let l1 = CacheConfig::paper(512, Associativity::Direct).expect("valid");
    let l2 = CacheConfig::paper(2 * 1024, Associativity::SetAssoc(4)).expect("valid");
    let mut sys = ConventionalTwoLevel::new(l1, l2);
    let mut board = BoardCache::new(8 * 1024, 2, 16).expect("valid");
    let mut w = SpecBenchmark::Gcc1.workload();
    let mut purged_total = 0u64;
    for i in 0..80_000u64 {
        let rec = w.next_instruction();
        for r in rec.refs() {
            if sys.access(r) == ServiceLevel::Memory {
                let out = board.access(r.addr.line(16));
                if let Some(ev) = out.evicted {
                    purged_total += sys.invalidate_line(ev) as u64;
                }
            }
        }
        if i % 10_000 == 0 {
            for line in sys.l1i().iter_lines().chain(sys.l1d().iter_lines()) {
                assert!(board.contains(line), "L1 line {line} not on board at step {i}");
            }
            for line in sys.l2().iter_lines() {
                assert!(board.contains(line), "L2 line {line} not on board at step {i}");
            }
        }
    }
    assert!(purged_total > 0, "a tiny board must force purges");
}

#[test]
fn multiprogramming_inflates_misses() {
    let l1 = CacheConfig::paper(8 * 1024, Associativity::Direct).expect("valid");
    // Solo gcc1 misses.
    let mut solo = SingleLevel::new(l1);
    let mut w = SpecBenchmark::Gcc1.workload();
    let mut gcc_instr = 0u64;
    for _ in 0..100_000 {
        let rec = w.next_instruction();
        solo.access_instruction(&rec);
        gcc_instr += 1;
    }
    let _ = gcc_instr;

    // gcc1 sharing with tomcatv on the same-size hierarchy, short quantum.
    let mut shared = SingleLevel::new(l1);
    let mut mp = TimeSliced::new(
        vec![Box::new(SpecBenchmark::Gcc1.workload()), Box::new(SpecBenchmark::Tomcatv.workload())],
        2_000,
    );
    // Run 200K instructions total => ~100K of gcc1.
    for _ in 0..200_000 {
        let rec = mp.next_instruction_opt().expect("infinite");
        shared.access_instruction(&rec);
    }
    // The shared run covers the same gcc1 instruction count plus
    // tomcatv's; its *rate* of misses per instruction must exceed the
    // weighted solo rates would predict if caches were free — at minimum,
    // gcc1's footprint is repeatedly evicted. Compare miss rates.
    let solo_rate = solo.stats().l1_miss_rate();
    let shared_rate = shared.stats().l1_miss_rate();
    assert!(
        shared_rate > solo_rate,
        "sharing must not reduce the miss rate: shared {shared_rate:.4} vs solo gcc1 {solo_rate:.4}"
    );
    assert!(mp.context_switches() >= 99);
}

#[test]
fn banking_conflicts_fall_with_bank_count_on_all_workloads() {
    for b in SpecBenchmark::ALL {
        let p2 = measure_conflict_rate(&mut b.workload(), 20_000, 2, 16);
        let p16 = measure_conflict_rate(&mut b.workload(), 20_000, 16, 16);
        assert!(
            p16 <= p2 + 1e-9,
            "{b}: 16 banks ({p16:.3}) should not conflict more than 2 ({p2:.3})"
        );
    }
    // Area factors bracket the dual-ported cell's 2x.
    assert!(BankingParams::new(2).area_factor() < 2.0);
    assert!(BankingParams::new(8).area_factor() < 2.0);
}

#[test]
fn mattson_profile_agrees_with_cache_sim_on_real_workload() {
    // One profiling pass of li's data stream must match direct
    // fully-associative LRU simulation at several sizes.
    let mut w = SpecBenchmark::Li.workload();
    let lines: Vec<_> =
        (0..60_000).filter_map(|_| w.next_instruction().data.map(|d| d.addr.line(16))).collect();

    let mut profiler = StackDistanceProfiler::new();
    for &l in &lines {
        profiler.record(l);
    }
    for capacity in [64u64, 512, 4096] {
        let cfg = CacheConfig::new(
            capacity * 16,
            16,
            Associativity::Full,
            two_level_cache::cache::ReplacementKind::Lru,
        )
        .expect("valid");
        let mut cache = two_level_cache::cache::Cache::new(cfg);
        let mut misses = 0u64;
        for &l in &lines {
            if !cache.access(l, false) {
                cache.fill(l, false);
                misses += 1;
            }
        }
        assert_eq!(
            profiler.misses_at_capacity(capacity),
            misses,
            "profiler vs simulation at {capacity} lines"
        );
    }
}
