//! Integration tests of the full L2 fill-policy spectrum (extension
//! exhibit `policies`): enforced inclusion vs conventional vs exclusive
//! on real workloads, the shared split L1 in front of every
//! organisation, plus the energy and future-work extension models
//! driven end-to-end through the facade API.

use two_level_cache::area::{AreaModel, CacheGeometry, CellKind};
use two_level_cache::cache::{
    Associativity, CacheConfig, ConventionalTwoLevel, DuplicationReport, ExclusiveTwoLevel,
    HierarchyStats, InclusiveTwoLevel, L1FrontEnd, MemorySystem, ServiceLevel, SingleLevel,
    StreamBufferSystem, VictimCacheSystem,
};
use two_level_cache::study::energy::energy_per_instruction;
use two_level_cache::study::future::{tpi_extended, FutureWorkModel};
use two_level_cache::study::{evaluate, L2Policy, MachineConfig, MachineTiming, SimBudget};
use two_level_cache::timing::{EnergyModel, TimingModel};
use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::{Addr, MemRef};

fn drive<M: MemorySystem + ?Sized>(sys: &mut M, benchmark: SpecBenchmark, instructions: u64) {
    let mut w = benchmark.workload();
    for _ in 0..instructions {
        let i = w.next_instruction();
        sys.access_instruction(&i);
    }
}

#[test]
fn policy_miss_ordering_on_real_workloads() {
    // inclusive >= conventional >= exclusive off-chip misses, at the
    // capacity ratios where policy matters (L2 2–8× the L1 pair).
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    for l2_kb in [16u64, 32, 64] {
        let l2 = CacheConfig::paper(l2_kb * 1024, Associativity::SetAssoc(4)).expect("valid");
        for b in [SpecBenchmark::Gcc1, SpecBenchmark::Li] {
            let mut incl = InclusiveTwoLevel::new(l1, l2);
            let mut conv = ConventionalTwoLevel::new(l1, l2);
            let mut excl = ExclusiveTwoLevel::new(l1, l2);
            drive(&mut incl, b, 200_000);
            drive(&mut conv, b, 200_000);
            drive(&mut excl, b, 200_000);
            let (mi, mc, me) =
                (incl.stats().l2_misses, conv.stats().l2_misses, excl.stats().l2_misses);
            assert!(me < mc, "{b} L2={l2_kb}K: exclusive {me} !< conventional {mc}");
            assert!(mc <= mi, "{b} L2={l2_kb}K: conventional {mc} !<= inclusive {mi}");
        }
    }
}

#[test]
fn inclusion_invariant_holds_on_real_workload() {
    let l1 = CacheConfig::paper(2 * 1024, Associativity::Direct).expect("valid");
    let l2 = CacheConfig::paper(16 * 1024, Associativity::SetAssoc(4)).expect("valid");
    let mut sys = InclusiveTwoLevel::new(l1, l2);
    drive(&mut sys, SpecBenchmark::Doduc, 150_000);
    for line in sys.l1i().iter_lines().chain(sys.l1d().iter_lines()) {
        assert!(sys.l2().contains(line), "inclusion violated for {line}");
    }
    let rep = DuplicationReport::measure(sys.l1i(), sys.l1d(), sys.l2());
    // Inclusion means duplication ≈ all L1-resident lines.
    assert!(
        rep.duplicated as f64 >= 0.95 * (rep.l1i_lines + rep.l1d_lines) as f64,
        "inclusive hierarchy should duplicate every L1 line: {rep}"
    );
}

fn l1_counts(st: &HierarchyStats) -> (u64, u64, u64, u64) {
    (st.instructions, st.data_refs, st.l1i_misses, st.l1d_misses)
}

#[test]
fn every_hierarchy_refills_the_l1_on_every_miss() {
    // The L1's miss sequence must not depend on what sits behind it —
    // the premise of miss-stream filtering. Every organisation except
    // the back-invalidating inclusive one must therefore see exactly the
    // single-level L1 counts on the same stream.
    let l1 = CacheConfig::paper(4 * 1024, Associativity::Direct).expect("valid");
    let l2 = CacheConfig::paper(16 * 1024, Associativity::SetAssoc(4)).expect("valid");
    let n = 100_000;
    let mut single = SingleLevel::new(l1);
    drive(&mut single, SpecBenchmark::Gcc1, n);
    let reference = l1_counts(single.stats());
    assert!(reference.2 > 0 && reference.3 > 0, "stream must miss on both sides");

    let mut others: Vec<Box<dyn MemorySystem>> = vec![
        Box::new(ConventionalTwoLevel::new(l1, l2)),
        Box::new(ExclusiveTwoLevel::new(l1, l2)),
        Box::new(VictimCacheSystem::new(l1, 4).expect("valid")),
        Box::new(StreamBufferSystem::new(l1, 2, 4)),
        Box::new(L1FrontEnd::new(l1)),
    ];
    for sys in &mut others {
        drive(sys.as_mut(), SpecBenchmark::Gcc1, n);
        assert_eq!(l1_counts(sys.stats()), reference, "{}", sys.describe());
    }

    // Back-invalidation only ever removes L1 lines, so inclusion sees the
    // same references and at least as many L1 misses.
    let mut incl = InclusiveTwoLevel::new(l1, l2);
    drive(&mut incl, SpecBenchmark::Gcc1, n);
    let got = l1_counts(incl.stats());
    assert_eq!((got.0, got.1), (reference.0, reference.1));
    assert!(got.2 >= reference.2 && got.3 >= reference.3, "{got:?} vs {reference:?}");
    assert!(incl.back_invalidations() > 0, "the L2 must have back-invalidated something");
}

#[test]
fn back_invalidated_fetch_line_leaves_the_l1() {
    // 4-line L1s over a 4-line direct-mapped inclusive L2: a load that
    // maps to the fetched line's L2 set evicts it there, and inclusion
    // then purges it from the L1I. The next fetch of that line must go
    // past the L1, not be resolved by the same-line fetch filter.
    let l1 = CacheConfig::paper(64, Associativity::Direct).expect("valid");
    let l2 = CacheConfig::paper(64, Associativity::Direct).expect("valid");
    let mut sys = InclusiveTwoLevel::new(l1, l2);
    assert_eq!(sys.access(MemRef::fetch(Addr::new(0x000))), ServiceLevel::Memory);
    assert_eq!(sys.access(MemRef::fetch(Addr::new(0x004))), ServiceLevel::L1);
    sys.access(MemRef::load(Addr::new(0x040)));
    assert_eq!(sys.back_invalidations(), 1);
    assert!(!sys.l1i().contains(Addr::new(0x000).line(16)));
    assert_eq!(sys.access(MemRef::fetch(Addr::new(0x008))), ServiceLevel::Memory);
    assert_eq!(sys.stats().l1i_misses, 2);
}

#[test]
fn energy_extension_end_to_end() {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let energy = EnergyModel::new();
    let budget = SimBudget::quick();

    // The §1 power argument presupposes that "most accesses only require
    // an access to a small first-level cache" — i.e. a low L1 miss rate.
    // espresso is the paper's canonical low-miss workload.
    let single = MachineConfig::single_level(64, 50.0);
    let two = MachineConfig::two_level(8, 128, 4, L2Policy::Exclusive, 50.0);
    let ps = evaluate(&single, &mut SpecBenchmark::Espresso.workload(), budget, &timing, &area);
    let pt = evaluate(&two, &mut SpecBenchmark::Espresso.workload(), budget, &timing, &area);
    let es = energy_per_instruction(&single, &ps.stats, &timing, &energy);
    let et = energy_per_instruction(&two, &pt.stats, &timing, &energy);

    // §1 advantage 5: most two-level accesses touch a small L1.
    assert!(et.l1_access_eu < es.l1_access_eu, "8KB L1 must be cheaper than 64KB L1");
    // Both on-chip and total energy per instruction favour two-level.
    let onchip_s = es.epi_eu * (1.0 - es.offchip_fraction);
    let onchip_t = et.epi_eu * (1.0 - et.offchip_fraction);
    assert!(onchip_t < onchip_s, "two-level on-chip EPI {onchip_t} vs single {onchip_s}");
    assert!(et.epi_eu < es.epi_eu, "two-level total EPI {} vs single {}", et.epi_eu, es.epi_eu);
}

#[test]
fn future_work_conjectures_end_to_end() {
    let timing = TimingModel::paper();
    let area = AreaModel::new();
    let budget = SimBudget::quick();
    let datapath = timing.optimal(&CacheGeometry::paper(1024, 1), CellKind::SinglePorted).cycle_ns;

    let big_single = MachineConfig::single_level(256, 50.0);
    let two_level = MachineConfig::two_level(8, 128, 4, L2Policy::Conventional, 50.0);
    let pb = evaluate(&big_single, &mut SpecBenchmark::Gcc1.workload(), budget, &timing, &area);
    let pt = evaluate(&two_level, &mut SpecBenchmark::Gcc1.workload(), budget, &timing, &area);
    let tb = MachineTiming::derive(&big_single, &timing, &area);
    let tt = MachineTiming::derive(&two_level, &timing, &area);

    // Conjecture 1: multicycle L1 shrinks the big-single-level handicap.
    let baseline = FutureWorkModel::baseline();
    let multicycle = FutureWorkModel::multicycle(datapath, 0.3);
    let ratio_baseline =
        tpi_extended(&pb.stats, &tb, &baseline) / tpi_extended(&pt.stats, &tt, &baseline);
    let ratio_multicycle =
        tpi_extended(&pb.stats, &tb, &multicycle) / tpi_extended(&pt.stats, &tt, &multicycle);
    assert!(
        ratio_multicycle < ratio_baseline,
        "multicycle must shrink the two-level edge: {ratio_multicycle:.3} vs {ratio_baseline:.3}"
    );

    // Conjecture 2: under non-blocking overlap the two-level machine
    // still beats a same-L1 single-level machine.
    let small_single = MachineConfig::single_level(8, 50.0);
    let pss = evaluate(&small_single, &mut SpecBenchmark::Gcc1.workload(), budget, &timing, &area);
    let tss = MachineTiming::derive(&small_single, &timing, &area);
    let nb = FutureWorkModel::baseline().with_miss_overlap(0.5);
    assert!(
        tpi_extended(&pt.stats, &tt, &nb) < tpi_extended(&pss.stats, &tss, &nb),
        "two-level must stay ahead under non-blocking overlap"
    );

    // And the extended model reduces to §2.5 exactly at the baseline.
    let classic = two_level_cache::study::tpi::tpi_ns(&pt.stats, &tt);
    let ext = tpi_extended(&pt.stats, &tt, &baseline);
    assert!((classic - ext).abs() < 1e-9);
}
