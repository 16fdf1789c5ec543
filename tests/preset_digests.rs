//! Pins each SPEC preset's instruction stream bit for bit: an FNV-1a
//! digest over the first 100 000 records of every preset. Every
//! exhibit, CSV and digest-gated figure is computed from these streams,
//! so a change to how a preset is assembled must leave all seven
//! digests as they are.

use two_level_cache::trace::spec::SpecBenchmark;
use two_level_cache::trace::AccessKind;

const RECORDS: usize = 100_000;

/// FNV-1a 64 over each record as its fetch address (LE), a kind byte
/// (0 none, 1 load, 2 store) and the data address (LE, zero when none).
fn stream_digest(b: SpecBenchmark) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in b.workload().take_instructions(RECORDS) {
        let (kind, data) = match r.data {
            None => (0u8, 0u64),
            Some(d) if d.kind == AccessKind::Store => (2, d.addr.raw()),
            Some(d) => (1, d.addr.raw()),
        };
        eat(&r.fetch.raw().to_le_bytes());
        eat(&[kind]);
        eat(&data.to_le_bytes());
    }
    h
}

#[test]
fn preset_streams_match_their_pinned_digests() {
    let pinned: [(SpecBenchmark, u64); 7] = [
        (SpecBenchmark::Gcc1, 0x122d_cc73_adde_1715),
        (SpecBenchmark::Espresso, 0x08dd_470f_f898_025a),
        (SpecBenchmark::Fpppp, 0x18fc_79d5_ff69_06d8),
        (SpecBenchmark::Doduc, 0x06e6_5d2d_e32b_beeb),
        (SpecBenchmark::Li, 0x1a1e_739e_4a93_cdbe),
        (SpecBenchmark::Eqntott, 0x35cb_b704_5bc4_41e7),
        (SpecBenchmark::Tomcatv, 0xc84f_ab8a_fc80_0d6c),
    ];
    let got: Vec<(SpecBenchmark, u64)> =
        pinned.iter().map(|&(b, _)| (b, stream_digest(b))).collect();
    assert_eq!(got, pinned);
}
