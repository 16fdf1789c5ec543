//! `repro-paper`: every exhibit through `tlc_bench::figures::run`, as
//! `repro all` runs them, at one fixed reduced budget.

use crate::ledger::Ledger;
use tlc_bench::figures::{run, ALL_IDS};
use tlc_bench::Harness;
use tlc_core::experiment::SimBudget;
use tlc_obs::Counter;

/// The fixed reduced budget: 60 K measured instructions after a 15 K
/// warm-up per configuration (the standard budget is 1.5 M + 500 K).
pub const BUDGET: SimBudget = SimBudget { instructions: 60_000, warmup_instructions: 15_000 };

/// Exhibits whose time goes to design-space sweeps through the runner.
const SWEEP_EXHIBITS: [&str; 24] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "sensitivity",
];

/// Exhibits that are timing/area model output or hand-built scenarios,
/// with little or no trace simulation.
const MODEL_EXHIBITS: [&str; 5] = ["table1", "fig1", "fig2", "fig21", "timingmodels"];

/// The group an exhibit's wall time is summed into; the rest are the
/// per-access system studies (victim, prefetch, banking, board, ...).
pub fn group_metric(id: &str) -> &'static str {
    if SWEEP_EXHIBITS.contains(&id) {
        "bench.figures.sweep_exhibits_s"
    } else if MODEL_EXHIBITS.contains(&id) {
        "bench.figures.model_exhibits_s"
    } else {
        "bench.figures.system_studies_s"
    }
}

/// FNV-1a, 64-bit: a digest that is stable across builds and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One exhibit's report digest at [`BUDGET`], in [`ALL_IDS`] order. A
/// change that alters any report text shows up here as a failed point.
pub const DIGESTS: [u64; 41] = [
    0x0636e3481f11c7a1,
    0x384701485c3befea,
    0xec2a2b0493dc39b9,
    0x851ddeba620762f5,
    0xd26e7782639e35ef,
    0x3e18835b762229a7,
    0xd0d999f8948b3cbb,
    0x2b8798982eaa5c88,
    0x3c013993ef4981e1,
    0xd5a21a32d8051dbf,
    0x62c78612cb81670d,
    0x8ba7750a131d9abd,
    0x74ce7badd3835f4e,
    0xd7405e83f5e1b38d,
    0x599caf8deb155bcc,
    0xbda984c164730fc5,
    0x6c39e99a2b4988ab,
    0x707771b40cbd5ac6,
    0x9d4a7ece0ee8a5cb,
    0x905f117e674da60f,
    0x53d7db16c7f54381,
    0x0944303765e96a65,
    0xf6055cf1edb7158b,
    0x9dee2de8484af6d5,
    0xbae948c122619b82,
    0x51ccc6365e01cd8b,
    0x973d8a94c7fb5d42,
    0x10ec0d40250b4df8,
    0x6edc245f1de89c17,
    0xfe208e58c2eeafd7,
    0x553aaef717068d18,
    0xea5b00bfcd9f41da,
    0xfa9ee327af3fb0bb,
    0xa46227c74a36f0f4,
    0xcb14329a68aa3ea6,
    0x0ccb932203e8b3a7,
    0xf0840e19f05f7c3d,
    0x624c9088a02033df,
    0x06f974fd320b981b,
    0x8c5b070ce1a49406,
    0x2be7bb2af1144296,
];

/// What one pass over every exhibit produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Each exhibit's report digest, in [`ALL_IDS`] order.
    pub digests: Vec<u64>,
    /// Design points the runner completed (`runner.configs_completed`).
    pub configs: u64,
    /// Instructions captured into arenas (`trace.instructions`).
    pub captured: u64,
    /// Packed arena bytes allocated (`trace.bytes_packed`).
    pub arena_bytes: u64,
}

/// Wall-time totals, in ns, of the existing tlc-obs spans one pass
/// recorded, by span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsTotals {
    /// `arena_capture` spans.
    pub arena_capture_ns: u64,
    /// `l1_capture` spans.
    pub l1_capture_ns: u64,
    /// `fan_out` spans.
    pub fan_out_ns: u64,
}

/// Runs every exhibit once on a fresh 2-thread harness (cold timing
/// memo, as each `repro` process starts), draining tlc-obs spans after
/// each exhibit as `repro` does. With a ledger, each exhibit is a span
/// and the tlc-obs span totals are summed into `obs`.
pub fn pass(threads: usize, ledger: Option<&Ledger>, obs: &mut ObsTotals) -> Pass {
    tlc_obs::reset();
    let h = Harness { threads, ..Harness::standard().with_budget(BUDGET) };
    let mut digests = Vec::with_capacity(ALL_IDS.len());
    let mut exhibits = || {
        for id in ALL_IDS {
            let report = match ledger {
                Some(l) => l.span(id, || run(id, &h)),
                None => run(id, &h),
            };
            let report = report.expect("every listed exhibit id runs");
            digests.push(fnv1a(report.as_bytes()));
            for s in tlc_obs::take_spans() {
                let ns = match s.path.last().map(String::as_str) {
                    Some("arena_capture") => &mut obs.arena_capture_ns,
                    Some("l1_capture") => &mut obs.l1_capture_ns,
                    Some("fan_out") => &mut obs.fan_out_ns,
                    _ => continue,
                };
                *ns += s.wall_ns;
            }
        }
    };
    match ledger {
        Some(l) => {
            l.next_run();
            l.span("rep", exhibits);
        }
        None => exhibits(),
    }
    let c = tlc_obs::counters();
    Pass {
        digests,
        configs: c.get(Counter::RunnerConfigsCompleted),
        captured: c.get(Counter::TraceInstructions),
        arena_bytes: c.get(Counter::TraceBytesPacked),
    }
}

/// Fails each exhibit whose digest differs from the committed one;
/// returns the failures.
pub fn check(p: &Pass) -> u64 {
    let mut failed = 0;
    for ((id, got), want) in ALL_IDS.iter().zip(&p.digests).zip(DIGESTS) {
        if *got != want {
            eprintln!("# check repro: {id} digest {got:#018x}, committed {want:#018x}");
            failed += 1;
        }
    }
    failed
}
