//! Every per-access study runs its (preset × system) units on the
//! harness's worker pool and assembles its report in unit order, so the
//! report must not depend on how many workers ran the units or which
//! worker filled the trace cache first. Every sweep deals its L1 groups
//! into one share per worker, so a sweep exhibit's report must not
//! depend on how the groups were dealt either. Sweeps share each
//! preset's statistics memo, so a report must not depend on which
//! exhibits ran before it on the same harness.

use tlc_bench::figures::run;
use tlc_bench::Harness;
use tlc_core::experiment::SimBudget;

/// The exhibits whose units run on the pool.
const POOLED: [&str; 13] = [
    "power",
    "future",
    "policies",
    "missrates",
    "replacement",
    "victim",
    "sensitivity",
    "board",
    "multiprog",
    "banking",
    "prefetch",
    "l1assoc",
    "writes",
];

const TINY: SimBudget = SimBudget { instructions: 2_000, warmup_instructions: 500 };

/// Sweep exhibits: one workload's spaces (fig5), the exclusive scatter
/// (fig22) and a sweep plus per-access study (sensitivity).
const SWEEPS: [&str; 3] = ["fig5", "fig22", "sensitivity"];

/// Asserts each exhibit of `ids` reports the same at 1, 2 and 3 threads.
fn assert_thread_invariant(ids: &[&str]) {
    // One harness, and so one trace cache, per thread count: at 2 and 3
    // threads the first units race to fill it.
    let harnesses =
        [1, 2, 3].map(|threads| Harness { threads, ..Harness::quick().with_budget(TINY) });
    for &id in ids {
        let reports = harnesses.each_ref().map(|h| run(id, h).expect("known id"));
        assert_eq!(reports[0], reports[1], "{id}: 1 vs 2 threads");
        assert_eq!(reports[0], reports[2], "{id}: 1 vs 3 threads");
    }
}

#[test]
fn pooled_study_reports_do_not_depend_on_the_thread_count() {
    assert_thread_invariant(&POOLED);
}

#[test]
fn sweep_exhibit_reports_do_not_depend_on_the_thread_count() {
    assert_thread_invariant(&SWEEPS);
}

#[test]
fn sweep_exhibit_reports_do_not_depend_on_the_memo_order() {
    let harness = || Harness { threads: 2, ..Harness::quick().with_budget(TINY) };
    let shared = harness();
    for id in ["fig3", "fig5"] {
        run(id, &shared).expect("known id");
    }
    for id in ["fig17", "fig10", "sensitivity"] {
        let fresh = run(id, &harness()).expect("known id");
        assert_eq!(run(id, &shared).expect("known id"), fresh, "{id}: after fig3 and fig5");
    }
}
