//! Every per-access study runs its (preset × system) units on the
//! harness's worker pool and assembles its report in unit order, so the
//! report must not depend on how many workers ran the units or which
//! worker filled the trace cache first.

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

#[test]
fn pooled_study_reports_do_not_depend_on_the_thread_count() {
    // One harness, and so one trace cache, per thread count: at 2 and 3
    // threads the first units race to fill it.
    let harnesses =
        [1, 2, 3].map(|threads| Harness { threads, ..Harness::quick().with_budget(TINY) });
    for id in POOLED {
        let reports = harnesses.each_ref().map(|h| run(id, h).expect("known id"));
        assert_eq!(reports[0], reports[1], "{id}: 1 vs 2 threads");
        assert_eq!(reports[0], reports[2], "{id}: 1 vs 3 threads");
    }
}
