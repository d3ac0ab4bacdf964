//! Golden-figure regression test: the cross-algorithm comparison table
//! (paper trio vs ext-TSP vs Codestitcher) on the fixed-seed `quick`
//! scenario must match the checked-in snapshot bit-for-bit.
//!
//! Everything in the table is deterministic — seeded workload,
//! deterministic VM, thread-count-independent sweeps, integer
//! fixed-point ext-TSP scores, BTreeMap-ordered lint summaries — so any
//! diff is a real behavior change in a layout pass, the simulator, or
//! the lint battery.
//!
//! # Updating the snapshot
//!
//! When a change intentionally moves these numbers, regenerate with
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test -p codelayout-bench --test golden_compare
//! ```
//!
//! then review the diff of `tests/golden/compare_quick.json` in the same
//! commit and explain the shift in the commit message.

mod snapshot;

use codelayout_bench::{figures, Harness};
use codelayout_oltp::Scenario;

#[test]
fn compare_quick_matches_golden_snapshot() {
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let got = figures::compare(&mut h);

    snapshot::check(
        &got,
        "compare_quick.json",
        "golden_compare",
        "comparison-table quick-scenario snapshot diverged from \
         tests/golden/compare_quick.json.\n\
         If this change is intentional, regenerate the snapshot with\n\
         {cmd}\n\
         and review the JSON diff in the same commit.",
    );
}
