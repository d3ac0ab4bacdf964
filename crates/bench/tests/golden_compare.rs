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

use codelayout_bench::{figures, Harness};
use codelayout_oltp::Scenario;
use serde_json::Value;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/compare_quick.json"
);
const UPDATE_ENV: &str = codelayout_obs::env::UPDATE_GOLDEN_ENV;

#[test]
fn compare_quick_matches_golden_snapshot() {
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let got = figures::compare(&mut h);

    if codelayout_bench::run_env().update_golden {
        let mut text = serde_json::to_string_pretty(&got).expect("serialize snapshot");
        text.push('\n');
        std::fs::write(GOLDEN_PATH, text).expect("write golden snapshot");
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }

    let raw = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {GOLDEN_PATH}: {e}\n\
             regenerate with {UPDATE_ENV}=1 cargo test -p codelayout-bench --test golden_compare"
        )
    });
    let want: Value = serde_json::from_str(&raw).expect("parse golden snapshot");
    assert_eq!(
        got, want,
        "comparison-table quick-scenario snapshot diverged from \
         tests/golden/compare_quick.json.\n\
         If this change is intentional, regenerate the snapshot with\n\
         {UPDATE_ENV}=1 cargo test -p codelayout-bench --test golden_compare\n\
         and review the JSON diff in the same commit."
    );
}
