//! Golden lint-report regression test: the `layout_lint` JSON document
//! for the fixed-seed `quick` scenario must match the checked-in
//! snapshot bit-for-bit.
//!
//! Everything feeding this report is deterministic (seeded workload,
//! deterministic VM and profile, deterministic lint ordering), so any
//! diff here is a real change to either the layout pipeline or the lint
//! definitions — both of which deserve a reviewed snapshot update.
//!
//! # Updating the snapshot
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test -p codelayout-bench --test golden_lint
//! ```
//!
//! then review the diff of `tests/golden/lint_quick.json` in the same
//! commit and explain the shift in the commit message.

mod snapshot;

use codelayout_bench::lint::{cells_to_json, lint_study};
use codelayout_oltp::{build_study, Scenario};

#[test]
fn lint_quick_matches_golden_snapshot() {
    let study = build_study(&Scenario::quick());
    let got = cells_to_json("quick", &lint_study(&study));

    snapshot::check(
        &got,
        "lint_quick.json",
        "golden_lint",
        "quick-scenario lint report diverged from tests/golden/lint_quick.json.\n\
         If this change is intentional, regenerate the snapshot with\n\
         {cmd}\n\
         and review the diff.",
    );
}
