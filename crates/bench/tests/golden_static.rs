//! Golden-figure regression test: the static-vs-measured profile study
//! (`fig_static`) on the fixed-seed `quick` scenario must match the
//! checked-in snapshot bit-for-bit.
//!
//! Everything in the figure is deterministic — seeded workload,
//! deterministic VM, thread-count- and engine-independent sweeps,
//! integer fixed-point static frequency propagation, integer ext-TSP
//! scores — so any diff is a real behavior change in the static
//! estimator, a layout pass, or the simulator. The figure itself
//! asserts the subsystem's headline claim (the static-profile `all`
//! layout beats base), so this test also keeps that claim under CI.
//!
//! # Updating the snapshot
//!
//! When a change intentionally moves these numbers, regenerate with
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test -p codelayout-bench --test golden_static
//! ```
//!
//! then review the diff of `tests/golden/static_quick.json` in the same
//! commit and explain the shift in the commit message.

mod snapshot;

use codelayout_bench::{figures, Harness};
use codelayout_oltp::Scenario;

#[test]
fn static_quick_matches_golden_snapshot() {
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let got = figures::fig_static(&mut h);

    snapshot::check(
        &got,
        "static_quick.json",
        "golden_static",
        "static-profile quick-scenario snapshot diverged from \
         tests/golden/static_quick.json.\n\
         If this change is intentional, regenerate the snapshot with\n\
         {cmd}\n\
         and review the JSON diff in the same commit.",
    );
}
