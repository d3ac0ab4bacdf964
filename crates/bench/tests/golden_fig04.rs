//! Golden-figure regression test: the Figure 4 direct-mapped miss grid
//! for the `base` and `all` layouts on the fixed-seed `quick` scenario
//! must match the checked-in snapshot bit-for-bit.
//!
//! The whole pipeline under this figure is deterministic (seeded
//! workload, deterministic VM, replayed sweeps that are thread-count
//! independent), so any diff here is a real behavior change — either a
//! bug, or an intentional change to the simulator/optimizer that
//! shifts miss counts.
//!
//! # Updating the snapshot
//!
//! When a change intentionally moves these numbers, regenerate with
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test -p codelayout-bench --test golden_fig04
//! ```
//!
//! then review the diff of `tests/golden/fig04_quick.json` in the same
//! commit and explain the shift in the commit message.

mod snapshot;

use codelayout_bench::Harness;
use codelayout_oltp::Scenario;
use serde_json::{json, Value};

/// Runs the quick scenario and extracts the Fig. 4 grid (user-stream,
/// direct-mapped size × line sweep) for both fully-instrumented layouts.
fn measure_fig04_quick() -> Value {
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let mut layouts = serde_json::Map::new();
    for name in ["base", "all"] {
        let cells: Vec<Value> = h
            .run(name)
            .dm_grid_user
            .iter()
            .map(|c| {
                json!({
                    "size_kb": c.config.size_bytes / 1024,
                    "line": c.config.line_bytes,
                    "accesses": c.stats.accesses,
                    "misses": c.stats.misses,
                })
            })
            .collect();
        layouts.insert(name.to_string(), Value::Array(cells));
    }
    json!({
        "figure": "fig04",
        "scenario": "quick",
        "layouts": layouts,
    })
}

#[test]
fn fig04_quick_matches_golden_snapshot() {
    let got = measure_fig04_quick();

    snapshot::check(
        &got,
        "fig04_quick.json",
        "golden_fig04",
        "Fig. 4 quick-scenario grid diverged from tests/golden/fig04_quick.json.\n\
         If this change is intentional, regenerate the snapshot with\n\
         {cmd}\n\
         and review the JSON diff in the same commit.",
    );
}
