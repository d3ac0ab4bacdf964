//! Golden run-manifest schema test: a miniature instrumented run (study
//! build + Figure 4 + a short serving-loop run + a small-budget
//! autotuner run + result save) on the fixed-seed `quick` scenario must
//! produce a manifest whose *shape* — section layout (including the
//! `serve` and `tune` sections), phase-tree structure, metric names,
//! output file names — matches the checked-in snapshot exactly.
//!
//! Volatile values (wall times, git revision, host parallelism, metric
//! values, output digests) are masked with
//! [`codelayout_obs::manifest::mask_volatile`] before comparison, so
//! the snapshot pins the schema without pinning wall-clock noise. The
//! test also enforces the phase-coverage acceptance bar: the spans
//! under the root must account for at least 95% of the run's wall time.
//!
//! # Updating the snapshot
//!
//! ```text
//! CODELAYOUT_UPDATE_GOLDEN=1 cargo test -p codelayout-bench --test golden_manifest
//! ```
//!
//! then review the diff of `tests/golden/manifest_quick.json` in the
//! same commit.
//!
//! This file holds exactly one test: it snapshots the *global* tracer
//! and metrics registry, so it must not share a process with tests that
//! record their own spans.

use codelayout_bench::{figures, Harness};
use codelayout_obs::manifest::{mask_volatile, validate_manifest};
use codelayout_oltp::{MixPhase, Scenario};
use codelayout_serve::ServeConfig;
use serde_json::Value;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/manifest_quick.json"
);
const UPDATE_ENV: &str = codelayout_obs::env::UPDATE_GOLDEN_ENV;

#[test]
fn manifest_quick_schema_matches_golden_snapshot() {
    // The harness measures light layouts on `CODELAYOUT_THREADS` lanes,
    // and which spans land under which lane follows the lane count. Pin
    // two lanes (before anything reads the environment) so the snapshot,
    // `measure_lane` root included, is the same on every host.
    std::env::set_var(codelayout_obs::env::THREADS_ENV, "2");
    // The harness writes results/ relative to the working directory;
    // keep test artifacts out of the source tree.
    let scratch = std::env::temp_dir().join(format!("codelayout-golden-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    std::env::set_current_dir(&scratch).expect("enter scratch dir");

    let root = codelayout_obs::span("golden_run");
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let fig = figures::fig04(&mut h);
    h.save_json("fig04", &fig);

    // A short serving-loop run (two phases, two epochs each) so the
    // snapshot pins the manifest's `serve` section schema too.
    let serve_span = codelayout_obs::span("fig_serve");
    let base = Scenario::quick();
    let mut serve_cfg = ServeConfig::drift_demo(&base);
    serve_cfg.phases = vec![MixPhase::new(2, 0), MixPhase::new(2, 3)];
    let mut hs = Harness::with_label(&serve_cfg.serve_scenario(&base), "quick");
    figures::fig_serve(&mut hs, &serve_cfg);
    for (key, value) in hs.extra_sections() {
        h.section(key, value.clone());
    }
    serve_span.finish();

    // A small-budget autotuner run so the snapshot pins the manifest's
    // `tune` section schema too (only `wall_ms` is volatile there).
    let tune_span = codelayout_obs::span("fig_tune");
    let mut tune_cfg = codelayout_tune::TuneConfig::for_scenario(&Scenario::quick());
    tune_cfg.candidates = 12;
    figures::fig_tune(&mut h, &tune_cfg);
    tune_span.finish();
    root.finish();

    let path = h.write_manifest("golden_run").expect("write manifest");
    let raw = std::fs::read_to_string(&path).expect("read manifest back");
    let manifest: Value = serde_json::from_str(&raw).expect("manifest parses");
    validate_manifest(&manifest).expect("manifest validates against the schema");

    // Acceptance bar: the phase tree accounts for ≥95% of the wall time.
    let coverage = manifest
        .get("phase_coverage_pct")
        .as_f64()
        .expect("coverage present");
    assert!(
        coverage >= 95.0,
        "phase coverage {coverage:.2}% < 95% — untracked wall time in the run"
    );

    let got = mask_volatile(&manifest);

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
             regenerate with {UPDATE_ENV}=1 cargo test -p codelayout-bench --test golden_manifest"
        )
    });
    let want: Value = serde_json::from_str(&raw).expect("parse golden snapshot");
    assert_eq!(
        got, want,
        "masked run manifest diverged from tests/golden/manifest_quick.json.\n\
         If this schema change is intentional, regenerate the snapshot with\n\
         {UPDATE_ENV}=1 cargo test -p codelayout-bench --test golden_manifest\n\
         and review the JSON diff in the same commit."
    );
}
