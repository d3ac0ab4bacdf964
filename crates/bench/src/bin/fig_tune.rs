//! Search-based layout autotuning, end to end: record the replay window
//! once, search each tunable series family's parameter space under a
//! candidate budget, re-measure the winners on the full workload, and
//! print the base vs fixed vs tuned comparison. Writes
//! `results/fig_tune.json` and a run manifest whose `tune` section
//! carries the search trajectory summary. Knobs:
//! `CODELAYOUT_TUNE_BUDGET`, `CODELAYOUT_TUNE_CANDIDATES`,
//! `CODELAYOUT_TUNE_WINDOW`, `CODELAYOUT_SEED`, plus the usual
//! scenario/engine/thread knobs. `CODELAYOUT_TRACE_OUT` records each
//! evaluated candidate as a `tune/candidate` JSONL event, in candidate
//! order once the search ends. Exits non-zero, writing nothing, when the
//! wall budget cuts the search before any tuned layout wins.

use codelayout_bench::{figures, finish_run, Harness};
use codelayout_tune::TuneConfig;

fn main() {
    let root = codelayout_obs::span("fig_tune");
    let mut h = Harness::from_env();
    let cfg = TuneConfig::from_env(&h.study.scenario);
    let v = figures::fig_tune(&mut h, &cfg).unwrap_or_else(|e| {
        eprintln!("fig_tune: {e}");
        std::process::exit(1);
    });
    h.save_json("fig_tune", &v);
    root.finish();
    finish_run("fig_tune", &h);
}
