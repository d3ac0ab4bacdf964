//! End-to-end determinism of the autotuner: the search trajectory and
//! report must be bit-identical across lane counts (the families search
//! side by side, and which lane ran which family must not show), and
//! every accepted candidate must have passed translation validation.

use codelayout_oltp::{build_study, Scenario};
use codelayout_tune::{run_tune, TuneConfig, TuneReport, TUNE_SIZES_KB};

/// Budget small enough to keep the double run fast, big enough to get
/// past the default point and into descent in every family.
const CANDIDATES: u64 = 12;

#[test]
fn tune_is_deterministic_across_engines_and_threads() {
    let study = build_study(&Scenario::quick());

    let mut cfg = TuneConfig::for_scenario(&study.scenario);
    cfg.candidates = CANDIDATES;
    cfg.sweep_threads = 1;
    let a = run_tune(&study, &cfg);
    let ja = serde_json::to_string_pretty(&a.deterministic_json()).unwrap();

    // `sweep_threads` is the lane count: 2 lanes run two families each,
    // 3 run them unevenly, and at 7 three lanes sit idle. None of that
    // may show in the report.
    for threads in [2, 3, 7] {
        cfg.sweep_threads = threads;
        let b = run_tune(&study, &cfg);
        let what = format!("{threads}-thread");
        let jb = serde_json::to_string_pretty(&b.deterministic_json()).unwrap();
        assert_eq!(
            ja, jb,
            "tune report differs between 1-thread and {what} runs"
        );
        let counts = |r: &TuneReport| -> Vec<(u64, u64, u64)> {
            r.families
                .iter()
                .map(|f| (f.evaluated, f.cache_hits, f.rejected))
                .collect()
        };
        assert_eq!(counts(&a), counts(&b), "family counts differ at {what}");
    }

    // The deterministic report must not leak engine, thread, or wall
    // fields (run_all byte-diffs it across lane counts).
    for leak in ["sweep_engine", "sweep_threads", "wall_ms", "secs"] {
        assert!(!ja.contains(leak), "deterministic report leaks `{leak}`");
    }

    // Structural guarantees the figure asserts on, checked here without
    // a full harness: accepted candidates validated, per-family best no
    // worse than the shipped default, fixed yardsticks present.
    assert!(!a.trajectory.is_empty());
    assert!(a.trajectory.iter().all(|c| c.validated || !c.accepted));
    for f in &a.families {
        assert!(
            f.best_score <= f.default_score,
            "{}: best {} worse than default {}",
            f.series.label(),
            f.best_score,
            f.default_score
        );
        assert_eq!(f.best_cells.len(), TUNE_SIZES_KB.len());
    }
    assert_eq!(a.fixed.len(), 5, "one yardstick per comparison series");
    assert!(a.winner().is_some());
}
