//! End-to-end determinism of the autotuner: the search trajectory and
//! report must be bit-identical across lane counts (the families search
//! side by side, and which lane ran which family must not show), every
//! accepted candidate must have passed translation validation, and a
//! wall budget must cut the search into a well-formed report.

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
    assert!(!a.budget_hit, "no wall budget was set");
}

/// A wall budget that fires cuts every family at the same clock time,
/// anywhere in its search. Whatever the cut, the report stays well
/// formed, and a budget that never fires changes nothing. The budgets are
/// 1 ms, which fires before the search, and fractions of an unbudgeted
/// run's wall time, at least one of which must cut a search midway.
#[test]
fn wall_budget_cuts_into_a_well_formed_report() {
    let study = build_study(&Scenario::quick());
    let mut cfg = TuneConfig::for_scenario(&study.scenario);
    cfg.candidates = CANDIDATES;
    let json = |r: &TuneReport| serde_json::to_string(&r.deterministic_json()).unwrap();
    let mut cut_midway = false;
    for lanes in [1, 2] {
        cfg.sweep_threads = lanes;
        cfg.budget_ms = 0;
        let free = run_tune(&study, &cfg);
        let budgets = [1, free.wall_ms / 4, free.wall_ms / 2, free.wall_ms * 3 / 4];
        for budget_ms in budgets.map(|ms| ms.max(1)) {
            cfg.budget_ms = budget_ms;
            let r = run_tune(&study, &cfg);
            let what = format!("{budget_ms} ms at {lanes} lanes");
            for (i, c) in r.trajectory.iter().enumerate() {
                assert_eq!(c.candidate, i as u64, "candidate numbering gap, {what}");
            }
            let evaluated: u64 = r.families.iter().map(|f| f.evaluated).sum();
            assert_eq!(evaluated, r.trajectory.len() as u64, "{what}");
            // Each family's records are one contiguous block, the blocks
            // in series order, one per reported family.
            let mut rest = r.trajectory.as_slice();
            let mut series = cfg.series.iter();
            for f in &r.families {
                assert!(
                    series.any(|&s| s == f.series),
                    "{} out of series order, {what}",
                    f.series
                );
                let (own, tail) = rest.split_at(f.evaluated as usize);
                assert!(own.iter().all(|c| c.series == f.series), "{what}");
                let best = own.iter().filter(|c| c.validated).map(|c| c.score).min();
                assert_eq!(best, Some(f.best_score), "{} best, {what}", f.series);
                rest = tail;
            }
            if r.budget_hit {
                cut_midway |= !r.families.is_empty() && r.trajectory.len() < free.trajectory.len();
            } else {
                // Only the configuration echo may name the budget.
                let mut r = r;
                r.config.budget_ms = 0;
                assert_eq!(json(&r), json(&free), "{what}: the budget never fired");
            }
        }
    }
    assert!(cut_midway, "no budget cut a family's search midway");
}
