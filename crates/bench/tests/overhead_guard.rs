//! Observability overhead guard.
//!
//! The design claim: grid simulation carries **zero** per-event
//! instrumentation. No simulator or replay loop records a metric, and
//! [`ParallelSweep::run`] (one `GridSink` per job, on lanes) opens only
//! its `sweep` span, plus helper-lane and `lane_wait` spans when it runs
//! on more than one lane. This test holds the implementation to that
//! claim two ways:
//!
//! 1. **Bit-identical results** — a sweep replayed with observability
//!    enabled produces exactly the same cells as one replayed with it
//!    disabled.
//! 2. **<5% time cost** — over interleaved on/off pairs, alternating
//!    which mode goes first, the median pair's on/off wall-time ratio is
//!    below 1.05. Pairing cancels drift in the host's load, and the
//!    median outvotes the pairs the scheduler disturbed; since the
//!    per-event path is identical code, the real difference is ~0%.
//!
//! This file holds exactly one test: it toggles the process-global
//! enabled flag, so it must not share a process with tests that expect
//! observability to stay on.

use codelayout_memsim::{ParallelSweep, StreamFilter, SweepSpec};
use codelayout_vm::{FetchRecord, FrozenTrace, TraceBuffer, TraceSink};
use std::time::Instant;

/// A mixed user/kernel multi-CPU trace big enough that a sweep over it
/// takes a few milliseconds even in debug builds.
fn test_trace(events: u64) -> FrozenTrace {
    let mut buf = TraceBuffer::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..events {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kernel = x.is_multiple_of(5);
        let base = if kernel { 0x8000_0000 } else { 0x40_0000 };
        buf.fetch(FetchRecord {
            addr: (base + x % (256 * 1024)) & !3,
            cpu: (i % 4) as u8,
            pid: (i % 8) as u8,
            kernel,
        });
    }
    buf.freeze()
}

#[test]
fn instrumented_replay_is_bit_identical_and_within_5pct() {
    let trace = test_trace(50_000);
    let jobs = vec![
        SweepSpec::paper_grid(1)
            .cpus(4)
            .filter(StreamFilter::UserOnly),
        SweepSpec::grid().size_kb(128).line_b(128).ways(4).cpus(4),
    ];
    let sweeper = ParallelSweep::new(2);

    // Result equality first (and again after every timed run below).
    codelayout_obs::set_enabled(true);
    let with_obs = sweeper.run(&trace, &jobs);
    codelayout_obs::set_enabled(false);
    let without_obs = sweeper.run(&trace, &jobs);
    assert_eq!(with_obs, without_obs, "observability changed sweep results");

    // Interleaved pairs: each pair times both modes back to back,
    // alternating which goes first, and the bound is on the median of
    // the pairs' on/off ratios, so drift in the host's load cancels
    // within each pair and a pair the scheduler disturbed is outvoted.
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            let order = if pair % 2 == 0 {
                [true, false]
            } else {
                [false, true]
            };
            let mut secs = [0.0; 2];
            for enabled in order {
                codelayout_obs::set_enabled(enabled);
                let t = Instant::now();
                let r = sweeper.run(&trace, &jobs);
                secs[usize::from(enabled)] = t.elapsed().as_secs_f64();
                assert_eq!(r, with_obs);
            }
            secs[1] / secs[0]
        })
        .collect();
    codelayout_obs::set_enabled(true);

    let cost = median(ratios.clone()) - 1.0;
    assert!(
        cost < 0.05,
        "instrumented replay took {:.1}% longer (median of {PAIRS} on/off pairs; ratios {ratios:.3?})",
        cost * 100.0,
    );
}

/// On/off pairs timed; odd, so the median is one pair's ratio.
const PAIRS: usize = 31;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}
