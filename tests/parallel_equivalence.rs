//! Serial-equivalence of the parallel sweep engines.
//!
//! The contract under test: recording a workload's fetch stream once
//! and replaying it through [`ParallelSweep`] produces **bit-identical**
//! statistics to the serial [`SweepSink`]s that observed the live run —
//! for every paper layout tried, every stream filter, any lane count,
//! and **both** engines (the direct per-configuration simulators and the
//! single-pass stack-distance profiler). Each job is one [`GridSink`]
//! fed by the replay, the very sink the harness, the autotuner and the
//! serving loop feed live.
//!
//! [`GridSink`]: codelayout::memsim::GridSink

use codelayout::memsim::{
    ParallelSweep, StreamFilter, SweepCell, SweepEngine, SweepSink, SweepSpec,
};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::OptimizationSet;
use codelayout::vm::{TeeSink, TraceBuffer};

/// A reduced OLTP scenario with more than one CPU, so the per-CPU cache
/// sharding (`cpu % num_cpus`) is actually exercised.
fn small_multicpu_scenario() -> Scenario {
    Scenario {
        num_cpus: 2,
        ..Scenario::quick()
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_live_serial_sinks() {
    let scenario = small_multicpu_scenario();
    let study = build_study(&scenario);
    let num_cpus = scenario.num_cpus;

    let grids: [SweepSpec; 3] = [
        SweepSpec::paper_grid(1)
            .cpus(num_cpus)
            .filter(StreamFilter::UserOnly),
        SweepSpec::paper_grid(4).cpus(num_cpus),
        SweepSpec::paper_grid(2)
            .cpus(num_cpus)
            .filter(StreamFilter::KernelOnly),
    ];

    let layouts = ["base", "chain", "chain+porder", "all"];
    for name in layouts {
        let set = OptimizationSet::paper_series()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("unknown paper layout {name}"));
        let image = study.image(set);

        // Live pass: serial sweeps observe the run directly while the
        // trace buffer records the same stream.
        let mut s0 = SweepSink::from_spec(&grids[0]);
        let mut s1 = SweepSink::from_spec(&grids[1]);
        let mut s2 = SweepSink::from_spec(&grids[2]);
        let mut tee = TeeSink(
            TraceBuffer::fetch_only(),
            TeeSink(&mut s0, TeeSink(&mut s1, &mut s2)),
        );
        let outcome = study.run_measured(&image, &study.base_kernel_image, &mut tee);
        outcome.assert_correct();
        let trace = tee.0.freeze();
        assert!(!trace.is_empty(), "{name}: trace must record the run");

        let expected: Vec<Vec<SweepCell>> = vec![s0.results(), s1.results(), s2.results()];
        // Spot-check the expectation is non-trivial.
        assert!(
            expected[0].iter().any(|c| c.stats.misses > 0),
            "{name}: live sweep saw no misses — scenario too small to test anything"
        );

        for (threads, engine) in [
            (1usize, SweepEngine::Direct),
            (2, SweepEngine::Direct),
            (7, SweepEngine::Direct),
            (1, SweepEngine::Stack),
            (2, SweepEngine::Stack),
            (7, SweepEngine::Stack),
        ] {
            let got = ParallelSweep::new(threads)
                .with_engine(engine)
                .run(&trace, &grids);
            // SweepCell's PartialEq covers config and every stats field
            // (accesses, misses, misses_by_class, displaced); compare
            // field-by-field anyway so a failure names the culprit.
            for (g, (got_cells, exp_cells)) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(got_cells.len(), exp_cells.len());
                for (a, b) in got_cells.iter().zip(exp_cells.iter()) {
                    let eng = engine.label();
                    assert_eq!(
                        a.config, b.config,
                        "{name} grid {g} threads {threads} {eng}"
                    );
                    let ctx = format!(
                        "{name} grid {g} config {:?} threads {threads} engine {eng}",
                        a.config
                    );
                    assert_eq!(a.stats.accesses, b.stats.accesses, "accesses: {ctx}");
                    assert_eq!(a.stats.misses, b.stats.misses, "misses: {ctx}");
                    assert_eq!(
                        a.stats.misses_by_class, b.stats.misses_by_class,
                        "misses_by_class: {ctx}"
                    );
                    assert_eq!(a.stats.displaced, b.stats.displaced, "displaced: {ctx}");
                }
                assert_eq!(
                    got_cells,
                    exp_cells,
                    "{name} grid {g} threads {threads} engine {}",
                    engine.label()
                );
            }
        }
    }
}

#[test]
fn replaying_the_same_trace_twice_is_deterministic() {
    let scenario = small_multicpu_scenario();
    let study = build_study(&scenario);
    let image = study.image(OptimizationSet::ALL);
    let mut buf = TraceBuffer::fetch_only();
    study
        .run_measured(&image, &study.base_kernel_image, &mut buf)
        .assert_correct();
    let trace = buf.freeze();
    let jobs = [SweepSpec::paper_grid(2).cpus(scenario.num_cpus)];
    let sweeper = ParallelSweep::new(3);
    assert_eq!(sweeper.run(&trace, &jobs), sweeper.run(&trace, &jobs));
}
