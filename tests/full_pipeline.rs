//! End-to-end integration tests across all crates: workload generation,
//! profiling, layout optimization, simulation and invariant checking.

use codelayout::memsim::{SequenceProfiler, StreamFilter, SweepSink, SweepSpec};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::OptimizationSet;
use codelayout::vm::{NullSink, TeeSink};

fn misses_at(study: &codelayout::oltp::Study, set: OptimizationSet, kb: u64) -> (u64, f64) {
    let image = study.image(set);
    let mut sweep = SweepSink::from_spec(
        &SweepSpec::grid()
            .size_kb(kb)
            .line_b(128)
            .ways(2)
            .cpus(study.scenario.num_cpus)
            .filter(StreamFilter::UserOnly),
    );
    let mut seq = SequenceProfiler::new(StreamFilter::UserOnly);
    let mut sink = TeeSink(&mut sweep, &mut seq);
    let out = study.run_measured(&image, &study.base_kernel_image, &mut sink);
    out.assert_correct();
    (
        sweep.results()[0].stats.misses,
        seq.finish().average_length(),
    )
}

#[test]
fn optimization_reduces_misses_and_lengthens_runs() {
    let study = build_study(&Scenario::quick());
    // A cache small enough that the quick workload's footprint stresses it.
    let (base_misses, base_seq) = misses_at(&study, OptimizationSet::BASE, 16);
    let (opt_misses, opt_seq) = misses_at(&study, OptimizationSet::ALL, 16);
    assert!(
        opt_misses < base_misses,
        "optimized {opt_misses} >= base {base_misses}"
    );
    assert!(
        opt_seq > base_seq,
        "sequence length must grow: {base_seq} -> {opt_seq}"
    );
}

#[test]
fn combined_optimization_dominates_each_alone() {
    // Scale-robust version of the paper's Figure 7 relationships: both
    // single optimizations beat the baseline, and the full pipeline is at
    // least as good as either alone. (The paper-scale relationship —
    // chaining ≫ ordering alone — is validated by the `fig07` experiment,
    // which runs at full workload scale.)
    let study = build_study(&Scenario::quick());
    // A 4 KB cache keeps even the quick workload capacity-bound.
    let (base, _) = misses_at(&study, OptimizationSet::BASE, 4);
    let (porder, _) = misses_at(&study, OptimizationSet::PORDER, 4);
    let (chain, _) = misses_at(&study, OptimizationSet::CHAIN, 4);
    let (all, _) = misses_at(&study, OptimizationSet::ALL, 4);
    assert!(chain < base, "chain {chain} vs base {base}");
    assert!(porder < base, "porder {porder} vs base {base}");
    assert!(all <= chain, "all {all} vs chain {chain}");
    assert!(all <= porder, "all {all} vs porder {porder}");
}

#[test]
fn optimized_kernel_image_preserves_correctness() {
    let study = build_study(&Scenario::quick());
    let kopt = study.kernel_image(&study.kernel_layout(OptimizationSet::ALL));
    let base_app = study.image(OptimizationSet::BASE);
    let reference = study.run_measured(&base_app, &study.base_kernel_image, &mut NullSink);
    reference.assert_correct();
    let with_kopt = study.run_measured(&base_app, &kopt, &mut NullSink);
    with_kopt.assert_correct();
    // Transaction effects are serial-determined, so the database state is
    // identical even though the kernel image (and thus scheduling detail)
    // changed.
    assert_eq!(reference.invariants, with_kopt.invariants);
}

#[test]
fn study_build_is_deterministic() {
    let a = build_study(&Scenario::quick());
    let b = build_study(&Scenario::quick());
    assert_eq!(a.profile, b.profile);
    assert_eq!(a.kernel_profile, b.kernel_profile);
    assert_eq!(a.app.program, b.app.program);
    assert_eq!(
        a.layout(OptimizationSet::ALL),
        b.layout(OptimizationSet::ALL)
    );
}

#[test]
fn text_shrinks_with_chaining() {
    // Chaining eliminates unconditional branches: the linked image gets
    // smaller, never bigger.
    let study = build_study(&Scenario::quick());
    let base = study.image(OptimizationSet::BASE);
    let chained = study.image(OptimizationSet::CHAIN);
    assert!(chained.text_bytes() <= base.text_bytes());
}
