//! Cross-crate checks on profiling modes and trace-sink composition.

use codelayout::memsim::{
    AccessClass, CacheConfig, ICacheSim, MemoryHierarchy, StreamFilter, SweepSink, SweepSpec,
};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::{LayoutPipeline, OptimizationSet};
use codelayout::profile::estimate_edges_from_blocks;
use codelayout::vm::{FetchRecord, RecordingSink, TraceSink};

#[test]
fn sweep_agrees_with_single_cache_on_same_trace() {
    let study = build_study(&Scenario::quick());
    let image = study.image(OptimizationSet::BASE);
    let mut rec = RecordingSink::default();
    let out = study.run_measured(&image, &study.base_kernel_image, &mut rec);
    out.assert_correct();

    let cfg = CacheConfig::new(32 * 1024, 128, 2);
    let spec = SweepSpec::grid()
        .size_kb(32)
        .line_b(128)
        .ways(2)
        .filter(StreamFilter::UserOnly);
    let mut sweep = SweepSink::from_spec(&spec);
    let mut single = ICacheSim::new(cfg);
    for r in &rec.fetches {
        sweep.fetch(*r);
        if !r.kernel {
            single.access(r.addr, AccessClass::from_kernel_flag(r.kernel));
        }
    }
    assert_eq!(sweep.results()[0].stats.misses, single.stats().misses);
    assert_eq!(sweep.results()[0].stats.accesses, single.stats().accesses);
}

#[test]
fn user_plus_kernel_filters_partition_the_stream() {
    let study = build_study(&Scenario::quick());
    let image = study.image(OptimizationSet::BASE);
    let mut rec = RecordingSink::default();
    study
        .run_measured(&image, &study.base_kernel_image, &mut rec)
        .assert_correct();
    let user = rec.fetches.iter().filter(|r| !r.kernel).count();
    let kernel = rec.fetches.iter().filter(|r| r.kernel).count();
    assert!(user > 0 && kernel > 0);
    assert_eq!(user + kernel, rec.fetches.len());
}

#[test]
fn sampled_profile_produces_a_working_layout() {
    // DCPI-mode: block counts from sampling, edges estimated, layout built;
    // semantics must hold and misses should still drop vs base.
    let sc = Scenario::quick();
    let study = build_study(&sc);

    // Build an estimated profile from the exact one's block counts (the
    // estimation path is what DCPI-mode uses).
    let est = estimate_edges_from_blocks(&study.app.program, &study.profile.block_counts);
    let pipe = LayoutPipeline::new(&study.app.program, &est);
    let layout = pipe.build_series(OptimizationSet::ALL.into());
    codelayout::ir::verify_layout(&study.app.program, &layout).unwrap();

    let image = std::sync::Arc::new(
        codelayout::ir::link::link(&study.app.program, &layout, codelayout::vm::APP_TEXT_BASE)
            .unwrap(),
    );
    let run = |img: &std::sync::Arc<codelayout::ir::Image>| {
        let spec = SweepSpec::grid()
            .size_kb(16)
            .line_b(128)
            .ways(2)
            .cpus(sc.num_cpus)
            .filter(StreamFilter::UserOnly);
        let mut sweep = SweepSink::from_spec(&spec);
        let out = study.run_measured(img, &study.base_kernel_image, &mut sweep);
        out.assert_correct();
        (sweep.results()[0].stats.misses, out.invariants)
    };
    let (base_misses, base_inv) = run(&study.image(OptimizationSet::BASE));
    let (est_misses, est_inv) = run(&image);
    assert_eq!(base_inv, est_inv);
    assert!(
        est_misses < base_misses,
        "estimated-profile layout {est_misses} should beat base {base_misses}"
    );
}

#[test]
fn hierarchy_l2_misses_bounded_by_l1_misses() {
    let study = build_study(&Scenario::quick());
    let image = study.image(OptimizationSet::BASE);
    let mut h = MemoryHierarchy::new(codelayout::memsim::HierarchyConfig::simos_base(1));
    study
        .run_measured(&image, &study.base_kernel_image, &mut h)
        .assert_correct();
    let s = h.stats();
    assert!(s.l2_instr_misses <= s.l1i_misses);
    assert!(s.l2_data_misses <= s.l1d_misses);
    assert!(s.fetches > 0 && s.data_accesses > 0);
    assert!(s.itlb_misses > 0);
}

#[test]
fn per_cpu_records_stay_in_range() {
    let sc = Scenario {
        num_cpus: 2,
        processes_per_cpu: 2,
        ..Scenario::quick()
    };
    let study = build_study(&sc);
    let image = study.image(OptimizationSet::BASE);
    struct CpuCheck(u8);
    impl TraceSink for CpuCheck {
        fn fetch(&mut self, rec: FetchRecord) {
            assert!(rec.cpu < self.0, "cpu {} out of range", rec.cpu);
            // Static assignment: pid % ncpus == cpu.
            assert_eq!(rec.pid % self.0, rec.cpu);
        }
    }
    let mut sink = CpuCheck(2);
    study
        .run_measured(&image, &study.base_kernel_image, &mut sink)
        .assert_correct();
}
