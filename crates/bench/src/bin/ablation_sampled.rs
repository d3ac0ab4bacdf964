//! Ablation: exact (Pixie) vs sampled (DCPI) profiles as the optimizer's
//! input (§3.2 offers both). Sampling loses edge information — Spike
//! estimates edges from block counts — so the question is how much layout
//! quality that costs at various sampling periods.

use codelayout_core::{LayoutPipeline, OptimizationSet};
use codelayout_memsim::{CacheConfig, GridSink, StreamFilter, SweepSpec};
use codelayout_oltp::build_study;
use codelayout_profile::{profile_from_block_samples, SampledCollector};
use codelayout_vm::NullSink;
use std::sync::Arc;

fn main() {
    let sc = codelayout_bench::scenario_from_env();
    let study = build_study(&sc);
    let cache = CacheConfig::new(64 * 1024, 128, 2);
    let spec = SweepSpec::grid()
        .size_kb(64)
        .line_b(128)
        .ways(2)
        .cpus(sc.num_cpus)
        .filter(StreamFilter::UserOnly);

    let run = |image: &Arc<codelayout_ir::Image>| -> u64 {
        let mut sweep = GridSink::new(&spec);
        let out = study.run_measured(image, &study.base_kernel_image, &mut sweep);
        out.assert_correct();
        sweep.finish()[0].stats.misses
    };

    println!("cache: {cache}");
    let base = run(&study.image(OptimizationSet::BASE));
    println!("{:>22} misses={base}", "base");
    let exact = run(&study.image(OptimizationSet::ALL));
    println!(
        "{:>22} misses={exact} ({:.0}% reduction)",
        "all (exact pixie)",
        100.0 * (1.0 - exact as f64 / base as f64)
    );

    for period in [64u64, 256, 1024, 4096] {
        // Re-run the profiling phase with a sampling collector.
        let (mut m, _) =
            study.new_machine(&study.base_image, &study.base_kernel_image, sc.profile_txns);
        let mut sampler = SampledCollector::user(study.app.program.blocks.len(), period);
        while m.live_processes() > 0 {
            m.run_hooked(&mut NullSink, &mut sampler, 1_000_000);
        }
        let profile = profile_from_block_samples(&study.app.program, &sampler);
        let layout = LayoutPipeline::new(&study.app.program, &profile).build(OptimizationSet::ALL);
        let misses = run(&study.link_validated(&layout).expect("sampled layouts link"));
        println!(
            "{:>22} misses={misses} ({:.0}% reduction)",
            format!("all (sampled 1/{period})"),
            100.0 * (1.0 - misses as f64 / base as f64)
        );
    }
}
