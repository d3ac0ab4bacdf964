//! Ablation: fine-grain splitting (the paper's contribution) vs the
//! hot/cold splitting shipped in the Spike distribution (§2). Fine-grain
//! segments give the ordering pass more freedom; hot/cold only separates
//! the never-executed half of each procedure.

use codelayout_core::{LayoutSeries, OptimizationSet};
use codelayout_memsim::{StreamFilter, SweepSink, SweepSpec};
use codelayout_oltp::build_study;
use std::sync::Arc;

fn main() {
    let sc = codelayout_bench::scenario_from_env();
    let study = build_study(&sc);
    let spec = SweepSpec::grid()
        .sizes_kb(&[32, 64, 128])
        .line_b(128)
        .ways(4)
        .cpus(sc.num_cpus)
        .filter(StreamFilter::UserOnly);

    let run = |image: &Arc<codelayout_ir::Image>| -> Vec<u64> {
        let mut sweep = SweepSink::from_spec(&spec);
        let out = study.run_measured(image, &study.base_kernel_image, &mut sweep);
        out.assert_correct();
        sweep.results().iter().map(|c| c.stats.misses).collect()
    };

    println!(
        "{:>28} {:>9} {:>9} {:>9}",
        "layout", "32KB", "64KB", "128KB"
    );
    for (name, set) in [
        ("base", OptimizationSet::BASE),
        ("chain", OptimizationSet::CHAIN),
        ("chain+porder (no split)", OptimizationSet::CHAIN_PORDER),
        ("fine-grain split+PH (all)", OptimizationSet::ALL),
    ] {
        let m = run(&study.image(set));
        println!("{:>28} {:>9} {:>9} {:>9}", name, m[0], m[1], m[2]);
    }
    let m = run(&study.image(LayoutSeries::HotCold));
    println!(
        "{:>28} {:>9} {:>9} {:>9}",
        "hot/cold split+PH (Spike)", m[0], m[1], m[2]
    );
}
