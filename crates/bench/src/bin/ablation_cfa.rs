//! Ablation: the conflict-free-area (software trace cache) layout the
//! paper implemented and rejected (§2). Reproduces the negative result:
//! the hot-trace footprint of OLTP is far larger than any reasonable
//! reserved fraction of the cache, so CFA yields no gain over `all`.

use codelayout_core::{cfa_layout, OptimizationSet};
use codelayout_memsim::{CacheConfig, GridSink, StreamFilter, SweepSpec};
use codelayout_oltp::build_study;
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
    let all = run(&study.image(OptimizationSet::ALL));
    println!("{:>24} misses={all}", "all (paper pipeline)");

    for reserved_kb in [8u64, 16, 32, 48] {
        let (layout, report) = cfa_layout(&study.app.program, &study.profile, reserved_kb * 1024);
        let misses = run(&study.link_validated(&layout).expect("CFA layouts link"));
        println!(
            "{:>21}KB  misses={misses}  reserved-covers={}.{}% of execution  (traces for 90% need {} KB)",
            format!("CFA {reserved_kb}"),
            report.coverage_permille / 10,
            report.coverage_permille % 10,
            report.bytes_for_90pct / 1024,
        );
    }
    println!(
        "\npaper: \"the footprint for such traces … was too large to fit within a \
         reasonably sized fraction of the cache, and the optimization yielded no gains\""
    );
}
