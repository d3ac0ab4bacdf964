//! Cache design-space exploration on the OLTP trace: one workload pass
//! feeding a grid of cache geometries, as the paper's Figure 4 sweep does.
//!
//! Run with: `cargo run --release --example cache_explorer [LAYOUT]`,
//! where LAYOUT is a run name such as `base` (the default), `all`,
//! `exttsp` or `static:all`.

use codelayout::memsim::{GridSink, StreamFilter, SweepSpec};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::LayoutRequest;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "base".into());
    let layout: LayoutRequest = name.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let scenario = Scenario::quick();
    let study = build_study(&scenario);
    let image = study.image(layout);

    // A 27-cell grid: sizes × line sizes × associativities, one pass.
    let spec = SweepSpec::grid()
        .sizes_kb(&[16, 32, 64])
        .lines_b(&[32, 64, 128])
        .ways_each(&[1, 2, 4])
        .cpus(scenario.num_cpus)
        .filter(StreamFilter::UserOnly);
    let mut sweep = GridSink::new(&spec);
    let out = study.run_measured(&image, &study.base_kernel_image, &mut sweep);
    out.assert_correct();

    println!("layout: {layout}");
    println!(
        "{:>6} {:>6} {:>6} {:>10} {:>9}",
        "size", "line", "ways", "misses", "missrate"
    );
    for cell in sweep.finish() {
        println!(
            "{:>5}K {:>5}B {:>6} {:>10} {:>8.2}%",
            cell.config.size_bytes / 1024,
            cell.config.line_bytes,
            cell.config.ways,
            cell.stats.misses,
            100.0 * cell.stats.miss_rate(),
        );
    }
}
