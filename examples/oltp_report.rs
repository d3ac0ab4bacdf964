//! End-to-end OLTP study: generate the workload, profile, optimize, and
//! print the headline comparison the paper reports.
//!
//! Run with: `cargo run --release --example oltp_report [quick|sim|hw]
//! [LAYOUT…]`, where each LAYOUT is a run name such as `all`, `exttsp` or
//! `static:all`; the default is the paper's six series.

use codelayout::memsim::{GridSink, SequenceProfiler, StreamFilter, SweepSpec};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::{LayoutRequest, OptimizationSet};
use codelayout::vm::TeeSink;

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "quick".into());
    let mut layouts: Vec<LayoutRequest> = args
        .map(|name| {
            name.parse().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();
    if layouts.is_empty() {
        layouts = OptimizationSet::paper_series()
            .map(|(_, set)| set.into())
            .to_vec();
    }
    let scenario = match which.as_str() {
        "sim" => Scenario::paper_sim(),
        "hw" => Scenario::paper_hw(),
        _ => Scenario::quick(),
    };
    println!("building study ({which})…");
    let study = build_study(&scenario);
    let stats = study.app.program.stats();
    println!(
        "application: {} procedures, {} blocks, ~{} KB static text",
        stats.procs,
        stats.blocks,
        stats.body_instrs * 4 / 1024
    );

    let spec = SweepSpec::grid()
        .sizes_kb(&[32, 64, 128])
        .line_b(128)
        .ways(4)
        .cpus(scenario.num_cpus)
        .filter(StreamFilter::UserOnly);

    println!(
        "\n{:>14} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "layout", "32KB", "64KB", "128KB", "seq len", "txns"
    );
    for layout in layouts {
        let image = study.image(layout);
        let mut sweep = GridSink::new(&spec);
        let mut seq = SequenceProfiler::new(StreamFilter::UserOnly);
        let mut sink = TeeSink(&mut sweep, &mut seq);
        let out = study.run_measured(&image, &study.base_kernel_image, &mut sink);
        out.assert_correct();
        let misses: Vec<u64> = sweep.finish().iter().map(|c| c.stats.misses).collect();
        let seq = seq.finish();
        println!(
            "{:>14} {:>10} {:>10} {:>10} {:>8.2} {:>9}",
            layout.to_string(),
            misses[0],
            misses[1],
            misses[2],
            seq.average_length(),
            out.invariants.history_count,
        );
    }
    println!("\nTPC-B invariants held for every layout (asserted).");
}
