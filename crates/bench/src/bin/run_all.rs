//! Runs the paper's evaluation: `run_all [--report] [FIGURE…]`.
//!
//! With no names, runs every figure in [`FIGURES`] order: Figures 3–14,
//! the in-text claims and the `compare` and `fig_static` tables on the
//! `CODELAYOUT_SCENARIO` study (default `sim`, the paper's 4-CPU
//! simulated system), sharing workload runs between them; Figure 15 on
//! the single-processor study; the serving loop on its phase-shift
//! stream; and the autotuner, the ablations (CFA, sampled profiles, the
//! multiprocessor speedup) and the `layout_lint` gate on the main study.
//! With names, runs just those figures and builds only the studies they
//! need. Writes `results/<figure>.json` and the run manifest
//! `results/<scenario>/manifest.json`, whose `serve`, `tune` and `lint`
//! sections carry the serving loop's epoch ledger, the search trajectory
//! and the lint finding counts.
//!
//! `--report` prints the tracer's phase-tree breakdown after the run;
//! `CODELAYOUT_TRACE_OUT=<file>` additionally streams every span boundary
//! as JSON lines, with each serving epoch and each evaluated tune
//! candidate as a `serve/epoch` or `tune/candidate` event. An unknown
//! figure name exits 2, listing the accepted names. A deny-level lint
//! finding fails the `layout_lint` figure: `run_all` exits 1 with no
//! JSON for it and no manifest.
//!
//! [`FIGURES`]: codelayout_bench::driver::FIGURES

use codelayout_bench::driver;

fn main() {
    let (report, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--report");
    let figures = driver::select(&names).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    if let Err(e) = driver::run(&figures) {
        eprintln!("[run_all] {e}");
        std::process::exit(e.exit_code());
    }
    if !report.is_empty() {
        print!("{}", codelayout_obs::tracer().render_report());
    }
}
