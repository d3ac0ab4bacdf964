//! Runs the entire evaluation: every figure plus the in-text claims,
//! sharing workload runs between figures, then the Figure 15 timing study
//! on the single-processor scenario. Writes `results/*.json` and the run
//! manifest `results/<scenario>/manifest.json`.
//!
//! Scenario for Figures 3–14 via `CODELAYOUT_SCENARIO` (default `sim`,
//! the paper's 4-CPU simulated system). `--report` prints the tracer's
//! phase-tree breakdown after the run; `CODELAYOUT_TRACE_OUT=<file>`
//! additionally streams every span boundary as JSON lines.

use codelayout_bench::{figures, Harness};

fn main() {
    let root = codelayout_obs::span("run_all");
    let study_span = codelayout_obs::span("study_build");
    let mut h = Harness::from_env();
    eprintln!("[run_all] study ready in {:?}", study_span.finish());

    type FigFn = fn(&mut Harness) -> serde_json::Value;
    let figs: [(&str, FigFn); 15] = [
        ("fig03", figures::fig03),
        ("fig04", figures::fig04),
        ("fig05", figures::fig05),
        ("fig06", figures::fig06),
        ("fig07", figures::fig07),
        ("fig08", figures::fig08),
        ("fig09", figures::fig09),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("fig13", figures::fig13),
        ("fig14", figures::fig14),
        ("claims", figures::claims),
        ("compare", figures::compare),
        ("fig_static", figures::fig_static),
    ];
    for (name, f) in figs {
        let fig_span = codelayout_obs::span(name);
        let v = f(&mut h);
        h.save_json(name, &v);
        eprintln!("[run_all] {name} in {:?}", fig_span.finish());
    }

    // Figure 15 on the single-processor scenario (the paper's hardware
    // execution-time runs are 1-processor).
    let fig15_span = codelayout_obs::span("fig15");
    let (label15, hw) = match codelayout_bench::run_env().scenario {
        codelayout_bench::ScenarioSel::Quick => ("quick", codelayout_oltp::Scenario::quick()),
        _ => ("hw", codelayout_oltp::Scenario::paper_hw()),
    };
    let mut h15 = Harness::with_label(&hw, label15);
    let v = figures::fig15(&mut h15);
    h15.save_json("fig15", &v);
    eprintln!("[run_all] fig15 in {:?}", fig15_span.finish());

    // The serving loop on its own phase-shift stream (the study is
    // sized to the full stream; see `ServeConfig::serve_scenario`).
    let serve_span = codelayout_obs::span("fig_serve");
    let base = codelayout_bench::scenario_from_env();
    let serve_cfg = codelayout_serve::ServeConfig::from_env(&base);
    let mut hs = Harness::with_label(&serve_cfg.serve_scenario(&base), h.scenario_label());
    let v = figures::fig_serve(&mut hs, &serve_cfg);
    hs.save_json("fig_serve", &v);
    eprintln!("[run_all] fig_serve in {:?}", serve_span.finish());

    // The layout autotuner on the main study (shares its measurement
    // cache with the figures above; the `tune` manifest section lands on
    // `h`).
    let tune_span = codelayout_obs::span("fig_tune");
    let tune_cfg = codelayout_tune::TuneConfig::from_env(&h.study.scenario);
    let v = figures::fig_tune(&mut h, &tune_cfg).unwrap_or_else(|e| {
        eprintln!("[run_all] fig_tune: {e}");
        std::process::exit(1);
    });
    h.save_json("fig_tune", &v);
    eprintln!("[run_all] fig_tune in {:?}", tune_span.finish());

    let total = root.finish();
    eprintln!("[run_all] total {total:?}");

    // One manifest for the whole evaluation, covering all three
    // harnesses' outputs (fig15 ran on its own single-processor study,
    // the serving loop on its phase-shift stream).
    let mut b = codelayout_obs::manifest::ManifestBuilder::new("run_all", h.scenario_label());
    b.config(h.config_json());
    b.section("fig15_config", h15.config_json());
    for (key, value) in h.extra_sections().iter().chain(hs.extra_sections()) {
        b.section(key, value.clone());
    }
    b.phases(codelayout_obs::tracer(), "run_all");
    b.metrics(codelayout_obs::metrics());
    for (name, digest) in h
        .output_digests()
        .iter()
        .chain(h15.output_digests())
        .chain(hs.output_digests())
    {
        b.output(name, digest.clone());
    }
    match b.write(&h.manifest_dir()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }
    if codelayout_bench::report_requested() {
        print!("{}", codelayout_obs::tracer().render_report());
    }
}
