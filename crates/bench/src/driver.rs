//! The evaluation driver behind `run_all`: one table of the paper's
//! figures ([`FIGURES`]), each naming the harness it runs on, and one run
//! ([`run`]) that builds only the harnesses its figures need, saves each
//! figure's JSON and writes one run manifest.
//!
//! Three harnesses serve the twenty figures (see [`Stage`]): the main
//! study of the `CODELAYOUT_SCENARIO` selection, which the offline
//! figures, the autotuner, the ablations and the lint gate share
//! through its measurement cache; the single-processor study of
//! Figure 15; and the serving loop's phase-shift study.

use crate::figures;
use crate::lint::{self, DenyFindings};
use crate::{run_env, scenario_from_env, Harness, ScenarioSel};
use codelayout_obs::manifest::ManifestBuilder;
use codelayout_oltp::Scenario;
use codelayout_serve::ServeConfig;
use codelayout_tune::TuneConfig;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The harness a figure runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The study `CODELAYOUT_SCENARIO` selects, with the
    /// `CODELAYOUT_SEED` override.
    Main,
    /// The single-processor study, matching the paper's 1-processor
    /// hardware runs: [`Scenario::paper_hw`], or [`Scenario::quick`] on
    /// the quick scenario.
    Fig15,
    /// The serving loop's study, built on its phase-shift stream
    /// ([`ServeConfig::serve_scenario`]).
    Serve,
}

/// One figure of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The figure's name: its JSON is `results/<name>.json`, and
    /// `run_all <name>` runs it alone.
    pub name: &'static str,
    /// The harness it runs on.
    pub stage: Stage,
    /// Runs the figure, printing its table and returning its JSON; only
    /// the lint gate can fail.
    pub run: fn(&mut Harness) -> Result<Value, DenyFindings>,
}

/// Every figure, in run order: the offline figures on the main study
/// (the order the benchmark's `paper-sim` workload copies), Figure 15,
/// the serving loop, then the autotuner, the ablations and the lint
/// gate, which reuse the main study's cached measurements.
pub const FIGURES: [Figure; 20] = [
    figure("fig03", Stage::Main, |h| Ok(figures::fig03(h))),
    figure("fig04", Stage::Main, |h| Ok(figures::fig04(h))),
    figure("fig05", Stage::Main, |h| Ok(figures::fig05(h))),
    figure("fig06", Stage::Main, |h| Ok(figures::fig06(h))),
    figure("fig07", Stage::Main, |h| Ok(figures::fig07(h))),
    figure("fig08", Stage::Main, |h| Ok(figures::fig08(h))),
    figure("fig09", Stage::Main, |h| Ok(figures::fig09(h))),
    figure("fig10", Stage::Main, |h| Ok(figures::fig10(h))),
    figure("fig11", Stage::Main, |h| Ok(figures::fig11(h))),
    figure("fig12", Stage::Main, |h| Ok(figures::fig12(h))),
    figure("fig13", Stage::Main, |h| Ok(figures::fig13(h))),
    figure("fig14", Stage::Main, |h| Ok(figures::fig14(h))),
    figure("claims", Stage::Main, |h| Ok(figures::claims(h))),
    figure("compare", Stage::Main, |h| Ok(figures::compare(h))),
    figure("fig_static", Stage::Main, |h| Ok(figures::fig_static(h))),
    figure("fig15", Stage::Fig15, |h| Ok(figures::fig15(h))),
    figure("fig_serve", Stage::Serve, |h| {
        Ok(figures::fig_serve(h, &serve_setup().1))
    }),
    figure("fig_tune", Stage::Main, |h| {
        let cfg = TuneConfig::from_env(&h.study.scenario);
        Ok(figures::fig_tune(h, &cfg))
    }),
    figure("ablations", Stage::Main, |h| Ok(figures::ablations(h))),
    figure("layout_lint", Stage::Main, lint::layout_lint),
];

const fn figure(
    name: &'static str,
    stage: Stage,
    run: fn(&mut Harness) -> Result<Value, DenyFindings>,
) -> Figure {
    Figure { name, stage, run }
}

/// The serving loop's base scenario and configuration, from the
/// environment.
fn serve_setup() -> (Scenario, ServeConfig) {
    let base = scenario_from_env();
    let cfg = ServeConfig::from_env(&base);
    (base, cfg)
}

/// A figure name not in [`FIGURES`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFigure {
    /// The name given.
    pub name: String,
    /// Every accepted name, in [`FIGURES`] order.
    pub accepted: Vec<&'static str>,
}

impl std::fmt::Display for UnknownFigure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown figure `{}`; accepted names: {}",
            self.name,
            self.accepted.join(", ")
        )
    }
}

impl std::error::Error for UnknownFigure {}

/// The figures `names` selects, in [`FIGURES`] order, each once; no
/// names selects every figure.
///
/// # Errors
/// The first name that is not a figure's.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Figure>, UnknownFigure> {
    if let Some(bad) = names
        .iter()
        .map(AsRef::as_ref)
        .find(|n| !FIGURES.iter().any(|f| f.name == *n))
    {
        return Err(UnknownFigure {
            name: bad.to_string(),
            accepted: FIGURES.iter().map(|f| f.name).collect(),
        });
    }
    Ok(FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n.as_ref() == f.name))
        .collect())
}

/// A figure that could not produce its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureFailed {
    /// The figure's name.
    pub figure: &'static str,
    /// Why: the lint matrix carried deny-level findings.
    pub cause: DenyFindings,
}

impl FigureFailed {
    /// The process exit status `run_all` reports the failure with.
    pub fn exit_code(&self) -> i32 {
        1
    }
}

impl std::fmt::Display for FigureFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.figure, self.cause)
    }
}

impl std::error::Error for FigureFailed {}

/// The harnesses of one run, each built on first use.
#[derive(Default)]
pub struct Harnesses {
    /// The [`Stage::Main`] harness.
    pub main: Option<Harness>,
    /// The [`Stage::Fig15`] harness.
    pub fig15: Option<Harness>,
    /// The [`Stage::Serve`] harness.
    pub serve: Option<Harness>,
}

impl Harnesses {
    /// The harness for `stage`, built now if it was not yet.
    fn get(&mut self, stage: Stage) -> &mut Harness {
        match stage {
            Stage::Main => self.main.get_or_insert_with(Harness::from_env),
            Stage::Fig15 => self.fig15.get_or_insert_with(|| match run_env().scenario {
                ScenarioSel::Quick => Harness::with_label(&Scenario::quick(), "quick"),
                _ => Harness::with_label(&Scenario::paper_hw(), "hw"),
            }),
            Stage::Serve => self.serve.get_or_insert_with(|| {
                let (base, cfg) = serve_setup();
                Harness::with_label(&cfg.serve_scenario(&base), run_env().scenario.label())
            }),
        }
    }

    /// Writes the run manifest `results/<scenario>/manifest.json` for a
    /// run whose root span `tool` has closed, and returns its path.
    ///
    /// `config` is the first built harness's, in [`Stage`] order; when
    /// that is the main study's, the Figure 15 study's goes under
    /// `fig15_config`. Every harness's extra sections (`serve`, `tune`)
    /// and output digests follow, in the same order.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_manifest(&self, tool: &str, scenario: &str) -> std::io::Result<PathBuf> {
        let built = || [&self.main, &self.fig15, &self.serve].into_iter().flatten();
        let mut b = ManifestBuilder::new(tool, scenario);
        if let Some(first) = built().next() {
            b.config(first.config_json());
        }
        if let (Some(_), Some(h15)) = (&self.main, &self.fig15) {
            b.section("fig15_config", h15.config_json());
        }
        for h in built() {
            for (key, value) in &h.extra_sections {
                b.section(key, value.clone());
            }
            for (name, digest) in &h.output_digests {
                b.output(name, digest.clone());
            }
        }
        b.phases(codelayout_obs::tracer(), tool);
        b.metrics(codelayout_obs::metrics());
        b.write(&Path::new("results").join(scenario))
    }
}

/// Runs `figures` under a `run_all` root span, saving each one's JSON
/// under `results/`, then writes the run manifest for the scenario
/// `CODELAYOUT_SCENARIO` selects.
///
/// The main study is shared by most figures, so it is built up front
/// in its own `study_build` phase; the Figure 15 and serving studies
/// each serve one figure and are built inside that figure's phase.
///
/// The `CODELAYOUT_TRACE_OUT` event log is flushed at the end, once the
/// `run_all` span has closed, whether the run succeeded or failed.
///
/// # Errors
/// A figure that failed; nothing after it runs and no manifest is
/// written.
pub fn run(figures: &[&Figure]) -> Result<(), FigureFailed> {
    let result = run_figures(figures);
    codelayout_obs::tracer().flush();
    result
}

fn run_figures(figures: &[&Figure]) -> Result<(), FigureFailed> {
    let root = codelayout_obs::span("run_all");
    let mut harnesses = Harnesses::default();
    if figures.iter().any(|f| f.stage == Stage::Main) {
        let study_span = codelayout_obs::span("study_build");
        harnesses.get(Stage::Main);
        eprintln!("[run_all] study ready in {:?}", study_span.finish());
    }
    for fig in figures {
        let fig_span = codelayout_obs::span(fig.name);
        let h = harnesses.get(fig.stage);
        let v = (fig.run)(h).map_err(|cause| FigureFailed {
            figure: fig.name,
            cause,
        })?;
        h.save_json(fig.name, &v);
        eprintln!("[run_all] {} in {:?}", fig.name, fig_span.finish());
    }
    eprintln!("[run_all] total {:?}", root.finish());
    match harnesses.write_manifest("run_all", run_env().scenario.label()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_in_the_table_once() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), 20);
        for name in &names {
            assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        let main = FIGURES.iter().filter(|f| f.stage == Stage::Main).count();
        assert_eq!(
            main, 18,
            "15 offline figures, the autotuner, the ablations and the lint gate"
        );
    }

    #[test]
    fn the_offline_figures_lead_the_table_in_the_benchmarks_order() {
        // The benchmark's `paper-sim` workload runs these 15 in this
        // order from its own list; a figure added to the table goes
        // after them, so the benchmark's work does not change.
        let offline = [
            "fig03",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "claims",
            "compare",
            "fig_static",
        ];
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names[..offline.len()], offline);
    }

    #[test]
    fn a_lint_deny_fails_its_figure_with_exit_status_1() {
        let failed = FigureFailed {
            figure: "layout_lint",
            cause: DenyFindings { count: 3 },
        };
        assert_eq!(failed.to_string(), "layout_lint: 3 deny-level findings");
        assert_eq!(failed.exit_code(), 1);
    }

    #[test]
    fn no_names_select_every_figure_in_table_order() {
        let all = select::<&str>(&[]).unwrap();
        let names: Vec<&str> = all.iter().map(|f| f.name).collect();
        let table: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn names_select_their_figures_in_table_order_once() {
        let picked = select(&["fig_static", "fig04", "fig15", "fig04"]).unwrap();
        let names: Vec<&str> = picked.iter().map(|f| f.name).collect();
        assert_eq!(names, ["fig04", "fig_static", "fig15"]);
    }

    #[test]
    fn an_unknown_name_is_a_typed_error_listing_every_accepted_name() {
        let err = select(&["fig04", "fig16"]).unwrap_err();
        assert_eq!(err.name, "fig16");
        let table: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(err.accepted, table);
        let text = err.to_string();
        assert!(text.contains("`fig16`"), "{text}");
        for name in table {
            assert!(text.contains(name), "{name} missing from: {text}");
        }
    }
}
