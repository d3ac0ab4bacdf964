//! The static layout-quality gate: the `layout_lint` figure and the
//! golden lint test.
//!
//! Both need the identical matrix — every
//! [`LayoutSeries::lint_matrix`] layout (the paper's six sets plus the
//! ext-TSP and Codestitcher passes) of the study's application *and*
//! kernel program, validated and linted — so the matrix runner, its
//! JSON and text renderings and the figure live here. A deny-level
//! finding fails the figure, so `run_all` exits nonzero on it.
//!
//! The cells are the [`Harness`]'s: each series' pair is linted once,
//! on the layouts the harness holds, and the `compare` table reads the
//! same cells for its rows.

use crate::Harness;
use codelayout_analysis::{analyze_layout, LintConfig, LintReport, Severity, TranslationReport};
use codelayout_core::LayoutSeries;
use codelayout_ir::link::link;
use codelayout_vm::{APP_TEXT_BASE, KERNEL_TEXT_BASE};
use serde_json::{json, Value};

/// Lint outcome for one (layout, program) cell of the matrix.
#[derive(Debug, Clone)]
pub struct LintCell {
    /// Layout-series label (`base` … `all`, `exttsp`, `stitcher`).
    pub layout: &'static str,
    /// Which program was laid out: `app` or `kernel`.
    pub target: &'static str,
    /// Translation-validation statistics; `None` when validation failed,
    /// in which case `report` carries the `L000` deny describing why.
    pub translation: Option<TranslationReport>,
    /// Layout-quality diagnostics.
    pub report: LintReport,
}

/// The full [`LayoutSeries::lint_matrix`] × {app, kernel} lint matrix of
/// the harness's study, every layout built from the measured profiles.
/// Each series is linted under its own optimization claims
/// ([`LayoutSeries::lint_set`]).
pub fn lint_study(h: &mut Harness) -> Vec<LintCell> {
    let mut cells = Vec::new();
    for series in LayoutSeries::lint_matrix() {
        cells.extend_from_slice(lint_series_cells(h, series));
    }
    cells
}

/// One series' app and kernel cells: translation validation and lints
/// of the harness's application layout for the bare series
/// ([`Harness::app_layout`]) and its kernel layout
/// ([`Harness::kernel_layout`]), each judged against its measured
/// profile, so lints flag what the workload actually executes. Linted
/// on first use and kept by the harness; [`lint_study`] and the
/// comparison table read the same cells.
pub fn lint_series_cells(h: &mut Harness, series: LayoutSeries) -> &[LintCell] {
    if !h.lint_cells.contains_key(&series) {
        let (app, kernel) = (h.app_layout(series), h.kernel_layout(series));
        let study = &h.study;
        let targets = [
            (
                "app",
                &study.app.program,
                &study.profile,
                app,
                APP_TEXT_BASE,
            ),
            (
                "kernel",
                &study.kernel.program,
                &study.kernel_profile,
                kernel,
                KERNEL_TEXT_BASE,
            ),
        ];
        let cells = targets.map(|(target, program, profile, layout, base)| {
            let image = link(program, &layout, base).expect("pipeline layouts link");
            let (translation, report) = analyze_layout(
                program,
                profile,
                &layout,
                &image,
                &LintConfig::new(series.lint_set()),
            );
            LintCell {
                layout: series.label(),
                target,
                translation,
                report,
            }
        });
        h.lint_cells.insert(series, cells);
    }
    &h.lint_cells[&series]
}

/// Total findings at `sev` across the matrix.
pub fn count(cells: &[LintCell], sev: Severity) -> usize {
    cells.iter().map(|c| c.report.count(sev)).sum()
}

/// The `layout_lint` figure: runs the [`lint_study`] matrix on the
/// harness's study, prints the text report, registers the per-code
/// summary ([`summary_json`]) as the run manifest's `lint` section and
/// returns the JSON document ([`cells_to_json`]).
///
/// # Errors
/// [`DenyFindings`] when any cell carries a deny-level finding (a
/// translation-validation failure surfaces as an `L000` deny).
pub fn layout_lint(h: &mut Harness) -> Result<Value, DenyFindings> {
    let cells = lint_study(h);
    print!("{}", render_cells_text(&h.scenario_label, &cells));
    let deny = count(&cells, Severity::Deny);
    if deny > 0 {
        return Err(DenyFindings { count: deny });
    }
    h.section("lint", summary_json(&cells));
    Ok(cells_to_json(&h.scenario_label, &cells))
}

/// The lint matrix carried deny-level findings, so the `layout_lint`
/// figure has no passing result to save.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenyFindings {
    /// How many deny-level findings the matrix carried.
    pub count: usize,
}

impl std::fmt::Display for DenyFindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} deny-level findings", self.count)
    }
}

impl std::error::Error for DenyFindings {}

/// The matrix summary that flows into the run manifest: severity totals
/// plus per-code (`L000`…) finding counts. Truncated findings (dropped
/// past the per-code cap) are counted too, so the totals reflect what
/// the analysis *found*, not what it chose to print.
pub fn summary_json(cells: &[LintCell]) -> Value {
    let mut by_code: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for c in cells {
        for d in &c.report.diagnostics {
            *by_code.entry(d.code).or_insert(0) += 1;
        }
        for &(code, dropped) in &c.report.truncated {
            *by_code.entry(code).or_insert(0) += dropped as u64;
        }
    }
    let mut codes = serde_json::Map::new();
    for (code, n) in by_code {
        codes.insert(code.to_string(), serde_json::Value::from(n));
    }
    json!({
        "deny": count(cells, Severity::Deny) as u64,
        "warn": count(cells, Severity::Warn) as u64,
        "info": count(cells, Severity::Info) as u64,
        "codes": serde_json::Value::Object(codes),
    })
}

/// Renders the matrix as the stable JSON document the `layout_lint`
/// figure saves and the golden test snapshots.
pub fn cells_to_json(scenario: &str, cells: &[LintCell]) -> Value {
    let rendered: Vec<Value> = cells
        .iter()
        .map(|c| {
            let translation = match &c.translation {
                Some(t) => json!({
                    "blocks": t.blocks,
                    "body_instrs": t.body_instrs,
                    "edges": t.edges,
                    "calls": t.calls,
                    "fallthroughs": t.fallthroughs,
                    "inverted_branches": t.inverted_branches,
                    "split_branches": t.split_branches,
                    "reachable_blocks": t.reachable_blocks,
                }),
                None => Value::Null,
            };
            json!({
                "layout": c.layout,
                "target": c.target,
                "translation": translation,
                "lints": c.report.to_json(),
            })
        })
        .collect();
    json!({
        "tool": "layout_lint",
        "scenario": scenario,
        "cells": rendered,
        "summary": {
            "deny": count(cells, Severity::Deny),
            "warn": count(cells, Severity::Warn),
            "info": count(cells, Severity::Info),
        },
    })
}

/// Renders the matrix as a human-readable report.
pub fn render_cells_text(scenario: &str, cells: &[LintCell]) -> String {
    let mut out = String::new();
    out.push_str(&format!("layout_lint: scenario `{scenario}`\n"));
    for c in cells {
        out.push_str(&format!("\n== {} / {} ==\n", c.layout, c.target));
        match &c.translation {
            Some(t) => out.push_str(&format!(
                "translation ok: {} blocks, {} edges, {} calls, \
                 {} fallthroughs, {} inverted, {} split\n",
                t.blocks, t.edges, t.calls, t.fallthroughs, t.inverted_branches, t.split_branches,
            )),
            None => out.push_str("translation FAILED (see L000 below)\n"),
        }
        out.push_str(&c.report.render_text());
    }
    out.push_str(&format!(
        "\ntotal: {} deny, {} warn, {} info\n",
        count(cells, Severity::Deny),
        count(cells, Severity::Warn),
        count(cells, Severity::Info),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_analysis::validate_translation;
    use codelayout_core::{LayoutRequest, OptimizationSet};
    use codelayout_oltp::Scenario;
    use std::sync::Arc;

    #[test]
    fn app_cell_lints_the_cached_layout() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        let series = LayoutSeries::from(OptimizationSet::ALL);
        // Plant another layout under the bare request: the app cell must
        // lint the layout the harness holds, not build the series again.
        let planted = h
            .study
            .layout("static:all".parse::<LayoutRequest>().unwrap());
        assert_ne!(
            planted,
            h.study.layout(series),
            "the check must discriminate"
        );
        h.app_layouts
            .insert(series.into(), Arc::new(planted.clone()));
        let study = &h.study;
        let image = link(&study.app.program, &planted, APP_TEXT_BASE).unwrap();
        let translation = validate_translation(&study.app.program, &planted, &image).unwrap();
        let (_, expected) = analyze_layout(
            &study.app.program,
            &study.profile,
            &planted,
            &image,
            &LintConfig::new(OptimizationSet::ALL),
        );
        let cells = lint_series_cells(&mut h, series);
        assert_eq!(cells[0].target, "app");
        assert_eq!(cells[0].translation, Some(translation));
        assert_eq!(cells[0].report.to_json(), expected.to_json());
        // The kernel layout is the only one the cells built.
        assert_eq!(h.layout_builds, 1);
    }

    #[test]
    fn claims_compare_and_layout_lint_build_each_layout_once() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        crate::figures::claims(&mut h);
        let compare = crate::figures::compare(&mut h);
        let lint = layout_lint(&mut h).expect("the quick matrix has no deny findings");
        let cells = lint_study(&mut h);

        // Every build entered one of the two layout maps, so no
        // (program, request) was built twice: nine requests each, the
        // full requests and the comparison series (`hotcold` among them)
        // measured, the rest of the lint matrix built for its cells.
        assert_eq!(h.app_layouts.len(), 9);
        assert_eq!(h.kernel_layouts.len(), 9);
        assert_eq!(h.layout_builds, 18);

        // `compare` reads the lint cells `layout_lint` reports.
        let entries = compare.get("measured").as_array().expect("compare rows");
        for series in [
            LayoutSeries::from(OptimizationSet::BASE),
            LayoutSeries::from(OptimizationSet::ALL),
            LayoutSeries::ExtTsp,
            LayoutSeries::Stitcher,
        ] {
            let label = series.label();
            let row = entries
                .iter()
                .find(|e| e.get("series").as_str() == Some(label))
                .unwrap_or_else(|| panic!("no `{label}` row"));
            let own: Vec<LintCell> = cells
                .iter()
                .filter(|c| c.layout == label)
                .cloned()
                .collect();
            assert_eq!(own.len(), 2, "{label}");
            assert_eq!(row.get("lints"), &summary_json(&own), "{label}");
        }

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_quick.json");
        let golden = std::fs::read_to_string(path).expect("lint golden");
        assert_eq!(
            lint,
            serde_json::from_str(&golden).expect("parse lint golden")
        );
    }
}
