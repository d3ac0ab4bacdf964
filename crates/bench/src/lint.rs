//! The static layout-quality gate: the `layout_lint` figure and the
//! golden lint test.
//!
//! Both need the identical matrix — every
//! [`LayoutSeries::lint_matrix`] layout (the paper's six sets plus the
//! ext-TSP and Codestitcher passes) of the study's application *and*
//! kernel program, validated and linted — so the matrix runner, its
//! JSON and text renderings and the figure live here. A deny-level
//! finding fails the figure, so `run_all` exits nonzero on it.

use crate::Harness;
use codelayout_analysis::{analyze_layout, LintConfig, LintReport, Severity, TranslationReport};
use codelayout_core::{LayoutPipeline, LayoutSeries};
use codelayout_ir::link::link;
use codelayout_ir::Layout;
use codelayout_oltp::Study;
use codelayout_vm::{APP_TEXT_BASE, KERNEL_TEXT_BASE};
use serde_json::{json, Value};

/// Lint outcome for one (layout, program) cell of the matrix.
#[derive(Debug)]
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

/// Runs the full [`LayoutSeries::lint_matrix`] × {app, kernel} lint
/// matrix on a prepared study, every layout built from the measured
/// profile. Each series is linted under its own optimization claims
/// ([`LayoutSeries::lint_set`]).
pub fn lint_study(study: &Study) -> Vec<LintCell> {
    let mut cells = Vec::new();
    for series in LayoutSeries::lint_matrix() {
        cells.extend(lint_series_cells(study, series, &study.layout(series)));
    }
    cells
}

/// Runs validation + lints for one series' app and kernel layouts —
/// the two cells [`lint_study`] produces per series, reused by the
/// comparison table for its rows. The app cell analyses `app_layout`,
/// the layout the caller measured (the comparison table passes the
/// harness's [`LayoutData::layout`](crate::LayoutData::layout), so no
/// layout is built twice); the kernel cell lays the kernel out with the
/// measured kernel profile. Both are judged against the measured
/// profiles, so lints flag what the workload actually executes.
pub fn lint_series_cells(
    study: &Study,
    series: LayoutSeries,
    app_layout: &Layout,
) -> Vec<LintCell> {
    let kernel = &study.kernel.program;
    let kernel_layout = LayoutPipeline::new(kernel, &study.kernel_profile).build_series(series);
    let targets = [
        (
            "app",
            &study.app.program,
            &study.profile,
            app_layout,
            APP_TEXT_BASE,
        ),
        (
            "kernel",
            kernel,
            &study.kernel_profile,
            &kernel_layout,
            KERNEL_TEXT_BASE,
        ),
    ];
    let mut cells = Vec::new();
    for (target, program, profile, layout, base) in targets {
        let image = link(program, layout, base).expect("pipeline layouts link");
        let (translation, report) = analyze_layout(
            program,
            profile,
            layout,
            &image,
            &LintConfig::new(series.lint_set()),
        );
        cells.push(LintCell {
            layout: series.label(),
            target,
            translation,
            report,
        });
    }
    cells
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
    let cells = lint_study(&h.study);
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

    #[test]
    fn app_cell_analyses_the_requested_layout() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        let req: LayoutRequest = "static:all".parse().unwrap();
        let layout = h.run_request(req).layout.clone();
        assert_eq!(layout, h.study.layout(req));
        let study = &h.study;
        let image = link(&study.app.program, &layout, APP_TEXT_BASE).unwrap();
        let (_, expected) = analyze_layout(
            &study.app.program,
            &study.profile,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::ALL),
        );
        let cells = lint_series_cells(study, req.series, &layout);
        assert_eq!(cells[0].target, "app");
        assert_eq!(cells[0].report.to_json(), expected.to_json());
        let translation = validate_translation(&study.app.program, &layout, &image).unwrap();
        assert_eq!(cells[0].translation, Some(translation));

        // The measured layout differs, so the check above discriminates.
        let measured = lint_series_cells(study, req.series, &study.layout(req.series));
        assert_ne!(measured[0].translation, cells[0].translation);
    }
}
