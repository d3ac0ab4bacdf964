//! Translation validation must accept every `paper_series` layout of
//! every bundled scenario's application *and* kernel program — the
//! acceptance gate for the whole layout pipeline.

use codelayout_bench::lint::lint_study;
use codelayout_bench::Harness;
use codelayout_oltp::Scenario;

#[test]
fn every_paper_layout_on_every_bundled_scenario_validates() {
    let scenarios = [
        ("quick", Scenario::quick()),
        ("sim", Scenario::paper_sim()),
        ("hw", Scenario::paper_hw()),
    ];
    for (name, sc) in scenarios {
        let mut h = Harness::with_label(&sc, name);
        for cell in lint_study(&mut h) {
            assert!(
                cell.translation.is_some(),
                "{name}: `{}` {} image failed translation validation",
                cell.layout,
                cell.target
            );
            assert!(
                !cell.report.has_deny(),
                "{name}: `{}` {} has deny-level findings:\n{}",
                cell.layout,
                cell.target,
                cell.report.render_text()
            );
        }
    }
}
