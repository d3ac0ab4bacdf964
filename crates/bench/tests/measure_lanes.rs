//! Measurement lanes in the phase tree: at two lanes, Figure 4's
//! requests on the fixed-seed `quick` scenario are claimed by the
//! calling thread and one scoped helper lane as each frees up. Which of
//! the two measures which request follows timing, so this test pins
//! only what does not: the helper lane is a `measure_lane` root, the
//! calling thread's wait for it is a `lane_wait` span, and the two
//! lanes' `measure/layout` spans between them hold exactly the layout
//! passes that `golden_manifest` pins for the one-lane run
//! (`golden_run/measure/layout` in `tests/golden/manifest_quick.json`).
//!
//! This file holds exactly one test: it reads the *global* tracer, so it
//! must not share a process with tests that record their own spans.

use codelayout_bench::{figures, Harness};
use codelayout_obs::PhaseNode;
use codelayout_oltp::Scenario;
use serde_json::Value;
use std::collections::BTreeSet;

/// The node at `path` (one name per level) in `forest`, if any.
fn node<'a>(forest: &'a [PhaseNode], path: &[&str]) -> Option<&'a PhaseNode> {
    let (first, rest) = path.split_first()?;
    let n = forest.iter().find(|n| n.name == *first)?;
    if rest.is_empty() {
        Some(n)
    } else {
        node(&n.children, rest)
    }
}

/// The names of the children of the node at `path`, empty if none.
fn child_names(forest: &[PhaseNode], path: &[&str]) -> BTreeSet<String> {
    node(forest, path)
        .into_iter()
        .flat_map(|n| n.children.iter().map(|c| c.name.clone()))
        .collect()
}

/// The pass names under `golden_run/measure/layout` in the one-lane
/// manifest snapshot.
fn one_lane_passes() -> BTreeSet<String> {
    let path = format!(
        "{}/tests/golden/manifest_quick.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let raw = std::fs::read_to_string(&path).expect("read the manifest snapshot");
    let manifest: Value = serde_json::from_str(&raw).expect("the snapshot parses");
    let mut level = manifest.get("phases").as_array().expect("phases");
    for name in ["golden_run", "measure", "layout"] {
        level = level
            .iter()
            .find(|n| n.get("name").as_str() == Some(name))
            .and_then(|n| n.get("children").as_array())
            .unwrap_or_else(|| panic!("the snapshot has no `{name}` on golden_run/measure/layout"));
    }
    level
        .iter()
        .map(|c| c.get("name").as_str().expect("a phase name").to_string())
        .collect()
}

#[test]
fn two_lanes_measure_the_passes_one_lane_does() {
    // Before anything reads the environment.
    std::env::set_var(codelayout_obs::env::THREADS_ENV, "2");

    let root = codelayout_obs::span("golden_run");
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    figures::fig04(&mut h);
    root.finish();

    let tree = codelayout_obs::tracer().phase_tree();
    assert!(
        node(&tree, &["measure_lane"]).is_some(),
        "no `measure_lane` root at two lanes"
    );
    assert!(
        node(&tree, &["golden_run", "lane_wait"]).is_some(),
        "no `lane_wait` span under the calling thread at two lanes"
    );
    let mut passes = child_names(&tree, &["golden_run", "measure", "layout"]);
    passes.extend(child_names(&tree, &["measure_lane", "measure", "layout"]));
    assert_eq!(
        passes,
        one_lane_passes(),
        "the two lanes' measure/layout spans differ from the one-lane run's"
    );
}
