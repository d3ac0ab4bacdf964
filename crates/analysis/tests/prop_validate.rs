//! Differential property tests for translation validation.
//!
//! Random programs from `codelayout_ir::testgen` are laid out under every
//! `OptimizationSet::paper_series()` configuration and linked; translation
//! validation must accept every resulting image. On top of that, chaining
//! must not *regress* the weighted taken-edge count of the natural layout
//! on execution-derived profiles: the whole point of the pass is to turn
//! hot transfers into fall-throughs.
//!
//! The proptest shim is deterministically seeded, so these are fixed
//! (if broad) regression suites rather than true random sampling.

use codelayout_analysis::{analyze_layout, validate_translation, LintConfig};
use codelayout_core::{LayoutPipeline, LayoutSeries, OptimizationSet};
use codelayout_ir::link::link;
use codelayout_ir::testgen::{random_program, GenConfig};
use codelayout_ir::{Layout, Program, Terminator};
use codelayout_profile::{PixieCollector, Profile};
use codelayout_vm::{Machine, MachineConfig, NullSink, APP_TEXT_BASE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FUEL: u64 = 2_000_000;

/// Collects a real (flow-consistent) profile by executing the program.
fn real_profile(program: &Program) -> Profile {
    let image = Arc::new(link(program, &Layout::natural(program), APP_TEXT_BASE).unwrap());
    let mut m = Machine::new(image, MachineConfig::default());
    let mut pixie = PixieCollector::user(program.blocks.len());
    let report = m.run_hooked(&mut NullSink, &mut pixie, FUEL);
    assert!(report.faults.is_empty());
    pixie.into_profile()
}

/// A random (not necessarily flow-consistent) profile.
fn random_profile(program: &Program, seed: u64) -> Profile {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Profile::new(program.blocks.len());
    for c in &mut p.block_counts {
        *c = rng.gen_range(0..1000);
    }
    for (bi, b) in program.blocks.iter().enumerate() {
        for s in b.term.successors() {
            p.edge_counts
                .insert((bi as u32, s.0), rng.gen_range(0..500));
        }
    }
    p
}

/// Profile weight flowing over edges that the layout does *not* realize as
/// fall-throughs. Jump-table, return and halt successors always count:
/// those transfers are never sequential regardless of placement.
fn taken_edge_weight(program: &Program, profile: &Profile, layout: &Layout) -> u64 {
    let mut total = 0;
    for (i, &b) in layout.order.iter().enumerate() {
        let next = layout.order.get(i + 1).copied();
        let term = &program.block(b).term;
        let sequential_ok = matches!(term, Terminator::Jump(_) | Terminator::Branch { .. });
        let mut seen = Vec::new();
        for t in term.successors() {
            if seen.contains(&t) {
                continue;
            }
            seen.push(t);
            if !(sequential_ok && next == Some(t)) {
                total += profile.edge_count(b, t);
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every paper-series layout of a random program — built under an
    /// adversarial random profile — links to an image that translation
    /// validation proves equivalent to the source CFG.
    #[test]
    fn paper_series_layouts_validate(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        let pipe = LayoutPipeline::new(&program, &profile);
        for (name, set) in OptimizationSet::paper_series() {
            let layout = pipe.build_series(set.into());
            let image = link(&program, &layout, APP_TEXT_BASE)
                .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {name}: link failed: {e}"));
            let report = validate_translation(&program, &layout, &image)
                .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {name}: {e}"));
            prop_assert_eq!(report.blocks, program.blocks.len());
        }
    }

    /// Every layout series — the paper's six plus hot/cold, CFA, ext-TSP
    /// and Codestitcher — must pass translation validation AND the lint
    /// battery with zero deny findings, under adversarial random
    /// profiles. Each series is linted against its own claims
    /// (`LayoutSeries::lint_set`); warn/info findings are allowed, denies
    /// are not.
    #[test]
    fn all_series_validate_and_lint_clean(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        let pipe = LayoutPipeline::new(&program, &profile);
        for series in LayoutSeries::all() {
            let layout = pipe.build_series(series);
            let image = link(&program, &layout, APP_TEXT_BASE)
                .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {series}: link failed: {e}"));
            let (translation, report) = analyze_layout(
                &program,
                &profile,
                &layout,
                &image,
                &LintConfig::new(series.lint_set()),
            );
            // A validation failure is an `L000` deny in the report.
            prop_assert!(
                translation.is_some() && !report.has_deny(),
                "seed {}/{} {}: deny findings:\n{}",
                seed, pseed, series, report.render_text()
            );
        }
    }

    /// Under an execution-derived profile, the chained layout never takes
    /// *more* weighted edges than the natural layout.
    #[test]
    fn chaining_never_regresses_taken_weight(seed in 0u64..10_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = real_profile(&program);
        let natural = Layout::natural(&program);
        let chained = LayoutPipeline::new(&program, &profile).build_series(OptimizationSet::CHAIN.into());
        let w_nat = taken_edge_weight(&program, &profile, &natural);
        let w_chn = taken_edge_weight(&program, &profile, &chained);
        prop_assert!(
            w_chn <= w_nat,
            "seed {}: chained layout takes weight {} > natural {}",
            seed, w_chn, w_nat
        );
    }
}
