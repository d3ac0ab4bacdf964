//! Property tests for the ext-TSP and Codestitcher passes, and for the
//! layout memo every series builds through.
//!
//! The scorer is encoded once ([`codelayout_core::exttsp_score`]) and
//! shared between the ext-TSP pass and this suite, so the score
//! comparison below tests the pass against the very objective it
//! optimizes — not a reimplementation that could drift.

use codelayout_core::{
    exttsp_proc_order, exttsp_score, LayoutMemo, LayoutParams, LayoutPipeline, LayoutSeries,
    OptimizationSet, ParamKnob, ParamSpace,
};
use codelayout_ir::link::link;
use codelayout_ir::testgen::{random_program, GenConfig};
use codelayout_ir::{verify_layout, verify_layout_placement, Layout, ProcId};
use codelayout_profile::{PixieCollector, Profile};
use codelayout_vm::{Machine, MachineConfig, NullSink, APP_TEXT_BASE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FUEL: u64 = 2_000_000;

/// Collects a real profile by executing the program.
fn real_profile(program: &codelayout_ir::Program) -> Profile {
    let image = Arc::new(link(program, &Layout::natural(program), APP_TEXT_BASE).unwrap());
    let mut m = Machine::new(image, MachineConfig::default());
    let mut pixie = PixieCollector::user(program.blocks.len());
    let report = m.run_hooked(&mut NullSink, &mut pixie, FUEL);
    assert!(report.faults.is_empty());
    pixie.into_profile()
}

/// A random (not necessarily flow-consistent) profile.
fn random_profile(program: &codelayout_ir::Program, seed: u64) -> Profile {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every series — the paper's six plus hot/cold, CFA, ext-TSP and
    /// Codestitcher — yields a valid permutation (each block exactly
    /// once) under arbitrary random profiles, and each pass honors its
    /// declared placement convention.
    #[test]
    fn every_series_is_a_valid_permutation(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        let pipe = LayoutPipeline::new(&program, &profile);
        for series in LayoutSeries::all() {
            let layout = pipe.build_series(series);
            verify_layout(&program, &layout)
                .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {series}: {e}"));
            if let Some(split) = series.placement_split() {
                verify_layout_placement(&program, &layout, split)
                    .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {series}: {e}"));
            }
            // Deterministic: a rebuild is byte-identical.
            prop_assert_eq!(&layout, &pipe.build_series(series), "{} not deterministic", series);
        }
    }

    /// The per-procedure ext-TSP order is a permutation of the procedure's
    /// blocks with the entry block first — the pass's hard invariant, kept
    /// even when a non-entry-first arrangement would score higher.
    #[test]
    fn exttsp_proc_orders_are_entry_first_permutations(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        for (pi, proc_) in program.procs.iter().enumerate() {
            let order = exttsp_proc_order(&program, &profile, ProcId(pi as u32), &LayoutParams::default());
            prop_assert_eq!(order[0], proc_.entry, "proc {} entry not first", pi);
            let mut a: Vec<u32> = order.iter().map(|b| b.0).collect();
            let mut b: Vec<u32> = proc_.blocks.iter().map(|b| b.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "proc {} not a permutation", pi);
        }
    }

    /// On execution-derived profiles the ext-TSP pass's own objective
    /// score is at least the Pettis–Hansen series' score: chain merging
    /// with score-driven merge points never loses to greedy fall-through
    /// chaining under the objective both are judged by.
    #[test]
    fn exttsp_score_at_least_pettis_hansen(seed in 0u64..10_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = real_profile(&program);
        let pipe = LayoutPipeline::new(&program, &profile);
        let exttsp = pipe.build_series(LayoutSeries::ExtTsp);
        let ph = pipe.build_series(OptimizationSet::CHAIN_PORDER.into());
        let s_exttsp = exttsp_score(&program, &profile, &exttsp);
        let s_ph = exttsp_score(&program, &profile, &ph);
        prop_assert!(
            s_exttsp >= s_ph,
            "seed {}: exttsp score {} < chain+porder score {}",
            seed, s_exttsp, s_ph
        );
    }

    /// One layout memo reused across a random sequence of parameter
    /// points of the full space builds, for every series at each point,
    /// the layout a fresh build gives. Like the tuner's descent, most
    /// points move one knob of the previous point, so later builds repeat
    /// chain orders and merges; the others redraw every knob. The series
    /// take turns through the one memo in a fresh random order at each
    /// point. Half the `exttsp.split_cap` draws are `n - 2 ..= n + 1` for
    /// the block count `n` of the largest or of a random procedure, where
    /// the memo's clamp of the cap to `n` decides; every other knob draws
    /// from its grid.
    #[test]
    fn layout_memo_builds_equal_fresh_builds(
        seed in 0u64..10_000,
        pseed in 0u64..1_000,
        dseed in 0u64..1_000,
    ) {
        let cfg = GenConfig { max_blocks: 48, ..GenConfig::default() };
        let program = random_program(seed, &cfg);
        let profile = random_profile(&program, pseed);
        let sizes: Vec<u64> = program.procs.iter().map(|p| p.blocks.len() as u64).collect();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        let space = ParamSpace::full();
        let mut rng = StdRng::seed_from_u64(dseed);
        let draw = |knob: &ParamKnob, rng: &mut StdRng| {
            if knob.name() == "exttsp.split_cap" && rng.gen_bool(0.5) {
                let n = if rng.gen_bool(0.5) { largest } else { sizes[rng.gen_range(0..sizes.len())] };
                (n + rng.gen_range(0..=3)).saturating_sub(2)
            } else {
                knob.values()[rng.gen_range(0..knob.values().len())]
            }
        };
        let mut memo = LayoutMemo::new(&program, &profile);
        let mut params = LayoutParams::default();
        let mut series = LayoutSeries::all();
        for step in 0..rng.gen_range(1..=12) {
            if step == 0 || rng.gen_bool(0.3) {
                for knob in space.knobs() {
                    let value = draw(knob, &mut rng);
                    knob.set(&mut params, value);
                }
            } else {
                let knob = &space.knobs()[rng.gen_range(0..space.len())];
                let value = draw(knob, &mut rng);
                knob.set(&mut params, value);
            }
            for i in (1..series.len()).rev() {
                series.swap(i, rng.gen_range(0..=i));
            }
            let pipeline = LayoutPipeline::with_params(&program, &profile, params);
            for &s in &series {
                let fresh = pipeline.build_series(s);
                prop_assert_eq!(
                    pipeline.build_series_with(s, &mut memo),
                    fresh,
                    "step {} `{}` at {:?}", step, s, params
                );
            }
        }
    }

    /// The two new passes preserve semantics under real execution, like
    /// the paper series (`prop_optimizers.rs`).
    #[test]
    fn new_passes_preserve_semantics(seed in 0u64..5_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = real_profile(&program);
        let pipe = LayoutPipeline::new(&program, &profile);
        let observe = |layout: &Layout| {
            let image = Arc::new(link(&program, layout, APP_TEXT_BASE).expect("valid layout"));
            let mut m = Machine::new(image, MachineConfig::default());
            let report = m.run(&mut NullSink, FUEL);
            assert!(report.faults.is_empty(), "{:?}", report.faults);
            (m.emitted(0).to_vec(), m.private_checksum(0), m.shared_checksum())
        };
        let baseline = observe(&Layout::natural(&program));
        for series in [LayoutSeries::ExtTsp, LayoutSeries::Stitcher] {
            let out = observe(&pipe.build_series(series));
            prop_assert_eq!(&baseline, &out, "layout {} diverged", series);
        }
    }
}
