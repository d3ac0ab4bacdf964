//! Property tests for the layout optimizers: every pipeline output is a
//! valid permutation, structural invariants hold, and optimized layouts
//! preserve semantics under real execution.

use codelayout_core::{
    cfa_layout, chain_proc, hot_cold_layout, pettis_hansen_order, split_order, LayoutParams,
    LayoutPipeline, OptimizationSet,
};
use codelayout_ir::link::link;
use codelayout_ir::testgen::{random_program, GenConfig};
use codelayout_ir::{verify_layout, BlockId, Layout, ProcId};
use codelayout_profile::{PixieCollector, Profile};
use codelayout_vm::{Machine, MachineConfig, NullSink, APP_TEXT_BASE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FUEL: u64 = 2_000_000;

/// Default parameters with a 4 KB conflict-free area.
fn small_cfa() -> LayoutParams {
    let mut params = LayoutParams::default();
    params.cfa.reserved_bytes = 4096;
    params
}

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

fn observe(program: &codelayout_ir::Program, layout: &Layout) -> (Vec<i64>, u64, u64) {
    let image = Arc::new(link(program, layout, APP_TEXT_BASE).expect("valid layout"));
    let mut m = Machine::new(image, MachineConfig::default());
    let report = m.run(&mut NullSink, FUEL);
    assert!(report.faults.is_empty(), "{:?}", report.faults);
    (
        m.emitted(0).to_vec(),
        m.private_checksum(0),
        m.shared_checksum(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_preset_is_valid_under_any_profile(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        let pipe = LayoutPipeline::new(&program, &profile);
        for (name, set) in OptimizationSet::paper_series() {
            let layout = pipe.build_series(set.into());
            verify_layout(&program, &layout)
                .unwrap_or_else(|e| panic!("seed {seed}/{pseed} {name}: {e}"));
        }
        verify_layout(&program, &hot_cold_layout(&program, &profile, &LayoutParams::default())).unwrap();
        let (cfa, _) = cfa_layout(&program, &profile, &small_cfa());
        verify_layout(&program, &cfa).unwrap();
    }

    #[test]
    fn optimized_layouts_preserve_semantics(seed in 0u64..10_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = real_profile(&program);
        let pipe = LayoutPipeline::new(&program, &profile);
        let baseline = observe(&program, &Layout::natural(&program));
        for (name, set) in OptimizationSet::paper_series() {
            let out = observe(&program, &pipe.build_series(set.into()));
            prop_assert_eq!(&baseline, &out, "layout {} diverged", name);
        }
        let out = observe(&program, &hot_cold_layout(&program, &profile, &LayoutParams::default()));
        prop_assert_eq!(&baseline, &out, "hot/cold diverged");
        let (cfa, _) = cfa_layout(&program, &profile, &small_cfa());
        let out = observe(&program, &cfa);
        prop_assert_eq!(&baseline, &out, "cfa diverged");
    }

    #[test]
    fn chain_is_permutation_with_entry_chain_first(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        for (pi, proc_) in program.procs.iter().enumerate() {
            let order = chain_proc(&program, &profile, ProcId(pi as u32), &LayoutParams::default().chain);
            let mut a: Vec<u32> = order.iter().map(|b| b.0).collect();
            let mut b: Vec<u32> = proc_.blocks.iter().map(|b| b.0).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "proc {} not a permutation", pi);
        }
    }

    #[test]
    fn split_concatenation_preserves_order(seed in 0u64..10_000, pseed in 0u64..1_000) {
        let program = random_program(seed, &GenConfig::default());
        let profile = random_profile(&program, pseed);
        for (pi, _) in program.procs.iter().enumerate() {
            let pid = ProcId(pi as u32);
            let order = chain_proc(&program, &profile, pid, &LayoutParams::default().chain);
            let segs = split_order(&program, &profile, pid, &order, &LayoutParams::default().split);
            let flat: Vec<BlockId> = segs.iter().flat_map(|s| s.blocks.clone()).collect();
            prop_assert_eq!(flat, order);
            // Exactly one segment contains the entry.
            prop_assert_eq!(segs.iter().filter(|s| s.is_entry).count(), 1);
        }
    }

    #[test]
    fn pettis_hansen_is_a_permutation(n in 1usize..40, eseed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(eseed);
        let edges: Vec<(u32, u32, u64)> = (0..rng.gen_range(0..80))
            .map(|_| {
                (
                    rng.gen_range(0..n as u32),
                    rng.gen_range(0..n as u32),
                    rng.gen_range(0..100),
                )
            })
            .collect();
        let order = pettis_hansen_order(n, edges.clone());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        // Deterministic.
        prop_assert_eq!(order, pettis_hansen_order(n, edges));
    }
}
