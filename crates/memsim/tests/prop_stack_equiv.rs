//! Differential property tests for the stack-distance sweep engine:
//! on arbitrary random traces, the single-pass Mattson profiler must
//! produce **bit-identical** `CacheStats` — misses, per-class misses
//! and the Figure 13 displaced-line matrix — to the direct per-config
//! `ICacheSim` sweep, across the paper's Figure 4 grid (25 geometries,
//! direct-mapped and 2-way) and Figure 6 grid (sizes at 128 B / 4-way),
//! for 1, 2 and 7 lanes, and every stream filter.

use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSpec, LINES_B, SIZES_KB};
use codelayout_vm::{FetchRecord, FrozenTrace, TraceBuffer, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bursty mixed user/kernel stream: mostly sequential fetch with
/// random jumps, the shape the layout pipeline produces.
fn random_trace(seed: u64, len: usize, cpus: u8) -> FrozenTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = TraceBuffer::fetch_only();
    let mut pc: u64 = 0x40_0000;
    for _ in 0..len {
        let kernel = rng.gen_bool(0.25);
        if rng.gen_bool(0.15) {
            pc = rng.gen_range(0u64..1 << 18) & !3;
        } else {
            pc += 4;
        }
        let addr = if kernel { 0x8000_0000 + pc } else { pc };
        buf.fetch(FetchRecord {
            addr,
            cpu: rng.gen_range(0u64..cpus.max(1) as u64) as u8,
            pid: rng.gen_range(0u64..8) as u8,
            kernel,
        });
    }
    buf.freeze()
}

/// The grids under test: the Figure 4 grid at two associativities and
/// the Figure 6/7/12 size sweep at 128 B / 4-way.
fn grids_under_test(cpus: usize, filter: StreamFilter) -> Vec<SweepSpec> {
    vec![
        SweepSpec::paper_grid(1).cpus(cpus).filter(filter),
        SweepSpec::paper_grid(2).cpus(cpus).filter(filter),
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .line_b(128)
            .ways(4)
            .cpus(cpus)
            .filter(filter),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stack_engine_is_bit_identical_to_direct(
        seed in 0u64..10_000,
        cpus in 1usize..4,
        filter_idx in 0usize..3,
    ) {
        let filter = [StreamFilter::UserOnly, StreamFilter::KernelOnly, StreamFilter::All]
            [filter_idx];
        let trace = random_trace(seed, 8_000, cpus as u8);
        let jobs = grids_under_test(cpus, filter);
        let oracle = ParallelSweep::new(1)
            .with_engine(SweepEngine::Direct)
            .run(&trace, &jobs);
        for threads in [1usize, 2, 7] {
            let stack = ParallelSweep::new(threads)
                .with_engine(SweepEngine::Stack)
                .run(&trace, &jobs);
            prop_assert_eq!(
                &stack,
                &oracle,
                "stack engine diverged: seed {}, {} cpus, {:?}, {} threads",
                seed,
                cpus,
                filter,
                threads
            );
        }
    }

    #[test]
    fn mattson_inclusion_misses_monotone_in_size(
        seed in 0u64..10_000,
        ways_idx in 0usize..3,
        line_idx in 0usize..5,
    ) {
        // The inclusion property itself, end to end: at fixed ways and
        // line size, growing the cache never adds misses.
        let ways = [1u32, 2, 4][ways_idx];
        let line = LINES_B[line_idx];
        let trace = random_trace(seed, 8_000, 2);
        let spec = SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .line_b(line)
            .ways(ways)
            .cpus(2);
        let cells = ParallelSweep::new(2).run_one(&trace, &spec);
        for pair in cells.windows(2) {
            prop_assert!(
                pair[1].stats.misses <= pair[0].stats.misses,
                "misses grew with size at {}B/{}-way: {} -> {}",
                line,
                ways,
                pair[0].stats.misses,
                pair[1].stats.misses
            );
        }
    }
}
