//! Differential property test for the grid engine's levels: on random
//! fetch streams — user and kernel records, 1–4 CPUs, every stream
//! filter — a [`GridSink`] must finish with exactly the cells of the
//! direct [`SweepSink`] oracle over grids that mix what the engine's
//! level walk has to keep apart: direct-mapped and 8-way levels, several
//! associativities at one set count (so a walk can stop inside a run of
//! same-set-count levels), and duplicate configurations (which share one
//! level and its statistics).

use codelayout_memsim::{GridSink, StreamFilter, SweepSink, SweepSpec};
use codelayout_vm::{FetchRecord, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cache sizes the grids draw from, in bytes; the smallest holds 8 ways
/// of the largest line.
const SIZES_B: [u64; 5] = [512, 1024, 2048, 4096, 8192];

/// A grid of one or two line sizes over sizes `s`, `2s`, `4s` plus one
/// repeated size, and ways 1, 2 and 8 plus one repeated associativity:
/// `(2s, 2)` shares `(s, 1)`'s set count, `(4s, 8)` sits beside direct-
/// mapped levels, and the repeats make duplicate configurations.
fn mixed_grid(seed: u64) -> SweepSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rng.gen_range(0..3);
    let mut sizes = SIZES_B[base..base + 3].to_vec();
    sizes.push(sizes[rng.gen_range(0..3)]);
    let mut ways = vec![1, 2, 8];
    ways.push(ways[rng.gen_range(0..3)]);
    let lines: &[u32] = [&[16][..], &[64], &[32, 64]][rng.gen_range(0..3)];
    SweepSpec::grid()
        .sizes_bytes(&sizes)
        .lines_b(lines)
        .ways_each(&ways)
}

/// A bursty stream over a 32 KB footprint per address range:
/// sequential runs (some delivered with `fetch_run`) broken by random
/// jumps, kernel excursions and CPU switches, so every level sees hits
/// at the front of its set, hits further back, cold fills and evictions
/// of lines either class filled.
fn feed(seed: u64, len: usize, max_cpu: u8, sinks: &mut [&mut dyn TraceSink]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pc: u64 = 0;
    let mut fed = 0;
    while fed < len {
        let kernel = rng.gen_bool(0.3);
        pc = if rng.gen_bool(0.35) {
            rng.gen_range(0u64..1 << 15) & !3
        } else {
            pc + 4
        };
        // Half the kernel excursions fetch user addresses, so lines
        // change hands and the displaced matrix sees every owner.
        let rec = FetchRecord {
            addr: if kernel && rng.gen_bool(0.5) {
                0x8000_0000 + pc
            } else {
                0x40_0000 + pc
            },
            cpu: rng.gen_range(0..=max_cpu),
            pid: 0,
            kernel,
        };
        let n = rng.gen_range(1u64..12);
        for sink in sinks.iter_mut() {
            if n == 1 {
                sink.fetch(rec);
            } else {
                sink.fetch_run(rec, n);
            }
        }
        pc += 4 * (n - 1);
        fed += n as usize;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn grid_sink_equals_the_oracle_on_mixed_level_grids(
        seed in 0u64..100_000,
        grid_seed in 0u64..100_000,
        cpus in 1usize..5,
        filter_idx in 0usize..3,
    ) {
        let filter = [StreamFilter::UserOnly, StreamFilter::KernelOnly, StreamFilter::All]
            [filter_idx];
        let spec = mixed_grid(grid_seed).cpus(cpus).filter(filter);
        let mut grid = GridSink::new(&spec);
        let mut oracle = SweepSink::from_spec(&spec);
        feed(seed, 8_000, 5, &mut [&mut grid, &mut oracle]);
        let want = oracle.results();
        prop_assert!(want.iter().any(|c| c.stats.misses > 0), "seed {}: no misses", seed);
        prop_assert_eq!(&grid.finish(), &want, "seed {} grid {}", seed, grid_seed);
    }
}
