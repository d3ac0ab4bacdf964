//! Differential property test for the serial grid sink: on random fetch
//! streams — user and kernel records, CPU ids at and above the spec's
//! CPU count, several line sizes and associativities — a [`GridSink`]
//! fed record by record (and by runs) must finish, on both engines, with
//! exactly the cells of the serial oracle: a [`SweepSink`] fed the same
//! records, and one fed the recorded trace's replay.

use codelayout_memsim::{GridSink, StreamFilter, SweepEngine, SweepSink, SweepSpec};
use codelayout_vm::{FetchRecord, TraceBuffer, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bursty stream: sequential runs (delivered with `fetch_run`) broken
/// by random jumps, kernel excursions and CPU switches.
fn feed(seed: u64, len: usize, max_cpu: u8, sinks: &mut [&mut dyn TraceSink]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pc: u64 = 0;
    let mut fed = 0;
    while fed < len {
        let kernel = rng.gen_bool(0.2);
        pc = if rng.gen_bool(0.3) {
            rng.gen_range(0u64..1 << 16) & !3
        } else {
            pc + 4
        };
        let rec = FetchRecord {
            addr: if kernel {
                0x8000_0000 + pc
            } else {
                0x40_0000 + pc
            },
            cpu: rng.gen_range(0..=max_cpu),
            pid: rng.gen_range(0u8..4),
            kernel,
        };
        let n = rng.gen_range(1u64..24);
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grid_sink_equals_the_serial_sweep(
        seed in 0u64..100_000,
        cpus in 1usize..4,
        max_cpu in 0u8..8,
        filter_idx in 0usize..3,
        lines_idx in 0usize..3,
        ways_idx in 0usize..3,
    ) {
        let filter = [StreamFilter::UserOnly, StreamFilter::KernelOnly, StreamFilter::All]
            [filter_idx];
        let lines: &[u32] = [&[64][..], &[16, 128], &[32, 64, 256]][lines_idx];
        let ways: &[u32] = [&[1][..], &[2, 4], &[1, 2, 8]][ways_idx];
        let spec = SweepSpec::grid()
            .sizes_bytes(&[2048, 4096, 16384])
            .lines_b(lines)
            .ways_each(ways)
            .cpus(cpus)
            .filter(filter);
        let mut stack = GridSink::new(&spec, SweepEngine::Stack);
        let mut direct = GridSink::new(&spec, SweepEngine::Direct);
        let mut live = SweepSink::from_spec(&spec);
        let mut buf = TraceBuffer::fetch_only();
        feed(seed, 6_000, max_cpu, &mut [&mut stack, &mut direct, &mut live, &mut buf]);
        let mut replayed = SweepSink::from_spec(&spec);
        buf.freeze().replay(&mut replayed);
        let want = live.results();
        prop_assert_eq!(&replayed.results(), &want, "seed {}: replay vs live oracle", seed);
        prop_assert_eq!(&stack.finish(), &want, "seed {}: stack sink", seed);
        prop_assert_eq!(&direct.finish(), &want, "seed {}: direct sink", seed);
    }
}

#[test]
fn empty_sink_has_zeroed_cells_in_config_order() {
    let spec = SweepSpec::paper_grid(4).cpus(2);
    for engine in [SweepEngine::Stack, SweepEngine::Direct] {
        let cells = GridSink::new(&spec, engine).finish();
        assert_eq!(
            cells.iter().map(|c| c.config).collect::<Vec<_>>(),
            spec.configs()
        );
        assert!(cells.iter().all(|c| c.stats.accesses == 0));
    }
}
