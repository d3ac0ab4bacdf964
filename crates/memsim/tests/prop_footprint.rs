//! Property test for the footprint counter: random user/kernel fetch
//! streams give the same counts as a plain `HashSet` reference.

use codelayout_memsim::{FootprintCounter, StreamFilter};
use codelayout_vm::{FetchRecord, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Mostly sequential fetches with random jumps, some far apart (so keys
/// spread over many bitmap chunks), in user and kernel text.
fn random_stream(seed: u64, len: usize) -> Vec<FetchRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pc: u64 = 0x40_0000;
    (0..len)
        .map(|_| {
            let kernel = rng.gen_bool(0.3);
            if rng.gen_bool(0.02) {
                pc = rng.gen_range(0u64..1 << 40);
            } else if rng.gen_bool(0.15) {
                pc = rng.gen_range(0u64..1 << 20);
            } else {
                pc += 4;
            }
            let addr = if kernel { 0x8000_0000 + pc } else { pc };
            FetchRecord {
                addr,
                cpu: 0,
                pid: 0,
                kernel,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counts_match_a_hash_set_reference(
        seed in 0u64..100_000,
        line_log2 in 0u32..9,
        filter_sel in 0u8..3,
    ) {
        let filter = [StreamFilter::UserOnly, StreamFilter::KernelOnly, StreamFilter::All]
            [filter_sel as usize];
        let line_bytes = 1u32 << line_log2;
        let stream = random_stream(seed, 5_000);
        let mut counter = FootprintCounter::new(line_bytes, filter);
        let (mut lines, mut words) = (HashSet::new(), HashSet::new());
        for &r in &stream {
            counter.fetch(r);
            if filter.accepts(r.kernel) {
                lines.insert(r.addr >> line_log2);
                words.insert(r.addr >> 2);
            }
        }
        prop_assert_eq!(counter.unique_lines(), lines.len());
        prop_assert_eq!(counter.unique_instructions(), words.len());
        prop_assert_eq!(counter.line_footprint_bytes(), (lines.len() as u64) << line_log2);
        prop_assert_eq!(counter.instr_footprint_bytes(), words.len() as u64 * 4);
    }
}
