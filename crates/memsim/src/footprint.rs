//! Footprint measurement: unique cache lines / instructions touched.
//!
//! Backs the paper's packing claim (§4.1): the optimized binary touches a
//! 37% smaller footprint in 128-byte cache lines (315 KB vs 500 KB).

use crate::config::StreamFilter;
use codelayout_vm::{FetchRecord, TraceSink};
use std::collections::HashMap;

/// Keys per bitmap chunk (log2): a chunk of instruction words covers
/// 16 KB of text.
const CHUNK_BITS_LOG2: u32 = 12;
const CHUNK_WORDS: usize = 1 << (CHUNK_BITS_LOG2 - 6);

/// A set of `u64` keys stored as fixed-size bitmap chunks, with the
/// chunk of the previous insert cached. Instruction streams are dense
/// and mostly sequential, so nearly every insert lands in the cached
/// chunk and costs one bit test-and-set instead of a hash insert.
#[derive(Debug, Clone)]
struct ChunkedBitSet {
    /// Chunk key (`key >> CHUNK_BITS_LOG2`) → index into `chunks`.
    index: HashMap<u64, usize>,
    chunks: Vec<[u64; CHUNK_WORDS]>,
    len: usize,
    /// Chunk key and index of the previous insert; `u64::MAX` (no key
    /// shifts to it) initially.
    last_key: u64,
    last_idx: usize,
}

impl ChunkedBitSet {
    fn new() -> Self {
        ChunkedBitSet {
            index: HashMap::new(),
            chunks: Vec::new(),
            len: 0,
            last_key: u64::MAX,
            last_idx: 0,
        }
    }

    #[inline]
    fn insert(&mut self, key: u64) {
        let chunk_key = key >> CHUNK_BITS_LOG2;
        if chunk_key != self.last_key {
            let chunks = &mut self.chunks;
            self.last_idx = *self.index.entry(chunk_key).or_insert_with(|| {
                chunks.push([0; CHUNK_WORDS]);
                chunks.len() - 1
            });
            self.last_key = chunk_key;
        }
        let bit = (key & ((1 << CHUNK_BITS_LOG2) - 1)) as usize;
        let word = &mut self.chunks[self.last_idx][bit >> 6];
        let mask = 1u64 << (bit & 63);
        self.len += usize::from(*word & mask == 0);
        *word |= mask;
    }
}

/// Counts unique cache lines and unique instruction words touched by the
/// (filtered) instruction stream.
#[derive(Debug, Clone)]
pub struct FootprintCounter {
    filter: StreamFilter,
    line_shift: u32,
    lines: ChunkedBitSet,
    words: ChunkedBitSet,
    /// Line of the previous accepted fetch.
    last_line: Option<u64>,
}

impl FootprintCounter {
    /// Creates a counter for a given line size (bytes, power of two).
    ///
    /// # Panics
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u32, filter: StreamFilter) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        FootprintCounter {
            filter,
            line_shift: line_bytes.trailing_zeros(),
            lines: ChunkedBitSet::new(),
            words: ChunkedBitSet::new(),
            last_line: None,
        }
    }

    /// Unique cache lines touched.
    pub fn unique_lines(&self) -> usize {
        self.lines.len
    }

    /// Footprint in bytes at line granularity.
    pub fn line_footprint_bytes(&self) -> u64 {
        (self.lines.len as u64) << self.line_shift
    }

    /// Unique instructions executed (static live code).
    pub fn unique_instructions(&self) -> usize {
        self.words.len
    }

    /// Footprint in bytes at instruction granularity.
    pub fn instr_footprint_bytes(&self) -> u64 {
        self.words.len as u64 * 4
    }
}

impl TraceSink for FootprintCounter {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        if self.filter.accepts(rec.kernel) {
            let line = rec.addr >> self.line_shift;
            // Sequential fetches mostly repeat the previous line.
            if self.last_line != Some(line) {
                self.lines.insert(line);
                self.last_line = Some(line);
            }
            self.words.insert(rec.addr >> 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64, kernel: bool) -> FetchRecord {
        FetchRecord {
            addr,
            cpu: 0,
            pid: 0,
            kernel,
        }
    }

    #[test]
    fn counts_unique_lines_and_words() {
        let mut f = FootprintCounter::new(128, StreamFilter::All);
        f.fetch(rec(0, false));
        f.fetch(rec(4, false));
        f.fetch(rec(4, false)); // repeat
        f.fetch(rec(128, false));
        assert_eq!(f.unique_lines(), 2);
        assert_eq!(f.unique_instructions(), 3);
        assert_eq!(f.line_footprint_bytes(), 256);
        assert_eq!(f.instr_footprint_bytes(), 12);
    }

    #[test]
    fn filter_excludes_kernel() {
        let mut f = FootprintCounter::new(64, StreamFilter::UserOnly);
        f.fetch(rec(0, true));
        assert_eq!(f.unique_lines(), 0);
        f.fetch(rec(0, false));
        assert_eq!(f.unique_lines(), 1);
    }

    #[test]
    fn chunk_boundaries_and_revisits_count_once() {
        // Keys on both sides of a chunk boundary, a far chunk, and a
        // return to the first chunk after the cache moved on.
        let mut s = ChunkedBitSet::new();
        let edge = 1u64 << CHUNK_BITS_LOG2;
        for key in [edge - 1, edge, 0, 1 << 40, edge - 1, 0, edge, 1 << 40] {
            s.insert(key);
        }
        assert_eq!(s.len, 4);
        assert_eq!(s.chunks.len(), 3);
    }
}
