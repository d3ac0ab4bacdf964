//! [`SweepSpec`]: the one way to name a cache-grid sweep.
//!
//! Every sweep in the workspace — the direct [`SweepSink`] and the
//! stack-distance [`GridSink`] — is described
//! by the same value: a grid of cache geometries (sizes × line sizes ×
//! associativities), a simulated CPU count and a stream filter. Before
//! this type existed each call site assembled its own `Vec<CacheConfig>`
//! and passed it positionally; the grid axes the paper sweeps
//! (Figures 4–7) were duplicated across the bench crate, the figure
//! binaries and the tests. [`SweepSpec`] replaces all of that:
//!
//! ```
//! use codelayout_memsim::{StreamFilter, SweepSpec, LINES_B, SIZES_KB};
//!
//! let spec = SweepSpec::grid()
//!     .sizes_kb(&SIZES_KB)
//!     .lines_b(&LINES_B)
//!     .ways(1)
//!     .cpus(4)
//!     .filter(StreamFilter::UserOnly);
//! assert_eq!(spec.configs().len(), 25);
//! ```
//!
//! Configurations enumerate in **size-major, line-size-middle,
//! ways-minor** order; golden figure JSONs depend on that order, so it
//! is part of the API contract.
//!
//! [`SweepSink`]: crate::SweepSink
//! [`GridSink`]: crate::GridSink

use crate::config::{CacheConfig, StreamFilter};

/// Cache sizes (KB) of the paper's sweeps (Figures 4–7).
pub const SIZES_KB: [u64; 5] = [32, 64, 128, 256, 512];
/// Line sizes (bytes) of the paper's Figure 4 grid.
pub const LINES_B: [u32; 5] = [16, 32, 64, 128, 256];

/// A declarative sweep description: the cross product of cache sizes ×
/// line sizes × associativities, simulated for `cpus` CPUs over one
/// filtered stream. Built fluently from [`SweepSpec::grid`]; consumed
/// by [`SweepSink::from_spec`] and [`GridSink::new`].
///
/// [`SweepSink::from_spec`]: crate::SweepSink::from_spec
/// [`GridSink::new`]: crate::GridSink::new
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    sizes_b: Vec<u64>,
    lines_b: Vec<u32>,
    ways: Vec<u32>,
    num_cpus: usize,
    filter: StreamFilter,
}

impl SweepSpec {
    /// Starts an empty grid: no sizes or line sizes yet, direct mapped,
    /// one CPU, combined stream.
    pub fn grid() -> Self {
        SweepSpec {
            sizes_b: Vec::new(),
            lines_b: Vec::new(),
            ways: vec![1],
            num_cpus: 1,
            filter: StreamFilter::All,
        }
    }

    /// The paper's Figure 4 grid ([`SIZES_KB`] × [`LINES_B`]) at one
    /// associativity — the 25-cell sweep behind Figures 4, 5 and the
    /// equivalence tests.
    pub fn paper_grid(ways: u32) -> Self {
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .lines_b(&LINES_B)
            .ways(ways)
    }

    /// Replaces the size axis (values in KB).
    pub fn sizes_kb(mut self, kb: &[u64]) -> Self {
        self.sizes_b = kb.iter().map(|&k| k * 1024).collect();
        self
    }

    /// Replaces the size axis with one size in KB.
    pub fn size_kb(self, kb: u64) -> Self {
        self.sizes_kb(&[kb])
    }

    /// Replaces the size axis (values in bytes; for sub-KB test caches).
    pub fn sizes_bytes(mut self, bytes: &[u64]) -> Self {
        self.sizes_b = bytes.to_vec();
        self
    }

    /// Replaces the line-size axis (values in bytes).
    pub fn lines_b(mut self, lines: &[u32]) -> Self {
        self.lines_b = lines.to_vec();
        self
    }

    /// Replaces the line-size axis with one line size in bytes.
    pub fn line_b(self, line: u32) -> Self {
        self.lines_b(&[line])
    }

    /// Sets one associativity for the whole grid.
    pub fn ways(mut self, ways: u32) -> Self {
        self.ways = vec![ways];
        self
    }

    /// Replaces the associativity axis with several values.
    pub fn ways_each(mut self, ways: &[u32]) -> Self {
        self.ways = ways.to_vec();
        self
    }

    /// Sets the simulated CPU count (each CPU gets private caches).
    ///
    /// # Panics
    /// Panics if `cpus` is zero.
    pub fn cpus(mut self, cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        self.num_cpus = cpus;
        self
    }

    /// Sets which part of the instruction stream the sweep observes.
    pub fn filter(mut self, filter: StreamFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The simulated CPU count.
    #[inline]
    pub fn num_cpus(&self) -> usize {
        self.num_cpus
    }

    /// The stream filter.
    #[inline]
    pub fn stream(&self) -> StreamFilter {
        self.filter
    }

    /// Materializes the grid in size-major → line-size → ways order
    /// (the order every figure JSON and golden file depends on). Each
    /// geometry is validated by [`CacheConfig::new`].
    ///
    /// # Panics
    /// Panics if any axis is still empty, or if a cell's geometry is
    /// invalid.
    pub fn configs(&self) -> Vec<CacheConfig> {
        assert!(!self.sizes_b.is_empty(), "SweepSpec: no cache sizes set");
        assert!(!self.lines_b.is_empty(), "SweepSpec: no line sizes set");
        assert!(!self.ways.is_empty(), "SweepSpec: no associativity set");
        let mut v = Vec::with_capacity(self.sizes_b.len() * self.lines_b.len() * self.ways.len());
        for &s in &self.sizes_b {
            for &l in &self.lines_b {
                for &w in &self.ways {
                    v.push(CacheConfig::new(s, l, w));
                }
            }
        }
        v
    }

    /// Number of (configuration, CPU) pairs a direct-simulation engine
    /// instantiates for this spec.
    pub fn shard_count(&self) -> usize {
        self.sizes_b.len() * self.lines_b.len() * self.ways.len() * self.num_cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_shape_and_order() {
        let g = SweepSpec::paper_grid(1).configs();
        assert_eq!(g.len(), 25);
        assert!(g.iter().all(|c| c.ways == 1));
        // Size-major, line-minor: first five cells are 32KB at each line.
        assert_eq!(g[0], CacheConfig::new(32 * 1024, 16, 1));
        assert_eq!(g[4], CacheConfig::new(32 * 1024, 256, 1));
        assert_eq!(g[5], CacheConfig::new(64 * 1024, 16, 1));
        assert_eq!(g[24], CacheConfig::new(512 * 1024, 256, 1));
    }

    #[test]
    fn ways_axis_is_innermost() {
        let g = SweepSpec::grid()
            .sizes_kb(&[32, 64])
            .line_b(64)
            .ways_each(&[1, 2])
            .configs();
        assert_eq!(g.len(), 4);
        assert_eq!((g[0].size_bytes, g[0].ways), (32 * 1024, 1));
        assert_eq!((g[1].size_bytes, g[1].ways), (32 * 1024, 2));
        assert_eq!((g[2].size_bytes, g[2].ways), (64 * 1024, 1));
    }

    #[test]
    fn defaults_and_accessors() {
        let spec = SweepSpec::grid()
            .sizes_bytes(&[256])
            .line_b(64)
            .cpus(3)
            .filter(StreamFilter::KernelOnly);
        assert_eq!(spec.num_cpus(), 3);
        assert_eq!(spec.stream(), StreamFilter::KernelOnly);
        assert_eq!(spec.configs(), vec![CacheConfig::new(256, 64, 1)]);
        assert_eq!(spec.shard_count(), 3);
    }

    #[test]
    #[should_panic(expected = "no cache sizes")]
    fn empty_axis_rejected() {
        let _ = SweepSpec::grid().line_b(64).configs();
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = SweepSpec::grid().cpus(0);
    }
}
