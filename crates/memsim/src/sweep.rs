//! One-pass fan-out over a grid of cache configurations × CPUs.
//!
//! The paper's Figures 4–7 and 12 sweep cache size, line size and
//! associativity; re-executing the workload per configuration would be
//! wasteful, so a [`SweepSink`] instantiates one [`ICacheSim`] per
//! (configuration, CPU) and feeds them all from a single trace. It is
//! the direct per-configuration oracle that the single-pass
//! stack-distance engine ([`crate::StackDistanceSim`], run by
//! [`crate::GridSink`]) is proven against; runs simulate their grids on
//! the latter. Grids come from a [`SweepSpec`].

use crate::config::{CacheConfig, StreamFilter};
use crate::icache::{AccessClass, CacheStats, ICacheSim};
use crate::spec::SweepSpec;
use codelayout_vm::{FetchRecord, TraceSink};

/// Aggregated result of one configuration across CPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// The configuration measured.
    pub config: CacheConfig,
    /// Statistics summed over CPUs.
    pub stats: CacheStats,
}

/// A [`TraceSink`] fanning fetches out to many cache configurations, each
/// simulated per CPU (every simulated CPU has its own L1 I-cache, as on the
/// paper's 4-processor Alpha systems).
#[derive(Debug, Clone)]
pub struct SweepSink {
    filter: StreamFilter,
    num_cpus: usize,
    /// `sims[config][cpu]`
    sims: Vec<Vec<ICacheSim>>,
    configs: Vec<CacheConfig>,
}

impl SweepSink {
    /// Creates the sweep a [`SweepSpec`] describes: one simulator per
    /// (configuration, CPU) over the spec's filtered stream.
    pub fn from_spec(spec: &SweepSpec) -> Self {
        let configs = spec.configs();
        let num_cpus = spec.num_cpus();
        let sims = configs
            .iter()
            .map(|&c| (0..num_cpus).map(|_| ICacheSim::new(c)).collect())
            .collect();
        SweepSink {
            filter: spec.stream(),
            num_cpus,
            sims,
            configs,
        }
    }

    /// Results per configuration, summed over CPUs.
    pub fn results(&self) -> Vec<SweepCell> {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, &config)| {
                let mut stats = CacheStats::default();
                for sim in &self.sims[i] {
                    stats.merge(sim.stats());
                }
                SweepCell { config, stats }
            })
            .collect()
    }

    /// Total misses for one configuration, if present in the sweep.
    pub fn misses_for(&self, config: CacheConfig) -> Option<u64> {
        self.configs
            .iter()
            .position(|&c| c == config)
            .map(|i| self.sims[i].iter().map(|s| s.stats().misses).sum())
    }
}

impl TraceSink for SweepSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        if !self.filter.accepts(rec.kernel) {
            return;
        }
        let cpu = (rec.cpu as usize) % self.num_cpus;
        let class = AccessClass::from_kernel_flag(rec.kernel);
        for sims in &mut self.sims {
            sims[cpu].access(rec.addr, class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64, cpu: u8) -> FetchRecord {
        FetchRecord {
            addr,
            cpu,
            pid: cpu,
            kernel: false,
        }
    }

    #[test]
    fn paper_grid_has_25_cells() {
        let sink = SweepSink::from_spec(&SweepSpec::paper_grid(1));
        assert_eq!(sink.results().len(), 25);
        assert!(sink.results().iter().all(|c| c.config.ways == 1));
    }

    #[test]
    fn per_cpu_caches_are_independent() {
        let cfg = CacheConfig::new(128, 64, 1);
        let spec = SweepSpec::grid().sizes_bytes(&[128]).line_b(64).cpus(2);
        let mut s = SweepSink::from_spec(&spec);
        // Same address on both CPUs: each CPU cold-misses once.
        s.fetch(rec(0, 0));
        s.fetch(rec(0, 1));
        s.fetch(rec(0, 0));
        let r = s.results();
        assert_eq!(r[0].stats.misses, 2);
        assert_eq!(r[0].stats.accesses, 3);
        assert_eq!(s.misses_for(cfg), Some(2));
        assert_eq!(s.misses_for(CacheConfig::new(256, 64, 1)), None);
    }

    #[test]
    fn all_configs_see_every_record() {
        let spec = SweepSpec::grid()
            .sizes_bytes(&[128, 256])
            .line_b(64)
            .ways_each(&[1, 2]);
        let mut s = SweepSink::from_spec(&spec);
        for i in 0..10 {
            s.fetch(rec(i * 64, 0));
        }
        let r = s.results();
        assert_eq!(r.len(), 4);
        for cell in r {
            assert_eq!(cell.stats.accesses, 10);
        }
    }

    #[test]
    fn bigger_cache_fewer_or_equal_misses_on_loops() {
        // A loop over 8 lines: fits in 512B cache, thrashes a 128B one.
        let spec = SweepSpec::grid().sizes_bytes(&[128, 512]).line_b(64);
        let mut s = SweepSink::from_spec(&spec);
        for _ in 0..10 {
            for i in 0..8u64 {
                s.fetch(rec(i * 64, 0));
            }
        }
        let r = s.results();
        assert!(r[1].stats.misses <= r[0].stats.misses);
        assert_eq!(r[1].stats.misses, 8); // fits entirely
    }
}
