//! Single-pass stack-distance profiling (Mattson et al., 1970).
//!
//! The direct sweep engine pays one [`ICacheSim`] access per
//! (configuration, CPU) per fetched instruction — O(configs × trace).
//! [`StackDistanceSim`] serves every configuration of one line size
//! from one pass instead, and shares the work the configurations have
//! in common.
//!
//! Each distinct (set count, ways) geometry is a *level*: a per-set
//! MRU-first recency list of `ways` entries, which is exactly the LRU
//! state of that cache. Duplicate configurations share a level and its
//! statistics. An access that finds its line at position `p` of its set
//! is a hit; a miss evicts the entry at position `ways − 1`, **precisely
//! the line LRU would evict**, which is how the profiler reproduces the
//! paper's displaced-line interference matrix (Figure 13) bit-for-bit.
//!
//! Each way is one `u64`: the line in the low 56 bits and the class
//! that filled it above them (0 = invalid way, 1 = user, 2 = kernel),
//! exactly as [`ICacheSim`] tags its ways. A hit moves the word with
//! its filler; a miss writes the new line with the missing class. An
//! empty way holds owner 0, so a cold fill lands in the matrix's
//! "invalid victim" column with no special casing. A line must fit the
//! field, so addresses must stay below `2^(56 + log2 line size)` (2^60
//! at 16 B lines, far above the 45 bits a trace address uses); a line
//! that does not fit panics rather than alias another.
//!
//! Levels are walked in ascending set count. Sets are bit-selected, so
//! a finer level's set holds a subset of the lines of the coarser set
//! the line maps to, and the front of every level's set is the last
//! line accessed among those mapping to it (LRU inclusion, Hill & Smith
//! 1989). A line at the front of its set at one level is therefore at
//! the front at every later level, where nothing would change: the walk
//! stops there. Every statistic in [`CacheStats`] — accesses, misses,
//! per-class misses, the displaced matrix — is produced exactly;
//! nothing falls back to direct simulation (the differential proptests
//! in `tests/prop_stack_equiv.rs` and `tests/prop_stack_levels.rs` are
//! the proof).
//!
//! Cost per access: the MRU fast path (sequential straight-line fetch,
//! the common case for instruction streams) is one compare for the
//! whole grid — the shared work the direct engine repeats per
//! configuration. Otherwise the walk scans at most `ways` words of one
//! set per level, up to the first level where the line is at the front
//! of its set: at most the sum of the distinct geometries' ways, the
//! same as one direct simulator per distinct configuration, and for a
//! grid of direct-mapped caches one compare per level until the
//! smallest cache that already holds the line.
//!
//! [`ICacheSim`]: crate::ICacheSim

use crate::config::CacheConfig;
use crate::icache::{AccessClass, CacheStats};

/// Bits of a way word that hold the line; the class that filled it sits
/// above them.
const LINE_BITS: u32 = 56;
/// Selects a way word's line.
const LINE_MASK: u64 = (1 << LINE_BITS) - 1;
/// An empty way: owner 0 and the all-ones line, which no accepted line
/// equals.
const EMPTY: u64 = LINE_MASK;

/// One configuration served: geometry, caller-side tag and the level
/// whose statistics it reads.
#[derive(Debug, Clone)]
struct CfgSlot {
    config: CacheConfig,
    /// Caller-side index of this configuration (position in the job's
    /// config list), so shard results merge into the right cell.
    tag: usize,
    /// Index into [`StackDistanceSim::levels`].
    level: usize,
}

/// One (set count, ways) geometry: a per-set recency list of `ways`
/// way words, the exact LRU state of that cache.
#[derive(Debug, Clone)]
struct Level {
    set_mask: u64,
    ways: usize,
    /// `sets × ways` way words, MRU-first within each set: the line,
    /// and above [`LINE_BITS`] the class that filled it (0 invalid,
    /// 1 user, 2 kernel).
    slots: Vec<u64>,
    stats: CacheStats,
}

/// A stack-distance profiler for every configuration of one line size,
/// fed by one (CPU, filter) shard of the trace. Produces [`CacheStats`]
/// bit-identical to running an [`ICacheSim`](crate::ICacheSim) per
/// configuration over the same stream.
///
/// ```
/// use codelayout_memsim::{AccessClass, CacheConfig, ICacheSim, StackDistanceSim};
///
/// let grid = vec![CacheConfig::new(256, 64, 1), CacheConfig::new(512, 64, 2)];
/// let mut stack = StackDistanceSim::new(64, grid.iter().copied().enumerate());
/// let mut direct: Vec<ICacheSim> = grid.iter().map(|&c| ICacheSim::new(c)).collect();
/// let mut x = 7u64;
/// for _ in 0..10_000 {
///     x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
///     let (addr, class) = (x >> 52 << 3, AccessClass::from_kernel_flag(x & 1 == 0));
///     stack.access(addr, class);
///     for sim in &mut direct {
///         sim.access(addr, class);
///     }
/// }
/// for (i, stats) in stack.results() {
///     assert_eq!(stats, *direct[i].stats());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StackDistanceSim {
    line_shift: u32,
    cfgs: Vec<CfgSlot>,
    /// One per distinct geometry, in ascending (set count, ways) order:
    /// the order the early exit relies on.
    levels: Vec<Level>,
    /// Last accessed line: a repeat sits at the front of its set in
    /// every level, i.e. a pure hit for the whole grid. `u64::MAX`
    /// before the first access; with lines of at least 2 bytes no line
    /// equals it.
    last_line: u64,
    accesses: u64,
}

impl StackDistanceSim {
    /// Builds a profiler for `line_bytes` serving every `(tag, config)`
    /// in `grid`; tags are echoed by [`StackDistanceSim::results`] so a
    /// caller can route shard results back to its own config list.
    ///
    /// # Panics
    /// Panics if `line_bytes` is below 2, or a config's line size
    /// differs from it.
    pub fn new(line_bytes: u32, grid: impl IntoIterator<Item = (usize, CacheConfig)>) -> Self {
        assert!(line_bytes >= 2, "lines below 2 bytes unsupported");
        let grid: Vec<(usize, CacheConfig)> = grid.into_iter().collect();
        let geometry = |c: &CacheConfig| (c.sets(), c.ways as usize);
        let mut geometries: Vec<(u64, usize)> = grid.iter().map(|(_, c)| geometry(c)).collect();
        geometries.sort_unstable();
        geometries.dedup();
        let cfgs = grid
            .into_iter()
            .map(|(tag, config)| {
                assert_eq!(
                    config.line_bytes, line_bytes,
                    "config {config} in a {line_bytes}-byte-line profiler"
                );
                let level = geometries
                    .binary_search(&geometry(&config))
                    .expect("listed");
                CfgSlot { config, tag, level }
            })
            .collect();
        let levels = geometries
            .into_iter()
            .map(|(sets, ways)| Level {
                set_mask: sets - 1,
                ways,
                slots: vec![EMPTY; sets as usize * ways],
                stats: CacheStats::default(),
            })
            .collect();
        StackDistanceSim {
            line_shift: line_bytes.trailing_zeros(),
            cfgs,
            levels,
            last_line: u64::MAX,
            accesses: 0,
        }
    }

    /// Processes one fetch. The caller applies stream filtering and CPU
    /// decimation first, exactly as it would before an
    /// [`crate::ICacheSim::access`].
    ///
    /// Split so the MRU fast path — one compare covering every
    /// configuration, taken for most of any sequential fetch stream —
    /// inlines into the replay loop while the level walk stays out of
    /// line.
    ///
    /// # Panics
    /// Panics if the address's line does not fit a way word's 56-bit
    /// line field.
    #[inline]
    pub fn access(&mut self, addr: u64, class: AccessClass) {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        if line != self.last_line {
            self.access_line(line, class);
        }
    }

    /// The level walk for a line that is not the profiler-wide MRU.
    #[inline(never)]
    fn access_line(&mut self, line: u64, class: AccessClass) {
        assert!(
            line < EMPTY,
            "line {line:#x} does not fit a way's {LINE_BITS}-bit line field"
        );
        self.last_line = line;
        let class_idx = usize::from(class == AccessClass::Kernel);
        let filled = line | (1 + class_idx as u64) << LINE_BITS;
        for level in &mut self.levels {
            let base = (line & level.set_mask) as usize * level.ways;
            let set = &mut level.slots[base..base + level.ways];
            // Front of its set here, hence at every finer level.
            if set[0] & LINE_MASK == line {
                break;
            }
            let (p, word) = match set[1..].iter().position(|&w| w & LINE_MASK == line) {
                // A hit: the word moves to the front with its filler.
                Some(p) => (p + 1, set[p + 1]),
                // A miss evicts the LRU way; the missing class fills.
                None => {
                    let stats = &mut level.stats;
                    stats.misses += 1;
                    stats.misses_by_class[class_idx] += 1;
                    let victim = set[level.ways - 1] >> LINE_BITS;
                    stats.displaced[class_idx][victim as usize] += 1;
                    (level.ways - 1, filled)
                }
            };
            // A plain loop rather than `copy_within`: at a direct-mapped
            // level, the commonest, it shifts nothing and makes no call.
            for i in (1..=p).rev() {
                set[i] = set[i - 1];
            }
            set[0] = word;
        }
    }

    /// Records `n` further fetches of the most recently accessed line,
    /// with the same class: pure MRU hits for every configuration, so
    /// only the shared access count moves. Exactly equivalent to — and
    /// the replay loop's batched form of — calling
    /// [`StackDistanceSim::access`] `n` more times with the previous
    /// arguments. Caller contract: at least one `access` has been made.
    #[inline]
    pub fn repeat_last(&mut self, n: u64) {
        debug_assert_ne!(self.last_line, u64::MAX, "repeat_last before any access");
        self.accesses += n;
    }

    /// Final statistics as `(tag, stats)` pairs in construction order.
    /// Accesses are identical across configurations of one profiler
    /// (they share filter and CPU), so the shared count is stamped here.
    pub fn results(&self) -> impl Iterator<Item = (usize, CacheStats)> + '_ {
        self.cfgs.iter().map(|c| {
            let mut stats = self.levels[c.level].stats;
            stats.accesses = self.accesses;
            (c.tag, stats)
        })
    }

    /// Configurations served, as `(tag, config)` pairs.
    pub fn configs(&self) -> impl Iterator<Item = (usize, CacheConfig)> + '_ {
        self.cfgs.iter().map(|c| (c.tag, c.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icache::ICacheSim;

    const U: AccessClass = AccessClass::User;
    const K: AccessClass = AccessClass::Kernel;

    fn lcg_stream(n: usize, seed: u64, span: u64) -> Vec<(u64, AccessClass)> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = ((x >> 24) % span) & !3;
                let class = AccessClass::from_kernel_flag(x & 7 == 0);
                (addr, class)
            })
            .collect()
    }

    fn assert_matches_direct(grid: &[CacheConfig], stream: &[(u64, AccessClass)]) {
        let line = grid[0].line_bytes;
        let mut stack = StackDistanceSim::new(line, grid.iter().copied().enumerate());
        let mut direct: Vec<ICacheSim> = grid.iter().map(|&c| ICacheSim::new(c)).collect();
        for &(addr, class) in stream {
            stack.access(addr, class);
            for sim in &mut direct {
                sim.access(addr, class);
            }
        }
        for (tag, stats) in stack.results() {
            assert_eq!(stats, *direct[tag].stats(), "config {} diverged", grid[tag]);
        }
    }

    #[test]
    fn matches_direct_mapped_grid() {
        let grid: Vec<CacheConfig> = [256u64, 512, 1024, 4096]
            .iter()
            .map(|&s| CacheConfig::new(s, 64, 1))
            .collect();
        assert_matches_direct(&grid, &lcg_stream(30_000, 42, 16 * 1024));
    }

    #[test]
    fn matches_associative_grid_with_duplicates() {
        let grid = vec![
            CacheConfig::new(512, 64, 1),
            CacheConfig::new(512, 64, 2),
            CacheConfig::new(512, 64, 8), // fully associative (1 set)
            CacheConfig::new(512, 64, 2), // duplicate config, same stats
            CacheConfig::new(2048, 64, 4),
        ];
        assert_matches_direct(&grid, &lcg_stream(30_000, 7, 8 * 1024));
    }

    #[test]
    fn matches_mixed_ways_sharing_one_set_count() {
        // 1-, 2- and 4-way caches of 8 sets each: three levels of one set
        // count, where a front-of-set hit in the first ends the walk.
        let grid = vec![
            CacheConfig::new(512, 64, 1),
            CacheConfig::new(1024, 64, 2),
            CacheConfig::new(2048, 64, 4),
        ];
        assert_matches_direct(&grid, &lcg_stream(30_000, 11, 8 * 1024));
    }

    #[test]
    fn displaced_matrix_matches_on_adversarial_interleave() {
        // Alternating user/kernel over a small conflict-heavy footprint
        // exercises every cell of the interference matrix.
        let grid = vec![CacheConfig::new(256, 64, 1), CacheConfig::new(512, 64, 2)];
        let mut stream = Vec::new();
        for i in 0..5_000u64 {
            let addr = (i * 64 * 3) % 4096;
            let class = if i % 3 == 0 { K } else { U };
            stream.push((addr, class));
        }
        assert_matches_direct(&grid, &stream);
    }

    #[test]
    fn mattson_inclusion_misses_monotone_in_size() {
        // At fixed ways and line size, a larger cache can never miss
        // more: the inclusion property the whole engine rests on.
        let grid: Vec<CacheConfig> = [1u64, 2, 4, 8, 16, 32]
            .iter()
            .map(|&kb| CacheConfig::new(kb * 1024, 64, 2))
            .collect();
        let mut stack = StackDistanceSim::new(64, grid.iter().copied().enumerate());
        for (addr, class) in lcg_stream(50_000, 3, 64 * 1024) {
            stack.access(addr, class);
        }
        let misses: Vec<u64> = stack.results().map(|(_, s)| s.misses).collect();
        for w in misses.windows(2) {
            assert!(w[1] <= w[0], "misses must not grow with size: {misses:?}");
        }
    }

    #[test]
    fn mru_fast_path_is_a_pure_hit() {
        let grid = [CacheConfig::new(256, 64, 1)];
        let mut stack = StackDistanceSim::new(64, grid.iter().copied().enumerate());
        stack.access(0, U);
        for _ in 0..100 {
            stack.access(32, U); // same line, MRU
        }
        let (_, stats) = stack.results().next().unwrap();
        assert_eq!(stats.accesses, 101);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn duplicate_configs_share_one_level() {
        let grid = [CacheConfig::new(512, 64, 2), CacheConfig::new(512, 64, 2)];
        let stack = StackDistanceSim::new(64, grid.iter().copied().enumerate());
        assert_eq!(stack.levels.len(), 1);
        assert_eq!(stack.configs().count(), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit a way's 56-bit line field")]
    fn line_beyond_the_packed_field_rejected() {
        // Stored, line 2^56's word would read back as line 0 filled by
        // the kernel, and the next fetch of line 0 would hit it.
        let grid = [CacheConfig::new(256, 64, 1)];
        let mut stack = StackDistanceSim::new(64, grid.iter().copied().enumerate());
        stack.access(0, U);
        stack.access(1 << (LINE_BITS + 6), U);
    }

    #[test]
    #[should_panic(expected = "byte-line profiler")]
    fn mismatched_line_size_rejected() {
        let _ = StackDistanceSim::new(64, [(0, CacheConfig::new(256, 128, 1))]);
    }
}
