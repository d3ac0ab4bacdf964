//! Single-pass stack-distance profiling (Mattson et al., 1970).
//!
//! The direct sweep engine pays one [`ICacheSim`] access per
//! (configuration, CPU) per fetched instruction — O(configs × trace).
//! LRU caches obey the *inclusion property*: at a fixed line size and
//! set count, the lines resident in a `W`-way LRU set are exactly the
//! `W` most-recently-used lines mapping to that set, for **every** `W`
//! at once. One recency ordering per set therefore answers the
//! hit/miss question for every associativity, and one profiler per
//! *distinct set count* (a "level") covers every cache size in the
//! grid — the sweep becomes O(levels × trace) per line size instead of
//! O(configs × trace).
//!
//! [`StackDistanceSim`] keeps, per level, a per-set recency list
//! truncated to the level's largest associativity `W_max` (positions
//! `≥ W_max` are resident in no configuration, so the tail of the full
//! Mattson stack is never materialized — this is what keeps the cost
//! *bounded* per access instead of O(reuse distance)). An access that
//! finds its line at position `p` hits every configuration with
//! `W > p`; each configuration with `W ≤ p` misses, and the entry at
//! position `W − 1` is **precisely the line LRU would evict**, which
//! is how the profiler reproduces the paper's displaced-line
//! interference matrix (Figure 13) bit-for-bit: per-threshold owner
//! bytes travel with each slot and record which class last *filled*
//! the line in that configuration, exactly as [`ICacheSim`] tags its
//! ways (owner `0` = invalid way, so cold fills land in the matrix's
//! "invalid victim" column with no special casing). Every statistic in
//! [`CacheStats`] — accesses, misses, per-class misses, the displaced
//! matrix — is produced exactly; nothing falls back to direct
//! simulation (the differential proptests in
//! `tests/prop_stack_equiv.rs` are the proof).
//!
//! Cost per access: the MRU fast path (sequential straight-line fetch,
//! the common case for instruction streams) is one compare for the
//! whole grid — the shared work the direct engine repeats per
//! configuration. Otherwise each level scans at most `W_max` slots of
//! one set, the same bound as a single direct simulator of the level's
//! largest configuration.

use crate::config::CacheConfig;
use crate::icache::{AccessClass, CacheStats};

/// Empty-slot marker; line addresses are fetch addresses shifted right
/// by the line size, so `u64::MAX` can never be a real line.
const INVALID: u64 = u64::MAX;

/// Per-configuration state: geometry, caller-side tag and running
/// statistics (owners live in the level's slot array).
#[derive(Debug, Clone)]
struct CfgSlot {
    config: CacheConfig,
    /// Caller-side index of this configuration (position in the job's
    /// config list), so shard results merge into the right cell.
    tag: usize,
    stats: CacheStats,
}

/// All configurations sharing one set count, simulated as one per-set
/// recency list of `wmax` slots: the `W`-way member's content is the
/// list's first `W` entries (LRU inclusion within a set).
#[derive(Debug, Clone)]
struct SetLevel {
    set_mask: u64,
    /// Largest associativity at this level; the per-set list length.
    wmax: usize,
    /// `(ways, cfg index)` sorted ascending by ways; duplicates allowed.
    thresholds: Vec<(u32, u32)>,
    /// `sets × wmax` lines, MRU-first within each set.
    lines: Vec<u64>,
    /// `sets × wmax × thresholds.len()` owner bytes, slot-major: the
    /// class that last filled each slot's line *in each configuration*
    /// (fill times differ per configuration, so one byte per way as in
    /// [`ICacheSim`] is not enough). 0 invalid, 1 user, 2 kernel.
    owners: Vec<u8>,
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
    levels: Vec<SetLevel>,
    /// Last accessed line: a repeat sits at position 0 of its set in
    /// every level, i.e. a pure hit for the whole grid.
    last_line: u64,
    accesses: u64,
}

impl StackDistanceSim {
    /// Builds a profiler for `line_bytes` serving every `(tag, config)`
    /// in `grid`; tags are echoed by [`StackDistanceSim::results`] so a
    /// caller can route shard results back to its own config list.
    ///
    /// # Panics
    /// Panics if a config's line size differs from `line_bytes`, or its
    /// associativity exceeds 255.
    pub fn new(line_bytes: u32, grid: impl IntoIterator<Item = (usize, CacheConfig)>) -> Self {
        let mut cfgs: Vec<CfgSlot> = Vec::new();
        let mut levels: Vec<SetLevel> = Vec::new();
        for (tag, config) in grid {
            assert_eq!(
                config.line_bytes, line_bytes,
                "config {config} in a {line_bytes}-byte-line profiler"
            );
            assert!(config.ways <= 255, "associativity above 255 unsupported");
            let sets = config.sets();
            let cfg_idx = cfgs.len() as u32;
            match levels.iter_mut().find(|l| l.set_mask == sets - 1) {
                Some(level) => level.thresholds.push((config.ways, cfg_idx)),
                None => levels.push(SetLevel {
                    set_mask: sets - 1,
                    wmax: 0,
                    thresholds: vec![(config.ways, cfg_idx)],
                    lines: Vec::new(),
                    owners: Vec::new(),
                }),
            }
            cfgs.push(CfgSlot {
                config,
                tag,
                stats: CacheStats::default(),
            });
        }
        levels.sort_by_key(|l| l.set_mask);
        for level in &mut levels {
            level.thresholds.sort_by_key(|&(w, _)| w);
            level.wmax = level.thresholds.last().map_or(0, |&(w, _)| w) as usize;
            let sets = level.set_mask as usize + 1;
            level.lines = vec![INVALID; sets * level.wmax];
            level.owners = vec![0; sets * level.wmax * level.thresholds.len()];
        }
        StackDistanceSim {
            line_shift: line_bytes.trailing_zeros(),
            cfgs,
            levels,
            last_line: INVALID,
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
    #[inline]
    pub fn access(&mut self, addr: u64, class: AccessClass) {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        if line != self.last_line {
            self.access_line(line, class);
        }
    }

    /// The per-level walk for a line that is not the profiler-wide MRU.
    #[inline(never)]
    fn access_line(&mut self, line: u64, class: AccessClass) {
        self.last_line = line;
        let class_idx = usize::from(class == AccessClass::Kernel);
        let fill = 1 + class_idx as u8;
        let cfgs = &mut self.cfgs;
        for level in &mut self.levels {
            let nt = level.thresholds.len();
            let set = (line & level.set_mask) as usize;
            let base = set * level.wmax;
            let slots = &mut level.lines[base..base + level.wmax];
            let obase = base * nt;
            let owners = &mut level.owners[obase..obase + level.wmax * nt];
            match slots.iter().position(|&e| e == line) {
                Some(0) => {} // front of its set: hits everywhere
                Some(p) => {
                    // Hits every configuration with more than `p` ways;
                    // misses the rest, displacing each one's entry at
                    // position `W − 1` (its LRU way).
                    for (t, &(w, cfg)) in level.thresholds.iter().enumerate() {
                        let w = w as usize;
                        if w > p {
                            break;
                        }
                        let c = &mut cfgs[cfg as usize];
                        c.stats.misses += 1;
                        c.stats.misses_by_class[class_idx] += 1;
                        c.stats.displaced[class_idx][owners[(w - 1) * nt + t] as usize] += 1;
                        owners[p * nt + t] = fill;
                    }
                    slots[..=p].rotate_right(1);
                    owners[..(p + 1) * nt].rotate_right(nt);
                }
                None => {
                    // Misses everywhere. Victim owners are read before
                    // the shift; an empty way's owner byte is 0, so a
                    // cold fill records an invalid victim by itself.
                    for (t, &(w, cfg)) in level.thresholds.iter().enumerate() {
                        let c = &mut cfgs[cfg as usize];
                        c.stats.misses += 1;
                        c.stats.misses_by_class[class_idx] += 1;
                        c.stats.displaced[class_idx][owners[(w as usize - 1) * nt + t] as usize] +=
                            1;
                    }
                    slots.copy_within(..level.wmax - 1, 1);
                    slots[0] = line;
                    owners.copy_within(..(level.wmax - 1) * nt, nt);
                    owners[..nt].fill(fill);
                }
            }
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
        debug_assert_ne!(self.last_line, INVALID, "repeat_last before any access");
        self.accesses += n;
    }

    /// Final statistics as `(tag, stats)` pairs in construction order.
    /// Accesses are identical across configurations of one profiler
    /// (they share filter and CPU), so the shared count is stamped here.
    pub fn results(&self) -> impl Iterator<Item = (usize, CacheStats)> + '_ {
        self.cfgs.iter().map(|c| {
            let mut stats = c.stats;
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
        // 1-, 2- and 4-way members of the same 8-set level: the truncated
        // list serves all three off one recency order per set.
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
    #[should_panic(expected = "byte-line profiler")]
    fn mismatched_line_size_rejected() {
        let _ = StackDistanceSim::new(64, [(0, CacheConfig::new(256, 128, 1))]);
    }
}
