//! Grid simulation on the calling thread, and work spread over lanes.
//!
//! [`GridSink`] simulates one [`SweepSpec`] from a stream fed record by
//! record: the harness's live measurement passes, the autotuner's
//! remapped window and the serving loop's epoch windows all drain into
//! one. It holds one [`StackDistanceSim`] per (line size, CPU). A single
//! pass over the stream yields exact misses for every size ×
//! associativity at that line size: a record that repeats its line
//! costs one compare per line size, and any other stops at the first
//! cache that already holds its line at the front of its set (LRU
//! inclusion across set counts), not O(configurations). Two replay-loop
//! specializations stack on top: routing is a precomputed (kernel flag,
//! CPU) → profiler-list table instead of a per-record walk over filters,
//! and consecutive records that repeat the previous one — same line at
//! the *smallest* line size in the grid (hence the same line at every
//! larger one), same CPU, same kernel flag — collapse to one counter
//! increment, flushed in bulk with [`StackDistanceSim::repeat_last`]
//! when the run breaks. Instruction streams are mostly sequential (the
//! very property the paper's optimizations maximize), so such runs cover
//! most of the stream.
//!
//! A [`GridSink`]'s cells are **bit-identical** to a [`SweepSink`]'s:
//! one [`ICacheSim`] per (configuration, CPU), the straightforward
//! oracle the stack engine is proven against. The oracle has no batching
//! and no routing table, so a divergence between the two always indicts
//! exactly one of them. The stack profiler reproduces [`ICacheSim`]'s
//! statistics exactly, and per-CPU partials are summed with
//! [`CacheStats::merge`], commutative `u64` addition. Grids ignore data
//! events, so a fetch-and-data stream sweeps exactly like its fetch-only
//! twin.
//!
//! [`on_lanes`] spreads independent items — a candidate layout to tune,
//! a layout to measure, a recovery window to serve — over lanes: each
//! item runs whole on one lane, and the results come back in item order
//! whatever the lane count. [`ParallelSweep`] replays a recorded
//! [`FrozenTrace`] through a list of jobs that way, one simulator per
//! job on either [`SweepEngine`]; no production run records a trace, so
//! its callers are the tests and the benchmark's sweep probes.
//!
//! [`SweepSink`]: crate::SweepSink
//! [`ICacheSim`]: crate::ICacheSim

use crate::config::StreamFilter;
use crate::icache::{AccessClass, CacheStats};
use crate::spec::SweepSpec;
use crate::stack::StackDistanceSim;
use crate::sweep::{SweepCell, SweepSink};
use codelayout_vm::{FetchRecord, FrozenTrace, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One (line size, CPU) profiler covering every configuration of that
/// line size, plus the routing inputs [`GridSink::new`] bakes into the
/// dispatch table.
struct StackShard {
    cpu: usize,
    filter: StreamFilter,
    num_cpus: usize,
    prof: StackDistanceSim,
}

/// Routing-table width: one entry per (kernel flag, `u8` CPU id).
const ROUTES: usize = 2 * 256;

/// The simulator each [`ParallelSweep`] job runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SweepEngine {
    /// A [`SweepSink`]: one set-associative LRU simulator per
    /// (configuration, CPU), the oracle.
    Direct,
    /// A [`GridSink`]: one stack-distance profiler per (line size, CPU)
    /// (default).
    #[default]
    Stack,
}

impl SweepEngine {
    /// Stable lowercase name (`"direct"` / `"stack"`).
    pub fn label(self) -> &'static str {
        match self {
            SweepEngine::Direct => "direct",
            SweepEngine::Stack => "stack",
        }
    }
}

/// Replays a [`FrozenTrace`] through one or more [`SweepSpec`] jobs:
/// each job is one simulator fed by [`FrozenTrace::replay`] — a
/// [`GridSink`], or on [`SweepEngine::Direct`] a [`SweepSink`] — and the
/// jobs run side by side on up to `threads` lanes ([`on_lanes`]).
///
/// ```
/// use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSink, SweepSpec};
/// use codelayout_vm::{FetchRecord, TraceBuffer, TraceSink};
///
/// let mut buf = TraceBuffer::new();
/// for i in 0..1000u64 {
///     buf.fetch(FetchRecord { addr: i % 96 * 64, cpu: (i % 2) as u8, pid: 0, kernel: false });
/// }
/// let trace = buf.freeze();
///
/// let spec = SweepSpec::paper_grid(1).cpus(2);
/// let stack = ParallelSweep::new(4).run(&trace, std::slice::from_ref(&spec));
/// let direct = ParallelSweep::new(4)
///     .with_engine(SweepEngine::Direct)
///     .run(&trace, std::slice::from_ref(&spec));
/// assert_eq!(stack, direct);
///
/// // Both are bit-identical to the live serial sweep.
/// let mut serial = SweepSink::from_spec(&spec);
/// trace.replay(&mut serial);
/// assert_eq!(stack[0], serial.results());
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    threads: usize,
    engine: SweepEngine,
}

impl ParallelSweep {
    /// A sweep runner using up to `threads` lanes (clamped to ≥ 1; a run
    /// never uses more lanes than it has jobs) and the default
    /// stack-distance engine.
    pub fn new(threads: usize) -> Self {
        ParallelSweep {
            threads: threads.max(1),
            engine: SweepEngine::default(),
        }
    }

    /// Selects the replay engine.
    pub fn with_engine(mut self, engine: SweepEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The configured lane count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured replay engine.
    pub fn engine(&self) -> SweepEngine {
        self.engine
    }

    /// Replays `trace` through every job, returning one result vector
    /// per job (same order; cells in each job's config order, summed
    /// over CPUs — the exact shape [`SweepSink::results`] returns).
    /// Helper lanes run under `sweep_lane` root spans.
    pub fn run(&self, trace: &FrozenTrace, jobs: &[SweepSpec]) -> Vec<Vec<SweepCell>> {
        let _sweep_span = codelayout_obs::span("sweep");
        on_lanes(self.threads, "sweep_lane", jobs, |spec| match self.engine {
            SweepEngine::Stack => {
                let mut sink = GridSink::new(spec);
                trace.replay(&mut sink);
                sink.finish()
            }
            SweepEngine::Direct => {
                let mut sink = SweepSink::from_spec(spec);
                trace.replay(&mut sink);
                sink.results()
            }
        })
    }

    /// Convenience for a single job: replays and returns its cells.
    pub fn run_one(&self, trace: &FrozenTrace, spec: &SweepSpec) -> Vec<SweepCell> {
        self.run(trace, std::slice::from_ref(spec))
            .pop()
            .expect("one job in, one result out")
    }
}

/// One [`SweepSpec`] simulated on the calling thread, fed record by
/// record, for a caller that produces its stream on the fly and never
/// materializes a trace.
///
/// It holds every (line size, CPU) profiler of the spec, with the
/// routing table and run batching of the module docs, and
/// [`GridSink::finish`] returns exactly the cells a [`SweepSink`]
/// returns for the same records.
///
/// ```
/// use codelayout_memsim::{GridSink, SweepSink, SweepSpec};
/// use codelayout_vm::{FetchRecord, TraceSink};
///
/// let spec = SweepSpec::paper_grid(2).cpus(2);
/// let mut sink = GridSink::new(&spec);
/// let mut oracle = SweepSink::from_spec(&spec);
/// for i in 0..1000u64 {
///     let rec = FetchRecord { addr: i % 96 * 64, cpu: (i % 2) as u8, pid: 0, kernel: false };
///     sink.fetch(rec);
///     oracle.fetch(rec);
/// }
/// assert_eq!(sink.finish(), oracle.results());
/// ```
pub struct GridSink {
    shards: Vec<StackShard>,
    /// `routes[kernel << 8 | cpu]` = indices into `shards`.
    routes: Vec<Vec<u32>>,
    /// Right-shift turning an address into a line at the smallest line
    /// size any shard profiles: equal keys ⇒ equal lines everywhere.
    batch_shift: u32,
    /// `(line << 9) | (cpu << 1) | kernel` of the previous record;
    /// `u64::MAX` (unreachable: trace addresses fit 45 bits) initially.
    last_key: u64,
    /// Route index of the in-progress run.
    last_route: usize,
    /// Repeat records accumulated since the run's first record.
    pending: u64,
    /// The spec's configurations, in order, with zeroed statistics until
    /// [`GridSink::finish`] merges the shards into them.
    cells: Vec<SweepCell>,
}

impl GridSink {
    /// An empty sink simulating `spec`: one profiler per (line size,
    /// CPU), covering every configuration of that line size, in
    /// line-size, CPU order, and for every possible (kernel flag, record
    /// CPU) pair the list of profilers that accept such a record.
    pub fn new(spec: &SweepSpec) -> Self {
        let grid = spec.configs();
        let mut lines: Vec<u32> = grid.iter().map(|c| c.line_bytes).collect();
        lines.sort_unstable();
        lines.dedup();
        let mut shards = Vec::new();
        for &line in &lines {
            let group: Vec<(usize, crate::CacheConfig)> = grid
                .iter()
                .enumerate()
                .filter(|(_, c)| c.line_bytes == line)
                .map(|(i, &c)| (i, c))
                .collect();
            for cpu in 0..spec.num_cpus() {
                shards.push(StackShard {
                    cpu,
                    filter: spec.stream(),
                    num_cpus: spec.num_cpus(),
                    prof: StackDistanceSim::new(line, group.iter().copied()),
                });
            }
        }
        let routes = (0..ROUTES)
            .map(|r| {
                let (kernel, rec_cpu) = (r >> 8 != 0, r & 0xFF);
                shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.filter.accepts(kernel) && rec_cpu % s.num_cpus == s.cpu)
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
        GridSink {
            shards,
            routes,
            batch_shift: lines.first().map_or(0, |l| l.trailing_zeros()),
            last_key: u64::MAX,
            last_route: 0,
            pending: 0,
            cells: grid
                .into_iter()
                .map(|config| SweepCell {
                    config,
                    stats: CacheStats::default(),
                })
                .collect(),
        }
    }

    /// The spec's cells (configuration order, summed over CPUs) for every
    /// record fed so far.
    pub fn finish(mut self) -> Vec<SweepCell> {
        self.flush_repeats();
        for shard in self.shards {
            for (config_idx, stats) in shard.prof.results() {
                self.cells[config_idx].stats.merge(&stats);
            }
        }
        self.cells
    }

    /// Delivers a batched run of repeat records to the profilers the
    /// run's first record routed to. Must run once more after the last
    /// record.
    fn flush_repeats(&mut self) {
        let n = std::mem::take(&mut self.pending);
        if n == 0 {
            return;
        }
        let shards = &mut self.shards;
        for &i in &self.routes[self.last_route] {
            shards[i as usize].prof.repeat_last(n);
        }
    }
}

impl TraceSink for GridSink {
    // Always inlined into the replay loop: outlined, a call per record
    // costs it about 10%.
    #[inline(always)]
    fn fetch(&mut self, rec: FetchRecord) {
        let key =
            ((rec.addr >> self.batch_shift) << 9) | ((rec.cpu as u64) << 1) | rec.kernel as u64;
        if key == self.last_key {
            self.pending += 1;
            return;
        }
        self.flush_repeats();
        self.last_key = key;
        self.last_route = (rec.kernel as usize) << 8 | rec.cpu as usize;
        let class = AccessClass::from_kernel_flag(rec.kernel);
        let shards = &mut self.shards;
        for &i in &self.routes[self.last_route] {
            shards[i as usize].prof.access(rec.addr, class);
        }
    }
}

/// `f` of every item, in item order, computed on up to `lanes` lanes:
/// lane 0 is the calling thread, each other lane a scoped thread under a
/// root span named `span`. Each lane claims the next unclaimed item from
/// a shared counter, in item order, until none is left, so a lane that
/// finishes a cheap item takes the next one instead of idling while
/// another lane works through its share. A caller that lists its
/// costliest items first keeps a costly item from starting last. Which
/// lane runs which item follows timing; nothing else does. With helper
/// lanes, lane 0's wait for them after the last claim is a `lane_wait`
/// span.
///
/// ```
/// // Item 0 costs the most; the other lanes claim the rest meanwhile.
/// let costs: Vec<u64> = vec![400_000, 3, 1, 4, 1, 5, 9, 2, 6];
/// let sums = codelayout_memsim::on_lanes(3, "lane", &costs, |&n| (0..n).sum::<u64>());
/// assert_eq!(sums, costs.iter().map(|&n| (0..n).sum::<u64>()).collect::<Vec<_>>());
/// ```
pub fn on_lanes<T: Sync, R: Send>(
    lanes: usize,
    span: &'static str,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let lanes = lanes.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let lane = || -> Vec<(usize, R)> {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return out;
            };
            out.push((i, f(item)));
        }
    };
    let mut out = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes)
            .map(|_| {
                s.spawn(|| {
                    let _span = codelayout_obs::span(span);
                    lane()
                })
            })
            .collect();
        let mut out = lane();
        let _wait = (lanes > 1).then(|| codelayout_obs::span("lane_wait"));
        for h in helpers {
            out.extend(h.join().expect("lane panicked"));
        }
        out
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use codelayout_vm::{DataRecord, TraceBuffer};

    /// A small mixed user/kernel multi-CPU trace.
    fn test_trace() -> FrozenTrace {
        let mut buf = TraceBuffer::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kernel = x.is_multiple_of(5);
            let base = if kernel { 0x8000_0000 } else { 0x40_0000 };
            buf.fetch(FetchRecord {
                addr: (base + x % (64 * 1024)) & !3,
                cpu: (i % 3) as u8,
                pid: (i % 7) as u8,
                kernel,
            });
        }
        buf.freeze()
    }

    /// A mixed fetch-and-data trace and its fetch-only twin, recorded
    /// from one stream: mostly sequential user/kernel fetches on three
    /// CPUs, with a load or store after about one fetch in four.
    fn mixed_traces() -> (FrozenTrace, FrozenTrace) {
        let (mut mixed, mut fetch_only) = (TraceBuffer::new(), TraceBuffer::fetch_only());
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut pc = 0x40_0000u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kernel = i % 400 < 60;
            pc = if x.is_multiple_of(9) {
                (x % (96 * 1024)) & !3
            } else {
                pc + 4
            };
            let base = if kernel { 0x8000_0000 } else { 0x40_0000 };
            let (cpu, pid) = ((i / 500 % 3) as u8, (i / 1500 % 7) as u8);
            let rec = FetchRecord {
                addr: base + pc,
                cpu,
                pid,
                kernel,
            };
            mixed.fetch(rec);
            fetch_only.fetch(rec);
            if x % 4 == 1 {
                let data = DataRecord {
                    addr: 0x1000_0000 + (x >> 7) % (256 * 1024),
                    cpu,
                    pid,
                    kernel,
                    write: x.is_multiple_of(3),
                };
                mixed.data(data);
                fetch_only.data(data);
            }
        }
        (mixed.freeze(), fetch_only.freeze())
    }

    #[test]
    fn grids_ignore_data_events() {
        let (mixed, fetch_only) = mixed_traces();
        assert!(mixed.len() > fetch_only.len());
        let jobs = vec![
            SweepSpec::paper_grid(1).cpus(3),
            sizes_grid(StreamFilter::All),
            sizes_grid(StreamFilter::KernelOnly),
        ];
        for threads in [1, 3] {
            for sweep in both_engines(threads) {
                assert_eq!(
                    sweep.run(&mixed, &jobs),
                    sweep.run(&fetch_only, &jobs),
                    "threads = {threads}, engine = {}",
                    sweep.engine().label()
                );
            }
        }
    }

    fn sizes_grid(filter: StreamFilter) -> SweepSpec {
        SweepSpec::grid()
            .sizes_kb(&[1, 4, 16])
            .line_b(128)
            .ways(4)
            .cpus(3)
            .filter(filter)
    }

    fn serial(trace: &FrozenTrace, spec: &SweepSpec) -> Vec<SweepCell> {
        let mut sink = SweepSink::from_spec(spec);
        trace.replay(&mut sink);
        sink.results()
    }

    fn both_engines(threads: usize) -> [ParallelSweep; 2] {
        [
            ParallelSweep::new(threads).with_engine(SweepEngine::Direct),
            ParallelSweep::new(threads).with_engine(SweepEngine::Stack),
        ]
    }

    #[test]
    fn matches_serial_for_any_thread_count_and_engine() {
        let trace = test_trace();
        let spec = SweepSpec::paper_grid(2).cpus(3);
        let expected = serial(&trace, &spec);
        for threads in [1, 2, 5, 64] {
            for sweep in both_engines(threads) {
                let got = sweep.run(&trace, std::slice::from_ref(&spec));
                assert_eq!(
                    got[0],
                    expected,
                    "threads = {threads}, engine = {}",
                    sweep.engine().label()
                );
            }
        }
    }

    #[test]
    fn multi_job_results_keep_job_order_and_filters() {
        let trace = test_trace();
        let jobs = vec![
            SweepSpec::paper_grid(1)
                .cpus(2)
                .filter(StreamFilter::UserOnly),
            SweepSpec::paper_grid(4)
                .cpus(1)
                .filter(StreamFilter::KernelOnly),
            SweepSpec::grid().size_kb(1).line_b(64).ways(2).cpus(3),
        ];
        for sweep in both_engines(7) {
            let got = sweep.run(&trace, &jobs);
            assert_eq!(got.len(), 3);
            for (j, job) in jobs.iter().enumerate() {
                assert_eq!(got[j], serial(&trace, job), "job {j}");
            }
            // Filters actually differ: user + kernel accesses = combined.
            let user: u64 = got[0][0].stats.accesses;
            let kernel: u64 = got[1][0].stats.accesses;
            let all: u64 = got[2][0].stats.accesses;
            assert!(user > 0 && kernel > 0);
            assert_eq!(user + kernel, all);
        }
    }

    #[test]
    fn sequential_run_batching_matches_record_at_a_time() {
        // Long same-line runs with CPU switches and kernel excursions
        // mid-run: the batched fast path must flush across every kind
        // of run break.
        let mut buf = TraceBuffer::new();
        for i in 0..4_000u64 {
            let cpu = (i / 977) % 2;
            let kernel = i % 271 < 13;
            buf.fetch(FetchRecord {
                addr: (if kernel { 0x8000_0000 } else { 0x40_0000 }) + i / 7 * 4,
                cpu: cpu as u8,
                pid: 0,
                kernel,
            });
        }
        let trace = buf.freeze();
        let jobs = vec![
            SweepSpec::grid()
                .size_kb(1)
                .lines_b(&[16, 64])
                .ways_each(&[1, 2])
                .cpus(2),
            SweepSpec::grid()
                .size_kb(2)
                .line_b(32)
                .cpus(2)
                .filter(StreamFilter::KernelOnly),
        ];
        for threads in [1, 3] {
            let got = ParallelSweep::new(threads).run(&trace, &jobs);
            for (j, job) in jobs.iter().enumerate() {
                assert_eq!(got[j], serial(&trace, job), "threads {threads}, job {j}");
            }
        }
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let trace = test_trace();
        let spec = SweepSpec::grid().size_kb(512).line_b(64);
        for sweep in both_engines(1000) {
            let got = sweep.run(&trace, std::slice::from_ref(&spec));
            assert_eq!(got[0], serial(&trace, &spec));
        }
    }

    #[test]
    fn empty_trace_and_empty_jobs() {
        let empty = TraceBuffer::new().freeze();
        let spec = SweepSpec::paper_grid(1).cpus(2);
        let got = ParallelSweep::new(4).run(&empty, std::slice::from_ref(&spec));
        assert_eq!(got[0].len(), 25);
        assert!(got[0].iter().all(|c| c.stats.accesses == 0));
        let none = ParallelSweep::new(4).run(&test_trace(), &[]);
        assert!(none.is_empty());
    }

    #[test]
    fn run_one_unwraps_single_job() {
        let trace = test_trace();
        let spec = SweepSpec::paper_grid(1).cpus(2);
        let cells = ParallelSweep::new(2).run_one(&trace, &spec);
        assert_eq!(cells, serial(&trace, &spec));
    }

    #[test]
    fn engine_selection_defaults_to_stack() {
        assert_eq!(ParallelSweep::new(2).engine(), SweepEngine::Stack);
        assert_eq!(
            ParallelSweep::new(2)
                .with_engine(SweepEngine::Direct)
                .engine(),
            SweepEngine::Direct
        );
        let cells_config_order: Vec<CacheConfig> = ParallelSweep::new(1)
            .run_one(&test_trace(), &SweepSpec::paper_grid(1))
            .into_iter()
            .map(|c| c.config)
            .collect();
        assert_eq!(cells_config_order, SweepSpec::paper_grid(1).configs());
    }

    /// Every item runs exactly once and results come back in item
    /// order, whatever the lane count and however uneven the items'
    /// costs: the first item is costlier than all others together, and
    /// every seventh is costlier than its neighbours.
    #[test]
    fn lanes_claim_every_item_once_and_return_item_order() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let cost = |i: u64| match i {
            0 => 2_000_000,
            i if i % 7 == 3 => 200_000,
            i => i,
        };
        for n in [0, 1, 2, 5, 20] {
            let items: Vec<u64> = (0..n).collect();
            for lanes in [1, 2, 3, 7, 32] {
                let runs: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
                let got = on_lanes(lanes, "test_lane", &items, |&i| {
                    runs[i as usize].fetch_add(1, Ordering::Relaxed);
                    let spin = (0..cost(i)).fold(i, |acc, x| acc.wrapping_mul(31) ^ x);
                    (i, std::hint::black_box(spin))
                });
                assert_eq!(got.len(), items.len(), "{n} items on {lanes} lanes");
                for (k, &(i, _)) in got.iter().enumerate() {
                    assert_eq!(i, k as u64, "{n} items on {lanes} lanes: out of order");
                }
                for (i, r) in runs.iter().enumerate() {
                    let r = r.load(Ordering::Relaxed);
                    assert_eq!(r, 1, "item {i} of {n} ran {r} times on {lanes} lanes");
                }
            }
        }
    }
}
