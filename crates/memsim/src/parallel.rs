//! Parallel replay of a frozen trace across sweep grids.
//!
//! A [`SweepSink`] feeds every (configuration, CPU) simulator from a
//! live machine run in one pass. A caller holding a recorded stream,
//! such as the serving loop scoring an epoch's window, can split that
//! work instead: given a [`FrozenTrace`] and a list of [`SweepSpec`]
//! jobs, [`ParallelSweep`] shards the simulation across scoped worker
//! threads. Each worker owns its simulators outright and replays the
//! shared trace with no locks or atomics on the hot path; per-CPU
//! statistics are merged into per-configuration cells only at join
//! time.
//!
//! Two engines implement the same contract ([`SweepEngine`], default
//! taken from `CODELAYOUT_SWEEP_ENGINE`):
//!
//! * **Stack** — one [`StackDistanceSim`] per (job, line size, CPU).
//!   A single pass over the shard's stream yields exact misses for
//!   every size × associativity at that line size (Mattson inclusion),
//!   so per-record cost is O(line sizes), not O(configurations). Two
//!   replay-loop specializations stack on top: routing is a
//!   precomputed (kernel flag, CPU) → profiler-list table instead of a
//!   per-record walk over jobs and filters, and consecutive records
//!   that repeat the previous one — same line at the *smallest* line
//!   size in the grid (hence the same line at every larger one), same
//!   CPU, same kernel flag — collapse to one counter increment,
//!   flushed in bulk with [`StackDistanceSim::repeat_last`] when the
//!   run breaks. Instruction streams are mostly sequential (the very
//!   property the paper's optimizations maximize), so such runs cover
//!   most of the trace.
//! * **Direct** — one [`ICacheSim`] per (job, configuration, CPU); the
//!   straightforward oracle the stack engine is proven against. Its
//!   replay loop is kept deliberately plain — no batching, no routing
//!   table — so a divergence between the engines always indicts
//!   exactly one of them.
//!
//! Results are **bit-identical** across engines and thread counts: a
//! given shard consumes the identical filtered subsequence of the trace
//! wherever it runs, the stack profiler reproduces [`ICacheSim`]'s
//! statistics exactly, and [`CacheStats::merge`] is commutative `u64`
//! addition. Grid shards ignore data events, so grids replayed from a
//! fetch-and-data trace equal grids replayed from its fetch-only twin.
//!
//! [`GridSink`] is the serial form of one grid job for a caller that
//! generates its stream on the fly, such as the autotuner's remapped
//! window or the harness's live measurement pass: a single stack worker
//! holding every shard, built by the same shard constructor as the
//! pool, or a [`SweepSink`] on the direct engine. It equals
//! [`ParallelSweep::run_one`] on the recorded stream.
//!
//! [`on_lanes`] is the pool's counterpart for work that is independent
//! per item rather than per shard — a candidate layout to tune, a layout
//! to measure: each item runs whole on one lane, and the results come
//! back in item order whatever the lane count.
//!
//! [`SweepSink`]: crate::SweepSink

use crate::config::StreamFilter;
use crate::icache::{AccessClass, CacheStats, ICacheSim};
use crate::spec::SweepSpec;
use crate::stack::StackDistanceSim;
use crate::sweep::SweepCell;
use codelayout_obs::SweepEngine;
use codelayout_vm::{FetchRecord, FrozenTrace, TraceSink};

/// One direct-engine unit: a (configuration, CPU) simulator.
struct DirectShard {
    config_idx: usize,
    cpu: usize,
    sim: ICacheSim,
}

/// A direct worker's shards for one job, with the job's filter and CPU
/// count hoisted so the per-record stream checks run once per job — not
/// once per shard, as the old per-config loop did.
struct DirectJob {
    job: usize,
    filter: StreamFilter,
    num_cpus: usize,
    shards: Vec<DirectShard>,
}

/// A direct-engine worker: the plain oracle replay loop. Filtering and
/// CPU decimation match [`crate::SweepSink::fetch`] exactly.
struct DirectWorker {
    jobs: Vec<DirectJob>,
}

impl TraceSink for DirectWorker {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        let class = AccessClass::from_kernel_flag(rec.kernel);
        let rec_cpu = rec.cpu as usize;
        for dj in &mut self.jobs {
            if !dj.filter.accepts(rec.kernel) {
                continue;
            }
            // Traces from an N-CPU machine replayed into an N-CPU spec
            // (the harness invariant) never take the modulo; the branch
            // predicts perfectly and skips a hardware division per job
            // per record.
            let cpu = if rec_cpu < dj.num_cpus {
                rec_cpu
            } else {
                rec_cpu % dj.num_cpus
            };
            for shard in &mut dj.shards {
                if shard.cpu == cpu {
                    shard.sim.access(rec.addr, class);
                }
            }
        }
    }
}

impl DirectWorker {
    fn push(&mut self, job: usize, spec: &SweepSpec, shard: DirectShard) {
        if self.jobs.last().is_none_or(|dj| dj.job != job) {
            self.jobs.push(DirectJob {
                job,
                filter: spec.stream(),
                num_cpus: spec.num_cpus(),
                shards: Vec::new(),
            });
        }
        self.jobs
            .last_mut()
            .expect("job pushed above")
            .shards
            .push(shard);
    }
}

/// One stack-engine unit: a (job, line size, CPU) profiler covering
/// every configuration of that line size in its job, plus the routing
/// inputs its worker bakes into the dispatch table.
struct StackShard {
    job: usize,
    cpu: usize,
    filter: StreamFilter,
    num_cpus: usize,
    prof: StackDistanceSim,
}

/// Routing-table width: one entry per (kernel flag, `u8` CPU id).
const ROUTES: usize = 2 * 256;

/// A stack-engine worker. [`StackWorker::seal`] precomputes, for every
/// possible (kernel flag, record CPU) pair, the list of profilers that
/// accept such a record — the per-record work is then one table lookup
/// and one profiler access per list entry, with same-line runs batched
/// down to a single counter increment (see the module docs).
struct StackWorker {
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
}

impl TraceSink for StackWorker {
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

/// The stack-engine shards of `jobs` (with `grids[j]` = `jobs[j]`'s
/// configurations), in job, line-size, CPU order: one profiler per
/// (job, line size, CPU), covering every configuration of that line
/// size in its job.
fn stack_shards(jobs: &[SweepSpec], grids: &[Vec<crate::CacheConfig>]) -> Vec<StackShard> {
    let mut shards = Vec::new();
    for (job, (spec, grid)) in jobs.iter().zip(grids).enumerate() {
        let mut lines: Vec<u32> = grid.iter().map(|c| c.line_bytes).collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            let group: Vec<(usize, crate::CacheConfig)> = grid
                .iter()
                .enumerate()
                .filter(|(_, c)| c.line_bytes == line)
                .map(|(i, &c)| (i, c))
                .collect();
            for cpu in 0..spec.num_cpus() {
                shards.push(StackShard {
                    job,
                    cpu,
                    filter: spec.stream(),
                    num_cpus: spec.num_cpus(),
                    prof: StackDistanceSim::new(line, group.iter().copied()),
                });
            }
        }
    }
    shards
}

impl StackWorker {
    /// An empty worker batching runs at `batch_shift`
    /// ([`StackWorker::batch_shift`] of every shard of the run).
    fn new(batch_shift: u32) -> Self {
        StackWorker {
            shards: Vec::new(),
            routes: Vec::new(),
            batch_shift,
            last_key: u64::MAX,
            last_route: 0,
            pending: 0,
        }
    }

    /// The batching shift for a run over `shards`: the smallest line
    /// size any of them profiles.
    fn batch_shift(shards: &[StackShard]) -> u32 {
        shards
            .iter()
            .map(|s| s.prof.line_bytes().trailing_zeros())
            .min()
            .unwrap_or(0)
    }

    /// Adds every shard's per-configuration statistics into its job's
    /// cells. Call after the final [`StackWorker::flush_repeats`].
    fn merge_into(self, results: &mut [Vec<SweepCell>]) {
        for shard in self.shards {
            let cells = &mut results[shard.job];
            for (config_idx, stats) in shard.prof.results() {
                cells[config_idx].stats.merge(&stats);
            }
        }
    }

    /// Builds the dispatch table; must run after the last shard is
    /// pushed and before replay.
    fn seal(&mut self) {
        self.routes = (0..ROUTES)
            .map(|r| {
                let (kernel, rec_cpu) = (r >> 8 != 0, r & 0xFF);
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.filter.accepts(kernel) && rec_cpu % s.num_cpus == s.cpu)
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
    }

    /// Delivers a batched run of repeat records to the profilers the
    /// run's first record routed to. Must run once more after replay.
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

/// Replays a [`FrozenTrace`] through one or more [`SweepSpec`] jobs on a
/// pool of scoped threads.
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
    /// A sweep runner using up to `threads` workers (clamped to ≥ 1; a
    /// run never spawns more workers than it has shards) and the
    /// default stack-distance engine.
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

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured replay engine.
    pub fn engine(&self) -> SweepEngine {
        self.engine
    }

    /// Replays `trace` through every job, returning one result vector
    /// per job (same order; cells in each job's config order, summed
    /// over CPUs — the exact shape [`crate::SweepSink::results`]
    /// returns).
    pub fn run(&self, trace: &FrozenTrace, jobs: &[SweepSpec]) -> Vec<Vec<SweepCell>> {
        let _sweep_span = codelayout_obs::span("sweep");
        let grids: Vec<Vec<crate::CacheConfig>> = jobs.iter().map(SweepSpec::configs).collect();
        let mut results: Vec<Vec<SweepCell>> = grids.iter().map(|g| empty_cells(g)).collect();
        match self.engine {
            SweepEngine::Direct => self.run_direct(trace, jobs, &grids, &mut results),
            SweepEngine::Stack => self.run_stack(trace, jobs, &grids, &mut results),
        }
        results
    }

    fn run_direct(
        &self,
        trace: &FrozenTrace,
        jobs: &[SweepSpec],
        grids: &[Vec<crate::CacheConfig>],
        results: &mut [Vec<SweepCell>],
    ) {
        // Enumerate shards per job, then round-robin them over workers
        // so each worker carries a similar mix of small and large
        // simulations. Workers keep their shards grouped by job so the
        // per-record filter and CPU checks are per job, not per shard.
        let total: usize = grids
            .iter()
            .zip(jobs)
            .map(|(g, j)| g.len() * j.num_cpus())
            .sum();
        let num_workers = self.record_pool(jobs.len(), total);
        let mut workers: Vec<DirectWorker> = (0..num_workers)
            .map(|_| DirectWorker { jobs: Vec::new() })
            .collect();
        let mut next = 0usize;
        for (job, (spec, grid)) in jobs.iter().zip(grids).enumerate() {
            for (config_idx, &config) in grid.iter().enumerate() {
                for cpu in 0..spec.num_cpus() {
                    workers[next % num_workers].push(
                        job,
                        spec,
                        DirectShard {
                            config_idx,
                            cpu,
                            sim: ICacheSim::new(config),
                        },
                    );
                    next += 1;
                }
            }
        }

        for worker in replay_workers(trace, workers, |_| {}) {
            for dj in worker.jobs {
                let cells = &mut results[dj.job];
                for shard in dj.shards {
                    cells[shard.config_idx].stats.merge(shard.sim.stats());
                }
            }
        }
    }

    fn run_stack(
        &self,
        trace: &FrozenTrace,
        jobs: &[SweepSpec],
        grids: &[Vec<crate::CacheConfig>],
        results: &mut [Vec<SweepCell>],
    ) {
        let shards = stack_shards(jobs, grids);
        let batch_shift = StackWorker::batch_shift(&shards);
        let num_shards = shards.len();
        let num_workers = self.record_pool(jobs.len(), num_shards);
        let mut workers: Vec<StackWorker> = (0..num_workers)
            .map(|_| StackWorker::new(batch_shift))
            .collect();
        for (i, shard) in shards.into_iter().enumerate() {
            workers[i % num_workers].shards.push(shard);
        }
        for worker in &mut workers {
            worker.seal();
        }

        for worker in replay_workers(trace, workers, StackWorker::flush_repeats) {
            worker.merge_into(results);
        }
    }

    /// Clamps the pool size to the number of shards and records the
    /// grid's shape in the metrics registry.
    fn record_pool(&self, jobs: usize, shards: usize) -> usize {
        let num_workers = self.threads.min(shards.max(1));
        let m = codelayout_obs::metrics();
        m.add("sweep.runs", 1);
        m.add("sweep.jobs", jobs as u64);
        m.add("sweep.shards", shards as u64);
        m.gauge_set("sweep.workers", num_workers as f64);
        num_workers
    }

    /// Convenience for a single job: replays and returns its cells.
    pub fn run_one(&self, trace: &FrozenTrace, spec: &SweepSpec) -> Vec<SweepCell> {
        self.run(trace, std::slice::from_ref(spec))
            .pop()
            .expect("one job in, one result out")
    }
}

/// Zeroed cells for `grid`, in its configuration order.
fn empty_cells(grid: &[crate::CacheConfig]) -> Vec<SweepCell> {
    grid.iter()
        .map(|&config| SweepCell {
            config,
            stats: CacheStats::default(),
        })
        .collect()
}

/// One [`SweepSpec`] simulated on the calling thread, fed record by
/// record: the serial twin of [`ParallelSweep::run_one`] for a caller
/// that produces its stream on the fly and never materializes a trace.
///
/// The stack engine is one sealed stack worker holding every shard of
/// the spec (the very routing and run batching a pool worker uses); the
/// direct engine is a [`crate::SweepSink`]. Either way
/// [`GridSink::finish`] returns exactly the cells
/// [`ParallelSweep::run_one`] returns for the same records, at any
/// thread count.
///
/// ```
/// use codelayout_memsim::{GridSink, ParallelSweep, SweepEngine, SweepSpec};
/// use codelayout_vm::{FetchRecord, TraceBuffer, TraceSink};
///
/// let spec = SweepSpec::paper_grid(2).cpus(2);
/// let mut sink = GridSink::new(&spec, SweepEngine::Stack);
/// let mut buf = TraceBuffer::fetch_only();
/// for i in 0..1000u64 {
///     let rec = FetchRecord { addr: i % 96 * 64, cpu: (i % 2) as u8, pid: 0, kernel: false };
///     sink.fetch(rec);
///     buf.fetch(rec);
/// }
/// assert_eq!(sink.finish(), ParallelSweep::new(3).run_one(&buf.freeze(), &spec));
/// ```
pub struct GridSink {
    engine: GridEngine,
}

enum GridEngine {
    Stack {
        worker: StackWorker,
        cells: Vec<SweepCell>,
    },
    Direct(crate::SweepSink),
}

impl GridSink {
    /// An empty sink simulating `spec` on `engine`.
    pub fn new(spec: &SweepSpec, engine: SweepEngine) -> Self {
        let engine = match engine {
            SweepEngine::Direct => GridEngine::Direct(crate::SweepSink::from_spec(spec)),
            SweepEngine::Stack => {
                let grid = spec.configs();
                let shards = stack_shards(std::slice::from_ref(spec), std::slice::from_ref(&grid));
                let mut worker = StackWorker::new(StackWorker::batch_shift(&shards));
                worker.shards = shards;
                worker.seal();
                GridEngine::Stack {
                    worker,
                    cells: empty_cells(&grid),
                }
            }
        };
        GridSink { engine }
    }

    /// The spec's cells (configuration order, summed over CPUs) for every
    /// record fed so far.
    pub fn finish(self) -> Vec<SweepCell> {
        match self.engine {
            GridEngine::Stack {
                mut worker,
                mut cells,
            } => {
                worker.flush_repeats();
                worker.merge_into(std::slice::from_mut(&mut cells));
                cells
            }
            GridEngine::Direct(sink) => sink.results(),
        }
    }
}

impl TraceSink for GridSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        match &mut self.engine {
            GridEngine::Stack { worker, .. } => worker.fetch(rec),
            GridEngine::Direct(sink) => sink.fetch(rec),
        }
    }

    // One engine dispatch per run, not per record.
    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        match &mut self.engine {
            GridEngine::Stack { worker, .. } => worker.fetch_run(first, n),
            GridEngine::Direct(sink) => sink.fetch_run(first, n),
        }
    }
}

/// `f` of every item, in item order, computed on up to `lanes` lanes:
/// lane 0 is the calling thread, each other lane a scoped thread under a
/// root span named `span`. Lane `l` takes items `l`, `l + lanes`, …
///
/// ```
/// let items: Vec<u64> = (0..11).collect();
/// let squares = codelayout_memsim::on_lanes(3, "lane", &items, |&i| i * i);
/// assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn on_lanes<T: Sync, R: Send>(
    lanes: usize,
    span: &'static str,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let lanes = lanes.clamp(1, items.len().max(1));
    let lane = |l: usize| -> Vec<(usize, R)> {
        let picked = items.iter().enumerate().skip(l).step_by(lanes);
        picked.map(|(i, item)| (i, f(item))).collect()
    };
    let mut out = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes)
            .map(|l| {
                s.spawn(move || {
                    let _span = codelayout_obs::span(span);
                    lane(l)
                })
            })
            .collect();
        let mut out = lane(0);
        for h in helpers {
            out.extend(h.join().expect("lane panicked"));
        }
        out
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Replays `trace` into every worker on its own scoped thread, calling
/// `finish` on each worker after its last record, and hands the workers
/// back for result collection.
///
/// Workers time themselves into a private lock-free shard (queue wait =
/// spawn-to-start latency, plus replay duration) which is merged into
/// the global registry at join time; the per-event replay path stays
/// untouched.
fn replay_workers<W, F>(trace: &FrozenTrace, workers: Vec<W>, finish: F) -> Vec<W>
where
    W: TraceSink + Send,
    F: Fn(&mut W) + Sync,
{
    let m = codelayout_obs::metrics();
    let enqueue_ns = codelayout_obs::now_ns();
    let finish = &finish;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                let trace = trace.clone();
                s.spawn(move || {
                    let _worker_span = codelayout_obs::span("sweep_worker");
                    let start_ns = codelayout_obs::now_ns();
                    trace.replay(&mut w);
                    finish(&mut w);
                    let mut shard = codelayout_obs::MetricsShard::new();
                    shard.observe(
                        "sweep.queue_wait_us",
                        start_ns.saturating_sub(enqueue_ns) / 1_000,
                    );
                    shard.observe(
                        "sweep.worker_us",
                        codelayout_obs::now_ns().saturating_sub(start_ns) / 1_000,
                    );
                    shard.add("sweep.events_replayed", trace.len() as u64);
                    (w, shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (w, metrics_shard) = h.join().expect("sweep worker panicked");
                m.merge_shard(&metrics_shard);
                w
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::sweep::SweepSink;
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
}
