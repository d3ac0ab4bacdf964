//! Experiment harness reproducing the paper's evaluation.
//!
//! Every figure of the paper has a binary in `src/bin/` (`fig03` …
//! `fig15`, plus `claims` for the in-text numeric claims and several
//! `ablation_*` binaries for design-choice studies). `run_all` executes
//! the whole evaluation in one process, sharing workload runs between
//! figures, and writes `results/figNN.json` files plus human-readable
//! tables.
//!
//! The harness runs each code layout **once**, in one of two ways.
//!
//! * The fully-instrumented layouts (`base` and `all`) record: the live
//!   pass is the VM feeding a [`codelayout_vm::TraceBuffer`] that records
//!   every instruction fetch and data reference (8 bytes per event), plus
//!   a fetch counter. Everything else *replays* the frozen trace in one
//!   walk of a [`ParallelSweep`] pool: the cache grids — the
//!   direct-mapped line-size grid (Fig. 4/5) and the 128-byte 4-way size
//!   sweeps for user/kernel/combined streams (Figs. 6, 7, 12, 13) —
//!   sharded across the workers, and the order-sensitive collectors —
//!   the sequence profiler (Fig. 8), the locality cache (Figs. 9–11), the
//!   footprint counter (packing claims) and the SimOS memory hierarchy
//!   (Fig. 14) — each as one [`codelayout_memsim::Collector`] job that a
//!   worker feeds, with every event in recorded order.
//! * Every other layout is *light*: it needs only the user size sweep, so
//!   its live pass streams the VM straight into a serial
//!   [`codelayout_memsim::GridSink`] and the fetch counter, and records
//!   nothing. [`Harness::prefetch`] measures a figure's light layouts on
//!   parallel lanes, one live pass per layout.
//!
//! Every grid is named by a [`codelayout_memsim::SweepSpec`]; the engine
//! is the single-pass stack-distance profiler by default (one Mattson
//! stack per line size answers every size × associativity at once). The
//! direct per-configuration simulator, selected by
//! `CODELAYOUT_SWEEP_ENGINE`, is bit-identical by construction and serves
//! as the test oracle; no run replays a layout on both engines. The pool
//! size and the lane count honor `CODELAYOUT_THREADS`; results do not
//! depend on it.
//!
//! The Fig. 15 timing models' 21264- and 21164-like hierarchies are not
//! part of a layout's measurement: [`Harness::timing`] runs the VM once
//! more into just those two, for the layouts that need them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod lint;

use codelayout_core::{LayoutRequest, OptimizationSet};
use codelayout_ir::Image;
use codelayout_memsim::{
    CacheConfig, Collector, FootprintCounter, GridSink, HierarchyConfig, HierarchyStats,
    LocalityCache, LocalityStats, MemoryHierarchy, ParallelSweep, SequenceProfiler, SequenceStats,
    StreamFilter, SweepCell, SweepEngine, SweepSpec,
};
use codelayout_oltp::{build_study, RunOutcome, Scenario, Study};
use codelayout_timing::TimingModel;
use codelayout_vm::{CountingSink, FrozenTrace, TeeSink, TraceBuffer, TraceSink, VmEngine};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

pub use codelayout_memsim::{run_env, RunEnv, LINES_B, SIZES_KB};
pub use codelayout_obs::ScenarioSel;

/// The locality-metrics configuration used by Figures 9–11 (and 13):
/// 128 KB, 128-byte lines, 4-way.
pub fn locality_config() -> CacheConfig {
    CacheConfig::new(128 * 1024, 128, 4)
}

/// Everything measured for one code layout.
#[derive(Debug, Clone)]
pub struct LayoutData {
    /// Layout label (paper's x-axis names).
    pub label: String,
    /// Text size of the linked image in bytes.
    pub text_bytes: u64,
    /// Direct-mapped size × line grid, application stream only (full runs
    /// only).
    pub dm_grid_user: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, application stream.
    pub sizes_4w_user: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, combined stream (full runs only).
    pub sizes_4w_all: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, kernel stream (full runs only).
    pub sizes_4w_kernel: Vec<SweepCell>,
    /// Sequential run lengths, application stream (full runs only).
    pub seq_user: Option<SequenceStats>,
    /// Word-use / reuse / lifetime metrics at [`locality_config`]
    /// (full runs only).
    pub locality: Option<LocalityStats>,
    /// Unique 128 B lines touched by the application stream, in bytes.
    pub footprint_line_bytes: Option<u64>,
    /// Unique application instructions executed, in bytes.
    pub footprint_instr_bytes: Option<u64>,
    /// Paper base SimOS hierarchy counters (full runs only).
    pub hier_simos: Option<HierarchyStats>,
    /// Application instructions fetched during measurement.
    pub user_fetches: u64,
    /// Kernel instructions fetched during measurement.
    pub kernel_fetches: u64,
    /// The run outcome (instruction counts, invariants).
    pub outcome: RunOutcome,
}

impl LayoutData {
    /// A measurement with only the user size sweep and the fetch counts;
    /// the full-run grids and collectors stay empty.
    fn light(
        label: &str,
        image: &Image,
        counts: CountingSink,
        outcome: RunOutcome,
        sizes_4w_user: Vec<SweepCell>,
    ) -> Self {
        LayoutData {
            label: label.to_string(),
            text_bytes: image.text_bytes(),
            dm_grid_user: Vec::new(),
            sizes_4w_user,
            sizes_4w_all: Vec::new(),
            sizes_4w_kernel: Vec::new(),
            seq_user: None,
            locality: None,
            footprint_line_bytes: None,
            footprint_instr_bytes: None,
            hier_simos: None,
            user_fetches: counts.fetches - counts.kernel_fetches,
            kernel_fetches: counts.kernel_fetches,
            outcome,
        }
    }
}

/// The 128 B / 4-way size-sweep spec shared by several figures
/// (Figures 6, 7, 12, 13).
fn sizes_4w_spec(num_cpus: usize, filter: StreamFilter) -> SweepSpec {
    SweepSpec::grid()
        .sizes_kb(&SIZES_KB)
        .line_b(128)
        .ways(4)
        .cpus(num_cpus)
        .filter(filter)
}

/// The order-sensitive collectors a fully-instrumented layout replays
/// on the sweep pool, one of each [`Collector`] kind.
fn full_run_collectors(num_cpus: usize) -> Vec<Collector> {
    vec![
        Collector::Hierarchy(MemoryHierarchy::new(HierarchyConfig::simos_base(num_cpus))),
        Collector::Locality(LocalityCache::new(
            locality_config(),
            StreamFilter::UserOnly,
        )),
        Collector::Sequence(SequenceProfiler::new(StreamFilter::UserOnly)),
        Collector::Footprint(FootprintCounter::new(128, StreamFilter::UserOnly)),
    ]
}

/// The live pass's sink: the fetch-and-data trace recording (pre-sized
/// for `reserve` events) plus the user/kernel fetch counts.
fn live_sink(reserve: usize) -> TeeSink<TraceBuffer, CountingSink> {
    let mut trace = TraceBuffer::new();
    trace.reserve(reserve);
    TeeSink(trace, CountingSink::default())
}

/// True for the requests the harness instruments fully: the bare `base`
/// and `all` layouts, whose collectors and full grids the figures read.
fn is_full(req: &LayoutRequest) -> bool {
    [OptimizationSet::BASE, OptimizationSet::ALL]
        .into_iter()
        .any(|set| *req == set.into())
}

/// Runs the measured phase of `image` into `sink`, asserts it correct
/// and records its `vm.run.<name>.insts_per_sec` gauge.
fn run_live<S: TraceSink>(
    study: &Study,
    name: &str,
    image: &Arc<Image>,
    sink: &mut S,
) -> RunOutcome {
    let outcome = study.run_measured(image, &study.base_kernel_image, sink);
    outcome.assert_correct();
    codelayout_obs::metrics().gauge_set(
        &format!("vm.run.{name}.insts_per_sec"),
        outcome.report.instructions as f64 / outcome.run_wall.as_secs_f64().max(1e-9),
    );
    outcome
}

/// A light request's measurement: one live pass on the calling thread,
/// the VM feeding the user size sweep and the fetch counter directly.
fn measure_light(study: &Study, engine: SweepEngine, req: LayoutRequest) -> LayoutData {
    let _measure_span = codelayout_obs::span("measure");
    let name = &req.to_string();
    let image = study.image(req);
    let spec = sizes_4w_spec(study.scenario.num_cpus, StreamFilter::UserOnly);
    let mut sink = TeeSink(GridSink::new(&spec, engine), CountingSink::default());
    let outcome = run_live(study, name, &image, &mut sink);
    let TeeSink(grid, counts) = sink;
    LayoutData::light(name, &image, counts, outcome, grid.finish())
}

/// Replay throughput gauges for one fully-instrumented layout: the whole
/// pool walk (grids and collectors, `secs` long) and each grid job, in
/// the job order [`Harness::measure_full`] builds.
fn record_replay_metrics(
    name: &str,
    (user_fetches, kernel_fetches): (u64, u64),
    jobs: &[SweepSpec; 4],
    secs: f64,
) {
    const JOB_LABELS: [&str; 4] = ["sizes4w_user", "dm_user", "sizes4w_all", "sizes4w_kernel"];
    let m = codelayout_obs::metrics();
    let secs = secs.max(1e-9);
    m.gauge_set(
        &format!("replay.{name}.insts_per_sec"),
        (user_fetches + kernel_fetches) as f64 / secs,
    );
    for (label, job) in JOB_LABELS.into_iter().zip(jobs) {
        let events = match job.stream() {
            StreamFilter::UserOnly => user_fetches,
            StreamFilter::KernelOnly => kernel_fetches,
            StreamFilter::All => user_fetches + kernel_fetches,
        };
        m.gauge_set(
            &format!("replay.{name}.{label}.insts_per_sec"),
            events as f64 / secs,
        );
        m.gauge_set(
            &format!("replay.{name}.{label}.shards"),
            job.shard_count() as f64,
        );
    }
}

/// The Fig. 15 timing models' machines, fed by one measured run of a
/// layout (see [`Harness::timing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingData {
    /// 21264-like hierarchy counters.
    pub hier_21264: HierarchyStats,
    /// 21164-like hierarchy counters.
    pub hier_21164: HierarchyStats,
}

/// Wall-clock measurement of one layout's measured run on both VM
/// execution tiers: the block-compiled engine vs the interpreter
/// oracle executing the identical workload into the identical sink
/// (the live pass's trace recording and fetch counter), asserted to
/// produce a bit-identical trace and outcome.
#[derive(Debug, Clone, Copy)]
pub struct VmTiming {
    /// Instructions the measured phase executed (identical on both tiers).
    pub instructions: u64,
    /// Wall-clock seconds of the measured phase on the interpreter.
    pub interp_secs: f64,
    /// Wall-clock seconds of the measured phase on the block engine.
    pub block_secs: f64,
    /// Compiled code-cache footprint of the block run: `(runs, bytes)`.
    pub cache: (usize, usize),
}

impl VmTiming {
    /// Measured execution-tier speedup (interpreter time / block time).
    pub fn speedup(&self) -> f64 {
        if self.block_secs > 0.0 {
            self.interp_secs / self.block_secs
        } else {
            1.0
        }
    }

    /// Instruction throughput of the block engine, instructions/second.
    pub fn block_ips(&self) -> f64 {
        self.instructions as f64 / self.block_secs.max(1e-9)
    }

    /// Instruction throughput of the interpreter, instructions/second.
    pub fn interp_ips(&self) -> f64 {
        self.instructions as f64 / self.interp_secs.max(1e-9)
    }
}

/// Builds and caches per-layout measurements for one scenario.
pub struct Harness {
    /// The prepared study (workload + profile).
    pub study: Study,
    runs: HashMap<LayoutRequest, LayoutData>,
    timings: HashMap<LayoutRequest, TimingData>,
    out_dir: PathBuf,
    scenario_label: String,
    sweeper: ParallelSweep,
    vm_timing: Option<VmTiming>,
    output_digests: Vec<(String, String)>,
    extra_sections: Vec<(String, serde_json::Value)>,
    /// Largest trace length seen so far; pre-sizes the next
    /// layout's trace buffer so growth reallocs don't land inside the
    /// timed measured run.
    expected_events: usize,
}

impl Harness {
    /// Builds the study for a scenario. The results directory defaults to
    /// `results/` under the current directory (created on demand). The
    /// sweep worker count and the measurement lane count honor
    /// `CODELAYOUT_THREADS`, defaulting to the host's available
    /// parallelism. The scenario label (used for the run
    /// manifest's `results/<scenario>/` directory) defaults to the
    /// `CODELAYOUT_SCENARIO` selection; use [`Harness::with_label`] when
    /// the scenario was chosen some other way.
    pub fn new(scenario: &Scenario) -> Self {
        Self::with_label(scenario, scenario_label_from_env())
    }

    /// Like [`Harness::new`] with an explicit scenario label.
    pub fn with_label(scenario: &Scenario, label: &str) -> Self {
        Harness {
            study: build_study(scenario),
            runs: HashMap::new(),
            timings: HashMap::new(),
            out_dir: PathBuf::from("results"),
            scenario_label: label.to_string(),
            sweeper: ParallelSweep::from_env(),
            vm_timing: None,
            output_digests: Vec::new(),
            extra_sections: Vec::new(),
            expected_events: 0,
        }
    }

    /// The scenario label used for the manifest directory.
    pub fn scenario_label(&self) -> &str {
        &self.scenario_label
    }

    /// Registers an extra top-level manifest section (e.g. the serving
    /// loop's `serve` section) to include in [`Harness::write_manifest`].
    pub fn section(&mut self, key: &str, value: serde_json::Value) {
        self.extra_sections.push((key.to_string(), value));
    }

    /// Extra manifest sections registered with [`Harness::section`], in
    /// registration order.
    pub fn extra_sections(&self) -> &[(String, serde_json::Value)] {
        &self.extra_sections
    }

    /// FNV-1a digests of every JSON result this harness has written, in
    /// write order, as `(file name, digest)` pairs.
    pub fn output_digests(&self) -> &[(String, String)] {
        &self.output_digests
    }

    /// Timing of the first fully-instrumented layout's measured run on
    /// both VM execution tiers (block-compiled vs interpreter oracle,
    /// asserted trace-identical). `None` until a full layout has been
    /// measured.
    pub fn vm_timing(&self) -> Option<&VmTiming> {
        self.vm_timing.as_ref()
    }

    /// Builds the scenario selected by `CODELAYOUT_SCENARIO`
    /// (`quick`/`sim`/`hw`; default `sim`).
    pub fn from_env() -> Self {
        let sc = scenario_from_env();
        Self::new(&sc)
    }

    /// Runs (or returns the cached) measurement for a layout named by
    /// its run name: a series label (`all`, `exttsp`, …), optionally
    /// prefixed `measured:` or `static:` to pin the profile source.
    ///
    /// # Panics
    /// Panics on a name [`LayoutRequest`] does not parse.
    pub fn run(&mut self, name: &str) -> &LayoutData {
        let req: LayoutRequest = name.parse().unwrap_or_else(|e| panic!("{e}"));
        self.run_request(req)
    }

    /// Runs (or returns the cached) measurement for a layout request.
    /// Requests that differ in any field — series, profile source or
    /// parameters — are measured separately. The bare `base` and `all`
    /// requests are fully instrumented (all four grids and the
    /// collectors); others measure only the user size sweep, in one live
    /// pass on the calling thread (see [`Harness::prefetch`]).
    pub fn run_request(&mut self, req: impl Into<LayoutRequest>) -> &LayoutData {
        let req = req.into();
        self.prefetch([req]);
        &self.runs[&req]
    }

    /// Measures every request in `reqs` that is not cached yet, so the
    /// [`Harness::run_request`] calls that follow are cache hits. Full
    /// requests record and replay on the pool, one at a time. Light
    /// requests each take one live pass, spread over
    /// [`ParallelSweep::threads`] lanes: lane 0 is the calling thread and
    /// each other lane a scoped thread under a `measure_lane` root span.
    /// Every measurement is the same whatever the lane count.
    pub fn prefetch(&mut self, reqs: impl IntoIterator<Item = LayoutRequest>) {
        let mut light = Vec::new();
        for req in reqs {
            if self.runs.contains_key(&req) || light.contains(&req) {
                continue;
            }
            if is_full(&req) {
                let data = self.measure_full(req);
                self.runs.insert(req, data);
            } else {
                light.push(req);
            }
        }
        let (study, engine) = (&self.study, self.sweeper.engine());
        let measured =
            codelayout_memsim::on_lanes(self.sweeper.threads(), "measure_lane", &light, |&req| {
                measure_light(study, engine, req)
            });
        self.runs.extend(light.into_iter().zip(measured));
    }

    /// Runs (or returns the cached) timing-model measurement for a
    /// layout request: one measured run feeding the 21264- and
    /// 21164-like hierarchies of [`TimingModel`] (Fig. 15, the
    /// kernel-layout claim). Instruction counts come from
    /// [`Harness::run_request`]'s fetch counts or the hierarchies' own.
    pub fn timing(&mut self, req: impl Into<LayoutRequest>) -> &TimingData {
        let req = req.into();
        if !self.timings.contains_key(&req) {
            let _measure_span = codelayout_obs::span("measure");
            let image = self.study.image(req);
            let num_cpus = self.study.scenario.num_cpus;
            let mut sink = TeeSink(
                MemoryHierarchy::new(TimingModel::hierarchy_21264(num_cpus)),
                MemoryHierarchy::new(TimingModel::hierarchy_21164(num_cpus)),
            );
            self.study
                .run_measured(&image, &self.study.base_kernel_image, &mut sink)
                .assert_correct();
            let data = TimingData {
                hier_21264: *sink.0.stats(),
                hier_21164: *sink.1.stats(),
            };
            self.timings.insert(req, data);
        }
        &self.timings[&req]
    }

    /// A fully-instrumented request's measurement: one live pass
    /// recording the trace, then every grid and collector replayed from
    /// it in one walk of the pool.
    fn measure_full(&mut self, req: LayoutRequest) -> LayoutData {
        let _measure_span = codelayout_obs::span("measure");
        let name = &req.to_string();
        let image = self.study.image(req);
        let num_cpus = self.study.scenario.num_cpus;
        let mut sink = live_sink(self.expected_events);
        let outcome = run_live(&self.study, name, &image, &mut sink);
        let TeeSink(trace, counts) = sink;
        let trace = trace.freeze();
        self.expected_events = self.expected_events.max(trace.len());
        if self.vm_timing.is_none() {
            self.vm_oracle_run(name, &image, &trace, counts, &outcome);
        }
        let jobs = [
            sizes_4w_spec(num_cpus, StreamFilter::UserOnly),
            SweepSpec::paper_grid(1)
                .cpus(num_cpus)
                .filter(StreamFilter::UserOnly),
            sizes_4w_spec(num_cpus, StreamFilter::All),
            sizes_4w_spec(num_cpus, StreamFilter::KernelOnly),
        ];
        // The phase timer (not an ad-hoc `Instant` pair) times the replay,
        // so the throughput gauges are exactly what the phase tree and the
        // run manifest show for the same work.
        let replay_span = codelayout_obs::span("replay");
        let (grids, collected) =
            self.sweeper
                .run_collecting(&trace, &jobs, full_run_collectors(num_cpus));
        let secs = replay_span.finish().as_secs_f64();
        let data = LayoutData::light(name, &image, counts, outcome, Vec::new());
        record_replay_metrics(name, (data.user_fetches, data.kernel_fetches), &jobs, secs);
        let (mut hier_simos, mut locality, mut seq_user, mut footprint) = (None, None, None, None);
        for c in collected {
            match c {
                Collector::Hierarchy(c) => hier_simos = Some(*c.stats()),
                Collector::Locality(c) => locality = Some(c.finish()),
                Collector::Sequence(c) => seq_user = Some(c.finish()),
                Collector::Footprint(c) => footprint = Some(c),
            }
        }
        let [sizes_4w_user, dm_grid_user, sizes_4w_all, sizes_4w_kernel]: [Vec<SweepCell>; 4] =
            grids.try_into().expect("one result per grid job");
        LayoutData {
            dm_grid_user,
            sizes_4w_user,
            sizes_4w_all,
            sizes_4w_kernel,
            seq_user,
            locality,
            footprint_line_bytes: footprint
                .as_ref()
                .map(FootprintCounter::line_footprint_bytes),
            footprint_instr_bytes: footprint
                .as_ref()
                .map(FootprintCounter::instr_footprint_bytes),
            hier_simos,
            ..data
        }
    }

    /// Once per evaluation: re-execute the measured run on the *other*
    /// VM execution tier (interpreter oracle vs block-compiled), into the
    /// same kind of sink as the live pass, and assert the recorded
    /// trace (fetches and data references), fetch counts and outcome
    /// are bit-identical — the standing correctness check behind the
    /// engine-speedup number.
    fn vm_oracle_run(
        &mut self,
        name: &str,
        image: &Arc<Image>,
        trace: &FrozenTrace,
        counts: CountingSink,
        outcome: &RunOutcome,
    ) {
        let engine = self.study.machine_config().engine;
        let other = match engine {
            VmEngine::Interp => VmEngine::Block,
            VmEngine::Block => VmEngine::Interp,
        };
        let oracle_span = codelayout_obs::span("oracle_run");
        let mut oracle_sink = live_sink(trace.len());
        let oracle = self.study.run_measured_with(
            image,
            &self.study.base_kernel_image,
            &mut oracle_sink,
            other,
        );
        oracle_span.finish();
        oracle.assert_correct();
        let TeeSink(oracle_trace, oracle_counts) = oracle_sink;
        assert_eq!(
            oracle_trace.freeze(),
            *trace,
            "{name}: {} engine diverged from {} engine",
            other.label(),
            engine.label(),
        );
        assert_eq!(oracle_counts, counts, "{name}: fetch counts diverged");
        assert_eq!(oracle.report, outcome.report, "{name}: reports diverged");
        assert_eq!(
            oracle.invariants, outcome.invariants,
            "{name}: invariants diverged"
        );
        assert_eq!(
            oracle.per_process_txns, outcome.per_process_txns,
            "{name}: per-process transaction counts diverged"
        );
        let (interp_secs, block_secs) = match engine {
            VmEngine::Block => (
                oracle.run_wall.as_secs_f64(),
                outcome.run_wall.as_secs_f64(),
            ),
            VmEngine::Interp => (
                outcome.run_wall.as_secs_f64(),
                oracle.run_wall.as_secs_f64(),
            ),
        };
        // The code cache still holds this image's compiled form (the
        // image `Arc` is alive), so a fresh machine reports it cheaply.
        let cache = self
            .study
            .new_machine_with(image, &self.study.base_kernel_image, 0, VmEngine::Block)
            .0
            .code_cache_stats()
            .unwrap_or((0, 0));
        let timing = VmTiming {
            instructions: outcome.report.instructions,
            interp_secs,
            block_secs,
            cache,
        };
        codelayout_obs::metrics().gauge_set("vm.engine_speedup", timing.speedup());
        self.vm_timing = Some(timing);
    }

    /// Writes a figure's JSON result under the results directory and
    /// records its digest for the run manifest.
    pub fn save_json(&mut self, name: &str, value: &serde_json::Value) {
        let _span = codelayout_obs::span("save");
        let _ = std::fs::create_dir_all(&self.out_dir);
        let path = self.out_dir.join(format!("{name}.json"));
        let text = serde_json::to_string_pretty(value).expect("json");
        self.output_digests.push((
            format!("{name}.json"),
            codelayout_obs::manifest::digest_hex(text.as_bytes()),
        ));
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// The manifest directory for this harness:
    /// `results/<scenario label>/`.
    pub fn manifest_dir(&self) -> PathBuf {
        self.out_dir.join(&self.scenario_label)
    }

    /// The scenario parameters recorded in the run manifest.
    pub fn config_json(&self) -> serde_json::Value {
        let sc = &self.study.scenario;
        serde_json::json!({
            "scenario": self.scenario_label.clone(),
            "num_cpus": sc.num_cpus as u64,
            "processes_per_cpu": sc.processes_per_cpu as u64,
            "profile_txns": sc.profile_txns,
            "warmup_txns": sc.warmup_txns,
            "measure_txns": sc.measure_txns,
            "seed": sc.seed,
            "sweep_threads": self.sweeper.threads() as u64,
            "sweep_engine": self.sweeper.engine().label(),
            "vm_engine": self.study.machine_config().engine.label(),
        })
    }

    /// Writes `results/<scenario>/manifest.json` for a finished run whose
    /// root span was named `tool`: config, phase tree (the `tool` span
    /// must already be closed), metrics snapshot, and the digests of
    /// every JSON result this harness wrote. Returns the manifest path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_manifest(&self, tool: &str) -> std::io::Result<PathBuf> {
        let mut b = codelayout_obs::manifest::ManifestBuilder::new(tool, &self.scenario_label);
        b.config(self.config_json());
        b.phases(codelayout_obs::tracer(), tool);
        b.metrics(codelayout_obs::metrics());
        for (key, value) in &self.extra_sections {
            b.section(key, value.clone());
        }
        for (name, digest) in &self.output_digests {
            b.output(name, digest.clone());
        }
        b.write(&self.manifest_dir())
    }
}

/// True when `--report` was passed on the command line; figure binaries
/// print the tracer's phase-tree report when set.
pub fn report_requested() -> bool {
    std::env::args().any(|a| a == "--report")
}

/// Shared entry point for the single-figure binaries: runs `f` on the
/// env-selected scenario under a root span named `tool`, saves the
/// figure JSON, writes the run manifest, and honors `--report`.
pub fn figure_main(tool: &str, f: fn(&mut Harness) -> serde_json::Value) {
    let root = codelayout_obs::span(tool);
    let mut h = Harness::from_env();
    let v = f(&mut h);
    h.save_json(tool, &v);
    root.finish();
    finish_run(tool, &h);
}

/// Writes the manifest for a finished run (root span `tool` already
/// closed) and prints the phase report when `--report` was passed.
pub fn finish_run(tool: &str, h: &Harness) {
    match h.write_manifest(tool) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }
    if report_requested() {
        print!("{}", codelayout_obs::tracer().render_report());
    }
}

/// The scenario label selected by `CODELAYOUT_SCENARIO`
/// (`quick` / `sim` / `hw`, default `sim`; see [`RunEnv`]).
pub fn scenario_label_from_env() -> &'static str {
    run_env().scenario.label()
}

/// The [`Scenario`] selected by `CODELAYOUT_SCENARIO`
/// (`quick` / `sim` / `hw`, default `sim`; see [`RunEnv`]), with the
/// workload seed replaced by `CODELAYOUT_SEED` when set.
pub fn scenario_from_env() -> Scenario {
    let mut sc = match run_env().scenario {
        ScenarioSel::Quick => Scenario::quick(),
        ScenarioSel::Hw => Scenario::paper_hw(),
        ScenarioSel::Sim => Scenario::paper_sim(),
    };
    if let Some(seed) = run_env().seed {
        sc.seed = seed;
    }
    sc
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(n: u64, d: u64) -> String {
    if d == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * n as f64 / d as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_core::{LayoutParams, LayoutSeries};
    use codelayout_memsim::SweepSink;

    #[test]
    fn pool_replayed_measurement_equals_a_live_feed() {
        // The oracle: every collector and grid of a full measurement fed
        // straight from the VM, as a live pass with no recording would.
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        let num_cpus = h.study.scenario.num_cpus;
        for set in [OptimizationSet::BASE, OptimizationSet::ALL] {
            let image = h.study.image(set);
            let grid = |spec: SweepSpec| SweepSink::from_spec(&spec);
            let mut live = TeeSink(
                TeeSink(
                    TeeSink(
                        MemoryHierarchy::new(HierarchyConfig::simos_base(num_cpus)),
                        LocalityCache::new(locality_config(), StreamFilter::UserOnly),
                    ),
                    TeeSink(
                        SequenceProfiler::new(StreamFilter::UserOnly),
                        FootprintCounter::new(128, StreamFilter::UserOnly),
                    ),
                ),
                TeeSink(
                    TeeSink(
                        grid(sizes_4w_spec(num_cpus, StreamFilter::UserOnly)),
                        grid(
                            SweepSpec::paper_grid(1)
                                .cpus(num_cpus)
                                .filter(StreamFilter::UserOnly),
                        ),
                    ),
                    TeeSink(
                        TeeSink(
                            grid(sizes_4w_spec(num_cpus, StreamFilter::All)),
                            grid(sizes_4w_spec(num_cpus, StreamFilter::KernelOnly)),
                        ),
                        CountingSink::default(),
                    ),
                ),
            );
            let outcome = h
                .study
                .run_measured(&image, &h.study.base_kernel_image, &mut live);
            outcome.assert_correct();
            let TeeSink(TeeSink(TeeSink(hier, locality), TeeSink(seq, fp)), grids) = live;
            let TeeSink(TeeSink(user, dm), TeeSink(TeeSink(all, kernel), counts)) = grids;

            let d = h.run_request(set);
            assert_eq!(d.hier_simos, Some(*hier.stats()));
            assert!(hier.stats().data_accesses > 0);
            assert_eq!(d.locality, Some(locality.finish()));
            assert_eq!(d.seq_user, Some(seq.finish()));
            assert_eq!(d.footprint_line_bytes, Some(fp.line_footprint_bytes()));
            assert_eq!(d.footprint_instr_bytes, Some(fp.instr_footprint_bytes()));
            assert_eq!(d.sizes_4w_user, user.results());
            assert_eq!(d.dm_grid_user, dm.results());
            assert_eq!(d.sizes_4w_all, all.results());
            assert_eq!(d.sizes_4w_kernel, kernel.results());
            assert_eq!(d.user_fetches, counts.fetches - counts.kernel_fetches);
            assert_eq!(d.kernel_fetches, counts.kernel_fetches);
            assert_eq!(d.outcome.report, outcome.report);
        }
    }

    /// Asserts two measurements of one request agree on every field but
    /// the wall time.
    fn assert_same_measurement(got: &LayoutData, want: &LayoutData) {
        let label = &want.label;
        assert_eq!(got.label, *label);
        assert_eq!(got.text_bytes, want.text_bytes, "{label}");
        assert_eq!(got.dm_grid_user, want.dm_grid_user, "{label}");
        assert_eq!(got.sizes_4w_user, want.sizes_4w_user, "{label}");
        assert_eq!(got.sizes_4w_all, want.sizes_4w_all, "{label}");
        assert_eq!(got.sizes_4w_kernel, want.sizes_4w_kernel, "{label}");
        assert_eq!(got.seq_user, want.seq_user, "{label}");
        assert_eq!(got.locality, want.locality, "{label}");
        assert_eq!(
            got.footprint_line_bytes, want.footprint_line_bytes,
            "{label}"
        );
        assert_eq!(
            got.footprint_instr_bytes, want.footprint_instr_bytes,
            "{label}"
        );
        assert_eq!(got.hier_simos, want.hier_simos, "{label}");
        assert_eq!(got.user_fetches, want.user_fetches, "{label}");
        assert_eq!(got.kernel_fetches, want.kernel_fetches, "{label}");
        assert_eq!(got.outcome.report, want.outcome.report, "{label}");
        assert_eq!(got.outcome.invariants, want.outcome.invariants, "{label}");
        assert_eq!(
            got.outcome.per_process_txns, want.outcome.per_process_txns,
            "{label}"
        );
    }

    #[test]
    fn prefetched_lanes_equal_a_live_feed_and_a_fresh_run() {
        // The request lists of fig07, compare and fig_static, with their
        // overlaps and fig_static's repeated `base`.
        let reqs: Vec<LayoutRequest> = figures::paper_requests()
            .chain(LayoutSeries::comparison().map(LayoutRequest::from))
            .chain(
                figures::static_requests()
                    .into_iter()
                    .flat_map(|(_, m_req, s_req)| [m_req, s_req]),
            )
            .collect();
        let scenario = Scenario::quick();
        let study = build_study(&scenario);
        let num_cpus = scenario.num_cpus;
        // The oracle: each request's user size sweep and fetch counts fed
        // straight from the VM.
        let live: HashMap<LayoutRequest, _> = reqs
            .iter()
            .map(|&req| {
                let spec = sizes_4w_spec(num_cpus, StreamFilter::UserOnly);
                let mut sink = TeeSink(SweepSink::from_spec(&spec), CountingSink::default());
                let outcome =
                    study.run_measured(&study.image(req), &study.base_kernel_image, &mut sink);
                outcome.assert_correct();
                (req, (sink.0.results(), sink.1, outcome.report))
            })
            .collect();
        for engine in [SweepEngine::Stack, SweepEngine::Direct] {
            let mut fresh = Harness::with_label(&scenario, "quick");
            fresh.sweeper = ParallelSweep::new(1).with_engine(engine);
            // 1 and 3 lanes, then the `CODELAYOUT_THREADS` lane count.
            for threads in [1, 3, ParallelSweep::from_env().threads()] {
                let mut h = Harness::with_label(&scenario, "quick");
                h.sweeper = ParallelSweep::new(threads).with_engine(engine);
                h.prefetch(reqs.iter().copied());
                assert_eq!(h.runs.len(), live.len());
                for req in &reqs {
                    let d = &h.runs[req];
                    let (user, counts, report) = &live[req];
                    assert_eq!(d.sizes_4w_user, *user, "{req} on {threads} lanes");
                    assert_eq!(d.user_fetches, counts.fetches - counts.kernel_fetches);
                    assert_eq!(d.kernel_fetches, counts.kernel_fetches);
                    assert_eq!(d.outcome.report, *report);
                    assert_eq!(d.hier_simos.is_some(), is_full(req), "{req}");
                    assert_same_measurement(d, fresh.run_request(*req));
                }
            }
        }
    }

    #[test]
    fn timing_equals_a_live_feed_of_both_hierarchies() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        let num_cpus = h.study.scenario.num_cpus;
        let req = LayoutRequest::from(OptimizationSet::CHAIN);
        let mut live = TeeSink(
            MemoryHierarchy::new(TimingModel::hierarchy_21264(num_cpus)),
            MemoryHierarchy::new(TimingModel::hierarchy_21164(num_cpus)),
        );
        h.study
            .run_measured(&h.study.image(req), &h.study.base_kernel_image, &mut live)
            .assert_correct();

        let t = *h.timing(req);
        assert_eq!(t.hier_21264, *live.0.stats());
        assert_eq!(t.hier_21164, *live.1.stats());
        assert!(t.hier_21164.l1i_misses > t.hier_21264.l1i_misses);
        // The hierarchies see every fetch: their count is the light
        // measurement's instruction count.
        let d = h.run_request(req);
        assert_eq!(t.hier_21264.fetches, d.user_fetches + d.kernel_fetches);
        assert!(
            d.hier_simos.is_none(),
            "a light request replays no collectors"
        );
        assert_eq!(*h.timing(req), t);
        assert_eq!(h.timings.len(), 1);
    }

    #[test]
    fn distinct_params_for_one_series_are_distinct_runs() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        // A weight floor above every profiled edge leaves chaining
        // nothing to merge, so the two points link different text.
        let series = LayoutRequest::from(OptimizationSet::CHAIN);
        let mut unchained = LayoutParams::default();
        unchained.chain.min_edge_weight = u64::MAX;
        let (a, b) = (
            series.with_params(LayoutParams::default()),
            series.with_params(unchained),
        );
        assert_ne!(h.study.layout(a), h.study.layout(b));
        let run_a = h.run_request(a);
        let first = (run_a.text_bytes, run_a.user_fetches);
        let run_b = h.run_request(b);
        assert_eq!(run_b.label, "tuned:chain");
        assert_ne!(
            (run_b.text_bytes, run_b.user_fetches),
            first,
            "the second parameter point returned the first point's run"
        );
        assert_eq!(h.runs.len(), 2);
    }
}
