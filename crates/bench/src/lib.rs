//! Experiment harness reproducing the paper's evaluation.
//!
//! [`driver::FIGURES`] lists every measurement of the evaluation, each
//! with the harness it runs on: the paper's Figs. 3–15, `claims` for the
//! in-text numeric claims, the `compare` and `fig_static` tables, the
//! serving loop, the autotuner, the `ablations` (the CFA layout, sampled
//! profiles and the multiprocessor speedup) and the `layout_lint` gate.
//! Hot/cold vs fine-grain splitting is `fig07` next to `compare`. The
//! one binary, `run_all [FIGURE…]`, runs all of them, or the named ones,
//! in one process, sharing workload runs between figures, and writes
//! `results/<figure>.json` files, human-readable tables and one run
//! manifest. Timings belong to the benchmark crate, not here.
//!
//! The harness measures a code layout in one way: one live pass of the
//! VM straight into the simulators a figure reads, recording nothing.
//! What the pass feeds is its depth, and each depth feeds everything the
//! shallower ones do:
//!
//! * *light* — the 128-byte 4-way user size sweep (Figs. 7, 12, 13) and
//!   the user/kernel fetch counts. Every request but the two below.
//! * *timed* — plus the Fig. 15 timing models' 21264- and 21164-like
//!   hierarchies, for the requests [`Harness::timing`] reads.
//! * *full* — plus the direct-mapped line-size grid (Figs. 4/5), the
//!   combined and kernel size sweeps (Figs. 12, 13), the sequence
//!   profiler (Fig. 8), the locality cache (Figs. 9–11), the footprint
//!   counter (packing claims) and the SimOS memory hierarchy (Fig. 14).
//!   The bare `base` and `all` requests, which those figures read.
//!
//! A cached measurement serves any depth up to its own; a deeper request
//! measures the layout again and replaces it. [`Harness::prefetch`]
//! measures a figure's requests on parallel lanes, one live pass per
//! request.
//!
//! Every grid is named by a [`codelayout_memsim::SweepSpec`] and fed
//! through a [`GridSink`], the single-pass stack-distance profiler (one
//! profiler per line size answers every size × associativity in one
//! pass). The tests hold every measurement to a serial replay into
//! memsim's direct per-configuration oracle. The lane count honors
//! `CODELAYOUT_THREADS`; results do not depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod figures;
pub mod lint;

use codelayout_core::{exttsp_score, LayoutRequest, OptimizationSet};
use codelayout_ir::Layout;
use codelayout_memsim::{
    CacheConfig, FootprintCounter, GridSink, HierarchyConfig, HierarchyStats, LocalityCache,
    LocalityStats, MemoryHierarchy, SequenceProfiler, SequenceStats, StreamFilter, SweepCell,
    SweepSpec,
};
use codelayout_oltp::{build_study, RunOutcome, Scenario, Study};
use codelayout_timing::TimingModel;
use codelayout_vm::{CountingSink, DataRecord, FetchRecord, TeeSink, TraceSink};
use std::collections::HashMap;
use std::path::PathBuf;

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
    /// The application layout the measured image was linked from, as
    /// built once for this request (the `compare` figure lints it).
    pub layout: Layout,
    /// Text size of the linked image in bytes.
    pub text_bytes: u64,
    /// ext-TSP objective score of the application layout under the
    /// measured profile, whichever profile built it: the one yardstick
    /// every series is judged by.
    pub exttsp_score: u64,
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
    /// The Fig. 15 timing models' hierarchy counters (timed and full
    /// runs only; see [`Harness::timing`]).
    pub timing: Option<TimingData>,
    /// Application instructions fetched during measurement.
    pub user_fetches: u64,
    /// Kernel instructions fetched during measurement.
    pub kernel_fetches: u64,
    /// The run outcome (instruction counts, invariants).
    pub outcome: RunOutcome,
}

impl LayoutData {
    /// The depth this measurement was taken at.
    fn depth(&self) -> Depth {
        if self.hier_simos.is_some() {
            Depth::Full
        } else if self.timing.is_some() {
            Depth::Timed
        } else {
            Depth::Light
        }
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

/// How much of a layout one live pass measures; each depth measures
/// everything the shallower ones do (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Depth {
    /// The user size sweep and the fetch counts.
    Light,
    /// Plus the Fig. 15 timing hierarchies.
    Timed,
    /// Plus every other grid and collector.
    Full,
}

impl Depth {
    /// The depth `req` needs: full for [`full_requests`], light otherwise.
    fn of(req: &LayoutRequest) -> Depth {
        if full_requests().contains(req) {
            Depth::Full
        } else {
            Depth::Light
        }
    }
}

/// The bare `base` and `all` requests, whose collectors and full grids
/// the figures read, so the harness measures them at full depth. A
/// figure that reads them prefetches both, so they are measured side by
/// side on two lanes.
pub(crate) fn full_requests() -> [LayoutRequest; 2] {
    [OptimizationSet::BASE.into(), OptimizationSet::ALL.into()]
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

/// The grids and collectors only a full measurement feeds.
struct FullSink {
    dm_grid_user: GridSink,
    sizes_4w_all: GridSink,
    sizes_4w_kernel: GridSink,
    seq_user: SequenceProfiler,
    locality: LocalityCache,
    footprint: FootprintCounter,
    hier_simos: MemoryHierarchy,
}

impl FullSink {
    fn new(num_cpus: usize) -> Self {
        let grid = |spec: SweepSpec| GridSink::new(&spec);
        FullSink {
            dm_grid_user: grid(
                SweepSpec::paper_grid(1)
                    .cpus(num_cpus)
                    .filter(StreamFilter::UserOnly),
            ),
            sizes_4w_all: grid(sizes_4w_spec(num_cpus, StreamFilter::All)),
            sizes_4w_kernel: grid(sizes_4w_spec(num_cpus, StreamFilter::KernelOnly)),
            seq_user: SequenceProfiler::new(StreamFilter::UserOnly),
            locality: LocalityCache::new(locality_config(), StreamFilter::UserOnly),
            footprint: FootprintCounter::new(128, StreamFilter::UserOnly),
            hier_simos: MemoryHierarchy::new(HierarchyConfig::simos_base(num_cpus)),
        }
    }

    /// Fills `data`'s full-run fields.
    fn finish_into(self, data: &mut LayoutData) {
        data.dm_grid_user = self.dm_grid_user.finish();
        data.sizes_4w_all = self.sizes_4w_all.finish();
        data.sizes_4w_kernel = self.sizes_4w_kernel.finish();
        data.seq_user = Some(self.seq_user.finish());
        data.locality = Some(self.locality.finish());
        data.footprint_line_bytes = Some(self.footprint.line_footprint_bytes());
        data.footprint_instr_bytes = Some(self.footprint.instr_footprint_bytes());
        data.hier_simos = Some(*self.hier_simos.stats());
    }
}

impl TraceSink for FullSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        self.dm_grid_user.fetch(rec);
        self.sizes_4w_all.fetch(rec);
        self.sizes_4w_kernel.fetch(rec);
        self.seq_user.fetch(rec);
        self.locality.fetch(rec);
        self.footprint.fetch(rec);
        self.hier_simos.fetch(rec);
    }

    // The hierarchy is the only consumer of data references.
    #[inline]
    fn data(&mut self, rec: DataRecord) {
        self.hier_simos.data(rec);
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        self.dm_grid_user.fetch_run(first, n);
        self.sizes_4w_all.fetch_run(first, n);
        self.sizes_4w_kernel.fetch_run(first, n);
        self.seq_user.fetch_run(first, n);
        self.locality.fetch_run(first, n);
        self.footprint.fetch_run(first, n);
        self.hier_simos.fetch_run(first, n);
    }
}

/// The timing models' two hierarchies, 21264-like first.
type TimingSink = TeeSink<MemoryHierarchy, MemoryHierarchy>;

/// The live pass's sink at one [`Depth`]: the light sinks always, the
/// deeper ones when the depth asks for them.
struct LiveSink {
    counts: CountingSink,
    sizes_4w_user: GridSink,
    timing: Option<TimingSink>,
    full: Option<FullSink>,
}

impl LiveSink {
    fn new(num_cpus: usize, depth: Depth) -> Self {
        LiveSink {
            counts: CountingSink::default(),
            sizes_4w_user: GridSink::new(&sizes_4w_spec(num_cpus, StreamFilter::UserOnly)),
            timing: (depth >= Depth::Timed).then(|| {
                TeeSink(
                    MemoryHierarchy::new(TimingModel::hierarchy_21264(num_cpus)),
                    MemoryHierarchy::new(TimingModel::hierarchy_21164(num_cpus)),
                )
            }),
            full: (depth == Depth::Full).then(|| FullSink::new(num_cpus)),
        }
    }
}

impl TraceSink for LiveSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        self.counts.fetch(rec);
        self.sizes_4w_user.fetch(rec);
        if let Some(t) = &mut self.timing {
            t.fetch(rec);
        }
        if let Some(f) = &mut self.full {
            f.fetch(rec);
        }
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        if let Some(t) = &mut self.timing {
            t.data(rec);
        }
        if let Some(f) = &mut self.full {
            f.data(rec);
        }
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        self.counts.fetch_run(first, n);
        self.sizes_4w_user.fetch_run(first, n);
        if let Some(t) = &mut self.timing {
            t.fetch_run(first, n);
        }
        if let Some(f) = &mut self.full {
            f.fetch_run(first, n);
        }
    }
}

/// Measures `req` at `depth`: builds and scores its layout once, then
/// runs one live pass of its measured phase into a [`LiveSink`],
/// asserted correct, recording the run's `vm.run.<name>.insts_per_sec`
/// gauge.
fn measure(study: &Study, req: LayoutRequest, depth: Depth) -> LayoutData {
    let _measure_span = codelayout_obs::span("measure");
    let name = req.to_string();
    let layout = study.layout(req);
    let image = study
        .link_validated(&layout)
        .unwrap_or_else(|e| panic!("`{name}` app image: {e}"));
    let mut sink = LiveSink::new(study.scenario.num_cpus, depth);
    let outcome = study.run_measured(&image, &study.base_kernel_image, &mut sink);
    outcome.assert_correct();
    codelayout_obs::metrics().gauge_set(
        &format!("vm.run.{name}.insts_per_sec"),
        outcome.report.instructions as f64 / outcome.run_wall.as_secs_f64().max(1e-9),
    );
    let LiveSink {
        counts,
        sizes_4w_user,
        timing,
        full,
    } = sink;
    let mut data = LayoutData {
        label: name,
        text_bytes: image.text_bytes(),
        exttsp_score: exttsp_score(&study.app.program, &study.profile, &layout),
        layout,
        dm_grid_user: Vec::new(),
        sizes_4w_user: sizes_4w_user.finish(),
        sizes_4w_all: Vec::new(),
        sizes_4w_kernel: Vec::new(),
        seq_user: None,
        locality: None,
        footprint_line_bytes: None,
        footprint_instr_bytes: None,
        hier_simos: None,
        timing: timing.map(|TeeSink(h264, h164)| TimingData {
            hier_21264: *h264.stats(),
            hier_21164: *h164.stats(),
        }),
        user_fetches: counts.fetches - counts.kernel_fetches,
        kernel_fetches: counts.kernel_fetches,
        outcome,
    };
    if let Some(full) = full {
        full.finish_into(&mut data);
    }
    data
}

/// Builds and caches per-layout measurements for one scenario.
pub struct Harness {
    /// The prepared study (workload + profile).
    pub study: Study,
    runs: HashMap<LayoutRequest, LayoutData>,
    out_dir: PathBuf,
    scenario_label: String,
    lanes: usize,
    output_digests: Vec<(String, String)>,
    extra_sections: Vec<(String, serde_json::Value)>,
}

impl Harness {
    /// Builds the study for a scenario, labelled `label` in the run
    /// manifest's `config.scenario`. The results directory defaults to
    /// `results/` under the current directory (created on demand). The
    /// measurement lane count honors `CODELAYOUT_THREADS`, defaulting to
    /// the host's available parallelism.
    pub fn with_label(scenario: &Scenario, label: &str) -> Self {
        Harness {
            study: build_study(scenario),
            runs: HashMap::new(),
            out_dir: PathBuf::from("results"),
            scenario_label: label.to_string(),
            lanes: run_env().sweep_threads(),
            output_digests: Vec::new(),
            extra_sections: Vec::new(),
        }
    }

    /// Registers an extra top-level manifest section (e.g. the serving
    /// loop's `serve` section) to include in the run manifest
    /// ([`driver::Harnesses::write_manifest`]).
    pub fn section(&mut self, key: &str, value: serde_json::Value) {
        self.extra_sections.push((key.to_string(), value));
    }

    /// Extra manifest sections registered with [`Harness::section`], in
    /// registration order.
    pub fn extra_sections(&self) -> &[(String, serde_json::Value)] {
        &self.extra_sections
    }

    /// Builds the scenario selected by `CODELAYOUT_SCENARIO`
    /// (`quick`/`sim`/`hw`; default `sim`).
    pub fn from_env() -> Self {
        Self::with_label(&scenario_from_env(), run_env().scenario.label())
    }

    /// Runs (or returns the cached) measurement for a layout named by
    /// its run name: a series label (`all`, `exttsp`, …), optionally
    /// prefixed `static:` or `sampled:N:` for another profile source.
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
    /// requests are measured at full depth (all four grids and the
    /// collectors), the others light (see the module docs).
    pub fn run_request(&mut self, req: impl Into<LayoutRequest>) -> &LayoutData {
        let req = req.into();
        self.prefetch([req]);
        &self.runs[&req]
    }

    /// Runs (or returns the cached) timing-model measurement for a
    /// layout request: the 21264- and 21164-like hierarchies of
    /// [`TimingModel`] (Fig. 15, the kernel-layout claim), fed by the
    /// request's live pass at timed depth or deeper. Instruction counts
    /// come from the same [`LayoutData`]'s fetch counts or the
    /// hierarchies' own.
    pub fn timing(&mut self, req: impl Into<LayoutRequest>) -> &TimingData {
        let req = req.into();
        self.prefetch_timing([req]);
        self.runs[&req]
            .timing
            .as_ref()
            .expect("a timed measurement carries timing data")
    }

    /// Measures every request in `reqs` not cached at the depth it needs,
    /// so the [`Harness::run_request`] calls that follow are cache hits.
    /// Each request takes one live pass, spread over
    /// `CODELAYOUT_THREADS` lanes: lane 0 is the calling thread and each
    /// other lane a scoped thread under a `measure_lane` root span. Every
    /// measurement is the same whatever the lane count.
    pub fn prefetch(&mut self, reqs: impl IntoIterator<Item = LayoutRequest>) {
        self.prefetch_at(reqs, Depth::Light);
    }

    /// [`Harness::prefetch`] with the timing hierarchies too, so the
    /// [`Harness::timing`] calls that follow are cache hits.
    pub fn prefetch_timing(&mut self, reqs: impl IntoIterator<Item = LayoutRequest>) {
        self.prefetch_at(reqs, Depth::Timed);
    }

    /// Measures each request at `min` or the depth it needs, whichever is
    /// deeper, unless a cached measurement is that deep already; a
    /// shallower cached one is measured again and replaced.
    fn prefetch_at(&mut self, reqs: impl IntoIterator<Item = LayoutRequest>, min: Depth) {
        let mut todo: Vec<(LayoutRequest, Depth)> = Vec::new();
        for req in reqs {
            let depth = Depth::of(&req).max(min);
            let cached = self.runs.get(&req).is_some_and(|d| d.depth() >= depth);
            if !cached && !todo.iter().any(|&(r, _)| r == req) {
                todo.push((req, depth));
            }
        }
        let measured =
            codelayout_memsim::on_lanes(self.lanes, "measure_lane", &todo, |&(req, depth)| {
                measure(&self.study, req, depth)
            });
        self.runs
            .extend(todo.into_iter().map(|(req, _)| req).zip(measured));
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
            "sweep_threads": self.lanes as u64,
            "vm_engine": self.study.machine_config().engine.label(),
        })
    }
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
    use codelayout_vm::{FrozenTrace, TraceBuffer};

    /// Replays `trace` into `sink` and hands it back.
    fn replay<S: TraceSink>(trace: &FrozenTrace, mut sink: S) -> S {
        trace.replay(&mut sink);
        sink
    }

    /// The oracle: `req`'s layout scored under the measured profile, and
    /// its fetch-and-data trace, recorded once and replayed serially into
    /// every grid, collector and timing hierarchy a measurement of any
    /// depth feeds.
    fn replayed(study: &Study, req: LayoutRequest) -> LayoutData {
        let num_cpus = study.scenario.num_cpus;
        let layout = study.layout(req);
        let image = study
            .link_validated(&layout)
            .expect("pipeline layouts validate");
        let score = exttsp_score(&study.app.program, &study.profile, &layout);
        let mut sink = TeeSink(TraceBuffer::new(), CountingSink::default());
        let outcome = study.run_measured(&image, &study.base_kernel_image, &mut sink);
        outcome.assert_correct();
        let TeeSink(trace, counts) = sink;
        let trace = trace.freeze();
        let grid = |spec: SweepSpec| replay(&trace, SweepSink::from_spec(&spec)).results();
        let hier = |cfg: HierarchyConfig| *replay(&trace, MemoryHierarchy::new(cfg)).stats();
        let footprint = replay(&trace, FootprintCounter::new(128, StreamFilter::UserOnly));
        let user = StreamFilter::UserOnly;
        LayoutData {
            label: req.to_string(),
            layout,
            text_bytes: image.text_bytes(),
            exttsp_score: score,
            dm_grid_user: grid(SweepSpec::paper_grid(1).cpus(num_cpus).filter(user)),
            sizes_4w_user: grid(sizes_4w_spec(num_cpus, user)),
            sizes_4w_all: grid(sizes_4w_spec(num_cpus, StreamFilter::All)),
            sizes_4w_kernel: grid(sizes_4w_spec(num_cpus, StreamFilter::KernelOnly)),
            seq_user: Some(replay(&trace, SequenceProfiler::new(user)).finish()),
            locality: Some(replay(&trace, LocalityCache::new(locality_config(), user)).finish()),
            footprint_line_bytes: Some(footprint.line_footprint_bytes()),
            footprint_instr_bytes: Some(footprint.instr_footprint_bytes()),
            hier_simos: Some(hier(HierarchyConfig::simos_base(num_cpus))),
            timing: Some(TimingData {
                hier_21264: hier(TimingModel::hierarchy_21264(num_cpus)),
                hier_21164: hier(TimingModel::hierarchy_21164(num_cpus)),
            }),
            user_fetches: counts.fetches - counts.kernel_fetches,
            kernel_fetches: counts.kernel_fetches,
            outcome,
        }
    }

    /// `all` with the fields a measurement at `depth` leaves empty
    /// cleared.
    fn at_depth(all: &LayoutData, depth: Depth) -> LayoutData {
        let mut d = all.clone();
        if depth < Depth::Timed {
            d.timing = None;
        }
        if depth < Depth::Full {
            d.dm_grid_user.clear();
            d.sizes_4w_all.clear();
            d.sizes_4w_kernel.clear();
            d.seq_user = None;
            d.locality = None;
            d.footprint_line_bytes = None;
            d.footprint_instr_bytes = None;
            d.hier_simos = None;
        }
        d
    }

    /// Asserts two measurements of one request agree on every field but
    /// the wall time.
    fn assert_same_measurement(got: &LayoutData, want: &LayoutData, what: &str) {
        let label = &format!("{} {what}", want.label);
        assert_eq!(got.label, want.label, "{what}");
        assert_eq!(got.layout, want.layout, "{label}");
        assert_eq!(got.text_bytes, want.text_bytes, "{label}");
        assert_eq!(got.exttsp_score, want.exttsp_score, "{label}");
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
        assert_eq!(got.timing, want.timing, "{label}");
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
    fn measurements_equal_a_serial_replay_of_the_recorded_trace() {
        // The request lists of fig07, compare and fig_static, with their
        // overlaps and fig_static's repeated `base`: `base` and `all` are
        // full, the rest light. fig_static's `static:` layouts are scored
        // under the measured profile, not the one that built them.
        let reqs: Vec<LayoutRequest> = figures::paper_requests()
            .chain(LayoutSeries::comparison().map(LayoutRequest::from))
            .chain(
                figures::static_requests()
                    .into_iter()
                    .flat_map(|(m_req, s_req)| [m_req, s_req]),
            )
            .collect();
        let scenario = Scenario::quick();
        let study = build_study(&scenario);
        let replays: HashMap<LayoutRequest, LayoutData> = reqs
            .iter()
            .map(|&req| (req, replayed(&study, req)))
            .collect();
        for d in replays.values() {
            // The hierarchies consume the data events, see every fetch,
            // and the smaller 21164-like L1 misses more.
            assert!(d.hier_simos.expect("replayed").data_accesses > 0);
            let t = d.timing.expect("replayed");
            assert_eq!(t.hier_21264.fetches, d.user_fetches + d.kernel_fetches);
            assert!(t.hier_21164.l1i_misses > t.hier_21264.l1i_misses);
        }
        // 1 and 3 lanes, then the `CODELAYOUT_THREADS` lane count.
        for lanes in [1, 3, run_env().sweep_threads()] {
            let what = format!("on {lanes} lanes");
            let mut h = Harness::with_label(&scenario, "quick");
            h.lanes = lanes;
            h.prefetch(reqs.iter().copied());
            assert_eq!(h.runs.len(), replays.len());
            for req in &reqs {
                let want = at_depth(&replays[req], Depth::of(req));
                assert_same_measurement(&h.runs[req], &want, &what);
            }
            h.prefetch_timing(reqs.iter().copied());
            for req in &reqs {
                let want = at_depth(&replays[req], Depth::of(req).max(Depth::Timed));
                assert_same_measurement(&h.runs[req], &want, &what);
            }
        }
    }

    #[test]
    fn a_timed_request_measures_a_light_entry_again_once() {
        let mut h = Harness::with_label(&Scenario::quick(), "quick");
        let req = LayoutRequest::from(OptimizationSet::CHAIN);
        let light = h.run_request(req).clone();
        assert_eq!(light.depth(), Depth::Light);
        h.timing(req);
        let timed = h.runs[&req].clone();
        assert_eq!(timed.depth(), Depth::Timed);
        // A new pass (its wall time differs) that agrees on every field
        // the light one measured.
        assert_ne!(timed.outcome.run_wall, light.outcome.run_wall);
        assert_same_measurement(&at_depth(&timed, Depth::Light), &light, "timed");
        // From now on both depths are cache hits.
        h.prefetch([req]);
        h.prefetch_timing([req]);
        h.run_request(req);
        h.timing(req);
        assert_eq!(h.runs[&req].outcome.run_wall, timed.outcome.run_wall);
        // A full entry serves timing without another pass.
        let base = h.run("base").outcome.run_wall;
        h.timing(OptimizationSet::BASE);
        assert_eq!(h.runs[&OptimizationSet::BASE.into()].outcome.run_wall, base);
        assert_eq!(h.runs.len(), 2);
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
        assert_eq!(a, series, "default parameters are the bare request");
        assert_ne!(h.study.layout(a), h.study.layout(b));
        let run_a = h.run_request(a);
        assert_eq!(run_a.label, "chain");
        let first = (run_a.text_bytes, run_a.user_fetches);
        let run_b = h.run_request(b);
        assert_eq!(
            run_b.label,
            format!("chain{{chain.min_edge_weight={}}}", u64::MAX)
        );
        assert_ne!(
            (run_b.text_bytes, run_b.user_fetches),
            first,
            "the second parameter point returned the first point's run"
        );
        assert_eq!(h.runs.len(), 2);
    }
}
