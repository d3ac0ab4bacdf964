//! Per-layer probes: timed calls into each layer's public functions,
//! made from the benchmark's own code so the program needs no spans of
//! its own. Each timed probe is the median of [`REPS`] calls after one
//! warm-up call, except the two heaviest (the harness measurement and
//! the small autotuner run), whose every call starts from a fresh
//! harness or search in a process the workload's entry call has already
//! warmed.
//!
//! The probes run on the `sim` study of the run's seed whatever the
//! workload, so a layer's numbers mean the same thing on every workload.

use crate::child::{serve_setup, threads};
use crate::stats::median;
use codelayout_analysis::{estimate_static_profile, lint_layout, validate_translation, LintConfig};
use codelayout_bench::{locality_config, Harness, LINES_B, SIZES_KB};
use codelayout_core::{exttsp_score, LayoutPipeline, LayoutSeries, OptimizationSet};
use codelayout_ir::link::link;
use codelayout_ir::Image;
use codelayout_memsim::{
    FootprintCounter, HierarchyConfig, LocalityCache, MemoryHierarchy, ParallelSweep,
    SequenceProfiler, StreamFilter, SweepEngine, SweepSpec,
};
use codelayout_oltp::{build_study, Study};
use codelayout_profile::{
    profile_from_edge_samples, DecayedEdgeCounts, EdgeSampler, PixieCollector,
};
use codelayout_serve::{drain_chunks, run_serve};
use codelayout_timing::TimingModel;
use codelayout_tune::{run_tune, TuneConfig, EVAL_LINE_B, EVAL_WAYS, TUNE_SIZES_KB};
use codelayout_vm::{
    FetchRecord, FrozenTrace, NullHook, NullSink, PairHook, RunReport, TraceBuffer, TraceSink,
    VmEngine, APP_TEXT_BASE,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per probe, after one warm-up call.
pub const REPS: usize = 3;

/// Scheduling chunk of the profiling-run probe, as in `build_study`.
const PROFILE_CHUNK: u64 = 200_000;
/// Sampling period of the serving loop's drift demo.
const SERVE_SAMPLE_PERIOD: u64 = 2;
/// Candidates per family of the autotuner probe. Small, so the probe
/// measures the search's per-candidate cost without the full budget.
const TUNE_PROBE_CANDIDATES: u64 = 6;
/// Replay window of the autotuner probe, in user fetches.
const TUNE_PROBE_WINDOW: u64 = 250_000;
/// Tracer-off/tracer-on pairs of the trace-overhead probe.
const TRACE_PAIRS: usize = 41;

/// Median seconds of `f` over [`REPS`] calls after one warm-up call. `f`
/// returns the seconds it measured, so it can leave untimed set-up out.
fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    f();
    median_unwarmed(f)
}

/// Median seconds of `f` over [`REPS`] calls, without a warm-up call.
fn median_unwarmed(mut f: impl FnMut() -> f64) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&secs)
}

/// Seconds `f` takes; its result goes through `black_box`.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn per_s_millions(events: usize, secs: f64) -> f64 {
    events as f64 / secs / 1e6
}

/// Records the measured run of `image` into a trace buffer.
fn record(study: &Study, image: &std::sync::Arc<Image>, mut buf: TraceBuffer) -> FrozenTrace {
    study
        .run_measured(image, &study.base_kernel_image, &mut buf)
        .assert_correct();
    buf.freeze()
}

/// Runs every probe on `study` (the `sim` study of the run's seed).
pub fn run_all(study: &Study) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    setup_probes(study, &mut out);
    layout_probes(study, &mut out);
    vm_probes(study, &mut out);
    collector_probes(study, &mut out);
    harness_probes(study, &mut out);
    serve_probes(study, &mut out);
    trace_probe(study, &mut out);
    out
}

/// Study generation, the Pixie profiling run and static estimation.
fn setup_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let sc = &study.scenario;
    out.push((
        "oltp.build_study_s",
        median_secs(|| time(|| build_study(sc))),
    ));

    let mut instructions = 0;
    let secs = median_secs(|| {
        let (mut m, _) =
            study.new_machine(&study.base_image, &study.base_kernel_image, sc.profile_txns);
        let mut hook = PairHook(
            PixieCollector::user(study.app.program.blocks.len()),
            PixieCollector::kernel(study.kernel.program.blocks.len()),
        );
        let start = Instant::now();
        let mut report = RunReport::default();
        while m.live_processes() > 0 {
            report.absorb(&m.run_hooked(&mut NullSink, &mut hook, PROFILE_CHUNK));
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(hook);
        instructions = report.instructions;
        secs
    });
    out.push((
        "profile.pixie_minsts_per_s",
        instructions as f64 / secs / 1e6,
    ));

    let ms = 1e3 * median_secs(|| time(|| estimate_static_profile(&study.app.program)));
    out.push(("analysis.static_profile_ms", ms));
}

/// Layout passes, link, validation, scoring, lints and the autotuner.
fn layout_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let program = &study.app.program;
    let profile = &study.profile;
    let build = |series| LayoutPipeline::new(program, profile).build_series(series);
    for (name, series) in [
        (
            "core.all.build_ms",
            LayoutSeries::Paper(OptimizationSet::ALL),
        ),
        ("core.hotcold.build_ms", LayoutSeries::HotCold),
        ("core.exttsp.build_ms", LayoutSeries::ExtTsp),
        ("core.stitcher.build_ms", LayoutSeries::Stitcher),
    ] {
        out.push((name, 1e3 * median_secs(|| time(|| build(series)))));
    }

    let layout = build(LayoutSeries::Paper(OptimizationSet::ALL));
    let image = link(program, &layout, APP_TEXT_BASE).expect("`all` links");
    let ms = |f: &dyn Fn()| 1e3 * median_secs(|| time(f));
    out.push((
        "ir.link_ms",
        ms(&|| {
            black_box(link(program, &layout, APP_TEXT_BASE).expect("`all` links"));
        }),
    ));
    out.push((
        "analysis.validate_ms",
        ms(&|| {
            validate_translation(program, &layout, &image).expect("`all` validates");
        }),
    ));
    let exttsp = build(LayoutSeries::ExtTsp);
    out.push((
        "core.exttsp_score_ms",
        ms(&|| {
            black_box(exttsp_score(program, profile, &exttsp));
        }),
    ));
    let lint_cfg = LintConfig::new(OptimizationSet::ALL);
    out.push((
        "analysis.lint_ms",
        ms(&|| {
            black_box(lint_layout(program, profile, &layout, &image, &lint_cfg));
        }),
    ));

    // The tuner's fitness replay: its first million user fetches of the
    // natural layout, on its oracle grid.
    let window = user_window(study, 1_000_000);
    let spec = SweepSpec::grid()
        .sizes_kb(&TUNE_SIZES_KB)
        .line_b(EVAL_LINE_B)
        .ways(EVAL_WAYS)
        .cpus(study.scenario.num_cpus)
        .filter(StreamFilter::UserOnly);
    let sweeper = ParallelSweep::new(threads());
    let secs = median_secs(|| time(|| sweeper.run_one(&window, &spec)));
    out.push((
        "memsim.sweep_tune.mevents_per_s",
        per_s_millions(window.len(), secs),
    ));

    let cfg = TuneConfig {
        candidates: TUNE_PROBE_CANDIDATES,
        window: TUNE_PROBE_WINDOW,
        sweep_threads: threads(),
        ..TuneConfig::for_scenario(&study.scenario)
    };
    let mut report = None;
    let secs = median_unwarmed(|| {
        let start = Instant::now();
        report = Some(run_tune(study, &cfg));
        start.elapsed().as_secs_f64()
    });
    let report = report.expect("tune probe ran");
    let evaluated: u64 = report.families.iter().map(|f| f.evaluated).sum();
    let hits: u64 = report.families.iter().map(|f| f.cache_hits).sum();
    let rejected: u64 = report.families.iter().map(|f| f.rejected).sum();
    out.push((
        "tune.candidates_per_s",
        report.trajectory.len() as f64 / secs,
    ));
    out.push((
        "tune.cache_hit_frac",
        hits as f64 / (hits + evaluated).max(1) as f64,
    ));
    out.push((
        "tune.reject_frac",
        rejected as f64 / evaluated.max(1) as f64,
    ));
}

/// The first `cap` user fetches of the natural layout's measured run, as
/// the autotuner records them.
fn user_window(study: &Study, cap: usize) -> FrozenTrace {
    struct UserCap(TraceBuffer, usize);
    impl TraceSink for UserCap {
        fn fetch(&mut self, rec: FetchRecord) {
            if !rec.kernel && self.0.len() < self.1 {
                self.0.fetch(rec);
            }
        }
    }
    let mut sink = UserCap(TraceBuffer::fetch_only(), cap);
    study
        .run_measured(&study.base_image, &study.base_kernel_image, &mut sink)
        .assert_correct();
    sink.0.freeze()
}

/// Both VM tiers on the `all` image, into the same sinks: a null sink
/// (execution alone) and a pre-reserved fetch-only trace buffer
/// (execution plus recording). Tiers alternate within each repetition.
fn vm_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let image = study.image_series(LayoutSeries::Paper(OptimizationSet::ALL));
    let kernel = &study.base_kernel_image;
    let events = record(study, &image, TraceBuffer::fetch_only()).len();
    let mut secs = [[0.0f64; REPS]; 4];
    let mut instructions = 0;
    for rep in 0..=REPS {
        for (tier, engine) in [VmEngine::Block, VmEngine::Interp].into_iter().enumerate() {
            let exec = study.run_measured_with(&image, kernel, &mut NullSink, engine);
            exec.assert_correct();
            let mut buf = TraceBuffer::fetch_only();
            buf.reserve(events);
            let rec = study.run_measured_with(&image, kernel, &mut buf, engine);
            rec.assert_correct();
            black_box(buf);
            instructions = exec.report.instructions;
            if rep > 0 {
                secs[tier][rep - 1] = exec.run_wall.as_secs_f64();
                secs[2 + tier][rep - 1] = rec.run_wall.as_secs_f64();
            }
        }
    }
    for (name, s) in [
        "vm.block.exec_minsts_per_s",
        "vm.interp.exec_minsts_per_s",
        "vm.block.record_minsts_per_s",
        "vm.interp.record_minsts_per_s",
    ]
    .into_iter()
    .zip(&secs)
    {
        out.push((name, instructions as f64 / median(s) / 1e6));
    }
}

/// Each live collector of the harness, fed the `all` layout's full fetch
/// and data trace by replay.
fn collector_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let image = study.image_series(LayoutSeries::Paper(OptimizationSet::ALL));
    let trace = record(study, &image, TraceBuffer::new());
    let cpus = study.scenario.num_cpus;
    let replay = |sink: &mut dyn TraceSink| {
        let start = Instant::now();
        trace.replay(sink);
        start.elapsed().as_secs_f64()
    };
    let rate = |secs: f64| per_s_millions(trace.len(), secs);
    let hier = |cfg: fn(usize) -> HierarchyConfig| {
        rate(median_secs(|| {
            let mut h = MemoryHierarchy::new(cfg(cpus));
            let secs = replay(&mut h);
            black_box(h.stats());
            secs
        }))
    };
    out.push((
        "memsim.hier_simos.mevents_per_s",
        hier(HierarchyConfig::simos_base),
    ));
    out.push((
        "memsim.hier_21264.mevents_per_s",
        hier(TimingModel::hierarchy_21264),
    ));
    out.push((
        "memsim.hier_21164.mevents_per_s",
        hier(TimingModel::hierarchy_21164),
    ));
    out.push((
        "memsim.locality.mevents_per_s",
        rate(median_secs(|| {
            let mut c = LocalityCache::new(locality_config(), StreamFilter::UserOnly);
            let secs = replay(&mut c);
            black_box(c.finish());
            secs
        })),
    ));
    out.push((
        "memsim.sequence.mevents_per_s",
        rate(median_secs(|| {
            let mut c = SequenceProfiler::new(StreamFilter::UserOnly);
            let secs = replay(&mut c);
            black_box(c.finish());
            secs
        })),
    ));
    out.push((
        "memsim.footprint.mevents_per_s",
        rate(median_secs(|| {
            let mut c = FootprintCounter::new(128, StreamFilter::UserOnly);
            let secs = replay(&mut c);
            black_box(c.line_footprint_bytes());
            secs
        })),
    ));

    // The four grid jobs the harness replays for a fully instrumented
    // layout, on both sweep engines.
    let fetches = record(study, &image, TraceBuffer::fetch_only());
    let sizes_4w = |filter| {
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .line_b(128)
            .ways(4)
            .cpus(cpus)
            .filter(filter)
    };
    let jobs = [
        sizes_4w(StreamFilter::UserOnly),
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .lines_b(&LINES_B)
            .ways(1)
            .cpus(cpus)
            .filter(StreamFilter::UserOnly),
        sizes_4w(StreamFilter::All),
        sizes_4w(StreamFilter::KernelOnly),
    ];
    for (name, engine) in [
        ("memsim.sweep_stack.mevents_per_s", SweepEngine::Stack),
        ("memsim.sweep_direct.mevents_per_s", SweepEngine::Direct),
    ] {
        let sweeper = ParallelSweep::new(threads()).with_engine(engine);
        let secs = median_secs(|| time(|| sweeper.run(&fetches, &jobs)));
        out.push((name, per_s_millions(fetches.len(), secs)));
    }
}

/// The harness's measurement of one layout: `base` fully instrumented on
/// a fresh harness (with its one-time oracle runs), then `hotcold` with
/// the light collector set.
fn harness_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let mut full = [0.0; REPS];
    let mut light = [0.0; REPS];
    for rep in 0..REPS {
        let mut h = Harness::with_label(&study.scenario, "sim");
        full[rep] = time(|| {
            h.run("base");
        });
        light[rep] = time(|| {
            h.run("hotcold");
        });
    }
    out.push(("bench.measure_full_s", median(&full)));
    out.push(("bench.measure_light_s", median(&light)));
}

/// The in-program tracer's cost where its spans are densest: the `all`
/// layout's build and link (chain, split, layout, verify, porder and link
/// spans in about 10 ms), timed in back-to-back pairs with the tracer
/// off and on, alternating which goes first. The median of the pairs'
/// ratios, so drift in the host's speed cancels within each pair.
fn trace_probe(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let program = &study.app.program;
    let build_link = || {
        let layout = LayoutPipeline::new(program, &study.profile)
            .build_series(LayoutSeries::Paper(OptimizationSet::ALL));
        link(program, &layout, APP_TEXT_BASE).expect("`all` links")
    };
    let ratios: Vec<f64> = (0..TRACE_PAIRS)
        .map(|pair| {
            let mut secs = [0.0; 2];
            let order = if pair % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for traced in order {
                codelayout_obs::tracer().set_enabled(traced);
                secs[usize::from(traced)] = time(build_link);
                codelayout_obs::tracer().set_enabled(false);
            }
            secs[1] / secs[0]
        })
        .collect();
    out.push(("obs.trace_overhead_frac", median(&ratios) - 1.0));
}

/// The serving loop's pieces on one epoch of the drift demo: sampled
/// execution, the epoch's miss replay and a validated re-layout; then
/// the loop itself for its swap count and recovery.
fn serve_probes(study: &Study, out: &mut Vec<(&'static str, f64)>) {
    let program = &study.app.program;
    let all = LayoutSeries::Paper(OptimizationSet::ALL);
    let image = study.image_series(all);
    let epoch_txns = study.scenario.measure_txns;
    let machine = || {
        study
            .new_machine_with(
                &image,
                &study.base_kernel_image,
                epoch_txns,
                VmEngine::default(),
            )
            .0
    };

    let mut instructions = 0;
    let mut sampled = DecayedEdgeCounts::new(1, 2);
    let secs = median_secs(|| {
        let mut m = machine();
        let mut sampler = EdgeSampler::user(SERVE_SAMPLE_PERIOD);
        let start = Instant::now();
        let report = drain_chunks(&mut m, &mut NullSink, &mut sampler, 1);
        let secs = start.elapsed().as_secs_f64();
        instructions = report.instructions;
        sampled = DecayedEdgeCounts::new(1, 2);
        sampled.absorb(&sampler.take_shard());
        secs
    });
    out.push((
        "profile.edge_sampler_minsts_per_s",
        instructions as f64 / secs / 1e6,
    ));

    let mut buf = TraceBuffer::fetch_only();
    drain_chunks(&mut machine(), &mut buf, &mut NullHook, 1);
    let window = buf.freeze();
    let spec = SweepSpec::grid()
        .size_kb(8)
        .line_b(32)
        .ways(1)
        .cpus(study.scenario.num_cpus)
        .filter(StreamFilter::UserOnly);
    let sweeper = ParallelSweep::new(threads());
    let secs = median_secs(|| time(|| sweeper.run_one(&window, &spec)));
    out.push((
        "memsim.sweep_serve.mevents_per_s",
        per_s_millions(window.len(), secs),
    ));

    let ms = 1e3
        * median_secs(|| {
            time(|| {
                let live = profile_from_edge_samples(program, &sampled, SERVE_SAMPLE_PERIOD);
                let layout = LayoutPipeline::new(program, &live).build_series(all);
                let image = link(program, &layout, APP_TEXT_BASE).expect("re-layout links");
                validate_translation(program, &layout, &image).expect("re-layout validates");
            })
        });
    out.push(("serve.swap_ms", ms));

    let (serve_study, cfg) = serve_setup(&study.scenario);
    let report = run_serve(&serve_study, &cfg);
    out.push(("serve.swaps", report.swaps as f64));
    out.push((
        "serve.recovery_milli",
        report.recovery.recovery_milli as f64,
    ));
}
