//! Continuous-profiling serving loop: run a rolling transaction stream,
//! sample control transfers on the live system, detect when the running
//! mix has drifted away from the mix the deployed layout was built for,
//! and hot-swap a freshly optimized [`Image`] at a transaction boundary —
//! every swap gated by translation validation.
//!
//! This is the "online" counterpart to the paper's offline methodology:
//! instead of profile → layout → measure as three separate runs, the
//! serving loop keeps a decayed sampled edge profile
//! ([`codelayout_profile::DecayedEdgeCounts`]) while the system serves
//! transactions, and re-runs the layout pipeline only when the L1
//! distance between the live edge distribution and the layout-time
//! distribution ([`codelayout_profile::edge_l1_milli`]) crosses a
//! threshold.
//!
//! # Protocol (one epoch)
//!
//! 1. **Serve** `epoch_txns` transactions under the currently deployed
//!    image, with an [`codelayout_profile::EdgeSampler`] attached (one
//!    sample every `sample_period` control transfers) and the fetch
//!    stream fed live into the evaluation cache
//!    ([`codelayout_memsim::GridSink`]); nothing is recorded.
//! 2. **Account**: decay the accumulated edge counts, absorb the epoch's
//!    sample shard, and compute the drift score against the reference
//!    distribution the deployed layout was built from.
//! 3. **Decide**: if drift ≥ threshold, rebuild the layout from the
//!    sampled profile and link it through the study's validated build
//!    step ([`codelayout_oltp::Study::link_validated`], which runs
//!    translation validation in every build). Only a validated image is
//!    swapped in, and the swap takes effect at the next epoch boundary
//!    (which is a transaction boundary by construction).
//! 4. **Observe**: every epoch emits a JSONL record through the span
//!    tracer (`ev:"O"`, path `serve/epoch`), updates `serve.*` metrics
//!    (drift gauge, swap-latency histogram, epoch counters), and appends
//!    an [`EpochRecord`] to the final [`ServeReport`].
//!
//! Because the VM's program counters are layout-dependent, the swap is a
//! drain-and-restart: the epoch boundary drains every server process,
//! the shared database (SGA) is snapshotted, and the next epoch starts
//! fresh processes on the new image over the restored snapshot. All
//! architectural state lives in shared memory, so the database carries
//! across epochs while code addresses are free to change.
//!
//! The report ends with a staleness evaluation over the final epoch
//! window: the same window is run again from the same snapshot under the
//! initial (stale) image and the final served image, side by side on
//! [`ServeConfig::sweep_threads`] lanes, and then under an oracle image
//! built from an exact profile of the stale run. [`RecoveryReport`]
//! expresses how much of the stale→oracle miss gap the serving loop
//! recovered, in milli (1000 = all of it).
//!
//! Everything in [`ServeReport::deterministic_json`] is bit-identical
//! across VM engines and lane counts; wall-clock swap
//! latency is reported only through the tracer/metrics side channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use codelayout_core::{LayoutPipeline, LayoutSeries, OptimizationSet};
use codelayout_ir::Image;
use codelayout_memsim::{on_lanes, GridSink, StreamFilter, SweepSpec};
use codelayout_obs::{run_env, VmEngine};
use codelayout_oltp::{drift_schedule, words, BuildError, MixPhase, Scenario, SgaLayout, Study};
use codelayout_profile::{
    edge_l1_milli, profile_from_edge_samples, DecayedEdgeCounts, EdgeSampler, PixieCollector,
};
use codelayout_vm::{ExecHook, Machine, NullHook, NullSink, RunReport, TeeSink, TraceSink};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Scheduling chunk while draining an epoch. Smaller than the study
/// driver's chunk so temporal duty cycling (see [`drain_chunks`]) gets
/// several on/off alternations even within a short epoch.
pub const SAMPLE_CHUNK: u64 = 50_000;
/// Hard per-window instruction ceiling (safety stop against regressions).
const MAX_WINDOW_INSTRS: u64 = 4_000_000_000;

/// Configuration of the serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Transactions served per epoch (re-layout decisions happen at epoch
    /// boundaries, which are transaction boundaries).
    pub epoch_txns: u64,
    /// Sample one of every `sample_period` control transfers while the
    /// sampler is attached.
    pub sample_period: u64,
    /// Temporal duty cycle: the sampler is attached for one of every
    /// `sample_duty` [`SAMPLE_CHUNK`]-instruction scheduling chunks and
    /// fully detached (the VM's zero-overhead null-hook path) for the
    /// rest, the way DCPI-style profilers sample in interrupt-driven
    /// windows rather than watching every event. The effective sampling
    /// period is `sample_period * sample_duty`.
    pub sample_duty: u64,
    /// Re-layout when the live-vs-layout edge-distribution L1 distance
    /// (in milli, 0..=2000) reaches this threshold.
    pub drift_threshold_milli: u64,
    /// Decay numerator applied to accumulated counts each epoch.
    pub decay_num: u64,
    /// Decay denominator; `decay_num / decay_den` is the per-epoch decay.
    pub decay_den: u64,
    /// The phase-shift schedule: each phase pins the variant-table
    /// rotation for a number of epochs.
    pub phases: Vec<MixPhase>,
    /// Layout series rebuilt on drift.
    pub series: LayoutSeries,
    /// VM execution tier for the serving runs.
    pub vm_engine: VmEngine,
    /// Lanes for the staleness evaluation: its stale and served windows
    /// run side by side ([`codelayout_memsim::on_lanes`]). Every window
    /// simulates its cache on the lane that drains it.
    pub sweep_threads: usize,
}

impl ServeConfig {
    /// The bundled phase-shift demonstration for a scenario: one epoch
    /// per `measure_txns` transactions, the [`drift_schedule`] mix
    /// (stable prefix, then the Zipf head rotated halfway), halving
    /// decay, and the paper's full optimization set. The demo samples
    /// densely (period 2, duty 1) so that even the tiny `quick`
    /// scenario yields a few thousand samples per epoch; a production
    /// loop at paper scale would raise the period (e.g.
    /// `CODELAYOUT_SERVE_SAMPLE_PERIOD=64`, the preset the
    /// sampling-overhead guard times at <5% cost), where epochs are
    /// long enough to keep the profile dense. Duty cycling
    /// (`CODELAYOUT_SERVE_SAMPLE_DUTY`) stays at 1: on this VM the
    /// sampler's cost is dominated by the per-sample map insert, not
    /// the countdown, so raising the period beats skipping chunks —
    /// and duty 1 keeps the stream deterministic across engines.
    pub fn drift_demo(scenario: &Scenario) -> Self {
        ServeConfig {
            epoch_txns: scenario.measure_txns.max(1),
            sample_period: 2,
            sample_duty: 1,
            drift_threshold_milli: 400,
            decay_num: 1,
            decay_den: 2,
            phases: drift_schedule(scenario),
            series: LayoutSeries::Paper(OptimizationSet::ALL),
            vm_engine: VmEngine::default(),
            sweep_threads: 1,
        }
    }

    /// [`ServeConfig::drift_demo`] with the `CODELAYOUT_SERVE_*`,
    /// `CODELAYOUT_VM_ENGINE` and `CODELAYOUT_THREADS` environment knobs
    /// applied.
    pub fn from_env(scenario: &Scenario) -> Self {
        let env = run_env();
        let mut cfg = Self::drift_demo(scenario);
        if let Some(n) = env.serve_epoch_txns {
            cfg.epoch_txns = n;
        }
        if let Some(p) = env.serve_sample_period {
            cfg.sample_period = p;
        }
        if let Some(d) = env.serve_sample_duty {
            cfg.sample_duty = d.max(1);
        }
        if let Some(t) = env.serve_drift_threshold {
            cfg.drift_threshold_milli = t;
        }
        cfg.vm_engine = env.vm_engine;
        cfg.sweep_threads = env.sweep_threads();
        cfg
    }

    /// Total epochs across all phases.
    pub fn total_epochs(&self) -> u64 {
        self.phases.iter().map(|p| p.epochs).sum()
    }

    /// Total transactions served by the loop.
    pub fn total_txns(&self) -> u64 {
        self.total_epochs() * self.epoch_txns
    }

    /// The variant-table rotation in effect during an epoch.
    pub fn rotation_for_epoch(&self, epoch: u64) -> usize {
        let mut remaining = epoch;
        for phase in &self.phases {
            if remaining < phase.epochs {
                return phase.rotation;
            }
            remaining -= phase.epochs;
        }
        self.phases.last().map(|p| p.rotation).unwrap_or(0)
    }

    /// The scenario to build the serving study from: `base` with the
    /// warmup folded away and the measured section sized to the full
    /// serving stream (so the SGA history region fits every epoch).
    pub fn serve_scenario(&self, base: &Scenario) -> Scenario {
        Scenario {
            warmup_txns: 0,
            measure_txns: self.total_txns(),
            ..base.clone()
        }
    }

    /// Configuration echo for manifests and figure JSON (deterministic).
    pub fn to_json(&self) -> Value {
        json!({
            "epoch_txns": self.epoch_txns,
            "sample_period": self.sample_period,
            "sample_duty": self.sample_duty,
            "drift_threshold_milli": self.drift_threshold_milli,
            "decay_num": self.decay_num,
            "decay_den": self.decay_den,
            "series": self.series.label(),
            "phases": self.phases.iter().map(|p| json!({
                "epochs": p.epochs,
                "rotation": p.rotation,
            })).collect::<Vec<_>>(),
        })
    }
}

/// One epoch of the serving loop, as recorded in the report, the
/// `serve/epoch` JSONL stream, and the manifest's `serve` section.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index, starting at 0.
    pub epoch: u64,
    /// Variant-table rotation the epoch was served under.
    pub rotation: usize,
    /// First transaction of the epoch (global counter).
    pub start_txn: u64,
    /// One past the last transaction of the epoch.
    pub end_txn: u64,
    /// Instructions executed in the epoch window (user + kernel).
    pub instructions: u64,
    /// Control transfers seen by the sampler.
    pub events: u64,
    /// Samples taken (≈ `events / sample_period`).
    pub samples: u64,
    /// L1 distance (milli) between the live decayed edge distribution
    /// and the distribution the deployed layout was built from.
    pub drift_milli: u64,
    /// Whether the drift detector requested a re-layout this epoch.
    pub relayout: bool,
    /// Whether the candidate image passed translation validation.
    /// Always equals `relayout` unless validation rejected a candidate.
    pub validated: bool,
    /// Whether a new image was swapped in at the end of this epoch.
    pub swapped: bool,
    /// User-stream instruction-cache misses for the epoch window on the
    /// evaluation cache (8 KB direct-mapped, 32 B lines).
    pub misses: u64,
    /// User-stream fetches the evaluation cache saw in the epoch window.
    pub fetches: u64,
    /// Epoch index whose profile built the image this epoch ran under;
    /// `-1` means the initial offline deployment.
    pub layout_epoch: i64,
    /// Host wall time of the re-layout + validation + swap, in
    /// nanoseconds; zero when no re-layout ran. Volatile: excluded from
    /// [`EpochRecord::deterministic_json`] and masked in manifests.
    pub swap_wall_ns: u64,
}

impl EpochRecord {
    /// The record without its volatile wall-clock field — bit-identical
    /// across VM engines and lane counts.
    pub fn deterministic_json(&self) -> Value {
        json!({
            "epoch": self.epoch,
            "rotation": self.rotation,
            "start_txn": self.start_txn,
            "end_txn": self.end_txn,
            "instructions": self.instructions,
            "events": self.events,
            "samples": self.samples,
            "drift_milli": self.drift_milli,
            "relayout": self.relayout,
            "validated": self.validated,
            "swapped": self.swapped,
            "misses": self.misses,
            "fetches": self.fetches,
            "layout_epoch": self.layout_epoch,
        })
    }

    /// The full record, including the volatile swap latency, as streamed
    /// to the `serve/epoch` JSONL channel.
    pub fn event_json(&self) -> Value {
        let mut v = self.deterministic_json();
        if let Value::Object(map) = &mut v {
            map.insert("swap_wall_ns".to_string(), json!(self.swap_wall_ns));
        }
        v
    }
}

/// Staleness evaluation over the final epoch window: the same
/// transactions, run again from the same SGA snapshot, under three images.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Misses under the initial offline deployment (the stale layout).
    pub stale_misses: u64,
    /// Misses under the image the serving loop converged to.
    pub serve_misses: u64,
    /// Misses under the oracle: an offline re-layout from an exact
    /// profile of the window itself.
    pub oracle_misses: u64,
    /// User fetches in the stale window. The served and oracle windows
    /// run the same transactions, but a layout that erases or adds jumps
    /// fetches a few more or fewer instructions.
    pub window_fetches: u64,
    /// Fraction of the stale→oracle miss gap recovered by the serving
    /// loop, in milli, clamped to 0..=2000; 1000 when there is no gap.
    pub recovery_milli: u64,
}

impl RecoveryReport {
    /// Deterministic JSON for figures and manifests.
    pub fn to_json(&self) -> Value {
        json!({
            "stale_misses": self.stale_misses,
            "serve_misses": self.serve_misses,
            "oracle_misses": self.oracle_misses,
            "window_fetches": self.window_fetches,
            "recovery_milli": self.recovery_milli,
        })
    }
}

/// The complete result of a serving-loop run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Configuration echo.
    pub config: ServeConfig,
    /// One record per epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// Epochs whose drift score requested a re-layout.
    pub relayouts: u64,
    /// Re-layouts that validated and were swapped in.
    pub swaps: u64,
    /// Digest of the initial deployed image.
    pub base_image_digest: String,
    /// Digest of the image deployed when the stream ended.
    pub final_image_digest: String,
    /// Staleness evaluation over the final epoch window.
    pub recovery: RecoveryReport,
}

impl ServeReport {
    /// True when every requested re-layout passed translation validation.
    pub fn all_swaps_validated(&self) -> bool {
        self.epochs.iter().all(|e| e.validated == e.relayout)
    }

    /// The report without volatile fields — bit-identical across VM
    /// engines and lane counts for a fixed config.
    pub fn deterministic_json(&self) -> Value {
        json!({
            "config": self.config.to_json(),
            "epochs": self.epochs.iter().map(EpochRecord::deterministic_json)
                .collect::<Vec<_>>(),
            "relayouts": self.relayouts,
            "swaps": self.swaps,
            "base_image_digest": self.base_image_digest.clone(),
            "final_image_digest": self.final_image_digest.clone(),
            "recovery": self.recovery.to_json(),
        })
    }
}

/// FNV-1a digest of an image's layout-defining tables (block starts,
/// procedure entries, program entry), as `fnv1a64:<16 hex digits>`.
pub fn image_digest(image: &Image) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: &mut u64, w: u32| {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&mut h, image.entry);
    for &s in &image.block_start {
        eat(&mut h, s);
    }
    for &p in &image.proc_entry {
        eat(&mut h, p);
    }
    format!("fnv1a64:{h:016x}")
}

/// The evaluation cache every epoch window is simulated on: the
/// paper machine's (Alpha 21164) 8 KB direct-mapped L1 instruction
/// cache with 32-byte lines, user stream only (the serving loop
/// re-layouts the application, not the kernel). The small L1 is the
/// cache that actually feels layout staleness; the 64 KB board cache
/// of the offline figures barely notices it on small scenarios.
fn window_spec(study: &Study) -> SweepSpec {
    SweepSpec::grid()
        .size_kb(8)
        .line_b(32)
        .ways(1)
        .cpus(study.scenario.num_cpus)
        .filter(StreamFilter::UserOnly)
}

/// Drains `m` to completion in [`SAMPLE_CHUNK`]-instruction chunks,
/// attaching `hook` on one of every `duty` chunks and the null hook
/// (whose monomorphized run loop carries zero observation cost) on the
/// rest. `duty == 1` keeps the hook attached throughout. This is the
/// serving loop's production drain; the sampling-overhead guard times
/// this exact function.
///
/// For a fixed VM engine the chunk boundaries are deterministic, so the
/// sampled subsequence — and everything derived from it — is too. With
/// `duty > 1` the boundaries (and hence the samples) may differ between
/// VM engines; the bundled demo and figures keep `duty == 1`, where the
/// sampler sees every transfer regardless of chunking.
///
/// # Panics
/// Panics if the drain exceeds the per-window instruction ceiling.
pub fn drain_chunks<S: TraceSink, H: ExecHook>(
    m: &mut Machine,
    sink: &mut S,
    hook: &mut H,
    duty: u64,
) -> RunReport {
    let duty = duty.max(1);
    let mut report = RunReport::default();
    let mut chunk_idx = 0u64;
    while m.live_processes() > 0 {
        let r = if chunk_idx.is_multiple_of(duty) {
            m.run_hooked(sink, hook, SAMPLE_CHUNK)
        } else {
            m.run_hooked(sink, &mut NullHook, SAMPLE_CHUNK)
        };
        report.absorb(&r);
        chunk_idx += 1;
        assert!(
            report.instructions < MAX_WINDOW_INSTRS,
            "serving window exceeded instruction ceiling"
        );
    }
    report
}

/// Outcome of draining one epoch (or recovery) window.
struct WindowRun<T> {
    report: RunReport,
    misses: u64,
    fetches: u64,
    shared: Vec<i64>,
    /// Fed every record the evaluation cache was: a [`NullSink`] in
    /// production, a recorder in the tests.
    tap: T,
}

/// Runs transactions `[snapshot counter, end_txn)` on a fresh machine:
/// restores the SGA snapshot (when given), pins the variant rotation,
/// drains every server process straight into the evaluation cache, and
/// checks the TPC-B invariants.
#[allow(clippy::too_many_arguments)]
fn run_window<H: ExecHook, T: TraceSink + Default>(
    study: &Study,
    cfg: &ServeConfig,
    image: &Arc<Image>,
    snapshot: Option<&[i64]>,
    end_txn: u64,
    rotation: usize,
    hook: &mut H,
    duty: u64,
) -> WindowRun<T> {
    let _span = codelayout_obs::span("window");
    let (mut m, sga) =
        study.new_machine_with(image, &study.base_kernel_image, end_txn, cfg.vm_engine);
    if let Some(words_snapshot) = snapshot {
        m.load_shared(words_snapshot);
        // The snapshot froze the previous window's limit; re-arm it for
        // this window *after* the restore. The transaction counter is
        // re-armed from the committed count: draining a window leaves
        // one failed-receive increment per process on the counter
        // (fetch-add happens before the limit check), and replaying
        // that overshoot would silently drop transactions.
        m.set_shared_word(words::LIMIT, end_txn as i64);
        let committed = m.shared_word(words::HIST_NEXT);
        m.set_shared_word(words::COUNTER, committed);
    }
    SgaLayout::fill_variant_table_rotated(&mut m, study.scenario.scale.stmt_variants, rotation);

    let mut sink = TeeSink(GridSink::new(&window_spec(study)), T::default());
    let report = drain_chunks(&mut m, &mut sink, hook, duty);
    assert!(
        report.faults.is_empty(),
        "faulted processes in serving window: {:?}",
        report.faults
    );
    let invariants = sga.read_invariants(&m);
    assert!(
        invariants.consistent(),
        "TPC-B invariants violated in serving window: {invariants:?}"
    );
    assert_eq!(
        invariants.history_count as u64, end_txn,
        "serving window committed the wrong number of transactions"
    );

    let TeeSink(grid, tap) = sink;
    let cells = grid.finish();
    let cell = cells.first().expect("window spec yields one cell");
    WindowRun {
        report,
        misses: cell.stats.misses,
        fetches: cell.stats.accesses,
        shared: m.shared_mem().to_vec(),
        tap,
    }
}

/// Builds a layout from `profile` and links it through the study's
/// validated build step, returning the image only if translation
/// validation proves it preserves the program's control flow.
fn build_validated_image(
    study: &Study,
    cfg: &ServeConfig,
    profile: &codelayout_profile::Profile,
) -> Option<Arc<Image>> {
    let layout = LayoutPipeline::new(&study.app.program, profile).build_series(cfg.series);
    match study.link_validated(&layout) {
        Ok(image) => Some(image),
        Err(BuildError::Link(e)) => {
            codelayout_obs::metrics().add("serve.link_rejects", 1);
            eprintln!("serve: candidate layout failed to link: {e:?}");
            None
        }
        Err(BuildError::Validation(e)) => {
            codelayout_obs::metrics().add("serve.validation_rejects", 1);
            eprintln!("serve: candidate image failed translation validation: {e:?}");
            None
        }
    }
}

/// Runs the serving loop over `study` (built from
/// [`ServeConfig::serve_scenario`]) and evaluates the outcome.
///
/// # Panics
/// Panics if any window faults, breaks the TPC-B invariants, or commits
/// the wrong number of transactions — all of which indicate a bug, not
/// an environmental condition.
pub fn run_serve(study: &Study, cfg: &ServeConfig) -> ServeReport {
    serve::<NullSink>(study, cfg).0
}

/// [`run_serve`], also handing back each window's tap (see [`WindowRun`]):
/// the epochs' in order, then the stale, served and oracle windows'.
fn serve<T: TraceSink + Default + Send>(study: &Study, cfg: &ServeConfig) -> (ServeReport, Vec<T>) {
    let _span = codelayout_obs::span("serve");
    let met = codelayout_obs::metrics();
    let capacity = study
        .scenario
        .profile_txns
        .max(study.scenario.warmup_txns + study.scenario.measure_txns);
    assert!(
        cfg.total_txns() <= capacity,
        "serving study too small for the configured stream; \
         build it from ServeConfig::serve_scenario"
    );

    // Initial offline deployment, from the study's profiling run — the
    // layout a DBA would have shipped. Validated like every later swap.
    let initial_image = build_validated_image(study, cfg, &study.profile)
        .expect("initial deployment must link and validate");
    let base_digest = image_digest(&initial_image);

    // The drift reference is the live sampled distribution observed in
    // the first epoch served under each deployed layout — never the
    // dense offline profile. Sampled distributions are sparse (a few
    // hundred edges carry all the mass), so comparing one against the
    // full profile reads as permanent large drift; comparing sampled
    // against sampled isolates the real signal: the mix changing under
    // a fixed layout. `None` means the current layout is uncalibrated
    // and the next epoch's distribution becomes its reference.
    let mut reference: Option<BTreeMap<(u32, u32), u64>> = None;
    let mut current_image = Arc::clone(&initial_image);
    let mut layout_epoch: i64 = -1;

    let mut sampler = EdgeSampler::user(cfg.sample_period);
    let mut decayed = DecayedEdgeCounts::new(cfg.decay_num, cfg.decay_den);
    let mut snapshot: Option<Vec<i64>> = None;
    let mut last_window_snapshot: Option<Vec<i64>> = None;

    let mut epochs: Vec<EpochRecord> = Vec::new();
    let mut taps: Vec<T> = Vec::new();
    let mut relayouts = 0u64;
    let mut swaps = 0u64;

    let total_epochs = cfg.total_epochs();
    for epoch in 0..total_epochs {
        let _epoch_span = codelayout_obs::span("epoch");
        let start_txn = epoch * cfg.epoch_txns;
        let end_txn = start_txn + cfg.epoch_txns;
        let rotation = cfg.rotation_for_epoch(epoch);
        if epoch == total_epochs - 1 {
            last_window_snapshot = snapshot.clone();
        }

        let window: WindowRun<T> = run_window(
            study,
            cfg,
            &current_image,
            snapshot.as_deref(),
            end_txn,
            rotation,
            &mut sampler,
            cfg.sample_duty,
        );
        snapshot = Some(window.shared);
        taps.push(window.tap);

        let shard = sampler.take_shard();
        let (events, samples) = (shard.events, shard.samples);
        decayed.decay();
        decayed.absorb(&shard);
        let drift_milli = match &reference {
            Some(reference) => edge_l1_milli(&decayed.edges, reference),
            None => 0,
        };
        if reference.is_none() {
            reference = Some(decayed.edges.clone());
        }

        let relayout = drift_milli >= cfg.drift_threshold_milli && !decayed.edges.is_empty();
        let mut validated = relayout;
        let mut swapped = false;
        let mut swap_wall_ns = 0u64;
        let ran_layout_epoch = layout_epoch;
        if relayout {
            relayouts += 1;
            let swap_start = std::time::Instant::now();
            let live = profile_from_edge_samples(&study.app.program, &decayed, cfg.sample_period);
            match build_validated_image(study, cfg, &live) {
                Some(image) => {
                    current_image = image;
                    layout_epoch = epoch as i64;
                    // Recalibrate against the first epoch served under
                    // the new layout.
                    reference = None;
                    swapped = true;
                    swaps += 1;
                }
                None => validated = false,
            }
            swap_wall_ns = swap_start.elapsed().as_nanos() as u64;
            met.observe("serve.swap_ns", swap_wall_ns);
        }

        let record = EpochRecord {
            epoch,
            rotation,
            start_txn,
            end_txn,
            instructions: window.report.instructions,
            events,
            samples,
            drift_milli,
            relayout,
            validated,
            swapped,
            misses: window.misses,
            fetches: window.fetches,
            layout_epoch: ran_layout_epoch,
            swap_wall_ns,
        };
        met.add("serve.epochs", 1);
        met.add("serve.sample_events", events);
        met.add("serve.samples", samples);
        met.gauge_set("serve.drift_milli", drift_milli as f64);
        met.observe("serve.epoch_misses", window.misses);
        if swapped {
            met.add("serve.swaps", 1);
        }
        codelayout_obs::tracer().event("serve/epoch", record.event_json());
        epochs.push(record);
    }

    // Staleness evaluation: run the final epoch window again from its
    // start snapshot under the stale and served images, side by side,
    // then under the oracle image. The stale run doubles as the oracle's
    // exact profiling run — the hook streams are layout-invariant, so
    // the profile it collects is the window's true edge profile
    // regardless of which image runs it.
    let eval_span = codelayout_obs::span("recovery_eval");
    let last_epoch = total_epochs - 1;
    let window_end = cfg.total_txns();
    let rotation = cfg.rotation_for_epoch(last_epoch);
    let num_blocks = study.app.program.blocks.len();
    let snapshot = last_window_snapshot.as_deref();

    let runs = on_lanes(
        cfg.sweep_threads,
        "serve_lane",
        &[(&initial_image, true), (&current_image, false)],
        |&(image, profile)| {
            let mut pixie = profile.then(|| PixieCollector::user(num_blocks));
            let run = match &mut pixie {
                Some(hook) => {
                    run_window(study, cfg, image, snapshot, window_end, rotation, hook, 1)
                }
                None => run_window(
                    study,
                    cfg,
                    image,
                    snapshot,
                    window_end,
                    rotation,
                    &mut NullHook,
                    1,
                ),
            };
            (run, pixie)
        },
    );
    let mut runs = runs.into_iter();
    let (stale, pixie) = runs.next().expect("stale window ran");
    let (served, _) = runs.next().expect("served window ran");
    let pixie = pixie.expect("the stale window collects the oracle's profile");
    let oracle_image = build_validated_image(study, cfg, pixie.profile())
        .expect("oracle layout must link and validate");
    let oracle: WindowRun<T> = run_window(
        study,
        cfg,
        &oracle_image,
        snapshot,
        window_end,
        rotation,
        &mut NullHook,
        1,
    );
    eval_span.finish();

    let recovery = RecoveryReport {
        stale_misses: stale.misses,
        serve_misses: served.misses,
        oracle_misses: oracle.misses,
        window_fetches: stale.fetches,
        recovery_milli: recovery_milli(stale.misses, served.misses, oracle.misses),
    };
    met.gauge_set("serve.recovery_milli", recovery.recovery_milli as f64);
    taps.extend([stale.tap, served.tap, oracle.tap]);

    let report = ServeReport {
        config: cfg.clone(),
        epochs,
        relayouts,
        swaps,
        base_image_digest: base_digest,
        final_image_digest: image_digest(&current_image),
        recovery,
    };
    (report, taps)
}

/// Fraction of the stale→oracle miss gap the serving loop recovered, in
/// milli, clamped to 0..=2000. When the oracle shows no gap the layout
/// was never stale and recovery is defined as 1000 (nothing to recover).
pub fn recovery_milli(stale: u64, served: u64, oracle: u64) -> u64 {
    if stale <= oracle {
        return 1000;
    }
    let gap = i128::from(stale) - i128::from(oracle);
    let closed = i128::from(stale) - i128::from(served);
    (closed * 1000 / gap).clamp(0, 2000) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_schedule_walks_phases() {
        let mut cfg = ServeConfig::drift_demo(&Scenario::quick());
        cfg.phases = vec![
            MixPhase::new(2, 0),
            MixPhase::new(3, 7),
            MixPhase::new(1, 2),
        ];
        assert_eq!(cfg.total_epochs(), 6);
        let rotations: Vec<usize> = (0..6).map(|e| cfg.rotation_for_epoch(e)).collect();
        assert_eq!(rotations, vec![0, 0, 7, 7, 7, 2]);
        // Past the end the last phase sticks (defensive; the loop never
        // asks).
        assert_eq!(cfg.rotation_for_epoch(99), 2);
    }

    #[test]
    fn serve_scenario_sizes_the_history_region() {
        let base = Scenario::quick();
        let cfg = ServeConfig::drift_demo(&base);
        let sc = cfg.serve_scenario(&base);
        assert_eq!(sc.warmup_txns, 0);
        assert_eq!(sc.measure_txns, cfg.total_txns());
        assert_eq!(sc.seed, base.seed);
        // drift_demo on quick: (3 + 5 phases) × 60 txns.
        assert_eq!(cfg.total_txns(), 8 * 60);
    }

    #[test]
    fn recovery_milli_expresses_the_closed_gap() {
        // Closed half the gap: stale 100, oracle 60, served 80.
        assert_eq!(recovery_milli(100, 80, 60), 500);
        // Closed all of it.
        assert_eq!(recovery_milli(100, 60, 60), 1000);
        // Beat the oracle (possible: different tie-breaks), clamped.
        assert_eq!(recovery_milli(100, 20, 60), 2000);
        // Made things worse: clamped at zero.
        assert_eq!(recovery_milli(100, 130, 60), 0);
        // No gap to close.
        assert_eq!(recovery_milli(50, 55, 50), 1000);
        assert_eq!(recovery_milli(50, 55, 80), 1000);
    }

    #[test]
    fn epoch_record_json_shapes() {
        let rec = EpochRecord {
            epoch: 4,
            rotation: 3,
            start_txn: 240,
            end_txn: 300,
            instructions: 123_456,
            events: 4_000,
            samples: 62,
            drift_milli: 712,
            relayout: true,
            validated: true,
            swapped: true,
            misses: 1_234,
            fetches: 98_765,
            layout_epoch: -1,
            swap_wall_ns: 1_000_000,
        };
        let det = rec.deterministic_json();
        assert!(det.get("swap_wall_ns").as_u64().is_none());
        assert_eq!(det.get("drift_milli").as_u64(), Some(712));
        assert_eq!(det.get("layout_epoch").as_i64(), Some(-1));
        let ev = rec.event_json();
        assert_eq!(ev.get("swap_wall_ns").as_u64(), Some(1_000_000));
        assert_eq!(ev.get("epoch").as_u64(), Some(4));
    }

    #[test]
    fn live_window_grids_equal_a_replay_of_each_recorded_window() {
        use codelayout_memsim::SweepSink;
        use codelayout_vm::TraceBuffer;
        let base = Scenario::quick();
        let mut cfg = ServeConfig::drift_demo(&base);
        cfg.phases = vec![MixPhase::new(2, 0), MixPhase::new(2, 3)];
        let study = codelayout_oltp::build_study(&cfg.serve_scenario(&base));
        for lanes in [1, 2] {
            cfg.sweep_threads = lanes;
            let (report, traces) = serve::<TraceBuffer>(&study, &cfg);
            let r = &report.recovery;
            let live: Vec<u64> = report
                .epochs
                .iter()
                .map(|e| e.misses)
                .chain([r.stale_misses, r.serve_misses, r.oracle_misses])
                .collect();
            assert_eq!(traces.len(), live.len());
            let mut replayed = Vec::new();
            for trace in traces {
                let mut oracle = SweepSink::from_spec(&window_spec(&study));
                trace.freeze().replay(&mut oracle);
                replayed.push(oracle.results()[0].stats);
            }
            let what = format!("{lanes} lanes");
            assert_eq!(
                replayed.iter().map(|s| s.misses).collect::<Vec<_>>(),
                live,
                "{what}"
            );
            for (e, stats) in report.epochs.iter().zip(&replayed) {
                assert_eq!(e.fetches, stats.accesses, "{what}: epoch {}", e.epoch);
            }
            assert_eq!(
                r.window_fetches,
                replayed[report.epochs.len()].accesses,
                "{what}"
            );
        }
    }

    #[test]
    fn image_digest_tracks_layout_identity() {
        use codelayout_ir::{link::link, Layout, ProcBuilder, ProgramBuilder};
        use codelayout_vm::APP_TEXT_BASE;
        let mut pb = ProgramBuilder::new("digest-test");
        let main = pb.declare_proc("main");
        let helper = pb.declare_proc("helper");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let done = f.new_block();
        f.select(e);
        f.nop();
        f.call(helper);
        f.jump(done);
        f.select(done);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let mut g = ProcBuilder::new();
        g.ret();
        pb.define_proc(helper, g).unwrap();
        let program = pb.finish(main).unwrap();
        let natural = Layout::natural(&program);
        let a = link(&program, &natural, APP_TEXT_BASE).unwrap();
        let b = link(&program, &natural, APP_TEXT_BASE).unwrap();
        assert_eq!(image_digest(&a), image_digest(&b));
        assert!(image_digest(&a).starts_with("fnv1a64:"));
        assert_eq!(image_digest(&a).len(), "fnv1a64:".len() + 16);
    }
}
