//! Study driver: generation → profiling → optimization → measured runs.
//!
//! A [`Study`] mirrors the paper's methodology (§3): generate the workload,
//! collect a Pixie profile on the baseline binary over the transaction
//! processing section, feed the profile to the layout optimizer, and then
//! run measured experiments (with cache-warmup transactions excluded, and
//! arbitrary [`TraceSink`]s attached) on any combination of optimized
//! application/kernel images.

use crate::app::{gen_app, AppSpec};
use crate::kernel::{gen_kernel, KernelSpec, SYS_LOG_WRITE, SYS_RECEIVE, SYS_REPLY};
use crate::scenario::Scenario;
use crate::sga::{priv_words, words, Invariants, SgaLayout};
use codelayout_analysis::{validate_translation, ValidationError};
use codelayout_core::{ExtTspMemo, LayoutPipeline, LayoutRequest, LayoutSeries, ProfileSource};
use codelayout_ir::link::link;
use codelayout_ir::{Image, IrError, Layout, Program, Reg};
use codelayout_profile::{profile_from_block_samples, PixieCollector, Profile, SampledCollector};
use codelayout_vm::{
    ExecHook, Machine, MachineConfig, NullSink, PairHook, RunReport, SyscallDef, TraceSink,
    VmEngine, APP_TEXT_BASE, KERNEL_TEXT_BASE,
};
use std::borrow::Cow;
use std::fmt;
use std::num::NonZeroU64;
use std::sync::Arc;

/// Instruction budget per scheduling chunk while polling for phase
/// transitions.
const CHUNK: u64 = 200_000;
/// Hard per-run instruction ceiling (safety stop against regressions).
const MAX_RUN_INSTRS: u64 = 4_000_000_000;

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregated execution report.
    pub report: RunReport,
    /// TPC-B consistency data read from shared memory.
    pub invariants: Invariants,
    /// Transactions executed per process (from the `Emit` channel).
    pub per_process_txns: Vec<i64>,
    /// Host wall-clock time of the measured phase (warmup excluded).
    /// The only field that may legitimately differ between execution
    /// tiers; everything else is deterministic.
    pub run_wall: std::time::Duration,
}

impl RunOutcome {
    /// Panics with diagnostics unless the run was fault-free and the
    /// database is consistent. Experiments call this to guarantee the
    /// numbers they report come from a correct execution.
    pub fn assert_correct(&self) {
        assert!(
            self.report.faults.is_empty(),
            "faulted processes: {:?}",
            self.report.faults
        );
        assert!(
            self.invariants.consistent(),
            "TPC-B invariants violated: {:?}",
            self.invariants
        );
    }
}

/// A fully prepared workload study.
#[derive(Debug, Clone)]
pub struct Study {
    /// The scenario this study was built for.
    pub scenario: Scenario,
    /// Shared-memory map (with the B-tree root resolved).
    pub sga: SgaLayout,
    /// Generated application.
    pub app: AppSpec,
    /// Generated kernel.
    pub kernel: KernelSpec,
    /// Application profile from the Pixie run on the baseline binary.
    pub profile: Profile,
    /// Kernel profile from the same run.
    pub kernel_profile: Profile,
    /// Static (profile-free) application frequency estimate from the
    /// Ball–Larus-style analyzer in `codelayout-analysis`.
    pub static_profile: Profile,
    /// Baseline (natural layout) application image.
    pub base_image: Arc<Image>,
    /// Baseline (natural layout) kernel image.
    pub base_kernel_image: Arc<Image>,
}

/// Generates the workload and collects the profiling run.
///
/// # Panics
/// Panics if the generated programs fail validation or the profiling run
/// faults or breaks the TPC-B invariants — all of which indicate a bug, not
/// an environmental condition.
pub fn build_study(scenario: &Scenario) -> Study {
    let _span = codelayout_obs::span("study");
    let gen_span = codelayout_obs::span("generate");
    let max_txns = scenario
        .profile_txns
        .max(scenario.warmup_txns + scenario.measure_txns) as usize;
    let sga = SgaLayout::new(
        scenario.branches,
        scenario.tellers_per_branch,
        scenario.accounts_per_branch,
        scenario.processes(),
        max_txns,
    );
    let app = gen_app(&sga, scenario);
    let kernel = gen_kernel(&sga, &scenario.scale, scenario.seed);
    let base_image = Arc::new(
        link(&app.program, &Layout::natural(&app.program), APP_TEXT_BASE)
            .expect("baseline app links"),
    );
    let base_kernel_image = Arc::new(
        link(
            &kernel.program,
            &Layout::natural(&kernel.program),
            KERNEL_TEXT_BASE,
        )
        .expect("baseline kernel links"),
    );

    // The static frequency estimate needs no execution at all; compute it
    // while the generated program is at hand.
    let static_profile = codelayout_analysis::estimate_static_profile(&app.program);

    let mut study = Study {
        scenario: scenario.clone(),
        sga,
        app,
        kernel,
        profile: Profile::new(0),
        kernel_profile: Profile::new(0),
        static_profile,
        base_image,
        base_kernel_image,
    };
    gen_span.finish();

    // Profiling run: pixified server binaries, `profile_txns` transactions.
    let mut hook = PairHook(
        PixieCollector::user(study.app.program.blocks.len()),
        PixieCollector::kernel(study.kernel.program.blocks.len()),
    );
    let (sga_loaded, report) = study.profiling_run(&mut hook);
    study.sga = sga_loaded;
    study.profile = hook.0.into_profile();
    study.kernel_profile = hook.1.into_profile();
    let m = codelayout_obs::metrics();
    m.add("study.builds", 1);
    m.add("study.profile_instructions", report.instructions);
    study
}

impl Study {
    /// The syscall bindings for this workload.
    pub fn syscall_table(&self) -> Vec<(u16, SyscallDef)> {
        vec![
            (
                SYS_RECEIVE,
                SyscallDef {
                    proc: self.kernel.receive,
                    block_instrs: 0,
                },
            ),
            (
                SYS_LOG_WRITE,
                SyscallDef {
                    proc: self.kernel.log_write,
                    block_instrs: self.scenario.log_write_latency,
                },
            ),
            (
                SYS_REPLY,
                SyscallDef {
                    proc: self.kernel.reply,
                    block_instrs: 0,
                },
            ),
        ]
    }

    /// The machine configuration for this scenario. The execution tier
    /// comes from the process environment (`CODELAYOUT_VM_ENGINE`) via
    /// [`MachineConfig::default`].
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            num_cpus: self.scenario.num_cpus,
            processes_per_cpu: self.scenario.processes_per_cpu,
            quantum: self.scenario.quantum,
            private_words: 2048,
            shared_words: self.sga.total_words.next_power_of_two(),
            max_call_depth: 128,
            sched_proc: Some(self.kernel.sched),
            ..MachineConfig::default()
        }
    }

    /// Creates a machine with the database loaded and processes seeded.
    /// Returns the machine and the SGA layout with the B-tree root filled.
    pub fn new_machine(
        &self,
        app_image: &Arc<Image>,
        kernel_image: &Arc<Image>,
        txn_limit: u64,
    ) -> (Machine, SgaLayout) {
        self.new_machine_with(
            app_image,
            kernel_image,
            txn_limit,
            self.machine_config().engine,
        )
    }

    /// [`Study::new_machine`] with an explicit execution tier, for
    /// cross-engine oracle runs that must ignore the environment knob.
    pub fn new_machine_with(
        &self,
        app_image: &Arc<Image>,
        kernel_image: &Arc<Image>,
        txn_limit: u64,
        engine: VmEngine,
    ) -> (Machine, SgaLayout) {
        let mut m = Machine::with_kernel(
            Arc::clone(app_image),
            Arc::clone(kernel_image),
            self.syscall_table(),
            MachineConfig {
                engine,
                ..self.machine_config()
            },
        );
        let mut sga = self.sga.clone();
        sga.load_database(&mut m, txn_limit as i64);
        SgaLayout::fill_variant_table(&mut m, self.scenario.scale.stmt_variants);
        for pid in 0..m.num_processes() {
            let seed = splitmix(self.scenario.seed.wrapping_add(pid as u64 + 1));
            m.set_reg(pid, Reg(5), seed as i64);
            m.set_private_word(pid, priv_words::PID, pid as i64);
            m.set_private_word(pid, priv_words::SEED, seed as i64);
        }
        (m, sga)
    }

    /// Runs the profiling phase, `profile_txns` transactions on the
    /// baseline images, with `hook` observing every block, edge, call and
    /// instruction. Returns the SGA layout the run loaded (B-tree root
    /// filled) and the run's report. [`build_study`] feeds it Pixie
    /// collectors; a sampled profile source feeds it a DCPI-style sampler.
    ///
    /// # Panics
    /// Panics if the run faults, breaks the TPC-B invariants or exceeds
    /// the per-run instruction ceiling.
    fn profiling_run<H: ExecHook>(&self, hook: &mut H) -> (SgaLayout, RunReport) {
        let _span = codelayout_obs::span("profile_run");
        let (mut machine, sga) = self.new_machine(
            &self.base_image,
            &self.base_kernel_image,
            self.scenario.profile_txns,
        );
        let mut report = RunReport::default();
        loop {
            let r = machine.run_hooked(&mut NullSink, hook, CHUNK);
            report.absorb(&r);
            if machine.live_processes() == 0 {
                break;
            }
            assert!(
                report.instructions < MAX_RUN_INSTRS,
                "profiling run exceeded instruction ceiling"
            );
        }
        assert!(
            report.faults.is_empty(),
            "profiling faults: {:?}",
            report.faults
        );
        let inv = sga.read_invariants(&machine);
        assert!(inv.consistent(), "profiling run inconsistent: {inv:?}");
        (sga, report)
    }

    /// The application profile DCPI-style sampling collects over one
    /// profiling run: one block sample every `period` retired application
    /// instructions, edge weights estimated from the block counts
    /// (Spike's path for sampled input).
    fn sampled_profile(&self, period: NonZeroU64) -> Profile {
        let mut sampler = SampledCollector::user(self.app.program.blocks.len(), period.get());
        self.profiling_run(&mut sampler);
        profile_from_block_samples(&self.app.program, &sampler)
    }

    /// The application profile a request builds from: the measured Pixie
    /// profile, the static Ball–Larus-style estimate, or a sampled
    /// profile collected now by another profiling run.
    pub fn profile_for(&self, req: &LayoutRequest) -> Cow<'_, Profile> {
        match req.source {
            ProfileSource::Measured => Cow::Borrowed(&self.profile),
            ProfileSource::Static => Cow::Borrowed(&self.static_profile),
            ProfileSource::Sampled(period) => Cow::Owned(self.sampled_profile(period)),
        }
    }

    /// Builds the application layout for a request — a paper
    /// [`OptimizationSet`](codelayout_core::OptimizationSet), any
    /// [`LayoutSeries`], or a full
    /// [`LayoutRequest`] with another profile source or tuned
    /// parameters. A bare series reads the measured profile ("running
    /// Spike" on the baseline binary).
    pub fn layout(&self, req: impl Into<LayoutRequest>) -> Layout {
        let req = req.into();
        LayoutPipeline::with_params(&self.app.program, &self.profile_for(&req), req.params)
            .build_series(req.series)
    }

    /// [`Study::layout`], building an ext-TSP layout through `memo` (see
    /// [`LayoutPipeline::build_series_with`]): a search over many ext-TSP
    /// parameter points keeps one memo over the application and its
    /// measured profile across its builds.
    ///
    /// # Panics
    /// Panics on an ext-TSP request that reads another profile than the
    /// measured one, which `memo` is over.
    pub fn layout_with(&self, req: impl Into<LayoutRequest>, memo: &mut ExtTspMemo<'_>) -> Layout {
        let req = req.into();
        LayoutPipeline::with_params(&self.app.program, &self.profile_for(&req), req.params)
            .build_series_with(req.series, memo)
    }

    /// Links and validates the application image for a request.
    ///
    /// # Panics
    /// Panics if the image fails to link or validate — the passes only
    /// emit permutations that preserve control flow, so either is a bug.
    pub fn image(&self, req: impl Into<LayoutRequest>) -> Arc<Image> {
        let req = req.into();
        self.link_validated(&self.layout(req))
            .unwrap_or_else(|e| panic!("`{req}` app image: {e}"))
    }

    /// [`Study::image`] for a [`LayoutSeries`]. The benchmark crate binds
    /// this name.
    pub fn image_series(&self, series: LayoutSeries) -> Arc<Image> {
        self.image(series)
    }

    /// Builds the kernel layout for a series from the measured kernel
    /// profile, at default parameters (the paper's "optimize the
    /// operating system" experiment lays the kernel out with the same
    /// passes as the application).
    pub fn kernel_layout(&self, series: impl Into<LayoutSeries>) -> Layout {
        LayoutPipeline::new(&self.kernel.program, &self.kernel_profile).build_series(series.into())
    }

    /// Links and validates a kernel image from a [`Study::kernel_layout`].
    ///
    /// # Panics
    /// As [`Study::image`].
    pub fn kernel_image(&self, layout: &Layout) -> Arc<Image> {
        link_checked(&self.kernel.program, layout, KERNEL_TEXT_BASE)
            .unwrap_or_else(|e| panic!("kernel image: {e}"))
    }

    /// Links an application layout and proves, by translation validation,
    /// that the image preserves the program's control flow. Every image a
    /// study builds goes through here, in every build profile; the
    /// autotuner and the serving loop call it directly for layouts that
    /// may be rejected.
    ///
    /// # Errors
    /// [`BuildError::Link`] when the layout does not link (for example,
    /// it is not a permutation of the program's blocks);
    /// [`BuildError::Validation`] when the image does not preserve the
    /// program's control flow.
    pub fn link_validated(&self, layout: &Layout) -> Result<Arc<Image>, BuildError> {
        link_checked(&self.app.program, layout, APP_TEXT_BASE)
    }

    /// Runs warm-up transactions (trace discarded), then streams the
    /// measured transactions into `sink` until every server shuts down.
    pub fn run_measured<S: TraceSink>(
        &self,
        app_image: &Arc<Image>,
        kernel_image: &Arc<Image>,
        sink: &mut S,
    ) -> RunOutcome {
        self.run_measured_with(app_image, kernel_image, sink, self.machine_config().engine)
    }

    /// [`Study::run_measured`] on an explicit execution tier. Both tiers
    /// produce identical traces and outcomes; only [`RunOutcome::run_wall`]
    /// differs, which is what engine-speedup benchmarks measure.
    pub fn run_measured_with<S: TraceSink>(
        &self,
        app_image: &Arc<Image>,
        kernel_image: &Arc<Image>,
        sink: &mut S,
        engine: VmEngine,
    ) -> RunOutcome {
        let _span = codelayout_obs::span("measured_run");
        let total = self.scenario.warmup_txns + self.scenario.measure_txns;
        let (mut m, sga) = self.new_machine_with(app_image, kernel_image, total, engine);

        // Warm-up phase: caches in the paper's methodology are warmed
        // before measurement; here the sink simply isn't attached yet. The
        // polling chunk is small so measurement starts close to the warmup
        // boundary.
        let warmup_span = codelayout_obs::span("warmup");
        if self.scenario.warmup_txns > 0 {
            const WARMUP_CHUNK: u64 = 4_096;
            while (m.shared_word(words::COUNTER) as u64) < self.scenario.warmup_txns {
                let r = m.run(&mut NullSink, WARMUP_CHUNK);
                if m.live_processes() == 0 {
                    break;
                }
                let _ = r;
                assert!(m.now() < MAX_RUN_INSTRS, "warmup exceeded ceiling");
            }
        }

        warmup_span.finish();

        let run_span = codelayout_obs::span("run");
        let run_start = std::time::Instant::now();
        let mut report = RunReport::default();
        while m.live_processes() > 0 {
            let r = m.run(sink, CHUNK);
            report.absorb(&r);
            assert!(
                report.instructions < MAX_RUN_INSTRS,
                "measured run exceeded instruction ceiling"
            );
        }
        let run_wall = run_start.elapsed();
        run_span.finish();
        let metrics = codelayout_obs::metrics();
        metrics.add("run.measured_runs", 1);
        metrics.add("run.instructions", report.instructions);
        let invariants = sga.read_invariants(&m);
        let per_process_txns = (0..m.num_processes())
            .map(|pid| m.emitted(pid).last().copied().unwrap_or(0))
            .collect();
        RunOutcome {
            report,
            invariants,
            per_process_txns,
            run_wall,
        }
    }
}

/// Why a layout could not become an image.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The linker rejected the layout.
    Link(IrError),
    /// The linked image does not preserve the program's control flow.
    Validation(ValidationError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Link(e) => write!(f, "link failed: {e}"),
            BuildError::Validation(e) => write!(f, "translation validation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The one link-and-validate step behind every study image.
fn link_checked(program: &Program, layout: &Layout, base: u64) -> Result<Arc<Image>, BuildError> {
    let image = link(program, layout, base).map_err(BuildError::Link)?;
    let _span = codelayout_obs::span("validate");
    validate_translation(program, layout, &image).map_err(BuildError::Validation)?;
    Ok(Arc::new(image))
}

/// SplitMix64 step for seeding per-process RNG states.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_core::OptimizationSet;
    use codelayout_vm::CountingSink;

    #[test]
    fn quick_study_profiles_and_measures() {
        let sc = Scenario::quick();
        let study = build_study(&sc);
        // The profile must cover a meaningful slice of the program.
        assert!(study.profile.total_block_entries() > 1_000);
        assert!(study.kernel_profile.total_block_entries() > 100);

        // Baseline measured run.
        let mut sink = CountingSink::default();
        let out = study.run_measured(&study.base_image, &study.base_kernel_image, &mut sink);
        out.assert_correct();
        assert!(sink.fetches > 10_000);
        assert!(sink.kernel_fetches > 0);
        // All measured transactions committed.
        assert_eq!(
            out.invariants.history_count as u64,
            sc.warmup_txns + sc.measure_txns
        );
    }

    #[test]
    fn optimized_layouts_preserve_semantics() {
        let sc = Scenario::quick();
        let study = build_study(&sc);
        let base = study.run_measured(&study.base_image, &study.base_kernel_image, &mut NullSink);
        base.assert_correct();
        for (_, set) in OptimizationSet::paper_series() {
            let img = study.image(set);
            let out = study.run_measured(&img, &study.base_kernel_image, &mut NullSink);
            out.assert_correct();
            // Data effects are serial-determined (RNG reseeded per txn),
            // so the final database state is layout-invariant. Per-process
            // transaction *counts* may differ: layouts change instruction
            // counts and therefore scheduling boundaries.
            assert_eq!(
                out.invariants, base.invariants,
                "layout {set} changed architectural results"
            );
        }
    }

    #[test]
    fn profiling_run_reproduces_the_studys_profiles() {
        let study = build_study(&Scenario::quick());
        let mut hook = PairHook(
            PixieCollector::user(study.app.program.blocks.len()),
            PixieCollector::kernel(study.kernel.program.blocks.len()),
        );
        let (sga, _) = study.profiling_run(&mut hook);
        assert_eq!(sga, study.sga);
        assert_eq!(hook.0.into_profile(), study.profile);
        assert_eq!(hook.1.into_profile(), study.kernel_profile);
    }

    #[test]
    fn sampled_profiles_are_deterministic() {
        let study = build_study(&Scenario::quick());
        let req: LayoutRequest = "sampled:64:all".parse().unwrap();
        let app = study.sampled_profile(NonZeroU64::new(64).unwrap());
        assert_eq!(study.profile_for(&req).into_owned(), app);
        // Sampling loses information: the estimate is not the exact profile.
        assert_ne!(app, study.profile);
        assert!(app.total_block_entries() > 0);
        assert_eq!(study.layout(req), study.layout(req));
    }

    #[test]
    fn link_validated_rejects_a_non_permutation_without_panicking() {
        let study = build_study(&Scenario::quick());
        let mut layout = study.layout(OptimizationSet::ALL);
        assert!(study.link_validated(&layout).is_ok());
        let first = layout.order[0];
        layout.order[1] = first;
        assert!(matches!(
            study.link_validated(&layout),
            Err(BuildError::Link(_))
        ));
        layout.order.pop();
        assert!(matches!(
            study.link_validated(&layout),
            Err(BuildError::Link(_))
        ));
    }
}
