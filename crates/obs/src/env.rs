//! `RunEnv`: every `CODELAYOUT_*` knob, parsed once.
//!
//! Before this module, environment handling was scattered: the sweep
//! engine read `CODELAYOUT_THREADS`, the tracer read
//! `CODELAYOUT_TRACE_OUT`, the bench harness matched on
//! `CODELAYOUT_SCENARIO`, and every golden test re-implemented the
//! `CODELAYOUT_UPDATE_GOLDEN` check. Each site parsed, defaulted and
//! documented the knob its own way. [`RunEnv`] is the single source of
//! truth: one struct, parsed once per process by [`run_env`], consumed
//! everywhere (and re-exported by `codelayout-memsim` /
//! `codelayout-bench` so downstream crates need no extra dependency).
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `CODELAYOUT_SCENARIO` | [`RunEnv::scenario`] | workload scale: `quick` / `sim` / `hw` (default `sim`) |
//! | `CODELAYOUT_THREADS` | [`RunEnv::threads`] | lane count: the harness's measurement lanes, the autotuner's family lanes and the serving loop's recovery lanes (default: available parallelism) |
//! | `CODELAYOUT_VM_ENGINE` | [`RunEnv::vm_engine`] | `block` (default) or `interp` VM execution tier |
//! | `CODELAYOUT_PROFILE_SOURCE` | [`RunEnv::profile_source`] | `measured` (default) or `static` profile feeding the layout passes |
//! | `CODELAYOUT_TRACE_OUT` | [`RunEnv::trace_out`] | JSON-lines span event log file |
//! | `CODELAYOUT_UPDATE_GOLDEN` | [`RunEnv::update_golden`] | `1` = rewrite golden snapshots instead of asserting |
//! | `CODELAYOUT_SEED` | [`RunEnv::seed`] | scenario master-seed override (decimal or `0x` hex) |
//! | `CODELAYOUT_SERVE_EPOCH_TXNS` | [`RunEnv::serve_epoch_txns`] | serving-loop epoch length in transactions |
//! | `CODELAYOUT_SERVE_SAMPLE_PERIOD` | [`RunEnv::serve_sample_period`] | serving-loop control-transfer sampling period |
//! | `CODELAYOUT_SERVE_DRIFT_THRESHOLD` | [`RunEnv::serve_drift_threshold`] | re-layout drift threshold, milli-L1 units (0–2000) |
//! | `CODELAYOUT_SERVE_SAMPLE_DUTY` | [`RunEnv::serve_sample_duty`] | serving-loop temporal duty cycle (sampler attached 1-in-N chunks) |
//! | `CODELAYOUT_TUNE_BUDGET` | [`RunEnv::tune_budget_ms`] | autotuner wall-clock budget in ms (0 = unlimited; a triggered cut is non-deterministic) |
//! | `CODELAYOUT_TUNE_CANDIDATES` | [`RunEnv::tune_candidates`] | autotuner candidate-evaluation budget per series family |
//! | `CODELAYOUT_TUNE_WINDOW` | [`RunEnv::tune_window`] | autotuner trace-window length in fetch events |
//!
//! The README's "Environment knobs" table is generated from this list;
//! keep the two in sync.

use std::sync::OnceLock;

/// Environment variable selecting the workload scenario.
pub const SCENARIO_ENV: &str = "CODELAYOUT_SCENARIO";
/// Environment variable overriding the lane count.
pub const THREADS_ENV: &str = "CODELAYOUT_THREADS";
/// Environment variable selecting the VM execution tier.
pub const VM_ENGINE_ENV: &str = "CODELAYOUT_VM_ENGINE";
/// Environment variable selecting the profile source feeding the layout
/// passes: `measured` execution counts or the `static` Ball–Larus-style
/// estimate (`codelayout-analysis` owns the estimator).
pub const PROFILE_SOURCE_ENV: &str = "CODELAYOUT_PROFILE_SOURCE";
/// Environment variable naming the JSON-lines span event log file.
pub const TRACE_OUT_ENV: &str = "CODELAYOUT_TRACE_OUT";
/// Environment variable switching golden tests into rewrite mode.
pub const UPDATE_GOLDEN_ENV: &str = "CODELAYOUT_UPDATE_GOLDEN";
/// Environment variable overriding the scenario's master seed (decimal
/// or `0x`-prefixed hex). One seed determines workload generation, the
/// per-process RNG streams, and therefore every serving-loop epoch
/// record.
pub const SEED_ENV: &str = "CODELAYOUT_SEED";
/// Environment variable overriding the serving-loop epoch length
/// (transactions per epoch).
pub const SERVE_EPOCH_TXNS_ENV: &str = "CODELAYOUT_SERVE_EPOCH_TXNS";
/// Environment variable overriding the serving-loop sampling period
/// (one sample every N control transfers).
pub const SERVE_SAMPLE_PERIOD_ENV: &str = "CODELAYOUT_SERVE_SAMPLE_PERIOD";
/// Environment variable overriding the serving-loop re-layout drift
/// threshold, in milli-L1 units (0 = always re-layout, 2000 = never).
pub const SERVE_DRIFT_THRESHOLD_ENV: &str = "CODELAYOUT_SERVE_DRIFT_THRESHOLD";
/// Environment variable overriding the serving-loop temporal duty
/// cycle (the sampler is attached for one of every N scheduling
/// chunks).
pub const SERVE_SAMPLE_DUTY_ENV: &str = "CODELAYOUT_SERVE_SAMPLE_DUTY";
/// Environment variable overriding the layout autotuner's wall-clock
/// budget in milliseconds (0 = unlimited — the deterministic default;
/// a budget that actually fires truncates the search at a
/// wall-clock-dependent point, so the trajectory is no longer
/// reproducible).
pub const TUNE_BUDGET_ENV: &str = "CODELAYOUT_TUNE_BUDGET";
/// Environment variable overriding the layout autotuner's
/// candidate-evaluation budget per series family.
pub const TUNE_CANDIDATES_ENV: &str = "CODELAYOUT_TUNE_CANDIDATES";
/// Environment variable overriding the layout autotuner's trace-window
/// length (fetch events replayed per candidate).
pub const TUNE_WINDOW_ENV: &str = "CODELAYOUT_TUNE_WINDOW";

/// Workload scale selected by `CODELAYOUT_SCENARIO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioSel {
    /// Seconds-scale CI workload.
    Quick,
    /// The paper's 4-CPU simulated system (default).
    Sim,
    /// The paper's single-processor hardware runs.
    Hw,
}

impl ScenarioSel {
    /// The label used for `results/<label>/` manifest directories.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioSel::Quick => "quick",
            ScenarioSel::Sim => "sim",
            ScenarioSel::Hw => "hw",
        }
    }
}

/// VM execution tier selected by `CODELAYOUT_VM_ENGINE`.
///
/// `Block` pre-compiles each basic block of a linked image into a flat
/// superinstruction form and executes whole blocks at a time; `Interp`
/// is the deliberately-plain one-instruction-at-a-time decoder that
/// survives as the equivalence oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VmEngine {
    /// Decode-dispatch interpreter; the oracle.
    Interp,
    /// Block-compiled tier with a per-image code cache (default).
    #[default]
    Block,
}

impl VmEngine {
    /// Stable lowercase name (`"interp"` / `"block"`), as accepted by
    /// `CODELAYOUT_VM_ENGINE` and recorded in run manifests.
    pub fn label(self) -> &'static str {
        match self {
            VmEngine::Interp => "interp",
            VmEngine::Block => "block",
        }
    }
}

/// Profile source selected by `CODELAYOUT_PROFILE_SOURCE`.
///
/// `Measured` feeds the layout passes the execution profile collected by
/// the instrumented profiling run (the paper's Pixie/DCPI path);
/// `Static` feeds them the purely static Ball–Larus-style estimate, so
/// every layout series runs without any profiling run at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProfileSource {
    /// Instrumented execution counts (default).
    #[default]
    Measured,
    /// Static branch-heuristic frequency estimates.
    Static,
}

impl ProfileSource {
    /// Stable lowercase name (`"measured"` / `"static"`), as accepted by
    /// `CODELAYOUT_PROFILE_SOURCE` and recorded in run manifests.
    pub fn label(self) -> &'static str {
        match self {
            ProfileSource::Measured => "measured",
            ProfileSource::Static => "static",
        }
    }
}

/// Every `CODELAYOUT_*` knob, parsed once per process.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Workload scale (`CODELAYOUT_SCENARIO`), default [`ScenarioSel::Sim`].
    pub scenario: ScenarioSel,
    /// Lane-count override (`CODELAYOUT_THREADS`); `None`
    /// falls back to the host's available parallelism.
    pub threads: Option<usize>,
    /// VM execution tier (`CODELAYOUT_VM_ENGINE`), default
    /// [`VmEngine::Block`].
    pub vm_engine: VmEngine,
    /// Profile source feeding the layout passes
    /// (`CODELAYOUT_PROFILE_SOURCE`), default [`ProfileSource::Measured`].
    pub profile_source: ProfileSource,
    /// Span event-log file (`CODELAYOUT_TRACE_OUT`), if any.
    pub trace_out: Option<String>,
    /// True when golden tests should rewrite their snapshots
    /// (`CODELAYOUT_UPDATE_GOLDEN=1`).
    pub update_golden: bool,
    /// Scenario master-seed override (`CODELAYOUT_SEED`), if any.
    pub seed: Option<u64>,
    /// Serving-loop epoch length override in transactions
    /// (`CODELAYOUT_SERVE_EPOCH_TXNS`), if any.
    pub serve_epoch_txns: Option<u64>,
    /// Serving-loop sampling-period override
    /// (`CODELAYOUT_SERVE_SAMPLE_PERIOD`), if any.
    pub serve_sample_period: Option<u64>,
    /// Serving-loop drift-threshold override in milli-L1 units
    /// (`CODELAYOUT_SERVE_DRIFT_THRESHOLD`), if any.
    pub serve_drift_threshold: Option<u64>,
    /// Serving-loop temporal duty-cycle override
    /// (`CODELAYOUT_SERVE_SAMPLE_DUTY`), if any.
    pub serve_sample_duty: Option<u64>,
    /// Autotuner wall-clock budget override in milliseconds
    /// (`CODELAYOUT_TUNE_BUDGET`), if any. `Some(0)` means unlimited.
    pub tune_budget_ms: Option<u64>,
    /// Autotuner candidate-evaluation budget override
    /// (`CODELAYOUT_TUNE_CANDIDATES`), if any.
    pub tune_candidates: Option<u64>,
    /// Autotuner trace-window length override in fetch events
    /// (`CODELAYOUT_TUNE_WINDOW`), if any.
    pub tune_window: Option<u64>,
}

impl RunEnv {
    /// Parses the current process environment. Unknown values fall back
    /// to defaults with a warning on stderr (a misspelled knob should
    /// be visible, not silently ignored).
    pub fn from_process_env() -> Self {
        let scenario = match std::env::var(SCENARIO_ENV).as_deref() {
            Ok("quick") => ScenarioSel::Quick,
            Ok("hw") => ScenarioSel::Hw,
            Ok("sim") | Err(_) => ScenarioSel::Sim,
            Ok(other) => {
                eprintln!("warning: {SCENARIO_ENV}={other} is not quick/sim/hw; using sim");
                ScenarioSel::Sim
            }
        };
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0);
        let vm_engine = match std::env::var(VM_ENGINE_ENV).as_deref() {
            Ok("interp") => VmEngine::Interp,
            Ok("block") | Err(_) => VmEngine::Block,
            Ok(other) => {
                eprintln!("warning: {VM_ENGINE_ENV}={other} is not interp/block; using block");
                VmEngine::Block
            }
        };
        let profile_source = match std::env::var(PROFILE_SOURCE_ENV).as_deref() {
            Ok("static") => ProfileSource::Static,
            Ok("measured") | Err(_) => ProfileSource::Measured,
            Ok(other) => {
                eprintln!(
                    "warning: {PROFILE_SOURCE_ENV}={other} is not measured/static; using measured"
                );
                ProfileSource::Measured
            }
        };
        let trace_out = std::env::var(TRACE_OUT_ENV).ok().filter(|p| !p.is_empty());
        let update_golden = std::env::var(UPDATE_GOLDEN_ENV).as_deref() == Ok("1");
        let seed = parse_u64_knob(SEED_ENV);
        let serve_epoch_txns = parse_u64_knob(SERVE_EPOCH_TXNS_ENV).filter(|&n| n > 0);
        let serve_sample_period = parse_u64_knob(SERVE_SAMPLE_PERIOD_ENV).filter(|&n| n > 0);
        let serve_drift_threshold = parse_u64_knob(SERVE_DRIFT_THRESHOLD_ENV).map(|t| {
            if t > 2000 {
                eprintln!(
                    "warning: {SERVE_DRIFT_THRESHOLD_ENV}={t} exceeds the L1 range; clamping to 2000"
                );
            }
            t.min(2000)
        });
        let serve_sample_duty = parse_u64_knob(SERVE_SAMPLE_DUTY_ENV).filter(|&n| n > 0);
        let tune_budget_ms = parse_u64_knob(TUNE_BUDGET_ENV);
        let tune_candidates = parse_u64_knob(TUNE_CANDIDATES_ENV).filter(|&n| n > 0);
        let tune_window = parse_u64_knob(TUNE_WINDOW_ENV).filter(|&n| n > 0);
        RunEnv {
            scenario,
            threads,
            vm_engine,
            profile_source,
            trace_out,
            update_golden,
            seed,
            serve_epoch_txns,
            serve_sample_period,
            serve_drift_threshold,
            serve_sample_duty,
            tune_budget_ms,
            tune_candidates,
            tune_window,
        }
    }

    /// The lane count: the `CODELAYOUT_THREADS` override, or
    /// the host's available parallelism.
    pub fn sweep_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// Parses a `u64` knob, accepting decimal or `0x`-prefixed hex; a
/// malformed value warns on stderr and falls back to unset.
fn parse_u64_knob(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: {var}={raw} is not an unsigned integer; ignoring");
            None
        }
    }
}

static RUN_ENV: OnceLock<RunEnv> = OnceLock::new();

/// The process-global [`RunEnv`], parsed from the environment on first
/// access and cached for the life of the process.
pub fn run_env() -> &'static RunEnv {
    RUN_ENV.get_or_init(RunEnv::from_process_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_env() {
        // The test process may carry CODELAYOUT_* from the caller; only
        // assert the invariants that hold regardless.
        let env = RunEnv::from_process_env();
        assert!(env.sweep_threads() >= 1);
        if env.threads.is_none() {
            assert_eq!(
                env.sweep_threads(),
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ScenarioSel::Quick.label(), "quick");
        assert_eq!(ScenarioSel::Sim.label(), "sim");
        assert_eq!(ScenarioSel::Hw.label(), "hw");
        assert_eq!(VmEngine::Interp.label(), "interp");
        assert_eq!(VmEngine::Block.label(), "block");
        assert_eq!(VmEngine::default(), VmEngine::Block);
        assert_eq!(ProfileSource::Measured.label(), "measured");
        assert_eq!(ProfileSource::Static.label(), "static");
        assert_eq!(ProfileSource::default(), ProfileSource::Measured);
    }

    #[test]
    fn u64_knob_parsing() {
        // A var name no other test (or caller) uses, so parallel tests
        // cannot race on it.
        let var = "CODELAYOUT_TEST_U64_KNOB_PARSING";
        assert_eq!(parse_u64_knob(var), None);
        std::env::set_var(var, "1234");
        assert_eq!(parse_u64_knob(var), Some(1234));
        std::env::set_var(var, "0xC0DE");
        assert_eq!(parse_u64_knob(var), Some(0xC0DE));
        std::env::set_var(var, "not-a-number");
        assert_eq!(parse_u64_knob(var), None);
        std::env::remove_var(var);
    }

    #[test]
    fn global_handle_is_stable() {
        let a = run_env() as *const RunEnv;
        let b = run_env() as *const RunEnv;
        assert_eq!(a, b);
    }
}
