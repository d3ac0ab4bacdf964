//! `RunEnv`: every `CODELAYOUT_*` knob, parsed once.
//!
//! [`RunEnv`] is the single source of truth: one struct, parsed once per
//! process by [`run_env`], consumed everywhere (and re-exported by
//! `codelayout-bench` so its binaries and tests need no extra
//! dependency).
//!
//! | Variable | Field | Meaning |
//! |---|---|---|
//! | `CODELAYOUT_SCENARIO` | [`RunEnv::scenario`] | workload scale: `quick` / `sim` / `hw` (default `sim`) |
//! | `CODELAYOUT_THREADS` | [`RunEnv::threads`] | lane count: the harness's measurement lanes, the autotuner's family lanes and the serving loop's recovery lanes (default: available parallelism) |
//! | `CODELAYOUT_VM_ENGINE` | [`RunEnv::vm_engine`] | `block` (default) or `interp` VM execution tier |
//! | `CODELAYOUT_TRACE_OUT` | [`RunEnv::trace_out`] | JSON-lines span event log file |
//! | `CODELAYOUT_UPDATE_GOLDEN` | [`RunEnv::update_golden`] | `1` = rewrite golden snapshots instead of asserting |
//! | `CODELAYOUT_SEED` | [`RunEnv::seed`] | scenario master-seed override (decimal or `0x` hex) |
//! | `CODELAYOUT_TUNE_CANDIDATES` | [`RunEnv::tune_candidates`] | autotuner candidate-evaluation budget per series family |
//!
//! The README's "Environment knobs" table is generated from this list;
//! keep the two in sync. Any other `CODELAYOUT_*` variable, a removed
//! knob included, draws one warning on stderr naming these seven; it
//! never fails the run.

use std::sync::OnceLock;

/// Environment variable selecting the workload scenario.
pub const SCENARIO_ENV: &str = "CODELAYOUT_SCENARIO";
/// Environment variable overriding the lane count.
pub const THREADS_ENV: &str = "CODELAYOUT_THREADS";
/// Environment variable selecting the VM execution tier.
pub const VM_ENGINE_ENV: &str = "CODELAYOUT_VM_ENGINE";
/// Environment variable naming the JSON-lines span event log file.
pub const TRACE_OUT_ENV: &str = "CODELAYOUT_TRACE_OUT";
/// Environment variable switching golden tests into rewrite mode.
pub const UPDATE_GOLDEN_ENV: &str = "CODELAYOUT_UPDATE_GOLDEN";
/// Environment variable overriding the scenario's master seed (decimal
/// or `0x`-prefixed hex). One seed determines workload generation, the
/// per-process RNG streams, and therefore every serving-loop epoch
/// record.
pub const SEED_ENV: &str = "CODELAYOUT_SEED";
/// Environment variable overriding the layout autotuner's
/// candidate-evaluation budget per series family.
pub const TUNE_CANDIDATES_ENV: &str = "CODELAYOUT_TUNE_CANDIDATES";

/// Every knob [`RunEnv`] reads, in the order of the module's table.
const KNOWN_KNOBS: [&str; 7] = [
    SCENARIO_ENV,
    THREADS_ENV,
    VM_ENGINE_ENV,
    TRACE_OUT_ENV,
    UPDATE_GOLDEN_ENV,
    SEED_ENV,
    TUNE_CANDIDATES_ENV,
];

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
    /// Span event-log file (`CODELAYOUT_TRACE_OUT`), if any.
    pub trace_out: Option<String>,
    /// True when golden tests should rewrite their snapshots
    /// (`CODELAYOUT_UPDATE_GOLDEN=1`).
    pub update_golden: bool,
    /// Scenario master-seed override (`CODELAYOUT_SEED`), if any.
    pub seed: Option<u64>,
    /// Autotuner candidate-evaluation budget override
    /// (`CODELAYOUT_TUNE_CANDIDATES`), if any.
    pub tune_candidates: Option<u64>,
}

impl RunEnv {
    /// Parses the current process environment. Unknown values fall back
    /// to defaults with a warning on stderr, and so does an unknown
    /// `CODELAYOUT_*` name (a misspelled or removed knob should be
    /// visible, not silently ignored).
    pub fn from_process_env() -> Self {
        let unknown = unknown_knobs(std::env::vars_os().map(|(name, value)| {
            (
                name.to_string_lossy().into_owned(),
                value.to_string_lossy().into_owned(),
            )
        }));
        if !unknown.is_empty() {
            eprintln!(
                "warning: ignoring unknown {}; the known knobs are {}",
                unknown.join(", "),
                KNOWN_KNOBS.join(", ")
            );
        }
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
        let trace_out = std::env::var(TRACE_OUT_ENV).ok().filter(|p| !p.is_empty());
        let update_golden = std::env::var(UPDATE_GOLDEN_ENV).as_deref() == Ok("1");
        let seed = parse_u64_knob(SEED_ENV);
        let tune_candidates = parse_u64_knob(TUNE_CANDIDATES_ENV).filter(|&n| n > 0);
        RunEnv {
            scenario,
            threads,
            vm_engine,
            trace_out,
            update_golden,
            seed,
            tune_candidates,
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

/// The `NAME=value` entries of `vars` whose name starts with
/// `CODELAYOUT_` but is none of [`KNOWN_KNOBS`], in input order.
fn unknown_knobs(vars: impl IntoIterator<Item = (String, String)>) -> Vec<String> {
    vars.into_iter()
        .filter(|(name, _)| {
            name.starts_with("CODELAYOUT_") && !KNOWN_KNOBS.contains(&name.as_str())
        })
        .map(|(name, value)| format!("{name}={value}"))
        .collect()
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
    fn unknown_knobs_are_named_and_known_ones_are_not() {
        let pair = |name: &str, value: &str| (name.to_string(), value.to_string());
        let mut vars: Vec<(String, String)> =
            KNOWN_KNOBS.iter().map(|name| pair(name, "1")).collect();
        vars.push(pair("PATH", "/bin"));
        vars.push(pair("CODELAYOUT_PROFILE_SOURCE", "static"));
        vars.push(pair("CODELAYOUT_TUNE_BUDGET", "100"));
        assert_eq!(
            unknown_knobs(vars),
            [
                "CODELAYOUT_PROFILE_SOURCE=static",
                "CODELAYOUT_TUNE_BUDGET=100"
            ]
        );
        for name in KNOWN_KNOBS {
            assert!(unknown_knobs([pair(name, "x")]).is_empty(), "{name}");
        }
    }

    #[test]
    fn global_handle_is_stable() {
        let a = run_env() as *const RunEnv;
        let b = run_env() as *const RunEnv;
        assert_eq!(a, b);
    }
}
