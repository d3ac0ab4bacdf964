//! The runner: starts one child process per run, one at a time, checks
//! each run's output, and aggregates the runs of a workload into metrics.

use crate::child::{threads, ChildResult};
use crate::spec::{EndToEnd, Layer, Workload, END_TO_END, LAYERS};
use crate::stats::median;
use codelayout_oltp::Scenario;
use serde_json::{json, Value};
use std::process::{Command, Stdio};

/// The scenario a run uses: the paper-scale `sim` one, or the small
/// `quick` one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    Sim,
    Quick,
}

impl ScenarioKind {
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Sim => "sim",
            ScenarioKind::Quick => "quick",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(ScenarioKind::Sim),
            "quick" => Some(ScenarioKind::Quick),
            _ => None,
        }
    }

    /// The scenario with its own master seed.
    pub fn base(self) -> Scenario {
        match self {
            ScenarioKind::Sim => Scenario::paper_sim(),
            ScenarioKind::Quick => Scenario::quick(),
        }
    }

    /// The scenario with its master seed replaced by `seed`.
    pub fn scenario(self, seed: u64) -> Scenario {
        Scenario {
            seed,
            ..self.base()
        }
    }
}

/// glibc malloc settings of every child. By default glibc raises its
/// mmap threshold to the size of each large block freed, so where a
/// later large buffer lands, and how much of its unused capacity is
/// resident, depends on the allocation history, which the seed changes.
/// Fixed settings make the peak a function of the sizes alone: blocks of
/// 8 MiB and more get fresh pages from mmap, where only touched pages
/// count, and a 64 MiB trim threshold keeps the heap from being returned
/// and faulted in again around every tuning candidate.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "8388608"),
    ("MALLOC_TRIM_THRESHOLD_", "67108864"),
];

/// Runs `workload` in a fresh child process. The child sees no
/// `CODELAYOUT_*` variable except `CODELAYOUT_THREADS`, and no malloc
/// setting but [`MALLOC_ENV`], so knobs set in the caller's shell cannot
/// change what is measured.
pub fn spawn(
    workload: Workload,
    kind: ScenarioKind,
    seed: u64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--scenario",
        kind.label(),
        "--seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    for (key, _) in std::env::vars_os() {
        let k = key.to_string_lossy();
        if k.starts_with("CODELAYOUT_") || k.starts_with("MALLOC_") || k == "GLIBC_TUNABLES" {
            cmd.env_remove(&key);
        }
    }
    cmd.env("CODELAYOUT_THREADS", threads().to_string());
    cmd.envs(MALLOC_ENV);
    cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
    let output = cmd
        .output()
        .map_err(|e| format!("starting the child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed no result")?;
    let v = serde_json::from_str(last).map_err(|e| format!("child result is not JSON: {e}"))?;
    ChildResult::from_json(&v).ok_or_else(|| format!("malformed child result: {last}"))
}

/// Every run of one workload, with the outcome of its checks.
pub struct WorkloadRuns {
    pub workload: Workload,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Runs that passed every check, untraced.
    pub runs: Vec<ChildResult>,
    /// The traced run, when it passed every check.
    pub traced: Option<ChildResult>,
    /// Digest of the first run's deterministic output; every later run
    /// must reproduce it.
    pub digest: Option<String>,
}

impl WorkloadRuns {
    pub fn new(workload: Workload) -> Self {
        WorkloadRuns {
            workload,
            attempted: 0,
            failures: Vec::new(),
            runs: Vec::new(),
            traced: None,
            digest: None,
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Starts one run, checks it, and files it.
    pub fn attempt(&mut self, kind: ScenarioKind, seed: u64, traced: bool) {
        self.attempted += 1;
        let run = self.attempted;
        let result = spawn(self.workload, kind, seed, traced).and_then(|r| self.check(r));
        match result {
            Ok(r) if traced => self.traced = Some(r),
            Ok(r) => self.runs.push(r),
            Err(e) => {
                eprintln!("[benchmark] {} run {run} failed: {e}", self.workload.name());
                self.failures.push(format!("run {run}: {e}"));
            }
        }
    }

    fn check(&mut self, r: ChildResult) -> Result<ChildResult, String> {
        if !r.check_failures.is_empty() {
            return Err(r.check_failures.join("; "));
        }
        match &self.digest {
            None => self.digest = Some(r.digest.clone()),
            Some(d) if *d != r.digest => {
                return Err(format!("output digest {} differs from {d}", r.digest))
            }
            Some(_) => {}
        }
        Ok(r)
    }

    /// Every end-to-end metric with its per-run values.
    pub fn end_to_end_values(&self) -> Vec<(&'static EndToEnd, Vec<f64>)> {
        END_TO_END
            .iter()
            .map(|m| (m, self.runs.iter().map(|r| r.end_to_end(m.name)).collect()))
            .collect()
    }

    /// Every per-layer metric with its value from the traced run.
    pub fn per_layer_values(&self) -> Option<Vec<(&'static Layer, f64)>> {
        let traced = self.traced.as_ref()?;
        LAYERS
            .iter()
            .map(|l| Some((l, traced.probes.iter().find(|(n, _)| *n == l.name)?.1)))
            .collect()
    }
}

/// The result line of one invocation: the end-to-end metrics over its
/// runs, or the traced run's per-layer metrics.
pub fn result_line(runs: &WorkloadRuns, traced: bool) -> Result<Value, String> {
    let mut metrics = serde_json::Map::new();
    if traced {
        let values = runs.per_layer_values().ok_or("the traced run failed")?;
        for (l, v) in values {
            metrics.insert(l.name.to_string(), json!({"value": v, "unit": l.unit}));
        }
    } else {
        if runs.runs.is_empty() {
            return Err("no run passed".into());
        }
        for (m, values) in runs.end_to_end_values() {
            // Noise in a peak only adds to it, so the smallest peak is
            // the steadiest.
            let value = if m.name == "peak_rss_mb" {
                values.iter().copied().fold(f64::INFINITY, f64::min)
            } else {
                median(&values)
            };
            metrics.insert(m.name.to_string(), json!({"value": value, "unit": m.unit}));
        }
    }
    Ok(json!({
        "correct": runs.failures.is_empty(),
        "attempted": runs.attempted,
        "failed": runs.failed(),
        "metrics": metrics,
    }))
}
