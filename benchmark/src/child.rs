//! One workload run inside a fresh child process: set up the study, time
//! the workload's public entry call, digest its deterministic output and
//! check it. The runner ([`crate::runner`]) starts one child per run.

use crate::probes;
use crate::spec::Workload;
use crate::stats::median;
use codelayout_bench::{figures, Harness};
use codelayout_oltp::{build_study, Scenario, Study};
use codelayout_serve::{run_serve, ServeConfig, ServeReport};
use codelayout_tune::{run_tune, TuneConfig, TuneReport};
use serde_json::{json, Value};
use std::time::Instant;

/// What one child reports back to the runner, as one JSON line.
pub struct ChildResult {
    /// Study generation, profiling run and harness construction, seconds;
    /// the median of [`SETUP_REPS`] set-ups.
    pub setup_s: f64,
    /// The workload's entry call, seconds.
    pub wall_s: f64,
    /// Peak resident set of the child (`VmHWM`), MB.
    pub peak_rss_mb: f64,
    /// The workload's headline I-cache miss count.
    pub misses: u64,
    /// Digest of the workload's deterministic output.
    pub digest: String,
    /// Failed output checks; empty when the output is correct.
    pub check_failures: Vec<String>,
    /// Per-layer probe values (traced runs only).
    pub probes: Vec<(&'static str, f64)>,
}

impl ChildResult {
    pub fn to_json(&self) -> Value {
        let probes: serde_json::Map = self
            .probes
            .iter()
            .map(|&(name, v)| (name.to_string(), json!(v)))
            .collect();
        json!({
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "peak_rss_mb": self.peak_rss_mb,
            "misses": self.misses,
            "digest": self.digest.clone(),
            "check_failures": self.check_failures.clone(),
            "probes": probes,
        })
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        let probes = v
            .get("probes")
            .as_object()?
            .iter()
            .map(|(k, x)| Some((crate::spec::layer_name(k)?, x.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(ChildResult {
            setup_s: v.get("setup_s").as_f64()?,
            wall_s: v.get("wall_s").as_f64()?,
            peak_rss_mb: v.get("peak_rss_mb").as_f64()?,
            misses: v.get("misses").as_u64()?,
            digest: v.get("digest").as_str()?.to_string(),
            check_failures: v
                .get("check_failures")
                .as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()?,
            probes,
        })
    }

    /// The value of end-to-end metric `name`.
    pub fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "wall_s" => self.wall_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "misses" => self.misses as f64,
            other => unreachable!("no end-to-end metric `{other}`"),
        }
    }
}

/// The figure functions of `run_all`'s offline stage, in its order.
type FigFn = fn(&mut Harness) -> Value;
const FIGURES: [(&str, FigFn); 15] = [
    ("fig03", figures::fig03),
    ("fig04", figures::fig04),
    ("fig05", figures::fig05),
    ("fig06", figures::fig06),
    ("fig07", figures::fig07),
    ("fig08", figures::fig08),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("claims", figures::claims),
    ("compare", figures::compare),
    ("fig_static", figures::fig_static),
];

/// Sweep worker threads the children use: the host's parallelism, capped
/// at four so hosts of different sizes run comparable work.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Runs `workload` once on `scenario`. With `traced`, the entry call runs
/// with the in-program tracer on and the per-layer probes follow it.
pub fn run(workload: Workload, scenario: &Scenario, traced: bool) -> ChildResult {
    codelayout_obs::tracer().set_enabled(false);
    let mut out = match workload {
        Workload::Paper => paper_sim(scenario, traced),
        Workload::Tune => tune_sim(scenario, traced),
        Workload::Serve => serve_sim(scenario, traced),
    };
    out.peak_rss_mb = peak_rss_mb();
    // The other set-ups come after the peak is read: freeing a set-up
    // before the workload would change the heap it runs on, and with it
    // the peak.
    let mut setups = vec![out.setup_s];
    setups.extend((1..SETUP_REPS).map(|_| setup_secs(workload, scenario)));
    out.setup_s = median(&setups);
    out
}

/// Runs `f` with the in-program tracer on only when `traced`; returns its
/// result and wall seconds.
fn timed<T>(traced: bool, f: impl FnOnce() -> T) -> (T, f64) {
    codelayout_obs::tracer().set_enabled(traced);
    let start = Instant::now();
    let v = f();
    let secs = start.elapsed().as_secs_f64();
    codelayout_obs::tracer().set_enabled(false);
    (v, secs)
}

/// Set-ups per run. A set-up takes about a tenth of a second, so one
/// alone is mostly noise.
const SETUP_REPS: usize = 3;

/// Seconds of one more set-up of `workload`; the result is dropped.
fn setup_secs(workload: Workload, scenario: &Scenario) -> f64 {
    match workload {
        Workload::Paper => timed(false, || Harness::with_label(scenario, "sim")).1,
        Workload::Tune => timed(false, || build_study(scenario)).1,
        Workload::Serve => timed(false, || serve_setup(scenario)).1,
    }
}

fn paper_sim(scenario: &Scenario, traced: bool) -> ChildResult {
    let (mut h, setup_s) = timed(false, || Harness::with_label(scenario, "sim"));
    let (figs, wall_s) = timed(traced, || {
        FIGURES
            .iter()
            .map(|&(name, f)| (name, f(&mut h)))
            .collect::<Vec<_>>()
    });
    let mut text = String::new();
    for (name, v) in &figs {
        text.push_str(name);
        text.push('\n');
        text.push_str(&serde_json::to_string_pretty(v).expect("figure json"));
        text.push('\n');
    }
    let compare = &figs
        .iter()
        .find(|(n, _)| *n == "compare")
        .expect("compare")
        .1;
    let (misses, check_failures) = check_compare(compare);
    ChildResult {
        setup_s,
        wall_s,
        peak_rss_mb: 0.0,
        misses,
        digest: codelayout_obs::manifest::digest_hex(text.as_bytes()),
        check_failures,
        probes: if traced {
            probes::run_all(&h.study)
        } else {
            Vec::new()
        },
    }
}

/// Misses of `series` at `size_kb` in the comparison table.
fn compare_misses(compare: &Value, series: &str, size_kb: u64) -> Option<u64> {
    compare
        .get("measured")
        .as_array()?
        .iter()
        .find(|e| e.get("series").as_str() == Some(series))?
        .get("misses")
        .as_array()?
        .iter()
        .find(|c| c.get("size_kb").as_u64() == Some(size_kb))?
        .get("misses")
        .as_u64()
}

/// The comparison table's headline, the fewest misses any series takes
/// at 128 KB, and the check of the paper's claim that `all` beats `base`
/// at 64 and 128 KB.
fn check_compare(compare: &Value) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for kb in [64, 128] {
        match (
            compare_misses(compare, "base", kb),
            compare_misses(compare, "all", kb),
        ) {
            (Some(b), Some(a)) if a < b => {}
            got => failures.push(format!("`all` does not beat `base` at {kb} KB: {got:?}")),
        }
    }
    let best = compare
        .get("measured")
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|e| compare_misses(compare, e.get("series").as_str()?, 128))
        .min();
    if best.is_none() {
        failures.push("the comparison table has no 128 KB cells".into());
    }
    (best.unwrap_or(0), failures)
}

fn tune_sim(scenario: &Scenario, traced: bool) -> ChildResult {
    let (study, setup_s) = timed(false, || build_study(scenario));
    let cfg = TuneConfig {
        sweep_threads: threads(),
        ..TuneConfig::for_scenario(scenario)
    };
    let (report, wall_s) = timed(traced, || run_tune(&study, &cfg));
    ChildResult {
        setup_s,
        wall_s,
        peak_rss_mb: 0.0,
        misses: report.winner().map_or(0, |w| w.best_score),
        digest: digest_json(&report.deterministic_json()),
        check_failures: check_tune(&report),
        probes: if traced {
            probes::run_all(&study)
        } else {
            Vec::new()
        },
    }
}

/// The search keeps the best validated point, so no family ends worse
/// than its defaults, and some family beats the natural layout.
fn check_tune(report: &TuneReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.trajectory.iter().any(|c| c.accepted && !c.validated) {
        failures.push("an accepted candidate failed translation validation".into());
    }
    for f in &report.families {
        if f.best_score > f.default_score {
            failures.push(format!("`{}` ended worse than its defaults", f.series));
        }
    }
    match report.winner() {
        Some(w) if w.best_score < report.base_score => {}
        _ => failures.push("no tuned family beats the natural layout".into()),
    }
    failures
}

/// The serving study and configuration for `scenario`: the drift demo on
/// a study sized to its stream.
pub fn serve_setup(scenario: &Scenario) -> (Study, ServeConfig) {
    let cfg = ServeConfig {
        sweep_threads: threads(),
        ..ServeConfig::drift_demo(scenario)
    };
    (build_study(&cfg.serve_scenario(scenario)), cfg)
}

fn serve_sim(scenario: &Scenario, traced: bool) -> ChildResult {
    let ((study, cfg), setup_s) = timed(false, || serve_setup(scenario));
    let (report, wall_s) = timed(traced, || run_serve(&study, &cfg));
    ChildResult {
        setup_s,
        wall_s,
        peak_rss_mb: 0.0,
        misses: report.recovery.serve_misses,
        digest: digest_json(&report.deterministic_json()),
        check_failures: check_serve(&report, &cfg),
        // The probes run on the `sim` study, not the serving one.
        probes: if traced {
            probes::run_all(&build_study(scenario))
        } else {
            Vec::new()
        },
    }
}

fn check_serve(report: &ServeReport, cfg: &ServeConfig) -> Vec<String> {
    let mut failures = Vec::new();
    if !report.all_swaps_validated() {
        failures.push("a re-layout failed translation validation".into());
    }
    if report.epochs.len() as u64 != cfg.total_epochs() {
        failures.push(format!(
            "{} epochs served, {} configured",
            report.epochs.len(),
            cfg.total_epochs()
        ));
    }
    failures
}

fn digest_json(v: &Value) -> String {
    let text = serde_json::to_string_pretty(v).expect("report json");
    codelayout_obs::manifest::digest_hex(text.as_bytes())
}

/// This process's peak resident set in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
