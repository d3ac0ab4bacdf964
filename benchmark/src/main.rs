//! `codelayout-benchmark`: the toolkit's end-to-end and per-layer
//! benchmark. See `README.md` next to `Cargo.toml` for the workloads,
//! the metrics and how to read them.
//!
//! ```text
//! codelayout-benchmark --workload W --seed N --seconds S --trace 0|1
//!     runs W on the `sim` scenario repeatedly for about S seconds (at
//!     least two runs) and prints one JSON result line: the end-to-end
//!     metrics over the runs, or with --trace 1 the per-layer metrics of
//!     one traced run.
//! codelayout-benchmark run [--runs N] [--seed N] [--out FILE] [--smoke]
//!     runs every workload N times plus one traced run, prints every
//!     metric, and writes one JSON record (default: out/ next to
//!     Cargo.toml). --smoke uses the small `quick` scenario.
//! codelayout-benchmark compare A.json B.json
//!     compares two records; exits 1 when a metric is worse or
//!     unresolved.
//! ```

mod child;
mod compare;
mod probes;
mod runner;
mod spec;
mod stats;

use runner::{ScenarioKind, WorkloadRuns};
use serde_json::{json, Value};
use spec::{Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest untraced runs a result is the median of. Two, so that on a host
/// twice as slow as usual (runs of about 20 s) an invocation still ends
/// near a 40 s budget.
const MIN_RUNS: u64 = 2;
/// Untraced runs per workload of `run` unless `--runs` says otherwise.
const DEFAULT_RUNS: u64 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("child") => cmd_child(&args[1..]),
        _ => cmd_measure(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("codelayout-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare `--flag`s.
struct Flags(BTreeMap<String, Option<String>>);

impl Flags {
    fn parse(args: &[String], known: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{a}`"))?;
            if switches.contains(&key) {
                map.insert(key.to_string(), None);
            } else if known.contains(&key) {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                map.insert(key.to_string(), Some(v.clone()));
            } else {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(Flags(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).and_then(|v| v.as_deref())
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let w = self.require("workload")?;
        Workload::parse(w).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload `{w}`; expected one of {}",
                names.join(", ")
            )
        })
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(format!("--trace must be 0 or 1, not `{t}`")),
        }
    }

    fn scenario(&self) -> Result<ScenarioKind, String> {
        let s = self.get("scenario").unwrap_or("sim");
        ScenarioKind::parse(s)
            .ok_or_else(|| format!("unknown scenario `{s}`; expected sim or quick"))
    }

    /// The seed, decimal or `0x` hex; defaults to the scenario's own.
    fn seed(&self, kind: ScenarioKind) -> Result<u64, String> {
        let Some(raw) = self.get("seed") else {
            return Ok(kind.base().seed);
        };
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed.map_err(|_| format!("--seed `{raw}` is not an unsigned integer"))
    }
}

/// The measurement entry point: one workload, one seed, about
/// `--seconds` of runs on the `sim` scenario, one JSON result line.
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let workload = flags.workload()?;
    let kind = ScenarioKind::Sim;
    let seed = flags.seed(kind)?;
    let traced = flags.trace()?;
    let seconds: u64 = flags
        .require("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number".to_string())?;
    let budget = Duration::from_secs(seconds);

    let mut runs = WorkloadRuns::new(workload);
    if traced {
        runs.attempt(kind, seed, true);
    } else {
        // Stop before a run that would end past the budget, taking the
        // last run's length as the next one's.
        let start = Instant::now();
        loop {
            let t = Instant::now();
            runs.attempt(kind, seed, false);
            let last = t.elapsed();
            if runs.attempted >= MIN_RUNS && start.elapsed() + last > budget {
                break;
            }
        }
    }
    let line = runner::result_line(&runs, traced)?;
    println!("{}", serde_json::to_string(&line).expect("result json"));
    Ok(ExitCode::SUCCESS)
}

/// One run inside a child process; prints its result as the last line.
fn cmd_child(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "trace", "scenario"], &[])?;
    let workload = flags.workload()?;
    let kind = flags.scenario()?;
    let scenario = kind.scenario(flags.seed(kind)?);
    let result = child::run(workload, &scenario, flags.trace()?);
    println!(
        "{}",
        serde_json::to_string(&result.to_json()).expect("child json")
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload N times plus one traced run; one JSON record.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["runs", "seed", "out"], &["smoke"])?;
    let kind = if flags.has("smoke") {
        ScenarioKind::Quick
    } else {
        ScenarioKind::Sim
    };
    let seed = flags.seed(kind)?;
    let n: u64 = match flags.get("runs") {
        Some(r) => r
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--runs must be a positive whole number")?,
        None => DEFAULT_RUNS,
    };
    let out = match flags.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-{seed:#x}.json", kind.label())),
    };

    let start = Instant::now();
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let mut runs = WorkloadRuns::new(w);
        for _ in 0..n {
            runs.attempt(kind, seed, false);
        }
        runs.attempt(kind, seed, true);
        ok &= runs.failures.is_empty();
        print_workload(&runs);
        workloads.push(workload_record(&runs));
    }
    let record = json!({
        "tool": "codelayout-benchmark",
        "scenario": kind.label(),
        "seed": seed,
        "threads": child::threads(),
        "runs": n,
        "total_s": start.elapsed().as_secs_f64(),
        "workloads": workloads,
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&record).expect("record json") + "\n";
    std::fs::write(&out, text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "\nwrote {} in {:.0} s",
        out.display(),
        start.elapsed().as_secs_f64()
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_workload(runs: &WorkloadRuns) {
    println!(
        "\n== {}: {} runs, {} failed\n   {}",
        runs.workload.name(),
        runs.attempted,
        runs.failed(),
        runs.workload.why()
    );
    for f in &runs.failures {
        println!("   failure: {f}");
    }
    for (m, values) in runs.end_to_end_values() {
        if !values.is_empty() {
            let (q1, q3) = stats::quartiles(&values);
            println!(
                "{:<36} {:>14.6} {:<8} [{q1:.6}, {q3:.6}]",
                m.name,
                stats::median(&values),
                m.unit
            );
        }
    }
    for (l, v) in runs.per_layer_values().unwrap_or_default() {
        println!("{:<36} {v:>14.6} {}", l.name, l.unit);
    }
}

fn workload_record(runs: &WorkloadRuns) -> Value {
    let mut e2e = serde_json::Map::new();
    for (m, values) in runs.end_to_end_values() {
        e2e.insert(
            m.name.to_string(),
            json!({"unit": m.unit, "better": m.better.label(), "bound": m.bound, "values": values}),
        );
    }
    let names = |ws: &[Workload]| ws.iter().map(|w| w.name()).collect::<Vec<_>>();
    let mut layers = serde_json::Map::new();
    for (l, v) in runs.per_layer_values().unwrap_or_default() {
        layers.insert(
            l.name.to_string(),
            json!({
                "unit": l.unit,
                "better": l.better.label(),
                "moves": l.moves,
                "on": names(l.on),
                "control": names(l.control),
                "values": [v],
            }),
        );
    }
    json!({
        "name": runs.workload.name(),
        "attempted": runs.attempted,
        "failed": runs.failed(),
        "failures": runs.failures.clone(),
        "digest": runs.digest.clone(),
        "end_to_end": e2e,
        "per_layer": layers,
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: codelayout-benchmark compare A.json B.json".into());
    };
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    let flagged = compare::compare(&read(a)?, &read(b)?);
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
