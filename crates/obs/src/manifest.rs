//! Machine-readable run manifests.
//!
//! Every harness binary finishes by writing
//! `results/<scenario>/manifest.json`: which tool ran, against which
//! config and git revision, where the wall time went (the tracer's
//! phase tree, with a coverage figure proving the phases account for
//! the run), a full metrics snapshot, and an FNV-1a digest of every
//! output file it produced. A later run — or CI — can diff two
//! manifests and see at a glance whether a figure drifted, a phase got
//! slower, or a lint count regressed.
//!
//! The schema is deliberately stable and self-describing:
//!
//! ```text
//! {
//!   "tool": "run_all",            // binary that wrote the manifest
//!   "schema_version": 2,
//!   "scenario": "quick",
//!   "git": "4668bbd",             // git describe --always --dirty
//!   "created_unix_ms": 1754380800000,
//!   "config": { ... },            // scenario parameters
//!   "host": { "parallelism": 8, "threads_env": null },
//!   "total_wall_ns": 2134000000,  // the root phase's wall time
//!   "phase_coverage_pct": 99.2,   // children / root, must stay ≥ 95
//!   "phases": [ {"name","wall_ns","pct","count","children"} ... ],
//!   "metrics": { "counters": {...}, "gauges": {...}, "histograms": {...} },
//!   "outputs": { "fig04.json": "fnv1a64:..." },
//!   "lint": { ... },              // optional, merged by layout_lint
//!   "serve": { ... }              // optional, the serving loop's epoch
//!                                 // records (see `codelayout-serve`)
//! }
//! ```
//!
//! Volatile fields (times, git, digests, metric values) are masked by
//! [`mask_volatile`] so the golden schema test pins structure and
//! names without pinning wall-clock noise.

use crate::metrics::Registry;
use crate::span::Tracer;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};

/// Current manifest schema version. Version 2 added the optional
/// `serve` section (the serving loop's epoch records), the `p95`
/// histogram quantile, and the `swap_wall_ns` volatile key.
pub const SCHEMA_VERSION: u64 = 2;

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest string stored in manifests: `fnv1a64:<16 hex digits>`.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(bytes))
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable (manifests must never fail a run).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Builds one run manifest. Sections are filled by the harness and
/// written with [`write`](ManifestBuilder::write); see the module docs
/// for the schema.
#[derive(Debug)]
pub struct ManifestBuilder {
    map: Map,
}

impl ManifestBuilder {
    /// Starts a manifest for `tool` on `scenario`, stamping schema
    /// version, git revision, creation time, and host parallelism.
    pub fn new(tool: &str, scenario: &str) -> Self {
        let mut map = Map::new();
        map.insert("tool".into(), Value::from(tool));
        map.insert("schema_version".into(), Value::from(SCHEMA_VERSION));
        map.insert("scenario".into(), Value::from(scenario));
        map.insert("git".into(), Value::from(git_describe()));
        map.insert("created_unix_ms".into(), Value::from(unix_ms()));
        map.insert("config".into(), json!({}));
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        map.insert(
            "host".into(),
            json!({
                "parallelism": parallelism,
                "threads_env": crate::run_env().threads.map(|n| n.to_string()),
            }),
        );
        map.insert("total_wall_ns".into(), Value::from(0u64));
        map.insert("phase_coverage_pct".into(), Value::from(0.0f64));
        map.insert("phases".into(), Value::Array(Vec::new()));
        map.insert("metrics".into(), json!({}));
        map.insert("outputs".into(), json!({}));
        ManifestBuilder { map }
    }

    /// Sets the scenario configuration section.
    pub fn config(&mut self, config: Value) -> &mut Self {
        self.map.insert("config".into(), config);
        self
    }

    /// Fills the phase sections from a tracer's completed spans. `root`
    /// names the phase whose wall time is the run total (the binary's
    /// outermost span); coverage is that root's direct-children
    /// coverage. All recorded roots (e.g. worker-thread spans) are
    /// included in `phases`.
    pub fn phases(&mut self, tracer: &Tracer, root: &str) -> &mut Self {
        let tree = tracer.phase_tree();
        let (total_ns, coverage) = tree
            .iter()
            .find(|n| n.name == root)
            .map(|n| (n.stat.total_ns, n.coverage_pct()))
            .unwrap_or((0, 0.0));
        let phases: Vec<Value> = tree.iter().map(|n| n.to_json(total_ns.max(1))).collect();
        self.map
            .insert("total_wall_ns".into(), Value::from(total_ns));
        self.map.insert(
            "phase_coverage_pct".into(),
            Value::from((coverage * 100.0).round() / 100.0),
        );
        self.map.insert("phases".into(), Value::Array(phases));
        self
    }

    /// Fills the metrics section from a registry snapshot.
    pub fn metrics(&mut self, registry: &Registry) -> &mut Self {
        self.map
            .insert("metrics".into(), registry.snapshot().to_json());
        self
    }

    /// Records one output file's digest (see [`digest_hex`]).
    pub fn output(&mut self, name: &str, digest: String) -> &mut Self {
        let outputs = match self.map.get("outputs") {
            Some(Value::Object(m)) => {
                let mut m = m.clone();
                m.insert(name.into(), Value::from(digest));
                m
            }
            _ => {
                let mut m = Map::new();
                m.insert(name.into(), Value::from(digest));
                m
            }
        };
        self.map.insert("outputs".into(), Value::Object(outputs));
        self
    }

    /// Sets an arbitrary extra section (e.g. `lint`).
    pub fn section(&mut self, key: &str, value: Value) -> &mut Self {
        self.map.insert(key.into(), value);
        self
    }

    /// The manifest as a JSON value.
    pub fn build(&self) -> Value {
        Value::Object(self.map.clone())
    }

    /// Writes `<dir>/manifest.json` (creating `dir`), returning the
    /// path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        write_manifest(dir, &self.build())
    }
}

/// Writes a manifest value to `<dir>/manifest.json` (creating `dir`).
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_manifest(dir: &Path, manifest: &Value) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("manifest.json");
    let mut text =
        serde_json::to_string_pretty(manifest).map_err(|e| std::io::Error::other(e.to_string()))?;
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Loads `<dir>/manifest.json` if present and parseable.
pub fn load_manifest(dir: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
    serde_json::from_str(&text).ok()
}

/// Merges `value` under `key` into `<dir>/manifest.json`, creating a
/// minimal manifest (tool = `tool`) when none exists. This is how
/// `layout_lint` folds its summary into a manifest `run_all` wrote
/// earlier — or stands one up when it runs alone.
///
/// # Errors
/// Propagates filesystem errors.
pub fn merge_section(
    dir: &Path,
    tool: &str,
    scenario: &str,
    key: &str,
    value: Value,
) -> std::io::Result<PathBuf> {
    let manifest = match load_manifest(dir) {
        Some(Value::Object(mut map)) => {
            map.insert(key.into(), value);
            Value::Object(map)
        }
        _ => {
            let mut b = ManifestBuilder::new(tool, scenario);
            b.section(key, value);
            b.build()
        }
    };
    write_manifest(dir, &manifest)
}

/// Checks that a manifest value has the documented schema: required
/// keys, right JSON types, phases shaped as `{name, wall_ns, pct,
/// count, children}` trees, and metrics split into
/// counters/gauges/histograms.
///
/// # Errors
/// Returns a human-readable description of the first violation.
pub fn validate_manifest(v: &Value) -> Result<(), String> {
    let obj = v.as_object().ok_or("manifest is not an object")?;
    for key in ["tool", "scenario", "git"] {
        if v.get(key).as_str().is_none() {
            return Err(format!("missing or non-string `{key}`"));
        }
    }
    if v.get("schema_version").as_u64() != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    for key in ["created_unix_ms", "total_wall_ns"] {
        if v.get(key).as_u64().is_none() {
            return Err(format!("missing or non-integer `{key}`"));
        }
    }
    if v.get("phase_coverage_pct").as_f64().is_none() {
        return Err("missing or non-number `phase_coverage_pct`".into());
    }
    for key in ["config", "host", "outputs"] {
        if v.get(key).as_object().is_none() {
            return Err(format!("missing or non-object `{key}`"));
        }
    }
    let phases = v
        .get("phases")
        .as_array()
        .ok_or("missing or non-array `phases`")?;
    for p in phases {
        validate_phase(p)?;
    }
    let metrics = v
        .get("metrics")
        .as_object()
        .ok_or("missing or non-object `metrics`")?;
    for key in ["counters", "gauges", "histograms"] {
        if metrics.get(key).and_then(Value::as_object).is_none() {
            return Err(format!("metrics section missing object `{key}`"));
        }
    }
    for (name, digest) in v.get("outputs").as_object().expect("checked above").iter() {
        if digest.as_str().is_none() {
            return Err(format!("output `{name}` digest is not a string"));
        }
    }
    let _ = obj;
    Ok(())
}

fn validate_phase(p: &Value) -> Result<(), String> {
    if p.get("name").as_str().is_none() {
        return Err("phase node missing string `name`".into());
    }
    for key in ["wall_ns", "count"] {
        if p.get(key).as_u64().is_none() {
            return Err(format!("phase node missing integer `{key}`"));
        }
    }
    if p.get("pct").as_f64().is_none() {
        return Err("phase node missing number `pct`".into());
    }
    let children = p
        .get("children")
        .as_array()
        .ok_or("phase node missing array `children`")?;
    for c in children {
        validate_phase(c)?;
    }
    Ok(())
}

/// Keys whose values are wall-clock noise, environment-dependent, or
/// content hashes — masked by [`mask_volatile`] wherever they appear.
/// `swap_wall_ns` is the `serve` section's only wall-clock leaf, and
/// `wall_ms` the `tune` section's: every other serve/tune field (epoch
/// records, drift scores, search trajectories, miss counts, image
/// digests) is deterministic and stays pinned by goldens.
pub const VOLATILE_KEYS: [&str; 13] = [
    "git",
    "created_unix_ms",
    "wall_ns",
    "pct",
    "count",
    "total_wall_ns",
    "phase_coverage_pct",
    "parallelism",
    "threads_env",
    "sweep_threads",
    "vm_engine",
    "swap_wall_ns",
    "wall_ms",
];

/// Returns a copy of a manifest with volatile values masked: values of
/// [`VOLATILE_KEYS`] anywhere, every value inside `metrics` (metric
/// *names* stay), and every digest inside `outputs`. Masked numbers
/// become `0`, strings `"<masked>"`, and arrays `[]` (only their
/// presence is pinned, not their length).
/// The result is deterministic across machines and runs, so golden
/// tests can pin it.
pub fn mask_volatile(v: &Value) -> Value {
    mask_walk(v, None, false)
}

fn mask_value(v: &Value) -> Value {
    match v {
        Value::Number(_) => Value::from(0u64),
        // Null masks like a string so optional fields (e.g. an unset
        // `threads_env`) compare equal whether or not the environment
        // supplied them.
        Value::String(_) | Value::Null => Value::from("<masked>"),
        Value::Bool(_) => v.clone(),
        _ => Value::Null,
    }
}

fn mask_walk(v: &Value, key: Option<&str>, mask_leaves: bool) -> Value {
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, val) in map.iter() {
                let enter_masked = mask_leaves || matches!(key, Some("metrics" | "outputs"));
                out.insert(k.clone(), mask_walk(val, Some(k), enter_masked));
            }
            Value::Object(out)
        }
        Value::Array(items) => {
            if mask_leaves || key.is_some_and(|k| VOLATILE_KEYS.contains(&k)) {
                Value::Array(Vec::new())
            } else {
                Value::Array(
                    items
                        .iter()
                        .map(|item| mask_walk(item, key, mask_leaves))
                        .collect(),
                )
            }
        }
        leaf => {
            let volatile = key.is_some_and(|k| VOLATILE_KEYS.contains(&k));
            if mask_leaves || volatile {
                mask_value(leaf)
            } else {
                leaf.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Tracer;

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = digest_hex(b"hello");
        assert_eq!(a, digest_hex(b"hello"));
        assert_ne!(a, digest_hex(b"hellp"));
        assert!(a.starts_with("fnv1a64:"));
        assert_eq!(a.len(), "fnv1a64:".len() + 16);
        // Known FNV-1a vector: empty string hashes to the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    fn sample_manifest() -> Value {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("tool");
            tracer.span("phase_a").finish();
            tracer.span("phase_b").finish();
        }
        let registry = Registry::new();
        registry.add("link.fallthroughs", 7);
        registry.observe("sweep.wait_us", 12);
        registry.gauge_set("replay.rate", 2.5);
        let mut b = ManifestBuilder::new("tool", "quick");
        b.config(json!({"num_cpus": 4u64}));
        b.phases(&tracer, "tool");
        b.metrics(&registry);
        b.output("fig04.json", digest_hex(b"{}"));
        b.section("lint", json!({"deny": 0u64}));
        b.section(
            "serve",
            json!({
                "epoch_txns": 60u64,
                "swaps": 1u64,
                "swap_wall_ns": 123_456u64,
                "epochs": [json!({"epoch": 0u64, "drift_milli": 412u64})],
            }),
        );
        b.build()
    }

    #[test]
    fn built_manifest_validates() {
        let m = sample_manifest();
        validate_manifest(&m).unwrap();
        assert_eq!(m.get("tool").as_str(), Some("tool"));
        assert!(m.get("total_wall_ns").as_u64().unwrap() > 0);
        assert!(m.get("phase_coverage_pct").as_f64().unwrap() > 0.0);
    }

    #[test]
    fn validation_rejects_broken_manifests() {
        assert!(validate_manifest(&json!([])).is_err());
        assert!(validate_manifest(&json!({"tool": "x"})).is_err());
        let mut m = sample_manifest();
        if let Value::Object(map) = &mut m {
            map.insert("phases".into(), json!({"not": "an array"}));
        }
        assert!(validate_manifest(&m).is_err());
    }

    #[test]
    fn masking_is_deterministic_and_keeps_names() {
        let masked = mask_volatile(&sample_manifest());
        // Stable across two runs (different wall times, same mask).
        let again = mask_volatile(&sample_manifest());
        assert_eq!(masked, again);
        // Metric names survive, values are zeroed.
        let counters = masked.get("metrics").get("counters");
        assert_eq!(counters.get("link.fallthroughs").as_u64(), Some(0));
        // Git and times are masked, stable keys are not.
        assert_eq!(masked.get("git").as_str(), Some("<masked>"));
        assert_eq!(masked.get("scenario").as_str(), Some("quick"));
        assert_eq!(masked.get("config").get("num_cpus").as_u64(), Some(4));
        assert_eq!(masked.get("lint").get("deny").as_u64(), Some(0));
        // Output digests are masked but the file names stay.
        assert_eq!(
            masked.get("outputs").get("fig04.json").as_str(),
            Some("<masked>")
        );
        // The serve section: deterministic fields survive, the
        // wall-clock leaf is masked.
        let serve = masked.get("serve");
        assert_eq!(serve.get("epoch_txns").as_u64(), Some(60));
        assert_eq!(serve.get("swaps").as_u64(), Some(1));
        assert_eq!(serve.get("swap_wall_ns").as_u64(), Some(0));
        let epochs = serve.get("epochs").as_array().unwrap();
        assert_eq!(epochs[0].get("drift_milli").as_u64(), Some(412));
    }

    #[test]
    fn write_load_and_merge_round_trip() {
        let dir = std::env::temp_dir().join(format!("codelayout-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_manifest(&dir, &sample_manifest()).unwrap();
        assert!(path.ends_with("manifest.json"));
        let loaded = load_manifest(&dir).unwrap();
        validate_manifest(&loaded).unwrap();
        // Merge into the existing manifest: section added, rest kept.
        merge_section(&dir, "layout_lint", "quick", "lint", json!({"deny": 3u64})).unwrap();
        let merged = load_manifest(&dir).unwrap();
        assert_eq!(merged.get("lint").get("deny").as_u64(), Some(3));
        assert_eq!(merged.get("tool").as_str(), Some("tool"));
        // Merge with no manifest present: a minimal one is created.
        let _ = std::fs::remove_dir_all(&dir);
        merge_section(&dir, "layout_lint", "quick", "lint", json!({"deny": 1u64})).unwrap();
        let fresh = load_manifest(&dir).unwrap();
        assert_eq!(fresh.get("tool").as_str(), Some("layout_lint"));
        assert_eq!(fresh.get("lint").get("deny").as_u64(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
