//! Observability layer for the codelayout pipeline: phase tracing,
//! coarse-event metrics, and machine-readable run manifests.
//!
//! The experiment harness chains six phases — chain → split → order →
//! link → trace → sweep — and every performance question about the
//! pipeline ("where did the wall time go?", "how many branches were
//! inverted?", "what replay throughput did the sweep sustain?") needs
//! telemetry from inside those phases. This crate provides the three
//! cooperating pieces the rest of the workspace instruments itself
//! with:
//!
//! * **Span tracing** ([`span()`], [`Tracer`], [`Span`]). RAII phase
//!   timers with nested paths (a span opened while another is live on
//!   the same thread becomes its child, `run_all/fig04/measure/replay`),
//!   monotonic timing from one process-wide epoch, and thread-tagged
//!   begin/end events. When `CODELAYOUT_TRACE_OUT` names a file, every
//!   span boundary is appended to it as a JSON-lines event log.
//!   Aggregated phase totals are queried as a tree
//!   ([`Tracer::phase_tree`]) and rendered as a human `--report`
//!   breakdown with percentages ([`Tracer::render_report`]).
//! * **Metrics** ([`metrics()`], [`Registry`], [`Histogram`]). Named
//!   counters, gauges, and power-of-two-bucket histograms. The global
//!   registry takes a lock per update, which is fine for coarse events
//!   (images linked, layouts built, epochs served); no simulator or
//!   replay loop records one per event. Snapshots render to JSON for the
//!   run manifest.
//! * **Run manifests** ([`manifest::ManifestBuilder`]). `run_all`, whole
//!   or by figure name, writes `results/<scenario>/manifest.json`:
//!   config, `git describe`, per-phase wall times with coverage,
//!   a metrics snapshot, and FNV-1a digests of every figure output.
//!   Volatile fields can be masked ([`manifest::mask_volatile`]) so
//!   golden tests can pin the schema without pinning wall-clock noise.
//!
//! Tracing and metrics are globally enabled by default and can be
//! switched off with [`set_enabled`]; the overhead-guard test proves
//! that replay results are bit-identical either way and that the
//! instrumented replay loses less than 5% throughput.
//!
//! This crate also hosts [`RunEnv`] ([`run_env`]), the single parse of
//! every `CODELAYOUT_*` environment knob. It lives here (rather than in
//! `memsim` or `bench`) because `codelayout-obs` is the one crate every
//! instrumented layer already depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod manifest;
pub mod metrics;
pub mod span;

pub use env::{run_env, RunEnv, ScenarioSel, VmEngine};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use span::{PhaseNode, PhaseStat, Span, Tracer};

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// into this crate). All span timestamps share this epoch, so event
/// logs from different threads are directly comparable.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static METRICS: OnceLock<Registry> = OnceLock::new();

/// The process-global tracer. On first access the JSON-lines exporter
/// is initialized from `CODELAYOUT_TRACE_OUT` (if set).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        let t = Tracer::new();
        t.init_export_from_env();
        t
    })
}

/// The process-global metrics registry.
pub fn metrics() -> &'static Registry {
    METRICS.get_or_init(Registry::new)
}

/// Opens a span on the global tracer; equivalent to
/// `tracer().span(name)`.
pub fn span(name: &str) -> Span<'static> {
    tracer().span(name)
}

/// Enables or disables both global tracing and global metrics. Disabled
/// observability records nothing: spans become inert and metric updates
/// are dropped at the enabled-flag check.
pub fn set_enabled(on: bool) {
    tracer().set_enabled(on);
    metrics().set_enabled(on);
}

/// True when the global observability layer is recording.
pub fn enabled() -> bool {
    tracer().is_enabled()
}

/// Clears all recorded phases and metrics (the enabled flag and the
/// event-log exporter are kept). Intended for tests that snapshot
/// global state.
pub fn reset() {
    tracer().reset();
    metrics().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn global_handles_are_stable() {
        let t1 = tracer() as *const Tracer;
        let t2 = tracer() as *const Tracer;
        assert_eq!(t1, t2);
        let m1 = metrics() as *const Registry;
        let m2 = metrics() as *const Registry;
        assert_eq!(m1, m2);
    }
}
