//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each should move. `BENCHMARK.json` at the repository root mirrors these
//! tables; the smoke test checks that the two agree.

/// One workload: a public entry call of the toolkit on the paper-scale
/// `sim` scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_all`'s offline stage: the 15 figure functions on one harness.
    Paper,
    /// The layout autotuner with its default budget.
    Tune,
    /// The continuous-profiling serving loop on its phase-shift stream.
    Serve,
}

pub const WORKLOADS: [Workload; 3] = [Workload::Paper, Workload::Tune, Workload::Serve];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper-sim",
            Workload::Tune => "tune-sim",
            Workload::Serve => "serve-sim",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper => {
                "the paper's figures: full live collectors, grid replay and VM oracle runs \
                 dominate; layout passes are about 7% of the time"
            }
            Workload::Tune => {
                "the autotuner: ext-TSP builds, link, validation and window replays dominate; \
                 the no-change control for VM and collector changes"
            }
            Workload::Serve => {
                "the serving loop: VM under a sampling hook, small replays and validated live \
                 re-layout"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, as a user of the toolkit sees it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Bounds are about three times the worst interquartile spread of
/// per-seed values over ten seeds (see the README). The two times are
/// looser, to absorb the host's speed drift; `setup_s` has the largest.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "misses",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric, measured by a probe in the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer should move.
    pub moves: &'static str,
    /// Workloads where it should move.
    pub on: &'static [Workload],
    /// Workloads where it should not move.
    pub control: &'static [Workload],
}

use Better::{Higher, Lower};
use Workload::{Paper, Serve, Tune};

const ALL: &[Workload] = &[Paper, Tune, Serve];
const NONE: &[Workload] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [Workload],
    control: &'static [Workload],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        on,
        control,
    }
}

#[rustfmt::skip]
pub const LAYERS: [Layer; 35] = [
    layer("oltp.build_study_s", "s", Lower, "setup_s", ALL, NONE),
    layer("profile.pixie_minsts_per_s", "Minst/s", Higher, "setup_s", ALL, NONE),
    layer("analysis.static_profile_ms", "ms", Lower, "setup_s", ALL, NONE),
    layer("core.all.build_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("core.hotcold.build_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("core.exttsp.build_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("core.stitcher.build_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("ir.link_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("analysis.validate_ms", "ms", Lower, "wall_s", &[Tune], &[Serve]),
    layer("memsim.sweep_tune.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Tune], &[Serve]),
    layer("tune.candidates_per_s", "1/s", Higher, "wall_s", &[Tune], &[Serve]),
    layer("tune.cache_hit_frac", "ratio", Higher, "wall_s", &[Tune], &[Serve]),
    layer("tune.reject_frac", "ratio", Lower, "misses", &[Tune], NONE),
    layer("vm.block.exec_minsts_per_s", "Minst/s", Higher, "wall_s", &[Paper, Serve], &[Tune]),
    layer("vm.interp.exec_minsts_per_s", "Minst/s", Higher, "wall_s", &[Paper, Serve], &[Tune]),
    layer("vm.block.record_minsts_per_s", "Minst/s", Higher, "wall_s", &[Paper, Serve], &[Tune]),
    layer("vm.interp.record_minsts_per_s", "Minst/s", Higher, "wall_s", &[Paper, Serve], &[Tune]),
    layer("memsim.hier_simos.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.hier_21264.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.hier_21164.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.locality.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.sequence.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.footprint.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("memsim.sweep_stack.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], NONE),
    layer("memsim.sweep_direct.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Paper], &[Tune, Serve]),
    layer("core.exttsp_score_ms", "ms", Lower, "wall_s", &[Paper], &[Tune, Serve]),
    layer("analysis.lint_ms", "ms", Lower, "wall_s", &[Paper], &[Tune, Serve]),
    layer("bench.measure_full_s", "s", Lower, "wall_s", &[Paper], &[Tune, Serve]),
    layer("bench.measure_light_s", "s", Lower, "wall_s", &[Paper], &[Tune, Serve]),
    layer("profile.edge_sampler_minsts_per_s", "Minst/s", Higher, "wall_s", &[Serve], &[Paper, Tune]),
    layer("memsim.sweep_serve.mevents_per_s", "Mevent/s", Higher, "wall_s", &[Serve], NONE),
    layer("serve.swap_ms", "ms", Lower, "wall_s", &[Serve], NONE),
    layer("serve.swaps", "count", Higher, "misses", &[Serve], NONE),
    layer("serve.recovery_milli", "milli", Higher, "misses", &[Serve], NONE),
    layer("obs.trace_overhead_frac", "ratio", Lower, "wall_s", ALL, NONE),
];

/// The declared name equal to `s`, for parsing child output back into
/// `&'static str` keys.
pub fn layer_name(s: &str) -> Option<&'static str> {
    LAYERS.iter().find(|l| l.name == s).map(|l| l.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// tables.
    #[test]
    fn matches_benchmark_json() {
        let v: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| v.get(key).as_array().expect(key).clone();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, d) in WORKLOADS.iter().zip(&workloads) {
            assert_eq!(d.get("name").as_str(), Some(w.name()));
            assert_eq!(d.get("why").as_str(), Some(w.why()));
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in END_TO_END.iter().zip(&e2e) {
            assert_eq!(d.get("name").as_str(), Some(m.name));
            assert_eq!(d.get("unit").as_str(), Some(m.unit));
            assert_eq!(d.get("better").as_str(), Some(m.better.label()));
            assert_eq!(d.get("bound").as_f64(), Some(m.bound), "{}", m.name);
        }
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(
            END_TO_END[0].bound, largest,
            "setup_s has the largest bound"
        );

        let layers = list("per_layer");
        assert_eq!(layers.len(), LAYERS.len());
        for (l, d) in LAYERS.iter().zip(&layers) {
            assert_eq!(d.get("name").as_str(), Some(l.name));
            assert_eq!(d.get("unit").as_str(), Some(l.unit));
            assert_eq!(d.get("better").as_str(), Some(l.better.label()));
        }
    }

    #[test]
    fn layers_name_declared_metrics_and_workloads() {
        for l in &LAYERS {
            assert!(
                END_TO_END.iter().any(|m| m.name == l.moves),
                "{} moves undeclared `{}`",
                l.name,
                l.moves
            );
            assert!(!l.on.is_empty(), "{} moves nothing", l.name);
            assert!(
                l.on.iter().all(|w| !l.control.contains(w)),
                "{} is its own control",
                l.name
            );
        }
    }
}
