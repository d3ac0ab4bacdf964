//! Typed layout-construction parameters and the search space over them.
//!
//! Every layout pass historically baked its thresholds into private
//! constants — the split hot/cold threshold, ext-TSP's `w×1000/100`
//! weights and 1024/640-byte distance windows, Codestitcher's
//! 128 B / 8 KiB / 2 MiB level budgets. [`LayoutParams`] lifts them into
//! one typed, per-pass parameter struct whose [`Default`] reproduces the
//! historical layouts **bit-identically** (pinned by the golden
//! `compare_quick.json` regression test in `codelayout-bench`).
//!
//! [`ParamSpace`] describes the tunable surface as an ordered list of
//! [`ParamKnob`]s, each with a finite ascending value grid containing its
//! default. A [`ParamPoint`] is a coordinate vector into those grids;
//! [`ParamSpace::params`] materializes it into a [`LayoutParams`]. The
//! autotuner (`codelayout-tune`) is generic over this surface: it never
//! names an individual pass, it only samples and perturbs points.
//!
//! Values are uniformly `u64`; boolean knobs use the `{0, 1}` grid. Knob
//! grids are deliberately coarse — the fitness oracle costs a full trace
//! replay per candidate, so a handful of well-spread magnitudes per knob
//! beats a fine lattice under any realistic candidate budget.

use crate::pipeline::CFA_RESERVED_BYTES;
use crate::series::LayoutSeries;
use crate::stitcher::StitchLevels;

/// Parameters of the basic-block chaining pass ([`crate::chain_proc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ChainParams {
    /// Flow edges lighter than this never chain their endpoints. The
    /// historical behavior (0) chains even never-taken edges, which keeps
    /// the compiler's natural order on cold code; raising it lets the
    /// tie-break ordering regroup cold blocks instead.
    pub min_edge_weight: u64,
}

/// Parameters of the fine-grain splitting pass ([`crate::split_order`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SplitParams {
    /// When true, an unconditional `Jump` cuts a segment even when its
    /// target is the next block in the order (the fall-through the linker
    /// would erase). The historical behavior (false) keeps such pairs
    /// glued; cutting them gives the segment ordering more freedom at the
    /// cost of an extra jump when the pieces separate.
    pub cut_fallthrough_jumps: bool,
}

/// Parameters of the ext-TSP objective and merge pass
/// ([`crate::exttsp_layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExtTspParams {
    /// Short-jump reward per mille of a fall-through (the paper's 0.1
    /// scales to 100 under [`crate::SCORE_SCALE`]).
    pub jump_weight: u64,
    /// Forward-jump scoring window in bytes (the paper's 1024).
    pub forward_window: u64,
    /// Backward-jump scoring window in bytes (the paper's 640).
    pub backward_window: u64,
    /// Chains at most this long are considered for split-point merging;
    /// longer chains only merge by concatenation (BOLT's cost-control
    /// threshold).
    pub split_cap: u64,
}

impl Default for ExtTspParams {
    fn default() -> Self {
        ExtTspParams {
            jump_weight: 100,
            forward_window: 1024,
            backward_window: 640,
            split_cap: 32,
        }
    }
}

/// Parameters of the conflict-free-area pass ([`crate::cfa_layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfaParams {
    /// Bytes of instruction cache reserved for the hottest traces.
    pub reserved_bytes: u64,
}

impl Default for CfaParams {
    fn default() -> Self {
        CfaParams {
            reserved_bytes: CFA_RESERVED_BYTES,
        }
    }
}

/// Parameters of Spike's hot/cold splitting ([`crate::hot_cold_layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HotColdParams {
    /// A block is *hot* when its execution count exceeds this threshold.
    /// The historical behavior (0) keeps every executed block hot.
    pub hot_threshold: u64,
}

/// The full parameter set of every layout pass.
///
/// `Default` reproduces the historical hard-coded constants exactly, so
/// `LayoutPipeline::with_params(p, prof, LayoutParams::default())` builds
/// the same bytes as `LayoutPipeline::new(p, prof)` for every series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LayoutParams {
    /// Basic-block chaining knobs.
    pub chain: ChainParams,
    /// Fine-grain splitting knobs.
    pub split: SplitParams,
    /// ext-TSP objective knobs.
    pub exttsp: ExtTspParams,
    /// Codestitcher level budgets.
    pub stitch: StitchLevels,
    /// Conflict-free-area knobs.
    pub cfa: CfaParams,
    /// Hot/cold splitting knobs.
    pub hotcold: HotColdParams,
}

/// One tunable knob: a name, a finite ascending value grid, and accessors
/// into [`LayoutParams`].
pub struct ParamKnob {
    name: &'static str,
    values: &'static [u64],
    get: fn(&LayoutParams) -> u64,
    set: fn(&mut LayoutParams, u64),
}

impl ParamKnob {
    /// Dotted knob name, e.g. `"exttsp.forward_window"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The knob's ascending value grid. Always contains the default.
    pub fn values(&self) -> &'static [u64] {
        self.values
    }

    /// Reads the knob's current value out of a parameter set.
    pub fn get(&self, params: &LayoutParams) -> u64 {
        (self.get)(params)
    }

    /// Writes a value into a parameter set.
    pub fn set(&self, params: &mut LayoutParams, value: u64) {
        (self.set)(params, value)
    }

    /// Index of the default value in [`ParamKnob::values`].
    ///
    /// # Panics
    /// Panics if the grid omits the default — a bug in the knob table.
    pub fn default_index(&self) -> usize {
        let d = self.get(&LayoutParams::default());
        self.values
            .iter()
            .position(|&v| v == d)
            .unwrap_or_else(|| panic!("knob {} grid omits its default {d}", self.name))
    }
}

impl std::fmt::Debug for ParamKnob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamKnob")
            .field("name", &self.name)
            .field("values", &self.values)
            .finish()
    }
}

macro_rules! knob {
    ($name:literal, $values:expr, $($field:ident).+) => {
        ParamKnob {
            name: $name,
            values: $values,
            get: |p| p.$($field).+,
            set: |p, v| p.$($field).+ = v,
        }
    };
}

fn chain_knobs() -> Vec<ParamKnob> {
    vec![knob!(
        "chain.min_edge_weight",
        &[0, 1, 2, 4, 8, 16],
        chain.min_edge_weight
    )]
}

fn split_knobs() -> Vec<ParamKnob> {
    vec![ParamKnob {
        name: "split.cut_fallthrough_jumps",
        values: &[0, 1],
        get: |p| u64::from(p.split.cut_fallthrough_jumps),
        set: |p, v| p.split.cut_fallthrough_jumps = v != 0,
    }]
}

fn exttsp_knobs() -> Vec<ParamKnob> {
    vec![
        knob!(
            "exttsp.jump_weight",
            &[25, 50, 100, 150, 200, 300],
            exttsp.jump_weight
        ),
        knob!(
            "exttsp.forward_window",
            &[256, 512, 1024, 2048, 4096],
            exttsp.forward_window
        ),
        knob!(
            "exttsp.backward_window",
            &[160, 320, 640, 1280, 2560],
            exttsp.backward_window
        ),
        knob!("exttsp.split_cap", &[0, 8, 16, 32, 64], exttsp.split_cap),
    ]
}

fn stitch_knobs() -> Vec<ParamKnob> {
    vec![
        knob!("stitch.line", &[32, 64, 128, 256, 512], stitch.line),
        knob!(
            "stitch.page",
            &[2048, 4096, 8192, 16384, 32768],
            stitch.page
        ),
        knob!(
            "stitch.huge",
            &[262144, 1048576, 2097152, 4194304],
            stitch.huge
        ),
    ]
}

fn cfa_knobs() -> Vec<ParamKnob> {
    vec![knob!(
        "cfa.reserved_bytes",
        &[8192, 16384, 32768, 65536, 131072],
        cfa.reserved_bytes
    )]
}

fn hotcold_knobs() -> Vec<ParamKnob> {
    vec![knob!(
        "hotcold.hot_threshold",
        &[0, 1, 2, 4, 8, 16, 64],
        hotcold.hot_threshold
    )]
}

/// The searchable parameter surface: an ordered list of knobs.
///
/// [`ParamSpace::for_series`] returns only the knobs a series actually
/// consumes, so the tuner never wastes budget perturbing dead
/// coordinates; [`ParamSpace::full`] covers every pass.
#[derive(Debug)]
pub struct ParamSpace {
    knobs: Vec<ParamKnob>,
}

impl ParamSpace {
    /// Every knob of every pass.
    pub fn full() -> Self {
        let mut knobs = chain_knobs();
        knobs.extend(split_knobs());
        knobs.extend(exttsp_knobs());
        knobs.extend(stitch_knobs());
        knobs.extend(cfa_knobs());
        knobs.extend(hotcold_knobs());
        ParamSpace { knobs }
    }

    /// The knobs that influence one layout series. Chaining feeds every
    /// series except `base`/`porder` (ext-TSP keeps it as the competing
    /// candidate), so its knobs appear wherever they can change bytes.
    pub fn for_series(series: LayoutSeries) -> Self {
        let mut knobs: Vec<ParamKnob> = Vec::new();
        match series {
            LayoutSeries::Paper(set) => {
                if set.chain {
                    knobs.extend(chain_knobs());
                }
                if set.split {
                    knobs.extend(split_knobs());
                }
            }
            LayoutSeries::HotCold => {
                knobs.extend(chain_knobs());
                knobs.extend(hotcold_knobs());
            }
            LayoutSeries::Cfa => {
                knobs.extend(chain_knobs());
                knobs.extend(split_knobs());
                knobs.extend(cfa_knobs());
            }
            LayoutSeries::ExtTsp => {
                knobs.extend(chain_knobs());
                knobs.extend(exttsp_knobs());
            }
            LayoutSeries::Stitcher => {
                knobs.extend(chain_knobs());
                knobs.extend(split_knobs());
                knobs.extend(stitch_knobs());
            }
        }
        ParamSpace { knobs }
    }

    /// Number of knobs in the space.
    pub fn len(&self) -> usize {
        self.knobs.len()
    }

    /// True when the space has no knobs (e.g. the `base` series).
    pub fn is_empty(&self) -> bool {
        self.knobs.is_empty()
    }

    /// The knobs, in coordinate order.
    pub fn knobs(&self) -> &[ParamKnob] {
        &self.knobs
    }

    /// The point whose every coordinate is the knob's default value.
    pub fn default_point(&self) -> ParamPoint {
        ParamPoint {
            idx: self
                .knobs
                .iter()
                .map(|k| k.default_index() as u32)
                .collect(),
        }
    }

    /// Materializes a point into a full parameter set (non-member knobs
    /// stay at their defaults).
    ///
    /// # Panics
    /// Panics if the point's arity or any coordinate is out of range for
    /// this space.
    pub fn params(&self, point: &ParamPoint) -> LayoutParams {
        assert_eq!(point.idx.len(), self.knobs.len(), "point/space arity");
        let mut p = LayoutParams::default();
        for (knob, &i) in self.knobs.iter().zip(&point.idx) {
            knob.set(&mut p, knob.values[i as usize]);
        }
        p
    }
}

/// A coordinate vector into a [`ParamSpace`]: one value-grid index per
/// knob. Points order lexicographically, which gives search caches a
/// deterministic key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ParamPoint {
    idx: Vec<u32>,
}

impl ParamPoint {
    /// Builds a point from raw grid indices.
    ///
    /// # Panics
    /// Panics if any index is out of range for its knob's grid.
    pub fn new(space: &ParamSpace, idx: Vec<u32>) -> Self {
        assert_eq!(idx.len(), space.len(), "point/space arity");
        for (knob, &i) in space.knobs.iter().zip(&idx) {
            assert!(
                (i as usize) < knob.values.len(),
                "knob {} index {i} out of range",
                knob.name
            );
        }
        ParamPoint { idx }
    }

    /// The raw grid indices.
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The point one grid step away along knob `knob` (`delta` = ±1), or
    /// `None` when the step leaves the grid.
    pub fn step(&self, space: &ParamSpace, knob: usize, delta: i64) -> Option<ParamPoint> {
        let cur = self.idx[knob] as i64;
        let next = cur + delta;
        if next < 0 || next as usize >= space.knobs[knob].values.len() {
            return None;
        }
        let mut idx = self.idx.clone();
        idx[knob] = next as u32;
        Some(ParamPoint { idx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptimizationSet;

    #[test]
    fn defaults_match_historical_constants() {
        let p = LayoutParams::default();
        assert_eq!(p.chain.min_edge_weight, 0);
        assert!(!p.split.cut_fallthrough_jumps);
        assert_eq!(p.exttsp.jump_weight, crate::SCORE_SCALE / 10);
        assert_eq!(p.exttsp.forward_window, crate::FORWARD_WINDOW);
        assert_eq!(p.exttsp.backward_window, crate::BACKWARD_WINDOW);
        assert_eq!(p.exttsp.split_cap, 32);
        assert_eq!(p.stitch, StitchLevels::default());
        assert_eq!(p.cfa.reserved_bytes, CFA_RESERVED_BYTES);
        assert_eq!(p.hotcold.hot_threshold, 0);
    }

    #[test]
    fn every_grid_contains_its_default_and_is_ascending() {
        let space = ParamSpace::full();
        assert!(!space.is_empty());
        for knob in space.knobs() {
            let _ = knob.default_index(); // panics if absent
            assert!(
                knob.values().windows(2).all(|w| w[0] < w[1]),
                "knob {} grid not strictly ascending",
                knob.name()
            );
        }
    }

    #[test]
    fn default_point_materializes_to_default_params() {
        for series in LayoutSeries::all() {
            let space = ParamSpace::for_series(series);
            let point = space.default_point();
            assert_eq!(space.params(&point), LayoutParams::default(), "{series}");
        }
    }

    #[test]
    fn knob_roundtrip_get_set() {
        let space = ParamSpace::full();
        let mut p = LayoutParams::default();
        for knob in space.knobs() {
            for &v in knob.values() {
                knob.set(&mut p, v);
                assert_eq!(knob.get(&p), v, "{}", knob.name());
            }
        }
    }

    #[test]
    fn base_series_has_no_knobs() {
        let space = ParamSpace::for_series(LayoutSeries::Paper(OptimizationSet::BASE));
        assert!(space.is_empty());
        assert_eq!(
            space.params(&space.default_point()),
            LayoutParams::default()
        );
    }

    #[test]
    fn step_walks_the_grid_and_stops_at_edges() {
        let space = ParamSpace::for_series(LayoutSeries::ExtTsp);
        let p = space.default_point();
        // Knob 0 is chain.min_edge_weight, whose default sits at the grid
        // floor: stepping down must refuse.
        assert!(p.step(&space, 0, -1).is_none());
        // Knob 1 (jump_weight) defaults mid-grid: walk it to the ceiling.
        let down = p.step(&space, 1, -1).expect("default is not at the floor");
        assert_eq!(down.indices()[1] + 1, p.indices()[1]);
        let mut cur = p.clone();
        let mut steps = 0;
        while let Some(n) = cur.step(&space, 1, 1) {
            cur = n;
            steps += 1;
            assert!(steps < 100, "runaway grid walk");
        }
        assert_eq!(
            cur.indices()[1] as usize,
            space.knobs()[1].values().len() - 1
        );
    }
}
