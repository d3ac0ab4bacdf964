//! Search-based layout autotuning: perturb the layout-construction
//! parameters ([`codelayout_core::ParamSpace`]) and keep whatever the
//! cache says is better.
//!
//! The paper's passes — and the two modern successors — all carry
//! magic constants (split thresholds, ext-TSP distance windows,
//! Codestitcher level budgets) inherited from their original papers'
//! SPEC-style workloads. This crate asks whether those constants are
//! right for *this* workload by direct search:
//!
//! 1. **Record once.** Run the measured transaction window on the
//!    baseline image and keep the first [`TuneConfig::window`] user-mode
//!    fetches, layout-independently, as run-length
//!    `(block, offset, len, cpu, pid)` runs: `len` consecutive
//!    instructions of one block from `offset`, on one CPU and process.
//!    Sequential fetch makes runs long — on `sim`, a million fetches
//!    are about 221 k runs.
//! 2. **Score each distinct block order once.** For each candidate
//!    parameter point, build the layout ([`codelayout_oltp::Study::layout`]).
//!    The score is a pure function of the layout's block order, so a
//!    per-family memo keyed by the whole order (compared element by
//!    element, never by a hash alone) answers an order the family's
//!    search already scored. Only a new order is linked and validated
//!    through the same step as every study image
//!    ([`codelayout_oltp::Study::link_validated`]) — **unconditionally**
//!    (an invalid candidate scores `u64::MAX` and can never win) — and
//!    replayed: every recorded run, translated into the candidate
//!    image's addresses, streams straight into a serial cache grid
//!    ([`codelayout_memsim::GridSink`], bit-identical to the serial
//!    `SweepSink`); no trace is materialized. The fitness is the summed miss
//!    count over the evaluation grid. A memo hit is still charged as a
//!    fresh candidate (and counted in `tune.layout_hits`), so the
//!    trajectory and the budget do not depend on the memo. The fixed
//!    yardsticks are scored by the same path, and each searched family's
//!    memo starts with its yardstick's order (the family's default point
//!    is the same series at the same parameters); the memo is dropped
//!    when the family ends. On `sim`, 71 of the 145 candidates repeat an
//!    earlier order of their family.
//! 3. **Search.** Per series family: evaluate the defaults first (the
//!    fixed series everyone ships), greedy coordinate descent from
//!    there, then seeded random restarts, under a per-family candidate
//!    budget. The RNG is `CODELAYOUT_SEED`-derived
//!    ([`rand::rngs::StdRng`], one stream per family), duplicate points
//!    hit a cache instead of consuming budget, and every fresh
//!    evaluation becomes a `tune/candidate` tracer event, emitted in
//!    candidate order once every family's search has ended.
//!
//! **Lanes.** The families share nothing mutable: each searches its own
//! space under its own seed, memo and candidate budget, against the same
//! read-only window, grid and yardstick orders. So each family's whole
//! search (default, descent, restarts) is one item on
//! [`TuneConfig::sweep_threads`] lanes, in a `tune_family` span. Lane 0
//! is the calling thread, the others are scoped threads under a
//! `tune_lane` root span. Within a family the search is sequential and
//! scores one point at a time, so each distinct order is linked,
//! validated and replayed once per family, whatever the lane count. When
//! the lanes join, the calling thread numbers the candidates family by
//! family in [`TuneConfig::series`] order and emits their events and
//! `tune.*` counters. Candidate indices, events, counters, cache and
//! layout hits, the budget and the trajectory therefore cannot depend on
//! the lane count. There is one item per searched family (four by
//! default), so lanes beyond that sit idle, and the slowest family bounds
//! the search. Before the search, the fixed yardsticks are scored side
//! by side on the lanes too, each into its own memo.
//!
//! The remap clamps an offset that exceeds the candidate block's length
//! (layouts erase or materialize unconditional jumps, so per-block
//! instruction counts differ by the terminator); jump instructions a
//! candidate adds are not replayed. The approximation is exact for
//! every block body and off by at most the terminator fetch, uniformly
//! across candidates.
//!
//! Everything in [`TuneReport::deterministic_json`] is bit-identical
//! across lane counts, and contains no
//! wall-clock. A wall budget ([`TuneConfig::budget_ms`]) that actually
//! fires cuts every family's search at the same clock time, a
//! time-dependent point — the default (0, unlimited) keeps the whole
//! trajectory reproducible from the seed, and a triggered cut is
//! recorded as `budget_hit`. A family with no validated candidate (the
//! cut came before its default, or the validator rejected all it scored)
//! is left out of [`TuneReport::families`], its candidates still in the
//! trajectory; later families are kept.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use codelayout_core::{
    LayoutParams, LayoutRequest, LayoutSeries, OptimizationSet, ParamPoint, ParamSpace,
};
use codelayout_ir::{BlockId, Image, Layout};
use codelayout_memsim::{GridSink, StreamFilter, SweepSpec};
use codelayout_obs::run_env;
use codelayout_oltp::{Scenario, Study};
use codelayout_vm::{FetchRecord, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Cache sizes (KB) of the fitness-oracle grid. Deliberately extends
/// the paper's 32–512 KB sweep *downward*: layout quality shows up as
/// conflict and capacity misses, and a workload whose hot footprint
/// fits the smallest paper cache (the CI `quick` scenario does) would
/// otherwise present every candidate with identical compulsory-miss
/// counts and give the search no gradient at all.
pub const TUNE_SIZES_KB: [u64; 6] = [4, 8, 16, 32, 64, 128];
/// Line size (bytes) of the fitness-oracle cache grid: the paper's
/// 128-byte user sweep, the same geometry the comparison table reports.
pub const EVAL_LINE_B: u32 = 128;
/// Associativity of the fitness-oracle cache grid.
pub const EVAL_WAYS: u32 = 4;
/// Consecutive fruitless random restarts before a family's search stops
/// early (every draw landed on an already-evaluated point — the space is
/// effectively exhausted).
const STALE_RESTART_LIMIT: u32 = 20;

/// Configuration of one autotuning run.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Master seed; each family searches under `seed ^ fnv1a(label)`.
    pub seed: u64,
    /// Fresh candidate evaluations allowed per series family (cache hits
    /// are free).
    pub candidates: u64,
    /// Maximum user-mode fetch events kept from the recording run.
    pub window: u64,
    /// Wall-clock budget in milliseconds; 0 = unlimited (the
    /// deterministic default — see the module docs on `budget_hit`).
    pub budget_ms: u64,
    /// The series families to tune, searched in order.
    pub series: Vec<LayoutSeries>,
    /// Lanes (clamped to ≥ 1): the fixed yardsticks, then the searched
    /// families, run side by side, each family's whole search on one
    /// lane (see the module docs). Lanes beyond the number of families
    /// sit idle. The report does not depend on it.
    pub sweep_threads: usize,
}

impl TuneConfig {
    /// Defaults for a scenario: the scenario's seed, 48 candidates per
    /// family, a one-million-event window, no wall budget, and the four
    /// tunable comparison families (`all`, `hotcold`, `exttsp`,
    /// `stitcher` — `base` has no knobs).
    pub fn for_scenario(scenario: &Scenario) -> Self {
        TuneConfig {
            seed: scenario.seed,
            candidates: 48,
            window: 1_000_000,
            budget_ms: 0,
            series: vec![
                LayoutSeries::Paper(OptimizationSet::ALL),
                LayoutSeries::HotCold,
                LayoutSeries::ExtTsp,
                LayoutSeries::Stitcher,
            ],
            sweep_threads: 1,
        }
    }

    /// [`TuneConfig::for_scenario`] with the `CODELAYOUT_SEED`,
    /// `CODELAYOUT_TUNE_{BUDGET,CANDIDATES,WINDOW}` and
    /// `CODELAYOUT_THREADS` environment knobs applied.
    pub fn from_env(scenario: &Scenario) -> Self {
        let env = run_env();
        let mut cfg = Self::for_scenario(scenario);
        if let Some(s) = env.seed {
            cfg.seed = s;
        }
        if let Some(b) = env.tune_budget_ms {
            cfg.budget_ms = b;
        }
        if let Some(c) = env.tune_candidates {
            cfg.candidates = c;
        }
        if let Some(w) = env.tune_window {
            cfg.window = w;
        }
        cfg.sweep_threads = env.sweep_threads();
        cfg
    }

    /// Configuration echo for manifests and figure JSON. Deterministic:
    /// the lane count is deliberately omitted (the report is byte-diffed
    /// across lane counts).
    pub fn to_json(&self) -> Value {
        json!({
            "seed": self.seed,
            "candidates": self.candidates,
            "window": self.window,
            "budget_ms": self.budget_ms,
            "series": self.series.iter().map(|s| s.label()).collect::<Vec<_>>(),
        })
    }
}

/// Why a candidate was evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOrigin {
    /// The family's default point (the shipped fixed series).
    Default,
    /// A ±1 neighbor probed by greedy coordinate descent.
    Descent,
    /// A seeded random restart point.
    Restart,
}

impl CandidateOrigin {
    /// Stable lowercase label for JSON.
    pub fn label(self) -> &'static str {
        match self {
            CandidateOrigin::Default => "default",
            CandidateOrigin::Descent => "descent",
            CandidateOrigin::Restart => "restart",
        }
    }
}

/// One fresh candidate evaluation, in search order.
#[derive(Debug, Clone)]
pub struct CandidateRecord {
    /// Global evaluation index across all families, starting at 0.
    pub candidate: u64,
    /// The series family the candidate belongs to.
    pub series: LayoutSeries,
    /// The evaluated point.
    pub point: ParamPoint,
    /// Window miss count (`u64::MAX` for a rejected candidate).
    pub score: u64,
    /// True when the candidate became its family's best so far.
    pub accepted: bool,
    /// True when the linked image passed translation validation.
    pub validated: bool,
    /// How the search arrived at this point.
    pub origin: CandidateOrigin,
}

/// The outcome of one family's search.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// The tuned series.
    pub series: LayoutSeries,
    /// Best point found.
    pub best_point: ParamPoint,
    /// Best point, materialized.
    pub best_params: LayoutParams,
    /// Window miss count of the best point.
    pub best_score: u64,
    /// Per-cell window misses of the best point (size-major over the
    /// evaluation grid).
    pub best_cells: Vec<u64>,
    /// Window miss count of the default point (the fixed series).
    pub default_score: u64,
    /// Fresh evaluations spent.
    pub evaluated: u64,
    /// Duplicate points served from the cache.
    pub cache_hits: u64,
    /// Candidates rejected by translation validation.
    pub rejected: u64,
    /// Fresh candidates whose block order an earlier candidate of the
    /// family already had: charged, but scored from the order memo
    /// instead of being linked, validated and replayed again.
    pub layout_hits: u64,
}

/// One fixed comparison series evaluated through the same window
/// oracle the search uses (same remap, same grid): the yardstick the
/// tuned layouts must beat.
#[derive(Debug, Clone)]
pub struct FixedResult {
    /// The fixed series.
    pub series: LayoutSeries,
    /// Window miss count under default parameters (`u64::MAX` when
    /// rejected).
    pub score: u64,
    /// Per-cell window misses (size-major over [`TUNE_SIZES_KB`]; empty
    /// when rejected).
    pub cells: Vec<u64>,
    /// True when the linked image passed translation validation.
    pub validated: bool,
}

/// The full autotuning outcome.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The configuration searched under.
    pub config: TuneConfig,
    /// User-mode fetch events in the replay window.
    pub window_events: u64,
    /// Window miss count of the baseline (natural-layout) image.
    pub base_score: u64,
    /// Per-cell window misses of the baseline image.
    pub base_cells: Vec<u64>,
    /// Every fixed comparison series scored by the same oracle, in
    /// [`LayoutSeries::comparison`] order.
    pub fixed: Vec<FixedResult>,
    /// Per-family results, in [`TuneConfig::series`] order, of the
    /// families with a validated candidate.
    pub families: Vec<FamilyResult>,
    /// Every fresh evaluation, family by family in
    /// [`TuneConfig::series`] order, each family's in search order.
    pub trajectory: Vec<CandidateRecord>,
    /// True when the wall budget truncated the search (the trajectory is
    /// then wall-clock-dependent and not reproducible from the seed).
    pub budget_hit: bool,
    /// Wall time of the whole tune. **Not** part of
    /// [`TuneReport::deterministic_json`].
    pub wall_ms: u64,
}

/// Dotted-name → value object of the knobs a family's space controls,
/// in coordinate order.
pub fn params_json(space: &ParamSpace, params: &LayoutParams) -> Value {
    let mut map = serde_json::Map::new();
    for k in space.knobs() {
        map.insert(k.name().to_string(), Value::from(k.get(params)));
    }
    Value::from(map)
}

impl TuneReport {
    /// The family whose best point has the lowest window miss count
    /// (ties break toward the earlier family — deterministic).
    pub fn winner(&self) -> Option<&FamilyResult> {
        self.families.iter().min_by_key(|f| f.best_score)
    }

    /// The report as JSON, bit-identical across lane counts, with no
    /// wall-clock anywhere (the figure-grid CI byte-diffs this across
    /// lane counts).
    pub fn deterministic_json(&self) -> Value {
        json!({
            "config": self.config.to_json(),
            "sizes_kb": &TUNE_SIZES_KB[..],
            "window_events": self.window_events,
            "base": { "score": self.base_score, "cells": &self.base_cells },
            "fixed": self.fixed.iter().map(|f| json!({
                "series": f.series.label(),
                "score": f.score,
                "cells": &f.cells,
            })).collect::<Vec<_>>(),
            "families": self.families.iter().map(|f| {
                let space = ParamSpace::for_series(f.series);
                json!({
                    "series": f.series.label(),
                    "best_point": f.best_point.indices(),
                    "best_params": params_json(&space, &f.best_params),
                    "best_score": f.best_score,
                    "best_cells": &f.best_cells,
                    "default_score": f.default_score,
                    "evaluated": f.evaluated,
                    "cache_hits": f.cache_hits,
                    "rejected": f.rejected,
                })
            }).collect::<Vec<_>>(),
            "trajectory": self.trajectory.iter().map(|c| json!({
                "candidate": c.candidate,
                "series": c.series.label(),
                "point": c.point.indices(),
                "score": c.score,
                "accepted": c.accepted,
                "validated": c.validated,
                "origin": c.origin.label(),
            })).collect::<Vec<_>>(),
            "budget_hit": self.budget_hit,
        })
    }
}

/// A run of recorded user-mode fetches in layout-independent
/// coordinates: `len` consecutive instructions of one block of the
/// recording image, from offset `off`, all on one CPU and process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowRun {
    /// Block index in the program.
    block: u32,
    /// Instruction offset of the run's first fetch from the block's
    /// start in the recording image.
    off: u32,
    /// Fetches in the run.
    len: u32,
    cpu: u8,
    pid: u8,
}

/// A [`TraceSink`] keeping the first `cap` user-mode fetches as
/// [`WindowRun`]s, resolved against the recording image. A fetch of the
/// instruction right after the previous one, in the same block and on
/// the same CPU and process, extends the last run.
struct WindowSink<'a> {
    image: &'a Image,
    cap: u64,
    events: u64,
    runs: Vec<WindowRun>,
}

impl TraceSink for WindowSink<'_> {
    fn fetch(&mut self, rec: FetchRecord) {
        if rec.kernel || self.events >= self.cap {
            return;
        }
        let Some(idx) = self.image.index_of(rec.addr) else {
            return;
        };
        let b = self.image.block_of[idx as usize];
        let (block, off) = (b.index() as u32, idx - self.image.block_start[b.index()]);
        self.events += 1;
        if let Some(last) = self.runs.last_mut() {
            if last.block == block
                && last.off + last.len == off
                && last.cpu == rec.cpu
                && last.pid == rec.pid
            {
                last.len += 1;
                return;
            }
        }
        self.runs.push(WindowRun {
            block,
            off,
            len: 1,
            cpu: rec.cpu,
            pid: rec.pid,
        });
    }
}

/// Per-block instruction counts of an image (lengths differ across
/// layouts: erased fall-through jumps and materialized branches live in
/// the terminator).
fn block_lengths(image: &Image, nblocks: usize) -> Vec<u32> {
    let mut len = vec![0u32; nblocks];
    for &b in &image.block_of {
        len[b.index()] += 1;
    }
    len
}

/// Streams `window`, remapped onto `image`, into `sink`: every recorded
/// offset becomes the same offset in the image's copy of its block,
/// clamped to the block's last instruction (and to the image's last).
/// The unclamped head of a run is one [`TraceSink::fetch_run`]; a
/// clamped tail repeats its one address.
fn remap_into<S: TraceSink>(window: &[WindowRun], image: &Image, nblocks: usize, sink: &mut S) {
    let lens = block_lengths(image, nblocks);
    let last = image.len() as u32 - 1;
    for run in window {
        let b = run.block as usize;
        let start = image.block_start[b];
        let max_off = lens[b].saturating_sub(1);
        let rec = |idx: u32| FetchRecord {
            addr: image.addr(idx),
            cpu: run.cpu,
            pid: run.pid,
            kernel: false,
        };
        // Offsets up to `free_to` map to consecutive instructions.
        let free_to = max_off.min(last.saturating_sub(start));
        let free = if start <= last && run.off <= free_to {
            run.len.min(free_to - run.off + 1)
        } else {
            0
        };
        if free > 0 {
            sink.fetch_run(rec(start + run.off), u64::from(free));
        }
        let clamped = rec((start + max_off).min(last));
        for _ in free..run.len {
            sink.fetch(clamped);
        }
    }
}

/// FNV-1a of a label, for per-family RNG stream separation.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What evaluating one layout produced.
#[derive(Debug, Clone)]
struct Evaluation {
    /// Window miss count (`u64::MAX` when rejected).
    score: u64,
    /// Per-cell window misses (empty when rejected).
    cells: Vec<u64>,
    /// True when the linked image passed translation validation.
    validated: bool,
    /// The layout's block order, numbered in its [`OrderMemo`]: equal
    /// orders get equal numbers.
    order: usize,
}

/// The block orders a search has scored, each with its evaluation. A
/// candidate's score is a pure function of its block order, so an order
/// already here is not linked, validated or replayed again. The key is
/// the whole order, compared element by element, never a hash alone;
/// orders are numbered in the order they were first recorded.
#[derive(Default, Clone)]
struct OrderMemo {
    numbers: HashMap<Vec<BlockId>, usize>,
    scored: Vec<Evaluation>,
}

impl OrderMemo {
    fn get(&self, order: &[BlockId]) -> Option<&Evaluation> {
        self.numbers.get(order).map(|&n| &self.scored[n])
    }

    /// Records the evaluation of `order`, unless the order is already
    /// here, and returns `ev` under the order's number.
    fn record(&mut self, order: Vec<BlockId>, ev: Evaluation) -> Evaluation {
        let next = self.scored.len();
        let number = *self.numbers.entry(order).or_insert(next);
        if number == next {
            self.scored.push(Evaluation {
                order: number,
                ..ev.clone()
            });
        }
        Evaluation {
            order: number,
            ..ev
        }
    }
}

/// The read-only fitness oracle every lane shares: the study, the
/// recorded window, the evaluation grid and the wall budget.
struct Lab<'a> {
    study: &'a Study,
    spec: SweepSpec,
    window: Vec<WindowRun>,
    nblocks: usize,
    lanes: usize,
    /// Take an order already scored from the memo. Off only in the tests
    /// that check the memo against fresh evaluations.
    memoize: bool,
    start: Instant,
    /// Wall budget in milliseconds; 0 = unlimited.
    budget_ms: u64,
}

impl Lab<'_> {
    /// Replays the window remapped onto `image` on the calling thread;
    /// returns (total misses, per-cell misses).
    fn replay(&self, image: &Image) -> (u64, Vec<u64>) {
        let _span = codelayout_obs::span("sweep");
        let mut sink = GridSink::new(&self.spec);
        remap_into(&self.window, image, self.nblocks, &mut sink);
        let per_cell: Vec<u64> = sink.finish().iter().map(|c| c.stats.misses).collect();
        (per_cell.iter().sum(), per_cell)
    }

    /// Scores one layout request on the calling thread: builds the
    /// layout, then links, validates and replays its block order unless
    /// `memo` has it, and records it in `memo`. Validation is
    /// unconditional for every order scored — a layout the validator
    /// rejects can never win, whatever the cache says.
    fn evaluate(&self, req: LayoutRequest, memo: &mut OrderMemo) -> Evaluation {
        let layout = self.study.layout(req);
        if self.memoize {
            if let Some(ev) = memo.get(&layout.order) {
                return ev.clone();
            }
        }
        let ev = self.score(&layout);
        memo.record(layout.order, ev)
    }

    /// Links, validates and replays one layout.
    fn score(&self, layout: &Layout) -> Evaluation {
        let (score, cells, validated) = match self.study.link_validated(layout) {
            Ok(image) => {
                let (score, cells) = self.replay(&image);
                (score, cells, true)
            }
            Err(_) => (u64::MAX, Vec::new(), false),
        };
        Evaluation {
            score,
            cells,
            validated,
            order: 0,
        }
    }

    /// True once the wall budget is spent.
    fn wall_spent(&self) -> bool {
        self.budget_ms > 0 && self.start.elapsed().as_millis() as u64 >= self.budget_ms
    }

    /// `f` of every item, in item order, on the tuner's lanes (helper
    /// lanes under a `tune_lane` root span; see [`codelayout_memsim::on_lanes`]).
    fn on_lanes<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        codelayout_memsim::on_lanes(self.lanes, "tune_lane", items, f)
    }
}

/// One family's search: everything it changes, owned by the lane that
/// runs it.
struct FamilySearch {
    series: LayoutSeries,
    space: ParamSpace,
    budget: u64,
    cache: BTreeMap<ParamPoint, u64>,
    /// Every block order the family's search scored, seeded with the
    /// family's fixed yardstick.
    orders: OrderMemo,
    /// Numbers of the block orders charged so far.
    charged_orders: BTreeSet<usize>,
    evaluated: u64,
    cache_hits: u64,
    rejected: u64,
    layout_hits: u64,
    best: Option<(ParamPoint, u64, Vec<u64>)>,
    default_score: u64,
    /// True once the wall budget cut the search.
    budget_hit: bool,
    /// The family's fresh evaluations, in search order, numbered from 0.
    trajectory: Vec<CandidateRecord>,
}

impl FamilySearch {
    fn new(series: LayoutSeries, budget: u64, orders: OrderMemo) -> Self {
        FamilySearch {
            series,
            space: ParamSpace::for_series(series),
            budget,
            cache: BTreeMap::new(),
            orders,
            charged_orders: BTreeSet::new(),
            evaluated: 0,
            cache_hits: 0,
            rejected: 0,
            layout_hits: 0,
            best: None,
            default_score: u64::MAX,
            budget_hit: false,
            trajectory: Vec::new(),
        }
    }

    /// The layout request of one point of the family's space.
    fn request(&self, point: &ParamPoint) -> LayoutRequest {
        LayoutRequest::from(self.series).with_params(self.space.params(point))
    }

    /// Descent probe `pos` from `cur`: knob `pos / 2`, step −1 for even
    /// `pos` and +1 for odd.
    fn probe(&self, cur: &ParamPoint, pos: usize) -> Option<ParamPoint> {
        cur.step(&self.space, pos / 2, [-1, 1][pos % 2])
    }

    /// True when the wall budget is exhausted (records `budget_hit`).
    fn wall_exhausted(&mut self, lab: &Lab<'_>) -> bool {
        self.budget_hit = self.budget_hit || lab.wall_spent();
        self.budget_hit
    }

    /// Evaluates one point: cache hit is free, a fresh evaluation spends
    /// budget, builds the layout and scores it, and appends to the
    /// family's trajectory. A fresh point whose block order an earlier
    /// fresh point already had is still charged, and counts as a layout
    /// hit. Returns `None` when out of budget (candidate or wall).
    fn eval(&mut self, lab: &Lab<'_>, point: &ParamPoint, origin: CandidateOrigin) -> Option<u64> {
        if let Some(&score) = self.cache.get(point) {
            self.cache_hits += 1;
            return Some(score);
        }
        if self.evaluated >= self.budget || self.wall_exhausted(lab) {
            return None;
        }
        let Evaluation {
            score,
            cells,
            validated,
            order,
        } = lab.evaluate(self.request(point), &mut self.orders);
        self.evaluated += 1;
        if !validated {
            self.rejected += 1;
        }
        if !self.charged_orders.insert(order) {
            self.layout_hits += 1;
        }
        let accepted = validated && self.best.as_ref().is_none_or(|(_, s, _)| score < *s);
        if accepted {
            self.best = Some((point.clone(), score, cells));
        }
        self.trajectory.push(CandidateRecord {
            candidate: self.trajectory.len() as u64,
            series: self.series,
            point: point.clone(),
            score,
            accepted,
            validated,
            origin,
        });
        self.cache.insert(point.clone(), score);
        Some(score)
    }

    /// Greedy coordinate descent from `start`: probe each knob's ±1
    /// neighbors in order, move on strict improvement, repeat until a
    /// full pass makes no move (or the budget runs out).
    fn descend(&mut self, lab: &Lab<'_>, start: ParamPoint) {
        let Some(mut cur_score) = self.eval(lab, &start, CandidateOrigin::Restart) else {
            return;
        };
        let mut cur = start;
        loop {
            let mut improved = false;
            for pos in 0..2 * self.space.len() {
                let Some(next) = self.probe(&cur, pos) else {
                    continue;
                };
                let Some(s) = self.eval(lab, &next, CandidateOrigin::Descent) else {
                    return;
                };
                if s < cur_score {
                    cur = next;
                    cur_score = s;
                    improved = true;
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// The full family search: default point, descent, random restarts.
    fn run(&mut self, lab: &Lab<'_>, seed: u64) {
        let default = self.space.default_point();
        if self.eval(lab, &default, CandidateOrigin::Default).is_none() {
            return;
        }
        self.default_score = self.cache[&default];
        self.descend(lab, default);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stale = 0u32;
        while self.evaluated < self.budget
            && !self.wall_exhausted(lab)
            && stale < STALE_RESTART_LIMIT
        {
            let idx: Vec<u32> = self
                .space
                .knobs()
                .iter()
                .map(|k| rng.gen_range(0..k.values().len()) as u32)
                .collect();
            let before = self.evaluated;
            self.descend(lab, ParamPoint::new(&self.space, idx));
            if self.evaluated == before {
                stale += 1;
            } else {
                stale = 0;
            }
        }
    }

    /// Appends the family's candidates to `trajectory`, numbered after
    /// the ones already there, emits their `tune/candidate` events and
    /// the family's `tune.*` counters, and returns its result: `None`
    /// when no candidate validated (the wall budget cut the search before
    /// its default, or the validator rejected every candidate, which the
    /// trajectory, events and `tune.rejected` still show).
    fn publish(self, trajectory: &mut Vec<CandidateRecord>) -> Option<FamilyResult> {
        let first = trajectory.len() as u64;
        for mut rec in self.trajectory {
            rec.candidate += first;
            codelayout_obs::tracer().event(
                "tune/candidate",
                json!({
                    "candidate": rec.candidate,
                    "series": rec.series.label(),
                    "point": rec.point.indices(),
                    "params": params_json(&self.space, &self.space.params(&rec.point)),
                    "score": if rec.validated { json!(rec.score) } else { json!(null) },
                    "accepted": rec.accepted,
                    "validated": rec.validated,
                    "origin": rec.origin.label(),
                }),
            );
            trajectory.push(rec);
        }
        let m = codelayout_obs::metrics();
        if self.evaluated > 0 {
            m.add("tune.candidates", self.evaluated);
            m.add("tune.layout_hits", self.layout_hits);
        }
        if self.rejected > 0 {
            m.add("tune.rejected", self.rejected);
        }
        let (best_point, best_score, best_cells) = self.best?;
        m.add("tune.families", 1);
        Some(FamilyResult {
            series: self.series,
            best_params: self.space.params(&best_point),
            best_point,
            best_score,
            best_cells,
            default_score: self.default_score,
            evaluated: self.evaluated,
            cache_hits: self.cache_hits,
            rejected: self.rejected,
            layout_hits: self.layout_hits,
        })
    }
}

/// Runs the autotuner over a built study.
///
/// Records the replay window from a measured run on the baseline image,
/// then searches each family in [`TuneConfig::series`] (families with no
/// knobs, like `base`, are skipped), side by side on the lanes.
///
/// # Panics
/// Panics if the recording run produced no user-mode fetches.
pub fn run_tune(study: &Study, cfg: &TuneConfig) -> TuneReport {
    tune(study, cfg, true)
}

/// [`run_tune`], taking already-scored block orders from the order memo
/// only when `memoize` is set.
fn tune(study: &Study, cfg: &TuneConfig, memoize: bool) -> TuneReport {
    let _span = codelayout_obs::span("tune");
    let start = Instant::now();

    let record_span = codelayout_obs::span("tune_record");
    let mut sink = WindowSink {
        image: &study.base_image,
        cap: cfg.window,
        events: 0,
        runs: Vec::new(),
    };
    study.run_measured(&study.base_image, &study.base_kernel_image, &mut sink);
    record_span.finish();
    assert!(
        sink.events > 0,
        "recording run produced no user-mode fetches"
    );

    let lab = Lab {
        study,
        spec: SweepSpec::grid()
            .sizes_kb(&TUNE_SIZES_KB)
            .line_b(EVAL_LINE_B)
            .ways(EVAL_WAYS)
            .cpus(study.scenario.num_cpus)
            .filter(StreamFilter::UserOnly),
        window: sink.runs,
        nblocks: study.app.program.blocks.len(),
        lanes: cfg.sweep_threads.max(1),
        memoize,
        start,
        budget_ms: cfg.budget_ms,
    };
    let window_events = sink.events;
    let (base_score, base_cells) = lab.replay(&study.base_image);

    // Score every fixed comparison series through the same oracle: the
    // yardstick the tuned layouts must beat, on the same window and
    // grid, so the comparison is apples-to-apples and deterministic. A
    // searched family's memo starts as its yardstick's: the family's
    // default point is the same series at the same parameters.
    let fixed_span = codelayout_obs::span("tune_fixed");
    let comparison = LayoutSeries::comparison();
    let fixed_evals = lab.on_lanes(&comparison, |&series| {
        let mut memo = OrderMemo::default();
        let ev = lab.evaluate(series.into(), &mut memo);
        (memo, ev)
    });
    fixed_span.finish();

    let search_span = codelayout_obs::span("tune_search");
    let searched: Vec<LayoutSeries> = cfg
        .series
        .iter()
        .copied()
        .filter(|&s| !ParamSpace::for_series(s).is_empty())
        .collect();
    let searches = lab.on_lanes(&searched, |&series| {
        let _span = codelayout_obs::span("tune_family");
        let orders = comparison
            .iter()
            .position(|&s| s == series)
            .map(|i| fixed_evals[i].0.clone())
            .unwrap_or_default();
        let mut fam = FamilySearch::new(series, cfg.candidates, orders);
        fam.run(&lab, cfg.seed ^ fnv1a(series.label()));
        // The memo is dropped when the family ends, not at the join.
        fam.orders = OrderMemo::default();
        fam
    });
    let mut trajectory = Vec::new();
    let budget_hit = searches.iter().any(|f| f.budget_hit);
    let families: Vec<FamilyResult> = searches
        .into_iter()
        .filter_map(|fam| fam.publish(&mut trajectory))
        .collect();
    search_span.finish();

    let fixed = comparison
        .into_iter()
        .zip(fixed_evals)
        .map(|(series, (_, ev))| FixedResult {
            series,
            score: ev.score,
            cells: ev.cells,
            validated: ev.validated,
        })
        .collect();
    TuneReport {
        config: cfg.clone(),
        window_events,
        base_score,
        base_cells,
        fixed,
        families,
        trajectory,
        budget_hit,
        wall_ms: start.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_memsim::SweepSink;
    use codelayout_oltp::build_study;
    use codelayout_vm::{FrozenTrace, RecordingSink, TeeSink, TraceBuffer};

    /// One recorded fetch, one record per event: the window as it was
    /// stored before run compression.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct WindowEvent {
        block: u32,
        off: u32,
        cpu: u8,
        pid: u8,
    }

    /// The per-event window recorder run compression replaced.
    struct EventWindowSink<'a> {
        image: &'a Image,
        cap: usize,
        events: Vec<WindowEvent>,
    }

    impl TraceSink for EventWindowSink<'_> {
        fn fetch(&mut self, rec: FetchRecord) {
            if rec.kernel || self.events.len() >= self.cap {
                return;
            }
            let Some(idx) = self.image.index_of(rec.addr) else {
                return;
            };
            let b = self.image.block_of[idx as usize];
            self.events.push(WindowEvent {
                block: b.index() as u32,
                off: idx - self.image.block_start[b.index()],
                cpu: rec.cpu,
                pid: rec.pid,
            });
        }
    }

    /// The per-event remap the streamed one replaced: every event
    /// clamped and materialized into a trace buffer.
    fn event_remap(events: &[WindowEvent], image: &Image, nblocks: usize) -> FrozenTrace {
        let len = block_lengths(image, nblocks);
        let last = image.len() as u32 - 1;
        let mut buf = TraceBuffer::fetch_only();
        for ev in events {
            let b = ev.block as usize;
            let off = ev.off.min(len[b].saturating_sub(1));
            let idx = (image.block_start[b] + off).min(last);
            buf.fetch(FetchRecord {
                addr: image.addr(idx),
                cpu: ev.cpu,
                pid: ev.pid,
                kernel: false,
            });
        }
        buf.freeze()
    }

    /// Expands runs back into one event per recorded fetch.
    fn expand(runs: &[WindowRun]) -> Vec<WindowEvent> {
        runs.iter()
            .flat_map(|r| {
                (r.off..r.off + r.len).map(move |off| WindowEvent {
                    block: r.block,
                    off,
                    cpu: r.cpu,
                    pid: r.pid,
                })
            })
            .collect()
    }

    /// Records the `quick` study's window both ways in one measured run.
    fn record_both(study: &Study, cap: usize) -> (Vec<WindowRun>, u64, Vec<WindowEvent>) {
        let mut tee = TeeSink(
            WindowSink {
                image: &study.base_image,
                cap: cap as u64,
                events: 0,
                runs: Vec::new(),
            },
            EventWindowSink {
                image: &study.base_image,
                cap,
                events: Vec::new(),
            },
        );
        study.run_measured(&study.base_image, &study.base_kernel_image, &mut tee);
        let TeeSink(runs, events) = tee;
        (runs.runs, runs.events, events.events)
    }

    fn tune_spec(study: &Study) -> SweepSpec {
        SweepSpec::grid()
            .sizes_kb(&TUNE_SIZES_KB)
            .line_b(EVAL_LINE_B)
            .ways(EVAL_WAYS)
            .cpus(study.scenario.num_cpus)
            .filter(StreamFilter::UserOnly)
    }

    #[test]
    fn run_compressed_window_expands_to_the_per_event_window() {
        let study = build_study(&Scenario::quick());
        for cap in [1, 777, 50_000, usize::MAX] {
            let (runs, events, reference) = record_both(&study, cap);
            assert_eq!(events, reference.len() as u64, "cap {cap}");
            assert_eq!(expand(&runs), reference, "cap {cap}");
            if cap > 1_000 {
                assert!(runs.len() * 2 < reference.len(), "runs do not compress");
            }
        }
    }

    #[test]
    fn streamed_remap_equals_the_buffered_replay() {
        let study = build_study(&Scenario::quick());
        let (runs, _, reference) = record_both(&study, 200_000);
        let nblocks = study.app.program.blocks.len();
        let spec = tune_spec(&study);
        // `all` splits and chains: block lengths change, so the clamp
        // must fire somewhere in the window.
        let all = study.image(LayoutSeries::Paper(OptimizationSet::ALL));
        let lens = block_lengths(&all, nblocks);
        assert!(
            reference.iter().any(|e| e.off >= lens[e.block as usize]),
            "no recorded offset needs clamping on the `all` image"
        );
        for image in [
            all,
            study.image(LayoutSeries::ExtTsp),
            study.base_image.clone(),
        ] {
            let old = event_remap(&reference, &image, nblocks);
            let (mut want, mut got) = (RecordingSink::default(), RecordingSink::default());
            old.replay(&mut want);
            remap_into(&runs, &image, nblocks, &mut got);
            assert_eq!(got.fetches, want.fetches, "remapped record streams differ");
            let mut want = SweepSink::from_spec(&spec);
            old.replay(&mut want);
            let mut sink = GridSink::new(&spec);
            remap_into(&runs, &image, nblocks, &mut sink);
            assert_eq!(sink.finish(), want.results(), "remapped grids differ");
        }
    }

    /// The search scored through the order memo reports byte for byte
    /// what it reports when every candidate is linked, validated and
    /// replayed afresh, at 1 and 3 lanes and at `CODELAYOUT_THREADS`
    /// lanes, where families search side by side. Each family's layout
    /// hits are its charged points whose block order an earlier charged
    /// point of the family had, counted here by rebuilding every layout.
    #[test]
    fn memoized_scoring_equals_fresh_evaluation() {
        let study = build_study(&Scenario::quick());
        let mut cfg = TuneConfig::for_scenario(&study.scenario);
        let mut total_hits = 0;
        for lanes in [1, 3, run_env().sweep_threads()] {
            cfg.sweep_threads = lanes;
            let memo = tune(&study, &cfg, true);
            let fresh = tune(&study, &cfg, false);
            let json = |r: &TuneReport| serde_json::to_string(&r.deterministic_json()).unwrap();
            assert_eq!(json(&memo), json(&fresh), "{lanes} lanes");
            for (f, g) in memo.families.iter().zip(&fresh.families) {
                let space = ParamSpace::for_series(f.series);
                let mut seen: Vec<Vec<BlockId>> = Vec::new();
                let mut repeats = 0;
                for c in memo.trajectory.iter().filter(|c| c.series == f.series) {
                    let req = LayoutRequest::from(f.series).with_params(space.params(&c.point));
                    let order = study.layout(req).order;
                    if seen.contains(&order) {
                        repeats += 1;
                    } else {
                        seen.push(order);
                    }
                }
                assert_eq!(f.layout_hits, repeats, "{} at {lanes} lanes", f.series);
                assert_eq!(g.layout_hits, repeats, "{} at {lanes} lanes", f.series);
                total_hits += repeats;
            }
        }
        assert!(total_hits > 0, "no candidate repeated a block order");
    }

    #[test]
    fn lanes_return_results_in_item_order() {
        let study = build_study(&Scenario::quick());
        let items: Vec<u64> = (0..11).collect();
        for lanes in [1, 2, 3, 16] {
            let lab = Lab {
                study: &study,
                spec: tune_spec(&study),
                window: Vec::new(),
                nblocks: 0,
                lanes,
                memoize: true,
                start: Instant::now(),
                budget_ms: 0,
            };
            assert_eq!(
                lab.on_lanes(&items, |&i| i * i),
                items.iter().map(|i| i * i).collect::<Vec<_>>()
            );
            assert!(lab.on_lanes(&[] as &[u64], |&i| i).is_empty());
        }
    }

    #[test]
    fn origin_labels_are_stable() {
        assert_eq!(CandidateOrigin::Default.label(), "default");
        assert_eq!(CandidateOrigin::Descent.label(), "descent");
        assert_eq!(CandidateOrigin::Restart.label(), "restart");
    }

    #[test]
    fn fnv_separates_family_streams() {
        let labels = ["all", "hotcold", "exttsp", "stitcher"];
        for a in labels {
            for b in labels {
                assert_eq!(a == b, fnv1a(a) == fnv1a(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn config_json_has_no_engine_or_wall_fields() {
        let cfg = TuneConfig::for_scenario(&Scenario::quick());
        let v = cfg.to_json();
        let obj = v.as_object().expect("config echo is an object");
        assert!(obj.contains_key("seed"));
        assert!(!obj.contains_key("sweep_engine"));
        assert!(!obj.contains_key("sweep_threads"));
    }
}
