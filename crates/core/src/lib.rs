//! Profile-driven code layout optimizations — the primary contribution of
//! *"Code Layout Optimizations for Transaction Processing Workloads"*
//! (Ramirez et al., ISCA 2001), as implemented in Compaq's Spike executable
//! optimizer.
//!
//! Three algorithms compose (paper §2):
//!
//! 1. **Basic block chaining** ([`chain_proc`]) — greedy sequentialization
//!    of the hottest intra-procedure control-flow paths;
//! 2. **Fine-grain procedure splitting** ([`split_order`]) — cutting a
//!    chained procedure into independently placeable segments at
//!    unconditional transfers;
//! 3. **Procedure ordering** ([`pettis_hansen_order`]) — Pettis–Hansen
//!    call-graph node merging over procedures or segments.
//!
//! [`LayoutPipeline`] composes them into the six configurations evaluated in
//! the paper's Figures 7 and 15 (`base`, `porder`, `chain`, `chain+split`,
//! `chain+porder`, `all`). Two additional layouts reproduce algorithms the
//! paper compares against or rejects: [`hot_cold_layout`] (the Spike
//! distribution's hot/cold splitting) and [`cfa_layout`] (the conflict-free
//! area / software trace cache variant, which the paper found ineffective
//! for OLTP).
//!
//! Two post-paper successors round out the comparison surface:
//! [`exttsp_layout`] (Newell–Pupyrev's ext-TSP objective with chain merging
//! and score-driven merge-point selection) and [`stitcher_layout`]
//! (Codestitcher's hierarchical inter-procedural collocation by distance
//! class). [`LayoutSeries`] names every series — the paper's six plus the
//! four alternatives — behind one label,
//! [`LayoutPipeline::build_series`] builds any of them, and
//! [`LayoutRequest`] adds the profile source and pass parameters to name
//! one build.
//!
//! All optimizations are *pure layout permutations*: they consume an
//! immutable [`codelayout_ir::Program`] plus a
//! [`codelayout_profile::Profile`] and produce a [`codelayout_ir::Layout`],
//! never touching the code itself, so semantics preservation is structural.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cfa;
mod chain;
mod exttsp;
mod graph;
mod hotcold;
mod params;
mod pipeline;
mod request;
mod series;
mod split;
mod stitcher;

pub use cfa::{cfa_layout, cfa_layout_with, CfaReport};
pub use chain::{chain_all, chain_all_with, chain_proc, chain_proc_with};
pub use exttsp::{
    block_bytes, exttsp_layout, exttsp_layout_with, exttsp_proc_order, exttsp_proc_order_with,
    exttsp_score, exttsp_score_with, span_score, span_score_with, BACKWARD_WINDOW, FORWARD_WINDOW,
    SCORE_SCALE,
};
pub use graph::pettis_hansen_order;
pub use hotcold::{hot_cold_layout, hot_cold_layout_with};
pub use params::{
    CfaParams, ChainParams, ExtTspParams, HotColdParams, LayoutParams, ParamKnob, ParamPoint,
    ParamSpace, SplitParams,
};
pub use pipeline::{LayoutPipeline, OptimizationSet, CFA_RESERVED_BYTES};
pub use request::{LayoutRequest, ParseRequestError};
pub use series::LayoutSeries;
pub use split::{split_all, split_all_with, split_order, split_order_with, Segment};
pub use stitcher::{stitcher_layout, stitcher_layout_params, stitcher_layout_with, StitchLevels};
