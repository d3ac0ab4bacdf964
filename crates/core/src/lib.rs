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
//! one build. Each pass is one function that takes its parameters
//! ([`LayoutParams`] or its sub-struct); the pipeline passes its own.
//! A search that builds many layouts of one profile keeps what they
//! share — the chain orders, the procedure placement, ext-TSP's merges —
//! in one [`LayoutMemo`].
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
mod memo;
mod params;
mod pipeline;
mod request;
mod series;
mod split;
mod stitcher;

pub use cfa::{cfa_layout, CfaReport};
pub use chain::{chain_all, chain_proc};
pub use exttsp::{
    block_bytes, exttsp_layout, exttsp_proc_order, exttsp_score, span_score, BACKWARD_WINDOW,
    FORWARD_WINDOW, SCORE_SCALE,
};
pub use graph::pettis_hansen_order;
pub use hotcold::hot_cold_layout;
pub use memo::LayoutMemo;
pub use params::{
    CfaParams, ChainParams, ExtTspParams, HotColdParams, LayoutParams, ParamKnob, ParamPoint,
    ParamSpace, SplitParams,
};
pub use pipeline::{LayoutPipeline, OptimizationSet, CFA_RESERVED_BYTES};
pub use request::{LayoutRequest, ParseRequestError, ProfileSource};
pub use series::LayoutSeries;
pub use split::{split_all, split_order, Segment};
pub use stitcher::{stitcher_layout, StitchLevels};
