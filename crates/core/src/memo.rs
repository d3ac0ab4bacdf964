//! What the layout builds of one program and profile share.
//!
//! Every tuned series starts from the same two stages: the paper's
//! basic-block chaining ([`crate::chain_all`]) and the Pettis–Hansen
//! procedure placement. A search that builds dozens of layouts of one
//! profile at different parameter points would redo them at every
//! candidate, though chaining reads one knob and the placement none.
//! [`LayoutMemo`] keeps them, and ext-TSP's per-procedure merges, across
//! the builds of one program and profile.

use crate::chain::chain_proc;
use crate::exttsp::ExtTspMerges;
use crate::graph::pettis_hansen_order;
use crate::params::ChainParams;
use codelayout_ir::{BlockId, ProcId, Program};
use codelayout_profile::Profile;
use std::collections::HashMap;

/// What the layout builds of one program and profile reuse from one
/// another. Each entry is keyed by everything that computes it, so a
/// reused entry is the one a fresh build computes:
///
/// - **Chain orders**, [`crate::chain_all`]'s per-procedure block orders,
///   keyed by [`ChainParams`]: chaining reads the program, the profile
///   and `params.chain` only. The paper's chained sets, hot/cold, CFA
///   and Codestitcher lay out or split these orders; ext-TSP's chain
///   candidate for a procedure is its chain order rotated to entry
///   first. A procedure's order is computed on first use, so ext-TSP
///   chains only the procedures whose candidates it compares.
/// - **The procedure placement**, Pettis–Hansen over the profile's call
///   weights, built once: no knob reaches it. The paper's `porder` and
///   `chain+porder`, hot/cold and ext-TSP arrange procedures by it.
/// - **ext-TSP's per-procedure state.** Once per procedure: its local
///   edges, block sizes and entry index, and the order of a procedure
///   the merger has no work in (one block, or no weighted edge between
///   distinct blocks); these read the program and profile only. Merged
///   orders, keyed by procedure and `(jump_weight, forward_window,
///   backward_window, min(split_cap, n))` for a procedure of `n` blocks:
///   the merger reads the profile, the procedure and `params.exttsp`
///   only, `split_cap` only bars chains longer than the cap from
///   split-point merging, and no chain of the procedure is longer than
///   `n`, so every cap from `n` up merges alike.
///
/// Everything else runs on every build: splitting and the segment
/// orderings (they read the split knobs and the chain orders), hot/cold
/// partitioning, CFA packing, Codestitcher's levels and ext-TSP's
/// candidate selection, which reads the weights of the build's own point.
///
/// [`crate::LayoutPipeline::build_series`] builds through a fresh memo.
/// A search keeps one memo across its builds
/// ([`crate::LayoutPipeline::build_series_with`]), and each layout equals
/// a fresh build at its point. Each build that reads the chain orders
/// adds one to the `chain.orders` counter when the memo had none at its
/// chaining parameters, and to `chain.order_hits` when it had; each
/// ext-TSP build adds the merges it ran to `exttsp.merges` and the
/// merged orders it reused to `exttsp.merge_hits`.
///
/// ```
/// # use codelayout_ir::{ProcBuilder, ProgramBuilder};
/// # use codelayout_profile::Profile;
/// use codelayout_core::{LayoutMemo, LayoutParams, LayoutPipeline, LayoutSeries};
///
/// # let mut pb = ProgramBuilder::new("p");
/// # let main = pb.declare_proc("main");
/// # let mut f = ProcBuilder::new();
/// # f.halt();
/// # pb.define_proc(main, f).unwrap();
/// # let program = pb.finish(main).unwrap();
/// # let profile = Profile::new(program.blocks.len());
/// let mut memo = LayoutMemo::new(&program, &profile);
/// let mut params = LayoutParams::default();
/// for weight in [0, 4, 16] {
///     params.chain.min_edge_weight = weight;
///     let pipeline = LayoutPipeline::with_params(&program, &profile, params);
///     for series in LayoutSeries::all() {
///         let reused = pipeline.build_series_with(series, &mut memo);
///         assert_eq!(reused, pipeline.build_series(series));
///     }
/// }
/// ```
pub struct LayoutMemo<'a> {
    program: &'a Program,
    profile: &'a Profile,
    /// Chain orders by chaining parameters.
    chains: HashMap<ChainParams, ChainOrders>,
    /// Pettis–Hansen procedure order, filled on first use.
    placement: Option<Vec<u32>>,
    /// ext-TSP's per-procedure facts and merged orders.
    exttsp: ExtTspMerges,
}

impl<'a> LayoutMemo<'a> {
    /// An empty memo over `program` and `profile`. Costs nothing until
    /// its first build.
    pub fn new(program: &'a Program, profile: &'a Profile) -> Self {
        LayoutMemo {
            program,
            profile,
            chains: HashMap::new(),
            placement: None,
            exttsp: ExtTspMerges::default(),
        }
    }

    /// True when the memo is over exactly this program and profile (the
    /// same objects, not equal copies).
    pub(crate) fn is_over(&self, program: &Program, profile: &Profile) -> bool {
        std::ptr::eq(self.program, program) && std::ptr::eq(self.profile, profile)
    }

    /// The memo's program.
    pub(crate) fn program(&self) -> &'a Program {
        self.program
    }

    /// The memo's profile.
    pub(crate) fn profile(&self) -> &'a Profile {
        self.profile
    }

    /// [`crate::chain_all`] at `params`.
    pub(crate) fn chain_orders(&mut self, params: &ChainParams) -> &[Vec<BlockId>] {
        let (program, profile) = (self.program, self.profile);
        let chains = chain_orders(&mut self.chains, program, params);
        for p in 0..program.procs.len() {
            chains.proc_order(program, profile, ProcId(p as u32));
        }
        &chains.orders
    }

    /// The Pettis–Hansen procedure order over the profile's call weights.
    pub(crate) fn placement(&mut self) -> &[u32] {
        placement(&mut self.placement, self.program, self.profile)
    }

    /// What an ext-TSP build at chaining parameters `chain` reads: the
    /// placement, the chain orders and the per-procedure merges.
    pub(crate) fn exttsp_parts(
        &mut self,
        chain: &ChainParams,
    ) -> (&[u32], &mut ChainOrders, &mut ExtTspMerges) {
        let (program, profile) = (self.program, self.profile);
        (
            placement(&mut self.placement, program, profile),
            chain_orders(&mut self.chains, program, chain),
            &mut self.exttsp,
        )
    }
}

/// The chain orders at one [`ChainParams`], each computed on first use.
pub(crate) struct ChainOrders {
    params: ChainParams,
    /// Per procedure; empty until computed (every procedure has a block).
    orders: Vec<Vec<BlockId>>,
}

impl ChainOrders {
    /// An empty table of `program`'s chain orders at `params`.
    pub(crate) fn new(program: &Program, params: ChainParams) -> Self {
        ChainOrders {
            params,
            orders: vec![Vec::new(); program.procs.len()],
        }
    }

    /// [`crate::chain_proc`] of `proc` at the table's parameters.
    pub(crate) fn proc_order(
        &mut self,
        program: &Program,
        profile: &Profile,
        proc: ProcId,
    ) -> &[BlockId] {
        let order = &mut self.orders[proc.index()];
        if order.is_empty() {
            *order = chain_proc(program, profile, proc, &self.params);
        }
        order
    }
}

/// The memo's chain orders at `params`, counting the lookup.
fn chain_orders<'m>(
    chains: &'m mut HashMap<ChainParams, ChainOrders>,
    program: &Program,
    params: &ChainParams,
) -> &'m mut ChainOrders {
    let hit = chains.contains_key(params);
    let m = codelayout_obs::metrics();
    m.add("chain.orders", u64::from(!hit));
    m.add("chain.order_hits", u64::from(hit));
    chains
        .entry(*params)
        .or_insert_with(|| ChainOrders::new(program, *params))
}

fn placement<'m>(
    slot: &'m mut Option<Vec<u32>>,
    program: &Program,
    profile: &Profile,
) -> &'m [u32] {
    slot.get_or_insert_with(|| {
        let w = profile.proc_call_weights(program);
        pettis_hansen_order(
            program.procs.len(),
            w.into_iter().map(|((a, b), c)| (a, b, c)),
        )
    })
}
