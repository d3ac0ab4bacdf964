//! Composition of the layout optimizations into the paper's pipelines.

use crate::cfa::cfa_with;
use crate::exttsp::exttsp_with;
use crate::graph::pettis_hansen_order;
use crate::hotcold::hot_cold_with;
use crate::memo::LayoutMemo;
use crate::params::LayoutParams;
use crate::series::LayoutSeries;
use crate::split::{split_all, Segment};
use crate::stitcher::stitcher_with;
use codelayout_ir::{BlockId, Layout, ProcId, Program};
use codelayout_profile::Profile;
use std::borrow::Cow;
use std::fmt;

/// Which optimizations to apply, mirroring the x-axis of the paper's
/// Figures 7 and 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizationSet {
    /// Basic block chaining within procedures.
    pub chain: bool,
    /// Fine-grain procedure splitting into segments.
    pub split: bool,
    /// Pettis–Hansen procedure (or segment) ordering.
    pub porder: bool,
}

impl OptimizationSet {
    /// No optimization: the compiler's natural layout.
    pub const BASE: Self = Self {
        chain: false,
        split: false,
        porder: false,
    };
    /// Procedure ordering alone.
    pub const PORDER: Self = Self {
        chain: false,
        split: false,
        porder: true,
    };
    /// Basic block chaining alone.
    pub const CHAIN: Self = Self {
        chain: true,
        split: false,
        porder: false,
    };
    /// Chaining plus fine-grain splitting (cold segments sink to the end).
    pub const CHAIN_SPLIT: Self = Self {
        chain: true,
        split: true,
        porder: false,
    };
    /// Chaining plus whole-procedure ordering.
    pub const CHAIN_PORDER: Self = Self {
        chain: true,
        split: false,
        porder: true,
    };
    /// All three: chaining, splitting, segment ordering.
    pub const ALL: Self = Self {
        chain: true,
        split: true,
        porder: true,
    };

    /// The six configurations evaluated in the paper's Figures 7 and 15, in
    /// presentation order, with the paper's labels.
    pub fn paper_series() -> [(&'static str, Self); 6] {
        [
            Self::BASE,
            Self::PORDER,
            Self::CHAIN,
            Self::CHAIN_SPLIT,
            Self::CHAIN_PORDER,
            Self::ALL,
        ]
        .map(|set| (set.label(), set))
    }

    /// Stable lowercase name of every combination: the paper's labels
    /// for its six, `split` and `split+porder` for the two it does not
    /// evaluate.
    pub fn label(self) -> &'static str {
        match (self.chain, self.split, self.porder) {
            (false, false, false) => "base",
            (false, false, true) => "porder",
            (true, false, false) => "chain",
            (true, true, false) => "chain+split",
            (true, false, true) => "chain+porder",
            (true, true, true) => "all",
            (false, true, false) => "split",
            (false, true, true) => "split+porder",
        }
    }
}

impl fmt::Display for OptimizationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Profile-driven layout generator: the Rust equivalent of running Spike on
/// an executable with a profile.
///
/// ```
/// # use codelayout_ir::{ProcBuilder, ProgramBuilder, Reg};
/// # use codelayout_profile::Profile;
/// use codelayout_core::{LayoutPipeline, OptimizationSet};
///
/// # let mut pb = ProgramBuilder::new("p");
/// # let main = pb.declare_proc("main");
/// # let mut f = ProcBuilder::new();
/// # f.halt();
/// # pb.define_proc(main, f).unwrap();
/// # let program = pb.finish(main).unwrap();
/// # let profile = Profile::new(program.blocks.len());
/// let pipeline = LayoutPipeline::new(&program, &profile);
/// let layout = pipeline.build_series(OptimizationSet::ALL.into());
/// assert_eq!(layout.len(), program.blocks.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LayoutPipeline<'a> {
    program: &'a Program,
    profile: &'a Profile,
    params: LayoutParams,
}

impl<'a> LayoutPipeline<'a> {
    /// Creates a pipeline over a program and its profile, with the default
    /// [`LayoutParams`] (the historical hard-coded constants).
    pub fn new(program: &'a Program, profile: &'a Profile) -> Self {
        Self::with_params(program, profile, LayoutParams::default())
    }

    /// Creates a pipeline with explicit layout-construction parameters.
    ///
    /// `with_params(p, prof, LayoutParams::default())` is bit-identical to
    /// [`LayoutPipeline::new`] for every series.
    pub fn with_params(program: &'a Program, profile: &'a Profile, params: LayoutParams) -> Self {
        LayoutPipeline {
            program,
            profile,
            params,
        }
    }

    /// The pipeline's layout-construction parameters.
    pub fn params(&self) -> &LayoutParams {
        &self.params
    }

    /// The segments produced by chaining (optional) followed by fine-grain
    /// splitting.
    pub fn segments(&self, chain: bool) -> Vec<Segment> {
        self.segments_with(chain, &mut LayoutMemo::new(self.program, self.profile))
    }

    /// [`LayoutPipeline::segments`], reading the chain orders from `memo`.
    pub(crate) fn segments_with(&self, chain: bool, memo: &mut LayoutMemo<'_>) -> Vec<Segment> {
        let orders = self.block_orders(chain, memo);
        let _span = codelayout_obs::span("split");
        let segs = split_all(self.program, self.profile, &orders, &self.params.split);
        codelayout_obs::metrics().add("layout.segments", segs.len() as u64);
        segs
    }

    /// Per-procedure block orders after the (optional) chaining stage.
    fn block_orders<'m>(
        &self,
        chain: bool,
        memo: &'m mut LayoutMemo<'_>,
    ) -> Cow<'m, [Vec<BlockId>]> {
        if chain {
            let _span = codelayout_obs::span("chain");
            let orders = memo.chain_orders(&self.params.chain);
            codelayout_obs::metrics().add(
                "layout.blocks_chained",
                orders.iter().map(Vec::len).sum::<usize>() as u64,
            );
            Cow::Borrowed(orders)
        } else {
            Cow::Owned(
                self.program
                    .procs
                    .iter()
                    .map(|p| p.blocks.clone())
                    .collect(),
            )
        }
    }

    /// Builds the layout for any [`LayoutSeries`] — a paper
    /// [`OptimizationSet`] converts with `set.into()` — under the
    /// pipeline's [`LayoutParams`] (the CFA series' reserved area
    /// defaults to [`CFA_RESERVED_BYTES`]), through a fresh
    /// [`LayoutMemo`].
    ///
    /// Every constructed layout is checked with
    /// [`codelayout_ir::verify_layout`]; under `debug_assertions` the
    /// series' positional conventions (see
    /// [`LayoutSeries::placement_split`]) are additionally checked with
    /// [`codelayout_ir::verify_layout_placement`].
    ///
    /// # Panics
    /// Panics if the constructed layout fails verification — that is always
    /// a bug in the optimization stages, never a property of the input.
    pub fn build_series(&self, series: LayoutSeries) -> Layout {
        self.build_series_with(series, &mut LayoutMemo::new(self.program, self.profile))
    }

    /// [`LayoutPipeline::build_series`] through `memo`: a search that
    /// builds many layouts of one profile passes the same memo to each,
    /// and gets the layouts fresh builds give (see [`LayoutMemo`] for
    /// what it reuses).
    ///
    /// # Panics
    /// As [`LayoutPipeline::build_series`], and if `memo` is not over the
    /// pipeline's program and profile (the same objects, not equal
    /// copies).
    pub fn build_series_with(&self, series: LayoutSeries, memo: &mut LayoutMemo<'_>) -> Layout {
        assert!(
            memo.is_over(self.program, self.profile),
            "layout memo is over another program or profile"
        );
        let _span = codelayout_obs::span("layout");
        codelayout_obs::metrics().add("layout.builds", 1);
        let (program, params) = (self.program, &self.params);
        let layout = match series {
            LayoutSeries::Paper(set) => self.paper_layout(set, memo),
            LayoutSeries::HotCold => hot_cold_with(memo, params),
            LayoutSeries::Cfa => cfa_with(memo, params).0,
            LayoutSeries::ExtTsp => exttsp_with(memo, params),
            LayoutSeries::Stitcher => stitcher_with(memo, params),
        };
        let verify_span = codelayout_obs::span("verify");
        codelayout_ir::verify_layout(program, &layout)
            .unwrap_or_else(|e| panic!("pipeline produced an invalid `{series}` layout: {e}"));
        #[cfg(debug_assertions)]
        if let Some(split) = series.placement_split() {
            codelayout_ir::verify_layout_placement(program, &layout, split).unwrap_or_else(|e| {
                panic!("pipeline violated `{series}` placement conventions: {e}")
            });
        }
        verify_span.finish();
        layout
    }

    fn paper_layout(&self, set: OptimizationSet, memo: &mut LayoutMemo<'_>) -> Layout {
        let order: Vec<BlockId> = if set.split {
            let segs = self.segments_with(set.chain, memo);
            let seg_order: Vec<usize> = if set.porder {
                let _span = codelayout_obs::span("porder");
                let edges = segment_edges(self.program, self.profile, &segs);
                pettis_hansen_order(segs.len(), edges)
                    .into_iter()
                    .map(|i| i as usize)
                    .collect()
            } else {
                // Splitting without ordering keeps placement unchanged:
                // segments only gain *flexibility* for a follow-on
                // ordering pass (paper §4.1: "Adding splitting … alone
                // does not improve performance significantly").
                (0..segs.len()).collect()
            };
            seg_order
                .into_iter()
                .flat_map(|i| segs[i].blocks.iter().copied())
                .collect()
        } else {
            let proc_order: Vec<u32> = if set.porder {
                let _span = codelayout_obs::span("porder");
                memo.placement().to_vec()
            } else {
                (0..self.program.procs.len() as u32).collect()
            };
            let orders = self.block_orders(set.chain, memo);
            proc_order
                .into_iter()
                .flat_map(|p| orders[p as usize].iter().copied())
                .collect()
        };
        Layout { order }
    }
}

/// The reserved conflict-free-area size used whenever the CFA series is
/// built through the uniform series surface: 32 KiB, a quarter of the
/// evaluation's largest simulated instruction cache.
pub const CFA_RESERVED_BYTES: u64 = 32 * 1024;

/// Weighted edges between segments: inter-segment flow edges plus call
/// edges mapped to the callee's entry segment.
pub(crate) fn segment_edges(
    program: &Program,
    profile: &Profile,
    segs: &[Segment],
) -> Vec<(u32, u32, u64)> {
    let mut seg_of = vec![u32::MAX; program.blocks.len()];
    for (si, s) in segs.iter().enumerate() {
        for &b in &s.blocks {
            seg_of[b.index()] = si as u32;
        }
    }
    let mut edges = Vec::new();
    for (&(from, to), &c) in &profile.edge_counts {
        let (sf, st) = (seg_of[from as usize], seg_of[to as usize]);
        if sf != st && sf != u32::MAX && st != u32::MAX && c > 0 {
            edges.push((sf, st, c));
        }
    }
    for (&(from_block, callee), &c) in &profile.call_counts {
        let sf = seg_of[from_block as usize];
        let entry = program.proc(ProcId(callee)).entry;
        let st = seg_of[entry.index()];
        if sf != st && sf != u32::MAX && st != u32::MAX && c > 0 {
            edges.push((sf, st, c));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{verify_layout, Cond, Operand, ProcBuilder, ProgramBuilder, Reg};

    /// Three procedures: main calls a (hot) and b (cold); a has a hot/cold
    /// diamond.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("p");
        let main = pb.declare_proc("main");
        let pa = pb.declare_proc("a");
        let z = pb.declare_proc("z_cold");

        let mut f = ProcBuilder::new();
        f.call(pa).call(z);
        f.halt();
        pb.define_proc(main, f).unwrap();

        let mut g = ProcBuilder::new();
        let e = g.entry();
        let hot = g.new_block();
        let cold = g.new_block();
        let out = g.new_block();
        g.select(e);
        g.branch(Cond::Eq, Reg(1), Operand::Imm(0), hot, cold);
        g.select(hot);
        g.nop();
        g.jump(out);
        g.select(cold);
        g.nop();
        g.jump(out);
        g.select(out);
        g.ret();
        pb.define_proc(pa, g).unwrap();

        let mut h = ProcBuilder::new();
        h.nop();
        h.ret();
        pb.define_proc(z, h).unwrap();

        pb.finish(main).unwrap()
    }

    fn profile(p: &Program) -> Profile {
        // Blocks: 0 = main, 1..=4 = a (entry,hot,cold,out), 5 = z.
        let mut prof = Profile::new(p.blocks.len());
        prof.block_counts = vec![1000, 1000, 990, 10, 1000, 0];
        prof.edge_counts.insert((1, 2), 990);
        prof.edge_counts.insert((1, 3), 10);
        prof.edge_counts.insert((2, 4), 990);
        prof.edge_counts.insert((3, 4), 10);
        prof.call_counts.insert((0, 1), 1000);
        prof
    }

    #[test]
    fn every_preset_yields_a_valid_layout() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        for (name, set) in OptimizationSet::paper_series() {
            let layout = pipe.build_series(set.into());
            verify_layout(&p, &layout).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(set.to_string(), name);
        }
    }

    #[test]
    fn base_is_natural() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        assert_eq!(
            pipe.build_series(OptimizationSet::BASE.into()),
            Layout::natural(&p)
        );
    }

    #[test]
    fn chain_puts_hot_arm_on_fallthrough() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        let l = pipe.build_series(OptimizationSet::CHAIN.into());
        let pos: Vec<usize> = {
            let mut v = vec![0; p.blocks.len()];
            for (i, b) in l.order.iter().enumerate() {
                v[b.index()] = i;
            }
            v
        };
        // a's entry (1) falls into hot (2) falls into out (4).
        assert_eq!(pos[2], pos[1] + 1);
        assert_eq!(pos[4], pos[2] + 1);
    }

    #[test]
    fn split_without_porder_leaves_placement_unchanged() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        // Splitting alone only creates flexibility for the ordering pass;
        // the layout equals the chained layout (paper §4.1).
        assert_eq!(
            pipe.build_series(OptimizationSet::CHAIN_SPLIT.into()),
            pipe.build_series(OptimizationSet::CHAIN.into())
        );
    }

    #[test]
    fn all_places_caller_next_to_callee_entry() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        let l = pipe.build_series(OptimizationSet::ALL.into());
        let pos: Vec<usize> = {
            let mut v = vec![0; p.blocks.len()];
            for (i, b) in l.order.iter().enumerate() {
                v[b.index()] = i;
            }
            v
        };
        // main (block 0) and a's entry segment head (block 1) should end up
        // adjacent segments under PH with the 1000-weight call edge.
        assert!(pos[0].abs_diff(pos[1]) <= 2, "order: {:?}", l.order);
        // Cold z still last.
        assert_eq!(*l.order.last().unwrap(), BlockId(5));
    }

    #[test]
    fn default_params_reproduce_every_series() {
        let p = program();
        let prof = profile(&p);
        let legacy = LayoutPipeline::new(&p, &prof);
        let parameterized = LayoutPipeline::with_params(&p, &prof, LayoutParams::default());
        for series in LayoutSeries::all() {
            assert_eq!(
                legacy.build_series(series),
                parameterized.build_series(series),
                "{series} diverged under default params"
            );
        }
    }

    #[test]
    fn non_default_params_reach_the_passes() {
        let p = program();
        let prof = profile(&p);
        // A chain threshold above every edge weight suppresses all
        // chaining, which must change the `all` layout for this profile.
        let params = LayoutParams {
            chain: crate::ChainParams {
                min_edge_weight: 100_000,
            },
            ..LayoutParams::default()
        };
        let tuned = LayoutPipeline::with_params(&p, &prof, params);
        let legacy = LayoutPipeline::new(&p, &prof);
        assert_ne!(
            tuned.build_series(OptimizationSet::CHAIN.into()),
            legacy.build_series(OptimizationSet::CHAIN.into())
        );
        verify_layout(&p, &tuned.build_series(LayoutSeries::Stitcher)).unwrap();
    }

    #[test]
    fn segment_edges_cross_segments_only() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        let segs = pipe.segments(true);
        let edges = segment_edges(&p, &prof, &segs);
        for (a, b, w) in &edges {
            assert_ne!(a, b);
            assert!(*w > 0);
        }
        // The call edge main->a must be present.
        let mut seg_of = vec![u32::MAX; p.blocks.len()];
        for (si, s) in segs.iter().enumerate() {
            for bl in &s.blocks {
                seg_of[bl.index()] = si as u32;
            }
        }
        assert!(edges
            .iter()
            .any(|&(a, b, _)| a == seg_of[0] && b == seg_of[1]));
    }
}
