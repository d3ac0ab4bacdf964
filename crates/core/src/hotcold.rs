//! Hot/cold procedure splitting — the splitting algorithm shipped in the
//! Spike distribution, which the paper contrasts with its fine-grain
//! splitting (§2: "The latter algorithm only splits a procedure into a hot
//! and a cold part based on the relative execution frequency of the basic
//! blocks within the procedure").
//!
//! Provided as an ablation baseline: chaining, then each procedure is cut
//! into at most two parts (hot = executed blocks, cold = never-executed
//! blocks), hot parts are Pettis–Hansen ordered, cold parts sink to the end
//! of the image.

use crate::memo::LayoutMemo;
use crate::params::LayoutParams;
use codelayout_ir::{BlockId, Layout, Program};
use codelayout_profile::Profile;

/// Builds a layout using chaining + hot/cold splitting + procedure
/// ordering: `chain` shapes the per-procedure orders,
/// `hotcold.hot_threshold` sets the execution count above which a block
/// counts as hot.
pub fn hot_cold_layout(program: &Program, profile: &Profile, params: &LayoutParams) -> Layout {
    hot_cold_with(&mut LayoutMemo::new(program, profile), params)
}

/// [`hot_cold_layout`], reading the chain orders and the procedure
/// placement from `memo`.
pub(crate) fn hot_cold_with(memo: &mut LayoutMemo<'_>, params: &LayoutParams) -> Layout {
    let _span = codelayout_obs::span("hotcold");
    let (program, profile) = (memo.program(), memo.profile());
    let nprocs = program.procs.len();
    let threshold = params.hotcold.hot_threshold;

    let mut hot: Vec<Vec<BlockId>> = Vec::with_capacity(nprocs);
    let mut cold: Vec<Vec<BlockId>> = Vec::with_capacity(nprocs);
    for order in memo.chain_orders(&params.chain) {
        let (h, c): (Vec<BlockId>, Vec<BlockId>) = order
            .iter()
            .partition(|&&b| profile.block_count(b) > threshold);
        hot.push(h);
        cold.push(c);
    }

    let proc_order = memo.placement();
    let mut out: Vec<BlockId> = Vec::with_capacity(program.blocks.len());
    for &p in proc_order {
        out.extend(hot[p as usize].iter().copied());
    }
    for &p in proc_order {
        out.extend(cold[p as usize].iter().copied());
    }
    Layout { order: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{verify_layout, Cond, Operand, ProcBuilder, ProgramBuilder, Reg};

    fn program_with_cold_tail() -> Program {
        let mut pb = ProgramBuilder::new("hc");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let hot = f.new_block();
        let cold = f.new_block();
        f.select(e);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), hot, cold);
        f.select(hot);
        f.halt();
        f.select(cold);
        f.nop();
        f.halt();
        pb.define_proc(main, f).unwrap();
        pb.finish(main).unwrap()
    }

    #[test]
    fn cold_blocks_move_to_image_end() {
        let p = program_with_cold_tail();
        let mut prof = Profile::new(3);
        prof.block_counts = vec![10, 10, 0];
        prof.edge_counts.insert((0, 1), 10);
        let l = hot_cold_layout(&p, &prof, &LayoutParams::default());
        verify_layout(&p, &l).unwrap();
        assert_eq!(*l.order.last().unwrap(), BlockId(2));
        assert_eq!(l.order[0], BlockId(0));
    }

    #[test]
    fn fully_cold_program_is_still_complete() {
        let p = program_with_cold_tail();
        let prof = Profile::new(3);
        let l = hot_cold_layout(&p, &prof, &LayoutParams::default());
        verify_layout(&p, &l).unwrap();
    }

    #[test]
    fn raised_threshold_reclassifies_lukewarm_blocks() {
        // main: b0 (hot) falls into b1 (lukewarm); leaf: b2 (hot).
        let mut pb = ProgramBuilder::new("lk");
        let main = pb.declare_proc("main");
        let leaf = pb.declare_proc("leaf");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let luke = f.new_block();
        f.select(e);
        f.call(leaf);
        f.jump(luke);
        f.select(luke);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let mut g = ProcBuilder::new();
        g.nop();
        g.ret();
        pb.define_proc(leaf, g).unwrap();
        let p = pb.finish(main).unwrap();

        let mut prof = Profile::new(3);
        prof.block_counts = vec![100, 5, 100];
        prof.edge_counts.insert((0, 1), 5);
        prof.call_counts.insert((0, 1), 100);

        // Default threshold 0: the lukewarm b1 stays in main's hot part.
        let base = hot_cold_layout(&p, &prof, &LayoutParams::default());
        verify_layout(&p, &base).unwrap();
        // Threshold 8: b1 is reclassified cold and sinks behind leaf.
        let params = LayoutParams {
            hotcold: crate::HotColdParams { hot_threshold: 8 },
            ..LayoutParams::default()
        };
        let tuned = hot_cold_layout(&p, &prof, &params);
        verify_layout(&p, &tuned).unwrap();
        assert_eq!(*tuned.order.last().unwrap(), BlockId(1));
        assert_ne!(base, tuned, "threshold 8 must move the lukewarm block");
    }
}
