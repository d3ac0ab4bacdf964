//! Fine-grain procedure splitting (paper §2, Fig. 1b).
//!
//! After chaining, a procedure's block sequence is cut into *segments* at
//! every unconditional control transfer (unconditional branch, table jump,
//! return, halt). Each segment is an independently placeable unit for the
//! follow-on procedure ordering; conditional branches never end a segment,
//! so a segment's interior keeps its fall-throughs regardless of where the
//! segment lands in memory.
//!
//! This is the paper's *fine-grain* splitting, which it contrasts with the
//! hot/cold splitting shipped in the Spike distribution (see
//! [`crate::hot_cold_layout`]).

use crate::params::SplitParams;
use codelayout_ir::{BlockId, ProcId, Program};
use codelayout_profile::Profile;

/// One placeable code segment: a run of blocks ending at an unconditional
/// transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Procedure the segment was cut from.
    pub proc: ProcId,
    /// Blocks of the segment, in order.
    pub blocks: Vec<BlockId>,
    /// True when the segment contains the procedure's entry block.
    pub is_entry: bool,
    /// Total profile count of the segment's blocks.
    pub weight: u64,
}

impl Segment {
    /// True when no block of the segment was ever executed.
    pub fn is_cold(&self) -> bool {
        self.weight == 0
    }

    /// First block of the segment (its "entry").
    pub fn head(&self) -> BlockId {
        self.blocks[0]
    }
}

/// Splits one procedure's (typically chained) block order into segments.
///
/// A cut happens after a block whose terminator never falls through *and*
/// whose (single) target is not the next block in the order: a `Jump` to
/// the adjacent block is a fall-through the linker will erase, so cutting
/// there would let the follow-on segment ordering separate two blocks that
/// currently execute back-to-back. [`SplitParams::cut_fallthrough_jumps`]
/// cuts after those jumps too.
pub fn split_order(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    order: &[BlockId],
    params: &SplitParams,
) -> Vec<Segment> {
    let entry = program.proc(proc).entry;
    let mut segments = Vec::new();
    let mut cur: Vec<BlockId> = Vec::new();
    for (pos, &b) in order.iter().enumerate() {
        cur.push(b);
        let term = &program.block(b).term;
        let cuts = match term {
            codelayout_ir::Terminator::Jump(t) => {
                params.cut_fallthrough_jumps || order.get(pos + 1) != Some(t)
            }
            _ => term.is_unconditional(),
        };
        if cuts {
            segments.push(make_segment(profile, proc, entry, std::mem::take(&mut cur)));
        }
    }
    if !cur.is_empty() {
        // A trailing run ending in a conditional branch (its arms are in
        // other segments); still a valid segment.
        segments.push(make_segment(profile, proc, entry, cur));
    }
    segments
}

fn make_segment(profile: &Profile, proc: ProcId, entry: BlockId, blocks: Vec<BlockId>) -> Segment {
    let weight = blocks.iter().map(|&b| profile.block_count(b)).sum();
    let is_entry = blocks.contains(&entry);
    Segment {
        proc,
        blocks,
        is_entry,
        weight,
    }
}

/// Splits every procedure of a program given per-procedure block orders
/// (for example from [`crate::chain_all`]). Returns all segments, in
/// procedure order then segment order.
pub fn split_all(
    program: &Program,
    profile: &Profile,
    orders: &[Vec<BlockId>],
    params: &SplitParams,
) -> Vec<Segment> {
    let mut out = Vec::new();
    for (pi, order) in orders.iter().enumerate() {
        out.extend(split_order(
            program,
            profile,
            ProcId(pi as u32),
            order,
            params,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{Cond, Operand, ProcBuilder, ProgramBuilder, Reg};

    /// b0: cond -> (b1,b2); b1: jump b3; b2: jump b3; b3: halt
    fn diamond() -> Program {
        let mut pb = ProgramBuilder::new("d");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let b0 = f.entry();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        f.select(b0);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), b1, b2);
        f.select(b1);
        f.jump(b3);
        f.select(b2);
        f.jump(b3);
        f.select(b3);
        f.halt();
        pb.define_proc(main, f).unwrap();
        pb.finish(main).unwrap()
    }

    #[test]
    fn cuts_after_unconditional_transfers_only() {
        let prog = diamond();
        let mut prof = Profile::new(4);
        prof.block_counts = vec![10, 9, 1, 10];
        let order = vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)];
        let segs = split_order(&prog, &prof, ProcId(0), &order, &SplitParams::default());
        // b0 ends in a conditional: stays glued to b1. b1 jumps to b3 which
        // is NOT next -> cut. b2 jumps to b3 which IS next -> fall-through,
        // no cut. b3 halts -> cut.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].blocks, vec![BlockId(0), BlockId(1)]);
        assert_eq!(segs[1].blocks, vec![BlockId(2), BlockId(3)]);
        assert!(segs[0].is_entry);
        assert!(!segs[1].is_entry);
        assert_eq!(segs[0].weight, 19);
        assert_eq!(segs[1].weight, 11);
        assert!(!segs[0].is_cold());
    }

    #[test]
    fn concatenation_preserves_order() {
        let prog = diamond();
        let prof = Profile::new(4);
        let order = vec![BlockId(3), BlockId(2), BlockId(0), BlockId(1)];
        let segs = split_order(&prog, &prof, ProcId(0), &order, &SplitParams::default());
        let flat: Vec<BlockId> = segs.iter().flat_map(|s| s.blocks.clone()).collect();
        assert_eq!(flat, order);
        assert!(segs.iter().all(Segment::is_cold));
    }

    #[test]
    fn trailing_conditional_makes_final_segment() {
        let prog = diamond();
        let prof = Profile::new(4);
        // Order ending with the conditional block b0.
        let order = vec![BlockId(1), BlockId(2), BlockId(3), BlockId(0)];
        let segs = split_order(&prog, &prof, ProcId(0), &order, &SplitParams::default());
        assert_eq!(segs.last().unwrap().blocks, vec![BlockId(0)]);
    }

    #[test]
    fn cut_fallthrough_jumps_frees_the_glued_pair() {
        let prog = diamond();
        let prof = Profile::new(4);
        let order = vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)];
        // Default: b2's jump to the adjacent b3 is a kept fall-through.
        assert_eq!(
            split_order(&prog, &prof, ProcId(0), &order, &SplitParams::default()).len(),
            2
        );
        // With the knob on, every unconditional jump cuts.
        let segs = split_order(
            &prog,
            &prof,
            ProcId(0),
            &order,
            &SplitParams {
                cut_fallthrough_jumps: true,
            },
        );
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[1].blocks, vec![BlockId(2)]);
    }

    #[test]
    fn split_all_covers_every_proc() {
        let prog = diamond();
        let prof = Profile::new(4);
        let orders = vec![prog.proc(ProcId(0)).blocks.clone()];
        let segs = split_all(&prog, &prof, &orders, &SplitParams::default());
        let total: usize = segs.iter().map(|s| s.blocks.len()).sum();
        assert_eq!(total, 4);
    }
}
