//! Source-level control-flow facts shared by the linter and the static
//! analyses.
//!
//! Everything here is derived from the [`Program`] alone — no layout, no
//! image. It is the same specification translation validation proves the
//! image against; the validator walks the program directly instead, so
//! that a validation allocates nothing per block.

use codelayout_ir::{BlockId, Instr, ProcId, Program};

/// The source control-flow graph at block granularity: terminator
/// successors and call edges, plus the static reachability closure.
#[derive(Debug, Clone)]
pub struct SourceCfg {
    /// Terminator successors of each block, deduplicated, in terminator
    /// order (indexed by [`BlockId`]).
    pub succs: Vec<Vec<BlockId>>,
    /// Procedures called from each block's body, in body order, one entry
    /// per call site (indexed by [`BlockId`]).
    pub calls: Vec<Vec<ProcId>>,
    /// Whether each block is statically reachable from the program entry,
    /// following terminator edges and call edges into procedure entries
    /// (indexed by [`BlockId`]).
    pub reachable: Vec<bool>,
}

impl SourceCfg {
    /// Extracts the CFG of a program.
    pub fn of(program: &Program) -> SourceCfg {
        let n = program.blocks.len();
        let mut succs: Vec<Vec<BlockId>> = Vec::with_capacity(n);
        let mut calls: Vec<Vec<ProcId>> = Vec::with_capacity(n);
        for b in &program.blocks {
            let mut s: Vec<BlockId> = Vec::new();
            for t in b.term.successors() {
                if !s.contains(&t) {
                    s.push(t);
                }
            }
            succs.push(s);
            calls.push(
                b.instrs
                    .iter()
                    .filter_map(|i| match i {
                        Instr::Call { callee } => Some(*callee),
                        _ => None,
                    })
                    .collect(),
            );
        }

        // Reachability: a block reaches its terminator successors, and the
        // entry block of every procedure it calls. Calls return into the
        // same block, so the block's own successors stay reachable
        // regardless of what the callee does.
        let mut reachable = vec![false; n];
        let entry = program.proc(program.entry).entry;
        let mut work = vec![entry];
        reachable[entry.index()] = true;
        while let Some(b) = work.pop() {
            let i = b.index();
            for &t in &succs[i] {
                if !reachable[t.index()] {
                    reachable[t.index()] = true;
                    work.push(t);
                }
            }
            for &callee in &calls[i] {
                let e = program.proc(callee).entry;
                if !reachable[e.index()] {
                    reachable[e.index()] = true;
                    work.push(e);
                }
            }
        }

        SourceCfg {
            succs,
            calls,
            reachable,
        }
    }

    /// Number of statically reachable blocks.
    pub fn reachable_count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{Cond, Operand, ProcBuilder, ProgramBuilder, Reg};

    /// main: b0 branch (b1, b2); b1 -> b3; b2 -> b3; b3 calls leaf, halts.
    /// dead: b5 (never called).
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("cfg");
        let main = pb.declare_proc("main");
        let leaf = pb.declare_proc("leaf");
        let dead = pb.declare_proc("dead");

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
        f.call(leaf);
        f.halt();
        pb.define_proc(main, f).unwrap();

        let mut g = ProcBuilder::new();
        g.nop();
        g.ret();
        pb.define_proc(leaf, g).unwrap();

        let mut h = ProcBuilder::new();
        h.nop();
        h.ret();
        pb.define_proc(dead, h).unwrap();

        pb.finish(main).unwrap()
    }

    #[test]
    fn successors_and_calls() {
        let p = program();
        let cfg = SourceCfg::of(&p);
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.succs[1], vec![BlockId(3)]);
        assert_eq!(cfg.succs[3], Vec::<BlockId>::new());
        assert_eq!(cfg.calls[3], vec![ProcId(1)]);
        assert!(cfg.calls[0].is_empty());
    }

    #[test]
    fn reachability_follows_calls_but_not_dead_procs() {
        let p = program();
        let cfg = SourceCfg::of(&p);
        // main's four blocks + leaf's block reachable; dead proc is not.
        assert_eq!(cfg.reachable_count(), 5);
        assert!(cfg.reachable[4], "leaf entry reachable through call");
        assert!(!cfg.reachable[5], "dead proc not reachable");
    }

    #[test]
    fn duplicate_successors_are_deduplicated() {
        let mut pb = ProgramBuilder::new("dup");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let b0 = f.entry();
        let b1 = f.new_block();
        f.select(b0);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), b1, b1);
        f.select(b1);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let p = pb.finish(main).unwrap();
        let cfg = SourceCfg::of(&p);
        assert_eq!(cfg.succs[0], vec![BlockId(1)]);
    }
}
