//! Ergonomic builders for constructing programs.
//!
//! [`ProgramBuilder`] owns the growing program; procedures are first
//! *declared* (so bodies can reference forward procedures) and then
//! *defined* from a [`ProcBuilder`], which works with procedure-local block
//! handles that are resolved to arena-global [`BlockId`]s at install time.

use crate::error::IrError;
use crate::ids::{BlockId, LocalBlock, ProcId, Reg};
use crate::instr::{BinOp, Cond, Instr, MemSpace, Operand};
use crate::program::{BasicBlock, Procedure, Program, Terminator};
use crate::verify::verify_program;

/// Local terminator with procedure-local targets.
#[derive(Debug, Clone)]
enum LocalTerm {
    Jump(LocalBlock),
    Branch {
        cond: Cond,
        reg: Reg,
        rhs: Operand,
        then_: LocalBlock,
        else_: LocalBlock,
    },
    JumpTable {
        reg: Reg,
        targets: Vec<LocalBlock>,
        default: LocalBlock,
    },
    Return,
    Halt,
}

#[derive(Debug, Clone, Default)]
struct LocalBlockData {
    instrs: Vec<Instr>,
    term: Option<LocalTerm>,
}

/// Builds a single procedure out of local blocks.
///
/// The first block created (see [`ProcBuilder::entry`]) is the procedure
/// entry. Instructions are appended to the *selected* block; terminator
/// methods seal the selected block.
#[derive(Debug, Clone)]
pub struct ProcBuilder {
    blocks: Vec<LocalBlockData>,
    current: usize,
}

impl Default for ProcBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcBuilder {
    /// Creates an empty procedure builder with one (entry) block selected.
    pub fn new() -> Self {
        ProcBuilder {
            blocks: vec![LocalBlockData::default()],
            current: 0,
        }
    }

    /// Returns the entry block handle (always the first block).
    pub fn entry(&self) -> LocalBlock {
        LocalBlock(0)
    }

    /// Creates a new, unselected block and returns its handle.
    pub fn new_block(&mut self) -> LocalBlock {
        self.blocks.push(LocalBlockData::default());
        LocalBlock((self.blocks.len() - 1) as u32)
    }

    /// Selects the block that subsequent instructions are appended to.
    ///
    /// # Panics
    /// Panics if `b` does not belong to this builder.
    pub fn select(&mut self, b: LocalBlock) -> &mut Self {
        assert!(
            (b.0 as usize) < self.blocks.len(),
            "block {b:?} out of range"
        );
        self.current = b.0 as usize;
        self
    }

    /// Returns the number of blocks created so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn cur(&mut self) -> &mut LocalBlockData {
        &mut self.blocks[self.current]
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        debug_assert!(
            self.cur().term.is_none(),
            "appending to a sealed block {}",
            self.current
        );
        self.cur().instrs.push(i);
        self
    }

    /// Appends `dst = value`.
    pub fn imm(&mut self, dst: Reg, value: i64) -> &mut Self {
        self.push(Instr::Imm { dst, value })
    }

    /// Appends `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// Appends `dst = op(lhs, rhs)` with a register right operand.
    pub fn bin(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) -> &mut Self {
        self.push(Instr::Bin {
            op,
            dst,
            lhs,
            rhs: Operand::Reg(rhs),
        })
    }

    /// Appends `dst = op(lhs, imm)` with an immediate right operand.
    pub fn bin_imm(&mut self, op: BinOp, dst: Reg, lhs: Reg, imm: i64) -> &mut Self {
        self.push(Instr::Bin {
            op,
            dst,
            lhs,
            rhs: Operand::Imm(imm),
        })
    }

    /// Appends a load from an address space.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i32, space: MemSpace) -> &mut Self {
        self.push(Instr::Load {
            dst,
            base,
            offset,
            space,
        })
    }

    /// Appends a store to an address space.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i32, space: MemSpace) -> &mut Self {
        self.push(Instr::Store {
            src,
            base,
            offset,
            space,
        })
    }

    /// Appends an atomic read-modify-write: `dst = old mem value;
    /// mem = op(old, src)`.
    pub fn atomic_rmw(
        &mut self,
        op: BinOp,
        dst: Reg,
        base: Reg,
        offset: i32,
        src: Reg,
        space: MemSpace,
    ) -> &mut Self {
        self.push(Instr::AtomicRmw {
            op,
            dst,
            base,
            offset,
            src,
            space,
        })
    }

    /// Appends a procedure call.
    pub fn call(&mut self, callee: ProcId) -> &mut Self {
        self.push(Instr::Call { callee })
    }

    /// Appends a syscall with a service code.
    pub fn syscall(&mut self, code: u16) -> &mut Self {
        self.push(Instr::Syscall { code })
    }

    /// Appends an observable-output instruction.
    pub fn emit(&mut self, src: Reg) -> &mut Self {
        self.push(Instr::Emit { src })
    }

    /// Appends a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Appends `count` filler ALU instructions that mix `dst` with itself,
    /// modelling straight-line computation without changing control flow.
    pub fn work(&mut self, dst: Reg, count: usize) -> &mut Self {
        for k in 0..count {
            let op = match k % 4 {
                0 => BinOp::Add,
                1 => BinOp::Xor,
                2 => BinOp::Mul,
                _ => BinOp::Sub,
            };
            self.push(Instr::Bin {
                op,
                dst,
                lhs: dst,
                rhs: Operand::Imm((k as i64).wrapping_mul(0x9E37_79B9) | 1),
            });
        }
        self
    }

    fn seal(&mut self, t: LocalTerm) {
        let c = self.cur();
        debug_assert!(c.term.is_none(), "block {} already sealed", self.current);
        c.term = Some(t);
    }

    /// Seals the selected block with an unconditional jump.
    pub fn jump(&mut self, target: LocalBlock) {
        self.seal(LocalTerm::Jump(target));
    }

    /// Seals the selected block with a conditional branch.
    pub fn branch(
        &mut self,
        cond: Cond,
        reg: Reg,
        rhs: Operand,
        then_: LocalBlock,
        else_: LocalBlock,
    ) {
        self.seal(LocalTerm::Branch {
            cond,
            reg,
            rhs,
            then_,
            else_,
        });
    }

    /// Seals the selected block with a jump table.
    pub fn jump_table(&mut self, reg: Reg, targets: Vec<LocalBlock>, default: LocalBlock) {
        self.seal(LocalTerm::JumpTable {
            reg,
            targets,
            default,
        });
    }

    /// Seals the selected block with a return.
    pub fn ret(&mut self) {
        self.seal(LocalTerm::Return);
    }

    /// Seals the selected block with a halt.
    pub fn halt(&mut self) {
        self.seal(LocalTerm::Halt);
    }
}

/// Builds a whole [`Program`].
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
    procs: Vec<Option<Procedure>>,
    names: Vec<String>,
}

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            blocks: Vec::new(),
            procs: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Declares a procedure so its id can be used in call instructions
    /// before the body exists.
    pub fn declare_proc(&mut self, name: impl Into<String>) -> ProcId {
        self.procs.push(None);
        self.names.push(name.into());
        ProcId((self.procs.len() - 1) as u32)
    }

    /// Number of blocks installed so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Installs a body for a declared procedure, resolving local block
    /// handles to global ids.
    ///
    /// # Errors
    /// Returns an error if `id` is unknown or already defined, if any
    /// builder block lacks a terminator, or if a terminator references an
    /// out-of-range local block.
    pub fn define_proc(&mut self, id: ProcId, body: ProcBuilder) -> Result<(), IrError> {
        let slot = self
            .procs
            .get_mut(id.index())
            .ok_or(IrError::UnknownProc(id))?;
        if slot.is_some() {
            return Err(IrError::ProcDefinition(id, "defined twice"));
        }
        if body.blocks.is_empty() {
            return Err(IrError::EmptyProc(id));
        }
        let base = self.blocks.len() as u32;
        let n = body.blocks.len() as u32;
        let resolve = |l: LocalBlock| -> Result<BlockId, IrError> {
            if l.0 < n {
                Ok(BlockId(base + l.0))
            } else {
                Err(IrError::UnknownBlock(BlockId(base + l.0)))
            }
        };
        let mut ids = Vec::with_capacity(body.blocks.len());
        for (bi, lb) in body.blocks.into_iter().enumerate() {
            let term = match lb.term.ok_or(IrError::MissingTerminator(bi))? {
                LocalTerm::Jump(t) => Terminator::Jump(resolve(t)?),
                LocalTerm::Branch {
                    cond,
                    reg,
                    rhs,
                    then_,
                    else_,
                } => Terminator::Branch {
                    cond,
                    reg,
                    rhs,
                    then_: resolve(then_)?,
                    else_: resolve(else_)?,
                },
                LocalTerm::JumpTable {
                    reg,
                    targets,
                    default,
                } => Terminator::JumpTable {
                    reg,
                    targets: targets.into_iter().map(resolve).collect::<Result<_, _>>()?,
                    default: resolve(default)?,
                },
                LocalTerm::Return => Terminator::Return,
                LocalTerm::Halt => Terminator::Halt,
            };
            let gid = BlockId(base + bi as u32);
            ids.push(gid);
            self.blocks.push(BasicBlock::new(lb.instrs, term));
        }
        self.procs[id.index()] = Some(Procedure {
            name: self.names[id.index()].clone(),
            entry: ids[0],
            blocks: ids,
        });
        Ok(())
    }

    /// Finishes the program with the given entry procedure, validating all
    /// cross references.
    ///
    /// # Errors
    /// Returns an error if any declared procedure lacks a body, the entry is
    /// unknown, or validation (block ownership, call/branch targets) fails.
    pub fn finish(self, entry: ProcId) -> Result<Program, IrError> {
        let mut procs = Vec::with_capacity(self.procs.len());
        for (i, p) in self.procs.into_iter().enumerate() {
            procs.push(p.ok_or(IrError::ProcDefinition(ProcId(i as u32), "never defined"))?);
        }
        let program = Program {
            name: self.name,
            blocks: self.blocks,
            procs,
            entry,
        };
        verify_program(&program)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_proc_program() {
        let mut pb = ProgramBuilder::new("two");
        let main = pb.declare_proc("main");
        let callee = pb.declare_proc("callee");

        let mut f = ProcBuilder::new();
        let e = f.entry();
        let exit = f.new_block();
        f.select(e);
        f.imm(Reg(1), 7).call(callee);
        f.branch(Cond::Gt, Reg(1), Operand::Imm(0), exit, exit);
        f.select(exit);
        f.emit(Reg(1));
        f.halt();
        pb.define_proc(main, f).unwrap();

        let mut g = ProcBuilder::new();
        g.bin_imm(BinOp::Add, Reg(1), Reg(1), 1);
        g.ret();
        pb.define_proc(callee, g).unwrap();

        let p = pb.finish(main).unwrap();
        assert_eq!(p.procs.len(), 2);
        assert_eq!(p.blocks.len(), 3);
        assert_eq!(p.proc(main).entry, BlockId(0));
        assert_eq!(p.proc(callee).entry, BlockId(2));
    }

    #[test]
    fn undefined_proc_rejected() {
        let mut pb = ProgramBuilder::new("bad");
        let main = pb.declare_proc("main");
        let _ghost = pb.declare_proc("ghost");
        let mut f = ProcBuilder::new();
        f.halt();
        pb.define_proc(main, f).unwrap();
        assert!(matches!(
            pb.finish(main),
            Err(IrError::ProcDefinition(ProcId(1), _))
        ));
    }

    #[test]
    fn double_definition_rejected() {
        let mut pb = ProgramBuilder::new("dd");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        f.halt();
        pb.define_proc(main, f.clone()).unwrap();
        assert!(matches!(
            pb.define_proc(main, f),
            Err(IrError::ProcDefinition(_, _))
        ));
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut pb = ProgramBuilder::new("mt");
        let main = pb.declare_proc("main");
        let f = ProcBuilder::new(); // entry block never sealed
        assert!(matches!(
            pb.define_proc(main, f),
            Err(IrError::MissingTerminator(0))
        ));
    }

    #[test]
    fn bad_local_target_rejected() {
        let mut pb = ProgramBuilder::new("bt");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        f.jump(LocalBlock(9));
        assert!(matches!(
            pb.define_proc(main, f),
            Err(IrError::UnknownBlock(_))
        ));
    }

    #[test]
    fn work_generates_requested_count() {
        let mut f = ProcBuilder::new();
        f.work(Reg(2), 13);
        f.ret();
        assert_eq!(f.blocks[0].instrs.len(), 13);
    }
}
