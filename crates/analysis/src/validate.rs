//! Translation validation: prove a linked [`Image`] is a faithful
//! lowering of its source [`Program`] under a [`Layout`].
//!
//! The validator is an abstract walker over the image. It decodes every
//! instruction of every block region, maps each region back to its source
//! [`BlockId`] (via the image's attribution tables, which it first
//! cross-checks against the layout), reconstructs the image-level CFG —
//! fall-throughs, inverted conditional branches, eliminated unconditional
//! branches, split conditional encodings, jump tables, calls — and proves
//! it equivalent to the source CFG.
//!
//! Equivalence here is stronger than edge-*set* equality: a conditional
//! branch whose arms were swapped without inverting the predicate has the
//! same successor set but the opposite polarity, so the validator checks
//! the *semantic* mapping: the taken arm must be reached exactly when the
//! source predicate (or its explicit inversion) holds. This is what makes
//! the pass a translation validator rather than a structural linter: any
//! divergence is a hard [`ValidationError`] naming the offending block and
//! edge.

use codelayout_ir::{
    verify_layout, BlockId, Image, Instr, LInstr, Layout, ProcId, Program, Terminator,
};
use std::fmt;

/// A divergence between the source program and the linked image.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The layout failed structural verification before walking.
    BadLayout(String),
    /// An image attribution table disagrees with the program/layout.
    BadAttribution(String),
    /// A procedure's entry index does not point at its entry block.
    ProcEntryMismatch {
        /// The procedure.
        proc: ProcId,
        /// Index recorded in the image.
        image_entry: u32,
        /// Index the entry block actually starts at.
        block_start: u32,
    },
    /// A block region is too short to hold its body.
    TruncatedBlock {
        /// The block.
        block: BlockId,
        /// Instructions available in the region.
        region: usize,
        /// Source body instructions.
        body: usize,
    },
    /// A body instruction does not match its source counterpart.
    BodyMismatch {
        /// The block.
        block: BlockId,
        /// Offset of the instruction within the block body.
        offset: usize,
        /// The source instruction.
        expected: String,
        /// The lowered instruction found.
        found: String,
    },
    /// A call site targets something other than the callee's entry.
    CallTargetMismatch {
        /// The calling block.
        block: BlockId,
        /// The callee.
        callee: ProcId,
        /// Entry index the callee starts at.
        expected: u32,
        /// Target encoded in the image.
        found: u32,
    },
    /// A control transfer lands in the middle of a block.
    JumpIntoMiddle {
        /// The transferring block.
        block: BlockId,
        /// The bogus target instruction index.
        target: u32,
        /// The block that owns the target index.
        lands_in: BlockId,
    },
    /// The terminator encoding does not realize the source terminator.
    TerminatorMismatch {
        /// The block.
        block: BlockId,
        /// The source terminator, rendered.
        expected: String,
        /// What the image region ends with, rendered.
        found: String,
    },
    /// A conditional branch has the right successor set but the wrong
    /// polarity: the taken/fall-through arms are swapped relative to the
    /// encoded predicate. This is the classic chaining bug.
    BranchPolarity {
        /// The branching block.
        block: BlockId,
        /// Arm the source takes when the predicate holds.
        then_: BlockId,
        /// Arm the source takes otherwise.
        else_: BlockId,
        /// Block the image branches to when the encoded predicate holds.
        taken: BlockId,
        /// Block the image falls through to (or reaches via a trailing
        /// unconditional branch).
        fallthrough: BlockId,
    },
    /// The reconstructed successor edges of a block differ from the
    /// source terminator's successors.
    EdgeMismatch {
        /// The block.
        block: BlockId,
        /// Source successors.
        expected: Vec<BlockId>,
        /// Successors reconstructed from the image.
        found: Vec<BlockId>,
    },
    /// Image-level reachability disagrees with source-level reachability.
    ReachabilityDivergence {
        /// The block that is reachable on exactly one side.
        block: BlockId,
        /// Reachable in the source CFG.
        in_source: bool,
        /// Reachable in the reconstructed image CFG.
        in_image: bool,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::BadLayout(m) => write!(f, "layout rejected before walking: {m}"),
            ValidationError::BadAttribution(m) => write!(f, "image attribution broken: {m}"),
            ValidationError::ProcEntryMismatch {
                proc,
                image_entry,
                block_start,
            } => write!(
                f,
                "procedure {proc} entry index {image_entry} does not match its entry block start {block_start}"
            ),
            ValidationError::TruncatedBlock {
                block,
                region,
                body,
            } => write!(
                f,
                "block {block} region holds {region} instructions but the source body has {body}"
            ),
            ValidationError::BodyMismatch {
                block,
                offset,
                expected,
                found,
            } => write!(
                f,
                "block {block} body instruction {offset}: expected lowering of `{expected}`, found `{found}`"
            ),
            ValidationError::CallTargetMismatch {
                block,
                callee,
                expected,
                found,
            } => write!(
                f,
                "call in block {block} to {callee} targets index {found}, entry is {expected}"
            ),
            ValidationError::JumpIntoMiddle {
                block,
                target,
                lands_in,
            } => write!(
                f,
                "transfer from block {block} targets index {target}, which is inside {lands_in}, not at a block start"
            ),
            ValidationError::TerminatorMismatch {
                block,
                expected,
                found,
            } => write!(
                f,
                "block {block} terminator `{expected}` was lowered as `{found}`"
            ),
            ValidationError::BranchPolarity {
                block,
                then_,
                else_,
                taken,
                fallthrough,
            } => write!(
                f,
                "block {block} branch polarity corrupted: source arms are then={then_} else={else_}, \
                 but the image takes edge {block}->{taken} when the encoded predicate holds and \
                 falls through on edge {block}->{fallthrough}"
            ),
            ValidationError::EdgeMismatch {
                block,
                expected,
                found,
            } => write!(
                f,
                "block {block} successor edges diverge: source {expected:?}, image {found:?}"
            ),
            ValidationError::ReachabilityDivergence {
                block,
                in_source,
                in_image,
            } => write!(
                f,
                "block {block} reachability diverges: source={in_source}, image={in_image}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Statistics from a successful validation walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationReport {
    /// Blocks walked (always the whole program).
    pub blocks: usize,
    /// Body instructions matched one-to-one against the source.
    pub body_instrs: usize,
    /// Terminator successor edges proven equivalent.
    pub edges: usize,
    /// Call sites whose targets were proven to be procedure entries.
    pub calls: usize,
    /// Unconditional transfers realized as free fall-throughs.
    pub fallthroughs: usize,
    /// Conditional branches encoded with an inverted predicate.
    pub inverted_branches: usize,
    /// Conditional branches needing a trailing unconditional branch.
    pub split_branches: usize,
    /// Blocks statically reachable (identical in source and image).
    pub reachable_blocks: usize,
}

/// How one block's control leaves it in the image, reconstructed by the
/// walker. Jump-table targets are borrowed from the source terminator:
/// the decoder proves every encoded entry equal to its source target.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ImageExit<'p> {
    /// Falls off the end of the region into the next block.
    FallThrough(BlockId),
    /// Unconditional branch to a block.
    Branch(BlockId),
    /// Conditional branch: taken target + fall-through (or trailing
    /// unconditional) target, with whether the predicate was inverted.
    Cond {
        taken: BlockId,
        other: BlockId,
        inverted: bool,
        split: bool,
    },
    /// Jump table: in-range targets, then the default.
    Table(&'p [BlockId], BlockId),
    /// Return or halt: no successors.
    Stop,
}

impl ImageExit<'_> {
    /// The exit's successor edges, in encoding order, without allocating.
    fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (head, last): (&[BlockId], Option<BlockId>) = match self {
            ImageExit::FallThrough(t) | ImageExit::Branch(t) => (std::slice::from_ref(t), None),
            ImageExit::Cond { taken, other, .. } => (std::slice::from_ref(taken), Some(*other)),
            ImageExit::Table(targets, default) => (targets, Some(*default)),
            ImageExit::Stop => (&[], None),
        };
        head.iter().copied().chain(last)
    }
}

/// Validates that `image` is a faithful lowering of `program` under
/// `layout`.
///
/// # Errors
/// Returns the first divergence found, naming the offending block and
/// edge. A passing result is a proof that every reachable control path of
/// the image corresponds to the identical path of the source CFG.
pub fn validate_translation(
    program: &Program,
    layout: &Layout,
    image: &Image,
) -> Result<TranslationReport, ValidationError> {
    verify_layout(program, layout).map_err(|e| ValidationError::BadLayout(e.to_string()))?;
    let n = program.blocks.len();
    check_attribution(program, layout, image)?;

    // Region bounds per block, in layout order.
    let mut region_end = vec![0u32; n];
    for (pos, &b) in layout.order.iter().enumerate() {
        let end = match layout.order.get(pos + 1) {
            Some(&nb) => image.block_start[nb.index()],
            None => u32::try_from(image.code.len()).expect("image verified < 2^32"),
        };
        region_end[b.index()] = end;
    }
    let owner_of = |idx: u32| image.block_of[idx as usize];

    let mut report = TranslationReport {
        blocks: n,
        ..TranslationReport::default()
    };
    let mut exits: Vec<Option<ImageExit>> = vec![None; n];
    // The current block's source successors (deduplicated, in terminator
    // order) and its image successor set (sorted), reused across blocks:
    // the walk allocates nothing per block.
    let (mut expected, mut found_set) = (Vec::new(), Vec::new());

    for (pos, &b) in layout.order.iter().enumerate() {
        let blk = program.block(b);
        let start = image.block_start[b.index()] as usize;
        let end = region_end[b.index()] as usize;
        let region = &image.code[start..end];
        let next = layout.order.get(pos + 1).copied();

        // 1. Body equivalence, instruction by instruction.
        if region.len() < blk.instrs.len() {
            return Err(ValidationError::TruncatedBlock {
                block: b,
                region: region.len(),
                body: blk.instrs.len(),
            });
        }
        for (off, (src, got)) in blk.instrs.iter().zip(region).enumerate() {
            body_equivalent(program, image, b, off, src, got)?;
            if let Instr::Call { .. } = src {
                report.calls += 1;
            }
        }
        report.body_instrs += blk.instrs.len();

        // 2. Terminator realization.
        let tail = &region[blk.instrs.len()..];
        let exit = decode_exit(image, b, &blk.term, tail, next, &mut report)?;

        // 3. Edge-set equivalence against the source CFG.
        expected.clear();
        for t in blk.term.successors() {
            if !expected.contains(&t) {
                expected.push(t);
            }
        }
        found_set.clear();
        found_set.extend(exit.successors());
        found_set.sort_unstable();
        found_set.dedup();
        let same_set = found_set.len() == expected.len()
            && expected.iter().all(|t| found_set.binary_search(t).is_ok());
        if !same_set {
            let mut found: Vec<BlockId> = exit.successors().collect();
            found.dedup();
            return Err(ValidationError::EdgeMismatch {
                block: b,
                expected: expected.clone(),
                found,
            });
        }
        report.edges += expected.len();
        exits[b.index()] = Some(exit);
    }

    // 4. Reachability equivalence: walk the reconstructed image CFG and
    // the source CFG the same way (successors + call entries) and require
    // the identical block set.
    let image_reach = reachable(program, owner_of(image.entry), |b| {
        exits[b.index()]
            .as_ref()
            .expect("all blocks decoded")
            .successors()
    });
    let source_reach = reachable(program, program.proc(program.entry).entry, |b| {
        program.block(b).term.successors()
    });
    for (i, (&in_image, &in_source)) in image_reach.iter().zip(&source_reach).enumerate() {
        if in_image != in_source {
            return Err(ValidationError::ReachabilityDivergence {
                block: BlockId(u32::try_from(i).expect("verified")),
                in_source,
                in_image,
            });
        }
    }
    report.reachable_blocks = source_reach.iter().filter(|&&r| r).count();
    Ok(report)
}

/// The blocks reachable from `entry` over `succs` and call edges: a block
/// reaches its successors and the entry block of every procedure its body
/// calls (the same closure as [`SourceCfg`](crate::SourceCfg) computes).
fn reachable<I: Iterator<Item = BlockId>>(
    program: &Program,
    entry: BlockId,
    succs: impl Fn(BlockId) -> I,
) -> Vec<bool> {
    let mut reach = vec![false; program.blocks.len()];
    let mut work = vec![entry];
    reach[entry.index()] = true;
    while let Some(b) = work.pop() {
        let callees = program.block(b).instrs.iter().filter_map(|i| match i {
            Instr::Call { callee } => Some(program.proc(*callee).entry),
            _ => None,
        });
        for t in succs(b).chain(callees) {
            if !reach[t.index()] {
                reach[t.index()] = true;
                work.push(t);
            }
        }
    }
    reach
}

/// Decodes one block's exit and proves it realizes the source terminator.
fn decode_exit<'p>(
    image: &Image,
    b: BlockId,
    term: &'p Terminator,
    tail: &[LInstr],
    next: Option<BlockId>,
    report: &mut TranslationReport,
) -> Result<ImageExit<'p>, ValidationError> {
    let start_of = |t: BlockId| image.block_start[t.index()];
    // Maps an encoded target index to the block it must start; a target
    // inside a block is corruption.
    let block_at = |target: u32| -> Result<BlockId, ValidationError> {
        let lands_in = image.block_of[target as usize];
        if start_of(lands_in) == target {
            Ok(lands_in)
        } else {
            Err(ValidationError::JumpIntoMiddle {
                block: b,
                target,
                lands_in,
            })
        }
    };
    let mismatch = |found: &str| ValidationError::TerminatorMismatch {
        block: b,
        expected: render_term(term),
        found: found.to_string(),
    };

    match term {
        Terminator::Jump(t) => match tail {
            [] => {
                // Eliminated unconditional: the target must be the next
                // block in the layout.
                let next = next.ok_or_else(|| mismatch("fall-through off the end of the image"))?;
                if next != *t {
                    return Err(ValidationError::EdgeMismatch {
                        block: b,
                        expected: vec![*t],
                        found: vec![next],
                    });
                }
                report.fallthroughs += 1;
                Ok(ImageExit::FallThrough(*t))
            }
            [LInstr::Br { target }] => {
                let dest = block_at(*target)?;
                if dest != *t {
                    return Err(ValidationError::EdgeMismatch {
                        block: b,
                        expected: vec![*t],
                        found: vec![dest],
                    });
                }
                Ok(ImageExit::Branch(dest))
            }
            _ => Err(mismatch(&render_tail(tail))),
        },
        Terminator::Branch {
            cond,
            reg,
            rhs,
            then_,
            else_,
        } => {
            let (icond, ireg, irhs, target, other, split) = match tail {
                [LInstr::BrCond {
                    cond: c,
                    reg: r,
                    rhs: o,
                    target,
                }] => {
                    let ft = next
                        .ok_or_else(|| mismatch("conditional branch with no fall-through block"))?;
                    (*c, *r, *o, block_at(*target)?, ft, false)
                }
                [LInstr::BrCond {
                    cond: c,
                    reg: r,
                    rhs: o,
                    target,
                }, LInstr::Br { target: t2 }] => {
                    (*c, *r, *o, block_at(*target)?, block_at(*t2)?, true)
                }
                _ => return Err(mismatch(&render_tail(tail))),
            };
            if ireg != *reg || irhs != *rhs {
                return Err(mismatch(&format!(
                    "conditional on {ireg} (source compares {reg})"
                )));
            }
            // Polarity proof: the taken arm must be `then_` under the
            // source predicate, or `else_` under its explicit inversion.
            let inverted = if icond == *cond {
                false
            } else if icond == cond.invert() {
                true
            } else {
                return Err(mismatch(&format!(
                    "predicate {icond:?} is neither {cond:?} nor its inversion"
                )));
            };
            let (want_taken, want_other) = if inverted {
                (*else_, *then_)
            } else {
                (*then_, *else_)
            };
            if target != want_taken || other != want_other {
                return Err(ValidationError::BranchPolarity {
                    block: b,
                    then_: *then_,
                    else_: *else_,
                    taken: target,
                    fallthrough: other,
                });
            }
            if inverted {
                report.inverted_branches += 1;
            }
            if split {
                report.split_branches += 1;
            }
            Ok(ImageExit::Cond {
                taken: target,
                other,
                inverted,
                split,
            })
        }
        Terminator::JumpTable {
            reg,
            targets,
            default,
        } => match tail {
            [LInstr::JmpTbl {
                reg: r,
                table,
                default: d,
            }] => {
                if r != reg {
                    return Err(mismatch(&format!(
                        "table indexed by {r} (source uses {reg})"
                    )));
                }
                if table.len() != targets.len() {
                    return Err(mismatch(&format!(
                        "table with {} entries (source has {})",
                        table.len(),
                        targets.len()
                    )));
                }
                for (&enc, &src) in table.iter().zip(targets) {
                    let dest = block_at(enc)?;
                    if dest != src {
                        return Err(ValidationError::EdgeMismatch {
                            block: b,
                            expected: vec![src],
                            found: vec![dest],
                        });
                    }
                }
                let dd = block_at(*d)?;
                if dd != *default {
                    return Err(ValidationError::EdgeMismatch {
                        block: b,
                        expected: vec![*default],
                        found: vec![dd],
                    });
                }
                Ok(ImageExit::Table(targets, dd))
            }
            _ => Err(mismatch(&render_tail(tail))),
        },
        Terminator::Return => match tail {
            [LInstr::Ret] => Ok(ImageExit::Stop),
            _ => Err(mismatch(&render_tail(tail))),
        },
        Terminator::Halt => match tail {
            [LInstr::Halt] => Ok(ImageExit::Stop),
            _ => Err(mismatch(&render_tail(tail))),
        },
    }
}

/// Cross-checks the image's attribution tables against program + layout.
fn check_attribution(
    program: &Program,
    layout: &Layout,
    image: &Image,
) -> Result<(), ValidationError> {
    let n = program.blocks.len();
    let bad = |m: String| Err(ValidationError::BadAttribution(m));
    if image.block_start.len() != n {
        return bad(format!(
            "block_start has {} entries for {} blocks",
            image.block_start.len(),
            n
        ));
    }
    if image.block_of.len() != image.code.len() {
        return bad(format!(
            "block_of covers {} of {} instructions",
            image.block_of.len(),
            image.code.len()
        ));
    }
    if image.proc_entry.len() != program.procs.len() {
        return bad(format!(
            "proc_entry has {} entries for {} procedures",
            image.proc_entry.len(),
            program.procs.len()
        ));
    }
    // Starts strictly increase along the layout and attribute to the
    // owning block.
    let mut prev: Option<u32> = None;
    for &b in &layout.order {
        let s = image.block_start[b.index()];
        if (s as usize) >= image.code.len() {
            return bad(format!("block {b} starts at {s}, beyond the image"));
        }
        if let Some(p) = prev {
            if s <= p {
                return bad(format!("block {b} starts at {s}, not after {p}"));
            }
        }
        if image.block_of[s as usize] != b {
            return bad(format!(
                "instruction {s} attributed to {}, expected {b}",
                image.block_of[s as usize]
            ));
        }
        prev = Some(s);
    }
    let owner = program.owner_of_blocks();
    if image.owner != owner {
        return bad("owner table disagrees with program procedures".to_string());
    }
    for (pi, p) in program.procs.iter().enumerate() {
        let expect = image.block_start[p.entry.index()];
        if image.proc_entry[pi] != expect {
            return Err(ValidationError::ProcEntryMismatch {
                proc: ProcId(u32::try_from(pi).expect("verified")),
                image_entry: image.proc_entry[pi],
                block_start: expect,
            });
        }
    }
    let program_entry = image.block_start[program.proc(program.entry).entry.index()];
    if image.entry != program_entry {
        return bad(format!(
            "image entry {} is not the program entry block start {program_entry}",
            image.entry
        ));
    }
    Ok(())
}

/// Proves one body instruction is the lowering of its source counterpart.
/// Deliberately *not* implemented by calling the linker's own lowering:
/// this is an independent statement of the correspondence.
fn body_equivalent(
    program: &Program,
    image: &Image,
    b: BlockId,
    off: usize,
    src: &Instr,
    got: &LInstr,
) -> Result<(), ValidationError> {
    let ok = match (src, got) {
        (Instr::Imm { dst, value }, LInstr::Imm { dst: d, value: v }) => dst == d && value == v,
        (Instr::Mov { dst, src }, LInstr::Mov { dst: d, src: s }) => dst == d && src == s,
        (
            Instr::Bin { op, dst, lhs, rhs },
            LInstr::Bin {
                op: o,
                dst: d,
                lhs: l,
                rhs: r,
            },
        ) => op == o && dst == d && lhs == l && rhs == r,
        (
            Instr::Load {
                dst,
                base,
                offset,
                space,
            },
            LInstr::Load {
                dst: d,
                base: ba,
                offset: of,
                space: sp,
            },
        ) => dst == d && base == ba && offset == of && space == sp,
        (
            Instr::Store {
                src,
                base,
                offset,
                space,
            },
            LInstr::Store {
                src: s,
                base: ba,
                offset: of,
                space: sp,
            },
        ) => src == s && base == ba && offset == of && space == sp,
        (
            Instr::AtomicRmw {
                op,
                dst,
                base,
                offset,
                src,
                space,
            },
            LInstr::AtomicRmw {
                op: o,
                dst: d,
                base: ba,
                offset: of,
                src: s,
                space: sp,
            },
        ) => op == o && dst == d && base == ba && offset == of && src == s && space == sp,
        (Instr::Call { callee }, LInstr::Call { callee: c, target }) if callee == c => {
            let expected = image.proc_entry[callee.index()];
            if *target != expected {
                return Err(ValidationError::CallTargetMismatch {
                    block: b,
                    callee: *callee,
                    expected,
                    found: *target,
                });
            }
            // The call must land on the callee's entry *block*.
            let entry_block = program.proc(*callee).entry;
            if image.block_start[entry_block.index()] != *target {
                return Err(ValidationError::CallTargetMismatch {
                    block: b,
                    callee: *callee,
                    expected: image.block_start[entry_block.index()],
                    found: *target,
                });
            }
            true
        }
        (Instr::Syscall { code }, LInstr::Syscall { code: c }) => code == c,
        (Instr::Emit { src }, LInstr::Emit { src: s }) => src == s,
        (Instr::Nop, LInstr::Nop) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(ValidationError::BodyMismatch {
            block: b,
            offset: off,
            expected: format!("{src:?}"),
            found: format!("{got:?}"),
        })
    }
}

fn render_term(t: &Terminator) -> String {
    match t {
        Terminator::Jump(t) => format!("jump {t}"),
        Terminator::Branch {
            cond, then_, else_, ..
        } => format!("branch {cond:?} ? {then_} : {else_}"),
        Terminator::JumpTable { targets, .. } => format!("jump-table[{}]", targets.len()),
        Terminator::Return => "return".to_string(),
        Terminator::Halt => "halt".to_string(),
    }
}

fn render_tail(tail: &[LInstr]) -> String {
    if tail.is_empty() {
        "fall-through (no terminator instruction)".to_string()
    } else {
        tail.iter()
            .map(|i| format!("{i:?}"))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_core::{LayoutPipeline, OptimizationSet};
    use codelayout_ir::link::link;
    use codelayout_ir::{Cond, Operand, ProcBuilder, ProgramBuilder, Reg};
    use codelayout_profile::Profile;

    /// main (b0) calls a and z; a = entry b1 branching to hot b2 / cold b3,
    /// both joining at b4; z = b5.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("tv");
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
        let mut prof = Profile::new(p.blocks.len());
        prof.block_counts = vec![1000, 1000, 990, 10, 1000, 0];
        prof.edge_counts.insert((1, 2), 990);
        prof.edge_counts.insert((1, 3), 10);
        prof.edge_counts.insert((2, 4), 990);
        prof.edge_counts.insert((3, 4), 10);
        prof.call_counts.insert((0, 1), 1000);
        prof
    }

    fn chained() -> (Program, Layout, Image) {
        let p = program();
        let prof = profile(&p);
        let layout = LayoutPipeline::new(&p, &prof).build(OptimizationSet::CHAIN);
        let image = link(&p, &layout, 0x1000).unwrap();
        (p, layout, image)
    }

    #[test]
    fn accepts_every_paper_series_layout() {
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        for (name, set) in OptimizationSet::paper_series() {
            let layout = pipe.build(set);
            let image = link(&p, &layout, 0x1000).unwrap();
            let report =
                validate_translation(&p, &layout, &image).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.blocks, p.blocks.len(), "{name}");
            assert_eq!(report.calls, 2, "{name}");
            assert_eq!(report.reachable_blocks, 6, "{name}");
            // b1's two branch arms + the two join jumps.
            assert_eq!(report.edges, 4, "{name}");
        }
    }

    #[test]
    fn reports_inversions_and_fallthroughs_for_chained_layout() {
        let (p, layout, image) = chained();
        let report = validate_translation(&p, &layout, &image).unwrap();
        // Chaining puts the hot arm (b2) right after b1, so the branch is
        // inverted, and b2 -> b4 becomes a free fall-through.
        assert!(report.inverted_branches >= 1);
        assert!(report.fallthroughs >= 1);
    }

    /// The acceptance-criteria test: swapping a conditional branch's
    /// targets after chaining — same successor *set*, wrong semantics —
    /// must be rejected with a diagnostic naming the bad edge.
    #[test]
    fn rejects_swapped_branch_targets_after_chaining() {
        let (p, layout, mut image) = chained();
        // b1's region is exactly its inverted BrCond (empty body). Retarget
        // it at the hot arm b2 instead of the cold arm b3: the edge set
        // {b2, b3} is unchanged, but the polarity is now corrupted.
        let at = image.block_start[1] as usize;
        match &mut image.code[at] {
            LInstr::BrCond { cond, target, .. } => {
                assert_eq!(*cond, Cond::Ne, "chaining inverted the branch");
                assert_eq!(*target, image.block_start[3]);
                *target = image.block_start[2];
            }
            other => panic!("expected BrCond at b1, got {other:?}"),
        }
        let err = validate_translation(&p, &layout, &image).unwrap_err();
        match &err {
            ValidationError::BranchPolarity {
                block,
                then_,
                else_,
                taken,
                ..
            } => {
                assert_eq!(*block, BlockId(1));
                assert_eq!(*then_, BlockId(2));
                assert_eq!(*else_, BlockId(3));
                assert_eq!(*taken, BlockId(2));
            }
            other => panic!("expected BranchPolarity, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("polarity"), "{msg}");
        assert!(
            msg.contains("b1->b2"),
            "diagnostic names the bad edge: {msg}"
        );
    }

    #[test]
    fn rejects_retargeted_unconditional_branch() {
        let p = program();
        let layout = Layout::natural(&p);
        let mut image = link(&p, &layout, 0x1000).unwrap();
        // In the natural layout b2 ends with `br b4` (b3 is next). Point it
        // at b5 instead.
        let at = image.block_start[3] as usize - 1;
        match &mut image.code[at] {
            LInstr::Br { target } => {
                assert_eq!(*target, image.block_start[4]);
                *target = image.block_start[5];
            }
            other => panic!("expected Br ending b2, got {other:?}"),
        }
        match validate_translation(&p, &layout, &image).unwrap_err() {
            ValidationError::EdgeMismatch {
                block,
                expected,
                found,
            } => {
                assert_eq!(block, BlockId(2));
                assert_eq!(expected, vec![BlockId(4)]);
                assert_eq!(found, vec![BlockId(5)]);
            }
            other => panic!("expected EdgeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_transfer_into_block_interior() {
        let (p, layout, mut image) = chained();
        // main's region (b0) is three instructions long; index start+1 is
        // mid-block.
        let mid = image.block_start[0] + 1;
        let at = image.block_start[1] as usize;
        match &mut image.code[at] {
            LInstr::BrCond { target, .. } => *target = mid,
            other => panic!("expected BrCond at b1, got {other:?}"),
        }
        match validate_translation(&p, &layout, &image).unwrap_err() {
            ValidationError::JumpIntoMiddle {
                block,
                target,
                lands_in,
            } => {
                assert_eq!(block, BlockId(1));
                assert_eq!(target, mid);
                assert_eq!(lands_in, BlockId(0));
            }
            other => panic!("expected JumpIntoMiddle, got {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupted_call_target() {
        let (p, layout, mut image) = chained();
        let at = image.block_start[0] as usize;
        match &mut image.code[at] {
            LInstr::Call { target, .. } => *target = image.block_start[5],
            other => panic!("expected Call at b0, got {other:?}"),
        }
        match validate_translation(&p, &layout, &image).unwrap_err() {
            ValidationError::CallTargetMismatch { block, callee, .. } => {
                assert_eq!(block, BlockId(0));
                assert_eq!(callee, ProcId(1));
            }
            other => panic!("expected CallTargetMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_rewritten_body_instruction() {
        let (p, layout, mut image) = chained();
        // b2's body is a single nop; replace it.
        let at = image.block_start[2] as usize;
        assert_eq!(image.code[at], LInstr::Nop);
        image.code[at] = LInstr::Imm {
            dst: Reg(1),
            value: 7,
        };
        match validate_translation(&p, &layout, &image).unwrap_err() {
            ValidationError::BodyMismatch { block, offset, .. } => {
                assert_eq!(block, BlockId(2));
                assert_eq!(offset, 0);
            }
            other => panic!("expected BodyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_broken_attribution_tables() {
        let (p, layout, mut image) = chained();
        image.proc_entry[2] = image.proc_entry[2].wrapping_add(1);
        assert!(matches!(
            validate_translation(&p, &layout, &image).unwrap_err(),
            ValidationError::ProcEntryMismatch {
                proc: ProcId(2),
                ..
            }
        ));

        let (_, _, mut image2) = chained();
        image2.entry = image2.block_start[5];
        assert!(matches!(
            validate_translation(&p, &layout, &image2).unwrap_err(),
            ValidationError::BadAttribution(_)
        ));
    }

    #[test]
    fn rejects_layout_image_disagreement() {
        // Validate a *different* layout than the one the image was linked
        // under: attribution cross-checks must catch it.
        let p = program();
        let prof = profile(&p);
        let pipe = LayoutPipeline::new(&p, &prof);
        let chained_layout = pipe.build(OptimizationSet::CHAIN);
        let image = link(&p, &Layout::natural(&p), 0x1000).unwrap();
        assert!(validate_translation(&p, &chained_layout, &image).is_err());
    }

    #[test]
    fn rejects_non_permutation_layout() {
        let (p, _, image) = chained();
        let bad = Layout {
            order: vec![BlockId(0); p.blocks.len()],
        };
        assert!(matches!(
            validate_translation(&p, &bad, &image).unwrap_err(),
            ValidationError::BadLayout(_)
        ));
    }

    #[test]
    fn validates_jump_tables_elementwise() {
        let mut pb = ProgramBuilder::new("jt");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let t0 = f.new_block();
        let t1 = f.new_block();
        f.select(e);
        f.jump_table(Reg(1), vec![t0, t1], t1);
        f.select(t0);
        f.halt();
        f.select(t1);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let p = pb.finish(main).unwrap();
        let layout = Layout::natural(&p);
        let mut image = link(&p, &layout, 0).unwrap();
        validate_translation(&p, &layout, &image).unwrap();

        // Swap the two table entries: an edge-set comparison would still
        // pass, the elementwise check must not.
        match &mut image.code[0] {
            LInstr::JmpTbl { table, .. } => table.swap(0, 1),
            other => panic!("expected JmpTbl, got {other:?}"),
        }
        assert!(matches!(
            validate_translation(&p, &layout, &image).unwrap_err(),
            ValidationError::EdgeMismatch {
                block: BlockId(0),
                ..
            }
        ));
    }
}
