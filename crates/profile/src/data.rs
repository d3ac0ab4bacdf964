//! The [`Profile`] data structure.

use codelayout_ir::{BlockId, ProcId, Program};
use std::collections::HashMap;

/// Execution counts for one program: per-block counts, flow-edge counts and
/// call counts. All the layout optimizations consume this structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Execution count of each block, indexed by [`BlockId`].
    pub block_counts: Vec<u64>,
    /// Flow-edge traversal counts keyed by `(from, to)` block ids. Edges are
    /// terminator transitions only; calls and returns are not flow edges.
    pub edge_counts: HashMap<(u32, u32), u64>,
    /// Call counts keyed by `(calling block, callee procedure)`.
    pub call_counts: HashMap<(u32, u32), u64>,
}

impl Profile {
    /// Creates an all-zero profile sized for `num_blocks` blocks.
    pub fn new(num_blocks: usize) -> Self {
        Profile {
            block_counts: vec![0; num_blocks],
            edge_counts: HashMap::new(),
            call_counts: HashMap::new(),
        }
    }

    /// Execution count of a block (0 when out of range).
    #[inline]
    pub fn block_count(&self, b: BlockId) -> u64 {
        self.block_counts.get(b.index()).copied().unwrap_or(0)
    }

    /// Traversal count of a flow edge.
    #[inline]
    pub fn edge_count(&self, from: BlockId, to: BlockId) -> u64 {
        self.edge_counts.get(&(from.0, to.0)).copied().unwrap_or(0)
    }

    /// Call count from a block into a procedure.
    #[inline]
    pub fn call_count(&self, from: BlockId, callee: ProcId) -> u64 {
        self.call_counts
            .get(&(from.0, callee.0))
            .copied()
            .unwrap_or(0)
    }

    /// Total dynamic block entries.
    pub fn total_block_entries(&self) -> u64 {
        self.block_counts.iter().sum()
    }

    /// Total calls into a procedure, summed over all call sites.
    pub fn calls_into(&self, callee: ProcId) -> u64 {
        self.call_counts
            .iter()
            .filter(|((_, c), _)| *c == callee.0)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Checks flow conservation against a program: for every block, its
    /// entry count must equal incoming flow edges plus incoming calls (for
    /// procedure entry blocks), allowing `slack` for blocks that were
    /// executing when collection started/stopped (process entry points).
    ///
    /// Returns the list of violating blocks with `(expected, actual)`.
    pub fn flow_violations(&self, program: &Program, slack: u64) -> Vec<(BlockId, u64, u64)> {
        let n = program.blocks.len();
        let mut incoming = vec![0u64; n];
        for (&(_, to), &c) in &self.edge_counts {
            if (to as usize) < n {
                incoming[to as usize] += c;
            }
        }
        for (&(_, callee), &c) in &self.call_counts {
            let entry = program.proc(ProcId(callee)).entry;
            incoming[entry.index()] += c;
        }
        // The program entry block is additionally entered once per process
        // without any edge or call; `slack` is the process count.
        let prog_entry = program.proc(program.entry).entry;
        incoming[prog_entry.index()] += slack;

        let mut out = Vec::new();
        for (i, &actual) in self.block_counts.iter().enumerate() {
            let expected = incoming[i];
            if actual != expected {
                out.push((BlockId(i as u32), expected, actual));
            }
        }
        out
    }

    /// Aggregated call-graph weights at procedure granularity:
    /// `(caller proc, callee proc) -> calls`, derived with the block-owner
    /// map of `program`.
    pub fn proc_call_weights(&self, program: &Program) -> HashMap<(u32, u32), u64> {
        let owner = program.owner_of_blocks();
        let mut w: HashMap<(u32, u32), u64> = HashMap::new();
        for (&(from_block, callee), &c) in &self.call_counts {
            let caller = owner[from_block as usize];
            *w.entry((caller.0, callee)).or_insert(0) += c;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_default_to_zero() {
        let p = Profile::new(3);
        assert_eq!(p.block_count(BlockId(0)), 0);
        assert_eq!(p.block_count(BlockId(99)), 0);
        assert_eq!(p.edge_count(BlockId(0), BlockId(1)), 0);
        assert_eq!(p.call_count(BlockId(0), ProcId(0)), 0);
        assert_eq!(p.total_block_entries(), 0);
    }

    #[test]
    fn calls_into_sums_over_sites() {
        let mut p = Profile::new(4);
        p.call_counts.insert((0, 7), 3);
        p.call_counts.insert((1, 7), 4);
        p.call_counts.insert((2, 8), 5);
        assert_eq!(p.calls_into(ProcId(7)), 7);
        assert_eq!(p.calls_into(ProcId(8)), 5);
        assert_eq!(p.calls_into(ProcId(9)), 0);
    }
}
