//! Basic block chaining (paper §2, Fig. 1a).
//!
//! Spike's greedy algorithm: flow edges of a procedure are processed in
//! decreasing weight order; an edge chains its source to its destination
//! when the source has no successor yet, the destination has no predecessor
//! yet, and the link would not close a cycle. Chains are then emitted with
//! the entry chain first and the rest in decreasing first-block execution
//! count. The effect is that hot conditional branches become not-taken
//! fall-throughs and hot unconditional branches disappear entirely.

use crate::params::ChainParams;
use codelayout_ir::{BlockId, ProcId, Program};
use codelayout_profile::Profile;
use std::collections::HashMap;

/// Returns the chained block order for one procedure.
///
/// The result is a permutation of `program.proc(proc).blocks`.
pub fn chain_proc(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    params: &ChainParams,
) -> Vec<BlockId> {
    let blocks = &program.proc(proc).blocks;
    let entry = program.proc(proc).entry;
    if blocks.len() <= 1 {
        return blocks.clone();
    }

    // Local dense indices for this procedure.
    let mut local: HashMap<BlockId, usize> = HashMap::with_capacity(blocks.len());
    for (i, &b) in blocks.iter().enumerate() {
        local.insert(b, i);
    }

    // Candidate edges: intra-procedure, non-self, deduplicated.
    let mut edges: Vec<(u64, u32, u32)> = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        let term = &program.block(b).term;
        let mut seen: Vec<BlockId> = Vec::new();
        for s in term.successors() {
            if s == b || seen.contains(&s) {
                continue;
            }
            seen.push(s);
            if let Some(&j) = local.get(&s) {
                let w = profile.edge_count(b, s);
                if w < params.min_edge_weight {
                    continue;
                }
                edges.push((w, i as u32, j as u32));
            }
        }
    }
    // Heaviest first; deterministic tie-break on (from, to).
    edges.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let n = blocks.len();
    let mut next: Vec<Option<u32>> = vec![None; n];
    let mut prev: Vec<Option<u32>> = vec![None; n];
    // Union-find over chain membership for cycle avoidance.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    for (_, from, to) in edges {
        if next[from as usize].is_some() || prev[to as usize].is_some() {
            continue;
        }
        let rf = find(&mut parent, from);
        let rt = find(&mut parent, to);
        if rf == rt {
            continue; // would close a cycle
        }
        next[from as usize] = Some(to);
        prev[to as usize] = Some(from);
        parent[rf as usize] = rt;
    }

    // Collect chains: heads have no predecessor.
    let mut chains: Vec<Vec<u32>> = Vec::new();
    for head in 0..n as u32 {
        if prev[head as usize].is_some() {
            continue;
        }
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(nx) = next[cur as usize] {
            chain.push(nx);
            cur = nx;
        }
        chains.push(chain);
    }
    debug_assert_eq!(chains.iter().map(Vec::len).sum::<usize>(), n);

    // Entry chain first; the rest by decreasing first-block count, with a
    // deterministic id tie-break.
    let entry_local = local[&entry] as u32;
    let chain_key = |c: &Vec<u32>| {
        let first = BlockId(blocks[c[0] as usize].0);
        (profile.block_count(first), u32::MAX - c[0])
    };
    chains.sort_by(|a, b| {
        let a_entry = a.contains(&entry_local);
        let b_entry = b.contains(&entry_local);
        b_entry
            .cmp(&a_entry)
            .then_with(|| chain_key(b).cmp(&chain_key(a)))
    });

    chains
        .into_iter()
        .flatten()
        .map(|i| blocks[i as usize])
        .collect()
}

/// Chains every procedure; returns per-procedure block orders indexed by
/// `ProcId`.
pub fn chain_all(program: &Program, profile: &Profile, params: &ChainParams) -> Vec<Vec<BlockId>> {
    (0..program.procs.len())
        .map(|p| chain_proc(program, profile, ProcId(p as u32), params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{Cond, Operand, ProcBuilder, ProgramBuilder, Reg};

    /// Builds the paper's Fig 1(a) shape: a diamond with a hot arm, a loop
    /// and a cold error path.
    ///
    /// entry(b0) -> hot(b1) [w 90] / cold(b2) [w 10]; hot -> join(b3);
    /// cold -> join; join -> entry [loop w 50] / exit(b4).
    fn fig1_program() -> Program {
        let mut pb = ProgramBuilder::new("fig1");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let b0 = f.entry();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let b4 = f.new_block();
        f.select(b0);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), b1, b2);
        f.select(b1);
        f.nop();
        f.jump(b3);
        f.select(b2);
        f.nop();
        f.jump(b3);
        f.select(b3);
        f.branch(Cond::Gt, Reg(2), Operand::Imm(0), b0, b4);
        f.select(b4);
        f.halt();
        pb.define_proc(main, f).unwrap();
        pb.finish(main).unwrap()
    }

    fn fig1_profile() -> Profile {
        let mut p = Profile::new(5);
        p.block_counts = vec![100, 90, 10, 100, 50];
        p.edge_counts.insert((0, 1), 90);
        p.edge_counts.insert((0, 2), 10);
        p.edge_counts.insert((1, 3), 90);
        p.edge_counts.insert((2, 3), 10);
        p.edge_counts.insert((3, 0), 50);
        p.edge_counts.insert((3, 4), 50);
        p
    }

    #[test]
    fn hot_path_becomes_sequential() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let order = chain_proc(&prog, &prof, ProcId(0), &ChainParams::default());
        // Heaviest edges: 0->1 (90) and 1->3 (90) chain first, so the hot
        // path 0,1,3 must be consecutive.
        let pos: HashMap<u32, usize> = order.iter().enumerate().map(|(i, b)| (b.0, i)).collect();
        assert_eq!(pos[&1], pos[&0] + 1, "entry falls through to hot arm");
        assert_eq!(pos[&3], pos[&1] + 1, "hot arm falls through to join");
        // All blocks present exactly once.
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn entry_chain_placed_first() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let order = chain_proc(&prog, &prof, ProcId(0), &ChainParams::default());
        assert_eq!(order[0], BlockId(0), "entry chain first");
    }

    #[test]
    fn cycle_is_avoided() {
        // Two blocks looping: 0 -> 1 (hot), 1 -> 0 (hot). Without cycle
        // avoidance chaining both edges would orphan the blocks.
        let mut pb = ProgramBuilder::new("loop");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let a = f.entry();
        let b = f.new_block();
        f.select(a);
        f.jump(b);
        f.select(b);
        f.jump(a);
        pb.define_proc(main, f).unwrap();
        let prog = pb.finish(main).unwrap();
        let mut prof = Profile::new(2);
        prof.edge_counts.insert((0, 1), 100);
        prof.edge_counts.insert((1, 0), 99);
        let order = chain_proc(&prog, &prof, ProcId(0), &ChainParams::default());
        assert_eq!(order, vec![BlockId(0), BlockId(1)]);
    }

    #[test]
    fn zero_profile_is_still_a_permutation() {
        let prog = fig1_program();
        let prof = Profile::new(5);
        let order = chain_proc(&prog, &prof, ProcId(0), &ChainParams::default());
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], BlockId(0));
    }

    #[test]
    fn min_edge_weight_suppresses_light_edges() {
        let prog = fig1_program();
        let prof = fig1_profile();
        // A threshold above every edge weight leaves only singleton
        // chains: entry first, the rest by decreasing block count.
        let order = chain_proc(
            &prog,
            &prof,
            ProcId(0),
            &ChainParams {
                min_edge_weight: 1000,
            },
        );
        let ids: Vec<u32> = order.iter().map(|b| b.0).collect();
        assert_eq!(ids, vec![0, 3, 1, 4, 2]);
    }

    #[test]
    fn single_block_proc_unchanged() {
        let mut pb = ProgramBuilder::new("one");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        f.halt();
        pb.define_proc(main, f).unwrap();
        let prog = pb.finish(main).unwrap();
        let prof = Profile::new(1);
        assert_eq!(
            chain_proc(&prog, &prof, ProcId(0), &ChainParams::default()),
            vec![BlockId(0)]
        );
        assert_eq!(
            chain_all(&prog, &prof, &ChainParams::default()),
            vec![vec![BlockId(0)]]
        );
    }
}
