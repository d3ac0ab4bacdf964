//! Codestitcher-style hierarchical collocation (Lavaee, Criswell & Ding,
//! *Codestitcher: inter-procedural basic block layout*, PAPERS.md).
//!
//! The paper trio places whole procedures (or split segments) with one
//! flat Pettis–Hansen pass, treating a 100-byte and a 100-kilobyte
//! separation as equally bad. Codestitcher's observation is that the
//! benefit of collocating two pieces of code depends on the *distance
//! class* the collocation achieves: sharing a cache line, sharing a TLB
//! page, or sharing a huge page. This pass therefore merges
//! inter-procedural basic-block chains in three levels of increasing byte
//! budget — cache line, then page, then huge page — so the hottest call
//! and flow edges are resolved at the tightest distance class first, and
//! looser relations only influence placement at coarser granularity.
//!
//! The chains are the pipeline's existing chained-and-split segments
//! ([`crate::split_all`] over [`crate::chain_all`]), and the edges between
//! them are the pipeline's segment edges (flow plus calls mapped to the
//! callee's entry segment) — no new profile machinery, as the edge
//! profiles already carry everything the hierarchy needs.

use crate::exttsp::block_bytes;
use crate::memo::LayoutMemo;
use crate::params::LayoutParams;
use crate::pipeline::segment_edges;
use crate::split::split_all;
use codelayout_ir::{Layout, Program};
use codelayout_profile::Profile;
use std::collections::{BinaryHeap, HashMap};

/// Byte budgets of the three collocation levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StitchLevels {
    /// Innermost level: a merged cluster must fit one cache line.
    pub line: u64,
    /// Middle level: a merged cluster must fit one instruction-TLB page.
    pub page: u64,
    /// Outer level: a merged cluster must fit one huge page.
    pub huge: u64,
}

impl Default for StitchLevels {
    /// 128-byte lines (the simulated caches), 8 KiB pages (the simulated
    /// iTLB) and 2 MiB huge pages.
    fn default() -> Self {
        StitchLevels {
            line: 128,
            page: 8 * 1024,
            huge: 2 * 1024 * 1024,
        }
    }
}

/// Builds the Codestitcher layout: `chain` and `split` shape the
/// segments, `stitch` sets the level budgets.
///
/// The result is a permutation of the chained-and-split segments, so it
/// honors the same placement conventions as the paper's `all` series
/// (segments never straddle, conditional tails stay unique per
/// procedure).
pub fn stitcher_layout(program: &Program, profile: &Profile, params: &LayoutParams) -> Layout {
    stitcher_with(&mut LayoutMemo::new(program, profile), params)
}

/// [`stitcher_layout`], reading the chain orders from `memo`.
pub(crate) fn stitcher_with(memo: &mut LayoutMemo<'_>, params: &LayoutParams) -> Layout {
    let _span = codelayout_obs::span("stitcher");
    let (program, profile) = (memo.program(), memo.profile());
    let levels = params.stitch;
    let segs = split_all(
        program,
        profile,
        memo.chain_orders(&params.chain),
        &params.split,
    );
    let edges = segment_edges(program, profile, &segs);
    let sizes: Vec<u64> = segs
        .iter()
        .map(|s| s.blocks.iter().map(|&b| block_bytes(program, b)).sum())
        .collect();
    let seg_order = merge_levels(
        segs.len(),
        edges,
        sizes,
        &[levels.line, levels.page, levels.huge],
    );
    let order = seg_order
        .into_iter()
        .flat_map(|i| segs[i as usize].blocks.iter().copied())
        .collect();
    Layout { order }
}

/// Pettis–Hansen node merging run once per level with a cluster byte
/// budget: a merge is only admissible while the combined cluster fits the
/// level's budget. Pairs that overflow one level stay adjacent and get
/// reconsidered at the next, looser level. Emission matches
/// [`crate::pettis_hansen_order`]: groups hottest-first, never-connected
/// nodes last in id order.
fn merge_levels(
    num_nodes: usize,
    edges: Vec<(u32, u32, u64)>,
    mut size: Vec<u64>,
    budgets: &[u64],
) -> Vec<u32> {
    let mut undirected: HashMap<(u32, u32), u64> = HashMap::new();
    for (a, b, w) in edges {
        if a == b || w == 0 {
            continue;
        }
        let key = (a.min(b), a.max(b));
        *undirected.entry(key).or_insert(0) += w;
    }
    let orig = undirected.clone();

    let mut list: Vec<Option<Vec<u32>>> = (0..num_nodes as u32).map(|i| Some(vec![i])).collect();
    let mut heat: Vec<u64> = vec![0; num_nodes];
    let mut adj: Vec<HashMap<u32, u64>> = vec![HashMap::new(); num_nodes];
    for (&(a, b), &w) in &undirected {
        adj[a as usize].insert(b, w);
        adj[b as usize].insert(a, w);
    }

    let score = |orig: &HashMap<(u32, u32), u64>, x: u32, y: u32| -> u64 {
        orig.get(&(x.min(y), x.max(y))).copied().unwrap_or(0)
    };

    for &budget in budgets {
        // Fresh lazy heap per level: pairs skipped for size at a tighter
        // level must come back once the budget loosens.
        let mut heap: BinaryHeap<(u64, std::cmp::Reverse<u32>, std::cmp::Reverse<u32>)> =
            BinaryHeap::new();
        for (a, nbrs) in adj.iter().enumerate() {
            for (&b, &w) in nbrs {
                if (a as u32) < b {
                    heap.push((w, std::cmp::Reverse(a as u32), std::cmp::Reverse(b)));
                }
            }
        }
        while let Some((w, std::cmp::Reverse(a), std::cmp::Reverse(b))) = heap.pop() {
            if list[a as usize].is_none() || list[b as usize].is_none() {
                continue;
            }
            if adj[a as usize].get(&b).copied() != Some(w) {
                continue;
            }
            // The level's one addition to Pettis–Hansen: the merged
            // cluster must fit the current distance class. Sizes only
            // grow, so dropping the heap entry is safe — the pair stays
            // in the adjacency for the next level.
            if size[a as usize] + size[b as usize] > budget {
                continue;
            }

            let la = list[a as usize].take().expect("checked");
            let lb = list[b as usize].take().expect("checked");
            let (ha, ta) = (la[0], *la.last().expect("nonempty"));
            let (hb, tb) = (lb[0], *lb.last().expect("nonempty"));
            let candidates = [
                score(&orig, ta, hb), // A ++ B
                score(&orig, ta, tb), // A ++ rev(B)
                score(&orig, ha, hb), // rev(A) ++ B
                score(&orig, ha, tb), // rev(A) ++ rev(B)
            ];
            let bestc = candidates
                .iter()
                .enumerate()
                .max_by(|(i, x), (j, y)| x.cmp(y).then(j.cmp(i)))
                .map(|(i, _)| i)
                .expect("four candidates");
            let mut merged = Vec::with_capacity(la.len() + lb.len());
            match bestc {
                0 => {
                    merged.extend(la);
                    merged.extend(lb);
                }
                1 => {
                    merged.extend(la);
                    merged.extend(lb.into_iter().rev());
                }
                2 => {
                    merged.extend(la.into_iter().rev());
                    merged.extend(lb);
                }
                _ => {
                    merged.extend(la.into_iter().rev());
                    merged.extend(lb.into_iter().rev());
                }
            }
            list[a as usize] = Some(merged);
            heat[a as usize] = heat[a as usize] + heat[b as usize] + w;
            size[a as usize] += size[b as usize];

            let b_adj: Vec<(u32, u64)> = adj[b as usize].drain().collect();
            adj[a as usize].remove(&b);
            for (nbr, wb) in b_adj {
                if nbr == a {
                    continue;
                }
                adj[nbr as usize].remove(&b);
                let entry = adj[a as usize].entry(nbr).or_insert(0);
                *entry += wb;
                let w_new = *entry;
                *adj[nbr as usize].entry(a).or_insert(0) = w_new;
                let (x, y) = (a.min(nbr), a.max(nbr));
                heap.push((w_new, std::cmp::Reverse(x), std::cmp::Reverse(y)));
            }
        }
    }

    let mut groups: Vec<(u64, u32, Vec<u32>)> = list
        .into_iter()
        .enumerate()
        .filter_map(|(i, l)| l.map(|l| (heat[i], i as u32, l)))
        .collect();
    groups.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut out = Vec::with_capacity(num_nodes);
    for (_, _, l) in groups {
        out.extend(l);
    }
    debug_assert_eq!(out.len(), num_nodes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{
        verify_layout, verify_layout_placement, Cond, Operand, ProcBuilder, ProgramBuilder, Reg,
    };

    /// main calls a (hot) and z (cold); a has a hot/cold diamond.
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
    fn layout_is_valid_and_keeps_segments_intact() {
        let p = program();
        let prof = profile(&p);
        let l = stitcher_layout(&p, &prof, &LayoutParams::default());
        verify_layout(&p, &l).unwrap();
        // Segments stay intact, so the split-layout placement conventions
        // hold exactly as for the paper's `all` series.
        verify_layout_placement(&p, &l, true).unwrap();
    }

    #[test]
    fn caller_lands_next_to_hot_callee() {
        let p = program();
        let prof = profile(&p);
        let l = stitcher_layout(&p, &prof, &LayoutParams::default());
        let pos: Vec<usize> = {
            let mut v = vec![0; p.blocks.len()];
            for (i, b) in l.order.iter().enumerate() {
                v[b.index()] = i;
            }
            v
        };
        // The 1000-weight call edge main->a resolves at the line level.
        assert!(pos[0].abs_diff(pos[1]) <= 2, "order: {:?}", l.order);
        // Cold z sinks to the end.
        assert_eq!(l.order.last().unwrap().index(), 5);
    }

    #[test]
    fn line_budget_blocks_oversized_merges() {
        // Two segments whose combined size exceeds a tiny line budget can
        // only merge at the page level; with page also tiny, never.
        let p = program();
        let prof = profile(&p);
        let starved = stitcher_layout(
            &p,
            &prof,
            &LayoutParams {
                stitch: StitchLevels {
                    line: 1,
                    page: 1,
                    huge: 1,
                },
                ..LayoutParams::default()
            },
        );
        verify_layout(&p, &starved).unwrap();
        // No merges happen, so emission is the chained segments in
        // construction order.
        let defaults = LayoutParams::default();
        let orders = crate::chain_all(&p, &prof, &defaults.chain);
        let segs = split_all(&p, &prof, &orders, &defaults.split);
        let expected: Vec<_> = segs.iter().flat_map(|s| s.blocks.iter().copied()).collect();
        assert_eq!(starved.order, expected);
    }

    #[test]
    fn deterministic() {
        let p = program();
        let prof = profile(&p);
        let params = LayoutParams::default();
        assert_eq!(
            stitcher_layout(&p, &prof, &params),
            stitcher_layout(&p, &prof, &params)
        );
    }
}
