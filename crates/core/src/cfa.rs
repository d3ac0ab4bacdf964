//! Conflict-free-area (CFA) layout — the software-trace-cache style
//! optimization the paper implemented and found ineffective for OLTP
//! (§2: "the footprint for such traces in our OLTP workload was too large
//! to fit within a reasonably sized fraction of the cache, and the
//! optimization yielded no gains").
//!
//! The idea (Torrellas et al. / Ramirez et al.): reserve an area of the
//! instruction cache for the hottest traces by placing them in a contiguous
//! region at the start of the image whose size is a fraction of the cache;
//! everything else is laid out after it, so nothing maps on top of the
//! reserved sets. We reproduce both the mechanism and the paper's negative
//! result (see the `cfa_ablation` experiment).

use crate::graph::pettis_hansen_order;
use crate::memo::LayoutMemo;
use crate::params::LayoutParams;
use crate::pipeline::{segment_edges, LayoutPipeline};
use codelayout_ir::{BlockId, Layout, Program, INSTR_BYTES};
use codelayout_profile::Profile;

/// Outcome of a CFA layout: the layout plus how well the hot traces fit the
/// reserved area.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CfaReport {
    /// Bytes of reserved conflict-free area requested.
    pub reserved_bytes: u64,
    /// Bytes of trace actually placed in the reserved area.
    pub placed_bytes: u64,
    /// Fraction (×1000) of dynamic execution covered by the reserved traces.
    pub coverage_permille: u32,
    /// Bytes that traces covering 90% of execution would need.
    pub bytes_for_90pct: u64,
}

/// Builds a CFA layout: hottest segments (by execution weight) are packed
/// into a reserved area of `cfa.reserved_bytes`; the remainder is
/// Pettis–Hansen ordered after it. `chain`/`split` shape the segments.
pub fn cfa_layout(
    program: &Program,
    profile: &Profile,
    params: &LayoutParams,
) -> (Layout, CfaReport) {
    cfa_with(&mut LayoutMemo::new(program, profile), params)
}

/// [`cfa_layout`], reading the chain orders from `memo`.
pub(crate) fn cfa_with(memo: &mut LayoutMemo<'_>, params: &LayoutParams) -> (Layout, CfaReport) {
    let (program, profile) = (memo.program(), memo.profile());
    let reserved_bytes = params.cfa.reserved_bytes;
    let pipe = LayoutPipeline::with_params(program, profile, *params);
    let segs = pipe.segments_with(true, memo);

    // Approximate segment sizes: body instructions + one terminator slot
    // per block.
    let seg_bytes = |si: usize| -> u64 {
        segs[si]
            .blocks
            .iter()
            .map(|&b| (program.block(b).instrs.len() as u64 + 1) * INSTR_BYTES)
            .sum()
    };

    // Hottest first (by total weight, tie on index).
    let mut by_heat: Vec<usize> = (0..segs.len()).collect();
    by_heat.sort_by(|&a, &b| segs[b].weight.cmp(&segs[a].weight).then(a.cmp(&b)));

    let total_weight: u64 = segs.iter().map(|s| s.weight).sum();
    let mut placed: Vec<usize> = Vec::new();
    let mut placed_bytes = 0u64;
    let mut covered = 0u64;
    let mut cum_weight = 0u64;
    let mut bytes_cum = 0u64;
    let mut bytes_for_90pct = 0u64;
    for &si in &by_heat {
        if segs[si].weight == 0 {
            break;
        }
        let sz = seg_bytes(si);
        bytes_cum += sz;
        cum_weight += segs[si].weight;
        if bytes_for_90pct == 0 && total_weight > 0 && cum_weight * 10 >= total_weight * 9 {
            bytes_for_90pct = bytes_cum;
        }
        if placed_bytes + sz <= reserved_bytes {
            placed.push(si);
            placed_bytes += sz;
            covered += segs[si].weight;
        }
    }

    let in_reserved = {
        let mut v = vec![false; segs.len()];
        for &si in &placed {
            v[si] = true;
        }
        v
    };

    // Order the rest with Pettis–Hansen over the full segment graph, then
    // filter out the reserved ones.
    let edges = segment_edges(program, profile, &segs);
    let ph = pettis_hansen_order(segs.len(), edges);

    let mut order: Vec<BlockId> = Vec::with_capacity(program.blocks.len());
    for &si in &placed {
        order.extend(segs[si].blocks.iter().copied());
    }
    for si in ph {
        if !in_reserved[si as usize] {
            order.extend(segs[si as usize].blocks.iter().copied());
        }
    }

    let coverage_permille = if total_weight == 0 {
        0
    } else {
        ((covered as u128 * 1000) / total_weight as u128) as u32
    };
    (
        Layout { order },
        CfaReport {
            reserved_bytes,
            placed_bytes,
            coverage_permille,
            bytes_for_90pct,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::{verify_layout, ProcBuilder, ProgramBuilder, Reg};

    fn reserving(reserved_bytes: u64) -> LayoutParams {
        LayoutParams {
            cfa: crate::CfaParams { reserved_bytes },
            ..LayoutParams::default()
        }
    }

    fn two_proc_program() -> Program {
        let mut pb = ProgramBuilder::new("cfa");
        let main = pb.declare_proc("main");
        let leaf = pb.declare_proc("leaf");
        let mut f = ProcBuilder::new();
        f.work(Reg(1), 10).call(leaf);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let mut g = ProcBuilder::new();
        g.work(Reg(2), 30);
        g.ret();
        pb.define_proc(leaf, g).unwrap();
        pb.finish(main).unwrap()
    }

    #[test]
    fn reserved_area_holds_hottest_segment() {
        let p = two_proc_program();
        let mut prof = Profile::new(2);
        prof.block_counts = vec![5, 100];
        prof.call_counts.insert((0, 1), 5);
        let (l, rep) = cfa_layout(&p, &prof, &reserving(1024));
        verify_layout(&p, &l).unwrap();
        // leaf (block 1, weight 100) placed first.
        assert_eq!(l.order[0], BlockId(1));
        assert!(rep.placed_bytes > 0 && rep.placed_bytes <= 1024);
        assert!(rep.coverage_permille > 900);
    }

    #[test]
    fn tiny_reservation_places_nothing() {
        let p = two_proc_program();
        let mut prof = Profile::new(2);
        prof.block_counts = vec![5, 100];
        let (l, rep) = cfa_layout(&p, &prof, &reserving(4));
        verify_layout(&p, &l).unwrap();
        assert_eq!(rep.placed_bytes, 0);
        assert_eq!(rep.coverage_permille, 0);
    }

    #[test]
    fn cold_program_reports_zero_coverage() {
        let p = two_proc_program();
        let prof = Profile::new(2);
        let (l, rep) = cfa_layout(&p, &prof, &reserving(1 << 20));
        verify_layout(&p, &l).unwrap();
        assert_eq!(rep.coverage_permille, 0);
        assert_eq!(rep.bytes_for_90pct, 0);
    }
}
