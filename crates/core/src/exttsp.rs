//! ext-TSP basic block reordering (Newell & Pupyrev, *Improved Basic
//! Block Reordering*, PAPERS.md).
//!
//! Where [`crate::chain_proc`] greedily maximizes fall-through *counts*,
//! ext-TSP maximizes a distance-weighted score over three branch classes:
//! a fall-through earns its full edge weight, a short forward jump earns
//! `0.1 * w * (1 - d / 1024)` for distances under 1 KiB, and a short
//! backward jump earns `0.1 * w * (1 - d / 640)` for distances under 640
//! bytes (the paper's weights). The optimizer merges block chains
//! greedily, but instead of only appending it evaluates score-driven
//! merge points — splitting the growing chain and nesting the other chain
//! at the most profitable seam. Candidates are scored by their change
//! against the two chains' own scores, so a build costs time in each
//! procedure's size, and the orders are those of rescoring every
//! candidate in full.
//!
//! The scorer ([`exttsp_score`] / [`span_score`]) is the single encoding
//! of the objective: the pass maximizes it, the comparison table reports
//! it, and the property suite checks the pass against the paper trio with
//! it. All arithmetic is integer fixed-point (scale [`SCORE_SCALE`]) so
//! scores are bit-identical across platforms and thread counts.

use crate::chain::chain_proc_with;
use crate::graph::pettis_hansen_order;
use crate::params::{ExtTspParams, LayoutParams};
use codelayout_ir::{BlockId, Layout, ProcId, Program, Terminator, INSTR_BYTES};
use codelayout_profile::Profile;
use std::collections::{BTreeMap, HashMap};

/// Fixed-point scale: a fall-through of weight `w` scores `w * SCORE_SCALE`.
pub const SCORE_SCALE: u64 = 1_000;
/// Forward-jump scoring window in bytes (the paper's 1024). This is the
/// default of [`ExtTspParams::forward_window`].
pub const FORWARD_WINDOW: u64 = 1024;
/// Backward-jump scoring window in bytes (the paper's 640). This is the
/// default of [`ExtTspParams::backward_window`].
pub const BACKWARD_WINDOW: u64 = 640;

/// Layout-independent byte-size estimate of a lowered block: its body
/// instructions plus one slot for the terminator, two for a conditional
/// branch (whose not-taken arm may need a trailing jump). The linker can
/// do better — it erases jumps to the next block — but the estimate must
/// not depend on the layout being scored, or the objective would shift
/// under the optimizer.
pub fn block_bytes(program: &Program, b: BlockId) -> u64 {
    let blk = program.block(b);
    let slots = blk.instrs.len() as u64
        + match blk.term {
            Terminator::Branch { .. } => 2,
            _ => 1,
        };
    slots * INSTR_BYTES
}

/// Score contribution of one edge of weight `w` whose source block ends at
/// byte `src_end` and whose destination starts at byte `dst`, under the
/// objective's parameters.
fn edge_score(ep: &ExtTspParams, w: u64, src_end: u64, dst: u64) -> u64 {
    if w == 0 {
        return 0;
    }
    if dst == src_end {
        w * SCORE_SCALE
    } else if dst > src_end {
        let d = dst - src_end;
        if d < ep.forward_window {
            w * ep.jump_weight * (ep.forward_window - d) / ep.forward_window
        } else {
            0
        }
    } else {
        let d = src_end - dst;
        if d < ep.backward_window {
            w * ep.jump_weight * (ep.backward_window - d) / ep.backward_window
        } else {
            0
        }
    }
}

/// Score of the distinct out-edges of block `b` placed at byte `src`.
/// `addr_of` gives a successor's address, or `None` when it is not placed;
/// `seen` is scratch for skipping repeated successors.
fn out_edge_score(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    b: BlockId,
    src: u64,
    seen: &mut Vec<BlockId>,
    addr_of: impl Fn(BlockId) -> Option<u64>,
) -> u64 {
    let src_end = src + block_bytes(program, b);
    seen.clear();
    let mut total = 0u64;
    for t in program.block(b).term.successors() {
        if seen.contains(&t) {
            continue;
        }
        seen.push(t);
        if let Some(dst) = addr_of(t) {
            total += edge_score(ep, profile.edge_count(b, t), src_end, dst);
        }
    }
    total
}

/// Sums the score of every profiled control-flow edge whose endpoints both
/// have an address in `addr` (`u64::MAX` marks absent blocks).
fn score_at(program: &Program, profile: &Profile, ep: &ExtTspParams, addr: &[u64]) -> u64 {
    let addr_of = |t: BlockId| Some(addr[t.index()]).filter(|&a| a != u64::MAX);
    let mut seen = Vec::new();
    let mut total = 0u64;
    for (bi, &src) in addr.iter().enumerate() {
        if src != u64::MAX {
            total += out_edge_score(
                program,
                profile,
                ep,
                BlockId(bi as u32),
                src,
                &mut seen,
                addr_of,
            );
        }
    }
    total
}

/// The ext-TSP objective of a whole layout under the paper's fixed-point
/// weights (the default [`ExtTspParams`]).
///
/// This is the one scorer: the ext-TSP pass maximizes it, the comparison
/// table reports it, and the property tests compare series with it. The
/// reported score always uses the defaults, even when the pass was tuned,
/// so scores stay comparable across parameterizations.
pub fn exttsp_score(program: &Program, profile: &Profile, layout: &Layout) -> u64 {
    exttsp_score_with(program, profile, &ExtTspParams::default(), layout)
}

/// The ext-TSP objective of a whole layout under explicit weights.
pub fn exttsp_score_with(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    layout: &Layout,
) -> u64 {
    let mut addr = vec![u64::MAX; program.blocks.len()];
    let mut cur = 0u64;
    for &b in &layout.order {
        addr[b.index()] = cur;
        cur += block_bytes(program, b);
    }
    score_at(program, profile, ep, &addr)
}

/// The ext-TSP objective of one contiguous span placed in isolation,
/// under the default [`ExtTspParams`].
///
/// Every control-flow edge is intra-procedural, so the whole-layout score
/// of any procedure-contiguous layout is the sum of its per-procedure
/// span scores — which is what lets the pass optimize procedures
/// independently.
pub fn span_score(program: &Program, profile: &Profile, order: &[BlockId]) -> u64 {
    span_score_with(program, profile, &ExtTspParams::default(), order)
}

/// The ext-TSP objective of one contiguous span under explicit weights.
///
/// Costs O(s log s) for a span of s blocks, whatever the program's size:
/// addresses live in a map local to the span. A block repeated in `order`
/// is scored at its last address, as the whole-layout scorer does.
pub fn span_score_with(
    program: &Program,
    profile: &Profile,
    ep: &ExtTspParams,
    order: &[BlockId],
) -> u64 {
    let mut addr: Vec<(BlockId, u64)> = Vec::with_capacity(order.len());
    let mut cur = 0u64;
    for &b in order {
        addr.push((b, cur));
        cur += block_bytes(program, b);
    }
    // Stable sort, then keep the last address of each repeated block.
    addr.sort_by_key(|&(b, _)| b);
    addr.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    let addr_of = |t: BlockId| {
        addr.binary_search_by_key(&t, |&(b, _)| b)
            .ok()
            .map(|i| addr[i].1)
    };
    let mut seen = Vec::new();
    addr.iter()
        .map(|&(b, src)| out_edge_score(program, profile, ep, b, src, &mut seen, addr_of))
        .sum()
}

/// One chain of local block indices during merging.
struct Chain {
    blocks: Vec<u32>,
    /// Score of the edges inside the chain, at their places in it.
    score: u64,
    /// Total byte size of the chain's blocks.
    bytes: u64,
}

/// A merge arrangement `X[..k] ++ Y ++ X[k..]`, with X the live chain
/// rooted at `outer` and Y the one rooted at `inner`. `k == |X|` and
/// `k == 0` are the two concatenations.
#[derive(Clone, Copy)]
struct Seam {
    outer: u32,
    inner: u32,
    k: usize,
}

/// The best way to merge a pair of chains, cached per pair.
struct Merge {
    gain: u64,
    seam: Seam,
    score: u64,
}

/// A weighted intra-procedure edge `(from, to, weight)` in local indices.
type Edge = (u32, u32, u64);

/// Chain-merger signature, shared with the test reference.
type MergeFn = fn(usize, &[u64], &[Edge], u32, &Profile, &[BlockId], &ExtTspParams) -> Vec<u32>;

/// Span-scorer signature, shared with the test reference.
type SpanScoreFn = fn(&Program, &Profile, &ExtTspParams, &[BlockId]) -> u64;

/// Computes the ext-TSP block order for one procedure.
///
/// The procedure's entry block is always placed first (the image address
/// of a procedure is its entry), unlike [`crate::chain_proc`], which may front a
/// hot predecessor. The merged order competes under [`span_score`] against
/// the greedy chain order (rotated to entry-first when chaining fronted a
/// predecessor), so the pass never scores below the paper's chaining on
/// the same profile.
pub fn exttsp_proc_order(program: &Program, profile: &Profile, proc: ProcId) -> Vec<BlockId> {
    exttsp_proc_order_with(program, profile, proc, &LayoutParams::default())
}

/// Computes the ext-TSP block order for one procedure under explicit
/// parameters: the objective's weights from `params.exttsp`, the
/// competing chain candidate from `params.chain`.
pub fn exttsp_proc_order_with(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    params: &LayoutParams,
) -> Vec<BlockId> {
    proc_order_by(
        program,
        profile,
        proc,
        params,
        merge_chains,
        span_score_with,
        true,
    )
}

/// [`exttsp_proc_order_with`] over a given chain merger and span scorer.
///
/// With `unlinked_shortcut`, a procedure with no weighted edge between
/// two distinct blocks skips merging and candidate selection: every
/// arrangement then scores the same (a self-loop's score depends only on
/// its block's size), the merger merges nothing, and the merged order —
/// which wins score ties — is its emit order: the entry first, then the
/// other blocks by block count, descending, then local index. The test
/// reference runs the full path instead.
fn proc_order_by(
    program: &Program,
    profile: &Profile,
    proc: ProcId,
    params: &LayoutParams,
    merge: MergeFn,
    span_score: SpanScoreFn,
    unlinked_shortcut: bool,
) -> Vec<BlockId> {
    let ep = &params.exttsp;
    let blocks = &program.proc(proc).blocks;
    let entry = program.proc(proc).entry;
    if blocks.len() <= 1 {
        return blocks.clone();
    }

    let n = blocks.len();
    let mut local: HashMap<BlockId, u32> = HashMap::with_capacity(n);
    for (i, &b) in blocks.iter().enumerate() {
        local.insert(b, i as u32);
    }
    let entry_local = local[&entry];

    // Weighted intra-procedure edges in local indices, deduplicated.
    // Self edges contribute a layout-independent constant and are dropped.
    let mut edges: Vec<Edge> = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        let mut seen: Vec<BlockId> = Vec::new();
        for t in program.block(b).term.successors() {
            if t == b || seen.contains(&t) {
                continue;
            }
            seen.push(t);
            if let Some(&j) = local.get(&t) {
                let w = profile.edge_count(b, t);
                if w > 0 {
                    edges.push((i as u32, j, w));
                }
            }
        }
    }

    if unlinked_shortcut && edges.is_empty() {
        let mut rest: Vec<usize> = (0..n).filter(|&i| i != entry_local as usize).collect();
        rest.sort_by_key(|&i| (std::cmp::Reverse(profile.block_count(blocks[i])), i));
        return std::iter::once(entry)
            .chain(rest.into_iter().map(|i| blocks[i]))
            .collect();
    }

    let sizes: Vec<u64> = blocks.iter().map(|&b| block_bytes(program, b)).collect();
    let merged = merge(n, &sizes, &edges, entry_local, profile, blocks, ep);

    // Candidate selection under the shared scorer; the merged order wins
    // ties so the pass's own structure is preferred.
    let merged_blocks: Vec<BlockId> = merged.iter().map(|&i| blocks[i as usize]).collect();
    let chain = chain_proc_with(program, profile, proc, &params.chain);
    let chain_candidate = if chain[0] == entry {
        chain
    } else {
        // Chaining fronted a hot predecessor of the entry; rotate the
        // pre-entry prefix to the back so the entry leads.
        let at = chain
            .iter()
            .position(|&b| b == entry)
            .expect("entry present");
        let mut rot = chain[at..].to_vec();
        rot.extend_from_slice(&chain[..at]);
        rot
    };
    if span_score(program, profile, ep, &chain_candidate)
        > span_score(program, profile, ep, &merged_blocks)
    {
        chain_candidate
    } else {
        merged_blocks
    }
}

/// The live chains of one procedure and where each block sits in them.
struct Chains<'a> {
    sizes: &'a [u64],
    /// Out-edges `(to, weight)` of each block.
    out: Vec<Vec<(u32, u64)>>,
    /// Live chains by root; merged-away roots are `None`.
    chains: Vec<Option<Chain>>,
    /// Root of the live chain holding each block.
    chain_of: Vec<u32>,
    /// Index of each block in its chain.
    index: Vec<u32>,
    /// Byte offset of each block in its chain.
    offset: Vec<u64>,
}

/// Reusable buffers of [`Chains::best_merge`].
#[derive(Default)]
struct PairScratch {
    intra_a: Vec<Edge>,
    intra_b: Vec<Edge>,
    inter: Vec<Edge>,
    straddle: Vec<i128>,
}

impl Chains<'_> {
    fn chain(&self, root: u32) -> &Chain {
        self.chains[root as usize].as_ref().expect("live chain")
    }

    /// Score of the edges between a seam's two chains at their places in
    /// the seam's arrangement.
    fn inter_score(&self, inter: &[Edge], seam: Seam, ep: &ExtTspParams) -> u64 {
        let x = self.chain(seam.outer);
        let y_bytes = self.chain(seam.inner).bytes;
        let y_at = x
            .blocks
            .get(seam.k)
            .map_or(x.bytes, |&v| self.offset[v as usize]);
        let pos = |v: u32| {
            let v = v as usize;
            if self.chain_of[v] != seam.outer {
                y_at + self.offset[v]
            } else if self.index[v] as usize >= seam.k {
                self.offset[v] + y_bytes
            } else {
                self.offset[v]
            }
        };
        inter
            .iter()
            .map(|&(f, t, w)| edge_score(ep, w, pos(f) + self.sizes[f as usize], pos(t)))
            .sum()
    }

    /// Fills `delta[k]`, for every seam `k` in `1..|X|`, with the change in
    /// score of X's internal edges when `gap` bytes open at `k`. An edge
    /// moves only when it straddles the seam, and then by the same amount
    /// for every such `k`, so each edge adds its change to its straddle
    /// range of a difference array and one prefix-sum pass gives every `k`.
    /// The changes are signed, hence `i128`: exact for any `u64` score.
    fn straddle_deltas(
        &self,
        x: &Chain,
        intra: &[Edge],
        gap: u64,
        ep: &ExtTspParams,
        delta: &mut Vec<i128>,
    ) {
        delta.clear();
        delta.resize(x.blocks.len() + 1, 0);
        for &(f, t, w) in intra {
            let (f, t) = (f as usize, t as usize);
            let (i, j) = (self.index[f] as usize, self.index[t] as usize);
            let src_end = self.offset[f] + self.sizes[f];
            let dst = self.offset[t];
            let old = edge_score(ep, w, src_end, dst);
            let new = if i < j {
                edge_score(ep, w, src_end, dst + gap)
            } else {
                edge_score(ep, w, src_end + gap, dst)
            };
            let d = i128::from(new) - i128::from(old);
            delta[i.min(j) + 1] += d;
            delta[i.max(j) + 1] -= d;
        }
        for k in 1..delta.len() {
            delta[k] += delta[k - 1];
        }
    }

    /// The best-scoring way to merge live chains `a` and `b`, or `None`
    /// when no arrangement is admissible (the entry must stay at the head
    /// of its chain).
    ///
    /// Each candidate scores `a.score + b.score`, plus the change on the
    /// split chain's internal edges that straddle the seam, plus the edges
    /// between the pair at their new places. Candidates are enumerated in
    /// a fixed order and the first strictly best wins.
    fn best_merge(
        &self,
        a: u32,
        b: u32,
        entry_root: u32,
        entry_local: u32,
        ep: &ExtTspParams,
        scratch: &mut PairScratch,
    ) -> Option<Merge> {
        let ca = self.chains[a as usize].as_ref()?;
        let cb = self.chains[b as usize].as_ref()?;
        let has_entry = a == entry_root || b == entry_root;
        let admissible = |first: u32| !has_entry || first == entry_local;

        // The pair's edges, from its own blocks' out-edges: those inside
        // `a`, those inside `b`, and those between them.
        let PairScratch {
            intra_a,
            intra_b,
            inter,
            straddle,
        } = scratch;
        intra_a.clear();
        intra_b.clear();
        inter.clear();
        for &f in ca.blocks.iter().chain(&cb.blocks) {
            let from_a = self.chain_of[f as usize] == a;
            for &(t, w) in &self.out[f as usize] {
                let to = self.chain_of[t as usize];
                if to != a && to != b {
                    continue;
                }
                match (from_a, to == a) {
                    (true, true) => intra_a.push((f, t, w)),
                    (false, false) => intra_b.push((f, t, w)),
                    _ => inter.push((f, t, w)),
                }
            }
        }

        let base = i128::from(ca.score) + i128::from(cb.score);
        let mut best: Option<(i128, Seam)> = None;
        let mut consider = |seam: Seam, straddle: i128| {
            let s = base + straddle + i128::from(self.inter_score(inter, seam, ep));
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, seam));
            }
        };

        // a ++ b, then b ++ a.
        if admissible(ca.blocks[0]) {
            consider(
                Seam {
                    outer: a,
                    inner: b,
                    k: ca.blocks.len(),
                },
                0,
            );
        }
        if admissible(cb.blocks[0]) {
            consider(
                Seam {
                    outer: a,
                    inner: b,
                    k: 0,
                },
                0,
            );
        }
        // Score-driven merge points: nest one chain inside a split of the
        // other, at every admissible seam.
        for (x, y, intra, outer, inner) in [(ca, cb, &*intra_a, a, b), (cb, ca, &*intra_b, b, a)] {
            if x.blocks.len() as u64 > ep.split_cap || !admissible(x.blocks[0]) {
                continue;
            }
            self.straddle_deltas(x, intra, y.bytes, ep, straddle);
            for (k, &d) in straddle.iter().enumerate().take(x.blocks.len()).skip(1) {
                consider(Seam { outer, inner, k }, d);
            }
        }

        let (score, seam) = best?;
        let score = u64::try_from(score).expect("arrangement scores are non-negative");
        let gain = score.saturating_sub(ca.score + cb.score);
        Some(Merge { gain, seam, score })
    }

    /// Applies a merge: the seam's arrangement becomes the chain rooted at
    /// `root`, and the other root goes dead.
    fn merge(&mut self, m: &Merge, root: u32) {
        let Seam { outer, inner, k } = m.seam;
        let mut blocks = self.chains[outer as usize]
            .take()
            .expect("live chain")
            .blocks;
        let y = self.chains[inner as usize]
            .take()
            .expect("live chain")
            .blocks;
        blocks.splice(k..k, y);
        let mut at = 0u64;
        for (i, &v) in blocks.iter().enumerate() {
            let v = v as usize;
            self.chain_of[v] = root;
            self.index[v] = i as u32;
            self.offset[v] = at;
            at += self.sizes[v];
        }
        self.chains[root as usize] = Some(Chain {
            blocks,
            score: m.score,
            bytes: at,
        });
    }
}

/// Greedy chain merging with score-driven merge-point selection. Returns
/// a permutation of `0..n` (local indices) with `entry_local` first.
///
/// Evaluating a pair costs time in the pair's blocks and edges only: see
/// [`Chains::best_merge`].
fn merge_chains(
    n: usize,
    sizes: &[u64],
    edges: &[Edge],
    entry_local: u32,
    profile: &Profile,
    blocks: &[BlockId],
    ep: &ExtTspParams,
) -> Vec<u32> {
    // One chain per block to start; a live chain is indexed by its
    // smallest-ever root.
    let mut out: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for &(f, t, w) in edges {
        out[f as usize].push((t, w));
    }
    let mut st = Chains {
        sizes,
        out,
        chains: (0..n)
            .map(|i| {
                Some(Chain {
                    blocks: vec![i as u32],
                    score: 0,
                    bytes: sizes[i],
                })
            })
            .collect(),
        chain_of: (0..n as u32).collect(),
        index: vec![0; n],
        offset: vec![0; n],
    };
    let mut entry_root = entry_local;
    let mut scratch = PairScratch::default();

    // Undirected inter-chain adjacency (sum of edge weights), kept in
    // ordered maps so every scan below is deterministic.
    let mut adj: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); n];
    for &(f, t, w) in edges {
        if f == t {
            continue;
        }
        *adj[f as usize].entry(t).or_insert(0) += w;
        *adj[t as usize].entry(f).or_insert(0) += w;
    }

    let mut best: BTreeMap<(u32, u32), Merge> = BTreeMap::new();
    for (a, nbrs) in adj.iter().enumerate() {
        for &b in nbrs.keys() {
            let a = a as u32;
            if a < b {
                if let Some(m) = st.best_merge(a, b, entry_root, entry_local, ep, &mut scratch) {
                    best.insert((a, b), m);
                }
            }
        }
    }

    // Highest positive gain; ties go to the smallest pair.
    fn pick_best(best: &BTreeMap<(u32, u32), Merge>) -> Option<(u32, u32)> {
        best.iter()
            .filter(|(_, m)| m.gain > 0)
            .max_by(|(ka, ma), (kb, mb)| ma.gain.cmp(&mb.gain).then(kb.cmp(ka)))
            .map(|(&k, _)| k)
    }
    while let Some((a, b)) = pick_best(&best) {
        let m = best.remove(&(a, b)).expect("just found");
        st.merge(&m, a);
        if entry_root == b {
            entry_root = a;
        }

        // Rewire b's adjacency into a and drop stale cached merges.
        let b_adj: Vec<(u32, u64)> = std::mem::take(&mut adj[b as usize]).into_iter().collect();
        adj[a as usize].remove(&b);
        for (nbr, w) in b_adj {
            if nbr == a {
                continue;
            }
            adj[nbr as usize].remove(&b);
            best.remove(&(b.min(nbr), b.max(nbr)));
            *adj[a as usize].entry(nbr).or_insert(0) += w;
            *adj[nbr as usize].entry(a).or_insert(0) = adj[a as usize][&nbr];
        }
        let neighbors: Vec<u32> = adj[a as usize].keys().copied().collect();
        for nbr in neighbors {
            let key = (a.min(nbr), a.max(nbr));
            match st.best_merge(key.0, key.1, entry_root, entry_local, ep, &mut scratch) {
                Some(m) => {
                    best.insert(key, m);
                }
                None => {
                    best.remove(&key);
                }
            }
        }
    }

    // Emit: entry chain first, the rest by decreasing profile weight with
    // a deterministic root tie-break.
    let weight_of = |c: &Chain| -> u64 {
        c.blocks
            .iter()
            .map(|&i| profile.block_count(blocks[i as usize]))
            .sum()
    };
    let mut rest: Vec<(u64, u32, &Chain)> = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    for (root, c) in st.chains.iter().enumerate() {
        let Some(c) = c else { continue };
        if root as u32 == entry_root {
            order.extend_from_slice(&c.blocks);
        } else {
            rest.push((weight_of(c), root as u32, c));
        }
    }
    rest.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    for (_, _, c) in rest {
        order.extend_from_slice(&c.blocks);
    }
    debug_assert_eq!(order.len(), n);
    debug_assert_eq!(order[0], entry_local);
    order
}

/// Builds the whole-program ext-TSP layout: per-procedure ext-TSP block
/// orders, procedures kept contiguous and arranged by Pettis–Hansen call
/// ordering (the same procedure placement the paper's `chain+porder`
/// series uses, so series differ only in the intra-procedure objective).
pub fn exttsp_layout(program: &Program, profile: &Profile) -> Layout {
    exttsp_layout_with(program, profile, &LayoutParams::default())
}

/// Builds the whole-program ext-TSP layout under explicit parameters.
pub fn exttsp_layout_with(program: &Program, profile: &Profile, params: &LayoutParams) -> Layout {
    let _span = codelayout_obs::span("exttsp");
    let orders: Vec<Vec<BlockId>> = (0..program.procs.len())
        .map(|p| exttsp_proc_order_with(program, profile, ProcId(p as u32), params))
        .collect();
    let w = profile.proc_call_weights(program);
    let proc_order = pettis_hansen_order(
        program.procs.len(),
        w.into_iter().map(|((a, b), c)| (a, b, c)),
    );
    let order = proc_order
        .into_iter()
        .flat_map(|p| orders[p as usize].iter().copied())
        .collect();
    Layout { order }
}

/// The full-rescore chain merger and the dense span scorer the pass used
/// before span-local and delta scoring: the oracle the fast paths must
/// match bit for bit.
#[cfg(test)]
mod reference {
    use super::{edge_score, score_at, Edge, ExtTspParams};
    use codelayout_ir::{BlockId, Program};
    use codelayout_profile::Profile;
    use std::collections::BTreeMap;

    /// Span score over a program-wide address array.
    pub(super) fn span_score_dense(
        program: &Program,
        profile: &Profile,
        ep: &ExtTspParams,
        order: &[BlockId],
    ) -> u64 {
        let mut addr = vec![u64::MAX; program.blocks.len()];
        let mut cur = 0u64;
        for &b in order {
            addr[b.index()] = cur;
            cur += super::block_bytes(program, b);
        }
        score_at(program, profile, ep, &addr)
    }

    /// One chain of local block indices during merging.
    struct Chain {
        blocks: Vec<u32>,
        score: u64,
    }

    /// The best way to merge a pair of chains, cached per pair.
    struct Merge {
        gain: u64,
        arrangement: Vec<u32>,
        score: u64,
    }

    /// Greedy chain merging that rescores every pair edge of every
    /// candidate arrangement.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn merge_chains(
        n: usize,
        sizes: &[u64],
        edges: &[Edge],
        entry_local: u32,
        profile: &Profile,
        blocks: &[BlockId],
        ep: &ExtTspParams,
    ) -> Vec<u32> {
        // One chain per block to start; `chain_of[b]` names the live chain
        // (indexed by its smallest-ever root) holding block `b`.
        let mut chains: Vec<Option<Chain>> = (0..n)
            .map(|i| {
                Some(Chain {
                    blocks: vec![i as u32],
                    score: 0,
                })
            })
            .collect();
        let mut chain_of: Vec<u32> = (0..n as u32).collect();
        let mut entry_root = entry_local;

        // Undirected inter-chain adjacency (sum of edge weights), kept in
        // ordered maps so every scan below is deterministic.
        let mut adj: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); n];
        for &(f, t, w) in edges {
            if f == t {
                continue;
            }
            *adj[f as usize].entry(t).or_insert(0) += w;
            *adj[t as usize].entry(f).or_insert(0) += w;
        }

        let mut pos_scratch: Vec<u64> = vec![0; n];
        let mut best: BTreeMap<(u32, u32), Merge> = BTreeMap::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (a, nbrs) in adj.iter().enumerate() {
            for &b in nbrs.keys() {
                if (a as u32) < b {
                    pairs.push((a as u32, b));
                }
            }
        }
        for &(a, b) in &pairs {
            if let Some(m) = best_merge(
                &chains,
                a,
                b,
                sizes,
                edges,
                &chain_of,
                entry_root,
                entry_local,
                &mut pos_scratch,
                ep,
            ) {
                best.insert((a, b), m);
            }
        }

        // Highest positive gain; ties go to the smallest pair.
        fn pick_best(best: &BTreeMap<(u32, u32), Merge>) -> Option<(u32, u32)> {
            best.iter()
                .filter(|(_, m)| m.gain > 0)
                .max_by(|(ka, ma), (kb, mb)| ma.gain.cmp(&mb.gain).then(kb.cmp(ka)))
                .map(|(&k, _)| k)
        }
        while let Some((a, b)) = pick_best(&best) {
            let m = best.remove(&(a, b)).expect("just found");
            for &x in &m.arrangement {
                chain_of[x as usize] = a;
            }
            chains[a as usize] = Some(Chain {
                blocks: m.arrangement,
                score: m.score,
            });
            chains[b as usize] = None;
            if entry_root == b {
                entry_root = a;
            }

            // Rewire b's adjacency into a and drop stale cached merges.
            let b_adj: Vec<(u32, u64)> = std::mem::take(&mut adj[b as usize]).into_iter().collect();
            adj[a as usize].remove(&b);
            for (nbr, w) in b_adj {
                if nbr == a {
                    continue;
                }
                adj[nbr as usize].remove(&b);
                best.remove(&(b.min(nbr), b.max(nbr)));
                *adj[a as usize].entry(nbr).or_insert(0) += w;
                *adj[nbr as usize].entry(a).or_insert(0) = adj[a as usize][&nbr];
            }
            let neighbors: Vec<u32> = adj[a as usize].keys().copied().collect();
            for nbr in neighbors {
                let key = (a.min(nbr), a.max(nbr));
                match best_merge(
                    &chains,
                    key.0,
                    key.1,
                    sizes,
                    edges,
                    &chain_of,
                    entry_root,
                    entry_local,
                    &mut pos_scratch,
                    ep,
                ) {
                    Some(m) => {
                        best.insert(key, m);
                    }
                    None => {
                        best.remove(&key);
                    }
                }
            }
        }

        // Emit: entry chain first, the rest by decreasing profile weight with
        // a deterministic root tie-break.
        let weight_of = |c: &Chain| -> u64 {
            c.blocks
                .iter()
                .map(|&i| profile.block_count(blocks[i as usize]))
                .sum()
        };
        let mut rest: Vec<(u64, u32, &Chain)> = Vec::new();
        let mut out: Vec<u32> = Vec::with_capacity(n);
        for (root, c) in chains.iter().enumerate() {
            let Some(c) = c else { continue };
            if root as u32 == entry_root {
                out.extend_from_slice(&c.blocks);
            } else {
                rest.push((weight_of(c), root as u32, c));
            }
        }
        rest.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        for (_, _, c) in rest {
            out.extend_from_slice(&c.blocks);
        }
        debug_assert_eq!(out.len(), n);
        debug_assert_eq!(out[0], entry_local);
        out
    }

    /// The best-scoring way to merge live chains `a` and `b`, or `None` when
    /// no arrangement is admissible (the entry must stay at the head of its
    /// chain).
    #[allow(clippy::too_many_arguments)]
    fn best_merge(
        chains: &[Option<Chain>],
        a: u32,
        b: u32,
        sizes: &[u64],
        edges: &[Edge],
        chain_of: &[u32],
        entry_root: u32,
        entry_local: u32,
        pos_scratch: &mut [u64],
        ep: &ExtTspParams,
    ) -> Option<Merge> {
        let ca = chains[a as usize].as_ref()?;
        let cb = chains[b as usize].as_ref()?;
        let has_entry = a == entry_root || b == entry_root;

        // Edges with both endpoints inside the merged pair.
        let in_pair = |x: u32| chain_of[x as usize] == a || chain_of[x as usize] == b;
        let pair_edges: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|&(f, t, _)| in_pair(f) && in_pair(t))
            .collect();

        let score_arrangement = |order: &[u32], pos: &mut [u64]| -> u64 {
            let mut cur = 0u64;
            for &x in order {
                pos[x as usize] = cur;
                cur += sizes[x as usize];
            }
            let mut total = 0u64;
            for &(f, t, w) in &pair_edges {
                total += edge_score(ep, w, pos[f as usize] + sizes[f as usize], pos[t as usize]);
            }
            total
        };

        let mut best: Option<(u64, Vec<u32>)> = None;
        let mut consider = |order: Vec<u32>, pos: &mut [u64]| {
            if has_entry && order[0] != entry_local {
                return;
            }
            let s = score_arrangement(&order, pos);
            if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                best = Some((s, order));
            }
        };

        let concat = |x: &[u32], y: &[u32]| {
            let mut v = Vec::with_capacity(x.len() + y.len());
            v.extend_from_slice(x);
            v.extend_from_slice(y);
            v
        };
        consider(concat(&ca.blocks, &cb.blocks), pos_scratch);
        consider(concat(&cb.blocks, &ca.blocks), pos_scratch);
        // Score-driven merge points: nest one chain inside a split of the
        // other, at every admissible seam.
        if ca.blocks.len() as u64 <= ep.split_cap {
            for k in 1..ca.blocks.len() {
                let mut v = Vec::with_capacity(ca.blocks.len() + cb.blocks.len());
                v.extend_from_slice(&ca.blocks[..k]);
                v.extend_from_slice(&cb.blocks);
                v.extend_from_slice(&ca.blocks[k..]);
                consider(v, pos_scratch);
            }
        }
        if cb.blocks.len() as u64 <= ep.split_cap {
            for k in 1..cb.blocks.len() {
                let mut v = Vec::with_capacity(ca.blocks.len() + cb.blocks.len());
                v.extend_from_slice(&cb.blocks[..k]);
                v.extend_from_slice(&ca.blocks);
                v.extend_from_slice(&cb.blocks[k..]);
                consider(v, pos_scratch);
            }
        }

        let (score, arrangement) = best?;
        let gain = score.saturating_sub(ca.score + cb.score);
        Some(Merge {
            gain,
            arrangement,
            score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_proc;
    use crate::{LayoutSeries, ParamKnob, ParamSpace};
    use codelayout_ir::testgen::{random_program, GenConfig};
    use codelayout_ir::{verify_layout, Cond, Operand, ProcBuilder, ProgramBuilder, Reg};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::RangeInclusive;

    /// The chaining fixture: entry(b0) -> hot(b1)/cold(b2); both join at
    /// b3; b3 loops to b0 or exits to b4.
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
    fn fallthrough_outscores_short_jumps() {
        let ep = ExtTspParams::default();
        assert_eq!(edge_score(&ep, 10, 100, 100), 10 * SCORE_SCALE);
        // Forward jump inside the window scores a fraction of 0.1 * w.
        let fwd = edge_score(&ep, 10, 100, 200);
        assert!(fwd > 0 && fwd < 10 * ep.jump_weight);
        // Backward jumps have the tighter window.
        assert_eq!(edge_score(&ep, 10, 100 + BACKWARD_WINDOW, 100), 0);
        assert!(edge_score(&ep, 10, 100 + BACKWARD_WINDOW - 4, 100) > 0);
        // Outside both windows: nothing.
        assert_eq!(edge_score(&ep, 10, 100, 100 + FORWARD_WINDOW), 0);
    }

    #[test]
    fn parameterized_windows_move_the_score() {
        let ep = ExtTspParams {
            forward_window: 64,
            ..ExtTspParams::default()
        };
        // A 100-byte forward jump scores under the default window but not
        // under the shrunk one.
        assert!(edge_score(&ExtTspParams::default(), 10, 100, 200) > 0);
        assert_eq!(edge_score(&ep, 10, 100, 200), 0);
        // Defaults keep the legacy order bit-identical.
        let prog = fig1_program();
        let prof = fig1_profile();
        assert_eq!(
            exttsp_proc_order_with(&prog, &prof, ProcId(0), &LayoutParams::default()),
            exttsp_proc_order(&prog, &prof, ProcId(0))
        );
    }

    #[test]
    fn hot_path_is_sequential_and_entry_leads() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let order = exttsp_proc_order(&prog, &prof, ProcId(0));
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], BlockId(0), "entry first: {order:?}");
        let pos: Vec<usize> = {
            let mut v = vec![0; 5];
            for (i, b) in order.iter().enumerate() {
                v[b.index()] = i;
            }
            v
        };
        assert_eq!(pos[1], pos[0] + 1, "hot arm falls through: {order:?}");
        assert_eq!(pos[3], pos[1] + 1, "join follows hot arm: {order:?}");
    }

    #[test]
    fn scores_at_least_the_chain_order() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let ours = exttsp_proc_order(&prog, &prof, ProcId(0));
        let chain = chain_proc(&prog, &prof, ProcId(0));
        assert!(
            span_score(&prog, &prof, &ours) >= span_score(&prog, &prof, &chain),
            "ext-TSP {ours:?} scored below chaining {chain:?}"
        );
    }

    #[test]
    fn layout_is_valid_and_score_sums_over_procs() {
        let prog = fig1_program();
        let prof = fig1_profile();
        let layout = exttsp_layout(&prog, &prof);
        verify_layout(&prog, &layout).unwrap();
        assert_eq!(
            exttsp_score(&prog, &prof, &layout),
            span_score(&prog, &prof, &layout.order)
        );
    }

    #[test]
    fn zero_profile_is_still_an_entry_first_permutation() {
        let prog = fig1_program();
        let prof = Profile::new(5);
        let order = exttsp_proc_order(&prog, &prof, ProcId(0));
        let mut sorted: Vec<u32> = order.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], BlockId(0));
    }

    /// Programs whose procedures reach 48 blocks, so merged chains grow
    /// past split caps 8, 16 and 32.
    fn wide_program(seed: u64) -> Program {
        let cfg = GenConfig {
            max_blocks: 48,
            ..GenConfig::default()
        };
        random_program(seed, &cfg)
    }

    /// A random (not flow-consistent) profile with every block and flow
    /// edge count drawn from `counts`.
    fn random_profile(program: &Program, seed: u64, counts: RangeInclusive<u64>) -> Profile {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Profile::new(program.blocks.len());
        for c in &mut p.block_counts {
            *c = rng.gen_range(counts.clone());
        }
        for (bi, b) in program.blocks.iter().enumerate() {
            for t in b.term.successors() {
                p.edge_counts
                    .insert((bi as u32, t.0), rng.gen_range(counts.clone()));
            }
        }
        p
    }

    fn exttsp_knobs() -> ParamSpace {
        ParamSpace::for_series(LayoutSeries::ExtTsp)
    }

    fn knob<'a>(space: &'a ParamSpace, name: &str) -> &'a ParamKnob {
        space
            .knobs()
            .iter()
            .find(|k| k.name() == name)
            .expect("ext-TSP knob")
    }

    /// A scorer under which the merged order always wins the candidate
    /// selection, exposing the merger's own output.
    fn no_score(_: &Program, _: &Profile, _: &ExtTspParams, _: &[BlockId]) -> u64 {
        0
    }

    /// Every procedure's merged order and final order equal the reference
    /// ones, and the span-local score of the final order equals the dense
    /// one.
    fn assert_matches_reference(program: &Program, profile: &Profile, params: &LayoutParams) {
        let ep = &params.exttsp;
        for p in 0..program.procs.len() {
            let proc = ProcId(p as u32);
            assert_eq!(
                proc_order_by(
                    program,
                    profile,
                    proc,
                    params,
                    merge_chains,
                    no_score,
                    false
                ),
                proc_order_by(
                    program,
                    profile,
                    proc,
                    params,
                    reference::merge_chains,
                    no_score,
                    false
                ),
                "{} proc {p}: merged order under {ep:?}",
                program.name
            );
            let order = exttsp_proc_order_with(program, profile, proc, params);
            assert_eq!(
                order,
                proc_order_by(
                    program,
                    profile,
                    proc,
                    params,
                    reference::merge_chains,
                    reference::span_score_dense,
                    false
                ),
                "{} proc {p}: final order under {ep:?}",
                program.name
            );
            assert_eq!(
                span_score_with(program, profile, ep, &order),
                reference::span_score_dense(program, profile, ep, &order)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Delta-scored merging picks the same orders as full rescoring,
        /// at a value drawn from one ext-TSP knob's grid combined with
        /// every split cap from 0 (concatenation only) to 64. Half the
        /// profiles draw counts from `0..=2`, where equal-scoring
        /// arrangements are common and the tie rules decide.
        #[test]
        fn delta_merging_matches_the_full_rescore_reference(
            seed in 0u64..10_000,
            pseed in 0u64..1_000,
            knob_i in 0usize..64,
            value_i in 0usize..64,
        ) {
            let program = wide_program(seed);
            let max_count = if pseed % 2 == 0 { 2 } else { 999 };
            let profile = random_profile(&program, pseed, 0..=max_count);
            let space = exttsp_knobs();
            let drawn = &space.knobs()[knob_i % space.len()];
            let mut params = LayoutParams::default();
            drawn.set(&mut params, drawn.values()[value_i % drawn.values().len()]);
            let caps = knob(&space, "exttsp.split_cap").values();
            prop_assert!(caps.contains(&0) && caps.contains(&64));
            for &cap in caps {
                params.exttsp.split_cap = cap;
                assert_matches_reference(&program, &profile, &params);
            }
        }

        /// The span-local scorer equals the program-wide one on random
        /// sub-spans, including spans that repeat blocks.
        #[test]
        fn span_local_score_matches_the_dense_reference(
            seed in 0u64..10_000,
            pseed in 0u64..1_000,
            span_seed in 0u64..1_000,
        ) {
            let program = wide_program(seed);
            let profile = random_profile(&program, pseed, 0..=999);
            let nblocks = program.blocks.len() as u32;
            let mut rng = StdRng::seed_from_u64(span_seed);
            let wide = ExtTspParams {
                jump_weight: 300,
                forward_window: 4096,
                backward_window: 2560,
                split_cap: 64,
            };
            for _ in 0..16 {
                // A run of consecutive blocks with some replaced by blocks
                // from anywhere in the program, then one block repeated.
                let start = rng.gen_range(0..nblocks);
                let mut span: Vec<BlockId> = (0..rng.gen_range(0..=64u32))
                    .map(|i| {
                        if rng.gen_range(0..4u32) == 0 {
                            BlockId(rng.gen_range(0..nblocks))
                        } else {
                            BlockId((start + i) % nblocks)
                        }
                    })
                    .collect();
                if !span.is_empty() {
                    let at = rng.gen_range(0..span.len());
                    span.insert(rng.gen_range(0..=span.len()), span[at]);
                }
                for ep in [ExtTspParams::default(), wide] {
                    prop_assert_eq!(
                        span_score_with(&program, &profile, &ep, &span),
                        reference::span_score_dense(&program, &profile, &ep, &span),
                        "span {:?}", span
                    );
                }
            }
        }
    }

    /// How [`loopy_case`] profiles one procedure.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum ProcHeat {
        /// Nothing ran.
        Cold,
        /// Only the entry block ran; no edge was taken.
        EntryOnly,
        /// Blocks ran, but only self-loop edges were taken.
        SelfLoops,
        /// Random counts on every block and edge.
        Hot,
    }

    /// A program of procedures whose blocks may loop on themselves, and a
    /// profile that leaves each procedure cold, entry-only, self-loop-only
    /// or hot (drawn per procedure).
    fn loopy_case(seed: u64) -> (Program, Profile, Vec<ProcHeat>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pb = ProgramBuilder::new(format!("loopy-{seed}"));
        let procs: Vec<ProcId> = (0..6).map(|i| pb.declare_proc(format!("p{i}"))).collect();
        for (pi, &id) in procs.iter().enumerate() {
            let mut f = ProcBuilder::new();
            let mut blocks = vec![f.entry()];
            for _ in 1..rng.gen_range(1..=10usize) {
                blocks.push(f.new_block());
            }
            let n = blocks.len();
            for i in 0..n {
                f.select(blocks[i]);
                for _ in 0..rng.gen_range(0..4u32) {
                    f.nop();
                }
                if i + 1 == n {
                    if pi == 0 {
                        f.halt();
                    } else {
                        f.ret();
                    }
                    continue;
                }
                let later = |rng: &mut StdRng| blocks[rng.gen_range(i + 1..n)];
                match rng.gen_range(0..3u32) {
                    0 => {
                        let t = later(&mut rng);
                        f.jump(t);
                    }
                    1 => {
                        let t = later(&mut rng);
                        f.branch(Cond::Ne, Reg(1), Operand::Imm(0), blocks[i], t);
                    }
                    _ => {
                        let (t, e) = (later(&mut rng), later(&mut rng));
                        f.branch(Cond::Lt, Reg(1), Operand::Imm(3), t, e);
                    }
                }
            }
            pb.define_proc(id, f).expect("generated body is valid");
        }
        let program = pb.finish(procs[0]).expect("generated program verifies");
        let mut profile = Profile::new(program.blocks.len());
        let mut heat = Vec::new();
        for proc in &program.procs {
            let h = [
                ProcHeat::Cold,
                ProcHeat::EntryOnly,
                ProcHeat::SelfLoops,
                ProcHeat::Hot,
            ][rng.gen_range(0..4usize)];
            for &b in &proc.blocks {
                let ran = match h {
                    ProcHeat::Cold => false,
                    ProcHeat::EntryOnly => b == proc.entry,
                    ProcHeat::SelfLoops | ProcHeat::Hot => true,
                };
                if ran {
                    profile.block_counts[b.index()] = rng.gen_range(1..=999);
                }
                for t in program.block(b).term.successors() {
                    if h == ProcHeat::Hot || (h == ProcHeat::SelfLoops && t == b) {
                        profile
                            .edge_counts
                            .insert((b.0, t.0), rng.gen_range(1..=999));
                    }
                }
            }
            heat.push(h);
        }
        (program, profile, heat)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A procedure with no weighted edge between distinct blocks takes
        /// the pass's shortcut and still gets the order of the full merger
        /// and candidate selection: the entry, then the other blocks by
        /// count, descending, then position. Hot procedures take the full
        /// path and match it too.
        #[test]
        fn unlinked_shortcut_matches_the_full_merger(
            seed in 0u64..100_000,
            knob_i in 0usize..64,
            value_i in 0usize..64,
        ) {
            let (program, profile, heat) = loopy_case(seed);
            let space = exttsp_knobs();
            let drawn = &space.knobs()[knob_i % space.len()];
            let mut params = LayoutParams::default();
            drawn.set(&mut params, drawn.values()[value_i % drawn.values().len()]);
            for (p, &h) in heat.iter().enumerate() {
                let proc = ProcId(p as u32);
                let order = exttsp_proc_order_with(&program, &profile, proc, &params);
                prop_assert_eq!(
                    &order,
                    &proc_order_by(
                        &program,
                        &profile,
                        proc,
                        &params,
                        reference::merge_chains,
                        reference::span_score_dense,
                        false,
                    ),
                    "proc {} ({:?})", p, h
                );
                if h != ProcHeat::Hot {
                    let blocks = &program.procs[p].blocks;
                    let mut want = blocks.clone();
                    want[1..].sort_by_key(|&b| std::cmp::Reverse(profile.block_count(b)));
                    prop_assert_eq!(&order, &want, "proc {} ({:?})", p, h);
                }
            }
        }
    }

    /// Edge weights up to 2^32 under the grid's largest jump weight and
    /// windows and its largest split cap: the signed straddle deltas
    /// neither wrap nor trip an overflow check, and the orders still
    /// match the reference.
    #[test]
    fn delta_scoring_is_exact_at_large_weights() {
        let space = exttsp_knobs();
        let mut params = LayoutParams::default();
        for name in [
            "exttsp.jump_weight",
            "exttsp.forward_window",
            "exttsp.backward_window",
            "exttsp.split_cap",
        ] {
            let k = knob(&space, name);
            k.set(&mut params, *k.values().last().expect("non-empty grid"));
        }
        for seed in 0..12 {
            let program = wide_program(seed);
            let profile = random_profile(&program, seed, (1 << 31)..=(1 << 32));
            assert_matches_reference(&program, &profile, &params);
        }
    }
}
