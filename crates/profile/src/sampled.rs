//! Sampled **edge** profiling for continuous (serving-loop) use.
//!
//! The offline collectors in [`crate::PixieCollector`] and
//! [`crate::SampledCollector`] answer the paper's question: profile once,
//! lay out once. A serving loop needs something different — a profiler
//! cheap enough to leave attached forever, whose output can be *aged* so
//! the live picture tracks workload drift. This module provides the three
//! pieces:
//!
//! * [`EdgeSampler`] — an [`ExecHook`] that samples every Nth control
//!   transfer (flow edge or call) into a mergeable [`SampleShard`];
//! * [`DecayedEdgeCounts`] — an exponentially decayed accumulator of
//!   shards, in exact integer arithmetic so accumulation is deterministic
//!   regardless of worker count or merge order;
//! * [`profile_from_edge_samples`] — reconstructs a full [`Profile`] from
//!   the decayed edge counts, scaling by the sampling period and deriving
//!   block counts from edge flow.
//!
//! It also hosts the block-sample estimation path a study's sampled
//! profile source uses ([`block_sizes`] + [`profile_from_block_samples`],
//! the `sampled:N:<series>` layout requests), so those requests and the
//! serving loop share one tested implementation.

use crate::collect::{SampledCollector, Stream};
use crate::data::Profile;
use crate::estimate::estimate_edges_from_blocks;
use codelayout_ir::{BlockId, ProcId, Program};
use codelayout_vm::ExecHook;
use std::collections::BTreeMap;

/// A mergeable bag of sampled control-transfer counts.
///
/// One shard per worker: workers sample lock-free into their own shard and
/// the epoch boundary merges them. `BTreeMap` keeps iteration (and thus
/// every downstream computation) deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleShard {
    /// Sampled flow-edge hits, keyed by `(from_block, to_block)`.
    pub edges: BTreeMap<(u32, u32), u64>,
    /// Sampled call hits, keyed by `(from_block, callee_proc)`.
    pub calls: BTreeMap<(u32, u32), u64>,
    /// Control transfers observed (sampled or not) — the denominator of
    /// the effective sampling rate.
    pub events: u64,
    /// Samples actually taken (edge + call hits).
    pub samples: u64,
}

impl SampleShard {
    /// An empty shard.
    pub fn new() -> Self {
        SampleShard::default()
    }

    /// True when no event has been observed.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Folds another worker's shard into this one. Order-independent:
    /// merging is plain addition on disjoint-or-equal keys.
    pub fn merge(&mut self, other: &SampleShard) {
        for (&k, &v) in &other.edges {
            *self.edges.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.calls {
            *self.calls.entry(k).or_insert(0) += v;
        }
        self.events += other.events;
        self.samples += other.samples;
    }
}

/// Low-overhead sampling profiler: every `period`-th control transfer
/// (flow edge or call) on the observed stream records one sample into the
/// worker's [`SampleShard`].
///
/// Unlike [`SampledCollector`] (which samples retired *instructions* and
/// therefore needs per-tick bookkeeping), this hook only runs on block
/// terminators — the hot path of a measured run never sees it.
#[derive(Debug, Clone)]
pub struct EdgeSampler {
    stream: Stream,
    period: u64,
    countdown: u64,
    /// `period - countdown` at the last [`EdgeSampler::take_shard`]:
    /// event totals are derived from the countdown on demand rather
    /// than counted per event, keeping the hot path to one decrement.
    taken_consumed: u64,
    shard: SampleShard,
}

impl EdgeSampler {
    /// Samples the user stream every `period` control transfers.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn user(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        EdgeSampler {
            stream: Stream::User,
            period,
            countdown: period,
            taken_consumed: 0,
            shard: SampleShard::new(),
        }
    }

    /// Samples the kernel stream every `period` control transfers.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn kernel(period: u64) -> Self {
        EdgeSampler {
            stream: Stream::Kernel,
            ..Self::user(period)
        }
    }

    /// The configured sampling period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Events consumed from the current countdown cycle.
    #[inline]
    fn consumed(&self) -> u64 {
        self.period - self.countdown
    }

    /// Control transfers observed on the sampled stream since the last
    /// [`EdgeSampler::take_shard`], derived from the countdown state.
    pub fn pending_events(&self) -> u64 {
        self.shard.samples * self.period + self.consumed() - self.taken_consumed
    }

    /// A copy of the shard accumulated so far, with the event total
    /// materialized.
    pub fn shard(&self) -> SampleShard {
        let mut shard = self.shard.clone();
        shard.events = self.pending_events();
        shard
    }

    /// Takes the accumulated shard, leaving the sampler empty (the
    /// countdown keeps running so sampling stays periodic across epochs).
    pub fn take_shard(&mut self) -> SampleShard {
        let events = self.pending_events();
        self.taken_consumed = self.consumed();
        let mut shard = std::mem::take(&mut self.shard);
        shard.events = events;
        shard
    }

    #[inline]
    fn wants(&self, kernel: bool) -> bool {
        matches!(
            (self.stream, kernel),
            (Stream::User, false) | (Stream::Kernel, true)
        )
    }

    /// One-in-`period` sample of a flow edge. `#[cold]` keeps the
    /// countdown reset and map insert out of the inlined hot path, so
    /// the per-transfer cost is a decrement and a predicted branch.
    #[cold]
    fn sample_edge(&mut self, from: BlockId, to: BlockId) {
        self.countdown = self.period;
        self.shard.samples += 1;
        *self.shard.edges.entry((from.0, to.0)).or_insert(0) += 1;
    }

    /// One-in-`period` sample of a call edge; see [`Self::sample_edge`].
    #[cold]
    fn sample_call(&mut self, from_block: BlockId, callee: ProcId) {
        self.countdown = self.period;
        self.shard.samples += 1;
        *self
            .shard
            .calls
            .entry((from_block.0, callee.0))
            .or_insert(0) += 1;
    }
}

impl ExecHook for EdgeSampler {
    #[inline]
    fn edge(&mut self, kernel: bool, from: BlockId, to: BlockId) {
        if self.wants(kernel) {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.sample_edge(from, to);
            }
        }
    }

    #[inline]
    fn call(&mut self, kernel: bool, from_block: BlockId, callee: ProcId) {
        if self.wants(kernel) {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.sample_call(from_block, callee);
            }
        }
    }
}

/// Exponentially decayed accumulation of [`SampleShard`]s across epochs.
///
/// Each epoch boundary first decays every retained count by `num/den`
/// (integer floor, zeros dropped), then absorbs the epoch's fresh shard.
/// Integer arithmetic keeps the result bit-identical across runs; the
/// floor means counts below `den/num` evaporate, which is exactly the
/// staleness behaviour we want from old phases.
#[derive(Debug, Clone)]
pub struct DecayedEdgeCounts {
    /// Decayed flow-edge sample counts.
    pub edges: BTreeMap<(u32, u32), u64>,
    /// Decayed call sample counts.
    pub calls: BTreeMap<(u32, u32), u64>,
    num: u64,
    den: u64,
}

impl DecayedEdgeCounts {
    /// Creates an accumulator with decay factor `num/den` per epoch.
    ///
    /// # Panics
    /// Panics unless `0 < num <= den`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(num > 0 && den >= num, "decay factor must be in (0, 1]");
        DecayedEdgeCounts {
            edges: BTreeMap::new(),
            calls: BTreeMap::new(),
            num,
            den,
        }
    }

    /// Ages every retained count by one epoch.
    pub fn decay(&mut self) {
        let (num, den) = (self.num as u128, self.den as u128);
        let age = |m: &mut BTreeMap<(u32, u32), u64>| {
            m.retain(|_, c| {
                *c = (*c as u128 * num / den) as u64;
                *c > 0
            });
        };
        age(&mut self.edges);
        age(&mut self.calls);
    }

    /// Adds a fresh epoch shard (call [`DecayedEdgeCounts::decay`] first
    /// to age history).
    pub fn absorb(&mut self, shard: &SampleShard) {
        for (&k, &v) in &shard.edges {
            *self.edges.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &shard.calls {
            *self.calls.entry(k).or_insert(0) += v;
        }
    }
}

/// L1 distance between two edge-count *distributions*, in milli-units
/// (0 = identical, 2000 = disjoint support).
///
/// Both maps are normalized by their own totals, so absolute sample
/// volume cancels; the arithmetic is exact integer throughout
/// (`|a·B − b·A|` summed over the key union, scaled by `1000 / (A·B)`),
/// so the score is deterministic. Returns 0 when either side is empty
/// (no evidence of drift).
pub fn edge_l1_milli(
    live: &BTreeMap<(u32, u32), u64>,
    reference: &BTreeMap<(u32, u32), u64>,
) -> u64 {
    let a_total: u64 = live.values().sum();
    let b_total: u64 = reference.values().sum();
    if a_total == 0 || b_total == 0 {
        return 0;
    }
    let (big_a, big_b) = (a_total as u128, b_total as u128);
    let mut num: u128 = 0;
    for (k, &a) in live {
        let b = reference.get(k).copied().unwrap_or(0);
        num += (a as u128 * big_b).abs_diff(b as u128 * big_a);
    }
    for (k, &b) in reference {
        if !live.contains_key(k) {
            num += b as u128 * big_a;
        }
    }
    (num * 1000 / (big_a * big_b)) as u64
}

/// Reconstructs a full [`Profile`] from decayed edge samples.
///
/// Edge and call counts are the retained samples scaled by the sampling
/// period. Block counts are derived from flow: a block's count is the
/// larger of its scaled inflow and outflow (inflow includes calls into
/// its procedure's entry block), which keeps the estimate conservative on
/// blocks whose incoming edges were never sampled.
pub fn profile_from_edge_samples(
    program: &Program,
    counts: &DecayedEdgeCounts,
    period: u64,
) -> Profile {
    let n = program.blocks.len();
    let mut p = Profile::new(n);
    let mut inflow = vec![0u64; n];
    let mut outflow = vec![0u64; n];

    for (&(from, to), &c) in &counts.edges {
        let scaled = c.saturating_mul(period);
        if scaled == 0 {
            continue;
        }
        *p.edge_counts.entry((from, to)).or_insert(0) += scaled;
        if let Some(o) = outflow.get_mut(from as usize) {
            *o += scaled;
        }
        if let Some(i) = inflow.get_mut(to as usize) {
            *i += scaled;
        }
    }
    for (&(from, callee), &c) in &counts.calls {
        let scaled = c.saturating_mul(period);
        if scaled == 0 {
            continue;
        }
        *p.call_counts.entry((from, callee)).or_insert(0) += scaled;
        if let Some(proc) = program.procs.get(callee as usize) {
            if let Some(i) = inflow.get_mut(proc.entry.index()) {
                *i += scaled;
            }
        }
    }
    for (i, count) in p.block_counts.iter_mut().enumerate() {
        *count = inflow[i].max(outflow[i]);
    }
    p
}

/// Per-block instruction sizes for sample-rate normalization: the body
/// plus one slot for the terminator, matching the lowered form closely
/// enough for estimation.
pub fn block_sizes(program: &Program) -> Vec<usize> {
    program.blocks.iter().map(|b| b.instrs.len() + 1).collect()
}

/// The DCPI path end to end: converts a [`SampledCollector`]'s block
/// samples into a full profile by normalizing for block size, scaling by
/// the period, and estimating edge weights from the block counts (as
/// Spike does when given sampled profiles).
pub fn profile_from_block_samples(program: &Program, sampler: &SampledCollector) -> Profile {
    let counts = sampler.estimated_block_counts(&block_sizes(program));
    estimate_edges_from_blocks(program, &counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(edges: &[((u32, u32), u64)]) -> BTreeMap<(u32, u32), u64> {
        edges.iter().copied().collect()
    }

    #[test]
    fn sampler_takes_every_period_th_transfer() {
        let mut s = EdgeSampler::user(3);
        for _ in 0..6 {
            s.edge(false, BlockId(0), BlockId(1));
        }
        assert_eq!(s.shard().events, 6);
        assert_eq!(s.shard().samples, 2);
        assert_eq!(s.shard().edges[&(0, 1)], 2);
    }

    #[test]
    fn sampler_counts_calls_and_edges_on_one_countdown() {
        let mut s = EdgeSampler::user(2);
        s.edge(false, BlockId(0), BlockId(1)); // countdown 2 -> 1
        s.call(false, BlockId(1), ProcId(7)); // countdown 1 -> sample
        assert_eq!(s.shard().samples, 1);
        assert!(s.shard().edges.is_empty());
        assert_eq!(s.shard().calls[&(1, 7)], 1);
    }

    #[test]
    fn sampler_filters_by_stream() {
        let mut s = EdgeSampler::user(1);
        s.edge(true, BlockId(0), BlockId(1));
        assert!(s.shard().is_empty());
        let mut k = EdgeSampler::kernel(1);
        k.edge(true, BlockId(0), BlockId(1));
        assert_eq!(k.shard().edges[&(0, 1)], 1);
    }

    #[test]
    fn take_shard_preserves_the_countdown() {
        let mut s = EdgeSampler::user(3);
        s.edge(false, BlockId(0), BlockId(1));
        let first = s.take_shard();
        assert_eq!(first.events, 1);
        assert!(s.shard().is_empty());
        // Two more events complete the original period of 3.
        s.edge(false, BlockId(0), BlockId(1));
        s.edge(false, BlockId(0), BlockId(1));
        assert_eq!(s.shard().samples, 1);
    }

    #[test]
    fn shard_merge_is_addition() {
        let mut a = SampleShard::new();
        a.edges.insert((0, 1), 2);
        a.events = 10;
        a.samples = 2;
        let mut b = SampleShard::new();
        b.edges.insert((0, 1), 1);
        b.edges.insert((1, 2), 5);
        b.calls.insert((2, 0), 3);
        b.events = 20;
        b.samples = 9;
        a.merge(&b);
        assert_eq!(a.edges[&(0, 1)], 3);
        assert_eq!(a.edges[&(1, 2)], 5);
        assert_eq!(a.calls[&(2, 0)], 3);
        assert_eq!(a.events, 30);
        assert_eq!(a.samples, 11);
    }

    #[test]
    fn decay_halves_and_drops_zeros() {
        let mut d = DecayedEdgeCounts::new(1, 2);
        let mut s = SampleShard::new();
        s.edges.insert((0, 1), 8);
        s.edges.insert((1, 2), 1);
        d.absorb(&s);
        d.decay();
        assert_eq!(d.edges.get(&(0, 1)), Some(&4));
        assert_eq!(d.edges.get(&(1, 2)), None); // 1/2 floors to 0
        d.decay();
        d.decay();
        assert_eq!(d.edges.get(&(0, 1)), Some(&1));
        d.decay();
        assert!(d.edges.is_empty());
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn decay_factor_above_one_panics() {
        let _ = DecayedEdgeCounts::new(3, 2);
    }

    #[test]
    fn l1_identical_distributions_score_zero() {
        let a = shard(&[((0, 1), 10), ((1, 2), 30)]);
        let b = shard(&[((0, 1), 1), ((1, 2), 3)]); // same shape, 10x volume
        assert_eq!(edge_l1_milli(&a, &b), 0);
    }

    #[test]
    fn l1_disjoint_distributions_score_two_thousand() {
        let a = shard(&[((0, 1), 5)]);
        let b = shard(&[((7, 8), 11)]);
        assert_eq!(edge_l1_milli(&a, &b), 2000);
    }

    #[test]
    fn l1_partial_overlap_is_exact() {
        // a = {x: 3/4, y: 1/4}, b = {x: 1/4, y: 3/4}:
        // L1 = |3/4-1/4| + |1/4-3/4| = 1.0 exactly.
        let a = shard(&[((0, 1), 3), ((1, 2), 1)]);
        let b = shard(&[((0, 1), 1), ((1, 2), 3)]);
        assert_eq!(edge_l1_milli(&a, &b), 1000);
        // Symmetric.
        assert_eq!(edge_l1_milli(&b, &a), 1000);
    }

    #[test]
    fn l1_empty_side_scores_zero() {
        let a = shard(&[((0, 1), 5)]);
        assert_eq!(edge_l1_milli(&a, &BTreeMap::new()), 0);
        assert_eq!(edge_l1_milli(&BTreeMap::new(), &a), 0);
    }

    fn branchy_program() -> Program {
        use codelayout_ir::{Cond, Operand, ProcBuilder, ProgramBuilder, Reg};
        let mut pb = ProgramBuilder::new("s");
        let main = pb.declare_proc("main");
        let leaf = pb.declare_proc("leaf");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let hot = f.new_block();
        let cold = f.new_block();
        let done = f.new_block();
        f.select(e);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), hot, cold);
        f.select(hot);
        f.call(leaf);
        f.jump(done);
        f.select(cold);
        f.jump(done);
        f.select(done);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let mut g = ProcBuilder::new();
        g.nop();
        g.ret();
        pb.define_proc(leaf, g).unwrap();
        pb.finish(main).unwrap()
    }

    #[test]
    fn profile_reconstruction_scales_by_period_and_flows_blocks() {
        // Blocks: main entry=0, hot=1, cold=2, done=3; leaf entry=4.
        let program = branchy_program();
        let mut d = DecayedEdgeCounts::new(1, 1);
        let mut s = SampleShard::new();
        s.edges.insert((0, 1), 9);
        s.edges.insert((0, 2), 1);
        s.edges.insert((1, 3), 9);
        s.edges.insert((2, 3), 1);
        s.calls.insert((1, 1), 9); // callee ProcId(1) = leaf, entry block 4
        d.absorb(&s);
        let p = profile_from_edge_samples(&program, &d, 64);
        assert_eq!(p.edge_count(BlockId(0), BlockId(1)), 9 * 64);
        assert_eq!(p.call_counts[&(1, 1)], 9 * 64);
        // Block 0: outflow (9+1)*64, no inflow.
        assert_eq!(p.block_counts[0], 10 * 64);
        // Block 3: inflow (9+1)*64, no outflow.
        assert_eq!(p.block_counts[3], 10 * 64);
        // Leaf entry: inflow from calls only.
        assert_eq!(p.block_counts[4], 9 * 64);
    }

    #[test]
    fn block_sizes_count_the_terminator() {
        let program = branchy_program();
        let sizes = block_sizes(&program);
        assert_eq!(sizes.len(), program.blocks.len());
        // main entry holds only its branch terminator.
        assert_eq!(sizes[0], 1);
        // leaf entry: nop + ret.
        assert_eq!(sizes[4], 2);
    }
}
