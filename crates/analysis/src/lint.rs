//! Layout-quality lints: stable-coded diagnostics over a linked image.
//!
//! Where [`crate::validate`] answers *"is this layout correct?"*, this
//! module answers *"is this layout any good?"*. Each lint has a stable
//! code (`L001`-style), a severity, and deterministic output, so reports
//! can be snapshotted as golden files and gated in CI. Lint activation is
//! driven by the [`OptimizationSet`] that produced the layout: a missed
//! fall-through is only a finding when chaining claimed to fix it.
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | L000 | deny | translation validation failed (semantic divergence) |
//! | L001 | warn | hottest outgoing edge is not a fall-through under chaining |
//! | L002 | warn | never-executed block glued inside a hot segment under splitting |
//! | L003 | warn | cold segment placed before a hot one of the same procedure |
//! | L004 | info | hot block straddles a cache line it could fit inside |
//! | L005 | info | unreachable code is placed in the image |
//! | L006 | warn | block's hottest predecessor is off-chain under chaining |
//! | L007 | warn | hot loop body split across cache lines/pages it could fit inside |
//! | L008 | warn | loop back edge laid out as taken although a fall-through was available |
//!
//! L007 and L008 are *loop-aware*: they run the static analysis stack
//! ([`crate::DomTree`], [`crate::LoopForest`],
//! [`crate::estimate_static_profile`]) and judge the layout against the
//! estimated loop frequencies, so they work identically with or without
//! a measured profile.

use crate::cfg::SourceCfg;
use crate::staticprof::{estimate_static_profile_with, StaticAnalysis, STATIC_ENTRY_COUNT};
use crate::validate::validate_translation;
use codelayout_core::{LayoutPipeline, OptimizationSet};
use codelayout_ir::{BlockId, Image, Layout, ProcId, Program, INSTR_BYTES};
use codelayout_profile::Profile;
use std::fmt;

/// Diagnostic severity, ordered from least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth a look, never gates anything.
    Info,
    /// Likely layout-quality regression.
    Warn,
    /// Correctness violation: fails the build.
    Deny,
}

impl Severity {
    /// Stable lowercase name used in both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`"L001"`).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Block the finding is anchored to, when block-granular.
    pub block: Option<BlockId>,
    /// Procedure the finding is anchored to.
    pub proc: Option<ProcId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        match (self.block, self.proc) {
            (Some(b), Some(p)) => write!(f, " {b} in {p}")?,
            (Some(b), None) => write!(f, " {b}")?,
            (None, Some(p)) => write!(f, " {p}")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// Lint configuration.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig {
    /// The optimization set that produced the layout; gates which lints
    /// are active (for example fall-through lints only fire when chaining
    /// claimed to arrange fall-throughs).
    pub set: OptimizationSet,
    /// Cache line size in bytes for alignment lints.
    pub line_bytes: u64,
    /// Page size in bytes for the loop-splitting lint (L007).
    pub page_bytes: u64,
    /// Per-code cap on emitted diagnostics; the overflow is summarized in
    /// [`LintReport::truncated`] so reports stay readable on big images.
    pub max_per_code: usize,
}

impl LintConfig {
    /// Default configuration for a given optimization set (128-byte lines,
    /// 4096-byte pages, at most 20 diagnostics per code).
    pub fn new(set: OptimizationSet) -> Self {
        LintConfig {
            set,
            line_bytes: 128,
            page_bytes: 4096,
            max_per_code: 20,
        }
    }
}

/// A complete lint run: findings plus per-code overflow counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Findings in deterministic order (by code, then layout position).
    pub diagnostics: Vec<Diagnostic>,
    /// `(code, dropped)` for codes that exceeded the per-code cap.
    pub truncated: Vec<(&'static str, usize)>,
}

impl LintReport {
    /// Number of findings at a given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// True when any finding is deny-level.
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Renders the report as human-readable text, one finding per line,
    /// ending with a summary line.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        for (code, dropped) in &self.truncated {
            let _ = writeln!(out, "note[{code}]: {dropped} more finding(s) suppressed");
        }
        let _ = writeln!(
            out,
            "{} deny, {} warn, {} info",
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        );
        out
    }

    /// Renders the report as a JSON value with a stable shape:
    /// `{"diagnostics": [...], "truncated": [...], "summary": {...}}`.
    pub fn to_json(&self) -> serde_json::Value {
        let diags: Vec<serde_json::Value> = self
            .diagnostics
            .iter()
            .map(|d| {
                serde_json::json!({
                    "code": d.code,
                    "severity": d.severity.as_str(),
                    "block": d.block.map(|b| b.0),
                    "proc": d.proc.map(|p| p.0),
                    "message": d.message.clone(),
                })
            })
            .collect();
        let truncated: Vec<serde_json::Value> = self
            .truncated
            .iter()
            .map(|(code, dropped)| serde_json::json!({ "code": code, "dropped": dropped }))
            .collect();
        serde_json::json!({
            "diagnostics": diags,
            "truncated": truncated,
            "summary": {
                "deny": self.count(Severity::Deny),
                "warn": self.count(Severity::Warn),
                "info": self.count(Severity::Info),
            },
        })
    }
}

/// Accumulates findings for one code, enforcing the per-code cap.
struct CodeBucket {
    code: &'static str,
    kept: Vec<Diagnostic>,
    dropped: usize,
    cap: usize,
}

impl CodeBucket {
    fn new(code: &'static str, cap: usize) -> Self {
        CodeBucket {
            code,
            kept: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    fn push(
        &mut self,
        severity: Severity,
        block: Option<BlockId>,
        proc: Option<ProcId>,
        message: String,
    ) {
        if self.kept.len() < self.cap {
            self.kept.push(Diagnostic {
                code: self.code,
                severity,
                block,
                proc,
                message,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn drain_into(self, report: &mut LintReport) {
        report.diagnostics.extend(self.kept);
        if self.dropped > 0 {
            report.truncated.push((self.code, self.dropped));
        }
    }
}

/// Validates and lints a layout in one call: translation validation first
/// (a failure becomes a single deny-level `L000` finding and suppresses
/// the quality lints, whose premises no longer hold), then the full lint
/// battery.
pub fn analyze_layout(
    program: &Program,
    profile: &Profile,
    layout: &Layout,
    image: &Image,
    config: &LintConfig,
) -> LintReport {
    if let Err(e) = validate_translation(program, layout, image) {
        let mut report = LintReport::default();
        report.diagnostics.push(Diagnostic {
            code: "L000",
            severity: Severity::Deny,
            block: None,
            proc: None,
            message: format!("translation validation failed under `{}`: {e}", config.set),
        });
        return report;
    }
    lint_layout(program, profile, layout, image, config)
}

/// Runs the quality lints (no translation validation) over a layout that
/// is assumed valid. Output order is deterministic: codes ascending, and
/// within a code, layout order.
pub fn lint_layout(
    program: &Program,
    profile: &Profile,
    layout: &Layout,
    image: &Image,
    config: &LintConfig,
) -> LintReport {
    let n = program.blocks.len();
    let owner = program.owner_of_blocks();
    let mut pos = vec![usize::MAX; n];
    for (i, &b) in layout.order.iter().enumerate() {
        pos[b.index()] = i;
    }

    let sa = StaticAnalysis::of(program);

    let mut report = LintReport::default();
    lint_fallthroughs(program, profile, layout, &owner, &pos, config, &mut report);
    lint_segments(program, profile, &pos, config, &mut report);
    lint_alignment(profile, layout, image, config, &mut report);
    lint_unreachable(program, layout, image, &sa.cfg, &pos, config, &mut report);
    lint_loops(program, layout, image, &sa, &pos, config, &mut report);
    report
}

/// L001 + L006: profile/layout disagreement around fall-throughs, active
/// only when chaining is enabled (without chaining the layout never
/// claimed to arrange them).
fn lint_fallthroughs(
    program: &Program,
    profile: &Profile,
    layout: &Layout,
    owner: &[ProcId],
    pos: &[usize],
    config: &LintConfig,
    report: &mut LintReport,
) {
    if !config.set.chain {
        return;
    }
    let n = program.blocks.len();

    // Hottest intra-procedure flow edge out of and into every block,
    // derived from terminator successors (not by iterating the profile
    // map) so the scan order — and therefore tie-breaks — is
    // deterministic.
    let mut best_out: Vec<Option<(BlockId, u64)>> = vec![None; n];
    let mut best_in: Vec<Option<(BlockId, u64)>> = vec![None; n];
    for (bi, blk) in program.blocks.iter().enumerate() {
        let b = BlockId(u32::try_from(bi).expect("block count fits u32"));
        for t in blk.term.successors() {
            if t == b || owner[t.index()] != owner[bi] {
                continue;
            }
            let w = profile.edge_count(b, t);
            if w == 0 {
                continue;
            }
            if best_out[bi].is_none_or(|(_, bw)| w > bw) {
                best_out[bi] = Some((t, w));
            }
            if best_in[t.index()].is_none_or(|(_, bw)| w > bw) {
                best_in[t.index()] = Some((b, w));
            }
        }
    }

    // Flow weight each block actually realizes across its layout seams:
    // the edge into whatever follows it, and the edge from whatever
    // precedes it (0 across procedure boundaries). An off-chain hot edge
    // is only a *finding* when it is strictly heavier than both realized
    // placements it lost to — otherwise the greedy chainer made the right
    // trade and the report would drown in inherent conflicts.
    let realized_out = |bi: usize| -> u64 {
        layout
            .order
            .get(pos[bi] + 1)
            .filter(|nb| owner[nb.index()] == owner[bi])
            .map_or(0, |&nb| {
                profile.edge_count(BlockId(u32::try_from(bi).expect("verified")), nb)
            })
    };
    let realized_in = |bi: usize| -> u64 {
        pos[bi]
            .checked_sub(1)
            .map(|i| layout.order[i])
            .filter(|lp| owner[lp.index()] == owner[bi])
            .map_or(0, |lp| {
                profile.edge_count(lp, BlockId(u32::try_from(bi).expect("verified")))
            })
    };

    let mut l001 = CodeBucket::new("L001", config.max_per_code);
    let mut l006 = CodeBucket::new("L006", config.max_per_code);
    for &b in &layout.order {
        let bi = b.index();
        if let Some((t, w)) = best_out[bi] {
            if pos[t.index()] != pos[bi] + 1 && realized_out(bi) < w && realized_in(t.index()) < w {
                l001.push(
                    Severity::Warn,
                    Some(b),
                    Some(owner[bi]),
                    format!(
                        "hottest outgoing edge {b}->{t} (count {w}) is not a fall-through \
                         even though chaining is enabled, and both blocks sit on lighter seams"
                    ),
                );
            }
        }
        if let Some((p, w)) = best_in[bi] {
            let off_chain = pos[bi].checked_sub(1).is_none_or(|i| layout.order[i] != p);
            if off_chain && realized_in(bi) < w && realized_out(p.index()) < w {
                l006.push(
                    Severity::Warn,
                    Some(b),
                    Some(owner[bi]),
                    format!(
                        "hottest predecessor {p} (count {w}) is off-chain although {b} is \
                         reached only {} time(s) from the block placed before it",
                        realized_in(bi)
                    ),
                );
            }
        }
    }
    l001.drain_into(report);
    l006.drain_into(report);
}

/// L002 + L003: segment composition and ordering, active only under
/// fine-grain splitting.
fn lint_segments(
    program: &Program,
    profile: &Profile,
    pos: &[usize],
    config: &LintConfig,
    report: &mut LintReport,
) {
    if !config.set.split {
        return;
    }
    // Recompute the same segments the pipeline placed; the layout is their
    // concatenation in some order, so each segment's position is its
    // head's position.
    let segs = LayoutPipeline::new(program, profile).segments(config.set.chain);

    let mut l002 = CodeBucket::new("L002", config.max_per_code);
    for s in &segs {
        if s.is_cold() || s.blocks.len() < 2 {
            continue;
        }
        for &b in &s.blocks {
            if profile.block_count(b) == 0 {
                l002.push(
                    Severity::Warn,
                    Some(b),
                    Some(s.proc),
                    format!(
                        "never-executed block {b} is glued inside a hot segment \
                         (weight {}) headed by {}",
                        s.weight,
                        s.head()
                    ),
                );
            }
        }
    }
    l002.drain_into(report);

    // L003 only means something once an ordering pass had the freedom to
    // sink cold segments.
    if !config.set.porder {
        return;
    }
    let mut l003 = CodeBucket::new("L003", config.max_per_code);
    let nprocs = program.procs.len();
    // Per procedure: latest-placed hot segment vs earliest-placed cold one.
    let mut first_cold: Vec<Option<usize>> = vec![None; nprocs];
    let mut last_hot: Vec<Option<usize>> = vec![None; nprocs];
    for s in &segs {
        let p = s.proc.index();
        let at = pos[s.head().index()];
        if s.is_cold() {
            if first_cold[p].is_none_or(|c| at < c) {
                first_cold[p] = Some(at);
            }
        } else if last_hot[p].is_none_or(|h| at > h) {
            last_hot[p] = Some(at);
        }
    }
    for p in 0..nprocs {
        if let (Some(c), Some(h)) = (first_cold[p], last_hot[p]) {
            if c < h {
                l003.push(
                    Severity::Warn,
                    None,
                    Some(ProcId(u32::try_from(p).expect("proc count fits u32"))),
                    format!(
                        "a cold segment (layout position {c}) is placed before a hot \
                         segment (position {h}) of the same procedure"
                    ),
                );
            }
        }
    }
    l003.drain_into(report);
}

/// L004: hot block straddles a cache-line boundary although it would fit
/// entirely inside one line if aligned.
fn lint_alignment(
    profile: &Profile,
    layout: &Layout,
    image: &Image,
    config: &LintConfig,
    report: &mut LintReport,
) {
    let line = config.line_bytes;
    if line == 0 {
        return;
    }
    let mut l004 = CodeBucket::new("L004", config.max_per_code);
    for (i, &b) in layout.order.iter().enumerate() {
        if profile.block_count(b) == 0 {
            continue;
        }
        let start = image.block_start[b.index()];
        let end = match layout.order.get(i + 1) {
            Some(&nb) => u64::from(image.block_start[nb.index()]),
            None => image.code.len() as u64,
        };
        let bytes = (end - u64::from(start)) * INSTR_BYTES;
        let first = image.addr(start);
        let last = first + bytes - 1;
        if bytes <= line && first / line != last / line {
            l004.push(
                Severity::Info,
                Some(b),
                Some(image.owner[b.index()]),
                format!(
                    "hot block {b} ({bytes} bytes at {first:#x}) straddles a \
                     {line}-byte line boundary it could fit inside"
                ),
            );
        }
    }
    l004.drain_into(report);
}

/// L005: code that can never execute still occupies image space. Fully
/// dead procedures are reported once; stray dead blocks inside live
/// procedures are reported individually.
fn lint_unreachable(
    program: &Program,
    layout: &Layout,
    image: &Image,
    cfg: &SourceCfg,
    pos: &[usize],
    config: &LintConfig,
    report: &mut LintReport,
) {
    let mut l005 = CodeBucket::new("L005", config.max_per_code);
    let mut dead_proc = vec![false; program.procs.len()];
    for (pi, proc) in program.procs.iter().enumerate() {
        if proc.blocks.iter().all(|b| !cfg.reachable[b.index()]) {
            dead_proc[pi] = true;
            let instrs: usize = proc
                .blocks
                .iter()
                .map(|&b| region_len(layout, image, pos, b))
                .sum();
            l005.push(
                Severity::Info,
                None,
                Some(ProcId(u32::try_from(pi).expect("proc count fits u32"))),
                format!(
                    "procedure `{}` is unreachable but occupies {instrs} placed instruction(s)",
                    proc.name
                ),
            );
        }
    }
    for &b in &layout.order {
        if cfg.reachable[b.index()] || dead_proc[image.owner[b.index()].index()] {
            continue;
        }
        l005.push(
            Severity::Info,
            Some(b),
            Some(image.owner[b.index()]),
            format!("block {b} is unreachable but placed"),
        );
    }
    l005.drain_into(report);
}

/// L007 + L008: loop-aware placement lints, judged against the *static*
/// frequency estimate so they fire identically with or without a
/// measured profile.
///
/// * L007 (any set): a statically hot natural loop whose placed body
///   would fit inside one cache line (or one page) straddles a boundary
///   anyway.
/// * L008 (chaining only): a loop back edge is laid out as a taken
///   branch although the latch could fall through to the header and
///   both displaced seams carry less estimated weight — the classic
///   missed loop rotation.
fn lint_loops(
    program: &Program,
    layout: &Layout,
    image: &Image,
    sa: &StaticAnalysis,
    pos: &[usize],
    config: &LintConfig,
    report: &mut LintReport,
) {
    if sa.loops.loops.is_empty() {
        return;
    }
    let sprof = estimate_static_profile_with(program, sa);

    // Placed byte extents per block (0 bytes when the linker erased the
    // whole region, e.g. an empty block whose jump became fall-through).
    let region_bytes = |b: BlockId| region_len(layout, image, pos, b) as u64 * INSTR_BYTES;

    // L007 — iterate headers in layout order so findings come out in
    // layout order within the code.
    let mut l007 = CodeBucket::new("L007", config.max_per_code);
    for &b in &layout.order {
        let Some(l) = sa.loops.loops.iter().find(|l| l.header == b) else {
            continue;
        };
        let freq = sprof.block_count(l.header);
        if freq < STATIC_ENTRY_COUNT {
            continue; // not estimated hot
        }
        let mut body_bytes = 0u64;
        let mut first = u64::MAX;
        let mut last = 0u64;
        for &m in &l.blocks {
            let bytes = region_bytes(m);
            if bytes == 0 {
                continue;
            }
            let lo = image.addr(image.block_start[m.index()]);
            body_bytes += bytes;
            first = first.min(lo);
            last = last.max(lo + bytes - 1);
        }
        if body_bytes == 0 {
            continue;
        }
        for granule in [config.line_bytes, config.page_bytes] {
            if granule > 0 && body_bytes <= granule && first / granule != last / granule {
                l007.push(
                    Severity::Warn,
                    Some(l.header),
                    Some(image.owner[l.header.index()]),
                    format!(
                        "hot loop at {} (estimated frequency {freq}, {body_bytes} placed \
                         bytes) is split across a {granule}-byte boundary it could fit inside",
                        l.header
                    ),
                );
            }
        }
    }
    l007.drain_into(report);

    // L008 — only meaningful when chaining claimed to arrange
    // fall-throughs. Uses the same both-seams-lighter guard as L001,
    // with static edge weights.
    if !config.set.chain {
        return;
    }
    let static_seam_out = |bi: usize| -> u64 {
        layout
            .order
            .get(pos[bi] + 1)
            .map_or(0, |&nb| sprof.edge_count(layout.order[pos[bi]], nb))
    };
    let static_seam_in = |bi: usize| -> u64 {
        pos[bi].checked_sub(1).map_or(0, |i| {
            sprof.edge_count(layout.order[i], layout.order[pos[bi]])
        })
    };
    let mut l008 = CodeBucket::new("L008", config.max_per_code);
    for &b in &layout.order {
        let term = &program.blocks[b.index()].term;
        // Jump tables cannot fall through; returns have no back edges.
        if !matches!(
            term,
            codelayout_ir::Terminator::Jump(_) | codelayout_ir::Terminator::Branch { .. }
        ) {
            continue;
        }
        for &h in &sa.cfg.succs[b.index()] {
            if !sa.loops.is_back_edge(b, h) || pos[h.index()] == pos[b.index()] + 1 {
                continue;
            }
            let w = sprof.edge_count(b, h);
            if w == 0 || static_seam_out(b.index()) >= w || static_seam_in(h.index()) >= w {
                continue;
            }
            l008.push(
                Severity::Warn,
                Some(b),
                Some(image.owner[b.index()]),
                format!(
                    "loop back edge {b}->{h} (estimated count {w}) is laid out as a taken \
                     branch although a fall-through was available on lighter seams"
                ),
            );
        }
    }
    l008.drain_into(report);
}

/// Number of image instructions in a block's region; `pos` maps each
/// block to its index in `layout.order`.
fn region_len(layout: &Layout, image: &Image, pos: &[usize], b: BlockId) -> usize {
    let start = image.block_start[b.index()] as usize;
    let at = pos[b.index()];
    assert!(at < layout.order.len(), "block {b} present in layout");
    match layout.order.get(at + 1) {
        Some(&nb) => image.block_start[nb.index()] as usize - start,
        None => image.code.len() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codelayout_ir::link::link;
    use codelayout_ir::{Cond, LInstr, Operand, ProcBuilder, ProgramBuilder, Reg};

    /// Same shape as the validator's fixture: main (b0) calls a and z;
    /// a = entry b1 branching to hot b2 / cold b3, joining at b4; z = b5.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new("lint");
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

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn chained_pipeline_layout_is_clean_of_fallthrough_lints() {
        let p = program();
        let prof = profile(&p);
        let set = OptimizationSet::CHAIN;
        let layout = LayoutPipeline::new(&p, &prof).build(set);
        let image = link(&p, &layout, 0x1000).unwrap();
        let report = analyze_layout(&p, &prof, &layout, &image, &LintConfig::new(set));
        assert!(!report.has_deny());
        assert!(
            !codes(&report).contains(&"L001"),
            "chaining satisfied every hottest edge here: {report:?}"
        );
    }

    #[test]
    fn corrupted_image_becomes_a_single_l000_deny() {
        let p = program();
        let prof = profile(&p);
        let set = OptimizationSet::CHAIN;
        let layout = LayoutPipeline::new(&p, &prof).build(set);
        let mut image = link(&p, &layout, 0x1000).unwrap();
        let at = image.block_start[1] as usize;
        match &mut image.code[at] {
            LInstr::BrCond { target, .. } => *target = image.block_start[2],
            other => panic!("expected BrCond, got {other:?}"),
        }
        let report = analyze_layout(&p, &prof, &layout, &image, &LintConfig::new(set));
        assert!(report.has_deny());
        assert_eq!(codes(&report), vec!["L000"]);
        assert_eq!(report.count(Severity::Deny), 1);
        let text = report.render_text();
        assert!(text.contains("deny[L000]"), "{text}");
        assert!(text.contains("translation validation failed"), "{text}");
        assert!(
            text.contains("`chain`"),
            "names the optimization set: {text}"
        );
    }

    #[test]
    fn natural_layout_under_chaining_claim_fires_l001_and_l006() {
        let p = program();
        let prof = profile(&p);
        // The natural layout [0,1,2,3,4,5] leaves the hot edge b2->b4
        // non-adjacent (b3 sits between), so linting it *as if* chained
        // must flag both sides of that edge.
        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0x1000).unwrap();
        let config = LintConfig::new(OptimizationSet::CHAIN);
        let report = lint_layout(&p, &prof, &layout, &image, &config);
        let l001: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L001")
            .collect();
        assert_eq!(l001.len(), 1, "{report:?}");
        assert_eq!(l001[0].block, Some(BlockId(2)));
        assert_eq!(l001[0].severity, Severity::Warn);
        assert!(l001[0].message.contains("b2->b4"), "{}", l001[0].message);
        let l006: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L006")
            .collect();
        assert_eq!(l006.len(), 1, "{report:?}");
        assert_eq!(l006[0].block, Some(BlockId(4)));

        // Without the chaining claim, neither lint is active.
        let base = lint_layout(
            &p,
            &prof,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::BASE),
        );
        assert!(!codes(&base).contains(&"L001"));
        assert!(!codes(&base).contains(&"L006"));
    }

    #[test]
    fn cold_block_glued_into_hot_segment_fires_l002() {
        // Entry branches to two never-executed blocks; chaining glues one
        // of them (via a zero-weight edge) onto the hot entry, and the
        // conditional terminator prevents splitting from cutting it out.
        let mut pb = ProgramBuilder::new("l002");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let a = f.new_block();
        let b = f.new_block();
        f.select(e);
        f.branch(Cond::Eq, Reg(1), Operand::Imm(0), a, b);
        f.select(a);
        f.halt();
        f.select(b);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let p = pb.finish(main).unwrap();
        let mut prof = Profile::new(3);
        prof.block_counts = vec![100, 0, 0];

        let set = OptimizationSet::CHAIN_SPLIT;
        let layout = LayoutPipeline::new(&p, &prof).build(set);
        let image = link(&p, &layout, 0).unwrap();
        let report = lint_layout(&p, &prof, &layout, &image, &LintConfig::new(set));
        let l002: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L002")
            .collect();
        assert_eq!(l002.len(), 1, "{report:?}");
        assert_eq!(l002[0].block, Some(BlockId(1)));
    }

    #[test]
    fn cold_segment_ahead_of_hot_one_fires_l003() {
        let p = program();
        let mut prof = profile(&p);
        // Make the cold arm truly cold: never executed and never entered,
        // so proc a splits into a hot entry segment and a cold [b3].
        prof.block_counts[3] = 0;
        prof.edge_counts.insert((1, 3), 0);
        prof.edge_counts.insert((3, 4), 0);
        let set = OptimizationSet::ALL;
        // Hand-build a layout that fronts a's cold segment (b3) before its
        // hot segments; segments are recomputed from program + profile, so
        // only the placement is unusual.
        let layout = Layout {
            order: vec![
                BlockId(3),
                BlockId(0),
                BlockId(1),
                BlockId(2),
                BlockId(4),
                BlockId(5),
            ],
        };
        let image = link(&p, &layout, 0).unwrap();
        let report = lint_layout(&p, &prof, &layout, &image, &LintConfig::new(set));
        let l003: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L003")
            .collect();
        assert_eq!(l003.len(), 1, "{report:?}");
        assert_eq!(l003[0].proc, Some(ProcId(1)));

        // The pipeline's own `all` layout sinks cold segments; no L003.
        let good = LayoutPipeline::new(&p, &prof).build(set);
        let good_image = link(&p, &good, 0).unwrap();
        let good_report = lint_layout(&p, &prof, &good, &good_image, &LintConfig::new(set));
        assert!(!codes(&good_report).contains(&"L003"), "{good_report:?}");
    }

    #[test]
    fn hot_block_straddling_a_line_fires_l004() {
        // b0 (1 instr after the fall-through erases its jump) then b1
        // (nop + halt, 8 bytes) starting at instruction 1: with 8-byte
        // lines, b1 spans bytes 4..=11 — two lines — yet would fit in one.
        let mut pb = ProgramBuilder::new("l004");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let b1 = f.new_block();
        f.select(e);
        f.nop();
        f.jump(b1);
        f.select(b1);
        f.nop();
        f.halt();
        pb.define_proc(main, f).unwrap();
        let p = pb.finish(main).unwrap();
        let mut prof = Profile::new(2);
        prof.block_counts = vec![10, 10];
        prof.edge_counts.insert((0, 1), 10);

        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0).unwrap();
        assert_eq!(image.code.len(), 3, "jump erased by fall-through");
        let mut config = LintConfig::new(OptimizationSet::BASE);
        config.line_bytes = 8;
        let report = lint_layout(&p, &prof, &layout, &image, &config);
        let l004: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L004")
            .collect();
        assert_eq!(l004.len(), 1, "{report:?}");
        assert_eq!(l004[0].block, Some(BlockId(1)));
        assert_eq!(l004[0].severity, Severity::Info);
    }

    #[test]
    fn unreachable_code_fires_l005_grouped_by_procedure() {
        // main: b0 halts, b1 is orphaned; `dead` proc is never called.
        let mut pb = ProgramBuilder::new("l005");
        let main = pb.declare_proc("main");
        let dead = pb.declare_proc("dead");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let orphan = f.new_block();
        f.select(e);
        f.halt();
        f.select(orphan);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let mut g = ProcBuilder::new();
        g.nop();
        g.ret();
        pb.define_proc(dead, g).unwrap();
        let p = pb.finish(main).unwrap();
        let prof = Profile::new(p.blocks.len());

        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0).unwrap();
        let report = lint_layout(
            &p,
            &prof,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::BASE),
        );
        let l005: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L005")
            .collect();
        // One grouped finding for `dead`, one block-level for the orphan.
        assert_eq!(l005.len(), 2, "{report:?}");
        assert!(l005
            .iter()
            .any(|d| d.proc == Some(ProcId(1)) && d.block.is_none()));
        assert!(l005.iter().any(|d| d.block == Some(BlockId(1))));
    }

    /// Loop fixture for the loop-aware lints: e -> h; h -> l; latch l
    /// branches back to h or exits to x.
    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new("loops");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let h = f.new_block();
        let l = f.new_block();
        let x = f.new_block();
        f.select(e);
        f.jump(h);
        f.select(h);
        f.nop();
        f.jump(l);
        f.select(l);
        f.branch(Cond::Lt, Reg(1), Operand::Imm(100), h, x);
        f.select(x);
        f.halt();
        pb.define_proc(main, f).unwrap();
        pb.finish(main).unwrap()
    }

    #[test]
    fn split_hot_loop_fires_l007() {
        // Self-loop h occupies 8 bytes starting at byte 4: with 8-byte
        // "lines" it spans two although it would fit in one.
        let mut pb = ProgramBuilder::new("l007");
        let main = pb.declare_proc("main");
        let mut f = ProcBuilder::new();
        let e = f.entry();
        let h = f.new_block();
        let x = f.new_block();
        f.select(e);
        f.nop();
        f.jump(h);
        f.select(h);
        f.nop();
        f.branch(Cond::Lt, Reg(1), Operand::Imm(100), h, x);
        f.select(x);
        f.halt();
        pb.define_proc(main, f).unwrap();
        let p = pb.finish(main).unwrap();
        let prof = Profile::new(p.blocks.len());

        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0).unwrap();
        let mut config = LintConfig::new(OptimizationSet::BASE);
        config.line_bytes = 8;
        let report = lint_layout(&p, &prof, &layout, &image, &config);
        let l007: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L007")
            .collect();
        assert_eq!(l007.len(), 1, "{report:?}");
        assert_eq!(l007[0].block, Some(BlockId(1)), "anchored at the header");
        assert_eq!(l007[0].severity, Severity::Warn);
        assert!(
            l007[0].message.contains("8-byte boundary"),
            "{}",
            l007[0].message
        );

        // Aligned at base 0 the same loop fits its line: no finding.
        let aligned = Layout {
            order: vec![BlockId(1), BlockId(0), BlockId(2)],
        };
        let aligned_image = link(&p, &aligned, 0).unwrap();
        let clean = lint_layout(&p, &prof, &aligned, &aligned_image, &config);
        assert!(!codes(&clean).contains(&"L007"), "{clean:?}");
    }

    #[test]
    fn unrotated_back_edge_fires_l008_under_chaining_only() {
        let p = loop_program();
        let prof = Profile::new(p.blocks.len());
        // Natural layout [e, h, l, x]: the back edge l->h is a taken
        // branch, and both seams (l->x, e->h) carry less estimated
        // weight than the back edge.
        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0).unwrap();
        let report = lint_layout(
            &p,
            &prof,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::CHAIN),
        );
        let l008: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "L008")
            .collect();
        assert_eq!(l008.len(), 1, "{report:?}");
        assert_eq!(l008[0].block, Some(BlockId(2)), "anchored at the latch");
        assert_eq!(l008[0].severity, Severity::Warn);

        // Rotated layout [e, l, h, x] realizes the back edge as a
        // fall-through: clean.
        let rotated = Layout {
            order: vec![BlockId(0), BlockId(2), BlockId(1), BlockId(3)],
        };
        let rotated_image = link(&p, &rotated, 0).unwrap();
        let clean = lint_layout(
            &p,
            &prof,
            &rotated,
            &rotated_image,
            &LintConfig::new(OptimizationSet::CHAIN),
        );
        assert!(!codes(&clean).contains(&"L008"), "{clean:?}");

        // Without the chaining claim the lint is inactive.
        let base = lint_layout(
            &p,
            &prof,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::BASE),
        );
        assert!(!codes(&base).contains(&"L008"));
    }

    #[test]
    fn per_code_cap_truncates_and_reports_overflow() {
        let p = program();
        let prof = profile(&p);
        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0x1000).unwrap();
        let mut config = LintConfig::new(OptimizationSet::CHAIN);
        config.max_per_code = 0;
        let report = lint_layout(&p, &prof, &layout, &image, &config);
        assert!(report.diagnostics.is_empty());
        assert!(
            report.truncated.iter().any(|&(c, n)| c == "L001" && n == 1),
            "{report:?}"
        );
        let text = report.render_text();
        assert!(text.contains("suppressed"), "{text}");
    }

    #[test]
    fn json_report_has_stable_shape() {
        let p = program();
        let prof = profile(&p);
        let layout = Layout::natural(&p);
        let image = link(&p, &layout, 0x1000).unwrap();
        let report = lint_layout(
            &p,
            &prof,
            &layout,
            &image,
            &LintConfig::new(OptimizationSet::CHAIN),
        );
        let v = report.to_json();
        let diags = v.get("diagnostics").as_array().unwrap();
        assert_eq!(diags.len(), report.diagnostics.len());
        for d in diags {
            assert!(d.get("code").as_str().unwrap().starts_with('L'));
            assert!(!d.get("severity").as_str().unwrap().is_empty());
            assert!(!d.get("message").as_str().unwrap().is_empty());
        }
        let summary = v.get("summary");
        assert_eq!(
            summary.get("warn").as_u64().unwrap(),
            report.count(Severity::Warn) as u64
        );
        assert_eq!(summary.get("deny").as_u64().unwrap(), 0);
    }
}
