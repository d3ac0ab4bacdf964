#!/usr/bin/env python3
"""Regenerates EXPERIMENTS.md from results/*.json (produced by `run_all`).

Usage: python3 tools/gen_experiments.py  (from the repository root)
"""
import json

R = lambda n: json.load(open(f"results/{n}.json"))

f3 = R("fig03"); f5 = R("fig05"); f7 = R("fig07"); f8 = R("fig08")
f9 = R("fig09"); f11 = R("fig11"); f12 = R("fig12"); f13 = R("fig13")
f14 = R("fig14"); f15 = R("fig15"); cl = R("claims"); fst = R("fig_static")
ftu = R("fig_tune"); cmp = R("compare"); abl = R("ablations")
m = cl["measured"]
am = abl["measured"]


def curve3():
    return "\n".join(
        f"| {p['pct']}% | {p['bytes']//1024} KB |" for p in f3["measured"]["curve"]
    )


def fig7_table():
    out = ["| layout | 32KB | 64KB | 128KB | 256KB | 512KB |", "|---|---|---|---|---|---|"]
    for name in ["base", "porder", "chain", "chain+split", "chain+porder", "all"]:
        cells = f7["measured"][name]
        out.append("| " + name + " | " + " | ".join(str(c["misses"]) for c in cells) + " |")
    return "\n".join(out)


def hotcold_vs_all():
    hc = next(e for e in cmp["measured"] if e["series"] == "hotcold")["misses"]
    fg = f7["measured"]["all"]
    return "; ".join(
        f"{h['misses']} vs {a['misses']} at {h['size_kb']} KB" for h, a in zip(hc[:3], fg[:3])
    )


def fig5_minmax():
    return {c["size_kb"]: c["relative_pct"] for c in f5["measured"] if c["line"] == 128}


def fig12_rows(which):
    d = f12["measured"][which]
    out = ["| size | combined | app isolated | kernel isolated |", "|---|---|---|---|"]
    for i in range(5):
        out.append(
            f"| {d['all'][i]['size_kb']}KB | {d['all'][i]['misses']} | "
            f"{d['app'][i]['misses']} | {d['kernel'][i]['misses']} |"
        )
    return "\n".join(out)


def fig13_rows(which):
    x = f13["measured"][which]["displaced"]
    return (
        f"| app miss | {x[0][1]} | {x[0][2]} | {x[0][0]} |\n"
        f"| kernel miss | {x[1][1]} | {x[1][2]} | {x[1][0]} |"
    )


def static_rows():
    out = ["| series | misses (measured) | misses (static) | retained |", "|---|---|---|---|"]
    base = next(e for e in fst["measured"] if e["series"] == "base")
    b = base["measured"]["misses_128kb"]
    for e in fst["measured"]:
        mm = e["measured"]["misses_128kb"]
        sm = e["static"]["misses_128kb"]
        kept = f"{100*(b-sm)/(b-mm):.0f} %" if b > mm else "—"
        out.append(f"| {e['series']} | {mm} | {sm} | {kept} |")
    return "\n".join(out)


def tune_rows():
    out = [
        "| series | fixed misses | tuned misses | candidates | tuned parameters |",
        "|---|---|---|---|---|",
    ]
    t = ftu["tune"]
    fixed = {f["series"]: f["score"] for f in t["fixed"]}
    for f in t["families"]:
        params = ", ".join(f"{k}={v}" for k, v in f["best_params"].items())
        out.append(
            f"| {f['series']} | {fixed[f['series']]} | {f['best_score']} | "
            f"{f['evaluated']} | {params} |"
        )
    return "\n".join(out)


def tune_wins():
    return "; ".join(
        f"{w['misses']} vs {w['best_fixed']} at {w['size_kb']} KB ({w['series']})"
        for w in ftu["wins"]
    )


def at_kb(misses, kb):
    return next(c["misses"] for c in misses if c["size_kb"] == kb)


def cfa_spread_pct(kb=64):
    """Largest CFA-vs-`all` miss difference at `kb`, in % of `all`."""
    a = at_kb(am["all"], kb)
    return max(abs(at_kb(c["misses"], kb) - a) for c in am["cfa"]) / a * 100


def cfa_reserves():
    kbs = [c["reserved_kb"] for c in am["cfa"]]
    return f"{kbs[0]}–{kbs[-1]} KB"


def cfa_coverage():
    return ", ".join(
        f"{c['coverage_permille'] / 10:.1f} % at {c['reserved_kb']} KB" for c in am["cfa"]
    )


def cfa_90pct_kb():
    return max(c["bytes_for_90pct"] for c in am["cfa"]) // 1024


def reduction_pct(misses, kb=64):
    return 100 * (1 - at_kb(misses, kb) / at_kb(am["base"], kb))


def sampled_text():
    first, *rest = am["sampled"]
    tail = ", ".join(f"{reduction_pct(s['misses']):.0f} % at 1/{s['period']}" for s in rest)
    return (
        f"{reduction_pct(first['misses']):.0f} % vs {reduction_pct(am['all']):.0f} % "
        f"miss reduction at a 1/{first['period']} sampling period (64 KB / 128 B / 4-way), "
        f"degrading to {tail}"
    )


def fig15_rows():
    out = ["| layout | 21264-like | 21164-like |", "|---|---|---|"]
    for s in f15["measured"]["series"]:
        out.append(f"| {s['layout']} | {s['rel_21264_pct']:.1f}% | {s['rel_21164_pct']:.1f}% |")
    return "\n".join(out)


rel5 = fig5_minmax()
doc = f"""# EXPERIMENTS — paper vs. measured

Every figure of *Code Layout Optimizations for Transaction Processing
Workloads* (Ramirez et al., ISCA 2001) is regenerated by `run_all`, one
entry of its figure table each, and recorded below. Regenerate
everything with:

```bash
cargo run --release -p codelayout-bench --bin run_all
python3 tools/gen_experiments.py
```

Default scenario: `Scenario::paper_sim()` — 4 CPUs × 8 server processes,
40-branch TPC-B database (2 500 accounts/branch, scaled down from TPC-B's
100 000 — see DESIGN.md), 2 000 profiled and 2 000 measured transactions.
Figure 15 runs `Scenario::paper_hw()` (1 CPU, as in the paper's hardware
runs). Absolute counts are not comparable to the paper (its substrate ran
~10⁶ Alpha instructions per Oracle transaction; ours runs ~2×10³ per
generated-engine transaction); the reproduction targets the *shape* of
every result — who wins, by roughly what factor, and where the crossovers
fall.

## Figure 3 — cumulative execution profile (base binary)

Paper: 50 KB of code captures 60 % of executed instructions; 99 % needs
~200 KB; total live footprint ~260 KB; flat profile.

Measured (live footprint **{f3['measured']['total_bytes']//1024} KB** total):

| captured | footprint |
|---|---|
{curve3()}

Shape: partially reproduced. The total live footprint and the long warm
tail match well; the head of our curve is steeper than the paper's
because the generated engine's shared storage layer is more concentrated
than Oracle's. The quantity the layout results depend on — a live
footprint several times larger than a 64 KB cache with a substantial warm
tail — is faithful.

## Figures 4 & 5 — miss grids and relative misses (app stream, direct-mapped)

Paper: misses fall with cache and line size; 128 B lines near-optimal for
both binaries; optimized/base ratio ≈ 35–45 % at 64–128 KB; relative gains
grow with cache size up to 256 KB.

Measured (full grids in `results/fig04.json` / `fig05.json`): at 128 B
lines the optimized binary's misses relative to base are
{rel5[32]:.0f} % (32 KB), {rel5[64]:.0f} % (64 KB), {rel5[128]:.0f} % (128 KB),
{rel5[256]:.0f} % (256 KB), {rel5[512]:.0f} % (512 KB) — the paper's band and the
grow-then-flatten shape reproduce.

## Figure 6 — associativity

Paper: at 32–128 KB the gain from 4-way over direct-mapped is small
compared to the layout gain. Measured: same relationship
(`results/fig06.json`).

## Figure 7 — optimization combinations (128 B / 4-way)

Paper: porder alone ≈ no gain; chaining is the largest single gain;
chain+split ≈ chain; ordering *after* fine-grain splitting is the best
configuration.

Measured:

{fig7_table()}

Shape: reproduced — `porder` barely moves the needle, `chain` roughly
halves misses, `chain+split` equals `chain` (splitting alone only creates
flexibility), and `all` is the best configuration at every size ≥ 64 KB.

## Figure 8 — sequential run lengths

Paper: average 7.3 → 10+; 1-instruction runs 21 % → 15 %.

Measured: average **{f8['measured']['avg_base']:.1f} → {f8['measured']['avg_opt']:.1f}**
(dynamic basic block size {f8['measured']['avg_basic_block']:.1f}); full
histograms in `results/fig08.json`.

## Figure 9 — unique words used per 128 B line before replacement

Paper: the optimized binary uses the full 32-word line in >60 % of
replacements.

Measured: full-line use {100*f9['measured']['opt'][32]/max(1,f9['measured']['opt_replacements']):.0f} %
of optimized replacements (base: {100*f9['measured']['base'][32]/max(1,f9['measured']['base_replacements']):.0f} %). Reproduced.

## Figure 10 — word reuse before replacement

Paper: unused fetched words 46 % (base) → 21 % (optimized).

Measured: **{m['unused_base_pct']:.0f} % → {m['unused_opt_pct']:.0f} %**. The baseline matches;
our optimized binary packs even better than Spike's (the generated
engine's cold paths are perfectly separable, Oracle's were not).

## Figure 11 — cache line lifetimes

Paper: mean lifetime more than doubles.

Measured: mean lifetime {f11['measured']['mean_base']:.0f} → {f11['measured']['mean_opt']:.0f}
cache accesses (**{f11['measured']['mean_opt']/max(1.0,f11['measured']['mean_base']):.1f}×**). Reproduced.

## Figure 12 — combined application + kernel streams

Paper: interference makes combined misses exceed the isolated streams'
sum; the effect is relatively larger for the optimized binary; combined
reduction 45–60 % (vs 55–65 % app-only).

Measured, base binary:

{fig12_rows('base')}

Measured, optimized binary:

{fig12_rows('all')}

Combined reduction at 64/128 KB: **{m['combined_reduction_64_pct']:.0f} % / {m['combined_reduction_128_pct']:.0f} %**
(app-only: {m['app_reduction_64_pct']:.0f} % / {m['app_reduction_128_pct']:.0f} %). Both bands and their
ordering reproduce.

## Figure 13 — who displaces whom (128 KB, combined stream)

Paper: application misses are dominated by self-interference; kernel
misses are mostly caused by the application; optimization shrinks
application self-interference.

Measured (rows: missing stream; columns: displaced app line / displaced
kernel line / cold fill) — base:

| missing | app line | kernel line | cold |
|---|---|---|---|
{fig13_rows('base')}

optimized:

| missing | app line | kernel line | cold |
|---|---|---|---|
{fig13_rows('all')}

Shape: reproduced on all three counts.

## Figure 14 — iTLB and L2

Paper: iTLB misses drop (page-level packing); L2 instruction misses drop;
L2 data misses improve slightly.

Measured: iTLB {f14['measured']['base']['itlb']} → {f14['measured']['opt']['itlb']};
L2 instruction {f14['measured']['base']['l2i']} → {f14['measured']['opt']['l2i']};
L2 data {f14['measured']['base']['l2d']} → {f14['measured']['opt']['l2d']}. Reproduced.

## Figure 15 — execution time (1 CPU, two machine models)

Paper: ≈1.33× speedup for `all`, consistent across Alpha generations;
porder alone ~neutral.

Measured (relative non-idle cycles):

{fig15_rows()}

Speedup of `all`: **{f15['measured']['speedup_21264']:.2f}×** (21264-like) and
**{f15['measured']['speedup_21164']:.2f}×** (21164-like) vs the paper's 1.33×. The
ordering, monotonicity and cross-machine consistency reproduce; the
magnitude is smaller because our engine's per-transaction instruction
count gives a lower baseline CPI than Oracle-on-Alpha (memory stalls are a
smaller fraction of time to begin with).

## In-text claims

| claim | paper | measured |
|---|---|---|
| 128 B-line footprint | 500 → 315 KB (−37 %) | {m['footprint_base_kb']} → {m['footprint_opt_kb']} KB (−{100-100*m['footprint_opt_kb']/m['footprint_base_kb']:.0f} %) |
| live instruction bytes | ~260 KB | {m['instr_fp_base_kb']} KB |
| unused fetched words | 46 % → 21 % | {m['unused_base_pct']:.0f} % → {m['unused_opt_pct']:.0f} % |
| average run length | 7.3 → 10+ | {m['seq_base']:.1f} → {m['seq_opt']:.1f} |
| app miss reduction (64/128 KB) | 55–65 % | {m['app_reduction_64_pct']:.0f} % / {m['app_reduction_128_pct']:.0f} % |
| combined miss reduction | 45–60 % | {m['combined_reduction_64_pct']:.0f} % / {m['combined_reduction_128_pct']:.0f} % |
| kernel-layout-only gain | ~3.5 % | {m['kernel_opt_gain_pct']:.1f} % |
| CFA (software trace cache) | no gain — traces too large | reproduced (`ablations`: within {cfa_spread_pct():.1f} % of `all` at 64 KB; 90 % of execution needs {cfa_90pct_kb()} KB of traces) |

## Static profiles (beyond the paper): layout without a profiling run

The paper's pipeline needs a profiled training run before any layout.
`fig_static` rebuilds every layout series from a purely static
Ball–Larus-style frequency estimate (dominators → natural loops →
branch heuristics → Wu–Larus propagation; the `static:<series>`
requests, DESIGN.md §4.7) and measures both on the identical workload. Misses at
128 KB / 128 B / 4-way; "retained" is the fraction of the measured
layout's miss reduction over base the static layout keeps:

{static_rows()}

The static `all` layout beats base with no profiling run at all
(hard-asserted by the figure), keeping roughly two thirds of the
profile-driven reduction — the expected gap, since heuristics cannot
see which transaction mix dominates.

## Autotuned layouts (beyond the paper): search over the pass parameters

Every pass constant is now a searchable knob (`ParamSpace`, DESIGN.md
§4.9). `fig_tune` records the measured run's fetch window once, then
scores candidate parameter points by remapping the window onto each
candidate image and replaying it through the cache sweep (4–128 KB at
128 B/4-way), searching per family with seeded restarts + coordinate
descent; every candidate passes translation validation. Window miss
totals over the tuning grid, fixed defaults vs tuned best:

{tune_rows()}

The tuned winner strictly beats every fixed series at
{tune_wins()} — the hard-asserted headline. Search trajectory and
winning parameters land in the manifest `tune` section and
`results/fig_tune.json`.

## Ablations beyond the paper's tables

The `ablations` figure (`results/ablations.json`) measures every row
below on the harness's 128 B / 4-way user grid.

* CFA — the conflict-free-area layout yields no improvement over `all`
  (within {cfa_spread_pct():.1f} % either way at 64 KB / 128 B / 4-way,
  reserving {cfa_reserves()}; of execution, the reserve covers
  {cfa_coverage()}); the traces covering 90 % of execution need {cfa_90pct_kb()} KB,
  exceeding any reasonable reserved fraction of a 64 KB cache (the
  paper's §2 negative result).
* Hot/cold vs fine-grain splitting — `compare`'s `hotcold` row against
  `fig07`'s `all` row, on the same 128 B / 4-way user grid. The
  Spike-distribution hot/cold split performs comparably to fine-grain
  splitting on this workload, even slightly better (misses, hot/cold vs
  `all`: {hotcold_vs_all()}). The paper's advantage for fine-grain segments came
  from Oracle's large procedures containing several disjoint hot regions;
  our generated procedures are mostly single-hot-region after chaining, so
  two-way splitting already exposes nearly all of the useful placement
  freedom. An honest divergence, explained by workload shape.
* Sampled profiles — `all` built from DCPI-style sampled profiles
  (`sampled:N:all`, with Spike's edge estimation) recovers most of the
  exact profile's gain:
  {sampled_text()}.
  Consistent with the paper's use of either Pixie or DCPI.
* 1 vs {am['num_cpus']} CPUs — speedups are approximately equal on 1 and {am['num_cpus']} CPUs
  ({f15['measured']['speedup_21264']:.2f}× in `fig15` vs {am['speedup_21264']:.2f}× in `ablations`, 21264-like)
  rather than the paper's {abl['paper']['speedup_1cpu']}× vs {abl['paper']['speedup_4cpu']}×. The paper's
  4-CPU dilution comes from inter-node data *communication* misses, which
  our shared-memory model (no coherence protocol) does not charge for — a
  documented substrate limitation.
"""
open("EXPERIMENTS.md", "w").write(doc)
print("EXPERIMENTS.md regenerated:", len(doc.splitlines()), "lines")
