//! Per-figure experiment logic. Each function prints the figure's series
//! as a table and returns a JSON record (saved by the caller).

use crate::{full_requests, pct, print_table, Harness, LINES_B, SIZES_KB};
use codelayout_core::{
    cfa_layout, LayoutParams, LayoutRequest, LayoutSeries, OptimizationSet, ProfileSource,
};
use codelayout_memsim::SweepCell;
use codelayout_serve::{run_serve, ServeConfig};
use codelayout_timing::TimingModel;
use codelayout_tune::{run_tune, TuneConfig};
use serde_json::{json, Value};
use std::num::NonZeroU64;

fn misses_by_size(cells: &[SweepCell]) -> Vec<(u64, u64)> {
    SIZES_KB
        .iter()
        .map(|&k| {
            let c = cells
                .iter()
                .find(|c| c.config.size_bytes == k * 1024 && c.config.line_bytes == 128)
                .expect("size present in sweep");
            (k, c.stats.misses)
        })
        .collect()
}

/// `[{"size_kb", "misses"}, …]` for a [`misses_by_size`] result.
fn misses_json(misses: &[(u64, u64)]) -> Value {
    Value::Array(
        misses
            .iter()
            .map(|(k, m)| json!({"size_kb": k, "misses": m}))
            .collect(),
    )
}

/// Figure 3: cumulative execution profile of the unoptimized binary.
pub fn fig03(h: &mut Harness) -> Value {
    let program = &h.study.app.program;
    let profile = &h.study.profile;
    // Per-instruction execution counts (body + 1 terminator slot per block).
    let mut counts: Vec<u64> = Vec::new();
    for (bi, block) in program.blocks.iter().enumerate() {
        let c = profile.block_counts[bi];
        if c > 0 {
            for _ in 0..=block.instrs.len() {
                counts.push(c);
            }
        }
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let total: u128 = counts.iter().map(|&c| c as u128).sum();
    let live_bytes = counts.len() as u64 * 4;

    let marks = [50u32, 60, 70, 80, 90, 95, 99, 100];
    let mut rows = Vec::new();
    let mut series = Vec::new();
    let mut cum: u128 = 0;
    let mut next = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        cum += c as u128;
        while next < marks.len() && cum * 100 >= total * marks[next] as u128 {
            let bytes = (i as u64 + 1) * 4;
            rows.push(vec![
                format!("{}%", marks[next]),
                format!("{} KB", bytes / 1024),
            ]);
            series.push(json!({"pct": marks[next], "bytes": bytes}));
            next += 1;
        }
    }
    print_table(
        "Fig 3: fraction of dynamic instructions vs live footprint (base binary)",
        &["captured", "footprint"],
        &rows,
    );
    println!(
        "total live footprint: {} KB (paper: ~260 KB, 60% at ~50 KB, 99% at ~200 KB)",
        live_bytes / 1024
    );
    json!({
        "figure": "fig03",
        "paper": {"total_kb": 260, "kb_at_60pct": 50, "kb_at_99pct": 200},
        "measured": {"total_bytes": live_bytes, "curve": series},
    })
}

/// Figure 4: application I-cache misses across size × line grids,
/// direct-mapped, for the base (a) and optimized (b) binaries.
pub fn fig04(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let mut out = serde_json::Map::new();
    for name in ["base", "all"] {
        let grid = h.run(name).dm_grid_user.clone();
        let mut rows = Vec::new();
        for &size in &SIZES_KB {
            let mut row = vec![format!("{size}KB")];
            for &line in &LINES_B {
                let cell = grid
                    .iter()
                    .find(|c| c.config.size_bytes == size * 1024 && c.config.line_bytes == line)
                    .expect("cell");
                row.push(cell.stats.misses.to_string());
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Fig 4({}) app-only I-cache misses, direct-mapped ({name})",
                if name == "base" { "a" } else { "b" }
            ),
            &["size", "16B", "32B", "64B", "128B", "256B"],
            &rows,
        );
        let cells: Vec<Value> = grid
            .iter()
            .map(|c| {
                json!({"size_kb": c.config.size_bytes / 1024, "line": c.config.line_bytes,
                       "misses": c.stats.misses})
            })
            .collect();
        out.insert(name.to_string(), Value::Array(cells));
    }
    json!({
        "figure": "fig04",
        "paper": "miss counts fall with size and line size; 128B line near-optimal",
        "measured": out,
    })
}

/// Figure 5: optimized/base miss ratio per line size per cache size.
pub fn fig05(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let base = h.run("base").dm_grid_user.clone();
    let opt = h.run("all").dm_grid_user.clone();
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for &size in &SIZES_KB {
        let mut row = vec![format!("{size}KB")];
        for &line in &LINES_B {
            let b = base
                .iter()
                .find(|c| c.config.size_bytes == size * 1024 && c.config.line_bytes == line)
                .expect("cell");
            let o = opt
                .iter()
                .find(|c| c.config.size_bytes == size * 1024 && c.config.line_bytes == line)
                .expect("cell");
            let ratio = if b.stats.misses == 0 {
                100.0
            } else {
                100.0 * o.stats.misses as f64 / b.stats.misses as f64
            };
            row.push(format!("{ratio:.0}%"));
            series.push(json!({"size_kb": size, "line": line, "relative_pct": ratio}));
        }
        rows.push(row);
    }
    print_table(
        "Fig 5: relative misses optimized/base (paper: 35-45% at 64-128KB/128B)",
        &["size", "16B", "32B", "64B", "128B", "256B"],
        &rows,
    );
    json!({
        "figure": "fig05",
        "paper": "relative misses fall to 35-45% at 64-128KB; larger lines help more",
        "measured": series,
    })
}

/// Figure 6: associativity impact (1-way vs 4-way, 128 B lines).
pub fn fig06(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let mut series = Vec::new();
    let mut rows = Vec::new();
    let grab = |h: &mut Harness, name: &str, ways: u32, size: u64| -> u64 {
        let d = h.run(name);
        let cells = if ways == 1 {
            &d.dm_grid_user
        } else {
            &d.sizes_4w_user
        };
        cells
            .iter()
            .find(|c| {
                c.config.size_bytes == size * 1024
                    && c.config.line_bytes == 128
                    && c.config.ways == ways
            })
            .map(|c| c.stats.misses)
            .expect("cell")
    };
    for &size in &SIZES_KB {
        let b1 = grab(h, "base", 1, size);
        let b4 = grab(h, "base", 4, size);
        let o1 = grab(h, "all", 1, size);
        let o4 = grab(h, "all", 4, size);
        rows.push(vec![
            format!("{size}KB"),
            b1.to_string(),
            b4.to_string(),
            o1.to_string(),
            o4.to_string(),
        ]);
        series.push(json!({"size_kb": size, "base_1w": b1, "base_4w": b4,
                           "opt_1w": o1, "opt_4w": o4}));
    }
    print_table(
        "Fig 6: associativity impact, 128B lines (paper: small vs layout gains)",
        &["size", "base 1-way", "base 4-way", "opt 1-way", "opt 4-way"],
        &rows,
    );
    json!({
        "figure": "fig06",
        "paper": "associativity gains are small at 32-128KB compared to layout gains",
        "measured": series,
    })
}

/// The paper's six optimization combinations as layout requests, in
/// [`OptimizationSet::paper_series`] order (Figures 7 and 15).
pub(crate) fn paper_requests() -> impl Iterator<Item = LayoutRequest> {
    OptimizationSet::paper_series()
        .into_iter()
        .map(|(_, set)| set.into())
}

/// Figure 7: optimization combinations × cache sizes (128 B, 4-way).
pub fn fig07(h: &mut Harness) -> Value {
    h.prefetch(paper_requests());
    let mut rows = Vec::new();
    let mut series = serde_json::Map::new();
    for (name, set) in OptimizationSet::paper_series() {
        let by_size = misses_by_size(&h.run_request(set).sizes_4w_user);
        let mut row = vec![name.to_string()];
        row.extend(by_size.iter().map(|(_, m)| m.to_string()));
        rows.push(row);
        series.insert(name.to_string(), misses_json(&by_size));
    }
    print_table(
        "Fig 7: app-only misses by optimization combination (128B/4-way)",
        &["layout", "32KB", "64KB", "128KB", "256KB", "512KB"],
        &rows,
    );
    json!({
        "figure": "fig07",
        "paper": "porder alone ~no gain; chain largest single gain; chain+split ~= chain; \
                  porder after splitting gives the best results",
        "measured": series,
    })
}

/// Figure 8: sequential run lengths (average + histogram).
pub fn fig08(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    // Average dynamic basic block size from the profile.
    let program = &h.study.app.program;
    let profile = &h.study.profile;
    let mut instrs: u128 = 0;
    let mut entries: u128 = 0;
    for (bi, b) in program.blocks.iter().enumerate() {
        let c = profile.block_counts[bi] as u128;
        instrs += c * (b.instrs.len() as u128 + 1);
        entries += c;
    }
    let avg_bb = if entries == 0 {
        0.0
    } else {
        instrs as f64 / entries as f64
    };

    let base = h.run("base").seq_user.clone().expect("full run");
    let opt = h.run("all").seq_user.clone().expect("full run");
    let mut rows = vec![
        vec![
            "avg basic block".into(),
            format!("{avg_bb:.2}"),
            String::new(),
        ],
        vec![
            "avg run length".into(),
            format!("{:.2}", base.average_length()),
            format!("{:.2}", opt.average_length()),
        ],
    ];
    for len in 1..=33usize {
        rows.push(vec![
            format!("len {len}"),
            format!("{:.1}%", 100.0 * base.fraction_of_length(len)),
            format!("{:.1}%", 100.0 * opt.fraction_of_length(len)),
        ]);
    }
    print_table(
        "Fig 8: sequentially executed instructions (paper: 7.3 -> 10+; 1-seqs 21% -> 15%)",
        &["metric", "base", "optimized"],
        &rows,
    );
    json!({
        "figure": "fig08",
        "paper": {"avg_base": 7.3, "avg_opt": 10.0, "one_seq_base_pct": 21, "one_seq_opt_pct": 15},
        "measured": {
            "avg_basic_block": avg_bb,
            "avg_base": base.average_length(),
            "avg_opt": opt.average_length(),
            "hist_base": base.histogram,
            "hist_opt": opt.histogram,
        },
    })
}

/// Figure 9: unique words used per 128 B line before replacement.
pub fn fig09(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let base = h.run("base").locality.clone().expect("full run");
    let opt = h.run("all").locality.clone().expect("full run");
    let mut rows = Vec::new();
    for u in 1..=32usize {
        rows.push(vec![
            format!("{u} words"),
            pct(base.unique_words[u], base.replacements),
            pct(opt.unique_words[u], opt.replacements),
        ]);
    }
    rows.push(vec![
        "average".into(),
        format!("{:.1}", base.avg_unique_words()),
        format!("{:.1}", opt.avg_unique_words()),
    ]);
    print_table(
        "Fig 9: unique words used before replacement (paper: opt has >60% full-line use)",
        &["words", "base", "optimized"],
        &rows,
    );
    json!({
        "figure": "fig09",
        "paper": "optimized binary uses all 32 words of >60% of replaced lines",
        "measured": {
            "base": base.unique_words, "opt": opt.unique_words,
            "base_replacements": base.replacements, "opt_replacements": opt.replacements,
        },
    })
}

/// Figure 10: times a word is used before replacement.
pub fn fig10(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let base = h.run("base").locality.clone().expect("full run");
    let opt = h.run("all").locality.clone().expect("full run");
    let mut rows = Vec::new();
    for k in 0..16usize {
        rows.push(vec![
            format!("{k}x"),
            pct(base.word_reuse[k], base.words_fetched),
            pct(opt.word_reuse[k], opt.words_fetched),
        ]);
    }
    print_table(
        "Fig 10: word reuse before replacement (paper: unused 46% base -> 21% opt)",
        &["uses", "base", "optimized"],
        &rows,
    );
    json!({
        "figure": "fig10",
        "paper": {"unused_base_pct": 46, "unused_opt_pct": 21},
        "measured": {
            "unused_base_pct": 100.0 * base.unused_fraction(),
            "unused_opt_pct": 100.0 * opt.unused_fraction(),
            "base": base.word_reuse, "opt": opt.word_reuse,
        },
    })
}

/// Figure 11: cache line lifetimes (log2 cache cycles).
pub fn fig11(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let base = h.run("base").locality.clone().expect("full run");
    let opt = h.run("all").locality.clone().expect("full run");
    let mut rows = Vec::new();
    for b in 8..=30usize {
        let fb = base.lifetime_log2[b];
        let fo = opt.lifetime_log2[b];
        if fb == 0 && fo == 0 {
            continue;
        }
        rows.push(vec![
            format!("2^{b}"),
            pct(fb, base.replacements),
            pct(fo, opt.replacements),
        ]);
    }
    rows.push(vec![
        "mean (accesses)".into(),
        format!("{:.0}", base.mean_lifetime_accesses()),
        format!("{:.0}", opt.mean_lifetime_accesses()),
    ]);
    print_table(
        "Fig 11: line lifetime in cache accesses (paper: mean lifetime >2x with opt)",
        &["lifetime", "base", "optimized"],
        &rows,
    );
    json!({
        "figure": "fig11",
        "paper": "average line lifetime increases by more than 2x",
        "measured": {
            "mean_base": base.mean_lifetime_accesses(),
            "mean_opt": opt.mean_lifetime_accesses(),
            "hist_base": base.lifetime_log2, "hist_opt": opt.lifetime_log2,
        },
    })
}

/// Figure 12: combined application + kernel misses vs cache size.
pub fn fig12(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let mut out = serde_json::Map::new();
    for name in ["base", "all"] {
        let d = h.run(name);
        let all = misses_by_size(&d.sizes_4w_all);
        let app = misses_by_size(&d.sizes_4w_user);
        let kernel = misses_by_size(&d.sizes_4w_kernel);
        let rows: Vec<Vec<String>> = (0..SIZES_KB.len())
            .map(|i| {
                vec![
                    format!("{}KB", SIZES_KB[i]),
                    all[i].1.to_string(),
                    app[i].1.to_string(),
                    kernel[i].1.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Fig 12({}) combined-stream misses ({name}, 128B/4-way)",
                if name == "base" { "a" } else { "b" }
            ),
            &[
                "size",
                "all (combined)",
                "app (isolated)",
                "kernel (isolated)",
            ],
            &rows,
        );
        out.insert(
            name.to_string(),
            json!({
                "all": misses_json(&all),
                "app": misses_json(&app),
                "kernel": misses_json(&kernel),
            }),
        );
    }
    json!({
        "figure": "fig12",
        "paper": "interference raises combined misses above the isolated sum-of-parts; \
                  effect more pronounced for the optimized binary",
        "measured": out,
    })
}

/// Figure 13: interference matrix at 128 KB (who displaces whom).
pub fn fig13(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let mut out = serde_json::Map::new();
    for name in ["base", "all"] {
        let d = h.run(name);
        let cell = d
            .sizes_4w_all
            .iter()
            .find(|c| c.config.size_bytes == 128 * 1024)
            .expect("128KB cell");
        let s = &cell.stats;
        // displaced[missing][victim]: victim 0=invalid, 1=app, 2=kernel.
        let rows = vec![
            vec![
                "app miss".into(),
                s.displaced[0][1].to_string(),
                s.displaced[0][2].to_string(),
                s.displaced[0][0].to_string(),
            ],
            vec![
                "kernel miss".into(),
                s.displaced[1][1].to_string(),
                s.displaced[1][2].to_string(),
                s.displaced[1][0].to_string(),
            ],
        ];
        print_table(
            &format!("Fig 13 interference at 128KB/128B/4-way ({name})"),
            &[
                "missing",
                "displaced app line",
                "displaced kernel line",
                "cold fill",
            ],
            &rows,
        );
        out.insert(name.to_string(), json!({"displaced": s.displaced}));
    }
    json!({
        "figure": "fig13",
        "paper": "app misses mostly displace app lines (self-interference); kernel misses \
                  mostly displace app lines; optimization shrinks app self-interference",
        "measured": out,
    })
}

/// Figure 14: iTLB and L2 behaviour (base SimOS hierarchy).
pub fn fig14(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let base = h.run("base").hier_simos.expect("full run");
    let opt = h.run("all").hier_simos.expect("full run");
    let rows = vec![
        vec![
            "iTLB misses".into(),
            base.itlb_misses.to_string(),
            opt.itlb_misses.to_string(),
        ],
        vec![
            "L2 instr misses".into(),
            base.l2_instr_misses.to_string(),
            opt.l2_instr_misses.to_string(),
        ],
        vec![
            "L2 data misses".into(),
            base.l2_data_misses.to_string(),
            opt.l2_data_misses.to_string(),
        ],
    ];
    print_table(
        "Fig 14: iTLB and L2 misses (paper: both improve with layout opt)",
        &["metric", "base", "optimized"],
        &rows,
    );
    json!({
        "figure": "fig14",
        "paper": "iTLB misses drop (page-granularity packing); L2 instruction misses drop; \
                  L2 data misses drop slightly (less line interference)",
        "measured": {
            "base": {"itlb": base.itlb_misses, "l2i": base.l2_instr_misses, "l2d": base.l2_data_misses},
            "opt": {"itlb": opt.itlb_misses, "l2i": opt.l2_instr_misses, "l2d": opt.l2_data_misses},
        },
    })
}

/// Figure 15: relative execution time per optimization combination on the
/// 21264-like and 21164-like machines. Run this on a 1-CPU scenario
/// (`Scenario::paper_hw`) to match the paper's single-processor runs.
pub fn fig15(h: &mut Harness) -> Value {
    let m264 = TimingModel::alpha_21264();
    let m164 = TimingModel::alpha_21164();
    let mut cycles264 = Vec::new();
    let mut cycles164 = Vec::new();
    h.prefetch_timing(paper_requests());
    for (_, set) in OptimizationSet::paper_series() {
        let d = h.run_request(set);
        let instrs = d.user_fetches + d.kernel_fetches;
        let t = h.timing(set);
        cycles264.push(m264.evaluate(instrs, &t.hier_21264).total());
        cycles164.push(m164.evaluate(instrs, &t.hier_21164).total());
    }
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for (i, (name, _)) in OptimizationSet::paper_series().into_iter().enumerate() {
        let r264 = 100.0 * cycles264[i] as f64 / cycles264[0] as f64;
        let r164 = 100.0 * cycles164[i] as f64 / cycles164[0] as f64;
        rows.push(vec![
            name.to_string(),
            format!("{r264:.1}%"),
            format!("{r164:.1}%"),
        ]);
        series.push(json!({"layout": name, "rel_21264_pct": r264, "rel_21164_pct": r164}));
    }
    let speedup264 = cycles264[0] as f64 / cycles264[5] as f64;
    let speedup164 = cycles164[0] as f64 / cycles164[5] as f64;
    print_table(
        "Fig 15: relative non-idle execution time (paper: 'all' ~ 75%, 1.33x speedup)",
        &[
            "layout",
            "21264-like (64KB 2-way)",
            "21164-like (8KB 1-way)",
        ],
        &rows,
    );
    println!("speedup of 'all': {speedup264:.2}x (21264-like), {speedup164:.2}x (21164-like)");
    json!({
        "figure": "fig15",
        "paper": {"speedup": 1.33, "consistent_across_generations": true},
        "measured": {"series": series, "speedup_21264": speedup264, "speedup_21164": speedup164},
    })
}

/// Cross-algorithm comparison table: the paper trio vs the ext-TSP and
/// Codestitcher passes, per series — I-cache misses (128 B / 4-way),
/// the shared ext-TSP objective score of the application layout, text
/// size, and the `L000`–`L006` lint summary over {app, kernel}.
///
/// The table also enforces the evaluation's headline ordering claim:
/// the ext-TSP pass must score at least every paper series on the
/// objective both are judged by (the scorer is encoded once in
/// `codelayout_core::exttsp_score` and shared with the pass and its
/// property tests).
pub fn compare(h: &mut Harness) -> Value {
    let series_list = LayoutSeries::comparison();
    h.prefetch(series_list.map(LayoutRequest::from));
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut scores: Vec<(LayoutSeries, u64)> = Vec::new();
    for series in series_list {
        let label = series.label();
        let req = LayoutRequest::from(series);
        let (misses, user_fetches, text_bytes, score) = {
            let d = h.run_request(req);
            (
                misses_by_size(&d.sizes_4w_user),
                d.user_fetches,
                d.text_bytes,
                d.exttsp_score,
            )
        };
        scores.push((series, score));
        let lints = crate::lint::lint_series_cells(h, series);
        let (deny, warn, info) = (
            crate::lint::count(lints, codelayout_analysis::Severity::Deny),
            crate::lint::count(lints, codelayout_analysis::Severity::Warn),
            crate::lint::count(lints, codelayout_analysis::Severity::Info),
        );
        let lint_summary = crate::lint::summary_json(lints);
        let m64 = misses[1].1;
        let m128 = misses[2].1;
        rows.push(vec![
            label.to_string(),
            m64.to_string(),
            m128.to_string(),
            pct(m128, user_fetches),
            score.to_string(),
            format!("{} KB", text_bytes / 1024),
            format!("{deny}/{warn}/{info}"),
        ]);
        entries.push(json!({
            "series": label,
            "text_bytes": text_bytes,
            "user_fetches": user_fetches,
            "misses": misses_json(&misses),
            "exttsp_score": score,
            "lints": lint_summary,
        }));
    }
    print_table(
        "Layout-series comparison (128B/4-way; lints = deny/warn/info over app+kernel)",
        &[
            "series",
            "misses 64KB",
            "misses 128KB",
            "miss rate 128KB",
            "ext-TSP score",
            "text",
            "lints",
        ],
        &rows,
    );
    if let Some(&(_, s_exttsp)) = scores.iter().find(|(s, _)| *s == LayoutSeries::ExtTsp) {
        for &(series, s) in &scores {
            if matches!(series, LayoutSeries::Paper(_)) {
                assert!(
                    s_exttsp >= s,
                    "ext-TSP score {s_exttsp} below `{series}` score {s}: \
                     the pass lost on its own objective"
                );
            }
        }
    }
    json!({
        "figure": "compare",
        "paper": "ext-TSP (Newell–Pupyrev) and Codestitcher (Lavaee et al.) vs the 2001 trio; \
                  ext-TSP must dominate the paper series on the shared objective score",
        "measured": entries,
    })
}

/// Static-profile study: every lint-matrix layout series built twice —
/// once from the measured execution profile and once from the purely
/// static Ball–Larus-style estimate
/// ([`codelayout_analysis::estimate_static_profile`]) — and both
/// measured on the identical workload. Per series: I-cache misses
/// (128 B / 4-way, 64 KB and 128 KB), miss rates, the retained fraction
/// of the measured layout's miss *reduction* over base, and the ext-TSP
/// objective score of both layouts under the *measured* profile (the
/// evaluation yardstick, regardless of which profile built the layout).
///
/// `base` ignores the profile entirely, so its static column reuses the
/// measured run. The figure enforces the subsystem's headline claim:
/// the static-profile `all` layout must beat the `base` layout's
/// 128 KB miss count on the scenario.
pub fn fig_static(h: &mut Harness) -> Value {
    let reqs = static_requests();
    h.prefetch(reqs.iter().flat_map(|&(m_req, s_req)| [m_req, s_req]));
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut base_m128 = 0u64;
    let mut static_all_m128 = u64::MAX;
    for (bare, s_req) in reqs {
        let label = bare.series.label();
        let (m_misses, user_fetches, m_score) = {
            let d = h.run_request(bare);
            (
                misses_by_size(&d.sizes_4w_user),
                d.user_fetches,
                d.exttsp_score,
            )
        };
        let (s_misses, s_score) = {
            let d = h.run_request(s_req);
            (misses_by_size(&d.sizes_4w_user), d.exttsp_score)
        };
        let (m64, m128) = (m_misses[1].1, m_misses[2].1);
        let (s64, s128) = (s_misses[1].1, s_misses[2].1);
        if bare.series == LayoutSeries::Paper(OptimizationSet::BASE) {
            base_m128 = m128;
        }
        if label == "all" {
            static_all_m128 = s128;
        }
        // Fraction of the measured layout's 128 KB miss reduction the
        // static layout retains (100% = matches measured; >100% = beats
        // it; blank for base and for series that don't improve on base).
        let retained = if base_m128 > m128 {
            format!(
                "{:.0}%",
                100.0 * (base_m128 as f64 - s128 as f64) / (base_m128 as f64 - m128 as f64)
            )
        } else {
            "-".into()
        };
        rows.push(vec![
            label.to_string(),
            m128.to_string(),
            pct(m128, user_fetches),
            s128.to_string(),
            pct(s128, user_fetches),
            retained,
            m_score.to_string(),
            s_score.to_string(),
        ]);
        entries.push(json!({
            "series": label,
            "user_fetches": user_fetches,
            "measured": {
                "misses_64kb": m64,
                "misses_128kb": m128,
                "exttsp_score": m_score,
            },
            "static": {
                "misses_64kb": s64,
                "misses_128kb": s128,
                "exttsp_score": s_score,
            },
        }));
    }
    print_table(
        "Static vs measured profiles (128B/4-way; scores under the measured profile)",
        &[
            "series",
            "m128 meas",
            "rate",
            "m128 static",
            "rate",
            "retained",
            "score meas",
            "score static",
        ],
        &rows,
    );
    assert!(
        static_all_m128 < base_m128,
        "static-profile `all` layout ({static_all_m128} misses at 128KB) failed to beat \
         the base layout ({base_m128} misses)"
    );
    json!({
        "figure": "fig_static",
        "paper": "profile-free variant of the 2001 study: Ball–Larus-style static branch \
                  estimates feed the same chain/split/porder pipeline; the static `all` \
                  layout must still beat the base layout",
        "measured": entries,
    })
}

/// The requests [`fig_static`] measures: per lint-matrix series, the
/// bare (measured-profile) and the static-profile request. `base`
/// ignores the profile, so both of its requests are the bare one.
pub(crate) fn static_requests() -> Vec<(LayoutRequest, LayoutRequest)> {
    LayoutSeries::lint_matrix()
        .into_iter()
        .map(|series| {
            let bare = LayoutRequest::from(series);
            if series == LayoutSeries::Paper(OptimizationSet::BASE) {
                (bare, bare)
            } else {
                (bare, bare.with_source(ProfileSource::Static))
            }
        })
        .collect()
}

/// In-text numeric claims (§4–5): packing, unused fetch fraction, miss
/// reduction bands, kernel-layout gain.
pub fn claims(h: &mut Harness) -> Value {
    h.prefetch(full_requests());
    let reduction = |b: u64, o: u64| 100.0 * (1.0 - o as f64 / b as f64);

    let (base_fp, base_instr_fp, base_seq, base_unused);
    let (opt_fp, opt_instr_fp, opt_seq, opt_unused);
    {
        let d = h.run("base");
        base_fp = d.footprint_line_bytes.expect("full");
        base_instr_fp = d.footprint_instr_bytes.expect("full");
        base_seq = d.seq_user.as_ref().expect("full").average_length();
        base_unused = d.locality.as_ref().expect("full").unused_fraction();
    }
    {
        let d = h.run("all");
        opt_fp = d.footprint_line_bytes.expect("full");
        opt_instr_fp = d.footprint_instr_bytes.expect("full");
        opt_seq = d.seq_user.as_ref().expect("full").average_length();
        opt_unused = d.locality.as_ref().expect("full").unused_fraction();
    }

    let app_base = misses_by_size(&h.run("base").sizes_4w_user);
    let app_opt = misses_by_size(&h.run("all").sizes_4w_user);
    let comb_base = misses_by_size(&h.run("base").sizes_4w_all);
    let comb_opt = misses_by_size(&h.run("all").sizes_4w_all);
    let app_red_64 = reduction(app_base[1].1, app_opt[1].1);
    let app_red_128 = reduction(app_base[2].1, app_opt[2].1);
    let comb_red_64 = reduction(comb_base[1].1, comb_opt[1].1);
    let comb_red_128 = reduction(comb_base[2].1, comb_opt[2].1);

    // Kernel layout optimization: optimized kernel under the base app.
    let kernel_all = h.kernel_layout(OptimizationSet::ALL);
    let kopt = h.study.kernel_image(&kernel_all);
    let mut sink = codelayout_memsim::MemoryHierarchy::new(TimingModel::hierarchy_21264(
        h.study.scenario.num_cpus,
    ));
    let out = h.study.run_measured(&h.study.base_image, &kopt, &mut sink);
    out.assert_correct();
    let model = TimingModel::alpha_21264();
    let kopt_cycles = model
        .evaluate(out.report.instructions, sink.stats())
        .total();
    let dbase = h.run("base");
    let base_instrs = dbase.user_fetches + dbase.kernel_fetches;
    let base_cycles = model
        .evaluate(base_instrs, &h.timing(OptimizationSet::BASE).hier_21264)
        .total();
    let kernel_gain = 100.0 * (1.0 - kopt_cycles as f64 / base_cycles as f64);

    let rows = vec![
        vec![
            "128B-line footprint".into(),
            format!("{} -> {} KB", base_fp / 1024, opt_fp / 1024),
            "500 -> 315 KB (-37%)".into(),
        ],
        vec![
            "live instruction bytes".into(),
            format!("{} -> {} KB", base_instr_fp / 1024, opt_instr_fp / 1024),
            "~260 KB live".into(),
        ],
        vec![
            "unused fetched words".into(),
            format!("{:.0}% -> {:.0}%", base_unused * 100.0, opt_unused * 100.0),
            "46% -> 21%".into(),
        ],
        vec![
            "avg run length".into(),
            format!("{base_seq:.1} -> {opt_seq:.1}"),
            "7.3 -> 10+".into(),
        ],
        vec![
            "app miss reduction 64/128KB".into(),
            format!("{app_red_64:.0}% / {app_red_128:.0}%"),
            "55-65%".into(),
        ],
        vec![
            "combined miss reduction 64/128KB".into(),
            format!("{comb_red_64:.0}% / {comb_red_128:.0}%"),
            "45-60%".into(),
        ],
        vec![
            "kernel-layout-only gain".into(),
            format!("{kernel_gain:.1}%"),
            "~3.5%".into(),
        ],
    ];
    print_table("In-text claims", &["claim", "measured", "paper"], &rows);
    json!({
        "figure": "claims",
        "measured": {
            "footprint_base_kb": base_fp / 1024,
            "footprint_opt_kb": opt_fp / 1024,
            "instr_fp_base_kb": base_instr_fp / 1024,
            "instr_fp_opt_kb": opt_instr_fp / 1024,
            "unused_base_pct": base_unused * 100.0,
            "unused_opt_pct": opt_unused * 100.0,
            "seq_base": base_seq,
            "seq_opt": opt_seq,
            "app_reduction_64_pct": app_red_64,
            "app_reduction_128_pct": app_red_128,
            "combined_reduction_64_pct": comb_red_64,
            "combined_reduction_128_pct": comb_red_128,
            "kernel_opt_gain_pct": kernel_gain,
        },
        "paper": {
            "footprint": "500 -> 315 KB", "unused": "46% -> 21%", "seq": "7.3 -> 10+",
            "app_reduction": "55-65%", "combined_reduction": "45-60%", "kernel_gain": "3.5%",
        },
    })
}

/// The serving loop, observed end to end: runs the continuous-profiling
/// loop (`codelayout-serve`) on the phase-shift stream the harness was
/// built for, prints the epoch ledger, registers the manifest's `serve`
/// section, and returns the deterministic report as the figure JSON.
///
/// The harness must have been built on [`ServeConfig::serve_scenario`]
/// for `cfg` — [`run_serve`] checks the capacity invariant and panics
/// otherwise. Every re-layout the loop requests must pass translation
/// validation; a validation miss is a correctness bug, so this figure
/// asserts it rather than reporting it.
pub fn fig_serve(h: &mut Harness, cfg: &ServeConfig) -> Value {
    let report = run_serve(&h.study, cfg);
    assert!(
        report.all_swaps_validated(),
        "a serving-loop re-layout failed translation validation"
    );

    let mut rows = Vec::new();
    for e in &report.epochs {
        rows.push(vec![
            e.epoch.to_string(),
            e.rotation.to_string(),
            e.samples.to_string(),
            e.drift_milli.to_string(),
            if e.relayout { "yes" } else { "" }.to_string(),
            if e.swapped { "yes" } else { "" }.to_string(),
            e.misses.to_string(),
            e.fetches.to_string(),
        ]);
    }
    print_table(
        "Serving loop: sampled drift detection and validated live re-layout",
        &[
            "epoch", "rot", "samples", "drift", "relayout", "swapped", "misses", "fetches",
        ],
        &rows,
    );
    let r = &report.recovery;
    println!(
        "recovery: stale {} vs serve {} vs oracle {} misses over {} fetches -> {} milli of the gap",
        r.stale_misses, r.serve_misses, r.oracle_misses, r.window_fetches, r.recovery_milli
    );
    println!(
        "swaps: {} of {} re-layout requests deployed ({} -> {})",
        report.swaps, report.relayouts, report.base_image_digest, report.final_image_digest
    );

    // The manifest section carries the deterministic report plus the
    // section's single wall-clock leaf (total swap latency, masked by
    // `mask_volatile` in golden comparisons).
    let mut section = report.deterministic_json();
    if let Value::Object(map) = &mut section {
        let total_swap_ns: u64 = report.epochs.iter().map(|e| e.swap_wall_ns).sum();
        map.insert("swap_wall_ns".to_string(), json!(total_swap_ns));
    }
    h.section("serve", section);

    report.deterministic_json()
}

/// Search-based layout autotuning: run the budgeted parameter search
/// ([`run_tune`]), then re-measure each family's best point on the full
/// workload (harness runs named `<series>{knob=value,…}`) next to the
/// fixed comparison series, and print the base vs fixed vs tuned table.
///
/// Two hard guarantees, asserted rather than reported:
///
/// * every candidate the search **accepted** passed translation
///   validation (invalid candidates score `u64::MAX` and cannot win);
/// * at least one tuned layout achieves **strictly fewer** misses than
///   every fixed comparison series at some cache-size cell of the
///   128 B / 4-way tuning grid ([`codelayout_tune::TUNE_SIZES_KB`]),
///   with every series scored by the same deterministic window replay —
///   otherwise the autotuner earned nothing and the figure must fail
///   loudly.
///
/// The manifest gains a `tune` section: the deterministic report plus
/// one wall-clock leaf (`wall_ms`, masked by `mask_volatile` in golden
/// comparisons). The returned figure JSON is fully deterministic.
pub fn fig_tune(h: &mut Harness, cfg: &TuneConfig) -> Value {
    let report = run_tune(&h.study, cfg);
    assert!(
        report.trajectory.iter().all(|c| c.validated || !c.accepted),
        "an accepted tune candidate failed translation validation"
    );
    // The headline claim: some tuned layout strictly beats every fixed
    // series at some cache size, on the tuning grid where both sides are
    // scored by the same deterministic window replay. (The full-workload
    // table below reports the paper's 32–512 KB sizes, where a quick-
    // scenario footprint sees only compulsory misses; the tuning grid
    // extends down to where layout actually moves the miss count.)
    // A yardstick the validator rejected has no cells and beats nothing.
    let validated_fixed: Vec<_> = report.fixed.iter().filter(|fx| fx.validated).collect();
    let mut wins = Vec::new();
    for f in &report.families {
        for (i, &size_kb) in codelayout_tune::TUNE_SIZES_KB.iter().enumerate() {
            let m = f.best_cells[i];
            if validated_fixed.iter().all(|fx| m < fx.cells[i]) {
                wins.push(json!({
                    "series": f.series.label(),
                    "size_kb": size_kb,
                    "misses": m,
                    "best_fixed": validated_fixed.iter().map(|fx| fx.cells[i]).min(),
                }));
            }
        }
    }
    assert!(
        !wins.is_empty(),
        "no tuned layout beat every fixed series at any tuning-grid cache size: \
         the search found nothing beyond the defaults"
    );

    // Full-workload measurements: the fixed comparison series, then each
    // family's tuned best.
    let fixed = LayoutSeries::comparison().map(|s| (LayoutRequest::from(s), None));
    let tuned = report.families.iter().map(|f| {
        (
            LayoutRequest::from(f.series).with_params(f.best_params),
            Some(f),
        )
    });
    let measured: Vec<_> = fixed.into_iter().chain(tuned).collect();
    h.prefetch(measured.iter().map(|&(req, _)| req));
    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for (req, family) in measured {
        let (misses, user_fetches, score) = {
            let d = h.run_request(req);
            (
                misses_by_size(&d.sizes_4w_user),
                d.user_fetches,
                d.exttsp_score,
            )
        };
        let kind = if family.is_some() { "tuned" } else { "fixed" };
        rows.push(vec![
            req.to_string(),
            kind.to_string(),
            misses[1].1.to_string(),
            misses[2].1.to_string(),
            pct(misses[2].1, user_fetches),
            score.to_string(),
            family.map_or(String::new(), |f| f.evaluated.to_string()),
        ]);
        let mut entry = json!({
            "series": req.series.label(),
            "kind": kind,
            "misses": misses_json(&misses),
            "user_fetches": user_fetches,
            "exttsp_score": score,
        });
        if let (Some(f), Value::Object(map)) = (family, &mut entry) {
            let space = codelayout_core::ParamSpace::for_series(f.series);
            let params = codelayout_tune::params_json(&space, &f.best_params);
            map.insert("params".to_string(), params);
            map.insert("candidates".to_string(), json!(f.evaluated));
        }
        entries.push(entry);
    }
    print_table(
        "Autotuned vs fixed layout series (128B/4-way user grid)",
        &[
            "series",
            "kind",
            "misses 64KB",
            "misses 128KB",
            "miss rate 128KB",
            "ext-TSP score",
            "candidates",
        ],
        &rows,
    );
    println!(
        "tune: {} candidates over {} families in {} ms (window {} events)",
        report.trajectory.len(),
        report.families.len(),
        report.wall_ms,
        report.window_events,
    );

    let mut section = report.deterministic_json();
    if let Value::Object(map) = &mut section {
        map.insert("wall_ms".to_string(), json!(report.wall_ms));
    }
    h.section("tune", section);

    json!({
        "figure": "fig_tune",
        "paper": "search-based autotuning over the parameterized layout passes; \
                  some tuned series must strictly beat every fixed series at a cache size",
        "tune": report.deterministic_json(),
        "measured": entries,
        "wins": wins,
    })
}

/// The paper's rejected and alternative design choices on the harness's
/// 128 B / 4-way user grid, and the multiprocessor speedup:
///
/// * the conflict-free-area layout (§2) reserving 8, 16, 32 and 48 KB,
///   with how much of the execution the reserved traces cover and how
///   many bytes of trace cover 90% of it;
/// * `all` built from a DCPI-style sampled profile (§3.2), one sample
///   every 64, 256, 1024 and 4096 instructions (`sampled:N:all`),
///   against the exact (Pixie) profile's `all`;
/// * the 21264-like model's speedup of `all` over `base` on this study's
///   CPUs (Figure 15 reports the single-processor one).
pub fn ablations(h: &mut Harness) -> Value {
    let cfa = [8u64, 16, 32, 48].map(|kb| {
        let mut params = LayoutParams::default();
        params.cfa.reserved_bytes = kb * 1024;
        (
            kb,
            LayoutRequest::from(LayoutSeries::Cfa).with_params(params),
        )
    });
    let sampled = [64u64, 256, 1024, 4096].map(|n| {
        let source = ProfileSource::Sampled(NonZeroU64::new(n).expect("a positive period"));
        (
            n,
            LayoutRequest::from(OptimizationSet::ALL).with_source(source),
        )
    });
    let [base, all] = full_requests();
    let others = cfa.iter().chain(&sampled).map(|&(_, req)| req);
    h.prefetch([base, all].into_iter().chain(others));

    let mut rows = Vec::new();
    let mut misses = |h: &mut Harness, label: String, req, note: String| {
        let by_size = misses_by_size(&h.run_request(req).sizes_4w_user);
        let cells = by_size.iter().map(|(_, m)| m.to_string());
        rows.push([label].into_iter().chain(cells).chain([note]).collect());
        misses_json(&by_size)
    };
    let base_misses = misses(h, "base".into(), base, String::new());
    let all_misses = misses(h, "all".into(), all, String::new());
    let cfa: Vec<Value> = cfa
        .into_iter()
        .map(|(kb, req)| {
            let profile = h.study.profile_for(&req);
            let (_, r) = cfa_layout(&h.study.app.program, &profile, &req.params);
            let (permille, kb_90) = (r.coverage_permille, r.bytes_for_90pct / 1024);
            let note = format!(
                "covers {}.{}%, 90% needs {kb_90} KB",
                permille / 10,
                permille % 10
            );
            json!({
                "reserved_kb": kb,
                "placed_bytes": r.placed_bytes,
                "coverage_permille": permille,
                "bytes_for_90pct": r.bytes_for_90pct,
                "misses": misses(h, format!("cfa {kb}KB"), req, note),
            })
        })
        .collect();
    let sampled: Vec<Value> = sampled
        .into_iter()
        .map(|(n, req)| json!({"period": n, "misses": misses(h, req.to_string(), req, String::new())}))
        .collect();
    print_table(
        "Ablations: CFA and sampled profiles (app-only misses, 128B/4-way)",
        &[
            "layout",
            "32KB",
            "64KB",
            "128KB",
            "256KB",
            "512KB",
            "CFA reserve",
        ],
        &rows,
    );

    // The hierarchy sees every fetch, so its fetch count is the
    // instruction count the model charges.
    let model = TimingModel::alpha_21264();
    let mut cycles = |req| {
        let hier = h.timing(req).hier_21264;
        model.evaluate(hier.fetches, &hier).total()
    };
    let speedup = cycles(base) as f64 / cycles(all) as f64;
    let num_cpus = h.study.scenario.num_cpus;
    println!("speedup of 'all' on {num_cpus} CPUs: {speedup:.2}x (21264-like; paper: 1.33x on 1p, 1.25x on 4p)");
    json!({
        "figure": "ablations",
        "paper": {
            "cfa": "the footprint for such traces was too large to fit within a reasonably \
                    sized fraction of the cache, and the optimization yielded no gains",
            "sampled": "the optimizer takes either Pixie (exact) or DCPI (sampled) profiles",
            "speedup_1cpu": 1.33,
            "speedup_4cpu": 1.25,
        },
        "measured": {
            "base": base_misses,
            "all": all_misses,
            "cfa": cfa,
            "sampled": sampled,
            "num_cpus": num_cpus,
            "speedup_21264": speedup,
        },
    })
}
