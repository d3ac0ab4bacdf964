//! Quickstart: build a small program, profile it, optimize its layout, and
//! compare instruction-cache misses.
//!
//! Run with: `cargo run --release --example quickstart`

use codelayout::ir::link::link;
use codelayout::ir::{BinOp, Cond, Layout, Operand, ProcBuilder, ProgramBuilder, Reg};
use codelayout::memsim::{AccessClass, CacheConfig, ICacheSim};
use codelayout::opt::{LayoutPipeline, OptimizationSet};
use codelayout::profile::PixieCollector;
use codelayout::vm::{Machine, MachineConfig, NullSink, RecordingSink, APP_TEXT_BASE};
use std::sync::Arc;

const N: Reg = Reg(1);
const ACC: Reg = Reg(2);
const TMP: Reg = Reg(3);

/// A toy "server": a loop that usually takes a hot path and rarely an
/// error path, calling a helper each iteration.
fn build_program() -> codelayout::ir::Program {
    let mut pb = ProgramBuilder::new("quickstart");
    let main = pb.declare_proc("main");
    let helper = pb.declare_proc("helper");

    let mut f = ProcBuilder::new();
    let head = f.entry();
    let hot = f.new_block();
    let cold = f.new_block();
    let tail = f.new_block();
    let done = f.new_block();
    f.select(head);
    f.branch(Cond::Gt, N, Operand::Imm(0), hot, done);
    f.select(hot);
    // The hot path: arithmetic plus a call.
    f.work(TMP, 14).call(helper);
    f.bin_imm(BinOp::And, TMP, N, 0xFFF);
    f.branch(Cond::Gt, TMP, Operand::Imm(1 << 40), cold, tail); // never taken
    f.select(cold);
    // Inline error handling that never runs but occupies hot cache lines.
    f.work(TMP, 56);
    f.jump(tail);
    f.select(tail);
    f.bin_imm(BinOp::Sub, N, N, 1);
    f.jump(head);
    f.select(done);
    f.emit(ACC);
    f.halt();
    pb.define_proc(main, f).unwrap();

    let mut g = ProcBuilder::new();
    g.bin(BinOp::Add, ACC, ACC, N);
    g.work(Reg(4), 12);
    g.ret();
    pb.define_proc(helper, g).unwrap();

    pb.finish(main).unwrap()
}

fn miss_count(image: Arc<codelayout::ir::Image>, iters: i64) -> (u64, Vec<i64>) {
    let mut m = Machine::new(image, MachineConfig::default());
    m.set_reg(0, N, iters);
    let mut sink = RecordingSink::default();
    let report = m.run(&mut sink, 10_000_000);
    assert!(report.faults.is_empty());
    // Feed the fetch trace to a tiny direct-mapped cache.
    let mut cache = ICacheSim::new(CacheConfig::new(256, 64, 1));
    for rec in &sink.fetches {
        cache.access(rec.addr, AccessClass::from_kernel_flag(rec.kernel));
    }
    (cache.stats().misses, m.emitted(0).to_vec())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = build_program();

    // 1. Profile the natural layout (this is "running pixie").
    let base_image = Arc::new(link(&program, &Layout::natural(&program), APP_TEXT_BASE)?);
    let mut m = Machine::new(Arc::clone(&base_image), MachineConfig::default());
    m.set_reg(0, N, 1000);
    let mut pixie = PixieCollector::user(program.blocks.len());
    m.run_hooked(&mut NullSink, &mut pixie, 10_000_000);
    let profile = pixie.into_profile();

    // 2. Optimize the layout (this is "running Spike").
    let pipeline = LayoutPipeline::new(&program, &profile);
    let optimized = pipeline.build_series(OptimizationSet::ALL.into());
    let opt_image = Arc::new(link(&program, &optimized, APP_TEXT_BASE)?);

    // 3. Compare.
    let (base_misses, base_out) = miss_count(base_image, 1000);
    let (opt_misses, opt_out) = miss_count(opt_image, 1000);
    assert_eq!(base_out, opt_out, "layouts must preserve semantics");

    println!("I-cache misses (256B direct-mapped toy cache):");
    println!("  natural layout:   {base_misses}");
    println!("  optimized layout: {opt_misses}");
    println!(
        "  reduction:        {:.0}%",
        100.0 * (1.0 - opt_misses as f64 / base_misses as f64)
    );
    Ok(())
}
