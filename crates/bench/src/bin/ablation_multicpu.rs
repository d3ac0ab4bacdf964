//! Ablation: uniprocessor vs 4-processor execution-time impact. The paper
//! reports 1.33× on one processor and 1.25× on four (data communication
//! misses dilute the instruction-fetch gains).

use codelayout_bench::Harness;
use codelayout_core::OptimizationSet;
use codelayout_oltp::Scenario;
use codelayout_timing::TimingModel;

fn main() {
    let model = TimingModel::alpha_21264();
    for (label, scenario) in [
        ("1 CPU", Scenario::paper_hw()),
        ("4 CPUs", Scenario::paper_sim()),
    ] {
        let mut h = Harness::new(&scenario);
        // The hierarchy sees every fetch, so its fetch count is the
        // instruction count the model charges.
        let mut cycles = |req: OptimizationSet| {
            let hier = h.timing(req).hier_21264;
            model.evaluate(hier.fetches, &hier).total()
        };
        let (base_cycles, opt_cycles) =
            (cycles(OptimizationSet::BASE), cycles(OptimizationSet::ALL));
        println!(
            "{label}: speedup of 'all' = {:.2}x (paper: 1.33x on 1p, 1.25x on 4p)",
            base_cycles as f64 / opt_cycles as f64
        );
    }
}
