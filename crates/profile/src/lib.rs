//! Profile data and collectors for the `codelayout` toolkit.
//!
//! The paper's layout algorithms are profile-driven: Spike consumed basic
//! block execution counts collected either by **Pixie** (exact
//! instrumentation) or **DCPI** (hardware PC sampling). This crate provides
//! both acquisition modes as [`codelayout_vm::ExecHook`] implementations:
//!
//! * [`PixieCollector`] — exact block, flow-edge and call counts;
//! * [`SampledCollector`] — periodic PC samples giving approximate block
//!   counts, with flow edges estimated from block counts (as Spike does
//!   when given sampled profiles);
//! * [`EdgeSampler`] (module [`sampled`]) — a continuous control-transfer
//!   sampler for the serving loop, with exponentially decayed
//!   accumulation, drift scoring ([`edge_l1_milli`]) and profile
//!   reconstruction ([`profile_from_edge_samples`]).
//!
//! The resulting [`Profile`] is the single input of every optimization in
//! `codelayout-core`.
//!
//! # Example
//!
//! ```
//! use codelayout_ir::{ProcBuilder, ProgramBuilder, Reg, Layout};
//! use codelayout_vm::{Machine, MachineConfig, NullSink};
//! use codelayout_profile::PixieCollector;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new("p");
//! let main = pb.declare_proc("main");
//! let mut f = ProcBuilder::new();
//! f.imm(Reg(1), 1);
//! f.halt();
//! pb.define_proc(main, f)?;
//! let program = pb.finish(main)?;
//! let image = codelayout_ir::link::link(&program, &Layout::natural(&program), 0x40_0000)?;
//!
//! let mut m = Machine::new(image.into(), MachineConfig::default());
//! let mut pixie = PixieCollector::user(program.blocks.len());
//! m.run_hooked(&mut NullSink, &mut pixie, 1_000);
//! let profile = pixie.into_profile();
//! assert_eq!(profile.block_count(codelayout_ir::BlockId(0)), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collect;
mod data;
mod estimate;
pub mod sampled;

pub use collect::{PixieCollector, SampledCollector};
pub use data::Profile;
pub use estimate::estimate_edges_from_blocks;
pub use sampled::{
    edge_l1_milli, profile_from_block_samples, profile_from_edge_samples, DecayedEdgeCounts,
    EdgeSampler, SampleShard,
};
