//! Memory-system simulators and locality metric collectors.
//!
//! The paper reduced full-system SimOS runs to instruction traces fed to
//! simple cache simulators; this crate is that second half of the
//! methodology. Everything here consumes the [`codelayout_vm::TraceSink`]
//! event stream:
//!
//! * [`ICacheSim`] — set-associative LRU cache with per-line owner tracking
//!   (application vs kernel) and a displaced-line interference matrix
//!   (paper Figures 4–7, 12, 13);
//! * [`SweepSpec`] — the one way to name a sweep grid (sizes × line sizes ×
//!   ways × CPUs × stream filter), consumed by every sweep engine;
//! * [`SweepSink`] — the direct grid oracle: one [`ICacheSim`] per
//!   (configuration, CPU), fed from a single trace; only the tests and
//!   the benchmark's probes run it;
//! * [`StackDistanceSim`] — single-pass stack-distance profiler: exact
//!   per-configuration statistics for every size × associativity at one
//!   line size, bit-identical to [`ICacheSim`]; one level per distinct
//!   (set count, ways), one `u64` per way holding the line and the class
//!   that filled it, and a level walk that stops at the first level
//!   where the line is already at the front of its set;
//! * [`GridSink`] — one [`SweepSpec`] on the stack-distance profilers,
//!   fed record by record on the calling thread and bit-identical to
//!   [`SweepSink`] (the harness streams its live measurement passes into
//!   it, the autotuner its remapped window, the serving loop its epoch
//!   windows); it is the only grid simulator a run uses;
//! * [`on_lanes`] — independent items claimed in item order by lanes of
//!   scoped threads, results in item order; [`ParallelSweep`] replays a recorded
//!   [`codelayout_vm::FrozenTrace`] through [`SweepSpec`] jobs that way,
//!   one simulator per job on either [`SweepEngine`] (a [`GridSink`], or
//!   the direct [`SweepSink`] oracle), for the tests and the benchmark's
//!   probes;
//! * [`LocalityCache`] — per-line word-use bitmaps, word reuse counters and
//!   line lifetimes (Figures 9, 10, 11, and the unused-fetch claim);
//! * [`SequenceProfiler`] — sequential run-length histogram (Figure 8);
//! * [`Itlb`] — fully-associative LRU instruction TLB (Figure 14);
//! * [`MemoryHierarchy`] — per-CPU L1I/L1D + iTLB in front of a shared
//!   unified L2 (Figure 14 and the timing model's inputs);
//! * [`FootprintCounter`] — unique lines/instructions touched (the 500 KB →
//!   315 KB packing claim).
//!
//! All simulators are deterministic and allocation-stable; the sweep sink is
//! the hot path and is written to run tens of millions of accesses per
//! second.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod footprint;
mod hierarchy;
mod icache;
mod itlb;
mod locality;
mod parallel;
mod sequence;
mod spec;
mod stack;
mod sweep;

pub use config::{CacheConfig, StreamFilter};
pub use footprint::FootprintCounter;
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
pub use icache::{AccessClass, CacheStats, ICacheSim};
pub use itlb::Itlb;
pub use locality::{LocalityCache, LocalityStats};
pub use parallel::{on_lanes, GridSink, ParallelSweep, SweepEngine};
pub use sequence::{SequenceProfiler, SequenceStats};
pub use spec::{SweepSpec, LINES_B, SIZES_KB};
pub use stack::StackDistanceSim;
pub use sweep::{SweepCell, SweepSink};
