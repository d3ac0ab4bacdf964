//! A miniature TPC-B transaction-processing workload, written in the
//! `codelayout` IR — the stand-in for the paper's Oracle-on-Alpha setup.
//!
//! The crate provides:
//!
//! * [`Scenario`] / [`CodeScale`] — workload scale and binary-shape knobs;
//! * [`SgaLayout`] — the shared-memory map (tables, B-tree index, buffer
//!   pool, history, log staging) and the host-side database loader;
//! * [`gen_app`] — the generated database server program (parser paths,
//!   executor paths, B-tree lookups, buffer manager, branch locks, WAL);
//! * [`gen_kernel`] — the synthetic kernel (receive/log-write/reply
//!   syscalls, scheduler path, dead driver mass);
//! * [`build_study`] / [`Study`] — the full methodology driver: profile on
//!   the baseline binary, build optimized layouts, run measured
//!   experiments with cache simulators attached.
//!
//! Correctness is checkable: the TPC-B consistency conditions (account,
//! teller and branch balance totals all equal the sum of committed deltas;
//! one history record per transaction) are read back from shared memory
//! after every run, and every layout must reproduce the baseline's
//! architectural results exactly.
//!
//! # Example
//!
//! ```no_run
//! use codelayout_oltp::{build_study, Scenario};
//! use codelayout_core::OptimizationSet;
//! use codelayout_vm::CountingSink;
//!
//! let study = build_study(&Scenario::quick());
//! let optimized = study.image(OptimizationSet::ALL);
//! let mut sink = CountingSink::default();
//! let out = study.run_measured(&optimized, &study.base_kernel_image, &mut sink);
//! out.assert_correct();
//! println!("measured {} instructions", sink.fetches);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod driver;
mod kernel;
mod scenario;
mod sga;

pub use app::{gen_app, AppSpec};
pub use driver::{build_study, BuildError, RunOutcome, Study};
pub use kernel::{gen_kernel, KernelSpec, SYS_LOG_WRITE, SYS_RECEIVE, SYS_REPLY};
pub use scenario::{drift_schedule, CodeScale, MixPhase, Scenario};
pub use sga::{
    btree_search_host, priv_words, words, Invariants, SgaLayout, ACCT_STRIDE, BRANCH_STRIDE,
    BTREE_FANOUT, BTREE_NODE_WORDS, BUF_STRIDE, HIST_STRIDE, LOG_STAGE_WORDS, ROWS_PER_PAGE,
    TELLER_STRIDE,
};
