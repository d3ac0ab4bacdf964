//! Static analysis over linked images: translation validation and
//! layout-quality lints.
//!
//! The layout optimizations in `codelayout-core` are pure permutations of
//! block ids, but the *linker* is not: it inverts branch predicates,
//! erases unconditional branches on fall-through edges, and re-targets
//! calls — exactly the transformations that silently corrupt control flow
//! when buggy (the motivating failure mode for BOLT's and Codestitcher's
//! reconstructed-CFG checks). This crate provides the gating correctness
//! tool plus a diagnostics layer on top:
//!
//! * [`validate_translation`] — an abstract walker that decodes every
//!   instruction of the image, reconstructs the image-level CFG
//!   (fall-throughs, inverted conditionals, eliminated unconditionals,
//!   split branch encodings, jump tables, calls), maps it back to source
//!   [`codelayout_ir::BlockId`]s and proves it equivalent — including
//!   branch *polarity*, which plain edge-set comparison cannot see — to
//!   the source CFG. Any divergence is a [`ValidationError`] naming the
//!   offending block and edge.
//! * [`analyze_layout`] / [`lint_layout`] — a lint engine with stable
//!   codes (`L000`–`L008`), severities (deny/warn/info) and text + JSON
//!   renderers, diagnosing layout-quality regressions: hot edges that are
//!   not fall-throughs under chaining, cold blocks glued into hot
//!   segments, misaligned hot blocks, unreachable-but-placed code, and
//!   loop-aware problems (split hot loop bodies, unrotated back edges).
//! * [`DomTree`] / [`LoopForest`] / [`estimate_static_profile`] — the
//!   purely static stack: Cooper–Harvey–Kennedy dominator trees, natural
//!   loops with nesting depths, and a Ball–Larus-style branch-probability
//!   estimator with deterministic integer frequency propagation that
//!   emits a standard [`codelayout_profile::Profile`], letting every
//!   layout series run without a measured profile.
//!
//! # Example
//!
//! ```
//! use codelayout_analysis::{analyze_layout, LintConfig};
//! use codelayout_core::{LayoutPipeline, OptimizationSet};
//! use codelayout_ir::{link::link, ProcBuilder, ProgramBuilder};
//! use codelayout_profile::Profile;
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let main = pb.declare_proc("main");
//! let mut f = ProcBuilder::new();
//! f.nop();
//! f.halt();
//! pb.define_proc(main, f).unwrap();
//! let program = pb.finish(main).unwrap();
//! let profile = Profile::new(program.blocks.len());
//!
//! let set = OptimizationSet::ALL;
//! let layout = LayoutPipeline::new(&program, &profile).build_series(set.into());
//! let image = link(&program, &layout, 0x1_0000).unwrap();
//!
//! let (translation, lints) =
//!     analyze_layout(&program, &profile, &layout, &image, &LintConfig::new(set));
//! assert_eq!(translation.unwrap().blocks, program.blocks.len());
//! assert!(!lints.has_deny());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::missing_errors_doc,
    clippy::missing_panics_doc,
    clippy::many_single_char_names,
    clippy::too_many_lines
)]

mod cfg;
mod dom;
mod lint;
mod loops;
mod staticprof;
mod validate;

pub use cfg::SourceCfg;
pub use dom::DomTree;
pub use lint::{analyze_layout, lint_layout, Diagnostic, LintConfig, LintReport, Severity};
pub use loops::{LoopForest, NaturalLoop};
pub use staticprof::{
    branch_probabilities, estimate_static_profile, estimate_static_profile_with, StaticAnalysis,
    PROB_SCALE, STATIC_ENTRY_COUNT,
};
pub use validate::{validate_translation, TranslationReport, ValidationError};
