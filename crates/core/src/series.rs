//! [`LayoutSeries`]: the pass-selection surface over every layout
//! algorithm this crate implements.
//!
//! The paper's six chain/split/porder combinations, the two algorithms it
//! compares against (hot/cold splitting, CFA), and the two modern
//! successors (ext-TSP, Codestitcher) are all addressable by one stable
//! label, so benchmarks, lints, run names and figure tables can name any
//! series uniformly.

use crate::pipeline::OptimizationSet;
use crate::request::ParseRequestError;
use std::fmt;

/// One selectable layout algorithm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutSeries {
    /// One of the paper's chain/split/porder combinations.
    Paper(OptimizationSet),
    /// Spike-distribution hot/cold splitting ([`crate::hot_cold_layout`]).
    HotCold,
    /// Conflict-free-area / software trace cache ([`crate::cfa_layout`]).
    Cfa,
    /// ext-TSP chain merging ([`crate::exttsp_layout`]).
    ExtTsp,
    /// Codestitcher hierarchical collocation ([`crate::stitcher_layout`]).
    Stitcher,
}

impl From<OptimizationSet> for LayoutSeries {
    fn from(set: OptimizationSet) -> Self {
        LayoutSeries::Paper(set)
    }
}

impl LayoutSeries {
    /// Every series, in presentation order: the paper's six, then the two
    /// algorithms the paper compares against, then the two modern
    /// successors.
    pub fn all() -> [LayoutSeries; 10] {
        [
            LayoutSeries::Paper(OptimizationSet::BASE),
            LayoutSeries::Paper(OptimizationSet::PORDER),
            LayoutSeries::Paper(OptimizationSet::CHAIN),
            LayoutSeries::Paper(OptimizationSet::CHAIN_SPLIT),
            LayoutSeries::Paper(OptimizationSet::CHAIN_PORDER),
            LayoutSeries::Paper(OptimizationSet::ALL),
            LayoutSeries::HotCold,
            LayoutSeries::Cfa,
            LayoutSeries::ExtTsp,
            LayoutSeries::Stitcher,
        ]
    }

    /// The five series of the cross-algorithm comparison table: the
    /// baseline, the paper trio's best (`all`), hot/cold splitting, and
    /// the two modern passes.
    pub fn comparison() -> [LayoutSeries; 5] {
        [
            LayoutSeries::Paper(OptimizationSet::BASE),
            LayoutSeries::Paper(OptimizationSet::ALL),
            LayoutSeries::HotCold,
            LayoutSeries::ExtTsp,
            LayoutSeries::Stitcher,
        ]
    }

    /// The series gated by the `layout_lint` matrix: the paper's six plus
    /// the two modern passes (hot/cold and CFA interleave segments their
    /// own way and are evaluated, not gated).
    pub fn lint_matrix() -> [LayoutSeries; 8] {
        [
            LayoutSeries::Paper(OptimizationSet::BASE),
            LayoutSeries::Paper(OptimizationSet::PORDER),
            LayoutSeries::Paper(OptimizationSet::CHAIN),
            LayoutSeries::Paper(OptimizationSet::CHAIN_SPLIT),
            LayoutSeries::Paper(OptimizationSet::CHAIN_PORDER),
            LayoutSeries::Paper(OptimizationSet::ALL),
            LayoutSeries::ExtTsp,
            LayoutSeries::Stitcher,
        ]
    }

    /// Stable lowercase label, as accepted by [`LayoutSeries::parse`]
    /// and used by the harness, figures and manifests.
    pub fn label(self) -> &'static str {
        match self {
            LayoutSeries::Paper(set) => set.label(),
            LayoutSeries::HotCold => "hotcold",
            LayoutSeries::Cfa => "cfa",
            LayoutSeries::ExtTsp => "exttsp",
            LayoutSeries::Stitcher => "stitcher",
        }
    }

    /// Parses the label of one of [`LayoutSeries::all`].
    ///
    /// The error names every accepted label, so misspelled run names fail
    /// with an actionable message instead of a bare `None`.
    pub fn parse(s: &str) -> Result<LayoutSeries, ParseRequestError> {
        LayoutSeries::all()
            .into_iter()
            .find(|x| x.label() == s)
            .ok_or_else(|| ParseRequestError::UnknownSeries(s.to_string()))
    }

    /// The optimization claims `lint_layout` should judge this series
    /// under. The paper series carry their own set; ext-TSP arranges
    /// fall-throughs and orders procedures (chain + porder claims, no
    /// splitting — procedures stay contiguous); Codestitcher places
    /// exactly the chained-and-split segments, so the full `all` premises
    /// hold. Hot/cold and CFA interleave code their own way and only
    /// claim chaining.
    pub fn lint_set(self) -> OptimizationSet {
        match self {
            LayoutSeries::Paper(set) => set,
            LayoutSeries::HotCold | LayoutSeries::Cfa => OptimizationSet::CHAIN,
            LayoutSeries::ExtTsp => OptimizationSet::CHAIN_PORDER,
            LayoutSeries::Stitcher => OptimizationSet::ALL,
        }
    }

    /// The placement convention the series guarantees, as checked by
    /// [`codelayout_ir::verify_layout_placement`]: `Some(false)` for
    /// procedure-contiguous layouts, `Some(true)` for segment-level
    /// placements, `None` for series with no positional convention
    /// (hot/cold and CFA deliberately interleave procedures).
    pub fn placement_split(self) -> Option<bool> {
        match self {
            LayoutSeries::Paper(set) => Some(set.split),
            LayoutSeries::ExtTsp => Some(false),
            LayoutSeries::Stitcher => Some(true),
            LayoutSeries::HotCold | LayoutSeries::Cfa => None,
        }
    }
}

impl fmt::Display for LayoutSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for s in LayoutSeries::all() {
            assert_eq!(LayoutSeries::parse(s.label()), Ok(s), "{s}");
        }
        let err = LayoutSeries::parse("nope").unwrap_err();
        assert_eq!(err, ParseRequestError::UnknownSeries("nope".to_string()));
        let msg = err.to_string();
        for s in LayoutSeries::all() {
            assert!(msg.contains(s.label()), "error omits `{s}`: {msg}");
        }
    }

    #[test]
    fn label_sets_are_consistent() {
        let all: Vec<&str> = LayoutSeries::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            all,
            [
                "base",
                "porder",
                "chain",
                "chain+split",
                "chain+porder",
                "all",
                "hotcold",
                "cfa",
                "exttsp",
                "stitcher"
            ]
        );
        for s in LayoutSeries::comparison() {
            assert!(all.contains(&s.label()));
        }
        for s in LayoutSeries::lint_matrix() {
            assert!(all.contains(&s.label()));
        }
        // Every chain/split/porder combination has its own label, the
        // paper's six included.
        let sets: Vec<&str> = (0..8u8)
            .map(|bits| OptimizationSet {
                chain: bits & 1 != 0,
                split: bits & 2 != 0,
                porder: bits & 4 != 0,
            })
            .map(|set| {
                assert_eq!(LayoutSeries::from(set).label(), set.label());
                assert_eq!(set.to_string(), set.label());
                set.label()
            })
            .collect();
        let mut distinct = sets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8, "{sets:?}");
        let split_only = OptimizationSet {
            chain: false,
            split: true,
            porder: false,
        };
        assert_eq!(crate::LayoutRequest::from(split_only).to_string(), "split");
    }

    #[test]
    fn paper_labels_match_optimization_set_display() {
        for (name, set) in OptimizationSet::paper_series() {
            assert_eq!(LayoutSeries::Paper(set).label(), name);
            assert_eq!(LayoutSeries::Paper(set).lint_set(), set);
            assert_eq!(LayoutSeries::Paper(set).placement_split(), Some(set.split));
        }
    }
}
