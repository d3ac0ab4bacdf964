//! [`LayoutRequest`]: the one value that names a layout to build.
//!
//! Every experiment builds a layout from three choices — the series, the
//! profile that feeds it, and the pass parameters — so one request type
//! carries all three, and its text form is the run name the harness,
//! figure JSON, metric keys and run manifests use: `all` (the measured
//! profile, default parameters), `static:all` / `sampled:64:all` (another
//! profile; the last samples one block every 64 instructions), and
//! `cfa{cfa.reserved_bytes=8192}` (every parameter that differs from its
//! default, display only). Each request has exactly one name, and
//! distinct requests have distinct names.

use crate::params::{LayoutParams, ParamSpace};
use crate::pipeline::OptimizationSet;
use crate::series::LayoutSeries;
use std::fmt;
use std::num::NonZeroU64;
use std::str::FromStr;

/// The profile feeding the layout passes.
///
/// `Measured` feeds them the execution profile collected by the
/// instrumented profiling run (the paper's Pixie path); `Static` feeds
/// them the purely static Ball–Larus-style estimate, so every layout
/// series runs without any profiling run at all; `Sampled` feeds them a
/// DCPI-style profile: one sample every `period` instructions of the
/// profiling run, with edge weights estimated from the block counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProfileSource {
    /// Instrumented execution counts (default).
    #[default]
    Measured,
    /// Static branch-heuristic frequency estimates.
    Static,
    /// Block samples taken every `period` retired instructions.
    Sampled(NonZeroU64),
}

impl ProfileSource {
    /// Stable lowercase name of the source's kind (`"measured"` /
    /// `"static"` / `"sampled"`).
    pub fn label(self) -> &'static str {
        match self {
            ProfileSource::Measured => "measured",
            ProfileSource::Static => "static",
            ProfileSource::Sampled(_) => "sampled",
        }
    }
}

/// A layout to build: which series, from which profile, with which pass
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutRequest {
    /// The layout algorithm family.
    pub series: LayoutSeries,
    /// The profile feeding the passes.
    pub source: ProfileSource,
    /// Pass parameters.
    pub params: LayoutParams,
}

impl LayoutRequest {
    /// The request with another profile source.
    pub fn with_source(self, source: ProfileSource) -> Self {
        LayoutRequest { source, ..self }
    }

    /// The request with other pass parameters (a tuned layout).
    pub fn with_params(self, params: LayoutParams) -> Self {
        LayoutRequest { params, ..self }
    }
}

impl From<LayoutSeries> for LayoutRequest {
    fn from(series: LayoutSeries) -> Self {
        LayoutRequest {
            series,
            source: ProfileSource::default(),
            params: LayoutParams::default(),
        }
    }
}

impl From<OptimizationSet> for LayoutRequest {
    fn from(set: OptimizationSet) -> Self {
        LayoutSeries::Paper(set).into()
    }
}

impl fmt::Display for LayoutRequest {
    /// `[static:|sampled:N:]<series>`, then `{knob=value,…}` over every
    /// knob of [`ParamSpace::full`] whose value differs from its default.
    /// The knobs cover every [`LayoutParams`] field, so distinct requests
    /// print distinct names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            ProfileSource::Measured => {}
            ProfileSource::Static => f.write_str("static:")?,
            ProfileSource::Sampled(period) => write!(f, "sampled:{period}:")?,
        }
        f.write_str(self.series.label())?;
        if self.params != LayoutParams::default() {
            let defaults = LayoutParams::default();
            let mut sep = '{';
            for knob in ParamSpace::full().knobs() {
                let value = knob.get(&self.params);
                if value != knob.get(&defaults) {
                    write!(f, "{sep}{}={value}", knob.name())?;
                    sep = ',';
                }
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

impl FromStr for LayoutRequest {
    type Err = ParseRequestError;

    /// Parses `label`, `static:label` or `sampled:N:label` (N a sampling
    /// period from 1 to `u64::MAX`). Parameters have no text form to
    /// parse: a request with non-default parameters is built in code.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (source, label) = match s.split_once(':') {
            None => (ProfileSource::Measured, s),
            Some(("static", label)) => (ProfileSource::Static, label),
            Some(("sampled", rest)) => {
                let (period, label) = rest
                    .split_once(':')
                    .and_then(|(n, label)| Some((n.parse::<NonZeroU64>().ok()?, label)))
                    .ok_or_else(|| ParseRequestError::Sampled(s.to_string()))?;
                (ProfileSource::Sampled(period), label)
            }
            Some(_) => return Err(ParseRequestError::UnknownPrefix(s.to_string())),
        };
        Ok(LayoutRequest::from(LayoutSeries::parse(label)?).with_source(source))
    }
}

/// Error returned when parsing a [`LayoutRequest`] or a
/// [`LayoutSeries`] label. Its display names every accepted label and
/// prefix, so misspelled run names fail with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRequestError {
    /// The series label is unknown.
    UnknownSeries(String),
    /// The text before `:` is not a profile-source prefix.
    UnknownPrefix(String),
    /// A `sampled:` name without a period from 1 to `u64::MAX` and a
    /// series after it.
    Sampled(String),
}

impl fmt::Display for ParseRequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseRequestError::UnknownSeries(s) => write!(f, "unknown layout series `{s}`")?,
            ParseRequestError::UnknownPrefix(s) => {
                write!(f, "unknown prefix in layout request `{s}`")?
            }
            ParseRequestError::Sampled(s) => write!(
                f,
                "layout request `{s}`: expected `sampled:N:<series>` with N from 1 to {}",
                u64::MAX
            )?,
        }
        let labels: Vec<&str> = LayoutSeries::all().iter().map(|s| s.label()).collect();
        write!(
            f,
            "; accepted labels: {}; run names may add a `static:` or `sampled:N:` prefix",
            labels.join(", ")
        )
    }
}

impl std::error::Error for ParseRequestError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamPoint;
    use proptest::prelude::*;

    fn sampled(period: u64) -> ProfileSource {
        ProfileSource::Sampled(NonZeroU64::new(period).unwrap())
    }

    #[test]
    fn requests_round_trip_through_text() {
        for series in LayoutSeries::all() {
            let bare = LayoutRequest::from(series);
            assert_eq!(bare.to_string(), series.label());
            for req in [
                bare,
                bare.with_source(ProfileSource::Static),
                bare.with_source(sampled(1)),
                bare.with_source(sampled(u64::MAX)),
            ] {
                let text = req.to_string();
                assert_eq!(text.parse::<LayoutRequest>(), Ok(req), "{text}");
            }
        }
        let all = LayoutRequest::from(OptimizationSet::ALL);
        assert_eq!(
            all.with_source(ProfileSource::Static).to_string(),
            "static:all"
        );
        assert_eq!(all.with_source(sampled(64)).to_string(), "sampled:64:all");
    }

    #[test]
    fn default_source_and_params_are_the_bare_request() {
        assert_eq!(ProfileSource::default(), ProfileSource::Measured);
        for series in LayoutSeries::all() {
            let bare = LayoutRequest::from(series);
            assert_eq!(bare.with_params(LayoutParams::default()), bare);
            assert_eq!(bare.with_source(ProfileSource::Measured), bare);
            assert_eq!(
                bare.with_params(LayoutParams::default()).to_string(),
                series.label()
            );
        }
    }

    #[test]
    fn explicit_params_print_the_knobs_off_their_defaults() {
        let mut params = LayoutParams::default();
        params.cfa.reserved_bytes = 8192;
        let cfa = LayoutRequest::from(LayoutSeries::Cfa).with_params(params);
        assert_eq!(cfa.to_string(), "cfa{cfa.reserved_bytes=8192}");
        params.split.cut_fallthrough_jumps = true;
        assert_eq!(
            cfa.with_params(params)
                .with_source(ProfileSource::Static)
                .to_string(),
            "static:cfa{split.cut_fallthrough_jumps=1,cfa.reserved_bytes=8192}"
        );
    }

    #[test]
    fn ablation_requests_have_distinct_names() {
        let mut reqs: Vec<LayoutRequest> = [8u64, 16, 32, 48]
            .iter()
            .map(|kb| {
                let mut params = LayoutParams::default();
                params.cfa.reserved_bytes = kb * 1024;
                LayoutRequest::from(LayoutSeries::Cfa).with_params(params)
            })
            .collect();
        let all = LayoutRequest::from(OptimizationSet::ALL);
        reqs.extend([1u64, 16, 64, 256].map(|n| all.with_source(sampled(n))));
        reqs.extend([OptimizationSet::BASE.into(), all]);
        let names: std::collections::BTreeSet<String> =
            reqs.iter().map(|r| r.to_string()).collect();
        assert_eq!(names.len(), 10, "{names:?}");
    }

    /// Points of the full space, numbered in mixed radix over its grids.
    fn full_space_points() -> u64 {
        ParamSpace::full()
            .knobs()
            .iter()
            .map(|k| k.values().len() as u64)
            .product()
    }

    /// The grid indices of point number `n` of the full space.
    fn full_space_point(mut n: u64) -> Vec<u32> {
        let space = ParamSpace::full();
        space
            .knobs()
            .iter()
            .map(|k| {
                let len = k.values().len() as u64;
                let i = n % len;
                n /= len;
                i as u32
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sampled_requests_round_trip_through_text(
            period in 1u64..=u64::MAX,
            series in 0usize..LayoutSeries::all().len(),
        ) {
            let req = LayoutRequest::from(LayoutSeries::all()[series]).with_source(sampled(period));
            let text = req.to_string();
            prop_assert_eq!(text.parse::<LayoutRequest>(), Ok(req));
        }

        #[test]
        fn distinct_params_print_distinct_names(
            a in 0..full_space_points(),
            b in 0..full_space_points(),
            knob in 0usize..ParamSpace::full().len(),
            value in 0u32..8,
            series in 0usize..LayoutSeries::all().len(),
        ) {
            let space = ParamSpace::full();
            let name = |idx: &[u32]| {
                let params = space.params(&ParamPoint::new(&space, idx.to_vec()));
                LayoutRequest::from(LayoutSeries::all()[series]).with_params(params).to_string()
            };
            let a = full_space_point(a);
            let b = full_space_point(b);
            prop_assert_eq!(a == b, name(&a) == name(&b));
            // A neighbour of `a` in one knob, or `a` itself.
            let mut c = a.clone();
            c[knob] = value % space.knobs()[knob].values().len() as u32;
            prop_assert_eq!(a == c, name(&a) == name(&c));
        }
    }

    #[test]
    fn malformed_sampled_requests_are_typed_errors() {
        for input in [
            "sampled:0:all",
            "sampled::all",
            "sampled:x:all",
            "sampled:64",
            "sampled:18446744073709551616:all",
            "sampled:-1:all",
        ] {
            let err = input.parse::<LayoutRequest>().unwrap_err();
            assert_eq!(err, ParseRequestError::Sampled(input.to_string()));
            assert!(err.to_string().contains("sampled:N:<series>"), "{err}");
        }
        // A well-formed period with an unknown series is a series error.
        assert!(matches!(
            "sampled:64:nope".parse::<LayoutRequest>(),
            Err(ParseRequestError::UnknownSeries(_))
        ));
    }

    #[test]
    fn rejected_requests_name_the_accepted_forms() {
        let cases = [
            ("nope", "unknown layout series `nope`"),
            ("static:nope", "unknown layout series `nope`"),
            ("hot:all", "unknown prefix"),
            ("measured:all", "unknown prefix"),
            ("tuned:all", "unknown prefix"),
            ("sampled:0:all", "expected `sampled:N:<series>`"),
        ];
        for (input, why) in cases {
            let err = input.parse::<LayoutRequest>().unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(why), "{input}: {msg}");
            for s in LayoutSeries::all() {
                assert!(msg.contains(s.label()), "{input}: omits `{s}`: {msg}");
            }
            for prefix in ["static:", "sampled:N:"] {
                assert!(msg.contains(prefix), "{input}: omits `{prefix}`: {msg}");
            }
        }
        for input in ["measured:all", "tuned:all", "hot:all"] {
            assert_eq!(
                input.parse::<LayoutRequest>(),
                Err(ParseRequestError::UnknownPrefix(input.to_string()))
            );
        }
        assert!(matches!(
            "nope".parse::<LayoutRequest>(),
            Err(ParseRequestError::UnknownSeries(_))
        ));
    }
}
