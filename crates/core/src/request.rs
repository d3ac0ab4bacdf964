//! [`LayoutRequest`]: the one value that names a layout to build.
//!
//! Every experiment builds a layout from three choices — the series, the
//! profile that feeds it, and the pass parameters — so one request type
//! carries all three, and its text form is the run name the harness,
//! figure JSON, metric keys and run manifests use: `all` (profile source
//! from `CODELAYOUT_PROFILE_SOURCE`), `measured:all` / `static:all` /
//! `sampled:64:all` (source pinned; the last samples one block every 64
//! instructions), and `tuned:exttsp` (explicit parameters, whatever the
//! source; display only).

use crate::params::LayoutParams;
use crate::pipeline::OptimizationSet;
use crate::series::LayoutSeries;
use codelayout_obs::ProfileSource;
use std::fmt;
use std::num::NonZeroU64;
use std::str::FromStr;

/// A layout to build: which series, from which profile, with which pass
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutRequest {
    /// The layout algorithm family.
    pub series: LayoutSeries,
    /// The profile feeding the passes; `None` follows
    /// `CODELAYOUT_PROFILE_SOURCE` (default: measured).
    pub source: Option<ProfileSource>,
    /// Pass parameters; `None` means [`LayoutParams::default`].
    pub params: Option<LayoutParams>,
}

impl LayoutRequest {
    /// The request with its profile source pinned.
    pub fn with_source(self, source: ProfileSource) -> Self {
        LayoutRequest {
            source: Some(source),
            ..self
        }
    }

    /// The request with explicit pass parameters (a tuned layout).
    pub fn with_params(self, params: LayoutParams) -> Self {
        LayoutRequest {
            params: Some(params),
            ..self
        }
    }

    /// The profile source the request builds from: its pinned source, or
    /// the `CODELAYOUT_PROFILE_SOURCE` selection.
    pub fn resolved_source(&self) -> ProfileSource {
        self.source
            .unwrap_or_else(|| codelayout_obs::run_env().profile_source)
    }
}

impl From<LayoutSeries> for LayoutRequest {
    fn from(series: LayoutSeries) -> Self {
        LayoutRequest {
            series,
            source: None,
            params: None,
        }
    }
}

impl From<OptimizationSet> for LayoutRequest {
    fn from(set: OptimizationSet) -> Self {
        LayoutSeries::Paper(set).into()
    }
}

impl fmt::Display for LayoutRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.params.is_some() {
            f.write_str("tuned:")?;
        } else if let Some(source) = self.source {
            write!(f, "{}:", source.label())?;
            if let ProfileSource::Sampled(period) = source {
                write!(f, "{period}:")?;
            }
        }
        f.write_str(self.series.label())
    }
}

impl FromStr for LayoutRequest {
    type Err = ParseRequestError;

    /// Parses `label`, `measured:label`, `static:label` or
    /// `sampled:N:label` (N a sampling period from 1 to `u64::MAX`).
    /// Tuned requests carry parameters that have no text form, so
    /// `tuned:` is rejected.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (source, label) = match s.split_once(':') {
            None => (None, s),
            Some(("measured", label)) => (Some(ProfileSource::Measured), label),
            Some(("static", label)) => (Some(ProfileSource::Static), label),
            Some(("sampled", rest)) => {
                let (period, label) = rest
                    .split_once(':')
                    .and_then(|(n, label)| Some((n.parse::<NonZeroU64>().ok()?, label)))
                    .ok_or_else(|| ParseRequestError::Sampled(s.to_string()))?;
                (Some(ProfileSource::Sampled(period)), label)
            }
            Some(("tuned", _)) => return Err(ParseRequestError::Tuned(s.to_string())),
            Some(_) => return Err(ParseRequestError::UnknownPrefix(s.to_string())),
        };
        Ok(LayoutRequest {
            series: LayoutSeries::parse(label)?,
            source,
            params: None,
        })
    }
}

/// Error returned when parsing a [`LayoutRequest`] or a
/// [`LayoutSeries`] label. Its display names every accepted label and
/// prefix, so misspelled env knobs and run names fail with an actionable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseRequestError {
    /// The series label is unknown.
    UnknownSeries(String),
    /// The text before `:` is not a profile-source prefix.
    UnknownPrefix(String),
    /// A `sampled:` name without a period from 1 to `u64::MAX` and a
    /// series after it.
    Sampled(String),
    /// A `tuned:` name: tuned parameters cannot be given as text.
    Tuned(String),
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
            ParseRequestError::Tuned(s) => write!(
                f,
                "layout request `{s}`: tuned parameters have no text form"
            )?,
        }
        let labels: Vec<&str> = LayoutSeries::all().iter().map(|s| s.label()).collect();
        write!(
            f,
            "; accepted labels: {}; run names may add a `measured:`, `static:` or \
             `sampled:N:` prefix",
            labels.join(", ")
        )
    }
}

impl std::error::Error for ParseRequestError {}

#[cfg(test)]
mod tests {
    use super::*;
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
                bare.with_source(ProfileSource::Measured),
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
        assert_eq!(
            LayoutRequest::from(LayoutSeries::ExtTsp)
                .with_params(LayoutParams::default())
                .to_string(),
            "tuned:exttsp"
        );
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
            ("tuned:exttsp", "tuned parameters have no text form"),
            ("sampled:0:all", "expected `sampled:N:<series>`"),
        ];
        for (input, why) in cases {
            let err = input.parse::<LayoutRequest>().unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(why), "{input}: {msg}");
            for s in LayoutSeries::all() {
                assert!(msg.contains(s.label()), "{input}: omits `{s}`: {msg}");
            }
            for prefix in ["measured:", "static:", "sampled:N:"] {
                assert!(msg.contains(prefix), "{input}: omits `{prefix}`: {msg}");
            }
        }
        assert!(matches!(
            "tuned:exttsp".parse::<LayoutRequest>(),
            Err(ParseRequestError::Tuned(_))
        ));
        assert!(matches!(
            "hot:all".parse::<LayoutRequest>(),
            Err(ParseRequestError::UnknownPrefix(_))
        ));
        assert!(matches!(
            "nope".parse::<LayoutRequest>(),
            Err(ParseRequestError::UnknownSeries(_))
        ));
    }
}
