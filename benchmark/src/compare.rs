//! `compare A.json B.json`: per workload and metric, both sides' median
//! and quartiles, and a verdict on each end-to-end metric against its
//! declared bound.

use crate::spec::{Better, END_TO_END, LAYERS};
use crate::stats::{median, quartiles, spread};
use serde_json::Value;

/// How B compares with A on one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, and the runs of B
    /// are not all better than those of A.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for B against A, baseline A.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive when B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    if all_better {
        Verdict::Better
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn workload<'a>(record: &'a Value, name: &str) -> Option<&'a Value> {
    record
        .get("workloads")
        .as_array()?
        .iter()
        .find(|w| w.get("name").as_str() == Some(name))
}

/// The values of one metric; `None` when there are none, as when every
/// run of the workload failed.
fn values(record: &Value, name: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let v: Vec<f64> = workload(record, name)?
        .get(section)
        .get(metric)
        .get("values")
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<_>>()?;
    (!v.is_empty()).then_some(v)
}

/// Failed and attempted runs of one workload.
fn run_counts(record: &Value, name: &str) -> Option<(u64, u64)> {
    let w = workload(record, name)?;
    Some((w.get("failed").as_u64()?, w.get("attempted").as_u64()?))
}

fn describe(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{:.6}, {:.6}]", median(v), q1, q3)
}

/// Prints the comparison and returns the number of flagged rows: a
/// workload with failed runs in B, and an end-to-end metric that is
/// worse, unresolved or missing on one side.
pub fn compare(a: &Value, b: &Value) -> usize {
    let mut flagged = 0;
    let names: Vec<&str> = a
        .get("workloads")
        .as_array()
        .map(|ws| ws.iter().filter_map(|w| w.get("name").as_str()).collect())
        .unwrap_or_default();
    println!("median [q1, q3] of A and B; verdict for B against A");
    for w in names {
        println!("\n== {w}");
        let counts = |r: &Value| match run_counts(r, w) {
            Some((failed, attempted)) => format!("{failed} of {attempted} failed"),
            None => "missing".to_string(),
        };
        let b_failed = run_counts(b, w).is_none_or(|(failed, _)| failed > 0);
        if b_failed {
            flagged += 1;
        }
        println!(
            "{:<36} A {}  B {}{}",
            "runs",
            counts(a),
            counts(b),
            if b_failed { "  failed" } else { "" }
        );
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values(a, w, "end_to_end", m.name),
                values(b, w, "end_to_end", m.name),
            ) else {
                println!("{:<36} missing on one side", m.name);
                flagged += 1;
                continue;
            };
            let v = verdict(&va, &vb, m.better, m.bound);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            println!(
                "{:<36} {:<6} A {}  B {}  bound {:.0}%  {}",
                m.name,
                m.unit,
                describe(&va),
                describe(&vb),
                100.0 * m.bound,
                v.label()
            );
        }
        for l in &LAYERS {
            if let (Some(va), Some(vb)) = (
                values(a, w, "per_layer", l.name),
                values(b, w, "per_layer", l.name),
            ) {
                println!(
                    "{:<36} {:<8} A {}  B {}",
                    l.name,
                    l.unit,
                    describe(&va),
                    describe(&vb)
                );
            }
        }
    }
    flagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&a, &[10.0, 10.05, 9.95], Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[11.5, 11.6, 11.4], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[11.5, 11.6, 11.4], Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[8.0, 13.0, 10.0, 12.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Every run of B better than every run of A resolves a wide spread.
        assert_eq!(
            verdict(&[10.0, 14.0], &[5.0, 7.0], Better::Lower, 0.1),
            Verdict::Better
        );
        // A zero bound flags any worsening of an exact count.
        assert_eq!(
            verdict(&[100.0], &[101.0], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[100.0], &[100.0], Better::Lower, 0.0),
            Verdict::Same
        );
    }

    /// A one-workload record with `failed` of three runs failed and the
    /// same `values` for every end-to-end metric.
    fn record(failed: u64, values: &[f64]) -> Value {
        let e2e: serde_json::Map = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), json!({ "values": values })))
            .collect();
        json!({"workloads": [{
            "name": "w",
            "attempted": 3,
            "failed": failed,
            "end_to_end": e2e,
        }]})
    }

    #[test]
    fn failed_runs_and_empty_values_are_flagged() {
        let good = record(0, &[10.0, 10.1, 9.9]);
        assert_eq!(compare(&good, &good), 0);
        // One failed run in B flags the workload even though its passing
        // runs compare clean.
        assert_eq!(compare(&good, &record(1, &[10.0, 10.1])), 1);
        // Every run failed: no values, so each metric is missing on one
        // side, not a verdict on nothing.
        assert_eq!(compare(&good, &record(3, &[])), 1 + END_TO_END.len());
        assert_eq!(compare(&record(3, &[]), &good), END_TO_END.len());
    }
}
