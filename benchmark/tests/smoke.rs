//! Smoke pass: `run --smoke` on the small `quick` scenario must emit
//! exactly the metrics `BENCHMARK.json` declares, under valid names, with
//! every run passing its checks.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(v: &Value) -> Vec<String> {
    v.as_array()
        .expect("a list")
        .iter()
        .map(|e| e.get("name").as_str().expect("a name").to_string())
        .collect()
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object().expect("an object").keys().cloned().collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_run_emits_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let declared: Value = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads = names(declared.get("workloads"));
    let end_to_end = names(declared.get("end_to_end"));
    let per_layer = names(declared.get("per_layer"));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    for n in &all {
        assert!(valid_name(n), "invalid metric or workload name `{n}`");
    }
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is declared twice"
    );

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-record.json");
    let run = Command::new(env!("CARGO_BIN_EXE_codelayout-benchmark"))
        .args(["run", "--smoke", "--runs", "2", "--out"])
        .arg(&out)
        .output()
        .expect("start the benchmark");
    assert!(
        run.status.success(),
        "smoke run failed: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout)
    );
    let record: Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("read the record"))
            .expect("the record parses");

    assert_eq!(names(record.get("workloads")), workloads);
    let e2e: BTreeSet<String> = end_to_end.iter().cloned().collect();
    let layers: BTreeSet<String> = per_layer.iter().cloned().collect();
    for w in record.get("workloads").as_array().expect("workloads") {
        let name = w.get("name").as_str().expect("workload name");
        assert_eq!(
            w.get("failed").as_u64(),
            Some(0),
            "{name}: {:?}",
            w.get("failures")
        );
        assert_eq!(keys(w.get("end_to_end")), e2e, "{name}: end-to-end metrics");
        assert_eq!(
            keys(w.get("per_layer")),
            layers,
            "{name}: per-layer metrics"
        );
        for (metric, m) in w.get("per_layer").as_object().expect("per_layer").iter() {
            let moves = m.get("moves").as_str().expect("moves");
            assert!(e2e.contains(moves), "{metric} moves undeclared `{moves}`");
            for key in ["on", "control"] {
                for target in m.get(key).as_array().expect(key) {
                    let t = target.as_str().expect("workload name");
                    assert!(
                        workloads.iter().any(|w| w == t),
                        "{metric} names undeclared workload `{t}`"
                    );
                }
            }
        }
    }
}
