//! The snapshot check the golden tests share: compare a JSON value with
//! its checked-in snapshot under `tests/golden/`, or rewrite the snapshot
//! when `CODELAYOUT_UPDATE_GOLDEN=1`.

use serde_json::Value;

/// Asserts `got` equals the snapshot `tests/golden/<file>`, which the
/// integration test `test` checks. With `CODELAYOUT_UPDATE_GOLDEN=1` it
/// rewrites the snapshot instead. On a mismatch the assertion message is
/// `mismatch` with `{cmd}` replaced by the command that regenerates the
/// snapshot.
pub fn check(got: &Value, file: &str, test: &str, mismatch: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let cmd = format!(
        "{}=1 cargo test -p codelayout-bench --test {test}",
        codelayout_obs::env::UPDATE_GOLDEN_ENV
    );

    if codelayout_bench::run_env().update_golden {
        let mut text = serde_json::to_string_pretty(got).expect("serialize snapshot");
        text.push('\n');
        std::fs::write(&path, text).expect("write golden snapshot");
        eprintln!("updated {path}");
        return;
    }

    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path}: {e}\nregenerate with {cmd}"));
    let want: Value = serde_json::from_str(&raw).expect("parse golden snapshot");
    assert_eq!(got, &want, "{}", mismatch.replace("{cmd}", &cmd));
}
