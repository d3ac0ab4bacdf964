//! The `CODELAYOUT_TRACE_OUT` event log of a whole `run_all` process is
//! complete: the built binary runs one figure on `quick` in a scratch
//! directory, and its log must close every span it opened, ending with
//! the root `run_all` span's end event.

use serde_json::Value;
use std::collections::HashMap;
use std::process::Command;

#[test]
fn run_all_trace_log_closes_every_span() {
    let scratch = std::env::temp_dir().join(format!("codelayout-trace-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let log = scratch.join("trace.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("fig03")
        .current_dir(&scratch)
        .env("CODELAYOUT_SCENARIO", "quick")
        .env("CODELAYOUT_TRACE_OUT", &log)
        .status()
        .expect("run run_all");
    assert!(status.success(), "run_all fig03 failed: {status}");

    let text = std::fs::read_to_string(&log).expect("read the trace log");
    let events: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    // Each thread's spans nest, so its end events pop its begin events
    // in reverse order.
    let mut open: HashMap<String, Vec<String>> = HashMap::new();
    let mut begins = 0;
    for v in &events {
        let field = |k: &str| v.get(k).as_str().unwrap_or_default().to_string();
        let stack = open.entry(field("thread")).or_default();
        match v.get("ev").as_str() {
            Some("B") => {
                begins += 1;
                stack.push(field("path"));
            }
            Some("E") => assert_eq!(stack.pop(), Some(field("path")), "unmatched end {v:?}"),
            _ => {}
        }
    }
    assert!(begins > 0, "the log holds no span");
    for (thread, stack) in &open {
        assert!(
            stack.is_empty(),
            "thread {thread} left spans open: {stack:?}"
        );
    }
    let last = events.last().expect("non-empty log");
    assert_eq!(
        (last.get("ev").as_str(), last.get("path").as_str()),
        (Some("E"), Some("run_all")),
        "the log does not end with the root span's end: {last:?}"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
