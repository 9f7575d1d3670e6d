//! `--smoke`: all four workloads, shrunk, end to end through the binary.
//! Simulated metrics must repeat exactly between two invocations, tracing
//! must change no event, every declared metric must be printed exactly
//! once per workload, and the result file must be well-formed JSON.

use std::collections::BTreeSet;
use std::process::Command;
use treep_benchmark::json::{self, Value};
use treep_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Run the binary; return its last line (the result object) and the
/// result file's text.
fn invoke(workload: &str, trace: bool, tag: &str) -> (Value, String) {
    let out_file = format!("{}/result-smoke-{tag}.json", env!("CARGO_MANIFEST_DIR"));
    let trace_file = format!("{}/trace-smoke-{tag}.json", env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_treep-bench"))
        .args([
            "--smoke",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &out_file, "--trace-out", &trace_file])
        .output()
        .expect("run treep-bench");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let file = std::fs::read_to_string(&out_file).expect("result file");
    if trace {
        let text = std::fs::read_to_string(&trace_file).expect("trace file");
        analysis::validate_json(&text).expect("the Chrome trace is well-formed JSON");
        assert!(text.contains("\"traceEvents\""));
        let _ = std::fs::remove_file(&trace_file);
    }
    let _ = std::fs::remove_file(&out_file);
    (
        json::parse(last).expect("the last line is a JSON object"),
        file,
    )
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} is missing"))
}

fn metric_names(result: &Value) -> BTreeSet<String> {
    result
        .get("metrics")
        .expect("metrics")
        .members()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn smoke_all_workloads() {
    let simulated = [
        "op_success_ratio",
        "path_nodes_p50",
        "path_nodes_p99",
        "lat_ms_p50",
        "msgs_per_op",
        "maint_msgs_per_node_s",
    ];
    let end_to_end: BTreeSet<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
    let per_layer: BTreeSet<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    for w in &WORKLOADS {
        let (first, file) = invoke(w.name, false, &format!("{}-a", w.name));
        analysis::validate_json(&file).expect("the result file is well-formed JSON");
        let keys: Vec<&String> = first.members().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["attempted", "correct", "failed", "metrics"],
            "{}",
            w.name
        );
        assert_eq!(first.get("correct"), Some(&Value::Bool(true)), "{}", w.name);
        assert_eq!(
            first.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(first.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(
            metric_names(&first),
            end_to_end,
            "{}: end-to-end metrics",
            w.name
        );
        for m in &END_TO_END {
            assert!(
                metric(&first, m.name) > 0.0,
                "{}/{} must never be 0",
                w.name,
                m.name
            );
        }

        // A second invocation: simulated time repeats bit for bit (the
        // replays inside each invocation were already held equal).
        if w.name != "udp_kv" {
            let (second, _) = invoke(w.name, false, &format!("{}-b", w.name));
            for name in simulated {
                assert_eq!(
                    metric(&first, name).to_bits(),
                    metric(&second, name).to_bits(),
                    "{}/{name} differs between two invocations",
                    w.name
                );
            }
        }

        // The traced pass: every per-layer metric once, no event changed.
        let (traced, _) = invoke(w.name, true, &format!("{}-t", w.name));
        assert_eq!(
            metric_names(&traced),
            per_layer,
            "{}: per-layer metrics",
            w.name
        );
        assert_eq!(metric(&traced, "trace.digest_equal"), 1.0, "{}", w.name);
        assert!(metric(&traced, "trace.overhead_ratio") > 0.0, "{}", w.name);
        // Layers a workload does not run stay at zero.
        let codec_runs = metric(&traced, "codec.encode_ns.keepalive") > 0.0;
        let readpath_runs = metric(&traced, "treep.readpath.hotcache_get_ns") > 0.0;
        assert_eq!(codec_runs, w.name == "udp_kv", "{}: codec", w.name);
        assert_eq!(
            readpath_runs,
            w.name == "stack_churn",
            "{}: read path",
            w.name
        );
    }
}
