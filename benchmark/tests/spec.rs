//! `BENCHMARK.json` and the binary's `--list` must declare the same
//! workloads and metrics: a name, unit, direction or bound that differs
//! fails here before a single run is made.

use std::collections::BTreeMap;
use std::process::Command;
use treep_benchmark::json::{self, Value};

fn list_lines() -> Vec<Vec<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_treep-bench"))
        .arg("--list")
        .output()
        .expect("run treep-bench --list");
    assert!(out.status.success(), "--list failed");
    String::from_utf8(out.stdout)
        .expect("--list prints UTF-8")
        .lines()
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json is well-formed")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

fn well_formed_name(name: &str) {
    assert!(!name.is_empty() && name.len() <= 64, "{name:?}");
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
        "{name:?} leaves [A-Za-z0-9_.-]"
    );
    assert!(
        name.chars().next().unwrap().is_ascii_alphanumeric(),
        "{name:?}"
    );
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let doc = benchmark_json();
    let keys: Vec<&String> = doc.members().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(
        command.iter().any(|c| c.starts_with("benchmark/")),
        "the command must name a file under paths: {command:?}"
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn list_and_benchmark_json_agree() {
    let doc = benchmark_json();
    let lines = list_lines();
    let of_kind =
        |kind: &str| -> Vec<&Vec<String>> { lines.iter().filter(|l| l[0] == kind).collect() };

    // Workloads: name and reason.
    let declared: Vec<(&str, &str)> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let listed: Vec<(&str, &str)> = of_kind("workload")
        .iter()
        .map(|l| (l[1].as_str(), l[2].as_str()))
        .collect();
    assert_eq!(declared, listed);
    assert!((2..=8).contains(&declared.len()));
    for (name, why) in &declared {
        well_formed_name(name);
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
    }

    // End-to-end metrics: name, unit, direction, bound.
    let declared: Vec<(&str, &str, &str, f64)> = doc
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            let keys: Vec<&String> = m.members().map(|(k, _)| k).collect();
            assert_eq!(keys, ["better", "bound", "name", "unit"]);
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let listed: Vec<(&str, &str, &str, f64)> = of_kind("end_to_end")
        .iter()
        .map(|l| {
            (
                l[1].as_str(),
                l[2].as_str(),
                l[3].as_str(),
                l[4].parse().expect("bound"),
            )
        })
        .collect();
    assert_eq!(declared, listed);
    assert!((1..=16).contains(&declared.len()));
    for (name, unit, better, bound) in &declared {
        well_formed_name(name);
        assert!(unit.len() <= 16, "{name}");
        assert!(["lower", "higher"].contains(better), "{name}");
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
    }
    assert!(
        declared.contains(&("setup_s", "s", "lower", declared[0].3))
            || declared
                .iter()
                .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"),
        "setup_s must be declared in seconds, lower is better"
    );

    // Per-layer metrics: name, unit, direction.
    let declared: Vec<(&str, &str, &str)> = doc
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|m| {
            let keys: Vec<&String> = m.members().map(|(k, _)| k).collect();
            assert_eq!(keys, ["better", "name", "unit"]);
            (text(m, "name"), text(m, "unit"), text(m, "better"))
        })
        .collect();
    let listed: Vec<(&str, &str, &str)> = of_kind("per_layer")
        .iter()
        .map(|l| (l[1].as_str(), l[2].as_str(), l[3].as_str()))
        .collect();
    assert_eq!(declared, listed);
    assert!((1..=128).contains(&declared.len()));
    for (name, unit, _) in &declared {
        well_formed_name(name);
        assert!(unit.len() <= 16, "{name}");
    }

    // One name, one use.
    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    for line in lines.iter().filter(|l| l[0] != "const") {
        *uses.entry(line[1].as_str()).or_default() += 1;
    }
    assert!(
        uses.values().all(|n| *n == 1),
        "a name is used twice: {uses:?}"
    );

    // The constants `--list` adds are the ones the contract keeps out of
    // BENCHMARK.json; `run_seconds` is in both.
    let run_seconds = of_kind("const")
        .iter()
        .find(|l| l[1] == "run_seconds")
        .map(|l| l[2].parse::<f64>().unwrap());
    assert_eq!(run_seconds, doc.get("run_seconds").and_then(Value::as_f64));
}
