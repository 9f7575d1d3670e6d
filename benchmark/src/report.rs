//! Result files, the printed report and `--agree`.

use crate::json::{self, Value};
use crate::run::RunResult;
use crate::spec::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark's own directory; result and trace files stay inside it.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Resolve an output path and refuse one outside the benchmark's directory.
pub fn output_path(given: Option<&str>, default_name: &str) -> Result<PathBuf, String> {
    let root = benchmark_dir();
    let path = match given {
        None => root.join(default_name),
        Some(p) if Path::new(p).is_absolute() => PathBuf::from(p),
        Some(p) => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(p),
    };
    let parent = path
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", path.display()))?
        .canonicalize()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let root = root
        .canonicalize()
        .map_err(|e| format!("{}: {e}", root.display()))?;
    if !parent.starts_with(&root) {
        return Err(format!(
            "{} is outside {}; the benchmark writes only inside its own directory",
            path.display(),
            root.display()
        ));
    }
    Ok(path)
}

/// Print one run for a human: the notes, then every metric of the pass by
/// name with value, unit, direction and (end to end) bound.
pub fn print_run(result: &RunResult) {
    println!(
        "== {} seed {} ({}) ==",
        result.workload,
        result.seed,
        if result.trace {
            "traced pass: per-layer metrics"
        } else {
            "untraced replays: end-to-end metrics"
        }
    );
    for note in &result.notes {
        println!("{note}");
    }
    if result.trace {
        for (name, unit, better) in &PER_LAYER {
            if let Some(v) = result.metrics.get(name) {
                println!("{name:<40} {v:>16.6} {unit:<6} better {}", better.label());
            }
        }
    } else {
        for m in &END_TO_END {
            if let Some(v) = result.metrics.get(m.name) {
                println!(
                    "{:<24} {v:>16.6} {:<6} better {:<6} bound {:>4.0} %  [{}]",
                    m.name,
                    m.unit,
                    m.better.label(),
                    100.0 * m.bound,
                    m.time_base
                );
            }
        }
    }
    println!(
        "correct {} attempted {} failed {}",
        result.correct, result.attempted, result.failed
    );
}

/// One run as an entry of the result file (one line).
pub fn run_entry(r: &RunResult, seconds: u64) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"replays\":{},\"trace\":{},\"result\":{}}}",
        json::quote(&r.workload),
        r.seed,
        seconds,
        r.replays,
        u8::from(r.trace),
        r.final_line()
    )
}

const RUNS_OPEN: &str = "\"runs\":[\n";
const RUNS_CLOSE: &str = "\n]}";

/// Render run entries (each from [`run_entry`], or several joined as
/// [`entries_of`] returns them) as the result file.
pub fn result_file(entries: &[String]) -> String {
    format!(
        "{{\"schema\":\"treep-bench/1\",\"host\":{{\"hardware_threads\":{},\"ref_nominal_ns\":{},\"ref_loopback_nominal_ns\":{}}},{RUNS_OPEN}{}{RUNS_CLOSE}\n",
        crate::host::hardware_threads(),
        json::number(crate::host::REF_NOMINAL_NS),
        json::number(crate::host::REF_LOOPBACK_NOMINAL_NS),
        entries.join(",\n")
    )
}

/// The run entries of a result file this binary wrote, as one string.
pub fn entries_of(file: &str) -> Option<&str> {
    let start = file.find(RUNS_OPEN)? + RUNS_OPEN.len();
    let end = file.rfind(RUNS_CLOSE)?;
    (start < end).then(|| &file[start..end])
}

/// The untraced runs of one workload in a result set.
#[derive(Debug, Default, PartialEq)]
struct WorkloadRuns {
    /// `(seed, seconds, replays)` of every run, sorted: what makes two sets
    /// comparable.
    shape: Vec<(u64, u64, u64)>,
    /// Metric name → one value per run.
    values: BTreeMap<String, Vec<f64>>,
}

/// The untraced runs of a result file, by workload.
fn end_to_end_runs(path: &str) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for run in doc.get("runs").map_or(&[][..], Value::items) {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        let whole = |key: &str| {
            run.get(key)
                .and_then(Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("{path}: a run of {workload} has no {key}"))
        };
        let runs = out.entry(workload.to_string()).or_default();
        runs.shape
            .push((whole("seed")?, whole("seconds")?, whole("replays")?));
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}: a run has no metrics"))?;
        for (name, entry) in metrics.members() {
            if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                runs.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    for runs in out.values_mut() {
        runs.shape.sort_unstable();
    }
    if out.is_empty() {
        return Err(format!("{path} holds no untraced run"));
    }
    Ok(out)
}

/// Compare two result sets of the same code: per workload and end-to-end
/// metric, the two medians, their relative difference and the bound.
/// Returns the report and whether every pair agreed. Sets that do not hold
/// the same workloads, run with the same seeds, seconds and replays, are
/// not comparable and are refused.
pub fn agree(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let a = end_to_end_runs(a_path)?;
    let b = end_to_end_runs(b_path)?;
    if !a.keys().eq(b.keys()) {
        return Err(format!(
            "the sets hold different workloads: {:?} and {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    let mut report = format!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7}  runs\n",
        "workload", "metric", "median A", "median B", "diff %", "bound %"
    );
    let mut all_within = true;
    let mut pairs = 0;
    for ((workload, runs_a), runs_b) in a.iter().zip(b.values()) {
        if runs_a.shape != runs_b.shape {
            return Err(format!(
                "{workload}: the sets differ in (seed, seconds, replays): {:?} and {:?}",
                runs_a.shape, runs_b.shape
            ));
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (runs_a.values.get(m.name), runs_b.values.get(m.name))
            else {
                return Err(format!("{workload}/{} is missing from a set", m.name));
            };
            let (ma, mb) = (crate::host::median(va), crate::host::median(vb));
            // Positive when B is worse than A.
            let worse = if ma == mb {
                0.0
            } else {
                match m.better {
                    Better::Lower => (mb - ma) / ma,
                    Better::Higher => (ma - mb) / ma,
                }
            };
            let within = worse.abs() <= m.bound;
            all_within &= within;
            pairs += 1;
            report.push_str(&format!(
                "{workload:<12} {:<24} {ma:>14.6} {mb:>14.6} {:>+9.2} {:>7.0}  {}/{}{}\n",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                va.len(),
                vb.len(),
                if within {
                    ""
                } else {
                    "  <-- outside the bound"
                }
            ));
        }
    }
    report.push_str(&format!(
        "{pairs} workload x metric pairs, {}\n",
        if all_within {
            "all within their bounds"
        } else {
            "NOT all within their bounds"
        }
    ));
    Ok((report, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_gives_its_entries_back() {
        let entries = [
            "{\"workload\":\"a\"}".to_string(),
            "{\"workload\":\"b\"}".to_string(),
        ];
        let file = result_file(&entries);
        analysis::validate_json(&file).expect("well-formed");
        assert_eq!(entries_of(&file), Some(entries.join(",\n").as_str()));
        // Entries taken from one file can be merged into another.
        let merged = result_file(&[entries_of(&file).unwrap().to_string(), entries[0].clone()]);
        let doc = json::parse(&merged).expect("well-formed");
        assert_eq!(doc.get("runs").map(|r| r.items().len()), Some(3));
        assert_eq!(entries_of(&result_file(&[])), None);
    }

    /// A result set of one untraced `maint` run per seed, every metric at
    /// `value`, written into the benchmark's directory.
    fn write_set(name: &str, seeds: &[u64], replays: u64, value: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let entries: Vec<String> = seeds
            .iter()
            .map(|seed| {
                format!(
                    "{{\"workload\":\"maint\",\"seed\":{seed},\"seconds\":10,\"replays\":{replays},\"trace\":0,\"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{{}}}}}}}",
                    metrics.join(",")
                )
            })
            .collect();
        let path = benchmark_dir().join(format!("result-agree-test-{name}.json"));
        std::fs::write(&path, result_file(&entries)).expect("write a result set");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn agree_refuses_sets_that_are_not_comparable() {
        let a = write_set("a", &[1, 2, 3], 2, 1.0);
        let same = write_set("same", &[3, 2, 1], 2, 1.01);
        let worse = write_set("worse", &[1, 2, 3], 2, 2.0);
        let other_seeds = write_set("seeds", &[1, 2, 4], 2, 1.0);
        let other_replays = write_set("replays", &[1, 2, 3], 3, 1.0);
        let empty = write_set("empty", &[], 2, 1.0);
        let (report, ok) = agree(&a, &same).expect("comparable sets");
        assert!(ok, "{report}");
        assert!(report.contains("10 workload x metric pairs"), "{report}");
        let (_, ok) = agree(&a, &worse).expect("comparable sets");
        assert!(!ok, "a metric twice as large is outside every bound");
        assert!(agree(&a, &other_seeds).is_err());
        assert!(agree(&a, &other_replays).is_err());
        assert!(agree(&a, &empty).is_err());
        assert!(agree(&empty, &empty).is_err());
        for path in [a, same, worse, other_seeds, other_replays, empty] {
            let _ = std::fs::remove_file(path);
        }
    }
}
