//! One run of one workload: the untraced replays that give the end-to-end
//! metrics, and (with `--trace 1`) the traced pass and the legs that give
//! the per-layer metrics.

use crate::host::{self, percentile, Reduced, SegmentTimer};
use crate::sim::SimWorkload;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Metric values by declared name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Seed of the inputs.
    pub seed: u64,
    /// The benchmark's `--seconds`.
    pub seconds: u64,
    /// Traced pass and legs (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Shrunk sizes for the smoke test.
    pub smoke: bool,
    /// Where the Chrome trace goes (traced pass only).
    pub trace_out: Option<String>,
}

impl RunOptions {
    /// Untraced replays of the run: what the workload declares. The smoke
    /// test checks that replays agree, not how well their minimum repeats,
    /// so two are enough there.
    pub fn replays(&self) -> usize {
        let declared = spec::replays_of(&self.workload);
        if self.smoke {
            declared.min(2)
        } else {
            declared
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced pass?
    pub trace: bool,
    /// Untraced replays the run made.
    pub replays: usize,
    /// The oracle found no violation and every check held.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Oracle violations.
    pub failed: u64,
    /// The declared metrics of this pass, by name.
    pub metrics: Metrics,
    /// Lines for the human reader.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The unit of a declared metric.
    pub fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
            .unwrap_or("")
    }

    /// The result as one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn final_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    crate::json::quote(name),
                    crate::json::number(*value),
                    crate::json::quote(Self::unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Run one workload once.
pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    match options.workload.as_str() {
        "maint" => crate::run_sim::run(SimWorkload::Maint, options),
        "lookup" => crate::run_sim::run(SimWorkload::Lookup, options),
        "stack_churn" => crate::run_sim::run(SimWorkload::StackChurn, options),
        "udp_kv" => crate::run_udp::run(options),
        other => Err(format!(
            "unknown workload {other:?} (expected one of: {})",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// Every per-layer metric at 0: the layers a workload does not run stay
/// there, which is how the breakdown shows what each workload bypasses.
pub(crate) fn zeroed_layers() -> Metrics {
    PER_LAYER.iter().map(|m| (m.0, 0.0)).collect()
}

pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `host.*` metrics every workload's traced pass reports.
pub(crate) fn host_layer(
    layers: &mut Metrics,
    timer: &SegmentTimer,
    setup: &Reduced,
    window: &Reduced,
    succeeded: f64,
) {
    let p50 = percentile(&timer.probes, 0.5);
    layers.insert("host.ref_us_p50", p50 * timer.nominal_ns() / 1e3);
    layers.insert(
        "host.ref_spread_ratio",
        ratio(
            percentile(&timer.probes, 0.9) - percentile(&timer.probes, 0.1),
            p50,
        ),
    );
    layers.insert("host.slowdown_p50", p50);
    layers.insert("host.off_cpu_share", window.off_cpu_share);
    // How much the per-segment minimum gains over a single replay.
    layers.insert(
        "host.replay_gain_ratio",
        ratio(host::median(&window.per_replay_seconds), window.seconds),
    );
    layers.insert("host.raw_setup_s", setup.median_raw_seconds());
    layers.insert(
        "host.raw_ops_per_s",
        ratio(succeeded, window.median_raw_seconds()),
    );
}

/// One line on the host's state during the run, printed with every run so
/// an off result can be told from an off host.
pub(crate) fn host_note(timer: &SegmentTimer, setup: &Reduced, window: &Reduced) -> String {
    format!(
        "host: raw wall per replay (median) set-up {:.3} s, window {:.3} s; calibrated window per replay {:?} s; reference p50 {:.1} us (nominal {}); off the CPU or stolen {:.1} % of set-up, {:.1} % of the window",
        setup.median_raw_seconds(),
        window.median_raw_seconds(),
        window
            .per_replay_seconds
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        percentile(&timer.probes, 0.5) * timer.nominal_ns() / 1e3,
        timer.nominal_ns() / 1e3,
        100.0 * setup.off_cpu_share,
        100.0 * window.off_cpu_share,
    )
}

/// Write the Chrome trace where the options say and note where it went.
pub(crate) fn write_trace(
    options: &RunOptions,
    tracer: &Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let Some(path) = &options.trace_out else {
        return Ok(());
    };
    let text = tracer.chrome_trace(&options.workload);
    analysis::validate_json(&text).map_err(|e| format!("trace is not well-formed: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    for (name, seconds) in tracer.self_seconds_by_name() {
        result
            .notes
            .push(format!("  self time {name}: {seconds:.4} s"));
    }
    result.notes.push(format!(
        "Chrome trace ({} spans) written to {path}",
        tracer.spans().len()
    ));
    Ok(())
}
