//! Scale sweep of the TreeP overlay from n = 10³ to 10⁵ (`reproduce
//! --scale`, `BENCH_scale.json`).
//!
//! Each leg builds the paper's fixed-nc overlay (`TopologyBuilder::new(n)`),
//! settles it for the builder's three virtual seconds and then leaves it
//! idle for the horizon, so that only maintenance runs: keep-alives and
//! their acks, child reports, expiry. Every leg runs **twice** with the
//! same seed and compares the FNV event digests (`deterministic`). The
//! simulated columns (events, digest, maintenance messages per node and
//! second, registry size against Section III.e's bound) are bit-exact on
//! any host; build and run time, steps/s and peak RSS are the host's.

use analysis::{Cell, Column, Table};
use simnet::{SimConfig, SimDuration, Simulation};
use std::time::Instant;
use treep::analytic_table_bound;
use workloads::{TopologyBuilder, SETTLE};

/// The population [`ScaleReport::gate`] reads throughput at.
const GATE_N: usize = 10_000;
/// `TreePNode` events/s floor over the idle window at [`GATE_N`]: five
/// smoke runs on a 2-CPU host read 503–629 k, and a shared CI host gets
/// half of the slowest.
const STEPS_PER_SEC_FLOOR: f64 = 250_000.0;
/// The paper's "limiting the overhead introduced by the overlay
/// maintenance", held at every n: the ceiling CI's `maint` step holds.
const MSGS_PER_NODE_S_CEILING: f64 = 20.0;

/// Parameters of one scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Population sizes to sweep, ascending.
    pub populations: Vec<usize>,
    /// Virtual idle time of each run, after the settle.
    pub horizon: SimDuration,
    /// Deterministic seed shared by every leg.
    pub seed: u64,
}

impl ScaleParams {
    /// The full sweep: n = 10³, 10⁴ and 10⁵.
    pub fn full(seed: u64) -> ScaleParams {
        ScaleParams {
            populations: vec![1_000, 10_000, 100_000],
            ..ScaleParams::smoke(seed)
        }
    }

    /// Bounded smoke profile used by CI.
    pub fn smoke(seed: u64) -> ScaleParams {
        ScaleParams {
            populations: vec![1_000, 10_000],
            horizon: SimDuration::from_secs(4),
            seed,
        }
    }
}

/// One measured leg of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Population size.
    pub n: usize,
    /// Events dispatched in one run: settle and idle window.
    pub events: u64,
    /// Messages sent per node and virtual second over the idle window.
    pub msgs_per_node_s: f64,
    /// Mean registry entries per node at the end of the run.
    pub table_mean: f64,
    /// Share of nodes whose registry holds at most
    /// [`analytic_table_bound`] entries. Values in 0–1.
    pub within_bound: f64,
    /// Wall-clock of build and settle, best of the two runs, milliseconds.
    pub build_ms: f64,
    /// Wall-clock of the idle window, best of the two runs, milliseconds.
    pub run_ms: f64,
    /// Events per wall-clock second over the idle window (best run).
    pub steps_per_sec: f64,
    /// Process peak RSS after the leg (`VmHWM`; cumulative high-water
    /// mark, so legs run in ascending n order).
    pub peak_rss_bytes: u64,
    /// FNV event digest of the run.
    pub digest: u64,
    /// Both same-seed runs produced the same digest.
    pub deterministic: bool,
}

/// The full sweep result.
#[derive(Debug)]
pub struct ScaleReport {
    /// One row per population.
    pub rows: Vec<ScaleRow>,
    /// Seed shared by every leg.
    pub seed: u64,
    /// Virtual idle time per run, seconds.
    pub horizon_secs: u64,
    /// `std::thread::available_parallelism` of the measuring host.
    pub hardware_threads: usize,
}

fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Build, settle and idle one overlay of `n` nodes.
fn run_once(params: &ScaleParams, n: usize) -> ScaleRow {
    let started = Instant::now();
    let mut sim = Simulation::new(SimConfig::default(), params.seed);
    sim.enable_digest();
    let topo = TopologyBuilder::new(n).build(&mut sim);
    sim.run_for(SETTLE);
    let settled = sim.metrics();
    let build = started.elapsed().as_secs_f64();
    sim.run_for(params.horizon);
    let run = started.elapsed().as_secs_f64() - build;
    let idle = sim.metrics().delta_since(&settled);

    let (mut entries, mut within) = (0, 0);
    for built in &topo.nodes {
        let node = sim.node(built.addr).expect("no node crashes");
        let size = node.tables().sizes().total();
        entries += size;
        within += usize::from(size <= analytic_table_bound(node));
    }
    let idle_secs = params.horizon.as_micros() as f64 / 1e6;
    ScaleRow {
        n,
        events: sim.metrics().events_dispatched,
        msgs_per_node_s: idle.messages_sent as f64 / n as f64 / idle_secs,
        table_mean: entries as f64 / n as f64,
        within_bound: within as f64 / n as f64,
        build_ms: build * 1e3,
        run_ms: run * 1e3,
        steps_per_sec: idle.events_dispatched as f64 / run,
        peak_rss_bytes: 0,
        digest: sim.event_digest().expect("digest enabled"),
        deterministic: true,
    }
}

/// Run the sweep: per population, the same overlay twice, for the
/// determinism check.
pub fn run_scale(params: &ScaleParams) -> ScaleReport {
    let rows = params
        .populations
        .iter()
        .map(|&n| {
            eprintln!("#   scale: n = {n}…");
            let [first, second] = [run_once(params, n), run_once(params, n)];
            ScaleRow {
                build_ms: first.build_ms.min(second.build_ms),
                run_ms: first.run_ms.min(second.run_ms),
                steps_per_sec: first.steps_per_sec.max(second.steps_per_sec),
                peak_rss_bytes: peak_rss_bytes(),
                deterministic: first.digest == second.digest,
                ..first
            }
        })
        .collect();
    ScaleReport {
        rows,
        seed: params.seed,
        horizon_secs: params.horizon.as_secs(),
        hardware_threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    }
}

impl ScaleReport {
    /// The row for population `n`, if that leg ran.
    pub fn row(&self, n: usize) -> Option<&ScaleRow> {
        self.rows.iter().find(|r| r.n == n)
    }

    /// The `reproduce --scale --smoke` gate: replay, the maintenance
    /// ceiling at every n, and throughput at n = 10⁴.
    pub fn gate(&self) -> Result<String, String> {
        let gated = self.row(GATE_N).ok_or(format!("no row at n = {GATE_N}"))?;
        ensure!(self.rows.iter().all(|row| row.deterministic));
        for row in &self.rows {
            ensure!(row.msgs_per_node_s <= MSGS_PER_NODE_S_CEILING, row);
        }
        ensure!(gated.steps_per_sec >= STEPS_PER_SEC_FLOOR, gated);
        Ok(format!(
            "at n = {GATE_N}: {:.0} ksteps/s, {:.2} msgs/node/s",
            gated.steps_per_sec / 1e3,
            gated.msgs_per_node_s
        ))
    }

    /// The sweep as a table; its JSON is `BENCH_scale.json`.
    pub fn to_table(&self) -> Table {
        const MIB: f64 = 1024.0 * 1024.0;
        let columns = [
            Column::new("n", "n", |r: &ScaleRow| r.n.into()),
            Column::new("events", "events", |r| r.events.into()),
            Column::new("msgs_per_node_s", "msgs/node/s", |r| {
                Cell::float(r.msgs_per_node_s, 4, 2)
            }),
            Column::new("table_mean", "table", |r| Cell::float(r.table_mean, 4, 2)),
            Column::new("within_bound", "in bound", |r| {
                Cell::float(r.within_bound, 4, 4)
            }),
            Column::new("build_ms", "build ms", |r| Cell::float(r.build_ms, 1, 0)),
            Column::new("run_ms", "run ms", |r| Cell::float(r.run_ms, 1, 0)),
            Column::new("steps_per_sec", "", |r| Cell::float(r.steps_per_sec, 0, 0)),
            Column::new("", "ksteps/s", |r| Cell::float(r.steps_per_sec / 1e3, 0, 0)),
            Column::new("peak_rss_bytes", "", |r| r.peak_rss_bytes.into()),
            Column::new("", "peak RSS MB", |r| {
                Cell::float(r.peak_rss_bytes as f64 / MIB, 0, 0)
            }),
            Column::new("digest", "", |r| Cell::text(format!("0x{:016x}", r.digest))),
            Column::new("deterministic", "deterministic", |r| {
                Cell::Flag(r.deterministic, ["false", "true"])
            }),
        ];
        let title = format!(
            "TreeP scale sweep, settled fixed-nc overlay left idle (seed = {}, horizon = {}s, host threads = {})",
            self.seed, self.horizon_secs, self.hardware_threads
        );
        Table::of(title, &columns, &self.rows)
            .meta("bench", Cell::text("scale"))
            .meta("seed", self.seed)
            .meta("horizon_secs", self.horizon_secs)
            .meta("hardware_threads", self.hardware_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ScaleParams {
        ScaleParams {
            populations: vec![300],
            horizon: SimDuration::from_secs(2),
            seed: 9,
        }
    }

    #[test]
    fn sweep_runs_all_engines_and_is_deterministic() {
        let report = run_scale(&tiny_params());
        assert_eq!(report.rows.len(), 1);
        for row in &report.rows {
            assert!(row.deterministic, "the leg must replay: {row:?}");
            assert!(row.events > 0);
            assert!(row.steps_per_sec > 0.0);
            assert!(row.msgs_per_node_s > 0.0);
            assert!(row.table_mean > 0.0);
        }
    }

    #[test]
    fn json_is_balanced_and_carries_rows() {
        let report = run_scale(&tiny_params());
        let json = report.to_table().to_json();
        analysis::validate_json(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"n\": 300"));
        assert!(json.contains("\"deterministic\": true"));
    }

    /// A report that passes the gate: the overlay replays at n = 10⁴, at a
    /// million steps/s and 19.7 messages per node and second.
    fn passing_report() -> ScaleReport {
        let row = ScaleRow {
            n: GATE_N,
            events: 1_000,
            msgs_per_node_s: 19.7,
            table_mean: 29.6,
            within_bound: 0.01,
            build_ms: 1.0,
            run_ms: 1.0,
            steps_per_sec: 1e6,
            peak_rss_bytes: 0,
            digest: 1,
            deterministic: true,
        };
        ScaleReport {
            rows: vec![row],
            seed: 1,
            horizon_secs: 4,
            hardware_threads: 2,
        }
    }

    #[test]
    fn scale_gate_needs_its_acceptance_row() {
        let mut report = passing_report();
        assert!(report.gate().is_ok(), "{:?}", report.gate());
        report.rows.clear();
        assert_eq!(report.gate().unwrap_err(), "no row at n = 10000");
    }

    #[test]
    fn scale_gate_names_the_check_that_failed() {
        let mut report = passing_report();
        report.rows[0].steps_per_sec = 1e3;
        let err = report.gate().unwrap_err();
        assert!(
            err.starts_with("gated.steps_per_sec >= STEPS_PER_SEC_FLOOR; gated = ScaleRow {"),
            "{err}"
        );
        report.rows[0].msgs_per_node_s = 20.5;
        let err = report.gate().unwrap_err();
        assert!(
            err.starts_with("row.msgs_per_node_s <= MSGS_PER_NODE_S_CEILING; row = ScaleRow {"),
            "{err}"
        );
    }
}
