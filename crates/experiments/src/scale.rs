//! Engine scale sweep: steps/sec, bytes/node and peak RSS from n = 10³ to
//! n = 10⁶ (`reproduce --scale`, `BENCH_scale.json`).
//!
//! The engine is the single-threaded [`Simulation`]: hierarchical timer
//! wheel, one node table indexed by address, recycled action buffer. Every
//! leg runs **twice** with the same seed and asserts the FNV event digests
//! match (`deterministic`); `tests/engine_digests.rs` pins its
//! `(digest, events)` at n = 10³ and 10⁴.
//!
//! The workload models TreeP keep-alive traffic: nodes form groups of 256
//! arranged as arity-4 trees (computed arithmetically — no per-node
//! topology state), every node pings its parent once per second with a
//! keep-alive answered by an ack, and group roots report to the global
//! root. Timer-dominated near-horizon scheduling is exactly the regime the
//! timer wheel targets.

use analysis::{Cell, Column, Table};
use simnet::{
    Context, LatencyModel, LinkModel, LossModel, NodeAddr, Protocol, SimConfig, SimDuration,
    SimTime, Simulation, TimerToken,
};
use std::time::Instant;

/// Keep-alive period of the workload (1 virtual second).
const KEEPALIVE_US: u64 = 1_000_000;
/// Nodes per local tree group.
const GROUP: u64 = 256;
/// Tree arity inside a group.
const ARITY: u64 = 4;
/// Nominal encoded size of one keep-alive / ack datagram (the codec's
/// encoded keep-alive is < 64 bytes; see `encoding_is_compact`).
const NOMINAL_MSG_BYTES: u64 = 48;
/// The population [`ScaleReport::gate`] reads.
const GATE_N: usize = 10_000;
/// The wheel engine's steps/sec floor at [`GATE_N`], conservative for a
/// shared CI host.
const STEPS_PER_SEC_FLOOR: f64 = 250_000.0;

/// Parameters of one scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Population sizes to sweep, ascending.
    pub populations: Vec<usize>,
    /// Virtual time horizon of each run.
    pub horizon: SimDuration,
    /// Deterministic seed shared by every leg.
    pub seed: u64,
}

impl ScaleParams {
    /// The full sweep: n = 10³ … 10⁶.
    pub fn full(seed: u64) -> ScaleParams {
        ScaleParams {
            populations: vec![1_000, 10_000, 100_000, 1_000_000],
            horizon: SimDuration::from_secs(5),
            seed,
        }
    }

    /// Bounded smoke profile used by CI.
    pub fn smoke(seed: u64) -> ScaleParams {
        ScaleParams {
            populations: vec![1_000, 10_000],
            horizon: SimDuration::from_secs(2),
            seed,
        }
    }
}

/// The keep-alive workload protocol (see module docs for the topology).
pub(crate) struct ScaleProto {
    acks: u32,
}

impl ScaleProto {
    fn new() -> ScaleProto {
        ScaleProto { acks: 0 }
    }

    /// Keep-alive destination of `me`: the arity-4 parent inside the group,
    /// the global root for group roots, nothing for the global root itself.
    fn keepalive_target(me: u64) -> Option<NodeAddr> {
        let local = me % GROUP;
        if local == 0 {
            if me == 0 {
                None
            } else {
                Some(NodeAddr(0))
            }
        } else {
            Some(NodeAddr(me - local + (local - 1) / ARITY))
        }
    }
}

/// Workload message: a keep-alive or its ack.
#[derive(Clone, Debug)]
pub(crate) enum ScaleMsg {
    /// Periodic liveness ping to the parent.
    KeepAlive,
    /// Parent's answer.
    Ack,
}

impl Protocol for ScaleProto {
    type Message = ScaleMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ScaleMsg>) {
        // Spread first fires uniformly over one period so load is steady
        // rather than phase-locked.
        let jitter = ctx.rng().gen_range_u64(0..KEEPALIVE_US);
        ctx.set_timer(SimDuration::from_micros(jitter), TimerToken(1));
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Context<'_, ScaleMsg>) {
        if let Some(parent) = Self::keepalive_target(ctx.self_addr().0) {
            ctx.send(parent, ScaleMsg::KeepAlive);
        }
        ctx.set_timer(SimDuration::from_micros(KEEPALIVE_US), TimerToken(1));
    }

    fn on_message(&mut self, from: NodeAddr, msg: ScaleMsg, ctx: &mut Context<'_, ScaleMsg>) {
        match msg {
            ScaleMsg::KeepAlive => ctx.send(from, ScaleMsg::Ack),
            ScaleMsg::Ack => self.acks += 1,
        }
    }
}

// ---- measurement -----------------------------------------------------------

/// One measured leg of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Population size.
    pub n: usize,
    /// Events dispatched in one run.
    pub events: u64,
    /// Wall-clock of the best of the two runs, milliseconds.
    pub wall_ms: f64,
    /// Events per wall-clock second (best run).
    pub steps_per_sec: f64,
    /// Nominal wire bytes per node over the horizon.
    pub bytes_per_node: f64,
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
    /// Virtual horizon per run, seconds.
    pub horizon_secs: u64,
    /// `std::thread::available_parallelism` of the measuring host.
    pub hardware_threads: usize,
}

fn config() -> SimConfig {
    SimConfig {
        link: LinkModel {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_millis(5),
                max: SimDuration::from_millis(50),
            },
            loss: LossModel::None,
        },
        max_events: u64::MAX,
    }
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

fn run_wheel(params: &ScaleParams, n: usize) -> ScaleRow {
    let deadline = SimTime::from_micros(params.horizon.as_micros());
    let run = || {
        let mut sim: Simulation<ScaleProto> = Simulation::new(config(), params.seed);
        sim.enable_digest();
        sim.reserve_nodes(n);
        for _ in 0..n {
            sim.add_node(ScaleProto::new());
        }
        let started = Instant::now();
        sim.run_until(deadline);
        let wall = started.elapsed().as_secs_f64();
        (
            sim.metrics().events_dispatched,
            sim.metrics().messages_sent,
            sim.event_digest().expect("digest enabled"),
            wall,
        )
    };
    let [(events, sent, digest, wall_a), (_, _, digest_b, wall_b)] = [run(), run()];
    let wall = wall_a.min(wall_b);
    ScaleRow {
        n,
        events,
        wall_ms: wall * 1e3,
        steps_per_sec: if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        bytes_per_node: (sent * NOMINAL_MSG_BYTES) as f64 / n as f64,
        peak_rss_bytes: peak_rss_bytes(),
        digest,
        deterministic: digest == digest_b,
    }
}

/// Run the sweep: per population, the wheel engine twice, for the
/// determinism assertion.
pub fn run_scale(params: &ScaleParams) -> ScaleReport {
    let rows = params
        .populations
        .iter()
        .map(|&n| {
            eprintln!("#   scale: n = {n}…");
            run_wheel(params, n)
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

    /// The `reproduce --scale --smoke` gate: replay and throughput (the
    /// digests are pinned in `tests/engine_digests.rs`).
    pub fn gate(&self) -> Result<String, String> {
        let wheel = self
            .row(GATE_N)
            .ok_or(format!("no wheel row at n = {GATE_N}"))?;
        ensure!(self.rows.iter().all(|row| row.deterministic));
        ensure!(wheel.steps_per_sec >= STEPS_PER_SEC_FLOOR, wheel);
        Ok(format!(
            "at n = {GATE_N}: wheel {:.0} ksteps/s",
            wheel.steps_per_sec / 1e3
        ))
    }

    /// The sweep as a table; its JSON is `BENCH_scale.json`.
    pub fn to_table(&self) -> Table {
        const MIB: f64 = 1024.0 * 1024.0;
        let columns = [
            Column::new("n", "n", |r: &ScaleRow| r.n.into()),
            Column::new("events", "events", |r| r.events.into()),
            Column::new("wall_ms", "", |r| Cell::float(r.wall_ms, 1, 1)),
            Column::new("steps_per_sec", "", |r| Cell::float(r.steps_per_sec, 0, 0)),
            Column::new("", "ksteps/s", |r| Cell::float(r.steps_per_sec / 1e3, 0, 0)),
            Column::new("bytes_per_node", "bytes/node", |r| {
                Cell::float(r.bytes_per_node, 1, 0)
            }),
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
            "Engine scale sweep (seed = {}, horizon = {}s, host threads = {})",
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
            assert!(row.bytes_per_node > 0.0);
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

    #[test]
    fn keepalive_targets_form_a_rooted_forest() {
        assert_eq!(ScaleProto::keepalive_target(0), None);
        // In-group tree edges.
        assert_eq!(ScaleProto::keepalive_target(1), Some(NodeAddr(0)));
        assert_eq!(ScaleProto::keepalive_target(5), Some(NodeAddr(1)));
        assert_eq!(
            ScaleProto::keepalive_target(GROUP + 9),
            Some(NodeAddr(GROUP + 2))
        );
        // Group roots report to the global root.
        assert_eq!(ScaleProto::keepalive_target(GROUP), Some(NodeAddr(0)));
        assert_eq!(ScaleProto::keepalive_target(3 * GROUP), Some(NodeAddr(0)));
        // Every node eventually reaches node 0.
        for start in [7u64, 255, 256, 300, 1023, 5000] {
            let mut cur = start;
            let mut hops = 0;
            while let Some(next) = ScaleProto::keepalive_target(cur) {
                cur = next.0;
                hops += 1;
                assert!(hops < 64, "cycle detected from {start}");
            }
            assert_eq!(cur, 0);
        }
    }

    /// A report that passes the gate: the engine replays at n = 10⁴, at a
    /// million steps/s.
    fn passing_report() -> ScaleReport {
        let row = ScaleRow {
            n: GATE_N,
            events: 1_000,
            wall_ms: 1.0,
            steps_per_sec: 1e6,
            bytes_per_node: 48.0,
            peak_rss_bytes: 0,
            digest: 1,
            deterministic: true,
        };
        ScaleReport {
            rows: vec![row],
            seed: 1,
            horizon_secs: 2,
            hardware_threads: 2,
        }
    }

    #[test]
    fn scale_gate_needs_its_acceptance_row() {
        let mut report = passing_report();
        assert!(report.gate().is_ok(), "{:?}", report.gate());
        report.rows.clear();
        assert_eq!(report.gate().unwrap_err(), "no wheel row at n = 10000");
    }

    #[test]
    fn scale_gate_names_the_check_that_failed() {
        let mut report = passing_report();
        report.rows[0].steps_per_sec = 1e3;
        let err = report.gate().unwrap_err();
        assert!(
            err.starts_with("wheel.steps_per_sec >= STEPS_PER_SEC_FLOOR; wheel = ScaleRow {"),
            "{err}"
        );
    }
}
