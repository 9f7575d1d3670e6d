//! # experiments — reproduction drivers for the TreeP evaluation (Section IV)
//!
//! The paper evaluates TreeP by building a steady-state topology, removing 5 %
//! of the nodes per step until only 5 % survive, and issuing random lookups
//! with the three routing algorithms (G, NG, NGSA) at every step. This crate
//! packages that methodology:
//!
//! * [`ExperimentParams`] — knobs of one run (population, child policy, seed,
//!   lookups per step, churn schedule).
//! * `Scenario` and [`DeliveryTally`] — the one harness every TreeP driver
//!   below runs on: build (on lossy links if asked), crash a churn step, sum
//!   `NodeStats` counters over the live nodes, drain an outcome queue, and
//!   the coverage / duplicate-factor / messages-per-delivery arithmetic.
//! * [`run_churn_experiment`] — the measurement loop shared by every figure;
//!   it produces a [`ChurnRunResult`].
//! * [`FIGURES`] — every paper figure (A–I), declared once: its plot and the
//!   numbers the paper reads off it. [`Figure::table`] renders it from the
//!   [`SeedRuns`] of K seeds, [`Figure::compare`] holds it against those
//!   readings ([`verdict`] sums them up), and [`paper_table`] gathers every
//!   reading (`BENCH_paper.json`).
//! * [`routing_table_report`] — the routing-table-size accounting of Section
//!   III.e, read off the overlays the churn runs built.
//! * [`maintenance_table`] — the maintenance-overhead ablation.
//! * [`compare_overlays`] — TreeP vs Chord vs flooding under identical
//!   workloads.
//! * [`compare_multicast`] — scoped multicast vs flooding broadcast at equal
//!   reach (coverage, duplicate factor, messages per delivery; Figure M).
//! * [`sweep_multicast_loss`] — multicast coverage vs per-hop loss, the
//!   reliability layer off vs on (Figure L).
//! * [`run_durability`] — DHT durability under churn: availability vs failed
//!   fraction for replication factors k = 1 vs k = 3, plus anti-entropy
//!   repair convergence (Figure R).
//! * [`run_read_storm`] — the read-path serving layer under a Zipf-skewed read
//!   storm: p99 hops and per-node max load, hot-key cache off vs on (Figure S).
//! * [`compare_pubsub`] — subscription-pruned topic publish vs flooding
//!   broadcast across subscriber fan-out tiers (Figure P).
//! * [`run_scale`] — the engine scale sweep (n = 10³ … 10⁶): steps/sec,
//!   bytes/node and peak RSS of the timer-wheel and sharded simulation
//!   engines under an identical keep-alive workload. The cost of telemetry
//!   is the benchmark's `trace.overhead_ratio`, not a leg here.
//!
//! Every result type renders through one `to_table()` into an
//! [`analysis::Table`] — aligned text, CSV and BENCH JSON from one column
//! list. Each report a CI smoke step holds ([`LossSweep`],
//! [`DurabilityReport`], [`ReadStormReport`], [`PubSubComparison`],
//! [`ScaleReport`]) has one `gate()`: `Ok` with its summary line, or `Err`
//! with the check that failed; `reproduce --smoke` and the module's unit
//! test both call it. The `reproduce` binary declares every experiment once,
//! in its `EXPERIMENTS` table, and drives all of the above from the command
//! line; the timed legs live in `benchmark/`.

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

/// Return `Err` from the enclosing `gate()` unless `$holds`: the check as
/// written, then each `$shown` value.
macro_rules! ensure {
    ($holds:expr $(, $shown:expr)*) => {
        let holds: bool = $holds;
        if !holds {
            let shown: Vec<String> = vec![$(format!("; {} = {:?}", stringify!($shown), $shown)),*];
            return Err(format!("{}{}", stringify!($holds), shown.concat()));
        }
    };
}

mod baseline_compare;
mod durability;
mod figures;
mod maintenance;
mod multicast_compare;
mod params;
mod pubsub_compare;
mod readpath;
mod runner;
mod scale;
mod table_routing;
mod trace_demo;

pub use baseline_compare::{compare_overlays, OverlayComparison, OverlayRow};
pub use durability::{run_durability, DurabilityParams, DurabilityReport, DurabilityRow};
pub use figures::{
    hop_surface, paper_table, verdict, Figure, Plot, Reading, ReadingRow, SeedRuns, FIGURES,
};
pub use maintenance::maintenance_table;
pub use multicast_compare::{
    compare_multicast, sweep_multicast_loss, LossRow, LossSweep, LossSweepParams,
    MulticastComparison, MulticastParams, MulticastRow,
};
pub use params::ExperimentParams;
pub use pubsub_compare::{compare_pubsub, PubSubComparison, PubSubParams, PubSubRow};
pub use readpath::{run_read_storm, ReadStormParams, ReadStormReport, ReadStormRow};
pub use runner::{
    run_churn_experiment, AlgoStepStats, ChurnRunResult, DeliveryTally, StepMeasurement,
};
pub use scale::{run_scale, ScaleParams, ScaleReport, ScaleRow};
pub use table_routing::{routing_table_report, LevelTableRow, RoutingTableReport};
pub use trace_demo::{run_trace_demo, OpTraceSummary, TraceDemoParams, TraceDemoReport};
