//! # treep-repro — a from-scratch reproduction of *TreeP: A Tree Based P2P
//! Network Architecture* (Hudzia, Kechadi, Ottewill — CLUSTER 2005)
//!
//! This meta-crate re-exports the workspace members so downstream users can
//! depend on a single crate, and hosts the cross-crate integration tests in
//! `tests/`.
//!
//! | crate | role |
//! |-------|------|
//! | [`simnet`] | deterministic discrete-event network simulator (the evaluation substrate) |
//! | [`treep`] | the TreeP overlay itself: 1-D tessellations, six routing tables, countdown elections, G/NG/NGSA lookups, DHT layer, and the tree-scoped multicast / subtree-aggregation subsystem (`treep::multicast`) |
//! | [`workloads`] | steady-state topology builder, churn schedule, lookup + multicast workloads, capability distributions |
//! | [`baselines`] | Chord and Gnutella-style flooding (lookup + broadcast) baselines on the same simulator |
//! | [`analysis`] | summary statistics, series, hop histograms/surfaces, and the one `Table` that renders aligned text, CSV and BENCH JSON |
//! | [`experiments`] | the one `Scenario` harness of the Section IV measurement loop and every figure/table driver on it |
//! | [`treep_net`] | real UDP transport driving the same sans-IO node state machine |
//!
//! The workspace builds offline: the handful of external crates the code
//! refers to (`serde`, `bytes`) are provided as minimal API-compatible shims
//! under `crates/shims/`, and `simnet` ships its own seedable RNG. Timed
//! legs live in `benchmark/`, a workspace of its own.

#![warn(missing_docs)]

pub use analysis;
pub use baselines;
pub use experiments;
pub use simnet;
pub use treep;
pub use treep_net;
pub use workloads;
