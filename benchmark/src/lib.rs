//! The TreeP reproduction's benchmark: four workloads over the public APIs
//! of `workloads`, `simnet`, `treep` and `treep-net`, measured on calibrated
//! host time, checked against an oracle, with a traced pass that breaks the
//! time down by layer. See `README.md` for the method and the tables.

pub mod host;
pub mod json;
pub mod legs;
pub mod report;
pub mod run;
mod run_sim;
mod run_udp;
pub mod sim;
pub mod spec;
pub mod trace;
pub mod udp;
