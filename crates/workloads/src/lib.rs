//! # workloads — evaluation workloads for the TreeP reproduction
//!
//! The paper evaluates TreeP on a steady-state topology subjected to random
//! node failures while lookups are issued (Section IV). This crate provides
//! the pieces of that methodology:
//!
//! * [`builder::TopologyBuilder`] — constructs a steady-state TreeP
//!   hierarchy of `n` heterogeneous nodes directly inside a
//!   [`simnet::Simulation`] (the paper starts its measurements "when the
//!   system reaches its steady state, which is based on the maximum
//!   hierarchy size").
//! * [`churn::ChurnPlan`] — the failure schedule: disconnect 5 % of the
//!   initial population per step until only 5 % survive.
//! * [`lookups::LookupWorkload`] — batches of random lookups between
//!   surviving nodes.
//! * [`multicast::MulticastWorkload`] — batches of scoped multicasts and
//!   subtree aggregations over random identifier ranges.
//! * [`kv::KvWorkload`] — a deterministic put/get key-value corpus for the
//!   DHT durability-under-churn experiment.
//! * [`zipf::ZipfSampler`] — a seeded Zipf(α) rank sampler for skewed
//!   read-storm key popularity.
//! * [`capabilities::CapabilityDistribution`] — homogeneous or heterogeneous
//!   node-resource populations.

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod builder;
mod capabilities;
mod churn;
mod kv;
mod lookups;
mod multicast;
mod pubsub;
mod zipf;

pub use builder::{BuiltNode, BuiltTopology, TopologyBuilder, SETTLE};
pub use capabilities::CapabilityDistribution;
pub use churn::{ChurnPlan, ChurnStep};
pub use kv::{KvOp, KvWorkload};
pub use lookups::{LookupBatch, LookupWorkload};
pub use multicast::{MulticastBatch, MulticastOp, MulticastWorkload};
pub use pubsub::{PubSubWorkload, PublishOp, SubscriptionChange, SubscriptionOp};
pub use zipf::ZipfSampler;
