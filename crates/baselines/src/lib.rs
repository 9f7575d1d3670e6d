//! # baselines — reference overlays for comparison against TreeP
//!
//! The paper positions TreeP against two families of peer-to-peer systems
//! (Section I / Related Work): structured DHTs such as Chord, and
//! unstructured flooding networks such as Gnutella. To give the reproduction
//! the same frame of reference, this crate implements small but faithful
//! versions of both on top of the same [`simnet`] substrate and the same
//! crash-failure / lookup workload machinery used for TreeP:
//!
//! * [`ChordNode`] — a Chord ring with successor lists and finger tables,
//!   recursive `O(log n)` lookups.
//! * [`FloodingNode`] — an unstructured random graph flooding lookups with a
//!   TTL and duplicate suppression.
//!
//! Both expose the same shape of API as `treep::TreePNode` (`start_lookup`,
//! `drain_lookup_outcomes`) so the ablation experiments can drive all three
//! overlays with identical workloads.

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod chord;
mod flooding;

pub use chord::{ChordBuilder, ChordLookupOutcome, ChordMessage, ChordNode};
pub use flooding::{FloodingBuilder, FloodingLookupOutcome, FloodingMessage, FloodingNode};
